//! The service's request model: a tenant-tagged op DAG over encrypted
//! inputs.
//!
//! A [`Request`] is the wire-level unit of work: which tenant, which
//! scheme, the operation graph, and the cleartext payload the server
//! encrypts under that tenant's keys before evaluating (the demo server
//! plays both client and server so traces stay self-contained; a real
//! deployment would receive ciphertexts).
//!
//! The graph is a flat `Vec<OpKind>` in topological order — every
//! operand index points strictly backward — which makes validation a
//! single forward pass and keeps the plan compiler allocation-light.

use crate::error::ServiceError;

/// Tenant identifier. The synthetic trace draws these from a
/// million-tenant id space.
pub type TenantId = u64;

/// Which FHE scheme evaluates the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Approximate arithmetic over packed real slots.
    Ckks,
    /// Exact GF(2) gate evaluation (Add → XOR, Mul → AND, Negate → NOT).
    Tfhe,
}

impl Scheme {
    /// Stable tag folded into plan fingerprints.
    pub fn tag(self) -> u64 {
        match self {
            Scheme::Ckks => 1,
            Scheme::Tfhe => 2,
        }
    }
}

/// One node of the op graph. Operand fields index earlier nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OpKind {
    /// An encrypted input (CKKS: the single packed vector; TFHE: one bit
    /// per `Input` node, in payload order).
    Input,
    /// `arg + c` (CKKS only; `c` is encoded at the operand's level/scale).
    AddConst {
        /// Operand node.
        arg: usize,
        /// Cleartext addend.
        c: f64,
    },
    /// `arg · c` by scale reinterpretation (CKKS only; `c` must be
    /// non-zero and finite).
    MulConst {
        /// Operand node.
        arg: usize,
        /// Cleartext factor.
        c: f64,
    },
    /// `-arg` (CKKS) / `NOT arg` (TFHE).
    Negate {
        /// Operand node.
        arg: usize,
    },
    /// `arg²` followed by a rescale (CKKS only; consumes one level).
    Square {
        /// Operand node.
        arg: usize,
    },
    /// `a + b` (CKKS) / `a XOR b` (TFHE).
    Add {
        /// Left operand node.
        a: usize,
        /// Right operand node.
        b: usize,
    },
    /// `a · b` followed by a rescale (CKKS; consumes one level) /
    /// `a AND b` (TFHE).
    Mul {
        /// Left operand node.
        a: usize,
        /// Right operand node.
        b: usize,
    },
}

impl OpKind {
    /// Stable tag folded into plan fingerprints.
    pub fn tag(&self) -> u64 {
        match self {
            OpKind::Input => 0,
            OpKind::AddConst { .. } => 1,
            OpKind::MulConst { .. } => 2,
            OpKind::Negate { .. } => 3,
            OpKind::Square { .. } => 4,
            OpKind::Add { .. } => 5,
            OpKind::Mul { .. } => 6,
        }
    }
}

/// The cleartext payload the server encrypts under the tenant's keys.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// CKKS slot values for the single `Input` node.
    CkksSlots(Vec<f64>),
    /// One bit per TFHE `Input` node, in node order.
    TfheBits(Vec<bool>),
}

/// A deliberate fault riding on a request (trace/testing surface): the
/// containment lattice must fail exactly this request, not the batch and
/// not the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultFlag {
    /// No injected fault.
    None,
    /// The worker panics mid-evaluation; `catch_unwind` contains it.
    WorkerPanic,
    /// One ciphertext coefficient bit is flipped post-encryption via the
    /// faultsim corruption surface; the integrity checksum (or, with its
    /// runtime switch off, the decrypt-side noise gate) catches it.
    BitFlip,
    /// Repeated un-rescaled squarings burn the noise budget; decryption
    /// refuses with `BudgetExhausted`.
    BudgetBurn,
    /// The worker sleeps `ms` milliseconds mid-evaluation (cancellable at
    /// shutdown) — the chaos surface for the watchdog: a stall longer
    /// than the supervisor's timeout gets the batch confiscated and the
    /// worker respawned.
    WorkerStall {
        /// Injected stall duration in milliseconds.
        ms: u64,
    },
}

/// One unit of client work.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Submitting tenant.
    pub tenant: TenantId,
    /// Evaluating scheme.
    pub scheme: Scheme,
    /// The op graph; the last node is the output.
    pub ops: Vec<OpKind>,
    /// Cleartext inputs.
    pub payload: Payload,
    /// Injected fault, if any.
    pub fault: FaultFlag,
}

impl Request {
    /// Structural validation: edges point backward, inputs match the
    /// payload, ops match the scheme, CKKS slot values are finite.
    /// Level/scale legality is the plan compiler's job ([`crate::plan::compile_ckks`]).
    ///
    /// # Errors
    ///
    /// [`ServiceError::InvalidRequest`] with the first defect found.
    pub fn validate(&self) -> Result<(), ServiceError> {
        let bad = |detail: String| Err(ServiceError::InvalidRequest { detail });
        if self.ops.is_empty() {
            return bad("empty op graph".into());
        }
        let mut inputs = 0usize;
        for (i, op) in self.ops.iter().enumerate() {
            let (args, nargs): ([usize; 2], usize) = match *op {
                OpKind::Input => {
                    inputs += 1;
                    ([0, 0], 0)
                }
                OpKind::AddConst { arg, .. }
                | OpKind::MulConst { arg, .. }
                | OpKind::Negate { arg }
                | OpKind::Square { arg } => ([arg, 0], 1),
                OpKind::Add { a, b } | OpKind::Mul { a, b } => ([a, b], 2),
            };
            for &a in &args[..nargs] {
                if a >= i {
                    return bad(format!("node {i} references non-earlier node {a}"));
                }
            }
            if self.scheme == Scheme::Tfhe
                && matches!(
                    op,
                    OpKind::AddConst { .. } | OpKind::MulConst { .. } | OpKind::Square { .. }
                )
            {
                return bad(format!("node {i}: {op:?} has no GF(2) mapping"));
            }
        }
        match (&self.payload, self.scheme) {
            (Payload::CkksSlots(v), Scheme::Ckks) => {
                if inputs != 1 {
                    return bad(format!("CKKS requests take exactly 1 input, got {inputs}"));
                }
                if v.is_empty() {
                    return bad("empty CKKS payload".into());
                }
                if let Some(i) = v.iter().position(|x| !x.is_finite()) {
                    return bad(format!("CKKS payload slot {i} is non-finite ({})", v[i]));
                }
            }
            (Payload::TfheBits(bits), Scheme::Tfhe) => {
                if inputs != bits.len() {
                    return bad(format!(
                        "TFHE payload has {} bits but the graph has {inputs} inputs",
                        bits.len()
                    ));
                }
                if inputs == 0 {
                    return bad("TFHE request with no inputs".into());
                }
            }
            (p, s) => return bad(format!("payload {p:?} does not match scheme {s:?}")),
        }
        Ok(())
    }

    /// Number of CKKS slots this request needs (0 for TFHE).
    pub fn slots_needed(&self) -> usize {
        match &self.payload {
            Payload::CkksSlots(v) => v.len(),
            Payload::TfheBits(_) => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ckks_req(ops: Vec<OpKind>, slots: usize) -> Request {
        Request {
            tenant: 7,
            scheme: Scheme::Ckks,
            ops,
            payload: Payload::CkksSlots(vec![1.0; slots]),
            fault: FaultFlag::None,
        }
    }

    #[test]
    fn forward_edges_are_rejected() {
        let r = ckks_req(vec![OpKind::Input, OpKind::Add { a: 0, b: 2 }], 4);
        let e = r.validate().unwrap_err();
        assert!(matches!(e, ServiceError::InvalidRequest { .. }), "{e}");
    }

    #[test]
    fn tfhe_rejects_const_ops() {
        let r = Request {
            tenant: 1,
            scheme: Scheme::Tfhe,
            ops: vec![OpKind::Input, OpKind::AddConst { arg: 0, c: 1.0 }],
            payload: Payload::TfheBits(vec![true]),
            fault: FaultFlag::None,
        };
        assert!(r.validate().is_err());
    }

    #[test]
    fn tfhe_input_count_must_match_payload() {
        let r = Request {
            tenant: 1,
            scheme: Scheme::Tfhe,
            ops: vec![OpKind::Input, OpKind::Input, OpKind::Mul { a: 0, b: 1 }],
            payload: Payload::TfheBits(vec![true]),
            fault: FaultFlag::None,
        };
        assert!(r.validate().is_err());
        let ok = Request { payload: Payload::TfheBits(vec![true, false]), ..r };
        ok.validate().unwrap();
    }

    #[test]
    fn non_finite_ckks_slots_are_rejected() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut r = ckks_req(vec![OpKind::Input, OpKind::Negate { arg: 0 }], 4);
            r.payload = Payload::CkksSlots(vec![1.0, bad, 1.0, 1.0]);
            let e = r.validate().unwrap_err();
            assert!(
                matches!(&e, ServiceError::InvalidRequest { detail } if detail.contains("slot 1"))
            );
        }
    }

    #[test]
    fn valid_ckks_graph_passes() {
        let r = ckks_req(
            vec![
                OpKind::Input,
                OpKind::MulConst { arg: 0, c: 2.0 },
                OpKind::AddConst { arg: 1, c: 1.0 },
                OpKind::Negate { arg: 2 },
            ],
            8,
        );
        r.validate().unwrap();
        assert_eq!(r.slots_needed(), 8);
    }
}
