//! The plan compiler: op graphs → validated, fingerprinted execution
//! plans.
//!
//! Compilation does three jobs before any ciphertext exists:
//!
//! 1. **Static legality.** For CKKS it tracks each node's `(level,
//!    scale)` with the *exact* f64 arithmetic the evaluator will perform
//!    (`mul_const` divides the scale by `|c|`; `mul`/`square` multiply
//!    scales then rescale by the actual top prime), so any level or
//!    scale mismatch the evaluator would reject surfaces here as
//!    [`ServiceError::InvalidRequest`] — before the request is admitted,
//!    encrypted, or packed.
//! 2. **Fingerprinting.** A [`ManifestBuilder`] folds the scheme tag,
//!    op tags, operand indices, and constant bit patterns into a
//!    context-independent program hash. Requests with equal fingerprints
//!    compute the same function, which is what the slot packer and the
//!    key cache group by.
//! 3. **Lowering.** Each op becomes the accelerator [`Step`]s it would
//!    cost on the Alchemist configuration, sealed by a pure-step
//!    [`ScheduleManifest`]. The server re-checks the manifest with
//!    [`alchemist_core::Simulator::run_checked`] at execution time, extending the
//!    schedule-integrity lattice from the simulator up through the
//!    service layer. The fingerprint deliberately folds *more* than the
//!    manifest (program context); the manifest stays bit-compatible with
//!    `ScheduleManifest::of(&steps)` so `run_checked` accepts it.

use alchemist_core::{ManifestBuilder, ScheduleManifest, Step};
use fhe_ckks::CkksContext;
use metaop::OpClass;

use crate::error::ServiceError;
use crate::request::{OpKind, Request, Scheme};

/// Scale-ratio tolerance mirrored from the CKKS evaluator's
/// `check_pair`: operands must agree within 0.1 %.
const SCALE_RTOL: f64 = 1e-3;

/// A compiled, validated request.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Which scheme executes it.
    pub scheme: Scheme,
    /// Context-independent program hash (scheme + ops + constants).
    /// Equal fingerprints ⇔ same function ⇔ packable together.
    pub fingerprint: u64,
    /// The lowered accelerator schedule.
    pub steps: Vec<Step>,
    /// Pure-step manifest over [`steps`](Self::steps), accepted by
    /// `Simulator::run_checked`.
    pub manifest: ScheduleManifest,
    /// The program itself (the executor walks it).
    pub ops: Vec<OpKind>,
    /// Per-node `(level, scale)` (CKKS; empty for TFHE).
    pub node_states: Vec<(usize, f64)>,
    /// Levels the program consumes from fresh input to output.
    pub levels_consumed: usize,
}

/// Folds the program (not its lowering) into a fingerprint.
fn fingerprint(req: &Request) -> u64 {
    let mut b = ManifestBuilder::new();
    b.fold_bytes(b"service.plan.v1");
    b.fold_u64(req.scheme.tag());
    b.fold_u64(req.ops.len() as u64);
    for op in &req.ops {
        b.fold_u64(op.tag());
        match *op {
            OpKind::Input => {}
            OpKind::AddConst { arg, c } | OpKind::MulConst { arg, c } => {
                b.fold_u64(arg as u64).fold_u64(c.to_bits());
            }
            OpKind::Negate { arg } | OpKind::Square { arg } => {
                b.fold_u64(arg as u64);
            }
            OpKind::Add { a, b: rhs } | OpKind::Mul { a, b: rhs } => {
                b.fold_u64(a as u64).fold_u64(rhs as u64);
            }
        }
    }
    b.digest()
}

/// Approximate HBM bytes of one ciphertext at `level` (two components,
/// `level + 1` channels, 8-byte limbs).
fn ct_bytes(n: usize, level: usize) -> u64 {
    2 * (level as u64 + 1) * n as u64 * 8
}

/// Compiles a CKKS request against a context.
///
/// # Errors
///
/// [`ServiceError::InvalidRequest`] for anything the evaluator would
/// reject at runtime: mismatched operand levels or scales, a multiply at
/// level 0, a zero/non-finite constant, or a payload wider than the
/// ring's slot capacity.
pub fn compile_ckks(req: &Request, ctx: &CkksContext) -> Result<Plan, ServiceError> {
    req.validate()?;
    if req.scheme != Scheme::Ckks {
        return Err(ServiceError::InvalidRequest { detail: "compile_ckks on non-CKKS".into() });
    }
    let slots = ctx.n() / 2;
    if req.slots_needed() > slots {
        return Err(ServiceError::InvalidRequest {
            detail: format!("{} slots exceed ring capacity {slots}", req.slots_needed()),
        });
    }
    let bad = |detail: String| Err(ServiceError::InvalidRequest { detail });
    let top = ctx.q_len() - 1;
    let fresh_scale = ctx.params().scale();
    let n = ctx.n() as u32;
    let mut states: Vec<(usize, f64)> = Vec::with_capacity(req.ops.len());
    let mut steps: Vec<Step> = Vec::new();

    let pair_ok = |a: (usize, f64), b: (usize, f64)| -> bool {
        let ratio = a.1 / b.1;
        a.0 == b.0 && ratio > 1.0 - SCALE_RTOL && ratio < 1.0 + SCALE_RTOL
    };

    for (i, op) in req.ops.iter().enumerate() {
        let state = match *op {
            OpKind::Input => {
                steps.push(Step::transfer(format!("svc.load[{i}]"), ct_bytes(ctx.n(), top), 0));
                (top, fresh_scale)
            }
            OpKind::AddConst { arg, c } => {
                if !c.is_finite() {
                    return bad(format!("node {i}: non-finite addend {c}"));
                }
                let s = states[arg];
                // add_plain: one add per channel pair, scale unchanged.
                steps.push(Step::adds(format!("svc.addc[{i}]"), s.0 as u64 + 1));
                s
            }
            OpKind::MulConst { arg, c } => {
                if c == 0.0 || !c.is_finite() {
                    return bad(format!("node {i}: invalid factor {c}"));
                }
                let (lvl, scale) = states[arg];
                // Scale reinterpretation: free of Meta-OPs, but the new
                // scale must still clear the noise gate downstream.
                steps.push(Step::compute(format!("svc.mulc[{i}]"), OpClass::Elementwise, 1, n));
                (lvl, scale / c.abs())
            }
            OpKind::Negate { arg } => {
                let s = states[arg];
                steps.push(Step::adds(format!("svc.neg[{i}]"), s.0 as u64 + 1));
                s
            }
            OpKind::Square { arg } => {
                let (lvl, scale) = states[arg];
                if lvl == 0 {
                    return bad(format!("node {i}: square at level 0"));
                }
                let q_top = ctx.rns().moduli()[lvl].value() as f64;
                push_mul_steps(&mut steps, i, lvl, n);
                (lvl - 1, scale * scale / q_top)
            }
            OpKind::Add { a, b } => {
                let (sa, sb) = (states[a], states[b]);
                if !pair_ok(sa, sb) {
                    return bad(format!(
                        "node {i}: add operands disagree (level {} scale {:.3e} vs level {} \
                         scale {:.3e})",
                        sa.0, sa.1, sb.0, sb.1
                    ));
                }
                steps.push(Step::adds(format!("svc.add[{i}]"), sa.0 as u64 + 1));
                sa
            }
            OpKind::Mul { a, b } => {
                let (sa, sb) = (states[a], states[b]);
                if !pair_ok(sa, sb) {
                    return bad(format!(
                        "node {i}: mul operands disagree (level {} scale {:.3e} vs level {} \
                         scale {:.3e})",
                        sa.0, sa.1, sb.0, sb.1
                    ));
                }
                if sa.0 == 0 {
                    return bad(format!("node {i}: multiply at level 0"));
                }
                let q_top = ctx.rns().moduli()[sa.0].value() as f64;
                push_mul_steps(&mut steps, i, sa.0, n);
                (sa.0 - 1, sa.1 * sb.1 / q_top)
            }
        };
        states.push(state);
    }

    let out = *states.last().expect("validated non-empty graph");
    steps.push(Step::transfer("svc.store", ct_bytes(ctx.n(), out.0), 0));
    let manifest = ScheduleManifest::of(&steps);
    Ok(Plan {
        scheme: Scheme::Ckks,
        fingerprint: fingerprint(req),
        steps,
        manifest,
        ops: req.ops.clone(),
        node_states: states,
        levels_consumed: top - out.0,
    })
}

/// Lowers one ciphertext–ciphertext multiply (tensor product +
/// relinearization + rescale) at `lvl`.
fn push_mul_steps(steps: &mut Vec<Step>, node: usize, lvl: usize, n: u32) {
    let ch = lvl as u64 + 1;
    // Tensor product: 4 pointwise channel products; relinearization
    // decomposes + key-switches (NTT-heavy); rescale INTTs the dropped
    // channel and folds it into the rest.
    steps.push(Step::compute(format!("svc.mul.tensor[{node}]"), OpClass::Elementwise, 4 * ch, n));
    steps.push(Step::compute(format!("svc.mul.relin[{node}]"), OpClass::DecompPolyMult, 2 * ch, n));
    steps.push(Step::compute(format!("svc.mul.ntt[{node}]"), OpClass::Ntt, ch, n));
    steps.push(Step::compute(format!("svc.rescale[{node}]"), OpClass::Ntt, ch, n));
}

/// Compiles a TFHE request: gate counts only (every gate is one
/// bootstrap; the schedule models the PBS as an NTT-class step).
///
/// # Errors
///
/// [`ServiceError::InvalidRequest`] on structural defects.
pub fn compile_tfhe(req: &Request) -> Result<Plan, ServiceError> {
    req.validate()?;
    if req.scheme != Scheme::Tfhe {
        return Err(ServiceError::InvalidRequest { detail: "compile_tfhe on non-TFHE".into() });
    }
    let mut steps = Vec::new();
    for (i, op) in req.ops.iter().enumerate() {
        match op {
            OpKind::Input => steps.push(Step::transfer(format!("svc.lwe.load[{i}]"), 1 << 12, 0)),
            OpKind::Negate { .. } => steps.push(Step::adds(format!("svc.not[{i}]"), 1)),
            // XOR / AND both cost one programmable bootstrap.
            _ => steps.push(Step::compute(format!("svc.pbs[{i}]"), OpClass::Ntt, 64, 1024)),
        }
    }
    let manifest = ScheduleManifest::of(&steps);
    Ok(Plan {
        scheme: Scheme::Tfhe,
        fingerprint: fingerprint(req),
        steps,
        manifest,
        ops: req.ops.clone(),
        node_states: Vec::new(),
        levels_consumed: 0,
    })
}

/// Compiles either scheme.
///
/// # Errors
///
/// See [`compile_ckks`] / [`compile_tfhe`].
pub fn compile(req: &Request, ctx: &CkksContext) -> Result<Plan, ServiceError> {
    match req.scheme {
        Scheme::Ckks => compile_ckks(req, ctx),
        Scheme::Tfhe => compile_tfhe(req),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{FaultFlag, Payload};
    use alchemist_core::{ArchConfig, Simulator};
    use fhe_ckks::CkksParams;

    fn ctx() -> CkksContext {
        CkksContext::new(CkksParams::toy().unwrap()).unwrap()
    }

    fn req(ops: Vec<OpKind>) -> Request {
        Request {
            tenant: 1,
            scheme: Scheme::Ckks,
            ops,
            payload: Payload::CkksSlots(vec![0.5; 8]),
            fault: FaultFlag::None,
        }
    }

    #[test]
    fn mismatched_scales_rejected_statically() {
        // x*2 has scale Δ/2; adding it to x (scale Δ) must fail compile.
        let r = req(vec![
            OpKind::Input,
            OpKind::MulConst { arg: 0, c: 2.0 },
            OpKind::Add { a: 0, b: 1 },
        ]);
        let e = compile_ckks(&r, &ctx()).unwrap_err();
        assert!(matches!(e, ServiceError::InvalidRequest { .. }), "{e}");
    }

    #[test]
    fn level_mismatch_rejected_statically() {
        // x² is one level below x.
        let r = req(vec![OpKind::Input, OpKind::Square { arg: 0 }, OpKind::Add { a: 0, b: 1 }]);
        assert!(compile_ckks(&r, &ctx()).is_err());
    }

    #[test]
    fn chain_exhaustion_rejected_statically() {
        // toy has L=3 ⇒ top level 3; four squarings cannot fit.
        let r = req(vec![
            OpKind::Input,
            OpKind::Square { arg: 0 },
            OpKind::Square { arg: 1 },
            OpKind::Square { arg: 2 },
            OpKind::Square { arg: 3 },
        ]);
        let e = compile_ckks(&r, &ctx()).unwrap_err();
        assert!(e.to_string().contains("level 0"), "{e}");
    }

    #[test]
    fn zero_constant_rejected() {
        let r = req(vec![OpKind::Input, OpKind::MulConst { arg: 0, c: 0.0 }]);
        assert!(compile_ckks(&r, &ctx()).is_err());
    }

    #[test]
    fn fingerprint_separates_programs_not_tenants() {
        let c = ctx();
        let a = compile_ckks(&req(vec![OpKind::Input, OpKind::AddConst { arg: 0, c: 1.0 }]), &c)
            .unwrap();
        let mut other = req(vec![OpKind::Input, OpKind::AddConst { arg: 0, c: 1.0 }]);
        other.tenant = 999;
        let b = compile_ckks(&other, &c).unwrap();
        assert_eq!(a.fingerprint, b.fingerprint, "tenant must not affect the program hash");
        let diff = compile_ckks(&req(vec![OpKind::Input, OpKind::AddConst { arg: 0, c: 2.0 }]), &c)
            .unwrap();
        assert_ne!(a.fingerprint, diff.fingerprint, "constants are part of the program");
    }

    #[test]
    fn manifest_passes_run_checked() {
        let plan = compile_ckks(
            &req(vec![
                OpKind::Input,
                OpKind::Square { arg: 0 },
                OpKind::AddConst { arg: 1, c: 3.0 },
            ]),
            &ctx(),
        )
        .unwrap();
        assert_eq!(plan.levels_consumed, 1);
        let sim = Simulator::new(ArchConfig::paper());
        let report = sim.run_checked(&plan.steps, &plan.manifest).unwrap();
        assert!(report.cycles > 0);
        // A tampered schedule (dropped step) must be refused.
        let truncated = &plan.steps[..plan.steps.len() - 1];
        assert!(sim.run_checked(truncated, &plan.manifest).is_err());
    }

    #[test]
    fn tfhe_plan_compiles_and_checks() {
        let r = Request {
            tenant: 3,
            scheme: Scheme::Tfhe,
            ops: vec![
                OpKind::Input,
                OpKind::Input,
                OpKind::Mul { a: 0, b: 1 },
                OpKind::Negate { arg: 2 },
            ],
            payload: Payload::TfheBits(vec![true, false]),
            fault: FaultFlag::None,
        };
        let plan = compile_tfhe(&r).unwrap();
        Simulator::new(ArchConfig::paper()).run_checked(&plan.steps, &plan.manifest).unwrap();
    }
}
