//! Meta-OP descriptors, access patterns and execution traces.

use std::fmt;

/// The three data access patterns a Meta-OP consumes (paper Table 4).
///
/// | computation      | pattern      |
/// |------------------|--------------|
/// | (I)NTT           | `Slots`      |
/// | `DecompPolyMult` | `DnumGroup`  |
/// | `Modup/down`     | `Channel`    |
///
/// With Alchemist's slot-based partitioning every pattern resolves inside a
/// computing unit's private scratchpad, which is what lets the 128 units run
/// without inter-unit traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessPattern {
    /// Contiguous slots of one polynomial (NTT butterflies after 4-step
    /// decomposition).
    Slots,
    /// The same slot across all RNS channels (base conversion).
    Channel,
    /// The same slot and channel across all decomposition digits
    /// (`DecompPolyMult` accumulation).
    DnumGroup,
}

impl fmt::Display for AccessPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AccessPattern::Slots => "slots",
            AccessPattern::Channel => "channel",
            AccessPattern::DnumGroup => "dnum_group",
        };
        f.write_str(s)
    }
}

/// Which high-level operator family a Meta-OP was lowered from. Used by the
/// simulator's utilization breakdown (paper Fig. 7b reports utilization per
/// class).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Forward or inverse NTT butterfly work.
    Ntt,
    /// RNS base conversion (`Bconv`, and the conversions inside
    /// `Modup`/`Moddown`).
    Bconv,
    /// Decomposed polynomial × evaluation-key accumulation.
    DecompPolyMult,
    /// Element-wise multiply/add/scale work that maps onto `(M_j A_j)_1 R_j`.
    Elementwise,
    /// Pure data movement (HBM↔scratchpad staging) with no arithmetic: the
    /// simulator's prefetch/writeback steps. Never appears in a
    /// [`MetaOpTrace`]; it exists so data movement is not mislabeled as
    /// element-wise compute in utilization breakdowns.
    Transfer,
}

impl OpClass {
    /// The canonical access pattern of this operator family (paper Table 4;
    /// transfers stream contiguous slots).
    pub fn access_pattern(self) -> AccessPattern {
        match self {
            OpClass::Ntt => AccessPattern::Slots,
            OpClass::Bconv => AccessPattern::Channel,
            OpClass::DecompPolyMult => AccessPattern::DnumGroup,
            OpClass::Elementwise => AccessPattern::Slots,
            OpClass::Transfer => AccessPattern::Slots,
        }
    }

    /// All classes, in display order.
    pub fn all() -> [OpClass; 5] {
        [
            OpClass::Ntt,
            OpClass::Bconv,
            OpClass::DecompPolyMult,
            OpClass::Elementwise,
            OpClass::Transfer,
        ]
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpClass::Ntt => "ntt",
            OpClass::Bconv => "bconv",
            OpClass::DecompPolyMult => "decomp_poly_mult",
            OpClass::Elementwise => "elementwise",
            OpClass::Transfer => "transfer",
        };
        f.write_str(s)
    }
}

/// One `(M_j A_j)_n R_j` Meta-OP instance.
///
/// # Example
///
/// ```
/// use metaop::{MetaOp, OpClass};
/// let op = MetaOp::new(OpClass::Bconv, 8, 44); // Bconv dot product over L = 44
/// assert_eq!(op.cycles(), 46);                 // n + 2
/// assert_eq!(op.mults(), 8 * 46);              // j·n lane mults + 2j reduction mults
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MetaOp {
    class: OpClass,
    j: u32,
    n: u32,
}

impl MetaOp {
    /// Creates a Meta-OP descriptor with `j` lanes iterated `n` times.
    ///
    /// # Panics
    ///
    /// Panics if `j == 0` or `n == 0`.
    pub fn new(class: OpClass, j: u32, n: u32) -> Self {
        assert!(j > 0 && n > 0, "Meta-OP dimensions must be positive");
        MetaOp { class, j, n }
    }

    /// The operator family this op was lowered from.
    #[inline]
    pub fn class(&self) -> OpClass {
        self.class
    }

    /// Lane parallelism `j` (8 on the Alchemist core).
    #[inline]
    pub fn j(&self) -> u32 {
        self.j
    }

    /// Iteration count `n` (the dynamic runtime parameter).
    #[inline]
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Cycles on the unified core: `n` multiply-accumulate cycles plus two
    /// reduction cycles on the reused multiplier array (paper §5.2).
    #[inline]
    pub fn cycles(&self) -> u64 {
        self.n as u64 + 2
    }

    /// Word multiplications consumed: `j` per MA cycle plus `2j` for the
    /// Barrett reduction.
    #[inline]
    pub fn mults(&self) -> u64 {
        self.j as u64 * (self.n as u64 + 2)
    }

    /// The access pattern this op requires of the data management layer.
    #[inline]
    pub fn access_pattern(&self) -> AccessPattern {
        self.class.access_pattern()
    }
}

/// An aggregated trace of Meta-OPs: `(descriptor, repetition count)` pairs.
///
/// Lowerings append to a trace as they execute; the simulator replays traces
/// onto the core pipeline, and the accounting layer reads totals off them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetaOpTrace {
    entries: Vec<(MetaOp, u64)>,
}

impl MetaOpTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `count` repetitions of `op`, merging with the previous entry
    /// when identical (keeps traces compact for big lowerings).
    pub fn record(&mut self, op: MetaOp, count: u64) {
        if count == 0 {
            return;
        }
        if let Some(last) = self.entries.last_mut() {
            if last.0 == op {
                last.1 += count;
                return;
            }
        }
        self.entries.push((op, count));
    }

    /// The recorded `(op, count)` entries in order.
    #[inline]
    pub fn entries(&self) -> &[(MetaOp, u64)] {
        &self.entries
    }

    /// Total number of Meta-OP instances.
    pub fn total_ops(&self) -> u64 {
        self.entries.iter().map(|&(_, c)| c).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_model_matches_paper() {
        // DecompPolyMult with dnum digits: (M_j A_j)_dnum R_j costs
        // j*(dnum+2) mults per op — the (dnum+2)·N of Table 2 once N/j ops
        // cover a polynomial.
        let dnum = 4;
        let n_poly = 1u64 << 12;
        let op = MetaOp::new(OpClass::DecompPolyMult, 8, dnum);
        let ops_per_poly = n_poly / 8;
        assert_eq!(op.mults() * ops_per_poly, (dnum as u64 + 2) * n_poly);
    }

    #[test]
    fn trace_merging_and_totals() {
        let mut t = MetaOpTrace::new();
        let op = MetaOp::new(OpClass::Ntt, 8, 3);
        t.record(op, 10);
        t.record(op, 5);
        t.record(MetaOp::new(OpClass::Bconv, 8, 4), 2);
        t.record(op, 0); // ignored
        assert_eq!(t.entries().len(), 2);
        assert_eq!(t.total_ops(), 17);
    }

    #[test]
    fn access_patterns_match_table4() {
        assert_eq!(OpClass::Ntt.access_pattern(), AccessPattern::Slots);
        assert_eq!(OpClass::Bconv.access_pattern(), AccessPattern::Channel);
        assert_eq!(OpClass::DecompPolyMult.access_pattern(), AccessPattern::DnumGroup);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_dimension_rejected() {
        let _ = MetaOp::new(OpClass::Ntt, 0, 3);
    }
}
