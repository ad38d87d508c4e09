//! Lowering the negacyclic NTT onto Meta-OPs (paper §4.2, Fig. 4c).
//!
//! The kernel's schedule ([`fhe_math::radix_blocks`]) regroups the `log2 N`
//! radix-2 stages into **radix-8 butterflies** (three stages) plus
//! **radix-4 butterflies** when `log2(N) % 3 ≠ 0`, so every polynomial
//! length `N ∈ [2^10, 2^16]` (and smaller, for tests) lowers cleanly. Each
//! radix-8 butterfly is one `(M_8 A_8)_3 R_8` Meta-OP and each pair of
//! radix-4 butterflies one `(M_8 A_8)_2 R_8`: `N/8` Meta-OPs a pass, the
//! paper's 24 lane-mults + 8 reductions per radix-8 group, and exactly what
//! [`crate::counts::ntt_counts`] charges.
//!
//! A butterfly block is a *linear* map. [`NttTable::run_blocks`] walks the
//! kernel's own passes and hands over each group's block as its matrix,
//! probed from the kernel's radix-8/4 blocks on the same twiddles (the
//! inverse's root block with `N^{-1}` folded in, so the inverse needs no
//! scaling pass either). The lowering executes it with [`lazy_mac`]: each
//! column times its input coefficient, summed lazily and reduced once per
//! output. The hardware additionally reuses shared products through its
//! addition array (Fig. 5d); the linear map — and hence the result — is
//! identical, which is what the bit-exactness tests against
//! [`fhe_math::NttTable`] check.

use crate::{MetaOp, MetaOpTrace, OpClass};
use fhe_math::{lazy_mac, MacBroadcast, MacSlots, Modulus, NttTable};

/// A Meta-OP lowering of a fixed [`NttTable`].
///
/// See the crate-level example for usage; `forward`/`inverse` are bit-exact
/// replacements for the reference transforms that additionally record the
/// Meta-OP stream they consumed.
#[derive(Debug, Clone)]
pub struct NttLowering<'a> {
    table: &'a NttTable,
}

impl<'a> NttLowering<'a> {
    /// The lowering of `table`'s transforms.
    pub fn new(table: &'a NttTable) -> Self {
        NttLowering { table }
    }

    /// Forward NTT via Meta-OPs; bit-exact vs [`NttTable::forward`].
    ///
    /// # Panics
    ///
    /// Panics if `a.len()` differs from the table size.
    pub fn forward(&self, a: &mut [u64], trace: &mut MetaOpTrace) {
        let _span = telemetry::Span::enter("metaop.ntt.forward");
        self.run(a, false, trace);
    }

    /// Inverse NTT via Meta-OPs, `N^{-1}` scaling included; bit-exact vs
    /// [`NttTable::inverse`].
    ///
    /// # Panics
    ///
    /// Panics if `a.len()` differs from the table size.
    pub fn inverse(&self, a: &mut [u64], trace: &mut MetaOpTrace) {
        let _span = telemetry::Span::enter("metaop.ntt.inverse");
        self.run(a, true, trace);
    }

    fn run(&self, a: &mut [u64], inverse: bool, trace: &mut MetaOpTrace) {
        let m = self.table.modulus();
        self.table.run_blocks(a, inverse, |matrix, group| {
            let r = if matrix.len() == 64 { 8 } else { 4 };
            let e = group.len() / r;
            for k in 0..e {
                apply_tuple(group, matrix, &m, k, e, r);
            }
            // Two radix-4 butterflies share one 8-lane Meta-OP.
            let (stages, ops) = if r == 8 { (3, e) } else { (2, e.div_ceil(2)) };
            trace.record(MetaOp::new(OpClass::Ntt, 8, stages), ops as u64);
        });
    }
}

/// Gathers the tuple `{k + i·e}` of `group`, applies the butterfly matrix
/// (`matrix`, `r × r` column-major) with [`lazy_mac`], and scatters back.
fn apply_tuple(group: &mut [u64], matrix: &[u64], m: &Modulus, k: usize, e: usize, r: usize) {
    let (mut v, mut out) = ([0u64; 8], [0u64; 8]);
    for (i, x) in v[..r].iter_mut().enumerate() {
        *x = group[k + i * e];
    }
    let column = |i: usize| (&matrix[i * r..][..r], std::slice::from_ref(&v[i]));
    lazy_mac(m, r, column, MacSlots, MacBroadcast, &mut out[..r]);
    for (i, &x) in out[..r].iter().enumerate() {
        group[k + i * e] = x;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counts;
    use fhe_math::generate_ntt_primes;

    fn table(n: usize) -> NttTable {
        let q = Modulus::new(generate_ntt_primes(36, n, 1).unwrap()[0]).unwrap();
        NttTable::new(q, n).unwrap()
    }

    /// The lowered transform of a ramp and the table's own, with the trace.
    fn lowered(t: &NttTable, inverse: bool) -> (Vec<u64>, Vec<u64>, MetaOpTrace) {
        let q = t.modulus().value();
        let mut a: Vec<u64> = (0..t.n() as u64).map(|i| (i * 0x9e3779b9 + 17) % q).collect();
        let mut reference = a.clone();
        let mut trace = MetaOpTrace::new();
        if inverse {
            NttLowering::new(t).inverse(&mut a, &mut trace);
            t.inverse(&mut reference);
        } else {
            NttLowering::new(t).forward(&mut a, &mut trace);
            t.forward(&mut reference);
        }
        (a, reference, trace)
    }

    #[test]
    fn forward_bit_exact_all_log_residues() {
        // Every size the table takes: every mix of radix-8 and radix-4
        // passes, and the IFMA kernel (from 16 points) as the reference.
        for log_n in 3..=17 {
            let (got, want, _) = lowered(&table(1 << log_n), false);
            assert_eq!(got, want, "n = 2^{log_n}");
        }
    }

    #[test]
    fn inverse_bit_exact_all_log_residues() {
        for log_n in 3..=17 {
            let (got, want, _) = lowered(&table(1 << log_n), true);
            assert_eq!(got, want, "n = 2^{log_n}");
        }
    }

    #[test]
    fn forward_then_inverse_via_metaops_is_identity() {
        let t = table(256);
        let q = t.modulus().value();
        let lowering = NttLowering::new(&t);
        let original: Vec<u64> = (0..256u64).map(|i| (i * i) % q).collect();
        let mut a = original.clone();
        let mut trace = MetaOpTrace::new();
        lowering.forward(&mut a, &mut trace);
        lowering.inverse(&mut a, &mut trace);
        assert_eq!(a, original);
    }

    /// The radix-8 `(M_8 A_8)_3 R_8` and radix-4 `(M_8 A_8)_2 R_8` Meta-OPs
    /// of a trace.
    fn ops_by_radix(trace: &MetaOpTrace) -> (u64, u64) {
        let ops = |stages| {
            trace.entries().iter().filter(|(op, _)| op.n() == stages).map(|&(_, c)| c).sum()
        };
        (ops(3), ops(2))
    }

    #[test]
    fn block_schedule_shapes() {
        // (radix-8 passes, radix-4 passes) of the schedule, n/8 ops each.
        for (n, (r8, r4)) in [(64, (2, 0)), (32, (1, 1)), (128, (1, 2))] {
            let (_, _, trace) = lowered(&table(n), false);
            let n = n as u64;
            assert_eq!(ops_by_radix(&trace), (n / 8 * r8, n / 8 * r4), "n = {n}");
        }
    }

    #[test]
    fn meta_op_counts_match_paper_accounting() {
        // For n = 512 (log 9 = 3 radix-8 blocks): each block issues n/8
        // Meta-OPs of (M8A8)_3R8; total mults = 3 blocks * (512/8) * 8*(3+2)
        // = 7680, i.e. 15 mults/coefficient — the 40-mults-per-radix-8-group
        // figure of §4.2 (40/8 per coefficient per block). Every size from 32
        // points up records, in both directions, the n/8 Meta-OPs a pass that
        // the model's NTT steps and multiply counts charge (at 16 points the
        // last radix-4 pass has one butterfly a group, none to pair with).
        assert_eq!(counts::ntt_counts(512).meta, 3 * (512 / 8) * 8 * 5);
        for log_n in 5..=17 {
            let n = 1u64 << log_n;
            let t = table(n as usize);
            let (r8, r4) = counts::ntt_blocks(n);
            for inverse in [false, true] {
                let (_, _, trace) = lowered(&t, inverse);
                let case = format!("n = 2^{log_n}, inverse = {inverse}");
                assert_eq!(trace.total_ops(), n / 8 * (r8 + r4), "{case}");
                assert_eq!(ops_by_radix(&trace), (n / 8 * r8, n / 8 * r4), "{case}");
                let mults: u64 = trace.entries().iter().map(|&(op, c)| op.mults() * c).sum();
                assert_eq!(mults, counts::ntt_counts(n).meta, "{case}");
            }
        }
    }

    #[test]
    fn trace_classes_are_ntt() {
        let t = table(128);
        for inverse in [false, true] {
            let (_, _, trace) = lowered(&t, inverse);
            assert!(trace.entries().iter().all(|(op, _)| op.class() == OpClass::Ntt));
        }
    }
}
