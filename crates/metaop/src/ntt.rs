//! Lowering the negacyclic NTT onto Meta-OPs (paper §4.2, Fig. 4c).
//!
//! The iterative radix-2 NTT is regrouped into **radix-8 butterflies**
//! (three consecutive radix-2 stages) plus **radix-4 butterflies** when
//! `log2(N) % 3 ≠ 0`, so every polynomial length `N ∈ [2^10, 2^16]` (and
//! smaller, for tests) lowers cleanly. Each radix-8 butterfly is one
//! `(M_8 A_8)_3 R_8` Meta-OP and each pair of radix-4 butterflies one
//! `(M_8 A_8)_2 R_8`, matching the paper's accounting of 24 lane-mults + 8
//! reductions per radix-8 group.
//!
//! A radix-8 butterfly is a *linear* map on 8 coefficients; the lowering
//! materializes its 8×8 matrix by probing the three scalar butterfly stages
//! with basis vectors and then executes it as 8 lazy dot products with one
//! Barrett reduction each ([`crate::exec::matvec_lazy`]). The hardware
//! additionally reuses shared products through its addition array (Fig. 5d);
//! the linear map — and hence the result — is identical, which is what the
//! bit-exactness tests against [`fhe_math::NttTable`] check.

use crate::exec::matvec_lazy;
use crate::{MetaOp, MetaOpTrace, OpClass};
use fhe_math::{Modulus, NttTable, ShoupScalar};

/// How one group of radix-2 stages is blocked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Block {
    /// Three stages fused into radix-8 butterflies.
    Radix8,
    /// Two stages fused into radix-4 butterflies.
    Radix4,
}

/// A Meta-OP lowering of a fixed [`NttTable`].
///
/// See the crate-level example for usage; `forward`/`inverse` are bit-exact
/// replacements for the reference transforms that additionally record the
/// Meta-OP stream they consumed.
#[derive(Debug, Clone)]
pub struct NttLowering<'a> {
    table: &'a NttTable,
    blocks: Vec<Block>,
}

impl<'a> NttLowering<'a> {
    /// Plans the radix-8/radix-4 block schedule for `table`.
    pub fn new(table: &'a NttTable) -> Self {
        let (r8, r4) = fhe_math::radix_blocks(table.log_n());
        let mut blocks = Vec::with_capacity((r8 + r4) as usize);
        blocks.extend(std::iter::repeat_n(Block::Radix8, r8 as usize));
        blocks.extend(std::iter::repeat_n(Block::Radix4, r4 as usize));
        NttLowering { table, blocks }
    }

    /// Number of radix-8 blocks in the schedule.
    pub fn radix8_blocks(&self) -> usize {
        self.blocks.iter().filter(|b| **b == Block::Radix8).count()
    }

    /// Number of radix-4 blocks in the schedule.
    pub fn radix4_blocks(&self) -> usize {
        self.blocks.iter().filter(|b| **b == Block::Radix4).count()
    }

    /// Forward NTT via Meta-OPs; bit-exact vs [`NttTable::forward`].
    ///
    /// # Panics
    ///
    /// Panics if `a.len()` differs from the table size.
    pub fn forward(&self, a: &mut [u64], trace: &mut MetaOpTrace) {
        let _span = telemetry::Span::enter("metaop.ntt.forward");
        assert_eq!(a.len(), self.table.n());
        let mut stage = 0u32;
        for block in &self.blocks {
            match block {
                Block::Radix8 => {
                    self.forward_radix8(a, stage, trace);
                    stage += 3;
                }
                Block::Radix4 => {
                    self.forward_radix4(a, stage, trace);
                    stage += 2;
                }
            }
        }
        debug_assert_eq!(stage, self.table.log_n());
    }

    /// Inverse NTT via Meta-OPs (including the `N^{-1}` scaling, executed as
    /// element-wise `(M_8 A_8)_1 R_8`); bit-exact vs [`NttTable::inverse`].
    ///
    /// # Panics
    ///
    /// Panics if `a.len()` differs from the table size.
    pub fn inverse(&self, a: &mut [u64], trace: &mut MetaOpTrace) {
        let _span = telemetry::Span::enter("metaop.ntt.inverse");
        assert_eq!(a.len(), self.table.n());
        // Mirror of the forward schedule: smallest spans first.
        let mut stage = 0u32;
        for block in self.blocks.iter().rev() {
            match block {
                Block::Radix4 => {
                    self.inverse_radix4(a, stage, trace);
                    stage += 2;
                }
                Block::Radix8 => {
                    self.inverse_radix8(a, stage, trace);
                    stage += 3;
                }
            }
        }
        debug_assert_eq!(stage, self.table.log_n());
        let m = self.table.modulus();
        let n_inv = self.table.n_inv();
        for x in a.iter_mut() {
            *x = m.mul_shoup(*x, n_inv);
        }
        trace.record(MetaOp::new(OpClass::Elementwise, 8, 1), (a.len() / 8).max(1) as u64);
    }

    fn forward_radix8(&self, a: &mut [u64], stage: u32, trace: &mut MetaOpTrace) {
        let n = self.table.n();
        let m = self.table.modulus();
        let psi = self.table.psi_rev();
        let groups = 1usize << stage;
        let t = n >> (stage + 1);
        debug_assert!(t >= 4, "radix-8 block requires span >= 4");
        let stride = t / 4;
        for g in 0..groups {
            let w1 = psi[groups + g];
            let w2 = [psi[2 * groups + 2 * g], psi[2 * groups + 2 * g + 1]];
            let w3: [ShoupScalar; 4] = std::array::from_fn(|k| psi[4 * groups + 4 * g + k]);
            let mat = probe_matrix8(&m, |v| {
                ct_stage(v, &m, 4, &[w1]);
                ct_stage(v, &m, 2, &w2);
                ct_stage(v, &m, 1, &w3);
            });
            let base = 2 * g * t;
            for r in 0..stride {
                apply_subset(a, &mat, &m, base + r, stride, 8);
            }
            trace.record(MetaOp::new(OpClass::Ntt, 8, 3), stride as u64);
        }
    }

    fn forward_radix4(&self, a: &mut [u64], stage: u32, trace: &mut MetaOpTrace) {
        let n = self.table.n();
        let m = self.table.modulus();
        let psi = self.table.psi_rev();
        let groups = 1usize << stage;
        let t = n >> (stage + 1);
        debug_assert!(t >= 2, "radix-4 block requires span >= 2");
        let stride = t / 2;
        for g in 0..groups {
            let w1 = psi[groups + g];
            let w2 = [psi[2 * groups + 2 * g], psi[2 * groups + 2 * g + 1]];
            let mat = probe_matrix4(&m, |v| {
                ct_stage(v, &m, 2, &[w1]);
                ct_stage(v, &m, 1, &w2);
            });
            let base = 2 * g * t;
            for r in 0..stride {
                apply_subset(a, &mat, &m, base + r, stride, 4);
            }
            // Two radix-4 butterflies share one 8-lane Meta-OP.
            trace.record(MetaOp::new(OpClass::Ntt, 8, 2), stride.div_ceil(2) as u64);
        }
    }

    fn inverse_radix8(&self, a: &mut [u64], stage: u32, trace: &mut MetaOpTrace) {
        let n = self.table.n();
        let m = self.table.modulus();
        let psi = self.table.psi_inv_rev();
        let t = 1usize << stage;
        let super_groups = n >> (stage + 3); // groups at stage+2
        for g in 0..super_groups {
            let wa: [ShoupScalar; 4] = std::array::from_fn(|k| psi[(n >> (stage + 1)) + 4 * g + k]);
            let wb = [psi[(n >> (stage + 2)) + 2 * g], psi[(n >> (stage + 2)) + 2 * g + 1]];
            let wc = [psi[super_groups + g]];
            let mat = probe_matrix8(&m, |v| {
                gs_stage(v, &m, 1, &wa);
                gs_stage(v, &m, 2, &wb);
                gs_stage(v, &m, 4, &wc);
            });
            let base = g * 8 * t;
            for r in 0..t {
                apply_subset(a, &mat, &m, base + r, t, 8);
            }
            trace.record(MetaOp::new(OpClass::Ntt, 8, 3), t as u64);
        }
    }

    fn inverse_radix4(&self, a: &mut [u64], stage: u32, trace: &mut MetaOpTrace) {
        let n = self.table.n();
        let m = self.table.modulus();
        let psi = self.table.psi_inv_rev();
        let t = 1usize << stage;
        let super_groups = n >> (stage + 2); // groups at stage+1
        for g in 0..super_groups {
            let wa = [psi[(n >> (stage + 1)) + 2 * g], psi[(n >> (stage + 1)) + 2 * g + 1]];
            let wb = [psi[super_groups + g]];
            let mat = probe_matrix4(&m, |v| {
                gs_stage(v, &m, 1, &wa);
                gs_stage(v, &m, 2, &wb);
            });
            let base = g * 4 * t;
            for r in 0..t {
                apply_subset(a, &mat, &m, base + r, t, 4);
            }
            trace.record(MetaOp::new(OpClass::Ntt, 8, 2), t.div_ceil(2) as u64);
        }
    }
}

/// One Cooley–Tukey stage restricted to an 8-or-4 element window, expressed
/// in subset-index units. `half` is the butterfly span in subset units and
/// `tw` holds one twiddle per group within the window.
fn ct_stage(v: &mut [u64], m: &Modulus, half: usize, tw: &[ShoupScalar]) {
    let group_size = 2 * half;
    for (gi, &w) in tw.iter().enumerate() {
        let base = gi * group_size;
        for k in base..base + half {
            let u = v[k];
            let x = m.mul_shoup(v[k + half], w);
            v[k] = m.add(u, x);
            v[k + half] = m.sub(u, x);
        }
    }
}

/// One Gentleman–Sande stage restricted to a window (subset-index units).
fn gs_stage(v: &mut [u64], m: &Modulus, half: usize, tw: &[ShoupScalar]) {
    let group_size = 2 * half;
    for (gi, &w) in tw.iter().enumerate() {
        let base = gi * group_size;
        for k in base..base + half {
            let u = v[k];
            let x = v[k + half];
            v[k] = m.add(u, x);
            v[k + half] = m.mul_shoup(m.sub(u, x), w);
        }
    }
}

/// Materializes the 8×8 matrix of a 3-stage butterfly by probing basis
/// vectors (row-major).
fn probe_matrix8(m: &Modulus, stages: impl Fn(&mut [u64])) -> Vec<u64> {
    probe_matrix(m, stages, 8)
}

/// Materializes the 4×4 matrix of a 2-stage butterfly.
fn probe_matrix4(m: &Modulus, stages: impl Fn(&mut [u64])) -> Vec<u64> {
    probe_matrix(m, stages, 4)
}

fn probe_matrix(_m: &Modulus, stages: impl Fn(&mut [u64]), r: usize) -> Vec<u64> {
    let mut mat = vec![0u64; r * r];
    let mut v = vec![0u64; r];
    for i in 0..r {
        v.iter_mut().for_each(|x| *x = 0);
        v[i] = 1;
        stages(&mut v);
        for k in 0..r {
            mat[k * r + i] = v[k];
        }
    }
    mat
}

/// Gathers the subset `{base + k·stride}`, applies the butterfly matrix via
/// lazy dot products, and scatters back.
fn apply_subset(a: &mut [u64], mat: &[u64], m: &Modulus, base: usize, stride: usize, r: usize) {
    let mut v = vec![0u64; r];
    for (k, x) in v.iter_mut().enumerate() {
        *x = a[base + k * stride];
    }
    let out = matvec_lazy(m, mat, &v);
    for (k, &x) in out.iter().enumerate() {
        a[base + k * stride] = x;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhe_math::generate_ntt_primes;

    fn table(n: usize) -> NttTable {
        let q = Modulus::new(generate_ntt_primes(36, n, 1).unwrap()[0]).unwrap();
        NttTable::new(q, n).unwrap()
    }

    #[test]
    fn forward_bit_exact_all_log_residues() {
        // log2(n) % 3 covers 0 (64, 512), 1 (16, 128), 2 (8, 32, 256).
        for n in [8usize, 16, 32, 64, 128, 256, 512, 1024] {
            let t = table(n);
            let q = t.modulus().value();
            let mut a: Vec<u64> = (0..n as u64).map(|i| (i * 0x9e3779b9 + 17) % q).collect();
            let mut reference = a.clone();
            let mut trace = MetaOpTrace::new();
            NttLowering::new(&t).forward(&mut a, &mut trace);
            t.forward(&mut reference);
            assert_eq!(a, reference, "n = {n}");
            assert!(trace.total_ops() > 0);
        }
    }

    #[test]
    fn inverse_bit_exact_all_log_residues() {
        for n in [8usize, 16, 32, 64, 128, 256, 512] {
            let t = table(n);
            let q = t.modulus().value();
            let mut a: Vec<u64> = (0..n as u64).map(|i| (i * 31 + 7) % q).collect();
            let mut reference = a.clone();
            let mut trace = MetaOpTrace::new();
            NttLowering::new(&t).inverse(&mut a, &mut trace);
            t.inverse(&mut reference);
            assert_eq!(a, reference, "n = {n}");
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

    #[test]
    fn block_schedule_shapes() {
        assert_eq!(NttLowering::new(&table(64)).radix8_blocks(), 2); // log 6
        assert_eq!(NttLowering::new(&table(64)).radix4_blocks(), 0);
        assert_eq!(NttLowering::new(&table(16)).radix8_blocks(), 0); // log 4
        assert_eq!(NttLowering::new(&table(16)).radix4_blocks(), 2);
        assert_eq!(NttLowering::new(&table(32)).radix8_blocks(), 1); // log 5
        assert_eq!(NttLowering::new(&table(32)).radix4_blocks(), 1);
    }

    #[test]
    fn meta_op_counts_match_paper_accounting() {
        // For n = 512 (log 9 = 3 radix-8 blocks): each block issues n/8
        // Meta-OPs of (M8A8)_3R8; total mults = 3 blocks * (512/8) * 8*(3+2)
        // = 7680, i.e. 15 mults/coefficient — the 40-mults-per-radix-8-group
        // figure of §4.2 (40/8 per coefficient per block).
        let t = table(512);
        let mut a = vec![1u64; 512];
        let mut trace = MetaOpTrace::new();
        NttLowering::new(&t).forward(&mut a, &mut trace);
        assert_eq!(trace.total_ops(), 3 * 512 / 8);
        assert_eq!(trace.total_mults(), 3 * (512 / 8) * 8 * 5);
    }

    #[test]
    fn trace_classes_are_ntt() {
        let t = table(128);
        let mut a = vec![0u64; 128];
        let mut trace = MetaOpTrace::new();
        NttLowering::new(&t).forward(&mut a, &mut trace);
        assert!(trace.entries().iter().all(|(op, _)| op.class() == OpClass::Ntt));
    }
}
