//! Negacyclic number-theoretic transforms.
//!
//! [`NttTable`] implements the in-place Cooley–Tukey (forward) /
//! Gentleman–Sande (inverse) negacyclic NTT over `Z_q[X]/(X^N + 1)` with
//! Shoup-precomputed twiddles, following the standard bit-reversed-twiddle
//! formulation (Longa–Naehrig). There is one implementation per direction:
//! the `log N` radix-2 stages are regrouped, as paper §4.2 regroups them,
//! into **radix-8 blocks** (three stages on eight values and seven twiddles
//! held in locals) plus radix-4 blocks when `log N mod 3 ≠ 0`
//! ([`radix_blocks`]), so a transform makes `⌈log N / 3⌉` passes over its
//! data instead of `log N`. Every butterfly is a **Harvey lazy butterfly**
//! (values stay in `[0, 4q)` forward / `[0, 2q)` inverse across stages and
//! blocks, one reduction fused into the last block — paper Table 2's
//! deferred-reduction analysis) and every conditional subtraction is a
//! `min`, so no instruction in the kernel branches on data. All of this is
//! bit-identical to the textbook eager transform; see DESIGN.md §14 for the
//! value-range contract.
//!
//! [`CyclicNtt`] is the plain cyclic transform used as a building block of
//! the 4-step NTT ([`crate::FourStepNtt`]) that Alchemist's slot-based data
//! management relies on (paper §5.3).

use crate::modulus::ShoupScalar;
use crate::simd::{self, csub};
use crate::{MathError, Modulus};

/// Precomputed tables for the negacyclic NTT of a fixed size and modulus.
///
/// The forward transform maps coefficients (natural order) to evaluations in
/// *bit-reversed* order; the inverse consumes that order. All polynomial
/// arithmetic in this workspace keeps NTT-domain data in this matched order,
/// so the order never leaks.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), fhe_math::MathError> {
/// use fhe_math::{generate_ntt_primes, Modulus, NttTable};
/// let q = Modulus::new(generate_ntt_primes(36, 64, 1)?[0])?;
/// let table = NttTable::new(q, 64)?;
/// let mut a = vec![0u64; 64];
/// a[1] = 1; // X
/// let mut b = a.clone();
/// table.forward(&mut a);
/// table.forward(&mut b);
/// let mut prod: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| q.mul(x, y)).collect();
/// table.inverse(&mut prod);
/// assert_eq!(prod[2], 1); // X * X = X^2
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NttTable {
    modulus: Modulus,
    n: usize,
    log_n: u32,
    /// psi^brv(i) for i in 0..n (bit-reversed powers of the 2n-th root).
    psi_rev: Vec<ShoupScalar>,
    /// psi^{-brv(i)} analogue for the inverse transform.
    psi_inv_rev: Vec<ShoupScalar>,
    n_inv: ShoupScalar,
    /// `psi_inv_rev[1] · N^{-1} mod q`: the last inverse stage's twiddle
    /// with the `N^{-1}` scaling folded in, so the inverse needs no separate
    /// scaling pass.
    inv_last: ShoupScalar,
    psi: u64,
}

impl NttTable {
    /// Builds NTT tables for polynomials of degree `n` modulo `modulus`.
    ///
    /// # Errors
    ///
    /// * [`MathError::InvalidDegree`] if `n` is not a power of two in
    ///   `[8, 2^17]`.
    /// * [`MathError::NoNttSupport`] if `q ≢ 1 (mod 2n)` or no primitive
    ///   `2n`-th root of unity exists (composite modulus).
    pub fn new(modulus: Modulus, n: usize) -> Result<Self, MathError> {
        if !n.is_power_of_two() || !(8..=(1 << 17)).contains(&n) {
            return Err(MathError::InvalidDegree { degree: n });
        }
        let q = modulus.value();
        if !(q - 1).is_multiple_of(2 * n as u64) {
            return Err(MathError::NoNttSupport { modulus: q, degree: n });
        }
        let psi = find_primitive_root(modulus, 2 * n as u64)
            .ok_or(MathError::NoNttSupport { modulus: q, degree: n })?;
        let psi_inv = modulus.inv(psi)?;
        let log_n = n.trailing_zeros();

        let mut psi_rev = vec![ShoupScalar::default(); n];
        let mut psi_inv_rev = vec![ShoupScalar::default(); n];
        let mut power = 1u64;
        let mut power_inv = 1u64;
        for i in 0..n {
            let r = bit_reverse(i as u64, log_n) as usize;
            psi_rev[r] = modulus.shoup(power);
            psi_inv_rev[r] = modulus.shoup(power_inv);
            power = modulus.mul(power, psi);
            power_inv = modulus.mul(power_inv, psi_inv);
        }
        let n_inv_val = modulus.inv(n as u64)?;
        let n_inv = modulus.shoup(n_inv_val);
        let inv_last = modulus.shoup(modulus.mul(psi_inv_rev[1].value, n_inv_val));
        Ok(NttTable { modulus, n, log_n, psi_rev, psi_inv_rev, n_inv, inv_last, psi })
    }

    /// The transform size `N`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// `log2(N)`.
    #[inline]
    pub fn log_n(&self) -> u32 {
        self.log_n
    }

    /// The modulus the tables were built for.
    #[inline]
    pub fn modulus(&self) -> Modulus {
        self.modulus
    }

    /// The primitive `2N`-th root of unity ψ used by this table.
    #[inline]
    pub fn psi(&self) -> u64 {
        self.psi
    }

    /// Bit-reversed forward twiddles `ψ^brv(i)`; exposed so the Meta-OP
    /// layer can lower the same transform onto `(M_j A_j)_n R_j` streams.
    #[inline]
    pub fn psi_rev(&self) -> &[ShoupScalar] {
        &self.psi_rev
    }

    /// Bit-reversed inverse twiddles.
    #[inline]
    pub fn psi_inv_rev(&self) -> &[ShoupScalar] {
        &self.psi_inv_rev
    }

    /// `N^{-1} mod q` in Shoup form.
    #[inline]
    pub fn n_inv(&self) -> ShoupScalar {
        self.n_inv
    }

    /// Verifies the lazy input contract once per transform, in every build
    /// profile: one O(n) scan in place of a check per butterfly. The scan
    /// that decides carries no index; only a failing input pays for the
    /// search that names the first offender.
    fn check_lazy_inputs(&self, a: &[u64], op: &str) {
        let two_q = self.modulus.value() << 1;
        if a.iter().all(|&x| x < two_q) {
            return;
        }
        let i = a.iter().position(|&x| x >= two_q).expect("the scan found one");
        panic!("input to NttTable::{op} outside [0, 2q) at index {i}: {}", a[i]);
    }

    /// In-place forward negacyclic NTT (natural → bit-reversed order),
    /// canonical `[0, q)` output.
    ///
    /// Accepts canonical or lazy `[0, 2q)` inputs. Internally runs Harvey
    /// lazy butterflies with the canonicalizing reduction fused into the
    /// last pass; produces exactly the same output as the textbook eager
    /// transform.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != self.n()` or any input is `≥ 2q`.
    pub fn forward(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "polynomial length must match NTT size");
        self.check_lazy_inputs(a, "forward");
        let q = self.modulus.value();
        self.fwd_passes(a, |r| csub(csub(r, q << 1), q));
    }

    /// Forward NTT that leaves its output **lazy** in `[0, 2q)`, saving the
    /// final conditional subtraction per element — the software analogue of
    /// the Meta-OP's deferred `R_j` reduction.
    ///
    /// The output equals [`NttTable::forward`] up to one multiple of `q`
    /// per element; downstream lazy-aware consumers
    /// ([`crate::Poly::to_ntt_lazy`] pipelines, [`Modulus::reduce_2q`])
    /// canonicalize when they need to. Accepts the same `[0, 2q)` inputs as
    /// [`NttTable::forward`].
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != self.n()` or any input is `≥ 2q`.
    pub fn forward_lazy(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "polynomial length must match NTT size");
        self.check_lazy_inputs(a, "forward_lazy");
        let two_q = self.modulus.value() << 1;
        self.fwd_passes(a, |r| csub(r, two_q));
    }

    /// In-place inverse negacyclic NTT (bit-reversed → natural order),
    /// including the `N^{-1}` scaling; canonical `[0, q)` output.
    ///
    /// Runs lazy Gentleman–Sande butterflies (values in `[0, 2q)` across
    /// all stages) with the `N^{-1}` scaling folded into the root stage's
    /// twiddles — no separate scaling pass. Accepts canonical or lazy
    /// `[0, 2q)` inputs and produces exactly the same output as the
    /// textbook eager transform.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != self.n()` or any input is `≥ 2q`.
    pub fn inverse(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "polynomial length must match NTT size");
        self.check_lazy_inputs(a, "inverse");
        let q = self.modulus.value();
        self.inv_passes(a, |r| csub(r, q));
    }

    /// Inverse NTT with **lazy** `[0, 2q)` output (one conditional
    /// subtraction per element cheaper than [`NttTable::inverse`]).
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != self.n()` or any input is `≥ 2q`.
    pub fn inverse_lazy(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "polynomial length must match NTT size");
        self.check_lazy_inputs(a, "inverse_lazy");
        self.inv_passes(a, |r| r);
    }

    /// The forward transform as [`radix_blocks`] register-blocked passes:
    /// radix-4 first (widest strides), radix-8 after. The last pass applies
    /// `fin` — the finishing reduction, fused — to every value it stores.
    fn fwd_passes(&self, a: &mut [u64], fin: impl Fn(u64) -> u64 + Copy) {
        let q = self.modulus.value();
        let tw = &self.psi_rev[..];
        let (r8, r4) = radix_blocks(self.log_n);
        // `e` is the stride between a block's values, `base` the number of
        // groups the pass starts from (its first stage's twiddle offset).
        let (mut e, mut base) = (self.n, 1usize);
        for pass in 0..r4 + r8 {
            let last = pass + 1 == r4 + r8;
            if pass < r4 {
                e /= 4;
                if last {
                    fwd_pass4(a, tw, e, base, q, fin);
                } else {
                    fwd_pass4(a, tw, e, base, q, |r| r);
                }
                base *= 4;
            } else {
                e /= 8;
                if last {
                    fwd_pass8(a, tw, e, base, q, fin);
                } else {
                    fwd_pass8(a, tw, e, base, q, |r| r);
                }
                base *= 8;
            }
        }
    }

    /// The inverse transform: the forward schedule run backwards (radix-8
    /// passes from stride 1 up, radix-4 last). The root stage — the last
    /// stage of the last pass — multiplies both outputs by `N^{-1}` (folded
    /// into the twiddle on the difference side, so the sum needs no
    /// conditional subtraction) and applies `fin`.
    fn inv_passes(&self, a: &mut [u64], fin: impl Fn(u64) -> u64 + Copy) {
        let q = self.modulus.value();
        let two_q = q << 1;
        let tw = &self.psi_inv_rev[..];
        let (n_inv, s_ninv) = (self.n_inv, self.inv_last);
        let bfly = move |u, v, s| simd::inv_bfly(u, v, s, q, two_q);
        let root = move |u: u64, v: u64, _| {
            let r0 = simd::mul_shoup_lazy(u + v, n_inv, q);
            let r1 = simd::mul_shoup_lazy(u + two_q - v, s_ninv, q);
            (fin(r0), fin(r1))
        };
        let (r8, r4) = radix_blocks(self.log_n);
        let mut e = 1usize;
        for pass in 0..r8 + r4 {
            let last = pass + 1 == r8 + r4;
            if pass < r8 {
                let base = self.n / (8 * e);
                if last {
                    inv_pass8(a, tw, e, base, q, root);
                } else {
                    inv_pass8(a, tw, e, base, q, bfly);
                }
                e *= 8;
            } else {
                let base = self.n / (4 * e);
                if last {
                    inv_pass4(a, tw, e, base, q, root);
                } else {
                    inv_pass4(a, tw, e, base, q, bfly);
                }
                e *= 4;
            }
        }
    }
}

/// Radix-8 and radix-4 pass counts `(r8, r4)` of a `2^log_n`-point
/// transform, `3·r8 + 2·r4 = log_n` — the schedule of paper §4.2. The
/// kernel runs it, and `metaop`'s lowering (`NttLowering::new`) and
/// multiply counts (`counts::ntt_blocks`) are built on it. Defined for
/// `log_n ≠ 1`; every [`NttTable`] has `log_n ≥ 3`.
pub fn radix_blocks(log_n: u32) -> (u32, u32) {
    match log_n % 3 {
        0 => (log_n / 3, 0),
        1 => ((log_n - 4) / 3, 2),
        _ => ((log_n - 2) / 3, 1),
    }
}

/// Radix-4 forward block: two CT stages on four values held in locals.
/// `w1` is the first stage's twiddle, `w2` the second stage's pair. Values
/// enter and leave in `[0, 4q)` (DESIGN.md §14.1).
#[inline(always)]
fn fwd4(x: [u64; 4], w1: ShoupScalar, w2: [ShoupScalar; 2], q: u64, two_q: u64) -> [u64; 4] {
    let (a0, a2) = simd::fwd_bfly(x[0], x[2], w1, q, two_q);
    let (a1, a3) = simd::fwd_bfly(x[1], x[3], w1, q, two_q);
    let (b0, b1) = simd::fwd_bfly(a0, a1, w2[0], q, two_q);
    let (b2, b3) = simd::fwd_bfly(a2, a3, w2[1], q, two_q);
    [b0, b1, b2, b3]
}

/// Radix-8 forward block: one CT stage across the halves, then a radix-4
/// block on each half — three stages on eight locals, seven twiddles.
#[inline(always)]
fn fwd8(
    x: [u64; 8],
    w1: ShoupScalar,
    w2: [ShoupScalar; 2],
    w4: [ShoupScalar; 4],
    q: u64,
    two_q: u64,
) -> [u64; 8] {
    let (a0, a4) = simd::fwd_bfly(x[0], x[4], w1, q, two_q);
    let (a1, a5) = simd::fwd_bfly(x[1], x[5], w1, q, two_q);
    let (a2, a6) = simd::fwd_bfly(x[2], x[6], w1, q, two_q);
    let (a3, a7) = simd::fwd_bfly(x[3], x[7], w1, q, two_q);
    let lo = fwd4([a0, a1, a2, a3], w2[0], [w4[0], w4[1]], q, two_q);
    let hi = fwd4([a4, a5, a6, a7], w2[1], [w4[2], w4[3]], q, two_q);
    [lo[0], lo[1], lo[2], lo[3], hi[0], hi[1], hi[2], hi[3]]
}

/// Radix-4 inverse block: two GS stages on four locals, values in
/// `[0, 2q)` throughout; `top` is the second stage's butterfly.
#[inline(always)]
fn inv4(
    x: [u64; 4],
    w2: [ShoupScalar; 2],
    w1: ShoupScalar,
    q: u64,
    two_q: u64,
    top: impl Fn(u64, u64, ShoupScalar) -> (u64, u64),
) -> [u64; 4] {
    let (a0, a1) = simd::inv_bfly(x[0], x[1], w2[0], q, two_q);
    let (a2, a3) = simd::inv_bfly(x[2], x[3], w2[1], q, two_q);
    let (b0, b2) = top(a0, a2, w1);
    let (b1, b3) = top(a1, a3, w1);
    [b0, b1, b2, b3]
}

/// Radix-8 inverse block: a radix-4 block on each half, then one GS stage
/// (`top`) across the halves.
#[inline(always)]
fn inv8(
    x: [u64; 8],
    w4: [ShoupScalar; 4],
    w2: [ShoupScalar; 2],
    w1: ShoupScalar,
    q: u64,
    two_q: u64,
    top: impl Fn(u64, u64, ShoupScalar) -> (u64, u64),
) -> [u64; 8] {
    let bfly = |u, v, s| simd::inv_bfly(u, v, s, q, two_q);
    let lo = inv4([x[0], x[1], x[2], x[3]], [w4[0], w4[1]], w2[0], q, two_q, bfly);
    let hi = inv4([x[4], x[5], x[6], x[7]], [w4[2], w4[3]], w2[1], q, two_q, bfly);
    let (c0, c4) = top(lo[0], hi[0], w1);
    let (c1, c5) = top(lo[1], hi[1], w1);
    let (c2, c6) = top(lo[2], hi[2], w1);
    let (c3, c7) = top(lo[3], hi[3], w1);
    [c0, c1, c2, c3, c4, c5, c6, c7]
}

/// Splits `chunk` (of length `4e`) into its four `e`-long quarters.
#[inline(always)]
fn quarters(chunk: &mut [u64], e: usize) -> [&mut [u64]; 4] {
    let (lo, hi) = chunk.split_at_mut(2 * e);
    let (x0, x1) = lo.split_at_mut(e);
    let (x2, x3) = hi.split_at_mut(e);
    [x0, &mut x1[..e], x2, &mut x3[..e]]
}

/// One radix-4 forward pass over `a`: every run of `4e` values is one
/// group, quarter `j` of it supplying `x[j]`; the group's twiddles are
/// `tw[base + i]` and `tw[2·base + 2i ..][..2]`. `fin` maps every stored
/// value (identity except in a transform's last pass).
fn fwd_pass4(
    a: &mut [u64],
    tw: &[ShoupScalar],
    e: usize,
    base: usize,
    q: u64,
    fin: impl Fn(u64) -> u64 + Copy,
) {
    let two_q = q << 1;
    let (w2s, _) = tw[2 * base..].as_chunks::<2>();
    for ((chunk, &w1), &w2) in a.chunks_exact_mut(4 * e).zip(&tw[base..]).zip(w2s) {
        let [x0, x1, x2, x3] = quarters(chunk, e);
        for k in 0..e {
            let y = fwd4([x0[k], x1[k], x2[k], x3[k]], w1, w2, q, two_q);
            x0[k] = fin(y[0]);
            x1[k] = fin(y[1]);
            x2[k] = fin(y[2]);
            x3[k] = fin(y[3]);
        }
    }
}

/// One radix-8 forward pass: groups of `8e` values, twiddles `tw[base + i]`,
/// `tw[2·base + 2i ..][..2]` and `tw[4·base + 4i ..][..4]`.
fn fwd_pass8(
    a: &mut [u64],
    tw: &[ShoupScalar],
    e: usize,
    base: usize,
    q: u64,
    fin: impl Fn(u64) -> u64 + Copy,
) {
    let two_q = q << 1;
    let (w2s, _) = tw[2 * base..].as_chunks::<2>();
    let (w4s, _) = tw[4 * base..].as_chunks::<4>();
    if e == 1 {
        // Stride 1 — every forward transform's last pass: a block is one
        // contiguous `[u64; 8]`, and skipping the per-group slice splitting
        // for a one-iteration inner loop is worth ≈ 5 % of a transform.
        let blocks = a.as_chunks_mut::<8>().0.iter_mut().zip(&tw[base..]).zip(w2s).zip(w4s);
        for (((x, &w1), &w2), &w4) in blocks {
            *x = fwd8(*x, w1, w2, w4, q, two_q).map(fin);
        }
        return;
    }
    let groups = a.chunks_exact_mut(8 * e).zip(&tw[base..]).zip(w2s).zip(w4s);
    for (((chunk, &w1), &w2), &w4) in groups {
        let (lo, hi) = chunk.split_at_mut(4 * e);
        let [x0, x1, x2, x3] = quarters(lo, e);
        let [x4, x5, x6, x7] = quarters(hi, e);
        for k in 0..e {
            let x = [x0[k], x1[k], x2[k], x3[k], x4[k], x5[k], x6[k], x7[k]];
            let y = fwd8(x, w1, w2, w4, q, two_q);
            x0[k] = fin(y[0]);
            x1[k] = fin(y[1]);
            x2[k] = fin(y[2]);
            x3[k] = fin(y[3]);
            x4[k] = fin(y[4]);
            x5[k] = fin(y[5]);
            x6[k] = fin(y[6]);
            x7[k] = fin(y[7]);
        }
    }
}

/// One radix-4 inverse pass, the mirror of [`fwd_pass4`]: `base` is the
/// twiddle base of the block's *last* stage (`tw[base + i]`), the first
/// stage reads `tw[2·base + 2i ..][..2]`.
fn inv_pass4(
    a: &mut [u64],
    tw: &[ShoupScalar],
    e: usize,
    base: usize,
    q: u64,
    top: impl Fn(u64, u64, ShoupScalar) -> (u64, u64) + Copy,
) {
    let two_q = q << 1;
    let (w2s, _) = tw[2 * base..].as_chunks::<2>();
    for ((chunk, &w1), &w2) in a.chunks_exact_mut(4 * e).zip(&tw[base..]).zip(w2s) {
        let [x0, x1, x2, x3] = quarters(chunk, e);
        for k in 0..e {
            let y = inv4([x0[k], x1[k], x2[k], x3[k]], w2, w1, q, two_q, top);
            x0[k] = y[0];
            x1[k] = y[1];
            x2[k] = y[2];
            x3[k] = y[3];
        }
    }
}

/// One radix-8 inverse pass, the mirror of [`fwd_pass8`].
fn inv_pass8(
    a: &mut [u64],
    tw: &[ShoupScalar],
    e: usize,
    base: usize,
    q: u64,
    top: impl Fn(u64, u64, ShoupScalar) -> (u64, u64) + Copy,
) {
    let two_q = q << 1;
    let (w2s, _) = tw[2 * base..].as_chunks::<2>();
    let (w4s, _) = tw[4 * base..].as_chunks::<4>();
    if e == 1 {
        // Every inverse transform's first pass; see `fwd_pass8`.
        let blocks = a.as_chunks_mut::<8>().0.iter_mut().zip(&tw[base..]).zip(w2s).zip(w4s);
        for (((x, &w1), &w2), &w4) in blocks {
            *x = inv8(*x, w4, w2, w1, q, two_q, top);
        }
        return;
    }
    let groups = a.chunks_exact_mut(8 * e).zip(&tw[base..]).zip(w2s).zip(w4s);
    for (((chunk, &w1), &w2), &w4) in groups {
        let (lo, hi) = chunk.split_at_mut(4 * e);
        let [x0, x1, x2, x3] = quarters(lo, e);
        let [x4, x5, x6, x7] = quarters(hi, e);
        for k in 0..e {
            let x = [x0[k], x1[k], x2[k], x3[k], x4[k], x5[k], x6[k], x7[k]];
            let y = inv8(x, w4, w2, w1, q, two_q, top);
            x0[k] = y[0];
            x1[k] = y[1];
            x2[k] = y[2];
            x3[k] = y[3];
            x4[k] = y[4];
            x5[k] = y[5];
            x6[k] = y[6];
            x7[k] = y[7];
        }
    }
}

/// Tiled matrix transpose: `src` is `rows × cols` row-major, `dst` becomes
/// `cols × rows` (`dst[c·rows + r] = src[r·cols + c]`). The tile size keeps
/// a source tile plus a destination tile inside L1d, so each cache line is
/// touched once per direction — the software analogue of Alchemist's
/// transpose register file.
pub(crate) fn transpose_into(src: &[u64], dst: &mut [u64], rows: usize, cols: usize) {
    debug_assert_eq!(src.len(), rows * cols);
    debug_assert_eq!(dst.len(), rows * cols);
    // 16×16 u64 tiles: 2 KiB in, 2 KiB out — resident even in a 32 KiB L1d.
    const TILE: usize = 16;
    let mut r0 = 0;
    while r0 < rows {
        let r_end = (r0 + TILE).min(rows);
        let mut c0 = 0;
        while c0 < cols {
            let c_end = (c0 + TILE).min(cols);
            for r in r0..r_end {
                for c in c0..c_end {
                    dst[c * rows + r] = src[r * cols + c];
                }
            }
            c0 = c_end;
        }
        r0 = r_end;
    }
}

/// Plain cyclic NTT in *natural* input and output order, used by the
/// 4-step decomposition where explicit matrix transposes carry the data
/// movement (exactly the movement Alchemist's transpose register file
/// performs on chip).
#[derive(Debug, Clone)]
pub struct CyclicNtt {
    modulus: Modulus,
    n: usize,
    log_n: u32,
    /// omega^k for k in 0..n/2, Shoup form.
    pow: Vec<ShoupScalar>,
    /// omega^{-k} for k in 0..n/2, Shoup form.
    pow_inv: Vec<ShoupScalar>,
    n_inv: ShoupScalar,
    omega: u64,
}

impl CyclicNtt {
    /// Builds cyclic NTT tables of size `n` using `omega`, which must be a
    /// primitive `n`-th root of unity modulo `modulus`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::InvalidDegree`] for non-power-of-two sizes and
    /// [`MathError::NoNttSupport`] if `omega` is not a primitive `n`-th root.
    pub fn with_root(modulus: Modulus, n: usize, omega: u64) -> Result<Self, MathError> {
        if !n.is_power_of_two() || n < 2 {
            return Err(MathError::InvalidDegree { degree: n });
        }
        if modulus.pow(omega, n as u64) != 1 || modulus.pow(omega, n as u64 / 2) == 1 {
            return Err(MathError::NoNttSupport { modulus: modulus.value(), degree: n });
        }
        let omega_inv = modulus.inv(omega)?;
        let log_n = n.trailing_zeros();
        let mut pow = Vec::with_capacity(n / 2);
        let mut pow_inv = Vec::with_capacity(n / 2);
        let mut power = 1u64;
        let mut power_inv = 1u64;
        for _ in 0..n / 2 {
            pow.push(modulus.shoup(power));
            pow_inv.push(modulus.shoup(power_inv));
            power = modulus.mul(power, omega);
            power_inv = modulus.mul(power_inv, omega_inv);
        }
        let n_inv = modulus.shoup(modulus.inv(n as u64)?);
        Ok(CyclicNtt { modulus, n, log_n, pow, pow_inv, n_inv, omega })
    }

    /// The transform size.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The primitive root in use.
    #[inline]
    pub fn omega(&self) -> u64 {
        self.omega
    }

    /// Forward cyclic NTT, natural order in and out:
    /// `out[k] = Σ_i a[i]·ω^{ik}`.
    ///
    /// Implemented as decimation-in-frequency (natural in, bit-reversed out)
    /// followed by a bit-reversal permutation.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != self.n()`.
    pub fn forward_natural(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n);
        let m = &self.modulus;
        let mut t = self.n / 2;
        while t >= 1 {
            let stride = self.n / (2 * t);
            let mut j1 = 0usize;
            while j1 < self.n {
                for j in 0..t {
                    let u = a[j1 + j];
                    let v = a[j1 + j + t];
                    a[j1 + j] = m.add(u, v);
                    a[j1 + j + t] = m.mul_shoup(m.sub(u, v), self.pow[j * stride]);
                }
                j1 += 2 * t;
            }
            t /= 2;
        }
        bit_reverse_permute(a, self.log_n);
    }

    /// Inverse cyclic NTT, natural order in and out, including the `N^{-1}`
    /// scaling. Exact inverse of [`CyclicNtt::forward_natural`].
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != self.n()`.
    pub fn inverse_natural(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n);
        let m = &self.modulus;
        bit_reverse_permute(a, self.log_n);
        let mut t = 1usize;
        while t < self.n {
            let stride = self.n / (2 * t);
            let mut j1 = 0usize;
            while j1 < self.n {
                for j in 0..t {
                    let u = a[j1 + j];
                    let v = m.mul_shoup(a[j1 + j + t], self.pow_inv[j * stride]);
                    a[j1 + j] = m.add(u, v);
                    a[j1 + j + t] = m.sub(u, v);
                }
                j1 += 2 * t;
            }
            t *= 2;
        }
        for x in a.iter_mut() {
            *x = m.mul_shoup(*x, self.n_inv);
        }
    }
}

/// The NTT-domain form of the Galois automorphism `X ↦ X^g`: the index
/// table `perm` with `NTT(σ_g a)[i] = NTT(a)[perm[i]]` for every
/// [`NttTable`] of size `n`, whatever its modulus.
///
/// The forward transform leaves the evaluation at `ψ^(2·brv(i)+1)` in slot
/// `i`, and `(σ_g a)(ψ^e) = a(ψ^(e·g))`; `g` is odd, so `e ↦ e·g mod 2n`
/// permutes the odd exponents and the automorphism is a pure gather — no
/// sign, no arithmetic, hence exact. The coefficient-domain
/// [`crate::Poly::automorphism`] is the oracle the tests compare against.
///
/// # Errors
///
/// Returns [`MathError::InvalidDegree`] unless `n` is a power of two in
/// `[8, 2^17]`, and [`MathError::InvalidParameter`] if `g` is even.
pub fn galois_ntt_permutation(n: usize, g: usize) -> Result<Vec<u32>, MathError> {
    if !n.is_power_of_two() || !(8..=(1 << 17)).contains(&n) {
        return Err(MathError::InvalidDegree { degree: n });
    }
    if g.is_multiple_of(2) {
        return Err(MathError::InvalidParameter {
            detail: format!("automorphism exponent {g} must be odd"),
        });
    }
    let log_n = n.trailing_zeros();
    let mask = 2 * n as u64 - 1;
    let g = g as u64 & mask;
    Ok((0..n as u64)
        .map(|i| {
            let e = ((2 * bit_reverse(i, log_n) + 1) * g) & mask;
            bit_reverse(e >> 1, log_n) as u32
        })
        .collect())
}

/// Reverses the low `bits` bits of `x`.
#[inline]
pub(crate) fn bit_reverse(x: u64, bits: u32) -> u64 {
    if bits == 0 {
        0
    } else {
        x.reverse_bits() >> (64 - bits)
    }
}

/// In-place bit-reversal permutation.
pub(crate) fn bit_reverse_permute(a: &mut [u64], bits: u32) {
    for i in 0..a.len() {
        let j = bit_reverse(i as u64, bits) as usize;
        if j > i {
            a.swap(i, j);
        }
    }
}

/// Finds a primitive `order`-th root of unity modulo a prime, or `None` if
/// the modulus is composite / the order does not divide `q - 1`.
pub(crate) fn find_primitive_root(modulus: Modulus, order: u64) -> Option<u64> {
    let q = modulus.value();
    if !(q - 1).is_multiple_of(order) {
        return None;
    }
    let cofactor = (q - 1) / order;
    for candidate in 2..q.min(1000) {
        let root = modulus.pow(candidate, cofactor);
        // Primitive iff root^(order/2) == -1 (order is a power of two here).
        if modulus.pow(root, order / 2) == q - 1 {
            return Some(root);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate_ntt_primes;

    fn table(bits: u32, n: usize) -> NttTable {
        let q = Modulus::new(generate_ntt_primes(bits, n, 1).unwrap()[0]).unwrap();
        NttTable::new(q, n).unwrap()
    }

    fn schoolbook_negacyclic(a: &[u64], b: &[u64], m: &Modulus) -> Vec<u64> {
        let n = a.len();
        let mut out = vec![0u64; n];
        for i in 0..n {
            for j in 0..n {
                let p = m.mul(a[i], b[j]);
                if i + j < n {
                    out[i + j] = m.add(out[i + j], p);
                } else {
                    out[i + j - n] = m.sub(out[i + j - n], p);
                }
            }
        }
        out
    }

    /// The textbook eager CT loop the production path replaced: canonical
    /// reduction after every butterfly. Kept as the oracle the lazy,
    /// register-blocked transforms must match bit-for-bit.
    fn reference_forward(t: &NttTable, a: &mut [u64]) {
        let m = t.modulus();
        let n = a.len();
        let mut tt = n;
        let mut groups = 1usize;
        while groups < n {
            tt /= 2;
            for i in 0..groups {
                let s = t.psi_rev()[groups + i];
                let j1 = 2 * i * tt;
                for j in j1..j1 + tt {
                    let u = a[j];
                    let v = m.mul_shoup(a[j + tt], s);
                    a[j] = m.add(u, v);
                    a[j + tt] = m.sub(u, v);
                }
            }
            groups *= 2;
        }
    }

    /// Textbook eager GS loop with the separate `N^{-1}` scaling pass.
    fn reference_inverse(t: &NttTable, a: &mut [u64]) {
        let m = t.modulus();
        let n = a.len();
        let mut tt = 1usize;
        let mut groups = n / 2;
        while groups >= 1 {
            let mut j1 = 0usize;
            for i in 0..groups {
                let s = t.psi_inv_rev()[groups + i];
                for j in j1..j1 + tt {
                    let u = a[j];
                    let v = a[j + tt];
                    a[j] = m.add(u, v);
                    a[j + tt] = m.mul_shoup(m.sub(u, v), s);
                }
                j1 += 2 * tt;
            }
            tt *= 2;
            groups /= 2;
        }
        for x in a.iter_mut() {
            *x = m.mul_shoup(*x, t.n_inv());
        }
    }

    fn ramp(n: usize, q: u64) -> Vec<u64> {
        (0..n as u64).map(|i| (i.wrapping_mul(0x9e3779b97f4a7c15)) % q).collect()
    }

    #[test]
    fn round_trip_identity() {
        // log n = 3, 6, 10, 13, 14: every residue mod 3, so every mix of
        // radix-8 and radix-4 passes.
        for n in [8usize, 64, 1024, 8192, 16384] {
            let t = table(36, n);
            let mut a = ramp(n, t.modulus().value());
            let original = a.clone();
            t.forward(&mut a);
            assert_ne!(a, original, "forward must change a generic vector");
            t.inverse(&mut a);
            assert_eq!(a, original, "n={n}");
        }
    }

    #[test]
    fn forward_matches_eager_reference() {
        for bits in [36u32, 60] {
            for n in [8usize, 64, 512, 8192] {
                let t = table(bits, n);
                let mut a = ramp(n, t.modulus().value());
                let mut r = a.clone();
                t.forward(&mut a);
                reference_forward(&t, &mut r);
                assert_eq!(a, r, "bits={bits} n={n}");
            }
        }
    }

    #[test]
    fn inverse_matches_eager_reference() {
        for bits in [36u32, 60] {
            for n in [8usize, 64, 512, 8192] {
                let t = table(bits, n);
                let mut a = ramp(n, t.modulus().value());
                let mut r = a.clone();
                t.inverse(&mut a);
                reference_inverse(&t, &mut r);
                assert_eq!(a, r, "bits={bits} n={n}");
            }
        }
    }

    #[test]
    fn lazy_forward_matches_canonical_mod_q() {
        for bits in [36u32, 60] {
            for n in [8usize, 64, 512, 8192] {
                let t = table(bits, n);
                let q = t.modulus();
                let mut a = ramp(n, q.value());
                let mut b = a.clone();
                t.forward(&mut a);
                t.forward_lazy(&mut b);
                for i in 0..n {
                    assert!(b[i] < 2 * q.value(), "lazy output ≥ 2q, bits={bits} n={n} i={i}");
                    assert_eq!(a[i], q.reduce_2q(b[i]), "bits={bits} n={n} i={i}");
                }
            }
        }
    }

    #[test]
    fn lazy_inverse_matches_canonical_mod_q() {
        for n in [8usize, 512, 8192] {
            let t = table(60, n);
            let q = t.modulus();
            let mut a = ramp(n, q.value());
            let mut b = a.clone();
            t.inverse(&mut a);
            t.inverse_lazy(&mut b);
            for i in 0..n {
                assert!(b[i] < 2 * q.value(), "lazy output ≥ 2q, n={n} i={i}");
                assert_eq!(a[i], q.reduce_2q(b[i]), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn forward_worst_case_inputs() {
        // All coefficients at q-1 stress the 4q bound.
        for n in [256usize, 8192] {
            let q = Modulus::new(generate_ntt_primes(60, n, 1).unwrap()[0]).unwrap();
            let t = NttTable::new(q, n).unwrap();
            let mut a = vec![q.value() - 1; n];
            let mut r = a.clone();
            t.forward(&mut a);
            reference_forward(&t, &mut r);
            assert_eq!(a, r, "n={n}");
        }
    }

    #[test]
    fn forward_accepts_lazy_inputs() {
        // x and x + q must transform to the same canonical evaluations.
        let n = 512;
        let t = table(60, n);
        let q = t.modulus().value();
        let mut canon = ramp(n, q);
        let mut lazy: Vec<u64> =
            canon.iter().enumerate().map(|(i, &x)| if i % 3 == 0 { x + q } else { x }).collect();
        t.forward(&mut canon);
        t.forward(&mut lazy);
        assert_eq!(canon, lazy);
    }

    #[test]
    fn every_entry_point_names_the_first_out_of_range_input() {
        // Exactly 2q is the smallest rejected value; the check is an
        // `assert!`-grade contract, so this runs (and must pass) in release.
        let t = table(36, 64);
        let two_q = 2 * t.modulus().value();
        type Entry = fn(&NttTable, &mut [u64]);
        let entries: [(&str, Entry); 4] = [
            ("forward", NttTable::forward),
            ("forward_lazy", NttTable::forward_lazy),
            ("inverse", NttTable::inverse),
            ("inverse_lazy", NttTable::inverse_lazy),
        ];
        for (name, entry) in entries {
            let mut a = vec![two_q - 1; 64];
            a[5] = two_q;
            a[9] = two_q + 7; // a later offender must not be the one reported
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| entry(&t, &mut a)))
                .expect_err("2q must be rejected");
            let msg = err.downcast_ref::<String>().expect("formatted panic message");
            let expect = format!("NttTable::{name} outside [0, 2q) at index 5: {two_q}");
            assert!(msg.contains(&expect), "{name}: {msg}");
        }
    }

    #[test]
    fn convolution_matches_schoolbook() {
        let n = 32;
        let t = table(36, n);
        let m = t.modulus();
        let a: Vec<u64> = (0..n as u64).map(|i| (i * i + 3) % m.value()).collect();
        let b: Vec<u64> = (0..n as u64).map(|i| (7 * i + 11) % m.value()).collect();
        let expected = schoolbook_negacyclic(&a, &b, &m);

        let mut fa = a.clone();
        let mut fb = b.clone();
        t.forward(&mut fa);
        t.forward(&mut fb);
        let mut prod: Vec<u64> = fa.iter().zip(&fb).map(|(&x, &y)| m.mul(x, y)).collect();
        t.inverse(&mut prod);
        assert_eq!(prod, expected);
    }

    #[test]
    fn negacyclic_wraparound_sign() {
        // X^(n-1) * X = X^n = -1 in Z_q[X]/(X^n+1).
        let n = 16;
        let t = table(36, n);
        let m = t.modulus();
        let mut a = vec![0u64; n];
        let mut b = vec![0u64; n];
        a[n - 1] = 1;
        b[1] = 1;
        t.forward(&mut a);
        t.forward(&mut b);
        let mut prod: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| m.mul(x, y)).collect();
        t.inverse(&mut prod);
        assert_eq!(prod[0], m.value() - 1);
        assert!(prod[1..].iter().all(|&c| c == 0));
    }

    /// `NTT(σ_g a)` through the coefficient-domain oracle.
    fn automorphism_oracle(t: &NttTable, a: &[u64], g: usize) -> Vec<u64> {
        let mut p = crate::Poly::from_ntt(a.to_vec(), t.modulus()).unwrap();
        p.to_coeff(t);
        let mut p = p.automorphism(g).unwrap();
        p.to_ntt(t);
        p.coeffs().to_vec()
    }

    #[test]
    fn galois_permutation_matches_coefficient_automorphism_for_every_odd_exponent() {
        for n in [16usize, 64] {
            let t = table(36, n);
            let a = ramp(n, t.modulus().value());
            for g in (1..2 * n).step_by(2) {
                let perm = galois_ntt_permutation(n, g).unwrap();
                let got: Vec<u64> = perm.iter().map(|&i| a[i as usize]).collect();
                assert_eq!(got, automorphism_oracle(&t, &a, g), "n={n} g={g}");
            }
        }
    }

    #[test]
    fn galois_permutation_at_ring_sizes() {
        // Rotations are powers of 5, conjugation is 2n − 1.
        for n in [4096usize, 8192] {
            let t = table(50, n);
            let a = ramp(n, t.modulus().value());
            let rotations = [1u32, 2, 3, 64, n as u32 / 2 - 1]
                .map(|r| (0..r).fold(1usize, |g, _| (g * 5) % (2 * n)));
            for g in rotations.into_iter().chain([2 * n - 1]) {
                let perm = galois_ntt_permutation(n, g).unwrap();
                let got: Vec<u64> = perm.iter().map(|&i| a[i as usize]).collect();
                assert_eq!(got, automorphism_oracle(&t, &a, g), "n={n} g={g}");
            }
        }
    }

    #[test]
    fn conjugation_reverses_the_evaluation_order() {
        // −(2·brv(i)+1) ≡ 2·brv(n−1−i)+1 (mod 2n): σ₋₁ complements every
        // bit of the slot index, so the image of a polynomial with real
        // CKKS slots is a palindrome (`fhe-ckks` stores half of it).
        for log_n in 3..=13 {
            let n = 1usize << log_n;
            let reversal: Vec<u32> = (0..n as u32).rev().collect();
            assert_eq!(galois_ntt_permutation(n, 2 * n - 1).unwrap(), reversal, "n={n}");
        }
    }

    #[test]
    fn galois_permutation_rejects_even_exponents_and_bad_sizes() {
        assert!(galois_ntt_permutation(64, 4).is_err());
        assert!(galois_ntt_permutation(48, 5).is_err());
        // Exponents are taken mod 2n.
        assert_eq!(
            galois_ntt_permutation(64, 5).unwrap(),
            galois_ntt_permutation(64, 5 + 128).unwrap()
        );
    }

    #[test]
    fn transpose_round_trip() {
        for (rows, cols) in [(4usize, 8usize), (16, 16), (64, 128), (37, 5)] {
            let src: Vec<u64> = (0..(rows * cols) as u64).collect();
            let mut t = vec![0u64; rows * cols];
            let mut back = vec![0u64; rows * cols];
            transpose_into(&src, &mut t, rows, cols);
            assert_eq!(t[1], src[cols], "t[(c=0,r=1)] = src[(r=1,c=0)]");
            transpose_into(&t, &mut back, cols, rows);
            assert_eq!(back, src, "rows={rows} cols={cols}");
        }
    }

    #[test]
    fn cyclic_forward_matches_naive_dft() {
        let n = 16usize;
        let q = Modulus::new(generate_ntt_primes(36, n, 1).unwrap()[0]).unwrap();
        // omega = psi^2 where psi is the 2n-th root.
        let t = NttTable::new(q, n).unwrap();
        let omega = q.mul(t.psi(), t.psi());
        let c = CyclicNtt::with_root(q, n, omega).unwrap();
        let a: Vec<u64> = (1..=n as u64).collect();
        let mut fast = a.clone();
        c.forward_natural(&mut fast);
        #[allow(clippy::needless_range_loop)] // index math mirrors the DFT sum
        for k in 0..n {
            let mut acc = 0u64;
            for i in 0..n {
                acc = q.add(acc, q.mul(a[i], q.pow(omega, (i * k) as u64)));
            }
            assert_eq!(fast[k], acc, "k={k}");
        }
        let mut back = fast.clone();
        c.inverse_natural(&mut back);
        assert_eq!(back, a);
    }

    #[test]
    fn rejects_wrong_sizes_and_roots() {
        let q = Modulus::new(generate_ntt_primes(36, 64, 1).unwrap()[0]).unwrap();
        assert!(NttTable::new(q, 48).is_err());
        assert!(CyclicNtt::with_root(q, 16, 1).is_err());
    }

    #[test]
    fn radix_blocks_is_the_schedule_the_model_counts() {
        // `metaop::counts::ntt_blocks(2^k)` for k = 3…8, then the ring sizes.
        let got: Vec<_> = (3..=8).map(radix_blocks).collect();
        assert_eq!(got, [(1, 0), (0, 2), (1, 1), (2, 0), (1, 2), (2, 1)]);
        assert_eq!(
            (radix_blocks(10), radix_blocks(12), radix_blocks(16)),
            ((2, 2), (4, 0), (4, 2))
        );
        assert!((3..=17).all(|k| matches!(radix_blocks(k), (r8, r4) if 3 * r8 + 2 * r4 == k)));
    }

    #[test]
    fn bit_reverse_basic() {
        assert_eq!(bit_reverse(0b001, 3), 0b100);
        assert_eq!(bit_reverse(0b110, 3), 0b011);
        assert_eq!(bit_reverse(5, 0), 0);
    }
}
