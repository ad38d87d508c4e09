//! Negacyclic number-theoretic transforms.
//!
//! [`NttTable`] implements the in-place iterative Cooley–Tukey (forward) /
//! Gentleman–Sande (inverse) negacyclic NTT over `Z_q[X]/(X^N + 1)` with
//! Shoup-precomputed twiddles, following the standard bit-reversed-twiddle
//! formulation (Longa–Naehrig). Both directions run **Harvey lazy
//! butterflies** (values stay in `[0, 4q)` forward / `[0, 2q)` inverse
//! across layers, one fused reduction in the final stage — paper Table 2's
//! deferred-reduction analysis) on the [`crate::simd`] kernels, and
//! large transforms switch to a cache-blocked four-step schedule that keeps
//! each working set inside L1/L2 (paper §5.3's slot-local NTT). All of this
//! is bit-identical to the textbook eager transform; see DESIGN.md §14 for
//! the value-range contract.
//!
//! [`CyclicNtt`] is the plain cyclic transform used as a building block of
//! the 4-step NTT ([`crate::FourStepNtt`]) that Alchemist's slot-based data
//! management relies on (paper §5.3).

use crate::modulus::ShoupScalar;
use crate::scratch::Scratch;
use crate::simd;
use crate::{MathError, Modulus};

/// Transforms of `2^BLOCKED_MIN_LOG_N` points or more run the cache-blocked
/// four-step schedule instead of the flat stage loop. At `n = 2^13` the flat
/// transform's working set (64 KiB of coefficients + twiddles) already
/// spills the 48 KiB L1d on the reference host; the blocked schedule turns
/// every pass into `√n`-sized subtransforms that stay resident.
const BLOCKED_MIN_LOG_N: u32 = 13;

/// Finishing reduction fused into the last butterfly stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Target {
    /// Reduce outputs all the way to canonical `[0, q)`.
    Canonical,
    /// Leave outputs lazy in `[0, 2q)` (one conditional subtraction saved
    /// per element; the next pipeline stage must accept lazy values).
    Lazy2q,
}

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
    /// profile: one O(n) scan in place of a check per butterfly.
    fn check_lazy_inputs(&self, a: &[u64], op: &str) {
        let two_q = self.modulus.value() << 1;
        for (i, &x) in a.iter().enumerate() {
            assert!(x < two_q, "input to NttTable::{op} outside [0, 2q) at index {i}: {x}");
        }
    }

    /// In-place forward negacyclic NTT (natural → bit-reversed order),
    /// canonical `[0, q)` output.
    ///
    /// Accepts canonical or lazy `[0, 2q)` inputs. Internally runs Harvey
    /// lazy butterflies with the canonicalizing reduction fused into the
    /// last stage; produces exactly the same output as the textbook eager
    /// transform.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != self.n()` or any input is `≥ 2q`.
    pub fn forward(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "polynomial length must match NTT size");
        self.check_lazy_inputs(a, "forward");
        if self.log_n >= BLOCKED_MIN_LOG_N {
            self.fwd_blocked(a, Target::Canonical);
        } else {
            self.fwd_subtree(a, 1, Some(Target::Canonical));
        }
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
        if self.log_n >= BLOCKED_MIN_LOG_N {
            self.fwd_blocked(a, Target::Lazy2q);
        } else {
            self.fwd_subtree(a, 1, Some(Target::Lazy2q));
        }
    }

    /// In-place inverse negacyclic NTT (bit-reversed → natural order),
    /// including the `N^{-1}` scaling; canonical `[0, q)` output.
    ///
    /// Runs lazy Gentleman–Sande butterflies (values in `[0, 2q)` across
    /// all layers) with the `N^{-1}` scaling folded into the final stage's
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
        if self.log_n >= BLOCKED_MIN_LOG_N {
            self.inv_blocked(a, Target::Canonical);
        } else {
            self.inv_subtree(a, 1, Some(Target::Canonical));
        }
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
        if self.log_n >= BLOCKED_MIN_LOG_N {
            self.inv_blocked(a, Target::Lazy2q);
        } else {
            self.inv_subtree(a, 1, Some(Target::Lazy2q));
        }
    }

    /// Forward transform of one contiguous CT subtree.
    ///
    /// `a` is a power-of-two-length block and `m0` its twiddle base: the
    /// stage with `g` local groups uses `psi_rev[m0·g + i]` for local group
    /// `i`. The full transform is the subtree at `m0 = 1`; after `k` global
    /// stages, block `r` of length `n/2^k` is the subtree at
    /// `m0 = 2^k + r`. With `finish`, the last (`t == 1`) stage fuses the
    /// finishing reduction into its butterflies, so no separate
    /// normalization pass runs.
    fn fwd_subtree(&self, a: &mut [u64], m0: usize, finish: Option<Target>) {
        let len = a.len();
        debug_assert!(len.is_power_of_two() && len >= 2);
        let q = self.modulus.value();
        let two_q = q << 1;
        let mut t = len;
        let mut groups = 1usize;
        while groups < len {
            t /= 2;
            if t == 1 {
                // Last stage: adjacent pairs, one fresh twiddle per pair,
                // with the finishing reduction fused in.
                for i in 0..groups {
                    let s = self.psi_rev[m0 * groups + i];
                    let j = 2 * i;
                    let (mut r0, mut r1) = simd::fwd_bfly(a[j], a[j + 1], s, q, two_q);
                    if let Some(target) = finish {
                        if r0 >= two_q {
                            r0 -= two_q;
                        }
                        if r1 >= two_q {
                            r1 -= two_q;
                        }
                        if target == Target::Canonical {
                            if r0 >= q {
                                r0 -= q;
                            }
                            if r1 >= q {
                                r1 -= q;
                            }
                        }
                    }
                    a[j] = r0;
                    a[j + 1] = r1;
                }
            } else {
                for i in 0..groups {
                    let s = self.psi_rev[m0 * groups + i];
                    let j1 = 2 * i * t;
                    let (top, bot) = a[j1..j1 + 2 * t].split_at_mut(t);
                    simd::fwd_bfly_slice(top, bot, s, q);
                }
            }
            groups *= 2;
        }
    }

    /// Inverse transform of one contiguous GS subtree (see
    /// [`NttTable::fwd_subtree`] for the `m0` convention, here over
    /// `psi_inv_rev`). With `finish`, the last (`groups == 1`) stage runs
    /// the fused `N^{-1}`-folded butterfly — only valid at the global root
    /// (`m0 == 1`), where that stage's twiddle is `psi_inv_rev[1]`.
    fn inv_subtree(&self, a: &mut [u64], m0: usize, finish: Option<Target>) {
        let len = a.len();
        debug_assert!(len.is_power_of_two() && len >= 2);
        let q = self.modulus.value();
        let two_q = q << 1;
        let mut t = 1usize;
        let mut groups = len / 2;
        while groups >= 1 {
            if groups == 1 && finish.is_some() {
                debug_assert_eq!(m0, 1, "the N^-1 fold only applies at the global root");
                let canonical = finish == Some(Target::Canonical);
                let (top, bot) = a.split_at_mut(t);
                simd::inv_bfly_last_slice(top, bot, self.n_inv, self.inv_last, q, canonical);
            } else if t == 1 {
                // First stage: adjacent pairs, one twiddle per pair.
                for i in 0..groups {
                    let s = self.psi_inv_rev[m0 * groups + i];
                    let j = 2 * i;
                    let (r0, r1) = simd::inv_bfly(a[j], a[j + 1], s, q, two_q);
                    a[j] = r0;
                    a[j + 1] = r1;
                }
            } else {
                for i in 0..groups {
                    let s = self.psi_inv_rev[m0 * groups + i];
                    let j1 = 2 * i * t;
                    let (top, bot) = a[j1..j1 + 2 * t].split_at_mut(t);
                    simd::inv_bfly_slice(top, bot, s, q);
                }
            }
            t *= 2;
            groups /= 2;
        }
    }

    /// Cache-blocked forward schedule: view the array as an `n1 × n2`
    /// matrix (`n1 = 2^⌊log n / 2⌋`). The first `log n1` global stages only
    /// pair elements within a column, the rest within a row — so transpose,
    /// run `n2` contiguous `n1`-point column subtrees (all at `m0 = 1`,
    /// sharing one hot twiddle table), transpose back, and run `n1`
    /// `n2`-point row subtrees (block `r` at `m0 = n1 + r`) that fuse the
    /// finishing reduction. Bit-identical to the flat loop; only the
    /// traversal order (and thus cache behavior) changes.
    fn fwd_blocked(&self, a: &mut [u64], target: Target) {
        let n1 = 1usize << (self.log_n / 2);
        let n2 = self.n / n1;
        Scratch::with_thread_local(|pool| {
            let mut tmp = pool.take(self.n);
            transpose_into(a, &mut tmp, n1, n2);
            for col in tmp.chunks_exact_mut(n1) {
                self.fwd_subtree(col, 1, None);
            }
            transpose_into(&tmp, a, n2, n1);
            for (r, row) in a.chunks_exact_mut(n2).enumerate() {
                self.fwd_subtree(row, n1 + r, Some(target));
            }
            pool.put(tmp);
        });
    }

    /// Cache-blocked inverse schedule — the forward schedule mirrored:
    /// row subtrees first (no finish), then transposed column subtrees
    /// whose last stage is the global fold stage (`m0 = 1`, `N^{-1}`
    /// folded in), then transpose back.
    fn inv_blocked(&self, a: &mut [u64], target: Target) {
        let n1 = 1usize << (self.log_n / 2);
        let n2 = self.n / n1;
        Scratch::with_thread_local(|pool| {
            let mut tmp = pool.take(self.n);
            for (r, row) in a.chunks_exact_mut(n2).enumerate() {
                self.inv_subtree(row, n1 + r, None);
            }
            transpose_into(a, &mut tmp, n1, n2);
            for col in tmp.chunks_exact_mut(n1) {
                self.inv_subtree(col, 1, Some(target));
            }
            transpose_into(&tmp, a, n2, n1);
            pool.put(tmp);
        });
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
    /// vectorized, cache-blocked transforms must match bit-for-bit.
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
        // 8192 and 16384 exercise the cache-blocked schedule.
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
        // All coefficients at q-1 stress the 4q bound, in both directions
        // and through the blocked schedule.
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
    fn galois_permutation_at_ring_sizes_on_both_schedules() {
        // 4096 runs the flat radix loop, 8192 the cache-blocked four-step
        // schedule; rotations are powers of 5, conjugation is 2n − 1.
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
    fn bit_reverse_basic() {
        assert_eq!(bit_reverse(0b001, 3), 0b100);
        assert_eq!(bit_reverse(0b110, 3), 0b011);
        assert_eq!(bit_reverse(5, 0), 0);
    }
}
