//! The modular hot loops: a scalar implementation of each, and an AVX-512
//! IFMA one of the NTT and the MAC.
//!
//! This module is the software stand-in for Alchemist's wide multiplier
//! arrays: the Harvey lazy butterflies (paper Table 2), Shoup multiplies
//! and the element-wise RNS passes. Every kernel here is a plain safe loop
//! over `u64` slices — the reference semantics the conformance oracle pins.
//! The NTT and [`lazy_mac`](crate::lazy_mac) also run on eight 52-bit
//! lanes (`ifma`, DESIGN.md §14.2) where the host reports `avx512f` and
//! `avx512ifma` and every operand is provably below `2^52`: moduli below
//! `2^51`, and Bconv plans whose moduli all allow it. Nothing else chooses
//! the path — no option, feature or setting — and canonical outputs are
//! the same words on both. On the same hosts [`wide`] compiles plain loops
//! for AVX-512F (TFHE's decomposition and lift, its lift back to the torus,
//! the CMux difference and the LWE key switch), one source for both paths.
//! The AVX2 and NEON twins this module once carried
//! had to emulate every 64-bit multiply from 32-bit partial products and
//! bought nothing resolvable end to end (EXPERIMENTS.md 2026-10-01); IFMA
//! multiplies 52 × 52 bits natively. [`active_backend`] names the path the
//! host takes.
//!
//! # Lazy value ranges
//!
//! Kernels here follow the Harvey lazy-reduction contract documented in
//! DESIGN.md §14: forward butterflies keep values in `[0, 4q)`, inverse
//! butterflies in `[0, 2q)` (the `ntt` module chains them into radix-8 and
//! radix-4 blocks without widening either range), and
//! [`Modulus::mul_shoup_lazy`] returns `[0, 2q)` for *any* `u64` input. All
//! of it requires `q < 2^61` (`MAX_MODULUS_BITS`, checked by [`Modulus::new`]), which
//! keeps `4q < 2^63` and every lazy add below `u64::MAX`. The IFMA lanes
//! keep the same ranges in their 64-bit words but multiply only below
//! `2^52`: a lazy product's `2q` must fit, hence their `q < 2^51`, and
//! from `q = 2^50` on a butterfly brings its `[0, 4q)` multiplicand into
//! `[0, 2q)` first.

use crate::modulus::ShoupScalar;
use crate::Modulus;

#[allow(unsafe_code)]
mod ifma;

pub(crate) use ifma::{Ifma, MacLanes, NttLanes};

/// The kernel implementation this host runs where a modulus allows it
/// (`benchmark/src/host.rs` prints its name as a host fact).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable scalar loops only: the host lacks AVX-512F or AVX-512 IFMA.
    Scalar,
    /// The NTT and the MACs on moduli below `2^51` run on eight 52-bit
    /// IFMA lanes and [`wide`] compiles its loops for AVX-512F; everything
    /// else runs the scalar loops.
    Ifma,
}

impl Backend {
    /// Stable lowercase name, used in bench metadata and reports.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Ifma => "avx512ifma",
        }
    }
}

/// [`Backend::Ifma`] exactly when the host reports `avx512f` and
/// `avx512ifma` (detected once per process), [`Backend::Scalar`] otherwise.
#[inline]
pub fn active_backend() -> Backend {
    match Ifma::detect() {
        Some(_) => Backend::Ifma,
        None => Backend::Scalar,
    }
}

/// Runs `f` with its loops compiled for AVX-512F where the host has the
/// IFMA lanes (the detection that chooses the NTT and MAC kernels), and as
/// it is everywhere else: the scalar loop and the lane loop are one source.
/// It is for the plain loops LLVM vectorises by itself — shifts, masks,
/// selects, `u32 × u32` products — which need none of the 52-bit
/// multiplies the NTT and MAC spell in intrinsics. Mark the closure
/// `#[inline(always)]`: it has two callers, this call and the trampoline,
/// and a body left out of line is compiled for the baseline ISA only. And
/// capture by value (`move`): a loop that reads a constant through a
/// captured reference can stay scalar.
#[inline]
pub fn wide<R>(f: impl FnOnce() -> R) -> R {
    match Ifma::detect() {
        Some(lanes) => lanes.wide(f),
        None => f(),
    }
}

/// Lazy Shoup product: `a * w mod q` up to one multiple of `q`, i.e. a value
/// in `[0, 2q)` congruent to the product — valid for *any* `u64` input `a`
/// (Harvey's bound: the error is `< q·(1 + a/2^64) < 2q`).
#[inline(always)]
pub(crate) fn mul_shoup_lazy(a: u64, w: ShoupScalar, q: u64) -> u64 {
    let qhat = ((a as u128 * w.quotient as u128) >> 64) as u64;
    a.wrapping_mul(w.value).wrapping_sub(qhat.wrapping_mul(q))
}

/// Conditional subtraction `x − m` if `x ≥ m`, else `x`, as a `min` over the
/// wrapped difference: branch-free whatever the optimiser makes of an `if`.
#[inline(always)]
pub(crate) fn csub(x: u64, m: u64) -> u64 {
    x.min(x.wrapping_sub(m))
}

/// `a − b mod q` for canonical operands. `a − b` wraps exactly when `a < b`,
/// and adding `q` then wraps back to the smaller value: which operand is
/// larger is a coin toss per element, so this is a `min`, not a branch.
#[inline(always)]
pub(crate) fn sub_mod(a: u64, b: u64, q: u64) -> u64 {
    let d = a.wrapping_sub(b);
    d.min(d.wrapping_add(q))
}

/// One forward (CT) Harvey butterfly: inputs `< 4q`, outputs `< 4q`.
#[inline(always)]
pub(crate) fn fwd_bfly(u: u64, x: u64, s: ShoupScalar, q: u64, two_q: u64) -> (u64, u64) {
    let u = csub(u, two_q);
    let v = mul_shoup_lazy(x, s, q);
    (u + v, u + two_q - v)
}

/// One inverse (GS) Harvey butterfly: inputs `< 2q`, outputs `< 2q`.
#[inline(always)]
pub(crate) fn inv_bfly(u: u64, v: u64, s: ShoupScalar, q: u64, two_q: u64) -> (u64, u64) {
    (csub(u + v, two_q), mul_shoup_lazy(u + two_q - v, s, q))
}

/// Canonical in-place Shoup scaling `a[k] ← a[k]·w mod q`: the lazy product
/// plus one conditional subtraction, canonical for any `u64` input.
pub(crate) fn mul_shoup_slice(a: &mut [u64], w: ShoupScalar, q: u64) {
    for x in a.iter_mut() {
        *x = csub(mul_shoup_lazy(*x, w, q), q);
    }
}

/// Canonicalizes a `[0, 2q)` slice with one conditional subtraction per
/// element.
pub(crate) fn reduce_2q_slice(a: &mut [u64], q: u64) {
    for x in a.iter_mut() {
        *x = csub(*x, q);
    }
}

/// Element-wise canonical modular addition `a[k] ← a[k] + b[k] mod q`.
/// Keeps the canonical-operand contract of [`Modulus::add`].
pub(crate) fn add_mod_slice(a: &mut [u64], b: &[u64], q: u64) {
    debug_assert_eq!(a.len(), b.len());
    for (x, &y) in a.iter_mut().zip(b) {
        assert!(*x < q && y < q, "non-canonical operands to simd::add_mod: a={x} b={y} q={q}");
        *x = csub(*x + y, q);
    }
}

/// Element-wise canonical modular subtraction `a[k] ← a[k] - b[k] mod q`.
pub(crate) fn sub_mod_slice(a: &mut [u64], b: &[u64], q: u64) {
    debug_assert_eq!(a.len(), b.len());
    for (x, &y) in a.iter_mut().zip(b) {
        assert!(*x < q && y < q, "non-canonical operands to simd::sub_mod: a={x} b={y} q={q}");
        *x = sub_mod(*x, y, q);
    }
}

/// Element-wise canonical modular negation `a[k] ← -a[k] mod q`.
pub(crate) fn neg_mod_slice(a: &mut [u64], q: u64) {
    for x in a.iter_mut() {
        assert!(*x < q, "non-canonical operand to simd::neg_mod: a={x} q={q}");
        *x = csub(q - *x, q);
    }
}

/// Fused `out[k] ← (a[k] - b[k]) · w mod q` — the Moddown inner loop.
pub(crate) fn sub_mul_shoup_slice(out: &mut [u64], a: &[u64], b: &[u64], w: ShoupScalar, q: u64) {
    debug_assert!(out.len() == a.len() && a.len() == b.len());
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        assert!(x < q && y < q, "non-canonical operands to simd::sub_mul_shoup: a={x} b={y} q={q}");
        *o = csub(mul_shoup_lazy(sub_mod(x, y, q), w, q), q);
    }
}

/// Element-wise Barrett modular multiplication `a[k] ← a[k]·b[k] mod q`.
///
/// Accepts lazy `[0, 2q)` operands — the 128-bit product of two sub-`2q`
/// values stays below `2^124`, well inside [`Modulus::reduce_u128`]'s
/// domain — and always returns canonical values.
#[inline]
pub(crate) fn mul_mod_slice(a: &mut [u64], b: &[u64], m: &Modulus) {
    debug_assert_eq!(a.len(), b.len());
    for (x, &y) in a.iter_mut().zip(b) {
        *x = m.reduce_u128(*x as u128 * y as u128);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate_ntt_primes;

    fn modulus(bits: u32) -> Modulus {
        Modulus::new(generate_ntt_primes(bits, 1 << 10, 1).unwrap()[0]).unwrap()
    }

    #[test]
    fn fwd_bfly_keeps_4q_bound() {
        for bits in [36u32, 60] {
            let m = modulus(bits);
            let q = m.value();
            let s = m.shoup(q - 3);
            for i in 0..37u64 {
                let u = i.wrapping_mul(0x9e37) % (4 * q);
                let x = i.wrapping_mul(0x51ed) % (4 * q);
                let (t, b) = fwd_bfly(u, x, s, q, 2 * q);
                assert!(t < 4 * q && b < 4 * q, "4q bound violated, bits={bits}");
                let xs = m.mul(m.reduce(x), s.value);
                assert_eq!(
                    (m.reduce(t), m.reduce(b)),
                    (m.add(m.reduce(u), xs), m.sub(m.reduce(u), xs))
                );
            }
        }
    }

    #[test]
    fn inv_bfly_keeps_2q_bound() {
        let m = modulus(60);
        let q = m.value();
        let s = m.shoup(12345);
        for i in 0..21u64 {
            let (u, v) = ((i * 977) % (2 * q), (i * 3331) % (2 * q));
            let (t, b) = inv_bfly(u, v, s, q, 2 * q);
            assert!(t < 2 * q && b < 2 * q);
            let (ur, vr) = (m.reduce(u), m.reduce(v));
            assert_eq!((m.reduce(t), m.reduce(b)), (m.add(ur, vr), m.mul(m.sub(ur, vr), s.value)));
        }
    }

    #[test]
    fn elementwise_kernels_match_modulus_ops() {
        let m = modulus(60);
        let q = m.value();
        let n = 45;
        let a: Vec<u64> = (0..n as u64).map(|i| (i * 0xdead_beef) % q).collect();
        let b: Vec<u64> = (0..n as u64).map(|i| (i * 0xcafe) % q).collect();

        let mut add = a.clone();
        add_mod_slice(&mut add, &b, q);
        let mut sub = a.clone();
        sub_mod_slice(&mut sub, &b, q);
        let mut neg = a.clone();
        neg_mod_slice(&mut neg, q);
        let w = m.shoup(987_654_321 % q);
        let mut sh = a.clone();
        mul_shoup_slice(&mut sh, w, q);
        let mut fused = vec![0u64; n];
        sub_mul_shoup_slice(&mut fused, &a, &b, w, q);

        for i in 0..n {
            assert_eq!(add[i], m.add(a[i], b[i]));
            assert_eq!(sub[i], m.sub(a[i], b[i]));
            assert_eq!(neg[i], m.neg(a[i]));
            assert_eq!(sh[i], m.mul_shoup(a[i], w));
            assert_eq!(fused[i], m.mul_shoup(m.sub(a[i], b[i]), w));
        }
    }

    #[test]
    fn reduce_2q_canonicalizes() {
        let m = modulus(36);
        let q = m.value();
        let mut v: Vec<u64> = (0..33).map(|i| (i * 0x1234_5678) % (2 * q)).collect();
        let expect: Vec<u64> = v.iter().map(|&x| x % q).collect();
        reduce_2q_slice(&mut v, q);
        assert_eq!(v, expect);
    }

    #[test]
    fn vector_add_rejects_non_canonical() {
        let m = modulus(36);
        let q = m.value();
        let res = std::panic::catch_unwind(|| {
            let mut a = vec![q; 32];
            let b = vec![1u64; 32];
            add_mod_slice(&mut a, &b, q);
        });
        assert!(res.is_err(), "the canonical-operand contract must fire on slices");
    }
}
