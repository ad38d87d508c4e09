//! Runtime-dispatched SIMD kernels for the modular hot loops.
//!
//! This module is the software stand-in for Alchemist's wide multiplier
//! arrays: the Harvey lazy butterflies (paper Table 2), Shoup multiplies,
//! and the element-wise RNS passes all vectorize the same way the hardware
//! lays them across lanes. Three backends share one set of entry points:
//!
//! * **scalar** — always compiled, the reference implementation; every
//!   other backend must be bit-identical to it (asserted by the
//!   conformance differential suite),
//! * **AVX2** (`x86_64`) — 4×64-bit lanes; 64-bit multiplies are emulated
//!   with `_mm256_mul_epu32` schoolbook products,
//! * **NEON** (`aarch64`) — 2×64-bit lanes via `vmull_u32` widening.
//!
//! Dispatch is *runtime*: the backend is detected once per process
//! (`is_x86_feature_detected!` / target arch), can be disabled per-process
//! with the `ALCHEMIST_SIMD=0` environment variable or per-call-site with
//! [`set_force_scalar`] (the differential tests toggle it). Values never
//! change with the backend — only the schedule does.
//!
//! # Lazy value ranges
//!
//! Kernels here follow the Harvey lazy-reduction contract documented in
//! DESIGN.md §14: forward butterflies keep values in `[0, 4q)`, inverse
//! butterflies in `[0, 2q)`, and [`Modulus::mul_shoup_lazy`] returns
//! `[0, 2q)` for *any* `u64` input. All of it requires `q < 2^61`
//! ([`crate::modulus::MAX_MODULUS_BITS`]), which keeps `4q < 2^63` and every
//! lazy add below `u64::MAX`.

use crate::modulus::ShoupScalar;
use crate::Modulus;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Which kernel implementation is active (see [`active_backend`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable scalar loops (always available; the reference semantics).
    Scalar,
    /// AVX2 4-lane kernels (x86_64, runtime-detected).
    Avx2,
    /// NEON 2-lane kernels (aarch64 baseline).
    Neon,
}

impl Backend {
    /// Stable lowercase name, used in bench metadata and reports.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
            Backend::Neon => "neon",
        }
    }
}

/// Runtime kill switch: when `true`, every kernel takes the scalar path
/// regardless of detection. Used by the SIMD/scalar differential tests.
static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

/// Forces (or releases) the scalar fallback at runtime.
pub fn set_force_scalar(on: bool) {
    FORCE_SCALAR.store(on, Ordering::Relaxed);
}

/// Whether [`set_force_scalar`] is currently active.
pub fn force_scalar() -> bool {
    FORCE_SCALAR.load(Ordering::Relaxed)
}

/// One-time hardware detection (also honors `ALCHEMIST_SIMD=0`/`off`).
fn detected() -> Backend {
    if let Some(v) = std::env::var_os("ALCHEMIST_SIMD") {
        let v = v.to_string_lossy().to_ascii_lowercase();
        if v == "0" || v == "off" || v == "scalar" {
            return Backend::Scalar;
        }
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return Backend::Avx2;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        return Backend::Neon;
    }
    #[allow(unreachable_code)]
    Backend::Scalar
}

/// The backend the next kernel call will use: scalar when
/// [`set_force_scalar`] is armed, the detected hardware backend otherwise.
#[inline]
pub fn active_backend() -> Backend {
    if FORCE_SCALAR.load(Ordering::Relaxed) {
        return Backend::Scalar;
    }
    static DETECTED: OnceLock<Backend> = OnceLock::new();
    *DETECTED.get_or_init(detected)
}

/// Minimum slice length before a vector path is attempted; shorter slices
/// run scalar (the dispatch branch would dominate).
const MIN_VECTOR_LEN: usize = 8;

// ---------------------------------------------------------------------------
// Scalar reference kernels
// ---------------------------------------------------------------------------

/// Lazy Shoup product: `a * w mod q` up to one multiple of `q`, i.e. a value
/// in `[0, 2q)` congruent to the product — valid for *any* `u64` input `a`
/// (Harvey's bound: the error is `< q·(1 + a/2^64) < 2q`).
#[inline(always)]
pub(crate) fn mul_shoup_lazy_scalar(a: u64, w: ShoupScalar, q: u64) -> u64 {
    let qhat = ((a as u128 * w.quotient as u128) >> 64) as u64;
    a.wrapping_mul(w.value).wrapping_sub(qhat.wrapping_mul(q))
}

/// One forward (CT) Harvey butterfly on scalars: inputs `< 4q`, outputs
/// `< 4q`.
#[inline(always)]
pub(crate) fn fwd_bfly_scalar(u: u64, x: u64, s: ShoupScalar, q: u64, two_q: u64) -> (u64, u64) {
    let u = if u >= two_q { u - two_q } else { u };
    let v = mul_shoup_lazy_scalar(x, s, q);
    (u + v, u + two_q - v)
}

/// One inverse (GS) Harvey butterfly on scalars: inputs `< 2q`, outputs
/// `< 2q`.
#[inline(always)]
pub(crate) fn inv_bfly_scalar(u: u64, v: u64, s: ShoupScalar, q: u64, two_q: u64) -> (u64, u64) {
    let mut t0 = u + v;
    if t0 >= two_q {
        t0 -= two_q;
    }
    (t0, mul_shoup_lazy_scalar(u + two_q - v, s, q))
}

fn fwd_bfly_slice_scalar(top: &mut [u64], bot: &mut [u64], s: ShoupScalar, q: u64) {
    let two_q = q << 1;
    for (t, b) in top.iter_mut().zip(bot.iter_mut()) {
        let (nt, nb) = fwd_bfly_scalar(*t, *b, s, q, two_q);
        *t = nt;
        *b = nb;
    }
}

fn inv_bfly_slice_scalar(top: &mut [u64], bot: &mut [u64], s: ShoupScalar, q: u64) {
    let two_q = q << 1;
    for (t, b) in top.iter_mut().zip(bot.iter_mut()) {
        let (nt, nb) = inv_bfly_scalar(*t, *b, s, q, two_q);
        *t = nt;
        *b = nb;
    }
}

fn inv_bfly_last_slice_scalar(
    top: &mut [u64],
    bot: &mut [u64],
    n_inv: ShoupScalar,
    s_ninv: ShoupScalar,
    q: u64,
    canonical: bool,
) {
    let two_q = q << 1;
    for (t, b) in top.iter_mut().zip(bot.iter_mut()) {
        let (u, v) = (*t, *b);
        let mut r0 = mul_shoup_lazy_scalar(u + v, n_inv, q);
        let mut r1 = mul_shoup_lazy_scalar(u + two_q - v, s_ninv, q);
        if canonical {
            if r0 >= q {
                r0 -= q;
            }
            if r1 >= q {
                r1 -= q;
            }
        }
        *t = r0;
        *b = r1;
    }
}

fn mul_shoup_slice_scalar(a: &mut [u64], w: ShoupScalar, q: u64) {
    for x in a.iter_mut() {
        let mut r = mul_shoup_lazy_scalar(*x, w, q);
        if r >= q {
            r -= q;
        }
        *x = r;
    }
}

fn reduce_2q_slice_scalar(a: &mut [u64], q: u64) {
    for x in a.iter_mut() {
        if *x >= q {
            *x -= q;
        }
    }
}

fn add_mod_slice_scalar(a: &mut [u64], b: &[u64], q: u64) {
    for (x, &y) in a.iter_mut().zip(b) {
        assert!(*x < q && y < q, "non-canonical operands to simd::add_mod: a={x} b={y} q={q}");
        let s = *x + y;
        *x = if s >= q { s - q } else { s };
    }
}

fn sub_mod_slice_scalar(a: &mut [u64], b: &[u64], q: u64) {
    for (x, &y) in a.iter_mut().zip(b) {
        assert!(*x < q && y < q, "non-canonical operands to simd::sub_mod: a={x} b={y} q={q}");
        *x = if *x >= y { *x - y } else { *x + q - y };
    }
}

fn neg_mod_slice_scalar(a: &mut [u64], q: u64) {
    for x in a.iter_mut() {
        assert!(*x < q, "non-canonical operand to simd::neg_mod: a={x} q={q}");
        *x = if *x == 0 { 0 } else { q - *x };
    }
}

fn sub_mul_shoup_slice_scalar(out: &mut [u64], a: &[u64], b: &[u64], w: ShoupScalar, q: u64) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        assert!(x < q && y < q, "non-canonical operands to simd::sub_mul_shoup: a={x} b={y} q={q}");
        let d = if x >= y { x - y } else { x + q - y };
        let mut r = mul_shoup_lazy_scalar(d, w, q);
        if r >= q {
            r -= q;
        }
        *o = r;
    }
}

// ---------------------------------------------------------------------------
// AVX2 kernels (x86_64)
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::ShoupScalar;
    use core::arch::x86_64::*;

    const M32: u64 = 0xffff_ffff;
    const SIGN: u64 = 0x8000_0000_0000_0000;

    /// Low 64 bits of the 4 lane-wise products `a * b`.
    #[inline(always)]
    unsafe fn mullo_epu64(a: __m256i, b: __m256i) -> __m256i {
        let a_hi = _mm256_srli_epi64::<32>(a);
        let b_hi = _mm256_srli_epi64::<32>(b);
        let cross = _mm256_add_epi64(_mm256_mul_epu32(a, b_hi), _mm256_mul_epu32(a_hi, b));
        _mm256_add_epi64(_mm256_mul_epu32(a, b), _mm256_slli_epi64::<32>(cross))
    }

    /// High 64 bits of the 4 lane-wise products `a * b` (schoolbook on
    /// 32-bit halves, exact).
    #[inline(always)]
    unsafe fn mulhi_epu64(a: __m256i, b: __m256i) -> __m256i {
        let m32 = _mm256_set1_epi64x(M32 as i64);
        let a_hi = _mm256_srli_epi64::<32>(a);
        let b_hi = _mm256_srli_epi64::<32>(b);
        let lolo = _mm256_mul_epu32(a, b);
        let hilo = _mm256_mul_epu32(a_hi, b);
        let lohi = _mm256_mul_epu32(a, b_hi);
        let hihi = _mm256_mul_epu32(a_hi, b_hi);
        let mid = _mm256_add_epi64(
            _mm256_add_epi64(_mm256_srli_epi64::<32>(lolo), _mm256_and_si256(hilo, m32)),
            _mm256_and_si256(lohi, m32),
        );
        _mm256_add_epi64(
            _mm256_add_epi64(hihi, _mm256_srli_epi64::<32>(hilo)),
            _mm256_add_epi64(_mm256_srli_epi64::<32>(lohi), _mm256_srli_epi64::<32>(mid)),
        )
    }

    /// `v >= bound ? v - bound : v` per unsigned 64-bit lane.
    #[inline(always)]
    unsafe fn cond_sub(v: __m256i, bound: __m256i) -> __m256i {
        let sign = _mm256_set1_epi64x(SIGN as i64);
        // bound > v on sign-biased lanes == unsigned bound > v.
        let lt = _mm256_cmpgt_epi64(_mm256_xor_si256(bound, sign), _mm256_xor_si256(v, sign));
        _mm256_sub_epi64(v, _mm256_andnot_si256(lt, bound))
    }

    /// Lazy Shoup product per lane: result in `[0, 2q)` for any input.
    #[inline(always)]
    unsafe fn shoup_lazy(x: __m256i, wv: __m256i, wq: __m256i, qv: __m256i) -> __m256i {
        let qhat = mulhi_epu64(x, wq);
        _mm256_sub_epi64(mullo_epu64(x, wv), mullo_epu64(qhat, qv))
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn fwd_bfly(top: &mut [u64], bot: &mut [u64], s: ShoupScalar, q: u64) {
        let n = top.len();
        let wv = _mm256_set1_epi64x(s.value as i64);
        let wq = _mm256_set1_epi64x(s.quotient as i64);
        let qv = _mm256_set1_epi64x(q as i64);
        let two_q = _mm256_set1_epi64x((q << 1) as i64);
        let tp = top.as_mut_ptr();
        let bp = bot.as_mut_ptr();
        let mut i = 0usize;
        while i + 4 <= n {
            let u = cond_sub(_mm256_loadu_si256(tp.add(i).cast()), two_q);
            let x = _mm256_loadu_si256(bp.add(i).cast());
            let v = shoup_lazy(x, wv, wq, qv);
            _mm256_storeu_si256(tp.add(i).cast(), _mm256_add_epi64(u, v));
            _mm256_storeu_si256(bp.add(i).cast(), _mm256_sub_epi64(_mm256_add_epi64(u, two_q), v));
            i += 4;
        }
        if i < n {
            super::fwd_bfly_slice_scalar(&mut top[i..], &mut bot[i..], s, q);
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn inv_bfly(top: &mut [u64], bot: &mut [u64], s: ShoupScalar, q: u64) {
        let n = top.len();
        let wv = _mm256_set1_epi64x(s.value as i64);
        let wq = _mm256_set1_epi64x(s.quotient as i64);
        let qv = _mm256_set1_epi64x(q as i64);
        let two_q = _mm256_set1_epi64x((q << 1) as i64);
        let tp = top.as_mut_ptr();
        let bp = bot.as_mut_ptr();
        let mut i = 0usize;
        while i + 4 <= n {
            let u = _mm256_loadu_si256(tp.add(i).cast());
            let v = _mm256_loadu_si256(bp.add(i).cast());
            let t0 = cond_sub(_mm256_add_epi64(u, v), two_q);
            let t1 = _mm256_sub_epi64(_mm256_add_epi64(u, two_q), v);
            _mm256_storeu_si256(tp.add(i).cast(), t0);
            _mm256_storeu_si256(bp.add(i).cast(), shoup_lazy(t1, wv, wq, qv));
            i += 4;
        }
        if i < n {
            super::inv_bfly_slice_scalar(&mut top[i..], &mut bot[i..], s, q);
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn inv_bfly_last(
        top: &mut [u64],
        bot: &mut [u64],
        n_inv: ShoupScalar,
        s_ninv: ShoupScalar,
        q: u64,
        canonical: bool,
    ) {
        let n = top.len();
        let niv = _mm256_set1_epi64x(n_inv.value as i64);
        let niq = _mm256_set1_epi64x(n_inv.quotient as i64);
        let sv = _mm256_set1_epi64x(s_ninv.value as i64);
        let sq = _mm256_set1_epi64x(s_ninv.quotient as i64);
        let qv = _mm256_set1_epi64x(q as i64);
        let two_q = _mm256_set1_epi64x((q << 1) as i64);
        let tp = top.as_mut_ptr();
        let bp = bot.as_mut_ptr();
        let mut i = 0usize;
        while i + 4 <= n {
            let u = _mm256_loadu_si256(tp.add(i).cast());
            let v = _mm256_loadu_si256(bp.add(i).cast());
            let mut r0 = shoup_lazy(_mm256_add_epi64(u, v), niv, niq, qv);
            let mut r1 = shoup_lazy(_mm256_sub_epi64(_mm256_add_epi64(u, two_q), v), sv, sq, qv);
            if canonical {
                r0 = cond_sub(r0, qv);
                r1 = cond_sub(r1, qv);
            }
            _mm256_storeu_si256(tp.add(i).cast(), r0);
            _mm256_storeu_si256(bp.add(i).cast(), r1);
            i += 4;
        }
        if i < n {
            super::inv_bfly_last_slice_scalar(
                &mut top[i..],
                &mut bot[i..],
                n_inv,
                s_ninv,
                q,
                canonical,
            );
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn mul_shoup(a: &mut [u64], w: ShoupScalar, q: u64) {
        let n = a.len();
        let wv = _mm256_set1_epi64x(w.value as i64);
        let wq = _mm256_set1_epi64x(w.quotient as i64);
        let qv = _mm256_set1_epi64x(q as i64);
        let p = a.as_mut_ptr();
        let mut i = 0usize;
        while i + 4 <= n {
            let x = _mm256_loadu_si256(p.add(i).cast());
            let r = cond_sub(shoup_lazy(x, wv, wq, qv), qv);
            _mm256_storeu_si256(p.add(i).cast(), r);
            i += 4;
        }
        if i < n {
            super::mul_shoup_slice_scalar(&mut a[i..], w, q);
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn reduce_2q(a: &mut [u64], q: u64) {
        let n = a.len();
        let qv = _mm256_set1_epi64x(q as i64);
        let p = a.as_mut_ptr();
        let mut i = 0usize;
        while i + 4 <= n {
            let x = _mm256_loadu_si256(p.add(i).cast());
            _mm256_storeu_si256(p.add(i).cast(), cond_sub(x, qv));
            i += 4;
        }
        if i < n {
            super::reduce_2q_slice_scalar(&mut a[i..], q);
        }
    }

    /// Unsigned `x >= q` mask per lane (for the fused canonical-form checks).
    #[inline(always)]
    unsafe fn ge_mask(x: __m256i, qv: __m256i) -> __m256i {
        let sign = _mm256_set1_epi64x(SIGN as i64);
        let lt = _mm256_cmpgt_epi64(_mm256_xor_si256(qv, sign), _mm256_xor_si256(x, sign));
        // NOT(lt): x >= q.
        _mm256_andnot_si256(lt, _mm256_set1_epi64x(-1))
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn add_mod(a: &mut [u64], b: &[u64], q: u64) {
        let n = a.len();
        let qv = _mm256_set1_epi64x(q as i64);
        let ap = a.as_mut_ptr();
        let bp = b.as_ptr();
        let mut bad = _mm256_setzero_si256();
        let mut i = 0usize;
        while i + 4 <= n {
            let x = _mm256_loadu_si256(ap.add(i).cast());
            let y = _mm256_loadu_si256(bp.add(i).cast());
            bad = _mm256_or_si256(bad, _mm256_or_si256(ge_mask(x, qv), ge_mask(y, qv)));
            let s = _mm256_add_epi64(x, y);
            _mm256_storeu_si256(ap.add(i).cast(), cond_sub(s, qv));
            i += 4;
        }
        assert!(
            _mm256_testz_si256(bad, bad) == 1,
            "non-canonical operands to simd::add_mod (vector path), q={q}"
        );
        if i < n {
            super::add_mod_slice_scalar(&mut a[i..], &b[i..], q);
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sub_mod(a: &mut [u64], b: &[u64], q: u64) {
        let n = a.len();
        let qv = _mm256_set1_epi64x(q as i64);
        let ap = a.as_mut_ptr();
        let bp = b.as_ptr();
        let mut bad = _mm256_setzero_si256();
        let mut i = 0usize;
        while i + 4 <= n {
            let x = _mm256_loadu_si256(ap.add(i).cast());
            let y = _mm256_loadu_si256(bp.add(i).cast());
            bad = _mm256_or_si256(bad, _mm256_or_si256(ge_mask(x, qv), ge_mask(y, qv)));
            // x - y + (x < y ? q : 0)  ==  cond_sub(x + q - y, q) for
            // canonical operands; compute the branch-free form directly.
            let d = _mm256_sub_epi64(_mm256_add_epi64(x, qv), y);
            _mm256_storeu_si256(ap.add(i).cast(), cond_sub(d, qv));
            i += 4;
        }
        assert!(
            _mm256_testz_si256(bad, bad) == 1,
            "non-canonical operands to simd::sub_mod (vector path), q={q}"
        );
        if i < n {
            super::sub_mod_slice_scalar(&mut a[i..], &b[i..], q);
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn neg_mod(a: &mut [u64], q: u64) {
        let n = a.len();
        let qv = _mm256_set1_epi64x(q as i64);
        let zero = _mm256_setzero_si256();
        let ap = a.as_mut_ptr();
        let mut bad = _mm256_setzero_si256();
        let mut i = 0usize;
        while i + 4 <= n {
            let x = _mm256_loadu_si256(ap.add(i).cast());
            bad = _mm256_or_si256(bad, ge_mask(x, qv));
            let is_zero = _mm256_cmpeq_epi64(x, zero);
            let r = _mm256_andnot_si256(is_zero, _mm256_sub_epi64(qv, x));
            _mm256_storeu_si256(ap.add(i).cast(), r);
            i += 4;
        }
        assert!(
            _mm256_testz_si256(bad, bad) == 1,
            "non-canonical operand to simd::neg_mod (vector path), q={q}"
        );
        if i < n {
            super::neg_mod_slice_scalar(&mut a[i..], q);
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sub_mul_shoup(
        out: &mut [u64],
        a: &[u64],
        b: &[u64],
        w: ShoupScalar,
        q: u64,
    ) {
        let n = out.len();
        let qv = _mm256_set1_epi64x(q as i64);
        let wv = _mm256_set1_epi64x(w.value as i64);
        let wq = _mm256_set1_epi64x(w.quotient as i64);
        let op = out.as_mut_ptr();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut bad = _mm256_setzero_si256();
        let mut i = 0usize;
        while i + 4 <= n {
            let x = _mm256_loadu_si256(ap.add(i).cast());
            let y = _mm256_loadu_si256(bp.add(i).cast());
            bad = _mm256_or_si256(bad, _mm256_or_si256(ge_mask(x, qv), ge_mask(y, qv)));
            let d = cond_sub(_mm256_sub_epi64(_mm256_add_epi64(x, qv), y), qv);
            let r = cond_sub(shoup_lazy(d, wv, wq, qv), qv);
            _mm256_storeu_si256(op.add(i).cast(), r);
            i += 4;
        }
        assert!(
            _mm256_testz_si256(bad, bad) == 1,
            "non-canonical operands to simd::sub_mul_shoup (vector path), q={q}"
        );
        if i < n {
            super::sub_mul_shoup_slice_scalar(&mut out[i..], &a[i..], &b[i..], w, q);
        }
    }
}

// ---------------------------------------------------------------------------
// NEON kernels (aarch64)
// ---------------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod neon {
    use super::ShoupScalar;
    use core::arch::aarch64::*;

    /// Low 64 bits of the 2 lane-wise products `a * b`.
    #[inline(always)]
    unsafe fn mullo_u64(a: uint64x2_t, b: uint64x2_t) -> uint64x2_t {
        let a_lo = vmovn_u64(a);
        let a_hi = vshrn_n_u64::<32>(a);
        let b_lo = vmovn_u64(b);
        let b_hi = vshrn_n_u64::<32>(b);
        let cross = vmlal_u32(vmull_u32(a_lo, b_hi), a_hi, b_lo);
        vaddq_u64(vmull_u32(a_lo, b_lo), vshlq_n_u64::<32>(cross))
    }

    /// High 64 bits of the 2 lane-wise products `a * b`.
    #[inline(always)]
    unsafe fn mulhi_u64(a: uint64x2_t, b: uint64x2_t) -> uint64x2_t {
        let m32 = vdupq_n_u64(0xffff_ffff);
        let a_lo = vmovn_u64(a);
        let a_hi = vshrn_n_u64::<32>(a);
        let b_lo = vmovn_u64(b);
        let b_hi = vshrn_n_u64::<32>(b);
        let lolo = vmull_u32(a_lo, b_lo);
        let hilo = vmull_u32(a_hi, b_lo);
        let lohi = vmull_u32(a_lo, b_hi);
        let hihi = vmull_u32(a_hi, b_hi);
        let mid = vaddq_u64(
            vaddq_u64(vshrq_n_u64::<32>(lolo), vandq_u64(hilo, m32)),
            vandq_u64(lohi, m32),
        );
        vaddq_u64(
            vaddq_u64(hihi, vshrq_n_u64::<32>(hilo)),
            vaddq_u64(vshrq_n_u64::<32>(lohi), vshrq_n_u64::<32>(mid)),
        )
    }

    #[inline(always)]
    unsafe fn cond_sub(v: uint64x2_t, bound: uint64x2_t) -> uint64x2_t {
        let ge = vcgeq_u64(v, bound);
        vsubq_u64(v, vandq_u64(ge, bound))
    }

    #[inline(always)]
    unsafe fn shoup_lazy(
        x: uint64x2_t,
        wv: uint64x2_t,
        wq: uint64x2_t,
        qv: uint64x2_t,
    ) -> uint64x2_t {
        let qhat = mulhi_u64(x, wq);
        vsubq_u64(mullo_u64(x, wv), mullo_u64(qhat, qv))
    }

    pub(super) unsafe fn fwd_bfly(top: &mut [u64], bot: &mut [u64], s: ShoupScalar, q: u64) {
        let n = top.len();
        let wv = vdupq_n_u64(s.value);
        let wq = vdupq_n_u64(s.quotient);
        let qv = vdupq_n_u64(q);
        let two_q = vdupq_n_u64(q << 1);
        let tp = top.as_mut_ptr();
        let bp = bot.as_mut_ptr();
        let mut i = 0usize;
        while i + 2 <= n {
            let u = cond_sub(vld1q_u64(tp.add(i)), two_q);
            let v = shoup_lazy(vld1q_u64(bp.add(i)), wv, wq, qv);
            vst1q_u64(tp.add(i), vaddq_u64(u, v));
            vst1q_u64(bp.add(i), vsubq_u64(vaddq_u64(u, two_q), v));
            i += 2;
        }
        if i < n {
            super::fwd_bfly_slice_scalar(&mut top[i..], &mut bot[i..], s, q);
        }
    }

    pub(super) unsafe fn inv_bfly(top: &mut [u64], bot: &mut [u64], s: ShoupScalar, q: u64) {
        let n = top.len();
        let wv = vdupq_n_u64(s.value);
        let wq = vdupq_n_u64(s.quotient);
        let qv = vdupq_n_u64(q);
        let two_q = vdupq_n_u64(q << 1);
        let tp = top.as_mut_ptr();
        let bp = bot.as_mut_ptr();
        let mut i = 0usize;
        while i + 2 <= n {
            let u = vld1q_u64(tp.add(i));
            let v = vld1q_u64(bp.add(i));
            let t0 = cond_sub(vaddq_u64(u, v), two_q);
            let t1 = vsubq_u64(vaddq_u64(u, two_q), v);
            vst1q_u64(tp.add(i), t0);
            vst1q_u64(bp.add(i), shoup_lazy(t1, wv, wq, qv));
            i += 2;
        }
        if i < n {
            super::inv_bfly_slice_scalar(&mut top[i..], &mut bot[i..], s, q);
        }
    }

    pub(super) unsafe fn inv_bfly_last(
        top: &mut [u64],
        bot: &mut [u64],
        n_inv: ShoupScalar,
        s_ninv: ShoupScalar,
        q: u64,
        canonical: bool,
    ) {
        let n = top.len();
        let niv = vdupq_n_u64(n_inv.value);
        let niq = vdupq_n_u64(n_inv.quotient);
        let sv = vdupq_n_u64(s_ninv.value);
        let sq = vdupq_n_u64(s_ninv.quotient);
        let qv = vdupq_n_u64(q);
        let two_q = vdupq_n_u64(q << 1);
        let tp = top.as_mut_ptr();
        let bp = bot.as_mut_ptr();
        let mut i = 0usize;
        while i + 2 <= n {
            let u = vld1q_u64(tp.add(i));
            let v = vld1q_u64(bp.add(i));
            let mut r0 = shoup_lazy(vaddq_u64(u, v), niv, niq, qv);
            let mut r1 = shoup_lazy(vsubq_u64(vaddq_u64(u, two_q), v), sv, sq, qv);
            if canonical {
                r0 = cond_sub(r0, qv);
                r1 = cond_sub(r1, qv);
            }
            vst1q_u64(tp.add(i), r0);
            vst1q_u64(bp.add(i), r1);
            i += 2;
        }
        if i < n {
            super::inv_bfly_last_slice_scalar(
                &mut top[i..],
                &mut bot[i..],
                n_inv,
                s_ninv,
                q,
                canonical,
            );
        }
    }

    pub(super) unsafe fn mul_shoup(a: &mut [u64], w: ShoupScalar, q: u64) {
        let n = a.len();
        let wv = vdupq_n_u64(w.value);
        let wq = vdupq_n_u64(w.quotient);
        let qv = vdupq_n_u64(q);
        let p = a.as_mut_ptr();
        let mut i = 0usize;
        while i + 2 <= n {
            let r = cond_sub(shoup_lazy(vld1q_u64(p.add(i)), wv, wq, qv), qv);
            vst1q_u64(p.add(i), r);
            i += 2;
        }
        if i < n {
            super::mul_shoup_slice_scalar(&mut a[i..], w, q);
        }
    }

    pub(super) unsafe fn reduce_2q(a: &mut [u64], q: u64) {
        let n = a.len();
        let qv = vdupq_n_u64(q);
        let p = a.as_mut_ptr();
        let mut i = 0usize;
        while i + 2 <= n {
            vst1q_u64(p.add(i), cond_sub(vld1q_u64(p.add(i)), qv));
            i += 2;
        }
        if i < n {
            super::reduce_2q_slice_scalar(&mut a[i..], q);
        }
    }
}

// ---------------------------------------------------------------------------
// Dispatching entry points
// ---------------------------------------------------------------------------

/// Forward Harvey butterfly over paired slices: `top[k], bot[k]` in
/// `[0, 4q)` → `[0, 4q)`, with the Shoup twiddle `s`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub(crate) fn fwd_bfly(top: &mut [u64], bot: &mut [u64], s: ShoupScalar, q: u64) {
    debug_assert_eq!(top.len(), bot.len());
    if top.len() >= MIN_VECTOR_LEN {
        match active_backend() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: AVX2 presence verified by `active_backend`.
            Backend::Avx2 => return unsafe { avx2::fwd_bfly(top, bot, s, q) },
            #[cfg(target_arch = "aarch64")]
            // SAFETY: NEON is baseline on aarch64.
            Backend::Neon => return unsafe { neon::fwd_bfly(top, bot, s, q) },
            _ => {}
        }
    }
    fwd_bfly_slice_scalar(top, bot, s, q);
}

/// Inverse Harvey butterfly over paired slices: values stay in `[0, 2q)`.
#[inline]
pub(crate) fn inv_bfly(top: &mut [u64], bot: &mut [u64], s: ShoupScalar, q: u64) {
    debug_assert_eq!(top.len(), bot.len());
    if top.len() >= MIN_VECTOR_LEN {
        match active_backend() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: AVX2 presence verified by `active_backend`.
            Backend::Avx2 => return unsafe { avx2::inv_bfly(top, bot, s, q) },
            #[cfg(target_arch = "aarch64")]
            // SAFETY: NEON is baseline on aarch64.
            Backend::Neon => return unsafe { neon::inv_bfly(top, bot, s, q) },
            _ => {}
        }
    }
    inv_bfly_slice_scalar(top, bot, s, q);
}

/// Final inverse stage with the `N^{-1}` scaling folded into both halves:
/// `top ← (u+v)·n_inv`, `bot ← (u−v)·s_ninv` (where `s_ninv` already
/// includes `n_inv`). Outputs canonical when `canonical`, else `[0, 2q)`.
#[inline]
pub(crate) fn inv_bfly_last(
    top: &mut [u64],
    bot: &mut [u64],
    n_inv: ShoupScalar,
    s_ninv: ShoupScalar,
    q: u64,
    canonical: bool,
) {
    debug_assert_eq!(top.len(), bot.len());
    if top.len() >= MIN_VECTOR_LEN {
        match active_backend() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: AVX2 presence verified by `active_backend`.
            Backend::Avx2 => {
                return unsafe { avx2::inv_bfly_last(top, bot, n_inv, s_ninv, q, canonical) }
            }
            #[cfg(target_arch = "aarch64")]
            // SAFETY: NEON is baseline on aarch64.
            Backend::Neon => {
                return unsafe { neon::inv_bfly_last(top, bot, n_inv, s_ninv, q, canonical) }
            }
            _ => {}
        }
    }
    inv_bfly_last_slice_scalar(top, bot, n_inv, s_ninv, q, canonical);
}

/// Canonical in-place Shoup scaling `a[k] ← a[k]·w mod q` (inputs `< q`...
/// more precisely any `[0, 2q)` value reduces correctly since the lazy
/// product plus one conditional subtraction lands in `[0, q)` only for
/// canonical inputs — callers keep the canonical contract).
#[inline]
pub(crate) fn mul_shoup_slice(a: &mut [u64], w: ShoupScalar, q: u64) {
    if a.len() >= MIN_VECTOR_LEN {
        match active_backend() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: AVX2 presence verified by `active_backend`.
            Backend::Avx2 => return unsafe { avx2::mul_shoup(a, w, q) },
            #[cfg(target_arch = "aarch64")]
            // SAFETY: NEON is baseline on aarch64.
            Backend::Neon => return unsafe { neon::mul_shoup(a, w, q) },
            _ => {}
        }
    }
    mul_shoup_slice_scalar(a, w, q);
}

/// Canonicalizes a `[0, 2q)` slice with one conditional subtraction per
/// element.
#[inline]
pub(crate) fn reduce_2q_slice(a: &mut [u64], q: u64) {
    if a.len() >= MIN_VECTOR_LEN {
        match active_backend() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: AVX2 presence verified by `active_backend`.
            Backend::Avx2 => return unsafe { avx2::reduce_2q(a, q) },
            #[cfg(target_arch = "aarch64")]
            // SAFETY: NEON is baseline on aarch64.
            Backend::Neon => return unsafe { neon::reduce_2q(a, q) },
            _ => {}
        }
    }
    reduce_2q_slice_scalar(a, q);
}

/// Element-wise canonical modular addition `a[k] ← a[k] + b[k] mod q`.
/// Keeps the canonical-operand contract of [`Modulus::add`] (the vector path
/// accumulates a violation mask and asserts once per slice).
#[inline]
pub(crate) fn add_mod_slice(a: &mut [u64], b: &[u64], q: u64) {
    debug_assert_eq!(a.len(), b.len());
    if a.len() >= MIN_VECTOR_LEN {
        #[cfg(target_arch = "x86_64")]
        if active_backend() == Backend::Avx2 {
            // SAFETY: AVX2 presence verified by `active_backend`.
            return unsafe { avx2::add_mod(a, b, q) };
        }
    }
    add_mod_slice_scalar(a, b, q);
}

/// Element-wise canonical modular subtraction `a[k] ← a[k] - b[k] mod q`.
#[inline]
pub(crate) fn sub_mod_slice(a: &mut [u64], b: &[u64], q: u64) {
    debug_assert_eq!(a.len(), b.len());
    if a.len() >= MIN_VECTOR_LEN {
        #[cfg(target_arch = "x86_64")]
        if active_backend() == Backend::Avx2 {
            // SAFETY: AVX2 presence verified by `active_backend`.
            return unsafe { avx2::sub_mod(a, b, q) };
        }
    }
    sub_mod_slice_scalar(a, b, q);
}

/// Element-wise canonical modular negation `a[k] ← -a[k] mod q`.
#[inline]
pub(crate) fn neg_mod_slice(a: &mut [u64], q: u64) {
    if a.len() >= MIN_VECTOR_LEN {
        #[cfg(target_arch = "x86_64")]
        if active_backend() == Backend::Avx2 {
            // SAFETY: AVX2 presence verified by `active_backend`.
            return unsafe { avx2::neg_mod(a, q) };
        }
    }
    neg_mod_slice_scalar(a, q);
}

/// Fused `out[k] ← (a[k] - b[k]) · w mod q` — the Moddown inner loop.
#[inline]
pub(crate) fn sub_mul_shoup_slice(out: &mut [u64], a: &[u64], b: &[u64], w: ShoupScalar, q: u64) {
    debug_assert!(out.len() == a.len() && a.len() == b.len());
    if out.len() >= MIN_VECTOR_LEN {
        #[cfg(target_arch = "x86_64")]
        if active_backend() == Backend::Avx2 {
            // SAFETY: AVX2 presence verified by `active_backend`.
            return unsafe { avx2::sub_mul_shoup(out, a, b, w, q) };
        }
    }
    sub_mul_shoup_slice_scalar(out, a, b, w, q);
}

/// Element-wise Barrett modular multiplication `a[k] ← a[k]·b[k] mod q`.
///
/// Intentionally scalar on every backend: the Barrett reduction needs the
/// full 128-bit ratio product, which costs more `mul_epu32` emulation ops
/// per lane than the scalar `mulx` chain it would replace (documented in
/// DESIGN.md §14). Accepts lazy `[0, 2q)` operands — the 128-bit product
/// of two sub-`2q` values stays below `2^124`, well inside
/// [`Modulus::reduce_u128`]'s domain — and always returns canonical values.
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

    /// Runs `f` once with SIMD allowed and once forced-scalar, asserting
    /// both produce identical outputs on identical inputs.
    fn differential(mut f: impl FnMut() -> Vec<u64>) {
        set_force_scalar(false);
        let fast = f();
        set_force_scalar(true);
        let slow = f();
        set_force_scalar(false);
        assert_eq!(fast, slow, "SIMD and scalar paths diverged");
    }

    #[test]
    fn backend_name_is_stable() {
        let b = active_backend();
        assert!(["scalar", "avx2", "neon"].contains(&b.name()));
        set_force_scalar(true);
        assert_eq!(active_backend(), Backend::Scalar);
        set_force_scalar(false);
    }

    #[test]
    fn fwd_bfly_matches_scalar_and_keeps_4q_bound() {
        for bits in [36u32, 60] {
            let m = modulus(bits);
            let q = m.value();
            let s = m.shoup(q - 3);
            let n = 37; // odd length exercises the scalar tail
            let mk = || {
                let mut top: Vec<u64> =
                    (0..n as u64).map(|i| i.wrapping_mul(0x9e37) % (4 * q)).collect();
                let mut bot: Vec<u64> =
                    (0..n as u64).map(|i| i.wrapping_mul(0x51ed) % (4 * q)).collect();
                fwd_bfly(&mut top, &mut bot, s, q);
                top.extend_from_slice(&bot);
                top
            };
            differential(mk);
            let out = mk();
            assert!(out.iter().all(|&v| v < 4 * q), "4q bound violated, bits={bits}");
        }
    }

    #[test]
    fn inv_bfly_matches_scalar_and_keeps_2q_bound() {
        let m = modulus(60);
        let q = m.value();
        let s = m.shoup(12345);
        let n = 21;
        let mk = || {
            let mut top: Vec<u64> = (0..n as u64).map(|i| (i * 977) % (2 * q)).collect();
            let mut bot: Vec<u64> = (0..n as u64).map(|i| (i * 3331) % (2 * q)).collect();
            inv_bfly(&mut top, &mut bot, s, q);
            top.extend_from_slice(&bot);
            top
        };
        differential(mk);
        assert!(mk().iter().all(|&v| v < 2 * q));
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

        differential(|| {
            let mut v = a.clone();
            add_mod_slice(&mut v, &b, q);
            sub_mod_slice(&mut v, &b, q);
            mul_shoup_slice(&mut v, w, q);
            neg_mod_slice(&mut v, q);
            v
        });
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
            let mut a = vec![q; 32]; // non-canonical on the vector path
            let b = vec![1u64; 32];
            add_mod_slice(&mut a, &b, q);
        });
        assert!(res.is_err(), "the contract must fire on the vector path too");
    }
}
