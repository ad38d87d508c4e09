//! The AVX-512 IFMA backend: the NTT and [`lazy_mac`](crate::lazy_mac) on
//! eight 52-bit lanes — the shape of one Alchemist core, whose Meta-OP
//! `(M_j A_j)_n R_j` runs eight modular multiplies side by side with one
//! lazy reduction (DESIGN.md §14.2).
//!
//! `vpmadd52luq` / `vpmadd52huq` add the low / high 52 bits of a
//! `52 × 52`-bit product to a 64-bit lane: a native wide multiply (AVX2
//! has none), exact only while every operand is below `2^52`. So a kernel
//! here runs only where that is proven, and the caller proves it once:
//!
//! * the NTT and the single-modulus MACs (`a < 2q`, `b < q`) need
//!   `q < 2^51` ([`Ifma::fits`]), which keeps a lazy Shoup product's
//!   `[0, 2q)` below `2^52`. Harvey butterflies carry values below `4q`,
//!   which the 64-bit lanes hold at any such `q`; only what they multiply
//!   must stay below `2^52`. From `q = 2^50` on `4q` does not, so there
//!   every butterfly first brings its Shoup multiplicand into `[0, 2q)`
//!   with one conditional subtraction ([`NttLanes`], chosen once per
//!   table);
//! * a Bconv plan decides from all of its source and destination moduli
//!   (`BconvPlan::new`, through [`Ifma::mac`]).
//!
//! Everything else — other hosts, moduli of `2^51` and above — runs the
//! scalar kernels in [`crate::simd`] and `crate::rns`. Canonical outputs
//! are bit-identical to the scalar path (a canonical residue is unique);
//! lazy outputs are congruent and inside the same ranges, `[0, 2q)` both
//! ways.
//!
//! The 52-bit Shoup quotient of a twiddle `w` is its 64-bit one shifted:
//! `⌊⌊w·2^64/q⌋ / 2^12⌋ = ⌊w·2^52/q⌋`, so the kernels read the scalar
//! tables and keep no second copy.
//!
//! One more function here has no intrinsics: [`Ifma::wide`], the
//! trampoline behind [`crate::simd::wide`], runs a closure compiled for
//! AVX-512F, so plain loops that need no 52-bit multiply are vectorised by
//! LLVM from the same source as their scalar path.
//!
//! This is the one file of the workspace that names `std::arch` or
//! `target_feature`, and the one module of `fhe-math` allowed `unsafe`: the
//! intrinsics' loads and stores, and the calls into `#[target_feature]`
//! functions, which an [`Ifma`] token proves the host can run.

use crate::modulus::ShoupScalar;
use crate::{MacRead, Modulus};

/// Moduli the NTT and single-modulus MAC kernels accept: `q < 2^51` keeps
/// a lazy Shoup product's `2q` below the lanes' `2^52`.
const NTT_MODULUS_LIMIT: u64 = 1 << 51;

/// From this modulus on, Harvey's `4q` reaches the lanes' `2^52`: the NTT
/// reduces each Shoup multiplicand below `2q` first.
const WIDE_NTT_MODULUS: u64 = 1 << 50;

/// Operands a MAC lane multiplies must stay below this.
const LANE_LIMIT: u64 = 1 << 52;

/// Rows one MAC chunk caches, and the most one fold may cover
/// (`fold_rows`): a chunk is the largest multiple of the fold within it.
const PASS_ROWS: usize = 32;

/// Proof that the host runs AVX-512F and AVX-512 IFMA: only
/// [`Ifma::detect`] makes one, so holding one makes the kernels safe to call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Ifma {
    _proof: (),
}

impl Ifma {
    /// The host's answer, asked once per process and cached.
    pub(crate) fn detect() -> Option<Ifma> {
        static HOST: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        let host = *HOST.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512ifma")
            }
            #[cfg(not(target_arch = "x86_64"))]
            false
        });
        host.then_some(Ifma { _proof: () })
    }

    /// Whether the NTT and single-modulus MAC kernels accept modulus `q`.
    pub(crate) fn fits(q: u64) -> bool {
        q < NTT_MODULUS_LIMIT
    }

    /// The NTT lanes for modulus `q`, if it fits: with the extra
    /// subtraction per butterfly from `q = 2^50` on, without it below.
    pub(crate) fn ntt(self, q: u64) -> Option<NttLanes> {
        Ifma::fits(q).then_some(NttLanes { _ifma: self, wide: q >= WIDE_NTT_MODULUS })
    }

    /// Runs `f` compiled for AVX-512F: the plain loops LLVM vectorises by
    /// itself (shifts, masks, selects and `u32 × u32` products, no 52-bit
    /// multiply) on eight 64-bit lanes, from the same source as where no
    /// token exists. Only a closure inlined here is compiled so
    /// ([`crate::simd::wide`] says how to write one).
    #[inline]
    pub(crate) fn wide<R>(self, f: impl FnOnce() -> R) -> R {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `self` exists only where `detect` found AVX-512F.
        unsafe {
            x86::wide(f)
        }
        #[cfg(not(target_arch = "x86_64"))]
        unreachable!("no Ifma token exists off x86-64")
    }

    /// The lanes for MACs at moduli up to `q_max` of operands `a < a_bound`
    /// against `b < q`, if every operand fits 52 bits and `2q` does too
    /// (the fold's lazy products): `None` sends the MAC to the scalar
    /// kernel.
    pub(crate) fn mac(self, q_max: u64, a_bound: u64) -> Option<MacLanes> {
        mac_fits(q_max, a_bound).then(|| MacLanes {
            _ifma: self,
            q_max,
            fold: fold_rows(q_max, a_bound),
        })
    }
}

/// The NTT kernels at one modulus width, proven to fit the lanes: made
/// only by [`Ifma::ntt`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct NttLanes {
    _ifma: Ifma,
    /// `q ≥ 2^50`: every Shoup multiplicand passes through `[0, 2q)`.
    wide: bool,
}

impl NttLanes {
    /// Asserts `q` is a modulus of the width these lanes were made for.
    fn check(self, a: &[u64], tw: &[ShoupScalar], q: u64) {
        assert!(a.len() >= 16 && a.len().is_power_of_two() && tw.len() >= a.len());
        let limit = if self.wide { NTT_MODULUS_LIMIT } else { WIDE_NTT_MODULUS };
        assert!(q < limit, "modulus {q} too wide for these IFMA lanes");
    }

    /// Whether any word of `a` is at least `bound`: one compare per eight
    /// words, OR-ed into a mask.
    pub(crate) fn any_at_least(self, a: &[u64], bound: u64) -> bool {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `self._ifma` exists only where `detect` found AVX-512F.
        unsafe {
            x86::any_at_least(a, bound)
        }
        #[cfg(not(target_arch = "x86_64"))]
        unreachable!("no Ifma token exists off x86-64")
    }

    /// The forward negacyclic NTT of `a` (`n = a.len() ≥ 16`, inputs
    /// below `2q`): canonical output, or `[0, 2q)` if `lazy`.
    pub(crate) fn forward(self, a: &mut [u64], tw: &[ShoupScalar], q: u64, lazy: bool) {
        self.check(a, tw, q);
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `self._ifma` exists only where `detect` found AVX-512F and
        // IFMA.
        unsafe {
            match (lazy, self.wide) {
                (false, false) => x86::forward::<false, false>(a, tw, q),
                (false, true) => x86::forward::<false, true>(a, tw, q),
                (true, false) => x86::forward::<true, false>(a, tw, q),
                (true, true) => x86::forward::<true, true>(a, tw, q),
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        unreachable!("no Ifma token exists off x86-64")
    }

    /// The inverse negacyclic NTT, `N^{-1}` folded into the root stage
    /// (`n_inv` on the sum side, `inv_last = ψ^{-brv(1)}·N^{-1}` on the
    /// difference side), same shape contract as [`NttLanes::forward`].
    pub(crate) fn inverse(
        self,
        a: &mut [u64],
        tw: &[ShoupScalar],
        folded: [ShoupScalar; 2],
        q: u64,
        lazy: bool,
    ) {
        self.check(a, tw, q);
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `self._ifma` exists only where `detect` found AVX-512F and
        // IFMA.
        unsafe {
            match (lazy, self.wide) {
                (false, false) => x86::inverse::<false, false>(a, tw, folded, q),
                (false, true) => x86::inverse::<false, true>(a, tw, folded, q),
                (true, false) => x86::inverse::<true, false>(a, tw, folded, q),
                (true, true) => x86::inverse::<true, true>(a, tw, folded, q),
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        unreachable!("no Ifma token exists off x86-64")
    }
}

/// A MAC shape proven to fit the lanes: made only by [`Ifma::mac`], it
/// carries the rows one fold may cover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MacLanes {
    _ifma: Ifma,
    q_max: u64,
    fold: usize,
}

impl MacLanes {
    /// [`lazy_mac`](crate::lazy_mac) on the lanes, at a modulus no wider
    /// than the one this shape was proven for. Slots past the last
    /// multiple of eight take the scalar tail.
    pub(crate) fn lazy_mac<'r>(
        self,
        m: &Modulus,
        terms: usize,
        row: impl Fn(usize) -> (&'r [u64], &'r [u64]),
        a: impl MacRead,
        b: impl MacRead,
        out: &mut [u64],
    ) {
        assert!(m.value() <= self.q_max, "q = {} past this MAC's {}", m.value(), self.q_max);
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `self._ifma` exists only where `detect` found AVX-512F and
        // IFMA.
        unsafe {
            x86::lazy_mac(m, self.fold, terms, row, a, b, out);
        }
        #[cfg(not(target_arch = "x86_64"))]
        unreachable!("no Ifma token exists off x86-64")
    }
}

/// Whether MACs at `q` of operands `a < a_bound` against `b < q` run on
/// the lanes: both operands below `2^52`, and `q < 2^51`.
fn mac_fits(q: u64, a_bound: u64) -> bool {
    Ifma::fits(q) && a_bound <= LANE_LIMIT
}

/// Rows whose lane sums one fold reduces exactly, for `a < a_bound` and
/// `b < q`. Each product's high half is at most `h = ⌊(a_bound−1)(q−1) /
/// 2^52⌋`; `R` rows and the carries out of the low sum add up to at most
/// `R·(h + 1)`, which the 52-bit Shoup fold needs below `2^52`. At
/// `q < 2^50`, `a < 2q` that is seven or eight rows at the top of the
/// range and thousands at `ckks_mlp`'s primes; a pass takes at most
/// [`PASS_ROWS`].
fn fold_rows(q: u64, a_bound: u64) -> usize {
    let high = ((u128::from(a_bound - 1) * u128::from(q - 1)) >> 52) as u64;
    (((LANE_LIMIT - 1) / (high + 1)) as usize).min(PASS_ROWS)
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::PASS_ROWS;
    use crate::modulus::ShoupScalar;
    use crate::{MacRead, Modulus, MAC_SLOTS};
    use std::arch::x86_64::*;

    /// Lanes per vector.
    const LANES: usize = 8;

    /// One modulus on every lane.
    #[derive(Clone, Copy)]
    struct Lanes {
        q: __m512i,
        two_q: __m512i,
        /// `2^52 − q`: adding `lo52(k·(2^52 − q))` subtracts `k·q` mod 2^52.
        neg_q: __m512i,
        mask: __m512i,
    }

    /// A twiddle per lane: the value and its 52-bit Shoup quotient.
    #[derive(Clone, Copy)]
    struct Tw {
        w: __m512i,
        wq: __m512i,
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn splat(x: u64) -> __m512i {
        _mm512_set1_epi64(x as i64)
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn idx(i: [i64; 8]) -> __m512i {
        _mm512_set_epi64(i[7], i[6], i[5], i[4], i[3], i[2], i[1], i[0])
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn load(x: &[u64; LANES]) -> __m512i {
        // SAFETY: `x` is 64 readable bytes; the load is unaligned.
        unsafe { _mm512_loadu_si512(x.as_ptr().cast()) }
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn store(x: &mut [u64; LANES], v: __m512i) {
        // SAFETY: `x` is 64 writable bytes; the store is unaligned.
        unsafe { _mm512_storeu_si512(x.as_mut_ptr().cast(), v) }
    }

    /// The trampoline behind [`Ifma::wide`](super::Ifma::wide).
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(super) fn wide<R>(f: impl FnOnce() -> R) -> R {
        f()
    }

    impl Lanes {
        #[inline]
        #[target_feature(enable = "avx512f")]
        fn new(q: u64) -> Lanes {
            Lanes {
                q: splat(q),
                two_q: splat(2 * q),
                neg_q: splat((1 << 52) - q),
                mask: splat((1 << 52) - 1),
            }
        }
    }

    impl Tw {
        #[inline]
        #[target_feature(enable = "avx512f")]
        fn splat(s: ShoupScalar) -> Tw {
            Tw { w: splat(s.value), wq: splat(s.quotient >> 12) }
        }

        /// Lane `k` takes `s[k / (8 / K)]`: `K` consecutive table entries,
        /// each repeated over `8 / K` lanes (`K` ∈ {2, 4, 8}).
        #[inline]
        #[target_feature(enable = "avx512f")]
        fn spread<const K: usize>(s: &[ShoupScalar]) -> Tw {
            let s = &s[..K];
            // `ShoupScalar` is `repr(C)` `{ value, quotient }`: entry `i`'s
            // value is word `2i` and its quotient word `2i + 1`.
            let p = s.as_ptr().cast::<u64>();
            let (lo, hi) = match K {
                // SAFETY: two entries are four readable words; the mask
                // reads no others.
                2 => (unsafe { _mm512_maskz_loadu_epi64(0x0f, p.cast()) }, _mm512_setzero_si512()),
                // SAFETY: four entries are eight readable words.
                4 => (unsafe { _mm512_loadu_si512(p.cast()) }, _mm512_setzero_si512()),
                // SAFETY: eight entries are sixteen readable words.
                _ => unsafe { (_mm512_loadu_si512(p.cast()), _mm512_loadu_si512(p.add(8).cast())) },
            };
            let rep = 8 / K as i64;
            let at = |word: i64| idx(std::array::from_fn(|k| 2 * (k as i64 / rep) + word));
            let w = _mm512_permutex2var_epi64(lo, at(0), hi);
            let wq = _mm512_srli_epi64::<12>(_mm512_permutex2var_epi64(lo, at(1), hi));
            Tw { w, wq }
        }
    }

    /// `min(x, x − m)`: `x − m` where that does not wrap.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn csub(x: __m512i, m: __m512i) -> __m512i {
        _mm512_min_epu64(x, _mm512_sub_epi64(x, m))
    }

    /// Lazy Shoup product `x·w − ⌊x·w'/2^52⌋·q ∈ [0, 2q)` for `x < 2^52`:
    /// the difference is below `2^52`, so its low 52 bits are all of it.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn mul_shoup(x: __m512i, t: Tw, l: &Lanes) -> __m512i {
        let z = _mm512_setzero_si512();
        let qhat = _mm512_madd52hi_epu64(z, x, t.wq);
        let r = _mm512_madd52lo_epu64(_mm512_madd52lo_epu64(z, x, t.w), qhat, l.neg_q);
        _mm512_and_si512(r, l.mask)
    }

    /// A butterfly's Shoup multiplicand `x < 4q` made a lane operand:
    /// below `2^52` as it is where `q < 2^50`; brought into `[0, 2q)` by
    /// one conditional subtraction where `WIDE` (`2^50 ≤ q < 2^51`).
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn operand<const WIDE: bool>(x: __m512i, l: &Lanes) -> __m512i {
        if WIDE {
            csub(x, l.two_q)
        } else {
            x
        }
    }

    /// Forward (CT) Harvey butterfly, values in `[0, 4q)`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn fwd_bfly<const WIDE: bool>(u: __m512i, x: __m512i, t: Tw, l: &Lanes) -> (__m512i, __m512i) {
        let u = csub(u, l.two_q);
        let v = mul_shoup(operand::<WIDE>(x, l), t, l);
        (_mm512_add_epi64(u, v), _mm512_sub_epi64(_mm512_add_epi64(u, l.two_q), v))
    }

    /// Inverse (GS) Harvey butterfly, values in `[0, 2q)`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn inv_bfly<const WIDE: bool>(u: __m512i, v: __m512i, t: Tw, l: &Lanes) -> (__m512i, __m512i) {
        let d = _mm512_sub_epi64(_mm512_add_epi64(u, l.two_q), v);
        (csub(_mm512_add_epi64(u, v), l.two_q), mul_shoup(operand::<WIDE>(d, l), t, l))
    }

    /// The vector pairs of a stage whose halves are `t ≥ 8` apart: groups
    /// of `2t` values, group `i` under `tw[i]`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn stage(
        a: &mut [u64],
        tw: &[ShoupScalar],
        t: usize,
        mut bfly: impl FnMut(__m512i, __m512i, Tw) -> (__m512i, __m512i),
    ) {
        for (group, &s) in a.chunks_exact_mut(2 * t).zip(tw) {
            let s = Tw::splat(s);
            let (lo, hi) = group.split_at_mut(t);
            for (x, y) in lo.as_chunks_mut().0.iter_mut().zip(hi.as_chunks_mut().0) {
                let (u, v) = bfly(load(x), load(y), s);
                store(x, u);
                store(y, v);
            }
        }
    }

    /// Two-register index vectors for `_mm512_permutex2var_epi64`: lane
    /// `k` of the result is word `i[k]` of `(a, b)`, `b`'s words being
    /// `8..16`.
    const EVENS: [i64; 8] = [0, 2, 4, 6, 8, 10, 12, 14];
    const ODDS: [i64; 8] = [1, 3, 5, 7, 9, 11, 13, 15];
    const PAIRS_LO: [i64; 8] = [0, 1, 8, 9, 4, 5, 12, 13];
    const PAIRS_HI: [i64; 8] = [2, 3, 10, 11, 6, 7, 14, 15];
    const ZIP_EVEN: [i64; 8] = [0, 8, 2, 10, 4, 12, 6, 14];
    const ZIP_ODD: [i64; 8] = [1, 9, 3, 11, 5, 13, 7, 15];
    const INTERLEAVE_LO: [i64; 8] = [0, 8, 1, 9, 2, 10, 3, 11];
    const INTERLEAVE_HI: [i64; 8] = [4, 12, 5, 13, 6, 14, 7, 15];

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn perm(a: __m512i, i: [i64; 8], b: __m512i) -> __m512i {
        _mm512_permutex2var_epi64(a, idx(i), b)
    }

    /// The forward transform: the stages with halves `≥ 8` apart on whole
    /// vectors under one broadcast twiddle, then the last three (halves 4,
    /// 2, 1 apart) on pairs of 8-blocks rearranged in registers.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) fn forward<const LAZY: bool, const WIDE: bool>(
        a: &mut [u64],
        tw: &[ShoupScalar],
        q: u64,
    ) {
        let n = a.len();
        let l = Lanes::new(q);
        let (mut m, mut t) = (1, n / 2);
        while t >= LANES {
            stage(a, &tw[m..2 * m], t, |u, v, s| fwd_bfly::<WIDE>(u, v, s, &l));
            (m, t) = (2 * m, t / 2);
        }
        let q_lanes = l.q;
        let fin = |r| if LAZY { csub(r, l.two_q) } else { csub(csub(r, l.two_q), q_lanes) };
        let (t4, t2, t1) = (&tw[n / 8..n / 4], &tw[n / 4..n / 2], &tw[n / 2..n]);
        let pairs = a.as_chunks_mut::<16>().0.iter_mut().enumerate();
        for (p, pair) in pairs {
            let (x, y) = pair.split_at_mut(LANES);
            let (x, y): (&mut [u64; 8], &mut [u64; 8]) =
                (x.try_into().expect("8 words"), y.try_into().expect("8 words"));
            let (ab_lo, ab_hi) = (load(x), load(y));
            // Halves 4 apart: u = [A0..A3 B0..B3], v = [A4..A7 B4..B7].
            let u = _mm512_shuffle_i64x2::<0x44>(ab_lo, ab_hi);
            let v = _mm512_shuffle_i64x2::<0xee>(ab_lo, ab_hi);
            let (u, v) = fwd_bfly::<WIDE>(u, v, Tw::spread::<2>(&t4[2 * p..]), &l);
            // Halves 2 apart: [A0 A1 A4 A5 B0 B1 B4 B5] against the rest.
            let (u, v) = (perm(u, PAIRS_LO, v), perm(u, PAIRS_HI, v));
            let (u, v) = fwd_bfly::<WIDE>(u, v, Tw::spread::<4>(&t2[4 * p..]), &l);
            // Neighbours: even positions against odd.
            let (u, v) = (perm(u, ZIP_EVEN, v), perm(u, ZIP_ODD, v));
            let (u, v) = fwd_bfly::<WIDE>(u, v, Tw::spread::<8>(&t1[8 * p..]), &l);
            let (u, v) = (fin(u), fin(v));
            store(x, perm(u, INTERLEAVE_LO, v));
            store(y, perm(u, INTERLEAVE_HI, v));
        }
    }

    /// The inverse transform: the forward schedule backwards — the first
    /// three stages in registers, then whole-vector stages, the root stage
    /// scaling by `N^{-1}` (folded into its two twiddles).
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) fn inverse<const LAZY: bool, const WIDE: bool>(
        a: &mut [u64],
        tw: &[ShoupScalar],
        [n_inv, inv_last]: [ShoupScalar; 2],
        q: u64,
    ) {
        let n = a.len();
        let l = Lanes::new(q);
        let (t4, t2, t1) = (&tw[n / 8..n / 4], &tw[n / 4..n / 2], &tw[n / 2..n]);
        for (p, pair) in a.as_chunks_mut::<16>().0.iter_mut().enumerate() {
            let (x, y) = pair.split_at_mut(LANES);
            let (x, y): (&mut [u64; 8], &mut [u64; 8]) =
                (x.try_into().expect("8 words"), y.try_into().expect("8 words"));
            let (ab_lo, ab_hi) = (load(x), load(y));
            let (u, v) = (perm(ab_lo, EVENS, ab_hi), perm(ab_lo, ODDS, ab_hi));
            let (u, v) = inv_bfly::<WIDE>(u, v, Tw::spread::<8>(&t1[8 * p..]), &l);
            let (u, v) = (perm(u, ZIP_EVEN, v), perm(u, ZIP_ODD, v));
            let (u, v) = inv_bfly::<WIDE>(u, v, Tw::spread::<4>(&t2[4 * p..]), &l);
            let (u, v) = (perm(u, PAIRS_LO, v), perm(u, PAIRS_HI, v));
            let (u, v) = inv_bfly::<WIDE>(u, v, Tw::spread::<2>(&t4[2 * p..]), &l);
            store(x, _mm512_shuffle_i64x2::<0x44>(u, v));
            store(y, _mm512_shuffle_i64x2::<0xee>(u, v));
        }
        let (mut m, mut t) = (n / 16, LANES);
        while m > 1 {
            stage(a, &tw[m..2 * m], t, |u, v, s| inv_bfly::<WIDE>(u, v, s, &l));
            (m, t) = (m / 2, 2 * t);
        }
        let (s0, s1) = (Tw::splat(n_inv), Tw::splat(inv_last));
        let q_lanes = l.q;
        let fin = |r| if LAZY { r } else { csub(r, q_lanes) };
        stage(a, &[n_inv], n / 2, |u, v, _| {
            let sum = operand::<WIDE>(_mm512_add_epi64(u, v), &l);
            let d = operand::<WIDE>(_mm512_sub_epi64(_mm512_add_epi64(u, l.two_q), v), &l);
            (fin(mul_shoup(sum, s0, &l)), fin(mul_shoup(d, s1, &l)))
        });
    }

    /// Whether any word of `a` is at least `bound`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(super) fn any_at_least(a: &[u64], bound: u64) -> bool {
        let b = splat(bound);
        let (blocks, tail) = a.as_chunks::<LANES>();
        let mut hit: __mmask8 = 0;
        for x in blocks {
            hit |= _mm512_cmpge_epu64_mask(load(x), b);
        }
        hit != 0 || tail.iter().any(|&x| x >= bound)
    }

    /// One operand of eight slots from `s`, read as `r` says.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn read(r: impl MacRead, x: &[u64], s: usize) -> __m512i {
        let (lo, hi) = (r.block(x, s), r.block(x, s + MAC_SLOTS));
        let mut v = [0u64; LANES];
        v[..MAC_SLOTS].copy_from_slice(&lo);
        v[MAC_SLOTS..].copy_from_slice(&hi);
        load(&v)
    }

    /// The constants that fold a lane's `(lo, hi)` sums, worth
    /// `lo + hi·2^52`, into a canonical residue.
    #[derive(Clone, Copy)]
    struct Fold {
        l: Lanes,
        /// `1` with quotient `⌊2^52/q⌋`: reduces the low 52 bits.
        one: Tw,
        /// `2^52 mod q` with its quotient: reduces the high part.
        two52: Tw,
    }

    impl Fold {
        #[inline]
        #[target_feature(enable = "avx512f")]
        fn new(m: &Modulus) -> Fold {
            let q = m.value();
            let two52 = (1u64 << 52) % q;
            Fold {
                l: Lanes::new(q),
                one: Tw { w: splat(1), wq: splat((1 << 52) / q) },
                two52: Tw::splat(m.shoup(two52)),
            }
        }

        /// `(lo + hi·2^52) mod q`, canonical, given `hi + ⌊lo/2^52⌋ < 2^52`.
        #[inline]
        #[target_feature(enable = "avx512f,avx512ifma")]
        fn reduce(&self, lo: __m512i, hi: __m512i) -> __m512i {
            let l = &self.l;
            let high = _mm512_add_epi64(hi, _mm512_srli_epi64::<52>(lo));
            let low = _mm512_and_si512(lo, l.mask);
            let r = _mm512_add_epi64(mul_shoup(low, self.one, l), mul_shoup(high, self.two52, l));
            csub(csub(r, l.two_q), l.q)
        }
    }

    /// The MAC, block-outer: per chunk of at most [`PASS_ROWS`] rows (a
    /// multiple of `fold`), every 8-slot block carries its value through
    /// the chunk's fold groups in a register — per group, its products'
    /// low and high halves summed in two lanes of 64 bits
    /// (`vpmadd52luq` / `vpmadd52huq`) and folded once — so `out` is
    /// loaded and stored once per chunk and every row stream is read at
    /// once. Per block the groups come in row order, as one pass per group
    /// would take them. The slots past the last block take the scalar
    /// tail, group by group.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) fn lazy_mac<'r>(
        m: &Modulus,
        fold: usize,
        terms: usize,
        row: impl Fn(usize) -> (&'r [u64], &'r [u64]),
        a: impl MacRead,
        b: impl MacRead,
        out: &mut [u64],
    ) {
        let (blocks, tail) = out.as_chunks_mut::<LANES>();
        let k = (!blocks.is_empty()).then(|| Fold::new(m));
        let mut rows: [(&[u64], &[u64]); PASS_ROWS] = [(&[], &[]); PASS_ROWS];
        let chunk = PASS_ROWS / fold * fold;
        for first in (0..terms).step_by(chunk) {
            let rows = &mut rows[..(terms - first).min(chunk)];
            for (i, r) in rows.iter_mut().enumerate() {
                *r = row(first + i);
            }
            if let Some(k) = &k {
                for (i, block) in blocks.iter_mut().enumerate() {
                    let s = i * LANES;
                    let mut v = load(block);
                    for group in rows.chunks(fold) {
                        let (mut lo, mut hi) = (v, _mm512_setzero_si512());
                        for &(x, y) in group {
                            let (x, y) = (read(a, x, s), read(b, y, s));
                            lo = _mm512_madd52lo_epu64(lo, x, y);
                            hi = _mm512_madd52hi_epu64(hi, x, y);
                        }
                        v = k.reduce(lo, hi);
                    }
                    store(block, v);
                }
            }
            for group in rows.chunks(fold) {
                crate::rns::mac_tail(m, group, a, b, tail, blocks.len() * LANES);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    //! The IFMA kernels against the scalar ones they stand in for, called
    //! directly (nothing public selects a path). On a host without IFMA
    //! every test prints that it checked nothing and passes.

    use super::*;
    use crate::{
        generate_ntt_primes, MacBroadcast, MacGather, MacReversed, MacSlots, NttTable, RnsBasis,
        RnsContext,
    };

    fn lanes_or_skip(test: &str) -> Option<Ifma> {
        let lanes = Ifma::detect();
        if lanes.is_none() {
            println!("{test}: host lacks avx512f + avx512ifma; the IFMA kernels were not run");
        }
        lanes
    }

    /// SplitMix64 over `state`, below `bound`.
    fn draw(state: &mut u64, bound: u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (*state ^ (*state >> 31)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        (z ^ (z >> 29)) % bound
    }

    /// The largest NTT primes below `2^51` and `2^50` (for degree `2^16`)
    /// and a 36-bit one — the top of the lanes' range, the top of the
    /// range without the extra subtraction, and `ckks_mlp`'s narrowest
    /// prime.
    fn primes() -> [Modulus; 3] {
        let wide = generate_ntt_primes(51, 1 << 16, 1).expect("51-bit NTT prime")[0];
        let top = generate_ntt_primes(50, 1 << 16, 1).expect("50-bit NTT prime")[0];
        let narrow = generate_ntt_primes(36, 1 << 16, 1).expect("36-bit NTT prime")[0];
        assert_eq!((64 - wide.leading_zeros(), 64 - top.leading_zeros()), (51, 50));
        [wide, top, narrow].map(|p| Modulus::new(p).expect("prime modulus"))
    }

    #[test]
    fn ifma_ntt_matches_the_scalar_kernels() {
        let Some(lanes) = lanes_or_skip("ifma_ntt_matches_the_scalar_kernels") else { return };
        let mut state = 7u64;
        for m in primes() {
            let q = m.value();
            for n in [16usize, 64, 1024, 4096, 1 << 16] {
                let table = NttTable::new(m, n).expect("NTT table");
                let ntt = table.lanes().expect("every test prime takes the lanes");
                assert_eq!(Some(ntt), lanes.ntt(q));
                assert_eq!(ntt.wide, q >= 1 << 50, "q = {q}");
                let inputs: [Vec<u64>; 4] = [
                    vec![0; n],
                    vec![q - 1; n],
                    vec![2 * q - 1; n],
                    (0..n).map(|_| draw(&mut state, 2 * q)).collect(),
                ];
                for input in &inputs {
                    for lazy in [false, true] {
                        let case =
                            format!("q = {q}, n = {n}, lazy = {lazy}, input[0] = {}", input[0]);
                        let (mut want, mut got) = (input.clone(), input.clone());
                        table.forward_scalar(&mut want, lazy);
                        ntt.forward(&mut got, table.psi_rev(), q, lazy);
                        check(&m, &got, &want, lazy, &case);
                        let (mut want, mut got) = (input.clone(), input.clone());
                        table.inverse_scalar(&mut want, lazy);
                        let folded = [table.n_inv(), table.inv_last()];
                        ntt.inverse(&mut got, table.psi_inv_rev(), folded, q, lazy);
                        check(&m, &got, &want, lazy, &case);
                    }
                }
                // The public entry points take the lanes and agree too.
                let x = &inputs[3];
                let mut canon = x.clone();
                table.forward_scalar(&mut canon, false);
                let mut public = x.clone();
                table.forward(&mut public);
                assert_eq!(public, canon);
                table.inverse(&mut public);
                let mut back = canon.clone();
                table.inverse_scalar(&mut back, false);
                assert_eq!(public, back);
            }
        }
    }

    /// Canonical outputs equal bit for bit; lazy ones are congruent and in
    /// `[0, 2q)`.
    fn check(m: &Modulus, got: &[u64], want: &[u64], lazy: bool, case: &str) {
        let q = m.value();
        if lazy {
            assert!(got.iter().all(|&x| x < 2 * q), "lazy output past 2q: {case}");
            let reduce = |v: &[u64]| v.iter().map(|&x| x % q).collect::<Vec<_>>();
            assert_eq!(reduce(got), reduce(want), "{case}");
        } else {
            assert_eq!(got, want, "{case}");
        }
    }

    /// Every reader pair over `rows`, on the lanes and on the scalar
    /// kernel, from the same carried-in `start`.
    fn mac_both(
        lanes: Ifma,
        m: &Modulus,
        rows: &[[Vec<u64>; 2]],
        perm: &[u32],
        start: &[u64],
        case: &str,
    ) {
        let end = start.len();
        let row = |r: usize| (rows[r][0].as_slice(), rows[r][1].as_slice());
        let bound = 2 * m.value();
        macro_rules! pair {
            ($a:expr, $b:expr) => {{
                let (mut want, mut got) = (start.to_vec(), start.to_vec());
                crate::rns::scalar_mac(m, rows.len(), row, $a, $b, &mut want);
                let mac = lanes.mac(m.value(), bound).expect("the MAC fits");
                mac.lazy_mac(m, rows.len(), row, $a, $b, &mut got);
                assert_eq!(got, want, "{} × {}: {case}", stringify!($a), stringify!($b));
            }};
        }
        macro_rules! with_b {
            ($a:expr) => {{
                pair!($a, MacSlots);
                pair!($a, MacGather(perm));
                pair!($a, MacReversed(end));
                pair!($a, MacBroadcast);
            }};
        }
        with_b!(MacSlots);
        with_b!(MacGather(perm));
        with_b!(MacReversed(end));
        with_b!(MacBroadcast);
    }

    #[test]
    fn ifma_lazy_mac_matches_the_scalar_kernel() {
        let Some(lanes) = lanes_or_skip("ifma_lazy_mac_matches_the_scalar_kernel") else { return };
        let mut state = 11u64;
        for m in primes() {
            let q = m.value();
            for len in [3usize, 8, 13, 16, 29, 64, 70] {
                let mut perm: Vec<u32> = (0..len as u32).collect();
                for i in (1..len).rev() {
                    perm.swap(i, draw(&mut state, i as u64 + 1) as usize);
                }
                for terms in [1usize, 2, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33, 40] {
                    for maximal in [false, true] {
                        let mut operand = |bound: u64| -> Vec<u64> {
                            let top = bound - 1;
                            (0..len)
                                .map(|_| if maximal { top } else { draw(&mut state, bound) })
                                .collect()
                        };
                        let rows: Vec<[Vec<u64>; 2]> =
                            (0..terms).map(|_| [operand(2 * q), operand(q)]).collect();
                        let start = operand(q);
                        let case = format!("q = {q}, {len} slots, {terms} rows, max {maximal}");
                        mac_both(lanes, &m, &rows, &perm, &start, &case);
                    }
                }
            }
        }
    }

    /// At the 51-bit prime with `a < 2q` a fold covers two rows, so 32 rows
    /// are one chunk of sixteen fold groups and 33 add a chunk of one row:
    /// each block's value crosses every group and the chunk edge.
    #[test]
    fn ifma_lazy_mac_carries_the_block_value_across_groups_and_chunks() {
        let test = "ifma_lazy_mac_carries_the_block_value_across_groups_and_chunks";
        let Some(lanes) = lanes_or_skip(test) else { return };
        let m = primes()[0];
        let q = m.value();
        assert_eq!(lanes.mac(q, 2 * q).map(|mac| mac.fold), Some(2));
        let mut state = 13u64;
        for terms in [32usize, 33] {
            for len in [8usize, 21] {
                let perm: Vec<u32> = (0..len as u32).rev().collect();
                let rows: Vec<[Vec<u64>; 2]> = (0..terms)
                    .map(|_| [2 * q, q].map(|b| (0..len).map(|_| draw(&mut state, b)).collect()))
                    .collect();
                let start: Vec<u64> = (0..len).map(|_| draw(&mut state, q)).collect();
                let case = format!("{terms} rows, {len} slots");
                mac_both(lanes, &m, &rows, &perm, &start, &case);
            }
        }
    }

    /// A fold covers as many rows as keep the high sum below `2^52` and no
    /// more: at the top 51-bit prime that is two maximal rows, at the top
    /// 50-bit one seven or eight, where a fixed 32-row fold returns wrong
    /// residues.
    #[test]
    fn ifma_fold_rows_keep_the_high_sum_below_2_52() {
        let [wide, top, narrow] = primes().map(|m| m.value());
        assert_eq!(fold_rows(wide, 2 * wide), 2);
        assert!((7..=8).contains(&fold_rows(top, 2 * top)));
        assert_eq!(fold_rows(narrow, 2 * narrow), PASS_ROWS);
        let shapes = [
            (wide, 2 * wide),
            (wide, LANE_LIMIT),
            (top, 2 * top),
            (top, LANE_LIMIT),
            (narrow, 2 * narrow),
        ];
        for (q, bound) in shapes {
            let rows = fold_rows(q, bound) as u128;
            let high = (u128::from(bound - 1) * u128::from(q - 1)) >> 52;
            assert!(rows * (high + 1) < 1 << 52, "q = {q}, a < {bound}");
            assert!(rows == PASS_ROWS as u128 || (rows + 1) * (high + 1) >= 1 << 52);
        }
    }

    #[test]
    fn ifma_takes_no_modulus_of_2_51_and_above() {
        println!("simd::active_backend() = {}", crate::simd::active_backend().name());
        let prime = |bits| {
            let q = generate_ntt_primes(bits, 1 << 10, 1).expect("NTT prime")[0];
            Modulus::new(q).expect("prime modulus")
        };
        let (edge, wide) = (prime(52), prime(60));
        for m in [edge, wide] {
            assert!(!Ifma::fits(m.value()));
            assert_eq!(NttTable::new(m, 1 << 10).expect("NTT table").lanes(), None);
        }
        // The largest 51-bit prime fits, with the extra subtraction; the
        // largest below 2^50 without it.
        let [fits, top, _] = primes();
        for (m, extra_subtraction) in [(fits, true), (top, false)] {
            assert!(Ifma::fits(m.value()));
            let lanes = NttTable::new(m, 1 << 10).expect("NTT table").lanes();
            assert_eq!(lanes.map(|l| l.wide), Ifma::detect().map(|_| extra_subtraction));
        }
        assert!(!mac_fits(fits.value(), wide.value()));
        assert!(mac_fits(fits.value(), LANE_LIMIT));
        assert!(!mac_fits(edge.value(), 2));
    }

    /// The lanes' input check finds a word at the bound wherever it sits —
    /// every lane of every block, and the scalar tail — and nothing below.
    #[test]
    fn ifma_input_check_finds_every_position() {
        let Some(lanes) = lanes_or_skip("ifma_input_check_finds_every_position") else { return };
        let q = primes()[0].value();
        let ntt = lanes.ntt(q).expect("the 51-bit prime fits");
        for len in [8usize, 19, 64] {
            let mut a = vec![2 * q - 1; len];
            assert!(!ntt.any_at_least(&a, 2 * q), "{len} words");
            for i in 0..len {
                a[i] = 2 * q;
                assert!(ntt.any_at_least(&a, 2 * q), "word {i} of {len}");
                a[i] = u64::MAX;
                assert!(ntt.any_at_least(&a, 2 * q), "word {i} of {len}");
                a[i] = 2 * q - 1;
            }
        }
    }

    /// A Bconv plan takes the lanes only when every source residue is below
    /// `2^52` and every destination modulus below `2^51`; either way it
    /// equals the eager conversion `Σ_i [x_i·q̂_i^{-1}]_{q_i}·q̂_i mod p_j`.
    #[test]
    fn ifma_bconv_plans_decide_from_all_their_moduli() {
        let lanes = lanes_or_skip("ifma_bconv_plans_decide_from_all_their_moduli");
        let n = 64;
        let moduli: Vec<Modulus> = [(46, 3), (50, 1), (51, 1), (52, 1), (60, 1)]
            .into_iter()
            .flat_map(|(bits, count)| generate_ntt_primes(bits, n, count).expect("NTT primes"))
            .map(|q| Modulus::new(q).expect("prime modulus"))
            .collect();
        let ctx = RnsContext::new(n, RnsBasis::new(moduli.clone()).expect("basis")).expect("ctx");
        let mut state = 5u64;
        // Channels 0–2 are 46-bit, 3 is 50-bit, 4 51-bit, 5 52-bit, 6 60-bit.
        for (src, dst, vector) in [
            (vec![0usize, 1, 3], vec![2usize], true),
            (vec![0, 1], vec![3], true),
            (vec![0, 1], vec![4], true),
            (vec![0, 4, 5], vec![1], true),
            (vec![0, 1], vec![5], false),
            (vec![0, 6], vec![1], false),
            (vec![0, 1], vec![6], false),
        ] {
            let plan = ctx.bconv(&src, &dst).expect("plan");
            assert_eq!(plan.lanes().is_some(), lanes.is_some() && vector, "{src:?} → {dst:?}");
            let channels: Vec<Vec<u64>> = src
                .iter()
                .map(|&i| (0..n).map(|_| draw(&mut state, moduli[i].value())).collect())
                .collect();
            let refs: Vec<&[u64]> = channels.iter().map(Vec::as_slice).collect();
            let got = plan.apply(&refs);
            for (j, p) in plan.dst_moduli().iter().enumerate() {
                for s in 0..n {
                    let mut want = 0;
                    for (i, q) in plan.src_moduli().iter().enumerate() {
                        let y = q.mul_shoup(channels[i][s], plan.qhat_inv()[i]);
                        want = p.add(want, p.mul(p.reduce(y), plan.qhat_dst()[j][i]));
                    }
                    assert_eq!(got[j][s], want, "{src:?} → {dst:?}, slot {s}");
                }
            }
        }
    }
}
