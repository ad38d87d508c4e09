//! Property tests pinning the Harvey lazy-reduction value-range contract
//! at the modulus width limit.
//!
//! Two moduli matter at the boundary:
//!
//! * `q = 2^61 - 1` (Mersenne, exactly `MAX_MODULUS_BITS` wide, *not*
//!   NTT-friendly) — exercises the scalar lazy primitives where the
//!   `[0, 2q)` / `[0, 4q)` headroom above 61 bits is tightest;
//! * the largest 61-bit NTT-friendly prime — exercises the full lazy
//!   transforms (`forward_lazy` / `inverse_lazy`) with worst-case
//!   coefficients, and the block-level invariant: a radix-8 (radix-4)
//!   block chains three (two) butterfly stages on values held in locals,
//!   and the range that holds across one stage must hold at every stage
//!   inside the block with no reduction in between.

use fhe_math::{generate_ntt_primes, Modulus, NttTable};
use proptest::prelude::*;

/// 2^61 - 1: prime, exactly at the width limit.
const Q61: u64 = (1u64 << 61) - 1;

/// The largest 61-bit prime `≡ 1 (mod 2·4096)`.
fn ntt_q61() -> u64 {
    static Q: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *Q.get_or_init(|| generate_ntt_primes(61, 1 << 12, 1).expect("61-bit NTT prime")[0])
}

/// One forward block on `x.len()` (8 or 4) lazy values, the way
/// `fhe_math::ntt` chains its butterflies: `log2 len` Cooley–Tukey stages,
/// stage `s` pairing values `len / 2^(s+1)` apart under twiddle
/// `w[2^s − 1 + group]`, nothing reduced between stages. Checks the
/// `[0, 4q)` range and the residues after every stage.
fn forward_block_stays_below_4q(q: &Modulus, x: &mut [u64], w: &[u64]) {
    let (len, four_q) = (x.len(), 4 * q.value());
    let mut exact: Vec<u64> = x.iter().map(|&v| q.reduce(v)).collect();
    let (mut gap, mut groups) = (len, 1usize);
    while groups < len {
        gap /= 2;
        for g in 0..groups {
            let (wg, s) = (w[groups - 1 + g], q.shoup(w[groups - 1 + g]));
            for j in 2 * g * gap..2 * g * gap + gap {
                let u = if x[j] >= four_q / 2 { x[j] - four_q / 2 } else { x[j] };
                let v = q.mul_shoup_lazy(x[j + gap], s);
                (x[j], x[j + gap]) = (u + v, u + four_q / 2 - v);
                let ev = q.mul(exact[j + gap], wg);
                (exact[j], exact[j + gap]) = (q.add(exact[j], ev), q.sub(exact[j], ev));
            }
        }
        assert!(x.iter().all(|&v| v < four_q), "stage with {groups} group(s) breached 4q: {x:?}");
        assert_eq!(x.iter().map(|&v| q.reduce(v)).collect::<Vec<_>>(), exact);
        groups *= 2;
    }
}

/// The inverse mirror: Gentleman–Sande stages from gap 1 up, stage with
/// `g` groups under twiddle `w[g − 1 + group]`, values in `[0, 2q)` at
/// every stage.
fn inverse_block_stays_below_2q(q: &Modulus, x: &mut [u64], w: &[u64]) {
    let (len, two_q) = (x.len(), 2 * q.value());
    let mut exact: Vec<u64> = x.iter().map(|&v| q.reduce(v)).collect();
    let (mut gap, mut groups) = (1usize, len / 2);
    while groups >= 1 {
        for g in 0..groups {
            let (wg, s) = (w[groups - 1 + g], q.shoup(w[groups - 1 + g]));
            for j in 2 * g * gap..2 * g * gap + gap {
                let (u, v) = (x[j], x[j + gap]);
                let t0 = if u + v >= two_q { u + v - two_q } else { u + v };
                (x[j], x[j + gap]) = (t0, q.mul_shoup_lazy(u + two_q - v, s));
                let (eu, ev) = (exact[j], exact[j + gap]);
                (exact[j], exact[j + gap]) = (q.add(eu, ev), q.mul(q.sub(eu, ev), wg));
            }
        }
        assert!(x.iter().all(|&v| v < two_q), "stage with {groups} group(s) breached 2q: {x:?}");
        assert_eq!(x.iter().map(|&v| q.reduce(v)).collect::<Vec<_>>(), exact);
        gap *= 2;
        groups /= 2;
    }
}

proptest! {
    /// `mul_shoup_lazy` emits `[0, 2q)` for ANY u64 multiplicand (the
    /// butterfly feeds it unreduced lazy values) and the residue is exact.
    #[test]
    fn shoup_lazy_output_below_2q_for_any_input(a in any::<u64>(), w in 0..Q61) {
        let q = Modulus::new(Q61).unwrap();
        let s = q.shoup(w);
        let r = q.mul_shoup_lazy(a, s);
        prop_assert!(r < 2 * Q61, "mul_shoup_lazy({a}, {w}) = {r} >= 2q");
        prop_assert_eq!(q.reduce_2q(r), q.mul(q.reduce(a), w));
    }

    /// The forward Cooley–Tukey lazy butterfly algebra: a `[0, 4q)` input
    /// conditionally subtracts `2q`, the twiddle product lands in
    /// `[0, 2q)`, and both outputs stay `< 4q` — the per-layer invariant
    /// the transform relies on at every stage (paper Table 2 headroom).
    #[test]
    fn forward_butterfly_stays_below_4q(
        u in 0..4 * Q61,
        x in any::<u64>(),
        w in 1..Q61,
    ) {
        let q = Modulus::new(Q61).unwrap();
        let s = q.shoup(w);
        let u1 = if u >= 2 * Q61 { u - 2 * Q61 } else { u };
        let v = q.mul_shoup_lazy(x, s);
        let (t0, t1) = (u1 + v, u1 + 2 * Q61 - v);
        prop_assert!(t0 < 4 * Q61 && t1 < 4 * Q61);
        // Residues: t0 ≡ u + x·w, t1 ≡ u − x·w (mod q).
        let (ur, xw) = (q.reduce(u), q.mul(q.reduce(x), w));
        prop_assert_eq!(q.reduce(t0), q.add(ur, xw));
        prop_assert_eq!(q.reduce(t1), q.sub(ur, xw));
    }

    /// The inverse Gentleman–Sande lazy butterfly: `[0, 2q)` inputs give
    /// `[0, 2q)` outputs (sum cond-subtracts `2q`, difference goes through
    /// the lazy Shoup product).
    #[test]
    fn inverse_butterfly_stays_below_2q(
        u in 0..2 * Q61,
        v in 0..2 * Q61,
        w in 1..Q61,
    ) {
        let q = Modulus::new(Q61).unwrap();
        let s = q.shoup(w);
        let mut t0 = u + v;
        if t0 >= 2 * Q61 {
            t0 -= 2 * Q61;
        }
        let t1 = q.mul_shoup_lazy(u + 2 * Q61 - v, s);
        prop_assert!(t0 < 2 * Q61 && t1 < 2 * Q61);
        let (ur, vr) = (q.reduce(u), q.reduce(v));
        prop_assert_eq!(q.reduce_2q(t0), q.add(ur, vr));
        prop_assert_eq!(q.reduce_2q(t1), q.mul(q.sub(ur, vr), w));
    }

    /// Eight (and four) arbitrary `[0, 4q)` values through one forward
    /// block with arbitrary twiddles, at the widest NTT prime: `< 4q` and
    /// exact residues after each of the three (two) internal stages.
    #[test]
    fn forward_blocks_stay_below_4q_at_every_internal_stage(
        x in prop::collection::vec(0..4 * ntt_q61(), 8),
        w in prop::collection::vec(1..ntt_q61(), 7),
    ) {
        let q = Modulus::new(ntt_q61()).unwrap();
        forward_block_stays_below_4q(&q, &mut x.clone(), &w);
        forward_block_stays_below_4q(&q, &mut x[..4].to_vec(), &w[..3]);
    }

    /// The inverse mirror at `[0, 2q)`.
    #[test]
    fn inverse_blocks_stay_below_2q_at_every_internal_stage(
        x in prop::collection::vec(0..2 * ntt_q61(), 8),
        w in prop::collection::vec(1..ntt_q61(), 7),
    ) {
        let q = Modulus::new(ntt_q61()).unwrap();
        inverse_block_stays_below_2q(&q, &mut x.clone(), &w);
        inverse_block_stays_below_2q(&q, &mut x[..4].to_vec(), &w[..3]);
    }

    /// `reduce_2q` canonicalizes the whole lazy range with one conditional
    /// subtraction.
    #[test]
    fn reduce_2q_canonicalizes(a in 0..2 * Q61) {
        let q = Modulus::new(Q61).unwrap();
        let r = q.reduce_2q(a);
        prop_assert!(r < Q61);
        prop_assert_eq!(r, q.reduce(a));
    }
}

/// Full lazy transforms at the largest NTT-friendly primes the width limit
/// admits, with worst-case coefficients: every lazy intermediate the API
/// exposes stays `< 2q`, and canonical entry points stay `< q`.
#[test]
fn lazy_ntt_ranges_at_width_limit() {
    for n in [256usize, 2048] {
        let q = Modulus::new(generate_ntt_primes(61, n, 1).expect("61-bit NTT prime")[0]).unwrap();
        assert_eq!(q.bits(), 61);
        let t = NttTable::new(q, n).unwrap();
        let two_q = 2 * q.value();

        // Worst case: every input at the lazy ceiling 2q-1 (the forward
        // transform accepts the full [0, 2q) range).
        let mut a = vec![two_q - 1; n];
        t.forward_lazy(&mut a);
        assert!(a.iter().all(|&x| x < two_q), "forward_lazy breached 2q at n={n}");

        let mut b = a.clone();
        t.inverse_lazy(&mut b);
        assert!(b.iter().all(|&x| x < two_q), "inverse_lazy breached 2q at n={n}");

        // Canonical entry points normalize fully, from the same lazy input.
        let mut c = vec![two_q - 1; n];
        t.forward(&mut c);
        assert!(c.iter().all(|&x| x < q.value()), "forward not canonical at n={n}");
        t.inverse(&mut c);
        assert!(c.iter().all(|&x| x < q.value()), "inverse not canonical at n={n}");

        // And the lazy/canonical pair agree residue-wise.
        let mut d = vec![two_q - 1; n];
        t.forward(&mut d);
        let a_canon: Vec<u64> = a.iter().map(|&x| q.reduce_2q(x)).collect();
        assert_eq!(a_canon, d, "forward_lazy disagrees with forward mod q at n={n}");
    }
}
