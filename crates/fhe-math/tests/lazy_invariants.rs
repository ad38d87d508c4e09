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
//!   inside the block with no reduction in between;
//!
//! and the one multiply-accumulate kernel, [`lazy_mac`], is held to an
//! eager sum at that prime with operands at the top of its contract.

use fhe_math::{
    generate_ntt_primes, lazy_mac, MacBroadcast, MacGather, MacRead, MacReversed, MacSlots,
    Modulus, NttTable, MAC_SLOTS,
};
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

/// A [`lazy_mac`] operand reader, named so a test can loop over all four.
#[derive(Debug, Clone, Copy)]
enum Reader {
    Slots,
    Gather,
    Reversed,
    Broadcast,
}

const READERS: [Reader; 4] = [Reader::Slots, Reader::Gather, Reader::Reversed, Reader::Broadcast];

impl Reader {
    /// The index the reader takes at slot `s` of an operand as long as the
    /// output, `perm` the gather.
    fn index(self, perm: &[u32], len: usize, s: usize) -> usize {
        match self {
            Reader::Slots => s,
            Reader::Gather => perm[s] as usize,
            Reader::Reversed => len - 1 - s,
            Reader::Broadcast => 0,
        }
    }
}

/// [`lazy_mac`] over `rows`, `a` read as `ra` says and `b` as `rb`.
fn mac(q: &Modulus, rows: &[[Vec<u64>; 2]], [ra, rb]: [Reader; 2], perm: &[u32], out: &mut [u64]) {
    fn with_a(
        q: &Modulus,
        rows: &[[Vec<u64>; 2]],
        a: impl MacRead,
        rb: Reader,
        perm: &[u32],
        out: &mut [u64],
    ) {
        let row = |r: usize| (rows[r][0].as_slice(), rows[r][1].as_slice());
        let end = out.len();
        match rb {
            Reader::Slots => lazy_mac(q, rows.len(), row, a, MacSlots, out),
            Reader::Gather => lazy_mac(q, rows.len(), row, a, MacGather(perm), out),
            Reader::Reversed => lazy_mac(q, rows.len(), row, a, MacReversed(end), out),
            Reader::Broadcast => lazy_mac(q, rows.len(), row, a, MacBroadcast, out),
        }
    }
    match ra {
        Reader::Slots => with_a(q, rows, MacSlots, rb, perm, out),
        Reader::Gather => with_a(q, rows, MacGather(perm), rb, perm, out),
        Reader::Reversed => with_a(q, rows, MacReversed(out.len()), rb, perm, out),
        Reader::Broadcast => with_a(q, rows, MacBroadcast, rb, perm, out),
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

    /// [`lazy_mac`] equals an eager `q.add(q.mul(..))` sum at the largest
    /// 61-bit NTT prime, for every pair of readers, at row counts on both
    /// sides of its 8-row pass and slot counts with a tail past the
    /// [`MAC_SLOTS`] blocks — once on random operands, once with every `a`
    /// at the lazy maximum `2q − 1` and every `b` and carried-in `out` at
    /// `q − 1`.
    #[test]
    fn lazy_mac_equals_the_eager_sum(
        seed in any::<u64>(),
        blocks in 0usize..4,
        tail in 1usize..MAC_SLOTS,
    ) {
        let q = Modulus::new(ntt_q61()).unwrap();
        let len = blocks * MAC_SLOTS + tail;
        let mut state = seed;
        let mut draw = |bound: u64| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ (state >> 31)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            (z ^ (z >> 29)) % bound
        };
        let mut perm: Vec<u32> = (0..len as u32).collect();
        for i in (1..len).rev() {
            perm.swap(i, draw(i as u64 + 1) as usize);
        }
        let (two_q, q1) = (2 * q.value(), q.value() - 1);
        for terms in [1, 7, 8, 9, 16, 17] {
            for maximal in [false, true] {
                let mut operand = |bound: u64, top: u64| -> Vec<u64> {
                    (0..len).map(|_| if maximal { top } else { draw(bound) }).collect()
                };
                let rows: Vec<[Vec<u64>; 2]> = (0..terms)
                    .map(|_| [operand(two_q, two_q - 1), operand(q.value(), q1)])
                    .collect();
                let start = operand(q.value(), q1);
                for ra in READERS {
                    for rb in READERS {
                        let mut want = start.clone();
                        for (s, w) in want.iter_mut().enumerate() {
                            for [x, y] in &rows {
                                let x = q.reduce(x[ra.index(&perm, len, s)]);
                                *w = q.add(*w, q.mul(x, y[rb.index(&perm, len, s)]));
                            }
                        }
                        let mut got = start.clone();
                        mac(&q, &rows, [ra, rb], &perm, &mut got);
                        let case = format!("{terms} rows, {len} slots, {ra:?} × {rb:?}");
                        prop_assert_eq!(&got, &want, "{}", case);
                    }
                }
            }
        }
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
