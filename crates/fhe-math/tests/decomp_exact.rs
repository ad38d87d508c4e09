//! The gadget decomposition, digit for digit, against a test-local oracle.
//!
//! The oracle is the per-value rule the decomposer shipped with until
//! PR 25 — most-significant-first output, least-significant-first carry,
//! each digit's sign settled by `if raw >= half` — written here once and
//! never shared with the library. Every shape `1 ≤ β ≤ 32, β·l ≤ 64` is
//! checked through all four entry points on random polynomials, the
//! extreme words, each rounding boundary and the all-extreme digit value,
//! so a rewrite of the shared digit rule cannot pass by agreeing with
//! itself (the `flat_poly_decomposition_matches_per_coefficient` proptest
//! compares the entry points only with each other).

use fhe_math::{generate_ntt_primes, Modulus, SignedDigitDecomposer};

/// Digits of `t`, most significant first: the branching rule, verbatim.
fn oracle(t: u64, base_log: u32, levels: usize) -> Vec<i64> {
    let (w, l) = (base_log, levels);
    let total = w * l as u32;
    let t_hat = if total == 64 {
        t
    } else {
        let shift = 64 - total;
        (t.wrapping_add(1u64 << (shift - 1))) >> shift
    };
    let base = 1u64 << w;
    let half = base >> 1;
    let mask = base - 1;
    let mut out = vec![0i64; l];
    let mut carry = 0u64;
    for j in (0..l).rev() {
        let raw = ((t_hat >> ((l - 1 - j) as u32 * w)) & mask) + carry;
        if raw >= half {
            out[j] = raw as i64 - base as i64;
            carry = 1;
        } else {
            out[j] = raw as i64;
            carry = 0;
        }
    }
    out
}

/// Every `(β, l)` with `1 ≤ β ≤ 32` and `β·l ≤ 64`.
fn shapes() -> impl Iterator<Item = (u32, usize)> {
    (1..=32u32).flat_map(|b| (1..=64 / b as usize).map(move |l| (b, l)))
}

/// SplitMix64: a dependency-free stream of uniform words.
fn words(seed: u64) -> impl Iterator<Item = u64> {
    let mut s = seed;
    std::iter::repeat_with(move || {
        s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    })
}

/// The adversarial words for one shape: the extremes, the rounding
/// boundary `2^{63−β·l}` and its neighbours, and the values whose every
/// digit is the extreme `−2^{β−1}` or `2^{β−1} − 1`.
fn edge_words(d: &SignedDigitDecomposer) -> Vec<u64> {
    let (w, l) = (d.base_log(), d.levels());
    let total = w * l as u32;
    let mut out = vec![0, 1, u64::MAX, 1 << 63, (1 << 63) - 1];
    if total < 64 {
        let boundary = 1u64 << (63 - total);
        out.extend([boundary - 1, boundary, boundary + 1]);
        // The same boundary one unit of the lowest digit further up.
        let step = boundary << 1;
        out.extend([step + boundary - 1, step + boundary, step + boundary + 1]);
    }
    let low = -(1i64 << (w - 1));
    out.push(d.recompose(&vec![low; l]));
    out.push(d.recompose(&vec![-low - 1; l]));
    out
}

/// Checks one polynomial through all four entry points against the oracle,
/// and every coefficient's recomposition error against the bound.
fn check(d: &SignedDigitDecomposer, poly: &[u64]) {
    let (w, l, n) = (d.base_log(), d.levels(), poly.len());
    let mut flat = vec![i64::MIN; l * n];
    d.decompose_poly_into(poly, &mut flat);
    let by_level = d.decompose_poly(poly);
    let mut into = vec![i64::MIN; l];
    for (i, &t) in poly.iter().enumerate() {
        let want = oracle(t, w, l);
        assert_eq!(d.decompose(t), want, "decompose, β = {w}, l = {l}, t = {t:#x}");
        d.decompose_into(t, &mut into);
        assert_eq!(into, want, "decompose_into, β = {w}, l = {l}, t = {t:#x}");
        for (j, &digit) in want.iter().enumerate() {
            let at = format!("β = {w}, l = {l}, t = {t:#x}, coefficient {i}, level {j}");
            assert_eq!(flat[j * n + i], digit, "decompose_poly_into, {at}");
            assert_eq!(by_level[j][i], digit, "decompose_poly, {at}");
        }
        let approx = d.recompose(&want);
        let err = t.wrapping_sub(approx).min(approx.wrapping_sub(t));
        assert!(err <= d.max_error(), "β = {w}, l = {l}, t = {t:#x}: error {err}");
    }
}

#[test]
fn every_shape_matches_the_branching_oracle() {
    let mut rng = words(0xdec0_0e8a);
    let mut count = 0;
    for (w, l) in shapes() {
        let d = SignedDigitDecomposer::new(w, l).unwrap();
        for n in [1, 7, 64] {
            check(&d, &rng.by_ref().take(n).collect::<Vec<_>>());
        }
        check(&d, &edge_words(&d));
        count += 1;
    }
    assert_eq!(count, 248, "every shape with β ≤ 32 and β·l ≤ 64");
}

#[test]
fn shipped_shapes_match_on_whole_rings() {
    // The three bootstrap gadgets and the three key-switch gadgets, on
    // polynomials of the sizes they decompose.
    for (w, l, n) in
        [(10, 3, 64), (7, 3, 1024), (23, 1, 2048), (4, 8, 64), (2, 8, 1024), (3, 5, 2048)]
    {
        let d = SignedDigitDecomposer::new(w, l).unwrap();
        check(&d, &words(u64::from(w) << 8 | l as u64).take(n).collect::<Vec<_>>());
    }
}

/// The fused front end: `decompose_lift_into` lifts the oracle's digits,
/// residue for residue, at a 51-bit and a 36-bit prime — every shape's
/// random polynomials and edge words, plus the torus values at which each
/// digit's sign flips (`2^{63−jβ}` for digit `j`) and their rounding
/// neighbours.
#[test]
fn every_shape_lifts_the_branching_oracles_digits() {
    let primes = [51, 36]
        .map(|bits| Modulus::new(generate_ntt_primes(bits, 1 << 10, 1).unwrap()[0]).unwrap());
    let mut rng = words(0x11f7_0e8a);
    for (w, l) in shapes() {
        let d = SignedDigitDecomposer::new(w, l).unwrap();
        let mut polys: Vec<Vec<u64>> = [1, 7, 64].map(|n| rng.by_ref().take(n).collect()).into();
        let total = w * l as u32;
        let half_ulp = if total < 64 { 1u64 << (63 - total) } else { 0 };
        let flips = (0..l as u32).map(|j| 1u64 << (63 - j * w));
        polys.push(edge_words(&d));
        polys.push(flips.flat_map(|t| [t - 1, t, t - half_ulp, t - half_ulp - 1]).collect());
        for q in &primes {
            for poly in &polys {
                let n = poly.len();
                let mut got = vec![u64::MAX; l * n];
                d.decompose_lift_into(poly, q, &mut got);
                for (i, &t) in poly.iter().enumerate() {
                    for (j, digit) in oracle(t, w, l).into_iter().enumerate() {
                        let want = digit.rem_euclid(q.value() as i64) as u64;
                        let at =
                            format!("β = {w}, l = {l}, q = {}, t = {t:#x}, level {j}", q.value());
                        assert_eq!(got[j * n + i], want, "{at}");
                    }
                }
            }
        }
    }
}
