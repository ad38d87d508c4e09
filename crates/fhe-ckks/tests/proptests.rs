//! Property-based tests of the CKKS scheme: encoding round trips,
//! homomorphism of the basic operators, and scale/level bookkeeping.

use std::sync::OnceLock;

use fhe_ckks::{
    Ciphertext, CkksContext, CkksParams, Complex64, Encoder, Evaluator, GaloisKeys, RelinKey,
    SecretKey, SwitchKey,
};
use fhe_math::{sample_uniform, Poly, RnsPoly};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn ctx() -> CkksContext {
    CkksContext::new(CkksParams::toy().unwrap()).unwrap()
}

/// `small` is too costly to rebuild per case.
fn small_ctx() -> &'static CkksContext {
    static CTX: OnceLock<CkksContext> = OnceLock::new();
    CTX.get_or_init(|| CkksContext::new(CkksParams::small().unwrap()).unwrap())
}

/// One-level rings for the transform tests, by ring degree.
fn ring(n: usize) -> &'static CkksContext {
    static RINGS: [OnceLock<CkksContext>; 3] = [OnceLock::new(), OnceLock::new(), OnceLock::new()];
    let slot = [16, 64, 4096].iter().position(|&r| r == n).expect("a ring the tests sweep");
    RINGS[slot].get_or_init(|| CkksContext::new(CkksParams::new(n, 1, 1, 30).unwrap()).unwrap())
}

fn complex(parts: &[(f64, f64)]) -> Vec<Complex64> {
    parts.iter().map(|&(re, im)| Complex64::new(re, im)).collect()
}

/// `decode` (special FFT over exact mixed-radix coefficients) against the
/// `O(N·slots)` direct evaluation, at every level of `c`.
fn assert_decode_matches_direct(c: &CkksContext, values: &[Complex64]) -> Result<(), String> {
    let enc = Encoder::new(c);
    for level in 0..c.q_len() {
        let pt = enc.encode_complex_at(values, level, c.params().scale()).unwrap();
        let fast = enc.decode_complex(&pt).unwrap();
        let direct = enc.decode_direct(&pt).unwrap();
        for (j, (f, d)) in fast.iter().zip(&direct).enumerate() {
            if (f.re - d.re).abs() > 1e-7 || (f.im - d.im).abs() > 1e-7 {
                return Err(format!("level {level} slot {j}: {f:?} vs {d:?}"));
            }
        }
    }
    Ok(())
}

/// The special inverse FFT against the direct encoder: every integer
/// coefficient within one unit (`f64` rounding at a `.5` boundary).
fn assert_encode_matches_direct(c: &CkksContext, values: &[Complex64]) -> Result<(), String> {
    let enc = Encoder::new(c);
    let (level, scale) = (c.q_len() - 1, c.params().scale());
    let mut fast = enc.encode_complex_at(values, level, scale).unwrap().poly().clone();
    let mut direct = enc.encode_direct_at(values, level, scale).unwrap().poly().clone();
    fast.to_coeff(c.level_tables(level)).unwrap();
    direct.to_coeff(c.level_tables(level)).unwrap();
    let m = c.rns().moduli()[0];
    for (i, (&a, &b)) in fast.channel(0).coeffs().iter().zip(direct.channel(0).coeffs()).enumerate()
    {
        let d = (m.to_centered(a) - m.to_centered(b)).abs();
        if d > 1 {
            return Err(format!("n={} coeff {i} differs by {d}", c.n()));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn encode_decode_round_trip(
        values in prop::collection::vec(-8.0f64..8.0, 1..32)
    ) {
        let c = ctx();
        let enc = Encoder::new(&c);
        let pt = enc.encode(&values).unwrap();
        let back = enc.decode(&pt).unwrap();
        for (i, &v) in values.iter().enumerate() {
            prop_assert!((back[i] - v).abs() < 1e-5, "slot {i}: {} vs {v}", back[i]);
        }
    }

    #[test]
    fn encryption_is_additively_homomorphic(
        xs in prop::collection::vec(-4.0f64..4.0, 4),
        ys in prop::collection::vec(-4.0f64..4.0, 4),
        seed in any::<u64>(),
    ) {
        let c = ctx();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let sk = SecretKey::generate(&c, &mut rng).unwrap();
        let enc = Encoder::new(&c);
        let ev = Evaluator::new(&c);
        let ca = sk.encrypt(&c, &enc.encode(&xs).unwrap(), &mut rng).unwrap();
        let cb = sk.encrypt(&c, &enc.encode(&ys).unwrap(), &mut rng).unwrap();
        let sum = enc.decode(&sk.decrypt(&ev.add(&ca, &cb).unwrap()).unwrap()).unwrap();
        for i in 0..4 {
            prop_assert!((sum[i] - (xs[i] + ys[i])).abs() < 2e-3);
        }
    }

    #[test]
    fn pmult_is_multiplicative(
        xs in prop::collection::vec(-2.0f64..2.0, 4),
        ys in prop::collection::vec(-2.0f64..2.0, 4),
        seed in any::<u64>(),
    ) {
        let c = ctx();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let sk = SecretKey::generate(&c, &mut rng).unwrap();
        let enc = Encoder::new(&c);
        let ev = Evaluator::new(&c);
        let ca = sk.encrypt(&c, &enc.encode(&xs).unwrap(), &mut rng).unwrap();
        let pt = enc.encode(&ys).unwrap();
        let prod = ev.rescale(&ev.mul_plain(&ca, &pt).unwrap()).unwrap();
        prop_assert_eq!(prod.level(), ca.level() - 1);
        let got = enc.decode(&sk.decrypt(&prod).unwrap()).unwrap();
        for i in 0..4 {
            prop_assert!((got[i] - xs[i] * ys[i]).abs() < 1e-2,
                "slot {}: {} vs {}", i, got[i], xs[i] * ys[i]);
        }
    }

    #[test]
    fn level_down_preserves_message(
        xs in prop::collection::vec(-4.0f64..4.0, 4),
        target in 0usize..3,
        seed in any::<u64>(),
    ) {
        let c = ctx();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let sk = SecretKey::generate(&c, &mut rng).unwrap();
        let enc = Encoder::new(&c);
        let ev = Evaluator::new(&c);
        let ct = sk.encrypt(&c, &enc.encode(&xs).unwrap(), &mut rng).unwrap();
        let low = ev.level_down(&ct, target).unwrap();
        prop_assert_eq!(low.level(), target);
        let got = enc.decode(&sk.decrypt(&low).unwrap()).unwrap();
        for i in 0..4 {
            prop_assert!((got[i] - xs[i]).abs() < 2e-3);
        }
    }

    #[test]
    fn decode_matches_direct_at_every_toy_level(
        values in prop::collection::vec((-8.0f64..8.0, -8.0f64..8.0), 1..33)
    ) {
        let checked = assert_decode_matches_direct(&ctx(), &complex(&values));
        prop_assert!(checked.is_ok(), "{:?}", checked);
    }

    #[test]
    fn special_fft_matches_direct_encoding_small_rings(
        full16 in prop::collection::vec((-4.0f64..4.0, -4.0f64..4.0), 8),
        part16 in prop::collection::vec((-4.0f64..4.0, -4.0f64..4.0), 1..8),
        full64 in prop::collection::vec((-4.0f64..4.0, -4.0f64..4.0), 32),
        part64 in prop::collection::vec((-4.0f64..4.0, -4.0f64..4.0), 1..32),
    ) {
        for (n, values) in [(16, &full16), (16, &part16), (64, &full64), (64, &part64)] {
            let checked = assert_encode_matches_direct(ring(n), &complex(values));
            prop_assert!(checked.is_ok(), "{:?}", checked);
        }
    }
}

proptest! {
    // The direct references are O(N·slots): a handful of cases at the
    // larger rings.
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn decode_matches_direct_at_every_small_level(
        values in prop::collection::vec((-8.0f64..8.0, -8.0f64..8.0), 1..1025)
    ) {
        let checked = assert_decode_matches_direct(small_ctx(), &complex(&values));
        prop_assert!(checked.is_ok(), "{:?}", checked);
    }

    #[test]
    fn special_fft_matches_direct_encoding_at_4096(
        full in prop::collection::vec((-4.0f64..4.0, -4.0f64..4.0), 2048),
        part in prop::collection::vec((-4.0f64..4.0, -4.0f64..4.0), 1..2048),
    ) {
        for values in [&full, &part] {
            let checked = assert_encode_matches_direct(ring(4096), &complex(values));
            prop_assert!(checked.is_ok(), "{:?}", checked);
        }
    }
}

/// Rotations the key-switch fixtures hold keys for.
const ROTATIONS: [isize; 3] = [1, 3, -2];

/// A ring with a relinearisation key and Galois keys, built once.
struct KeyedRing {
    ctx: CkksContext,
    rlk: RelinKey,
    gk: GaloisKeys,
}

/// `toy`, `small` and the `ckks_mlp` benchmark ring (`N = 2^12, L = 6,
/// dnum = 3`: a short last digit at the top level).
fn keyed_ring(which: usize) -> &'static KeyedRing {
    static RINGS: [OnceLock<KeyedRing>; 3] = [OnceLock::new(), OnceLock::new(), OnceLock::new()];
    RINGS[which].get_or_init(|| {
        let params = match which {
            0 => CkksParams::toy(),
            1 => CkksParams::small(),
            _ => CkksParams::new(1 << 12, 6, 3, 36),
        };
        let ctx = CkksContext::new(params.unwrap()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(0x5EED + which as u64);
        let sk = SecretKey::generate(&ctx, &mut rng).unwrap();
        let rlk = RelinKey::generate(&ctx, &sk, &mut rng).unwrap();
        let gk = GaloisKeys::generate(&ctx, &sk, &ROTATIONS, true, &mut rng).unwrap();
        KeyedRing { ctx, rlk, gk }
    })
}

/// A uniformly random NTT-domain polynomial on channels `0..=level`.
fn uniform_poly(ctx: &CkksContext, level: usize, rng: &mut ChaCha8Rng) -> RnsPoly {
    let channels = ctx
        .level_moduli(level)
        .iter()
        .map(|&m| Poly::from_ntt(sample_uniform(m.value(), ctx.n(), rng), m).unwrap())
        .collect();
    RnsPoly::from_channels(channels).unwrap()
}

/// `X ↦ X^g` the textbook way: INTT, coefficient-domain automorphism, NTT.
fn reference_automorphism(ctx: &CkksContext, p: &RnsPoly, level: usize, g: usize) -> RnsPoly {
    let mut p = p.clone();
    p.to_coeff(ctx.level_tables(level)).unwrap();
    let mut p = p.automorphism(g).unwrap();
    p.to_ntt(ctx.level_tables(level)).unwrap();
    p
}

/// The textbook hybrid key switch the staged pipeline must equal bit for
/// bit: INTT → per-digit Modup → (σ_g on the extended coefficients, the
/// hoisted order) → NTT → eager multiply-accumulate with the key → INTT of
/// all `2t` channels → coefficient-domain `moddown_into` → NTT.
fn reference_keyswitch(
    ctx: &CkksContext,
    d: &RnsPoly,
    key: &SwitchKey,
    level: usize,
    hoisted_g: Option<usize>,
) -> (RnsPoly, RnsPoly) {
    let (rns, n) = (ctx.rns(), ctx.n());
    let q_idx: Vec<usize> = (0..=level).collect();
    let p_idx = ctx.p_indices();
    let ext_idx: Vec<usize> = q_idx.iter().chain(&p_idx).copied().collect();
    let mut d_coeff = d.clone();
    d_coeff.to_coeff(ctx.level_tables(level)).unwrap();
    let mut acc = [vec![vec![0u64; n]; ext_idx.len()], vec![vec![0u64; n]; ext_idx.len()]];
    for (i, digit) in ctx.digits_at_level(level).iter().enumerate() {
        let dst: Vec<usize> = ext_idx.iter().copied().filter(|c| !digit.contains(c)).collect();
        let src: Vec<&[u64]> = digit.iter().map(|&c| d_coeff.channel(c).coeffs()).collect();
        let converted = rns.modup(&src, digit, &dst).unwrap();
        for (pos, &gc) in ext_idx.iter().enumerate() {
            let m = rns.moduli()[gc];
            let coeffs = match dst.iter().position(|&c| c == gc) {
                Some(k) => converted[k].clone(),
                None => d_coeff.channel(gc).coeffs().to_vec(),
            };
            let mut ext = Poly::from_coeffs(coeffs, m).unwrap();
            if let Some(g) = hoisted_g {
                ext = ext.automorphism(g).unwrap();
            }
            ext.to_ntt(ctx.table(gc));
            let (kb, ka) = &key.digit_keys()[i];
            for (half, k) in [kb, ka].into_iter().enumerate() {
                for (s, a) in acc[half][pos].iter_mut().enumerate() {
                    *a = m.add(*a, m.mul(ext.coeffs()[s], k.channel(gc).coeffs()[s]));
                }
            }
        }
    }
    let finish = |half: &mut Vec<Vec<u64>>| {
        for (ch, &gc) in half.iter_mut().zip(&ext_idx) {
            ctx.table(gc).inverse(ch);
        }
        let (q, p) = half.split_at(level + 1);
        let q_refs: Vec<&[u64]> = q.iter().map(|c| c.as_slice()).collect();
        let p_refs: Vec<&[u64]> = p.iter().map(|c| c.as_slice()).collect();
        let mut out = vec![Vec::new(); level + 1];
        rns.moddown_into(&q_refs, &p_refs, &q_idx, &p_idx, &mut out).unwrap();
        let channels = out
            .into_iter()
            .enumerate()
            .map(|(c, mut data)| {
                ctx.table(c).forward(&mut data);
                Poly::from_ntt(data, rns.moduli()[c]).unwrap()
            })
            .collect();
        RnsPoly::from_channels(channels).unwrap()
    };
    let [mut half0, mut half1] = acc;
    (finish(&mut half0), finish(&mut half1))
}

/// `keyswitch_core`, `rotate`, `conjugate` and `rotate_hoisted` against the
/// textbook reference at every level of one ring, on uniform ciphertexts.
fn assert_keyswitch_matches_reference(ring: &KeyedRing, seed: u64) -> Result<(), String> {
    let KeyedRing { ctx, rlk, gk } = ring;
    let ev = Evaluator::new(ctx);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let two_n = 2 * ctx.n();
    let element = |r: isize| {
        let steps = r.rem_euclid(ctx.n() as isize / 2);
        (0..steps).fold(1usize, |g, _| g * 5 % two_n)
    };
    for level in 0..ctx.q_len() {
        let (c0, c1) = (uniform_poly(ctx, level, &mut rng), uniform_poly(ctx, level, &mut rng));
        let ct = Ciphertext::from_rns_parts(c0.clone(), c1.clone(), level, 2f64.powi(30)).unwrap();

        let got = ev.keyswitch_core(&c1, rlk.switch_key(), level).unwrap();
        if got != reference_keyswitch(ctx, &c1, rlk.switch_key(), level, None) {
            return Err(format!("keyswitch_core differs at level {level}"));
        }

        // rotate / conjugate: automorphism first, then the key switch.
        let rotate_reference = |g: usize, key: &SwitchKey| {
            let c1g = reference_automorphism(ctx, &c1, level, g);
            let (k0, k1) = reference_keyswitch(ctx, &c1g, key, level, None);
            (reference_automorphism(ctx, &c0, level, g).add(&k0).unwrap(), k1)
        };
        for r in ROTATIONS {
            let got = ev.rotate(&ct, r, gk).unwrap();
            let want = rotate_reference(element(r), gk.rotation_key(r).unwrap());
            if (got.c0(), got.c1()) != (&want.0, &want.1) {
                return Err(format!("rotate by {r} differs at level {level}"));
            }
        }
        let got = ev.conjugate(&ct, gk).unwrap();
        let want = rotate_reference(two_n - 1, gk.conjugation_key().unwrap());
        if (got.c0(), got.c1()) != (&want.0, &want.1) {
            return Err(format!("conjugate differs at level {level}"));
        }

        // rotate_hoisted: one shared Modup, automorphism on its output.
        let hoisted = ev.rotate_hoisted(&ct, &ROTATIONS, gk).unwrap();
        for (got, r) in hoisted.iter().zip(ROTATIONS) {
            let g = element(r);
            let (k0, k1) =
                reference_keyswitch(ctx, &c1, gk.rotation_key(r).unwrap(), level, Some(g));
            let want0 = reference_automorphism(ctx, &c0, level, g).add(&k0).unwrap();
            if (got.c0(), got.c1()) != (&want0, &k1) {
                return Err(format!("rotate_hoisted by {r} differs at level {level}"));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn keyswitch_pipeline_matches_textbook_reference_toy(seed in any::<u64>()) {
        let checked = assert_keyswitch_matches_reference(keyed_ring(0), seed);
        prop_assert!(checked.is_ok(), "{:?}", checked);
    }
}

proptest! {
    // Every level of the larger rings through the eager reference: two
    // cases each.
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    fn keyswitch_pipeline_matches_textbook_reference_small(seed in any::<u64>()) {
        let checked = assert_keyswitch_matches_reference(keyed_ring(1), seed);
        prop_assert!(checked.is_ok(), "{:?}", checked);
    }

    #[test]
    fn keyswitch_pipeline_matches_textbook_reference_mlp_ring(seed in any::<u64>()) {
        let checked = assert_keyswitch_matches_reference(keyed_ring(2), seed);
        prop_assert!(checked.is_ok(), "{:?}", checked);
    }
}
