//! Property-based tests of the CKKS scheme: encoding round trips,
//! homomorphism of the basic operators, and scale/level bookkeeping.

use std::sync::OnceLock;

use fhe_ckks::{CkksContext, CkksParams, Complex64, Encoder, Evaluator, SecretKey};
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
