//! Property-based tests over the number-theoretic core: modular
//! arithmetic laws, NTT algebra, RNS/CRT consistency, decomposition error
//! bounds, and big-integer arithmetic against native wide types.

use fhe_math::{
    generate_ntt_primes, FourStepNtt, Modulus, NttTable, RnsBasis, RnsContext, RnsPoly,
    SignedDigitDecomposer, UBig,
};
use proptest::prelude::*;

fn modulus_36() -> Modulus {
    Modulus::new(generate_ntt_primes(36, 64, 1).unwrap()[0]).unwrap()
}

fn modulus_60() -> Modulus {
    Modulus::new(generate_ntt_primes(60, 64, 1).unwrap()[0]).unwrap()
}

proptest! {
    #[test]
    fn barrett_reduction_matches_u128_remainder(x in any::<u128>()) {
        for m in [modulus_36(), modulus_60()] {
            prop_assert_eq!(m.reduce_u128(x), (x % m.value() as u128) as u64);
        }
    }

    #[test]
    fn field_laws(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let m = modulus_36();
        let (a, b, c) = (m.reduce(a), m.reduce(b), m.reduce(c));
        // Commutativity and associativity.
        prop_assert_eq!(m.add(a, b), m.add(b, a));
        prop_assert_eq!(m.mul(a, b), m.mul(b, a));
        prop_assert_eq!(m.add(m.add(a, b), c), m.add(a, m.add(b, c)));
        prop_assert_eq!(m.mul(m.mul(a, b), c), m.mul(a, m.mul(b, c)));
        // Distributivity.
        prop_assert_eq!(m.mul(a, m.add(b, c)), m.add(m.mul(a, b), m.mul(a, c)));
        // Additive inverse and subtraction consistency.
        prop_assert_eq!(m.add(a, m.neg(a)), 0);
        prop_assert_eq!(m.sub(a, b), m.add(a, m.neg(b)));
    }

    #[test]
    fn inverse_is_inverse(a in 1u64..u64::MAX) {
        let m = modulus_36();
        let a = m.reduce(a);
        prop_assume!(a != 0);
        let inv = m.inv(a).unwrap();
        prop_assert_eq!(m.mul(a, inv), 1);
    }

    #[test]
    fn shoup_equals_barrett(a in any::<u64>(), w in any::<u64>()) {
        let m = modulus_60();
        let (a, w) = (m.reduce(a), m.reduce(w));
        prop_assert_eq!(m.mul_shoup(a, m.shoup(w)), m.mul(a, w));
    }

    #[test]
    fn ntt_round_trip(coeffs in prop::collection::vec(any::<u64>(), 64)) {
        let m = modulus_36();
        let t = NttTable::new(m, 64).unwrap();
        let original: Vec<u64> = coeffs.iter().map(|&c| m.reduce(c)).collect();
        let mut a = original.clone();
        t.forward(&mut a);
        t.inverse(&mut a);
        prop_assert_eq!(a, original);
    }

    #[test]
    fn ntt_is_linear(
        xs in prop::collection::vec(any::<u64>(), 64),
        ys in prop::collection::vec(any::<u64>(), 64),
    ) {
        let m = modulus_36();
        let t = NttTable::new(m, 64).unwrap();
        let xs: Vec<u64> = xs.iter().map(|&c| m.reduce(c)).collect();
        let ys: Vec<u64> = ys.iter().map(|&c| m.reduce(c)).collect();
        let mut sum: Vec<u64> = xs.iter().zip(&ys).map(|(&x, &y)| m.add(x, y)).collect();
        t.forward(&mut sum);
        let mut fx = xs.clone();
        let mut fy = ys.clone();
        t.forward(&mut fx);
        t.forward(&mut fy);
        let pointwise: Vec<u64> = fx.iter().zip(&fy).map(|(&x, &y)| m.add(x, y)).collect();
        prop_assert_eq!(sum, pointwise);
    }

    #[test]
    fn four_step_agrees_with_flat_ntt_on_products(
        xs in prop::collection::vec(any::<u64>(), 64),
        ys in prop::collection::vec(any::<u64>(), 64),
    ) {
        let q = Modulus::new(generate_ntt_primes(36, 64, 1).unwrap()[0]).unwrap();
        let flat = NttTable::new(q, 64).unwrap();
        let four = FourStepNtt::new(q, 8, 8).unwrap();
        let xs: Vec<u64> = xs.iter().map(|&c| q.reduce(c)).collect();
        let ys: Vec<u64> = ys.iter().map(|&c| q.reduce(c)).collect();

        // The same words at every step: both forwards, the product's inverse.
        let (mut fx, mut fy, mut fx4, mut fy4) = (xs.clone(), ys.clone(), xs, ys);
        flat.forward(&mut fx);
        flat.forward(&mut fy);
        four.forward(&mut fx4);
        four.forward(&mut fy4);
        prop_assert_eq!((&fx4, &fy4), (&fx, &fy));
        let mut p: Vec<u64> = fx.iter().zip(&fy).map(|(&x, &y)| q.mul(x, y)).collect();
        let mut p4 = p.clone();
        flat.inverse(&mut p);
        four.inverse(&mut p4);
        prop_assert_eq!(p4, p);
    }

    #[test]
    fn crt_round_trip(value in any::<u64>()) {
        let primes = generate_ntt_primes(30, 16, 3).unwrap();
        let moduli: Vec<Modulus> = primes.iter().map(|&q| Modulus::new(q).unwrap()).collect();
        let poly = RnsPoly::from_signed(&[value as i64 & i64::MAX], 16, &moduli);
        let expect = UBig::from_u64(value & i64::MAX as u64);
        prop_assert_eq!(poly.crt_coefficient(0), expect);
    }

    #[test]
    fn bconv_error_is_bounded_multiple_of_q(slot_value in any::<u64>()) {
        let primes = generate_ntt_primes(30, 8, 4).unwrap();
        let moduli: Vec<Modulus> = primes.iter().map(|&q| Modulus::new(q).unwrap()).collect();
        let ctx = RnsContext::new(8, RnsBasis::new(moduli).unwrap()).unwrap();
        let plan = ctx.bconv(&[0, 1], &[2, 3]).unwrap();
        let x = slot_value % (ctx.moduli()[0].value()); // small exact value
        let chans: Vec<Vec<u64>> =
            (0..2).map(|i| vec![x % ctx.moduli()[i].value(); 8]).collect();
        let refs: Vec<&[u64]> = chans.iter().map(|c| c.as_slice()).collect();
        let out = plan.apply(&refs);
        let q_prod = UBig::product_of((0..2).map(|i| ctx.moduli()[i].value()));
        for (j, dj) in [2usize, 3].into_iter().enumerate() {
            let p = ctx.moduli()[dj];
            let got = out[j][0];
            let matched = (0..2u64).any(|u| {
                UBig::from_u64(x).add(&q_prod.mul_u64(u)).rem_u64(p.value()) == got
            });
            prop_assert!(matched, "Bconv slack exceeded (L-1)Q");
        }
    }

    #[test]
    fn signed_decomposition_error_bound(t in any::<u64>(), base_log in 4u32..16, levels in 2usize..4) {
        prop_assume!(base_log as usize * levels <= 64);
        let d = SignedDigitDecomposer::new(base_log, levels).unwrap();
        let digits = d.decompose(t);
        let half = 1i64 << (base_log - 1);
        for &digit in &digits {
            prop_assert!((-half..half).contains(&digit));
        }
        let approx = d.recompose(&digits);
        let err = t.wrapping_sub(approx).min(approx.wrapping_sub(t));
        prop_assert!(err <= d.max_error());
    }

    #[test]
    fn flat_poly_decomposition_matches_per_coefficient(
        poly in prop::collection::vec(any::<u64>(), 0..9),
        base_log in 1u32..17,
        levels in 1usize..5,
    ) {
        let d = SignedDigitDecomposer::new(base_log, levels).unwrap();
        let n = poly.len();
        let mut flat = vec![i64::MAX; levels * n];
        d.decompose_poly_into(&poly, &mut flat);
        let by_level = d.decompose_poly(&poly);
        prop_assert_eq!(by_level.len(), levels);
        let mut digits = vec![0i64; levels];
        for (i, &t) in poly.iter().enumerate() {
            d.decompose_into(t, &mut digits);
            prop_assert_eq!(&digits, &d.decompose(t));
            for (j, &digit) in digits.iter().enumerate() {
                prop_assert_eq!(flat[j * n + i], digit);
                prop_assert_eq!(by_level[j][i], digit);
            }
        }
    }

    #[test]
    fn from_i64_matches_the_wide_remainder(a in any::<i64>(), near in -2i64..3) {
        for m in [modulus_36(), modulus_60()] {
            let q = m.value() as i64;
            // The whole i64 range, and the seams of the `|a| < q` fast path.
            for a in [a, i64::MIN, i64::MAX, 0, q + near, -q + near, q - 1, 1 - q, q, -q] {
                prop_assert_eq!(m.from_i64(a), (a as i128).rem_euclid(q as i128) as u64);
            }
        }
    }

    #[test]
    fn ubig_matches_u128_arithmetic(a in any::<u64>(), b in any::<u64>()) {
        let (ua, ub) = (UBig::from_u64(a), UBig::from_u64(b));
        prop_assert_eq!(ua.add(&ub), UBig::from_u128(a as u128 + b as u128));
        prop_assert_eq!(ua.mul(&ub), UBig::from_u128(a as u128 * b as u128));
        if b != 0 {
            let (q, r) = ua.divrem_u64(b);
            prop_assert_eq!(q, UBig::from_u64(a / b));
            prop_assert_eq!(r, a % b);
        }
    }

    #[test]
    fn ubig_rem_big_is_canonical(x in any::<u128>(), m in 2u64..u64::MAX) {
        let r = UBig::from_u128(x).rem_big(&UBig::from_u64(m));
        prop_assert_eq!(r.low_u128(), x % m as u128);
    }
}
