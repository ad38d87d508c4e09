//! Property-based tests of the TFHE substrate: exact polynomial products
//! against wrapping schoolbook at both ring precisions, torus encode/decode
//! robustness, and LWE homomorphism.

use fhe_tfhe::{LweSecretKey, NegacyclicMultiplier};
use proptest::prelude::*;

fn schoolbook(ints: &[i64], torus: &[u64]) -> Vec<u64> {
    let n = ints.len();
    let mut out = vec![0u64; n];
    for (i, &d) in ints.iter().enumerate() {
        for (j, &t) in torus.iter().enumerate() {
            let prod = (d as u64).wrapping_mul(t);
            if i + j < n {
                out[i + j] = out[i + j].wrapping_add(prod);
            } else {
                out[i + j - n] = out[i + j - n].wrapping_sub(prod);
            }
        }
    }
    out
}

/// `poly` rounded to its top `w` bits — what a `w`-bit multiplier reads.
fn rounded(poly: &[u64], w: u32) -> Vec<u64> {
    let drop = 64 - w;
    poly.iter().map(|&t| ((u128::from(t) + ((1 << drop) >> 1)) >> drop << drop) as u64).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `mul_int_torus` is the wrapping schoolbook product of the operand
    /// rounded to the ring precision, bit for bit: the one-prime 32-bit
    /// multiplier (set I's gadget) and the two-prime 64-bit one, on a tiny
    /// ring, the toy ring and set I's.
    #[test]
    fn exact_negacyclic_product_on_the_rounded_operand(seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        for n in [16, 64, 1024] {
            let ints: Vec<i64> = (0..n).map(|_| rng.gen_range(-64..64i64)).collect();
            let torus: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
            for (w, primes) in [(32, 1), (64, 2)] {
                let m = NegacyclicMultiplier::with_precision(n, w, 7, 6).unwrap();
                prop_assert_eq!(m.primes(), primes);
                prop_assert_eq!(
                    m.mul_int_torus(&ints, &torus),
                    schoolbook(&ints, &rounded(&torus, w)),
                    "n = {}, w = {}", n, w
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn exact_negacyclic_product(
        ints in prop::collection::vec(-(1i64 << 22)..(1i64 << 22), 16),
        torus in prop::collection::vec(any::<u64>(), 16),
    ) {
        let m = NegacyclicMultiplier::new(16).unwrap();
        prop_assert_eq!(m.mul_int_torus(&ints, &torus), schoolbook(&ints, &torus));
    }

    #[test]
    fn product_is_bilinear(
        a in prop::collection::vec(-128i64..128, 16),
        b in prop::collection::vec(-128i64..128, 16),
        torus in prop::collection::vec(any::<u64>(), 16),
    ) {
        let m = NegacyclicMultiplier::new(16).unwrap();
        let sum: Vec<i64> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
        let lhs = m.mul_int_torus(&sum, &torus);
        let pa = m.mul_int_torus(&a, &torus);
        let pb = m.mul_int_torus(&b, &torus);
        let rhs: Vec<u64> =
            pa.iter().zip(&pb).map(|(&x, &y)| x.wrapping_add(y)).collect();
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn torus_message_robust_to_quarter_sector_noise(
        m in 0u64..16,
        noise_frac in -0.24f64..0.24,
    ) {
        let space = 16u64;
        let sector = u64::MAX / space + 1;
        let t = fhe_tfhe::torus_from_f64(m as f64 / space as f64);
        let noisy = t.wrapping_add((noise_frac * sector as f64) as i64 as u64);
        // decode_message isn't public on torus; go through an LWE trivial ct.
        let key = LweSecretKey::from_bits(vec![0; 4]);
        let ct = fhe_tfhe::LweCiphertext::trivial(noisy, 4);
        prop_assert_eq!(key.decrypt_message(&ct, space), m);
    }

    #[test]
    fn lwe_additive_homomorphism(m1 in 0u64..8, m2 in 0u64..8, seed in any::<u64>()) {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let key = LweSecretKey::generate(32, &mut rng);
        let space = 8u64;
        let enc = |m: u64, rng: &mut rand_chacha::ChaCha8Rng| {
            key.encrypt(m.wrapping_mul(u64::MAX / space + 1), 2.0f64.powi(-30), rng)
        };
        let c1 = enc(m1, &mut rng);
        let c2 = enc(m2, &mut rng);
        prop_assert_eq!(key.decrypt_message(&c1.add(&c2), space), (m1 + m2) % space);
        prop_assert_eq!(
            key.decrypt_message(&c1.sub(&c2), space),
            (m1 + space - m2) % space
        );
    }
}
