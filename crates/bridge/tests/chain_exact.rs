//! Exact and bounded-error checks of the CKKS → TFHE chain, stage by stage:
//! extraction (exact), modulus switch (½ ulp), key switch (exact against a
//! torus reference when the key is noiseless, inside its stated bound
//! always) and the programmable bootstrap the switched sample feeds, at set
//! I's ring in both ring precisions. Every test is seeded; none sleeps.

use fhe_ckks::{Ciphertext, CkksContext, CkksParams, Encoder, Evaluator, SecretKey};
use fhe_math::SignedDigitDecomposer;
use fhe_tfhe::{
    generate_keys, torus_to_f64, LweCiphertext, NegacyclicMultiplier, TfheParams, TrgswCiphertext,
    TrlweCiphertext,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use scheme_bridge::{extract_lwe, mod_switch_to_torus, CkksToTfheBridge, LweModQ};

/// CKKS parameters with `q0/Δ = 8`: the bridge's message space is 8.
fn bridge_ckks() -> CkksContext {
    CkksContext::new(CkksParams::with_first_prime_bits(64, 2, 1, 30, 33).unwrap()).unwrap()
}

/// A level-0 encryption of the integer `m` in every slot (so plaintext
/// coefficient 0 is `Δ·m`).
fn encrypt_score(ctx: &CkksContext, sk: &SecretKey, m: u64, rng: &mut ChaCha8Rng) -> Ciphertext {
    let enc = Encoder::new(ctx);
    let pt = enc.encode(&vec![m as f64; enc.slots()]).unwrap();
    Evaluator::new(ctx).level_down(&sk.encrypt(ctx, &pt, rng).unwrap(), 0).unwrap()
}

/// `b − ⟨a, s⟩` on the 64-bit torus for a small signed key.
fn phase_signed(ct: &LweCiphertext, s: &[i64]) -> u64 {
    ct.a.iter().zip(s).fold(ct.b, |p, (&a, &s)| p.wrapping_sub(a.wrapping_mul(s as u64)))
}

#[test]
fn extraction_is_exactly_the_decryption_coefficient() {
    let ctx = bridge_ckks();
    let mut rng = ChaCha8Rng::seed_from_u64(70);
    let sk = SecretKey::generate(&ctx, &mut rng).unwrap();
    let ct = encrypt_score(&ctx, &sk, 3, &mut rng);
    let (n, q) = (ctx.n(), ctx.rns().moduli()[0].value() as i128);
    let coeffs = |poly: &fhe_math::RnsPoly| {
        let mut p = poly.channel(0).clone();
        p.to_coeff(ctx.table(0));
        p.coeffs().to_vec()
    };
    // c0 + c1·s modulo X^N + 1 and q0, by schoolbook over the integers.
    let (c0, c1, s) = (coeffs(ct.c0()), coeffs(ct.c1()), sk.coefficients());
    let mut decrypted: Vec<i128> = c0.iter().map(|&c| c as i128).collect();
    for (i, &c) in c1.iter().enumerate() {
        for (j, &sj) in s.iter().enumerate() {
            let term = c as i128 * sj as i128;
            if i + j < n {
                decrypted[i + j] += term;
            } else {
                decrypted[i + j - n] -= term;
            }
        }
    }
    for k in [0, 1, n / 2, n - 1] {
        let lwe = extract_lwe(&ctx, &ct, k).unwrap();
        let dot: i128 = lwe.a.iter().zip(s).map(|(&a, &sj)| a as i128 * sj as i128).sum();
        let phase = (lwe.b as i128 - dot).rem_euclid(q);
        assert_eq!(phase, decrypted[k].rem_euclid(q), "coefficient {k}");
    }
}

#[test]
fn mod_switch_is_within_half_an_ulp() {
    let q = bridge_ckks().rns().moduli()[0].value();
    let samples = [0, 1, 2, q / 3, q / 2, q / 2 + 1, q - 2, q - 1];
    let lwe = LweModQ { a: samples.to_vec(), b: q / 7, q };
    let out = mod_switch_to_torus(&lwe);
    for (&t, &r) in samples.iter().chain([&lwe.b]).zip(out.a.iter().chain([&out.b])) {
        // r ≈ t·2^64/q, modulo 2^64: the one wrap is r = 0 for t near q.
        let r = if r == 0 && t > q / 2 { 1u128 << 64 } else { u128::from(r) };
        let error = (r * u128::from(q)).abs_diff(u128::from(t) << 64);
        assert!(2 * error <= u128::from(q), "t = {t}: |r·q − t·2^64| = {error}");
    }
}

#[test]
fn noiseless_key_switch_equals_the_torus_reference() {
    // With `lwe_sigma = 0` every 32-bit key row is exact (its gadget is a
    // multiple of 2^32), so the switch must return, bit for bit, the phase
    // of the sample whose mask is recomposed from the digits it read.
    let ctx = bridge_ckks();
    let mut rng = ChaCha8Rng::seed_from_u64(71);
    let sk = SecretKey::generate(&ctx, &mut rng).unwrap();
    let params = TfheParams { lwe_sigma: 0.0, ..TfheParams::toy() };
    let (client, _server) = generate_keys(&params, &mut rng).unwrap();
    let bridge = CkksToTfheBridge::new(&ctx, &sk, &client, &mut rng).unwrap();
    let d = SignedDigitDecomposer::new(params.ks_base_log, params.ks_levels).unwrap();
    let s = sk.coefficients();
    let weight = s.iter().filter(|&&c| c != 0).count() as u64;
    for m in 0..4 {
        let ct = encrypt_score(&ctx, &sk, m, &mut rng);
        let torus = mod_switch_to_torus(&extract_lwe(&ctx, &ct, 0).unwrap());
        let read = LweCiphertext {
            a: torus.a.iter().map(|&a| d.recompose(&d.decompose(a))).collect(),
            b: torus.b,
        };
        let switched = bridge.switch(&ctx, &ct, 0).unwrap();
        let phase = client.lwe_key().phase(&switched);
        assert_eq!(phase, phase_signed(&read, s), "m = {m}");
        // The stated bound: the undecomposed low bits of every mask word
        // that meets a non-zero key coefficient (plus 2^-33 of rounding per
        // key row used, which a noiseless key does not spend).
        let drift = phase.wrapping_sub(phase_signed(&torus, s)) as i64;
        assert!(drift.unsigned_abs() <= weight * d.max_error(), "m = {m}: drift {drift}");
        assert_eq!(client.decrypt_message(&switched, 8), m);
    }
}

/// `round(t · 2N / 2^64) mod 2N`: a torus word as a rotation amount.
fn scale(t: u64, two_n: usize) -> usize {
    ((t >> (63 - two_n.trailing_zeros())) + 1) as usize / 2 % two_n
}

/// Blind rotation from the public ring-layer API, so the multiplier — and
/// with it the ring precision — is the caller's.
fn blind_rotate(
    mult: &NegacyclicMultiplier,
    bsk: &[TrgswCiphertext],
    ct: &LweCiphertext,
    testv: &[u64],
) -> TrlweCiphertext {
    let two_n = 2 * testv.len();
    let mut acc = TrlweCiphertext::trivial(testv.to_vec()).rotate(two_n - scale(ct.b, two_n));
    for (trgsw, &a) in bsk.iter().zip(&ct.a) {
        acc = trgsw.cmux(mult, &acc, &acc.rotate(scale(a, two_n))).unwrap();
    }
    acc
}

#[test]
fn bootstrap_noise_at_32_bits_matches_64_bits_on_the_set_i_ring() {
    // Set I's ring, gadget and noise; the LWE dimension only sets the step
    // count and is cut so the test runs in well under a second.
    let params = TfheParams { lwe_dim: 16, ..TfheParams::set_i() };
    let ctx = bridge_ckks();
    let mut rng = ChaCha8Rng::seed_from_u64(72);
    let sk = SecretKey::generate(&ctx, &mut rng).unwrap();
    let (client, server) = generate_keys(&params, &mut rng).unwrap();
    let bridge = CkksToTfheBridge::new(&ctx, &sk, &client, &mut rng).unwrap();
    let space = bridge.message_space();
    let lut = |m: u64| (3 * m + 1) % (space / 2);
    let testv = server.pbs().function_testv(space, lut);
    let inputs: Vec<(u64, LweCiphertext)> = (1..=3)
        .map(|m| (m, bridge.switch(&ctx, &encrypt_score(&ctx, &sk, m, &mut rng), 0).unwrap()))
        .collect();

    let (n, terms) = (params.poly_size, 2 * params.pbs_levels);
    let rms = |ring_bits: u32, primes: usize| -> f64 {
        let mult =
            NegacyclicMultiplier::with_precision(n, ring_bits, params.pbs_base_log, terms).unwrap();
        assert_eq!(mult.primes(), primes);
        // The same generator state for both precisions: the two keys draw
        // the same masks (rounded at 32 bits) and the same noise.
        let mut rng = ChaCha8Rng::seed_from_u64(73);
        let bsk: Vec<TrgswCiphertext> = client
            .lwe_key()
            .bits()
            .iter()
            .map(|&bit| {
                TrgswCiphertext::encrypt(
                    client.trlwe_key(),
                    bit as i64,
                    params.pbs_base_log,
                    params.pbs_levels,
                    params.glwe_sigma,
                    &mult,
                    &mut rng,
                )
                .unwrap()
            })
            .collect();
        let extracted_key = client.trlwe_key().to_extracted_lwe_key();
        let mut sum_sq = 0.0;
        for (m, ct) in &inputs {
            let rotated = blind_rotate(&mult, &bsk, ct, &testv);
            let out = extracted_key.decrypt_message(&rotated.sample_extract(), space);
            assert_eq!(out, lut(*m), "LUT at w = {ring_bits}, m = {m}");
            // Without noise the accumulator is the test polynomial turned
            // by the rounded phase, so each of its N coefficients is a
            // noise sample.
            let key_bits = client.lwe_key().bits().iter();
            let turns = ct.a.iter().zip(key_bits).map(|(&a, &s)| s as usize * scale(a, 2 * n));
            let turn = (2 * n - scale(ct.b, 2 * n) + turns.sum::<usize>()) % (2 * n);
            let ideal = TrlweCiphertext::trivial(testv.clone()).rotate(turn).b;
            let phase = client.trlwe_key().phase(&rotated, &mult).unwrap();
            for (&p, &t) in phase.iter().zip(&ideal) {
                sum_sq += torus_to_f64(p.wrapping_sub(t)).powi(2);
            }
        }
        (sum_sq / (inputs.len() * n) as f64).sqrt()
    };
    let (narrow, wide) = (rms(32, 1), rms(64, 2));
    // Half a sector is 2^-4; sixteen steps of set-I noise sit near 2^-11.5.
    assert!(wide > 0.0 && wide < 2.0f64.powi(-9), "rms at 64 bits: {wide:e}");
    assert!(narrow <= 1.25 * wide, "rms {narrow:e} at 32 bits against {wide:e} at 64");
    assert!(wide <= 1.25 * narrow, "rms {wide:e} at 64 bits against {narrow:e} at 32");
}
