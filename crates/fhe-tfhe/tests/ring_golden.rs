//! The two-prime ring layer is frozen: external product, CMux and blind
//! rotation at full (64-bit) ring precision produce the bits they produced
//! before ring precision became a preset property. The goldens are FNV-1a
//! hashes recorded at the last commit whose multiplier was two-prime for
//! every preset (PR 16); a change to key-generation order, RNG consumption,
//! the decomposition, the NTT or Garner moves them.

use fhe_tfhe::{generate_keys, TfheParams, TrgswCiphertext, TrlweCiphertext};
use rand::SeedableRng;

fn fnv(ct: &TrlweCiphertext) -> u64 {
    ct.a.iter()
        .chain(&ct.b)
        .flat_map(|w| w.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Hashes of `[external_product, cmux, blind_rotate]` on keys from `seed`.
fn ring_layer(params: TfheParams, seed: u64) -> [u64; 3] {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let (client, server) = generate_keys(&params, &mut rng).unwrap();
    let (pbs, key) = (server.pbs(), client.trlwe_key());
    let mult = pbs.multiplier();
    assert_eq!(mult.primes(), 2, "the frozen path is the two-prime one");
    let trgsw = TrgswCiphertext::encrypt(
        key,
        1,
        params.pbs_base_log,
        params.pbs_levels,
        params.glwe_sigma,
        mult,
        &mut rng,
    )
    .unwrap();
    let mu: Vec<u64> = (0..params.poly_size as u64).map(|i| (i % 8) << 61).collect();
    let ct0 = key.encrypt(&mu, params.glwe_sigma, mult, &mut rng).unwrap();
    let ct1 = ct0.rotate(5);
    let lwe = client.encrypt_message(1, 8, &mut rng);
    let testv = pbs.function_testv(8, |m| m);
    [
        fnv(&trgsw.external_product(mult, &ct0).unwrap()),
        fnv(&trgsw.cmux(mult, &ct0, &ct1).unwrap()),
        fnv(&pbs.blind_rotate(server.bootstrapping_key(), &lwe, &testv).unwrap()),
    ]
}

#[test]
fn toy_ring_layer_is_bit_identical_to_the_two_prime_parent() {
    assert_eq!(
        ring_layer(TfheParams::toy(), 17),
        [0x0f7a_fd4b_ae3a_f561, 0x0b91_3373_d915_bab3, 0xa375_b406_82b8_ae40,]
    );
}

#[test]
fn set_ii_shape_ring_layer_is_bit_identical_to_the_two_prime_parent() {
    // Set II's ring and gadget; the LWE dimension only sets the step count.
    let mut params = TfheParams::set_ii();
    params.lwe_dim = 8;
    assert_eq!(
        ring_layer(params, 18),
        [0xe762_9663_2c3c_8995, 0x4488_2f4b_2f08_5893, 0x0be6_4cf7_4222_c914,]
    );
}
