//! The ring layer is frozen. The two-prime path: external product, CMux
//! and blind rotation at full (64-bit) ring precision produce the bits they
//! produced before ring precision became a preset property; those goldens
//! are FNV-1a hashes recorded at the last commit whose multiplier was
//! two-prime for every preset. The one-prime path: set I's ring and
//! gadget at 32-bit precision, the same three plus the key switch of the
//! rotation's extracted sample, recorded while every TRGSW key row still
//! went through `TrlweSecretKey::encrypt`. A change to key-generation order,
//! RNG consumption, the keystream, the decomposition, the NTT or Garner
//! moves them.

use fhe_tfhe::{generate_keys, TfheParams, TrgswCiphertext, TrlweCiphertext};
use rand::SeedableRng;

fn fnv_words<'a>(words: impl IntoIterator<Item = &'a u64>) -> u64 {
    words
        .into_iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

fn fnv(ct: &TrlweCiphertext) -> u64 {
    fnv_words(ct.a.iter().chain(&ct.b))
}

/// What one key set computes: the multiplier's prime count, the hashes of
/// `[external_product, cmux, blind_rotate]`, and the hash of the key switch
/// of the rotation's extracted sample.
struct Layer {
    primes: usize,
    hashes: [u64; 3],
    switched: u64,
}

/// Hashes of `[external_product, cmux, blind_rotate]` on keys from `seed`,
/// on the two-prime path.
fn ring_layer(params: TfheParams, seed: u64) -> [u64; 3] {
    let layer = layer(params, seed);
    assert_eq!(layer.primes, 2, "the frozen path is the two-prime one");
    layer.hashes
}

fn layer(params: TfheParams, seed: u64) -> Layer {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let (client, server) = generate_keys(&params, &mut rng).unwrap();
    let (pbs, key) = (server.pbs(), client.trlwe_key());
    let mult = pbs.multiplier();
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
    let rotated = pbs.blind_rotate(server.bootstrapping_key(), &lwe, &testv).unwrap();
    let switched = server.key_switch_key().switch(&rotated.sample_extract());
    Layer {
        primes: mult.primes(),
        hashes: [
            fnv(&trgsw.external_product(mult, &ct0)),
            fnv(&trgsw.cmux(mult, &ct0, &ct1)),
            fnv(&rotated),
        ],
        switched: fnv_words(switched.a.iter().chain([&switched.b])),
    }
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

#[test]
fn set_i_shape_key_path_is_bit_identical_to_the_recorded_one_prime_layer() {
    // Set I's ring, gadget and key switch at 32-bit ring precision; the LWE
    // dimension only sets the step count and the key-switch target.
    let mut params = TfheParams::set_i();
    params.lwe_dim = 8;
    let layer = layer(params, 19);
    assert_eq!(layer.primes, 1, "set I's ring is the one-prime path");
    assert_eq!(layer.hashes, [0x20f4_2e7a_2e99_c687, 0xd309_373b_6a16_b98b, 0xb1c8_5e29_e4b0_8d86]);
    assert_eq!(layer.switched, 0x76a5_6796_5857_5bbf);
}
