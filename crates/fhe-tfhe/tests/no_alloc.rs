//! Allocation bound for programmable bootstrapping, and the key bytes it
//! streams.
//!
//! Blind rotation takes its working buffers from one workspace allocated
//! before the `n`-step loop, so a bootstrap's allocation count must not
//! depend on the LWE dimension; the key switch accumulates in its output's
//! own buffer. Counted with the tracking global allocator
//! (`telemetry::alloc`).

use fhe_tfhe::{generate_keys, KeySwitchKey, TfheParams, ONE_EIGHTH};
use rand::SeedableRng;
use telemetry::alloc::alloc_delta;

/// Allocations of one toy bootstrap, exactly:
///
/// * 4 — the accumulator: `testv.to_vec()` into a trivial TRLWE (its
///   zero mask and the body), then its initial rotation (mask and body);
/// * 4 — the external-product workspace, allocated once before the loop:
///   the two input polynomials, the lifted digit transforms (the digits
///   are decomposed straight into them) and the output residues;
/// * 2 — the extracted LWE mask and the key-switched output mask.
const ALLOCS_PER_BOOTSTRAP: u64 = 10;

fn bootstrap_allocs(lwe_dim: usize) -> u64 {
    let params = TfheParams { lwe_dim, ..TfheParams::toy() };
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(lwe_dim as u64);
    let (client, server) = generate_keys(&params, &mut rng).unwrap();
    let (pbs, bsk, ksk) = (server.pbs(), server.bootstrapping_key(), server.key_switch_key());
    let testv = pbs.sign_testv(ONE_EIGHTH);
    let ct = client.encrypt_bit(true, &mut rng);
    // Warm-up: first-use tables.
    let warm = pbs.bootstrap(bsk, ksk, &ct, &testv);
    let (out, delta) = alloc_delta(|| pbs.bootstrap(bsk, ksk, &ct, &testv));
    assert_eq!(out, warm, "bootstrapping is deterministic");
    assert!(client.decrypt_bit(&out), "the bootstrap still computes the sign");
    delta.allocs
}

#[test]
fn bootstrap_allocations_do_not_scale_with_lwe_dimension() {
    let (small, large) = (bootstrap_allocs(16), bootstrap_allocs(32));
    assert_eq!(small, large, "an allocation inside the blind-rotation loop scales with n");
    assert_eq!(small, ALLOCS_PER_BOOTSTRAP, "allocations per bootstrap");
}

#[test]
fn key_switch_allocates_only_its_output_mask() {
    let params = TfheParams::toy();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
    let (client, server) = generate_keys(&params, &mut rng).unwrap();
    let extracted_key = client.trlwe_key().to_extracted_lwe_key();
    let ct = extracted_key.encrypt(ONE_EIGHTH, params.lwe_sigma, &mut rng);
    let ksk = server.key_switch_key();
    let warm = ksk.switch(&ct);
    let (out, delta) = alloc_delta(|| ksk.switch(&ct));
    assert_eq!(out, warm);
    assert!(client.decrypt_bit(&out));
    assert_eq!(delta.allocs, 1, "the 32-bit accumulator lives in the output mask");
    assert_eq!(delta.bytes, 8 * params.lwe_dim as u64);
}

/// The key bytes `cross_threshold`'s `peak_heap_mb` (≈ 121 MB) is made of.
#[test]
fn set_i_key_bytes_are_pinned() {
    let params = TfheParams::set_i();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(4);
    let (client, server) = generate_keys(&params, &mut rng).unwrap();
    // 630 TRGSW × 6 rows × 2 polynomials × 1 prime × 1024 × 8 B.
    assert_eq!(server.bootstrapping_key().bytes(), 61_931_520);
    // 1024 coefficients × 8 levels × (630 + 1) words × 4 B.
    assert_eq!(server.key_switch_key().bytes(), 20_676_608);
    // The bridge's key at the workload's CKKS ring: a 2^11-coefficient
    // ternary source key, same target and gadget.
    let ckks_secret: Vec<i64> = (0..2048).map(|i| i % 3 - 1).collect();
    let bridge =
        KeySwitchKey::generate_from_signed(&params, &ckks_secret, client.lwe_key(), &mut rng)
            .unwrap();
    assert_eq!(bridge.bytes(), 41_353_216);
}
