//! Allocation bound for programmable bootstrapping.
//!
//! Blind rotation takes its working buffers from one workspace allocated
//! before the `n`-step loop, so a bootstrap's allocation count must not
//! depend on the LWE dimension. Counted with the tracking global allocator
//! (`telemetry::alloc`).

use fhe_tfhe::{generate_keys, TfheParams, ONE_EIGHTH};
use rand::SeedableRng;
use telemetry::alloc::alloc_delta;

/// Allocations of one toy bootstrap: the test polynomial's accumulator and
/// its initial rotation (4), the external-product workspace (10), the
/// extracted and the key-switched LWE ciphertext (2).
const MAX_ALLOCS_PER_BOOTSTRAP: u64 = 16;

fn bootstrap_allocs(lwe_dim: usize) -> u64 {
    let params = TfheParams { lwe_dim, ..TfheParams::toy() };
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(lwe_dim as u64);
    let (client, server) = generate_keys(&params, &mut rng).unwrap();
    let (pbs, bsk, ksk) = (server.pbs(), server.bootstrapping_key(), server.key_switch_key());
    let testv = pbs.sign_testv(ONE_EIGHTH);
    let ct = client.encrypt_bit(true, &mut rng);
    // Warm-up: lazy SIMD dispatch and first-use tables.
    let warm = pbs.bootstrap(bsk, ksk, &ct, &testv).unwrap();
    let (out, delta) = alloc_delta(|| pbs.bootstrap(bsk, ksk, &ct, &testv).unwrap());
    assert_eq!(out, warm, "bootstrapping is deterministic");
    assert!(client.decrypt_bit(&out), "the bootstrap still computes the sign");
    delta.allocs
}

#[test]
fn bootstrap_allocations_do_not_scale_with_lwe_dimension() {
    let (small, large) = (bootstrap_allocs(16), bootstrap_allocs(32));
    assert_eq!(small, large, "an allocation inside the blind-rotation loop scales with n");
    assert!(small > 0 && small <= MAX_ALLOCS_PER_BOOTSTRAP, "{small} allocations per bootstrap");
}
