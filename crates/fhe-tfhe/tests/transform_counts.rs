//! Model = implementation: one bootstrap performs exactly the transforms
//! `metaop::counts::pbs` charges it — per NTT prime of the multiplier and
//! per blind-rotation step, `(k+1)·l_b` forward and `k+1` inverse NTTs. At
//! set I's ring the multiplier has one prime, so the functional tallies
//! *are* the model's `transforms_per_step`; the toy set's 64-bit ring pays
//! them twice.
//!
//! Its own test binary: the telemetry handle is process-global.

use fhe_tfhe::{generate_keys, TfheParams, ONE_EIGHTH};
use metaop::counts::{ntt_counts, pbs, TfheCountParams};
use rand::SeedableRng;

/// Bootstraps once at `params` and checks the recorded transform counts
/// against the model's, times the multiplier's prime count.
fn assert_modelled_transform_counts(tel: &telemetry::Telemetry, params: TfheParams, primes: u64) {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(12);
    let (client, server) = generate_keys(&params, &mut rng).unwrap();
    assert_eq!(server.pbs().multiplier().primes() as u64, primes, "N = {}", params.poly_size);
    let ct = client.encrypt_bit(true, &mut rng);

    // Steps whose rounded mask coefficient ã = round(a·2N/2^64) is zero
    // leave the accumulator alone and run no external product.
    let two_n = 2 * params.poly_size as u64;
    let shift = 64 - two_n.trailing_zeros();
    let steps =
        ct.a.iter().filter(|&&a| !(((a >> (shift - 1)) + 1) >> 1).is_multiple_of(two_n)).count()
            as u64;
    assert!(steps > 0);

    let testv = server.pbs().sign_testv(ONE_EIGHTH);
    let before = tel.snapshot();
    let out = server
        .pbs()
        .bootstrap(server.bootstrapping_key(), server.key_switch_key(), &ct, &testv)
        .unwrap();
    let after = tel.snapshot();
    assert!(client.decrypt_bit(&out), "the counted bootstrap still computes the sign");
    let recorded = |name: &str| after.named_counter(name) - before.named_counter(name);

    let k1 = params.glwe_dim as u64 + 1;
    let levels = params.pbs_levels as u64;
    assert_eq!(recorded("tfhe.ntt.forward"), primes * steps * k1 * levels);
    assert_eq!(recorded("tfhe.ntt.inverse"), primes * steps * k1);
    // The same count out of the Meta-OP algebra: its NTT multiplications
    // for `steps` blind-rotation steps, in units of one transform.
    let model = TfheCountParams {
        n_poly: params.poly_size as u64,
        lwe_dim: steps,
        k_glwe: params.glwe_dim as u64,
        lb: levels,
        ks_levels: params.ks_levels as u64,
    };
    let modelled = pbs(&model).ntt.original / ntt_counts(model.n_poly).original;
    assert_eq!(recorded("tfhe.ntt.forward") + recorded("tfhe.ntt.inverse"), primes * modelled);
    let count = |snap: &telemetry::Snapshot| {
        snap.histogram("tfhe.external_product").map_or(0, |timer| timer.count)
    };
    assert_eq!(count(&after) - count(&before), steps, "one external product per counted step");
}

#[test]
fn bootstrap_records_the_modelled_transform_counts() {
    let tel = telemetry::Telemetry::enabled();
    assert!(telemetry::install(tel.clone()), "this binary installs the only handle");
    // The toy set's 64-bit ring: every transform once per CRT prime.
    assert_modelled_transform_counts(&tel, TfheParams::toy(), 2);
    // Set I's ring, gadget and noise (32-bit precision, one prime); the
    // LWE dimension only sets the step count and is cut for debug builds.
    // `(k+1)·l_b = 6` forward and `k+1 = 2` inverse per step, no factor.
    let set_i_ring = TfheParams { lwe_dim: 16, ..TfheParams::set_i() };
    assert_modelled_transform_counts(&tel, set_i_ring, 1);
}
