//! Model = implementation: one bootstrap performs exactly the transforms
//! `metaop::counts::pbs` charges it — per CRT prime and per blind-rotation
//! step, `(k+1)·l_b` forward and `k+1` inverse NTTs.
//!
//! Its own test binary: the telemetry handle is process-global.

use fhe_tfhe::{generate_keys, TfheParams, ONE_EIGHTH};
use rand::SeedableRng;

/// The exact multiplier works modulo two NTT primes.
const CRT_PRIMES: u64 = 2;

#[test]
fn bootstrap_records_the_modelled_transform_counts() {
    let tel = telemetry::Telemetry::enabled();
    assert!(telemetry::install(tel.clone()), "this binary installs the only handle");
    let params = TfheParams::toy();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(12);
    let (client, server) = generate_keys(&params, &mut rng).unwrap();
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
    server
        .pbs()
        .bootstrap(server.bootstrapping_key(), server.key_switch_key(), &ct, &testv)
        .unwrap();
    let after = tel.snapshot();
    let recorded = |name: &str| after.named_counter(name) - before.named_counter(name);

    let k1 = params.glwe_dim as u64 + 1;
    let levels = params.pbs_levels as u64;
    assert_eq!(recorded("tfhe.ntt.forward"), CRT_PRIMES * steps * k1 * levels);
    assert_eq!(recorded("tfhe.ntt.inverse"), CRT_PRIMES * steps * k1);
    let timer = after.histogram("tfhe.external_product").expect("external-product timer");
    assert_eq!(timer.count, steps, "one external product per counted step");
}
