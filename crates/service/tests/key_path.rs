//! The cold-tenant key path: a miss draws the secret only, the first
//! multiplying request draws the relinearization key — outside the cache
//! lock, once per entry, bit-identical to the key an eager draw makes.

use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Barrier};

use fhe_ckks::{CkksContext, CkksParams, RelinKey, SecretKey};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use service::request::FaultFlag;
use service::trace::Template;
use service::{exec, KeyCache, Payload, Request, Scheme, Server, ServerConfig, ServiceError};

fn ctx() -> CkksContext {
    CkksContext::new(CkksParams::toy().unwrap()).unwrap()
}

/// The tenant stream of DESIGN.md §16: ChaCha8 seeded with
/// `seed ⊕ tenant·φ`, secret first, then the relinearization key.
fn eager_keys(ctx: &CkksContext, seed: u64, tenant: u64) -> (SecretKey, RelinKey) {
    let mut stream = ChaCha8Rng::seed_from_u64(seed ^ tenant.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let sk = SecretKey::generate(ctx, &mut stream).unwrap();
    let rlk = RelinKey::generate(ctx, &sk, &mut stream).unwrap();
    (sk, rlk)
}

fn assert_same_key(got: &RelinKey, want: &RelinKey) {
    let (got, want) = (got.switch_key().digit_keys(), want.switch_key().digit_keys());
    assert_eq!(got.len(), want.len(), "digit count");
    for (d, ((gb, ga), (wb, wa))) in got.iter().zip(want).enumerate() {
        assert_eq!(gb.num_channels(), wb.num_channels(), "digit {d} channel count");
        for c in 0..wb.num_channels() {
            assert_eq!(gb.channel(c).coeffs(), wb.channel(c).coeffs(), "digit {d} channel {c}: b");
            assert_eq!(ga.channel(c).coeffs(), wa.channel(c).coeffs(), "digit {d} channel {c}: a");
        }
    }
}

fn request(tenant: u64, template: Template, x: f64) -> Request {
    Request {
        tenant,
        scheme: Scheme::Ckks,
        ops: template.ops(),
        payload: Payload::CkksSlots(vec![x; 4]),
        fault: FaultFlag::None,
    }
}

fn run(server: &Server, tenant: u64, template: Template) -> Result<Vec<f64>, ServiceError> {
    let req = request(tenant, template, 0.5);
    let want = template.expected(&req.payload);
    let done = server.submit(req).expect("admitted").recv().expect("answered");
    let got = done.result?;
    for (w, g) in want.iter().zip(&got) {
        assert!((w - g).abs() < 1e-2, "{template:?}: {g} where {w} was due");
    }
    Ok(got)
}

fn one_worker() -> Server {
    let telemetry = telemetry::Telemetry::disabled();
    Server::start(ServerConfig { workers: 1, telemetry, ..ServerConfig::default() }).unwrap()
}

#[test]
fn lazy_rlk_equals_the_eager_key_digit_by_digit_and_channel_by_channel() {
    let c = ctx();
    let seed = 0x5eed;
    let mut cache = KeyCache::new(1, seed);
    for tenant in [3u64, 1 << 40] {
        let (sk, rlk) = eager_keys(&c, seed, tenant);
        let draws = cache.stats().rlk_draws();
        let keys = cache.get_ckks(tenant, &c).unwrap();
        assert_eq!(keys.sk.coefficients(), sk.coefficients(), "tenant {tenant}: secret");
        assert_eq!(cache.stats().rlk_draws(), draws, "a miss draws the secret only");
        assert_same_key(keys.rlk(&c).unwrap(), &rlk);
        // A TFHE upgrade carries the drawn key over instead of redrawing.
        let draws = cache.stats().rlk_draws();
        let upgraded = cache.get_tfhe(tenant, &c, &fhe_tfhe::TfheParams::toy()).unwrap();
        assert_eq!(upgraded.sk.coefficients(), sk.coefficients());
        assert!(std::ptr::eq(upgraded.rlk(&c).unwrap(), keys.rlk(&c).unwrap()));
        assert_eq!(cache.stats().rlk_draws(), draws);
    }
    // The second tenant evicted the first; its key is drawn again, equal.
    let keys = cache.get_ckks(3, &c).unwrap();
    assert_same_key(keys.rlk(&c).unwrap(), &eager_keys(&c, seed, 3).1);
    assert_eq!(cache.stats().rlk_draws(), 3);
}

#[test]
fn only_multiplying_requests_draw_the_relinearization_key() {
    let server = one_worker();
    let draws = || server.key_cache_stats().rlk_draws();
    run(&server, 1, Template::Saxpb).unwrap();
    run(&server, 1, Template::Cross).unwrap();
    assert_eq!(draws(), 0, "Saxpb and Cross never relinearize");
    run(&server, 1, Template::Quad).unwrap();
    assert_eq!(draws(), 1, "the first Quad draws it");
    run(&server, 1, Template::Quad).unwrap();
    run(&server, 1, Template::Prod).unwrap();
    run(&server, 1, Template::Quartic).unwrap();
    assert_eq!(draws(), 1, "and every later multiplication reuses it");
    run(&server, 2, Template::Quad).unwrap();
    assert_eq!(draws(), 2, "one per tenant entry");
    assert_eq!(server.key_cache_stats().misses(), 2);
}

#[test]
fn two_threads_multiplying_on_one_cold_entry_draw_it_once() {
    let c = ctx();
    let req = request(9, Template::Quad, 0.5);
    let plan = service::compile(&req, &c).unwrap();
    let mut cache = KeyCache::new(16, 11);
    for tenant in 0..8u64 {
        let keys = cache.get_ckks(tenant, &c).unwrap();
        let start = Barrier::new(2);
        let drawn: Vec<usize> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..2u64)
                .map(|t| {
                    let (c, keys, plan, start) = (&c, Arc::clone(&keys), &plan, &start);
                    s.spawn(move || {
                        let mut rng = ChaCha8Rng::seed_from_u64(t);
                        start.wait();
                        let cancel = AtomicBool::new(false);
                        let slots = [0.5; 4];
                        let out = exec::execute_ckks(
                            c,
                            &keys,
                            plan,
                            &slots,
                            FaultFlag::None,
                            0,
                            &mut rng,
                            &cancel,
                        )
                        .unwrap();
                        assert!((out[0] - 3.25).abs() < 1e-2, "x² + 3 over 0.5, got {}", out[0]);
                        keys.rlk(c).unwrap() as *const RelinKey as usize
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        assert_eq!(drawn[0], drawn[1], "tenant {tenant}: both threads hold one key");
        assert_eq!(cache.stats().rlk_draws(), tenant + 1, "tenant {tenant}: drawn once");
    }
}
