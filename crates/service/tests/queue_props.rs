//! Property tests for the admission queue: bounded depth, immediate
//! (never blocking) rejection at capacity, and per-tenant fairness under
//! a 90/10 flood — the overload behavior the service promises tenants.

use std::collections::HashMap;
use std::time::Duration;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use service::request::{FaultFlag, OpKind, Payload, Request, Scheme};
use service::{AdmissionConfig, AdmissionQueue, Server, ServerConfig, ServiceError};

#[test]
fn depth_and_share_invariants_hold_under_random_traffic() {
    for seed in 0..8u64 {
        let cfg =
            AdmissionConfig { capacity: 32, tenant_share: 0.25, ..AdmissionConfig::default() };
        let cap = cfg.tenant_cap();
        let queue: AdmissionQueue<u64> = AdmissionQueue::new(cfg);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut held: HashMap<u64, usize> = HashMap::new();
        let mut depth = 0usize;
        for step in 0..2_000u64 {
            if rng.gen::<f64>() < 0.6 {
                let tenant = rng.gen_range(0..6u64);
                match queue.offer(tenant, step) {
                    Ok(()) => {
                        depth += 1;
                        *held.entry(tenant).or_insert(0) += 1;
                        assert!(depth <= 32, "queue overfilled (seed {seed})");
                        assert!(
                            held[&tenant] <= cap,
                            "tenant {tenant} exceeded its share (seed {seed})"
                        );
                    }
                    Err(ServiceError::Rejected { retry_after_ms, reason }) => {
                        assert!(retry_after_ms >= 5, "hint below base");
                        match reason {
                            "queue-full" => assert_eq!(depth, 32),
                            "tenant-share" => assert_eq!(
                                held.get(&tenant).copied().unwrap_or(0),
                                cap,
                                "share rejection below the cap (seed {seed})"
                            ),
                            other => panic!("unexpected reason {other}"),
                        }
                    }
                    Err(e) => panic!("unexpected error {e}"),
                }
            } else if let Some((tenant, _)) = queue.take(Duration::from_millis(0)) {
                depth -= 1;
                *held.get_mut(&tenant).expect("tenant held a slot") -= 1;
            }
            assert_eq!(queue.len(), depth);
        }
    }
}

#[test]
fn full_queue_rejects_immediately_with_max_pressure_hint() {
    let cfg = AdmissionConfig { capacity: 16, tenant_share: 1.0, ..AdmissionConfig::default() };
    let queue: AdmissionQueue<u64> = AdmissionQueue::new(cfg);
    for i in 0..16 {
        queue.offer(i, i).unwrap();
    }
    // Every offer against the full queue fails synchronously with the
    // 4x-base hint — no blocking, no queueing behind the cap.
    let t0 = std::time::Instant::now();
    for i in 0..100 {
        let e = queue.offer(100 + i, i).unwrap_err();
        let ServiceError::Rejected { retry_after_ms, reason } = e else {
            panic!("expected rejection, got {e:?}");
        };
        assert_eq!(reason, "queue-full");
        // base * (1 + 3.0) = 20 is the floor; seeded jitter adds at most
        // half the scaled hint on top so herds don't retry in lockstep.
        assert!(
            (20..=30).contains(&retry_after_ms),
            "full queue hints in [4x base, 6x base], got {retry_after_ms}"
        );
    }
    assert!(
        t0.elapsed() < Duration::from_millis(500),
        "100 rejections must be immediate, took {:?}",
        t0.elapsed()
    );
    assert_eq!(queue.stats().rejected_full(), 100);
    assert_eq!(queue.len(), 16, "rejected items never land in the queue");
}

/// The 90/10 fairness property: a tenant submitting 90% of the traffic
/// saturates at its share while the 10% tail keeps being admitted.
#[test]
fn flooding_tenant_saturates_at_share_while_tail_is_admitted() {
    for seed in 0..4u64 {
        let cfg =
            AdmissionConfig { capacity: 40, tenant_share: 0.25, ..AdmissionConfig::default() };
        let cap = cfg.tenant_cap(); // 10 slots
        let queue: AdmissionQueue<u64> = AdmissionQueue::new(cfg);
        let mut rng = ChaCha8Rng::seed_from_u64(0xFA1A + seed);
        let flooder = 0u64;
        let mut depth = 0usize;
        let mut flooder_held = 0usize;
        let mut flooder_rejects = 0u64;
        let mut tail_accepts = 0u64;
        // Nothing drains: the flooder should pin its cap and then bounce,
        // while distinct tail tenants (1 slot each) fill the rest — until
        // the queue itself is full, where capacity rejects everyone.
        for i in 0..200u64 {
            let tenant = if rng.gen::<f64>() < 0.9 { flooder } else { 1 + i };
            match queue.offer(tenant, i) {
                Ok(()) => {
                    depth += 1;
                    if tenant == flooder {
                        flooder_held += 1;
                        assert!(flooder_held <= cap, "flooder broke its cap (seed {seed})");
                    } else {
                        tail_accepts += 1;
                    }
                }
                Err(ServiceError::Rejected { reason, .. }) => {
                    if tenant == flooder {
                        // Below global capacity, the flooder is always a
                        // share rejection; at capacity everyone bounces.
                        let want = if depth < 40 { "tenant-share" } else { "queue-full" };
                        assert_eq!(reason, want, "seed {seed}, depth {depth}");
                        flooder_rejects += 1;
                    } else {
                        // Distinct tail tenants hold one slot each, far
                        // under the cap: only a full queue rejects them.
                        assert_eq!(reason, "queue-full", "seed {seed}, depth {depth}");
                        assert_eq!(depth, 40, "seed {seed}");
                    }
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert_eq!(flooder_held, cap, "flooder pinned exactly its share (seed {seed})");
        assert!(flooder_rejects > 100, "flooder was mostly rejected (seed {seed})");
        assert!(tail_accepts >= cap as u64, "tail kept landing (seed {seed})");
    }
}

/// The same fairness property end to end through `Server::submit`: the
/// rejection is synchronous, carries a retry hint, and the flooded
/// server keeps answering the tail tenant.
#[test]
fn server_submit_rejects_flooder_with_retry_hint() {
    let server = Server::start(ServerConfig {
        workers: 1,
        admission: AdmissionConfig {
            capacity: 8,
            tenant_share: 0.25,
            ..AdmissionConfig::default()
        },
        ..ServerConfig::default()
    })
    .unwrap();
    let req = |tenant: u64| Request {
        tenant,
        scheme: Scheme::Ckks,
        ops: vec![OpKind::Input, OpKind::AddConst { arg: 0, c: 1.0 }],
        payload: Payload::CkksSlots(vec![0.25; 4]),
        fault: FaultFlag::None,
    };
    // Flood tenant 1 far past its 2-slot share; the worker drains some,
    // but the share cap guarantees rejections show up.
    let mut receivers = Vec::new();
    let mut hinted = false;
    for _ in 0..200 {
        match server.submit(req(1)) {
            Ok(rx) => receivers.push(rx),
            Err(ServiceError::Rejected { retry_after_ms, reason }) => {
                assert!(retry_after_ms >= 5);
                assert!(reason == "tenant-share" || reason == "queue-full");
                hinted = true;
            }
            Err(e) => panic!("unexpected error {e}"),
        }
    }
    assert!(hinted, "a 200-request flood against an 8-deep queue must bounce");
    assert!(server.queue_stats().rejected_share() > 0, "share cap engaged");
    // The tail tenant still gets an answer.
    let rx = loop {
        match server.submit(req(2)) {
            Ok(rx) => break rx,
            Err(ServiceError::Rejected { .. }) => std::thread::sleep(Duration::from_millis(2)),
            Err(e) => panic!("unexpected error {e}"),
        }
    };
    let done = rx.recv().expect("completion arrives");
    let values = done.result.expect("tail request succeeds");
    assert!((values[0] - 1.25).abs() < 1e-2, "x + 1 over 0.25, got {}", values[0]);
    for rx in receivers {
        let _ = rx.recv();
    }
}
