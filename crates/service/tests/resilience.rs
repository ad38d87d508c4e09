//! End-to-end resilience: stall detection and respawn, tenant
//! quarantine, and per-request deadlines.
//!
//! One test function per mechanism, but a single process-wide telemetry
//! setup (the fault-dump directory is global), so the dump-producing
//! test owns the directory assertions.

use std::sync::Arc;
use std::time::{Duration, Instant};

use faultsim::chaos::OutcomeLedger;
use service::request::{FaultFlag, OpKind, Payload, Request, Scheme};
use service::{BreakerConfig, BreakerState, Server, ServerConfig, ServiceError, SupervisorConfig};

fn quad(tenant: u64, fault: FaultFlag) -> Request {
    Request {
        tenant,
        scheme: Scheme::Ckks,
        ops: vec![OpKind::Input, OpKind::Square { arg: 0 }, OpKind::AddConst { arg: 1, c: 3.0 }],
        payload: Payload::CkksSlots(vec![0.5; 4]),
        fault,
    }
}

fn wait_until(budget: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + budget;
    loop {
        if cond() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn stalled_worker_is_confiscated_dumped_and_respawned() {
    let dir = std::env::temp_dir().join(format!("svc-resilience-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let tel = telemetry::Telemetry::enabled();
    assert!(tel.attach_flight_recorder(telemetry::FlightRecorder::new(256)));
    telemetry::install(tel.clone());
    telemetry::flight::set_fault_dump_dir(Some(dir.clone()));

    let workers = 2;
    let ledger = Arc::new(OutcomeLedger::new());
    let server = Server::start(ServerConfig {
        workers,
        telemetry: tel,
        supervisor: SupervisorConfig {
            interval: Duration::from_millis(10),
            stall_timeout: Duration::from_millis(30),
        },
        ledger: Some(Arc::clone(&ledger)),
        ..Default::default()
    })
    .unwrap();

    let started = Instant::now();
    let stall_rx = server.submit(quad(1, FaultFlag::WorkerStall { ms: 200 })).unwrap();
    let clean_rx = server.submit(quad(2, FaultFlag::None)).unwrap();

    // The clean request rides the other worker and is untouched.
    let clean = clean_rx.recv().unwrap();
    assert!((clean.result.unwrap()[0] - 3.25).abs() < 1e-2);

    // The stall is confiscated well before the injected 200 ms elapses:
    // the answer arrives on the watchdog's schedule, not the stall's.
    let stalled = stall_rx.recv().unwrap();
    let answered_after = started.elapsed();
    match stalled.result {
        Err(ServiceError::WorkerStalled { stalled_for_ms }) => {
            assert!(stalled_for_ms >= 30, "stall ran past the timeout, got {stalled_for_ms} ms");
        }
        other => panic!("expected WorkerStalled, got {other:?}"),
    }
    assert!(
        answered_after < Duration::from_millis(190),
        "confiscation must beat the stall itself, took {answered_after:?}"
    );

    // Pool strength recovers: a replacement worker takes the slot (the
    // displaced one retires once its sleep ends). The respawn is
    // recorded after the confiscated members are answered, so poll for
    // it rather than asserting instantly.
    assert!(
        wait_until(Duration::from_secs(5), || {
            let h = server.worker_health();
            h.respawns >= 1 && h.alive == workers
        }),
        "pool strength not restored: {:?}",
        server.worker_health()
    );
    assert!(server.worker_health().kicks >= 1, "watchdog must record the kick");

    // The watchdog fired a flight dump, and the server still serves.
    let dumps = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().starts_with("flight-"))
        .count();
    assert!(dumps >= 1, "watchdog confiscation must leave a flight dump");
    let after = server.submit(quad(3, FaultFlag::None)).unwrap().recv().unwrap();
    assert!((after.result.unwrap()[0] - 3.25).abs() < 1e-2);

    let stats = server.finish();
    assert_eq!(stats.stalled, 1, "exactly the stalled request failed as stalled");
    let summary = ledger.summary();
    assert_eq!(summary.lost(), 0);
    assert_eq!(summary.double_terminals, 0);
    assert_eq!(summary.unknown_terminals, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn poisonous_tenant_is_quarantined_and_recovers_through_probes() {
    let server = Server::start(ServerConfig {
        workers: 2,
        breaker: BreakerConfig {
            window: 8,
            threshold: 2,
            cooldown: Duration::from_millis(80),
            half_open_probes: 1,
        },
        ..Default::default()
    })
    .unwrap();
    let tenant = 9;

    // Two contained faults open the breaker.
    for _ in 0..2 {
        let done = server.submit(quad(tenant, FaultFlag::BudgetBurn)).unwrap().recv().unwrap();
        assert!(matches!(done.result, Err(ServiceError::BudgetExhausted { .. })));
    }
    assert_eq!(server.breaker().state(tenant), BreakerState::Open);

    // Quarantined: admission rejects with the dedicated reason, and
    // other tenants are unaffected.
    match server.submit(quad(tenant, FaultFlag::None)) {
        Err(ServiceError::Rejected { retry_after_ms, reason }) => {
            assert_eq!(reason, "tenant-quarantined");
            assert!((1..=80).contains(&retry_after_ms), "hint {retry_after_ms}");
        }
        other => panic!("quarantined tenant must be rejected, got {other:?}"),
    }
    let bystander = server.submit(quad(10, FaultFlag::None)).unwrap().recv().unwrap();
    assert!(bystander.result.is_ok(), "quarantine must not leak to other tenants");

    // After the cooldown a clean probe closes the breaker again.
    std::thread::sleep(Duration::from_millis(100));
    let probe = server.submit(quad(tenant, FaultFlag::None)).unwrap().recv().unwrap();
    assert!(probe.result.is_ok());
    assert_eq!(server.breaker().state(tenant), BreakerState::Closed);
    let stats = server.breaker().stats();
    assert_eq!(stats.opens(), 1);
    assert_eq!(stats.half_opens(), 1);
    assert_eq!(stats.closes(), 1);
    server.finish();
}

#[test]
fn deadlines_expire_before_work_and_generous_ones_complete() {
    let server = Server::start(ServerConfig { workers: 2, ..Default::default() }).unwrap();

    // A zero budget is already expired at admission; the worker must
    // refuse it without paying for any cryptography.
    let done = server
        .submit_with_deadline(quad(5, FaultFlag::None), Some(Duration::ZERO))
        .unwrap()
        .recv()
        .unwrap();
    match done.result {
        Err(ServiceError::DeadlineExceeded { expired_by_ms }) => {
            assert!(expired_by_ms >= 1, "reports how late it was");
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert!(!ServiceError::DeadlineExceeded { expired_by_ms: 1 }.is_contained_fault());

    // A generous budget completes normally.
    let ok = server
        .submit_with_deadline(quad(5, FaultFlag::None), Some(Duration::from_secs(30)))
        .unwrap()
        .recv()
        .unwrap();
    assert!((ok.result.unwrap()[0] - 3.25).abs() < 1e-2);

    let stats = server.finish();
    assert_eq!(stats.deadline_expired, 1);
    assert_eq!(stats.completed_ok, 1);
}
