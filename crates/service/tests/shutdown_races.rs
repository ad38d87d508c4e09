//! Shutdown races: whatever instant the server dies, every admitted
//! request still reaches exactly one terminal outcome (`Shutdown`
//! counts as one).

use std::sync::Arc;
use std::time::Duration;

use faultsim::chaos::OutcomeLedger;
use service::request::{FaultFlag, OpKind, Payload, Request, Scheme};
use service::{Server, ServerConfig, SupervisorConfig};

fn quad(tenant: u64, fault: FaultFlag) -> Request {
    Request {
        tenant,
        scheme: Scheme::Ckks,
        ops: vec![OpKind::Input, OpKind::Square { arg: 0 }, OpKind::AddConst { arg: 1, c: 3.0 }],
        payload: Payload::CkksSlots(vec![0.5; 4]),
        fault,
    }
}

fn assert_balanced(ledger: &OutcomeLedger, what: &str) {
    let summary = ledger.summary();
    assert_eq!(summary.lost(), 0, "{what}: lost requests {:?}", summary.missing);
    assert_eq!(summary.double_terminals, 0, "{what}: double terminals");
    assert_eq!(summary.unknown_terminals, 0, "{what}: unknown terminals");
    assert_eq!(summary.total_terminals(), summary.admitted, "{what}: terminal/admit mismatch");
}

#[test]
fn shutdown_now_mid_flight_gives_every_request_one_terminal() {
    let ledger = Arc::new(OutcomeLedger::new());
    let server = Server::start(ServerConfig {
        workers: 2,
        ledger: Some(Arc::clone(&ledger)),
        ..Default::default()
    })
    .unwrap();
    // Hold the receivers so dropped channels aren't a variable here.
    let receivers: Vec<_> =
        (0..40).map(|i| server.submit(quad(i % 5, FaultFlag::None)).unwrap()).collect();
    // Kill the server while most of those are still queued.
    let stats = server.shutdown_now();
    assert_balanced(&ledger, "shutdown_now");
    let summary = ledger.summary();
    assert_eq!(summary.admitted, 40);
    // Shutdown answers count toward the failed/ok split the stats see.
    assert_eq!(stats.completed_ok + stats.failed, 40);
    // Every receiver observes its single completion.
    for rx in receivers {
        let done = rx.recv().expect("one completion per request");
        assert!(done.result.is_ok() || done.result.is_err());
    }
}

#[test]
fn drop_mid_stall_and_mid_respawn_loses_nothing() {
    // Twice, at two different instants of the stall lifecycle: once
    // before the watchdog can possibly kick (the injected stall notices
    // `closing` and finishes early), once after it has kicked (the
    // terminal is `WorkerStalled` and the respawn races the drain).
    for (drop_after, what) in
        [(Duration::from_millis(5), "mid-stall"), (Duration::from_millis(120), "mid-respawn")]
    {
        let ledger = Arc::new(OutcomeLedger::new());
        let server = Server::start(ServerConfig {
            workers: 2,
            supervisor: SupervisorConfig {
                interval: Duration::from_millis(10),
                stall_timeout: Duration::from_millis(40),
            },
            ledger: Some(Arc::clone(&ledger)),
            ..Default::default()
        })
        .unwrap();
        let _stall_rx = server.submit(quad(1, FaultFlag::WorkerStall { ms: 500 })).unwrap();
        let _clean_rx = server.submit(quad(2, FaultFlag::None)).unwrap();
        std::thread::sleep(drop_after);
        drop(server); // Graceful drain via Drop, at an adversarial moment.
        assert_balanced(&ledger, what);
        assert_eq!(ledger.summary().admitted, 2, "{what}");
    }
}
