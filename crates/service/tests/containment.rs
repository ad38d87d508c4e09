//! Degradation-not-death, end to end: every fault class in the
//! containment lattice fails exactly the request it rides on, produces
//! exactly one flight-recorder fault dump, and leaves the server
//! serving.
//!
//! One test function for the fault classes on purpose: the fault-dump
//! directory and the global telemetry handle are process-wide, so the
//! dump counts are asserted sequentially in a single place. Unencodable
//! payloads are not faults (no dump, no breaker), so their containment
//! case runs beside it on a server of its own.

use std::path::PathBuf;
use std::sync::mpsc::Receiver;

use service::request::{FaultFlag, OpKind, Payload, Request, Scheme};
use service::{Completion, Server, ServerConfig, ServiceError, INJECTED_SERVICE_PANIC};

fn dump_count(dir: &PathBuf) -> usize {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().starts_with("flight-"))
                .count()
        })
        .unwrap_or(0)
}

/// `x² + 3` — one level, packs with its same-tenant clones.
fn quad(tenant: u64, fault: FaultFlag) -> Request {
    Request {
        tenant,
        scheme: Scheme::Ckks,
        ops: vec![OpKind::Input, OpKind::Square { arg: 0 }, OpKind::AddConst { arg: 1, c: 3.0 }],
        payload: Payload::CkksSlots(vec![0.5; 4]),
        fault,
    }
}

fn submit_all(server: &Server, reqs: Vec<Request>) -> Vec<Completion> {
    let receivers: Vec<Receiver<Completion>> =
        reqs.into_iter().map(|r| server.submit(r).expect("admitted")).collect();
    receivers.into_iter().map(|rx| rx.recv().expect("completion arrives")).collect()
}

fn assert_one_contained(
    done: &[Completion],
    faulted: usize,
    check: impl Fn(&ServiceError) -> bool,
) {
    for (i, c) in done.iter().enumerate() {
        if i == faulted {
            let e = c.result.as_ref().expect_err("faulted request fails");
            assert!(check(e), "wrong error class: {e}");
            assert!(e.is_contained_fault());
        } else {
            let values = c.result.as_ref().unwrap_or_else(|e| {
                panic!("clean member {i} must survive the faulted batch, got {e}")
            });
            assert!((values[0] - 3.25).abs() < 1e-2, "x²+3 over 0.5, got {}", values[0]);
        }
    }
}

#[test]
fn each_fault_class_fails_exactly_one_request_with_one_dump() {
    let dir = std::env::temp_dir().join(format!("svc-containment-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let tel = telemetry::Telemetry::enabled();
    assert!(tel.attach_flight_recorder(telemetry::FlightRecorder::new(256)));
    telemetry::install(tel.clone());
    telemetry::flight::set_fault_dump_dir(Some(dir.clone()));
    // The injected panics are expected; keep the test output clean.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .map(|s| s.as_str() == INJECTED_SERVICE_PANIC)
            .unwrap_or(false);
        if !injected {
            prev_hook(info);
        }
    }));

    let server =
        Server::start(ServerConfig { workers: 2, telemetry: tel, ..Default::default() }).unwrap();
    assert_eq!(dump_count(&dir), 0);

    // Noise-budget exhaustion: 4 clean + 1 burning, same tenant and
    // program so the packer is free to coalesce them.
    let mut reqs: Vec<Request> = (0..5).map(|_| quad(7, FaultFlag::None)).collect();
    reqs[2].fault = FaultFlag::BudgetBurn;
    let done = submit_all(&server, reqs);
    assert_one_contained(&done, 2, |e| matches!(e, ServiceError::BudgetExhausted { .. }));
    assert_eq!(dump_count(&dir), 1, "exactly one dump for one contained fault");

    // Worker panic: the unwind is caught, classified, and dumped.
    let mut reqs: Vec<Request> = (0..3).map(|_| quad(7, FaultFlag::None)).collect();
    reqs[0].fault = FaultFlag::WorkerPanic;
    let done = submit_all(&server, reqs);
    assert_one_contained(
        &done,
        0,
        |e| matches!(e, ServiceError::WorkerPanic { detail } if detail == INJECTED_SERVICE_PANIC),
    );
    assert_eq!(dump_count(&dir), 2);

    // Ciphertext corruption: the integrity checksum refuses it.
    let mut reqs: Vec<Request> = (0..3).map(|_| quad(7, FaultFlag::None)).collect();
    reqs[1].fault = FaultFlag::BitFlip;
    let done = submit_all(&server, reqs);
    assert_one_contained(&done, 1, |e| matches!(e, ServiceError::IntegrityViolation { .. }));
    assert_eq!(dump_count(&dir), 3);

    // No batch-mates: a lone CKKS request and a TFHE gate, each alone in
    // the queue, fail on the one-member path with their panic classified.
    let injected_panic = |e: &ServiceError| matches!(e, ServiceError::WorkerPanic { detail } if detail == INJECTED_SERVICE_PANIC);
    let nand = Request {
        tenant: 9,
        scheme: Scheme::Tfhe,
        ops: vec![
            OpKind::Input,
            OpKind::Input,
            OpKind::Mul { a: 0, b: 1 },
            OpKind::Negate { arg: 2 },
        ],
        payload: Payload::TfheBits(vec![true, false]),
        fault: FaultFlag::WorkerPanic,
    };
    for (lone, dumps) in [(quad(9, FaultFlag::WorkerPanic), 4), (nand, 5)] {
        let done = submit_all(&server, vec![lone]);
        assert_eq!(done[0].batch_size, 1, "ran alone");
        assert_one_contained(&done, 0, injected_panic);
        assert_eq!(dump_count(&dir), dumps);
    }

    // Degradation, not death: the server still answers afterwards.
    let done = submit_all(&server, vec![quad(8, FaultFlag::None)]);
    assert!((done[0].result.as_ref().unwrap()[0] - 3.25).abs() < 1e-2);

    let faulted = 5;
    let stats = server.finish();
    assert_eq!(stats.failed, faulted, "only the faulted requests failed");
    assert_eq!(stats.faults_contained, faulted, "every failure was classified");
    assert_eq!(stats.completed_ok, stats.submitted - faulted);
    assert_eq!(dump_count(&dir) as u64, faulted, "one dump per contained fault");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A payload the encoder cannot represent must cost its own request
/// only. `run_batch` encodes the members' slots as one vector, so a
/// member that got as far as a packed batch would otherwise take its
/// batch-mates' answers with it (or, before the encoder checked, turn
/// the whole batch into `f(0)`).
#[test]
fn an_unencodable_payload_fails_only_its_own_request() {
    // One worker and a backlog, so the packer has same-tenant company
    // for the oversized member.
    let server = Server::start(ServerConfig { workers: 1, ..Default::default() }).unwrap();

    // Non-finite: refused at admission, before it can join a batch.
    let mut nan = quad(7, FaultFlag::None);
    nan.payload = Payload::CkksSlots(vec![0.5, f64::NAN, 0.5, 0.5]);
    let e = server.submit(nan).expect_err("NaN payload is refused synchronously");
    assert!(matches!(e, ServiceError::InvalidRequest { .. }), "{e}");

    // Finite but beyond the scale's 62-bit coefficient range: passes
    // admission, reaches the (packed) batch, fails alone at encode.
    let mut reqs: Vec<Request> = (0..6).map(|_| quad(7, FaultFlag::None)).collect();
    reqs[3].payload = Payload::CkksSlots(vec![0.5, 1e30, 0.5, 0.5]);
    let done = submit_all(&server, reqs);
    for (i, c) in done.iter().enumerate() {
        if i == 3 {
            let e = c.result.as_ref().expect_err("oversized payload fails");
            assert!(matches!(e, ServiceError::InvalidRequest { .. }), "{e}");
            assert!(!e.is_contained_fault());
        } else {
            let values = c.result.as_ref().unwrap_or_else(|e| panic!("batch-mate {i}: {e}"));
            assert!((values[0] - 3.25).abs() < 1e-2, "x²+3 over 0.5, got {}", values[0]);
        }
    }
    let stats = server.finish();
    assert_eq!(stats.failed, 1, "only the oversized request failed");
    assert_eq!(stats.faults_contained, 0, "a bad payload is not a fault");
    assert_eq!(stats.completed_ok, 5);
}
