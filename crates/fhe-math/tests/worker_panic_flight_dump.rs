//! A contained worker panic must auto-emit a flight-recorder dump: the
//! `run_contained` error path in `par` calls
//! [`telemetry::flight::fault_dump`], so an operator who configured a dump
//! directory gets the last ring of events as a Perfetto-loadable trace
//! fragment without any cooperation from the failing workload.
//!
//! Lives in its own integration-test binary because it owns the
//! process-global telemetry handle and the panic injector.

use fhe_math::par;

#[test]
fn contained_worker_panic_writes_flight_dump() {
    let dir = std::env::temp_dir().join(format!("alchemist-flight-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let tel = telemetry::Telemetry::enabled();
    tel.attach_flight_recorder(telemetry::FlightRecorder::with_default_capacity());
    assert!(telemetry::install(tel.clone()), "first install in this binary");
    telemetry::flight::set_fault_dump_dir(Some(dir.clone()));

    // Put some history in the ring so the dump has context to show.
    for i in 0..32u64 {
        tel.count_named("pre_fault.work", i);
        drop(tel.span("pre_fault.step"));
    }

    // Silence the default panic hook for the contained unwind so test
    // output stays clean.
    par::inject_worker_panic(0);
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut v = vec![0u64; 64];
    let err = par::par_iter_mut(&mut v, |i, x| *x = i as u64).unwrap_err();
    std::panic::set_hook(hook);
    telemetry::flight::set_fault_dump_dir(None);

    assert_eq!(err.chunk, 0);
    assert_eq!(tel.snapshot().named_counter("par.worker_panic.contained"), 1);

    let dumps: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .filter(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            name.starts_with("flight-") && name.ends_with("-worker_panic.json")
        })
        .collect();
    assert_eq!(dumps.len(), 1, "exactly one dump for one contained panic");

    let text = std::fs::read_to_string(dumps[0].path()).unwrap();
    assert!(!text.is_empty());
    let doc = telemetry::json::parse(&text).expect("dump must be valid JSON");
    let events = doc.get("traceEvents").expect("Chrome-trace fragment shape");
    match events {
        telemetry::json::Json::Arr(items) => {
            assert!(!items.is_empty(), "dump must carry the pre-fault ring");
        }
        other => panic!("traceEvents must be an array, got {other:?}"),
    }

    std::fs::remove_dir_all(&dir).ok();
}
