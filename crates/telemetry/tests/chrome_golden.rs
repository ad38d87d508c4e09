//! Golden bytes for the two Chrome `trace_event` documents the crate
//! writes: the exit-time trace ([`Snapshot::to_chrome_trace`], behind every
//! `--trace-out`) and the post-mortem dump
//! ([`FlightRecorder::dump_chrome_trace`], behind every `fault_dump`).
//!
//! The fixtures use only caller-supplied values (virtual-time spans,
//! explicit counters, hand-built flight events), so the documents repeat
//! exactly; anything that changes a byte of either shows up here.

use telemetry::{FlightEvent, FlightRecorder, Metric, OpClassKey, Telemetry};

#[test]
fn snapshot_trace_bytes_are_pinned() {
    let tel = Telemetry::enabled();
    tel.set_meta("threads", "4");
    let mut track = tel.virtual_track();
    track.open("sim.run", 0);
    track.leaf("sim.step.ntt", 0, 1500);
    track.leaf("sim.step.bconv", 1500, 250);
    track.close(1750);
    tel.count(Metric::MetaOps, OpClassKey::Ntt, 42);
    tel.count_named("fault.bitflip.injected", 3);
    tel.observe_ns("kernel.ntt", 1234);
    let expected = concat!(
        r#"{"traceEvents":["#,
        r#"{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"alchemist"}},"#,
        r#"{"ph":"M","pid":1,"tid":0,"name":"alchemist.meta","args":{"threads":"4"}},"#,
        r#"{"ph":"X","pid":1,"tid":1000,"ts":0,"dur":1.75,"cat":"simulated","name":"sim.run","args":{}},"#,
        r#"{"ph":"X","pid":1,"tid":1000,"ts":0,"dur":1.5,"cat":"simulated","name":"sim.step.ntt","args":{}},"#,
        r#"{"ph":"X","pid":1,"tid":1000,"ts":1.5,"dur":0.25,"cat":"simulated","name":"sim.step.bconv","args":{}},"#,
        r#"{"ph":"C","pid":1,"tid":0,"ts":0,"name":"meta_ops.ntt","args":{"value":42}},"#,
        r#"{"ph":"C","pid":1,"tid":0,"ts":0,"name":"fault.bitflip.injected","args":{"value":3}},"#,
        r#"{"ph":"C","pid":1,"tid":0,"ts":0,"name":"hist.kernel.ntt","args":{"p50_us":1.234,"p90_us":1.234,"p99_us":1.234,"max_us":1.234,"count":1}}"#,
        r#"],"displayTimeUnit":"ns"}"#,
    );
    assert_eq!(tel.snapshot().to_chrome_trace(), expected);
}

#[test]
fn flight_dump_bytes_are_pinned() {
    let rec = FlightRecorder::new(8);
    rec.record(FlightEvent::Span {
        name: "svc.request".into(),
        tid: 0,
        start_ns: 1500,
        dur_ns: 2250,
        allocs: 3,
        alloc_bytes: 4096,
    });
    rec.record(FlightEvent::Span {
        name: "sim.step".into(),
        tid: 1000,
        start_ns: 0,
        dur_ns: 100,
        allocs: 0,
        alloc_bytes: 0,
    });
    rec.record(FlightEvent::Count { name: "fault.injected".into(), amount: 1, at_ns: 150 });
    let expected = concat!(
        r#"{"traceEvents":["#,
        r#"{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"alchemist-flight"}},"#,
        r#"{"ph":"X","pid":1,"tid":0,"ts":1.5,"dur":2.25,"cat":"wall","name":"svc.request","args":{"allocs":3,"alloc_bytes":4096}},"#,
        r#"{"ph":"X","pid":1,"tid":1000,"ts":0,"dur":0.1,"cat":"simulated","name":"sim.step","args":{}},"#,
        r#"{"ph":"C","pid":1,"tid":0,"ts":0.15,"name":"fault.injected","args":{"value":1}}"#,
        r#"],"displayTimeUnit":"ns"}"#,
    );
    assert_eq!(rec.dump_chrome_trace(), expected);
}
