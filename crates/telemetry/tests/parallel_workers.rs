//! Telemetry must stay coherent when driven from several worker threads at
//! once — the shape of the service's worker pool: counters aggregate
//! exactly, spans land on per-thread tracks, and the shared sink survives
//! concurrent access.

use telemetry::{Metric, OpClassKey, Telemetry};

/// Runs `f(i)` for `i` in `0..items` on `threads` scoped threads, each
/// owning one contiguous range of the items.
fn on_threads(threads: usize, items: usize, f: impl Fn(usize) + Sync) {
    let per = items.div_ceil(threads);
    std::thread::scope(|scope| {
        for t in 0..threads {
            let f = &f;
            scope.spawn(move || (t * per..items.min((t + 1) * per)).for_each(f));
        }
    });
}

#[test]
fn counters_exact_under_worker_threads() {
    let tel = Telemetry::enabled();
    let items = 1000usize;
    on_threads(4, items, |i| {
        let _span = tel.span("worker-item");
        tel.count(Metric::MetaOps, OpClassKey::Ntt, 1);
        tel.count(Metric::HbmBytes, OpClassKey::Transfer, 64 + (i as u64 % 2));
    });

    let snap = tel.snapshot();
    assert_eq!(snap.counter(Metric::MetaOps, OpClassKey::Ntt), items as u64);
    // Sum of 64 + (i % 2) over 0..1000 = 64*1000 + 500.
    assert_eq!(snap.counter(Metric::HbmBytes, OpClassKey::Transfer), 64_500);
    // Every item produced exactly one span, one track per worker thread.
    assert_eq!(snap.spans().iter().filter(|s| s.name == "worker-item").count(), items);
    let tids: std::collections::BTreeSet<u64> = snap.spans().iter().map(|s| s.tid).collect();
    assert_eq!(tids.len(), 4, "got {} worker tracks", tids.len());
}

#[test]
fn histograms_identical_one_thread_vs_four() {
    // Deterministic per-item durations spanning several octaves of the
    // log-linear bucket scheme.
    let dur = |i: usize| ((i as u64).wrapping_mul(0x9e37_79b9)) % 1_000_000;
    let run = |threads: usize| {
        let tel = Telemetry::enabled();
        on_threads(threads, 1000, |i| tel.observe_ns("kernel.probe", dur(i)));
        tel.snapshot()
    };
    let one = run(1);
    let four = run(4);
    let (s, p) = (
        one.histogram("kernel.probe").expect("one-thread histogram"),
        four.histogram("kernel.probe").expect("four-thread histogram"),
    );
    // Bucketed recording is commutative, so both runs must agree
    // bit-for-bit on every exported statistic, not just approximately.
    assert_eq!(s.count, p.count);
    assert_eq!(s.sum_ns, p.sum_ns);
    assert_eq!(s.max_ns, p.max_ns);
    assert_eq!((s.p50_ns, s.p90_ns, s.p99_ns), (p.p50_ns, p.p90_ns, p.p99_ns));
}

#[test]
fn counters_identical_one_thread_vs_four() {
    let run = |threads: usize| {
        let tel = Telemetry::enabled();
        on_threads(threads, 257, |i| tel.count(Metric::MetaOps, OpClassKey::Bconv, i as u64));
        tel.snapshot().counter(Metric::MetaOps, OpClassKey::Bconv)
    };
    assert_eq!(run(1), run(4), "counter totals must not depend on the thread count");
}
