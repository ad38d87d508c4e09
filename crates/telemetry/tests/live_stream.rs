//! End-to-end tests for the live telemetry runtime: concurrent writers
//! against a fast sampler, and exposition-file equality with the
//! exit-time state.
//!
//! These use *local* handles (never [`telemetry::install`]) so each test
//! is independent of global-handle state in this binary.

use std::io;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use telemetry::delta::{Cursor, DeltaSnapshot};
use telemetry::sampler::{Sample, SampleSink, SamplerBuilder};
use telemetry::{expo, JsonlSink, PrometheusSink, Telemetry};

/// Merges every interval delta it sees, exactly as a remote aggregator
/// consuming the stream would.
struct MergingSink {
    merged: Arc<Mutex<DeltaSnapshot>>,
}

impl SampleSink for MergingSink {
    fn on_sample(&mut self, sample: &Sample<'_>) -> io::Result<()> {
        self.merged.lock().unwrap().merge(sample.delta);
        Ok(())
    }
}

/// Satellite stress test: four threads hammer `count_named` and
/// `observe_ns` while a 1 ms sampler streams deltas. The sum of all
/// interval deltas must equal the final full snapshot *exactly* — no
/// increment lost to a capture boundary, none double-counted.
#[test]
fn concurrent_deltas_sum_to_final_snapshot() {
    const THREADS: usize = 4;
    const ITERS: u64 = 2_000;

    let tel = Telemetry::enabled();
    let merged = Arc::new(Mutex::new(DeltaSnapshot::default()));
    let sampler = SamplerBuilder::new(tel.clone(), Duration::from_millis(1))
        .sink(MergingSink { merged: Arc::clone(&merged) })
        .spawn();

    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let tel = tel.clone();
            std::thread::spawn(move || {
                let counter = format!("stress.thread{t}.events");
                let hist = format!("stress.thread{t}.latency");
                for i in 0..ITERS {
                    tel.count_named(&counter, 1 + (i % 3));
                    tel.count_named("stress.shared", 1);
                    tel.observe_ns(&hist, 100 + t as u64 * 1_000 + i);
                    if i % 250 == 0 {
                        // Spread the writes across several sampler ticks so
                        // the merge genuinely crosses capture boundaries.
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("stress thread panicked");
    }
    let stats = sampler.stop();
    assert!(stats.ticks >= 2, "1 ms sampler should have ticked: {stats:?}");
    assert_eq!(stats.sink_errors, 0);

    let merged = merged.lock().unwrap();
    let snap = tel.snapshot();

    // Every named counter, exactly.
    let expected_per_thread: u64 = (0..ITERS).map(|i| 1 + (i % 3)).sum();
    for t in 0..THREADS {
        let name = format!("stress.thread{t}.events");
        assert_eq!(merged.named.get(&name).copied(), Some(expected_per_thread), "{name}");
        assert_eq!(snap.named_counter(&name), expected_per_thread);
    }
    assert_eq!(merged.named.get("stress.shared").copied(), Some(THREADS as u64 * ITERS));
    assert_eq!(snap.named_counter("stress.shared"), THREADS as u64 * ITERS);

    // Every histogram: count, exact sum, and every single bucket.
    let mut full_cursor = Cursor::new();
    let full = tel.snapshot_delta(&mut full_cursor);
    assert_eq!(merged.hists.len(), full.hists.len());
    for (name, h) in &full.hists {
        let m = merged.hists.get(name).unwrap_or_else(|| panic!("missing hist {name}"));
        assert_eq!(m.count(), h.count(), "{name} count");
        assert_eq!(m.sum(), h.sum(), "{name} sum");
        assert_eq!(
            m.occupied_buckets().collect::<Vec<_>>(),
            h.occupied_buckets().collect::<Vec<_>>(),
            "{name} buckets"
        );
        let row = snap.histogram(name).unwrap_or_else(|| panic!("snapshot missing {name}"));
        assert_eq!(row.count, h.count());
        assert_eq!(row.sum_ns, h.sum());
    }
}

/// The Prometheus file the sampler leaves behind at shutdown must equal
/// the exit-time state for every counter and histogram bucket — byte for
/// byte the same exposition a fresh full-range delta renders to.
///
/// The allocator dimension is excluded from the byte-for-byte check: its
/// census is process-global (this test binary's other threads allocate
/// concurrently), so it keeps advancing between the sampler's final
/// capture and our fresh delta. We assert its families are present
/// instead.
fn strip_alloc_dimension(text: &str) -> String {
    text.lines()
        .filter(|l| !l.contains("alloc") && !l.contains("alchemist_gauge"))
        .flat_map(|l| [l, "\n"])
        .collect()
}

#[test]
fn exposition_file_matches_exit_snapshot() {
    let dir = std::env::temp_dir().join(format!(
        "alchemist-live-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let prom = dir.join("metrics.prom");
    let jsonl = dir.join("metrics.jsonl");

    let tel = Telemetry::enabled();
    let sampler = SamplerBuilder::new(tel.clone(), Duration::from_millis(1))
        .sink(PrometheusSink::new(&prom))
        .sink(JsonlSink::create(&jsonl).unwrap())
        .spawn();

    for i in 0..500u64 {
        tel.count_named("live.ticks", 2);
        tel.observe_ns("live.latency", 50 + i * 7);
        if i % 50 == 0 {
            // Give the 1 ms sampler a chance to take mid-run captures so
            // the final file is genuinely a merge of many deltas.
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    let stats = sampler.stop();
    assert!(stats.ticks >= 2, "expected mid-run ticks: {stats:?}");

    // A fresh cursor's first delta covers the handle's whole life; with no
    // gauge sources configured the file must render identically.
    let full = tel.snapshot_delta(&mut Cursor::new());
    let expected = expo::render(&full, &[]);
    let got = std::fs::read_to_string(&prom).unwrap();
    assert_eq!(
        strip_alloc_dimension(&got),
        strip_alloc_dimension(&expected),
        "exposition file diverged from exit-time state"
    );
    assert!(got.contains("alchemist_events_total{name=\"live.ticks\"} 1000"), "{got}");
    assert!(got.contains("alchemist_alloc_total{kind=\"allocs\"}"), "{got}");
    assert!(got.contains("alchemist_gauge{name=\"alloc.live_bytes\"}"), "{got}");

    // The JSONL stream's interval values must also sum to the exit state.
    let mut jsonl_total = 0u64;
    let mut lines = 0usize;
    for line in std::fs::read_to_string(&jsonl).unwrap().lines() {
        let doc = telemetry::json::parse(line).expect("jsonl line parses");
        if let Some(v) = doc.get("named").and_then(|n| n.get("live.ticks")) {
            jsonl_total += v.as_f64().unwrap() as u64;
        }
        lines += 1;
    }
    assert_eq!(lines as u64, stats.ticks);
    assert_eq!(jsonl_total, 1000);

    std::fs::remove_dir_all(&dir).ok();
}
