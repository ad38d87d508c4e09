//! End-to-end tests for the live telemetry runtime: concurrent writers
//! against a fast sampler, and the JSONL stream summing to the exit-time
//! state.
//!
//! These use *local* handles (never [`telemetry::install`]) so each test
//! is independent of global-handle state in this binary.

use std::io;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use telemetry::delta::{Cursor, DeltaSnapshot};
use telemetry::sampler::{Sample, SampleSink, SamplerBuilder};
use telemetry::{JsonlSink, Telemetry};

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

/// The JSONL stream a sampler leaves behind at shutdown holds one parseable
/// line per tick, and its interval values sum to the exit-time state.
#[test]
fn jsonl_stream_has_one_line_per_tick_summing_to_exit_state() {
    let dir = std::env::temp_dir().join(format!(
        "alchemist-live-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let jsonl = dir.join("metrics.jsonl");

    let tel = Telemetry::enabled();
    let sampler = SamplerBuilder::new(tel.clone(), Duration::from_millis(1))
        .sink(JsonlSink::create(&jsonl).unwrap())
        .spawn();

    for i in 0..500u64 {
        tel.count_named("live.ticks", 2);
        tel.observe_ns("live.latency", 50 + i * 7);
        if i % 50 == 0 {
            // Give the 1 ms sampler a chance to take mid-run captures so
            // the file is genuinely a stream of many deltas.
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    let stats = sampler.stop();
    assert!(stats.ticks >= 2, "expected mid-run ticks: {stats:?}");
    assert_eq!(stats.sink_errors, 0);

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
    assert_eq!(tel.snapshot().named_counter("live.ticks"), 1000);

    std::fs::remove_dir_all(&dir).ok();
}
