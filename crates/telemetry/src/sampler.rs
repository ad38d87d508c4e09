//! Background sampler: periodic delta capture driving pluggable sinks.
//!
//! A [`Sampler`] owns a `std::thread` that wakes every `interval`, takes a
//! [`DeltaSnapshot`] through its private [`Cursor`], polls any registered
//! gauge sources, and hands the lot to each [`SampleSink`]. Stopping the
//! sampler performs one final capture before the sinks are flushed, so
//! nothing recorded between the last tick and shutdown is lost — the
//! deltas a sink has seen at close sum to the handle's exit-time snapshot
//! for every counter and histogram bucket.
//!
//! One sink ships with the crate: [`JsonlSink`] appends one
//! self-describing JSON line per tick with the *interval* values (counter
//! increments, per-span time, histogram count/sum, gauges), i.e. a
//! ready-to-plot time series.
//!
//! Gauge sources exist because instantaneous readings (a server's queue
//! depths, in-flight counts and worker-pool strength) live outside the
//! telemetry crate; a source is any `FnMut` that appends `(name, value)`
//! pairs at sample time.

use crate::delta::{Cursor, DeltaSnapshot};
use crate::Telemetry;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Appends instantaneous `(name, value)` gauge readings at sample time.
pub type GaugeSource = Box<dyn FnMut(&mut Vec<(String, u64)>) + Send>;

/// One sampler tick as seen by a sink.
#[derive(Debug)]
pub struct Sample<'a> {
    /// 0-based tick number.
    pub seq: u64,
    /// Capture instant, nanoseconds since the telemetry handle's epoch.
    pub at_ns: u64,
    /// What this interval recorded.
    pub delta: &'a DeltaSnapshot,
    /// Instantaneous gauge readings polled this tick.
    pub gauges: &'a [(String, u64)],
    /// Whether this is the final capture before shutdown.
    pub last: bool,
}

/// Consumes sampler ticks.
pub trait SampleSink: Send {
    /// Called once per tick (including the final capture at shutdown).
    ///
    /// # Errors
    ///
    /// I/O errors are counted in [`SamplerStats::sink_errors`]; the
    /// sampler keeps running.
    fn on_sample(&mut self, sample: &Sample<'_>) -> io::Result<()>;

    /// Called once after the final [`Self::on_sample`]; flush buffers here.
    ///
    /// # Errors
    ///
    /// Counted in [`SamplerStats::sink_errors`].
    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// What a sampler did over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SamplerStats {
    /// Captures taken (periodic ticks plus the final shutdown capture).
    pub ticks: u64,
    /// Sink calls that returned an error.
    pub sink_errors: u64,
}

/// Configures and spawns a [`Sampler`].
pub struct SamplerBuilder {
    tel: Telemetry,
    interval: Duration,
    sinks: Vec<Box<dyn SampleSink>>,
    gauges: Vec<GaugeSource>,
}

impl SamplerBuilder {
    /// Samples `tel` every `interval`; one under 1 ms is raised to 1 ms.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero: that is a caller's unset value, not a
    /// request for the fastest cadence.
    pub fn new(tel: Telemetry, interval: Duration) -> Self {
        assert!(!interval.is_zero(), "SamplerBuilder::new: `interval` must be non-zero");
        SamplerBuilder {
            tel,
            interval: interval.max(Duration::from_millis(1)),
            sinks: Vec::new(),
            gauges: Vec::new(),
        }
    }

    /// Adds a sink.
    #[must_use]
    pub fn sink(mut self, sink: impl SampleSink + 'static) -> Self {
        self.sinks.push(Box::new(sink));
        self
    }

    /// Adds a gauge source polled on every tick.
    #[must_use]
    pub fn gauge_source(mut self, source: GaugeSource) -> Self {
        self.gauges.push(source);
        self
    }

    /// Spawns the sampler thread.
    pub fn spawn(self) -> Sampler {
        let SamplerBuilder { tel, interval, mut sinks, mut gauges } = self;
        let shared = Arc::new((Mutex::new(false), Condvar::new()));
        let thread_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("telemetry-sampler".into())
            .spawn(move || {
                let (stop_flag, wake) = &*thread_shared;
                let mut cursor = Cursor::new();
                let mut readings: Vec<(String, u64)> = Vec::new();
                let mut stats = SamplerStats::default();
                loop {
                    let stopping = {
                        let mut stopped = stop_flag.lock().expect("sampler flag poisoned");
                        if !*stopped {
                            let (guard, _timeout) = wake
                                .wait_timeout(stopped, interval)
                                .expect("sampler flag poisoned");
                            stopped = guard;
                        }
                        *stopped
                    };
                    let delta = tel.snapshot_delta(&mut cursor);
                    readings.clear();
                    for source in &mut gauges {
                        source(&mut readings);
                    }
                    // Built-in allocator gauges: live/peak are instantaneous
                    // (non-monotone) readings, so they ride the gauge channel
                    // rather than the delta's monotone counters.
                    let heap = crate::alloc::global_stats();
                    readings.push(("alloc.live_bytes".into(), heap.live_bytes));
                    readings.push(("alloc.peak_bytes".into(), heap.peak_bytes));
                    let sample = Sample {
                        seq: stats.ticks,
                        at_ns: delta.at_ns,
                        delta: &delta,
                        gauges: &readings,
                        last: stopping,
                    };
                    for sink in &mut sinks {
                        if sink.on_sample(&sample).is_err() {
                            stats.sink_errors += 1;
                        }
                    }
                    stats.ticks += 1;
                    if stopping {
                        for sink in &mut sinks {
                            if sink.finish().is_err() {
                                stats.sink_errors += 1;
                            }
                        }
                        return stats;
                    }
                }
            })
            .expect("spawn telemetry-sampler thread");
        Sampler { shared, handle: Some(handle) }
    }
}

/// A running background sampler. Dropping it stops the thread (performing
/// the final capture); call [`Sampler::stop`] to also get the stats.
pub struct Sampler {
    shared: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<std::thread::JoinHandle<SamplerStats>>,
}

impl Sampler {
    fn signal_stop(&self) {
        let (stop_flag, wake) = &*self.shared;
        *stop_flag.lock().expect("sampler flag poisoned") = true;
        wake.notify_all();
    }

    /// Stops the thread after one final capture and returns its stats.
    pub fn stop(mut self) -> SamplerStats {
        self.signal_stop();
        self.handle.take().expect("sampler already joined").join().unwrap_or_default()
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.signal_stop();
            let _ = handle.join();
        }
    }
}

/// Appends one JSON line per tick with the interval's increments — a
/// plottable utilization-over-time series.
///
/// Line shape (groups absent when empty):
/// `{"seq":3,"at_ms":40.1,"counters":{"meta_ops.ntt":5},"named":{...},
///   "spans":{"ckks.mul":123},"hists":{"k":{"count":2,"sum_ns":9}},
///   "alloc":{"allocs":17,"bytes_allocated":4096},
///   "span_allocs":{"ckks.mul":{"allocs":3,"bytes":2048}},
///   "alloc_size":{"count":17,"sum_bytes":4096},
///   "gauges":{"par.worker.0.busy_ns":42}}`.
///
/// `alloc_size` restates the `alloc` group as requests: `count` is
/// `allocs + reallocs` and `sum_bytes` is `bytes_allocated`; it is absent
/// when the interval made no request.
pub struct JsonlSink {
    out: BufWriter<File>,
}

impl JsonlSink {
    /// Creates (truncates) `path` and streams lines into it.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(JsonlSink { out: BufWriter::new(File::create(path)?) })
    }

    fn render_line(sample: &Sample<'_>) -> String {
        use crate::json::write_escaped;
        let mut line =
            format!("{{\"seq\":{},\"at_ms\":{:.3}", sample.seq, sample.at_ns as f64 / 1e6);
        let delta = sample.delta;
        if !delta.counters.is_empty() {
            line.push_str(",\"counters\":{");
            for (i, ((metric, class), value)) in delta.counters.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                write_escaped(&mut line, &format!("{}.{}", metric.name(), class.name()));
                line.push_str(&format!(":{value}"));
            }
            line.push('}');
        }
        for (key, map) in [("named", &delta.named), ("spans", &delta.span_ns)] {
            if map.is_empty() {
                continue;
            }
            line.push_str(&format!(",\"{key}\":{{"));
            for (i, (name, value)) in map.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                write_escaped(&mut line, name);
                line.push_str(&format!(":{value}"));
            }
            line.push('}');
        }
        if !delta.hists.is_empty() {
            line.push_str(",\"hists\":{");
            for (i, (name, h)) in delta.hists.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                write_escaped(&mut line, name);
                line.push_str(&format!(":{{\"count\":{},\"sum_ns\":{}}}", h.count(), h.sum()));
            }
            line.push('}');
        }
        if !delta.alloc.is_empty() {
            line.push_str(",\"alloc\":{");
            for (i, (kind, value)) in delta.alloc.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                write_escaped(&mut line, kind);
                line.push_str(&format!(":{value}"));
            }
            line.push('}');
        }
        if !delta.span_allocs.is_empty() {
            line.push_str(",\"span_allocs\":{");
            for (i, (name, (allocs, bytes))) in delta.span_allocs.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                write_escaped(&mut line, name);
                line.push_str(&format!(":{{\"allocs\":{allocs},\"bytes\":{bytes}}}"));
            }
            line.push('}');
        }
        // The interval's requests, each an alloc or a realloc's new size.
        let alloc_of = |kind: &str| delta.alloc.get(kind).copied().unwrap_or(0);
        let requests = alloc_of("allocs") + alloc_of("reallocs");
        if requests > 0 {
            line.push_str(&format!(
                ",\"alloc_size\":{{\"count\":{requests},\"sum_bytes\":{}}}",
                alloc_of("bytes_allocated")
            ));
        }
        if !sample.gauges.is_empty() {
            line.push_str(",\"gauges\":{");
            for (i, (name, value)) in sample.gauges.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                write_escaped(&mut line, name);
                line.push_str(&format!(":{value}"));
            }
            line.push('}');
        }
        line.push_str("}\n");
        line
    }
}

impl SampleSink for JsonlSink {
    fn on_sample(&mut self, sample: &Sample<'_>) -> io::Result<()> {
        self.out.write_all(Self::render_line(sample).as_bytes())
    }

    fn finish(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use crate::{Metric, OpClassKey};
    use std::sync::atomic::{AtomicU64, Ordering};

    struct CountingSink {
        samples: Arc<AtomicU64>,
        total: Arc<AtomicU64>,
    }

    impl SampleSink for CountingSink {
        fn on_sample(&mut self, sample: &Sample<'_>) -> io::Result<()> {
            self.samples.fetch_add(1, Ordering::SeqCst);
            self.total.fetch_add(sample.delta.counters.values().sum::<u64>(), Ordering::SeqCst);
            Ok(())
        }
    }

    #[test]
    fn final_capture_sees_everything() {
        let tel = Telemetry::enabled();
        let samples = Arc::new(AtomicU64::new(0));
        let total = Arc::new(AtomicU64::new(0));
        let sampler = SamplerBuilder::new(tel.clone(), Duration::from_millis(1))
            .sink(CountingSink { samples: Arc::clone(&samples), total: Arc::clone(&total) })
            .spawn();
        for _ in 0..100 {
            tel.count(Metric::MetaOps, OpClassKey::Ntt, 3);
        }
        let stats = sampler.stop();
        assert!(stats.ticks >= 1);
        assert_eq!(stats.ticks, samples.load(Ordering::SeqCst));
        assert_eq!(stats.sink_errors, 0);
        // The deltas sum to the exit-time state even if no periodic tick
        // ran after the final count.
        assert_eq!(total.load(Ordering::SeqCst), 300);
    }

    #[test]
    #[should_panic(expected = "`interval` must be non-zero")]
    fn zero_interval_is_rejected() {
        let _ = SamplerBuilder::new(Telemetry::enabled(), Duration::ZERO);
    }

    #[test]
    fn jsonl_lines_parse_and_carry_gauges() {
        let tel = Telemetry::enabled();
        tel.count_named("ev", 4);
        tel.observe_ns("h", 123);
        let mut cursor = Cursor::new();
        let delta = tel.snapshot_delta(&mut cursor);
        let sample = Sample {
            seq: 0,
            at_ns: 2_500_000,
            delta: &delta,
            gauges: &[("par.worker.0.busy_ns".into(), 9)],
            last: true,
        };
        let line = JsonlSink::render_line(&sample);
        let doc = parse(line.trim()).expect("jsonl line must parse");
        assert_eq!(doc.get("seq").unwrap().as_f64(), Some(0.0));
        assert_eq!(doc.get("at_ms").unwrap().as_f64(), Some(2.5));
        assert_eq!(doc.get("named").unwrap().get("ev").unwrap().as_f64(), Some(4.0));
        assert_eq!(
            doc.get("hists").unwrap().get("h").unwrap().get("count").unwrap().as_f64(),
            Some(1.0)
        );
        assert_eq!(
            doc.get("gauges").unwrap().get("par.worker.0.busy_ns").unwrap().as_f64(),
            Some(9.0)
        );
    }

    #[test]
    fn jsonl_alloc_size_restates_the_alloc_group() {
        // A fixed recording renders to fixed bytes: `alloc_size` is
        // `allocs + reallocs` requests totalling `bytes_allocated`.
        let mut delta = DeltaSnapshot { at_ns: 40_100_000, seq: 3, ..DeltaSnapshot::default() };
        delta.named.insert("ev".into(), 4);
        for (kind, v) in [
            ("allocs", 17),
            ("deallocs", 9),
            ("reallocs", 3),
            ("bytes_allocated", 4096),
            ("bytes_deallocated", 1024),
        ] {
            delta.alloc.insert(kind.into(), v);
        }
        delta.span_allocs.insert("ckks.mul".into(), (3, 2048));
        let gauges = [("alloc.live_bytes".to_string(), 3072)];
        let render = |delta: &DeltaSnapshot| {
            let sample = Sample { seq: 3, at_ns: delta.at_ns, delta, gauges: &gauges, last: false };
            JsonlSink::render_line(&sample)
        };
        assert_eq!(
            render(&delta),
            "{\"seq\":3,\"at_ms\":40.100,\"named\":{\"ev\":4},\"alloc\":{\"allocs\":17,\
             \"bytes_allocated\":4096,\"bytes_deallocated\":1024,\"deallocs\":9,\"reallocs\":3},\
             \"span_allocs\":{\"ckks.mul\":{\"allocs\":3,\"bytes\":2048}},\
             \"alloc_size\":{\"count\":20,\"sum_bytes\":4096},\
             \"gauges\":{\"alloc.live_bytes\":3072}}\n"
        );
        // An interval that only freed made no request: no `alloc_size`.
        delta.alloc.retain(|kind, _| kind.contains("dealloc"));
        assert!(!render(&delta).contains("alloc_size"));
    }

    #[test]
    fn ticks_carry_builtin_alloc_gauges_when_tracked() {
        let tel = Telemetry::enabled();
        let samples = Arc::new(AtomicU64::new(0));

        struct GaugeProbe {
            saw_live: Arc<AtomicU64>,
        }
        impl SampleSink for GaugeProbe {
            fn on_sample(&mut self, sample: &Sample<'_>) -> io::Result<()> {
                if sample.gauges.iter().any(|(n, _)| n == "alloc.live_bytes")
                    && sample.gauges.iter().any(|(n, _)| n == "alloc.peak_bytes")
                {
                    self.saw_live.fetch_add(1, Ordering::SeqCst);
                }
                Ok(())
            }
        }
        let sampler = SamplerBuilder::new(tel, Duration::from_millis(1))
            .sink(GaugeProbe { saw_live: Arc::clone(&samples) })
            .spawn();
        std::thread::sleep(Duration::from_millis(5));
        let stats = sampler.stop();
        assert_eq!(
            samples.load(Ordering::SeqCst),
            stats.ticks,
            "every tick must carry the built-in alloc gauges"
        );
    }
}
