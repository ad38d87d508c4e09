//! Immutable views of recorded telemetry and the Chrome-trace exporter.

use crate::chrome::{self, Series};
use crate::hist::Histogram;
use crate::json::write_escaped;
use crate::{EventRec, VIRTUAL_TID_BASE};
use std::collections::BTreeMap;

/// One finished (or still-open, duration-so-far) span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRow {
    /// Span name, e.g. `ckks.bootstrap.coeff_to_slot`.
    pub name: String,
    /// Track id. Wall-clock threads count from 0; virtual (simulated-time)
    /// tracks count from 1000.
    pub tid: u64,
    /// Start offset in nanoseconds (wall time from the handle's creation,
    /// or virtual time as supplied by the emitter).
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Index of the parent span within [`Snapshot::spans`].
    pub parent: Option<usize>,
    /// Heap allocations attributed to the span while it was open
    /// (inclusive of children, like `dur_ns`). Zero for spans still open
    /// at snapshot time and for virtual spans.
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
}

/// Summary row of one latency histogram: count, quantiles, and extremes
/// precomputed at snapshot time (the full bucket array stays behind in the
/// recording handle).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramRow {
    /// Histogram name, e.g. `metaop.ntt.forward`.
    pub name: String,
    /// Number of recordings.
    pub count: u64,
    /// Sum of recorded durations (exact, saturating).
    pub sum_ns: u64,
    /// Median (log-linear bucket upper bound, ≤ 12.5% relative error).
    pub p50_ns: u64,
    /// 90th percentile.
    pub p90_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// Largest recording (exact, not bucketed).
    pub max_ns: u64,
}

/// A point-in-time copy of everything a [`crate::Telemetry`] handle has
/// recorded: accessors for tests and tables, and the Chrome-trace export.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    spans: Vec<SpanRow>,
    named: Vec<(String, u64)>,
    hists: Vec<HistogramRow>,
    meta: Vec<(String, String)>,
}

impl Snapshot {
    pub(crate) fn empty() -> Self {
        Snapshot::default()
    }

    pub(crate) fn build(
        events: &[EventRec],
        named: &BTreeMap<String, u64>,
        hists: &BTreeMap<String, Box<Histogram>>,
        meta: &BTreeMap<String, String>,
        now_ns: u64,
    ) -> Self {
        // Wall-clock spans still open at snapshot time get the duration
        // they have accumulated so far. Virtual tracks have no "now" — an
        // unclosed virtual span extends to the latest timestamp any event
        // on the same track has reached (0 extent if it is alone).
        let mut track_end: BTreeMap<u64, u64> = BTreeMap::new();
        for e in events.iter().filter(|e| e.tid >= VIRTUAL_TID_BASE) {
            if let Some(d) = e.dur_ns {
                let end = e.start_ns.saturating_add(d);
                let slot = track_end.entry(e.tid).or_insert(0);
                *slot = (*slot).max(end);
            }
        }
        let spans = events
            .iter()
            .map(|e| SpanRow {
                name: e.name.clone(),
                tid: e.tid,
                start_ns: e.start_ns,
                dur_ns: e.dur_ns.unwrap_or_else(|| {
                    if e.tid >= VIRTUAL_TID_BASE {
                        track_end.get(&e.tid).copied().unwrap_or(0).saturating_sub(e.start_ns)
                    } else {
                        now_ns.saturating_sub(e.start_ns)
                    }
                }),
                parent: e.parent,
                allocs: e.allocs,
                alloc_bytes: e.alloc_bytes,
            })
            .collect();
        let hists = hists
            .iter()
            .map(|(name, h)| HistogramRow {
                name: name.clone(),
                count: h.count(),
                sum_ns: h.sum(),
                p50_ns: h.quantile(0.50),
                p90_ns: h.quantile(0.90),
                p99_ns: h.quantile(0.99),
                max_ns: h.max(),
            })
            .collect();
        let named = named.iter().map(|(k, &v)| (k.clone(), v)).collect();
        let meta = meta.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        Snapshot { spans, named, hists, meta }
    }

    /// All spans, in recording order (parents precede children).
    pub fn spans(&self) -> &[SpanRow] {
        &self.spans
    }

    /// All counters, sorted by name.
    pub fn named_counters(&self) -> &[(String, u64)] {
        &self.named
    }

    /// The value of one counter (0 when never touched).
    pub fn named_counter(&self, name: &str) -> u64 {
        self.named.iter().find(|(n, _)| n == name).map_or(0, |&(_, v)| v)
    }

    /// All latency histograms, sorted by name.
    pub fn histograms(&self) -> &[HistogramRow] {
        &self.hists
    }

    /// One histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramRow> {
        self.hists.iter().find(|h| h.name == name)
    }

    /// Session metadata entries, sorted by key.
    pub fn meta(&self) -> &[(String, String)] {
        &self.meta
    }

    /// Chrome `trace_event` JSON (the Perfetto legacy format): complete
    /// (`"ph":"X"`) events with microsecond timestamps, plus counter
    /// (`"ph":"C"`) events. Open the file directly in
    /// <https://ui.perfetto.dev> or `chrome://tracing`.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = chrome::begin("alchemist");
        if !self.meta.is_empty() {
            out.push_str(
                ",{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"alchemist.meta\",\"args\":{",
            );
            for (i, (k, v)) in self.meta.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(&mut out, k);
                out.push(':');
                write_escaped(&mut out, v);
            }
            out.push_str("}}");
        }
        for s in &self.spans {
            chrome::span_event(
                &mut out,
                &s.name,
                s.tid,
                s.start_ns,
                s.dur_ns,
                s.allocs,
                s.alloc_bytes,
            );
        }
        // A snapshot holds totals, not a time series: every counter sits
        // at the origin of the trace.
        for (name, value) in &self.named {
            chrome::counter_event(&mut out, name, 0, &[("value", Series::Count(*value))]);
        }
        // Histograms render as one multi-series counter track per name:
        // p50/p90/p99/max as parallel series (µs, matching the trace's
        // timestamp unit), plus the recording count.
        for h in &self.hists {
            chrome::counter_event(
                &mut out,
                &format!("hist.{}", h.name),
                0,
                &[
                    ("p50_us", Series::Micros(h.p50_ns)),
                    ("p90_us", Series::Micros(h.p90_ns)),
                    ("p99_us", Series::Micros(h.p99_ns)),
                    ("max_us", Series::Micros(h.max_ns)),
                    ("count", Series::Count(h.count)),
                ],
            );
        }
        chrome::end(&mut out);
        out
    }

    /// Writes [`Self::to_chrome_trace`] to `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_chrome_trace(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_chrome_trace())
    }
}

#[cfg(test)]
mod tests {
    use crate::json::parse;
    use crate::Telemetry;

    fn sample() -> Telemetry {
        let tel = Telemetry::enabled();
        let mut track = tel.virtual_track();
        track.open("sim.run", 0);
        for i in 0..3 {
            track.leaf("step", i * 100, 100);
        }
        track.close(300);
        tel.count_named("sim.meta_ops.ntt", 42);
        tel.count_named("sim.hbm_bytes.transfer", 4096);
        tel
    }

    #[test]
    fn chrome_trace_is_valid_trace_event_json() {
        // Golden-structure test: parse the export back and check the
        // trace_event contract Perfetto relies on.
        let snap = sample().snapshot();
        let doc = parse(&snap.to_chrome_trace()).expect("trace must be valid JSON");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // 1 metadata + 4 spans + 2 counters.
        assert_eq!(events.len(), 7);
        for ev in events {
            let ph = ev.get("ph").unwrap().as_str().unwrap();
            assert!(matches!(ph, "M" | "X" | "C"), "unexpected phase {ph}");
            assert!(ev.get("pid").is_some() && ev.get("name").is_some());
            if ph == "X" {
                assert!(ev.get("ts").unwrap().as_f64().is_some());
                assert!(ev.get("dur").unwrap().as_f64().unwrap() >= 0.0);
            }
        }
        // Root simulated span: 300 ns = 0.3 us.
        let root = events
            .iter()
            .find(|e| e.get("name").map(|n| n.as_str()) == Some(Some("sim.run")))
            .unwrap();
        assert!((root.get("dur").unwrap().as_f64().unwrap() - 0.3).abs() < 1e-9);
        assert_eq!(root.get("cat").unwrap().as_str(), Some("simulated"));
    }

    #[test]
    fn histograms_and_meta_reach_the_chrome_trace() {
        let tel = sample();
        tel.set_meta("parallel_compiled", "true");
        tel.set_meta("threads", "4");
        for i in 1..=100u64 {
            tel.observe_ns("kernel.ntt", i * 1000);
        }
        let snap = tel.snapshot();
        let row = snap.histogram("kernel.ntt").expect("histogram recorded");
        assert_eq!(row.count, 100);
        assert_eq!(row.max_ns, 100_000);
        assert!(row.p50_ns >= 50_000 && row.p50_ns <= 57_000, "p50 {}", row.p50_ns);
        assert!(row.p99_ns >= 99_000 && row.p99_ns <= 100_000, "p99 {}", row.p99_ns);
        assert!(snap.meta().contains(&("threads".into(), "4".into())));

        // Perfetto: a hist.* counter event with quantile series and an
        // alchemist.meta metadata event.
        let trace = parse(&snap.to_chrome_trace()).expect("valid trace");
        let events = trace.get("traceEvents").unwrap().as_arr().unwrap();
        let hist_ev = events
            .iter()
            .find(|e| e.get("name").map(|n| n.as_str()) == Some(Some("hist.kernel.ntt")))
            .expect("histogram counter event");
        assert_eq!(hist_ev.get("ph").unwrap().as_str(), Some("C"));
        let args = hist_ev.get("args").unwrap();
        assert!(args.get("p50_us").unwrap().as_f64().unwrap() > 0.0);
        assert!(args.get("p99_us").unwrap().as_f64().unwrap() > 0.0);
        assert_eq!(args.get("count").unwrap().as_f64(), Some(100.0));
        let meta_ev = events
            .iter()
            .find(|e| e.get("name").map(|n| n.as_str()) == Some(Some("alchemist.meta")))
            .expect("meta event");
        assert_eq!(meta_ev.get("args").unwrap().get("threads").unwrap().as_str(), Some("4"));
    }

    #[test]
    fn closed_spans_feed_per_name_histograms() {
        let tel = Telemetry::enabled();
        for _ in 0..5 {
            let _s = tel.span("metaop.ntt.forward");
        }
        {
            let _open = tel.span("still.open");
            let snap = tel.snapshot();
            let row = snap.histogram("metaop.ntt.forward").expect("span-fed histogram");
            assert_eq!(row.count, 5);
            // Open spans have not been recorded yet.
            assert!(snap.histogram("still.open").is_none());
        }
        assert_eq!(tel.snapshot().histogram("still.open").map(|h| h.count), Some(1));
    }

    #[test]
    fn unclosed_virtual_span_extends_to_track_end_not_wall_clock() {
        let tel = Telemetry::enabled();
        let mut track = tel.virtual_track();
        track.open("sim.run", 0);
        track.leaf("step", 0, 250);
        // Never closed: duration must come from virtual time (250), not the
        // wall clock (which by now is far past 250 ns).
        std::thread::sleep(std::time::Duration::from_millis(2));
        let snap = tel.snapshot();
        let root = snap.spans().iter().find(|s| s.name == "sim.run").unwrap();
        assert_eq!(root.dur_ns, 250);
    }

    #[test]
    fn named_counters_reach_the_chrome_trace() {
        let tel = sample();
        tel.count_named("fault.bitflip.injected", 10);
        tel.count_named("fault.bitflip.detected", 10);
        tel.count_named("fault.bitflip.escaped", 0); // explicit zero
        let snap = tel.snapshot();
        assert_eq!(snap.named_counter("fault.bitflip.injected"), 10);
        assert_eq!(snap.named_counter("fault.bitflip.escaped"), 0);
        assert_eq!(snap.named_counter("fault.never.touched"), 0);
        // The three above plus the two of `sample()`.
        assert_eq!(snap.named_counters().len(), 5);

        let trace = parse(&snap.to_chrome_trace()).expect("valid trace");
        let events = trace.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(events
            .iter()
            .any(|e| e.get("name").map(|n| n.as_str()) == Some(Some("fault.bitflip.injected"))));
    }

    #[test]
    fn counter_accessors_agree() {
        let snap = sample().snapshot();
        assert_eq!(snap.named_counter("sim.meta_ops.ntt"), 42);
        assert_eq!(snap.named_counter("sim.meta_ops.bconv"), 0);
        let names: Vec<&str> = snap.named_counters().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["sim.hbm_bytes.transfer", "sim.meta_ops.ntt"], "sorted by name");
    }
}
