//! Immutable views of recorded telemetry and the three exporters.

use crate::hist::Histogram;
use crate::json::{write_escaped, write_f64, Json};
use crate::{EventRec, Metric, OpClassKey, VIRTUAL_TID_BASE};
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

impl SpanRow {
    /// Whether this span lives on a virtual (simulated-time) track.
    pub fn is_virtual(&self) -> bool {
        self.tid >= VIRTUAL_TID_BASE
    }
}

/// One counter cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterRow {
    /// What is being counted.
    pub metric: Metric,
    /// Which operator family it is attributed to.
    pub class: OpClassKey,
    /// Accumulated value.
    pub value: u64,
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

/// Process-wide allocation accounting carried by a snapshot of an enabled
/// handle (see [`crate::alloc`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocReport {
    /// Global allocator counters at snapshot time.
    pub stats: crate::alloc::AllocStats,
    /// Size-class distribution of allocation requests, in bytes (same
    /// log-linear buckets as the duration histograms).
    pub size_classes: Histogram,
}

/// A point-in-time copy of everything a [`crate::Telemetry`] handle has
/// recorded, with export methods.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    spans: Vec<SpanRow>,
    counters: Vec<CounterRow>,
    named: Vec<(String, u64)>,
    hists: Vec<HistogramRow>,
    meta: Vec<(String, String)>,
    alloc: Option<AllocReport>,
}

impl Snapshot {
    pub(crate) fn empty() -> Self {
        Snapshot::default()
    }

    pub(crate) fn build(
        events: &[EventRec],
        counters: &BTreeMap<(Metric, OpClassKey), u64>,
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
        let counters = counters
            .iter()
            .map(|(&(metric, class), &value)| CounterRow { metric, class, value })
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
        Snapshot { spans, counters, named, hists, meta, alloc: None }
    }

    /// Attaches the process-wide allocation report (called by
    /// [`crate::Telemetry::snapshot`]).
    pub(crate) fn set_alloc(&mut self, stats: crate::alloc::AllocStats, size_classes: Histogram) {
        self.alloc = Some(AllocReport { stats, size_classes });
    }

    /// The process-wide allocation report; `None` for the snapshot of a
    /// disabled handle.
    pub fn alloc(&self) -> Option<&AllocReport> {
        self.alloc.as_ref()
    }

    /// All spans, in recording order (parents precede children).
    pub fn spans(&self) -> &[SpanRow] {
        &self.spans
    }

    /// All non-zero counters, sorted by (metric, class).
    pub fn counters(&self) -> &[CounterRow] {
        &self.counters
    }

    /// The value of one counter cell (0 when never touched).
    pub fn counter(&self, metric: Metric, class: OpClassKey) -> u64 {
        self.counters.iter().find(|c| c.metric == metric && c.class == class).map_or(0, |c| c.value)
    }

    /// Sum of one metric across all operator classes.
    pub fn counter_total(&self, metric: Metric) -> u64 {
        self.counters.iter().filter(|c| c.metric == metric).map(|c| c.value).sum()
    }

    /// All free-form named counters, sorted by name.
    pub fn named_counters(&self) -> &[(String, u64)] {
        &self.named
    }

    /// The value of one named counter (0 when never touched).
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

    /// One metadata value by key.
    pub fn meta_value(&self, key: &str) -> Option<&str> {
        self.meta.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Renders a human-readable tree: spans indented by nesting, identical
    /// siblings merged (`×N`), followed by a counter table.
    pub fn summary_tree(&self) -> String {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        let mut roots: Vec<usize> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            match s.parent {
                Some(p) => children[p].push(i),
                None => roots.push(i),
            }
        }
        let mut out = String::new();
        if !self.meta.is_empty() {
            out.push_str("meta\n");
            for (k, v) in &self.meta {
                out.push_str(&format!("  {k} = {v}\n"));
            }
        }
        let mut tracks: Vec<u64> = self
            .spans
            .iter()
            .map(|s| s.tid)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        tracks.sort_unstable();
        for tid in tracks {
            let unit = if tid >= VIRTUAL_TID_BASE { "virtual" } else { "wall" };
            out.push_str(&format!("track {tid} ({unit} time)\n"));
            let track_roots: Vec<usize> =
                roots.iter().copied().filter(|&i| self.spans[i].tid == tid).collect();
            self.render_level(&mut out, &track_roots, &children, 1);
        }
        if !self.counters.is_empty() {
            out.push_str("counters\n");
            for c in &self.counters {
                out.push_str(&format!(
                    "  {:<24} {:<18} {}\n",
                    c.metric.name(),
                    c.class.name(),
                    c.value
                ));
            }
        }
        if !self.named.is_empty() {
            out.push_str("named counters\n");
            for (name, value) in &self.named {
                out.push_str(&format!("  {name:<42} {value}\n"));
            }
        }
        if let Some(a) = &self.alloc {
            out.push_str("allocations (process-wide)\n");
            out.push_str(&format!(
                "  allocs {}  reallocs {}  deallocs {}\n",
                a.stats.allocs, a.stats.reallocs, a.stats.deallocs
            ));
            out.push_str(&format!(
                "  live {}  peak {}  allocated {}  max request {}\n",
                fmt_bytes(a.stats.live_bytes),
                fmt_bytes(a.stats.peak_bytes),
                fmt_bytes(a.stats.bytes_allocated),
                fmt_bytes(a.stats.max_request),
            ));
            out.push_str(&format!(
                "  request size p50 {}  p99 {}\n",
                fmt_bytes(a.size_classes.quantile(0.50)),
                fmt_bytes(a.size_classes.quantile(0.99)),
            ));
        }
        if !self.hists.is_empty() {
            out.push_str(&format!(
                "histograms{:<22} {:>8} {:>10} {:>10} {:>10} {:>10}\n",
                "", "count", "p50", "p90", "p99", "max"
            ));
            for h in &self.hists {
                out.push_str(&format!(
                    "  {:<30} {:>8} {:>10} {:>10} {:>10} {:>10}\n",
                    h.name,
                    h.count,
                    fmt_ns(h.p50_ns),
                    fmt_ns(h.p90_ns),
                    fmt_ns(h.p99_ns),
                    fmt_ns(h.max_ns),
                ));
            }
        }
        out
    }

    fn render_level(
        &self,
        out: &mut String,
        level: &[usize],
        children: &Vec<Vec<usize>>,
        depth: usize,
    ) {
        // Merge runs of identically-named siblings into one `×N` line.
        let mut i = 0;
        while i < level.len() {
            let name = &self.spans[level[i]].name;
            let mut j = i;
            let mut total_ns = 0u64;
            while j < level.len() && self.spans[level[j]].name == *name {
                total_ns += self.spans[level[j]].dur_ns;
                j += 1;
            }
            let count = j - i;
            let suffix = if count > 1 { format!("  ×{count}") } else { String::new() };
            out.push_str(&format!(
                "{}{}  {}{}\n",
                "  ".repeat(depth),
                name,
                fmt_ns(total_ns),
                suffix
            ));
            // Recurse into the first representative's children only when
            // unmerged; for merged runs, aggregate their children too.
            let mut merged_children: Vec<usize> = Vec::new();
            for &k in &level[i..j] {
                merged_children.extend_from_slice(&children[k]);
            }
            if !merged_children.is_empty() {
                self.render_level(out, &merged_children, children, depth + 1);
            }
            i = j;
        }
    }

    /// Validates that a parsed JSON document has the snapshot shape emitted
    /// by [`Snapshot::to_json`]: a top-level object with a `meta` object of
    /// string values and `spans`/`counters`/`histograms` arrays whose rows
    /// carry the expected field types.
    ///
    /// Bench tooling re-reads snapshot files it did not necessarily write
    /// (cross-host comparisons, hand-edited baselines); this is the error
    /// path that used to be a `panic!`, so a malformed file now surfaces as
    /// a message naming the offending field instead of aborting the run.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the first structural
    /// mismatch.
    pub fn validate_json(doc: &Json) -> Result<(), String> {
        let obj = match doc {
            Json::Obj(m) => m,
            other => return Err(format!("snapshot root must be an object, got {other:?}")),
        };
        match obj.get("meta") {
            Some(Json::Obj(meta)) => {
                for (k, v) in meta {
                    if v.as_str().is_none() {
                        return Err(format!("meta entry {k:?} must be a string, got {v:?}"));
                    }
                }
            }
            Some(other) => return Err(format!("\"meta\" must be an object, got {other:?}")),
            None => return Err("missing \"meta\" object".into()),
        }
        let rows = |key: &str| -> Result<&[Json], String> {
            match obj.get(key) {
                Some(Json::Arr(v)) => Ok(v),
                Some(other) => Err(format!("{key:?} must be an array, got {other:?}")),
                None => Err(format!("missing {key:?} array")),
            }
        };
        let field = |row: &Json, key: &'static str, ctx: &'static str| -> Result<Json, String> {
            row.get(key).cloned().ok_or_else(|| format!("{ctx} row missing {key:?}: {row:?}"))
        };
        for row in rows("spans")? {
            if field(row, "name", "span")?.as_str().is_none() {
                return Err(format!("span \"name\" must be a string: {row:?}"));
            }
            for key in ["tid", "start_ns", "dur_ns"] {
                if field(row, key, "span")?.as_f64().is_none() {
                    return Err(format!("span {key:?} must be a number: {row:?}"));
                }
            }
            match field(row, "parent", "span")? {
                Json::Null | Json::Num(_) => {}
                other => {
                    return Err(format!("span \"parent\" must be a number or null, got {other:?}"))
                }
            }
            // Optional for backward compatibility: snapshots written before
            // allocation tracking omit the alloc columns.
            for key in ["allocs", "alloc_bytes"] {
                if let Some(v) = row.get(key) {
                    if v.as_f64().is_none() {
                        return Err(format!("span {key:?} must be a number: {row:?}"));
                    }
                }
            }
        }
        for row in rows("counters")? {
            for key in ["metric", "class"] {
                if field(row, key, "counter")?.as_str().is_none() {
                    return Err(format!("counter {key:?} must be a string: {row:?}"));
                }
            }
            if field(row, "value", "counter")?.as_f64().is_none() {
                return Err(format!("counter \"value\" must be a number: {row:?}"));
            }
        }
        // Optional for backward compatibility: baselines written before
        // named counters existed omit the array entirely.
        if let Some(named) = obj.get("named_counters") {
            let rows = match named {
                Json::Arr(v) => v,
                other => return Err(format!("\"named_counters\" must be an array, got {other:?}")),
            };
            for row in rows {
                if field(row, "name", "named counter")?.as_str().is_none() {
                    return Err(format!("named counter \"name\" must be a string: {row:?}"));
                }
                if field(row, "value", "named counter")?.as_f64().is_none() {
                    return Err(format!("named counter \"value\" must be a number: {row:?}"));
                }
            }
        }
        for row in rows("histograms")? {
            if field(row, "name", "histogram")?.as_str().is_none() {
                return Err(format!("histogram \"name\" must be a string: {row:?}"));
            }
            for key in ["count", "sum_ns", "p50_ns", "p90_ns", "p99_ns", "max_ns"] {
                if field(row, key, "histogram")?.as_f64().is_none() {
                    return Err(format!("histogram {key:?} must be a number: {row:?}"));
                }
            }
        }
        // Optional: the snapshot of a disabled handle carries no
        // process-wide allocation totals.
        match obj.get("alloc") {
            None => {}
            Some(Json::Obj(alloc)) => {
                for (k, v) in alloc {
                    if v.as_f64().is_none() {
                        return Err(format!("alloc entry {k:?} must be a number, got {v:?}"));
                    }
                }
            }
            Some(other) => return Err(format!("\"alloc\" must be an object, got {other:?}")),
        }
        Ok(())
    }

    /// Machine-readable JSON:
    /// `{"meta": {...}, "spans": [...], "counters": [...], "histograms": [...]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"meta\":{");
        for (i, (k, v)) in self.meta.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_escaped(&mut out, k);
            out.push(':');
            write_escaped(&mut out, v);
        }
        out.push_str("},\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            write_escaped(&mut out, &s.name);
            out.push_str(&format!(
                ",\"tid\":{},\"start_ns\":{},\"dur_ns\":{},\"parent\":",
                s.tid, s.start_ns, s.dur_ns
            ));
            match s.parent {
                Some(p) => out.push_str(&p.to_string()),
                None => out.push_str("null"),
            }
            out.push_str(&format!(",\"allocs\":{},\"alloc_bytes\":{}}}", s.allocs, s.alloc_bytes));
        }
        out.push_str("],\"counters\":[");
        for (i, c) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"metric\":");
            write_escaped(&mut out, c.metric.name());
            out.push_str(",\"class\":");
            write_escaped(&mut out, c.class.name());
            out.push_str(&format!(",\"value\":{}}}", c.value));
        }
        out.push_str("],\"named_counters\":[");
        for (i, (name, value)) in self.named.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            write_escaped(&mut out, name);
            out.push_str(&format!(",\"value\":{value}}}"));
        }
        out.push_str("],\"histograms\":[");
        for (i, h) in self.hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            write_escaped(&mut out, &h.name);
            out.push_str(&format!(
                ",\"count\":{},\"sum_ns\":{},\"p50_ns\":{},\"p90_ns\":{},\
                 \"p99_ns\":{},\"max_ns\":{}}}",
                h.count, h.sum_ns, h.p50_ns, h.p90_ns, h.p99_ns, h.max_ns
            ));
        }
        out.push(']');
        if let Some(a) = &self.alloc {
            out.push_str(&format!(
                ",\"alloc\":{{\"allocs\":{},\"deallocs\":{},\"reallocs\":{},\
                 \"bytes_allocated\":{},\"bytes_deallocated\":{},\"live_bytes\":{},\
                 \"peak_bytes\":{},\"max_request\":{},\"size_p50_bytes\":{},\
                 \"size_p99_bytes\":{}}}",
                a.stats.allocs,
                a.stats.deallocs,
                a.stats.reallocs,
                a.stats.bytes_allocated,
                a.stats.bytes_deallocated,
                a.stats.live_bytes,
                a.stats.peak_bytes,
                a.stats.max_request,
                a.size_classes.quantile(0.50),
                a.size_classes.quantile(0.99),
            ));
        }
        out.push('}');
        out
    }

    /// Chrome `trace_event` JSON (the Perfetto legacy format): complete
    /// (`"ph":"X"`) events with microsecond timestamps, plus counter
    /// (`"ph":"C"`) events. Open the file directly in
    /// <https://ui.perfetto.dev> or `chrome://tracing`.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        out.push_str(
            "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
             \"args\":{\"name\":\"alchemist\"}}",
        );
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
            out.push_str(",{\"ph\":\"X\",\"pid\":1,\"tid\":");
            out.push_str(&s.tid.to_string());
            out.push_str(",\"ts\":");
            write_f64(&mut out, s.start_ns as f64 / 1000.0);
            out.push_str(",\"dur\":");
            write_f64(&mut out, s.dur_ns as f64 / 1000.0);
            out.push_str(",\"cat\":");
            write_escaped(&mut out, if s.is_virtual() { "simulated" } else { "wall" });
            out.push_str(",\"name\":");
            write_escaped(&mut out, &s.name);
            if s.allocs == 0 && s.alloc_bytes == 0 {
                out.push_str(",\"args\":{}}");
            } else {
                out.push_str(&format!(
                    ",\"args\":{{\"allocs\":{},\"alloc_bytes\":{}}}}}",
                    s.allocs, s.alloc_bytes
                ));
            }
        }
        for c in &self.counters {
            out.push_str(",{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":0,\"name\":");
            write_escaped(&mut out, &format!("{}.{}", c.metric.name(), c.class.name()));
            out.push_str(&format!(",\"args\":{{\"value\":{}}}}}", c.value));
        }
        for (name, value) in &self.named {
            out.push_str(",{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":0,\"name\":");
            write_escaped(&mut out, name);
            out.push_str(&format!(",\"args\":{{\"value\":{value}}}}}"));
        }
        // Histograms render as one multi-series counter track per name:
        // p50/p90/p99/max as parallel series (µs, matching the trace's
        // timestamp unit), plus the recording count.
        for h in &self.hists {
            out.push_str(",{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":0,\"name\":");
            write_escaped(&mut out, &format!("hist.{}", h.name));
            out.push_str(",\"args\":{\"p50_us\":");
            write_f64(&mut out, h.p50_ns as f64 / 1000.0);
            out.push_str(",\"p90_us\":");
            write_f64(&mut out, h.p90_ns as f64 / 1000.0);
            out.push_str(",\"p99_us\":");
            write_f64(&mut out, h.p99_ns as f64 / 1000.0);
            out.push_str(",\"max_us\":");
            write_f64(&mut out, h.max_ns as f64 / 1000.0);
            out.push_str(&format!(",\"count\":{}}}}}", h.count));
        }
        out.push_str("],\"displayTimeUnit\":\"ns\"}");
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

fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.2} GiB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.2} MiB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.2} KiB", b as f64 / 1024.0)
    } else {
        format!("{b} B")
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        tel.count(Metric::MetaOps, OpClassKey::Ntt, 42);
        tel.count(Metric::HbmBytes, OpClassKey::Transfer, 4096);
        tel
    }

    #[test]
    fn json_export_parses_back() {
        let snap = sample().snapshot();
        let doc = parse(&snap.to_json()).expect("self-produced JSON must parse");
        let spans = doc.get("spans").unwrap().as_arr().unwrap();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].get("name").unwrap().as_str(), Some("sim.run"));
        let counters = doc.get("counters").unwrap().as_arr().unwrap();
        assert_eq!(counters.len(), 2);
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
    fn summary_tree_merges_repeated_siblings() {
        let text = sample().snapshot().summary_tree();
        assert!(text.contains("sim.run"), "{text}");
        assert!(text.contains("×3"), "{text}");
        assert!(text.contains("meta_ops"), "{text}");
        assert!(text.contains("hbm_bytes"), "{text}");
    }

    #[test]
    fn histograms_and_meta_flow_through_every_exporter() {
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
        assert_eq!(snap.meta_value("threads"), Some("4"));

        // Summary: meta header, histogram table with quantile columns.
        let text = snap.summary_tree();
        assert!(text.contains("parallel_compiled = true"), "{text}");
        assert!(text.contains("kernel.ntt"), "{text}");
        assert!(text.contains("p99"), "{text}");

        // JSON: parseable, carries all quantiles and the meta object.
        let doc = parse(&snap.to_json()).expect("valid JSON");
        assert_eq!(doc.get("meta").unwrap().get("threads").unwrap().as_str(), Some("4"));
        let hists = doc.get("histograms").unwrap().as_arr().unwrap();
        assert_eq!(hists.len(), 1);
        let h = &hists[0];
        assert_eq!(h.get("name").unwrap().as_str(), Some("kernel.ntt"));
        assert_eq!(h.get("count").unwrap().as_f64(), Some(100.0));
        for key in ["p50_ns", "p90_ns", "p99_ns", "max_ns", "sum_ns"] {
            assert!(h.get(key).unwrap().as_f64().unwrap() > 0.0, "{key} missing");
        }

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
    fn named_counters_flow_through_every_exporter() {
        let tel = sample();
        tel.count_named("fault.bitflip.injected", 10);
        tel.count_named("fault.bitflip.detected", 10);
        tel.count_named("fault.bitflip.escaped", 0); // explicit zero
        let snap = tel.snapshot();
        assert_eq!(snap.named_counter("fault.bitflip.injected"), 10);
        assert_eq!(snap.named_counter("fault.bitflip.escaped"), 0);
        assert_eq!(snap.named_counter("fault.never.touched"), 0);
        assert_eq!(snap.named_counters().len(), 3);

        let text = snap.summary_tree();
        assert!(text.contains("named counters"), "{text}");
        assert!(text.contains("fault.bitflip.detected"), "{text}");

        let doc = parse(&snap.to_json()).expect("valid JSON");
        Snapshot::validate_json(&doc).expect("self-validates");
        let rows = doc.get("named_counters").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].get("name").unwrap().as_str(), Some("fault.bitflip.detected"));

        let trace = parse(&snap.to_chrome_trace()).expect("valid trace");
        let events = trace.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(events
            .iter()
            .any(|e| e.get("name").map(|n| n.as_str()) == Some(Some("fault.bitflip.injected"))));
    }

    #[test]
    fn counter_accessors_agree() {
        let snap = sample().snapshot();
        assert_eq!(snap.counter(Metric::MetaOps, OpClassKey::Ntt), 42);
        assert_eq!(snap.counter(Metric::MetaOps, OpClassKey::Bconv), 0);
        assert_eq!(snap.counter_total(Metric::HbmBytes), 4096);
        let doc = parse(&snap.to_json()).unwrap();
        Snapshot::validate_json(&doc).expect("emitted snapshot JSON must self-validate");
    }

    #[test]
    fn validate_json_rejects_malformed_documents() {
        // A snapshot that is not an object at all.
        let err = Snapshot::validate_json(&parse("[1,2,3]").unwrap()).unwrap_err();
        assert!(err.contains("root must be an object"), "{err}");
        // Missing sections.
        let err = Snapshot::validate_json(&parse("{}").unwrap()).unwrap_err();
        assert!(err.contains("missing \"meta\""), "{err}");
        // Wrong row field type: counter value as a string.
        let doc = parse(
            r#"{"meta":{},"spans":[],"histograms":[],
                "counters":[{"metric":"meta_ops","class":"ntt","value":"42"}]}"#,
        )
        .unwrap();
        let err = Snapshot::validate_json(&doc).unwrap_err();
        assert!(err.contains("counter \"value\" must be a number"), "{err}");
        // Span parent must be number-or-null.
        let doc = parse(
            r#"{"meta":{},"counters":[],"histograms":[],
                "spans":[{"name":"s","tid":0,"start_ns":0,"dur_ns":1,"parent":"root"}]}"#,
        )
        .unwrap();
        let err = Snapshot::validate_json(&doc).unwrap_err();
        assert!(err.contains("parent"), "{err}");
    }
}
