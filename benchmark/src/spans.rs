//! Benchmark-owned spans: one per call into a layer's public function.
//!
//! The spans live in the benchmark, not in the program: they wrap the
//! calls the workloads make, are kept in memory while a slice runs, and
//! are written out once at exit. A span records its name, start, end, the
//! span that caused it and the request (unit) it belongs to; a layer's
//! *self* time is its span minus the part its children cover. A disabled
//! tracer reads no clock and stores nothing, which is how the end-to-end
//! numbers are measured.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was built.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    request: u64,
}

/// Handle to an open span (`NONE` on a disabled tracer).
#[derive(Clone, Copy)]
pub struct SpanId(u32);

impl SpanId {
    const NONE: SpanId = SpanId(u32::MAX);
}

/// Per-name totals over a tracer's spans.
pub struct NameStats {
    pub count: usize,
    /// Median span duration, seconds.
    pub median_s: f64,
    /// Sum of span durations, seconds.
    pub total_s: f64,
    /// Sum of self times (span minus children), seconds.
    pub self_total_s: f64,
}

pub struct Tracer {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer { epoch: Instant::now(), on, spans: Vec::new(), stack: Vec::new() }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        parent: Option<u32>,
        request: u64,
    ) -> u32 {
        let start_ns = self.ns(start);
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request });
        (self.spans.len() - 1) as u32
    }

    /// Opens a span now, as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str, request: u64) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        let id = self.push(name, Instant::now(), self.stack.last().copied(), request);
        self.stack.push(id);
        SpanId(id)
    }

    /// Closes the span `open` returned (spans close innermost first).
    pub fn close(&mut self, id: SpanId) {
        if !self.on {
            return;
        }
        let now = self.ns(Instant::now());
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id.0), "spans must close innermost first");
        self.spans[id.0 as usize].end_ns = now;
    }

    /// Runs `f` inside a span.
    pub fn scope<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, request);
        let out = f();
        self.close(id);
        out
    }

    /// Ends recording and summarises every span name once.
    pub fn finish(self) -> Trace {
        let by_name = self.by_name();
        Trace { tracer: self, by_name }
    }

    /// Count, median duration and summed self time for every span name.
    fn by_name(&self) -> BTreeMap<&'static str, NameStats> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut durations: BTreeMap<&'static str, (Vec<f64>, f64)> = BTreeMap::new();
        for (s, &kids) in self.spans.iter().zip(&covered) {
            let dur = s.end_ns - s.start_ns;
            let entry = durations.entry(s.name).or_default();
            entry.0.push(dur as f64 / 1e9);
            entry.1 += dur.saturating_sub(kids) as f64 / 1e9;
        }
        durations
            .into_iter()
            .map(|(name, (d, self_total_s))| {
                let stats = NameStats {
                    count: d.len(),
                    median_s: crate::stats::median(&d),
                    total_s: d.iter().sum(),
                    self_total_s,
                };
                (name, stats)
            })
            .collect()
    }

    /// Appends this tracer's first `MAX_WRITTEN` spans to `out` as JSON
    /// objects tagged with the workload that produced them.
    fn write_spans(
        &self,
        workload: &str,
        first: &mut bool,
        out: &mut impl std::io::Write,
    ) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate().take(MAX_WRITTEN) {
            let sep = if std::mem::take(first) { "" } else { ",\n" };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{sep}{{\"workload\":\"{workload}\",\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\
                 \"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        Ok(())
    }
}

/// A finished tracer and its per-name summary.
pub struct Trace {
    tracer: Tracer,
    pub by_name: BTreeMap<&'static str, NameStats>,
}

impl Trace {
    fn stats(&self, name: &str) -> &NameStats {
        self.by_name.get(name).unwrap_or_else(|| panic!("span {name} was recorded"))
    }

    /// Median seconds of the spans called `name`.
    pub fn median_s(&self, name: &str) -> f64 {
        self.stats(name).median_s
    }

    /// Total seconds of the spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.stats(name).total_s
    }
}

/// Spans of one workload written to the trace file. Every span counts in
/// the per-name summary; the file lists the first ones, enough to read a
/// few hundred units, so that a second of `sim_suite` (300 000 spans)
/// does not make it 50 MB.
const MAX_WRITTEN: usize = 8192;

/// Writes `path`: per workload and span name the count, median, total
/// and self time of *every* span, then the first `MAX_WRITTEN` spans of
/// each workload (parent ids are local to a workload).
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_trace(path: &Path, traces: &[(&str, Trace)]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"{\"summary\":[\n")?;
    let mut first = true;
    for (workload, trace) in traces {
        for (name, s) in &trace.by_name {
            let sep = if std::mem::take(&mut first) { "" } else { ",\n" };
            write!(
                out,
                "{sep}{{\"workload\":\"{workload}\",\"name\":\"{name}\",\"count\":{},\
                 \"median_ms\":{},\"total_ms\":{},\"self_ms\":{}}}",
                s.count,
                s.median_s * 1e3,
                s.total_s * 1e3,
                s.self_total_s * 1e3
            )?;
        }
    }
    out.write_all(b"\n],\"spans\":[\n")?;
    let mut first = true;
    for (workload, trace) in traces {
        trace.tracer.write_spans(workload, &mut first, &mut out)?;
    }
    out.write_all(b"\n]}\n")?;
    out.flush()
}
