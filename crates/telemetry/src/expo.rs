//! Prometheus-style text exposition.
//!
//! Renders a cumulative [`DeltaSnapshot`] (typically the running merge a
//! [`crate::sampler::Sampler`] maintains) in the Prometheus text format:
//! `# HELP`/`# TYPE` headers, one family per counter kind, histograms as
//! cumulative `_bucket{le="..."}` series plus `_sum`/`_count`, and an
//! instantaneous gauge family for sampler-supplied readings. [`render`]
//! returns the text, so the same bytes can go to an atomically renamed
//! file today or an HTTP response body later.
//!
//! Metric family names are `const`-validated against the Prometheus
//! identifier grammar (`[a-zA-Z_:][a-zA-Z0-9_:]*`) at compile time; dotted
//! recording names (`sim.step.ntt`, `fault.bitflip.escaped`) ride along as
//! label *values*, which the format leaves free-form (escaped).

use crate::delta::DeltaSnapshot;
use crate::Metric;

/// Whether `name` is a valid Prometheus metric identifier:
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`.
// Manual comparisons: `RangeInclusive::contains` is not a `const fn`.
#[allow(clippy::manual_range_contains)]
pub const fn is_valid_metric_name(name: &str) -> bool {
    let bytes = name.as_bytes();
    if bytes.is_empty() {
        return false;
    }
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        let alpha = (c >= b'a' && c <= b'z') || (c >= b'A' && c <= b'Z') || c == b'_' || c == b':';
        let digit = c >= b'0' && c <= b'9';
        if !(alpha || (i > 0 && digit)) {
            return false;
        }
        i += 1;
    }
    true
}

/// The exposition family carrying one [`Metric`]'s per-class counters.
pub const fn metric_family(metric: Metric) -> &'static str {
    match metric {
        Metric::MetaOps => "alchemist_meta_ops_total",
        Metric::ReductionCyclesSaved => "alchemist_reduction_cycles_saved_total",
        Metric::HbmBytes => "alchemist_hbm_bytes_total",
        Metric::ScratchpadBytes => "alchemist_scratchpad_bytes_total",
        Metric::AddOnlyCycles => "alchemist_add_only_cycles_total",
        Metric::MultCycles => "alchemist_mult_cycles_total",
    }
}

/// Family carrying free-form named counters, keyed by a `name` label.
pub const EVENTS_FAMILY: &str = "alchemist_events_total";
/// Family carrying per-span-name attributed time in nanoseconds.
pub const SPAN_FAMILY: &str = "alchemist_span_time_ns_total";
/// Histogram family: per-name latency distributions in nanoseconds.
pub const HIST_FAMILY: &str = "alchemist_duration_ns";
/// Gauge family for instantaneous sampler readings (worker occupancy &c).
pub const GAUGE_FAMILY: &str = "alchemist_gauge";
/// Process-wide allocator event counters, keyed by a `kind` label
/// (`allocs`, `deallocs`, `reallocs`, `bytes_allocated`, `bytes_deallocated`).
pub const ALLOC_FAMILY: &str = "alchemist_alloc_total";
/// Per-span-name attributed allocation counts.
pub const SPAN_ALLOCS_FAMILY: &str = "alchemist_span_allocs_total";
/// Per-span-name attributed allocated bytes.
pub const SPAN_ALLOC_BYTES_FAMILY: &str = "alchemist_span_alloc_bytes_total";
/// Histogram family: allocation request-size distribution in bytes.
pub const ALLOC_SIZE_FAMILY: &str = "alchemist_alloc_size_bytes";

// Compile-time proof that every emitted family name is a legal Prometheus
// identifier — a typo here fails the build, not the scrape.
const _: () = {
    let mut i = 0;
    while i < Metric::ALL.len() {
        assert!(is_valid_metric_name(metric_family(Metric::ALL[i])));
        i += 1;
    }
    assert!(is_valid_metric_name(EVENTS_FAMILY));
    assert!(is_valid_metric_name(SPAN_FAMILY));
    assert!(is_valid_metric_name(HIST_FAMILY));
    assert!(is_valid_metric_name(GAUGE_FAMILY));
    assert!(is_valid_metric_name(ALLOC_FAMILY));
    assert!(is_valid_metric_name(SPAN_ALLOCS_FAMILY));
    assert!(is_valid_metric_name(SPAN_ALLOC_BYTES_FAMILY));
    assert!(is_valid_metric_name(ALLOC_SIZE_FAMILY));
    // The grammar itself rejects what it should.
    assert!(!is_valid_metric_name(""));
    assert!(!is_valid_metric_name("9leading_digit"));
    assert!(!is_valid_metric_name("dotted.name"));
};

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline get backslash escapes.
fn push_label_value(out: &mut String, value: &str) {
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

fn family_header(out: &mut String, name: &str, kind: &str, help: &str) {
    out.push_str("# HELP ");
    out.push_str(name);
    out.push(' ');
    out.push_str(help);
    out.push_str("\n# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
}

/// Emits one named histogram as cumulative `_bucket` series plus
/// `_sum`/`_count`, the shared shape for latency and size families.
fn histogram_series(out: &mut String, family: &str, name: &str, h: &crate::Histogram) {
    let mut cumulative = 0u64;
    for (le, count) in h.occupied_buckets() {
        cumulative += count;
        out.push_str(family);
        out.push_str("_bucket{name=\"");
        push_label_value(out, name);
        out.push_str("\",le=\"");
        out.push_str(&le.to_string());
        out.push_str("\"} ");
        out.push_str(&cumulative.to_string());
        out.push('\n');
    }
    out.push_str(family);
    out.push_str("_bucket{name=\"");
    push_label_value(out, name);
    out.push_str("\",le=\"+Inf\"} ");
    out.push_str(&h.count().to_string());
    out.push('\n');
    series(out, &format!("{family}_sum"), "name", name, h.sum());
    series(out, &format!("{family}_count"), "name", name, h.count());
}

fn series(out: &mut String, family: &str, label: &str, value: &str, sample: u64) {
    out.push_str(family);
    out.push('{');
    out.push_str(label);
    out.push_str("=\"");
    push_label_value(out, value);
    out.push_str("\"} ");
    out.push_str(&sample.to_string());
    out.push('\n');
}

/// Renders `agg` (a cumulative merge of deltas) plus instantaneous
/// `gauges` as Prometheus exposition text.
pub fn render(agg: &DeltaSnapshot, gauges: &[(String, u64)]) -> String {
    let mut out = String::new();
    for metric in Metric::ALL {
        let rows: Vec<_> = agg.counters.iter().filter(|((m, _), _)| *m == metric).collect();
        if rows.is_empty() {
            continue;
        }
        family_header(
            &mut out,
            metric_family(metric),
            "counter",
            "Accumulated per operator class.",
        );
        for ((_, class), &value) in rows {
            series(&mut out, metric_family(metric), "class", class.name(), value);
        }
    }
    if !agg.named.is_empty() {
        family_header(&mut out, EVENTS_FAMILY, "counter", "Free-form named event counters.");
        for (name, &value) in &agg.named {
            series(&mut out, EVENTS_FAMILY, "name", name, value);
        }
    }
    if !agg.span_ns.is_empty() {
        family_header(
            &mut out,
            SPAN_FAMILY,
            "counter",
            "Time attributed to spans, nanoseconds, by span name.",
        );
        for (name, &value) in &agg.span_ns {
            series(&mut out, SPAN_FAMILY, "name", name, value);
        }
    }
    if !agg.hists.is_empty() {
        family_header(
            &mut out,
            HIST_FAMILY,
            "histogram",
            "Latency distributions, nanoseconds, by recording name.",
        );
        for (name, h) in &agg.hists {
            histogram_series(&mut out, HIST_FAMILY, name, h);
        }
    }
    if !agg.alloc.is_empty() {
        family_header(&mut out, ALLOC_FAMILY, "counter", "Process-wide allocator events.");
        for (kind, &value) in &agg.alloc {
            series(&mut out, ALLOC_FAMILY, "kind", kind, value);
        }
    }
    if !agg.span_allocs.is_empty() {
        family_header(
            &mut out,
            SPAN_ALLOCS_FAMILY,
            "counter",
            "Heap allocations attributed to spans, by span name.",
        );
        for (name, &(allocs, _)) in &agg.span_allocs {
            series(&mut out, SPAN_ALLOCS_FAMILY, "name", name, allocs);
        }
        family_header(
            &mut out,
            SPAN_ALLOC_BYTES_FAMILY,
            "counter",
            "Heap bytes attributed to spans, by span name.",
        );
        for (name, &(_, bytes)) in &agg.span_allocs {
            series(&mut out, SPAN_ALLOC_BYTES_FAMILY, "name", name, bytes);
        }
    }
    if let Some(h) = agg.alloc_size.as_ref().filter(|h| h.count() > 0) {
        family_header(
            &mut out,
            ALLOC_SIZE_FAMILY,
            "histogram",
            "Allocation request sizes, bytes, process-wide.",
        );
        histogram_series(&mut out, ALLOC_SIZE_FAMILY, "process", h);
    }
    if !gauges.is_empty() {
        family_header(&mut out, GAUGE_FAMILY, "gauge", "Instantaneous sampler readings.");
        for (name, value) in gauges {
            series(&mut out, GAUGE_FAMILY, "name", name, *value);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::Cursor;
    use crate::{OpClassKey, Telemetry};

    fn agg_of(tel: &Telemetry) -> DeltaSnapshot {
        tel.snapshot_delta(&mut Cursor::new())
    }

    #[test]
    fn renders_all_families() {
        let tel = Telemetry::enabled();
        tel.count(Metric::MetaOps, OpClassKey::Ntt, 42);
        tel.count_named("fault.bitflip.injected", 3);
        for i in 1..=100u64 {
            tel.observe_ns("kernel.ntt", i * 1000);
        }
        {
            let _s = tel.span("ckks.mul");
        }
        let text = render(&agg_of(&tel), &[("par.worker.0.busy_ns".into(), 7u64)]);
        assert!(text.contains("# TYPE alchemist_meta_ops_total counter"), "{text}");
        assert!(text.contains("alchemist_meta_ops_total{class=\"ntt\"} 42"), "{text}");
        assert!(text.contains("alchemist_events_total{name=\"fault.bitflip.injected\"} 3"));
        assert!(text.contains("# TYPE alchemist_duration_ns histogram"));
        assert!(text.contains("alchemist_duration_ns_count{name=\"kernel.ntt\"} 100"));
        assert!(text.contains("alchemist_duration_ns_bucket{name=\"kernel.ntt\",le=\"+Inf\"} 100"));
        assert!(text.contains("alchemist_span_time_ns_total{name=\"ckks.mul\"}"));
        assert!(text.contains("alchemist_gauge{name=\"par.worker.0.busy_ns\"} 7"));
    }

    #[test]
    fn buckets_are_cumulative_and_end_at_count() {
        let tel = Telemetry::enabled();
        for v in [10u64, 10, 500, 70_000, 70_000, 70_000] {
            tel.observe_ns("h", v);
        }
        let text = render(&agg_of(&tel), &[]);
        let mut last = 0u64;
        let mut bucket_lines = 0;
        for line in text.lines().filter(|l| l.starts_with("alchemist_duration_ns_bucket")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "buckets must be cumulative: {line}");
            last = v;
            bucket_lines += 1;
        }
        assert!(bucket_lines >= 3, "expected per-bucket lines plus +Inf:\n{text}");
        assert_eq!(last, 6, "+Inf bucket must equal the total count");
    }

    #[test]
    fn alloc_dimension_renders_when_tracked() {
        let tel = Telemetry::enabled();
        {
            let _s = tel.span("alloc.expo");
            let buf = vec![0u8; 4096];
            std::hint::black_box(&buf);
        }
        let text = render(&agg_of(&tel), &[]);
        assert!(text.contains("# TYPE alchemist_alloc_total counter"), "{text}");
        assert!(text.contains("alchemist_alloc_total{kind=\"allocs\"}"), "{text}");
        assert!(text.contains("alchemist_span_allocs_total{name=\"alloc.expo\"}"), "{text}");
        assert!(text.contains("alchemist_span_alloc_bytes_total{name=\"alloc.expo\"}"), "{text}");
        assert!(text.contains("alchemist_alloc_size_bytes_bucket{name=\"process\""), "{text}");
        assert!(text.contains("alchemist_alloc_size_bytes_count{name=\"process\"}"), "{text}");
    }

    #[test]
    fn label_values_are_escaped() {
        let tel = Telemetry::enabled();
        tel.count_named("weird\"name\\with\nstuff", 1);
        let text = render(&agg_of(&tel), &[]);
        assert!(text.contains(r#"name="weird\"name\\with\nstuff""#), "{text}");
    }

    #[test]
    fn identifier_grammar() {
        assert!(is_valid_metric_name("a"));
        assert!(is_valid_metric_name("alchemist_x_total"));
        assert!(is_valid_metric_name("ns:sub_total"));
        assert!(is_valid_metric_name("x9"));
        assert!(!is_valid_metric_name("9x"));
        assert!(!is_valid_metric_name("has-dash"));
        assert!(!is_valid_metric_name("has.dot"));
        assert!(!is_valid_metric_name(""));
    }
}
