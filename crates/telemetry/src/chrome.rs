//! The one writer of Chrome `trace_event` JSON (the Perfetto legacy
//! format). [`crate::Snapshot::to_chrome_trace`] and
//! [`crate::FlightRecorder::dump_chrome_trace`] both build their document
//! from these pieces, so a span reads the same in an exit-time trace and
//! in a post-mortem dump. Timestamps are microseconds, as the format
//! requires; inputs are nanoseconds.

use crate::json::{write_escaped, write_f64};
use crate::VIRTUAL_TID_BASE;

/// One series of a counter event's `args`.
pub(crate) enum Series {
    /// An exact integer.
    Count(u64),
    /// Nanoseconds, written as microseconds to match the event timestamps.
    Micros(u64),
}

fn write_us(out: &mut String, ns: u64) {
    write_f64(out, ns as f64 / 1000.0);
}

/// Opens a document whose process track is labelled `process_name`.
pub(crate) fn begin(process_name: &str) -> String {
    let mut out = String::from(
        "{\"traceEvents\":[{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
         \"args\":{\"name\":",
    );
    write_escaped(&mut out, process_name);
    out.push_str("}}");
    out
}

/// Closes a document opened by [`begin`].
pub(crate) fn end(out: &mut String) {
    out.push_str("],\"displayTimeUnit\":\"ns\"}");
}

/// Appends one complete (`"ph":"X"`) event. The category follows the
/// track: `simulated` for virtual tracks, `wall` otherwise. Allocation
/// attribution appears in `args` only on spans that allocated.
pub(crate) fn span_event(
    out: &mut String,
    name: &str,
    tid: u64,
    start_ns: u64,
    dur_ns: u64,
    allocs: u64,
    alloc_bytes: u64,
) {
    out.push_str(",{\"ph\":\"X\",\"pid\":1,\"tid\":");
    out.push_str(&tid.to_string());
    out.push_str(",\"ts\":");
    write_us(out, start_ns);
    out.push_str(",\"dur\":");
    write_us(out, dur_ns);
    out.push_str(",\"cat\":");
    write_escaped(out, if tid >= VIRTUAL_TID_BASE { "simulated" } else { "wall" });
    out.push_str(",\"name\":");
    write_escaped(out, name);
    if allocs == 0 && alloc_bytes == 0 {
        out.push_str(",\"args\":{}}");
    } else {
        out.push_str(&format!(",\"args\":{{\"allocs\":{allocs},\"alloc_bytes\":{alloc_bytes}}}}}"));
    }
}

/// Appends one counter (`"ph":"C"`) event at `at_ns`; each entry of
/// `series` becomes one line of the counter track `name`.
pub(crate) fn counter_event(out: &mut String, name: &str, at_ns: u64, series: &[(&str, Series)]) {
    out.push_str(",{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":");
    write_us(out, at_ns);
    out.push_str(",\"name\":");
    write_escaped(out, name);
    out.push_str(",\"args\":{");
    for (i, (key, value)) in series.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_escaped(out, key);
        out.push(':');
        match *value {
            Series::Count(v) => out.push_str(&v.to_string()),
            Series::Micros(ns) => write_us(out, ns),
        }
    }
    out.push_str("}}");
}
