//! Bounded flight recorder for post-mortem traces.
//!
//! A long-running service cannot keep every span of every request, but
//! when something goes wrong the operator wants the *recent* history. The
//! [`FlightRecorder`] is a fixed-capacity ring of the most recent closed
//! spans and named-counter increments: recording is O(1) and never
//! allocates beyond the event's own strings, the oldest entry is evicted
//! when the ring is full, and [`FlightRecorder::dump_chrome_trace`]
//! produces a complete Chrome `trace_event` document that opens directly
//! in <https://ui.perfetto.dev>.
//!
//! Attach one to a handle with [`crate::Telemetry::attach_flight_recorder`];
//! from then on every closed span (wall or virtual) and every
//! `count_named` increment is mirrored into the ring. Fault paths call
//! [`fault_dump`] — a free function using the process-global handle — to
//! write the ring to a configured directory; it is a single relaxed atomic
//! load when no dump directory is configured, so leaving the hook in
//! release builds costs nothing.

use crate::chrome::{self, Series};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default ring capacity: roughly "the last 4k events", enough to span
/// several requests of post-mortem context at a few hundred spans each.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;

/// Cap on fault dumps per process: a campaign injecting hundreds of
/// faults keeps the earliest dumps (closest to the first failure) instead
/// of burying the directory in files.
pub const MAX_FAULT_DUMPS: u64 = 16;

/// One entry in the flight-recorder ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlightEvent {
    /// A closed span (wall or virtual track).
    Span {
        /// Span name.
        name: String,
        /// Track id (virtual tracks start at 1000).
        tid: u64,
        /// Start offset, nanoseconds since the handle's epoch (or virtual
        /// time for virtual tracks).
        start_ns: u64,
        /// Duration in nanoseconds.
        dur_ns: u64,
        /// Heap allocations attributed to the span (zero for virtual spans).
        allocs: u64,
        /// Bytes requested by those allocations.
        alloc_bytes: u64,
    },
    /// One named-counter increment.
    Count {
        /// Counter name.
        name: String,
        /// Increment amount.
        amount: u64,
        /// When it was recorded, nanoseconds since the handle's epoch.
        at_ns: u64,
    },
}

struct Ring {
    buf: Vec<FlightEvent>,
    /// Next slot to overwrite once `buf` has reached capacity.
    next: usize,
    /// Total events ever recorded (≥ `buf.len()`).
    recorded: u64,
}

/// A fixed-capacity, lock-protected ring of recent telemetry events.
pub struct FlightRecorder {
    capacity: usize,
    ring: Mutex<Ring>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity)
            .field("recorded", &self.recorded())
            .finish()
    }
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` recent events (min 1).
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new(FlightRecorder {
            capacity: capacity.max(1),
            ring: Mutex::new(Ring { buf: Vec::new(), next: 0, recorded: 0 }),
        })
    }

    /// A recorder with [`DEFAULT_FLIGHT_CAPACITY`].
    pub fn with_default_capacity() -> Arc<Self> {
        FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY)
    }

    /// Maximum events retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently retained (≤ capacity).
    pub fn len(&self) -> usize {
        self.ring.lock().expect("flight ring poisoned").buf.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever recorded, including evicted ones.
    pub fn recorded(&self) -> u64 {
        self.ring.lock().expect("flight ring poisoned").recorded
    }

    /// Appends one event, evicting the oldest if the ring is full.
    pub fn record(&self, event: FlightEvent) {
        let mut ring = self.ring.lock().expect("flight ring poisoned");
        ring.recorded += 1;
        if ring.buf.len() < self.capacity {
            ring.buf.push(event);
        } else {
            let slot = ring.next;
            ring.buf[slot] = event;
            ring.next = (slot + 1) % self.capacity;
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<FlightEvent> {
        let ring = self.ring.lock().expect("flight ring poisoned");
        let mut out = Vec::with_capacity(ring.buf.len());
        out.extend_from_slice(&ring.buf[ring.next..]);
        out.extend_from_slice(&ring.buf[..ring.next]);
        out
    }

    /// Empties the ring (the `recorded` total is kept).
    pub fn clear(&self) {
        let mut ring = self.ring.lock().expect("flight ring poisoned");
        ring.buf.clear();
        ring.next = 0;
    }

    /// Renders the retained events as a complete Chrome `trace_event`
    /// JSON document (Perfetto-loadable): spans as `"ph":"X"` complete
    /// events, written exactly as [`crate::Snapshot::to_chrome_trace`]
    /// writes them, counter increments as `"ph":"C"` events at their
    /// recording timestamp.
    pub fn dump_chrome_trace(&self) -> String {
        let mut out = chrome::begin("alchemist-flight");
        for e in &self.events() {
            match e {
                FlightEvent::Span { name, tid, start_ns, dur_ns, allocs, alloc_bytes } => {
                    chrome::span_event(
                        &mut out,
                        name,
                        *tid,
                        *start_ns,
                        *dur_ns,
                        *allocs,
                        *alloc_bytes,
                    );
                }
                FlightEvent::Count { name, amount, at_ns } => {
                    chrome::counter_event(
                        &mut out,
                        name,
                        *at_ns,
                        &[("value", Series::Count(*amount))],
                    );
                }
            }
        }
        chrome::end(&mut out);
        out
    }

    /// Writes [`Self::dump_chrome_trace`] to `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_dump(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.dump_chrome_trace())
    }
}

/// Fast-path flag: true only while a dump directory is configured.
static DUMP_CONFIGURED: AtomicBool = AtomicBool::new(false);
static DUMP_DIR: Mutex<Option<PathBuf>> = Mutex::new(None);
static DUMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Configures (or clears, with `None`) the directory [`fault_dump`] writes
/// into. The directory must already exist.
pub fn set_fault_dump_dir(dir: Option<PathBuf>) {
    let mut slot = DUMP_DIR.lock().expect("dump dir poisoned");
    DUMP_CONFIGURED.store(dir.is_some(), Ordering::Release);
    *slot = dir;
}

/// Dumps the process-global handle's flight recorder to the configured
/// directory as `flight-<seq>-<reason>.json` and returns the path.
///
/// Returns `None` — after a single relaxed atomic load — when no dump
/// directory is configured, no global handle is installed, the handle has
/// no recorder attached, or the per-process cap of [`MAX_FAULT_DUMPS`]
/// dumps has been reached. Fault-containment paths call this
/// unconditionally; it only does work when an operator has opted in.
pub fn fault_dump(reason: &str) -> Option<PathBuf> {
    if !DUMP_CONFIGURED.load(Ordering::Relaxed) {
        return None;
    }
    let dir = DUMP_DIR.lock().expect("dump dir poisoned").clone()?;
    let recorder = crate::global()?.flight_recorder()?;
    let seq = DUMP_SEQ.fetch_add(1, Ordering::Relaxed);
    if seq >= MAX_FAULT_DUMPS {
        return None;
    }
    let slug: String = reason
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
        .collect();
    let path = dir.join(format!("flight-{seq:04}-{slug}.json"));
    recorder.write_dump(&path).ok()?;
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn span(name: &str, start: u64) -> FlightEvent {
        FlightEvent::Span {
            name: name.into(),
            tid: 0,
            start_ns: start,
            dur_ns: 10,
            allocs: 0,
            alloc_bytes: 0,
        }
    }

    #[test]
    fn ring_evicts_oldest_first() {
        let rec = FlightRecorder::new(4);
        for i in 0..7u64 {
            rec.record(span(&format!("s{i}"), i));
        }
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.recorded(), 7);
        let names: Vec<String> = rec
            .events()
            .into_iter()
            .map(|e| match e {
                FlightEvent::Span { name, .. } => name,
                FlightEvent::Count { name, .. } => name,
            })
            .collect();
        assert_eq!(names, ["s3", "s4", "s5", "s6"]);
    }

    #[test]
    fn dump_is_valid_chrome_trace() {
        let rec = FlightRecorder::new(16);
        rec.record(span("kernel.ntt", 100));
        rec.record(FlightEvent::Count { name: "fault.injected".into(), amount: 1, at_ns: 150 });
        let doc = parse(&rec.dump_chrome_trace()).expect("dump must be valid JSON");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 3); // metadata + span + counter
        let phases: Vec<&str> =
            events.iter().map(|e| e.get("ph").unwrap().as_str().unwrap()).collect();
        assert_eq!(phases, ["M", "X", "C"]);
        let count = &events[2];
        assert!((count.get("ts").unwrap().as_f64().unwrap() - 0.15).abs() < 1e-9);
        assert_eq!(count.get("args").unwrap().get("value").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn telemetry_mirrors_into_attached_recorder() {
        let tel = crate::Telemetry::enabled();
        let rec = FlightRecorder::new(64);
        assert!(tel.attach_flight_recorder(Arc::clone(&rec)));
        {
            let _s = tel.span("req.handle");
        }
        tel.count_named("req.errors", 2);
        let mut track = tel.virtual_track();
        track.open("sim.run", 0);
        track.leaf("step", 0, 50);
        track.close(80);
        let events = rec.events();
        assert_eq!(events.len(), 4, "{events:?}");
        assert!(matches!(
            &events[0],
            FlightEvent::Span { name, .. } if name == "req.handle"
        ));
        assert!(matches!(
            &events[1],
            FlightEvent::Count { name, amount: 2, .. } if name == "req.errors"
        ));
        // Virtual leaf + close, in recording order.
        assert!(matches!(
            &events[3],
            FlightEvent::Span { name, dur_ns: 80, .. } if name == "sim.run"
        ));
        // A disabled handle refuses attachment.
        assert!(!crate::Telemetry::disabled().attach_flight_recorder(FlightRecorder::new(4)));
    }
}
