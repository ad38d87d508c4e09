//! Unified observability layer for the Alchemist workspace.
//!
//! Three ingredients, shared by the scheme layers, the Meta-OP lowerings,
//! and the cycle simulator:
//!
//! * **Spans** — nested, named timing scopes. Wall-clock spans come from
//!   [`Span::enter`] (scheme layers: `ckks.bootstrap.modraise`, …); the
//!   simulator emits *virtual* spans on its own track via
//!   [`VirtualTrack`], timed in simulated cycles (1 cycle = 1 ns at the
//!   1 GHz design point) rather than host time.
//! * **Counters** — monotone `u64` accumulators keyed by dotted name
//!   ([`Telemetry::count_named`]): the simulator's per-class Meta-OPs,
//!   traffic and cycles (`sim.meta_ops.ntt`, `sim.hbm_bytes.transfer`, …),
//!   fault-campaign outcomes, scheme-layer transform counts.
//! * **Two outputs** — Chrome/Perfetto `trace_event` JSON that opens
//!   directly in <https://ui.perfetto.dev> (an exit-time [`Snapshot`], or a
//!   [`FlightRecorder`] dump after a fault), and a JSONL tick stream from
//!   the background [`Sampler`]. Everything else reads a [`Snapshot`]
//!   through its accessors.
//!
//! A [`Telemetry`] handle is cheap to clone and **free when disabled**: the
//! disabled handle is `None` inside, so every call is a branch on a
//! discriminant — no clock reads, no allocation, no locking. Code that
//! cannot thread a handle explicitly (deep scheme internals) uses the
//! process-global handle via [`install`] + [`Span::enter`], which is a
//! single atomic load when nothing is installed.

// `deny` (not `forbid`) so the one audited exception — the
// `GlobalAlloc` shim in `alloc` — can opt in with an explicit `allow`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
mod chrome;
pub mod delta;
pub mod flight;
pub mod hist;
pub mod json;
pub mod sampler;
mod snapshot;

pub use alloc::{AllocStats, ThreadAllocStats};
pub use delta::{Cursor, DeltaSnapshot};
pub use flight::{FlightEvent, FlightRecorder};
pub use hist::Histogram;
pub use sampler::{JsonlSink, Sample, SampleSink, Sampler, SamplerBuilder};
pub use snapshot::{HistogramRow, Snapshot, SpanRow};

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One recorded (possibly still open) span.
#[derive(Debug, Clone)]
pub(crate) struct EventRec {
    pub name: String,
    /// Export track: 0 and up for wall-clock threads, [`VIRTUAL_TID_BASE`]
    /// and up for virtual tracks.
    pub tid: u64,
    pub start_ns: u64,
    pub dur_ns: Option<u64>,
    pub parent: Option<usize>,
    /// Heap allocations attributed to the opening thread while the span
    /// was live (inclusive of children, like `dur_ns`). Zero until the
    /// span closes, and always zero for virtual (simulated-time) spans.
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
}

/// Virtual tracks (simulated time) start here to keep them visually apart
/// from wall-clock threads in trace viewers.
pub(crate) const VIRTUAL_TID_BASE: u64 = 1000;

#[derive(Default)]
struct State {
    events: Vec<EventRec>,
    /// Counters keyed by dotted name (e.g. `fault.bitflip.detected`).
    named: std::collections::BTreeMap<String, u64>,
    /// Latency histograms keyed by name. Boxed so the map nodes stay small;
    /// recording into an existing histogram allocates nothing.
    hists: std::collections::BTreeMap<String, Box<Histogram>>,
    /// Free-form session metadata (host facts, feature flags) carried into
    /// the Chrome trace so traces are self-describing.
    meta: std::collections::BTreeMap<String, String>,
    /// Cumulative per-span-name allocation attribution
    /// (`name → (allocs, bytes)`), updated when spans close. The
    /// [`delta`] cursor diffs this map, so live sinks stream span-level
    /// allocation pressure alongside span time.
    span_allocs: std::collections::BTreeMap<String, (u64, u64)>,
    /// Per-thread open-span stacks (indices into `events`).
    stacks: HashMap<u64, Vec<usize>>,
    thread_ids: HashMap<std::thread::ThreadId, u64>,
    next_tid: u64,
    next_virtual_tid: u64,
    /// Optional flight recorder mirroring closed spans and named-counter
    /// increments for post-mortem dumps (see [`flight`]).
    flight: Option<Arc<flight::FlightRecorder>>,
}

impl State {
    /// The export track id for the calling thread, assigned on first use.
    fn tid_for_current_thread(&mut self) -> u64 {
        match self.thread_ids.get(&std::thread::current().id()) {
            Some(&t) => t,
            None => {
                let t = self.next_tid;
                self.next_tid += 1;
                self.thread_ids.insert(std::thread::current().id(), t);
                t
            }
        }
    }

    /// Records `ns` into the histogram `name`, creating it on first use
    /// (the only allocation this path can take).
    fn observe(&mut self, name: &str, ns: u64) {
        match self.hists.get_mut(name) {
            Some(h) => h.record(ns),
            None => {
                let mut h = Box::new(Histogram::new());
                h.record(ns);
                self.hists.insert(name.to_string(), h);
            }
        }
    }
}

struct Inner {
    state: Mutex<State>,
    epoch: Instant,
}

/// A cloneable recording handle. Disabled handles are free no-ops.
#[derive(Clone)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry").field("enabled", &self.is_enabled()).finish()
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::disabled()
    }
}

impl Telemetry {
    /// A recording handle.
    pub fn enabled() -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                state: Mutex::new(State { next_virtual_tid: VIRTUAL_TID_BASE, ..State::default() }),
                epoch: Instant::now(),
            })),
        }
    }

    /// A handle on which every operation is a no-op.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds `amount` to the counter `name`. Use dotted lower-case
    /// names (`fault.bitflip.detected`); zero amounts still materialize the
    /// counter so exports show explicit zeros for events that never fired.
    #[inline]
    pub fn count_named(&self, name: &str, amount: u64) {
        let Some(inner) = &self.inner else { return };
        // Recording allocates (map keys, flight mirror); keep telemetry's
        // own bookkeeping out of span allocation attribution.
        let _exempt = alloc::exempt_scope();
        let mut st = inner.state.lock().expect("telemetry state poisoned");
        match st.named.get_mut(name) {
            Some(v) => *v += amount,
            None => {
                st.named.insert(name.to_string(), amount);
            }
        }
        // Mirror into the flight recorder outside the state lock (the
        // recorder has its own lock; never hold both).
        let recorder = st.flight.clone();
        drop(st);
        if let Some(rec) = recorder {
            let at_ns = inner.epoch.elapsed().as_nanos() as u64;
            rec.record(flight::FlightEvent::Count { name: name.to_string(), amount, at_ns });
        }
    }

    /// Records one `ns` duration into the histogram `name` (created on
    /// first use). Allocation-free for already-seen names; a no-op costing
    /// one discriminant branch on a disabled handle.
    #[inline]
    pub fn observe_ns(&self, name: &str, ns: u64) {
        let Some(inner) = &self.inner else { return };
        let _exempt = alloc::exempt_scope();
        let mut st = inner.state.lock().expect("telemetry state poisoned");
        st.observe(name, ns);
    }

    /// Starts a histogram-only timer: dropping the guard records the
    /// elapsed nanoseconds into the histogram `name` without emitting a
    /// span event. The right tool for per-call latency of kernels invoked
    /// thousands of times — histogram memory is O(1) per name, whereas a
    /// span guard appends one event per call. Disabled handles read no
    /// clock and take no lock.
    #[inline]
    pub fn time(&self, name: &'static str) -> TimerGuard {
        let Some(inner) = &self.inner else {
            return TimerGuard { rec: None };
        };
        let start_ns = inner.epoch.elapsed().as_nanos() as u64;
        TimerGuard { rec: Some((Arc::clone(inner), name, start_ns)) }
    }

    /// Sets a session metadata entry (host facts, feature flags) carried
    /// verbatim into the Chrome trace. Later writes to the same key win.
    pub fn set_meta(&self, key: &str, value: &str) {
        let Some(inner) = &self.inner else { return };
        let _exempt = alloc::exempt_scope();
        let mut st = inner.state.lock().expect("telemetry state poisoned");
        st.meta.insert(key.to_string(), value.to_string());
    }

    /// Opens a wall-clock span on the current thread. Close by dropping.
    #[inline]
    pub fn span(&self, name: &str) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard { rec: None };
        };
        let start_ns = inner.epoch.elapsed().as_nanos() as u64;
        // The open path itself allocates (name clone, event push); exempt
        // it so the *enclosing* span's allocation delta stays pure user
        // code. The thread baseline is read while still exempt, so the
        // new span's own delta starts from a quiescent counter.
        let _exempt = alloc::exempt_scope();
        let mut st = inner.state.lock().expect("telemetry state poisoned");
        let tid = st.tid_for_current_thread();
        let parent = st.stacks.get(&tid).and_then(|s| s.last().copied());
        let idx = st.events.len();
        st.events.push(EventRec {
            name: name.to_string(),
            tid,
            start_ns,
            dur_ns: None,
            parent,
            allocs: 0,
            alloc_bytes: 0,
        });
        st.stacks.entry(tid).or_default().push(idx);
        drop(st);
        SpanGuard { rec: Some((Arc::clone(inner), idx, tid, alloc::thread_stats())) }
    }

    /// Opens a virtual-time track (e.g. one simulator run). Timestamps on
    /// the track are caller-supplied nanoseconds of *simulated* time.
    pub fn virtual_track(&self) -> VirtualTrack {
        let Some(inner) = &self.inner else {
            return VirtualTrack { rec: None, stack: Vec::new() };
        };
        let mut st = inner.state.lock().expect("telemetry state poisoned");
        let tid = st.next_virtual_tid;
        st.next_virtual_tid += 1;
        VirtualTrack { rec: Some((Arc::clone(inner), tid)), stack: Vec::new() }
    }

    /// Attaches a flight recorder: from now on every closed span (wall or
    /// virtual) and every [`Telemetry::count_named`] increment is mirrored
    /// into `recorder`'s ring for post-mortem dumps. Replaces any previous
    /// recorder. Returns `false` on a disabled handle.
    pub fn attach_flight_recorder(&self, recorder: Arc<flight::FlightRecorder>) -> bool {
        let Some(inner) = &self.inner else { return false };
        let mut st = inner.state.lock().expect("telemetry state poisoned");
        st.flight = Some(recorder);
        true
    }

    /// The attached flight recorder, if any.
    pub fn flight_recorder(&self) -> Option<Arc<flight::FlightRecorder>> {
        let inner = self.inner.as_ref()?;
        inner.state.lock().expect("telemetry state poisoned").flight.clone()
    }

    /// An immutable copy of everything recorded so far. Open spans are
    /// included with the duration they have accumulated at this instant.
    pub fn snapshot(&self) -> Snapshot {
        let Some(inner) = &self.inner else {
            return Snapshot::empty();
        };
        let now_ns = inner.epoch.elapsed().as_nanos() as u64;
        let st = inner.state.lock().expect("telemetry state poisoned");
        Snapshot::build(&st.events, &st.named, &st.hists, &st.meta, now_ns)
    }
}

/// Closes its span when dropped, stamping both the elapsed wall time and
/// the allocation delta `{allocs, bytes}` attributed to the opening
/// thread while the span was live (see [`alloc`]).
pub struct SpanGuard {
    rec: Option<(Arc<Inner>, usize, u64, alloc::ThreadAllocStats)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((inner, idx, tid, base)) = self.rec.take() else { return };
        // Read the allocation delta before any closing bookkeeping can
        // allocate. Thread counters are thread-local, so a guard dropped
        // on a different thread than it was opened on reads a saturated
        // zero rather than another thread's garbage.
        let d = alloc::thread_stats().since(base);
        let end_ns = inner.epoch.elapsed().as_nanos() as u64;
        let _exempt = alloc::exempt_scope();
        let mut st = inner.state.lock().expect("telemetry state poisoned");
        let start = st.events[idx].start_ns;
        let dur = end_ns.saturating_sub(start);
        st.events[idx].dur_ns = Some(dur);
        // Accumulate (not assign): a span that hopped threads via
        // detach/attach already banked the segments it spent on earlier
        // threads into the event record.
        st.events[idx].allocs += d.allocs;
        st.events[idx].alloc_bytes += d.bytes;
        let total = (st.events[idx].allocs, st.events[idx].alloc_bytes);
        if let Some(stack) = st.stacks.get_mut(&tid) {
            // Out-of-order guard drops (e.g. explicit `drop`) still unwind
            // correctly: remove this index wherever it sits.
            if let Some(pos) = stack.iter().rposition(|&i| i == idx) {
                stack.remove(pos);
            }
        }
        // Every closed wall span also feeds the per-name latency histogram,
        // so repeated kernels get p50/p99 without extra instrumentation.
        // Split-borrow events/hists so the existing name needs no clone.
        let State { events, hists, flight, span_allocs, .. } = &mut *st;
        let name = events[idx].name.as_str();
        match hists.get_mut(name) {
            Some(h) => h.record(dur),
            None => {
                let mut h = Box::new(Histogram::new());
                h.record(dur);
                hists.insert(name.to_string(), h);
            }
        }
        if d.allocs != 0 || d.bytes != 0 {
            match span_allocs.get_mut(name) {
                Some(e) => {
                    e.0 += d.allocs;
                    e.1 += d.bytes;
                }
                None => {
                    span_allocs.insert(name.to_string(), (d.allocs, d.bytes));
                }
            }
        }
        let mirrored = flight.clone().map(|rec| (rec, name.to_string()));
        drop(st);
        if let Some((rec, name)) = mirrored {
            rec.record(flight::FlightEvent::Span {
                name,
                tid,
                start_ns: start,
                dur_ns: dur,
                allocs: total.0,
                alloc_bytes: total.1,
            });
        }
    }
}

impl SpanGuard {
    /// Detaches the span from the current thread so the work it covers can
    /// hop threads (queue → worker) without losing attribution.
    ///
    /// Allocation counters are thread-local, so a plain [`SpanGuard`]
    /// dropped on a different thread reads a saturated-zero delta and the
    /// span silently loses its `{allocs, bytes}`. `detach` banks the delta
    /// accumulated *so far on this thread* into the span record, pops the
    /// span off this thread's open-span stack, and returns a [`Send`]
    /// token; [`DetachedSpan::attach`] re-arms it against the receiving
    /// thread's counters. Call it on the thread that currently owns the
    /// guard — usually the one that opened or last attached it.
    ///
    /// Wall time keeps running across the hop, so the closed span reports
    /// end-to-end latency (queue wait included).
    pub fn detach(mut self) -> DetachedSpan {
        let Some((inner, idx, tid, base)) = self.rec.take() else {
            return DetachedSpan { rec: None };
        };
        let d = alloc::thread_stats().since(base);
        let _exempt = alloc::exempt_scope();
        let mut st = inner.state.lock().expect("telemetry state poisoned");
        st.events[idx].allocs += d.allocs;
        st.events[idx].alloc_bytes += d.bytes;
        if let Some(stack) = st.stacks.get_mut(&tid) {
            if let Some(pos) = stack.iter().rposition(|&i| i == idx) {
                stack.remove(pos);
            }
        }
        if d.allocs != 0 || d.bytes != 0 {
            let State { events, span_allocs, .. } = &mut *st;
            let name = events[idx].name.as_str();
            match span_allocs.get_mut(name) {
                Some(e) => {
                    e.0 += d.allocs;
                    e.1 += d.bytes;
                }
                None => {
                    span_allocs.insert(name.to_string(), (d.allocs, d.bytes));
                }
            }
        }
        drop(st);
        DetachedSpan { rec: Some((inner, idx)) }
    }
}

/// A span mid-hop between threads (see [`SpanGuard::detach`]). Sendable;
/// dropping it without [`attach`](DetachedSpan::attach) closes the span on
/// the dropping thread (no further allocation is attributed).
pub struct DetachedSpan {
    rec: Option<(Arc<Inner>, usize)>,
}

impl DetachedSpan {
    /// Re-arms the span on the calling thread: the event moves to this
    /// thread's export track, joins its open-span stack (so spans opened
    /// here nest under it), and subsequent allocations on this thread are
    /// attributed to the span until the returned guard drops or detaches
    /// again.
    pub fn attach(mut self) -> SpanGuard {
        self.attach_inner()
    }

    fn attach_inner(&mut self) -> SpanGuard {
        let Some((inner, idx)) = self.rec.take() else {
            return SpanGuard { rec: None };
        };
        let _exempt = alloc::exempt_scope();
        let mut st = inner.state.lock().expect("telemetry state poisoned");
        let tid = st.tid_for_current_thread();
        st.events[idx].tid = tid;
        st.stacks.entry(tid).or_default().push(idx);
        drop(st);
        SpanGuard { rec: Some((inner, idx, tid, alloc::thread_stats())) }
    }
}

impl Drop for DetachedSpan {
    fn drop(&mut self) {
        if self.rec.is_some() {
            // Attach-then-drop closes the span with the banked segments
            // and zero extra attribution on this thread.
            drop(self.attach_inner());
        }
    }
}

/// Closes a histogram-only timer when dropped (see [`Telemetry::time`]).
pub struct TimerGuard {
    rec: Option<(Arc<Inner>, &'static str, u64)>,
}

impl Drop for TimerGuard {
    fn drop(&mut self) {
        let Some((inner, name, start_ns)) = self.rec.take() else { return };
        let end_ns = inner.epoch.elapsed().as_nanos() as u64;
        let _exempt = alloc::exempt_scope();
        let mut st = inner.state.lock().expect("telemetry state poisoned");
        st.observe(name, end_ns.saturating_sub(start_ns));
    }
}

/// Entry point used by code that does not thread a handle explicitly:
/// `let _s = Span::enter("ckks.bootstrap.modup");`.
pub struct Span;

impl Span {
    /// Opens a span on the process-global handle (no-op until [`install`]
    /// has been called with an enabled handle).
    #[inline]
    pub fn enter(name: &str) -> SpanGuard {
        match global() {
            Some(tel) => tel.span(name),
            None => SpanGuard { rec: None },
        }
    }
}

/// Histogram-only analog of [`Span`] for very hot call sites:
/// `let _t = Timer::enter("math.modup");` records the call's latency into
/// the global handle's histogram without appending a span event.
pub struct Timer;

impl Timer {
    /// Starts a timer on the process-global handle (no-op until [`install`]
    /// has been called with an enabled handle).
    #[inline]
    pub fn enter(name: &'static str) -> TimerGuard {
        match global() {
            Some(tel) => tel.time(name),
            None => TimerGuard { rec: None },
        }
    }
}

/// A track of spans in *virtual* (simulated) time. The caller supplies
/// every timestamp; nesting follows the open/close call order.
pub struct VirtualTrack {
    rec: Option<(Arc<Inner>, u64)>,
    stack: Vec<usize>,
}

impl VirtualTrack {
    /// Opens a nested span starting at `start_ns` of virtual time.
    pub fn open(&mut self, name: &str, start_ns: u64) {
        let Some((inner, tid)) = &self.rec else { return };
        let _exempt = alloc::exempt_scope();
        let mut st = inner.state.lock().expect("telemetry state poisoned");
        let idx = st.events.len();
        st.events.push(EventRec {
            name: name.to_string(),
            tid: *tid,
            start_ns,
            dur_ns: None,
            parent: self.stack.last().copied(),
            allocs: 0,
            alloc_bytes: 0,
        });
        self.stack.push(idx);
    }

    /// Closes the innermost open span at `end_ns` of virtual time.
    pub fn close(&mut self, end_ns: u64) {
        let Some((inner, tid)) = &self.rec else { return };
        let Some(idx) = self.stack.pop() else { return };
        let tid = *tid;
        let _exempt = alloc::exempt_scope();
        let mut st = inner.state.lock().expect("telemetry state poisoned");
        let start = st.events[idx].start_ns;
        let dur = end_ns.saturating_sub(start);
        st.events[idx].dur_ns = Some(dur);
        let mirrored = st.flight.clone().map(|rec| (rec, st.events[idx].name.clone()));
        drop(st);
        if let Some((rec, name)) = mirrored {
            // Virtual spans are simulated time; they carry no allocation
            // attribution.
            rec.record(flight::FlightEvent::Span {
                name,
                tid,
                start_ns: start,
                dur_ns: dur,
                allocs: 0,
                alloc_bytes: 0,
            });
        }
    }

    /// Records a complete child span under the innermost open span.
    pub fn leaf(&mut self, name: &str, start_ns: u64, dur_ns: u64) {
        let Some((inner, tid)) = &self.rec else { return };
        let tid = *tid;
        let _exempt = alloc::exempt_scope();
        let mut st = inner.state.lock().expect("telemetry state poisoned");
        st.events.push(EventRec {
            name: name.to_string(),
            tid,
            start_ns,
            dur_ns: Some(dur_ns),
            parent: self.stack.last().copied(),
            allocs: 0,
            alloc_bytes: 0,
        });
        let recorder = st.flight.clone();
        drop(st);
        if let Some(rec) = recorder {
            rec.record(flight::FlightEvent::Span {
                name: name.to_string(),
                tid,
                start_ns,
                dur_ns,
                allocs: 0,
                alloc_bytes: 0,
            });
        }
    }
}

static GLOBAL: OnceLock<Telemetry> = OnceLock::new();

/// Installs the process-global handle used by [`Span::enter`]. The first
/// installation wins; later calls return `false` and change nothing (a
/// process records one session).
pub fn install(tel: Telemetry) -> bool {
    GLOBAL.set(tel).is_ok()
}

/// The installed global handle, if any.
pub fn global() -> Option<Telemetry> {
    GLOBAL.get().cloned()
}

/// Adds `amount` to the counter `name` on the process-global
/// handle — the counter analog of [`Span::enter`] for code that does not
/// thread a handle explicitly. A single atomic load until [`install`] has
/// been called with an enabled handle.
#[inline]
pub fn count_named(name: &str, amount: u64) {
    if let Some(tel) = global() {
        tel.count_named(name, amount);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let tel = Telemetry::disabled();
        {
            let _s = tel.span("never");
            let _t = tel.time("never.timed");
            tel.count_named("never.count", 7);
            tel.observe_ns("never.hist", 123);
            tel.set_meta("never", "meta");
        }
        let snap = tel.snapshot();
        assert!(snap.spans().is_empty());
        assert!(snap.named_counters().is_empty());
        assert!(snap.histograms().is_empty());
        assert!(snap.meta().is_empty());
    }

    #[test]
    fn disabled_handle_is_cheap() {
        // Sanity bound, not a benchmark: 10M no-op counts must be far under
        // a second — they are a discriminant check each.
        let tel = Telemetry::disabled();
        let start = Instant::now();
        for i in 0..10_000_000u64 {
            tel.count_named("sim.meta_ops.ntt", i & 1);
        }
        assert!(start.elapsed().as_secs_f64() < 2.0);
    }

    #[test]
    fn spans_nest_by_call_order() {
        let tel = Telemetry::enabled();
        {
            let _outer = tel.span("outer");
            {
                let _inner = tel.span("inner");
            }
            let _sibling = tel.span("sibling");
        }
        let snap = tel.snapshot();
        let spans = snap.spans();
        assert_eq!(spans.len(), 3);
        let outer = spans.iter().position(|s| s.name == "outer").unwrap();
        let inner = &spans[spans.iter().position(|s| s.name == "inner").unwrap()];
        let sibling = &spans[spans.iter().position(|s| s.name == "sibling").unwrap()];
        assert_eq!(inner.parent, Some(outer));
        assert_eq!(sibling.parent, Some(outer));
        assert_eq!(spans[outer].parent, None);
        assert!(inner.dur_ns <= spans[outer].dur_ns);
        // Start order: outer <= inner <= sibling.
        assert!(spans[outer].start_ns <= inner.start_ns);
        assert!(inner.start_ns <= sibling.start_ns);
    }

    #[test]
    fn counters_aggregate_across_threads() {
        let tel = Telemetry::enabled();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let tel = tel.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        tel.count_named("sim.meta_ops.bconv", 1);
                        tel.count_named("sim.hbm_bytes.transfer", 64);
                    }
                    let _s = tel.span(&format!("worker-{t}"));
                });
            }
        });
        let snap = tel.snapshot();
        assert_eq!(snap.named_counter("sim.meta_ops.bconv"), 4000);
        assert_eq!(snap.named_counter("sim.hbm_bytes.transfer"), 256_000);
        // Each worker thread got its own track.
        let tids: std::collections::BTreeSet<u64> = snap.spans().iter().map(|s| s.tid).collect();
        assert_eq!(tids.len(), 4);
    }

    #[test]
    fn virtual_track_uses_caller_time() {
        let tel = Telemetry::enabled();
        let mut track = tel.virtual_track();
        track.open("sim.run", 0);
        track.leaf("step-a", 0, 100);
        track.leaf("step-b", 100, 150);
        track.close(250);
        let snap = tel.snapshot();
        let root = snap.spans().iter().find(|s| s.name == "sim.run").unwrap();
        assert_eq!(root.dur_ns, 250);
        assert!(root.tid >= VIRTUAL_TID_BASE);
        let b = snap.spans().iter().find(|s| s.name == "step-b").unwrap();
        assert_eq!((b.start_ns, b.dur_ns), (100, 150));
    }

    #[test]
    fn spans_attribute_their_allocations() {
        let tel = Telemetry::enabled();
        {
            let _outer = tel.span("alloc.outer");
            {
                let _inner = tel.span("alloc.inner");
                let buf = vec![7u8; 32 * 1024];
                std::hint::black_box(&buf);
            }
        }
        {
            // Telemetry's own bookkeeping is exempt, so a span whose body
            // does not touch the heap reports zero — even when its body is
            // the first to count or observe a name, which inserts a map
            // entry.
            let _quiet = tel.span("alloc.quiet");
            tel.count_named("alloc.quiet.first_count", 1);
            tel.observe_ns("alloc.quiet.first_observe", 1);
        }
        let snap = tel.snapshot();
        let get = |name: &str| snap.spans().iter().find(|s| s.name == name).unwrap().clone();
        let inner = get("alloc.inner");
        assert!(inner.allocs >= 1, "inner must see the vec: {inner:?}");
        assert!(inner.alloc_bytes >= 32 * 1024, "{inner:?}");
        // Attribution is inclusive: the parent covers its children, like
        // dur_ns.
        let outer = get("alloc.outer");
        assert!(outer.allocs >= inner.allocs, "{outer:?} vs {inner:?}");
        assert!(outer.alloc_bytes >= inner.alloc_bytes);
        assert_eq!((get("alloc.quiet").allocs, get("alloc.quiet").alloc_bytes), (0, 0));
        // The trace carries the dimension as args on allocating spans only.
        let trace = snap.to_chrome_trace();
        assert!(trace.contains("\"args\":{\"allocs\":"), "{trace}");
    }

    #[test]
    fn detached_span_attributes_allocations_across_threads() {
        let tel = Telemetry::enabled();
        let guard = tel.span("svc.request");
        let staged = vec![1u8; 16 * 1024];
        std::hint::black_box(&staged);
        let det = guard.detach();
        let tel_worker = tel.clone();
        std::thread::spawn(move || {
            let reattached = det.attach();
            {
                // Spans opened on the worker nest under the hopped span.
                let _child = tel_worker.span("svc.request.exec");
            }
            let worker_buf = vec![2u8; 64 * 1024];
            std::hint::black_box(&worker_buf);
            drop(reattached);
        })
        .join()
        .unwrap();
        let snap = tel.snapshot();
        let spans = snap.spans();
        let req_idx = spans.iter().position(|s| s.name == "svc.request").unwrap();
        let req = spans[req_idx].clone();
        assert!(req.dur_ns > 0, "span closed on the worker: {req:?}");
        let child = spans.iter().find(|s| s.name == "svc.request.exec").unwrap();
        assert_eq!(child.parent, Some(req_idx), "worker spans nest under the hopped span");
        // Both segments count: the opener's 16 KiB and the worker's
        // 64 KiB. A plain cross-thread drop would report zero.
        assert!(req.allocs >= 2, "{req:?}");
        assert!(req.alloc_bytes >= 80 * 1024, "{req:?}");
    }

    #[test]
    fn dropped_detached_span_still_closes() {
        let tel = Telemetry::enabled();
        let det = tel.span("svc.abandoned").detach();
        drop(det);
        assert!(tel.snapshot().spans().iter().any(|s| s.name == "svc.abandoned"));
        // After the drop the open-span stack is balanced: a fresh span on
        // this thread has no parent.
        let g = tel.span("svc.after");
        drop(g);
        let snap = tel.snapshot();
        let after = snap.spans().iter().find(|s| s.name == "svc.after").unwrap().clone();
        assert_eq!(after.parent, None);
    }

    #[test]
    fn global_install_wins_once() {
        // Single test touching the global: install an enabled handle, use
        // Span::enter, then verify a second install is rejected.
        let tel = Telemetry::enabled();
        let first = install(tel.clone());
        {
            let _s = Span::enter("global.scope");
        }
        if first {
            assert!(!install(Telemetry::disabled()));
            let snap = tel.snapshot();
            assert!(snap.spans().iter().any(|s| s.name == "global.scope"));
        }
    }
}
