//! Streaming delta snapshots.
//!
//! An exit-time [`crate::Snapshot`] answers "what happened over the whole
//! run"; a long-running service needs "what happened since the last time I
//! looked" at a fixed cadence, without pausing workers. This module adds
//! that second view: a caller-owned [`Cursor`] remembers how much of the
//! recording state a previous capture already consumed, and
//! [`Telemetry::snapshot_delta`] returns only the increment since then as
//! a [`DeltaSnapshot`]. Deltas are **exact**: for counters and histogram
//! buckets, merging every delta of a run reproduces the final cumulative
//! state bit-identically (the invariant the concurrent stress test in
//! `tests/live_stream.rs` enforces).
//!
//! ## Open-span attribution
//!
//! Spans may straddle capture boundaries. A wall-clock span that is still
//! open when a delta is taken contributes the duration it has accumulated
//! *within the interval*; the cursor records how much has already been
//! attributed so the close contributes only the remainder — the total
//! attributed across all deltas equals the span's final duration exactly,
//! with no double counting. Virtual (simulated-time) spans have no "now",
//! so an open virtual span is attributed in full when it closes.
//!
//! The capture path takes the state lock once, walks only events past the
//! cursor's frontier, and allocates only for entries that actually changed
//! — cheap enough for a 1 ms sampler tick.

use crate::hist::Histogram;
use crate::{Telemetry, VIRTUAL_TID_BASE};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Remembers how much recorded state previous [`Telemetry::snapshot_delta`]
/// calls have already consumed. One cursor per consumer; a cursor is bound
/// to the first handle it observes and resets itself if used on another.
#[derive(Debug, Default)]
pub struct Cursor {
    /// Identity of the handle this cursor is bound to (`Arc` pointer).
    handle: Option<usize>,
    /// Last-seen cumulative counter values.
    named: BTreeMap<String, u64>,
    /// Last-seen cumulative histogram state, per name.
    hists: BTreeMap<String, Box<Histogram>>,
    /// Last-seen process-global allocation counters.
    alloc: crate::alloc::AllocStats,
    /// Last-seen cumulative per-span-name allocation attribution.
    span_allocs: BTreeMap<String, (u64, u64)>,
    /// Events below this index are closed and fully attributed.
    frontier: usize,
    /// Duration already attributed to intervals, for events at or past the
    /// frontier (open spans, and closed spans not yet swept past).
    attributed: BTreeMap<usize, u64>,
    /// Number of captures taken through this cursor.
    captures: u64,
}

impl Cursor {
    /// A fresh cursor: the first capture through it returns everything
    /// recorded so far.
    pub fn new() -> Self {
        Cursor::default()
    }

    /// Number of captures taken through this cursor.
    pub fn captures(&self) -> u64 {
        self.captures
    }
}

/// Everything recorded between two cursor positions. Mergeable: summing
/// every delta of a run reproduces the run's cumulative counters and
/// histogram buckets exactly.
#[derive(Debug, Clone, Default)]
pub struct DeltaSnapshot {
    /// Capture instant, nanoseconds since the handle's epoch.
    pub at_ns: u64,
    /// 0-based capture sequence number within the producing cursor.
    pub seq: u64,
    /// Counter increments (only counters that changed). A counter
    /// materialized at zero appears once with value 0 so merged deltas show
    /// the same explicit zeros as a full [`crate::Snapshot`].
    pub named: BTreeMap<String, u64>,
    /// Interval histograms (only names that changed), exact per bucket.
    pub hists: BTreeMap<String, Histogram>,
    /// Span wall/virtual time attributed to this interval, per span name.
    pub span_ns: BTreeMap<String, u64>,
    /// Process-global allocator counter increments for the interval
    /// (`allocs`, `deallocs`, `reallocs`, `bytes_allocated`,
    /// `bytes_deallocated`; only keys that moved). Process-global, not
    /// handle-scoped: rebinding a cursor to a new handle re-reports the
    /// full totals.
    pub alloc: BTreeMap<String, u64>,
    /// Allocation pressure `(allocs, bytes)` attributed to spans that
    /// closed in this interval, per span name.
    pub span_allocs: BTreeMap<String, (u64, u64)>,
}

impl DeltaSnapshot {
    /// Whether the interval recorded nothing *through the handle*. The
    /// process-global allocator census ([`DeltaSnapshot::alloc`]) moves on
    /// its own (the capture itself allocates) and is deliberately not
    /// consulted, so an idle service still reports idle intervals.
    pub fn is_empty(&self) -> bool {
        self.named.is_empty()
            && self.hists.is_empty()
            && self.span_ns.is_empty()
            && self.span_allocs.is_empty()
    }

    /// Folds `other` into `self`. Counters and span times add; histograms
    /// merge bucket-wise; `at_ns`/`seq` advance to the later capture.
    pub fn merge(&mut self, other: &DeltaSnapshot) {
        self.at_ns = self.at_ns.max(other.at_ns);
        self.seq = self.seq.max(other.seq);
        for (k, &v) in &other.named {
            *self.named.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.hists {
            match self.hists.get_mut(k) {
                Some(mine) => mine.merge(h),
                None => {
                    self.hists.insert(k.clone(), h.clone());
                }
            }
        }
        for (k, &v) in &other.span_ns {
            *self.span_ns.entry(k.clone()).or_insert(0) += v;
        }
        for (k, &v) in &other.alloc {
            *self.alloc.entry(k.clone()).or_insert(0) += v;
        }
        for (k, &(a, b)) in &other.span_allocs {
            let e = self.span_allocs.entry(k.clone()).or_insert((0, 0));
            e.0 += a;
            e.1 += b;
        }
    }
}

impl Telemetry {
    /// Captures everything recorded since `cursor` last observed this
    /// handle and advances the cursor. The first capture through a fresh
    /// cursor returns the full recording so far; a disabled handle returns
    /// an empty delta and leaves the cursor untouched.
    ///
    /// Takes the state lock exactly once and allocates only for entries
    /// that changed, so a sampler thread can call this at millisecond
    /// cadence without stalling recording threads.
    pub fn snapshot_delta(&self, cursor: &mut Cursor) -> DeltaSnapshot {
        let Some(inner) = &self.inner else {
            return DeltaSnapshot::default();
        };
        let handle = Arc::as_ptr(inner) as usize;
        if cursor.handle != Some(handle) {
            *cursor = Cursor { handle: Some(handle), ..Cursor::default() };
        }
        let now_ns = inner.epoch.elapsed().as_nanos() as u64;
        let st = inner.state.lock().expect("telemetry state poisoned");
        let mut out =
            DeltaSnapshot { at_ns: now_ns, seq: cursor.captures, ..DeltaSnapshot::default() };
        cursor.captures += 1;

        for (name, &value) in &st.named {
            match cursor.named.get_mut(name) {
                Some(prev) if *prev == value => {}
                Some(prev) => {
                    out.named.insert(name.clone(), value - *prev);
                    *prev = value;
                }
                None => {
                    // First sight: include even a zero so merged deltas
                    // materialize the same explicit zeros a full snapshot
                    // shows.
                    out.named.insert(name.clone(), value);
                    cursor.named.insert(name.clone(), value);
                }
            }
        }
        for (name, h) in &st.hists {
            match cursor.hists.get_mut(name) {
                Some(prev) if prev.count() == h.count() => {}
                Some(prev) => {
                    out.hists.insert(name.clone(), h.diff(prev));
                    **prev = (**h).clone();
                }
                None => {
                    out.hists.insert(name.clone(), (**h).clone());
                    cursor.hists.insert(name.clone(), h.clone());
                }
            }
        }

        // Allocation dimension: process-global monotone counters delta'd
        // against the cursor's last sight, and per-span-name attribution
        // diffed from the cumulative map closed spans maintain.
        let cur = crate::alloc::global_stats();
        let prev = cursor.alloc;
        for (key, now, then) in [
            ("allocs", cur.allocs, prev.allocs),
            ("deallocs", cur.deallocs, prev.deallocs),
            ("reallocs", cur.reallocs, prev.reallocs),
            ("bytes_allocated", cur.bytes_allocated, prev.bytes_allocated),
            ("bytes_deallocated", cur.bytes_deallocated, prev.bytes_deallocated),
        ] {
            if now != then {
                out.alloc.insert(key.to_string(), now - then);
            }
        }
        cursor.alloc = cur;
        for (name, &(a, b)) in &st.span_allocs {
            match cursor.span_allocs.get_mut(name) {
                Some(prev) if *prev == (a, b) => {}
                Some(prev) => {
                    out.span_allocs.insert(name.clone(), (a - prev.0, b - prev.1));
                    *prev = (a, b);
                }
                None => {
                    out.span_allocs.insert(name.clone(), (a, b));
                    cursor.span_allocs.insert(name.clone(), (a, b));
                }
            }
        }

        // Span attribution: walk events past the frontier. Closed spans
        // contribute whatever earlier captures have not already attributed;
        // open wall spans contribute their in-flight duration up to `now`
        // (remembered so the close only adds the remainder); open virtual
        // spans wait for their close (virtual time has no "now").
        for idx in cursor.frontier..st.events.len() {
            let e = &st.events[idx];
            let already = cursor.attributed.get(&idx).copied().unwrap_or(0);
            match e.dur_ns {
                Some(dur) => {
                    if dur > already {
                        *out.span_ns.entry(e.name.clone()).or_insert(0) += dur - already;
                    }
                    cursor.attributed.insert(idx, dur.max(already));
                }
                None if e.tid < VIRTUAL_TID_BASE => {
                    let so_far = now_ns.saturating_sub(e.start_ns);
                    if so_far > already {
                        *out.span_ns.entry(e.name.clone()).or_insert(0) += so_far - already;
                        cursor.attributed.insert(idx, so_far);
                    }
                }
                None => {}
            }
        }
        // Sweep the frontier past the fully-attributed closed prefix so the
        // per-capture walk and the attribution map stay bounded by the
        // number of still-open (or recently closed) spans.
        while cursor.frontier < st.events.len() {
            let idx = cursor.frontier;
            match st.events[idx].dur_ns {
                Some(dur) if cursor.attributed.get(&idx).copied().unwrap_or(0) >= dur => {
                    cursor.attributed.remove(&idx);
                    cursor.frontier += 1;
                }
                _ => break,
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_handle_yields_empty_delta() {
        let tel = Telemetry::disabled();
        let mut cur = Cursor::new();
        tel.count_named("never", 3);
        let d = tel.snapshot_delta(&mut cur);
        assert!(d.is_empty());
        assert_eq!(cur.captures(), 0);
    }

    #[test]
    fn counters_and_hists_delta_exactly() {
        let tel = Telemetry::enabled();
        let mut cur = Cursor::new();
        tel.count_named("sim.meta_ops.ntt", 10);
        tel.count_named("fault.bitflip.injected", 2);
        tel.count_named("fault.bitflip.escaped", 0); // explicit zero
        tel.observe_ns("k", 100);
        let d1 = tel.snapshot_delta(&mut cur);
        assert_eq!(d1.named["sim.meta_ops.ntt"], 10);
        assert_eq!(d1.named["fault.bitflip.injected"], 2);
        assert_eq!(d1.named["fault.bitflip.escaped"], 0);
        assert_eq!(d1.hists["k"].count(), 1);

        // Nothing new → empty delta (the zero counter is not re-reported).
        let d2 = tel.snapshot_delta(&mut cur);
        assert!(d2.is_empty(), "{d2:?}");

        tel.count_named("sim.meta_ops.ntt", 5);
        tel.observe_ns("k", 900);
        tel.observe_ns("k", 901);
        let d3 = tel.snapshot_delta(&mut cur);
        assert_eq!(d3.named["sim.meta_ops.ntt"], 5);
        assert_eq!(d3.hists["k"].count(), 2);
        assert_eq!(d3.hists["k"].sum(), 1801);

        // Merged deltas equal the cumulative snapshot.
        let mut merged = d1.clone();
        merged.merge(&d2);
        merged.merge(&d3);
        let snap = tel.snapshot();
        assert_eq!(merged.named["sim.meta_ops.ntt"], snap.named_counter("sim.meta_ops.ntt"));
        let row = snap.histogram("k").unwrap();
        assert_eq!(merged.hists["k"].count(), row.count);
        assert_eq!(merged.hists["k"].sum(), row.sum_ns);
        assert_eq!(merged.hists["k"].max(), row.max_ns);
        assert_eq!(merged.named.len(), snap.named_counters().len());
    }

    #[test]
    fn span_straddling_two_captures_is_attributed_once() {
        // Regression for the sampler case: a span open across capture
        // boundaries must attribute its in-flight time to each interval
        // and, at close, only the remainder — totals must match the final
        // duration exactly, not double it.
        let tel = Telemetry::enabled();
        let mut cur = Cursor::new();
        let guard = tel.span("straddler");
        std::thread::sleep(Duration::from_millis(2));
        let d1 = tel.snapshot_delta(&mut cur);
        let a1 = d1.span_ns.get("straddler").copied().unwrap_or(0);
        assert!(a1 > 0, "open span must contribute in-flight time");

        std::thread::sleep(Duration::from_millis(2));
        let d2 = tel.snapshot_delta(&mut cur);
        let a2 = d2.span_ns.get("straddler").copied().unwrap_or(0);
        assert!(a2 > 0, "second interval must get only new time");

        drop(guard);
        let d3 = tel.snapshot_delta(&mut cur);
        let a3 = d3.span_ns.get("straddler").copied().unwrap_or(0);

        let snap = tel.snapshot();
        let total = snap.spans().iter().find(|s| s.name == "straddler").unwrap().dur_ns;
        assert_eq!(a1 + a2 + a3, total, "attribution must sum to the closed duration exactly");

        // And the span histogram fed at close carries the full duration.
        assert_eq!(snap.histogram("straddler").unwrap().sum_ns, total);
        // Nothing left to attribute.
        let d4 = tel.snapshot_delta(&mut cur);
        assert_eq!(d4.span_ns.get("straddler"), None);
    }

    #[test]
    fn open_virtual_spans_wait_for_close() {
        let tel = Telemetry::enabled();
        let mut cur = Cursor::new();
        let mut track = tel.virtual_track();
        track.open("sim.run", 0);
        track.leaf("step", 0, 100);
        let d1 = tel.snapshot_delta(&mut cur);
        // The closed leaf is attributed; the open virtual root is not.
        assert_eq!(d1.span_ns.get("step"), Some(&100));
        assert_eq!(d1.span_ns.get("sim.run"), None);
        track.close(250);
        let d2 = tel.snapshot_delta(&mut cur);
        assert_eq!(d2.span_ns.get("sim.run"), Some(&250));
    }

    #[test]
    fn cursor_rebinds_to_a_new_handle() {
        let a = Telemetry::enabled();
        let b = Telemetry::enabled();
        a.count_named("x", 1);
        b.count_named("x", 7);
        let mut cur = Cursor::new();
        assert_eq!(a.snapshot_delta(&mut cur).named["x"], 1);
        // Switching handles resets the cursor: the full state of `b` is
        // returned, not a bogus diff against `a`'s values.
        assert_eq!(b.snapshot_delta(&mut cur).named["x"], 7);
        assert_eq!(cur.captures(), 1);
    }

    #[test]
    fn alloc_dimension_deltas_and_merges() {
        let tel = Telemetry::enabled();
        let mut cur = Cursor::new();
        {
            let _s = tel.span("alloc.heavy");
            std::hint::black_box(vec![0u8; 1 << 16]);
        }
        let d1 = tel.snapshot_delta(&mut cur);
        assert!(d1.alloc.get("allocs").copied().unwrap_or(0) >= 1, "{:?}", d1.alloc);
        assert!(d1.alloc.get("bytes_allocated").copied().unwrap_or(0) >= 1 << 16);
        let &(a, b) = d1.span_allocs.get("alloc.heavy").expect("span attribution");
        assert!(a >= 1, "span must attribute the vec allocation");
        assert!(b >= 1 << 16, "span must attribute at least the vec's bytes, got {b}");
        // A quiescent handle yields an empty interval even though the
        // process-global census keeps moving underneath.
        let d2 = tel.snapshot_delta(&mut cur);
        assert!(d2.span_allocs.is_empty());
        assert!(d2.is_empty(), "{d2:?}");
        // Merging sums the per-span attribution.
        let mut m = d1.clone();
        m.merge(&d1.clone());
        let &(a, b) = d1.span_allocs.get("alloc.heavy").unwrap();
        assert_eq!(m.span_allocs.get("alloc.heavy"), Some(&(2 * a, 2 * b)));
    }

    #[test]
    fn frontier_sweeps_closed_spans() {
        let tel = Telemetry::enabled();
        let mut cur = Cursor::new();
        for _ in 0..100 {
            let _s = tel.span("short");
        }
        let d = tel.snapshot_delta(&mut cur);
        assert!(d.span_ns.contains_key("short"));
        assert_eq!(cur.frontier, 100, "fully-attributed prefix must be swept");
        assert!(cur.attributed.is_empty());
    }
}
