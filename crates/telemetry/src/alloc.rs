//! Span-attributed heap-allocation tracking.
//!
//! The software reproduction has no scratchpad SRAM to account bytes
//! against, so its analog of Alchemist's scratchpad-residency story is the
//! process heap: this module interposes a counting [`GlobalAlloc`] wrapper
//! around [`System`] and maintains
//!
//! * **global counters** — alloc/dealloc/realloc counts, cumulative bytes
//!   allocated/deallocated, live bytes, peak live bytes, and a size-class
//!   distribution reusing the log-linear [`Histogram`] bucket layout;
//! * **per-thread counters** — allocation count and bytes requested by the
//!   current thread, the basis for span attribution: [`crate::SpanGuard`]
//!   snapshots them at open and diffs at close, so every span reports
//!   `{allocs, bytes}` alongside its duration.
//!
//! # Reentrancy contract
//!
//! The allocator hooks run inside *every* allocation, including ones made
//! while telemetry's own state mutex is held. They therefore touch only
//! relaxed atomics and const-initialized thread-local [`Cell`]s (no
//! destructors, no lazy init) — never a lock, never an allocation.
//! Telemetry's record paths wrap their own heap usage in [`exempt_scope`]
//! so bookkeeping does not pollute thread attribution; the global counters
//! intentionally still see it (they are a whole-process census).
//!
//! # Worker threads
//!
//! `fhe_math::par` charges each worker chunk's allocation delta back to
//! the thread that opened the parallel region via
//! [`charge_current_thread`], so a span enclosing a parallel region
//! observes the same totals whether the backend ran inline or fanned out.

// The allocator shim is the one place this crate needs `unsafe`: the
// `GlobalAlloc` trait itself. Everything else in the crate stays checked.
#![allow(unsafe_code)]

use crate::hist::{self, Histogram};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static DEALLOCS: AtomicU64 = AtomicU64::new(0);
static REALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES_ALLOCATED: AtomicU64 = AtomicU64::new(0);
static BYTES_DEALLOCATED: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);
/// Largest single request seen (exact, not bucketed).
static MAX_REQUEST: AtomicU64 = AtomicU64::new(0);
/// Size-class census sharing the histogram bucket layout, so the exact
/// distribution reconstructs into a [`Histogram`] without approximation.
static SIZE_CLASSES: [AtomicU64; hist::NUM_BUCKETS] =
    [const { AtomicU64::new(0) }; hist::NUM_BUCKETS];

struct ThreadCells {
    allocs: Cell<u64>,
    bytes: Cell<u64>,
    exempt: Cell<u32>,
}

thread_local! {
    // Const-initialized and destructor-free: safe to touch from inside the
    // allocator at any point in a thread's life, including TLS teardown.
    static TCELLS: ThreadCells = const {
        ThreadCells { allocs: Cell::new(0), bytes: Cell::new(0), exempt: Cell::new(0) }
    };
}

#[inline]
fn note_thread_alloc(size: u64) {
    // `try_with` never allocates; it only fails during thread destruction,
    // where dropping the attribution is exactly right.
    let _ = TCELLS.try_with(|t| {
        if t.exempt.get() == 0 {
            t.allocs.set(t.allocs.get() + 1);
            t.bytes.set(t.bytes.get() + size);
        }
    });
}

#[inline]
fn note_alloc(size: u64) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES_ALLOCATED.fetch_add(size, Relaxed);
    let live = LIVE_BYTES.fetch_add(size, Relaxed) + size;
    PEAK_BYTES.fetch_max(live, Relaxed);
    MAX_REQUEST.fetch_max(size, Relaxed);
    SIZE_CLASSES[hist::bucket_index(size)].fetch_add(1, Relaxed);
    note_thread_alloc(size);
}

#[inline]
fn note_dealloc(size: u64) {
    DEALLOCS.fetch_add(1, Relaxed);
    BYTES_DEALLOCATED.fetch_add(size, Relaxed);
    LIVE_BYTES.fetch_sub(size, Relaxed);
}

#[inline]
fn note_realloc(old: u64, new: u64) {
    // Modeled as dealloc(old) + alloc(new) in the byte ledgers so
    // `live = allocated − deallocated` stays exact; counted once under
    // REALLOCS (not ALLOCS/DEALLOCS) so call counts stay exact too.
    REALLOCS.fetch_add(1, Relaxed);
    BYTES_ALLOCATED.fetch_add(new, Relaxed);
    BYTES_DEALLOCATED.fetch_add(old, Relaxed);
    if new >= old {
        let live = LIVE_BYTES.fetch_add(new - old, Relaxed) + (new - old);
        PEAK_BYTES.fetch_max(live, Relaxed);
    } else {
        LIVE_BYTES.fetch_sub(old - new, Relaxed);
    }
    MAX_REQUEST.fetch_max(new, Relaxed);
    SIZE_CLASSES[hist::bucket_index(new)].fetch_add(1, Relaxed);
    note_thread_alloc(new);
}

/// Counting wrapper around the [`System`] allocator, registered as the
/// `#[global_allocator]`.
pub struct TrackingAllocator;

// SAFETY: every method delegates directly to `System` and only adds
// relaxed-atomic / thread-local-`Cell` bookkeeping around the call —
// no allocation, no locking, no reentry into the global allocator.
unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        note_dealloc(layout.size() as u64);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Call `System`'s native realloc (not the trait default, which
        // would re-enter our alloc/dealloc hooks and double-count).
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            note_realloc(layout.size() as u64, new_size as u64);
        }
        p
    }
}

#[global_allocator]
static GLOBAL_ALLOCATOR: TrackingAllocator = TrackingAllocator;

/// Always `true`: the tracking allocator is registered in every build. Kept
/// because the frozen `benchmark/` package reports it as a host fact.
#[inline]
pub const fn tracking_compiled() -> bool {
    true
}

/// Whole-process allocation totals (relaxed-atomic reads; individually
/// exact, mutually consistent only at quiescence).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocStats {
    /// Calls to `alloc`/`alloc_zeroed` that returned memory.
    pub allocs: u64,
    /// Calls to `dealloc`.
    pub deallocs: u64,
    /// Calls to `realloc` that returned memory.
    pub reallocs: u64,
    /// Cumulative bytes requested (realloc contributes its new size).
    pub bytes_allocated: u64,
    /// Cumulative bytes returned (realloc contributes its old size).
    pub bytes_deallocated: u64,
    /// Bytes currently live (`bytes_allocated − bytes_deallocated`).
    pub live_bytes: u64,
    /// High-water mark of `live_bytes` since process start (or the last
    /// [`reset_peak`]).
    pub peak_bytes: u64,
    /// Largest single request seen.
    pub max_request: u64,
}

/// Reads the global allocation counters.
pub fn global_stats() -> AllocStats {
    AllocStats {
        allocs: ALLOCS.load(Relaxed),
        deallocs: DEALLOCS.load(Relaxed),
        reallocs: REALLOCS.load(Relaxed),
        bytes_allocated: BYTES_ALLOCATED.load(Relaxed),
        bytes_deallocated: BYTES_DEALLOCATED.load(Relaxed),
        live_bytes: LIVE_BYTES.load(Relaxed),
        peak_bytes: PEAK_BYTES.load(Relaxed),
        max_request: MAX_REQUEST.load(Relaxed),
    }
}

/// Resets the peak-live-bytes watermark to the current live level, so a
/// subsequent [`global_stats`] reports the peak *of the interval* (the
/// basis of `bench_kernels --alloc-profile`'s per-kernel peaks).
pub fn reset_peak() {
    PEAK_BYTES.store(LIVE_BYTES.load(Relaxed), Relaxed);
}

/// The exact size-class distribution of every allocation so far, as a
/// [`Histogram`] over requested bytes (same log-linear buckets the
/// duration histograms use; `sum` = cumulative bytes allocated).
pub fn size_class_histogram() -> Histogram {
    let mut buckets = [0u64; hist::NUM_BUCKETS];
    for (b, s) in buckets.iter_mut().zip(SIZE_CLASSES.iter()) {
        *b = s.load(Relaxed);
    }
    Histogram::from_raw(
        ALLOCS.load(Relaxed) + REALLOCS.load(Relaxed),
        BYTES_ALLOCATED.load(Relaxed),
        MAX_REQUEST.load(Relaxed),
        buckets,
    )
}

/// Per-thread allocation pressure: requests made (and bytes asked for) by
/// the current thread, plus any deltas charged back from parallel workers
/// via [`charge_current_thread`]. Deallocations are deliberately not
/// tracked per thread — spans report pressure, not residency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ThreadAllocStats {
    /// Allocation requests attributed to this thread.
    pub allocs: u64,
    /// Bytes requested by this thread.
    pub bytes: u64,
}

impl ThreadAllocStats {
    /// Counters accumulated since `base` (saturating; a guard dropped on a
    /// different thread than it was opened on reads zero, not garbage).
    pub fn since(self, base: ThreadAllocStats) -> ThreadAllocStats {
        ThreadAllocStats {
            allocs: self.allocs.saturating_sub(base.allocs),
            bytes: self.bytes.saturating_sub(base.bytes),
        }
    }
}

/// Reads the current thread's allocation counters.
pub fn thread_stats() -> ThreadAllocStats {
    TCELLS
        .try_with(|t| ThreadAllocStats { allocs: t.allocs.get(), bytes: t.bytes.get() })
        .unwrap_or_default()
}

/// Adds an externally measured delta to the current thread's counters.
/// `fhe_math::par` uses this to charge worker-thread allocations back to
/// the thread that opened the parallel region, so enclosing spans see the
/// same totals inline and fanned out. Ignores [`exempt_scope`]: an
/// explicit charge is always deliberate.
pub fn charge_current_thread(allocs: u64, bytes: u64) {
    let _ = TCELLS.try_with(|t| {
        t.allocs.set(t.allocs.get() + allocs);
        t.bytes.set(t.bytes.get() + bytes);
    });
}

/// Suppresses *thread attribution* (not the global census) of allocations
/// made on the current thread while the guard lives. Nestable. Used around
/// telemetry's own record paths and `par`'s thread-spawn scaffolding so
/// bookkeeping never pollutes span deltas or [`assert_no_alloc`].
pub struct ExemptGuard {
    // Not Send: the Drop must run on the thread that incremented.
    _not_send: PhantomData<*const ()>,
}

/// Opens an [`ExemptGuard`] on the current thread.
pub fn exempt_scope() -> ExemptGuard {
    let _ = TCELLS.try_with(|t| t.exempt.set(t.exempt.get() + 1));
    ExemptGuard { _not_send: PhantomData }
}

impl Drop for ExemptGuard {
    fn drop(&mut self) {
        let _ = TCELLS.try_with(|t| t.exempt.set(t.exempt.get().saturating_sub(1)));
    }
}

/// Runs `f` and returns its result plus the allocation delta attributed to
/// the current thread while it ran (including worker charge-backs).
pub fn alloc_delta<R>(f: impl FnOnce() -> R) -> (R, ThreadAllocStats) {
    let base = thread_stats();
    let out = f();
    (out, thread_stats().since(base))
}

/// Proves `f` performs zero heap allocations on the current thread (and
/// charges none back from parallel workers).
///
/// # Panics
///
/// Panics (naming `label` and the observed counts) if any allocation was
/// attributed to the current thread while `f` ran.
pub fn assert_no_alloc<R>(label: &str, f: impl FnOnce() -> R) -> R {
    let (out, d) = alloc_delta(f);
    assert!(
        d == ThreadAllocStats::default(),
        "`{label}` was expected to be allocation-free but performed \
         {} allocation(s) totalling {} byte(s)",
        d.allocs,
        d.bytes,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_allocations_show_up_everywhere() {
        let before = global_stats();
        let t_before = thread_stats();
        let v: Vec<u64> = Vec::with_capacity(1 << 12);
        let after = global_stats();
        let t_after = thread_stats();
        drop(v);
        let freed = global_stats();

        assert!(after.allocs > before.allocs);
        assert!(after.bytes_allocated >= before.bytes_allocated + (1 << 15));
        assert!(after.live_bytes > freed.live_bytes);
        assert!(t_after.allocs > t_before.allocs);
        assert!(t_after.bytes >= t_before.bytes + (1 << 15));
        assert!(freed.deallocs > before.deallocs);
    }

    #[test]
    fn realloc_keeps_live_bytes_exact() {
        let before = global_stats();
        let mut v: Vec<u8> = Vec::with_capacity(64);
        for i in 0..4096u64 {
            v.push(i as u8); // forces several reallocs
        }
        let during = global_stats();
        drop(v);
        let after = global_stats();
        assert!(during.reallocs > before.reallocs);
        // The ledger identity holds after the buffer dies: everything this
        // thread allocated for `v` was returned.
        assert_eq!(
            after.bytes_allocated - after.bytes_deallocated,
            after.live_bytes,
            "live must equal allocated − deallocated"
        );
    }

    #[test]
    fn exempt_scope_suppresses_thread_attribution_only() {
        let g_before = global_stats();
        let ((), d) = alloc_delta(|| {
            let _e = exempt_scope();
            let v: Vec<u8> = Vec::with_capacity(1 << 10);
            drop(v);
        });
        let g_after = global_stats();
        assert_eq!(d, ThreadAllocStats::default(), "exempt allocs must not attribute");
        assert!(g_after.allocs > g_before.allocs, "global census still counts them");
    }

    #[test]
    fn assert_no_alloc_accepts_clean_and_rejects_dirty() {
        let mut acc = 0u64;
        let out = assert_no_alloc("arith", || {
            for i in 0..1000u64 {
                acc = acc.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i);
            }
            acc
        });
        assert_eq!(out, acc);
        let r = std::panic::catch_unwind(|| {
            assert_no_alloc("dirty", || std::hint::black_box(vec![1u8; 64]))
        });
        assert!(r.is_err(), "allocation under assert_no_alloc must panic");
    }

    #[test]
    fn charge_back_and_since_compose() {
        let base = thread_stats();
        charge_current_thread(3, 1024);
        let d = thread_stats().since(base);
        assert_eq!(d, ThreadAllocStats { allocs: 3, bytes: 1024 });
        // `since` saturates instead of wrapping when the guard migrates.
        let zero = ThreadAllocStats::default().since(thread_stats());
        assert_eq!(zero, ThreadAllocStats::default());
    }

    #[test]
    fn size_class_histogram_reconstructs_exact_counts() {
        let before = size_class_histogram();
        let v: Vec<u8> = Vec::with_capacity(1 << 20);
        let after = size_class_histogram();
        drop(v);
        let d = after.diff(&before);
        assert!(d.count() >= 1);
        assert!(d.sum() >= 1 << 20);
        assert!(after.max() >= 1 << 20);
    }

    #[test]
    fn reset_peak_rebaselines_to_live() {
        // A 16 MiB spike dwarfs anything concurrent test threads allocate,
        // so the watermark comparison below is race-tolerant.
        let v: Vec<u8> = vec![0; 1 << 24];
        let spiked = global_stats();
        assert!(spiked.peak_bytes >= 1 << 24);
        drop(v);
        reset_peak();
        let s = global_stats();
        assert!(
            s.peak_bytes < spiked.peak_bytes.saturating_sub(1 << 23),
            "peak {} did not rebaseline below the dropped spike {}",
            s.peak_bytes,
            spiked.peak_bytes
        );
    }
}
