//! Span-attributed heap-allocation tracking.
//!
//! The software reproduction has no scratchpad SRAM to account bytes
//! against, so its analog of Alchemist's scratchpad-residency story is the
//! process heap: this module interposes a counting [`GlobalAlloc`] wrapper
//! around [`System`] and maintains
//!
//! * **the live ledger** — live bytes and peak live bytes, process-wide:
//!   one locked read-modify-write per hook call, plus a `fetch_max` on the
//!   peak only when the new live value passes it;
//! * **the census** — alloc/dealloc/realloc counts and cumulative bytes
//!   allocated/deallocated, kept in per-thread blocks (below) and summed
//!   by [`global_stats`];
//! * **per-thread counters** — allocation count and bytes requested by the
//!   current thread, the basis for span attribution: [`crate::SpanGuard`]
//!   snapshots them at open and diffs at close, so every span reports
//!   `{allocs, bytes}` alongside its duration.
//!
//! # Census blocks
//!
//! A thread claims one of [`CENSUS_BLOCKS`] cache-line-sized blocks with
//! one `fetch_add` at its first allocation and keeps it for life. Only the
//! owner writes its block, so a relaxed load and store per counter loses
//! nothing and needs no `lock` prefix. Blocks are never reused: an exited
//! thread's totals stay in the sum. Threads past the table share one
//! overflow block through `fetch_add` — slower, still exact. Every counter
//! is exact at quiescence; a read racing writers sees each counter between
//! its values at the start and the end of the read, and never less than an
//! earlier read saw.
//!
//! # Reentrancy contract
//!
//! The allocator hooks run inside *every* allocation, including ones made
//! while telemetry's own state mutex is held. They therefore touch only
//! atomics and const-initialized thread-local [`Cell`]s (no destructors, no
//! lazy init) — never a lock, never an allocation, never a TLS destructor
//! registration. Telemetry's record paths wrap their own heap usage in
//! [`exempt_scope`] so bookkeeping does not pollute thread attribution; the
//! census and the live ledger intentionally still see it (they are a
//! whole-process account).

// The allocator shim is the one place this crate needs `unsafe`: the
// `GlobalAlloc` trait itself. Everything else in the crate stays checked.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::marker::PhantomData;
use std::ptr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

/// Census blocks in the table: the first this many threads to allocate own
/// one each, every later thread shares the overflow block.
pub const CENSUS_BLOCKS: usize = 256;

static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

/// One thread's monotone census, alone on its cache line so two owners
/// never write the same line.
#[repr(align(64))]
struct Census {
    allocs: AtomicU64,
    deallocs: AtomicU64,
    reallocs: AtomicU64,
    bytes_allocated: AtomicU64,
    bytes_deallocated: AtomicU64,
}

impl Census {
    const fn new() -> Self {
        Census {
            allocs: AtomicU64::new(0),
            deallocs: AtomicU64::new(0),
            reallocs: AtomicU64::new(0),
            bytes_allocated: AtomicU64::new(0),
            bytes_deallocated: AtomicU64::new(0),
        }
    }

    /// Adds one hook call to this block, each counter through `add`.
    #[inline(always)]
    fn record(&self, event: Event, add: impl Fn(&AtomicU64, u64)) {
        match event {
            Event::Alloc(size) => {
                add(&self.allocs, 1);
                add(&self.bytes_allocated, size);
            }
            Event::Dealloc(size) => {
                add(&self.deallocs, 1);
                add(&self.bytes_deallocated, size);
            }
            Event::Realloc { old, new } => {
                add(&self.reallocs, 1);
                add(&self.bytes_allocated, new);
                add(&self.bytes_deallocated, old);
            }
        }
    }
}

static BLOCKS: [Census; CENSUS_BLOCKS] = [const { Census::new() }; CENSUS_BLOCKS];
static OVERFLOW: Census = Census::new();
/// Blocks handed out so far; runs past [`CENSUS_BLOCKS`] once threads
/// start overflowing.
static CLAIMED: AtomicUsize = AtomicUsize::new(0);

/// Owned-block update: the owner is the only writer, so load + store.
#[inline(always)]
fn add_owned(counter: &AtomicU64, v: u64) {
    counter.store(counter.load(Relaxed) + v, Relaxed);
}

/// Overflow-block update: shared, so a locked `fetch_add`.
fn add_shared(counter: &AtomicU64, v: u64) {
    counter.fetch_add(v, Relaxed);
}

/// What one hook call did. A realloc is dealloc(old) + alloc(new) in the
/// byte ledgers, so `live = allocated − deallocated` stays exact, and one
/// call under `reallocs` (not `allocs`/`deallocs`), so call counts stay
/// exact too.
#[derive(Clone, Copy)]
enum Event {
    Alloc(u64),
    Dealloc(u64),
    Realloc { old: u64, new: u64 },
}

struct ThreadCells {
    allocs: Cell<u64>,
    bytes: Cell<u64>,
    exempt: Cell<u32>,
    /// This thread's census block once claimed (the overflow block when
    /// the table was full).
    census: Cell<Option<&'static Census>>,
}

thread_local! {
    // Const-initialized and destructor-free: safe to touch from inside the
    // allocator at any point in a thread's life, including TLS teardown.
    static TCELLS: ThreadCells = const {
        ThreadCells {
            allocs: Cell::new(0),
            bytes: Cell::new(0),
            exempt: Cell::new(0),
            census: Cell::new(None),
        }
    };
}

/// Raises live bytes by `by`, and the peak with them. The peak only grows
/// between resets, so a live value at or below a read of it is already
/// covered and skips the `fetch_max`.
#[inline(always)]
fn raise_live(by: u64) {
    let live = LIVE_BYTES.fetch_add(by, Relaxed) + by;
    if live > PEAK_BYTES.load(Relaxed) {
        PEAK_BYTES.fetch_max(live, Relaxed);
    }
}

/// Books one hook call: the live ledger, the calling thread's attribution
/// and its census block.
#[inline(always)]
fn note(event: Event) {
    match event {
        Event::Alloc(size) => raise_live(size),
        Event::Dealloc(size) => {
            LIVE_BYTES.fetch_sub(size, Relaxed);
        }
        Event::Realloc { old, new } if new >= old => raise_live(new - old),
        Event::Realloc { old, new } => {
            LIVE_BYTES.fetch_sub(old - new, Relaxed);
        }
    }
    // `try_with` never allocates; it only fails during thread destruction,
    // where dropping the attribution is exactly right (the census still
    // counts the call, in the overflow block).
    let owned = TCELLS.try_with(|t| {
        if let Event::Alloc(size) | Event::Realloc { new: size, .. } = event {
            if t.exempt.get() == 0 {
                t.allocs.set(t.allocs.get() + 1);
                t.bytes.set(t.bytes.get() + size);
            }
        }
        match t.census.get() {
            Some(block) if !ptr::eq(block, &OVERFLOW) => {
                block.record(event, add_owned);
                true
            }
            _ => false,
        }
    });
    if !owned.unwrap_or(false) {
        note_unowned(event);
    }
}

/// The census path of a thread without a block of its own: claims one at
/// the thread's first allocation, and counts into the shared overflow
/// block once the table is full (or once the thread's TLS is gone).
#[cold]
#[inline(never)]
fn note_unowned(event: Event) {
    let block = TCELLS
        .try_with(|t| match t.census.get() {
            Some(block) => block,
            None => {
                let block = BLOCKS.get(CLAIMED.fetch_add(1, Relaxed)).unwrap_or(&OVERFLOW);
                t.census.set(Some(block));
                block
            }
        })
        .unwrap_or(&OVERFLOW);
    if ptr::eq(block, &OVERFLOW) {
        block.record(event, add_shared);
    } else {
        block.record(event, add_owned);
    }
}

/// Counting wrapper around the [`System`] allocator, registered as the
/// `#[global_allocator]`.
pub struct TrackingAllocator;

// SAFETY: every method delegates directly to `System` and only adds
// atomic / thread-local-`Cell` bookkeeping around the call — no
// allocation, no locking, no reentry into the global allocator.
unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note(Event::Alloc(layout.size() as u64));
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note(Event::Alloc(layout.size() as u64));
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        note(Event::Dealloc(layout.size() as u64));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Call `System`'s native realloc (not the trait default, which
        // would re-enter our alloc/dealloc hooks and double-count).
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            note(Event::Realloc { old: layout.size() as u64, new: new_size as u64 });
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
}

/// Reads the live ledger and sums the census blocks.
pub fn global_stats() -> AllocStats {
    let claimed = CLAIMED.load(Relaxed).min(CENSUS_BLOCKS);
    let mut s = AllocStats {
        live_bytes: LIVE_BYTES.load(Relaxed),
        peak_bytes: PEAK_BYTES.load(Relaxed),
        ..AllocStats::default()
    };
    for block in BLOCKS[..claimed].iter().chain([&OVERFLOW]) {
        s.allocs += block.allocs.load(Relaxed);
        s.deallocs += block.deallocs.load(Relaxed);
        s.reallocs += block.reallocs.load(Relaxed);
        s.bytes_allocated += block.bytes_allocated.load(Relaxed);
        s.bytes_deallocated += block.bytes_deallocated.load(Relaxed);
    }
    s
}

/// Resets the peak-live-bytes watermark to the current live level, so a
/// subsequent [`global_stats`] reports the peak *of the interval* (the
/// basis of `bench_kernels --alloc-profile`'s per-kernel peaks).
pub fn reset_peak() {
    PEAK_BYTES.store(LIVE_BYTES.load(Relaxed), Relaxed);
}

/// Per-thread allocation pressure: requests made (and bytes asked for) by
/// the current thread. Deallocations are deliberately not tracked per
/// thread — spans report pressure, not residency.
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

/// Suppresses *thread attribution* (not the census) of allocations made on
/// the current thread while the guard lives. Nestable. Used around
/// telemetry's own record paths so bookkeeping never pollutes span deltas
/// or [`assert_no_alloc`].
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

/// Proves `f` performs zero heap allocations on the current thread.
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

// Whole-process exactness (every census delta, live back to baseline, the
// peak, the overflow block) needs a quiescent process, so it is tested in
// its own binary, `tests/alloc_census.rs`; the tests here tolerate
// concurrent test threads.
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
        // `since` saturates instead of wrapping when the guard migrates.
        assert_eq!(t_before.since(t_after), ThreadAllocStats::default());
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
