//! Reusable scratch buffers for allocation-free kernel hot paths.
//!
//! Steady-state FHE evaluation repeats the same kernel shapes (channel
//! vectors of one ring degree) thousands of times; allocating each
//! intermediate fresh puts the allocator on the critical path. A
//! [`Scratch`] is a simple free-list of `Vec<u64>` buffers: kernels
//! [`take`](Scratch::take) a zeroed buffer, use it, and [`put`](Scratch::put)
//! it back, so after warm-up the pool serves every request from capacity
//! already allocated.
//!
//! Kernels that cannot thread a pool through their signature use the
//! per-thread pool via [`Scratch::with_thread_local`]: every thread that
//! calls a kernel gets its own pool (no locking), reused across calls.
//!
//! Every pool keeps effectiveness watermarks — [`take`](Scratch::take)
//! hits vs. misses and the most capacity the free-list ever held — and
//! mirrors them into process-wide relaxed atomics so a sampler gauge (or
//! [`scratch_stats`]) can answer "are the hot paths actually warm?"
//! without walking threads.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

static GLOBAL_HITS: AtomicU64 = AtomicU64::new(0);
static GLOBAL_MISSES: AtomicU64 = AtomicU64::new(0);
static GLOBAL_HIGH_WATER: AtomicU64 = AtomicU64::new(0);
static GLOBAL_TRIMS: AtomicU64 = AtomicU64::new(0);
static GLOBAL_TRIMMED_BYTES: AtomicU64 = AtomicU64::new(0);

/// Most buffers a pool keeps; [`Scratch::put`] frees any past it. The
/// largest warmed call in the workspace, a CKKS BSGS layer at the
/// `ckks_mlp` ring's level 6 (`t = 10` channels over `Q_6 ∪ P`), holds 115
/// at once: three baby rotations' `Q·P` accumulators (3·2t = 60), the final
/// one (20), a giant rotation's `c1` half (10) and its stage 1 at its
/// widest (25: the 14 digit channels converted before the last digit, its
/// one coefficient copy and one pre-scaled copy, its 9 converted channels).
const MAX_POOLED: usize = 128;

/// Consecutive takes at well under the retained capacity before the pool
/// halves itself (see [`Scratch::take`]). Small enough that a server
/// worker decays within one batch of small requests, large enough that a
/// bursty caller alternating big/small shapes never trims.
const TRIM_STREAK: u32 = 32;

/// Pool effectiveness counters (per pool via [`Scratch::stats`],
/// process-wide via [`scratch_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScratchStats {
    /// `take` calls served entirely from pooled capacity (no allocation).
    pub hits: u64,
    /// `take` calls that had to grow or allocate a buffer.
    pub misses: u64,
    /// Most bytes of capacity the free-list ever held at once. For the
    /// process-wide view this is the maximum over individual pools, not
    /// their sum — it bounds any one pool's retention.
    pub high_water_bytes: u64,
    /// Trim events: the pool halved its retained capacity after
    /// `TRIM_STREAK` (32) consecutive takes far below it.
    pub trims: u64,
    /// Total capacity bytes released back to the allocator by trims.
    pub trimmed_bytes: u64,
}

/// Process-wide scratch-pool watermarks, aggregated over every pool on
/// every thread (relaxed counters; exact once threads quiesce).
pub fn scratch_stats() -> ScratchStats {
    ScratchStats {
        hits: GLOBAL_HITS.load(Ordering::Relaxed),
        misses: GLOBAL_MISSES.load(Ordering::Relaxed),
        high_water_bytes: GLOBAL_HIGH_WATER.load(Ordering::Relaxed),
        trims: GLOBAL_TRIMS.load(Ordering::Relaxed),
        trimmed_bytes: GLOBAL_TRIMMED_BYTES.load(Ordering::Relaxed),
    }
}

/// A free-list of reusable `u64` buffers.
#[derive(Debug, Default)]
pub struct Scratch {
    pool: Vec<Vec<u64>>,
    /// Total capacity bytes currently resident in `pool`.
    pooled_bytes: u64,
    /// Consecutive takes that requested less than half the retained
    /// capacity; reaching [`TRIM_STREAK`] triggers a trim.
    below_streak: u32,
    stats: ScratchStats,
}

impl Scratch {
    /// An empty pool.
    pub const fn new() -> Self {
        Scratch {
            pool: Vec::new(),
            pooled_bytes: 0,
            below_streak: 0,
            stats: ScratchStats {
                hits: 0,
                misses: 0,
                high_water_bytes: 0,
                trims: 0,
                trimmed_bytes: 0,
            },
        }
    }

    /// A zeroed buffer of length `len`, reusing pooled capacity when
    /// available.
    ///
    /// The pool also decays here: a take asking for less than half the
    /// *largest* retained buffer bumps a streak counter, and
    /// `TRIM_STREAK` (32) such takes in a row halve the retention (largest
    /// buffers dropped first). A long-running worker whose one giant
    /// request is long gone therefore converges back toward its
    /// steady-state footprint instead of pinning the peak forever. The
    /// watermark is the largest buffer, not the pool total, so a warm
    /// pool of many same-size buffers never trims itself: each take
    /// matches the largest and resets the streak, keeping the zero-alloc
    /// steady state intact.
    pub fn take(&mut self, len: usize) -> Vec<u64> {
        let req_bytes = (len as u64).saturating_mul(8);
        let largest = self.pool.iter().map(|b| (b.capacity() * 8) as u64).max().unwrap_or(0);
        if largest > 0 && req_bytes.saturating_mul(2) < largest {
            self.below_streak += 1;
            if self.below_streak >= TRIM_STREAK {
                self.trim(self.pooled_bytes / 2);
                self.below_streak = 0;
            }
        } else {
            self.below_streak = 0;
        }
        let mut buf = self.pool.pop().unwrap_or_default();
        self.pooled_bytes -= (buf.capacity() * 8) as u64;
        // A hit must not touch the allocator: the popped buffer's capacity
        // already covers the request. Growing counts as a miss even when a
        // buffer was pooled.
        if buf.capacity() >= len {
            self.stats.hits += 1;
            GLOBAL_HITS.fetch_add(1, Ordering::Relaxed);
        } else {
            self.stats.misses += 1;
            GLOBAL_MISSES.fetch_add(1, Ordering::Relaxed);
        }
        buf.clear();
        buf.resize(len, 0);
        buf
    }

    /// Returns a buffer to the pool for reuse.
    pub fn put(&mut self, buf: Vec<u64>) {
        // Keep the pool bounded: drop tiny buffers and cap the list length
        // so a one-off giant workload cannot pin memory forever.
        if self.pool.len() < MAX_POOLED && buf.capacity() > 0 {
            self.pooled_bytes += (buf.capacity() * 8) as u64;
            self.pool.push(buf);
            if self.pooled_bytes > self.stats.high_water_bytes {
                self.stats.high_water_bytes = self.pooled_bytes;
                GLOBAL_HIGH_WATER.fetch_max(self.pooled_bytes, Ordering::Relaxed);
            }
        }
    }

    /// Drops pooled buffers, largest first, until at most `target` bytes
    /// of capacity remain. Largest-first matters: under sustained small
    /// demand the big outlier is the one pinning memory, and the small
    /// buffers that still serve the live shapes survive.
    fn trim(&mut self, target: u64) {
        let before = self.pooled_bytes;
        while self.pooled_bytes > target {
            let Some((idx, _)) = self.pool.iter().enumerate().max_by_key(|(_, b)| b.capacity())
            else {
                break;
            };
            let dropped = self.pool.swap_remove(idx);
            self.pooled_bytes -= (dropped.capacity() * 8) as u64;
        }
        let released = before - self.pooled_bytes;
        self.stats.trims += 1;
        self.stats.trimmed_bytes += released;
        GLOBAL_TRIMS.fetch_add(1, Ordering::Relaxed);
        GLOBAL_TRIMMED_BYTES.fetch_add(released, Ordering::Relaxed);
    }

    /// Number of pooled buffers (diagnostics/tests).
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }

    /// Capacity bytes currently retained by the free-list.
    pub fn retained_bytes(&self) -> u64 {
        self.pooled_bytes
    }

    /// This pool's hit/miss/high-water counters.
    pub fn stats(&self) -> ScratchStats {
        self.stats
    }

    /// Runs `f` with this thread's pool. Nested calls on the same thread
    /// are fine: the pool is handed out once per call frame via
    /// `RefCell`, and inner frames simply see whatever buffers the outer
    /// frame has not taken.
    pub fn with_thread_local<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
        thread_local! {
            static POOL: RefCell<Scratch> = const { RefCell::new(Scratch::new()) };
        }
        POOL.with(|cell| match cell.try_borrow_mut() {
            Ok(mut pool) => f(&mut pool),
            // Re-entrant call (an outer frame holds the pool): use a
            // transient pool rather than panicking.
            Err(_) => f(&mut Scratch::new()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_is_zeroed_after_reuse() {
        let mut s = Scratch::new();
        let mut a = s.take(16);
        a.iter_mut().for_each(|x| *x = 7);
        let cap = a.capacity();
        s.put(a);
        let b = s.take(8);
        assert!(b.iter().all(|&x| x == 0));
        assert_eq!(b.len(), 8);
        assert_eq!(b.capacity(), cap, "pooled capacity is reused");
    }

    #[test]
    fn thread_local_pool_reuses_capacity() {
        let cap0 = Scratch::with_thread_local(|s| {
            let buf = s.take(1024);
            let cap = buf.capacity();
            s.put(buf);
            cap
        });
        let cap1 = Scratch::with_thread_local(|s| {
            let buf = s.take(512);
            let cap = buf.capacity();
            s.put(buf);
            cap
        });
        assert_eq!(cap0, cap1, "second frame reuses the pooled buffer");
    }

    #[test]
    fn reentrant_thread_local_does_not_panic() {
        Scratch::with_thread_local(|outer| {
            let buf = outer.take(4);
            Scratch::with_thread_local(|inner| {
                let b2 = inner.take(4);
                inner.put(b2);
            });
            outer.put(buf);
        });
    }

    #[test]
    fn grow_then_shrink_releases_peak_capacity() {
        let mut s = Scratch::new();
        // Grow: one transient giant request (16 MiB) is pooled on put.
        let big = s.take(1 << 21);
        s.put(big);
        let peak = s.retained_bytes();
        assert!(peak >= (1u64 << 21) * 8);

        // The trim must actually return memory to the allocator, not just
        // forget the pointer in our own accounting.
        let live_before = telemetry::alloc::global_stats().live_bytes;

        // Shrink: sustained small demand decays retention geometrically.
        for _ in 0..(TRIM_STREAK as usize * 4) {
            let b = s.take(64);
            s.put(b);
        }
        assert!(s.stats().trims >= 1, "sustained small takes must trim");
        assert!(
            s.retained_bytes() < peak / 2,
            "retained {} bytes, peak was {peak}",
            s.retained_bytes()
        );
        assert!(s.stats().trimmed_bytes >= peak / 2);

        let live_after = telemetry::alloc::global_stats().live_bytes;
        // Concurrent tests allocate too, so demand only half the giant
        // buffer's release to show up in the global gauge.
        assert!(
            live_before.saturating_sub(live_after) >= peak / 2,
            "live bytes went {live_before} -> {live_after}, \
             expected a drop of at least {}",
            peak / 2
        );

        // The small shapes that drove the decay still hit the pool.
        let warm = s.stats();
        let b = s.take(64);
        s.put(b);
        assert_eq!(s.stats().hits, warm.hits + 1);
    }

    #[test]
    fn warm_uniform_pool_never_trims() {
        let mut s = Scratch::new();
        // A steady-state worker: same shape over and over, several
        // buffers in flight at once. The decay policy must not evict
        // capacity that is actively serving requests.
        for _ in 0..(TRIM_STREAK as usize * 8) {
            let a = s.take(1024);
            let b = s.take(1024);
            s.put(a);
            s.put(b);
        }
        assert_eq!(s.stats().trims, 0);
        assert_eq!(s.stats().misses, 2, "only the cold takes allocate");
    }

    #[test]
    fn watermarks_track_hits_misses_and_high_water() {
        let global_before = scratch_stats();
        let mut s = Scratch::new();
        assert_eq!(s.stats(), ScratchStats::default());

        // Cold pool: the first take allocates.
        let a = s.take(128);
        assert_eq!((s.stats().hits, s.stats().misses), (0, 1));
        let cap_bytes = (a.capacity() * 8) as u64;
        s.put(a);
        assert_eq!(s.stats().high_water_bytes, cap_bytes);

        // Warm pool, smaller request: served without allocating.
        let b = s.take(64);
        assert_eq!((s.stats().hits, s.stats().misses), (1, 1));
        s.put(b);

        // Warm pool, larger request: the pooled buffer must grow — a miss.
        let c = s.take(4096);
        assert_eq!((s.stats().hits, s.stats().misses), (1, 2));
        let big_bytes = (c.capacity() * 8) as u64;
        s.put(c);
        assert_eq!(s.stats().high_water_bytes, big_bytes.max(cap_bytes));

        // The process-wide view advanced by at least this pool's traffic
        // (other tests run concurrently, so >=, not ==).
        let global_after = scratch_stats();
        assert!(global_after.hits > global_before.hits);
        assert!(global_after.misses >= global_before.misses + 2);
        assert!(global_after.high_water_bytes >= s.stats().high_water_bytes);
    }
}
