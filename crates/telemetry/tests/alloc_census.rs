//! The allocation census is exact across threads, including threads past
//! the block table that share the overflow block.
//!
//! A binary of its own with a single test: the census and the live ledger
//! are process-wide, so nothing else may allocate while they are compared
//! against exact sums. Every snapshot is taken while all workers are parked
//! on a barrier (waiting on one allocates nothing).

use std::sync::{Barrier, Mutex};

use telemetry::alloc::{global_stats, reset_peak, AllocStats, CENSUS_BLOCKS};

/// Twice the table: at least `CENSUS_BLOCKS` workers count into the shared
/// overflow block.
const THREADS: usize = 2 * CENSUS_BLOCKS;

/// Short-lived allocations each worker makes and frees first, so the
/// workers sharing the overflow block race on it.
const CHURN: u64 = 1000;
/// Their size: below every size in [`sizes`], so no worker's live bytes
/// ever exceed what it holds at the hold point.
const CHURN_BYTES: usize = 32;

/// Byte sizes worker `i` uses: `(first, grown, shrunk, handed_off)`.
fn sizes(i: usize) -> (usize, usize, usize, usize) {
    (64 + i, 4096 + 3 * i, 1000 + i, 256 + 7 * i)
}

/// The ledger identity every quiescent snapshot must satisfy.
fn assert_ledger(s: &AllocStats, at: &str) {
    assert_eq!(
        s.bytes_allocated - s.bytes_deallocated,
        s.live_bytes,
        "{at}: live must equal allocated − deallocated"
    );
}

#[test]
fn census_is_exact_across_threads_and_the_overflow_block() {
    // Worker `i` hands a buffer to slot `i`; worker `i + 1` frees it.
    let handoff: Vec<Mutex<Option<Vec<u8>>>> = (0..THREADS).map(|_| Mutex::new(None)).collect();
    let barrier = Barrier::new(THREADS + 1);
    let (mut base, mut hold, mut end) = Default::default();

    std::thread::scope(|scope| {
        for i in 0..THREADS {
            let (handoff, barrier) = (&handoff, &barrier);
            std::thread::Builder::new()
                .stack_size(128 * 1024)
                .spawn_scoped(scope, move || {
                    let (first, grown, shrunk, handed_off) = sizes(i);
                    // Claim this thread's census block (or the overflow one).
                    drop(std::hint::black_box(Vec::<u8>::with_capacity(1)));
                    barrier.wait(); // all parked: baseline
                    barrier.wait();
                    for _ in 0..CHURN {
                        drop(std::hint::black_box(Vec::<u8>::with_capacity(CHURN_BYTES)));
                    }
                    let mut v: Vec<u8> = Vec::with_capacity(first);
                    std::hint::black_box(&mut v).reserve_exact(grown);
                    *handoff[i].lock().unwrap() = Some(Vec::with_capacity(handed_off));
                    barrier.wait(); // all parked: everything held at once
                    barrier.wait();
                    std::hint::black_box(&mut v).shrink_to(shrunk);
                    drop(std::hint::black_box(v));
                    drop(handoff[(i + 1) % THREADS].lock().unwrap().take());
                    barrier.wait(); // all parked: everything freed
                    barrier.wait();
                })
                .expect("spawn census worker");
        }
        barrier.wait();
        base = global_stats();
        reset_peak();
        barrier.wait();
        barrier.wait();
        hold = global_stats();
        barrier.wait();
        barrier.wait();
        end = global_stats();
        barrier.wait();
    });

    let n = THREADS as u64;
    let sum = |f: fn((usize, usize, usize, usize)) -> usize| -> u64 {
        (0..THREADS).map(|i| f(sizes(i)) as u64).sum()
    };
    let held = sum(|(_, grown, _, handed_off)| grown + handed_off);
    let churn_bytes = n * CHURN * CHURN_BYTES as u64;
    // Every byte moved once each way: each alloc's size and each realloc's
    // new size in, each dealloc's size and each realloc's old size out.
    let moved = sum(|(first, grown, shrunk, handed_off)| first + grown + shrunk + handed_off);
    // Every call made between the baseline and the end, and nothing else.
    assert_eq!(end.allocs - base.allocs, n * (CHURN + 2), "allocs");
    assert_eq!(end.reallocs - base.reallocs, 2 * n, "reallocs");
    assert_eq!(end.deallocs - base.deallocs, n * (CHURN + 2), "deallocs");
    assert_eq!(end.bytes_allocated - base.bytes_allocated, churn_bytes + moved, "bytes_allocated");
    assert_eq!(
        end.bytes_deallocated - base.bytes_deallocated,
        churn_bytes + moved,
        "bytes_deallocated"
    );
    for (s, at) in [(&base, "baseline"), (&hold, "hold"), (&end, "end")] {
        assert_ledger(s, at);
    }
    assert_eq!(hold.live_bytes, base.live_bytes + held, "live at the hold point");
    assert_eq!(end.live_bytes, base.live_bytes, "live returns to baseline");
    // Live only rose up to the hold point and only fell after it, so the
    // peak since the reset is exactly the held total.
    assert_eq!(hold.peak_bytes, base.live_bytes + held, "peak at the hold point");
    assert_eq!(end.peak_bytes, base.live_bytes + held, "peak after everything was freed");
}
