//! Contained execution regions for the channel-wise kernels.
//!
//! Alchemist's parallelism is in the hardware: 128 computing units each own
//! one slot range of every RNS channel and dnum group (paper §5.3, Table 4).
//! The CPU kernels walk the same axis — per-channel NTTs, per-destination
//! Bconv dot products, element-wise RNS arithmetic — on the calling thread,
//! one channel after another. What this module adds to a plain loop is
//! *containment*: every region runs under [`std::panic::catch_unwind`], so a
//! panic inside a kernel body (organic, or armed by [`inject_worker_panic`])
//! surfaces as one [`ParError`] instead of unwinding through the scheme API,
//! bumps the `par.worker_panic.contained` counter and asks an armed flight
//! recorder for a dump.
//!
//! A region is one chunk: [`par_iter_mut`] and [`par_map`] run their items
//! as chunk 0, [`join`] runs side `a` as chunk 0 and side `b` as chunk 1.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A panic contained inside one chunk of a region.
///
/// The chunk body runs under [`std::panic::catch_unwind`]; a panic never
/// unwinds across the region boundary and never aborts the process. The
/// region's output is unspecified afterwards — callers must treat it as
/// poisoned — but the process stays healthy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParError {
    /// Index of the panicked chunk: 0, or 1 for [`join`]'s side `b`.
    pub chunk: usize,
    /// Stringified panic payload (`&str`/`String` payloads verbatim,
    /// anything else a placeholder).
    pub payload: String,
}

impl fmt::Display for ParError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "chunk {} panicked: {}", self.chunk, self.payload)
    }
}

impl std::error::Error for ParError {}

/// Payload used by the deterministic fault-injection hook (see
/// [`inject_worker_panic`]); campaigns match on it to tell injected faults
/// from organic bugs.
pub const INJECTED_PANIC_PAYLOAD: &str = "faultsim: injected worker panic";

/// One-shot fault-injection hook: `usize::MAX` = disarmed, anything else =
/// the chunk index whose next execution panics.
static INJECT_PANIC_CHUNK: AtomicUsize = AtomicUsize::new(usize::MAX);

/// Arms the one-shot panic injector: the next region chunk with this index
/// panics with [`INJECTED_PANIC_PAYLOAD`] before processing its items, then
/// the hook disarms itself. `usize::MAX` is the disarmed sentinel and is
/// rejected.
///
/// This exists for the fault-injection campaign (`crates/faultsim`) and the
/// containment tests; it is a no-op for correctness — a triggered injection
/// surfaces as [`ParError`] exactly like an organic panic.
pub fn inject_worker_panic(chunk: usize) {
    assert!(chunk != usize::MAX, "usize::MAX is the disarmed sentinel");
    INJECT_PANIC_CHUNK.store(chunk, Ordering::Relaxed);
}

/// Disarms the panic injector; returns whether it was still armed (i.e. the
/// injection never fired — campaigns count that as a benign outcome).
pub fn clear_injected_panic() -> bool {
    INJECT_PANIC_CHUNK.swap(usize::MAX, Ordering::Relaxed) != usize::MAX
}

/// One relaxed load on the fast path; only the armed chunk attempts the CAS.
#[inline]
fn take_injected_panic(chunk: usize) -> bool {
    if INJECT_PANIC_CHUNK.load(Ordering::Relaxed) != chunk {
        return false;
    }
    INJECT_PANIC_CHUNK
        .compare_exchange(chunk, usize::MAX, Ordering::Relaxed, Ordering::Relaxed)
        .is_ok()
}

/// Stringifies a `catch_unwind` payload.
fn payload_string(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Ok(s) = payload.downcast::<String>() {
        *s
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Runs one chunk body with injection check + panic containment. A
/// contained panic bumps the `par.worker_panic.contained` counter and asks
/// the flight recorder (if one is armed) to dump the recent event ring, so
/// long-running services get a post-mortem trace without re-running.
fn run_contained<R>(chunk: usize, body: impl FnOnce() -> R) -> Result<R, ParError> {
    catch_unwind(AssertUnwindSafe(|| {
        if take_injected_panic(chunk) {
            panic!("{INJECTED_PANIC_PAYLOAD}");
        }
        body()
    }))
    .map_err(|payload| {
        telemetry::count_named("par.worker_panic.contained", 1);
        let _ = telemetry::flight::fault_dump("worker_panic");
        ParError { chunk, payload: payload_string(payload) }
    })
}

/// Runs `f(index, &mut item)` for every item, in order, as one contained
/// chunk.
///
/// # Errors
///
/// A panic inside `f` (or an armed [`inject_worker_panic`] hook for chunk
/// 0) is caught and returned as [`ParError`]; the process keeps working.
/// On `Err` the contents of `items` are unspecified — treat the region's
/// output as poisoned.
pub fn par_iter_mut<T, F>(items: &mut [T], mut f: F) -> Result<(), ParError>
where
    F: FnMut(usize, &mut T),
{
    run_contained(0, || {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
    })
}

/// Returns `f(index, &item)` for every item, in order, as one contained
/// chunk.
///
/// # Errors
///
/// Returns [`ParError`] when `f` panics (see [`par_iter_mut`]).
pub fn par_map<T, U, F>(items: &[T], mut f: F) -> Result<Vec<U>, ParError>
where
    F: FnMut(usize, &T) -> U,
{
    run_contained(0, || items.iter().enumerate().map(|(i, item)| f(i, item)).collect())
}

/// Runs two independent closures, side `a` as chunk 0, then side `b` as
/// chunk 1, and returns both results.
///
/// # Errors
///
/// A panic on either side is contained and surfaced as [`ParError`]; a
/// panic on side `a` returns before side `b` runs.
pub fn join<A, B, RA, RB>(a: A, b: B) -> Result<(RA, RB), ParError>
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB,
{
    let ra = run_contained(0, a)?;
    let rb = run_contained(1, b)?;
    Ok((ra, rb))
}

// Kept for the frozen benchmark until ROADMAP 7(e): the `benchmark/`
// package calls these five names. None of them changes behaviour.

/// The one work class [`par_iter_mut_in`] accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkClass {
    /// Per-channel NTT transforms.
    Ntt,
}

/// [`par_iter_mut`]; the class and the per-item work estimate are ignored.
///
/// # Errors
///
/// Returns [`ParError`] when `f` panics (see [`par_iter_mut`]).
pub fn par_iter_mut_in<T, F>(
    _class: WorkClass,
    items: &mut [T],
    _work_per_item: u64,
    f: F,
) -> Result<(), ParError>
where
    F: FnMut(usize, &mut T),
{
    par_iter_mut(items, f)
}

/// Does nothing: every region runs on the calling thread.
pub fn set_max_threads(_n: usize) {}

/// Always 1: every region runs on the calling thread.
#[inline]
pub const fn max_threads() -> usize {
    1
}

/// Always `false`: no region fans out to threads.
#[inline]
pub const fn parallelism_compiled() -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that run chunk 0 or 1 against the ones that arm
    /// the process-wide injector for it.
    fn injector_guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Silences the default panic hook around a closure expected to contain
    /// panics, so intentional faults don't spam test output.
    fn quiet_panics<R>(f: impl FnOnce() -> R) -> R {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r = f();
        std::panic::set_hook(hook);
        r
    }

    #[test]
    fn regions_visit_every_item_in_order() {
        let _g = injector_guard();
        let mut v = vec![0u64; 8];
        par_iter_mut(&mut v, |i, x| *x = i as u64 * 2).unwrap();
        assert_eq!(v, (0..8).map(|i| i * 2).collect::<Vec<u64>>());
        let items: Vec<u32> = (0..100).collect();
        let out = par_map(&items, |i, &x| (i as u32) + x).unwrap();
        assert_eq!(out, (0..100).map(|i| 2 * i).collect::<Vec<u32>>());
        let (a, b) = join(|| 1 + 1, || "x".repeat(3)).unwrap();
        assert_eq!((a, b.as_str()), (2, "xxx"));
    }

    #[test]
    fn organic_panic_is_contained_then_the_next_region_is_healthy() {
        let _g = injector_guard();
        let mut v = vec![0u64; 400];
        let err = quiet_panics(|| {
            par_iter_mut(&mut v, |i, x| {
                if i == 250 {
                    panic!("boom at {i}");
                }
                *x = i as u64;
            })
            .unwrap_err()
        });
        assert_eq!(err.chunk, 0);
        assert!(err.payload.contains("boom at 250"), "payload: {}", err.payload);
        let mut w = vec![0u64; 64];
        par_iter_mut(&mut w, |i, x| *x = i as u64 + 1).unwrap();
        assert_eq!(w[63], 64);
    }

    #[test]
    fn injected_panic_hits_chunk_zero_then_disarms() {
        let _g = injector_guard();
        inject_worker_panic(0);
        let mut v = vec![0u64; 16];
        let err = quiet_panics(|| par_iter_mut(&mut v, |i, x| *x = i as u64).unwrap_err());
        assert_eq!(err, ParError { chunk: 0, payload: INJECTED_PANIC_PAYLOAD.to_string() });
        assert!(!clear_injected_panic(), "hook must one-shot disarm itself");
        par_iter_mut(&mut v, |i, x| *x = i as u64).unwrap();
        assert_eq!(v[15], 15);
    }

    #[test]
    fn unfired_injection_is_reported_by_clear() {
        let _g = injector_guard();
        inject_worker_panic(77); // no region runs a chunk 77
        let mut v = vec![0u64; 4];
        par_iter_mut(&mut v, |i, x| *x = i as u64).unwrap();
        assert!(clear_injected_panic(), "hook should still be armed");
    }

    #[test]
    fn join_contains_either_side_and_b_is_chunk_one() {
        let _g = injector_guard();
        let err = quiet_panics(|| join(|| 7, || -> u32 { panic!("side b died") }).unwrap_err());
        assert_eq!(err.chunk, 1);
        assert!(err.payload.contains("side b died"));
        let err = quiet_panics(|| join(|| -> u32 { panic!("side a died") }, || 7).unwrap_err());
        assert_eq!(err.chunk, 0);
        inject_worker_panic(1);
        let err = quiet_panics(|| join(|| 1, || 2).unwrap_err());
        assert_eq!(err, ParError { chunk: 1, payload: INJECTED_PANIC_PAYLOAD.to_string() });
        assert_eq!(join(|| 1, || 2).unwrap(), (1, 2));
    }

    #[test]
    fn par_map_surfaces_contained_error() {
        let _g = injector_guard();
        let items: Vec<u32> = (0..90).collect();
        let err = quiet_panics(|| {
            par_map(&items, |i, &x| if i == 45 { panic!("map {i}") } else { x }).unwrap_err()
        });
        assert_eq!(err.chunk, 0);
        assert!(err.payload.contains("map 45"), "payload: {}", err.payload);
        assert_eq!(par_map(&items, |_, &x| x + 1).unwrap()[89], 90);
    }
}
