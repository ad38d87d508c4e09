//! Channel-level data-parallel execution backend.
//!
//! Alchemist's scaling claim (paper §5.3, Table 4) rests on slot-partitioned
//! data parallelism: 128 computing units each own a slot range and process
//! every RNS channel and dnum group without inter-unit traffic. The software
//! mirror of that claim is the *RNS-channel axis*: per-channel NTTs, the
//! per-destination-channel Bconv dot products, and element-wise RNS
//! arithmetic are all embarrassingly parallel. This module provides the
//! minimal runner the kernels share.
//!
//! Design constraints:
//!
//! * **No external dependency.** The backend is `std::thread::scope` —
//!   workers borrow the caller's slices directly, no `'static` bounds, no
//!   unsafe code.
//! * **Adaptive.** Every entry point takes a per-item work estimate (in
//!   element-operations); below [`min_work`] total, or on a single-core
//!   host, the loop runs inline on the caller thread. Small `n` / few
//!   channels never pay thread-spawn latency.
//! * **Deterministic.** Work is partitioned into disjoint contiguous chunks
//!   and each item is processed by exactly the same scalar code as the
//!   sequential path, so parallel and sequential execution are
//!   bit-identical (asserted by `tests/parallel_differential.rs`).
//! * **Runtime-controllable.** [`set_max_threads`] lets one process compare
//!   sequential vs parallel execution (the `bench_kernels` baseline), and
//!   [`set_min_work`] lets tests force the parallel path at toy sizes.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// A panic contained inside one worker chunk of a parallel region.
///
/// Worker bodies run under [`std::panic::catch_unwind`]; a panicking chunk
/// never unwinds across the region boundary and never aborts the process.
/// The remaining chunks run to completion (their outputs for the region are
/// still unspecified — callers must treat the whole output as poisoned) and
/// the caller receives exactly one `ParError` describing the lowest-indexed
/// panicked chunk, so a fault degrades to a clean `Result`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParError {
    /// Worker slot that executed the panicked chunk (worker `w` always owns
    /// chunk `w`; inline regions account to worker 0).
    pub worker: usize,
    /// Index of the panicked contiguous chunk.
    pub chunk: usize,
    /// Stringified panic payload (`&str`/`String` payloads verbatim,
    /// anything else a placeholder).
    pub payload: String,
}

impl fmt::Display for ParError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "worker {} panicked in chunk {}: {}", self.worker, self.chunk, self.payload)
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

/// Arms the one-shot panic injector: the next parallel-region chunk with
/// this index (on any entry point, inline or threaded) panics with
/// [`INJECTED_PANIC_PAYLOAD`] before processing its items, then the hook
/// disarms itself. `usize::MAX` is the disarmed sentinel and is rejected.
///
/// This exists for the fault-injection campaign (`crates/faultsim`) and the
/// containment tests; it is a no-op for correctness — a triggered injection
/// surfaces as [`ParError`] exactly like an organic worker panic.
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
fn run_contained<R>(worker: usize, chunk: usize, body: impl FnOnce() -> R) -> Result<R, ParError> {
    catch_unwind(AssertUnwindSafe(|| {
        if take_injected_panic(chunk) {
            panic!("{INJECTED_PANIC_PAYLOAD}");
        }
        body()
    }))
    .map_err(|payload| {
        telemetry::count_named("par.worker_panic.contained", 1);
        let _ = telemetry::flight::fault_dump("worker_panic");
        ParError { worker, chunk, payload: payload_string(payload) }
    })
}

/// Records a contained error, keeping the lowest chunk index so the surfaced
/// error is deterministic regardless of thread interleaving.
fn store_error(slot: &Mutex<Option<ParError>>, err: ParError) {
    let mut guard = slot.lock().unwrap_or_else(|e| e.into_inner());
    match guard.as_ref() {
        Some(prev) if prev.chunk <= err.chunk => {}
        _ => *guard = Some(err),
    }
}

/// Requested thread cap: 0 = auto (one per available core).
static MAX_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Minimum total work (element-operations) before threads are spawned.
static MIN_WORK: AtomicU64 = AtomicU64::new(DEFAULT_MIN_WORK);

/// Default parallelism threshold: roughly the work of one 2^12-point NTT
/// channel — below this, thread-spawn latency dominates any speedup.
pub const DEFAULT_MIN_WORK: u64 = 1 << 15;

/// Kernel families with distinct thread-handoff break-even points.
///
/// A single global threshold cannot fit both an NTT (≈ log2(n) multiplies
/// per element, compute-bound) and an element-wise add (one add per
/// element, memory-bound): at the same *total work* the add finishes so
/// fast that spawn latency eats the speedup — the sub-1.0 parallel rows the
/// kernel bench used to report. Each class therefore carries its own
/// default minimum work; [`set_min_work`] with a non-default value still
/// overrides every class at once (the knob tests and the bench's
/// forced-parallel mode rely on that).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkClass {
    /// Per-channel NTT transforms: compute-dense, parallelizes early.
    Ntt,
    /// Base-conversion dot products (`Bconv`): multiply-accumulate chains,
    /// moderate density.
    Bconv,
    /// Element-wise passes (add/sub/neg/pointwise-mul, scaling):
    /// memory-bound, needs a large region before threads pay off.
    Elementwise,
}

impl WorkClass {
    /// The class's default minimum total work (element-operations) before
    /// a region goes threaded.
    pub const fn default_min_work(self) -> u64 {
        match self {
            WorkClass::Ntt => DEFAULT_MIN_WORK,
            WorkClass::Bconv => 1 << 17,
            WorkClass::Elementwise => 1 << 19,
        }
    }
}

/// The effective threshold for one work class: the class default, unless
/// [`set_min_work`] installed an explicit global override (any value other
/// than [`DEFAULT_MIN_WORK`]), which wins for every class — `0` forces the
/// threaded path everywhere, `u64::MAX` forces inline everywhere.
pub fn min_work_for(class: WorkClass) -> u64 {
    let global = MIN_WORK.load(Ordering::Relaxed);
    if global != DEFAULT_MIN_WORK {
        return global;
    }
    class.default_min_work()
}

/// Always `true`: there is one build and the thread backend is in it. Kept
/// because the frozen `benchmark/` package reports it as a host fact.
#[inline]
pub const fn parallelism_compiled() -> bool {
    true
}

/// Caps worker threads per parallel region; `0` restores auto (one per
/// available core). `1` forces sequential execution — the `bench_kernels`
/// binary uses this to record the sequential baseline in the same process.
pub fn set_max_threads(n: usize) {
    MAX_THREADS.store(n, Ordering::Relaxed);
}

/// Parses an `ALCHEMIST_NUM_THREADS` value: `None` (auto) when unset or
/// empty — the CI matrix passes `""` for auto — else the thread count.
///
/// # Panics
///
/// Panics, quoting the text, on anything but an integer ≥ 1: a mistyped
/// "sequential" recording must not run silently parallel.
fn parse_thread_override(raw: Option<&str>) -> Option<usize> {
    let text = raw.map(str::trim).filter(|t| !t.is_empty())?;
    match text.parse::<usize>() {
        Ok(n) if n >= 1 => Some(n),
        _ => panic!("ALCHEMIST_NUM_THREADS must be an integer >= 1, got {text:?}"),
    }
}

/// The auto thread budget, resolved once per process: the
/// `ALCHEMIST_NUM_THREADS` environment override if set, else one thread
/// per available core. Cached because `max_threads` sits on every kernel's
/// dispatch path and the environment / affinity lookups are syscalls.
fn auto_threads() -> usize {
    static AUTO: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *AUTO.get_or_init(|| {
        let raw = std::env::var_os("ALCHEMIST_NUM_THREADS");
        parse_thread_override(raw.as_ref().map(|v| v.to_string_lossy()).as_deref())
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// The effective thread budget: the [`set_max_threads`] cap, else
/// `ALCHEMIST_NUM_THREADS` from the environment, else one per available
/// core. Always ≥ 1.
pub fn max_threads() -> usize {
    let cap = MAX_THREADS.load(Ordering::Relaxed);
    if cap != 0 {
        return cap.max(1);
    }
    auto_threads()
}

/// Sets the adaptive threshold: total element-operations below which a
/// parallel region runs inline. Tests set `0` to force the threaded path at
/// toy sizes; [`DEFAULT_MIN_WORK`] restores the default.
pub fn set_min_work(work: u64) {
    MIN_WORK.store(work, Ordering::Relaxed);
}

/// The current adaptive threshold (see [`set_min_work`]).
pub fn min_work() -> u64 {
    MIN_WORK.load(Ordering::Relaxed)
}

/// Number of worker threads a region of `items` items × `work_per_item`
/// element-operations of the given class would use (1 = run inline).
fn plan_threads(items: usize, work_per_item: u64, class: WorkClass) -> usize {
    if items < 2 {
        return 1;
    }
    let budget = max_threads();
    if budget < 2 {
        return 1;
    }
    let total = work_per_item.saturating_mul(items as u64);
    if total < min_work_for(class) {
        return 1;
    }
    budget.min(items)
}

/// Runs `f(index, &mut item)` for every item, splitting the slice into
/// contiguous per-thread chunks when the total work clears the adaptive
/// threshold. `work_per_item` is the estimated element-operations per item
/// (e.g. `n` for an element-wise pass, `n·log2(n)` for an NTT).
///
/// # Errors
///
/// A panic inside `f` (or an armed [`inject_worker_panic`] hook) is caught
/// at the chunk boundary and returned as [`ParError`]; the other chunks
/// still run to completion and the process keeps working. On `Err` the
/// contents of `items` are unspecified — treat the region's output as
/// poisoned.
pub fn par_iter_mut<T, F>(items: &mut [T], work_per_item: u64, f: F) -> Result<(), ParError>
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    par_iter_mut_in(WorkClass::Ntt, items, work_per_item, f)
}

/// [`par_iter_mut`] with an explicit [`WorkClass`] selecting the adaptive
/// threshold — memory-bound element-wise regions need far more total work
/// than an NTT before threads pay off.
///
/// # Errors
///
/// Returns [`ParError`] when a chunk panics (see [`par_iter_mut`]).
pub fn par_iter_mut_in<T, F>(
    class: WorkClass,
    items: &mut [T],
    work_per_item: u64,
    f: F,
) -> Result<(), ParError>
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let threads = plan_threads(items.len(), work_per_item, class);
    if threads <= 1 {
        return run_contained(0, 0, || {
            for (i, item) in items.iter_mut().enumerate() {
                f(i, item);
            }
        });
    }
    let chunk = items.len().div_ceil(threads);
    let first_err: Mutex<Option<ParError>> = Mutex::new(None);
    // Worker heap traffic is charged back to the caller thread so the
    // parallel path reports the same span-attributed allocations as the
    // sequential one; the spawn scaffolding itself (thread stacks, join
    // handles) is telemetry-exempt on the caller — it is backend overhead,
    // not kernel work.
    let region_allocs = AtomicU64::new(0);
    let region_alloc_bytes = AtomicU64::new(0);
    {
        let _exempt = telemetry::alloc::exempt_scope();
        std::thread::scope(|scope| {
            let f = &f;
            let first_err = &first_err;
            let region_allocs = &region_allocs;
            let region_alloc_bytes = &region_alloc_bytes;
            for (ci, slice) in items.chunks_mut(chunk).enumerate() {
                let base = ci * chunk;
                scope.spawn(move || {
                    let alloc_base = telemetry::alloc::thread_stats();
                    let res = run_contained(ci, ci, || {
                        for (k, item) in slice.iter_mut().enumerate() {
                            f(base + k, item);
                        }
                    });
                    let d = telemetry::alloc::thread_stats().since(alloc_base);
                    if d.allocs != 0 || d.bytes != 0 {
                        region_allocs.fetch_add(d.allocs, Ordering::Relaxed);
                        region_alloc_bytes.fetch_add(d.bytes, Ordering::Relaxed);
                    }
                    if let Err(e) = res {
                        store_error(first_err, e);
                    }
                });
            }
        });
    }
    telemetry::alloc::charge_current_thread(
        region_allocs.load(Ordering::Relaxed),
        region_alloc_bytes.load(Ordering::Relaxed),
    );
    match first_err.into_inner().unwrap_or_else(|e| e.into_inner()) {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Parallel map over a shared slice: returns `f(index, &item)` for every
/// item, in order. Built on [`par_iter_mut`] over the output buffer, so the
/// same adaptive threshold and panic containment apply.
///
/// # Errors
///
/// Returns [`ParError`] when a chunk panics (see [`par_iter_mut`]).
pub fn par_map<T, U, F>(items: &[T], work_per_item: u64, f: F) -> Result<Vec<U>, ParError>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    par_map_in(WorkClass::Ntt, items, work_per_item, f)
}

/// [`par_map`] with an explicit [`WorkClass`] (see [`par_iter_mut_in`]).
///
/// # Errors
///
/// Returns [`ParError`] when a chunk panics (see [`par_iter_mut`]).
pub fn par_map_in<T, U, F>(
    class: WorkClass,
    items: &[T],
    work_per_item: u64,
    f: F,
) -> Result<Vec<U>, ParError>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let mut out: Vec<Option<U>> = (0..items.len()).map(|_| None).collect();
    par_iter_mut_in(class, &mut out, work_per_item, |i, slot| {
        *slot = Some(f(i, &items[i]));
    })?;
    Ok(out.into_iter().map(|v| v.expect("par_map fills every slot")).collect())
}

/// Runs `f(i)` for `i` in `0..count` with the same chunked dispatch as
/// [`par_iter_mut`], for loops whose state is not a `&mut` slice (each
/// iteration must touch disjoint data by construction).
///
/// # Errors
///
/// Returns [`ParError`] when a chunk panics (see [`par_iter_mut`]).
pub fn par_for_each<F>(count: usize, work_per_item: u64, f: F) -> Result<(), ParError>
where
    F: Fn(usize) + Sync,
{
    let mut indices: Vec<usize> = (0..count).collect();
    par_iter_mut(&mut indices, work_per_item, |_, &mut i| f(i))
}

/// Runs two independent closures, on separate threads when both sides clear
/// half the adaptive threshold. Returns both results. Side `a` runs on the
/// caller thread as chunk 0, side `b` as chunk 1.
///
/// # Errors
///
/// A panic on either side is contained and surfaced as [`ParError`]; when
/// both sides panic the lower chunk index (side `a`) wins.
pub fn join<A, B, RA, RB>(work_a: u64, work_b: u64, a: A, b: B) -> Result<(RA, RB), ParError>
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if max_threads() < 2 || work_a.saturating_add(work_b) < min_work() {
        let ra = run_contained(0, 0, a)?;
        let rb = run_contained(0, 1, b)?;
        return Ok((ra, rb));
    }
    // Same charge-back scheme as `par_iter_mut_in`: side b's heap traffic
    // lands on the caller, the spawn/join scaffolding is exempt. Side a
    // runs on the caller thread between the two exempt windows, so its
    // allocations attribute normally.
    let side_b = AtomicU64::new(0);
    let side_b_bytes = AtomicU64::new(0);
    let (ra, rb) = std::thread::scope(|scope| {
        let hb = {
            let _exempt = telemetry::alloc::exempt_scope();
            scope.spawn(|| {
                let alloc_base = telemetry::alloc::thread_stats();
                let r = run_contained(1, 1, b);
                let d = telemetry::alloc::thread_stats().since(alloc_base);
                side_b.store(d.allocs, Ordering::Relaxed);
                side_b_bytes.store(d.bytes, Ordering::Relaxed);
                r
            })
        };
        let ra = run_contained(0, 0, a);
        let rb = {
            let _exempt = telemetry::alloc::exempt_scope();
            hb.join().unwrap_or_else(|payload| {
                // `run_contained` already caught the body; reaching here means
                // the containment wrapper itself panicked, which we still
                // refuse to propagate as an unwind.
                Err(ParError { worker: 1, chunk: 1, payload: payload_string(payload) })
            })
        };
        (ra, rb)
    });
    telemetry::alloc::charge_current_thread(
        side_b.load(Ordering::Relaxed),
        side_b_bytes.load(Ordering::Relaxed),
    );
    match (ra, rb) {
        (Ok(ra), Ok(rb)) => Ok((ra, rb)),
        (Err(e), _) => Err(e),
        (_, Err(e)) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that mutate the global knobs.
    pub(crate) fn knob_guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn thread_override_parses_or_is_unset() {
        assert_eq!(parse_thread_override(None), None);
        assert_eq!(parse_thread_override(Some("")), None);
        assert_eq!(parse_thread_override(Some("  ")), None);
        assert_eq!(parse_thread_override(Some("1")), Some(1));
        assert_eq!(parse_thread_override(Some(" 4\n")), Some(4));
    }

    #[test]
    #[should_panic(expected = "got \"0\"")]
    fn thread_override_rejects_zero() {
        parse_thread_override(Some("0"));
    }

    #[test]
    #[should_panic(expected = "got \"one\"")]
    fn thread_override_rejects_garbage() {
        parse_thread_override(Some("one"));
    }

    #[test]
    fn sequential_below_threshold() {
        let _g = knob_guard();
        set_min_work(DEFAULT_MIN_WORK);
        set_max_threads(0);
        let mut v = vec![0u64; 8];
        par_iter_mut(&mut v, 1, |i, x| *x = i as u64 * 2).unwrap();
        assert_eq!(v, (0..8).map(|i| i * 2).collect::<Vec<u64>>());
    }

    #[test]
    fn forced_parallel_matches_sequential() {
        let _g = knob_guard();
        set_min_work(0);
        set_max_threads(4);
        let mut v = vec![0u64; 1027];
        par_iter_mut(&mut v, 1, |i, x| *x = (i as u64).wrapping_mul(0x9e3779b97f4a7c15)).unwrap();
        set_min_work(DEFAULT_MIN_WORK);
        set_max_threads(0);
        let expect: Vec<u64> =
            (0..1027).map(|i| (i as u64).wrapping_mul(0x9e3779b97f4a7c15)).collect();
        assert_eq!(v, expect);
    }

    #[test]
    fn par_map_preserves_order() {
        let _g = knob_guard();
        set_min_work(0);
        set_max_threads(3);
        let items: Vec<u32> = (0..100).collect();
        let out = par_map(&items, 1, |i, &x| (i as u32) + x).unwrap();
        set_min_work(DEFAULT_MIN_WORK);
        set_max_threads(0);
        assert_eq!(out, (0..100).map(|i| 2 * i).collect::<Vec<u32>>());
    }

    #[test]
    fn join_returns_both() {
        let _g = knob_guard();
        set_min_work(0);
        set_max_threads(2);
        let (a, b) = join(1 << 20, 1 << 20, || 1 + 1, || "x".repeat(3)).unwrap();
        set_min_work(DEFAULT_MIN_WORK);
        set_max_threads(0);
        assert_eq!((a, b.as_str()), (2, "xxx"));
    }

    #[test]
    fn max_threads_is_at_least_one() {
        assert!(max_threads() >= 1);
    }

    #[test]
    fn work_class_thresholds_and_global_override() {
        let _g = knob_guard();
        set_min_work(DEFAULT_MIN_WORK);
        assert_eq!(min_work_for(WorkClass::Ntt), DEFAULT_MIN_WORK);
        assert_eq!(min_work_for(WorkClass::Bconv), 1 << 17);
        assert_eq!(min_work_for(WorkClass::Elementwise), 1 << 19);
        // An explicit override (the test/bench knob) wins for every class.
        set_min_work(0);
        assert_eq!(min_work_for(WorkClass::Elementwise), 0);
        set_min_work(u64::MAX);
        assert_eq!(min_work_for(WorkClass::Bconv), u64::MAX);
        set_min_work(DEFAULT_MIN_WORK);
    }

    #[test]
    fn elementwise_class_stays_inline_where_ntt_class_threads() {
        let _g = knob_guard();
        set_min_work(DEFAULT_MIN_WORK);
        set_max_threads(4);
        // Work sits between the Ntt (2^15) and Elementwise (2^19) breaks.
        let items = 16usize;
        let per_item = 1u64 << 12; // total 2^16
        assert_eq!(plan_threads(items, per_item, WorkClass::Ntt), 4);
        assert_eq!(plan_threads(items, per_item, WorkClass::Elementwise), 1);
        set_max_threads(0);
    }

    /// Silences the default panic hook around a closure expected to contain
    /// panics, so intentional faults don't spam test output.
    pub(crate) fn quiet_panics<R>(f: impl FnOnce() -> R) -> R {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r = f();
        std::panic::set_hook(hook);
        r
    }

    #[test]
    fn organic_panic_is_contained_and_drains_other_chunks() {
        let _g = knob_guard();
        set_min_work(0);
        set_max_threads(4);
        let processed = AtomicU64::new(0);
        let mut v = vec![0u64; 400]; // 4 chunks of 100
        let err = quiet_panics(|| {
            par_iter_mut(&mut v, 1, |i, x| {
                if i == 250 {
                    panic!("boom at {i}");
                }
                processed.fetch_add(1, Ordering::Relaxed);
                *x = i as u64;
            })
            .unwrap_err()
        });
        set_min_work(DEFAULT_MIN_WORK);
        set_max_threads(0);
        assert_eq!(err.chunk, 2, "item 250 lives in chunk 2");
        assert_eq!(err.worker, 2);
        assert!(err.payload.contains("boom at 250"), "payload: {}", err.payload);
        // Every chunk other than the poisoned one ran to completion.
        assert!(
            processed.load(Ordering::Relaxed) >= 300,
            "non-panicked chunks must drain, got {}",
            processed.load(Ordering::Relaxed)
        );
        // The region after the fault is healthy again.
        let mut w = vec![0u64; 64];
        par_iter_mut(&mut w, 1, |i, x| *x = i as u64 + 1).unwrap();
        assert_eq!(w[63], 64);
    }

    #[test]
    fn injected_panic_hits_requested_chunk_then_disarms() {
        let _g = knob_guard();
        set_min_work(0);
        set_max_threads(4);
        inject_worker_panic(1);
        let mut v = vec![0u64; 400];
        let err = quiet_panics(|| par_iter_mut(&mut v, 1, |i, x| *x = i as u64).unwrap_err());
        assert_eq!((err.worker, err.chunk), (1, 1));
        assert_eq!(err.payload, INJECTED_PANIC_PAYLOAD);
        assert!(!clear_injected_panic(), "hook must one-shot disarm itself");
        // Same region re-run succeeds now that the hook is spent.
        par_iter_mut(&mut v, 1, |i, x| *x = i as u64).unwrap();
        set_min_work(DEFAULT_MIN_WORK);
        set_max_threads(0);
        assert_eq!(v[399], 399);
    }

    #[test]
    fn injected_panic_contained_on_inline_path() {
        let _g = knob_guard();
        set_min_work(u64::MAX); // force inline
        inject_worker_panic(0);
        let mut v = vec![0u64; 16];
        let err = quiet_panics(|| par_iter_mut(&mut v, 1, |i, x| *x = i as u64).unwrap_err());
        set_min_work(DEFAULT_MIN_WORK);
        assert_eq!((err.worker, err.chunk), (0, 0));
        assert_eq!(err.payload, INJECTED_PANIC_PAYLOAD);
    }

    #[test]
    fn unfired_injection_is_reported_by_clear() {
        let _g = knob_guard();
        inject_worker_panic(77); // no region runs a chunk 77 here
        let mut v = vec![0u64; 4];
        par_iter_mut(&mut v, 0, |i, x| *x = i as u64).unwrap();
        assert!(clear_injected_panic(), "hook should still be armed");
    }

    #[test]
    fn join_contains_panics_on_both_sides() {
        let _g = knob_guard();
        set_min_work(0);
        set_max_threads(2);
        let err = quiet_panics(|| {
            join(1 << 20, 1 << 20, || 7, || -> u32 { panic!("side b died") }).unwrap_err()
        });
        assert_eq!((err.worker, err.chunk), (1, 1));
        assert!(err.payload.contains("side b died"));
        let err = quiet_panics(|| {
            join(1 << 20, 1 << 20, || -> u32 { panic!("side a died") }, || 7).unwrap_err()
        });
        assert_eq!((err.worker, err.chunk), (0, 0));
        // Sequential fallback contains too.
        set_max_threads(1);
        let err =
            quiet_panics(|| join(1, 1, || 7, || -> u32 { panic!("seq b died") }).unwrap_err());
        assert_eq!(err.chunk, 1);
        set_min_work(DEFAULT_MIN_WORK);
        set_max_threads(0);
        let (a, b) = join(1, 1, || 1, || 2).unwrap();
        assert_eq!((a, b), (1, 2));
    }

    #[test]
    fn par_map_surfaces_contained_error() {
        let _g = knob_guard();
        set_min_work(0);
        set_max_threads(3);
        let items: Vec<u32> = (0..90).collect();
        let err = quiet_panics(|| {
            par_map(&items, 1, |i, &x| if i == 45 { panic!("map {i}") } else { x }).unwrap_err()
        });
        set_min_work(DEFAULT_MIN_WORK);
        set_max_threads(0);
        assert_eq!(err.chunk, 1, "item 45 lives in chunk 1 of 3×30");
    }
}
