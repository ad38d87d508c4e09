//! The five workloads and the loop that measures one of them end to end.
//!
//! A run is `Workload::SLICES` slices of equal length. A slice runs whole
//! units until the next one would overrun its budget, and yields one
//! throughput and one set of latency samples, which is cut into **windows**
//! of consecutive samples ([`P50_WINDOW`], [`P95_WINDOW`]). The run reports
//! each timing from its **best** slice or window: the highest throughput,
//! the lowest p50, the lowest p95.
//!
//! Why not the median over slices: interference on a shared host is
//! one-sided — a neighbour, a vCPU migration or an idle-state exit only
//! ever makes a slice slower — and comes in episodes. In a noisy ten
//! minutes the median over slices of `serve_hot`'s throughput repeated
//! within 11 % over ten runs, the best slice within 5 %. On the quiet
//! library workloads the two agree within a percent. A real regression
//! slows every slice, the best one with them. The pooled percentiles of
//! the whole run — what a user of this run saw, interference included —
//! are printed beside it.
//!
//! Why windows: where units are short (`serve_*`, `sim_suite`) the
//! interference comes in bursts far shorter than a slice, with calm
//! stretches of tens of milliseconds between them even in the host's worst
//! hours. Lowest window p95 / p50 over eight to ten runs, quartile
//! distance over median, by window length:
//!
//! | samples a window      |   32 |   64 |  128 |  256 | 512–1000 |
//! |-----------------------|-----:|-----:|-----:|-----:|---------:|
//! | `serve_cold`, busy hour, p95 | 2.0 % | 1.6 % | 2.7 % | 3.7 % | 5.6–6.7 % |
//! | `serve_hot`, busy hour, p95  | 1.8 % | 5.1 % | 5.4 % | 3.4 % | 2.7–5.1 % |
//! | `serve_cold`, an episode, p95 | 2.4 % | 5.2 % | 11.5 % | 12.3 % | 12.3 % |
//! | `sim_suite`, an episode, p95 | 1.4 % | 9.0 % | 14.2 % | 15.5 % | 26 % |
//! | `serve_cold`, an episode, p50 | 2.1 % | 2.4 % | 4.0 % | 4.2 % | 4.2 % |
//! | `sim_suite`, an episode, p50 | 0.9 % | 2.3 % | 3.5 % | 11.4 % | 12.2 % |
//!
//! (An *episode*: for minutes the host gives the VM less than it asks for
//! and every workload, the single-threaded ones too, runs 5–25 % slower.)
//! The shortest window is the steadiest, but the lowest of three hundred
//! 32-sample p95s is no longer a p95: a change that slows one template in
//! five leaves a dozen windows with at most two such requests, and the
//! minimum finds them. With 128 samples a window expects 25 and never
//! holds under seven, so the p95 — six samples beyond it — still sees
//! the change. A median needs no such care. Hence 32 for p50, 128 for p95.

pub mod ckks_mlp;
pub mod cross;
pub mod serve;
pub mod sim;

use std::time::{Duration, Instant};

use crate::spans::Tracer;
use crate::stats;

/// Workload names are fixed: later issues cite them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    ServeHot,
    ServeCold,
    CkksMlp,
    CrossThreshold,
    SimSuite,
}

impl Kind {
    pub const ALL: [Kind; 5] =
        [Kind::ServeHot, Kind::ServeCold, Kind::CkksMlp, Kind::CrossThreshold, Kind::SimSuite];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ServeHot => "serve_hot",
            Kind::ServeCold => "serve_cold",
            Kind::CkksMlp => "ckks_mlp",
            Kind::CrossThreshold => "cross_threshold",
            Kind::SimSuite => "sim_suite",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Latency samples per window for the p50 and for the p95. A slice with
/// fewer is one window: `ckks_mlp`'s and `cross_threshold`'s hold three.
pub const P50_WINDOW: usize = 32;
pub const P95_WINDOW: usize = 128;

/// What one slice measured.
pub struct Slice {
    /// Units attempted (requests, inferences, pipelines, suite passes).
    pub attempted: u64,
    /// Units rejected, errored or verified wrong.
    pub failed: u64,
    /// Verified units (for `sim_suite`: simulated steps) per second.
    pub throughput_per_s: f64,
    /// Per-unit latency samples, milliseconds, unsorted.
    pub latencies_ms: Vec<f64>,
}

/// A workload the measuring loop can drive.
pub trait Workload {
    /// Slices per run: as many as leave each slice a few units and, for a
    /// percentile, a few hundred samples.
    const SLICES: usize;
    /// Untimed units that fill caches and finish lazy set-up.
    fn warm_up(&mut self);
    /// Runs whole units for about `budget`; `tr` wraps each public call.
    fn slice(&mut self, budget: Duration, tr: &mut Tracer) -> Slice;
}

/// End-to-end numbers of one run of one workload, with each timing kept
/// per slice.
pub struct Measured {
    pub setup_s: f64,
    pub setup_median_s: f64,
    pub setup_reps: usize,
    pub slice_throughput_per_s: Vec<f64>,
    pub window_p50_ms: Vec<f64>,
    pub window_p95_ms: Vec<f64>,
    /// `(p50, p95, p99)` of every slice's samples pooled; printed, not
    /// gated.
    pub pooled_ms: (f64, f64, f64),
    pub latency_samples: usize,
    pub attempted: u64,
    pub failed: u64,
    pub peak_heap_mb: f64,
}

/// Builds the workload with `make` (timed, repeated), warms it up, then
/// measures `W::SLICES` slices within `seconds`.
///
/// Set-up is repeated because one set-up of a small workload is a few
/// milliseconds — too short to compare between commits from a single
/// sample: at least `min_setups` times and until half a second has gone
/// into it, up to 25 times. Like the timings it is reported from its best
/// repeat: over four sittings the fastest of 25 `serve_*` set-ups read
/// 4.54–4.59 ms while their median read 4.6–6.5 ms.
pub fn measure<W: Workload>(
    make: impl Fn() -> W,
    seconds: f64,
    min_setups: usize,
    tr: &mut Tracer,
) -> (Measured, W) {
    let mut setups = Vec::new();
    let mut built = None;
    let mut spent = 0.0;
    while setups.len() < min_setups || (spent < 0.5 && setups.len() < 25) {
        // Drop the previous instance first: two sets of keys at once
        // would double the peak a user never sees.
        drop(built.take());
        let t = Instant::now();
        built = Some(make());
        let s = t.elapsed().as_secs_f64();
        spent += s;
        setups.push(s);
    }
    let mut w = built.expect("set up at least once");
    w.warm_up();

    telemetry::alloc::reset_peak();
    let budget = Duration::from_secs_f64(seconds / W::SLICES as f64);
    let slices: Vec<Slice> = (0..W::SLICES).map(|_| w.slice(budget, tr)).collect();
    let peak_heap_mb = telemetry::alloc::global_stats().peak_bytes as f64 / (1024.0 * 1024.0);

    // Full windows only, unless the slice is shorter than one.
    let per_window = |q: f64, window: usize| -> Vec<f64> {
        slices
            .iter()
            .flat_map(|s| {
                let short = s.latencies_ms.len() < window;
                s.latencies_ms.chunks(window).filter(move |c| short || c.len() == window)
            })
            .map(|window| {
                let mut l = window.to_vec();
                stats::sort(&mut l);
                stats::quantile_sorted(&l, q)
            })
            .collect()
    };
    let mut pooled: Vec<f64> = slices.iter().flat_map(|s| s.latencies_ms.iter().copied()).collect();
    stats::sort(&mut pooled);
    let pooled_at = |q: f64| stats::quantile_sorted(&pooled, q);
    let measured = Measured {
        setup_s: setups.iter().copied().fold(f64::INFINITY, f64::min),
        setup_median_s: stats::median(&setups),
        setup_reps: setups.len(),
        slice_throughput_per_s: slices.iter().map(|s| s.throughput_per_s).collect(),
        window_p50_ms: per_window(0.5, P50_WINDOW),
        window_p95_ms: per_window(0.95, P95_WINDOW),
        pooled_ms: (pooled_at(0.5), pooled_at(0.95), pooled_at(0.99)),
        latency_samples: pooled.len(),
        attempted: slices.iter().map(|s| s.attempted).sum(),
        failed: slices.iter().map(|s| s.failed).sum(),
        peak_heap_mb,
    };
    (measured, w)
}

/// Runs `unit` (returns `true` when its output verified) until the next
/// one would overrun `budget`, at least once. Returns the slice with
/// throughput counted in verified units.
pub fn run_units(budget: Duration, mut unit: impl FnMut(u64) -> bool) -> Slice {
    let start = Instant::now();
    let mut latencies_ms = Vec::new();
    let (mut ok, mut busy) = (0u64, 0.0f64);
    loop {
        let t = Instant::now();
        let verified = unit(latencies_ms.len() as u64);
        let s = t.elapsed().as_secs_f64();
        busy += s;
        ok += u64::from(verified);
        latencies_ms.push(s * 1e3);
        let mean = busy / latencies_ms.len() as f64;
        if start.elapsed().as_secs_f64() + mean > budget.as_secs_f64() {
            break;
        }
    }
    let attempted = latencies_ms.len() as u64;
    Slice { attempted, failed: attempted - ok, throughput_per_s: ok as f64 / busy, latencies_ms }
}
