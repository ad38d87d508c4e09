//! Order statistics and the spin-wait the open-loop generator uses.

use std::time::Instant;

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
///
/// # Panics
///
/// Panics on an empty slice: every caller measured at least one unit.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let i = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[i]
}

/// Sorts `v` ascending (total order; the benchmark never records NaN).
pub fn sort(v: &mut [f64]) {
    v.sort_unstable_by(f64::total_cmp);
}

/// Median of `v` (sorts a copy).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    sort(&mut s);
    quantile_sorted(&s, 0.5)
}

/// Median wall time in seconds of `reps` calls to `f`, after `warm`
/// untimed calls. The result of every call passes through `black_box`.
pub fn time_median<R>(warm: usize, reps: usize, mut f: impl FnMut() -> R) -> f64 {
    for _ in 0..warm {
        std::hint::black_box(f());
    }
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Busy-waits until `due`. The open-loop generator must not sleep: a
/// sleeping generator wakes late, releases the arrivals it missed in one
/// burst, and the burst — not the server — sets the measured latency.
pub fn spin_until(due: Instant) {
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}
