//! The names the frozen `benchmark/` package calls, kept until ROADMAP
//! 10(d) retires them.
//!
//! Alchemist's parallelism is in the hardware: 128 computing units each own
//! one slot range of every RNS channel and dnum group (paper §5.3, Table 4).
//! The CPU kernels walk the same axis — per-channel NTTs, per-destination
//! Bconv dot products, element-wise RNS arithmetic — as plain loops on the
//! calling thread. A panic inside one is contained where a request can fail,
//! at the service's batch boundary (`service::server`), not here.

use std::convert::Infallible;

/// The one work class [`par_iter_mut_in`] accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkClass {
    /// Per-channel NTT transforms.
    Ntt,
}

/// Runs `f(index, &mut item)` for every item, in order; the class and the
/// per-item work estimate are ignored.
///
/// # Errors
///
/// None: the `Result` is kept only because the frozen benchmark
/// `.expect`s it.
pub fn par_iter_mut_in<T, F>(
    _class: WorkClass,
    items: &mut [T],
    _work_per_item: u64,
    mut f: F,
) -> Result<(), Infallible>
where
    F: FnMut(usize, &mut T),
{
    for (i, item) in items.iter_mut().enumerate() {
        f(i, item);
    }
    Ok(())
}

/// Does nothing: every kernel runs on the calling thread.
pub fn set_max_threads(_n: usize) {}

/// Always 1: every kernel runs on the calling thread.
#[inline]
pub const fn max_threads() -> usize {
    1
}

/// Always `false`: no kernel fans out to threads.
#[inline]
pub const fn parallelism_compiled() -> bool {
    false
}
