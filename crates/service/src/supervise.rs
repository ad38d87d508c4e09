//! Worker supervision: heartbeat slots, stall detection, and in-flight
//! confiscation.
//!
//! Each worker owns one `WorkerSlot`. At every batch boundary the
//! worker *stamps* its heartbeat; before executing it *stashes* the
//! batch's in-flight state in the slot (`Supervisor::begin`) and
//! reclaims it afterwards (`Supervisor::end`). The watchdog scans the
//! slots: a worker that has been busy longer than the stall timeout gets
//! its in-flight state *confiscated* (`Supervisor::confiscate`) — the
//! watchdog fails those requests with `WorkerStalled`, bumps the slot's
//! generation, and spawns a replacement so pool capacity recovers.
//!
//! The hand-off is race-free by construction: in-flight state lives in a
//! `Mutex<Option<T>>`, so exactly one of {worker, watchdog} ever takes
//! it, and the generation counter (written only under that same lock)
//! tells a replaced worker to discard its late result and exit instead
//! of answering a request the watchdog already failed.
//!
//! The supervisor is generic over the stashed payload `T` so the
//! mechanism is unit-testable with plain values; the server instantiates
//! it with its ticket batches.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Watchdog policy.
#[derive(Debug, Clone, Copy)]
pub struct SupervisorConfig {
    /// How often the watchdog scans the worker slots.
    pub interval: Duration,
    /// How long a worker may stay busy on one batch before its in-flight
    /// state is confiscated and the worker replaced.
    pub stall_timeout: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            interval: Duration::from_millis(250),
            // Toy-parameter batches finish in milliseconds; ten seconds
            // of silence from one worker is unambiguously a hang.
            stall_timeout: Duration::from_secs(10),
        }
    }
}

/// Point-in-time worker-pool health.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerHealth {
    /// Worker threads currently running (the pool's strength).
    pub alive: usize,
    /// Stall detections (each failed one batch with `WorkerStalled`).
    pub kicks: u64,
    /// Replacement workers spawned after a kick.
    pub respawns: u64,
}

struct SlotState<T> {
    generation: u64,
    inflight: Option<T>,
}

/// One worker's supervision slot.
struct WorkerSlot<T> {
    state: Mutex<SlotState<T>>,
    /// Lock-free mirror of `state.generation` for the worker's per-loop
    /// "was I replaced?" check.
    generation: AtomicU64,
    /// Last heartbeat, in ms since the supervisor's epoch.
    heartbeat_ms: AtomicU64,
    /// When the current batch started (ms since epoch), 0 while idle.
    busy_since_ms: AtomicU64,
}

/// The shared supervision table: one slot per worker index.
pub(crate) struct Supervisor<T> {
    slots: Vec<WorkerSlot<T>>,
    epoch: Instant,
    alive: AtomicUsize,
    kicks: AtomicU64,
    respawns: AtomicU64,
}

impl<T> Supervisor<T> {
    pub(crate) fn new(workers: usize) -> Self {
        Supervisor {
            slots: (0..workers)
                .map(|_| WorkerSlot {
                    state: Mutex::new(SlotState { generation: 0, inflight: None }),
                    generation: AtomicU64::new(0),
                    heartbeat_ms: AtomicU64::new(0),
                    busy_since_ms: AtomicU64::new(0),
                })
                .collect(),
            epoch: Instant::now(),
            alive: AtomicUsize::new(0),
            kicks: AtomicU64::new(0),
            respawns: AtomicU64::new(0),
        }
    }

    fn now_ms(&self) -> u64 {
        // +1 so "now" can never collide with the 0 = idle sentinel.
        self.epoch.elapsed().as_millis().min(u128::from(u64::MAX - 1)) as u64 + 1
    }

    /// Stamp worker `idx`'s heartbeat (called at batch boundaries).
    pub(crate) fn heartbeat(&self, idx: usize) {
        self.slots[idx].heartbeat_ms.store(self.now_ms(), Ordering::Relaxed);
    }

    /// The slot's current generation (lock-free; workers poll this to
    /// learn they were replaced).
    pub(crate) fn generation(&self, idx: usize) -> u64 {
        self.slots[idx].generation.load(Ordering::Acquire)
    }

    /// Stashes `inflight` in worker `idx`'s slot and marks it busy.
    /// Fails (returning the payload back) if the worker's generation is
    /// stale — the watchdog replaced it between loop top and here.
    pub(crate) fn begin(&self, idx: usize, my_generation: u64, inflight: T) -> Result<(), T> {
        let slot = &self.slots[idx];
        let mut state = slot.state.lock().expect("supervisor slot poisoned");
        if state.generation != my_generation {
            return Err(inflight);
        }
        debug_assert!(state.inflight.is_none(), "worker began a batch over another");
        state.inflight = Some(inflight);
        drop(state);
        slot.busy_since_ms.store(self.now_ms(), Ordering::Release);
        Ok(())
    }

    /// Reclaims the in-flight state stashed by [`begin`](Self::begin).
    /// `None` means the watchdog confiscated it: the caller must discard
    /// its result (the requests were already answered) and exit.
    pub(crate) fn end(&self, idx: usize, my_generation: u64) -> Option<T> {
        let slot = &self.slots[idx];
        let mut state = slot.state.lock().expect("supervisor slot poisoned");
        if state.generation != my_generation {
            return None;
        }
        let inflight = state.inflight.take();
        drop(state);
        slot.busy_since_ms.store(0, Ordering::Release);
        inflight
    }

    /// Workers whose current batch has run longer than `stall_timeout`.
    pub(crate) fn stalled(&self, stall_timeout: Duration) -> Vec<usize> {
        let now = self.now_ms();
        let limit = stall_timeout.as_millis().min(u128::from(u64::MAX)) as u64;
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| {
                let busy_since = s.busy_since_ms.load(Ordering::Acquire);
                busy_since != 0 && now.saturating_sub(busy_since) > limit
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Takes worker `idx`'s in-flight state away from it and bumps the
    /// slot generation so the (presumed hung) worker exits when it wakes.
    /// Returns the confiscated payload, how long the worker had been
    /// busy, and the new generation a replacement worker must carry.
    pub(crate) fn confiscate(&self, idx: usize) -> Option<(T, u64, u64)> {
        let slot = &self.slots[idx];
        let mut state = slot.state.lock().expect("supervisor slot poisoned");
        let inflight = state.inflight.take()?;
        let busy_since = slot.busy_since_ms.swap(0, Ordering::AcqRel);
        let stalled_for =
            if busy_since == 0 { 0 } else { self.now_ms().saturating_sub(busy_since) };
        state.generation += 1;
        let new_generation = state.generation;
        slot.generation.store(new_generation, Ordering::Release);
        drop(state);
        self.kicks.fetch_add(1, Ordering::Relaxed);
        Some((inflight, stalled_for, new_generation))
    }

    /// A worker thread entered its loop.
    pub(crate) fn worker_started(&self) {
        self.alive.fetch_add(1, Ordering::AcqRel);
    }

    /// A worker thread is exiting.
    pub(crate) fn worker_stopped(&self) {
        self.alive.fetch_sub(1, Ordering::AcqRel);
    }

    /// A replacement worker was spawned after a kick.
    pub(crate) fn record_respawn(&self) {
        self.respawns.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn health(&self) -> WorkerHealth {
        WorkerHealth {
            alive: self.alive.load(Ordering::Acquire),
            kicks: self.kicks.load(Ordering::Relaxed),
            respawns: self.respawns.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_end_round_trips_the_payload() {
        let sup: Supervisor<&str> = Supervisor::new(2);
        let generation = sup.generation(0);
        sup.begin(0, generation, "batch").unwrap();
        assert!(sup.stalled(Duration::from_secs(60)).is_empty(), "not stalled yet");
        assert_eq!(sup.end(0, generation), Some("batch"));
        assert_eq!(sup.end(0, generation), None, "nothing left to reclaim");
    }

    #[test]
    fn confiscation_wins_the_race_and_retires_the_generation() {
        let sup: Supervisor<u32> = Supervisor::new(1);
        let generation = sup.generation(0);
        sup.begin(0, generation, 42).unwrap();
        let (inflight, _stalled_for, new_generation) =
            sup.confiscate(0).expect("in-flight state confiscated");
        assert_eq!(inflight, 42);
        assert_eq!(new_generation, generation + 1);
        // The hung worker wakes up late: its reclaim must come back
        // empty, and a fresh begin under the stale generation must fail.
        assert_eq!(sup.end(0, generation), None);
        assert!(sup.begin(0, generation, 7).is_err(), "stale generation cannot begin");
        // The replacement runs normally under the new generation.
        sup.begin(0, new_generation, 7).unwrap();
        assert_eq!(sup.end(0, new_generation), Some(7));
        assert_eq!(sup.health().kicks, 1);
    }

    #[test]
    fn stall_detection_uses_busy_duration_not_heartbeat_age() {
        let sup: Supervisor<u8> = Supervisor::new(2);
        let generation = sup.generation(1);
        sup.begin(1, generation, 0).unwrap();
        std::thread::sleep(Duration::from_millis(25));
        assert_eq!(sup.stalled(Duration::from_millis(5)), vec![1]);
        assert!(sup.stalled(Duration::from_secs(60)).is_empty(), "within budget");
        // An idle worker is never stalled, however old its heartbeat.
        assert!(!sup.stalled(Duration::from_millis(5)).contains(&0));
    }

    #[test]
    fn confiscating_an_idle_worker_is_a_no_op() {
        let sup: Supervisor<u8> = Supervisor::new(1);
        assert!(sup.confiscate(0).is_none());
        assert_eq!(sup.health().kicks, 0, "no-op confiscation is not a kick");
    }
}
