//! Per-tenant circuit breakers: a tenant whose requests keep tripping
//! the containment lattice gets quarantined instead of converting the
//! shared worker pool into a fault amplifier.
//!
//! Classic three-state machine, per tenant:
//!
//! * **Closed** — requests flow. Each completion pushes into a sliding
//!   window of the tenant's last `window` outcomes; once `threshold`
//!   of them are contained faults the breaker *opens*.
//! * **Open** — admission rejects the tenant synchronously with
//!   `reason: "tenant-quarantined"` and a `retry_after_ms` equal to the
//!   cooldown remaining. After the cooldown the next admit *half-opens*.
//! * **HalfOpen** — up to `half_open_probes` requests are admitted as
//!   probes. One faulted probe re-opens (fresh cooldown); all probes
//!   succeeding closes the breaker and clears the window.
//!
//! Outcomes are classified by [`crate::ServiceError::is_contained_fault`]: only
//! faults the lattice pinned on the tenant's own request (panic,
//! checksum, budget, stall) count toward quarantine. Rejections,
//! deadline expiries, and shutdowns do not — a slow client is not a
//! poisonous one.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::request::TenantId;

/// Breaker policy.
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Sliding window length (outcomes remembered per tenant).
    pub window: usize,
    /// Contained faults within the window that open the breaker.
    pub threshold: u32,
    /// Quarantine duration before the breaker half-opens.
    pub cooldown: Duration,
    /// Probe requests admitted while half-open.
    pub half_open_probes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            window: 32,
            threshold: 8,
            cooldown: Duration::from_millis(500),
            half_open_probes: 2,
        }
    }
}

/// A breaker's position in the state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Requests flow; faults accumulate in the window.
    Closed,
    /// Tenant quarantined until the cooldown elapses.
    Open,
    /// Probe requests trickle through to test recovery.
    HalfOpen,
}

/// Monotonic transition counters, shared across the bank.
#[derive(Debug, Default)]
pub struct BreakerStats {
    opens: AtomicU64,
    half_opens: AtomicU64,
    closes: AtomicU64,
}

impl BreakerStats {
    /// Closed/HalfOpen → Open transitions (quarantines imposed).
    pub fn opens(&self) -> u64 {
        self.opens.load(Ordering::Relaxed)
    }
    /// Open → HalfOpen transitions (cooldowns elapsed).
    pub fn half_opens(&self) -> u64 {
        self.half_opens.load(Ordering::Relaxed)
    }
    /// HalfOpen → Closed transitions (recoveries).
    pub fn closes(&self) -> u64 {
        self.closes.load(Ordering::Relaxed)
    }
}

struct TenantBreaker {
    state: BreakerState,
    /// `true` entries are contained faults.
    window: VecDeque<bool>,
    faults_in_window: u32,
    open_until: Instant,
    probes_inflight: u32,
    probe_successes: u32,
}

impl TenantBreaker {
    fn new(now: Instant) -> Self {
        TenantBreaker {
            state: BreakerState::Closed,
            window: VecDeque::new(),
            faults_in_window: 0,
            open_until: now,
            probes_inflight: 0,
            probe_successes: 0,
        }
    }

    fn reset_window(&mut self) {
        self.window.clear();
        self.faults_in_window = 0;
    }
}

/// Every tenant's breaker, behind one lock (admission already serializes
/// on the queue lock; breaker work per request is a few queue ops).
pub struct BreakerBank {
    config: BreakerConfig,
    inner: Mutex<HashMap<TenantId, TenantBreaker>>,
    stats: BreakerStats,
}

/// Cap on tracked tenants: beyond this, closed breakers with clean
/// windows are pruned (an open breaker is never dropped).
const PRUNE_ABOVE: usize = 8192;

impl BreakerBank {
    /// An empty bank under `config`.
    pub fn new(config: BreakerConfig) -> Self {
        BreakerBank { config, inner: Mutex::new(HashMap::new()), stats: BreakerStats::default() }
    }

    /// The policy in force.
    pub fn config(&self) -> &BreakerConfig {
        &self.config
    }

    /// Transition counters.
    pub fn stats(&self) -> &BreakerStats {
        &self.stats
    }

    /// Admission check for `tenant`. `Ok(is_probe)` admits (probes must
    /// be reported back via [`record`](Self::record) with
    /// `probe = true`); `Err(retry_after_ms)` means quarantined.
    ///
    /// # Errors
    ///
    /// The remaining cooldown in ms (at least 1) while the tenant's
    /// breaker is open, or a quarter of the cooldown while half-open
    /// with all probe slots taken.
    pub fn admit(&self, tenant: TenantId) -> Result<bool, u64> {
        let now = Instant::now();
        let mut inner = self.inner.lock().expect("breaker bank poisoned");
        let Some(b) = inner.get_mut(&tenant) else {
            return Ok(false); // Unknown tenant: trivially closed.
        };
        match b.state {
            BreakerState::Closed => Ok(false),
            BreakerState::Open => {
                if now < b.open_until {
                    let remaining = (b.open_until - now).as_millis().max(1) as u64;
                    telemetry::count_named("service.breaker.reject", 1);
                    return Err(remaining);
                }
                b.state = BreakerState::HalfOpen;
                b.probes_inflight = 1;
                b.probe_successes = 0;
                self.stats.half_opens.fetch_add(1, Ordering::Relaxed);
                telemetry::count_named("service.breaker.half_open", 1);
                Ok(true)
            }
            BreakerState::HalfOpen => {
                if b.probes_inflight < self.config.half_open_probes {
                    b.probes_inflight += 1;
                    Ok(true)
                } else {
                    telemetry::count_named("service.breaker.reject", 1);
                    Err((self.config.cooldown.as_millis() / 4).max(1) as u64)
                }
            }
        }
    }

    /// Reports one completed request for `tenant`. `fault` is whether it
    /// failed with a contained fault; `probe` echoes what
    /// [`admit`](Self::admit) returned for it.
    pub fn record(&self, tenant: TenantId, fault: bool, probe: bool) {
        let now = Instant::now();
        let mut inner = self.inner.lock().expect("breaker bank poisoned");
        if inner.len() > PRUNE_ABOVE {
            inner.retain(|_, b| b.state != BreakerState::Closed || b.faults_in_window > 0);
        }
        let b = inner.entry(tenant).or_insert_with(|| TenantBreaker::new(now));
        match b.state {
            BreakerState::Closed => {
                b.window.push_back(fault);
                if fault {
                    b.faults_in_window += 1;
                }
                while b.window.len() > self.config.window {
                    if b.window.pop_front() == Some(true) {
                        b.faults_in_window -= 1;
                    }
                }
                if b.faults_in_window >= self.config.threshold {
                    b.state = BreakerState::Open;
                    b.open_until = now + self.config.cooldown;
                    b.reset_window();
                    self.stats.opens.fetch_add(1, Ordering::Relaxed);
                    telemetry::count_named("service.breaker.open", 1);
                }
            }
            BreakerState::HalfOpen if probe => {
                b.probes_inflight = b.probes_inflight.saturating_sub(1);
                if fault {
                    // One bad probe and the quarantine restarts.
                    b.state = BreakerState::Open;
                    b.open_until = now + self.config.cooldown;
                    b.probes_inflight = 0;
                    b.probe_successes = 0;
                    self.stats.opens.fetch_add(1, Ordering::Relaxed);
                    telemetry::count_named("service.breaker.open", 1);
                } else {
                    b.probe_successes += 1;
                    if b.probe_successes >= self.config.half_open_probes {
                        b.state = BreakerState::Closed;
                        b.reset_window();
                        self.stats.closes.fetch_add(1, Ordering::Relaxed);
                        telemetry::count_named("service.breaker.close", 1);
                    }
                }
            }
            // Stale completions (admitted before the breaker moved) carry
            // no probe slot and don't advance the machine.
            BreakerState::Open | BreakerState::HalfOpen => {}
        }
    }

    /// Returns a half-open probe slot without reporting an outcome —
    /// for requests that [`admit`](Self::admit) passed as probes but a
    /// later synchronous gate (the admission queue) rejected before they
    /// ever ran. Without this the slot would leak and the breaker could
    /// wedge half-open.
    pub fn release_probe(&self, tenant: TenantId) {
        let mut inner = self.inner.lock().expect("breaker bank poisoned");
        if let Some(b) = inner.get_mut(&tenant) {
            if b.state == BreakerState::HalfOpen {
                b.probes_inflight = b.probes_inflight.saturating_sub(1);
            }
        }
    }

    /// The tenant's current state (Closed for tenants never seen).
    pub fn state(&self, tenant: TenantId) -> BreakerState {
        self.inner
            .lock()
            .expect("breaker bank poisoned")
            .get(&tenant)
            .map_or(BreakerState::Closed, |b| b.state)
    }

    /// `(open, half_open)` breaker counts — the sampler's gauge pair.
    pub fn open_counts(&self) -> (u64, u64) {
        let inner = self.inner.lock().expect("breaker bank poisoned");
        let mut open = 0u64;
        let mut half = 0u64;
        for b in inner.values() {
            match b.state {
                BreakerState::Open => open += 1,
                BreakerState::HalfOpen => half += 1,
                BreakerState::Closed => {}
            }
        }
        (open, half)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bank(threshold: u32, cooldown_ms: u64) -> BreakerBank {
        BreakerBank::new(BreakerConfig {
            window: 8,
            threshold,
            cooldown: Duration::from_millis(cooldown_ms),
            half_open_probes: 2,
        })
    }

    #[test]
    fn opens_at_threshold_and_rejects_with_cooldown_hint() {
        let bank = bank(3, 50);
        for _ in 0..2 {
            assert!(bank.admit(7).is_ok());
            bank.record(7, true, false);
            assert_eq!(bank.state(7), BreakerState::Closed);
        }
        bank.record(7, true, false);
        assert_eq!(bank.state(7), BreakerState::Open);
        let retry = bank.admit(7).expect_err("quarantined tenant is rejected");
        assert!((1..=50).contains(&retry), "hint is the cooldown remaining, got {retry}");
        assert_eq!(bank.stats().opens(), 1);
        // Other tenants are untouched.
        assert!(bank.admit(8).is_ok());
    }

    #[test]
    fn half_opens_after_cooldown_and_closes_on_probe_successes() {
        let bank = bank(2, 20);
        bank.record(3, true, false);
        bank.record(3, true, false);
        assert_eq!(bank.state(3), BreakerState::Open);
        std::thread::sleep(Duration::from_millis(25));
        assert_eq!(bank.admit(3), Ok(true), "first post-cooldown admit is a probe");
        assert_eq!(bank.state(3), BreakerState::HalfOpen);
        assert_eq!(bank.admit(3), Ok(true), "second probe slot");
        assert!(bank.admit(3).is_err(), "probe slots exhausted while half-open");
        bank.record(3, false, true);
        bank.record(3, false, true);
        assert_eq!(bank.state(3), BreakerState::Closed);
        assert_eq!(bank.stats().closes(), 1);
        assert_eq!(bank.stats().half_opens(), 1);
    }

    #[test]
    fn faulted_probe_reopens_with_fresh_cooldown() {
        let bank = bank(2, 20);
        bank.record(5, true, false);
        bank.record(5, true, false);
        std::thread::sleep(Duration::from_millis(25));
        assert_eq!(bank.admit(5), Ok(true));
        bank.record(5, true, true);
        assert_eq!(bank.state(5), BreakerState::Open);
        assert!(bank.admit(5).is_err(), "reopened quarantine rejects again");
        assert_eq!(bank.stats().opens(), 2);
    }

    #[test]
    fn window_slides_old_faults_out() {
        let bank = bank(3, 50);
        // Two faults, then enough successes to push them out of the
        // 8-deep window; a third fault later must not open the breaker.
        bank.record(9, true, false);
        bank.record(9, true, false);
        for _ in 0..8 {
            bank.record(9, false, false);
        }
        bank.record(9, true, false);
        assert_eq!(bank.state(9), BreakerState::Closed);
    }

    #[test]
    fn stale_completions_do_not_move_the_machine() {
        let bank = bank(2, 10_000);
        bank.record(4, true, false);
        bank.record(4, true, false);
        assert_eq!(bank.state(4), BreakerState::Open);
        // A request admitted before the breaker opened completes now.
        bank.record(4, false, false);
        bank.record(4, true, false);
        assert_eq!(bank.state(4), BreakerState::Open, "still quarantined");
        assert_eq!(bank.stats().opens(), 1);
    }
}
