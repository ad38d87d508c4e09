//! Bounded admission queue with per-tenant fairness.
//!
//! Two rules decide admission, both enforced *synchronously* at submit
//! so clients learn their fate immediately instead of timing out:
//!
//! * **Capacity**: the queue holds at most `capacity` requests. Beyond
//!   that, submit returns [`ServiceError::Rejected`] with a
//!   `retry_after_ms` hint that grows with queue pressure — the
//!   service degrades to shed load, it does not die under it.
//! * **Fair share**: one tenant may occupy at most `tenant_share` of
//!   the queue. A tenant flooding the server is rejected at its share
//!   boundary while everyone else's requests continue to be admitted —
//!   the property the 90/10 fairness test pins down.
//!
//! The queue is scheme-agnostic: it stores any `T` tagged with a
//! tenant, so tests exercise fairness with plain integers and the
//! server stores full tickets.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::error::ServiceError;
use crate::request::TenantId;

/// Base client backoff hint, ms; scaled up as the queue fills.
const BASE_RETRY_MS: u64 = 5;

/// Admission policy.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Maximum queued requests.
    pub capacity: usize,
    /// Maximum fraction of the queue one tenant may hold, in `(0, 1]`.
    pub tenant_share: f64,
    /// Seed for the deterministic retry-hint jitter. Rejected clients
    /// that share a clock would otherwise retry in lockstep; the jitter
    /// spreads each hint into `[hint, 1.5 × hint]` while keeping a whole
    /// campaign reproducible from its seed.
    pub jitter_seed: u64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig { capacity: 256, tenant_share: 0.25, jitter_seed: 0x9e37_79b9_7f4a_7c15 }
    }
}

impl AdmissionConfig {
    /// Absolute per-tenant slot cap implied by the share.
    pub fn tenant_cap(&self) -> usize {
        ((self.capacity as f64 * self.tenant_share).floor() as usize).max(1)
    }
}

/// Admission counters.
#[derive(Debug, Default)]
pub struct QueueStats {
    accepted: AtomicU64,
    rejected_full: AtomicU64,
    rejected_share: AtomicU64,
}

impl QueueStats {
    /// Requests admitted.
    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }
    /// Rejections because the whole queue was full.
    pub fn rejected_full(&self) -> u64 {
        self.rejected_full.load(Ordering::Relaxed)
    }
    /// Rejections because the tenant exceeded its fair share.
    pub fn rejected_share(&self) -> u64 {
        self.rejected_share.load(Ordering::Relaxed)
    }
}

struct Inner<T> {
    queue: VecDeque<(TenantId, T)>,
    per_tenant: HashMap<TenantId, usize>,
    closed: bool,
}

/// The shared bounded queue.
pub struct AdmissionQueue<T> {
    config: AdmissionConfig,
    inner: Mutex<Inner<T>>,
    ready: Condvar,
    stats: Arc<QueueStats>,
    jitter_state: AtomicU64,
}

impl<T> AdmissionQueue<T> {
    /// An empty queue under `config`.
    pub fn new(config: AdmissionConfig) -> Self {
        AdmissionQueue {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                per_tenant: HashMap::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            stats: Arc::new(QueueStats::default()),
            jitter_state: AtomicU64::new(config.jitter_seed | 1),
            config,
        }
    }

    /// Shared stats handle.
    pub fn stats(&self) -> Arc<QueueStats> {
        Arc::clone(&self.stats)
    }

    /// The policy in force.
    pub fn config(&self) -> &AdmissionConfig {
        &self.config
    }

    /// Current depth.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("queue poisoned").queue.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Attempts to admit `item` for `tenant`. Never blocks.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Shutdown`] after [`close`](Self::close);
    /// [`ServiceError::Rejected`] when full (`reason: "queue-full"`) or
    /// the tenant is over its share (`reason: "tenant-share"`), with a
    /// backoff hint proportional to queue pressure.
    pub fn offer(&self, tenant: TenantId, item: T) -> Result<(), ServiceError> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        if inner.closed {
            return Err(ServiceError::Shutdown);
        }
        let depth = inner.queue.len();
        if depth >= self.config.capacity {
            self.stats.rejected_full.fetch_add(1, Ordering::Relaxed);
            telemetry::count_named("service.admission.reject.full", 1);
            return Err(ServiceError::Rejected {
                retry_after_ms: self.retry_hint(depth),
                reason: "queue-full",
            });
        }
        let held = inner.per_tenant.get(&tenant).copied().unwrap_or(0);
        if held >= self.config.tenant_cap() {
            self.stats.rejected_share.fetch_add(1, Ordering::Relaxed);
            telemetry::count_named("service.admission.reject.share", 1);
            return Err(ServiceError::Rejected {
                retry_after_ms: self.retry_hint(depth),
                reason: "tenant-share",
            });
        }
        inner.queue.push_back((tenant, item));
        *inner.per_tenant.entry(tenant).or_insert(0) += 1;
        self.stats.accepted.fetch_add(1, Ordering::Relaxed);
        telemetry::count_named("service.admission.accept", 1);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Backoff hint: base, scaled by how full the queue is (a full queue
    /// quadruples the base so retry storms spread out), plus a
    /// deterministic-seeded jitter of up to half the scaled hint so
    /// synchronized rejected clients don't come back in lockstep. The
    /// scaled value is the floor: jitter only ever adds.
    fn retry_hint(&self, depth: usize) -> u64 {
        let pressure = depth as f64 / self.config.capacity.max(1) as f64;
        let scaled = (BASE_RETRY_MS as f64 * (1.0 + 3.0 * pressure)).ceil() as u64;
        scaled + self.next_jitter() % (scaled / 2 + 1)
    }

    /// SplitMix64 step over the queue's jitter stream: deterministic for
    /// a given seed and rejection ordinal, uncorrelated between
    /// successive rejections.
    fn next_jitter(&self) -> u64 {
        let mut z = self
            .jitter_state
            .fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed)
            .wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Pops the oldest request, blocking up to `timeout`. `None` on
    /// timeout or when the queue is closed and drained.
    ///
    /// The `timeout` is an *overall* budget for the call: condvar wakeups
    /// that lose the race for an item (another consumer got it first, or
    /// the wakeup was spurious) re-wait only the remaining time, so a
    /// taker under contention can never block past its budget.
    pub fn take(&self, timeout: Duration) -> Option<(TenantId, T)> {
        let deadline = Instant::now().checked_add(timeout);
        let mut inner = self.inner.lock().expect("queue poisoned");
        loop {
            if let Some((tenant, item)) = inner.queue.pop_front() {
                Self::release_slot(&mut inner.per_tenant, tenant);
                return Some((tenant, item));
            }
            if inner.closed {
                return None;
            }
            let remaining = match deadline {
                Some(d) => match d.checked_duration_since(Instant::now()) {
                    Some(r) if !r.is_zero() => r,
                    _ => return None,
                },
                // `now + timeout` overflowed Instant: wait effectively forever.
                None => Duration::from_secs(3600),
            };
            let (next, _wait) = self.ready.wait_timeout(inner, remaining).expect("queue poisoned");
            inner = next;
        }
    }

    /// Pops the oldest request and, greedily, up to `max - 1` more for
    /// which `matches` returns true (relative to the first), preserving
    /// queue order. The coalescing entry point for the slot packer.
    pub fn take_group(
        &self,
        timeout: Duration,
        max: usize,
        mut matches: impl FnMut(&(TenantId, T), &(TenantId, T)) -> bool,
    ) -> Vec<(TenantId, T)> {
        let Some(first) = self.take(timeout) else { return Vec::new() };
        let mut group = vec![first];
        if max <= 1 {
            return group;
        }
        let mut inner = self.inner.lock().expect("queue poisoned");
        let mut i = 0;
        while i < inner.queue.len() && group.len() < max {
            if matches(&group[0], &inner.queue[i]) {
                let entry = inner.queue.remove(i).expect("index in bounds");
                Self::release_slot(&mut inner.per_tenant, entry.0);
                group.push(entry);
            } else {
                i += 1;
            }
        }
        group
    }

    fn release_slot(per_tenant: &mut HashMap<TenantId, usize>, tenant: TenantId) {
        if let Some(n) = per_tenant.get_mut(&tenant) {
            *n -= 1;
            if *n == 0 {
                per_tenant.remove(&tenant);
            }
        }
    }

    /// Closes the queue: future offers fail with `Shutdown`, blocked
    /// takers drain what remains and then return `None`.
    pub fn close(&self) {
        self.inner.lock().expect("queue poisoned").closed = true;
        self.ready.notify_all();
    }

    /// The `limit` tenants holding the most queued slots, busiest first
    /// (ties broken by tenant id) — the sampler's queue-pressure gauge.
    pub fn top_tenants(&self, limit: usize) -> Vec<(TenantId, usize)> {
        let inner = self.inner.lock().expect("queue poisoned");
        let mut rows: Vec<(TenantId, usize)> =
            inner.per_tenant.iter().map(|(&t, &n)| (t, n)).collect();
        drop(inner);
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        rows.truncate(limit);
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(capacity: usize, share: f64) -> AdmissionQueue<u32> {
        AdmissionQueue::new(AdmissionConfig {
            capacity,
            tenant_share: share,
            ..AdmissionConfig::default()
        })
    }

    #[test]
    fn rejects_when_full_with_growing_hint() {
        let queue = q(4, 1.0);
        for i in 0..4 {
            queue.offer(u64::from(i), i).unwrap();
        }
        let e = queue.offer(9, 9).unwrap_err();
        let ServiceError::Rejected { retry_after_ms, reason } = e else {
            panic!("expected rejection, got {e:?}")
        };
        assert_eq!(reason, "queue-full");
        assert!(retry_after_ms >= 20, "full queue hints 4x base: {retry_after_ms}");
        assert!(retry_after_ms <= 30, "jitter adds at most half the hint: {retry_after_ms}");
    }

    #[test]
    fn retry_hints_jitter_deterministically_per_seed() {
        let hints = |seed: u64| -> Vec<u64> {
            let queue: AdmissionQueue<u32> = AdmissionQueue::new(AdmissionConfig {
                capacity: 4,
                tenant_share: 1.0,
                jitter_seed: seed,
            });
            for i in 0..4 {
                queue.offer(u64::from(i), i).unwrap();
            }
            (0..32)
                .map(|i| match queue.offer(100 + i, 0).unwrap_err() {
                    ServiceError::Rejected { retry_after_ms, .. } => retry_after_ms,
                    e => panic!("expected rejection, got {e:?}"),
                })
                .collect()
        };
        let a = hints(7);
        assert_eq!(a, hints(7), "same seed, same hint sequence");
        assert_ne!(a, hints(8), "different seed decorrelates the herd");
        let distinct: std::collections::HashSet<u64> = a.iter().copied().collect();
        assert!(distinct.len() > 1, "hints must actually spread, got {a:?}");
    }

    #[test]
    fn take_respects_overall_timeout_under_a_slow_producer() {
        use std::sync::atomic::AtomicBool;
        // A slow producer keeps offering items that a greedy sibling
        // consumer steals back immediately. Every offer wakes the slow
        // taker; before the fix each wakeup restarted its full wait, so
        // its 50 ms budget stretched to the producer's lifetime.
        let queue: Arc<AdmissionQueue<u32>> = Arc::new(AdmissionQueue::new(AdmissionConfig {
            capacity: 64,
            tenant_share: 1.0,
            ..AdmissionConfig::default()
        }));
        let stop = Arc::new(AtomicBool::new(false));
        let producer = {
            let queue = Arc::clone(&queue);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let _ = queue.offer(1, 7);
                    // Steal it right back so the sleeping taker that our
                    // offer just woke finds the queue empty again.
                    let _ = queue.take(Duration::ZERO);
                    std::thread::sleep(Duration::from_millis(3));
                }
            })
        };
        let t0 = Instant::now();
        let _ = queue.take(Duration::from_millis(50));
        let elapsed = t0.elapsed();
        stop.store(true, Ordering::Relaxed);
        producer.join().unwrap();
        assert!(
            elapsed < Duration::from_millis(1_000),
            "take must return within its overall budget, took {elapsed:?}"
        );
    }

    #[test]
    fn tenant_share_is_enforced() {
        let queue = q(8, 0.25); // cap = 2 slots per tenant
        queue.offer(1, 0).unwrap();
        queue.offer(1, 1).unwrap();
        let e = queue.offer(1, 2).unwrap_err();
        assert!(matches!(e, ServiceError::Rejected { reason: "tenant-share", .. }), "{e:?}");
        // Other tenants still get in.
        queue.offer(2, 3).unwrap();
        // Taking one of tenant 1's entries frees its share.
        let (t, _) = queue.take(Duration::from_millis(10)).unwrap();
        assert_eq!(t, 1);
        queue.offer(1, 4).unwrap();
    }

    #[test]
    fn take_group_coalesces_matching_entries() {
        let queue = q(16, 1.0);
        for (tenant, v) in [(1u64, 10u32), (2, 20), (1, 11), (1, 12), (3, 30)] {
            queue.offer(tenant, v).unwrap();
        }
        let group = queue.take_group(Duration::from_millis(10), 3, |head, cand| head.0 == cand.0);
        let vals: Vec<u32> = group.iter().map(|e| e.1).collect();
        assert_eq!(vals, [10, 11, 12], "tenant 1's entries, in order");
        assert_eq!(queue.len(), 2, "tenants 2 and 3 remain");
    }

    #[test]
    fn close_drains_then_stops() {
        let queue = q(4, 1.0);
        queue.offer(1, 7).unwrap();
        queue.close();
        assert!(matches!(queue.offer(1, 8), Err(ServiceError::Shutdown)));
        assert_eq!(queue.take(Duration::from_millis(5)), Some((1, 7)));
        assert_eq!(queue.take(Duration::from_millis(5)), None);
    }
}
