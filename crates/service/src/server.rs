//! The multi-tenant batch server.
//!
//! Std-only async: a bounded [`AdmissionQueue`] in front of a worker
//! threadpool, responses delivered over per-request `mpsc` channels.
//! Submission is synchronous and cheap — validate, compile, fingerprint,
//! admit (or reject with a backoff hint) — and everything cryptographic
//! happens on the workers.
//!
//! **One execution path.** A worker packs what it takes from the queue
//! into batches — same-tenant, same-program CKKS requests share one
//! ciphertext; a cold tenant's request or a TFHE gate is a batch of one —
//! and every batch, of either scheme and any size, runs through the same
//! function: deadline gate, manifest gate, key fetch, supervisor stash,
//! the scheme's executor under `catch_unwind`, reply.
//!
//! **Degradation, not death.** A packed batch that fails for any reason
//! is *not* failed wholesale: the server re-runs each member as a batch of
//! its own, so a fault riding on one member costs exactly that member. A
//! one-member failure produces a structured error back to its submitter
//! plus a flight-recorder `fault_dump` when the failure is one of the
//! containment lattice's classes — and the server keeps serving.
//!
//! **Liveness, not just correctness.** Three resilience mechanisms ride
//! on the same lifecycle (DESIGN.md §17):
//!
//! * *Deadlines* — a request may carry a deadline from admission
//!   ([`Server::submit_with_deadline`]). The packer refuses to coalesce
//!   members whose remaining budgets differ more than 4×, workers check
//!   the deadline before any cryptographic work, and expired requests
//!   fail with [`ServiceError::DeadlineExceeded`] instead of occupying
//!   a worker.
//! * *Supervision* — workers stamp per-slot heartbeat atomics at batch
//!   boundaries and stash their in-flight batch in the supervisor
//!   ([`crate::supervise`]). A watchdog thread confiscates batches that
//!   outlive the stall timeout, fails their members with
//!   [`ServiceError::WorkerStalled`], fires a flight dump, and respawns
//!   the worker so pool strength recovers.
//! * *Circuit breakers* — contained faults feed each tenant's sliding
//!   window ([`crate::breaker`]); a tenant past the threshold is
//!   quarantined at admission (`reason: "tenant-quarantined"`) until
//!   its cooldown elapses and clean probes close the breaker.
//!
//! Every admitted request reaches exactly one terminal outcome —
//! completed, failed, expired, stalled, or shutdown — which the chaos
//! campaign's [`faultsim::chaos::OutcomeLedger`] asserts end to end.

use std::collections::HashMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use alchemist_core::{ArchConfig, Simulator};
use faultsim::chaos::{OutcomeLedger, Terminal};
use fhe_ckks::{CkksContext, CkksParams};
use fhe_tfhe::TfheParams;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use telemetry::Histogram;

use crate::breaker::{BreakerBank, BreakerConfig};
use crate::error::ServiceError;
use crate::exec::{execute_ckks, execute_tfhe};
use crate::keycache::{KeyCache, KeyCacheStats};
use crate::pack::{combined_payload, pack, PackedBatch};
use crate::plan::{compile, Plan};
use crate::queue::{AdmissionConfig, AdmissionQueue, QueueStats};
use crate::request::{FaultFlag, Payload, Request, Scheme, TenantId};
use crate::supervise::{Supervisor, SupervisorConfig, WorkerHealth};

/// How long an idle worker waits on the queue before rechecking for
/// shutdown.
const WORKER_POLL: Duration = Duration::from_millis(20);
/// Tenants whose eval keys stay resident.
const KEY_CACHE_CAPACITY: usize = 128;
/// Most requests one batch holds.
const MAX_BATCH: usize = 8;
/// Distinct tenants tracked with their own latency histogram (first come;
/// the rest are not tracked).
const LATENCY_TENANTS: usize = 64;

/// Server configuration: what a caller chooses. The key cache holds
/// 128 tenants, a batch at most 8 requests, TFHE runs at
/// [`TfheParams::toy`], and a request submitted without a deadline never
/// expires.
pub struct ServerConfig {
    /// Worker threads.
    pub workers: usize,
    /// Admission policy.
    pub admission: AdmissionConfig,
    /// Server seed: tenant keys and per-request encryption randomness
    /// derive from it, so a trace replays bit-identically.
    pub seed: u64,
    /// CKKS ring parameters.
    pub params: CkksParams,
    /// Telemetry handle workers record into.
    pub telemetry: telemetry::Telemetry,
    /// Watchdog policy.
    pub supervisor: SupervisorConfig,
    /// Per-tenant circuit-breaker policy.
    pub breaker: BreakerConfig,
    /// Optional no-lost-request ledger: every admission and terminal
    /// outcome is recorded into it (the chaos campaign's checker).
    pub ledger: Option<Arc<OutcomeLedger>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            admission: AdmissionConfig::default(),
            seed: 0xA1C4_E157_5E1D_0001,
            params: CkksParams::toy().expect("toy params construct"),
            telemetry: telemetry::Telemetry::enabled(),
            supervisor: SupervisorConfig::default(),
            breaker: BreakerConfig::default(),
            ledger: None,
        }
    }
}

/// One finished request.
#[derive(Debug)]
pub struct Completion {
    /// Submission id (monotonic per server).
    pub id: u64,
    /// Submitting tenant.
    pub tenant: TenantId,
    /// Decoded result slots (TFHE: one `0.0`/`1.0` bit), or the
    /// structured failure.
    pub result: Result<Vec<f64>, ServiceError>,
    /// Submit-to-completion latency.
    pub latency: Duration,
    /// Members in the batch this request executed in (1 = alone).
    pub batch_size: usize,
}

/// Monotonic server counters.
#[derive(Debug, Default)]
pub struct ServerStats {
    submitted: AtomicU64,
    completed_ok: AtomicU64,
    failed: AtomicU64,
    faults_contained: AtomicU64,
    batches: AtomicU64,
    packed_batches: AtomicU64,
    packed_members: AtomicU64,
    degraded_batches: AtomicU64,
    deadline_expired: AtomicU64,
    stalled: AtomicU64,
}

/// Point-in-time copy of [`ServerStats`].
#[derive(Debug, Clone, Copy)]
pub struct StatsSnapshot {
    /// Requests offered to admission (accepted or not).
    pub submitted: u64,
    /// Requests answered with `Ok`.
    pub completed_ok: u64,
    /// Requests answered with a structured error.
    pub failed: u64,
    /// Failures the containment lattice classified (panic, checksum,
    /// budget, stall) — each also produced a flight `fault_dump`.
    pub faults_contained: u64,
    /// Batches the workers formed and ran, one member or more; the
    /// one-at-a-time re-runs of a failed batch's members are not counted.
    pub batches: u64,
    /// Batches with more than one member.
    pub packed_batches: u64,
    /// Members that rode in packed batches.
    pub packed_members: u64,
    /// Packed batches that failed and had their members re-run one at a
    /// time.
    pub degraded_batches: u64,
    /// Requests that failed with `DeadlineExceeded`.
    pub deadline_expired: u64,
    /// Requests that failed with `WorkerStalled` after confiscation.
    pub stalled: u64,
}

impl ServerStats {
    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed_ok: self.completed_ok.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            faults_contained: self.faults_contained.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            packed_batches: self.packed_batches.load(Ordering::Relaxed),
            packed_members: self.packed_members.load(Ordering::Relaxed),
            degraded_batches: self.degraded_batches.load(Ordering::Relaxed),
            deadline_expired: self.deadline_expired.load(Ordering::Relaxed),
            stalled: self.stalled.load(Ordering::Relaxed),
        }
    }
}

/// Per-tenant latency book: the first [`LATENCY_TENANTS`] distinct
/// tenants get a histogram each; the long tail is not tracked.
#[derive(Default)]
struct LatencyBook {
    per_tenant: HashMap<TenantId, Histogram>,
}

impl LatencyBook {
    fn record(&mut self, tenant: TenantId, ns: u64) {
        if let Some(h) = self.per_tenant.get_mut(&tenant) {
            h.record(ns);
        } else if self.per_tenant.len() < LATENCY_TENANTS {
            self.per_tenant.entry(tenant).or_default().record(ns);
        }
    }
}

/// `(tenant, completions, p50 ns, p99 ns)` rows from the latency book.
pub type TenantLatencyRow = (TenantId, u64, u64, u64);

struct Ticket {
    id: u64,
    req: Request,
    plan: Arc<Plan>,
    respond: mpsc::Sender<Completion>,
    span: Option<telemetry::DetachedSpan>,
    submitted: Instant,
    deadline: Option<Instant>,
    probe: bool,
}

/// What a worker stashes in its supervision slot while executing: the
/// batch's tickets with their slot ranges, so the watchdog can answer
/// them if it has to confiscate.
struct Inflight {
    items: Vec<(Ticket, Range<usize>)>,
    batch_size: usize,
}

struct Shared {
    ctx: CkksContext,
    queue: AdmissionQueue<Ticket>,
    cache: Mutex<KeyCache>,
    cache_stats: Arc<KeyCacheStats>,
    stats: ServerStats,
    latency: Mutex<LatencyBook>,
    tel: telemetry::Telemetry,
    sim: Simulator,
    seed: u64,
    closing: AtomicBool,
    next_id: AtomicU64,
    sup: Supervisor<Inflight>,
    supervisor_cfg: SupervisorConfig,
    breaker: BreakerBank,
    ledger: Option<Arc<OutcomeLedger>>,
    inflight_total: AtomicU64,
    inflight_by_tenant: Mutex<HashMap<TenantId, u64>>,
    /// Worker threads, including watchdog respawns (joined at drain).
    handles: Mutex<Vec<JoinHandle<()>>>,
}

/// The running server. Dropping it drains the queue and joins the
/// workers.
pub struct Server {
    shared: Arc<Shared>,
    watchdog: Option<JoinHandle<()>>,
}

impl Server {
    /// Builds the CKKS context, spawns the workers and the watchdog, and
    /// starts serving.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Scheme`] if context construction fails.
    pub fn start(config: ServerConfig) -> Result<Self, ServiceError> {
        let ctx = CkksContext::new(config.params.clone())?;
        let cache = KeyCache::new(KEY_CACHE_CAPACITY, config.seed);
        let cache_stats = cache.stats();
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            ctx,
            queue: AdmissionQueue::new(config.admission),
            cache: Mutex::new(cache),
            cache_stats,
            stats: ServerStats::default(),
            latency: Mutex::new(LatencyBook::default()),
            tel: config.telemetry,
            sim: Simulator::new(ArchConfig::paper()),
            seed: config.seed,
            closing: AtomicBool::new(false),
            next_id: AtomicU64::new(0),
            sup: Supervisor::new(workers),
            supervisor_cfg: config.supervisor,
            breaker: BreakerBank::new(config.breaker),
            ledger: config.ledger,
            inflight_total: AtomicU64::new(0),
            inflight_by_tenant: Mutex::new(HashMap::new()),
            handles: Mutex::new(Vec::new()),
        });
        {
            let mut handles = shared.handles.lock().expect("handles poisoned");
            for idx in 0..workers {
                handles.push(spawn_worker(&shared, idx, 0));
            }
        }
        let watchdog = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("svc-watchdog".into())
                .spawn(move || watchdog_loop(&shared))
                .expect("spawn watchdog")
        };
        Ok(Server { shared, watchdog: Some(watchdog) })
    }

    /// The server's CKKS context (tests encode expectations against it).
    pub fn ctx(&self) -> &CkksContext {
        &self.shared.ctx
    }

    /// Validates, compiles, and admits a request that never expires.
    /// Returns the channel its [`Completion`] will arrive on.
    ///
    /// # Errors
    ///
    /// Synchronously: [`ServiceError::InvalidRequest`] from the plan
    /// compiler, [`ServiceError::Rejected`] from admission or a
    /// quarantining breaker, [`ServiceError::Shutdown`] while draining.
    pub fn submit(&self, req: Request) -> Result<mpsc::Receiver<Completion>, ServiceError> {
        self.submit_with_deadline(req, None)
    }

    /// [`submit`](Self::submit) with an explicit deadline budget
    /// (`None`: never expires). The deadline clock starts now — at
    /// admission — so queueing time counts against it.
    ///
    /// # Errors
    ///
    /// As [`submit`](Self::submit); a quarantined tenant is rejected
    /// with `reason: "tenant-quarantined"` and the cooldown remaining as
    /// its `retry_after_ms`.
    pub fn submit_with_deadline(
        &self,
        req: Request,
        deadline: Option<Duration>,
    ) -> Result<mpsc::Receiver<Completion>, ServiceError> {
        let shared = &self.shared;
        shared.stats.submitted.fetch_add(1, Ordering::Relaxed);
        let plan = Arc::new(compile(&req, &shared.ctx)?);
        let probe = match shared.breaker.admit(req.tenant) {
            Ok(probe) => probe,
            Err(retry_after_ms) => {
                return Err(ServiceError::Rejected { retry_after_ms, reason: "tenant-quarantined" })
            }
        };
        let (tx, rx) = mpsc::channel();
        let span = shared.tel.span("service.request").detach();
        let now = Instant::now();
        let ticket = Ticket {
            id: shared.next_id.fetch_add(1, Ordering::Relaxed),
            req,
            plan,
            respond: tx,
            span: Some(span),
            submitted: now,
            deadline: deadline.map(|d| now + d),
            probe,
        };
        let id = ticket.id;
        let tenant = ticket.req.tenant;
        // Admit into the ledger *before* the queue: once `offer`
        // succeeds a worker may respond instantly, and a terminal for an
        // unknown id would read as a violation. A synchronous rejection
        // retracts the provisional entry.
        if let Some(ledger) = &shared.ledger {
            ledger.admit(id);
        }
        match shared.queue.offer(tenant, ticket) {
            Ok(()) => {
                shared.inflight_total.fetch_add(1, Ordering::Relaxed);
                *shared
                    .inflight_by_tenant
                    .lock()
                    .expect("inflight map poisoned")
                    .entry(tenant)
                    .or_insert(0) += 1;
                Ok(rx)
            }
            Err(e) => {
                if let Some(ledger) = &shared.ledger {
                    ledger.retract(id);
                }
                if probe {
                    shared.breaker.release_probe(tenant);
                }
                Err(e)
            }
        }
    }

    /// Queue + admission counters.
    pub fn queue_stats(&self) -> Arc<QueueStats> {
        self.shared.queue.stats()
    }

    /// Key-cache counters.
    pub fn key_cache_stats(&self) -> Arc<KeyCacheStats> {
        Arc::clone(&self.shared.cache_stats)
    }

    /// Server counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// Worker-pool health: live workers, watchdog kicks, respawns.
    pub fn worker_health(&self) -> WorkerHealth {
        self.shared.sup.health()
    }

    /// The per-tenant breaker bank (state queries and transition stats).
    pub fn breaker(&self) -> &BreakerBank {
        &self.shared.breaker
    }

    /// Requests admitted but not yet answered.
    pub fn inflight(&self) -> u64 {
        self.shared.inflight_total.load(Ordering::Relaxed)
    }

    /// A sampler gauge source exposing live service pressure: queue
    /// depth (total and busiest tenants), in-flight counts (total and
    /// busiest tenants), worker-pool strength, and breaker states.
    pub fn gauge_source(&self) -> telemetry::sampler::GaugeSource {
        let shared = Arc::clone(&self.shared);
        Box::new(move |readings: &mut Vec<(String, u64)>| {
            readings.push(("service.queue.depth".into(), shared.queue.len() as u64));
            readings
                .push(("service.inflight".into(), shared.inflight_total.load(Ordering::Relaxed)));
            readings.push(("service.workers.alive".into(), shared.sup.health().alive as u64));
            let (open, half_open) = shared.breaker.open_counts();
            readings.push(("service.breaker.open".into(), open));
            readings.push(("service.breaker.half_open".into(), half_open));
            for (tenant, depth) in shared.queue.top_tenants(4) {
                readings.push((format!("service.queue.tenant.{tenant}"), depth as u64));
            }
            let by_tenant = shared.inflight_by_tenant.lock().expect("inflight map poisoned");
            let mut rows: Vec<(TenantId, u64)> =
                by_tenant.iter().filter(|(_, &n)| n > 0).map(|(&t, &n)| (t, n)).collect();
            drop(by_tenant);
            rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            rows.truncate(4);
            for (tenant, n) in rows {
                readings.push((format!("service.inflight.tenant.{tenant}"), n));
            }
        })
    }

    /// Per-tenant latency rows, busiest tenants first, at most `limit`.
    pub fn latency_by_tenant(&self, limit: usize) -> Vec<TenantLatencyRow> {
        let book = self.shared.latency.lock().expect("latency book poisoned");
        let mut rows: Vec<TenantLatencyRow> = book
            .per_tenant
            .iter()
            .map(|(&t, h)| (t, h.count(), h.quantile(0.5), h.quantile(0.99)))
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        rows.truncate(limit);
        rows
    }

    /// Stops admission, drains queued work, joins the workers.
    pub fn finish(mut self) -> StatsSnapshot {
        self.drain();
        self.shared.stats.snapshot()
    }

    /// Stops admission and fails still-queued requests with
    /// [`ServiceError::Shutdown`] instead of executing them; batches
    /// already on workers finish (or are confiscated if stalled). Every
    /// admitted request still gets exactly one terminal outcome.
    pub fn shutdown_now(mut self) -> StatsSnapshot {
        self.shared.closing.store(true, Ordering::SeqCst);
        self.shared.queue.close();
        // Race the workers for whatever is still queued; each ticket is
        // popped exactly once, by us or by a draining worker.
        while let Some((_, ticket)) = self.shared.queue.take(Duration::ZERO) {
            respond(&self.shared, ticket, Err(ServiceError::Shutdown), 1);
        }
        self.drain();
        self.shared.stats.snapshot()
    }

    fn drain(&mut self) {
        self.shared.closing.store(true, Ordering::SeqCst);
        self.shared.queue.close();
        // Join the watchdog first: after it exits no new workers appear,
        // so one sweep of the handle list joins the whole pool.
        if let Some(w) = self.watchdog.take() {
            let _ = w.join();
        }
        loop {
            let drained: Vec<JoinHandle<()>> = {
                let mut handles = self.shared.handles.lock().expect("handles poisoned");
                handles.drain(..).collect()
            };
            if drained.is_empty() {
                break;
            }
            for h in drained {
                let _ = h.join();
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.drain();
    }
}

fn spawn_worker(shared: &Arc<Shared>, idx: usize, generation: u64) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("svc-worker-{idx}-g{generation}"))
        .spawn(move || worker_loop(&shared, idx, generation))
        .expect("spawn worker")
}

/// How far past its deadline a request is, in ms (`None`: still live).
fn expired_by(deadline: Option<Instant>, now: Instant) -> Option<u64> {
    let d = deadline?;
    if now < d {
        return None;
    }
    Some(((now - d).as_millis().max(1)).min(u128::from(u64::MAX)) as u64)
}

/// Whether two tickets' remaining deadline budgets are close enough to
/// share a batch: both unbounded, or within 4× of each other. Packing a
/// 2 ms budget with a 10 s one would let the relaxed member's scheduling
/// slack kill the urgent one.
fn deadlines_pack_compatible(a: &Ticket, b: &Ticket) -> bool {
    match (a.deadline, b.deadline) {
        (None, None) => true,
        (Some(x), Some(y)) => {
            let now = Instant::now();
            let rx = x.saturating_duration_since(now).as_millis() as u64 + 1;
            let ry = y.saturating_duration_since(now).as_millis() as u64 + 1;
            rx <= ry.saturating_mul(4) && ry <= rx.saturating_mul(4)
        }
        _ => false,
    }
}

/// A ticket's width in the batch ciphertext's slots.
fn slots_of(t: &Ticket) -> usize {
    t.req.slots_needed().max(1)
}

/// A ticket's CKKS slot values (none for a TFHE gate).
fn ckks_slots(t: &Ticket) -> &[f64] {
    match &t.req.payload {
        Payload::CkksSlots(v) => v,
        Payload::TfheBits(_) => &[],
    }
}

fn worker_loop(shared: &Arc<Shared>, idx: usize, generation: u64) {
    shared.sup.worker_started();
    loop {
        shared.sup.heartbeat(idx);
        if shared.sup.generation(idx) != generation {
            break; // Replaced by the watchdog; a successor owns the slot.
        }
        let group = shared.queue.take_group(WORKER_POLL, MAX_BATCH, |head, cand| {
            let base = head.0 == cand.0
                && head.1.req.scheme == Scheme::Ckks
                && cand.1.req.scheme == Scheme::Ckks
                && head.1.plan.fingerprint == cand.1.plan.fingerprint;
            if base && !deadlines_pack_compatible(&head.1, &cand.1) {
                telemetry::count_named("service.pack.deadline_refusal", 1);
                return false;
            }
            base
        });
        if group.is_empty() {
            if shared.closing.load(Ordering::SeqCst) && shared.queue.is_empty() {
                break;
            }
            continue;
        }
        let tickets: Vec<Ticket> = group.into_iter().map(|(_, t)| t).collect();
        let batches = pack(tickets, slots_of, shared.ctx.n() / 2);
        if !run_batches(shared, idx, generation, batches, false) {
            break;
        }
    }
    shared.sup.worker_stopped();
}

fn watchdog_loop(shared: &Arc<Shared>) {
    let cfg = shared.supervisor_cfg;
    loop {
        // Sleep one interval in small slices so shutdown is prompt even
        // under the default 250 ms scan cadence.
        let mut slept = Duration::ZERO;
        while slept < cfg.interval {
            if shared.closing.load(Ordering::SeqCst) {
                return;
            }
            let step = cfg.interval.saturating_sub(slept).min(Duration::from_millis(10));
            std::thread::sleep(step);
            slept += step;
        }
        for idx in shared.sup.stalled(cfg.stall_timeout) {
            let Some((inflight, stalled_for_ms, new_generation)) = shared.sup.confiscate(idx)
            else {
                continue; // Finished between the scan and the lock.
            };
            shared.tel.count_named("service.watchdog.kick", 1);
            telemetry::flight::fault_dump(&format!(
                "service: watchdog confiscated worker {idx} after {stalled_for_ms} ms; \
                 failing {} member(s) with WorkerStalled",
                inflight.items.len()
            ));
            let size = inflight.batch_size;
            for (ticket, _range) in inflight.items {
                respond(shared, ticket, Err(ServiceError::WorkerStalled { stalled_for_ms }), size);
            }
            if !shared.closing.load(Ordering::SeqCst) {
                let handle = spawn_worker(shared, idx, new_generation);
                shared.handles.lock().expect("handles poisoned").push(handle);
                shared.sup.record_respawn();
                shared.tel.count_named("service.watchdog.respawn", 1);
            }
        }
    }
}

/// First injected fault riding on any member (the batch executes as one
/// ciphertext, so one member's fault is the batch's fault — which is
/// exactly what the degradation path exists to unwind).
fn batch_fault(batch: &PackedBatch<Ticket>) -> (FaultFlag, u64) {
    for m in &batch.members {
        if m.item.req.fault != FaultFlag::None {
            return (m.item.req.fault, m.item.id);
        }
    }
    (FaultFlag::None, 0)
}

fn exec_rng(shared: &Shared, tenant: TenantId, fingerprint: u64, first_id: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(
        shared
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(tenant)
            .rotate_left(17)
            .wrapping_add(fingerprint)
            .rotate_left(17)
            .wrapping_add(first_id),
    )
}

/// Runs `batches` in order through [`run_batch`]. Returns `false` once
/// the watchdog confiscated the worker's slot: every later batch is
/// answered `Shutdown` (the successor owns the slot now) and the caller
/// must exit its loop.
fn run_batches(
    shared: &Arc<Shared>,
    idx: usize,
    generation: u64,
    batches: Vec<PackedBatch<Ticket>>,
    rerun: bool,
) -> bool {
    let mut confiscated = false;
    for batch in batches {
        if confiscated {
            for m in batch.members {
                respond(shared, m.item, Err(ServiceError::Shutdown), 1);
            }
        } else {
            confiscated = !run_batch(shared, idx, generation, batch, rerun);
        }
    }
    !confiscated
}

/// Executes one batch of either scheme, from a lone request to a packed
/// group. A packed batch that fails re-runs each member as a batch of
/// its own through this same function; `rerun` marks those, which are
/// not counted as new batches and run inside the failed batch's
/// `service.batch` span. Returns `false` when the watchdog confiscated
/// the worker's slot mid-execution — the caller must exit its loop.
fn run_batch(
    shared: &Arc<Shared>,
    idx: usize,
    generation: u64,
    batch: PackedBatch<Ticket>,
    rerun: bool,
) -> bool {
    // Deadline gate: expired members fail *before* any cryptographic
    // work (that is the point — an expired request must not occupy a
    // worker). Live members keep their slot ranges.
    let now = Instant::now();
    let mut live = Vec::with_capacity(batch.members.len());
    for m in batch.members {
        match expired_by(m.item.deadline, now) {
            Some(expired_by_ms) => {
                respond(shared, m.item, Err(ServiceError::DeadlineExceeded { expired_by_ms }), 1);
            }
            None => live.push(m),
        }
    }
    if live.is_empty() {
        return true;
    }
    let batch = PackedBatch { members: live, slots_used: batch.slots_used };
    let size = batch.members.len();

    let _batch_span = if rerun {
        None
    } else {
        shared.stats.batches.fetch_add(1, Ordering::Relaxed);
        if batch.is_packed() {
            shared.stats.packed_batches.fetch_add(1, Ordering::Relaxed);
            shared.stats.packed_members.fetch_add(size as u64, Ordering::Relaxed);
            shared.tel.count_named("service.batch.packed", 1);
        }
        Some(shared.tel.span("service.batch"))
    };
    let head = &batch.members[0].item;
    let tenant = head.req.tenant;

    // The schedule-integrity gate — the plan's manifest must still match
    // its steps before anything cryptographic happens — then the
    // tenant's keys for the batch's scheme.
    let keys = shared
        .sim
        .run_checked(&head.plan.steps, &head.plan.manifest)
        .map_err(|e| ServiceError::PlanIntegrity { detail: e.to_string() })
        .and_then(|_| {
            let mut cache = shared.cache.lock().expect("key cache poisoned");
            match head.req.scheme {
                Scheme::Ckks => cache.get_ckks(tenant, &shared.ctx),
                Scheme::Tfhe => cache.get_tfhe(tenant, &shared.ctx, &TfheParams::toy()),
            }
        });
    let keys = match keys {
        Ok(keys) => keys,
        Err(e) => {
            for m in batch.members {
                respond(shared, m.item, Err(e.clone()), 1);
            }
            return true;
        }
    };
    let payload = match &head.req.payload {
        Payload::CkksSlots(_) => Payload::CkksSlots(combined_payload(&batch, ckks_slots)),
        bits @ Payload::TfheBits(_) => bits.clone(),
    };
    let (fault, fault_id) = batch_fault(&batch);
    let plan = Arc::clone(&head.plan);
    let mut rng = exec_rng(shared, tenant, plan.fingerprint, head.id);

    // Stash the members in the supervision slot: from here until `end`,
    // the watchdog can confiscate and answer them if we stall.
    let items: Vec<(Ticket, Range<usize>)> =
        batch.members.into_iter().map(|m| (m.item, m.range)).collect();
    if let Err(inflight) = shared.sup.begin(idx, generation, Inflight { items, batch_size: size }) {
        for (ticket, _range) in inflight.items {
            respond(shared, ticket, Err(ServiceError::Shutdown), 1);
        }
        return false;
    }

    let outcome = catch_unwind(AssertUnwindSafe(|| match &payload {
        Payload::CkksSlots(slots) => execute_ckks(
            &shared.ctx,
            &keys,
            &plan,
            slots,
            fault,
            fault_id,
            &mut rng,
            &shared.closing,
        ),
        Payload::TfheBits(bits) => {
            let (ck, sk) = keys.tfhe.as_ref().expect("tfhe keys present");
            execute_tfhe(ck, sk, &plan, bits, fault, &mut rng, &shared.closing)
        }
    }));

    let Some(Inflight { mut items, .. }) = shared.sup.end(idx, generation) else {
        return false; // Confiscated: the watchdog already answered them.
    };
    let result = outcome.unwrap_or_else(|payload| {
        let detail = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into());
        Err(ServiceError::WorkerPanic { detail })
    });
    match result {
        Ok(values) if size > 1 => {
            for (ticket, range) in items {
                respond(shared, ticket, Ok(values[range].to_vec()), size);
            }
            true
        }
        Err(_) if size > 1 => {
            // Degrade, don't die: the batch failed as a unit, so re-run
            // each member alone. Only the faulted member fails again; the
            // flight dump fires on that failure, not here.
            shared.stats.degraded_batches.fetch_add(1, Ordering::Relaxed);
            shared.tel.count_named("service.batch.degraded", 1);
            let members = items.into_iter().map(|(ticket, _range)| ticket).collect();
            // Capacity 0: `pack` gives every member a batch of its own.
            run_batches(shared, idx, generation, pack(members, slots_of, 0), true)
        }
        // A lone member takes the whole output, uncopied, or the error.
        result => {
            let (ticket, _range) = items.pop().expect("the stash holds the batch");
            respond(shared, ticket, result, 1);
            true
        }
    }
}

fn respond(
    shared: &Shared,
    mut ticket: Ticket,
    result: Result<Vec<f64>, ServiceError>,
    batch_size: usize,
) {
    let latency = ticket.submitted.elapsed();
    let ns = latency.as_nanos().min(u128::from(u64::MAX)) as u64;
    shared.tel.observe_ns("service.latency", ns);
    shared.latency.lock().expect("latency book poisoned").record(ticket.req.tenant, ns);
    let terminal = match &result {
        Ok(_) => {
            shared.stats.completed_ok.fetch_add(1, Ordering::Relaxed);
            shared.tel.count_named("service.request.ok", 1);
            Terminal::Completed
        }
        Err(e) => {
            shared.stats.failed.fetch_add(1, Ordering::Relaxed);
            shared.tel.count_named("service.request.err", 1);
            if e.is_contained_fault() {
                shared.stats.faults_contained.fetch_add(1, Ordering::Relaxed);
                shared.tel.count_named("service.fault.contained", 1);
                telemetry::flight::fault_dump(&format!(
                    "service: request {} (tenant {}) contained: {e}",
                    ticket.id, ticket.req.tenant
                ));
            }
            match e {
                ServiceError::DeadlineExceeded { .. } => {
                    shared.stats.deadline_expired.fetch_add(1, Ordering::Relaxed);
                    shared.tel.count_named("service.deadline.expired", 1);
                    Terminal::Expired
                }
                ServiceError::WorkerStalled { .. } => {
                    shared.stats.stalled.fetch_add(1, Ordering::Relaxed);
                    Terminal::Stalled
                }
                ServiceError::Shutdown => Terminal::Shutdown,
                _ => Terminal::Failed,
            }
        }
    };
    // Breaker: only containment-lattice faults count against the
    // tenant; expiries, shutdowns, and clean completions report as
    // non-faults (a probe needs its slot back either way).
    let fault = result.as_ref().err().map(ServiceError::is_contained_fault).unwrap_or(false);
    shared.breaker.record(ticket.req.tenant, fault, ticket.probe);
    shared.inflight_total.fetch_sub(1, Ordering::Relaxed);
    if let Some(n) =
        shared.inflight_by_tenant.lock().expect("inflight map poisoned").get_mut(&ticket.req.tenant)
    {
        *n = n.saturating_sub(1);
    }
    if let Some(ledger) = &shared.ledger {
        ledger.record(ticket.id, terminal);
    }
    // Close the request span on this worker: its duration is the
    // submit-to-completion wall time, its allocations both sides' work.
    if let Some(span) = ticket.span.take() {
        drop(span.attach());
    }
    let _ = ticket.respond.send(Completion {
        id: ticket.id,
        tenant: ticket.req.tenant,
        result,
        latency,
        batch_size,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ticket_with_deadline(deadline: Option<Duration>) -> Ticket {
        let req = Request {
            tenant: 1,
            scheme: Scheme::Ckks,
            ops: vec![crate::request::OpKind::Input],
            payload: Payload::CkksSlots(vec![0.5; 4]),
            fault: FaultFlag::None,
        };
        let ctx = CkksContext::new(CkksParams::toy().unwrap()).unwrap();
        let plan = Arc::new(compile(&req, &ctx).unwrap());
        let (tx, _rx) = mpsc::channel();
        let now = Instant::now();
        Ticket {
            id: 0,
            req,
            plan,
            respond: tx,
            span: None,
            submitted: now,
            deadline: deadline.map(|d| now + d),
            probe: false,
        }
    }

    #[test]
    fn deadline_budgets_within_4x_pack_together() {
        let a = ticket_with_deadline(Some(Duration::from_millis(100)));
        let b = ticket_with_deadline(Some(Duration::from_millis(300)));
        assert!(deadlines_pack_compatible(&a, &b), "3x apart packs");
        let c = ticket_with_deadline(Some(Duration::from_millis(10_000)));
        assert!(!deadlines_pack_compatible(&a, &c), "100x apart must not pack");
        let d = ticket_with_deadline(None);
        let e = ticket_with_deadline(None);
        assert!(deadlines_pack_compatible(&d, &e), "both unbounded packs");
        assert!(!deadlines_pack_compatible(&a, &d), "bounded never packs with unbounded");
    }

    #[test]
    fn expired_by_reports_ms_past_deadline() {
        let now = Instant::now();
        assert_eq!(expired_by(None, now), None, "no deadline never expires");
        assert_eq!(expired_by(Some(now + Duration::from_secs(5)), now), None);
        let past = expired_by(Some(now - Duration::from_millis(30)), now);
        assert!(past.unwrap_or(0) >= 30, "reports how late, got {past:?}");
    }
}
