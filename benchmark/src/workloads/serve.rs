//! `serve_hot` and `serve_cold`: the batch server under a synthetic
//! tenant trace.
//!
//! Both run the same server and templates; they differ in the one input
//! property the service layers depend on — how much work requests share.
//! `serve_hot` puts 90 % of the traffic on 64 tenants, so the key cache
//! hits and same-tenant requests pack into one ciphertext. `serve_cold`
//! draws every tenant from the million-id space, so every request misses
//! the 128-entry cache, generates keys under the cache lock, evicts, and
//! packs with nobody.
//!
//! A slice has two phases, both closed loops — callers that wait for
//! their reply. The *throughput* phase replays trace chunks through
//! `trace::replay`: as many clients as admission lets in (256), so the
//! worker is never idle and packing has a queue to pack from. The
//! *latency* phase is one client: submit, wait for the reply, submit the
//! next; its sample is the round trip the client saw.
//!
//! **The server's threads and the client share the workers' cores**: the
//! process is narrowed to as many cores as it has workers (one, on the
//! two-core host this was defined on) before the server starts. Callers
//! that wait for a reply need no core while they wait, and a core of their
//! own costs them two wake-ups of an idle virtual CPU per request — the
//! worker's, then the client's — which cost what the host's other tenants
//! let them cost. Per-request latencies of `serve_cold` in a busy hour
//! showed stretches of 50 to 600 ms, a fifth of the run, in which 70–98 %
//! of requests took 0.65 ms where the rest took 0.47 ms; on one core a
//! hand-off is a context switch, the core never idles, and the stretches
//! are gone. Ten runs of each in one busy hour: p95 (lowest half-second
//! slice) spread 17 % free and 7 % narrowed, quartile distance over
//! median, with medians of 0.69 and 0.52 ms; p50 3.6 % and 2.3 %, 0.53
//! and 0.45 ms. Throughput does not change (3700 req/s on `serve_hot`
//! either way): the worker is the bottleneck and the replaying thread's
//! share of a core is small. A client that polls for its reply instead of
//! sleeping was tried first and is worse: when the scheduler puts it on
//! the worker's core it spins through its 3 ms time slice while the
//! worker waits, one request in ten.
//!
//! The open loop — independent users, seeded-Poisson arrivals at a fixed
//! rate, latency timed from the instant each request was *due* — is
//! [`Serve::open_phase`], and the traced pass reports it, ungated; its
//! spinning generator gets the other cores back for as long as it runs. It
//! cannot carry a regression gate on the host this was defined on: a
//! spinning generator beside a busy worker keeps both vCPUs runnable, and
//! for minutes at a time the host then takes each away for 3–8 ms a
//! hundred times a second (a spin loop beside a busy sibling lost 20 % of
//! three seconds; alone, 1 %). Open-loop p50 read 0.47 ms in one run and
//! 3.0 ms in the next, same seed. One client keeps one thread runnable at
//! a time, and has no queue to grow when a stall does come.

use std::sync::mpsc::Receiver;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use service::trace::{self, Template, TraceConfig, TraceEntry};
use service::{Completion, FaultFlag, Payload, Request, Scheme, Server, ServerConfig};

use super::{Slice, Workload};
use crate::cores::Cores;
use crate::spans::Tracer;
use crate::stats;

/// Entries per generated trace; each phase walks its own cyclically.
const TRACE_LEN: u64 = 8192;
/// Requests per `trace::replay` call in the throughput phase: twice the
/// admission queue's depth, a quarter of a half-second phase.
const CHUNK: usize = 512;
/// Untimed closed-loop requests before the first slice: fills the key
/// cache (hot: the 64 hot tenants; cold: 128 tenants to evict).
const WARM_UP: usize = 1024;
/// `trace::replay`'s tolerance for toy-ring CKKS results.
const VERIFY_TOL: f64 = 5e-2;
/// A reply that takes this long counts as lost.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// Fixed open-loop rates, requests per second: about 40 % of what one
/// worker sustains closed-loop on the two-core host this was defined on,
/// where the queue is short and p95 is service time plus a little
/// waiting, not saturation.
pub fn open_rate(hot: bool) -> f64 {
    if hot {
        1200.0
    } else {
        800.0
    }
}

/// Cores the process started with, before any workload narrowed them.
pub fn host_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Workers: every core but the one the open loop's generator runs on.
pub fn worker_count() -> usize {
    host_cores().saturating_sub(1).max(1)
}

/// What one open-loop phase measured.
pub struct OpenPhase {
    pub failed: u64,
    /// Due-time latency of every answered request, ms, ascending.
    pub latencies_ms: Vec<f64>,
    /// How late the generator submitted, ms, ascending.
    pub lateness_ms: Vec<f64>,
    /// Requests in flight at the middle and at the end of sending.
    pub inflight_mid: u64,
    pub inflight_end: u64,
}

/// Server counters the per-layer metrics are ratios of.
#[derive(Clone, Copy, Default)]
pub struct Counters {
    pub answered: u64,
    pub batches: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub evictions: u64,
    pub admitted: u64,
    pub rejected: u64,
}

impl Counters {
    pub fn since(self, base: Counters) -> Counters {
        Counters {
            answered: self.answered - base.answered,
            batches: self.batches - base.batches,
            cache_hits: self.cache_hits - base.cache_hits,
            cache_misses: self.cache_misses - base.cache_misses,
            evictions: self.evictions - base.evictions,
            admitted: self.admitted - base.admitted,
            rejected: self.rejected - base.rejected,
        }
    }
}

/// Who runs where.
struct Placement {
    /// What this thread had before `setup` narrowed it; whatever runs
    /// after this workload gets it back.
    all: Cores,
    /// As many cores as workers: the server's threads and the client.
    workers: Cores,
    /// The others: the open loop's generator.
    rest: Cores,
}

pub struct Serve {
    hot: bool,
    server: Server,
    /// The throughput phase's trace and the cursor into it.
    many: (Vec<TraceEntry>, usize),
    /// The trace of the one-client phase and of the open loop.
    one: (Vec<TraceEntry>, usize),
    arrivals: ChaCha8Rng,
    /// `(requests answered, batches executed)` over the throughput phases:
    /// packing needs a queue, and only that phase has one.
    pub packed: (u64, u64),
    /// `None` where the platform cannot say which cores a thread may use.
    cores: Option<Placement>,
}

/// Whether `reply` answers `entry` correctly.
fn verified(entry: &TraceEntry, reply: &Completion) -> bool {
    let Ok(values) = &reply.result else { return false };
    let want = entry.template.expected(&entry.request.payload);
    values.len() >= want.len() && want.iter().zip(values).all(|(w, g)| (w - g).abs() <= VERIFY_TOL)
}

/// The next `n` entries of a trace walked cyclically.
fn take(trace: &mut (Vec<TraceEntry>, usize), n: usize) -> Vec<TraceEntry> {
    let (entries, at) = trace;
    let out = (0..n).map(|i| entries[(*at + i) % entries.len()].clone()).collect();
    *at = (*at + n) % entries.len();
    out
}

impl Serve {
    /// Starts the server and generates both traces from `seed`.
    pub fn setup(seed: u64, hot: bool) -> Self {
        let generate = |salt: u64| {
            trace::generate(&TraceConfig {
                requests: TRACE_LEN,
                hot_fraction: if hot { 0.9 } else { 0.0 },
                seed: seed ^ salt,
                ..TraceConfig::default()
            })
        };
        // The server's threads inherit the narrowed set; see the module
        // documentation for why they share it with the client.
        let workers = worker_count();
        let cores = Cores::allowed().map(|all| {
            let (for_workers, rest) = all.split(workers);
            for_workers.restrict();
            Placement { all, workers: for_workers, rest }
        });
        let server = Server::start(ServerConfig {
            workers,
            seed,
            // The benchmark records its own spans from outside; the
            // program's recorder stays off, as a user would run it.
            telemetry: telemetry::Telemetry::disabled(),
            ..ServerConfig::default()
        })
        .expect("toy-ring server starts");
        Serve {
            hot,
            server,
            many: (generate(0x0c10_5ed0), 0),
            one: (generate(0x0be0_0000), 0),
            arrivals: ChaCha8Rng::seed_from_u64(seed ^ 0xa771_7a15),
            packed: (0, 0),
            cores,
        }
    }

    pub fn rate(&self) -> f64 {
        open_rate(self.hot)
    }

    pub fn counters(&self) -> Counters {
        let s = self.server.stats();
        let k = self.server.key_cache_stats();
        let q = self.server.queue_stats();
        Counters {
            answered: s.completed_ok + s.failed,
            batches: s.batches,
            cache_hits: k.hits(),
            cache_misses: k.misses(),
            evictions: k.evictions(),
            admitted: q.accepted(),
            rejected: q.rejected_full() + q.rejected_share(),
        }
    }

    /// Replays chunks with every admitted client outstanding until
    /// `budget` is spent. Returns `(attempted, failed, verified requests
    /// per second)`.
    fn throughput_phase(&mut self, budget: Duration, tr: &mut Tracer) -> (u64, u64, f64) {
        let start = Instant::now();
        let before = self.counters();
        let (mut attempted, mut failed, mut ok, mut wall) = (0u64, 0u64, 0u64, 0.0f64);
        while start.elapsed() < budget {
            let chunk = take(&mut self.many, CHUNK);
            let report =
                tr.scope("service.trace.replay", attempted, || trace::replay(&self.server, &chunk));
            attempted += report.submitted;
            // `replay` retries rejections, so what can go wrong is an
            // error reply, a wrong result or a request never answered.
            failed += report.failed + report.verify_failures + report.lost;
            ok += report.completed_ok.saturating_sub(report.verify_failures);
            wall += report.wall_s;
        }
        let during = self.counters().since(before);
        self.packed = (self.packed.0 + during.answered, self.packed.1 + during.batches);
        (attempted, failed, ok as f64 / wall)
    }

    /// One client: submit, wait for the reply, submit the next, until
    /// `budget` is spent. Returns `(failed, round-trip ms per request)`.
    fn latency_phase(&mut self, budget: Duration, tr: &mut Tracer) -> (u64, Vec<f64>) {
        let start = Instant::now();
        let mut failed = 0u64;
        let mut latencies_ms = Vec::new();
        while start.elapsed() < budget {
            let entry = take(&mut self.one, 1).pop().expect("one entry");
            let id = latencies_ms.len() as u64;
            let sent = Instant::now();
            let root = tr.open("serve.request", id);
            let admitted =
                tr.scope("service.submit", id, || self.server.submit(entry.request.clone()));
            let reply = admitted.ok().and_then(|rx| rx.recv_timeout(REPLY_TIMEOUT).ok());
            tr.close(root);
            latencies_ms.push(sent.elapsed().as_secs_f64() * 1e3);
            failed += u64::from(!reply.is_some_and(|r| verified(&entry, &r)));
        }
        (failed, latencies_ms)
    }

    /// Open loop: sends Poisson arrivals at `rate` for `duration`, then
    /// collects every reply. The generator spins until each due time and
    /// never blocks on a reply while sending; a rejected request is a
    /// failure and is not retried.
    pub fn open_phase(&mut self, rate: f64, duration: Duration) -> OpenPhase {
        // The generator spins: on the workers' cores it would starve them.
        if let Some(cores) = &self.cores {
            cores.rest.restrict();
        }
        let n = (rate * duration.as_secs_f64()).round().max(1.0) as usize;
        let entries = take(&mut self.one, n);
        let mut pending: Vec<(usize, Receiver<Completion>)> = Vec::with_capacity(n);
        let mut lateness_ms = Vec::with_capacity(n);
        let (mut failed, mut inflight_mid) = (0u64, 0u64);
        let t0 = Instant::now();
        let mut offset = 0.0f64;
        for (k, entry) in entries.iter().enumerate() {
            // Exponential gap: −ln(U) / rate.
            offset += -(1.0 - self.arrivals.gen::<f64>()).ln() / rate;
            let due = t0 + Duration::from_secs_f64(offset);
            let request = entry.request.clone();
            stats::spin_until(due);
            let submit_start = Instant::now();
            let admitted = self.server.submit(request);
            lateness_ms.push(submit_start.duration_since(due).as_secs_f64() * 1e3);
            match admitted {
                Ok(rx) => pending.push((k, rx)),
                Err(_) => failed += 1,
            }
            if k == n / 2 {
                inflight_mid = self.server.inflight();
            }
        }
        let inflight_end = self.server.inflight();

        let mut latencies_ms = Vec::with_capacity(pending.len());
        for (k, rx) in pending {
            match rx.recv_timeout(REPLY_TIMEOUT) {
                Ok(reply) if verified(&entries[k], &reply) => {
                    // From the due time: how late the generator was plus
                    // the server's submit-to-reply time.
                    latencies_ms.push(lateness_ms[k] + reply.latency.as_secs_f64() * 1e3);
                }
                _ => failed += 1,
            }
        }
        stats::sort(&mut latencies_ms);
        stats::sort(&mut lateness_ms);
        if let Some(cores) = &self.cores {
            cores.workers.restrict();
        }
        OpenPhase { failed, latencies_ms, lateness_ms, inflight_mid, inflight_end }
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        if let Some(cores) = &self.cores {
            cores.all.restrict();
        }
    }
}

impl Workload for Serve {
    const SLICES: usize = 10;

    fn warm_up(&mut self) {
        let chunk = take(&mut self.many, WARM_UP);
        let report = trace::replay(&self.server, &chunk);
        assert_eq!(
            report.failed + report.verify_failures + report.lost,
            0,
            "warm-up must be clean"
        );
        if self.hot {
            // A hot tenant's TFHE keys are generated on its first TFHE
            // request: 2.9 ms under the cache lock, once per tenant for
            // the life of the server. A thousand trace requests reach a
            // third of the hot set; the stragglers would pay in the timed
            // region, a few dozen 4 ms events whose count differs from
            // seed to seed. Finish them here.
            let replies: Vec<_> = (0..TraceConfig::default().hot_tenants)
                .map(|tenant| {
                    let request = Request {
                        tenant,
                        scheme: Scheme::Tfhe,
                        ops: Template::TfheNand.ops(),
                        payload: Payload::TfheBits(vec![true, false]),
                        fault: FaultFlag::None,
                    };
                    self.server.submit(request).expect("an idle server admits the hot set")
                })
                .collect();
            for reply in replies {
                let done = reply.recv_timeout(REPLY_TIMEOUT).expect("warm-up request answered");
                assert!(done.result.is_ok(), "warm-up must be clean");
            }
        }
    }

    fn slice(&mut self, budget: Duration, tr: &mut Tracer) -> Slice {
        let (many_attempted, many_failed, throughput_per_s) = self.throughput_phase(budget / 2, tr);
        let (one_failed, latencies_ms) = self.latency_phase(budget / 2, tr);
        Slice {
            attempted: many_attempted + latencies_ms.len() as u64,
            failed: many_failed + one_failed,
            throughput_per_s,
            latencies_ms,
        }
    }
}
