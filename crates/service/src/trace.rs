//! Synthetic million-tenant trace: generation, closed-loop replay,
//! and the measured report `serve_trace` prints and `benchmark/`'s
//! `serve_*` workloads consume.
//!
//! The trace models the workload the service is built for: a huge
//! tenant id space (one million) with a hot set — a few dozen
//! tenants producing 90 % of the traffic — issuing small requests drawn
//! from a fixed template set. The skew is what makes the tentpole
//! mechanisms earn their keep: hot tenants repeat `(tenant, program)`
//! pairs, so the slot packer coalesces their requests and the key cache
//! absorbs their key generations, while the cold tail exercises misses
//! and eviction.
//!
//! The driver is closed-loop: when admission rejects, it drains one
//! outstanding completion (honoring the backpressure contract) and
//! retries, so every generated request eventually lands — rejections
//! show up as retry counts, not lost work.

use std::collections::VecDeque;
use std::sync::mpsc::Receiver;
use std::time::Instant;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::error::ServiceError;
use crate::request::{FaultFlag, OpKind, Payload, Request, Scheme, TenantId};
use crate::server::{Completion, Server, TenantLatencyRow};

/// Tenant id space: ids are drawn from `[0, TENANT_SPACE)`.
const TENANT_SPACE: u64 = 1_000_000;
/// Slots per CKKS request.
const SLOTS_PER_REQUEST: usize = 8;
/// Fraction of TFHE requests (the rest are CKKS).
const TFHE_FRACTION: f64 = 0.02;

/// Trace shape.
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Requests to generate.
    pub requests: u64,
    /// Size of the hot set (ids `[0, hot_tenants)`).
    pub hot_tenants: u64,
    /// Fraction of traffic from the hot set.
    pub hot_fraction: f64,
    /// Inject one fault every N requests (0 = none), cycling through
    /// the lattice's classes.
    pub fault_every: u64,
    /// Generator seed.
    pub seed: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            requests: 512,
            hot_tenants: 64,
            hot_fraction: 0.9,
            fault_every: 0,
            seed: 0x7e1e_ca57,
        }
    }
}

/// The five CKKS templates plus the TFHE gate template. All are
/// statically legal at toy parameters (`L = 3`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Template {
    /// `-(2x + 1)` — constant ops only, 0 levels.
    Saxpb,
    /// `x² + 3` — 1 level.
    Quad,
    /// `((x + 1) + (−x)) · 0.5 = 0.5` — fan-out and re-join, 0 levels.
    Cross,
    /// `(x + 1)(x + 2) − 2 = x² + 3x` — ct×ct multiply, 1 level.
    Prod,
    /// `x⁴ + 1` — 2 levels.
    Quartic,
    /// `NAND(a, b)` over TFHE bits.
    TfheNand,
}

impl Template {
    /// Every template, in fingerprint-diversity order.
    pub const ALL: [Template; 6] = [
        Template::Saxpb,
        Template::Quad,
        Template::Cross,
        Template::Prod,
        Template::Quartic,
        Template::TfheNand,
    ];

    /// The template's op graph.
    pub fn ops(self) -> Vec<OpKind> {
        match self {
            Template::Saxpb => vec![
                OpKind::Input,
                OpKind::MulConst { arg: 0, c: 2.0 },
                OpKind::AddConst { arg: 1, c: 1.0 },
                OpKind::Negate { arg: 2 },
            ],
            Template::Quad => {
                vec![OpKind::Input, OpKind::Square { arg: 0 }, OpKind::AddConst { arg: 1, c: 3.0 }]
            }
            Template::Cross => vec![
                OpKind::Input,
                OpKind::AddConst { arg: 0, c: 1.0 },
                OpKind::Negate { arg: 0 },
                OpKind::Add { a: 1, b: 2 },
                OpKind::MulConst { arg: 3, c: 0.5 },
            ],
            Template::Prod => vec![
                OpKind::Input,
                OpKind::AddConst { arg: 0, c: 1.0 },
                OpKind::AddConst { arg: 0, c: 2.0 },
                OpKind::Mul { a: 1, b: 2 },
                OpKind::AddConst { arg: 3, c: -2.0 },
            ],
            Template::Quartic => vec![
                OpKind::Input,
                OpKind::Square { arg: 0 },
                OpKind::Square { arg: 1 },
                OpKind::AddConst { arg: 2, c: 1.0 },
            ],
            Template::TfheNand => vec![
                OpKind::Input,
                OpKind::Input,
                OpKind::Mul { a: 0, b: 1 },
                OpKind::Negate { arg: 2 },
            ],
        }
    }

    /// The cleartext function the template computes, for verification.
    pub fn expected(self, payload: &Payload) -> Vec<f64> {
        match (self, payload) {
            (Template::Saxpb, Payload::CkksSlots(v)) => {
                v.iter().map(|x| -(2.0 * x + 1.0)).collect()
            }
            (Template::Quad, Payload::CkksSlots(v)) => v.iter().map(|x| x * x + 3.0).collect(),
            (Template::Cross, Payload::CkksSlots(v)) => v.iter().map(|_| 0.5).collect(),
            (Template::Prod, Payload::CkksSlots(v)) => v.iter().map(|x| x * x + 3.0 * x).collect(),
            (Template::Quartic, Payload::CkksSlots(v)) => {
                v.iter().map(|x| x * x * x * x + 1.0).collect()
            }
            (Template::TfheNand, Payload::TfheBits(b)) => {
                vec![if b[0] && b[1] { 0.0 } else { 1.0 }]
            }
            _ => Vec::new(),
        }
    }

    /// Whether the scheme is TFHE.
    pub fn is_tfhe(self) -> bool {
        self == Template::TfheNand
    }
}

/// One generated trace entry.
#[derive(Debug, Clone)]
pub struct TraceEntry {
    /// The request to submit.
    pub request: Request,
    /// Which template generated it (for verification).
    pub template: Template,
}

/// Generates the full trace deterministically from the config.
pub fn generate(cfg: &TraceConfig) -> Vec<TraceEntry> {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let ckks_templates =
        [Template::Saxpb, Template::Quad, Template::Cross, Template::Prod, Template::Quartic];
    (0..cfg.requests)
        .map(|i| {
            let tenant: TenantId = if rng.gen::<f64>() < cfg.hot_fraction {
                rng.gen_range(0..cfg.hot_tenants.max(1))
            } else {
                rng.gen_range(cfg.hot_tenants..TENANT_SPACE.max(cfg.hot_tenants + 1))
            };
            let template = if rng.gen::<f64>() < TFHE_FRACTION {
                Template::TfheNand
            } else {
                ckks_templates[rng.gen_range(0..ckks_templates.len())]
            };
            let mut fault = FaultFlag::None;
            if cfg.fault_every > 0 && (i + 1) % cfg.fault_every == 0 {
                fault = if template.is_tfhe() {
                    FaultFlag::WorkerPanic
                } else {
                    match (i / cfg.fault_every) % 3 {
                        0 => FaultFlag::WorkerPanic,
                        1 => FaultFlag::BitFlip,
                        _ => FaultFlag::BudgetBurn,
                    }
                };
            }
            let payload = if template.is_tfhe() {
                Payload::TfheBits(vec![rng.gen::<f64>() < 0.5, rng.gen::<f64>() < 0.5])
            } else {
                Payload::CkksSlots((0..SLOTS_PER_REQUEST).map(|_| rng.gen::<f64>() * 0.5).collect())
            };
            let scheme = if template.is_tfhe() { Scheme::Tfhe } else { Scheme::Ckks };
            TraceEntry {
                request: Request { tenant, scheme, ops: template.ops(), payload, fault },
                template,
            }
        })
        .collect()
}

/// What the replay measured.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// Requests generated and submitted.
    pub submitted: u64,
    /// Completed with `Ok`.
    pub completed_ok: u64,
    /// Completed with a structured error.
    pub failed: u64,
    /// Failures classified as contained faults by the server.
    pub faults_contained: u64,
    /// Admission rejections encountered (each was retried).
    pub rejections: u64,
    /// Results checked against the template's cleartext function.
    pub verified: u64,
    /// Checks that disagreed beyond tolerance.
    pub verify_failures: u64,
    /// Requests admitted but still unanswered when the report was taken.
    /// The replay drains every outstanding completion first, so anything
    /// non-zero is a lost request — the invariant the chaos campaign
    /// hammers on.
    pub lost: u64,
    /// Replay wall-clock seconds.
    pub wall_s: f64,
    /// Completed requests per second.
    pub req_per_s: f64,
    /// Median submit-to-completion latency, ms.
    pub p50_ms: f64,
    /// 99th-percentile latency, ms.
    pub p99_ms: f64,
    /// Key-cache hit rate over the replay.
    pub keycache_hit_rate: f64,
    /// Key-cache misses (each paid a keygen).
    pub keycache_misses: u64,
    /// Batches executed.
    pub batches: u64,
    /// Members per batch, averaged (1.0 = no packing benefit).
    pub pack_ratio: f64,
    /// Packed batches whose members a failure sent back one at a time.
    pub degraded_batches: u64,
    /// Busiest tenants: `(tenant, completions, p50 ns, p99 ns)`.
    pub top_tenants: Vec<TenantLatencyRow>,
}

/// Verification tolerance: toy-ring CKKS noise after ≤ 2 rescales stays
/// well under this.
const VERIFY_TOL: f64 = 5e-2;

/// Replays `entries` against a running server, closed-loop.
pub fn replay(server: &Server, entries: &[TraceEntry]) -> TraceReport {
    let mut outstanding: VecDeque<(usize, Receiver<Completion>)> = VecDeque::new();
    let mut latencies_ns: Vec<u64> = Vec::with_capacity(entries.len());
    let mut completed_ok = 0u64;
    let mut failed = 0u64;
    let mut rejections = 0u64;
    let mut verified = 0u64;
    let mut verify_failures = 0u64;

    let collect = |idx: usize,
                   rx: &Receiver<Completion>,
                   latencies_ns: &mut Vec<u64>,
                   completed_ok: &mut u64,
                   failed: &mut u64,
                   verified: &mut u64,
                   verify_failures: &mut u64| {
        let Ok(c) = rx.recv() else {
            *failed += 1;
            return;
        };
        latencies_ns.push(c.latency.as_nanos().min(u128::from(u64::MAX)) as u64);
        match c.result {
            Ok(values) => {
                *completed_ok += 1;
                let entry = &entries[idx];
                if entry.request.fault == FaultFlag::None {
                    let want = entry.template.expected(&entry.request.payload);
                    let n = want.len().min(values.len());
                    *verified += 1;
                    if want[..n].iter().zip(&values[..n]).any(|(w, g)| (w - g).abs() > VERIFY_TOL) {
                        *verify_failures += 1;
                    }
                }
            }
            Err(_) => *failed += 1,
        }
    };

    let start = Instant::now();
    for (idx, entry) in entries.iter().enumerate() {
        loop {
            match server.submit(entry.request.clone()) {
                Ok(rx) => {
                    outstanding.push_back((idx, rx));
                    break;
                }
                Err(ServiceError::Rejected { .. }) => {
                    rejections += 1;
                    // Closed-loop backpressure: free a slot by reaping
                    // the oldest outstanding completion, then retry.
                    if let Some((i, rx)) = outstanding.pop_front() {
                        collect(
                            i,
                            &rx,
                            &mut latencies_ns,
                            &mut completed_ok,
                            &mut failed,
                            &mut verified,
                            &mut verify_failures,
                        );
                    } else {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                }
                Err(_) => {
                    failed += 1;
                    break;
                }
            }
        }
    }
    for (i, rx) in outstanding {
        collect(
            i,
            &rx,
            &mut latencies_ns,
            &mut completed_ok,
            &mut failed,
            &mut verified,
            &mut verify_failures,
        );
    }
    let wall_s = start.elapsed().as_secs_f64().max(1e-9);

    latencies_ns.sort_unstable();
    let quantile = |q: f64| -> f64 {
        if latencies_ns.is_empty() {
            return 0.0;
        }
        let i = ((latencies_ns.len() - 1) as f64 * q).round() as usize;
        latencies_ns[i] as f64 / 1e6
    };
    let stats = server.stats();
    let cache = server.key_cache_stats();
    TraceReport {
        submitted: entries.len() as u64,
        completed_ok,
        failed,
        faults_contained: stats.faults_contained,
        rejections,
        verified,
        verify_failures,
        lost: server.inflight(),
        wall_s,
        req_per_s: completed_ok as f64 / wall_s,
        p50_ms: quantile(0.5),
        p99_ms: quantile(0.99),
        keycache_hit_rate: cache.hit_rate(),
        keycache_misses: cache.misses(),
        batches: stats.batches,
        pack_ratio: if stats.batches == 0 {
            1.0
        } else {
            (stats.completed_ok + stats.failed) as f64 / stats.batches as f64
        },
        degraded_batches: stats.degraded_batches,
        top_tenants: server.latency_by_tenant(8),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_skewed() {
        let cfg = TraceConfig { requests: 400, ..TraceConfig::default() };
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.len(), 400);
        assert!(a.iter().zip(&b).all(|(x, y)| x.request == y.request));
        let hot = a.iter().filter(|e| e.request.tenant < cfg.hot_tenants).count();
        assert!(
            (hot as f64) > 0.8 * a.len() as f64,
            "hot set should carry ~90% of traffic, got {hot}/400"
        );
    }

    #[test]
    fn fault_cadence_marks_every_nth() {
        let cfg = TraceConfig { requests: 60, fault_every: 20, ..TraceConfig::default() };
        let t = generate(&cfg);
        let faulted: Vec<usize> = t
            .iter()
            .enumerate()
            .filter(|(_, e)| e.request.fault != FaultFlag::None)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(faulted, vec![19, 39, 59]);
    }

    #[test]
    fn templates_compile_everywhere() {
        let ctx = fhe_ckks::CkksContext::new(fhe_ckks::CkksParams::toy().unwrap()).unwrap();
        for t in Template::ALL {
            let payload = if t.is_tfhe() {
                Payload::TfheBits(vec![true, false])
            } else {
                Payload::CkksSlots(vec![0.1; 4])
            };
            let scheme = if t.is_tfhe() { Scheme::Tfhe } else { Scheme::Ckks };
            let req = Request { tenant: 0, scheme, ops: t.ops(), payload, fault: FaultFlag::None };
            crate::plan::compile(&req, &ctx).unwrap_or_else(|e| panic!("{t:?}: {e}"));
        }
    }
}
