//! Service-level chaos campaign: seeded fault classes against a live
//! [`Server`], checked by the no-lost-request ledger.
//!
//! Where `serve_trace` measures the happy path and the kernel-level
//! `faultsim` campaigns attack ciphertext integrity, this binary
//! attacks the *service's liveness*: workers that hang mid-batch,
//! clients that vanish, tenants that poison every batch they touch, and
//! deadline storms. Each class runs against a fresh server wired to an
//! [`OutcomeLedger`], and the campaign asserts, per class:
//!
//! * **No lost request** — every admitted request reached exactly one
//!   terminal outcome (completed / failed / expired / stalled /
//!   shutdown); no doubles, no terminals for unknown ids.
//! * **Pool strength restored** — after every stall and respawn the
//!   worker pool is back to full strength.
//! * **Quarantine lifecycle** — poisoned tenants' breakers open, reject
//!   with `tenant-quarantined`, half-open after the cooldown, and close
//!   on clean probes.
//! * **Class expectations** — stalled requests fail `WorkerStalled`
//!   while clean companions complete; zero-budget deadlines expire;
//!   response drops change nothing about the server's bookkeeping.
//!
//! ```text
//! cargo run --release -p service --bin chaos_campaign
//! ```
//!
//! Flags:
//!
//! * `--cases N` — seeded cases per class (default 200; 50 under
//!   `--smoke`).
//! * `--classes a,b` — run only these classes (names as in the report:
//!   `worker_stall`, `response_drop`, `poison_tenant`,
//!   `deadline_storm`).
//! * `--seed N` — campaign seed (decimal or `0x…` hex).
//! * `--workers N` — worker threads per server (default 4).
//! * `--out PATH` — also write the report as JSON to PATH.
//! * `--json` — emit the report as JSON on stdout instead of tables.
//!
//! Exit status: `0` when every invariant held, `1` on any violation or
//! lost request, `2` on usage errors.

use std::collections::BTreeMap;
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::{BenchArgs, Reporter};
use faultsim::chaos::{ChaosClass, LedgerSummary, OutcomeLedger, ALL_CHAOS_CLASSES, ALL_TERMINALS};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use service::trace::Template;
use service::{
    AdmissionConfig, BreakerConfig, BreakerState, Completion, FaultFlag, Payload, Request, Scheme,
    Server, ServerConfig, ServiceError, SupervisorConfig, TenantId,
};
use telemetry::json::Json;

/// Watchdog cadence for the campaign: tight enough that a stalled batch
/// is confiscated within tens of milliseconds, so hundreds of cases fit
/// in a CI smoke budget.
const WATCHDOG_INTERVAL: Duration = Duration::from_millis(10);
const STALL_TIMEOUT: Duration = Duration::from_millis(40);
/// Injected stall length: comfortably past the stall timeout, short
/// enough that the displaced worker thread retires quickly.
const STALL_MS: u64 = 120;
/// Breaker policy under test: three contained faults quarantine a
/// tenant for 120 ms, then two clean probes close it.
const BREAKER_THRESHOLD: u32 = 3;
const BREAKER_COOLDOWN: Duration = Duration::from_millis(120);
const BREAKER_PROBES: u32 = 2;
/// How long to wait for an expected completion before declaring the
/// request wedged (the watchdog resolves a stall in ~50 ms; 10 s means
/// something is truly stuck).
const RECV_BUDGET: Duration = Duration::from_secs(10);

struct ClassReport {
    class: ChaosClass,
    cases: u64,
    summary: LedgerSummary,
    /// Expectation failures (wrong terminal, missed quarantine, ...).
    expectation_failures: u64,
    /// Human-readable samples of the first few failures.
    failure_samples: Vec<String>,
    kicks: u64,
    respawns: u64,
    breaker_opens: u64,
    breaker_half_opens: u64,
    breaker_closes: u64,
    deadline_expired: u64,
    pool_restored: bool,
    wall_s: f64,
}

impl ClassReport {
    fn violations(&self) -> u64 {
        self.summary.lost()
            + self.summary.double_terminals
            + self.summary.unknown_terminals
            + self.expectation_failures
            + u64::from(!self.pool_restored)
    }
}

struct Failures {
    count: u64,
    samples: Vec<String>,
}

impl Failures {
    fn new() -> Self {
        Failures { count: 0, samples: Vec::new() }
    }

    fn record(&mut self, detail: String) {
        self.count += 1;
        if self.samples.len() < 5 {
            self.samples.push(detail);
        }
    }
}

fn campaign_server(workers: usize, seed: u64, ledger: &Arc<OutcomeLedger>) -> Server {
    Server::start(ServerConfig {
        workers,
        admission: AdmissionConfig { capacity: 512, ..AdmissionConfig::default() },
        seed,
        supervisor: SupervisorConfig { interval: WATCHDOG_INTERVAL, stall_timeout: STALL_TIMEOUT },
        breaker: BreakerConfig {
            window: 16,
            threshold: BREAKER_THRESHOLD,
            cooldown: BREAKER_COOLDOWN,
            half_open_probes: BREAKER_PROBES,
        },
        ledger: Some(Arc::clone(ledger)),
        ..ServerConfig::default()
    })
    .unwrap_or_else(|e| {
        eprintln!("server failed to start: {e}");
        std::process::exit(1);
    })
}

/// A small clean CKKS request for `tenant`.
fn clean_request(tenant: TenantId, rng: &mut ChaCha8Rng) -> Request {
    let template = [Template::Saxpb, Template::Quad, Template::Cross][rng.gen_range(0..3usize)];
    Request {
        tenant,
        scheme: Scheme::Ckks,
        ops: template.ops(),
        payload: Payload::CkksSlots((0..4).map(|_| rng.gen::<f64>() * 0.5).collect()),
        fault: FaultFlag::None,
    }
}

/// A request carrying a contained-fault flag (panic or budget burn —
/// the two classes whose detection does not depend on the runtime
/// checksum switch).
fn poison_request(tenant: TenantId, rng: &mut ChaCha8Rng) -> Request {
    let fault = if rng.gen::<bool>() { FaultFlag::WorkerPanic } else { FaultFlag::BudgetBurn };
    Request { fault, ..clean_request(tenant, rng) }
}

fn recv_completion(
    rx: &Receiver<Completion>,
    what: &str,
    failures: &mut Failures,
) -> Option<Completion> {
    match rx.recv_timeout(RECV_BUDGET) {
        Ok(c) => Some(c),
        Err(RecvTimeoutError::Timeout) => {
            failures.record(format!("{what}: no completion within {RECV_BUDGET:?}"));
            None
        }
        Err(RecvTimeoutError::Disconnected) => {
            failures.record(format!("{what}: completion channel dropped without an answer"));
            None
        }
    }
}

/// Polls `cond` every 2 ms until it holds or `budget` elapses.
fn wait_until(budget: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + budget;
    loop {
        if cond() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// One worker-stall case: a uniquely-tenanted stalling request plus
/// clean companions on other tenants. The stall must be confiscated and
/// fail `WorkerStalled`; every companion must complete.
fn run_worker_stall(server: &Server, cases: u64, seed: u64, failures: &mut Failures) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ ChaosClass::WorkerStall.tag());
    // Waves sized to the pool: one stall per worker at a time keeps the
    // watchdog busy without starving the companions for seconds.
    let wave = 4u64;
    let mut case = 0u64;
    while case < cases {
        let mut stalls = Vec::new();
        let mut cleans = Vec::new();
        for _ in 0..wave.min(cases - case) {
            let stall_tenant: TenantId = 1_000 + case;
            let clean_tenant: TenantId = 500_000 + case;
            let req = Request {
                fault: FaultFlag::WorkerStall { ms: STALL_MS },
                ..clean_request(stall_tenant, &mut rng)
            };
            match server.submit(req) {
                Ok(rx) => stalls.push((case, rx)),
                Err(e) => failures.record(format!("stall case {case}: submit rejected: {e}")),
            }
            for c in 0..2u64 {
                match server.submit(clean_request(clean_tenant + 250_000 * c, &mut rng)) {
                    Ok(rx) => cleans.push((case, rx)),
                    Err(e) => {
                        failures.record(format!("stall case {case}: companion rejected: {e}"))
                    }
                }
            }
            case += 1;
        }
        for (c, rx) in stalls {
            if let Some(done) = recv_completion(&rx, &format!("stall case {c}"), failures) {
                match done.result {
                    Err(ServiceError::WorkerStalled { stalled_for_ms }) => {
                        if stalled_for_ms < STALL_TIMEOUT.as_millis() as u64 {
                            failures.record(format!(
                                "stall case {c}: confiscated after only {stalled_for_ms} ms"
                            ));
                        }
                    }
                    other => failures
                        .record(format!("stall case {c}: expected WorkerStalled, got {other:?}")),
                }
            }
        }
        for (c, rx) in cleans {
            if let Some(done) = recv_completion(&rx, &format!("companion of case {c}"), failures) {
                if let Err(e) = done.result {
                    failures.record(format!("companion of case {c} failed alongside a stall: {e}"));
                }
            }
        }
    }
}

/// One response-drop case: submit, then drop the receiver immediately.
/// The server must still drive every request to a terminal outcome —
/// the ledger check at the end is the whole assertion.
fn run_response_drop(server: &Server, cases: u64, seed: u64, failures: &mut Failures) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ ChaosClass::ResponseDrop.tag());
    for case in 0..cases {
        let tenant: TenantId = 10_000 + (case % 64);
        let req = match rng.gen_range(0..3u32) {
            0 => poison_request(tenant, &mut rng),
            _ => clean_request(tenant, &mut rng),
        };
        match server.submit(req) {
            Ok(rx) => drop(rx),
            // Backpressure (or a quarantine earned by dropped poison) is
            // a legitimate synchronous outcome, not a violation; the
            // ledger retracted the entry.
            Err(ServiceError::Rejected { .. }) => {}
            Err(e) => failures.record(format!("drop case {case}: submit failed: {e}")),
        }
        // Brief pacing every few submissions so the bounded queue drains.
        if case % 32 == 31 {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    if !wait_until(RECV_BUDGET, || server.inflight() == 0) {
        failures.record(format!(
            "response_drop: {} request(s) still unanswered after {RECV_BUDGET:?}",
            server.inflight()
        ));
    }
}

/// One poison-tenant case: a tenant earns quarantine with
/// `BREAKER_THRESHOLD` contained faults, is rejected while open, then
/// recovers through clean probes after the cooldown. Cases run in waves
/// of tenants so the cooldown is paid once per wave, not once per case.
fn run_poison_tenant(server: &Server, cases: u64, seed: u64, failures: &mut Failures) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ ChaosClass::PoisonTenant.tag());
    let wave = 64u64;
    let mut case = 0u64;
    while case < cases {
        let tenants: Vec<TenantId> = (case..(case + wave).min(cases)).map(|c| 20_000 + c).collect();
        case += tenants.len() as u64;

        // Phase 1: every tenant in the wave earns its quarantine.
        let mut pending = Vec::new();
        for &tenant in &tenants {
            for _ in 0..BREAKER_THRESHOLD {
                match server.submit(poison_request(tenant, &mut rng)) {
                    Ok(rx) => pending.push((tenant, rx)),
                    Err(e) => {
                        failures.record(format!("poison tenant {tenant}: submit failed: {e}"))
                    }
                }
            }
        }
        for (tenant, rx) in pending {
            if let Some(done) =
                recv_completion(&rx, &format!("poison for tenant {tenant}"), failures)
            {
                if done.result.is_ok() {
                    failures.record(format!(
                        "poison for tenant {tenant} completed Ok — fault not injected?"
                    ));
                }
            }
        }

        // Phase 2: each breaker is open; admission must refuse with the
        // quarantine reason and a retry hint.
        for &tenant in &tenants {
            if server.breaker().state(tenant) != BreakerState::Open {
                failures.record(format!(
                    "tenant {tenant}: breaker {:?} after {BREAKER_THRESHOLD} faults",
                    server.breaker().state(tenant)
                ));
                continue;
            }
            match server.submit(clean_request(tenant, &mut rng)) {
                Err(ServiceError::Rejected { retry_after_ms, reason }) => {
                    if reason != "tenant-quarantined" || retry_after_ms == 0 {
                        failures.record(format!(
                            "tenant {tenant}: rejected with reason {reason:?}, \
                             retry_after_ms {retry_after_ms}"
                        ));
                    }
                }
                other => failures.record(format!(
                    "tenant {tenant}: quarantined submit returned {:?}",
                    other.map(|_| "Ok(rx)")
                )),
            }
        }

        // Phase 3: after the cooldown, clean probes close every breaker.
        std::thread::sleep(BREAKER_COOLDOWN + Duration::from_millis(30));
        let mut probes = Vec::new();
        for &tenant in &tenants {
            for _ in 0..BREAKER_PROBES {
                match server.submit(clean_request(tenant, &mut rng)) {
                    Ok(rx) => probes.push((tenant, rx)),
                    Err(e) => failures.record(format!("tenant {tenant}: probe rejected: {e}")),
                }
            }
        }
        for (tenant, rx) in probes {
            if let Some(done) =
                recv_completion(&rx, &format!("probe for tenant {tenant}"), failures)
            {
                if let Err(e) = done.result {
                    failures.record(format!("probe for tenant {tenant} failed: {e}"));
                }
            }
        }
        for &tenant in &tenants {
            if server.breaker().state(tenant) != BreakerState::Closed {
                failures.record(format!(
                    "tenant {tenant}: breaker {:?} after clean probes",
                    server.breaker().state(tenant)
                ));
            }
        }
    }
}

/// One deadline-storm case: a burst of requests whose deadline budgets
/// range from already-expired to effectively unbounded. Every one must
/// reach `Completed` or `DeadlineExceeded`; the zero-budget ones must
/// expire.
fn run_deadline_storm(server: &Server, cases: u64, seed: u64, failures: &mut Failures) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ ChaosClass::DeadlineStorm.tag());
    const BUDGETS_MS: [u64; 4] = [0, 2, 15, 10_000];
    for case in 0..cases {
        let mut burst = Vec::new();
        for i in 0..6u64 {
            let tenant: TenantId = 30_000 + ((case * 7 + i) % 96);
            let budget_ms = BUDGETS_MS[rng.gen_range(0..BUDGETS_MS.len())];
            let deadline = Duration::from_millis(budget_ms);
            match server.submit_with_deadline(clean_request(tenant, &mut rng), Some(deadline)) {
                Ok(rx) => burst.push((budget_ms, rx)),
                Err(ServiceError::Rejected { .. }) => {} // backpressure, retracted
                Err(e) => failures.record(format!("storm case {case}: submit failed: {e}")),
            }
        }
        for (budget_ms, rx) in burst {
            let Some(done) =
                recv_completion(&rx, &format!("storm case {case} ({budget_ms} ms)"), failures)
            else {
                continue;
            };
            match done.result {
                Ok(_) => {
                    if budget_ms == 0 {
                        failures.record(format!(
                            "storm case {case}: zero-budget request completed instead of expiring"
                        ));
                    }
                }
                Err(ServiceError::DeadlineExceeded { .. }) => {}
                Err(e) => failures.record(format!("storm case {case}: unexpected failure: {e}")),
            }
        }
    }
}

fn run_class(class: ChaosClass, cases: u64, seed: u64, workers: usize) -> ClassReport {
    let ledger = Arc::new(OutcomeLedger::new());
    let server = campaign_server(workers, seed ^ class.tag(), &ledger);
    let mut failures = Failures::new();
    let start = Instant::now();
    match class {
        ChaosClass::WorkerStall => run_worker_stall(&server, cases, seed, &mut failures),
        ChaosClass::ResponseDrop => run_response_drop(&server, cases, seed, &mut failures),
        ChaosClass::PoisonTenant => run_poison_tenant(&server, cases, seed, &mut failures),
        ChaosClass::DeadlineStorm => run_deadline_storm(&server, cases, seed, &mut failures),
    }
    // Quiescence: every admitted request answered, pool back to full
    // strength (the last displaced worker may still be retiring).
    if !wait_until(RECV_BUDGET, || ledger.open_count() == 0) {
        failures.record(format!(
            "{class}: {} request(s) never reached a terminal outcome",
            ledger.open_count()
        ));
    }
    let pool_restored =
        wait_until(Duration::from_secs(5), || server.worker_health().alive == workers);
    let health = server.worker_health();
    let breaker_stats = server.breaker().stats();
    let (opens, half_opens, closes) =
        (breaker_stats.opens(), breaker_stats.half_opens(), breaker_stats.closes());
    let stats = server.finish();
    ClassReport {
        class,
        cases,
        summary: ledger.summary(),
        expectation_failures: failures.count,
        failure_samples: failures.samples,
        kicks: health.kicks,
        respawns: health.respawns,
        breaker_opens: opens,
        breaker_half_opens: half_opens,
        breaker_closes: closes,
        deadline_expired: stats.deadline_expired,
        pool_restored,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

/// Class-level expectations beyond the ledger: the mechanism under test
/// must actually have fired.
fn mechanism_failures(r: &ClassReport) -> Vec<String> {
    let mut out = Vec::new();
    match r.class {
        ChaosClass::WorkerStall => {
            if r.kicks < r.cases {
                out.push(format!("only {} watchdog kicks for {} stalls", r.kicks, r.cases));
            }
            if r.respawns < r.cases {
                out.push(format!("only {} respawns for {} stalls", r.respawns, r.cases));
            }
        }
        ChaosClass::PoisonTenant => {
            if r.breaker_opens < r.cases {
                out.push(format!("only {} breaker opens for {} cases", r.breaker_opens, r.cases));
            }
            if r.breaker_half_opens < r.cases {
                out.push(format!("only {} half-opens for {} cases", r.breaker_half_opens, r.cases));
            }
            if r.breaker_closes < r.cases {
                out.push(format!("only {} closes for {} cases", r.breaker_closes, r.cases));
            }
        }
        ChaosClass::DeadlineStorm => {
            if r.deadline_expired == 0 {
                out.push("no request expired in a deadline storm".to_string());
            }
        }
        ChaosClass::ResponseDrop => {}
    }
    out
}

fn to_json(reports: &[ClassReport], seed: u64, workers: usize) -> Json {
    let mut doc = BTreeMap::new();
    doc.insert("schema_version".to_string(), Json::Num(1.0));
    doc.insert("git_commit".to_string(), Json::Str(bench::git_commit()));
    doc.insert("seed".to_string(), Json::Num(seed as f64));
    doc.insert("workers".to_string(), Json::Num(workers as f64));
    doc.insert(
        "classes".to_string(),
        Json::Arr(
            reports
                .iter()
                .map(|r| {
                    let mut o = BTreeMap::new();
                    o.insert("class".to_string(), Json::Str(r.class.name().to_string()));
                    o.insert("cases".to_string(), Json::Num(r.cases as f64));
                    o.insert("admitted".to_string(), Json::Num(r.summary.admitted as f64));
                    let mut terms = BTreeMap::new();
                    for (i, t) in ALL_TERMINALS.iter().enumerate() {
                        terms
                            .insert(t.name().to_string(), Json::Num(r.summary.terminals[i] as f64));
                    }
                    o.insert("terminals".to_string(), Json::Obj(terms));
                    o.insert("lost".to_string(), Json::Num(r.summary.lost() as f64));
                    o.insert(
                        "double_terminals".to_string(),
                        Json::Num(r.summary.double_terminals as f64),
                    );
                    o.insert(
                        "unknown_terminals".to_string(),
                        Json::Num(r.summary.unknown_terminals as f64),
                    );
                    o.insert(
                        "expectation_failures".to_string(),
                        Json::Num(r.expectation_failures as f64),
                    );
                    o.insert("kicks".to_string(), Json::Num(r.kicks as f64));
                    o.insert("respawns".to_string(), Json::Num(r.respawns as f64));
                    o.insert("breaker_opens".to_string(), Json::Num(r.breaker_opens as f64));
                    o.insert(
                        "breaker_half_opens".to_string(),
                        Json::Num(r.breaker_half_opens as f64),
                    );
                    o.insert("breaker_closes".to_string(), Json::Num(r.breaker_closes as f64));
                    o.insert("deadline_expired".to_string(), Json::Num(r.deadline_expired as f64));
                    o.insert("pool_restored".to_string(), Json::Bool(r.pool_restored));
                    o.insert("violations".to_string(), Json::Num(r.violations() as f64));
                    o.insert("wall_s".to_string(), Json::Num(r.wall_s));
                    Json::Obj(o)
                })
                .collect(),
        ),
    );
    Json::Obj(doc)
}

fn main() {
    let args =
        BenchArgs::parse_with(&["--smoke", "--cases", "--seed", "--workers", "--classes", "--out"]);
    let smoke = args.rest.iter().any(|a| a == "--smoke");
    let cases = args.u64_at_least("--cases", 1).unwrap_or(if smoke { 50 } else { 200 });
    let seed = args.u64_at_least("--seed", 0).unwrap_or(0xC4A0_5CA5);
    let workers = args.u64_at_least("--workers", 1).unwrap_or(4) as usize;
    let classes: Vec<ChaosClass> = match args.value("--classes") {
        None => ALL_CHAOS_CLASSES.to_vec(),
        Some(list) => list
            .split(',')
            .map(|name| {
                ChaosClass::from_name(name.trim()).unwrap_or_else(|| {
                    eprintln!("--classes: unknown chaos class {name:?}");
                    std::process::exit(2);
                })
            })
            .collect(),
    };
    let out_path = args.value("--out");

    // Injected worker panics are expected; keep stderr clean for them.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .map(|s| s.as_str() == service::INJECTED_SERVICE_PANIC)
            .unwrap_or(false)
            || info.payload().downcast_ref::<&str>().copied()
                == Some(service::INJECTED_SERVICE_PANIC);
        if !injected {
            prev_hook(info);
        }
    }));

    let mut rep = Reporter::from_args(&args);
    let reports: Vec<ClassReport> =
        classes.iter().map(|&class| run_class(class, cases, seed, workers)).collect();

    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r| {
            vec![
                r.class.name().to_string(),
                r.cases.to_string(),
                r.summary.admitted.to_string(),
                r.summary.lost().to_string(),
                format!(
                    "{}/{}/{}/{}/{}",
                    r.summary.terminals[0],
                    r.summary.terminals[1],
                    r.summary.terminals[2],
                    r.summary.terminals[3],
                    r.summary.terminals[4],
                ),
                format!("{}/{}", r.kicks, r.respawns),
                format!("{}/{}/{}", r.breaker_opens, r.breaker_half_opens, r.breaker_closes),
                if r.pool_restored { "yes".into() } else { "NO".into() },
                r.violations().to_string(),
                format!("{:.2}", r.wall_s),
            ]
        })
        .collect();
    rep.table(
        &format!("chaos_campaign: {cases} cases/class, {workers} workers, seed {seed:#x}"),
        &[
            "class",
            "cases",
            "admitted",
            "lost",
            "ok/fail/exp/stall/shut",
            "kicks/respawns",
            "open/half/close",
            "pool",
            "violations",
            "wall s",
        ],
        &rows,
    );

    let mut total_violations = 0u64;
    for r in &reports {
        for sample in &r.failure_samples {
            rep.note(&format!("{}: {sample}", r.class));
        }
        for m in mechanism_failures(r) {
            rep.note(&format!("{}: {m}", r.class));
            total_violations += 1;
        }
        total_violations += r.violations();
    }
    if total_violations == 0 {
        rep.note(&format!(
            "all invariants held: every admitted request reached exactly one terminal \
             outcome across {} classes x {cases} cases",
            reports.len()
        ));
    }

    if let Some(path) = &out_path {
        let doc = to_json(&reports, seed, workers);
        if let Err(e) = std::fs::write(path, format!("{doc}\n")) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        if !rep.is_json() {
            println!("wrote {path}");
        }
    }
    rep.finish();
    if total_violations > 0 {
        eprintln!("chaos campaign FAILED: {total_violations} violation(s)");
        std::process::exit(1);
    }
}
