//! Replays the synthetic million-tenant trace against a live [`Server`]
//! and checks every outcome that can be counted.
//!
//! One closed-loop replay of the generated trace: same-tenant
//! same-program CKKS requests pack into shared ciphertexts, the rest —
//! cold tenants, TFHE gates — run as batches of one, and a packed batch
//! a fault breaks re-runs its members one at a time. Every fault-free
//! completion is checked against its template's plaintext function.
//! Injected faults must fail *contained*: the server's contained-fault
//! count and the number of failed requests both equal the number of
//! faults the trace carries (so each fault failed exactly its own
//! request), nothing is lost, and under `--fault-dumps` each contained
//! fault left one flight-recorder dump. The timings in the table and the
//! JSON are a record, not a gate: wall-clock comparisons belong to
//! `benchmark/` (`serve_hot` / `serve_cold`).
//!
//! ```text
//! cargo run --release -p service --bin serve_trace -- --out /tmp/service.json
//! ```
//!
//! Flags:
//!
//! * `--requests N` — trace length (default 512; 160 under `--smoke`).
//! * `--workers N` — worker threads (default 4).
//! * `--ring toy|small` — CKKS parameter set (default `toy`; `small`
//!   is the n=1024 ring and an order of magnitude slower per request).
//! * `--fault-every N` — inject one fault every N requests, cycling the
//!   containment lattice's classes (default 64; 0 disables).
//! * `--seed N` — trace + server seed (decimal or `0x…` hex).
//! * `--out PATH` — write the report as JSON (schema v1, git commit and
//!   host facts stamped) to `PATH`. Without it no file is written.
//! * `--fault-dumps DIR` — write flight-recorder fault dumps there and
//!   hold their count to the contained faults. `DIR` must not already
//!   hold `flight-*` files: the check counts what this run added.
//! * `--live-metrics PATH` — run a background telemetry sampler during
//!   the replay, streaming one JSONL line per tick (counters, spans, and
//!   the server's live gauges: queue depth, in-flight totals and busiest
//!   tenants, worker-pool strength, breaker states) into `PATH`; the
//!   ticks are reported, and a write the sampler could not make fails
//!   the run.
//! * `--sample-ms N` — sampler tick interval (default 50).
//! * `--json` — emit the report as JSON on stdout instead of tables.
//!
//! Exit status: `0` when every count holds, `1` on a verification
//! failure, a lost request, an injected fault that was not contained to
//! its own request, a missing fault dump or a failed live-metrics write,
//! `2` on usage errors.

use std::collections::BTreeMap;

use bench::{BenchArgs, Reporter};
use fhe_ckks::CkksParams;
use service::trace::{generate, replay, TraceConfig, TraceReport};
use service::{FaultFlag, Server, ServerConfig};
use telemetry::flight::MAX_FAULT_DUMPS;
use telemetry::json::Json;

/// Why the replay breaks the containment contract; empty when it holds.
/// `injected` is the number of trace entries that carry a fault: each
/// must be counted contained by the server and fail exactly one request —
/// its own — so both counts equal `injected`; every admitted request is
/// answered; every fault-free answer matches the cleartext oracle; and,
/// under `--fault-dumps`, each contained fault left one flight dump while
/// the recorder's per-process cap had room.
fn containment_violations(injected: u64, r: &TraceReport, fault_dumps: Option<u64>) -> Vec<String> {
    let mut out = Vec::new();
    if r.faults_contained != injected {
        out.push(format!("{} contained faults for {injected} injected", r.faults_contained));
    }
    if r.failed != injected {
        out.push(format!("{} failed requests for {injected} injected faults", r.failed));
    }
    if r.lost > 0 {
        out.push(format!("{} request(s) were admitted but never answered", r.lost));
    }
    if r.verify_failures > 0 {
        out.push(format!("{} result(s) disagreed with the cleartext oracle", r.verify_failures));
    }
    if let Some(landed) = fault_dumps {
        let expected = r.faults_contained.min(MAX_FAULT_DUMPS);
        if landed != expected {
            out.push(format!("{landed} flight fault dumps landed, expected {expected}"));
        }
    }
    out
}

fn count_dumps(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().starts_with("flight-"))
                .count() as u64
        })
        .unwrap_or(0)
}

fn to_json(r: &TraceReport, workers: usize, n: usize, note: &str) -> Json {
    let mut doc = BTreeMap::new();
    doc.insert("schema_version".to_string(), Json::Num(1.0));
    doc.insert("git_commit".to_string(), Json::Str(bench::git_commit()));
    let mut host = BTreeMap::new();
    host.insert("threads".to_string(), Json::Num(bench::host_threads() as f64));
    if let Some(mb) = bench::mem_total_mb() {
        host.insert("mem_total_mb".to_string(), Json::Num(mb as f64));
    }
    doc.insert("host".to_string(), Json::Obj(host));
    doc.insert("note".to_string(), Json::Str(note.to_string()));
    let mut o = BTreeMap::new();
    o.insert("workload".to_string(), Json::Str("mixed".to_string()));
    o.insert("n".to_string(), Json::Num(n as f64));
    o.insert("workers".to_string(), Json::Num(workers as f64));
    o.insert("requests".to_string(), Json::Num(r.submitted as f64));
    o.insert("req_per_s".to_string(), Json::Num(r.req_per_s));
    o.insert("p50_ms".to_string(), Json::Num(r.p50_ms));
    o.insert("p99_ms".to_string(), Json::Num(r.p99_ms));
    o.insert("keycache_hit_rate".to_string(), Json::Num(r.keycache_hit_rate));
    o.insert("pack_ratio".to_string(), Json::Num(r.pack_ratio));
    o.insert("faults_contained".to_string(), Json::Num(r.faults_contained as f64));
    o.insert("degraded_batches".to_string(), Json::Num(r.degraded_batches as f64));
    o.insert("rejections".to_string(), Json::Num(r.rejections as f64));
    o.insert("verify_failures".to_string(), Json::Num(r.verify_failures as f64));
    o.insert("lost".to_string(), Json::Num(r.lost as f64));
    doc.insert("service".to_string(), Json::Arr(vec![Json::Obj(o)]));
    Json::Obj(doc)
}

fn main() {
    let args = BenchArgs::parse_with(&[
        "--smoke",
        "--requests",
        "--workers",
        "--ring",
        "--fault-every",
        "--seed",
        "--out",
        "--fault-dumps",
        "--live-metrics",
        "--sample-ms",
    ]);
    let smoke = args.rest.iter().any(|a| a == "--smoke");
    let requests = args.u64_at_least("--requests", 1).unwrap_or(if smoke { 160 } else { 512 });
    let workers = args.u64_at_least("--workers", 1).unwrap_or(4) as usize;
    let ring = args.value("--ring").unwrap_or("toy");
    let params = match ring {
        "toy" => CkksParams::toy(),
        "small" => CkksParams::small(),
        other => {
            eprintln!("--ring must be `toy` or `small`, got {other:?}");
            std::process::exit(2);
        }
    }
    .unwrap_or_else(|e| {
        eprintln!("--ring {ring}: parameter construction failed: {e}");
        std::process::exit(1);
    });
    let fault_every = args.u64_at_least("--fault-every", 0).unwrap_or(64);
    let seed = args.u64_at_least("--seed", 0).unwrap_or(0x7e1e_ca57);
    let out_path = args.value("--out");
    let dump_dir = args.value("--fault-dumps").map(std::path::PathBuf::from);
    let live_metrics = args.value("--live-metrics");
    let sample_ms = args.u64_at_least("--sample-ms", 1).unwrap_or(50);
    // Fault dumps route through the *global* telemetry handle's flight
    // recorder; the server shares the same handle so its spans land in
    // the dumps.
    let tel = telemetry::Telemetry::enabled();
    if let Some(dir) = &dump_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("--fault-dumps: cannot create {}: {e}", dir.display());
            std::process::exit(2);
        }
        if count_dumps(dir) > 0 {
            eprintln!(
                "--fault-dumps: {} already holds flight-* dumps; the dump check counts \
                 what this run adds, so give it a directory without any",
                dir.display()
            );
            std::process::exit(2);
        }
        tel.attach_flight_recorder(telemetry::FlightRecorder::new(1024));
        telemetry::flight::set_fault_dump_dir(Some(dir.clone()));
    }
    telemetry::install(tel.clone());
    // The injected worker panics are expected and contained; keep stderr
    // clean for them while leaving every other panic loud.
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

    let entries = generate(&TraceConfig { requests, fault_every, seed, ..TraceConfig::default() });
    let injected = entries.iter().filter(|e| e.request.fault != FaultFlag::None).count() as u64;
    let n = params.n();
    let server = Server::start(ServerConfig {
        workers,
        seed,
        params,
        telemetry: tel.clone(),
        ..ServerConfig::default()
    })
    .unwrap_or_else(|e| {
        eprintln!("server failed to start: {e}");
        std::process::exit(1);
    });
    let sampler = live_metrics.map(|path| {
        let sink = telemetry::JsonlSink::create(path).unwrap_or_else(|e| {
            eprintln!("--live-metrics: cannot create {path}: {e}");
            std::process::exit(2);
        });
        telemetry::SamplerBuilder::new(tel.clone(), std::time::Duration::from_millis(sample_ms))
            .sink(sink)
            .gauge_source(server.gauge_source())
            .spawn()
    });
    let report = replay(&server, &entries);
    let live = sampler.map(telemetry::Sampler::stop);
    server.finish();
    // The directory held no dump when the run began.
    let fault_dumps = dump_dir.as_deref().map(count_dumps);

    let r = &report;
    let row = vec![
        format!("{:.0}", r.req_per_s),
        format!("{:.2}", r.p50_ms),
        format!("{:.2}", r.p99_ms),
        format!("{:.1}%", r.keycache_hit_rate * 100.0),
        format!("{:.2}", r.pack_ratio),
        r.faults_contained.to_string(),
        r.degraded_batches.to_string(),
        r.rejections.to_string(),
        format!("{}/{}", r.verified - r.verify_failures, r.verified),
    ];
    rep.table(
        &format!(
            "serve_trace: {requests} requests, {workers} workers, ring n={n}, \
             fault every {fault_every} ({injected} injected)"
        ),
        &[
            "req/s",
            "p50 ms",
            "p99 ms",
            "key hits",
            "pack ratio",
            "contained",
            "degraded",
            "rejects",
            "verified",
        ],
        &[row],
    );
    for &(tenant, count, p50, p99) in &r.top_tenants {
        rep.note(&format!(
            "tenant {tenant}: {count} reqs, p50 {:.2} ms, p99 {:.2} ms",
            p50 as f64 / 1e6,
            p99 as f64 / 1e6,
        ));
    }
    if let Some(landed) = fault_dumps {
        rep.note(&format!(
            "{landed} flight fault dumps for {} contained faults",
            r.faults_contained
        ));
    }
    if let Some(stats) = live {
        rep.note(&format!("{} live-metrics ticks", stats.ticks));
    }

    let note = format!(
        "closed-loop replay of a deterministic {requests}-request trace (seed {seed:#x}) \
         over a million-tenant id space with a 64-tenant hot set at 90%; fault-free results \
         are verified against the templates' cleartext functions"
    );
    rep.note(&note);

    if let Some(out_path) = out_path {
        let doc = to_json(r, workers, n, &note);
        if let Err(e) = std::fs::write(out_path, format!("{doc}\n")) {
            eprintln!("failed to write {out_path}: {e}");
            std::process::exit(1);
        }
        if !rep.is_json() {
            println!("wrote {out_path}");
        }
    }
    let mut broken = false;
    for v in containment_violations(injected, r, fault_dumps) {
        broken = true;
        rep.note(&format!("FAILED: {v}"));
    }
    if let Some(stats) = live.filter(|s| s.sink_errors > 0) {
        broken = true;
        rep.note(&format!(
            "FAILED: {} live-metrics write(s) failed, the stream is short",
            stats.sink_errors
        ));
    }
    rep.finish();
    if broken {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A replay's report with the four counts the check reads; the rest
    /// is what an 8-fault, 512-request replay looks like.
    fn report(faults_contained: u64, failed: u64, lost: u64, verify_failures: u64) -> TraceReport {
        TraceReport {
            submitted: 512,
            completed_ok: 512 - failed,
            failed,
            faults_contained,
            rejections: 0,
            verified: 504,
            verify_failures,
            lost,
            wall_s: 0.1,
            req_per_s: 5000.0,
            p50_ms: 30.0,
            p99_ms: 50.0,
            keycache_hit_rate: 0.7,
            keycache_misses: 150,
            batches: 340,
            pack_ratio: 1.5,
            degraded_batches: 5,
            top_tenants: Vec::new(),
        }
    }

    #[test]
    fn contained_run_has_no_violations() {
        assert!(containment_violations(8, &report(8, 8, 0, 0), None).is_empty());
        assert!(containment_violations(8, &report(8, 8, 0, 0), Some(8)).is_empty());
        assert!(containment_violations(0, &report(0, 0, 0, 0), Some(0)).is_empty());
        // Past its per-process cap the recorder stops writing, and the
        // check follows.
        assert!(containment_violations(32, &report(32, 32, 0, 0), Some(16)).is_empty());
    }

    #[test]
    fn an_uncontained_fault_is_a_violation() {
        // One injected fault was not counted contained: it either took a
        // neighbour down (failed > injected) or went unnoticed.
        assert_eq!(containment_violations(8, &report(7, 8, 0, 0), None).len(), 1);
        assert_eq!(containment_violations(8, &report(7, 7, 0, 0), None).len(), 2);
        assert_eq!(containment_violations(8, &report(8, 9, 0, 0), None).len(), 1);
    }

    #[test]
    fn a_missing_dump_is_a_violation() {
        let v = containment_violations(8, &report(8, 8, 0, 0), Some(7));
        assert_eq!(v, ["7 flight fault dumps landed, expected 8"]);
    }

    #[test]
    fn a_lost_request_or_a_wrong_answer_is_a_violation() {
        assert_eq!(containment_violations(8, &report(8, 8, 1, 0), None).len(), 1);
        assert_eq!(containment_violations(8, &report(8, 8, 0, 1), None).len(), 1);
    }
}
