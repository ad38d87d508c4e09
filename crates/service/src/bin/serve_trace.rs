//! Replays the synthetic million-tenant trace against a live [`Server`]
//! and records the service baseline (`BENCH_service.json`).
//!
//! Two full replays of the *same* generated trace run back to back —
//! packing on, then packing off — so the JSON carries one row per mode
//! under the same `(workload, n, workers)` key and the packed/singleton
//! results are verified against the same cleartext expectations. Every
//! fault-free completion is checked against its template's plaintext
//! function; injected faults are expected to fail *contained* (exactly
//! one request each, with a flight-recorder dump) and do not affect the
//! exit status.
//!
//! ```text
//! cargo run --release -p service --bin serve_trace
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
//! * `--no-pack` / `--pack-only` — run only one of the two modes.
//! * `--out PATH` — where to write the JSON (default
//!   `BENCH_service.json`).
//! * `--compare BASELINE.json [--tolerance F]` — gate the fresh run
//!   against a committed baseline per `(workload, n, workers, packed)`
//!   key: throughput may not drop, p50/p99 may not rise, beyond the
//!   tolerance (default 0.5 — CI hardware differs from the baseline
//!   host, so this catches collapses, not drift). Zero overlapping keys
//!   exit `2` instead of passing vacuously.
//! * `--fault-dumps DIR` — write flight-recorder fault dumps there and
//!   report how many landed.
//! * `--live-metrics PATH` — run a background telemetry sampler during
//!   each replay, streaming one JSONL line per tick (counters, spans,
//!   and the server's live gauges: queue depth, in-flight totals and
//!   busiest tenants, worker-pool strength, breaker states) into
//!   `PATH.<mode>.jsonl`.
//! * `--sample-ms N` — sampler tick interval (default 50).
//! * `--json` — emit the report as JSON on stdout instead of tables.
//!
//! Exit status: `0` on success (contained faults included), `1` on
//! verification failures, lost requests, or baseline regressions, `2`
//! on usage errors.

use std::collections::BTreeMap;

use bench::{regress, BenchArgs, Reporter};
use fhe_ckks::CkksParams;
use service::trace::{generate, replay, TraceConfig, TraceReport};
use service::{AdmissionConfig, Server, ServerConfig};
use telemetry::json::Json;

/// One replayed mode: the packing flag plus everything measured.
struct ModeRun {
    packed: bool,
    report: TraceReport,
    fault_dumps: usize,
}

/// Parses `--flag <value>` out of the positional rest.
fn take_value_flag(rest: &[String], flag: &str) -> Option<String> {
    rest.iter().position(|a| a == flag).map(|i| {
        rest.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("{flag} requires a value argument");
            std::process::exit(2);
        })
    })
}

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(&hex.replace('_', ""), 16).ok()
    } else {
        s.replace('_', "").parse().ok()
    }
}

#[allow(clippy::too_many_arguments)]
fn run_mode(
    packed: bool,
    workers: usize,
    params: &CkksParams,
    seed: u64,
    trace_cfg: &TraceConfig,
    dump_dir: Option<&std::path::Path>,
    tel: &telemetry::Telemetry,
    live_metrics: Option<(&str, u64)>,
) -> ModeRun {
    let dumps_before = dump_dir.map(count_dumps).unwrap_or(0);
    let entries = generate(trace_cfg);
    let server = Server::start(ServerConfig {
        workers,
        admission: AdmissionConfig::default(),
        packing: packed,
        seed,
        params: params.clone(),
        telemetry: tel.clone(),
        ..ServerConfig::default()
    })
    .unwrap_or_else(|e| {
        eprintln!("server failed to start: {e}");
        std::process::exit(1);
    });
    let sampler = live_metrics.map(|(base, tick_ms)| {
        let mode = if packed { "packed" } else { "singleton" };
        let path = format!("{base}.{mode}.jsonl");
        let sink = telemetry::JsonlSink::create(&path).unwrap_or_else(|e| {
            eprintln!("--live-metrics: cannot create {path}: {e}");
            std::process::exit(2);
        });
        telemetry::SamplerBuilder::new(tel.clone(), std::time::Duration::from_millis(tick_ms))
            .sink(sink)
            .gauge_source(server.gauge_source())
            .spawn()
    });
    let report = replay(&server, &entries);
    if let Some(sampler) = sampler {
        sampler.stop();
    }
    server.finish();
    let fault_dumps = dump_dir.map(count_dumps).unwrap_or(0) - dumps_before;
    ModeRun { packed, report, fault_dumps }
}

fn count_dumps(dir: &std::path::Path) -> usize {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().starts_with("flight-"))
                .count()
        })
        .unwrap_or(0)
}

fn to_json(runs: &[ModeRun], workers: usize, n: usize, workload: &str, note: &str) -> Json {
    let mut doc = BTreeMap::new();
    doc.insert("schema_version".to_string(), Json::Num(1.0));
    doc.insert("git_commit".to_string(), Json::Str(bench::git_commit()));
    let mut host = BTreeMap::new();
    host.insert("threads".to_string(), Json::Num(fhe_math::par::max_threads() as f64));
    host.insert("checksum_enabled".to_string(), Json::Bool(fhe_math::checksum_enabled()));
    if let Some(mb) = bench::mem_total_mb() {
        host.insert("mem_total_mb".to_string(), Json::Num(mb as f64));
    }
    doc.insert("host".to_string(), Json::Obj(host));
    doc.insert("note".to_string(), Json::Str(note.to_string()));
    doc.insert(
        "service".to_string(),
        Json::Arr(
            runs.iter()
                .map(|run| {
                    let r = &run.report;
                    let mut o = BTreeMap::new();
                    o.insert("workload".to_string(), Json::Str(workload.to_string()));
                    o.insert("n".to_string(), Json::Num(n as f64));
                    o.insert("workers".to_string(), Json::Num(workers as f64));
                    o.insert("packed".to_string(), Json::Bool(run.packed));
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
                    Json::Obj(o)
                })
                .collect(),
        ),
    );
    Json::Obj(doc)
}

fn run_compare(
    rep: &mut Reporter,
    runs: &[ModeRun],
    workers: usize,
    n: usize,
    workload: &str,
    bpath: &str,
    tolerance: f64,
) -> bool {
    let text = std::fs::read_to_string(bpath).unwrap_or_else(|e| {
        eprintln!("--compare: cannot read {bpath}: {e}");
        std::process::exit(2);
    });
    let doc = telemetry::json::parse(&text).unwrap_or_else(|e| {
        eprintln!("--compare: {bpath} is not valid JSON: {e}");
        std::process::exit(2);
    });
    let baseline = regress::parse_service_baseline(&doc).unwrap_or_else(|e| {
        eprintln!("--compare: {bpath}: {e}");
        std::process::exit(2);
    });
    for w in regress::host_mismatch_warnings(
        &regress::parse_host(&doc),
        fhe_math::par::max_threads() as u64,
        bench::mem_total_mb(),
    ) {
        rep.note(&format!("warning: {w}"));
    }
    let fresh: Vec<regress::ServicePoint> = runs
        .iter()
        .map(|run| regress::ServicePoint {
            workload: workload.to_string(),
            n: n as u64,
            workers: workers as u64,
            packed: run.packed,
            requests: run.report.submitted,
            req_per_s: run.report.req_per_s,
            p50_ms: run.report.p50_ms,
            p99_ms: run.report.p99_ms,
            faults_contained: run.report.faults_contained,
            lost: run.report.lost,
        })
        .collect();
    let cmp = regress::compare_service(&fresh, &baseline, tolerance).unwrap_or_else(|e| {
        eprintln!("--compare: {e}");
        std::process::exit(2);
    });
    let rows: Vec<Vec<String>> = cmp
        .rows
        .iter()
        .map(|r| {
            vec![
                if r.packed { "packed".into() } else { "singleton".into() },
                format!("{:.2}x", r.throughput_ratio),
                format!("{:.2}x", r.p50_ratio),
                format!("{:.2}x", r.p99_ratio),
                if r.regressed { "REGRESSED".into() } else { "ok".into() },
            ]
        })
        .collect();
    rep.table(
        &format!("Service vs baseline {bpath} (tolerance {tolerance:.2})"),
        &["mode", "throughput", "p50", "p99", "verdict"],
        &rows,
    );
    if cmp.fresh_only + cmp.base_only > 0 {
        rep.note(&format!(
            "{} fresh-only and {} baseline-only keys were not gated",
            cmp.fresh_only, cmp.base_only
        ));
    }
    cmp.regressions() > 0
}

fn main() {
    let args = BenchArgs::parse();
    let smoke = args.rest.iter().any(|a| a == "--smoke");
    let no_pack = args.rest.iter().any(|a| a == "--no-pack");
    let pack_only = args.rest.iter().any(|a| a == "--pack-only");
    if no_pack && pack_only {
        eprintln!("--no-pack and --pack-only are mutually exclusive");
        std::process::exit(2);
    }
    let requests = take_value_flag(&args.rest, "--requests")
        .map(|s| {
            parse_u64(&s).filter(|r| *r >= 1).unwrap_or_else(|| {
                eprintln!("--requests must be a positive integer, got {s:?}");
                std::process::exit(2);
            })
        })
        .unwrap_or(if smoke { 160 } else { 512 });
    let workers = take_value_flag(&args.rest, "--workers")
        .map(|s| {
            parse_u64(&s).filter(|w| *w >= 1).unwrap_or_else(|| {
                eprintln!("--workers must be a positive integer, got {s:?}");
                std::process::exit(2);
            }) as usize
        })
        .unwrap_or(4);
    let ring = take_value_flag(&args.rest, "--ring").unwrap_or_else(|| "toy".to_string());
    let params = match ring.as_str() {
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
    let fault_every = take_value_flag(&args.rest, "--fault-every")
        .map(|s| {
            parse_u64(&s).unwrap_or_else(|| {
                eprintln!("--fault-every must be a non-negative integer, got {s:?}");
                std::process::exit(2);
            })
        })
        .unwrap_or(64);
    let seed = take_value_flag(&args.rest, "--seed")
        .map(|s| {
            parse_u64(&s).unwrap_or_else(|| {
                eprintln!("--seed: invalid value {s:?} (expected decimal or 0x-hex)");
                std::process::exit(2);
            })
        })
        .unwrap_or(0x7e1e_ca57);
    let out_path =
        take_value_flag(&args.rest, "--out").unwrap_or_else(|| "BENCH_service.json".to_string());
    let compare_path = take_value_flag(&args.rest, "--compare");
    let tolerance = take_value_flag(&args.rest, "--tolerance")
        .map(|s| {
            s.parse::<f64>().ok().filter(|t| *t >= 0.0).unwrap_or_else(|| {
                eprintln!("--tolerance must be a non-negative number, got {s:?}");
                std::process::exit(2);
            })
        })
        .unwrap_or(0.5);
    let dump_dir = take_value_flag(&args.rest, "--fault-dumps").map(std::path::PathBuf::from);
    let live_metrics = take_value_flag(&args.rest, "--live-metrics");
    let sample_ms = take_value_flag(&args.rest, "--sample-ms")
        .map(|s| {
            parse_u64(&s).filter(|m| *m >= 1).unwrap_or_else(|| {
                eprintln!("--sample-ms must be a positive integer, got {s:?}");
                std::process::exit(2);
            })
        })
        .unwrap_or(50);
    // Fault dumps route through the *global* telemetry handle's flight
    // recorder; the servers share the same handle so their spans land in
    // the dumps.
    let tel = telemetry::Telemetry::enabled();
    if let Some(dir) = &dump_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("--fault-dumps: cannot create {}: {e}", dir.display());
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

    let trace_cfg = TraceConfig { requests, fault_every, seed, ..TraceConfig::default() };
    let n = params.n();
    let modes: &[bool] = if no_pack {
        &[false]
    } else if pack_only {
        &[true]
    } else {
        &[true, false]
    };
    let runs: Vec<ModeRun> = modes
        .iter()
        .map(|&packed| {
            run_mode(
                packed,
                workers,
                &params,
                seed,
                &trace_cfg,
                dump_dir.as_deref(),
                &tel,
                live_metrics.as_deref().map(|p| (p, sample_ms)),
            )
        })
        .collect();

    let workload = "mixed";
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|run| {
            let r = &run.report;
            vec![
                if run.packed { "packed".into() } else { "singleton".into() },
                format!("{:.0}", r.req_per_s),
                format!("{:.2}", r.p50_ms),
                format!("{:.2}", r.p99_ms),
                format!("{:.1}%", r.keycache_hit_rate * 100.0),
                format!("{:.2}", r.pack_ratio),
                r.faults_contained.to_string(),
                r.degraded_batches.to_string(),
                r.rejections.to_string(),
                format!("{}/{}", r.verified - r.verify_failures, r.verified),
            ]
        })
        .collect();
    rep.table(
        &format!(
            "serve_trace: {requests} requests, {workers} workers, ring n={n}, \
             fault every {fault_every}"
        ),
        &[
            "mode",
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
        &rows,
    );
    for run in &runs {
        let mode = if run.packed { "packed" } else { "singleton" };
        for &(tenant, count, p50, p99) in &run.report.top_tenants {
            rep.note(&format!(
                "{mode} tenant {tenant}: {count} reqs, p50 {:.2} ms, p99 {:.2} ms",
                p50 as f64 / 1e6,
                p99 as f64 / 1e6,
            ));
        }
        if dump_dir.is_some() {
            rep.note(&format!(
                "{mode}: {} flight fault dumps for {} contained faults",
                run.fault_dumps, run.report.faults_contained
            ));
        }
    }

    let note = format!(
        "closed-loop replay of a deterministic {requests}-request trace (seed {seed:#x}) \
         over a million-tenant id space with a 64-tenant hot set at 90%; both modes replay \
         the same trace and verify fault-free results against the templates' cleartext \
         functions"
    );
    rep.note(&note);

    // Compare before writing: the default --out path is the baseline
    // file itself, and writing first would clobber the baseline and
    // turn the gate into a vacuous self-compare.
    let mut regressed = false;
    if let Some(bpath) = compare_path {
        regressed = run_compare(&mut rep, &runs, workers, n, workload, &bpath, tolerance);
    }

    let doc = to_json(&runs, workers, n, workload, &note);
    if let Err(e) = std::fs::write(&out_path, format!("{doc}\n")) {
        eprintln!("failed to write {out_path}: {e}");
        std::process::exit(1);
    }
    if !rep.is_json() {
        println!("wrote {out_path}");
    }
    let verify_failures: u64 = runs.iter().map(|r| r.report.verify_failures).sum();
    if verify_failures > 0 {
        rep.note(&format!("{verify_failures} result(s) disagreed with the cleartext oracle"));
    }
    let lost: u64 = runs.iter().map(|r| r.report.lost).sum();
    if lost > 0 {
        rep.note(&format!("{lost} request(s) were admitted but never answered"));
    }
    rep.finish();
    if regressed || verify_failures > 0 || lost > 0 {
        std::process::exit(1);
    }
}
