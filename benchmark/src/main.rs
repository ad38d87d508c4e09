//! The repo benchmark. See `README.md` beside this crate for the
//! workloads, the metric glossary and how the layers interact.
//!
//! ```text
//! benchmark run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark run [--seed <n>] [--seconds <s>] [--aa] [--smoke]
//! ```
//!
//! The first form is what `BENCHMARK.json`'s command runs: one workload,
//! one JSON object on the last line of standard output. `--trace 0`
//! reports the end-to-end metrics with every span disabled; `--trace 1`
//! runs the traced pass and reports the per-layer metrics. The second
//! form runs all five workloads and then the traced pass, prints every
//! metric by name with its unit, and writes `benchmark/out/results.json`;
//! `--aa` does that twice and compares the two sets against the bounds in
//! `BENCHMARK.json`; `--smoke` is a seconds-long run of the same code to
//! test the harness.

mod catalogue;
mod cores;
mod host;
mod ladder;
mod model;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

use telemetry::json::Json;

use ladder::Rows;
use spans::{Trace, Tracer};
use workloads::ckks_mlp::CkksMlp;
use workloads::cross::CrossThreshold;
use workloads::serve::{self, Serve};
use workloads::sim::SimSuite;
use workloads::{measure, Kind, Measured, Slice, Workload};

/// Seed of every run that names none.
const DEFAULT_SEED: u64 = 0x7e1e_ca57;
/// Held out: never run while a change is being written. A claimed gain
/// must also hold on this seed (`run --aa --seed 0x0a1c4e57`).
const HELD_OUT_SEED: u64 = 0x0a1c_4e57;
/// The open-loop sweep offers these multiples of the fixed rate.
const SWEEP: [f64; 4] = [0.5, 1.0, 1.5, 2.0];
/// A sweep step is fine while its p95 stays under this.
const SWEEP_P95_LIMIT_MS: f64 = 5.0;

struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    aa: bool,
    smoke: bool,
}

fn usage(problem: &str) -> ! {
    eprintln!("{problem}");
    eprintln!(
        "usage: benchmark run [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>] \
         [--aa] [--smoke]\n  workloads: {}\n  default seed {DEFAULT_SEED:#x}, held-out seed \
         {HELD_OUT_SEED:#x}",
        Kind::ALL.map(Kind::name).join(", ")
    );
    std::process::exit(2);
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16).ok(),
        None => s.replace('_', "").parse().ok(),
    }
}

/// `benchmark catalogue`: the `end_to_end` and `per_layer` name lists in
/// `BENCHMARK.json`'s shape (bounds are added by hand), for whoever adds
/// a metric and has to keep the two in step.
fn print_catalogue() -> ! {
    let better = |higher: bool| Json::Str(if higher { "higher" } else { "lower" }.to_string());
    let entry = |name: &str, unit: &str, higher: bool| {
        Json::Obj(BTreeMap::from([
            ("name".to_string(), Json::Str(name.to_string())),
            ("unit".to_string(), Json::Str(unit.to_string())),
            ("better".to_string(), better(higher)),
        ]))
    };
    let e2e = catalogue::END_TO_END.iter().map(|m| entry(m.name, m.unit, m.higher_is_better));
    let layers = catalogue::layers();
    let per_layer = layers.iter().map(|l| entry(&l.name, l.unit, l.higher_is_better));
    let doc = BTreeMap::from([
        ("end_to_end".to_string(), Json::Arr(e2e.collect())),
        ("per_layer".to_string(), Json::Arr(per_layer.collect())),
    ]);
    println!("{}", Json::Obj(doc));
    std::process::exit(0);
}

/// `default_seconds` is `BENCHMARK.json`'s `run_seconds`.
fn parse_args(default_seconds: f64) -> Args {
    let mut argv = std::env::args().skip(1);
    match argv.next().as_deref() {
        Some("run") => {}
        Some("catalogue") => print_catalogue(),
        _ => usage("the first argument must be `run` or `catalogue`"),
    }
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: default_seconds,
        trace: false,
        aa: false,
        smoke: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                let name = value();
                args.workload = Some(
                    Kind::parse(&name)
                        .unwrap_or_else(|| usage(&format!("unknown workload {name}"))),
                );
            }
            "--seed" => {
                args.seed =
                    parse_u64(&value()).unwrap_or_else(|| usage("--seed takes a whole number"));
            }
            "--seconds" => {
                args.seconds = match value().parse::<f64>() {
                    Ok(s) if s > 0.0 && s <= 60.0 => s,
                    _ => usage("--seconds takes a number in (0, 60]"),
                };
            }
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                };
            }
            "--aa" => args.aa = true,
            "--smoke" => args.smoke = true,
            other => usage(&format!("unknown argument {other}")),
        }
    }
    if args.smoke {
        args.seconds = 1.0;
    }
    if args.workload.is_some() && (args.aa || args.smoke) {
        usage("--aa and --smoke run every workload; drop --workload");
    }
    args
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// One untraced run of one workload: its seven end-to-end values.
struct EndToEndRun {
    kind: Kind,
    measured: Measured,
    model_error_pct: f64,
    /// Workload-specific lines for the human-readable report.
    notes: Vec<String>,
}

fn lowest(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

fn highest(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

impl EndToEndRun {
    fn failed(&self) -> u64 {
        self.measured.failed
    }

    /// Values in `catalogue::END_TO_END` order. Each timing comes from
    /// the run's best slice or window (see `workloads`).
    fn values(&self) -> [f64; 7] {
        let m = &self.measured;
        [
            m.setup_s,
            highest(&m.slice_throughput_per_s),
            lowest(&m.window_p50_ms),
            lowest(&m.window_p95_ms),
            (m.attempted - m.failed) as f64 / m.attempted as f64,
            m.peak_heap_mb,
            self.model_error_pct,
        ]
    }

    fn print(&self) {
        let m = &self.measured;
        println!("== {} (end to end, spans off) ==", self.kind.name());
        let best_of = |what: &str, v: &[f64]| {
            format!(
                "best of {} {what}, which span {:.4} .. {:.4}, median {:.4}",
                v.len(),
                lowest(v),
                highest(v),
                stats::median(v)
            )
        };
        let detail = [
            format!("fastest of {} set-ups, median {:.4}", m.setup_reps, m.setup_median_s),
            best_of("slices", &m.slice_throughput_per_s),
            best_of("windows", &m.window_p50_ms),
            best_of("windows", &m.window_p95_ms),
            format!("{} failed of {} attempted", m.failed, m.attempted),
            "peak live heap over the timed region".to_string(),
            "mean |simulated / paper - 1| over the published figures".to_string(),
        ];
        for ((metric, value), detail) in catalogue::END_TO_END.iter().zip(self.values()).zip(detail)
        {
            println!("  {:<18} {:>14.4} {:<6} {detail}", metric.name, value, metric.unit);
        }
        let (p50, p95, p99) = m.pooled_ms;
        println!(
            "  note: all {} latency samples pooled: p50 {p50:.4} p95 {p95:.4} p99 {p99:.4} ms",
            m.latency_samples
        );
        for note in &self.notes {
            println!("  note: {note}");
        }
    }
}

fn run_end_to_end(kind: Kind, seed: u64, seconds: f64, smoke: bool) -> EndToEndRun {
    let min_setups = if smoke { 1 } else { 3 };
    let mut off = Tracer::new(false);
    let mut notes = Vec::new();
    let measured = match kind {
        Kind::ServeHot | Kind::ServeCold => {
            let hot = kind == Kind::ServeHot;
            notes.push(format!(
                "{} worker(s); throughput: closed loop, every admitted client outstanding; latency: \
                 closed loop, one client (the open loop is in the traced pass)",
                serve::worker_count()
            ));
            measure(|| Serve::setup(seed, hot), seconds, min_setups, &mut off).0
        }
        Kind::CkksMlp => {
            let (m, w) = measure(|| CkksMlp::setup(seed), seconds, min_setups, &mut off);
            notes.push(format!("largest slot error against apply_reference {:.3e}", w.max_error));
            m
        }
        Kind::CrossThreshold => {
            measure(|| CrossThreshold::setup(seed), seconds, min_setups, &mut off).0
        }
        Kind::SimSuite => {
            let (m, w) = measure(SimSuite::setup, seconds, min_setups, &mut off);
            notes.push(format!(
                "a unit is {} passes of {} simulated steps, cycles identical on every pass",
                workloads::sim::PASSES_PER_UNIT,
                w.steps_per_pass()
            ));
            m
        }
    };
    let programs = model::programs();
    let rows = model::model_rows(&model::simulator(), &programs);
    if kind == Kind::SimSuite {
        for r in &rows {
            notes.push(format!(
                "{:<52} simulated {:>12.4} paper {:>12.4} error {:>6.2} %",
                r.label,
                r.simulated,
                r.paper,
                100.0 * r.error()
            ));
        }
    }
    EndToEndRun { kind, measured, model_error_pct: model::model_error_pct(&rows), notes }
}

/// What the traced pass measured: every per-layer value by name.
struct TracedPass {
    rows: Rows,
    attempted: u64,
    failed: u64,
}

/// One slice with spans off, then one with spans on, of a warmed-up
/// workload. The difference in throughput is the tracing overhead.
fn paired_slices<W: Workload>(w: &mut W, budget: Duration) -> (Slice, Slice, Trace) {
    let plain = w.slice(budget, &mut Tracer::new(false));
    let mut tr = Tracer::new(true);
    let traced = w.slice(budget, &mut tr);
    (plain, traced, tr.finish())
}

/// The traced pass: a short untraced and a short traced slice of every
/// workload, the open-loop sweep, then the direct timed calls of the
/// ladder. Per-layer names carry their workload or ring, so the pass is
/// the same whichever workload a traced run names.
fn run_traced(seed: u64, seconds: f64, smoke: bool) -> TracedPass {
    let budget = Duration::from_secs_f64(seconds / 10.0);
    let mut rows = Rows::new(if smoke { ladder::SMOKE_REPS } else { ladder::REPS });
    let (mut attempted, mut failed) = (0u64, 0u64);
    let tally = |slices: [&Slice; 2], attempted: &mut u64, failed: &mut u64| {
        for s in slices {
            *attempted += s.attempted;
            *failed += s.failed;
        }
    };
    let overhead = |rows: &mut Rows, kind: Kind, plain: &Slice, traced: &Slice| {
        let pct = 100.0 * (plain.throughput_per_s / traced.throughput_per_s - 1.0);
        rows.push(format!("telemetry.trace_overhead_pct.{}", kind.name()), pct);
    };
    let mut traces: Vec<(&str, Trace)> = Vec::new();
    // One-client p50 of each serve workload, for the residual below.
    let mut one_client_p50_ms = [0.0f64; 2];

    for (i, (tag, kind)) in
        catalogue::WORKLOAD_TAGS.into_iter().zip([Kind::ServeHot, Kind::ServeCold]).enumerate()
    {
        let mut w = Serve::setup(seed, kind == Kind::ServeHot);
        w.warm_up();
        let base = w.counters();
        let (plain, traced, tr) = paired_slices(&mut w, budget);
        let c = w.counters().since(base);
        tally([&plain, &traced], &mut attempted, &mut failed);
        overhead(&mut rows, kind, &plain, &traced);
        one_client_p50_ms[i] = stats::median(&plain.latencies_ms);
        rows.push(
            format!("service.pack.members_per_batch.{tag}"),
            w.packed.0 as f64 / w.packed.1 as f64,
        );
        rows.push(
            format!("service.keycache.hit_rate.{tag}"),
            c.cache_hits as f64 / (c.cache_hits + c.cache_misses) as f64,
        );
        rows.push(
            format!("service.queue.rejected_share.{tag}"),
            c.rejected as f64 / (c.admitted + c.rejected) as f64,
        );
        if kind == Kind::ServeHot {
            rows.push("service.submit_us", tr.median_s("service.submit") * 1e6);
        } else {
            rows.push("service.keycache.evictions.cold", c.evictions as f64);
        }
        traces.push((kind.name(), tr));

        // The open loop at the fixed rate: a diagnostic on this host (see
        // `workloads::serve`), so a refused request is reported, not
        // fatal. Every answer was already checked in the two closed loops.
        let open = w.open_phase(w.rate(), budget);
        if open.failed > 0 {
            println!("note: serve_{tag}: {} open-loop requests refused or wrong", open.failed);
        }
        for (name, q) in [("p50", 0.5), ("p95", 0.95), ("p99", 0.99)] {
            rows.push(
                format!("service.open_loop.{name}_ms.{tag}"),
                stats::quantile_sorted(&open.latencies_ms, q),
            );
        }
        rows.push(
            format!("service.gen_max_late_ms.{tag}"),
            stats::quantile_sorted(&open.lateness_ms, 1.0),
        );

        // The knee: the highest offered rate the server still keeps up
        // with. Latency is timed from the due time, so a backlog shows
        // in p95 even before admission rejects anything.
        let mut max_ok_rps = 0.0f64;
        for multiple in SWEEP {
            let rate = w.rate() * multiple;
            let step = w.open_phase(rate, budget);
            let p95 = step.latencies_ms.get(step.latencies_ms.len() * 95 / 100).copied();
            let keeps_up = step.failed == 0
                && p95.is_some_and(|p| p <= SWEEP_P95_LIMIT_MS)
                && step.inflight_end <= step.inflight_mid + 8;
            if keeps_up {
                max_ok_rps = max_ok_rps.max(rate);
            }
        }
        rows.push(format!("service.sweep.max_ok_rps.{tag}"), max_ok_rps);
    }

    {
        let mut w = CkksMlp::setup(seed);
        w.warm_up();
        let (plain, traced, tr) = paired_slices(&mut w, budget);
        tally([&plain, &traced], &mut attempted, &mut failed);
        overhead(&mut rows, Kind::CkksMlp, &plain, &traced);
        rows.push(
            "fhe_ckks.linear.apply_bsgs_ms.mlp",
            tr.median_s("fhe_ckks.linear.apply_bsgs") * 1e3,
        );
        traces.push((Kind::CkksMlp.name(), tr));
    }

    {
        let mut w = SimSuite::setup();
        w.warm_up();
        let (plain, traced, tr) = paired_slices(&mut w, budget);
        tally([&plain, &traced], &mut attempted, &mut failed);
        overhead(&mut rows, Kind::SimSuite, &plain, &traced);
        for (program, cycles) in w.programs.iter().zip(&w.cycles) {
            rows.push(format!("core.sim.cycles.{}", program.name), *cycles as f64);
        }
        let boot = w.programs.iter().find(|p| p.name == "bootstrapping").expect("in the suite");
        rows.push("core.sim.utilization.bootstrapping", w.sim.run(&boot.steps).utilization());
        rows.push("core.sim.steps_total", w.steps_per_pass() as f64);
        let simulated_steps =
            (traced.attempted * workloads::sim::PASSES_PER_UNIT * w.steps_per_pass()) as f64;
        rows.push("core.sim.host_ns_per_step", tr.total_s("core.sim.run") * 1e9 / simulated_steps);
        for ((design, _), speedup) in
            model::DESIGNS.iter().zip(model::design_speedups(&w.sim, &w.programs))
        {
            rows.push(format!("baselines.speedup.{design}"), speedup);
        }
        let per_design = tr.median_s("baselines.simulate") / model::DESIGNS.len() as f64;
        rows.push("baselines.host_us_per_design", per_design * 1e6);
        traces.push((Kind::SimSuite.name(), tr));
    }

    {
        let mut w = CrossThreshold::setup(seed);
        w.warm_up();
        let (plain, traced, tr) = paired_slices(&mut w, budget);
        tally([&plain, &traced], &mut attempted, &mut failed);
        overhead(&mut rows, Kind::CrossThreshold, &plain, &traced);
        rows.push("fhe_tfhe.pbs_ms", tr.median_s("fhe_tfhe.bootstrap_with_lut") * 1e3);
        let share =
            tr.total_s("fhe_tfhe.bootstrap_with_lut") / tr.total_s("cross_threshold.pipeline");
        rows.push("fhe_tfhe.pbs_share_pct", 100.0 * share);
        ladder::tfhe_and_bridge(&w, tr.median_s("bridge.switch"), seed, &mut rows);
        traces.push((Kind::CrossThreshold.name(), tr));
    }

    ladder::service(seed, &mut rows);
    ladder::ckks_ops("toy", fhe_ckks::CkksParams::toy().expect("toy ring"), seed, &mut rows);
    ladder::ckks_ops("mlp", workloads::ckks_mlp::params(), seed, &mut rows);
    ladder::math_kernels(&mut rows);
    ladder::metaop_rows(&mut rows);

    // What the stage medians leave unexplained of the one-client median:
    // the two hand-offs between threads and the reply channel. The median
    // request is a CKKS one, any of the five templates.
    let exec_us = ["saxpb", "quad", "cross", "prod", "quartic"]
        .iter()
        .map(|t| rows.get(&format!("service.exec.ckks_us.{t}")))
        .sum::<f64>()
        / 5.0;
    let shared_us = rows.get("service.submit_us")
        + rows.get("service.queue.offer_take_ns") / 1e3
        + rows.get("service.pack.pack_us")
        + rows.get("service.gate.run_checked_us")
        + exec_us;
    let key_us = [rows.get("service.keycache.hit_ns") / 1e3, rows.get("service.keycache.miss_us")];
    for ((tag, p50), key) in catalogue::WORKLOAD_TAGS.into_iter().zip(one_client_p50_ms).zip(key_us)
    {
        rows.push(format!("service.residual_ms.{tag}"), p50 - (shared_us + key) / 1e3);
    }

    println!("== spans of the traced slices (self = span minus its children) ==");
    for (workload, tr) in &traces {
        for (name, s) in &tr.by_name {
            println!(
                "  {workload:<16} {name:<30} n {:>7} median {:>11.4} ms total {:>10.3} ms self {:>10.3} ms",
                s.count,
                s.median_s * 1e3,
                s.total_s * 1e3,
                s.self_total_s * 1e3
            );
        }
    }
    let path = out_dir().join("trace.json");
    if let Err(e) = spans::write_trace(&path, &traces) {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    TracedPass { rows, attempted, failed }
}

/// Per-layer values in catalogue order. Panics if the pass skipped one:
/// that is a bug in the benchmark, not a measurement.
fn layer_values(pass: &TracedPass) -> Vec<(catalogue::Layer, f64)> {
    catalogue::layers()
        .into_iter()
        .map(|l| {
            let v = pass.rows.get(&l.name);
            (l, v)
        })
        .collect()
}

fn print_layers(values: &[(catalogue::Layer, f64)]) {
    println!("== per layer (traced pass; spans in benchmark/out/trace.json) ==");
    for (layer, value) in values {
        println!("  {:<46} {:>16.4} {:<7} moves {}", layer.name, value, layer.unit, layer.moves);
    }
    for tag in catalogue::WORKLOAD_TAGS {
        let get =
            |name: &str| values.iter().find(|(l, _)| l.name == name).expect("in the catalogue").1;
        let residual = get(&format!("service.residual_ms.{tag}"));
        let late = get(&format!("service.gen_max_late_ms.{tag}"));
        println!("  note: serve_{tag}: the stage rows leave {residual:.4} ms of the one-client median unexplained");
        if late > 1.0 {
            println!(
                "  note: serve_{tag}: the open-loop generator ran up to {late:.2} ms late; the host took \
                 its core away, read the service.open_loop rows with that in mind"
            );
        }
    }
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::Obj(BTreeMap::from([
        ("value".to_string(), Json::Num(value)),
        ("unit".to_string(), Json::Str(unit.to_string())),
    ]))
}

/// The contract's result object, printed as the last line of stdout.
fn result_line(attempted: u64, failed: u64, metrics: BTreeMap<String, Json>) -> String {
    Json::Obj(BTreeMap::from([
        ("correct".to_string(), Json::Bool(failed == 0)),
        ("attempted".to_string(), Json::Num(attempted as f64)),
        ("failed".to_string(), Json::Num(failed as f64)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ]))
    .to_string()
}

/// `BENCHMARK.json` at the root of the checkout this binary was built in.
fn declared() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("cannot read {}: {e}", path.display());
        std::process::exit(1);
    });
    telemetry::json::parse(&text).unwrap_or_else(|e| {
        eprintln!("{} is not JSON: {e}", path.display());
        std::process::exit(1);
    })
}

/// Refuses to report when the names about to be printed are not exactly
/// the ones `BENCHMARK.json` lists under `section`.
fn check_declared(declared: &Json, section: &str, reported: &[&str]) {
    let listed: Vec<&str> = declared
        .get(section)
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(|m| m.get("name").and_then(Json::as_str)).collect())
        .unwrap_or_default();
    if listed != reported {
        let missing: Vec<_> = reported.iter().filter(|n| !listed.contains(n)).collect();
        let extra: Vec<_> = listed.iter().filter(|n| !reported.contains(n)).collect();
        eprintln!(
            "BENCHMARK.json `{section}` disagrees with the benchmark: not listed {missing:?}, \
             not reported {extra:?} (or the order differs)"
        );
        std::process::exit(1);
    }
}

/// One full set: five untraced runs and the traced pass.
struct Set {
    runs: Vec<EndToEndRun>,
    layers: Vec<(catalogue::Layer, f64)>,
    failed: u64,
}

fn run_set(seed: u64, seconds: f64, smoke: bool) -> Set {
    let runs: Vec<EndToEndRun> = Kind::ALL
        .into_iter()
        .map(|kind| {
            let run = run_end_to_end(kind, seed, seconds, smoke);
            run.print();
            run
        })
        .collect();
    let pass = run_traced(seed, seconds, smoke);
    let layers = layer_values(&pass);
    print_layers(&layers);
    let failed = runs.iter().map(EndToEndRun::failed).sum::<u64>() + pass.failed;
    Set { runs, layers, failed }
}

fn write_results(set: &Set, host: Json, seed: u64, seconds: f64) {
    let mut end_to_end = BTreeMap::new();
    for run in &set.runs {
        let metrics: BTreeMap<String, Json> = catalogue::END_TO_END
            .iter()
            .zip(run.values())
            .map(|(m, v)| (m.name.to_string(), metric_json(v, m.unit)))
            .collect();
        end_to_end.insert(run.kind.name().to_string(), Json::Obj(metrics));
    }
    let per_layer: BTreeMap<String, Json> = set
        .layers
        .iter()
        .map(|(l, v)| {
            let mut o = BTreeMap::from([
                ("value".to_string(), Json::Num(*v)),
                ("unit".to_string(), Json::Str(l.unit.to_string())),
                ("moves".to_string(), Json::Str(l.moves.to_string())),
            ]);
            let better = if l.higher_is_better { "higher" } else { "lower" };
            o.insert("better".to_string(), Json::Str(better.to_string()));
            (l.name.clone(), Json::Obj(o))
        })
        .collect();
    let doc = Json::Obj(BTreeMap::from([
        ("host".to_string(), host),
        ("seed".to_string(), Json::Num(seed as f64)),
        ("seconds".to_string(), Json::Num(seconds)),
        ("end_to_end".to_string(), Json::Obj(end_to_end)),
        ("per_layer".to_string(), Json::Obj(per_layer)),
    ]));
    let path = out_dir().join("results.json");
    let written =
        std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, format!("{doc}\n")));
    if let Err(e) = written {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("results written to {}", path.display());
}

/// Compares set B against set A: every end-to-end metric on every
/// workload against its bound in `BENCHMARK.json`, every exact metric
/// for equality. Returns the number of breaches.
fn compare_sets(a: &Set, b: &Set, declared: &Json) -> usize {
    let bound_of = |name: &str| -> f64 {
        declared
            .get("end_to_end")
            .and_then(Json::as_arr)
            .and_then(|ms| ms.iter().find(|m| m.get("name").and_then(Json::as_str) == Some(name)))
            .and_then(|m| m.get("bound"))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("BENCHMARK.json gives {name} a bound"))
    };
    let mut breaches = 0;
    println!("== A/A: second set against the first ==");
    for (ra, rb) in a.runs.iter().zip(&b.runs) {
        for ((metric, va), vb) in catalogue::END_TO_END.iter().zip(ra.values()).zip(rb.values()) {
            let bound = bound_of(metric.name);
            // Positive when B is worse than A.
            let worse = if metric.higher_is_better { (va - vb) / va } else { (vb - va) / va };
            let exact = metric.name == "model_error_pct";
            let breach = if exact { va.to_bits() != vb.to_bits() } else { worse > bound };
            breaches += usize::from(breach);
            println!(
                "  {:<16} {:<18} A {:>14.4} B {:>14.4} worse by {:>7.2} % of bound {:>5.1} % {}",
                ra.kind.name(),
                metric.name,
                va,
                vb,
                100.0 * worse,
                100.0 * bound,
                if breach { "BREACH" } else { "ok" }
            );
        }
    }
    for ((layer, va), (_, vb)) in a.layers.iter().zip(&b.layers) {
        if layer.exact && va.to_bits() != vb.to_bits() {
            breaches += 1;
            println!("  {:<46} A {va} B {vb} BREACH: an exact metric moved", layer.name);
        }
    }
    breaches
}

fn main() {
    let declared = declared();
    let run_seconds = declared.get("run_seconds").and_then(Json::as_f64);
    let args = parse_args(run_seconds.expect("BENCHMARK.json gives run_seconds"));
    // The library workloads and the ladder measure one thread; the serve
    // workloads add their own worker and client threads.
    fhe_math::par::set_max_threads(1);
    let e2e_names: Vec<&str> = catalogue::END_TO_END.iter().map(|m| m.name).collect();
    check_declared(&declared, "end_to_end", &e2e_names);
    let layers = catalogue::layers();
    let layer_names: Vec<&str> = layers.iter().map(|l| l.name.as_str()).collect();
    check_declared(&declared, "per_layer", &layer_names);

    let failed = match args.workload {
        Some(kind) if !args.trace => {
            let run = run_end_to_end(kind, args.seed, args.seconds, false);
            run.print();
            let metrics = catalogue::END_TO_END
                .iter()
                .zip(run.values())
                .map(|(m, v)| (m.name.to_string(), metric_json(v, m.unit)))
                .collect();
            println!("{}", result_line(run.measured.attempted, run.failed(), metrics));
            run.failed()
        }
        Some(_) => {
            let pass = run_traced(args.seed, args.seconds, false);
            let values = layer_values(&pass);
            print_layers(&values);
            let metrics =
                values.iter().map(|(l, v)| (l.name.clone(), metric_json(*v, l.unit))).collect();
            println!("{}", result_line(pass.attempted, pass.failed, metrics));
            pass.failed
        }
        None => {
            let host = host::facts();
            println!("host: {host}");
            let first = run_set(args.seed, args.seconds, args.smoke);
            write_results(&first, host, args.seed, args.seconds);
            let mut failed = first.failed;
            if args.aa {
                let second = run_set(args.seed, args.seconds, args.smoke);
                failed += second.failed;
                let breaches = compare_sets(&first, &second, &declared);
                println!("A/A: {breaches} breach(es)");
                failed += breaches as u64;
            }
            failed
        }
    };
    if failed > 0 {
        eprintln!("{failed} failure(s): see the report above");
        std::process::exit(1);
    }
}
