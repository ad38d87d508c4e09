//! Every metric the benchmark reports: name, unit, which way is better,
//! and — for a per-layer metric — the end-to-end metric and workload it
//! should move. `BENCHMARK.json` lists the same names; a run refuses to
//! report if the two disagree.

use crate::model;

/// An end-to-end metric: reported by every untraced run.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd { name: "setup_s", unit: "s", higher_is_better: false },
    EndToEnd { name: "throughput_per_s", unit: "1/s", higher_is_better: true },
    EndToEnd { name: "latency_p50_ms", unit: "ms", higher_is_better: false },
    EndToEnd { name: "latency_p95_ms", unit: "ms", higher_is_better: false },
    EndToEnd { name: "ok_share", unit: "share", higher_is_better: true },
    EndToEnd { name: "peak_heap_mb", unit: "MB", higher_is_better: false },
    EndToEnd { name: "model_error_pct", unit: "%", higher_is_better: false },
];

/// A per-layer metric: reported by a traced run.
pub struct Layer {
    pub name: String,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// `<end-to-end metric> @ <workload>` this layer should move.
    pub moves: &'static str,
    /// Repeats bit for bit between runs: a count, not a timing.
    pub exact: bool,
}

const SERVE_BOTH: &str = "throughput_per_s, latency_p50_ms @ serve_hot, serve_cold";
const SERVE_HOT: &str = "throughput_per_s, latency_p50_ms @ serve_hot";
const SERVE_COLD: &str = "throughput_per_s, latency_p50_ms @ serve_cold";
const MLP: &str = "throughput_per_s, latency_p50_ms @ ckks_mlp";
const TOY: &str = "service.exec.* and so throughput_per_s @ serve_hot, serve_cold";
const CROSS: &str = "throughput_per_s, latency_p50_ms @ cross_threshold";
const SIM: &str = "throughput_per_s @ sim_suite";
const MODEL: &str = "model_error_pct @ sim_suite";
const NONE: &str = "diagnostic, gates nothing";

const CKKS_OPS: [&str; 14] = [
    "keygen_sk",
    "keygen_rlk",
    "keygen_gk1",
    "encode",
    "encrypt",
    "decrypt",
    "decode",
    "add",
    "mul_plain",
    "mul_relin",
    "square_relin",
    "rescale",
    "rotate",
    "rotate_hoisted3",
];

/// Rows that come out of the model or a counter, not a clock.
const EXACT_PREFIXES: [&str; 8] = [
    "core.sim.cycles.",
    "core.sim.utilization.",
    "core.sim.steps_total",
    "metaop.mults.",
    "metaop.trace_ops.",
    "baselines.speedup.",
    "fhe_ckks.allocs_per_op.",
    "fhe_ckks.bytes_per_op.",
];

pub const WORKLOAD_TAGS: [&str; 2] = ["hot", "cold"];

/// The per-layer ladder, service stages first, kernels and model last.
pub fn layers() -> Vec<Layer> {
    let mut out = Vec::new();
    let mut add =
        |name: String, unit: &'static str, higher_is_better: bool, moves: &'static str| {
            let exact = EXACT_PREFIXES.iter().any(|p| name.starts_with(p));
            out.push(Layer { name, unit, higher_is_better, moves, exact });
        };
    let lower = false;
    let higher = true;

    add("service.submit_us".into(), "us", lower, SERVE_BOTH);
    add("service.plan.compile_us".into(), "us", lower, SERVE_BOTH);
    add("service.queue.offer_take_ns".into(), "ns", lower, SERVE_BOTH);
    add("service.pack.pack_us".into(), "us", lower, SERVE_HOT);
    add("service.keycache.hit_ns".into(), "ns", lower, SERVE_HOT);
    add("service.keycache.miss_us".into(), "us", lower, SERVE_COLD);
    add("service.gate.run_checked_us".into(), "us", lower, SERVE_BOTH);
    for template in ["saxpb", "quad", "cross", "prod", "quartic"] {
        add(format!("service.exec.ckks_us.{template}"), "us", lower, SERVE_BOTH);
    }
    add("service.exec.tfhe_nand_us".into(), "us", lower, SERVE_BOTH);
    for (tag, moves) in WORKLOAD_TAGS.into_iter().zip([SERVE_HOT, SERVE_COLD]) {
        add(format!("service.pack.members_per_batch.{tag}"), "ratio", higher, moves);
        add(format!("service.keycache.hit_rate.{tag}"), "share", higher, moves);
        add(format!("service.queue.rejected_share.{tag}"), "share", lower, moves);
        add(format!("service.residual_ms.{tag}"), "ms", lower, moves);
        add(format!("service.open_loop.p50_ms.{tag}"), "ms", lower, NONE);
        add(format!("service.open_loop.p95_ms.{tag}"), "ms", lower, NONE);
        add(format!("service.open_loop.p99_ms.{tag}"), "ms", lower, NONE);
        add(format!("service.gen_max_late_ms.{tag}"), "ms", lower, NONE);
        add(format!("service.sweep.max_ok_rps.{tag}"), "1/s", higher, NONE);
    }
    add("service.keycache.evictions.cold".into(), "count", lower, SERVE_COLD);

    for (ring, moves) in [("toy", TOY), ("mlp", MLP)] {
        for op in CKKS_OPS {
            add(format!("fhe_ckks.{op}_us.{ring}"), "us", lower, moves);
        }
    }
    add("fhe_ckks.linear.apply_bsgs_ms.mlp".into(), "ms", lower, MLP);
    add("fhe_ckks.allocs_per_op.mul_rescale.mlp".into(), "count", lower, "peak_heap_mb @ ckks_mlp");
    add("fhe_ckks.bytes_per_op.mul_rescale.mlp".into(), "count", lower, "peak_heap_mb @ ckks_mlp");

    for kernel in ["ntt_fwd", "ntt_inv", "modup", "moddown", "mul_elementwise"] {
        add(format!("fhe_math.{kernel}_us"), "us", lower, MLP);
    }
    add("fhe_math.par.speedup_ntt".into(), "ratio", higher, NONE);

    add("fhe_tfhe.keygen_s".into(), "s", lower, "setup_s @ cross_threshold");
    for (name, unit) in [
        ("external_product_us", "us"),
        ("cmux_us", "us"),
        ("blind_rotate_ms", "ms"),
        ("sample_extract_us", "us"),
        ("keyswitch_us", "us"),
        ("pbs_ms", "ms"),
    ] {
        add(format!("fhe_tfhe.{name}"), unit, lower, CROSS);
    }
    add("fhe_tfhe.pbs_share_pct".into(), "%", higher, NONE);
    add("fhe_tfhe.nand_us.toy".into(), "us", lower, "service.exec.tfhe_nand_us");

    add("bridge.keygen_s".into(), "s", lower, "setup_s @ cross_threshold");
    for (name, unit) in [
        ("extract_lwe_us", "us"),
        ("mod_switch_us", "us"),
        ("ks_switch_ms", "ms"),
        ("switch_ms", "ms"),
    ] {
        add(format!("bridge.{name}"), unit, lower, "latency_p50_ms @ cross_threshold");
    }

    add("metaop.ntt_lowering_us".into(), "us", lower, NONE);
    add("metaop.trace_ops.ntt4096".into(), "count", lower, MODEL);
    for (name, _) in model::fig7a_counts() {
        add(format!("metaop.mults.{name}"), "count", lower, MODEL);
    }

    for program in model::programs() {
        add(format!("core.sim.cycles.{}", program.name), "cycles", lower, MODEL);
    }
    add("core.sim.utilization.bootstrapping".into(), "share", higher, MODEL);
    add("core.sim.steps_total".into(), "count", lower, SIM);
    add("core.sim.host_ns_per_step".into(), "ns", lower, SIM);
    for (design, _) in model::DESIGNS {
        add(format!("baselines.speedup.{design}"), "ratio", higher, MODEL);
    }
    add("baselines.host_us_per_design".into(), "us", lower, SIM);

    for workload in crate::workloads::Kind::ALL {
        add(format!("telemetry.trace_overhead_pct.{}", workload.name()), "%", lower, NONE);
    }
    out
}
