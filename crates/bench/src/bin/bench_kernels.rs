//! Wall-time recorder for the hot kernels: RNS NTT round-trips, Modup,
//! Moddown and the CKKS mul+rescale pipeline, plus the CKKS encode/decode
//! boundary, at n = 2^8 and 2^12 … 2^16, on the calling thread, and under
//! the table a forward ÷ inverse NTT ratio per size, `alloc_free_ns`, the
//! cost of one warmed 512-byte `Vec` allocation and free through the
//! counting global allocator, and `minor_faults_per_keyswitch` /
//! `minor_faults_per_bsgs_layer`, the page faults one warmed CKKS key
//! switch and one warmed BSGS layer at the `ckks_mlp` ring take (`n/a` off
//! Linux).
//!
//! Outputs a table (or `--json` document) on stdout; `--out PATH` also
//! writes the raw measurements as JSON. Nothing here compares two runs: wall-clock
//! comparisons (parent against change, same host, alternating pairs) belong
//! to `benchmark/`, and the allocation counts CI holds are exact-count
//! tests (`fhe-ckks/tests/no_alloc.rs` and its `fhe-math` / `fhe-tfhe`
//! siblings).
//!
//! ```text
//! cargo run --release -p bench --bin bench_kernels -- --out /tmp/kernels.json
//! ```
//!
//! Flags (see `DESIGN.md` §10 for the methodology):
//!
//! * `--reps N` — timed repetitions per kernel after one untimed warm-up;
//!   the best (minimum) wall time is recorded. Defaults to 3 (1 under
//!   `--smoke`).
//! * `--alloc-profile` — re-runs each kernel once, warmed up, under the
//!   counting global allocator and records the per-call allocation count,
//!   bytes requested, and interval peak heap (after a peak re-baseline) in
//!   an `"alloc"` stanza per kernel row.
//! * `--out PATH` — write the measurements (schema v3, git commit and host
//!   facts stamped) to `PATH`. Without it no file is written.
//! * `--trace-out PATH` — installs a process-global telemetry handle so
//!   the kernel-level histogram probes (`math.*`, `ckks.*`) capture
//!   latency distributions, and writes a Chrome/Perfetto trace.
//!
//! `--smoke` shrinks the sweep to the one toy size.

use std::time::Instant;

use bench::{fmt_time, BenchArgs, Reporter};
use fhe_ckks::linear::LinearTransform;
use fhe_ckks::{
    CkksContext, CkksParams, Complex64, Encoder, Evaluator, GaloisKeys, RelinKey, SecretKey,
};
use fhe_math::{generate_ntt_primes, Modulus, RnsBasis, RnsContext};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use telemetry::json::Json;

/// Total RNS channels for the raw-kernel sweeps (6 ciphertext + 2 special).
const CHANNELS: usize = 8;
/// Channels in the Modup source digit.
const DIGIT: usize = 3;
/// Special channels for Moddown.
const SPECIALS: usize = 2;

/// Allocation footprint of one warmed-up kernel call.
#[derive(Clone, Copy)]
struct AllocPoint {
    /// Heap allocation calls attributed to the calling thread.
    allocs: u64,
    /// Bytes requested by those calls.
    bytes: u64,
    /// Process-wide peak live heap over the call, after a re-baseline.
    peak_bytes: u64,
}

struct Measurement {
    kernel: &'static str,
    n: usize,
    channels: usize,
    /// Best wall time of one call.
    time_s: f64,
    /// Per-call allocation counts and interval peak heap from one extra
    /// run (`--alloc-profile` only).
    alloc: Option<AllocPoint>,
}

/// Best of `reps` timed runs of `f`, after one untimed warm-up call.
fn time_reps<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Best time of `f` over `reps` runs (see [`time_reps`]), plus an
/// allocation profile of one extra call when `alloc_profile` is set.
fn measure<F: FnMut()>(reps: usize, alloc_profile: bool, mut f: F) -> (f64, Option<AllocPoint>) {
    let time_s = time_reps(reps, &mut f);
    let alloc = alloc_profile.then(|| {
        telemetry::alloc::reset_peak();
        let ((), d) = telemetry::alloc::alloc_delta(&mut f);
        let peak_bytes = telemetry::alloc::global_stats().peak_bytes;
        AllocPoint { allocs: d.allocs, bytes: d.bytes, peak_bytes }
    });
    (time_s, alloc)
}

/// Deterministic pseudo-random residues for channel `c` of a degree-`n`
/// poly (no RNG dependency in the timing loop).
fn fill(n: usize, c: usize, m: Modulus) -> Vec<u64> {
    (0..n)
        .map(|i| m.reduce((i as u64 ^ (c as u64) << 32).wrapping_mul(0x9e37_79b9_7f4a_7c15)))
        .collect()
}

fn rns_kernels(n: usize, reps: usize, alloc_profile: bool, out: &mut Vec<Measurement>) {
    let primes = generate_ntt_primes(50, n, CHANNELS).expect("enough 50-bit NTT primes");
    let moduli: Vec<Modulus> = primes.iter().map(|&q| Modulus::new(q).expect("prime")).collect();
    let ctx = RnsContext::new(n, RnsBasis::new(moduli.clone()).expect("basis")).expect("context");

    // Forward and inverse NTT over all channels, timed as separate kernels
    // so a direction-specific slowdown shows. Both transforms are pure
    // functions of the slice, so repeating one direction back-to-back is
    // valid: `forward` accepts any canonical input and `inverse` accepts
    // `[0, 2q)`.
    let mut bufs: Vec<Vec<u64>> = moduli.iter().enumerate().map(|(c, &m)| fill(n, c, m)).collect();
    let tables = ctx.tables();
    let (time_s, alloc) = measure(reps, alloc_profile, || {
        bufs.iter_mut().zip(tables).for_each(|(b, t)| t.forward(b));
    });
    out.push(Measurement { kernel: "ntt_fwd", n, channels: CHANNELS, time_s, alloc });
    let (time_s, alloc) = measure(reps, alloc_profile, || {
        bufs.iter_mut().zip(tables).for_each(|(b, t)| t.inverse(b));
    });
    out.push(Measurement { kernel: "ntt_inv", n, channels: CHANNELS, time_s, alloc });

    // Modup: DIGIT source channels onto the remaining channels.
    let src_idx: Vec<usize> = (0..DIGIT).collect();
    let dst_idx: Vec<usize> = (DIGIT..CHANNELS).collect();
    let plan = ctx.bconv(&src_idx, &dst_idx).expect("plan");
    let src_data: Vec<Vec<u64>> = src_idx.iter().map(|&c| fill(n, c, moduli[c])).collect();
    let src_refs: Vec<&[u64]> = src_data.iter().map(Vec::as_slice).collect();
    let mut modup_out = vec![Vec::new(); dst_idx.len()];
    let (time_s, alloc) =
        measure(reps, alloc_profile, || plan.apply_into(&src_refs, &mut modup_out).expect("modup"));
    out.push(Measurement { kernel: "modup", n, channels: dst_idx.len(), time_s, alloc });

    // Moddown: CHANNELS-SPECIALS ciphertext channels, SPECIALS specials.
    let q_idx: Vec<usize> = (0..CHANNELS - SPECIALS).collect();
    let p_idx: Vec<usize> = (CHANNELS - SPECIALS..CHANNELS).collect();
    let q_data: Vec<Vec<u64>> = q_idx.iter().map(|&c| fill(n, c, moduli[c])).collect();
    let p_data: Vec<Vec<u64>> = p_idx.iter().map(|&c| fill(n, c, moduli[c])).collect();
    let q_refs: Vec<&[u64]> = q_data.iter().map(Vec::as_slice).collect();
    let p_refs: Vec<&[u64]> = p_data.iter().map(Vec::as_slice).collect();
    let mut moddown_out = vec![Vec::new(); q_idx.len()];
    let (time_s, alloc) = measure(reps, alloc_profile, || {
        ctx.moddown_into(&q_refs, &p_refs, &q_idx, &p_idx, &mut moddown_out).expect("moddown");
    });
    out.push(Measurement { kernel: "moddown", n, channels: q_idx.len(), time_s, alloc });
}

fn ckks_kernel(n: usize, reps: usize, alloc_profile: bool, out: &mut Vec<Measurement>) {
    // Small chain so setup stays cheap; the kernel under test is the
    // mul + relinearize + rescale pipeline, whose cost scales with n.
    let (max_level, dnum, scale_bits) = if n <= 64 { (2, 2, 26) } else { (3, 2, 36) };
    let params = CkksParams::new(n, max_level, dnum, scale_bits).expect("params");
    let ctx = CkksContext::new(params).expect("context");
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    let sk = SecretKey::generate(&ctx, &mut rng).unwrap();
    let rlk = RelinKey::generate(&ctx, &sk, &mut rng).expect("relin key");
    let enc = Encoder::new(&ctx);
    let ev = Evaluator::new(&ctx);
    let slots = ctx.n() / 2;
    let values: Vec<f64> = (0..slots).map(|j| ((j % 7) as f64 - 3.0) * 0.25).collect();
    let pt = enc.encode(&values).expect("encode");
    let ca = sk.encrypt(&ctx, &pt, &mut rng).expect("encrypt");
    let cb = sk.encrypt(&ctx, &pt, &mut rng).expect("encrypt");
    let level = ca.level();
    let mut record = |kernel: &'static str, f: &mut dyn FnMut()| {
        let (time_s, alloc) = measure(reps, alloc_profile, f);
        out.push(Measurement { kernel, n, channels: level + 1, time_s, alloc });
    };
    record("ckks_mul_rescale", &mut || {
        let prod = ev.mul(&ca, &cb, &rlk).expect("mul");
        std::hint::black_box(ev.rescale(&prod).expect("rescale"));
    });
    // The plaintext boundary at the same sizes: what a client pays per
    // request on either side of the evaluation.
    record("ckks_encode", &mut || {
        std::hint::black_box(enc.encode(&values).expect("encode"));
    });
    record("ckks_decode", &mut || {
        std::hint::black_box(enc.decode(&pt).expect("decode"));
    });
}

/// Calls [`minor_faults_per_call`] averages over.
const FAULT_CALLS: u32 = 100;

/// This process's minor page faults so far: field 10 of `/proc/self/stat`,
/// counted after the `)` that closes the command name (which may hold
/// spaces). `None` off Linux.
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    stat[stat.rfind(')')? + 2..].split_whitespace().nth(7)?.parse().ok()
}

/// Minor page faults per warmed call at the `ckks_mlp` ring, level 6, over
/// [`FAULT_CALLS`] calls: `(per key switch, per BSGS
/// layer)`. A key switch is one rotation of a three-rotation
/// `rotate_hoisted` (a layer's babies before they stayed in `Q·P`: one
/// stage 1, three key MACs and closes); the layer is `apply_bsgs` of the
/// benchmark's 16-diagonal banded shape. `None` where `/proc/self/stat`
/// does not exist.
fn minor_faults_per_call() -> Option<(f64, f64)> {
    minor_faults()?;
    let params = CkksParams::new(1 << 12, 6, 3, 36).expect("the ckks_mlp ring");
    let ctx = CkksContext::new(params).expect("context");
    let mut rng = ChaCha8Rng::seed_from_u64(19);
    let sk = SecretKey::generate(&ctx, &mut rng).expect("secret key");
    let enc = Encoder::new(&ctx);
    let slots = enc.slots();
    let layer = LinearTransform::from_diagonals(
        slots,
        (0..16).map(|d| (d, vec![Complex64::new(0.5 / (d + 1) as f64, 0.0); slots])),
    )
    .expect("banded layer");
    let gk = GaloisKeys::generate(&ctx, &sk, &layer.required_rotations_bsgs(), false, &mut rng)
        .expect("galois keys");
    let values: Vec<f64> = (0..slots).map(|j| (j % 9) as f64 / 8.0 - 0.5).collect();
    let ct = sk.encrypt(&ctx, &enc.encode(&values).expect("encode"), &mut rng).expect("encrypt");
    let ev = Evaluator::new(&ctx);
    let per_call = |call: &dyn Fn()| {
        call();
        let before = minor_faults()?;
        (0..FAULT_CALLS).for_each(|_| call());
        Some((minor_faults()? - before) as f64 / f64::from(FAULT_CALLS))
    };
    let rotations = [1, 2, 3];
    let hoisted = || drop(ev.rotate_hoisted(&ct, &rotations, &gk).expect("rotate_hoisted"));
    let keyswitch = per_call(&hoisted)? / rotations.len() as f64;
    let bsgs = per_call(&|| drop(layer.apply_bsgs(&ev, &enc, &ct, &gk).expect("apply_bsgs")))?;
    Some((keyswitch, bsgs))
}

fn to_json(measurements: &[Measurement], note: &str, reps: usize) -> Json {
    let mut doc = std::collections::BTreeMap::new();
    doc.insert("schema_version".to_string(), Json::Num(3.0));
    doc.insert("git_commit".to_string(), Json::Str(bench::git_commit()));
    let mut host = std::collections::BTreeMap::new();
    host.insert("threads".to_string(), Json::Num(bench::host_threads() as f64));
    if let Some(mb) = bench::mem_total_mb() {
        host.insert("mem_total_mb".to_string(), Json::Num(mb as f64));
    }
    host.insert("reps".to_string(), Json::Num(reps as f64));
    doc.insert("host".to_string(), Json::Obj(host));
    doc.insert("note".to_string(), Json::Str(note.to_string()));
    doc.insert(
        "kernels".to_string(),
        Json::Arr(
            measurements
                .iter()
                .map(|m| {
                    let mut o = std::collections::BTreeMap::new();
                    o.insert("kernel".to_string(), Json::Str(m.kernel.to_string()));
                    o.insert("n".to_string(), Json::Num(m.n as f64));
                    o.insert("channels".to_string(), Json::Num(m.channels as f64));
                    o.insert("time_s".to_string(), Json::Num(m.time_s));
                    if let Some(a) = &m.alloc {
                        let mut ao = std::collections::BTreeMap::new();
                        ao.insert("allocs".to_string(), Json::Num(a.allocs as f64));
                        ao.insert("bytes".to_string(), Json::Num(a.bytes as f64));
                        ao.insert("peak_bytes".to_string(), Json::Num(a.peak_bytes as f64));
                        o.insert("alloc".to_string(), Json::Obj(ao));
                    }
                    Json::Obj(o)
                })
                .collect(),
        ),
    );
    Json::Obj(doc)
}

fn main() {
    let args = BenchArgs::parse_with(&["--smoke", "--alloc-profile", "--out", "--reps"]);
    let smoke = args.rest.iter().any(|a| a == "--smoke");
    let alloc_profile = args.rest.iter().any(|a| a == "--alloc-profile");
    let out_path = args.value("--out");
    let reps = args.u64_at_least("--reps", 1).map_or(if smoke { 1 } else { 3 }, |r| r as usize);
    let mut rep = Reporter::from_args(&args);

    // With --trace-out the handle is installed process-globally so the
    // histogram-only Timer probes inside fhe-math / fhe-ckks feed per-
    // kernel latency distributions into the exported snapshot.
    let tel = bench::telemetry_from_args(&args);
    if tel.is_enabled() {
        telemetry::install(tel.clone());
        tel.set_meta("bench.reps", &reps.to_string());
        tel.set_meta("bench.smoke", &smoke.to_string());
    }

    let sizes: Vec<usize> = if smoke {
        vec![1 << 8]
    } else {
        std::iter::once(1 << 8).chain((12..=16).map(|k| 1 << k)).collect()
    };

    let mut measurements = Vec::new();
    for &n in &sizes {
        if !rep.is_json() {
            println!("measuring n = {n}...");
        }
        rns_kernels(n, reps, alloc_profile, &mut measurements);
        // CKKS at every size would dominate the run; sample the endpoints.
        if n == sizes[0] || n == *sizes.last().expect("nonempty") {
            ckks_kernel(n, reps, alloc_profile, &mut measurements);
        }
    }

    let note = format!(
        "best-of-{reps} wall times of one call on the calling thread (scalar kernels, \
         checksums on), host with {} hardware threads.",
        bench::host_threads()
    );

    let rows: Vec<Vec<String>> = measurements
        .iter()
        .map(|m| {
            vec![m.kernel.to_string(), m.n.to_string(), m.channels.to_string(), fmt_time(m.time_s)]
        })
        .collect();
    rep.table("Kernels", &["kernel", "n", "channels", "time"], &rows);
    // Forward against inverse, per size: both are `n/2 · log n` butterflies
    // of three multiplies each, so a ratio far from 1 is a defect in one
    // direction's code, not in the algorithm. A record; nothing gates on it.
    for &n in &sizes {
        let time_s =
            |kernel| measurements.iter().find(|m| m.kernel == kernel && m.n == n).map(|m| m.time_s);
        if let (Some(fwd), Some(inv)) = (time_s("ntt_fwd"), time_s("ntt_inv")) {
            rep.note(&format!("fwd/inv n = {n}: {:.2}", fwd / inv));
        }
    }
    // What the allocation ledger itself costs: every heap request in the
    // rows above paid this, on top of `System`.
    const ALLOC_FREE_CALLS: u32 = 100_000;
    let batch_s = time_reps(reps, || {
        for _ in 0..ALLOC_FREE_CALLS {
            drop(std::hint::black_box(Vec::<u8>::with_capacity(512)));
        }
    });
    rep.note(&format!(
        "alloc_free_ns: {:.1} (one 512-B Vec alloc + free through the tracking allocator, \
         best of {reps} warmed batches of {ALLOC_FREE_CALLS})",
        batch_s * 1e9 / f64::from(ALLOC_FREE_CALLS)
    ));
    // First touches of pages the heap handed back to the OS: each costs a
    // minor fault, and a key switch whose buffers churn through the top of
    // the heap pays hundreds of them per call.
    let faults = minor_faults_per_call();
    let shown = |f: Option<f64>| f.map_or("n/a".to_string(), |f| format!("{f:.2}"));
    rep.note(&format!(
        "minor_faults_per_keyswitch: {} (warmed three-rotation rotate_hoisted at the \
         ckks_mlp ring, N = 2^12, level 6; /proc/self/stat around {FAULT_CALLS} \
         calls, per rotation)",
        shown(faults.map(|f| f.0))
    ));
    rep.note(&format!(
        "minor_faults_per_bsgs_layer: {} (warmed apply_bsgs, 16 banded diagonals, same ring \
         and level; {FAULT_CALLS} calls, per call)",
        shown(faults.map(|f| f.1))
    ));
    rep.note(&note);

    if alloc_profile {
        report_alloc_profiles(&mut rep, &measurements);
    }

    if let Some(out_path) = out_path {
        let doc = to_json(&measurements, &note, reps);
        if let Err(e) = std::fs::write(out_path, format!("{doc}\n")) {
            eprintln!("failed to write {out_path}: {e}");
            std::process::exit(1);
        }
        if !rep.is_json() {
            println!("wrote {out_path}");
        }
    }

    rep.finish();
    if let Some(path) = &args.trace_out {
        bench::write_trace(&tel, path);
    }
}

/// Renders the per-kernel allocation table (`--alloc-profile`).
fn report_alloc_profiles(rep: &mut Reporter, measurements: &[Measurement]) {
    let rows: Vec<Vec<String>> = measurements
        .iter()
        .filter_map(|m| {
            m.alloc.map(|a| {
                vec![
                    m.kernel.to_string(),
                    m.n.to_string(),
                    m.channels.to_string(),
                    a.allocs.to_string(),
                    fmt_bytes(a.bytes),
                    fmt_bytes(a.peak_bytes),
                ]
            })
        })
        .collect();
    rep.table(
        "Allocation profile: one warmed-up call per kernel",
        &["kernel", "n", "channels", "allocs", "bytes", "peak heap"],
        &rows,
    );
    rep.note(
        "allocs/bytes are heap requests attributed to the calling thread for one \
         steady-state call; peak heap is the process-wide high-water mark over that \
         call after a re-baseline (so it includes the buffers the call touched, not \
         history).",
    );
}

/// Formats a byte count with a binary-prefix unit.
fn fmt_bytes(b: u64) -> String {
    match b {
        0..=1023 => format!("{b} B"),
        1024..=1048575 => format!("{:.1} KiB", b as f64 / 1024.0),
        1048576..=1073741823 => format!("{:.1} MiB", b as f64 / 1048576.0),
        _ => format!("{:.2} GiB", b as f64 / 1073741824.0),
    }
}
