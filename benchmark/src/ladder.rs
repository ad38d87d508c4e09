//! The per-layer ladder: direct timed calls into each crate's public
//! functions, from the kernels up to one service stage.
//!
//! Every row is the median of `REPS` calls after `WARM` untimed ones,
//! pinned to one thread (`par::set_max_threads(1)`), except the three
//! set-I blind-rotation rows, which take over half a second a call and
//! get `SLOW_REPS`. Sub-microsecond calls are timed a thousand at a time.

use std::sync::atomic::AtomicBool;
use std::time::Duration;

use fhe_ckks::{CkksContext, CkksParams, Encoder, Evaluator, GaloisKeys, RelinKey, SecretKey};
use fhe_math::{generate_ntt_primes, par, Modulus, NttTable, RnsBasis, RnsContext, RnsPoly};
use fhe_tfhe::{gates, generate_keys, TfheParams, TrgswCiphertext};
use metaop::ntt::NttLowering;
use metaop::MetaOpTrace;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use service::trace::Template;
use service::{
    exec, plan, AdmissionConfig, AdmissionQueue, FaultFlag, KeyCache, Payload, Request, Scheme,
};

use crate::stats::time_median;
use crate::workloads::cross::CrossThreshold;

const WARM: usize = 3;
/// Timed calls per row in a full run (`--smoke` uses `SMOKE_REPS`).
pub const REPS: usize = 31;
pub const SMOKE_REPS: usize = 1;
const SLOW_REPS: usize = 3;
/// Calls per timed sample for sub-microsecond operations.
const BATCH: usize = 1000;

/// Named per-layer values, in the order measured, and the number of
/// timed calls behind each timing row.
pub struct Rows {
    values: Vec<(String, f64)>,
    reps: usize,
}

impl Rows {
    pub fn new(reps: usize) -> Self {
        Rows { values: Vec::new(), reps }
    }

    pub fn push(&mut self, name: impl Into<String>, value: f64) {
        self.values.push((name.into(), value));
    }

    pub fn get(&self, name: &str) -> f64 {
        let row = self.values.iter().find(|(n, _)| n == name);
        row.unwrap_or_else(|| panic!("row {name} was measured")).1
    }

    /// Median microseconds per call of `f`.
    fn us<R>(&self, f: impl FnMut() -> R) -> f64 {
        time_median(WARM, self.reps, f) * 1e6
    }

    /// Median seconds per call of `f`, timed `BATCH` calls at a time.
    fn batched<R>(&self, mut f: impl FnMut() -> R) -> f64 {
        let per_batch = time_median(1, self.reps, || {
            for _ in 0..BATCH {
                std::hint::black_box(f());
            }
        });
        per_batch / BATCH as f64
    }
}

fn request(template: Template, tenant: u64) -> Request {
    let (scheme, payload) = if template.is_tfhe() {
        (Scheme::Tfhe, Payload::TfheBits(vec![true, false]))
    } else {
        (Scheme::Ckks, Payload::CkksSlots((0..8).map(|i| 0.05 * i as f64).collect()))
    };
    Request { tenant, scheme, ops: template.ops(), payload, fault: FaultFlag::None }
}

/// `service.*` stage rows: each stage a request passes through, called
/// the way the server calls it, on the toy ring the server uses.
pub fn service(seed: u64, rows: &mut Rows) {
    let ctx = CkksContext::new(CkksParams::toy().expect("toy ring")).expect("context");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let requests: Vec<Request> = Template::ALL.iter().map(|&t| request(t, 1)).collect();
    let plans: Vec<plan::Plan> =
        requests.iter().map(|r| plan::compile(r, &ctx).expect("templates compile")).collect();

    let mut i = 0;
    rows.push(
        "service.plan.compile_us",
        rows.batched(|| {
            i += 1;
            plan::compile(&requests[i % requests.len()], &ctx)
        }) * 1e6,
    );

    let queue: AdmissionQueue<u64> = AdmissionQueue::new(AdmissionConfig::default());
    rows.push(
        "service.queue.offer_take_ns",
        rows.batched(|| {
            queue.offer(7, 7).expect("empty queue admits");
            queue.take(Duration::ZERO)
        }) * 1e9,
    );

    rows.push(
        "service.pack.pack_us",
        rows.batched(|| {
            let members: Vec<Vec<f64>> = vec![vec![0.25; 8]; 4];
            let batches = service::pack(members, Vec::len, ctx.n() / 2);
            service::pack::combined_payload(&batches[0], Vec::as_slice)
        }) * 1e6,
    );

    let mut cache = KeyCache::new(128, seed);
    let keys = cache.get_ckks(1, &ctx).expect("keygen");
    rows.push("service.keycache.hit_ns", rows.batched(|| cache.get_ckks(1, &ctx)) * 1e9);
    // Fill the cache first, so every timed miss also evicts, as on
    // `serve_cold`.
    let mut tenant = 1000u64;
    let mut miss = || {
        tenant += 1;
        cache.get_ckks(tenant, &ctx)
    };
    for _ in 0..128 {
        miss().expect("keygen");
    }
    rows.push("service.keycache.miss_us", rows.us(miss));

    let sim = crate::model::simulator();
    let mut i = 0;
    rows.push(
        "service.gate.run_checked_us",
        rows.batched(|| {
            i += 1;
            let p = &plans[i % plans.len()];
            sim.run_checked(&p.steps, &p.manifest)
        }) * 1e6,
    );

    let cancel = AtomicBool::new(false);
    for ((template, request), plan) in Template::ALL.iter().zip(&requests).zip(&plans) {
        match &request.payload {
            Payload::CkksSlots(slots) => {
                let name =
                    format!("service.exec.ckks_us.{}", format!("{template:?}").to_lowercase());
                let run = || {
                    exec::execute_ckks(
                        &ctx,
                        &keys,
                        plan,
                        slots,
                        FaultFlag::None,
                        0,
                        &mut rng,
                        &cancel,
                    )
                };
                rows.push(name, rows.us(run));
            }
            Payload::TfheBits(bits) => {
                let keys = cache.get_tfhe(1, &ctx, &TfheParams::toy()).expect("tfhe keygen");
                let (ck, sk) = keys.tfhe.as_ref().expect("tfhe keys present");
                let run =
                    || exec::execute_tfhe(ck, sk, plan, bits, FaultFlag::None, &mut rng, &cancel);
                rows.push("service.exec.tfhe_nand_us", rows.us(run));
            }
        }
    }
}

/// `fhe_ckks.<op>_us.<ring>` rows for one ring. `square_relin` and the
/// others run on fresh top-level ciphertexts.
pub fn ckks_ops(ring: &str, params: CkksParams, seed: u64, rows: &mut Rows) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let ctx = CkksContext::new(params).expect("context");
    let enc = Encoder::new(&ctx);
    let ev = Evaluator::new(&ctx);
    let mut timed: Vec<(&str, f64)> = Vec::new();
    let mut row = |op: &'static str, value: f64| timed.push((op, value));

    row("keygen_sk", rows.us(|| SecretKey::generate(&ctx, &mut rng)));
    let sk = SecretKey::generate(&ctx, &mut rng).expect("secret key");
    row("keygen_rlk", rows.us(|| RelinKey::generate(&ctx, &sk, &mut rng)));
    let rlk = RelinKey::generate(&ctx, &sk, &mut rng).expect("relin key");
    row("keygen_gk1", rows.us(|| GaloisKeys::generate(&ctx, &sk, &[1], false, &mut rng)));
    let gk = GaloisKeys::generate(&ctx, &sk, &[1, 2, 3], false, &mut rng).expect("galois keys");

    let values: Vec<f64> = (0..enc.slots()).map(|j| ((j % 7) as f64 - 3.0) * 0.125).collect();
    row("encode", rows.us(|| enc.encode(&values)));
    let pt = enc.encode(&values).expect("encode");
    row("encrypt", rows.us(|| sk.encrypt(&ctx, &pt, &mut rng)));
    let ca = sk.encrypt(&ctx, &pt, &mut rng).expect("encrypt");
    let cb = sk.encrypt(&ctx, &pt, &mut rng).expect("encrypt");
    row("decrypt", rows.us(|| sk.decrypt(&ca)));
    let decrypted = sk.decrypt(&ca).expect("decrypt");
    row("decode", rows.us(|| enc.decode(&decrypted)));
    row("add", rows.us(|| ev.add(&ca, &cb)));
    row("mul_plain", rows.us(|| ev.mul_plain(&ca, &pt)));
    row("mul_relin", rows.us(|| ev.mul(&ca, &cb, &rlk)));
    row("square_relin", rows.us(|| ev.square(&ca, &rlk)));
    let product = ev.mul(&ca, &cb, &rlk).expect("mul");
    row("rescale", rows.us(|| ev.rescale(&product)));
    row("rotate", rows.us(|| ev.rotate(&ca, 1, &gk)));
    row("rotate_hoisted3", rows.us(|| ev.rotate_hoisted(&ca, &[1, 2, 3], &gk)));

    for (op, value) in timed {
        rows.push(format!("fhe_ckks.{op}_us.{ring}"), value);
    }

    if ring == "mlp" {
        // Exact, so a later change can claim them as counts: heap traffic
        // of one warmed-up mul + rescale on this thread.
        let mul_rescale = || ev.rescale(&ev.mul(&ca, &cb, &rlk).expect("mul")).expect("rescale");
        mul_rescale();
        let (_, delta) = telemetry::alloc::alloc_delta(mul_rescale);
        rows.push("fhe_ckks.allocs_per_op.mul_rescale.mlp", delta.allocs as f64);
        rows.push("fhe_ckks.bytes_per_op.mul_rescale.mlp", delta.bytes as f64);
    }
}

/// Deterministic residues for channel `c` (no RNG in the timing loop).
fn fill(n: usize, c: usize, m: Modulus) -> Vec<u64> {
    (0..n)
        .map(|i| m.reduce((i as u64 ^ (c as u64) << 32).wrapping_mul(0x9e37_79b9_7f4a_7c15)))
        .collect()
}

/// `fhe_math.*` kernel rows at the `mlp` ring's shape: `n = 4096`, seven
/// ciphertext channels, a three-channel digit and three special primes.
pub fn math_kernels(rows: &mut Rows) {
    const N: usize = 1 << 12;
    const Q: usize = 7;
    const DIGIT: usize = 3;
    const P: usize = 3;
    let primes = generate_ntt_primes(36, N, Q + P).expect("enough 36-bit NTT primes");
    let moduli: Vec<Modulus> = primes.iter().map(|&q| Modulus::new(q).expect("prime")).collect();
    let ctx = RnsContext::new(N, RnsBasis::new(moduli.clone()).expect("basis")).expect("context");
    let tables: &[NttTable] = ctx.tables();
    let data =
        |idx: &[usize]| -> Vec<Vec<u64>> { idx.iter().map(|&c| fill(N, c, moduli[c])).collect() };

    let q_idx: Vec<usize> = (0..Q).collect();
    let mut bufs = data(&q_idx);
    let work = (N as u64) * u64::from(N.trailing_zeros());
    let mut ntt = |forward: bool| {
        par::par_iter_mut_in(par::WorkClass::Ntt, &mut bufs, work, |c, b| {
            if forward {
                tables[c].forward(b)
            } else {
                tables[c].inverse(b)
            }
        })
        .expect("ntt")
    };
    let fwd_s = time_median(WARM, rows.reps, || ntt(true));
    rows.push("fhe_math.ntt_fwd_us", fwd_s * 1e6);
    rows.push("fhe_math.ntt_inv_us", rows.us(|| ntt(false)));
    // Informational: one thread against every core, on a host whose
    // second core the generator and the OS also use.
    par::set_max_threads(0);
    let par_s = time_median(WARM, rows.reps, || ntt(true));
    par::set_max_threads(1);
    rows.push("fhe_math.par.speedup_ntt", fwd_s / par_s);

    let src_idx: Vec<usize> = (0..DIGIT).collect();
    let dst_idx: Vec<usize> = (DIGIT..Q + P).collect();
    let bconv = ctx.bconv(&src_idx, &dst_idx).expect("plan");
    let src = data(&src_idx);
    let src_refs: Vec<&[u64]> = src.iter().map(Vec::as_slice).collect();
    let mut out = vec![Vec::new(); dst_idx.len()];
    rows.push(
        "fhe_math.modup_us",
        rows.us(|| bconv.apply_into(&src_refs, &mut out).expect("modup")),
    );

    let p_idx: Vec<usize> = (Q..Q + P).collect();
    let (q_data, p_data) = (data(&q_idx), data(&p_idx));
    let q_refs: Vec<&[u64]> = q_data.iter().map(Vec::as_slice).collect();
    let p_refs: Vec<&[u64]> = p_data.iter().map(Vec::as_slice).collect();
    let mut out = vec![Vec::new(); Q];
    rows.push(
        "fhe_math.moddown_us",
        rows.us(|| ctx.moddown_into(&q_refs, &p_refs, &q_idx, &p_idx, &mut out).expect("moddown")),
    );

    let coeffs: Vec<i64> = (0..N as i64).map(|i| i % 17 - 8).collect();
    let mut a = RnsPoly::from_signed(&coeffs, N, &moduli[..Q]);
    a.to_ntt(&tables[..Q]).expect("to ntt");
    let b = a.clone();
    rows.push("fhe_math.mul_elementwise_us", rows.us(|| a.mul_pointwise_assign(&b).expect("mul")));
}

/// `fhe_tfhe.*` rows at set I (on the `cross_threshold` keys) and the toy
/// NAND the service executes, plus the `bridge.*` rows.
pub fn tfhe_and_bridge(
    cross: &CrossThreshold,
    switch_in_pipeline_s: f64,
    seed: u64,
    rows: &mut Rows,
) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let params = TfheParams::set_i();
    let pbs = cross.server.pbs();
    let mult = pbs.multiplier();
    let trlwe_key = cross.client.trlwe_key();
    rows.push("fhe_tfhe.keygen_s", cross.keygen.tfhe_s);

    let trgsw = TrgswCiphertext::encrypt(
        trlwe_key,
        1,
        params.pbs_base_log,
        params.pbs_levels,
        params.glwe_sigma,
        mult,
        &mut rng,
    )
    .expect("trgsw");
    let mu = vec![fhe_tfhe::ONE_EIGHTH; params.poly_size];
    let ct0 = trlwe_key.encrypt(&mu, params.glwe_sigma, mult, &mut rng).expect("trlwe");
    let ct1 = ct0.rotate(5);
    rows.push("fhe_tfhe.external_product_us", rows.us(|| trgsw.external_product(mult, &ct0)));
    rows.push("fhe_tfhe.cmux_us", rows.us(|| trgsw.cmux(mult, &ct0, &ct1)));

    let lwe = cross.client.encrypt_message(1, 8, &mut rng);
    let testv = pbs.function_testv(8, |m| m);
    let bsk = cross.server.bootstrapping_key();
    let rotate = || pbs.blind_rotate(bsk, &lwe, &testv).expect("blind rotate");
    rows.push("fhe_tfhe.blind_rotate_ms", time_median(0, SLOW_REPS.min(rows.reps), rotate) * 1e3);
    let rotated = rotate();
    rows.push("fhe_tfhe.sample_extract_us", rows.us(|| rotated.sample_extract()));
    let extracted = rotated.sample_extract();
    rows.push(
        "fhe_tfhe.keyswitch_us",
        rows.us(|| cross.server.key_switch_key().switch(&extracted)),
    );

    let (toy_client, toy_server) = generate_keys(&TfheParams::toy(), &mut rng).expect("toy keys");
    let (a, b) = (toy_client.encrypt_bit(true, &mut rng), toy_client.encrypt_bit(false, &mut rng));
    rows.push("fhe_tfhe.nand_us.toy", rows.us(|| gates::nand(&toy_server, &a, &b)));

    rows.push("bridge.keygen_s", cross.keygen.bridge_s);
    let enc = Encoder::new(&cross.ctx);
    let ev = Evaluator::new(&cross.ctx);
    let pt = enc.encode(&vec![2.0; enc.slots()]).expect("encode");
    let ct = cross.ckks_sk.encrypt(&cross.ctx, &pt, &mut rng).expect("encrypt");
    let ct = ev.level_down(&ct, 0).expect("level down");
    let extract_us = rows.us(|| scheme_bridge::extract_lwe(&cross.ctx, &ct, 0));
    let lwe_q = scheme_bridge::extract_lwe(&cross.ctx, &ct, 0).expect("extract");
    let mod_switch_us = rows.us(|| scheme_bridge::mod_switch_to_torus(&lwe_q));
    rows.push("bridge.extract_lwe_us", extract_us);
    rows.push("bridge.mod_switch_us", mod_switch_us);
    // The bridge keeps its key-switching key private, so the key switch
    // is what is left of `switch` after the two public stages. `switch`
    // is the span median from inside the pipeline, where a bootstrap
    // has just pushed the key-switching key out of cache: called back
    // to back it reads less than half of that.
    rows.push(
        "bridge.ks_switch_ms",
        switch_in_pipeline_s * 1e3 - (extract_us + mod_switch_us) / 1e3,
    );
    rows.push("bridge.switch_ms", switch_in_pipeline_s * 1e3);
}

/// `metaop.*` rows: the radix-8/4 NTT lowering at `n = 4096` and the
/// exact multiplication counts behind Fig. 7a.
pub fn metaop_rows(rows: &mut Rows) {
    const N: usize = 1 << 12;
    let q = generate_ntt_primes(36, N, 1).expect("a 36-bit NTT prime")[0];
    let table = NttTable::new(Modulus::new(q).expect("prime"), N).expect("table");
    let lowering = NttLowering::new(&table);
    let mut a = fill(N, 0, table.modulus());
    let mut trace = MetaOpTrace::new();
    lowering.forward(&mut a, &mut trace);
    let ops = trace.total_ops();
    rows.push(
        "metaop.ntt_lowering_us",
        rows.us(|| lowering.forward(&mut a, &mut MetaOpTrace::new())),
    );
    rows.push("metaop.trace_ops.ntt4096", ops as f64);
    for (name, mults) in crate::model::fig7a_counts() {
        rows.push(format!("metaop.mults.{name}"), mults.total_meta() as f64);
    }
}
