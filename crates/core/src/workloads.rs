//! Workload compiler: FHE operations → simulator step sequences.
//!
//! Builders mirror the operator graphs of the functional libraries
//! (`fhe-ckks` / `fhe-tfhe`) at the paper's parameters. Key-material
//! traffic follows the paper's time-sharing scheduling claim (§5.4):
//!
//! * **single operations** (Table 7's `Keyswitch`/`Cmult`/`Rotation`)
//!   stream their evaluation key from HBM — this is what makes those ops
//!   land near 7.1–7.2 kops/s instead of the compute-bound 12 kops/s;
//! * **batched workloads** (bootstrapping, HELR, Fig. 7b) reuse each
//!   switching key across the transform applications that share it
//!   ([`KEY_REUSE_BATCHED`]) or keep it resident across training
//!   iterations (HELR), per the BTS/FAB-style schedule the paper adopts.
//!
//! All structural constants are recorded in `EXPERIMENTS.md`.

use crate::sim::Step;
use metaop::counts::ntt_blocks;
use metaop::OpClass;

/// Intra-workload reuse factor for switching keys in batched transforms:
/// a key fetched once serves the four CoeffToSlot/SlotToCoeff transform
/// applications, the conjugate path, and the baby-step offsets repeated
/// across layers (BTS/FAB-style time-shared schedule).
pub const KEY_REUSE_BATCHED: u64 = 16;

/// Bytes per RNS word (36-bit packed).
const WB: f64 = 4.5;

/// CKKS parameters for the simulator (mirrors
/// `metaop::counts::CkksCountParams`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CkksSimParams {
    /// Ring degree `N`.
    pub n: u64,
    /// Maximum level `L`.
    pub l_max: u64,
    /// Current level.
    pub level: u64,
    /// Decomposition number.
    pub dnum: u64,
}

impl CkksSimParams {
    /// The paper's Table 7 operating point: `N = 2^16, L = 44, dnum = 4`.
    pub fn paper() -> Self {
        CkksSimParams { n: 1 << 16, l_max: 44, level: 44, dnum: 4 }
    }

    /// Same parameters at another level.
    pub fn at_level(&self, level: u64) -> Self {
        CkksSimParams { level, ..*self }
    }

    /// Digit size / special-modulus count.
    pub fn alpha(&self) -> u64 {
        (self.l_max + 1).div_ceil(self.dnum)
    }

    /// Channels at the current level.
    pub fn c(&self) -> u64 {
        self.level + 1
    }

    /// Occupied digits at the current level.
    pub fn beta(&self) -> u64 {
        self.c().div_ceil(self.alpha())
    }

    /// Extended basis size `c + K`.
    pub fn t(&self) -> u64 {
        self.c() + self.alpha()
    }

    /// Bytes of one polynomial over `channels` RNS channels.
    pub fn poly_bytes(&self, channels: u64) -> u64 {
        (channels as f64 * self.n as f64 * WB) as u64
    }

    /// Bytes of one switching key (beta digits × 2 polys × t channels).
    pub fn switch_key_bytes(&self) -> u64 {
        self.beta() * 2 * self.poly_bytes(self.t())
    }
}

/// NTT or INTT of `channels` polynomials of degree `n` (same cost either
/// direction).
pub fn ntt_steps(n: u64, channels: u64, label: &str) -> Vec<Step> {
    let (r8, r4) = ntt_blocks(n);
    let per_block_traffic = (2.0 * channels as f64 * n as f64 * WB) as u64;
    let mut steps = Vec::new();
    if r8 > 0 {
        steps.push(
            Step::compute(format!("{label}/ntt-r8"), OpClass::Ntt, channels * (n / 8) * r8, 3)
                .with_onchip(per_block_traffic * r8),
        );
    }
    if r4 > 0 {
        steps.push(
            Step::compute(format!("{label}/ntt-r4"), OpClass::Ntt, channels * (n / 8) * r4, 2)
                .with_onchip(per_block_traffic * r4),
        );
    }
    steps
}

/// Element-wise modular multiplications over `coeffs` coefficients.
pub fn elementwise_steps(coeffs: u64, label: &str) -> Step {
    Step::compute(label.to_string(), OpClass::Elementwise, coeffs / 8, 1)
        .with_onchip((3.0 * coeffs as f64 * WB) as u64)
}

/// `steps` without the spare capacity its pushes left behind: a program
/// lives as long as whoever simulates it, and for the large ones that
/// slack is a quarter of the memory its steps take.
fn exact(mut steps: Vec<Step>) -> Vec<Step> {
    steps.shrink_to_fit();
    steps
}

/// `Pmult`: plaintext × ciphertext, both on-chip (Table 7 convention).
pub fn pmult(p: &CkksSimParams) -> Vec<Step> {
    vec![elementwise_steps(2 * p.c() * p.n, "pmult")]
}

/// `Hadd`: addition-array only.
pub fn hadd(p: &CkksSimParams) -> Vec<Step> {
    // 3 scratchpad accesses per coefficient stream (2 reads + 1 write),
    // counted over both ciphertext polynomials.
    let coeffs = 2 * p.c() * p.n;
    vec![Step::adds("hadd", coeffs / 8).with_onchip((3.0 * coeffs as f64 * WB) as u64)]
}

/// Modup front of a hybrid key switch, shared by every rotation of a
/// hoisted group: INTT of the `c` input channels, per-digit pre-scale and
/// base conversion onto the rest of the extended basis, forward NTT of the
/// converted channels.
fn push_modup(steps: &mut Vec<Step>, p: &CkksSimParams, label: &str) {
    let (n, alpha, beta, t) = (p.n, p.alpha(), p.beta(), p.t());
    steps.extend(ntt_steps(n, p.c(), &format!("{label}/intt-in")));
    steps.push(elementwise_steps(beta * alpha * n, &format!("{label}/modup-prescale")));
    steps.push(
        Step::compute(
            format!("{label}/modup-bconv"),
            OpClass::Bconv,
            beta * (t - alpha) * (n / 8),
            alpha as u32,
        )
        .with_onchip(((beta * alpha + beta * (t - alpha)) as f64 * n as f64 * WB) as u64),
    );
    steps.extend(ntt_steps(n, beta * (t - alpha), &format!("{label}/ntt-ext")));
}

/// Moddown tail of a hybrid key switch: INTT of both extended-basis
/// accumulators (the step is named `{label}/{intt}`), pre-scale and base
/// conversion of the `K` special channels, subtract-and-scale, forward NTT
/// of the `2c` output channels.
fn push_moddown(steps: &mut Vec<Step>, p: &CkksSimParams, label: &str, intt: &str) {
    let (n, c, k, t) = (p.n, p.c(), p.alpha(), p.t());
    steps.extend(ntt_steps(n, 2 * t, &format!("{label}/{intt}")));
    steps.push(elementwise_steps(2 * k * n, &format!("{label}/moddown-prescale")));
    steps.push(
        Step::compute(format!("{label}/moddown-bconv"), OpClass::Bconv, 2 * c * (n / 8), k as u32)
            .with_onchip(((2 * k + 2 * c) as f64 * n as f64 * WB) as u64),
    );
    steps.push(elementwise_steps(2 * c * n, &format!("{label}/moddown-scale")));
    steps.extend(ntt_steps(n, 2 * c, &format!("{label}/ntt-out")));
}

/// Hybrid key switch of one polynomial; `stream_key` charges the full
/// switching key to HBM (single-op mode).
pub fn keyswitch_steps(p: &CkksSimParams, stream_key: bool, label: &str) -> Vec<Step> {
    let (n, beta, t) = (p.n, p.beta(), p.t());
    let mut steps = Vec::new();
    push_modup(&mut steps, p, label);
    let mut mac = Step::compute(
        format!("{label}/decomp-poly-mult"),
        OpClass::DecompPolyMult,
        2 * t * (n / 8),
        beta as u32,
    )
    .with_onchip(((beta * t + 2 * t) as f64 * n as f64 * WB) as u64);
    if stream_key {
        mac = mac.with_hbm(p.switch_key_bytes());
    }
    steps.push(mac);
    push_moddown(&mut steps, p, label, "intt-ext");
    steps
}

/// Rescale of a 2-polynomial ciphertext.
pub fn rescale_steps(p: &CkksSimParams, label: &str) -> Vec<Step> {
    let (n, c) = (p.n, p.c());
    let mut steps = Vec::new();
    steps.extend(ntt_steps(n, 2, &format!("{label}/rescale-intt")));
    steps.extend(ntt_steps(n, 2 * (c - 1), &format!("{label}/rescale-ntt")));
    steps.push(elementwise_steps(2 * (c - 1) * n, &format!("{label}/rescale-scale")));
    steps
}

/// `Cmult`: tensor + relinearization + rescale (Table 7 row).
pub fn cmult(p: &CkksSimParams) -> Vec<Step> {
    let mut steps = vec![elementwise_steps(4 * p.c() * p.n, "cmult/tensor")];
    steps.extend(keyswitch_steps(p, true, "cmult/relin"));
    steps.push(Step::adds("cmult/combine", 2 * p.c() * p.n / 8));
    steps.extend(rescale_steps(p, "cmult"));
    exact(steps)
}

/// `Keyswitch` as a standalone Table 7 row.
pub fn keyswitch(p: &CkksSimParams) -> Vec<Step> {
    exact(keyswitch_steps(p, true, "keyswitch"))
}

/// `Rotation`: automorphism + key switch (Table 7 row).
pub fn rotation(p: &CkksSimParams) -> Vec<Step> {
    let mut steps = vec![Step::transfer(
        "rotation/automorphism",
        0,
        (4.0 * p.c() as f64 * p.n as f64 * WB) as u64,
    )];
    steps.extend(keyswitch_steps(p, true, "rotation/ks"));
    exact(steps)
}

/// A hoisted rotation group (`BSP-L=n+` pattern): one shared
/// decomposition + Modup, per-rotation `DecompPolyMult`, one closing
/// Moddown. `key_reuse` divides per-rotation key traffic
/// ([`KEY_REUSE_BATCHED`] for batched transforms; `u64::MAX`-like large
/// values model fully resident keys).
pub fn hoisted_rotation_group(p: &CkksSimParams, n_rot: u64, key_reuse: u64) -> Vec<Step> {
    let (n, beta, t) = (p.n, p.beta(), p.t());
    let mut steps = Vec::new();
    push_modup(&mut steps, p, "hoist");
    // Per-rotation work, aggregated so the simulator overlaps the key
    // stream across the whole group: automorphism shuffles plus one
    // DecompPolyMult per rotation with that rotation's key.
    let key_bytes = n_rot * p.switch_key_bytes() / key_reuse.max(1);
    steps.push(Step::transfer(
        "hoist/automorphisms",
        0,
        (2.0 * n_rot as f64 * beta as f64 * t as f64 * n as f64 * WB) as u64,
    ));
    steps.push(
        Step::compute(
            "hoist/decomp-poly-mult",
            OpClass::DecompPolyMult,
            n_rot * 2 * t * (n / 8),
            beta as u32,
        )
        .with_hbm(key_bytes)
        .with_onchip((n_rot as f64 * (beta * t + 2 * t) as f64 * n as f64 * WB) as u64),
    );
    // Accumulate in the extended basis, one closing INTT + Moddown.
    steps.push(Step::adds("hoist/accumulate", n_rot * 2 * t * n / 8));
    push_moddown(&mut steps, p, "hoist", "intt-close");
    steps
}

/// Fully-packed CKKS bootstrapping (Fig. 6a / Fig. 7b workload): the same
/// 6-layer double-hoisted graph as `metaop::counts::bootstrapping`, with
/// batched key reuse.
pub fn bootstrapping(p: &CkksSimParams) -> Vec<Step> {
    bootstrapping_graph(p, true)
}

/// The bootstrapping graph; the two variants differ only in how a linear
/// layer's 48 rotations are paid for.
fn bootstrapping_graph(p: &CkksSimParams, hoisted: bool) -> Vec<Step> {
    let mut steps = Vec::new();
    let cts = [p.l_max, p.l_max - 1, p.l_max - 2];
    let stc = [p.l_max.saturating_sub(20), p.l_max.saturating_sub(21), p.l_max.saturating_sub(22)];
    for &lvl in cts.iter().chain(&stc) {
        let pl = p.at_level(lvl);
        if hoisted {
            for _ in 0..2 {
                steps.extend(hoisted_rotation_group(&pl, 24, KEY_REUSE_BATCHED));
            }
        } else {
            for r in 0..48u32 {
                steps.extend(keyswitch_steps(&pl, false, &format!("boot/rot{r}")));
            }
        }
        // Diagonal plaintext multiplications of the BSGS combination.
        steps.push(elementwise_steps(64 * 2 * pl.c() * pl.n, "boot/diag-pmult"));
    }
    // EvalMod: ~10 Cmults mid-chain with the relinearization key resident.
    let mid = p.at_level(p.l_max.saturating_sub(10));
    for i in 0..10 {
        steps.push(elementwise_steps(4 * mid.c() * mid.n, &format!("boot/evalmod{i}/tensor")));
        steps.extend(keyswitch_steps(&mid, false, &format!("boot/evalmod{i}/relin")));
        steps.extend(rescale_steps(&mid, &format!("boot/evalmod{i}")));
    }
    exact(steps)
}

/// HELR-1024: one logistic-regression training iteration (Fig. 6a). The
/// design matrix transforms keep their keys resident across the training
/// loop, per the time-sharing schedule.
pub fn helr_iteration(p: &CkksSimParams) -> Vec<Step> {
    let resident = u64::MAX / 2; // effectively free key traffic
    let mut steps = Vec::new();
    // X·w.
    steps.extend(hoisted_rotation_group(p, 32, resident));
    steps.push(elementwise_steps(32 * 2 * p.c() * p.n, "helr/xw-diag"));
    // σ3(u): two Cmults + one Pmult.
    let lvl = p.at_level(p.level.saturating_sub(1));
    for i in 0..2 {
        steps.push(elementwise_steps(4 * lvl.c() * lvl.n, &format!("helr/sig{i}/tensor")));
        steps.extend(keyswitch_steps(&lvl, false, &format!("helr/sig{i}/relin")));
        steps.extend(rescale_steps(&lvl, &format!("helr/sig{i}")));
    }
    steps.push(elementwise_steps(2 * lvl.c() * lvl.n, "helr/sig-pmult"));
    // Xᵀ·resid.
    let low = p.at_level(p.level.saturating_sub(3));
    steps.extend(hoisted_rotation_group(&low, 32, resident));
    steps.push(elementwise_steps(32 * 2 * low.c() * low.n, "helr/xt-diag"));
    steps.push(Step::adds("helr/update", 2 * low.c() * low.n / 8));
    exact(steps)
}

/// LoLa-MNIST inference (Fig. 6a): shallow network at reduced parameters.
/// Returns the parameter set used together with the steps.
pub fn lola_mnist(encrypted_weights: bool) -> (CkksSimParams, Vec<Step>) {
    lola_mnist_graph(encrypted_weights, true)
}

/// The LoLa-MNIST graph; the two variants differ only in how a layer's 13
/// rotations are paid for.
fn lola_mnist_graph(encrypted_weights: bool, hoisted: bool) -> (CkksSimParams, Vec<Step>) {
    let p = CkksSimParams { n: 1 << 14, l_max: 7, level: 7, dnum: 2 };
    let mut steps = Vec::new();
    // Single-shot inference: rotation keys stream cold (reuse = 1).
    let rotations = |steps: &mut Vec<Step>, pl: &CkksSimParams, layer: &str| {
        if hoisted {
            steps.extend(hoisted_rotation_group(pl, 13, 1));
        } else {
            for r in 0..13u32 {
                steps.extend(keyswitch_steps(pl, false, &format!("lola/{layer}-rot{r}")));
            }
        }
    };
    // Convolution layer: 13 rotations + per-window products.
    rotations(&mut steps, &p, "conv");
    if encrypted_weights {
        // Encrypted weights: products are ciphertext × ciphertext.
        for i in 0..8 {
            let pl = p.at_level(7 - (i % 2));
            steps.push(elementwise_steps(4 * pl.c() * pl.n, &format!("lola/conv{i}/tensor")));
            steps.extend(keyswitch_steps(&pl, false, &format!("lola/conv{i}/relin")));
        }
    } else {
        steps.push(elementwise_steps(13 * 2 * p.c() * p.n, "lola/conv-pmult"));
    }
    // Square activation.
    let p1 = p.at_level(6);
    steps.push(elementwise_steps(4 * p1.c() * p1.n, "lola/sq1/tensor"));
    steps.extend(keyswitch_steps(&p1, false, "lola/sq1/relin"));
    steps.extend(rescale_steps(&p1, "lola/sq1"));
    // Dense layer: 13 more rotations + products, second square, output.
    let p2 = p.at_level(5);
    rotations(&mut steps, &p2, "fc");
    steps.push(elementwise_steps(13 * 2 * p2.c() * p2.n, "lola/fc-pmult"));
    let p3 = p.at_level(4);
    steps.push(elementwise_steps(4 * p3.c() * p3.n, "lola/sq2/tensor"));
    steps.extend(keyswitch_steps(&p3, false, "lola/sq2/relin"));
    steps.extend(rescale_steps(&p3, "lola/sq2"));
    steps.push(elementwise_steps(10 * 2 * p3.c() * p3.n, "lola/output"));
    (p, exact(steps))
}

/// TFHE parameters for the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TfheSimParams {
    /// GLWE polynomial degree.
    pub n_poly: u64,
    /// LWE dimension (blind-rotation steps).
    pub lwe_dim: u64,
    /// GLWE dimension `k`.
    pub k_glwe: u64,
    /// TRGSW levels.
    pub lb: u64,
    /// Key-switch levels.
    pub ks_levels: u64,
    /// CRT limbs representing the 64-bit torus on the word-sized datapath.
    pub limbs: u64,
}

impl TfheSimParams {
    /// Set I (Matcha/Concrete-style).
    pub fn set_i() -> Self {
        TfheSimParams { n_poly: 1024, lwe_dim: 630, k_glwe: 1, lb: 3, ks_levels: 3, limbs: 2 }
    }

    /// Set II (Strix-style).
    pub fn set_ii() -> Self {
        TfheSimParams { n_poly: 2048, lwe_dim: 742, k_glwe: 1, lb: 2, ks_levels: 4, limbs: 2 }
    }

    /// Bootstrap-key bytes (prepared NTT-domain rows).
    pub fn bsk_bytes(&self) -> u64 {
        (self.lwe_dim * (self.k_glwe + 1) * self.lb * (self.k_glwe + 1) * self.n_poly * self.limbs)
            * 8
    }
}

/// A batch of TFHE programmable bootstrappings. The bootstrap key streams
/// once per batch (Strix-style two-level batching).
pub fn tfhe_pbs(tp: &TfheSimParams, batch: u64) -> Vec<Step> {
    let kp1 = tp.k_glwe + 1;
    let n = tp.n_poly;
    let ch_per_step = kp1 * tp.lb * tp.limbs; // digit channels to transform
    let mut steps = Vec::new();
    // Blind rotation: aggregate the per-step CMux work across the batch.
    let cmux_count = tp.lwe_dim * batch;
    let mut fwd = ntt_steps(n, ch_per_step * cmux_count, "pbs/cmux-ntt");
    if let Some(first) = fwd.first_mut() {
        // Stream the bootstrap key once per batch.
        first.hbm_bytes += tp.bsk_bytes();
    }
    steps.extend(fwd);
    steps.push(Step::compute(
        "pbs/cmux-mac",
        OpClass::DecompPolyMult,
        kp1 * tp.limbs * (n / 8) * cmux_count,
        (kp1 * tp.lb) as u32,
    ));
    steps.extend(ntt_steps(n, kp1 * tp.limbs * cmux_count, "pbs/cmux-intt"));
    steps.push(Step::adds("pbs/cmux-combine", cmux_count * kp1 * n / 8));
    // LWE key switch: a long lazily-reduced MAC per bootstrap.
    let ks_terms = n * tp.ks_levels;
    let outputs = tp.lwe_dim + 1;
    steps.push(Step::compute(
        "pbs/keyswitch",
        OpClass::Elementwise,
        outputs * ks_terms.div_ceil(64) * batch,
        64,
    ));
    exact(steps)
}

/// Fully-packed bootstrapping *without* Modup hoisting — the operator
/// graph a pre-hoisting design (BTS) executes: every rotation pays a full
/// key switch. Used to model such baselines fairly.
pub fn bootstrapping_unhoisted(p: &CkksSimParams) -> Vec<Step> {
    bootstrapping_graph(p, false)
}

/// LoLa-MNIST without hoisting (full key switch per rotation) — the graph
/// a pre-hoisting design (F1) executes.
pub fn lola_mnist_unhoisted(encrypted_weights: bool) -> (CkksSimParams, Vec<Step>) {
    lola_mnist_graph(encrypted_weights, false)
}

/// A cross-scheme pipeline: CKKS Cmults interleaved with TFHE PBS batches
/// on the same hardware — the paper's motivating scenario.
pub fn cross_scheme(p: &CkksSimParams, tp: &TfheSimParams, rounds: usize) -> Vec<Step> {
    let mut steps = Vec::new();
    for _ in 0..rounds {
        steps.extend(cmult(p));
        steps.extend(tfhe_pbs(tp, 16));
    }
    exact(steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArchConfig, Simulator};

    fn sim() -> Simulator {
        Simulator::new(ArchConfig::paper())
    }

    #[test]
    fn table7_pmult_hadd_band() {
        let p = CkksSimParams::paper();
        let s = sim();
        // Paper: Pmult 946,970/s, Hadd 710,227/s — accept ±35%.
        let pm = 1.0 / s.run(&pmult(&p)).seconds();
        assert!((600_000.0..1_400_000.0).contains(&pm), "Pmult {pm}/s");
        let ha = 1.0 / s.run(&hadd(&p)).seconds();
        assert!((450_000.0..1_100_000.0).contains(&ha), "Hadd {ha}/s");
    }

    #[test]
    fn table7_keyswitch_band_is_memory_bound() {
        let p = CkksSimParams::paper();
        let s = sim();
        // Paper: Keyswitch 7,246/s; Cmult 7,143/s; Rotation 7,179/s.
        let ks = 1.0 / s.run(&keyswitch(&p)).seconds();
        assert!((5_000.0..11_000.0).contains(&ks), "Keyswitch {ks}/s");
        let cm = 1.0 / s.run(&cmult(&p)).seconds();
        assert!((5_000.0..10_000.0).contains(&cm), "Cmult {cm}/s");
        let rot = 1.0 / s.run(&rotation(&p)).seconds();
        assert!((5_000.0..10_000.0).contains(&rot), "Rotation {rot}/s");
        // Ordering: Cmult is the slowest of the three.
        assert!(cm <= ks && cm <= rot);
    }

    #[test]
    fn bootstrapping_lands_in_millisecond_band() {
        let p = CkksSimParams::paper();
        let r = sim().run(&bootstrapping(&p));
        let ms = r.seconds() * 1e3;
        assert!((0.5..6.0).contains(&ms), "bootstrap {ms} ms");
        // Fig. 7b: overall utilization ≈ 0.86.
        assert!(r.utilization() > 0.70, "boot utilization {}", r.utilization());
    }

    #[test]
    fn helr_iteration_band_and_utilization() {
        let p = CkksSimParams::paper();
        let r = sim().run(&helr_iteration(&p));
        let ms = r.seconds() * 1e3;
        assert!((0.1..2.5).contains(&ms), "HELR {ms} ms");
        assert!(r.utilization() > 0.70, "HELR utilization {}", r.utilization());
    }

    #[test]
    fn lola_mnist_sub_millisecond() {
        let (_, enc) = lola_mnist(true);
        let (_, unenc) = lola_mnist(false);
        let t_enc = sim().run(&enc).seconds() * 1e3;
        let t_unenc = sim().run(&unenc).seconds() * 1e3;
        // Paper: 0.11 ms with encrypted weights.
        assert!((0.02..0.5).contains(&t_enc), "LoLa enc {t_enc} ms");
        assert!(t_unenc <= t_enc, "unencrypted weights must not be slower");
    }

    #[test]
    fn tfhe_pbs_throughput_band() {
        let s = sim();
        for (tp, label) in [(TfheSimParams::set_i(), "I"), (TfheSimParams::set_ii(), "II")] {
            let batch = 128;
            let r = s.run(&tfhe_pbs(&tp, batch));
            let per_sec = batch as f64 / r.seconds();
            // The paper's comparison space: Matcha ~10-20k/s, Strix tens of k/s,
            // Alchemist claims ~7x average — expect tens of thousands per second.
            assert!((20_000.0..400_000.0).contains(&per_sec), "PBS set {label}: {per_sec}/s");
        }
    }

    #[test]
    fn hoisting_reduces_bootstrap_work() {
        let p = CkksSimParams::paper();
        let s = sim();
        let hoisted = s.run(&bootstrapping(&p)).seconds();
        let unhoisted = s.run(&bootstrapping_unhoisted(&p)).seconds();
        assert!(
            unhoisted > 2.0 * hoisted,
            "hoisting should cut bootstrap time substantially: {unhoisted} vs {hoisted}"
        );
    }

    #[test]
    fn cross_scheme_keeps_high_utilization() {
        let r = sim().run(&cross_scheme(
            &CkksSimParams::paper().at_level(24),
            &TfheSimParams::set_i(),
            3,
        ));
        assert!(r.utilization() > 0.4, "cross-scheme utilization {}", r.utilization());
    }

    #[test]
    fn key_bytes_match_hand_calculation() {
        let p = CkksSimParams::paper();
        // beta=4 digits × 2 polys × t=57 channels × 65536 × 4.5 B ≈ 134 MB.
        let expect = 4 * 2 * 57 * 65536 * 9 / 2;
        assert_eq!(p.switch_key_bytes(), expect);
    }
}
