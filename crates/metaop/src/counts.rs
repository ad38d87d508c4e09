//! Multiply-count accounting: paper Tables 2–3 and the workload-level
//! overhead analysis of Fig. 7(a).
//!
//! Counting conventions (matching §4.2):
//!
//! * a modular multiplication with an *eager* Barrett reduction costs
//!   3 word multiplications (1 product + 2 for the reduction);
//! * a lazily-accumulated dot product of length `n` costs `n + 2`
//!   (paper Table 2: `(dnum + 2)·N` vs `3·dnum·N`);
//! * a radix-8 Meta-OP butterfly costs 40 mults per 8 coefficients per 3
//!   stages (24 lane products + 8 two-mult reductions) vs 36 for the
//!   radix-2 original — the "only 10%" penalty of §4.2;
//! * a radix-4 Meta-OP butterfly pair costs 32 per 8 coefficients per 2
//!   stages vs 24 original.
//!
//! Workload graphs (Cmult, hoisted rotations, bootstrapping, TFHE PBS) are
//! the same graphs `alchemist-core` compiles for the cycle simulator; the
//! structural assumptions are spelled out on each builder and recorded in
//! `EXPERIMENTS.md`.

use crate::OpClass;

/// Original-vs-Meta-OP multiply counts for one operator instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TransformCounts {
    /// Word multiplications with eager reductions (the "Origin" rows of
    /// Tables 2–3).
    pub original: u64,
    /// Word multiplications after lowering to `(M_j A_j)_n R_j`.
    pub meta: u64,
}

impl TransformCounts {
    /// Relative change `meta/original - 1` in percent (negative = saving).
    pub fn change_pct(&self) -> f64 {
        if self.original == 0 {
            0.0
        } else {
            (self.meta as f64 / self.original as f64 - 1.0) * 100.0
        }
    }
}

/// Paper Table 2: `DecompPolyMult` over `dnum` digits and one output
/// channel of an `N`-coefficient polynomial:
/// original `3·dnum·N`, Meta-OP `(dnum + 2)·N`.
pub fn decomp_poly_mult_counts(dnum: u64, n: u64) -> TransformCounts {
    TransformCounts { original: 3 * dnum * n, meta: (dnum + 2) * n }
}

/// Paper Table 3: `Modup`/`Bconv` from `l` input channels to `k` output
/// channels: original `(3·k·l + 3·l)·N`, Meta-OP `(k·l + 3·l + 2·k)·N`.
pub fn bconv_counts(l: u64, k: u64, n: u64) -> TransformCounts {
    TransformCounts { original: (3 * k * l + 3 * l) * n, meta: (k * l + 3 * l + 2 * k) * n }
}

/// Radix-8 and radix-4 block counts `(r8, r4)` of an `n`-point NTT:
/// [`fhe_math::radix_blocks`] of `log2 n`, the schedule the kernel runs and
/// [`crate::ntt::NttLowering`] lowers. The multiply counts below and the
/// simulator's NTT steps (`alchemist_core::workloads::ntt_steps`) are both
/// built on it.
pub fn ntt_blocks(n: u64) -> (u64, u64) {
    let (r8, r4) = fhe_math::radix_blocks(n.trailing_zeros());
    (u64::from(r8), u64::from(r4))
}

/// NTT of one `N`-point polynomial (one RNS channel), blocked into radix-8
/// and radix-4 Meta-OPs ([`ntt_blocks`]).
pub fn ntt_counts(n: u64) -> TransformCounts {
    let log_n = n.trailing_zeros() as u64;
    debug_assert!(n.is_power_of_two() && log_n >= 3);
    let (r8, r4) = ntt_blocks(n);
    TransformCounts { original: 3 * (n / 2) * log_n, meta: 5 * n * r8 + 4 * n * r4 }
}

/// Element-wise modular multiplications: 3 mults per coefficient in both
/// formulations (`(M_8 A_8)_1 R_8` is 1 + 2 as well).
fn elementwise_counts(coefficients: u64) -> TransformCounts {
    TransformCounts { original: 3 * coefficients, meta: 3 * coefficients }
}

/// Aggregated multiply counts of a workload, split by operator class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OperatorMults {
    /// NTT/INTT transforms.
    pub ntt: TransformCounts,
    /// RNS base conversions.
    pub bconv: TransformCounts,
    /// Decomposed polynomial-times-key accumulations.
    pub decomp: TransformCounts,
    /// Element-wise multiply work.
    pub elementwise: TransformCounts,
}

impl OperatorMults {
    /// Total original-formulation multiplications.
    pub fn total_original(&self) -> u64 {
        self.ntt.original + self.bconv.original + self.decomp.original + self.elementwise.original
    }

    /// Total Meta-OP multiplications.
    pub fn total_meta(&self) -> u64 {
        self.ntt.meta + self.bconv.meta + self.decomp.meta + self.elementwise.meta
    }

    /// Overall change in percent (negative = the Meta-OP lowering reduced
    /// total multiplications — Fig. 7a).
    pub fn change_pct(&self) -> f64 {
        TransformCounts { original: self.total_original(), meta: self.total_meta() }.change_pct()
    }

    /// Fraction of original multiplications per operator class, in
    /// [`OpClass::all`] order — the "operator ratio in the algorithm" bars
    /// of Fig. 1. `Transfer` moves no multiplications and is always 0.
    pub fn class_fractions(&self) -> [(OpClass, f64); 5] {
        let total = self.total_original().max(1) as f64;
        [
            (OpClass::Ntt, self.ntt.original as f64 / total),
            (OpClass::Bconv, self.bconv.original as f64 / total),
            (OpClass::DecompPolyMult, self.decomp.original as f64 / total),
            (OpClass::Elementwise, self.elementwise.original as f64 / total),
            (OpClass::Transfer, 0.0),
        ]
    }

    /// Component-wise accumulation.
    pub fn merge(&mut self, other: &OperatorMults) {
        self.ntt.original += other.ntt.original;
        self.ntt.meta += other.ntt.meta;
        self.bconv.original += other.bconv.original;
        self.bconv.meta += other.bconv.meta;
        self.decomp.original += other.decomp.original;
        self.decomp.meta += other.decomp.meta;
        self.elementwise.original += other.elementwise.original;
        self.elementwise.meta += other.elementwise.meta;
    }

    /// Returns the workload repeated `times` times.
    pub fn scaled(&self, times: u64) -> OperatorMults {
        let s = |c: TransformCounts| TransformCounts {
            original: c.original * times,
            meta: c.meta * times,
        };
        OperatorMults {
            ntt: s(self.ntt),
            bconv: s(self.bconv),
            decomp: s(self.decomp),
            elementwise: s(self.elementwise),
        }
    }
}

/// CKKS parameters for workload counting.
///
/// `dnum` partitions the *maximum* chain, so the digit size
/// `alpha = ceil((l_max+1)/dnum)` and the special-modulus count
/// `K = alpha` stay fixed as the ciphertext level drops — the convention of
/// SHARP/ARK that the paper adopts (its Table 7 point is
/// `N = 2^16, L = 44, dnum = 4`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CkksCountParams {
    /// Polynomial degree `N`.
    pub n: u64,
    /// Maximum multiplicative level `L` (chain has `L+1` primes).
    pub l_max: u64,
    /// Current ciphertext level (`≤ l_max`).
    pub level: u64,
    /// Hybrid key-switching decomposition number.
    pub dnum: u64,
}

impl CkksCountParams {
    /// The paper's headline operating point: `N = 2^16, L = 44, dnum = 4`.
    pub fn paper_default() -> Self {
        CkksCountParams { n: 1 << 16, l_max: 44, level: 44, dnum: 4 }
    }

    /// Digit size `alpha = ceil((l_max+1)/dnum)`.
    pub fn alpha(&self) -> u64 {
        (self.l_max + 1).div_ceil(self.dnum)
    }

    /// Number of special moduli `K` (= alpha in this convention).
    pub fn k(&self) -> u64 {
        self.alpha()
    }

    /// Channels at the current level.
    pub fn c(&self) -> u64 {
        self.level + 1
    }

    /// Digits actually occupied at the current level.
    pub fn beta(&self) -> u64 {
        self.c().div_ceil(self.alpha())
    }

    /// Extended basis size `c + K`.
    pub fn t(&self) -> u64 {
        self.c() + self.k()
    }

    /// Same parameters at a different level.
    pub fn at_level(&self, level: u64) -> Self {
        CkksCountParams { level, ..*self }
    }
}

/// Hybrid key switching of one polynomial (the `d2` part of Cmult or the
/// rotated `d1` of a rotation):
/// INTT(c) → per-digit Modup(alpha → t−alpha) → NTT(beta·(t−alpha)) →
/// DecompPolyMult(2 output polys × t channels) → INTT(2t) →
/// Moddown(2 × Bconv(K → c) + scale).
pub fn keyswitch(p: &CkksCountParams) -> OperatorMults {
    hoisted_rotation_group(p, 1)
}

/// Full ciphertext multiplication: tensor product (4 point-wise channel
/// products + recombination) + key switch of `d2` + rescale.
pub fn cmult(p: &CkksCountParams) -> OperatorMults {
    let (n, c) = (p.n, p.c());
    let mut out = keyswitch(p);
    // Tensor: 4 channel products; rescale: (c-1) channels × 2 polys.
    let extra = elementwise_counts(4 * c * n + 2 * (c - 1) * n);
    out.elementwise.original += extra.original;
    out.elementwise.meta += extra.meta;
    out
}

/// A group of `n_rot` rotations with **Modup hoisting** (the `BSP-L=n+`
/// variant of Fig. 1): the INTT + Modup of the input is shared across the
/// group, each rotation pays only its `DecompPolyMult`, and the group
/// accumulates in the extended basis so a *single* INTT + Moddown closes it.
pub fn hoisted_rotation_group(p: &CkksCountParams, n_rot: u64) -> OperatorMults {
    let (n, c, alpha, beta, t, k) = (p.n, p.c(), p.alpha(), p.beta(), p.t(), p.k());
    let one_ntt = ntt_counts(n);
    let mut out = OperatorMults::default();

    // Shared: INTT(c) + Modup + NTT of converted channels; closing:
    // INTT(2t) + one Moddown.
    let ntt_transforms = c + beta * (t - alpha) + 2 * t;
    out.ntt.original = one_ntt.original * ntt_transforms;
    out.ntt.meta = one_ntt.meta * ntt_transforms;

    let modup_one = bconv_counts(alpha, t - alpha, n);
    let moddown_one = bconv_counts(k, c, n);
    out.bconv.original = modup_one.original * beta + moddown_one.original * 2;
    out.bconv.meta = modup_one.meta * beta + moddown_one.meta * 2;

    // Per rotation: automorphism (permutation, free) + DecompPolyMult.
    let d = decomp_poly_mult_counts(beta, n);
    out.decomp.original = d.original * 2 * t * n_rot;
    out.decomp.meta = d.meta * 2 * t * n_rot;

    // Moddown subtract-and-scale over 2c channels.
    out.elementwise = elementwise_counts(2 * c * n);
    out
}

/// Structural model of fully-packed CKKS bootstrapping used for Fig. 7(a)
/// and Fig. 1.
///
/// The graph: CoeffToSlot (3 BSGS linear layers near the top of the chain),
/// EvalMod (≈10 Cmults mid-chain), SlotToCoeff (3 layers lower in the
/// chain). Each linear layer runs two double-hoisted rotation groups of 24
/// rotations (baby and giant steps both amortize their Modup, the standard
/// BSGS double-hoisting of fully-packed bootstrapping); the non-hoisted
/// variant pays a full key switch per rotation. Constants are calibrated so
/// the multiply-overhead change reproduces the paper's −37.1% (Fig. 7a) and
/// the Fig. 1 operator mix, and the same graph drives the cycle simulator;
/// they are recorded in `EXPERIMENTS.md`.
pub fn bootstrapping(p: &CkksCountParams, hoisted: bool) -> OperatorMults {
    let mut out = OperatorMults::default();
    let cts_levels = [p.l_max, p.l_max - 1, p.l_max - 2];
    let stc_levels =
        [p.l_max.saturating_sub(20), p.l_max.saturating_sub(21), p.l_max.saturating_sub(22)];
    const ROTS_PER_GROUP: u64 = 24;
    const GROUPS_PER_LAYER: u64 = 2;
    for &lvl in cts_levels.iter().chain(&stc_levels) {
        let pl = p.at_level(lvl);
        if hoisted {
            for _ in 0..GROUPS_PER_LAYER {
                out.merge(&hoisted_rotation_group(&pl, ROTS_PER_GROUP));
            }
        } else {
            out.merge(&keyswitch(&pl).scaled(GROUPS_PER_LAYER * ROTS_PER_GROUP));
        }
    }
    // EvalMod: ~10 Cmults around the middle of the chain.
    let mid = p.at_level(p.l_max.saturating_sub(10));
    out.merge(&cmult(&mid).scaled(10));
    out
}

/// TFHE parameters for programmable-bootstrapping counting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TfheCountParams {
    /// GLWE polynomial degree `N`.
    pub n_poly: u64,
    /// LWE dimension `n` (blind-rotation step count).
    pub lwe_dim: u64,
    /// GLWE dimension `k`.
    pub k_glwe: u64,
    /// TRGSW decomposition levels `l_b`.
    pub lb: u64,
    /// LWE key-switch decomposition levels.
    pub ks_levels: u64,
}

impl TfheCountParams {
    /// Parameter set I (Matcha/Concrete-style): `n=630, N=1024, k=1, l=3`.
    pub fn set_i() -> Self {
        TfheCountParams { n_poly: 1024, lwe_dim: 630, k_glwe: 1, lb: 3, ks_levels: 3 }
    }

    /// Parameter set II (Strix-style, larger ring): `n=742, N=2048, k=1, l=2`.
    pub fn set_ii() -> Self {
        TfheCountParams { n_poly: 2048, lwe_dim: 742, k_glwe: 1, lb: 2, ks_levels: 4 }
    }
}

/// One TFHE programmable bootstrapping: `n` blind-rotation CMux steps
/// (each: `(k+1)·l_b` forward NTTs, the external-product MAC, `k+1` inverse
/// NTTs) followed by the LWE key switch (a long lazily-reducible MAC).
pub fn pbs(p: &TfheCountParams) -> OperatorMults {
    let kp1 = p.k_glwe + 1;
    let n = p.n_poly;
    let one_ntt = ntt_counts(n);
    let transforms_per_step = kp1 * p.lb + kp1;
    let mut out = OperatorMults::default();
    out.ntt.original = one_ntt.original * transforms_per_step * p.lwe_dim;
    out.ntt.meta = one_ntt.meta * transforms_per_step * p.lwe_dim;

    // External product MAC: per step, kp1 output polys accumulate kp1*lb
    // products per coefficient.
    let d = decomp_poly_mult_counts(kp1 * p.lb, n);
    out.decomp.original = d.original * kp1 * p.lwe_dim;
    out.decomp.meta = d.meta * kp1 * p.lwe_dim;

    // LWE keyswitch: N·t_ks digit-key products accumulated into an
    // (n_lwe+1)-vector. Lazy accumulation reduces once per 64 terms
    // (accumulator guard) instead of per term.
    let terms = n * p.ks_levels;
    let outputs = p.lwe_dim + 1;
    out.elementwise.original += 3 * terms * outputs;
    out.elementwise.meta += terms * outputs + 2 * outputs * terms.div_ceil(64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_values() {
        // dnum = 4, N = 2^16: 12·N vs 6·N — a 2x multiply saving.
        let c = decomp_poly_mult_counts(4, 1 << 16);
        assert_eq!(c.original, 12 << 16);
        assert_eq!(c.meta, 6 << 16);
        // Up-to-3x saving cited in §4.2 as dnum grows.
        let big = decomp_poly_mult_counts(60, 1);
        assert!(big.original as f64 / big.meta as f64 > 2.9);
    }

    #[test]
    fn table3_values() {
        let c = bconv_counts(12, 45, 1);
        assert_eq!(c.original, 3 * 45 * 12 + 3 * 12);
        assert_eq!(c.meta, 45 * 12 + 3 * 12 + 2 * 45);
        assert!(c.change_pct() < -50.0);
    }

    #[test]
    fn ntt_penalty_is_about_ten_percent() {
        // Pure radix-8 case: 5N per block vs 4.5N → +11.1%.
        let c = ntt_counts(1 << 12);
        assert!((c.change_pct() - 11.1).abs() < 0.2, "got {}", c.change_pct());
        // Mixed-radix cases stay under 20%.
        for log in 10..=16 {
            let c = ntt_counts(1 << log);
            assert!(c.change_pct() > 0.0 && c.change_pct() < 20.0);
        }
    }

    #[test]
    fn fig7a_cmult_l24_reduction_matches_paper() {
        // Paper: −23.3% for Cmult at L = 24.
        let p = CkksCountParams::paper_default().at_level(24);
        let m = cmult(&p);
        let pct = m.change_pct();
        assert!(
            (-27.0..=-19.0).contains(&pct),
            "Cmult L=24 multiply change {pct:.1}% not within 4pp of paper's -23.3%"
        );
    }

    #[test]
    fn fig7a_bootstrapping_reduction_matches_paper() {
        // Paper: −37.1% for bootstrapping at L = 44 with Modup hoisting.
        let p = CkksCountParams::paper_default();
        let pct = bootstrapping(&p, true).change_pct();
        assert!(
            (-42.0..=-32.0).contains(&pct),
            "hoisted bootstrapping change {pct:.1}% not within 5pp of paper's -37.1%"
        );
        // Hoisting must strictly increase the saving.
        let plain = bootstrapping(&p, false).change_pct();
        assert!(pct < plain, "hoisted {pct:.1}% vs plain {plain:.1}%");
    }

    #[test]
    fn fig7a_tfhe_pbs_is_near_neutral_and_negative() {
        // Paper: −3.4%; anywhere in (−8%, 0%) preserves the finding that
        // the NTT penalty is outweighed by MAC/keyswitch lazy reduction.
        let pct = pbs(&TfheCountParams::set_i()).change_pct();
        assert!((-8.0..0.0).contains(&pct), "TFHE PBS change {pct:.1}%");
    }

    #[test]
    fn fig1_operator_mix_shapes() {
        // TFHE PBS is NTT-dominated; hoisted bootstrapping is Bconv-heavy.
        let t = pbs(&TfheCountParams::set_i());
        let tf = t.class_fractions();
        assert!(tf[0].1 > 0.7, "TFHE NTT share {:.2}", tf[0].1);

        let b = bootstrapping(&CkksCountParams::paper_default(), true);
        let bf = b.class_fractions();
        // Hoisting shifts work from NTT into Bconv + DecompPolyMult — the
        // defining shape of the BSP-L=44+ bar in Fig. 1.
        assert!(bf[1].1 + bf[2].1 > 0.40, "BSP+ Bconv+Decomp share {:.2}", bf[1].1 + bf[2].1);
        let sum: f64 = bf.iter().map(|(_, f)| f).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn level_monotonicity() {
        // Higher level → strictly more work.
        let p = CkksCountParams::paper_default();
        let hi = cmult(&p.at_level(44)).total_original();
        let lo = cmult(&p.at_level(10)).total_original();
        assert!(hi > lo);
    }

    #[test]
    fn scaled_and_merge_are_consistent() {
        let p = CkksCountParams::paper_default().at_level(20);
        let one = keyswitch(&p);
        let mut twice = OperatorMults::default();
        twice.merge(&one);
        twice.merge(&one);
        assert_eq!(twice.total_meta(), one.scaled(2).total_meta());
        assert_eq!(twice.total_original(), one.scaled(2).total_original());
    }
}
