//! Lowering of `Bconv` / `Modup` / `Moddown` / `DecompPolyMult` onto
//! Meta-OPs (paper §4.2, Fig. 4a–b, Tables 2–3).
//!
//! All four operators reduce to the same skeleton: per output coefficient, a
//! short dot product accumulated lazily and reduced once. The functions here
//! perform the *real* computation (bit-exact against the direct
//! implementations in [`fhe_math`]) while recording the Meta-OP stream.

use crate::{MetaOp, MetaOpTrace, OpClass};
use fhe_math::{BconvPlan, MathError, Modulus};

/// Lane width of the Alchemist core.
pub const LANES: u32 = 8;

/// Fast base conversion via Meta-OPs (paper Eq. 1, Table 3).
///
/// Computationally identical to [`BconvPlan::apply`]; additionally records
/// * one `(M_8 A_8)_1 R_8` element-wise op per 8 source coefficients (the
///   `q̂_i^{-1}` pre-scale), and
/// * one `(M_8 A_8)_L R_8` channel-pattern op per 8 destination
///   coefficients per destination channel (the lazy aggregation).
///
/// # Panics
///
/// Panics if `channels` does not match the plan's source count (delegated to
/// the same checks as [`BconvPlan::apply`]).
pub fn bconv(plan: &BconvPlan, channels: &[&[u64]], trace: &mut MetaOpTrace) -> Vec<Vec<u64>> {
    let _span = telemetry::Span::enter("metaop.bconv");
    let src_moduli = plan.src_moduli();
    assert_eq!(channels.len(), src_moduli.len(), "source channel count mismatch");
    let n = channels.first().map_or(0, |c| c.len());
    let l = src_moduli.len() as u32;

    // Pre-scale: x_i * qhat_inv_i mod q_i (element-wise Meta-OPs).
    let mut scaled = Vec::with_capacity(channels.len());
    for (i, &ch) in channels.iter().enumerate() {
        let m = src_moduli[i];
        let s = plan.qhat_inv()[i];
        scaled.push(ch.iter().map(|&x| m.mul_shoup(x, s)).collect::<Vec<u64>>());
    }
    trace.record(
        MetaOp::new(OpClass::Elementwise, LANES, 1),
        (channels.len() * n).div_ceil(LANES as usize) as u64,
    );

    // Aggregation: one lazy dot product of length L per destination
    // coefficient.
    let mut out = Vec::with_capacity(plan.dst_moduli().len());
    for (j, &pj) in plan.dst_moduli().iter().enumerate() {
        let weights = &plan.qhat_dst()[j];
        let mut channel = vec![0u64; n];
        for (s, x) in channel.iter_mut().enumerate() {
            let mut acc: u128 = 0;
            for (i, sc) in scaled.iter().enumerate() {
                acc += sc[s] as u128 * weights[i] as u128;
            }
            *x = pj.reduce_u128(acc);
        }
        out.push(channel);
        trace.record(MetaOp::new(OpClass::Bconv, LANES, l), n.div_ceil(LANES as usize) as u64);
    }
    out
}

/// `Modup` is a plain fast base conversion (paper Eq. 2); alias provided for
/// readability at call sites.
pub fn modup(plan: &BconvPlan, channels: &[&[u64]], trace: &mut MetaOpTrace) -> Vec<Vec<u64>> {
    bconv(plan, channels, trace)
}

/// `Moddown` via Meta-OPs (paper Eq. 3):
/// `[x]_{q_i} ← ([x]_{q_i} − Bconv([x]_P, q_i)) · P^{-1} mod q_i`.
///
/// `plan` must convert from the `P` channels to the `Q` channels;
/// `q_channels` is aligned with the plan's destination moduli and
/// `p_channels` with its source moduli.
///
/// # Errors
///
/// Returns [`MathError::BasisMismatch`] if channel counts disagree with the
/// plan, or [`MathError::NotInvertible`] if `P` shares a factor with a
/// destination modulus.
pub fn moddown(
    plan: &BconvPlan,
    q_channels: &[&[u64]],
    p_channels: &[&[u64]],
    trace: &mut MetaOpTrace,
) -> Result<Vec<Vec<u64>>, MathError> {
    let _span = telemetry::Span::enter("metaop.moddown");
    if q_channels.len() != plan.dst_moduli().len() {
        return Err(MathError::BasisMismatch {
            detail: "moddown Q channels misaligned with plan destinations",
        });
    }
    let converted = bconv(plan, p_channels, trace);
    let n = q_channels.first().map_or(0, |c| c.len());
    let mut out = Vec::with_capacity(q_channels.len());
    for (k, &qi) in plan.dst_moduli().iter().enumerate() {
        let p_inv = p_inverse(qi, plan.src_moduli())?;
        let channel: Vec<u64> = q_channels[k]
            .iter()
            .zip(&converted[k])
            .map(|(&x, &c)| qi.mul_shoup(qi.sub(x, c), p_inv))
            .collect();
        out.push(channel);
    }
    // Subtract-and-scale is one element-wise Meta-OP per 8 coefficients per
    // channel.
    trace.record(
        MetaOp::new(OpClass::Elementwise, LANES, 1),
        (q_channels.len() * n).div_ceil(LANES as usize) as u64,
    );
    Ok(out)
}

fn p_inverse(qi: Modulus, p_moduli: &[Modulus]) -> Result<fhe_math::ShoupScalar, MathError> {
    let mut p_mod = 1u64;
    for pj in p_moduli {
        p_mod = qi.mul(p_mod, pj.value() % qi.value());
    }
    Ok(qi.shoup(qi.inv(p_mod)?))
}

/// `DecompPolyMult` via Meta-OPs (paper Fig. 4a, Table 2): accumulates
/// `Σ_i digits[i] ⊙ keys[i]` point-wise with one reduction per output
/// coefficient, recording `(M_8 A_8)_dnum R_8` per 8 coefficients.
///
/// Inputs are NTT-domain channel data for one RNS channel; `digits[i]` and
/// `keys[i]` are the `i`-th decomposition digit and the matching evaluation
/// key polynomial.
///
/// # Panics
///
/// Panics if `digits`/`keys` lengths differ, are empty, or contain ragged
/// polynomials.
pub fn decomp_poly_mult(
    modulus: &Modulus,
    digits: &[&[u64]],
    keys: &[&[u64]],
    trace: &mut MetaOpTrace,
) -> Vec<u64> {
    let _span = telemetry::Span::enter("metaop.decomp_poly_mult");
    assert_eq!(digits.len(), keys.len(), "digit/key count mismatch");
    assert!(!digits.is_empty(), "DecompPolyMult needs at least one digit");
    let n = digits[0].len();
    assert!(digits.iter().chain(keys.iter()).all(|p| p.len() == n), "ragged polynomial inputs");
    let dnum = digits.len() as u32;
    let mut out = vec![0u64; n];
    for (s, x) in out.iter_mut().enumerate() {
        let mut acc: u128 = 0;
        for (d, k) in digits.iter().zip(keys) {
            acc += d[s] as u128 * k[s] as u128;
        }
        *x = modulus.reduce_u128(acc);
    }
    trace.record(
        MetaOp::new(OpClass::DecompPolyMult, LANES, dnum),
        n.div_ceil(LANES as usize) as u64,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhe_math::{generate_ntt_primes, RnsBasis, RnsContext};

    fn context(n: usize, channels: usize) -> RnsContext {
        let moduli = generate_ntt_primes(30, n, channels)
            .unwrap()
            .into_iter()
            .map(|q| Modulus::new(q).unwrap())
            .collect();
        RnsContext::new(n, RnsBasis::new(moduli).unwrap()).unwrap()
    }

    #[test]
    fn bconv_matches_reference() {
        let ctx = context(32, 5);
        let plan = ctx.bconv(&[0, 1, 2], &[3, 4]).unwrap();
        let chans: Vec<Vec<u64>> = (0..3)
            .map(|i| {
                let q = ctx.moduli()[i].value();
                (0..32u64).map(|s| (s * 1234567 + i as u64) % q).collect()
            })
            .collect();
        let refs: Vec<&[u64]> = chans.iter().map(|c| c.as_slice()).collect();
        let expected = plan.apply(&refs);
        let mut trace = MetaOpTrace::new();
        let got = bconv(&plan, &refs, &mut trace);
        assert_eq!(got, expected);
        // One Bconv meta-op batch per destination channel with n = L = 3.
        let bconv_ops: u64 = trace
            .entries()
            .iter()
            .filter(|(op, _)| op.class() == OpClass::Bconv)
            .map(|&(op, c)| {
                assert_eq!(op.n(), 3);
                c
            })
            .sum();
        assert_eq!(bconv_ops, 2 * 32 / 8);
    }

    #[test]
    fn moddown_matches_reference() {
        let ctx = context(16, 5);
        let q_idx = [0usize, 1, 2];
        let p_idx = [3usize, 4];
        let q_chans: Vec<Vec<u64>> = q_idx
            .iter()
            .map(|&i| {
                let q = ctx.moduli()[i].value();
                (0..16u64).map(|s| (s * 99991 + 7) % q).collect()
            })
            .collect();
        let p_chans: Vec<Vec<u64>> = p_idx
            .iter()
            .map(|&i| {
                let q = ctx.moduli()[i].value();
                (0..16u64).map(|s| (s * 31337 + 3) % q).collect()
            })
            .collect();
        let qr: Vec<&[u64]> = q_chans.iter().map(|c| c.as_slice()).collect();
        let pr: Vec<&[u64]> = p_chans.iter().map(|c| c.as_slice()).collect();
        let expected = ctx.moddown(&qr, &pr, &q_idx, &p_idx).unwrap();
        let plan = ctx.bconv(&p_idx, &q_idx).unwrap();
        let mut trace = MetaOpTrace::new();
        let got = moddown(&plan, &qr, &pr, &mut trace).unwrap();
        assert_eq!(got, expected);
        assert!(trace.total_ops() > 0);
    }

    #[test]
    fn decomp_poly_mult_matches_eager() {
        let q = Modulus::new(generate_ntt_primes(36, 16, 1).unwrap()[0]).unwrap();
        let dnum = 4;
        let digits: Vec<Vec<u64>> = (0..dnum)
            .map(|d| (0..16u64).map(|s| (s * 7 + d as u64 * 13) % q.value()).collect())
            .collect();
        let keys: Vec<Vec<u64>> = (0..dnum)
            .map(|d| (0..16u64).map(|s| (s * s + d as u64) % q.value()).collect())
            .collect();
        let dr: Vec<&[u64]> = digits.iter().map(|c| c.as_slice()).collect();
        let kr: Vec<&[u64]> = keys.iter().map(|c| c.as_slice()).collect();

        let mut eager = vec![0u64; 16];
        for i in 0..dnum {
            for s in 0..16 {
                eager[s] = q.add(eager[s], q.mul(digits[i][s], keys[i][s]));
            }
        }
        let mut trace = MetaOpTrace::new();
        let got = decomp_poly_mult(&q, &dr, &kr, &mut trace);
        assert_eq!(got, eager);
        // (M_8 A_8)_dnum R_8, 16/8 = 2 ops.
        assert_eq!(trace.entries().len(), 1);
        assert_eq!(trace.entries()[0].0.n(), dnum as u32);
        assert_eq!(trace.entries()[0].1, 2);
    }

    #[test]
    fn moddown_rejects_misaligned_channels() {
        let ctx = context(16, 4);
        let plan = ctx.bconv(&[2, 3], &[0, 1]).unwrap();
        let c = vec![0u64; 16];
        let one: Vec<&[u64]> = vec![c.as_slice()];
        let two: Vec<&[u64]> = vec![c.as_slice(), c.as_slice()];
        let mut trace = MetaOpTrace::new();
        assert!(moddown(&plan, &one, &two, &mut trace).is_err());
    }
}
