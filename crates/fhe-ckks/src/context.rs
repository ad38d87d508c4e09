//! The CKKS context: RNS machinery over the full `Q ∪ P` basis.

use crate::encoding::CodecTables;
use crate::{CkksError, CkksParams};
use fhe_math::{
    BconvPlan, MixedRadix, ModdownPlan, Modulus, NttTable, RnsBasis, RnsContext, RnsPoly,
    ShoupScalar, UBig,
};

/// Precomputed state shared by all CKKS objects: moduli, NTT tables, digit
/// layout, and every per-level constant of the request path (key-switch
/// plans, rescale inverses, the plaintext-boundary tables).
///
/// Channel indexing convention: indices `0..=L` are the ciphertext primes
/// `q_0 … q_L`, indices `L+1 .. L+1+K` are the special primes `p_0 … p_{K-1}`.
#[derive(Debug)]
pub struct CkksContext {
    params: CkksParams,
    rns: RnsContext,
    /// Full-chain digit groups (indices into the Q part).
    digits: Vec<Vec<usize>>,
    /// Entry `l` holds the constants of level `l`.
    levels: Vec<LevelPlans>,
    /// `P mod q_c` per ciphertext prime: lifts a `Q`-basis polynomial into
    /// a key-switch accumulator (`P·x` is `x` after Moddown, exactly).
    p_mod_q: Vec<ShoupScalar>,
    /// Per full-chain digit `i`, per channel of `Q ∪ P`: the switching-key
    /// factor `P·Q̂_i·[Q̂_i⁻¹]_{Q_i} mod m_c`, Shoup form.
    key_factors: Vec<Vec<ShoupScalar>>,
    /// Exact reconstruction over `q_0 … q_L` (a level is a prefix).
    mixed_radix: MixedRadix,
    codec: CodecTables,
}

/// The constants one level's key switch and rescale need, built once.
#[derive(Debug)]
pub(crate) struct LevelPlans {
    /// Digit groups restricted to channels `0..=level`, empty ones dropped.
    pub(crate) digits: Vec<Vec<usize>>,
    /// Per occupied digit: its Modup destination channels (the other `Q`
    /// channels of the level, then `P`) and the conversion onto them.
    pub(crate) modup: Vec<(Vec<usize>, BconvPlan)>,
    /// Moddown from `Q_level ∪ P` back onto `Q_level`.
    pub(crate) moddown: ModdownPlan,
    /// Moddown·Rescale from `Q_level ∪ P` onto `Q_{level−1}`: `q_level` is
    /// one more source prime beside `P`. `None` at level 0. Like every
    /// plan here it holds constants only and runs on the context's own NTT
    /// tables.
    pub(crate) moddown_rescale: Option<ModdownPlan>,
    /// `q_level⁻¹ mod q_c` for `c < level`.
    pub(crate) rescale_inv: Vec<ShoupScalar>,
}

impl CkksContext {
    /// Builds the context: NTT tables for every prime in `Q ∪ P`, the
    /// per-level plans, and the encoder's tables.
    ///
    /// # Errors
    ///
    /// Propagates [`CkksError::Math`] if a prime fails table construction.
    pub fn new(params: CkksParams) -> Result<Self, CkksError> {
        let mut moduli = Vec::with_capacity(params.moduli().len() + params.special_moduli().len());
        for &q in params.moduli().iter().chain(params.special_moduli()) {
            moduli.push(Modulus::new(q)?);
        }
        let rns = RnsContext::new(params.n(), RnsBasis::new(moduli)?)?;
        let q_len = params.moduli().len();
        let digits = fhe_math::Gadget::new(params.dnum())?.split(q_len);
        let p_idx: Vec<usize> = (q_len..rns.moduli().len()).collect();
        let mut levels = Vec::with_capacity(q_len);
        for level in 0..q_len {
            let q_idx: Vec<usize> = (0..=level).collect();
            let at_level: Vec<Vec<usize>> = digits
                .iter()
                .map(|d| d.iter().copied().filter(|&c| c <= level).collect::<Vec<_>>())
                .filter(|d| !d.is_empty())
                .collect();
            let mut modup = Vec::with_capacity(at_level.len());
            for digit in &at_level {
                let dst: Vec<usize> =
                    q_idx.iter().chain(&p_idx).copied().filter(|c| !digit.contains(c)).collect();
                let plan = rns.bconv(digit, &dst)?;
                modup.push((dst, plan));
            }
            let q_last = rns.moduli()[level];
            let mut rescale_inv = Vec::with_capacity(level);
            for m in &rns.moduli()[..level] {
                rescale_inv.push(m.shoup(m.inv(q_last.value() % m.value())?));
            }
            let moddown_rescale = match level {
                0 => None,
                _ => {
                    let sources: Vec<usize> =
                        std::iter::once(level).chain(p_idx.iter().copied()).collect();
                    Some(rns.moddown_plan(&q_idx[..level], &sources)?)
                }
            };
            levels.push(LevelPlans {
                digits: at_level,
                modup,
                moddown: rns.moddown_plan(&q_idx, &p_idx)?,
                moddown_rescale,
                rescale_inv,
            });
        }
        let p_mod_q: Vec<ShoupScalar> = rns.moduli()[..q_len]
            .iter()
            .map(|m| {
                let p =
                    p_idx.iter().fold(1, |acc, &j| m.mul(acc, m.reduce(rns.moduli()[j].value())));
                m.shoup(p)
            })
            .collect();
        // `Q̂_i·[Q̂_i⁻¹]_{Q_i}` is the CRT idempotent of digit `i` over `Q`: 1
        // mod every prime of the digit, 0 mod every other `q`. `P` is 0 mod
        // every `p`. So the factor is `P mod q_c` on the digit's channels
        // and 0 everywhere else — exact, no big integer.
        let key_factors = digits
            .iter()
            .map(|digit| {
                (0..rns.moduli().len())
                    .map(|c| if digit.contains(&c) { p_mod_q[c] } else { ShoupScalar::default() })
                    .collect()
            })
            .collect();
        let mixed_radix = MixedRadix::new(&rns.moduli()[..q_len])?;
        let codec = CodecTables::new(params.n());
        Ok(CkksContext { params, rns, digits, levels, p_mod_q, key_factors, mixed_radix, codec })
    }

    /// The parameter set.
    #[inline]
    pub fn params(&self) -> &CkksParams {
        &self.params
    }

    /// The RNS context over the full `Q ∪ P` basis.
    #[inline]
    pub fn rns(&self) -> &RnsContext {
        &self.rns
    }

    /// Ring degree.
    #[inline]
    pub fn n(&self) -> usize {
        self.params.n()
    }

    /// Number of ciphertext primes (`L + 1`).
    #[inline]
    pub fn q_len(&self) -> usize {
        self.params.moduli().len()
    }

    /// Number of special primes `K`.
    #[inline]
    pub fn k_len(&self) -> usize {
        self.params.special_moduli().len()
    }

    /// Global channel indices of the special primes.
    pub fn p_indices(&self) -> Vec<usize> {
        (self.q_len()..self.q_len() + self.k_len()).collect()
    }

    /// Moduli of the Q part.
    #[inline]
    pub fn q_moduli(&self) -> &[Modulus] {
        &self.rns.moduli()[..self.q_len()]
    }

    /// Moduli of channels `0..=level`.
    #[inline]
    pub fn level_moduli(&self, level: usize) -> &[Modulus] {
        &self.rns.moduli()[..=level]
    }

    /// NTT tables of channels `0..=level`.
    #[inline]
    pub fn level_tables(&self, level: usize) -> &[NttTable] {
        &self.rns.tables()[..=level]
    }

    /// NTT table for a global channel index.
    #[inline]
    pub fn table(&self, channel: usize) -> &NttTable {
        self.rns.table(channel)
    }

    /// The full-chain digit layout (indices into the Q part).
    #[inline]
    pub fn digits(&self) -> &[Vec<usize>] {
        &self.digits
    }

    /// Digit groups restricted to channels `0..=level`, empty digits
    /// dropped — the `beta` occupied digits at this level.
    #[inline]
    pub fn digits_at_level(&self, level: usize) -> &[Vec<usize>] {
        &self.levels[level].digits
    }

    /// The precomputed key-switch and rescale constants of `level`.
    #[inline]
    pub(crate) fn plans(&self, level: usize) -> &LevelPlans {
        &self.levels[level]
    }

    /// `P mod q_c` for ciphertext prime `c`, Shoup form.
    #[inline]
    pub(crate) fn p_mod_q(&self, c: usize) -> ShoupScalar {
        self.p_mod_q[c]
    }

    /// The switching-key factor `P·Q̂_i·[Q̂_i⁻¹]_{Q_i} mod m_c` of full-chain
    /// digit `digit` on global channel `c`, Shoup form.
    #[inline]
    pub(crate) fn key_factor(&self, digit: usize, c: usize) -> ShoupScalar {
        self.key_factors[digit][c]
    }

    /// The encoder's root and permutation tables.
    #[inline]
    pub(crate) fn codec(&self) -> &CodecTables {
        &self.codec
    }

    /// Exact product of the special primes as a big integer.
    pub fn p_product(&self) -> UBig {
        UBig::product_of(self.params.special_moduli().iter().copied())
    }

    /// The *centered* coefficients of a coefficient-domain poly over
    /// channels `0..=level`: sign and magnitude exact ([`MixedRadix`]),
    /// then rounded to `f64`.
    pub fn centered_coefficients(&self, poly: &RnsPoly, level: usize) -> Vec<f64> {
        assert_eq!(poly.num_channels(), level + 1, "polynomial channel count must match level + 1");
        let mut x = vec![0u64; level + 1];
        (0..poly.n())
            .map(|idx| {
                poly.coefficient_into(idx, &mut x);
                self.mixed_radix.centered_f64(&mut x)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> CkksContext {
        CkksContext::new(CkksParams::toy().unwrap()).unwrap()
    }

    #[test]
    fn channel_layout() {
        let c = ctx();
        assert_eq!(c.q_len(), 4);
        assert_eq!(c.k_len(), 2);
        assert_eq!(c.p_indices(), vec![4, 5]);
        assert_eq!(c.rns().moduli().len(), 6);
        assert_eq!(c.level_moduli(2).len(), 3);
    }

    #[test]
    fn digit_layout_follows_dnum() {
        let c = ctx();
        // L+1 = 4 channels, dnum = 2 → digits {0,1}, {2,3}.
        assert_eq!(c.digits(), &[vec![0, 1], vec![2, 3]]);
        assert_eq!(c.digits_at_level(3).len(), 2);
        // At level 1 only the first digit survives.
        assert_eq!(c.digits_at_level(1), vec![vec![0, 1]]);
        assert_eq!(c.digits_at_level(2), vec![vec![0, 1], vec![2]]);
    }

    #[test]
    fn centered_coefficient_round_trip() {
        let c = ctx();
        for value in [-12345i64, -1, 0, 1, 98765] {
            let poly = RnsPoly::from_signed(&[value], c.n(), c.level_moduli(2));
            let got = c.centered_coefficients(&poly, 2);
            assert_eq!(got[0], value as f64);
            // Coefficient 1 is zero.
            assert_eq!(got[1], 0.0);
        }
    }

    #[test]
    fn centered_coefficient_level_zero() {
        let c = ctx();
        let poly = RnsPoly::from_signed(&[-7], c.n(), c.level_moduli(0));
        assert_eq!(c.centered_coefficients(&poly, 0)[0], -7.0);
    }

    /// The bigint path `centered_coefficients` replaced, kept as its
    /// reference: CRT-reconstruct, compare with `Q/2`, subtract, round.
    fn centered_reference(c: &CkksContext, poly: &RnsPoly, level: usize, idx: usize) -> f64 {
        let q = UBig::product_of(c.params().moduli()[..=level].iter().copied());
        let v = poly.crt_coefficient(idx);
        if v > q.divrem_u64(2).0 {
            -(q.sub(&v).to_f64())
        } else {
            v.to_f64()
        }
    }

    #[test]
    fn centered_coefficients_match_the_bigint_reference_at_every_level() {
        let c = ctx();
        for level in 0..c.q_len() {
            // Residues spread over the whole range, plus the extremes.
            let channels = c
                .level_moduli(level)
                .iter()
                .enumerate()
                .map(|(ch, &m)| {
                    let mut v: Vec<u64> = (0..c.n() as u64)
                        .map(|i| m.reduce((i + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15 + ch as u64)))
                        .collect();
                    v[0] = 0;
                    v[1] = m.value() - 1;
                    v[2] = m.value() / 2;
                    v[3] = m.value() / 2 + 1;
                    fhe_math::Poly::from_coeffs(v, m).unwrap()
                })
                .collect();
            let poly = RnsPoly::from_channels(channels).unwrap();
            let got = c.centered_coefficients(&poly, level);
            for (idx, &g) in got.iter().enumerate() {
                let want = centered_reference(&c, &poly, level, idx);
                let tol = want.abs() * 4.0 * (level + 1) as f64 * f64::EPSILON;
                assert!((g - want).abs() <= tol, "level {level} coeff {idx}: {g} vs {want}");
            }
        }
    }
}
