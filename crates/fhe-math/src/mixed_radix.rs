//! Exact RNS → integer reconstruction in word-sized arithmetic: Garner's
//! mixed-radix conversion.
//!
//! A value `x ∈ [0, Q)`, `Q = q_0 ⋯ q_{k-1}`, has a unique mixed-radix
//! expansion
//!
//! ```text
//! x = d_0 + d_1·q_0 + d_2·q_0·q_1 + … + d_{k-1}·q_0⋯q_{k-2},   0 ≤ d_i < q_i,
//! ```
//!
//! and Garner's recurrence reads the digits off the residues with
//! `k(k−1)/2` word multiplications against constants that depend on the
//! basis alone: `d_i = (⋯((x_i − d_0)·q_0⁻¹ − d_1)·q_1⁻¹ ⋯ − d_{i-1})·q_{i-1}⁻¹ mod q_i`.
//! Like Bconv (paper Eq. 1) it never leaves the RNS word size; unlike
//! Bconv it is exact. Everything a decryptor needs follows from the
//! digits without a big integer: the sign of the centered representative
//! (a digit-wise compare with the digits of `⌊Q/2⌋`), its magnitude
//! (`Q − x` is a digit-wise complement plus one), and from the magnitude
//! an `f64` by Horner's rule.
//!
//! The sign and the complement are taken on the digits, not in floating
//! point, because a small negative value is `x = Q − |v|`: rounding `x`
//! to 53 bits and then subtracting `Q` would cancel every significant
//! bit of `|v|`.
//!
//! One table serves every level of a modulus chain: the digits of a
//! length-`k` residue vector use only the first `k` moduli, so a prefix
//! of the chain is selected by the length of the slice passed in.
//! [`RnsPoly::crt_coefficient`](crate::RnsPoly::crt_coefficient) stays the
//! slow reference the tests compare this against.

use crate::modulus::{ShoupScalar, MAX_MODULUS_BITS};
use crate::simd::mul_shoup_lazy;
use crate::{MathError, Modulus};

/// Precomputed Garner constants for a chain of pairwise-coprime moduli.
#[derive(Debug, Clone)]
pub struct MixedRadix {
    moduli: Vec<Modulus>,
    /// Triangular table: row `i` (at offset `i(i−1)/2`, length `i`) holds
    /// `q_j⁻¹ mod q_i` for `j < i`.
    inv: Vec<ShoupScalar>,
    /// Per channel, the least multiple of `q_i` that is `≥ 2^61`: added
    /// before subtracting a digit of another channel so the difference
    /// stays non-negative without reducing that digit mod `q_i`.
    lift: Vec<u64>,
    /// Triangular table: the row for prefix length `k` (at offset
    /// `k(k−1)/2`, length `k`) holds the digits of `⌊q_0⋯q_{k-1} / 2⌋`.
    half: Vec<u64>,
}

/// Offset of row `i` in a triangular table whose row `i` has `i` entries.
#[inline]
fn tri(i: usize) -> usize {
    i * i.saturating_sub(1) / 2
}

impl MixedRadix {
    /// Builds the tables for `moduli` (and every prefix of it).
    ///
    /// # Errors
    ///
    /// Returns [`MathError::InvalidParameter`] for an empty chain and
    /// [`MathError::NotInvertible`] if two moduli share a factor.
    pub fn new(moduli: &[Modulus]) -> Result<Self, MathError> {
        if moduli.is_empty() {
            return Err(MathError::InvalidParameter { detail: "empty mixed-radix chain".into() });
        }
        let k = moduli.len();
        let mut inv = Vec::with_capacity(tri(k));
        for (i, qi) in moduli.iter().enumerate() {
            for qj in &moduli[..i] {
                inv.push(qi.shoup(qi.inv(qj.value())?));
            }
        }
        let lift = moduli
            .iter()
            .map(|m| (1u64 << MAX_MODULUS_BITS).div_ceil(m.value()) * m.value())
            .collect();
        let mut table = MixedRadix { moduli: moduli.to_vec(), inv, lift, half: Vec::new() };
        // Q is odd, so ⌊Q/2⌋ = (Q − 1)/2 ≡ (q_i − 1)/2 (mod q_i): its digits
        // come out of the recurrence itself.
        let mut half = Vec::with_capacity(tri(k + 1));
        for len in 1..=k {
            let mut row: Vec<u64> = moduli[..len].iter().map(|m| m.value() / 2).collect();
            table.to_digits(&mut row);
            half.extend(row);
        }
        table.half = half;
        Ok(table)
    }

    /// Garner's recurrence, in place: on entry `x[i]` is the canonical
    /// residue mod `q_i`, on return `x[i]` is the mixed-radix digit `d_i`.
    /// `x.len()` selects the prefix of the chain.
    ///
    /// # Panics
    ///
    /// Panics if `x` is longer than the chain.
    #[inline]
    pub fn to_digits(&self, x: &mut [u64]) {
        assert!(x.len() <= self.moduli.len(), "more residues than moduli");
        for i in 1..x.len() {
            let q = self.moduli[i].value();
            let lift = self.lift[i];
            // t stays in [0, 2q) ⊂ [0, 2^62); lift < 2^62 and every digit
            // is below 2^61 ≤ lift, so `t + lift − d_j` neither wraps nor
            // underflows, and the lazy Shoup product accepts any u64.
            let mut t = x[i];
            for (&w, &dj) in self.inv[tri(i)..tri(i + 1)].iter().zip(&x[..i]) {
                t = mul_shoup_lazy(t + lift - dj, w, q);
            }
            x[i] = if t >= q { t - q } else { t };
        }
    }

    /// Replaces the digits of `x ∈ [0, Q)` by the digits of `|v|`, where
    /// `v` is the centered representative (`x` itself up to `⌊Q/2⌋`,
    /// `x − Q` above), and returns whether `v` is negative. Exact.
    #[inline]
    pub fn center(&self, digits: &mut [u64]) -> bool {
        let k = digits.len();
        let half = &self.half[tri(k)..][..k];
        let negative = digits.iter().rev().gt(half.iter().rev());
        if negative {
            // Q − x = (Q − 1 − x) + 1, and Q − 1 has digits q_i − 1: the
            // complement never borrows, only the increment carries.
            let mut carry = true;
            for (d, m) in digits.iter_mut().zip(&self.moduli) {
                let v = m.value() - 1 - *d + u64::from(carry);
                carry = v == m.value();
                *d = if carry { 0 } else { v };
            }
        }
        negative
    }

    /// Horner evaluation of the digits in `f64`. Each step rounds the
    /// radix, the digit, the product and the sum, so the relative error
    /// is at most `4k·2⁻⁵³` (and `2k·2⁻⁵³` when every modulus is below
    /// `2⁵³`, where radix and digit convert exactly).
    #[inline]
    pub fn to_f64(&self, digits: &[u64]) -> f64 {
        digits
            .iter()
            .zip(&self.moduli)
            .rev()
            .fold(0.0, |acc, (&d, m)| acc * m.value() as f64 + d as f64)
    }

    /// The centered representative of the residues in `x` as an `f64`;
    /// `x` is left holding the digits of its magnitude.
    #[inline]
    pub fn centered_f64(&self, x: &mut [u64]) -> f64 {
        self.to_digits(x);
        let negative = self.center(x);
        let magnitude = self.to_f64(x);
        if negative {
            -magnitude
        } else {
            magnitude
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate_ntt_primes, UBig};

    fn chain(bits: u32, k: usize) -> Vec<Modulus> {
        generate_ntt_primes(bits, 8, k)
            .unwrap()
            .into_iter()
            .map(|q| Modulus::new(q).unwrap())
            .collect()
    }

    fn expand(digits: &[u64], moduli: &[Modulus]) -> UBig {
        let mut acc = UBig::zero();
        for (&d, m) in digits.iter().zip(moduli).rev() {
            acc = acc.mul_u64(m.value()).add(&UBig::from_u64(d));
        }
        acc
    }

    fn residues(x: &UBig, moduli: &[Modulus]) -> Vec<u64> {
        moduli.iter().map(|m| x.rem_u64(m.value())).collect()
    }

    #[test]
    fn digits_expand_back_to_the_value() {
        for (bits, k) in [(30, 1), (36, 3), (50, 5), (61, 4)] {
            let moduli = chain(bits, k);
            let mr = MixedRadix::new(&moduli).unwrap();
            let q = UBig::product_of(moduli.iter().map(|m| m.value()));
            let half = q.divrem_u64(2).0;
            for x in [
                UBig::zero(),
                UBig::one(),
                half.clone(),
                half.add(&UBig::one()),
                q.sub(&UBig::one()),
                UBig::from_u64(0xDEAD_BEEF_1234_5678).rem_big(&q),
            ] {
                let mut d = residues(&x, &moduli);
                mr.to_digits(&mut d);
                assert!(d.iter().zip(&moduli).all(|(&d, m)| d < m.value()));
                assert_eq!(expand(&d, &moduli), x, "bits={bits} k={k}");
            }
        }
    }

    #[test]
    fn sign_flips_exactly_above_half() {
        let moduli = chain(45, 4);
        let mr = MixedRadix::new(&moduli).unwrap();
        for len in 1..=moduli.len() {
            let q = UBig::product_of(moduli[..len].iter().map(|m| m.value()));
            let half = q.divrem_u64(2).0;
            let mut at = residues(&half, &moduli[..len]);
            mr.to_digits(&mut at);
            assert!(!mr.center(&mut at), "⌊Q/2⌋ is non-negative (len {len})");
            assert_eq!(expand(&at, &moduli[..len]), half);
            let mut above = residues(&half.add(&UBig::one()), &moduli[..len]);
            mr.to_digits(&mut above);
            assert!(mr.center(&mut above), "⌊Q/2⌋+1 is negative (len {len})");
            // Q − (⌊Q/2⌋ + 1) = ⌊Q/2⌋ for odd Q.
            assert_eq!(expand(&above, &moduli[..len]), half);
        }
    }

    #[test]
    fn centered_views_match_signed_inputs() {
        let moduli = chain(40, 3);
        let mr = MixedRadix::new(&moduli).unwrap();
        for v in [-98_765_432_101i64, -257, -1, 0, 1, 256, 123_456_789_012] {
            let mut x: Vec<u64> = moduli.iter().map(|m| m.from_i64(v)).collect();
            assert_eq!(mr.centered_f64(&mut x.clone()), v as f64);
            mr.to_digits(&mut x);
            let negative = mr.center(&mut x);
            assert_eq!(negative, v < 0);
            assert_eq!(expand(&x, &moduli), UBig::from_u64(v.unsigned_abs()));
        }
    }

    #[test]
    fn rejects_empty_and_non_coprime_chains() {
        assert!(MixedRadix::new(&[]).is_err());
        let m = Modulus::new(65537).unwrap();
        assert!(MixedRadix::new(&[m, m]).is_err());
    }
}
