//! TRLWE (ring-LWE over the torus) ciphertexts, `k = 1`.
//!
//! Coefficients are 64-bit torus words; a ciphertext made at a ring
//! precision `w < 64` (see [`crate::NegacyclicMultiplier`]) has a mask
//! whose low `64 − w` bits are zero, so the product `a·s` the multiplier
//! computes is the product of the mask it stores.

use crate::lwe::{LweCiphertext, LweSecretKey};
use crate::poly_mult::NegacyclicMultiplier;
use crate::TfheError;
use rand::distributions::{Distribution, Uniform};
use rand::Rng;

/// A binary TRLWE secret key polynomial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrlweSecretKey {
    bits: Vec<i64>,
}

impl TrlweSecretKey {
    /// Samples a uniform binary key polynomial of degree `n`: the draws
    /// `gen_range(0..2)` would make, with the range built once.
    pub fn generate<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Self {
        let bit = Uniform::new(0, 2i64);
        TrlweSecretKey { bits: (0..n).map(|_| bit.sample(rng)).collect() }
    }

    /// The key coefficients (0/1).
    #[inline]
    pub fn bits(&self) -> &[i64] {
        &self.bits
    }

    /// Ring degree.
    #[inline]
    pub fn n(&self) -> usize {
        self.bits.len()
    }

    /// The LWE key obtained by sample extraction (same coefficients).
    pub fn to_extracted_lwe_key(&self) -> LweSecretKey {
        LweSecretKey::from_bits(self.bits.iter().map(|&b| b as u64).collect())
    }

    /// Encrypts a torus message polynomial, the mask sampled at `mult`'s
    /// ring precision.
    ///
    /// # Errors
    ///
    /// None: the `Result` is kept only because the frozen benchmark
    /// `.expect`s it.
    ///
    /// # Panics
    ///
    /// Panics if `mu.len() != n`.
    pub fn encrypt<R: Rng + ?Sized>(
        &self,
        mu: &[u64],
        sigma: f64,
        mult: &NegacyclicMultiplier,
        rng: &mut R,
    ) -> Result<TrlweCiphertext, TfheError> {
        assert_eq!(mu.len(), self.bits.len());
        let n = self.bits.len();
        let (mut a, mut b) = (vec![0; n], vec![0; n]);
        draw_mask_and_noise(sigma, mult, rng, &mut a, &mut b);
        let a_s = mult.mul_int_torus(&self.bits, &a);
        for ((b, &m), &p) in b.iter_mut().zip(mu).zip(&a_s) {
            *b = b.wrapping_add(m).wrapping_add(p);
        }
        Ok(TrlweCiphertext { a, b })
    }

    /// The phase polynomial `b − a·s`.
    pub fn phase(&self, ct: &TrlweCiphertext, mult: &NegacyclicMultiplier) -> Vec<u64> {
        let a_s = mult.mul_int_torus(&self.bits, &ct.a);
        ct.b.iter().zip(&a_s).map(|(&b, &p)| b.wrapping_sub(p)).collect()
    }
}

/// The generator's words for one TRLWE encryption, in the order every
/// encryption draws them: the mask at `mult`'s ring precision into `a`,
/// then the Gaussian noise into `e`.
pub(crate) fn draw_mask_and_noise<R: Rng + ?Sized>(
    sigma: f64,
    mult: &NegacyclicMultiplier,
    rng: &mut R,
    a: &mut [u64],
    e: &mut [u64],
) {
    a.fill_with(|| mult.round(rng.gen::<u64>()));
    e.fill_with(|| crate::lwe::sample_torus_gaussian(sigma, rng));
}

/// A TRLWE ciphertext `(a, b)` with `b = a·s + μ + e` over
/// `T_N[X] = T[X]/(X^N + 1)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrlweCiphertext {
    /// The mask polynomial.
    pub a: Vec<u64>,
    /// The body polynomial.
    pub b: Vec<u64>,
}

impl TrlweCiphertext {
    /// Trivial (noiseless) encryption of a message polynomial.
    pub fn trivial(mu: Vec<u64>) -> Self {
        let n = mu.len();
        TrlweCiphertext { a: vec![0; n], b: mu }
    }

    /// Ring degree.
    #[inline]
    pub fn n(&self) -> usize {
        self.b.len()
    }

    /// Component-wise addition.
    ///
    /// # Panics
    ///
    /// Panics on degree mismatch.
    pub fn add(&self, other: &TrlweCiphertext) -> TrlweCiphertext {
        assert_eq!(self.n(), other.n());
        TrlweCiphertext {
            a: self.a.iter().zip(&other.a).map(|(&x, &y)| x.wrapping_add(y)).collect(),
            b: self.b.iter().zip(&other.b).map(|(&x, &y)| x.wrapping_add(y)).collect(),
        }
    }

    /// Component-wise subtraction.
    ///
    /// # Panics
    ///
    /// Panics on degree mismatch.
    pub fn sub(&self, other: &TrlweCiphertext) -> TrlweCiphertext {
        assert_eq!(self.n(), other.n());
        TrlweCiphertext {
            a: self.a.iter().zip(&other.a).map(|(&x, &y)| x.wrapping_sub(y)).collect(),
            b: self.b.iter().zip(&other.b).map(|(&x, &y)| x.wrapping_sub(y)).collect(),
        }
    }

    /// Multiplies by the monomial `X^e` (negacyclic rotation), `e` taken
    /// modulo `2N`.
    pub fn rotate(&self, e: usize) -> TrlweCiphertext {
        TrlweCiphertext { a: rotate_poly(&self.a, e), b: rotate_poly(&self.b, e) }
    }

    /// Extracts the coefficient-0 LWE ciphertext under the extracted key.
    pub fn sample_extract(&self) -> LweCiphertext {
        let n = self.n();
        let mut a = vec![0u64; n];
        a[0] = self.a[0];
        for (j, aj) in a.iter_mut().enumerate().skip(1) {
            *aj = self.a[n - j].wrapping_neg();
        }
        LweCiphertext { a, b: self.b[0] }
    }
}

/// Negacyclic coefficient rotation: `p(X)·X^e mod X^N + 1`.
pub(crate) fn rotate_poly(p: &[u64], e: usize) -> Vec<u64> {
    let mut out = vec![0u64; p.len()];
    rotate_map(p, e, &mut out, |rotated, _| rotated);
    out
}

/// `out[j] = f((p·X^e)[j], p[j])` with `e` taken modulo `2N`, in one pass
/// and no allocation. With `f = wrapping_sub` this is `X^e·p − p`, the CMux
/// difference of one blind-rotation step.
pub(crate) fn rotate_map(p: &[u64], e: usize, out: &mut [u64], f: impl Fn(u64, u64) -> u64) {
    let n = p.len();
    assert_eq!(out.len(), n);
    let e = e % (2 * n);
    // X^N = −1: a rotation by `e ≥ N` is one by `e − N`, negated. With
    // `m ∈ {0, !0}`, `(c ^ m) − m` is `c` or `−c`.
    let (shift, m) = if e < n { (e, 0) } else { (e - n, u64::MAX) };
    let (kept, wrapped) = p.split_at(n - shift);
    fhe_math::simd::wide(
        #[inline(always)]
        move || {
            for ((o, &c), &s) in out[shift..].iter_mut().zip(kept).zip(&p[shift..]) {
                *o = f((c ^ m).wrapping_sub(m), s);
            }
            for ((o, &c), &s) in out[..shift].iter_mut().zip(wrapped).zip(p) {
                *o = f((c ^ !m).wrapping_sub(!m), s);
            }
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::torus::encode_message;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup() -> (TrlweSecretKey, NegacyclicMultiplier, ChaCha8Rng) {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mult = NegacyclicMultiplier::new(64).unwrap();
        let key = TrlweSecretKey::generate(64, &mut rng);
        (key, mult, rng)
    }

    #[test]
    fn encrypt_decrypt_polynomial() {
        let (key, mult, mut rng) = setup();
        let mu: Vec<u64> = (0..64).map(|i| encode_message(i % 4, 4)).collect();
        let ct = key.encrypt(&mu, 2.0f64.powi(-30), &mult, &mut rng).unwrap();
        let phase = key.phase(&ct, &mult);
        for (i, (&p, &m)) in phase.iter().zip(&mu).enumerate() {
            assert_eq!(
                crate::torus::decode_message(p, 4),
                crate::torus::decode_message(m, 4),
                "coeff {i}"
            );
        }
    }

    #[test]
    fn rotation_is_negacyclic() {
        let p = vec![1u64, 2, 3, 4];
        // X^1: [−4, 1, 2, 3].
        assert_eq!(rotate_poly(&p, 1), vec![4u64.wrapping_neg(), 1, 2, 3]);
        // X^4 = −1 for N = 4.
        assert_eq!(
            rotate_poly(&p, 4),
            vec![
                1u64.wrapping_neg(),
                2u64.wrapping_neg(),
                3u64.wrapping_neg(),
                4u64.wrapping_neg()
            ]
        );
        // X^8 = identity.
        assert_eq!(rotate_poly(&p, 8), p);
    }

    #[test]
    fn rotate_map_fuses_rotation_and_subtraction() {
        let p: Vec<u64> = (1..=8u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect();
        for e in 0..=17 {
            let want: Vec<u64> =
                rotate_poly(&p, e).iter().zip(&p).map(|(&r, &c)| r.wrapping_sub(c)).collect();
            let mut got = vec![0u64; p.len()];
            rotate_map(&p, e, &mut got, u64::wrapping_sub);
            assert_eq!(got, want, "e = {e}");
        }
    }

    #[test]
    fn sample_extract_matches_coefficient_zero() {
        let (key, mult, mut rng) = setup();
        let mu: Vec<u64> = (0..64).map(|i| encode_message((i * 3) % 8, 8)).collect();
        let ct = key.encrypt(&mu, 2.0f64.powi(-30), &mult, &mut rng).unwrap();
        let lwe = ct.sample_extract();
        let lwe_key = key.to_extracted_lwe_key();
        assert_eq!(lwe_key.decrypt_message(&lwe, 8), crate::torus::decode_message(mu[0], 8));
    }

    #[test]
    fn rotation_commutes_with_decryption() {
        let (key, mult, mut rng) = setup();
        let mut mu = vec![0u64; 64];
        mu[0] = encode_message(3, 8);
        let ct = key.encrypt(&mu, 2.0f64.powi(-30), &mult, &mut rng).unwrap();
        let rotated = ct.rotate(5);
        let phase = key.phase(&rotated, &mult);
        assert_eq!(
            crate::torus::decode_message(phase[5], 8),
            3,
            "message should move to coefficient 5"
        );
    }

    #[test]
    fn trivial_round_trip() {
        let (key, mult, _) = setup();
        let mu: Vec<u64> = (0..64).map(|i| encode_message(i % 2, 2)).collect();
        let ct = TrlweCiphertext::trivial(mu.clone());
        assert_eq!(key.phase(&ct, &mult), mu);
    }
}
