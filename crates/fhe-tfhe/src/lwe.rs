//! LWE ciphertexts over the torus `Z_{2^64}`.
//!
//! Fresh encryptions and every homomorphic operation here use all 64 bits.
//! Two producers hand back samples whose mask has its low 32 bits clear:
//! sample extraction from a 32-bit ring (set I) and every key switch, whose
//! key rows are 32-bit (`bootstrap.rs`). Their noise (`2^-15` or more at
//! the paper sets, `2^-25` at the toy set) is far above the `2^-33` that
//! costs — the precision rule and its noise argument are in `params.rs`.

use crate::params::TfheParams;
use crate::torus;
use rand::distributions::{Distribution, Uniform};
use rand::Rng;

/// A binary LWE secret key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LweSecretKey {
    bits: Vec<u64>,
}

impl LweSecretKey {
    /// Samples a uniform binary key of dimension `n`: the draws
    /// `gen_range(0..2)` would make, with the range built once.
    pub fn generate<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Self {
        let bit = Uniform::new(0, 2u64);
        LweSecretKey { bits: (0..n).map(|_| bit.sample(rng)).collect() }
    }

    /// Wraps explicit key bits (testing, and TRLWE key extraction).
    pub fn from_bits(bits: Vec<u64>) -> Self {
        assert!(bits.iter().all(|&b| b <= 1), "LWE secret key bits must be 0 or 1");
        LweSecretKey { bits }
    }

    /// Key dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.bits.len()
    }

    /// The key bits.
    #[inline]
    pub fn bits(&self) -> &[u64] {
        &self.bits
    }

    /// Encrypts a torus message `mu`.
    pub fn encrypt<R: Rng + ?Sized>(&self, mu: u64, sigma: f64, rng: &mut R) -> LweCiphertext {
        let a: Vec<u64> = (0..self.bits.len()).map(|_| rng.gen::<u64>()).collect();
        let noise = sample_torus_gaussian(sigma, rng);
        let mut b = mu.wrapping_add(noise);
        for (ai, si) in a.iter().zip(&self.bits) {
            if *si == 1 {
                b = b.wrapping_add(*ai);
            }
        }
        LweCiphertext { a, b }
    }

    /// Decrypts to the raw torus phase `b − ⟨a, s⟩`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn phase(&self, ct: &LweCiphertext) -> u64 {
        assert_eq!(ct.a.len(), self.bits.len(), "LWE dimension mismatch");
        let mut p = ct.b;
        for (ai, si) in ct.a.iter().zip(&self.bits) {
            if *si == 1 {
                p = p.wrapping_sub(*ai);
            }
        }
        p
    }

    /// Decrypts a message from a `space`-sector torus.
    pub fn decrypt_message(&self, ct: &LweCiphertext, space: u64) -> u64 {
        torus::decode_message(self.phase(ct), space)
    }
}

/// An LWE ciphertext `(a, b)` with `b = ⟨a, s⟩ + μ + e`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LweCiphertext {
    /// The mask.
    pub a: Vec<u64>,
    /// The body.
    pub b: u64,
}

impl LweCiphertext {
    /// The trivial (noiseless, keyless) encryption of `mu`.
    pub fn trivial(mu: u64, dim: usize) -> Self {
        LweCiphertext { a: vec![0; dim], b: mu }
    }

    /// LWE dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.a.len()
    }

    /// Homomorphic addition.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn add(&self, other: &LweCiphertext) -> LweCiphertext {
        assert_eq!(self.a.len(), other.a.len());
        LweCiphertext {
            a: self.a.iter().zip(&other.a).map(|(&x, &y)| x.wrapping_add(y)).collect(),
            b: self.b.wrapping_add(other.b),
        }
    }

    /// Homomorphic subtraction.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn sub(&self, other: &LweCiphertext) -> LweCiphertext {
        assert_eq!(self.a.len(), other.a.len());
        LweCiphertext {
            a: self.a.iter().zip(&other.a).map(|(&x, &y)| x.wrapping_sub(y)).collect(),
            b: self.b.wrapping_sub(other.b),
        }
    }

    /// Negation.
    pub fn neg(&self) -> LweCiphertext {
        LweCiphertext {
            a: self.a.iter().map(|&x| x.wrapping_neg()).collect(),
            b: self.b.wrapping_neg(),
        }
    }

    /// Adds a plaintext torus constant.
    pub fn add_constant(&self, mu: u64) -> LweCiphertext {
        LweCiphertext { a: self.a.clone(), b: self.b.wrapping_add(mu) }
    }
}

/// Samples torus-scaled rounded Gaussian noise.
pub(crate) fn sample_torus_gaussian<R: Rng + ?Sized>(sigma: f64, rng: &mut R) -> u64 {
    let g = fhe_math::GaussianSampler::new(sigma * 18_446_744_073_709_551_616.0);
    g.sample(rng) as u64
}

/// Per-parameter convenience: encrypt a bit as `±1/8`.
pub(crate) fn encrypt_bit<R: Rng + ?Sized>(
    key: &LweSecretKey,
    params: &TfheParams,
    bit: bool,
    rng: &mut R,
) -> LweCiphertext {
    let mu = if bit { crate::torus::ONE_EIGHTH } else { crate::torus::ONE_EIGHTH.wrapping_neg() };
    key.encrypt(mu, params.lwe_sigma, rng)
}

/// Decrypts a `±1/8` bit.
pub(crate) fn decrypt_bit(key: &LweSecretKey, ct: &LweCiphertext) -> bool {
    // Positive phase → true.
    let p = key.phase(ct);
    (p as i64) > 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::torus::{encode_message, ONE_EIGHTH};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn encrypt_decrypt_messages() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let key = LweSecretKey::generate(64, &mut rng);
        for m in 0..8u64 {
            let ct = key.encrypt(encode_message(m, 8), 2.0f64.powi(-20), &mut rng);
            assert_eq!(key.decrypt_message(&ct, 8), m);
        }
    }

    #[test]
    fn homomorphic_addition() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let key = LweSecretKey::generate(32, &mut rng);
        let c1 = key.encrypt(encode_message(1, 8), 2.0f64.powi(-25), &mut rng);
        let c2 = key.encrypt(encode_message(2, 8), 2.0f64.powi(-25), &mut rng);
        assert_eq!(key.decrypt_message(&c1.add(&c2), 8), 3);
        assert_eq!(key.decrypt_message(&c2.sub(&c1), 8), 1);
        assert_eq!(key.decrypt_message(&c1.neg(), 8), 7);
        assert_eq!(key.decrypt_message(&c1.add_constant(encode_message(4, 8)), 8), 5);
    }

    #[test]
    fn trivial_ciphertext() {
        let key = LweSecretKey::from_bits(vec![1, 0, 1]);
        let ct = LweCiphertext::trivial(ONE_EIGHTH, 3);
        assert_eq!(key.phase(&ct), ONE_EIGHTH);
    }

    #[test]
    fn bit_round_trip() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let params = TfheParams::toy();
        let key = LweSecretKey::generate(params.lwe_dim, &mut rng);
        for bit in [true, false] {
            let ct = encrypt_bit(&key, &params, bit, &mut rng);
            assert_eq!(decrypt_bit(&key, &ct), bit);
        }
    }
}
