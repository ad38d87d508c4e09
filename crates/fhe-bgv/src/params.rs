//! BGV parameter sets.

use crate::BgvError;
use fhe_math::{generate_primes_with_step, is_prime};

/// Validated BGV parameters.
///
/// The ciphertext primes and the special prime all satisfy
/// `q ≡ 1 (mod lcm(2N, t))`: the `2N` part gives the negacyclic NTT, the
/// `t` part makes modulus switching and `Moddown` plaintext-preserving
/// (`q ≡ 1 (mod t)` ⇒ dividing by `q` is the identity on `Z_t`).
#[derive(Debug, Clone, PartialEq)]
pub struct BgvParams {
    n: usize,
    t: u64,
    moduli: Vec<u64>,
    special: u64,
    sigma: f64,
}

impl BgvParams {
    /// Builds a parameter set with `max_level + 1` ciphertext primes of
    /// `q_bits` bits and one `special_bits`-bit prime for relinearization.
    ///
    /// # Errors
    ///
    /// Returns [`BgvError::InvalidParams`] unless `n` is a power of two in
    /// `[16, 2^16]`, `t` is an odd prime with `t ≡ 1 (mod 2n)`, and the
    /// requested primes exist.
    pub fn new(
        n: usize,
        t: u64,
        max_level: usize,
        q_bits: u32,
        special_bits: u32,
    ) -> Result<Self, BgvError> {
        if !n.is_power_of_two() || !(16..=(1 << 16)).contains(&n) {
            return Err(BgvError::InvalidParams {
                detail: format!("ring degree {n} must be a power of two in [16, 2^16]"),
            });
        }
        if !is_prime(t) || t % (2 * n as u64) != 1 {
            return Err(BgvError::InvalidParams {
                detail: format!("plaintext modulus {t} must be prime with t ≡ 1 mod 2N"),
            });
        }
        // 2N | t - 1 and t odd ⇒ gcd(2N, t) = 1 ⇒ lcm = 2N·t.
        let step = 2 * n as u64 * t;
        let moduli = generate_primes_with_step(q_bits, step, max_level + 1)?;
        let special = generate_primes_with_step(special_bits, step, 1)?[0];
        if moduli.contains(&special) {
            return Err(BgvError::InvalidParams {
                detail: "special prime collides with the chain".into(),
            });
        }
        Ok(BgvParams { n, t, moduli, special, sigma: 3.2 })
    }

    /// Tiny insecure parameters for tests: `N = 64, t = 257, L = 2`.
    ///
    /// # Errors
    ///
    /// Propagates prime-generation failures (should not occur).
    pub fn toy() -> Result<Self, BgvError> {
        BgvParams::new(64, 257, 2, 40, 50)
    }

    /// Ring degree `N` (also the SIMD slot count).
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Plaintext modulus `t`.
    #[inline]
    pub fn t(&self) -> u64 {
        self.t
    }

    /// Ciphertext primes `q_0 … q_L`.
    #[inline]
    pub fn moduli(&self) -> &[u64] {
        &self.moduli
    }

    /// The special (relinearization) prime `p`.
    #[inline]
    pub fn special(&self) -> u64 {
        self.special
    }

    /// Maximum level `L`.
    #[inline]
    pub fn max_level(&self) -> usize {
        self.moduli.len() - 1
    }

    /// Gaussian noise standard deviation.
    #[inline]
    pub fn sigma(&self) -> f64 {
        self.sigma
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toy_constructs_with_congruences() {
        let p = BgvParams::toy().unwrap();
        assert_eq!(p.n(), 64);
        assert_eq!(p.t(), 257);
        assert_eq!(p.max_level(), 2);
        for &q in p.moduli().iter().chain(std::iter::once(&p.special())) {
            assert!(is_prime(q));
            assert_eq!(q % (2 * 64), 1, "NTT congruence");
            assert_eq!(q % 257, 1, "plaintext-preservation congruence");
        }
    }

    #[test]
    fn rejects_bad_configs() {
        assert!(BgvParams::new(60, 257, 2, 40, 50).is_err()); // not power of two
        assert!(BgvParams::new(64, 256, 2, 40, 50).is_err()); // t not prime
        assert!(BgvParams::new(64, 193, 2, 40, 50).is_err()); // t ≢ 1 mod 128
        assert!(BgvParams::new(64, 257, 2, 62, 50).is_err()); // too wide
    }
}
