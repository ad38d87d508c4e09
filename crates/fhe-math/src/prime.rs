//! Prime generation for NTT-friendly RNS moduli.
//!
//! Alchemist adopts SHARP's finding that a 36-bit RNS word size is the sweet
//! spot for arithmetic FHE (paper §5.4); [`generate_ntt_primes`] produces
//! chains of such primes, each satisfying `q ≡ 1 (mod 2N)` so the negacyclic
//! NTT of size `N` exists.

use crate::MathError;

/// Deterministic Miller–Rabin primality test for `u64`.
///
/// Uses the base set `{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}` which is
/// proven deterministic for all 64-bit integers.
///
/// # Example
///
/// ```
/// assert!(fhe_math::is_prime(65537));
/// assert!(!fhe_math::is_prime(65536));
/// ```
pub fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for &p in &[2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == p {
            return true;
        }
        if n.is_multiple_of(p) {
            return false;
        }
    }
    // n - 1 = d * 2^s with d odd.
    let mut d = n - 1;
    let mut s = 0u32;
    while d.is_multiple_of(2) {
        d /= 2;
        s += 1;
    }
    'witness: for &a in &[2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = pow_mod(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 0..s - 1 {
            x = mul_mod(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

#[inline]
fn mul_mod(a: u64, b: u64, n: u64) -> u64 {
    (a as u128 * b as u128 % n as u128) as u64
}

fn pow_mod(mut base: u64, mut exp: u64, n: u64) -> u64 {
    base %= n;
    let mut acc = 1u64;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod(acc, base, n);
        }
        base = mul_mod(base, base, n);
        exp >>= 1;
    }
    acc
}

/// Generates `count` distinct primes of the given bit width supporting a
/// negacyclic NTT of size `degree` (i.e. `q ≡ 1 mod 2·degree`), searching
/// downward from `2^bits`.
///
/// # Errors
///
/// * [`MathError::InvalidDegree`] if `degree` is not a power of two in
///   `[8, 2^17]`.
/// * [`MathError::InvalidParameter`] if `bits` is too small to host
///   `2·degree`-aligned primes or exceeds 61.
/// * [`MathError::PrimeSearchExhausted`] if fewer than `count` primes exist
///   in the bit range.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), fhe_math::MathError> {
/// let primes = fhe_math::generate_ntt_primes(36, 1 << 12, 4)?;
/// assert_eq!(primes.len(), 4);
/// for q in primes {
///     assert!(fhe_math::is_prime(q));
///     assert_eq!(q % (2 << 12), 1);
/// }
/// # Ok(())
/// # }
/// ```
pub fn generate_ntt_primes(bits: u32, degree: usize, count: usize) -> Result<Vec<u64>, MathError> {
    if !degree.is_power_of_two() || !(8..=(1 << 17)).contains(&degree) {
        return Err(MathError::InvalidDegree { degree });
    }
    let step = 2 * degree as u64;
    if bits > 61 {
        return Err(MathError::InvalidParameter {
            detail: format!("prime width {bits} exceeds the 61-bit modulus limit"),
        });
    }
    let hi = 1u64 << bits;
    if hi <= step {
        return Err(MathError::InvalidParameter {
            detail: format!("2^{bits} is not larger than 2N = {step}"),
        });
    }
    let lo = hi >> 1;
    // Largest candidate ≡ 1 (mod step) strictly below 2^bits.
    let mut candidate = (hi - 2) / step * step + 1;
    let mut primes = Vec::with_capacity(count);
    while primes.len() < count && candidate > lo {
        if is_prime(candidate) {
            primes.push(candidate);
        }
        candidate -= step;
    }
    if primes.len() < count {
        return Err(MathError::PrimeSearchExhausted {
            bits,
            requested: count,
            found: primes.len(),
        });
    }
    Ok(primes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_primes_classified() {
        let primes = [2u64, 3, 5, 7, 11, 13, 97, 65537, 2_147_483_647];
        for p in primes {
            assert!(is_prime(p), "{p} should be prime");
        }
        let composites = [0u64, 1, 4, 9, 91, 561, 65535, 2_147_483_649];
        for c in composites {
            assert!(!is_prime(c), "{c} should be composite");
        }
    }

    #[test]
    fn strong_pseudoprimes_rejected() {
        // Known strong pseudoprimes to small bases.
        for c in [3_215_031_751u64, 3_474_749_660_383, 341_550_071_728_321] {
            assert!(!is_prime(c), "{c} is composite");
        }
    }

    #[test]
    fn generated_primes_support_ntt() {
        let primes = generate_ntt_primes(36, 1 << 14, 6).unwrap();
        assert_eq!(primes.len(), 6);
        let mut sorted = primes.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), 6, "primes must be distinct");
        for q in primes {
            assert!(is_prime(q));
            assert_eq!(q % (2u64 << 14), 1);
            assert_eq!(64 - q.leading_zeros(), 36);
        }
    }

    #[test]
    fn rejects_invalid_requests() {
        assert!(generate_ntt_primes(36, 100, 1).is_err()); // not a power of two
        assert!(generate_ntt_primes(62, 1 << 10, 1).is_err()); // too wide
        assert!(generate_ntt_primes(10, 1 << 12, 1).is_err()); // 2N > 2^bits
        assert!(generate_ntt_primes(15, 8, 10_000).is_err()); // exhausted
    }
}
