//! Randomness for key generation and encryption.
//!
//! Research-reproduction quality: distributions are statistically faithful
//! (rejection-free uniform sampling, Box–Muller discrete Gaussian) but no
//! constant-time guarantees are attempted.

use rand::distributions::{Distribution, Uniform};
use rand::Rng;

/// Samples `n` uniform residues in `[0, q)` without modulo bias: the draws
/// `gen_range(0..q)` would make, with the range's rejection zone (a 64-bit
/// division) computed once per call instead of once per residue.
pub fn sample_uniform<R: Rng + ?Sized>(q: u64, n: usize, rng: &mut R) -> Vec<u64> {
    let residues = Uniform::new(0, q);
    (0..n).map(|_| residues.sample(rng)).collect()
}

/// Samples `n` ternary coefficients in `{-1, 0, 1}` uniformly — the secret
/// key distribution used by both schemes here. The draws `gen_range(-1..=1)`
/// would make, with the range built once per call.
pub fn sample_ternary<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Vec<i64> {
    let ternary = Uniform::new_inclusive(-1, 1);
    (0..n).map(|_| ternary.sample(rng)).collect()
}

/// Samples `n` centered discrete Gaussian values with standard deviation
/// `sigma` (rounded Box–Muller; fine for noise terms in a reproduction).
pub fn sample_gaussian<R: Rng + ?Sized>(sigma: f64, n: usize, rng: &mut R) -> Vec<i64> {
    GaussianSampler::new(sigma).sample_vec(n, rng)
}

/// A reusable discrete Gaussian sampler.
///
/// # Example
///
/// ```
/// use fhe_math::GaussianSampler;
/// use rand::SeedableRng;
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
/// let s = GaussianSampler::new(3.2);
/// let noise = s.sample_vec(1024, &mut rng);
/// assert_eq!(noise.len(), 1024);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussianSampler {
    sigma: f64,
}

impl GaussianSampler {
    /// Creates a sampler with the given standard deviation (`sigma ≥ 0`;
    /// zero yields the constant 0).
    pub fn new(sigma: f64) -> Self {
        GaussianSampler { sigma: sigma.max(0.0) }
    }

    /// The standard deviation.
    #[inline]
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Draws one rounded Gaussian sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> i64 {
        if self.sigma == 0.0 {
            return 0;
        }
        // Box–Muller.
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let g = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        round_to_i64(g * self.sigma)
    }

    /// Draws `n` rounded Gaussian samples.
    pub fn sample_vec<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<i64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// `x.round() as i64` without libm's `round` (baseline x86-64 has no
/// `roundsd`): the truncation, moved one away from zero when the dropped
/// fraction is at least one half. Exact for every `f64`: below 2^52 the
/// fraction `x − trunc(x)` is exact, from 2^52 on `x` is an integer, and
/// past ±2^63 (and at ±∞) the cast saturates and the step saturates with
/// it; NaN casts to 0 with a NaN fraction, which moves nothing.
#[inline]
pub fn round_to_i64(x: f64) -> i64 {
    let t = x as i64;
    let fraction = x - t as f64;
    t.saturating_add(i64::from(fraction >= 0.5) - i64::from(fraction <= -0.5))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn uniform_in_range() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let q = 65537;
        let v = sample_uniform(q, 10_000, &mut rng);
        assert!(v.iter().all(|&x| x < q));
        // Crude uniformity: mean near q/2 within 2%.
        let mean: f64 = v.iter().map(|&x| x as f64).sum::<f64>() / v.len() as f64;
        assert!((mean - q as f64 / 2.0).abs() < q as f64 * 0.02, "mean {mean}");
    }

    #[test]
    fn ternary_support() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let v = sample_ternary(3000, &mut rng);
        assert!(v.iter().all(|&x| (-1..=1).contains(&x)));
        for target in [-1i64, 0, 1] {
            let count = v.iter().filter(|&&x| x == target).count();
            assert!(count > 700, "value {target} badly under-represented: {count}");
        }
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let sigma = 3.2;
        let v = sample_gaussian(sigma, 50_000, &mut rng);
        let mean: f64 = v.iter().map(|&x| x as f64).sum::<f64>() / v.len() as f64;
        let var: f64 = v.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / v.len() as f64;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - sigma).abs() < 0.15, "std {}", var.sqrt());
    }

    #[test]
    fn zero_sigma_is_constant_zero() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        assert!(GaussianSampler::new(0.0).sample_vec(100, &mut rng).iter().all(|&x| x == 0));
    }
}
