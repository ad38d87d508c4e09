//! TFHE parameter sets.
//!
//! # Ring precision
//!
//! Ciphertexts are 64-bit torus words throughout, but the *ring* layer
//! (TRLWE/TRGSW, the external product, blind rotation) works at a precision
//! of [`TfheParams::ring_bits`] bits, derived from the set rather than
//! chosen: 32 — the torus word of the Matcha/Strix baselines, inside
//! Alchemist's 36-bit datapath — whenever that loses nothing, 64 otherwise.
//! "Loses nothing" is two conditions. The gadget must read only bits the
//! ring keeps (`β·l_b ≤ 32`), and rounding key material to 32 bits — a
//! uniform error of at most `2^-33` per coefficient, standard deviation
//! `2^-33.8` — must vanish under the GLWE noise already there
//! (`glwe_sigma ≥ 2^-28`, i.e. at most `2^-11.6` of its variance). At set I
//! (`σ = 2^-25`) one blind-rotation step accumulates
//! `√(T·N·B²/12) = 2^11.5` key coefficients' worth: `2^-13.5` of noise
//! from the key against `2^-22.3` from its rounding. The toy set
//! (`σ = 2^-35`) and set II (`σ = 2^-48`, 23-bit digit) keep all 64 bits.
//! The precision in turn fixes how many 51-bit NTT primes an exact
//! external product needs (table in `poly_mult.rs`): one at set I, two
//! elsewhere.
//!
//! The LWE key-switch key is stored at 32 bits for every preset (see
//! `bootstrap.rs`): LWE noise (`2^-25`, `2^-15`, `2^-17`) sits far above
//! `2^-32` in all three, and the key-switch gadget never reads deeper
//! (`ks_base_log · ks_levels ≤ 32`, checked at generation).

/// TFHE parameters over the discretized torus `Z_{2^64}`.
///
/// The two "paper" sets mirror the configurations the paper benchmarks
/// against ([Matcha]/Concrete-style and [Strix]-style); [`TfheParams::toy`]
/// is a fast, insecure set for unit tests.
///
/// [Matcha]: https://doi.org/10.1145/3489517.3530435
/// [Strix]: https://doi.org/10.1145/3613424.3614264
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TfheParams {
    /// LWE dimension `n` (blind-rotation step count).
    pub lwe_dim: usize,
    /// GLWE polynomial degree `N`.
    pub poly_size: usize,
    /// GLWE dimension `k` (this implementation fixes `k = 1`).
    pub glwe_dim: usize,
    /// TRGSW decomposition base (log2) `β`.
    pub pbs_base_log: u32,
    /// TRGSW decomposition levels `l_b`.
    pub pbs_levels: usize,
    /// LWE key-switch decomposition base (log2).
    pub ks_base_log: u32,
    /// LWE key-switch decomposition levels.
    pub ks_levels: usize,
    /// LWE noise standard deviation (fraction of the torus).
    pub lwe_sigma: f64,
    /// GLWE noise standard deviation (fraction of the torus).
    pub glwe_sigma: f64,
}

impl TfheParams {
    /// Fast insecure parameters for unit tests: `n = 16, N = 64`.
    pub fn toy() -> Self {
        TfheParams {
            lwe_dim: 16,
            poly_size: 64,
            glwe_dim: 1,
            pbs_base_log: 10,
            pbs_levels: 3,
            ks_base_log: 4,
            ks_levels: 8,
            lwe_sigma: 2.0f64.powi(-25),
            glwe_sigma: 2.0f64.powi(-35),
        }
    }

    /// Parameter set I (Matcha/Concrete-style): `n = 630, N = 1024, l = 3`.
    pub fn set_i() -> Self {
        TfheParams {
            lwe_dim: 630,
            poly_size: 1024,
            glwe_dim: 1,
            pbs_base_log: 7,
            pbs_levels: 3,
            ks_base_log: 2,
            ks_levels: 8,
            lwe_sigma: 3.05e-5,
            glwe_sigma: 2.94e-8,
        }
    }

    /// Parameter set II (Strix-style, larger ring): `n = 742, N = 2048,
    /// l = 2`.
    pub fn set_ii() -> Self {
        TfheParams {
            lwe_dim: 742,
            poly_size: 2048,
            glwe_dim: 1,
            pbs_base_log: 23,
            pbs_levels: 1,
            ks_base_log: 3,
            ks_levels: 5,
            lwe_sigma: 7.06e-6,
            glwe_sigma: 2.9e-15,
        }
    }

    /// Ring precision `w` in bits (module docs): 32 when the bootstrap
    /// gadget reads no deeper and 32-bit rounding vanishes under the GLWE
    /// noise, 64 otherwise.
    pub fn ring_bits(&self) -> u32 {
        let gadget_bits = self.pbs_base_log as usize * self.pbs_levels;
        if gadget_bits <= 32 && self.glwe_sigma >= 2.0f64.powi(-28) {
            32
        } else {
            64
        }
    }

    /// The extracted-LWE dimension after sample extraction (`k·N`).
    pub fn extracted_dim(&self) -> usize {
        self.glwe_dim * self.poly_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_well_formed() {
        for p in [TfheParams::toy(), TfheParams::set_i(), TfheParams::set_ii()] {
            assert!(p.poly_size.is_power_of_two());
            assert_eq!(p.glwe_dim, 1);
            assert!(p.pbs_base_log as usize * p.pbs_levels <= p.ring_bits() as usize);
            // Key-switch rows are 32-bit: the deepest gadget must survive.
            assert!(p.ks_base_log as usize * p.ks_levels <= 32);
            assert!(p.lwe_sigma > 0.0 && p.glwe_sigma > 0.0);
            assert_eq!(p.extracted_dim(), p.poly_size);
        }
    }

    #[test]
    fn ring_precision_follows_the_noise_and_the_gadget() {
        assert_eq!(TfheParams::toy().ring_bits(), 64, "sigma = 2^-35 needs the full word");
        assert_eq!(TfheParams::set_i().ring_bits(), 32);
        assert_eq!(TfheParams::set_ii().ring_bits(), 64, "23-bit digit, sigma = 2^-48");
        // A gadget reaching below bit 32 keeps the full word whatever the noise.
        let deep = TfheParams { pbs_base_log: 12, ..TfheParams::set_i() };
        assert_eq!(deep.ring_bits(), 64);
    }
}
