//! Plaintext and ciphertext containers.

use crate::CkksError;
use fhe_math::{Domain, RnsPoly};

/// An encoded (scaled, RNS/NTT-domain) plaintext polynomial.
#[derive(Debug, Clone, PartialEq)]
pub struct Plaintext {
    poly: RnsPoly,
    level: usize,
    scale: f64,
}

impl Plaintext {
    /// Wraps the parts; internal constructor used by the encoder and
    /// decryption.
    pub(crate) fn from_parts(poly: RnsPoly, level: usize, scale: f64) -> Self {
        assert_eq!(poly.num_channels(), level + 1, "plaintext channel count must match level + 1");
        Plaintext { poly, level, scale }
    }

    /// The underlying RNS polynomial (channels `0..=level`).
    #[inline]
    pub fn poly(&self) -> &RnsPoly {
        &self.poly
    }

    /// The modulus-chain level this plaintext is encoded at.
    #[inline]
    pub fn level(&self) -> usize {
        self.level
    }

    /// The encoding scale `Δ`.
    #[inline]
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

/// A CKKS ciphertext `(c0, c1)` with `c0 + c1·s ≈ Δ·m`.
///
/// Both polynomials live on channels `0..=level` in NTT domain. When
/// integrity checksums are active (see [`fhe_math::integrity`]) the limbs
/// are *sealed* at construction and re-verified at every evaluator and
/// decryption boundary, so post-construction corruption surfaces as
/// [`CkksError::IntegrityViolation`] instead of silent wrong results.
#[derive(Debug, Clone)]
pub struct Ciphertext {
    c0: RnsPoly,
    c1: RnsPoly,
    level: usize,
    scale: f64,
    /// Integrity checksum over `(c0, c1)`; `None` = never sealed
    /// (checksums disabled at construction time).
    seal: Option<u64>,
}

/// Equality is over the cryptographic payload only; the integrity seal is
/// a derived cache and deliberately excluded.
impl PartialEq for Ciphertext {
    fn eq(&self, other: &Self) -> bool {
        self.c0 == other.c0
            && self.c1 == other.c1
            && self.level == other.level
            && self.scale == other.scale
    }
}

impl Ciphertext {
    /// Wraps the parts; internal constructor used by encryption and the
    /// evaluator.
    pub(crate) fn from_parts(c0: RnsPoly, c1: RnsPoly, level: usize, scale: f64) -> Self {
        assert_eq!(c0.num_channels(), level + 1, "c0 channel count must match level + 1");
        assert_eq!(c1.num_channels(), level + 1, "c1 channel count must match level + 1");
        let seal = fhe_math::integrity::seal(&[&c0, &c1]);
        Ciphertext { c0, c1, level, scale, seal }
    }

    /// Builds a ciphertext from raw RNS components after validating the
    /// container invariants (channel counts matching `level + 1`, both
    /// polynomials in NTT domain with identical structure, positive finite
    /// scale).
    ///
    /// Encryption and the evaluator construct ciphertexts internally; this
    /// entry point exists for harnesses (e.g. the conformance fuzzer) that
    /// need to drive evaluator kernels with adversarially chosen
    /// polynomials rather than honestly encrypted ones.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::Mismatch`] if any invariant fails.
    pub fn from_rns_parts(
        c0: RnsPoly,
        c1: RnsPoly,
        level: usize,
        scale: f64,
    ) -> Result<Self, CkksError> {
        if c0.num_channels() != level + 1 || c1.num_channels() != level + 1 {
            return Err(CkksError::Mismatch {
                detail: format!(
                    "channel counts ({}, {}) must both equal level + 1 = {}",
                    c0.num_channels(),
                    c1.num_channels(),
                    level + 1
                ),
            });
        }
        if c0.domain() != Domain::Ntt || c1.domain() != Domain::Ntt {
            return Err(CkksError::Mismatch {
                detail: "ciphertext components must be in NTT domain".into(),
            });
        }
        if c0.n() != c1.n() || c0.moduli() != c1.moduli() {
            return Err(CkksError::Mismatch {
                detail: "ciphertext components disagree on degree or moduli".into(),
            });
        }
        if !(scale > 0.0 && scale.is_finite()) {
            return Err(CkksError::Mismatch {
                detail: format!("scale must be positive and finite, got {scale}"),
            });
        }
        let seal = fhe_math::integrity::seal(&[&c0, &c1]);
        Ok(Ciphertext { c0, c1, level, scale, seal })
    }

    /// First component.
    #[inline]
    pub fn c0(&self) -> &RnsPoly {
        &self.c0
    }

    /// Second component.
    #[inline]
    pub fn c1(&self) -> &RnsPoly {
        &self.c1
    }

    /// Current modulus-chain level.
    #[inline]
    pub fn level(&self) -> usize {
        self.level
    }

    /// Current scale.
    #[inline]
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Overrides the tracked scale.
    ///
    /// Expert use: constant multiplications and bootstrapping reinterpret
    /// the scale instead of touching ciphertext data; a wrong value here
    /// silently corrupts decoded magnitudes.
    pub fn set_scale(&mut self, scale: f64) {
        assert!(scale > 0.0, "scale must be positive, got {scale}");
        self.scale = scale;
    }

    /// Remaining noise budget in bits: `log2(Q_level) − log2(scale)`,
    /// i.e. how much headroom the modulus chain still has above the
    /// tracked scale. Negative means the payload magnitude exceeds what
    /// the remaining chain can represent, so decryption cannot recover it;
    /// [`SecretKey::decrypt`](crate::SecretKey::decrypt) refuses such
    /// ciphertexts with [`CkksError::BudgetExhausted`].
    pub fn noise_budget_bits(&self) -> f64 {
        let log_q: f64 = self.c0.moduli().iter().map(|m| (m.value() as f64).log2()).sum();
        log_q - self.scale.log2()
    }

    /// Recomputes the checksum against the sealed value.
    ///
    /// Skips silently (returns `Ok`) when checksums are disabled or this
    /// ciphertext was constructed before they were enabled.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::IntegrityViolation`] if the limbs no longer
    /// match the seal, tagged with `context` (the boundary that caught it).
    pub fn verify_integrity(&self, context: &'static str) -> Result<(), CkksError> {
        match fhe_math::integrity::verify(&[&self.c0, &self.c1], self.seal, context) {
            Ok(()) => Ok(()),
            Err(_) => Err(CkksError::IntegrityViolation { context }),
        }
    }

    /// Mutable access to the raw components **without resealing** — the
    /// integrity checksum keeps its pre-mutation value, so a subsequent
    /// [`Ciphertext::verify_integrity`] flags the change. This is exactly
    /// what the fault-injection campaign needs to model a post-construction
    /// bit upset; legitimate mutations should call [`Ciphertext::reseal`]
    /// afterwards instead.
    pub fn components_mut(&mut self) -> (&mut RnsPoly, &mut RnsPoly) {
        (&mut self.c0, &mut self.c1)
    }

    /// Recomputes and stores the integrity seal over the current limbs
    /// (for legitimate out-of-band mutations via
    /// [`Ciphertext::components_mut`]).
    pub fn reseal(&mut self) {
        self.seal = fhe_math::integrity::seal(&[&self.c0, &self.c1]);
    }
}
