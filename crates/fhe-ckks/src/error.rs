//! Error type for the CKKS scheme.

use std::error::Error;
use std::fmt;

use fhe_math::MathError;

/// Errors produced by CKKS operations.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CkksError {
    /// Propagated number-theory error (prime generation, NTT, RNS, ...).
    Math(MathError),
    /// A parameter set failed validation.
    InvalidParams {
        /// Human-readable reason.
        detail: String,
    },
    /// Operands disagree on level, scale, or ring.
    Mismatch {
        /// Human-readable description of the disagreement.
        detail: String,
    },
    /// An operation would drop below level 0 (no moduli left to rescale
    /// into or multiply at).
    LevelExhausted,
    /// Too many values for the available slots.
    TooManySlots {
        /// Values supplied.
        provided: usize,
        /// Slots available (`N/2`).
        available: usize,
    },
    /// A slot value cannot be encoded at the requested scale: a scaled
    /// coefficient is non-finite or does not fit the 62 bits an integer
    /// coefficient is lifted from.
    EncodingOverflow {
        /// The offending scaled coefficient (possibly NaN or infinite).
        coefficient: f64,
    },
    /// A required key is missing (e.g. rotation key for an unkeyed step).
    MissingKey {
        /// Which key was needed.
        detail: String,
    },
    /// A constant multiplication was asked to scale by a value the scheme
    /// cannot represent (zero or non-finite). Use
    /// [`Evaluator::zero_like`](crate::Evaluator::zero_like) to produce an
    /// encryption of zero.
    InvalidConstant {
        /// The rejected constant.
        value: f64,
    },
    /// A ciphertext's integrity checksum no longer matches its sealed
    /// value: the residue limbs were corrupted after construction (bit
    /// upset, out-of-band mutation). See `fhe_math::integrity`.
    IntegrityViolation {
        /// The API boundary that caught the corruption.
        context: &'static str,
    },
    /// The ciphertext's noise budget is exhausted: its tracked scale
    /// exceeds the remaining modulus product, so decryption cannot recover
    /// the payload. Rescale earlier or start from a higher level.
    BudgetExhausted {
        /// Remaining budget in bits (negative = deficit).
        budget_bits: f64,
    },
}

impl fmt::Display for CkksError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkksError::Math(e) => write!(f, "math error: {e}"),
            CkksError::InvalidParams { detail } => write!(f, "invalid parameters: {detail}"),
            CkksError::Mismatch { detail } => write!(f, "operand mismatch: {detail}"),
            CkksError::LevelExhausted => write!(f, "modulus chain exhausted"),
            CkksError::TooManySlots { provided, available } => {
                write!(f, "{provided} values exceed the {available} available slots")
            }
            CkksError::EncodingOverflow { coefficient } => {
                write!(f, "scaled coefficient {coefficient} is non-finite or exceeds 62 bits")
            }
            CkksError::MissingKey { detail } => write!(f, "missing key: {detail}"),
            CkksError::InvalidConstant { value } => {
                write!(f, "constant {value} is not usable (zero/non-finite); see zero_like")
            }
            CkksError::IntegrityViolation { context } => {
                write!(f, "ciphertext integrity violation detected at {context}")
            }
            CkksError::BudgetExhausted { budget_bits } => {
                write!(f, "noise budget exhausted ({budget_bits:.1} bits remaining)")
            }
        }
    }
}

impl Error for CkksError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CkksError::Math(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MathError> for CkksError {
    fn from(e: MathError) -> Self {
        CkksError::Math(e)
    }
}
