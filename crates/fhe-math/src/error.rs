//! Error type shared by all fallible constructors and operations.

use std::error::Error;
use std::fmt;

/// Errors produced by the number-theoretic substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MathError {
    /// A modulus was zero, one, even where a prime was required, or too wide
    /// for the lazy-accumulation invariants (bit width must be ≤ 61).
    InvalidModulus {
        /// The offending modulus value.
        value: u64,
        /// Human-readable reason the modulus was rejected.
        reason: &'static str,
    },
    /// A polynomial degree was not a power of two or was outside the
    /// supported range `[8, 2^17]`.
    InvalidDegree {
        /// The offending degree.
        degree: usize,
    },
    /// The modulus does not support an NTT of the requested size
    /// (`q ≢ 1 mod 2N`).
    NoNttSupport {
        /// The modulus.
        modulus: u64,
        /// The requested transform size.
        degree: usize,
    },
    /// Prime generation exhausted its search space.
    PrimeSearchExhausted {
        /// Bit width of the requested primes.
        bits: u32,
        /// How many primes were requested.
        requested: usize,
        /// How many were found before the search space ran out.
        found: usize,
    },
    /// Two operands live on different moduli or bases.
    BasisMismatch {
        /// Description of the mismatch.
        detail: &'static str,
    },
    /// An element was not invertible modulo the basis.
    NotInvertible {
        /// The non-invertible element.
        value: u64,
        /// The modulus.
        modulus: u64,
    },
    /// A parameter combination is structurally invalid (empty basis,
    /// zero digits, mismatched lengths, ...).
    InvalidParameter {
        /// Description of the invalid parameter.
        detail: String,
    },
    /// Data failed an integrity check: a stored checksum no longer matches
    /// the recomputed one, i.e. limbs were corrupted after sealing.
    IntegrityViolation {
        /// Where the mismatch was detected.
        context: &'static str,
    },
}

impl fmt::Display for MathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MathError::InvalidModulus { value, reason } => {
                write!(f, "invalid modulus {value}: {reason}")
            }
            MathError::InvalidDegree { degree } => {
                write!(f, "invalid polynomial degree {degree}: must be a power of two in [8, 2^17]")
            }
            MathError::NoNttSupport { modulus, degree } => {
                write!(f, "modulus {modulus} does not support a negacyclic NTT of size {degree}")
            }
            MathError::PrimeSearchExhausted { bits, requested, found } => {
                write!(f, "exhausted {bits}-bit prime search: requested {requested}, found {found}")
            }
            MathError::BasisMismatch { detail } => write!(f, "basis mismatch: {detail}"),
            MathError::NotInvertible { value, modulus } => {
                write!(f, "{value} is not invertible modulo {modulus}")
            }
            MathError::InvalidParameter { detail } => write!(f, "invalid parameter: {detail}"),
            MathError::IntegrityViolation { context } => {
                write!(f, "integrity violation detected at {context}")
            }
        }
    }
}

impl Error for MathError {}
