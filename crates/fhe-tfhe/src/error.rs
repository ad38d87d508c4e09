//! Error type for the TFHE scheme.

use std::error::Error;
use std::fmt;

use fhe_math::MathError;

/// Errors produced by TFHE operations.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TfheError {
    /// Propagated number-theory error.
    Math(MathError),
    /// A parameter set failed validation.
    InvalidParams {
        /// Human-readable reason.
        detail: String,
    },
    /// Operands disagree on dimension or parameters.
    Mismatch {
        /// Human-readable description.
        detail: String,
    },
}

impl fmt::Display for TfheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TfheError::Math(e) => write!(f, "math error: {e}"),
            TfheError::InvalidParams { detail } => write!(f, "invalid parameters: {detail}"),
            TfheError::Mismatch { detail } => write!(f, "operand mismatch: {detail}"),
        }
    }
}

impl Error for TfheError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TfheError::Math(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MathError> for TfheError {
    fn from(e: MathError) -> Self {
        TfheError::Math(e)
    }
}
