//! Typed service errors: every failure a request can experience has a
//! structured variant, because "degradation not death" means the server
//! answers *with an error object*, never by falling over.

use std::fmt;

use fhe_ckks::CkksError;
use fhe_tfhe::TfheError;

/// One request's failure, as reported back to its submitter.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The op graph failed static validation (malformed edges, scheme
    /// mismatch, level/scale disagreement, exhausted modulus chain).
    InvalidRequest {
        /// What the plan compiler objected to.
        detail: String,
    },
    /// Admission control refused the request: the queue is full or the
    /// tenant is over its fair share. Retry after the hinted backoff.
    Rejected {
        /// Suggested client backoff in milliseconds.
        retry_after_ms: u64,
        /// Why admission said no (`queue-full` or `tenant-share`).
        reason: &'static str,
    },
    /// The server is draining; no new work is accepted.
    Shutdown,
    /// The worker thread executing this request panicked; the panic was
    /// contained and only this request failed.
    WorkerPanic {
        /// The panic payload, when it was a string.
        detail: String,
    },
    /// The ciphertext integrity checksum caught a corruption.
    IntegrityViolation {
        /// Where the lattice caught it.
        detail: String,
    },
    /// The noise budget ran out mid-evaluation (e.g. a fault burned
    /// levels without rescaling).
    BudgetExhausted {
        /// Remaining budget in bits (negative: overdrawn).
        budget_bits: f64,
    },
    /// The compiled schedule failed its manifest check before execution —
    /// the plan was dropped, reordered, or mutated after compilation.
    PlanIntegrity {
        /// The simulator's discrepancy description.
        detail: String,
    },
    /// The request's deadline passed before a worker could start it; the
    /// worker skipped the cryptographic work entirely.
    DeadlineExceeded {
        /// How far past the deadline the worker observed it, in ms.
        expired_by_ms: u64,
    },
    /// The watchdog confiscated this request from a worker that exceeded
    /// the stall timeout; the worker was respawned and only this batch's
    /// members failed.
    WorkerStalled {
        /// How long the worker had been busy when confiscated, in ms.
        stalled_for_ms: u64,
    },
    /// A scheme-level evaluation error that is not one of the detection
    /// lattice's structured classes.
    Scheme {
        /// The underlying scheme error, stringified.
        detail: String,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::InvalidRequest { detail } => write!(f, "invalid request: {detail}"),
            ServiceError::Rejected { retry_after_ms, reason } => {
                write!(f, "rejected ({reason}): retry after {retry_after_ms} ms")
            }
            ServiceError::Shutdown => write!(f, "server is shutting down"),
            ServiceError::WorkerPanic { detail } => write!(f, "worker panic contained: {detail}"),
            ServiceError::IntegrityViolation { detail } => {
                write!(f, "integrity violation: {detail}")
            }
            ServiceError::BudgetExhausted { budget_bits } => {
                write!(f, "noise budget exhausted ({budget_bits:.1} bits)")
            }
            ServiceError::PlanIntegrity { detail } => write!(f, "plan integrity: {detail}"),
            ServiceError::DeadlineExceeded { expired_by_ms } => {
                write!(f, "deadline exceeded ({expired_by_ms} ms past)")
            }
            ServiceError::WorkerStalled { stalled_for_ms } => {
                write!(f, "worker stalled ({stalled_for_ms} ms); batch confiscated")
            }
            ServiceError::Scheme { detail } => write!(f, "scheme error: {detail}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<CkksError> for ServiceError {
    fn from(e: CkksError) -> Self {
        match e {
            CkksError::IntegrityViolation { context } => {
                ServiceError::IntegrityViolation { detail: context.to_string() }
            }
            CkksError::BudgetExhausted { budget_bits } => {
                ServiceError::BudgetExhausted { budget_bits }
            }
            // The payload, not the evaluation, is at fault: a finite slot
            // value too large for the context's scale.
            e @ CkksError::EncodingOverflow { .. } => {
                ServiceError::InvalidRequest { detail: e.to_string() }
            }
            other => ServiceError::Scheme { detail: other.to_string() },
        }
    }
}

impl From<TfheError> for ServiceError {
    fn from(e: TfheError) -> Self {
        ServiceError::Scheme { detail: e.to_string() }
    }
}

impl ServiceError {
    /// Whether this failure is *contained*: the fault lattice caught it
    /// and only this request (or this request's batch) was affected.
    pub fn is_contained_fault(&self) -> bool {
        matches!(
            self,
            ServiceError::WorkerPanic { .. }
                | ServiceError::IntegrityViolation { .. }
                | ServiceError::BudgetExhausted { .. }
                | ServiceError::WorkerStalled { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ckks_errors_map_to_lattice_classes() {
        let e: ServiceError = CkksError::IntegrityViolation { context: "ckks.decrypt" }.into();
        assert!(matches!(e, ServiceError::IntegrityViolation { .. }));
        assert!(e.is_contained_fault());
        let e: ServiceError = CkksError::BudgetExhausted { budget_bits: -3.0 }.into();
        assert!(matches!(e, ServiceError::BudgetExhausted { .. }));
        let e: ServiceError = CkksError::EncodingOverflow { coefficient: 1e30 }.into();
        assert!(matches!(e, ServiceError::InvalidRequest { .. }));
        let e: ServiceError = CkksError::LevelExhausted.into();
        assert!(matches!(e, ServiceError::Scheme { .. }));
        assert!(!e.is_contained_fault());
    }

    #[test]
    fn display_is_informative() {
        let e = ServiceError::Rejected { retry_after_ms: 25, reason: "queue-full" };
        let s = e.to_string();
        assert!(s.contains("queue-full") && s.contains("25"), "{s}");
    }
}
