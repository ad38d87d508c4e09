//! # Alchemist — a unified accelerator architecture for cross-scheme FHE
//!
//! Facade crate for the reproduction of *"Alchemist: A Unified Accelerator
//! Architecture for Cross-Scheme Fully Homomorphic Encryption"* (DAC 2024).
//! It re-exports the workspace crates so examples and downstream users need
//! a single dependency:
//!
//! * [`math`] — modular arithmetic, NTT (iterative / 4-step / radix-blocked),
//!   RNS base conversion, gadget decomposition ([`fhe_math`]),
//! * [`ckks`] — the approximate arithmetic FHE scheme ([`fhe_ckks`]),
//! * [`tfhe`] — the logic FHE scheme ([`fhe_tfhe`]),
//! * [`metaop`] — the paper's `(M_j A_j)_n R_j` Meta-OP layer,
//! * [`sim`] — the cycle-level Alchemist accelerator simulator
//!   ([`alchemist_core`]),
//! * [`baselines`] — CPU reference and modularized-accelerator comparators,
//! * [`bridge`] — CKKS→TFHE ciphertext switching ([`scheme_bridge`]),
//! * [`telemetry`] — spans, Meta-OP counters, Chrome/Perfetto trace
//!   export and a JSONL tick stream.
//!
//! See `examples/quickstart.rs` for a guided tour and `DESIGN.md` /
//! `EXPERIMENTS.md` for the paper-reproduction map.

pub use alchemist_core as sim;
pub use baselines;
pub use fhe_ckks as ckks;
pub use fhe_math as math;
pub use fhe_tfhe as tfhe;
pub use metaop;
pub use scheme_bridge as bridge;
pub use telemetry;
