//! The Alchemist **Meta-OP** layer.
//!
//! The paper's key observation (§4) is that NTT, RNS base conversion
//! (`Bconv` / `Modup` / `Moddown`) and `DecompPolyMult` — the three operator
//! families whose shifting proportions starve modularized FHE accelerators —
//! all share one algebraic skeleton:
//!
//! ```text
//! (M_j A_j)_n R_j :   j lanes of (multiply, accumulate), iterated n times,
//!                     then one lazy Barrett reduction per lane
//! ```
//!
//! This crate makes that abstraction executable and accountable:
//!
//! * [`MetaOp`] / [`MetaOpTrace`] — descriptors with the hardware cost model
//!   (`n + 2` cycles per op on the unified core, reduction reusing the
//!   multiplier array),
//! * [`AccessPattern`] — the three data access patterns of paper Table 4,
//! * [`ntt`] — lowering of the full negacyclic NTT/INTT onto radix-8 and
//!   radix-4 butterfly Meta-OPs, each run on [`fhe_math::lazy_mac`] (the
//!   one CPU kernel of `(M_j A_j)_n R_j`, which also runs Bconv, the CKKS
//!   key and plaintext MACs and TFHE's `DecompPolyMult`), bit-exact against
//!   [`fhe_math::NttTable`],
//! * [`counts`] — the multiply-count algebra of paper Tables 2–3 and the
//!   composite workload accounting behind Fig. 7(a).
//!
//! # Example
//!
//! ```
//! use fhe_math::{generate_ntt_primes, Modulus, NttTable};
//! use metaop::{ntt::NttLowering, MetaOpTrace};
//!
//! # fn main() -> Result<(), fhe_math::MathError> {
//! let q = Modulus::new(generate_ntt_primes(36, 64, 1)?[0])?;
//! let table = NttTable::new(q, 64)?;
//! let lowering = NttLowering::new(&table);
//! let mut data: Vec<u64> = (0..64).collect();
//! let mut reference = data.clone();
//! let mut trace = MetaOpTrace::new();
//! lowering.forward(&mut data, &mut trace);
//! table.forward(&mut reference);
//! assert_eq!(data, reference); // bit-exact lowering
//! assert!(trace.total_ops() > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counts;
pub mod ntt;
mod op;

pub use op::{AccessPattern, MetaOp, MetaOpTrace, OpClass};
