//! Number-theoretic substrate for cross-scheme fully homomorphic encryption.
//!
//! This crate provides every low-level building block the Alchemist
//! reproduction needs, implemented from scratch:
//!
//! * [`Modulus`] — word-sized prime moduli with Barrett and Shoup
//!   multiplication and lazy 128-bit accumulation (the arithmetic the
//!   paper's Meta-OP `(M_j A_j)_n R_j` performs in hardware),
//! * [`NttTable`] — the negacyclic number-theoretic transform, one
//!   radix-8/4 *blocked* kernel that the Meta-OP layer lowers block by
//!   block and that [`FourStepNtt`] — the 4-step schedule of Alchemist's
//!   slot-based data management — runs on its columns and rows,
//! * [`lazy_mac`] — the Meta-OP `(M_j A_j)_n R_j` itself. It and the NTT run
//!   on eight 52-bit AVX-512 IFMA lanes where the host has them and the
//!   moduli are below `2^51` (the one `unsafe` module, [`simd`]'s), and on
//!   scalar loops everywhere else, with the same canonical outputs,
//! * [`RnsBasis`] / [`RnsPoly`] — residue-number-system polynomials with the
//!   fast base conversion `Bconv` (paper Eq. 1), `Modup` (Eq. 2) and
//!   `Moddown` (Eq. 3),
//! * [`MixedRadix`] — exact RNS → integer reconstruction (Garner) in the
//!   same word-sized arithmetic: sign and `f64` views of a decrypted
//!   coefficient, the client-side end of the pipeline,
//! * gadget decomposition for both CKKS (`dnum` hybrid key-switching digits)
//!   and TFHE (signed base-2^w digits),
//! * secure-ish sampling helpers (discrete Gaussian, ternary, uniform) —
//!   statistical quality suitable for a research reproduction,
//! * a tiny arbitrary-precision unsigned integer [`UBig`] used to *verify*
//!   RNS algebra against exact integer arithmetic in tests.
//!
//! # Example
//!
//! ```
//! use fhe_math::{Modulus, NttTable};
//!
//! # fn main() -> Result<(), fhe_math::MathError> {
//! let q = fhe_math::generate_ntt_primes(36, 1 << 10, 1)?[0];
//! let modulus = Modulus::new(q)?;
//! let table = NttTable::new(modulus, 1 << 10)?;
//! let mut poly = vec![1u64; 1 << 10];
//! table.forward(&mut poly);
//! table.inverse(&mut poly);
//! assert!(poly.iter().all(|&c| c == 1));
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod bigint;
mod decomp;
mod error;
mod four_step;
pub mod integrity;
mod mixed_radix;
mod modulus;
mod ntt;
pub mod par;
mod poly;
mod prime;
mod rns;
mod sampling;
mod scratch;
pub mod simd;

pub use bigint::UBig;
pub use decomp::{Gadget, SignedDigitDecomposer};
pub use error::MathError;
pub use four_step::FourStepNtt;
pub use integrity::checksum_enabled;
pub use mixed_radix::MixedRadix;
pub use modulus::{Modulus, ShoupScalar};
pub use ntt::{galois_ntt_permutation, radix_blocks, NttTable};
pub use poly::{Domain, Poly};
pub use prime::{generate_ntt_primes, is_prime};
pub use rns::{
    lazy_mac, BconvPlan, MacBroadcast, MacGather, MacRead, MacReversed, MacSlots, ModdownPlan,
    RnsBasis, RnsContext, RnsPoly, MAC_SLOTS,
};
pub use sampling::{
    round_to_i64, sample_gaussian, sample_ternary, sample_uniform, GaussianSampler,
};
pub use scratch::{scratch_stats, Scratch, ScratchStats};

/// Always `true`: the canonical-form contracts at API boundaries are plain
/// `assert!`s in every build. Kept because the frozen `benchmark/` package
/// reports it as a host fact.
#[inline]
#[must_use]
pub const fn strict_checks_enabled() -> bool {
    true
}
