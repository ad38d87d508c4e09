//! TFHE: the logic FHE scheme of the Alchemist evaluation.
//!
//! A from-scratch implementation over the discretized torus `Z_{2^64}`,
//! the ring layer at the precision its parameter set needs (32 bits at set
//! I, 64 at the toy set and set II — [`TfheParams::ring_bits`]):
//!
//! * [`LweCiphertext`] / [`TrlweCiphertext`] / [`TrgswCiphertext`] — the
//!   three ciphertext layers (scalars, ring elements, gadget-decomposed
//!   ring elements),
//! * exact negacyclic `integer × torus` polynomial products via NTTs over
//!   one 51-bit prime (set I) or two with Garner CRT, the count derived
//!   from an exactness bound ([`NegacyclicMultiplier`]) — the NTT workload
//!   the accelerator sees (the paper runs TFHE on the same word-sized NTT
//!   datapath as CKKS; here both run on the IFMA lanes where the host has
//!   them),
//! * the external product and CMux ([`trgsw`]), blind rotation, sample
//!   extraction and LWE key switching composing **programmable
//!   bootstrapping** ([`Pbs`]) — the paper's Fig. 6(b) benchmark,
//! * a boolean gate layer ([`gates`]) on top of gate bootstrapping.
//!
//! # Example
//!
//! ```
//! use fhe_tfhe::{gates, TfheParams};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), fhe_tfhe::TfheError> {
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let params = TfheParams::toy();
//! let (client, server) = fhe_tfhe::generate_keys(&params, &mut rng)?;
//! let a = client.encrypt_bit(true, &mut rng);
//! let b = client.encrypt_bit(false, &mut rng);
//! let c = gates::nand(&server, &a, &b)?;
//! assert!(client.decrypt_bit(&c));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bootstrap;
mod error;
pub mod gates;
mod keys;
mod lwe;
mod params;
mod poly_mult;
mod torus;
pub mod trgsw;
mod trlwe;

pub use bootstrap::{BootstrappingKey, KeySwitchKey, Pbs};
pub use error::TfheError;
pub use keys::{generate_keys, ClientKey, ServerKey};
pub use lwe::{LweCiphertext, LweSecretKey};
pub use params::TfheParams;
pub use poly_mult::{NegacyclicMultiplier, PreparedTorusPoly};
pub use torus::{torus_from_f64, torus_to_f64, ONE_EIGHTH};
pub use trgsw::TrgswCiphertext;
pub use trlwe::{TrlweCiphertext, TrlweSecretKey};
