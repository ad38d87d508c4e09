//! Cross-scheme ciphertext switching: CKKS → TFHE.
//!
//! The Alchemist paper's opening argument (§1) is that real private
//! computations *mix* schemes — SIMD arithmetic on CKKS, then
//! non-polynomial logic (comparison, thresholding, argmax) on TFHE — using
//! Chimera/Pegasus-style ciphertext switching. This crate implements that
//! switch, so an encrypted value computed in `fhe-ckks` can be consumed by
//! `fhe-tfhe`'s programmable bootstrapping *without decryption*:
//!
//! 1. **LWE extraction** — a level-0 RNS-CKKS ciphertext is an RLWE sample
//!    modulo `q_0`; coefficient `k` extracts to an LWE sample of dimension
//!    `N` under the CKKS secret ([`extract_lwe`]).
//! 2. **Modulus switch** — residues are rescaled from `Z_{q_0}` to the
//!    torus `Z_{2^64}` (all 64 bits: within ½ ulp of `t·2^64/q_0`),
//!    mapping the message `Δ·m` to the torus sector `m · Δ/q_0`
//!    ([`mod_switch_to_torus`]).
//! 3. **Key switch** — a TFHE key-switching key generated from the signed
//!    (ternary) CKKS secret moves the sample onto the TFHE LWE key
//!    ([`CkksToTfheBridge`]), after which any TFHE LUT applies. Like every
//!    TFHE key-switch key it is one flat stream of 32-bit rows (41 MB for
//!    a `2^11`-coefficient secret onto set I's key, half the 64-bit
//!    layout): the switch reads only the top `ks_base_log · ks_levels ≤ 32`
//!    bits of each mask word, and a row's `2^-33` rounding vanishes under
//!    LWE noise of `2^-25` or more. With a noiseless key the switch equals
//!    its torus reference bit for bit (`tests/chain_exact.rs`).
//!
//! Message convention: encode integers `m ∈ [0, space/2)` with
//! `space = 2^(q0_bits − scale_bits)`; the extracted torus phase is then
//! `≈ m/space`, i.e. exactly TFHE's `space`-sector encoding.
//!
//! # Example
//!
//! See `examples/scheme_switching.rs` for the full CKKS-compute →
//! TFHE-threshold pipeline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use fhe_ckks::{Ciphertext, CkksContext, CkksError};
use fhe_tfhe::{ClientKey, KeySwitchKey, LweCiphertext, TfheError};
use rand::Rng;
use std::error::Error;
use std::fmt;

/// Errors from scheme switching.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum BridgeError {
    /// Propagated CKKS error.
    Ckks(CkksError),
    /// Propagated TFHE error.
    Tfhe(TfheError),
    /// Structural mismatch (wrong level, out-of-range coefficient, ...).
    Mismatch {
        /// Human-readable description.
        detail: String,
    },
}

impl fmt::Display for BridgeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BridgeError::Ckks(e) => write!(f, "ckks error: {e}"),
            BridgeError::Tfhe(e) => write!(f, "tfhe error: {e}"),
            BridgeError::Mismatch { detail } => write!(f, "bridge mismatch: {detail}"),
        }
    }
}

impl Error for BridgeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BridgeError::Ckks(e) => Some(e),
            BridgeError::Tfhe(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CkksError> for BridgeError {
    fn from(e: CkksError) -> Self {
        BridgeError::Ckks(e)
    }
}

impl From<TfheError> for BridgeError {
    fn from(e: TfheError) -> Self {
        BridgeError::Tfhe(e)
    }
}

/// An LWE sample modulo the CKKS base prime `q_0` (pre-modulus-switch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LweModQ {
    /// Mask coefficients in `[0, q_0)`.
    pub a: Vec<u64>,
    /// Body in `[0, q_0)`.
    pub b: u64,
    /// The modulus `q_0`.
    pub q: u64,
}

/// Extracts coefficient `coeff_idx` of a level-0 CKKS ciphertext as an
/// LWE sample under the CKKS secret-key coefficients:
/// `b − ⟨a, s⟩ ≡ (c_0 + c_1·s)[k] (mod q_0)`.
///
/// # Errors
///
/// Returns [`BridgeError::Mismatch`] unless the ciphertext is at level 0
/// and the index is in range.
pub fn extract_lwe(
    ctx: &CkksContext,
    ct: &Ciphertext,
    coeff_idx: usize,
) -> Result<LweModQ, BridgeError> {
    if ct.level() != 0 {
        return Err(BridgeError::Mismatch {
            detail: format!("extraction needs level 0, got {}", ct.level()),
        });
    }
    let n = ctx.n();
    if coeff_idx >= n {
        return Err(BridgeError::Mismatch {
            detail: format!("coefficient {coeff_idx} out of range for N = {n}"),
        });
    }
    let q = ctx.rns().moduli()[0];
    let mut c0 = ct.c0().channel(0).clone();
    let mut c1 = ct.c1().channel(0).clone();
    c0.to_coeff(ctx.table(0));
    c1.to_coeff(ctx.table(0));
    // (c1·s)[k] = Σ_j s_j · σ_j, σ_j = c1[k−j] for j ≤ k, −c1[k−j+N] else.
    // TFHE convention has phase = b − ⟨a, s⟩, so a_j = −σ_j.
    let k = coeff_idx;
    let mut a = vec![0u64; n];
    for (j, aj) in a.iter_mut().enumerate() {
        let sigma = if j <= k { c1.coeffs()[k - j] } else { q.neg(c1.coeffs()[k + n - j]) };
        *aj = q.neg(sigma);
    }
    Ok(LweModQ { a, b: c0.coeffs()[k], q: q.value() })
}

/// Rescales an LWE sample from `Z_q` to the torus `Z_{2^64}`:
/// `t ↦ round(t · 2^64 / q)`.
pub fn mod_switch_to_torus(lwe: &LweModQ) -> LweCiphertext {
    let switch = |t: u64| -> u64 {
        // round(t * 2^64 / q) without overflow: 128-bit intermediate.
        let num = (t as u128) << 64;
        ((num + lwe.q as u128 / 2) / lwe.q as u128) as u64
    };
    LweCiphertext { a: lwe.a.iter().map(|&x| switch(x)).collect(), b: switch(lwe.b) }
}

/// The CKKS→TFHE bridge: holds the key-switching key from the CKKS secret
/// (dimension `N`, ternary) down to the TFHE LWE key (dimension `n`).
#[derive(Debug, Clone)]
pub struct CkksToTfheBridge {
    ksk: KeySwitchKey,
    message_space: u64,
}

impl CkksToTfheBridge {
    /// Generates the bridge keys. Requires both secret keys (this is key
    /// generation — done once, client side).
    ///
    /// # Errors
    ///
    /// Returns [`BridgeError::Mismatch`] if `q_0/Δ` is not a power of two
    /// of at least 8 (the message-space convention), or propagates key
    /// generation failures.
    pub fn new<R: Rng + ?Sized>(
        ckks_ctx: &CkksContext,
        ckks_sk: &fhe_ckks::SecretKey,
        tfhe_client: &ClientKey,
        rng: &mut R,
    ) -> Result<Self, BridgeError> {
        let q0 = ckks_ctx.rns().moduli()[0].value() as f64;
        let ratio = q0 / ckks_ctx.params().scale();
        let message_space = ratio.round() as u64;
        if !message_space.is_power_of_two() || message_space < 8 {
            return Err(BridgeError::Mismatch {
                detail: format!(
                    "q0/delta = {ratio:.2} must round to a power of two >= 8; \
                     build the CKKS params with a 3+-bit first-prime gap"
                ),
            });
        }
        if (ratio - message_space as f64).abs() / ratio > 0.05 {
            return Err(BridgeError::Mismatch {
                detail: format!("q0/delta = {ratio:.3} too far from 2^k"),
            });
        }
        let ksk = KeySwitchKey::generate_from_signed(
            tfhe_client.params(),
            ckks_sk.coefficients(),
            tfhe_client.lwe_key(),
            rng,
        )?;
        Ok(CkksToTfheBridge { ksk, message_space })
    }

    /// The TFHE message space `q_0/Δ` the bridge maps integers into.
    #[inline]
    pub fn message_space(&self) -> u64 {
        self.message_space
    }

    /// Switches a coefficient of a level-0 CKKS ciphertext onto the TFHE
    /// key. The result encrypts `m mod space` where `m` is the (integer)
    /// plaintext value in that coefficient; feed it to
    /// [`fhe_tfhe::ServerKey::bootstrap_with_lut`] for arbitrary logic.
    ///
    /// # Errors
    ///
    /// Propagates extraction errors.
    pub fn switch(
        &self,
        ctx: &CkksContext,
        ct: &Ciphertext,
        coeff_idx: usize,
    ) -> Result<LweCiphertext, BridgeError> {
        let lwe_q = extract_lwe(ctx, ct, coeff_idx)?;
        let torus = mod_switch_to_torus(&lwe_q);
        Ok(self.ksk.switch(&torus))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhe_ckks::{CkksParams, Encoder, Evaluator, SecretKey};
    use fhe_tfhe::{generate_keys, TfheParams};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// CKKS params with q0/Δ = 8 (3-bit gap): bridge message space 8.
    fn bridge_ckks() -> CkksContext {
        CkksContext::new(CkksParams::with_first_prime_bits(64, 2, 1, 30, 33).unwrap()).unwrap()
    }

    /// Decrypts an extracted mod-q LWE sample with the raw ternary key.
    fn phase_mod_q(lwe: &LweModQ, s: &[i64]) -> u64 {
        let q = lwe.q as i128;
        let mut p = lwe.b as i128;
        for (&a, &si) in lwe.a.iter().zip(s) {
            p -= a as i128 * si as i128;
        }
        p.rem_euclid(q) as u64
    }

    #[test]
    fn extraction_recovers_coefficient_message() {
        let ctx = bridge_ckks();
        let mut rng = ChaCha8Rng::seed_from_u64(60);
        let sk = SecretKey::generate(&ctx, &mut rng).unwrap();
        let enc = Encoder::new(&ctx);
        let ev = Evaluator::new(&ctx);
        for m in 0..4u64 {
            // Constant in all slots ⇒ plaintext coefficient 0 is Δ·m.
            let pt = enc.encode(&vec![m as f64; enc.slots()]).unwrap();
            let ct = ev.level_down(&sk.encrypt(&ctx, &pt, &mut rng).unwrap(), 0).unwrap();
            let lwe = extract_lwe(&ctx, &ct, 0).unwrap();
            let phase = phase_mod_q(&lwe, sk.coefficients());
            // phase ≈ Δ·m mod q0: decode with q0/Δ = 8 sectors (mod 8 to
            // absorb the negative-noise wraparound at m = 0).
            let delta = ctx.params().scale();
            let sector = (phase as f64 / delta).round() as u64 % 8;
            assert_eq!(sector, m, "m = {m}: phase {phase}");
        }
    }

    #[test]
    fn full_bridge_ckks_to_tfhe() {
        let ctx = bridge_ckks();
        let mut rng = ChaCha8Rng::seed_from_u64(61);
        let sk = SecretKey::generate(&ctx, &mut rng).unwrap();
        let enc = Encoder::new(&ctx);
        let ev = Evaluator::new(&ctx);
        let (client, server) = generate_keys(&TfheParams::toy(), &mut rng).unwrap();
        let bridge = CkksToTfheBridge::new(&ctx, &sk, &client, &mut rng).unwrap();
        assert_eq!(bridge.message_space(), 8);

        for m in 0..4u64 {
            let pt = enc.encode(&vec![m as f64; enc.slots()]).unwrap();
            let ct = ev.level_down(&sk.encrypt(&ctx, &pt, &mut rng).unwrap(), 0).unwrap();
            let switched = bridge.switch(&ctx, &ct, 0).unwrap();
            assert_eq!(client.decrypt_message(&switched, 8), m, "switch m = {m}");
            if m == 0 {
                // m = 0 sits on the negacyclic half-space boundary where
                // negative noise flips the PBS sign (standard TFHE caveat);
                // applications offset by half a sector. Skip the LUT here.
                continue;
            }
            // The switched sample supports programmable bootstrapping:
            // threshold m >= 2 homomorphically.
            let thresholded =
                server.bootstrap_with_lut(&switched, 8, |v| u64::from(v >= 2)).unwrap();
            assert_eq!(
                client.decrypt_message(&thresholded, 8),
                u64::from(m >= 2),
                "PBS after bridge, m = {m}"
            );
        }
    }

    #[test]
    fn bridge_composes_with_ckks_arithmetic() {
        // Compute 1 + 1 homomorphically on CKKS, then threshold on TFHE.
        let ctx = bridge_ckks();
        let mut rng = ChaCha8Rng::seed_from_u64(62);
        let sk = SecretKey::generate(&ctx, &mut rng).unwrap();
        let enc = Encoder::new(&ctx);
        let ev = Evaluator::new(&ctx);
        let (client, _server) = generate_keys(&TfheParams::toy(), &mut rng).unwrap();
        let bridge = CkksToTfheBridge::new(&ctx, &sk, &client, &mut rng).unwrap();

        let one =
            sk.encrypt(&ctx, &enc.encode(&vec![1.0; enc.slots()]).unwrap(), &mut rng).unwrap();
        let two = ev.add(&one, &one).unwrap();
        let low = ev.level_down(&two, 0).unwrap();
        let switched = bridge.switch(&ctx, &low, 0).unwrap();
        assert_eq!(client.decrypt_message(&switched, 8), 2);
    }

    #[test]
    fn rejects_wrong_level_and_bad_gap() {
        let ctx = bridge_ckks();
        let mut rng = ChaCha8Rng::seed_from_u64(63);
        let sk = SecretKey::generate(&ctx, &mut rng).unwrap();
        let enc = Encoder::new(&ctx);
        let pt = enc.encode(&[1.0]).unwrap();
        let ct = sk.encrypt(&ctx, &pt, &mut rng).unwrap();
        assert!(extract_lwe(&ctx, &ct, 0).is_err(), "level 2 must be rejected");

        // A 2-bit gap (message space 4) is below the bridge's minimum.
        let tight =
            CkksContext::new(CkksParams::with_first_prime_bits(64, 2, 1, 30, 32).unwrap()).unwrap();
        let sk2 = SecretKey::generate(&tight, &mut rng).unwrap();
        let (client, _) = generate_keys(&TfheParams::toy(), &mut rng).unwrap();
        assert!(CkksToTfheBridge::new(&tight, &sk2, &client, &mut rng).is_err());
    }
}
