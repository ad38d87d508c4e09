//! Client/server key bundles — the ergonomic entry point.

use crate::bootstrap::{BootstrappingKey, KeySwitchKey, Pbs};
use crate::lwe::{LweCiphertext, LweSecretKey};
use crate::params::TfheParams;
use crate::torus;
use crate::trlwe::TrlweSecretKey;
use crate::TfheError;
use rand::Rng;

/// The client-side secret material.
#[derive(Debug, Clone)]
pub struct ClientKey {
    params: TfheParams,
    lwe_key: LweSecretKey,
    trlwe_key: TrlweSecretKey,
}

impl ClientKey {
    /// The parameter set.
    #[inline]
    pub fn params(&self) -> &TfheParams {
        &self.params
    }

    /// The LWE secret key.
    #[inline]
    pub fn lwe_key(&self) -> &LweSecretKey {
        &self.lwe_key
    }

    /// The TRLWE secret key.
    #[inline]
    pub fn trlwe_key(&self) -> &TrlweSecretKey {
        &self.trlwe_key
    }

    /// Encrypts a boolean as `±1/8`.
    pub fn encrypt_bit<R: Rng + ?Sized>(&self, bit: bool, rng: &mut R) -> LweCiphertext {
        crate::lwe::encrypt_bit(&self.lwe_key, &self.params, bit, rng)
    }

    /// Decrypts a boolean.
    pub fn decrypt_bit(&self, ct: &LweCiphertext) -> bool {
        crate::lwe::decrypt_bit(&self.lwe_key, ct)
    }

    /// Encrypts a message in `[0, space)`.
    pub fn encrypt_message<R: Rng + ?Sized>(
        &self,
        m: u64,
        space: u64,
        rng: &mut R,
    ) -> LweCiphertext {
        self.lwe_key.encrypt(torus::encode_message(m, space), self.params.lwe_sigma, rng)
    }

    /// Decrypts a message from a `space`-sector torus.
    pub fn decrypt_message(&self, ct: &LweCiphertext, space: u64) -> u64 {
        self.lwe_key.decrypt_message(ct, space)
    }
}

/// The server-side evaluation material: bootstrap + key-switch keys and the
/// PBS engine.
#[derive(Debug, Clone)]
pub struct ServerKey {
    params: TfheParams,
    pbs: Pbs,
    bsk: BootstrappingKey,
    ksk: KeySwitchKey,
}

impl ServerKey {
    /// The parameter set.
    #[inline]
    pub fn params(&self) -> &TfheParams {
        &self.params
    }

    /// The PBS engine.
    #[inline]
    pub fn pbs(&self) -> &Pbs {
        &self.pbs
    }

    /// The bootstrapping key.
    #[inline]
    pub fn bootstrapping_key(&self) -> &BootstrappingKey {
        &self.bsk
    }

    /// The key-switching key.
    #[inline]
    pub fn key_switch_key(&self) -> &KeySwitchKey {
        &self.ksk
    }

    /// Gate-bootstraps a linear combination down to a fresh `±1/8` bit.
    pub fn bootstrap_to_bit(&self, ct: &LweCiphertext) -> LweCiphertext {
        let testv = self.pbs.sign_testv(torus::ONE_EIGHTH);
        self.pbs.bootstrap(&self.bsk, &self.ksk, ct, &testv)
    }

    /// Programmable bootstrap with an arbitrary LUT over `space` sectors
    /// (messages restricted to the lower half-space).
    ///
    /// # Errors
    ///
    /// None: the `Result` is kept only because the frozen benchmark
    /// `.expect`s it.
    pub fn bootstrap_with_lut(
        &self,
        ct: &LweCiphertext,
        space: u64,
        f: impl Fn(u64) -> u64,
    ) -> Result<LweCiphertext, TfheError> {
        let testv = self.pbs.function_testv(space, f);
        Ok(self.pbs.bootstrap(&self.bsk, &self.ksk, ct, &testv))
    }
}

/// Generates a fresh client/server key pair.
///
/// # Errors
///
/// Propagates key-generation failures.
///
/// # Example
///
/// See the crate-level example.
pub fn generate_keys<R: Rng + ?Sized>(
    params: &TfheParams,
    rng: &mut R,
) -> Result<(ClientKey, ServerKey), TfheError> {
    let lwe_key = LweSecretKey::generate(params.lwe_dim, rng);
    let trlwe_key = TrlweSecretKey::generate(params.poly_size, rng);
    let pbs = Pbs::new(*params)?;
    let bsk = BootstrappingKey::generate(params, &lwe_key, &trlwe_key, pbs.multiplier(), rng)?;
    let ksk = KeySwitchKey::generate(params, &trlwe_key.to_extracted_lwe_key(), &lwe_key, rng)?;
    let client = ClientKey { params: *params, lwe_key, trlwe_key };
    let server = ServerKey { params: *params, pbs, bsk, ksk };
    Ok((client, server))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn key_bundle_round_trip() {
        let mut rng = ChaCha8Rng::seed_from_u64(20);
        let params = TfheParams::toy();
        let (client, server) = generate_keys(&params, &mut rng).unwrap();
        for bit in [true, false] {
            let ct = client.encrypt_bit(bit, &mut rng);
            assert_eq!(client.decrypt_bit(&ct), bit);
            let fresh = server.bootstrap_to_bit(&ct);
            assert_eq!(client.decrypt_bit(&fresh), bit);
        }
    }

    #[test]
    fn lut_via_server_key() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let (client, server) = generate_keys(&TfheParams::toy(), &mut rng).unwrap();
        let ct = client.encrypt_message(3, 8, &mut rng);
        let doubled = server.bootstrap_with_lut(&ct, 8, |m| (2 * m) % 8).unwrap();
        assert_eq!(client.decrypt_message(&doubled, 8), 6);
    }
}
