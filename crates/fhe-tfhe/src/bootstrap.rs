//! Programmable bootstrapping: blind rotation + sample extraction + LWE
//! key switching.
//!
//! This is the workload of the paper's Fig. 6(b): each of the `n` blind-
//! rotation steps runs one CMux (`(k+1)·l_b` forward NTTs, the
//! `DecompPolyMult`-patterned MAC, `k+1` inverse NTTs), and the closing key
//! switch is a long lazily-reducible MAC — together, the TFHE rows of the
//! Meta-OP accounting in [`metaop`-style] Fig. 7(a).

use crate::lwe::{LweCiphertext, LweSecretKey};
use crate::params::TfheParams;
use crate::poly_mult::NegacyclicMultiplier;
use crate::torus;
use crate::trgsw::TrgswCiphertext;
use crate::trlwe::{rotate_map, TrlweCiphertext, TrlweSecretKey};
use crate::TfheError;
use fhe_math::SignedDigitDecomposer;
use rand::Rng;

/// The blind-rotation key: one TRGSW encryption of each LWE key bit.
#[derive(Debug, Clone)]
pub struct BootstrappingKey {
    trgsw: Vec<TrgswCiphertext>,
}

impl BootstrappingKey {
    /// Generates the key.
    ///
    /// # Errors
    ///
    /// Propagates TRGSW encryption failures.
    pub fn generate<R: Rng + ?Sized>(
        params: &TfheParams,
        lwe_key: &LweSecretKey,
        trlwe_key: &TrlweSecretKey,
        mult: &NegacyclicMultiplier,
        rng: &mut R,
    ) -> Result<Self, TfheError> {
        let trgsw = lwe_key
            .bits()
            .iter()
            .map(|&bit| {
                TrgswCiphertext::encrypt(
                    trlwe_key,
                    bit as i64,
                    params.pbs_base_log,
                    params.pbs_levels,
                    params.glwe_sigma,
                    mult,
                    rng,
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(BootstrappingKey { trgsw })
    }

    /// Number of blind-rotation steps (`n`).
    #[inline]
    pub fn steps(&self) -> usize {
        self.trgsw.len()
    }
}

/// The LWE→LWE key-switching key from the extracted dimension `N` down to
/// the original dimension `n`.
#[derive(Debug, Clone)]
pub struct KeySwitchKey {
    /// `ksk[i][d]` encrypts `s'_i · 2^{64-(d+1)κ}` under the target key.
    rows: Vec<Vec<LweCiphertext>>,
    decomposer: SignedDigitDecomposer,
}

impl KeySwitchKey {
    /// Generates the key switching key from `from_key` to `to_key`.
    ///
    /// # Errors
    ///
    /// Propagates decomposer construction failures.
    pub fn generate<R: Rng + ?Sized>(
        params: &TfheParams,
        from_key: &LweSecretKey,
        to_key: &LweSecretKey,
        rng: &mut R,
    ) -> Result<Self, TfheError> {
        let signed: Vec<i64> = from_key.bits().iter().map(|&b| b as i64).collect();
        Self::generate_from_signed(params, &signed, to_key, rng)
    }

    /// Generates a key switching key from an arbitrary *small-signed*
    /// source key (e.g. a ternary CKKS secret) to `to_key` — the
    /// cryptographic half of CKKS→TFHE ciphertext switching
    /// (Chimera/Pegasus-style scheme bridging, the paper's §1 motivation).
    ///
    /// # Errors
    ///
    /// Propagates decomposer construction failures.
    pub fn generate_from_signed<R: Rng + ?Sized>(
        params: &TfheParams,
        from_coeffs: &[i64],
        to_key: &LweSecretKey,
        rng: &mut R,
    ) -> Result<Self, TfheError> {
        let decomposer = SignedDigitDecomposer::new(params.ks_base_log, params.ks_levels)?;
        let rows = from_coeffs
            .iter()
            .map(|&c| {
                (0..params.ks_levels)
                    .map(|d| {
                        let gadget = 1u64 << (64 - (d as u32 + 1) * params.ks_base_log);
                        // Wrapping arithmetic realizes negative coefficients
                        // on the torus.
                        to_key.encrypt((c as u64).wrapping_mul(gadget), params.lwe_sigma, rng)
                    })
                    .collect()
            })
            .collect();
        Ok(KeySwitchKey { rows, decomposer })
    }

    /// Switches an LWE ciphertext under the source key to the target key.
    ///
    /// # Panics
    ///
    /// Panics if the ciphertext dimension disagrees with the key.
    pub fn switch(&self, ct: &LweCiphertext) -> LweCiphertext {
        let _span = telemetry::Span::enter("tfhe.keyswitch");
        assert_eq!(ct.dim(), self.rows.len(), "keyswitch dimension mismatch");
        let target_dim = self.rows[0][0].dim();
        let mut out = LweCiphertext::trivial(ct.b, target_dim);
        // `SignedDigitDecomposer::new` caps `levels` at 64.
        let mut buf = [0i64; 64];
        let digits = &mut buf[..self.decomposer.levels()];
        for (i, &ai) in ct.a.iter().enumerate() {
            self.decomposer.decompose_into(ai, digits);
            for (d, &digit) in digits.iter().enumerate() {
                if digit == 0 {
                    continue;
                }
                let row = &self.rows[i][d];
                // out -= digit * row.
                for (o, &r) in out.a.iter_mut().zip(&row.a) {
                    *o = o.wrapping_sub(r.wrapping_mul(digit as u64));
                }
                out.b = out.b.wrapping_sub(row.b.wrapping_mul(digit as u64));
            }
        }
        out
    }
}

/// The programmable-bootstrapping engine.
#[derive(Debug, Clone)]
pub struct Pbs {
    params: TfheParams,
    mult: NegacyclicMultiplier,
}

impl Pbs {
    /// Builds the engine (NTT tables for the ring degree).
    ///
    /// # Errors
    ///
    /// Propagates NTT construction failures.
    pub fn new(params: TfheParams) -> Result<Self, TfheError> {
        Ok(Pbs { params, mult: NegacyclicMultiplier::new(params.poly_size)? })
    }

    /// The parameter set.
    #[inline]
    pub fn params(&self) -> &TfheParams {
        &self.params
    }

    /// The shared exact multiplier.
    #[inline]
    pub fn multiplier(&self) -> &NegacyclicMultiplier {
        &self.mult
    }

    /// Blind rotation: homomorphically evaluates `testv · X^{-φ̃}` where
    /// `φ̃` is the (2N-discretized) phase of `ct`.
    ///
    /// # Errors
    ///
    /// Currently infallible — the fused external product opens no parallel
    /// region; the `Result` is kept so callers need not change.
    ///
    /// # Panics
    ///
    /// Panics if `ct.dim()` disagrees with the bootstrap key.
    pub fn blind_rotate(
        &self,
        bsk: &BootstrappingKey,
        ct: &LweCiphertext,
        testv: &[u64],
    ) -> Result<TrlweCiphertext, TfheError> {
        let _span = telemetry::Span::enter("tfhe.pbs.blind_rotate");
        assert_eq!(ct.dim(), bsk.steps(), "LWE dim disagrees with bootstrap key");
        let n = self.params.poly_size;
        let two_n = 2 * n;
        let scale = |t: u64| -> usize {
            // round(t · 2N / 2^64).
            let shift = 64 - (two_n.trailing_zeros());
            (((t >> (shift - 1)) + 1) >> 1) as usize % two_n
        };
        let b_tilde = scale(ct.b);
        let mut acc = TrlweCiphertext::trivial(testv.to_vec()).rotate(two_n - b_tilde);
        let mut ws = self.mult.workspace((self.params.glwe_dim + 1) * self.params.pbs_levels);
        for (trgsw, &ai) in bsk.trgsw.iter().zip(&ct.a) {
            let a_tilde = scale(ai);
            if a_tilde == 0 {
                continue;
            }
            // CMux(acc, X^ã·acc) = acc + trgsw ⊡ (X^ã·acc − acc), in place.
            rotate_map(&acc.a, a_tilde, &mut ws.input[0], u64::wrapping_sub);
            rotate_map(&acc.b, a_tilde, &mut ws.input[1], u64::wrapping_sub);
            trgsw.external_product_add(&self.mult, &mut ws, &mut acc);
        }
        ws.report_transforms();
        Ok(acc)
    }

    /// Full programmable bootstrap: blind rotation, sample extraction, key
    /// switch back to dimension `n`. `testv` is the test polynomial (use
    /// the builders below).
    ///
    /// # Errors
    ///
    /// Currently infallible; see [`Pbs::blind_rotate`].
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatches.
    pub fn bootstrap(
        &self,
        bsk: &BootstrappingKey,
        ksk: &KeySwitchKey,
        ct: &LweCiphertext,
        testv: &[u64],
    ) -> Result<LweCiphertext, TfheError> {
        let _span = telemetry::Span::enter("tfhe.pbs.bootstrap");
        let rotated = self.blind_rotate(bsk, ct, testv)?;
        Ok(ksk.switch(&rotated.sample_extract()))
    }

    /// The gate-bootstrap test polynomial: constant `μ` everywhere, so the
    /// extracted coefficient is `+μ` for phases in `(0, ½)` and `−μ` below.
    pub fn sign_testv(&self, mu: u64) -> Vec<u64> {
        vec![mu; self.params.poly_size]
    }

    /// A LUT test polynomial for messages in `[0, space/2)` of a
    /// `space`-sector torus (the negacyclic half-space convention —
    /// messages in the upper half would come back negated):
    /// bootstrapping `Enc(m)` yields `Enc(f(m))`.
    pub fn function_testv(&self, space: u64, f: impl Fn(u64) -> u64) -> Vec<u64> {
        let n = self.params.poly_size as u64;
        let two_n = 2 * n;
        // The extracted coefficient after blind rotation by phase φ̃ ≈
        // m·2N/space is testv[φ̃], so coefficient j serves the sector
        // m = round(j·space/2N).
        (0..n)
            .map(|j| {
                let m = ((2 * j * space + two_n) / (2 * two_n)) % space;
                torus::encode_message(f(m), space)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::torus::{encode_message, ONE_EIGHTH};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    struct Fixture {
        params: TfheParams,
        lwe_key: LweSecretKey,
        trlwe_key: TrlweSecretKey,
        pbs: Pbs,
        bsk: BootstrappingKey,
        ksk: KeySwitchKey,
        rng: ChaCha8Rng,
    }

    fn fixture(seed: u64) -> Fixture {
        let params = TfheParams::toy();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let lwe_key = LweSecretKey::generate(params.lwe_dim, &mut rng);
        let trlwe_key = TrlweSecretKey::generate(params.poly_size, &mut rng);
        let pbs = Pbs::new(params).unwrap();
        let bsk =
            BootstrappingKey::generate(&params, &lwe_key, &trlwe_key, pbs.multiplier(), &mut rng)
                .unwrap();
        let ksk =
            KeySwitchKey::generate(&params, &trlwe_key.to_extracted_lwe_key(), &lwe_key, &mut rng)
                .unwrap();
        Fixture { params, lwe_key, trlwe_key, pbs, bsk, ksk, rng }
    }

    #[test]
    fn keyswitch_preserves_message() {
        let mut f = fixture(7);
        let extracted_key = f.trlwe_key.to_extracted_lwe_key();
        for m in 0..4u64 {
            let ct = extracted_key.encrypt(encode_message(m, 4), 2.0f64.powi(-30), &mut f.rng);
            let switched = f.ksk.switch(&ct);
            assert_eq!(switched.dim(), f.params.lwe_dim);
            assert_eq!(f.lwe_key.decrypt_message(&switched, 4), m, "m = {m}");
        }
    }

    #[test]
    fn gate_bootstrap_recovers_sign() {
        let mut f = fixture(8);
        let testv = f.pbs.sign_testv(ONE_EIGHTH);
        for bit in [true, false] {
            let mu = if bit { ONE_EIGHTH } else { ONE_EIGHTH.wrapping_neg() };
            let ct = f.lwe_key.encrypt(mu, f.params.lwe_sigma, &mut f.rng);
            let boot = f.pbs.bootstrap(&f.bsk, &f.ksk, &ct, &testv).unwrap();
            let phase = f.lwe_key.phase(&boot) as i64;
            assert_eq!(phase > 0, bit, "bit {bit}: phase {phase}");
        }
    }

    #[test]
    fn programmable_bootstrap_evaluates_lut() {
        // f(m) = m² mod 8 over the half-space m ∈ [0, 4).
        let mut f = fixture(10);
        let space = 8u64;
        let testv = f.pbs.function_testv(space, |m| (m * m) % space);
        for m in 0..space / 2 {
            let ct = f.lwe_key.encrypt(encode_message(m, space), f.params.lwe_sigma, &mut f.rng);
            let boot = f.pbs.bootstrap(&f.bsk, &f.ksk, &ct, &testv).unwrap();
            assert_eq!(f.lwe_key.decrypt_message(&boot, space), (m * m) % space, "m = {m}");
        }
    }

    #[test]
    fn bootstrap_reduces_noise_growth() {
        // Bootstrapping a noisy ciphertext yields noise independent of the
        // input noise: boot(x) and boot(boot(x)) decrypt identically.
        let mut f = fixture(9);
        let testv = f.pbs.sign_testv(ONE_EIGHTH);
        let ct = f.lwe_key.encrypt(ONE_EIGHTH, f.params.lwe_sigma, &mut f.rng);
        let b1 = f.pbs.bootstrap(&f.bsk, &f.ksk, &ct, &testv).unwrap();
        let b2 = f.pbs.bootstrap(&f.bsk, &f.ksk, &b1, &testv).unwrap();
        assert!((f.lwe_key.phase(&b1) as i64) > 0);
        assert!((f.lwe_key.phase(&b2) as i64) > 0);
    }
}
