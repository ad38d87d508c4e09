//! Programmable bootstrapping: blind rotation + sample extraction + LWE
//! key switching.
//!
//! This is the workload of the paper's Fig. 6(b): each of the `n` blind-
//! rotation steps runs one CMux (`(k+1)·l_b` forward NTTs, the
//! `DecompPolyMult`-patterned MAC, `k+1` inverse NTTs), and the closing key
//! switch is a long lazily-reducible MAC — together, the TFHE rows of the
//! Meta-OP accounting in `metaop`-style Fig. 7(a).

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

    /// Bytes of prepared key material one blind rotation streams.
    pub fn bytes(&self) -> usize {
        self.trgsw.iter().map(TrgswCiphertext::bytes).sum()
    }
}

/// The LWE→LWE key-switching key from the extracted dimension `N` down to
/// the original dimension `n`.
///
/// Stored at 32 bits for every parameter set: row `(i, d)` is a 32-bit LWE
/// encryption of `s'_i · 2^{32-(d+1)κ}` under the target key — a uniform
/// 32-bit mask and the top 32 bits, rounded, of the 64-bit body — so each
/// row is off the 64-bit one by at most `2^-33`, against LWE noise of
/// `2^-25` or more. All rows live in one buffer in the order
/// [`switch`](Self::switch) streams them; it runs on the lanes
/// (`fhe_math::simd::wide`), one `vpmuludq` per eight words of a row.
#[derive(Debug, Clone)]
pub struct KeySwitchKey {
    /// `[i][d][a_0 … a_{n-1}, b]`: source coefficient, level, then the row.
    rows: Vec<u32>,
    from_dim: usize,
    target_dim: usize,
    decomposer: SignedDigitDecomposer,
}

impl KeySwitchKey {
    /// Generates the key switching key from `from_key` to `to_key`.
    ///
    /// # Errors
    ///
    /// See [`KeySwitchKey::generate_from_signed`].
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
    /// Returns [`TfheError::InvalidParams`] for an empty source key, zero
    /// levels, or a gadget that reaches below the 32 stored bits
    /// (`ks_base_log · ks_levels > 32`); propagates decomposer
    /// construction failures.
    pub fn generate_from_signed<R: Rng + ?Sized>(
        params: &TfheParams,
        from_coeffs: &[i64],
        to_key: &LweSecretKey,
        rng: &mut R,
    ) -> Result<Self, TfheError> {
        let (base_log, levels) = (params.ks_base_log, params.ks_levels);
        if from_coeffs.is_empty() || levels == 0 || base_log as usize * levels > 32 {
            return Err(TfheError::InvalidParams {
                detail: format!(
                    "key switch from dimension {} with {levels} base-2^{base_log} levels: needs a \
                     non-empty source key and 1 <= base_log * levels <= 32",
                    from_coeffs.len()
                ),
            });
        }
        let decomposer = SignedDigitDecomposer::new(base_log, levels)?;
        let target_dim = to_key.dim();
        let mut rows = vec![0u32; from_coeffs.len() * levels * (target_dim + 1)];
        for (r, row) in rows.chunks_exact_mut(target_dim + 1).enumerate() {
            let (c, d) = (from_coeffs[r / levels], (r % levels) as u32);
            // Wrapping arithmetic realizes negative coefficients on the
            // torus.
            let mu = (c as u64).wrapping_mul(1u64 << (64 - (d + 1) * base_log));
            let (mask, body) = row.split_at_mut(target_dim);
            // The mask is the top half of the words the 64-bit encryption
            // would draw, so the generator advances exactly as it did.
            mask.fill_with(|| (rng.gen::<u64>() >> 32) as u32);
            let noisy = mu.wrapping_add(crate::lwe::sample_torus_gaussian(params.lwe_sigma, rng));
            let dot = mask.iter().zip(to_key.bits()).filter(|(_, &s)| s == 1).map(|(&a, _)| a);
            body[0] = dot.fold(round_to_u32(noisy), u32::wrapping_add);
        }
        Ok(KeySwitchKey { rows, from_dim: from_coeffs.len(), target_dim, decomposer })
    }

    /// Bytes of key material one [`switch`](Self::switch) streams.
    #[inline]
    pub fn bytes(&self) -> usize {
        std::mem::size_of_val(&self.rows[..])
    }

    /// Switches an LWE ciphertext under the source key to the target key.
    /// The output mask is the only allocation.
    ///
    /// # Panics
    ///
    /// Panics if the ciphertext dimension disagrees with the key.
    pub fn switch(&self, ct: &LweCiphertext) -> LweCiphertext {
        let _span = telemetry::Span::enter("tfhe.keyswitch");
        assert_eq!(ct.dim(), self.from_dim, "keyswitch dimension mismatch");
        let (decomposer, dim) = (self.decomposer, self.target_dim);
        let (levels, stride) = (decomposer.levels(), dim + 1);
        // The low half of every `out.a` word is a wrapping 32-bit
        // accumulator (`u32 × u32` products, so the high half is scratch);
        // the words are widened to the torus once, at the end.
        let mut out = LweCiphertext::trivial(ct.b, dim);
        let (acc, rows) = (&mut out.a[..], &self.rows[..]);
        let body = fhe_math::simd::wide(
            #[inline(always)]
            move || {
                let mut body = 0u32;
                // `SignedDigitDecomposer::new` caps `levels` at 64.
                let mut buf = [0i64; 64];
                let digits = &mut buf[..levels];
                for (&ai, rows) in ct.a.iter().zip(rows.chunks_exact(levels * stride)) {
                    decomposer.decompose_into(ai, digits);
                    for (&digit, row) in digits.iter().zip(rows.chunks_exact(stride)) {
                        if digit == 0 {
                            continue;
                        }
                        let digit = digit as u32;
                        sub_row(acc, &row[..dim], digit);
                        body = body.wrapping_sub(row[dim].wrapping_mul(digit));
                    }
                }
                acc.iter_mut().for_each(|o| *o <<= 32);
                body
            },
        );
        out.b = ct.b.wrapping_add(u64::from(body) << 32);
        out
    }
}

/// The key switch's row update: `acc −= digit · row` in each word's low 32 bits.
#[inline(always)]
fn sub_row(acc: &mut [u64], row: &[u32], digit: u32) {
    for (o, &r) in acc.iter_mut().zip(row) {
        *o = o.wrapping_sub(u64::from(r) * u64::from(digit));
    }
}

/// The top 32 bits of a torus word, rounded to nearest.
#[inline]
fn round_to_u32(t: u64) -> u32 {
    (t.wrapping_add(1 << 31) >> 32) as u32
}

/// The programmable-bootstrapping engine.
#[derive(Debug, Clone)]
pub struct Pbs {
    params: TfheParams,
    mult: NegacyclicMultiplier,
}

impl Pbs {
    /// Builds the engine: the multiplier at the set's ring precision
    /// ([`TfheParams::ring_bits`]), with the prime count its bootstrap
    /// gadget needs.
    ///
    /// # Errors
    ///
    /// Propagates NTT construction failures.
    pub fn new(params: TfheParams) -> Result<Self, TfheError> {
        let mult = NegacyclicMultiplier::with_precision(
            params.poly_size,
            params.ring_bits(),
            params.pbs_base_log,
            (params.glwe_dim + 1) * params.pbs_levels,
        )?;
        Ok(Pbs { params, mult })
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
    /// None: the `Result` is kept only because the frozen benchmark
    /// `.expect`s it.
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
        Ok(self.rotate(bsk, ct, testv))
    }

    /// The body of [`Pbs::blind_rotate`].
    fn rotate(&self, bsk: &BootstrappingKey, ct: &LweCiphertext, testv: &[u64]) -> TrlweCiphertext {
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
        acc
    }

    /// Full programmable bootstrap: blind rotation, sample extraction, key
    /// switch back to dimension `n`. `testv` is the test polynomial (use
    /// the builders below).
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
    ) -> LweCiphertext {
        let _span = telemetry::Span::enter("tfhe.pbs.bootstrap");
        ksk.switch(&self.rotate(bsk, ct, testv).sample_extract())
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

    /// The row update compiled for the lanes (inside `simd::wide`, as
    /// `switch` runs it) equals the plain loop word for word: lengths
    /// around the 8-word vector and the key-switch widths, digits ±2^{β−1}
    /// and ±1, rows at 0, `u32::MAX` and mixed.
    #[test]
    fn ifma_key_switch_row_matches_the_scalar_loop() {
        println!("simd::active_backend() = {}", fhe_math::simd::active_backend().name());
        let half = 1u32 << (TfheParams::set_i().ks_base_log - 1);
        for len in [1u32, 7, 8, 9, 16, 17, 630, 631, 2048] {
            let start: Vec<u64> = (0..len).map(|i| (!0u64 / 3).wrapping_mul(i.into())).collect();
            let mixed = (0..len).map(|i| i.wrapping_mul(0x9e37_79b9)).collect();
            for row in [vec![0; len as usize], vec![u32::MAX; len as usize], mixed] {
                for digit in [half, half.wrapping_neg(), 1, u32::MAX] {
                    let (mut want, mut got) = (start.clone(), start.clone());
                    sub_row(&mut want, &row, digit);
                    fhe_math::simd::wide(
                        #[inline(always)]
                        || sub_row(&mut got, &row, digit),
                    );
                    assert_eq!(got, want, "{len} words, digit {}, row[0] {}", digit as i32, row[0]);
                }
            }
        }
    }

    #[test]
    fn key_switch_key_generation_rejects_unusable_shapes() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let to_key = LweSecretKey::generate(8, &mut rng);
        let mut generate = |params: TfheParams, source: &[i64]| {
            KeySwitchKey::generate_from_signed(&params, source, &to_key, &mut rng)
        };
        let toy = TfheParams::toy();
        let ksk = generate(toy, &[1, 0, -1]).unwrap();
        assert_eq!(ksk.switch(&LweCiphertext::trivial(ONE_EIGHTH, 3)).dim(), 8);
        let invalid =
            |r: Result<KeySwitchKey, TfheError>| matches!(r, Err(TfheError::InvalidParams { .. }));
        // An empty source key used to build, then index out of bounds in
        // `switch`.
        assert!(invalid(generate(toy, &[])));
        assert!(invalid(generate(TfheParams { ks_levels: 0, ..toy }, &[1])));
        // 4 · 9 = 36 bits: the deepest gadget would round away in a 32-bit
        // row.
        assert!(invalid(generate(TfheParams { ks_levels: 9, ..toy }, &[1])));
    }

    #[test]
    fn gate_bootstrap_recovers_sign() {
        let mut f = fixture(8);
        let testv = f.pbs.sign_testv(ONE_EIGHTH);
        for bit in [true, false] {
            let mu = if bit { ONE_EIGHTH } else { ONE_EIGHTH.wrapping_neg() };
            let ct = f.lwe_key.encrypt(mu, f.params.lwe_sigma, &mut f.rng);
            let boot = f.pbs.bootstrap(&f.bsk, &f.ksk, &ct, &testv);
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
            let boot = f.pbs.bootstrap(&f.bsk, &f.ksk, &ct, &testv);
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
        let b1 = f.pbs.bootstrap(&f.bsk, &f.ksk, &ct, &testv);
        let b2 = f.pbs.bootstrap(&f.bsk, &f.ksk, &b1, &testv);
        assert!((f.lwe_key.phase(&b1) as i64) > 0);
        assert!((f.lwe_key.phase(&b2) as i64) > 0);
    }
}
