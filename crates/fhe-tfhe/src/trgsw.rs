//! TRGSW ciphertexts, the external product and CMux.
//!
//! A TRGSW ciphertext encrypts a small integer (here: a key bit) as `2·l`
//! TRLWE rows offset by the gadget `g_i = 2^{64-(i+1)β}`. The **external
//! product** `TRGSW ⊡ TRLWE` — gadget-decompose, multiply with the key
//! rows, accumulate — is exactly the paper's `DecompPolyMult` pattern with
//! `n = (k+1)·l_b`, and the CMux built on it is the inner loop of blind
//! rotation. Rows are stored rounded to the multiplier's ring precision,
//! read centred, and pre-transformed in each of its 51-bit NTT prime
//! fields (one at set I, two at the toy set and set II — see
//! [`crate::NegacyclicMultiplier`]), as one contiguous block in the order
//! the kernel reads it. One external product is, per prime field: one pass
//! that decomposes both input polynomials straight into `2·l` lifted digit
//! polynomials (level-major and branch-free,
//! `fhe_math::SignedDigitDecomposer::decompose_lift_into`), `2·l` forward
//! NTTs, one `fhe_math::lazy_mac` per output column that reads all `2·l`
//! key rows at once, and 2 inverse NTTs — the `transforms_per_step` that
//! `metaop::counts::pbs` multiplies out. Every entry point reports its
//! transforms to the `tfhe.ntt.forward` / `tfhe.ntt.inverse` counters.
//!
//! [`TrgswCiphertext::encrypt`] transforms the secret once per call, then
//! builds each row in place, per prime field: one forward transform of the
//! mask (the stored row, and the operand of `a·s`), one inverse for `a·s`,
//! one forward of the body — 3 — plus a second forward of the mask on the
//! rows whose gadget term lands on it (key bit 1, rows `0..l`). Each row
//! draws the words `TrlweSecretKey::encrypt` draws, so the keys are the
//! ones a row-by-row encryption makes.

use crate::poly_mult::{NegacyclicMultiplier, Workspace};
use crate::trlwe::{draw_mask_and_noise, TrlweCiphertext, TrlweSecretKey};
use crate::TfheError;
use fhe_math::SignedDigitDecomposer;
use rand::Rng;

/// A TRGSW ciphertext with rows prepared for fast external products.
#[derive(Debug, Clone)]
pub struct TrgswCiphertext {
    /// `2l` rows, each the prepared `a` polynomial then the prepared `b`
    /// (`primes · n` residues apiece); rows `0..l` carry the gadget on the
    /// mask, rows `l..2l` on the body.
    rows: Vec<u64>,
    levels: usize,
    decomposer: SignedDigitDecomposer,
    n: usize,
}

impl TrgswCiphertext {
    /// Encrypts a small integer `m` (in practice a bit) under the TRLWE key.
    ///
    /// # Errors
    ///
    /// Propagates decomposer construction failures.
    ///
    /// # Panics
    ///
    /// Panics if the gadget reaches below `mult`'s ring precision
    /// (`base_log · levels > w`) or its external product would not be
    /// exact under `mult`'s primes.
    pub fn encrypt<R: Rng + ?Sized>(
        key: &TrlweSecretKey,
        m: i64,
        base_log: u32,
        levels: usize,
        sigma: f64,
        mult: &NegacyclicMultiplier,
        rng: &mut R,
    ) -> Result<Self, TfheError> {
        let n = key.n();
        let decomposer = SignedDigitDecomposer::new(base_log, levels)?;
        assert!(
            base_log as usize * levels <= mult.ring_bits() as usize,
            "a {levels}-level base-2^{base_log} gadget rounds away at {}-bit ring precision",
            mult.ring_bits()
        );
        mult.assert_exact(base_log, 2 * levels);
        let poly = mult.primes() * n;
        let s_hat = mult.transform_ints(key.bits());
        let (mut a, mut b, mut a_s) = (vec![0u64; n], vec![0u64; n], vec![0u64; poly]);
        let mut rows = vec![0; 2 * levels * 2 * poly];
        for (r, row) in rows.chunks_exact_mut(2 * poly).enumerate() {
            let (row_a, row_b) = row.split_at_mut(poly);
            // A TRLWE encryption of zero, built in the row.
            draw_mask_and_noise(sigma, mult, rng, &mut a, &mut b);
            mult.prepare_into(&a, row_a);
            a_s.copy_from_slice(row_a);
            mult.mul_transformed_add(&s_hat, &mut a_s, &mut b);
            let term = (m as u64).wrapping_mul(1u64 << (64 - (r % levels + 1) as u32 * base_log));
            if r >= levels {
                b[0] = b[0].wrapping_add(term);
            } else if term != 0 {
                a[0] = a[0].wrapping_add(term);
                mult.prepare_into(&a, row_a);
            }
            mult.prepare_into(&b, row_b);
        }
        Ok(TrgswCiphertext { rows, levels, decomposer, n })
    }

    /// Ring degree.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Decomposition levels `l_b`.
    #[inline]
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Bytes of prepared key material an external product streams.
    #[inline]
    pub fn bytes(&self) -> usize {
        std::mem::size_of_val(&self.rows[..])
    }

    /// The fused kernel: `acc += self ⊡ ws.input`. Allocation-free.
    pub(crate) fn external_product_add(
        &self,
        mult: &NegacyclicMultiplier,
        ws: &mut Workspace,
        acc: &mut TrlweCiphertext,
    ) {
        // Histogram-only probe (no span event: this runs once per
        // blind-rotation step).
        let _t = telemetry::Timer::enter("tfhe.external_product");
        assert_eq!(acc.n(), self.n, "ring degree mismatch");
        mult.decomp_poly_mult_add(&self.decomposer, &self.rows, ws, [&mut acc.a, &mut acc.b]);
    }

    /// `onto + self ⊡ input`, through a workspace of its own.
    fn product_onto(
        &self,
        mult: &NegacyclicMultiplier,
        input: TrlweCiphertext,
        mut onto: TrlweCiphertext,
    ) -> TrlweCiphertext {
        let mut ws = mult.workspace(2 * self.levels);
        ws.input = [input.a, input.b];
        self.external_product_add(mult, &mut ws, &mut onto);
        ws.report_transforms();
        onto
    }

    /// External product `self ⊡ ct`: homomorphically multiplies the TRLWE
    /// message by this TRGSW's small integer.
    ///
    /// # Panics
    ///
    /// Panics if ring degrees disagree.
    pub fn external_product(
        &self,
        mult: &NegacyclicMultiplier,
        ct: &TrlweCiphertext,
    ) -> TrlweCiphertext {
        self.product_onto(mult, ct.clone(), TrlweCiphertext::trivial(vec![0; self.n]))
    }

    /// CMux: returns (an encryption of) `ct1` if this TRGSW encrypts 1,
    /// `ct0` if it encrypts 0: `ct0 + self ⊡ (ct1 − ct0)`.
    ///
    /// # Panics
    ///
    /// Panics if ring degrees disagree.
    pub fn cmux(
        &self,
        mult: &NegacyclicMultiplier,
        ct0: &TrlweCiphertext,
        ct1: &TrlweCiphertext,
    ) -> TrlweCiphertext {
        self.product_onto(mult, ct1.sub(ct0), ct0.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poly_mult::tests::{rounded, schoolbook};
    use crate::torus::{decode_message, encode_message};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup() -> (TrlweSecretKey, NegacyclicMultiplier, ChaCha8Rng) {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mult = NegacyclicMultiplier::new(64).unwrap();
        let key = TrlweSecretKey::generate(64, &mut rng);
        (key, mult, rng)
    }

    const SIGMA: f64 = 1.08e-10; // ~2^-33

    /// A "ciphertext" over arbitrary torus rows, plus the raw rows.
    type RawRows = Vec<(Vec<u64>, Vec<u64>)>;

    fn from_rows(raw: &RawRows, base_log: u32, mult: &NegacyclicMultiplier) -> TrgswCiphertext {
        let levels = raw.len() / 2;
        let poly = mult.primes() * mult.n();
        let mut rows = vec![0; raw.len() * 2 * poly];
        for (row, (a, b)) in rows.chunks_exact_mut(2 * poly).zip(raw) {
            let (pa, pb) = row.split_at_mut(poly);
            mult.prepare_into(a, pa);
            mult.prepare_into(b, pb);
        }
        let decomposer = SignedDigitDecomposer::new(base_log, levels).unwrap();
        TrgswCiphertext { rows, levels, decomposer, n: mult.n() }
    }

    /// The external product assembled row by row by schoolbook, each key
    /// row first rounded to its top `ring_bits` bits — no NTT, no CRT, no
    /// multiplier.
    fn reference(
        raw: &RawRows,
        base_log: u32,
        ring_bits: u32,
        ct: &TrlweCiphertext,
    ) -> TrlweCiphertext {
        let d = SignedDigitDecomposer::new(base_log, raw.len() / 2).unwrap();
        let digits = [d.decompose_poly(&ct.a), d.decompose_poly(&ct.b)].concat();
        let mut out = TrlweCiphertext::trivial(vec![0; ct.n()]);
        for (digit, (row_a, row_b)) in digits.iter().zip(raw) {
            let term = TrlweCiphertext {
                a: schoolbook(digit, &rounded(row_a, ring_bits)),
                b: schoolbook(digit, &rounded(row_b, ring_bits)),
            };
            out = out.add(&term);
        }
        out
    }

    /// `(N, β, l, w)`: the three shipped shapes (toy, set I, set II), set
    /// I's ring at full precision, and two small one-prime rings.
    const SHAPES: [(usize, u32, usize, u32); 6] = [
        (64, 10, 3, 64),
        (1024, 7, 3, 32),
        (2048, 23, 1, 64),
        (1024, 7, 3, 64),
        (16, 7, 3, 32),
        (64, 7, 3, 32),
    ];

    fn multiplier(n: usize, base_log: u32, levels: usize, w: u32) -> NegacyclicMultiplier {
        let mult = NegacyclicMultiplier::with_precision(n, w, base_log, 2 * levels).unwrap();
        assert_eq!(mult.primes(), if w == 32 { 1 } else { 2 });
        mult
    }

    fn random_poly(n: usize, rng: &mut ChaCha8Rng) -> Vec<u64> {
        use rand::Rng;
        (0..n).map(|_| rng.gen()).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]

        #[test]
        fn fused_external_product_matches_row_by_row_reference(seed in proptest::prelude::any::<u64>()) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            for (n, base_log, levels, w) in SHAPES {
                let mult = multiplier(n, base_log, levels, w);
                let raw: RawRows = (0..2 * levels)
                    .map(|_| (random_poly(n, &mut rng), random_poly(n, &mut rng)))
                    .collect();
                let trgsw = from_rows(&raw, base_log, &mult);
                let ct0 = TrlweCiphertext { a: random_poly(n, &mut rng), b: random_poly(n, &mut rng) };
                let ct1 = TrlweCiphertext { a: random_poly(n, &mut rng), b: random_poly(n, &mut rng) };
                proptest::prop_assert_eq!(
                    trgsw.external_product(&mult, &ct1),
                    reference(&raw, base_log, w, &ct1)
                );
                proptest::prop_assert_eq!(
                    trgsw.cmux(&mult, &ct0, &ct1),
                    ct0.add(&reference(&raw, base_log, w, &ct1.sub(&ct0)))
                );
            }
        }
    }

    #[test]
    fn fused_external_product_matches_reference_on_adversarial_inputs() {
        for (n, base_log, levels, w) in SHAPES {
            let mult = multiplier(n, base_log, levels, w);
            let d = SignedDigitDecomposer::new(base_log, levels).unwrap();
            // The torus value whose every digit is the extreme −2^{β−1}.
            let extreme = vec![-(1i64 << (base_log - 1)); levels];
            let all_extreme = d.recompose(&extreme);
            assert_eq!(d.decompose(all_extreme), extreme);
            // Rows at the largest value the ring precision holds (centred:
            // −1), and at 2^63, whose centred value −2^{w−1} has the
            // largest magnitude.
            for row in [u64::MAX << (64 - w), 1 << 63] {
                let raw: RawRows = vec![(vec![row; n], vec![row; n]); 2 * levels];
                let trgsw = from_rows(&raw, base_log, &mult);
                for t in [all_extreme, u64::MAX] {
                    let ct = TrlweCiphertext { a: vec![t; n], b: vec![t; n] };
                    assert_eq!(
                        trgsw.external_product(&mult, &ct),
                        reference(&raw, base_log, w, &ct),
                        "n = {n}, w = {w}, rows {row:#x}, torus value {t:#x}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "not exact under 1 prime(s) at 32-bit ring precision")]
    fn one_prime_rejects_set_ii_gadget() {
        // Set II's 23-bit digit at 32 bits, on set I's ring:
        // 2·2^10·2^22·2^31 = 2^64 > p/2. A multiplier built for set I's
        // gadget has one prime and must refuse the key rather than wrap
        // silently.
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let mult = NegacyclicMultiplier::with_precision(1024, 32, 7, 6).unwrap();
        assert_eq!(mult.primes(), 1);
        let key = TrlweSecretKey::generate(1024, &mut rng);
        let _ = TrgswCiphertext::encrypt(&key, 1, 23, 1, 2.9e-15, &mult, &mut rng);
    }

    #[test]
    #[should_panic(expected = "rounds away at 32-bit ring precision")]
    fn gadget_below_the_ring_precision_is_rejected() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mult = NegacyclicMultiplier::with_precision(64, 32, 7, 10).unwrap();
        let key = TrlweSecretKey::generate(64, &mut rng);
        let _ = TrgswCiphertext::encrypt(&key, 1, 7, 5, SIGMA, &mult, &mut rng);
    }

    #[test]
    fn external_product_preserves_message_at_32_bits() {
        // Set I's gadget and noise on a small ring, through the one-prime
        // multiplier end to end: encrypt, multiply by 1 and by 0, decrypt.
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let (n, sigma) = (64, 2.94e-8);
        let mult = multiplier(n, 7, 3, 32);
        let key = TrlweSecretKey::generate(n, &mut rng);
        let mu: Vec<u64> = (0..n as u64).map(|i| encode_message(i % 4, 4)).collect();
        let ct = key.encrypt(&mu, sigma, &mult, &mut rng).unwrap();
        assert!(ct.a.iter().all(|&a| a << 32 == 0), "the mask is sampled at ring precision");
        for bit in [1i64, 0] {
            let c = TrgswCiphertext::encrypt(&key, bit, 7, 3, sigma, &mult, &mut rng).unwrap();
            let phase = key.phase(&c.external_product(&mult, &ct), &mult);
            for (i, (&p, &m)) in phase.iter().zip(&mu).enumerate() {
                let want = if bit == 1 { decode_message(m, 4) } else { 0 };
                assert_eq!(decode_message(p, 4), want, "bit {bit}, coeff {i}");
            }
        }
    }

    #[test]
    fn external_product_by_one_preserves_message() {
        let (key, mult, mut rng) = setup();
        let c = TrgswCiphertext::encrypt(&key, 1, 10, 3, SIGMA, &mult, &mut rng).unwrap();
        let mu: Vec<u64> = (0..64).map(|i| encode_message(i % 4, 4)).collect();
        let ct = key.encrypt(&mu, SIGMA, &mult, &mut rng).unwrap();
        let out = c.external_product(&mult, &ct);
        let phase = key.phase(&out, &mult);
        for (i, (&p, &m)) in phase.iter().zip(&mu).enumerate() {
            assert_eq!(decode_message(p, 4), decode_message(m, 4), "coeff {i}");
        }
    }

    #[test]
    fn external_product_by_zero_kills_message() {
        let (key, mult, mut rng) = setup();
        let c = TrgswCiphertext::encrypt(&key, 0, 10, 3, SIGMA, &mult, &mut rng).unwrap();
        let mu: Vec<u64> = (0..64).map(|_| encode_message(1, 2)).collect();
        let ct = key.encrypt(&mu, SIGMA, &mult, &mut rng).unwrap();
        let out = c.external_product(&mult, &ct);
        let phase = key.phase(&out, &mult);
        for (i, &p) in phase.iter().enumerate() {
            assert_eq!(decode_message(p, 2), 0, "coeff {i}");
        }
    }

    #[test]
    fn cmux_selects() {
        let (key, mult, mut rng) = setup();
        let mu0: Vec<u64> = vec![encode_message(1, 8); 64];
        let mu1: Vec<u64> = vec![encode_message(5, 8); 64];
        let ct0 = key.encrypt(&mu0, SIGMA, &mult, &mut rng).unwrap();
        let ct1 = key.encrypt(&mu1, SIGMA, &mult, &mut rng).unwrap();
        for bit in [0i64, 1] {
            let sel = TrgswCiphertext::encrypt(&key, bit, 10, 3, SIGMA, &mult, &mut rng).unwrap();
            let out = sel.cmux(&mult, &ct0, &ct1);
            let phase = key.phase(&out, &mult);
            let want = if bit == 1 { 5 } else { 1 };
            assert_eq!(decode_message(phase[0], 8), want, "bit {bit}");
        }
    }
}
