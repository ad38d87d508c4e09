//! Canonical-embedding encoding: complex slot vectors ↔ ring plaintexts.
//!
//! A real polynomial `m ∈ Z[X]/(X^N + 1)` evaluated at the primitive
//! `2N`-th roots `ζ^{5^j}` yields `N/2` independent complex slots; the other
//! `N/2` evaluations are conjugates. Slot index `j` maps to the root
//! `ζ^{5^j mod 2N}`, so the Galois automorphism `X ↦ X^5` rotates slots by
//! one — the property CKKS rotations (and the paper's `Rotation` benchmark
//! row) are built on.
//!
//! The transforms run in `O(N log N)` on `N/2` points. Since
//! `ζ_j^{N/2} = i` for every `ζ_j = ζ^{5^j}` (`5^j ≡ 1 mod 4`), folding the
//! upper half of the coefficients onto the lower as `w_i = m_i + i·m_{i+N/2}`
//! turns the embedding into the evaluation of a complex polynomial of
//! degree `< N/2` at the `N/2` points `ζ_j`; squaring maps those points
//! onto the same set for the half-size problem and `ζ_{j+N/4} = −ζ_j`, so
//! the usual even/odd split applies with the twiddles taken in `5^j` order
//! (the HEAAN/Lattigo "special FFT"). Slots come out in natural order:
//! output `j` is the evaluation at `ζ^{rot_group[j]}`. A direct
//! `O(N·slots)` evaluation is kept as [`Encoder::encode_direct_at`] /
//! [`Encoder::decode_direct`] and the FFT paths are tested against it.
//!
//! The tables (root powers, `5^j`, per-stage twiddles, bit reversal) are
//! built once in [`CkksContext::new`]; an [`Encoder`] is a borrow.

use crate::ciphertext::Plaintext;
use crate::{CkksContext, CkksError};
use fhe_math::{Domain, RnsPoly};

/// A complex number with `f64` parts (minimal, purpose-built — no external
/// dependency).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// Creates a complex number.
    pub fn new(re: f64, im: f64) -> Self {
        Complex64 { re, im }
    }

    /// `e^{iθ}`.
    pub fn from_angle(theta: f64) -> Self {
        Complex64 { re: theta.cos(), im: theta.sin() }
    }

    /// Complex conjugate.
    pub fn conj(self) -> Self {
        Complex64 { re: self.re, im: -self.im }
    }

    /// Complex product.
    // Named methods keep call sites uniform with `conj`/`abs`; the
    // operator traits would pull in a `use std::ops` at every caller.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, other: Self) -> Self {
        Complex64 {
            re: self.re * other.re - self.im * other.im,
            im: self.re * other.im + self.im * other.re,
        }
    }

    /// Complex sum.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Self) -> Self {
        Complex64 { re: self.re + other.re, im: self.im + other.im }
    }

    /// Complex difference.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, other: Self) -> Self {
        Complex64 { re: self.re - other.re, im: self.im - other.im }
    }

    /// Modulus (absolute value).
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }
}

/// The encoder's tables for ring degree `N`, owned by the context.
#[derive(Debug)]
pub(crate) struct CodecTables {
    /// ζ^t for t in 0..2N.
    root_powers: Vec<Complex64>,
    /// 5^j mod 2N for j in 0..N/2.
    rot_group: Vec<usize>,
    /// Special-FFT twiddles in butterfly order: entry `half + j` is the
    /// primitive `8·half`-th root raised to `5^j`, for `j < half`.
    twiddles: Vec<Complex64>,
    /// Bit reversal on `log2(N/2)` bits.
    bit_rev: Vec<u32>,
}

impl CodecTables {
    pub(crate) fn new(n: usize) -> Self {
        debug_assert!(n.is_power_of_two() && n >= 4);
        let (two_n, slots) = (2 * n, n / 2);
        let root_powers: Vec<Complex64> = (0..two_n)
            .map(|t| Complex64::from_angle(std::f64::consts::PI * t as f64 / n as f64))
            .collect();
        let mut rot_group = Vec::with_capacity(slots);
        let mut g = 1usize;
        for _ in 0..slots {
            rot_group.push(g);
            g = (g * 5) % two_n;
        }
        let mut twiddles = vec![Complex64::default(); slots];
        let mut half = 1;
        while half < slots {
            let order = 8 * half;
            for j in 0..half {
                twiddles[half + j] = root_powers[(rot_group[j] % order) * (two_n / order)];
            }
            half *= 2;
        }
        let bits = slots.trailing_zeros();
        let bit_rev = (0..slots as u32).map(|i| i.reverse_bits() >> (32 - bits)).collect();
        CodecTables { root_powers, rot_group, twiddles, bit_rev }
    }

    fn bit_reverse(&self, data: &mut [Complex64]) {
        for (i, &j) in self.bit_rev.iter().enumerate() {
            if (j as usize) > i {
                data.swap(i, j as usize);
            }
        }
    }

    /// Evaluates `Σ_i data[i]·X^i` at `ζ^{5^j}`, `j < N/2`, in place.
    fn special_fft(&self, data: &mut [Complex64]) {
        self.bit_reverse(data);
        let mut half = 1;
        while half < data.len() {
            let tw = &self.twiddles[half..2 * half];
            for block in data.chunks_exact_mut(2 * half) {
                let (lo, hi) = block.split_at_mut(half);
                for ((a, b), &w) in lo.iter_mut().zip(hi).zip(tw) {
                    let (u, v) = (*a, b.mul(w));
                    *a = u.add(v);
                    *b = u.sub(v);
                }
            }
            half *= 2;
        }
    }

    /// Inverse of [`CodecTables::special_fft`] up to the factor `N/2` the
    /// caller folds into its scale.
    fn special_ifft_unscaled(&self, data: &mut [Complex64]) {
        let mut half = data.len() / 2;
        while half >= 1 {
            let tw = &self.twiddles[half..2 * half];
            for block in data.chunks_exact_mut(2 * half) {
                let (lo, hi) = block.split_at_mut(half);
                for ((a, b), &w) in lo.iter_mut().zip(hi).zip(tw) {
                    let (u, v) = (*a, *b);
                    *a = u.add(v);
                    *b = u.sub(v).mul(w.conj());
                }
            }
            half /= 2;
        }
        self.bit_reverse(data);
    }
}

/// Largest magnitude a scaled coefficient may have: `RnsPoly::from_signed`
/// takes `i64`, and a saturating cast would encode garbage silently.
const MAX_COEFF: f64 = 4_611_686_018_427_387_904.0; // 2^62

/// Rounds a scaled coefficient to the integer it encodes as.
fn quantize(x: f64) -> Result<i64, CkksError> {
    // NaN fails the comparison too.
    if x.abs() < MAX_COEFF {
        Ok(x.round() as i64)
    } else {
        Err(CkksError::EncodingOverflow { coefficient: x })
    }
}

/// Encoder/decoder for a fixed context.
///
/// See the crate-level example.
#[derive(Debug)]
pub struct Encoder<'a> {
    ctx: &'a CkksContext,
}

impl<'a> Encoder<'a> {
    /// Borrows the context's encoder tables.
    pub fn new(ctx: &'a CkksContext) -> Self {
        Encoder { ctx }
    }

    /// Number of slots (`N/2`).
    #[inline]
    pub fn slots(&self) -> usize {
        self.ctx.n() / 2
    }

    /// Encodes real values at the top level with the default scale.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::TooManySlots`] if more than `N/2` values are
    /// given.
    pub fn encode(&self, values: &[f64]) -> Result<Plaintext, CkksError> {
        self.encode_at(values, self.ctx.q_len() - 1, self.ctx.params().scale())
    }

    /// Encodes real values at a chosen level and scale.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::TooManySlots`] on overflow or
    /// [`CkksError::Mismatch`] for an out-of-range level.
    pub fn encode_at(
        &self,
        values: &[f64],
        level: usize,
        scale: f64,
    ) -> Result<Plaintext, CkksError> {
        let complex: Vec<Complex64> = values.iter().map(|&v| Complex64::new(v, 0.0)).collect();
        self.encode_complex_at(&complex, level, scale)
    }

    /// Encodes complex values at a chosen level and scale.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Encoder::encode_at`], plus
    /// [`CkksError::EncodingOverflow`] if a scaled coefficient is
    /// non-finite or does not fit 62 bits.
    pub fn encode_complex_at(
        &self,
        values: &[Complex64],
        level: usize,
        scale: f64,
    ) -> Result<Plaintext, CkksError> {
        self.check(values.len(), level)?;
        let coeffs = self.quantized(values, scale)?;
        self.plaintext(&coeffs, level, scale)
    }

    /// The NTT-domain images of `values` encoded at `scale` on the context's
    /// channels `channels` (indices into `Q ∪ P`, such as a linear layer's
    /// `Q_level ∪ P`): one transform each, counted as `ckks.encode.forward`.
    /// On a `Q` channel the image is [`Encoder::encode_complex_at`]'s, bit
    /// for bit.
    pub(crate) fn encode_images(
        &self,
        values: &[Complex64],
        channels: &[usize],
        scale: f64,
    ) -> Result<Vec<Vec<u64>>, CkksError> {
        self.check_slots(values.len())?;
        let coeffs = self.quantized(values, scale)?;
        let images = channels
            .iter()
            .map(|&c| {
                let m = self.ctx.rns().moduli()[c];
                let mut image: Vec<u64> = coeffs.iter().map(|&x| m.from_i64(x)).collect();
                self.ctx.table(c).forward(&mut image);
                image
            })
            .collect();
        telemetry::count_named("ckks.encode.forward", channels.len() as u64);
        Ok(images)
    }

    /// The `N` integer coefficients `values` encode to at `scale`.
    fn quantized(&self, values: &[Complex64], scale: f64) -> Result<Vec<i64>, CkksError> {
        let slots = self.slots();
        // w = V⁻¹z by the inverse special FFT; the real parts are the lower
        // half of the coefficients and the imaginary parts the upper half.
        let mut w = vec![Complex64::default(); slots];
        w[..values.len()].copy_from_slice(values);
        self.ctx.codec().special_ifft_unscaled(&mut w);
        let unit = scale / slots as f64;
        let mut coeffs = vec![0i64; 2 * slots];
        let (lo, hi) = coeffs.split_at_mut(slots);
        for ((re, im), z) in lo.iter_mut().zip(hi).zip(&w) {
            *re = quantize(z.re * unit)?;
            *im = quantize(z.im * unit)?;
        }
        Ok(coeffs)
    }

    fn check_slots(&self, provided: usize) -> Result<(), CkksError> {
        let available = self.slots();
        if provided > available {
            return Err(CkksError::TooManySlots { provided, available });
        }
        Ok(())
    }

    fn check(&self, provided: usize, level: usize) -> Result<(), CkksError> {
        self.check_slots(provided)?;
        if level >= self.ctx.q_len() {
            return Err(CkksError::Mismatch { detail: format!("level {level} out of range") });
        }
        Ok(())
    }

    fn plaintext(&self, coeffs: &[i64], level: usize, scale: f64) -> Result<Plaintext, CkksError> {
        let poly = RnsPoly::from_signed(coeffs, self.ctx.n(), self.ctx.level_moduli(level));
        self.transformed(poly, level, scale)
    }

    /// The plaintext of a coefficient-domain `poly`: `level + 1` channel
    /// transforms, counted as `ckks.encode.forward` — `ckks.ntt.forward` is
    /// the evaluator's tally, which the model charges; an encode is the
    /// caller's.
    fn transformed(
        &self,
        mut poly: RnsPoly,
        level: usize,
        scale: f64,
    ) -> Result<Plaintext, CkksError> {
        poly.to_ntt(self.ctx.level_tables(level))?;
        telemetry::count_named("ckks.encode.forward", level as u64 + 1);
        Ok(Plaintext::from_parts(poly, level, scale))
    }

    /// The centered coefficients of `pt` as `f64`; its structure is
    /// validated against this context before the polynomial is cloned.
    fn coefficients(&self, pt: &Plaintext) -> Result<Vec<f64>, CkksError> {
        let level = pt.level();
        if level >= self.ctx.q_len() || pt.poly().num_channels() != level + 1 {
            return Err(CkksError::Mismatch {
                detail: "plaintext channels disagree with its level".into(),
            });
        }
        let mut poly = pt.poly().clone();
        if poly.domain() == Domain::Ntt {
            poly.to_coeff(self.ctx.level_tables(level))?;
        }
        Ok(self.ctx.centered_coefficients(&poly, level))
    }

    /// Decodes a plaintext into real slot values (imaginary parts are
    /// discarded; use [`Encoder::decode_complex`] to keep them).
    ///
    /// # Errors
    ///
    /// Propagates [`Encoder::decode_complex`] errors.
    pub fn decode(&self, pt: &Plaintext) -> Result<Vec<f64>, CkksError> {
        Ok(self.decode_complex(pt)?.into_iter().map(|z| z.re).collect())
    }

    /// Decodes a plaintext into complex slot values.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::Mismatch`] if the plaintext structure is
    /// inconsistent with this context.
    pub fn decode_complex(&self, pt: &Plaintext) -> Result<Vec<Complex64>, CkksError> {
        let coeffs = self.coefficients(pt)?;
        let (lo, hi) = coeffs.split_at(self.slots());
        let inv_scale = 1.0 / pt.scale();
        let mut out: Vec<Complex64> = lo
            .iter()
            .zip(hi)
            .map(|(&re, &im)| Complex64::new(re * inv_scale, im * inv_scale))
            .collect();
        self.ctx.codec().special_fft(&mut out);
        Ok(out)
    }

    /// Direct `O(N·slots)` encoding — the reference the FFT path is tested
    /// against.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Encoder::encode_complex_at`].
    pub fn encode_direct_at(
        &self,
        values: &[Complex64],
        level: usize,
        scale: f64,
    ) -> Result<Plaintext, CkksError> {
        self.check(values.len(), level)?;
        let codec = self.ctx.codec();
        let n = self.ctx.n();
        let mut coeffs = vec![0i64; n];
        for (i, c) in coeffs.iter_mut().enumerate() {
            let mut acc = Complex64::default();
            for (&z, &g) in values.iter().zip(&codec.rot_group) {
                acc = acc.add(z.mul(codec.root_powers[(i * g) % (2 * n)].conj()));
            }
            *c = quantize(acc.re * 2.0 / n as f64 * scale)?;
        }
        self.plaintext(&coeffs, level, scale)
    }

    /// Direct `O(N·slots)` decoding — the reference the FFT path is tested
    /// against.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Encoder::decode_complex`].
    pub fn decode_direct(&self, pt: &Plaintext) -> Result<Vec<Complex64>, CkksError> {
        let coeffs = self.coefficients(pt)?;
        let codec = self.ctx.codec();
        let two_n = 2 * self.ctx.n();
        let mut out = Vec::with_capacity(self.slots());
        for &g in &codec.rot_group {
            let mut acc = Complex64::default();
            for (i, &c) in coeffs.iter().enumerate() {
                acc = acc.add(codec.root_powers[(i * g) % two_n].mul(Complex64::new(c, 0.0)));
            }
            out.push(Complex64::new(acc.re / pt.scale(), acc.im / pt.scale()));
        }
        Ok(out)
    }

    /// Encodes a single constant replicated across all slots — cheaper than
    /// the general path (constant polynomial).
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::Mismatch`] for an out-of-range level.
    pub fn encode_constant_at(
        &self,
        value: f64,
        level: usize,
        scale: f64,
    ) -> Result<Plaintext, CkksError> {
        self.check(0, level)?;
        let n = self.ctx.n();
        let w = value * scale;
        let poly = if w.abs() < 9.0e18 {
            RnsPoly::from_signed(&[w.round() as i64], n, self.ctx.level_moduli(level))
        } else {
            // Large scaled constants (bootstrap polynomial coefficients)
            // exceed i64; split |w| = hi·2^62 + lo and reduce per channel.
            let sign = w < 0.0;
            let a = w.abs();
            let hi = (a / 4.611686018427388e18).floor(); // 2^62
            let lo = a - hi * 4.611686018427388e18;
            let channels = self
                .ctx
                .level_moduli(level)
                .iter()
                .map(|&m| {
                    let two62 = m.reduce_u128(1u128 << 62);
                    let r = m.mul_add(m.reduce(hi as u64), two62, m.reduce(lo as u64));
                    let r = if sign { m.neg(r) } else { r };
                    let mut vals = vec![0u64; n];
                    vals[0] = r;
                    fhe_math::Poly::from_coeffs(vals, m).expect("canonical")
                })
                .collect::<Vec<_>>();
            RnsPoly::from_channels(channels).expect("uniform channels")
        };
        self.transformed(poly, level, scale)
    }
}

/// Reference slot rotation used by tests: `rotate(v, 1)` maps slot `j+1`
/// into slot `j` (matching the `X ↦ X^5` automorphism direction).
pub fn rotate_slots_reference(values: &[f64], by: usize) -> Vec<f64> {
    let len = values.len();
    (0..len).map(|j| values[(j + by) % len]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CkksParams;

    fn ctx() -> CkksContext {
        CkksContext::new(CkksParams::toy().unwrap()).unwrap()
    }

    #[test]
    fn encode_decode_round_trip() {
        let c = ctx();
        let enc = Encoder::new(&c);
        let values = vec![0.5, -1.25, 3.0, 0.0, 2.625, -3.5];
        let pt = enc.encode(&values).unwrap();
        let back = enc.decode(&pt).unwrap();
        for (i, &v) in values.iter().enumerate() {
            assert!((back[i] - v).abs() < 1e-6, "slot {i}: {} vs {v}", back[i]);
        }
        // Unfilled slots decode to ~0.
        assert!(back[values.len()..].iter().all(|&v| v.abs() < 1e-6));
    }

    #[test]
    fn complex_round_trip() {
        let c = ctx();
        let enc = Encoder::new(&c);
        let values = vec![Complex64::new(1.0, -2.0), Complex64::new(-0.5, 0.25)];
        let pt = enc.encode_complex_at(&values, c.q_len() - 1, c.params().scale()).unwrap();
        let back = enc.decode_complex(&pt).unwrap();
        for (i, v) in values.iter().enumerate() {
            assert!((back[i].re - v.re).abs() < 1e-6);
            assert!((back[i].im - v.im).abs() < 1e-6);
        }
    }

    #[test]
    fn automorphism_five_rotates_slots() {
        let c = ctx();
        let enc = Encoder::new(&c);
        let slots = enc.slots();
        let values: Vec<f64> = (0..slots).map(|j| j as f64 - 3.0).collect();
        let pt = enc.encode(&values).unwrap();
        let mut poly = pt.poly().clone();
        poly.to_coeff(c.level_tables(pt.level())).unwrap();
        let rotated = poly.automorphism(5).unwrap();
        let pt_rot = Plaintext::from_parts(rotated, pt.level(), pt.scale());
        let back = enc.decode(&pt_rot).unwrap();
        let expected = rotate_slots_reference(&values, 1);
        for j in 0..slots {
            assert!((back[j] - expected[j]).abs() < 1e-6, "slot {j}");
        }
    }

    #[test]
    fn conjugation_automorphism() {
        let c = ctx();
        let enc = Encoder::new(&c);
        let values = vec![Complex64::new(0.5, 1.5)];
        let pt = enc.encode_complex_at(&values, c.q_len() - 1, c.params().scale()).unwrap();
        let mut poly = pt.poly().clone();
        poly.to_coeff(c.level_tables(pt.level())).unwrap();
        let conj = poly.automorphism(2 * c.n() - 1).unwrap();
        let back =
            enc.decode_complex(&Plaintext::from_parts(conj, pt.level(), pt.scale())).unwrap();
        assert!((back[0].re - 0.5).abs() < 1e-6);
        assert!((back[0].im + 1.5).abs() < 1e-6);
    }

    #[test]
    fn constant_encoding() {
        let c = ctx();
        let enc = Encoder::new(&c);
        let pt = enc.encode_constant_at(2.5, 1, c.params().scale()).unwrap();
        let back = enc.decode(&pt).unwrap();
        assert!(back.iter().all(|&v| (v - 2.5).abs() < 1e-6));
    }

    #[test]
    fn fft_paths_match_direct_reference() {
        let c = ctx();
        let enc = Encoder::new(&c);
        let slots = enc.slots();
        let values: Vec<Complex64> = (0..slots)
            .map(|j| Complex64::new((j as f64 * 0.37).sin() * 3.0, (j as f64 * 0.11).cos()))
            .collect();
        let level = c.q_len() - 1;
        let scale = c.params().scale();
        let via_fft = enc.encode_complex_at(&values, level, scale).unwrap();
        let via_direct = enc.encode_direct_at(&values, level, scale).unwrap();
        // Coefficients may differ by ±1 integer unit from f64 rounding.
        let mut a = via_fft.poly().clone();
        let mut b = via_direct.poly().clone();
        a.to_coeff(c.level_tables(level)).unwrap();
        b.to_coeff(c.level_tables(level)).unwrap();
        let m = c.rns().moduli()[0];
        for i in 0..c.n() {
            let d = (m.to_centered(a.channel(0).coeffs()[i])
                - m.to_centered(b.channel(0).coeffs()[i]))
            .abs();
            assert!(d <= 1, "coeff {i} differs by {d}");
        }
        // Decode paths agree to floating precision.
        let d_fft = enc.decode_complex(&via_direct).unwrap();
        let d_direct = enc.decode_direct(&via_direct).unwrap();
        for j in 0..slots {
            assert!((d_fft[j].re - d_direct[j].re).abs() < 1e-7);
            assert!((d_fft[j].im - d_direct[j].im).abs() < 1e-7);
        }
    }

    #[test]
    fn slot_overflow_rejected() {
        let c = ctx();
        let enc = Encoder::new(&c);
        let too_many = vec![1.0; enc.slots() + 1];
        assert!(matches!(enc.encode(&too_many), Err(CkksError::TooManySlots { .. })));
    }

    #[test]
    fn unencodable_slots_are_a_typed_error() {
        let c = ctx();
        let enc = Encoder::new(&c);
        for bad in [f64::NAN, f64::INFINITY, 1e30] {
            for r in [
                enc.encode(&[bad, 1.0]),
                enc.encode_direct_at(&[Complex64::new(1.0, bad)], 0, c.params().scale()),
            ] {
                assert!(matches!(r, Err(CkksError::EncodingOverflow { .. })), "{bad}: {r:?}");
            }
        }
        // The largest encodable magnitude is untouched by the guard.
        let big = 2f64.powi(61) / c.params().scale();
        let back = enc.decode(&enc.encode(&[big]).unwrap()).unwrap();
        assert!((back[0] / big - 1.0).abs() < 1e-9);
    }

    #[test]
    fn special_fft_evaluates_at_the_rot_group_roots() {
        // Below the smallest ring `CkksParams` accepts, on the tables alone.
        for n in [8usize, 16, 64] {
            let t = CodecTables::new(n);
            let w: Vec<Complex64> = (0..n / 2)
                .map(|i| Complex64::new((i as f64 * 0.7).sin(), (i as f64 * 1.3).cos()))
                .collect();
            let mut fast = w.clone();
            t.special_fft(&mut fast);
            for (j, &g) in t.rot_group.iter().enumerate() {
                let mut want = Complex64::default();
                for (i, &wi) in w.iter().enumerate() {
                    want = want.add(wi.mul(t.root_powers[(i * g) % (2 * n)]));
                }
                assert!(fast[j].sub(want).abs() < 1e-12, "n={n} slot {j}");
            }
            t.special_ifft_unscaled(&mut fast);
            for (f, wi) in fast.iter().zip(&w) {
                assert!(
                    Complex64::new(f.re * 2.0 / n as f64, f.im * 2.0 / n as f64).sub(*wi).abs()
                        < 1e-12
                );
            }
        }
    }
}
