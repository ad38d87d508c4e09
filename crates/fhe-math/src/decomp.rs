//! Gadget / digit decomposition.
//!
//! Both FHE families decompose large values into small digits before
//! multiplying with key material, bounding noise growth:
//!
//! * TFHE decomposes torus elements into `l_b` balanced base-`2^w` digits
//!   ([`SignedDigitDecomposer`]) before the TRGSW external product — this is
//!   the `lb = 2, 3, 4` axis of the paper's Meta-OP parameter space — and
//!   before every LWE key switch. One digit rule serves both entry points
//!   (one value, one polynomial): the sign of each digit is settled by a
//!   compare folded into the carry, not by a branch, since on torus data
//!   it is a coin toss (DESIGN.md §14.2); the polynomial form runs it level
//!   by level, one straight pass over the coefficients per digit.
//! * CKKS hybrid key switching groups the RNS channels into `dnum` digits
//!   ([`Gadget`]) that are individually modup-ed and multiplied with
//!   evaluation keys (the paper's `DecompPolyMult` with `n = dnum`).

use crate::{MathError, Modulus};

/// Balanced signed base-`2^base_log` decomposition of 64-bit torus values.
///
/// A value `t` is approximated as `Σ_{j=0}^{l-1} d_j · 2^{64-(j+1)·w}` with
/// digits `d_j ∈ [-2^{w-1}, 2^{w-1})`; the approximation error is at most
/// `2^{63 - l·w}` in absolute value.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), fhe_math::MathError> {
/// use fhe_math::SignedDigitDecomposer;
/// let d = SignedDigitDecomposer::new(8, 4)?;
/// let t = 0x1234_5678_9abc_def0u64;
/// let digits = d.decompose(t);
/// let approx = d.recompose(&digits);
/// assert!(t.wrapping_sub(approx).min(approx.wrapping_sub(t)) <= 1 << 31);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignedDigitDecomposer {
    base_log: u32,
    levels: usize,
}

impl SignedDigitDecomposer {
    /// Creates a decomposer with digit width `base_log` bits and `levels`
    /// digits.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::InvalidParameter`] unless
    /// `1 ≤ base_log·levels ≤ 64` and `base_log ≤ 32`.
    pub fn new(base_log: u32, levels: usize) -> Result<Self, MathError> {
        let total = base_log as usize * levels;
        if base_log == 0 || base_log > 32 || levels == 0 || total > 64 {
            return Err(MathError::InvalidParameter {
                detail: format!(
                    "signed decomposition base_log={base_log} levels={levels} out of range"
                ),
            });
        }
        Ok(SignedDigitDecomposer { base_log, levels })
    }

    /// Digit width in bits.
    #[inline]
    pub fn base_log(&self) -> u32 {
        self.base_log
    }

    /// Number of digits.
    #[inline]
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Decomposes a torus value into balanced digits, most significant
    /// first (`digits[0]` scales `2^{64-w}`).
    pub fn decompose(&self, t: u64) -> Vec<i64> {
        let mut out = vec![0i64; self.levels];
        self.decompose_into(t, &mut out);
        out
    }

    /// [`decompose`](Self::decompose) into a caller-provided buffer — the
    /// allocation-free form for per-coefficient hot loops.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.levels()`.
    #[inline]
    pub fn decompose_into(&self, t: u64, out: &mut [i64]) {
        assert_eq!(out.len(), self.levels, "digit buffer must hold one digit per level");
        let mut state = self.rounded_top(t);
        for d in out.iter_mut().rev() {
            (*d, state) = self.digit(state);
        }
    }

    /// `t̂`: `t` rounded to its top `β·l` bits, as an integer in
    /// `[0, 2^{β·l})`. Digit `j` scales `2^{(l−1−j)·β}` of it.
    #[inline]
    fn rounded_top(&self, t: u64) -> u64 {
        let drop = 64 - self.base_log * self.levels as u32;
        match drop {
            0 => t,
            _ => t.wrapping_add(1 << (drop - 1)) >> drop,
        }
    }

    /// The digit rule, least significant digit first: splits the balanced
    /// low digit off `state` and returns it with the state the next digit
    /// reads. A low digit at or above `2^{β−1}` is `raw − 2^β` and carries
    /// one into the shifted state — a compare, never a branch, because on
    /// torus data the sign is a coin toss. The carry out of the top digit
    /// adds `2^64 ≡ 0` and is dropped with the last state.
    #[inline(always)]
    fn digit(&self, state: u64) -> (i64, u64) {
        let w = self.base_log;
        let raw = state & ((1 << w) - 1);
        let c = u64::from(raw >= 1 << (w - 1));
        (raw.wrapping_sub(c << w) as i64, (state >> w) + c)
    }

    /// Recomposes digits back into a torus value (wrapping arithmetic).
    ///
    /// # Panics
    ///
    /// Panics if `digits.len() != self.levels()`.
    pub fn recompose(&self, digits: &[i64]) -> u64 {
        assert_eq!(digits.len(), self.levels);
        let mut acc = 0u64;
        for (j, &d) in digits.iter().enumerate() {
            let scale = 64 - (j as u32 + 1) * self.base_log;
            acc = acc.wrapping_add((d as u64).wrapping_shl(scale));
        }
        acc
    }

    /// Worst-case recomposition error `2^{63 - l·w}` (0 when `l·w = 64`).
    #[inline]
    pub fn max_error(&self) -> u64 {
        let total = self.base_log * self.levels as u32;
        if total >= 64 {
            0
        } else {
            1u64 << (63 - total)
        }
    }

    /// Decomposes every coefficient of a torus polynomial, returning one
    /// signed polynomial per level (level-major layout).
    pub fn decompose_poly(&self, poly: &[u64]) -> Vec<Vec<i64>> {
        let n = poly.len();
        let mut flat = vec![0i64; self.levels * n];
        self.decompose_poly_into(poly, &mut flat);
        (0..self.levels).map(|j| flat[j * n..(j + 1) * n].to_vec()).collect()
    }

    /// [`decompose_poly`](Self::decompose_poly) into one flat level-major
    /// buffer: digit `j` of coefficient `i` lands at `out[j·n + i]`, so
    /// `out[j·n..(j+1)·n]` is the level-`j` signed polynomial.
    ///
    /// Level by level, least significant first: each coefficient's running
    /// state (`t̂`, then `t̂` shifted with its carry) lives in its level-0
    /// slot until the top digit overwrites it, so every pass is one
    /// straight loop over `n` coefficients with nothing to predict.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.levels() * poly.len()`.
    pub fn decompose_poly_into(&self, poly: &[u64], out: &mut [i64]) {
        let n = poly.len();
        assert_eq!(out.len(), self.levels * n, "digit buffer must hold levels × n digits");
        if n == 0 {
            return;
        }
        let (state, lower) = out.split_at_mut(n);
        for (s, &t) in state.iter_mut().zip(poly) {
            *s = self.rounded_top(t) as i64;
        }
        for level in lower.chunks_exact_mut(n).rev() {
            for (s, d) in state.iter_mut().zip(level) {
                let (digit, next) = self.digit(*s as u64);
                *d = digit;
                *s = next as i64;
            }
        }
        for s in state {
            *s = self.digit(*s as u64).0;
        }
    }

    /// The digits of `poly` lifted into `Z_q`, in
    /// [`decompose_poly_into`](Self::decompose_poly_into)'s level-major
    /// order: digit `j` of coefficient `i` becomes its canonical residue
    /// at `out[j·n + i]`. One pass per level, the same digit rule; a digit
    /// `d ∈ [−2^{β−1}, 2^{β−1})` lifts as `d + (q & (d >> 63))`, so nothing
    /// in the loop branches, and it runs on the lanes ([`crate::simd::wide`]).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.levels() * poly.len()` or `q < 2^{β−1}`.
    pub fn decompose_lift_into(&self, poly: &[u64], q: &Modulus, out: &mut [u64]) {
        let n = poly.len();
        assert_eq!(out.len(), self.levels * n, "residue buffer must hold levels × n residues");
        let (d, q) = (*self, q.value());
        assert!(
            q >= 1 << (d.base_log - 1),
            "base-2^{} digits do not lift below q = {q}",
            d.base_log
        );
        let lift = move |digit: i64| (digit + (q as i64 & (digit >> 63))) as u64;
        crate::simd::wide(
            #[inline(always)]
            move || {
                let (state, lower) = out.split_at_mut(n);
                for (s, &t) in state.iter_mut().zip(poly) {
                    *s = d.rounded_top(t);
                }
                for level in lower.chunks_exact_mut(n).rev() {
                    for (s, r) in state.iter_mut().zip(level) {
                        let (digit, next) = d.digit(*s);
                        *r = lift(digit);
                        *s = next;
                    }
                }
                for s in state {
                    *s = lift(d.digit(*s).0);
                }
            },
        );
    }
}

/// CKKS hybrid key-switching digit grouping: splits `num_channels` RNS
/// channels into `dnum` contiguous digits of `alpha = ceil(len/dnum)`
/// channels each.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), fhe_math::MathError> {
/// use fhe_math::Gadget;
/// let g = Gadget::new(3)?;
/// let digits = g.split(7);
/// assert_eq!(digits, vec![vec![0, 1, 2], vec![3, 4, 5], vec![6]]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gadget {
    dnum: usize,
}

impl Gadget {
    /// Creates a gadget with `dnum` digits.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::InvalidParameter`] if `dnum == 0`.
    pub fn new(dnum: usize) -> Result<Self, MathError> {
        if dnum == 0 {
            return Err(MathError::InvalidParameter { detail: "dnum must be positive".into() });
        }
        Ok(Gadget { dnum })
    }

    /// The decomposition number.
    #[inline]
    pub fn dnum(&self) -> usize {
        self.dnum
    }

    /// Channels per full digit for a chain of `num_channels` channels.
    #[inline]
    pub fn alpha(&self, num_channels: usize) -> usize {
        num_channels.div_ceil(self.dnum)
    }

    /// Splits channel indices `0..num_channels` into at most `dnum`
    /// contiguous digit groups (the trailing digit may be shorter; digits
    /// beyond the available channels are omitted).
    pub fn split(&self, num_channels: usize) -> Vec<Vec<usize>> {
        let alpha = self.alpha(num_channels);
        (0..num_channels).collect::<Vec<_>>().chunks(alpha).map(|c| c.to_vec()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_invalid_configs() {
        assert!(SignedDigitDecomposer::new(0, 3).is_err());
        assert!(SignedDigitDecomposer::new(33, 1).is_err());
        assert!(SignedDigitDecomposer::new(16, 5).is_err());
        assert!(Gadget::new(0).is_err());
    }

    #[test]
    fn digits_are_balanced() {
        let d = SignedDigitDecomposer::new(7, 3).unwrap();
        for t in [0u64, 1, u64::MAX, 0x8000_0000_0000_0000, 0xdead_beef_0123_4567] {
            for &digit in &d.decompose(t) {
                assert!((-64..64).contains(&digit), "digit {digit} out of [-2^6, 2^6)");
            }
        }
    }

    #[test]
    fn recomposition_error_bounded() {
        let d = SignedDigitDecomposer::new(8, 4).unwrap();
        let bound = d.max_error();
        assert_eq!(bound, 1 << 31);
        let mut state = 0x12345u64;
        for _ in 0..200 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let approx = d.recompose(&d.decompose(state));
            let err = state.wrapping_sub(approx).min(approx.wrapping_sub(state));
            assert!(err <= bound, "error {err} exceeds bound {bound} for {state}");
        }
    }

    #[test]
    fn full_width_is_exact() {
        let d = SignedDigitDecomposer::new(16, 4).unwrap();
        assert_eq!(d.max_error(), 0);
        for t in [0u64, 1, u64::MAX, 0xdead_beef_cafe_babe] {
            assert_eq!(d.recompose(&d.decompose(t)), t);
        }
    }

    #[test]
    fn poly_decomposition_layout() {
        let d = SignedDigitDecomposer::new(8, 2).unwrap();
        let poly = vec![0u64, 1 << 56, 3 << 55];
        let levels = d.decompose_poly(&poly);
        assert_eq!(levels.len(), 2);
        assert_eq!(levels[0].len(), 3);
        // 1<<56 = 1 * 2^(64-8): top digit 1, bottom 0.
        assert_eq!(levels[0][1], 1);
        assert_eq!(levels[1][1], 0);
    }

    #[test]
    fn gadget_split_shapes() {
        let g = Gadget::new(4).unwrap();
        assert_eq!(g.alpha(8), 2);
        assert_eq!(g.split(8).len(), 4);
        assert_eq!(g.split(5), vec![vec![0, 1], vec![2, 3], vec![4]]);
        let g1 = Gadget::new(1).unwrap();
        assert_eq!(g1.split(3), vec![vec![0, 1, 2]]);
    }
}
