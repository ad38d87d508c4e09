//! Word-sized modular arithmetic with Barrett and Shoup multiplication.
//!
//! This is the scalar arithmetic the Alchemist core performs in hardware:
//! plain multiplies and adds accumulated *lazily* in wide registers, with a
//! single Barrett reduction at the end of a Meta-OP — the reduction itself
//! being two more multiplications on the reused multiplier array
//! (paper §5.2, Fig. 5d). [`Modulus::reduce_u128`] is exactly that: one
//! Shoup product folds the high word, one 64-bit Barrett estimate the low
//! word (DESIGN.md §14.1).
//!
//! The canonical `add` / `sub` / `neg` / `mul_shoup` / `reduce_2q` settle
//! their result with a `min` ([`crate::simd`]'s `csub`), never an `if`: on
//! residues the comparison is a coin toss, and these inline into the key
//! generation, encryption and key-switch loops (DESIGN.md §14.2).

use crate::simd::{csub, mul_shoup_lazy, sub_mod};
use crate::MathError;

/// Maximum supported modulus width in bits.
///
/// With `q < 2^61`, a product is below `2^122` and a lazy sum of up to
/// `j = 8` (even up to 64) products still fits in a `u128` accumulator, which
/// mirrors the paper's lazy-reduction argument for the Meta-OP.
///
/// The bound also guarantees that [`Modulus::add`] cannot wrap: the sum of
/// two canonical operands stays below `2^62`, so plain `u64` addition is
/// exact. Widening the limit past 63 bits would silently reintroduce that
/// overflow — [`Modulus::new`] rejects such moduli with an explicit
/// [`MathError::InvalidModulus`] instead.
pub const MAX_MODULUS_BITS: u32 = 61;

/// A prime (or at least odd) modulus `q < 2^61` with precomputed reduction
/// constants.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), fhe_math::MathError> {
/// let q = fhe_math::Modulus::new(0x7fffffff)?; // 2^31 - 1
/// let a = q.mul(123456789, 987654321);
/// assert_eq!(a, (123456789u128 * 987654321u128 % 0x7fffffffu128) as u64);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Modulus {
    value: u64,
    /// `2^64 mod q` in Shoup form: folds the high word of a 128-bit value.
    two64: ShoupScalar,
    /// `⌊2^64 / q⌋`, the 64-bit Barrett constant for the low word.
    barrett: u64,
}

impl Modulus {
    /// Creates a modulus with precomputed reduction constants.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::InvalidModulus`] if `value < 2`, `value` is even
    /// (all FHE moduli here are odd primes), or `value ≥ 2^61`.
    pub fn new(value: u64) -> Result<Self, MathError> {
        if value < 2 {
            return Err(MathError::InvalidModulus { value, reason: "must be at least 2" });
        }
        if value.is_multiple_of(2) {
            return Err(MathError::InvalidModulus { value, reason: "must be odd" });
        }
        let bits = 64 - value.leading_zeros();
        if bits > MAX_MODULUS_BITS {
            return Err(MathError::InvalidModulus {
                value,
                reason: "wider than 61 bits; lazy accumulation and the overflow-free \
                         `add` (a + b < 2^62) invariants would break",
            });
        }
        let two64 = ((1u128 << 64) % u128::from(value)) as u64;
        let two64 = ShoupScalar {
            value: two64,
            quotient: ((u128::from(two64) << 64) / u128::from(value)) as u64,
        };
        Ok(Modulus { value, two64, barrett: ((1u128 << 64) / u128::from(value)) as u64 })
    }

    /// The modulus value `q`.
    #[inline]
    pub fn value(&self) -> u64 {
        self.value
    }

    /// Bit width of `q`.
    #[inline]
    pub fn bits(&self) -> u32 {
        64 - self.value.leading_zeros()
    }

    /// Reduces an arbitrary `u64` into `[0, q)`: the low-word half of
    /// [`Modulus::reduce_u128`].
    #[inline]
    pub fn reduce(&self, a: u64) -> u64 {
        csub(self.barrett_lazy(a), self.value)
    }

    /// `a mod q` up to one multiple of `q` (`[0, 2q)`): the Barrett
    /// estimate `⌊a·⌊2^64/q⌋ / 2^64⌋` is at most one short of `⌊a/q⌋`.
    #[inline(always)]
    fn barrett_lazy(&self, a: u64) -> u64 {
        let qhat = ((u128::from(a) * u128::from(self.barrett)) >> 64) as u64;
        a - qhat * self.value
    }

    /// Reduces any 128-bit value into `[0, q)`, exactly.
    ///
    /// This is the `R` step of the Meta-OP in two wide multiplications.
    /// With `a = hi·2^64 + lo`, the high word is folded as `hi·(2^64 mod q)`
    /// by a lazy Shoup product and the low word by a 64-bit Barrett
    /// estimate `⌊lo·⌊2^64/q⌋ / 2^64⌋`, which is short of `⌊lo/q⌋` by at
    /// most one. Both parts land in `[0, 2q)`, so their sum is below
    /// `4q < 2^63` and two conditional subtractions (`2q`, then `q`)
    /// finish it.
    #[inline]
    pub fn reduce_u128(&self, a: u128) -> u64 {
        let high = mul_shoup_lazy((a >> 64) as u64, self.two64, self.value);
        csub(csub(high + self.barrett_lazy(a as u64), self.value << 1), self.value)
    }

    /// Modular addition of canonical operands.
    ///
    /// `a + b` is computed in plain `u64`: the `MAX_MODULUS_BITS` bound
    /// enforced by [`Modulus::new`] keeps the sum of two canonical operands
    /// below `2^62`, so the addition can never wrap. Non-canonical operands
    /// (which *could* overflow for wide moduli) violate the contract below.
    ///
    /// # Panics
    ///
    /// Panics, in every build profile, if either operand is `≥ q`.
    #[inline]
    pub fn add(&self, a: u64, b: u64) -> u64 {
        assert!(
            a < self.value && b < self.value,
            "non-canonical operands to Modulus::add: a={a} b={b} q={}",
            self.value
        );
        csub(a + b, self.value)
    }

    /// Modular subtraction of canonical operands.
    ///
    /// # Panics
    ///
    /// Panics, in every build profile, if either operand is `≥ q`.
    #[inline]
    pub fn sub(&self, a: u64, b: u64) -> u64 {
        assert!(
            a < self.value && b < self.value,
            "non-canonical operands to Modulus::sub: a={a} b={b} q={}",
            self.value
        );
        sub_mod(a, b, self.value)
    }

    /// Modular negation of a canonical operand.
    ///
    /// # Panics
    ///
    /// Panics, in every build profile, if `a ≥ q`.
    #[inline]
    pub fn neg(&self, a: u64) -> u64 {
        assert!(a < self.value, "non-canonical operand to Modulus::neg: a={a}");
        csub(self.value - a, self.value)
    }

    /// Modular multiplication via Barrett reduction.
    #[inline]
    pub fn mul(&self, a: u64, b: u64) -> u64 {
        self.reduce_u128(a as u128 * b as u128)
    }

    /// Fused multiply-add `a*b + c mod q`.
    #[inline]
    pub fn mul_add(&self, a: u64, b: u64, c: u64) -> u64 {
        self.reduce_u128(a as u128 * b as u128 + c as u128)
    }

    /// Modular exponentiation by squaring.
    pub fn pow(&self, mut base: u64, mut exp: u64) -> u64 {
        base = self.reduce(base);
        let mut acc = 1u64;
        while exp > 0 {
            if exp & 1 == 1 {
                acc = self.mul(acc, base);
            }
            base = self.mul(base, base);
            exp >>= 1;
        }
        acc
    }

    /// Modular inverse via Fermat's little theorem (valid for prime `q`).
    ///
    /// # Errors
    ///
    /// Returns [`MathError::NotInvertible`] if `a ≡ 0 (mod q)` or the
    /// computed inverse fails verification (non-prime modulus).
    pub fn inv(&self, a: u64) -> Result<u64, MathError> {
        let a = self.reduce(a);
        if a == 0 {
            return Err(MathError::NotInvertible { value: a, modulus: self.value });
        }
        let inv = self.pow(a, self.value - 2);
        if self.mul(a, inv) != 1 {
            return Err(MathError::NotInvertible { value: a, modulus: self.value });
        }
        Ok(inv)
    }

    /// Precomputes a Shoup representation of `w` for repeated products
    /// `a * w mod q` — the fast path NTT butterflies use for twiddles.
    ///
    /// # Panics
    ///
    /// Panics, in every build profile, if `w ≥ q`: the quotient of a
    /// non-canonical `w` would make every subsequent [`Modulus::mul_shoup`]
    /// silently wrong.
    #[inline]
    pub fn shoup(&self, w: u64) -> ShoupScalar {
        assert!(w < self.value, "non-canonical operand to Modulus::shoup: w={w} q={}", self.value);
        ShoupScalar { value: w, quotient: (((w as u128) << 64) / self.value as u128) as u64 }
    }

    /// Shoup modular multiplication `a * w mod q` with `w` precomputed.
    ///
    /// The canonical-form bound on `a` stays a `debug_assert!`: this is the
    /// butterfly inner loop, called `n log n` times per NTT, and the Shoup
    /// quotient precomputed by [`Modulus::shoup`] is only valid for
    /// canonical `a` anyway — the release-mode check lives at that boundary.
    #[inline]
    pub fn mul_shoup(&self, a: u64, w: ShoupScalar) -> u64 {
        debug_assert!(a < self.value);
        csub(mul_shoup_lazy(a, w, self.value), self.value)
    }

    /// Lazy Shoup multiplication: returns a value in `[0, 2q)` congruent to
    /// `a * w mod q`, for *any* `u64` operand `a` (Harvey's bound — the
    /// quotient estimate errs by at most one multiple of `q`).
    ///
    /// This is the butterfly primitive of the lazy NTT (DESIGN.md §14):
    /// skipping the final conditional subtraction keeps the dependency chain
    /// one step shorter, and because it tolerates non-canonical inputs the
    /// NTT can carry `[0, 2q)`/`[0, 4q)` values across layers with a single
    /// normalization at the end.
    #[inline]
    pub fn mul_shoup_lazy(&self, a: u64, w: ShoupScalar) -> u64 {
        mul_shoup_lazy(a, w, self.value)
    }

    /// Canonicalizes a lazy `[0, 2q)` value with one conditional
    /// subtraction.
    ///
    /// # Panics
    ///
    /// Panics, in every build profile, if `a ≥ 2q`.
    #[inline]
    pub fn reduce_2q(&self, a: u64) -> u64 {
        assert!(
            a < self.value << 1,
            "operand to Modulus::reduce_2q outside [0, 2q): a={a} q={}",
            self.value
        );
        csub(a, self.value)
    }

    /// Converts any `i64` to its canonical residue. Inputs are almost
    /// always in `(-q, q)`, which costs one well-predicted compare and no
    /// division.
    #[inline]
    pub fn from_i64(&self, a: i64) -> u64 {
        if a.unsigned_abs() < self.value {
            // `a + q` for negatives, `a` otherwise; a mask rather than a
            // second branch, which random signs would mispredict.
            (a as u64).wrapping_add(self.value & ((a >> 63) as u64))
        } else {
            self.reduce_wide_i64(a)
        }
    }

    /// [`from_i64`](Self::from_i64) for `|a| ≥ q`: a software 128-bit
    /// division, kept out of line so the common path inlines small.
    #[cold]
    #[inline(never)]
    fn reduce_wide_i64(&self, a: i64) -> u64 {
        let q = self.value as i128;
        let mut v = a as i128 % q;
        if v < 0 {
            v += q;
        }
        v as u64
    }

    /// Maps a canonical residue to its centered representative in
    /// `[-⌊q/2⌋, ⌊q/2⌋]` (symmetric for odd `q`: residues up to `⌊q/2⌋`
    /// map to themselves, `⌊q/2⌋ + 1` maps to `-⌊q/2⌋`).
    ///
    /// # Panics
    ///
    /// Panics, in every build profile, if `a ≥ q`.
    #[inline]
    pub fn to_centered(&self, a: u64) -> i64 {
        assert!(
            a < self.value,
            "non-canonical operand to Modulus::to_centered: a={a} q={}",
            self.value
        );
        if a > self.value / 2 {
            a as i64 - self.value as i64
        } else {
            a as i64
        }
    }
}

/// A value together with its Shoup quotient, enabling one-multiplication
/// modular products against a fixed operand.
///
/// `repr(C)`: the IFMA NTT reads a run of table entries as words, value
/// then quotient.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[repr(C)]
pub struct ShoupScalar {
    /// The canonical value `w < q`.
    pub value: u64,
    /// `floor(w * 2^64 / q)`.
    pub quotient: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    const Q36: u64 = 68_719_403_009; // 36-bit NTT prime (q ≡ 1 mod 2^17)
    const Q60: u64 = 1_152_921_504_606_830_593; // 60-bit NTT prime

    #[test]
    fn rejects_bad_moduli() {
        assert!(Modulus::new(0).is_err());
        assert!(Modulus::new(1).is_err());
        assert!(Modulus::new(4).is_err());
        assert!(Modulus::new(1 << 62).is_err());
        assert!(Modulus::new((1 << 62) + 1).is_err());
    }

    #[test]
    fn barrett_matches_u128_remainder() {
        for &q in &[3u64, 17, 65537, Q36, Q60, (1u64 << 61) - 1] {
            let m = Modulus::new(q).unwrap();
            let samples = [
                0u128,
                1,
                q as u128 - 1,
                q as u128,
                q as u128 + 1,
                (q as u128) * (q as u128) - 1,
                u128::from(u64::MAX),
                0x1234_5678_9abc_def0_1122_3344_5566_7788,
            ];
            for &x in &samples {
                assert_eq!(m.reduce_u128(x), (x % q as u128) as u64, "q={q} x={x}");
            }
        }
    }

    #[test]
    fn mul_add_sub_neg_consistency() {
        let m = Modulus::new(Q36).unwrap();
        let a = 0x123456789u64 % Q36;
        let b = 0xabcdef123u64 % Q36;
        assert_eq!(m.add(a, m.neg(a)), 0);
        assert_eq!(m.sub(m.add(a, b), b), a);
        assert_eq!(m.mul(a, b), (a as u128 * b as u128 % Q36 as u128) as u64);
        assert_eq!(m.mul_add(a, b, 7), ((a as u128 * b as u128 + 7) % Q36 as u128) as u64);
    }

    #[test]
    fn pow_and_inv() {
        let m = Modulus::new(Q36).unwrap();
        assert_eq!(m.pow(3, 0), 1);
        assert_eq!(m.pow(3, 1), 3);
        assert_eq!(m.pow(2, 36), (1u128 << 36) as u64 % Q36);
        let inv3 = m.inv(3).unwrap();
        assert_eq!(m.mul(3, inv3), 1);
        assert!(m.inv(0).is_err());
    }

    #[test]
    fn shoup_matches_barrett() {
        let m = Modulus::new(Q60).unwrap();
        let w = Q60 - 12345;
        let ws = m.shoup(w);
        for a in [0u64, 1, 2, Q60 / 2, Q60 - 1] {
            assert_eq!(m.mul_shoup(a, ws), m.mul(a, w));
        }
    }

    #[test]
    fn centered_round_trip() {
        let m = Modulus::new(65537).unwrap();
        for v in [-32768i64, -1, 0, 1, 32768] {
            assert_eq!(m.to_centered(m.from_i64(v)), v);
        }
    }

    #[test]
    fn centered_boundary_is_symmetric() {
        // Odd q: the centered range is [-⌊q/2⌋, ⌊q/2⌋]. ⌊q/2⌋ keeps its
        // sign, ⌊q/2⌋ + 1 flips to the most-negative representative.
        for &q in &[3u64, 65537, Q36, (1u64 << 61) - 1] {
            let m = Modulus::new(q).unwrap();
            let half = q / 2;
            assert_eq!(m.to_centered(half), half as i64, "q={q}");
            assert_eq!(m.to_centered(half + 1), -(half as i64), "q={q}");
            assert_eq!(m.to_centered(0), 0, "q={q}");
            assert_eq!(m.to_centered(q - 1), -1, "q={q}");
        }
    }

    #[test]
    fn add_at_max_modulus_never_wraps() {
        // Satellite: a + b could wrap u64 for moduli ≥ 2^63; the 61-bit
        // bound in Modulus::new keeps canonical sums below 2^62. Exercise
        // the largest representable modulus with the largest operands.
        let q = (1u64 << 61) - 1; // Mersenne prime 2^61 - 1
        let m = Modulus::new(q).unwrap();
        assert_eq!(m.add(q - 1, q - 1), q - 2);
        assert_eq!(m.add(q - 1, 1), 0);
        assert_eq!(m.sub(0, q - 1), 1);
        assert_eq!(m.neg(q - 1), 1);
    }

    #[test]
    #[should_panic(expected = "non-canonical operands to Modulus::add")]
    fn add_rejects_non_canonical_operands_in_release() {
        let m = Modulus::new(Q36).unwrap();
        // A `debug_assert!` here would let release builds silently compute
        // a wrong (or for huge operands, wrapped) sum.
        let _ = m.add(Q36, 0);
    }
}
