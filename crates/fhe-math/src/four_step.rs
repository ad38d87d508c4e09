//! The 4-step NTT: Alchemist's schedule of the negacyclic transform.
//!
//! The iterative NTT is "fully connected": every butterfly stage mixes
//! coefficients across the whole polynomial, which contradicts a
//! slot-partitioned memory layout. The 4-step schedule (paper §5.3) runs an
//! `N = n1·n2`-point transform, the polynomial read as an `n1 × n2` matrix
//! in row-major order, as
//!
//! 1. `n2` independent `n1`-point column transforms,
//! 2. an element-wise twiddle multiplication,
//! 3. a matrix transpose (on hardware: the transpose register file),
//! 4. `n1` independent `n2`-point row transforms,
//!
//! so each computing unit only ever runs *local* sub-transforms over the
//! slots it owns. The sub-transforms are negacyclic [`NttTable`]s — the
//! workspace's one radix-8/4 kernel, on the IFMA lanes from 16 points up —
//! on roots chosen so that the schedule computes the flat transform itself.
//!
//! # Ordering
//!
//! Let ψ be the root [`NttTable::new`]`(q, N)` finds. The column tables use
//! `ψ^{n2}`, the row tables `ψ^{n1}`, and position `(r, j2)` is multiplied
//! between them by `ψ^{j2·(2·brv(r)+1−n1)}` (`brv` over `log n1` bits).
//! Writing the output slot as `s = s1·n2 + s2`, the exponent of input
//! `i1·n2 + i2` in slot `s`, `(i1·n2 + i2)·(2·brv(s)+1)`, splits mod `2N`
//! into the column transform's, the twiddle's and the row transform's, so
//! [`FourStepNtt::forward`] leaves exactly [`NttTable::forward`]'s words in
//! its bit-reversed order, and [`FourStepNtt::inverse`] exactly
//! [`NttTable::inverse`]'s.

use crate::modulus::ShoupScalar;
use crate::ntt::{bit_reverse, transpose_into};
use crate::scratch::Scratch;
use crate::{MathError, Modulus, NttTable};

/// A 4-step negacyclic NTT of size `n = n1 * n2`, word for word equal to
/// `NttTable::new(q, n)`'s.
///
/// Outside the transposes each sub-transform is handed one contiguous
/// `chunks_exact_mut` slice — a column after the transpose, a row of the
/// row-major matrix — so the borrow checker proves that no sub-transform
/// touches another computing unit's slots (paper Fig. 5b, one unit per
/// row: `core::layout`).
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), fhe_math::MathError> {
/// use fhe_math::{generate_ntt_primes, FourStepNtt, Modulus, NttTable};
/// let q = Modulus::new(generate_ntt_primes(36, 256, 1)?[0])?;
/// let ntt = FourStepNtt::new(q, 16, 16)?;
/// let mut a: Vec<u64> = (0..256).collect();
/// let mut flat = a.clone();
/// ntt.forward(&mut a);
/// NttTable::new(q, 256)?.forward(&mut flat);
/// assert_eq!(a, flat);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FourStepNtt {
    n1: usize,
    n2: usize,
    /// The `n1`-point column transform, on `ψ^{n2}`.
    col: NttTable,
    /// The `n2`-point row transform, on `ψ^{n1}`.
    row: NttTable,
    /// `ψ^{j2·(2·brv(r)+1−n1)}` at `r·n2 + j2`, and its inverse.
    twiddle: Vec<ShoupScalar>,
    twiddle_inv: Vec<ShoupScalar>,
}

impl FourStepNtt {
    /// Builds a 4-step NTT with the given column (`n1`) and row (`n2`)
    /// dimensions.
    ///
    /// # Errors
    ///
    /// * [`MathError::InvalidDegree`] if `n1` or `n2` is not a power of two
    ///   of at least 8 (the smallest [`NttTable`]), or `n1*n2` exceeds
    ///   `2^17`.
    /// * [`MathError::NoNttSupport`] if the modulus lacks a `2n`-th root of
    ///   unity.
    pub fn new(modulus: Modulus, n1: usize, n2: usize) -> Result<Self, MathError> {
        for dim in [n1, n2] {
            if !dim.is_power_of_two() || dim < 8 {
                return Err(MathError::InvalidDegree { degree: dim });
            }
        }
        let n = n1 * n2;
        let psi = NttTable::find_psi(modulus, n)?;
        let col = NttTable::with_psi(modulus, n1, modulus.pow(psi, n2 as u64))?;
        let row = NttTable::with_psi(modulus, n2, modulus.pow(psi, n1 as u64))?;
        let two_n = 2 * n as u64;
        let mut twiddle = Vec::with_capacity(n);
        let mut twiddle_inv = Vec::with_capacity(n);
        for r in 0..n1 as u64 {
            let e = (2 * bit_reverse(r, n1.trailing_zeros()) + 1 + two_n - n1 as u64) % two_n;
            let (w, w_inv) = (modulus.pow(psi, e), modulus.pow(psi, two_n - e));
            let (mut p, mut p_inv) = (1u64, 1u64);
            for _ in 0..n2 {
                twiddle.push(modulus.shoup(p));
                twiddle_inv.push(modulus.shoup(p_inv));
                p = modulus.mul(p, w);
                p_inv = modulus.mul(p_inv, w_inv);
            }
        }
        Ok(FourStepNtt { n1, n2, col, row, twiddle, twiddle_inv })
    }

    /// Total transform size `n1 * n2`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n1 * self.n2
    }

    /// Column dimension (the number of computing units on hardware).
    #[inline]
    pub fn n1(&self) -> usize {
        self.n1
    }

    /// Row dimension (the number of slots per computing unit on hardware).
    #[inline]
    pub fn n2(&self) -> usize {
        self.n2
    }

    /// The modulus.
    #[inline]
    pub fn modulus(&self) -> Modulus {
        self.col.modulus()
    }

    /// Forward negacyclic NTT: [`NttTable::forward`]'s output, bit-reversed
    /// order included.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != self.n()` or any input is `≥ 2q`.
    pub fn forward(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n(), "polynomial length must match NTT size");
        let m = self.modulus();
        // Columns: a blocked transpose makes each contiguous (the movement
        // the transpose register file carries), instead of gathering one
        // cache-missing stride-n2 column at a time.
        self.columns(a, |col| self.col.forward(col));
        // Twiddles and rows: row `r` is contiguous in this layout.
        for (row, tw) in a.chunks_exact_mut(self.n2).zip(self.twiddle.chunks_exact(self.n2)) {
            for (x, &w) in row.iter_mut().zip(tw) {
                *x = m.mul_shoup(*x, w);
            }
            self.row.forward(row);
        }
    }

    /// Inverse of [`FourStepNtt::forward`], including all scaling:
    /// [`NttTable::inverse`]'s output.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != self.n()` or any input is `≥ 2q`.
    pub fn inverse(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n(), "polynomial length must match NTT size");
        let m = self.modulus();
        for (row, tw) in a.chunks_exact_mut(self.n2).zip(self.twiddle_inv.chunks_exact(self.n2)) {
            self.row.inverse(row);
            for (x, &w) in row.iter_mut().zip(tw) {
                *x = m.mul_shoup(*x, w);
            }
        }
        self.columns(a, |col| self.col.inverse(col));
    }

    /// Runs `transform` on every column of the row-major `n1 × n2` matrix
    /// `a`, each handed over contiguous in a transposed scratch copy.
    fn columns(&self, a: &mut [u64], transform: impl Fn(&mut [u64])) {
        Scratch::with_thread_local(|pool| {
            let mut tmp = pool.take(self.n());
            transpose_into(a, &mut tmp, self.n1, self.n2);
            tmp.chunks_exact_mut(self.n1).for_each(&transform);
            transpose_into(&tmp, a, self.n2, self.n1);
            pool.put(tmp);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate_ntt_primes;

    fn setup(n1: usize, n2: usize) -> (Modulus, FourStepNtt) {
        let q = Modulus::new(generate_ntt_primes(36, n1 * n2, 1).unwrap()[0]).unwrap();
        (q, FourStepNtt::new(q, n1, n2).unwrap())
    }

    #[test]
    fn round_trip_various_shapes() {
        for (n1, n2) in [(8usize, 8usize), (8, 16), (16, 8), (8, 32), (32, 32)] {
            let (q, ntt) = setup(n1, n2);
            let n = n1 * n2;
            let mut a: Vec<u64> = (0..n as u64).map(|i| (i * 97 + 5) % q.value()).collect();
            let original = a.clone();
            ntt.forward(&mut a);
            ntt.inverse(&mut a);
            assert_eq!(a, original, "shape {n1}x{n2}");
        }
    }

    #[test]
    fn pointwise_product_is_negacyclic_convolution() {
        let (q, ntt) = setup(8, 16);
        let n = 128;
        let a: Vec<u64> = (0..n as u64).map(|i| (i + 1) % q.value()).collect();
        let b: Vec<u64> = (0..n as u64).map(|i| (3 * i + 2) % q.value()).collect();
        // Reference via schoolbook negacyclic convolution.
        let mut expected = vec![0u64; n];
        for i in 0..n {
            for j in 0..n {
                let p = q.mul(a[i], b[j]);
                if i + j < n {
                    expected[i + j] = q.add(expected[i + j], p);
                } else {
                    expected[i + j - n] = q.sub(expected[i + j - n], p);
                }
            }
        }
        let mut fa = a.clone();
        let mut fb = b.clone();
        ntt.forward(&mut fa);
        ntt.forward(&mut fb);
        let mut prod: Vec<u64> = fa.iter().zip(&fb).map(|(&x, &y)| q.mul(x, y)).collect();
        ntt.inverse(&mut prod);
        assert_eq!(prod, expected);
    }

    #[test]
    fn bit_reversed_order_matches_naive_negacyclic_dft() {
        // Slot s holds a(ψ^{2·brv(s)+1}), ψ the flat table's root.
        let (q, ntt) = setup(8, 8);
        let n = 64;
        let a: Vec<u64> = (1..=n as u64).collect();
        let mut f = a.clone();
        ntt.forward(&mut f);
        let psi = NttTable::new(q, n).unwrap().psi();
        for (s, &got) in f.iter().enumerate() {
            let x = q.pow(psi, 2 * bit_reverse(s as u64, 6) + 1);
            let want = a.iter().rev().fold(0, |acc, &c| q.add(q.mul(acc, x), c));
            assert_eq!(got, want, "s={s}");
        }
    }

    #[test]
    fn agrees_with_bit_reversed_ntt_under_multiplication() {
        // The flat table's words, forward and inverse, at both ends of the
        // prime range the lanes take (51 bits: the WIDE instance).
        for bits in [36u32, 51] {
            for (n1, n2) in [(8usize, 8usize), (8, 32), (16, 16), (64, 128)] {
                let n = n1 * n2;
                let q = Modulus::new(generate_ntt_primes(bits, n, 1).unwrap()[0]).unwrap();
                let four = FourStepNtt::new(q, n1, n2).unwrap();
                let flat = NttTable::new(q, n).unwrap();
                let case = format!("{bits}-bit q, {n1}x{n2}");
                let a: Vec<u64> = (0..n as u64).map(|i| (i * i + 1) % q.value()).collect();
                let b: Vec<u64> = (0..n as u64).map(|i| (i * 13 + 7) % q.value()).collect();

                let (mut fa4, mut fb4, mut fa, mut fb) = (a.clone(), b.clone(), a, b);
                four.forward(&mut fa4);
                four.forward(&mut fb4);
                flat.forward(&mut fa);
                flat.forward(&mut fb);
                assert_eq!((&fa4, &fb4), (&fa, &fb), "forward, {case}");

                let mut p4: Vec<u64> = fa4.iter().zip(&fb4).map(|(&x, &y)| q.mul(x, y)).collect();
                let mut p = p4.clone();
                four.inverse(&mut p4);
                flat.inverse(&mut p);
                assert_eq!(p4, p, "inverse, {case}");
            }
        }
    }

    #[test]
    fn rejects_bad_shapes() {
        let q = Modulus::new(generate_ntt_primes(36, 64, 1).unwrap()[0]).unwrap();
        assert!(FourStepNtt::new(q, 1, 64).is_err());
        assert!(FourStepNtt::new(q, 3, 8).is_err());
        assert!(FourStepNtt::new(q, 4, 16).is_err()); // n = 64, but n1 < 8
        assert!(FourStepNtt::new(q, 16, 4).is_err());
        assert!(FourStepNtt::new(q, 8, 8).is_ok());
    }
}
