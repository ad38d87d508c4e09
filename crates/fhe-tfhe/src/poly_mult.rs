//! Exact negacyclic products of small-integer polynomials with torus
//! polynomials.
//!
//! TFHE's external product multiplies gadget-decomposed integer polynomials
//! (digits in `±2^{β-1}`) with torus polynomials (`Z_{2^64}`) modulo
//! `X^N + 1`. Floating-point FFTs (the usual software route) introduce
//! rounding error; hardware accelerators — and this implementation — use
//! exact NTTs instead: the integer product is computed modulo two ~60-bit
//! NTT primes, CRT-reconstructed (Garner), centered, and reduced mod
//! `2^64`. Exactness holds for a *sum* of `T` such products (the external
//! product accumulates `T = (k+1)·l_b` of them before reconstructing)
//! because its true coefficients are bounded by
//! `T · N · 2^{β-1} · 2^64 < p_1·p_2 / 2` — `2^98` against `2^117` at the
//! widest shipped shape (set II).

use crate::TfheError;
use fhe_math::{generate_ntt_primes, par, Modulus, NttTable, ShoupScalar};

/// Work estimate (element-operations) for one `n`-point NTT.
fn ntt_work(n: usize) -> u64 {
    (n as u64) * u64::from(usize::BITS - n.leading_zeros())
}

/// One CRT prime field of the multiplier.
#[derive(Debug, Clone)]
struct PrimeField {
    q: Modulus,
    ntt: NttTable,
}

impl PrimeField {
    fn new(q: u64, n: usize) -> Result<Self, TfheError> {
        let q = Modulus::new(q)?;
        Ok(PrimeField { q, ntt: NttTable::new(q, n)? })
    }

    /// Reduces a torus polynomial into this field and transforms it.
    fn prepare(&self, poly: &[u64]) -> Vec<u64> {
        let mut res: Vec<u64> = poly.iter().map(|&t| self.q.reduce(t)).collect();
        self.ntt.forward(&mut res);
        res
    }

    /// The residues of `ints ⊛ torus`, `torus` given in prepared form.
    fn mul_prepared(&self, ints: &[i64], prepared: &[u64]) -> Vec<u64> {
        let mut res: Vec<u64> = ints.iter().map(|&d| self.q.from_i64(d)).collect();
        self.ntt.forward(&mut res);
        for (d, &r) in res.iter_mut().zip(prepared) {
            *d = self.q.mul(*d, r);
        }
        self.ntt.inverse(&mut res);
        res
    }
}

/// The two-prime exact negacyclic multiplier for a fixed ring degree.
#[derive(Debug, Clone)]
pub struct NegacyclicMultiplier {
    n: usize,
    fields: [PrimeField; 2],
    /// `p1^{-1} mod p2` for Garner reconstruction.
    p1_inv_p2: ShoupScalar,
}

/// A torus polynomial pre-transformed into both NTT domains — bootstrap
/// keys are stored in this form so the external product only transforms
/// the (fresh) digit polynomials.
#[derive(Debug, Clone)]
pub struct PreparedTorusPoly {
    res: [Vec<u64>; 2],
}

/// Reusable buffers of the fused external product (one set per call or per
/// blind rotation), plus the transform tallies the telemetry counters
/// `tfhe.ntt.{forward,inverse}` report.
#[derive(Debug)]
pub(crate) struct Workspace {
    /// The `(a, b)` torus polynomials to decompose.
    pub(crate) input: [Vec<u64>; 2],
    /// Their digits, flat level-major: `a`'s levels, then `b`'s.
    pub(crate) digits: Vec<i64>,
    /// The digit polynomial being transformed.
    lifted: Vec<u64>,
    /// Unreduced NTT-domain sums, one per output column.
    acc: [Vec<u128>; 2],
    /// Per-prime residues of the two output columns.
    res: [[Vec<u64>; 2]; 2],
    forward_ntts: u64,
    inverse_ntts: u64,
}

impl Workspace {
    /// Flushes the transform tallies to the telemetry counters.
    pub(crate) fn report_transforms(&mut self) {
        telemetry::count_named("tfhe.ntt.forward", std::mem::take(&mut self.forward_ntts));
        telemetry::count_named("tfhe.ntt.inverse", std::mem::take(&mut self.inverse_ntts));
    }
}

impl NegacyclicMultiplier {
    /// Builds a multiplier for degree-`n` rings.
    ///
    /// # Errors
    ///
    /// Propagates prime-generation / NTT-table failures.
    pub fn new(n: usize) -> Result<Self, TfheError> {
        let primes = generate_ntt_primes(60, n, 2)?;
        let fields = [PrimeField::new(primes[0], n)?, PrimeField::new(primes[1], n)?];
        let p1_inv_p2 = fields[1].q.shoup(fields[1].q.inv(primes[0] % primes[1])?);
        Ok(NegacyclicMultiplier { n, fields, p1_inv_p2 })
    }

    /// Ring degree.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Pre-transforms a torus polynomial into both NTT domains.
    ///
    /// # Errors
    ///
    /// Surfaces a contained worker panic from the parallel backend.
    ///
    /// # Panics
    ///
    /// Panics if `poly.len() != n`.
    pub fn prepare(&self, poly: &[u64]) -> Result<PreparedTorusPoly, TfheError> {
        assert_eq!(poly.len(), self.n);
        // The two prime fields are independent — run them on separate
        // threads when the transform clears the adaptive threshold.
        let w = ntt_work(self.n);
        let [f1, f2] = &self.fields;
        let (res1, res2) = par::join(w, w, || f1.prepare(poly), || f2.prepare(poly))?;
        Ok(PreparedTorusPoly { res: [res1, res2] })
    }

    /// Checks that `terms` lazily transformed digits (`< 2q`) times key
    /// residues (`< q`) sum without overflowing the 128-bit accumulators
    /// of [`decomp_poly_mult_add`](Self::decomp_poly_mult_add).
    ///
    /// # Panics
    ///
    /// Panics if `terms · 2q · q ≥ 2^128` for either prime.
    pub(crate) fn assert_mac_headroom(&self, terms: usize) {
        for f in &self.fields {
            let q = u128::from(f.q.value());
            assert!(
                (2 * q * q).checked_mul(terms as u128).is_some(),
                "{terms} lazy products modulo {q} overflow the 128-bit accumulator"
            );
        }
    }

    /// Buffers for external products against `terms`-row TRGSW ciphertexts.
    pub(crate) fn workspace(&self, terms: usize) -> Workspace {
        let n = self.n;
        let pair = || [vec![0u64; n], vec![0u64; n]];
        Workspace {
            input: pair(),
            digits: vec![0; terms * n],
            lifted: vec![0; n],
            acc: [vec![0; n], vec![0; n]],
            res: [pair(), pair()],
            forward_ntts: 0,
            inverse_ntts: 0,
        }
    }

    /// The `DecompPolyMult` Meta-OP: adds `Σ_i digits_i ⊛ rows[i]` to the
    /// `(a, b)` pair `out`, where `digits_i = ws.digits[i·n..(i+1)·n]` and
    /// each row is a prepared `(a, b)` pair. Per prime, every digit
    /// polynomial is transformed once and multiply-accumulated against both
    /// key columns unreduced; each output coefficient is reduced once.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches. The caller guarantees
    /// [`assert_mac_headroom`](Self::assert_mac_headroom)`(rows.len())`.
    pub(crate) fn decomp_poly_mult_add(
        &self,
        rows: &[[PreparedTorusPoly; 2]],
        ws: &mut Workspace,
        out: [&mut [u64]; 2],
    ) {
        let n = self.n;
        assert_eq!(ws.digits.len(), rows.len() * n);
        assert!(out.iter().all(|o| o.len() == n));
        let Workspace { digits, lifted, acc, res, forward_ntts, inverse_ntts, .. } = ws;
        for (p, (f, res)) in self.fields.iter().zip(res.iter_mut()).enumerate() {
            acc.iter_mut().for_each(|sums| sums.fill(0));
            for (digit, row) in digits.chunks_exact(n).zip(rows) {
                for (l, &d) in lifted.iter_mut().zip(digit) {
                    *l = f.q.from_i64(d);
                }
                f.ntt.forward_lazy(lifted);
                *forward_ntts += 1;
                for (sums, key) in acc.iter_mut().zip(row) {
                    for (s, (&d, &k)) in sums.iter_mut().zip(lifted.iter().zip(&key.res[p])) {
                        *s += u128::from(d) * u128::from(k);
                    }
                }
            }
            for (res, sums) in res.iter_mut().zip(acc.iter()) {
                for (r, &s) in res.iter_mut().zip(sums) {
                    *r = f.q.reduce_u128(s);
                }
                f.ntt.inverse(res);
                *inverse_ntts += 1;
            }
        }
        let [res1, res2] = &ws.res;
        for (out, (r1, r2)) in out.into_iter().zip(res1.iter().zip(res2)) {
            for (o, (&r1, &r2)) in out.iter_mut().zip(r1.iter().zip(r2)) {
                *o = o.wrapping_add(self.garner(r1, r2));
            }
        }
    }

    /// Garner CRT of canonical residues `(r1, r2)`, centered into
    /// `(-P/2, P/2]` and wrapped modulo `2^64`.
    #[inline]
    fn garner(&self, r1: u64, r2: u64) -> u64 {
        let [f1, f2] = &self.fields;
        let p1 = u128::from(f1.q.value());
        let big = p1 * u128::from(f2.q.value());
        // v = r1 + p1 * ((r2 - r1) * p1^{-1} mod p2).
        let t = f2.q.mul_shoup(f2.q.sub(r2, f2.q.reduce(r1)), self.p1_inv_p2);
        let v = u128::from(r1) + p1 * u128::from(t);
        if v > big / 2 {
            ((big - v) as u64).wrapping_neg() // |v - P|
        } else {
            v as u64
        }
    }

    /// One-shot exact negacyclic product `ints ⊛ torus`.
    ///
    /// # Errors
    ///
    /// Surfaces a contained worker panic from the parallel backend.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches.
    pub fn mul_int_torus(&self, ints: &[i64], torus: &[u64]) -> Result<Vec<u64>, TfheError> {
        assert_eq!(ints.len(), self.n);
        let prepared = self.prepare(torus)?;
        let w = ntt_work(self.n);
        let [f1, f2] = &self.fields;
        let (res1, res2) = par::join(
            w,
            w,
            || f1.mul_prepared(ints, &prepared.res[0]),
            || f2.mul_prepared(ints, &prepared.res[1]),
        )?;
        Ok(res1.iter().zip(&res2).map(|(&r1, &r2)| self.garner(r1, r2)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schoolbook(ints: &[i64], torus: &[u64]) -> Vec<u64> {
        let n = ints.len();
        let mut out = vec![0u64; n];
        for (i, &d) in ints.iter().enumerate() {
            for (j, &t) in torus.iter().enumerate() {
                let prod = (d as u64).wrapping_mul(t); // exact mod 2^64
                if i + j < n {
                    out[i + j] = out[i + j].wrapping_add(prod);
                } else {
                    out[i + j - n] = out[i + j - n].wrapping_sub(prod);
                }
            }
        }
        out
    }

    #[test]
    fn matches_schoolbook_wrapping() {
        let n = 32;
        let m = NegacyclicMultiplier::new(n).unwrap();
        let ints: Vec<i64> = (0..n as i64).map(|i| ((i * 37) % 127) - 63).collect();
        let torus: Vec<u64> =
            (0..n as u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect();
        assert_eq!(m.mul_int_torus(&ints, &torus).unwrap(), schoolbook(&ints, &torus));
    }

    #[test]
    fn negacyclic_wraparound() {
        let n = 16;
        let m = NegacyclicMultiplier::new(n).unwrap();
        let mut ints = vec![0i64; n];
        ints[n - 1] = 1; // X^{n-1}
        let mut torus = vec![0u64; n];
        torus[1] = 5; // 5·X
        let out = m.mul_int_torus(&ints, &torus).unwrap();
        assert_eq!(out[0], 5u64.wrapping_neg()); // X^n = -1
        assert!(out[1..].iter().all(|&c| c == 0));
    }

    #[test]
    fn accumulation_is_linear() {
        // Two digit polynomials against two prepared rows, both output
        // columns, added onto a non-zero start value.
        let n = 16;
        let m = NegacyclicMultiplier::new(n).unwrap();
        let a: Vec<i64> = (0..n as i64).map(|i| i - 8).collect();
        let b: Vec<i64> = (0..n as i64).map(|i| 3 * i % 11 - 5).collect();
        let t: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(u64::MAX / 17)).collect();
        let u: Vec<u64> = (0..n as u64).map(|i| (i + 3).wrapping_mul(u64::MAX / 29)).collect();
        let rows = [
            [m.prepare(&t).unwrap(), m.prepare(&u).unwrap()],
            [m.prepare(&u).unwrap(), m.prepare(&t).unwrap()],
        ];
        let mut ws = m.workspace(2);
        ws.digits[..n].copy_from_slice(&a);
        ws.digits[n..].copy_from_slice(&b);
        let (mut out_a, mut out_b) = (vec![7u64; n], vec![u64::MAX; n]);
        m.decomp_poly_mult_add(&rows, &mut ws, [&mut out_a, &mut out_b]);
        let sum = |start: u64, x: Vec<u64>, y: Vec<u64>| -> Vec<u64> {
            x.iter().zip(&y).map(|(&x, &y)| start.wrapping_add(x).wrapping_add(y)).collect()
        };
        assert_eq!(out_a, sum(7, schoolbook(&a, &t), schoolbook(&b, &u)));
        assert_eq!(out_b, sum(u64::MAX, schoolbook(&a, &u), schoolbook(&b, &t)));
    }

    #[test]
    fn lazy_accumulation_survives_maximal_key_residues() {
        // Key residues all q − 1 (the constant polynomial −1 in both
        // fields) against digits all at the extreme −2^{β−1} drive every
        // 128-bit accumulator as high as a shipped shape can: the product
        // must still come out as −Σ digits.
        for (n, base_log, terms) in [(64, 10u32, 6usize), (1024, 7, 6), (2048, 23, 2)] {
            let m = NegacyclicMultiplier::new(n).unwrap();
            let minus_one =
                || PreparedTorusPoly { res: m.fields.each_ref().map(|f| vec![f.q.value() - 1; n]) };
            let rows: Vec<_> = (0..terms).map(|_| [minus_one(), minus_one()]).collect();
            let mut ws = m.workspace(terms);
            ws.digits.fill(-(1i64 << (base_log - 1)));
            let (mut out_a, mut out_b) = (vec![0u64; n], vec![0u64; n]);
            m.decomp_poly_mult_add(&rows, &mut ws, [&mut out_a, &mut out_b]);
            let want = vec![(terms as u64) << (base_log - 1); n];
            assert_eq!((out_a, out_b), (want.clone(), want), "n = {n}");
        }
    }

    #[test]
    fn mac_headroom_holds_for_every_preset() {
        use crate::TfheParams;
        for p in [TfheParams::toy(), TfheParams::set_i(), TfheParams::set_ii()] {
            let m = NegacyclicMultiplier::new(p.poly_size).unwrap();
            m.assert_mac_headroom((p.glwe_dim + 1) * p.pbs_levels);
        }
        // q < 2^60, so 2q·q < 2^121: up to 2^7 lazy products always fit.
        NegacyclicMultiplier::new(64).unwrap().assert_mac_headroom(128);
    }

    #[test]
    #[should_panic(expected = "overflow the 128-bit accumulator")]
    fn mac_headroom_rejects_an_overflowing_level_count() {
        // q > 2^59, so 2q·q > 2^119: l = 256 (k = 1) cannot fit.
        NegacyclicMultiplier::new(64).unwrap().assert_mac_headroom(2 * 256);
    }

    #[test]
    fn large_digit_bound_is_exact() {
        // Worst-case digits ±2^22 with full-magnitude torus values.
        let n = 64;
        let m = NegacyclicMultiplier::new(n).unwrap();
        let ints: Vec<i64> =
            (0..n as i64).map(|i| if i % 2 == 0 { 1 << 22 } else { -(1 << 22) }).collect();
        let torus = vec![u64::MAX; n];
        assert_eq!(m.mul_int_torus(&ints, &torus).unwrap(), schoolbook(&ints, &torus));
    }
}
