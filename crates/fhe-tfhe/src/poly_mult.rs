//! Exact negacyclic products of small-integer polynomials with torus
//! polynomials.
//!
//! TFHE's external product multiplies gadget-decomposed integer polynomials
//! (digits in `±2^{β-1}`) with torus polynomials modulo `X^N + 1`.
//! Floating-point FFTs (the usual software route) introduce rounding error;
//! hardware accelerators — and this implementation — use exact NTTs
//! instead: the integer product is computed modulo one or two ~60-bit NTT
//! primes, lifted to its centred representative (Garner when there are two
//! primes) and reduced modulo the torus.
//!
//! # Ring precision
//!
//! `u64` is the torus type everywhere, but a multiplier works at a **ring
//! precision** of `w ≤ 64` bits: a torus operand enters as its top `w`
//! bits, rounded ([`NegacyclicMultiplier::prepare`],
//! [`NegacyclicMultiplier::mul_int_torus`]), the product is exact over the
//! integers for those `w`-bit values, and the result is shifted back to the
//! top of the word. At `w = 64` nothing is rounded. The precision is a
//! property of the parameter set ([`crate::TfheParams::ring_bits`]): 32 at
//! set I — the word of the Matcha/Strix baselines and within Alchemist's
//! 36-bit datapath — and 64 at the toy set and set II, whose GLWE noise
//! (`2^-35`, `2^-48`) sits below what 32 bits can hold.
//!
//! # Exactness bound
//!
//! A *sum* of `T` products (the external product accumulates
//! `T = (k+1)·l_b` of them before lifting) has true coefficients bounded by
//! `T · N · 2^{β-1} · 2^w`, and the lift is exact while that stays below
//! `P/2`, `P` the product of the primes. The prime count is derived from
//! this bound, not chosen:
//!
//! | preset | `T·N·2^{β-1}·2^w`          | `P/2`              | primes |
//! |--------|----------------------------|--------------------|--------|
//! | toy    | `6·2^6·2^9·2^64 ≈ 2^81.6`  | `≥ 2^117`          | 2      |
//! | set I  | `6·2^10·2^6·2^32 ≈ 2^50.6` | `≥ 2^58`           | 1      |
//! | set II | `2·2^11·2^22·2^64 = 2^98`  | `≥ 2^117`          | 2      |
//!
//! so a set-I external product runs `(k+1)·l_b` forward and `k+1` inverse
//! transforms — exactly `metaop::counts::pbs` — and the other two presets
//! twice that. [`NegacyclicMultiplier::assert_exact`] re-checks the bound
//! wherever a gadget meets a multiplier.
//!
//! # The fused kernel
//!
//! The external product's multiplier half is the paper's `DecompPolyMult`
//! Meta-OP `(M_j A_j)_n R_j` with `n = T`, run per prime field as
//! lift → `forward_lazy` of all `T` digit polynomials → one pass over the
//! slots summing each output coefficient's `T` products in a `u128` → one
//! reduction → inverse. Nothing between the transforms is written to
//! memory but the reduced residues, and the only data-dependent jumps left
//! are the Barrett correction's, which are almost never taken (DESIGN.md
//! §14.2).

use crate::TfheError;
use fhe_math::{generate_ntt_primes, Modulus, NttTable, ShoupScalar};

/// Output slots the external product's MAC carries per step: enough
/// independent sums to hide the multiplier's latency, few enough to stay in
/// L1. Every ring degree is a multiple of it (`NttTable` needs `n ≥ 8`).
const SLOTS: usize = 8;

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

    /// The residues of `ints ⊛ torus`, written over `torus`'s prepared form.
    fn mul_prepared(&self, ints: &[i64], prepared: &mut [u64]) {
        let mut lifted: Vec<u64> = ints.iter().map(|&d| self.q.from_i64(d)).collect();
        self.ntt.forward(&mut lifted);
        for (r, &d) in prepared.iter_mut().zip(&lifted) {
            *r = self.q.mul(d, *r);
        }
        self.ntt.inverse(prepared);
    }

    /// The representative of canonical `r` in `(-q/2, q/2]`, wrapped
    /// modulo `2^64`.
    #[inline]
    fn centred(&self, r: u64) -> u64 {
        if r > self.q.value() / 2 {
            r.wrapping_sub(self.q.value())
        } else {
            r
        }
    }
}

/// The exact negacyclic multiplier for a fixed ring degree and ring
/// precision (module docs), over one or two NTT primes.
#[derive(Debug, Clone)]
pub struct NegacyclicMultiplier {
    n: usize,
    /// Ring precision `w`.
    ring_bits: u32,
    first: PrimeField,
    /// The second prime field, when the exactness bound needs one, with
    /// `p1^{-1} mod p2` for Garner reconstruction.
    second: Option<(PrimeField, ShoupScalar)>,
    /// `⌊P/2 / 2^w⌋`: the largest `Σ|integer coefficients|` a product (or a
    /// lazily accumulated sum of products) may carry and still lift exactly.
    max_weight: u128,
}

/// A torus polynomial rounded to the ring precision and transformed into
/// every prime field (`primes` residue vectors, one after the other) —
/// bootstrap keys are stored in this form so the external product only
/// transforms the (fresh) digit polynomials.
#[derive(Debug, Clone)]
pub struct PreparedTorusPoly {
    res: Vec<u64>,
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
    /// Every digit polynomial lifted into one prime field and transformed,
    /// in `digits`' order.
    lifted: Vec<u64>,
    /// Residues of the two output columns, prime-major: `[prime][column]`.
    res: Vec<u64>,
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

/// `Σ|digit|` over `terms` degree-`n` polynomials of base-`2^base_log`
/// balanced digits: `terms · n · 2^{β-1}`.
fn gadget_weight(n: usize, base_log: u32, terms: usize) -> u128 {
    ((terms * n) as u128) << base_log.saturating_sub(1).min(64)
}

impl NegacyclicMultiplier {
    /// Builds the full-precision (`w = 64`, two-prime) multiplier for
    /// degree-`n` rings, exact for every gadget with
    /// `T · N · 2^{β-1} < 2^54`.
    ///
    /// # Errors
    ///
    /// Propagates prime-generation / NTT-table failures.
    pub fn new(n: usize) -> Result<Self, TfheError> {
        Self::with_precision(n, 64, 1, 1)
    }

    /// Builds the multiplier for degree-`n` rings at ring precision
    /// `ring_bits`, with as many primes (one or two) as the exactness bound
    /// of `terms` base-`2^base_log` digit polynomials needs (module docs).
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::InvalidParams`] if `ring_bits` is outside
    /// `1..=64` or two primes cannot hold the gadget; propagates
    /// prime-generation / NTT-table failures.
    pub fn with_precision(
        n: usize,
        ring_bits: u32,
        base_log: u32,
        terms: usize,
    ) -> Result<Self, TfheError> {
        if !(1..=64).contains(&ring_bits) {
            return Err(TfheError::InvalidParams {
                detail: format!("ring precision {ring_bits} outside 1..=64 bits"),
            });
        }
        let primes = generate_ntt_primes(60, n, 2)?;
        let weight = gadget_weight(n, base_log, terms);
        let (p1, p2) = (u128::from(primes[0]), u128::from(primes[1]));
        let two = weight > (p1 / 2) >> ring_bits;
        let max_weight = (if two { p1 * p2 } else { p1 } / 2) >> ring_bits;
        if weight > max_weight {
            return Err(TfheError::InvalidParams {
                detail: format!(
                    "{terms} base-2^{base_log} digit polynomials of degree {n} at {ring_bits}-bit \
                     precision exceed two 60-bit primes"
                ),
            });
        }
        let first = PrimeField::new(primes[0], n)?;
        let second = if two {
            let f2 = PrimeField::new(primes[1], n)?;
            let p1_inv_p2 = f2.q.shoup(f2.q.inv(primes[0] % primes[1])?);
            Some((f2, p1_inv_p2))
        } else {
            None
        };
        Ok(NegacyclicMultiplier { n, ring_bits, first, second, max_weight })
    }

    /// Ring degree.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Ring precision `w` in bits.
    #[inline]
    pub fn ring_bits(&self) -> u32 {
        self.ring_bits
    }

    /// Number of NTT primes (one or two): the factor between this
    /// multiplier's transform count and `metaop::counts::pbs`'s.
    #[inline]
    pub fn primes(&self) -> usize {
        1 + usize::from(self.second.is_some())
    }

    /// The prime fields, in residue-vector order.
    fn fields(&self) -> impl Iterator<Item = &PrimeField> {
        std::iter::once(&self.first).chain(self.second.iter().map(|(f2, _)| f2))
    }

    /// The top `w` bits of `t`, rounded, as an integer in `[0, 2^w)`.
    #[inline]
    fn to_ring(&self, t: u64) -> u64 {
        let drop = 64 - self.ring_bits;
        t.wrapping_add((1u64 << drop) >> 1) >> drop
    }

    /// The torus value nearest `t` that the ring precision holds exactly.
    #[inline]
    pub(crate) fn round(&self, t: u64) -> u64 {
        self.to_ring(t) << (64 - self.ring_bits)
    }

    /// Runs `f` on every prime field and that field's `n`-residue chunk of
    /// `res`, one field after the other.
    fn per_field(&self, res: &mut [u64], f: impl Fn(&PrimeField, &mut [u64])) {
        for (field, chunk) in self.fields().zip(res.chunks_exact_mut(self.n)) {
            f(field, chunk);
        }
    }

    /// [`prepare`](Self::prepare) into `out` (`primes · n` residues).
    pub(crate) fn prepare_into(&self, poly: &[u64], out: &mut [u64]) {
        assert_eq!(poly.len(), self.n);
        assert_eq!(out.len(), self.primes() * self.n);
        self.per_field(out, |f, res| {
            for (r, &t) in res.iter_mut().zip(poly) {
                *r = f.q.reduce(self.to_ring(t));
            }
            f.ntt.forward(res);
        });
    }

    /// Rounds a torus polynomial to the ring precision and transforms it
    /// into every prime field.
    ///
    /// # Panics
    ///
    /// Panics if `poly.len() != n`.
    pub fn prepare(&self, poly: &[u64]) -> PreparedTorusPoly {
        let mut res = vec![0; self.primes() * self.n];
        self.prepare_into(poly, &mut res);
        PreparedTorusPoly { res }
    }

    /// Checks that `terms` lazily transformed digits (`< 2q`) times key
    /// residues (`< q`) sum without overflowing the 128-bit accumulators
    /// of [`decomp_poly_mult_add`](Self::decomp_poly_mult_add).
    ///
    /// # Panics
    ///
    /// Panics if `terms · 2q · q ≥ 2^128` for any prime.
    pub(crate) fn assert_mac_headroom(&self, terms: usize) {
        for f in self.fields() {
            let q = u128::from(f.q.value());
            assert!(
                (2 * q * q).checked_mul(terms as u128).is_some(),
                "{terms} lazy products modulo {q} overflow the 128-bit accumulator"
            );
        }
    }

    /// Checks the exactness bound (module docs) for an external product of
    /// `terms` base-`2^base_log` digit polynomials against this multiplier.
    ///
    /// # Panics
    ///
    /// Panics if `terms · N · 2^{β-1} · 2^w ≥ P/2`.
    pub(crate) fn assert_exact(&self, base_log: u32, terms: usize) {
        assert!(
            gadget_weight(self.n, base_log, terms) <= self.max_weight,
            "{terms} base-2^{base_log} digit polynomials of degree {} are not exact under {} \
             prime(s) at {}-bit ring precision",
            self.n,
            self.primes(),
            self.ring_bits
        );
    }

    /// Buffers for external products against `terms`-row TRGSW ciphertexts.
    pub(crate) fn workspace(&self, terms: usize) -> Workspace {
        let n = self.n;
        Workspace {
            input: [vec![0; n], vec![0; n]],
            digits: vec![0; terms * n],
            lifted: vec![0; terms * n],
            res: vec![0; self.primes() * 2 * n],
            forward_ntts: 0,
            inverse_ntts: 0,
        }
    }

    /// The `DecompPolyMult` Meta-OP `(M_j A_j)_n R_j`: adds
    /// `Σ_i digits_i ⊛ rows_i` to the `(a, b)` pair `out`, where
    /// `digits_i = ws.digits[i·n..(i+1)·n]` and row `i` is
    /// `rows[i·2·primes·n..]`: the prepared `a` polynomial, then the
    /// prepared `b`. Per prime, every digit polynomial is lifted and
    /// transformed once; then one pass over the slots, [`SLOTS`] at a time,
    /// sums each output coefficient's `T` products in a `u128` and reduces
    /// it once, straight into the residues the inverse transforms read.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches. The caller guarantees
    /// [`assert_mac_headroom`](Self::assert_mac_headroom) and
    /// [`assert_exact`](Self::assert_exact) for the row count.
    pub(crate) fn decomp_poly_mult_add(
        &self,
        rows: &[u64],
        ws: &mut Workspace,
        out: [&mut [u64]; 2],
    ) {
        let n = self.n;
        let primes = self.primes();
        let row_len = 2 * primes * n;
        assert_eq!(rows.len(), ws.digits.len() * 2 * primes);
        assert!(out.iter().all(|o| o.len() == n));
        let Workspace { digits, lifted, res, forward_ntts, inverse_ntts, .. } = ws;
        for (p, (f, res)) in self.fields().zip(res.chunks_exact_mut(2 * n)).enumerate() {
            for (lifted, digit) in lifted.chunks_exact_mut(n).zip(digits.chunks_exact(n)) {
                for (l, &d) in lifted.iter_mut().zip(digit) {
                    *l = f.q.from_i64(d);
                }
                f.ntt.forward_lazy(lifted);
                *forward_ntts += 1;
            }
            let (res_a, res_b) = res.split_at_mut(n);
            let (key_a, key_b) = (p * n, (primes + p) * n);
            let blocks = res_a.chunks_exact_mut(SLOTS).zip(res_b.chunks_exact_mut(SLOTS));
            for (s, (res_a, res_b)) in (0..n).step_by(SLOTS).zip(blocks) {
                let mut sums = [[0u128; 2]; SLOTS];
                for (digit, row) in lifted.chunks_exact(n).zip(rows.chunks_exact(row_len)) {
                    let (ka, kb) = (&row[key_a + s..][..SLOTS], &row[key_b + s..][..SLOTS]);
                    let terms = digit[s..][..SLOTS].iter().zip(ka.iter().zip(kb));
                    for (sum, (&d, (&ka, &kb))) in sums.iter_mut().zip(terms) {
                        sum[0] += u128::from(d) * u128::from(ka);
                        sum[1] += u128::from(d) * u128::from(kb);
                    }
                }
                for (&[sa, sb], (ra, rb)) in sums.iter().zip(res_a.iter_mut().zip(res_b)) {
                    *ra = f.q.reduce_u128(sa);
                    *rb = f.q.reduce_u128(sb);
                }
            }
            for res in res.chunks_exact_mut(n) {
                f.ntt.inverse(res);
                *inverse_ntts += 1;
            }
        }
        for (c, out) in out.into_iter().enumerate() {
            self.lift_add(&ws.res[c * n..], 2 * n, out);
        }
    }

    /// Adds to `out` the integers whose canonical residues modulo prime
    /// `p` are `res[p·stride..][..n]`: centred into `(-P/2, P/2]` (Garner
    /// when there are two primes), wrapped modulo `2^64` and shifted from
    /// ring precision back to the top of the torus word.
    fn lift_add(&self, res: &[u64], stride: usize, out: &mut [u64]) {
        let up = 64 - self.ring_bits;
        let r1 = &res[..out.len()];
        match &self.second {
            Some((f2, p1_inv_p2)) => {
                let r2 = &res[stride..stride + out.len()];
                for (o, (&r1, &r2)) in out.iter_mut().zip(r1.iter().zip(r2)) {
                    *o = o.wrapping_add(garner(&self.first, f2, *p1_inv_p2, r1, r2) << up);
                }
            }
            None => {
                for (o, &r) in out.iter_mut().zip(r1) {
                    *o = o.wrapping_add(self.first.centred(r) << up);
                }
            }
        }
    }

    /// One-shot exact negacyclic product `ints ⊛ torus`, `torus` rounded to
    /// the ring precision.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches, or if `Σ|ints|` exceeds what the
    /// multiplier's primes can lift exactly (`Σ|ints| · 2^w ≥ P/2`).
    pub fn mul_int_torus(&self, ints: &[i64], torus: &[u64]) -> Vec<u64> {
        assert_eq!(ints.len(), self.n);
        let weight: u128 = ints.iter().map(|d| u128::from(d.unsigned_abs())).sum();
        assert!(
            weight <= self.max_weight,
            "integer polynomial of weight {weight} is not exact under {} prime(s) at {}-bit ring \
             precision",
            self.primes(),
            self.ring_bits
        );
        let mut res = self.prepare(torus).res;
        self.per_field(&mut res, |f, prepared| f.mul_prepared(ints, prepared));
        let mut out = vec![0; self.n];
        self.lift_add(&res, self.n, &mut out);
        out
    }
}

/// Garner CRT of canonical residues `(r1, r2)`, centered into
/// `(-P/2, P/2]` and wrapped modulo `2^64`.
#[inline]
fn garner(f1: &PrimeField, f2: &PrimeField, p1_inv_p2: ShoupScalar, r1: u64, r2: u64) -> u64 {
    let p1 = u128::from(f1.q.value());
    let big = p1 * u128::from(f2.q.value());
    // v = r1 + p1 * ((r2 - r1) * p1^{-1} mod p2).
    let t = f2.q.mul_shoup(f2.q.sub(r2, f2.q.reduce(r1)), p1_inv_p2);
    let v = u128::from(r1) + p1 * u128::from(t);
    if v > big / 2 {
        ((big - v) as u64).wrapping_neg() // |v - P|
    } else {
        v as u64
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Wrapping schoolbook `ints ⊛ torus` modulo `X^N + 1` and `2^64`: the
    /// reference every exact product in this crate is held to.
    pub(crate) fn schoolbook(ints: &[i64], torus: &[u64]) -> Vec<u64> {
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

    /// `poly` rounded to its top `w` bits, written without the multiplier.
    pub(crate) fn rounded(poly: &[u64], w: u32) -> Vec<u64> {
        let round = |t: u64| match w {
            64 => t,
            _ => (((u128::from(t) + (1 << (63 - w))) >> (64 - w)) as u64) << (64 - w),
        };
        poly.iter().map(|&t| round(t)).collect()
    }

    /// The one-prime shape (set I's gadget at 32 bits) and the two-prime one.
    fn both_precisions(n: usize) -> [NegacyclicMultiplier; 2] {
        let narrow = NegacyclicMultiplier::with_precision(n, 32, 7, 6).unwrap();
        let wide = NegacyclicMultiplier::new(n).unwrap();
        assert_eq!((narrow.primes(), wide.primes()), (1, 2));
        [narrow, wide]
    }

    /// A prepared row block from raw `(a, b)` torus rows.
    fn prepare_rows(m: &NegacyclicMultiplier, raw: &[[&[u64]; 2]]) -> Vec<u64> {
        raw.iter().flatten().flat_map(|poly| m.prepare(poly).res).collect()
    }

    #[test]
    fn prime_count_is_derived_from_the_exactness_bound() {
        use crate::TfheParams;
        for (p, primes) in
            [(TfheParams::toy(), 2), (TfheParams::set_i(), 1), (TfheParams::set_ii(), 2)]
        {
            let m = crate::Pbs::new(p).unwrap();
            assert_eq!(m.multiplier().primes(), primes, "N = {}", p.poly_size);
            assert_eq!(m.multiplier().ring_bits(), p.ring_bits());
        }
        // Set II's 23-bit digit needs the second prime even at 32 bits, and
        // set I's gadget at 64 bits does too.
        assert_eq!(NegacyclicMultiplier::with_precision(2048, 32, 23, 2).unwrap().primes(), 2);
        assert_eq!(NegacyclicMultiplier::with_precision(1024, 64, 7, 6).unwrap().primes(), 2);
        assert!(NegacyclicMultiplier::with_precision(64, 0, 7, 6).is_err());
        assert!(NegacyclicMultiplier::with_precision(64, 65, 7, 6).is_err());
    }

    #[test]
    fn matches_schoolbook_on_the_rounded_operand_at_both_precisions() {
        for n in [16, 64, 1024] {
            let ints: Vec<i64> = (0..n as i64).map(|i| ((i * 37) % 127) - 63).collect();
            let torus: Vec<u64> =
                (0..n as u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect();
            for m in both_precisions(n) {
                assert_eq!(
                    m.mul_int_torus(&ints, &torus),
                    schoolbook(&ints, &rounded(&torus, m.ring_bits())),
                    "n = {n}, w = {}",
                    m.ring_bits()
                );
            }
        }
    }

    #[test]
    fn rounding_carries_into_the_top_bit_and_wraps() {
        let [narrow, wide] = both_precisions(16);
        assert_eq!(narrow.round(0x0000_0000_7fff_ffff), 0);
        assert_eq!(narrow.round(0x0000_0000_8000_0000), 1 << 32);
        assert_eq!(narrow.round(u64::MAX), 0, "rounds up to 2^64 = 0");
        assert_eq!(wide.round(u64::MAX), u64::MAX);
        let poly: Vec<u64> = (0..16u64).map(|i| (i << 60) | 0xffff_ffff).collect();
        assert_eq!(poly.iter().map(|&t| narrow.round(t)).collect::<Vec<_>>(), rounded(&poly, 32));
    }

    #[test]
    fn negacyclic_wraparound() {
        let n = 16;
        for m in both_precisions(n) {
            let mut ints = vec![0i64; n];
            ints[n - 1] = 1; // X^{n-1}
            let mut torus = vec![0u64; n];
            torus[1] = 5 << 32; // 5·2^32·X
            let out = m.mul_int_torus(&ints, &torus);
            assert_eq!(out[0], (5u64 << 32).wrapping_neg()); // X^n = -1
            assert!(out[1..].iter().all(|&c| c == 0));
        }
    }

    #[test]
    fn accumulation_is_linear() {
        // Two digit polynomials against two prepared rows, both output
        // columns, added onto a non-zero start value.
        let n = 16;
        for m in both_precisions(n) {
            let a: Vec<i64> = (0..n as i64).map(|i| i - 8).collect();
            let b: Vec<i64> = (0..n as i64).map(|i| 3 * i % 11 - 5).collect();
            let t: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(u64::MAX / 17)).collect();
            let u: Vec<u64> = (0..n as u64).map(|i| (i + 3).wrapping_mul(u64::MAX / 29)).collect();
            let rows = prepare_rows(&m, &[[&t, &u], [&u, &t]]);
            let mut ws = m.workspace(2);
            ws.digits[..n].copy_from_slice(&a);
            ws.digits[n..].copy_from_slice(&b);
            let (mut out_a, mut out_b) = (vec![7u64; n], vec![u64::MAX; n]);
            m.decomp_poly_mult_add(&rows, &mut ws, [&mut out_a, &mut out_b]);
            let sum = |start: u64, x: Vec<u64>, y: Vec<u64>| -> Vec<u64> {
                x.iter().zip(&y).map(|(&x, &y)| start.wrapping_add(x).wrapping_add(y)).collect()
            };
            let (t, u) = (rounded(&t, m.ring_bits()), rounded(&u, m.ring_bits()));
            assert_eq!(out_a, sum(7, schoolbook(&a, &t), schoolbook(&b, &u)));
            assert_eq!(out_b, sum(u64::MAX, schoolbook(&a, &u), schoolbook(&b, &t)));
            assert_eq!(
                (ws.forward_ntts, ws.inverse_ntts),
                (2 * m.primes() as u64, 2 * m.primes() as u64)
            );
        }
    }

    #[test]
    fn lazy_accumulation_survives_maximal_key_residues() {
        // Key residues all q − 1 (the constant polynomial −1 in every
        // field) against digits all at the extreme −2^{β−1} drive every
        // 128-bit accumulator as high as a shipped shape can: the product
        // must still come out as −Σ digits. Toy, set II, then set I at both
        // precisions (one prime, and two).
        for (n, ring_bits, base_log, terms) in
            [(64, 64, 10u32, 6usize), (2048, 64, 23, 2), (1024, 32, 7, 6), (1024, 64, 7, 6)]
        {
            let m = NegacyclicMultiplier::with_precision(n, ring_bits, base_log, terms).unwrap();
            m.assert_mac_headroom(terms);
            m.assert_exact(base_log, terms);
            let minus_one = m.fields().flat_map(|f| vec![f.q.value() - 1; n]);
            let rows: Vec<u64> = minus_one.collect::<Vec<_>>().repeat(2 * terms);
            let mut ws = m.workspace(terms);
            ws.digits.fill(-(1i64 << (base_log - 1)));
            let (mut out_a, mut out_b) = (vec![0u64; n], vec![0u64; n]);
            m.decomp_poly_mult_add(&rows, &mut ws, [&mut out_a, &mut out_b]);
            let want = vec![((terms as u64) << (base_log - 1)) << (64 - ring_bits); n];
            assert_eq!((out_a, out_b), (want.clone(), want), "n = {n}, w = {ring_bits}");
        }
    }

    #[test]
    fn mac_headroom_holds_for_every_preset() {
        use crate::TfheParams;
        for p in [TfheParams::toy(), TfheParams::set_i(), TfheParams::set_ii()] {
            let pbs = crate::Pbs::new(p).unwrap();
            let terms = (p.glwe_dim + 1) * p.pbs_levels;
            pbs.multiplier().assert_mac_headroom(terms);
            pbs.multiplier().assert_exact(p.pbs_base_log, terms);
        }
        // q < 2^60, so 2q·q < 2^121: up to 2^7 lazy products always fit.
        for m in both_precisions(64) {
            m.assert_mac_headroom(128);
        }
    }

    #[test]
    #[should_panic(expected = "overflow the 128-bit accumulator")]
    fn mac_headroom_rejects_an_overflowing_level_count() {
        // q > 2^59, so 2q·q > 2^119: l = 256 (k = 1) cannot fit.
        NegacyclicMultiplier::new(64).unwrap().assert_mac_headroom(2 * 256);
    }

    #[test]
    #[should_panic(expected = "not exact under 1 prime(s) at 32-bit")]
    fn one_shot_product_rejects_a_weight_one_prime_cannot_lift() {
        // 16 · 2^23 · 2^32 = 2^59 > p/2.
        let [narrow, _] = both_precisions(16);
        let _ = narrow.mul_int_torus(&[1 << 23; 16], &[u64::MAX; 16]);
    }

    #[test]
    fn large_digit_bound_is_exact() {
        // Worst-case digits ±2^22 with full-magnitude torus values.
        let n = 64;
        let m = NegacyclicMultiplier::new(n).unwrap();
        let ints: Vec<i64> =
            (0..n as i64).map(|i| if i % 2 == 0 { 1 << 22 } else { -(1 << 22) }).collect();
        let torus = vec![u64::MAX; n];
        assert_eq!(m.mul_int_torus(&ints, &torus), schoolbook(&ints, &torus));
    }
}
