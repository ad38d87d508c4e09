//! Exact negacyclic products of small-integer polynomials with torus
//! polynomials.
//!
//! TFHE's external product multiplies gadget-decomposed integer polynomials
//! (digits in `±2^{β-1}`) with torus polynomials modulo `X^N + 1`.
//! Floating-point FFTs (the usual software route) introduce rounding error;
//! hardware accelerators — and this implementation — use exact NTTs
//! instead: the integer product is computed modulo one or two 51-bit NTT
//! primes — below `2^51`, so every transform and MAC runs on the IFMA
//! lanes where the host has them (`fhe_math`'s `simd` module) — lifted to
//! its centred representative (Garner when there are two primes) and
//! reduced modulo the torus.
//!
//! # Ring precision
//!
//! `u64` is the torus type everywhere, but a multiplier works at a **ring
//! precision** of `w ≤ 64` bits: a torus operand enters as its top `w`
//! bits, rounded ([`NegacyclicMultiplier::prepare`],
//! [`NegacyclicMultiplier::mul_int_torus`]), the product is exact over the
//! integers for those `w`-bit values, and the result is shifted back to the
//! top of the word. At `w = 64` nothing is rounded. The rounded value is
//! read *centred*, in `[−2^{w−1}, 2^{w−1})`: congruent modulo `2^w` to the
//! unsigned one, so every output word is the same, at half the magnitude.
//! The precision is a property of the parameter set
//! ([`crate::TfheParams::ring_bits`]): 32 at set I — the word of the
//! Matcha/Strix baselines and within Alchemist's 36-bit datapath — and 64
//! at the toy set and set II, whose GLWE noise (`2^-35`, `2^-48`) sits
//! below what 32 bits can hold.
//!
//! # Exactness bound
//!
//! A *sum* of `T` products (the external product accumulates
//! `T = (k+1)·l_b` of them before lifting) has true coefficients bounded by
//! `T · N · 2^{β-1} · 2^{w-1}`, and the lift is exact while that stays
//! below `P/2`, `P` the product of the primes. The prime count is derived
//! from this bound, not chosen:
//!
//! | preset | `T·N·2^{β-1}·2^{w-1}`      | `P/2`      | primes |
//! |--------|----------------------------|------------|--------|
//! | toy    | `6·2^6·2^9·2^63 ≈ 2^80.6`  | `≈ 2^101`  | 2      |
//! | set I  | `6·2^10·2^6·2^31 ≈ 2^49.6` | `≈ 2^50`   | 1      |
//! | set II | `2·2^11·2^22·2^63 = 2^97`  | `≈ 2^101`  | 2      |
//!
//! so a set-I external product runs `(k+1)·l_b` forward and `k+1` inverse
//! transforms — exactly `metaop::counts::pbs` — and the other two presets
//! twice that. [`NegacyclicMultiplier::assert_exact`] re-checks the bound
//! wherever a gadget meets a multiplier.
//!
//! # The fused kernel
//!
//! The external product is the paper's `DecompPolyMult` Meta-OP
//! `(M_j A_j)_n R_j` with `n = T`, one stream per prime field and on the
//! lanes from end to end where the host has them: one branch-free pass from
//! the two input polynomials to the `T·N` lifted digit residues
//! (`SignedDigitDecomposer::decompose_lift_into`) → `forward_lazy` of each
//! → two [`fhe_math::lazy_mac`] calls (the key rows' `a` halves, then their
//! `b` halves), in which every 8-slot block carries its value through all
//! fold groups in a register, so the `T` row streams are read at once →
//! inverse → the lift back to the torus.

use crate::TfheError;
use fhe_math::{
    generate_ntt_primes, lazy_mac, MacSlots, Modulus, NttTable, ShoupScalar, SignedDigitDecomposer,
};

/// Bits of the multiplier's NTT primes: below `2^51`, the widest modulus
/// the IFMA lanes take.
const PRIME_BITS: u32 = 51;

/// One CRT prime field of the multiplier.
#[derive(Debug, Clone)]
struct PrimeField {
    q: Modulus,
    ntt: NttTable,
    /// `2^w mod q`, `w` the ring precision: what a ring value with bit
    /// `w − 1` set loses to its centred representative.
    wrap: u64,
}

impl PrimeField {
    fn new(q: u64, n: usize, ring_bits: u32) -> Result<Self, TfheError> {
        let wrap = ((1u128 << ring_bits) % u128::from(q)) as u64;
        let q = Modulus::new(q)?;
        Ok(PrimeField { q, ntt: NttTable::new(q, n)?, wrap })
    }

    /// The residue of ring value `v ∈ [0, 2^w)` read centred, as
    /// `v − 2^w` where bit `w − 1` is set: branch-free.
    #[inline]
    fn centred_ring(&self, v: u64, ring_bits: u32) -> u64 {
        let high = (v >> (ring_bits - 1)).wrapping_neg();
        self.q.sub(self.q.reduce(v), self.wrap & high)
    }

    /// `ints` lifted into this field and transformed, into `out`.
    fn transform_ints(&self, ints: &[i64], out: &mut [u64]) {
        for (o, &d) in out.iter_mut().zip(ints) {
            *o = self.q.from_i64(d);
        }
        self.ntt.forward(out);
    }

    /// The residues of `ints ⊛ torus`, from `ints`' transform and written
    /// over `torus`'s prepared form.
    fn mul_transformed(&self, ints_hat: &[u64], prepared: &mut [u64]) {
        for (r, &d) in prepared.iter_mut().zip(ints_hat) {
            *r = self.q.mul(d, *r);
        }
        self.ntt.inverse(prepared);
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
    /// `⌊P/2 / 2^{w−1}⌋`: the largest `Σ|integer coefficients|` a product
    /// (or a lazily accumulated sum of products) may carry against centred
    /// ring values and still lift exactly.
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
    /// Their digit polynomials lifted into one prime field and transformed,
    /// level-major: `a`'s levels, then `b`'s.
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
    /// `T · N · 2^{β-1} < 2^37`.
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
        let primes = generate_ntt_primes(PRIME_BITS, n, 2)?;
        let weight = gadget_weight(n, base_log, terms);
        let (p1, p2) = (u128::from(primes[0]), u128::from(primes[1]));
        let half_ring = ring_bits - 1;
        let two = weight > (p1 / 2) >> half_ring;
        let max_weight = (if two { p1 * p2 } else { p1 } / 2) >> half_ring;
        if weight > max_weight {
            return Err(TfheError::InvalidParams {
                detail: format!(
                    "{terms} base-2^{base_log} digit polynomials of degree {n} at {ring_bits}-bit \
                     precision exceed two {PRIME_BITS}-bit primes"
                ),
            });
        }
        let first = PrimeField::new(primes[0], n, ring_bits)?;
        let second = if two {
            let f2 = PrimeField::new(primes[1], n, ring_bits)?;
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
                *r = f.centred_ring(self.to_ring(t), self.ring_bits);
            }
            f.ntt.forward(res);
        });
    }

    /// Rounds a torus polynomial to the ring precision, reads it centred
    /// in `[−2^{w−1}, 2^{w−1})` and transforms it into every prime field.
    ///
    /// # Panics
    ///
    /// Panics if `poly.len() != n`.
    pub fn prepare(&self, poly: &[u64]) -> PreparedTorusPoly {
        let mut res = vec![0; self.primes() * self.n];
        self.prepare_into(poly, &mut res);
        PreparedTorusPoly { res }
    }

    /// Checks the exactness bound (module docs) for an external product of
    /// `terms` base-`2^base_log` digit polynomials against this multiplier.
    ///
    /// # Panics
    ///
    /// Panics if `terms · N · 2^{β-1} · 2^{w-1} > P/2`.
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
            lifted: vec![0; terms * n],
            res: vec![0; self.primes() * 2 * n],
            forward_ntts: 0,
            inverse_ntts: 0,
        }
    }

    /// The fused kernel (module docs): adds `Σ_i digits_i ⊛ rows_i` to the
    /// `(a, b)` pair `out`, where `digits_i` is the `i`-th digit polynomial
    /// of `ws.input` under `gadget` (level-major, `a`'s then `b`'s) and row
    /// `i` is `rows[i·2·primes·n..]`: the prepared `a`, then the prepared
    /// `b`. At two primes the digits are decomposed again per prime, not
    /// kept.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches. The caller guarantees
    /// [`assert_exact`](Self::assert_exact) for the row count.
    pub(crate) fn decomp_poly_mult_add(
        &self,
        gadget: &SignedDigitDecomposer,
        rows: &[u64],
        ws: &mut Workspace,
        out: [&mut [u64]; 2],
    ) {
        let n = self.n;
        let primes = self.primes();
        let row_len = 2 * primes * n;
        assert_eq!(ws.lifted.len(), 2 * gadget.levels() * n);
        assert_eq!(rows.len(), ws.lifted.len() * 2 * primes);
        assert!(out.iter().all(|o| o.len() == n));
        let Workspace { input, lifted, res, forward_ntts, inverse_ntts } = ws;
        for (p, (f, res)) in self.fields().zip(res.chunks_exact_mut(2 * n)).enumerate() {
            for (input, lifted) in input.iter().zip(lifted.chunks_exact_mut(gadget.levels() * n)) {
                gadget.decompose_lift_into(input, &f.q, lifted);
            }
            for lifted in lifted.chunks_exact_mut(n) {
                f.ntt.forward_lazy(lifted);
                *forward_ntts += 1;
            }
            res.fill(0);
            let lifted = &lifted[..];
            for (key, res) in [p, primes + p].into_iter().zip(res.chunks_exact_mut(n)) {
                let row = |i: usize| (&lifted[i * n..][..n], &rows[i * row_len + key * n..][..n]);
                lazy_mac(&f.q, lifted.len() / n, row, MacSlots, MacSlots, res);
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
                let (q, half) = (self.first.q.value(), self.first.q.value() / 2);
                fhe_math::simd::wide(
                    #[inline(always)]
                    move || {
                        for (o, &r) in out.iter_mut().zip(r1) {
                            let centred = if r > half { r.wrapping_sub(q) } else { r };
                            *o = o.wrapping_add(centred << up);
                        }
                    },
                );
            }
        }
    }

    /// One-shot exact negacyclic product `ints ⊛ torus`, `torus` rounded to
    /// the ring precision.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches, or if `Σ|ints|` exceeds what the
    /// multiplier's primes can lift exactly (`Σ|ints| · 2^{w-1} > P/2`).
    pub fn mul_int_torus(&self, ints: &[i64], torus: &[u64]) -> Vec<u64> {
        let ints_hat = self.transform_ints(ints);
        let mut res = self.prepare(torus).res;
        let mut out = vec![0; self.n];
        self.mul_transformed_add(&ints_hat, &mut res, &mut out);
        out
    }

    /// An integer polynomial lifted into every prime field and transformed
    /// (`primes · n` residues): the operand
    /// [`mul_transformed_add`](Self::mul_transformed_add) takes, so a
    /// polynomial that multiplies many is transformed once.
    ///
    /// # Panics
    ///
    /// Panics if `ints.len() != n`, or if `Σ|ints|` exceeds what the
    /// multiplier's primes can lift exactly (`Σ|ints| · 2^{w-1} > P/2`).
    pub(crate) fn transform_ints(&self, ints: &[i64]) -> Vec<u64> {
        assert_eq!(ints.len(), self.n);
        let weight: u128 = ints.iter().map(|d| u128::from(d.unsigned_abs())).sum();
        assert!(
            weight <= self.max_weight,
            "integer polynomial of weight {weight} is not exact under {} prime(s) at {}-bit ring \
             precision",
            self.primes(),
            self.ring_bits
        );
        let mut res = vec![0; self.primes() * self.n];
        self.per_field(&mut res, |f, r| f.transform_ints(ints, r));
        res
    }

    /// Adds `ints ⊛ torus` to `out`, from `ints_hat` (its
    /// [`transform_ints`](Self::transform_ints)) and `prepared` (the
    /// [`prepare`](Self::prepare)d `torus`), which this overwrites: one
    /// inverse transform per prime.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches.
    pub(crate) fn mul_transformed_add(
        &self,
        ints_hat: &[u64],
        prepared: &mut [u64],
        out: &mut [u64],
    ) {
        assert_eq!(ints_hat.len(), self.primes() * self.n);
        assert_eq!(prepared.len(), ints_hat.len());
        assert_eq!(out.len(), self.n);
        let fields = self.fields().zip(ints_hat.chunks_exact(self.n));
        for ((f, hat), res) in fields.zip(prepared.chunks_exact_mut(self.n)) {
            f.mul_transformed(hat, res);
        }
        self.lift_add(prepared, self.n, out);
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
            // Below 2^51: every preset's transforms and MACs fit the IFMA
            // lanes.
            assert!(m.multiplier().fields().all(|f| f.q.value() < 1 << 51), "N = {}", p.poly_size);
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
            // One base-2^5 level: each input coefficient is its one digit.
            let gadget = SignedDigitDecomposer::new(5, 1).unwrap();
            let mut ws = m.workspace(2);
            ws.input = [&a, &b].map(|d| d.iter().map(|&d| gadget.recompose(&[d])).collect());
            let (mut out_a, mut out_b) = (vec![7u64; n], vec![u64::MAX; n]);
            m.decomp_poly_mult_add(&gadget, &rows, &mut ws, [&mut out_a, &mut out_b]);
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
        // must still come out as −Σ digits. Then rows prepared from torus
        // value 2^63 in every coefficient, whose centred value −2^{w−1} is
        // the largest magnitude: coefficient N − 1 of the sum reaches the
        // exactness bound itself, T·N·2^{β−1}·2^{w−1}. Toy, set II, set I
        // at both precisions (one prime, and two), then 18 rows at toy's
        // ring: three passes of the scalar `lazy_mac` (8 + 8 + 2 rows).
        for (n, ring_bits, base_log, terms) in [
            (64, 64, 10u32, 6usize),
            (2048, 64, 23, 2),
            (1024, 32, 7, 6),
            (1024, 64, 7, 6),
            (64, 64, 7, 18),
        ] {
            let m = NegacyclicMultiplier::with_precision(n, ring_bits, base_log, terms).unwrap();
            m.assert_exact(base_log, terms);
            let minus_one = m.fields().flat_map(|f| vec![f.q.value() - 1; n]);
            let rows: Vec<u64> = minus_one.collect::<Vec<_>>().repeat(2 * terms);
            let gadget = SignedDigitDecomposer::new(base_log, terms / 2).unwrap();
            let extreme = vec![-(1i64 << (base_log - 1)); terms / 2];
            let mut ws = m.workspace(terms);
            ws.input = [(); 2].map(|_| vec![gadget.recompose(&extreme); n]);
            let (mut out_a, mut out_b) = (vec![0u64; n], vec![0u64; n]);
            m.decomp_poly_mult_add(&gadget, &rows, &mut ws, [&mut out_a, &mut out_b]);
            let want = vec![((terms as u64) << (base_log - 1)) << (64 - ring_bits); n];
            assert_eq!((out_a, out_b), (want.clone(), want), "n = {n}, w = {ring_bits}");

            let half = vec![1u64 << 63; n];
            let rows: Vec<u64> = m.prepare(&half).res.repeat(2 * terms);
            let (mut out_a, mut out_b) = (vec![0u64; n], vec![0u64; n]);
            m.decomp_poly_mult_add(&gadget, &rows, &mut ws, [&mut out_a, &mut out_b]);
            let one = schoolbook(&vec![extreme[0]; n], &rounded(&half, ring_bits));
            let want: Vec<u64> = one.iter().map(|&c| c.wrapping_mul(terms as u64)).collect();
            assert_eq!((out_a, out_b), (want.clone(), want), "2^63 rows, n = {n}, w = {ring_bits}");
        }
    }

    #[test]
    #[should_panic(expected = "not exact under 1 prime(s) at 32-bit")]
    fn one_shot_product_rejects_a_weight_one_prime_cannot_lift() {
        // 16 · 2^23 · 2^31 = 2^58 > p/2 ≈ 2^50.
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
