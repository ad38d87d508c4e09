//! Single-modulus polynomials over `Z_q[X]/(X^N + 1)`.
//!
//! [`Poly`] tracks which *domain* (coefficient or NTT) its data lives in, so
//! mixing representations is a programming error caught at the call site
//! rather than silent corruption. The RNS layer ([`crate::RnsPoly`]) stacks
//! one `Poly` per channel.

use crate::{simd, MathError, Modulus, NttTable};

/// The representation domain of a polynomial.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// Coefficient (power-basis) representation.
    Coefficient,
    /// Evaluation (NTT) representation in the table's matched order.
    Ntt,
}

/// A dense polynomial modulo a single word-sized prime.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), fhe_math::MathError> {
/// use fhe_math::{generate_ntt_primes, Modulus, NttTable, Poly};
/// let q = Modulus::new(generate_ntt_primes(36, 32, 1)?[0])?;
/// let table = NttTable::new(q, 32)?;
/// let x = Poly::from_coeffs(vec![0, 1].into_iter().chain(std::iter::repeat(0)).take(32).collect(), q)?;
/// let mut x2 = x.mul(&x, &table)?; // result is in NTT domain
/// x2.to_coeff(&table);
/// assert_eq!(x2.coeffs()[2], 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Poly {
    coeffs: Vec<u64>,
    modulus: Modulus,
    domain: Domain,
    /// When `true` the NTT-domain values are *lazy* residues in `[0, 2q)`
    /// (Harvey range) instead of canonical `[0, q)`. Lazy polynomials are
    /// transient pipeline intermediates: element-wise `add`/`sub` reject
    /// them, `mul` tolerates them, and [`Poly::normalize`] canonicalizes.
    lazy: bool,
}

impl Poly {
    /// Creates the zero polynomial of degree `n` in coefficient domain.
    pub fn zero(n: usize, modulus: Modulus) -> Self {
        Poly { coeffs: vec![0; n], modulus, domain: Domain::Coefficient, lazy: false }
    }

    /// Wraps raw coefficients (must already be canonical, `< q`). Takes
    /// ownership: the polynomial's storage is the vector handed in, not a
    /// copy of it.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::InvalidParameter`] if any coefficient is `≥ q`.
    pub fn from_coeffs(coeffs: Vec<u64>, modulus: Modulus) -> Result<Self, MathError> {
        if let Some(&bad) = coeffs.iter().find(|&&c| c >= modulus.value()) {
            return Err(MathError::InvalidParameter {
                detail: format!("coefficient {bad} not reduced modulo {}", modulus.value()),
            });
        }
        Ok(Poly { coeffs, modulus, domain: Domain::Coefficient, lazy: false })
    }

    /// Wraps raw NTT-domain values (must already be canonical), taking
    /// ownership like [`Poly::from_coeffs`].
    ///
    /// # Errors
    ///
    /// Returns [`MathError::InvalidParameter`] if any value is `≥ q`.
    pub fn from_ntt(values: Vec<u64>, modulus: Modulus) -> Result<Self, MathError> {
        let mut p = Poly::from_coeffs(values, modulus)?;
        p.domain = Domain::Ntt;
        Ok(p)
    }

    /// The polynomial degree (vector length).
    #[inline]
    pub fn n(&self) -> usize {
        self.coeffs.len()
    }

    /// The modulus.
    #[inline]
    pub fn modulus(&self) -> Modulus {
        self.modulus
    }

    /// Which domain the data currently lives in.
    #[inline]
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// Raw data access (interpretation depends on [`Poly::domain`]).
    #[inline]
    pub fn coeffs(&self) -> &[u64] {
        &self.coeffs
    }

    /// Mutable raw data access.
    #[inline]
    pub fn coeffs_mut(&mut self) -> &mut [u64] {
        &mut self.coeffs
    }

    /// Whether the values are lazy Harvey residues in `[0, 2q)` rather
    /// than canonical `[0, q)` (see [`Poly::to_ntt_lazy`]).
    #[inline]
    pub fn is_lazy(&self) -> bool {
        self.lazy
    }

    /// Canonicalizes lazy residues in place (one conditional subtraction
    /// per element; no-op when already canonical).
    pub fn normalize(&mut self) {
        if self.lazy {
            simd::reduce_2q_slice(&mut self.coeffs, self.modulus.value());
            self.lazy = false;
        }
    }

    /// Converts to NTT domain in place (no-op if already there). Output is
    /// canonical; the final butterfly stage fuses the reduction, so this
    /// costs no extra pass over [`Poly::to_ntt_lazy`].
    pub fn to_ntt(&mut self, table: &NttTable) {
        if self.domain == Domain::Coefficient {
            table.forward(&mut self.coeffs);
            self.domain = Domain::Ntt;
        }
    }

    /// Converts to NTT domain leaving values in the lazy `[0, 2q)` range —
    /// the fast path for pipelines that immediately feed the result into a
    /// lazy-tolerant consumer ([`Poly::mul`], `inverse`, Barrett dot
    /// products). No-op if already in NTT domain.
    pub fn to_ntt_lazy(&mut self, table: &NttTable) {
        if self.domain == Domain::Coefficient {
            table.forward_lazy(&mut self.coeffs);
            self.domain = Domain::Ntt;
            self.lazy = true;
        }
    }

    /// Converts to coefficient domain in place (no-op if already there).
    /// Accepts lazy input; output is always canonical.
    pub fn to_coeff(&mut self, table: &NttTable) {
        if self.domain == Domain::Ntt {
            table.inverse(&mut self.coeffs);
            self.domain = Domain::Coefficient;
            self.lazy = false;
        }
    }

    /// Element-wise sum; both operands must share modulus and domain.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::BasisMismatch`] on modulus/domain/length
    /// disagreement.
    pub fn add(&self, other: &Poly) -> Result<Poly, MathError> {
        self.check_compatible(other)?;
        let mut out = self.clone();
        simd::add_mod_slice(&mut out.coeffs, &other.coeffs, self.modulus.value());
        Ok(out)
    }

    /// Element-wise difference.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::BasisMismatch`] on modulus/domain/length
    /// disagreement.
    pub fn sub(&self, other: &Poly) -> Result<Poly, MathError> {
        self.check_compatible(other)?;
        let mut out = self.clone();
        simd::sub_mod_slice(&mut out.coeffs, &other.coeffs, self.modulus.value());
        Ok(out)
    }

    /// Negacyclic product. Operands may be in either domain (and may be
    /// lazy — the Barrett point-wise product tolerates `[0, 2q)` inputs);
    /// they are transformed as needed and the canonical result is returned
    /// in NTT domain.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::BasisMismatch`] if moduli or lengths differ, or
    /// the table size does not match.
    pub fn mul(&self, other: &Poly, table: &NttTable) -> Result<Poly, MathError> {
        if self.modulus != other.modulus || self.n() != other.n() || table.n() != self.n() {
            return Err(MathError::BasisMismatch { detail: "mul operands/table disagree" });
        }
        // The internal forwards stay in the lazy range: the Barrett
        // reduction of the point-wise product maps every representative to
        // the same canonical residue, so the result is bit-identical to the
        // eager path with one fewer reduction pass per operand.
        let mut a = self.clone();
        let mut b = other.clone();
        a.to_ntt_lazy(table);
        b.to_ntt_lazy(table);
        let mut out = a;
        simd::mul_mod_slice(&mut out.coeffs, &b.coeffs, &self.modulus);
        out.lazy = false;
        Ok(out)
    }

    /// Multiplies every entry by a scalar (domain-agnostic, accepts lazy
    /// input; the result is canonical).
    pub fn scalar_mul(&self, scalar: u64) -> Poly {
        let m = &self.modulus;
        let s = m.reduce(scalar);
        let sh = m.shoup(s);
        let mut out = self.clone();
        out.normalize();
        simd::mul_shoup_slice(&mut out.coeffs, sh, m.value());
        out
    }

    /// Negates every entry (domain-agnostic, accepts lazy input; the
    /// result is canonical).
    pub fn neg(&self) -> Poly {
        let mut out = self.clone();
        out.normalize();
        simd::neg_mod_slice(&mut out.coeffs, self.modulus.value());
        out
    }

    /// Applies the Galois automorphism `X ↦ X^g` (coefficient domain only;
    /// `g` must be odd so the map is a ring automorphism of
    /// `Z_q[X]/(X^N+1)`).
    ///
    /// # Errors
    ///
    /// Returns [`MathError::InvalidParameter`] if `g` is even,
    /// [`MathError::BasisMismatch`] if called in NTT domain, or
    /// [`MathError::InvalidDegree`] if the length is not a power of two.
    pub fn automorphism(&self, g: usize) -> Result<Poly, MathError> {
        if self.domain != Domain::Coefficient {
            return Err(MathError::BasisMismatch {
                detail: "automorphism requires coefficient domain",
            });
        }
        if g.is_multiple_of(2) {
            return Err(MathError::InvalidParameter {
                detail: format!("automorphism exponent {g} must be odd"),
            });
        }
        let n = self.n();
        if !n.is_power_of_two() {
            return Err(MathError::InvalidDegree { degree: n });
        }
        let m = &self.modulus;
        let mut out = vec![0u64; n];
        // n is a power of two: reduce the exponent mod 2n with a mask.
        let (g, mask) = (g & (2 * n - 1), 2 * n - 1);
        for (i, &c) in self.coeffs.iter().enumerate() {
            let e = (i * g) & mask;
            if e < n {
                out[e] = m.add(out[e], c);
            } else {
                out[e - n] = m.sub(out[e - n], c);
            }
        }
        Ok(Poly { coeffs: out, modulus: self.modulus, domain: Domain::Coefficient, lazy: false })
    }

    fn check_compatible(&self, other: &Poly) -> Result<(), MathError> {
        if self.modulus != other.modulus {
            return Err(MathError::BasisMismatch { detail: "moduli differ" });
        }
        if self.n() != other.n() {
            return Err(MathError::BasisMismatch { detail: "lengths differ" });
        }
        if self.domain != other.domain {
            return Err(MathError::BasisMismatch { detail: "domains differ" });
        }
        if self.lazy || other.lazy {
            return Err(MathError::BasisMismatch {
                detail: "element-wise op on lazy operand; normalize first",
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate_ntt_primes;

    fn ctx(n: usize) -> (Modulus, NttTable) {
        let q = Modulus::new(generate_ntt_primes(36, n, 1).unwrap()[0]).unwrap();
        (q, NttTable::new(q, n).unwrap())
    }

    #[test]
    fn add_sub_scalar_neg() {
        let (q, _) = ctx(16);
        let a = Poly::from_coeffs((0..16).collect(), q).unwrap();
        let b = Poly::from_coeffs((16..32).collect(), q).unwrap();
        let s = a.add(&b).unwrap();
        assert_eq!(s.sub(&b).unwrap(), a);
        assert_eq!(a.add(&a.neg()).unwrap(), Poly::zero(16, q));
        assert_eq!(a.scalar_mul(3).coeffs()[5], 15);
    }

    #[test]
    fn mul_is_negacyclic() {
        let (q, t) = ctx(16);
        let mut xn1 = Poly::zero(16, q);
        xn1.coeffs_mut()[15] = 1;
        let mut x = Poly::zero(16, q);
        x.coeffs_mut()[1] = 1;
        let mut prod = xn1.mul(&x, &t).unwrap();
        prod.to_coeff(&t);
        assert_eq!(prod.coeffs()[0], q.value() - 1);
    }

    #[test]
    fn automorphism_composition() {
        let (q, _) = ctx(16);
        let a = Poly::from_coeffs((1..=16).collect(), q).unwrap();
        // g = 5 applied then its inverse exponent must round trip.
        let g = 5usize;
        // find inverse of 5 mod 32
        let mut ginv = 0;
        for cand in (1..32).step_by(2) {
            if (cand * g) % 32 == 1 {
                ginv = cand;
            }
        }
        let b = a.automorphism(g).unwrap().automorphism(ginv).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn automorphism_multiplicative() {
        // aut_g(a * b) == aut_g(a) * aut_g(b)
        let (q, t) = ctx(32);
        let a = Poly::from_coeffs((0..32).map(|i| i * 7 % q.value()).collect(), q).unwrap();
        let b = Poly::from_coeffs((0..32).map(|i| i * i % q.value()).collect(), q).unwrap();
        let mut ab = a.mul(&b, &t).unwrap();
        ab.to_coeff(&t);
        let lhs = ab.automorphism(5).unwrap();
        let mut rhs = a.automorphism(5).unwrap().mul(&b.automorphism(5).unwrap(), &t).unwrap();
        rhs.to_coeff(&t);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn domain_mixing_rejected() {
        let (q, t) = ctx(16);
        let a = Poly::from_coeffs((0..16).collect(), q).unwrap();
        let mut b = a.clone();
        b.to_ntt(&t);
        assert!(a.add(&b).is_err());
        assert!(b.automorphism(5).is_err());
        assert!(a.automorphism(4).is_err());
    }

    #[test]
    fn validates_coefficients() {
        let (q, _) = ctx(16);
        assert!(Poly::from_coeffs(vec![q.value(); 16], q).is_err());
    }

    #[test]
    fn constructors_keep_the_storage_they_are_handed() {
        let (q, _) = ctx(16);
        let (a, b): (Vec<u64>, Vec<u64>) = ((0..16).collect(), (16..32).collect());
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        assert_eq!(Poly::from_coeffs(a, q).unwrap().coeffs().as_ptr(), pa, "no copy");
        assert_eq!(Poly::from_ntt(b, q).unwrap().coeffs().as_ptr(), pb, "no copy");
    }

    #[test]
    fn lazy_roundtrip_and_guards() {
        let (q, t) = ctx(32);
        let a = Poly::from_coeffs((0..32).map(|i| i * 3 % q.value()).collect(), q).unwrap();
        let mut lazy = a.clone();
        lazy.to_ntt_lazy(&t);
        assert!(lazy.is_lazy());
        assert!(lazy.coeffs().iter().all(|&x| x < 2 * q.value()));
        // Normalizing the lazy transform matches the eager transform
        // bit-for-bit.
        let mut eager = a.clone();
        eager.to_ntt(&t);
        let mut norm = lazy.clone();
        norm.normalize();
        assert!(!norm.is_lazy());
        assert_eq!(norm, eager);
        // Element-wise ops refuse lazy operands...
        assert!(lazy.add(&eager).is_err());
        assert!(eager.sub(&lazy).is_err());
        // ...but the inverse transform and scalar ops accept them.
        let mut back = lazy.clone();
        back.to_coeff(&t);
        assert_eq!(back, a);
        assert_eq!(lazy.neg(), eager.neg());
        assert_eq!(lazy.scalar_mul(7), eager.scalar_mul(7));
    }

    #[test]
    fn mul_tolerates_lazy_operands() {
        let (q, t) = ctx(32);
        let a = Poly::from_coeffs((0..32).map(|i| (i * 11 + 3) % q.value()).collect(), q).unwrap();
        let b = Poly::from_coeffs((0..32).map(|i| (i * i) % q.value()).collect(), q).unwrap();
        // Reference: eager NTT operands.
        let (mut ea, mut eb) = (a.clone(), b.clone());
        ea.to_ntt(&t);
        eb.to_ntt(&t);
        let reference = ea.mul(&eb, &t).unwrap();
        // Lazy NTT operands must give the bit-identical canonical product.
        let (mut la, mut lb) = (a.clone(), b.clone());
        la.to_ntt_lazy(&t);
        lb.to_ntt_lazy(&t);
        let lazy_prod = la.mul(&lb, &t).unwrap();
        assert!(!lazy_prod.is_lazy());
        assert_eq!(lazy_prod, reference);
        // And the coefficient-domain entry point agrees too.
        assert_eq!(a.mul(&b, &t).unwrap(), reference);
    }
}
