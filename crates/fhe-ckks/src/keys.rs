//! Key material: secret/public keys, hybrid key-switching keys, Galois keys.
//!
//! Hybrid key switching (Han–Ki, the scheme SHARP/ARK and the paper use)
//! splits the chain into `dnum` digits `D_i` with products `Q_i`. The
//! switching key for a target secret `t` is, per digit,
//!
//! ```text
//! ksk_i = ( -a_i·s + e_i + P·T_i·t ,  a_i )   over the full Q·P basis,
//! T_i = (Q/Q_i) · [(Q/Q_i)^{-1} mod Q_i]      (≡ 1 mod Q_i, ≡ 0 mod Q_j)
//! ```
//!
//! `T_i` is the CRT idempotent of digit `i`, so `P·T_i` is `P mod q` on the
//! digit's channels and 0 on every other: the context holds that factor per
//! `(digit, channel)` in Shoup form ([`CkksContext::new`]), and key
//! generation touches only word-sized residues (the accelerator never sees
//! a big integer).

use std::collections::HashMap;

use crate::ciphertext::{Ciphertext, Plaintext};
use crate::{CkksContext, CkksError};
use fhe_math::{galois_ntt_permutation, sample_gaussian, sample_ternary, Domain, Poly, RnsPoly};
use rand::Rng;

/// Samples a uniform RNS polynomial directly in NTT domain.
fn sample_uniform_ntt<R: Rng + ?Sized>(
    ctx: &CkksContext,
    channels: &[usize],
    rng: &mut R,
) -> Vec<Poly> {
    channels
        .iter()
        .map(|&c| {
            let m = ctx.rns().moduli()[c];
            let vals = fhe_math::sample_uniform(m.value(), ctx.n(), rng);
            Poly::from_ntt(vals, m).expect("uniform residues are canonical")
        })
        .collect()
}

/// Lifts signed coefficients onto the given channels and converts to NTT.
fn lift_signed_ntt(ctx: &CkksContext, coeffs: &[i64], channels: &[usize]) -> Vec<Poly> {
    channels
        .iter()
        .map(|&c| {
            let m = ctx.rns().moduli()[c];
            let mut vals = vec![0u64; ctx.n()];
            for (i, &x) in coeffs.iter().enumerate() {
                vals[i] = m.from_i64(x);
            }
            let mut p = Poly::from_coeffs(vals, m).expect("canonical");
            p.to_ntt(ctx.table(c));
            p
        })
        .collect()
}

/// The ternary secret key.
#[derive(Debug, Clone)]
pub struct SecretKey {
    /// Ternary coefficients (needed to derive automorphism keys).
    s_coeffs: Vec<i64>,
    /// `s` over the full `Q ∪ P` basis, NTT domain.
    s_full: Vec<Poly>,
    q_len: usize,
    scale: f64,
}

impl SecretKey {
    /// Samples a fresh ternary secret.
    ///
    /// # Errors
    ///
    /// None: the `Result` is kept only because the frozen benchmark
    /// `.expect`s it.
    pub fn generate<R: Rng + ?Sized>(ctx: &CkksContext, rng: &mut R) -> Result<Self, CkksError> {
        let s_coeffs = sample_ternary(ctx.n(), rng);
        let all: Vec<usize> = (0..ctx.rns().moduli().len()).collect();
        let s_full = lift_signed_ntt(ctx, &s_coeffs, &all);
        Ok(SecretKey { s_coeffs, s_full, q_len: ctx.q_len(), scale: ctx.params().scale() })
    }

    /// The secret's ternary coefficients (testing/keygen use).
    #[doc(hidden)]
    pub fn coefficients(&self) -> &[i64] {
        &self.s_coeffs
    }

    /// `s` on global channel `c`, NTT domain.
    pub(crate) fn s_channel(&self, c: usize) -> &Poly {
        &self.s_full[c]
    }

    /// Symmetric encryption of a plaintext at the plaintext's level.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::Mismatch`] if the plaintext is not NTT-domain
    /// over its level channels.
    pub fn encrypt<R: Rng + ?Sized>(
        &self,
        ctx: &CkksContext,
        pt: &Plaintext,
        rng: &mut R,
    ) -> Result<Ciphertext, CkksError> {
        if pt.poly().domain() != Domain::Ntt {
            return Err(CkksError::Mismatch { detail: "plaintext must be NTT-domain".into() });
        }
        let level = pt.level();
        let channels: Vec<usize> = (0..=level).collect();
        let c1_channels = sample_uniform_ntt(ctx, &channels, rng);
        let noise = sample_gaussian(ctx.params().sigma(), ctx.n(), rng);
        let e_channels = lift_signed_ntt(ctx, &noise, &channels);
        let mut c0_channels = Vec::with_capacity(level + 1);
        for c in 0..=level {
            let m = ctx.rns().moduli()[c];
            let s = &self.s_full[c];
            // c0 = -c1*s + e + m, all point-wise in NTT domain.
            let vals: Vec<u64> = c1_channels[c]
                .coeffs()
                .iter()
                .zip(s.coeffs())
                .zip(e_channels[c].coeffs())
                .zip(pt.poly().channel(c).coeffs())
                .map(|(((&a, &sv), &e), &mv)| m.add(m.add(m.neg(m.mul(a, sv)), e), mv))
                .collect();
            c0_channels.push(Poly::from_ntt(vals, m)?);
        }
        Ok(Ciphertext::from_parts(
            RnsPoly::from_channels(c0_channels)?,
            RnsPoly::from_channels(c1_channels)?,
            level,
            pt.scale(),
        ))
    }

    /// Decrypts a ciphertext: `m = c0 + c1·s` over the ciphertext's level
    /// channels.
    ///
    /// Decryption is the last line of the corruption-detection lattice: it
    /// re-verifies the integrity checksum and refuses ciphertexts whose
    /// noise budget is exhausted (tracked scale above the modulus
    /// product), so faults that slipped past evaluator boundaries still
    /// surface as typed errors rather than silent garbage.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::Mismatch`] on structural inconsistency,
    /// [`CkksError::IntegrityViolation`] on checksum mismatch, and
    /// [`CkksError::BudgetExhausted`] when no budget remains.
    pub fn decrypt(&self, ct: &Ciphertext) -> Result<Plaintext, CkksError> {
        ct.verify_integrity("ckks.decrypt")?;
        let budget = ct.noise_budget_bits();
        if budget < 0.0 {
            return Err(CkksError::BudgetExhausted { budget_bits: budget });
        }
        let level = ct.level();
        let positions: Vec<usize> = (0..=level).collect();
        let channels = positions
            .iter()
            .map(|&c| -> Result<Poly, CkksError> {
                let m = ct.c0().channel(c).modulus();
                // In place: as a `map` … `collect` LLVM auto-vectorizes this
                // loop into SSE2's emulated 64-bit multiplies, ×1.4 slower
                // (DESIGN.md §14.2).
                let mut prod = ct.c1().channel(c).clone();
                for (x, &y) in prod.coeffs_mut().iter_mut().zip(self.s_full[c].coeffs()) {
                    *x = m.mul(*x, y);
                }
                Ok(ct.c0().channel(c).add(&prod)?)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Plaintext::from_parts(RnsPoly::from_channels(channels)?, level, ct.scale()))
    }

    /// Default scale of this key's context.
    #[inline]
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Number of ciphertext primes in this key's context.
    #[inline]
    pub fn q_len(&self) -> usize {
        self.q_len
    }
}

/// A public encryption key `(b, a) = (-a·s + e, a)` over the full Q chain.
#[derive(Debug, Clone)]
pub struct PublicKey {
    b: RnsPoly,
    a: RnsPoly,
}

impl PublicKey {
    /// Derives a public key from the secret.
    pub fn generate<R: Rng + ?Sized>(
        ctx: &CkksContext,
        sk: &SecretKey,
        rng: &mut R,
    ) -> Result<Self, CkksError> {
        let q_channels: Vec<usize> = (0..ctx.q_len()).collect();
        let a_channels = sample_uniform_ntt(ctx, &q_channels, rng);
        let noise = sample_gaussian(ctx.params().sigma(), ctx.n(), rng);
        let e_channels = lift_signed_ntt(ctx, &noise, &q_channels);
        let mut b_channels = Vec::with_capacity(q_channels.len());
        for (i, &c) in q_channels.iter().enumerate() {
            let m = ctx.rns().moduli()[c];
            let s = sk.s_channel(c);
            let vals: Vec<u64> = a_channels[i]
                .coeffs()
                .iter()
                .zip(s.coeffs())
                .zip(e_channels[i].coeffs())
                .map(|((&a, &sv), &e)| m.add(m.neg(m.mul(a, sv)), e))
                .collect();
            b_channels.push(Poly::from_ntt(vals, m)?);
        }
        Ok(PublicKey {
            b: RnsPoly::from_channels(b_channels)?,
            a: RnsPoly::from_channels(a_channels)?,
        })
    }

    /// Public-key encryption at the plaintext's level.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::Mismatch`] on structural inconsistency.
    pub fn encrypt<R: Rng + ?Sized>(
        &self,
        ctx: &CkksContext,
        pt: &Plaintext,
        rng: &mut R,
    ) -> Result<Ciphertext, CkksError> {
        let level = pt.level();
        let u = sample_ternary(ctx.n(), rng);
        let channels: Vec<usize> = (0..=level).collect();
        let u_ntt = lift_signed_ntt(ctx, &u, &channels);
        let e0 =
            lift_signed_ntt(ctx, &sample_gaussian(ctx.params().sigma(), ctx.n(), rng), &channels);
        let e1 =
            lift_signed_ntt(ctx, &sample_gaussian(ctx.params().sigma(), ctx.n(), rng), &channels);
        let mut c0 = Vec::with_capacity(level + 1);
        let mut c1 = Vec::with_capacity(level + 1);
        for c in 0..=level {
            let m = ctx.rns().moduli()[c];
            let b = self.b.channel(c);
            let a = self.a.channel(c);
            let c0_vals: Vec<u64> = b
                .coeffs()
                .iter()
                .zip(u_ntt[c].coeffs())
                .zip(e0[c].coeffs())
                .zip(pt.poly().channel(c).coeffs())
                .map(|(((&bv, &uv), &ev), &mv)| m.add(m.add(m.mul(bv, uv), ev), mv))
                .collect();
            let c1_vals: Vec<u64> = a
                .coeffs()
                .iter()
                .zip(u_ntt[c].coeffs())
                .zip(e1[c].coeffs())
                .map(|((&av, &uv), &ev)| m.add(m.mul(av, uv), ev))
                .collect();
            c0.push(Poly::from_ntt(c0_vals, m)?);
            c1.push(Poly::from_ntt(c1_vals, m)?);
        }
        Ok(Ciphertext::from_parts(
            RnsPoly::from_channels(c0)?,
            RnsPoly::from_channels(c1)?,
            level,
            pt.scale(),
        ))
    }
}

/// A hybrid key-switching key: one `(b_i, a_i)` pair per digit over the
/// full `Q ∪ P` basis, NTT domain.
#[derive(Debug, Clone)]
pub struct SwitchKey {
    digit_keys: Vec<(RnsPoly, RnsPoly)>,
}

impl SwitchKey {
    /// Generates a switching key from target secret `t` (given as NTT-domain
    /// channels over the full basis) to `s`.
    pub(crate) fn generate<R: Rng + ?Sized>(
        ctx: &CkksContext,
        sk: &SecretKey,
        target: &[Poly],
        rng: &mut R,
    ) -> Result<Self, CkksError> {
        let all: Vec<usize> = (0..ctx.rns().moduli().len()).collect();
        let mut digit_keys = Vec::with_capacity(ctx.digits().len());
        for digit in 0..ctx.digits().len() {
            let a_channels = sample_uniform_ntt(ctx, &all, rng);
            let noise = sample_gaussian(ctx.params().sigma(), ctx.n(), rng);
            let e_channels = lift_signed_ntt(ctx, &noise, &all);

            let b_channels = all
                .iter()
                .enumerate()
                .map(|(pos, &c)| -> Result<Poly, CkksError> {
                    let m = ctx.rns().moduli()[c];
                    let f = ctx.key_factor(digit, c);
                    let s = sk.s_channel(c);
                    let t = &target[c];
                    let vals: Vec<u64> = a_channels[pos]
                        .coeffs()
                        .iter()
                        .zip(s.coeffs())
                        .zip(e_channels[pos].coeffs())
                        .zip(t.coeffs())
                        .map(|(((&a, &sv), &e), &tv)| {
                            m.add(m.add(m.neg(m.mul(a, sv)), e), m.mul_shoup(tv, f))
                        })
                        .collect();
                    Ok(Poly::from_ntt(vals, m)?)
                })
                .collect::<Result<Vec<_>, _>>()?;
            digit_keys
                .push((RnsPoly::from_channels(b_channels)?, RnsPoly::from_channels(a_channels)?));
        }
        Ok(SwitchKey { digit_keys })
    }

    /// The per-digit `(b_i, a_i)` pairs over the full basis.
    #[inline]
    pub fn digit_keys(&self) -> &[(RnsPoly, RnsPoly)] {
        &self.digit_keys
    }
}

/// The relinearization key (switching key for `s²`).
#[derive(Debug, Clone)]
pub struct RelinKey(pub(crate) SwitchKey);

impl RelinKey {
    /// Generates the relinearization key.
    ///
    /// # Errors
    ///
    /// Propagates key-generation failures.
    pub fn generate<R: Rng + ?Sized>(
        ctx: &CkksContext,
        sk: &SecretKey,
        rng: &mut R,
    ) -> Result<Self, CkksError> {
        // target = s² channel-wise (NTT domain makes this point-wise).
        let all = 0..ctx.rns().moduli().len();
        let target: Vec<Poly> = all
            .map(|c| {
                let m = ctx.rns().moduli()[c];
                // In place, like `SecretKey::decrypt`'s product: not vectorized.
                let mut s2 = sk.s_channel(c).clone();
                for x in s2.coeffs_mut() {
                    *x = m.mul(*x, *x);
                }
                s2
            })
            .collect();
        Ok(RelinKey(SwitchKey::generate(ctx, sk, &target, rng)?))
    }

    /// The underlying switching key.
    #[inline]
    pub fn switch_key(&self) -> &SwitchKey {
        &self.0
    }
}

/// Galois element for a left slot rotation by `r` (possibly negative) in a
/// ring of degree `n`: `5^r mod 2N`.
pub fn galois_element(n: usize, r: isize) -> usize {
    let slots = n / 2;
    let r = r.rem_euclid(slots as isize) as usize;
    let two_n = 2 * n;
    let mut g = 1usize;
    for _ in 0..r {
        g = (g * 5) % two_n;
    }
    g
}

/// Galois element for complex conjugation: `2N − 1`.
pub fn conjugation_element(n: usize) -> usize {
    2 * n - 1
}

/// `s(X^g)` over the full basis, NTT domain: the gather of `s`'s NTT image
/// through [`galois_ntt_permutation`] — the exact identity the rotations
/// apply to ciphertexts, so no transform is run.
fn galois_target(ctx: &CkksContext, sk: &SecretKey, g: usize) -> Result<Vec<Poly>, CkksError> {
    let perm = galois_ntt_permutation(ctx.n(), g)?;
    (0..ctx.rns().moduli().len())
        .map(|c| {
            let s = sk.s_channel(c);
            let vals = perm.iter().map(|&i| s.coeffs()[i as usize]).collect();
            Ok(Poly::from_ntt(vals, s.modulus())?)
        })
        .collect()
}

/// A set of Galois keys indexed by Galois element.
#[derive(Debug, Clone, Default)]
pub struct GaloisKeys {
    keys: HashMap<usize, SwitchKey>,
    n: usize,
}

impl GaloisKeys {
    /// Generates keys for the given rotations (and optionally conjugation).
    ///
    /// # Errors
    ///
    /// Propagates key-generation failures.
    pub fn generate<R: Rng + ?Sized>(
        ctx: &CkksContext,
        sk: &SecretKey,
        rotations: &[isize],
        conjugation: bool,
        rng: &mut R,
    ) -> Result<Self, CkksError> {
        let mut elements: Vec<usize> =
            rotations.iter().map(|&r| galois_element(ctx.n(), r)).collect();
        if conjugation {
            elements.push(conjugation_element(ctx.n()));
        }
        elements.sort_unstable();
        elements.dedup();
        let mut keys = HashMap::with_capacity(elements.len());
        for g in elements {
            let target = galois_target(ctx, sk, g)?;
            keys.insert(g, SwitchKey::generate(ctx, sk, &target, rng)?);
        }
        Ok(GaloisKeys { keys, n: ctx.n() })
    }

    /// The key for Galois element `g`, if generated.
    pub fn key_for_element(&self, g: usize) -> Option<&SwitchKey> {
        self.keys.get(&g)
    }

    /// The key for a slot rotation by `r`.
    pub fn rotation_key(&self, r: isize) -> Option<&SwitchKey> {
        self.keys.get(&galois_element(self.n, r))
    }

    /// The conjugation key, if generated.
    pub fn conjugation_key(&self) -> Option<&SwitchKey> {
        self.keys.get(&conjugation_element(self.n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CkksParams, Encoder};
    use fhe_math::{MixedRadix, Modulus, UBig};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup() -> (CkksContext, ChaCha8Rng) {
        (CkksContext::new(CkksParams::toy().unwrap()).unwrap(), ChaCha8Rng::seed_from_u64(42))
    }

    #[test]
    fn key_factors_match_the_bigint_derivation() {
        // P·Q̂_i·[Q̂_i⁻¹]_{Q_i} mod m, the slow way — big-integer cofactors,
        // the digit-local inverse through its mixed-radix digits — on every
        // channel of Q ∪ P, against the context's table (built from the CRT
        // identity instead).
        for params in [CkksParams::toy().unwrap(), CkksParams::small().unwrap()] {
            let ctx = CkksContext::new(params).unwrap();
            let p = ctx.p_product();
            for (i, digit) in ctx.digits().iter().enumerate() {
                let outside = (0..ctx.q_len()).filter(|c| !digit.contains(c));
                let qhat = UBig::product_of(outside.map(|c| ctx.q_moduli()[c].value()));
                let digit_moduli: Vec<Modulus> = digit.iter().map(|&c| ctx.q_moduli()[c]).collect();
                let radix = MixedRadix::new(&digit_moduli).unwrap();
                let mut v: Vec<u64> =
                    digit_moduli.iter().map(|m| m.inv(qhat.rem_u64(m.value())).unwrap()).collect();
                radix.to_digits(&mut v);
                let inv = v.iter().zip(&digit_moduli).rev().fold(UBig::zero(), |acc, (&d, m)| {
                    acc.mul_u64(m.value()).add(&UBig::from_u64(d))
                });
                for (c, m) in ctx.rns().moduli().iter().enumerate() {
                    let t = m.mul(qhat.rem_u64(m.value()), inv.rem_u64(m.value()));
                    let want = m.mul(p.rem_u64(m.value()), t);
                    if c < ctx.q_len() {
                        assert_eq!(t, u64::from(digit.contains(&c)), "T_{i} on channel {c}");
                    }
                    assert_eq!(ctx.key_factor(i, c), m.shoup(want), "digit {i} channel {c}");
                }
            }
        }
    }

    #[test]
    fn galois_targets_equal_the_coefficient_domain_construction() {
        // s(X^g) built coefficient by coefficient and lifted through the
        // forward transforms — the construction the gather replaced.
        for params in [CkksParams::toy().unwrap(), CkksParams::small().unwrap()] {
            let ctx = CkksContext::new(params).unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(9);
            let sk = SecretKey::generate(&ctx, &mut rng).unwrap();
            let n = ctx.n();
            let all: Vec<usize> = (0..ctx.rns().moduli().len()).collect();
            let mut elements: Vec<usize> = [1, 2, 5, -1].map(|r| galois_element(n, r)).to_vec();
            elements.push(conjugation_element(n));
            for g in elements {
                let mut s_g = vec![0i64; n];
                for (i, &c) in sk.coefficients().iter().enumerate() {
                    let e = (i * g) & (2 * n - 1);
                    if e < n {
                        s_g[e] += c;
                    } else {
                        s_g[e - n] -= c;
                    }
                }
                let want = lift_signed_ntt(&ctx, &s_g, &all);
                let got = galois_target(&ctx, &sk, g).unwrap();
                for c in 0..all.len() {
                    assert_eq!(got[c].coeffs(), want[c].coeffs(), "g {g} channel {c}");
                }
            }
        }
    }

    #[test]
    fn symmetric_encrypt_decrypt() {
        let (ctx, mut rng) = setup();
        let sk = SecretKey::generate(&ctx, &mut rng).unwrap();
        let enc = Encoder::new(&ctx);
        let values = vec![1.0, -2.5, 0.125, 7.0];
        let pt = enc.encode(&values).unwrap();
        let ct = sk.encrypt(&ctx, &pt, &mut rng).unwrap();
        let back = enc.decode(&sk.decrypt(&ct).unwrap()).unwrap();
        for (i, &v) in values.iter().enumerate() {
            assert!((back[i] - v).abs() < 1e-3, "slot {i}: {} vs {v}", back[i]);
        }
    }

    #[test]
    fn public_key_encrypt_decrypt() {
        let (ctx, mut rng) = setup();
        let sk = SecretKey::generate(&ctx, &mut rng).unwrap();
        let pk = PublicKey::generate(&ctx, &sk, &mut rng).unwrap();
        let enc = Encoder::new(&ctx);
        let values = vec![0.5, 4.25, -1.0];
        let pt = enc.encode(&values).unwrap();
        let ct = pk.encrypt(&ctx, &pt, &mut rng).unwrap();
        let back = enc.decode(&sk.decrypt(&ct).unwrap()).unwrap();
        for (i, &v) in values.iter().enumerate() {
            assert!((back[i] - v).abs() < 1e-2, "slot {i}: {} vs {v}", back[i]);
        }
    }

    #[test]
    fn galois_elements() {
        assert_eq!(galois_element(64, 0), 1);
        assert_eq!(galois_element(64, 1), 5);
        assert_eq!(galois_element(64, 2), 25);
        // Negative rotations wrap.
        let slots = 32isize;
        assert_eq!(galois_element(64, -1), galois_element(64, slots - 1));
        assert_eq!(conjugation_element(64), 127);
    }

    #[test]
    fn galois_keys_lookup() {
        let (ctx, mut rng) = setup();
        let sk = SecretKey::generate(&ctx, &mut rng).unwrap();
        let gk = GaloisKeys::generate(&ctx, &sk, &[1, 2], true, &mut rng).unwrap();
        assert!(gk.rotation_key(1).is_some());
        assert!(gk.rotation_key(2).is_some());
        assert!(gk.rotation_key(3).is_none());
        assert!(gk.conjugation_key().is_some());
    }
}
