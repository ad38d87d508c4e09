//! The BGV context: keys, encryption, homomorphic evaluation.

use crate::encoding::BgvEncoder;
use crate::{BgvError, BgvParams};
use fhe_math::{
    par, sample_gaussian, sample_ternary, sample_uniform, MixedRadix, Modulus, Poly, RnsBasis,
    RnsContext, RnsPoly, Scratch,
};
use rand::Rng;

/// Work estimate (element-operations) for one `n`-point NTT channel.
fn ntt_work(n: usize) -> u64 {
    (n as u64) * u64::from(usize::BITS - n.leading_zeros())
}

/// Precomputed BGV state: RNS context over `Q ∪ {p}`, the batching
/// encoder, and derived constants.
#[derive(Debug)]
pub struct BgvContext {
    params: BgvParams,
    rns: RnsContext,
    encoder: BgvEncoder,
    t: Modulus,
    /// Exact reconstruction over `q_0 … q_L` (a level is a prefix).
    mixed_radix: MixedRadix,
}

/// The ternary secret key.
#[derive(Debug, Clone)]
pub struct BgvSecretKey {
    s_coeffs: Vec<i64>,
    /// `s` over the full basis, NTT domain.
    s_full: Vec<Poly>,
}

/// A BGV ciphertext `(c0, c1)` with `c0 + c1·s = m + t·e (mod Q_level)`,
/// NTT domain over channels `0..=level`.
#[derive(Debug, Clone)]
pub struct BgvCiphertext {
    c0: RnsPoly,
    c1: RnsPoly,
    level: usize,
    /// Integrity checksum over both components, `None` when sealing is
    /// disabled (feature or runtime switch).
    seal: Option<u64>,
}

impl PartialEq for BgvCiphertext {
    fn eq(&self, other: &Self) -> bool {
        self.c0 == other.c0 && self.c1 == other.c1 && self.level == other.level
    }
}

impl BgvCiphertext {
    fn new(c0: RnsPoly, c1: RnsPoly, level: usize) -> Self {
        let seal = fhe_math::integrity::seal(&[&c0, &c1]);
        BgvCiphertext { c0, c1, level, seal }
    }

    /// Current modulus-chain level.
    #[inline]
    pub fn level(&self) -> usize {
        self.level
    }

    /// Verifies the integrity checksum against the current component
    /// contents.
    ///
    /// # Errors
    ///
    /// Returns [`BgvError::IntegrityViolation`] when the components no
    /// longer match the seal recorded at construction.
    pub fn verify_integrity(&self, context: &'static str) -> Result<(), BgvError> {
        match fhe_math::integrity::verify(&[&self.c0, &self.c1], self.seal, context) {
            Ok(()) => Ok(()),
            Err(_) => Err(BgvError::IntegrityViolation { context }),
        }
    }

    /// Mutable access to `(c0, c1)` **without** resealing — the fault
    /// injection surface. Call [`BgvCiphertext::reseal`] after a
    /// legitimate mutation.
    #[doc(hidden)]
    pub fn components_mut(&mut self) -> (&mut RnsPoly, &mut RnsPoly) {
        (&mut self.c0, &mut self.c1)
    }

    /// Recomputes the integrity seal after a legitimate mutation.
    pub fn reseal(&mut self) {
        self.seal = fhe_math::integrity::seal(&[&self.c0, &self.c1]);
    }
}

/// The relinearization key: one `(b_i, a_i)` pair per ciphertext prime
/// (single-channel digits), over the full `Q ∪ {p}` basis.
#[derive(Debug, Clone)]
pub struct BgvRelinKey {
    digits: Vec<(RnsPoly, RnsPoly)>,
}

impl BgvContext {
    /// Builds the context.
    ///
    /// # Errors
    ///
    /// Propagates construction failures.
    pub fn new(params: BgvParams) -> Result<Self, BgvError> {
        let mut moduli = Vec::with_capacity(params.moduli().len() + 1);
        for &q in params.moduli() {
            moduli.push(Modulus::new(q)?);
        }
        moduli.push(Modulus::new(params.special())?);
        let rns = RnsContext::new(params.n(), RnsBasis::new(moduli)?)?;
        let encoder = BgvEncoder::new(params.t(), params.n())?;
        let t = Modulus::new(params.t())?;
        let mixed_radix = MixedRadix::new(&rns.moduli()[..params.moduli().len()])?;
        Ok(BgvContext { params, rns, encoder, t, mixed_radix })
    }

    /// The parameter set.
    #[inline]
    pub fn params(&self) -> &BgvParams {
        &self.params
    }

    /// The batching encoder.
    #[inline]
    pub fn encoder(&self) -> &BgvEncoder {
        &self.encoder
    }

    /// Number of SIMD slots (`N`).
    #[inline]
    pub fn slots(&self) -> usize {
        self.params.n()
    }

    fn q_len(&self) -> usize {
        self.params.moduli().len()
    }

    fn p_index(&self) -> usize {
        self.q_len()
    }

    /// Samples a secret key.
    pub fn generate_secret_key<R: Rng + ?Sized>(&self, rng: &mut R) -> BgvSecretKey {
        let s_coeffs = sample_ternary(self.params.n(), rng);
        let s_full =
            (0..self.rns.moduli().len()).map(|c| self.lift_signed_ntt(&s_coeffs, c)).collect();
        BgvSecretKey { s_coeffs, s_full }
    }

    fn lift_signed_ntt(&self, coeffs: &[i64], channel: usize) -> Poly {
        let m = self.rns.moduli()[channel];
        let mut vals = vec![0u64; self.params.n()];
        for (v, &c) in vals.iter_mut().zip(coeffs) {
            *v = m.from_i64(c);
        }
        let mut p = Poly::from_coeffs(vals, m).expect("canonical");
        p.to_ntt(self.rns.table(channel));
        p
    }

    /// Encrypts slot values at the top level.
    ///
    /// # Errors
    ///
    /// Propagates encoding failures.
    pub fn encrypt<R: Rng + ?Sized>(
        &self,
        sk: &BgvSecretKey,
        slots: &[u64],
        rng: &mut R,
    ) -> Result<BgvCiphertext, BgvError> {
        let level = self.params.max_level();
        let n = self.params.n();
        let m_coeffs = self.encoder.encode(slots)?;
        let noise = sample_gaussian(self.params.sigma(), n, rng);
        let t = self.params.t();
        let mut c0_ch = Vec::with_capacity(level + 1);
        let mut c1_ch = Vec::with_capacity(level + 1);
        for c in 0..=level {
            let md = self.rns.moduli()[c];
            let a = Poly::from_ntt(sample_uniform(md.value(), n, rng), md)?;
            // t·e + m, lifted then NTT'd.
            let mut vals = vec![0u64; n];
            for i in 0..n {
                let te = md.from_i64(noise[i].wrapping_mul(t as i64));
                vals[i] = md.add(te, md.reduce(m_coeffs[i]));
            }
            let mut payload = Poly::from_coeffs(vals, md)?;
            payload.to_ntt(self.rns.table(c));
            // c0 = -a·s + t·e + m.
            let s = &sk.s_full[c];
            let c0_vals: Vec<u64> = a
                .coeffs()
                .iter()
                .zip(s.coeffs())
                .zip(payload.coeffs())
                .map(|((&av, &sv), &pv)| md.add(md.neg(md.mul(av, sv)), pv))
                .collect();
            c0_ch.push(Poly::from_ntt(c0_vals, md)?);
            c1_ch.push(a);
        }
        Ok(BgvCiphertext::new(
            RnsPoly::from_channels(c0_ch)?,
            RnsPoly::from_channels(c1_ch)?,
            level,
        ))
    }

    /// Decrypts to slot values.
    ///
    /// Before decoding, the ciphertext must pass its integrity checksum
    /// and the **measured** noise budget must be non-negative: the
    /// centered magnitude of `v = c0 + c1·s` has to stay below `Q/4`.
    /// A wrapped-around (exhausted or corrupted) ciphertext yields `v`
    /// essentially uniform in `(−Q/2, Q/2]`, so the margin check detects
    /// it with overwhelming probability.
    ///
    /// # Errors
    ///
    /// Returns [`BgvError::IntegrityViolation`] on checksum mismatch,
    /// [`BgvError::BudgetExhausted`] when the noise margin is gone, or
    /// propagates structural failures.
    pub fn decrypt(&self, sk: &BgvSecretKey, ct: &BgvCiphertext) -> Result<Vec<u64>, BgvError> {
        ct.verify_integrity("bgv.decrypt")?;
        let (budget, m_coeffs) = self.centered_lift(&self.linear_form(sk, ct)?);
        if budget < 0.0 {
            return Err(BgvError::BudgetExhausted { budget_bits: budget });
        }
        Ok(self.encoder.decode(&m_coeffs))
    }

    /// Measured noise budget in bits: `log2(Q/4) − log2(max_i |v_i|)`
    /// where `v = c0 + c1·s` is centered-lifted. Negative means the
    /// `Q/4` safety margin is gone and decryption is unreliable.
    ///
    /// # Errors
    ///
    /// Returns [`BgvError::IntegrityViolation`] on checksum mismatch.
    pub fn noise_budget_bits(
        &self,
        sk: &BgvSecretKey,
        ct: &BgvCiphertext,
    ) -> Result<f64, BgvError> {
        ct.verify_integrity("bgv.decrypt")?;
        Ok(self.centered_lift(&self.linear_form(sk, ct)?).0)
    }

    /// `v = c0 + c1·s` over the level channels, coefficient domain.
    fn linear_form(&self, sk: &BgvSecretKey, ct: &BgvCiphertext) -> Result<RnsPoly, BgvError> {
        let level = ct.level;
        let mut channels = Vec::with_capacity(level + 1);
        for c in 0..=level {
            let md = self.rns.moduli()[c];
            let s = &sk.s_full[c];
            let vals: Vec<u64> = ct
                .c0
                .channel(c)
                .coeffs()
                .iter()
                .zip(ct.c1.channel(c).coeffs().iter().zip(s.coeffs()))
                .map(|(&c0v, (&c1v, &sv))| md.add(c0v, md.mul(c1v, sv)))
                .collect();
            channels.push(Poly::from_ntt(vals, md)?);
        }
        let mut v = RnsPoly::from_channels(channels)?;
        v.to_coeff(&self.rns.tables()[..=level])?;
        Ok(v)
    }

    /// One exact pass over the coefficients of `v` (coefficient domain):
    /// the budget `log2(Q/4) − log2(max_i |centered(v_i)|)` (`+log2(Q/4)`
    /// when `v = 0`) and the centered lift of every coefficient mod `t`.
    fn centered_lift(&self, v: &RnsPoly) -> (f64, Vec<u64>) {
        let mut x = vec![0u64; v.num_channels()];
        let mut max_mag = 0.0f64;
        let m_coeffs = (0..v.n())
            .map(|i| {
                v.coefficient_into(i, &mut x);
                self.mixed_radix.to_digits(&mut x);
                let negative = self.mixed_radix.center(&mut x);
                max_mag = max_mag.max(self.mixed_radix.to_f64(&x));
                let r = self.mixed_radix.residue(&x, &self.t);
                if negative {
                    self.t.neg(r)
                } else {
                    r
                }
            })
            .collect();
        let margin_bits = self.mixed_radix.modulus_f64(x.len()).log2() - 2.0;
        let budget = if max_mag == 0.0 { margin_bits } else { margin_bits - max_mag.log2() };
        (budget, m_coeffs)
    }

    /// Homomorphic addition.
    ///
    /// # Errors
    ///
    /// Returns [`BgvError::Mismatch`] on level disagreement.
    pub fn add(&self, a: &BgvCiphertext, b: &BgvCiphertext) -> Result<BgvCiphertext, BgvError> {
        telemetry::count_named("bgv.op.add", 1);
        self.check_pair(a, b)?;
        Ok(BgvCiphertext::new(a.c0.add(&b.c0)?, a.c1.add(&b.c1)?, a.level))
    }

    /// Homomorphic subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`BgvError::Mismatch`] on level disagreement.
    pub fn sub(&self, a: &BgvCiphertext, b: &BgvCiphertext) -> Result<BgvCiphertext, BgvError> {
        self.check_pair(a, b)?;
        Ok(BgvCiphertext::new(a.c0.sub(&b.c0)?, a.c1.sub(&b.c1)?, a.level))
    }

    /// Plaintext (slot-wise) multiplication.
    ///
    /// # Errors
    ///
    /// Propagates encoding failures.
    pub fn mul_plain(&self, a: &BgvCiphertext, slots: &[u64]) -> Result<BgvCiphertext, BgvError> {
        a.verify_integrity("bgv.eval")?;
        let m_coeffs = self.encoder.encode(slots)?;
        let signed: Vec<i64> = m_coeffs.iter().map(|&c| self.t.to_centered(c)).collect();
        let mut pt = RnsPoly::from_signed(&signed, self.params.n(), &self.rns.moduli()[..=a.level]);
        pt.to_ntt(&self.rns.tables()[..=a.level])?;
        Ok(BgvCiphertext::new(a.c0.mul_pointwise(&pt)?, a.c1.mul_pointwise(&pt)?, a.level))
    }

    /// Generates the relinearization key (one digit per ciphertext prime).
    ///
    /// # Errors
    ///
    /// Propagates structural failures.
    pub fn generate_relin_key<R: Rng + ?Sized>(
        &self,
        sk: &BgvSecretKey,
        rng: &mut R,
    ) -> Result<BgvRelinKey, BgvError> {
        let n = self.params.n();
        let t = self.params.t();
        let all = self.rns.moduli().len();
        let mut digits = Vec::with_capacity(self.q_len());
        for i in 0..self.q_len() {
            let qi = self.rns.moduli()[i];
            // Q̂_i mod q_i and its inverse (single-channel digit: v fits u64).
            let mut qhat_mod_qi = 1u64;
            for j in 0..self.q_len() {
                if j != i {
                    qhat_mod_qi = qi.mul(qhat_mod_qi, self.rns.moduli()[j].value() % qi.value());
                }
            }
            let v = qi.inv(qhat_mod_qi)?;
            let noise = sample_gaussian(self.params.sigma(), n, rng);
            let mut b_ch = Vec::with_capacity(all);
            let mut a_ch = Vec::with_capacity(all);
            for c in 0..all {
                let m = self.rns.moduli()[c];
                // f = p · Q̂_i · v  (mod m).
                let mut qhat_mod_m = 1u64;
                for j in 0..self.q_len() {
                    if j != i {
                        qhat_mod_m = m.mul(qhat_mod_m, self.rns.moduli()[j].value() % m.value());
                    }
                }
                let f = m.mul(m.mul(self.params.special() % m.value(), qhat_mod_m), v % m.value());
                let a = Poly::from_ntt(sample_uniform(m.value(), n, rng), m)?;
                let s = &sk.s_full[c];
                let vals: Vec<u64> = a
                    .coeffs()
                    .iter()
                    .zip(s.coeffs())
                    .enumerate()
                    .map(|(idx, (&av, &sv))| {
                        // b = -a·s + t·e + f·s² (all NTT-pointwise except e,
                        // which is injected per-coefficient below).
                        let _ = idx;
                        m.add(m.neg(m.mul(av, sv)), m.mul(f, m.mul(sv, sv)))
                    })
                    .collect();
                // Add t·e in coefficient domain.
                let mut e_vals = vec![0u64; n];
                for (ev, &x) in e_vals.iter_mut().zip(&noise) {
                    *ev = m.from_i64(x.wrapping_mul(t as i64));
                }
                let mut e = Poly::from_coeffs(e_vals, m)?;
                e.to_ntt(self.rns.table(c));
                let b_vals: Vec<u64> =
                    vals.iter().zip(e.coeffs()).map(|(&x, &ev)| m.add(x, ev)).collect();
                b_ch.push(Poly::from_ntt(b_vals, m)?);
                a_ch.push(a);
            }
            digits.push((RnsPoly::from_channels(b_ch)?, RnsPoly::from_channels(a_ch)?));
        }
        Ok(BgvRelinKey { digits })
    }

    /// Ciphertext multiplication with relinearization and an automatic
    /// modulus switch (the BGV noise-management step), landing one level
    /// lower.
    ///
    /// # Errors
    ///
    /// Returns [`BgvError::LevelExhausted`] at level 0, or propagates
    /// structural failures.
    pub fn mul(
        &self,
        a: &BgvCiphertext,
        b: &BgvCiphertext,
        rlk: &BgvRelinKey,
    ) -> Result<BgvCiphertext, BgvError> {
        let _span = telemetry::Span::enter("bgv.mul");
        telemetry::count_named("bgv.op.mul", 1);
        self.check_pair(a, b)?;
        if a.level == 0 {
            return Err(BgvError::LevelExhausted);
        }
        let level = a.level;
        let d0 = a.c0.mul_pointwise(&b.c0)?;
        let mut d1 = a.c0.mul_pointwise(&b.c1)?;
        d1.add_assign(&a.c1.mul_pointwise(&b.c0)?)?;
        let d2 = a.c1.mul_pointwise(&b.c1)?;
        let (k0, k1) = self.keyswitch(&d2, rlk, level)?;
        let ct = BgvCiphertext::new(d0.add(&k0)?, d1.add(&k1)?, level);
        self.mod_switch(&ct)
    }

    /// Modulus switch to one level lower with the `t`-preserving centered
    /// correction.
    ///
    /// # Errors
    ///
    /// Returns [`BgvError::LevelExhausted`] at level 0.
    pub fn mod_switch(&self, ct: &BgvCiphertext) -> Result<BgvCiphertext, BgvError> {
        let _span = telemetry::Span::enter("bgv.mod_switch");
        telemetry::count_named("bgv.op.mod_switch", 1);
        ct.verify_integrity("bgv.eval")?;
        if ct.level == 0 {
            return Err(BgvError::LevelExhausted);
        }
        let level = ct.level;
        Ok(BgvCiphertext::new(
            self.rescale_poly(&ct.c0, level)?,
            self.rescale_poly(&ct.c1, level)?,
            level - 1,
        ))
    }

    /// `(x − δ)/q_l` channel-wise, with `δ ≡ x (mod q_l)`, `δ ≡ 0 (mod t)`,
    /// `|δ| ≤ q_l·t/2`.
    fn rescale_poly(&self, p: &RnsPoly, level: usize) -> Result<RnsPoly, BgvError> {
        let n = self.params.n();
        let t = self.params.t() as i128;
        let q_last = self.rns.moduli()[level];
        let mut last = p.channel(level).clone();
        last.to_coeff(self.rns.table(level));
        // δ per coefficient as i128.
        let deltas: Vec<i128> = last
            .coeffs()
            .iter()
            .map(|&x| {
                let r = q_last.to_centered(x) as i128;
                let mut u = (-r).rem_euclid(t);
                if u > t / 2 {
                    u -= t;
                }
                r + q_last.value() as i128 * u
            })
            .collect();
        // q_l^{-1} mod q_c precomputed sequentially (inversion is fallible)
        // so the channel loop below is infallible and runs channel-parallel.
        let mut invs = Vec::with_capacity(level);
        for c in 0..level {
            let m = self.rns.moduli()[c];
            invs.push(m.inv(q_last.value() % m.value())?);
        }
        let positions: Vec<usize> = (0..level).collect();
        let channels = par::par_map(&positions, ntt_work(n), |_, &c| {
            let m = self.rns.moduli()[c];
            let inv = invs[c];
            let mut buf = vec![0u64; n];
            for (l, &d) in buf.iter_mut().zip(&deltas) {
                *l = d.rem_euclid(m.value() as i128) as u64;
            }
            self.rns.table(c).forward(&mut buf);
            for (y, &x) in buf.iter_mut().zip(p.channel(c).coeffs()) {
                *y = m.mul(m.sub(x, *y), inv);
            }
            Poly::from_ntt(buf, m).expect("rescaled residues are canonical")
        })?;
        Ok(RnsPoly::from_channels(channels)?)
    }

    /// Hybrid key switch of `d2` (per-prime digits, one special prime).
    fn keyswitch(
        &self,
        d2: &RnsPoly,
        rlk: &BgvRelinKey,
        level: usize,
    ) -> Result<(RnsPoly, RnsPoly), BgvError> {
        // Histogram-only probe: full hybrid keyswitch latency.
        let _t = telemetry::Timer::enter("bgv.keyswitch");
        let n = self.params.n();
        let p_idx = self.p_index();
        let total = level + 2; // level+1 q-channels plus p.
        let global_of = |pos: usize| if pos <= level { pos } else { p_idx };
        let mut d2c = d2.clone();
        d2c.to_coeff(&self.rns.tables()[..=level])?;

        // Exact single-channel base conversion per digit, precomputed so the
        // channel loop below is infallible (Bconv is itself channel-parallel).
        let mut digit_ext: Vec<(Vec<usize>, Vec<Vec<u64>>)> = Vec::with_capacity(level + 1);
        for i in 0..=level {
            let dst: Vec<usize> =
                (0..=level).filter(|&c| c != i).chain(std::iter::once(p_idx)).collect();
            let plan = self.rns.bconv(&[i], &dst)?;
            digit_ext.push((dst, plan.apply(&[d2c.channel(i).coeffs()])?));
        }
        // One accumulator pair per extended channel; the NTT → MAC → INTT
        // chain is independent per channel and runs channel-parallel, with
        // the NTT input buffer drawn from the thread-local scratch pool.
        let positions: Vec<usize> = (0..total).collect();
        let work = ((level + 1) as u64 + 2).saturating_mul(ntt_work(n));
        let acc = par::par_map(&positions, work, |_, &pos| {
            let gc = global_of(pos);
            let m = self.rns.moduli()[gc];
            let table = self.rns.table(gc);
            Scratch::with_thread_local(|scratch| {
                let mut a0 = vec![0u64; n];
                let mut a1 = vec![0u64; n];
                let mut ext = scratch.take(n);
                for (i, (dst, converted)) in digit_ext.iter().enumerate() {
                    let (b_key, a_key) = &rlk.digits[i];
                    // The digit's own channel reuses d2's NTT form; others
                    // are freshly transformed.
                    if gc == i {
                        ext.copy_from_slice(d2.channel(i).coeffs());
                    } else {
                        let k = dst.iter().position(|&c| c == gc).expect("in dst");
                        ext.copy_from_slice(&converted[k]);
                        table.forward(&mut ext);
                    }
                    let bk = b_key.channel(gc).coeffs();
                    let ak = a_key.channel(gc).coeffs();
                    for s in 0..n {
                        a0[s] = m.add(a0[s], m.mul(ext[s], bk[s]));
                        a1[s] = m.add(a1[s], m.mul(ext[s], ak[s]));
                    }
                }
                table.inverse(&mut a0);
                table.inverse(&mut a1);
                scratch.put(ext);
                (a0, a1)
            })
        })?;
        // t-preserving moddown by p, NTT back.
        let p_mod = self.rns.moduli()[p_idx];
        let t = self.params.t() as i128;
        let finish = |half: usize| -> Result<RnsPoly, BgvError> {
            let pick = |pos: usize| if half == 0 { &acc[pos].0 } else { &acc[pos].1 };
            let deltas: Vec<i128> = pick(total - 1)
                .iter()
                .map(|&x| {
                    let r = p_mod.to_centered(x) as i128;
                    let mut u = (-r).rem_euclid(t);
                    if u > t / 2 {
                        u -= t;
                    }
                    r + p_mod.value() as i128 * u
                })
                .collect();
            // p^{-1} mod q_c precomputed (fallible) before the parallel loop.
            let mut invs = Vec::with_capacity(level + 1);
            for c in 0..=level {
                let m = self.rns.moduli()[c];
                invs.push(m.inv(p_mod.value() % m.value())?);
            }
            let chans: Vec<usize> = (0..=level).collect();
            let channels = par::par_map(&chans, ntt_work(n), |_, &c| {
                let m = self.rns.moduli()[c];
                let inv = invs[c];
                let mut vals = vec![0u64; n];
                for ((y, &x), &d) in vals.iter_mut().zip(pick(c)).zip(&deltas) {
                    let dm = d.rem_euclid(m.value() as i128) as u64;
                    *y = m.mul(m.sub(x, dm), inv);
                }
                self.rns.table(c).forward(&mut vals);
                Poly::from_ntt(vals, m).expect("moddown residues are canonical")
            })?;
            Ok(RnsPoly::from_channels(channels)?)
        };
        let k0 = finish(0)?;
        let k1 = finish(1)?;
        Ok((k0, k1))
    }

    fn check_pair(&self, a: &BgvCiphertext, b: &BgvCiphertext) -> Result<(), BgvError> {
        a.verify_integrity("bgv.eval")?;
        b.verify_integrity("bgv.eval")?;
        if a.level != b.level {
            return Err(BgvError::Mismatch {
                detail: format!("levels differ: {} vs {}", a.level, b.level),
            });
        }
        Ok(())
    }
}

impl BgvSecretKey {
    /// The ternary coefficients (testing and bridging use).
    #[doc(hidden)]
    pub fn coefficients(&self) -> &[i64] {
        &self.s_coeffs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup() -> (BgvContext, ChaCha8Rng) {
        (BgvContext::new(BgvParams::toy().unwrap()).unwrap(), ChaCha8Rng::seed_from_u64(13))
    }

    #[test]
    fn encrypt_decrypt_exact() {
        let (ctx, mut rng) = setup();
        let sk = ctx.generate_secret_key(&mut rng);
        let slots: Vec<u64> = (0..64).map(|i| (i * 31 + 5) % 257).collect();
        let ct = ctx.encrypt(&sk, &slots, &mut rng).unwrap();
        assert_eq!(ctx.decrypt(&sk, &ct).unwrap(), slots);
    }

    #[test]
    fn addition_is_exact_mod_t() {
        let (ctx, mut rng) = setup();
        let sk = ctx.generate_secret_key(&mut rng);
        let a: Vec<u64> = (0..64).map(|i| i * 4 % 257).collect();
        let b: Vec<u64> = (0..64).map(|i| (256 - i) % 257).collect();
        let ca = ctx.encrypt(&sk, &a, &mut rng).unwrap();
        let cb = ctx.encrypt(&sk, &b, &mut rng).unwrap();
        let sum = ctx.decrypt(&sk, &ctx.add(&ca, &cb).unwrap()).unwrap();
        let diff = ctx.decrypt(&sk, &ctx.sub(&ca, &cb).unwrap()).unwrap();
        for i in 0..64 {
            assert_eq!(sum[i], (a[i] + b[i]) % 257, "slot {i}");
            assert_eq!(diff[i], (a[i] + 257 - b[i]) % 257, "slot {i}");
        }
    }

    #[test]
    fn plaintext_multiplication() {
        let (ctx, mut rng) = setup();
        let sk = ctx.generate_secret_key(&mut rng);
        let a: Vec<u64> = (0..64).map(|i| (i + 1) % 257).collect();
        let w: Vec<u64> = (0..64).map(|i| (2 * i + 3) % 257).collect();
        let ca = ctx.encrypt(&sk, &a, &mut rng).unwrap();
        let got = ctx.decrypt(&sk, &ctx.mul_plain(&ca, &w).unwrap()).unwrap();
        for i in 0..64 {
            assert_eq!(got[i], a[i] * w[i] % 257, "slot {i}");
        }
    }

    #[test]
    fn ciphertext_multiplication_exact() {
        let (ctx, mut rng) = setup();
        let sk = ctx.generate_secret_key(&mut rng);
        let rlk = ctx.generate_relin_key(&sk, &mut rng).unwrap();
        let a: Vec<u64> = (0..64).map(|i| (i * 13 + 7) % 257).collect();
        let b: Vec<u64> = (0..64).map(|i| (i * i + 1) % 257).collect();
        let ca = ctx.encrypt(&sk, &a, &mut rng).unwrap();
        let cb = ctx.encrypt(&sk, &b, &mut rng).unwrap();
        let prod = ctx.mul(&ca, &cb, &rlk).unwrap();
        assert_eq!(prod.level(), ca.level() - 1);
        let got = ctx.decrypt(&sk, &prod).unwrap();
        for i in 0..64 {
            assert_eq!(got[i], a[i] * b[i] % 257, "slot {i}");
        }
    }

    #[test]
    fn multiplication_depth_two() {
        let (ctx, mut rng) = setup();
        let sk = ctx.generate_secret_key(&mut rng);
        let rlk = ctx.generate_relin_key(&sk, &mut rng).unwrap();
        let a: Vec<u64> = (0..64).map(|i| (i % 5) + 1).collect();
        let ca = ctx.encrypt(&sk, &a, &mut rng).unwrap();
        let sq = ctx.mul(&ca, &ca, &rlk).unwrap();
        let quad = ctx.mul(&sq, &sq, &rlk).unwrap();
        assert_eq!(quad.level(), 0);
        let got = ctx.decrypt(&sk, &quad).unwrap();
        for i in 0..64 {
            let expect = a[i].pow(4) % 257;
            assert_eq!(got[i], expect, "slot {i}");
        }
    }

    #[test]
    fn mod_switch_preserves_plaintext() {
        let (ctx, mut rng) = setup();
        let sk = ctx.generate_secret_key(&mut rng);
        let slots: Vec<u64> = (0..64).map(|i| (i * 11) % 257).collect();
        let mut ct = ctx.encrypt(&sk, &slots, &mut rng).unwrap();
        while ct.level() > 0 {
            ct = ctx.mod_switch(&ct).unwrap();
            assert_eq!(ctx.decrypt(&sk, &ct).unwrap(), slots, "level {}", ct.level());
        }
        assert!(ctx.mod_switch(&ct).is_err());
    }

    #[test]
    fn corrupted_ciphertext_is_detected_at_api_boundaries() {
        let (ctx, mut rng) = setup();
        let sk = ctx.generate_secret_key(&mut rng);
        let slots: Vec<u64> = (0..64).map(|i| (i * 7) % 257).collect();
        let good = ctx.encrypt(&sk, &slots, &mut rng).unwrap();
        let mut bad = good.clone();
        bad.components_mut().0.channels_mut()[0].coeffs_mut()[5] ^= 1;
        assert!(matches!(
            ctx.add(&good, &bad),
            Err(BgvError::IntegrityViolation { context: "bgv.eval" })
        ));
        assert!(matches!(
            ctx.decrypt(&sk, &bad),
            Err(BgvError::IntegrityViolation { context: "bgv.decrypt" })
        ));
        // Resealing models a legitimate mutation: the checksum matches
        // again and the pipeline keeps going (the flip only adds noise).
        bad.reseal();
        assert!(ctx.add(&good, &bad).is_ok());
    }

    #[test]
    fn noise_budget_is_measured_and_shrinks_under_multiplication() {
        let (ctx, mut rng) = setup();
        let sk = ctx.generate_secret_key(&mut rng);
        let rlk = ctx.generate_relin_key(&sk, &mut rng).unwrap();
        let a: Vec<u64> = (0..64).map(|i| (i % 5) + 1).collect();
        let ca = ctx.encrypt(&sk, &a, &mut rng).unwrap();
        let fresh = ctx.noise_budget_bits(&sk, &ca).unwrap();
        assert!(fresh > 0.0, "fresh ciphertext must have headroom, got {fresh}");
        let sq = ctx.mul(&ca, &ca, &rlk).unwrap();
        let after = ctx.noise_budget_bits(&sk, &sq).unwrap();
        assert!(after > 0.0, "healthy pipeline keeps a positive budget, got {after}");
        assert!(after < fresh, "multiplication must consume budget: {after} !< {fresh}");
    }

    #[test]
    fn level_mismatch_rejected() {
        let (ctx, mut rng) = setup();
        let sk = ctx.generate_secret_key(&mut rng);
        let a = ctx.encrypt(&sk, &[1], &mut rng).unwrap();
        let b = ctx.mod_switch(&ctx.encrypt(&sk, &[2], &mut rng).unwrap()).unwrap();
        assert!(ctx.add(&a, &b).is_err());
    }

    /// The bigint path `centered_lift` replaced, kept as its reference:
    /// CRT-reconstruct every coefficient, compare with `Q/2`, reduce mod
    /// `t`, and take `log2` of the largest magnitude.
    fn reference_lift(ctx: &BgvContext, v: &RnsPoly, level: usize) -> (f64, Vec<u64>) {
        use fhe_math::UBig;
        let t = ctx.params.t();
        let q = UBig::product_of(ctx.params.moduli()[..=level].iter().copied());
        let half = q.divrem_u64(2).0;
        let mut max_mag = UBig::zero();
        let m_coeffs = (0..ctx.params.n())
            .map(|i| {
                let big = v.crt_coefficient(i);
                let (mag, lifted) = if big > half {
                    (q.sub(&big), (big.rem_u64(t) + t - q.rem_u64(t)) % t)
                } else {
                    (big.clone(), big.rem_u64(t))
                };
                if mag > max_mag {
                    max_mag = mag;
                }
                lifted
            })
            .collect();
        let margin = q.to_f64().log2() - 2.0;
        let budget = if max_mag.is_zero() { margin } else { margin - max_mag.to_f64().log2() };
        (budget, m_coeffs)
    }

    #[test]
    fn decrypt_and_budget_match_the_bigint_reference() {
        let (ctx, mut rng) = setup();
        let sk = ctx.generate_secret_key(&mut rng);
        let rlk = ctx.generate_relin_key(&sk, &mut rng).unwrap();
        let slots: Vec<u64> = (0..64).map(|i| (i * 29 + 3) % 257).collect();
        let fresh = ctx.encrypt(&sk, &slots, &mut rng).unwrap();
        let squared = ctx.mul(&fresh, &fresh, &rlk).unwrap();
        let bottom = ctx.mod_switch(&squared).unwrap();
        assert_eq!(bottom.level(), 0);
        for ct in [&fresh, &squared, &bottom] {
            let v = ctx.linear_form(&sk, ct).unwrap();
            let (want_budget, want_coeffs) = reference_lift(&ctx, &v, ct.level());
            let (budget, coeffs) = ctx.centered_lift(&v);
            assert_eq!(coeffs, want_coeffs, "level {}", ct.level());
            assert!((budget - want_budget).abs() < 1e-9, "{budget} vs {want_budget}");
            assert_eq!(ctx.noise_budget_bits(&sk, ct).unwrap(), budget);
            assert_eq!(ctx.decrypt(&sk, ct).unwrap(), ctx.encoder.decode(&want_coeffs));
        }
    }
}
