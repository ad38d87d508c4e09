//! Homomorphic evaluation: the operator set of the paper's Table 7.
//!
//! `Hadd` / `Pmult` are element-wise; `Cmult`, `Rotation` and `Keyswitch`
//! run the full hybrid key-switching pipeline —
//!
//! ```text
//! INTT → per-digit Modup (Bconv, Eq. 2) → NTT → DecompPolyMult with the
//! switching key → INTT → Moddown (Eq. 3) → NTT
//! ```
//!
//! — which is exactly the operator sequence the Alchemist workload compiler
//! lowers onto Meta-OPs. [`Evaluator::rotate_hoisted`] implements the
//! Modup-hoisting optimization (the `BSP-L=n+` variant of Fig. 1): one
//! decomposition + Modup shared by a whole group of rotations.

use crate::ciphertext::{Ciphertext, Plaintext};
use crate::keys::{galois_element, GaloisKeys, RelinKey, SwitchKey};
use crate::{CkksContext, CkksError};
use fhe_math::{par, Domain, Poly, RnsPoly, Scratch};

/// Work estimate (element-operations) for one `n`-point NTT channel.
pub(crate) fn ntt_work(n: usize) -> u64 {
    (n as u64) * u64::from(usize::BITS - n.leading_zeros())
}

/// Stateless evaluator bound to a context.
#[derive(Debug, Clone, Copy)]
pub struct Evaluator<'a> {
    ctx: &'a CkksContext,
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator.
    pub fn new(ctx: &'a CkksContext) -> Self {
        Evaluator { ctx }
    }

    /// The bound context.
    #[inline]
    pub fn context(&self) -> &CkksContext {
        self.ctx
    }

    /// Remaining noise budget of `a` in bits (see
    /// [`Ciphertext::noise_budget_bits`]).
    #[inline]
    pub fn noise_budget_bits(&self, a: &Ciphertext) -> f64 {
        a.noise_budget_bits()
    }

    fn check_pair(&self, a: &Ciphertext, b: &Ciphertext) -> Result<(), CkksError> {
        a.verify_integrity("ckks.eval")?;
        b.verify_integrity("ckks.eval")?;
        if a.level() != b.level() {
            return Err(CkksError::Mismatch {
                detail: format!("levels differ: {} vs {}", a.level(), b.level()),
            });
        }
        let ratio = a.scale() / b.scale();
        if !(0.999..1.001).contains(&ratio) {
            return Err(CkksError::Mismatch {
                detail: format!("scales differ: {} vs {}", a.scale(), b.scale()),
            });
        }
        Ok(())
    }

    /// Homomorphic addition (`Hadd`).
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::Mismatch`] if levels or scales differ.
    pub fn add(&self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, CkksError> {
        telemetry::count_named("ckks.op.add", 1);
        self.check_pair(a, b)?;
        Ok(Ciphertext::from_parts(a.c0().add(b.c0())?, a.c1().add(b.c1())?, a.level(), a.scale()))
    }

    /// Homomorphic subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::Mismatch`] if levels or scales differ.
    pub fn sub(&self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, CkksError> {
        self.check_pair(a, b)?;
        Ok(Ciphertext::from_parts(a.c0().sub(b.c0())?, a.c1().sub(b.c1())?, a.level(), a.scale()))
    }

    /// Negation.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::IntegrityViolation`] on a corrupted input and
    /// propagates contained worker panics.
    pub fn neg(&self, a: &Ciphertext) -> Result<Ciphertext, CkksError> {
        a.verify_integrity("ckks.eval")?;
        Ok(Ciphertext::from_parts(a.c0().neg()?, a.c1().neg()?, a.level(), a.scale()))
    }

    /// Plaintext addition; the plaintext must match level and scale.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::Mismatch`] on level/scale disagreement.
    pub fn add_plain(&self, a: &Ciphertext, pt: &Plaintext) -> Result<Ciphertext, CkksError> {
        a.verify_integrity("ckks.eval")?;
        if pt.level() != a.level() || (pt.scale() / a.scale() - 1.0).abs() > 1e-3 {
            return Err(CkksError::Mismatch {
                detail: "plaintext level/scale disagree with ciphertext".into(),
            });
        }
        Ok(Ciphertext::from_parts(a.c0().add(pt.poly())?, a.c1().clone(), a.level(), a.scale()))
    }

    /// Plaintext multiplication (`Pmult`). The product's scale is the
    /// product of scales; follow with [`Evaluator::rescale`].
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::Mismatch`] if the plaintext level differs.
    pub fn mul_plain(&self, a: &Ciphertext, pt: &Plaintext) -> Result<Ciphertext, CkksError> {
        a.verify_integrity("ckks.eval")?;
        if pt.level() != a.level() {
            return Err(CkksError::Mismatch {
                detail: "plaintext level disagrees with ciphertext".into(),
            });
        }
        Ok(Ciphertext::from_parts(
            a.c0().mul_pointwise(pt.poly())?,
            a.c1().mul_pointwise(pt.poly())?,
            a.level(),
            a.scale() * pt.scale(),
        ))
    }

    /// Multiplies every slot by a nonzero real constant **without consuming
    /// a level**: the scale is reinterpreted (and the ciphertext negated for
    /// negative constants). Exact for the value; the scale drifts by `|c|`,
    /// which downstream additions must tolerate or re-align.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::InvalidConstant`] if `c` is zero or non-finite
    /// (use [`Evaluator::zero_like`] for zero).
    pub fn mul_const(&self, a: &Ciphertext, c: f64) -> Result<Ciphertext, CkksError> {
        if c == 0.0 || !c.is_finite() {
            return Err(CkksError::InvalidConstant { value: c });
        }
        a.verify_integrity("ckks.eval")?;
        let mut out = if c < 0.0 { self.neg(a)? } else { a.clone() };
        out.set_scale(a.scale() / c.abs());
        Ok(out)
    }

    /// A trivial encryption of zero with the same level and scale as `a`.
    ///
    /// # Errors
    ///
    /// Propagates contained worker panics from the NTT.
    pub fn zero_like(&self, a: &Ciphertext) -> Result<Ciphertext, CkksError> {
        let moduli = self.ctx.level_moduli(a.level());
        let mut z0 = fhe_math::RnsPoly::zero(self.ctx.n(), moduli);
        let mut z1 = fhe_math::RnsPoly::zero(self.ctx.n(), moduli);
        z0.to_ntt(self.ctx.level_tables(a.level()))?;
        z1.to_ntt(self.ctx.level_tables(a.level()))?;
        Ok(Ciphertext::from_parts(z0, z1, a.level(), a.scale()))
    }

    /// Renormalizes the tracked scale to the context default `Δ` with one
    /// plaintext multiplication by `1.0` (encoded at `Δ²/s`) and a rescale —
    /// value-preserving, costs one level. Used after bootstrap's
    /// CoeffToSlot, whose output sits at scale `≈ q_0`, so that subsequent
    /// multiplications keep the scale fixed instead of squaring the ratio.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::LevelExhausted`] at level 0.
    pub fn normalize_scale(&self, a: &Ciphertext) -> Result<Ciphertext, CkksError> {
        let delta = self.ctx.params().scale();
        let pt_scale = delta * delta / a.scale();
        if pt_scale < 1.0 {
            return Err(CkksError::Mismatch {
                detail: "scale too large to normalize in one step".into(),
            });
        }
        let n = self.ctx.n();
        // The constant may exceed i64 when the input scale is far below Δ
        // (post-EvalMod); split w = hi·2^62 + lo and reduce per channel.
        let channels = self
            .ctx
            .level_moduli(a.level())
            .iter()
            .map(|&m| {
                let hi = (pt_scale / 4.611686018427388e18).floor();
                let lo = pt_scale - hi * 4.611686018427388e18;
                let two62 = m.reduce_u128(1u128 << 62);
                let r = m.mul_add(m.reduce(hi as u64), two62, m.reduce(lo as u64));
                let mut vals = vec![0u64; n];
                vals[0] = r;
                let mut p = fhe_math::Poly::from_coeffs(vals, m).expect("canonical");
                p.to_ntt(self.ctx.table(self.channel_index(m)));
                p
            })
            .collect::<Vec<_>>();
        let poly = fhe_math::RnsPoly::from_channels(channels)?;
        let pt = Plaintext::from_parts(poly, a.level(), pt_scale);
        self.rescale(&self.mul_plain(a, &pt)?)
    }

    /// Index of a modulus within the context basis (normalize_scale
    /// helper; moduli are distinct by construction).
    fn channel_index(&self, m: fhe_math::Modulus) -> usize {
        self.ctx
            .rns()
            .moduli()
            .iter()
            .position(|&x| x == m)
            .expect("modulus belongs to the context")
    }

    /// Multiplies every slot by a real constant with a genuine plaintext
    /// multiplication at scale `Δ` followed by a rescale — costs one level
    /// but keeps the tracked scale at `Δ`, unlike [`Evaluator::mul_const`]
    /// whose scale ratio would compound through ciphertext products.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::LevelExhausted`] at level 0.
    pub fn mul_const_real(&self, a: &Ciphertext, c: f64) -> Result<Ciphertext, CkksError> {
        let delta = self.ctx.params().scale();
        let n = self.ctx.n();
        let v = (c * delta).round() as i64;
        let mut poly = fhe_math::RnsPoly::from_signed(&[v], n, self.ctx.level_moduli(a.level()));
        poly.to_ntt(self.ctx.level_tables(a.level()))?;
        let pt = Plaintext::from_parts(poly, a.level(), delta);
        self.rescale(&self.mul_plain(a, &pt)?)
    }

    /// Plaintext subtraction (`ct − pt`); level and scale must match.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::Mismatch`] on level/scale disagreement.
    pub fn sub_plain(&self, a: &Ciphertext, pt: &Plaintext) -> Result<Ciphertext, CkksError> {
        a.verify_integrity("ckks.eval")?;
        if pt.level() != a.level() || (pt.scale() / a.scale() - 1.0).abs() > 1e-2 {
            return Err(CkksError::Mismatch {
                detail: "plaintext level/scale disagree with ciphertext".into(),
            });
        }
        Ok(Ciphertext::from_parts(a.c0().sub(pt.poly())?, a.c1().clone(), a.level(), a.scale()))
    }

    /// Ciphertext multiplication (`Cmult`) with relinearization; the result
    /// keeps the doubled scale — call [`Evaluator::rescale`] after.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::Mismatch`] on operand disagreement or
    /// [`CkksError::LevelExhausted`] at level 0.
    pub fn mul(
        &self,
        a: &Ciphertext,
        b: &Ciphertext,
        rlk: &RelinKey,
    ) -> Result<Ciphertext, CkksError> {
        let _span = telemetry::Span::enter("ckks.eval.mul");
        telemetry::count_named("ckks.op.mul", 1);
        self.check_pair(a, b)?;
        if a.level() == 0 {
            return Err(CkksError::LevelExhausted);
        }
        let level = a.level();
        // Tensor product.
        let d0 = a.c0().mul_pointwise(b.c0())?;
        let mut d1 = a.c0().mul_pointwise(b.c1())?;
        d1.add_assign(&a.c1().mul_pointwise(b.c0())?)?;
        let d2 = a.c1().mul_pointwise(b.c1())?;
        // Relinearize d2 down onto (c0, c1).
        let (k0, k1) = self.keyswitch_core(&d2, rlk.switch_key(), level)?;
        Ok(Ciphertext::from_parts(d0.add(&k0)?, d1.add(&k1)?, level, a.scale() * b.scale()))
    }

    /// Squares a ciphertext (3 instead of 4 tensor products).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Evaluator::mul`].
    pub fn square(&self, a: &Ciphertext, rlk: &RelinKey) -> Result<Ciphertext, CkksError> {
        self.mul(a, a, rlk)
    }

    /// Rescales by the top prime: divides by `q_level`, dropping one level.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::LevelExhausted`] at level 0.
    pub fn rescale(&self, a: &Ciphertext) -> Result<Ciphertext, CkksError> {
        let _span = telemetry::Span::enter("ckks.eval.rescale");
        telemetry::count_named("ckks.op.rescale", 1);
        a.verify_integrity("ckks.eval")?;
        let level = a.level();
        if level == 0 {
            return Err(CkksError::LevelExhausted);
        }
        let q_last = self.ctx.rns().moduli()[level];
        let c0 = self.rescale_poly(a.c0(), level)?;
        let c1 = self.rescale_poly(a.c1(), level)?;
        Ok(Ciphertext::from_parts(c0, c1, level - 1, a.scale() / q_last.value() as f64))
    }

    fn rescale_poly(&self, p: &RnsPoly, level: usize) -> Result<RnsPoly, CkksError> {
        // INTT the dropped channel, lift into each remaining channel, NTT
        // there, subtract and scale by q_last^{-1}.
        let mut last = p.channel(level).clone();
        last.to_coeff(self.ctx.table(level));
        let q_last = self.ctx.rns().moduli()[level];
        let n = self.ctx.n();
        let invs = &self.ctx.plans(level).rescale_inv;
        let positions: Vec<usize> = (0..level).collect();
        let channels = par::par_map(&positions, ntt_work(n), |_, &c| {
            let m = self.ctx.rns().moduli()[c];
            let inv = invs[c];
            // Centered lift of the dropped residue for round-to-nearest;
            // the buffer becomes the output channel's backing store.
            let mut buf = vec![0u64; n];
            for (y, &x) in buf.iter_mut().zip(last.coeffs()) {
                *y = m.from_i64(q_last.to_centered(x));
            }
            self.ctx.table(c).forward(&mut buf);
            for (y, &x) in buf.iter_mut().zip(p.channel(c).coeffs()) {
                *y = m.mul_shoup(m.sub(x, *y), inv);
            }
            Poly::from_ntt(buf, m).expect("rescaled residues are canonical")
        })?;
        Ok(RnsPoly::from_channels(channels)?)
    }

    /// Drops to a target level without rescaling (modulus switching by
    /// truncation; scale is unchanged).
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::Mismatch`] if `target > current`.
    pub fn level_down(&self, a: &Ciphertext, target: usize) -> Result<Ciphertext, CkksError> {
        a.verify_integrity("ckks.eval")?;
        if target > a.level() {
            return Err(CkksError::Mismatch {
                detail: format!("cannot raise level {} to {target}", a.level()),
            });
        }
        let take = |p: &RnsPoly| -> Result<RnsPoly, CkksError> {
            Ok(RnsPoly::from_channels(p.channels()[..=target].to_vec())?)
        };
        Ok(Ciphertext::from_parts(take(a.c0())?, take(a.c1())?, target, a.scale()))
    }

    /// Full key switch of an arbitrary NTT-domain polynomial `d` under
    /// `key`, at `level`. Returns the `(delta_c0, delta_c1)` pair on
    /// channels `0..=level`, NTT domain.
    ///
    /// This is the pipeline the paper's `Keyswitch` benchmark row measures.
    ///
    /// # Errors
    ///
    /// Propagates RNS/NTT errors.
    pub fn keyswitch_core(
        &self,
        d: &RnsPoly,
        key: &SwitchKey,
        level: usize,
    ) -> Result<(RnsPoly, RnsPoly), CkksError> {
        let _span = telemetry::Span::enter("ckks.eval.keyswitch");
        let ext = self.decompose_and_modup(d, level)?;
        self.apply_key_and_moddown(&ext, key, level)
    }

    /// Decomposition + Modup half of key switching (shareable across
    /// rotations — hoisting). Returns one extended polynomial per occupied
    /// digit, each over `t = level+1+K` channels in **coefficient** domain
    /// ordered `q_0..q_level, p_0..p_{K-1}`.
    ///
    /// # Errors
    ///
    /// Propagates RNS/NTT errors.
    pub fn decompose_and_modup(
        &self,
        d: &RnsPoly,
        level: usize,
    ) -> Result<Vec<Vec<Vec<u64>>>, CkksError> {
        // Histogram-only probe: latency of the hoistable keyswitch half.
        let _t = telemetry::Timer::enter("ckks.keyswitch.decomp_modup");
        fhe_math::strict_assert_eq!(
            d.domain(),
            Domain::Ntt,
            "keyswitch input must be in NTT domain"
        );
        let mut d_coeff = d.clone();
        d_coeff.to_coeff(self.ctx.level_tables(level))?;
        let t = level + 1 + self.ctx.k_len();
        let plans = self.ctx.plans(level);

        let mut out = Vec::with_capacity(plans.digits.len());
        for (digit, (dst, plan)) in plans.digits.iter().zip(&plans.modup) {
            let src_data: Vec<&[u64]> =
                digit.iter().map(|&c| d_coeff.channel(c).coeffs()).collect();
            let mut converted = plan.apply(&src_data)?;
            // Assemble the extended poly: position j holds global channel
            // (q_idx ++ p_idx)[j]. Converted channels are moved, not cloned.
            let mut ext = vec![Vec::new(); t];
            for (k, &c) in digit.iter().enumerate() {
                ext[c] = src_data[k].to_vec();
            }
            for (k, &gc) in dst.iter().enumerate() {
                let pos = if gc <= level { gc } else { level + 1 + (gc - self.ctx.q_len()) };
                ext[pos] = std::mem::take(&mut converted[k]);
            }
            out.push(ext);
        }
        Ok(out)
    }

    /// The per-key half of key switching: NTT the extended digits, multiply
    /// with the key digits (`DecompPolyMult`), accumulate, Moddown.
    ///
    /// # Errors
    ///
    /// Propagates RNS/NTT errors.
    pub fn apply_key_and_moddown(
        &self,
        ext_digits: &[Vec<Vec<u64>>],
        key: &SwitchKey,
        level: usize,
    ) -> Result<(RnsPoly, RnsPoly), CkksError> {
        // Histogram-only probe: latency of the per-key keyswitch half.
        let _t = telemetry::Timer::enter("ckks.keyswitch.key_moddown");
        let n = self.ctx.n();
        let t = level + 1 + self.ctx.k_len();
        let global_of = |pos: usize| -> usize {
            if pos <= level {
                pos
            } else {
                self.ctx.q_len() + (pos - (level + 1))
            }
        };
        // Extended channels are independent through NTT → MAC → INTT, so the
        // whole chain runs channel-parallel (the slot/channel partitioning of
        // paper §5.3); the digit loop is the sequential accumulator inside
        // each channel. The NTT input buffer comes from the thread-local
        // scratch pool instead of a per-digit clone.
        let positions: Vec<usize> = (0..t).collect();
        let work = (ext_digits.len() as u64 + 2).saturating_mul(ntt_work(n));
        let acc = par::par_map(&positions, work, |_, &pos| {
            let gc = global_of(pos);
            let m = self.ctx.rns().moduli()[gc];
            let table = self.ctx.table(gc);
            Scratch::with_thread_local(|scratch| {
                // Harvey-lazy MAC, the paper's `(M_j A_j)_L R_j` pattern:
                // the digit NTT stays in `[0, 2q)` (forward_lazy skips the
                // final reduction stage) and the per-digit products
                // accumulate unreduced in 128 bits — one Barrett reduction
                // per slot at the end instead of one per slot per digit.
                // Each product is < 2q·q < 2^123, so up to 31 digits fit a
                // u128 between folds.
                let mut a0w = vec![0u128; n];
                let mut a1w = vec![0u128; n];
                let mut channel = scratch.take(n);
                for (i, ext) in ext_digits.iter().enumerate() {
                    let (kb, ka) = &key.digit_keys()[i];
                    channel.copy_from_slice(&ext[pos]);
                    table.forward_lazy(&mut channel);
                    let kb_ch = kb.channel(gc).coeffs();
                    let ka_ch = ka.channel(gc).coeffs();
                    for s in 0..n {
                        a0w[s] += channel[s] as u128 * kb_ch[s] as u128;
                        a1w[s] += channel[s] as u128 * ka_ch[s] as u128;
                    }
                    if i % 31 == 30 {
                        for s in 0..n {
                            a0w[s] = m.reduce_u128(a0w[s]) as u128;
                            a1w[s] = m.reduce_u128(a1w[s]) as u128;
                        }
                    }
                }
                let mut a0: Vec<u64> = a0w.iter().map(|&x| m.reduce_u128(x)).collect();
                let mut a1: Vec<u64> = a1w.iter().map(|&x| m.reduce_u128(x)).collect();
                // INTT here too: Moddown consumes coefficient-domain input.
                table.inverse(&mut a0);
                table.inverse(&mut a1);
                scratch.put(channel);
                (a0, a1)
            })
        })?;
        // Moddown both halves, NTT back.
        let moddown = &self.ctx.plans(level).moddown;
        let finish = |half: usize| -> Result<RnsPoly, CkksError> {
            let pick =
                |pos: usize| if half == 0 { acc[pos].0.as_slice() } else { acc[pos].1.as_slice() };
            let q_refs: Vec<&[u64]> = (0..=level).map(&pick).collect();
            let p_refs: Vec<&[u64]> = (level + 1..t).map(&pick).collect();
            let mut scaled = vec![Vec::new(); level + 1];
            moddown.apply_into(&q_refs, &p_refs, &mut scaled)?;
            par::par_iter_mut(&mut scaled, ntt_work(n), |c, data| {
                self.ctx.table(c).forward(data);
            })?;
            let channels = scaled
                .into_iter()
                .enumerate()
                .map(|(c, data)| Poly::from_ntt(data, self.ctx.rns().moduli()[c]))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(RnsPoly::from_channels(channels)?)
        };
        let out0 = finish(0)?;
        let out1 = finish(1)?;
        Ok((out0, out1))
    }

    /// Applies the Galois automorphism `X ↦ X^g` to a ciphertext *without*
    /// key switching (the result decrypts under `s(X^g)`).
    fn automorphism_raw(&self, a: &Ciphertext, g: usize) -> Result<(RnsPoly, RnsPoly), CkksError> {
        let tables = self.ctx.level_tables(a.level());
        let mut c0 = a.c0().clone();
        let mut c1 = a.c1().clone();
        c0.to_coeff(tables)?;
        c1.to_coeff(tables)?;
        let mut c0g = c0.automorphism(g)?;
        let mut c1g = c1.automorphism(g)?;
        c0g.to_ntt(tables)?;
        c1g.to_ntt(tables)?;
        Ok((c0g, c1g))
    }

    /// Rotates slots left by `r` (`Rotation` of Table 7).
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::MissingKey`] if no Galois key for `r` exists.
    pub fn rotate(
        &self,
        a: &Ciphertext,
        r: isize,
        gk: &GaloisKeys,
    ) -> Result<Ciphertext, CkksError> {
        let _span = telemetry::Span::enter("ckks.eval.rotate");
        telemetry::count_named("ckks.op.rotate", 1);
        let g = galois_element(self.ctx.n(), r);
        let key = gk.key_for_element(g).ok_or(CkksError::MissingKey {
            detail: format!("rotation key for r = {r} (g = {g})"),
        })?;
        self.apply_galois(a, g, key)
    }

    /// Complex conjugation of all slots.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::MissingKey`] if the conjugation key is absent.
    pub fn conjugate(&self, a: &Ciphertext, gk: &GaloisKeys) -> Result<Ciphertext, CkksError> {
        let g = crate::keys::conjugation_element(self.ctx.n());
        let key = gk
            .key_for_element(g)
            .ok_or(CkksError::MissingKey { detail: "conjugation key".into() })?;
        self.apply_galois(a, g, key)
    }

    fn apply_galois(
        &self,
        a: &Ciphertext,
        g: usize,
        key: &SwitchKey,
    ) -> Result<Ciphertext, CkksError> {
        a.verify_integrity("ckks.eval")?;
        let (c0g, c1g) = self.automorphism_raw(a, g)?;
        let (k0, k1) = self.keyswitch_core(&c1g, key, a.level())?;
        Ok(Ciphertext::from_parts(c0g.add(&k0)?, k1, a.level(), a.scale()))
    }

    /// Sums all slots into every slot with a log-depth rotate-and-add tree
    /// — the standard finisher for encrypted dot products. Requires Galois
    /// keys for the power-of-two rotations `1, 2, 4, …, slots/2`.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::MissingKey`] if a power-of-two rotation key is
    /// missing.
    pub fn sum_slots(&self, a: &Ciphertext, gk: &GaloisKeys) -> Result<Ciphertext, CkksError> {
        let slots = self.ctx.n() / 2;
        let mut acc = a.clone();
        let mut step = 1usize;
        while step < slots {
            let rotated = self.rotate(&acc, step as isize, gk)?;
            acc = self.add(&acc, &rotated)?;
            step *= 2;
        }
        Ok(acc)
    }

    /// Rotates by every offset in `rotations` with **Modup hoisting**: the
    /// decomposition + Modup of `c1` is computed once and shared, matching
    /// the paper's `BSP-L=n+` configuration. Returns the rotated
    /// ciphertexts in input order.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::MissingKey`] if any rotation key is missing.
    pub fn rotate_hoisted(
        &self,
        a: &Ciphertext,
        rotations: &[isize],
        gk: &GaloisKeys,
    ) -> Result<Vec<Ciphertext>, CkksError> {
        a.verify_integrity("ckks.eval")?;
        let level = a.level();
        let tables = self.ctx.level_tables(level);
        // Shared: decompose + modup of c1 (coefficient domain).
        let ext = self.decompose_and_modup(a.c1(), level)?;
        // c0 in coefficient domain for cheap automorphisms.
        let mut c0_coeff = a.c0().clone();
        c0_coeff.to_coeff(tables)?;

        let mut out = Vec::with_capacity(rotations.len());
        for &r in rotations {
            let g = galois_element(self.ctx.n(), r);
            let key = gk.key_for_element(g).ok_or(CkksError::MissingKey {
                detail: format!("rotation key for r = {r} (g = {g})"),
            })?;
            // Automorphism commutes with Bconv (both act coefficient-wise /
            // channel-wise), so it can be applied to the moduped digits.
            // Applied raw per channel, in parallel — no Poly round-trip.
            let n = self.ctx.n();
            let t = level + 1 + self.ctx.k_len();
            let mut ext_g = Vec::with_capacity(ext.len());
            for digit in &ext {
                let positions: Vec<usize> = (0..t).collect();
                let dg = par::par_map(&positions, n as u64, |_, &pos| {
                    let gc =
                        if pos <= level { pos } else { self.ctx.q_len() + (pos - (level + 1)) };
                    let m = self.ctx.rns().moduli()[gc];
                    let mut out_ch = vec![0u64; n];
                    for (i, &c) in digit[pos].iter().enumerate() {
                        let e = (i * g) % (2 * n);
                        if e < n {
                            out_ch[e] = m.add(out_ch[e], c);
                        } else {
                            out_ch[e - n] = m.sub(out_ch[e - n], c);
                        }
                    }
                    out_ch
                })?;
                ext_g.push(dg);
            }
            let (k0, k1) = self.apply_key_and_moddown(&ext_g, key, level)?;
            let mut c0g = c0_coeff.automorphism(g)?;
            c0g.to_ntt(tables)?;
            out.push(Ciphertext::from_parts(c0g.add(&k0)?, k1, level, a.scale()));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CkksParams, Encoder, SecretKey};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    struct Fixture {
        ctx: CkksContext,
        rng: ChaCha8Rng,
    }

    fn fixture() -> Fixture {
        Fixture {
            ctx: CkksContext::new(CkksParams::toy().unwrap()).unwrap(),
            rng: ChaCha8Rng::seed_from_u64(7),
        }
    }

    #[test]
    fn add_sub_neg() {
        let mut f = fixture();
        let sk = SecretKey::generate(&f.ctx, &mut f.rng).unwrap();
        let enc = Encoder::new(&f.ctx);
        let ev = Evaluator::new(&f.ctx);
        let a = enc.encode(&[1.0, 2.0]).unwrap();
        let b = enc.encode(&[0.5, -4.0]).unwrap();
        let ca = sk.encrypt(&f.ctx, &a, &mut f.rng).unwrap();
        let cb = sk.encrypt(&f.ctx, &b, &mut f.rng).unwrap();
        let sum = enc.decode(&sk.decrypt(&ev.add(&ca, &cb).unwrap()).unwrap()).unwrap();
        assert!((sum[0] - 1.5).abs() < 1e-3 && (sum[1] + 2.0).abs() < 1e-3);
        let diff = enc.decode(&sk.decrypt(&ev.sub(&ca, &cb).unwrap()).unwrap()).unwrap();
        assert!((diff[0] - 0.5).abs() < 1e-3 && (diff[1] - 6.0).abs() < 1e-3);
        let neg = enc.decode(&sk.decrypt(&ev.neg(&ca).unwrap()).unwrap()).unwrap();
        assert!((neg[0] + 1.0).abs() < 1e-3);
    }

    #[test]
    fn pmult_and_rescale() {
        let mut f = fixture();
        let sk = SecretKey::generate(&f.ctx, &mut f.rng).unwrap();
        let enc = Encoder::new(&f.ctx);
        let ev = Evaluator::new(&f.ctx);
        let a = enc.encode(&[1.5, -2.0]).unwrap();
        let w = enc.encode(&[2.0, 3.0]).unwrap();
        let ca = sk.encrypt(&f.ctx, &a, &mut f.rng).unwrap();
        let prod = ev.mul_plain(&ca, &w).unwrap();
        let scaled = ev.rescale(&prod).unwrap();
        assert_eq!(scaled.level(), ca.level() - 1);
        let back = enc.decode(&sk.decrypt(&scaled).unwrap()).unwrap();
        assert!((back[0] - 3.0).abs() < 1e-2, "got {}", back[0]);
        assert!((back[1] + 6.0).abs() < 1e-2, "got {}", back[1]);
    }

    #[test]
    fn cmult_relinearize_rescale() {
        let mut f = fixture();
        let sk = SecretKey::generate(&f.ctx, &mut f.rng).unwrap();
        let rlk = RelinKey::generate(&f.ctx, &sk, &mut f.rng).unwrap();
        let enc = Encoder::new(&f.ctx);
        let ev = Evaluator::new(&f.ctx);
        let a = enc.encode(&[1.5, -2.0, 0.5]).unwrap();
        let b = enc.encode(&[2.0, 3.0, -4.0]).unwrap();
        let ca = sk.encrypt(&f.ctx, &a, &mut f.rng).unwrap();
        let cb = sk.encrypt(&f.ctx, &b, &mut f.rng).unwrap();
        let prod = ev.rescale(&ev.mul(&ca, &cb, &rlk).unwrap()).unwrap();
        let back = enc.decode(&sk.decrypt(&prod).unwrap()).unwrap();
        assert!((back[0] - 3.0).abs() < 0.05, "got {}", back[0]);
        assert!((back[1] + 6.0).abs() < 0.05, "got {}", back[1]);
        assert!((back[2] + 2.0).abs() < 0.05, "got {}", back[2]);
    }

    #[test]
    fn multiplication_depth_two() {
        let mut f = fixture();
        let sk = SecretKey::generate(&f.ctx, &mut f.rng).unwrap();
        let rlk = RelinKey::generate(&f.ctx, &sk, &mut f.rng).unwrap();
        let enc = Encoder::new(&f.ctx);
        let ev = Evaluator::new(&f.ctx);
        let a = enc.encode(&[1.1]).unwrap();
        let ca = sk.encrypt(&f.ctx, &a, &mut f.rng).unwrap();
        let sq = ev.rescale(&ev.square(&ca, &rlk).unwrap()).unwrap();
        // Square again: need matching operands — square of the square.
        let quad = ev.rescale(&ev.square(&sq, &rlk).unwrap()).unwrap();
        let back = enc.decode(&sk.decrypt(&quad).unwrap()).unwrap();
        let expected = 1.1f64.powi(4);
        assert!((back[0] - expected).abs() < 0.1, "got {} want {expected}", back[0]);
    }

    #[test]
    fn rotation_rotates_slots() {
        let mut f = fixture();
        let sk = SecretKey::generate(&f.ctx, &mut f.rng).unwrap();
        let gk = GaloisKeys::generate(&f.ctx, &sk, &[1, 3], false, &mut f.rng).unwrap();
        let enc = Encoder::new(&f.ctx);
        let ev = Evaluator::new(&f.ctx);
        let slots = enc.slots();
        let values: Vec<f64> = (0..slots).map(|j| (j % 5) as f64 - 2.0).collect();
        let ct = sk.encrypt(&f.ctx, &enc.encode(&values).unwrap(), &mut f.rng).unwrap();
        for r in [1usize, 3] {
            let rot = ev.rotate(&ct, r as isize, &gk).unwrap();
            let back = enc.decode(&sk.decrypt(&rot).unwrap()).unwrap();
            for j in 0..slots {
                let want = values[(j + r) % slots];
                assert!((back[j] - want).abs() < 0.02, "r={r} slot {j}: {} vs {want}", back[j]);
            }
        }
    }

    #[test]
    fn hoisted_rotations_match_plain_rotations() {
        let mut f = fixture();
        let sk = SecretKey::generate(&f.ctx, &mut f.rng).unwrap();
        let gk = GaloisKeys::generate(&f.ctx, &sk, &[1, 2, 5], false, &mut f.rng).unwrap();
        let enc = Encoder::new(&f.ctx);
        let ev = Evaluator::new(&f.ctx);
        let slots = enc.slots();
        let values: Vec<f64> = (0..slots).map(|j| (j as f64).sin()).collect();
        let ct = sk.encrypt(&f.ctx, &enc.encode(&values).unwrap(), &mut f.rng).unwrap();
        let hoisted = ev.rotate_hoisted(&ct, &[1, 2, 5], &gk).unwrap();
        for (k, &r) in [1isize, 2, 5].iter().enumerate() {
            let plain = ev.rotate(&ct, r, &gk).unwrap();
            let a = enc.decode(&sk.decrypt(&hoisted[k]).unwrap()).unwrap();
            let b = enc.decode(&sk.decrypt(&plain).unwrap()).unwrap();
            for j in 0..slots {
                assert!((a[j] - b[j]).abs() < 0.02, "r={r} slot {j}");
            }
        }
    }

    #[test]
    fn sum_slots_totals_everything() {
        let mut f = fixture();
        let sk = SecretKey::generate(&f.ctx, &mut f.rng).unwrap();
        let slots = f.ctx.n() / 2;
        let rots: Vec<isize> =
            (0..).map(|k| 1isize << k).take_while(|&r| (r as usize) < slots).collect();
        let gk = GaloisKeys::generate(&f.ctx, &sk, &rots, false, &mut f.rng).unwrap();
        let enc = Encoder::new(&f.ctx);
        let ev = Evaluator::new(&f.ctx);
        let values: Vec<f64> = (0..slots).map(|j| (j as f64) * 0.01).collect();
        let total: f64 = values.iter().sum();
        let ct = sk.encrypt(&f.ctx, &enc.encode(&values).unwrap(), &mut f.rng).unwrap();
        let summed = ev.sum_slots(&ct, &gk).unwrap();
        let back = enc.decode(&sk.decrypt(&summed).unwrap()).unwrap();
        for (j, &b) in back.iter().enumerate().take(slots) {
            assert!((b - total).abs() < 0.05, "slot {j}: {b} vs {total}");
        }
    }

    #[test]
    fn conjugation() {
        let mut f = fixture();
        let sk = SecretKey::generate(&f.ctx, &mut f.rng).unwrap();
        let gk = GaloisKeys::generate(&f.ctx, &sk, &[], true, &mut f.rng).unwrap();
        let enc = Encoder::new(&f.ctx);
        let ev = Evaluator::new(&f.ctx);
        let values = vec![crate::Complex64::new(0.5, 1.25)];
        let pt = enc.encode_complex_at(&values, f.ctx.q_len() - 1, f.ctx.params().scale()).unwrap();
        let ct = sk.encrypt(&f.ctx, &pt, &mut f.rng).unwrap();
        let conj = ev.conjugate(&ct, &gk).unwrap();
        let back = enc.decode_complex(&sk.decrypt(&conj).unwrap()).unwrap();
        assert!((back[0].re - 0.5).abs() < 0.02);
        assert!((back[0].im + 1.25).abs() < 0.02);
    }

    #[test]
    fn mismatched_operands_rejected() {
        let mut f = fixture();
        let sk = SecretKey::generate(&f.ctx, &mut f.rng).unwrap();
        let enc = Encoder::new(&f.ctx);
        let ev = Evaluator::new(&f.ctx);
        let a = sk.encrypt(&f.ctx, &enc.encode(&[1.0]).unwrap(), &mut f.rng).unwrap();
        let b = ev.level_down(&a, 1).unwrap();
        assert!(ev.add(&a, &b).is_err());
        assert!(ev.level_down(&b, 3).is_err());
    }

    #[test]
    fn mul_const_zero_is_a_typed_error_not_a_panic() {
        let mut f = fixture();
        let sk = SecretKey::generate(&f.ctx, &mut f.rng).unwrap();
        let enc = Encoder::new(&f.ctx);
        let ev = Evaluator::new(&f.ctx);
        let ca = sk.encrypt(&f.ctx, &enc.encode(&[1.0]).unwrap(), &mut f.rng).unwrap();
        for bad in [0.0, f64::NAN, f64::INFINITY] {
            match ev.mul_const(&ca, bad) {
                Err(CkksError::InvalidConstant { .. }) => {}
                other => panic!("expected InvalidConstant for {bad}, got {other:?}"),
            }
        }
        // Nonzero constants still work, including negative ones.
        let out = ev.mul_const(&ca, -2.0).unwrap();
        let back = enc.decode(&sk.decrypt(&out).unwrap()).unwrap();
        assert!((back[0] + 2.0).abs() < 1e-2, "got {}", back[0]);
    }

    #[test]
    fn corrupted_ciphertext_is_detected_at_the_eval_boundary() {
        if !fhe_math::checksum_enabled() {
            return; // integrity-checksum feature compiled out
        }
        let mut f = fixture();
        let sk = SecretKey::generate(&f.ctx, &mut f.rng).unwrap();
        let enc = Encoder::new(&f.ctx);
        let ev = Evaluator::new(&f.ctx);
        let ca = sk.encrypt(&f.ctx, &enc.encode(&[1.0]).unwrap(), &mut f.rng).unwrap();
        let mut bad = ca.clone();
        bad.components_mut().0.channels_mut()[0].coeffs_mut()[3] ^= 1;
        assert!(matches!(
            ev.add(&bad, &ca),
            Err(CkksError::IntegrityViolation { context: "ckks.eval" })
        ));
        assert!(matches!(sk.decrypt(&bad), Err(CkksError::IntegrityViolation { .. })));
        // An honest reseal restores usability (models a legitimate
        // out-of-band mutation).
        bad.reseal();
        assert!(ev.add(&bad, &ca).is_ok());
    }

    #[test]
    fn exhausted_budget_refuses_decryption() {
        let mut f = fixture();
        let sk = SecretKey::generate(&f.ctx, &mut f.rng).unwrap();
        let enc = Encoder::new(&f.ctx);
        let ev = Evaluator::new(&f.ctx);
        let ca = sk.encrypt(&f.ctx, &enc.encode(&[1.0]).unwrap(), &mut f.rng).unwrap();
        assert!(ev.noise_budget_bits(&ca) > 0.0);
        let mut broke = ca.clone();
        // Drive the tracked scale far past the modulus product.
        broke.set_scale(f64::MAX / 2.0);
        assert!(broke.noise_budget_bits() < 0.0);
        assert!(matches!(sk.decrypt(&broke), Err(CkksError::BudgetExhausted { .. })));
    }

    #[test]
    fn rescale_at_level_zero_fails() {
        let mut f = fixture();
        let sk = SecretKey::generate(&f.ctx, &mut f.rng).unwrap();
        let enc = Encoder::new(&f.ctx);
        let ev = Evaluator::new(&f.ctx);
        let a = sk.encrypt(&f.ctx, &enc.encode(&[1.0]).unwrap(), &mut f.rng).unwrap();
        let bottom = ev.level_down(&a, 0).unwrap();
        assert!(matches!(ev.rescale(&bottom), Err(CkksError::LevelExhausted)));
    }
}
