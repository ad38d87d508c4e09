//! CKKS bootstrapping: ModRaise → CoeffToSlot → EvalMod → SlotToCoeff.
//!
//! The pipeline (Cheon et al., with the Han–Ki cosine/double-angle EvalMod)
//! is the paper's `BSP` benchmark workload. Structure:
//!
//! 1. **ModRaise** — reinterpret a level-0 ciphertext at the full chain;
//!    decryption becomes `Δ·m + q_0·I` for a small integer polynomial `I`.
//! 2. **CoeffToSlot** — two homomorphic linear transforms (plus a
//!    conjugation) move the *coefficients* into slots. The matrices come
//!    from the inverse canonical embedding: with `z = U_0(t_0 + i·t_1)`,
//!    `t_0 = A·Re z + B·Im z` where `A/B` are the cosine/sine matrices of
//!    the root powers, folded into two complex transforms applied to `ct`
//!    and `conj(ct)`.
//! 3. **EvalMod** — evaluates `x mod q_0` via
//!    `sin(2πu) = cos(2π(u − ¼))`, a Chebyshev-fitted cosine of the
//!    range-compressed argument followed by `r` double-angle squarings.
//! 4. **SlotToCoeff** — the forward embedding `U_0`, two complex
//!    transforms recombining the two EvalMod outputs.
//!
//! Precision at the reduced test parameters is a few hundredths absolute —
//! plenty to demonstrate correctness of the pipeline; production parameter
//! sets would use larger `q_0/Δ` gaps and higher-degree approximants.

use crate::ciphertext::Ciphertext;
use crate::encoding::{Complex64, Encoder};
use crate::keys::{GaloisKeys, RelinKey};
use crate::linear::LinearTransform;
use crate::{CkksContext, CkksError, Evaluator};
use fhe_math::Poly;

/// Evaluates a monomial-basis polynomial `Σ a_i x^i` on a ciphertext with
/// Paterson–Stockmeyer structure (baby powers to `g`, giant powers of
/// `x^g`), depth `O(log deg)`.
///
/// # Errors
///
/// Propagates evaluation errors; [`CkksError::LevelExhausted`] if the chain
/// is too short for the degree.
pub fn eval_poly_ps(
    ev: &Evaluator<'_>,
    enc: &Encoder<'_>,
    ct: &Ciphertext,
    coeffs: &[f64],
    rlk: &RelinKey,
) -> Result<Ciphertext, CkksError> {
    let deg = coeffs.len().saturating_sub(1);
    if deg == 0 {
        // Constant polynomial: encode over a trivial zero ciphertext.
        let c = ev.zero_like(ct)?;
        let pt = enc.encode_constant_at(coeffs[0], c.level(), c.scale())?;
        return ev.add_plain(&c, &pt);
    }
    let g = ((deg + 1) as f64).sqrt().ceil() as usize;
    // Baby powers x^1..x^g via a doubling tree (depth log2 g).
    let mut powers: Vec<Option<Ciphertext>> = vec![None; g + 1];
    powers[1] = Some(ct.clone());
    for j in 2..=g {
        let (lo, hi) = (j / 2, j - j / 2);
        let a = powers[lo].clone().expect("built in order");
        let b = powers[hi].clone().expect("built in order");
        let (a, b) = align(ev, &a, &b)?;
        powers[j] = Some(ev.rescale(&ev.mul(&a, &b, rlk)?)?);
    }
    // Giant powers (x^g)^k.
    let blocks = deg / g + 1;
    let mut giants: Vec<Option<Ciphertext>> = vec![None; blocks];
    if blocks > 1 {
        giants[1] = powers[g].clone();
        for k in 2..blocks {
            let (lo, hi) = (k / 2, k - k / 2);
            let a = giants[lo].clone().expect("built in order");
            let b = giants[hi].clone().expect("built in order");
            let (a, b) = align(ev, &a, &b)?;
            giants[k] = Some(ev.rescale(&ev.mul(&a, &b, rlk)?)?);
        }
    }
    // Combine: Σ_k (Σ_j a_{kg+j} x^j) · (x^g)^k.
    let mut total: Option<Ciphertext> = None;
    for k in 0..blocks {
        let mut block: Option<Ciphertext> = None;
        // Indexing both `coeffs[k·g+j]` and `powers[j]`; an iterator form
        // would obscure the block/baby-step structure.
        #[allow(clippy::needless_range_loop)]
        for j in 0..g {
            let idx = k * g + j;
            if idx > deg || coeffs[idx].abs() < 1e-15 {
                continue;
            }
            let term = if j == 0 {
                // Constant within the block: deferred to add_plain below.
                continue;
            } else {
                let p = powers[j].as_ref().expect("baby power");
                let pt =
                    enc.encode_constant_at(coeffs[idx], p.level(), ev.context().params().scale())?;
                ev.rescale(&ev.mul_plain(p, &pt)?)?
            };
            block = Some(match block {
                None => term,
                Some(b) => {
                    let (b, t) = align(ev, &b, &term)?;
                    ev.add(&b, &t)?
                }
            });
        }
        // Fold the block's constant term (j = 0).
        let c0 = coeffs[k * g];
        let mut block = match block {
            Some(b) => {
                if c0.abs() > 1e-15 {
                    let pt = enc.encode_constant_at(c0, b.level(), b.scale())?;
                    ev.add_plain(&b, &pt)?
                } else {
                    b
                }
            }
            None => {
                if c0.abs() < 1e-15 {
                    continue;
                }
                let zero = ev.zero_like(ct)?;
                let pt = enc.encode_constant_at(c0, zero.level(), zero.scale())?;
                ev.add_plain(&zero, &pt)?
            }
        };
        if k > 0 {
            let giant = giants[k].as_ref().expect("giant power");
            let (b, gi) = align(ev, &block, giant)?;
            block = ev.rescale(&ev.mul(&b, &gi, rlk)?)?;
        }
        total = Some(match total {
            None => block,
            Some(t) => {
                let (t, b) = align(ev, &t, &block)?;
                ev.add(&t, &b)?
            }
        });
    }
    total.ok_or(CkksError::Mismatch { detail: "empty polynomial".into() })
}

/// Brings two ciphertexts to a common level (and rescales the one with the
/// larger scale if the scales have diverged by more than the evaluator's
/// tolerance).
fn align(
    ev: &Evaluator<'_>,
    a: &Ciphertext,
    b: &Ciphertext,
) -> Result<(Ciphertext, Ciphertext), CkksError> {
    let target = a.level().min(b.level());
    let mut a = ev.level_down(a, target)?;
    let mut b = ev.level_down(b, target)?;
    // Scale drift beyond tolerance: fold the ratio into the smaller-scale
    // ciphertext's bookkeeping (value-preserving to first order since the
    // drift comes from q_i ≈ Δ).
    let ratio = a.scale() / b.scale();
    if !(0.995..1.005).contains(&ratio) {
        if ratio > 1.0 {
            b.set_scale(a.scale());
        } else {
            a.set_scale(b.scale());
        }
    }
    Ok((a, b))
}

/// Fits Chebyshev coefficients of `f` over `[-1, 1]` up to `degree`, then
/// converts to the monomial basis (stable for the degrees used here).
pub fn chebyshev_monomial_fit(f: impl Fn(f64) -> f64, degree: usize) -> Vec<f64> {
    let m = 4 * (degree + 1);
    // Chebyshev coefficients via discrete cosine quadrature.
    let mut cheb = vec![0.0f64; degree + 1];
    for (k, ck) in cheb.iter_mut().enumerate() {
        let mut acc = 0.0;
        for i in 0..m {
            let theta = std::f64::consts::PI * (i as f64 + 0.5) / m as f64;
            acc += f(theta.cos()) * (k as f64 * theta).cos();
        }
        *ck = acc * 2.0 / m as f64;
    }
    cheb[0] /= 2.0;
    // Convert Σ c_k T_k to monomials via the T recurrence.
    let mut t_prev = vec![1.0f64]; // T_0
    let mut t_cur = vec![0.0, 1.0]; // T_1
    let mut out = vec![0.0f64; degree + 1];
    out[0] += cheb[0];
    if degree >= 1 {
        out[1] += cheb[1];
    }
    // `k` walks the recurrence order while `cheb[k]` scales each term.
    #[allow(clippy::needless_range_loop)]
    for k in 2..=degree {
        // T_k = 2x·T_{k-1} − T_{k-2}.
        let mut t_next = vec![0.0f64; k + 1];
        for (i, &c) in t_cur.iter().enumerate() {
            t_next[i + 1] += 2.0 * c;
        }
        for (i, &c) in t_prev.iter().enumerate() {
            t_next[i] -= c;
        }
        for (i, &c) in t_next.iter().enumerate() {
            out[i] += cheb[k] * c;
        }
        t_prev = t_cur;
        t_cur = t_next;
    }
    out
}

/// ModRaise: reinterprets a level-0 ciphertext on the full chain.
/// Decryption of the result is `Δ·m + q_0·I` with `‖I‖_∞` on the order of
/// `√h` (h = secret Hamming weight).
///
/// # Errors
///
/// Returns [`CkksError::Mismatch`] unless the input is at level 0.
pub fn mod_raise(ctx: &CkksContext, ct: &Ciphertext) -> Result<Ciphertext, CkksError> {
    if ct.level() != 0 {
        return Err(CkksError::Mismatch { detail: "mod_raise expects a level-0 input".into() });
    }
    let top = ctx.q_len() - 1;
    let q0 = ctx.rns().moduli()[0];
    let raise = |p: &fhe_math::RnsPoly| -> Result<fhe_math::RnsPoly, CkksError> {
        let mut base = p.channel(0).clone();
        base.to_coeff(ctx.table(0));
        let centered: Vec<i64> = base.coeffs().iter().map(|&x| q0.to_centered(x)).collect();
        let positions: Vec<usize> = (0..=top).collect();
        let channels = positions
            .iter()
            .map(|&c| -> Result<Poly, CkksError> {
                let m = ctx.rns().moduli()[c];
                let mut vals = vec![0u64; ctx.n()];
                for (i, &x) in centered.iter().enumerate() {
                    vals[i] = m.from_i64(x);
                }
                let mut poly = Poly::from_coeffs(vals, m)?;
                poly.to_ntt(ctx.table(c));
                Ok(poly)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(fhe_math::RnsPoly::from_channels(channels)?)
    };
    Ok(Ciphertext::from_parts(raise(ct.c0())?, raise(ct.c1())?, top, ct.scale()))
}

/// Configuration of the EvalMod approximation.
#[derive(Debug, Clone, Copy)]
pub struct EvalModConfig {
    /// Bound on the ModRaise overflow count `‖I‖_∞` (range is `±(k+1)`).
    pub k: usize,
    /// Double-angle iterations (the cosine is evaluated at `θ/2^r`).
    pub r: usize,
    /// Chebyshev degree of the compressed cosine.
    pub degree: usize,
}

impl Default for EvalModConfig {
    fn default() -> Self {
        EvalModConfig { k: 20, r: 4, degree: 26 }
    }
}

/// The bootstrapping engine: precomputed CtS/StC transforms + EvalMod
/// coefficients.
#[derive(Debug)]
pub struct Bootstrapper {
    cts_t0: (LinearTransform, LinearTransform),
    cts_t1: (LinearTransform, LinearTransform),
    stc_m0: LinearTransform,
    stc_m1: LinearTransform,
    sin_coeffs: Vec<f64>,
    config: EvalModConfig,
    range: f64,
}

impl Bootstrapper {
    /// Precomputes the transforms for a context.
    ///
    /// # Errors
    ///
    /// Propagates matrix-construction errors.
    pub fn new(ctx: &CkksContext, config: EvalModConfig) -> Result<Self, CkksError> {
        let n = ctx.n();
        let slots = n / 2;
        let two_n = 2 * n;
        // Rotation group powers 5^j mod 2N.
        let mut rot = Vec::with_capacity(slots);
        let mut gpow = 1usize;
        for _ in 0..slots {
            rot.push(gpow);
            gpow = (gpow * 5) % two_n;
        }
        let angle = |e: usize| std::f64::consts::PI * (e as f64) / n as f64;
        // CtS matrices: t0 = A·Re z + B·Im z, t1 likewise at offset N/2.
        let build_cts = |offset: usize| -> Result<(LinearTransform, LinearTransform), CkksError> {
            let mut m1 = vec![vec![Complex64::default(); slots]; slots];
            let mut m2 = vec![vec![Complex64::default(); slots]; slots];
            for i in 0..slots {
                for j in 0..slots {
                    let e = ((i + offset) * rot[j]) % two_n;
                    let a = 2.0 / n as f64 * angle(e).cos();
                    let b = 2.0 / n as f64 * angle(e).sin();
                    // M1 = (A − iB)/2, M2 = (A + iB)/2.
                    m1[i][j] = Complex64::new(a / 2.0, -b / 2.0);
                    m2[i][j] = Complex64::new(a / 2.0, b / 2.0);
                }
            }
            Ok((
                LinearTransform::from_complex_matrix(&m1)?,
                LinearTransform::from_complex_matrix(&m2)?,
            ))
        };
        let cts_t0 = build_cts(0)?;
        let cts_t1 = build_cts(slots)?;
        // StC: z = U0·(m0 + i·m1): U0_{j,i} = ζ^{i·5^j}.
        let mut u0 = vec![vec![Complex64::default(); slots]; slots];
        let mut u0i = vec![vec![Complex64::default(); slots]; slots];
        for j in 0..slots {
            for i in 0..slots {
                let e = (i * rot[j]) % two_n;
                let z = Complex64::from_angle(angle(e));
                u0[j][i] = z;
                u0i[j][i] = z.mul(Complex64::new(0.0, 1.0));
            }
        }
        let stc_m0 = LinearTransform::from_complex_matrix(&u0)?;
        let stc_m1 = LinearTransform::from_complex_matrix(&u0i)?;
        // Compressed cosine: h(w) = cos(2π(a·w − ¼)/2^r), w ∈ [-1, 1].
        let a = (config.k + 1) as f64;
        let r_div = (1u64 << config.r) as f64;
        let sin_coeffs = chebyshev_monomial_fit(
            |w| (2.0 * std::f64::consts::PI * (a * w - 0.25) / r_div).cos(),
            config.degree,
        );
        Ok(Bootstrapper { cts_t0, cts_t1, stc_m0, stc_m1, sin_coeffs, config, range: a })
    }

    /// All rotation offsets whose Galois keys [`Bootstrapper::bootstrap`]
    /// needs (BSGS pattern of every transform).
    pub fn required_rotations(&self) -> Vec<isize> {
        let mut rots = Vec::new();
        for t in [
            &self.cts_t0.0,
            &self.cts_t0.1,
            &self.cts_t1.0,
            &self.cts_t1.1,
            &self.stc_m0,
            &self.stc_m1,
        ] {
            rots.extend(t.required_rotations_bsgs());
        }
        rots.sort_unstable();
        rots.dedup();
        rots
    }

    /// Refreshes a level-0 ciphertext to a high level.
    ///
    /// # Errors
    ///
    /// Requires conjugation + rotation keys ([`CkksError::MissingKey`]) and
    /// enough chain depth ([`CkksError::LevelExhausted`]).
    pub fn bootstrap(
        &self,
        ev: &Evaluator<'_>,
        enc: &Encoder<'_>,
        ct: &Ciphertext,
        rlk: &RelinKey,
        gk: &GaloisKeys,
    ) -> Result<Ciphertext, CkksError> {
        let _span = telemetry::Span::enter("ckks.bootstrap");
        let ctx = ev.context();
        let q0 = ctx.rns().moduli()[0].value() as f64;
        let delta = ctx.params().scale();

        // 1. ModRaise; reinterpret the scale as q0 so slot values become
        //    u = I + (Δ/q0)·m, of magnitude ≤ k+1.
        let mut raised = {
            let _s = telemetry::Span::enter("ckks.bootstrap.modraise");
            mod_raise(ctx, ct)?
        };
        raised.set_scale(q0);

        // 2. CoeffToSlot.
        let (t0, t1) = {
            let _s = telemetry::Span::enter("ckks.bootstrap.coeff_to_slot");
            let conj = ev.conjugate(&raised, gk)?;
            // The transforms leave the scale near q0; normalize back to Δ
            // so EvalMod's multiplications keep a fixed working scale.
            let t0 = {
                let x = self.cts_t0.0.apply_bsgs(ev, enc, &raised, gk)?;
                let y = self.cts_t0.1.apply_bsgs(ev, enc, &conj, gk)?;
                ev.normalize_scale(&ev.add(&x, &y)?)?
            };
            let t1 = {
                let x = self.cts_t1.0.apply_bsgs(ev, enc, &raised, gk)?;
                let y = self.cts_t1.1.apply_bsgs(ev, enc, &conj, gk)?;
                ev.normalize_scale(&ev.add(&x, &y)?)?
            };
            (t0, t1)
        };

        // 3. EvalMod on both halves.
        let (m0, m1) = {
            let _s = telemetry::Span::enter("ckks.bootstrap.eval_mod");
            let m0 = self.eval_mod(ev, enc, &t0, rlk, q0, delta)?;
            let m1 = self.eval_mod(ev, enc, &t1, rlk, q0, delta)?;
            (m0, m1)
        };

        // 4. SlotToCoeff.
        let _s = telemetry::Span::enter("ckks.bootstrap.slot_to_coeff");
        let (m0a, m1a) = align(ev, &m0, &m1)?;
        let z0 = self.stc_m0.apply_bsgs(ev, enc, &m0a, gk)?;
        let z1 = self.stc_m1.apply_bsgs(ev, enc, &m1a, gk)?;
        let (z0, z1) = align(ev, &z0, &z1)?;
        ev.add(&z0, &z1)
    }

    /// `x mod q0` on slot values `u = I + (Δ/q0)·m`, returning `≈ m`.
    fn eval_mod(
        &self,
        ev: &Evaluator<'_>,
        enc: &Encoder<'_>,
        ct: &Ciphertext,
        rlk: &RelinKey,
        q0: f64,
        delta: f64,
    ) -> Result<Ciphertext, CkksError> {
        // Compress the range: w = u / a (real Pmult so the scale stays Δ).
        let w = ev.mul_const_real(ct, 1.0 / self.range)?;
        // c ≈ cos(2π(u − ¼)/2^r).
        let mut c = eval_poly_ps(ev, enc, &w, &self.sin_coeffs, rlk)?;
        // Double-angle r times: cos(2θ) = 2cos²θ − 1.
        for _ in 0..self.config.r {
            let sq = ev.rescale(&ev.mul(&c, &c, rlk)?)?;
            let doubled = ev.mul_const(&sq, 2.0)?;
            let pt = enc.encode_constant_at(1.0, doubled.level(), doubled.scale())?;
            c = ev.sub_plain(&doubled, &pt)?;
        }
        // sin(2πu)·q0/(2πΔ) ≈ m; the doubling loop has shrunk the tracked
        // scale far below Δ, so renormalize (one level) to keep
        // post-bootstrap arithmetic precise.
        let out = ev.mul_const(&c, q0 / (2.0 * std::f64::consts::PI * delta))?;
        ev.normalize_scale(&out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CkksParams, SecretKey};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn chebyshev_fit_accuracy() {
        let coeffs = chebyshev_monomial_fit(|x| (2.5 * x).cos(), 20);
        for i in 0..100 {
            let x = -1.0 + 2.0 * i as f64 / 99.0;
            let approx: f64 = coeffs.iter().enumerate().map(|(k, &c)| c * x.powi(k as i32)).sum();
            assert!((approx - (2.5 * x).cos()).abs() < 1e-9, "x={x}");
        }
    }

    #[test]
    fn eval_poly_ps_matches_plaintext() {
        let ctx = CkksContext::new(CkksParams::new(64, 6, 2, 30).unwrap()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let sk = SecretKey::generate(&ctx, &mut rng).unwrap();
        let rlk = RelinKey::generate(&ctx, &sk, &mut rng).unwrap();
        let enc = Encoder::new(&ctx);
        let ev = Evaluator::new(&ctx);
        // p(x) = 0.25 - 0.5x + x^3 + 0.125x^5.
        let coeffs = vec![0.25, -0.5, 0.0, 1.0, 0.0, 0.125];
        let xs = vec![0.3, -0.8, 0.05, 0.9];
        let ct = sk.encrypt(&ctx, &enc.encode(&xs).unwrap(), &mut rng).unwrap();
        let out = eval_poly_ps(&ev, &enc, &ct, &coeffs, &rlk).unwrap();
        let back = enc.decode(&sk.decrypt(&out).unwrap()).unwrap();
        for (i, &x) in xs.iter().enumerate() {
            let want: f64 = coeffs.iter().enumerate().map(|(k, &c)| c * x.powi(k as i32)).sum();
            assert!((back[i] - want).abs() < 0.02, "x={x}: {} vs {want}", back[i]);
        }
    }

    #[test]
    fn end_to_end_bootstrap_refreshes_levels() {
        // Reduced-parameter bootstrap: N = 256, 45-bit scale with a 6-bit
        // q0/Δ gap (the EvalMod error amplifier is q0/(2πΔ) ≈ 10).
        let params = CkksParams::with_first_prime_bits(256, 16, 3, 45, 51).unwrap();
        let ctx = CkksContext::new(params).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let sk = SecretKey::generate(&ctx, &mut rng).unwrap();
        let rlk = RelinKey::generate(&ctx, &sk, &mut rng).unwrap();
        let enc = Encoder::new(&ctx);
        let ev = Evaluator::new(&ctx);
        let boot = Bootstrapper::new(&ctx, EvalModConfig::default()).unwrap();
        let gk =
            GaloisKeys::generate(&ctx, &sk, &boot.required_rotations(), true, &mut rng).unwrap();

        let slots = enc.slots();
        let values: Vec<f64> = (0..slots).map(|j| 0.4 * ((j as f64) * 0.37).sin()).collect();
        let fresh = sk.encrypt(&ctx, &enc.encode(&values).unwrap(), &mut rng).unwrap();
        let exhausted = ev.level_down(&fresh, 0).unwrap();
        let refreshed = boot.bootstrap(&ev, &enc, &exhausted, &rlk, &gk).unwrap();

        assert!(refreshed.level() >= 1, "bootstrap must leave usable levels");
        let back = enc.decode(&sk.decrypt(&refreshed).unwrap()).unwrap();
        let max_err = values.iter().zip(&back).map(|(&a, &b)| (a - b).abs()).fold(0.0f64, f64::max);
        assert!(max_err < 0.05, "bootstrap precision too low: max err {max_err}");
    }

    #[test]
    fn mod_raise_preserves_residues() {
        let ctx = CkksContext::new(CkksParams::toy().unwrap()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let sk = SecretKey::generate(&ctx, &mut rng).unwrap();
        let enc = Encoder::new(&ctx);
        let ev = Evaluator::new(&ctx);
        let ct = sk.encrypt(&ctx, &enc.encode(&[1.0, -0.5]).unwrap(), &mut rng).unwrap();
        let bottom = ev.level_down(&ct, 0).unwrap();
        let raised = mod_raise(&ctx, &bottom).unwrap();
        assert_eq!(raised.level(), ctx.q_len() - 1);
        // Decryptions agree modulo q0.
        let d_low = sk.decrypt(&bottom).unwrap();
        let d_high = sk.decrypt(&raised).unwrap();
        let mut p_low = d_low.poly().clone();
        p_low.to_coeff(ctx.level_tables(0));
        let mut p_high = d_high.poly().clone();
        p_high.to_coeff(ctx.level_tables(ctx.q_len() - 1));
        assert_eq!(p_low.channel(0).coeffs(), p_high.channel(0).coeffs());
        // And decoding the raised ciphertext still recovers the message
        // (the q0·I term only matters at larger levels' precision).
        assert!(mod_raise(&ctx, &raised).is_err());
    }
}
