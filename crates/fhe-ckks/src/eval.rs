//! Homomorphic evaluation: the operator set of the paper's Table 7.
//!
//! `Hadd` / `Pmult` are element-wise; `Cmult`, `Rotation` and `Keyswitch`
//! run the hybrid key-switching pipeline, which stays in the NTT domain
//! except where a base conversion needs coefficients:
//!
//! ```text
//! stage 1  modup_ntt    INTT(c) → per-digit Modup (Bconv, Eq. 2) → NTT(β·t − c)
//!                       a digit's own channels are read from the NTT-domain input
//! stage 2  mac_key      acc ← acc + Σ_i σ_g(digit_i) ⊙ key_i   (DecompPolyMult)
//!                       lazy u128 MAC, σ_g a gather, acc over Q·P in NTT domain
//! stage 3  moddown_ntt  INTT(2K) → Bconv P→Q → NTT(2c) → (acc − ·)·P⁻¹  (Eq. 3)
//!     or   rescale_close INTT(2K+2) → Bconv {q_l}∪P → Q_{l−1} → NTT(2c−2)
//! ```
//!
//! with `c = level + 1` ciphertext channels, `K` special primes,
//! `t = c + K` and `β` occupied digits. Transforms per operation — the
//! count `metaop::counts::{keyswitch, hoisted_rotation_group}` charge when
//! every digit is full, and `tests/transform_counts.rs` asserts:
//!
//! | operation                         | channel transforms              |
//! |-----------------------------------|---------------------------------|
//! | `keyswitch_core`, `mul`, `rotate` | `β·t + 2t`                      |
//! | `rotate_hoisted`, `r` rotations   | `β·t + r·2t` (stage 1 shared)   |
//! | a BSGS layer, `r` giant rotations | `S + r·(K + c + S) + 2t`, `S = β·t` |
//! | `rescale`                         | `2·(1 + level)`                 |
//!
//! A BSGS layer ([`Evaluator::bsgs_rescaled`]) is double-hoisted: its baby
//! rotations share one stage 1 and stay in `Q·P`, unclosed, and so does
//! each giant group's plaintext-weighted inner sum; a giant rotation adds
//! `σ` of its inner sum's `c0` half as it is and key-switches the `c1` half
//! after one Moddown onto `Q_level` (`K` inverse, `c` forward). The whole
//! sum closes with one ModDown·Rescale: `{q_l} ∪ P` is the special modulus
//! of one Moddown onto `Q_{l−1}`, so the rescale that follows a layer costs
//! nothing (DESIGN.md §6.2 has both error bounds).
//!
//! Every buffer of the pipeline comes from this thread's [`Scratch`] pool:
//! stage 1's copies of a digit's channels (inverse-transformed one digit at
//! a time) and its converted channels, which [`Digits`] returns on drop; the
//! `Q·P` accumulators, whose close returns the channels the result does not
//! keep and tops the pool up behind the ones it does; and a layer's `Q·P`
//! babies and inner sums. At the `ckks_mlp` ring a BSGS layer at level 6
//! holds 115 at once ([`Evaluator::layer_buffers`]) under the pool's cap of
//! 128. Past the cap `Scratch::put` frees the surplus and the next call
//! allocates it again: correct, only slower.
//!
//! Three exact identities carry the saving (DESIGN.md §6.2). The NTT is
//! linear over `Z_q` and every stored value canonical, so Moddown's
//! subtract-and-scale commutes with it
//! ([`fhe_math::ModdownPlan::apply_ntt_into`]). The forward transform leaves
//! the evaluation at `ψ^(2·brv(i)+1)` in slot `i` and
//! `(σ_g a)(ψ^e) = a(ψ^(e·g))`, so for odd `g` the automorphism is a
//! signless gather there ([`fhe_math::galois_ntt_permutation`]) — no
//! transform. And `Moddown(x + P·y) = Moddown(x) + y`, so what needs no key
//! switch rides in the same accumulator and a group of rotations closes with
//! one stage 3 (the `BSP-L=n+` variant of Fig. 1).

use crate::ciphertext::{Ciphertext, Plaintext};
use crate::keys::{galois_element, GaloisKeys, RelinKey, SwitchKey};
use crate::{CkksContext, CkksError};
use fhe_math::{
    galois_ntt_permutation, lazy_mac, Domain, MacGather, MacReversed, MacSlots, ModdownPlan,
    Modulus, NttTable, Poly, RnsPoly, Scratch,
};
use std::borrow::Borrow;

/// Channel transforms issued by one public call, flushed to the
/// `ckks.ntt.forward` / `ckks.ntt.inverse` counters when it returns.
#[derive(Debug, Default)]
pub(crate) struct Transforms {
    forward: usize,
    inverse: usize,
}

impl Drop for Transforms {
    fn drop(&mut self) {
        telemetry::count_named("ckks.ntt.forward", self.forward as u64);
        telemetry::count_named("ckks.ntt.inverse", self.inverse as u64);
    }
}

/// The NTT-domain polynomial stage 1 decomposes, read by channel: a
/// ciphertext component, or the `Q_level` channels a Moddown left in
/// accumulator buffers (a BSGS giant's `c1` half).
trait Channels: Sync {
    /// Channel `pos` of `q_0..q_level`.
    fn at(&self, pos: usize) -> &[u64];
}

impl Channels for RnsPoly {
    fn at(&self, pos: usize) -> &[u64] {
        self.channel(pos).coeffs()
    }
}

impl Channels for [Vec<u64>] {
    fn at(&self, pos: usize) -> &[u64] {
        &self[pos]
    }
}

/// Stage 1 output: the NTT-domain extended digits of one polynomial.
struct Digits<'d, O: ?Sized> {
    /// The NTT-domain input; a digit's own channels are read from it.
    own: &'d O,
    /// `ext[i·t + pos]` is digit `i` on position `pos` of the extended
    /// basis (`q_0..q_level`, then `P`; `t` channels), lazy in `[0, 2q)`;
    /// empty where `pos` is one of the digit's own channels. Scratch-pool
    /// buffers, returned to the pool on drop.
    ext: Vec<Vec<u64>>,
    t: usize,
}

impl<O: Channels + ?Sized> Digits<'_, O> {
    fn channel(&self, i: usize, pos: usize) -> &[u64] {
        let converted = &self.ext[i * self.t + pos];
        if converted.is_empty() {
            self.own.at(pos)
        } else {
            converted
        }
    }
}

impl<O: ?Sized> Drop for Digits<'_, O> {
    fn drop(&mut self) {
        give_back(self.ext.drain(..));
    }
}

/// Appends `count` zeroed length-`n` buffers from this thread's scratch
/// pool to `bufs`.
fn take_pooled(bufs: &mut Vec<Vec<u64>>, n: usize, count: usize) {
    Scratch::with_thread_local(|s| bufs.extend((0..count).map(|_| s.take(n))));
}

/// Returns buffers to this thread's scratch pool (empty ones are ignored).
fn give_back(bufs: impl IntoIterator<Item = Vec<u64>>) {
    Scratch::with_thread_local(|s| bufs.into_iter().for_each(|b| s.put(b)));
}

/// Tops this thread's scratch pool up to `count` buffers with newly
/// allocated length-`n` ones, after a result has kept pooled buffers.
///
/// A result takes the pool's old buffers and the pool the new ones, not the
/// other way round: what a caller later frees is then old memory, low in the
/// heap, while the long-lived pool sits on the newest. Handing results new
/// buffers instead left them on top of the heap, and freeing them there let
/// glibc trim it after every call (≈ 900 minor page faults per `ckks_mlp`
/// inference). Topping up only to `count` rather than replacing every
/// buffer a result took lets the pool shrink from a high level's needs to a
/// lower one's: a pool that kept level 6's 45 buffers through a level-4
/// layer put `ckks_mlp`'s peak heap 0.3 MB higher.
fn top_up(n: usize, count: usize) {
    Scratch::with_thread_local(|s| {
        // A full pool refuses a buffer (`Scratch::put`): stop there.
        while s.pooled() < count {
            let held = s.pooled();
            s.put(Vec::with_capacity(n));
            if s.pooled() == held {
                break;
            }
        }
    });
}

/// Where the ciphertext of a BSGS layer's plaintext term comes from.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Source<'a> {
    /// Baby rotation `k` of the layer, held over `Q_level ∪ P` before any
    /// Moddown.
    Baby(usize),
    /// A level-`level` component pair, such as the input itself for baby
    /// offset 0. The term's images are pre-multiplied by `P mod q_c`, which
    /// lifts the product into the `Q·P` sum with nothing on `P`, so they
    /// need no `P` images.
    Lifted(&'a RnsPoly, &'a RnsPoly),
}

/// One plaintext term of a BSGS layer: its source and the plaintext's
/// channel images, on `Q_level ∪ P` for a baby and on `Q_level` for a
/// lifted pair, each either whole (`n` entries) or the first half of a
/// palindrome (`n/2`; see `linear.rs`).
pub(crate) type Term<'a> = (Source<'a>, &'a [Vec<u64>]);

/// A giant group of a BSGS layer: its rotation and its terms.
pub(crate) type Group<'a> = (isize, Vec<Term<'a>>);

/// One group's inner sum `Σ_k pt_k ⊙ src_k` over `Q_level ∪ P`, formed a
/// channel at a time by [`InnerSum::mac_into`] as one fused lazy MAC — the
/// paper's `(M_j A_j)_n R_j` shape: one reduction per slot per group, no
/// per-term ciphertext.
struct InnerSum<'g, 'a> {
    /// Whole and folded terms apart — canonical sums do not depend on the
    /// order of their terms, so the two forms are accumulated one after the
    /// other — each with its baby terms first, and their count: a `P`
    /// channel, which a lifted term does not reach, reads that prefix.
    forms: [(Vec<&'g Term<'a>>, MacMap<'static>, usize); 2],
    /// The layer's baby accumulators.
    babies: &'g [Vec<Vec<u64>>],
    /// `c = level + 1` and `t = c + K`.
    c: usize,
    t: usize,
}

impl<'g, 'a> InnerSum<'g, 'a> {
    fn new(
        terms: &'g [Term<'a>],
        babies: &'g [Vec<Vec<u64>>],
        n: usize,
        c: usize,
        t: usize,
    ) -> Self {
        let (mut whole, mut folded): (Vec<_>, Vec<_>) =
            terms.iter().partition(|(_, pt)| pt[0].len() == n);
        let lifted = |term: &&Term<'_>| matches!(term.0, Source::Lifted(..));
        whole.sort_unstable_by_key(lifted);
        folded.sort_unstable_by_key(lifted);
        let forms = [(whole, MacMap::Straight), (folded, MacMap::FoldedB)].map(|(form, map)| {
            let on_p = form.iter().filter(|term| !lifted(term)).count();
            (form, map, on_p)
        });
        InnerSum { forms, babies, c, t }
    }

    /// `out += ` channel `pos` of the sum's half `half` (`q_0..q_level`,
    /// then `P`), modulo that channel's `m`.
    fn mac_into(&self, m: &Modulus, half: usize, pos: usize, out: &mut [u64]) {
        for (form, map, on_p) in &self.forms {
            let row = |k: usize| {
                let (source, pt) = *form[k];
                let a = match source {
                    Source::Baby(b) => self.babies[b][half * self.t + pos].as_slice(),
                    Source::Lifted(c0, c1) => [c0, c1][half].channel(pos).coeffs(),
                };
                (a, pt[pos].as_slice())
            };
            mac_channel(m, if pos < self.c { form.len() } else { *on_p }, row, *map, out);
        }
    }
}

/// How one [`mac_channel`] call indexes its operands.
#[derive(Clone, Copy)]
enum MacMap<'p> {
    /// `a[s]·b[s]`.
    Straight,
    /// `a[perm[s]]·b[s]`: σ as an NTT-domain gather (the key MAC).
    Gather(&'p [u32]),
    /// `a[s]·b[min(s, n−1−s)]`: `b` is the first half of a palindrome
    /// (a real-slot plaintext, see `linear.rs`).
    FoldedB,
}

/// `out[s] ← (out[s] + Σ_r a_r[·]·b_r[·]) mod q` over the `terms` pairs
/// `row(r) = (a_r, b_r)`, indexed as `map` says — the paper's
/// `(M_j A_j)_n R_j` through the blocked kernel [`lazy_mac`]. `a_r` may be
/// lazy in `[0, 2q)`; `out` stays canonical.
///
/// Kept out of line: inlined into [`Evaluator::mac_key`]'s channel loop it
/// ran a rotation and a BSGS layer ≈ 2–3 % slower on a 2-vCPU x86-64 host
/// (EXPERIMENTS.md 2026-10-18).
#[inline(never)]
fn mac_channel<'r>(
    m: &Modulus,
    terms: usize,
    row: impl Fn(usize) -> (&'r [u64], &'r [u64]),
    map: MacMap<'_>,
    out: &mut [u64],
) {
    match map {
        MacMap::Straight => lazy_mac(m, terms, row, MacSlots, MacSlots, out),
        MacMap::Gather(p) => lazy_mac(m, terms, row, MacGather(p), MacSlots, out),
        // Two half-loops, each with a plain read: a per-element select
        // here costs a third of what folding saves.
        MacMap::FoldedB => {
            let h = out.len() / 2;
            let (lo, hi) = out.split_at_mut(h);
            lazy_mac(m, terms, &row, MacSlots, MacSlots, lo);
            let upper = |r: usize| {
                let (a, b) = row(r);
                (&a[h..], b)
            };
            lazy_mac(m, terms, upper, MacSlots, MacReversed(h), hi);
        }
    }
}

/// `σ_g(p)` of an NTT-domain polynomial: the gather through `perm`.
fn permuted(p: &RnsPoly, perm: &[u32]) -> RnsPoly {
    let mut out = p.clone();
    for (o, c) in out.channels_mut().iter_mut().zip(p.channels()) {
        for (y, &i) in o.coeffs_mut().iter_mut().zip(perm) {
            *y = c.coeffs()[i as usize];
        }
    }
    out
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
        let mut out = a.clone();
        self.add_assign(&mut out, b)?;
        Ok(out)
    }

    /// In-place [`Evaluator::add`]: `a += b`, resealed.
    fn add_assign(&self, a: &mut Ciphertext, b: &Ciphertext) -> Result<(), CkksError> {
        telemetry::count_named("ckks.op.add", 1);
        self.check_pair(a, b)?;
        let (c0, c1) = a.components_mut();
        c0.add_assign(b.c0())?;
        c1.add_assign(b.c1())?;
        a.reseal();
        Ok(())
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
    /// Returns [`CkksError::IntegrityViolation`] on a corrupted input.
    pub fn neg(&self, a: &Ciphertext) -> Result<Ciphertext, CkksError> {
        a.verify_integrity("ckks.eval")?;
        Ok(Ciphertext::from_parts(a.c0().neg(), a.c1().neg(), a.level(), a.scale()))
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
    /// None today: it forwards [`fhe_math::RnsPoly::to_ntt`]'s `Result`.
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
        // Tensor product, `d2` first: relinearized down onto (c0, c1) before
        // the other two terms are formed, so they are never live beside the
        // key switch's buffers.
        let d2 = a.c1().mul_pointwise(b.c1())?;
        let (mut k0, mut k1) = self.keyswitch_core(&d2, rlk.switch_key(), level)?;
        drop(d2);
        k0.add_assign(&a.c0().mul_pointwise(b.c0())?)?;
        let mut d1 = a.c0().mul_pointwise(b.c1())?;
        d1.add_assign(&a.c1().mul_pointwise(b.c0())?)?;
        k1.add_assign(&d1)?;
        Ok(Ciphertext::from_parts(k0, k1, level, a.scale() * b.scale()))
    }

    /// Squares a ciphertext (3 instead of 4 tensor products): the cross
    /// term `c0·c1` is formed once and added twice, bit-identical to
    /// [`Evaluator::mul`]`(a, a)`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Evaluator::mul`].
    pub fn square(&self, a: &Ciphertext, rlk: &RelinKey) -> Result<Ciphertext, CkksError> {
        let _span = telemetry::Span::enter("ckks.eval.mul");
        telemetry::count_named("ckks.op.mul", 1);
        a.verify_integrity("ckks.eval")?;
        if a.level() == 0 {
            return Err(CkksError::LevelExhausted);
        }
        let level = a.level();
        let d2 = a.c1().mul_pointwise(a.c1())?;
        let (mut k0, mut k1) = self.keyswitch_core(&d2, rlk.switch_key(), level)?;
        drop(d2);
        k0.add_assign(&a.c0().mul_pointwise(a.c0())?)?;
        let cross = a.c0().mul_pointwise(a.c1())?;
        k1.add_assign(&cross)?;
        k1.add_assign(&cross)?;
        Ok(Ciphertext::from_parts(k0, k1, level, a.scale() * a.scale()))
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
        self.rescale_pair((a.c0(), a.c1()), a.level(), a.scale(), &mut Transforms::default())
    }

    /// [`Evaluator::rescale`] of an unsealed level-`level` pair at `scale`.
    fn rescale_pair(
        &self,
        (c0, c1): (&RnsPoly, &RnsPoly),
        level: usize,
        scale: f64,
        tally: &mut Transforms,
    ) -> Result<Ciphertext, CkksError> {
        if level == 0 {
            return Err(CkksError::LevelExhausted);
        }
        let q_last = self.ctx.rns().moduli()[level];
        let c0 = self.rescale_poly(c0, level, tally)?;
        let c1 = self.rescale_poly(c1, level, tally)?;
        Ok(Ciphertext::from_parts(c0, c1, level - 1, scale / q_last.value() as f64))
    }

    fn rescale_poly(
        &self,
        p: &RnsPoly,
        level: usize,
        tally: &mut Transforms,
    ) -> Result<RnsPoly, CkksError> {
        // INTT the dropped channel, lift into each remaining channel, NTT
        // there, subtract and scale by q_last^{-1}.
        tally.inverse += 1;
        tally.forward += level;
        let mut last = p.channel(level).clone();
        last.to_coeff(self.ctx.table(level));
        let q_last = self.ctx.rns().moduli()[level];
        let n = self.ctx.n();
        let invs = &self.ctx.plans(level).rescale_inv;
        let positions: Vec<usize> = (0..level).collect();
        let channels = positions
            .iter()
            .map(|&c| {
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
            })
            .collect();
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
        assert_eq!(d.domain(), Domain::Ntt, "keyswitch input must be in NTT domain");
        let mut tally = Transforms::default();
        let digits = self.modup_ntt(d, level, &mut tally)?;
        let mut acc = self.qp_acc(level);
        self.mac_key(&digits, key, None, &mut acc);
        self.moddown_ntt(acc, &mut tally)
    }

    /// Global channel at extended-basis position `pos` of `level`
    /// (`q_0..q_level`, then the special primes).
    fn ext_channel(&self, level: usize, pos: usize) -> usize {
        if pos <= level {
            pos
        } else {
            self.ctx.q_len() + pos - (level + 1)
        }
    }

    /// Stage 1 (shareable across rotations — hoisting): decompose, Modup
    /// each occupied digit onto the rest of `Q_level ∪ P`, and NTT the
    /// converted channels. Digit by digit, the inverse transforms run on
    /// pooled copies of the digit's own channels, which go back to the pool
    /// once its conversion has written its pooled output channels.
    fn modup_ntt<'d, O: Channels + ?Sized>(
        &self,
        d: &'d O,
        level: usize,
        tally: &mut Transforms,
    ) -> Result<Digits<'d, O>, CkksError> {
        // Histogram-only probe: latency of the hoistable keyswitch half.
        let _t = telemetry::Timer::enter("ckks.keyswitch.modup_ntt");
        let (n, t) = (self.ctx.n(), level + 1 + self.ctx.k_len());
        let plans = self.ctx.plans(level);
        let mut digits = Digits { own: d, ext: vec![Vec::new(); plans.digits.len() * t], t };
        let (mut coeff, mut out) = (Vec::with_capacity(level + 1), Vec::with_capacity(t));
        for (i, (digit, (dst, plan))) in plans.digits.iter().zip(&plans.modup).enumerate() {
            // The digit's own channels, copied out of the NTT domain.
            take_pooled(&mut coeff, n, digit.len());
            for (buf, &c) in coeff.iter_mut().zip(digit) {
                buf.copy_from_slice(d.at(c));
                self.ctx.table(c).inverse(buf);
            }
            let src: Vec<&[u64]> = coeff.iter().map(Vec::as_slice).collect();
            take_pooled(&mut out, n, dst.len());
            plan.apply_into(&src, &mut out)?;
            give_back(coeff.drain(..));
            for (&gc, buf) in dst.iter().zip(out.drain(..)) {
                let pos = if gc <= level { gc } else { level + 1 + gc - self.ctx.q_len() };
                digits.ext[i * t + pos] = buf;
            }
        }
        for (idx, buf) in digits.ext.iter_mut().enumerate() {
            if !buf.is_empty() {
                self.ctx.table(self.ext_channel(level, idx % t)).forward_lazy(buf);
            }
        }
        tally.inverse += level + 1;
        tally.forward += digits.ext.len() - (level + 1);
        Ok(digits)
    }

    /// A zeroed key-switch accumulator pair over `Q_level ∪ P`, NTT domain:
    /// `2t` scratch-pool buffers, half 0 (the `c0` side) then half 1, each
    /// ordered `q_0..q_level, p_0..p_{K-1}`.
    fn qp_acc(&self, level: usize) -> Vec<Vec<u64>> {
        let count = 2 * (level + 1 + self.ctx.k_len());
        let mut bufs = Vec::with_capacity(count);
        take_pooled(&mut bufs, self.ctx.n(), count);
        bufs
    }

    /// Stage 2 (`DecompPolyMult`): `acc += Σ_i σ(digit_i) ⊙ key_i`, both
    /// halves, every channel of `Q_level ∪ P`, one channel at a time (each
    /// independent, as in the slot/channel partitioning of paper §5.3).
    /// `perm` is σ as an NTT-domain gather; `None` is the identity.
    fn mac_key<O: Channels + ?Sized>(
        &self,
        digits: &Digits<'_, O>,
        key: &SwitchKey,
        perm: Option<&[u32]>,
        acc: &mut [Vec<u64>],
    ) {
        // Histogram-only probe: latency of the per-key keyswitch half.
        let _t = telemetry::Timer::enter("ckks.keyswitch.key_mac");
        let t = digits.t;
        let (beta, level) = (digits.ext.len() / t, t - self.ctx.k_len() - 1);
        for (idx, out) in acc.iter_mut().enumerate() {
            let (half, pos) = (idx / t, idx % t);
            let gc = self.ext_channel(level, pos);
            let row = |i: usize| {
                let (kb, ka) = &key.digit_keys()[i];
                let k = if half == 0 { kb } else { ka };
                (digits.channel(i, pos), k.channel(gc).coeffs())
            };
            let map = perm.map_or(MacMap::Straight, MacMap::Gather);
            mac_channel(&self.ctx.rns().moduli()[gc], beta, row, map, out);
        }
    }

    /// `acc[half] += P·σ(p)` for a `Q_level` polynomial `p`, `σ` the gather
    /// `perm`: Moddown divides `P` back out exactly, so `σ(p)` is added to
    /// that half of the result.
    fn add_times_p(&self, acc: &mut [Vec<u64>], half: usize, p: &RnsPoly, perm: &[u32]) {
        let t = acc.len() / 2;
        for (c, (out, ch)) in acc[half * t..].iter_mut().zip(p.channels()).enumerate() {
            let (m, scale, src) = (ch.modulus(), self.ctx.p_mod_q(c), ch.coeffs());
            for (o, &i) in out.iter_mut().zip(perm) {
                *o = m.add(*o, m.mul_shoup(src[i as usize], scale));
            }
        }
    }

    /// Stage 3: NTT-domain Moddown of both halves back onto `Q_level`.
    fn moddown_ntt(
        &self,
        acc: Vec<Vec<u64>>,
        tally: &mut Transforms,
    ) -> Result<(RnsPoly, RnsPoly), CkksError> {
        let c = acc.len() / 2 - self.ctx.k_len();
        let p_tables = &self.ctx.rns().tables()[self.ctx.q_len()..];
        self.close(acc, &self.ctx.plans(c - 1).moddown, p_tables, tally)
    }

    /// Stage 3 fused with the rescale: both halves of a level-`level`
    /// accumulator onto `Q_{level−1}` by one Moddown whose special modulus
    /// is `q_level·P`, sealed at `scale / q_level`. `2(K + 1)` inverse and
    /// `2(c − 1)` forward transforms: the `2t` of [`Self::moddown_ntt`],
    /// with no rescale after it.
    ///
    /// Against [`Self::moddown_ntt`] then [`Self::rescale_pair`] the result
    /// differs only in the low bits. For the integer `x` a half holds, the
    /// two-step close is `round((⌊x/P⌋ − u₁)/q_level)` with the Bconv
    /// overflow `u₁ ∈ [0, K)`, i.e. `⌊x/(P·q_level)⌋` or one more; this one
    /// is `⌊x/(P·q_level)⌋ − u` with `u ∈ [0, K]`. Per coefficient,
    /// `fused − two_step ∈ [−(K + 1), 0]`.
    fn rescale_close(
        &self,
        acc: Vec<Vec<u64>>,
        level: usize,
        scale: f64,
        tally: &mut Transforms,
    ) -> Result<Ciphertext, CkksError> {
        let plan =
            self.ctx.plans(level).moddown_rescale.as_ref().ok_or(CkksError::LevelExhausted)?;
        let tables = self.ctx.rns().tables();
        let mut sources: Vec<&NttTable> = Vec::with_capacity(1 + self.ctx.k_len());
        sources.push(&tables[level]);
        sources.extend(&tables[self.ctx.q_len()..]);
        let (c0, c1) = self.close(acc, plan, &sources, tally)?;
        let q_last = self.ctx.rns().moduli()[level].value() as f64;
        Ok(Ciphertext::from_parts(c0, c1, level - 1, scale / q_last))
    }

    /// Closes both halves of `acc` with `plan` in the NTT domain: the last
    /// `p_tables.len()` channels of a half are the plan's sources (returned
    /// to the scratch pool), the channels before them its result.
    fn close<T: Borrow<NttTable> + Sync>(
        &self,
        mut acc: Vec<Vec<u64>>,
        plan: &ModdownPlan,
        p_tables: &[T],
        tally: &mut Transforms,
    ) -> Result<(RnsPoly, RnsPoly), CkksError> {
        let _t = telemetry::Timer::enter("ckks.keyswitch.moddown_ntt");
        let half = acc.len() / 2;
        let keep = half - p_tables.len();
        let q_tables = &self.ctx.rns().tables()[..keep];
        let close = |side: &mut [Vec<u64>]| {
            let (q, p) = side.split_at_mut(keep);
            plan.apply_ntt_into(q_tables, p_tables, q, p)?;
            self.poly_from_ntt(q.iter_mut().map(std::mem::take))
        };
        let (half0, half1) = acc.split_at_mut(half);
        let out = (close(half0)?, close(half1)?);
        tally.inverse += 2 * p_tables.len();
        tally.forward += 2 * keep;
        give_back(acc);
        // Enough for the next close at this level: its accumulator and the
        // one conversion buffer `apply_ntt_into` draws.
        top_up(self.ctx.n(), 2 * half + 1);
        Ok(out)
    }

    /// Wraps canonical NTT-domain buffers as channels `0..` of an `RnsPoly`.
    fn poly_from_ntt(&self, bufs: impl Iterator<Item = Vec<u64>>) -> Result<RnsPoly, CkksError> {
        let channels = bufs
            .zip(self.ctx.rns().moduli())
            .map(|(data, &m)| Poly::from_ntt(data, m))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(RnsPoly::from_channels(channels)?)
    }

    /// The Galois element and key of a slot rotation by `r`.
    fn rotation_key<'k>(
        &self,
        r: isize,
        gk: &'k GaloisKeys,
    ) -> Result<(usize, &'k SwitchKey), CkksError> {
        let g = galois_element(self.ctx.n(), r);
        let key = gk.key_for_element(g).ok_or(CkksError::MissingKey {
            detail: format!("rotation key for r = {r} (g = {g})"),
        })?;
        Ok((g, key))
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
        let (g, key) = self.rotation_key(r, gk)?;
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

    /// `(σ_g(c0) + k0, k1)` with `(k0, k1)` the key switch of `σ_g(c1)`:
    /// both components are permuted in the NTT domain, no transform.
    fn apply_galois(
        &self,
        a: &Ciphertext,
        g: usize,
        key: &SwitchKey,
    ) -> Result<Ciphertext, CkksError> {
        a.verify_integrity("ckks.eval")?;
        let perm = galois_ntt_permutation(self.ctx.n(), g)?;
        let mut tally = Transforms::default();
        let c1g = permuted(a.c1(), &perm);
        let digits = self.modup_ntt(&c1g, a.level(), &mut tally)?;
        let mut acc = self.qp_acc(a.level());
        self.mac_key(&digits, key, None, &mut acc);
        self.add_times_p(&mut acc, 0, a.c0(), &perm);
        let (k0, k1) = self.moddown_ntt(acc, &mut tally)?;
        Ok(Ciphertext::from_parts(k0, k1, a.level(), a.scale()))
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
            self.add_assign(&mut acc, &rotated)?;
            step *= 2;
        }
        Ok(acc)
    }

    /// Rotates by every offset in `rotations` with **Modup hoisting**:
    /// stage 1 of the key switch of `c1` — decomposition, Modup *and* NTT —
    /// is computed once and shared, each rotation paying only its key MAC
    /// (through the NTT-domain gather) and Moddown: the paper's `BSP-L=n+`
    /// configuration. Returns the rotated ciphertexts in input order.
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
        let raw = self.rotate_hoisted_raw(a, rotations, gk, &mut Transforms::default())?;
        Ok(raw
            .into_iter()
            .map(|(c0, c1)| Ciphertext::from_parts(c0, c1, a.level(), a.scale()))
            .collect())
    }

    /// [`Evaluator::rotate_hoisted`] on an already verified input, returning
    /// the unsealed component pairs.
    pub(crate) fn rotate_hoisted_raw(
        &self,
        a: &Ciphertext,
        rotations: &[isize],
        gk: &GaloisKeys,
        tally: &mut Transforms,
    ) -> Result<Vec<(RnsPoly, RnsPoly)>, CkksError> {
        if rotations.is_empty() {
            return Ok(Vec::new());
        }
        let digits = self.modup_ntt(a.c1(), a.level(), tally)?;
        let mut out = Vec::with_capacity(rotations.len());
        for &r in rotations {
            let mut acc = self.qp_acc(a.level());
            self.rotate_into(&mut acc, &digits, a.c0(), r, gk)?;
            out.push(self.moddown_ntt(acc, tally)?);
        }
        Ok(out)
    }

    /// `acc += rot_r(c0, c1)` before Moddown, `digits` being stage 1 of `c1`:
    /// the key MAC and `P·c0`, both through the gather of `r`.
    fn rotate_into(
        &self,
        acc: &mut [Vec<u64>],
        digits: &Digits<'_, RnsPoly>,
        c0: &RnsPoly,
        r: isize,
        gk: &GaloisKeys,
    ) -> Result<(), CkksError> {
        let (g, key) = self.rotation_key(r, gk)?;
        let perm = galois_ntt_permutation(self.ctx.n(), g)?;
        self.mac_key(digits, key, Some(&perm), acc);
        self.add_times_p(acc, 0, c0, &perm);
        Ok(())
    }

    /// A BSGS linear layer, `Σ_i rot_{r_i}(Σ_k pt_ik ⊙ src_ik)` over the
    /// `groups` with every baby source `rot_{babies[b]}(ct)`, double-hoisted
    /// and rescaled: one level down, at `ct.scale()·pt_scale / q_level`.
    ///
    /// 1. The babies share one stage 1 of `c1`, and each stays a `Q·P`
    ///    accumulator — its key MAC plus `P·σ(c0)` — with no Moddown; stage
    ///    1's digits go back to the pool before the inner sums.
    /// 2. A group's inner sum is an [`InnerSum`] over `Q_level ∪ P`; group
    ///    0's goes straight into the final accumulator.
    /// 3. A giant rotation `r` adds `σ_r` of its inner sum's `c0` half as it
    ///    is, one channel at a time through one pooled buffer, and the key
    ///    switch of its `c1` half after one Moddown onto `Q_level` (`K`
    ///    inverse and `c` forward transforms, then stage 1). One `c1`
    ///    buffer set serves every giant.
    /// 4. One ModDown·Rescale closes the whole sum ([`Self::rescale_close`]).
    ///
    /// `S + r·(K + c + S) + 2t` transforms for `r` giant rotations. Against
    /// a Moddown per baby the result is exact up to one rounding per giant
    /// `c1` half and the close (DESIGN.md §6.2).
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::LevelExhausted`] at level 0 and
    /// [`CkksError::MissingKey`] if a rotation key is missing.
    pub(crate) fn bsgs_rescaled(
        &self,
        ct: &Ciphertext,
        babies: &[isize],
        groups: &[Group<'_>],
        gk: &GaloisKeys,
        pt_scale: f64,
    ) -> Result<Ciphertext, CkksError> {
        let level = ct.level();
        if level == 0 {
            return Err(CkksError::LevelExhausted);
        }
        let (c, n, k) = (level + 1, self.ctx.n(), self.ctx.k_len());
        let t = c + k;
        let mut tally = Transforms::default();
        let mut rotated = Vec::with_capacity(babies.len());
        if !babies.is_empty() {
            let digits = self.modup_ntt(ct.c1(), level, &mut tally)?;
            for &r in babies {
                let mut acc = self.qp_acc(level);
                self.rotate_into(&mut acc, &digits, ct.c0(), r, gk)?;
                rotated.push(acc);
            }
        }
        let modulus = |pos: usize| &self.ctx.rns().moduli()[self.ext_channel(level, pos)];
        let tables = self.ctx.rns().tables();
        let mut acc = self.qp_acc(level);
        let mut c1 = Vec::with_capacity(t);
        for (r, terms) in groups {
            let sum = InnerSum::new(terms, &rotated, n, c, t);
            if *r == 0 {
                for (idx, out) in acc.iter_mut().enumerate() {
                    sum.mac_into(modulus(idx % t), idx / t, idx % t, out);
                }
                continue;
            }
            let (g, key) = self.rotation_key(*r, gk)?;
            let perm = galois_ntt_permutation(n, g)?;
            for (pos, out) in acc[..t].iter_mut().enumerate() {
                let m = modulus(pos);
                Scratch::with_thread_local(|s| {
                    let mut channel = s.take(n);
                    sum.mac_into(m, 0, pos, &mut channel);
                    for (o, &i) in out.iter_mut().zip(&perm) {
                        *o = m.add(*o, channel[i as usize]);
                    }
                    s.put(channel);
                });
            }
            if c1.is_empty() {
                take_pooled(&mut c1, n, t);
            } else {
                c1.iter_mut().for_each(|ch| ch.fill(0));
            }
            for (pos, out) in c1.iter_mut().enumerate() {
                sum.mac_into(modulus(pos), 1, pos, out);
            }
            let (q, p) = c1.split_at_mut(c);
            let moddown = &self.ctx.plans(level).moddown;
            moddown.apply_ntt_into(&tables[..c], &tables[self.ctx.q_len()..], q, p)?;
            tally.inverse += k;
            tally.forward += c;
            let digits = self.modup_ntt(&*q, level, &mut tally)?;
            self.mac_key(&digits, key, Some(&perm), &mut acc);
        }
        give_back(c1);
        give_back(rotated.into_iter().flatten());
        let out = self.rescale_close(acc, level, ct.scale() * pt_scale, &mut tally)?;
        top_up(n, self.layer_buffers(level, babies.len()));
        Ok(out)
    }

    /// Pooled buffers [`Self::bsgs_rescaled`] holds at once at `level` with
    /// `babies` baby rotations: the babies' and the final `Q·P`
    /// accumulators, `2t` each, and a giant's `c1` half, `t`, beside its
    /// stage 1 at its widest — the digits converted so far, then one
    /// digit's coefficient copies, its conversion's pre-scaled copies and
    /// its converted channels. At the `ckks_mlp` ring, level 6:
    /// `20·(3 + 1) + 10 + 25 = 115`; level 4: `16·(3 + 1) + 8 + 15 = 87`.
    fn layer_buffers(&self, level: usize, babies: usize) -> usize {
        let plans = self.ctx.plans(level);
        let (mut converted, mut stage1) = (0, 0);
        for (digit, (dst, _)) in plans.digits.iter().zip(&plans.modup) {
            stage1 = stage1.max(converted + 2 * digit.len() + dst.len());
            converted += dst.len();
        }
        let t = level + 1 + self.ctx.k_len();
        2 * t * (babies + 1) + t + stage1
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
        let sq = ev.square(&ca, &rlk).unwrap();
        assert_eq!(sq, ev.mul(&ca, &ca, &rlk).unwrap(), "a doubled cross term is c0·c1 + c1·c0");
        let sq = ev.rescale(&sq).unwrap();
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
    fn warmed_up_key_mac_and_moddown_allocate_nothing() {
        // Stage 2 + 3 on a pooled accumulator: this thread's scratch pool
        // serves every buffer.
        let mut f = fixture();
        let ctx = &f.ctx;
        let sk = SecretKey::generate(ctx, &mut f.rng).unwrap();
        let gk = GaloisKeys::generate(ctx, &sk, &[1], false, &mut f.rng).unwrap();
        let enc = Encoder::new(ctx);
        let ev = Evaluator::new(ctx);
        let ct = sk.encrypt(ctx, &enc.encode(&[0.5, -1.0]).unwrap(), &mut f.rng).unwrap();
        let level = ct.level();
        let (g, key) = ev.rotation_key(1, &gk).unwrap();
        let perm = galois_ntt_permutation(ctx.n(), g).unwrap();
        let digits = ev.modup_ntt(ct.c1(), level, &mut Transforms::default()).unwrap();
        let mut acc = ev.qp_acc(level);
        let tables = ctx.rns().tables();
        let mut stages_2_and_3 = || {
            ev.mac_key(&digits, key, Some(&perm), &mut acc);
            ev.add_times_p(&mut acc, 0, ct.c0(), &perm);
            for half in acc.chunks_mut(digits.t) {
                let (q, p) = half.split_at_mut(level + 1);
                let moddown = &ctx.plans(level).moddown;
                moddown.apply_ntt_into(&tables[..=level], &tables[ctx.q_len()..], q, p).unwrap();
            }
        };
        stages_2_and_3();
        telemetry::alloc::assert_no_alloc("ckks.keyswitch.stages_2_3", stages_2_and_3);
    }

    /// The fused close against Moddown then rescale of the same accumulator,
    /// at every level ≥ 1. Per coefficient `fused − two_step` is the residue
    /// of one integer in `[−(K + 1), 0]` on every channel (the bound derived
    /// at [`Evaluator::rescale_close`]); decrypted, that is at most
    /// `(K + 1)(1 + ‖s‖₁)` per coefficient, and decoded at most `n` times
    /// that over the scale per slot.
    fn fused_close_stays_within_its_bound(params: CkksParams, seed: u64) {
        let ctx = CkksContext::new(params).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let sk = SecretKey::generate(&ctx, &mut rng).unwrap();
        let gk = GaloisKeys::generate(&ctx, &sk, &[1], false, &mut rng).unwrap();
        let (enc, ev) = (Encoder::new(&ctx), Evaluator::new(&ctx));
        let values: Vec<f64> =
            (0..enc.slots()).map(|j| ((j * 7 % 11) as f64 - 5.0) / 8.0).collect();
        let top = sk.encrypt(&ctx, &enc.encode(&values).unwrap(), &mut rng).unwrap();
        let k = ctx.k_len() as i64;
        let s_norm: i64 = sk.coefficients().iter().map(|c| c.abs()).sum();
        let decoded = |ct: &Ciphertext| enc.decode(&sk.decrypt(ct).unwrap()).unwrap();
        for level in 1..ctx.q_len() {
            // A rotated and an un-rotated term, as a BSGS layer's giant steps
            // leave the accumulator.
            let ct = ev.level_down(&top, level).unwrap();
            let mut acc = ev.qp_acc(level);
            let digits = ev.modup_ntt(ct.c1(), level, &mut Transforms::default()).unwrap();
            ev.rotate_into(&mut acc, &digits, ct.c0(), 1, &gk).unwrap();
            drop(digits);
            let identity = galois_ntt_permutation(ctx.n(), 1).unwrap();
            ev.add_times_p(&mut acc, 0, ct.c0(), &identity);
            ev.add_times_p(&mut acc, 1, ct.c1(), &identity);
            let (scale, tally) = (ct.scale() * ctx.params().scale(), &mut Transforms::default());
            let (c0, c1) = ev.moddown_ntt(acc.clone(), tally).unwrap();
            let two_step = ev.rescale_pair((&c0, &c1), level, scale, tally).unwrap();
            let fused = ev.rescale_close(acc, level, scale, tally).unwrap();
            assert_eq!((fused.level(), fused.scale()), (two_step.level(), two_step.scale()));
            let moduli = ctx.level_moduli(level - 1);
            for (f, t) in [(fused.c0(), two_step.c0()), (fused.c1(), two_step.c1())] {
                let (mut f, mut t) = (f.clone(), t.clone());
                f.to_coeff(ctx.level_tables(level - 1));
                t.to_coeff(ctx.level_tables(level - 1));
                let diff = |c: usize, i: usize| {
                    moduli[c].sub(f.channel(c).coeffs()[i], t.channel(c).coeffs()[i])
                };
                for i in 0..ctx.n() {
                    let delta = moduli[0].to_centered(diff(0, i));
                    assert!((-(k + 1)..=0).contains(&delta), "level {level} coeff {i}: {delta}");
                    for (c, m) in moduli.iter().enumerate() {
                        assert_eq!(diff(c, i), m.from_i64(delta), "level {level} coeff {i}");
                    }
                }
            }
            let bound = ctx.n() as f64 * ((k + 1) * (1 + s_norm)) as f64 / fused.scale();
            for (j, (a, b)) in decoded(&fused).iter().zip(decoded(&two_step)).enumerate() {
                assert!((a - b).abs() <= bound, "level {level} slot {j}: {a} vs {b} ({bound})");
            }
        }
    }

    #[test]
    fn fused_close_stays_within_its_bound_at_the_toy_ring() {
        fused_close_stays_within_its_bound(CkksParams::toy().unwrap(), 41);
    }

    #[test]
    fn fused_close_stays_within_its_bound_at_the_mlp_ring() {
        fused_close_stays_within_its_bound(CkksParams::new(1 << 12, 6, 3, 36).unwrap(), 43);
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
