//! Residue number system (RNS) polynomials and fast base conversion.
//!
//! Arithmetic FHE splits a ciphertext modulus `Q = ∏ q_i` of hundreds or
//! thousands of bits into parallel word-sized channels (paper §2.2). The
//! three RNS primitives Alchemist accelerates all live here:
//!
//! * [`RnsContext::bconv`] — fast basis conversion, paper Eq. (1):
//!   `[x]_{p_j} = (Σ_i [[x]_{q_i}·q̂_i^{-1}]_{q_i} · q̂_i) mod p_j`,
//! * [`RnsContext::modup`] — Eq. (2), extending `[x]_Q` to `[x]_{Q·P}`,
//! * [`RnsContext::moddown`] — Eq. (3), scaling back down by `P^{-1}`.
//!
//! The fast conversion is *approximate*: it returns `x + u·Q (mod p_j)` for
//! some small `u ∈ [0, L)`. That slack is standard in RNS-CKKS (absorbed by
//! noise) and is asserted exactly in the tests via [`crate::UBig`]
//! reconstruction.

use std::borrow::Borrow;

use crate::poly::Domain;
use crate::{simd, MathError, Modulus, NttTable, Poly, Scratch, UBig};

/// An ordered set of word-sized prime moduli forming an RNS basis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RnsBasis {
    moduli: Vec<Modulus>,
}

impl RnsBasis {
    /// Creates a basis from distinct moduli.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::InvalidParameter`] if the list is empty or
    /// contains duplicates (CRT requires pairwise-coprime moduli; distinct
    /// primes guarantee it).
    pub fn new(moduli: Vec<Modulus>) -> Result<Self, MathError> {
        if moduli.is_empty() {
            return Err(MathError::InvalidParameter { detail: "empty RNS basis".into() });
        }
        let mut values: Vec<u64> = moduli.iter().map(|m| m.value()).collect();
        values.sort_unstable();
        values.dedup();
        if values.len() != moduli.len() {
            return Err(MathError::InvalidParameter {
                detail: "RNS basis contains duplicate moduli".into(),
            });
        }
        Ok(RnsBasis { moduli })
    }

    /// The moduli in order.
    #[inline]
    pub fn moduli(&self) -> &[Modulus] {
        &self.moduli
    }

    /// Number of channels.
    #[inline]
    pub fn len(&self) -> usize {
        self.moduli.len()
    }

    /// `true` if the basis has no channels (never true for a constructed
    /// basis; present for completeness).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.moduli.is_empty()
    }

    /// The exact product `∏ q_i` as a big integer.
    pub fn product(&self) -> UBig {
        UBig::product_of(self.moduli.iter().map(|m| m.value()))
    }
}

/// Precomputed tables for one RNS basis at one polynomial degree: per-channel
/// NTT tables plus base-conversion scratch constants.
#[derive(Debug, Clone)]
pub struct RnsContext {
    n: usize,
    basis: RnsBasis,
    tables: Vec<NttTable>,
}

impl RnsContext {
    /// Builds a context for polynomials of degree `n` over `basis`.
    ///
    /// # Errors
    ///
    /// Propagates NTT table construction failures (e.g. a modulus without a
    /// `2n`-th root of unity).
    pub fn new(n: usize, basis: RnsBasis) -> Result<Self, MathError> {
        let tables =
            basis.moduli().iter().map(|&m| NttTable::new(m, n)).collect::<Result<Vec<_>, _>>()?;
        Ok(RnsContext { n, basis, tables })
    }

    /// Polynomial degree.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The underlying basis.
    #[inline]
    pub fn basis(&self) -> &RnsBasis {
        &self.basis
    }

    /// All moduli.
    #[inline]
    pub fn moduli(&self) -> &[Modulus] {
        self.basis.moduli()
    }

    /// NTT table for channel `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn table(&self, i: usize) -> &NttTable {
        &self.tables[i]
    }

    /// All NTT tables, aligned with [`RnsContext::moduli`].
    #[inline]
    pub fn tables(&self) -> &[NttTable] {
        &self.tables
    }

    /// Builds a fast base-conversion plan from the channels `src` to the
    /// channels `dst` (both index into this context's basis).
    ///
    /// # Errors
    ///
    /// Returns [`MathError::InvalidParameter`] if `src` is empty or any
    /// index is out of range or `src` and `dst` overlap.
    pub fn bconv(&self, src: &[usize], dst: &[usize]) -> Result<BconvPlan, MathError> {
        BconvPlan::new(self, src, dst)
    }

    /// Modup (paper Eq. 2): given residues on `src` channels, produce
    /// residues on `dst` channels via fast base conversion. `poly` must be in
    /// coefficient domain.
    ///
    /// This is a convenience wrapper over [`BconvPlan::apply`]; hot paths
    /// should build the plan once.
    ///
    /// # Errors
    ///
    /// Same conditions as [`RnsContext::bconv`] plus domain mismatch.
    pub fn modup(
        &self,
        poly_channels: &[&[u64]],
        src: &[usize],
        dst: &[usize],
    ) -> Result<Vec<Vec<u64>>, MathError> {
        Ok(self.bconv(src, dst)?.apply(poly_channels))
    }

    /// Allocation-free [`RnsContext::modup`]: writes the converted channels
    /// into `out` (one buffer per destination channel, resized in place so
    /// steady-state reuse allocates nothing).
    ///
    /// # Errors
    ///
    /// Same conditions as [`RnsContext::bconv`].
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != dst.len()`.
    pub fn modup_into(
        &self,
        poly_channels: &[&[u64]],
        src: &[usize],
        dst: &[usize],
        out: &mut [Vec<u64>],
    ) -> Result<(), MathError> {
        let _t = telemetry::Timer::enter("math.modup");
        self.bconv(src, dst)?.convert_into(poly_channels, out);
        Ok(())
    }

    /// Moddown (paper Eq. 3): given residues of `x` on `Q ∪ P` (indices
    /// `q_idx` then `p_idx`), return `⌊x/P⌉`-style scaled residues on `Q`:
    /// `[x]_{q_i} ← ([x]_{q_i} − Bconv([x]_P, q_i)) · P^{-1} mod q_i`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`RnsContext::bconv`].
    pub fn moddown(
        &self,
        q_channels: &[&[u64]],
        p_channels: &[&[u64]],
        q_idx: &[usize],
        p_idx: &[usize],
    ) -> Result<Vec<Vec<u64>>, MathError> {
        let mut out = vec![Vec::new(); q_idx.len()];
        self.moddown_into(q_channels, p_channels, q_idx, p_idx, &mut out)?;
        Ok(out)
    }

    /// Allocation-free [`RnsContext::moddown`]: writes the scaled residues
    /// into `out` (one buffer per `q_idx` channel). A convenience wrapper
    /// over [`ModdownPlan::apply_into`]; hot paths should build the plan
    /// once.
    ///
    /// # Errors
    ///
    /// Same conditions as [`RnsContext::bconv`].
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != q_idx.len()`.
    pub fn moddown_into(
        &self,
        q_channels: &[&[u64]],
        p_channels: &[&[u64]],
        q_idx: &[usize],
        p_idx: &[usize],
        out: &mut [Vec<u64>],
    ) -> Result<(), MathError> {
        self.moddown_plan(q_idx, p_idx)?.apply_into(q_channels, p_channels, out)
    }

    /// Builds a Moddown plan from `Q ∪ P` (indices `q_idx`, `p_idx`) onto
    /// `Q`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`RnsContext::bconv`].
    pub fn moddown_plan(&self, q_idx: &[usize], p_idx: &[usize]) -> Result<ModdownPlan, MathError> {
        let bconv = self.bconv(p_idx, q_idx)?;
        let mut p_inv = Vec::with_capacity(q_idx.len());
        for &qi in q_idx {
            let m = self.moduli()[qi];
            let mut p_mod = 1u64;
            for &pj in p_idx {
                p_mod = m.mul(p_mod, self.moduli()[pj].value() % m.value());
            }
            p_inv.push(m.shoup(m.inv(p_mod)?));
        }
        Ok(ModdownPlan { bconv, p_inv })
    }
}

/// A precomputed Moddown (paper Eq. 3): the `P → Q` base conversion plus
/// `P^{-1} mod q_i` per destination channel.
#[derive(Debug, Clone)]
pub struct ModdownPlan {
    bconv: BconvPlan,
    p_inv: Vec<crate::modulus::ShoupScalar>,
}

impl ModdownPlan {
    /// `out[k] = (q_channels[k] − Bconv(p_channels)[k]) · P^{-1} mod q_k`,
    /// one buffer per `Q` channel, resized in place.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::InvalidParameter`] if the channel counts
    /// disagree with the plan.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the plan's `Q` channel count.
    pub fn apply_into(
        &self,
        q_channels: &[&[u64]],
        p_channels: &[&[u64]],
        out: &mut [Vec<u64>],
    ) -> Result<(), MathError> {
        let _t = telemetry::Timer::enter("math.moddown");
        let (q_moduli, p_len) = (self.bconv.dst_moduli(), self.bconv.src_moduli().len());
        if q_channels.len() != q_moduli.len() || p_channels.len() != p_len {
            return Err(MathError::InvalidParameter {
                detail: "moddown channel/index count mismatch".into(),
            });
        }
        assert_eq!(out.len(), q_moduli.len(), "moddown output channel count mismatch");
        let n = p_channels.first().map_or(0, |c| c.len());
        Scratch::with_thread_local(|scratch| {
            let mut converted: Vec<Vec<u64>> =
                (0..q_moduli.len()).map(|_| scratch.take(n)).collect();
            self.bconv.convert_into(p_channels, &mut converted);
            for (k, channel) in out.iter_mut().enumerate() {
                channel.clear();
                channel.resize(n, 0);
                simd::sub_mul_shoup_slice(
                    channel,
                    q_channels[k],
                    &converted[k],
                    self.p_inv[k],
                    q_moduli[k].value(),
                );
            }
            for buf in converted {
                scratch.put(buf);
            }
        });
        Ok(())
    }

    /// [`ModdownPlan::apply_into`] for **NTT-domain** data, in place:
    /// `q_channels[k] ← NTT_k(apply_into(INTT q, INTT p)[k])`, bit for bit,
    /// with `2K + c` transforms instead of `2(c + K)`.
    ///
    /// The transform is linear over `Z_{q_k}` and every value is canonical,
    /// so `NTT((x − y)·P⁻¹) = (NTT x − NTT y)·P⁻¹`: only the `K` special
    /// channels leave the NTT domain (they are consumed — `p_channels`
    /// holds scratch on return), the `P → Q` conversion runs on their
    /// coefficients, and each converted channel is transformed forward and
    /// folded into its `Q` channel. `q_tables` / `p_tables` are the NTT
    /// tables of the plan's `Q` / `P` channels, in order; the `P` side may
    /// be borrowed one by one (`&[&NttTable]`), for a plan whose `P` is not
    /// a contiguous run of its context's channels — such as the fused
    /// ModDown·Rescale of `Q_l ∪ P` onto `Q_{l−1}`, whose `P` is
    /// `{q_l} ∪ P`. A warmed-up caller thread allocates nothing.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::InvalidParameter`] if the channel or table
    /// counts disagree with the plan.
    ///
    /// # Panics
    ///
    /// Panics if a table's modulus or a channel's length disagrees with
    /// the plan.
    pub fn apply_ntt_into<T: Borrow<NttTable> + Sync>(
        &self,
        q_tables: &[NttTable],
        p_tables: &[T],
        q_channels: &mut [Vec<u64>],
        p_channels: &mut [Vec<u64>],
    ) -> Result<(), MathError> {
        let _t = telemetry::Timer::enter("math.moddown");
        let (q_moduli, p_moduli) = (self.bconv.dst_moduli(), self.bconv.src_moduli());
        if q_channels.len() != q_moduli.len()
            || p_channels.len() != p_moduli.len()
            || q_tables.len() != q_moduli.len()
            || p_tables.len() != p_moduli.len()
        {
            return Err(MathError::InvalidParameter {
                detail: "moddown channel/table count mismatch".into(),
            });
        }
        let q_pairs = q_tables.iter().zip(q_moduli);
        for (t, m) in q_pairs.chain(p_tables.iter().map(Borrow::borrow).zip(p_moduli)) {
            assert_eq!(t.modulus(), *m, "misaligned NTT tables");
        }
        let n = p_tables[0].borrow().n();
        // Bconv step 1 rides on the INTT pass: y_j = INTT(p_j)·q̂_j⁻¹.
        for (j, ch) in p_channels.iter_mut().enumerate() {
            p_tables[j].borrow().inverse(ch);
            simd::mul_shoup_slice(ch, self.bconv.qhat_inv[j], p_moduli[j].value());
        }
        let scaled = &*p_channels;
        for (k, ch) in q_channels.iter_mut().enumerate() {
            Scratch::with_thread_local(|scratch| {
                let mut converted = scratch.take(n);
                self.bconv.dot_into(k, scaled, &mut converted);
                q_tables[k].forward(&mut converted);
                let q = q_moduli[k].value();
                simd::sub_mod_slice(ch, &converted, q);
                simd::mul_shoup_slice(ch, self.p_inv[k], q);
                scratch.put(converted);
            });
        }
        Ok(())
    }
}

/// A precomputed fast base-conversion (Bconv, paper Eq. 1) between two
/// disjoint channel subsets of an [`RnsContext`].
#[derive(Debug, Clone)]
pub struct BconvPlan {
    src_moduli: Vec<Modulus>,
    dst_moduli: Vec<Modulus>,
    /// `(Q/q_i)^{-1} mod q_i` in Shoup form for the per-channel pre-scale.
    qhat_inv: Vec<crate::modulus::ShoupScalar>,
    /// `qhat_dst[j][i] = (Q/q_i) mod p_j`.
    qhat_dst: Vec<Vec<u64>>,
}

impl BconvPlan {
    fn new(ctx: &RnsContext, src: &[usize], dst: &[usize]) -> Result<Self, MathError> {
        if src.is_empty() {
            return Err(MathError::InvalidParameter { detail: "empty Bconv source".into() });
        }
        let nmod = ctx.moduli().len();
        if src.iter().chain(dst).any(|&i| i >= nmod) {
            return Err(MathError::InvalidParameter {
                detail: "Bconv channel index out of range".into(),
            });
        }
        if src.iter().any(|i| dst.contains(i)) {
            return Err(MathError::InvalidParameter {
                detail: "Bconv source and destination overlap".into(),
            });
        }
        let src_moduli: Vec<Modulus> = src.iter().map(|&i| ctx.moduli()[i]).collect();
        let dst_moduli: Vec<Modulus> = dst.iter().map(|&i| ctx.moduli()[i]).collect();

        let mut qhat_inv = Vec::with_capacity(src_moduli.len());
        for (i, &qi) in src_moduli.iter().enumerate() {
            let mut prod = 1u64;
            for (k, &qk) in src_moduli.iter().enumerate() {
                if k != i {
                    prod = qi.mul(prod, qk.value() % qi.value());
                }
            }
            qhat_inv.push(qi.shoup(qi.inv(prod)?));
        }
        let mut qhat_dst = Vec::with_capacity(dst_moduli.len());
        for &pj in &dst_moduli {
            let mut row = Vec::with_capacity(src_moduli.len());
            for (i, _) in src_moduli.iter().enumerate() {
                let mut prod = 1u64;
                for (k, &qk) in src_moduli.iter().enumerate() {
                    if k != i {
                        prod = pj.mul(prod, qk.value() % pj.value());
                    }
                }
                row.push(prod);
            }
            qhat_dst.push(row);
        }
        Ok(BconvPlan { src_moduli, dst_moduli, qhat_inv, qhat_dst })
    }

    /// Source moduli of the plan.
    #[inline]
    pub fn src_moduli(&self) -> &[Modulus] {
        &self.src_moduli
    }

    /// Destination moduli of the plan.
    #[inline]
    pub fn dst_moduli(&self) -> &[Modulus] {
        &self.dst_moduli
    }

    /// `(Q/q_i)^{-1} mod q_i` per source channel (Shoup form) — exposed so
    /// the Meta-OP layer can lower the conversion without re-deriving
    /// constants.
    #[inline]
    pub fn qhat_inv(&self) -> &[crate::modulus::ShoupScalar] {
        &self.qhat_inv
    }

    /// `(Q/q_i) mod p_j` indexed `[dst][src]`.
    #[inline]
    pub fn qhat_dst(&self) -> &[Vec<u64>] {
        &self.qhat_dst
    }

    /// Applies the conversion to coefficient-domain channel data.
    ///
    /// The inner loop is exactly the Meta-OP pattern `(M_j A_j)_L R_j`:
    /// `L` products accumulated lazily in a 128-bit register, then a single
    /// Barrett reduction per destination coefficient (paper Table 3).
    ///
    /// # Panics
    ///
    /// Panics if `channels.len()` differs from the plan's source count or
    /// the channels have unequal lengths.
    pub fn apply(&self, channels: &[&[u64]]) -> Vec<Vec<u64>> {
        let mut out = vec![Vec::new(); self.dst_moduli.len()];
        self.convert_into(channels, &mut out);
        out
    }

    /// Allocation-free [`BconvPlan::apply`]: writes one converted channel
    /// per destination modulus into `out`, resizing each buffer in place.
    /// Intermediate buffers come from the thread-local [`Scratch`] pool, so
    /// a warmed-up caller thread allocates nothing.
    ///
    /// # Errors
    ///
    /// None: the `Result` is kept only because the frozen benchmark
    /// `.expect`s it.
    ///
    /// # Panics
    ///
    /// Panics if `channels.len()` differs from the plan's source count, the
    /// channels have unequal lengths, or `out.len()` differs from the
    /// plan's destination count.
    pub fn apply_into(&self, channels: &[&[u64]], out: &mut [Vec<u64>]) -> Result<(), MathError> {
        self.convert_into(channels, out);
        Ok(())
    }

    /// The body of [`BconvPlan::apply_into`].
    fn convert_into(&self, channels: &[&[u64]], out: &mut [Vec<u64>]) {
        // Histogram-only latency probe: one atomic load when telemetry is
        // not installed, per-call p50/p99 when it is (no span events — this
        // runs thousands of times per workload).
        let _t = telemetry::Timer::enter("math.bconv.apply");
        assert_eq!(channels.len(), self.src_moduli.len(), "source channel count mismatch");
        assert_eq!(out.len(), self.dst_moduli.len(), "destination channel count mismatch");
        let n = channels.first().map_or(0, |c| c.len());
        assert!(channels.iter().all(|c| c.len() == n), "ragged source channels");
        Scratch::with_thread_local(|scratch| {
            // Step 1 (per source channel): y_i = x_i * qhat_inv_i mod q_i.
            let mut scaled: Vec<Vec<u64>> = (0..channels.len()).map(|_| scratch.take(n)).collect();
            for (i, buf) in scaled.iter_mut().enumerate() {
                let m = self.src_moduli[i];
                let s = self.qhat_inv[i];
                buf.copy_from_slice(channels[i]);
                simd::mul_shoup_slice(buf, s, m.value());
            }
            // Step 2 (per destination channel): lazy-accumulated dot
            // product — the Meta-OP pattern `(M_j A_j)_L R_j`, one
            // reduction per destination coefficient (paper Table 3; per
            // eight sources past eight).
            for (j, channel) in out.iter_mut().enumerate() {
                channel.clear();
                channel.resize(n, 0);
                self.dot_into(j, &scaled, channel);
            }
            for buf in scaled {
                scratch.put(buf);
            }
        });
    }

    /// Step 2 of the conversion for destination channel `j`, added into a
    /// zeroed `out`: the lazy dot product of the pre-scaled source channels
    /// with `qhat_dst[j]`, each weight broadcast over the slots.
    fn dot_into(&self, j: usize, scaled: &[Vec<u64>], out: &mut [u64]) {
        let weights = &self.qhat_dst[j];
        let row = |i: usize| (scaled[i].as_slice(), std::slice::from_ref(&weights[i]));
        lazy_mac(&self.dst_moduli[j], scaled.len(), row, MacSlots, MacBroadcast, out);
    }
}

/// Products [`lazy_mac`] sums per slot before it reduces: each is below
/// `2q·q < 2^123` (one lazy `[0, 2q)` factor, `q < 2^61`), so eight of them
/// and the carried-in residue fit a `u128`.
const MAC_TERMS: usize = 8;

/// Slots one [`lazy_mac`] block carries side by side. Four sums are eight
/// registers; eight (sixteen registers, all there are) measured 7–13 %
/// slower on the straight, gather and reversed reads at `n = 4096` and
/// level on the broadcast (EXPERIMENTS.md 2026-10-15).
pub const MAC_SLOTS: usize = 4;

/// How [`lazy_mac`] reads one operand of a row at slot `s`: a block of
/// [`MAC_SLOTS`] slots at once, or one slot (the tail).
pub trait MacRead: Copy {
    /// The values for slots `s..s + MAC_SLOTS`.
    fn block(self, x: &[u64], s: usize) -> [u64; MAC_SLOTS];
    /// The value for slot `s`.
    fn at(self, x: &[u64], s: usize) -> u64;
}

/// Slot `s` reads `x[s]`.
#[derive(Debug, Clone, Copy)]
pub struct MacSlots;

/// Slot `s` reads `x[perm[s]]`: an automorphism of an NTT image as a gather.
#[derive(Debug, Clone, Copy)]
pub struct MacGather<'p>(pub &'p [u32]);

/// Slot `s` reads `x[end − 1 − s]`: the operand backwards from `end`.
#[derive(Debug, Clone, Copy)]
pub struct MacReversed(pub usize);

/// Every slot reads `x[0]`: one constant per row.
#[derive(Debug, Clone, Copy)]
pub struct MacBroadcast;

impl MacRead for MacSlots {
    #[inline(always)]
    fn block(self, x: &[u64], s: usize) -> [u64; MAC_SLOTS] {
        x[s..s + MAC_SLOTS].try_into().expect("a block is MAC_SLOTS long")
    }
    #[inline(always)]
    fn at(self, x: &[u64], s: usize) -> u64 {
        x[s]
    }
}

impl MacRead for MacGather<'_> {
    #[inline(always)]
    fn block(self, x: &[u64], s: usize) -> [u64; MAC_SLOTS] {
        let p = &self.0[s..s + MAC_SLOTS];
        std::array::from_fn(|k| x[p[k] as usize])
    }
    #[inline(always)]
    fn at(self, x: &[u64], s: usize) -> u64 {
        x[self.0[s] as usize]
    }
}

impl MacRead for MacReversed {
    #[inline(always)]
    fn block(self, x: &[u64], s: usize) -> [u64; MAC_SLOTS] {
        let c = &x[self.0 - s - MAC_SLOTS..self.0 - s];
        std::array::from_fn(|k| c[MAC_SLOTS - 1 - k])
    }
    #[inline(always)]
    fn at(self, x: &[u64], s: usize) -> u64 {
        x[self.0 - 1 - s]
    }
}

impl MacRead for MacBroadcast {
    #[inline(always)]
    fn block(self, x: &[u64], _: usize) -> [u64; MAC_SLOTS] {
        [x[0]; MAC_SLOTS]
    }
    #[inline(always)]
    fn at(self, x: &[u64], _: usize) -> u64 {
        x[0]
    }
}

/// `out[s] ← (out[s] + Σ_r a_r[·]·b_r[·]) mod q` over the `terms` pairs
/// `row(r) = (a_r, b_r)`, each operand read as `a` / `b` say — the Meta-OP
/// `(M_j A_j)_n R_j`, shared by the Bconv dot products and the CKKS key and
/// plaintext MACs.
///
/// One pass per eight rows (a product is below `2q·q < 2^123`, so eight and
/// the carried-in residue fit a `u128`); a pass walks the slots
/// [`MAC_SLOTS`] at a time with the rows in the outer loop, sums each slot
/// in a `u128` and reduces it once ([`Modulus::reduce_u128`]). `a_r` may be
/// lazy in `[0, 2q)`, `b_r` and `out` are canonical, and `out` stays so.
/// Exact: the result is the canonical residue of the whole sum, however
/// the rows are grouped.
#[inline]
pub fn lazy_mac<'r>(
    m: &Modulus,
    terms: usize,
    row: impl Fn(usize) -> (&'r [u64], &'r [u64]),
    a: impl MacRead,
    b: impl MacRead,
    out: &mut [u64],
) {
    let mut rows: [(&[u64], &[u64]); MAC_TERMS] = [(&[], &[]); MAC_TERMS];
    for first in (0..terms).step_by(MAC_TERMS) {
        let rows = &mut rows[..(terms - first).min(MAC_TERMS)];
        for (k, r) in rows.iter_mut().enumerate() {
            *r = row(first + k);
        }
        let (blocks, tail) = out.split_at_mut(out.len() - out.len() % MAC_SLOTS);
        for (i, block) in blocks.chunks_exact_mut(MAC_SLOTS).enumerate() {
            let s = i * MAC_SLOTS;
            let mut sums: [u128; MAC_SLOTS] = std::array::from_fn(|k| u128::from(block[k]));
            for &(x, y) in rows.iter() {
                let (x, y) = (a.block(x, s), b.block(y, s));
                for (k, sum) in sums.iter_mut().enumerate() {
                    *sum += u128::from(x[k]) * u128::from(y[k]);
                }
            }
            for (o, &sum) in block.iter_mut().zip(&sums) {
                *o = m.reduce_u128(sum);
            }
        }
        let s0 = blocks.len();
        for (k, o) in tail.iter_mut().enumerate() {
            let s = s0 + k;
            let sum = rows.iter().map(|&(x, y)| u128::from(a.at(x, s)) * u128::from(b.at(y, s)));
            *o = m.reduce_u128(sum.fold(u128::from(*o), |acc, p| acc + p));
        }
    }
}

/// A polynomial represented in RNS form: one [`Poly`] per channel, all of
/// the same degree and domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RnsPoly {
    channels: Vec<Poly>,
}

impl RnsPoly {
    /// The zero polynomial over the given moduli.
    pub fn zero(n: usize, moduli: &[Modulus]) -> Self {
        RnsPoly { channels: moduli.iter().map(|&m| Poly::zero(n, m)).collect() }
    }

    /// Wraps per-channel polynomials.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::BasisMismatch`] if channels disagree on degree
    /// or domain, or the list is empty.
    pub fn from_channels(channels: Vec<Poly>) -> Result<Self, MathError> {
        let first = channels
            .first()
            .ok_or(MathError::BasisMismatch { detail: "RnsPoly requires at least one channel" })?;
        let (n, domain) = (first.n(), first.domain());
        if channels.iter().any(|c| c.n() != n || c.domain() != domain) {
            return Err(MathError::BasisMismatch {
                detail: "RnsPoly channels disagree on degree or domain",
            });
        }
        Ok(RnsPoly { channels })
    }

    /// Lifts a signed integer polynomial into every channel.
    pub fn from_signed(coeffs: &[i64], n: usize, moduli: &[Modulus]) -> Self {
        let channels = moduli
            .iter()
            .map(|&m| {
                let mut v = vec![0u64; n];
                for (i, &c) in coeffs.iter().enumerate() {
                    v[i] = m.from_i64(c);
                }
                Poly::from_coeffs(v, m).expect("from_i64 yields canonical residues")
            })
            .collect();
        RnsPoly { channels }
    }

    /// Polynomial degree.
    #[inline]
    pub fn n(&self) -> usize {
        self.channels[0].n()
    }

    /// Number of RNS channels.
    #[inline]
    pub fn num_channels(&self) -> usize {
        self.channels.len()
    }

    /// Current domain (shared by all channels).
    #[inline]
    pub fn domain(&self) -> Domain {
        self.channels[0].domain()
    }

    /// The moduli of each channel, in order.
    pub fn moduli(&self) -> Vec<Modulus> {
        self.channels.iter().map(|c| c.modulus()).collect()
    }

    /// Channel accessor.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn channel(&self, i: usize) -> &Poly {
        &self.channels[i]
    }

    /// All channels.
    #[inline]
    pub fn channels(&self) -> &[Poly] {
        &self.channels
    }

    /// Mutable channels (expert use: invariants are the caller's problem).
    #[inline]
    pub fn channels_mut(&mut self) -> &mut [Poly] {
        &mut self.channels
    }

    /// Converts all channels to NTT domain using the aligned tables.
    ///
    /// # Errors
    ///
    /// None: the `Result` is kept only because the frozen benchmark
    /// `.expect`s it.
    ///
    /// # Panics
    ///
    /// Panics if `tables` is shorter than the channel list or misaligned
    /// (wrong modulus).
    pub fn to_ntt(&mut self, tables: &[NttTable]) -> Result<(), MathError> {
        let _t = telemetry::Timer::enter("math.rns.ntt_fwd");
        assert!(tables.len() >= self.channels.len(), "missing NTT tables");
        for (c, t) in self.channels.iter().zip(tables) {
            assert_eq!(c.modulus(), t.modulus(), "misaligned NTT tables");
        }
        for (c, t) in self.channels.iter_mut().zip(tables) {
            c.to_ntt(t);
        }
        Ok(())
    }

    /// Converts all channels to coefficient domain.
    ///
    /// # Panics
    ///
    /// Panics if `tables` is shorter than the channel list or misaligned.
    pub fn to_coeff(&mut self, tables: &[NttTable]) {
        let _t = telemetry::Timer::enter("math.rns.ntt_inv");
        assert!(tables.len() >= self.channels.len(), "missing NTT tables");
        for (c, t) in self.channels.iter().zip(tables) {
            assert_eq!(c.modulus(), t.modulus(), "misaligned NTT tables");
        }
        for (c, t) in self.channels.iter_mut().zip(tables) {
            c.to_coeff(t);
        }
    }

    /// Channel-wise sum.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::BasisMismatch`] on structural disagreement.
    pub fn add(&self, other: &RnsPoly) -> Result<RnsPoly, MathError> {
        let mut out = self.clone();
        out.add_assign(other)?;
        Ok(out)
    }

    /// In-place channel-wise sum (`self += other`). The allocation-free form
    /// of [`RnsPoly::add`].
    ///
    /// # Errors
    ///
    /// Returns [`MathError::BasisMismatch`] on structural disagreement
    /// (`self` is unchanged on error).
    pub fn add_assign(&mut self, other: &RnsPoly) -> Result<(), MathError> {
        self.check_zip(other)?;
        let others = &other.channels;
        for (c, o) in self.channels.iter_mut().zip(others) {
            let q = c.modulus().value();
            simd::add_mod_slice(c.coeffs_mut(), o.coeffs(), q);
        }
        Ok(())
    }

    /// Channel-wise difference.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::BasisMismatch`] on structural disagreement.
    pub fn sub(&self, other: &RnsPoly) -> Result<RnsPoly, MathError> {
        let mut out = self.clone();
        out.sub_assign(other)?;
        Ok(out)
    }

    /// In-place channel-wise difference (`self -= other`).
    ///
    /// # Errors
    ///
    /// Returns [`MathError::BasisMismatch`] on structural disagreement
    /// (`self` is unchanged on error).
    pub fn sub_assign(&mut self, other: &RnsPoly) -> Result<(), MathError> {
        self.check_zip(other)?;
        let others = &other.channels;
        for (c, o) in self.channels.iter_mut().zip(others) {
            let q = c.modulus().value();
            simd::sub_mod_slice(c.coeffs_mut(), o.coeffs(), q);
        }
        Ok(())
    }

    /// Channel-wise negation.
    pub fn neg(&self) -> RnsPoly {
        let mut out = self.clone();
        out.neg_assign();
        out
    }

    /// In-place channel-wise negation.
    pub fn neg_assign(&mut self) {
        for c in &mut self.channels {
            let q = c.modulus().value();
            simd::neg_mod_slice(c.coeffs_mut(), q);
        }
    }

    /// Point-wise product; both operands must already be in NTT domain.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::BasisMismatch`] if either operand is in
    /// coefficient domain or structures disagree.
    pub fn mul_pointwise(&self, other: &RnsPoly) -> Result<RnsPoly, MathError> {
        let mut out = self.clone();
        out.mul_pointwise_assign(other)?;
        Ok(out)
    }

    /// In-place point-wise product (`self *= other`). Both operands must be
    /// in NTT domain.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::BasisMismatch`] if either operand is in
    /// coefficient domain or structures disagree (`self` is unchanged on
    /// error).
    pub fn mul_pointwise_assign(&mut self, other: &RnsPoly) -> Result<(), MathError> {
        if self.domain() != Domain::Ntt || other.domain() != Domain::Ntt {
            return Err(MathError::BasisMismatch { detail: "mul_pointwise requires NTT domain" });
        }
        self.check_zip(other)?;
        let others = &other.channels;
        for (c, o) in self.channels.iter_mut().zip(others) {
            let m = c.modulus();
            simd::mul_mod_slice(c.coeffs_mut(), o.coeffs(), &m);
        }
        Ok(())
    }

    /// Applies the Galois automorphism `X ↦ X^g` channel-wise (coefficient
    /// domain).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Poly::automorphism`].
    pub fn automorphism(&self, g: usize) -> Result<RnsPoly, MathError> {
        if self.domain() != Domain::Coefficient {
            return Err(MathError::BasisMismatch {
                detail: "automorphism requires coefficient domain",
            });
        }
        if g.is_multiple_of(2) {
            return Err(MathError::InvalidParameter {
                detail: format!("automorphism exponent {g} must be odd"),
            });
        }
        if !self.n().is_power_of_two() {
            return Err(MathError::InvalidDegree { degree: self.n() });
        }
        let channels = self
            .channels
            .iter()
            .map(|c| {
                c.automorphism(g).expect("validated: odd exponent, coefficient domain, 2^k length")
            })
            .collect();
        Ok(RnsPoly { channels })
    }

    /// Gathers the residues of the coefficient at `idx`, one per channel,
    /// into `out` — the input layout of [`crate::MixedRadix`].
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the channel count or `idx` is out
    /// of range.
    #[inline]
    pub fn coefficient_into(&self, idx: usize, out: &mut [u64]) {
        assert_eq!(out.len(), self.channels.len(), "one residue per channel");
        for (slot, ch) in out.iter_mut().zip(&self.channels) {
            *slot = ch.coeffs()[idx];
        }
    }

    /// Exact CRT reconstruction of the coefficient at `idx` as a big
    /// integer in `[0, Q)`. Coefficient domain only; verification paths.
    ///
    /// # Panics
    ///
    /// Panics if called in NTT domain or `idx` is out of range.
    pub fn crt_coefficient(&self, idx: usize) -> UBig {
        assert_eq!(self.domain(), Domain::Coefficient, "CRT needs coefficient domain");
        let moduli = self.moduli();
        let q = UBig::product_of(moduli.iter().map(|m| m.value()));
        let mut acc = UBig::zero();
        for (i, ch) in self.channels.iter().enumerate() {
            let mi = moduli[i];
            // Qhat_i = Q / q_i (exact), y_i = x_i * Qhat_i^{-1} mod q_i.
            let (qhat, rem) = q.divrem_u64(mi.value());
            assert_eq!(
                rem,
                0,
                "CRT basis corrupt: Q not divisible by channel modulus {}",
                mi.value()
            );
            let qhat_mod = qhat.rem_u64(mi.value());
            let inv = mi.inv(qhat_mod).expect("prime moduli");
            let y = mi.mul(ch.coeffs()[idx], inv);
            acc = acc.add(&qhat.mul_u64(y));
        }
        acc.rem_big(&q)
    }

    /// Validates that `other` has the same channel structure (count, per-
    /// channel modulus, degree, and domain) so zip kernels are infallible.
    fn check_zip(&self, other: &RnsPoly) -> Result<(), MathError> {
        if self.channels.len() != other.channels.len() {
            return Err(MathError::BasisMismatch { detail: "channel counts differ" });
        }
        for (a, b) in self.channels.iter().zip(&other.channels) {
            if a.modulus() != b.modulus() {
                return Err(MathError::BasisMismatch { detail: "moduli differ" });
            }
            if a.n() != b.n() {
                return Err(MathError::BasisMismatch { detail: "lengths differ" });
            }
            if a.domain() != b.domain() {
                return Err(MathError::BasisMismatch { detail: "domains differ" });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate_ntt_primes;

    fn context(n: usize, channels: usize) -> RnsContext {
        let primes = generate_ntt_primes(30, n, channels).unwrap();
        let moduli = primes.into_iter().map(|q| Modulus::new(q).unwrap()).collect();
        RnsContext::new(n, RnsBasis::new(moduli).unwrap()).unwrap()
    }

    #[test]
    fn basis_rejects_duplicates_and_empty() {
        let m = Modulus::new(65537).unwrap();
        assert!(RnsBasis::new(vec![]).is_err());
        assert!(RnsBasis::new(vec![m, m]).is_err());
    }

    #[test]
    fn crt_reconstruction_round_trip() {
        let ctx = context(16, 3);
        let value: i64 = 123_456_789;
        let poly = RnsPoly::from_signed(&[value], 16, ctx.moduli());
        assert_eq!(poly.crt_coefficient(0), UBig::from_u64(value as u64));
        // Negative values map to Q - |v|.
        let neg = RnsPoly::from_signed(&[-5], 16, ctx.moduli());
        let q = ctx.basis().product();
        assert_eq!(neg.crt_coefficient(0), q.sub(&UBig::from_u64(5)));
    }

    #[test]
    fn bconv_is_exact_up_to_multiples_of_q() {
        let ctx = context(16, 5);
        let src = [0usize, 1, 2];
        let dst = [3usize, 4];
        let plan = ctx.bconv(&src, &dst).unwrap();

        // Build x on the source basis with known exact value.
        let x_exact: u64 = 987_654_321_123;
        let src_moduli: Vec<Modulus> = src.iter().map(|&i| ctx.moduli()[i]).collect();
        let chans: Vec<Vec<u64>> =
            src_moduli.iter().map(|m| vec![x_exact % m.value(); 16]).collect();
        let refs: Vec<&[u64]> = chans.iter().map(|c| c.as_slice()).collect();
        let out = plan.apply(&refs);

        let q_prod = UBig::product_of(src_moduli.iter().map(|m| m.value()));
        for (j, &dj) in dst.iter().enumerate() {
            let pj = ctx.moduli()[dj];
            let got = out[j][0];
            // got must equal (x + u*Q) mod p_j for some u in [0, L).
            let mut matched = false;
            for u in 0..src.len() as u64 {
                let shifted = UBig::from_u64(x_exact).add(&q_prod.mul_u64(u));
                if shifted.rem_u64(pj.value()) == got {
                    matched = true;
                    break;
                }
            }
            assert!(matched, "Bconv result off by more than (L-1)·Q");
        }
    }

    #[test]
    fn bconv_single_channel_is_exact() {
        // With a single source channel Q/q_0 = 1, so the fast conversion has
        // no u·Q slack: the result is exactly x mod p_j for x < q_0.
        let ctx = context(8, 4);
        let plan = ctx.bconv(&[0], &[2, 3]).unwrap();
        let x = 42_424_242u64 % ctx.moduli()[0].value();
        let chan = vec![x; 8];
        let out = plan.apply(&[chan.as_slice()]);
        for (j, &dj) in [2usize, 3].iter().enumerate() {
            assert_eq!(out[j][0], x % ctx.moduli()[dj].value());
        }
    }

    #[test]
    fn bconv_of_zero_is_zero() {
        let ctx = context(8, 4);
        let plan = ctx.bconv(&[0, 1, 2], &[3]).unwrap();
        let z = vec![0u64; 8];
        let out = plan.apply(&[z.as_slice(), z.as_slice(), z.as_slice()]);
        assert!(out[0].iter().all(|&v| v == 0));
    }

    #[test]
    fn moddown_divides_by_p() {
        // moddown(P * y) == y exactly (no rounding error when P | x).
        let ctx = context(8, 4);
        let q_idx = [0usize, 1];
        let p_idx = [2usize, 3];
        let p_prod = UBig::product_of(p_idx.iter().map(|&i| ctx.moduli()[i].value()));
        let y: u64 = 777;
        let x = p_prod.mul_u64(y); // exact multiple of P
        let q_chans: Vec<Vec<u64>> =
            q_idx.iter().map(|&i| vec![x.rem_u64(ctx.moduli()[i].value()); 8]).collect();
        let p_chans: Vec<Vec<u64>> =
            p_idx.iter().map(|&i| vec![x.rem_u64(ctx.moduli()[i].value()); 8]).collect();
        let qr: Vec<&[u64]> = q_chans.iter().map(|c| c.as_slice()).collect();
        let pr: Vec<&[u64]> = p_chans.iter().map(|c| c.as_slice()).collect();
        let out = ctx.moddown(&qr, &pr, &q_idx, &p_idx).unwrap();
        for (k, &qi) in q_idx.iter().enumerate() {
            assert_eq!(out[k][0], y % ctx.moduli()[qi].value());
        }
    }

    #[test]
    fn ntt_domain_moddown_equals_the_coefficient_domain_one() {
        for (n, q_cnt, p_cnt) in [(64usize, 1usize, 1usize), (256, 4, 2), (4096, 7, 3)] {
            let ctx = context(n, q_cnt + p_cnt);
            let q_idx: Vec<usize> = (0..q_cnt).collect();
            let p_idx: Vec<usize> = (q_cnt..q_cnt + p_cnt).collect();
            let plan = ctx.moddown_plan(&q_idx, &p_idx).unwrap();
            let mut ntt: Vec<Vec<u64>> = (0..q_cnt + p_cnt)
                .map(|c| {
                    let q = ctx.moduli()[c].value();
                    (0..n as u64)
                        .map(|i| (i + 1).wrapping_mul(0x9e37_79b9 + c as u64) % q)
                        .collect()
                })
                .collect();
            // Reference: INTT everything, coefficient-domain Moddown, NTT.
            let mut coeff = ntt.clone();
            for (c, ch) in coeff.iter_mut().enumerate() {
                ctx.table(c).inverse(ch);
            }
            let (qc, pc) = coeff.split_at(q_cnt);
            let q_refs: Vec<&[u64]> = qc.iter().map(|c| c.as_slice()).collect();
            let p_refs: Vec<&[u64]> = pc.iter().map(|c| c.as_slice()).collect();
            let mut want = vec![Vec::new(); q_cnt];
            plan.apply_into(&q_refs, &p_refs, &mut want).unwrap();
            for (c, ch) in want.iter_mut().enumerate() {
                ctx.table(c).forward(ch);
            }
            let (q_ntt, p_ntt) = ntt.split_at_mut(q_cnt);
            plan.apply_ntt_into(&ctx.tables()[..q_cnt], &ctx.tables()[q_cnt..], q_ntt, p_ntt)
                .unwrap();
            assert_eq!(q_ntt, &want[..], "n={n} q={q_cnt} p={p_cnt}");
            // Mismatched counts are an error, not a panic.
            assert!(plan
                .apply_ntt_into(&ctx.tables()[..q_cnt], &ctx.tables()[q_cnt..], q_ntt, &mut [])
                .is_err());
        }
    }

    #[test]
    fn bconv_rejects_overlap_and_bad_indices() {
        let ctx = context(8, 3);
        assert!(ctx.bconv(&[0, 1], &[1]).is_err());
        assert!(ctx.bconv(&[], &[1]).is_err());
        assert!(ctx.bconv(&[0], &[7]).is_err());
    }

    #[test]
    fn rns_poly_arithmetic() {
        let ctx = context(16, 2);
        let a = RnsPoly::from_signed(&[1, 2, 3], 16, ctx.moduli());
        let b = RnsPoly::from_signed(&[10, 20, 30], 16, ctx.moduli());
        let s = a.add(&b).unwrap();
        assert_eq!(s.crt_coefficient(1), UBig::from_u64(22));
        assert_eq!(s.sub(&b).unwrap(), a);
        let z = a.add(&a.neg()).unwrap();
        assert!(z.channels().iter().all(|c| c.coeffs().iter().all(|&v| v == 0)));
    }

    #[test]
    fn rns_poly_ntt_multiplication() {
        let ctx = context(16, 2);
        let mut a = RnsPoly::from_signed(&[0, 1], 16, ctx.moduli()); // X
        let mut b = RnsPoly::from_signed(&[0, 0, 1], 16, ctx.moduli()); // X^2
        a.to_ntt(ctx.tables()).unwrap();
        b.to_ntt(ctx.tables()).unwrap();
        let mut p = a.mul_pointwise(&b).unwrap();
        p.to_coeff(ctx.tables());
        assert_eq!(p.crt_coefficient(3), UBig::from_u64(1)); // X^3
    }

    #[test]
    fn domain_guard_on_mul() {
        let ctx = context(16, 2);
        let a = RnsPoly::from_signed(&[1], 16, ctx.moduli());
        assert!(a.mul_pointwise(&a).is_err());
    }
}
