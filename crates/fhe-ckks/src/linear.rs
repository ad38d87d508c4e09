//! Homomorphic linear transforms: the diagonal method with baby-step /
//! giant-step (BSGS) rotation structure and Modup hoisting.
//!
//! A slot-space matrix multiply `out = M·v` becomes
//! `Σ_d diag_d ⊙ rot(v, d)` over the nonzero diagonals of `M`; BSGS
//! factors the rotations as `d = i·g + j`, so
//!
//! ```text
//! out = Σ_i rot( Σ_j rot(diag_{ig+j}, −i·g) ⊙ rot(v, j),  i·g )
//!              └──────── inner sum of giant group i ────────┘
//! ```
//!
//! needs only the baby rotations `j` that occur and `⌈D/g⌉` giant
//! rotations. [`LinearTransform::apply_bsgs`] and [`LinearTransform::apply`]
//! (giant step = slot count: every diagonal in group 0) run one
//! double-hoisted path; at `c = level + 1` channels, `t = c + K` and `β`
//! digits, with `S = β·t`:
//!
//! * the babies as one hoisted group — `S` transforms for the shared
//!   `decompose → Modup → NTT`, then each baby's key MAC and `P·σ(c0)` kept
//!   in a `Q·P` accumulator, **not** Moddowned: a baby feeds nothing but a
//!   plaintext multiply, which works as well over `Q·P`;
//! * each inner sum as **one** fused lazy MAC over `Q_level ∪ P`
//!   (`(M_j A_j)_n R_j`: one reduction per slot per group, no per-term
//!   ciphertext, seal or clone); group 0's lands in the final accumulator;
//! * per giant rotation, `σ` of the inner sum's `c0` half added as it is
//!   and the key switch of its `c1` half after one Moddown onto `Q_level`
//!   — `K + c + S` transforms;
//! * one ModDown·Rescale for the whole sum (`q_level` joins `P` as one
//!   more source prime of the closing conversion) — `2t`, exactly
//!   `metaop::counts::hoisted_rotation_group`'s closing Moddown, and no
//!   rescale after it;
//!
//! and verifies the input and seals the output once: `4S + 5t` for three
//! giant rotations. Against a Moddown per baby the result is exact up to
//! one rounding per giant `c1` half and the close (DESIGN.md §6.2).
//!
//! **Diagonals are encoded once.** The first call at a given
//! `(giant step, level, scale)` pre-rotates and encodes the `D` diagonals
//! and keeps their NTT-domain images — on `Q_level ∪ P` (`t` channel
//! transforms, counted as `ckks.encode.forward`), except that a diagonal
//! of baby offset 0, which multiplies the input itself, is kept on
//! `Q_level` (`c` transforms) pre-multiplied by `P mod q_c`: that lifts
//! its product into the `Q·P` sum with nothing on `P`, so it needs no `P`
//! images and the input is never lifted. Later calls at that key go
//! straight to the MAC, which is what the paper's "unenc weights" rows and
//! `metaop::counts` charge. One encoding is kept per transform: a call at
//! another key re-encodes and replaces it, so the worst case is the
//! per-call encode this replaces.
//!
//! A real diagonal keeps half of each image. Real slots mean the
//! plaintext is fixed by conjugation `σ₋₁`; on an NTT image `σ₋₁` is the
//! gather `galois_ntt_permutation(n, 2n−1)`, and with slot `i` holding the
//! evaluation at `ψ^(2·brv(i)+1)` that gather is the reversal
//! `i ↦ n−1−i` (`−(2·brv(i)+1) ≡ 2·brv(n−1−i)+1 mod 2n`, complementing
//! every bit). So the image is a palindrome, checked exactly per diagonal
//! when it is encoded; a diagonal that fails the check (any non-real
//! slot, such as the bootstrapping DFT factors) is kept whole; the check
//! holds on a `P` channel as on a `Q` one. Resident: half the images'
//! channels for a real transform, all of them for a complex one —
//! `ckks_mlp`'s two 16-diagonal layers at levels 6 and 4, twelve diagonals
//! each on `t` channels and four on `c`, hold
//! `(12·(10+8) + 4·(7+5))/2 = 132` channels = 4.1 MiB beside the 13.1 MiB
//! of key channels the same layers and the square need (DESIGN.md §6.2).
//!
//! This is the workhorse of CKKS bootstrapping's
//! CoeffToSlot/SlotToCoeff and of the LoLa-MNIST / HELR layers in the
//! paper's Fig. 6.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

use fhe_math::Modulus;

use crate::ciphertext::Ciphertext;
use crate::encoding::{Complex64, Encoder};
use crate::eval::{Group, Source, Term};
use crate::keys::GaloisKeys;
use crate::{CkksContext, CkksError, Evaluator};

/// One encoded diagonal: its baby offset `j` and its channel images (module
/// header), each the first `n/2` entries if every channel is a palindrome
/// and all `n` otherwise.
type Image = (usize, Vec<Vec<u64>>);

/// The NTT-domain images of a transform's pre-rotated diagonals at one
/// `(giant step, level, scale)`.
#[derive(Debug)]
struct Encoded {
    giant_step: usize,
    scale_bits: u64,
    /// The channel moduli `q_0..q_level, p_0..p_{K−1}` the images are
    /// residues of — compared, not just counted, so that a transform taken
    /// to another context never meets another ring's residues.
    moduli: Vec<Modulus>,
    /// The baby offsets `d mod g ≠ 0` that occur, ascending.
    babies: Vec<isize>,
    /// Per occupied giant index `i`, ascending: the images of the
    /// diagonals `d = i·g + j`, each pre-rotated by `−i·g`.
    groups: Vec<(usize, Vec<Image>)>,
}

/// A slot-space linear transform stored as its nonzero generalized
/// diagonals: `out_j = Σ_d diag_d[j] · v_{(j+d) mod slots}`.
///
/// Applying it encodes the diagonals once per `(giant step, level, scale)`
/// (module header). A clone shares the encoding its source holds at that
/// moment — it starts warm — and the two replace theirs independently
/// afterwards.
#[derive(Debug)]
pub struct LinearTransform {
    slots: usize,
    diagonals: BTreeMap<usize, Vec<Complex64>>,
    encoded: Mutex<Option<Arc<Encoded>>>,
}

impl Clone for LinearTransform {
    fn clone(&self) -> Self {
        LinearTransform {
            slots: self.slots,
            diagonals: self.diagonals.clone(),
            encoded: Mutex::new(self.held()),
        }
    }
}

impl LinearTransform {
    fn new(slots: usize, diagonals: BTreeMap<usize, Vec<Complex64>>) -> Self {
        LinearTransform { slots, diagonals, encoded: Mutex::new(None) }
    }

    /// Builds a transform from a dense real `slots × slots` matrix
    /// (`out = M · v`).
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::Mismatch`] if the matrix is not square.
    pub fn from_real_matrix(matrix: &[Vec<f64>]) -> Result<Self, CkksError> {
        let complex: Vec<Vec<Complex64>> = matrix
            .iter()
            .map(|row| row.iter().map(|&x| Complex64::new(x, 0.0)).collect())
            .collect();
        Self::from_complex_matrix(&complex)
    }

    /// Builds a transform from a dense complex matrix.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::Mismatch`] if the matrix is not square.
    pub fn from_complex_matrix(matrix: &[Vec<Complex64>]) -> Result<Self, CkksError> {
        let slots = matrix.len();
        if slots == 0 || matrix.iter().any(|row| row.len() != slots) {
            return Err(CkksError::Mismatch { detail: "matrix must be square".into() });
        }
        let mut diagonals = BTreeMap::new();
        for d in 0..slots {
            let diag: Vec<Complex64> = (0..slots).map(|j| matrix[j][(j + d) % slots]).collect();
            if diag.iter().any(|z| z.abs() > 1e-12) {
                diagonals.insert(d, diag);
            }
        }
        Ok(Self::new(slots, diagonals))
    }

    /// Builds directly from `(diagonal index, diagonal values)` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::Mismatch`] on inconsistent lengths or indices,
    /// or on an index given twice.
    pub fn from_diagonals(
        slots: usize,
        diags: impl IntoIterator<Item = (usize, Vec<Complex64>)>,
    ) -> Result<Self, CkksError> {
        let mut diagonals = BTreeMap::new();
        for (d, v) in diags {
            if d >= slots || v.len() != slots {
                return Err(CkksError::Mismatch {
                    detail: format!("diagonal {d} inconsistent with {slots} slots"),
                });
            }
            if diagonals.insert(d, v).is_some() {
                return Err(CkksError::Mismatch { detail: format!("diagonal {d} given twice") });
            }
        }
        Ok(Self::new(slots, diagonals))
    }

    /// Number of slots the transform acts on.
    #[inline]
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// The BSGS baby-step count `g ≈ √D` used by [`Self::apply_bsgs`].
    pub fn giant_step(&self) -> usize {
        let d = self.diagonals.keys().copied().max().unwrap_or(0) + 1;
        ((d as f64).sqrt().ceil() as usize).max(1)
    }

    /// Rotation offsets whose Galois keys [`Self::apply`] needs.
    pub fn required_rotations_naive(&self) -> Vec<isize> {
        self.baby_offsets(self.slots)
    }

    /// The baby offsets `d mod g ≠ 0` that occur, ascending.
    fn baby_offsets(&self, g: usize) -> Vec<isize> {
        let used: BTreeSet<usize> = self.diagonals.keys().map(|d| d % g).collect();
        used.into_iter().filter(|&j| j != 0).map(|j| j as isize).collect()
    }

    /// Rotation offsets whose Galois keys [`Self::apply_bsgs`] needs: the
    /// baby offsets that occur and the giant shifts `i·g` of the occupied
    /// groups. (A superset key set keeps working.)
    pub fn required_rotations_bsgs(&self) -> Vec<isize> {
        let g = self.giant_step();
        let mut rots = self.baby_offsets(g);
        rots.extend(self.diagonals.keys().filter(|&&d| d >= g).map(|&d| (d - d % g) as isize));
        rots.sort_unstable();
        rots.dedup();
        rots
    }

    /// Applies the transform with one hoisted rotation group over all
    /// diagonals (no BSGS): the giant step is the slot count, so every
    /// diagonal is a baby of group 0, and the sum closes with one
    /// ModDown·Rescale (level − 1).
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::MissingKey`] if a rotation key is missing, or
    /// propagates evaluation errors.
    pub fn apply(
        &self,
        ev: &Evaluator<'_>,
        enc: &Encoder<'_>,
        ct: &Ciphertext,
        gk: &GaloisKeys,
    ) -> Result<Ciphertext, CkksError> {
        self.apply_with(self.slots, ev, enc, ct, gk)
    }

    /// Applies the transform with BSGS structure (see the module header):
    /// the occurring baby rotations hoisted and kept in `Q·P`, pre-rotated
    /// diagonals, one fused MAC per giant group and the giant rotations
    /// summed under a single ModDown·Rescale. The result is one level down.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::MissingKey`] if a rotation key is missing, or
    /// propagates evaluation errors.
    pub fn apply_bsgs(
        &self,
        ev: &Evaluator<'_>,
        enc: &Encoder<'_>,
        ct: &Ciphertext,
        gk: &GaloisKeys,
    ) -> Result<Ciphertext, CkksError> {
        self.apply_with(self.giant_step(), ev, enc, ct, gk)
    }

    /// The transform with giant step `g`.
    fn apply_with(
        &self,
        g: usize,
        ev: &Evaluator<'_>,
        enc: &Encoder<'_>,
        ct: &Ciphertext,
        gk: &GaloisKeys,
    ) -> Result<Ciphertext, CkksError> {
        self.check_input(enc, ct)?;
        if self.diagonals.is_empty() {
            return Err(CkksError::Mismatch { detail: "empty transform".into() });
        }
        let scale = ev.context().params().scale();
        let encoded = self.encoded(g, ev.context(), ct.level(), scale, enc)?;
        let source = |j: usize| match encoded.babies.binary_search(&(j as isize)) {
            Ok(k) => Source::Baby(k),
            Err(_) => Source::Lifted(ct.c0(), ct.c1()), // j = 0
        };
        let groups = layer_groups(&encoded.groups, g, source);
        ev.bsgs_rescaled(ct, &encoded.babies, &groups, gk, scale)
    }

    /// The encoding this transform holds now, if any.
    fn held(&self) -> Option<Arc<Encoded>> {
        self.encoded.lock().expect("no panic while the encoding slot is locked").clone()
    }

    /// The diagonals' images for giant step `g` at `level` of `ctx` and at
    /// `scale`: the held ones if they were encoded for exactly that, else
    /// encoded now and held from here on. Encoding runs unlocked, so two
    /// threads arriving cold may both encode; they store equal images.
    fn encoded(
        &self,
        g: usize,
        ctx: &CkksContext,
        level: usize,
        scale: f64,
        enc: &Encoder<'_>,
    ) -> Result<Arc<Encoded>, CkksError> {
        let moduli = || ctx.level_moduli(level).iter().chain(&ctx.rns().moduli()[ctx.q_len()..]);
        let held = self.held().filter(|e| {
            e.giant_step == g && e.scale_bits == scale.to_bits() && e.moduli.iter().eq(moduli())
        });
        if let Some(encoded) = held {
            return Ok(encoded);
        }
        // `check_input` held the slot count to the ring's: n/2.
        let half = self.slots;
        let mut groups: Vec<(usize, Vec<Image>)> = Vec::new();
        for (i, j, pre) in self.pre_rotated(g) {
            let mut image = images(ctx, enc, &pre, level, j == 0, scale)?;
            let palindromic = image.iter().all(|ch| {
                let (lo, hi) = ch.split_at(half);
                lo.iter().eq(hi.iter().rev())
            });
            if palindromic {
                image = image.into_iter().map(|ch| ch[..half].to_vec()).collect();
            }
            match groups.last_mut() {
                Some((last, group)) if *last == i => group.push((j, image)),
                _ => groups.push((i, vec![(j, image)])),
            }
        }
        let encoded = Arc::new(Encoded {
            giant_step: g,
            scale_bits: scale.to_bits(),
            moduli: moduli().copied().collect(),
            babies: self.baby_offsets(g),
            groups,
        });
        *self.encoded.lock().expect("no panic while the encoding slot is locked") =
            Some(Arc::clone(&encoded));
        Ok(encoded)
    }

    /// `(i, j, values)` per diagonal `d = i·g + j`, ascending: its values
    /// pre-rotated by `−i·g`, so that giant rotation `i·g` lands them.
    fn pre_rotated(&self, g: usize) -> impl Iterator<Item = (usize, usize, Vec<Complex64>)> + '_ {
        self.diagonals.iter().map(move |(&d, diag)| {
            let shift = d / g * g;
            let pre = (0..self.slots).map(|s| diag[(s + self.slots - shift) % self.slots]);
            (d / g, d % g, pre.collect())
        })
    }

    /// Reference plaintext application (testing).
    pub fn apply_reference(&self, v: &[Complex64]) -> Vec<Complex64> {
        let mut out = vec![Complex64::default(); self.slots];
        for (&d, diag) in &self.diagonals {
            for j in 0..self.slots {
                out[j] = out[j].add(diag[j].mul(v[(j + d) % self.slots]));
            }
        }
        out
    }

    /// Slot count against the context, then the input's integrity seal.
    fn check_input(&self, enc: &Encoder<'_>, ct: &Ciphertext) -> Result<(), CkksError> {
        if self.slots != enc.slots() {
            return Err(CkksError::Mismatch {
                detail: format!(
                    "transform has {} slots but context has {}",
                    self.slots,
                    enc.slots()
                ),
            });
        }
        ct.verify_integrity("ckks.eval")
    }
}

/// The giant groups `(i, images)` at giant step `g` as the evaluator takes
/// them: rotation `i·g`, and each term's source `source(j)`.
fn layer_groups<'a, 's: 'a>(
    groups: &'a [(usize, Vec<Image>)],
    g: usize,
    source: impl Fn(usize) -> Source<'s>,
) -> Vec<Group<'a>> {
    let term = |(j, image): &'a Image| -> Term<'a> { (source(*j), &image[..]) };
    groups.iter().map(|(i, group)| ((i * g) as isize, group.iter().map(term).collect())).collect()
}

/// The whole NTT images of `values` encoded at `level` of `ctx` and at
/// `scale`: on `Q_level ∪ P`, or, `lifted`, on `Q_level` pre-multiplied by
/// `P mod q_c` (module header).
fn images(
    ctx: &CkksContext,
    enc: &Encoder<'_>,
    values: &[Complex64],
    level: usize,
    lifted: bool,
    scale: f64,
) -> Result<Vec<Vec<u64>>, CkksError> {
    let p = ctx.q_len()..ctx.q_len() + ctx.k_len();
    let channels: Vec<usize> = (0..=level).chain(p.filter(|_| !lifted)).collect();
    let mut images = enc.encode_images(values, &channels, scale)?;
    if lifted {
        for (c, image) in images.iter_mut().enumerate() {
            let (m, p) = (ctx.rns().moduli()[c], ctx.p_mod_q(c));
            image.iter_mut().for_each(|x| *x = m.mul_shoup(*x, p));
        }
    }
    Ok(images)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Transforms;
    use crate::{CkksParams, SecretKey};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random_matrix(slots: usize, rng: &mut ChaCha8Rng) -> Vec<Vec<f64>> {
        (0..slots).map(|_| (0..slots).map(|_| rng.gen_range(-1.0..1.0)).collect()).collect()
    }

    #[test]
    fn diagonal_extraction_matches_matvec() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let m = random_matrix(8, &mut rng);
        let t = LinearTransform::from_real_matrix(&m).unwrap();
        let v: Vec<Complex64> = (0..8).map(|i| Complex64::new(i as f64 - 3.0, 0.0)).collect();
        let got = t.apply_reference(&v);
        for j in 0..8 {
            let want: f64 = (0..8).map(|k| m[j][k] * v[k].re).sum();
            assert!((got[j].re - want).abs() < 1e-9, "row {j}");
        }
    }

    #[test]
    fn homomorphic_naive_matches_reference() {
        let ctx = CkksContext::new(CkksParams::toy().unwrap()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let sk = SecretKey::generate(&ctx, &mut rng).unwrap();
        let enc = Encoder::new(&ctx);
        let ev = Evaluator::new(&ctx);
        let slots = enc.slots();
        let m = random_matrix(slots, &mut rng);
        let t = LinearTransform::from_real_matrix(&m).unwrap();

        let gk = GaloisKeys::generate(&ctx, &sk, &t.required_rotations_naive(), false, &mut rng)
            .unwrap();
        let values: Vec<f64> = (0..slots).map(|j| ((j * 7 % 5) as f64 - 2.0) / 4.0).collect();
        let ct = sk.encrypt(&ctx, &enc.encode(&values).unwrap(), &mut rng).unwrap();
        let out = t.apply(&ev, &enc, &ct, &gk).unwrap();
        assert_eq!(out.level(), ct.level() - 1);
        let back = enc.decode(&sk.decrypt(&out).unwrap()).unwrap();
        let vin: Vec<Complex64> = values.iter().map(|&x| Complex64::new(x, 0.0)).collect();
        let want = t.apply_reference(&vin);
        for j in 0..slots {
            assert!((back[j] - want[j].re).abs() < 0.05, "slot {j}: {} vs {}", back[j], want[j].re);
        }
    }

    #[test]
    fn homomorphic_bsgs_matches_naive() {
        let ctx = CkksContext::new(CkksParams::toy().unwrap()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let sk = SecretKey::generate(&ctx, &mut rng).unwrap();
        let enc = Encoder::new(&ctx);
        let ev = Evaluator::new(&ctx);
        let slots = enc.slots();
        let m = random_matrix(slots, &mut rng);
        let t = LinearTransform::from_real_matrix(&m).unwrap();

        let mut rots = t.required_rotations_naive();
        rots.extend(t.required_rotations_bsgs());
        let gk = GaloisKeys::generate(&ctx, &sk, &rots, false, &mut rng).unwrap();
        let values: Vec<f64> = (0..slots).map(|j| (j as f64 / slots as f64) - 0.5).collect();
        let ct = sk.encrypt(&ctx, &enc.encode(&values).unwrap(), &mut rng).unwrap();
        let a = t.apply(&ev, &enc, &ct, &gk).unwrap();
        let b = t.apply_bsgs(&ev, &enc, &ct, &gk).unwrap();
        let da = enc.decode(&sk.decrypt(&a).unwrap()).unwrap();
        let db = enc.decode(&sk.decrypt(&b).unwrap()).unwrap();
        for j in 0..slots {
            assert!((da[j] - db[j]).abs() < 0.05, "slot {j}: {} vs {}", da[j], db[j]);
        }
    }

    #[test]
    fn homomorphic_bsgs_matches_reference() {
        let ctx = CkksContext::new(CkksParams::toy().unwrap()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let sk = SecretKey::generate(&ctx, &mut rng).unwrap();
        let enc = Encoder::new(&ctx);
        let ev = Evaluator::new(&ctx);
        let slots = enc.slots();
        let t = LinearTransform::from_real_matrix(&random_matrix(slots, &mut rng)).unwrap();
        let gk =
            GaloisKeys::generate(&ctx, &sk, &t.required_rotations_bsgs(), false, &mut rng).unwrap();
        let values: Vec<f64> = (0..slots).map(|j| ((j * 3 % 7) as f64 - 3.0) / 4.0).collect();
        let ct = sk.encrypt(&ctx, &enc.encode(&values).unwrap(), &mut rng).unwrap();
        let out = t.apply_bsgs(&ev, &enc, &ct, &gk).unwrap();
        assert_eq!(out.level(), ct.level() - 1);
        let back = enc.decode(&sk.decrypt(&out).unwrap()).unwrap();
        let vin: Vec<Complex64> = values.iter().map(|&x| Complex64::new(x, 0.0)).collect();
        let want = t.apply_reference(&vin);
        for j in 0..slots {
            assert!((back[j] - want[j].re).abs() < 0.05, "slot {j}: {} vs {}", back[j], want[j].re);
        }
    }

    #[test]
    fn sparse_transform_rotates_only_by_the_babies_it_uses() {
        // Diagonals {0, 5, 37}: g = 7, so d = 5 and d = 37 = 5·7 + 2 use the
        // babies 5 and 2 only, and one giant shift, 35.
        let ctx = CkksContext::new(CkksParams::new(256, 3, 2, 30).unwrap()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let sk = SecretKey::generate(&ctx, &mut rng).unwrap();
        let enc = Encoder::new(&ctx);
        let ev = Evaluator::new(&ctx);
        let slots = enc.slots();
        let diag = |rng: &mut ChaCha8Rng| -> Vec<Complex64> {
            (0..slots).map(|_| Complex64::new(rng.gen_range(-1.0..1.0), 0.0)).collect()
        };
        let t =
            LinearTransform::from_diagonals(slots, [0usize, 5, 37].map(|d| (d, diag(&mut rng))))
                .unwrap();
        assert_eq!(t.giant_step(), 7);
        assert_eq!(t.required_rotations_bsgs(), vec![2, 5, 35]);

        // Exactly the listed keys suffice.
        let gk =
            GaloisKeys::generate(&ctx, &sk, &t.required_rotations_bsgs(), false, &mut rng).unwrap();
        let values: Vec<f64> = (0..slots).map(|j| ((j * 5 % 9) as f64 - 4.0) / 8.0).collect();
        let ct = sk.encrypt(&ctx, &enc.encode(&values).unwrap(), &mut rng).unwrap();
        let bsgs =
            enc.decode(&sk.decrypt(&t.apply_bsgs(&ev, &enc, &ct, &gk).unwrap()).unwrap()).unwrap();
        let gk_naive =
            GaloisKeys::generate(&ctx, &sk, &t.required_rotations_naive(), false, &mut rng)
                .unwrap();
        let naive =
            enc.decode(&sk.decrypt(&t.apply(&ev, &enc, &ct, &gk_naive).unwrap()).unwrap()).unwrap();
        let vin: Vec<Complex64> = values.iter().map(|&x| Complex64::new(x, 0.0)).collect();
        let want = t.apply_reference(&vin);
        for j in 0..slots {
            assert!((bsgs[j] - want[j].re).abs() < 0.05, "slot {j}: {} vs {}", bsgs[j], want[j].re);
            assert!((bsgs[j] - naive[j]).abs() < 0.05, "slot {j}: {} vs {}", bsgs[j], naive[j]);
        }
    }

    #[test]
    fn complex_diagonal_transform() {
        // Multiply every slot by i (a single diagonal-0 complex transform).
        let ctx = CkksContext::new(CkksParams::toy().unwrap()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let sk = SecretKey::generate(&ctx, &mut rng).unwrap();
        let enc = Encoder::new(&ctx);
        let ev = Evaluator::new(&ctx);
        let slots = enc.slots();
        let t = LinearTransform::from_diagonals(
            slots,
            [(0usize, vec![Complex64::new(0.0, 1.0); slots])],
        )
        .unwrap();
        let gk = GaloisKeys::generate(&ctx, &sk, &[], false, &mut rng).unwrap();
        let values = vec![Complex64::new(1.0, 0.5); 1];
        let pt = enc.encode_complex_at(&values, ctx.q_len() - 1, ctx.params().scale()).unwrap();
        let ct = sk.encrypt(&ctx, &pt, &mut rng).unwrap();
        let out = t.apply(&ev, &enc, &ct, &gk).unwrap();
        let back = enc.decode_complex(&sk.decrypt(&out).unwrap()).unwrap();
        // i * (1 + 0.5i) = -0.5 + i.
        assert!((back[0].re + 0.5).abs() < 0.02, "re {}", back[0].re);
        assert!((back[0].im - 1.0).abs() < 0.02, "im {}", back[0].im);
    }

    #[test]
    fn rejects_bad_matrices() {
        assert!(LinearTransform::from_real_matrix(&[]).is_err());
        assert!(LinearTransform::from_real_matrix(&[vec![1.0, 2.0]]).is_err());
        assert!(
            LinearTransform::from_diagonals(4, [(4usize, vec![Complex64::default(); 4])]).is_err()
        );
        let twice = [1usize, 2, 1].map(|d| (d, vec![Complex64::default(); 4]));
        match LinearTransform::from_diagonals(4, twice) {
            Err(CkksError::Mismatch { detail }) => assert_eq!(detail, "diagonal 1 given twice"),
            other => panic!("expected Mismatch, got {other:?}"),
        }
    }

    /// The `ckks_mlp` benchmark ring: N = 2^12, L = 6, dnum = 3, Δ = 2^36.
    fn benchmark_ring() -> CkksParams {
        CkksParams::new(1 << 12, 6, 3, 36).unwrap()
    }

    /// Which diagonals of a test transform carry imaginary parts.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Slots {
        Real,
        Complex,
        /// Odd diagonals complex, even ones real.
        Mixed,
    }

    /// A context with keys for banded transforms of `diagonals` diagonals
    /// and a top-level encrypted input.
    struct Fixture {
        ctx: CkksContext,
        gk: GaloisKeys,
        top: Ciphertext,
        diagonals: usize,
        rng: ChaCha8Rng,
    }

    impl Fixture {
        fn new(params: CkksParams, diagonals: usize, seed: u64) -> Self {
            let ctx = CkksContext::new(params).unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let sk = SecretKey::generate(&ctx, &mut rng).unwrap();
            let enc = Encoder::new(&ctx);
            let values: Vec<f64> = (0..enc.slots()).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let top = sk.encrypt(&ctx, &enc.encode(&values).unwrap(), &mut rng).unwrap();
            let rotations =
                banded(enc.slots(), diagonals, Slots::Real, &mut rng).required_rotations_bsgs();
            let gk = GaloisKeys::generate(&ctx, &sk, &rotations, false, &mut rng).unwrap();
            Fixture { ctx, gk, top, diagonals, rng }
        }

        fn banded(&mut self, kind: Slots) -> LinearTransform {
            banded(self.ctx.n() / 2, self.diagonals, kind, &mut self.rng)
        }
    }

    /// Diagonals `0..diagonals` with random entries.
    fn banded(
        slots: usize,
        diagonals: usize,
        kind: Slots,
        rng: &mut ChaCha8Rng,
    ) -> LinearTransform {
        let bound = 0.5 / diagonals as f64;
        LinearTransform::from_diagonals(
            slots,
            (0..diagonals).map(|d| {
                let complex = kind == Slots::Complex || (kind == Slots::Mixed && d % 2 == 1);
                let mut part = |on: bool| if on { rng.gen_range(-bound..bound) } else { 0.0 };
                (d, (0..slots).map(|_| Complex64::new(part(true), part(complex))).collect())
            }),
        )
        .unwrap()
    }

    /// The layer of `t` at giant step `g` on `ct` through the evaluator,
    /// the term of baby offset `j` from `source(j)` — the babies it rotates
    /// are the offsets whose source is one — and every diagonal encoded
    /// afresh and whole, lifted where its source is.
    fn layer<'a>(
        t: &LinearTransform,
        g: usize,
        ev: &Evaluator<'_>,
        enc: &Encoder<'_>,
        ct: &Ciphertext,
        gk: &GaloisKeys,
        source: impl Fn(usize) -> Source<'a>,
    ) -> Ciphertext {
        let lifted = |j: usize| matches!(source(j), Source::Lifted(..));
        let babies: Vec<isize> =
            t.baby_offsets(g).into_iter().filter(|&j| !lifted(j as usize)).collect();
        let scale = ev.context().params().scale();
        let mut encoded: BTreeMap<usize, Vec<Image>> = BTreeMap::new();
        for (i, j, pre) in t.pre_rotated(g) {
            let image = images(ev.context(), enc, &pre, ct.level(), lifted(j), scale).unwrap();
            encoded.entry(i).or_default().push((j, image));
        }
        let encoded: Vec<(usize, Vec<Image>)> = encoded.into_iter().collect();
        let groups = layer_groups(&encoded, g, source);
        ev.bsgs_rescaled(ct, &babies, &groups, gk, scale).unwrap()
    }

    /// The transform at giant step `g` around its held encoding: every
    /// diagonal encoded afresh, every image whole.
    fn apply_uncached(
        t: &LinearTransform,
        g: usize,
        ev: &Evaluator<'_>,
        enc: &Encoder<'_>,
        ct: &Ciphertext,
        gk: &GaloisKeys,
    ) -> Ciphertext {
        let offsets = t.baby_offsets(g);
        let source = |j: usize| match offsets.binary_search(&(j as isize)) {
            Ok(k) => Source::Baby(k),
            Err(_) => Source::Lifted(ct.c0(), ct.c1()),
        };
        layer(t, g, ev, enc, ct, gk, source)
    }

    /// The layer as it was before its babies stayed in `Q·P`: every baby
    /// rotation Moddowned on its own, the inner sums over `Q_level`, then
    /// the giant rotations summed in `Q·P` under one ModDown·Rescale. Handed
    /// to the layer as a lifted pair, a Moddowned baby takes exactly that
    /// path: its inner sum is zero on `P`, so a giant's Moddown returns the
    /// `Q_level` inner sum unrounded.
    fn apply_two_step(
        t: &LinearTransform,
        g: usize,
        ev: &Evaluator<'_>,
        enc: &Encoder<'_>,
        ct: &Ciphertext,
        gk: &GaloisKeys,
    ) -> Ciphertext {
        let offsets = t.baby_offsets(g);
        let babies = ev.rotate_hoisted_raw(ct, &offsets, gk, &mut Transforms::default()).unwrap();
        let source = |j: usize| match offsets.binary_search(&(j as isize)) {
            Ok(k) => Source::Lifted(&babies[k].0, &babies[k].1),
            Err(_) => Source::Lifted(ct.c0(), ct.c1()),
        };
        layer(t, g, ev, enc, ct, gk, source)
    }

    /// Entries kept per channel of each held image, in diagonal order; `k`
    /// is the special-prime count.
    fn held_lengths(t: &LinearTransform, k: usize) -> Vec<usize> {
        let held = t.held().expect("an encoding is held after a call");
        let mut by_diagonal: Vec<(usize, usize)> = Vec::new();
        for (i, group) in &held.groups {
            for (j, image) in group {
                let lifted = if *j == 0 { k } else { 0 };
                assert_eq!(image.len(), held.moduli.len() - lifted);
                assert!(image.iter().all(|ch| ch.len() == image[0].len()));
                by_diagonal.push((i * held.giant_step + j, image[0].len()));
            }
        }
        by_diagonal.sort_unstable();
        by_diagonal.into_iter().map(|(_, len)| len).collect()
    }

    /// Twice through the cache and once around it, limb for limb, for a
    /// real, a complex and a mixed transform at each of `levels`.
    fn cached_calls_are_bit_identical(params: CkksParams, diagonals: usize, levels: [usize; 2]) {
        let mut fx = Fixture::new(params, diagonals, 23);
        let transforms = [Slots::Real, Slots::Complex, Slots::Mixed].map(|k| (k, fx.banded(k)));
        let (enc, ev) = (Encoder::new(&fx.ctx), Evaluator::new(&fx.ctx));
        let n = fx.ctx.n();
        for (kind, t) in &transforms {
            for level in levels {
                let ct = ev.level_down(&fx.top, level).unwrap();
                let first = t.apply_bsgs(&ev, &enc, &ct, &fx.gk).unwrap();
                let second = t.apply_bsgs(&ev, &enc, &ct, &fx.gk).unwrap();
                let fresh = apply_uncached(t, t.giant_step(), &ev, &enc, &ct, &fx.gk);
                assert_eq!(first, second, "{kind:?} at level {level}: cold vs cached");
                assert_eq!(first, fresh, "{kind:?} at level {level}: cached vs uncached");
                let want: Vec<usize> = (0..diagonals)
                    .map(|d| match kind {
                        Slots::Real => n / 2,
                        Slots::Complex => n,
                        Slots::Mixed => [n / 2, n][d % 2],
                    })
                    .collect();
                assert_eq!(held_lengths(t, fx.ctx.k_len()), want, "{kind:?} at level {level}");
            }
        }
    }

    #[test]
    fn cached_calls_are_bit_identical_at_the_toy_ring() {
        cached_calls_are_bit_identical(CkksParams::toy().unwrap(), 16, [3, 2]);
    }

    #[test]
    fn cached_calls_are_bit_identical_at_the_benchmark_ring() {
        cached_calls_are_bit_identical(benchmark_ring(), 9, [6, 4]);
    }

    #[test]
    fn real_slots_encode_to_palindromes_and_one_imaginary_part_does_not() {
        let ctx = CkksContext::new(CkksParams::new(256, 4, 2, 36).unwrap()).unwrap();
        let enc = Encoder::new(&ctx);
        let (slots, scale) = (enc.slots(), ctx.params().scale());
        let mut rng = ChaCha8Rng::seed_from_u64(29);
        // On every channel of `Q_level ∪ P`; on `Q_level`, the plaintext's.
        let palindromic = |values: &[Complex64], level: usize| {
            let channels: Vec<usize> = (0..=level).chain(ctx.p_indices()).collect();
            let images = enc.encode_images(values, &channels, scale).unwrap();
            let pt = enc.encode_complex_at(values, level, scale).unwrap();
            assert!(pt.poly().channels().iter().zip(&images).all(|(ch, im)| ch.coeffs() == im));
            images.iter().all(|ch| ch.iter().eq(ch.iter().rev()))
        };
        for level in 0..ctx.q_len() {
            let mut values: Vec<Complex64> =
                (0..slots).map(|_| Complex64::new(rng.gen_range(-1.0..1.0), 0.0)).collect();
            assert!(palindromic(&values, level), "real slots at level {level}");
            values[rng.gen_range(0..slots)].im = 1e-6;
            assert!(!palindromic(&values, level), "one imaginary part at level {level}");
        }

        // The same, seen through a transform: only the real diagonal folds,
        // lifted onto `Q` and on `Q ∪ P`, and the folded image reads as the
        // whole one.
        let sk = SecretKey::generate(&ctx, &mut rng).unwrap();
        let gk = GaloisKeys::generate(&ctx, &sk, &[1], false, &mut rng).unwrap();
        let real = vec![Complex64::new(0.25, 0.0); slots];
        let mut nearly = real.clone();
        nearly[7].im = 1e-6;
        let ev = Evaluator::new(&ctx);
        for (d, other) in [(0, 1), (1, 0)] {
            let diagonals = [(d, real.clone()), (other, nearly.clone())];
            let t = LinearTransform::from_diagonals(slots, diagonals).unwrap();
            let ct = sk.encrypt(&ctx, &enc.encode(&[0.5]).unwrap(), &mut rng).unwrap();
            let out = t.apply_bsgs(&ev, &enc, &ct, &gk).unwrap();
            let mut want = [ctx.n() / 2, ctx.n()];
            want.rotate_left(d);
            assert_eq!(held_lengths(&t, ctx.k_len()), want, "real diagonal {d}");
            assert_eq!(out, apply_uncached(&t, t.giant_step(), &ev, &enc, &ct, &gk));
        }
    }

    #[test]
    fn another_level_replaces_the_encoding_and_a_clone_starts_warm() {
        let mut fx = Fixture::new(benchmark_ring(), 9, 31);
        let t = fx.banded(Slots::Real);
        let (enc, ev) = (Encoder::new(&fx.ctx), Evaluator::new(&fx.ctx));
        let k = fx.ctx.k_len();
        let at = |t: &LinearTransform, level: usize| {
            let out = t.apply_bsgs(&ev, &enc, &ev.level_down(&fx.top, level).unwrap(), &fx.gk);
            let held = t.held().unwrap().moduli.len();
            assert_eq!(held, level + 1 + k, "one encoding, the last key's");
            out.unwrap()
        };
        let six = at(&t, 6);
        let four = at(&t, 4);
        assert_eq!(at(&t, 6), six, "level 6 after level 4");
        let warm = t.clone();
        assert!(Arc::ptr_eq(&warm.held().unwrap(), &t.held().unwrap()), "a clone shares");
        assert_eq!(at(&warm, 6), six, "the clone at its source's key");
        assert_eq!(at(&warm, 4), four, "the clone at another key");
        assert_eq!(t.held().unwrap().moduli.len(), 7 + k, "the source keeps its own");
    }

    #[test]
    fn two_cold_threads_get_the_single_threaded_bits() {
        let mut fx = Fixture::new(CkksParams::new(256, 3, 2, 36).unwrap(), 9, 37);
        let shared = fx.banded(Slots::Mixed);
        let single = {
            let (enc, ev) = (Encoder::new(&fx.ctx), Evaluator::new(&fx.ctx));
            apply_uncached(&shared, shared.giant_step(), &ev, &enc, &fx.top, &fx.gk)
        };
        let start = std::sync::Barrier::new(2);
        let outputs = std::thread::scope(|s| {
            let workers = [(); 2].map(|()| {
                s.spawn(|| {
                    let (enc, ev) = (Encoder::new(&fx.ctx), Evaluator::new(&fx.ctx));
                    start.wait();
                    shared.apply_bsgs(&ev, &enc, &fx.top, &fx.gk).unwrap()
                })
            });
            workers.map(|w| w.join().expect("worker panicked"))
        });
        assert_eq!(outputs[0], single);
        assert_eq!(outputs[1], single);
    }

    /// `apply_bsgs` and `apply` against the two-step path at the same giant
    /// step, on a 16-diagonal real layer per seed: decrypted, each one's
    /// largest slot error against the plaintext reference is within 1 %
    /// (plus 10⁻⁹) of the two-step path's, and inside the tolerance the
    /// other tests hold.
    fn double_hoisting_keeps_the_two_step_precision(params: CkksParams, seeds: [u64; 4]) {
        let ctx = CkksContext::new(params).unwrap();
        let (enc, ev) = (Encoder::new(&ctx), Evaluator::new(&ctx));
        let slots = enc.slots();
        for seed in seeds {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let sk = SecretKey::generate(&ctx, &mut rng).unwrap();
            let t = banded(slots, 16, Slots::Real, &mut rng);
            let mut rotations = t.required_rotations_bsgs();
            rotations.extend(t.required_rotations_naive());
            rotations.sort_unstable();
            rotations.dedup();
            let gk = GaloisKeys::generate(&ctx, &sk, &rotations, false, &mut rng).unwrap();
            let values: Vec<Complex64> =
                (0..slots).map(|_| Complex64::new(rng.gen_range(-1.0..1.0), 0.0)).collect();
            let pt = enc.encode_complex_at(&values, ctx.q_len() - 1, ctx.params().scale());
            let ct = sk.encrypt(&ctx, &pt.unwrap(), &mut rng).unwrap();
            let want = t.apply_reference(&values);
            let error = |out: &Ciphertext| {
                let got = enc.decode(&sk.decrypt(out).unwrap()).unwrap();
                got.iter().zip(&want).map(|(g, w)| (g - w.re).abs()).fold(0.0, f64::max)
            };
            let layers = [
                (t.giant_step(), t.apply_bsgs(&ev, &enc, &ct, &gk).unwrap()),
                (slots, t.apply(&ev, &enc, &ct, &gk).unwrap()),
            ];
            for (g, out) in layers {
                let (new, old) = (error(&out), error(&apply_two_step(&t, g, &ev, &enc, &ct, &gk)));
                assert!(new < 0.05, "seed {seed}, g = {g}: slot error {new}");
                let within = (new - old).abs() <= 0.01 * old + 1e-9;
                assert!(within, "seed {seed}, g = {g}: slot error {new:e}, two-step {old:e}");
            }
        }
    }

    #[test]
    fn double_hoisting_keeps_the_two_step_precision_at_the_toy_ring() {
        double_hoisting_keeps_the_two_step_precision(CkksParams::toy().unwrap(), [41, 42, 43, 44]);
    }

    #[test]
    fn double_hoisting_keeps_the_two_step_precision_at_the_mlp_ring() {
        double_hoisting_keeps_the_two_step_precision(benchmark_ring(), [45, 46, 47, 48]);
    }
}
