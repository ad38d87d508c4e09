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
//! rotations. [`LinearTransform::apply_bsgs`] spends, at `c = level + 1`
//! channels, `t = c + K` and `β` digits:
//!
//! * the babies as one hoisted group — `β·t` transforms for the shared
//!   `decompose → Modup → NTT`, then `2t` per baby (the paper's `BSP-L=n+`);
//! * each inner sum as **one** fused lazy MAC over the raw component
//!   pairs (`(M_j A_j)_n R_j`: one reduction per slot per group, no
//!   per-term ciphertext, seal or clone);
//! * the giant rotations as one sum in `Q·P` closed by a single Moddown —
//!   `β·t` per giant rotation plus `2t` once, exactly
//!   `metaop::counts::hoisted_rotation_group`;
//!
//! and verifies the input and seals the output once. Diagonals are encoded
//! per call, a giant group at a time: caching them would hold
//! `D·c` channels per transform, more than the evaluation keys of a small
//! ring. This is the workhorse of CKKS bootstrapping's
//! CoeffToSlot/SlotToCoeff and of the LoLa-MNIST / HELR layers in the
//! paper's Fig. 6.

use std::collections::{BTreeMap, BTreeSet};

use crate::ciphertext::{Ciphertext, Plaintext};
use crate::encoding::{Complex64, Encoder};
use crate::eval::Transforms;
use crate::keys::GaloisKeys;
use crate::{CkksError, Evaluator};

/// A slot-space linear transform stored as its nonzero generalized
/// diagonals: `out_j = Σ_d diag_d[j] · v_{(j+d) mod slots}`.
#[derive(Debug, Clone)]
pub struct LinearTransform {
    slots: usize,
    diagonals: BTreeMap<usize, Vec<Complex64>>,
}

impl LinearTransform {
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
        Ok(LinearTransform { slots, diagonals })
    }

    /// Builds directly from `(diagonal index, diagonal values)` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::Mismatch`] on inconsistent lengths or indices.
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
            diagonals.insert(d, v);
        }
        Ok(LinearTransform { slots, diagonals })
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
        self.diagonals.keys().filter(|&&d| d != 0).map(|&d| d as isize).collect()
    }

    /// The diagonals grouped by giant index: group `i` holds `(j, diag)` for
    /// every diagonal `d = i·g + j`.
    fn giant_groups(&self) -> BTreeMap<usize, Vec<(usize, &Vec<Complex64>)>> {
        let g = self.giant_step();
        let mut groups: BTreeMap<usize, Vec<_>> = BTreeMap::new();
        for (&d, diag) in &self.diagonals {
            groups.entry(d / g).or_default().push((d % g, diag));
        }
        groups
    }

    /// The baby offsets `d mod g ≠ 0` that occur, ascending.
    fn baby_offsets(&self) -> Vec<isize> {
        let g = self.giant_step();
        let used: BTreeSet<usize> = self.diagonals.keys().map(|d| d % g).collect();
        used.into_iter().filter(|&j| j != 0).map(|j| j as isize).collect()
    }

    /// Rotation offsets whose Galois keys [`Self::apply_bsgs`] needs: the
    /// baby offsets that occur and the giant shifts `i·g` of the occupied
    /// groups. (A superset key set keeps working.)
    pub fn required_rotations_bsgs(&self) -> Vec<isize> {
        let g = self.giant_step();
        let mut rots = self.baby_offsets();
        rots.extend(self.giant_groups().keys().filter(|&&i| i != 0).map(|&i| (i * g) as isize));
        rots.sort_unstable();
        rots.dedup();
        rots
    }

    /// Applies the transform with one hoisted rotation group over all
    /// diagonals (no BSGS). The result is rescaled once (level − 1).
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
        self.check_input(enc, ct)?;
        let level = ct.level();
        let scale = ev.context().params().scale();
        let mut tally = Transforms::default();
        // Hoist all nonzero-diagonal rotations at once; they come back in
        // diagonal order.
        let rotated =
            ev.rotate_hoisted_raw(ct, &self.required_rotations_naive(), gk, &mut tally)?;
        let mut rotated = rotated.iter();
        let pts = self
            .diagonals
            .values()
            .map(|diag| enc.encode_complex_at(diag, level, scale))
            .collect::<Result<Vec<Plaintext>, _>>()?;
        if pts.is_empty() {
            return Err(CkksError::Mismatch { detail: "empty transform".into() });
        }
        let terms: Vec<_> = (self.diagonals.keys().zip(&pts))
            .map(|(&d, pt)| match d {
                0 => ((ct.c0(), ct.c1()), pt),
                _ => {
                    let (c0, c1) = rotated.next().expect("one rotation per nonzero diagonal");
                    ((c0, c1), pt)
                }
            })
            .collect();
        let (s0, s1) = ev.mac_plain(level, &terms)?;
        ev.rescale_pair((&s0, &s1), level, ct.scale() * scale, &mut tally)
    }

    /// Applies the transform with BSGS structure (see the module header):
    /// the occurring baby rotations hoisted, pre-rotated diagonals, one
    /// fused MAC per giant group and the giant rotations summed under a
    /// single Moddown. The result is rescaled once (level − 1).
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
        self.check_input(enc, ct)?;
        let level = ct.level();
        let scale = ev.context().params().scale();
        let g = self.giant_step();
        let groups = self.giant_groups();
        if groups.is_empty() {
            return Err(CkksError::Mismatch { detail: "empty transform".into() });
        }
        let mut tally = Transforms::default();
        let baby_offsets = self.baby_offsets();
        let babies = ev.rotate_hoisted_raw(ct, &baby_offsets, gk, &mut tally)?;
        let baby = |j: usize| match baby_offsets.binary_search(&(j as isize)) {
            Ok(k) => (&babies[k].0, &babies[k].1),
            Err(_) => (ct.c0(), ct.c1()), // j = 0
        };
        let mut inner_sums = groups.iter().map(|(&i, group)| {
            let shift = i * g;
            // Pre-rotate each diagonal by -shift so the giant rotation
            // lands it correctly.
            let pts = group
                .iter()
                .map(|&(_, diag)| {
                    let pre: Vec<Complex64> = (0..self.slots)
                        .map(|t| diag[(t + self.slots - shift % self.slots) % self.slots])
                        .collect();
                    enc.encode_complex_at(&pre, level, scale)
                })
                .collect::<Result<Vec<Plaintext>, _>>()?;
            let terms: Vec<_> = group.iter().zip(&pts).map(|(&(j, _), pt)| (baby(j), pt)).collect();
            Ok((shift as isize, ev.mac_plain(level, &terms)?))
        });
        let summed = match groups.len() {
            // A transform inside giant group 0 needs no giant rotation.
            1 if groups.contains_key(&0) => inner_sums.next().expect("one group")?.1,
            _ => ev.rotate_sum(level, inner_sums, gk, &mut tally)?,
        };
        ev.rescale_pair((&summed.0, &summed.1), level, ct.scale() * scale, &mut tally)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CkksContext, CkksParams, SecretKey};
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
    }
}
