//! Slot-based data management (paper §5.3, Fig. 5b).
//!
//! Polynomial slots are partitioned *contiguously* across the computing
//! units: for `N = 16384` and 128 units, slots 0–127 live in local SRAM 0,
//! slots 128–255 in SRAM 1, and so on — and every unit holds the **same
//! slot range for every RNS channel and every dnum group**. Consequences
//! (Table 4):
//!
//! * element-wise work, `DecompPolyMult` (dnum-group pattern) and
//!   `Bconv`/`Modup`/`Moddown` (channel pattern) touch only unit-local
//!   data;
//! * the NTT's global mixing is confined to the 4-step algorithm's
//!   transpose, which the dedicated transpose register file carries — the
//!   only inter-unit data movement in the machine.
//!
//! [`DistributedFourStepNtt`] *executes* that schedule: per-unit local
//! sub-NTTs separated by explicit transposes. In the local phases each
//! unit is handed only its own `chunks_mut` slice, so the borrow checker
//! proves no unit touches another unit's scratchpad outside the
//! transpose; the executor counts the words each phase moves. The result
//! is bit-exact against [`fhe_math::FourStepNtt`].

use fhe_math::{FourStepNtt, MathError, Modulus};

/// The contiguous slot partition of one polynomial across computing units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotLayout {
    units: usize,
    n: usize,
}

impl SlotLayout {
    /// Creates a layout; `units` must divide `n`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::InvalidParameter`] if `units` is zero or does
    /// not divide `n`.
    pub fn new(units: usize, n: usize) -> Result<Self, MathError> {
        if units == 0 || !n.is_multiple_of(units) {
            return Err(MathError::InvalidParameter {
                detail: format!("{units} units must evenly divide {n} slots"),
            });
        }
        Ok(SlotLayout { units, n })
    }

    /// Slots held by each unit.
    #[inline]
    pub fn slots_per_unit(&self) -> usize {
        self.n / self.units
    }

    /// The unit owning a slot (Fig. 5b: contiguous ranges).
    #[inline]
    pub fn unit_of_slot(&self, slot: usize) -> usize {
        debug_assert!(slot < self.n);
        slot / self.slots_per_unit()
    }

    /// The slot range owned by a unit.
    pub fn slots_of_unit(&self, unit: usize) -> std::ops::Range<usize> {
        debug_assert!(unit < self.units);
        let per = self.slots_per_unit();
        unit * per..(unit + 1) * per
    }

    /// Number of units.
    #[inline]
    pub fn units(&self) -> usize {
        self.units
    }

    /// Verifies the Table 4 locality property: an access that touches one
    /// slot across arbitrary channels and dnum groups stays in one unit.
    /// (Channels and groups are replicated per unit, so locality depends
    /// only on the slot — this method documents and asserts the
    /// invariant.)
    pub fn is_local_access(&self, slot: usize, _channel: usize, _dnum_group: usize) -> usize {
        self.unit_of_slot(slot)
    }
}

/// Execution statistics of a distributed 4-step NTT.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DistributedNttStats {
    /// Words read/written inside unit-local scratchpads.
    pub local_accesses: u64,
    /// Words moved through the transpose register file (inter-unit).
    pub transpose_words: u64,
}

/// A 4-step NTT executed unit by unit under a [`SlotLayout`], each unit
/// on its own slots outside the transposes.
#[derive(Debug)]
pub struct DistributedFourStepNtt<'a> {
    ntt: &'a FourStepNtt,
    layout: SlotLayout,
}

impl<'a> DistributedFourStepNtt<'a> {
    /// Builds the distributed executor; the layout must give each unit
    /// exactly one matrix row (`units = n1`, `slots/unit = n2`), the
    /// paper's configuration (`128 × 128` at `N = 16384`).
    ///
    /// # Errors
    ///
    /// Returns [`MathError::InvalidParameter`] on a shape mismatch.
    pub fn new(ntt: &'a FourStepNtt, units: usize) -> Result<Self, MathError> {
        if units != ntt.n1() {
            return Err(MathError::InvalidParameter {
                detail: format!("need units = n1 = {}, got {units}", ntt.n1()),
            });
        }
        let layout = SlotLayout::new(units, ntt.n())?;
        if layout.slots_per_unit() != ntt.n2() {
            return Err(MathError::InvalidParameter {
                detail: "each unit must hold exactly one matrix row".into(),
            });
        }
        Ok(DistributedFourStepNtt { ntt, layout })
    }

    /// The slot layout in use.
    #[inline]
    pub fn layout(&self) -> SlotLayout {
        self.layout
    }

    /// Forward transform executed as the hardware schedules it. `data` is
    /// the flat polynomial (unit `u` owns `layout.slots_of_unit(u)`);
    /// returns the words each kind of phase moved. Bit-exact vs
    /// [`FourStepNtt::forward`].
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the transform size.
    pub fn forward(&self, data: &mut [u64]) -> DistributedNttStats {
        assert_eq!(data.len(), self.ntt.n());
        let m: Modulus = self.ntt.modulus();
        let units = self.layout.units();
        let per = self.layout.slots_per_unit();
        let mut stats = DistributedNttStats::default();

        // Phase 1 (local): each unit twists its own slots.
        let twist = self.ntt.twist_factors();
        for (slots, factors) in data.chunks_mut(per).zip(twist.chunks(per)) {
            for (x, &w) in slots.iter_mut().zip(factors) {
                *x = m.mul_shoup(*x, w);
            }
            stats.local_accesses += 2 * per as u64;
        }

        // Phase 2 (transpose RF): row-major -> column-major. This is the
        // machine's only inter-unit movement.
        let mut colmajor = vec![0u64; data.len()];
        for i1 in 0..units {
            for i2 in 0..per {
                colmajor[i2 * units + i1] = data[i1 * per + i2];
                stats.transpose_words += 1;
            }
        }

        // Phase 3 (local): each column now lies contiguously with one
        // unit; run the n1-point sub-NTT entirely in its scratchpad.
        for column in colmajor.chunks_mut(units) {
            self.ntt.col_transform().forward_natural(column);
            stats.local_accesses += 2 * units as u64;
        }

        // Phase 4 (transpose RF): back to row-major.
        for i2 in 0..per {
            for k1 in 0..units {
                data[k1 * per + i2] = colmajor[i2 * units + k1];
                stats.transpose_words += 1;
            }
        }

        // Phase 5 (local): twiddle multiply + n2-point row sub-NTT per unit.
        let twiddle = self.ntt.twiddle_factors();
        for (row, factors) in data.chunks_mut(per).zip(twiddle.chunks(per)) {
            for (x, &w) in row.iter_mut().zip(factors) {
                *x = m.mul_shoup(*x, w);
            }
            self.ntt.row_transform().forward_natural(row);
            stats.local_accesses += 4 * per as u64;
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhe_math::generate_ntt_primes;

    fn setup(n1: usize, n2: usize) -> FourStepNtt {
        let q = Modulus::new(generate_ntt_primes(36, n1 * n2, 1).unwrap()[0]).unwrap();
        FourStepNtt::new(q, n1, n2).unwrap()
    }

    #[test]
    fn layout_partition_matches_fig5b() {
        // N = 16384 over 128 units: slots 0-127 in unit 0, 128-255 in
        // unit 1, ... (paper Fig. 5b).
        let l = SlotLayout::new(128, 16384).unwrap();
        assert_eq!(l.slots_per_unit(), 128);
        assert_eq!(l.unit_of_slot(0), 0);
        assert_eq!(l.unit_of_slot(127), 0);
        assert_eq!(l.unit_of_slot(128), 1);
        assert_eq!(l.slots_of_unit(1), 128..256);
        // Channel/dnum-group access stays on the slot's unit (Table 4).
        for channel in 0..45 {
            for group in 0..4 {
                assert_eq!(l.is_local_access(200, channel, group), 1);
            }
        }
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(SlotLayout::new(0, 128).is_err());
        assert!(SlotLayout::new(3, 128).is_err());
        let ntt = setup(16, 16);
        assert!(DistributedFourStepNtt::new(&ntt, 8).is_err());
    }

    #[test]
    fn distributed_execution_bit_exact() {
        for (n1, n2) in [(16usize, 16usize), (8, 32)] {
            let ntt = setup(n1, n2);
            let dist = DistributedFourStepNtt::new(&ntt, n1).unwrap();
            let q = ntt.modulus().value();
            let mut a: Vec<u64> = (0..(n1 * n2) as u64).map(|i| (i * 0x9e3779b9 + 3) % q).collect();
            let mut reference = a.clone();
            let stats = dist.forward(&mut a);
            ntt.forward(&mut reference);
            assert_eq!(a, reference, "{n1}x{n2}");
            assert!(stats.transpose_words == 2 * (n1 * n2) as u64);
            assert!(stats.local_accesses > 0);
        }
    }

    #[test]
    fn transpose_is_the_only_global_traffic() {
        // The ratio of transpose words to local accesses quantifies why a
        // dedicated (small) transpose register file suffices.
        let ntt = setup(16, 16);
        let dist = DistributedFourStepNtt::new(&ntt, 16).unwrap();
        let mut a = vec![1u64; 256];
        let stats = dist.forward(&mut a);
        assert!(
            stats.transpose_words < stats.local_accesses,
            "transpose {} vs local {}",
            stats.transpose_words,
            stats.local_accesses
        );
    }
}
