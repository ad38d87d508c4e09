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
//! [`DistributedFourStepNtt`] runs that schedule under a layout that gives
//! each unit one matrix row: it checks the shape, runs
//! [`fhe_math::FourStepNtt::forward`] — whose column and row passes hand
//! each sub-transform one contiguous slice, so the borrow checker proves
//! no unit touches another unit's slots outside the transpose — and counts
//! the words each phase moves. The result is [`fhe_math::NttTable`]'s,
//! word for word.

use fhe_math::{FourStepNtt, MathError};

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

    /// Forward transform as the hardware schedules it: `data` is the flat
    /// polynomial (unit `u` owns `layout.slots_of_unit(u)`), left holding
    /// [`FourStepNtt::forward`]'s output; returns the words each kind of
    /// phase moves.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the transform size.
    pub fn forward(&self, data: &mut [u64]) -> DistributedNttStats {
        self.ntt.forward(data);
        let (units, per) = (self.layout.units() as u64, self.layout.slots_per_unit() as u64);
        DistributedNttStats {
            // The column pass reads and writes each of its `per` columns of
            // `units` words; the row pass reads and writes each unit's row
            // twice (twiddle multiply, sub-transform).
            local_accesses: per * 2 * units + units * 4 * per,
            // Row-major to column-major and back: every word twice.
            transpose_words: 2 * units * per,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhe_math::{generate_ntt_primes, Modulus, NttTable};

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
        // Every channel and dnum group keeps the same slot range per unit,
        // so an access's unit is its slot's (Table 4).
        assert_eq!(l.unit_of_slot(200), 1);
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
        for (n1, n2) in [(8usize, 8usize), (16, 16), (8, 32)] {
            let ntt = setup(n1, n2);
            let dist = DistributedFourStepNtt::new(&ntt, n1).unwrap();
            let n = n1 * n2;
            let q = ntt.modulus().value();
            let mut a: Vec<u64> = (0..n as u64).map(|i| (i * 0x9e3779b9 + 3) % q).collect();
            let mut reference = a.clone();
            let mut flat = a.clone();
            let stats = dist.forward(&mut a);
            ntt.forward(&mut reference);
            NttTable::new(ntt.modulus(), n).unwrap().forward(&mut flat);
            assert_eq!(a, reference, "{n1}x{n2}");
            assert_eq!(a, flat, "{n1}x{n2}");
            let n = n as u64;
            assert_eq!(
                stats,
                DistributedNttStats { local_accesses: 6 * n, transpose_words: 2 * n }
            );
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
