//! The generic modularized-accelerator performance model.
//!
//! A modularized design owns fixed per-operator functional-unit pools.
//! When the workload's operator mix shifts (Fig. 1), work queues on one
//! pool while the others idle; data dependencies limit how much the
//! phases can overlap. The model:
//!
//! ```text
//! time_i = work_i / capacity_i                (per pool)
//! T      = (1 − φ)·Σ_i time_i + φ·max_i time_i
//! util   = Σ_i work_i / (T · Σ_i capacity_i)
//! ```
//!
//! where φ is the design's phase-overlap factor. Alchemist corresponds to
//! the degenerate case of a *single* pool (every core runs every Meta-OP),
//! for which `util → pipeline efficiency` regardless of the mix — the
//! paper's central claim.

use crate::designs::BaselineDesign;
use alchemist_core::Step;
use metaop::OpClass;

/// Work per operator class, in multiplier-lane-cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkProfile {
    /// NTT butterfly work.
    pub ntt: f64,
    /// Base-conversion work.
    pub bconv: f64,
    /// Element-wise + `DecompPolyMult` MAC work.
    pub elementwise: f64,
}

impl WorkProfile {
    /// Extracts the profile from a simulator step sequence (lane-cycles at
    /// 8 lanes per Meta-OP core).
    pub fn from_steps(steps: &[Step]) -> Self {
        let mut p = WorkProfile::default();
        for s in steps {
            let per_op = if s.add_only { 1 } else { s.n as u64 + 2 };
            let lane_cycles = count_to_f64(s.meta_ops * per_op * 8);
            match s.class {
                OpClass::Ntt => p.ntt += lane_cycles,
                OpClass::Bconv => p.bconv += lane_cycles,
                OpClass::DecompPolyMult | OpClass::Elementwise => p.elementwise += lane_cycles,
                // Pure data movement consumes no functional-unit work; the
                // pool model accounts compute contention only.
                OpClass::Transfer => {}
            }
        }
        p
    }

    /// Total work.
    pub fn total(&self) -> f64 {
        self.ntt + self.bconv + self.elementwise
    }

    /// Work fractions in `[ntt, bconv, elementwise]` order.
    pub fn fractions(&self) -> [f64; 3] {
        let t = self.total().max(1.0);
        [self.ntt / t, self.bconv / t, self.elementwise / t]
    }
}

/// `x as f64`, through `i64` (one `cvtsi2sd`) below 2^63: baseline x86-64
/// has no unsigned conversion, and spells `as f64` on a `u64` as a
/// multi-instruction sequence. A count from 2^63 up converts out of line,
/// where LLVM cannot merge the two arms back into that sequence.
#[inline(always)]
fn count_to_f64(x: u64) -> f64 {
    #[cold]
    #[inline(never)]
    fn wide(x: u64) -> f64 {
        x as f64
    }
    match i64::try_from(x) {
        Ok(x) => x as f64,
        Err(_) => wide(x),
    }
}

/// Model output for a baseline design on one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineReport {
    /// Cycles at the design's clock.
    pub cycles: f64,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Overall functional-unit utilization.
    pub utilization: f64,
}

impl BaselineDesign {
    /// Runs the pool model on a work profile.
    ///
    /// # Panics
    ///
    /// Panics if the design cannot execute the scheme (zero-capacity pool
    /// receiving work), which callers should have screened with the
    /// `arithmetic`/`logic` flags.
    pub fn simulate(&self, work: &WorkProfile) -> BaselineReport {
        let works = [work.ntt, work.bconv, work.elementwise];
        let lanes = count_to_f64(self.lanes);
        let mut serial = 0.0f64;
        let mut longest = 0.0f64;
        for (i, &w) in works.iter().enumerate() {
            if w == 0.0 {
                continue;
            }
            let capacity = lanes * self.pool_split[i];
            assert!(
                capacity > 0.0,
                "{} has no pool for class {i} but the workload needs it",
                self.name
            );
            let t = w / capacity;
            serial += t;
            longest = longest.max(t);
        }
        let cycles = (1.0 - self.overlap) * serial + self.overlap * longest;
        let seconds = cycles / (self.freq_ghz * 1e9);
        let utilization = if cycles > 0.0 { work.total() / (cycles * lanes) } else { 0.0 };
        BaselineReport { cycles, seconds, utilization }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::designs::{CRATERLAKE, SHARP, STRIX};
    use alchemist_core::workloads::{
        bootstrapping, cmult, helr_iteration, tfhe_pbs, CkksSimParams, TfheSimParams,
    };
    use alchemist_core::{ArchConfig, Simulator};

    fn boot_profile() -> WorkProfile {
        WorkProfile::from_steps(&bootstrapping(&CkksSimParams::paper()))
    }

    #[test]
    fn profile_extraction_covers_all_classes() {
        let p = boot_profile();
        assert!(p.ntt > 0.0 && p.bconv > 0.0 && p.elementwise > 0.0);
        let f: f64 = p.fractions().iter().sum();
        assert!((f - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fig7b_sharp_utilization_band() {
        // Paper: SHARP overall utilization ≈ 0.55 (0.52) on boot (HELR).
        let boot = SHARP.simulate(&boot_profile());
        assert!(
            (0.45..0.65).contains(&boot.utilization),
            "SHARP boot utilization {}",
            boot.utilization
        );
        let helr =
            SHARP.simulate(&WorkProfile::from_steps(&helr_iteration(&CkksSimParams::paper())));
        assert!(
            (0.40..0.65).contains(&helr.utilization),
            "SHARP HELR utilization {}",
            helr.utilization
        );
    }

    #[test]
    fn fig7b_craterlake_utilization_band() {
        // Paper: CraterLake ≈ 0.42 on bootstrapping.
        let boot = CRATERLAKE.simulate(&boot_profile());
        assert!(
            (0.30..0.52).contains(&boot.utilization),
            "CraterLake boot utilization {}",
            boot.utilization
        );
    }

    #[test]
    fn fig6_sharp_is_about_2x_slower_than_alchemist() {
        let steps = bootstrapping(&CkksSimParams::paper());
        let ours = Simulator::new(ArchConfig::paper()).run(&steps).seconds();
        let sharp = SHARP.simulate(&WorkProfile::from_steps(&steps)).seconds;
        let ratio = sharp / ours;
        assert!((1.4..3.0).contains(&ratio), "SHARP/Alchemist boot ratio {ratio}");
    }

    #[test]
    fn fig6_baseline_ordering_on_bootstrapping() {
        use crate::designs::{ARK, BTS};
        let p = boot_profile();
        let bts = BTS.simulate(&p).seconds;
        let ark = ARK.simulate(&p).seconds;
        let clake = CRATERLAKE.simulate(&p).seconds;
        let sharp = SHARP.simulate(&p).seconds;
        // Paper Fig. 6a ordering: BTS slowest, then ARK, CraterLake, SHARP.
        assert!(bts > ark && ark > clake && clake > sharp, "{bts} {ark} {clake} {sharp}");
    }

    #[test]
    fn tfhe_designs_handle_pbs() {
        let steps = tfhe_pbs(&TfheSimParams::set_i(), 128);
        let profile = WorkProfile::from_steps(&steps);
        let ours = Simulator::new(ArchConfig::paper()).run(&steps).seconds();
        let strix = STRIX.simulate(&profile).seconds;
        let matcha = crate::designs::MATCHA.simulate(&profile).seconds;
        // Paper: ~7x average speedup over the TFHE ASICs.
        let avg = (strix / ours + matcha / ours) / 2.0;
        assert!((3.0..12.0).contains(&avg), "avg TFHE speedup {avg}");
        assert!(matcha > strix, "Matcha is the smaller, slower design");
    }

    #[test]
    fn cmult_mix_underutilizes_modular_designs() {
        // Fig. 1: no modular design sustains high utilization across mixes.
        let cm = WorkProfile::from_steps(&cmult(&CkksSimParams::paper()));
        for d in [SHARP, CRATERLAKE] {
            let r = d.simulate(&cm);
            assert!(r.utilization < 0.80, "{} cmult utilization {}", d.name, r.utilization);
        }
    }

    #[test]
    #[should_panic(expected = "no pool")]
    fn logic_only_design_rejects_bconv_work() {
        let w = WorkProfile { bconv: 1e6, ..Default::default() };
        let _ = STRIX.simulate(&w);
    }
}
