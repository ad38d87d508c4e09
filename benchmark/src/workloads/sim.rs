//! `sim_suite`: the cycle simulator over the paper's programs.
//!
//! A pass runs the eleven programs of `core::workloads`, the four
//! Fig. 6a baseline designs and the Fig. 7a `metaop::counts`; one unit is
//! `PASSES_PER_UNIT` passes, about a millisecond, because a percentile of
//! 32 µs samples moves with every timer tick (the p95 of single passes
//! repeated within 17 % between runs, their median within 0.1 %).
//! Simulated statistics repeat exactly, so this workload gives later
//! refactors a bit-exact "nothing moved" gate, and `model_error_pct`
//! gives a model change an accuracy number against the paper's figures.

use std::time::Duration;

use alchemist_core::Simulator;

use super::{run_units, Slice, Workload};
use crate::model::{self, Program};
use crate::spans::Tracer;

/// Suite passes per timed unit.
pub const PASSES_PER_UNIT: u64 = 32;

pub struct SimSuite {
    pub sim: Simulator,
    pub programs: Vec<Program>,
    /// Cycles of each program on the first pass; every later pass must
    /// reproduce them.
    pub cycles: Vec<u64>,
    steps_per_pass: u64,
}

impl SimSuite {
    pub fn setup() -> Self {
        let programs = model::programs();
        let steps_per_pass = programs.iter().map(|p| p.steps.len() as u64).sum();
        SimSuite { sim: model::simulator(), programs, cycles: Vec::new(), steps_per_pass }
    }

    /// One suite pass; `true` when every program's cycles match the
    /// first pass.
    fn pass(&mut self, unit: u64, tr: &mut Tracer) -> bool {
        let root = tr.open("sim_suite.pass", unit);
        let cycles: Vec<u64> = self
            .programs
            .iter()
            .map(|p| tr.scope("core.sim.run", unit, || self.sim.run(&p.steps)).cycles)
            .collect();
        let speedups = tr.scope("baselines.simulate", unit, || {
            model::design_speedups(&self.sim, &self.programs)
        });
        let counts = tr.scope("metaop.counts", unit, model::fig7a_counts);
        tr.close(root);
        std::hint::black_box((speedups, counts));
        if self.cycles.is_empty() {
            self.cycles = cycles;
            return true;
        }
        cycles == self.cycles
    }

    pub fn steps_per_pass(&self) -> u64 {
        self.steps_per_pass
    }
}

impl Workload for SimSuite {
    const SLICES: usize = 10;

    fn warm_up(&mut self) {
        self.pass(0, &mut Tracer::new(false));
    }

    fn slice(&mut self, budget: Duration, tr: &mut Tracer) -> Slice {
        // Re-check every program against the manifest taken at set-up:
        // a step list that changed since would fail here, not be timed.
        let intact =
            self.programs.iter().all(|p| self.sim.run_checked(&p.steps, &p.manifest).is_ok());
        let mut slice = run_units(budget, |unit| (0..PASSES_PER_UNIT).all(|_| self.pass(unit, tr)));
        if !intact {
            slice.failed = slice.attempted;
        }
        // Throughput of this workload is simulated steps per host second.
        slice.throughput_per_s *= (self.steps_per_pass * PASSES_PER_UNIT) as f64;
        slice
    }
}
