//! The simulator side of the benchmark: the paper programs the
//! `sim_suite` workload runs, and the comparison of every simulated
//! figure against the number the paper printed (`model_error_pct`).

use alchemist_core::workloads::{self, CkksSimParams, TfheSimParams};
use alchemist_core::{ArchConfig, ScheduleManifest, Simulator, Step};
use baselines::designs::{ARK, BTS, CRATERLAKE, SHARP};
use baselines::modular::WorkProfile;
use baselines::{published, BaselineDesign};
use metaop::counts::{self, CkksCountParams, TfheCountParams};
use metaop::OpClass;

/// One paper program: its name in `core.sim.cycles.<name>`, its steps and
/// the manifest taken when the steps were built.
pub struct Program {
    pub name: &'static str,
    pub steps: Vec<Step>,
    pub manifest: ScheduleManifest,
}

/// The Fig. 6a comparison designs, in `published::FIG6A_SPEEDUPS` order.
pub const DESIGNS: [(&str, BaselineDesign); 4] =
    [("BTS", BTS), ("ARK", ARK), ("CraterLake", CRATERLAKE), ("SHARP", SHARP)];

/// Batch of the set-I PBS program (Fig. 6b uses 128).
const PBS_BATCH: u64 = 128;

/// The eleven paper programs of `core::workloads`, at the paper's
/// parameters.
pub fn programs() -> Vec<Program> {
    let p = CkksSimParams::paper();
    let tp = TfheSimParams::set_i();
    let list: Vec<(&'static str, Vec<Step>)> = vec![
        ("pmult", workloads::pmult(&p)),
        ("hadd", workloads::hadd(&p)),
        ("cmult", workloads::cmult(&p)),
        ("keyswitch", workloads::keyswitch(&p)),
        ("rotation", workloads::rotation(&p)),
        ("bootstrapping", workloads::bootstrapping(&p)),
        ("helr_iteration", workloads::helr_iteration(&p)),
        ("lola_mnist_enc", workloads::lola_mnist(true).1),
        ("lola_mnist_plain", workloads::lola_mnist(false).1),
        ("tfhe_pbs_i", workloads::tfhe_pbs(&tp, PBS_BATCH)),
        ("cross_scheme", workloads::cross_scheme(&p.at_level(24), &tp, 2)),
    ];
    list.into_iter()
        .map(|(name, steps)| Program { name, manifest: ScheduleManifest::of(&steps), steps })
        .collect()
}

/// The Fig. 7a multiplication counts (`metaop::counts`), in
/// `published::FIG7A_CHANGES` order: set-I PBS, Cmult at L = 24, hoisted
/// bootstrapping at L = 44.
pub fn fig7a_counts() -> [(&'static str, counts::OperatorMults); 3] {
    let p = CkksCountParams::paper_default();
    [
        ("pbs_i", counts::pbs(&TfheCountParams::set_i())),
        ("cmult", counts::cmult(&p.at_level(24))),
        ("bootstrap_hoisted", counts::bootstrapping(&p, true)),
    ]
}

/// One line of the model-vs-paper comparison.
pub struct ModelRow {
    pub label: String,
    pub simulated: f64,
    pub paper: f64,
}

impl ModelRow {
    /// `|simulated ÷ paper − 1|`.
    pub fn error(&self) -> f64 {
        (self.simulated / self.paper - 1.0).abs()
    }
}

fn steps_of<'a>(programs: &'a [Program], name: &str) -> &'a [Step] {
    &programs.iter().find(|p| p.name == name).expect("program in the suite").steps
}

/// Average of the bootstrapping and HELR speed-ups of Alchemist over
/// each `DESIGNS` entry (the Fig. 6a bar).
pub fn design_speedups(sim: &Simulator, programs: &[Program]) -> [f64; 4] {
    let boot = steps_of(programs, "bootstrapping");
    let helr = steps_of(programs, "helr_iteration");
    let (t_boot, t_helr) = (sim.run(boot).seconds(), sim.run(helr).seconds());
    let (boot_profile, helr_profile) =
        (WorkProfile::from_steps(boot), WorkProfile::from_steps(helr));
    DESIGNS.map(|(_, d)| {
        let b = d.simulate(&boot_profile).seconds;
        let h = d.simulate(&helr_profile).seconds;
        (b / t_boot + h / t_helr) / 2.0
    })
}

/// Every simulated figure that has a printed counterpart in
/// `baselines::published`: Table 7 (5 rows), Fig. 6a speed-ups (4),
/// Fig. 7a multiplication changes (3), Fig. 7b utilizations (5) and the
/// LoLa-MNIST latency (1).
pub fn model_rows(sim: &Simulator, programs: &[Program]) -> Vec<ModelRow> {
    let mut rows = Vec::new();
    let table7 = ["pmult", "hadd", "keyswitch", "cmult", "rotation"];
    for (reference, name) in published::TABLE7.iter().zip(table7) {
        rows.push(ModelRow {
            label: format!("Table 7 {} ops/s", reference.op),
            simulated: 1.0 / sim.run(steps_of(programs, name)).seconds(),
            paper: reference.alchemist,
        });
    }
    for ((name, paper), simulated) in
        published::FIG6A_SPEEDUPS.iter().zip(design_speedups(sim, programs))
    {
        rows.push(ModelRow {
            label: format!("Fig. 6a speed-up vs {name}"),
            simulated,
            paper: *paper,
        });
    }
    for ((label, paper), (_, mults)) in published::FIG7A_CHANGES.iter().zip(fig7a_counts()) {
        rows.push(ModelRow {
            label: format!("Fig. 7a mult change % {label}"),
            simulated: mults.change_pct(),
            paper: *paper,
        });
    }
    let boot = steps_of(programs, "bootstrapping");
    let report = sim.run(boot);
    let boot_profile = WorkProfile::from_steps(boot);
    let fig7b = [
        report.class_utilization(OpClass::Ntt),
        report.class_utilization(OpClass::Bconv),
        report.class_utilization(OpClass::DecompPolyMult),
        SHARP.simulate(&boot_profile).utilization,
        CRATERLAKE.simulate(&boot_profile).utilization,
    ];
    for ((label, paper), simulated) in published::FIG7B_UTILIZATION.iter().zip(fig7b) {
        rows.push(ModelRow {
            label: format!("Fig. 7b utilization {label}"),
            simulated,
            paper: *paper,
        });
    }
    rows.push(ModelRow {
        label: "LoLa-MNIST encrypted weights, s".to_string(),
        simulated: sim.run(steps_of(programs, "lola_mnist_enc")).seconds(),
        paper: published::LOLA_MNIST_ENCRYPTED_S,
    });
    rows
}

/// Mean `|simulated ÷ paper − 1|` over [`model_rows`], in percent.
pub fn model_error_pct(rows: &[ModelRow]) -> f64 {
    100.0 * rows.iter().map(ModelRow::error).sum::<f64>() / rows.len() as f64
}

/// The paper configuration's simulator.
pub fn simulator() -> Simulator {
    Simulator::new(ArchConfig::paper())
}
