//! Golden values of the cost model: the operator graphs `core::workloads`
//! builds and the multiplication counts `metaop::counts` derives from the
//! same graphs, pinned to the digit. A refactor of either module leaves
//! every number here alone; a deliberate re-modelling edits the number in
//! the same change, next to the `EXPERIMENTS.md` row it moves.

use alchemist::metaop::counts::{self, CkksCountParams, TfheCountParams};
use alchemist::sim::workloads::{self, CkksSimParams, TfheSimParams};
use alchemist::sim::{ArchConfig, ScheduleManifest, Simulator, Step};

/// The eleven `sim_suite` programs at the paper's parameters, then the
/// pre-hoisting graphs the baseline designs run.
fn programs() -> Vec<(&'static str, Vec<Step>)> {
    let p = CkksSimParams::paper();
    let tp = TfheSimParams::set_i();
    vec![
        ("pmult", workloads::pmult(&p)),
        ("hadd", workloads::hadd(&p)),
        ("cmult", workloads::cmult(&p)),
        ("keyswitch", workloads::keyswitch(&p)),
        ("rotation", workloads::rotation(&p)),
        ("bootstrapping", workloads::bootstrapping(&p)),
        ("helr_iteration", workloads::helr_iteration(&p)),
        ("lola_mnist_enc", workloads::lola_mnist(true).1),
        ("lola_mnist_plain", workloads::lola_mnist(false).1),
        ("tfhe_pbs_i", workloads::tfhe_pbs(&tp, 128)),
        ("cross_scheme", workloads::cross_scheme(&p.at_level(24), &tp, 2)),
        ("bootstrapping_unhoisted", workloads::bootstrapping_unhoisted(&p)),
        ("lola_mnist_unhoisted_enc", workloads::lola_mnist_unhoisted(true).1),
        ("lola_mnist_unhoisted_plain", workloads::lola_mnist_unhoisted(false).1),
    ]
}

/// `(cycles, steps, manifest digest)` per program. The digest folds every
/// field of every step in order, labels included.
const GOLDEN: [(&str, u64, usize, u64); 14] = [
    ("pmult", 1_179, 1, 16160793976973945580),
    ("hadd", 1_179, 1, 16355511817804981522),
    ("cmult", 131_328, 21, 15981539416493220323),
    ("keyswitch", 131_328, 14, 10892695872665635794),
    ("rotation", 131_328, 15, 5898120424765032990),
    ("bootstrapping", 2_695_766, 398, 16763876972775517393),
    ("helr_iteration", 724_475, 76, 2084340754822005827),
    ("lola_mnist_enc", 82_368, 194, 6041901899619188236),
    ("lola_mnist_plain", 82_368, 75, 3152349192283174719),
    ("tfhe_pbs_i", 1_899_807, 7, 1167085979268813941),
    ("cross_scheme", 567_370, 56, 373943181584034827),
    ("bootstrapping_unhoisted", 16_180_218, 4238, 13521028365641958675),
    ("lola_mnist_unhoisted_enc", 70_269, 526, 11719468072858291111),
    ("lola_mnist_unhoisted_plain", 54_302, 407, 17147648421760669994),
];

#[test]
fn paper_programs_keep_their_cycles_steps_and_digests() {
    let sim = Simulator::new(ArchConfig::paper());
    let got: Vec<(&str, u64, usize, u64)> = programs()
        .iter()
        .map(|(name, steps)| {
            (*name, sim.run(steps).cycles, steps.len(), ScheduleManifest::of(steps).digest)
        })
        .collect();
    assert_eq!(got, GOLDEN);
    // `core.sim.steps_total` of the benchmark ladder: the suite's eleven.
    assert_eq!(got[..11].iter().map(|g| g.2).sum::<usize>(), 858);
}

#[test]
fn fig7a_programs_keep_their_multiplication_counts() {
    let p = CkksCountParams::paper_default();
    let hoisted = counts::bootstrapping(&p, true);
    assert_eq!(hoisted.total_meta(), 23_831_511_040);
    assert_eq!(counts::cmult(&p.at_level(24)).total_meta(), 508_952_576);
    assert_eq!(counts::pbs(&TfheCountParams::set_i()).total_meta(), 105_218_208);
    // The eager-reduction side of the headline percentage and the
    // un-hoisted arm of `bootstrapping`.
    assert_eq!(hoisted.total_original(), 36_578_525_184);
    assert_eq!(counts::bootstrapping(&p, false).total_meta(), 200_170_799_104);
}
