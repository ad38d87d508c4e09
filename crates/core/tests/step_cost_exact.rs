//! The simulator's step costs against a test-local copy of the arithmetic
//! they replaced — `f64::ceil` / `f64::round`, `as u64` / `as f64` on
//! counts, a search for the class slot — bit for bit: every statistic of a
//! `SimReport` for the paper programs under the paper configuration and
//! under every design-space sweep configuration, single steps at the edges
//! of the fast spellings' range and outside it, the traced run's virtual
//! time, `WorkProfile::from_steps` and `BaselineDesign::simulate`.

use alchemist_core::dse::{lane_sweep, partitioning_ablation, unit_sweep};
use alchemist_core::workloads::{self, CkksSimParams, TfheSimParams};
use alchemist_core::{ArchConfig, SimReport, Simulator, Step};
use baselines::designs::all_designs;
use baselines::modular::WorkProfile;
use baselines::BaselineDesign;
use metaop::OpClass;
use telemetry::Telemetry;

// ---- The reference: the arithmetic as it was spelled before. ----

fn ref_compute_cycles(s: &Step, arch: &ArchConfig) -> u64 {
    if s.meta_ops == 0 {
        return 0;
    }
    let per_op = if s.add_only { 1 } else { s.n as u64 + 2 };
    let waves = s.meta_ops.div_ceil(arch.total_cores() as u64);
    ((waves * per_op) as f64 / arch.pipeline_efficiency).ceil() as u64
}

fn ref_onchip_cycles(s: &Step, arch: &ArchConfig) -> u64 {
    (s.onchip_bytes as f64 / arch.onchip_bytes_per_cycle).ceil() as u64
}

fn ref_hbm_cycles(s: &Step, arch: &ArchConfig) -> u64 {
    (s.hbm_bytes as f64 / arch.hbm_bytes_per_cycle).ceil() as u64
}

/// Every statistic a report exposes; floating-point ones as bit patterns.
#[derive(Debug, PartialEq, Eq)]
struct Stats {
    cycles: u64,
    busy_cycles: u64,
    hbm_bytes: u64,
    onchip_bytes: u64,
    /// `(busy, attributed)` per class, in `OpClass::all()` order.
    per_class: [(u64, u64); 5],
    utilization: u64,
    class_utilization: [u64; 5],
    class_time_fractions: [u64; 5],
    seconds: u64,
}

fn ratio_bits(num: u64, den: u64) -> u64 {
    if den == 0 {
        0.0f64.to_bits()
    } else {
        (num as f64 / den as f64).to_bits()
    }
}

fn reference(arch: &ArchConfig, steps: &[Step]) -> Stats {
    let mut per_class = OpClass::all().map(|c| (c, 0u64, 0u64));
    let (mut step_cycles, mut hbm_cycles, mut busy, mut hbm, mut onchip) = (0u64, 0, 0, 0, 0);
    for step in steps {
        let c = ref_compute_cycles(step, arch);
        let wall = c.max(ref_onchip_cycles(step, arch));
        step_cycles += wall;
        hbm_cycles += ref_hbm_cycles(step, arch);
        let eff = (c as f64 * arch.pipeline_efficiency) as u64;
        busy += eff;
        hbm += step.hbm_bytes;
        onchip += step.onchip_bytes;
        let entry = per_class.iter_mut().find(|(cl, _, _)| *cl == step.class).expect("present");
        entry.1 += eff;
        entry.2 += wall;
    }
    let cycles = step_cycles.max(hbm_cycles);
    Stats {
        cycles,
        busy_cycles: busy,
        hbm_bytes: hbm,
        onchip_bytes: onchip,
        per_class: per_class.map(|(_, b, w)| (b, w)),
        utilization: ratio_bits(busy, cycles),
        class_utilization: per_class.map(|(_, b, w)| ratio_bits(b, w)),
        class_time_fractions: per_class
            .map(|(_, _, w)| (w as f64 / cycles.max(1) as f64).to_bits()),
        seconds: (cycles as f64 * arch.cycle_seconds()).to_bits(),
    }
}

fn stats_of(r: &SimReport) -> Stats {
    let classes = OpClass::all();
    Stats {
        cycles: r.cycles,
        busy_cycles: r.busy_cycles,
        hbm_bytes: r.hbm_bytes,
        onchip_bytes: r.onchip_bytes,
        per_class: classes.map(|c| {
            let s = r.class_stats(c);
            (s.busy_cycles, s.attributed_cycles)
        }),
        utilization: r.utilization().to_bits(),
        class_utilization: classes.map(|c| r.class_utilization(c).to_bits()),
        class_time_fractions: r.class_time_fractions().map(|(_, f)| f.to_bits()),
        seconds: r.seconds().to_bits(),
    }
}

fn ref_work_profile(steps: &[Step]) -> [u64; 3] {
    let (mut ntt, mut bconv, mut elementwise) = (0.0f64, 0.0f64, 0.0f64);
    for s in steps {
        let per_op = if s.add_only { 1 } else { s.n as u64 + 2 };
        let lane_cycles = (s.meta_ops * per_op * 8) as f64;
        match s.class {
            OpClass::Ntt => ntt += lane_cycles,
            OpClass::Bconv => bconv += lane_cycles,
            OpClass::DecompPolyMult | OpClass::Elementwise => elementwise += lane_cycles,
            OpClass::Transfer => {}
        }
    }
    [ntt.to_bits(), bconv.to_bits(), elementwise.to_bits()]
}

fn work_profile_bits(steps: &[Step]) -> [u64; 3] {
    let p = WorkProfile::from_steps(steps);
    [p.ntt.to_bits(), p.bconv.to_bits(), p.elementwise.to_bits()]
}

/// `BaselineDesign::simulate` as spelled before, as `(cycles, seconds,
/// utilization)` bit patterns.
fn ref_simulate(d: &BaselineDesign, work: &WorkProfile) -> [u64; 3] {
    let works = [work.ntt, work.bconv, work.elementwise];
    let mut serial = 0.0f64;
    let mut longest = 0.0f64;
    for (i, &w) in works.iter().enumerate() {
        if w == 0.0 {
            continue;
        }
        let t = w / (d.lanes as f64 * d.pool_split[i]);
        serial += t;
        longest = longest.max(t);
    }
    let cycles = (1.0 - d.overlap) * serial + d.overlap * longest;
    let seconds = cycles / (d.freq_ghz * 1e9);
    let utilization = if cycles > 0.0 { work.total() / (cycles * d.lanes as f64) } else { 0.0 };
    [cycles.to_bits(), seconds.to_bits(), utilization.to_bits()]
}

// ---- Inputs. ----

/// The fourteen `tests/model_golden.rs` programs.
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

/// The configurations `core::dse` sweeps: lane widths 4 / 8 / 16, unit
/// counts 64 / 128 / 256 with scratchpad bandwidth scaled alike, and the
/// paper configuration the partitioning ablation runs on.
fn sweep_configs() -> Vec<(String, ArchConfig)> {
    let mut out = vec![("paper".to_string(), ArchConfig::paper())];
    for lanes in [4, 8, 16] {
        out.push((format!("j={lanes}"), ArchConfig { lanes, ..ArchConfig::paper() }));
    }
    for units in [64usize, 128, 256] {
        let onchip_bytes_per_cycle = 67_584.0 * units as f64 / 128.0;
        out.push((
            format!("units={units}"),
            ArchConfig { units, onchip_bytes_per_cycle, ..ArchConfig::paper() },
        ));
    }
    out
}

/// `dse::lane_sweep`'s step rescaling for lane width `j`.
fn rescaled_for_lanes(steps: &[Step], j: usize) -> Vec<Step> {
    steps
        .iter()
        .cloned()
        .map(|mut s| {
            let factor = match s.class {
                OpClass::Ntt => (8.0 / j as f64).max(1.0),
                _ => 8.0 / j as f64,
            };
            s.meta_ops = ((s.meta_ops as f64) * factor).ceil() as u64;
            s
        })
        .collect()
}

/// `dse::partitioning_ablation`'s channel-based variant of `steps`.
fn channel_based(steps: &[Step], arch: &ArchConfig) -> Vec<Step> {
    let fabric_bpc = arch.onchip_bytes_per_cycle / 16.0;
    steps
        .iter()
        .cloned()
        .map(|s| {
            if matches!(s.class, OpClass::Bconv | OpClass::DecompPolyMult) {
                let extra =
                    (s.onchip_bytes as f64 * arch.onchip_bytes_per_cycle / fabric_bpc) as u64;
                s.with_onchip(extra)
            } else {
                s
            }
        })
        .collect()
}

fn assert_report_exact(arch: &ArchConfig, steps: &[Step], what: &str) {
    let sim = Simulator::new(*arch);
    assert_eq!(stats_of(&sim.run(steps)), reference(arch, steps), "{what}");
}

// ---- Tests. ----

#[test]
fn paper_programs_match_the_reference_under_every_sweep_config() {
    let programs = programs();
    for (config, arch) in sweep_configs() {
        for (name, steps) in &programs {
            assert_report_exact(&arch, steps, &format!("{name} on {config}"));
        }
    }
    // The step lists the sweeps themselves run.
    let boot = workloads::bootstrapping(&CkksSimParams::paper());
    for j in [4, 8, 16] {
        let arch = ArchConfig { lanes: j, ..ArchConfig::paper() };
        assert_report_exact(&arch, &rescaled_for_lanes(&boot, j), &format!("lane sweep j={j}"));
    }
    let paper = ArchConfig::paper();
    assert_report_exact(&paper, &channel_based(&boot, &paper), "channel-based partitioning");
}

#[test]
fn design_space_points_match_the_reference() {
    let boot = workloads::bootstrapping(&CkksSimParams::paper());
    let paper = ArchConfig::paper();
    let point = |arch: &ArchConfig, steps: &[Step]| {
        let r = reference(arch, steps);
        (r.seconds, r.utilization)
    };
    let mut expected = Vec::new();
    for j in [4, 8, 16] {
        let arch = ArchConfig { lanes: j, ..paper };
        expected.push(point(&arch, &rescaled_for_lanes(&boot, j)));
    }
    for units in [64usize, 128, 256] {
        let arch =
            ArchConfig { units, onchip_bytes_per_cycle: 67_584.0 * units as f64 / 128.0, ..paper };
        expected.push(point(&arch, &boot));
    }
    expected.push(point(&paper, &boot));
    expected.push(point(&paper, &channel_based(&boot, &paper)));
    let got: Vec<(u64, u64)> = [lane_sweep(), unit_sweep(), partitioning_ablation()]
        .concat()
        .iter()
        .map(|p| (p.seconds.to_bits(), p.utilization.to_bits()))
        .collect();
    assert_eq!(got, expected);
}

#[test]
fn traced_runs_match_the_untraced_report_and_the_reference_virtual_time() {
    let boot = workloads::bootstrapping(&CkksSimParams::paper());
    let transfer_bound = vec![
        Step::compute("ntt", OpClass::Ntt, 2048 * 100, 3),
        Step::transfer("dma", 8 << 20, 1 << 12),
    ];
    // 1 GHz is 1 ns a cycle; the other clocks make the rounding to whole
    // nanoseconds do work, and 2 GHz puts every odd cycle count on a tie.
    let mut ties = 0;
    for freq_ghz in [1.0, 0.7, 1.3, 2.0, 2.5] {
        let arch = ArchConfig { freq_ghz, ..ArchConfig::paper() };
        let ns_per_cycle = arch.cycle_seconds() * 1e9;
        let mut ns = |cycles: u64| {
            let t = cycles as f64 * ns_per_cycle;
            ties += usize::from(t.fract() == 0.5);
            t.round() as u64
        };
        for steps in [&boot, &transfer_bound] {
            let tel = Telemetry::enabled();
            let report = Simulator::new(arch).run_traced(steps, &tel);
            assert_eq!(stats_of(&report), reference(&arch, steps), "{freq_ghz} GHz");

            let mut expected = Vec::new();
            let mut step_cycles = 0;
            for s in steps.iter() {
                let wall = ref_compute_cycles(s, &arch).max(ref_onchip_cycles(s, &arch));
                expected.push((s.label.clone(), ns(step_cycles), ns(wall)));
                step_cycles += wall;
            }
            if report.cycles > step_cycles {
                let drain = ns(report.cycles - step_cycles);
                expected.push(("hbm.drain".to_string(), ns(step_cycles), drain));
            }
            expected.insert(0, ("sim.run".to_string(), 0, ns(report.cycles)));
            let got: Vec<(String, u64, u64)> = tel
                .snapshot()
                .spans()
                .iter()
                .map(|s| (s.name.clone(), s.start_ns, s.dur_ns))
                .collect();
            assert_eq!(got, expected, "{freq_ghz} GHz");
        }
    }
    assert!(ties > 0);
}

const TWO_POW_52: u64 = 1 << 52;
const TWO_POW_53: u64 = 1 << 53;
const TWO_POW_63: u64 = 1 << 63;

/// Counts around every boundary of the fast spellings: small integers,
/// 2^32, 2^52, 2^53 (where `f64` stops holding every integer) and 2^63
/// (where `i64` stops), and the top of `u64`.
fn edge_counts() -> Vec<u64> {
    let mut v: Vec<u64> = (0..=10).chain([999, 1000, 1001, 12_345, 1 << 32]).collect();
    for base in [TWO_POW_52, TWO_POW_53, TWO_POW_63] {
        v.extend([base - 3, base - 2, base - 1, base, base + 1, base + 2, base + 3]);
    }
    v.extend([u64::MAX - 1, u64::MAX]);
    v
}

/// Which regions of the quotient the edge cases reached.
#[derive(Default, Debug)]
struct Reached {
    integral: bool,
    ulp_above_integer: bool,
    ulp_below_integer: bool,
    near_2_52: bool,
    near_2_53: bool,
    at_least_2_63: bool,
    infinite: bool,
    nan: bool,
    negative: bool,
}

impl Reached {
    fn note(&mut self, q: f64) {
        let (lo, hi) = (q.floor(), q.ceil());
        self.integral |= q > 0.0 && q == lo && q < 2f64.powi(52);
        self.ulp_above_integer |= q > 0.0 && q != lo && lo.next_up() == q;
        self.ulp_below_integer |= q > 0.0 && q != hi && hi.next_down() == q;
        self.near_2_52 |= (2f64.powi(52) - 2.0..=2f64.powi(52) + 2.0).contains(&q);
        self.near_2_53 |= (2f64.powi(53) - 2.0..=2f64.powi(53) + 4.0).contains(&q);
        self.at_least_2_63 |= q.is_finite() && q >= 2f64.powi(63);
        self.infinite |= q.is_infinite();
        self.nan |= q.is_nan();
        self.negative |= q < 0.0;
    }

    fn all(&self) -> bool {
        self.integral
            && self.ulp_above_integer
            && self.ulp_below_integer
            && self.near_2_52
            && self.near_2_53
            && self.at_least_2_63
            && self.infinite
            && self.nan
            && self.negative
    }
}

#[test]
fn transfer_cycles_match_the_reference_at_the_edges() {
    // Bandwidths around 1 put quotients one ulp either side of an
    // integer; the rest reach 2^63 and beyond, infinity (a bandwidth the
    // simulator accepts, 1e-300), NaN and negative quotients (only through
    // `Step`'s own methods, which take any configuration).
    let one = 1.0f64;
    let bandwidths = [
        one,
        one.next_up(),
        one.next_down(),
        one.next_up().next_up(),
        one.next_down().next_down(),
        0.5,
        3.0,
        0.92,
        1024.0,
        67_584.0,
        1e-300,
        f64::INFINITY,
        f64::NAN,
        0.0,
        -1.0,
    ];
    let mut reached = Reached::default();
    for bytes in edge_counts() {
        for bw in bandwidths {
            let arch = ArchConfig {
                hbm_bytes_per_cycle: bw,
                onchip_bytes_per_cycle: bw,
                ..ArchConfig::paper()
            };
            let s = Step::transfer("t", bytes, bytes);
            reached.note(bytes as f64 / bw);
            let what = format!("{bytes} B at {bw} B/cycle");
            assert_eq!(s.onchip_cycles(&arch), ref_onchip_cycles(&s, &arch), "{what}");
            assert_eq!(s.hbm_cycles(&arch), ref_hbm_cycles(&s, &arch), "{what}");
            if arch.validate().is_ok() {
                assert_report_exact(&arch, std::slice::from_ref(&s), &what);
            }
        }
    }
    assert!(reached.all(), "{reached:?}");
}

#[test]
fn compute_cycles_match_the_reference_at_the_edges() {
    let one = 1.0f64;
    let efficiencies = [one, one.next_down(), 0.92, 0.5, 0.1, 1e-300, f64::MIN_POSITIVE];
    let mut reached = Reached::default();
    let mut zero_ops = false;
    let mut add_only = false;
    // 2048 cores, and one and three, so that the work reaches every edge.
    for (units, cores_per_unit) in [(128usize, 16usize), (1, 1), (3, 1)] {
        for meta_ops in edge_counts() {
            for (n, adds) in
                [(1, true), (0, false), (1, false), (3, false), (12, false), (1 << 20, false)]
            {
                for eff in efficiencies {
                    let arch = ArchConfig {
                        units,
                        cores_per_unit,
                        pipeline_efficiency: eff,
                        ..ArchConfig::paper()
                    };
                    let cores = arch.total_cores() as u64;
                    let per_op = if adds { 1 } else { u64::from(n) + 2 };
                    // A product past `u64` overflows in both spellings.
                    let Some(work) = meta_ops.div_ceil(cores).checked_mul(per_op) else {
                        continue;
                    };
                    let mut s = if adds {
                        Step::adds("a", meta_ops)
                    } else {
                        Step::compute("c", OpClass::Ntt, meta_ops, n)
                    };
                    s.onchip_bytes = meta_ops / 3;
                    zero_ops |= meta_ops == 0;
                    add_only |= adds;
                    reached.note(work as f64 / eff);
                    let what =
                        format!("{meta_ops} ops, n = {n}, adds {adds}, {cores} cores, eff {eff}");
                    assert_eq!(s.compute_cycles(&arch), ref_compute_cycles(&s, &arch), "{what}");
                    assert_report_exact(&arch, std::slice::from_ref(&s), &what);
                }
            }
        }
    }
    // Efficiencies are in (0, 1], so work / efficiency is never NaN,
    // negative or just below an integer.
    assert!(
        reached.integral
            && reached.ulp_above_integer
            && reached.near_2_52
            && reached.near_2_53
            && reached.at_least_2_63
            && reached.infinite
            && zero_ops
            && add_only,
        "{reached:?}"
    );
}

#[test]
fn work_profiles_and_baseline_designs_match_the_reference() {
    for (name, steps) in programs() {
        assert_eq!(work_profile_bits(&steps), ref_work_profile(&steps), "{name}");
        let work = WorkProfile::from_steps(&steps);
        let works = [work.ntt, work.bconv, work.elementwise];
        for d in all_designs() {
            // A design with no pool for work the program has panics in
            // both spellings.
            if works.iter().zip(d.pool_split).any(|(&w, split)| w > 0.0 && split == 0.0) {
                continue;
            }
            let r = d.simulate(&work);
            let got = [r.cycles.to_bits(), r.seconds.to_bits(), r.utilization.to_bits()];
            assert_eq!(got, ref_simulate(&d, &work), "{} on {name}", d.name);
        }
    }
    let boot = workloads::bootstrapping(&CkksSimParams::paper());
    for j in [4, 8, 16] {
        let steps = rescaled_for_lanes(&boot, j);
        assert_eq!(work_profile_bits(&steps), ref_work_profile(&steps), "j={j}");
    }
    // Lane-cycles at and past 2^63, where the conversion takes its cold
    // path, and a transfer step, which adds to no pool.
    let edges: Vec<Step> = [TWO_POW_63 / 8 - 1, TWO_POW_63 / 8, TWO_POW_63 / 8 + 1, u64::MAX / 8]
        .into_iter()
        .map(|ops| Step::adds("a", ops))
        .chain([Step::transfer("t", 1, 1), Step::compute("c", OpClass::Bconv, 3, 12)])
        .collect();
    for s in &edges {
        let one = std::slice::from_ref(s);
        assert_eq!(work_profile_bits(one), ref_work_profile(one), "{} ops", s.meta_ops);
    }
}
