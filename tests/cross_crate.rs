//! Cross-crate integration: the Meta-OP layer, the scheme libraries, the
//! simulator and the baseline models must compose — the same operator
//! graphs flow from the functional code through the lowering into the
//! cycle model.

use alchemist::baselines::modular::WorkProfile;
use alchemist::math::{generate_ntt_primes, Modulus, NttTable};
use alchemist::metaop::ntt::NttLowering;
use alchemist::metaop::{MetaOpTrace, OpClass};
use alchemist::sim::{workloads, ArchConfig, Simulator};

#[test]
fn metaop_lowering_exact_at_production_sizes() {
    // N = 2^12 (a realistic per-unit sub-NTT size under 4-step at 2^16).
    let n = 1 << 12;
    let q = Modulus::new(generate_ntt_primes(36, n, 1).unwrap()[0]).unwrap();
    let table = NttTable::new(q, n).unwrap();
    let lowering = NttLowering::new(&table);
    let mut a: Vec<u64> =
        (0..n as u64).map(|i| (i.wrapping_mul(0x9e3779b97f4a7c15)) % q.value()).collect();
    let mut reference = a.clone();
    let mut trace = MetaOpTrace::new();
    lowering.forward(&mut a, &mut trace);
    table.forward(&mut reference);
    assert_eq!(a, reference);
    // log2(4096) = 12 → 4 radix-8 blocks, each N/8 Meta-OPs of n = 3.
    assert_eq!(trace.total_ops(), 4 * (n as u64 / 8));
    assert!(trace.entries().iter().all(|(op, _)| op.n() == 3));
}

#[test]
fn trace_cost_model_matches_simulator_step_model() {
    // A trace executed on the simulator must cost exactly what the
    // Meta-OP cost model predicts when spread over all cores.
    let arch = ArchConfig::paper();
    let sim = Simulator::new(arch);
    let cores = arch.total_cores() as u64;
    let ops = cores * 10;
    let step = alchemist::sim::Step::compute("x", OpClass::Ntt, ops, 3);
    let report = sim.run(std::slice::from_ref(&step));
    let expected = ((10 * 5) as f64 / arch.pipeline_efficiency).ceil() as u64;
    assert_eq!(report.cycles, expected);
}

#[test]
fn workload_profiles_match_count_fractions() {
    // The simulator workload's operator mix must agree with the
    // independent multiply-count model (same graph, two accountings).
    let sp = workloads::CkksSimParams::paper().at_level(24);
    let cp = alchemist::metaop::counts::CkksCountParams::paper_default().at_level(24);
    let profile = WorkProfile::from_steps(&workloads::cmult(&sp));
    let counts = alchemist::metaop::counts::cmult(&cp);
    let sim_fracs = profile.fractions();
    // The simulator executes the *lazy* (Meta-OP) formulation, so compare
    // against the meta multiply counts, not the eager originals.
    let total_meta = counts.total_meta() as f64;
    let ntt_meta = counts.ntt.meta as f64 / total_meta;
    let bconv_meta = counts.bconv.meta as f64 / total_meta;
    assert!(
        (sim_fracs[0] - ntt_meta).abs() < 0.12,
        "NTT fraction: sim {} vs meta counts {ntt_meta}",
        sim_fracs[0],
    );
    assert!(
        (sim_fracs[1] - bconv_meta).abs() < 0.12,
        "Bconv fraction: sim {} vs meta counts {bconv_meta}",
        sim_fracs[1],
    );
}

#[test]
fn facade_reexports_are_usable() {
    // Spot-check that every subsystem is reachable through the facade.
    let _ = alchemist::math::is_prime(65537);
    let _ = alchemist::metaop::MetaOp::new(OpClass::Bconv, 8, 4);
    let _ = alchemist::sim::ArchConfig::paper();
    let _ = alchemist::baselines::designs::SHARP;
    let _ = alchemist::ckks::CkksParams::toy().unwrap();
    let _ = alchemist::tfhe::TfheParams::toy();
}

#[test]
fn slot_layout_locality_at_paper_shape() {
    // The paper's exact configuration: N = 16384 as 128 x 128 over 128
    // units — each unit on its own slots outside the transpose register
    // file — word for word the flat transform's, at a 36-bit prime and at
    // the largest 51-bit one (the lanes' WIDE instance).
    use alchemist::math::FourStepNtt;
    use alchemist::sim::DistributedFourStepNtt;
    for bits in [36, 51] {
        let q = Modulus::new(generate_ntt_primes(bits, 16384, 1).unwrap()[0]).unwrap();
        let ntt = FourStepNtt::new(q, 128, 128).unwrap();
        let dist = DistributedFourStepNtt::new(&ntt, 128).unwrap();
        let flat = NttTable::new(q, 16384).unwrap();
        let original: Vec<u64> =
            (0..16384u64).map(|i| i.wrapping_mul(0x9e3779b97f4a7c15) % q.value()).collect();
        let (mut data, mut four, mut reference) = (original.clone(), original.clone(), original);
        let stats = dist.forward(&mut data);
        ntt.forward(&mut four);
        flat.forward(&mut reference);
        assert_eq!(data, reference, "{bits}-bit q");
        assert_eq!(four, reference, "{bits}-bit q");
        assert_eq!(stats.transpose_words, 2 * 16384);
        ntt.inverse(&mut four);
        flat.inverse(&mut reference);
        assert_eq!(four, reference, "{bits}-bit q");
    }
}

#[test]
fn per_prime_digit_keyswitch_costs_more_cycles_than_dnum_4() {
    // Per-prime digits are the dnum = L+1 point of the hybrid key-switch
    // family the simulator compiles.
    let per_prime = workloads::CkksSimParams { n: 1 << 16, l_max: 44, level: 44, dnum: 45 };
    let hybrid = workloads::CkksSimParams::paper();
    let sim = Simulator::new(ArchConfig::paper());
    let a = sim.run(&workloads::keyswitch(&per_prime));
    let b = sim.run(&workloads::keyswitch(&hybrid));
    // Per-prime digits trade much larger Bconv/key traffic for exactness;
    // dnum = 4 must be cheaper (the design-space point SHARP/the paper use).
    assert!(a.cycles > b.cycles, "per-prime {} vs hybrid {}", a.cycles, b.cycles);
}

#[test]
fn simulator_time_scales_with_level() {
    let sim = Simulator::new(ArchConfig::paper());
    let p = workloads::CkksSimParams::paper();
    let hi = sim.run(&workloads::cmult(&p.at_level(44))).cycles;
    let lo = sim.run(&workloads::cmult(&p.at_level(10))).cycles;
    assert!(hi > lo, "higher level must cost more: {hi} vs {lo}");
}

#[test]
fn all_baselines_slower_than_alchemist_on_their_scheme() {
    let sim = Simulator::new(ArchConfig::paper());
    let p = workloads::CkksSimParams::paper();
    let boot = workloads::bootstrapping(&p);
    let ours = sim.run(&boot).seconds();
    let profile = WorkProfile::from_steps(&boot);
    for d in alchemist::baselines::all_designs() {
        if !d.arithmetic {
            continue;
        }
        let t = d.simulate(&profile).seconds;
        assert!(t > ours, "{} must be slower on bootstrapping: {t} vs {ours}", d.name);
    }
    let pbs = workloads::tfhe_pbs(&workloads::TfheSimParams::set_i(), 128);
    let ours_pbs = sim.run(&pbs).seconds();
    let pbs_profile = WorkProfile::from_steps(&pbs);
    for d in alchemist::baselines::all_designs() {
        if !d.logic {
            continue;
        }
        let t = d.simulate(&pbs_profile).seconds;
        assert!(t > ours_pbs, "{} must be slower on PBS", d.name);
    }
}

/// Every `.rs` file below `dir`, recursively.
fn rust_sources(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap().map(Result::unwrap) {
        let path = entry.path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn the_workspace_has_one_build_configuration() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in std::fs::read_dir(root.join("crates")).unwrap().map(Result::unwrap) {
        manifests.push(entry.path().join("Cargo.toml"));
    }
    for m in &manifests {
        let text = std::fs::read_to_string(m).unwrap();
        assert!(
            !text.lines().any(|l| l.trim() == "[features]"),
            "{} declares a [features] table",
            m.display()
        );
    }
    // Split so this file does not contain the needles itself: no source is
    // conditional on a cargo feature, and one file — the IFMA backend —
    // names the CPU: it alone detects the host's vector unit and holds the
    // kernels that use it.
    let feature = concat!("feature", " = \"");
    let arch = [
        concat!("target", "_arch"),
        concat!("target", "_feature"),
        concat!("core", "::arch"),
        concat!("std", "::arch"),
    ];
    let ifma = root.join("crates/fhe-math/src/simd/ifma.rs");
    let mut sources = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_sources(&root.join(dir), &mut sources);
    }
    assert!(sources.len() > 100, "the walk must see the workspace, saw {}", sources.len());
    assert!(sources.contains(&ifma), "the IFMA backend moved: update this test");
    for s in &sources {
        let text = std::fs::read_to_string(s).unwrap();
        assert!(!text.contains(feature), "{} contains `{feature}`", s.display());
        if *s == ifma {
            assert!(text.contains(arch[1]) && text.contains(arch[3]), "the IFMA backend moved");
            continue;
        }
        for needle in arch {
            assert!(!text.contains(needle), "{} contains `{needle}`", s.display());
        }
    }
    // `fhe-math` denies unsafe code but for that one module, and every
    // `unsafe` block there states why it is sound.
    let lib = std::fs::read_to_string(root.join("crates/fhe-math/src/lib.rs")).unwrap();
    assert!(lib.contains("#![deny(unsafe_code)]"));
    let mut allowed = Vec::new();
    rust_sources(&root.join("crates/fhe-math/src"), &mut allowed);
    allowed.retain(|s| std::fs::read_to_string(s).unwrap().contains("allow(unsafe_code)"));
    assert_eq!(allowed, [root.join("crates/fhe-math/src/simd.rs")]);
    let simd = std::fs::read_to_string(&allowed[0]).unwrap();
    assert_eq!(simd.matches("allow(unsafe_code)").count(), 1);
    assert!(simd.contains("#[allow(unsafe_code)]\nmod ifma;"));
    let kernels = std::fs::read_to_string(&ifma).unwrap();
    let lines: Vec<&str> = kernels.lines().collect();
    let blocks: Vec<usize> = (0..lines.len()).filter(|&i| lines[i].contains("unsafe {")).collect();
    assert!(!blocks.is_empty());
    for i in blocks {
        let above = &lines[i.saturating_sub(3)..i];
        assert!(
            lines[i].contains("// SAFETY:") || above.iter().any(|l| l.contains("// SAFETY:")),
            "ifma.rs:{} has an `unsafe` block without a `// SAFETY:` line",
            i + 1
        );
    }
    // The probes the frozen benchmark package reports as host facts. No
    // kernel fans out to threads.
    assert!(!alchemist::math::par::parallelism_compiled());
    assert!(alchemist::math::strict_checks_enabled());
    assert!(alchemist::telemetry::alloc::tracking_compiled());
    assert!(alchemist::math::checksum_enabled());
    // The backend names the IFMA lanes exactly when the host has them, as
    // the kernel reports its CPU flags.
    let backend = alchemist::math::simd::active_backend().name();
    match std::fs::read_to_string("/proc/cpuinfo") {
        Ok(info) => {
            let flags = info.lines().find(|l| l.starts_with("flags")).unwrap_or_default();
            let has = |f: &str| flags.split_whitespace().any(|w| w == f);
            let lanes = has("avx512f") && has("avx512ifma");
            assert_eq!(backend, if lanes { "avx512ifma" } else { "scalar" }, "{flags}");
        }
        Err(_) => {
            println!("no /proc/cpuinfo: the backend name ({backend}) is not checked");
            assert!(["scalar", "avx512ifma"].contains(&backend));
        }
    }
}
