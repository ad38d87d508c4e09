//! End-to-end acceptance tests for `bench_kernels --compare`: the gate
//! must pass a self-comparison, fail an artificially injected regression
//! with a nonzero exit, and refuse to compare disjoint sweeps.

use std::path::{Path, PathBuf};
use std::process::Command;

use telemetry::json::{self, Json};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bench_kernels"))
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("alchemist_regression_gate_{name}_{}", std::process::id()))
}

/// One `--smoke` measurement run writing its JSON to `out`.
fn smoke_run(out: &Path, extra: &[&str]) -> std::process::Output {
    bin()
        .args(["--smoke", "--out", out.to_str().unwrap()])
        .args(extra)
        .output()
        .expect("bench_kernels runs")
}

#[test]
fn self_compare_passes_and_injected_regression_fails() {
    let out = tmp("self.json");
    // `--out` is written before `--compare` reads it, so comparing a run
    // against itself exercises the full path with ratio exactly 1.0.
    let ok = smoke_run(&out, &["--compare", out.to_str().unwrap()]);
    assert!(
        ok.status.success(),
        "self-compare must exit 0\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&ok.stdout),
        String::from_utf8_lossy(&ok.stderr)
    );
    let stdout = String::from_utf8_lossy(&ok.stdout);
    assert!(stdout.contains("Regression gate"), "gate table printed: {stdout}");
    assert!(!stdout.contains("REGRESSED"), "no regressions on self-compare: {stdout}");

    // Schema v2 envelope on the written baseline.
    let doc = json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    assert_eq!(doc.get("schema_version").and_then(Json::as_f64), Some(2.0));
    assert!(doc.get("git_commit").and_then(Json::as_str).is_some());
    let host = doc.get("host").expect("host block");
    assert!(host.get("threads").and_then(Json::as_f64).is_some());
    assert!(host.get("reps").and_then(Json::as_f64).is_some());

    // Doctor the baseline so every kernel appears to have been 10x
    // faster: the fresh re-run must regress far beyond any plausible
    // machine noise and the gate must exit nonzero.
    let doctored = tmp("doctored.json");
    std::fs::write(&doctored, scale_times(&doc, 0.1).to_string()).unwrap();
    let fresh2 = tmp("fresh2.json");
    let bad = smoke_run(&fresh2, &["--compare", doctored.to_str().unwrap(), "--tolerance", "0.15"]);
    assert_eq!(
        bad.status.code(),
        Some(1),
        "injected 10x regression must exit 1\nstdout: {}",
        String::from_utf8_lossy(&bad.stdout)
    );
    assert!(String::from_utf8_lossy(&bad.stdout).contains("REGRESSED"));

    for p in [&out, &doctored, &fresh2] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn injected_allocation_regression_fails_with_identical_times() {
    let out = tmp("alloc_self.json");
    let first = smoke_run(&out, &["--alloc-profile", "--compare", out.to_str().unwrap()]);
    assert!(
        first.status.success(),
        "alloc-profile self-compare must exit 0\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&first.stdout),
        String::from_utf8_lossy(&first.stderr)
    );
    let stdout = String::from_utf8_lossy(&first.stdout);
    assert!(stdout.contains("Allocation profile"), "alloc table printed: {stdout}");

    // Every kernel row of the written baseline carries a complete stanza.
    let doc = json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    let kernels = doc.get("kernels").and_then(Json::as_arr).unwrap();
    assert!(!kernels.is_empty());
    for k in kernels {
        let a = k.get("alloc").expect("alloc stanza on every kernel row");
        for field in ["allocs", "bytes", "peak_bytes"] {
            assert!(a.get(field).and_then(Json::as_f64).is_some(), "numeric {field}");
        }
    }

    // Doctor the baseline so every kernel appears to have allocated 10x
    // less: wall times are untouched, so only the allocation gate can
    // fire — and it must, well past the tolerance + slack.
    let doctored = tmp("alloc_doctored.json");
    std::fs::write(&doctored, scale_allocs(&doc, 0.1).to_string()).unwrap();
    let fresh = tmp("alloc_fresh.json");
    let bad = smoke_run(
        &fresh,
        &["--alloc-profile", "--compare", doctored.to_str().unwrap(), "--tolerance", "0.5"],
    );
    assert_eq!(
        bad.status.code(),
        Some(1),
        "injected 10x allocation regression must exit 1\nstdout: {}",
        String::from_utf8_lossy(&bad.stdout)
    );
    assert!(String::from_utf8_lossy(&bad.stdout).contains("REGRESSED"));

    for p in [&out, &doctored, &fresh] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn disjoint_baseline_is_an_error_not_a_pass() {
    let out = tmp("disjoint_fresh.json");
    let first = smoke_run(&out, &[]);
    assert!(first.status.success());
    // Rename every kernel so no (kernel, n, channels) key overlaps.
    let doc = json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    let renamed = rename_kernels(&doc, "renamed_");
    let stale = tmp("stale.json");
    std::fs::write(&stale, renamed.to_string()).unwrap();

    let fresh = tmp("disjoint_fresh2.json");
    let res = smoke_run(&fresh, &["--compare", stale.to_str().unwrap()]);
    assert_eq!(
        res.status.code(),
        Some(2),
        "zero-overlap compare must be a usage error, not a vacuous pass\nstderr: {}",
        String::from_utf8_lossy(&res.stderr)
    );
    assert!(String::from_utf8_lossy(&res.stderr).contains("no (kernel, n, channels) key"));

    for p in [&out, &stale, &fresh] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn missing_baseline_file_is_a_usage_error() {
    let out = tmp("missing_fresh.json");
    let res = smoke_run(&out, &["--compare", "/nonexistent/baseline.json"]);
    assert_eq!(res.status.code(), Some(2));
    let _ = std::fs::remove_file(&out);
}

/// Returns a copy of a baseline document with every kernel's times
/// multiplied by `factor`.
fn scale_times(doc: &Json, factor: f64) -> Json {
    map_kernels(doc, |entry| {
        for field in ["seq_s", "par_s"] {
            if let Some(Json::Num(v)) = entry.get_mut(field) {
                *v *= factor;
            }
        }
    })
}

/// Returns a copy of a baseline document with every kernel's allocation
/// stanza scaled by `factor` (times untouched).
fn scale_allocs(doc: &Json, factor: f64) -> Json {
    map_kernels(doc, |entry| {
        let Some(Json::Obj(alloc)) = entry.get_mut("alloc") else { panic!("alloc stanza") };
        for field in ["allocs", "bytes", "peak_bytes"] {
            if let Some(Json::Num(v)) = alloc.get_mut(field) {
                *v = (*v * factor).floor();
            }
        }
    })
}

/// Returns a copy of a baseline document with every kernel name prefixed.
fn rename_kernels(doc: &Json, prefix: &str) -> Json {
    map_kernels(doc, |entry| {
        if let Some(Json::Str(name)) = entry.get_mut("kernel") {
            *name = format!("{prefix}{name}");
        }
    })
}

fn map_kernels(doc: &Json, f: impl Fn(&mut std::collections::BTreeMap<String, Json>)) -> Json {
    let Json::Obj(mut top) = doc.clone() else { panic!("baseline is an object") };
    let Some(Json::Arr(kernels)) = top.get_mut("kernels") else { panic!("kernels array") };
    for k in kernels.iter_mut() {
        let Json::Obj(entry) = k else { panic!("kernel entry is an object") };
        f(entry);
    }
    Json::Obj(top)
}
