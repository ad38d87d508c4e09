//! Facts about the host and the build a result was measured on, so a
//! reader can tell what `threads` really exercised.

use std::collections::BTreeMap;

use telemetry::json::Json;

use crate::workloads::serve::{host_cores, worker_count};

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Cores, thread budgets, compiled features, commit and compiler.
pub fn facts() -> Json {
    let mut features = BTreeMap::new();
    for (name, on) in [
        ("parallel", fhe_math::par::parallelism_compiled()),
        ("strict-checks", fhe_math::strict_checks_enabled()),
        ("alloc-track", telemetry::alloc::tracking_compiled()),
        ("checksum_enabled", fhe_math::checksum_enabled()),
    ] {
        features.insert(name.to_string(), Json::Bool(on));
    }
    features
        .insert("simd".to_string(), Json::Str(fhe_math::simd::active_backend().name().to_string()));
    let mut host = BTreeMap::new();
    host.insert("nproc".to_string(), Json::Num(host_cores() as f64));
    // The library workloads pin one thread; the serve workloads use the
    // workers plus the one client (or generator) thread.
    host.insert("par_max_threads".to_string(), Json::Num(fhe_math::par::max_threads() as f64));
    host.insert("serve_workers".to_string(), Json::Num(worker_count() as f64));
    host.insert("features".to_string(), Json::Obj(features));
    host.insert("git_commit".to_string(), Json::Str(bench::git_commit()));
    host.insert("rustc".to_string(), Json::Str(rustc_version()));
    if let Some(mb) = bench::mem_total_mb() {
        host.insert("mem_total_mb".to_string(), Json::Num(mb as f64));
    }
    Json::Obj(host)
}
