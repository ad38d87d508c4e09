//! Perf-regression gate over the committed kernel baseline.
//!
//! `bench_kernels --compare <baseline.json>` re-measures the kernel sweep,
//! then diffs the fresh best times against the baseline per
//! `(kernel, n, channels)` key. A row regresses when either measured
//! column (sequential or parallel) is slower than
//! `baseline * (1 + tolerance)`; the binary exits nonzero if any row
//! regresses. Keys present on only one side are counted but never gate —
//! except that an *empty* intersection is an error, so a renamed kernel or
//! a stale baseline cannot produce a vacuous pass.
//!
//! When both sides carry an `alloc` stanza (written by
//! `--alloc-profile`), the same tolerance also gates the per-call
//! allocation count and interval peak-heap bytes — with a small absolute
//! slack ([`ALLOC_SLACK`], [`PEAK_SLACK`]) so tiny kernels whose counts
//! sit near zero do not flap on one stray lazy-init allocation. Allocation
//! counts are deterministic per build (unlike wall times), so this catches
//! "the hot path started allocating" the moment it lands.

use std::collections::BTreeMap;

use telemetry::json::Json;

/// Absolute slack on the allocation-count gate: a fresh run may exceed
/// `base * (1 + tolerance)` by up to this many calls before regressing.
/// Covers one-off lazy initialization that lands on whichever kernel runs
/// it first. Kept well under the busiest smoke-size kernel's count (63 for
/// `ckks_mul_rescale` at `n = 256`), or the smoke gate could never fire.
pub const ALLOC_SLACK: u64 = 16;

/// Absolute slack (bytes) on the peak-heap gate, for the same reason.
pub const PEAK_SLACK: u64 = 1 << 20;

/// Allocation profile of one kernel invocation (`--alloc-profile`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocPoint {
    /// Heap allocations attributed to one steady-state call.
    pub allocs: u64,
    /// Bytes requested by that call.
    pub bytes: u64,
    /// Peak live heap (process-wide) during the call, after a
    /// `reset_peak` re-baseline.
    pub peak_bytes: u64,
}

/// One measured kernel data point, keyed by `(kernel, n, channels)`.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelPoint {
    /// Kernel name (`ntt_roundtrip`, `modup`, ...).
    pub kernel: String,
    /// Ring degree.
    pub n: u64,
    /// RNS channels processed.
    pub channels: u64,
    /// Best wall time with the backend pinned to one thread.
    pub seq_s: f64,
    /// Best wall time with the auto thread budget.
    pub par_s: f64,
    /// Allocation profile, when the run used `--alloc-profile`.
    pub alloc: Option<AllocPoint>,
}

impl KernelPoint {
    fn key(&self) -> (&str, u64, u64) {
        (&self.kernel, self.n, self.channels)
    }
}

/// Extracts the `kernels` array of a `BENCH_kernels.json` document
/// (schema v1 and v2 store the per-kernel fields identically).
pub fn parse_baseline(doc: &Json) -> Result<Vec<KernelPoint>, String> {
    let arr = doc
        .get("kernels")
        .and_then(Json::as_arr)
        .ok_or_else(|| "baseline has no `kernels` array".to_string())?;
    arr.iter()
        .enumerate()
        .map(|(i, k)| {
            let num = |field: &str| {
                k.get(field)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("kernels[{i}] missing numeric `{field}`"))
            };
            // The alloc stanza is optional (pre-`--alloc-profile` schemas
            // and timing-only runs), but when present it must be complete:
            // a half-written stanza is a malformed baseline, not a hint.
            let alloc = match k.get("alloc") {
                None => None,
                Some(a) => {
                    let anum = |field: &str| {
                        a.get(field)
                            .and_then(Json::as_f64)
                            .map(|v| v as u64)
                            .ok_or_else(|| format!("kernels[{i}].alloc missing numeric `{field}`"))
                    };
                    Some(AllocPoint {
                        allocs: anum("allocs")?,
                        bytes: anum("bytes")?,
                        peak_bytes: anum("peak_bytes")?,
                    })
                }
            };
            Ok(KernelPoint {
                kernel: k
                    .get("kernel")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("kernels[{i}] missing `kernel`"))?
                    .to_string(),
                n: num("n")? as u64,
                channels: num("channels")? as u64,
                seq_s: num("seq_s")?,
                par_s: num("par_s")?,
                alloc,
            })
        })
        .collect()
}

/// Host fields of a baseline document that decide whether its numbers are
/// comparable to the current run at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineHost {
    /// `host.threads` as stamped by `bench_kernels` (absent in hand-edited
    /// or very old baselines).
    pub threads: Option<u64>,
    /// Physical memory of the recording host (`host.mem_total_mb`).
    pub mem_total_mb: Option<u64>,
}

/// Extracts the comparability-relevant `host` fields of a baseline
/// document. Missing fields stay `None` and never warn.
pub fn parse_host(doc: &Json) -> BaselineHost {
    let host = doc.get("host");
    BaselineHost {
        threads: host.and_then(|h| h.get("threads")).and_then(Json::as_f64).map(|t| t as u64),
        mem_total_mb: host
            .and_then(|h| h.get("mem_total_mb"))
            .and_then(Json::as_f64)
            .map(|m| m as u64),
    }
}

/// Human-readable warnings when the baseline host and the current run are
/// not comparable (different thread budget, or a different memory class —
/// ≥ 2x apart in physical RAM, where allocator and page-cache behavior stop
/// being comparable); empty when they match or either side does not record
/// the fields.
pub fn host_mismatch_warnings(
    base: &BaselineHost,
    threads: u64,
    mem_total_mb: Option<u64>,
) -> Vec<String> {
    let mut warnings = Vec::new();
    if let Some(bt) = base.threads {
        if bt != threads {
            warnings.push(format!(
                "baseline was recorded with host.threads={bt} but this run uses {threads} \
                 thread(s); parallel-column ratios compare different machines"
            ));
        }
    }
    if let (Some(bm), Some(m)) = (base.mem_total_mb, mem_total_mb) {
        if bm.max(m) >= 2 * bm.min(m).max(1) {
            warnings.push(format!(
                "baseline host had {bm} MB of RAM but this host has {m} MB (different \
                 memory class); peak-heap columns and page-cache effects are not comparable"
            ));
        }
    }
    warnings
}

/// Verdict for one key present in both the fresh run and the baseline.
#[derive(Debug, Clone)]
pub struct CompareRow {
    /// Kernel name.
    pub kernel: String,
    /// Ring degree.
    pub n: u64,
    /// RNS channels processed.
    pub channels: u64,
    /// Baseline (sequential, parallel) times.
    pub base: (f64, f64),
    /// Fresh (sequential, parallel) times.
    pub fresh: (f64, f64),
    /// `fresh / base` per column.
    pub ratio: (f64, f64),
    /// `fresh / base` allocation-count ratio, when both sides carry an
    /// alloc stanza (a zero-alloc baseline reports the fresh count + 1
    /// over 1 so any new allocation still shows a ratio > 1).
    pub alloc_ratio: Option<f64>,
    /// Whether any gated column (time or allocation) exceeded the
    /// tolerance.
    pub regressed: bool,
}

/// The full diff of a fresh run against a baseline.
#[derive(Debug, Clone)]
pub struct CompareReport {
    /// One row per overlapping key, in fresh-run order.
    pub rows: Vec<CompareRow>,
    /// Relative slowdown allowed before a row regresses.
    pub tolerance: f64,
    /// Fresh keys with no baseline entry (not gated).
    pub fresh_only: usize,
    /// Baseline keys the fresh run did not measure (not gated).
    pub base_only: usize,
}

impl CompareReport {
    /// Number of rows over tolerance.
    pub fn regressions(&self) -> usize {
        self.rows.iter().filter(|r| r.regressed).count()
    }
}

/// Diffs `fresh` against `baseline` per `(kernel, n, channels)` key.
///
/// # Errors
///
/// Errors when the two runs share no key: comparing disjoint sweeps
/// (e.g. a `--smoke` run against a baseline without the smoke size) must
/// fail loudly rather than pass vacuously.
pub fn compare(
    fresh: &[KernelPoint],
    baseline: &[KernelPoint],
    tolerance: f64,
) -> Result<CompareReport, String> {
    let base_by_key: BTreeMap<_, &KernelPoint> = baseline.iter().map(|p| (p.key(), p)).collect();
    let mut rows = Vec::new();
    let mut fresh_only = 0usize;
    for f in fresh {
        let Some(b) = base_by_key.get(&f.key()) else {
            fresh_only += 1;
            continue;
        };
        let ratio = (f.seq_s / b.seq_s, f.par_s / b.par_s);
        let limit = 1.0 + tolerance;
        let mut regressed = ratio.0 > limit || ratio.1 > limit;
        // Allocation gating only applies when both runs profiled: a
        // timing-only fresh run against an alloc-profiled baseline (or
        // vice versa) gates on wall times alone.
        let alloc_ratio = match (&f.alloc, &b.alloc) {
            (Some(fa), Some(ba)) => {
                let over = |fresh: u64, base: u64, slack: u64| {
                    fresh as f64 > base as f64 * limit + slack as f64
                };
                if over(fa.allocs, ba.allocs, ALLOC_SLACK)
                    || over(fa.peak_bytes, ba.peak_bytes, PEAK_SLACK)
                {
                    regressed = true;
                }
                Some((fa.allocs + 1) as f64 / (ba.allocs + 1) as f64)
            }
            _ => None,
        };
        rows.push(CompareRow {
            kernel: f.kernel.clone(),
            n: f.n,
            channels: f.channels,
            base: (b.seq_s, b.par_s),
            fresh: (f.seq_s, f.par_s),
            ratio,
            alloc_ratio,
            regressed,
        });
    }
    if rows.is_empty() {
        return Err(format!(
            "no (kernel, n, channels) key overlaps the baseline \
             ({} fresh vs {} baseline entries) — stale or mismatched baseline?",
            fresh.len(),
            baseline.len()
        ));
    }
    let base_only = baseline.len() - rows.len();
    Ok(CompareReport { rows, tolerance, fresh_only, base_only })
}

/// One measured service-throughput point (`BENCH_service.json`), keyed
/// by `(workload, n, workers, packed)`.
///
/// Unlike kernel points, throughput gates as a *lower* bound and the
/// latency quantiles as *upper* bounds: the service regresses when it
/// serves fewer requests per second or takes longer per request.
#[derive(Debug, Clone, PartialEq)]
pub struct ServicePoint {
    /// Trace workload name (`mixed`, `ckks-only`, ...).
    pub workload: String,
    /// CKKS ring degree the server ran.
    pub n: u64,
    /// Worker threads.
    pub workers: u64,
    /// Whether slot packing was enabled.
    pub packed: bool,
    /// Requests replayed.
    pub requests: u64,
    /// Completed requests per second.
    pub req_per_s: f64,
    /// Median submit-to-completion latency, ms.
    pub p50_ms: f64,
    /// 99th-percentile latency, ms.
    pub p99_ms: f64,
    /// Injected faults the server contained (absent in old baselines: 0).
    pub faults_contained: u64,
    /// Admitted requests that never reached a terminal outcome (absent
    /// in old baselines: 0). Any non-zero fresh value is a regression.
    pub lost: u64,
}

impl ServicePoint {
    fn key(&self) -> (&str, u64, u64, bool) {
        (&self.workload, self.n, self.workers, self.packed)
    }
}

/// Extracts the `service` array of a `BENCH_service.json` document.
pub fn parse_service_baseline(doc: &Json) -> Result<Vec<ServicePoint>, String> {
    let arr = doc
        .get("service")
        .and_then(Json::as_arr)
        .ok_or_else(|| "baseline has no `service` array".to_string())?;
    arr.iter()
        .enumerate()
        .map(|(i, p)| {
            let num = |field: &str| {
                p.get(field)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("service[{i}] missing numeric `{field}`"))
            };
            Ok(ServicePoint {
                workload: p
                    .get("workload")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("service[{i}] missing `workload`"))?
                    .to_string(),
                n: num("n")? as u64,
                workers: num("workers")? as u64,
                packed: matches!(p.get("packed"), Some(Json::Bool(true))),
                requests: num("requests")? as u64,
                req_per_s: num("req_per_s")?,
                p50_ms: num("p50_ms")?,
                p99_ms: num("p99_ms")?,
                // Containment columns postdate schema v1 baselines;
                // default to 0 so old files still parse and gate.
                faults_contained: p.get("faults_contained").and_then(Json::as_f64).unwrap_or(0.0)
                    as u64,
                lost: p.get("lost").and_then(Json::as_f64).unwrap_or(0.0) as u64,
            })
        })
        .collect()
}

/// Verdict for one service key present on both sides.
#[derive(Debug, Clone)]
pub struct ServiceCompareRow {
    /// Workload name.
    pub workload: String,
    /// `(n, workers, packed)` of the key.
    pub n: u64,
    /// Worker threads.
    pub workers: u64,
    /// Packing flag.
    pub packed: bool,
    /// `fresh / base` throughput ratio (< 1 is slower).
    pub throughput_ratio: f64,
    /// `fresh / base` p50 ratio (> 1 is slower).
    pub p50_ratio: f64,
    /// `fresh / base` p99 ratio (> 1 is slower).
    pub p99_ratio: f64,
    /// Requests the fresh run lost (admitted, never answered).
    pub lost: u64,
    /// Whether containment weakened: the fresh run lost requests, or —
    /// on an identical trace — contained fewer injected faults than the
    /// baseline did.
    pub containment_regressed: bool,
    /// Whether any gated column exceeded the tolerance.
    pub regressed: bool,
}

/// The full service diff.
#[derive(Debug, Clone)]
pub struct ServiceCompareReport {
    /// One row per overlapping key, in fresh-run order.
    pub rows: Vec<ServiceCompareRow>,
    /// Relative degradation allowed before a row regresses.
    pub tolerance: f64,
    /// Fresh keys with no baseline entry (not gated).
    pub fresh_only: usize,
    /// Baseline keys the fresh run did not measure (not gated).
    pub base_only: usize,
}

impl ServiceCompareReport {
    /// Number of rows over tolerance.
    pub fn regressions(&self) -> usize {
        self.rows.iter().filter(|r| r.regressed).count()
    }
}

/// Diffs a fresh service run against a baseline per
/// `(workload, n, workers, packed)` key. Throughput gates as a lower
/// bound, p50/p99 as upper bounds, all under the same `tolerance`.
///
/// # Errors
///
/// Errors when no key overlaps, like [`compare`].
pub fn compare_service(
    fresh: &[ServicePoint],
    baseline: &[ServicePoint],
    tolerance: f64,
) -> Result<ServiceCompareReport, String> {
    let base_by_key: BTreeMap<_, &ServicePoint> = baseline.iter().map(|p| (p.key(), p)).collect();
    let mut rows = Vec::new();
    let mut fresh_only = 0usize;
    for f in fresh {
        let Some(b) = base_by_key.get(&f.key()) else {
            fresh_only += 1;
            continue;
        };
        let limit = 1.0 + tolerance;
        let throughput_ratio = f.req_per_s / b.req_per_s;
        let p50_ratio = f.p50_ms / b.p50_ms;
        let p99_ratio = f.p99_ms / b.p99_ms;
        // Containment gates absolutely, not by ratio: a lost request is
        // a bug at any tolerance, and fewer contained faults on the same
        // deterministic trace means detection got weaker.
        let containment_regressed =
            f.lost > 0 || (f.requests == b.requests && f.faults_contained < b.faults_contained);
        let regressed = throughput_ratio < 1.0 / limit
            || p50_ratio > limit
            || p99_ratio > limit
            || containment_regressed;
        rows.push(ServiceCompareRow {
            workload: f.workload.clone(),
            n: f.n,
            workers: f.workers,
            packed: f.packed,
            throughput_ratio,
            p50_ratio,
            p99_ratio,
            lost: f.lost,
            containment_regressed,
            regressed,
        });
    }
    if rows.is_empty() {
        return Err(format!(
            "no (workload, n, workers, packed) key overlaps the baseline \
             ({} fresh vs {} baseline entries) — stale or mismatched baseline?",
            fresh.len(),
            baseline.len()
        ));
    }
    let base_only = baseline.len() - rows.len();
    Ok(ServiceCompareReport { rows, tolerance, fresh_only, base_only })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(kernel: &str, n: u64, seq_s: f64, par_s: f64) -> KernelPoint {
        KernelPoint { kernel: kernel.to_string(), n, channels: 8, seq_s, par_s, alloc: None }
    }

    fn alloc_point(kernel: &str, allocs: u64, peak_bytes: u64) -> KernelPoint {
        KernelPoint {
            alloc: Some(AllocPoint { allocs, bytes: allocs * 128, peak_bytes }),
            ..point(kernel, 256, 1e-3, 5e-4)
        }
    }

    #[test]
    fn identical_runs_have_no_regressions() {
        let pts = vec![point("ntt", 256, 1e-3, 5e-4), point("modup", 256, 2e-3, 1e-3)];
        let rep = compare(&pts, &pts, 0.15).unwrap();
        assert_eq!(rep.rows.len(), 2);
        assert_eq!(rep.regressions(), 0);
        assert_eq!((rep.fresh_only, rep.base_only), (0, 0));
    }

    #[test]
    fn doubled_time_regresses_either_column() {
        let base = vec![point("ntt", 256, 1e-3, 5e-4)];
        let slow_par = vec![point("ntt", 256, 1e-3, 1e-3)];
        let rep = compare(&slow_par, &base, 0.15).unwrap();
        assert_eq!(rep.regressions(), 1);
        let slow_seq = vec![point("ntt", 256, 2e-3, 5e-4)];
        assert_eq!(compare(&slow_seq, &base, 0.15).unwrap().regressions(), 1);
        // A 2x slowdown still passes under a huge tolerance.
        assert_eq!(compare(&slow_seq, &base, 1.5).unwrap().regressions(), 0);
    }

    #[test]
    fn speedup_never_regresses() {
        let base = vec![point("ntt", 256, 1e-3, 5e-4)];
        let fast = vec![point("ntt", 256, 1e-4, 5e-5)];
        assert_eq!(compare(&fast, &base, 0.0).unwrap().regressions(), 0);
    }

    #[test]
    fn disjoint_keys_are_an_error_not_a_pass() {
        let base = vec![point("ntt", 4096, 1e-3, 5e-4)];
        let fresh = vec![point("ntt", 256, 1e-3, 5e-4)];
        assert!(compare(&fresh, &base, 0.15).is_err());
        // Partial overlap is fine; the extras are counted, not gated.
        let fresh2 = vec![point("ntt", 256, 1e-3, 5e-4), point("ntt", 4096, 1e-3, 5e-4)];
        let rep = compare(&fresh2, &base, 0.15).unwrap();
        assert_eq!(rep.rows.len(), 1);
        assert_eq!(rep.fresh_only, 1);
    }

    #[test]
    fn host_mismatch_warns_on_incomparable_hosts_only() {
        // The committed baselines still carry the retired
        // `parallel_compiled` / `alloc_track_compiled` host keys: unknown
        // keys are ignored, whatever their value.
        let doc = telemetry::json::parse(
            r#"{"host": {"threads": 4, "parallel_compiled": false,
                         "alloc_track_compiled": false}, "kernels": []}"#,
        )
        .unwrap();
        let host = parse_host(&doc);
        assert_eq!(host, BaselineHost { threads: Some(4), mem_total_mb: None });
        // Matching host: silent.
        assert!(host_mismatch_warnings(&host, 4, None).is_empty());
        // A thread-count mismatch warns.
        assert_eq!(host_mismatch_warnings(&host, 1, None).len(), 1);
        // Baselines without host metadata never warn.
        let bare = parse_host(&telemetry::json::parse(r#"{"kernels": []}"#).unwrap());
        assert_eq!(bare, BaselineHost { threads: None, mem_total_mb: None });
        assert!(host_mismatch_warnings(&bare, 64, Some(1)).is_empty());
    }

    #[test]
    fn memory_class_mismatch_warns_at_2x_only() {
        let doc = telemetry::json::parse(
            r#"{"host": {"threads": 4, "parallel_compiled": true, "mem_total_mb": 16000},
                "kernels": []}"#,
        )
        .unwrap();
        let host = parse_host(&doc);
        assert_eq!(host.mem_total_mb, Some(16000));
        // Same class (within 2x either way): silent.
        assert!(host_mismatch_warnings(&host, 4, Some(16000)).is_empty());
        assert!(host_mismatch_warnings(&host, 4, Some(9000)).is_empty());
        assert!(host_mismatch_warnings(&host, 4, Some(31000)).is_empty());
        // A 2x-or-more gap in either direction warns.
        assert_eq!(host_mismatch_warnings(&host, 4, Some(32000)).len(), 1);
        assert_eq!(host_mismatch_warnings(&host, 4, Some(8000)).len(), 1);
        // Either side missing the field: silent.
        assert!(host_mismatch_warnings(&host, 4, None).is_empty());
    }

    #[test]
    fn baseline_parser_accepts_v1_and_rejects_malformed() {
        let v1 = telemetry::json::parse(
            r#"{"host": {"threads": 1}, "note": "x", "kernels": [
                {"kernel": "ntt_roundtrip", "n": 4096, "channels": 8,
                 "seq_s": 0.001, "par_s": 0.0005, "speedup": 2.0}]}"#,
        )
        .unwrap();
        let pts = parse_baseline(&v1).unwrap();
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].kernel, "ntt_roundtrip");
        assert_eq!((pts[0].n, pts[0].channels), (4096, 8));

        let bad = telemetry::json::parse(r#"{"kernels": [{"kernel": "x", "n": 1}]}"#).unwrap();
        assert!(parse_baseline(&bad).is_err());
        let none = telemetry::json::parse(r#"{"tables": []}"#).unwrap();
        assert!(parse_baseline(&none).is_err());
    }

    #[test]
    fn baseline_parser_reads_optional_alloc_stanza() {
        let doc = telemetry::json::parse(
            r#"{"kernels": [
                {"kernel": "modup", "n": 256, "channels": 8, "seq_s": 1e-3, "par_s": 5e-4,
                 "alloc": {"allocs": 120, "bytes": 65536, "peak_bytes": 131072}},
                {"kernel": "ntt_fwd", "n": 256, "channels": 8, "seq_s": 1e-3, "par_s": 5e-4}]}"#,
        )
        .unwrap();
        let pts = parse_baseline(&doc).unwrap();
        assert_eq!(
            pts[0].alloc,
            Some(AllocPoint { allocs: 120, bytes: 65536, peak_bytes: 131072 })
        );
        assert_eq!(pts[1].alloc, None);

        // A present-but-incomplete stanza is malformed, not ignored.
        let half = telemetry::json::parse(
            r#"{"kernels": [{"kernel": "x", "n": 1, "channels": 1, "seq_s": 1.0,
                             "par_s": 1.0, "alloc": {"allocs": 3}}]}"#,
        )
        .unwrap();
        assert!(parse_baseline(&half).unwrap_err().contains("alloc"));
    }

    #[test]
    fn allocation_regressions_gate_with_slack() {
        let base = vec![alloc_point("modup", 1000, 1 << 22)];
        // Identical counts: clean, and the ratio is reported.
        let rep = compare(&base, &base, 0.15).unwrap();
        assert_eq!(rep.regressions(), 0);
        assert_eq!(rep.rows[0].alloc_ratio, Some(1.0));
        // Within tolerance + slack: clean (1000 * 1.15 + ALLOC_SLACK).
        let near = vec![alloc_point("modup", 1150 + ALLOC_SLACK, 1 << 22)];
        assert_eq!(compare(&near, &base, 0.15).unwrap().regressions(), 0);
        // Beyond it: regressed, even with identical wall times.
        let over = vec![alloc_point("modup", 1151 + ALLOC_SLACK, 1 << 22)];
        let rep = compare(&over, &base, 0.15).unwrap();
        assert_eq!(rep.regressions(), 1);
        assert!(rep.rows[0].alloc_ratio.unwrap() > 1.15);
        // Peak-heap blowup regresses on its own (counts unchanged).
        let fat = vec![alloc_point("modup", 1000, (1 << 22) * 10)];
        assert_eq!(compare(&fat, &base, 0.15).unwrap().regressions(), 1);
        // Fewer allocations never regress.
        let lean = vec![alloc_point("modup", 10, 1 << 10)];
        assert_eq!(compare(&lean, &base, 0.15).unwrap().regressions(), 0);
    }

    #[test]
    fn alloc_gate_skipped_when_either_side_lacks_the_stanza() {
        let base = vec![point("modup", 256, 1e-3, 5e-4)];
        let fresh = vec![alloc_point("modup", 1_000_000, 1 << 30)];
        let rep = compare(&fresh, &base, 0.15).unwrap();
        assert_eq!(rep.regressions(), 0);
        assert_eq!(rep.rows[0].alloc_ratio, None);
        // Zero-alloc baseline: any new allocation pressure shows a ratio
        // above 1, and slack still absorbs the tiny ones.
        let zero = vec![alloc_point("modup", 0, 0)];
        let few = vec![alloc_point("modup", ALLOC_SLACK, 0)];
        let rep = compare(&few, &zero, 0.15).unwrap();
        assert_eq!(rep.regressions(), 0, "slack absorbs ALLOC_SLACK new allocs");
        assert!(rep.rows[0].alloc_ratio.unwrap() > 1.0);
        let many = vec![alloc_point("modup", ALLOC_SLACK + 1, 0)];
        assert_eq!(compare(&many, &zero, 0.15).unwrap().regressions(), 1);
    }

    fn svc(workload: &str, packed: bool, rps: f64, p50: f64, p99: f64) -> ServicePoint {
        ServicePoint {
            workload: workload.to_string(),
            n: 64,
            workers: 4,
            packed,
            requests: 512,
            req_per_s: rps,
            p50_ms: p50,
            p99_ms: p99,
            faults_contained: 0,
            lost: 0,
        }
    }

    #[test]
    fn service_baseline_round_trips_and_rejects_missing_fields() {
        let doc = telemetry::json::parse(
            r#"{"service": [{"workload": "mixed", "n": 64, "workers": 4, "packed": true,
                             "requests": 512, "req_per_s": 900.0, "p50_ms": 2.0,
                             "p99_ms": 9.5}]}"#,
        )
        .unwrap();
        let pts = parse_service_baseline(&doc).unwrap();
        assert_eq!(pts, vec![svc("mixed", true, 900.0, 2.0, 9.5)]);

        let bad = telemetry::json::parse(
            r#"{"service": [{"workload": "mixed", "n": 64, "workers": 4, "packed": true,
                             "requests": 512, "req_per_s": 900.0, "p50_ms": 2.0}]}"#,
        )
        .unwrap();
        assert!(parse_service_baseline(&bad).unwrap_err().contains("p99_ms"));
        let none = telemetry::json::parse(r#"{"kernels": []}"#).unwrap();
        assert!(parse_service_baseline(&none).unwrap_err().contains("service"));
    }

    #[test]
    fn service_gates_throughput_low_and_latency_high() {
        let base = vec![svc("mixed", true, 1000.0, 2.0, 10.0)];
        // Identical: clean.
        assert_eq!(compare_service(&base, &base, 0.2).unwrap().regressions(), 0);
        // Faster and tighter: clean — improvement never regresses.
        let better = vec![svc("mixed", true, 1500.0, 1.0, 5.0)];
        assert_eq!(compare_service(&better, &base, 0.2).unwrap().regressions(), 0);
        // Throughput down past tolerance: regressed.
        let slow = vec![svc("mixed", true, 800.0, 2.0, 10.0)];
        let rep = compare_service(&slow, &base, 0.2).unwrap();
        assert_eq!(rep.regressions(), 1);
        assert!(rep.rows[0].throughput_ratio < 1.0);
        // p99 blowup alone regresses, even at equal throughput.
        let spiky = vec![svc("mixed", true, 1000.0, 2.0, 13.0)];
        assert_eq!(compare_service(&spiky, &base, 0.2).unwrap().regressions(), 1);
        // Throughput slightly down, within tolerance: clean.
        let near = vec![svc("mixed", true, 850.0, 2.1, 10.5)];
        assert_eq!(compare_service(&near, &base, 0.2).unwrap().regressions(), 0);
    }

    #[test]
    fn service_gates_containment_absolutely() {
        let base =
            vec![ServicePoint { faults_contained: 8, ..svc("mixed", true, 1000.0, 2.0, 10.0) }];
        // A lost request regresses even with perfect performance.
        let lossy = vec![ServicePoint {
            faults_contained: 8,
            lost: 1,
            ..svc("mixed", true, 2000.0, 1.0, 5.0)
        }];
        let rep = compare_service(&lossy, &base, 0.2).unwrap();
        assert_eq!(rep.regressions(), 1);
        assert!(rep.rows[0].containment_regressed);
        assert_eq!(rep.rows[0].lost, 1);
        // Same trace, fewer contained faults: detection weakened.
        let weaker =
            vec![ServicePoint { faults_contained: 7, ..svc("mixed", true, 1000.0, 2.0, 10.0) }];
        assert_eq!(compare_service(&weaker, &base, 0.2).unwrap().regressions(), 1);
        // Different request count: the containment comparison is skipped.
        let other_trace = vec![ServicePoint {
            requests: 256,
            faults_contained: 4,
            ..svc("mixed", true, 1000.0, 2.0, 10.0)
        }];
        assert_eq!(compare_service(&other_trace, &base, 0.2).unwrap().regressions(), 0);
        // Old baselines (no containment columns) parse as zeros and the
        // fresh run containing *more* faults never regresses.
        let richer =
            vec![ServicePoint { faults_contained: 9, ..svc("mixed", true, 1000.0, 2.0, 10.0) }];
        assert_eq!(compare_service(&richer, &base, 0.2).unwrap().regressions(), 0);
    }

    #[test]
    fn service_compare_requires_key_overlap() {
        let base = vec![svc("mixed", true, 1000.0, 2.0, 10.0)];
        let fresh = vec![svc("mixed", false, 1000.0, 2.0, 10.0)];
        let err = compare_service(&fresh, &base, 0.2).unwrap_err();
        assert!(err.contains("overlap"), "{err}");
        // Partial overlap still gates the shared key and counts strays.
        let both =
            vec![svc("mixed", true, 1000.0, 2.0, 10.0), svc("ckks-only", true, 500.0, 1.0, 4.0)];
        let rep = compare_service(&both, &base, 0.2).unwrap();
        assert_eq!(rep.rows.len(), 1);
        assert_eq!(rep.fresh_only, 1);
        assert_eq!(rep.base_only, 0);
    }
}
