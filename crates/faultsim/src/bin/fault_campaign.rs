//! Deterministic fault-injection campaign driver.
//!
//! ```text
//! fault_campaign [--seed HEX|DEC] [--cases N] [--classes a,b,c] [--out FILE]
//!                [--flight-dir DIR] [--trace-out FILE]
//! ```
//!
//! Runs the seeded campaign, prints the per-class summary with the
//! escape-rate headline, optionally writes the machine-readable JSON
//! report, and exits with status 2 if any injected fault escaped —
//! so CI can gate on "zero undetected escapes" directly.
//!
//! `--flight-dir DIR` arms the post-mortem path: a bounded flight
//! recorder rides along with the campaign, every escaped fault dumps the recent event ring into `DIR` as a
//! Chrome-trace fragment, and a final `flight-final.json` covering the
//! campaign tail is always written. `--trace-out FILE` writes the full
//! exit-time telemetry trace. Both are flushed *before* the exit-2 path,
//! so a failing campaign keeps its telemetry.

use faultsim::{run_campaign_classes, FaultClass, DEFAULT_CASES, DEFAULT_SEED};

fn parse_u64(s: &str) -> Result<u64, String> {
    let s = s.trim();
    let parsed = if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(&hex.replace('_', ""), 16)
    } else {
        s.replace('_', "").parse()
    };
    parsed.map_err(|e| format!("invalid number {s:?}: {e}"))
}

fn usage() -> ! {
    eprintln!(
        "usage: fault_campaign [--seed HEX|DEC] [--cases N] [--classes LIST] [--out FILE]\n\
         \t[--flight-dir DIR] [--trace-out FILE]\n\
         \n\
         --seed        campaign seed (default {DEFAULT_SEED:#018x})\n\
         --cases       cases per fault class (default {DEFAULT_CASES})\n\
         --classes     comma-separated subset of: bitflip,transfer\n\
         --out         write the JSON report to FILE\n\
         --flight-dir  arm the flight recorder; escapes dump the\n\
         \trecent event ring into DIR as Chrome-trace fragments\n\
         --trace-out   write the exit-time telemetry trace to FILE (flushed\n\
         \teven when the campaign fails)\n\
         \n\
         exit status: 0 = no escapes, 2 = at least one fault escaped"
    );
    std::process::exit(1)
}

/// Writes the exit-time trace and the final flight-recorder dump. Runs on
/// both the pass and fail paths — a failing campaign is exactly when the
/// telemetry matters most — and only warns on I/O errors so a full disk
/// cannot mask the campaign verdict.
fn flush_telemetry(
    tel: &telemetry::Telemetry,
    trace_out: Option<&str>,
    flight_dir: Option<&std::path::Path>,
) {
    if let Some(path) = trace_out {
        if let Err(e) = tel.snapshot().write_chrome_trace(std::path::Path::new(path)) {
            eprintln!("warning: failed to write trace to {path}: {e}");
        }
    }
    if let (Some(dir), Some(rec)) = (flight_dir, tel.flight_recorder()) {
        let path = dir.join("flight-final.json");
        if let Err(e) = rec.write_dump(&path) {
            eprintln!("warning: failed to write {}: {e}", path.display());
        }
    }
}

fn main() {
    let mut seed = DEFAULT_SEED;
    let mut cases = DEFAULT_CASES;
    let mut classes: Vec<FaultClass> = FaultClass::ALL.to_vec();
    let mut out: Option<String> = None;
    let mut flight_dir: Option<std::path::PathBuf> = None;
    let mut trace_out: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {flag}");
                usage()
            })
        };
        match arg.as_str() {
            "--seed" => {
                seed = parse_u64(&value("--seed")).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage()
                })
            }
            "--cases" => {
                cases = parse_u64(&value("--cases")).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage()
                })
            }
            "--classes" => {
                let list = value("--classes");
                classes = list
                    .split(',')
                    .map(|name| {
                        FaultClass::from_name(name.trim()).unwrap_or_else(|| {
                            eprintln!("unknown fault class {name:?}");
                            usage()
                        })
                    })
                    .collect();
                if classes.is_empty() {
                    eprintln!("--classes must name at least one class");
                    usage()
                }
            }
            "--out" => out = Some(value("--out")),
            "--flight-dir" => flight_dir = Some(std::path::PathBuf::from(value("--flight-dir"))),
            "--trace-out" => trace_out = Some(value("--trace-out")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument {other:?}");
                usage()
            }
        }
    }

    let tel = telemetry::Telemetry::enabled();
    if let Some(dir) = &flight_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("failed to create --flight-dir {}: {e}", dir.display());
            std::process::exit(1);
        }
        // The campaign loop reaches the
        // recorder through the process-global handle.
        tel.attach_flight_recorder(telemetry::FlightRecorder::with_default_capacity());
        telemetry::install(tel.clone());
        telemetry::flight::set_fault_dump_dir(Some(dir.clone()));
    } else if trace_out.is_some() {
        telemetry::install(tel.clone());
    }
    let report = run_campaign_classes(&classes, seed, cases, &tel);
    print!("{}", report.summary());

    for (_, s) in &report.classes {
        for line in &s.escapes {
            eprintln!("ESCAPE {line}");
        }
    }

    if let Some(path) = out {
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        println!("report written to {path}");
    }

    // Telemetry is flushed before the verdict: the exit-2 path must not
    // discard the trace or the flight-recorder tail.
    flush_telemetry(&tel, trace_out.as_deref(), flight_dir.as_deref());

    if report.escaped() > 0 {
        eprintln!(
            "FAIL: {} of {} injected faults escaped detection",
            report.escaped(),
            report.injected()
        );
        std::process::exit(2);
    }
    println!("PASS: zero undetected escapes across {} injected faults", report.injected());
}
