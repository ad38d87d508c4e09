//! Shared helpers for the table/figure regeneration binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper (see `DESIGN.md` §4 for the index) and renders through a
//! [`Reporter`]: plain text by default (a `paper` column next to the
//! `measured` column so deviations are visible at a glance), or a single
//! machine-readable JSON document with `--json`; `EXPERIMENTS.md` records
//! a snapshot. `--trace-out <path>` additionally captures a telemetry
//! trace (Chrome/Perfetto `trace_event` format) where the binary supports
//! it.

use telemetry::json::Json;

/// Command-line flags shared by the regeneration binaries.
///
/// `--json` and `--trace-out` are consumed here. A binary with flags of
/// its own names them to [`BenchArgs::parse_with`]; those, their values and
/// the positional arguments (e.g. the workload name of `trace_workload`)
/// land in `rest` in order, and [`BenchArgs::value`] /
/// [`BenchArgs::u64_value`] read a flag's value back out. Any other
/// `--flag` is an error, not a positional: a mistyped or retired flag must
/// not run as if it were absent.
#[derive(Debug, Clone, Default)]
pub struct BenchArgs {
    /// `--json`: emit one JSON document instead of plain-text tables.
    pub json: bool,
    /// `--trace-out <path>`: write a Chrome/Perfetto trace of the run.
    pub trace_out: Option<std::path::PathBuf>,
    /// The binary's own flags and the positional arguments, in order.
    pub rest: Vec<String>,
}

/// Prints a command-line error and exits 2, the status of every usage
/// error of the binaries on [`BenchArgs`].
fn exit_usage(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// `next` as the value of `flag`, unless it is missing or is itself a flag
/// (`--out --smoke` must not write a file named `--smoke`).
fn value_after<S: AsRef<str>>(flag: &str, next: Option<S>) -> Result<S, String> {
    match next {
        Some(v) if !v.as_ref().starts_with("--") => Ok(v),
        Some(v) => Err(format!("{flag} requires a value, got the flag {}", v.as_ref())),
        None => Err(format!("{flag} requires a value")),
    }
}

/// Decimal or `0x` hexadecimal, `_` separators allowed.
fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(&hex.replace('_', ""), 16).ok()
    } else {
        s.replace('_', "").parse().ok()
    }
}

impl BenchArgs {
    /// Parses `std::env::args` for a binary that takes the shared flags
    /// only; exits 2 on an unknown flag.
    pub fn parse() -> Self {
        Self::parse_with(&[])
    }

    /// Parses `std::env::args` for a binary that also takes the flags in
    /// `own`; exits 2, listing the known flags, on any other `--flag`.
    pub fn parse_with(own: &[&str]) -> Self {
        Self::parse_from(std::env::args().skip(1), own).unwrap_or_else(|e| exit_usage(&e))
    }

    /// Parses an explicit argument list (testable variant of
    /// [`parse_with`]).
    ///
    /// # Errors
    ///
    /// A message naming the offender and the known flags when an argument
    /// starts with `--` and is neither shared nor in `own`, or when
    /// `--trace-out` is followed by no path or by another flag.
    ///
    /// [`parse_with`]: BenchArgs::parse_with
    pub fn parse_from<I: IntoIterator<Item = String>>(
        args: I,
        own: &[&str],
    ) -> Result<Self, String> {
        let mut out = BenchArgs::default();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--json" => out.json = true,
                "--trace-out" => out.trace_out = Some(value_after(&a, it.next())?.into()),
                flag if flag.starts_with("--") && !own.contains(&flag) => {
                    let known = ["--json", "--trace-out"].iter().chain(own).copied();
                    return Err(format!(
                        "unknown flag {flag}; known flags: {}",
                        known.collect::<Vec<_>>().join(" ")
                    ));
                }
                _ => out.rest.push(a),
            }
        }
        Ok(out)
    }

    fn try_value(&self, flag: &str) -> Result<Option<&str>, String> {
        let Some(i) = self.rest.iter().position(|a| a == flag) else { return Ok(None) };
        value_after(flag, self.rest.get(i + 1).map(String::as_str)).map(Some)
    }

    /// The value of the binary's own `--flag <value>`, `None` when the
    /// flag was not given. Like an unknown flag, a flag followed by nothing
    /// or by another flag exits 2.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.try_value(flag).unwrap_or_else(|e| exit_usage(&e))
    }

    /// [`Self::value`] as an integer: decimal or `0x` hexadecimal, `_`
    /// separators allowed.
    ///
    /// # Errors
    ///
    /// A message naming the flag and the text that is not such an integer.
    pub fn u64_value(&self, flag: &str) -> Result<Option<u64>, String> {
        self.value(flag)
            .map(|s| {
                parse_u64(s).ok_or_else(|| {
                    format!("{flag}: expected a decimal or 0x-hex integer, got {s:?}")
                })
            })
            .transpose()
    }

    /// [`Self::u64_value`] for a binary's `main`: a value that is not an
    /// integer, or is below `min`, exits 2.
    pub fn u64_at_least(&self, flag: &str, min: u64) -> Option<u64> {
        match self.u64_value(flag) {
            Ok(Some(v)) if v < min => {
                exit_usage(&format!("{flag} must be at least {min}, got {v}"))
            }
            Ok(v) => v,
            Err(e) => exit_usage(&e),
        }
    }
}

/// Renders benchmark output as aligned plain-text tables (default) or as
/// one machine-readable JSON document (`--json`).
///
/// Text mode prints each table as it arrives; JSON mode accumulates and
/// emits everything in [`Reporter::finish`], so a `--json` run prints
/// nothing but the document:
///
/// ```json
/// {"tables": [{"title": "...", "headers": [...], "rows": [[...]]}],
///  "notes": ["..."]}
/// ```
pub struct Reporter {
    json: bool,
    tables: Vec<Json>,
    notes: Vec<Json>,
}

impl Reporter {
    /// Creates a reporter; `json = true` selects the JSON document mode.
    pub fn new(json: bool) -> Self {
        Reporter { json, tables: Vec::new(), notes: Vec::new() }
    }

    /// Reporter configured from parsed [`BenchArgs`].
    pub fn from_args(args: &BenchArgs) -> Self {
        Self::new(args.json)
    }

    /// Whether the reporter is in JSON mode (callers can skip progress
    /// chatter that would corrupt the document).
    pub fn is_json(&self) -> bool {
        self.json
    }

    /// Adds a titled table. Text mode prints it immediately.
    pub fn table(&mut self, title: &str, headers: &[&str], rows: &[Vec<String>]) {
        if self.json {
            let mut obj = std::collections::BTreeMap::new();
            obj.insert("title".to_string(), Json::Str(title.to_string()));
            obj.insert(
                "headers".to_string(),
                Json::Arr(headers.iter().map(|h| Json::Str(h.to_string())).collect()),
            );
            obj.insert(
                "rows".to_string(),
                Json::Arr(
                    rows.iter()
                        .map(|r| Json::Arr(r.iter().map(|c| Json::Str(c.clone())).collect()))
                        .collect(),
                ),
            );
            self.tables.push(Json::Obj(obj));
        } else {
            if !title.is_empty() {
                println!("{title}\n");
            }
            print_table(headers, rows);
            println!();
        }
    }

    /// Adds a free-text note. Text mode prints it immediately.
    pub fn note(&mut self, text: &str) {
        if self.json {
            self.notes.push(Json::Str(text.to_string()));
        } else {
            println!("{text}");
        }
    }

    /// Flushes the report: a no-op in text mode, the whole document in
    /// JSON mode.
    pub fn finish(self) {
        if self.json {
            println!("{}", self.to_json());
        }
    }

    /// The accumulated document as a JSON value (JSON mode only; text
    /// mode prints eagerly and accumulates nothing).
    fn to_json(&self) -> Json {
        let mut doc = std::collections::BTreeMap::new();
        doc.insert("tables".to_string(), Json::Arr(self.tables.clone()));
        doc.insert("notes".to_string(), Json::Arr(self.notes.clone()));
        Json::Obj(doc)
    }
}

/// Telemetry handle for a binary: enabled when `--trace-out` was given,
/// disabled (free) otherwise, and stamped with host metadata via
/// [`stamp_host_meta`] so every exported snapshot is self-describing.
pub fn telemetry_from_args(args: &BenchArgs) -> telemetry::Telemetry {
    let tel = if args.trace_out.is_some() {
        telemetry::Telemetry::enabled()
    } else {
        telemetry::Telemetry::disabled()
    };
    stamp_host_meta(&tel);
    tel
}

/// Records the facts needed to interpret a trace captured on another
/// machine: hardware threads, physical memory, and the producing git
/// commit.
pub fn stamp_host_meta(tel: &telemetry::Telemetry) {
    tel.set_meta("host.threads", &host_threads().to_string());
    if let Some(mb) = mem_total_mb() {
        tel.set_meta("host.mem_total_mb", &mb.to_string());
    }
    tel.set_meta("git.commit", &git_commit());
}

/// Hardware threads this process may run on
/// ([`std::thread::available_parallelism`]; 1 when it cannot be read).
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Physical memory of this host in megabytes: `MemTotal` from
/// `/proc/meminfo` on Linux, `None` elsewhere (the host stanza then omits
/// the field rather than guessing).
pub fn mem_total_mb() -> Option<u64> {
    if !cfg!(target_os = "linux") {
        return None;
    }
    let text = std::fs::read_to_string("/proc/meminfo").ok()?;
    parse_mem_total_mb(&text)
}

/// Parses the `MemTotal: <n> kB` line of a `/proc/meminfo` document.
fn parse_mem_total_mb(meminfo: &str) -> Option<u64> {
    let line = meminfo.lines().find(|l| l.starts_with("MemTotal:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024)
}

/// Short git commit hash of the working tree, or `"unknown"` outside a
/// repository (benchmarks must keep working from an unpacked tarball).
pub fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Writes the captured telemetry trace to `path`, exiting with a clear
/// message instead of a panic when the path is not writable.
pub fn write_trace(tel: &telemetry::Telemetry, path: &std::path::Path) {
    if let Err(e) = tel.snapshot().write_chrome_trace(path) {
        eprintln!("failed to write trace to {}: {e}", path.display());
        std::process::exit(1);
    }
}

/// Prints an aligned plain-text table.
///
/// # Example
///
/// ```
/// bench::print_table(
///     &["op", "value"],
///     &[vec!["Pmult".into(), "42".into()]],
/// );
/// ```
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut out = String::new();
        for (i, cell) in cells.iter().enumerate() {
            out.push_str(&format!("{:<width$}  ", cell, width = widths[i]));
        }
        println!("{}", out.trim_end());
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    println!("{}", widths.iter().map(|w| "-".repeat(*w + 2)).collect::<String>());
    for row in rows {
        line(row);
    }
}

/// Formats a throughput (ops/s) with thousands separators.
pub fn fmt_ops(v: f64) -> String {
    if v >= 1000.0 {
        let int = v.round() as u64;
        let s = int.to_string();
        let mut out = String::new();
        for (i, c) in s.chars().enumerate() {
            if i > 0 && (s.len() - i).is_multiple_of(3) {
                out.push(',');
            }
            out.push(c);
        }
        out
    } else {
        format!("{v:.2}")
    }
}

/// Formats seconds using an appropriate unit.
pub fn fmt_time(seconds: f64) -> String {
    if seconds >= 1.0 {
        format!("{seconds:.2} s")
    } else if seconds >= 1e-3 {
        format!("{:.2} ms", seconds * 1e3)
    } else if seconds >= 1e-6 {
        format!("{:.2} us", seconds * 1e6)
    } else {
        format!("{:.0} ns", seconds * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(fmt_ops(946_970.4), "946,970");
        assert_eq!(fmt_ops(38.14), "38.14");
        assert_eq!(fmt_time(0.0023), "2.30 ms");
        assert_eq!(fmt_time(2.0), "2.00 s");
        assert_eq!(fmt_time(4.2e-5), "42.00 us");
    }

    #[test]
    fn mem_total_parses_proc_meminfo_shape() {
        let doc = "MemTotal:       32796552 kB\nMemFree:        11111111 kB\n";
        assert_eq!(parse_mem_total_mb(doc), Some(32027));
        assert_eq!(parse_mem_total_mb("MemFree: 1 kB\n"), None);
        assert_eq!(parse_mem_total_mb("MemTotal: junk kB\n"), None);
        // On Linux the live reading must agree with the parser's contract.
        if cfg!(target_os = "linux") {
            let mb = mem_total_mb().expect("/proc/meminfo readable on Linux");
            assert!(mb > 0);
        }
    }

    #[test]
    fn args_consume_flags_and_keep_positionals() {
        let a = BenchArgs::parse_from(
            ["bootstrapping", "--trace-out", "/tmp/t.json", "--reps", "5", "--json", "--smoke"]
                .map(String::from),
            &["--smoke", "--reps"],
        )
        .unwrap();
        assert!(a.json);
        assert_eq!(a.trace_out.as_deref(), Some(std::path::Path::new("/tmp/t.json")));
        assert_eq!(a.rest, ["bootstrapping", "--reps", "5", "--smoke"].map(String::from));

        let b = BenchArgs::parse_from(std::iter::empty(), &[]).unwrap();
        assert!(!b.json && b.trace_out.is_none() && b.rest.is_empty());
    }

    #[test]
    fn args_reject_unknown_flags_and_list_the_known_ones() {
        // The retired `--compare X` recipe must fail, not run uncompared.
        let e = BenchArgs::parse_from(
            ["--smoke", "--compare", "BENCH_kernels.json"].map(String::from),
            &["--smoke", "--out"],
        )
        .unwrap_err();
        assert_eq!(e, "unknown flag --compare; known flags: --json --trace-out --smoke --out");
        // A binary's own flag is unknown to a binary that did not name it.
        assert!(BenchArgs::parse_from(["--smoke".to_string()], &[]).is_err());
        assert!(BenchArgs::parse_from(["--trace-out".to_string()], &[]).is_err());
        let e = BenchArgs::parse_from(["--trace-out", "--json"].map(String::from), &[]);
        assert_eq!(e.unwrap_err(), "--trace-out requires a value, got the flag --json");
    }

    #[test]
    fn args_read_flag_values_back() {
        let own = ["--smoke", "--out", "--seed", "--reps"];
        let parse = |args: &[&str]| {
            BenchArgs::parse_from(args.iter().map(|a| a.to_string()), &own).unwrap()
        };
        let a = parse(&["--out", "/tmp/o.json", "--seed", "0x7e1e_ca57", "--reps", "1_000", "pos"]);
        assert_eq!(a.try_value("--out"), Ok(Some("/tmp/o.json")));
        assert_eq!(a.u64_value("--seed"), Ok(Some(0x7e1e_ca57)));
        assert_eq!(a.u64_value("--reps"), Ok(Some(1000)));
        // An absent flag is not an error.
        assert_eq!(a.try_value("--smoke"), Ok(None));
        assert_eq!(parse(&[]).u64_value("--seed"), Ok(None));
        // A flag with nothing after it, or with another declared flag
        // after it, has no value.
        assert_eq!(
            parse(&["--smoke", "--out"]).try_value("--out").unwrap_err(),
            "--out requires a value"
        );
        assert_eq!(
            parse(&["--out", "--smoke"]).try_value("--out").unwrap_err(),
            "--out requires a value, got the flag --smoke"
        );
        // Not an integer: the error names the flag and the text.
        let e = parse(&["--reps", "three"]).u64_value("--reps").unwrap_err();
        assert_eq!(e, "--reps: expected a decimal or 0x-hex integer, got \"three\"");
        assert!(parse(&["--seed", "0xzz"]).u64_value("--seed").is_err());
        assert!(parse(&["--seed", "-1"]).u64_value("--seed").is_err());
    }

    #[test]
    fn json_reporter_builds_a_parseable_document() {
        let mut r = Reporter::new(true);
        r.note("caveat about units");
        r.table(
            "Table X",
            &["op", "value"],
            &[vec!["Pmult".into(), "42".into()], vec!["HAdd".into(), "7".into()]],
        );
        let doc = r.to_json();
        let parsed = telemetry::json::parse(&doc.to_string()).expect("round-trips");
        let tables = parsed.get("tables").and_then(Json::as_arr).unwrap();
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].get("title").and_then(Json::as_str), Some("Table X"));
        let rows = tables[0].get("rows").and_then(Json::as_arr).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].as_arr().unwrap()[1].as_str(), Some("7"));
        let notes = parsed.get("notes").and_then(Json::as_arr).unwrap();
        assert_eq!(notes[0].as_str(), Some("caveat about units"));
    }
}
