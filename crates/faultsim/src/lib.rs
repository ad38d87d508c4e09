//! Deterministic fault-injection campaigns against the detection lattice.
//!
//! A hardware accelerator corrupts state in ways functional software
//! rarely sees: a flipped DRAM bit in a ciphertext limb, a DMA descriptor
//! dropped from a schedule, a computing unit that dies mid-kernel. This
//! crate injects software analogues of the first two and measures
//! **detection power** — which injected faults the workspace's defenses
//! catch, and which escape as silent corruption:
//!
//! * [`FaultClass::BitFlip`] — flips one bit of one RNS limb of a CKKS
//!   ciphertext through the sanctioned corruption surface
//!   (`components_mut`, which deliberately does not reseal). Caught by the
//!   per-limb integrity checksum at scheme-API boundaries
//!   (`ckks.eval`/`ckks.decrypt`/…).
//! * [`FaultClass::Transfer`] — drops, duplicates, or reorders one step of
//!   a simulator schedule between planning and execution. Caught by the
//!   [`alchemist_core::ScheduleManifest`] check in `run_checked`.
//!
//! A unit dying mid-kernel is contained where a request can fail, at the
//! service's batch boundary; `service/tests/containment.rs` and the
//! `serve_trace` / `chaos_campaign` bins exercise it.
//!
//! Campaigns follow the conformance fuzzer's repro discipline: every case
//! is a pure function of `(class, seed, case)` using the same splitmix64
//! stream ([`conformance::SplitMix64`]), and a one-line [`FaultRepro`]
//! tuple replays any case bit-for-bit via [`run_case`].
//!
//! The headline number is the **escape rate**: the fraction of injected
//! faults that neither any detector caught nor turned out to be benign
//! (the corruption was never consumed, e.g. a reorder that produced an
//! identical schedule). The campaign expects an escape rate of exactly zero
//! for both classes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;

use std::collections::BTreeMap;
use std::fmt;
use std::sync::OnceLock;

use alchemist_core::{ArchConfig, ScheduleManifest, SimError, Simulator, Step};
pub use conformance::SplitMix64;
use fhe_ckks::{Ciphertext, CkksContext, CkksError, CkksParams, Encoder, Evaluator, SecretKey};
use metaop::OpClass;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Default campaign seed when the caller does not supply one.
pub const DEFAULT_SEED: u64 = 0xFA17_5EED_0000_0001;

/// Default cases per fault class for a full campaign run.
pub const DEFAULT_CASES: u64 = 500;

// ---------------------------------------------------------------------------
// Fault classes, outcomes, repro tuples

/// The injected fault classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultClass {
    /// One bit of one ciphertext limb flipped behind the seal.
    BitFlip,
    /// One schedule step dropped, duplicated, or reordered.
    Transfer,
}

impl FaultClass {
    /// All classes, in campaign order.
    pub const ALL: [FaultClass; 2] = [FaultClass::BitFlip, FaultClass::Transfer];

    /// Stable name used in repro tuples, JSON, and telemetry counters.
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::BitFlip => "bitflip",
            FaultClass::Transfer => "transfer",
        }
    }

    /// Parses a stable name back into a class.
    pub fn from_name(s: &str) -> Option<Self> {
        FaultClass::ALL.into_iter().find(|c| c.name() == s)
    }

    fn tag(self) -> u64 {
        // Fixed per-class stream separators (arbitrary odd constants).
        match self {
            FaultClass::BitFlip => 0x6269_7401,
            FaultClass::Transfer => 0x7472_616E,
        }
    }
}

/// What happened to one injected fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// A defense caught the fault and surfaced a typed error.
    Detected {
        /// Which detector fired: `"checksum"`, `"noise-budget"`,
        /// `"schedule-manifest"`, or `"typed-error"` for other structural
        /// rejections.
        by: &'static str,
        /// Human-readable evidence (the error's display text).
        detail: String,
    },
    /// The fault was consumed and no defense fired: silent corruption.
    Escaped {
        /// What went silently wrong.
        detail: String,
    },
    /// The fault never took effect (e.g. a reorder that produced an
    /// identical schedule).
    Benign {
        /// Why the injection was a no-op.
        detail: String,
    },
}

impl Outcome {
    fn label(&self) -> &'static str {
        match self {
            Outcome::Detected { .. } => "detected",
            Outcome::Escaped { .. } => "escaped",
            Outcome::Benign { .. } => "benign",
        }
    }
}

/// One-line reproduction tuple for a campaign case, mirroring
/// [`conformance::Repro`]: feeding the printed `(class, seed, case)` back
/// into [`run_case`] replays the injection bit-for-bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRepro {
    /// Fault class name.
    pub class: FaultClass,
    /// Global campaign seed.
    pub seed: u64,
    /// Case index within the class.
    pub case: u64,
    /// The case's outcome.
    pub outcome: Outcome,
}

impl fmt::Display for FaultRepro {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let detail = match &self.outcome {
            Outcome::Detected { by, detail } => format!("by={by}: {detail}"),
            Outcome::Escaped { detail } | Outcome::Benign { detail } => detail.clone(),
        };
        write!(
            f,
            "fault={} seed={:#018x} case={} outcome={} {}",
            self.class.name(),
            self.seed,
            self.case,
            self.outcome.label(),
            detail
        )
    }
}

/// Derives the per-case generator: classes get decorrelated streams and
/// every case is independently seeded (same construction as the
/// conformance fuzzer), so a pinned `(seed, case)` pair replays without
/// running earlier cases.
fn case_rng(class: FaultClass, seed: u64, case: u64) -> SplitMix64 {
    let mut mixer = SplitMix64::new(seed ^ class.tag().wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let a = mixer.next_u64();
    SplitMix64::new(a ^ case.wrapping_mul(0xD134_2543_DE82_EF95))
}

// ---------------------------------------------------------------------------
// Shared fixtures (deterministic, cached)

/// Toy CKKS fixture: context, secret key, evaluator inputs. Key material is
/// derived from a fixed internal seed — campaign variation comes from the
/// per-case plaintext and corruption draws, not from re-keying.
struct CkksFixture {
    ctx: CkksContext,
    sk: SecretKey,
}

fn ckks_fixture() -> &'static CkksFixture {
    static FIX: OnceLock<CkksFixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let ctx = CkksContext::new(CkksParams::new(64, 3, 2, 30).expect("toy params"))
            .expect("toy context");
        let mut rng = ChaCha8Rng::seed_from_u64(0xC0FF_EE00);
        let sk = SecretKey::generate(&ctx, &mut rng).expect("keygen");
        CkksFixture { ctx, sk }
    })
}

// ---------------------------------------------------------------------------
// Case runners

/// Runs one campaign case, identified exactly by `(class, seed, case)`.
pub fn run_case(class: FaultClass, seed: u64, case: u64) -> FaultRepro {
    let rng = case_rng(class, seed, case);
    let outcome = match class {
        FaultClass::BitFlip => bitflip_case(rng),
        FaultClass::Transfer => transfer_case(rng),
    };
    FaultRepro { class, seed, case, outcome }
}

/// Flips bit `bit` of limb `coeff` in channel `channel` of one ciphertext
/// component, bypassing the reseal (the sanctioned corruption surface).
fn flip_ckks(ct: &mut Ciphertext, rng: &mut SplitMix64) -> String {
    let (c0, c1) = ct.components_mut();
    let comp = rng.below(2);
    let target = if comp == 0 { c0 } else { c1 };
    let ch = rng.below(target.channels_mut().len() as u64) as usize;
    let poly = &mut target.channels_mut()[ch];
    let idx = rng.below(poly.coeffs_mut().len() as u64) as usize;
    let bit = rng.below(64) as u32;
    poly.coeffs_mut()[idx] ^= 1u64 << bit;
    format!("c{comp} channel {ch} coeff {idx} bit {bit}")
}

/// Bit-flip class: corrupt a fresh ciphertext, then push it through the
/// public API (evaluator boundary, then decryption) and see who notices.
fn bitflip_case(mut rng: SplitMix64) -> Outcome {
    let fix = ckks_fixture();
    let enc = Encoder::new(&fix.ctx);
    let ev = Evaluator::new(&fix.ctx);
    let mut crng = ChaCha8Rng::seed_from_u64(rng.next_u64());
    let values: Vec<f64> =
        (0..enc.slots()).map(|_| (rng.below(2001) as f64 - 1000.0) / 1000.0).collect();
    let pt = match enc.encode(&values) {
        Ok(pt) => pt,
        Err(e) => return Outcome::Escaped { detail: format!("encode failed pre-fault: {e}") },
    };
    let mut ct = match fix.sk.encrypt(&fix.ctx, &pt, &mut crng) {
        Ok(ct) => ct,
        Err(e) => return Outcome::Escaped { detail: format!("encrypt failed pre-fault: {e}") },
    };
    let where_ = flip_ckks(&mut ct, &mut rng);

    // Boundary 1: the evaluator (every binary/unary op re-verifies).
    match ev.add(&ct, &ct) {
        Err(CkksError::IntegrityViolation { context }) => {
            return Outcome::Detected {
                by: "checksum",
                detail: format!("ckks {where_} caught at {context}"),
            }
        }
        Err(e) => return Outcome::Detected { by: "typed-error", detail: format!("ckks add: {e}") },
        Ok(_) => {}
    }
    // Boundary 2: decryption (checksum again, then the noise budget).
    match fix.sk.decrypt(&ct) {
        Err(CkksError::IntegrityViolation { context }) => Outcome::Detected {
            by: "checksum",
            detail: format!("ckks {where_} caught at {context}"),
        },
        Err(CkksError::BudgetExhausted { budget_bits }) => Outcome::Detected {
            by: "noise-budget",
            detail: format!("ckks {where_}: budget {budget_bits:.1} bits"),
        },
        Err(e) => Outcome::Detected { by: "typed-error", detail: format!("ckks decrypt: {e}") },
        Ok(out) => match enc.decode(&out) {
            Err(e) => Outcome::Detected { by: "typed-error", detail: format!("ckks decode: {e}") },
            Ok(got) => {
                let err =
                    got.iter().zip(&values).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
                if err > 0.05 {
                    Outcome::Escaped {
                        detail: format!(
                            "ckks {where_}: silent corruption, max slot error {err:.3}"
                        ),
                    }
                } else {
                    Outcome::Benign {
                        detail: format!("ckks {where_}: result within tolerance ({err:.2e})"),
                    }
                }
            }
        },
    }
}

/// Transfer class: fingerprint a random schedule, tamper with it, and run
/// the checked simulator entry point.
fn transfer_case(mut rng: SplitMix64) -> Outcome {
    let classes = [OpClass::Ntt, OpClass::Bconv, OpClass::DecompPolyMult, OpClass::Elementwise];
    let len = 3 + rng.below(10) as usize;
    let steps: Vec<Step> = (0..len)
        .map(|i| match rng.below(3) {
            0 => Step::compute(
                format!("s{i}.compute"),
                classes[rng.below(4) as usize],
                1 + rng.below(1 << 12),
                1 + rng.below(16) as u32,
            ),
            1 => Step::adds(format!("s{i}.adds"), 1 + rng.below(1 << 12)),
            _ => Step::transfer(format!("s{i}.dma"), rng.below(1 << 20), rng.below(1 << 16)),
        })
        .collect();
    let manifest = ScheduleManifest::of(&steps);

    let mut tampered = steps.clone();
    let mutation = match rng.below(3) {
        0 => {
            let at = rng.below(tampered.len() as u64) as usize;
            tampered.remove(at);
            format!("dropped step {at}")
        }
        1 => {
            let at = rng.below(tampered.len() as u64) as usize;
            let dup = tampered[at].clone();
            tampered.insert(at, dup);
            format!("duplicated step {at}")
        }
        _ => {
            let i = rng.below(tampered.len() as u64) as usize;
            let mut j = rng.below(tampered.len() as u64) as usize;
            if i == j {
                j = (i + 1) % tampered.len();
            }
            tampered.swap(i, j);
            format!("swapped steps {i} and {j}")
        }
    };

    if ScheduleManifest::of(&tampered) == manifest {
        // e.g. two identical steps swapped: the schedule is unchanged.
        return Outcome::Benign { detail: format!("{mutation}: schedule unchanged") };
    }
    let sim = Simulator::new(ArchConfig::paper());
    match sim.run_checked(&tampered, &manifest) {
        Err(SimError::ScheduleIntegrity { detail }) => {
            Outcome::Detected { by: "schedule-manifest", detail: format!("{mutation}: {detail}") }
        }
        Err(e) => Outcome::Detected { by: "typed-error", detail: format!("{mutation}: {e}") },
        Ok(_) => Outcome::Escaped { detail: format!("{mutation}: checked run accepted tampering") },
    }
}

// ---------------------------------------------------------------------------
// Campaign aggregation

/// Per-class tally of one campaign.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClassSummary {
    /// Cases injected.
    pub injected: u64,
    /// Cases a defense caught.
    pub detected: u64,
    /// Cases that escaped as silent corruption.
    pub escaped: u64,
    /// Cases where the injection never took effect.
    pub benign: u64,
    /// Detected count by detector name.
    pub detectors: BTreeMap<&'static str, u64>,
    /// Repro lines of every escaped case (empty in a clean run).
    pub escapes: Vec<String>,
}

/// The result of a full campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignReport {
    /// Global seed.
    pub seed: u64,
    /// Cases per class.
    pub cases_per_class: u64,
    /// Per-class tallies, in [`FaultClass::ALL`] order (restricted to the
    /// classes that ran).
    pub classes: Vec<(FaultClass, ClassSummary)>,
}

impl CampaignReport {
    /// Total injected cases.
    pub fn injected(&self) -> u64 {
        self.classes.iter().map(|(_, s)| s.injected).sum()
    }

    /// Total escaped cases.
    pub fn escaped(&self) -> u64 {
        self.classes.iter().map(|(_, s)| s.escaped).sum()
    }

    /// The headline number: escaped / injected (0.0 for an empty run).
    pub fn escape_rate(&self) -> f64 {
        let injected = self.injected();
        if injected == 0 {
            0.0
        } else {
            self.escaped() as f64 / injected as f64
        }
    }

    /// Tally for one class, if it ran.
    pub fn class(&self, class: FaultClass) -> Option<&ClassSummary> {
        self.classes.iter().find(|(c, _)| *c == class).map(|(_, s)| s)
    }

    /// Records the campaign outcome into telemetry named counters
    /// (`fault.<class>.{injected,detected,escaped,benign}`).
    pub fn record_telemetry(&self, tel: &telemetry::Telemetry) {
        for (class, s) in &self.classes {
            let name = class.name();
            tel.count_named(&format!("fault.{name}.injected"), s.injected);
            tel.count_named(&format!("fault.{name}.detected"), s.detected);
            tel.count_named(&format!("fault.{name}.escaped"), s.escaped);
            tel.count_named(&format!("fault.{name}.benign"), s.benign);
        }
    }

    /// Machine-readable JSON (self-contained, no external dependencies).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"seed\":\"{:#018x}\",\"cases_per_class\":{},\"escape_rate\":{},\"classes\":[",
            self.seed,
            self.cases_per_class,
            self.escape_rate()
        );
        for (i, (class, s)) in self.classes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"class\":\"{}\",\"injected\":{},\"detected\":{},\"escaped\":{},\
                 \"benign\":{},\"detectors\":{{",
                class.name(),
                s.injected,
                s.detected,
                s.escaped,
                s.benign
            );
            for (j, (det, count)) in s.detectors.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{det}\":{count}");
            }
            out.push_str("},\"escapes\":[");
            for (j, line) in s.escapes.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                // Escape lines contain only printable content from error
                // Display impls; quote-escape defensively anyway.
                let _ = write!(out, "\"{}\"", line.replace('\\', "\\\\").replace('"', "\\\""));
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    /// Human-readable multi-line summary with the escape-rate headline.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fault campaign: seed={:#018x}, {} cases/class",
            self.seed, self.cases_per_class
        );
        for (class, s) in &self.classes {
            let dets: Vec<String> = s.detectors.iter().map(|(d, c)| format!("{d}:{c}")).collect();
            let _ = writeln!(
                out,
                "  {:<12} injected {:>5}  detected {:>5}  escaped {:>5}  benign {:>5}  [{}]",
                class.name(),
                s.injected,
                s.detected,
                s.escaped,
                s.benign,
                dets.join(", ")
            );
        }
        let _ = writeln!(
            out,
            "  escape rate: {:.4} ({} / {})",
            self.escape_rate(),
            self.escaped(),
            self.injected()
        );
        out
    }
}

/// Runs a campaign over `classes` with `cases` per class, recording the
/// outcome into `tel` (pass a disabled handle to skip).
pub fn run_campaign_classes(
    classes: &[FaultClass],
    seed: u64,
    cases: u64,
    tel: &telemetry::Telemetry,
) -> CampaignReport {
    let mut out = Vec::with_capacity(classes.len());
    for &class in classes {
        let mut s = ClassSummary::default();
        for case in 0..cases {
            let repro = run_case(class, seed, case);
            s.injected += 1;
            // Live per-case counter so a sampler watching this campaign
            // sees progress between the end-of-campaign class totals.
            tel.count_named("fault.cases.run", 1);
            match &repro.outcome {
                Outcome::Detected { by, .. } => {
                    s.detected += 1;
                    *s.detectors.entry(by).or_insert(0) += 1;
                }
                Outcome::Escaped { .. } => {
                    s.escaped += 1;
                    s.escapes.push(repro.to_string());
                    // An escape is the post-mortem moment: snapshot the
                    // recent event ring while the trail is still warm.
                    let _ = telemetry::flight::fault_dump("escape");
                }
                Outcome::Benign { .. } => s.benign += 1,
            }
        }
        out.push((class, s));
    }
    let report = CampaignReport { seed, cases_per_class: cases, classes: out };
    report.record_telemetry(tel);
    report
}

/// Runs the full two-class campaign (see [`run_campaign_classes`]).
pub fn run_campaign(seed: u64, cases: u64, tel: &telemetry::Telemetry) -> CampaignReport {
    run_campaign_classes(&FaultClass::ALL, seed, cases, tel)
}

/// Containment hooks shared with layers above the campaign runner.
///
/// The serving layer (`crates/service`) injects the same fault shapes the
/// campaign exercises — coefficient bit flips — but inside its own request
/// lifecycle. This re-export gives it the sanctioned corruption surface
/// without duplicating the logic.
pub mod hooks {
    use super::*;

    /// Flips one pseudo-random bit of a CKKS ciphertext, bypassing the
    /// reseal, and returns a human-readable description of the flip site.
    /// Deterministic in `seed`.
    pub fn flip_ckks_bit(ct: &mut Ciphertext, seed: u64) -> String {
        let mut rng = SplitMix64::new(seed);
        flip_ckks(ct, &mut rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CASES: u64 = 40;

    #[test]
    fn campaign_is_deterministic() {
        let tel = telemetry::Telemetry::disabled();
        let a = run_campaign(DEFAULT_SEED, 10, &tel);
        let b = run_campaign(DEFAULT_SEED, 10, &tel);
        assert_eq!(a, b, "same seed must replay identically");
        assert_eq!(a.to_json(), b.to_json());
        let c = run_campaign(DEFAULT_SEED ^ 1, 10, &tel);
        assert_ne!(a.to_json(), c.to_json(), "different seeds must differ somewhere");
    }

    #[test]
    fn bitflips_never_escape_with_checksums_on() {
        let tel = telemetry::Telemetry::disabled();
        let report = run_campaign_classes(&[FaultClass::BitFlip], DEFAULT_SEED, CASES, &tel);
        let s = report.class(FaultClass::BitFlip).unwrap();
        assert_eq!(s.injected, CASES);
        assert_eq!(s.escaped, 0, "escapes: {:?}", s.escapes);
        // With the checksum active every flip is caught at the first
        // verify boundary — nothing reaches the budget or decode stage.
        assert_eq!(s.detected, CASES);
        assert_eq!(s.detectors.get("checksum"), Some(&CASES));
    }

    #[test]
    fn transfer_faults_never_escape() {
        // The manifest check is exact: any mutation that changes the
        // schedule must be detected.
        let tel = telemetry::Telemetry::disabled();
        let report = run_campaign_classes(&[FaultClass::Transfer], DEFAULT_SEED, CASES, &tel);
        let s = report.class(FaultClass::Transfer).unwrap();
        assert_eq!(s.escaped, 0, "escapes: {:?}", s.escapes);
        assert!(s.detected > 0, "mutations must fire: {s:?}");
        assert_eq!(s.detectors.get("schedule-manifest"), Some(&s.detected));
    }

    #[test]
    fn repro_line_replays_one_case() {
        let line = run_case(FaultClass::BitFlip, DEFAULT_SEED, 3);
        let again = run_case(FaultClass::BitFlip, DEFAULT_SEED, 3);
        assert_eq!(line, again);
        let printed = line.to_string();
        assert!(printed.contains("fault=bitflip"), "{printed}");
        assert!(printed.contains("case=3"), "{printed}");
        assert!(!printed.contains('\n'), "{printed}");
    }

    #[test]
    fn report_json_is_valid_and_telemetry_counters_land() {
        let tel = telemetry::Telemetry::enabled();
        let report = run_campaign(DEFAULT_SEED, 5, &tel);
        // The JSON must parse with the workspace's own parser.
        let doc = telemetry::json::parse(&report.to_json()).expect("valid JSON");
        assert_eq!(
            doc.get("cases_per_class").and_then(|v| v.as_f64()),
            Some(5.0),
            "cases_per_class"
        );
        let classes = doc.get("classes").unwrap().as_arr().unwrap();
        assert_eq!(classes.len(), 2);
        for row in classes {
            let injected = row.get("injected").unwrap().as_f64().unwrap();
            let detected = row.get("detected").unwrap().as_f64().unwrap();
            let escaped = row.get("escaped").unwrap().as_f64().unwrap();
            let benign = row.get("benign").unwrap().as_f64().unwrap();
            assert_eq!(injected, detected + escaped + benign, "tally must balance");
        }
        // Named counters flow into the telemetry snapshot.
        let snap = tel.snapshot();
        assert_eq!(snap.named_counter("fault.bitflip.injected"), 5);
        assert_eq!(snap.named_counter("fault.transfer.injected"), 5);
        // The summary carries the headline.
        assert!(report.summary().contains("escape rate"), "{}", report.summary());
    }

    #[test]
    fn class_names_round_trip() {
        for class in FaultClass::ALL {
            assert_eq!(FaultClass::from_name(class.name()), Some(class));
        }
        assert_eq!(FaultClass::from_name("nope"), None);
    }
}
