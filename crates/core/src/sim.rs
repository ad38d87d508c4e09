//! The cycle-level simulator.
//!
//! A workload is a sequence of [`Step`]s; each step occupies three
//! resources — the Meta-OP core pipeline, aggregate scratchpad bandwidth,
//! and HBM bandwidth — and double buffering overlaps them, so a step's
//! latency is the maximum of its three resource times (the paper's
//! time-shared schedule with 64+2 MB of SRAM removes all other stalls,
//! §5.4). Utilization is compute-busy cycles over total cycles, reported
//! overall and per operator class (Fig. 7b).

use crate::ArchConfig;
use metaop::OpClass;

/// One scheduled step of a workload.
#[derive(Debug, Clone)]
pub struct Step {
    /// Human-readable label (kernels print these in traces).
    pub label: String,
    /// Operator class for the utilization breakdown.
    pub class: OpClass,
    /// Total Meta-OP instances across the chip.
    pub meta_ops: u64,
    /// The Meta-OP iteration parameter `n`.
    pub n: u32,
    /// `true` for addition-only work (`Hadd`): one cycle per op, the
    /// multiplier array idles.
    pub add_only: bool,
    /// Off-chip traffic in bytes (key material, spills).
    pub hbm_bytes: u64,
    /// On-chip scratchpad traffic in bytes (reads + writes).
    pub onchip_bytes: u64,
}

impl Step {
    /// A pure compute step.
    pub fn compute(label: impl Into<String>, class: OpClass, meta_ops: u64, n: u32) -> Self {
        Step {
            label: label.into(),
            class,
            meta_ops,
            n,
            add_only: false,
            hbm_bytes: 0,
            onchip_bytes: 0,
        }
    }

    /// An addition-only step (no multiplier usage).
    pub fn adds(label: impl Into<String>, ops: u64) -> Self {
        Step {
            label: label.into(),
            class: OpClass::Elementwise,
            meta_ops: ops,
            n: 1,
            add_only: true,
            hbm_bytes: 0,
            onchip_bytes: 0,
        }
    }

    /// A pure data-movement step (DMA, transpose, automorphism shuffles).
    pub fn transfer(label: impl Into<String>, hbm_bytes: u64, onchip_bytes: u64) -> Self {
        Step {
            label: label.into(),
            class: OpClass::Transfer,
            meta_ops: 0,
            n: 1,
            add_only: true,
            hbm_bytes,
            onchip_bytes,
        }
    }

    /// Converts a functional Meta-OP trace (from the `metaop` lowerings)
    /// into simulator steps, one per aggregated `(descriptor, count)`
    /// entry — the path from *executing* an operator in software to
    /// *scheduling* it on the modeled hardware.
    pub fn from_trace(label_prefix: &str, trace: &metaop::MetaOpTrace) -> Vec<Step> {
        trace
            .entries()
            .iter()
            .enumerate()
            .map(|(i, &(op, count))| {
                Step::compute(
                    format!("{label_prefix}/{}#{i}", op.class()),
                    op.class(),
                    count,
                    op.n(),
                )
            })
            .collect()
    }

    /// Adds HBM traffic to the step.
    pub fn with_hbm(mut self, bytes: u64) -> Self {
        self.hbm_bytes += bytes;
        self
    }

    /// Adds scratchpad traffic to the step.
    pub fn with_onchip(mut self, bytes: u64) -> Self {
        self.onchip_bytes += bytes;
        self
    }

    /// Core-pipeline cycles on `arch`.
    pub fn compute_cycles(&self, arch: &ArchConfig) -> u64 {
        if self.meta_ops == 0 {
            return 0;
        }
        pipeline_cycles(self, arch.total_cores() as u64, arch.pipeline_efficiency)
    }

    /// Scratchpad-bandwidth cycles.
    pub fn onchip_cycles(&self, arch: &ArchConfig) -> u64 {
        transfer_cycles(self.onchip_bytes, arch.onchip_bytes_per_cycle)
    }

    /// HBM-bandwidth cycles.
    pub fn hbm_cycles(&self, arch: &ArchConfig) -> u64 {
        transfer_cycles(self.hbm_bytes, arch.hbm_bytes_per_cycle)
    }
}

// The step costs are spelled for the baseline x86-64 target, which has no
// `roundsd` (SSE4.1) and no unsigned conversion between `u64` and `f64`:
// there `f64::ceil` / `f64::round` are calls into the C library and
// `as f64` / `as u64` on a `u64` are multi-instruction sequences. Here a
// count converts through `i64` (`cvtsi2sd`), a quotient truncates through
// `i64` (`cvttsd2si`), and a ceiling is a rounding plus a compare.
//
// The range those spellings rest on: every value is a count — Meta-OP
// waves × cycles per op, bytes, cycles — or its quotient by a positive
// constant of the architecture (`Simulator::new` validates it), so it is
// non-negative, and below 2^52 unless the count itself is or the constant
// is absurdly small. The paper's programs stay below 2^24 cycles and 2^35
// bytes. A value outside a spelling's range, NaN included, takes the
// reference spelling out of line (`cold`), so every result is the one
// `as` / `ceil` / `round` give, for every input.

/// Runs `f` out of line: the reference spelling, for a value outside the
/// range of the fast one.
#[cold]
#[inline(never)]
fn cold<T>(f: impl FnOnce() -> T) -> T {
    f()
}

/// `x as f64`: through `i64` below 2^63, where both round the same value
/// to nearest.
#[inline(always)]
fn count_to_f64(x: u64) -> f64 {
    match i64::try_from(x) {
        Ok(x) => x as f64,
        Err(_) => cold(|| x as f64),
    }
}

/// `q as u64`.
///
/// `q as i64` saturates: NaN gives 0, `q ≥ 2^63` gives `i64::MAX`. A
/// result `t` in `[0, i64::MAX)` therefore comes from a NaN, for which
/// `as u64` gives 0 too, or from `q` in `(−1, 2^63)`, of which it is the
/// truncation. Any other `q` takes the reference spelling.
#[inline(always)]
fn trunc_to_count(q: f64) -> u64 {
    let t = q as i64;
    if (0..i64::MAX).contains(&t) {
        t as u64
    } else {
        cold(|| q as u64)
    }
}

/// `q.round() as u64`: the truncation `t` (as in [`trunc_to_count`]),
/// plus one where the fraction it dropped is at least one half (`round`
/// takes halves away from zero; NaN gives 0). `q − t` is exact: `t` and
/// `q` are less than 1 apart, and `t` is 0 or at least half of `q`.
#[inline(always)]
fn round_to_count(q: f64) -> u64 {
    let t = q as i64;
    if (0..i64::MAX).contains(&t) {
        (t + i64::from(q - t as f64 >= 0.5)) as u64
    } else {
        cold(|| q.round() as u64)
    }
}

/// `2^52`: from here to `2^53` the `f64`s are exactly the integers.
const TWO_POW_52: f64 = 4_503_599_627_370_496.0;

/// `q.ceil() as u64`.
///
/// For `q` in `[0, 2^52)` the addition `q + 2^52` rounds `q` to the
/// nearest integer `m` (ties to even): the sum is `2^52 + m`, so its bit
/// pattern exceeds 2^52's by `m` (also when it is `2^53`), and subtracting
/// 2^52 again gives `m` exactly. `m` is the ceiling, or one short of it
/// where it lies below `q`. Comparing bit patterns admits exactly that
/// range: every negative number, infinity and NaN has a larger one than
/// 2^52. A truncation through `i64` in place of the rounding costs a
/// round trip through the integer unit and its saturation checks.
#[inline(always)]
fn ceil_to_count(q: f64) -> u64 {
    if q.to_bits() < TWO_POW_52.to_bits() {
        let biased = q + TWO_POW_52;
        let m = biased.to_bits() - TWO_POW_52.to_bits();
        m + u64::from(biased - TWO_POW_52 < q)
    } else {
        cold(|| q.ceil() as u64)
    }
}

/// Cycles to move `bytes` at `bytes_per_cycle`.
#[inline(always)]
fn transfer_cycles(bytes: u64, bytes_per_cycle: f64) -> u64 {
    ceil_to_count(count_to_f64(bytes) / bytes_per_cycle)
}

/// Core-pipeline cycles of `step` on `cores` cores sustaining
/// `efficiency` of peak: whole waves of `n + 2`-cycle Meta-OPs (one cycle
/// for add-only work). `cores` must be positive; a step with no Meta-OPs
/// then costs 0.
#[inline(always)]
fn pipeline_cycles(step: &Step, cores: u64, efficiency: f64) -> u64 {
    let per_op = if step.add_only { 1 } else { u64::from(step.n) + 2 };
    let waves = step.meta_ops.div_ceil(cores);
    ceil_to_count(count_to_f64(waves * per_op) / efficiency)
}

/// Errors surfaced by checked simulation entry points.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The schedule handed to [`Simulator::run_checked`] does not match its
    /// manifest: steps were dropped, duplicated, reordered, or mutated
    /// between planning and execution.
    ScheduleIntegrity {
        /// Human-readable mismatch description.
        detail: String,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::ScheduleIntegrity { detail } => {
                write!(f, "schedule integrity violation: {detail}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// An order-sensitive fingerprint of a planned schedule.
///
/// Captured once at planning time and re-checked at execution time by
/// [`Simulator::run_checked`], it detects the transfer-level fault classes
/// the fault campaign injects — dropped, duplicated, or reordered steps —
/// as well as any mutation of a step's fields. The digest folds every step
/// field through a splitmix64-style mixer, so it is order-sensitive; the
/// per-class traffic totals give mismatch messages a quick directional
/// hint (e.g. "HBM bytes shrank: a transfer was dropped").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleManifest {
    /// Number of steps in the schedule.
    pub steps: usize,
    /// Order-sensitive 64-bit digest over every field of every step.
    pub digest: u64,
    /// Total HBM bytes across all steps.
    pub hbm_bytes: u64,
    /// Total scratchpad bytes across all steps.
    pub onchip_bytes: u64,
    /// Total Meta-OP instances across all steps.
    pub meta_ops: u64,
}

/// splitmix64 finalizer: the bijective mixer used throughout the repo's
/// seeded/fingerprinting code paths.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Incremental fingerprint accumulator behind [`ScheduleManifest::of`].
///
/// Generalizes the manifest so planning layers above the simulator (e.g.
/// a service compiling request DAGs into execution plans) can fold their
/// own structured fields — op kinds, tenant parameters, slot ranges —
/// into the *same* order-sensitive digest scheme before lowering to
/// [`Step`]s, instead of inventing a second fingerprint format. Steps
/// pushed through [`push_step`](Self::push_step) produce digests
/// bit-identical to `ScheduleManifest::of`; extra
/// [`fold_u64`](Self::fold_u64) / [`fold_bytes`](Self::fold_bytes) calls
/// deliberately diverge the digest, which distinguishes two plans that
/// lower to the same steps but mean different things (e.g. different
/// per-request slot assignments).
#[derive(Debug, Clone)]
pub struct ManifestBuilder {
    digest: u64,
    items: usize,
    hbm_bytes: u64,
    onchip_bytes: u64,
    meta_ops: u64,
}

impl Default for ManifestBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ManifestBuilder {
    /// An empty accumulator (same seed as [`ScheduleManifest::of`]).
    pub fn new() -> Self {
        ManifestBuilder {
            digest: 0x243f_6a88_85a3_08d3, // π, arbitrary non-zero seed
            items: 0,
            hbm_bytes: 0,
            onchip_bytes: 0,
            meta_ops: 0,
        }
    }

    /// Folds one raw 64-bit word (order-sensitive).
    pub fn fold_u64(&mut self, x: u64) -> &mut Self {
        self.digest = mix64(self.digest ^ x);
        self
    }

    /// Folds a byte string, one mixer round per byte.
    pub fn fold_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for b in bytes {
            self.fold_u64(u64::from(*b));
        }
        self
    }

    /// Folds one schedule step at the next position and accumulates its
    /// traffic totals.
    pub fn push_step(&mut self, s: &Step) -> &mut Self {
        // Position is folded in explicitly so swapping two identical-
        // digest steps still changes nothing, but swapping two distinct
        // steps always does.
        self.fold_u64(self.items as u64);
        self.fold_bytes(s.label.as_bytes());
        self.fold_u64(s.class as u64);
        self.fold_u64(s.meta_ops);
        self.fold_u64(u64::from(s.n));
        self.fold_u64(u64::from(s.add_only));
        self.fold_u64(s.hbm_bytes);
        self.fold_u64(s.onchip_bytes);
        self.items += 1;
        self.hbm_bytes += s.hbm_bytes;
        self.onchip_bytes += s.onchip_bytes;
        self.meta_ops += s.meta_ops;
        self
    }

    /// The digest accumulated so far (useful as a plan fingerprint on its
    /// own, without the step totals).
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Seals the accumulator into a manifest.
    pub fn finish(&self) -> ScheduleManifest {
        ScheduleManifest {
            steps: self.items,
            digest: self.digest,
            hbm_bytes: self.hbm_bytes,
            onchip_bytes: self.onchip_bytes,
            meta_ops: self.meta_ops,
        }
    }
}

impl ScheduleManifest {
    /// Fingerprints a schedule.
    pub fn of(steps: &[Step]) -> Self {
        let mut b = ManifestBuilder::new();
        for s in steps {
            b.push_step(s);
        }
        b.finish()
    }

    /// Checks a schedule against this manifest, describing the first
    /// discrepancy found.
    ///
    /// # Errors
    ///
    /// [`SimError::ScheduleIntegrity`] when the schedule was tampered with.
    pub fn check(&self, steps: &[Step]) -> Result<(), SimError> {
        let got = ScheduleManifest::of(steps);
        if got == *self {
            return Ok(());
        }
        let detail = if got.steps != self.steps {
            format!("step count changed: manifest {} vs schedule {}", self.steps, got.steps)
        } else if got.hbm_bytes != self.hbm_bytes {
            format!(
                "HBM traffic changed: manifest {} B vs schedule {} B",
                self.hbm_bytes, got.hbm_bytes
            )
        } else if got.onchip_bytes != self.onchip_bytes {
            format!(
                "scratchpad traffic changed: manifest {} B vs schedule {} B",
                self.onchip_bytes, got.onchip_bytes
            )
        } else if got.meta_ops != self.meta_ops {
            format!(
                "Meta-OP total changed: manifest {} vs schedule {}",
                self.meta_ops, got.meta_ops
            )
        } else {
            format!(
                "step order or fields changed: digest {:#018x} vs {:#018x}",
                self.digest, got.digest
            )
        };
        Err(SimError::ScheduleIntegrity { detail })
    }
}

/// Per-class accounting in a report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassStats {
    /// Cycles the cores were busy on this class.
    pub busy_cycles: u64,
    /// Wall cycles attributed to steps of this class (busy + stalls).
    pub attributed_cycles: u64,
}

/// The result of simulating a workload.
#[derive(Debug, Clone)]
pub struct SimReport {
    arch: ArchConfig,
    /// Total wall cycles.
    pub cycles: u64,
    /// Total compute-busy cycles.
    pub busy_cycles: u64,
    /// Total HBM bytes moved.
    pub hbm_bytes: u64,
    /// Total scratchpad bytes moved.
    pub onchip_bytes: u64,
    /// In `OpClass::all()` order, which is discriminant order: indexed by
    /// `class as usize`.
    per_class: [(OpClass, ClassStats); 5],
}

impl SimReport {
    /// Wall-clock seconds at the configured frequency.
    pub fn seconds(&self) -> f64 {
        self.cycles as f64 * self.arch.cycle_seconds()
    }

    /// Overall compute-resource utilization (busy / total).
    pub fn utilization(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.busy_cycles as f64 / self.cycles as f64
        }
    }

    /// Busy and attributed cycles of one class.
    pub fn class_stats(&self, class: OpClass) -> ClassStats {
        self.per_class[class as usize].1
    }

    /// Utilization within steps of one class.
    pub fn class_utilization(&self, class: OpClass) -> f64 {
        let stats = self.class_stats(class);
        if stats.attributed_cycles == 0 {
            0.0
        } else {
            stats.busy_cycles as f64 / stats.attributed_cycles as f64
        }
    }

    /// Fraction of wall cycles attributed to each class.
    pub fn class_time_fractions(&self) -> [(OpClass, f64); 5] {
        let total = self.cycles.max(1) as f64;
        self.per_class.map(|(c, s)| (c, s.attributed_cycles as f64 / total))
    }

    /// The architecture the report was produced on.
    pub fn arch(&self) -> &ArchConfig {
        &self.arch
    }

    /// Operations per second if the simulated sequence covered `batch`
    /// logical operations.
    pub fn throughput(&self, batch: u64) -> f64 {
        batch as f64 / self.seconds()
    }

    /// Energy in millijoules at the configuration's average power (the
    /// paper's 77.9 W at the default configuration, scaled by active area).
    pub fn energy_mj(&self) -> f64 {
        crate::AreaModel::new(self.arch).average_power_w() * self.seconds() * 1e3
    }

    /// A human-readable multi-line summary (cycles, time, utilization,
    /// per-class split, traffic).
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} cycles ({:.3} ms @ {} GHz), utilization {:.2}",
            self.cycles,
            self.seconds() * 1e3,
            self.arch.freq_ghz,
            self.utilization()
        );
        for (class, frac) in self.class_time_fractions() {
            if frac > 0.0005 {
                let _ = writeln!(
                    out,
                    "  {class:<18} {:>5.1}% of time, class utilization {:.2}",
                    frac * 100.0,
                    self.class_utilization(class)
                );
            }
        }
        let _ = writeln!(
            out,
            "  traffic: {:.1} MB HBM, {:.1} MB scratchpad",
            self.hbm_bytes as f64 / 1e6,
            self.onchip_bytes as f64 / 1e6
        );
        out
    }
}

/// The simulator.
#[derive(Debug, Clone, Copy)]
pub struct Simulator {
    arch: ArchConfig,
    /// `arch.total_cores()`, at least 1.
    cores: u64,
    /// Simulated nanoseconds per cycle (1 at the paper's 1 GHz).
    ns_per_cycle: f64,
}

impl Simulator {
    /// Creates a simulator for a configuration.
    ///
    /// # Panics
    ///
    /// If `arch` fails [`ArchConfig::validate`] — a zero bandwidth or
    /// efficiency would make every step cost `u64::MAX` cycles — with the
    /// violated constraint in the message.
    pub fn new(arch: ArchConfig) -> Self {
        if let Err(why) = arch.validate() {
            panic!("Simulator::new: invalid architecture: {why}");
        }
        Simulator {
            arch,
            cores: arch.total_cores() as u64,
            ns_per_cycle: arch.cycle_seconds() * 1e9,
        }
    }

    /// The configuration.
    pub fn arch(&self) -> &ArchConfig {
        &self.arch
    }

    /// Runs a step sequence and produces the report.
    pub fn run(&self, steps: &[Step]) -> SimReport {
        self.run_traced(steps, &telemetry::Telemetry::disabled())
    }

    /// Runs a step sequence after verifying it against the manifest taken
    /// at planning time.
    ///
    /// # Errors
    ///
    /// [`SimError::ScheduleIntegrity`] when steps were dropped, duplicated,
    /// reordered, or mutated since the manifest was captured; nothing is
    /// simulated in that case.
    pub fn run_checked(
        &self,
        steps: &[Step],
        manifest: &ScheduleManifest,
    ) -> Result<SimReport, SimError> {
        manifest.check(steps)?;
        Ok(self.run(steps))
    }

    /// [`Self::run`] plus telemetry: one virtual-time span per step on a
    /// dedicated track (1 simulated cycle = 1 ns at 1 GHz), a `sim.run`
    /// root span whose duration equals the report's total cycle count, and
    /// counters for Meta-OPs issued, compute cycles (add-only vs
    /// multiplier), lazy-reduction savings, and HBM/scratchpad traffic.
    ///
    /// Passing a disabled handle makes this identical to [`Self::run`].
    pub fn run_traced(&self, steps: &[Step], tel: &telemetry::Telemetry) -> SimReport {
        // A loop, not `OpClass::all().map(..)`: whether that generic `map`
        // is inlined here depends on how the crate is split into codegen
        // units, and out of line it cost the benchmark's `sim_suite` ≈ 8 %
        // of its throughput (2-vCPU x86-64 host).
        let mut per_class = [(OpClass::Ntt, ClassStats::default()); 5];
        for (slot, c) in per_class.iter_mut().zip(OpClass::all()) {
            slot.0 = c;
        }
        let mut step_cycles = 0u64;
        let mut hbm_cycles = 0u64;
        let mut busy = 0u64;
        let mut hbm = 0u64;
        let mut onchip = 0u64;
        let efficiency = self.arch.pipeline_efficiency;
        let ns = |cycles: u64| round_to_count(count_to_f64(cycles) * self.ns_per_cycle);
        let mut track = tel.virtual_track();
        track.open("sim.run", 0);
        for step in steps {
            let c = pipeline_cycles(step, self.cores, efficiency);
            // HBM transfers are double-buffered against the whole schedule
            // (paper §5.4); compute and scratchpad traffic serialize per
            // step.
            let wall = c.max(transfer_cycles(step.onchip_bytes, self.arch.onchip_bytes_per_cycle));
            if tel.is_enabled() {
                track.leaf(&step.label, ns(step_cycles), ns(wall));
                let key = step.class.telemetry_key();
                // Per-class latency distribution over the schedule, in
                // simulated nanoseconds (same 1 GHz time base as the
                // virtual track), so p50/p99 step durations land next to
                // the measured kernel histograms in every export.
                tel.observe_ns(sim_step_hist_name(key), ns(wall));
                use telemetry::Metric;
                tel.count(Metric::MetaOps, key, step.meta_ops);
                tel.count(Metric::HbmBytes, key, step.hbm_bytes);
                tel.count(Metric::ScratchpadBytes, key, step.onchip_bytes);
                if step.add_only {
                    tel.count(Metric::AddOnlyCycles, key, c);
                } else {
                    tel.count(Metric::MultCycles, key, c);
                    tel.count(
                        Metric::ReductionCyclesSaved,
                        key,
                        2 * (step.n as u64).saturating_sub(1) * step.meta_ops,
                    );
                }
            }
            step_cycles += wall;
            hbm_cycles += transfer_cycles(step.hbm_bytes, self.arch.hbm_bytes_per_cycle);
            // Busy discounts pipeline bubbles (the efficiency factor).
            let eff = trunc_to_count(count_to_f64(c) * efficiency);
            if tel.is_enabled() {
                // Per-class occupancy counters for the live sampler: busy
                // (post-efficiency compute) vs wall (serialized step time)
                // cycles, so a utilization-over-time series can be derived
                // from deltas alone.
                let key = step.class.telemetry_key();
                tel.count_named(sim_busy_counter_name(key), eff);
                tel.count_named(sim_wall_counter_name(key), wall);
            }
            busy += eff;
            hbm += step.hbm_bytes;
            onchip += step.onchip_bytes;
            let stats = &mut per_class[step.class as usize].1;
            stats.busy_cycles += eff;
            stats.attributed_cycles += wall;
        }
        let cycles = step_cycles.max(hbm_cycles);
        if tel.is_enabled() && cycles > step_cycles {
            // The schedule is HBM-bound: the double-buffered transfers
            // outlast compute. Make the tail visible in the trace.
            track.leaf("hbm.drain", ns(step_cycles), ns(cycles - step_cycles));
        }
        track.close(ns(cycles));
        SimReport {
            arch: self.arch,
            cycles,
            busy_cycles: busy,
            hbm_bytes: hbm,
            onchip_bytes: onchip,
            per_class,
        }
    }
}

/// Static histogram name for a simulated step class (`sim.step.<class>`).
fn sim_step_hist_name(key: telemetry::OpClassKey) -> &'static str {
    use telemetry::OpClassKey;
    match key {
        OpClassKey::Ntt => "sim.step.ntt",
        OpClassKey::Bconv => "sim.step.bconv",
        OpClassKey::DecompPolyMult => "sim.step.decomp_poly_mult",
        OpClassKey::Elementwise => "sim.step.elementwise",
        OpClassKey::Transfer => "sim.step.transfer",
    }
}

/// Static counter name for per-class busy cycles (`sim.busy_cycles.<class>`).
fn sim_busy_counter_name(key: telemetry::OpClassKey) -> &'static str {
    use telemetry::OpClassKey;
    match key {
        OpClassKey::Ntt => "sim.busy_cycles.ntt",
        OpClassKey::Bconv => "sim.busy_cycles.bconv",
        OpClassKey::DecompPolyMult => "sim.busy_cycles.decomp_poly_mult",
        OpClassKey::Elementwise => "sim.busy_cycles.elementwise",
        OpClassKey::Transfer => "sim.busy_cycles.transfer",
    }
}

/// Static counter name for per-class wall cycles (`sim.wall_cycles.<class>`).
fn sim_wall_counter_name(key: telemetry::OpClassKey) -> &'static str {
    use telemetry::OpClassKey;
    match key {
        OpClassKey::Ntt => "sim.wall_cycles.ntt",
        OpClassKey::Bconv => "sim.wall_cycles.bconv",
        OpClassKey::DecompPolyMult => "sim.wall_cycles.decomp_poly_mult",
        OpClassKey::Elementwise => "sim.wall_cycles.elementwise",
        OpClassKey::Transfer => "sim.wall_cycles.transfer",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arch() -> ArchConfig {
        ArchConfig::paper()
    }

    #[test]
    fn compute_cycles_follow_meta_op_model() {
        let a = arch();
        // Exactly one wave of (M8A8)_3R8 on all 2048 cores: 5 cycles / eff.
        let s = Step::compute("ntt", OpClass::Ntt, 2048, 3);
        assert_eq!(s.compute_cycles(&a), (5.0f64 / a.pipeline_efficiency).ceil() as u64);
        // One op still costs a full wave.
        let one = Step::compute("x", OpClass::Ntt, 1, 3);
        assert_eq!(one.compute_cycles(&a), s.compute_cycles(&a));
        // Adds cost 1 cycle per wave.
        let adds = Step::adds("hadd", 2048);
        assert_eq!(adds.compute_cycles(&a), (1.0f64 / a.pipeline_efficiency).ceil() as u64);
    }

    #[test]
    #[should_panic(expected = "bandwidths must be positive")]
    fn zero_hbm_bandwidth_is_rejected() {
        Simulator::new(ArchConfig { hbm_bytes_per_cycle: 0.0, ..arch() });
    }

    #[test]
    #[should_panic(expected = "pipeline efficiency must be in (0, 1]")]
    fn zero_efficiency_is_rejected() {
        Simulator::new(ArchConfig { pipeline_efficiency: 0.0, ..arch() });
    }

    #[test]
    #[should_panic(expected = "units, cores and lanes must be positive")]
    fn zero_units_are_rejected() {
        Simulator::new(ArchConfig { units: 0, ..arch() });
    }

    #[test]
    fn every_design_space_config_constructs() {
        use crate::dse::{lane_sweep, partitioning_ablation, unit_sweep};
        assert_eq!(lane_sweep().len(), 3);
        assert_eq!(unit_sweep().len(), 3);
        assert_eq!(partitioning_ablation().len(), 2);
    }

    #[test]
    fn class_slots_follow_discriminant_order() {
        // `run_traced` and `SimReport::class_stats` index the per-class
        // slots, laid out in `OpClass::all()` order, by discriminant.
        for (i, class) in OpClass::all().into_iter().enumerate() {
            assert_eq!(class as usize, i, "{class}");
        }
    }

    #[test]
    fn memory_bound_steps_stretch_wall_time() {
        let a = arch();
        let sim = Simulator::new(a);
        let light_compute = Step::compute("k", OpClass::Bconv, 2048, 4).with_hbm(1 << 20);
        let r = sim.run(std::slice::from_ref(&light_compute));
        // 1 MiB at 1024 B/cycle = 1024 cycles ≫ compute: the run is
        // bandwidth-bound even with full overlap.
        assert_eq!(r.cycles, 1024);
        assert!(r.utilization() < 0.05);
    }

    #[test]
    fn utilization_accounting() {
        let sim = Simulator::new(arch());
        let steps = vec![
            Step::compute("ntt", OpClass::Ntt, 2048 * 100, 3),
            Step::compute("bconv", OpClass::Bconv, 2048 * 50, 12).with_hbm(4 << 20),
        ];
        let r = sim.run(&steps);
        // Class utilization tops out at the pipeline efficiency.
        let eff = arch().pipeline_efficiency;
        assert!((r.class_utilization(OpClass::Ntt) - eff).abs() < 0.02);
        assert!(r.class_utilization(OpClass::Bconv) <= eff + 0.02);
        assert!(r.seconds() > 0.0);
        assert_eq!(r.hbm_bytes, 4 << 20);
    }

    #[test]
    fn trace_conversion_matches_cost_model() {
        use metaop::{MetaOp, MetaOpTrace};
        let a = arch();
        let mut trace = MetaOpTrace::new();
        // One wave of radix-8 NTT ops + one wave of Bconv ops.
        trace.record(MetaOp::new(OpClass::Ntt, 8, 3), a.total_cores() as u64);
        trace.record(MetaOp::new(OpClass::Bconv, 8, 12), a.total_cores() as u64);
        let steps = Step::from_trace("t", &trace);
        assert_eq!(steps.len(), 2);
        let r = Simulator::new(a).run(&steps);
        let expect =
            ((5.0 / a.pipeline_efficiency).ceil() + (14.0 / a.pipeline_efficiency).ceil()) as u64;
        assert_eq!(r.cycles, expect);
    }

    #[test]
    fn transfer_steps_are_classed_as_transfer() {
        let s = Step::transfer("dma", 1 << 20, 1 << 16);
        assert_eq!(s.class, OpClass::Transfer);
        let r = Simulator::new(arch()).run(std::slice::from_ref(&s));
        // All wall time lands on the Transfer class, none on Elementwise.
        let fractions = r.class_time_fractions();
        let get = |cl: OpClass| fractions.iter().find(|(c, _)| *c == cl).unwrap().1;
        assert_eq!(get(OpClass::Elementwise), 0.0);
        assert!(get(OpClass::Transfer) > 0.0);
    }

    #[test]
    fn traced_run_spans_total_matches_cycle_count() {
        use telemetry::Telemetry;
        let sim = Simulator::new(arch());
        let steps = vec![
            Step::compute("ntt", OpClass::Ntt, 2048 * 100, 3),
            Step::transfer("dma", 8 << 20, 0),
            Step::compute("bconv", OpClass::Bconv, 2048 * 50, 12),
        ];
        let tel = Telemetry::enabled();
        let report = sim.run_traced(&steps, &tel);
        let snap = tel.snapshot();
        let spans = snap.spans();
        let root = spans.iter().find(|s| s.name == "sim.run").unwrap();
        // At the 1 GHz paper clock 1 cycle = 1 ns: the root span *is* the
        // cycle count, and child spans tile it exactly.
        assert_eq!(root.dur_ns, report.cycles);
        let child_sum: u64 = spans.iter().filter(|s| s.parent.is_some()).map(|s| s.dur_ns).sum();
        let err = (child_sum as f64 - report.cycles as f64).abs() / report.cycles as f64;
        assert!(err < 0.01, "children {child_sum} vs total {}", report.cycles);
        // This schedule is HBM-bound, so the drain filler must appear.
        assert!(spans.iter().any(|s| s.name == "hbm.drain"));
    }

    #[test]
    fn traced_run_counters_split_by_class_and_kind() {
        use telemetry::{Metric, OpClassKey, Telemetry};
        let sim = Simulator::new(arch());
        let steps = vec![
            Step::compute("ntt", OpClass::Ntt, 4096, 3),
            Step::adds("hadd", 4096),
            Step::transfer("dma", 1 << 20, 1 << 12),
        ];
        let tel = Telemetry::enabled();
        let report = sim.run_traced(&steps, &tel);
        let snap = tel.snapshot();
        assert_eq!(snap.counter(Metric::MetaOps, OpClassKey::Ntt), 4096);
        assert_eq!(snap.counter(Metric::HbmBytes, OpClassKey::Transfer), 1 << 20);
        assert_eq!(snap.counter(Metric::ScratchpadBytes, OpClassKey::Transfer), 1 << 12);
        // Hadd runs on the adder path, NTT on the multiplier path.
        assert!(snap.counter(Metric::AddOnlyCycles, OpClassKey::Elementwise) > 0);
        assert!(snap.counter(Metric::MultCycles, OpClassKey::Ntt) > 0);
        assert_eq!(snap.counter(Metric::MultCycles, OpClassKey::Elementwise), 0);
        // Lazy reduction saves 2(n-1) per Meta-OP: n = 3 → 4 per op.
        assert_eq!(snap.counter(Metric::ReductionCyclesSaved, OpClassKey::Ntt), 4 * 4096);
        // An untraced run returns the identical report.
        let plain = sim.run(&steps);
        assert_eq!(plain.cycles, report.cycles);
        assert_eq!(plain.busy_cycles, report.busy_cycles);
    }

    #[test]
    fn traced_run_records_per_step_class_histograms() {
        use telemetry::Telemetry;
        let sim = Simulator::new(arch());
        let steps = vec![
            Step::compute("ntt.a", OpClass::Ntt, 2048 * 100, 3),
            Step::compute("ntt.b", OpClass::Ntt, 2048 * 200, 3),
            Step::transfer("dma", 8 << 20, 0),
        ];
        let tel = Telemetry::enabled();
        let report = sim.run_traced(&steps, &tel);
        let snap = tel.snapshot();
        let ntt = snap.histogram("sim.step.ntt").expect("ntt step histogram");
        assert_eq!(ntt.count, 2);
        let dma = snap.histogram("sim.step.transfer").expect("transfer step histogram");
        assert_eq!(dma.count, 1);
        // Histograms use the virtual time base: the per-class sums tile the
        // step-serialized portion of the schedule (wall cycles at 1 GHz).
        let hist_sum: u64 = snap
            .histograms()
            .iter()
            .filter(|h| h.name.starts_with("sim.step."))
            .map(|h| h.sum_ns)
            .sum();
        assert!(hist_sum <= report.cycles);
        assert!(snap.histogram("sim.step.elementwise").is_none());
    }

    fn manifest_schedule() -> Vec<Step> {
        vec![
            Step::compute("ntt", OpClass::Ntt, 2048 * 4, 3),
            Step::transfer("dma.keys", 1 << 20, 1 << 14),
            Step::compute("bconv", OpClass::Bconv, 2048 * 2, 12),
            Step::transfer("dma.spill", 1 << 18, 1 << 12),
        ]
    }

    #[test]
    fn unmodified_schedule_passes_the_manifest_check() {
        let steps = manifest_schedule();
        let manifest = ScheduleManifest::of(&steps);
        let sim = Simulator::new(arch());
        let checked = sim.run_checked(&steps, &manifest).unwrap();
        assert_eq!(checked.cycles, sim.run(&steps).cycles);
        // The manifest totals mirror the schedule.
        assert_eq!(manifest.steps, 4);
        assert_eq!(manifest.hbm_bytes, (1 << 20) + (1 << 18));
    }

    #[test]
    fn manifest_builder_matches_of_bit_for_bit() {
        let steps = manifest_schedule();
        let mut b = ManifestBuilder::new();
        for s in &steps {
            b.push_step(s);
        }
        assert_eq!(b.finish(), ScheduleManifest::of(&steps));
        // Extra folded context (e.g. a plan's slot assignment) diverges
        // the digest even when the lowered steps are identical.
        let mut tagged = ManifestBuilder::new();
        tagged.fold_bytes(b"tenant=42;slots=0..32");
        for s in &steps {
            tagged.push_step(s);
        }
        assert_ne!(tagged.finish().digest, b.finish().digest);
        assert_eq!(tagged.finish().steps, steps.len());
    }

    #[test]
    fn dropped_transfer_is_detected() {
        let steps = manifest_schedule();
        let manifest = ScheduleManifest::of(&steps);
        let mut tampered = steps.clone();
        tampered.remove(1); // drop dma.keys
        let err = Simulator::new(arch()).run_checked(&tampered, &manifest).unwrap_err();
        let SimError::ScheduleIntegrity { detail } = err;
        assert!(detail.contains("step count"), "{detail}");
    }

    #[test]
    fn duplicated_transfer_is_detected() {
        let steps = manifest_schedule();
        let manifest = ScheduleManifest::of(&steps);
        let mut tampered = steps.clone();
        let dup = tampered[3].clone();
        tampered.push(dup);
        assert!(Simulator::new(arch()).run_checked(&tampered, &manifest).is_err());
    }

    #[test]
    fn reordered_transfers_are_detected() {
        let steps = manifest_schedule();
        let manifest = ScheduleManifest::of(&steps);
        let mut tampered = steps.clone();
        tampered.swap(1, 3); // same multiset of steps, different order
        let err = Simulator::new(arch()).run_checked(&tampered, &manifest).unwrap_err();
        let SimError::ScheduleIntegrity { detail } = err;
        assert!(detail.contains("order or fields"), "{detail}");
    }

    #[test]
    fn mutated_step_fields_are_detected() {
        let steps = manifest_schedule();
        let manifest = ScheduleManifest::of(&steps);
        let mut tampered = steps.clone();
        tampered[1].hbm_bytes += 1;
        assert!(manifest.check(&tampered).is_err());
        let mut relabeled = steps.clone();
        relabeled[0].label = "ntt2".into();
        assert!(manifest.check(&relabeled).is_err());
    }

    #[test]
    fn energy_tracks_time_and_power() {
        let sim = Simulator::new(arch());
        let r = sim.run(&[Step::compute("x", OpClass::Ntt, 2048 * 1000, 3)]);
        // 77.9 W for r.seconds(): E = P·t.
        let expected = 77.9 * r.seconds() * 1e3;
        assert!((r.energy_mj() - expected).abs() / expected < 1e-6);
    }

    #[test]
    fn throughput_is_inverse_time() {
        let sim = Simulator::new(arch());
        let r = sim.run(&[Step::compute("x", OpClass::Ntt, 2048 * 1000, 3)]);
        let t = r.throughput(10);
        assert!((t - 10.0 / r.seconds()).abs() / t < 1e-12);
    }
}
