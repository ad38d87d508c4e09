//! Hardware configuration of the Alchemist accelerator.

/// Architecture parameters (paper §5.1, Table 6 row "Alchemist").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArchConfig {
    /// Parallel computing units (paper: 128).
    pub units: usize,
    /// Cores per unit, each executing one Meta-OP at a time (paper: 16).
    pub cores_per_unit: usize,
    /// Multiplier/adder lanes per core — the Meta-OP `j` (paper: 8).
    pub lanes: usize,
    /// Clock frequency in GHz (paper: 1.0).
    pub freq_ghz: f64,
    /// RNS word width in bits (paper adopts SHARP's 36).
    pub word_bits: u32,
    /// Local scratchpad per unit in KiB (paper: 512).
    pub scratchpad_kib: usize,
    /// Shared memory in KiB (paper: 2048 = 2 MB).
    pub shared_kib: usize,
    /// Off-chip (HBM2 ×2) bandwidth in bytes per cycle (paper: 1 TB/s at
    /// 1 GHz = 1024 B/cycle).
    pub hbm_bytes_per_cycle: f64,
    /// Aggregate on-chip scratchpad bandwidth in bytes per cycle (paper
    /// Table 6: 66 TB/s → 67 584 B/cycle).
    pub onchip_bytes_per_cycle: f64,
    /// Fraction of peak the core pipeline sustains (scheduling bubbles,
    /// bank conflicts). Calibrated so overall utilization on the Fig. 7b
    /// workloads lands near the paper's ≈0.86.
    pub pipeline_efficiency: f64,
}

impl ArchConfig {
    /// The paper's configuration.
    pub fn paper() -> Self {
        ArchConfig {
            units: 128,
            cores_per_unit: 16,
            lanes: 8,
            freq_ghz: 1.0,
            word_bits: 36,
            scratchpad_kib: 512,
            shared_kib: 2048,
            hbm_bytes_per_cycle: 1024.0,
            onchip_bytes_per_cycle: 67_584.0,
            pipeline_efficiency: 0.92,
        }
    }

    /// Total Meta-OP cores.
    #[inline]
    pub fn total_cores(&self) -> usize {
        self.units * self.cores_per_unit
    }

    /// Total on-chip storage in KiB (`units × scratchpad + shared`,
    /// paper: 64 + 2 MB).
    #[inline]
    pub fn total_sram_kib(&self) -> usize {
        self.units * self.scratchpad_kib + self.shared_kib
    }

    /// Seconds per cycle.
    #[inline]
    pub fn cycle_seconds(&self) -> f64 {
        1e-9 / self.freq_ghz
    }

    /// Validates the configuration for simulation (positive resources,
    /// sane efficiency).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.units == 0 || self.cores_per_unit == 0 || self.lanes == 0 {
            return Err("units, cores and lanes must be positive".into());
        }
        if self.freq_ghz <= 0.0 {
            return Err("frequency must be positive".into());
        }
        if self.hbm_bytes_per_cycle <= 0.0 || self.onchip_bytes_per_cycle <= 0.0 {
            return Err("bandwidths must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.pipeline_efficiency) || self.pipeline_efficiency == 0.0 {
            return Err("pipeline efficiency must be in (0, 1]".into());
        }
        if self.word_bits == 0 || self.word_bits > 61 {
            return Err("word width must be in [1, 61] bits".into());
        }
        Ok(())
    }
}

impl Default for ArchConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_catches_degenerate_configs() {
        assert!(ArchConfig::paper().validate().is_ok());
        let mut bad = ArchConfig::paper();
        bad.units = 0;
        assert!(bad.validate().is_err());
        let mut bad = ArchConfig::paper();
        bad.pipeline_efficiency = 1.5;
        assert!(bad.validate().is_err());
        let mut bad = ArchConfig::paper();
        bad.word_bits = 64;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn paper_config_matches_table6() {
        let a = ArchConfig::paper();
        assert_eq!(a.total_cores(), 2048);
        assert_eq!(a.total_cores() * a.lanes, 16_384);
        // 64 MB local + 2 MB shared = 66 MB on-chip capacity.
        assert_eq!(a.total_sram_kib(), 66 * 1024);
        // 1 TB/s at 1 GHz.
        assert!((a.hbm_bytes_per_cycle - 1024.0).abs() < 1e-9);
    }
}
