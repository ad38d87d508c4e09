//! The Alchemist accelerator: architecture model, cycle-level simulator,
//! workload compiler, area/power model and design-space exploration.
//!
//! This is the paper's primary artifact (§5–6): a unified architecture of
//! 128 computing units × 16 cores, each core executing one Meta-OP
//! `(M_8 A_8)_n R_8` in `n + 2` cycles with the Barrett reduction reusing
//! the multiplier array. Slot-based data partitioning keeps all three
//! access patterns (Table 4) inside a unit's private scratchpad, so the
//! simulator models three resources per step — core pipeline, scratchpad
//! bandwidth, HBM bandwidth — overlapped by double buffering.
//!
//! * [`ArchConfig`] — the hardware configuration (paper defaults:
//!   `128 × 16 × 8` lanes, 512 KB scratchpads + 2 MB shared, 1 TB/s HBM,
//!   1 GHz, 36-bit words),
//! * [`AreaModel`] — the Table 5 area/power breakdown,
//! * [`Step`] / [`Simulator`] / [`SimReport`] — the cycle model,
//! * [`workloads`] — compilers from FHE operations (Table 7 basic ops,
//!   Fig. 6 applications, TFHE PBS) to step sequences,
//! * [`layout`] — the slot-based data partition and a distributed 4-step
//!   NTT whose local phases touch only each unit's own slots (§5.3,
//!   Table 4),
//! * [`dse`] — lane-width / unit-count / partitioning ablations (§5.4).
//!
//! # Example
//!
//! ```
//! use alchemist_core::{workloads::CkksSimParams, Simulator, ArchConfig};
//!
//! let arch = ArchConfig::paper();
//! let sim = Simulator::new(arch);
//! let params = CkksSimParams::paper();
//! let report = sim.run(&alchemist_core::workloads::cmult(&params));
//! assert!(report.cycles > 0);
//! println!("Cmult: {} cycles, utilization {:.2}", report.cycles, report.utilization());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arch;
mod area;
pub mod dse;
pub mod layout;
mod sim;
pub mod workloads;

pub use arch::ArchConfig;
pub use area::{AreaModel, COMPONENT_AREAS_MM2};
pub use layout::{DistributedFourStepNtt, SlotLayout};
pub use sim::{ManifestBuilder, ScheduleManifest, SimError, SimReport, Simulator, Step};
