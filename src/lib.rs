//! # ace — reproduction of *Effective Adaptive Computing Environment
//! Management via Dynamic Optimization* (CGO 2005)
//!
//! This façade crate re-exports the whole workspace:
//!
//! | crate | role |
//! |---|---|
//! | [`sim`] | CPU + reconfigurable memory-hierarchy timing simulator |
//! | [`energy`] | CACTI/Wattch-style cache energy model |
//! | [`workloads`] | synthetic SPECjvm98-like programs |
//! | [`runtime`] | dynamic-optimization-system (JVM) model |
//! | [`phase`] | BBV / working-set / positional phase detectors |
//! | [`core`] | the paper's ACE management framework + baselines |
//! | [`telemetry`] | decision-event log, metrics, timers (zero-cost when off) |
//! | [`trace`] | trace analysis: episodes, residency, Chrome export, diffing |
//!
//! See the repository's `README.md` for a walkthrough, `DESIGN.md` for the
//! system inventory, and `EXPERIMENTS.md` for paper-versus-measured results.
//!
//! ## Quickstart
//!
//! ```no_run
//! use ace::core::Experiment;
//!
//! let baseline = Experiment::workload("db").run()?;
//! let adaptive = Experiment::workload("db").scheme("hotspot").run()?;
//! println!("L1D energy saving: {:.0}%", 100.0 * adaptive.l1d_saving_vs(&baseline));
//! # Ok::<(), ace::core::ExperimentError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ace_core as core;
pub use ace_energy as energy;
pub use ace_phase as phase;
pub use ace_runtime as runtime;
pub use ace_sim as sim;
pub use ace_telemetry as telemetry;
pub use ace_trace as trace;
pub use ace_workloads as workloads;
