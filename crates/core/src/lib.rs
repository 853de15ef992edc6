//! # ace-core — adaptive computing environment management via dynamic optimization
//!
//! The primary contribution of *Effective Adaptive Computing Environment
//! Management via Dynamic Optimization* (Hu, Valluri & John, CGO 2005),
//! reproduced on the Rust substrates of this workspace:
//!
//! * [`HotspotAceManager`] — the paper's scheme: phase detection and
//!   adaptation at DO-system hotspot boundaries, with **CU decoupling**
//!   (small hotspots tune the L1D cache, large hotspots the L2), zero
//!   recurring-phase identification latency, tuning code → configuration
//!   code replacement, and drift-sampled re-tuning. Built by
//!   [`HotspotAceManager::pdm`], the same manager runs Phase Distance
//!   Mapping (Adegbija et al.): a behavioral-distance knowledge table,
//!   consulted after each hotspot's reference trial, *predicts* a new
//!   phase's configuration from an already-tuned one.
//! * [`BbvAceManager`] — the strongest prior temporal scheme: Basic Block
//!   Vector phase detection at 1 M-instruction sampling intervals plus the
//!   Dhodapkar–Smith tuning algorithm over all 16 combinatorial cache
//!   configurations.
//! * [`NullManager`] / [`FixedManager`] — the non-adaptive baseline and
//!   static oracle points.
//! * [`Experiment`] — the typed builder tying workload, DO system,
//!   machine and manager into one measured run.
//!
//! Schemes are values: a [`Scheme`] names a manager and carries its
//! configuration, [`Scheme::build`] constructs the manager, and the
//! [`SchemeRegistry`] maps each builtin id to its default scheme. A
//! non-default configuration runs wherever an id does, as a value.
//!
//! ## Example: compare the two schemes on one workload
//!
//! ```no_run
//! use ace_core::Experiment;
//!
//! let base = Experiment::workload("db").run()?;
//! let ours = Experiment::workload("db").scheme("hotspot").run()?;
//! println!(
//!     "L1D energy saving: {:.0}%, slowdown: {:.2}%",
//!     100.0 * ours.l1d_saving_vs(&base),
//!     100.0 * ours.slowdown_vs(&base),
//! );
//! # Ok::<(), ace_core::ExperimentError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bbv_mgr;
mod cu;
mod driver;
mod experiment;
mod hotspot;
mod manager;
mod measure;
mod pdm_mgr;
mod positional_mgr;
mod scheme;
mod tuner;
mod warm;

pub use bbv_mgr::{BbvAceManager, BbvManagerConfig, BbvReport};
pub use cu::{combined_list, single_cu_list, AceConfig};
pub use driver::{RunConfig, RunRecord};
pub use experiment::{Experiment, ExperimentError, Leg, SchemeRun};
pub use hotspot::{CuSchemeStats, HotspotAceManager, HotspotManagerConfig, HotspotReport};
pub use manager::{AceManager, FixedManager, NullManager};
pub use measure::{Measurement, Probe};
pub use pdm_mgr::{PdmManagerConfig, PdmReport, PhaseVector};
pub use positional_mgr::{PositionalAceManager, PositionalManagerConfig, PositionalReport};
pub use scheme::{
    Scheme, SchemeCtx, SchemeExt, SchemeManager, SchemeRegistry, SchemeReport, SchemeSpec,
};
pub use tuner::ConfigTuner;
pub use warm::{
    cu_mask_of, fnv1a, registry_version, HotspotSignature, StoreAnswer, StorePublication,
    WarmStartContext,
};
