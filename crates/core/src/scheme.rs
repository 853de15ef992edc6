//! Management schemes as values: [`Scheme`], the builtin
//! [`SchemeRegistry`] and the unified [`SchemeReport`].
//!
//! A [`Scheme`] names a manager and carries its configuration, and
//! [`Scheme::build`] is the one place that constructs the managers. Every
//! manager it builds is a [`SchemeManager`]: an [`AceManager`] that also
//! summarizes its run as a [`SchemeReport`]. The registry maps each builtin
//! id to its scheme under the default configuration.
//!
//! [`Experiment::scheme`](crate::Experiment::scheme) and
//! [`Experiment::run_schemes`](crate::Experiment::run_schemes) accept
//! anything convertible into a [`SchemeSpec`]: a registered id
//! (`"hotspot"`, `"pdm"`, ...) or a [`Scheme`] value for a non-default
//! configuration:
//!
//! ```
//! use ace_core::{Experiment, HotspotManagerConfig, Scheme};
//!
//! // By registered id:
//! let run = Experiment::workload("db")
//!     .scheme("hotspot")
//!     .instruction_limit(1_000_000)
//!     .run_scheme()?;
//! assert_eq!(run.report.scheme, "hotspot");
//!
//! // By value, for a non-default configuration:
//! let custom = Scheme::Hotspot(HotspotManagerConfig {
//!     sample_period: 8,
//!     ..HotspotManagerConfig::default()
//! });
//! let run = Experiment::workload("db")
//!     .scheme(custom)
//!     .instruction_limit(1_000_000)
//!     .run_scheme()?;
//! assert_eq!(run.report.scheme, "hotspot");
//! # Ok::<(), ace_core::ExperimentError>(())
//! ```
//!
//! Adding a scheme takes three steps: a [`Scheme`] variant (with its id in
//! [`Scheme::name`]), its arm of [`Scheme::build`], and
//! [`SchemeManager::scheme_report`] for its manager. A scheme that should
//! run by id also joins the registry's table.

use crate::cu::AceConfig;
use crate::driver::{RunConfig, RunRecord};
use crate::manager::{AceManager, FixedManager, NullManager};
use crate::pdm_mgr::{PdmManagerConfig, PdmReport};
use crate::{
    BbvAceManager, BbvManagerConfig, BbvReport, HotspotAceManager, HotspotManagerConfig,
    HotspotReport, PositionalAceManager, PositionalManagerConfig, PositionalReport,
};
use ace_energy::EnergyModel;
use ace_workloads::Program;
use serde::{Deserialize, Serialize};

/// Everything [`Scheme::build`] may consult when building a manager.
pub struct SchemeCtx<'a> {
    /// The resolved workload (positional adaptation needs its static
    /// method sizes).
    pub program: &'a Program,
    /// The energy model driving the manager's tuning objective.
    pub model: EnergyModel,
}

/// A management scheme as a value: which manager drives a run, and under
/// which configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum Scheme {
    /// The non-adaptive baseline: every CU pinned at its largest size.
    Baseline,
    /// A fixed configuration installed at start (static-oracle points).
    Fixed(AceConfig),
    /// The paper's DO-based hotspot scheme with CU decoupling.
    Hotspot(HotspotManagerConfig),
    /// The temporal baseline: BBV phases + tune-all-combinations.
    Bbv(BbvManagerConfig),
    /// Huang et al.'s positional scheme (large-procedure boundaries).
    Positional(PositionalManagerConfig),
    /// Phase Distance Mapping: hotspot-boundary adaptation that predicts a
    /// new phase's configuration from its behavioral distance to an
    /// already-tuned phase instead of re-walking the candidate list. Its
    /// manager is the hotspot manager with a knowledge table
    /// ([`HotspotAceManager::pdm`]).
    Pdm(PdmManagerConfig),
}

impl Scheme {
    /// Stable lowercase id, used for registry lookup, job keys, results
    /// cache namespaces and CLI flags. [`Scheme::Fixed`] is `"fixed"`, an
    /// id the registry does not hold.
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::Baseline => "baseline",
            Scheme::Fixed(_) => "fixed",
            Scheme::Hotspot(_) => "hotspot",
            Scheme::Bbv(_) => "bbv",
            Scheme::Positional(_) => "positional",
            Scheme::Pdm(_) => "pdm",
        }
    }

    /// Builds a fresh manager for one run.
    pub fn build(&self, ctx: &SchemeCtx<'_>) -> Box<dyn SchemeManager> {
        match self {
            Scheme::Baseline => Box::new(NullManager),
            Scheme::Fixed(config) => Box::new(FixedManager::new(*config)),
            Scheme::Hotspot(cfg) => Box::new(HotspotAceManager::new(cfg.clone(), ctx.model)),
            Scheme::Bbv(cfg) => Box::new(BbvAceManager::new(cfg.clone(), ctx.model)),
            Scheme::Positional(cfg) => Box::new(PositionalAceManager::new(
                ctx.program,
                cfg.clone(),
                ctx.model,
            )),
            Scheme::Pdm(cfg) => Box::new(HotspotAceManager::pdm(cfg.clone(), ctx.model)),
        }
    }
}

/// An [`AceManager`] built by [`Scheme::build`]: the policy hooks plus
/// end-of-run reporting.
pub trait SchemeManager: AceManager {
    /// Summarizes the run. `record` supplies machine-counted facts the
    /// manager cannot observe itself — every scheme fills
    /// [`SchemeReport::guard_rejections`] from it uniformly.
    fn scheme_report(&self, record: &RunRecord) -> SchemeReport;

    /// The manager a shared tuning store attaches to
    /// ([`HotspotAceManager::set_warm_start`]), if this scheme takes one.
    fn warm_start(&mut self) -> Option<&mut HotspotAceManager> {
        None
    }
}

/// Per-scheme extension payload of a [`SchemeReport`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum SchemeExt {
    /// Schemes with nothing beyond the common counters (baseline, fixed).
    #[default]
    None,
    /// The DO-hotspot scheme's full report.
    Hotspot(HotspotReport),
    /// The BBV scheme's full report.
    Bbv(BbvReport),
    /// The positional scheme's full report.
    Positional(PositionalReport),
    /// The phase-distance-mapping scheme's full report.
    Pdm(PdmReport),
}

/// The unified end-of-run report every scheme produces.
///
/// Common counters are comparable across schemes (the headline tables
/// read them without matching on the scheme); scheme-specific detail
/// lives in [`SchemeReport::ext`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SchemeReport {
    /// The scheme id that produced this report.
    pub scheme: String,
    /// Configuration trials measured.
    pub tunings: u64,
    /// Control-register changes applying a selected configuration.
    pub reconfigs: u64,
    /// Instructions executed under a selected configuration.
    pub covered_instr: u64,
    /// Reconfiguration requests the hardware guard rejected (filled from
    /// the machine counters, uniformly for every scheme).
    pub guard_rejections: u64,
    /// Scopes (hotspots, phases, procedures) whose tuning completed.
    pub tuned_scopes: u64,
    /// Tuning-store lookups that matched an entry.
    pub warm_hits: u64,
    /// Tuning-store lookups that found nothing.
    pub warm_misses: u64,
    /// Candidate-list trials avoided across all warm starts.
    pub warm_trials_saved: u64,
    /// Converged selections published to the tuning store.
    pub store_publishes: u64,
    /// Scheme-specific detail.
    pub ext: SchemeExt,
}

impl SchemeReport {
    /// A zeroed report tagged with `scheme`.
    pub fn empty(scheme: impl Into<String>) -> SchemeReport {
        SchemeReport {
            scheme: scheme.into(),
            ..SchemeReport::default()
        }
    }

    /// Folds the report into a metrics registry under
    /// `scheme.<id>.<counter>` names — the observability seam every
    /// scheme shares. Counters only (all deterministic run behavior);
    /// the event stream is untouched, so recorded telemetry traces are
    /// unaffected. Scheme-specific detail contributes a few counters per
    /// [`SchemeExt`] variant on top of the common set.
    pub fn record_metrics(&self, metrics: &ace_telemetry::Metrics) {
        let c = |name: &str, v: u64| {
            metrics
                .counter(&format!("scheme.{}.{name}", self.scheme))
                .add(v);
        };
        c("runs", 1);
        c("tunings", self.tunings);
        c("reconfigs", self.reconfigs);
        c("covered_instr", self.covered_instr);
        c("guard_rejections", self.guard_rejections);
        c("tuned_scopes", self.tuned_scopes);
        c("warm_hits", self.warm_hits);
        c("warm_misses", self.warm_misses);
        c("warm_trials_saved", self.warm_trials_saved);
        c("store_publishes", self.store_publishes);
        match &self.ext {
            SchemeExt::None => {}
            SchemeExt::Hotspot(h) => {
                c("small_hotspots", h.small_hotspots);
                c("retunings", h.retunings);
            }
            SchemeExt::Bbv(b) => {
                c("phases", b.phases);
                c("intervals", b.intervals);
                c("misattributed_trials", b.misattributed_trials);
            }
            SchemeExt::Positional(p) => {
                c("large_procedures", p.large_procedures);
                c("applications", p.applications);
            }
            SchemeExt::Pdm(p) => {
                c("predict_hits", p.predict_hits);
                c("predict_misses", p.predict_misses);
                c("known_phases", p.known_phases);
            }
        }
    }
}

/// How an [`crate::Experiment`] names a leg: a registered id, resolved
/// when the experiment runs, or a [`Scheme`] value, under the
/// experiment's run configuration or, given as a `(RunConfig, Scheme)`
/// pair, under that machine, DO and energy configuration. A configured
/// leg's seed and instruction limit must equal the experiment's; its
/// telemetry handle is not used.
#[derive(Debug, Clone)]
pub struct SchemeSpec(SpecInner, pub(crate) Option<RunConfig>);

#[derive(Debug, Clone)]
enum SpecInner {
    Named(String),
    Value(Scheme),
}

impl SchemeSpec {
    /// The scheme id this spec names.
    pub fn id(&self) -> &str {
        match &self.0 {
            SpecInner::Named(id) => id,
            SpecInner::Value(scheme) => scheme.name(),
        }
    }

    /// The scheme to run: a value as it is, a name looked up in
    /// [`SchemeRegistry::builtin`]. `None` if the id is not registered.
    pub fn resolve(&self) -> Option<Scheme> {
        match &self.0 {
            SpecInner::Named(id) => SchemeRegistry::builtin().get(id),
            SpecInner::Value(scheme) => Some(scheme.clone()),
        }
    }
}

impl From<&str> for SchemeSpec {
    fn from(id: &str) -> SchemeSpec {
        SchemeSpec(SpecInner::Named(id.to_string()), None)
    }
}

impl From<String> for SchemeSpec {
    fn from(id: String) -> SchemeSpec {
        SchemeSpec(SpecInner::Named(id), None)
    }
}

impl From<Scheme> for SchemeSpec {
    fn from(scheme: Scheme) -> SchemeSpec {
        SchemeSpec(SpecInner::Value(scheme), None)
    }
}

impl From<(RunConfig, Scheme)> for SchemeSpec {
    fn from((config, scheme): (RunConfig, Scheme)) -> SchemeSpec {
        SchemeSpec(SpecInner::Value(scheme), Some(config))
    }
}

/// The builtin scheme table: id → [`Scheme`] under its default
/// configuration, mirroring the simulator's `CuRegistry` for configurable
/// units.
#[derive(Debug, Clone, Copy)]
pub struct SchemeRegistry;

impl SchemeRegistry {
    /// The five builtin schemes under their default configurations:
    /// `baseline`, `hotspot`, `bbv`, `positional`, `pdm`.
    pub fn builtin() -> SchemeRegistry {
        SchemeRegistry
    }

    /// The scheme registered as `id`, under its default configuration.
    pub fn get(&self, id: &str) -> Option<Scheme> {
        Self::table().find(|scheme| scheme.name() == id)
    }

    /// Registered ids, in registration order.
    pub fn names(&self) -> impl Iterator<Item = &'static str> {
        Self::table().map(|scheme| scheme.name())
    }

    fn table() -> impl Iterator<Item = Scheme> {
        [
            Scheme::Baseline,
            Scheme::Hotspot(HotspotManagerConfig::default()),
            Scheme::Bbv(BbvManagerConfig::default()),
            Scheme::Positional(PositionalManagerConfig::default()),
            Scheme::Pdm(PdmManagerConfig::default()),
        ]
        .into_iter()
    }
}

// ---------------------------------------------------------------------
// SchemeManager implementations for the built-in managers.
// ---------------------------------------------------------------------

impl SchemeManager for NullManager {
    fn scheme_report(&self, record: &RunRecord) -> SchemeReport {
        let mut r = SchemeReport::empty("baseline");
        r.guard_rejections = record.counters.guard_rejections;
        r
    }
}

impl SchemeManager for FixedManager {
    fn scheme_report(&self, record: &RunRecord) -> SchemeReport {
        let mut r = SchemeReport::empty("fixed");
        r.guard_rejections = record.counters.guard_rejections;
        r
    }
}

impl SchemeManager for HotspotAceManager {
    /// The `hotspot` report, or the `pdm` report when the manager holds
    /// Phase Distance Mapping's table.
    fn scheme_report(&self, record: &RunRecord) -> SchemeReport {
        let mut h = self.report();
        h.guard_rejections = record.counters.guard_rejections;
        let common = SchemeReport {
            tunings: h.cu.iter().map(|s| s.tunings).sum(),
            reconfigs: h.cu.iter().map(|s| s.reconfigs).sum(),
            covered_instr: h.cu.iter().map(|s| s.covered_instr).sum(),
            guard_rejections: h.guard_rejections,
            tuned_scopes: h.tuned_hotspots,
            warm_hits: h.warm_hits,
            warm_misses: h.warm_misses,
            warm_trials_saved: h.warm_trials_saved,
            store_publishes: h.store_publishes,
            ..SchemeReport::default()
        };
        match self.pdm_table() {
            Some(table) => SchemeReport {
                scheme: "pdm".to_string(),
                ext: SchemeExt::Pdm(table.report(h)),
                ..common
            },
            None => SchemeReport {
                scheme: "hotspot".to_string(),
                ext: SchemeExt::Hotspot(h),
                ..common
            },
        }
    }

    /// `None` for PDM: its own table is where its selections come from.
    fn warm_start(&mut self) -> Option<&mut HotspotAceManager> {
        if self.pdm_table().is_some() {
            None
        } else {
            Some(self)
        }
    }
}

impl SchemeManager for BbvAceManager {
    fn scheme_report(&self, record: &RunRecord) -> SchemeReport {
        let b = self.report();
        SchemeReport {
            scheme: "bbv".to_string(),
            tunings: b.tunings,
            reconfigs: b.reconfigs,
            covered_instr: b.covered_instr,
            guard_rejections: record.counters.guard_rejections,
            tuned_scopes: b.tuned_phases,
            warm_hits: 0,
            warm_misses: 0,
            warm_trials_saved: 0,
            store_publishes: 0,
            ext: SchemeExt::Bbv(b),
        }
    }
}

impl SchemeManager for PositionalAceManager {
    fn scheme_report(&self, record: &RunRecord) -> SchemeReport {
        let p = self.report();
        SchemeReport {
            scheme: "positional".to_string(),
            tunings: p.tunings,
            reconfigs: p.reconfigs,
            covered_instr: p.covered_instr,
            guard_rejections: record.counters.guard_rejections,
            tuned_scopes: p.tuned,
            warm_hits: 0,
            warm_misses: 0,
            warm_trials_saved: 0,
            store_publishes: 0,
            ext: SchemeExt::Positional(p),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_registry_has_the_five_schemes() {
        let reg = SchemeRegistry::builtin();
        let names: Vec<&str> = reg.names().collect();
        assert_eq!(
            names,
            ["baseline", "hotspot", "bbv", "positional", "pdm"],
            "builtin registration order is stable"
        );
        assert_eq!(
            reg.get("hotspot"),
            Some(Scheme::Hotspot(HotspotManagerConfig::default()))
        );
        assert!(reg.get("fixed").is_none(), "fixed points are values only");
        assert!(reg.get("nope").is_none());
    }

    #[test]
    fn spec_resolution_and_ids() {
        let spec = SchemeSpec::from("bbv");
        assert_eq!(spec.id(), "bbv");
        assert_eq!(spec.resolve().unwrap().name(), "bbv");

        let spec = SchemeSpec::from("nope");
        assert_eq!(spec.id(), "nope");
        assert!(spec.resolve().is_none());

        let fixed = Scheme::Fixed(AceConfig::default());
        let spec = SchemeSpec::from(fixed.clone());
        assert_eq!(spec.id(), "fixed");
        assert_eq!(spec.resolve(), Some(fixed));
    }

    #[test]
    fn warm_start_capability_is_scheme_specific() {
        let program = ace_workloads::preset("db").unwrap();
        let ctx = SchemeCtx {
            program: &program,
            model: EnergyModel::default_180nm(),
        };
        let reg = SchemeRegistry::builtin();
        let mut hotspot = reg.get("hotspot").unwrap().build(&ctx);
        assert!(hotspot.warm_start().is_some());
        let mut baseline = reg.get("baseline").unwrap().build(&ctx);
        assert!(baseline.warm_start().is_none());
        let mut pdm = reg.get("pdm").unwrap().build(&ctx);
        assert!(pdm.warm_start().is_none());
    }
}
