//! The open scheme layer: [`TuningScheme`], [`SchemeRegistry`] and the
//! unified [`SchemeReport`].
//!
//! PR 5 replaced hardcoded CU fields with a registry of configurable
//! units; this module does the same for management schemes. A scheme is a
//! named factory ([`TuningScheme`]) producing a boxed [`SchemeManager`]
//! — an [`AceManager`] that can additionally summarize its run as a
//! [`SchemeReport`] and, if it supports it, expose warm-start plumbing
//! through [`WarmStartCapable`] instead of concrete downcasts.
//!
//! [`Experiment::scheme`](crate::Experiment::scheme) accepts anything
//! convertible into a [`SchemeSpec`]: a registered id (`"hotspot"`,
//! `"pdm"`, ...), a legacy [`Scheme`](crate::Scheme) enum value, or an
//! owned scheme instance for one-off configurations:
//!
//! ```
//! use ace_core::{Experiment, HotspotManagerConfig, HotspotScheme, SchemeSpec};
//! use std::sync::Arc;
//!
//! // By registered id:
//! let run = Experiment::preset("db")
//!     .scheme("hotspot")
//!     .instruction_limit(1_000_000)
//!     .run_scheme()?;
//! assert_eq!(run.report.scheme, "hotspot");
//!
//! // By instance, for a non-default configuration:
//! let custom = HotspotScheme(HotspotManagerConfig {
//!     sample_period: 8,
//!     ..HotspotManagerConfig::default()
//! });
//! let run = Experiment::preset("db")
//!     .scheme(SchemeSpec::instance(Arc::new(custom)))
//!     .instruction_limit(1_000_000)
//!     .run_scheme()?;
//! assert_eq!(run.report.scheme, "hotspot");
//! # Ok::<(), ace_core::ExperimentError>(())
//! ```

use crate::cu::AceConfig;
use crate::driver::RunRecord;
use crate::manager::{AceManager, FixedManager, NullManager};
use crate::pdm_mgr::{PdmManagerConfig, PdmReport};
use crate::warm::WarmStartContext;
use crate::{
    BbvAceManager, BbvManagerConfig, BbvReport, HotspotAceManager, HotspotManagerConfig,
    HotspotReport, PositionalAceManager, PositionalManagerConfig, PositionalReport,
};
use ace_energy::EnergyModel;
use ace_workloads::Program;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Everything a [`TuningScheme`] may consult when building its manager.
pub struct SchemeCtx<'a> {
    /// The resolved workload (positional adaptation needs its static
    /// method sizes).
    pub program: &'a Program,
    /// The energy model driving the manager's tuning objective.
    pub model: EnergyModel,
}

/// Warm-start plumbing, for schemes that can adopt selections from a
/// shared tuning store (see [`WarmStartContext`]).
///
/// Reached through [`SchemeManager::warm_start`], so fleet drivers wire
/// the store without naming a concrete manager type.
pub trait WarmStartCapable {
    /// Attaches a frozen snapshot of the shared tuning store.
    fn set_warm_start(&mut self, context: WarmStartContext);
    /// Detaches the context, carrying the answers this run read from it
    /// and its buffered publications.
    fn take_warm_start(&mut self) -> Option<WarmStartContext>;
}

/// An [`AceManager`] produced by a [`TuningScheme`]: the policy hooks
/// plus end-of-run reporting and optional capabilities.
pub trait SchemeManager: AceManager {
    /// Summarizes the run. `record` supplies machine-counted facts the
    /// manager cannot observe itself — every scheme fills
    /// [`SchemeReport::guard_rejections`] from it uniformly.
    fn scheme_report(&self, record: &RunRecord) -> SchemeReport;

    /// The warm-start capability, if this scheme supports one.
    fn warm_start(&mut self) -> Option<&mut dyn WarmStartCapable> {
        None
    }
}

/// A named, registrable management scheme: a factory for the manager that
/// drives one run.
pub trait TuningScheme: Send + Sync {
    /// Stable lowercase id, used for registry lookup, job keys, results
    /// cache namespaces and CLI flags.
    fn name(&self) -> &str;

    /// Builds a fresh manager for one run.
    fn build(&self, ctx: &SchemeCtx<'_>) -> Box<dyn SchemeManager>;
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

/// How an [`crate::Experiment`] names its scheme: a registered id or an
/// owned instance.
#[derive(Clone)]
pub struct SchemeSpec(SpecInner);

#[derive(Clone)]
enum SpecInner {
    Named(String),
    Instance(Arc<dyn TuningScheme>),
}

impl SchemeSpec {
    /// A scheme to be resolved by id against the experiment's registry.
    pub fn named(id: impl Into<String>) -> SchemeSpec {
        SchemeSpec(SpecInner::Named(id.into()))
    }

    /// A concrete scheme instance, bypassing the registry — the way to
    /// run a non-default scheme configuration.
    pub fn instance(scheme: Arc<dyn TuningScheme>) -> SchemeSpec {
        SchemeSpec(SpecInner::Instance(scheme))
    }

    /// The scheme id this spec names.
    pub fn id(&self) -> String {
        match &self.0 {
            SpecInner::Named(id) => id.clone(),
            SpecInner::Instance(s) => s.name().to_string(),
        }
    }

    /// Resolves to a runnable scheme, consulting `registry` for named
    /// specs. `None` if the id is not registered.
    pub fn resolve(&self, registry: &SchemeRegistry) -> Option<Arc<dyn TuningScheme>> {
        match &self.0 {
            SpecInner::Named(id) => registry.get(id).cloned(),
            SpecInner::Instance(s) => Some(Arc::clone(s)),
        }
    }
}

impl fmt::Debug for SchemeSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            SpecInner::Named(id) => write!(f, "SchemeSpec::named({id:?})"),
            SpecInner::Instance(s) => write!(f, "SchemeSpec::instance({:?})", s.name()),
        }
    }
}

impl From<&str> for SchemeSpec {
    fn from(id: &str) -> SchemeSpec {
        SchemeSpec::named(id)
    }
}

impl From<String> for SchemeSpec {
    fn from(id: String) -> SchemeSpec {
        SchemeSpec::named(id)
    }
}

/// The scheme registry: id → [`TuningScheme`], mirroring the simulator's
/// `CuRegistry` for configurable units.
#[derive(Clone, Default)]
pub struct SchemeRegistry {
    schemes: Vec<Arc<dyn TuningScheme>>,
}

impl SchemeRegistry {
    /// An empty registry.
    pub fn new() -> SchemeRegistry {
        SchemeRegistry::default()
    }

    /// The five built-in schemes under their default configurations:
    /// `baseline`, `hotspot`, `bbv`, `positional`, `pdm`.
    pub fn builtin() -> SchemeRegistry {
        let mut reg = SchemeRegistry::new();
        reg.register(Arc::new(BaselineScheme));
        reg.register(Arc::new(HotspotScheme::default()));
        reg.register(Arc::new(BbvScheme::default()));
        reg.register(Arc::new(PositionalScheme::default()));
        reg.register(Arc::new(PdmScheme::default()));
        reg
    }

    /// Registers `scheme`, replacing any scheme of the same name.
    pub fn register(&mut self, scheme: Arc<dyn TuningScheme>) {
        if let Some(slot) = self.schemes.iter_mut().find(|s| s.name() == scheme.name()) {
            *slot = scheme;
        } else {
            self.schemes.push(scheme);
        }
    }

    /// The scheme registered as `name`.
    pub fn get(&self, name: &str) -> Option<&Arc<dyn TuningScheme>> {
        self.schemes.iter().find(|s| s.name() == name)
    }

    /// Registered ids, in registration order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.schemes.iter().map(|s| s.name())
    }

    /// Number of registered schemes.
    pub fn len(&self) -> usize {
        self.schemes.len()
    }

    /// Whether no scheme is registered.
    pub fn is_empty(&self) -> bool {
        self.schemes.is_empty()
    }
}

impl fmt::Debug for SchemeRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.names()).finish()
    }
}

// ---------------------------------------------------------------------
// Built-in schemes.
// ---------------------------------------------------------------------

/// The non-adaptive baseline: every CU pinned at its largest size.
#[derive(Debug, Clone, Copy, Default)]
pub struct BaselineScheme;

impl TuningScheme for BaselineScheme {
    fn name(&self) -> &str {
        "baseline"
    }

    fn build(&self, _ctx: &SchemeCtx<'_>) -> Box<dyn SchemeManager> {
        Box::new(NullManager)
    }
}

/// A fixed configuration installed at start (static-oracle points).
#[derive(Debug, Clone, Copy)]
pub struct FixedScheme(pub AceConfig);

impl TuningScheme for FixedScheme {
    fn name(&self) -> &str {
        "fixed"
    }

    fn build(&self, _ctx: &SchemeCtx<'_>) -> Box<dyn SchemeManager> {
        Box::new(FixedManager::new(self.0))
    }
}

/// The paper's DO-based hotspot scheme with CU decoupling.
#[derive(Debug, Clone, Default)]
pub struct HotspotScheme(pub HotspotManagerConfig);

impl TuningScheme for HotspotScheme {
    fn name(&self) -> &str {
        "hotspot"
    }

    fn build(&self, ctx: &SchemeCtx<'_>) -> Box<dyn SchemeManager> {
        Box::new(HotspotAceManager::new(self.0.clone(), ctx.model))
    }
}

/// The temporal baseline: BBV phases + tune-all-combinations.
#[derive(Debug, Clone, Default)]
pub struct BbvScheme(pub BbvManagerConfig);

impl TuningScheme for BbvScheme {
    fn name(&self) -> &str {
        "bbv"
    }

    fn build(&self, ctx: &SchemeCtx<'_>) -> Box<dyn SchemeManager> {
        Box::new(BbvAceManager::new(self.0.clone(), ctx.model))
    }
}

/// Huang et al.'s positional scheme (large-procedure boundaries).
#[derive(Debug, Clone, Default)]
pub struct PositionalScheme(pub PositionalManagerConfig);

impl TuningScheme for PositionalScheme {
    fn name(&self) -> &str {
        "positional"
    }

    fn build(&self, ctx: &SchemeCtx<'_>) -> Box<dyn SchemeManager> {
        Box::new(PositionalAceManager::new(
            ctx.program,
            self.0.clone(),
            ctx.model,
        ))
    }
}

/// Phase Distance Mapping: hotspot-boundary adaptation that predicts a
/// new phase's configuration from its behavioral distance to an
/// already-tuned phase instead of re-walking the candidate list. Its
/// manager is the hotspot manager with a knowledge table
/// ([`HotspotAceManager::pdm`]).
#[derive(Debug, Clone, Default)]
pub struct PdmScheme(pub PdmManagerConfig);

impl TuningScheme for PdmScheme {
    fn name(&self) -> &str {
        "pdm"
    }

    fn build(&self, ctx: &SchemeCtx<'_>) -> Box<dyn SchemeManager> {
        Box::new(HotspotAceManager::pdm(self.0.clone(), ctx.model))
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
    fn warm_start(&mut self) -> Option<&mut dyn WarmStartCapable> {
        if self.pdm_table().is_some() {
            None
        } else {
            Some(self)
        }
    }
}

impl WarmStartCapable for HotspotAceManager {
    fn set_warm_start(&mut self, context: WarmStartContext) {
        HotspotAceManager::set_warm_start(self, context);
    }

    fn take_warm_start(&mut self) -> Option<WarmStartContext> {
        HotspotAceManager::take_warm_start(self)
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
        assert_eq!(reg.len(), 5);
        assert!(!reg.is_empty());
        assert!(reg.get("nope").is_none());
    }

    #[test]
    fn register_replaces_same_name() {
        let mut reg = SchemeRegistry::builtin();
        let custom = HotspotScheme(HotspotManagerConfig {
            sample_period: 4,
            ..HotspotManagerConfig::default()
        });
        reg.register(Arc::new(custom));
        assert_eq!(reg.len(), 5, "same-name registration replaces");
        let names: Vec<&str> = reg.names().collect();
        assert_eq!(names[1], "hotspot", "replacement keeps its slot");
    }

    #[test]
    fn spec_resolution_and_ids() {
        let reg = SchemeRegistry::builtin();
        let spec = SchemeSpec::named("bbv");
        assert_eq!(spec.id(), "bbv");
        assert_eq!(spec.resolve(&reg).unwrap().name(), "bbv");

        let spec = SchemeSpec::named("nope");
        assert!(spec.resolve(&reg).is_none());

        let spec = SchemeSpec::instance(Arc::new(BaselineScheme));
        assert_eq!(spec.id(), "baseline");
        assert!(spec.resolve(&SchemeRegistry::new()).is_some());
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
