//! The four benchmark workloads and how one run of each is performed.
//!
//! A workload's *cycle* is one pass over all its runs: every (program,
//! scheme) pair of a run workload, or the cold and warm fleet passes of
//! `fleet-smoke`. A cycle's simulated results are a pure function of its
//! seed, so cycles on the same inputs must agree exactly.

use crate::layers::{self, LayerTimes};
use ace_core::{
    Experiment, RunConfig, RunRecord, SchemeCtx, SchemeManager, SchemeRegistry, SchemeReport,
};
use ace_energy::EnergyModel;
use ace_fleet::FleetConfig;
use ace_workloads::{Program, WorkloadRegistry};
use std::time::{Duration, Instant};

/// Workload names, in the order `run` interleaves them.
pub const NAMES: [&str; 4] = ["headline", "miss-heavy", "call-dense", "fleet-smoke"];

/// The committed spec of the `miss-heavy` workload.
pub const MISS_HEAVY_SPEC: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/workloads/miss-heavy.json");

/// The committed spec of the `call-dense` workload.
pub const CALL_DENSE_SPEC: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/workloads/call-dense.json");

/// The schemes `headline` runs: the paper's evaluation trio.
const HEADLINE_SCHEMES: [&str; 3] = ["baseline", "bbv", "hotspot"];

/// One run of a run workload: a workload name or spec path (anything
/// [`Experiment::workload`] resolves) under a registered scheme.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unit {
    /// Preset name or spec-file path.
    pub source: String,
    /// Registered scheme id.
    pub scheme: &'static str,
}

/// What one cycle of a workload runs.
#[derive(Debug, Clone)]
pub enum Plan {
    /// Independent single-threaded runs, in order.
    Runs(Vec<Unit>),
    /// A cold then a warm fleet pass over a fresh tuning store.
    Fleet(FleetConfig),
}

/// A named workload: what it runs and why the benchmark has it.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Workload name (one of [`NAMES`]).
    pub name: &'static str,
    /// Why the workload exists: the layer it stresses.
    pub why: &'static str,
    /// What one cycle runs.
    pub plan: Plan,
}

fn units(sources: &[&str], schemes: &[&'static str]) -> Vec<Unit> {
    sources
        .iter()
        .flat_map(|source| {
            schemes.iter().map(move |&scheme| Unit {
                source: (*source).to_string(),
                scheme,
            })
        })
        .collect()
}

/// The workload named `name`, with its committed seeds (the executor
/// seed of each run, the fleet's `seed_base`); a benchmark process
/// overrides them per cycle.
pub fn workload(name: &str) -> Option<Workload> {
    let (name, why, plan) = match name {
        "headline" => (
            NAMES[0],
            "the paper's evaluation as users run it: 7 presets x {baseline, bbv, hotspot}, full length; hit-path sim and executor dominate",
            Plan::Runs(units(&ace_workloads::PRESET_NAMES, &HEADLINE_SCHEMES)),
        ),
        "miss-heavy" => (
            NAMES[1],
            "working sets 1.5-30x the L1D and up to 3x the L2 with random walks: the sim miss and victim path dominates",
            Plan::Runs(units(&[MISS_HEAVY_SPEC], &["baseline", "hotspot", "bbv"])),
        ),
        "call-dense" => (
            NAMES[2],
            "dozens of tiny leaves per kernel: ~120x the presets' method calls per instruction, so the DO runtime and manager hooks show",
            Plan::Runs(units(
                &[CALL_DENSE_SPEC],
                &["baseline", "hotspot", "pdm", "positional"],
            )),
        ),
        "fleet-smoke" => (
            NAMES[3],
            "the only workload through the engine pool, wave barriers and the warm-start store: a cold pass publishes, a warm pass hits",
            Plan::Fleet(FleetConfig::preset("smoke").expect("smoke fleet preset exists")),
        ),
        _ => return None,
    };
    Some(Workload { name, why, plan })
}

/// A unit resolved and ready to run: the program, a fresh manager and the
/// run configuration `Experiment::run_scheme` would use.
pub struct Prepared {
    /// The built program.
    pub program: Program,
    /// The scheme's manager for this run.
    pub manager: Box<dyn SchemeManager>,
    /// The run configuration.
    pub cfg: RunConfig,
}

/// Resolves `source` and builds `scheme`'s manager the way
/// `Experiment::run_scheme` does, with `cfg` as the run configuration
/// (its energy model is replaced by the experiment default).
///
/// # Errors
///
/// Fails on an unknown or unbuildable workload or an unregistered scheme.
pub fn prepare(source: &str, scheme: &str, mut cfg: RunConfig) -> Result<Prepared, String> {
    let program = WorkloadRegistry::builtin()
        .resolve_program(source)
        .map_err(|e| e.to_string())?;
    let model = EnergyModel::default_180nm();
    let manager = SchemeRegistry::builtin()
        .get(scheme)
        .ok_or_else(|| format!("scheme {scheme:?} is not registered"))?
        .build(&SchemeCtx {
            program: &program,
            model,
        });
    cfg.energy = model;
    Ok(Prepared {
        program,
        manager,
        cfg,
    })
}

fn unit_config(seed: Option<u64>) -> RunConfig {
    RunConfig {
        workload_seed: seed,
        ..RunConfig::default()
    }
}

/// Times one run's set-up from nothing to the point where its first
/// instruction would execute: workload resolution (registry, spec parse,
/// program build), the scheme manager, the machine, the DO system and
/// the executor.
///
/// # Errors
///
/// See [`prepare`].
pub fn time_setup(unit: &Unit, seed: Option<u64>) -> Result<Duration, String> {
    let start = Instant::now();
    let prepared = prepare(&unit.source, unit.scheme, unit_config(seed))?;
    let parts = layers::prepare(&prepared.program, &prepared.cfg).map_err(|e| e.to_string())?;
    let elapsed = start.elapsed();
    std::hint::black_box(&parts);
    Ok(elapsed)
}

/// One finished run: what `Experiment::run_scheme` returns.
#[derive(Debug, Clone)]
pub struct Finished {
    /// The run record.
    pub record: RunRecord,
    /// The manager's report.
    pub report: SchemeReport,
}

/// Runs `unit` the way users do, through `Experiment::run_scheme`.
///
/// # Errors
///
/// Any experiment error, as text.
pub fn run_unit(unit: &Unit, seed: Option<u64>) -> Result<Finished, String> {
    let mut experiment = Experiment::workload(unit.source.as_str()).scheme(unit.scheme);
    if let Some(seed) = seed {
        experiment = experiment.seed(seed);
    }
    let run = experiment.run_scheme().map_err(|e| e.to_string())?;
    Ok(Finished {
        record: run.record,
        report: run.report,
    })
}

/// Runs `unit` through the sampled driver loop.
///
/// # Errors
///
/// See [`prepare`]; also an invalid machine configuration.
pub fn run_unit_sampled(unit: &Unit, seed: Option<u64>) -> Result<(Finished, LayerTimes), String> {
    run_prepared(prepare(&unit.source, unit.scheme, unit_config(seed))?)
}

/// Runs a prepared unit through the sampled driver loop.
///
/// # Errors
///
/// An invalid machine configuration.
pub fn run_prepared(mut p: Prepared) -> Result<(Finished, LayerTimes), String> {
    let (record, times) =
        layers::run_sampled(&p.program, &p.cfg, &mut *p.manager).map_err(|e| e.to_string())?;
    let report = p.manager.scheme_report(&record);
    Ok((Finished { record, report }, times))
}

/// FNV-1a 64 over `bytes`, continuing from `hash`.
pub fn fnv(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x1_0000_01b3))
}

/// FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of one run: FNV-1a over its serialized record and report, so
/// two runs agree only if every counter agrees.
pub fn run_digest(run: &Finished) -> u64 {
    let record = serde_json::to_string(&run.record).expect("run records serialize");
    let report = serde_json::to_string(&run.report).expect("scheme reports serialize");
    fnv(fnv(FNV_BASIS, record.as_bytes()), report.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_resolves_and_unknown_does_not() {
        for name in NAMES {
            let w = workload(name).unwrap();
            assert_eq!(w.name, name);
            assert!(!w.why.is_empty() && w.why.len() <= 200 && !w.why.contains('\n'));
        }
        assert!(workload("nope").is_none());
    }

    #[test]
    fn headline_is_the_evaluation_grid() {
        let Plan::Runs(units) = workload("headline").unwrap().plan else {
            panic!("headline is a run plan");
        };
        assert_eq!(units.len(), 21);
    }
}
