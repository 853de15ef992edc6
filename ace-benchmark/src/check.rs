//! Differential checks: the benchmark's replicas of the run driver and
//! the fleet wave loop must reproduce the real ones exactly, or the
//! per-layer numbers describe a different program than users run.

use crate::fleet::{run_pass_traced, FleetTrace};
use crate::metrics::SCHEMES;
use crate::spans::SpanLog;
use crate::workload::{self, run_digest, Finished};
use ace_core::{Experiment, RunConfig};
use ace_fleet::{fleet_registry_version, run_fleet, FleetConfig, TuningStore};
use ace_telemetry::Telemetry;

/// Instruction limit of the per-scheme driver check.
pub const DRIVER_CHECK_LIMIT: u64 = 1_000_000;

/// Runs `source` under every built-in scheme at `limit` instructions,
/// once through `Experiment::run_scheme` and once through the sampled
/// driver loop, and returns `(scheme, problem)` for every scheme whose
/// record or report differ (or that failed to run).
pub fn driver_matches_experiment(
    source: &str,
    seed: Option<u64>,
    limit: u64,
) -> Vec<(&'static str, Option<String>)> {
    SCHEMES
        .iter()
        .map(|&scheme| {
            let problem = compare_scheme(source, scheme, seed, limit).err();
            (scheme, problem)
        })
        .collect()
}

fn compare_scheme(source: &str, scheme: &str, seed: Option<u64>, limit: u64) -> Result<(), String> {
    let mut experiment = Experiment::workload(source)
        .scheme(scheme)
        .instruction_limit(limit);
    if let Some(seed) = seed {
        experiment = experiment.seed(seed);
    }
    let real = experiment.run_scheme().map_err(|e| e.to_string())?;
    let real = Finished {
        record: real.record,
        report: real.report,
    };
    let cfg = RunConfig {
        workload_seed: seed,
        instruction_limit: Some(limit),
        ..RunConfig::default()
    };
    let (replica, _) = workload::run_prepared(workload::prepare(source, scheme, cfg)?)?;
    if run_digest(&real) == run_digest(&replica) {
        Ok(())
    } else {
        Err(format!(
            "{source}/{scheme}: sampled driver loop diverged from Experiment::run_scheme \
             (instret {} vs {}, cycles {} vs {})",
            replica.record.instret, real.record.instret, replica.record.cycles, real.record.cycles
        ))
    }
}

/// The small two-wave fleet the wave-loop check runs: four machines in
/// waves of two at the smoke preset's per-machine length, which tuning
/// episodes need to converge and publish.
pub fn two_wave_config(seed_base: u64) -> FleetConfig {
    let mut cfg = FleetConfig::preset("smoke").expect("smoke fleet preset exists");
    cfg.machines = 4;
    cfg.wave_size = 2;
    cfg.admit_limit = 2;
    cfg.seed_base = seed_base;
    cfg
}

/// Runs `cfg` cold then warm through `run_fleet` and through the traced
/// wave loop, each over its own in-memory store, and reports the first
/// difference in outcomes or final store entries.
///
/// # Errors
///
/// The difference, or any run failure.
pub fn wave_loop_matches_fleet(cfg: &FleetConfig, jobs: usize) -> Result<(), String> {
    let version = fleet_registry_version();
    let mut real_store = TuningStore::in_memory(version, TuningStore::DEFAULT_CAPACITY);
    let mut replica_store = TuningStore::in_memory(version, TuningStore::DEFAULT_CAPACITY);
    let mut trace = FleetTrace::default();
    let mut log = SpanLog::new();
    for pass in ["cold", "warm"] {
        let real =
            run_fleet(cfg, &mut real_store, jobs, &Telemetry::off()).map_err(|e| e.to_string())?;
        let replica = run_pass_traced(cfg, &mut replica_store, jobs, &mut trace, &mut log, 0)
            .map_err(|e| e.to_string())?;
        let (a, b) = (
            serde_json::to_string(&real).expect("fleet outcomes serialize"),
            serde_json::to_string(&replica).expect("fleet outcomes serialize"),
        );
        if a != b {
            return Err(format!(
                "{pass} pass: traced wave loop diverged from run_fleet"
            ));
        }
    }
    if real_store.entries_sorted() != replica_store.entries_sorted() {
        return Err("traced wave loop left different store entries than run_fleet".into());
    }
    if real_store.is_empty() {
        return Err("the two-wave check published nothing; it would not exercise the store".into());
    }
    Ok(())
}
