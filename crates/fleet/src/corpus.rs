//! Fleet-side differential oracle over generated workloads: the
//! **cold-vs-warm store fingerprint** check the bench `corpus` experiment
//! cannot run itself (ace-bench cannot depend on ace-fleet without a
//! cycle), reachable as `fleet --corpus N`.
//!
//! The oracle: a fleet of machines running [`ace_workloads::gen`]erated
//! workloads is driven through a cold pass then a warm pass, and the
//! byte-level fingerprints of (cold outcome, store after cold, warm
//! outcome, store after warm) must be identical across worker-pool
//! widths **and** across independent repetitions from a fresh store.
//! Generated specs reach the driver the way a user's would — written to
//! disk and resolved by path through
//! [`ace_workloads::WorkloadRegistry`] — so the spec-file plumbing is
//! under the same oracle.

use crate::driver::{fleet_registry_version, run_fleet, FleetConfig, FleetOutcome};
use crate::store::TuningStore;
use ace_bench::{content_key, fnv1a, BenchError, BenchResult};
use ace_telemetry::Telemetry;
use ace_workloads::{gen, GenParams};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Per-machine instruction budget of the corpus fleet: the fleet
/// presets' budget — generated workloads need the same headroom for
/// tuning episodes to converge and publish, or the store never fills and
/// the fingerprint oracle degenerates to hashing emptiness.
const CORPUS_LIMIT: u64 = 8_000_000;

/// Byte-level fingerprint of a store's full content: every entry in
/// signature-sorted order, configurations and exact float bits included.
pub fn store_fingerprint(store: &TuningStore) -> String {
    let mut text = String::new();
    for (signature, entry) in store.entries_sorted() {
        let _ = writeln!(
            text,
            "{signature:?}|{:?}|{:016x}|{:016x}|{}|{}",
            entry.config,
            entry.ipc.to_bits(),
            entry.epi_nj.to_bits(),
            entry.trials,
            entry.stamp
        );
    }
    format!("{:016x}", fnv1a(text.bytes()))
}

/// Byte-level fingerprint of one pass outcome (serialized rows; the
/// schedule-dependent `wall` field is skipped by its serde attribute).
/// A workload given as a spec-file path is hashed by its file name, so
/// the fingerprint does not depend on where the spec directory is.
pub fn outcome_fingerprint(outcome: &FleetOutcome) -> String {
    let mut outcome = outcome.clone();
    for machine in &mut outcome.machines {
        if let Some(file) = Path::new(&machine.spec.preset).file_name() {
            machine.spec.preset = file.to_string_lossy().into_owned();
        }
    }
    content_key(&outcome)
}

/// The four fingerprints one cold+warm fleet run produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetFingerprints {
    /// Cold-pass outcome rows.
    pub cold: String,
    /// Store content after the cold pass.
    pub store_cold: String,
    /// Warm-pass outcome rows.
    pub warm: String,
    /// Store content after the warm pass.
    pub store_warm: String,
    /// Warm-pass store hits (informational, not part of the oracle).
    pub warm_hits: u64,
}

/// Runs cold+warm passes from a fresh in-memory store at `jobs` width
/// and fingerprints every observable.
///
/// # Errors
///
/// Propagates driver failures.
pub fn fleet_fingerprints(
    cfg: &FleetConfig,
    jobs: usize,
    telemetry: &Telemetry,
) -> BenchResult<FleetFingerprints> {
    let mut store = TuningStore::in_memory(fleet_registry_version(), TuningStore::DEFAULT_CAPACITY);
    let cold = run_fleet(cfg, &mut store, jobs, telemetry)?;
    let store_cold = store_fingerprint(&store);
    let warm = run_fleet(cfg, &mut store, jobs, telemetry)?;
    Ok(FleetFingerprints {
        cold: outcome_fingerprint(&cold),
        store_cold,
        warm: outcome_fingerprint(&warm),
        store_warm: store_fingerprint(&store),
        warm_hits: warm.hits(),
    })
}

/// Writes `count` generated specs under `dir` and returns their paths
/// (the corpus fleet's preset list).
fn write_corpus_specs(dir: &Path, count: usize, seed_base: u64) -> BenchResult<Vec<String>> {
    std::fs::create_dir_all(dir).map_err(|e| BenchError::msg(format!("{}: {e}", dir.display())))?;
    (0..count)
        .map(|i| {
            let spec = gen(seed_base + i as u64, &GenParams::default());
            let path = dir.join(format!("{}.json", spec.name));
            let json = serde_json::to_string(&spec).expect("spec serializes");
            std::fs::write(&path, json + "\n")
                .map_err(|e| BenchError::msg(format!("{}: {e}", path.display())))?;
            Ok(path.display().to_string())
        })
        .collect()
}

/// The `fleet --corpus N` entry point: builds a fleet over `count`
/// generated workloads (each machine resolves its workload from a spec
/// file on disk), runs cold+warm at `jobs` width, then re-runs the whole
/// thing at width 1 and once more at `jobs` — every fingerprint
/// quadruple must match. Returns the report text; on a violation the
/// spec files are left in place and an error names the diverging
/// fingerprint.
///
/// # Errors
///
/// Driver failures, spec-file I/O failures, and oracle violations.
pub fn run_corpus_oracle(count: usize, jobs: usize, telemetry: &Telemetry) -> BenchResult<String> {
    let count = count.max(1);
    let dir: PathBuf =
        std::env::temp_dir().join(format!("ace-fleet-corpus-{}", std::process::id()));
    let presets = write_corpus_specs(
        &dir,
        count,
        ace_bench::experiments::corpus::DEFAULT_SEED_BASE,
    )?;
    // Two machines per workload so warm starts have a same-workload
    // neighbour to hit; one wave per repetition of the preset cycle.
    let cfg = FleetConfig {
        presets,
        machines: count * 2,
        wave_size: count,
        admit_limit: count,
        seed_base: 1,
        instruction_limit: CORPUS_LIMIT,
        measure_baseline: false,
    };
    let reference = fleet_fingerprints(&cfg, jobs, telemetry)?;
    let serial = fleet_fingerprints(&cfg, 1, telemetry)?;
    let repeat = fleet_fingerprints(&cfg, jobs, telemetry)?;
    let mut violations = Vec::new();
    if serial != reference {
        violations.push(format!(
            "jobs=1 fingerprints diverge from jobs={jobs}: {serial:?} != {reference:?}"
        ));
    }
    if repeat != reference {
        violations.push(format!(
            "repetition at jobs={jobs} diverges from the first run: {repeat:?} != {reference:?}"
        ));
    }
    if !violations.is_empty() {
        return Err(BenchError::msg(format!(
            "fleet corpus oracle violated ({} spec files kept under {}): {}",
            count,
            dir.display(),
            violations.join("; ")
        )));
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fleet corpus: {count} generated workloads x {} machines, cold+warm x3 runs (jobs {jobs}, 1, {jobs})",
        cfg.machines
    );
    let _ = writeln!(
        out,
        "fingerprints stable: cold {} / store {} -> warm {} / store {} ({} warm hits)",
        reference.cold,
        reference.store_cold,
        reference.warm,
        reference.store_warm,
        reference.warm_hits
    );
    let _ = std::fs::remove_dir_all(&dir);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_fingerprint_tracks_content() {
        let store = TuningStore::in_memory(fleet_registry_version(), 16);
        let empty = store_fingerprint(&store);
        assert_eq!(empty.len(), 16);
        assert_eq!(empty, store_fingerprint(&store), "fingerprint is pure");
    }

    #[test]
    fn corpus_oracle_passes_on_a_tiny_corpus() {
        let report = run_corpus_oracle(2, 2, &Telemetry::off()).unwrap();
        assert!(report.contains("fingerprints stable"), "{report}");
    }
}
