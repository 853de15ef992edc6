//! # ace-fleet — thousands of machines sharing a warm-start tuning store
//!
//! The fleet-scale extension of the paper's scheme: many simulated
//! machines run similar workloads concurrently, and instead of every
//! machine re-walking its candidate configuration lists from scratch,
//! converged selections are published to a shared [`TuningStore`] keyed
//! by behavioral [`ace_core::HotspotSignature`]. A machine whose hotspot
//! matches a stored signature adopts the selection after a single
//! reference trial — the fleet amortizes tuning latency across itself.
//!
//! Pieces:
//!
//! * [`TuningStore`] — the persistent store: in-memory map + append-only
//!   JSONL log, better-epi-wins merging, registry-version staleness,
//!   bounded capacity with oldest-first eviction, and an in-memory
//!   ledger of the session's finished machine runs ([`store`]).
//! * [`run_fleet`] — the wave-based driver on the work-stealing engine,
//!   with an admission layer (bounded in-flight machines, load-shedding
//!   counter) and deterministic machine-index-order merging ([`driver`]).
//! * the `fleet` binary — runs a cold pass then a warm pass over the same
//!   fleet and reports aggregate energy savings, tuning-latency
//!   reduction, store hit rate, and (to stderr) machines/sec.
//! * [`ObsSampler`] / [`ObsGate`] — wave-indexed fleet health sampling
//!   (`--obs-out` JSONL time series, `--live` status lines) and the
//!   threshold watchdog CI turns into an exit code ([`obs`]).
//!
//! Determinism: machines in a wave share a frozen store snapshot, jobs
//! merge in submission order, and wall-clock is quarantined away from the
//! report text — `fleet --jobs 1` and `fleet --jobs 8` produce
//! byte-identical stdout.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod driver;
pub mod obs;
pub mod store;

pub use corpus::{fleet_fingerprints, outcome_fingerprint, run_corpus_oracle, store_fingerprint};
pub use driver::{
    fleet_do_config, fleet_registry_version, render_report, run_fleet, run_fleet_observed,
    FleetConfig, FleetOutcome, LedgerCounts, MachineOutcome, MachineSpec,
};
pub use obs::{render_wave_line, ObsGate, ObsGateLine, ObsGateReport, ObsSampler, WaveHealth};
pub use store::{PublishOutcome, StoreEntry, TuningStore};

use ace_bench::{content_key, load_json, save_atomic, BenchError, BenchResult};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Version of the fleet cache/report file format.
pub const FLEET_SCHEMA_VERSION: u32 = 1;

/// Everything that determines a fleet run's deterministic report,
/// serialized into the cache key.
#[derive(Serialize)]
struct KeyMaterial {
    crate_version: String,
    config: FleetConfig,
    do_config: ace_runtime::DoConfig,
    registry_version: u16,
}

/// Content-addressed cache key of one fleet configuration:
/// [`content_key`] over the serialized run inputs (crate version, the
/// full [`FleetConfig`], the fleet DO profile, and the registry version).
/// Anything that could change the report changes the key.
pub fn fleet_cache_key(cfg: &FleetConfig) -> String {
    content_key(&KeyMaterial {
        crate_version: env!("CARGO_PKG_VERSION").to_string(),
        config: cfg.clone(),
        do_config: fleet_do_config(),
        registry_version: fleet_registry_version(),
    })
}

/// File name of a fleet result cache entry: `fleet-<key>.json`. The
/// `fleet-` namespace is what `check_results` recognizes and delegates to
/// `fleet --check-cache`.
pub fn fleet_cache_file_name(cfg: &FleetConfig) -> String {
    format!("fleet-{}.json", fleet_cache_key(cfg))
}

/// A cached fleet result: the rendered report plus the headline numbers
/// the binary needs without re-running (bench entries, smoke assertions).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetCache {
    /// File-format version ([`FLEET_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// The cache key the file was written under (self-describing).
    pub key: String,
    /// The deterministic report text.
    pub report: String,
    /// Warm-pass store hits (the smoke gate's assertion input).
    pub warm_hits: u64,
    /// Cold-pass tuning trials.
    pub cold_tunings: u64,
    /// Warm-pass tuning trials.
    pub warm_tunings: u64,
}

impl FleetCache {
    /// Loads a cache file, rejecting unknown schema versions.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, unparsable JSON, or a schema-version
    /// mismatch.
    pub fn load(path: impl AsRef<Path>) -> BenchResult<FleetCache> {
        let path = path.as_ref();
        let cache: FleetCache = load_json(path)?;
        if cache.schema_version != FLEET_SCHEMA_VERSION {
            return Err(BenchError::msg(format!(
                "{}: fleet cache schema {} (current is {})",
                path.display(),
                cache.schema_version,
                FLEET_SCHEMA_VERSION
            )));
        }
        Ok(cache)
    }

    /// Writes the cache atomically ([`save_atomic`]).
    ///
    /// # Errors
    ///
    /// Fails when the parent directory cannot be created or the file
    /// cannot be written.
    pub fn write(&self, path: impl AsRef<Path>) -> BenchResult<()> {
        save_atomic(
            path.as_ref(),
            &serde_json::to_string(self).expect("serializable"),
        )
    }
}

/// Validates every `fleet-*.json` under `dir` against the current cache
/// keys of the named fleet presets ([`FleetConfig::PRESET_NAMES`]) —
/// the `fleet --check-cache` half of the `check_results` contract.
/// Returns the stale findings (empty = all current).
pub fn check_fleet_caches(dir: &Path) -> Vec<String> {
    let current: Vec<String> = FleetConfig::PRESET_NAMES
        .iter()
        .filter_map(|name| FleetConfig::preset(name))
        .map(|cfg| fleet_cache_key(&cfg))
        .collect();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut stale = Vec::new();
    for entry in entries.flatten() {
        let file = entry.file_name();
        let Some(name) = file.to_str() else { continue };
        let Some(stem) = name.strip_suffix(".json") else {
            continue;
        };
        let Some(key) = stem.strip_prefix("fleet-") else {
            continue;
        };
        if key.len() != 16 || !key.bytes().all(|b| b.is_ascii_hexdigit()) {
            stale.push(format!(
                "{name}: not a fleet cache name (fleet-<16 hex>.json)"
            ));
            continue;
        }
        if !current.iter().any(|want| want == key) {
            stale.push(format!(
                "{name}: superseded fleet cache key (run inputs changed; purge or regenerate)"
            ));
            continue;
        }
        if let Err(e) = FleetCache::load(entry.path()) {
            stale.push(format!("{name}: unreadable fleet cache: {e}"));
        }
    }
    stale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_key_tracks_config() {
        let smoke = FleetConfig::preset("smoke").unwrap();
        let key = fleet_cache_key(&smoke);
        assert_eq!(key.len(), 16);
        assert_eq!(key, fleet_cache_key(&FleetConfig::preset("smoke").unwrap()));
        assert_ne!(
            key,
            fleet_cache_key(&FleetConfig::preset("standard").unwrap())
        );
        let mut tweaked = smoke.clone();
        tweaked.seed_base += 1;
        assert_ne!(key, fleet_cache_key(&tweaked));
        assert_eq!(fleet_cache_file_name(&smoke), format!("fleet-{key}.json"));
    }

    #[test]
    fn cache_round_trips_and_check_accepts_current_keys() {
        let dir = std::env::temp_dir().join(format!("ace_fleet_cache_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = FleetConfig::preset("smoke").unwrap();
        let cache = FleetCache {
            schema_version: FLEET_SCHEMA_VERSION,
            key: fleet_cache_key(&cfg),
            report: "report body".to_string(),
            warm_hits: 12,
            cold_tunings: 100,
            warm_tunings: 40,
        };
        let path = dir.join(fleet_cache_file_name(&cfg));
        cache.write(&path).unwrap();
        let back = FleetCache::load(&path).unwrap();
        assert_eq!(back.warm_hits, 12);
        assert!(check_fleet_caches(&dir).is_empty(), "current key passes");

        // A stale key and a malformed name are both flagged.
        std::fs::write(dir.join("fleet-0123456789abcdef.json"), "{}").unwrap();
        std::fs::write(dir.join("fleet-short.json"), "{}").unwrap();
        let stale = check_fleet_caches(&dir);
        assert_eq!(stale.len(), 2, "{stale:?}");
        // Non-fleet json files are none of our business.
        std::fs::write(dir.join("db-0123456789abcdef.json"), "{}").unwrap();
        assert_eq!(check_fleet_caches(&dir).len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
