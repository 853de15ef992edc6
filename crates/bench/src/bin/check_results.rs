//! Verifies the committed `results/` cache against the *current* cache
//! keys.
//!
//! Cached results are content-addressed: each file name embeds a hash of
//! everything that determines its content ([`ace_bench::content_key`]).
//! When the run inputs grow — a new `MachineConfig` field, a restructured
//! `DoConfig` — every key changes, and previously committed entries become
//! dead weight that `run_all` silently ignores forever. This check fails
//! CI when that happens, forcing the stale files to be purged (and
//! optionally regenerated) in the same change that shifted the keys.
//!
//! Every `*.json` in [`ace_bench::results_dir`] must be one the current
//! build writes at the default configuration:
//!
//! - `<workload>-<key>.json` — the headline set, one per preset;
//! - `pdm-<workload>-<key>.json` — the pdm experiment's set;
//! - `gen-corpus-<key>.json` — the corpus summaries
//!   ([`ace_bench::experiments::corpus::expected_cache_files`]).
//!
//! `fleet-*.json` files are fleet result caches, validated by their owner
//! (`cargo run -p ace-fleet --bin fleet -- --check-cache`), which knows
//! the fleet cache keys. Anything else `.json` fails.
//!
//! Run it before any experiment has executed (CI does), so only committed
//! entries are on disk; a warm local cache written by the current binary
//! passes by construction.

use ace_bench::experiments::{corpus, pdm};
use ace_bench::{results_dir, ExperimentSet, SchemeResults};
use std::process::ExitCode;

fn main() -> ExitCode {
    let dir = results_dir();
    let mut expected = ExperimentSet::all_presets().cache_files::<SchemeResults>();
    expected.extend(ExperimentSet::presets(pdm::PDM_WORKLOADS).cache_files::<pdm::PdmResults>());
    expected.extend(corpus::expected_cache_files());

    let entries = match std::fs::read_dir(&dir) {
        Ok(it) => it,
        Err(_) => {
            println!("{}: no results directory, nothing to check", dir.display());
            return ExitCode::SUCCESS;
        }
    };

    let mut stale = Vec::new();
    let mut checked = 0usize;
    let mut delegated = 0usize;
    for entry in entries.flatten() {
        let file = entry.file_name();
        let Some(name) = file.to_str() else { continue };
        if !name.ends_with(".json") {
            continue;
        }
        // ace-bench cannot depend on ace-fleet without a cycle, so fleet
        // caches are only recognized here, never flagged as unknown.
        if name.starts_with("fleet-") {
            delegated += 1;
        } else if expected.iter().any(|want| want == name) {
            checked += 1;
        } else {
            stale.push(name.to_string());
        }
    }

    if stale.is_empty() {
        println!(
            "{}: {checked} cache entr{} match current keys{}",
            dir.display(),
            if checked == 1 { "y" } else { "ies" },
            if delegated > 0 {
                format!(
                    " ({delegated} fleet entr{} delegated to fleet --check-cache)",
                    if delegated == 1 { "y" } else { "ies" }
                )
            } else {
                String::new()
            }
        );
        return ExitCode::SUCCESS;
    }
    stale.sort();
    eprintln!(
        "{}: {} stale cache entr{} (run inputs changed; purge or regenerate):",
        dir.display(),
        stale.len(),
        if stale.len() == 1 { "y" } else { "ies" }
    );
    for name in &stale {
        eprintln!("  {name}");
    }
    eprintln!("the current build writes:");
    for name in &expected {
        eprintln!("  {name}");
    }
    ExitCode::FAILURE
}
