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
//! - `pdm-<workload>-<key>.json` — the pdm experiment's set.
//!
//! Anything else `.json` fails. The other committed results are
//! `<name>.txt` reports (the fleet's `fleet_smoke.txt` and the corpus's
//! `corpus.txt` among them), which CI regenerates and diffs instead.
//!
//! Run it before any experiment has executed (CI does), so only committed
//! entries are on disk; a warm local cache written by the current binary
//! passes by construction.

use ace_bench::experiments::pdm;
use ace_bench::{results_dir, ExperimentSet, SchemeResults};
use std::process::ExitCode;

fn main() -> ExitCode {
    let dir = results_dir();
    let mut expected = ExperimentSet::all_presets().cache_files::<SchemeResults>();
    expected.extend(ExperimentSet::presets(pdm::PDM_WORKLOADS).cache_files::<pdm::PdmResults>());

    let entries = match std::fs::read_dir(&dir) {
        Ok(it) => it,
        Err(_) => {
            println!("{}: no results directory, nothing to check", dir.display());
            return ExitCode::SUCCESS;
        }
    };

    let mut stale = Vec::new();
    let mut checked = 0usize;
    for entry in entries.flatten() {
        let file = entry.file_name();
        let Some(name) = file.to_str() else { continue };
        if !name.ends_with(".json") {
            continue;
        }
        if expected.iter().any(|want| want == name) {
            checked += 1;
        } else {
            stale.push(name.to_string());
        }
    }

    if stale.is_empty() {
        println!(
            "{}: {checked} cache entr{} match current keys",
            dir.display(),
            if checked == 1 { "y" } else { "ies" },
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
