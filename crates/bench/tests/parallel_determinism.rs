//! The engine's headline guarantee: a parallel run is *byte-identical* to a
//! serial one. `ExperimentSet::run_parallel(N)` must produce the same
//! `SchemeResults` (as serialized JSON), the same cached files, and the
//! same telemetry event stream at any worker-pool width.
//!
//! Runs are capped at a few million instructions via the base `RunConfig`
//! so the suite stays quick in debug builds; content-addressed cache keys
//! see the limit and keep these runs apart from full-length results.

use ace_bench::{ExperimentSet, SchemeResults};
use ace_core::RunConfig;
use ace_telemetry::Telemetry;
use std::path::PathBuf;

const PRESETS: [&str; 3] = ["db", "jess", "mpeg"];
const LIMIT: u64 = 3_000_000;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ace_parallel_determinism_{}_{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn limited() -> RunConfig {
    RunConfig {
        instruction_limit: Some(LIMIT),
        ..RunConfig::default()
    }
}

/// Runs the set at `jobs` width and returns the results, the full
/// telemetry event stream (one JSON line per event) and the cache dir.
fn run_at_width(jobs: usize, tag: &str) -> (Vec<SchemeResults>, Vec<String>, PathBuf) {
    let dir = temp_dir(tag);
    let (telemetry, sink) = Telemetry::buffered();
    let results = ExperimentSet::presets(PRESETS)
        .config(limited())
        .telemetry(&telemetry)
        .results_dir(dir.clone())
        .run_parallel(jobs)
        .expect("headline trio over three presets");
    let events = sink
        .drain()
        .iter()
        .map(|e| serde_json::to_string(e).expect("event serializes"))
        .collect();
    (results, events, dir)
}

#[test]
fn parallel_runs_are_byte_identical_to_serial() {
    let (serial, serial_events, serial_dir) = run_at_width(1, "serial");
    let (parallel, parallel_events, parallel_dir) = run_at_width(4, "parallel");

    let serial_json = serde_json::to_string(&serial).unwrap();
    let parallel_json = serde_json::to_string(&parallel).unwrap();
    assert_eq!(
        serial_json, parallel_json,
        "jobs=4 must serialize byte-identically to jobs=1"
    );

    assert!(
        !serial_events.is_empty(),
        "the runs must actually emit telemetry"
    );
    assert_eq!(
        serial_events, parallel_events,
        "the telemetry event stream must match across widths"
    );

    // The cached artifacts themselves are byte-identical too.
    let mut names: Vec<String> = std::fs::read_dir(&serial_dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert_eq!(names.len(), PRESETS.len(), "one cache file per preset");
    for name in &names {
        let a = std::fs::read(serial_dir.join(name)).unwrap();
        let b = std::fs::read(parallel_dir.join(name)).unwrap();
        assert_eq!(a, b, "cache file {name} differs between widths");
    }

    let _ = std::fs::remove_dir_all(&serial_dir);
    let _ = std::fs::remove_dir_all(&parallel_dir);
}

#[test]
fn second_run_hits_the_cache_and_skips_all_work() {
    let dir = temp_dir("cache_hit");
    let first = ExperimentSet::presets(PRESETS)
        .config(limited())
        .results_dir(dir.clone())
        .run_parallel(2)
        .unwrap();

    // Warm cache: the rerun must not simulate anything, so a counting
    // telemetry handle sees zero events.
    let telemetry = Telemetry::counting();
    let second = ExperimentSet::presets(PRESETS)
        .config(limited())
        .telemetry(&telemetry)
        .results_dir(dir.clone())
        .run_parallel(2)
        .unwrap();
    assert_eq!(
        telemetry.total_events(),
        0,
        "cached results must not re-run the simulator"
    );
    assert_eq!(
        serde_json::to_string(&first).unwrap(),
        serde_json::to_string(&second).unwrap(),
        "cache round-trip must be lossless"
    );

    // --fresh ignores the cache and simulates again.
    let fresh_tel = Telemetry::counting();
    let third = ExperimentSet::presets(PRESETS)
        .config(limited())
        .telemetry(&fresh_tel)
        .results_dir(dir.clone())
        .fresh(true)
        .run_parallel(2)
        .unwrap();
    assert!(
        fresh_tel.total_events() > 0,
        "fresh(true) must bypass the cache"
    );
    assert_eq!(
        serde_json::to_string(&first).unwrap(),
        serde_json::to_string(&third).unwrap(),
        "fresh rerun reproduces the same bytes"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_preset_propagates_as_an_error() {
    let dir = temp_dir("bad_preset");
    let err = ExperimentSet::presets(["db", "no_such_workload"])
        .config(limited())
        .results_dir(dir.clone())
        .run_parallel(2)
        .unwrap_err();
    let text = err.to_string();
    assert!(
        text.contains("no_such_workload"),
        "error must name the failing job: {text}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
