//! The pdm experiment inherits the engine's headline guarantee: a
//! parallel run of its set is byte-identical to a serial one — same
//! serialized results, same rendered report, same cache files.
//!
//! Runs are instruction-limited via `ExperimentSet::config` so the suite
//! stays quick in debug builds; the cache key sees the limit, keeping
//! these entries apart from full-length results.

use ace_bench::experiments::pdm::{render, PdmResults, PDM_WORKLOADS};
use ace_bench::ExperimentSet;
use ace_core::RunConfig;
use std::path::PathBuf;

const LIMIT: u64 = 2_000_000;

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("ace_pdm_determinism_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run_at_width(jobs: usize, tag: &str) -> (String, String, PathBuf) {
    let dir = temp_dir(tag);
    let results: Vec<PdmResults> = ExperimentSet::presets(PDM_WORKLOADS)
        .results_dir(&dir)
        .config(RunConfig {
            instruction_limit: Some(LIMIT),
            ..RunConfig::default()
        })
        .run_cached(jobs)
        .expect("pdm suite over six workloads");
    let json = serde_json::to_string(&results).unwrap();
    let text = render(&results).text;
    (json, text, dir)
}

#[test]
fn parallel_pdm_is_byte_identical_to_serial() {
    let (serial_json, serial_text, serial_dir) = run_at_width(1, "serial");
    let (parallel_json, parallel_text, parallel_dir) = run_at_width(4, "parallel");

    assert_eq!(
        serial_json, parallel_json,
        "jobs=4 must serialize byte-identically to jobs=1"
    );
    assert_eq!(
        serial_text, parallel_text,
        "the rendered report must match across widths"
    );

    let mut names: Vec<String> = std::fs::read_dir(&serial_dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert!(!names.is_empty(), "the run must write pdm cache files");
    assert!(
        names.iter().all(|n| n.starts_with("pdm-")),
        "pdm caches live in the pdm- namespace: {names:?}"
    );
    for name in &names {
        let a = std::fs::read(serial_dir.join(name)).unwrap();
        let b = std::fs::read(parallel_dir.join(name)).unwrap();
        assert_eq!(a, b, "cache file {name} differs between widths");
    }

    let _ = std::fs::remove_dir_all(&serial_dir);
    let _ = std::fs::remove_dir_all(&parallel_dir);
}
