//! `check_results` accepts exactly the result caches the current build
//! writes: it passes on the committed `results/`, and any other `*.json`
//! beside them fails it with exit 1 and names the file. `fleet-*.json`
//! files are left to `fleet --check-cache`.

use ace_bench::cache_key;
use ace_core::RunConfig;
use std::path::{Path, PathBuf};
use std::process::Output;

/// A private copy of the committed `results/` directory.
fn committed_copy(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ace_check_results_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    for entry in std::fs::read_dir(results).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
    }
    dir
}

fn check_results(dir: &Path) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_check_results"))
        .env("ACE_RESULTS_DIR", dir)
        .output()
        .expect("check_results runs")
}

/// Runs the check on the committed results plus `extra`, an empty file.
fn check_with(tag: &str, extra: &str) -> Output {
    let dir = committed_copy(tag);
    std::fs::write(dir.join(extra), "{}").unwrap();
    let out = check_results(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

#[test]
fn the_committed_results_pass() {
    let dir = committed_copy("committed");
    let out = check_results(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn every_file_the_build_does_not_write_fails() {
    let wrong = "0123456789abcdef";
    assert_ne!(cache_key("db", &RunConfig::default()), wrong);
    for extra in [
        format!("db-{wrong}.json"),
        format!("pdm-db-{wrong}.json"),
        format!("gen-corpus-{wrong}.json"),
        "db.json".to_string(),
        "foo.json".to_string(),
    ] {
        let out = check_with("stale", &extra);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{extra}: {stderr}");
        assert!(stderr.contains(&extra), "{extra}: {stderr}");
    }
}

#[test]
fn fleet_caches_are_left_to_the_fleet_check() {
    let out = check_with("fleet", "fleet-0123456789abcdef.json");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
