//! The `corpus` binary's argument contract: `--jobs 0` is a usage error
//! (exit 2), as it is for `run_all`, `pdm` and `fleet`, not a silent
//! one-worker pool that its jobs=1-vs-jobs=N oracle would then compare
//! with the serial reference.

use std::process::Command;

#[test]
fn zero_jobs_is_a_usage_error() {
    let dir = std::env::temp_dir().join(format!("ace_corpus_cli_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // A one-workload corpus, so a binary that accepted the flag would
    // finish quickly and fail the exit-code check instead of hanging.
    let out = Command::new(env!("CARGO_BIN_EXE_corpus"))
        .args(["--count", "1", "--limit", "20000", "--jobs", "0"])
        .arg("--fail-dir")
        .arg(dir.join("failures"))
        .env("ACE_RESULTS_DIR", &dir)
        .output()
        .expect("corpus runs");
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("--jobs requires a positive integer"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty());
}
