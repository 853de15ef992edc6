//! The `fleet` binary's watchdog thresholds: NaN is a usage error (exit
//! 2), because every comparison with NaN is false and would silently
//! switch its check off; a finite value past 1 stays legal.

use std::process::{Command, Output};

#[test]
fn watchdog_thresholds_reject_nan_and_accept_values_past_one() {
    let dir = std::env::temp_dir().join(format!("ace_fleet_cli_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    // A two-machine fleet with the watchdog on and a throwaway store.
    let watched = |flag: &str, value: &str| -> Output {
        let _ = std::fs::remove_file(dir.join("store.jsonl"));
        Command::new(env!("CARGO_BIN_EXE_fleet"))
            .args(["--preset", "smoke", "--machines", "2", "--limit", "50000"])
            .args(["--jobs", "1", "--watch", flag, value, "--store"])
            .arg(dir.join("store.jsonl"))
            .output()
            .expect("fleet binary runs")
    };
    for flag in [
        "--max-shed-rate",
        "--min-hit-rate",
        "--max-convergence-slowdown",
    ] {
        let out = watched(flag, "nan");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} nan: {stderr}");
        assert!(stderr.contains(flag), "{stderr}");
    }
    // An impossible floor parses and trips the watchdog (exit 1, not 2).
    let out = watched("--min-hit-rate", "1.01");
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("watchdog breached"), "{stderr}");
}
