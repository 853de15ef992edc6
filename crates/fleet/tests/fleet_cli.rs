//! The `fleet` binary's argument and input contract. Usage errors exit
//! 2: a NaN watchdog threshold (every comparison with NaN is false and
//! would silently switch its check off), a zero fleet shape, and a seed
//! sequence that overflows `u64`. An explicit `--admit-limit` holds
//! whichever side of `--wave-size` it is on. A store log too deeply
//! nested to parse is a typed error and exit 1, not a stack overflow.
//! `--telemetry` runs the passes even when a cached report would answer.
//! Two `--corpus` runs print the same fingerprints.

use ace_fleet::{
    fleet_cache_file_name, fleet_cache_key, fleet_registry_version, FleetCache, FleetConfig,
    TuningStore, FLEET_SCHEMA_VERSION,
};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ace_fleet_cli_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// A fleet run over a throwaway store, its report cache kept out of
/// `results/`.
fn fleet(dir: &Path, args: &[&str]) -> Output {
    let _ = std::fs::remove_file(dir.join("store.jsonl"));
    Command::new(env!("CARGO_BIN_EXE_fleet"))
        .env("ACE_RESULTS_DIR", dir)
        .args(args)
        .arg("--store")
        .arg(dir.join("store.jsonl"))
        .output()
        .expect("fleet binary runs")
}

#[test]
fn watchdog_thresholds_reject_nan_and_accept_values_past_one() {
    let dir = temp_dir("watch");
    // A two-machine fleet with the watchdog on.
    let watched = |flag: &str, value: &str| -> Output {
        fleet(
            &dir,
            &[
                "--preset",
                "smoke",
                "--machines",
                "2",
                "--limit",
                "50000",
                "--jobs",
                "1",
                "--watch",
                flag,
                value,
            ],
        )
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

#[test]
fn an_explicit_admit_limit_wins_in_either_flag_order() {
    let dir = temp_dir("admit");
    let shape = ["--preset", "smoke", "--machines", "4", "--limit", "50000"];
    let common = ["--no-baseline", "--jobs", "1"];
    for order in [
        ["--admit-limit", "3", "--wave-size", "4"],
        ["--wave-size", "4", "--admit-limit", "3"],
    ] {
        let args: Vec<&str> = shape.iter().chain(&common).chain(&order).copied().collect();
        let out = fleet(&dir, &args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{order:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            stdout.contains("(wave size 4, admit limit 3, 1 shed)"),
            "{order:?}: {stdout}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_zero_fleet_shape_is_a_usage_error() {
    let dir = temp_dir("zero");
    for flag in ["--machines", "--wave-size", "--admit-limit", "--limit"] {
        let out = fleet(&dir, &["--preset", "smoke", "--jobs", "1", flag, "0"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} 0: {stderr}");
        assert!(
            stderr.contains(flag) && stderr.contains("positive"),
            "{stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_overflowing_seed_sequence_is_a_usage_error() {
    let dir = temp_dir("seed");
    let run = |seed_base: &str| {
        fleet(
            &dir,
            &[
                "--preset",
                "smoke",
                "--machines",
                "2",
                "--wave-size",
                "2",
                "--limit",
                "20000",
                "--jobs",
                "1",
                "--seed-base",
                seed_base,
            ],
        )
    };
    let out = run("18446744073709551615");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("seed sequence overflows"), "{stderr}");
    assert!(out.stdout.is_empty());
    // One lower, the second machine runs on the largest seed.
    let out = run("18446744073709551614");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn a_deeply_nested_store_line_is_a_typed_error() {
    let dir = temp_dir("deep");
    let log = dir.join("deep.jsonl");
    std::fs::write(&log, "[".repeat(50_000) + "\n").expect("write log");
    let Err(err) = TuningStore::open(&log, fleet_registry_version(), 16) else {
        panic!("a 50 000-deep line must not open");
    };
    assert!(err.to_string().contains("nesting deeper than 128"), "{err}");

    let out = Command::new(env!("CARGO_BIN_EXE_fleet"))
        .env("ACE_RESULTS_DIR", &dir)
        .args(["--preset", "smoke", "--machines", "2", "--limit", "50000"])
        .arg("--store")
        .arg(&log)
        .output()
        .expect("fleet binary runs");
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("nesting deeper than 128"), "{stderr}");
}

/// A cached report has no events to stream, so `--telemetry` must run
/// the passes, as the observability flags do, instead of printing the
/// cache and leaving an empty event file. The binary's first stderr
/// line shows which it chose; the run is stopped there, since a debug
/// build would take minutes over the smoke fleet.
#[test]
fn telemetry_runs_the_passes_instead_of_the_cached_report() {
    let dir = temp_dir("telemetry");
    let cfg = FleetConfig::preset("smoke").expect("smoke preset");
    let cache = FleetCache {
        schema_version: FLEET_SCHEMA_VERSION,
        key: fleet_cache_key(&cfg),
        report: "cached report\n".to_string(),
        warm_hits: 1,
        cold_tunings: 0,
        warm_tunings: 0,
    };
    cache
        .write(dir.join(fleet_cache_file_name(&cfg)))
        .expect("write cache");
    let cached = fleet(&dir, &["--preset", "smoke"]);
    assert!(cached.status.success());
    assert_eq!(String::from_utf8_lossy(&cached.stdout), "cached report\n");

    let mut child = Command::new(env!("CARGO_BIN_EXE_fleet"))
        .env("ACE_RESULTS_DIR", &dir)
        .args(["--preset", "smoke", "--jobs", "1", "--telemetry"])
        .arg(dir.join("events.jsonl"))
        .arg("--store")
        .arg(dir.join("store.jsonl"))
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("fleet binary runs");
    let stderr = child.stderr.take().expect("piped stderr");
    let first = BufReader::new(stderr).lines().next();
    let _ = child.kill();
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&dir);
    let first = first.expect("a stderr line").expect("utf-8 stderr");
    assert!(
        first.starts_with("fleet: 64 machines x2 passes"),
        "the passes must run: {first}"
    );
}

/// Each `fleet --corpus` process writes its specs to a directory of its
/// own, so concurrent runs cannot delete each other's, and the
/// fingerprints it prints depend only on the corpus content: two runs
/// print the same line.
#[test]
fn corpus_fingerprints_do_not_depend_on_the_process() {
    let dir = temp_dir("corpus");
    let spawn = || {
        Command::new(env!("CARGO_BIN_EXE_fleet"))
            .env("ACE_RESULTS_DIR", &dir)
            .args(["--corpus", "2", "--jobs", "1"])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("fleet binary runs")
    };
    let runs = [spawn(), spawn()];
    let lines: Vec<String> = runs
        .into_iter()
        .map(|child| {
            let out = child.wait_with_output().expect("fleet exits");
            let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
            assert!(
                out.status.success(),
                "{}",
                String::from_utf8_lossy(&out.stderr)
            );
            stdout
                .lines()
                .find(|line| line.starts_with("fingerprints stable"))
                .unwrap_or_else(|| panic!("no fingerprint line in {stdout}"))
                .to_string()
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(lines[0], lines[1]);
}
