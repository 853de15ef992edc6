//! `run_all <experiment>` runs one registry entry by name, printing what
//! a full `run_all` saves as `results/<name>.txt` and writing nothing
//! beside the caches it reads; it takes `--jobs`, and an unknown name
//! exits 2 and lists the registry.

use ace_bench::cache_key;
use ace_core::RunConfig;
use ace_workloads::PRESET_NAMES;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repo_results() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

fn run_all(args: &[&str], results: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args(args)
        .env("ACE_RESULTS_DIR", results)
        .output()
        .expect("run_all runs")
}

/// A private results directory seeded with the committed headline
/// caches, so an experiment reads them instead of re-simulating.
fn seeded_results(tag: &str) -> (PathBuf, Vec<String>) {
    let dir = std::env::temp_dir().join(format!("ace_run_all_cli_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut files = Vec::new();
    for preset in PRESET_NAMES {
        let file = format!("{preset}-{}.json", cache_key(preset, &RunConfig::default()));
        std::fs::copy(repo_results().join(&file), dir.join(&file)).unwrap();
        files.push(file);
    }
    files.sort();
    (dir, files)
}

fn assert_prints_fig4(out: &Output) {
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let expected = std::fs::read_to_string(repo_results().join("fig4_perf.txt")).unwrap();
    assert_eq!(String::from_utf8_lossy(&out.stdout), expected);
}

#[test]
fn an_experiment_runs_by_name() {
    let (dir, seeded) = seeded_results("by_name");
    let out = run_all(&["fig4_perf"], &dir);
    let mut after: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    after.sort();
    let _ = std::fs::remove_dir_all(&dir);
    assert_prints_fig4(&out);
    assert_eq!(after, seeded, "the run writes nothing beside the caches");
}

#[test]
fn an_experiment_takes_a_pool_width() {
    let (dir, _) = seeded_results("jobs");
    let out = run_all(&["fig4_perf", "--jobs", "2"], &dir);
    let _ = std::fs::remove_dir_all(&dir);
    assert_prints_fig4(&out);
}

#[test]
fn an_unknown_experiment_exits_2_and_lists_the_registry() {
    let dir = std::env::temp_dir().join(format!("ace_run_all_unknown_{}", std::process::id()));
    let out = run_all(&["no_such_experiment"], &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("no_such_experiment"), "{stderr}");
    for def in ace_bench::experiments::REGISTRY {
        assert!(
            stderr.contains(def.name),
            "{} missing from {stderr}",
            def.name
        );
    }
    assert!(out.stdout.is_empty());
}
