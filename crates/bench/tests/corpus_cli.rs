//! The `corpus` binary's argument contract: a flag value it cannot use
//! as given is a usage error (exit 2) that names the flag, as it is for
//! `run_all` and `fleet`. That covers `--jobs 0`, which would otherwise
//! be a one-worker pool that its jobs=1-vs-jobs=N oracle compares with
//! the serial reference; a zero `--limit`, `--scale` or
//! `--preset-scale`, which would otherwise be raised to 1; a scale past
//! `u32`, which would otherwise be truncated; and a seed sequence
//! `seed_base + i` that overflows `u64`, which would otherwise wrap.

use std::process::{Command, Output};

/// Runs a one-workload corpus with a short budget plus `args`, so a
/// binary that accepted a bad value would finish quickly and fail the
/// exit-code check instead of hanging.
fn corpus(args: &[&str]) -> Output {
    let dir = std::env::temp_dir().join(format!("ace_corpus_cli_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_corpus"))
        .args(["--count", "1", "--limit", "20000", "--jobs", "1"])
        .args(args)
        .arg("--fail-dir")
        .arg(dir.join("failures"))
        .env("ACE_RESULTS_DIR", &dir)
        .output()
        .expect("corpus runs");
    let _ = std::fs::remove_dir_all(&dir);
    out
}

#[test]
fn unusable_flag_values_are_usage_errors() {
    let max = "18446744073709551615";
    for (args, message) in [
        (&["--jobs", "0"][..], "--jobs requires a positive integer"),
        (&["--limit", "0"], "--limit requires a positive integer"),
        (&["--scale", "0"], "--scale requires a positive integer"),
        (
            &["--preset-scale", "0"],
            "--preset-scale requires a positive integer",
        ),
        (
            &["--scale", "4294967296"],
            "--scale requires a positive integer below 2^32",
        ),
        (
            &["--preset-scale", "4294967296"],
            "--preset-scale requires a positive integer below 2^32",
        ),
        (
            &["--count", "2", "--seed-base", max],
            "--seed-base 18446744073709551615 with --count 2: the seed sequence overflows",
        ),
    ] {
        let out = corpus(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
    // One workload on the largest seed fits.
    let out = corpus(&["--seed-base", max]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
