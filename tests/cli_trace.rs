//! Exit-code and output contract of the `ace trace` subcommands, driven
//! through the real binary: `summarize`/`timeline`/`chrome` succeed on a
//! recorded trace, and `diff` exits zero on identical runs and nonzero
//! when a synthetic regression exceeds the thresholds. `ace run` resolves
//! its `--scheme` through the scheme registry and its workload through
//! the workload registry, and rejects bad arguments before it simulates.
//! A line nested too deeply to parse is a typed error and exit 1 for both
//! JSONL readers. `ace trace` takes only its five subcommands, and there
//! is no `ace replay`. `ace sweep` prints a pinned grid.

use std::path::PathBuf;
use std::process::{Command, Output};

fn ace(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ace"))
        .args(args)
        .output()
        .expect("ace binary runs")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ace_cli_trace_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// A small synthetic trace: one converged episode plus a reconfiguration,
/// with the converged IPC injectable so tests can fabricate regressions.
fn synthetic_trace(ipc: f64) -> String {
    let scope = r#"{"Hotspot":{"method":3}}"#;
    [
        r#"{"HotspotPromoted":{"method":3,"invocations":5,"instret":100}}"#.to_string(),
        format!(r#"{{"TuningStarted":{{"scope":{scope},"configs":4,"instret":120}}}}"#),
        format!(
            r#"{{"TuningStep":{{"scope":{scope},"trial":0,"ipc":{ipc},"epi_nj":0.5,"instret":200}}}}"#
        ),
        format!(
            r#"{{"TuningConverged":{{"scope":{scope},"trials":1,"ipc":{ipc},"epi_nj":0.5,"instret":300}}}}"#
        ),
        r#"{"Reconfigured":{"cu":"L1d","from":0,"to":2,"cause":"Apply","cycle":400}}"#.to_string(),
    ]
    .join("\n")
        + "\n"
}

#[test]
fn summarize_and_timeline_report_a_recorded_run() {
    let dir = temp_dir("summarize");
    let trace = dir.join("run.jsonl");
    let out = ace(&[
        "run",
        "db",
        "--limit",
        "2000000",
        "--telemetry",
        trace.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let summary = ace(&["trace", "summarize", trace.to_str().unwrap()]);
    assert!(summary.status.success());
    let text = String::from_utf8(summary.stdout).unwrap();
    assert!(text.contains("trace summary"), "{text}");
    assert!(
        !text.contains("events total 0"),
        "trace must have events: {text}"
    );

    let timeline = ace(&["trace", "timeline", trace.to_str().unwrap()]);
    assert!(timeline.status.success());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chrome_export_is_valid_json() {
    let dir = temp_dir("chrome");
    let trace = dir.join("t.jsonl");
    std::fs::write(&trace, synthetic_trace(1.5)).unwrap();
    let json_path = dir.join("t.chrome.json");
    let out = ace(&[
        "trace",
        "chrome",
        trace.to_str().unwrap(),
        "--out",
        json_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&json_path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    let value: serde::Value = serde_json::from_str(&json).expect("export parses as JSON");
    let root = value.as_object().expect("root is an object");
    assert!(serde::find_field(root, "traceEvents")
        .and_then(serde::Value::as_array)
        .is_some_and(|events| !events.is_empty()));
}

#[test]
fn diff_exit_codes_encode_the_verdict() {
    let dir = temp_dir("diff");
    let base = dir.join("a.jsonl");
    let same = dir.join("b.jsonl");
    let slower = dir.join("c.jsonl");
    std::fs::write(&base, synthetic_trace(1.5)).unwrap();
    std::fs::write(&same, synthetic_trace(1.5)).unwrap();
    // 20% IPC drop: far beyond the default 2% threshold.
    std::fs::write(&slower, synthetic_trace(1.2)).unwrap();

    let ok = ace(&[
        "trace",
        "diff",
        base.to_str().unwrap(),
        same.to_str().unwrap(),
    ]);
    assert!(
        ok.status.success(),
        "{}",
        String::from_utf8_lossy(&ok.stderr)
    );
    assert!(String::from_utf8_lossy(&ok.stdout).contains("no regressions"));

    let bad = ace(&[
        "trace",
        "diff",
        base.to_str().unwrap(),
        slower.to_str().unwrap(),
    ]);
    assert!(!bad.status.success(), "a 20% IPC drop must fail the diff");
    assert!(String::from_utf8_lossy(&bad.stdout).contains("FAIL"));

    // Loosened thresholds accept the same delta.
    let loose = ace(&[
        "trace",
        "diff",
        base.to_str().unwrap(),
        slower.to_str().unwrap(),
        "--max-ipc-drop",
        "0.5",
    ]);
    assert!(
        loose.status.success(),
        "{}",
        String::from_utf8_lossy(&loose.stderr)
    );

    // A NaN threshold is an error, not a check that passes everything.
    let nan = ace(&[
        "trace",
        "diff",
        base.to_str().unwrap(),
        slower.to_str().unwrap(),
        "--max-ipc-drop",
        "nan",
    ]);
    let stderr = String::from_utf8_lossy(&nan.stderr);
    assert_eq!(nan.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("--max-ipc-drop"), "{stderr}");
    assert!(nan.stdout.is_empty(), "no diff is rendered");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_trace_fails_with_line_number() {
    let dir = temp_dir("malformed");
    let trace = dir.join("bad.jsonl");
    std::fs::write(
        &trace,
        "{\"HotspotPromoted\":{\"method\":1,\"invocations\":1,\"instret\":1}}\ngarbage\n",
    )
    .unwrap();
    let out = ace(&["trace", "summarize", trace.to_str().unwrap()]);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("line 2"));
}

#[test]
fn deeply_nested_lines_are_typed_errors_for_both_readers() {
    let dir = temp_dir("deep");
    let file = dir.join("deep.jsonl");
    let deep = "[".repeat(50_000) + "\n";
    std::fs::write(&file, &deep).unwrap();
    assert!(ace_trace::analyze_reader(deep.as_bytes()).is_err());
    let obs = ace_telemetry::read_obs_jsonl(deep.as_bytes()).unwrap_err();
    assert!(obs.contains("nesting deeper than 128"), "{obs}");
    for reader in ["summarize", "metrics"] {
        let out = ace(&["trace", reader, file.to_str().unwrap()]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "trace {reader}: {stderr}");
        assert!(
            stderr.contains("line 1") && stderr.contains("nesting deeper than 128"),
            "trace {reader}: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_accepts_every_registered_scheme() {
    let out = ace(&["run", "db", "--scheme", "pdm", "--limit", "2000000"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("pdm"));

    let bad = ace(&["run", "db", "--scheme", "warp-drive", "--limit", "200000"]);
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("unknown scheme"));
}

#[test]
fn run_rejects_an_unknown_scheme_before_simulating() {
    // No --limit: a baseline run first would take the whole db preset.
    let out = ace(&["run", "db", "--scheme", "nope"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown scheme"));
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "",
        "nothing runs, so nothing is reported"
    );
}

#[test]
fn workloads_resolve_by_spec_path() {
    let spec = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("ace-benchmark")
        .join("workloads")
        .join("call-dense.json");
    let spec = spec.to_str().unwrap();
    let run = ace(&["run", spec, "--scheme", "pdm", "--limit", "2000000"]);
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        stdout.contains("baseline") && stdout.contains("pdm"),
        "{stdout}"
    );
}

#[test]
fn run_rejects_missing_flag_values_and_a_zero_limit() {
    // `ace trace` takes only its five subcommands, so a workload name is
    // an error that writes nothing; there is no `ace replay`.
    let dir = temp_dir("unknown");
    let path = dir.join("blocks.bin");
    let file = path.to_str().unwrap();
    let subcommands = "summarize, timeline, chrome, diff or metrics";
    for (args, message) in [
        (
            &["run", "db", "--limit", "200000", "--scheme"][..],
            "--scheme needs a value",
        ),
        (&["run", "db", "--limit"][..], "--limit needs a value"),
        (
            &["run", "db", "--limit", "--scheme", "pdm"][..],
            "--limit needs a value",
        ),
        (
            &["run", "db", "--limit", "0"][..],
            "positive instruction count",
        ),
        (&["trace", "db", file, "--limit", "200000"][..], subcommands),
        (&["trace"][..], subcommands),
        (&["replay", file][..], "unknown command \"replay\""),
    ] {
        let out = ace(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?} must fail: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert_eq!(String::from_utf8_lossy(&out.stdout), "", "{args:?}");
    }
    assert!(!path.exists(), "no trace file is written");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `ace sweep check`'s grid, as separate runs of the baseline and of the
/// 16 fixed configurations print it. The sweep runs them as legs of one
/// run, which must not move a digit.
const SWEEP_CHECK: &str = concat!(
    "check: energy saving % / slowdown % per fixed configuration\n",
    "L1D\\L2     1MB        512KB       256KB       128KB\n",
    "  64KB    0.0/0.0    16.1/0.0    24.3/0.0    28.4/0.2 \n",
    "  32KB    3.8/4.2    25.0/4.2    36.6/4.2    43.2/4.5 \n",
    "  16KB   17.1/4.4    38.5/4.4    50.3/4.4    57.0/4.7 \n",
    "   8KB   22.8/5.3    45.5/5.3    58.1/5.3    65.4/5.6 \n",
);

#[test]
fn sweep_prints_the_pinned_grid() {
    let out = ace(&["sweep", "check"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout), SWEEP_CHECK);
}
