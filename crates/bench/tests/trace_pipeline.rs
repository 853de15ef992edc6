//! End-to-end contract of the trace pipeline: a JSONL trace recorded by
//! the parallel engine is byte-identical at any pool width and analyzes
//! identically.
//!
//! This is the test behind `ace trace summarize` being diffable in CI:
//! it runs the same experiment set at width 1 and width 4, then asserts
//! the trace files, analyses, and rendered summaries are equal.

use ace_bench::ExperimentSet;
use ace_core::RunConfig;
use ace_telemetry::Telemetry;
use std::path::PathBuf;

const PRESETS: [&str; 2] = ["db", "jess"];
const LIMIT: u64 = 3_000_000;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ace_trace_pipeline_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn limited() -> RunConfig {
    RunConfig {
        instruction_limit: Some(LIMIT),
        ..RunConfig::default()
    }
}

/// Runs the preset trio at `width`, tracing to a JSONL file, and returns
/// the raw trace bytes.
fn trace_at_width(width: usize, tag: &str) -> Vec<u8> {
    let dir = temp_dir(tag);
    let trace_path = dir.join("trace.jsonl");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let telemetry = Telemetry::jsonl(&trace_path).expect("jsonl sink");
    ExperimentSet::presets(PRESETS)
        .config(limited())
        .fresh(true)
        .results_dir(dir.join("results"))
        .telemetry(&telemetry)
        .run_parallel(width)
        .expect("runs succeed");
    telemetry.flush();
    let bytes = std::fs::read(&trace_path).expect("trace file");
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

#[test]
fn summaries_are_byte_identical_across_pool_widths() {
    let serial = trace_at_width(1, "w1");
    let parallel = trace_at_width(4, "w4");
    assert!(!serial.is_empty(), "traced runs must emit events");
    assert_eq!(serial, parallel, "trace files must be byte-identical");

    let a = ace_trace::analyze_reader(serial.as_slice()).expect("serial trace analyzes");
    let b = ace_trace::analyze_reader(parallel.as_slice()).expect("parallel trace analyzes");
    assert_eq!(a, b);
    assert_eq!(ace_trace::summarize(&a), ace_trace::summarize(&b));
    assert_eq!(ace_trace::timeline(&a), ace_trace::timeline(&b));
    assert_eq!(ace_trace::chrome_trace(&a), ace_trace::chrome_trace(&b));

    // The same trace diffed against itself never regresses.
    let report = ace_trace::diff(&a, &b, &ace_trace::DiffThresholds::default());
    assert!(!report.regressed(), "{}", report.render());
}

#[test]
fn engine_histograms_cover_every_scheme_job() {
    let dir = temp_dir("hist");
    let telemetry = Telemetry::counting();
    ExperimentSet::presets(PRESETS)
        .config(limited())
        .fresh(true)
        .results_dir(&dir)
        .telemetry(&telemetry)
        .run_parallel(2)
        .expect("runs succeed");
    let _ = std::fs::remove_dir_all(&dir);
    let metrics = telemetry.metrics().expect("enabled handle has metrics");
    let summary = metrics.summary();
    assert!(summary.contains("engine.job_wall_ms"), "{summary}");
    assert!(summary.contains("engine.queue_wait_ms"), "{summary}");
    // 2 presets x 3 schemes = 6 jobs, one histogram sample each.
    assert!(summary.contains("n=6"), "{summary}");
}
