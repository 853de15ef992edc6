//! `run`: every workload in its own child process, reps interleaved
//! round-robin (A B C D A B C D ...), then one traced child per workload;
//! checks that deterministic results repeat across reps and under
//! tracing, prints every metric, and writes a result file `compare`
//! reads.

use crate::compare::{as_str, field};
use crate::metrics::{self, Audience, MetricDef};
use crate::stats::{median, quartiles};
use crate::workload::NAMES;
use serde::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// Measurement seconds per child unless `--seconds` says otherwise; the
/// same as `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 20.0;

/// Reps per workload unless `--reps` says otherwise.
pub const DEFAULT_REPS: usize = 3;

/// Options of `run`.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Seed passed to every child (`None`: the committed seeds).
    pub seed: Option<u64>,
    /// Untraced reps per workload.
    pub reps: usize,
    /// Measurement seconds per child.
    pub seconds: f64,
    /// Result file.
    pub out: PathBuf,
}

/// What one child printed.
#[derive(Debug, Clone)]
struct Child {
    correct: bool,
    attempted: u64,
    failed: u64,
    detail: Value,
}

impl Child {
    fn number(&self, section: &str, name: &str) -> Option<f64> {
        field(field(&self.detail, section)?, name)?.as_f64()
    }

    fn digest(&self) -> String {
        field(&self.detail, "digest")
            .and_then(as_str)
            .unwrap_or("")
            .to_string()
    }
}

fn spawn(workload: &str, opts: &RunOptions, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--seconds",
        &opts.seconds.to_string(),
    ])
    .args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(seed) = opts.seed {
        cmd.args(["--seed", &seed.to_string()]);
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("{workload} child exited with {}", out.status));
    }
    let mut detail = None;
    let mut result = None;
    for line in stdout.lines() {
        if line.starts_with("{\"detail\"") {
            let v: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
            detail = field(&v, "detail").cloned();
        } else if line.starts_with('{') {
            result = Some(serde_json::from_str::<Value>(line).map_err(|e| e.to_string())?);
        }
    }
    let result = result.ok_or_else(|| format!("{workload} child printed no result line"))?;
    let get = |k: &str| field(&result, k).and_then(Value::as_u64).unwrap_or(0);
    Ok(Child {
        correct: matches!(field(&result, "correct"), Some(Value::Bool(true))),
        attempted: get("attempted"),
        failed: get("failed"),
        detail: detail.ok_or_else(|| format!("{workload} child printed no detail line"))?,
    })
}

/// Runs the whole benchmark; returns whether every run and check passed.
///
/// # Errors
///
/// A child that cannot start or prints no result, or an unwritable
/// result file.
pub fn run(opts: &RunOptions) -> Result<bool, String> {
    let mut reps: BTreeMap<&str, Vec<Child>> = BTreeMap::new();
    for rep in 0..opts.reps {
        for name in NAMES {
            eprintln!("[ace-benchmark] rep {}/{} {name}", rep + 1, opts.reps);
            reps.entry(name)
                .or_default()
                .push(spawn(name, opts, false)?);
        }
    }
    let mut traced: BTreeMap<&str, Child> = BTreeMap::new();
    for name in NAMES {
        eprintln!("[ace-benchmark] traced {name}");
        traced.insert(name, spawn(name, opts, true)?);
    }

    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut problems: Vec<String> = Vec::new();
    for child in reps.values().flatten().chain(traced.values()) {
        attempted += child.attempted;
        failed += child.failed;
        if let Some(list) = field(&child.detail, "problems").and_then(Value::as_array) {
            problems.extend(list.iter().filter_map(as_str).map(str::to_string));
        }
        if !child.correct && child.failed == 0 {
            failed += 1;
            problems.push("a child reported incorrect output without a failure".into());
        }
    }
    let mut check = |ok: bool, problem: String| {
        attempted += 1;
        if !ok {
            failed += 1;
            problems.push(problem);
        }
    };
    for name in NAMES {
        let runs = &reps[name];
        let digest = runs[0].digest();
        for (i, child) in runs.iter().enumerate().skip(1) {
            check(
                child.digest() == digest,
                format!(
                    "{name}: rep {i} digest {} != rep 0 {digest}",
                    child.digest()
                ),
            );
        }
        check(
            traced[name].digest() == digest,
            format!(
                "{name}: traced digest {} != untraced {digest}",
                traced[name].digest()
            ),
        );
        for def in metrics::END_TO_END.iter().filter(|d| is_deterministic(d)) {
            let values: Vec<Option<f64>> = runs
                .iter()
                .map(|c| c.number("end_to_end", def.name))
                .collect();
            check(
                values.windows(2).all(|w| w[0] == w[1]),
                format!("{name}: {} differs between reps: {values:?}", def.name),
            );
        }
    }
    let failed_frac = failed as f64 / attempted.max(1) as f64;

    let report = render(opts, &reps, &traced, failed_frac);
    print!("{report}");
    let result = result_file(opts, &reps, &traced, attempted, failed, &problems);
    if let Some(dir) = opts.out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(
        &opts.out,
        serde_json::to_string(&result).expect("values serialize"),
    )
    .map_err(|e| format!("{}: {e}", opts.out.display()))?;
    println!("result file: {}", opts.out.display());
    for p in &problems {
        println!("PROBLEM: {p}");
    }
    Ok(failed == 0)
}

/// Metrics that must repeat exactly for identical inputs: the simulated
/// results.
fn is_deterministic(def: &MetricDef) -> bool {
    def.audience == Audience::Report && def.name != "failed_frac"
}

/// A workload's samples of an end-to-end metric across reps.
fn samples(runs: &[Child], name: &str) -> Vec<f64> {
    if name == "failed_frac" {
        return runs
            .iter()
            .map(|c| c.failed as f64 / c.attempted.max(1) as f64)
            .collect();
    }
    runs.iter()
        .filter_map(|c| c.number("end_to_end", name))
        .collect()
}

fn render(
    opts: &RunOptions,
    reps: &BTreeMap<&str, Vec<Child>>,
    traced: &BTreeMap<&str, Child>,
    failed_frac: f64,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== ace-benchmark: end-to-end, untraced ({} reps x {} s, seed {}, {} host threads) ===",
        opts.reps,
        opts.seconds,
        opts.seed.map_or("committed".into(), |s| s.to_string()),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let _ = writeln!(
        out,
        "{:<12} {:<24} {:<9} {:>12} {:>12} {:>12} {:>3}",
        "workload", "metric", "unit", "median", "min", "max", "n"
    );
    for name in NAMES {
        for def in metrics::END_TO_END.iter() {
            let v = samples(&reps[name], def.name);
            let Some(med) = median(&v) else { continue };
            let min = v.iter().copied().fold(f64::INFINITY, f64::min);
            let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let _ = writeln!(
                out,
                "{name:<12} {:<24} {:<9} {med:>12.4} {min:>12.4} {max:>12.4} {:>3}",
                def.name,
                def.unit,
                v.len()
            );
        }
    }
    let _ = writeln!(out, "failed_frac (all runs and checks): {failed_frac}");
    let _ = writeln!(
        out,
        "\n=== ace-benchmark: per layer, traced pass (1 child per workload) ==="
    );
    let units: BTreeMap<String, &str> = metrics::per_layer()
        .into_iter()
        .map(|(n, u, _)| (n, u))
        .collect();
    for name in NAMES {
        let Some(layer) = field(&traced[name].detail, "per_layer").and_then(Value::as_object)
        else {
            continue;
        };
        for (metric, value) in layer {
            let unit = units.get(metric).copied().unwrap_or("");
            let _ = writeln!(
                out,
                "{name:<12} {metric:<38} {:>14.4} {unit}",
                value.as_f64().unwrap_or(0.0)
            );
        }
        if let Some(tails) = field(&traced[name].detail, "tails").and_then(Value::as_object) {
            for (series, t) in tails {
                let get = |k| field(t, k).and_then(Value::as_f64).unwrap_or(0.0);
                let _ = writeln!(
                    out,
                    "{name:<12} {series:<38} median {:.4}, p{} {:.4} (n = {})",
                    get("median"),
                    get("p"),
                    get("value"),
                    get("n")
                );
            }
        }
    }
    out
}

fn result_file(
    opts: &RunOptions,
    reps: &BTreeMap<&str, Vec<Child>>,
    traced: &BTreeMap<&str, Child>,
    attempted: u64,
    failed: u64,
    problems: &[String],
) -> Value {
    let nums = |v: &[f64]| Value::Array(v.iter().map(|x| Value::F64(*x)).collect());
    let workloads = NAMES
        .iter()
        .map(|name| {
            let runs = &reps[name];
            let e2e = metrics::END_TO_END
                .iter()
                .filter_map(|def| {
                    let v = samples(runs, def.name);
                    let med = median(&v)?;
                    let (q1, q3) = quartiles(&v)?;
                    Some((
                        def.name.to_string(),
                        Value::Object(vec![
                            ("unit".into(), Value::Str(def.unit.into())),
                            ("better".into(), Value::Str(def.better.as_str().into())),
                            (
                                "driver".into(),
                                Value::Bool(def.audience == Audience::Driver),
                            ),
                            ("samples".into(), nums(&v)),
                            ("median".into(), Value::F64(med)),
                            ("q1".into(), Value::F64(q1)),
                            ("q3".into(), Value::F64(q3)),
                        ]),
                    ))
                })
                .collect();
            let t = &traced[name].detail;
            Value::Object(vec![
                ("name".into(), Value::Str((*name).into())),
                ("digest".into(), Value::Str(runs[0].digest())),
                ("end_to_end".into(), Value::Object(e2e)),
                (
                    "per_layer".into(),
                    field(t, "per_layer").cloned().unwrap_or(Value::Null),
                ),
                (
                    "tails".into(),
                    field(t, "tails").cloned().unwrap_or(Value::Null),
                ),
            ])
        })
        .collect();
    Value::Object(vec![
        ("schema".into(), Value::U64(1)),
        ("seed".into(), opts.seed.map_or(Value::Null, Value::U64)),
        ("reps".into(), Value::U64(opts.reps as u64)),
        ("seconds".into(), Value::F64(opts.seconds)),
        (
            "host_threads".into(),
            Value::U64(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        ("attempted".into(), Value::U64(attempted)),
        ("failed".into(), Value::U64(failed)),
        (
            "failed_frac".into(),
            Value::F64(failed as f64 / attempted.max(1) as f64),
        ),
        (
            "problems".into(),
            Value::Array(problems.iter().cloned().map(Value::Str).collect()),
        ),
        ("workloads".into(), Value::Array(workloads)),
    ])
}
