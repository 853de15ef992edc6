//! The `ace-benchmark` command line.
//!
//! ```text
//! ace-benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ace-benchmark run [--seed <n>] [--reps <n>] [--seconds <s>] [--out <path>]
//! ace-benchmark compare <parent.json> <change.json> [--benchmark <BENCHMARK.json>]
//! ```
//!
//! The single-workload form prints a summary, a `{"detail": ...}` line,
//! and as its last line `{"correct", "attempted", "failed", "metrics"}`:
//! the driver-facing end-to-end metrics with `--trace 0`, every per-layer
//! metric with `--trace 1`.

use ace_benchmark::compare::{self, Verdict};
use ace_benchmark::measure::{self, Options};
use ace_benchmark::run::{self, RunOptions, DEFAULT_REPS, DEFAULT_SECONDS};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  ace-benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
  ace-benchmark run [--seed <n>] [--reps <n>] [--seconds <s>] [--out <path>]
  ace-benchmark compare <parent.json> <change.json> [--benchmark <BENCHMARK.json>]";

/// Parses `--flag value` pairs after the positional arguments.
struct Flags {
    pairs: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut flags = Flags {
            pairs: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if let Some(name) = arg.strip_prefix("--") {
                let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                flags.pairs.push((name.to_string(), value.clone()));
            } else {
                flags.positional.push(arg.clone());
            }
        }
        Ok(flags)
    }

    fn take<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        let Some(i) = self.pairs.iter().position(|(n, _)| n == name) else {
            return Ok(None);
        };
        let (_, value) = self.pairs.remove(i);
        value
            .parse()
            .map(Some)
            .map_err(|_| format!("--{name}: cannot parse {value:?}"))
    }

    fn finish(&self) -> Result<(), String> {
        match self.pairs.first() {
            Some((name, _)) => Err(format!("unknown flag --{name}")),
            None => Ok(()),
        }
    }
}

fn seconds(flags: &mut Flags) -> Result<f64, String> {
    let s = flags.take::<f64>("seconds")?.unwrap_or(DEFAULT_SECONDS);
    if s.is_finite() && s > 0.0 {
        Ok(s)
    } else {
        Err("--seconds must be positive".into())
    }
}

fn single(mut flags: Flags) -> Result<ExitCode, String> {
    let opts = Options {
        workload: flags.take("workload")?.ok_or("--workload is required")?,
        seed: flags.take("seed")?,
        seconds: seconds(&mut flags)?,
        trace: match flags.take::<u8>("trace")?.unwrap_or(0) {
            0 => false,
            1 => true,
            _ => return Err("--trace takes 0 or 1".into()),
        },
    };
    if !flags.positional.is_empty() {
        return Err(format!("unexpected argument {:?}", flags.positional[0]));
    }
    flags.finish()?;
    let outcome = measure::measure(&opts)?;
    print!("{}", outcome.summary);
    println!("{}", outcome.detail_line());
    println!("{}", outcome.result_line());
    Ok(ExitCode::SUCCESS)
}

fn run_all(mut flags: Flags) -> Result<ExitCode, String> {
    let opts = RunOptions {
        seed: flags.take("seed")?,
        reps: flags.take("reps")?.unwrap_or(DEFAULT_REPS).max(1),
        seconds: seconds(&mut flags)?,
        out: flags
            .take::<PathBuf>("out")?
            .unwrap_or_else(|| PathBuf::from(measure::OUT_DIR).join("run.json")),
    };
    flags.finish()?;
    let ok = run::run(&opts)?;
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_files(mut flags: Flags) -> Result<ExitCode, String> {
    let benchmark = flags.take::<PathBuf>("benchmark")?.unwrap_or_else(|| {
        PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
    });
    flags.finish()?;
    let [parent, change] = flags.positional.as_slice() else {
        return Err("compare takes <parent.json> <change.json>".into());
    };
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let bounds = compare::load_bounds(&read(benchmark.to_str().unwrap_or_default())?)?;
    let parse = |path: &str| -> Result<serde::Value, String> {
        serde_json::from_str(&read(path)?).map_err(|e| format!("{path}: {e}"))
    };
    let rows = compare::compare(&parse(parent)?, &parse(change)?, &bounds)?;
    println!(
        "{:<12} {:<24} {:<9} {:>12} {:>12} {:>8}  verdict",
        "workload", "metric", "unit", "parent", "change", "bound"
    );
    for r in &rows {
        println!(
            "{:<12} {:<24} {:<9} {:>12.4} {:>12.4} {:>8}  {}",
            r.workload, r.metric, r.unit, r.parent, r.change, r.bound, r.verdict
        );
    }
    let regressed = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Regressed)
        .count();
    println!("{} rows, {regressed} regressed", rows.len());
    Ok(if regressed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => Flags::parse(&args[1..]).and_then(run_all),
        Some("compare") => Flags::parse(&args[1..]).and_then(compare_files),
        Some(_) => Flags::parse(&args).and_then(single),
        None => Err("no arguments".into()),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ace-benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
