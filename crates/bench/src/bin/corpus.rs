//! The corpus binary: differential oracles over a generated-workload
//! corpus, at sizes the registry entry's CI run does not attempt.
//!
//! Flags:
//!
//! * `--count <N>` — generated workloads (default 64, the acceptance
//!   size; the nightly stress tier runs larger).
//! * `--seed-base <N>` — generation seed base (workload `i` uses
//!   `seed_base + i`; default pinned, see
//!   [`ace_bench::experiments::corpus::DEFAULT_SEED_BASE`]).
//! * `--limit <instr>` — per-run instruction budget for generated
//!   workloads (default 2M).
//! * `--scale <N>` — multiply every generated spec's `outer_iters`.
//! * `--preset-scale <N>` — also run the seven presets at N-times their
//!   natural length (full runs, no instruction limit) through the same
//!   oracles — the nightly "100x presets" tier.
//! * `--jobs <N>` — pool width of the jobs=N differential pass (default:
//!   `ACE_JOBS` or available parallelism); zero exits 2.
//! * `--fail-dir <path>` — where failing specs and their minimized
//!   reproducers are written (default `results/corpus-failures`).
//! * `--telemetry <path>` — stream decision events as JSONL.
//!
//! Exit status is nonzero when any oracle is violated; the failing and
//! minimized specs are on disk for triage (commit the reproducer under
//! `crates/workloads/fixtures/regressions/` once the bug is understood).

use ace_bench::experiments::corpus::{run_corpus, write_summary, CorpusParams, DEFAULT_COUNT};
use ace_bench::{default_jobs, print_telemetry_summary, telemetry_from_args};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse_args() -> CorpusParams {
    let mut params = CorpusParams {
        count: DEFAULT_COUNT,
        jobs: default_jobs(),
        ..CorpusParams::default()
    };
    let mut it = std::env::args().skip(1);
    let take = |it: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        it.next().unwrap_or_else(|| {
            eprintln!("{flag} requires a value");
            std::process::exit(2);
        })
    };
    let parse_u64 = |flag: &str, value: String| -> u64 {
        value.parse().unwrap_or_else(|_| {
            eprintln!("{flag} requires a non-negative integer");
            std::process::exit(2);
        })
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--count" => params.count = parse_u64(&arg, take(&mut it, &arg)) as usize,
            "--seed-base" => params.seed_base = parse_u64(&arg, take(&mut it, &arg)),
            "--limit" => params.instruction_limit = parse_u64(&arg, take(&mut it, &arg)).max(1),
            "--scale" => params.scale = parse_u64(&arg, take(&mut it, &arg)).max(1) as u32,
            "--preset-scale" => {
                params.preset_scale = Some(parse_u64(&arg, take(&mut it, &arg)).max(1) as u32);
            }
            "--jobs" => match take(&mut it, &arg).parse::<usize>() {
                Ok(n) if n > 0 => params.jobs = n,
                _ => {
                    eprintln!("--jobs requires a positive integer");
                    std::process::exit(2);
                }
            },
            "--fail-dir" => params.fail_dir = PathBuf::from(take(&mut it, &arg)),
            "--telemetry" => {
                it.next(); // handled by telemetry_from_args
            }
            other => {
                eprintln!("unknown flag {other}; see the corpus binary docs");
                std::process::exit(2);
            }
        }
    }
    if params.count == 0 && params.preset_scale.is_none() {
        eprintln!("--count 0 without --preset-scale leaves nothing to run");
        std::process::exit(2);
    }
    params
}

fn main() -> ExitCode {
    let params = parse_args();
    let telemetry = telemetry_from_args();
    eprintln!(
        "corpus: {} generated workload(s){} x {} schemes, jobs={}",
        params.count,
        params
            .preset_scale
            .map(|s| format!(" + 7 presets at {s}x"))
            .unwrap_or_default(),
        ace_bench::experiments::corpus::CORPUS_SCHEMES.len(),
        params.jobs
    );
    let outcome = match run_corpus(&params, &telemetry) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("corpus failed to run: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut text = String::new();
    ace_bench::experiments::corpus::render(&params, &outcome, &mut text);
    print!("{text}");
    if let Some(path) = write_summary(&params, &outcome) {
        eprintln!("summary cached at {}", path.display());
    }
    print_telemetry_summary(&telemetry);
    if outcome.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "corpus: {} oracle violation(s); specs under {}",
            outcome.failures.len(),
            params.fail_dir.display()
        );
        ExitCode::FAILURE
    }
}
