//! The corpus binary: differential oracles over a generated-workload
//! corpus, at sizes the registry entry's CI run does not attempt. It
//! prints its report and writes nothing but failing specs; at `--count 8
//! --jobs 2` the report is the committed `results/corpus.txt`.
//!
//! Flags:
//!
//! * `--count <N>` — generated workloads (default 64, the acceptance
//!   size; the nightly stress tier runs larger).
//! * `--seed-base <N>` — generation seed base (workload `i` uses
//!   `seed_base + i`, which must fit in a `u64`; default pinned, see
//!   [`ace_bench::experiments::corpus::DEFAULT_SEED_BASE`]).
//! * `--limit <instr>` — per-run instruction budget for generated
//!   workloads (default 2M).
//! * `--scale <N>` — multiply every generated spec's `outer_iters`
//!   (below 2^32).
//! * `--preset-scale <N>` — also run the seven presets at N-times their
//!   natural length (full runs, no instruction limit) through the same
//!   oracles — the nightly "100x presets" tier (below 2^32).
//! * `--jobs <N>` — pool width of the jobs=N differential pass (default:
//!   `ACE_JOBS` or available parallelism).
//! * `--fail-dir <path>` — where failing specs and their minimized
//!   reproducers are written (default `results/corpus-failures`).
//! * `--telemetry <path>` — stream decision events as JSONL.
//!
//! `--limit`, `--scale`, `--preset-scale` and `--jobs` must be positive.
//! A value that breaks a flag's rule, or a seed sequence that overflows,
//! exits 2 with a message naming the flag; nothing is rounded or
//! truncated into range.
//!
//! Exit status is nonzero when any oracle is violated; the failing and
//! minimized specs are on disk for triage (commit the reproducer under
//! `crates/workloads/fixtures/regressions/` once the bug is understood).

use ace_bench::experiments::corpus::{run_corpus, CorpusParams, DEFAULT_COUNT};
use ace_bench::{default_jobs, print_telemetry_summary, telemetry_from_args};
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;

/// Parses a flag's value as a `T`, or exits 2 naming the flag when the
/// value is not an integer, does not fit in `T`, or is zero where
/// `positive` asks for more.
fn integer<T: FromStr + Default + PartialEq>(flag: &str, value: &str, positive: bool) -> T {
    match value.parse::<T>() {
        Ok(n) if !positive || n != T::default() => n,
        _ => {
            let sign = if positive { "positive" } else { "non-negative" };
            let bits = 8 * std::mem::size_of::<T>();
            eprintln!("{flag} requires a {sign} integer below 2^{bits}");
            std::process::exit(2);
        }
    }
}

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
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--count" => params.count = integer(&arg, &take(&mut it, &arg), false),
            "--seed-base" => params.seed_base = integer(&arg, &take(&mut it, &arg), false),
            "--limit" => params.instruction_limit = integer(&arg, &take(&mut it, &arg), true),
            "--scale" => params.scale = integer(&arg, &take(&mut it, &arg), true),
            "--preset-scale" => {
                params.preset_scale = Some(integer(&arg, &take(&mut it, &arg), true));
            }
            "--jobs" => params.jobs = integer(&arg, &take(&mut it, &arg), true),
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
    if params.count > 0
        && params
            .seed_base
            .checked_add(params.count as u64 - 1)
            .is_none()
    {
        eprintln!(
            "--seed-base {} with --count {}: the seed sequence overflows u64",
            params.seed_base, params.count
        );
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
