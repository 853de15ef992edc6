//! **Extension** — Phase Distance Mapping, prediction vs search.
//!
//! Wrapper over `ace_bench::experiments::pdm`. Unlike `run_all pdm` it
//! accepts `--jobs <N>` (results are byte-identical at any width) and
//! `--fresh` (ignore the `results/pdm-*` caches — required for a
//! complete `--telemetry` trace, since cache hits skip their runs).

use ace_bench::experiments::{commit_report, pdm};
use ace_bench::{default_jobs, print_telemetry_summary, telemetry_from_args};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut jobs = default_jobs();
    let mut fresh = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--jobs" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => jobs = n,
                _ => {
                    eprintln!("--jobs requires a positive integer");
                    return ExitCode::from(2);
                }
            },
            "--fresh" => fresh = true,
            "--telemetry" => {
                it.next(); // handled by telemetry_from_args
            }
            other => {
                eprintln!("unknown flag {other}; pdm takes --jobs, --fresh, --telemetry");
                return ExitCode::from(2);
            }
        }
    }
    let telemetry = telemetry_from_args();
    let opts = pdm::PdmOptions {
        jobs,
        fresh,
        telemetry: telemetry.clone(),
        ..pdm::PdmOptions::default()
    };
    match pdm::run_pdm(&opts) {
        Ok(results) => {
            let report = pdm::render(&results);
            print!("{}", report.text);
            commit_report(&report);
            print_telemetry_summary(&telemetry);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pdm: {e}");
            ExitCode::FAILURE
        }
    }
}
