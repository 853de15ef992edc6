//! Regenerates every experiment on the parallel engine: runs all seven
//! workloads under the three schemes (results are content-address-cached
//! under `results/`), prints the headline summary, then schedules every
//! registered sibling experiment as a job, saving each one's output under
//! `results/<name>.txt` and its sections into `results/SUMMARY.md`.
//!
//! Flags:
//!
//! * `--jobs <N>` — worker-pool width (default: `ACE_JOBS` or the
//!   machine's available parallelism). Output is byte-identical at any
//!   width.
//! * `--fresh` — ignore cached results and re-run everything.
//! * `--headline-only` — skip the sibling experiments.
//! * `--list` — print the experiment registry and every registered
//!   workload name, then exit (nothing runs).
//! * `--telemetry <path>` — stream decision events (tuning,
//!   reconfiguration, promotion) as JSONL and print a summary at the end.
//!   Cached results skip their runs, so combine with `--fresh` for a
//!   complete trace.
//! * `--bench-out <path>` — write a perf-baseline JSON file
//!   (`BENCH_run.json`) with one timed entry per headline workload and
//!   per sibling experiment; see `ace_bench::baseline`.
//!
//! Any failing experiment is reported at the end and the process exits
//! nonzero.

use ace_bench::experiments::{commit_report, ExpCtx, Report, REGISTRY};
use ace_bench::{
    default_jobs, format_table, mean, print_telemetry_summary, results_dir, run_jobs,
    telemetry_from_args, BenchRun, ExperimentSet, Job,
};
use std::process::ExitCode;

struct Args {
    jobs: usize,
    fresh: bool,
    headline_only: bool,
    list: bool,
    bench_out: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        jobs: default_jobs(),
        fresh: false,
        headline_only: false,
        list: false,
        bench_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--jobs" => {
                let value = it.next().and_then(|v| v.parse::<usize>().ok());
                match value {
                    Some(n) if n > 0 => args.jobs = n,
                    _ => {
                        eprintln!("--jobs requires a positive integer");
                        std::process::exit(2);
                    }
                }
            }
            "--fresh" => args.fresh = true,
            "--headline-only" => args.headline_only = true,
            "--list" => args.list = true,
            "--telemetry" => {
                it.next(); // handled by telemetry_from_args
            }
            "--bench-out" => match it.next() {
                Some(path) => args.bench_out = Some(path),
                None => {
                    eprintln!("--bench-out requires a file path");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("unknown flag {other}; see the run_all docs");
                std::process::exit(2);
            }
        }
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    if args.list {
        println!("experiments ({}):", REGISTRY.len());
        for def in REGISTRY {
            println!("  {:<24} {}", def.name, def.summary);
        }
        let workloads = ace_workloads::WorkloadRegistry::builtin();
        let names = workloads.names();
        println!("workloads ({}):", names.len());
        for name in names {
            println!("  {name}");
        }
        println!("(workload names also accept a path to a WorkloadSpec JSON file)");
        return ExitCode::SUCCESS;
    }
    let telemetry = telemetry_from_args();

    let outcomes = match ExperimentSet::all_presets()
        .fresh(args.fresh)
        .telemetry(&telemetry)
        .run_detailed(args.jobs)
    {
        Ok(outcomes) => outcomes,
        Err(e) => {
            eprintln!("headline runs failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut bench_run = BenchRun::new(args.jobs);
    for outcome in &outcomes {
        bench_run.push_workload(outcome);
    }
    let all: Vec<_> = outcomes.into_iter().map(|o| o.results).collect();

    let mut rows = Vec::new();
    for r in &all {
        rows.push(vec![
            r.workload.clone(),
            format!("{}", r.baseline.instret),
            format!("{:.3}", r.baseline.ipc),
            format!("{:.1}", r.bbv_l1d_saving_pct()),
            format!("{:.1}", r.hotspot_l1d_saving_pct()),
            format!("{:.1}", r.bbv_l2_saving_pct()),
            format!("{:.1}", r.hotspot_l2_saving_pct()),
            format!("{:.2}", r.bbv_slowdown_pct()),
            format!("{:.2}", r.hotspot_slowdown_pct()),
        ]);
    }
    rows.push(vec![
        "avg".into(),
        String::new(),
        String::new(),
        format!("{:.1}", mean(all.iter().map(|r| r.bbv_l1d_saving_pct()))),
        format!(
            "{:.1}",
            mean(all.iter().map(|r| r.hotspot_l1d_saving_pct()))
        ),
        format!("{:.1}", mean(all.iter().map(|r| r.bbv_l2_saving_pct()))),
        format!("{:.1}", mean(all.iter().map(|r| r.hotspot_l2_saving_pct()))),
        format!("{:.2}", mean(all.iter().map(|r| r.bbv_slowdown_pct()))),
        format!("{:.2}", mean(all.iter().map(|r| r.hotspot_slowdown_pct()))),
    ]);
    println!("=== Summary (Fig 3 + Fig 4): energy savings % and slowdown % ===");
    println!(
        "{}",
        format_table(
            &[
                "bench", "instr", "baseIPC", "L1Dbbv", "L1Dhot", "L2bbv", "L2hot", "slowBBV",
                "slowHot"
            ],
            &rows
        )
    );

    println!("=== Detection / tuning detail ===");
    let mut rows = Vec::new();
    for r in &all {
        let h = &r.hotspot_report;
        let b = &r.bbv_report;
        rows.push(vec![
            r.workload.clone(),
            format!("{}", r.hotspot.table4.hotspots),
            format!("{}", h.l1d_hotspots()),
            format!("{}", h.l2_hotspots()),
            format!("{:.0}%", 100.0 * h.tuned_fraction()),
            format!(
                "{:.1}%",
                100.0 * h.l1d().covered_instr as f64 / r.hotspot.instret as f64
            ),
            format!(
                "{:.1}%",
                100.0 * h.l2().covered_instr as f64 / r.hotspot.instret as f64
            ),
            format!("{}", b.phases),
            format!("{}", b.tuned_phases),
            format!("{:.0}%", 100.0 * b.tuned_interval_fraction()),
            format!("{:.0}%", 100.0 * b.stability.stable_fraction()),
            format!(
                "{:.1}%",
                100.0 * b.covered_instr as f64 / r.bbv.instret as f64
            ),
        ]);
    }
    println!(
        "{}",
        format_table(
            &[
                "bench", "hs", "hsL1D", "hsL2", "tuned", "covL1D", "covL2", "phases", "tunedPh",
                "tunedInt", "stable", "covBBV"
            ],
            &rows
        )
    );

    let mut failed = Vec::new();
    if !args.headline_only {
        eprintln!(
            "regenerating every experiment artifact ({} jobs):",
            args.jobs
        );
        let pool: Vec<Job<Report>> = REGISTRY
            .iter()
            .map(|def| {
                let run = def.run;
                Job::new(def.name, move |tel| {
                    run(&ExpCtx {
                        telemetry: tel.clone(),
                    })
                })
            })
            .collect();
        let _ = std::fs::create_dir_all(results_dir());
        for outcome in run_jobs(pool, args.jobs, &telemetry) {
            bench_run.push_experiment(&outcome.key, outcome.wall);
            match outcome.result {
                Ok(report) => {
                    let path = results_dir().join(format!("{}.txt", report.name));
                    if let Err(e) = std::fs::write(&path, &report.text) {
                        eprintln!("  {:<24} cannot write {}: {e}", report.name, path.display());
                    }
                    commit_report(&report);
                    eprintln!(
                        "  {:<24} ok ({:.1}s) -> {}",
                        report.name,
                        outcome.wall.as_secs_f32(),
                        path.display()
                    );
                }
                Err(e) => {
                    eprintln!("  {:<24} FAILED: {e}", outcome.key);
                    failed.push(outcome.key);
                }
            }
        }
        eprintln!("done; see results/ and results/SUMMARY.md");
    }

    if let Some(path) = &args.bench_out {
        match bench_run.write(path) {
            Ok(()) => eprintln!(
                "wrote perf baseline ({} entries) to {path}",
                bench_run.entries.len()
            ),
            Err(e) => {
                eprintln!("cannot write bench baseline {path}: {e}");
                failed.push("--bench-out".to_string());
            }
        }
    }

    print_telemetry_summary(&telemetry);

    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{} experiment(s) failed: {}",
            failed.len(),
            failed.join(", ")
        );
        ExitCode::FAILURE
    }
}
