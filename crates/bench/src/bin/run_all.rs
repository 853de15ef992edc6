//! Regenerates every experiment on the parallel engine: runs all seven
//! workloads under the three schemes (results are content-address-cached
//! under `results/`), prints the headline summary, then schedules every
//! registered sibling experiment as a job, saving each one's output under
//! `results/<name>.txt`.
//!
//! ```text
//! run_all [--jobs <N>] [--fresh] [--headline-only] [--list] [--telemetry <path>]
//! run_all <experiment> [--jobs <N>] [--fresh] [--telemetry <path>]
//! ```
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
//! * `<experiment>` — run just that registry entry (`--list` names
//!   them) and print its report; `--jobs` and `--fresh` apply to the
//!   cached sets it runs. An unknown name exits 2 and lists the
//!   registry.
//!
//! Any failing experiment is reported at the end and the process exits
//! nonzero.

use ace_bench::experiments::{find, run_experiment, ExpCtx, Report, REGISTRY};
use ace_bench::{
    default_jobs, format_table, mean, print_telemetry_summary, results_dir, run_jobs,
    telemetry_from_args, ExperimentSet, Job,
};
use std::process::ExitCode;

struct Args {
    jobs: Option<usize>,
    fresh: bool,
    headline_only: bool,
    list: bool,
    experiment: Option<String>,
}

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}; see the run_all docs");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        jobs: None,
        fresh: false,
        headline_only: false,
        list: false,
        experiment: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--jobs" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => args.jobs = Some(n),
                _ => usage_error("--jobs requires a positive integer"),
            },
            "--fresh" => args.fresh = true,
            "--headline-only" => args.headline_only = true,
            "--list" => args.list = true,
            "--telemetry" => {
                it.next(); // handled by telemetry_from_args
            }
            name if !name.starts_with('-') && args.experiment.is_none() => {
                args.experiment = Some(name.to_string());
            }
            other => usage_error(&format!("unexpected argument {other}")),
        }
    }
    if args.experiment.is_some() && (args.headline_only || args.list) {
        usage_error("an experiment name takes only --jobs, --fresh and --telemetry");
    }
    args
}

/// One `name  summary` line per registered experiment.
fn registry_listing() -> String {
    REGISTRY
        .iter()
        .map(|def| format!("  {:<24} {}\n", def.name, def.summary))
        .collect()
}

/// `run_all <experiment>`: runs one registry entry and prints its report.
fn run_one(name: &str, ctx: &ExpCtx) -> ExitCode {
    match run_experiment(name, ctx) {
        Ok(report) => {
            print!("{}", report.text);
            print_telemetry_summary(&ctx.telemetry);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{name}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    if args.list {
        println!("experiments ({}):", REGISTRY.len());
        print!("{}", registry_listing());
        let workloads = ace_workloads::WorkloadRegistry::builtin();
        let names = workloads.names();
        println!("workloads ({}):", names.len());
        for name in names {
            println!("  {name}");
        }
        println!("(workload names also accept a path to a WorkloadSpec JSON file)");
        return ExitCode::SUCCESS;
    }
    let jobs = args.jobs.unwrap_or_else(default_jobs);
    if let Some(name) = &args.experiment {
        if find(name).is_none() {
            eprintln!(
                "unknown experiment {name:?}; registered experiments:\n{}",
                registry_listing()
            );
            return ExitCode::from(2);
        }
        let ctx = ExpCtx {
            telemetry: telemetry_from_args(),
            jobs,
            fresh: args.fresh,
        };
        return run_one(name, &ctx);
    }
    let telemetry = telemetry_from_args();

    let all = match ExperimentSet::all_presets()
        .fresh(args.fresh)
        .telemetry(&telemetry)
        .run_parallel(jobs)
    {
        Ok(all) => all,
        Err(e) => {
            eprintln!("headline runs failed: {e}");
            return ExitCode::FAILURE;
        }
    };

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
        eprintln!("regenerating every experiment artifact ({jobs} jobs):");
        let pool: Vec<Job<Report>> = REGISTRY
            .iter()
            .map(|def| {
                let run = def.run;
                Job::new(def.name, move |tel| {
                    run(&ExpCtx {
                        telemetry: tel.clone(),
                        jobs: 1,
                        fresh: false,
                    })
                })
            })
            .collect();
        let _ = std::fs::create_dir_all(results_dir());
        for outcome in run_jobs(pool, jobs, &telemetry) {
            match outcome.result {
                Ok(report) => {
                    let path = results_dir().join(format!("{}.txt", report.name));
                    if let Err(e) = std::fs::write(&path, &report.text) {
                        eprintln!("  {:<24} cannot write {}: {e}", report.name, path.display());
                    }
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
        eprintln!("done; see results/");
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
