//! `ace` — command-line front end for the reproduction.
//!
//! ```text
//! ace list                                   show the preset workloads
//! ace run <workload> [--scheme S] [--limit N] [--telemetry <file>]
//!                                            run one workload; S is a registered
//!                                            scheme id (see `SchemeRegistry`)
//! ace sweep <workload>                       16-point static-oracle grid
//! ace trace summarize <trace.jsonl>          analyze a telemetry trace
//! ace trace timeline <trace.jsonl>           chronological episode/phase view
//! ace trace chrome <trace.jsonl> [--out F]   export Chrome/Perfetto JSON
//! ace trace diff <a.jsonl> <b.jsonl>         compare runs; nonzero on regression
//! ace trace metrics <obs.jsonl>              obs time-series report / stream diff
//! ```
//!
//! A `<workload>` is a preset name or a path to a `WorkloadSpec` JSON file
//! (see `WorkloadRegistry`). A flag given without a value is an error, as
//! is a zero `--limit`.

use ace::core::{
    AceConfig, Experiment, ExperimentError, RunConfig, RunRecord, Scheme, SchemeRegistry,
};
use ace::sim::SizeLevel;
use ace::telemetry::Telemetry;
use ace::trace::{
    analyze_file, chrome_trace, diff, diff_obs_series, metrics_report, DiffThresholds, ObsSeries,
};
use ace::workloads::{Program, WorkloadRegistry, PRESET_NAMES};
use std::error::Error;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("run") => cmd_run(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("--help") | Some("-h") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}; try --help").into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    println!(
        "ace — adaptive computing environment management via dynamic optimization\n\
         \n\
         usage:\n  \
         ace list\n  \
         ace run <workload> [--scheme baseline|hotspot|bbv|positional|pdm] [--limit N] [--telemetry <file>]\n  \
         ace sweep <workload>\n  \
         ace trace summarize <trace.jsonl>\n  \
         ace trace timeline <trace.jsonl>\n  \
         ace trace chrome <trace.jsonl> [--out <file>]\n  \
         ace trace diff <a.jsonl> <b.jsonl> [--max-ipc-drop F] [--max-epi-rise F]\n            \
         [--max-count-delta F] [--max-residency-shift F] [--max-convergence-slowdown F]\n  \
         ace trace metrics <obs.jsonl> [--pass P] [--from W] [--to W] [--top N]\n            \
         [--against <baseline.jsonl>] [threshold flags as for diff]"
    );
}

/// The value given for `flag`, or `None` when the flag is absent. A flag
/// that is last or followed by another flag has no value: an error, not
/// a silent fallback to its default.
fn flag_value(args: &[String], flag: &str) -> Result<Option<String>, Box<dyn Error>> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(value) if !value.starts_with("--") => Ok(Some(value.clone())),
        _ => Err(format!("{flag} needs a value").into()),
    }
}

/// The `--limit` instruction cap, if given; zero is rejected.
fn limit_flag(args: &[String]) -> Result<Option<u64>, Box<dyn Error>> {
    let Some(value) = flag_value(args, "--limit")? else {
        return Ok(None);
    };
    match value.parse() {
        Ok(0) | Err(_) => {
            Err(format!("--limit needs a positive instruction count, got {value:?}").into())
        }
        Ok(limit) => Ok(Some(limit)),
    }
}

/// Resolves a preset name or a spec-file path through the workload
/// registry.
fn load_program(name: &str) -> Result<Program, Box<dyn Error>> {
    Ok(WorkloadRegistry::builtin().resolve_program(name)?)
}

fn cmd_list() -> Result<(), Box<dyn Error>> {
    println!(
        "{:<10} {:>8} {:>8} {:>14}",
        "workload", "methods", "stages", "est. instr"
    );
    for name in PRESET_NAMES {
        let spec = ace::workloads::preset_spec(name).expect("known preset");
        let program = spec.build()?;
        println!(
            "{:<10} {:>8} {:>8} {:>14}",
            name,
            program.method_count(),
            spec.stages.len(),
            spec.expected_total(),
        );
    }
    Ok(())
}

fn summarize(label: &str, record: &RunRecord, baseline: Option<&RunRecord>) {
    print!(
        "{label:<11} {:>11} instr  IPC {:.3}  energy {:8.2} mJ",
        record.instret,
        record.ipc,
        record.energy.total_nj() / 1e6
    );
    if let Some(base) = baseline {
        print!(
            "  | L1D saving {:.1}%  L2 saving {:.1}%  slowdown {:.2}%",
            100.0 * record.l1d_saving_vs(base),
            100.0 * record.l2_saving_vs(base),
            100.0 * record.slowdown_vs(base),
        );
    }
    println!();
}

fn cmd_run(args: &[String]) -> Result<(), Box<dyn Error>> {
    let name = args
        .first()
        .ok_or("usage: ace run <workload> [--scheme S] [--limit N] [--telemetry <file>]")?;
    let program = load_program(name)?;
    let scheme = flag_value(args, "--scheme")?.unwrap_or_else(|| "hotspot".to_string());
    if SchemeRegistry::builtin().get(&scheme).is_none() {
        return Err(ExperimentError::UnknownScheme(scheme).into());
    }
    let mut cfg = RunConfig {
        instruction_limit: limit_flag(args)?,
        ..RunConfig::default()
    };
    let telemetry = match flag_value(args, "--telemetry")? {
        Some(path) => {
            let tel = Telemetry::jsonl(&path)
                .map_err(|e| format!("cannot open telemetry file {path}: {e}"))?;
            println!("recording telemetry to {path} (analyze with `ace trace summarize {path}`)");
            tel
        }
        None => Telemetry::off(),
    };
    cfg.telemetry = telemetry.clone();
    // One group off one executor stream; its events replay in scheme
    // order, baseline first.
    let mut schemes = vec!["baseline"];
    if scheme != "baseline" {
        schemes.push(&scheme);
    }
    let runs = Experiment::program(program)
        .config(cfg)
        .run_schemes(schemes)?;
    let base = &runs[0].record;
    summarize("baseline", base, None);
    if let Some(run) = runs.get(1) {
        summarize(&run.scheme, &run.record, Some(base));
        let rep = &run.report;
        println!(
            "            {} tuned scopes, {} trials, {} reconfigs, {} guard rejections",
            rep.tuned_scopes, rep.tunings, rep.reconfigs, rep.guard_rejections,
        );
    }
    telemetry.flush();
    Ok(())
}

fn cmd_sweep(args: &[String]) -> Result<(), Box<dyn Error>> {
    let name = args.first().ok_or("usage: ace sweep <workload>")?;
    let program = load_program(name)?;
    // The baseline and the 16 fixed configurations, in grid order, as
    // legs of one run off one executor stream.
    let mut schemes = vec![Scheme::Baseline];
    for l1d in SizeLevel::all() {
        for l2 in SizeLevel::all() {
            schemes.push(Scheme::Fixed(AceConfig::both(l1d, l2)));
        }
    }
    let runs = Experiment::program(program).run_schemes(schemes)?;
    let (base, grid) = runs.split_first().expect("one run per scheme");
    let base = &base.record;
    println!("{name}: energy saving % / slowdown % per fixed configuration");
    println!("L1D\\L2     1MB        512KB       256KB       128KB");
    for (l1d, row) in grid.chunks(SizeLevel::all().count()).enumerate() {
        print!("{:>4}KB", 64 >> l1d);
        for run in row {
            let r = &run.record;
            print!(
                "  {:>5.1}/{:<4.1}",
                100.0 * r.saving_vs(base),
                100.0 * r.slowdown_vs(base),
            );
        }
        println!();
    }
    Ok(())
}

fn cmd_trace(args: &[String]) -> Result<(), Box<dyn Error>> {
    match args.first().map(String::as_str) {
        Some("summarize") => cmd_trace_summarize(&args[1..]),
        Some("timeline") => cmd_trace_timeline(&args[1..]),
        Some("chrome") => cmd_trace_chrome(&args[1..]),
        Some("diff") => cmd_trace_diff(&args[1..]),
        Some("metrics") => cmd_trace_metrics(&args[1..]),
        other => Err(format!(
            "unknown trace subcommand {:?}; expected summarize, timeline, chrome, diff or metrics",
            other.unwrap_or_default()
        )
        .into()),
    }
}

/// Writes report text to stdout, treating a closed pipe (`... | head`)
/// as a normal early exit rather than a panic.
fn print_report(text: &str) -> Result<(), Box<dyn Error>> {
    use std::io::Write;
    match std::io::stdout().write_all(text.as_bytes()) {
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(()),
        other => Ok(other?),
    }
}

fn cmd_trace_summarize(args: &[String]) -> Result<(), Box<dyn Error>> {
    let path = args
        .first()
        .ok_or("usage: ace trace summarize <trace.jsonl>")?;
    let analysis = analyze_file(path)?;
    print_report(&ace::trace::summarize(&analysis))
}

fn cmd_trace_timeline(args: &[String]) -> Result<(), Box<dyn Error>> {
    let path = args
        .first()
        .ok_or("usage: ace trace timeline <trace.jsonl>")?;
    let analysis = analyze_file(path)?;
    print_report(&ace::trace::timeline(&analysis))
}

fn cmd_trace_chrome(args: &[String]) -> Result<(), Box<dyn Error>> {
    let path = args
        .first()
        .ok_or("usage: ace trace chrome <trace.jsonl> [--out <file>]")?;
    let analysis = analyze_file(path)?;
    let json = chrome_trace(&analysis);
    match flag_value(args, "--out")? {
        Some(out) => {
            std::fs::write(&out, &json)?;
            println!(
                "wrote {out} ({} bytes); load it in chrome://tracing or ui.perfetto.dev",
                json.len()
            );
        }
        None => {
            print_report(&json)?;
            print_report("\n")?;
        }
    }
    Ok(())
}

fn cmd_trace_diff(args: &[String]) -> Result<(), Box<dyn Error>> {
    let usage = "usage: ace trace diff <a.jsonl> <b.jsonl> [--max-ipc-drop F] ...";
    let path_a = args.first().ok_or(usage)?;
    let path_b = args.get(1).ok_or(usage)?;
    let thresholds = parse_thresholds(args)?;
    let a = analyze_file(path_a).map_err(|e| format!("{path_a}: {e}"))?;
    let b = analyze_file(path_b).map_err(|e| format!("{path_b}: {e}"))?;
    let report = diff(&a, &b, &thresholds);
    print!("{}", report.render());
    if report.regressed() {
        return Err(format!("{path_b} regressed against {path_a}").into());
    }
    Ok(())
}

/// Shared threshold-flag parsing for the diff-style subcommands.
fn parse_thresholds(args: &[String]) -> Result<DiffThresholds, Box<dyn Error>> {
    let mut thresholds = DiffThresholds::default();
    for (flag, slot) in [
        ("--max-ipc-drop", &mut thresholds.max_ipc_drop),
        ("--max-epi-rise", &mut thresholds.max_epi_rise),
        ("--max-count-delta", &mut thresholds.max_count_delta),
        ("--max-residency-shift", &mut thresholds.max_residency_shift),
        (
            "--max-convergence-slowdown",
            &mut thresholds.max_convergence_slowdown,
        ),
    ] {
        if let Some(value) = flag_value(args, flag)? {
            *slot = value
                .parse()
                .map_err(|e| format!("{flag} {value:?}: {e}"))?;
            // Every comparison with NaN is false: it would pass anything.
            if slot.is_nan() {
                return Err(format!("{flag} {value:?}: NaN would switch the check off").into());
            }
        }
    }
    Ok(thresholds)
}

fn cmd_trace_metrics(args: &[String]) -> Result<(), Box<dyn Error>> {
    let usage = "usage: ace trace metrics <obs.jsonl> [--pass P] [--from W] [--to W] [--top N]\n            \
                 [--against <baseline.jsonl>] [--max-ipc-drop F] [--max-epi-rise F] ...";
    let path = args.first().ok_or(usage)?;
    let series = ObsSeries::load(path)?;
    let pass = flag_value(args, "--pass")?;
    let pass = pass.as_deref();

    if let Some(baseline_path) = flag_value(args, "--against")? {
        let baseline = ObsSeries::load(&baseline_path)?;
        let thresholds = parse_thresholds(args)?;
        let report = diff_obs_series(&baseline, &series, pass, &thresholds)?;
        print!("{}", report.render());
        if report.regressed() {
            return Err(format!("{path} regressed against {baseline_path}").into());
        }
        return Ok(());
    }

    let from = flag_value(args, "--from")?.map(|s| s.parse()).transpose()?;
    let to = flag_value(args, "--to")?.map(|s| s.parse()).transpose()?;
    let top: usize = flag_value(args, "--top")?
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(10);
    print_report(&metrics_report(&series, pass, from, to, top)?)
}
