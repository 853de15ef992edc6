//! The fleet experiment binary: a cold pass then a warm pass over the
//! same fleet of machines, sharing one persistent tuning store. Both
//! passes always run. The report on stdout is deterministic; over a new
//! store, `--preset smoke` prints the committed `results/fleet_smoke.txt`
//! (CI diffs the two).
//!
//! Flags:
//!
//! * `--preset <smoke|standard|stress>` — fleet shape (default
//!   `standard`: 1000 machines in waves of 125).
//! * `--machines <N>` / `--wave-size <N>` / `--admit-limit <N>` /
//!   `--seed-base <N>` / `--limit <instr>` — override the preset shape.
//!   All but `--seed-base` must be positive (zero exits 2), and every
//!   machine's seed `seed_base + i` must fit in a `u64` (an overflowing
//!   sequence exits 2). A wave size above the preset's admit limit
//!   raises the limit to the wave size, unless `--admit-limit` is given,
//!   in either order.
//! * `--jobs <N>` — worker-pool width; stdout is byte-identical at any
//!   width (throughput goes to stderr).
//! * `--store <path>` — tuning-store log (default
//!   `results/fleet_store.jsonl`). A pre-existing log warm-starts the
//!   first pass.
//! * `--no-baseline` — report no per-machine non-adaptive baselines
//!   (energy-saving columns read 0). With baselines on, the warm pass
//!   reuses the cold pass's, which the store keeps in memory for the
//!   session, so only the cold pass simulates them.
//! * `--assert-warm-hits` — exit nonzero unless the warm pass hit the
//!   store (the CI smoke gate).
//! * `--telemetry <path>` — stream decision events as JSONL. A traced
//!   pass simulates every machine, so the warm pass reuses no runs.
//! * `--corpus <N>` — run the generated-workload store oracle and exit:
//!   a fleet over N `ace_workloads::gen` specs (resolved from spec files
//!   on disk) runs cold+warm three times — at `--jobs`, serial, and
//!   `--jobs` again — and every outcome/store fingerprint must be
//!   byte-identical (the fleet half of the bench `corpus` experiment's
//!   differential oracles).
//!
//! Observability:
//!
//! * `--obs-out <path>` — write the wave-indexed fleet health time
//!   series (one cumulative metrics snapshot per wave per pass) as
//!   JSONL; analyze with `ace trace metrics <path>`. Byte-identical at
//!   any `--jobs` width.
//! * `--metrics-out <path>` — dump the final warm-pass metrics registry
//!   in Prometheus text format (includes wall-clock throughput gauges).
//! * `--live` — stream one health line per completed wave to stderr.
//! * `--watch` — run the fleet watchdog over both passes and exit
//!   nonzero on a breach; `--max-shed-rate F`, `--min-hit-rate F` and
//!   `--max-convergence-slowdown F` tune the thresholds (the hit-rate
//!   floor applies to the warm pass only). A threshold must be a number
//!   and not NaN, which would silently disable its check; values past 1
//!   are accepted, so `--min-hit-rate 1.01` trips the watchdog on
//!   purpose.

use ace_bench::{default_jobs, print_telemetry_summary, results_dir, telemetry_from_args};
use ace_fleet::{
    fleet_registry_version, render_report, run_fleet_observed, FleetConfig, ObsGate, ObsSampler,
    TuningStore,
};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    cfg: FleetConfig,
    jobs: usize,
    store: Option<PathBuf>,
    assert_warm_hits: bool,
    corpus: Option<usize>,
    obs_out: Option<String>,
    metrics_out: Option<String>,
    live: bool,
    watch: bool,
    gate: ObsGate,
}

fn parse_args() -> Args {
    let mut preset = "standard".to_string();
    let mut overrides: Vec<(String, String)> = Vec::new();
    let mut args = Args {
        cfg: FleetConfig::default(),
        jobs: default_jobs(),
        store: None,
        assert_warm_hits: false,
        corpus: None,
        obs_out: None,
        metrics_out: None,
        live: false,
        watch: false,
        gate: ObsGate::default(),
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
            "--preset" => preset = take(&mut it, "--preset"),
            "--machines" | "--wave-size" | "--admit-limit" | "--seed-base" | "--limit" => {
                let value = take(&mut it, &arg);
                overrides.push((arg, value));
            }
            "--jobs" => {
                let value = take(&mut it, "--jobs");
                match value.parse::<usize>() {
                    Ok(n) if n > 0 => args.jobs = n,
                    _ => {
                        eprintln!("--jobs requires a positive integer");
                        std::process::exit(2);
                    }
                }
            }
            "--store" => args.store = Some(PathBuf::from(take(&mut it, "--store"))),
            "--no-baseline" => overrides.push(("--no-baseline".to_string(), String::new())),
            "--assert-warm-hits" => args.assert_warm_hits = true,
            "--telemetry" => {
                it.next(); // handled by telemetry_from_args
            }
            "--corpus" => {
                let value = take(&mut it, "--corpus");
                match value.parse::<usize>() {
                    Ok(n) if n > 0 => args.corpus = Some(n),
                    _ => {
                        eprintln!("--corpus requires a positive integer");
                        std::process::exit(2);
                    }
                }
            }
            "--obs-out" => args.obs_out = Some(take(&mut it, "--obs-out")),
            "--metrics-out" => args.metrics_out = Some(take(&mut it, "--metrics-out")),
            "--live" => args.live = true,
            "--watch" => args.watch = true,
            "--max-shed-rate" | "--min-hit-rate" | "--max-convergence-slowdown" => {
                let value = take(&mut it, &arg);
                let parsed = match value.parse::<f64>() {
                    Ok(v) if !v.is_nan() => v,
                    _ => {
                        eprintln!("{arg} requires a number");
                        std::process::exit(2);
                    }
                };
                match arg.as_str() {
                    "--max-shed-rate" => args.gate.max_shed_rate = parsed,
                    "--min-hit-rate" => args.gate.min_hit_rate = parsed,
                    _ => args.gate.max_convergence_slowdown = parsed,
                }
            }
            other => {
                eprintln!("unknown flag {other}; see the fleet binary docs");
                std::process::exit(2);
            }
        }
    }
    args.cfg = match FleetConfig::preset(&preset) {
        Some(cfg) => cfg,
        None => {
            eprintln!(
                "unknown fleet preset {preset:?}; expected one of {:?}",
                FleetConfig::PRESET_NAMES
            );
            std::process::exit(2);
        }
    };
    let explicit_admit_limit = overrides.iter().any(|(flag, _)| flag == "--admit-limit");
    for (flag, value) in overrides {
        let parse = |v: &str| -> u64 {
            v.parse().unwrap_or_else(|_| {
                eprintln!("{flag} requires a non-negative integer");
                std::process::exit(2);
            })
        };
        let positive = |v: &str| -> u64 {
            match v.parse() {
                Ok(n) if n > 0 => n,
                _ => {
                    eprintln!("{flag} requires a positive integer");
                    std::process::exit(2);
                }
            }
        };
        match flag.as_str() {
            "--machines" => args.cfg.machines = positive(&value) as usize,
            "--wave-size" => {
                args.cfg.wave_size = positive(&value) as usize;
                // A wider wave admits all of itself unless --admit-limit
                // says otherwise, whichever flag came first.
                if !explicit_admit_limit {
                    args.cfg.admit_limit = args.cfg.admit_limit.max(args.cfg.wave_size);
                }
            }
            "--admit-limit" => args.cfg.admit_limit = positive(&value) as usize,
            "--seed-base" => args.cfg.seed_base = parse(&value),
            "--limit" => args.cfg.instruction_limit = positive(&value),
            "--no-baseline" => args.cfg.measure_baseline = false,
            _ => unreachable!(),
        }
    }
    if let Err(e) = args.cfg.validate() {
        eprintln!("invalid fleet shape: {e}");
        std::process::exit(2);
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    let telemetry = telemetry_from_args();

    if let Some(count) = args.corpus {
        return match ace_fleet::run_corpus_oracle(count, args.jobs, &telemetry) {
            Ok(report) => {
                print!("{report}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("--corpus: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let store_path = args
        .store
        .clone()
        .unwrap_or_else(|| results_dir().join("fleet_store.jsonl"));
    let version = fleet_registry_version();
    let mut store = match TuningStore::open(&store_path, version, TuningStore::DEFAULT_CAPACITY) {
        Ok(store) => store,
        Err(e) => {
            eprintln!("cannot open tuning store: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "fleet: {} machines x2 passes, {} jobs, store {} ({} entries preloaded)",
        args.cfg.machines,
        args.jobs,
        store_path.display(),
        store.len()
    );
    let mut cold_obs = ObsSampler::new("cold").live(args.live);
    let mut warm_obs = ObsSampler::new("warm").live(args.live);

    let start = Instant::now();
    let cold = match run_fleet_observed(
        &args.cfg,
        &mut store,
        args.jobs,
        &telemetry,
        Some(&mut cold_obs),
    ) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("cold pass failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let warm = match run_fleet_observed(
        &args.cfg,
        &mut store,
        args.jobs,
        &telemetry,
        Some(&mut warm_obs),
    ) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("warm pass failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    print!("{}", render_report(&args.cfg, &cold, &warm, &store));

    // Throughput is schedule-dependent: stderr only, never the report.
    // It splits into the machines that simulated and those whose runs
    // came whole from the store's run ledger.
    let machines = (cold.ran() + warm.ran()) as f64;
    let runs_reused = |sampler: &ObsSampler| {
        let last = sampler.records().last();
        last.map_or(0, |record| record.metrics.counter("fleet.runs_reused"))
    };
    let reused = runs_reused(&cold_obs) + runs_reused(&warm_obs);
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    eprintln!(
        "throughput: {:.1} machines/sec ({} machines in {:.1}s: {} simulated, {} reused; {} jobs)",
        machines / elapsed,
        machines as u64,
        elapsed,
        machines as u64 - reused,
        reused,
        args.jobs
    );

    if let Some(path) = &args.obs_out {
        // Cold records then warm records: one wave-indexed JSONL stream,
        // byte-identical at any --jobs width.
        let records = [cold_obs.records(), warm_obs.records()].concat();
        let write = std::fs::File::create(path)
            .and_then(|mut f| ace_telemetry::write_obs_jsonl(&mut f, &records));
        match write {
            Ok(()) => eprintln!("wrote {} obs records to {path}", records.len()),
            Err(e) => {
                eprintln!("cannot write obs series {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(path) = &args.metrics_out {
        // Wall-clock throughput joins the registry only here, after
        // every wave-indexed obs record has been snapshotted.
        let m = warm_obs.metrics();
        m.gauge("fleet.machines_per_sec").set(machines / elapsed);
        m.gauge("fleet.wall_seconds").set(elapsed);
        match std::fs::write(path, m.snapshot().render_prometheus()) {
            Ok(()) => eprintln!("wrote warm-pass metrics to {path}"),
            Err(e) => {
                eprintln!("cannot write metrics dump {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut watchdog_breached = false;
    if args.watch {
        // The hit-rate floor only makes sense once the store is seeded,
        // so the cold pass is checked with the floor disabled.
        let cold_gate = ObsGate {
            min_hit_rate: 0.0,
            ..args.gate
        };
        let checks = [
            cold_gate.check("cold", cold_obs.records()),
            args.gate.check("warm", warm_obs.records()),
        ];
        for report in checks {
            eprint!("{}", report.render());
            watchdog_breached |= report.breached();
        }
    }

    print_telemetry_summary(&telemetry);
    if watchdog_breached {
        eprintln!("--watch: fleet watchdog breached");
        return ExitCode::FAILURE;
    }
    if args.assert_warm_hits && warm.hits() == 0 {
        eprintln!("--assert-warm-hits: warm pass never hit the store");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
