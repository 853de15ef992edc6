//! The fleet experiment binary: a cold pass then a warm pass over the
//! same fleet of machines, sharing one persistent tuning store.
//!
//! Flags:
//!
//! * `--preset <smoke|standard|stress>` — fleet shape (default
//!   `standard`: 1000 machines in waves of 125).
//! * `--machines <N>` / `--wave-size <N>` / `--admit-limit <N>` /
//!   `--seed-base <N>` / `--limit <instr>` — override the preset shape.
//! * `--jobs <N>` — worker-pool width; stdout is byte-identical at any
//!   width (throughput goes to stderr).
//! * `--store <path>` — tuning-store log (default
//!   `results/fleet_store.jsonl`). A pre-existing log warm-starts the
//!   first pass.
//! * `--no-baseline` — skip the per-machine non-adaptive baseline legs
//!   (energy-saving columns read 0).
//! * `--fresh` — ignore a cached fleet report and re-run.
//! * `--assert-warm-hits` — exit nonzero unless the warm pass hit the
//!   store (the CI smoke gate).
//! * `--telemetry <path>` — stream decision events as JSONL.
//! * `--check-cache` — validate `results/fleet-*.json` against current
//!   cache keys and exit (the fleet half of `check_results`).
//! * `--corpus <N>` — run the generated-workload store oracle and exit:
//!   a fleet over N `ace_workloads::gen` specs (resolved from spec files
//!   on disk) runs cold+warm three times — at `--jobs`, serial, and
//!   `--jobs` again — and every outcome/store fingerprint must be
//!   byte-identical (the fleet half of the bench `corpus` experiment's
//!   differential oracles).
//!
//! Observability (any of these forces a live, uncached run):
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
    check_fleet_caches, fleet_cache_file_name, fleet_cache_key, fleet_registry_version,
    render_report, run_fleet_observed, FleetCache, FleetConfig, ObsGate, ObsSampler, TuningStore,
    FLEET_SCHEMA_VERSION,
};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    cfg: FleetConfig,
    jobs: usize,
    store: Option<PathBuf>,
    fresh: bool,
    assert_warm_hits: bool,
    check_cache: bool,
    corpus: Option<usize>,
    /// Report caching is reserved for unmodified presets — `--check-cache`
    /// validates `results/fleet-*.json` against the preset keys, so an
    /// overridden shape would write an entry that is instantly stale.
    cacheable: bool,
    obs_out: Option<String>,
    metrics_out: Option<String>,
    live: bool,
    watch: bool,
    gate: ObsGate,
}

impl Args {
    /// Any observability output needs the passes to actually run; a
    /// cached report has no wave-by-wave health to sample.
    fn obs_requested(&self) -> bool {
        self.obs_out.is_some() || self.metrics_out.is_some() || self.live || self.watch
    }
}

fn parse_args() -> Args {
    let mut preset = "standard".to_string();
    let mut overrides: Vec<(String, String)> = Vec::new();
    let mut args = Args {
        cfg: FleetConfig::default(),
        jobs: default_jobs(),
        store: None,
        fresh: false,
        assert_warm_hits: false,
        check_cache: false,
        corpus: None,
        cacheable: true,
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
            "--fresh" => args.fresh = true,
            "--assert-warm-hits" => args.assert_warm_hits = true,
            "--telemetry" => {
                it.next(); // handled by telemetry_from_args
            }
            "--check-cache" => args.check_cache = true,
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
    args.cacheable = overrides.is_empty();
    for (flag, value) in overrides {
        let parse = |v: &str| -> u64 {
            v.parse().unwrap_or_else(|_| {
                eprintln!("{flag} requires a positive integer");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--machines" => args.cfg.machines = parse(&value).max(1) as usize,
            "--wave-size" => {
                args.cfg.wave_size = parse(&value).max(1) as usize;
                args.cfg.admit_limit = args.cfg.admit_limit.max(args.cfg.wave_size);
            }
            "--admit-limit" => args.cfg.admit_limit = parse(&value).max(1) as usize,
            "--seed-base" => args.cfg.seed_base = parse(&value),
            "--limit" => args.cfg.instruction_limit = parse(&value).max(1),
            "--no-baseline" => args.cfg.measure_baseline = false,
            _ => unreachable!(),
        }
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    let telemetry = telemetry_from_args();
    let dir = results_dir();

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

    if args.check_cache {
        let stale = check_fleet_caches(&dir);
        if stale.is_empty() {
            println!("{}: fleet caches match current keys", dir.display());
            return ExitCode::SUCCESS;
        }
        eprintln!("{}: stale fleet cache entries:", dir.display());
        for line in &stale {
            eprintln!("  {line}");
        }
        return ExitCode::FAILURE;
    }

    let store_path = args
        .store
        .clone()
        .unwrap_or_else(|| dir.join("fleet_store.jsonl"));
    let version = fleet_registry_version();
    let mut store = match TuningStore::open(&store_path, version, TuningStore::DEFAULT_CAPACITY) {
        Ok(store) => store,
        Err(e) => {
            eprintln!("cannot open tuning store: {e}");
            return ExitCode::FAILURE;
        }
    };
    let preloaded = store.len();

    // The report cache only describes a run that started from an empty
    // store; a preloaded store changes the cold pass and bypasses it.
    let cache_path = dir.join(fleet_cache_file_name(&args.cfg));
    if !args.fresh && !args.obs_requested() && preloaded == 0 && args.cacheable {
        if let Ok(cache) = FleetCache::load(&cache_path) {
            if cache.key == fleet_cache_key(&args.cfg) {
                print!("{}", cache.report);
                eprintln!("(cached fleet report; --fresh re-runs)");
                return gate_warm_hits(args.assert_warm_hits, cache.warm_hits);
            }
        }
    }

    eprintln!(
        "fleet: {} machines x2 passes, {} jobs, store {} ({} entries preloaded)",
        args.cfg.machines,
        args.jobs,
        store_path.display(),
        preloaded
    );
    let obs = args.obs_requested();
    let mut cold_obs = obs.then(|| ObsSampler::new("cold").live(args.live));
    let mut warm_obs = obs.then(|| ObsSampler::new("warm").live(args.live));

    let start = Instant::now();
    let cold = match run_fleet_observed(
        &args.cfg,
        &mut store,
        args.jobs,
        &telemetry,
        cold_obs.as_mut(),
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
        warm_obs.as_mut(),
    ) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("warm pass failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let report = render_report(&args.cfg, &cold, &warm, &store);
    print!("{report}");

    // Throughput is schedule-dependent: stderr only, never the report.
    let machines = (cold.ran() + warm.ran()) as f64;
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    eprintln!(
        "throughput: {:.1} machines/sec ({} machines in {:.1}s, {} jobs)",
        machines / elapsed,
        machines as u64,
        elapsed,
        args.jobs
    );

    if preloaded == 0 && args.cacheable {
        let cache = FleetCache {
            schema_version: FLEET_SCHEMA_VERSION,
            key: fleet_cache_key(&args.cfg),
            report: report.clone(),
            warm_hits: warm.hits(),
            cold_tunings: cold.tunings(),
            warm_tunings: warm.tunings(),
        };
        if let Err(e) = cache.write(&cache_path) {
            eprintln!("warning: could not cache fleet report: {e}");
        }
    }

    if let Some(path) = &args.obs_out {
        // Cold records then warm records: one wave-indexed JSONL stream,
        // byte-identical at any --jobs width.
        let mut records = Vec::new();
        if let Some(sampler) = &cold_obs {
            records.extend_from_slice(sampler.records());
        }
        if let Some(sampler) = &warm_obs {
            records.extend_from_slice(sampler.records());
        }
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
        if let Some(sampler) = &warm_obs {
            // Wall-clock throughput joins the registry only here, after
            // every wave-indexed obs record has been snapshotted.
            let m = sampler.metrics();
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
            cold_obs
                .as_ref()
                .map(|s| cold_gate.check("cold", s.health())),
            warm_obs
                .as_ref()
                .map(|s| args.gate.check("warm", s.health())),
        ];
        for report in checks.into_iter().flatten() {
            eprint!("{}", report.render());
            watchdog_breached |= report.breached();
        }
    }

    print_telemetry_summary(&telemetry);
    if watchdog_breached {
        eprintln!("--watch: fleet watchdog breached");
        return ExitCode::FAILURE;
    }
    gate_warm_hits(args.assert_warm_hits, warm.hits())
}

fn gate_warm_hits(assert_warm_hits: bool, warm_hits: u64) -> ExitCode {
    if assert_warm_hits && warm_hits == 0 {
        eprintln!("--assert-warm-hits: warm pass never hit the store");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
