//! One benchmark process: runs a workload's cycles for the requested
//! time, checks them, and turns them into metrics.
//!
//! The time is spent in rounds. Each round runs one
//! untraced cycle and, with tracing on, one traced cycle on the same
//! inputs: the untraced cycles give the end-to-end metrics, the traced
//! ones the per-layer metrics, and the two together the absolute layer
//! times and the tracing overhead.
//!
//! Given `--seed`, each round of cycles runs its own inputs, derived from
//! the seed and the round number, so one process averages over as many
//! inputs as it has rounds; the traced and untraced cycles of a round
//! share inputs. Without a seed every cycle runs the committed inputs.

use crate::check;
use crate::fleet::{self, FleetCycle, FleetTrace};
use crate::layers::{LayerTimes, CORE, RUNTIME, SIM, WORKLOADS};
use crate::metrics::{self, Audience, SCHEMES};
use crate::spans::SpanLog;
use crate::stats::{self, median, percentile, tail};
use crate::workload::{self, fnv, run_digest, Finished, Plan, Unit, Workload, FNV_BASIS};
use ace_fleet::{run_fleet, FleetConfig, MachineSpec};
use ace_telemetry::Telemetry;
use serde::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Where runs write their span logs and temporary fleet stores.
pub const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// The paper's Fig 3/4 averages (percent): hotspot L1D saving, L2 saving,
/// slowdown; BBV L1D saving, L2 saving, slowdown.
const PAPER: [f64; 6] = [47.0, 58.0, 1.56, 32.0, 52.0, 1.87];

/// What one process measures.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Seed the inputs derive from (`None`: the committed seeds).
    pub seed: Option<u64>,
    /// Measurement time, seconds.
    pub seconds: f64,
    /// Whether to run the traced pass.
    pub trace: bool,
}

/// Everything a process reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// No run failed and every check passed.
    pub correct: bool,
    /// Runs and checks attempted.
    pub attempted: u64,
    /// Runs and checks failed.
    pub failed: u64,
    /// The metrics of the final JSON line: every driver-facing end-to-end
    /// metric (untraced) or every per-layer metric (traced), as
    /// `(name, unit, value)`.
    pub metrics: Vec<(String, String, f64)>,
    /// Everything else, for `run` and for readers: digest, the simulated
    /// results, per-cycle samples, the per-layer metrics that apply.
    pub detail: Value,
    /// Human-readable summary.
    pub summary: String,
}

impl Outcome {
    /// The final line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                (
                    name.clone(),
                    Value::Object(vec![
                        ("value".into(), Value::F64(*value)),
                        ("unit".into(), Value::Str(unit.clone())),
                    ]),
                )
            })
            .collect();
        let line = Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::U64(self.attempted)),
            ("failed".into(), Value::U64(self.failed)),
            ("metrics".into(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&line).expect("values serialize")
    }

    /// The detail line `run` reads: `{"detail": ...}`.
    pub fn detail_line(&self) -> String {
        serde_json::to_string(&Value::Object(vec![("detail".into(), self.detail.clone())]))
            .expect("values serialize")
    }
}

/// Runs and checks attempted and failed in one process.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(problem());
        }
    }
}

/// The simulated results of one cycle, in percent.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Quality {
    l1d_saving_pct: f64,
    l2_saving_pct: f64,
    slowdown_pct: f64,
    paper_gap_pp: Option<f64>,
    warm_hit_rate: Option<f64>,
    warm_trials_saved_pct: Option<f64>,
}

/// One finished run or fleet leg of a traced cycle.
struct Leg {
    scheme: &'static str,
    run: Finished,
    times: LayerTimes,
}

/// One pass over a workload's plan.
#[derive(Default)]
struct Cycle {
    /// The executor seed (runs) or `seed_base` (fleet) it ran with.
    seed: Option<u64>,
    /// Measured wall of the runs, seconds (set-up probes excluded).
    wall: f64,
    instr: u64,
    machines: u64,
    /// Set-up samples, seconds (untraced cycles only).
    setup: Vec<f64>,
    digest: u64,
    quality: Quality,
    /// Traced cycles only.
    legs: Vec<Leg>,
    fleet: Option<(FleetCycle, Option<FleetTrace>)>,
}

fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The seed of round `round`'s inputs: a distinct SplitMix64 stream per
/// (seed, round), or the committed seeds when no seed was given. The top
/// bit is cleared so a fleet's `seed_base + index` cannot overflow.
pub fn cycle_seed(seed: Option<u64>, round: u64) -> Option<u64> {
    seed.map(|s| {
        let mut z = s
            .wrapping_add(round.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) >> 1
    })
}

/// Savings and slowdown of the hotspot scheme against the baseline,
/// averaged over programs like `run_all`'s avg row, plus the paper gap
/// when every program also ran BBV.
fn runs_quality(runs: &[(&Unit, Finished)]) -> Quality {
    let find = |source: &str, scheme: &str| {
        runs.iter()
            .find(|(u, _)| u.source == source && u.scheme == scheme)
            .map(|(_, f)| &f.record)
    };
    let mut sources: Vec<&str> = runs.iter().map(|(u, _)| u.source.as_str()).collect();
    sources.dedup();
    let (mut hot, mut bbv) = (Vec::new(), Vec::new());
    for source in sources {
        let Some(base) = find(source, "baseline") else {
            continue;
        };
        let row = |scheme| {
            find(source, scheme).map(|r| {
                [
                    100.0 * r.l1d_saving_vs(base),
                    100.0 * r.l2_saving_vs(base),
                    100.0 * r.slowdown_vs(base),
                ]
            })
        };
        hot.extend(row("hotspot"));
        bbv.extend(row("bbv"));
    }
    let col = |v: &[[f64; 3]], i: usize| mean(v.iter().map(|r| r[i]));
    let paper_gap_pp = (!bbv.is_empty() && bbv.len() == hot.len()).then(|| {
        let ours = [
            col(&hot, 0),
            col(&hot, 1),
            col(&hot, 2),
            col(&bbv, 0),
            col(&bbv, 1),
            col(&bbv, 2),
        ];
        mean(ours.iter().zip(PAPER).map(|(o, p)| (o - p).abs()))
    });
    Quality {
        l1d_saving_pct: col(&hot, 0),
        l2_saving_pct: col(&hot, 1),
        slowdown_pct: col(&hot, 2),
        paper_gap_pp,
        ..Quality::default()
    }
}

fn fleet_quality(c: &FleetCycle) -> Quality {
    let cold_tunings = c.cold.tunings().max(1) as f64;
    Quality {
        l1d_saving_pct: c.warm.l1d_saving_pct(),
        l2_saving_pct: c.warm.l2_saving_pct(),
        slowdown_pct: c.warm.mean_slowdown_pct(),
        paper_gap_pp: None,
        warm_hit_rate: Some(c.warm.hit_rate()),
        warm_trials_saved_pct: Some(100.0 * (1.0 - c.warm.tunings() as f64 / cold_tunings)),
    }
}

/// A unit's short label: the preset name or the spec file's stem.
fn label(unit: &Unit) -> &str {
    Path::new(&unit.source)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or(&unit.source)
}

/// Folds one finished run into `cycle`.
fn add_run(cycle: &mut Cycle, run: &Finished, wall: f64) {
    cycle.wall += wall;
    cycle.instr += run.record.instret;
    cycle.machines += 1;
    cycle.digest = fnv(cycle.digest, &run_digest(run).to_le_bytes());
}

/// One round of a run workload: every unit once untraced and, with
/// `trace`, once through the sampled loop right beside it (in alternating
/// order), so drift in host speed cancels out of the tracing overhead.
fn runs_round(
    units: &[Unit],
    seed: Option<u64>,
    trace: bool,
    log: &mut SpanLog,
    parent: usize,
) -> Result<(Cycle, Option<Cycle>), String> {
    let empty = || Cycle {
        seed,
        digest: FNV_BASIS,
        ..Cycle::default()
    };
    let (mut plain, mut sampled) = (empty(), empty());
    let mut plain_runs: Vec<(&Unit, Finished)> = Vec::with_capacity(units.len());
    for (i, unit) in units.iter().enumerate() {
        plain
            .setup
            .push(workload::time_setup(unit, seed)?.as_secs_f64());
        for traced in [i % 2 == 1, i % 2 == 0] {
            let start = Instant::now();
            if !traced {
                let run = workload::run_unit(unit, seed)?;
                add_run(&mut plain, &run, start.elapsed().as_secs_f64());
                plain_runs.push((unit, run));
            } else if trace {
                let span = log.open("run", parent, format!("{}/{}", label(unit), unit.scheme));
                let (run, times) = workload::run_unit_sampled(unit, seed)?;
                log.close(span);
                add_run(&mut sampled, &run, start.elapsed().as_secs_f64());
                sampled.legs.push(Leg {
                    scheme: unit.scheme,
                    run,
                    times,
                });
            }
        }
    }
    plain.quality = runs_quality(&plain_runs);
    Ok((plain, trace.then_some(sampled)))
}

/// The set-up probes of a fleet round: one per preset.
fn fleet_setup(cfg: &FleetConfig, tmp: &Path) -> Result<Vec<f64>, String> {
    cfg.presets
        .iter()
        .enumerate()
        .map(|(index, preset)| {
            let spec = MachineSpec {
                index,
                preset: preset.clone(),
                seed: cfg.seed_base + index as u64,
            };
            fleet::time_setup(&spec, cfg.instruction_limit, &tmp.join("setup"))
                .map(|t| t.as_secs_f64())
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// A finished fleet cycle as a [`Cycle`]; `trace` carries the traced
/// cycle's legs and timings.
fn fleet_cycle(
    cfg: &FleetConfig,
    result: FleetCycle,
    trace: Option<FleetTrace>,
    setup: Vec<f64>,
) -> Cycle {
    let mut cycle = Cycle {
        seed: Some(cfg.seed_base),
        wall: result.wall.as_secs_f64(),
        instr: result.instructions(cfg.measure_baseline),
        machines: result.machines(),
        setup,
        digest: result.digest(),
        quality: fleet_quality(&result),
        ..Cycle::default()
    };
    let trace = trace.map(|mut t| {
        for (scheme, legs) in [
            ("hotspot", &mut t.managed_legs),
            ("baseline", &mut t.baseline_legs),
        ] {
            cycle.legs.extend(
                legs.drain(..)
                    .map(|(run, times)| Leg { scheme, run, times }),
            );
        }
        t
    });
    cycle.fleet = Some((result, trace));
    cycle
}

/// Worker threads the fleet workload uses: two, or fewer on a smaller
/// machine, so a run never oversubscribes the cores it measures on.
pub fn fleet_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

/// One round of the fleet: an untraced cycle through `run_fleet` and,
/// with `trace`, a traced one through the replica wave loop, each over its
/// own fresh store. The passes run untraced cold, traced cold, traced
/// warm, untraced warm, so a steady drift in host speed cancels out of
/// the tracing overhead.
fn fleet_round(
    cfg: &FleetConfig,
    seed: Option<u64>,
    trace: bool,
    log: &mut SpanLog,
    parent: usize,
    tmp: &Path,
) -> Result<(Cycle, Option<Cycle>), String> {
    let mut cfg = cfg.clone();
    if let Some(seed) = seed {
        cfg.seed_base = seed;
    }
    let setup = fleet_setup(&cfg, tmp)?;
    let jobs = fleet_jobs();
    let text = |e: ace_bench::BenchError| e.to_string();
    let mut plain_store = fleet::fresh_store(&tmp.join("plain")).map_err(text)?;
    let mut plain_pass = |wall: &mut Duration| {
        let start = Instant::now();
        let outcome = run_fleet(&cfg, &mut plain_store, jobs, &Telemetry::off());
        *wall += start.elapsed();
        outcome.map_err(text)
    };
    let mut plain_wall = Duration::ZERO;
    let plain_cold = plain_pass(&mut plain_wall)?;
    let traced = if trace {
        let mut store = fleet::fresh_store(&tmp.join("traced")).map_err(text)?;
        let mut t = FleetTrace::default();
        let start = Instant::now();
        let mut passes = Vec::new();
        for name in ["cold", "warm"] {
            let span = log.open("pass", parent, name.to_string());
            passes.push(
                fleet::run_pass_traced(&cfg, &mut store, jobs, &mut t, log, span).map_err(text)?,
            );
            log.close(span);
        }
        let wall = start.elapsed();
        let warm = passes.pop().expect("two passes");
        let cold = passes.pop().expect("two passes");
        Some((FleetCycle::new(cold, warm, &store, wall), t))
    } else {
        None
    };
    let plain_warm = plain_pass(&mut plain_wall)?;
    let plain = FleetCycle::new(plain_cold, plain_warm, &plain_store, plain_wall);
    Ok((
        fleet_cycle(&cfg, plain, None, setup),
        traced.map(|(c, t)| fleet_cycle(&cfg, c, Some(t), Vec::new())),
    ))
}

/// Runs `opts`' workload for the requested time and reports.
///
/// # Errors
///
/// An unknown workload, or no cycle completing (nothing to report).
pub fn measure(opts: &Options) -> Result<Outcome, String> {
    let w = workload::workload(&opts.workload).ok_or_else(|| {
        format!(
            "unknown workload {:?}; expected one of {:?}",
            opts.workload,
            workload::NAMES
        )
    })?;
    let tmp = PathBuf::from(OUT_DIR)
        .join("tmp")
        .join(std::process::id().to_string());
    let mut tally = Tally::default();
    let mut log = SpanLog::new();
    let root = log.open("workload", 0, w.name.to_string());

    differential(&w, cycle_seed(opts.seed, 0), &mut tally);

    let start = Instant::now();
    let mut untraced: Vec<Cycle> = Vec::new();
    let mut traced: Vec<Cycle> = Vec::new();
    for round in 0u64.. {
        let seed = cycle_seed(opts.seed, round);
        let span = log.open("round", root, format!("round {round}"));
        let result = match &w.plan {
            Plan::Runs(units) => runs_round(units, seed, opts.trace, &mut log, span),
            Plan::Fleet(cfg) => fleet_round(cfg, seed, opts.trace, &mut log, span, &tmp),
        };
        log.close(span);
        match result {
            Ok((plain, sampled)) => {
                tally.attempted += plain.machines + sampled.as_ref().map_or(0, |c| c.machines);
                untraced.push(plain);
                traced.extend(sampled);
            }
            Err(e) => {
                tally.check(false, || format!("{} round {round} failed: {e}", w.name));
                break;
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        // Start another round only if at least half of one still fits.
        if elapsed + 0.5 * elapsed / (round + 1) as f64 >= opts.seconds {
            break;
        }
    }
    log.close(root);
    let _ = std::fs::remove_dir_all(&tmp);

    let Some(first) = untraced.first() else {
        return Err(format!(
            "no {} cycle completed: {:?}",
            w.name, tally.problems
        ));
    };
    check_cycles(&untraced, &traced, &mut tally);

    let e2e = end_to_end(&untraced);
    let layer = if opts.trace {
        if traced.is_empty() {
            return Err(format!(
                "no traced {} cycle completed: {:?}",
                w.name, tally.problems
            ));
        }
        let path = PathBuf::from(OUT_DIR).join(format!(
            "spans-{}-{}.jsonl",
            w.name,
            opts.seed.map_or("committed".to_string(), |s| s.to_string())
        ));
        if let Err(e) = log.write_jsonl(&path) {
            eprintln!("warning: cannot write spans to {}: {e}", path.display());
        }
        per_layer(&untraced, &traced)
    } else {
        Vec::new()
    };

    let value = |pairs: &[(String, f64)], name: &str| {
        pairs
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let metrics: Vec<(String, String, f64)> = if opts.trace {
        metrics::per_layer()
            .into_iter()
            .map(|(name, unit, _)| {
                let v = value(&layer, &name);
                (name, unit.to_string(), v)
            })
            .collect()
    } else {
        metrics::END_TO_END
            .iter()
            .filter(|d| d.audience == Audience::Driver)
            .map(|d| (d.name.to_string(), d.unit.to_string(), value(&e2e, d.name)))
            .collect()
    };

    let digest = first.digest;
    let mut summary = String::new();
    let _ = writeln!(
        summary,
        "ace-benchmark {} (seed {}): {} untraced + {} traced cycles in {:.1} s, first digest {digest:016x}",
        w.name,
        opts.seed.map_or("committed".to_string(), |s| s.to_string()),
        untraced.len(),
        traced.len(),
        start.elapsed().as_secs_f64(),
    );
    let units: BTreeMap<String, &str> = metrics::per_layer()
        .into_iter()
        .map(|(n, u, _)| (n, u))
        .chain(
            metrics::END_TO_END
                .iter()
                .map(|d| (d.name.to_string(), d.unit)),
        )
        .collect();
    for (name, v) in e2e.iter().chain(&layer) {
        let unit = units.get(name).copied().unwrap_or("");
        let _ = writeln!(summary, "  {name:<38} {v:>14.4} {unit}");
    }

    let numbers = |pairs: &[(String, f64)]| {
        Value::Object(
            pairs
                .iter()
                .map(|(n, v)| (n.clone(), Value::F64(*v)))
                .collect(),
        )
    };
    let detail = Value::Object(vec![
        ("workload".into(), Value::Str(w.name.into())),
        ("seed".into(), opts.seed.map_or(Value::Null, Value::U64)),
        ("trace".into(), Value::Bool(opts.trace)),
        ("digest".into(), Value::Str(format!("{digest:016x}"))),
        ("cycles".into(), Value::U64(untraced.len() as u64)),
        ("traced_cycles".into(), Value::U64(traced.len() as u64)),
        (
            "cycle_wall_s".into(),
            Value::Array(untraced.iter().map(|c| Value::F64(c.wall)).collect()),
        ),
        ("end_to_end".into(), numbers(&e2e)),
        ("per_layer".into(), numbers(&layer)),
        ("tails".into(), tails(&untraced, &traced)),
        (
            "problems".into(),
            Value::Array(tally.problems.iter().cloned().map(Value::Str).collect()),
        ),
    ]);
    Ok(Outcome {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        detail,
        summary,
    })
}

/// The differential checks every process runs before measuring: the
/// sampled driver loop against `Experiment::run_scheme` under all five
/// schemes, and (for the fleet) the traced wave loop against `run_fleet`.
fn differential(w: &Workload, seed: Option<u64>, tally: &mut Tally) {
    match &w.plan {
        Plan::Runs(units) => {
            let source = &units[0].source;
            for (scheme, problem) in
                check::driver_matches_experiment(source, seed, check::DRIVER_CHECK_LIMIT)
            {
                tally.check(problem.is_none(), || {
                    format!("driver check {scheme}: {}", problem.unwrap_or_default())
                });
            }
        }
        Plan::Fleet(cfg) => {
            let small = check::two_wave_config(seed.unwrap_or(cfg.seed_base));
            let result = check::wave_loop_matches_fleet(&small, fleet_jobs());
            tally.check(result.is_ok(), || {
                format!("wave-loop check: {}", result.err().unwrap_or_default())
            });
        }
    }
}

/// Cycles on the same inputs must agree exactly, traced or not, and a
/// fleet's warm pass must hit its store.
fn check_cycles(untraced: &[Cycle], traced: &[Cycle], tally: &mut Tally) {
    for (i, c) in untraced.iter().enumerate() {
        if let Some(j) = untraced[..i].iter().position(|e| e.seed == c.seed) {
            tally.check(c.digest == untraced[j].digest, || {
                format!(
                    "untraced cycle {i} digest {:016x} != cycle {j} on the same inputs",
                    c.digest
                )
            });
        }
    }
    for (i, c) in traced.iter().enumerate() {
        if let Some(u) = untraced.iter().find(|u| u.seed == c.seed) {
            tally.check(c.digest == u.digest, || {
                format!(
                    "traced cycle {i} digest {:016x} != untraced {:016x}: the sampled loop changed the counters",
                    c.digest, u.digest
                )
            });
        }
    }
    for (i, c) in untraced.iter().chain(traced).enumerate() {
        if let Some(hits) = c.quality.warm_hit_rate {
            tally.check(hits > 0.0, || {
                format!("fleet cycle {i}: the warm pass had zero store hits")
            });
        }
    }
}

/// End-to-end metrics of the untraced cycles, as `(name, value)`: host
/// costs as medians over cycles, simulated results of the first cycle.
fn end_to_end(cycles: &[Cycle]) -> Vec<(String, f64)> {
    let med = |f: &dyn Fn(&Cycle) -> f64| {
        median(&cycles.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let setup: Vec<f64> = cycles
        .iter()
        .flat_map(|c| c.setup.iter().copied())
        .collect();
    let q = cycles[0].quality;
    let mut out = vec![
        ("sim_minstr_per_s", med(&|c| c.instr as f64 / c.wall / 1e6)),
        ("machines_per_s", med(&|c| c.machines as f64 / c.wall)),
        ("setup_s", median(&setup).unwrap_or(0.0)),
        ("peak_rss_mb", stats::peak_rss_mb().unwrap_or(0.0)),
        ("l1d_saving_pct", q.l1d_saving_pct),
        ("l2_saving_pct", q.l2_saving_pct),
        ("slowdown_pct", q.slowdown_pct),
    ];
    for (name, value) in [
        ("paper_gap_pp", q.paper_gap_pp),
        ("warm_hit_rate", q.warm_hit_rate),
        ("warm_trials_saved_pct", q.warm_trials_saved_pct),
    ] {
        out.extend(value.map(|v| (name, v)));
    }
    out.into_iter().map(|(n, v)| (n.to_string(), v)).collect()
}

/// Simulated statistics summed over legs.
#[derive(Default)]
struct SimTotals {
    instret: u64,
    cycles: u64,
    l1d: (u64, u64),
    l2: (u64, u64),
    dtlb: (u64, u64),
    resizes: u64,
    flush_writebacks: u64,
    hotspots: u64,
}

fn sim_totals<'a>(legs: impl Iterator<Item = &'a Leg>) -> SimTotals {
    let mut t = SimTotals::default();
    for leg in legs {
        let c = &leg.run.record.counters;
        t.instret += c.instret;
        t.cycles += c.cycles;
        t.l1d.0 += c.l1d.total_accesses();
        t.l1d.1 += c.l1d.total_misses();
        t.l2.0 += c.l2.total_accesses();
        t.l2.1 += c.l2.total_misses();
        t.dtlb.0 += c.dtlb.accesses;
        t.dtlb.1 += c.dtlb.misses;
        t.resizes += c.l1d.resizes.iter().sum::<u64>()
            + c.l2.resizes.iter().sum::<u64>()
            + c.dtlb_resizes.iter().sum::<u64>()
            + c.window_resizes.iter().sum::<u64>();
        t.flush_writebacks +=
            c.l1d.flush_writebacks.iter().sum::<u64>() + c.l2.flush_writebacks.iter().sum::<u64>();
        t.hotspots += leg.run.record.table4.hotspots;
    }
    t
}

/// Per-layer metrics, as `(name, value)`, for the metrics that apply to
/// this workload. Counts are per cycle; times are sampled shares scaled
/// by the untraced cycles' host time per instruction.
fn per_layer(untraced: &[Cycle], traced: &[Cycle]) -> Vec<(String, f64)> {
    let n = traced.len() as f64;
    let mut out: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, v: f64| out.push((name.to_string(), v));

    let mut by_scheme: BTreeMap<&str, LayerTimes> = BTreeMap::new();
    let mut reports: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    let mut total = LayerTimes::default();
    for leg in traced.iter().flat_map(|c| &c.legs) {
        by_scheme.entry(leg.scheme).or_default().absorb(&leg.times);
        total.absorb(&leg.times);
        let r = reports.entry(leg.scheme).or_default();
        r.0 += leg.run.report.tunings;
        r.1 += leg.run.report.reconfigs;
        r.2 += leg.run.report.tuned_scopes;
    }
    let read_ns = total.read_ns();
    let per_step = total.per_step();
    let share = |ns: f64| 100.0 * ratio(ns, per_step.total());
    let instr = mean(traced.iter().map(|c| c.instr as f64));
    let ns_per_instr = median(
        &untraced
            .iter()
            .map(|c| c.wall * 1e9 / c.instr as f64)
            .collect::<Vec<_>>(),
    )
    .unwrap_or(0.0);
    let abs_ns = |share_pct: f64| share_pct / 100.0 * ns_per_instr;
    let wall = |cycles: &[Cycle]| {
        median(&cycles.iter().map(|c| c.wall).collect::<Vec<_>>()).unwrap_or(0.0)
    };

    let s = sim_totals(traced.iter().flat_map(|c| &c.legs));
    let w_share = share(per_step.layer_ns[WORKLOADS]);
    put("workloads.step.calls", total.steps as f64 / n);
    put("workloads.step.ns_per_instr", abs_ns(w_share));
    put("workloads.step.share_pct", w_share);
    put(
        "workloads.calls_per_minstr",
        ratio(total.enters as f64 / n, instr / 1e6),
    );
    let sim_share = share(per_step.layer_ns[SIM]);
    let blocks = total.blocks as f64 / n;
    put("sim.exec_block.calls", blocks);
    put("sim.exec_block.ns_per_instr", abs_ns(sim_share));
    put(
        "sim.exec_block.ns_per_block",
        ratio(abs_ns(sim_share) * instr, blocks),
    );
    put("sim.exec_block.share_pct", sim_share);
    put("sim.ipc", ratio(s.instret as f64, s.cycles as f64));
    put("sim.instr_per_block", ratio(instr, blocks));
    put("sim.l1d.miss_ratio", ratio(s.l1d.1 as f64, s.l1d.0 as f64));
    put("sim.l2.miss_ratio", ratio(s.l2.1 as f64, s.l2.0 as f64));
    put(
        "sim.dtlb.miss_ratio",
        ratio(s.dtlb.1 as f64, s.dtlb.0 as f64),
    );
    put("sim.resizes", s.resizes as f64 / n);
    put("sim.flush_writebacks", s.flush_writebacks as f64 / n);
    let rt_share = share(per_step.layer_ns[RUNTIME]);
    let rt_calls = total.runtime_calls as f64 / n;
    put("runtime.calls", rt_calls);
    put(
        "runtime.ns_per_call",
        ratio(abs_ns(rt_share) * instr, rt_calls),
    );
    put("runtime.share_pct", rt_share);
    put("runtime.hotspots", s.hotspots as f64 / n);
    for scheme in SCHEMES {
        let Some(times) = by_scheme.get(scheme) else {
            continue;
        };
        let core_share = share(times.layer_ns(CORE, read_ns) / total.span_steps.max(1) as f64);
        let (tunings, reconfigs, scopes) = reports[scheme];
        put(
            &format!("core.{scheme}.hook_calls"),
            times.hook_calls as f64 / n,
        );
        put(&format!("core.{scheme}.ns_per_instr"), abs_ns(core_share));
        put(&format!("core.{scheme}.share_pct"), core_share);
        put(&format!("core.{scheme}.tunings"), tunings as f64 / n);
        put(&format!("core.{scheme}.reconfigs"), reconfigs as f64 / n);
        put(
            &format!("core.{scheme}.trials_per_tuned_scope"),
            ratio(tunings as f64, scopes as f64),
        );
    }
    put("driver.share_pct", share(per_step.driver_ns));

    if traced[0].fleet.is_some() {
        let mut all = FleetTrace::default();
        let (mut entries, mut cold_hits, mut warm_hits) = (Vec::new(), Vec::new(), Vec::new());
        for (c, t) in traced.iter().filter_map(|c| c.fleet.as_ref()) {
            entries.push(c.store_len as f64);
            cold_hits.push(c.cold.hit_rate());
            warm_hits.push(c.warm.hit_rate());
            if let Some(t) = t {
                all.absorb(t);
            }
        }
        let p50 = |v: &[f64]| percentile(v, 50.0).unwrap_or(0.0);
        let p90 = |v: &[f64]| percentile(v, 90.0).unwrap_or(0.0);
        put("bench.engine.jobs", all.job_ms.len() as f64 / n);
        put("bench.engine.job_ms_p50", p50(&all.job_ms));
        put("bench.engine.job_ms_p90", p90(&all.job_ms));
        put("bench.engine.queue_wait_ms_p90", p90(&all.queue_wait_ms));
        put(
            "bench.engine.busy_ratio",
            ratio(all.job_total_ns, all.pass_capacity_ns),
        );
        put("fleet.store.publish.calls", all.publish_calls as f64 / n);
        put(
            "fleet.store.publish.us_per_call",
            ratio(all.publish_ns / 1e3, all.publish_calls as f64),
        );
        put(
            "fleet.store.snapshot.us_per_call",
            ratio(all.snapshot_ns / 1e3, all.snapshot_calls as f64),
        );
        put("fleet.store.entries", mean(entries));
        put("fleet.cold.lookup_hit_ratio", mean(cold_hits));
        put("fleet.warm.lookup_hit_ratio", mean(warm_hits));
        put("fleet.wave.merge_ms", mean(all.merge_ms.iter().copied()));
        put(
            "fleet.wave.barrier_idle_pct",
            100.0 * (1.0 - ratio(all.job_total_ns, all.pool_capacity_ns)),
        );
        put("fleet.machine_ms_p50", p50(&all.machine_ms));
        put("fleet.machine_ms_p90", p90(&all.machine_ms));
    }
    put(
        "trace.overhead_pct",
        100.0 * (ratio(wall(traced), wall(untraced)) - 1.0),
    );
    put(
        "trace.sampled_steps",
        (total.span_steps + total.outer_steps) as f64 / n,
    );
    out
}

/// Tail percentiles of the sampled timings, each at the highest
/// percentile that leaves ten samples beyond it, with its sample count.
fn tails(untraced: &[Cycle], traced: &[Cycle]) -> Value {
    let setup_ms: Vec<f64> = untraced
        .iter()
        .flat_map(|c| c.setup.iter().map(|s| s * 1e3))
        .collect();
    let mut fleet = FleetTrace::default();
    for (_, t) in traced.iter().filter_map(|c| c.fleet.as_ref()) {
        if let Some(t) = t {
            fleet.absorb(t);
        }
    }
    let series = [
        ("setup_ms", setup_ms),
        ("bench.engine.job_ms", fleet.job_ms),
        ("bench.engine.queue_wait_ms", fleet.queue_wait_ms),
        ("fleet.machine_ms", fleet.machine_ms),
    ];
    Value::Object(
        series
            .into_iter()
            .filter_map(|(name, values)| {
                let t = tail(&values)?;
                Some((
                    name.to_string(),
                    Value::Object(vec![
                        ("median".into(), Value::F64(median(&values)?)),
                        ("p".into(), Value::F64(t.p)),
                        ("value".into(), Value::F64(t.value)),
                        ("n".into(), Value::U64(t.n as u64)),
                    ]),
                ))
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_seeds_are_distinct_streams_or_the_committed_seeds() {
        assert_eq!(cycle_seed(None, 3), None);
        let a: Vec<_> = (0..4).map(|r| cycle_seed(Some(1), r)).collect();
        let b: Vec<_> = (0..4).map(|r| cycle_seed(Some(2), r)).collect();
        assert_eq!(
            a,
            (0..4).map(|r| cycle_seed(Some(1), r)).collect::<Vec<_>>()
        );
        for x in &a {
            assert!(!b.contains(x), "seeds 1 and 2 share no round's inputs");
        }
        let mut unique = a.clone();
        unique.dedup();
        assert_eq!(unique.len(), 4);
        assert!(a.iter().flatten().all(|s| s.checked_add(1 << 20).is_some()));
    }

    #[test]
    fn quality_averages_programs_like_run_all() {
        // Two programs, hotspot saves 10 % / 30 % of L1D energy.
        let mut runs = Vec::new();
        let unit = |source: &str, scheme: &'static str| Unit {
            source: source.to_string(),
            scheme,
        };
        let units = [
            unit("a", "baseline"),
            unit("a", "hotspot"),
            unit("b", "baseline"),
            unit("b", "hotspot"),
        ];
        let run = |l1d: f64, ipc: f64| {
            let mut r = workload::run_unit(&unit("check", "baseline"), None).unwrap();
            r.record.energy.l1d_nj = l1d;
            r.record.energy.l2_nj = 1.0;
            r.record.ipc = ipc;
            r
        };
        for (u, (l1d, ipc)) in
            units
                .iter()
                .zip([(100.0, 2.0), (90.0, 2.0), (100.0, 1.0), (70.0, 0.9)])
        {
            runs.push((u, run(l1d, ipc)));
        }
        let q = runs_quality(&runs);
        assert!((q.l1d_saving_pct - 20.0).abs() < 1e-9, "{q:?}");
        assert!((q.slowdown_pct - 5.0).abs() < 1e-9, "{q:?}");
        assert_eq!(q.paper_gap_pp, None, "no BBV runs, no paper gap");
    }
}
