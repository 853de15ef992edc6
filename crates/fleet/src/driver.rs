//! The fleet driver: steps thousands of machines through the engine in
//! store-synchronized waves.
//!
//! Execution is **generational**: the fleet is split into waves of
//! `wave_size` machines. Every machine in a wave tunes against the same
//! frozen [`TuningStore`] snapshot; when the wave drains, its publications
//! are merged into the store **in machine-index order** (better-epi-wins)
//! before the next wave is admitted. Within a wave, machines fan out as
//! jobs on the shared-queue engine ([`ace_bench::run_jobs`]) — the
//! frozen snapshot plus submission-order merge is what makes the whole
//! fleet report byte-identical at any `--jobs` width.
//!
//! Admission: at most `admit_limit` machines of each wave are admitted
//! (the service's bounded in-flight window); the rest are shed and
//! counted in [`FleetOutcome::shed`]. Wall-clock throughput is returned
//! separately ([`FleetOutcome::wall`]) and must never enter the
//! deterministic report text.
//!
//! Reuse: a managed run is a pure function of its program, seed and
//! limit and of the answers its lookups get from the snapshot. The
//! store's run ledger keeps each finished run with those answers, so an
//! untraced machine whose recorded answers the wave's snapshot gives
//! again takes its run from the ledger and simulates nothing (see
//! [`run_fleet`]).

use crate::store::{LedgerEntry, RunKey, RunLedger, TuningStore};
use crate::FLEET_SCHEMA_VERSION;
use ace_bench::{run_jobs, BenchError, BenchResult, Job};
use ace_core::{
    registry_version, Experiment, Leg, NullManager, SchemeCtx, SchemeRegistry, StoreAnswer,
    StorePublication, WarmStartContext,
};
use ace_energy::EnergyModel;
use ace_runtime::DoConfig;
use ace_sim::MachineConfig;
use ace_telemetry::Telemetry;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// The registry version fleet stores are stamped with: the fingerprint of
/// the default machine's CU registry.
pub fn fleet_registry_version() -> u16 {
    registry_version(&MachineConfig::table2().cu_registry())
}

/// The tuning scheme fleet machines run, resolved by id from the scheme
/// registry. The driver only requires that the scheme's manager take a
/// warm-start store ([`ace_core::SchemeManager::warm_start`]); any
/// registered scheme whose manager does can serve a fleet.
pub const FLEET_SCHEME: &str = "hotspot";

/// The DO-system profile fleet machines run under: aggressive promotion
/// (`hot_threshold` 2, one probing invocation) so hotspots classify and
/// converge within the short per-machine instruction budget.
pub fn fleet_do_config() -> DoConfig {
    DoConfig {
        hot_threshold: 2,
        probe_invocations: 1,
        ..DoConfig::default()
    }
}

/// One machine of the fleet: a workload preset plus the executor seed
/// that differentiates its dynamic behavior from its neighbours'.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MachineSpec {
    /// Fleet-wide machine index (also the deterministic merge order).
    pub index: usize,
    /// Workload preset name.
    pub preset: String,
    /// Executor seed.
    pub seed: u64,
}

/// Configuration of one fleet run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Workload presets machines cycle through.
    pub presets: Vec<String>,
    /// Total machines in the fleet.
    pub machines: usize,
    /// Machines per store-synchronized wave.
    pub wave_size: usize,
    /// Admission bound: machines admitted per wave; the excess is shed.
    pub admit_limit: usize,
    /// Base of the per-machine seed sequence (`seed_base + index`).
    pub seed_base: u64,
    /// Per-machine instruction budget.
    pub instruction_limit: u64,
    /// Whether each machine reports a non-adaptive baseline for energy
    /// accounting (the binary needs it, tests may not). A baseline is a
    /// pure function of program, seed and limit, so the store's run
    /// ledger remembers it: a machine whose baseline the session already
    /// measured reuses it and runs one leg. Otherwise the baseline leg
    /// shares the managed leg's executor stream, adding a second
    /// simulated machine to the job but no second instruction stream.
    pub measure_baseline: bool,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig::preset("standard").expect("standard preset exists")
    }
}

impl FleetConfig {
    /// Named fleet presets — the shapes the `fleet` binary (and CI)
    /// exercise:
    ///
    /// * `"smoke"` — 64 machines, waves of 16 (the CI smoke shape),
    /// * `"standard"` — 1000 machines, waves of 125,
    /// * `"stress"` — 4000 machines, waves of 250.
    pub fn preset(name: &str) -> Option<FleetConfig> {
        let (machines, wave_size) = match name {
            "smoke" => (64, 16),
            "standard" => (1000, 125),
            "stress" => (4000, 250),
            _ => return None,
        };
        Some(FleetConfig {
            presets: ace_workloads::PRESET_NAMES
                .iter()
                .map(|s| s.to_string())
                .collect(),
            machines,
            wave_size,
            admit_limit: wave_size,
            seed_base: 1,
            instruction_limit: 8_000_000,
            measure_baseline: true,
        })
    }

    /// The names [`FleetConfig::preset`] accepts.
    pub const PRESET_NAMES: [&'static str; 3] = ["smoke", "standard", "stress"];

    /// Expands the config into its machine list: machine `i` runs preset
    /// `presets[i % presets.len()]` with seed `seed_base + i`.
    ///
    /// # Panics
    ///
    /// When the seed sequence overflows `u64`, which
    /// [`FleetConfig::validate`] rejects.
    pub fn machine_specs(&self) -> Vec<MachineSpec> {
        (0..self.machines)
            .map(|index| MachineSpec {
                index,
                preset: self.presets[index % self.presets.len()].clone(),
                seed: self
                    .seed_base
                    .checked_add(index as u64)
                    .expect("FleetConfig::validate rejects an overflowing seed sequence"),
            })
            .collect()
    }

    /// Checks that the config describes a fleet that can run: at least
    /// one preset, one machine, a positive wave size and admit limit,
    /// and a seed sequence `seed_base + i` that fits in a `u64`.
    ///
    /// # Errors
    ///
    /// Names the violated requirement.
    pub fn validate(&self) -> BenchResult<()> {
        if self.presets.is_empty()
            || self.machines == 0
            || self.wave_size == 0
            || self.admit_limit == 0
        {
            return Err(BenchError::msg(
                "fleet config needs at least one preset, one machine, a positive wave size and a positive admit limit",
            ));
        }
        if self
            .seed_base
            .checked_add(self.machines as u64 - 1)
            .is_none()
        {
            return Err(BenchError::msg(format!(
                "fleet seed sequence overflows u64: seed base {} plus {} machines",
                self.seed_base, self.machines
            )));
        }
        Ok(())
    }
}

/// How a wave used the store's run ledger: the baseline legs it
/// simulated, and the baselines and whole runs it took from the ledger
/// instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LedgerCounts {
    /// Baselines simulated as a second leg.
    pub baselines_measured: u64,
    /// Baselines taken from the ledger, those of reused runs included.
    pub baselines_reused: u64,
    /// Machine runs taken whole from the ledger, simulating nothing.
    pub runs_reused: u64,
}

/// The deterministic per-machine result row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineOutcome {
    /// Which machine.
    pub spec: MachineSpec,
    /// Managed-run IPC.
    pub ipc: f64,
    /// Managed-run retired instructions.
    pub instret: u64,
    /// Managed-run L1D energy (nJ).
    pub l1d_nj: f64,
    /// Managed-run L2 energy (nJ).
    pub l2_nj: f64,
    /// Non-adaptive baseline `(ipc, l1d_nj, l2_nj)`, when measured.
    pub baseline: Option<(f64, f64, f64)>,
    /// Configuration trials the machine's tuner measured.
    pub tunings: u64,
    /// Hotspots that completed tuning.
    pub tuned_hotspots: u64,
    /// Store lookups that hit.
    pub warm_hits: u64,
    /// Store lookups that missed.
    pub warm_misses: u64,
    /// Trials avoided via warm starts.
    pub warm_trials_saved: u64,
    /// Selections the machine published.
    pub store_publishes: u64,
}

/// One fleet pass: every admitted machine's outcome (in machine-index
/// order) plus driver-level counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetOutcome {
    /// Format version ([`FLEET_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Per-machine rows, in machine-index order.
    pub machines: Vec<MachineOutcome>,
    /// Machines shed by the admission bound.
    pub shed: u64,
    /// Waves the pass ran.
    pub waves: usize,
    /// Worker wall-clock summed across machines — **not** part of the
    /// deterministic report (schedule-dependent); serialized as zero.
    #[serde(skip, default)]
    pub wall: Duration,
}

impl FleetOutcome {
    /// Machines that actually ran.
    pub fn ran(&self) -> u64 {
        self.machines.len() as u64
    }

    /// Total configuration trials across the fleet.
    pub fn tunings(&self) -> u64 {
        self.machines.iter().map(|m| m.tunings).sum()
    }

    /// Total store lookups (hits + misses).
    pub fn lookups(&self) -> u64 {
        self.hits() + self.misses()
    }

    /// Total warm-start hits.
    pub fn hits(&self) -> u64 {
        self.machines.iter().map(|m| m.warm_hits).sum()
    }

    /// Total warm-start misses.
    pub fn misses(&self) -> u64 {
        self.machines.iter().map(|m| m.warm_misses).sum()
    }

    /// Fleet-wide store hit rate in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            0.0
        } else {
            self.hits() as f64 / lookups as f64
        }
    }

    /// Total trials avoided via warm starts.
    pub fn trials_saved(&self) -> u64 {
        self.machines.iter().map(|m| m.warm_trials_saved).sum()
    }

    /// Total publications machines made.
    pub fn publishes(&self) -> u64 {
        self.machines.iter().map(|m| m.store_publishes).sum()
    }

    /// Fleet-aggregate L1D energy saving vs the per-machine baselines, in
    /// percent (0 when baselines were not measured).
    pub fn l1d_saving_pct(&self) -> f64 {
        aggregate_saving(
            self.machines
                .iter()
                .filter_map(|m| m.baseline.map(|(_, base_l1d, _)| (m.l1d_nj, base_l1d))),
        )
    }

    /// Fleet-aggregate L2 energy saving vs the per-machine baselines, in
    /// percent (0 when baselines were not measured).
    pub fn l2_saving_pct(&self) -> f64 {
        aggregate_saving(
            self.machines
                .iter()
                .filter_map(|m| m.baseline.map(|(_, _, base_l2)| (m.l2_nj, base_l2))),
        )
    }

    /// Mean slowdown vs the per-machine baselines, in percent.
    pub fn mean_slowdown_pct(&self) -> f64 {
        let rows: Vec<f64> = self
            .machines
            .iter()
            .filter_map(|m| {
                m.baseline.and_then(|(base_ipc, _, _)| {
                    (base_ipc > 0.0).then(|| 100.0 * (1.0 - m.ipc / base_ipc))
                })
            })
            .collect();
        if rows.is_empty() {
            0.0
        } else {
            rows.iter().sum::<f64>() / rows.len() as f64
        }
    }
}

fn aggregate_saving(pairs: impl Iterator<Item = (f64, f64)>) -> f64 {
    let (mut managed, mut base) = (0.0, 0.0);
    for (m, b) in pairs {
        managed += m;
        base += b;
    }
    if base <= 0.0 {
        0.0
    } else {
        100.0 * (1.0 - managed / base)
    }
}

/// Runs one fleet pass against `store` on a pool of `jobs` workers.
///
/// Publications are merged into `store` at each wave barrier, in
/// machine-index order; the next wave snapshots the merged state. The
/// returned outcome (and the store's final state) is byte-identical at
/// any `jobs` width.
///
/// Each machine first looks up its last run in the store's run ledger
/// (same program content, seed and limit). It reuses that run whole,
/// simulating nothing, when all three hold:
///
/// * the pass is untraced: a traced run exists to emit its events, and
///   a reused one would emit none;
/// * the run has a baseline exactly when `cfg.measure_baseline` asks
///   for one;
/// * the wave's snapshot gives every answer the run's lookups read.
///
/// Such a run would repeat itself bit for bit, so it hands back its
/// recorded outcome and publications. Otherwise the machine simulates,
/// taking only the baseline from the ledger when there is one. Simulated
/// runs join the ledger at the wave barrier, in machine-index order,
/// like publications, and machines read a frozen copy of it, so reuse
/// is the same at any `jobs` width.
///
/// # Errors
///
/// Fails when `store` is stamped with a different registry version than
/// the fleet's machines, when [`FleetConfig::validate`] rejects `cfg`, on
/// unknown presets, or when any machine run fails; every admitted
/// machine still runs, and the error aggregates all failures.
pub fn run_fleet(
    cfg: &FleetConfig,
    store: &mut TuningStore,
    jobs: usize,
    telemetry: &Telemetry,
) -> BenchResult<FleetOutcome> {
    run_fleet_observed(cfg, store, jobs, telemetry, None)
}

/// [`run_fleet`] with a wave-health sampler attached: after every wave's
/// merge the sampler records one cumulative obs snapshot (see
/// [`crate::obs::ObsSampler`]). Each wave is also bracketed by a
/// `"wave"` telemetry span stamped with the fleet's cumulative retired
/// instructions and (IPC-derived) cycles — harness-level spans that
/// never enter the per-machine event streams. At each wave barrier the
/// wave's machines, shed count and [`LedgerCounts`] also go to the
/// telemetry registry as `fleet.*` counters. With `obs` `None` and
/// telemetry off, the path is identical to the pre-obs driver.
///
/// # Errors
///
/// See [`run_fleet`].
pub fn run_fleet_observed(
    cfg: &FleetConfig,
    store: &mut TuningStore,
    jobs: usize,
    telemetry: &Telemetry,
    mut obs: Option<&mut crate::obs::ObsSampler>,
) -> BenchResult<FleetOutcome> {
    if store.version() != fleet_registry_version() {
        return Err(BenchError::msg(format!(
            "store registry version {:#06x} does not match the fleet machines' {:#06x}",
            store.version(),
            fleet_registry_version()
        )));
    }
    cfg.validate()?;
    let specs = cfg.machine_specs();
    let mut outcome = FleetOutcome {
        schema_version: FLEET_SCHEMA_VERSION,
        machines: Vec::with_capacity(specs.len()),
        shed: 0,
        waves: 0,
        wall: Duration::ZERO,
    };
    let mut failures: Vec<String> = Vec::new();
    // Span stamps are fleet-cumulative architectural counters: retired
    // instructions summed over merged machines, cycles derived from each
    // machine's deterministic IPC. Purely wave-indexed — no wall clock —
    // so the emitted span events are byte-identical at any `jobs` width.
    let mut cum_instret: u64 = 0;
    let mut cum_cycle: u64 = 0;
    for wave in specs.chunks(cfg.wave_size) {
        outcome.waves += 1;
        let admitted = &wave[..cfg.admit_limit.min(wave.len())];
        let wave_shed = (wave.len() - admitted.len()) as u64;
        outcome.shed += wave_shed;
        let wave_start = outcome.machines.len();
        let span = telemetry.span_at("wave", cum_instret, cum_cycle);
        let snapshot = store.snapshot();
        // Runs are looked up in a frozen copy of the ledger, as
        // selections are in the snapshot.
        let pool: Vec<Job<MachineRun>> = admitted
            .iter()
            .map(|spec| {
                let spec = spec.clone();
                let snapshot = snapshot.clone();
                let ledger = store.runs();
                let (limit, baseline) = (cfg.instruction_limit, cfg.measure_baseline);
                Job::new(
                    format!("m{}/{}#{}", spec.index, spec.preset, spec.seed),
                    move |tel| run_machine(spec, snapshot, &ledger, limit, baseline, tel),
                )
            })
            .collect();
        let mut wave_counts = LedgerCounts::default();
        for job_outcome in run_jobs(pool, jobs, telemetry) {
            outcome.wall += job_outcome.wall;
            match job_outcome.result {
                Ok(MachineRun {
                    outcome: machine,
                    publications,
                    simulated,
                }) => {
                    for &publication in &publications {
                        store.publish(publication)?;
                    }
                    let baseline_measured = simulated.as_ref().is_some_and(|s| s.baseline_measured);
                    if baseline_measured {
                        wave_counts.baselines_measured += 1;
                    } else if machine.baseline.is_some() {
                        wave_counts.baselines_reused += 1;
                    }
                    match simulated {
                        Some(Simulated { key, answers, .. }) => store.record_run(
                            key,
                            LedgerEntry {
                                outcome: machine.clone(),
                                publications,
                                answers,
                            },
                        ),
                        None => wave_counts.runs_reused += 1,
                    }
                    cum_instret += machine.instret;
                    if machine.ipc > 0.0 {
                        cum_cycle += (machine.instret as f64 / machine.ipc) as u64;
                    }
                    outcome.machines.push(machine);
                }
                Err(e) => failures.push(format!("{}: {e}", job_outcome.key)),
            }
        }
        span.end_at(cum_instret, cum_cycle);
        // Deterministic fleet counters CI can scrape alongside the
        // engine's scheduling histograms.
        if let Some(metrics) = telemetry.metrics() {
            let add = |name: &str, v: u64| metrics.counter(name).add(v);
            add(
                "fleet.machines_ran",
                (outcome.machines.len() - wave_start) as u64,
            );
            add("fleet.shed", wave_shed);
            add("fleet.waves", 1);
            add("fleet.baselines_measured", wave_counts.baselines_measured);
            add("fleet.baselines_reused", wave_counts.baselines_reused);
            add("fleet.runs_reused", wave_counts.runs_reused);
        }
        if !failures.is_empty() {
            break;
        }
        if let Some(sampler) = obs.as_deref_mut() {
            sampler.record_wave(
                outcome.waves as u64,
                &outcome.machines[wave_start..],
                wave_shed,
                store.len(),
                wave_counts,
            );
        }
    }
    if !failures.is_empty() {
        return Err(BenchError::msg(failures.join("; ")));
    }
    Ok(outcome)
}

/// What one machine job hands back to the wave barrier.
struct MachineRun {
    outcome: MachineOutcome,
    publications: Vec<StorePublication>,
    /// `None` when the run was taken whole from the ledger.
    simulated: Option<Simulated>,
}

/// What the barrier records of a simulated run.
struct Simulated {
    key: RunKey,
    answers: Vec<StoreAnswer>,
    /// Whether the baseline leg ran.
    baseline_measured: bool,
}

/// Runs one machine, or takes its run from `ledger`, the wave's frozen
/// copy of the store's run ledger (see [`run_fleet`]).
fn run_machine(
    spec: MachineSpec,
    snapshot: WarmStartContext,
    ledger: &RunLedger,
    limit: u64,
    measure_baseline: bool,
    telemetry: &Telemetry,
) -> BenchResult<MachineRun> {
    let program = ace_workloads::WorkloadRegistry::builtin()
        .resolve_program(&spec.preset)
        .map_err(|e| BenchError::msg(e.to_string()))?;
    let key = RunKey::new(&program, spec.seed, limit);
    let last = ledger.get(&key);
    if let Some(last) = last.filter(|last| {
        !telemetry.is_enabled()
            && last.outcome.baseline.is_some() == measure_baseline
            && snapshot.agrees_with(&last.answers)
    }) {
        return Ok(MachineRun {
            outcome: MachineOutcome {
                spec,
                ..last.outcome.clone()
            },
            publications: last.publications.clone(),
            simulated: None,
        });
    }
    let known = last
        .and_then(|last| last.outcome.baseline)
        .filter(|_| measure_baseline);
    let scheme = SchemeRegistry::builtin()
        .get(FLEET_SCHEME)
        .ok_or_else(|| BenchError::msg(format!("scheme {FLEET_SCHEME:?} is not registered")))?;
    let mut mgr = scheme.build(&SchemeCtx {
        program: &program,
        model: EnergyModel::default_180nm(),
    });
    match mgr.warm_start() {
        Some(ws) => ws.set_warm_start(snapshot),
        None => {
            return Err(BenchError::msg(format!(
                "fleet scheme {FLEET_SCHEME:?} does not support warm starts"
            )))
        }
    }
    // The baseline leg is energy accounting, not fleet behavior: it runs
    // untraced so telemetry event counts describe the managed fleet only.
    // Both legs replay one executor stream, so they share it. A baseline
    // the ledger already holds is not simulated again.
    let (mut base, untraced) = (NullManager, Telemetry::off());
    let mut legs = vec![Leg::new(&mut *mgr, telemetry)];
    let baseline_measured = measure_baseline && known.is_none();
    if baseline_measured {
        legs.push(Leg::new(&mut base, &untraced));
    }
    let mut records = Experiment::program(program)
        .seed(spec.seed)
        .do_config(fleet_do_config())
        .instruction_limit(limit)
        .run_legs(legs)?
        .into_iter();
    let record = records.next().expect("one record per leg");
    let measured = records
        .next()
        .map(|base| (base.ipc, base.energy.l1d_nj, base.energy.l2_nj));
    let report = mgr.scheme_report(&record);
    if let Some(metrics) = telemetry.metrics() {
        report.record_metrics(metrics);
    }
    let (publications, answers) = mgr
        .warm_start()
        .and_then(|ws| ws.take_warm_start())
        .map(WarmStartContext::into_parts)
        .unwrap_or_default();
    let machine = MachineOutcome {
        ipc: record.ipc,
        instret: record.instret,
        l1d_nj: record.energy.l1d_nj,
        l2_nj: record.energy.l2_nj,
        baseline: known.or(measured),
        tunings: report.tunings,
        tuned_hotspots: report.tuned_scopes,
        warm_hits: report.warm_hits,
        warm_misses: report.warm_misses,
        warm_trials_saved: report.warm_trials_saved,
        store_publishes: report.store_publishes,
        spec,
    };
    Ok(MachineRun {
        outcome: machine,
        publications,
        simulated: Some(Simulated {
            key,
            answers,
            baseline_measured,
        }),
    })
}

/// Renders the deterministic two-pass fleet report (the `fleet` binary's
/// stdout body). Wall-clock never appears here — throughput goes to
/// stderr.
pub fn render_report(
    cfg: &FleetConfig,
    cold: &FleetOutcome,
    warm: &FleetOutcome,
    store: &TuningStore,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== ace-fleet: {} machines sharing a warm-start tuning store ===",
        cfg.machines
    );
    let _ = writeln!(
        out,
        "fleet: {} machines over {} waves (wave size {}, admit limit {}, {} shed), {} instr/machine",
        cfg.machines, cold.waves, cfg.wave_size, cfg.admit_limit, cold.shed, cfg.instruction_limit
    );
    let _ = writeln!(
        out,
        "store: registry version {:#06x}, {} entries ({} evicted, {} stale dropped)",
        store.version(),
        store.len(),
        store.evictions(),
        store.stale_dropped()
    );
    out.push('\n');
    let row = |pass: &str, o: &FleetOutcome| {
        vec![
            pass.to_string(),
            format!("{}", o.ran()),
            format!("{}", o.tunings()),
            format!("{}", o.lookups()),
            format!("{}", o.hits()),
            format!("{:.1}", 100.0 * o.hit_rate()),
            format!("{}", o.trials_saved()),
            format!("{}", o.publishes()),
            format!("{:.1}", o.l1d_saving_pct()),
            format!("{:.1}", o.l2_saving_pct()),
            format!("{:.2}", o.mean_slowdown_pct()),
        ]
    };
    out.push_str(&ace_bench::format_table(
        &[
            "pass", "machines", "tunings", "lookups", "hits", "hit%", "saved", "pubs", "L1Dsave%",
            "L2save%", "slow%",
        ],
        &[row("cold", cold), row("warm", warm)],
    ));
    out.push('\n');
    let cold_tunings = cold.tunings().max(1);
    let _ = writeln!(
        out,
        "warm vs cold: {:.1}% fewer tuning trials ({} vs {}), warm hit rate {:.1}%",
        100.0 * (1.0 - warm.tunings() as f64 / cold_tunings as f64),
        warm.tunings(),
        cold.tunings(),
        100.0 * warm.hit_rate()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::ObsSampler;
    use crate::store::PublishOutcome;

    #[test]
    fn presets_expand_deterministically() {
        let cfg = FleetConfig::preset("smoke").unwrap();
        assert_eq!(cfg.machines, 64);
        let specs = cfg.machine_specs();
        assert_eq!(specs.len(), 64);
        assert_eq!(specs[0].preset, "compress");
        assert_eq!(specs[1].preset, "db");
        assert_eq!(specs[7].preset, "compress", "presets cycle");
        assert_eq!(specs[7].seed, cfg.seed_base + 7);
        assert_eq!(specs, cfg.machine_specs(), "expansion is pure");
        assert!(FleetConfig::preset("nope").is_none());
        for name in FleetConfig::PRESET_NAMES {
            assert!(FleetConfig::preset(name).is_some());
        }
    }

    #[test]
    fn standard_preset_is_a_thousand_machines() {
        let cfg = FleetConfig::default();
        assert!(cfg.machines >= 1000, "the fleet must be fleet-sized");
        assert_eq!(cfg.machines % cfg.wave_size, 0);
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let cfg = FleetConfig::preset("smoke").unwrap();
        let mut store = TuningStore::in_memory(fleet_registry_version().wrapping_add(1), 16);
        let err = run_fleet(&cfg, &mut store, 1, &Telemetry::off()).unwrap_err();
        assert!(err.to_string().contains("registry version"), "{err}");
    }

    #[test]
    fn zero_admit_limit_is_rejected() {
        let mut cfg = FleetConfig::preset("smoke").unwrap();
        cfg.admit_limit = 0;
        let mut store = TuningStore::in_memory(fleet_registry_version(), 16);
        let err = run_fleet(&cfg, &mut store, 1, &Telemetry::off()).unwrap_err();
        assert!(err.to_string().contains("admit limit"), "{err}");
        assert!(store.is_empty(), "nothing ran");
    }

    #[test]
    fn an_overflowing_seed_sequence_is_rejected() {
        let mut cfg = FleetConfig::preset("smoke").unwrap();
        cfg.machines = 2;
        cfg.seed_base = u64::MAX;
        let mut store = TuningStore::in_memory(fleet_registry_version(), 16);
        let err = run_fleet(&cfg, &mut store, 1, &Telemetry::off()).unwrap_err();
        assert!(err.to_string().contains("seed sequence overflows"), "{err}");
        assert!(store.is_empty(), "nothing ran");
        // The last machine may take the largest seed itself.
        cfg.seed_base = u64::MAX - 1;
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.machine_specs()[1].seed, u64::MAX);
    }

    #[test]
    fn admission_sheds_beyond_the_limit() {
        let mut cfg = FleetConfig::preset("smoke").unwrap();
        cfg.machines = 8;
        cfg.wave_size = 4;
        cfg.admit_limit = 3;
        cfg.measure_baseline = false;
        cfg.instruction_limit = 200_000; // tiny: shedding math, not tuning
        let mut store = TuningStore::in_memory(fleet_registry_version(), 64);
        let out = run_fleet(&cfg, &mut store, 2, &Telemetry::off()).unwrap();
        assert_eq!(out.waves, 2);
        assert_eq!(out.shed, 2, "one machine shed per full wave");
        assert_eq!(out.ran(), 6);
        // Shed machines are the wave tails: indices 3 and 7 never ran.
        let ran: Vec<usize> = out.machines.iter().map(|m| m.spec.index).collect();
        assert_eq!(ran, vec![0, 1, 2, 4, 5, 6]);
    }

    /// A run the ledger holds is reused only while the snapshot answers
    /// its lookups the same way. After the cold pass, a lower-EPI entry
    /// with another configuration lands under a signature that a
    /// reusable run hit. The warm pass simulates that machine, and gets
    /// what a warm pass over a store without a ledger gets.
    #[test]
    fn a_changed_answer_forces_simulation() {
        let dir = std::env::temp_dir().join(format!("ace_fleet_changed_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = FleetConfig::preset("smoke").unwrap();
        cfg.presets = vec!["db".into(), "jess".into()];
        cfg.machines = 4;
        cfg.wave_size = 2;
        cfg.admit_limit = 2;
        let (version, capacity) = (fleet_registry_version(), TuningStore::DEFAULT_CAPACITY);
        let log = dir.join("store.jsonl");
        let mut session = TuningStore::open(&log, version, capacity).unwrap();
        run_fleet(&cfg, &mut session, 2, &Telemetry::off()).unwrap();

        let snapshot = session.snapshot();
        let runs = session.runs();
        let (last, signature, answer) = runs
            .values()
            .filter(|last| snapshot.agrees_with(&last.answers))
            .find_map(|last| {
                last.answers
                    .iter()
                    .find_map(|&(signature, answer)| answer.map(|a| (last, signature, a)))
            })
            .expect("the warm pass could reuse a run that hit the store");
        let (cu, level) = answer.touched_units().next().unwrap();
        let other = answer.with(cu, level.smaller().or(level.larger()).unwrap());
        let entry = *session.get(signature).unwrap();
        let changed = StorePublication {
            signature,
            config: other,
            ipc: entry.ipc,
            epi_nj: entry.epi_nj / 2.0,
            trials: 1,
        };
        assert_eq!(session.publish(changed).unwrap(), PublishOutcome::Improved);
        let replay_log = dir.join("replay.jsonl");
        std::fs::copy(&log, &replay_log).unwrap();
        let mut reopened = TuningStore::open(&replay_log, version, capacity).unwrap();

        let warm = run_fleet(&cfg, &mut session, 2, &Telemetry::off()).unwrap();
        let mut sampler = ObsSampler::new("fresh");
        let fresh = run_fleet_observed(
            &cfg,
            &mut reopened,
            2,
            &Telemetry::off(),
            Some(&mut sampler),
        )
        .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let reused = sampler
            .records()
            .last()
            .unwrap()
            .metrics
            .counter("fleet.runs_reused");
        assert_eq!(reused, 0, "a reopened store has no runs");
        let machine = &warm.machines[last.outcome.spec.index];
        assert_ne!(machine, &last.outcome, "the changed answer changes the run");
        assert_eq!(machine, &fresh.machines[last.outcome.spec.index]);
        assert_eq!(
            serde_json::to_string(&warm).unwrap(),
            serde_json::to_string(&fresh).unwrap()
        );
    }
}
