//! `fleet-smoke` cycles: a cold and a warm pass over a fresh file-backed
//! tuning store, either through `ace_fleet::run_fleet` (untraced) or
//! through a replica of its wave loop built from public API (traced,
//! [`run_pass_traced`]), which times the store, the engine and every
//! machine from outside.

use crate::layers::LayerTimes;
use crate::spans::{SpanLog, SpanRecord};
use crate::workload::{self, fnv, Finished, FNV_BASIS};
use ace_bench::{run_jobs, BenchError, BenchResult, Job};
use ace_core::{NullManager, RunConfig, StorePublication, WarmStartContext};
use ace_fleet::driver::FLEET_SCHEME;
use ace_fleet::{
    fleet_do_config, fleet_registry_version, FleetConfig, FleetOutcome, MachineOutcome,
    MachineSpec, TuningStore, FLEET_SCHEMA_VERSION,
};
use ace_telemetry::Telemetry;
use std::path::Path;
use std::time::{Duration, Instant};

/// A finished cold + warm cycle.
#[derive(Debug, Clone)]
pub struct FleetCycle {
    /// The cold pass (empty store).
    pub cold: FleetOutcome,
    /// The warm pass (the store the cold pass filled).
    pub warm: FleetOutcome,
    /// Store entries after both passes, rendered deterministically.
    pub entries: String,
    /// Live store entries after both passes.
    pub store_len: usize,
    /// Wall time of both passes (store open excluded, as in the `fleet`
    /// binary's throughput line).
    pub wall: Duration,
}

impl FleetCycle {
    /// A cycle from its two passes, the store they left and their wall.
    pub fn new(
        cold: FleetOutcome,
        warm: FleetOutcome,
        store: &TuningStore,
        wall: Duration,
    ) -> FleetCycle {
        FleetCycle {
            cold,
            warm,
            entries: format!("{:?}", store.entries_sorted()),
            store_len: store.len(),
            wall,
        }
    }

    /// Machines run across both passes.
    pub fn machines(&self) -> u64 {
        self.cold.ran() + self.warm.ran()
    }

    /// Simulated instructions across both passes; a measured baseline leg
    /// replays the managed leg's executor stream, so it retires as many.
    pub fn instructions(&self, measure_baseline: bool) -> u64 {
        let legs = if measure_baseline { 2 } else { 1 };
        [&self.cold, &self.warm]
            .iter()
            .flat_map(|o| o.machines.iter())
            .map(|m| legs * m.instret)
            .sum()
    }

    /// FNV-1a over both outcomes and the final store entries.
    pub fn digest(&self) -> u64 {
        let cold = serde_json::to_string(&self.cold).expect("fleet outcomes serialize");
        let warm = serde_json::to_string(&self.warm).expect("fleet outcomes serialize");
        [cold.as_bytes(), warm.as_bytes(), self.entries.as_bytes()]
            .iter()
            .fold(FNV_BASIS, |h, bytes| fnv(h, bytes))
    }
}

/// Opens a fresh log-backed store at `dir/store.jsonl`, removing any
/// earlier log there.
///
/// # Errors
///
/// Fails when the directory or log cannot be created.
pub fn fresh_store(dir: &Path) -> BenchResult<TuningStore> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join("store.jsonl");
    if path.exists() {
        std::fs::remove_file(&path)?;
    }
    TuningStore::open(
        path,
        fleet_registry_version(),
        TuningStore::DEFAULT_CAPACITY,
    )
}

/// Engine, store and wave timings of traced fleet passes.
#[derive(Debug, Clone, Default)]
pub struct FleetTrace {
    /// Results and sampled layer accounting of the managed legs.
    pub managed_legs: Vec<(Finished, LayerTimes)>,
    /// The same for the baseline legs.
    pub baseline_legs: Vec<(Finished, LayerTimes)>,
    /// Per-job worker wall, ms.
    pub job_ms: Vec<f64>,
    /// Per-job queue wait before a worker picked it up, ms.
    pub queue_wait_ms: Vec<f64>,
    /// Per-machine managed-leg wall, ms.
    pub machine_ms: Vec<f64>,
    /// `TuningStore::publish` calls and their total time, ns.
    pub publish_calls: u64,
    /// See [`FleetTrace::publish_calls`].
    pub publish_ns: f64,
    /// `TuningStore::snapshot` calls and their total time, ns.
    pub snapshot_calls: u64,
    /// See [`FleetTrace::snapshot_calls`].
    pub snapshot_ns: f64,
    /// Per-wave merge time (publication and outcome merge), ms.
    pub merge_ms: Vec<f64>,
    /// Worker-pool width times pool wall, summed over waves, ns.
    pub pool_capacity_ns: f64,
    /// Worker-pool width times pass wall, summed over passes, ns.
    pub pass_capacity_ns: f64,
    /// Job wall summed over all jobs, ns.
    pub job_total_ns: f64,
}

impl FleetTrace {
    /// Adds `other`'s engine, store and wave timings (not its legs).
    pub fn absorb(&mut self, other: &FleetTrace) {
        self.job_ms.extend(&other.job_ms);
        self.queue_wait_ms.extend(&other.queue_wait_ms);
        self.machine_ms.extend(&other.machine_ms);
        self.publish_calls += other.publish_calls;
        self.publish_ns += other.publish_ns;
        self.snapshot_calls += other.snapshot_calls;
        self.snapshot_ns += other.snapshot_ns;
        self.merge_ms.extend(&other.merge_ms);
        self.pool_capacity_ns += other.pool_capacity_ns;
        self.pass_capacity_ns += other.pass_capacity_ns;
        self.job_total_ns += other.job_total_ns;
    }
}

fn machine_config(spec: &MachineSpec, limit: u64) -> RunConfig {
    RunConfig {
        do_config: fleet_do_config(),
        instruction_limit: Some(limit),
        workload_seed: Some(spec.seed),
        ..RunConfig::default()
    }
}

/// Times one fleet machine's set-up from nothing to its first
/// instruction: a fresh store opened in `dir` and snapshotted, the
/// preset resolved, the warm-started manager, machine, DO system and
/// executor built.
///
/// # Errors
///
/// Any store or workload failure.
pub fn time_setup(spec: &MachineSpec, limit: u64, dir: &Path) -> BenchResult<Duration> {
    let start = Instant::now();
    let store = fresh_store(dir)?;
    let mut prepared = workload::prepare(&spec.preset, FLEET_SCHEME, machine_config(spec, limit))
        .map_err(BenchError::msg)?;
    attach(&mut prepared, store.snapshot())?;
    let parts = crate::layers::prepare(&prepared.program, &prepared.cfg)
        .map_err(|e| BenchError::msg(e.to_string()))?;
    let elapsed = start.elapsed();
    std::hint::black_box(&parts);
    Ok(elapsed)
}

fn attach(prepared: &mut workload::Prepared, snapshot: WarmStartContext) -> BenchResult<()> {
    prepared
        .manager
        .warm_start()
        .ok_or_else(|| {
            BenchError::msg(format!(
                "fleet scheme {FLEET_SCHEME:?} does not support warm starts"
            ))
        })?
        .set_warm_start(snapshot);
    Ok(())
}

/// What one traced machine job hands back to the wave merge.
struct JobProduct {
    machine: MachineOutcome,
    publications: Vec<StorePublication>,
    managed: (Finished, LayerTimes),
    baseline: Option<(Finished, LayerTimes)>,
    /// Job and managed-leg spans, as offsets from the span log's epoch.
    span: (Duration, Duration),
    leg_span: (Duration, Duration),
}

/// One traced machine: the `run_fleet` machine recipe (a warm-started
/// hotspot leg, then the optional baseline leg for energy accounting)
/// with both legs through the sampled driver loop.
fn run_machine(
    spec: &MachineSpec,
    snapshot: WarmStartContext,
    limit: u64,
    measure_baseline: bool,
    epoch: Instant,
) -> BenchResult<JobProduct> {
    let job_start = epoch.elapsed();
    let mut prepared = workload::prepare(&spec.preset, FLEET_SCHEME, machine_config(spec, limit))
        .map_err(BenchError::msg)?;
    attach(&mut prepared, snapshot)?;
    let leg_start = epoch.elapsed();
    let (record, times) =
        crate::layers::run_sampled(&prepared.program, &prepared.cfg, &mut *prepared.manager)
            .map_err(|e| BenchError::msg(e.to_string()))?;
    let leg_end = epoch.elapsed();
    let report = prepared.manager.scheme_report(&record);
    let publications = prepared
        .manager
        .warm_start()
        .and_then(|ws| ws.take_warm_start())
        .map(WarmStartContext::into_publications)
        .unwrap_or_default();
    let baseline = if measure_baseline {
        let (base, base_times) =
            crate::layers::run_sampled(&prepared.program, &prepared.cfg, &mut NullManager)
                .map_err(|e| BenchError::msg(e.to_string()))?;
        let base_report = ace_core::SchemeManager::scheme_report(&NullManager, &base);
        Some((
            Finished {
                record: base,
                report: base_report,
            },
            base_times,
        ))
    } else {
        None
    };
    let machine = MachineOutcome {
        ipc: record.ipc,
        instret: record.instret,
        l1d_nj: record.energy.l1d_nj,
        l2_nj: record.energy.l2_nj,
        baseline: baseline
            .as_ref()
            .map(|(b, _)| (b.record.ipc, b.record.energy.l1d_nj, b.record.energy.l2_nj)),
        tunings: report.tunings,
        tuned_hotspots: report.tuned_scopes,
        warm_hits: report.warm_hits,
        warm_misses: report.warm_misses,
        warm_trials_saved: report.warm_trials_saved,
        store_publishes: report.store_publishes,
        spec: spec.clone(),
    };
    Ok(JobProduct {
        machine,
        publications,
        managed: (Finished { record, report }, times),
        baseline,
        span: (job_start, epoch.elapsed()),
        leg_span: (leg_start, leg_end),
    })
}

/// One traced pass: the `run_fleet` wave loop (frozen snapshot per wave,
/// machine jobs on `run_jobs`, publication merge in machine-index order)
/// at one machine per job, recording engine, store and wave timings into
/// `trace` and coarse spans into `log` under `parent`.
///
/// # Errors
///
/// Fails on a store registry-version mismatch, an empty config, or any
/// machine failure.
pub fn run_pass_traced(
    cfg: &FleetConfig,
    store: &mut TuningStore,
    jobs: usize,
    trace: &mut FleetTrace,
    log: &mut SpanLog,
    parent: usize,
) -> BenchResult<FleetOutcome> {
    if store.version() != fleet_registry_version() {
        return Err(BenchError::msg(
            "store registry version does not match the fleet's",
        ));
    }
    if cfg.presets.is_empty() || cfg.machines == 0 || cfg.wave_size == 0 {
        return Err(BenchError::msg(
            "fleet config needs at least one preset, one machine, and a positive wave size",
        ));
    }
    let pass_start = Instant::now();
    let epoch = log.epoch();
    let mut outcome = FleetOutcome {
        schema_version: FLEET_SCHEMA_VERSION,
        machines: Vec::with_capacity(cfg.machines),
        shed: 0,
        waves: 0,
        wall: Duration::ZERO,
    };
    let mut width_used = 1;
    for wave in cfg.machine_specs().chunks(cfg.wave_size) {
        outcome.waves += 1;
        let admitted = &wave[..cfg.admit_limit.max(1).min(wave.len())];
        outcome.shed += (wave.len() - admitted.len()) as u64;
        let wave_span = log.open("wave", parent, format!("wave {}", outcome.waves));

        let t = Instant::now();
        let snapshot = store.snapshot();
        trace.snapshot_ns += t.elapsed().as_nanos() as f64;
        trace.snapshot_calls += 1;

        let pool: Vec<Job<JobProduct>> = admitted
            .iter()
            .map(|spec| {
                let spec = spec.clone();
                let snapshot = snapshot.clone();
                let (limit, baseline) = (cfg.instruction_limit, cfg.measure_baseline);
                let key = format!("m{}/{}#{}", spec.index, spec.preset, spec.seed);
                Job::new(key, move |_| {
                    run_machine(&spec, snapshot, limit, baseline, epoch)
                })
            })
            .collect();
        let width = jobs.max(1).min(pool.len());
        width_used = width_used.max(width);
        let pool_start = Instant::now();
        let done = run_jobs(pool, width, &Telemetry::off());
        trace.pool_capacity_ns += (width as u128 * pool_start.elapsed().as_nanos()) as f64;

        let merge_start = Instant::now();
        for job in done {
            let product = job.result?;
            trace.job_ms.push(job.wall.as_secs_f64() * 1e3);
            trace.queue_wait_ms.push(job.queue_wait.as_secs_f64() * 1e3);
            trace.job_total_ns += job.wall.as_nanos() as f64;
            let (leg_start, leg_end) = product.leg_span;
            trace
                .machine_ms
                .push((leg_end - leg_start).as_secs_f64() * 1e3);
            let job_span = log.push(SpanRecord::new("job", wave_span, job.key, product.span));
            log.push(SpanRecord::new(
                "machine",
                job_span,
                product.machine.spec.preset.clone(),
                product.leg_span,
            ));
            for publication in product.publications {
                let start = epoch.elapsed();
                let t = Instant::now();
                store.publish(publication)?;
                trace.publish_ns += t.elapsed().as_nanos() as f64;
                trace.publish_calls += 1;
                log.push(SpanRecord::new(
                    "publish",
                    wave_span,
                    String::new(),
                    (start, epoch.elapsed()),
                ));
            }
            trace.managed_legs.push(product.managed);
            trace.baseline_legs.extend(product.baseline);
            outcome.machines.push(product.machine);
        }
        trace
            .merge_ms
            .push(merge_start.elapsed().as_secs_f64() * 1e3);
        log.close(wave_span);
    }
    trace.pass_capacity_ns += (width_used as u128 * pass_start.elapsed().as_nanos()) as f64;
    Ok(outcome)
}
