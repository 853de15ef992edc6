//! The run driver: couples a workload executor, the DO system, the
//! simulated machine, and an ACE manager into one complete run.
//!
//! Every experiment in the evaluation is one or more
//! [`crate::Experiment`] runs through this driver: the baseline uses
//! [`crate::NullManager`], the
//! paper's scheme [`crate::HotspotAceManager`], the temporal baseline
//! [`crate::BbvAceManager`], and the ablations [`crate::FixedManager`].
//!
//! One step loop ([`run`]) serves both threading models. It is generic
//! over where its steps come from: [`SingleThread`] steps the program's
//! own executor, [`Threads`] time-multiplexes one executor per thread
//! over the one simulated core. The source is a type parameter, so each
//! compiles to its own loop without dynamic dispatch.
//!
//! The loop feeds every step to one or more *legs*, each its own
//! machine, DO system, manager and telemetry handle. The step stream is
//! a pure function of program, seed, instruction limit and threading,
//! so runs that agree on those (a scheme and its baseline) execute in
//! lockstep off one source instead of generating the stream once each.
//! A single run is the one-leg case.

use crate::manager::AceManager;
use ace_energy::{EnergyBreakdown, EnergyModel};
use ace_runtime::{DoConfig, DoStats, DoSystem, Table4Row};
use ace_sim::{Block, ConfigError, Machine, MachineConfig, MachineCounters};
use ace_telemetry::Telemetry;
use ace_workloads::{Executor, MethodId, MtStep, Program, Step, ThreadedExecutor};
use serde::{Deserialize, Serialize};

/// Parameters of one run.
#[derive(Debug, Clone, Default)]
pub struct RunConfig {
    /// Machine configuration (Table 2 defaults).
    pub machine: MachineConfig,
    /// DO-system configuration.
    pub do_config: DoConfig,
    /// Energy model used for the run record (managers carry their own).
    pub energy: EnergyModel,
    /// Optional dynamic-instruction cap.
    pub instruction_limit: Option<u64>,
    /// Overrides the program's own executor seed (sensitivity studies).
    pub workload_seed: Option<u64>,
    /// Observability handle handed to the DO system and the manager; a
    /// shared run replays each scheme's events into it in scheme order
    /// ([`crate::Experiment::run_schemes`]). Defaults to
    /// [`Telemetry::off`], which costs one never-taken branch per decision
    /// point.
    pub telemetry: Telemetry,
}

/// The outcome of one run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// Instructions retired.
    pub instret: u64,
    /// Cycles elapsed.
    pub cycles: u64,
    /// Instructions per cycle.
    pub ipc: f64,
    /// Configurable-cache energy totals.
    pub energy: EnergyBreakdown,
    /// Hotspot detection summary (Table 4).
    pub table4: Table4Row,
    /// DO-system statistics.
    pub do_stats: DoStats,
    /// Full machine counters (for downstream analysis).
    pub counters: MachineCounters,
}

impl RunRecord {
    /// Relative slowdown of this run versus `baseline` (positive = slower).
    pub fn slowdown_vs(&self, baseline: &RunRecord) -> f64 {
        if baseline.ipc == 0.0 {
            return 0.0;
        }
        1.0 - self.ipc / baseline.ipc
    }

    /// Fractional total energy saving versus `baseline`.
    pub fn saving_vs(&self, baseline: &RunRecord) -> f64 {
        saving(self.energy.total_nj(), baseline.energy.total_nj())
    }

    /// Fractional L1D energy saving versus `baseline`.
    pub fn l1d_saving_vs(&self, baseline: &RunRecord) -> f64 {
        saving(self.energy.l1d_nj, baseline.energy.l1d_nj)
    }

    /// Fractional L2 energy saving versus `baseline`.
    pub fn l2_saving_vs(&self, baseline: &RunRecord) -> f64 {
        saving(self.energy.l2_nj, baseline.energy.l2_nj)
    }
}

/// Publishes the executor's per-walk-kind block counts as metrics
/// counters (`workload.walk_blocks.<kind>`). The same profile drives the
/// hot-first ordering of the walk dispatch in `ace_workloads::Executor`;
/// exporting it makes the measured mix inspectable from any metrics dump.
fn publish_walk_profile(telemetry: &Telemetry, profile: [u64; 4]) {
    if let Some(metrics) = telemetry.metrics() {
        for (name, count) in ace_workloads::WALK_KIND_NAMES.iter().zip(profile) {
            if count > 0 {
                metrics
                    .counter(&format!("workload.walk_blocks.{name}"))
                    .add(count);
            }
        }
    }
}

fn saving(ours: f64, base: f64) -> f64 {
    if base <= 0.0 {
        0.0
    } else {
        1.0 - ours / base
    }
}

/// One run fed by the shared step stream: its own machine, DO system,
/// manager and telemetry handle.
pub(crate) struct Leg<'p, 'm, M: ?Sized> {
    machine: Machine,
    dos: DoSystem<'p>,
    manager: &'m mut M,
    telemetry: Telemetry,
}

/// The legs of one run. The first leg is held apart from the rest, so a
/// one-leg run keeps its machine in the loop's own frame and visits no
/// slice.
pub(crate) struct Legs<'p, 'm, M: ?Sized> {
    first: Leg<'p, 'm, M>,
    rest: Vec<Leg<'p, 'm, M>>,
}

impl<'p, 'm, M: ?Sized> Legs<'p, 'm, M> {
    /// Calls `f` on every leg, first to last.
    #[inline(always)]
    fn each(&mut self, mut f: impl FnMut(&mut Leg<'p, 'm, M>)) {
        f(&mut self.first);
        for leg in &mut self.rest {
            f(leg);
        }
    }

    /// Instructions retired so far, equal in every leg.
    #[inline]
    fn instret(&self) -> u64 {
        self.first.machine.instret()
    }
}

/// Where a run's steps come from.
pub(crate) trait StepSource<'p> {
    /// The next step; `buf` holds the block on [`Step::Block`]. A source
    /// may act on every leg's machine and DO system between the steps it
    /// returns (the scheduler switches of [`Threads`]).
    fn step<M: AceManager + ?Sized>(&mut self, buf: &mut Block, legs: &mut Legs<'p, '_, M>)
        -> Step;

    /// Blocks emitted per walk kind, summed over threads.
    fn walk_profile(&self) -> [u64; 4];

    /// The workload name the run record carries.
    fn workload(&self, program: &Program) -> String;
}

/// A single-threaded run: the program's own executor. At the
/// instruction limit it unwinds through the open exits.
pub(crate) struct SingleThread<'p> {
    exec: Executor<'p>,
}

impl<'p> SingleThread<'p> {
    pub(crate) fn new(program: &'p Program, cfg: &RunConfig) -> SingleThread<'p> {
        let mut exec = match cfg.workload_seed {
            Some(seed) => Executor::with_seed(program, seed),
            None => Executor::new(program),
        };
        if let Some(limit) = cfg.instruction_limit {
            exec.set_instruction_limit(limit);
        }
        SingleThread { exec }
    }
}

impl<'p> StepSource<'p> for SingleThread<'p> {
    #[inline]
    fn step<M: AceManager + ?Sized>(&mut self, buf: &mut Block, _: &mut Legs<'p, '_, M>) -> Step {
        self.exec.step(buf)
    }

    fn walk_profile(&self) -> [u64; 4] {
        self.exec.walk_profile()
    }

    fn workload(&self, program: &Program) -> String {
        program.name().to_string()
    }
}

/// A multithreaded run: one executor per entry method (disjoint method
/// subtrees), time-multiplexed in fixed instruction quanta over the one
/// simulated core — the Dynamic SimpleScalar threading model, used by
/// the dual-threaded mtrt experiment. The run stops as soon as the
/// machine reaches the instruction limit, without unwinding.
pub(crate) struct Threads<'p> {
    mt: ThreadedExecutor<'p>,
    limit: Option<u64>,
}

impl<'p> Threads<'p> {
    /// One executor per entry; thread `i` runs on the run's executor
    /// seed xor `i + 1`.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty or `quantum_instr` is zero;
    /// [`crate::Experiment`] rejects both before it builds a source.
    pub(crate) fn new(
        program: &'p Program,
        entries: &[MethodId],
        quantum_instr: u64,
        cfg: &RunConfig,
    ) -> Threads<'p> {
        let threads = entries
            .iter()
            .enumerate()
            .map(|(i, &entry)| {
                let seed = cfg.workload_seed.unwrap_or(program.seed()) ^ (i as u64 + 1);
                Executor::with_entry(program, entry, seed)
            })
            .collect();
        Threads {
            mt: ThreadedExecutor::new(threads, quantum_instr),
            limit: cfg.instruction_limit,
        }
    }
}

impl<'p> StepSource<'p> for Threads<'p> {
    fn step<M: AceManager + ?Sized>(
        &mut self,
        buf: &mut Block,
        legs: &mut Legs<'p, '_, M>,
    ) -> Step {
        if self.limit.is_some_and(|limit| legs.instret() >= limit) {
            return Step::Done;
        }
        match self.mt.step(buf) {
            MtStep::Block(_) => Step::Block,
            MtStep::Switch(tid) => {
                legs.each(|leg| {
                    leg.dos.on_thread_switch(tid.0, &leg.machine);
                    // A context switch drains the pipeline and touches the
                    // scheduler's state: a small fixed cost. The switch
                    // itself is not a step; the switched-to thread's first
                    // step is.
                    leg.machine.add_overhead_cycles(200);
                });
                self.step(buf, legs)
            }
            MtStep::Enter(_, m) => Step::Enter(m),
            MtStep::Exit(_, m) => Step::Exit(m),
            MtStep::Done => Step::Done,
        }
    }

    fn walk_profile(&self) -> [u64; 4] {
        self.mt.walk_profile()
    }

    fn workload(&self, program: &Program) -> String {
        format!("{}({}T)", program.name(), self.mt.thread_count())
    }
}

/// Runs `program` once per leg, every leg fed the same steps from
/// `source`. Each leg pairs a manager with the run configuration its
/// machine, DO system and energy pricing come from (`source` was built
/// from the seed and limit, so those fields are not read here) and the
/// telemetry handle its DO system and manager trace into; the records
/// come back in leg order. No leg, no run: an empty `legs` returns no
/// records.
///
/// # Errors
///
/// Returns [`ConfigError`] if a leg's machine configuration is invalid.
pub(crate) fn run<'p, 'm, 'c, S, M>(
    program: &'p Program,
    legs: impl IntoIterator<Item = (&'m mut M, &'c RunConfig, Telemetry)>,
    mut source: S,
) -> Result<Vec<RunRecord>, ConfigError>
where
    S: StepSource<'p>,
    M: AceManager + ?Sized + 'm,
{
    let mut models = Vec::new();
    let mut rest = legs
        .into_iter()
        .map(|(manager, cfg, telemetry)| {
            let machine = Machine::new(cfg.machine.clone())?;
            let mut dos = DoSystem::new(program, cfg.do_config.clone());
            dos.set_telemetry(telemetry.clone());
            manager.set_telemetry(telemetry.clone());
            models.push(cfg.energy);
            Ok(Leg {
                machine,
                dos,
                manager,
                telemetry,
            })
        })
        .collect::<Result<Vec<_>, ConfigError>>()?;
    if rest.is_empty() {
        return Ok(Vec::new());
    }
    let mut legs = Legs {
        first: rest.remove(0),
        rest,
    };
    let mut run_timers = Vec::new();
    legs.each(|leg| run_timers.extend(leg.telemetry.metrics().map(|m| m.timer("run_wall_ms"))));
    let mut buf = Block::with_capacity(64);

    legs.each(|leg| leg.manager.on_start(&mut leg.machine));
    loop {
        match source.step(&mut buf, &mut legs) {
            Step::Block => legs.each(|leg| {
                leg.machine.exec_block(&buf);
                leg.manager.on_block(&buf, &mut leg.machine);
            }),
            Step::Enter(m) => legs.each(|leg| {
                leg.manager.on_method_enter(m, &mut leg.machine);
                let event = leg.dos.on_enter(m, &mut leg.machine);
                leg.manager.on_event(event, &mut leg.machine);
            }),
            Step::Exit(m) => {
                // Every leg's DO system sees the same steps, so the first
                // leg's sizes the invocation for all of them, on the
                // exiting thread's own clock.
                let first = &legs.first;
                let invocation_instr = first.dos.open_frame_instr(&first.machine);
                legs.each(|leg| {
                    leg.manager
                        .on_method_exit(m, invocation_instr, &mut leg.machine);
                    let event = leg.dos.on_exit(m, &mut leg.machine);
                    leg.manager.on_event(event, &mut leg.machine);
                });
            }
            Step::Done => break,
        }
    }

    let walk_profile = source.walk_profile();
    let workload = source.workload(program);
    let Legs { first, rest } = legs;
    Ok(std::iter::once(first)
        .chain(rest)
        .zip(models)
        .map(|(mut leg, model)| {
            leg.manager.on_finish(&mut leg.machine);
            publish_walk_profile(&leg.telemetry, walk_profile);
            let counters = leg.machine.counters().clone();
            RunRecord {
                workload: workload.clone(),
                instret: counters.instret,
                cycles: counters.cycles,
                ipc: counters.ipc(),
                energy: model.breakdown(&counters),
                table4: leg.dos.table4_summary(counters.instret),
                do_stats: *leg.dos.stats(),
                counters,
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::{FixedManager, NullManager};
    use crate::AceConfig;
    use ace_sim::SizeLevel;

    fn small_cfg(limit: u64) -> RunConfig {
        RunConfig {
            instruction_limit: Some(limit),
            ..RunConfig::default()
        }
    }

    fn run_single<M: AceManager>(
        program: &Program,
        cfg: &RunConfig,
        manager: &mut M,
    ) -> Result<RunRecord, ConfigError> {
        let legs = [(manager, cfg, cfg.telemetry.clone())];
        let mut records = run(program, legs, SingleThread::new(program, cfg))?;
        Ok(records.pop().expect("one record per leg"))
    }

    #[test]
    fn baseline_run_produces_sane_record() {
        let p = ace_workloads::preset("compress").unwrap();
        let r = run_single(&p, &small_cfg(3_000_000), &mut NullManager).unwrap();
        assert!(r.instret >= 3_000_000);
        assert!(r.ipc > 0.5 && r.ipc < 4.0, "ipc {}", r.ipc);
        assert!(r.energy.total_nj() > 0.0);
        assert_eq!(r.workload, "compress");
    }

    #[test]
    fn deterministic_records() {
        let p = ace_workloads::preset("jess").unwrap();
        let a = run_single(&p, &small_cfg(2_000_000), &mut NullManager).unwrap();
        let b = run_single(&p, &small_cfg(2_000_000), &mut NullManager).unwrap();
        assert_eq!(a.instret, b.instret);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.counters, b.counters);
    }

    #[test]
    fn smaller_fixed_config_uses_less_energy_on_db() {
        // db's working sets are tiny; pinning small caches must save energy
        // with modest slowdown.
        let p = ace_workloads::preset("db").unwrap();
        let base = run_single(&p, &small_cfg(5_000_000), &mut NullManager).unwrap();
        let mut small = FixedManager::new(AceConfig::both(
            SizeLevel::new(3).unwrap(),
            SizeLevel::new(2).unwrap(),
        ));
        let r = run_single(&p, &small_cfg(5_000_000), &mut small).unwrap();
        assert!(
            r.l1d_saving_vs(&base) > 0.3,
            "L1D saving {:.3}",
            r.l1d_saving_vs(&base)
        );
        assert!(
            r.l2_saving_vs(&base) > 0.3,
            "L2 saving {:.3}",
            r.l2_saving_vs(&base)
        );
        assert!(
            r.slowdown_vs(&base) < 0.10,
            "slowdown {:.3}",
            r.slowdown_vs(&base)
        );
    }

    #[test]
    fn slowdown_sign_convention() {
        let p = ace_workloads::preset("db").unwrap();
        let base = run_single(&p, &small_cfg(1_000_000), &mut NullManager).unwrap();
        assert_eq!(base.slowdown_vs(&base), 0.0);
    }
}
