//! The sampled driver loop: a replica of the run driver
//! (`ace_core`'s `run_with_manager_impl`) built only from public API,
//! which counts every call into each layer and times one step in
//! [`SAMPLE_EVERY`] from outside.
//!
//! Layers are named after the crates they live in:
//!
//! * `workloads` — [`Executor::step`],
//! * `sim` — [`Machine::exec_block`],
//! * `runtime` — [`DoSystem::on_enter`] / [`DoSystem::on_exit`],
//! * `core` — every `AceManager` hook of the run's scheme manager,
//! * `driver` — what a step costs beyond its layer calls.
//!
//! Sampled steps alternate between two kinds. A *span* step times each
//! layer call inside it (child spans); an *outer* step times only the
//! whole iteration. Both kinds are drawn at random from the same steps,
//! so the mean outer step is the mean step cost, the mean child spans
//! split it by layer, and `driver` is the remainder. Timing children
//! never inflates the outer readings, and each reading carries exactly
//! one timer read, which is subtracted: every span step also times one
//! empty span, so the read cost is measured under the same conditions
//! as the spans it corrects.

use ace_core::{AceManager, RunConfig, RunRecord};
use ace_runtime::DoSystem;
use ace_sim::{Block, ConfigError, Machine};
use ace_workloads::{Executor, Program, Step};
use std::time::Instant;

/// One loop iteration in this many (on average) is timed.
pub const SAMPLE_EVERY: u64 = 128;

/// Seed of the xorshift generator that picks the sampled steps: random
/// gaps cannot alias with the workloads' loop periods the way a fixed
/// every-128th-step pick could.
const SAMPLER_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// Index of the `workloads` layer in per-layer arrays.
pub const WORKLOADS: usize = 0;
/// Index of the `sim` layer.
pub const SIM: usize = 1;
/// Index of the `runtime` layer.
pub const RUNTIME: usize = 2;
/// Index of the `core` layer.
pub const CORE: usize = 3;

/// Per-layer call counts and sampled timings of one or more runs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTimes {
    /// `Executor::step` calls.
    pub steps: u64,
    /// `Step::Enter` results: method calls.
    pub enters: u64,
    /// `Machine::exec_block` calls.
    pub blocks: u64,
    /// `DoSystem::on_enter` + `on_exit` calls.
    pub runtime_calls: u64,
    /// Manager hook calls (`on_start`, `on_block`, `on_method_enter`,
    /// `on_method_exit`, `on_event`, `on_finish`).
    pub hook_calls: u64,
    /// Span steps: sampled steps whose layer calls were timed.
    pub span_steps: u64,
    /// Raw child-span nanoseconds per layer, indexed by [`WORKLOADS`] ..
    /// [`CORE`].
    pub span_ns: [f64; 4],
    /// Child spans timed per layer.
    pub spans: [u64; 4],
    /// Outer steps: sampled steps timed as a whole.
    pub outer_steps: u64,
    /// Raw nanoseconds of the outer steps.
    pub outer_ns: f64,
    /// Empty spans timed (one per span step) and their total, ns: the
    /// timer's own read cost.
    pub empty_spans: u64,
    /// See [`LayerTimes::empty_spans`].
    pub empty_ns: f64,
}

/// Mean host time per loop iteration, split by layer, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PerStep {
    /// Per layer, indexed like [`LayerTimes::span_ns`].
    pub layer_ns: [f64; 4],
    /// What the step costs beyond its layer calls.
    pub driver_ns: f64,
}

impl PerStep {
    /// The mean step: all parts together.
    pub fn total(&self) -> f64 {
        self.layer_ns.iter().sum::<f64>() + self.driver_ns
    }
}

impl LayerTimes {
    /// Adds `other`'s counts and times into `self`.
    pub fn absorb(&mut self, other: &LayerTimes) {
        self.steps += other.steps;
        self.enters += other.enters;
        self.blocks += other.blocks;
        self.runtime_calls += other.runtime_calls;
        self.hook_calls += other.hook_calls;
        self.span_steps += other.span_steps;
        for i in 0..4 {
            self.span_ns[i] += other.span_ns[i];
            self.spans[i] += other.spans[i];
        }
        self.outer_steps += other.outer_steps;
        self.outer_ns += other.outer_ns;
        self.empty_spans += other.empty_spans;
        self.empty_ns += other.empty_ns;
    }

    /// Mean reading of an empty span: the cost of one timer read, ns.
    pub fn read_ns(&self) -> f64 {
        self.empty_ns / self.empty_spans.max(1) as f64
    }

    /// `layer`'s child-span time with one timer read (`read_ns`)
    /// subtracted per span, summed.
    pub fn layer_ns(&self, layer: usize, read_ns: f64) -> f64 {
        self.span_ns[layer] - self.spans[layer] as f64 * read_ns
    }

    /// Mean cost per step by layer; `driver` is the mean outer step (less
    /// its timer read) minus the layers, so the parts sum to it exactly.
    pub fn per_step(&self) -> PerStep {
        let read_ns = self.read_ns();
        let span_steps = self.span_steps.max(1) as f64;
        let mut layer_ns = [0.0; 4];
        for (i, ns) in layer_ns.iter_mut().enumerate() {
            *ns = self.layer_ns(i, read_ns) / span_steps;
        }
        let step = self.outer_ns / self.outer_steps.max(1) as f64 - read_ns;
        PerStep {
            layer_ns,
            driver_ns: step - layer_ns.iter().sum::<f64>(),
        }
    }
}

/// Times the layer calls of a step, or (unsampled steps) does nothing.
trait Clock {
    fn span<R>(&mut self, layer: usize, f: impl FnOnce() -> R) -> R;
}

/// The clock of unsampled and outer steps: no child timing.
struct Off;

impl Clock for Off {
    #[inline(always)]
    fn span<R>(&mut self, _layer: usize, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// The clock of span steps: each layer call adds to its layer.
struct On<'t>(&'t mut LayerTimes);

impl On<'_> {
    /// Times one empty span: a sample of the read cost.
    #[inline(always)]
    fn empty_span(&mut self) {
        let start = Instant::now();
        std::hint::black_box(());
        self.0.empty_ns += start.elapsed().as_nanos() as f64;
        self.0.empty_spans += 1;
    }
}

impl Clock for On<'_> {
    #[inline(always)]
    fn span<R>(&mut self, layer: usize, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.0.span_ns[layer] += start.elapsed().as_nanos() as f64;
        self.0.spans[layer] += 1;
        r
    }
}

/// Gaps between sampled steps: uniform on `1..2 * SAMPLE_EVERY` (mean
/// [`SAMPLE_EVERY`]) from a fixed-seed xorshift, so unsampled steps pay
/// only a countdown.
struct Gaps(u64);

impl Gaps {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        1 + x % (2 * SAMPLE_EVERY - 1)
    }
}

/// Everything a run constructs before its first simulated instruction,
/// once the program and manager exist: the machine, the DO system and
/// the executor, built exactly as the run driver builds them.
///
/// # Errors
///
/// Returns [`ConfigError`] if the machine configuration is invalid.
pub fn prepare<'p>(
    program: &'p Program,
    cfg: &RunConfig,
) -> Result<(Machine, DoSystem<'p>, Executor<'p>), ConfigError> {
    let machine = Machine::new(cfg.machine.clone())?;
    let mut dos = DoSystem::new(program, cfg.do_config.clone());
    dos.set_telemetry(cfg.telemetry.clone());
    let mut exec = match cfg.workload_seed {
        Some(seed) => Executor::with_seed(program, seed),
        None => Executor::new(program),
    };
    if let Some(limit) = cfg.instruction_limit {
        exec.set_instruction_limit(limit);
    }
    Ok((machine, dos, exec))
}

/// The run driver's loop state, advanced one iteration at a time.
struct Driver<'p, 'm, M: AceManager + ?Sized> {
    exec: Executor<'p>,
    machine: Machine,
    dos: DoSystem<'p>,
    manager: &'m mut M,
    buf: Block,
    /// Entry instret per live frame, for raw method-exit sizes.
    entry_stack: Vec<u64>,
    blocks: u64,
    enters: u64,
    exits: u64,
}

impl<M: AceManager + ?Sized> Driver<'_, '_, M> {
    /// One iteration of the run driver's loop, with `clock` timing the
    /// calls into each layer; false once the program is done.
    #[inline(always)]
    fn step<C: Clock>(&mut self, clock: &mut C) -> bool {
        let Driver {
            exec,
            machine,
            dos,
            manager,
            buf,
            entry_stack,
            blocks,
            enters,
            exits,
        } = self;
        match clock.span(WORKLOADS, || exec.step(buf)) {
            Step::Block => {
                clock.span(SIM, || machine.exec_block(buf));
                clock.span(CORE, || manager.on_block(buf, machine));
                *blocks += 1;
            }
            Step::Enter(m) => {
                entry_stack.push(machine.instret());
                clock.span(CORE, || manager.on_method_enter(m, machine));
                let event = clock.span(RUNTIME, || dos.on_enter(m, machine));
                clock.span(CORE, || manager.on_event(event, machine));
                *enters += 1;
            }
            Step::Exit(m) => {
                let entered = entry_stack.pop().unwrap_or(0);
                let size = machine.instret() - entered;
                clock.span(CORE, || manager.on_method_exit(m, size, machine));
                let event = clock.span(RUNTIME, || dos.on_exit(m, machine));
                clock.span(CORE, || manager.on_event(event, machine));
                *exits += 1;
            }
            Step::Done => return false,
        }
        true
    }
}

/// Runs `program` under `manager` through the sampled replica of the run
/// driver and returns the [`RunRecord`] the driver would, plus the layer
/// accounting. Like the driver it is generic over the manager, so a
/// caller that passes a concrete manager gets the same static dispatch
/// the program's own callers get.
///
/// # Errors
///
/// Returns [`ConfigError`] if the machine configuration is invalid.
pub fn run_sampled<M: AceManager + ?Sized>(
    program: &Program,
    cfg: &RunConfig,
    manager: &mut M,
) -> Result<(RunRecord, LayerTimes), ConfigError> {
    let (machine, dos, exec) = prepare(program, cfg)?;
    manager.set_telemetry(cfg.telemetry.clone());
    let mut d = Driver {
        exec,
        machine,
        dos,
        manager,
        buf: Block::with_capacity(64),
        entry_stack: Vec::with_capacity(64),
        blocks: 0,
        enters: 0,
        exits: 0,
    };
    let mut times = LayerTimes::default();
    let mut gaps = Gaps(SAMPLER_SEED);
    let mut until_sample = gaps.next();
    let mut span_step = true;

    d.manager.on_start(&mut d.machine);
    loop {
        until_sample -= 1;
        let more = if until_sample > 0 {
            d.step(&mut Off)
        } else if span_step {
            until_sample = gaps.next();
            span_step = false;
            times.span_steps += 1;
            let mut clock = On(&mut times);
            clock.empty_span();
            d.step(&mut clock)
        } else {
            until_sample = gaps.next();
            span_step = true;
            let start = Instant::now();
            let more = d.step(&mut Off);
            times.outer_ns += start.elapsed().as_nanos() as f64;
            times.outer_steps += 1;
            more
        };
        if !more {
            break;
        }
    }
    d.manager.on_finish(&mut d.machine);

    // Every loop iteration is one step (the last returned `Done`); each
    // enter and exit is one DO-system call and two manager hooks, each
    // block one hook; on_start and on_finish are two more.
    times.blocks = d.blocks;
    times.enters = d.enters;
    times.steps = d.blocks + d.enters + d.exits + 1;
    times.runtime_calls = d.enters + d.exits;
    times.hook_calls = d.blocks + 2 * (d.enters + d.exits) + 2;

    let counters = d.machine.counters().clone();
    let record = RunRecord {
        workload: program.name().to_string(),
        instret: counters.instret,
        cycles: counters.cycles,
        ipc: counters.ipc(),
        energy: cfg.energy.breakdown(&counters),
        table4: d.dos.table4_summary(counters.instret),
        do_stats: *d.dos.stats(),
        counters,
    };
    Ok((record, times))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_step_parts_sum_to_the_mean_outer_step() {
        let t = LayerTimes {
            span_steps: 10,
            spans: [10, 10, 2, 8],
            span_ns: [1_000.0, 3_000.0, 500.0, 500.0],
            outer_steps: 20,
            outer_ns: 12_000.0,
            empty_spans: 10,
            empty_ns: 200.0,
            ..LayerTimes::default()
        };
        assert_eq!(t.read_ns(), 20.0);
        let p = t.per_step();
        assert_eq!(p.layer_ns, [80.0, 280.0, 46.0, 34.0]);
        let step = 12_000.0 / 20.0 - 20.0;
        assert!((p.total() - step).abs() < 1e-9, "{p:?}");
        assert!((p.driver_ns - (step - 440.0)).abs() < 1e-9, "{p:?}");
    }

    #[test]
    fn sampled_run_counts_every_call_and_calibrates_its_reads() {
        let program = ace_workloads::preset("check").unwrap();
        let cfg = RunConfig {
            instruction_limit: Some(300_000),
            ..RunConfig::default()
        };
        let (record, t) = run_sampled(&program, &cfg, &mut ace_core::NullManager).unwrap();
        assert!(record.instret >= 300_000);
        assert_eq!(t.steps, t.blocks + t.runtime_calls + 1);
        assert_eq!(
            t.spans[WORKLOADS], t.span_steps,
            "one step span per span step"
        );
        assert!(t.span_steps > 0 && t.outer_steps > 0);
        assert_eq!(t.empty_spans, t.span_steps);
        let read = t.read_ns();
        assert!(read > 0.0 && read < 10_000.0, "timer read {read} ns");
    }

    #[test]
    fn sampled_gaps_average_sample_every() {
        let mut gaps = Gaps(SAMPLER_SEED);
        let n = 10_000;
        let drawn: Vec<u64> = (0..n).map(|_| gaps.next()).collect();
        assert!(drawn.iter().all(|&g| (1..2 * SAMPLE_EVERY).contains(&g)));
        let mean = drawn.iter().sum::<u64>() as f64 / n as f64;
        assert!((mean / SAMPLE_EVERY as f64 - 1.0).abs() < 0.05, "{mean}");
    }
}
