//! The dynamic optimization system (Jikes RVM substitute).
//!
//! Implements the detection pipeline of Figure 2: count invocations of
//! baseline-compiled methods; promote a method once it has been invoked
//! `hot_threshold` times (charging a modeled JIT compilation cost); measure
//! its inclusive dynamic size over a few *probing* invocations; classify it
//! as an L1D hotspot, an L2 hotspot, or too small to adapt anything; and
//! from then on report hotspot entry/exit events so the ACE manager can run
//! tuning code (and later configuration code) at its boundaries.
//!
//! The real Jikes RVM samples the running method every ~10 ms instead of
//! counting every invocation; at our ~100× scaled-down run lengths, exact
//! counting with a proportionally scaled `hot_threshold` (5 instead of the
//! ≈30 the paper's Table 4 implies) reproduces the same identification
//! latency fractions.

use crate::database::{DoDatabase, HotspotClass, MethodState};
use ace_sim::{CuId, CuRegistry, Machine};
use ace_workloads::{MethodId, Program};
use serde::{Deserialize, Serialize};

/// One configurable unit's hotspot grain: the smallest average inclusive
/// invocation size the unit is worth adapting for (the paper's size-class
/// rule ties it to the unit's reconfiguration interval).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CuGrain {
    /// The configurable unit.
    pub cu: CuId,
    /// Minimum average invocation size matched to this unit.
    pub min_instr: u64,
}

/// Configuration of the DO system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DoConfig {
    /// Invocations before a method is promoted (and JIT-optimized).
    pub hot_threshold: u32,
    /// Invocations used to measure a promoted method's dynamic size.
    pub probe_invocations: u32,
    /// Fixed JIT compilation cost in cycles…
    pub jit_base_cycles: u64,
    /// …plus this much per static code block of the method.
    pub jit_cycles_per_block: u64,
    /// Cycles charged each time instrumented tuning/profiling code runs at
    /// a hotspot boundary.
    pub instrument_cycles: u64,
    /// Hotspot grains of the adaptable units: a hotspot is bound to the
    /// unit with the largest grain not exceeding its average invocation
    /// size, and to [`HotspotClass::TooSmall`] below every grain. The
    /// default reproduces the paper's two-CU rule (50 K → L1D,
    /// 500 K → L2).
    pub grains: Vec<CuGrain>,
}

impl Default for DoConfig {
    fn default() -> Self {
        DoConfig {
            hot_threshold: 5,
            probe_invocations: 2,
            jit_base_cycles: 2_000,
            jit_cycles_per_block: 300,
            instrument_cycles: 20,
            grains: vec![
                CuGrain {
                    cu: CuId::L1d,
                    min_instr: 50_000,
                },
                CuGrain {
                    cu: CuId::L2,
                    min_instr: 500_000,
                },
            ],
        }
    }
}

impl DoConfig {
    /// The three-CU configuration: hotspots of 5 K–50 K instructions adapt
    /// the instruction window (the Section 4.1 extension; the lower bound
    /// matches the window's reconfiguration interval, per the paper's
    /// size-class rule).
    pub fn with_window() -> DoConfig {
        DoConfig::default().with_cu(CuId::Window, 5_000)
    }

    /// Adds (or moves) `cu`'s hotspot grain.
    pub fn with_cu(mut self, cu: CuId, min_instr: u64) -> DoConfig {
        self.grains.retain(|g| g.cu != cu);
        self.grains.push(CuGrain { cu, min_instr });
        self
    }

    /// Grains derived from a machine's registered units: every descriptor
    /// contributes its `min_hotspot_instr`. This is how a new CU joins
    /// hotspot binning without any code change.
    pub fn for_registry(registry: &CuRegistry) -> DoConfig {
        DoConfig {
            grains: registry
                .iter()
                .map(|d| CuGrain {
                    cu: d.cu,
                    min_instr: d.min_hotspot_instr,
                })
                .collect(),
            ..DoConfig::default()
        }
    }

    /// Classifies an average inclusive invocation size: the registered
    /// grain with the largest `min_instr` not exceeding `avg_size` wins
    /// (later grains win ties).
    pub fn classify(&self, avg_size: u64) -> HotspotClass {
        self.grains
            .iter()
            .filter(|g| avg_size >= g.min_instr)
            .max_by_key(|g| g.min_instr)
            .map_or(HotspotClass::TooSmall, |g| HotspotClass::Cu(g.cu))
    }
}

/// Event reported to the ACE manager for each method boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DoEvent {
    /// Boundary of a method that is not (yet) a classified hotspot.
    None,
    /// A classified hotspot was entered.
    HotspotEnter {
        /// The hotspot.
        method: MethodId,
        /// Its size class.
        class: HotspotClass,
    },
    /// A classified hotspot was exited.
    HotspotExit {
        /// The hotspot.
        method: MethodId,
        /// Its size class.
        class: HotspotClass,
        /// Inclusive dynamic instructions of the completed invocation.
        invocation_instr: u64,
    },
    /// A method was promoted and classified on this exit: its boundaries
    /// are instrumented from now on. (Reported once per hotspot.)
    HotspotClassified {
        /// The new hotspot.
        method: MethodId,
        /// Its size class.
        class: HotspotClass,
        /// Mean inclusive instructions per invocation.
        avg_size: u64,
    },
}

/// Aggregate detection statistics (Table 4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct DoStats {
    /// Dynamic instructions attributed while at least one classified
    /// hotspot was on the call stack.
    pub instr_in_hotspots: u64,
    /// Dynamic instructions attributed before the innermost enclosing
    /// methods became hotspots — the identification latency numerator.
    pub identification_instr: u64,
    /// JIT compilations performed.
    pub jit_compilations: u64,
    /// Total cycles charged for JIT compilation.
    pub jit_cycles: u64,
}

/// The DO system driving one program execution.
///
/// # Examples
///
/// ```
/// use ace_workloads::{preset, Executor, Step};
/// use ace_runtime::{DoSystem, DoConfig, DoEvent};
/// use ace_sim::{Machine, MachineConfig, Block};
///
/// let program = preset("db").unwrap();
/// let mut machine = Machine::new(MachineConfig::table2())?;
/// let mut dos = DoSystem::new(&program, DoConfig::default());
/// let mut exec = Executor::new(&program);
/// exec.set_instruction_limit(2_000_000);
/// let mut buf = Block::default();
/// loop {
///     match exec.step(&mut buf) {
///         Step::Block => machine.exec_block(&buf),
///         Step::Enter(m) => { dos.on_enter(m, &mut machine); }
///         Step::Exit(m) => { dos.on_exit(m, &mut machine); }
///         Step::Done => break,
///     }
/// }
/// assert!(dos.database().hotspots().count() > 0);
/// # Ok::<(), ace_sim::ConfigError>(())
/// ```
#[derive(Debug, Clone, Default)]
struct ThreadStack {
    /// (method, thread-virtual instret at entry, was the method hot).
    frames: Vec<(MethodId, u64, bool)>,
    /// Classified hotspots currently on this stack.
    hot_depth: u32,
    /// Frames whose method was still unclassified at entry.
    cold_depth: u32,
    /// Instructions this thread has retired (its virtual clock): in a
    /// time-multiplexed run, invocation sizes are measured against this,
    /// not the global instret, so foreign quanta do not inflate them.
    virtual_instret: u64,
}

/// The DO system driving one program execution (see the crate-level
/// documentation for the detection pipeline and [`DoSystem::new`] /
/// [`DoSystem::on_enter`] / [`DoSystem::on_exit`] for the driver
/// contract). Multithreaded drivers additionally announce scheduler
/// switches via [`DoSystem::on_thread_switch`].
#[derive(Debug, Clone)]
pub struct DoSystem<'p> {
    program: &'p Program,
    config: DoConfig,
    db: DoDatabase,
    /// One call stack per logical thread. Single-threaded runs only ever
    /// use index 0; the multithreaded driver announces scheduler switches
    /// via [`DoSystem::on_thread_switch`].
    stacks: Vec<ThreadStack>,
    /// The thread currently holding the (time-multiplexed) core.
    current: usize,
    /// Machine instret at the previous boundary event.
    last_event_instret: u64,
    stats: DoStats,
    telemetry: ace_telemetry::Telemetry,
}

impl<'p> DoSystem<'p> {
    /// Creates a DO system for `program`.
    pub fn new(program: &'p Program, config: DoConfig) -> DoSystem<'p> {
        DoSystem {
            program,
            config,
            db: DoDatabase::new(program.method_count()),
            stacks: vec![ThreadStack::default()],
            current: 0,
            last_event_instret: 0,
            stats: DoStats::default(),
            telemetry: ace_telemetry::Telemetry::off(),
        }
    }

    /// Installs the run's telemetry handle; promotions emit
    /// [`ace_telemetry::Event::HotspotPromoted`] through it. The run
    /// drivers call this — embedders that drive [`DoSystem::on_enter`]
    /// directly may too.
    pub fn set_telemetry(&mut self, telemetry: ace_telemetry::Telemetry) {
        self.telemetry = telemetry;
    }

    /// Attributes pending instructions to the outgoing thread and makes
    /// `tid` current. Called by the multithreaded driver at every
    /// scheduler switch; single-threaded runs never call it.
    pub fn on_thread_switch(&mut self, tid: u32, machine: &Machine) {
        self.attribute(machine.instret());
        let idx = tid as usize;
        if self.stacks.len() <= idx {
            self.stacks.resize_with(idx + 1, ThreadStack::default);
        }
        self.current = idx;
    }

    /// The database of per-method profiling state.
    pub fn database(&self) -> &DoDatabase {
        &self.db
    }

    /// The configuration in effect.
    pub fn config(&self) -> &DoConfig {
        &self.config
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &DoStats {
        &self.stats
    }

    /// Instructions the current thread has retired so far inside its
    /// innermost open frame, on that thread's own clock: the invocation
    /// size [`DoSystem::on_exit`] would measure at `machine`'s instret.
    /// Zero with no frame open.
    #[inline]
    pub fn open_frame_instr(&self, machine: &Machine) -> u64 {
        let stack = &self.stacks[self.current];
        let now = stack.virtual_instret + (machine.instret() - self.last_event_instret);
        stack
            .frames
            .last()
            .map_or(0, |&(_, entered, _)| now - entered)
    }

    /// Attributes instructions since the last boundary event to the
    /// current thread's stack state.
    fn attribute(&mut self, now: u64) {
        let delta = now - self.last_event_instret;
        self.last_event_instret = now;
        let stack = &mut self.stacks[self.current];
        stack.virtual_instret += delta;
        if stack.hot_depth > 0 {
            self.stats.instr_in_hotspots += delta;
        }
        // Instructions spent inside methods that were not yet classified at
        // entry count toward identification latency — but only when no
        // enclosing classified hotspot already covers them.
        if stack.hot_depth == 0 && stack.cold_depth > 0 {
            self.stats.identification_instr += delta;
        }
    }

    /// Handles a method entry; returns the event the ACE manager acts on.
    pub fn on_enter(&mut self, m: MethodId, machine: &mut Machine) -> DoEvent {
        let now = machine.instret();
        self.attribute(now);
        let threshold = self.config.hot_threshold;
        let entry = self.db.entry_mut(m);
        entry.invocations += 1;

        // Promotion: hotspot detected, JIT-optimize it.
        if entry.state == MethodState::Cold && entry.invocations >= threshold as u64 {
            entry.state = MethodState::Probing;
            entry.promoted_at = Some(now);
            let blocks = self.program.method(m).code_blocks as u64;
            let cost = self.config.jit_base_cycles + blocks * self.config.jit_cycles_per_block;
            machine.add_overhead_cycles(cost);
            self.stats.jit_compilations += 1;
            self.stats.jit_cycles += cost;
            let invocations = entry.invocations;
            self.telemetry
                .emit(|| ace_telemetry::Event::HotspotPromoted {
                    method: m.0,
                    invocations,
                    instret: now,
                });
        }

        let hot = entry.is_hot();
        let class = entry.class();
        let stack = &mut self.stacks[self.current];
        let vnow = stack.virtual_instret;
        stack.frames.push((m, vnow, hot));
        if hot {
            stack.hot_depth += 1;
            machine.add_overhead_cycles(self.config.instrument_cycles);
        } else {
            stack.cold_depth += 1;
        }
        match class {
            Some(c) => DoEvent::HotspotEnter {
                method: m,
                class: c,
            },
            None => DoEvent::None,
        }
    }

    /// Handles a method exit; returns the event the ACE manager acts on.
    ///
    /// # Panics
    ///
    /// Panics if exits are not properly nested with entries (an executor
    /// bug, not a user-reachable condition).
    pub fn on_exit(&mut self, m: MethodId, machine: &mut Machine) -> DoEvent {
        let now = machine.instret();
        self.attribute(now);
        let stack = &mut self.stacks[self.current];
        let (method, entry_vinstret, was_hot) = stack.frames.pop().expect("unbalanced exit");
        assert_eq!(method, m, "unbalanced method nesting");
        let invocation_instr = stack.virtual_instret - entry_vinstret;

        if was_hot {
            stack.hot_depth -= 1;
            machine.add_overhead_cycles(self.config.instrument_cycles);
        } else {
            stack.cold_depth -= 1;
        }

        let probe_invocations = self.config.probe_invocations;
        let entry = self.db.entry_mut(m);
        entry.total_instr += invocation_instr;

        match entry.state {
            MethodState::Probing => {
                entry.probe_instr += invocation_instr;
                entry.probe_count += 1;
                if entry.probe_count >= probe_invocations {
                    let avg = entry.probe_instr / entry.probe_count as u64;
                    entry.avg_size = avg;
                    let class = self.config.classify(avg);
                    entry.state = MethodState::Hot(class);
                    return DoEvent::HotspotClassified {
                        method: m,
                        class,
                        avg_size: avg,
                    };
                }
                DoEvent::None
            }
            MethodState::Hot(class) if was_hot => DoEvent::HotspotExit {
                method: m,
                class,
                invocation_instr,
            },
            // Classified while this invocation was in flight: report
            // nothing (its entry was not instrumented).
            MethodState::Hot(_) => DoEvent::None,
            MethodState::Cold => DoEvent::None,
        }
    }

    /// Summary for Table 4, computed over classified hotspots.
    pub fn table4_summary(&self, total_instr: u64) -> Table4Row {
        let mut hotspots = 0u64;
        let mut invocations = 0u64;
        let mut size_sum = 0u64;
        for (_, e) in self.db.hotspots() {
            hotspots += 1;
            invocations += e.invocations;
            size_sum += e.avg_size;
        }
        Table4Row {
            dynamic_instr: total_instr,
            hotspots,
            avg_hotspot_size: size_sum.checked_div(hotspots).unwrap_or(0),
            pct_code_in_hotspots: if total_instr > 0 {
                100.0 * self.stats.instr_in_hotspots as f64 / total_instr as f64
            } else {
                0.0
            },
            avg_invocations: if hotspots > 0 {
                invocations as f64 / hotspots as f64
            } else {
                0.0
            },
            identification_latency_pct: if total_instr > 0 {
                100.0 * self.stats.identification_instr as f64 / total_instr as f64
            } else {
                0.0
            },
        }
    }
}

/// One row of Table 4 (runtime hotspot characteristics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Table4Row {
    /// Total dynamic instructions.
    pub dynamic_instr: u64,
    /// Number of classified hotspots.
    pub hotspots: u64,
    /// Mean inclusive size per invocation across hotspots.
    pub avg_hotspot_size: u64,
    /// Percent of dynamic instructions inside at least one hotspot.
    pub pct_code_in_hotspots: f64,
    /// Mean invocations per hotspot.
    pub avg_invocations: f64,
    /// Percent of execution spent before enclosing methods were identified.
    pub identification_latency_pct: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_sim::{Block, MachineConfig};
    use ace_workloads::{Executor, MemPattern, ProgramBuilder, Step, Stmt};

    fn drive(program: &Program, config: DoConfig, limit: u64) -> (DoSystem<'_>, Machine, u64) {
        let mut machine = Machine::new(MachineConfig::table2()).unwrap();
        let mut dos = DoSystem::new(program, config);
        let mut exec = Executor::new(program);
        exec.set_instruction_limit(limit);
        let mut buf = Block::default();
        loop {
            match exec.step(&mut buf) {
                Step::Block => machine.exec_block(&buf),
                Step::Enter(m) => {
                    dos.on_enter(m, &mut machine);
                }
                Step::Exit(m) => {
                    dos.on_exit(m, &mut machine);
                }
                Step::Done => break,
            }
        }
        let total = exec.emitted_instructions();
        (dos, machine, total)
    }

    fn leaf_program(leaf_instr: u64, calls: u32) -> Program {
        let mut b = ProgramBuilder::new("t", 17);
        let pat = b.add_pattern(MemPattern::resident(0x1_0000, 4096));
        let leaf = b.add_method(
            "leaf",
            vec![Stmt::Compute {
                ninstr: leaf_instr,
                pattern: pat,
            }],
        );
        let main = b.add_method(
            "main",
            vec![Stmt::Call {
                callee: leaf,
                count: calls,
            }],
        );
        b.entry(main).build().unwrap()
    }

    #[test]
    fn promotion_after_threshold() {
        let p = leaf_program(1_000, 50);
        let (dos, _, _) = drive(&p, DoConfig::default(), u64::MAX);
        let leaf = MethodId(0);
        let e = dos.database().entry(leaf);
        assert!(e.is_hot() || e.state == MethodState::Probing);
        assert!(e.invocations >= 50 - 2);
        assert!(e.promoted_at.is_some());
        // main runs once: never promoted.
        assert_eq!(dos.database().entry(MethodId(1)).state, MethodState::Cold);
    }

    #[test]
    fn classification_uses_inclusive_size() {
        // leaf ~1K => TooSmall; a 120K wrapper => L1d; stage 1M => L2.
        let mut b = ProgramBuilder::new("t", 23);
        let pat = b.add_pattern(MemPattern::resident(0x1_0000, 4096));
        let leaf = b.add_method(
            "leaf",
            vec![Stmt::Compute {
                ninstr: 1_000,
                pattern: pat,
            }],
        );
        let child = b.add_method(
            "child",
            vec![
                Stmt::Compute {
                    ninstr: 20_000,
                    pattern: pat,
                },
                Stmt::Call {
                    callee: leaf,
                    count: 100,
                },
            ],
        );
        let stage = b.add_method(
            "stage",
            vec![Stmt::Call {
                callee: child,
                count: 9,
            }],
        );
        let main = b.add_method(
            "main",
            vec![Stmt::Call {
                callee: stage,
                count: 40,
            }],
        );
        let p = b.entry(main).build().unwrap();
        let (dos, _, _) = drive(&p, DoConfig::default(), u64::MAX);
        assert_eq!(
            dos.database().entry(leaf).class(),
            Some(HotspotClass::TooSmall)
        );
        assert_eq!(
            dos.database().entry(child).class(),
            Some(HotspotClass::Cu(CuId::L1d))
        );
        assert_eq!(
            dos.database().entry(stage).class(),
            Some(HotspotClass::Cu(CuId::L2))
        );
    }

    #[test]
    fn jit_cost_charged_once_per_hotspot() {
        let p = leaf_program(1_000, 100);
        let cfg = DoConfig::default();
        let (dos, _, _) = drive(&p, cfg.clone(), u64::MAX);
        assert_eq!(dos.stats().jit_compilations, 1, "only the leaf gets hot");
        assert!(dos.stats().jit_cycles >= cfg.jit_base_cycles);
    }

    #[test]
    fn hotspot_events_fire_after_classification() {
        let p = leaf_program(2_000, 100);
        let mut machine = Machine::new(MachineConfig::table2()).unwrap();
        let mut dos = DoSystem::new(&p, DoConfig::default());
        let mut exec = Executor::new(&p);
        let mut buf = Block::default();
        let mut enters = 0;
        let mut exits = 0;
        let mut classified = 0;
        loop {
            match exec.step(&mut buf) {
                Step::Block => machine.exec_block(&buf),
                Step::Enter(m) => {
                    if let DoEvent::HotspotEnter { .. } = dos.on_enter(m, &mut machine) {
                        enters += 1;
                    }
                }
                Step::Exit(m) => match dos.on_exit(m, &mut machine) {
                    DoEvent::HotspotExit {
                        invocation_instr, ..
                    } => {
                        exits += 1;
                        assert!(invocation_instr > 1_000);
                    }
                    DoEvent::HotspotClassified { class, .. } => {
                        classified += 1;
                        assert_eq!(class, HotspotClass::TooSmall);
                    }
                    _ => {}
                },
                Step::Done => break,
            }
        }
        assert_eq!(classified, 1);
        // threshold 5 + 2 probing invocations; ~93 instrumented ones left.
        assert!(enters > 70, "got {enters}");
        assert_eq!(enters, exits);
    }

    #[test]
    fn identification_latency_fraction_reasonable() {
        let p = leaf_program(5_000, 200);
        let (dos, _, total) = drive(&p, DoConfig::default(), u64::MAX);
        let row = dos.table4_summary(total);
        // 7 of 200 invocations run before classification => ~3.5%.
        assert!(
            row.identification_latency_pct > 1.0 && row.identification_latency_pct < 8.0,
            "got {}",
            row.identification_latency_pct
        );
        assert!(row.pct_code_in_hotspots > 85.0);
        assert_eq!(row.hotspots, 1);
    }

    #[test]
    fn preset_detection_end_to_end() {
        let p = ace_workloads::preset("db").unwrap();
        let (dos, _, total) = drive(&p, DoConfig::default(), 20_000_000);
        let row = dos.table4_summary(total);
        assert!(row.hotspots > 10, "hotspots: {}", row.hotspots);
        assert!(
            dos.database().count_class(HotspotClass::Cu(CuId::L1d)) > 3,
            "L1D hotspots: {}",
            dos.database().count_class(HotspotClass::Cu(CuId::L1d))
        );
        assert!(
            dos.database().count_class(HotspotClass::Cu(CuId::L2)) >= 1,
            "L2 hotspots: {}",
            dos.database().count_class(HotspotClass::Cu(CuId::L2))
        );
        assert!(
            row.pct_code_in_hotspots > 60.0,
            "coverage {}",
            row.pct_code_in_hotspots
        );
    }

    #[test]
    fn higher_threshold_slower_identification() {
        let p = leaf_program(5_000, 200);
        let (fast, _, t1) = drive(
            &p,
            DoConfig {
                hot_threshold: 5,
                ..DoConfig::default()
            },
            u64::MAX,
        );
        let (slow, _, t2) = drive(
            &p,
            DoConfig {
                hot_threshold: 50,
                ..DoConfig::default()
            },
            u64::MAX,
        );
        let f = fast.table4_summary(t1).identification_latency_pct;
        let s = slow.table4_summary(t2).identification_latency_pct;
        assert!(s > f, "threshold 50 ({s}) must identify later than 5 ({f})");
    }

    #[test]
    fn grain_binning_matches_paper_boundaries() {
        // The paper's size-class rule, exactly at the 50 K / 500 K edges.
        let two_cu = DoConfig::default();
        assert_eq!(two_cu.classify(49_999), HotspotClass::TooSmall);
        assert_eq!(two_cu.classify(50_000), HotspotClass::Cu(CuId::L1d));
        assert_eq!(two_cu.classify(499_999), HotspotClass::Cu(CuId::L1d));
        assert_eq!(two_cu.classify(500_000), HotspotClass::Cu(CuId::L2));
        assert_eq!(two_cu.classify(u64::MAX), HotspotClass::Cu(CuId::L2));

        // The window extension opens a 5 K–50 K band below the L1D grain.
        let three_cu = DoConfig::with_window();
        assert_eq!(three_cu.classify(4_999), HotspotClass::TooSmall);
        assert_eq!(three_cu.classify(5_000), HotspotClass::Cu(CuId::Window));
        assert_eq!(three_cu.classify(49_999), HotspotClass::Cu(CuId::Window));
        assert_eq!(three_cu.classify(50_000), HotspotClass::Cu(CuId::L1d));
        assert_eq!(three_cu.classify(500_000), HotspotClass::Cu(CuId::L2));
    }

    #[test]
    fn grain_binning_is_registry_driven() {
        use ace_sim::MachineConfig;
        // A machine that registers the DTLB contributes a 10 K grain with
        // no DO-system code change.
        let mut mc = MachineConfig::table2();
        mc.dtlb_configurable = true;
        let cfg = DoConfig::for_registry(&mc.cu_registry());
        assert_eq!(cfg.classify(4_999), HotspotClass::TooSmall);
        assert_eq!(cfg.classify(5_000), HotspotClass::Cu(CuId::Window));
        assert_eq!(cfg.classify(10_000), HotspotClass::Cu(CuId::Dtlb));
        assert_eq!(cfg.classify(49_999), HotspotClass::Cu(CuId::Dtlb));
        assert_eq!(cfg.classify(50_000), HotspotClass::Cu(CuId::L1d));
        assert_eq!(cfg.classify(500_000), HotspotClass::Cu(CuId::L2));

        // with_cu replaces an existing grain rather than duplicating it.
        let moved = DoConfig::default().with_cu(CuId::L1d, 40_000);
        assert_eq!(moved.grains.len(), 2);
        assert_eq!(moved.classify(40_000), HotspotClass::Cu(CuId::L1d));
    }
}
