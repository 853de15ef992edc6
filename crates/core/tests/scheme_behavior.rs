//! Behavioral tests of the managers under controlled event sequences:
//! the re-tuning (drift) path, sampling cadence, guard interactions, and
//! degenerate inputs that a full workload run would not isolate.

use ace_core::{
    AceManager, Experiment, HotspotAceManager, HotspotManagerConfig, NullManager, RunConfig,
};
use ace_energy::EnergyModel;
use ace_runtime::{DoEvent, HotspotClass};
use ace_sim::{Block, CuId, Machine, MachineConfig, MemAccess};
use ace_workloads::{MemPattern, MethodId, ProgramBuilder, Stmt};

/// Runs `ninstr` instructions of hit-dominated work.
fn run_fast(machine: &mut Machine, ninstr: u64) {
    let mut left = ninstr;
    while left > 0 {
        let n = left.min(50) as u32;
        machine.exec_block(&Block {
            pc: 0x400,
            ninstr: n,
            accesses: vec![MemAccess::load(0x1000)],
            branch: None,
        });
        left -= n as u64;
    }
}

/// Runs `ninstr` instructions of miss-heavy work (streaming).
fn run_slow(machine: &mut Machine, ninstr: u64, cursor: &mut u64) {
    let mut left = ninstr;
    while left > 0 {
        let n = left.min(50) as u32;
        *cursor += 4096;
        machine.exec_block(&Block {
            pc: 0x400,
            ninstr: n,
            accesses: vec![
                MemAccess::load(0x100_0000 + *cursor),
                MemAccess::load(0x200_0000 + *cursor),
            ],
            branch: None,
        });
        left -= n as u64;
    }
}

/// Drives one synthetic hotspot invocation through the manager.
fn invoke<F: FnMut(&mut Machine)>(
    mgr: &mut HotspotAceManager,
    machine: &mut Machine,
    method: MethodId,
    mut body: F,
) {
    mgr.on_event(
        DoEvent::HotspotEnter {
            method,
            class: HotspotClass::Cu(CuId::L1d),
        },
        machine,
    );
    let start = machine.instret();
    body(machine);
    mgr.on_event(
        DoEvent::HotspotExit {
            method,
            class: HotspotClass::Cu(CuId::L1d),
            invocation_instr: machine.instret() - start,
        },
        machine,
    );
}

#[test]
fn sampling_detects_drift_and_retunes() {
    let mut machine = Machine::new(MachineConfig::table2()).unwrap();
    let mut mgr = HotspotAceManager::new(
        HotspotManagerConfig {
            sample_period: 4,
            retune_threshold: 0.5,
            ..HotspotManagerConfig::default()
        },
        EnergyModel::default_180nm(),
    );
    let m = MethodId(7);

    // Phase 1: fast invocations until tuning completes.
    for _ in 0..16 {
        invoke(&mut mgr, &mut machine, m, |mach| run_fast(mach, 150_000));
    }
    let (_, tuned, _) = mgr.hotspot_state(m).unwrap();
    assert!(tuned, "tuner should be done after 16 fast invocations");
    assert_eq!(mgr.report().retunings, 0);

    // Phase 2: behavior shifts to miss-heavy; the sampling code must
    // notice the IPC drift and restart tuning.
    let mut cursor = 0u64;
    for _ in 0..24 {
        invoke(&mut mgr, &mut machine, m, |mach| {
            run_slow(mach, 150_000, &mut cursor)
        });
    }
    assert!(
        mgr.report().retunings >= 1,
        "drift of >50% IPC must trigger a re-tune (got {})",
        mgr.report().retunings
    );
}

#[test]
fn stable_behavior_never_retunes() {
    let mut machine = Machine::new(MachineConfig::table2()).unwrap();
    let mut mgr = HotspotAceManager::new(
        HotspotManagerConfig {
            sample_period: 4,
            retune_threshold: 0.5,
            ..HotspotManagerConfig::default()
        },
        EnergyModel::default_180nm(),
    );
    let m = MethodId(3);
    for _ in 0..64 {
        invoke(&mut mgr, &mut machine, m, |mach| run_fast(mach, 150_000));
    }
    assert_eq!(
        mgr.report().retunings,
        0,
        "steady hotspots re-tune rarely (here never)"
    );
}

#[test]
fn too_small_hotspots_are_ignored() {
    let mut machine = Machine::new(MachineConfig::table2()).unwrap();
    let mut mgr = HotspotAceManager::new(
        HotspotManagerConfig::default(),
        EnergyModel::default_180nm(),
    );
    let m = MethodId(1);
    for _ in 0..10 {
        mgr.on_event(
            DoEvent::HotspotEnter {
                method: m,
                class: HotspotClass::TooSmall,
            },
            &mut machine,
        );
        run_fast(&mut machine, 5_000);
        mgr.on_event(
            DoEvent::HotspotExit {
                method: m,
                class: HotspotClass::TooSmall,
                invocation_instr: 5_000,
            },
            &mut machine,
        );
    }
    assert_eq!(mgr.tracked_hotspots(), 0);
    let r = mgr.report();
    assert_eq!(r.l1d().tunings + r.l2().tunings, 0);
}

#[test]
fn empty_invocations_do_not_poison_tuning() {
    // Exit immediately after enter (zero instructions): the probe yields
    // no measurement and the tuner must not advance.
    let mut machine = Machine::new(MachineConfig::table2()).unwrap();
    let mut mgr = HotspotAceManager::new(
        HotspotManagerConfig::default(),
        EnergyModel::default_180nm(),
    );
    let m = MethodId(2);
    for _ in 0..8 {
        invoke(&mut mgr, &mut machine, m, |_| {});
    }
    let (_, tuned, measured) = mgr.hotspot_state(m).unwrap();
    assert!(!tuned, "nothing was measurable");
    assert_eq!(measured, 0);
    // And real invocations afterwards still tune normally.
    for _ in 0..16 {
        invoke(&mut mgr, &mut machine, m, |mach| run_fast(mach, 150_000));
    }
    assert!(mgr.hotspot_state(m).unwrap().1);
}

#[test]
fn single_method_program_runs_every_scheme() {
    // Degenerate program: one method, one pattern, no nesting.
    let mut b = ProgramBuilder::new("mono", 5);
    let region = b.alloc_region(2048);
    let pat = b.add_pattern(MemPattern::resident(region, 2048));
    let main = b.add_method(
        "main",
        vec![Stmt::Compute {
            ninstr: 3_000_000,
            pattern: pat,
        }],
    );
    let program = b.entry(main).build().unwrap();
    let cfg = RunConfig::default();

    let base = Experiment::program(program.clone())
        .config(cfg.clone())
        .run_with(&mut NullManager)
        .unwrap();
    assert!(base.instret >= 2_500_000);
    // main is invoked once: never promoted, so the adaptive scheme changes
    // nothing — but it must not crash or mis-handle the lone exit.
    let mut mgr = HotspotAceManager::new(
        HotspotManagerConfig::default(),
        EnergyModel::default_180nm(),
    );
    let r = Experiment::program(program.clone())
        .config(cfg.clone())
        .run_with(&mut mgr)
        .unwrap();
    assert_eq!(r.table4.hotspots, 0);
    assert_eq!(mgr.tracked_hotspots(), 0);
    assert!(
        (r.ipc - base.ipc).abs() < 1e-9,
        "nothing adapted, nothing changed"
    );
}

#[test]
fn tuning_respects_the_hardware_guard() {
    // Back-to-back enter/exit pairs of two different hotspots, spaced well
    // below the 100 K guard: the second hotspot's trials must not thrash
    // the configuration (the guard rejects; the manager just waits).
    let mut machine = Machine::new(MachineConfig::table2()).unwrap();
    let mut mgr = HotspotAceManager::new(
        HotspotManagerConfig::default(),
        EnergyModel::default_180nm(),
    );
    for round in 0..60 {
        let m = MethodId(round % 2);
        invoke(&mut mgr, &mut machine, m, |mach| run_fast(mach, 30_000));
    }
    // Guard rejections happen (spacing 30 K < 100 K interval) but nothing
    // panics and trials only complete on legal reconfigurations.
    let c = machine.counters();
    let total_resizes: u64 = c.l1d.resizes.iter().sum();
    assert!(
        total_resizes <= 1 + machine.instret() / 100_000,
        "guard bounds the resize rate"
    );
}

#[test]
fn threaded_run_is_deterministic_and_balanced() {
    let (program, entries) = ace_workloads::mtrt_threaded();
    let cfg = RunConfig {
        instruction_limit: Some(8_000_000),
        ..RunConfig::default()
    };
    let a = Experiment::program(program.clone())
        .config(cfg.clone())
        .threaded(&entries, 500_000)
        .run_with(&mut NullManager)
        .unwrap();
    let b = Experiment::program(program.clone())
        .config(cfg.clone())
        .threaded(&entries, 500_000)
        .run_with(&mut NullManager)
        .unwrap();
    assert_eq!(a.counters, b.counters, "threaded runs are deterministic");
    assert!(a.instret >= 8_000_000);
    assert!(a.ipc > 1.0);
}

#[test]
fn threaded_run_detects_hotspots_in_both_threads() {
    let (program, entries) = ace_workloads::mtrt_threaded();
    let cfg = RunConfig::default();
    let mut mgr = HotspotAceManager::new(
        HotspotManagerConfig::default(),
        EnergyModel::default_180nm(),
    );
    let r = Experiment::program(program.clone())
        .config(cfg)
        .threaded(&entries, 1_000_000)
        .run_with(&mut mgr)
        .unwrap();
    // Both threads contribute hotspots (their method names are disjoint).
    let mut t0 = 0;
    let mut t1 = 0;
    for (m, _, _, _, _, _) in mgr.hotspot_details() {
        let name = &program.method(m).name;
        t0 += name.starts_with("t0::") as u32;
        t1 += name.starts_with("t1::") as u32;
    }
    assert!(t0 >= 3, "thread 0 hotspots: {t0}");
    assert!(t1 >= 3, "thread 1 hotspots: {t1}");
    assert!(r.table4.pct_code_in_hotspots > 60.0);
}

#[test]
fn quantum_size_bounds_thread_blending() {
    let (program, entries) = ace_workloads::mtrt_threaded();
    let cfg = RunConfig {
        instruction_limit: Some(20_000_000),
        ..RunConfig::default()
    };
    // Tiny quanta blend threads into every measurement window; huge quanta
    // approach back-to-back execution. Both must run to completion with
    // consistent totals.
    let fine = Experiment::program(program.clone())
        .config(cfg.clone())
        .threaded(&entries, 100_000)
        .run_with(&mut NullManager)
        .unwrap();
    let coarse = Experiment::program(program.clone())
        .config(cfg.clone())
        .threaded(&entries, 5_000_000)
        .run_with(&mut NullManager)
        .unwrap();
    assert_eq!(fine.instret / 1_000_000, coarse.instret / 1_000_000);
    // Finer multiplexing costs more context switches (drain cycles).
    assert!(fine.cycles > coarse.cycles);
}

/// Records every method exit the driver reports, with its size.
#[derive(Default)]
struct ExitSizes(Vec<(MethodId, u64)>);

impl AceManager for ExitSizes {
    fn on_method_exit(&mut self, method: MethodId, invocation_instr: u64, _: &mut Machine) {
        self.0.push((method, invocation_instr));
    }
}

#[test]
fn threaded_exit_sizes_count_only_the_exiting_threads_instructions() {
    // Thread 0 runs the same stream alone and beside thread 1, so its
    // invocation sizes must not depend on thread 1's quanta.
    let (program, entries) = ace_workloads::mtrt_threaded();
    let t0_exits = |entries: &[MethodId], limit: u64| {
        let mut sizes = ExitSizes::default();
        Experiment::program(program.clone())
            .threaded(entries, 200_000)
            .instruction_limit(limit)
            .run_with(&mut sizes)
            .unwrap();
        let t0 = |&(m, _): &(MethodId, u64)| program.method(m).name.starts_with("t0::");
        sizes.0.into_iter().filter(t0).collect::<Vec<_>>()
    };
    let shared = t0_exits(&entries, 6_000_000);
    let alone = t0_exits(&entries[..1], 3_000_000);
    let n = shared.len().min(alone.len());
    assert!(n >= 20, "only {n} thread-0 exits to compare");
    assert_eq!(shared[..n], alone[..n]);
}
