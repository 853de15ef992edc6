//! Detection edge cases the preset workloads never exercise: deep
//! nesting, simultaneous promotion of caller and callee, instruction
//! limits cutting through probation, and the three-CU window class.

use ace_runtime::{DoConfig, DoEvent, DoSystem, HotspotClass, MethodState};
use ace_sim::{Block, CuId, Machine, MachineConfig};
use ace_workloads::{Executor, MemPattern, MethodId, Program, ProgramBuilder, Step, Stmt};

fn drive(program: &Program, config: DoConfig, limit: Option<u64>) -> (DoSystem<'_>, Machine) {
    let mut machine = Machine::new(MachineConfig::table2()).unwrap();
    let mut dos = DoSystem::new(program, config);
    let mut exec = Executor::new(program);
    if let Some(l) = limit {
        exec.set_instruction_limit(l);
    }
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
    (dos, machine)
}

/// A chain of methods, each calling the next `fanout` times.
fn chain_program(depth: u32, fanout: u32, leaf_instr: u64) -> (Program, Vec<MethodId>) {
    let mut b = ProgramBuilder::new("chain", 11);
    let region = b.alloc_region(4096);
    let pat = b.add_pattern(MemPattern::resident(region, 4096));
    let mut ids = Vec::new();
    let mut callee = b.add_method(
        "level0",
        vec![Stmt::Compute {
            ninstr: leaf_instr,
            pattern: pat,
        }],
    );
    ids.push(callee);
    for d in 1..depth {
        callee = b.add_method(
            format!("level{d}"),
            vec![
                Stmt::Compute {
                    ninstr: 200,
                    pattern: pat,
                },
                Stmt::Call {
                    callee,
                    count: fanout,
                },
            ],
        );
        ids.push(callee);
    }
    let main = b.add_method("main", vec![Stmt::Call { callee, count: 64 }]);
    ids.push(main);
    (b.entry(main).build().unwrap(), ids)
}

#[test]
fn deep_nesting_classifies_every_level() {
    // 6 levels deep, fanout 3: inclusive sizes grow ~3x per level, so the
    // chain spans all three size classes.
    let (program, ids) = chain_program(6, 3, 2_000);
    let (dos, _m) = drive(&program, DoConfig::with_window(), None);
    // level0: 2K -> TooSmall at default window range start 5K... it is
    // below the window class: TooSmall.
    assert_eq!(
        dos.database().entry(ids[0]).class(),
        Some(HotspotClass::TooSmall)
    );
    // level1: ~6.2K -> Window class.
    assert_eq!(
        dos.database().entry(ids[1]).class(),
        Some(HotspotClass::Cu(CuId::Window))
    );
    // level3: ~57K -> L1d. level4: ~170K -> L1d. level5: ~515K -> L2.
    assert_eq!(
        dos.database().entry(ids[3]).class(),
        Some(HotspotClass::Cu(CuId::L1d))
    );
    assert_eq!(
        dos.database().entry(ids[4]).class(),
        Some(HotspotClass::Cu(CuId::L1d))
    );
    assert_eq!(
        dos.database().entry(ids[5]).class(),
        Some(HotspotClass::Cu(CuId::L2))
    );
    // main runs once: cold forever.
    assert_eq!(
        dos.database().entry(*ids.last().unwrap()).state,
        MethodState::Cold
    );
}

#[test]
fn without_window_class_small_methods_stay_small() {
    let (program, ids) = chain_program(6, 3, 2_000);
    let (dos, _m) = drive(&program, DoConfig::default(), None);
    assert_eq!(
        dos.database().entry(ids[1]).class(),
        Some(HotspotClass::TooSmall)
    );
    assert_eq!(
        dos.database().entry(ids[2]).class(),
        Some(HotspotClass::TooSmall)
    );
}

#[test]
fn limit_mid_probation_is_clean() {
    // Cut execution while methods are still probing: no classification
    // event fires, and the database stays consistent.
    let (program, _ids) = chain_program(4, 4, 3_000);
    let threshold_instr = 60_000; // roughly into the promotion window
    let (dos, machine) = drive(&program, DoConfig::default(), Some(threshold_instr));
    for (_, entry) in dos.database().iter().enumerate().map(|(i, e)| (i, e.1)) {
        if entry.state == MethodState::Probing {
            assert!(entry.probe_count < dos.config().probe_invocations);
        }
        assert!(entry.total_instr <= machine.instret());
    }
    let t4 = dos.table4_summary(machine.instret());
    assert!(t4.pct_code_in_hotspots <= 100.0);
}

#[test]
fn caller_and_callee_promote_together() {
    // Caller and callee cross hot_threshold on the same invocation wave;
    // both must end up classified, with the caller's inclusive size
    // containing the callee's.
    let mut b = ProgramBuilder::new("pair", 3);
    let region = b.alloc_region(2048);
    let pat = b.add_pattern(MemPattern::resident(region, 2048));
    let inner = b.add_method(
        "inner",
        vec![Stmt::Compute {
            ninstr: 30_000,
            pattern: pat,
        }],
    );
    let outer = b.add_method(
        "outer",
        vec![
            Stmt::Compute {
                ninstr: 30_000,
                pattern: pat,
            },
            Stmt::Call {
                callee: inner,
                count: 2,
            },
        ],
    );
    let main = b.add_method(
        "main",
        vec![Stmt::Call {
            callee: outer,
            count: 40,
        }],
    );
    let program = b.entry(main).build().unwrap();
    let (dos, _m) = drive(&program, DoConfig::default(), None);
    let inner_e = dos.database().entry(inner);
    let outer_e = dos.database().entry(outer);
    assert_eq!(inner_e.class(), Some(HotspotClass::TooSmall)); // 30K < 50K
    assert_eq!(outer_e.class(), Some(HotspotClass::Cu(CuId::L1d))); // ~90K
    assert!(outer_e.avg_size > inner_e.avg_size * 2);
}

#[test]
fn classification_event_fires_exactly_once() {
    let mut b = ProgramBuilder::new("once", 9);
    let region = b.alloc_region(1024);
    let pat = b.add_pattern(MemPattern::resident(region, 1024));
    let leaf = b.add_method(
        "leaf",
        vec![Stmt::Compute {
            ninstr: 60_000,
            pattern: pat,
        }],
    );
    let main = b.add_method(
        "main",
        vec![Stmt::Call {
            callee: leaf,
            count: 30,
        }],
    );
    let program = b.entry(main).build().unwrap();

    let mut machine = Machine::new(MachineConfig::table2()).unwrap();
    let mut dos = DoSystem::new(&program, DoConfig::default());
    let mut exec = Executor::new(&program);
    let mut buf = Block::default();
    let mut classified = 0;
    let mut enters_after = 0;
    loop {
        match exec.step(&mut buf) {
            Step::Block => machine.exec_block(&buf),
            Step::Enter(m) => {
                if let DoEvent::HotspotEnter { .. } = dos.on_enter(m, &mut machine) {
                    enters_after += 1;
                }
            }
            Step::Exit(m) => {
                if let DoEvent::HotspotClassified {
                    method,
                    class,
                    avg_size,
                } = dos.on_exit(m, &mut machine)
                {
                    classified += 1;
                    assert_eq!(method, leaf);
                    assert_eq!(class, HotspotClass::Cu(CuId::L1d));
                    assert!((50_000..80_000).contains(&avg_size));
                }
            }
            Step::Done => break,
        }
    }
    assert_eq!(classified, 1);
    // threshold 5 + probing 2 leaves ~23 instrumented invocations.
    assert!((20..=25).contains(&enters_after), "got {enters_after}");
}

#[test]
fn jit_costs_scale_with_code_size() {
    let (program, _) = chain_program(5, 3, 4_000);
    let (dos, _m) = drive(&program, DoConfig::default(), None);
    let stats = dos.stats();
    assert!(stats.jit_compilations >= 4);
    assert!(
        stats.jit_cycles >= stats.jit_compilations * dos.config().jit_base_cycles,
        "each compilation costs at least the base"
    );
}
