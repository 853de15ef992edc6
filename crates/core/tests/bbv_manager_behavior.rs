//! Behavioral tests of the BBV manager under controlled block streams:
//! phase recurrence with configuration reuse, trial discarding on phase
//! changes, and the next-phase predictor's effect.

use ace_core::{AceManager, BbvAceManager, BbvManagerConfig};
use ace_energy::EnergyModel;
use ace_phase::BbvConfig;
use ace_sim::{Block, BranchEvent, CuId, Machine, MachineConfig, MemAccess, SizeLevel};

/// Test-scale machine: guard intervals shrunk with the sampling interval
/// so the alignment matches the real configuration.
fn machine() -> Machine {
    let mut cfg = MachineConfig::table2();
    cfg.l1d_reconfig_interval = 10_000;
    cfg.l2_reconfig_interval = 100_000;
    Machine::new(cfg).unwrap()
}

fn manager(use_predictor: bool) -> BbvAceManager {
    BbvAceManager::new(
        BbvManagerConfig {
            bbv: BbvConfig {
                interval_instr: 100_100,
                ..BbvConfig::default()
            },
            use_predictor,
            ..BbvManagerConfig::default()
        },
        EnergyModel::default_180nm(),
    )
}

/// Runs one ~100K-instruction interval of "phase k" behavior: a
/// phase-specific branch-PC cluster and a phase-specific tiny working set.
fn run_interval(machine: &mut Machine, mgr: &mut BbvAceManager, phase: u64) {
    let start = machine.instret();
    let mut i = 0u64;
    while machine.instret() < start + 100_200 {
        let b = Block {
            pc: 0x10_0000 * (phase + 1) + (i % 8) * 64,
            ninstr: 50,
            accesses: vec![MemAccess::load(0x100_0000 * (phase + 1) + (i * 24) % 2048)],
            branch: Some(BranchEvent {
                pc: 0x10_0000 * (phase + 1) + (i % 8) * 64 + 56,
                taken: true,
            }),
        };
        machine.exec_block(&b);
        mgr.on_block(&b, machine);
        i += 1;
    }
}

#[test]
fn recurring_phase_reapplies_its_configuration() {
    let mut m = machine();
    let mut mgr = manager(false);
    mgr.on_start(&mut m);
    // Long homogeneous run: phase 0 tunes fully (2 KB working set -> small
    // caches win).
    for _ in 0..60 {
        run_interval(&mut m, &mut mgr, 0);
    }
    let after_tuning = mgr.report();
    assert_eq!(after_tuning.tuned_phases, 1, "phase 0 tuned");
    let chosen_l1d = m.level(CuId::L1d);
    assert!(
        chosen_l1d > SizeLevel::LARGEST,
        "tiny working set shrinks the L1D"
    );

    // A foreign phase disturbs the configuration...
    for _ in 0..4 {
        run_interval(&mut m, &mut mgr, 1);
    }
    // ...then phase 0 recurs: within two intervals its stored choice is back.
    run_interval(&mut m, &mut mgr, 0);
    run_interval(&mut m, &mut mgr, 0);
    run_interval(&mut m, &mut mgr, 0);
    assert_eq!(
        m.level(CuId::L1d),
        chosen_l1d,
        "recurring phase must reuse its chosen configuration"
    );
    let r = mgr.report();
    assert!(r.reconfigs > 0);
}

#[test]
fn alternating_phases_discard_misattributed_trials() {
    let mut m = machine();
    let mut mgr = manager(false);
    mgr.on_start(&mut m);
    // Strict alternation: no two consecutive intervals share a phase, so
    // trials set up for "the phase continues" keep getting discarded.
    for i in 0..30 {
        run_interval(&mut m, &mut mgr, i % 2);
    }
    let r = mgr.report();
    assert_eq!(r.tuned_phases, 0, "nothing is ever stable long enough");
    assert_eq!(r.stability.stable_fraction(), 0.0);
    assert_eq!(r.intervals_in_tuned_phases, 0);
}

#[test]
fn predictor_accelerates_periodic_recurrence() {
    // Pattern with runs (4 x A, 2 x B): the predictor learns the period
    // and pre-applies the next phase's configuration at run boundaries.
    let run_pattern = |use_predictor: bool| {
        let mut m = machine();
        let mut mgr = manager(use_predictor);
        mgr.on_start(&mut m);
        for cycle in 0..22 {
            for _ in 0..4 {
                run_interval(&mut m, &mut mgr, 0);
            }
            for _ in 0..2 {
                run_interval(&mut m, &mut mgr, 1);
            }
            let _ = cycle;
        }
        let r = mgr.report();
        (
            r.predictions,
            r.prediction_accuracy,
            r.intervals_in_tuned_phases,
        )
    };
    let (p_off, _, _) = run_pattern(false);
    let (p_on, acc, covered_on) = run_pattern(true);
    assert_eq!(p_off, 0, "predictor off: no predictions");
    assert!(p_on > 10, "predictor on: predictions issued ({p_on})");
    assert!(acc > 0.8, "periodic pattern predicts accurately ({acc:.2})");
    assert!(covered_on > 0);
}

#[test]
fn interval_accounting_matches_execution() {
    let mut m = machine();
    let mut mgr = manager(false);
    mgr.on_start(&mut m);
    for _ in 0..25 {
        run_interval(&mut m, &mut mgr, 0);
    }
    let r = mgr.report();
    // 25 driven intervals, boundaries at >= 100_100 instructions.
    assert!(
        (24..=26).contains(&r.intervals),
        "intervals {}",
        r.intervals
    );
    assert_eq!(r.stability.total_intervals, r.intervals);
    assert!(r.covered_instr <= m.instret());
}
