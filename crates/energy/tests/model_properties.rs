//! Property tests for the energy model: monotonicity in size, additivity
//! across snapshots, and consistency between the breakdown and the raw
//! counters.

use ace_energy::{CacheEnergyParams, EnergyModel, WindowEnergyParams};
use ace_sim::{Block, CuId, Machine, MachineConfig, MemAccess, SizeLevel};
use proptest::prelude::*;

fn arb_cache_params() -> impl Strategy<Value = CacheEnergyParams> {
    (0.01f64..10.0, 0.1f64..1.0, 0.0f64..1.0, 0.0f64..10.0).prop_map(|(access, alpha, leak, wb)| {
        CacheEnergyParams {
            access_nj_max: access,
            access_alpha: alpha,
            leak_nj_per_cycle_max: leak,
            writeback_nj: wb,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Smaller levels never cost more per access or per cycle.
    #[test]
    fn energy_monotone_in_level(params in arb_cache_params()) {
        for pair in [(0u8, 1u8), (1, 2), (2, 3)] {
            let big = SizeLevel::new(pair.0).unwrap();
            let small = SizeLevel::new(pair.1).unwrap();
            prop_assert!(params.access_nj(small) <= params.access_nj(big));
            prop_assert!(params.leak_nj_per_cycle(small) <= params.leak_nj_per_cycle(big));
        }
        prop_assert!(params.validate().is_ok());
    }

    /// Window issue energy scales the same way.
    #[test]
    fn window_energy_monotone(issue in 0.01f64..2.0, alpha in 0.1f64..1.5, leak in 0.0f64..1.0) {
        let w = WindowEnergyParams { issue_nj_max: issue, issue_alpha: alpha, leak_nj_per_cycle_max: leak };
        for pair in [(0u8, 1u8), (1, 2), (2, 3)] {
            let big = SizeLevel::new(pair.0).unwrap();
            let small = SizeLevel::new(pair.1).unwrap();
            prop_assert!(w.issue_nj(small) <= w.issue_nj(big));
            prop_assert!(w.leak_nj_per_cycle(small) <= w.leak_nj_per_cycle(big));
        }
    }

    /// Energy of a run equals the sum of energies of its pieces
    /// (delta-additivity), and never decreases as execution proceeds.
    #[test]
    fn breakdown_is_additive_over_deltas(split in 1usize..39, nblocks in 40usize..120) {
        let model = EnergyModel::default_180nm_with_window();
        let mut m = Machine::new(MachineConfig::table2()).unwrap();
        let mut snapshots = Vec::new();
        snapshots.push(m.counters().clone());
        for i in 0..nblocks {
            m.exec_block(&Block {
                pc: 0x400 + (i as u64 % 8) * 64,
                ninstr: 32,
                accesses: vec![MemAccess::load(0x10_0000 + (i as u64) * 4096)],
                branch: None,
            });
            if i == split {
                snapshots.push(m.counters().clone());
            }
        }
        snapshots.push(m.counters().clone());

        let total = model.breakdown(&snapshots[2].delta_since(&snapshots[0])).total_nj();
        let part1 = model.breakdown(&snapshots[1].delta_since(&snapshots[0])).total_nj();
        let part2 = model.breakdown(&snapshots[2].delta_since(&snapshots[1])).total_nj();
        prop_assert!((total - (part1 + part2)).abs() < 1e-6 * total.max(1.0));
        prop_assert!(part1 >= 0.0 && part2 >= 0.0);
    }
}

#[test]
fn window_energy_counted_only_when_enabled() {
    let mut m = Machine::new(MachineConfig::table2()).unwrap();
    for _ in 0..100 {
        m.exec_block(&Block {
            pc: 0x400,
            ninstr: 40,
            accesses: vec![MemAccess::load(0x1000)],
            branch: None,
        });
    }
    let without = EnergyModel::default_180nm().breakdown(m.counters());
    let with = EnergyModel::default_180nm_with_window().breakdown(m.counters());
    assert_eq!(without.window_nj, 0.0);
    assert!(with.window_nj > 0.0);
    assert_eq!(without.l1d_nj, with.l1d_nj, "cache terms unaffected");
    assert!(with.total_nj() > without.total_nj());
}

#[test]
fn shrinking_the_window_saves_window_energy() {
    let model = EnergyModel::default_180nm_with_window();
    let run = |level: u8| {
        let mut m = Machine::new(MachineConfig::table2()).unwrap();
        m.apply_resize(CuId::Window, SizeLevel::new(level).unwrap());
        for _ in 0..2000 {
            m.exec_block(&Block {
                pc: 0x400,
                ninstr: 40,
                accesses: vec![MemAccess::load(0x1000)],
                branch: None,
            });
        }
        model.breakdown(m.counters()).window_nj
    };
    let big = run(0);
    let small = run(3);
    assert!(
        small < big * 0.5,
        "8-entry window must cost well under half of 64 entries: {small:.0} vs {big:.0}"
    );
}
