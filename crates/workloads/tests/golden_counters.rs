//! Golden-counter equivalence tests for the data-oriented hot-path
//! rewrite of the simulator core.
//!
//! Every counter below was captured from the pre-rewrite implementation
//! (array-of-structs cache lines, u64-timestamp LRU, per-reference walk
//! dispatch) on three seeded preset workloads, with mid-run resizes of
//! all three configurable units to exercise the selective-sets
//! transition paths. The rewritten core must reproduce them **exactly**
//! — these runs pin the architectural behavior (hit/miss/writeback
//! sequences, LRU victim choices, stat attribution per size level, cycle
//! accounting), not just aggregate ratios. Any divergence here means the
//! optimization changed simulated behavior, which the whole bench
//! trajectory (content-addressed result caching, byte-identical summary
//! tests) depends on never happening.

use ace_sim::{Block, CuId, Machine, MachineConfig, SizeLevel};
use ace_workloads::{preset, Executor};

/// Expected counters for one pinned run.
struct Golden {
    name: &'static str,
    blocks: u64,
    instret: u64,
    cycles: u64,
    l1i_acc: [u64; 4],
    l1i_miss: [u64; 4],
    l1d_acc: [u64; 4],
    l1d_miss: [u64; 4],
    l1d_stores: [u64; 4],
    l1d_wb: [u64; 4],
    l1d_flushwb: [u64; 4],
    l1d_resizes: [u64; 4],
    l2_acc: [u64; 4],
    l2_miss: [u64; 4],
    l2_stores: [u64; 4],
    l2_wb: [u64; 4],
    l2_flushwb: [u64; 4],
    l2_resizes: [u64; 4],
    dtlb_acc: u64,
    dtlb_miss: u64,
    branches: u64,
    mispredicts: u64,
    window_instr: [u64; 4],
    window_resizes: [u64; 4],
}

const GOLDEN: &[Golden] = &[
    Golden {
        name: "db",
        blocks: 63837,
        instret: 2000027,
        cycles: 574074,
        l1i_acc: [63837, 0, 0, 0],
        l1i_miss: [300, 0, 0, 0],
        l1d_acc: [461830, 0, 133958, 0],
        l1d_miss: [2121, 0, 97, 0],
        l1d_stores: [105732, 0, 32713, 0],
        l1d_wb: [487, 0, 97, 0],
        l1d_flushwb: [553, 0, 89, 0],
        l1d_resizes: [1, 0, 1, 0],
        l2_acc: [1542, 331, 0, 1871],
        l2_miss: [1024, 64, 0, 686],
        l2_stores: [606, 186, 0, 434],
        l2_wb: [0, 0, 0, 58],
        l2_flushwb: [0, 366, 0, 0],
        l2_resizes: [1, 1, 0, 0],
        dtlb_acc: 595788,
        dtlb_miss: 38,
        branches: 63837,
        mispredicts: 8828,
        window_instr: [165633, 1834394, 0, 0],
        window_resizes: [1, 0, 0, 0],
    },
    Golden {
        name: "compress",
        blocks: 58418,
        instret: 2000005,
        cycles: 633111,
        l1i_acc: [58418, 0, 0, 0],
        l1i_miss: [252, 0, 0, 0],
        l1d_acc: [450049, 0, 143032, 0],
        l1d_miss: [37158, 0, 215, 0],
        l1d_stores: [102082, 0, 32685, 0],
        l1d_wb: [15884, 0, 121, 0],
        l1d_flushwb: [396, 0, 172, 0],
        l1d_resizes: [1, 0, 1, 0],
        l2_acc: [14924, 580, 0, 38694],
        l2_miss: [1452, 107, 0, 1403],
        l2_stores: [4468, 293, 0, 11812],
        l2_wb: [0, 0, 0, 613],
        l2_flushwb: [148, 920, 0, 0],
        l2_resizes: [1, 1, 0, 0],
        dtlb_acc: 593081,
        dtlb_miss: 55,
        branches: 58418,
        mispredicts: 4796,
        window_instr: [205207, 1794798, 0, 0],
        window_resizes: [1, 0, 0, 0],
    },
    Golden {
        name: "mpeg",
        blocks: 62823,
        instret: 2000013,
        cycles: 608748,
        l1i_acc: [62823, 0, 0, 0],
        l1i_miss: [252, 0, 0, 0],
        l1d_acc: [460727, 0, 133662, 0],
        l1d_miss: [29901, 0, 104, 0],
        l1d_stores: [100049, 0, 30960, 0],
        l1d_wb: [12588, 0, 60, 0],
        l1d_flushwb: [370, 0, 93, 0],
        l1d_resizes: [1, 0, 1, 0],
        l2_acc: [11797, 329, 0, 31242],
        l2_miss: [1393, 77, 0, 1162],
        l2_stores: [3589, 153, 0, 9369],
        l2_wb: [0, 0, 0, 608],
        l2_flushwb: [60, 750, 0, 0],
        l2_resizes: [1, 1, 0, 0],
        dtlb_acc: 594389,
        dtlb_miss: 50,
        branches: 62823,
        mispredicts: 2236,
        window_instr: [181122, 1818891, 0, 0],
        window_resizes: [1, 0, 0, 0],
    },
];

/// Runs `name` for 2 M instructions on the Table 2 machine, resizing all
/// three CUs at two fixed block counts (shrink at 5 K blocks, partial
/// grow-back at 20 K) so the transition accounting is exercised mid-run.
fn run_pinned(name: &str) -> (u64, Machine) {
    let p = preset(name).expect("preset exists");
    let mut exec = Executor::new(&p);
    exec.set_instruction_limit(2_000_000);
    let mut m = Machine::new(MachineConfig::table2()).unwrap();
    let mut buf = Block::with_capacity(64);
    let mut nb = 0u64;
    while exec.next_block(&mut buf) {
        m.exec_block(&buf);
        nb += 1;
        if nb == 5_000 {
            m.apply_resize(CuId::L1d, SizeLevel::new(2).unwrap());
            m.apply_resize(CuId::L2, SizeLevel::new(1).unwrap());
            m.apply_resize(CuId::Window, SizeLevel::new(1).unwrap());
        }
        if nb == 20_000 {
            m.apply_resize(CuId::L1d, SizeLevel::LARGEST);
            m.apply_resize(CuId::L2, SizeLevel::new(3).unwrap());
        }
    }
    (nb, m)
}

#[test]
fn counters_match_pre_rewrite_golden_values() {
    for g in GOLDEN {
        let (blocks, mut m) = run_pinned(g.name);
        let c = m.counters().clone();
        assert_eq!(blocks, g.blocks, "{}: block count", g.name);
        assert_eq!(c.instret, g.instret, "{}: instret", g.name);
        assert_eq!(c.cycles, g.cycles, "{}: cycles", g.name);
        assert_eq!(c.l1i.accesses, g.l1i_acc, "{}: l1i accesses", g.name);
        assert_eq!(c.l1i.misses, g.l1i_miss, "{}: l1i misses", g.name);
        assert_eq!(c.l1d.accesses, g.l1d_acc, "{}: l1d accesses", g.name);
        assert_eq!(c.l1d.misses, g.l1d_miss, "{}: l1d misses", g.name);
        assert_eq!(c.l1d.stores, g.l1d_stores, "{}: l1d stores", g.name);
        assert_eq!(c.l1d.writebacks, g.l1d_wb, "{}: l1d writebacks", g.name);
        assert_eq!(
            c.l1d.flush_writebacks, g.l1d_flushwb,
            "{}: l1d flush writebacks",
            g.name
        );
        assert_eq!(c.l1d.resizes, g.l1d_resizes, "{}: l1d resizes", g.name);
        assert_eq!(c.l2.accesses, g.l2_acc, "{}: l2 accesses", g.name);
        assert_eq!(c.l2.misses, g.l2_miss, "{}: l2 misses", g.name);
        assert_eq!(c.l2.stores, g.l2_stores, "{}: l2 stores", g.name);
        assert_eq!(c.l2.writebacks, g.l2_wb, "{}: l2 writebacks", g.name);
        assert_eq!(
            c.l2.flush_writebacks, g.l2_flushwb,
            "{}: l2 flush writebacks",
            g.name
        );
        assert_eq!(c.l2.resizes, g.l2_resizes, "{}: l2 resizes", g.name);
        assert_eq!(c.dtlb.accesses, g.dtlb_acc, "{}: dtlb accesses", g.name);
        assert_eq!(c.dtlb.misses, g.dtlb_miss, "{}: dtlb misses", g.name);
        assert_eq!(c.branch.branches, g.branches, "{}: branches", g.name);
        assert_eq!(
            c.branch.mispredicts, g.mispredicts,
            "{}: mispredicts",
            g.name
        );
        assert_eq!(c.window_instr, g.window_instr, "{}: window instr", g.name);
        assert_eq!(
            c.window_resizes, g.window_resizes,
            "{}: window resizes",
            g.name
        );
    }
}

#[test]
fn pinned_runs_are_reproducible() {
    let (_, mut a) = run_pinned("db");
    let (_, mut b) = run_pinned("db");
    assert_eq!(a.counters(), b.counters());
}
