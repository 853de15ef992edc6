//! Property-based tests (proptest) over the core data structures and
//! invariants: cache bookkeeping, resize semantics, the tuner state
//! machine, statistics accumulators, and workload generation.

use ace::core::{single_cu_list, AceConfig, ConfigTuner, Measurement};
use ace::sim::{
    Cache, CacheGeometry, CuId, Machine, MachineConfig, MemAccess, OnlineStats, SizeLevel,
};
use ace::workloads::{DetRng, Executor, MemPattern, ProgramBuilder, Step, Stmt};
use proptest::prelude::*;

fn small_geom() -> CacheGeometry {
    CacheGeometry {
        size_bytes: 8 * 1024,
        ways: 2,
        block_bytes: 64,
        hit_latency: 1,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After any access, the line is resident; counters stay consistent.
    #[test]
    fn cache_access_invariants(ops in prop::collection::vec((0u64..1u64<<20, any::<bool>()), 1..400)) {
        let mut c = Cache::new(small_geom()).unwrap();
        for &(addr, is_store) in &ops {
            c.access(addr, is_store);
            prop_assert!(c.contains(addr), "just-accessed line must be resident");
        }
        let s = c.stats();
        prop_assert_eq!(s.total_accesses(), ops.len() as u64);
        prop_assert!(s.total_misses() <= s.total_accesses());
        prop_assert!(s.stores.iter().sum::<u64>() <= s.total_accesses());
        prop_assert!(c.valid_lines() <= 8 * 1024 / 64);
        prop_assert!(c.dirty_lines() <= c.valid_lines());
    }

    /// Shrinking can only remove lines; lines in surviving sets remain,
    /// and the flush report accounts exactly for what disappeared.
    #[test]
    fn cache_resize_conservation(
        ops in prop::collection::vec((0u64..1u64<<18, any::<bool>()), 1..300),
        level in 0u8..4,
    ) {
        let mut c = Cache::new(small_geom()).unwrap();
        for &(addr, is_store) in &ops {
            c.access(addr, is_store);
        }
        let valid_before = c.valid_lines();
        let dirty_before = c.dirty_lines();
        let report = c.resize(SizeLevel::new(level).unwrap());
        prop_assert_eq!(c.valid_lines() + report.valid_lines, valid_before);
        prop_assert_eq!(c.dirty_lines() + report.dirty_lines, dirty_before);
        prop_assert!(report.dirty_lines <= report.valid_lines);
    }

    /// A resize round-trip never invents hits: every line reported
    /// resident after shrink+grow was resident before.
    #[test]
    fn cache_resize_no_phantom_lines(
        addrs in prop::collection::vec(0u64..1u64<<18, 1..200),
        level in 1u8..4,
    ) {
        let mut c = Cache::new(small_geom()).unwrap();
        for &a in &addrs {
            c.access(a, false);
        }
        let resident_before: Vec<u64> =
            addrs.iter().copied().filter(|&a| c.contains(a)).collect();
        c.resize(SizeLevel::new(level).unwrap());
        c.resize(SizeLevel::LARGEST);
        for &a in &addrs {
            if c.contains(a) {
                prop_assert!(resident_before.contains(&a), "phantom line {a:#x}");
            }
        }
    }

    /// The tuner always terminates, picks a configuration from its list,
    /// and never picks a non-reference configuration that violates the
    /// performance threshold.
    #[test]
    fn tuner_selection_sound(
        ipcs in prop::collection::vec(0.5f64..4.0, 4),
        epis in prop::collection::vec(0.01f64..2.0, 4),
        threshold in 0.0f64..0.3,
    ) {
        let list = single_cu_list(CuId::L1d);
        let mut t = ConfigTuner::new(list.clone(), threshold);
        let mut fed = Vec::new();
        let mut i = 0;
        while t.next_trial().is_some() {
            let m = Measurement { instr: 100_000, ipc: ipcs[i], epi_nj: epis[i] };
            fed.push((t.next_trial().unwrap(), m));
            t.record(m);
            i += 1;
            prop_assert!(i <= 4, "walk must terminate within the list length");
        }
        prop_assert!(t.is_done());
        let best = t.best().unwrap();
        prop_assert!(list.contains(&best));
        // If the best is not the reference, it met the threshold.
        if best != list[0] {
            let reference = fed[0].1.ipc;
            let chosen = fed.iter().find(|(c, _)| *c == best).unwrap().1;
            prop_assert!(chosen.ipc >= reference * (1.0 - threshold) - 1e-12);
        }
    }

    /// Domination is reflexive and transitive on full configurations.
    #[test]
    fn domination_is_a_preorder(a in 0u8..4, b in 0u8..4, c in 0u8..4,
                                d in 0u8..4, e in 0u8..4, f in 0u8..4) {
        let x = AceConfig::both(SizeLevel::new(a).unwrap(), SizeLevel::new(b).unwrap());
        let y = AceConfig::both(SizeLevel::new(c).unwrap(), SizeLevel::new(d).unwrap());
        let z = AceConfig::both(SizeLevel::new(e).unwrap(), SizeLevel::new(f).unwrap());
        prop_assert!(x.dominated_by(&x));
        if x.dominated_by(&y) && y.dominated_by(&z) {
            prop_assert!(x.dominated_by(&z));
        }
    }

    /// `AceConfig` serde round-trips losslessly through its sparse JSON
    /// shape for every combination of touched CUs and levels.
    #[test]
    fn ace_config_serde_round_trip(levels in prop::collection::vec(prop::option::of(0u8..4), 4)) {
        let mut cfg = AceConfig::empty();
        for (cu, lvl) in CuId::ALL.into_iter().zip(levels.iter()) {
            cfg.set(cu, lvl.map(|l| SizeLevel::new(l).unwrap()));
        }
        let json = serde_json::to_string(&cfg).unwrap();
        let back: AceConfig = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, cfg);
        prop_assert_eq!(format!("{back}"), format!("{cfg}"));
    }

    /// Every legacy `{l1d,l2,window}` JSON shape (nulls included) parses
    /// into the equivalent per-CU array form.
    #[test]
    fn ace_config_legacy_json_parses(
        l1d in prop::option::of(0u8..4),
        l2 in prop::option::of(0u8..4),
        window in prop::option::of(0u8..4),
    ) {
        let field = |v: Option<u8>| v.map_or("null".to_string(), |l| l.to_string());
        let json = format!(
            r#"{{"l1d":{},"l2":{},"window":{}}}"#,
            field(l1d), field(l2), field(window)
        );
        let parsed: AceConfig = serde_json::from_str(&json).unwrap();
        let mut want = AceConfig::empty();
        want.set(CuId::L1d, l1d.map(|l| SizeLevel::new(l).unwrap()));
        want.set(CuId::L2, l2.map(|l| SizeLevel::new(l).unwrap()));
        want.set(CuId::Window, window.map(|l| SizeLevel::new(l).unwrap()));
        prop_assert_eq!(parsed, want);
    }

    /// Welford merge equals sequential accumulation.
    #[test]
    fn online_stats_merge(xs in prop::collection::vec(-1e6f64..1e6, 2..100),
                          split in 1usize..99) {
        let split = split.min(xs.len() - 1);
        let mut all = OnlineStats::new();
        for &x in &xs { all.push(x); }
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        for &x in &xs[..split] { left.push(x); }
        for &x in &xs[split..] { right.push(x); }
        left.merge(&right);
        prop_assert_eq!(left.count(), all.count());
        prop_assert!((left.mean() - all.mean()).abs() <= 1e-6 * (1.0 + all.mean().abs()));
        prop_assert!(
            (left.population_variance() - all.population_variance()).abs()
                <= 1e-5 * (1.0 + all.population_variance())
        );
    }

    /// The deterministic RNG respects ranges.
    #[test]
    fn det_rng_ranges(seed in any::<u64>(), lo in 0u64..1000, span in 0u64..1000) {
        let mut rng = DetRng::new(seed);
        for _ in 0..50 {
            let v = rng.range(lo, lo + span);
            prop_assert!(v >= lo && v <= lo + span);
            let b = rng.below(span + 1);
            prop_assert!(b <= span);
        }
    }

    /// Randomly shaped programs build, validate, and execute with
    /// balanced enter/exit events and plausible instruction totals.
    #[test]
    fn random_programs_execute_cleanly(
        seed in any::<u64>(),
        leaf_instr in 100u64..5_000,
        calls in 1u32..20,
        loops in 1u32..8,
        ws in 256u64..32_768,
    ) {
        let mut b = ProgramBuilder::new("prop", seed);
        let region = b.alloc_region(ws);
        let pat = b.add_pattern(MemPattern::resident(region, ws));
        let leaf = b.add_method("leaf", vec![Stmt::Compute { ninstr: leaf_instr, pattern: pat }]);
        b.own_pattern(leaf, pat);
        let mid = b.add_method(
            "mid",
            vec![Stmt::Loop { count: loops, body: vec![Stmt::Call { callee: leaf, count: calls }] }],
        );
        let main = b.add_method("main", vec![Stmt::Call { callee: mid, count: 2 }]);
        let program = b.entry(main).build().unwrap();
        program.validate().unwrap();

        let mut exec = Executor::new(&program);
        let mut buf = ace::sim::Block::default();
        let mut depth: i64 = 0;
        let mut emitted = 0u64;
        loop {
            match exec.step(&mut buf) {
                Step::Enter(_) => depth += 1,
                Step::Exit(_) => { depth -= 1; prop_assert!(depth >= 0); }
                Step::Block => {
                    prop_assert!(depth > 0);
                    emitted += buf.ninstr as u64;
                    for a in &buf.accesses {
                        prop_assert!(a.addr >= region && a.addr < region + ws);
                    }
                }
                Step::Done => break,
            }
        }
        prop_assert_eq!(depth, 0);
        let expect = program.static_size(main);
        prop_assert!(emitted > expect / 2 && emitted < expect * 2,
            "emitted {} vs static {}", emitted, expect);
    }

    /// Machine counters never go backwards and the reconfiguration guard
    /// always enforces its interval.
    #[test]
    fn machine_guard_monotonic(levels in prop::collection::vec(0u8..4, 1..20)) {
        let mut m = Machine::new(MachineConfig::table2()).unwrap();
        let mut last_change_at: Option<u64> = None;
        for (i, &lvl) in levels.iter().enumerate() {
            // Retire some instructions between requests.
            for k in 0..40u64 {
                m.exec_block(&ace::sim::Block {
                    pc: 0x400,
                    ninstr: 50,
                    accesses: vec![MemAccess::load(0x8000 + (i as u64 * 40 + k) * 64)],
                    branch: None,
                });
            }
            let now = m.instret();
            let outcome = m.request_resize(CuId::L1d, SizeLevel::new(lvl).unwrap());
            if let ace::sim::ReconfigOutcome::Applied(_) = outcome {
                if let Some(prev) = last_change_at {
                    prop_assert!(now - prev >= m.config().l1d_reconfig_interval,
                        "guard violated: {} since last change", now - prev);
                }
                last_change_at = Some(now);
            }
        }
    }
}
