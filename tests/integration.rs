//! Cross-crate integration tests: workloads → runtime → simulator →
//! managers, exercised end-to-end the way the experiment harness uses
//! them. Runs are capped at a few million instructions so the suite stays
//! fast in debug builds; the full-length reproduction lives in
//! `crates/bench`.

use ace::core::{
    AceConfig, BbvAceManager, BbvManagerConfig, Experiment, HotspotAceManager,
    HotspotManagerConfig, Scheme,
};
use ace::energy::EnergyModel;
use ace::sim::SizeLevel;

fn exp(name: &str, limit: u64) -> Experiment {
    Experiment::workload(name).instruction_limit(limit)
}

#[test]
fn every_preset_runs_under_every_scheme() {
    let model = EnergyModel::default_180nm();
    for name in ace::workloads::PRESET_NAMES {
        let base = exp(name, 2_000_000).run().unwrap();
        assert!(
            base.ipc > 1.0 && base.ipc <= 4.0,
            "{name}: baseline ipc {}",
            base.ipc
        );
        assert!(base.energy.total_nj() > 0.0);

        let mut bbv = BbvAceManager::new(BbvManagerConfig::default(), model);
        let b = exp(name, 2_000_000).run_with(&mut bbv).unwrap();
        assert_eq!(b.instret, base.instret, "{name}: same instruction stream");

        let mut hs = HotspotAceManager::new(HotspotManagerConfig::default(), model);
        let h = exp(name, 2_000_000).run_with(&mut hs).unwrap();
        assert_eq!(h.instret, base.instret);
    }
}

#[test]
fn full_pipeline_is_deterministic() {
    let model = EnergyModel::default_180nm();
    let mut a_mgr = HotspotAceManager::new(HotspotManagerConfig::default(), model);
    let a = exp("jess", 3_000_000).run_with(&mut a_mgr).unwrap();
    let mut b_mgr = HotspotAceManager::new(HotspotManagerConfig::default(), model);
    let b = exp("jess", 3_000_000).run_with(&mut b_mgr).unwrap();
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.counters, b.counters);
    assert_eq!(a_mgr.report(), b_mgr.report());
}

#[test]
fn hotspot_scheme_saves_energy_on_db() {
    // db's defining property: tiny working sets, so even a short run shows
    // substantial L1D savings once tuning completes.
    let base = exp("db", 30_000_000).run().unwrap();
    let mut mgr = HotspotAceManager::new(
        HotspotManagerConfig::default(),
        EnergyModel::default_180nm(),
    );
    let run = exp("db", 30_000_000).run_with(&mut mgr).unwrap();
    assert!(
        run.l1d_saving_vs(&base) > 0.25,
        "db L1D saving {:.3} too small",
        run.l1d_saving_vs(&base)
    );
    assert!(
        run.slowdown_vs(&base) < 0.08,
        "slowdown {:.3}",
        run.slowdown_vs(&base)
    );
    let report = mgr.report();
    assert!(
        report.l1d_hotspots() >= 5,
        "L1D hotspots {}",
        report.l1d_hotspots()
    );
    assert!(report.tuned_fraction() > 0.5);
}

#[test]
fn detection_statistics_are_consistent() {
    let mut mgr = HotspotAceManager::new(
        HotspotManagerConfig::default(),
        EnergyModel::default_180nm(),
    );
    let run = exp("compress", 20_000_000).run_with(&mut mgr).unwrap();
    let report = mgr.report();

    let t4 = &run.table4;
    assert!(t4.hotspots >= report.l1d_hotspots() + report.l2_hotspots());
    assert!(t4.pct_code_in_hotspots <= 100.0);
    assert!(t4.identification_latency_pct <= 100.0);
    assert!(report.tuned_hotspots <= report.l1d_hotspots() + report.l2_hotspots());
    assert!(report.l1d().covered_instr <= run.instret);
    assert!(report.l2().covered_instr <= run.instret);
}

#[test]
fn bbv_scheme_reports_are_consistent() {
    let mut mgr = BbvAceManager::new(BbvManagerConfig::default(), EnergyModel::default_180nm());
    let run = exp("mpeg", 25_000_000).run_with(&mut mgr).unwrap();
    let report = mgr.report();

    assert!(report.intervals >= 20, "intervals {}", report.intervals);
    assert_eq!(report.stability.total_intervals, report.intervals);
    assert!(report.tuned_phases <= report.phases);
    assert!(report.intervals_in_tuned_phases <= report.intervals);
    assert!(report.covered_instr <= run.instret);
    assert!(report.per_phase_ipc_cov >= 0.0);
}

#[test]
fn fixed_configurations_trade_energy_for_ipc() {
    let base = exp("jess", 5_000_000).run().unwrap();
    let small = exp("jess", 5_000_000)
        .scheme(Scheme::Fixed(AceConfig::both(
            SizeLevel::SMALLEST,
            SizeLevel::SMALLEST,
        )))
        .run()
        .unwrap();
    // The smallest configuration always burns less leakage...
    assert!(small.energy.l1d_leak_nj < base.energy.l1d_leak_nj);
    assert!(small.energy.l2_leak_nj < base.energy.l2_leak_nj);
    // ...but cannot be faster.
    assert!(small.ipc <= base.ipc * 1.001);
}

#[test]
fn decoupling_outperforms_coupled_tuning() {
    let model = EnergyModel::default_180nm();
    let base = exp("mpeg", 40_000_000).run().unwrap();

    let mut on = HotspotAceManager::new(HotspotManagerConfig::default(), model);
    let r_on = exp("mpeg", 40_000_000).run_with(&mut on).unwrap();
    let mut off = HotspotAceManager::new(
        HotspotManagerConfig {
            decouple: false,
            ..HotspotManagerConfig::default()
        },
        model,
    );
    let r_off = exp("mpeg", 40_000_000).run_with(&mut off).unwrap();

    let sav_on = r_on.saving_vs(&base);
    let sav_off = r_off.saving_vs(&base);
    assert!(
        sav_on > sav_off,
        "decoupling on ({sav_on:.3}) must beat off ({sav_off:.3})"
    );
    // Coupled tuning needs more trials per tuned hotspot.
    let rep_on = on.report();
    let rep_off = off.report();
    let per_on =
        (rep_on.l1d().tunings + rep_on.l2().tunings) as f64 / rep_on.tuned_hotspots.max(1) as f64;
    let per_off = (rep_off.l1d().tunings + rep_off.l2().tunings) as f64
        / rep_off.tuned_hotspots.max(1) as f64;
    assert!(
        per_off > per_on,
        "coupled {per_off:.1} vs decoupled {per_on:.1} trials/hotspot"
    );
}

#[test]
fn guard_rejections_only_without_decoupling() {
    // With decoupling, small hotspots never touch the L2, so the hardware
    // guard is essentially idle; the coupled ablation hammers it.
    let model = EnergyModel::default_180nm();
    let mut on = HotspotAceManager::new(HotspotManagerConfig::default(), model);
    let r_on = exp("jess", 20_000_000).run_with(&mut on).unwrap();
    let mut off = HotspotAceManager::new(
        HotspotManagerConfig {
            decouple: false,
            ..HotspotManagerConfig::default()
        },
        model,
    );
    let r_off = exp("jess", 20_000_000).run_with(&mut off).unwrap();
    assert!(
        r_off.counters.guard_rejections > r_on.counters.guard_rejections,
        "coupled {} vs decoupled {}",
        r_off.counters.guard_rejections,
        r_on.counters.guard_rejections
    );
}

#[test]
fn prediction_extension_eliminates_tuning() {
    let program = ace::workloads::preset("db").unwrap();
    let model = EnergyModel::default_180nm();
    let mut mgr = HotspotAceManager::new(HotspotManagerConfig::default(), model);
    // Predict the smallest L1D and a mid L2 for every method.
    for id in 0..program.method_count() as u32 {
        mgr.set_prediction(
            ace::workloads::MethodId(id),
            AceConfig::both(SizeLevel::SMALLEST, SizeLevel::new(2).unwrap()),
        );
    }
    let _ = Experiment::program(program.clone())
        .instruction_limit(20_000_000)
        .run_with(&mut mgr)
        .unwrap();
    let report = mgr.report();
    assert_eq!(
        report.l1d().tunings + report.l2().tunings,
        0,
        "predictions skip trials"
    );
    assert!(report.l1d().reconfigs > 0, "predicted configs are applied");
}
