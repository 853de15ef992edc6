//! End-to-end behavior of the shared-store warm-start path inside one
//! process: a cold run publishes its convergences, a second run seeded
//! with those publications hits the store, adopts the selections, and
//! measures fewer tuning trials — the fleet payoff in miniature.

use ace_core::{
    registry_version, Experiment, HotspotAceManager, HotspotManagerConfig, WarmStartContext,
};
use ace_energy::EnergyModel;
use ace_runtime::DoConfig;
use ace_sim::MachineConfig;
use ace_telemetry::{EventKind, Telemetry};

const LIMIT: u64 = 8_000_000;

fn manager() -> HotspotAceManager {
    HotspotAceManager::new(
        HotspotManagerConfig::default(),
        EnergyModel::default_180nm(),
    )
}

fn version() -> u16 {
    registry_version(&MachineConfig::table2().cu_registry())
}

/// Promote aggressively so hotspots converge within [`LIMIT`].
fn fast_do() -> DoConfig {
    DoConfig {
        hot_threshold: 2,
        probe_invocations: 1,
        ..DoConfig::default()
    }
}

fn run(preset: &str, mgr: &mut HotspotAceManager, tel: &Telemetry) {
    Experiment::workload(preset)
        .do_config(fast_do())
        .instruction_limit(LIMIT)
        .telemetry(tel)
        .run_with(mgr)
        .expect("preset runs");
}

#[test]
fn cold_run_misses_and_publishes() {
    let mut mgr = manager();
    mgr.set_warm_start(WarmStartContext::new(version()));
    let tel = Telemetry::counting();
    run("db", &mut mgr, &tel);

    let report = mgr.report();
    assert_eq!(report.warm_hits, 0, "empty store cannot hit");
    assert!(report.warm_misses > 0, "adaptable hotspots must look up");
    assert!(report.store_publishes > 0, "cold convergences must publish");
    assert_eq!(tel.count(EventKind::WarmStartHit), 0);
    assert_eq!(tel.count(EventKind::WarmStartMiss), report.warm_misses);
    assert_eq!(tel.count(EventKind::StorePublish), report.store_publishes);

    let ctx = mgr.take_warm_start().expect("context attached");
    assert_eq!(ctx.publications().len() as u64, report.store_publishes);
}

#[test]
fn warm_run_hits_and_saves_trials() {
    // Cold machine: tune from scratch, collect publications.
    let mut cold = manager();
    cold.set_warm_start(WarmStartContext::new(version()));
    run("db", &mut cold, &Telemetry::off());
    let cold_report = cold.report();
    let publications = cold
        .take_warm_start()
        .expect("context attached")
        .into_publications();
    assert!(!publications.is_empty());

    // Warm machine: same workload behavior, store seeded with the cold
    // machine's selections.
    let mut ctx = WarmStartContext::new(version());
    for p in &publications {
        ctx.insert(p.signature, p.config);
    }
    let mut warm = manager();
    warm.set_warm_start(ctx);
    let tel = Telemetry::counting();
    run("db", &mut warm, &tel);
    let warm_report = warm.report();

    assert!(warm_report.warm_hits > 0, "seeded store must hit");
    assert!(warm_report.warm_trials_saved > 0);
    assert_eq!(tel.count(EventKind::WarmStartHit), warm_report.warm_hits);
    let cold_trials: u64 = cold_report.cu.iter().map(|s| s.tunings).sum();
    let warm_trials: u64 = warm_report.cu.iter().map(|s| s.tunings).sum();
    assert!(
        warm_trials < cold_trials,
        "warm start must measurably shorten tuning: warm {warm_trials} vs cold {cold_trials}"
    );
    // Warm adoptions republish nothing the store already has.
    assert!(warm_report.store_publishes <= cold_report.store_publishes);
}

#[test]
fn stale_registry_version_starts_cold() {
    let mut cold = manager();
    cold.set_warm_start(WarmStartContext::new(version()));
    run("db", &mut cold, &Telemetry::off());
    let publications = cold.take_warm_start().unwrap().into_publications();

    // Seed a context at a different registry version: every lookup is
    // computed against the new version, so the old keys cannot match.
    let stale_version = version().wrapping_add(1);
    let mut ctx = WarmStartContext::new(stale_version);
    for p in &publications {
        ctx.insert(p.signature, p.config);
    }
    let mut mgr = manager();
    mgr.set_warm_start(ctx);
    run("db", &mut mgr, &Telemetry::off());
    assert_eq!(
        mgr.report().warm_hits,
        0,
        "entries from another registry version must not apply"
    );
}

#[test]
fn warm_start_off_is_inert() {
    let mut mgr = manager();
    let tel = Telemetry::counting();
    run("db", &mut mgr, &tel);
    let report = mgr.report();
    assert_eq!(
        report.warm_hits + report.warm_misses + report.store_publishes,
        0
    );
    assert_eq!(tel.count(EventKind::WarmStartMiss), 0);
    assert!(mgr.take_warm_start().is_none());
}
