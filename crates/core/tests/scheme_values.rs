//! Schemes are values: a configured [`Scheme`] run as a leg of one
//! `run_schemes` group measures exactly what its hand-built manager
//! measures alone, and reports what that manager reports.

use ace_core::{
    AceConfig, AceManager, BbvAceManager, BbvManagerConfig, Experiment, FixedManager,
    HotspotAceManager, HotspotManagerConfig, PdmManagerConfig, PositionalAceManager,
    PositionalManagerConfig, RunRecord, Scheme, SchemeExt, SchemeManager,
};
use ace_energy::EnergyModel;
use ace_phase::BbvConfig;
use ace_runtime::DoConfig;
use ace_sim::SizeLevel;

const WORKLOAD: &str = "javac";
const LIMIT: u64 = 2_000_000;

/// Aggressive promotion, so hotspots tune within the short run.
fn experiment() -> Experiment {
    Experiment::workload(WORKLOAD)
        .do_config(DoConfig {
            hot_threshold: 2,
            probe_invocations: 1,
            ..DoConfig::default()
        })
        .instruction_limit(LIMIT)
}

fn json(record: &RunRecord) -> String {
    serde_json::to_string(record).unwrap()
}

/// Runs `manager` alone and returns its serialized record and the
/// payload `ext` reads off the manager after the run.
fn solo<M: AceManager>(
    mut manager: M,
    ext: impl FnOnce(&M, &RunRecord) -> SchemeExt,
) -> (String, SchemeExt) {
    let record = experiment().run_with(&mut manager).unwrap();
    let ext = ext(&manager, &record);
    (json(&record), ext)
}

/// The hotspot manager's own report, with the machine-counted guard
/// rejections filled in.
fn hotspot_ext(manager: &HotspotAceManager, record: &RunRecord) -> SchemeExt {
    let mut report = manager.report();
    report.guard_rejections = record.counters.guard_rejections;
    match SchemeManager::scheme_report(manager, record).ext {
        // PDM wraps the same hotspot report with its prediction counts.
        SchemeExt::Pdm(pdm) => {
            assert_eq!(pdm.base, report, "PDM reports its hotspot substrate");
            SchemeExt::Pdm(pdm)
        }
        _ => SchemeExt::Hotspot(report),
    }
}

#[test]
fn configured_legs_equal_their_hand_built_managers_alone() {
    let model = EnergyModel::default_180nm();
    let program = ace_workloads::preset(WORKLOAD).unwrap();
    let smallest = AceConfig::both(SizeLevel::SMALLEST, SizeLevel::SMALLEST);
    let coupled = HotspotManagerConfig {
        decouple: false,
        ..HotspotManagerConfig::default()
    };
    let predicted = BbvManagerConfig {
        use_predictor: true,
        ..BbvManagerConfig::default()
    };
    let short_intervals = BbvManagerConfig {
        bbv: BbvConfig {
            interval_instr: 250_200,
            ..BbvConfig::default()
        },
        ..BbvManagerConfig::default()
    };
    let positional = PositionalManagerConfig::default();
    let never_predicts = PdmManagerConfig {
        distance_threshold: 0.0,
        ..PdmManagerConfig::default()
    };
    let bbv_ext = |manager: &BbvAceManager, _: &RunRecord| SchemeExt::Bbv(manager.report());
    let cases = [
        (
            Scheme::Fixed(smallest),
            solo(FixedManager::new(smallest), |_, _| SchemeExt::None),
        ),
        (
            Scheme::Hotspot(coupled.clone()),
            solo(HotspotAceManager::new(coupled, model), hotspot_ext),
        ),
        (
            Scheme::Bbv(predicted.clone()),
            solo(BbvAceManager::new(predicted, model), bbv_ext),
        ),
        (
            Scheme::Bbv(short_intervals.clone()),
            solo(BbvAceManager::new(short_intervals, model), bbv_ext),
        ),
        (
            Scheme::Positional(positional.clone()),
            solo(
                PositionalAceManager::new(&program, positional, model),
                |manager, _| SchemeExt::Positional(manager.report()),
            ),
        ),
        (
            Scheme::Pdm(never_predicts.clone()),
            solo(HotspotAceManager::pdm(never_predicts, model), hotspot_ext),
        ),
    ];
    let (schemes, solos): (Vec<_>, Vec<_>) = cases.into_iter().unzip();
    let runs = experiment().run_schemes(schemes.clone()).unwrap();
    assert_eq!(runs.len(), schemes.len());
    for ((scheme, (record, ext)), run) in schemes.iter().zip(solos).zip(&runs) {
        assert_eq!(run.scheme, scheme.name());
        assert_eq!(run.report.scheme, scheme.name());
        assert_eq!(
            json(&run.record),
            record,
            "{scheme:?}: the leg measures what its manager measures alone"
        );
        assert_eq!(
            run.report.ext, ext,
            "{scheme:?}: the leg reports what its manager reports"
        );
    }
}

#[test]
fn configurations_reach_the_managers() {
    // Each configured leg measures or reports differently from its
    // scheme's default, so the equalities above would catch a `build` arm
    // that drops its configuration.
    let runs = experiment()
        .run_schemes([
            Scheme::Hotspot(HotspotManagerConfig::default()),
            Scheme::Hotspot(HotspotManagerConfig {
                decouple: false,
                ..HotspotManagerConfig::default()
            }),
            Scheme::Bbv(BbvManagerConfig::default()),
            Scheme::Bbv(BbvManagerConfig {
                bbv: BbvConfig {
                    interval_instr: 250_200,
                    ..BbvConfig::default()
                },
                ..BbvManagerConfig::default()
            }),
            Scheme::Baseline,
            Scheme::Fixed(AceConfig::both(SizeLevel::SMALLEST, SizeLevel::SMALLEST)),
        ])
        .unwrap();
    for pair in runs.chunks(2) {
        let [default, configured] =
            [&pair[0], &pair[1]].map(|run| (json(&run.record), &run.report));
        assert_ne!(
            default, configured,
            "{} default vs configured",
            pair[0].scheme
        );
    }
}
