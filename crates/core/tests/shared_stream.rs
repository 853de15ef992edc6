//! Shared runs: schemes run as legs of one executor stream
//! ([`Experiment::run_schemes`], [`Experiment::run_legs`]) must produce,
//! leg for leg, the records, reports and telemetry of the same runs made
//! one at a time, also when a leg brings its own run configuration.

use ace_core::{
    Experiment, ExperimentError, HotspotManagerConfig, Leg, NullManager, RunConfig, Scheme,
    SchemeRun, SchemeSpec,
};
use ace_energy::EnergyModel;
use ace_runtime::DoConfig;
use ace_telemetry::{Event, Telemetry};

const LIMIT: u64 = 2_000_000;
const SCHEMES: [&str; 5] = ["baseline", "hotspot", "bbv", "positional", "pdm"];

fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("serializes")
}

fn assert_same_run(shared: &SchemeRun, solo: &SchemeRun) {
    assert_eq!(shared.scheme, solo.scheme);
    assert_eq!(
        json(&shared.record),
        json(&solo.record),
        "{}: shared-stream record differs from the solo run",
        solo.scheme
    );
    assert_eq!(
        shared.report, solo.report,
        "{}: report differs",
        solo.scheme
    );
}

#[test]
fn every_scheme_as_a_leg_matches_its_solo_run() {
    let shared = Experiment::workload("jess")
        .instruction_limit(LIMIT)
        .run_schemes(SCHEMES)
        .unwrap();
    assert_eq!(shared.len(), SCHEMES.len());
    for (run, scheme) in shared.iter().zip(SCHEMES) {
        let solo = Experiment::workload("jess")
            .scheme(scheme)
            .instruction_limit(LIMIT)
            .run_scheme()
            .unwrap();
        assert_same_run(run, &solo);
    }
}

#[test]
fn threaded_legs_match_their_solo_runs() {
    let (program, entries) = ace_workloads::mtrt_threaded();
    let experiment = || {
        Experiment::program(program.clone())
            .threaded(&entries, 500_000)
            .instruction_limit(3_000_000)
    };
    let shared = experiment().run_schemes(["baseline", "hotspot"]).unwrap();
    for run in &shared {
        let solo = experiment()
            .scheme(run.scheme.as_str())
            .run_scheme()
            .unwrap();
        assert_same_run(run, &solo);
        assert!(run.record.workload.contains("2T"));
    }
}

/// Events and metrics counters a traced closure leaves in a fresh handle.
fn traced(run: impl FnOnce(&Telemetry)) -> (Vec<Event>, String) {
    let (telemetry, sink) = Telemetry::buffered();
    run(&telemetry);
    let metrics = telemetry
        .metrics()
        .expect("buffered telemetry keeps metrics");
    let counters = format!("{:?}", metrics.snapshot().counters);
    (sink.drain(), counters)
}

#[test]
fn shared_telemetry_replays_each_leg_in_scheme_order() {
    let schemes = ["baseline", "bbv", "hotspot"];
    let shared = traced(|tel| {
        Experiment::workload("db")
            .instruction_limit(LIMIT)
            .telemetry(tel)
            .run_schemes(schemes)
            .unwrap();
    });
    let solo = traced(|tel| {
        for scheme in schemes {
            Experiment::workload("db")
                .scheme(scheme)
                .instruction_limit(LIMIT)
                .telemetry(tel)
                .run_scheme()
                .unwrap();
        }
    });
    assert!(!solo.0.is_empty(), "the solo runs must emit events");
    assert_eq!(shared.0, solo.0, "event streams differ");
    assert_eq!(shared.1, solo.1, "metrics counters differ");
}

/// Leg configurations that differ from the default in the machine, the
/// DO system or the energy model, each at the tests' instruction limit.
fn leg_configs() -> Vec<RunConfig> {
    let base = RunConfig {
        instruction_limit: Some(LIMIT),
        ..RunConfig::default()
    };
    let mut dtlb = base.clone();
    dtlb.machine.dtlb_configurable = true;
    dtlb.do_config = DoConfig::for_registry(&dtlb.machine.cu_registry());
    dtlb.energy = EnergyModel::default_180nm_with_dtlb();
    let mut eager = base.clone();
    eager.do_config.hot_threshold = 2;
    let window = RunConfig {
        do_config: DoConfig::with_window(),
        ..base.clone()
    };
    let mut idle = base;
    idle.energy.l1d.leak_nj_per_cycle_max *= 4.0;
    idle.energy.l2.leak_nj_per_cycle_max *= 4.0;
    vec![dtlb, eager, window, idle]
}

#[test]
fn configured_legs_match_their_solo_runs() {
    let hotspot = Scheme::Hotspot(HotspotManagerConfig::default());
    let experiment = |tel: &Telemetry| {
        Experiment::workload("javac")
            .instruction_limit(LIMIT)
            .telemetry(tel)
    };
    let mut shared = Vec::new();
    let shared_trace = traced(|tel| {
        let configured = leg_configs()
            .into_iter()
            .map(|cfg| SchemeSpec::from((cfg, hotspot.clone())));
        let legs = std::iter::once("hotspot".into()).chain(configured);
        shared = experiment(tel).run_schemes(legs).unwrap();
    });
    let mut solo = Vec::new();
    let solo_trace = traced(|tel| {
        solo.push(experiment(tel).scheme("hotspot").run_scheme().unwrap());
        for cfg in leg_configs() {
            let run = Experiment::workload("javac")
                .config(cfg)
                .telemetry(tel)
                .scheme(hotspot.clone())
                .run_scheme();
            solo.push(run.unwrap());
        }
    });
    assert_eq!(shared.len(), solo.len());
    for (shared, solo) in shared.iter().zip(&solo) {
        assert_same_run(shared, solo);
    }
    assert!(!solo_trace.0.is_empty(), "the solo runs must emit events");
    assert_eq!(shared_trace, solo_trace, "events or metrics differ");
    // Every configuration reaches its leg: none measures what the leg
    // under the experiment's configuration measures, and only the DTLB
    // leg's machine resizes its DTLB.
    for run in &shared[1..] {
        assert_ne!(json(&run.record), json(&shared[0].record));
    }
    let dtlb_resizes = |run: &SchemeRun| run.record.counters.dtlb_resizes.iter().sum::<u64>();
    assert!(dtlb_resizes(&shared[1]) > 0, "the DTLB leg adapts its DTLB");
    assert_eq!(dtlb_resizes(&shared[0]), 0);
}

#[test]
fn a_leg_configured_for_another_stream_is_an_error() {
    let hotspot = Scheme::Hotspot(HotspotManagerConfig::default());
    let reseeded = RunConfig {
        instruction_limit: Some(LIMIT),
        workload_seed: Some(7),
        ..RunConfig::default()
    };
    for cfg in [RunConfig::default(), reseeded] {
        let err = Experiment::workload("db")
            .instruction_limit(LIMIT)
            .run_schemes([SchemeSpec::from("baseline"), (cfg, hotspot.clone()).into()])
            .unwrap_err();
        assert_eq!(err, ExperimentError::LegStream("hotspot".into()));
        assert!(err.to_string().contains("hotspot leg"), "{err}");
    }
}

#[test]
fn caller_built_legs_trace_into_their_own_handles() {
    let experiment = || {
        Experiment::workload("javac")
            .seed(11)
            .instruction_limit(LIMIT)
    };
    let build = || {
        let program = ace_workloads::preset("javac").unwrap();
        ace_core::SchemeRegistry::builtin()
            .get("hotspot")
            .unwrap()
            .build(&ace_core::SchemeCtx {
                program: &program,
                model: ace_energy::EnergyModel::default_180nm(),
            })
    };
    let (events, _) = traced(|tel| {
        let mut hotspot = build();
        let mut base = NullManager;
        let untraced = Telemetry::off();
        let records = experiment()
            .run_legs([Leg::new(&mut *hotspot, tel), Leg::new(&mut base, &untraced)])
            .unwrap();
        let solo_base = experiment().run_with(&mut NullManager).unwrap();
        assert_eq!(json(&records[1]), json(&solo_base));
        let mut solo_hotspot = build();
        let solo = experiment().run_with(&mut *solo_hotspot).unwrap();
        assert_eq!(json(&records[0]), json(&solo));
    });
    let (solo_events, _) = traced(|tel| {
        let mut hotspot = build();
        experiment().telemetry(tel).run_with(&mut *hotspot).unwrap();
    });
    assert!(!solo_events.is_empty());
    assert_eq!(events, solo_events, "only the traced leg emits, as alone");
}

#[test]
fn an_unknown_scheme_fails_the_whole_shared_run() {
    let err = Experiment::workload("db")
        .instruction_limit(LIMIT)
        .run_schemes(["baseline", "warp-drive"])
        .unwrap_err();
    assert_eq!(err, ExperimentError::UnknownScheme("warp-drive".into()));
}

#[test]
fn no_legs_means_no_runs() {
    let runs = Experiment::workload("db")
        .run_schemes(Vec::<&str>::new())
        .unwrap();
    assert!(runs.is_empty());
    let records = Experiment::workload("db").run_legs([]).unwrap();
    assert!(records.is_empty());
}
