//! Shared runs: schemes run as legs of one executor stream
//! ([`Experiment::run_schemes`], [`Experiment::run_legs`]) must produce,
//! leg for leg, the records, reports and telemetry of the same runs made
//! one at a time.

use ace_core::{Experiment, ExperimentError, Leg, NullManager, SchemeRun};
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
