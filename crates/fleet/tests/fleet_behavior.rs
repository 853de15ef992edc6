//! End-to-end fleet behavior: determinism across worker counts, the
//! pinned event stream of a two-preset fleet, baseline legs equal to
//! solo baseline runs, the warm-start payoff (a warm fleet measurably
//! out-tunes a cold one), and store persistence across "process
//! restarts".
//!
//! Regenerate the event-stream fixture (only after an *intentional*
//! behaviour change):
//!
//! ```text
//! ACE_BLESS_GOLDEN=1 cargo test -p ace-fleet --test fleet_behavior
//! ```

use ace_core::{Experiment, NullManager};
use ace_fleet::{
    fleet_do_config, fleet_registry_version, render_report, run_fleet, FleetConfig, FleetOutcome,
    TuningStore,
};
use ace_telemetry::{EventKind, Telemetry};
use std::path::PathBuf;

/// A fleet small enough for tests but big enough to cross wave
/// boundaries (so intra-run warm starts happen).
fn test_config() -> FleetConfig {
    let mut cfg = FleetConfig::preset("smoke").expect("smoke preset");
    cfg.machines = 14;
    cfg.wave_size = 7;
    cfg.admit_limit = 7;
    cfg.measure_baseline = false;
    cfg
}

fn memory_store() -> TuningStore {
    TuningStore::in_memory(fleet_registry_version(), TuningStore::DEFAULT_CAPACITY)
}

/// Serializes an outcome for comparison; the schedule-dependent wall
/// field is `#[serde(skip)]`, so equal strings mean equal results.
fn fingerprint(outcome: &FleetOutcome) -> String {
    serde_json::to_string(outcome).expect("outcome serializes")
}

/// Everything observable about a cold then a warm pass: both outcome
/// fingerprints, the report text, the full telemetry event stream (one
/// JSON line per event) and the final store entries.
struct Traced {
    cold: String,
    warm: String,
    report: String,
    events: String,
    entries: String,
}

/// Every machine's baseline leg measures what a solo non-adaptive run
/// of its preset and seed measures, at any pool width.
#[test]
fn baseline_legs_match_solo_baseline_runs() {
    let mut cfg = FleetConfig::preset("smoke").expect("smoke preset");
    cfg.presets = vec!["db".into(), "jess".into()];
    cfg.machines = 4;
    cfg.wave_size = 2;
    cfg.admit_limit = 2;
    cfg.instruction_limit = 400_000;
    assert!(cfg.measure_baseline);
    for jobs in [1, 2] {
        let out = run_fleet(&cfg, &mut memory_store(), jobs, &Telemetry::off()).expect("fleet");
        assert_eq!(out.ran(), 4);
        for machine in &out.machines {
            let solo = Experiment::preset(&machine.spec.preset)
                .seed(machine.spec.seed)
                .do_config(fleet_do_config())
                .instruction_limit(cfg.instruction_limit)
                .run_with(&mut NullManager)
                .expect("solo baseline");
            assert_eq!(
                machine.baseline,
                Some((solo.ipc, solo.energy.l1d_nj, solo.energy.l2_nj)),
                "machine {} at jobs={jobs}",
                machine.spec.index
            );
        }
    }
}

fn traced_passes(cfg: &FleetConfig, jobs: usize) -> Traced {
    let (tel, sink) = Telemetry::buffered();
    let mut store = memory_store();
    let cold = run_fleet(cfg, &mut store, jobs, &tel).expect("cold pass");
    let warm = run_fleet(cfg, &mut store, jobs, &tel).expect("warm pass");
    let mut events = String::new();
    for event in sink.drain() {
        events.push_str(&serde_json::to_string(&event).expect("event serializes"));
        events.push('\n');
    }
    Traced {
        cold: fingerprint(&cold),
        warm: fingerprint(&warm),
        report: render_report(cfg, &cold, &warm, &store),
        events,
        entries: format!("{:?}", store.entries_sorted()),
    }
}

#[test]
fn fleet_is_byte_identical_across_worker_counts() {
    let cfg = test_config();
    let serial = traced_passes(&cfg, 1);
    let parallel = traced_passes(&cfg, 8);
    assert!(
        !serial.events.is_empty(),
        "the traced fleet must emit events"
    );
    assert_eq!(
        serial.cold, parallel.cold,
        "cold pass differs across widths"
    );
    assert_eq!(
        serial.warm, parallel.warm,
        "warm pass differs across widths"
    );
    assert_eq!(
        serial.report, parallel.report,
        "report text differs across widths"
    );
    assert_eq!(
        serial.events, parallel.events,
        "telemetry event stream differs across widths"
    );
    assert_eq!(
        serial.entries, parallel.entries,
        "final store differs across widths"
    );
}

/// A two-preset fleet: 16 machines alternating db and compress in waves
/// of 8 at 400 k instructions each — short enough for a debug build,
/// long enough that machines tune, publish and hit across waves.
fn two_preset_config() -> FleetConfig {
    let mut cfg = test_config();
    cfg.presets = vec!["db".into(), "compress".into()];
    cfg.machines = 16;
    cfg.wave_size = 8;
    cfg.admit_limit = 8;
    cfg.instruction_limit = 400_000;
    cfg
}

#[test]
fn two_preset_fleet_event_stream_matches_fixture() {
    let traced = traced_passes(&two_preset_config(), 2);
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("two-preset-fleet.events.jsonl");
    if std::env::var_os("ACE_BLESS_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("create fixture dir");
        std::fs::write(&path, &traced.events).expect("write fixture");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
    if traced.events != want {
        let got: Vec<&str> = traced.events.lines().collect();
        let want: Vec<&str> = want.lines().collect();
        let first_diff = got
            .iter()
            .zip(&want)
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| got.len().min(want.len()));
        panic!(
            "fleet event stream drifted ({} vs {} events), first diff at line {}:\n  got: {}\n want: {}",
            got.len(),
            want.len(),
            first_diff + 1,
            got.get(first_diff).unwrap_or(&"<eof>"),
            want.get(first_diff).unwrap_or(&"<eof>"),
        );
    }
}

#[test]
fn warm_fleet_tunes_measurably_less_than_cold() {
    let cfg = test_config();
    let mut store = memory_store();
    let tel = Telemetry::counting();
    let cold = run_fleet(&cfg, &mut store, 4, &tel).expect("cold pass");
    let warm = run_fleet(&cfg, &mut store, 4, &tel).expect("warm pass");

    assert!(cold.publishes() > 0, "cold fleet must seed the store");
    assert!(warm.hits() > 0, "warm fleet must hit the seeded store");
    assert!(warm.hit_rate() > cold.hit_rate());
    assert!(
        warm.tunings() < cold.tunings(),
        "warm fleet must spend fewer trials: warm {} vs cold {}",
        warm.tunings(),
        cold.tunings()
    );
    assert!(warm.trials_saved() > 0);
    // Telemetry agrees with the report rows.
    assert_eq!(
        tel.count(EventKind::WarmStartHit),
        cold.hits() + warm.hits()
    );
    assert_eq!(
        tel.count(EventKind::WarmStartMiss),
        cold.misses() + warm.misses()
    );
    assert_eq!(
        tel.count(EventKind::StorePublish),
        cold.publishes() + warm.publishes()
    );
    // The admission layer was idle: nothing shed at this shape.
    assert_eq!(cold.shed + warm.shed, 0);
}

#[test]
fn store_log_survives_restart_and_replays_to_the_same_fleet() {
    let dir = std::env::temp_dir().join(format!("ace_fleet_restart_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let log: PathBuf = dir.join("store.jsonl");
    let cfg = test_config();
    let version = fleet_registry_version();

    // First "process": cold + warm pass against a log-backed store.
    let warm_fingerprint = {
        let mut store = TuningStore::open(&log, version, 256).expect("open fresh store");
        let _cold = run_fleet(&cfg, &mut store, 4, &Telemetry::off()).expect("cold pass");
        let warm = run_fleet(&cfg, &mut store, 4, &Telemetry::off()).expect("warm pass");
        assert_eq!(
            warm.publishes(),
            0,
            "a fully warmed fleet republishes nothing"
        );
        fingerprint(&warm)
    };

    // Second "process": replay the log; the same fleet now warm-starts
    // from its first pass, byte-identical to the first run's warm pass
    // (the warm pass published nothing, so the replayed store state is
    // exactly what that pass saw).
    let mut store = TuningStore::open(&log, version, 256).expect("replay store log");
    assert!(!store.is_empty(), "log replay must restore entries");
    let replayed = run_fleet(&cfg, &mut store, 4, &Telemetry::off()).expect("replayed pass");
    assert_eq!(fingerprint(&replayed), warm_fingerprint);

    let _ = std::fs::remove_dir_all(&dir);
}
