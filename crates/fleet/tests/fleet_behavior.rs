//! End-to-end fleet behavior: determinism across worker counts, the
//! pinned event stream of a two-preset fleet, baselines equal to solo
//! baseline runs whether measured or reused from the store's run ledger,
//! whole runs reused from the ledger equal to simulated ones, traced
//! passes that reuse no runs, reuse keyed on program content, seed and
//! limit, the warm-start payoff (a warm fleet measurably out-tunes a
//! cold one), and store persistence across "process restarts".
//!
//! Regenerate the event-stream fixture (only after an *intentional*
//! behaviour change):
//!
//! ```text
//! ACE_BLESS_GOLDEN=1 cargo test -p ace-fleet --test fleet_behavior
//! ```

use ace_core::{Experiment, NullManager};
use ace_fleet::{
    fleet_do_config, fleet_registry_version, render_report, run_fleet, run_fleet_observed,
    store_fingerprint, FleetConfig, FleetOutcome, LedgerCounts, ObsSampler, TuningStore,
};
use ace_telemetry::{EventKind, Telemetry};
use ace_workloads::{gen, GenParams};
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

/// The ledger counters of a metrics registry.
fn ledger_counts(metrics: &ace_telemetry::Metrics) -> LedgerCounts {
    LedgerCounts {
        baselines_measured: metrics.counter("fleet.baselines_measured").get(),
        baselines_reused: metrics.counter("fleet.baselines_reused").get(),
        runs_reused: metrics.counter("fleet.runs_reused").get(),
    }
}

/// One traced pass over `store` with its ledger counters, read from a
/// fresh metrics registry, and its per-kind event counts.
fn counted_pass(
    cfg: &FleetConfig,
    store: &mut TuningStore,
    jobs: usize,
) -> (FleetOutcome, LedgerCounts, Vec<u64>) {
    let tel = Telemetry::counting();
    let out = run_fleet(cfg, store, jobs, &tel).expect("fleet pass");
    let counts = ledger_counts(tel.metrics().expect("counting telemetry keeps metrics"));
    let events = EventKind::ALL.iter().map(|&kind| tel.count(kind)).collect();
    (out, counts, events)
}

/// One untraced pass over `store` with its ledger counters, read from
/// an obs sampler.
fn observed_pass(
    cfg: &FleetConfig,
    store: &mut TuningStore,
    jobs: usize,
) -> (FleetOutcome, LedgerCounts) {
    let mut sampler = ObsSampler::new("pass");
    let (out, counts) = run_fleet_observed(cfg, store, jobs, &Telemetry::off(), Some(&mut sampler))
        .expect("fleet pass");
    assert_eq!(
        ledger_counts(sampler.metrics()),
        counts,
        "the sampler counts what the driver returns"
    );
    (out, counts)
}

fn measured(n: u64) -> LedgerCounts {
    LedgerCounts {
        baselines_measured: n,
        ..LedgerCounts::default()
    }
}

fn reused(n: u64) -> LedgerCounts {
    LedgerCounts {
        baselines_reused: n,
        ..LedgerCounts::default()
    }
}

/// Four machines alternating db and jess in waves of two at the fleet's
/// budget: the cold pass publishes, and its second wave hits the first
/// wave's selections, so the warm pass can reuse the second wave's runs.
fn reuse_config() -> FleetConfig {
    let mut cfg = FleetConfig::preset("smoke").expect("smoke preset");
    cfg.presets = vec!["db".into(), "jess".into()];
    cfg.machines = 4;
    cfg.wave_size = 2;
    cfg.admit_limit = 2;
    assert_eq!(cfg.instruction_limit, 8_000_000);
    assert!(cfg.measure_baseline);
    cfg
}

/// A log-backed store at `dir/<tag>.jsonl` after a cold pass of `cfg`
/// traced with `cold`, and a store reopened from a copy of its log:
/// the same entries and stamps, but an empty run ledger.
fn session_and_replay(
    dir: &std::path::Path,
    tag: &str,
    cfg: &FleetConfig,
    jobs: usize,
    cold: &Telemetry,
) -> (TuningStore, TuningStore) {
    let (version, capacity) = (fleet_registry_version(), TuningStore::DEFAULT_CAPACITY);
    let log = dir.join(format!("{tag}.jsonl"));
    let mut session = TuningStore::open(&log, version, capacity).expect("open store");
    run_fleet(cfg, &mut session, jobs, cold).expect("cold pass");
    assert!(!session.is_empty(), "the cold pass must publish");
    let replay_log = dir.join(format!("{tag}-replay.jsonl"));
    std::fs::copy(&log, &replay_log).expect("copy store log");
    let reopened = TuningStore::open(&replay_log, version, capacity).expect("reopen");
    assert_eq!(
        store_fingerprint(&reopened),
        store_fingerprint(&session),
        "replay reproduces the session's entries and stamps"
    );
    (session, reopened)
}

/// What a solo non-adaptive run of `workload` (a preset name or a spec
/// path) measures: the baseline a fleet machine must report.
fn solo_baseline(workload: &str, seed: u64, limit: u64) -> Option<(f64, f64, f64)> {
    let solo = Experiment::workload(workload)
        .seed(seed)
        .do_config(fleet_do_config())
        .instruction_limit(limit)
        .run_with(&mut NullManager)
        .expect("solo baseline");
    Some((solo.ipc, solo.energy.l1d_nj, solo.energy.l2_nj))
}

/// Every machine's baseline equals what a solo non-adaptive run of its
/// preset and seed measures, at any pool width: in the cold pass, which
/// simulates it as a second leg, and in the warm pass, which reuses it
/// from the store's ledger.
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
        let mut store = memory_store();
        let (cold, cold_counts, _) = counted_pass(&cfg, &mut store, jobs);
        let (warm, warm_counts, _) = counted_pass(&cfg, &mut store, jobs);
        assert_eq!(cold_counts, measured(4), "jobs={jobs}");
        assert_eq!(warm_counts, reused(4), "jobs={jobs}");
        for (pass, out) in [("cold", &cold), ("warm", &warm)] {
            assert_eq!(out.ran(), 4);
            for machine in &out.machines {
                assert_eq!(
                    machine.baseline,
                    solo_baseline(
                        &machine.spec.preset,
                        machine.spec.seed,
                        cfg.instruction_limit
                    ),
                    "{pass} machine {} at jobs={jobs}",
                    machine.spec.index
                );
            }
        }
    }
}

/// The oracle that reuse is exact. After an untraced cold pass at the
/// fleet's budget (so it publishes), a warm pass in session reuses every
/// baseline and some whole runs from the ledger, and a warm pass over a
/// store reopened from the cold pass's log simulates every run and
/// baseline again (replay leaves the ledger empty). Both leave
/// byte-identical outcomes and stores.
#[test]
fn reused_runs_equal_simulated_ones() {
    let dir = std::env::temp_dir().join(format!("ace_fleet_reuse_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = reuse_config();
    let mut warm_rows = Vec::new();
    for jobs in [1, 2] {
        let tag = format!("session-{jobs}");
        let (mut session, mut reopened) =
            session_and_replay(&dir, &tag, &cfg, jobs, &Telemetry::off());
        let (simulated, counts) = observed_pass(&cfg, &mut reopened, jobs);
        assert_eq!(counts, measured(4), "replay restores no runs or baselines");
        let (reusing, counts) = observed_pass(&cfg, &mut session, jobs);
        assert_eq!(counts.baselines_measured, 0, "jobs={jobs}");
        assert_eq!(counts.baselines_reused, 4, "jobs={jobs}");
        assert!(counts.runs_reused > 0, "jobs={jobs}: {counts:?}");
        assert_eq!(
            fingerprint(&reusing),
            fingerprint(&simulated),
            "jobs={jobs}"
        );
        assert_eq!(
            store_fingerprint(&session),
            store_fingerprint(&reopened),
            "jobs={jobs}"
        );
        warm_rows.push((fingerprint(&reusing), counts));
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(warm_rows[0], warm_rows[1], "the warm pass depends on jobs");
}

/// A traced pass reuses no runs: a reused run would emit none of its
/// events. The session's traced warm pass still takes its baselines
/// from the ledger, and emits exactly the events of a warm pass over a
/// reopened store, whose empty ledger leaves it nothing to reuse.
#[test]
fn traced_passes_reuse_no_runs() {
    let dir = std::env::temp_dir().join(format!("ace_fleet_traced_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = reuse_config();
    let (mut session, mut reopened) =
        session_and_replay(&dir, "traced", &cfg, 2, &Telemetry::counting());
    let (simulated, counts, simulated_events) = counted_pass(&cfg, &mut reopened, 2);
    assert_eq!(counts, measured(4));
    let (traced, counts, traced_events) = counted_pass(&cfg, &mut session, 2);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(counts, reused(4), "baselines only, no runs");
    assert!(traced_events.iter().sum::<u64>() > 0);
    assert_eq!(traced_events, simulated_events, "per-kind event counts");
    assert_eq!(fingerprint(&traced), fingerprint(&simulated));
}

/// A run is reused only with the baseline its pass asks for, and is
/// reported under its own machine's spec. The budget is too short for
/// any store answer to change, so these rules alone decide.
#[test]
fn reuse_follows_the_baseline_rule_and_keeps_the_spec() {
    let mut cfg = FleetConfig::preset("smoke").expect("smoke preset");
    cfg.presets = vec!["db".into(), "jess".into()];
    cfg.machines = 4;
    cfg.wave_size = 4;
    cfg.admit_limit = 4;
    cfg.instruction_limit = 200_000;
    cfg.measure_baseline = false;
    let mut store = memory_store();
    assert_eq!(
        observed_pass(&cfg, &mut store, 2).1,
        LedgerCounts::default()
    );

    // The recorded runs have no baseline, so a pass that wants one
    // simulates them again; the next pass reuses them whole.
    cfg.measure_baseline = true;
    let (simulated, counts) = observed_pass(&cfg, &mut store, 2);
    assert_eq!(counts, measured(4));
    let (reusing, counts) = observed_pass(&cfg, &mut store, 2);
    let whole = LedgerCounts {
        runs_reused: 4,
        ..reused(4)
    };
    assert_eq!(counts, whole);
    assert_eq!(fingerprint(&reusing), fingerprint(&simulated));

    // Seeds 3..=6: machines 0 and 1 have the keys of the last pass's
    // machines 2 and 3.
    let mut shifted = cfg.clone();
    shifted.seed_base += 2;
    let (out, counts) = observed_pass(&shifted, &mut store, 2);
    let half = LedgerCounts {
        baselines_measured: 2,
        baselines_reused: 2,
        runs_reused: 2,
    };
    assert_eq!(counts, half);
    let specs: Vec<_> = out.machines.iter().map(|m| m.spec.clone()).collect();
    assert_eq!(specs, shifted.machine_specs());

    // Every recorded run carries a baseline, so a pass without
    // baselines takes none of them.
    cfg.measure_baseline = false;
    let (out, counts) = observed_pass(&cfg, &mut store, 2);
    assert_eq!(counts, LedgerCounts::default());
    assert!(out.machines.iter().all(|m| m.baseline.is_none()));
}

/// The ledger reuses a baseline only for the same program content, seed
/// and limit: another seed, another limit, or a spec file rewritten at
/// the same path is measured again, and the new measurement is the new
/// program's.
#[test]
fn baselines_are_reused_only_for_an_identical_key() {
    let dir = std::env::temp_dir().join(format!("ace_fleet_ledger_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let spec_path = dir.join("workload.json");
    let write_spec = |seed: u64| {
        let spec = gen(seed, &GenParams::default());
        std::fs::write(
            &spec_path,
            serde_json::to_string(&spec).expect("spec serializes"),
        )
        .expect("write spec");
    };
    write_spec(1);
    let spec = spec_path.display().to_string();
    let mut cfg = FleetConfig::preset("smoke").expect("smoke preset");
    cfg.presets = vec!["db".into(), spec.clone()];
    cfg.machines = 2;
    cfg.wave_size = 2;
    cfg.admit_limit = 2;
    cfg.instruction_limit = 100_000;
    let mut store = memory_store();
    assert_eq!(counted_pass(&cfg, &mut store, 2).1, measured(2));
    assert_eq!(counted_pass(&cfg, &mut store, 2).1, reused(2));

    let mut other_seeds = cfg.clone();
    other_seeds.seed_base += 2;
    assert_eq!(counted_pass(&other_seeds, &mut store, 2).1, measured(2));
    let mut other_limit = cfg.clone();
    other_limit.instruction_limit += 1;
    assert_eq!(counted_pass(&other_limit, &mut store, 2).1, measured(2));

    write_spec(2);
    let (out, counts, _) = counted_pass(&cfg, &mut store, 2);
    let machine = &out.machines[1];
    assert_eq!(machine.spec.preset, spec);
    let solo = solo_baseline(&spec, machine.spec.seed, cfg.instruction_limit);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        counts,
        LedgerCounts {
            baselines_measured: 1,
            baselines_reused: 1,
            runs_reused: 0,
        },
        "only the rewritten spec's machine measures again"
    );
    assert_eq!(machine.baseline, solo, "the rewritten spec's baseline");
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
