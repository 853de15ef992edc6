//! The observability determinism contract: the `--obs-out` time series,
//! the wave health rows, and the watchdog report are keyed on wave index
//! only, so they are byte-identical at any worker-pool width.

use ace_fleet::{
    fleet_registry_version, run_fleet_observed, FleetConfig, ObsGate, ObsSampler, TuningStore,
};
use ace_telemetry::{write_obs_jsonl, Telemetry};

fn test_config() -> FleetConfig {
    let mut cfg = FleetConfig::preset("smoke").expect("smoke preset");
    cfg.machines = 8;
    cfg.wave_size = 4;
    cfg.admit_limit = 4;
    cfg.measure_baseline = false;
    cfg.instruction_limit = 200_000;
    cfg
}

/// Runs a cold + warm pass with samplers attached and returns the
/// serialized obs stream plus the watchdog reports.
fn observed_run(jobs: usize) -> (Vec<u8>, String, String) {
    let cfg = test_config();
    let tel = Telemetry::counting();
    let mut store = TuningStore::in_memory(fleet_registry_version(), TuningStore::DEFAULT_CAPACITY);
    let mut cold_obs = ObsSampler::new("cold");
    let mut warm_obs = ObsSampler::new("warm");
    run_fleet_observed(&cfg, &mut store, jobs, &tel, Some(&mut cold_obs)).expect("cold pass");
    run_fleet_observed(&cfg, &mut store, jobs, &tel, Some(&mut warm_obs)).expect("warm pass");

    let gate = ObsGate::default();
    let cold_report = gate.check("cold", cold_obs.health()).render();
    let warm_report = gate.check("warm", warm_obs.health()).render();

    let mut records = cold_obs.into_records();
    records.extend(warm_obs.into_records());
    let mut bytes = Vec::new();
    write_obs_jsonl(&mut bytes, &records).expect("obs serializes");
    (bytes, cold_report, warm_report)
}

#[test]
fn obs_stream_is_byte_identical_across_worker_counts() {
    let serial = observed_run(1);
    let parallel = observed_run(4);
    assert_eq!(
        String::from_utf8_lossy(&serial.0),
        String::from_utf8_lossy(&parallel.0),
        "obs JSONL must not depend on --jobs"
    );
    assert_eq!(serial.1, parallel.1, "cold watchdog report differs");
    assert_eq!(serial.2, parallel.2, "warm watchdog report differs");

    // Sanity: both passes actually sampled (two waves each).
    let waves = String::from_utf8_lossy(&serial.0).lines().count();
    assert_eq!(waves, 4, "expected 2 waves x 2 passes");
}
