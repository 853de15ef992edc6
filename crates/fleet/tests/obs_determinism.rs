//! The observability determinism contract: the `--obs-out` time series,
//! the live wave lines, and the watchdog report are keyed on wave index
//! only, so they are byte-identical at any worker-pool width.

use ace_fleet::{
    fleet_registry_version, render_wave_line, run_fleet_observed, FleetConfig, ObsGate, ObsSampler,
    TuningStore,
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

/// What a cold + warm pass with samplers attached delivers: the
/// serialized obs stream, the live wave lines and the watchdog reports.
struct Observed {
    obs: Vec<u8>,
    lines: Vec<String>,
    cold_report: String,
    warm_report: String,
}

fn observed_run(jobs: usize) -> Observed {
    let cfg = test_config();
    let tel = Telemetry::counting();
    let mut store = TuningStore::in_memory(fleet_registry_version(), TuningStore::DEFAULT_CAPACITY);
    let mut cold_obs = ObsSampler::new("cold");
    let mut warm_obs = ObsSampler::new("warm");
    run_fleet_observed(&cfg, &mut store, jobs, &tel, Some(&mut cold_obs)).expect("cold pass");
    run_fleet_observed(&cfg, &mut store, jobs, &tel, Some(&mut warm_obs)).expect("warm pass");

    let gate = ObsGate::default();
    let mut lines = Vec::new();
    let mut obs = Vec::new();
    for (pass, sampler) in [("cold", &cold_obs), ("warm", &warm_obs)] {
        let records = sampler.records();
        lines.extend(records.iter().map(|record| render_wave_line(pass, record)));
        write_obs_jsonl(&mut obs, records).expect("obs serializes");
    }
    Observed {
        obs,
        lines,
        cold_report: gate.check("cold", cold_obs.records()).render(),
        warm_report: gate.check("warm", warm_obs.records()).render(),
    }
}

#[test]
fn obs_stream_is_byte_identical_across_worker_counts() {
    let serial = observed_run(1);
    let parallel = observed_run(4);
    assert_eq!(
        String::from_utf8_lossy(&serial.obs),
        String::from_utf8_lossy(&parallel.obs),
        "obs JSONL must not depend on --jobs"
    );
    assert_eq!(serial.lines, parallel.lines, "live wave lines differ");
    assert_eq!(
        serial.cold_report, parallel.cold_report,
        "cold watchdog report differs"
    );
    assert_eq!(
        serial.warm_report, parallel.warm_report,
        "warm watchdog report differs"
    );

    // Sanity: both passes actually sampled (two waves each).
    let waves = String::from_utf8_lossy(&serial.obs).lines().count();
    assert_eq!(waves, 4, "expected 2 waves x 2 passes");
    assert_eq!(serial.lines.len(), 4);
}
