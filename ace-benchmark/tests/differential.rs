//! The benchmark's replicas must reproduce the program exactly: the
//! sampled driver loop against `Experiment::run_scheme` under every
//! scheme, and the traced wave loop against `run_fleet`.

use ace_benchmark::check::{driver_matches_experiment, two_wave_config, wave_loop_matches_fleet};
use ace_benchmark::workload::CALL_DENSE_SPEC;

const LIMIT: u64 = 500_000;

#[test]
fn sampled_driver_loop_matches_run_scheme_for_all_five_schemes() {
    for (source, seed) in [("jess", None), ("mtrt", Some(9)), (CALL_DENSE_SPEC, None)] {
        let results = driver_matches_experiment(source, seed, LIMIT);
        assert_eq!(results.len(), 5);
        for (scheme, problem) in results {
            assert!(problem.is_none(), "{source}/{scheme}: {problem:?}");
        }
    }
}

#[test]
fn traced_wave_loop_matches_run_fleet_on_two_waves() {
    let cfg = two_wave_config(1);
    assert_eq!(cfg.machines / cfg.wave_size, 2, "two waves");
    wave_loop_matches_fleet(&cfg, 2).expect("replica reproduces run_fleet");
}
