//! Pins why each committed workload spec exists: `call-dense` must reach
//! the DO runtime and manager hooks far more often per instruction than
//! the presets, and `miss-heavy` must live on the simulator's miss path.

use ace_benchmark::layers::run_sampled;
use ace_benchmark::workload::{CALL_DENSE_SPEC, MISS_HEAVY_SPEC};
use ace_core::{NullManager, RunConfig, RunRecord};
use ace_workloads::{load_spec_file, Program, PRESET_NAMES};

const LIMIT: u64 = 4_000_000;

fn run(program: &Program) -> (RunRecord, ace_benchmark::layers::LayerTimes) {
    let cfg = RunConfig {
        instruction_limit: Some(LIMIT),
        ..RunConfig::default()
    };
    run_sampled(program, &cfg, &mut NullManager).expect("default machine is valid")
}

fn build(path: &str) -> Program {
    let spec = load_spec_file(path).expect("committed spec parses");
    spec.validate().expect("committed spec validates");
    spec.build().expect("committed spec builds")
}

#[test]
fn both_specs_validate_and_build() {
    for (path, name) in [
        (CALL_DENSE_SPEC, "call-dense"),
        (MISS_HEAVY_SPEC, "miss-heavy"),
    ] {
        let program = build(path);
        assert_eq!(program.name(), name);
    }
}

#[test]
fn call_dense_makes_fifty_times_the_presets_calls_per_instruction() {
    let (mut calls, mut instr) = (0u64, 0u64);
    for name in PRESET_NAMES {
        let (record, times) = run(&ace_workloads::preset(name).unwrap());
        calls += times.enters;
        instr += record.instret;
    }
    let presets = calls as f64 / (instr as f64 / 1e6);
    let (record, times) = run(&build(CALL_DENSE_SPEC));
    let dense = times.enters as f64 / (record.instret as f64 / 1e6);
    assert!(
        dense >= 50.0 * presets,
        "call-dense {dense:.0} calls/Minstr vs presets {presets:.0}: only {:.1}x",
        dense / presets
    );
}

#[test]
fn miss_heavy_lives_on_the_miss_path() {
    let (record, _) = run(&build(MISS_HEAVY_SPEC));
    let l1d = record.counters.l1d.miss_ratio();
    assert!(l1d >= 0.2, "miss-heavy L1D miss ratio {l1d:.3}");
    assert!(record.ipc < 1.0, "miss-heavy IPC {:.3}", record.ipc);
}
