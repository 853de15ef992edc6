//! Diagnostic: BBV phase history and per-phase tuner state for one workload.

use ace_core::{BbvAceManager, BbvManagerConfig, Experiment};
use ace_energy::EnergyModel;

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "compress".to_string());
    let mut mgr = BbvAceManager::new(BbvManagerConfig::default(), EnergyModel::default_180nm());
    let _ = Experiment::workload(name.as_str())
        .run_with(&mut mgr)
        .expect("preset run");
    let r = mgr.report();
    println!(
        "{name}: phases {} tuned {} stable {:.0}% tunings {} misattributed {}",
        r.phases,
        r.tuned_phases,
        100.0 * r.stability.stable_fraction(),
        r.tunings,
        r.misattributed_trials
    );
    let hist: Vec<String> = mgr
        .phase_history()
        .iter()
        .map(|p| p.0.to_string())
        .collect();
    println!("history: {}", hist.join(" "));
    for (i, (t, d)) in mgr.tuner_states().enumerate() {
        println!(
            "phase {i}: trials {} done {} best {:?} dist-sum-ipc {:?}",
            t.trials(),
            t.is_done(),
            t.best().map(|b| b.to_string()),
            d
        );
    }
}
