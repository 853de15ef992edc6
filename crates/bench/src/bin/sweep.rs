//! Diagnostic: fixed-configuration sweep of one workload over all 16 cache
//! configurations (the static oracle grid). Prints IPC and per-cache
//! energy for each point.

use ace_core::{AceConfig, Experiment, FixedScheme, SchemeSpec};
use ace_sim::SizeLevel;
use std::sync::Arc;

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "jess".to_string());
    let base = Experiment::preset(name.as_str()).run().expect("preset");
    println!("{name}: baseline ipc {:.4}", base.ipc);
    for l1d in 0..4u8 {
        for l2 in 0..4u8 {
            let fixed = AceConfig::both(SizeLevel::new(l1d).unwrap(), SizeLevel::new(l2).unwrap());
            let r = Experiment::preset(name.as_str())
                .scheme(SchemeSpec::instance(Arc::new(FixedScheme(fixed))))
                .run()
                .unwrap();
            println!(
                "L1D={l1d} L2={l2}: ipc {:.4} (slow {:+.2}%)  E_l1d {:.3e} ({:+.1}%)  E_l2 {:.3e} ({:+.1}%)  l1dMiss% {:.2}  l2Miss% {:.2}",
                r.ipc,
                100.0 * (1.0 - r.ipc / base.ipc),
                r.energy.l1d_nj,
                100.0 * (r.energy.l1d_nj / base.energy.l1d_nj - 1.0),
                r.energy.l2_nj,
                100.0 * (r.energy.l2_nj / base.energy.l2_nj - 1.0),
                100.0 * r.counters.l1d.miss_ratio(),
                100.0 * r.counters.l2.miss_ratio(),
            );
        }
    }
}
