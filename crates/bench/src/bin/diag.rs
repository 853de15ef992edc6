//! Diagnostic tool: per-hotspot chosen configurations, trial measurements,
//! and energy composition for one workload. Not part of the paper's
//! tables; used to understand and calibrate the reproduction.

use ace_core::{Experiment, HotspotAceManager, HotspotManagerConfig};
use ace_energy::EnergyModel;

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "jess".to_string());
    let program = ace_workloads::preset(&name).expect("preset");
    let model = EnergyModel::default_180nm();

    let base = Experiment::program(program.clone()).run().unwrap();
    let mut mgr = HotspotAceManager::new(HotspotManagerConfig::default(), model);
    let hot = Experiment::program(program.clone())
        .run_with(&mut mgr)
        .unwrap();

    println!(
        "== {name}: baseline ipc {:.3}, hotspot ipc {:.3} (slowdown {:.2}%)",
        base.ipc,
        hot.ipc,
        100.0 * hot.slowdown_vs(&base)
    );
    let be = &base.energy;
    let he = &hot.energy;
    println!(
        "baseline: L1D dyn {:.2e} leak {:.2e} rc {:.2e} | L2 dyn {:.2e} leak {:.2e} rc {:.2e}",
        be.l1d_dynamic_nj,
        be.l1d_leak_nj,
        be.l1d_reconfig_nj,
        be.l2_dynamic_nj,
        be.l2_leak_nj,
        be.l2_reconfig_nj
    );
    println!(
        "hotspot : L1D dyn {:.2e} leak {:.2e} rc {:.2e} | L2 dyn {:.2e} leak {:.2e} rc {:.2e}",
        he.l1d_dynamic_nj,
        he.l1d_leak_nj,
        he.l1d_reconfig_nj,
        he.l2_dynamic_nj,
        he.l2_leak_nj,
        he.l2_reconfig_nj
    );
    println!(
        "L1D accesses base {} hot {} | L2 accesses base {} hot {}",
        base.counters.l1d.total_accesses(),
        hot.counters.l1d.total_accesses(),
        base.counters.l2.total_accesses(),
        hot.counters.l2.total_accesses()
    );
    println!(
        "L1D misses base {} hot {} | L2 misses base {} hot {}",
        base.counters.l1d.total_misses(),
        hot.counters.l1d.total_misses(),
        base.counters.l2.total_misses(),
        hot.counters.l2.total_misses()
    );
    println!(
        "L1D flush-wb {} | L2 flush-wb {} | L1D resizes {:?} | L2 resizes {:?} | guard rejects {}",
        hot.counters.l1d.flush_writebacks.iter().sum::<u64>(),
        hot.counters.l2.flush_writebacks.iter().sum::<u64>(),
        hot.counters.l1d.resizes,
        hot.counters.l2.resizes,
        hot.counters.guard_rejections
    );
    println!(
        "cycles base {} hot {} (+{:.2}%)",
        base.cycles,
        hot.cycles,
        100.0 * (hot.cycles as f64 / base.cycles as f64 - 1.0)
    );

    for (m, class, tuner, mean_ipc, cov, n) in mgr.hotspot_details() {
        let method = program.method(m);
        print!(
            "{:28} {:5} inv={:4} ipc={:.3} cov={:.3} best={:?} trials=[",
            method.name,
            class.to_string(),
            n,
            mean_ipc,
            cov,
            tuner.best().map(|b| b.to_string())
        );
        for (c, mm) in tuner.configs().iter().zip(tuner.measurements()) {
            if let Some(mm) = mm {
                print!(" {}:ipc={:.3},epi={:.3}", c, mm.ipc, mm.epi_nj);
            }
        }
        println!(" ]");
    }
}
