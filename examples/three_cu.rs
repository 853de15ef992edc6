//! The three-CU extension in action: enable the configurable instruction
//! window (Section 4.1's work-in-progress CU) and watch CU decoupling
//! stretch across three granularities — window hotspots (5–50 K
//! instructions), L1D hotspots (50–500 K), and L2 hotspots (> 500 K).
//!
//! ```text
//! cargo run --release --example three_cu [workload]
//! ```

use ace::core::{Experiment, HotspotManagerConfig, RunConfig, Scheme, SchemeExt, SchemeSpec};
use ace::energy::EnergyModel;
use ace::runtime::DoConfig;
use ace::sim::CuId;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "mpeg".to_string());

    // Two CUs (the paper's evaluation), window powered but not adapted,
    // and three CUs: hotspots of 5-50K instructions adapt the window. All
    // three runs are legs of one run off one executor stream.
    let two = RunConfig {
        energy: EnergyModel::default_180nm_with_window(),
        ..RunConfig::default()
    };
    let three = RunConfig {
        do_config: DoConfig::with_window(),
        ..two.clone()
    };
    let hotspot = Scheme::Hotspot(HotspotManagerConfig::default());
    let runs = Experiment::workload(name.as_str())
        .config(two)
        .run_schemes([
            SchemeSpec::from("baseline"),
            "hotspot".into(),
            (three, hotspot).into(),
        ])?;
    let [base, r2, r3] = [0, 1, 2].map(|i| &runs[i].record);
    let SchemeExt::Hotspot(rep) = &runs[2].report.ext else {
        unreachable!("a hotspot leg reports as one")
    };

    println!(
        "workload {name}: baseline energy {:.2} mJ (window included)",
        base.energy.total_nj() / 1e6
    );
    println!();
    println!(
        "two CUs  : saves {:>5.1}% at {:.2}% slowdown",
        100.0 * r2.saving_vs(base),
        100.0 * r2.slowdown_vs(base),
    );
    println!(
        "three CUs: saves {:>5.1}% at {:.2}% slowdown  (window energy alone: -{:.1}%)",
        100.0 * r3.saving_vs(base),
        100.0 * r3.slowdown_vs(base),
        100.0 * (1.0 - r3.energy.window_nj / base.energy.window_nj),
    );
    println!();
    println!("hotspot size classes and their configurable units:");
    println!(
        "  window (5-50K instr):  {:>3} hotspots, {:>4} tunings, {:>5} reconfigs",
        rep.hotspots_of(CuId::Window),
        rep.stats(CuId::Window).tunings,
        rep.stats(CuId::Window).reconfigs,
    );
    println!(
        "  L1D (50-500K instr):   {:>3} hotspots, {:>4} tunings, {:>5} reconfigs",
        rep.l1d_hotspots(),
        rep.l1d().tunings,
        rep.l1d().reconfigs,
    );
    println!(
        "  L2 (>500K instr):      {:>3} hotspots, {:>4} tunings, {:>5} reconfigs",
        rep.l2_hotspots(),
        rep.l2().tunings,
        rep.l2().reconfigs,
    );
    println!();
    println!(
        "multi-grain adaptation: the window reconfigures {}x as often as the L2",
        if rep.l2().reconfigs > 0 {
            rep.stats(CuId::Window).reconfigs / rep.l2().reconfigs.max(1)
        } else {
            rep.stats(CuId::Window).reconfigs
        },
    );
    Ok(())
}
