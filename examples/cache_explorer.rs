//! Static-oracle exploration: run one workload under all 16 fixed cache
//! configurations and print the IPC/energy grid, showing the trade-off
//! space the adaptive schemes navigate at runtime.
//!
//! ```text
//! cargo run --release --example cache_explorer [workload]
//! ```

use ace::core::{AceConfig, Experiment, Scheme};
use ace::sim::SizeLevel;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "mpeg".to_string());

    // The baseline and the 16 fixed configurations, in grid order, as legs
    // of one run off one executor stream.
    let fixed =
        SizeLevel::all().flat_map(|l1d| SizeLevel::all().map(move |l2| AceConfig::both(l1d, l2)));
    let runs = Experiment::workload(name.as_str())
        .run_schemes(std::iter::once(Scheme::Baseline).chain(fixed.map(Scheme::Fixed)))?;
    let (base, grid) = runs.split_first().expect("one run per scheme");
    let base = &base.record;
    println!(
        "{name}: baseline IPC {:.3}, cache energy {:.2} mJ",
        base.ipc,
        base.energy.total_nj() / 1e6
    );
    println!();
    println!("L1D\\L2    1MB          512KB        256KB        128KB");

    let mut best: Option<(f64, usize, usize, f64)> = None;
    for (l1d, row) in grid.chunks(4).enumerate() {
        print!("{:>3}KB ", 64 >> l1d);
        for (l2, run) in row.iter().enumerate() {
            let saving = 100.0 * run.record.saving_vs(base);
            let slow = 100.0 * run.record.slowdown_vs(base);
            // The oracle obeys the same 2% performance bound as the tuners.
            let marker = if slow <= 2.0 { ' ' } else { '!' };
            print!(" {saving:>5.1}%/{slow:>4.1}{marker}");
            if slow <= 2.0 && best.is_none_or(|(s, ..)| saving > s) {
                best = Some((saving, l1d, l2, slow));
            }
        }
        println!();
    }
    println!();
    println!("cells: total-cache energy saving % / slowdown % ('!' = violates the 2% bound)");
    if let Some((saving, l1d, l2, slow)) = best {
        println!(
            "static oracle: L1D={}KB, L2={}KB saves {saving:.1}% at {slow:.2}% slowdown",
            64 >> l1d,
            1024 >> l2,
        );
    }
    Ok(())
}
