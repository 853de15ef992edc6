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

    let base = Experiment::workload(name.as_str()).run()?;
    println!(
        "{name}: baseline IPC {:.3}, cache energy {:.2} mJ",
        base.ipc,
        base.energy.total_nj() / 1e6
    );
    println!();
    println!("L1D\\L2    1MB          512KB        256KB        128KB");

    let mut best: Option<(f64, u8, u8, f64)> = None;
    for l1d in 0..4u8 {
        let l1d_size = 64 >> l1d;
        print!("{l1d_size:>3}KB ");
        for l2 in 0..4u8 {
            let fixed = AceConfig::both(SizeLevel::new(l1d).unwrap(), SizeLevel::new(l2).unwrap());
            let r = Experiment::workload(name.as_str())
                .scheme(Scheme::Fixed(fixed))
                .run()?;
            let saving = 100.0 * r.saving_vs(&base);
            let slow = 100.0 * r.slowdown_vs(&base);
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
