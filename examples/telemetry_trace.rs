//! Prints the reconfiguration timeline of a `compress` run.
//!
//! Runs the hotspot scheme with an in-memory event buffer attached,
//! then walks the captured decision events and prints every cache/window
//! resize in cycle order, followed by the event-count summary.
//!
//! ```text
//! cargo run --release --example telemetry_trace
//! ```

use ace::core::{Experiment, ExperimentError, HotspotAceManager, HotspotManagerConfig};
use ace::energy::EnergyModel;
use ace::telemetry::{Event, Telemetry};

fn main() -> Result<(), ExperimentError> {
    let (telemetry, buffer) = Telemetry::buffered();
    let mut mgr = HotspotAceManager::new(
        HotspotManagerConfig::default(),
        EnergyModel::default_180nm(),
    );
    let record = Experiment::workload("compress")
        .instruction_limit(60_000_000)
        .telemetry(&telemetry)
        .run_with(&mut mgr)?;

    let mut events = buffer.drain();
    events.sort_by_key(Event::timestamp);

    println!(
        "reconfiguration timeline ({} events captured):",
        events.len()
    );
    println!("{:>14}  {:-^7}  transition", "cycle", "unit");
    for event in &events {
        if let Event::Reconfigured {
            cu,
            from,
            to,
            cause,
            cycle,
        } = event
        {
            println!(
                "{cycle:>14}  {:^7}  level {from} -> {to} ({})",
                cu.name(),
                cause.name()
            );
        }
    }

    println!();
    println!(
        "run: {} instructions, {:.3} IPC, {:.2} uJ total",
        record.instret,
        record.ipc,
        record.energy.total_nj() / 1_000.0
    );
    print!("{}", telemetry.summary());
    Ok(())
}
