//! Records a telemetry trace of a `jess` run, analyzes it with
//! `ace-trace`, and prints the reconstructed view: tuning episodes,
//! configuration residency, and the headline statistics — everything
//! `ace trace summarize` would show, but driven through the library API.
//!
//! Also exports a Chrome trace-event file next to the JSONL trace; load
//! it in `chrome://tracing` or <https://ui.perfetto.dev> to see the
//! episodes and reconfigurations on a timeline.
//!
//! ```text
//! cargo run --release --example trace_analysis
//! ```

use ace::core::{Experiment, HotspotAceManager, HotspotManagerConfig};
use ace::energy::EnergyModel;
use ace::telemetry::Telemetry;
use ace::trace::{analyze_file, chrome_trace, summarize, EpisodeOutcome};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let dir = std::env::temp_dir().join("ace-trace-analysis-example");
    std::fs::create_dir_all(&dir)?;
    let trace_path = dir.join("jess.jsonl");

    // 1. Record: run the hotspot scheme with a JSONL sink attached.
    let telemetry = Telemetry::jsonl(&trace_path)?;
    let mut mgr = HotspotAceManager::new(
        HotspotManagerConfig::default(),
        EnergyModel::default_180nm(),
    );
    let record = Experiment::workload("jess")
        .instruction_limit(60_000_000)
        .telemetry(&telemetry)
        .run_with(&mut mgr)?;
    telemetry.flush();
    println!(
        "recorded {} events over {} instructions to {}\n",
        telemetry.total_events(),
        record.instret,
        trace_path.display()
    );

    // 2. Analyze: stream the file back through the episode state machine.
    let analysis = analyze_file(&trace_path)?;
    print!("{}", summarize(&analysis));

    // 3. Drill in: the library exposes what the summary prints.
    println!("\nconverged episodes in detail:");
    for episode in analysis.episodes() {
        if episode.outcome != EpisodeOutcome::Converged {
            continue;
        }
        println!(
            "  {:<16} {} trials over {} instructions -> ipc {:.3}",
            episode.scope.label(),
            episode.trials.len(),
            episode.span_instr(),
            episode.converged_ipc.unwrap_or(0.0),
        );
    }

    // 4. Export: a Chrome/Perfetto-loadable timeline.
    let chrome_path = dir.join("jess.chrome.json");
    std::fs::write(&chrome_path, chrome_trace(&analysis))?;
    println!(
        "\nwrote {} — load it in chrome://tracing or ui.perfetto.dev",
        chrome_path.display()
    );
    Ok(())
}
