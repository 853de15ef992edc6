//! **Robustness: seed sensitivity.**
//!
//! The workloads are synthetic, so a fair question is whether the headline
//! result is an artifact of one particular random stream. This experiment
//! re-runs the hotspot scheme on every workload under several executor
//! seeds (which perturb invocation sizes, loop counts, access addresses,
//! and branch outcomes) and reports the spread.

use super::{outln, run_group, ExpCtx, Report};
use crate::{format_table, mean, BenchResult};
use ace_core::{Experiment, RunConfig};
use ace_sim::OnlineStats;
use ace_workloads::PRESET_NAMES;

pub(super) fn run(ctx: &ExpCtx) -> BenchResult<Report> {
    let mut report = Report::new("ablation_seeds");
    // The workload's own seed, then three overrides.
    let seeds = [
        None,
        Some(0x5EED_0001),
        Some(0x5EED_0002),
        Some(0x5EED_0003),
    ];
    let mut rows = Vec::new();
    let mut grand = Vec::new();
    for name in PRESET_NAMES {
        let mut savings = OnlineStats::new();
        let mut slowdowns = OnlineStats::new();
        for workload_seed in seeds {
            let experiment = Experiment::workload(name)
                .config(RunConfig {
                    workload_seed,
                    ..RunConfig::default()
                })
                .telemetry(&ctx.telemetry);
            let [base, r] = run_group(experiment, ["baseline", "hotspot"])?;
            let (base, r) = (&base.record, &r.record);
            savings.push(100.0 * r.saving_vs(base));
            slowdowns.push(100.0 * r.slowdown_vs(base));
        }
        grand.push(savings.mean());
        rows.push(vec![
            name.to_string(),
            format!("{:.1}", savings.mean()),
            format!("{:.1}", savings.min()),
            format!("{:.1}", savings.max()),
            format!("{:.2}", savings.population_stddev()),
            format!("{:.2}", slowdowns.mean()),
            format!("{:.2}", slowdowns.max()),
        ]);
    }
    rows.push(vec![
        "avg".into(),
        format!("{:.1}", mean(grand)),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
    ]);
    let out = &mut report.text;
    outln!(
        out,
        "Robustness: hotspot-scheme total energy saving across 4 executor seeds\n"
    );
    outln!(
        out,
        "{}",
        format_table(
            &[
                "bench",
                "sav mean%",
                "min",
                "max",
                "stddev",
                "slow mean%",
                "slow max%"
            ],
            &rows
        )
    );
    Ok(report)
}
