//! **Robustness: seed sensitivity.**
//!
//! The workloads are synthetic, so a fair question is whether the headline
//! result is an artifact of one particular random stream. This experiment
//! re-runs the hotspot scheme on every workload under several executor
//! seeds (which perturb invocation sizes, loop counts, access addresses,
//! and branch outcomes) and reports the spread.

use super::{outln, run_group, ExpCtx, Report};
use crate::{format_table, mean, BenchResult};
use ace_core::{Experiment, RunRecord};
use ace_sim::OnlineStats;

/// Executor seeds that override each workload's own.
const SEEDS: [u64; 3] = [0x5EED_0001, 0x5EED_0002, 0x5EED_0003];

pub(super) fn run(ctx: &ExpCtx) -> BenchResult<Report> {
    let mut report = Report::new("ablation_seeds");
    let mut rows = Vec::new();
    let mut grand = Vec::new();
    // The workload's own seed is the headline run; each override runs its
    // baseline and hotspot legs off one stream of its own.
    for h in &ctx.headline()? {
        let mut savings = OnlineStats::new();
        let mut slowdowns = OnlineStats::new();
        let mut push = |base: &RunRecord, r: &RunRecord| {
            savings.push(100.0 * r.saving_vs(base));
            slowdowns.push(100.0 * r.slowdown_vs(base));
        };
        push(&h.baseline, &h.hotspot);
        for seed in SEEDS {
            let experiment = Experiment::workload(h.workload.as_str())
                .seed(seed)
                .telemetry(&ctx.telemetry);
            let [base, r] = run_group(experiment, ["baseline", "hotspot"])?;
            push(&base.record, &r.record);
        }
        grand.push(savings.mean());
        rows.push(vec![
            h.workload.clone(),
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
