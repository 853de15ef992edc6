//! **Ablation: BBV sampling interval** (Section 2.3 / 3.2.1).
//!
//! Sweeps the BBV sampling interval. The paper pins it to the L2's 1 M-
//! instruction reconfiguration interval: shorter intervals are rejected by
//! the hardware guard (L2 trials bounce), longer ones blur phases and slow
//! tuning — the "all CUs adapt at the pace of the slowest" limitation that
//! motivates CU decoupling.

use super::{bbv_report, outln, ExpCtx, Report};
use crate::{format_table, mean, BenchResult};
use ace_core::{BbvManagerConfig, Experiment, Scheme};
use ace_phase::BbvConfig;

/// The sampling intervals swept, in instructions.
const INTERVALS: [u64; 5] = [250_200, 500_200, 1_000_200, 2_000_200, 4_000_200];

pub(super) fn run(ctx: &ExpCtx) -> BenchResult<Report> {
    let mut report = Report::new("ablation_interval");
    let out = &mut report.text;
    outln!(
        out,
        "Ablation: BBV sampling interval sweep (averages over the 7 workloads)\n"
    );
    // The default interval's row and the baseline are headline legs; the
    // other intervals run as BBV legs of one run per workload. `stats[i]`
    // collects interval `i`'s per-workload rows.
    let default = BbvManagerConfig::default().bbv.interval_instr;
    let mut stats = vec![Vec::new(); INTERVALS.len()];
    for h in &ctx.headline()? {
        let legs = INTERVALS
            .iter()
            .filter(|&&interval| interval != default)
            .map(|&interval_instr| {
                Scheme::Bbv(BbvManagerConfig {
                    bbv: BbvConfig {
                        interval_instr,
                        ..BbvConfig::default()
                    },
                    ..BbvManagerConfig::default()
                })
            });
        let sweep = Experiment::workload(h.workload.as_str())
            .telemetry(&ctx.telemetry)
            .run_schemes(legs)?;
        let mut sweep = sweep.iter().map(|run| (&run.record, bbv_report(run)));
        let base = &h.baseline;
        for (stats, interval) in stats.iter_mut().zip(INTERVALS) {
            let (r, rep) = if interval == default {
                (&h.bbv, &h.bbv_report)
            } else {
                sweep.next().expect("one run per interval")
            };
            stats.push((
                100.0 * rep.stability.stable_fraction(),
                rep.tuned_phases as f64,
                100.0 * r.saving_vs(base),
                100.0 * r.slowdown_vs(base),
                r.counters.guard_rejections as f64,
            ));
        }
    }
    let rows: Vec<_> = INTERVALS
        .iter()
        .zip(&stats)
        .map(|(&interval, stats)| {
            vec![
                format!("{:.2}M", interval as f64 / 1e6),
                format!("{:.0}%", mean(stats.iter().map(|s| s.0))),
                format!("{:.1}", mean(stats.iter().map(|s| s.1))),
                format!("{:.1}", mean(stats.iter().map(|s| s.2))),
                format!("{:.2}", mean(stats.iter().map(|s| s.3))),
                format!("{:.0}", mean(stats.iter().map(|s| s.4))),
            ]
        })
        .collect();
    outln!(
        out,
        "{}",
        format_table(
            &[
                "interval",
                "stable",
                "tuned phases",
                "energy sav%",
                "slow%",
                "guard rej"
            ],
            &rows
        )
    );
    Ok(report)
}
