//! **Ablation: hot_threshold** (Section 5.1).
//!
//! Sweeps the DO system's promotion threshold and reports the hotspot
//! identification latency (Table 4's last row) against the energy the
//! scheme still captures: late identification wastes execution at the
//! full-size configuration.

use super::{hotspot_report, outln, ExpCtx, Report};
use crate::{format_table, BenchResult};
use ace_core::{Experiment, HotspotManagerConfig, RunConfig, Scheme};
use ace_runtime::DoConfig;

/// The promotion thresholds swept.
const THRESHOLDS: [u32; 5] = [2, 5, 10, 20, 40];

pub(super) fn run(ctx: &ExpCtx) -> BenchResult<Report> {
    let mut report = Report::new("ablation_threshold");
    let out = &mut report.text;
    outln!(
        out,
        "Ablation: hot_threshold sweep (identification latency vs captured savings)\n"
    );
    // The default threshold's row and the baseline are headline legs; the
    // other thresholds run as legs of one run per workload.
    let default = DoConfig::default().hot_threshold;
    let headline = ctx.headline()?;
    for h in headline
        .iter()
        .filter(|h| ["compress", "javac"].contains(&h.workload.as_str()))
    {
        let name = h.workload.as_str();
        let legs = THRESHOLDS
            .iter()
            .filter(|&&t| t != default)
            .map(|&threshold| {
                let mut cfg = RunConfig::default();
                cfg.do_config.hot_threshold = threshold;
                (cfg, Scheme::Hotspot(HotspotManagerConfig::default()))
            });
        let runs = Experiment::workload(name)
            .telemetry(&ctx.telemetry)
            .run_schemes(legs)?;
        let mut runs = runs.iter().map(|run| (&run.record, hotspot_report(run)));
        let mut rows = Vec::new();
        for threshold in THRESHOLDS {
            let (r, rep) = if threshold == default {
                (&h.hotspot, &h.hotspot_report)
            } else {
                runs.next().expect("one run per threshold")
            };
            let base = &h.baseline;
            rows.push(vec![
                format!("{threshold}"),
                format!("{}", r.table4.hotspots),
                format!("{:.2}%", r.table4.identification_latency_pct),
                format!("{:.1}%", 100.0 * rep.tuned_fraction()),
                format!("{:.1}", 100.0 * r.l1d_saving_vs(base)),
                format!("{:.1}", 100.0 * r.l2_saving_vs(base)),
                format!("{:.2}", 100.0 * r.slowdown_vs(base)),
            ]);
        }
        outln!(out, "{name}:");
        outln!(
            out,
            "{}",
            format_table(
                &[
                    "threshold",
                    "hotspots",
                    "ident lat",
                    "tuned",
                    "L1D sav%",
                    "L2 sav%",
                    "slow%"
                ],
                &rows
            )
        );
    }
    Ok(report)
}
