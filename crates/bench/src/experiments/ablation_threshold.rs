//! **Ablation: hot_threshold** (Section 5.1).
//!
//! Sweeps the DO system's promotion threshold and reports the hotspot
//! identification latency (Table 4's last row) against the energy the
//! scheme still captures: late identification wastes execution at the
//! full-size configuration.

use super::{outln, ExpCtx, Report};
use crate::{format_table, BenchResult};
use ace_core::{Experiment, HotspotAceManager, HotspotManagerConfig, RunConfig};
use ace_energy::EnergyModel;

pub(super) fn run(ctx: &ExpCtx) -> BenchResult<Report> {
    let mut report = Report::new("ablation_threshold");
    let model = EnergyModel::default_180nm();
    let out = &mut report.text;
    outln!(
        out,
        "Ablation: hot_threshold sweep (identification latency vs captured savings)\n"
    );
    for name in ["compress", "javac"] {
        let base = Experiment::workload(name).telemetry(&ctx.telemetry).run()?;
        let mut rows = Vec::new();
        for threshold in [2u32, 5, 10, 20, 40] {
            let mut cfg = RunConfig::default();
            cfg.do_config.hot_threshold = threshold;
            let mut mgr = HotspotAceManager::new(HotspotManagerConfig::default(), model);
            let r = Experiment::workload(name)
                .config(cfg)
                .telemetry(&ctx.telemetry)
                .run_with(&mut mgr)?;
            let rep = mgr.report();
            rows.push(vec![
                format!("{threshold}"),
                format!("{}", r.table4.hotspots),
                format!("{:.2}%", r.table4.identification_latency_pct),
                format!("{:.1}%", 100.0 * rep.tuned_fraction()),
                format!("{:.1}", 100.0 * r.l1d_saving_vs(&base)),
                format!("{:.1}", 100.0 * r.l2_saving_vs(&base)),
                format!("{:.2}", 100.0 * r.slowdown_vs(&base)),
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
