//! **Ablation: CU decoupling** (Section 3.2's central claim).
//!
//! Compares the hotspot scheme per workload with CU decoupling (each
//! hotspot tunes only the CU matching its size: 4 configurations; the
//! headline run) and without (every adaptable hotspot walks all 16
//! combinatorial configurations, with small hotspots' L2 requests mostly
//! bouncing off the 1 M-instruction hardware guard).

use super::{hotspot_report, outln, ExpCtx, Report};
use crate::{format_table, mean, BenchResult};
use ace_core::{Experiment, HotspotManagerConfig, HotspotReport, RunRecord, Scheme};

pub(super) fn run(ctx: &ExpCtx) -> BenchResult<Report> {
    let mut report = Report::new("ablation_decoupling");
    let mut rows = Vec::new();
    let mut agg: Vec<(f64, f64, f64, f64)> = Vec::new();
    let coupled = Scheme::Hotspot(HotspotManagerConfig {
        decouple: false,
        ..HotspotManagerConfig::default()
    });

    // The baseline and the decoupled (default) scheme are headline legs.
    for h in &ctx.headline()? {
        let off = Experiment::workload(h.workload.as_str())
            .scheme(coupled.clone())
            .telemetry(&ctx.telemetry)
            .run_scheme()?;
        let stats = |r: &RunRecord, rep: &HotspotReport| {
            (
                100.0 * r.saving_vs(&h.baseline),
                100.0 * r.slowdown_vs(&h.baseline),
                100.0 * rep.tuned_fraction(),
                (rep.l1d().tunings + rep.l2().tunings) as f64,
                r.counters.guard_rejections,
            )
        };
        let (s_on, sl_on, t_on, tr_on, _) = stats(&h.hotspot, &h.hotspot_report);
        let (s_off, sl_off, t_off, tr_off, rej_off) = stats(&off.record, hotspot_report(&off));
        agg.push((s_on, s_off, sl_on, sl_off));
        rows.push(vec![
            h.workload.clone(),
            format!("{s_on:.1}"),
            format!("{s_off:.1}"),
            format!("{sl_on:.2}"),
            format!("{sl_off:.2}"),
            format!("{t_on:.0}%"),
            format!("{t_off:.0}%"),
            format!("{tr_on:.0}"),
            format!("{tr_off:.0}"),
            format!("{rej_off}"),
        ]);
    }
    rows.push(vec![
        "avg".into(),
        format!("{:.1}", mean(agg.iter().map(|a| a.0))),
        format!("{:.1}", mean(agg.iter().map(|a| a.1))),
        format!("{:.2}", mean(agg.iter().map(|a| a.2))),
        format!("{:.2}", mean(agg.iter().map(|a| a.3))),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
    ]);
    let out = &mut report.text;
    outln!(
        out,
        "Ablation: CU decoupling on vs off (total cache energy saving %, slowdown %,"
    );
    outln!(
        out,
        "tuned hotspot fraction, configuration trials, guard rejections)\n"
    );
    outln!(
        out,
        "{}",
        format_table(
            &[
                "bench",
                "savON",
                "savOFF",
                "slowON",
                "slowOFF",
                "tunedON",
                "tunedOFF",
                "trialsON",
                "trialsOFF",
                "rejOFF"
            ],
            &rows
        )
    );
    Ok(report)
}
