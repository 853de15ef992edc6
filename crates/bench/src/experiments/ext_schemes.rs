//! **Extension: full scheme comparison** (Section 3.5's qualitative
//! argument, quantified).
//!
//! Five points per workload: the non-adaptive baseline, the original
//! positional scheme (large-procedure boundaries, no DO system), the BBV
//! temporal scheme as evaluated in the paper, BBV *with* the next-phase
//! predictor the paper leaves out, and the DO-based hotspot scheme.

use super::{bbv_report, outln, run_group, ExpCtx, Report};
use crate::{format_table, mean, BenchResult};
use ace_core::{BbvManagerConfig, Experiment, PositionalManagerConfig, RunRecord, Scheme};

pub(super) fn run(ctx: &ExpCtx) -> BenchResult<Report> {
    let mut report = Report::new("ext_schemes");
    let mut rows = Vec::new();
    let mut agg: Vec<[f64; 8]> = Vec::new();
    // The baseline, BBV and hotspot points are headline legs; positional
    // and BBV+pred run as legs of one run per workload.
    let schemes = [
        Scheme::Positional(PositionalManagerConfig::default()),
        Scheme::Bbv(BbvManagerConfig {
            use_predictor: true,
            ..BbvManagerConfig::default()
        }),
    ];

    for h in &ctx.headline()? {
        let experiment = Experiment::workload(h.workload.as_str()).telemetry(&ctx.telemetry);
        let [pos, pred] = run_group(experiment, schemes.clone())?;
        let pred_report = bbv_report(&pred);
        let (r_pos, r_bbv, r_pred, r_hs) = (&pos.record, &h.bbv, &pred.record, &h.hotspot);
        let sav = |r: &RunRecord| 100.0 * r.saving_vs(&h.baseline);
        let slow = |r: &RunRecord| 100.0 * r.slowdown_vs(&h.baseline);

        agg.push([
            sav(r_pos),
            slow(r_pos),
            sav(r_bbv),
            slow(r_bbv),
            sav(r_pred),
            slow(r_pred),
            sav(r_hs),
            slow(r_hs),
        ]);
        rows.push(vec![
            h.workload.clone(),
            format!("{:.1}/{:.1}", sav(r_pos), slow(r_pos)),
            format!("{:.1}/{:.1}", sav(r_bbv), slow(r_bbv)),
            format!("{:.1}/{:.1}", sav(r_pred), slow(r_pred)),
            format!("{:.1}/{:.1}", sav(r_hs), slow(r_hs)),
            format!(
                "{} ({:.0}%)",
                pred_report.predictions,
                100.0 * pred_report.prediction_accuracy
            ),
        ]);
    }
    rows.push(vec![
        "avg".into(),
        format!(
            "{:.1}/{:.1}",
            mean(agg.iter().map(|a| a[0])),
            mean(agg.iter().map(|a| a[1]))
        ),
        format!(
            "{:.1}/{:.1}",
            mean(agg.iter().map(|a| a[2])),
            mean(agg.iter().map(|a| a[3]))
        ),
        format!(
            "{:.1}/{:.1}",
            mean(agg.iter().map(|a| a[4])),
            mean(agg.iter().map(|a| a[5]))
        ),
        format!(
            "{:.1}/{:.1}",
            mean(agg.iter().map(|a| a[6])),
            mean(agg.iter().map(|a| a[7]))
        ),
        String::new(),
    ]);
    let out = &mut report.text;
    outln!(
        out,
        "Extension: scheme comparison (total cache energy saving % / slowdown %)"
    );
    outln!(
        out,
        "positional = Huang et al. large-procedure boundaries (no DO system);"
    );
    outln!(
        out,
        "BBV+pred adds the RLE-Markov next-phase predictor the paper omits\n"
    );
    outln!(
        out,
        "{}",
        format_table(
            &[
                "bench",
                "positional",
                "BBV",
                "BBV+pred",
                "hotspot",
                "predictions (acc)"
            ],
            &rows
        )
    );
    Ok(report)
}
