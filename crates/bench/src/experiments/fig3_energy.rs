//! **Figure 3** — L1D (a) and L2 (b) cache energy reduction of the BBV and
//! hotspot schemes over the full-size baseline.

use super::{outln, ExpCtx, Report};
use crate::{bar_chart, format_table, mean, BenchResult};

pub(super) fn run(ctx: &ExpCtx) -> BenchResult<Report> {
    let all = ctx.headline()?;
    let mut report = Report::new("fig3_energy");
    let out = &mut report.text;

    outln!(
        out,
        "Figure 3(a): L1D cache energy reduction vs baseline (%)"
    );
    outln!(
        out,
        "(paper: BBV avg 32%, hotspot avg 47%, hotspot wins every benchmark,"
    );
    outln!(out, " db the largest hotspot saving at 66%)\n");
    let mut rows = Vec::new();
    for r in &all {
        rows.push(vec![
            r.workload.clone(),
            format!("{:.1}", r.bbv_l1d_saving_pct()),
            format!("{:.1}", r.hotspot_l1d_saving_pct()),
        ]);
    }
    rows.push(vec![
        "avg".into(),
        format!("{:.1}", mean(all.iter().map(|r| r.bbv_l1d_saving_pct()))),
        format!(
            "{:.1}",
            mean(all.iter().map(|r| r.hotspot_l1d_saving_pct()))
        ),
    ]);
    let table_a = format_table(&["bench", "BBV", "hotspot"], &rows);
    let labels: Vec<&str> = all.iter().map(|r| r.workload.as_str()).collect();
    let chart_a = bar_chart(
        &labels,
        &[
            ("BBV", all.iter().map(|r| r.bbv_l1d_saving_pct()).collect()),
            (
                "hot",
                all.iter().map(|r| r.hotspot_l1d_saving_pct()).collect(),
            ),
        ],
        42,
    );
    outln!(out, "{table_a}");
    outln!(out, "{chart_a}");

    outln!(
        out,
        "Figure 3(b): L2 cache energy reduction vs baseline (%)"
    );
    outln!(
        out,
        "(paper: BBV avg 52%, hotspot avg 58%, BBV ahead only on jack and mtrt)\n"
    );
    let mut rows = Vec::new();
    for r in &all {
        rows.push(vec![
            r.workload.clone(),
            format!("{:.1}", r.bbv_l2_saving_pct()),
            format!("{:.1}", r.hotspot_l2_saving_pct()),
        ]);
    }
    rows.push(vec![
        "avg".into(),
        format!("{:.1}", mean(all.iter().map(|r| r.bbv_l2_saving_pct()))),
        format!("{:.1}", mean(all.iter().map(|r| r.hotspot_l2_saving_pct()))),
    ]);
    let table_b = format_table(&["bench", "BBV", "hotspot"], &rows);
    let chart_b = bar_chart(
        &labels,
        &[
            ("BBV", all.iter().map(|r| r.bbv_l2_saving_pct()).collect()),
            (
                "hot",
                all.iter().map(|r| r.hotspot_l2_saving_pct()).collect(),
            ),
        ],
        42,
    );
    outln!(out, "{table_b}");
    outln!(out, "{chart_b}");
    Ok(report)
}
