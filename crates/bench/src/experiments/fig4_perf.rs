//! **Figure 4** — Performance degradation of the adaptation schemes over
//! the non-adaptive baseline.

use super::{outln, ExpCtx, Report};
use crate::{bar_chart, format_table, mean, BenchResult};

pub(super) fn run(ctx: &ExpCtx) -> BenchResult<Report> {
    let all = ctx.headline()?;
    let mut report = Report::new("fig4_perf");
    let out = &mut report.text;
    outln!(out, "Figure 4: slowdown vs baseline (%)");
    outln!(
        out,
        "(paper: BBV 1.34-2.38% avg 1.87%; hotspot 0.4-2.47% avg 1.56%)\n"
    );
    let mut rows = Vec::new();
    for r in &all {
        rows.push(vec![
            r.workload.clone(),
            format!("{:.2}", r.bbv_slowdown_pct()),
            format!("{:.2}", r.hotspot_slowdown_pct()),
        ]);
    }
    rows.push(vec![
        "avg".into(),
        format!("{:.2}", mean(all.iter().map(|r| r.bbv_slowdown_pct()))),
        format!("{:.2}", mean(all.iter().map(|r| r.hotspot_slowdown_pct()))),
    ]);
    let table = format_table(&["bench", "BBV", "hotspot"], &rows);
    let labels: Vec<&str> = all.iter().map(|r| r.workload.as_str()).collect();
    let chart = bar_chart(
        &labels,
        &[
            ("BBV", all.iter().map(|r| r.bbv_slowdown_pct()).collect()),
            (
                "hot",
                all.iter().map(|r| r.hotspot_slowdown_pct()).collect(),
            ),
        ],
        42,
    );
    outln!(out, "{table}");
    outln!(out, "{chart}");
    Ok(report)
}
