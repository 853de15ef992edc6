//! **Figure 1** — Distribution of stable vs transitional BBV phases of the
//! SPECjvm98 workloads (a phase is stable if it lasts two or more
//! successive 1 M-instruction sampling intervals).

use super::{outln, ExpCtx, Report};
use crate::{bar_chart, format_table, mean, BenchResult};

pub(super) fn run(ctx: &ExpCtx) -> BenchResult<Report> {
    let all = ctx.headline()?;
    let mut report = Report::new("fig1_phase_stability");
    let out = &mut report.text;
    let mut rows = Vec::new();
    for r in &all {
        let s = &r.bbv_report.stability;
        rows.push(vec![
            r.workload.clone(),
            format!("{}", s.total_intervals),
            format!("{:.1}", 100.0 * s.stable_fraction()),
            format!("{:.1}", 100.0 * (1.0 - s.stable_fraction())),
        ]);
    }
    rows.push(vec![
        "avg".into(),
        String::new(),
        format!(
            "{:.1}",
            mean(
                all.iter()
                    .map(|r| 100.0 * r.bbv_report.stability.stable_fraction())
            )
        ),
        format!(
            "{:.1}",
            mean(
                all.iter()
                    .map(|r| 100.0 * (1.0 - r.bbv_report.stability.stable_fraction()))
            )
        ),
    ]);
    outln!(
        out,
        "Figure 1: distribution of stable/transitional BBV phase intervals"
    );
    outln!(
        out,
        "(paper: stable 60-95% per benchmark, ~70-76% average)\n"
    );
    let table = format_table(&["bench", "intervals", "stable %", "transitional %"], &rows);
    let labels: Vec<&str> = all.iter().map(|r| r.workload.as_str()).collect();
    let chart = bar_chart(
        &labels,
        &[(
            "stable",
            all.iter()
                .map(|r| 100.0 * r.bbv_report.stability.stable_fraction())
                .collect(),
        )],
        50,
    );
    outln!(out, "{table}");
    outln!(out, "{chart}");
    Ok(report)
}
