//! **Extension: phase-detector comparison** (the methodology of Dhodapkar &
//! Smith's "Comparing Program Phase Detection Techniques", MICRO 2003,
//! which the paper cites as \\[10\\] to justify its BBV choice).
//!
//! Runs the BBV and working-set detectors over the same block streams and
//! compares phase counts, stability, and (for BBV) the per-phase IPC
//! homogeneity that makes a detector's phases worth tuning.

use super::{outln, ExpCtx, Report};
use crate::{format_table, BenchResult};
use ace_phase::{BranchCounterConfig, BranchCounterDetector, WorkingSetConfig, WorkingSetDetector};
use ace_sim::Block;
use ace_workloads::Executor;

pub(super) fn run(ctx: &ExpCtx) -> BenchResult<Report> {
    let mut report = Report::new("ext_detectors");
    let out = &mut report.text;
    outln!(
        out,
        "Extension: BBV vs working-set phase detection over identical executions\n"
    );
    let mut rows = Vec::new();
    for h in &ctx.headline()? {
        let program = ace_workloads::preset(&h.workload).expect("headline workloads are presets");

        // Working-set signatures and branch counters over 1M-instruction
        // intervals, fed from the same execution.
        let mut ws = WorkingSetDetector::new(WorkingSetConfig::default());
        let mut bc = BranchCounterDetector::new(BranchCounterConfig::default());
        let mut exec = Executor::new(&program);
        let mut buf = Block::default();
        let mut emitted = 0u64;
        let mut boundary = 1_000_000u64;
        let mut ws_same = 0u64;
        let mut ws_total = 0u64;
        while exec.next_block(&mut buf) {
            emitted += buf.ninstr as u64;
            for a in &buf.accesses {
                ws.note_access(a.addr);
            }
            bc.note_branches(buf.branch.is_some() as u64);
            if emitted >= boundary {
                let out = ws.end_interval();
                bc.end_interval();
                ws_total += 1;
                ws_same += out.same_phase as u64;
                boundary += 1_000_000;
            }
        }

        // BBV via the headline run's manager (also yields per-phase IPC
        // CoV).
        let r = &h.bbv_report;
        rows.push(vec![
            h.workload.clone(),
            format!("{}", r.phases),
            format!("{:.0}%", 100.0 * r.stability.stable_fraction()),
            format!("{:.1}%", 100.0 * r.per_phase_ipc_cov),
            format!("{:.0}%", 100.0 * ws_same as f64 / ws_total.max(1) as f64),
            format!("{:.0}%", 100.0 * bc.stable_fraction()),
        ]);
    }
    outln!(
        out,
        "{}",
        format_table(
            &[
                "bench",
                "BBV phases",
                "BBV stable",
                "BBV per-phase CoV",
                "WS same-phase",
                "branch-ctr stable"
            ],
            &rows
        )
    );
    outln!(
        out,
        "WS same-phase = consecutive 1M intervals whose working-set signatures match"
    );
    outln!(
        out,
        "(relative distance <= 0.5). Both the working-set and branch-counter"
    );
    outln!(
        out,
        "detectors see interval stability but cannot *name* recurring phases for"
    );
    outln!(
        out,
        "configuration reuse — why the paper's baseline is BBV."
    );
    Ok(report)
}
