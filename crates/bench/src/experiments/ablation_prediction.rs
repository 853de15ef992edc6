//! **Extension: configuration prediction** (Section 6 future work).
//!
//! "One could use the JIT compiler … to provide a good estimate for the
//! resource configuration required for this hotspot through appropriate
//! code analysis. Such a feature could potentially completely eliminate
//! the tuning latency and overhead."
//!
//! Here the "code analysis" reads each method's declared memory patterns
//! (the synthetic stand-in for pointer/loop analysis), sizes its resident
//! working set, and predicts the smallest cache level that holds it. The
//! predicted configuration is installed at classification with zero tuning
//! latency; the normal tuned scheme is the comparison point.

use super::{outln, ExpCtx, Report};
use crate::{format_table, mean, BenchResult};
use ace_core::{AceConfig, Experiment, HotspotAceManager, HotspotManagerConfig};
use ace_energy::EnergyModel;
use ace_sim::SizeLevel;
use ace_workloads::{MethodId, Op, Program};

/// Resident bytes a method touches per invocation, following calls.
fn resident_bytes(p: &Program, m: MethodId, depth: u32) -> u64 {
    if depth > 32 {
        return 0;
    }
    let mut total = 0;
    for op in &p.method(m).ops {
        match *op {
            Op::Compute { pattern, .. } => {
                let pat = p.pattern(pattern);
                if pat.reset_on_entry {
                    total += pat.working_set;
                }
            }
            Op::Call { callee } => total += resident_bytes(p, callee, depth + 1),
            _ => {}
        }
    }
    total
}

/// Smallest level of `max_bytes` geometry holding `bytes` with headroom.
fn level_for(bytes: u64, max_bytes: u64) -> SizeLevel {
    for idx in (0..4u8).rev() {
        let level = SizeLevel::new(idx).unwrap();
        if (max_bytes >> idx) * 4 / 5 >= bytes {
            return level;
        }
    }
    SizeLevel::LARGEST
}

pub(super) fn run(ctx: &ExpCtx) -> BenchResult<Report> {
    let mut report = Report::new("ablation_prediction");
    let model = EnergyModel::default_180nm();
    let out = &mut report.text;
    outln!(
        out,
        "Extension: JIT configuration prediction vs runtime tuning\n"
    );
    let mut rows = Vec::new();
    let mut agg = Vec::new();
    // The baseline and the tuned scheme are headline legs; the predicted
    // manager is built per method, so it runs alone.
    for h in &ctx.headline()? {
        let name = h.workload.as_str();
        let program = ace_workloads::preset(name).unwrap();
        let (base, tuned_run, tuned_rep) = (&h.baseline, &h.hotspot, &h.hotspot_report);

        let mut predicted = HotspotAceManager::new(HotspotManagerConfig::default(), model);
        for id in 0..program.method_count() as u32 {
            let m = MethodId(id);
            let bytes = resident_bytes(&program, m, 0);
            // The L2 prediction covers the whole program footprint; the
            // analysis approximates it with the largest streamed region.
            let l2_bytes: u64 = program
                .patterns()
                .iter()
                .filter(|p| !p.reset_on_entry)
                .map(|p| p.working_set)
                .max()
                .unwrap_or(0)
                + bytes;
            predicted.set_prediction(
                m,
                AceConfig::both(
                    level_for(bytes, 64 << 10),
                    level_for(l2_bytes * 3 / 2, 1024 << 10),
                ),
            );
        }
        let pred_run = Experiment::workload(name)
            .telemetry(&ctx.telemetry)
            .run_with(&mut predicted)?;
        let pred_rep = predicted.report();

        let t_sav = 100.0 * tuned_run.saving_vs(base);
        let p_sav = 100.0 * pred_run.saving_vs(base);
        agg.push((
            t_sav,
            p_sav,
            100.0 * tuned_run.slowdown_vs(base),
            100.0 * pred_run.slowdown_vs(base),
        ));
        rows.push(vec![
            name.to_string(),
            format!("{t_sav:.1}"),
            format!("{p_sav:.1}"),
            format!("{:.2}", 100.0 * tuned_run.slowdown_vs(base)),
            format!("{:.2}", 100.0 * pred_run.slowdown_vs(base)),
            format!("{}", tuned_rep.l1d().tunings + tuned_rep.l2().tunings),
            format!("{}", pred_rep.l1d().tunings + pred_rep.l2().tunings),
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
    ]);
    outln!(
        out,
        "{}",
        format_table(
            &[
                "bench",
                "tuned sav%",
                "pred sav%",
                "tuned slow%",
                "pred slow%",
                "tuned trials",
                "pred trials"
            ],
            &rows
        )
    );
    Ok(report)
}
