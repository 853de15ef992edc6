//! **Extension: a third configurable unit** (Section 4.1: "We are
//! implementing several more CUs, such as the issue window and the
//! reorder buffer").
//!
//! Adds a size-configurable instruction window (64/32/16/8 entries,
//! 10 K-instruction reconfiguration interval) as a third CU. CU decoupling
//! extends naturally: hotspots of 3 K–50 K instructions — the leaf methods,
//! previously too small to adapt anything — tune the window, while the
//! kernel and stage hotspots keep tuning the caches. This demonstrates the
//! scalability claim of Section 3.6: adding a CU adds a hotspot size
//! class, not a multiplicative blow-up of the tuning search.
//!
//! The BBV baseline *cannot* adapt the window at all: its sampling
//! interval is pinned to the slowest CU's 1 M-instruction interval, two
//! orders of magnitude above the window's — exactly the "lost
//! reconfiguration opportunities" argument of Section 2.3.

use super::{hotspot_report, outln, run_group, ExpCtx, Report};
use crate::{format_table, mean, BenchResult};
use ace_core::{Experiment, HotspotManagerConfig, RunConfig, Scheme};
use ace_energy::{EnergyBreakdown, EnergyModel};
use ace_runtime::DoConfig;
use ace_sim::CuId;
use ace_workloads::PRESET_NAMES;

pub(super) fn run(ctx: &ExpCtx) -> BenchResult<Report> {
    // Two-CU configuration (the paper's evaluation), window energy counted
    // but not adapted; in the three-CU one, leaves become window hotspots.
    let two = RunConfig {
        energy: EnergyModel::default_180nm_with_window(),
        ..RunConfig::default()
    };
    let three = RunConfig {
        do_config: DoConfig::with_window(),
        ..two.clone()
    };
    third_cu(
        ctx,
        "ext_window",
        (CuId::Window, |e| e.window_nj),
        [two.clone(), two, three],
        "Extension: two-CU vs three-CU ACE (total configurable-unit energy,\n\
         including the instruction window in both denominators)",
        ["3CU", "WIN"],
    )
}

/// The comparison `ext_window` and `dtlb` share: on every preset, a
/// baseline, the paper's two-CU hotspot scheme and a hotspot scheme that
/// also adapts a third unit (a CU and its energy field), as legs of one
/// run under the three configurations, in that order. `title` heads the
/// table; the two labels name the three-CU scheme's columns and the
/// unit's own.
pub(super) fn third_cu(
    ctx: &ExpCtx,
    name: &'static str,
    (cu, unit_nj): (CuId, fn(&EnergyBreakdown) -> f64),
    [base, two, three]: [RunConfig; 3],
    title: &str,
    [scheme, unit]: [&str; 2],
) -> BenchResult<Report> {
    let mut report = Report::new(name);
    let hotspot = Scheme::Hotspot(HotspotManagerConfig::default());
    let legs = [
        (base, Scheme::Baseline),
        (two, hotspot.clone()),
        (three, hotspot),
    ];
    let mut rows = Vec::new();
    let mut agg: Vec<[f64; 4]> = Vec::new();
    for workload in PRESET_NAMES {
        let experiment = Experiment::workload(workload).telemetry(&ctx.telemetry);
        let [base, r2, r3] = run_group(experiment, legs.clone())?;
        let rep3 = hotspot_report(&r3);
        let (base, r2, r3) = (&base.record, &r2.record, &r3.record);
        let sav2 = 100.0 * r2.saving_vs(base);
        let sav3 = 100.0 * r3.saving_vs(base);
        let unit_sav = 100.0 * (1.0 - unit_nj(&r3.energy) / unit_nj(&base.energy));
        let (slow2, slow3) = (100.0 * r2.slowdown_vs(base), 100.0 * r3.slowdown_vs(base));
        agg.push([sav2, sav3, slow2, slow3]);
        rows.push(vec![
            workload.to_string(),
            format!("{sav2:.1}"),
            format!("{sav3:.1}"),
            format!("{unit_sav:.1}"),
            format!("{slow2:.2}"),
            format!("{slow3:.2}"),
            format!("{}", rep3.hotspots_of(cu)),
            format!("{}", rep3.stats(cu).tunings),
            format!("{}", rep3.stats(cu).reconfigs),
        ]);
    }
    let avg = |i: usize| mean(agg.iter().map(|a| a[i]));
    rows.push(vec![
        "avg".into(),
        format!("{:.1}", avg(0)),
        format!("{:.1}", avg(1)),
        String::new(),
        format!("{:.2}", avg(2)),
        format!("{:.2}", avg(3)),
        String::new(),
        String::new(),
        String::new(),
    ]);
    let header = [
        "bench".to_string(),
        "2CU sav%".into(),
        format!("{scheme} sav%"),
        format!("{unit} sav%"),
        "2CU slow%".into(),
        format!("{scheme} slow%"),
        format!("{unit} hs"),
        format!("{unit} tunings"),
        format!("{unit} reconfigs"),
    ];
    let out = &mut report.text;
    outln!(out, "{title}\n");
    outln!(
        out,
        "{}",
        format_table(&header.each_ref().map(String::as_str), &rows)
    );
    Ok(report)
}
