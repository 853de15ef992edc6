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
use ace_core::Experiment;
use ace_energy::EnergyModel;
use ace_runtime::DoConfig;
use ace_workloads::PRESET_NAMES;

pub(super) fn run(ctx: &ExpCtx) -> BenchResult<Report> {
    let mut report = Report::new("ext_window");
    let model = EnergyModel::default_180nm_with_window();
    let mut rows = Vec::new();
    let mut agg: Vec<[f64; 4]> = Vec::new();

    for name in PRESET_NAMES {
        let experiment = || {
            Experiment::workload(name)
                .energy(model)
                .telemetry(&ctx.telemetry)
        };
        // Two-CU configuration (the paper's evaluation), window energy
        // counted but not adapted.
        let [base, r2] = run_group(experiment(), ["baseline", "hotspot"])?;
        let (base, r2) = (&base.record, &r2.record);

        // Three-CU configuration: leaves become window hotspots.
        let three = experiment()
            .do_config(DoConfig::with_window())
            .scheme("hotspot")
            .run_scheme()?;
        let (r3, rep3) = (&three.record, hotspot_report(&three));

        let sav2 = 100.0 * r2.saving_vs(base);
        let sav3 = 100.0 * r3.saving_vs(base);
        let win_sav = 100.0 * (1.0 - r3.energy.window_nj / base.energy.window_nj);
        agg.push([
            sav2,
            sav3,
            100.0 * r2.slowdown_vs(base),
            100.0 * r3.slowdown_vs(base),
        ]);
        rows.push(vec![
            name.to_string(),
            format!("{sav2:.1}"),
            format!("{sav3:.1}"),
            format!("{win_sav:.1}"),
            format!("{:.2}", 100.0 * r2.slowdown_vs(base)),
            format!("{:.2}", 100.0 * r3.slowdown_vs(base)),
            format!("{}", rep3.window_hotspots()),
            format!("{}", rep3.window().tunings),
            format!("{}", rep3.window().reconfigs),
        ]);
    }
    rows.push(vec![
        "avg".into(),
        format!("{:.1}", mean(agg.iter().map(|a| a[0]))),
        format!("{:.1}", mean(agg.iter().map(|a| a[1]))),
        String::new(),
        format!("{:.2}", mean(agg.iter().map(|a| a[2]))),
        format!("{:.2}", mean(agg.iter().map(|a| a[3]))),
        String::new(),
        String::new(),
        String::new(),
    ]);
    let out = &mut report.text;
    outln!(
        out,
        "Extension: two-CU vs three-CU ACE (total configurable-unit energy,"
    );
    outln!(
        out,
        "including the instruction window in both denominators)\n"
    );
    outln!(
        out,
        "{}",
        format_table(
            &[
                "bench",
                "2CU sav%",
                "3CU sav%",
                "WIN sav%",
                "2CU slow%",
                "3CU slow%",
                "WIN hs",
                "WIN tunings",
                "WIN reconfigs"
            ],
            &rows
        )
    );
    Ok(report)
}
