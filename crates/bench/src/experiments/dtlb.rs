//! **Extension: the DTLB as a registry-registered configurable unit**
//! (the Section 3.6 scalability claim, proven end to end).
//!
//! The 128-entry data TLB becomes a third adapted CU purely by data:
//! [`ace_sim::MachineConfig::dtlb_configurable`] registers a descriptor
//! (4-level ladder, 10 K-instruction reconfiguration interval,
//! invalidate-all flush semantics) with the machine's CU registry, the
//! DO system derives its hotspot grain from that descriptor, the tuner
//! walks `single_cu_list(CuId::Dtlb)`, and the energy model prices its
//! lookups, comparator leakage, and flush refills. No scheme code knows
//! the DTLB exists — which is the point.
//!
//! Hotspots of 10 K–50 K instructions — previously too small to adapt
//! anything — now tune the DTLB, while the kernel and stage hotspots
//! keep tuning the caches exactly as in the paper's evaluation.

use super::{outln, ExpCtx, Report};
use crate::{format_table, mean, BenchResult};
use ace_core::{Experiment, HotspotAceManager, HotspotManagerConfig, RunConfig};
use ace_energy::EnergyModel;
use ace_runtime::DoConfig;
use ace_sim::{CuId, MachineConfig};
use ace_workloads::PRESET_NAMES;

pub(super) fn run(ctx: &ExpCtx) -> BenchResult<Report> {
    let mut report = Report::new("dtlb");
    let model = EnergyModel::default_180nm_with_dtlb();

    // The DTLB joins by registration, not by code: flipping this flag
    // adds its descriptor to `MachineConfig::cu_registry()`.
    let mut machine = MachineConfig::table2();
    machine.dtlb_configurable = true;

    // Hotspot grains derived from the registry's descriptors. The window
    // CU stays vestigial (as in the paper's two-CU evaluation), so the
    // adapted set is L1D + L2 + DTLB.
    let mut do_config = DoConfig::for_registry(&machine.cu_registry());
    do_config.grains.retain(|g| g.cu != CuId::Window);

    let mut rows = Vec::new();
    let mut agg: Vec<[f64; 4]> = Vec::new();
    for name in PRESET_NAMES {
        let cfg = RunConfig {
            machine: machine.clone(),
            do_config: do_config.clone(),
            energy: model,
            ..RunConfig::default()
        };
        let base = Experiment::workload(name)
            .config(cfg.clone())
            .telemetry(&ctx.telemetry)
            .run()?;

        // The paper's two-CU manager on the same machine (DTLB counted,
        // never adapted) isolates what the third unit adds.
        let cfg2 = RunConfig {
            machine: machine.clone(),
            energy: model,
            ..RunConfig::default()
        };
        let mut two = HotspotAceManager::new(HotspotManagerConfig::default(), model);
        let r2 = Experiment::workload(name)
            .config(cfg2)
            .telemetry(&ctx.telemetry)
            .run_with(&mut two)?;

        let mut three = HotspotAceManager::new(HotspotManagerConfig::default(), model);
        let r3 = Experiment::workload(name)
            .config(cfg)
            .telemetry(&ctx.telemetry)
            .run_with(&mut three)?;
        let rep3 = three.report();

        let sav2 = 100.0 * r2.saving_vs(&base);
        let sav3 = 100.0 * r3.saving_vs(&base);
        let tlb_sav = 100.0 * (1.0 - r3.energy.dtlb_nj / base.energy.dtlb_nj);
        agg.push([
            sav2,
            sav3,
            100.0 * r2.slowdown_vs(&base),
            100.0 * r3.slowdown_vs(&base),
        ]);
        rows.push(vec![
            name.to_string(),
            format!("{sav2:.1}"),
            format!("{sav3:.1}"),
            format!("{tlb_sav:.1}"),
            format!("{:.2}", 100.0 * r2.slowdown_vs(&base)),
            format!("{:.2}", 100.0 * r3.slowdown_vs(&base)),
            format!("{}", rep3.hotspots_of(CuId::Dtlb)),
            format!("{}", rep3.dtlb().tunings),
            format!("{}", rep3.dtlb().reconfigs),
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
        "Extension: DTLB registered as a configurable unit (total CU energy,"
    );
    outln!(out, "including the DTLB in both denominators)\n");
    outln!(
        out,
        "{}",
        format_table(
            &[
                "bench",
                "2CU sav%",
                "+DTLB sav%",
                "TLB sav%",
                "2CU slow%",
                "+DTLB slow%",
                "TLB hs",
                "TLB tunings",
                "TLB reconfigs"
            ],
            &rows
        )
    );
    Ok(report)
}
