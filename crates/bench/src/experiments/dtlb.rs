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

use super::ext_window::third_cu;
use super::{ExpCtx, Report};
use crate::BenchResult;
use ace_core::RunConfig;
use ace_energy::EnergyModel;
use ace_runtime::DoConfig;
use ace_sim::{CuId, MachineConfig};

pub(super) fn run(ctx: &ExpCtx) -> BenchResult<Report> {
    // The DTLB joins by registration, not by code: flipping this flag
    // adds its descriptor to `MachineConfig::cu_registry()`.
    let mut machine = MachineConfig::table2();
    machine.dtlb_configurable = true;

    // Hotspot grains derived from the registry's descriptors. The window
    // CU stays vestigial (as in the paper's two-CU evaluation), so the
    // adapted set is L1D + L2 + DTLB.
    let mut do_config = DoConfig::for_registry(&machine.cu_registry());
    do_config.grains.retain(|g| g.cu != CuId::Window);

    // The paper's two-CU manager on the same machine (DTLB counted, never
    // adapted) isolates what the third unit adds.
    let two = RunConfig {
        machine,
        energy: EnergyModel::default_180nm_with_dtlb(),
        ..RunConfig::default()
    };
    let three = RunConfig {
        do_config,
        ..two.clone()
    };
    third_cu(
        ctx,
        "dtlb",
        (CuId::Dtlb, |e| e.dtlb_nj),
        [three.clone(), two, three],
        "Extension: DTLB registered as a configurable unit (total CU energy,\n\
         including the DTLB in both denominators)",
        ["+DTLB", "TLB"],
    )
}
