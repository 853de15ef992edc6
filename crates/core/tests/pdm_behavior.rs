//! End-to-end behavior of the PDM scheme against its hotspot substrate:
//! with the distance threshold at zero every prediction lookup misses and
//! the run degrades *exactly* to search; with the default threshold a
//! workload of behaviorally similar kernels produces prediction hits and
//! measurably fewer trials.

use ace_core::{Experiment, PdmManagerConfig, Scheme, SchemeExt};
use ace_workloads::{MemPattern, Program, ProgramBuilder, Stmt};

/// Eight short kernels with near-identical behavior: the first tunes by
/// search, the rest are prediction-hit candidates.
fn similar_kernels() -> Program {
    let mut b = ProgramBuilder::new("pdm_similar", 7);
    let mut body = Vec::new();
    for i in 0..8u32 {
        let ws = 4096 + 64 * u64::from(i);
        let base = b.alloc_region(ws);
        let pat = b.add_pattern(MemPattern::resident(base, ws));
        let kernel = b.add_method(
            format!("kernel{i}"),
            vec![Stmt::Compute {
                ninstr: 60_000,
                pattern: pat,
            }],
        );
        body.push(Stmt::Call {
            callee: kernel,
            count: 24,
        });
    }
    let main = b.add_method("main", body);
    b.entry(main).build().expect("program validates")
}

#[test]
fn zero_threshold_degrades_exactly_to_search() {
    let hotspot = Experiment::program(similar_kernels())
        .scheme("hotspot")
        .run_scheme()
        .unwrap();

    // distance_threshold 0 with the strict `<` comparison can never hit:
    // every lookup misses and the tuner walks the same list the hotspot
    // scheme walks, so the measured run is identical.
    let pdm = Experiment::program(similar_kernels())
        .scheme(Scheme::Pdm(PdmManagerConfig {
            distance_threshold: 0.0,
            ..PdmManagerConfig::default()
        }))
        .run_scheme()
        .unwrap();

    assert_eq!(
        serde_json::to_string(&hotspot.record).unwrap(),
        serde_json::to_string(&pdm.record).unwrap(),
        "threshold-0 PDM must measure the exact run hotspot search measures"
    );
    assert_eq!(hotspot.report.tunings, pdm.report.tunings);
    assert_eq!(hotspot.report.reconfigs, pdm.report.reconfigs);
    assert_eq!(hotspot.report.tuned_scopes, pdm.report.tuned_scopes);

    let SchemeExt::Pdm(report) = &pdm.report.ext else {
        panic!("pdm run carries a pdm report");
    };
    assert_eq!(report.predict_hits, 0, "threshold 0 can never predict");
    assert!(
        report.predict_misses > 0,
        "lookups still happen, they all miss"
    );
}

#[test]
fn similar_kernels_predict_and_save_trials() {
    let hotspot = Experiment::program(similar_kernels())
        .scheme("hotspot")
        .run_scheme()
        .unwrap();
    let pdm = Experiment::program(similar_kernels())
        .scheme("pdm")
        .run_scheme()
        .unwrap();

    let SchemeExt::Pdm(report) = &pdm.report.ext else {
        panic!("pdm run carries a pdm report");
    };
    assert!(
        report.predict_hits > 0,
        "behaviorally similar kernels must produce prediction hits"
    );
    assert!(
        pdm.report.tunings < hotspot.report.tunings,
        "prediction must measure fewer trials than search ({} vs {})",
        pdm.report.tunings,
        hotspot.report.tunings
    );
    // Guard accounting is uniform across schemes: both reports carry the
    // machine-counted value, whatever it is.
    assert_eq!(
        hotspot.report.guard_rejections,
        hotspot.record.counters.guard_rejections
    );
    assert_eq!(
        pdm.report.guard_rejections,
        pdm.record.counters.guard_rejections
    );
}
