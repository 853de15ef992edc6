//! Full-length golden regression of the headline reproduction.
//!
//! These run complete (~80 M instruction) workloads and take minutes in
//! debug builds, so they are `#[ignore]`d by default; run them with
//!
//! ```text
//! cargo test --release --test headline_regression -- --ignored
//! ```
//!
//! The assertions pin the *shape* of Figures 3/4 — the claims EXPERIMENTS.md
//! records — so calibration drift fails loudly instead of silently.

use ace::core::{
    BbvAceManager, BbvManagerConfig, Experiment, HotspotAceManager, HotspotManagerConfig,
};
use ace::energy::EnergyModel;

struct Outcome {
    l1d_saving: f64,
    l2_saving: f64,
    slowdown: f64,
}

fn run_pair(name: &str) -> (Outcome, Outcome) {
    let model = EnergyModel::default_180nm();
    let base = Experiment::workload(name).run().unwrap();

    let mut bbv = BbvAceManager::new(BbvManagerConfig::default(), model);
    let b = Experiment::workload(name).run_with(&mut bbv).unwrap();
    let mut hs = HotspotAceManager::new(HotspotManagerConfig::default(), model);
    let h = Experiment::workload(name).run_with(&mut hs).unwrap();

    let mk = |r: &ace::core::RunRecord| Outcome {
        l1d_saving: 100.0 * r.l1d_saving_vs(&base),
        l2_saving: 100.0 * r.l2_saving_vs(&base),
        slowdown: 100.0 * r.slowdown_vs(&base),
    };
    (mk(&b), mk(&h))
}

#[test]
#[ignore = "full-length run; invoke with --ignored in release builds"]
fn headline_shape_holds_on_every_workload() {
    let mut bbv_l1d = Vec::new();
    let mut hs_l1d = Vec::new();
    let mut bbv_l2 = Vec::new();
    let mut hs_l2 = Vec::new();
    let mut bbv_slow = Vec::new();
    let mut hs_slow = Vec::new();

    for name in ace::workloads::PRESET_NAMES {
        let (bbv, hs) = run_pair(name);
        // The hotspot scheme wins L1D on every benchmark (Fig 3a).
        assert!(
            hs.l1d_saving > bbv.l1d_saving,
            "{name}: hotspot L1D {:.1} must beat BBV {:.1}",
            hs.l1d_saving,
            bbv.l1d_saving
        );
        // Substantial hotspot savings everywhere.
        assert!(
            hs.l1d_saving > 30.0,
            "{name}: hotspot L1D saving {:.1}",
            hs.l1d_saving
        );
        assert!(
            hs.l2_saving > 10.0,
            "{name}: hotspot L2 saving {:.1}",
            hs.l2_saving
        );
        // Slowdowns stay in the low single digits (Fig 4 band).
        assert!(
            hs.slowdown < 6.0,
            "{name}: hotspot slowdown {:.2}",
            hs.slowdown
        );
        assert!(
            bbv.slowdown < 10.0,
            "{name}: BBV slowdown {:.2}",
            bbv.slowdown
        );

        bbv_l1d.push(bbv.l1d_saving);
        hs_l1d.push(hs.l1d_saving);
        bbv_l2.push(bbv.l2_saving);
        hs_l2.push(hs.l2_saving);
        bbv_slow.push(bbv.slowdown);
        hs_slow.push(hs.slowdown);
    }

    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    // Averages land in the reproduction's recorded bands.
    assert!(avg(&hs_l1d) > 42.0, "avg hotspot L1D {:.1}", avg(&hs_l1d));
    assert!(avg(&hs_l2) > 30.0, "avg hotspot L2 {:.1}", avg(&hs_l2));
    assert!(avg(&hs_l1d) > avg(&bbv_l1d) + 15.0, "the Fig 3a gap");
    assert!(avg(&hs_l2) > avg(&bbv_l2), "the Fig 3b ordering");
    assert!(avg(&hs_slow) < avg(&bbv_slow), "the Fig 4 ordering");
    assert!(
        avg(&hs_slow) < 3.5,
        "avg hotspot slowdown {:.2}",
        avg(&hs_slow)
    );
}

#[test]
#[ignore = "full-length run; invoke with --ignored in release builds"]
fn db_keeps_its_signature_result() {
    // The paper's flagship per-benchmark observation: db's tiny working
    // sets make it a top L1D saver under the hotspot scheme while the BBV
    // compromise captures far less.
    let (bbv, hs) = run_pair("db");
    assert!(hs.l1d_saving > 45.0, "db hotspot L1D {:.1}", hs.l1d_saving);
    assert!(hs.l1d_saving - bbv.l1d_saving > 25.0, "db gap");
}
