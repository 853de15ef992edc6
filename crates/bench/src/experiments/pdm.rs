//! **Extension: Phase Distance Mapping** — prediction vs search.
//!
//! The hotspot scheme *searches*: every adaptable hotspot walks its
//! candidate-configuration list one trial invocation at a time. Phase
//! Distance Mapping (Adegbija et al.) keeps the same substrate but
//! *predicts*: each tuned hotspot deposits a behavioral vector
//! (reference-trial IPC, energy-per-instruction, log₂ invocation size)
//! into a knowledge table, and a new hotspot whose vector lands within a
//! distance threshold of an already-tuned one skips the walk and installs
//! the neighbour's configuration directly.
//!
//! This experiment quantifies where prediction beats search. Alongside
//! four paper presets it runs two synthetic workloads built to sit at the
//! extremes:
//!
//! * `pdm_shortphase` — many short, behaviorally similar kernels. Search
//!   pays the full list walk per kernel; PDM pays it once and predicts
//!   the rest.
//! * `pdm_drift` — a hot kernel whose cache behavior is periodically
//!   wrecked by a streaming polluter. Every drift retune re-enters
//!   tuning, and PDM re-predicts from the table instead of re-walking.
//!
//! Each workload runs its three schemes as legs of one shared run
//! through [`ExperimentSet::run_cached`], which caches them
//! content-addressed under `results/pdm-<workload>-<key>.json` (the
//! `pdm-` namespace; see `check_results`).

use super::{outln, ExpCtx, Report};
use crate::{format_table, BenchResult, CachedResults, ExperimentSet};
use ace_core::{Experiment, HotspotReport, PdmReport, RunRecord, SchemeExt, SchemeRun};
use ace_workloads::{MemPattern, Program, ProgramBuilder, Stmt};
use serde::{Deserialize, Serialize};

/// The workloads of the prediction-vs-search comparison: four paper
/// presets plus the two synthetic extremes.
pub const PDM_WORKLOADS: [&str; 6] = ["db", "jess", "javac", "mpeg", "pdm_shortphase", "pdm_drift"];

/// One workload's three runs plus the scheme reports — the unit cached
/// under the `pdm-` results namespace.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PdmResults {
    /// Workload name (a preset or one of the synthetic extremes).
    pub workload: String,
    /// Non-adaptive run (maximum cache sizes).
    pub baseline: RunRecord,
    /// Searching hotspot-scheme run.
    pub hotspot: RunRecord,
    /// Hotspot scheme report.
    pub hotspot_report: HotspotReport,
    /// Predicting PDM run.
    pub pdm: RunRecord,
    /// PDM scheme report.
    pub pdm_report: PdmReport,
}

impl PdmResults {
    /// Configuration trials the searching scheme measured.
    pub fn search_trials(&self) -> u64 {
        self.hotspot_report.cu.iter().map(|s| s.tunings).sum()
    }

    /// Configuration trials the predicting scheme measured.
    pub fn pdm_trials(&self) -> u64 {
        self.pdm_report.base.cu.iter().map(|s| s.tunings).sum()
    }

    /// Trials prediction avoided relative to search (negative when the
    /// predicting run measured more).
    pub fn trials_saved_vs_search(&self) -> i64 {
        self.search_trials() as i64 - self.pdm_trials() as i64
    }

    /// Total cache-energy saving vs baseline, in percent.
    pub fn saving_pct(&self, run: &RunRecord) -> f64 {
        100.0 * (1.0 - run.energy.total_nj() / self.baseline.energy.total_nj())
    }

    /// Slowdown vs baseline, in percent.
    pub fn slowdown_pct(&self, run: &RunRecord) -> f64 {
        100.0 * run.slowdown_vs(&self.baseline)
    }
}

impl CachedResults for PdmResults {
    const PREFIX: &'static str = "pdm-";
    const SCHEMES: &'static [&'static str] = &["baseline", "hotspot", "pdm"];

    /// A paper preset, or one of the two synthetic programs defined here.
    fn experiment(workload: &str) -> Experiment {
        match workload {
            "pdm_shortphase" => Experiment::program(shortphase_program()),
            "pdm_drift" => Experiment::program(drift_program()),
            _ => Experiment::preset(workload),
        }
    }

    fn assemble(workload: &str, runs: Vec<SchemeRun>) -> PdmResults {
        let Ok([baseline, hotspot, pdm]) = <[SchemeRun; 3]>::try_from(runs) else {
            unreachable!("one run per scheme of SCHEMES")
        };
        let (SchemeExt::Hotspot(hotspot_report), SchemeExt::Pdm(pdm_report)) =
            (hotspot.report.ext, pdm.report.ext)
        else {
            unreachable!("scheme order is fixed by SCHEMES")
        };
        PdmResults {
            workload: workload.to_string(),
            baseline: baseline.record,
            hotspot: hotspot.record,
            hotspot_report,
            pdm: pdm.record,
            pdm_report,
        }
    }
}

/// Many short, behaviorally similar kernels run back-to-back: the
/// short-phase extreme. Search walks the L1D candidate list once per
/// kernel; PDM walks it for the first kernel and predicts the rest.
fn shortphase_program() -> Program {
    let mut b = ProgramBuilder::new("pdm_shortphase", 101);
    let mut kernels = Vec::new();
    for i in 0..24u32 {
        // Working sets vary slightly so kernels are distinct methods with
        // near-identical behavioral vectors.
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
        kernels.push(kernel);
    }
    let body = kernels
        .iter()
        .map(|&k| Stmt::Call {
            callee: k,
            count: 24,
        })
        .collect();
    let main = b.add_method("main", body);
    b.entry(main).build().expect("shortphase program validates")
}

/// A hot kernel periodically wrecked by a streaming polluter: the
/// drift-heavy extreme. Each polluted era drops the kernel's IPC past the
/// retune threshold; search re-walks its list on every retune, PDM
/// re-predicts from the knowledge table.
fn drift_program() -> Program {
    let mut b = ProgramBuilder::new("pdm_drift", 202);
    // Three identical cache-sensitive kernels: random walks over working
    // sets larger than the largest L1D (but jointly L2-resident), so
    // refilling one from memory after the polluter flushes the hierarchy
    // costs more cycles than the kernel's own computation — IPC collapses
    // past the 50% retune threshold, and all three drift together.
    let mut hots = Vec::new();
    for i in 0..3u32 {
        let ws = 256 << 10;
        let base = b.alloc_region(ws);
        let pat = b.add_pattern(MemPattern::random(base, ws));
        hots.push(b.add_method(
            format!("hot{i}"),
            vec![Stmt::Compute {
                ninstr: 60_000,
                pattern: pat,
            }],
        ));
    }
    // The polluter streams a region twice the L2, evicting the kernels'
    // working sets from every cache level between their invocations.
    let pollute_region = 2 << 20;
    let pollute_base = b.alloc_region(pollute_region);
    let pollute_pat = b.add_pattern(MemPattern::streaming(pollute_base, pollute_region));
    let pollute = b.add_method(
        "pollute",
        vec![Stmt::Compute {
            ninstr: 600_000,
            pattern: pollute_pat,
        }],
    );
    let round: Vec<Stmt> = hots
        .iter()
        .map(|&h| Stmt::Call {
            callee: h,
            count: 1,
        })
        .collect();
    // Quiet era (the kernels converge on a warm cache), polluted era
    // (every invocation starts cold → IPC drifts → all three retune),
    // trailing quiet era. When the drift wave hits, search re-walks the
    // candidate list for each kernel; PDM re-walks it for the first and
    // predicts the other two from the fresh table entry.
    let mut polluted_round = vec![Stmt::Call {
        callee: pollute,
        count: 1,
    }];
    polluted_round.extend(round.clone());
    let body = vec![
        Stmt::Loop {
            count: 48,
            body: round.clone(),
        },
        Stmt::Loop {
            count: 32,
            body: polluted_round,
        },
        Stmt::Loop {
            count: 32,
            body: round,
        },
    ];
    let main = b.add_method("main", body);
    b.entry(main).build().expect("drift program validates")
}

/// Renders the prediction-vs-search report from completed results.
pub fn render(results: &[PdmResults]) -> Report {
    let mut report = Report::new("pdm");
    let mut rows = Vec::new();
    for r in results {
        let p = &r.pdm_report;
        rows.push(vec![
            r.workload.clone(),
            format!(
                "{:.1}/{:.2}",
                r.saving_pct(&r.hotspot),
                r.slowdown_pct(&r.hotspot)
            ),
            format!("{:.1}/{:.2}", r.saving_pct(&r.pdm), r.slowdown_pct(&r.pdm)),
            format!("{}", r.search_trials()),
            format!("{}", r.pdm_trials()),
            format!("{}", r.trials_saved_vs_search()),
            format!(
                "{}/{} ({:.0}%)",
                p.predict_hits,
                p.predict_hits + p.predict_misses,
                100.0 * p.hit_rate()
            ),
            format!("{}", p.known_phases),
        ]);
    }
    let out = &mut report.text;
    outln!(
        out,
        "Extension: Phase Distance Mapping — prediction vs search"
    );
    outln!(
        out,
        "hotspot searches its candidate list per hotspot; pdm predicts the"
    );
    outln!(
        out,
        "configuration from behaviorally nearest already-tuned phases\n"
    );
    outln!(
        out,
        "{}",
        format_table(
            &[
                "bench",
                "hot sav/slow",
                "pdm sav/slow",
                "search",
                "pdmtrials",
                "saved",
                "hits (rate)",
                "known",
            ],
            &rows
        )
    );
    report
}

pub(super) fn run(ctx: &ExpCtx) -> BenchResult<Report> {
    let results: Vec<PdmResults> = ExperimentSet::presets(PDM_WORKLOADS)
        .fresh(ctx.fresh)
        .telemetry(&ctx.telemetry)
        .run_cached(ctx.jobs)?;
    Ok(render(&results))
}
