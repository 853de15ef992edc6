//! # The experiment registry
//!
//! Every table, figure, ablation, and extension of the evaluation is a
//! library entry point `fn run(&ExpCtx) -> BenchResult<Report>` registered
//! in [`REGISTRY`]; `run_all <name>` runs one entry, and `run_all`
//! schedules the whole registry as jobs on the [`crate::engine`] pool.
//!
//! Experiments never print or write reports: they render into a
//! [`Report`] which the caller prints or saves from the ordered merge
//! phase — that is what keeps a parallel `run_all` byte-identical to a
//! serial one. The only files an experiment writes are result caches.

mod ablation_decoupling;
mod ablation_energy_model;
mod ablation_interval;
mod ablation_prediction;
mod ablation_seeds;
mod ablation_threshold;
pub mod corpus;
mod dtlb;
mod ext_chip_context;
mod ext_detectors;
mod ext_schemes;
mod ext_threads;
mod ext_window;
mod fig1_phase_stability;
mod fig3_energy;
mod fig4_perf;
pub mod pdm;
mod table1_latency;
mod table4_hotspots;
mod table5_runtime;
mod table6_tuning;

use crate::{BenchError, BenchResult, ExperimentSet, SchemeResults};
use ace_telemetry::Telemetry;

/// `writeln!` into a `String` report body, ignoring the (infallible)
/// formatting result — the experiment-side replacement for `println!`.
macro_rules! outln {
    ($out:expr) => {
        $out.push('\n')
    };
    ($out:expr, $($arg:tt)*) => {{
        use std::fmt::Write as _;
        let _ = writeln!($out, $($arg)*);
    }};
}
pub(crate) use outln;

/// What one experiment produced: its stdout text, not yet printed or
/// saved.
#[derive(Debug, Clone)]
pub struct Report {
    /// Registry name (also the `results/<name>.txt` artifact stem).
    pub name: &'static str,
    /// The text a serial binary would have printed to stdout.
    pub text: String,
}

impl Report {
    pub(crate) fn new(name: &'static str) -> Report {
        Report {
            name,
            text: String::new(),
        }
    }
}

/// The context an experiment runs in: its own telemetry handle (a
/// buffered child of the pool's parent when scheduled by the engine),
/// plus the pool width and cache policy of the cached sets it runs.
pub struct ExpCtx {
    /// Observability handle for every run the experiment makes.
    pub telemetry: Telemetry,
    /// Worker-pool width of the experiment's cached sets. A full
    /// `run_all` gives its siblings 1: the headline cache is already warm
    /// from its parallel phase 1, and a nested pool per sibling would
    /// oversubscribe the machine.
    pub jobs: usize,
    /// Ignore cached results and re-run.
    pub fresh: bool,
}

impl ExpCtx {
    /// The headline results all figure/table experiments consume: the
    /// seven workloads under the three schemes, from cache when present.
    ///
    /// # Errors
    ///
    /// Propagates any failed run.
    pub fn headline(&self) -> BenchResult<Vec<SchemeResults>> {
        ExperimentSet::all_presets()
            .fresh(self.fresh)
            .telemetry(&self.telemetry)
            .run_parallel(self.jobs)
    }
}

/// One registered experiment.
pub struct ExperimentDef {
    /// Registry name — the `run_all <name>` argument and the
    /// `results/<name>.txt` stem.
    pub name: &'static str,
    /// One-line description (shown by `run_all`'s failure report).
    pub summary: &'static str,
    /// The entry point.
    pub run: fn(&ExpCtx) -> BenchResult<Report>,
}

/// Every sibling experiment regenerated by a full run, in report order.
pub const REGISTRY: &[ExperimentDef] = &[
    ExperimentDef {
        name: "fig1_phase_stability",
        summary: "Figure 1: stable vs transitional BBV phases",
        run: fig1_phase_stability::run,
    },
    ExperimentDef {
        name: "table1_latency",
        summary: "Table 1: identification/tuning latency comparison",
        run: table1_latency::run,
    },
    ExperimentDef {
        name: "table4_hotspots",
        summary: "Table 4: runtime hotspot characteristics",
        run: table4_hotspots::run,
    },
    ExperimentDef {
        name: "table5_runtime",
        summary: "Table 5: hotspot/BBV runtime characteristics",
        run: table5_runtime::run,
    },
    ExperimentDef {
        name: "table6_tuning",
        summary: "Table 6: tunings, reconfigurations, coverage",
        run: table6_tuning::run,
    },
    ExperimentDef {
        name: "fig3_energy",
        summary: "Figure 3: L1D/L2 energy reduction",
        run: fig3_energy::run,
    },
    ExperimentDef {
        name: "fig4_perf",
        summary: "Figure 4: slowdown vs baseline",
        run: fig4_perf::run,
    },
    ExperimentDef {
        name: "ablation_decoupling",
        summary: "Ablation: CU decoupling on vs off",
        run: ablation_decoupling::run,
    },
    ExperimentDef {
        name: "ablation_threshold",
        summary: "Ablation: hot_threshold sweep",
        run: ablation_threshold::run,
    },
    ExperimentDef {
        name: "ablation_interval",
        summary: "Ablation: BBV sampling-interval sweep",
        run: ablation_interval::run,
    },
    ExperimentDef {
        name: "ablation_prediction",
        summary: "Extension: JIT configuration prediction",
        run: ablation_prediction::run,
    },
    ExperimentDef {
        name: "ablation_seeds",
        summary: "Robustness: executor-seed sensitivity",
        run: ablation_seeds::run,
    },
    ExperimentDef {
        name: "ablation_energy_model",
        summary: "Robustness: energy-model sensitivity",
        run: ablation_energy_model::run,
    },
    ExperimentDef {
        name: "ext_schemes",
        summary: "Extension: full scheme comparison",
        run: ext_schemes::run,
    },
    ExperimentDef {
        name: "ext_window",
        summary: "Extension: third configurable unit",
        run: ext_window::run,
    },
    ExperimentDef {
        name: "dtlb",
        summary: "Extension: DTLB as a registry-registered CU",
        run: dtlb::run,
    },
    ExperimentDef {
        name: "ext_detectors",
        summary: "Extension: phase-detector comparison",
        run: ext_detectors::run,
    },
    ExperimentDef {
        name: "ext_chip_context",
        summary: "Extension: chip-level context",
        run: ext_chip_context::run,
    },
    ExperimentDef {
        name: "ext_threads",
        summary: "Extension: genuine multithreading",
        run: ext_threads::run,
    },
    ExperimentDef {
        name: "pdm",
        summary: "Extension: Phase Distance Mapping prediction vs search",
        run: pdm::run,
    },
    ExperimentDef {
        name: "corpus",
        summary: "Differential oracles over generated workloads",
        run: corpus::run,
    },
];

/// Looks up a registered experiment by name.
pub fn find(name: &str) -> Option<&'static ExperimentDef> {
    REGISTRY.iter().find(|def| def.name == name)
}

/// Runs one registered experiment to a [`Report`].
///
/// # Errors
///
/// Fails for unknown names and propagates the experiment's own failure.
pub fn run_experiment(name: &str, ctx: &ExpCtx) -> BenchResult<Report> {
    let def = find(name).ok_or_else(|| {
        BenchError::msg(format!(
            "unknown experiment {name:?}; expected one of {:?}",
            REGISTRY.iter().map(|d| d.name).collect::<Vec<_>>()
        ))
    })?;
    (def.run)(ctx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_experiment_is_an_error() {
        let ctx = ExpCtx {
            telemetry: Telemetry::off(),
            jobs: 1,
            fresh: false,
        };
        let err = run_experiment("bogus", &ctx).unwrap_err();
        assert!(err.to_string().contains("bogus"), "{err}");
        assert!(err.to_string().contains("fig1_phase_stability"), "{err}");
    }

    #[test]
    fn registry_names_are_unique_and_found() {
        for def in REGISTRY {
            assert_eq!(find(def.name).unwrap().name, def.name);
            assert!(!def.summary.is_empty());
        }
        let mut names: Vec<_> = REGISTRY.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), REGISTRY.len());
    }
}
