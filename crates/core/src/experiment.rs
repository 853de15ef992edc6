//! The typed run façade: [`Experiment`] builds and executes one measured
//! run.
//!
//! An experiment names a workload (a preset or an owned [`Program`]),
//! picks a scheme (a registered id, or a [`Scheme`](crate::Scheme) value
//! for a non-default configuration), and layers run options on top of
//! [`RunConfig::default`]:
//!
//! ```
//! use ace_core::Experiment;
//!
//! let record = Experiment::workload("javac")
//!     .scheme("hotspot")
//!     .seed(7)
//!     .instruction_limit(2_000_000)
//!     .run()?;
//! assert!(record.instret >= 2_000_000);
//! # Ok::<(), ace_core::ExperimentError>(())
//! ```
//!
//! [`Experiment::run_scheme`] additionally returns the scheme manager's
//! unified [`SchemeReport`](crate::SchemeReport), and
//! [`Experiment::run_with`] accepts a hand-built [`AceManager`].
//!
//! Runs that share the workload, seed, instruction limit and threading
//! replay one instruction stream, so they can run as *legs* of one
//! shared run, in lockstep off a single executor:
//! [`Experiment::run_schemes`] takes schemes, by id or by value, and
//! returns one [`SchemeRun`] each, [`Experiment::run_legs`] takes
//! caller-built managers, each with its own telemetry handle ([`Leg`]).
//! A scheme paired with a [`RunConfig`] runs under that machine, DO and
//! energy configuration instead of the experiment's. Every leg's record
//! equals the record of its run alone.
//!
//! ```
//! use ace_core::Experiment;
//!
//! let runs = Experiment::workload("db")
//!     .instruction_limit(1_000_000)
//!     .run_schemes(["baseline", "hotspot"])?;
//! let solo = Experiment::workload("db")
//!     .scheme("hotspot")
//!     .instruction_limit(1_000_000)
//!     .run()?;
//! assert_eq!(runs[1].record.counters, solo.counters);
//! # Ok::<(), ace_core::ExperimentError>(())
//! ```

use crate::driver::{self, RunConfig, RunRecord, SingleThread, Threads};
use crate::scheme::{Scheme, SchemeCtx, SchemeReport, SchemeSpec};
use crate::AceManager;
use ace_runtime::DoConfig;
use ace_sim::ConfigError;
use ace_telemetry::Telemetry;
use ace_workloads::{MethodId, Program};
use std::fmt;

/// One completed scheme run: the measured record plus the manager report.
#[derive(Debug, Clone)]
pub struct SchemeRun {
    /// The id of the scheme that ran.
    pub scheme: String,
    /// The measured run.
    pub record: RunRecord,
    /// The scheme manager's unified report.
    pub report: SchemeReport,
}

/// Errors surfaced by [`Experiment::run`] and friends.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ExperimentError {
    /// The preset name is not one of [`ace_workloads::PRESET_NAMES`].
    UnknownWorkload(String),
    /// The scheme id is not in the builtin scheme registry.
    UnknownScheme(String),
    /// The machine configuration was rejected by the simulator.
    Machine(ConfigError),
    /// The workload resolved but could not be loaded or built (unreadable
    /// or unparsable spec file, spec failing validation), or its
    /// threading does not fit it (no thread entries, a zero quantum, an
    /// entry that is not one of the program's methods).
    Workload(String),
    /// A leg's run configuration names another seed or instruction limit
    /// than its experiment, whose stream the legs share. Carries the
    /// leg's scheme id.
    LegStream(String),
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::UnknownWorkload(name) => write!(
                f,
                "unknown workload {name:?}; expected one of {:?}",
                ace_workloads::PRESET_NAMES
            ),
            ExperimentError::UnknownScheme(name) => {
                write!(f, "unknown scheme {name:?}; not in the scheme registry")
            }
            ExperimentError::Machine(e) => write!(f, "{e}"),
            ExperimentError::Workload(msg) => write!(f, "{msg}"),
            ExperimentError::LegStream(id) => {
                write!(f, "the {id} leg's seed or limit differs from its run's")
            }
        }
    }
}

impl std::error::Error for ExperimentError {}

impl From<ConfigError> for ExperimentError {
    fn from(e: ConfigError) -> ExperimentError {
        ExperimentError::Machine(e)
    }
}

/// One caller-built leg of a shared run ([`Experiment::run_legs`]): a
/// manager plus the telemetry handle its DO system and manager trace
/// into.
pub struct Leg<'m> {
    manager: &'m mut dyn AceManager,
    telemetry: Telemetry,
}

impl<'m> Leg<'m> {
    /// A leg running `manager`, traced into `telemetry` (cloned; handles
    /// share sinks). Pass [`Telemetry::off`] for an untraced leg.
    pub fn new(manager: &'m mut dyn AceManager, telemetry: &Telemetry) -> Leg<'m> {
        Leg {
            manager,
            telemetry: telemetry.clone(),
        }
    }
}

enum Source {
    Named(String),
    Spec(Box<ace_workloads::WorkloadSpec>),
    Program(Box<Program>),
}

/// Builder for one measured run.
pub struct Experiment {
    source: Source,
    scheme: SchemeSpec,
    cfg: RunConfig,
    threading: Option<(Vec<MethodId>, u64)>,
}

impl Experiment {
    /// An experiment over a named workload. The name is resolved through
    /// [`ace_workloads::WorkloadRegistry::builtin`] when the experiment
    /// runs, so it accepts a preset name (`"db"`) *or* a path to a
    /// [`WorkloadSpec`](ace_workloads::WorkloadSpec) JSON file
    /// (`"specs/gen-1f.json"`). Unknown names yield
    /// [`ExperimentError::UnknownWorkload`]; unreadable or invalid spec
    /// files yield [`ExperimentError::Workload`].
    pub fn workload(name_or_path: impl Into<String>) -> Experiment {
        Experiment::with_source(Source::Named(name_or_path.into()))
    }

    /// An experiment over an in-memory workload spec (e.g. one from
    /// [`ace_workloads::gen`]). The spec is built when the experiment
    /// runs; build failures yield [`ExperimentError::Workload`].
    pub fn spec(spec: ace_workloads::WorkloadSpec) -> Experiment {
        Experiment::with_source(Source::Spec(Box::new(spec)))
    }

    /// An experiment over a custom [`Program`] (e.g. one built with
    /// `ace_workloads::ProgramBuilder`).
    pub fn program(program: Program) -> Experiment {
        Experiment::with_source(Source::Program(Box::new(program)))
    }

    fn with_source(source: Source) -> Experiment {
        Experiment {
            source,
            scheme: Scheme::Baseline.into(),
            cfg: RunConfig::default(),
            threading: None,
        }
    }

    /// Selects the management scheme (default baseline): a registered id
    /// (`"hotspot"`) or a [`Scheme`] value.
    pub fn scheme(mut self, scheme: impl Into<SchemeSpec>) -> Experiment {
        self.scheme = scheme.into();
        self
    }

    /// Overrides the workload's own executor seed.
    pub fn seed(mut self, seed: u64) -> Experiment {
        self.cfg.workload_seed = Some(seed);
        self
    }

    /// Caps the run at `limit` dynamic instructions.
    pub fn instruction_limit(mut self, limit: u64) -> Experiment {
        self.cfg.instruction_limit = Some(limit);
        self
    }

    /// Attaches an observability handle (cloned; handles share sinks).
    pub fn telemetry(mut self, telemetry: &Telemetry) -> Experiment {
        self.cfg.telemetry = telemetry.clone();
        self
    }

    /// Overrides the DO-system configuration.
    pub fn do_config(mut self, do_config: DoConfig) -> Experiment {
        self.cfg.do_config = do_config;
        self
    }

    /// Replaces the whole [`RunConfig`] (options set earlier are lost;
    /// later builder calls still apply on top). Its machine, DO and energy
    /// configuration apply to every leg that does not bring its own.
    pub fn config(mut self, cfg: RunConfig) -> Experiment {
        self.cfg = cfg;
        self
    }

    /// Runs the program time-multiplexed over `entries` (one executor per
    /// entry method) in `quantum_instr` slices — the threading model of
    /// the dual-threaded mtrt experiment. The record's workload is named
    /// `name(NT)` for `N` threads. Running fails with
    /// [`ExperimentError::Workload`] if `entries` is empty, the quantum is
    /// zero, or an entry is not a method of the program.
    pub fn threaded(mut self, entries: &[MethodId], quantum_instr: u64) -> Experiment {
        self.threading = Some((entries.to_vec(), quantum_instr));
        self
    }

    /// Resolves the workload and checks the threading against it, before
    /// anything runs.
    fn resolve(&self) -> Result<Program, ExperimentError> {
        let program = match &self.source {
            Source::Named(name) => ace_workloads::WorkloadRegistry::builtin()
                .resolve_program(name)
                .map_err(|e| match e {
                    ace_workloads::WorkloadError::Unknown { name, .. } => {
                        ExperimentError::UnknownWorkload(name)
                    }
                    other => ExperimentError::Workload(other.to_string()),
                }),
            Source::Spec(spec) => spec
                .build()
                .map_err(|e| ExperimentError::Workload(format!("building '{}': {e}", spec.name))),
            Source::Program(p) => Ok((**p).clone()),
        }?;
        if let Some((entries, quantum)) = &self.threading {
            let invalid = |msg: String| Err(ExperimentError::Workload(msg));
            if entries.is_empty() {
                return invalid("a threaded run needs at least one thread entry".into());
            }
            if *quantum == 0 {
                return invalid("a threaded run needs a nonzero quantum".into());
            }
            if let Some(entry) = entries
                .iter()
                .find(|m| m.0 as usize >= program.method_count())
            {
                return invalid(format!(
                    "thread entry {entry} is not a method of '{}' ({} methods)",
                    program.name(),
                    program.method_count()
                ));
            }
        }
        Ok(program)
    }

    /// Runs under the selected scheme and returns the record alone.
    ///
    /// # Errors
    ///
    /// [`ExperimentError::UnknownWorkload`] for an unknown preset name,
    /// [`ExperimentError::Workload`] for an unbuildable workload or
    /// invalid threading, [`ExperimentError::UnknownScheme`] for an
    /// unregistered scheme id, [`ExperimentError::Machine`] for an invalid
    /// machine configuration.
    pub fn run(self) -> Result<RunRecord, ExperimentError> {
        Ok(self.run_scheme()?.record)
    }

    /// Runs under the selected scheme and returns the record plus the
    /// manager's unified report. Every scheme's `guard_rejections` is
    /// filled from the machine counters uniformly.
    ///
    /// # Errors
    ///
    /// See [`Experiment::run`].
    pub fn run_scheme(self) -> Result<SchemeRun, ExperimentError> {
        let scheme = self.scheme.clone();
        let mut runs = self.run_schemes([scheme])?;
        Ok(runs.pop().expect("one run per scheme"))
    }

    /// Runs every scheme of `schemes` as one leg of a shared run and
    /// returns one [`SchemeRun`] per scheme, in order. The legs share one
    /// executor stream; each run equals what [`Experiment::run_scheme`]
    /// returns for its scheme alone. The scheme selected with
    /// [`Experiment::scheme`] is not run.
    ///
    /// A leg given as a `(RunConfig, Scheme)` pair gets its own machine,
    /// DO system and energy model (which also drives its manager's tuning
    /// objective); its seed and instruction limit must equal the
    /// experiment's.
    ///
    /// With telemetry on and more than one scheme, each leg traces into
    /// a buffered handle of its own, replayed into the experiment's
    /// handle in scheme order once the run ends: the event stream and
    /// metrics equal those of the solo runs one after another.
    ///
    /// # Errors
    ///
    /// See [`Experiment::run`]; an unregistered id in `schemes` fails the
    /// whole run before anything executes, and so does a leg configured
    /// with another seed or instruction limit
    /// ([`ExperimentError::LegStream`]).
    pub fn run_schemes<I>(self, schemes: I) -> Result<Vec<SchemeRun>, ExperimentError>
    where
        I: IntoIterator,
        I::Item: Into<SchemeSpec>,
    {
        let program = self.resolve()?;
        let specs: Vec<SchemeSpec> = schemes.into_iter().map(Into::into).collect();
        let stream = |cfg: &RunConfig| (cfg.workload_seed, cfg.instruction_limit);
        let mut legs = Vec::with_capacity(specs.len());
        for spec in &specs {
            let id = || spec.id().to_string();
            let scheme = spec
                .resolve()
                .ok_or_else(|| ExperimentError::UnknownScheme(id()))?;
            let cfg = spec.1.as_ref().unwrap_or(&self.cfg);
            if stream(cfg) != stream(&self.cfg) {
                return Err(ExperimentError::LegStream(id()));
            }
            let ctx = SchemeCtx {
                program: &program,
                model: cfg.energy,
            };
            legs.push((scheme.name(), cfg, scheme.build(&ctx)));
        }
        let shared = &self.cfg.telemetry;
        let buffered = legs.len() > 1 && shared.is_enabled();
        let handles: Vec<_> = legs
            .iter()
            .map(|_| {
                if buffered {
                    let (telemetry, sink) = Telemetry::buffered();
                    (telemetry, Some(sink))
                } else {
                    (shared.clone(), None)
                }
            })
            .collect();
        let records = self.drive(
            &program,
            legs.iter_mut()
                .zip(&handles)
                .map(|((_, cfg, manager), (telemetry, _))| {
                    (&mut **manager, *cfg, telemetry.clone())
                }),
        )?;
        let mut runs = Vec::with_capacity(records.len());
        for ((record, (name, _, manager)), (telemetry, sink)) in
            records.into_iter().zip(&legs).zip(&handles)
        {
            let report = manager.scheme_report(&record);
            // Metrics registry only — the recorded event stream stays
            // byte-identical to a run without metrics enabled.
            if let Some(metrics) = telemetry.metrics() {
                report.record_metrics(metrics);
            }
            if let Some(sink) = sink {
                shared.absorb_child(telemetry, &sink.drain());
            }
            runs.push(SchemeRun {
                scheme: name.to_string(),
                record,
                report,
            });
        }
        Ok(runs)
    }

    /// Runs under a caller-built manager, ignoring the selected scheme:
    /// for a manager no [`Scheme`] value describes (a hotspot manager
    /// given per-method predictions with
    /// [`HotspotAceManager::set_prediction`](crate::HotspotAceManager::set_prediction)),
    /// or one whose state the caller reads after the run.
    ///
    /// ```
    /// use ace_core::{Experiment, FixedManager, AceConfig};
    ///
    /// let mut mgr = FixedManager::new(AceConfig::default());
    /// let record = Experiment::workload("db")
    ///     .instruction_limit(1_000_000)
    ///     .run_with(&mut mgr)?;
    /// assert!(record.ipc > 0.0);
    /// # Ok::<(), ace_core::ExperimentError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// See [`Experiment::run`].
    pub fn run_with<M: AceManager + ?Sized>(
        self,
        manager: &mut M,
    ) -> Result<RunRecord, ExperimentError> {
        let program = self.resolve()?;
        let leg = (manager, &self.cfg, self.cfg.telemetry.clone());
        let mut records = self.drive(&program, [leg])?;
        Ok(records.pop().expect("one record per leg"))
    }

    /// Runs caller-built managers as legs of one shared run and returns
    /// one record per leg, in order; each equals what
    /// [`Experiment::run_with`] returns for that manager alone. Every leg
    /// traces into its own [`Leg`] handle, so the experiment's
    /// [`Experiment::telemetry`] handle is not used.
    ///
    /// ```
    /// use ace_core::{Experiment, FixedManager, AceConfig, Leg, NullManager};
    /// use ace_telemetry::Telemetry;
    ///
    /// let (traced, untraced) = (Telemetry::counting(), Telemetry::off());
    /// let mut fixed = FixedManager::new(AceConfig::default());
    /// let records = Experiment::workload("db")
    ///     .instruction_limit(1_000_000)
    ///     .run_legs([
    ///         Leg::new(&mut fixed, &traced),
    ///         Leg::new(&mut NullManager, &untraced),
    ///     ])?;
    /// assert_eq!(records[0].instret, records[1].instret);
    /// # Ok::<(), ace_core::ExperimentError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// See [`Experiment::run`].
    pub fn run_legs<'m>(
        self,
        legs: impl IntoIterator<Item = Leg<'m>>,
    ) -> Result<Vec<RunRecord>, ExperimentError> {
        let program = self.resolve()?;
        let legs = legs
            .into_iter()
            .map(|leg| (leg.manager, &self.cfg, leg.telemetry));
        self.drive(&program, legs)
    }

    /// Runs `legs` off one stream of this experiment's seed, instruction
    /// limit and threading.
    fn drive<'m, 'c, M: AceManager + ?Sized + 'm>(
        &self,
        program: &Program,
        legs: impl IntoIterator<Item = (&'m mut M, &'c RunConfig, Telemetry)>,
    ) -> Result<Vec<RunRecord>, ExperimentError> {
        let records = match &self.threading {
            Some((entries, quantum)) => {
                let threads = Threads::new(program, entries, *quantum, &self.cfg);
                driver::run(program, legs, threads)?
            }
            None => {
                let single = SingleThread::new(program, &self.cfg);
                driver::run(program, legs, single)?
            }
        };
        Ok(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::SchemeExt;

    #[test]
    fn builder_runs_a_preset() {
        let r = Experiment::workload("db")
            .instruction_limit(1_000_000)
            .run()
            .unwrap();
        assert!(r.instret >= 1_000_000);
        assert_eq!(r.workload, "db");
    }

    #[test]
    fn unknown_preset_is_an_error() {
        let err = Experiment::workload("nope").run().unwrap_err();
        assert!(matches!(err, ExperimentError::UnknownWorkload(_)));
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn spec_source_matches_the_named_preset() {
        let spec = ace_workloads::preset_spec("db").unwrap();
        let a = Experiment::spec(spec)
            .instruction_limit(1_000_000)
            .run()
            .unwrap();
        let b = Experiment::workload("db")
            .instruction_limit(1_000_000)
            .run()
            .unwrap();
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.energy.total_nj(), b.energy.total_nj());
    }

    #[test]
    fn workload_resolves_spec_files_by_path() {
        let mut spec = ace_workloads::preset_spec("check").unwrap();
        spec.name = "from-file".into();
        let dir = std::env::temp_dir().join("ace-experiment-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("from-file.json");
        std::fs::write(&path, serde_json::to_string(&spec).unwrap()).unwrap();
        let r = Experiment::workload(path.to_str().unwrap())
            .instruction_limit(500_000)
            .run()
            .unwrap();
        assert_eq!(r.workload, "from-file");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn invalid_spec_is_a_workload_error() {
        let mut spec = ace_workloads::preset_spec("check").unwrap();
        spec.stages[0].children.leaf_instr = (9, 1);
        let err = Experiment::spec(spec).run().unwrap_err();
        assert!(matches!(err, ExperimentError::Workload(_)));
        assert!(err.to_string().contains("leaf_instr"), "{err}");
    }

    #[test]
    fn unknown_scheme_is_an_error() {
        let err = Experiment::workload("db")
            .scheme("warp-drive")
            .instruction_limit(1_000_000)
            .run()
            .unwrap_err();
        assert!(matches!(err, ExperimentError::UnknownScheme(_)));
        assert!(err.to_string().contains("warp-drive"));
    }

    #[test]
    fn scheme_runs_carry_reports() {
        let run = Experiment::workload("db")
            .scheme("hotspot")
            .instruction_limit(2_000_000)
            .run_scheme()
            .unwrap();
        assert_eq!(run.scheme, "hotspot");
        assert_eq!(run.report.scheme, "hotspot");
        assert!(matches!(run.report.ext, SchemeExt::Hotspot(_)));

        let run = Experiment::workload("db")
            .scheme("bbv")
            .instruction_limit(2_000_000)
            .run_scheme()
            .unwrap();
        assert!(matches!(run.report.ext, SchemeExt::Bbv(_)));
    }

    #[test]
    fn guard_rejections_are_uniform_across_schemes() {
        // The unified report fills guard_rejections from the machine
        // counters for *every* scheme; before the redesign only the
        // hotspot arm did, so BBV reported 0 with a nonzero counter.
        for scheme in ["baseline", "hotspot", "bbv", "pdm"] {
            let run = Experiment::workload("javac")
                .scheme(scheme)
                .instruction_limit(4_000_000)
                .run_scheme()
                .unwrap();
            assert_eq!(
                run.report.guard_rejections, run.record.counters.guard_rejections,
                "{scheme} must report the machine's guard-rejection count"
            );
        }
    }

    #[test]
    fn seed_changes_the_run() {
        let a = Experiment::workload("db")
            .instruction_limit(1_000_000)
            .run()
            .unwrap();
        let b = Experiment::workload("db")
            .seed(0x5EED)
            .instruction_limit(1_000_000)
            .run()
            .unwrap();
        assert_ne!(a.counters, b.counters, "a new seed perturbs the stream");
    }

    #[test]
    fn threaded_experiment_runs() {
        let (program, entries) = ace_workloads::mtrt_threaded();
        let r = Experiment::program(program)
            .threaded(&entries, 500_000)
            .instruction_limit(4_000_000)
            .run()
            .unwrap();
        assert!(r.instret >= 4_000_000);
        assert!(r.workload.contains("2T"));
    }

    fn threaded_mtrt(entries: &[MethodId], quantum: u64) -> Result<RunRecord, ExperimentError> {
        let (program, _) = ace_workloads::mtrt_threaded();
        Experiment::program(program)
            .threaded(entries, quantum)
            .instruction_limit(1_000_000)
            .run()
    }

    #[test]
    fn threaded_without_entries_is_a_workload_error() {
        let err = threaded_mtrt(&[], 500_000).unwrap_err();
        assert!(matches!(err, ExperimentError::Workload(_)), "{err:?}");
        assert!(err.to_string().contains("thread entry"), "{err}");
    }

    #[test]
    fn threaded_with_zero_quantum_is_a_workload_error() {
        let (_, entries) = ace_workloads::mtrt_threaded();
        let err = threaded_mtrt(&entries, 0).unwrap_err();
        assert!(matches!(err, ExperimentError::Workload(_)), "{err:?}");
        assert!(err.to_string().contains("quantum"), "{err}");
    }

    #[test]
    fn threaded_entry_outside_the_program_is_a_workload_error() {
        let (program, entries) = ace_workloads::mtrt_threaded();
        let outside = MethodId(program.method_count() as u32);
        let err = threaded_mtrt(&[entries[0], outside], 500_000).unwrap_err();
        assert!(matches!(err, ExperimentError::Workload(_)), "{err:?}");
        assert!(err.to_string().contains(&outside.to_string()), "{err}");
    }
}
