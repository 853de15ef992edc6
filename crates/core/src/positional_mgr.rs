//! The original positional scheme (Huang, Renau & Torrellas, ISCA 2003),
//! which the paper discusses in Section 3.5 as its closest ancestor.
//!
//! Unlike the DO-based framework, this scheme has no dynamic optimization
//! system behind it: there is no hot-threshold filtering, no JIT-installed
//! tuning/configuration code, and no notion of hotspot size classes. It
//! simply watches raw procedure boundaries, declares procedures whose
//! invocations exceed a fixed size "large", and tunes the full
//! combinatorial configuration list at their boundaries.
//!
//! The paper's two criticisms are directly observable here:
//!
//! * large procedures are not necessarily *frequently invoked*, so the
//!   chosen configuration is applied fewer times per tuning investment;
//! * fine-grain behavior changes *inside* a large procedure are invisible,
//!   so the kernels' diverse L1D appetites collapse into one compromise —
//!   the same weakness as the temporal schemes, without their coverage.

use crate::cu::combined_list;
use crate::manager::AceManager;
use crate::measure::Probe;
use crate::tuner::ConfigTuner;
use ace_energy::EnergyModel;
use ace_phase::{PositionalConfig, PositionalDetector};
use ace_sim::{Machine, OnlineStats};
use ace_telemetry::{Event, ReconfigCause, Scope, Telemetry};
use ace_workloads::MethodId;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Configuration of the positional manager.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PositionalManagerConfig {
    /// Large-procedure detection parameters.
    pub detector: PositionalConfig,
    /// Maximum IPC degradation versus the full-size reference.
    pub perf_threshold: f64,
}

impl Default for PositionalManagerConfig {
    fn default() -> Self {
        PositionalManagerConfig {
            detector: PositionalConfig::default(),
            perf_threshold: 0.02,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pending {
    Trial,
    Idle,
}

#[derive(Debug)]
struct ProcState {
    tuner: ConfigTuner,
    pending: Pending,
    probe: Option<Probe>,
    covered: bool,
    covered_instr: u64,
    applications: u64,
    ipc_stats: OnlineStats,
}

/// End-of-run report of the positional scheme.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PositionalReport {
    /// Procedures that qualified as adaptation points.
    pub large_procedures: u64,
    /// Adaptation points whose tuning completed.
    pub tuned: u64,
    /// Configuration trials measured.
    pub tunings: u64,
    /// Control-register changes applying a selected configuration.
    pub reconfigs: u64,
    /// Times a selected configuration was applied (including no-ops).
    pub applications: u64,
    /// Instructions executed inside adaptation points running under their
    /// selected configuration.
    pub covered_instr: u64,
    /// Mean per-procedure IPC CoV.
    pub per_proc_ipc_cov: f64,
}

/// The large-procedure positional manager.
///
/// # Examples
///
/// ```no_run
/// use ace_core::{Experiment, PositionalAceManager, PositionalManagerConfig};
/// use ace_energy::EnergyModel;
/// let program = ace_workloads::preset("jess").unwrap();
/// let mut mgr = PositionalAceManager::new(
///     &program,
///     PositionalManagerConfig::default(),
///     EnergyModel::default_180nm(),
/// );
/// let base = Experiment::program(program.clone()).run()?;
/// let record = Experiment::program(program).run_with(&mut mgr)?;
/// println!("saved {:.1}%", 100.0 * record.saving_vs(&base));
/// # Ok::<(), ace_core::ExperimentError>(())
/// ```
#[derive(Debug)]
pub struct PositionalAceManager {
    config: PositionalManagerConfig,
    model: EnergyModel,
    detector: PositionalDetector,
    states: HashMap<MethodId, ProcState>,
    reconfigs: u64,
    tunings: u64,
    tel: Telemetry,
}

impl PositionalAceManager {
    /// Creates a manager for `program`.
    pub fn new(
        program: &ace_workloads::Program,
        config: PositionalManagerConfig,
        model: EnergyModel,
    ) -> PositionalAceManager {
        PositionalAceManager {
            detector: PositionalDetector::new(program.method_count(), config.detector.clone()),
            config,
            model,
            states: HashMap::new(),
            reconfigs: 0,
            tunings: 0,
            tel: Telemetry::off(),
        }
    }

    /// Builds the end-of-run report.
    pub fn report(&self) -> PositionalReport {
        let mut r = PositionalReport {
            large_procedures: self.detector.large_count() as u64,
            tunings: self.tunings,
            reconfigs: self.reconfigs,
            ..PositionalReport::default()
        };
        let mut cov_sum = 0.0;
        let mut cov_n = 0u64;
        // MethodId order, not HashMap order: float accumulation must not
        // depend on the per-process hash seed (see HotspotDetection::report).
        let mut ordered: Vec<(&MethodId, &ProcState)> = self.states.iter().collect();
        ordered.sort_by_key(|(m, _)| m.0);
        for (_, s) in ordered {
            if s.tuner.is_done() {
                r.tuned += 1;
            }
            r.covered_instr += s.covered_instr;
            r.applications += s.applications;
            if s.ipc_stats.count() >= 2 {
                cov_sum += s.ipc_stats.cov();
                cov_n += 1;
            }
        }
        r.per_proc_ipc_cov = if cov_n > 0 {
            cov_sum / cov_n as f64
        } else {
            0.0
        };
        r
    }
}

impl AceManager for PositionalAceManager {
    fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.tel = telemetry;
    }

    fn on_method_enter(&mut self, method: MethodId, machine: &mut Machine) {
        if !self.detector.is_large(method) {
            return;
        }
        let threshold = self.config.perf_threshold;
        let tel = self.tel.clone();
        let is_new = !self.states.contains_key(&method);
        let state = self.states.entry(method).or_insert_with(|| ProcState {
            tuner: ConfigTuner::new(combined_list(), threshold),
            pending: Pending::Idle,
            probe: None,
            covered: false,
            covered_instr: 0,
            applications: 0,
            ipc_stats: OnlineStats::new(),
        });
        if is_new {
            let configs = state.tuner.list_len() as u32;
            tel.emit(|| Event::TuningStarted {
                scope: Scope::Procedure { method: method.0 },
                configs,
                instret: machine.instret(),
            });
        }
        state.pending = Pending::Idle;
        state.covered = false;

        if let Some(best) = state.tuner.best() {
            let mut applied = 0;
            let ok = best.request_traced(machine, &mut applied, &tel, ReconfigCause::Apply);
            state.covered = ok && best.in_effect(machine);
            state.applications += 1;
            self.reconfigs += applied;
        } else if let Some(trial) = state.tuner.next_trial() {
            let mut applied = 0;
            let ok = trial.request_traced(machine, &mut applied, &tel, ReconfigCause::Trial);
            if ok && applied == 0 {
                state.pending = Pending::Trial;
            }
        }
        if let Some(state) = self.states.get_mut(&method) {
            state.probe = Some(Probe::arm(machine, &self.model));
        }
    }

    fn on_method_exit(&mut self, method: MethodId, invocation_instr: u64, machine: &mut Machine) {
        // Feed the detector on every raw exit (that is how large procedures
        // are discovered in the first place).
        self.detector.on_exit(method, invocation_instr);

        let Some(state) = self.states.get_mut(&method) else {
            return;
        };
        let Some(probe) = state.probe.take() else {
            return;
        };
        let Some(m) = probe.finish(machine, &self.model) else {
            return;
        };
        state.ipc_stats.push(m.ipc);
        if state.covered {
            state.covered_instr += m.instr;
        }
        if state.pending == Pending::Trial && !state.tuner.is_done() {
            state.tuner.record_traced(
                m,
                &self.tel,
                Scope::Procedure { method: method.0 },
                machine.instret(),
            );
            self.tunings += 1;
        }
        state.pending = Pending::Idle;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::NullManager;
    use crate::{Experiment, RunRecord};

    fn run_limited<M: AceManager>(
        program: &ace_workloads::Program,
        limit: u64,
        mgr: &mut M,
    ) -> RunRecord {
        Experiment::program(program.clone())
            .instruction_limit(limit)
            .run_with(mgr)
            .unwrap()
    }

    #[test]
    fn finds_large_procedures_and_tunes() {
        let program = ace_workloads::preset("jess").unwrap();
        let mut mgr = PositionalAceManager::new(
            &program,
            PositionalManagerConfig::default(),
            EnergyModel::default_180nm(),
        );
        let _ = run_limited(&program, 40_000_000, &mut mgr);
        let r = mgr.report();
        // jess's two stage methods exceed the 500K cutoff.
        assert!(
            r.large_procedures >= 2,
            "large procedures {}",
            r.large_procedures
        );
        assert!(r.tunings > 0);
    }

    #[test]
    fn saves_less_than_hotspot_scheme() {
        // The paper's Section 3.5 claim: positional adaptation at large
        // procedure boundaries cannot see the kernels' diverse working
        // sets, so it captures less of the opportunity.
        let program = ace_workloads::preset("mpeg").unwrap();
        let limit = 60_000_000;
        let model = EnergyModel::default_180nm();
        let base = run_limited(&program, limit, &mut NullManager);

        let mut pos =
            PositionalAceManager::new(&program, PositionalManagerConfig::default(), model);
        let r_pos = run_limited(&program, limit, &mut pos);

        let mut hs = crate::HotspotAceManager::new(crate::HotspotManagerConfig::default(), model);
        let r_hs = run_limited(&program, limit, &mut hs);

        let sav_pos = r_pos.saving_vs(&base);
        let sav_hs = r_hs.saving_vs(&base);
        assert!(
            sav_hs > sav_pos,
            "hotspot ({sav_hs:.3}) must beat positional ({sav_pos:.3})"
        );
    }

    #[test]
    fn ignores_small_procedures() {
        let program = ace_workloads::preset("db").unwrap();
        let mut mgr = PositionalAceManager::new(
            &program,
            PositionalManagerConfig::default(),
            EnergyModel::default_180nm(),
        );
        let _ = run_limited(&program, 10_000_000, &mut mgr);
        // Kernels (~150K instructions) are far below the 500K cutoff.
        assert!(mgr.report().large_procedures <= 4);
    }
}
