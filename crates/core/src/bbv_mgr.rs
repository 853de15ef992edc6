//! The BBV-based baseline scheme (Section 4.1 / 5.2): Basic Block Vector
//! phase detection at 1 M-instruction sampling intervals combined with the
//! Dhodapkar–Smith-style tuning algorithm over all 16 combinatorial
//! configurations.
//!
//! As in the paper's implementation, the baseline is given every benefit
//! available short of next-phase prediction: unlimited uncompressed
//! signatures, per-phase storage of tuning results, and tuning that
//! *resumes* from the last tested configuration when a phase recurs.
//! Adaptation only happens on *stable* intervals (an interval whose phase
//! matches its predecessor's); unstable intervals reset the hardware to
//! the full-size configuration, mirroring the safe behavior of the
//! working-set scheme the tuning algorithm comes from.

use crate::cu::combined_list;
use crate::manager::AceManager;
use crate::measure::Probe;
use crate::tuner::ConfigTuner;
use ace_energy::EnergyModel;
use ace_phase::{BbvConfig, BbvDetector, PhaseId, StabilityStats};
use ace_sim::{Block, Machine, OnlineStats};
use ace_telemetry::{Event, ReconfigCause, Scope, Telemetry};
use serde::{Deserialize, Serialize};

/// Configuration of the BBV manager.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BbvManagerConfig {
    /// Detector parameters. The default interval is 1 M + 200 instructions:
    /// sampling boundaries land on block boundaries, so a bare 1 M interval
    /// would make back-to-back L2 requests arrive marginally inside the
    /// hardware guard window and be spuriously rejected; the small slack
    /// restores the paper's exact-alignment behavior.
    pub bbv: BbvConfig,
    /// Maximum IPC degradation versus the full-size reference (2 %).
    pub perf_threshold: f64,
    /// Enable the RLE-Markov next-phase predictor (\\[20\\]/\\[24\\] in the
    /// paper). The paper's baseline runs *without* it; the ablation bench
    /// quantifies what it would have bought.
    pub use_predictor: bool,
}

impl Default for BbvManagerConfig {
    fn default() -> Self {
        BbvManagerConfig {
            bbv: BbvConfig {
                interval_instr: 1_000_200,
                ..BbvConfig::default()
            },
            perf_threshold: 0.02,
            use_predictor: false,
        }
    }
}

/// What the interval now running was set up to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Plan {
    /// No adaptation this interval (unstable phase or guard rejection).
    Idle,
    /// Testing one configuration for `phase`.
    Trial(PhaseId),
    /// Running `phase`'s selected configuration.
    Apply(PhaseId),
}

/// End-of-run report of the BBV scheme (Tables 5 and 6, Figure 1).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct BbvReport {
    /// Distinct phases (signatures) detected.
    pub phases: u64,
    /// Phases whose 16-configuration tuning completed.
    pub tuned_phases: u64,
    /// Sampling intervals executed.
    pub intervals: u64,
    /// Intervals that ran under a phase's selected configuration.
    pub intervals_in_tuned_phases: u64,
    /// Configuration trials measured (Table 6 "tunings").
    pub tunings: u64,
    /// Control-register changes applying a selected configuration
    /// (Table 6 "reconfigs").
    pub reconfigs: u64,
    /// Instructions executed in intervals under a selected configuration
    /// (Table 6 "coverage" numerator).
    pub covered_instr: u64,
    /// Mean over phases of each phase's own IPC CoV.
    pub per_phase_ipc_cov: f64,
    /// CoV of per-phase mean IPCs.
    pub inter_phase_ipc_cov: f64,
    /// Trials whose interval turned out to belong to a different phase
    /// (measurement discarded).
    pub misattributed_trials: u64,
    /// Next-phase predictions issued (0 unless the predictor is enabled).
    pub predictions: u64,
    /// Fraction of issued predictions that were correct.
    pub prediction_accuracy: f64,
    /// Figure 1 stable/transitional distribution.
    pub stability: StabilityStats,
}

impl BbvReport {
    /// Fraction of intervals in tuned phases (Table 5).
    pub fn tuned_interval_fraction(&self) -> f64 {
        if self.intervals == 0 {
            0.0
        } else {
            self.intervals_in_tuned_phases as f64 / self.intervals as f64
        }
    }
}

/// The BBV + tune-all-combinations manager.
#[derive(Debug)]
pub struct BbvAceManager {
    config: BbvManagerConfig,
    model: EnergyModel,
    detector: BbvDetector,
    predictor: ace_phase::PhasePredictor,
    tuners: Vec<ConfigTuner>,
    /// Unmeasured stable intervals left per phase before trials start, so
    /// the performance reference is not taken on a cold first encounter.
    warmups: Vec<u8>,
    phase_ipc: Vec<OnlineStats>,
    probe: Option<Probe>,
    next_boundary: u64,
    plan: Plan,
    report: BbvReport,
    tel: Telemetry,
}

impl BbvAceManager {
    /// Creates a manager with the given policy and energy model.
    pub fn new(config: BbvManagerConfig, model: EnergyModel) -> BbvAceManager {
        BbvAceManager {
            detector: BbvDetector::new(config.bbv.clone()),
            predictor: ace_phase::PhasePredictor::new(0.6),
            config,
            model,
            tuners: Vec::new(),
            warmups: Vec::new(),
            phase_ipc: Vec::new(),
            probe: None,
            next_boundary: 0,
            plan: Plan::Idle,
            report: BbvReport::default(),
            tel: Telemetry::off(),
        }
    }

    /// The policy configuration.
    pub fn config(&self) -> &BbvManagerConfig {
        &self.config
    }

    fn tuner_mut(&mut self, phase: PhaseId, instret: u64) -> &mut ConfigTuner {
        let idx = phase.0 as usize;
        let created = self.tuners.len() <= idx;
        while self.tuners.len() <= idx {
            self.tuners.push(ConfigTuner::new(
                combined_list(),
                self.config.perf_threshold,
            ));
            self.warmups.push(1);
            self.phase_ipc.push(OnlineStats::new());
        }
        if created {
            let configs = self.tuners[idx].list_len() as u32;
            self.tel.emit(|| Event::TuningStarted {
                scope: Scope::Phase { phase: phase.0 },
                configs,
                instret,
            });
        }
        &mut self.tuners[idx]
    }

    fn end_interval(&mut self, machine: &mut Machine) {
        // 1. Measure the interval that just finished.
        let measurement = self
            .probe
            .take()
            .and_then(|p| p.finish(machine, &self.model));
        let outcome = self.detector.end_interval();
        self.report.intervals += 1;

        if let Some(m) = measurement {
            // Per-phase IPC statistics for Table 5.
            let _ = self.tuner_mut(outcome.phase, machine.instret()); // ensure slots exist
            self.phase_ipc[outcome.phase.0 as usize].push(m.ipc);
            let interval_index = self.report.intervals - 1;
            self.tel.emit(|| Event::IntervalSample {
                phase: outcome.phase.0,
                index: interval_index,
                ipc: m.ipc,
                epi_nj: m.epi_nj,
                stable: outcome.continues_previous,
                instret: machine.instret(),
            });

            match self.plan {
                Plan::Trial(predicted) => {
                    if predicted == outcome.phase {
                        let tuner = &mut self.tuners[predicted.0 as usize];
                        if !tuner.is_done() {
                            tuner.record_traced(
                                m,
                                &self.tel,
                                Scope::Phase { phase: predicted.0 },
                                machine.instret(),
                            );
                            self.report.tunings += 1;
                        }
                    } else {
                        // The phase changed under the trial: discard the
                        // measurement and return to the safe full-size
                        // configuration so a half-tested trial setting
                        // cannot linger across foreign phases.
                        self.report.misattributed_trials += 1;
                        let mut applied = 0;
                        let _ = crate::cu::AceConfig::baseline().request_traced(
                            machine,
                            &mut applied,
                            &self.tel,
                            ReconfigCause::Reset,
                        );
                    }
                }
                Plan::Apply(predicted) => {
                    if predicted == outcome.phase {
                        self.report.intervals_in_tuned_phases += 1;
                        self.report.covered_instr += m.instr;
                    }
                }
                Plan::Idle => {}
            }
        }

        // 2. Plan the next interval. A recurring phase reuses its chosen
        // configuration as soon as it is recognized (the one-sampling-
        // interval identification latency of Table 1); *tuning* trials
        // additionally require the phase to be stable.
        self.plan = Plan::Idle;
        let _ = self.tuner_mut(outcome.phase, machine.instret()); // ensure slots exist
        let idx = outcome.phase.0 as usize;
        if let Some(best) = self.tuners[idx].best() {
            let mut applied = 0;
            let ok = best.request_traced(machine, &mut applied, &self.tel, ReconfigCause::Apply);
            self.report.reconfigs += applied;
            if ok && best.in_effect(machine) {
                self.plan = Plan::Apply(outcome.phase);
            }
        } else if outcome.continues_previous {
            if self.warmups[idx] > 0 {
                // One unmeasured stable interval at the reference
                // configuration before trials begin.
                self.warmups[idx] -= 1;
                if let Some(reference) = self.tuners[idx].next_trial() {
                    let mut applied = 0;
                    let _ = reference.request_traced(
                        machine,
                        &mut applied,
                        &self.tel,
                        ReconfigCause::Trial,
                    );
                }
            } else if let Some(trial) = self.tuners[idx].next_trial() {
                // L1D-only transitions are cheap (the window refills from
                // the L2 within a few thousand instructions), so those
                // trials measure immediately; an interval whose setup
                // changed the L2 absorbs the expensive refill unmeasured
                // and the following stable interval measures it.
                let l2_before = machine.level(ace_sim::CuId::L2);
                let mut applied = 0;
                let ok =
                    trial.request_traced(machine, &mut applied, &self.tel, ReconfigCause::Trial);
                let l2_changed = machine.level(ace_sim::CuId::L2) != l2_before;
                if ok && !l2_changed {
                    self.plan = Plan::Trial(outcome.phase);
                }
            }
        }
        // Unknown or changed phase: no adaptation this interval — the
        // scheme only acts on stable phases. (Resetting to full size here
        // would churn the caches at every transitional interval.)

        // Next-phase prediction (optional, off in the paper's baseline):
        // when the predictor confidently expects a *different* phase next
        // and that phase is already tuned, apply its configuration
        // preemptively — removing even the one-interval recurrence latency,
        // at the cost of wrong adaptations on mispredictions.
        if self.config.use_predictor {
            self.predictor.observe(outcome.phase);
            if let Some(next) = self.predictor.predict() {
                if next != outcome.phase {
                    if let Some(best) = self.tuners.get(next.0 as usize).and_then(|t| t.best()) {
                        let mut applied = 0;
                        let ok = best.request_traced(
                            machine,
                            &mut applied,
                            &self.tel,
                            ReconfigCause::Apply,
                        );
                        self.report.reconfigs += applied;
                        if ok && best.in_effect(machine) {
                            self.plan = Plan::Apply(next);
                        }
                    }
                }
            }
        }

        self.probe = Some(Probe::arm(machine, &self.model));
        self.next_boundary = machine.instret() + self.config.bbv.interval_instr;
    }

    /// The per-interval phase id history (diagnostics).
    pub fn phase_history(&self) -> &[ace_phase::PhaseId] {
        self.detector.history()
    }

    /// Per-phase tuner states with mean interval IPC (diagnostics).
    pub fn tuner_states(&self) -> impl Iterator<Item = (&ConfigTuner, f64)> {
        self.tuners
            .iter()
            .zip(self.phase_ipc.iter().map(|s| s.mean()))
    }

    /// Builds the end-of-run report.
    pub fn report(&self) -> BbvReport {
        let mut r = self.report.clone();
        r.phases = self.detector.phase_count() as u64;
        r.tuned_phases = self.tuners.iter().filter(|t| t.is_done()).count() as u64;
        let mut cov_sum = 0.0;
        let mut cov_n = 0u64;
        let mut means = OnlineStats::new();
        for s in &self.phase_ipc {
            if s.count() >= 2 {
                cov_sum += s.cov();
                cov_n += 1;
            }
            if s.count() > 0 {
                means.push(s.mean());
            }
        }
        r.per_phase_ipc_cov = if cov_n > 0 {
            cov_sum / cov_n as f64
        } else {
            0.0
        };
        r.inter_phase_ipc_cov = means.cov();
        r.stability = self.detector.stability();
        r.predictions = self.predictor.stats().predictions;
        r.prediction_accuracy = self.predictor.stats().accuracy();
        r
    }
}

impl AceManager for BbvAceManager {
    fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.tel = telemetry;
    }

    fn on_start(&mut self, machine: &mut Machine) {
        self.probe = Some(Probe::arm(machine, &self.model));
        self.next_boundary = machine.instret() + self.config.bbv.interval_instr;
    }

    fn on_block(&mut self, block: &Block, machine: &mut Machine) {
        if let Some(br) = block.branch {
            self.detector.note_branch(br.pc, block.ninstr);
        }
        if machine.instret() >= self.next_boundary {
            self.end_interval(machine);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_sim::{BranchEvent, MachineConfig, MemAccess};

    fn block(pc: u64, ninstr: u32, addr: u64) -> Block {
        Block {
            pc,
            ninstr,
            accesses: vec![MemAccess::load(addr)],
            branch: Some(BranchEvent {
                pc: pc + 56,
                taken: true,
            }),
        }
    }

    /// Runs `n` intervals of homogeneous behavior and returns the report.
    /// Guard intervals are scaled with the shortened sampling interval so
    /// the test exercises the same alignment the real configuration has
    /// (sampling interval ≈ the largest guard interval).
    fn run_intervals(n: usize) -> (BbvAceManager, Machine) {
        let mut cfg = MachineConfig::table2();
        cfg.l1d_reconfig_interval = 10_000;
        cfg.l2_reconfig_interval = 100_000;
        let mut machine =
            Machine::new(cfg).expect("Table 2 with scaled guard intervals is a valid config");
        let mut mgr = BbvAceManager::new(
            BbvManagerConfig {
                bbv: BbvConfig {
                    interval_instr: 100_100,
                    ..BbvConfig::default()
                },
                ..BbvManagerConfig::default()
            },
            EnergyModel::default_180nm(),
        );
        mgr.on_start(&mut machine);
        for _ in 0..n {
            let start = machine.instret();
            while machine.instret() < start + 100_200 {
                let b = block(0x1000, 50, 0x8000 + ((machine.instret() % 2048) & !7));
                machine.exec_block(&b);
                mgr.on_block(&b, &mut machine);
            }
        }
        (mgr, machine)
    }

    #[test]
    fn homogeneous_run_tunes_one_phase() {
        // The walk either finishes all 16 combos or aborts early once a
        // configuration violates the threshold; either way the phase ends
        // tuned after a handful of trials.
        let (mgr, _machine) = run_intervals(40);
        let r = mgr.report();
        assert_eq!(r.phases, 1, "one behavior, one phase");
        assert_eq!(r.tuned_phases, 1);
        assert!(r.tunings >= 4, "tunings {}", r.tunings);
        assert!(r.intervals_in_tuned_phases > 0);
        assert!(r.stability.stable_fraction() > 0.9);
    }

    #[test]
    fn tiny_working_set_tunes_down() {
        let (mgr, machine) = run_intervals(60);
        let r = mgr.report();
        assert_eq!(r.tuned_phases, 1);
        // 2 KB working set: the tuned configuration shrinks the L1D.
        let tuned = mgr
            .tuners
            .iter()
            .find(|t| t.is_done())
            .expect("report counted a tuned phase, so one tuner must be done");
        let best = tuned
            .best()
            .expect("a finished tuner always has a selection");
        let l1d = best
            .get(ace_sim::CuId::L1d)
            .expect("combined-list selections always assign the L1D");
        assert!(
            l1d > ace_sim::SizeLevel::LARGEST,
            "expected a smaller L1D, got {best}"
        );
        let _ = machine;
    }

    #[test]
    fn intervals_counted() {
        let (mgr, _m) = run_intervals(10);
        let r = mgr.report();
        assert!((9..=11).contains(&r.intervals), "intervals {}", r.intervals);
    }
}
