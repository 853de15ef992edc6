//! The DO-based ACE management scheme (Section 3) — the paper's
//! contribution.
//!
//! For each hotspot the DO system classifies, the manager installs *tuning
//! code* at its entry and *profiling code* at its exits: successive
//! invocations test the hotspot's configuration list one entry at a time,
//! measuring IPC and cache energy per instruction between entry and exit.
//! Thanks to **CU decoupling**, the list holds only the four settings of
//! the one CU whose reconfiguration interval matches the hotspot's size —
//! L1D for 50 K–500 K-instruction hotspots, L2 for larger ones — instead of
//! the 16 combinatorial settings. Once the most energy-efficient
//! configuration is selected, the tuning code is replaced by
//! *configuration code* that re-applies it on every invocation with zero
//! recurring-phase identification latency, plus occasional *sampling code*
//! that re-tunes the hotspot if its behavior drifts.
//!
//! A selection may also be *adopted* instead of searched for. Right after a
//! hotspot's reference (full-size) trial, the manager consults up to two
//! sources of converged selections, and a hit skips the rest of the walk:
//!
//! * a fleet's shared tuning store ([`WarmStartContext`]), matched on the
//!   hotspot's [`HotspotSignature`];
//! * Phase Distance Mapping's knowledge table (the `pdm` scheme, built by
//!   [`HotspotAceManager::pdm`]), matched on the nearest [`PhaseVector`]
//!   within [`PdmManagerConfig::distance_threshold`].
//!
//! Each cold convergence feeds both sources; an adopted selection feeds
//! neither, since its source already holds it.

use crate::cu::{combined_list, single_cu_list, AceConfig};
use crate::measure::Probe;
use crate::pdm_mgr::{nearest_in, PdmManagerConfig, PdmReport, PhaseVector};
use crate::tuner::ConfigTuner;
use crate::warm::{cu_mask_of, HotspotSignature, StorePublication, WarmStartContext};
use ace_energy::EnergyModel;
use ace_runtime::{DoEvent, HotspotClass};
use ace_sim::{Block, CuId, Machine, OnlineStats, MAX_CUS};
use ace_telemetry::{Event, Histogram, ReconfigCause, Scope, Telemetry};
use ace_workloads::MethodId;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

use crate::manager::AceManager;

/// Configuration of the hotspot manager.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HotspotManagerConfig {
    /// Maximum IPC degradation a configuration may cause versus the
    /// full-size reference (paper: 2 %).
    pub perf_threshold: f64,
    /// After tuning, every `sample_period`-th invocation runs sampling
    /// code to detect behavior drift.
    pub sample_period: u64,
    /// Relative IPC change versus the tuned measurement that triggers
    /// re-tuning (hotspot behavior is usually stable, so re-tunes are rare).
    pub retune_threshold: f64,
    /// `true` for CU decoupling (the paper's scheme); `false` makes every
    /// adaptable hotspot walk all 16 combinatorial configurations (the
    /// ablation of Section 3.2's claim).
    pub decouple: bool,
}

impl Default for HotspotManagerConfig {
    fn default() -> Self {
        HotspotManagerConfig {
            perf_threshold: 0.02,
            sample_period: 16,
            retune_threshold: 0.5,
            decouple: true,
        }
    }
}

/// What the current invocation of a hotspot is being used for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pending {
    /// Measuring one configuration trial.
    Trial,
    /// Sampling code checking for behavior drift.
    Sample,
    /// Nothing to measure this invocation.
    Idle,
}

/// Per-hotspot manager state (the ACE part of its DO database entry).
#[derive(Debug, Clone)]
struct HsState {
    class: HotspotClass,
    tuner: ConfigTuner,
    pending: Pending,
    probe: Option<Probe>,
    /// Whether this invocation runs under the selected configuration.
    covered: bool,
    ipc_stats: OnlineStats,
    invocations_after_tuned: u64,
    tuned_ipc: Option<f64>,
    retunings: u32,
    covered_instr: u64,
}

/// Per-CU aggregate counters (Table 6).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CuSchemeStats {
    /// Configuration trials measured (the "tunings" column).
    pub tunings: u64,
    /// Control-register changes applying a selected best configuration
    /// (the "reconfigs" column).
    pub reconfigs: u64,
    /// Dynamic instructions executed inside hotspots running under their
    /// selected configuration (the "coverage" numerator).
    pub covered_instr: u64,
}

/// End-of-run report of the hotspot scheme (Tables 5 and 6).
///
/// Per-CU counters are indexed by [`CuId`] so the report covers whatever
/// units the machine registers; the named accessors ([`HotspotReport::l1d`]
/// and friends) keep the paper's two-CU reading convenient.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HotspotReport {
    /// Adaptable hotspots observed, per CU (indexed by [`CuId`]).
    #[serde(default)]
    pub cu_hotspots: [u64; MAX_CUS],
    /// Per-CU tuning/reconfiguration/coverage counters (indexed by
    /// [`CuId`]).
    #[serde(default)]
    pub cu: [CuSchemeStats; MAX_CUS],
    /// Hotspots too small to adapt any CU.
    pub small_hotspots: u64,
    /// Adaptable hotspots that completed tuning.
    pub tuned_hotspots: u64,
    /// Mean over hotspots of each hotspot's own IPC CoV (Table 5
    /// "per-hotspot IPC CoV").
    pub per_hotspot_ipc_cov: f64,
    /// CoV of the per-hotspot mean IPCs (Table 5 "inter-hotspot IPC CoV").
    pub inter_hotspot_ipc_cov: f64,
    /// Re-tunings triggered by sampling code.
    pub retunings: u64,
    /// Reconfiguration requests the hardware guard rejected.
    pub guard_rejections: u64,
    /// Tuning-store lookups that matched an entry (warm starts).
    #[serde(default)]
    pub warm_hits: u64,
    /// Tuning-store lookups that found nothing (cold tunes).
    #[serde(default)]
    pub warm_misses: u64,
    /// Candidate-list trials avoided across all warm starts.
    #[serde(default)]
    pub warm_trials_saved: u64,
    /// Converged selections published to the tuning store.
    #[serde(default)]
    pub store_publishes: u64,
}

impl HotspotReport {
    /// Per-CU counters for `cu`.
    pub fn stats(&self, cu: CuId) -> CuSchemeStats {
        self.cu[cu.index()]
    }

    /// Adaptable hotspots bound to `cu`.
    pub fn hotspots_of(&self, cu: CuId) -> u64 {
        self.cu_hotspots[cu.index()]
    }

    /// Per-CU counters for the L1 data cache.
    pub fn l1d(&self) -> CuSchemeStats {
        self.stats(CuId::L1d)
    }

    /// Per-CU counters for the L2 cache.
    pub fn l2(&self) -> CuSchemeStats {
        self.stats(CuId::L2)
    }

    /// Adaptable L1D hotspots observed.
    pub fn l1d_hotspots(&self) -> u64 {
        self.hotspots_of(CuId::L1d)
    }

    /// Adaptable L2 hotspots observed.
    pub fn l2_hotspots(&self) -> u64 {
        self.hotspots_of(CuId::L2)
    }

    /// Fraction of store lookups that hit (0 when the run made none).
    pub fn warm_hit_rate(&self) -> f64 {
        let lookups = self.warm_hits + self.warm_misses;
        if lookups == 0 {
            0.0
        } else {
            self.warm_hits as f64 / lookups as f64
        }
    }

    /// Fraction of adaptable hotspots that finished tuning.
    pub fn tuned_fraction(&self) -> f64 {
        let adaptable: u64 = self.cu_hotspots.iter().sum();
        if adaptable == 0 {
            0.0
        } else {
            self.tuned_hotspots as f64 / adaptable as f64
        }
    }
}

/// Phase Distance Mapping's knowledge table: the converged selections of
/// cold-tuned hotspots, keyed by their reference trial's behavior.
#[derive(Debug, Clone, Default)]
pub(crate) struct PdmTable {
    /// Strict upper bound on the distance at which an entry is adopted.
    distance_threshold: f64,
    /// `(candidate-list CU mask, behavioral vector, converged selection)`
    /// in insertion order. Predictions only match entries with the same
    /// mask, so an L1D-band phase never adopts an L2 selection.
    entries: Vec<(u8, PhaseVector, AceConfig)>,
    hits: u64,
    misses: u64,
    trials_saved: u64,
}

impl PdmTable {
    /// PDM's report: the table's counters around the hotspot `base`.
    pub(crate) fn report(&self, base: HotspotReport) -> PdmReport {
        PdmReport {
            base,
            predict_hits: self.hits,
            predict_misses: self.misses,
            predicted_trials_saved: self.trials_saved,
            known_phases: self.entries.len() as u64,
        }
    }
}

/// The hotspot-based ACE manager.
///
/// Wire it into an [`crate::Experiment`]; see the crate-level example.
#[derive(Debug, Clone)]
pub struct HotspotAceManager {
    config: HotspotManagerConfig,
    model: EnergyModel,
    states: HashMap<MethodId, HsState>,
    /// Per-CU aggregate counters, indexed by [`CuId`].
    stats: [CuSchemeStats; MAX_CUS],
    retunings: u64,
    /// Scratch counter for trial requests (not reported as reconfigs).
    trial_changes: u64,
    /// Hotspots classified too small to adapt any CU.
    small_seen: u64,
    /// Predicted configurations (Section 6 extension): a hotspot with a
    /// prediction skips tuning entirely and applies the predicted setting
    /// from its first instrumented invocation.
    predictions: HashMap<MethodId, AceConfig>,
    /// Shared tuning-store view (fleet warm start): a frozen snapshot
    /// consulted after each hotspot's reference trial, plus the buffer of
    /// publications this run makes. `None` outside fleet runs.
    warm: Option<WarmStartContext>,
    /// Phase Distance Mapping's knowledge table, consulted and fed like
    /// the store. `None` outside the `pdm` scheme.
    pdm: Option<PdmTable>,
    /// Mean invocation size per classified hotspot, captured from
    /// [`DoEvent::HotspotClassified`] for the store signature and PDM's
    /// phase vector.
    sizes: HashMap<MethodId, u64>,
    warm_hits: u64,
    warm_misses: u64,
    warm_trials_saved: u64,
    store_publishes: u64,
    tel: Telemetry,
    /// Histogram handles resolved once at `set_telemetry` so the per-exit
    /// path never touches the registry lock.
    hs_metrics: Option<HsMetrics>,
}

/// Pre-resolved metric handles for the hotspot-exit path.
#[derive(Debug, Clone)]
struct HsMetrics {
    /// Per-invocation dynamic instruction counts (paper: 50 K–500 K is the
    /// L1D-adaptable band, larger is L2-adaptable).
    invocation_instr: Histogram,
    /// Per-invocation cache energy per instruction (nanojoules).
    invocation_epi_nj: Histogram,
}

impl HsMetrics {
    fn resolve(tel: &Telemetry) -> Option<HsMetrics> {
        let metrics = tel.metrics()?;
        Some(HsMetrics {
            invocation_instr: metrics.histogram(
                "hotspot_invocation_instr",
                &[1e3, 1e4, 5e4, 1e5, 5e5, 1e6, 1e7, 1e8],
            ),
            invocation_epi_nj: metrics.histogram(
                "hotspot_invocation_epi_nj",
                &[0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0],
            ),
        })
    }
}

impl HotspotAceManager {
    /// Creates a manager with the given policy and energy model.
    pub fn new(config: HotspotManagerConfig, model: EnergyModel) -> HotspotAceManager {
        HotspotAceManager {
            config,
            model,
            states: HashMap::new(),
            stats: [CuSchemeStats::default(); MAX_CUS],
            retunings: 0,
            trial_changes: 0,
            small_seen: 0,
            predictions: HashMap::new(),
            warm: None,
            pdm: None,
            sizes: HashMap::new(),
            warm_hits: 0,
            warm_misses: 0,
            warm_trials_saved: 0,
            store_publishes: 0,
            tel: Telemetry::off(),
            hs_metrics: None,
        }
    }

    /// Creates a Phase Distance Mapping manager (the `pdm` scheme): the
    /// hotspot manager under `config.base`, with a knowledge table that
    /// predicts a hotspot's selection from its behavioral distance to an
    /// already-tuned one. With `distance_threshold` 0 the strict `<` never
    /// predicts, so the run is exactly the hotspot scheme's search.
    pub fn pdm(config: PdmManagerConfig, model: EnergyModel) -> HotspotAceManager {
        let mut mgr = HotspotAceManager::new(config.base, model);
        mgr.pdm = Some(PdmTable {
            distance_threshold: config.distance_threshold,
            ..PdmTable::default()
        });
        mgr
    }

    /// Attaches a warm-start context: a frozen snapshot of the shared
    /// tuning store. Each hotspot consults it once its reference trial is
    /// measured (so the behavioral signature is known); a hit replaces
    /// the rest of the candidate walk with the stored selection, a miss
    /// tunes cold and publishes the convergence back into the context.
    pub fn set_warm_start(&mut self, context: WarmStartContext) {
        self.warm = Some(context);
    }

    /// Detaches the warm-start context, carrying the answers this run
    /// read from it and the publications it buffered. `None` if warm
    /// start was never enabled.
    pub fn take_warm_start(&mut self) -> Option<WarmStartContext> {
        self.warm.take()
    }

    /// Installs a configuration prediction for `method` (the Section 6
    /// "JIT code analysis" extension): when the hotspot is classified, the
    /// prediction for its CU class is adopted without any tuning latency.
    pub fn set_prediction(&mut self, method: MethodId, config: AceConfig) {
        self.predictions.insert(method, config);
    }

    /// The policy configuration.
    pub fn config(&self) -> &HotspotManagerConfig {
        &self.config
    }

    /// Phase Distance Mapping's knowledge table, if this manager runs the
    /// `pdm` scheme.
    pub(crate) fn pdm_table(&self) -> Option<&PdmTable> {
        self.pdm.as_ref()
    }

    fn list_for(&self, class: HotspotClass) -> Vec<AceConfig> {
        if !self.config.decouple {
            return combined_list();
        }
        match class.cu() {
            Some(cu) => single_cu_list(cu),
            None => unreachable!("small hotspots are not tuned"),
        }
    }

    fn cu_stats_mut(&mut self, cu: CuId) -> &mut CuSchemeStats {
        &mut self.stats[cu.index()]
    }

    fn handle_enter(&mut self, method: MethodId, class: HotspotClass, machine: &mut Machine) {
        let Some(cu) = class.cu() else {
            return;
        };
        let list = self.list_for(class);
        let threshold = self.config.perf_threshold;
        let sample_period = self.config.sample_period;
        // A predicted configuration (restricted to this hotspot's CU class)
        // eliminates the tuning process entirely.
        let predicted = self.predictions.get(&method).map(|p| p.restricted_to(cu));
        let tel = self.tel.clone();
        let is_new = !self.states.contains_key(&method);
        let configs = if predicted.is_some() {
            1
        } else {
            list.len() as u32
        };
        let state = self.states.entry(method).or_insert_with(|| HsState {
            class,
            tuner: match predicted {
                Some(cfg) => ConfigTuner::preselected(cfg),
                None => ConfigTuner::new(list, threshold),
            },
            pending: Pending::Idle,
            probe: None,
            covered: false,
            ipc_stats: OnlineStats::new(),
            invocations_after_tuned: 0,
            tuned_ipc: None,
            retunings: 0,
            covered_instr: 0,
        });
        if is_new {
            tel.emit(|| Event::TuningStarted {
                scope: Scope::Hotspot { method: method.0 },
                configs,
                instret: machine.instret(),
            });
        }

        state.pending = Pending::Idle;
        state.covered = false;

        if let Some(best) = state.tuner.best() {
            // Configuration code: set the chosen configuration.
            let mut applied = 0;
            let ok = best.request_traced(machine, &mut applied, &tel, ReconfigCause::Apply);
            state.covered = ok && best.in_effect(machine);
            state.invocations_after_tuned += 1;
            if state.invocations_after_tuned.is_multiple_of(sample_period) {
                state.pending = Pending::Sample;
            }
            self.stats[cu.index()].reconfigs += applied;
        } else if let Some(trial) = state.tuner.next_trial() {
            // Tuning code: fetch the next configuration. A configuration is
            // *measured* only on an invocation where it was already in
            // effect: the invocation that applies the change absorbs the
            // transition (flush, refills) unmeasured, and hotspots recur in
            // back-to-back invocations, so the next invocation measures the
            // configuration's steady behavior.
            let mut applied = 0;
            let ok = trial.request_traced(machine, &mut applied, &tel, ReconfigCause::Trial);
            self.trial_changes += applied;
            if ok && applied == 0 {
                state.pending = Pending::Trial;
            }
        }
        // Arm the measurement *after* any reconfiguration: the tuning code
        // reads the counters once the transition has completed, so a trial
        // compares configurations' steady behavior rather than charging the
        // one-time flush to whichever configuration happened to be next.
        if let Some(state) = self.states.get_mut(&method) {
            state.probe = Some(Probe::arm(machine, &self.model));
        }
    }

    fn handle_exit(&mut self, method: MethodId, class: HotspotClass, machine: &mut Machine) {
        let Some(cu) = class.cu() else {
            return;
        };
        let retune_threshold = self.config.retune_threshold;
        let perf_threshold = self.config.perf_threshold;
        let decouple_list = self.list_for(class);
        let model = self.model;
        let tel = self.tel.clone();
        let Some(state) = self.states.get_mut(&method) else {
            return;
        };
        let Some(probe) = state.probe.take() else {
            return;
        };
        let Some(m) = probe.finish(machine, &model) else {
            return;
        };

        state.ipc_stats.push(m.ipc);
        if state.covered {
            state.covered_instr += m.instr;
        }
        if let Some(hm) = &self.hs_metrics {
            hm.invocation_instr.record(m.instr as f64);
            hm.invocation_epi_nj.record(m.epi_nj);
        }

        let scope = Scope::Hotspot { method: method.0 };
        let mut tunings = 0;
        match state.pending {
            Pending::Trial => {
                let first_trial = state.tuner.trials() == 0;
                state.tuner.record_traced(m, &tel, scope, machine.instret());
                tunings = 1;
                if first_trial && !state.tuner.is_done() {
                    // The reference (full-size) trial just measured gives
                    // the hotspot's behavioral key, so this is the earliest
                    // a converged selection can be looked up. A hit replaces
                    // the remaining candidate walk.
                    let avg = self.sizes.get(&method).copied().unwrap_or(m.instr);
                    let mask = cu_mask_of(state.tuner.configs());
                    let saved = (state.tuner.list_len() as u32).saturating_sub(1);
                    let mut adopted = None;
                    if let Some(ctx) = self.warm.as_mut() {
                        let sig = HotspotSignature::new(avg, m.ipc, mask, ctx.version());
                        adopted = ctx.lookup(sig);
                        if adopted.is_some() {
                            self.warm_hits += 1;
                            self.warm_trials_saved += u64::from(saved);
                            tel.emit(|| Event::WarmStartHit {
                                scope,
                                signature: sig.packed(),
                                trials_saved: saved,
                                instret: machine.instret(),
                            });
                        } else {
                            self.warm_misses += 1;
                            tel.emit(|| Event::WarmStartMiss {
                                scope,
                                signature: sig.packed(),
                                instret: machine.instret(),
                            });
                        }
                    }
                    if let (None, Some(table)) = (adopted, self.pdm.as_mut()) {
                        let vector = PhaseVector::new(m.ipc, m.epi_nj, avg);
                        match nearest_in(&table.entries, mask, &vector) {
                            Some((distance, cfg)) if distance < table.distance_threshold => {
                                adopted = Some(cfg);
                                table.hits += 1;
                                table.trials_saved += u64::from(saved);
                                tel.emit(|| Event::PdmPredictHit {
                                    scope,
                                    distance,
                                    trials_saved: saved,
                                    instret: machine.instret(),
                                });
                            }
                            nearest => {
                                table.misses += 1;
                                // -1.0 marks "no candidate to measure against"
                                // without a non-finite JSON value.
                                let distance = nearest.map_or(-1.0, |(d, _)| d);
                                tel.emit(|| Event::PdmPredictMiss {
                                    scope,
                                    distance,
                                    instret: machine.instret(),
                                });
                            }
                        }
                    }
                    if let Some(cfg) = adopted {
                        state.tuner = ConfigTuner::preselected(cfg);
                        state.tuned_ipc = Some(m.ipc);
                        // Close the trace episode: the selection is final
                        // after this single trial.
                        tel.emit(|| Event::TuningConverged {
                            scope,
                            trials: 1,
                            ipc: m.ipc,
                            epi_nj: m.epi_nj,
                            instret: machine.instret(),
                        });
                    }
                } else if state.tuner.is_done() {
                    // A cold convergence: its selection feeds both the store
                    // and the table under the reference trial's key. Adopted
                    // selections never get here: they are installed on the
                    // reference trial's exit, and a finished tuner runs no
                    // more trials, so neither source gets them back.
                    let best = state.tuner.best_measurement();
                    state.tuned_ipc = best.map(|bm| bm.ipc);
                    if let (Some(reference), Some(config), Some(bm)) =
                        (state.tuner.measurements()[0], state.tuner.best(), best)
                    {
                        let avg = self.sizes.get(&method).copied().unwrap_or(reference.instr);
                        let mask = cu_mask_of(state.tuner.configs());
                        if let Some(ctx) = self.warm.as_mut() {
                            let sig =
                                HotspotSignature::new(avg, reference.ipc, mask, ctx.version());
                            ctx.publish(StorePublication {
                                signature: sig,
                                config,
                                ipc: bm.ipc,
                                epi_nj: bm.epi_nj,
                                trials: state.tuner.trials(),
                            });
                            self.store_publishes += 1;
                            tel.emit(|| Event::StorePublish {
                                scope,
                                signature: sig.packed(),
                                epi_nj: bm.epi_nj,
                                instret: machine.instret(),
                            });
                        }
                        if let Some(table) = self.pdm.as_mut() {
                            let vector = PhaseVector::new(reference.ipc, reference.epi_nj, avg);
                            table.entries.push((mask, vector, config));
                        }
                    }
                }
            }
            Pending::Sample => {
                if let Some(tuned) = state.tuned_ipc {
                    let drift = (m.ipc - tuned).abs() / tuned;
                    if drift > retune_threshold {
                        // Behavior changed: discard the selection, re-tune.
                        let configs = decouple_list.len() as u32;
                        state.tuner = ConfigTuner::new(decouple_list, perf_threshold);
                        state.tuned_ipc = None;
                        // Drifted behavior means a new working set: the
                        // fresh episode's reference trial re-keys the
                        // hotspot and looks its selection up again.
                        state.invocations_after_tuned = 0;
                        state.retunings += 1;
                        self.retunings += 1;
                        tel.emit(|| Event::DriftRetune {
                            scope,
                            drift,
                            instret: machine.instret(),
                        });
                        tel.emit(|| Event::TuningStarted {
                            scope,
                            configs,
                            instret: machine.instret(),
                        });
                    }
                }
            }
            Pending::Idle => {}
        }
        state.pending = Pending::Idle;
        if tunings > 0 {
            self.cu_stats_mut(cu).tunings += tunings;
        }
    }

    /// Builds the end-of-run report. `guard_rejections` is left at zero;
    /// fill it from the run's machine counters (the driver's `RunRecord`
    /// carries them), since rejections are counted by the hardware.
    pub fn report(&self) -> HotspotReport {
        let mut report = HotspotReport {
            cu: self.stats,
            retunings: self.retunings,
            small_hotspots: self.small_seen,
            warm_hits: self.warm_hits,
            warm_misses: self.warm_misses,
            warm_trials_saved: self.warm_trials_saved,
            store_publishes: self.store_publishes,
            ..HotspotReport::default()
        };
        let mut cov_sum = 0.0;
        let mut cov_n = 0u64;
        let mut means = OnlineStats::new();
        // Float accumulation is not associative, so the order is fixed.
        for (_, state) in self.ordered_states() {
            if let Some(cu) = state.class.cu() {
                report.cu_hotspots[cu.index()] += 1;
            }
            if state.tuner.is_done() {
                report.tuned_hotspots += 1;
            }
            if state.ipc_stats.count() >= 2 {
                cov_sum += state.ipc_stats.cov();
                cov_n += 1;
            }
            if state.ipc_stats.count() > 0 {
                means.push(state.ipc_stats.mean());
            }
            if let Some(cu) = state.class.cu() {
                let stats = &mut report.cu[cu.index()];
                stats.covered_instr = stats.covered_instr.saturating_add(state.covered_instr);
            }
        }
        // `covered_instr` in the aggregate stats was never filled globally;
        // it is assembled from the per-state counters above.
        report.per_hotspot_ipc_cov = if cov_n > 0 {
            cov_sum / cov_n as f64
        } else {
            0.0
        };
        report.inter_hotspot_ipc_cov = means.cov();
        report
    }

    /// Per-hotspot diagnostic: `(class, tuned, invocations_measured)`.
    pub fn hotspot_state(&self, method: MethodId) -> Option<(HotspotClass, bool, u64)> {
        self.states
            .get(&method)
            .map(|s| (s.class, s.tuner.is_done(), s.ipc_stats.count()))
    }

    /// Detailed per-hotspot diagnostics for analysis tools, in
    /// [`MethodId`] order:
    /// `(method, class, tuner, mean IPC, IPC CoV, invocations measured)`.
    pub fn hotspot_details(
        &self,
    ) -> impl Iterator<Item = (MethodId, HotspotClass, &ConfigTuner, f64, f64, u64)> {
        self.ordered_states().into_iter().map(|(m, s)| {
            (
                m,
                s.class,
                &s.tuner,
                s.ipc_stats.mean(),
                s.ipc_stats.cov(),
                s.ipc_stats.count(),
            )
        })
    }

    /// Number of hotspots with manager state.
    pub fn tracked_hotspots(&self) -> usize {
        self.states.len()
    }

    /// Hotspot states in [`MethodId`] order. `HashMap` order differs
    /// between processes; reports and diagnostics must not.
    fn ordered_states(&self) -> Vec<(MethodId, &HsState)> {
        let mut ordered: Vec<_> = self.states.iter().map(|(m, s)| (*m, s)).collect();
        ordered.sort_by_key(|(m, _)| m.0);
        ordered
    }
}

impl AceManager for HotspotAceManager {
    fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.hs_metrics = HsMetrics::resolve(&telemetry);
        self.tel = telemetry;
    }

    fn on_event(&mut self, event: DoEvent, machine: &mut Machine) {
        match event {
            DoEvent::HotspotEnter { method, class } => self.handle_enter(method, class, machine),
            DoEvent::HotspotExit { method, class, .. } => self.handle_exit(method, class, machine),
            DoEvent::HotspotClassified {
                class: HotspotClass::TooSmall,
                ..
            } => {
                self.small_seen += 1;
            }
            DoEvent::HotspotClassified {
                method, avg_size, ..
            } => {
                // Adaptable hotspot: keep its phase grain for the store
                // signature computed after the reference trial.
                self.sizes.insert(method, avg_size);
            }
            DoEvent::None => {}
        }
    }

    fn on_block(&mut self, _block: &Block, _machine: &mut Machine) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_sim::SizeLevel;

    #[test]
    fn default_config_matches_paper() {
        let c = HotspotManagerConfig::default();
        assert!((c.perf_threshold - 0.02).abs() < 1e-12);
        assert!(c.decouple);
    }

    #[test]
    fn decoupled_lists_are_small() {
        let mgr = HotspotAceManager::new(
            HotspotManagerConfig::default(),
            EnergyModel::default_180nm(),
        );
        assert_eq!(mgr.list_for(HotspotClass::Cu(CuId::L1d)).len(), 4);
        assert_eq!(mgr.list_for(HotspotClass::Cu(CuId::L2)).len(), 4);
        let coupled = HotspotAceManager::new(
            HotspotManagerConfig {
                decouple: false,
                ..Default::default()
            },
            EnergyModel::default_180nm(),
        );
        assert_eq!(coupled.list_for(HotspotClass::Cu(CuId::L1d)).len(), 16);
    }

    #[test]
    fn l1d_list_touches_only_l1d() {
        let mgr = HotspotAceManager::new(
            HotspotManagerConfig::default(),
            EnergyModel::default_180nm(),
        );
        for cfg in mgr.list_for(HotspotClass::Cu(CuId::L1d)) {
            assert!(cfg.touches(CuId::L1d));
            assert!(!cfg.touches(CuId::L2));
        }
        assert_eq!(
            mgr.list_for(HotspotClass::Cu(CuId::L2))[3],
            AceConfig::l2_only(SizeLevel::SMALLEST)
        );
    }

    #[test]
    fn report_empty_run() {
        let mgr = HotspotAceManager::new(
            HotspotManagerConfig::default(),
            EnergyModel::default_180nm(),
        );
        let r = mgr.report();
        assert_eq!(r.l1d_hotspots() + r.l2_hotspots(), 0);
        assert_eq!(r.tuned_fraction(), 0.0);
    }

    #[test]
    fn hotspot_details_come_in_method_order() {
        let mut mgr = HotspotAceManager::new(
            HotspotManagerConfig::default(),
            EnergyModel::default_180nm(),
        );
        let mut machine = Machine::new(ace_sim::MachineConfig::table2()).unwrap();
        // Enough hotspots that a hash order matching id order is a
        // practical impossibility.
        for id in (0..64).rev() {
            let event = DoEvent::HotspotEnter {
                method: MethodId(id),
                class: HotspotClass::Cu(CuId::L1d),
            };
            mgr.on_event(event, &mut machine);
        }
        let order: Vec<u32> = mgr.hotspot_details().map(|(m, ..)| m.0).collect();
        assert_eq!(order, (0..64).collect::<Vec<u32>>());
    }
}
