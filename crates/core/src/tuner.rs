//! The tuning state machine every tuning manager uses (Section 3.2.2).
//!
//! A tuner walks a configuration list (largest configuration first, so the
//! first measurement doubles as the performance reference), records one
//! measurement per configuration, aborts early once a configuration
//! degrades IPC past the performance threshold, and finally selects the
//! most energy-efficient configuration among those meeting the threshold.
//!
//! The hotspot manager instantiates one tuner per hotspot over a
//! *decoupled* 4-entry list; the BBV manager instantiates one per phase
//! over the full 16-entry combinatorial list (resumable across phase
//! recurrences, as the paper grants its BBV implementation); the
//! positional manager instantiates one per large procedure over the
//! same 16-entry list.

use crate::cu::AceConfig;
use crate::measure::Measurement;
use ace_telemetry::{Event, Scope, Telemetry};
use serde::{Deserialize, Serialize};

/// A configuration-list tuner.
///
/// # Examples
///
/// ```
/// use ace_core::{ConfigTuner, Measurement, single_cu_list};
/// use ace_sim::CuId;
///
/// let mut t = ConfigTuner::new(single_cu_list(CuId::L1d), 0.02);
/// while let Some(_cfg) = t.next_trial() {
///     // ...run one invocation under _cfg and measure it...
///     t.record(Measurement { instr: 100_000, ipc: 2.0, epi_nj: 1.0 });
/// }
/// assert!(t.is_done());
/// assert!(t.best().is_some());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfigTuner {
    configs: Vec<AceConfig>,
    measurements: Vec<Option<Measurement>>,
    next_idx: usize,
    perf_threshold: f64,
    best: Option<usize>,
    trials: u32,
    /// Configurations that violated the performance threshold; anything
    /// they dominate (equal or smaller in every touched unit) is pruned
    /// from the remaining walk instead of being tested.
    violated: Vec<AceConfig>,
}

impl ConfigTuner {
    /// Creates a tuner over `configs` with an IPC degradation bound of
    /// `perf_threshold` (e.g. `0.02` for the paper's 2 %).
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty or the threshold is not in `[0, 1)`.
    pub fn new(configs: Vec<AceConfig>, perf_threshold: f64) -> ConfigTuner {
        assert!(!configs.is_empty(), "need at least one configuration");
        assert!(
            (0.0..1.0).contains(&perf_threshold),
            "threshold must be in [0, 1)"
        );
        ConfigTuner {
            measurements: vec![None; configs.len()],
            configs,
            next_idx: 0,
            perf_threshold,
            best: None,
            trials: 0,
            violated: Vec::new(),
        }
    }

    /// A tuner that is born finished with `config` selected — used when a
    /// configuration *prediction* (e.g. from JIT-time code analysis, the
    /// paper's Section 6 extension) replaces the runtime search entirely.
    pub fn preselected(config: AceConfig) -> ConfigTuner {
        ConfigTuner {
            configs: vec![config],
            measurements: vec![None],
            next_idx: 1,
            perf_threshold: 0.0,
            best: Some(0),
            trials: 0,
            violated: Vec::new(),
        }
    }

    /// `true` once the best configuration has been selected.
    pub fn is_done(&self) -> bool {
        self.best.is_some()
    }

    /// The configuration to test next, or `None` when tuning is complete.
    pub fn next_trial(&self) -> Option<AceConfig> {
        if self.is_done() {
            None
        } else {
            self.configs.get(self.next_idx).copied()
        }
    }

    /// Records the measurement for the configuration returned by the last
    /// [`ConfigTuner::next_trial`] call, advancing the walk. A measurement
    /// that violates the performance threshold prunes every remaining
    /// configuration it dominates (capacity monotonicity: shrinking
    /// further cannot recover the lost IPC); selection happens when no
    /// testable configurations remain.
    ///
    /// # Panics
    ///
    /// Panics if called after tuning finished.
    pub fn record(&mut self, m: Measurement) {
        assert!(!self.is_done(), "tuning already finished");
        self.measurements[self.next_idx] = Some(m);
        self.trials += 1;
        let violates = self
            .reference_ipc()
            .is_some_and(|base| m.ipc < base * (1.0 - self.perf_threshold) && self.next_idx > 0);
        if violates {
            self.violated.push(self.configs[self.next_idx]);
        }
        self.next_idx += 1;
        self.skip_pruned();
        if self.next_idx >= self.configs.len() {
            self.finalize();
        }
    }

    /// Like [`ConfigTuner::record`], but emits [`Event::TuningStep`] — and
    /// [`Event::TuningConverged`] when this measurement completes the
    /// episode — attributed to `scope` and stamped with `instret`.
    ///
    /// Telemetry rides alongside the state machine rather than inside it
    /// so the tuner stays a plain comparable/serialisable value.
    ///
    /// # Panics
    ///
    /// Panics if called after tuning finished (same as
    /// [`ConfigTuner::record`]).
    pub fn record_traced(&mut self, m: Measurement, tel: &Telemetry, scope: Scope, instret: u64) {
        let trial = self.next_idx as u32;
        self.record(m);
        tel.emit(|| Event::TuningStep {
            scope,
            trial,
            ipc: m.ipc,
            epi_nj: m.epi_nj,
            instret,
        });
        if self.is_done() {
            let best = self.best_measurement();
            tel.emit(|| Event::TuningConverged {
                scope,
                trials: self.trials,
                ipc: best.map_or(0.0, |b| b.ipc),
                epi_nj: best.map_or(0.0, |b| b.epi_nj),
                instret,
            });
        }
    }

    /// Advances past configurations pruned by recorded violations.
    fn skip_pruned(&mut self) {
        while let Some(cfg) = self.configs.get(self.next_idx) {
            if self.violated.iter().any(|v| cfg.dominated_by(v)) {
                self.next_idx += 1;
            } else {
                break;
            }
        }
    }

    /// IPC of the first (largest) configuration — the reference the
    /// performance threshold is measured against.
    pub fn reference_ipc(&self) -> Option<f64> {
        self.measurements[0].map(|m| m.ipc)
    }

    /// Completes tuning immediately, selecting from what was measured.
    pub fn finalize(&mut self) {
        let reference = self.reference_ipc();
        let mut best = 0usize;
        let mut best_epi = f64::INFINITY;
        for (i, m) in self.measurements.iter().enumerate() {
            let Some(m) = m else { continue };
            let ok = match reference {
                Some(base) => i == 0 || m.ipc >= base * (1.0 - self.perf_threshold),
                None => true,
            };
            if ok && m.epi_nj < best_epi {
                best_epi = m.epi_nj;
                best = i;
            }
        }
        self.best = Some(best);
    }

    /// The selected configuration (after tuning completes).
    pub fn best(&self) -> Option<AceConfig> {
        self.best.map(|i| self.configs[i])
    }

    /// The measurement of the selected configuration.
    pub fn best_measurement(&self) -> Option<Measurement> {
        self.best.and_then(|i| self.measurements[i])
    }

    /// Number of configuration trials recorded.
    pub fn trials(&self) -> u32 {
        self.trials
    }

    /// Number of configurations in the list.
    pub fn list_len(&self) -> usize {
        self.configs.len()
    }

    /// The configuration list.
    pub fn configs(&self) -> &[AceConfig] {
        &self.configs
    }

    /// The per-configuration measurements recorded so far.
    pub fn measurements(&self) -> &[Option<Measurement>] {
        &self.measurements
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cu::{combined_list, single_cu_list};
    use ace_sim::{CuId, SizeLevel};

    fn meas(ipc: f64, epi: f64) -> Measurement {
        Measurement {
            instr: 100_000,
            ipc,
            epi_nj: epi,
        }
    }

    #[test]
    fn picks_min_epi_meeting_threshold() {
        let mut t = ConfigTuner::new(single_cu_list(CuId::L1d), 0.02);
        // Baseline: ipc 2.0, epi 1.0. Level1: tiny drop, cheaper. Level2:
        // cheaper still but violates threshold handled below? no: passes.
        // Level3: cheapest but 10% slower -> rejected.
        let data = [
            meas(2.00, 1.00),
            meas(1.99, 0.80),
            meas(1.97, 0.65),
            meas(1.80, 0.40),
        ];
        for m in data {
            assert!(t.next_trial().is_some());
            t.record(m);
        }
        assert!(t.is_done());
        assert_eq!(
            t.best().unwrap(),
            AceConfig::l1d_only(SizeLevel::new(2).unwrap())
        );
        assert_eq!(t.trials(), 4);
    }

    #[test]
    fn early_abort_on_threshold_violation() {
        let mut t = ConfigTuner::new(single_cu_list(CuId::L1d), 0.02);
        t.record(meas(2.0, 1.0));
        t.record(meas(1.5, 0.5)); // 25% degradation: abort now.
        assert!(t.is_done());
        assert_eq!(t.trials(), 2);
        // The violating config is excluded; baseline wins.
        assert_eq!(t.best().unwrap(), AceConfig::l1d_only(SizeLevel::LARGEST));
    }

    #[test]
    fn baseline_never_rejected() {
        let mut t = ConfigTuner::new(single_cu_list(CuId::L1d), 0.02);
        for _ in 0..4 {
            t.record(meas(1.0, 2.0));
        }
        assert_eq!(t.best().unwrap(), AceConfig::l1d_only(SizeLevel::LARGEST));
    }

    #[test]
    fn equal_epi_prefers_earlier_larger_config() {
        let mut t = ConfigTuner::new(single_cu_list(CuId::L2), 0.02);
        for _ in 0..4 {
            t.record(meas(2.0, 1.0));
        }
        assert_eq!(t.best().unwrap(), AceConfig::l2_only(SizeLevel::LARGEST));
    }

    #[test]
    fn combined_list_takes_sixteen_trials() {
        let mut t = ConfigTuner::new(combined_list(), 0.02);
        let mut n = 0;
        while t.next_trial().is_some() {
            t.record(meas(2.0, 1.0 - 0.01 * n as f64));
            n += 1;
        }
        assert_eq!(n, 16, "no abort: all combinatorial configs tested");
        assert_eq!(t.trials(), 16);
        // Last config had the lowest EPI.
        assert_eq!(
            t.best().unwrap(),
            AceConfig::both(SizeLevel::SMALLEST, SizeLevel::SMALLEST)
        );
    }

    #[test]
    fn finalize_midway_uses_partial_data() {
        let mut t = ConfigTuner::new(single_cu_list(CuId::L1d), 0.02);
        t.record(meas(2.0, 1.0));
        t.record(meas(2.0, 0.7));
        t.finalize();
        assert_eq!(
            t.best().unwrap(),
            AceConfig::l1d_only(SizeLevel::new(1).unwrap())
        );
        assert!(t.best_measurement().unwrap().epi_nj == 0.7);
    }

    #[test]
    #[should_panic(expected = "at least one configuration")]
    fn rejects_empty_list() {
        let _ = ConfigTuner::new(Vec::new(), 0.02);
    }

    #[test]
    #[should_panic(expected = "already finished")]
    fn rejects_record_after_done() {
        let mut t = ConfigTuner::new(single_cu_list(CuId::L1d), 0.02);
        t.finalize();
        t.record(meas(1.0, 1.0));
    }
}
