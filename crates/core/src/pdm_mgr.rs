//! Phase Distance Mapping (PDM) — the third contender scheme.
//!
//! Adegbija, Gordon-Ross & Munir observe that phases with similar
//! runtime behavior favor similar configurations, so a new phase's best
//! configuration can be *predicted* from its behavioral distance to an
//! already-tuned phase instead of re-walking the candidate list. PDM is
//! the hotspot manager ([`crate::HotspotAceManager::pdm`]) with a knowledge
//! table of `(behavioral vector, selection)` pairs, consulted right after
//! each hotspot's reference trial, where a fleet warm start consults the
//! shared store:
//!
//! * **hit** (distance below [`PdmManagerConfig::distance_threshold`]):
//!   the stored selection is adopted directly; the remaining candidate
//!   walk is skipped, and a [`ace_telemetry::Event::PdmPredictHit`]
//!   records the trials saved.
//! * **miss**: tuning falls back to the search path, and the eventual
//!   cold convergence is inserted into the knowledge table.
//!
//! With `distance_threshold` 0 the strict `<` comparison can never hit,
//! so the manager's machine interactions degrade *exactly* to the
//! hotspot search path — pinned by a differential test.
//!
//! This module holds the scheme's configuration, its behavioral vector,
//! the table lookup and its report.

use crate::cu::AceConfig;
use crate::hotspot::HotspotReport;
use crate::HotspotManagerConfig;
use serde::{Deserialize, Serialize};

/// Configuration of the PDM scheme.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PdmManagerConfig {
    /// The hotspot-substrate policy (thresholds, sampling, decoupling).
    pub base: HotspotManagerConfig,
    /// Maximum normalized behavioral distance at which an already-tuned
    /// phase's selection is adopted without searching. `0.0` disables
    /// prediction entirely (strict `<`), degrading to hotspot search.
    pub distance_threshold: f64,
}

impl Default for PdmManagerConfig {
    fn default() -> Self {
        PdmManagerConfig {
            base: HotspotManagerConfig::default(),
            distance_threshold: 0.25,
        }
    }
}

/// A phase's behavioral vector, captured at its reference (full-size)
/// trial: the paper's "phase distance" compares phases by what they do,
/// not where they are in the code.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhaseVector {
    /// IPC of the reference trial.
    pub ipc: f64,
    /// Cache energy per instruction of the reference trial (nanojoules).
    pub epi_nj: f64,
    /// `log2` of the mean invocation size — phases an order of magnitude
    /// apart in grain rarely share a best configuration.
    pub log_size: f64,
}

/// Normalization scales: each component is divided by the span it can
/// realistically cover so no single dimension dominates the mean.
const IPC_SCALE: f64 = 4.0;
const EPI_SCALE: f64 = 2.0;
const LOG_SIZE_SCALE: f64 = 8.0;

impl PhaseVector {
    /// Builds a vector from reference-trial measurements.
    pub fn new(ipc: f64, epi_nj: f64, avg_size: u64) -> PhaseVector {
        PhaseVector {
            ipc,
            epi_nj,
            log_size: (avg_size.max(1) as f64).log2(),
        }
    }

    /// Normalized distance to `other`: the mean of per-component absolute
    /// differences, each scaled to its realistic span. 0 means
    /// behaviorally identical; 1 means maximally far on every axis.
    pub fn distance(&self, other: &PhaseVector) -> f64 {
        let d_ipc = (self.ipc - other.ipc).abs() / IPC_SCALE;
        let d_epi = (self.epi_nj - other.epi_nj).abs() / EPI_SCALE;
        let d_size = (self.log_size - other.log_size).abs() / LOG_SIZE_SCALE;
        (d_ipc + d_epi + d_size) / 3.0
    }
}

/// Nearest entry of `table` with a matching CU mask. Linear scan in
/// insertion order; strict `<` keeps the first-inserted entry on ties,
/// so lookups are deterministic.
pub(crate) fn nearest_in(
    table: &[(u8, PhaseVector, AceConfig)],
    mask: u8,
    vector: &PhaseVector,
) -> Option<(f64, AceConfig)> {
    let mut best: Option<(f64, AceConfig)> = None;
    for (m, v, cfg) in table {
        if *m != mask {
            continue;
        }
        let d = vector.distance(v);
        if best.is_none_or(|(bd, _)| d < bd) {
            best = Some((d, *cfg));
        }
    }
    best
}

/// End-of-run report of the PDM scheme.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PdmReport {
    /// The hotspot-substrate counters (same shape as the hotspot scheme's
    /// report, so the headline tables compare like with like).
    pub base: HotspotReport,
    /// Predictions adopted directly.
    pub predict_hits: u64,
    /// First trials that fell back to the search path.
    pub predict_misses: u64,
    /// Candidate-list trials avoided across all hits.
    pub predicted_trials_saved: u64,
    /// Entries in the knowledge table at end of run.
    pub known_phases: u64,
}

impl PdmReport {
    /// Fraction of prediction attempts that hit (0 when none were made).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.predict_hits + self.predict_misses;
        if lookups == 0 {
            0.0
        } else {
            self.predict_hits as f64 / lookups as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HotspotAceManager;
    use ace_energy::EnergyModel;

    #[test]
    fn identical_vectors_have_zero_distance() {
        let v = PhaseVector::new(1.5, 0.8, 100_000);
        assert_eq!(v.distance(&v), 0.0);
    }

    #[test]
    fn distance_is_symmetric_and_scales() {
        let a = PhaseVector::new(1.0, 0.5, 100_000);
        let b = PhaseVector::new(2.0, 0.5, 100_000);
        assert!((a.distance(&b) - b.distance(&a)).abs() < 1e-15);
        // One IPC apart over scale 4, averaged over 3 components.
        assert!((a.distance(&b) - (1.0 / 4.0) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn nearest_respects_cu_mask_and_ties() {
        use ace_sim::SizeLevel;
        let v = PhaseVector::new(1.0, 0.5, 100_000);
        let cfg_a = AceConfig::l1d_only(SizeLevel::SMALLEST);
        let cfg_b = AceConfig::l1d_only(SizeLevel::LARGEST);
        let mut table = vec![(0b10u8, v, cfg_a)];
        // Same distance, different mask: must not match mask 0b100.
        assert!(nearest_in(&table, 0b100, &v).is_none());
        let (d, _) = nearest_in(&table, 0b10, &v).unwrap();
        assert_eq!(d, 0.0);
        // A later equally-near entry does not displace the first.
        table.push((0b10, v, cfg_b));
        let (_, picked) = nearest_in(&table, 0b10, &v).unwrap();
        assert_eq!(picked, cfg_a);
    }

    #[test]
    fn zero_threshold_never_predicts() {
        let cfg = PdmManagerConfig {
            distance_threshold: 0.0,
            ..PdmManagerConfig::default()
        };
        let v = PhaseVector::new(1.0, 0.5, 100_000);
        // Even an exact match is rejected by the strict `<`.
        let table = vec![(0b10u8, v, AceConfig::default())];
        let (d, _) = nearest_in(&table, 0b10, &v).unwrap();
        assert!(d >= cfg.distance_threshold, "strict < never fires at 0");
    }

    #[test]
    fn report_empty_run() {
        let mgr = HotspotAceManager::pdm(PdmManagerConfig::default(), EnergyModel::default_180nm());
        let r = mgr.pdm_table().unwrap().report(mgr.report());
        assert_eq!(r.base.tuned_hotspots, 0);
        assert_eq!(r.hit_rate(), 0.0);
        assert_eq!(r.known_phases, 0);
    }
}
