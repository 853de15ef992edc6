//! Run-to-run regression diffing.
//!
//! Compares two analyses — a baseline run A and a candidate run B — and
//! flags the differences that matter for an adaptive system: did the
//! candidate lose IPC, spend more energy, converge slower, thrash its
//! configurations, or change decision volume? Each comparison is one
//! [`DiffLine`] with the measured delta and the threshold it was judged
//! against; [`DiffReport::regressed`] is what `ace trace diff` turns
//! into its exit code, making a recorded trace a usable perf baseline
//! in CI.
//!
//! Thresholds are asymmetric on purpose: an IPC *rise* or an EPI *drop*
//! is an improvement and never flags, and event-count deltas flag in
//! both directions because either direction means behaviour changed.

use crate::analysis::{Analysis, EpisodeOutcome};
use ace_telemetry::{CuId, EventKind};
use std::fmt::Write as _;

/// Regression thresholds for [`diff`]. The defaults suit CI comparisons
/// of identically configured runs; loosen them when comparing across
/// deliberate behaviour changes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffThresholds {
    /// Maximum tolerated relative drop in headline IPC (0.02 = 2%).
    pub max_ipc_drop: f64,
    /// Maximum tolerated relative rise in headline EPI (0.02 = 2%).
    pub max_epi_rise: f64,
    /// Maximum tolerated relative change, either direction, in per-kind
    /// event counts and in converged-episode count.
    pub max_count_delta: f64,
    /// Maximum tolerated total-variation distance between a CU's
    /// cycle-residency distributions (0.1 = 10% of cycles moved level).
    pub max_residency_shift: f64,
    /// Maximum tolerated relative rise in mean trials-to-converge.
    pub max_convergence_slowdown: f64,
}

impl Default for DiffThresholds {
    fn default() -> DiffThresholds {
        DiffThresholds {
            max_ipc_drop: 0.02,
            max_epi_rise: 0.02,
            max_count_delta: 0.10,
            max_residency_shift: 0.10,
            max_convergence_slowdown: 0.25,
        }
    }
}

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffLine {
    /// What was compared (e.g. `headline ipc`, `events TuningStep`).
    pub metric: String,
    /// Baseline value.
    pub a: f64,
    /// Candidate value.
    pub b: f64,
    /// The judged delta (relative where the threshold is relative).
    pub delta: f64,
    /// The threshold the delta was judged against.
    pub threshold: f64,
    /// Whether the delta exceeds the threshold in the bad direction.
    pub regressed: bool,
}

/// The full comparison.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DiffReport {
    /// Every compared metric, in comparison order.
    pub lines: Vec<DiffLine>,
}

impl DiffReport {
    /// Whether any compared metric regressed.
    pub fn regressed(&self) -> bool {
        self.lines.iter().any(|l| l.regressed)
    }

    /// The regressed lines only.
    pub fn regressions(&self) -> impl Iterator<Item = &DiffLine> {
        self.lines.iter().filter(|l| l.regressed)
    }

    /// Deterministic human-readable rendering; regressed lines are
    /// prefixed `FAIL`, others `ok`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            let verdict = if line.regressed { "FAIL" } else { "ok  " };
            let _ = writeln!(
                out,
                "{verdict} {:<28} a {:>12.4}  b {:>12.4}  delta {:>8.4}  limit {:.4}",
                line.metric, line.a, line.b, line.delta, line.threshold
            );
        }
        let regressions = self.regressions().count();
        if regressions == 0 {
            let _ = writeln!(
                out,
                "no regressions ({} metrics compared)",
                self.lines.len()
            );
        } else {
            let _ = writeln!(
                out,
                "{regressions} regression(s) in {} metrics",
                self.lines.len()
            );
        }
        out
    }
}

/// Relative change from `a` to `b`, with the `a == 0` edge mapped to 0
/// (both zero) or 1 (appeared from nothing).
pub(crate) fn rel_change(a: f64, b: f64) -> f64 {
    if a == 0.0 {
        if b == 0.0 {
            0.0
        } else {
            1.0
        }
    } else {
        (b - a) / a
    }
}

/// Compares baseline `a` against candidate `b` under `thresholds`.
///
/// Metrics compared, in order: per-kind event counts, total span
/// (instructions and cycles), headline IPC (drop) and EPI (rise),
/// converged-episode count, mean trials-to-converge (rise), drift
/// retunes, and per-CU residency shift (total-variation distance over
/// cycle fractions).
pub fn diff(a: &Analysis, b: &Analysis, thresholds: &DiffThresholds) -> DiffReport {
    let mut lines = Vec::new();
    let mut push_count = |metric: String, va: f64, vb: f64| {
        let delta = rel_change(va, vb);
        lines.push(DiffLine {
            metric,
            a: va,
            b: vb,
            delta,
            threshold: thresholds.max_count_delta,
            regressed: delta.abs() > thresholds.max_count_delta,
        });
    };

    for kind in EventKind::ALL {
        push_count(
            format!("events {}", kind.name()),
            a.count(kind) as f64,
            b.count(kind) as f64,
        );
    }
    push_count(
        "span instructions".to_string(),
        a.final_instret as f64,
        b.final_instret as f64,
    );
    push_count(
        "span cycles".to_string(),
        a.final_cycle as f64,
        b.final_cycle as f64,
    );

    // Headline IPC: only a drop is a regression.
    let ipc_a = a.headline.ipc();
    let ipc_b = b.headline.ipc();
    let ipc_delta = rel_change(ipc_a, ipc_b);
    lines.push(DiffLine {
        metric: "headline ipc".to_string(),
        a: ipc_a,
        b: ipc_b,
        delta: ipc_delta,
        threshold: thresholds.max_ipc_drop,
        regressed: -ipc_delta > thresholds.max_ipc_drop,
    });

    // Headline EPI: only a rise is a regression.
    let epi_a = a.headline.epi_nj();
    let epi_b = b.headline.epi_nj();
    let epi_delta = rel_change(epi_a, epi_b);
    lines.push(DiffLine {
        metric: "headline epi_nj".to_string(),
        a: epi_a,
        b: epi_b,
        delta: epi_delta,
        threshold: thresholds.max_epi_rise,
        regressed: epi_delta > thresholds.max_epi_rise,
    });

    let conv_a = a.episode_count(EpisodeOutcome::Converged) as f64;
    let conv_b = b.episode_count(EpisodeOutcome::Converged) as f64;
    let conv_delta = rel_change(conv_a, conv_b);
    lines.push(DiffLine {
        metric: "episodes converged".to_string(),
        a: conv_a,
        b: conv_b,
        delta: conv_delta,
        threshold: thresholds.max_count_delta,
        regressed: conv_delta.abs() > thresholds.max_count_delta,
    });

    // Convergence speed: only slower is a regression.
    let trials_a = a.mean_trials_to_converge();
    let trials_b = b.mean_trials_to_converge();
    let trials_delta = rel_change(trials_a, trials_b);
    lines.push(DiffLine {
        metric: "mean trials to converge".to_string(),
        a: trials_a,
        b: trials_b,
        delta: trials_delta,
        threshold: thresholds.max_convergence_slowdown,
        regressed: trials_delta > thresholds.max_convergence_slowdown,
    });

    let drift_a = a.drift_retunes() as f64;
    let drift_b = b.drift_retunes() as f64;
    let drift_delta = rel_change(drift_a, drift_b);
    lines.push(DiffLine {
        metric: "drift retunes".to_string(),
        a: drift_a,
        b: drift_b,
        delta: drift_delta,
        threshold: thresholds.max_count_delta,
        regressed: drift_delta.abs() > thresholds.max_count_delta,
    });

    // Residency: total-variation distance between cycle-fraction
    // distributions. 0 = identical, 1 = disjoint.
    for cu in CuId::ALL {
        let fa = a.residency[cu.index()].cycle_fractions();
        let fb = b.residency[cu.index()].cycle_fractions();
        let tv: f64 = fa
            .iter()
            .zip(fb.iter())
            .map(|(x, y)| (x - y).abs())
            .sum::<f64>()
            / 2.0;
        lines.push(DiffLine {
            metric: format!("residency shift {}", cu.name()),
            a: 0.0,
            b: 0.0,
            delta: tv,
            threshold: thresholds.max_residency_shift,
            regressed: tv > thresholds.max_residency_shift,
        });
    }

    DiffReport { lines }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_telemetry::{Event, ReconfigCause, Scope};

    fn run(ipc: f64, epi: f64, trials: u32, cu_to: u8) -> Analysis {
        let scope = Scope::Hotspot { method: 1 };
        let mut events = vec![Event::TuningStarted {
            scope,
            configs: trials,
            instret: 100,
        }];
        for t in 0..trials {
            events.push(Event::TuningStep {
                scope,
                trial: t,
                ipc,
                epi_nj: epi,
                instret: 200 + u64::from(t) * 100,
            });
        }
        events.push(Event::TuningConverged {
            scope,
            trials,
            ipc,
            epi_nj: epi,
            instret: 1000,
        });
        events.push(Event::Reconfigured {
            cu: CuId::L1d,
            from: 0,
            to: cu_to,
            cause: ReconfigCause::Apply,
            cycle: 500,
        });
        events.push(Event::Reconfigured {
            cu: CuId::L1d,
            from: cu_to,
            to: cu_to,
            cause: ReconfigCause::Reset,
            cycle: 1000,
        });
        Analysis::of(&events)
    }

    #[test]
    fn identical_runs_do_not_regress() {
        let a = run(1.5, 0.4, 3, 2);
        let report = diff(&a, &a.clone(), &DiffThresholds::default());
        assert!(!report.regressed(), "{}", report.render());
        assert!(report.render().contains("no regressions"));
    }

    #[test]
    fn ipc_drop_beyond_threshold_regresses() {
        let a = run(1.5, 0.4, 3, 2);
        let b = run(1.2, 0.4, 3, 2); // 20% IPC drop
        let report = diff(&a, &b, &DiffThresholds::default());
        assert!(report.regressed());
        assert!(report.regressions().any(|l| l.metric == "headline ipc"));
    }

    #[test]
    fn ipc_rise_is_not_a_regression() {
        let a = run(1.5, 0.4, 3, 2);
        let b = run(2.0, 0.4, 3, 2);
        let report = diff(&a, &b, &DiffThresholds::default());
        assert!(!report.regressions().any(|l| l.metric == "headline ipc"));
    }

    #[test]
    fn epi_rise_beyond_threshold_regresses() {
        let a = run(1.5, 0.4, 3, 2);
        let b = run(1.5, 0.5, 3, 2); // 25% EPI rise
        let report = diff(&a, &b, &DiffThresholds::default());
        assert!(report.regressions().any(|l| l.metric == "headline epi_nj"));
    }

    #[test]
    fn event_count_change_in_either_direction_flags() {
        let a = run(1.5, 0.4, 3, 2);
        let fewer = run(1.5, 0.4, 2, 2);
        let more = run(1.5, 0.4, 5, 2);
        for b in [fewer, more] {
            let report = diff(&a, &b, &DiffThresholds::default());
            assert!(report
                .regressions()
                .any(|l| l.metric == "events TuningStep"));
        }
    }

    #[test]
    fn residency_shift_flags_when_levels_move() {
        let a = run(1.5, 0.4, 3, 1);
        let b = run(1.5, 0.4, 3, 3); // same cycles at a different level
        let report = diff(&a, &b, &DiffThresholds::default());
        assert!(report
            .regressions()
            .any(|l| l.metric == "residency shift l1d"));
    }

    #[test]
    fn thresholds_are_honoured() {
        let a = run(1.5, 0.4, 3, 2);
        let b = run(1.2, 0.4, 3, 2);
        let loose = DiffThresholds {
            max_ipc_drop: 0.5,
            ..DiffThresholds::default()
        };
        let report = diff(&a, &b, &loose);
        assert!(!report.regressions().any(|l| l.metric == "headline ipc"));
    }

    #[test]
    fn rel_change_edges() {
        assert_eq!(rel_change(0.0, 0.0), 0.0);
        assert_eq!(rel_change(0.0, 5.0), 1.0);
        assert_eq!(rel_change(2.0, 1.0), -0.5);
    }
}
