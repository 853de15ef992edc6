//! Human-readable reports over an [`Analysis`].
//!
//! Both renderers are deterministic functions of the analysis — fixed
//! float precision, scopes in `Ord` order, no wall-clock anything — so
//! `ace trace summarize` output can be `diff`ed between runs (CI relies
//! on byte-identical summaries for `--jobs 1` vs `--jobs 4` traces).

use crate::analysis::{Analysis, EpisodeOutcome, NUM_LEVELS};
use ace_telemetry::{CuId, EventKind};
use std::fmt::Write as _;

/// Renders the headline summary: event counts, counter span, promotions,
/// per-scope episode statistics, per-CU residency, phase behaviour, and
/// stream-wide means.
pub fn summarize(analysis: &Analysis) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "trace summary");
    let _ = writeln!(out, "  events total {}", analysis.total_events());
    for kind in EventKind::ALL {
        let n = analysis.count(kind);
        if n > 0 {
            let _ = writeln!(out, "    {:<24} {n}", kind.name());
        }
    }
    let _ = writeln!(
        out,
        "  span {} instructions, {} cycles",
        analysis.final_instret, analysis.final_cycle
    );

    let _ = writeln!(out, "hotspot promotions: {}", analysis.promotions.len());
    const MAX_PROMOTIONS: usize = 20;
    for p in analysis.promotions.iter().take(MAX_PROMOTIONS) {
        let _ = writeln!(
            out,
            "  method {:<6} invocations {:<8} at instret {}",
            p.method, p.invocations, p.instret
        );
    }
    if analysis.promotions.len() > MAX_PROMOTIONS {
        let _ = writeln!(
            out,
            "  ... and {} more",
            analysis.promotions.len() - MAX_PROMOTIONS
        );
    }

    let _ = writeln!(out, "tuning scopes: {}", analysis.scopes.len());
    for scope in &analysis.scopes {
        let converged = scope
            .episodes
            .iter()
            .filter(|e| e.outcome == EpisodeOutcome::Converged)
            .count();
        let abandoned = scope
            .episodes
            .iter()
            .filter(|e| e.outcome == EpisodeOutcome::Abandoned)
            .count();
        let in_progress = scope.episodes.len() - converged - abandoned;
        let _ = write!(
            out,
            "  {:<20} episodes {} ({converged} converged, {abandoned} abandoned, {in_progress} in-progress)  drift-retunes {}",
            scope.scope.label(),
            scope.episodes.len(),
            scope.drift_retunes
        );
        if let Some(last) = scope.last_converged() {
            let _ = write!(
                out,
                "  final ipc {:.3} epi {:.3} nJ",
                last.converged_ipc.unwrap_or(0.0),
                last.converged_epi_nj.unwrap_or(0.0)
            );
        }
        out.push('\n');
    }
    if !analysis.scopes.is_empty() {
        let _ = writeln!(
            out,
            "  mean trials to converge {:.2}, mean episode span {:.0} instructions",
            analysis.mean_trials_to_converge(),
            analysis.mean_episode_span_instr()
        );
    }

    // Only traces recorded against a tuning store carry warm-start
    // events; stay silent otherwise so pre-fleet summaries are unchanged.
    let ws = &analysis.warm_start;
    if ws.lookups() > 0 || ws.publishes > 0 {
        let _ = writeln!(
            out,
            "warm start: {} hits / {} lookups ({:.1}% hit rate), {} trials saved, {} publishes",
            ws.hits,
            ws.lookups(),
            ws.hit_rate() * 100.0,
            ws.trials_saved,
            ws.publishes
        );
    }

    // Likewise, only PDM-scheme traces carry prediction events.
    let pdm = &analysis.pdm;
    if pdm.lookups() > 0 {
        let _ = writeln!(
            out,
            "phase distance mapping: {} hits / {} lookups ({:.1}% hit rate), {} trials saved",
            pdm.hits,
            pdm.lookups(),
            pdm.hit_rate() * 100.0,
            pdm.trials_saved
        );
    }

    // Harness spans only appear in obs-instrumented traces; stay silent
    // otherwise so pre-obs summaries are unchanged.
    if !analysis.spans.is_empty() || analysis.span_mismatches > 0 {
        let _ = writeln!(
            out,
            "harness spans: {} ({} mismatched ends)",
            analysis.spans.len(),
            analysis.span_mismatches
        );
        const MAX_SPANS: usize = 20;
        for span in analysis.spans.iter().take(MAX_SPANS) {
            let _ = writeln!(
                out,
                "  {:<16} depth {} instret {:>12}..{:<12} cycles {:>12}..{:<12}{}",
                span.name,
                span.depth,
                span.begin_instret,
                span.end_instret,
                span.begin_cycle,
                span.end_cycle,
                if span.open { "  (open)" } else { "" }
            );
        }
        if analysis.spans.len() > MAX_SPANS {
            let _ = writeln!(out, "  ... and {} more", analysis.spans.len() - MAX_SPANS);
        }
    }

    let _ = writeln!(out, "configuration residency (cycles per level):");
    for cu in CuId::ALL {
        let res = &analysis.residency[cu.index()];
        let fractions = res.cycle_fractions();
        let _ = write!(out, "  {:<8}", cu.name());
        for (level, frac) in fractions.iter().enumerate().take(NUM_LEVELS) {
            let _ = write!(out, " L{level} {:>5.1}%", frac * 100.0);
        }
        let _ = write!(out, "  reconfigs {}", res.reconfigs);
        if res.level_mismatches > 0 {
            let _ = write!(out, "  (level mismatches {})", res.level_mismatches);
        }
        out.push('\n');
    }

    let phases = &analysis.phases;
    let _ = writeln!(
        out,
        "phase behaviour: {} intervals, {} stable, {} segments, {} distinct phases",
        phases.intervals,
        phases.stable_intervals,
        phases.segments.len(),
        phases.distinct_phases()
    );

    let h = &analysis.headline;
    let _ = writeln!(
        out,
        "headline: ipc {:.4}, epi {:.4} nJ ({} interval samples, {} convergences)",
        h.ipc(),
        h.epi_nj(),
        h.interval_samples,
        h.convergences
    );
    out
}

/// Renders the chronological view: phase segments in interval order,
/// then every tuning episode in scope order, then every reconfiguration
/// in stream order.
pub fn timeline(analysis: &Analysis) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "phase timeline ({} segments):",
        analysis.phases.segments.len()
    );
    for seg in &analysis.phases.segments {
        let _ = writeln!(
            out,
            "  phase {:<4} intervals {:>4}..{:<4} instret {:>12}..{:<12} mean ipc {:.3} epi {:.3} stable {}/{}",
            seg.phase,
            seg.first_index,
            seg.last_index,
            seg.start_instret,
            seg.end_instret,
            seg.mean_ipc,
            seg.mean_epi_nj,
            seg.stable,
            seg.intervals()
        );
    }

    let episode_count = analysis.episodes().count();
    let _ = writeln!(out, "tuning episodes ({episode_count}):");
    for episode in analysis.episodes() {
        let _ = write!(
            out,
            "  {:<20} instret {:>12}..{:<12} trials {:<3} {}",
            episode.scope.label(),
            episode.started_instret,
            episode.end_instret,
            episode.trials.len(),
            episode.outcome.name()
        );
        if let (Some(ipc), Some(epi)) = (episode.converged_ipc, episode.converged_epi_nj) {
            let _ = write!(out, " ipc {ipc:.3} epi {epi:.3}");
        }
        out.push('\n');
    }

    let _ = writeln!(out, "reconfigurations ({}):", analysis.reconfigs.len());
    for r in &analysis.reconfigs {
        let _ = writeln!(
            out,
            "  cycle {:>12} {:<8} L{} -> L{}  {}",
            r.cycle,
            r.cu.name(),
            r.from,
            r.to,
            r.cause.name()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_telemetry::{Event, ReconfigCause, Scope};

    fn sample_analysis() -> Analysis {
        let scope = Scope::Hotspot { method: 3 };
        Analysis::of(&[
            Event::HotspotPromoted {
                method: 3,
                invocations: 12,
                instret: 50,
            },
            Event::TuningStarted {
                scope,
                configs: 4,
                instret: 100,
            },
            Event::TuningStep {
                scope,
                trial: 0,
                ipc: 1.2,
                epi_nj: 0.4,
                instret: 200,
            },
            Event::TuningConverged {
                scope,
                trials: 1,
                ipc: 1.2,
                epi_nj: 0.4,
                instret: 300,
            },
            Event::Reconfigured {
                cu: CuId::Window,
                from: 0,
                to: 2,
                cause: ReconfigCause::Apply,
                cycle: 400,
            },
            Event::IntervalSample {
                phase: 1,
                index: 0,
                ipc: 1.3,
                epi_nj: 0.35,
                stable: true,
                instret: 500,
            },
        ])
    }

    #[test]
    fn summarize_mentions_every_section() {
        let text = summarize(&sample_analysis());
        for needle in [
            "trace summary",
            "events total 6",
            "hotspot promotions: 1",
            "hotspot:3",
            "1 converged",
            "configuration residency",
            "phase behaviour: 1 intervals",
            "headline: ipc 1.3000",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn timeline_lists_segments_episodes_and_reconfigs() {
        let text = timeline(&sample_analysis());
        for needle in [
            "phase timeline (1 segments)",
            "tuning episodes (1)",
            "converged ipc 1.200",
            "reconfigurations (1)",
            "window",
            "L0 -> L2",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn warm_start_line_only_renders_when_active() {
        let quiet = summarize(&sample_analysis());
        assert!(!quiet.contains("warm start:"), "unexpected in:\n{quiet}");

        let scope = Scope::Hotspot { method: 9 };
        let active = Analysis::of(&[
            Event::WarmStartMiss {
                scope,
                signature: 7,
                instret: 100,
            },
            Event::WarmStartHit {
                scope,
                signature: 7,
                trials_saved: 3,
                instret: 200,
            },
            Event::StorePublish {
                scope,
                signature: 7,
                epi_nj: 0.4,
                instret: 300,
            },
        ]);
        let text = summarize(&active);
        assert!(
            text.contains(
                "warm start: 1 hits / 2 lookups (50.0% hit rate), 3 trials saved, 1 publishes"
            ),
            "missing warm-start line in:\n{text}"
        );
    }

    #[test]
    fn pdm_line_only_renders_when_active() {
        let quiet = summarize(&sample_analysis());
        assert!(
            !quiet.contains("phase distance mapping:"),
            "unexpected in:\n{quiet}"
        );

        let active = Analysis::of(&[
            Event::PdmPredictMiss {
                scope: Scope::Hotspot { method: 4 },
                distance: 0.8,
                instret: 100,
            },
            Event::PdmPredictHit {
                scope: Scope::Hotspot { method: 5 },
                distance: 0.05,
                trials_saved: 7,
                instret: 200,
            },
        ]);
        let text = summarize(&active);
        assert!(
            text.contains(
                "phase distance mapping: 1 hits / 2 lookups (50.0% hit rate), 7 trials saved"
            ),
            "missing pdm line in:\n{text}"
        );
    }

    #[test]
    fn rendering_is_deterministic() {
        let a = sample_analysis();
        assert_eq!(summarize(&a), summarize(&a.clone()));
        assert_eq!(timeline(&a), timeline(&a.clone()));
    }
}
