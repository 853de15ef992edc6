//! Replaying an event stream into an [`Analysis`].
//!
//! The [`Analyzer`] is a streaming state machine: feed it events in
//! recording order ([`Analyzer::push`]) and it reconstructs, per scope,
//! the tuning-episode lifecycle the managers executed (promotion →
//! trials → convergence → apply → drift/retune), plus per-CU
//! configuration residency and the BBV phase timeline. Memory stays
//! proportional to the number of *decisions* (episodes, reconfigs,
//! phase segments), not the number of events, so multi-gigabyte traces
//! analyze in one pass.
//!
//! Everything is deterministic: scopes iterate in [`Scope`]'s `Ord`
//! order, CUs in [`CuId::ALL`] order, and floats are accumulated in
//! stream order — two byte-identical traces produce byte-identical
//! analyses (the trace CLI's regression tests rely on this).

use ace_telemetry::{CuId, Event, EventKind, ReconfigCause, Scope, MAX_CUS};
use std::collections::BTreeMap;

/// Number of CU size levels (paper Table 2: four per unit, 0 = largest).
pub const NUM_LEVELS: usize = 4;

/// One measured trial inside a tuning episode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Trial {
    /// Zero-based trial index.
    pub trial: u32,
    /// Measured IPC under the trial configuration.
    pub ipc: f64,
    /// Measured energy per instruction (nJ).
    pub epi_nj: f64,
    /// Retired-instruction counter when the measurement completed.
    pub instret: u64,
}

/// How a tuning episode ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpisodeOutcome {
    /// The episode measured its trials and picked a winner.
    Converged,
    /// A drift retune or a restarted episode discarded it mid-flight.
    Abandoned,
    /// The trace ended while the episode was still measuring.
    InProgress,
}

impl EpisodeOutcome {
    /// Short lowercase name used in summaries.
    pub fn name(self) -> &'static str {
        match self {
            EpisodeOutcome::Converged => "converged",
            EpisodeOutcome::Abandoned => "abandoned",
            EpisodeOutcome::InProgress => "in-progress",
        }
    }
}

/// One reconstructed tuning episode.
#[derive(Debug, Clone, PartialEq)]
pub struct Episode {
    /// The scope the episode tuned.
    pub scope: Scope,
    /// Retired-instruction counter at `TuningStarted`.
    pub started_instret: u64,
    /// Candidate-configuration count announced at start (0 when the
    /// episode was reconstructed from orphan steps).
    pub configs: u32,
    /// The measured trials, in measurement order.
    pub trials: Vec<Trial>,
    /// Retired-instruction counter at the closing event (convergence,
    /// drift, restart) or the end of the trace.
    pub end_instret: u64,
    /// How the episode ended.
    pub outcome: EpisodeOutcome,
    /// IPC of the winning configuration, for converged episodes.
    pub converged_ipc: Option<f64>,
    /// Energy per instruction (nJ) of the winner, for converged episodes.
    pub converged_epi_nj: Option<f64>,
}

impl Episode {
    /// Instructions the episode spanned.
    pub fn span_instr(&self) -> u64 {
        self.end_instret.saturating_sub(self.started_instret)
    }
}

/// Everything reconstructed for one scope.
#[derive(Debug, Clone, PartialEq)]
pub struct ScopeAnalysis {
    /// The scope.
    pub scope: Scope,
    /// Its episodes, in start order.
    pub episodes: Vec<Episode>,
    /// Drift-retune decisions attributed to the scope.
    pub drift_retunes: u64,
}

impl ScopeAnalysis {
    /// The last converged episode, if any — the configuration the scope
    /// ended the run with.
    pub fn last_converged(&self) -> Option<&Episode> {
        self.episodes
            .iter()
            .rev()
            .find(|e| e.outcome == EpisodeOutcome::Converged)
    }
}

/// Time spent at one size level of one CU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LevelResidency {
    /// Cycles resident at the level (from `Reconfigured` cycle stamps).
    pub cycles: u64,
    /// Retired instructions resident at the level (from the most recent
    /// instret-stamped event at each reconfiguration).
    pub instret: u64,
}

/// Configuration residency of one CU over the whole trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CuResidency {
    /// The unit.
    pub cu: CuId,
    /// Per-level residency; index = size level (0 = largest).
    pub levels: [LevelResidency; NUM_LEVELS],
    /// Total resizes of the unit.
    pub reconfigs: u64,
    /// Resizes by cause, indexed Trial/Apply/Reset.
    pub by_cause: [u64; 3],
    /// `Reconfigured` events whose `from` level disagreed with the level
    /// the analyzer tracked — nonzero means a truncated or mixed trace.
    pub level_mismatches: u64,
}

impl CuResidency {
    fn new(cu: CuId) -> CuResidency {
        CuResidency {
            cu,
            levels: [LevelResidency::default(); NUM_LEVELS],
            reconfigs: 0,
            by_cause: [0; 3],
            level_mismatches: 0,
        }
    }

    /// Total cycles attributed across all levels.
    pub fn total_cycles(&self) -> u64 {
        self.levels.iter().map(|l| l.cycles).sum()
    }

    /// Per-level fraction of cycles, or all-zero when no cycles were
    /// attributed.
    pub fn cycle_fractions(&self) -> [f64; NUM_LEVELS] {
        let total = self.total_cycles();
        if total == 0 {
            return [0.0; NUM_LEVELS];
        }
        let mut out = [0.0; NUM_LEVELS];
        for (slot, level) in out.iter_mut().zip(self.levels.iter()) {
            *slot = level.cycles as f64 / total as f64;
        }
        out
    }
}

/// One maximal run of consecutive intervals classified into one phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSegment {
    /// Phase id of the segment.
    pub phase: u32,
    /// First interval index of the segment.
    pub first_index: u64,
    /// Last interval index of the segment (inclusive).
    pub last_index: u64,
    /// Retired-instruction counter at the segment's first interval.
    pub start_instret: u64,
    /// Retired-instruction counter at the segment's last interval.
    pub end_instret: u64,
    /// Mean IPC over the segment's intervals.
    pub mean_ipc: f64,
    /// Mean energy per instruction (nJ) over the segment's intervals.
    pub mean_epi_nj: f64,
    /// Intervals flagged stable within the segment.
    pub stable: u64,
}

impl PhaseSegment {
    /// Number of intervals in the segment.
    pub fn intervals(&self) -> u64 {
        self.last_index - self.first_index + 1
    }
}

/// The temporal scheme's phase behaviour over the whole trace.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PhaseTimeline {
    /// Maximal same-phase segments, in interval order.
    pub segments: Vec<PhaseSegment>,
    /// Total intervals sampled.
    pub intervals: u64,
    /// Intervals flagged stable.
    pub stable_intervals: u64,
}

impl PhaseTimeline {
    /// Number of distinct phase ids observed.
    pub fn distinct_phases(&self) -> usize {
        let mut ids: Vec<u32> = self.segments.iter().map(|s| s.phase).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }
}

/// One hotspot promotion, as recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Promotion {
    /// Promoted method id.
    pub method: u32,
    /// Invocation count at promotion.
    pub invocations: u64,
    /// Retired-instruction counter at promotion.
    pub instret: u64,
}

/// One reconfiguration, as recorded (kept for the Chrome exporter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reconfig {
    /// Which unit resized.
    pub cu: CuId,
    /// Level before.
    pub from: u8,
    /// Level after.
    pub to: u8,
    /// Why.
    pub cause: ReconfigCause,
    /// Cycle counter after the resize.
    pub cycle: u64,
}

/// Stream-wide means of the measured quantities.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Headline {
    /// Mean IPC over `IntervalSample` events (0 when none).
    pub mean_interval_ipc: f64,
    /// Mean EPI (nJ) over `IntervalSample` events (0 when none).
    pub mean_interval_epi_nj: f64,
    /// Mean winning IPC over `TuningConverged` events (0 when none).
    pub mean_converged_ipc: f64,
    /// Mean winning EPI (nJ) over `TuningConverged` events (0 when none).
    pub mean_converged_epi_nj: f64,
    /// Number of interval samples behind the interval means.
    pub interval_samples: u64,
    /// Number of convergences behind the converged means.
    pub convergences: u64,
}

impl Headline {
    /// The trace's representative IPC: the interval mean when the trace
    /// has interval samples (temporal runs), else the converged mean.
    pub fn ipc(&self) -> f64 {
        if self.interval_samples > 0 {
            self.mean_interval_ipc
        } else {
            self.mean_converged_ipc
        }
    }

    /// The trace's representative energy per instruction (nJ), chosen
    /// like [`Headline::ipc`].
    pub fn epi_nj(&self) -> f64 {
        if self.interval_samples > 0 {
            self.mean_interval_epi_nj
        } else {
            self.mean_converged_epi_nj
        }
    }
}

/// Aggregate phase-distance-mapping prediction activity in the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PdmStats {
    /// Predictions adopted directly (`PdmPredictHit`).
    pub hits: u64,
    /// First trials that fell back to the search path (`PdmPredictMiss`).
    pub misses: u64,
    /// Candidate-list trials avoided across all hits.
    pub trials_saved: u64,
}

impl PdmStats {
    /// Total prediction attempts (hits + misses).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of attempts that predicted (0 when the trace has none).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }
}

/// Aggregate warm-start / tuning-store activity in the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WarmStartStats {
    /// Store lookups that matched an entry (`WarmStartHit`).
    pub hits: u64,
    /// Store lookups that found nothing (`WarmStartMiss`).
    pub misses: u64,
    /// Converged configurations published (`StorePublish`).
    pub publishes: u64,
    /// Candidate-list trials avoided across all hits.
    pub trials_saved: u64,
}

impl WarmStartStats {
    /// Total store lookups (hits + misses).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups that hit (0 when the trace has no lookups).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }
}

/// One reconstructed harness span (a `SpanBegin`/`SpanEnd` pair), in
/// close order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSlice {
    /// The span label.
    pub name: String,
    /// Nesting depth at begin time (0 = outermost).
    pub depth: u32,
    /// Retired-instruction counter at begin.
    pub begin_instret: u64,
    /// Cycle counter at begin.
    pub begin_cycle: u64,
    /// Retired-instruction counter at end.
    pub end_instret: u64,
    /// Cycle counter at end.
    pub end_cycle: u64,
    /// Whether the trace ended before the span closed (the end stamps
    /// then repeat the begin stamps).
    pub open: bool,
}

impl SpanSlice {
    /// Instructions the span covered.
    pub fn span_instr(&self) -> u64 {
        self.end_instret.saturating_sub(self.begin_instret)
    }

    /// Cycles the span covered.
    pub fn span_cycles(&self) -> u64 {
        self.end_cycle.saturating_sub(self.begin_cycle)
    }
}

/// The reconstructed view of one recorded run.
#[derive(Debug, Clone, PartialEq)]
pub struct Analysis {
    /// Events seen, per kind (indexed by [`EventKind::index`]).
    pub event_counts: [u64; Event::NUM_KINDS],
    /// Largest retired-instruction stamp in the trace.
    pub final_instret: u64,
    /// Largest cycle stamp in the trace (0 when nothing reconfigured).
    pub final_cycle: u64,
    /// Hotspot promotions, in stream order.
    pub promotions: Vec<Promotion>,
    /// Per-scope episode reconstruction, in [`Scope`] order.
    pub scopes: Vec<ScopeAnalysis>,
    /// Per-CU configuration residency, in [`CuId::ALL`] order.
    pub residency: [CuResidency; MAX_CUS],
    /// Every reconfiguration, in stream order.
    pub reconfigs: Vec<Reconfig>,
    /// The BBV phase timeline.
    pub phases: PhaseTimeline,
    /// Stream-wide measurement means.
    pub headline: Headline,
    /// Warm-start / tuning-store activity.
    pub warm_start: WarmStartStats,
    /// Phase-distance-mapping prediction activity.
    pub pdm: PdmStats,
    /// Completed harness spans, in close order (spans left open at the
    /// end of the trace follow, flagged `open`, in begin order).
    pub spans: Vec<SpanSlice>,
    /// `SpanEnd` events with no matching open span — nonzero means a
    /// truncated or interleaved trace.
    pub span_mismatches: u64,
}

impl Analysis {
    /// Analyzes an in-memory event sequence.
    pub fn of<'a>(events: impl IntoIterator<Item = &'a Event>) -> Analysis {
        let mut analyzer = Analyzer::new();
        for event in events {
            analyzer.push(*event);
        }
        analyzer.finish()
    }

    /// Total events analyzed.
    pub fn total_events(&self) -> u64 {
        self.event_counts.iter().sum()
    }

    /// Events of `kind` analyzed.
    pub fn count(&self, kind: EventKind) -> u64 {
        self.event_counts[kind.index()]
    }

    /// All episodes across all scopes, in scope-then-start order.
    pub fn episodes(&self) -> impl Iterator<Item = &Episode> {
        self.scopes.iter().flat_map(|s| s.episodes.iter())
    }

    /// Episodes with the given outcome.
    pub fn episode_count(&self, outcome: EpisodeOutcome) -> u64 {
        self.episodes().filter(|e| e.outcome == outcome).count() as u64
    }

    /// Drift retunes across all scopes.
    pub fn drift_retunes(&self) -> u64 {
        self.scopes.iter().map(|s| s.drift_retunes).sum()
    }

    /// Mean trials per converged episode (0 when none converged).
    pub fn mean_trials_to_converge(&self) -> f64 {
        let converged: Vec<&Episode> = self
            .episodes()
            .filter(|e| e.outcome == EpisodeOutcome::Converged)
            .collect();
        if converged.is_empty() {
            return 0.0;
        }
        converged.iter().map(|e| e.trials.len() as f64).sum::<f64>() / converged.len() as f64
    }

    /// Mean instruction span per converged episode (0 when none).
    pub fn mean_episode_span_instr(&self) -> f64 {
        let converged: Vec<&Episode> = self
            .episodes()
            .filter(|e| e.outcome == EpisodeOutcome::Converged)
            .collect();
        if converged.is_empty() {
            return 0.0;
        }
        converged.iter().map(|e| e.span_instr() as f64).sum::<f64>() / converged.len() as f64
    }
}

/// Per-scope open-episode state.
struct ScopeState {
    episodes: Vec<Episode>,
    open: Option<Episode>,
    drift_retunes: u64,
}

impl ScopeState {
    fn new() -> ScopeState {
        ScopeState {
            episodes: Vec::new(),
            open: None,
            drift_retunes: 0,
        }
    }

    fn close_open(&mut self, end_instret: u64, outcome: EpisodeOutcome) {
        if let Some(mut episode) = self.open.take() {
            episode.end_instret = end_instret.max(episode.started_instret);
            episode.outcome = outcome;
            self.episodes.push(episode);
        }
    }

    /// The open episode, opening an implicit one (configs = 0) for
    /// orphan steps in truncated traces.
    fn open_or_implicit(&mut self, scope: Scope, instret: u64) -> &mut Episode {
        if self.open.is_none() {
            self.open = Some(Episode {
                scope,
                started_instret: instret,
                configs: 0,
                trials: Vec::new(),
                end_instret: instret,
                outcome: EpisodeOutcome::InProgress,
                converged_ipc: None,
                converged_epi_nj: None,
            });
        }
        self.open.as_mut().expect("just ensured open")
    }
}

/// Per-CU residency accumulator.
struct CuState {
    residency: CuResidency,
    level: u8,
    since_cycle: u64,
    since_instret: u64,
}

impl CuState {
    fn new(cu: CuId) -> CuState {
        CuState {
            residency: CuResidency::new(cu),
            level: 0,
            since_cycle: 0,
            since_instret: 0,
        }
    }

    fn attribute(&mut self, upto_cycle: u64, upto_instret: u64) {
        let slot = &mut self.residency.levels[(self.level as usize).min(NUM_LEVELS - 1)];
        slot.cycles += upto_cycle.saturating_sub(self.since_cycle);
        slot.instret += upto_instret.saturating_sub(self.since_instret);
        self.since_cycle = upto_cycle.max(self.since_cycle);
        self.since_instret = upto_instret.max(self.since_instret);
    }
}

/// In-progress phase-segment accumulator.
struct SegmentState {
    phase: u32,
    first_index: u64,
    last_index: u64,
    start_instret: u64,
    end_instret: u64,
    sum_ipc: f64,
    sum_epi_nj: f64,
    stable: u64,
    count: u64,
}

impl SegmentState {
    fn finish(self) -> PhaseSegment {
        PhaseSegment {
            phase: self.phase,
            first_index: self.first_index,
            last_index: self.last_index,
            start_instret: self.start_instret,
            end_instret: self.end_instret,
            mean_ipc: self.sum_ipc / self.count as f64,
            mean_epi_nj: self.sum_epi_nj / self.count as f64,
            stable: self.stable,
        }
    }
}

/// Streaming trace analyzer: [`Analyzer::push`] events in recording
/// order, then [`Analyzer::finish`].
pub struct Analyzer {
    counts: [u64; Event::NUM_KINDS],
    final_instret: u64,
    final_cycle: u64,
    promotions: Vec<Promotion>,
    scopes: BTreeMap<Scope, ScopeState>,
    cus: [CuState; MAX_CUS],
    reconfigs: Vec<Reconfig>,
    segments: Vec<PhaseSegment>,
    current_segment: Option<SegmentState>,
    intervals: u64,
    stable_intervals: u64,
    sum_interval_ipc: f64,
    sum_interval_epi: f64,
    sum_converged_ipc: f64,
    sum_converged_epi: f64,
    convergences: u64,
    warm_start: WarmStartStats,
    pdm: PdmStats,
    /// Open spans: (name, begin_instret, begin_cycle); depth is the
    /// stack position.
    span_stack: Vec<(String, u64, u64)>,
    spans: Vec<SpanSlice>,
    span_mismatches: u64,
}

impl Default for Analyzer {
    fn default() -> Analyzer {
        Analyzer::new()
    }
}

impl Analyzer {
    /// An analyzer with no events seen yet.
    pub fn new() -> Analyzer {
        Analyzer {
            counts: [0; Event::NUM_KINDS],
            final_instret: 0,
            final_cycle: 0,
            promotions: Vec::new(),
            scopes: BTreeMap::new(),
            cus: CuId::ALL.map(CuState::new),
            reconfigs: Vec::new(),
            segments: Vec::new(),
            current_segment: None,
            intervals: 0,
            stable_intervals: 0,
            sum_interval_ipc: 0.0,
            sum_interval_epi: 0.0,
            sum_converged_ipc: 0.0,
            sum_converged_epi: 0.0,
            convergences: 0,
            warm_start: WarmStartStats::default(),
            pdm: PdmStats::default(),
            span_stack: Vec::new(),
            spans: Vec::new(),
            span_mismatches: 0,
        }
    }

    /// Feeds one event, in recording order.
    pub fn push(&mut self, event: Event) {
        self.counts[event.kind().index()] += 1;
        match event {
            Event::Reconfigured { cycle, .. } => self.final_cycle = self.final_cycle.max(cycle),
            // Span stamps come from the harness layer (a fleet wave's
            // cumulative counters, say), not this run's machine, so they
            // must not stretch the run's counter span or its residency
            // attribution.
            Event::SpanBegin { .. } | Event::SpanEnd { .. } => {}
            other => self.final_instret = self.final_instret.max(other.timestamp()),
        }
        match event {
            Event::HotspotPromoted {
                method,
                invocations,
                instret,
            } => self.promotions.push(Promotion {
                method,
                invocations,
                instret,
            }),
            Event::TuningStarted {
                scope,
                configs,
                instret,
            } => {
                let state = self.scopes.entry(scope).or_insert_with(ScopeState::new);
                // A restart abandons whatever was in flight.
                state.close_open(instret, EpisodeOutcome::Abandoned);
                state.open = Some(Episode {
                    scope,
                    started_instret: instret,
                    configs,
                    trials: Vec::new(),
                    end_instret: instret,
                    outcome: EpisodeOutcome::InProgress,
                    converged_ipc: None,
                    converged_epi_nj: None,
                });
            }
            Event::TuningStep {
                scope,
                trial,
                ipc,
                epi_nj,
                instret,
            } => {
                let state = self.scopes.entry(scope).or_insert_with(ScopeState::new);
                let episode = state.open_or_implicit(scope, instret);
                episode.trials.push(Trial {
                    trial,
                    ipc,
                    epi_nj,
                    instret,
                });
                episode.end_instret = episode.end_instret.max(instret);
            }
            Event::TuningConverged {
                scope,
                trials: _,
                ipc,
                epi_nj,
                instret,
            } => {
                self.sum_converged_ipc += ipc;
                self.sum_converged_epi += epi_nj;
                self.convergences += 1;
                let state = self.scopes.entry(scope).or_insert_with(ScopeState::new);
                let episode = state.open_or_implicit(scope, instret);
                episode.converged_ipc = Some(ipc);
                episode.converged_epi_nj = Some(epi_nj);
                state.close_open(instret, EpisodeOutcome::Converged);
            }
            Event::Reconfigured {
                cu,
                from,
                to,
                cause,
                cycle,
            } => {
                self.reconfigs.push(Reconfig {
                    cu,
                    from,
                    to,
                    cause,
                    cycle,
                });
                let final_instret = self.final_instret;
                let state = &mut self.cus[cu.index()];
                if state.level != from {
                    state.residency.level_mismatches += 1;
                    // Trust the machine's `from` for attribution.
                    state.level = from;
                }
                state.attribute(cycle, final_instret);
                state.level = to;
                state.residency.reconfigs += 1;
                state.residency.by_cause[cause as usize] += 1;
            }
            Event::DriftRetune { scope, instret, .. } => {
                let state = self.scopes.entry(scope).or_insert_with(ScopeState::new);
                state.drift_retunes += 1;
                state.close_open(instret, EpisodeOutcome::Abandoned);
            }
            Event::IntervalSample {
                phase,
                index,
                ipc,
                epi_nj,
                stable,
                instret,
            } => {
                self.intervals += 1;
                self.stable_intervals += u64::from(stable);
                self.sum_interval_ipc += ipc;
                self.sum_interval_epi += epi_nj;
                let continues = self
                    .current_segment
                    .as_ref()
                    .is_some_and(|s| s.phase == phase && index == s.last_index + 1);
                if continues {
                    let seg = self.current_segment.as_mut().expect("continuing segment");
                    seg.last_index = index;
                    seg.end_instret = instret;
                    seg.sum_ipc += ipc;
                    seg.sum_epi_nj += epi_nj;
                    seg.stable += u64::from(stable);
                    seg.count += 1;
                } else {
                    if let Some(done) = self.current_segment.take() {
                        self.segments.push(done.finish());
                    }
                    self.current_segment = Some(SegmentState {
                        phase,
                        first_index: index,
                        last_index: index,
                        start_instret: instret,
                        end_instret: instret,
                        sum_ipc: ipc,
                        sum_epi_nj: epi_nj,
                        stable: u64::from(stable),
                        count: 1,
                    });
                }
            }
            Event::WarmStartHit { trials_saved, .. } => {
                self.warm_start.hits += 1;
                self.warm_start.trials_saved += u64::from(trials_saved);
            }
            Event::WarmStartMiss { .. } => self.warm_start.misses += 1,
            Event::StorePublish { .. } => self.warm_start.publishes += 1,
            Event::PdmPredictHit { trials_saved, .. } => {
                self.pdm.hits += 1;
                self.pdm.trials_saved += u64::from(trials_saved);
            }
            Event::PdmPredictMiss { .. } => self.pdm.misses += 1,
            Event::SpanBegin {
                name,
                instret,
                cycle,
            } => {
                self.span_stack
                    .push((name.as_str().to_string(), instret, cycle));
            }
            Event::SpanEnd {
                name,
                instret,
                cycle,
            } => {
                // Close the innermost open span with this name; an end
                // with no matching begin is counted, not fatal.
                let wanted = name.as_str();
                match self.span_stack.iter().rposition(|(n, _, _)| n == wanted) {
                    Some(pos) => {
                        let (span_name, begin_instret, begin_cycle) = self.span_stack.remove(pos);
                        self.spans.push(SpanSlice {
                            name: span_name,
                            depth: pos as u32,
                            begin_instret,
                            begin_cycle,
                            end_instret: instret.max(begin_instret),
                            end_cycle: cycle.max(begin_cycle),
                            open: false,
                        });
                    }
                    None => self.span_mismatches += 1,
                }
            }
        }
    }

    /// Closes open state and returns the finished [`Analysis`].
    pub fn finish(mut self) -> Analysis {
        if let Some(done) = self.current_segment.take() {
            self.segments.push(done.finish());
        }
        let final_instret = self.final_instret;
        let final_cycle = self.final_cycle;
        let scopes = self
            .scopes
            .into_iter()
            .map(|(scope, mut state)| {
                state.close_open(final_instret, EpisodeOutcome::InProgress);
                ScopeAnalysis {
                    scope,
                    episodes: state.episodes,
                    drift_retunes: state.drift_retunes,
                }
            })
            .collect();
        let residency = self.cus.map(|mut state| {
            state.attribute(final_cycle, final_instret);
            state.residency
        });
        // Spans still open when the trace ends are reported as
        // zero-progress slices, flagged `open`, in begin order.
        let mut spans = self.spans;
        for (depth, (name, begin_instret, begin_cycle)) in self.span_stack.into_iter().enumerate() {
            spans.push(SpanSlice {
                name,
                depth: depth as u32,
                begin_instret,
                begin_cycle,
                end_instret: begin_instret,
                end_cycle: begin_cycle,
                open: true,
            });
        }
        let headline = Headline {
            mean_interval_ipc: mean(self.sum_interval_ipc, self.intervals),
            mean_interval_epi_nj: mean(self.sum_interval_epi, self.intervals),
            mean_converged_ipc: mean(self.sum_converged_ipc, self.convergences),
            mean_converged_epi_nj: mean(self.sum_converged_epi, self.convergences),
            interval_samples: self.intervals,
            convergences: self.convergences,
        };
        Analysis {
            event_counts: self.counts,
            final_instret,
            final_cycle,
            promotions: self.promotions,
            scopes,
            residency,
            reconfigs: self.reconfigs,
            phases: PhaseTimeline {
                segments: self.segments,
                intervals: self.intervals,
                stable_intervals: self.stable_intervals,
            },
            headline,
            warm_start: self.warm_start,
            pdm: self.pdm,
            spans,
            span_mismatches: self.span_mismatches,
        }
    }
}

fn mean(sum: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hs(method: u32) -> Scope {
        Scope::Hotspot { method }
    }

    /// A canonical lifecycle: promote, tune over three trials, converge,
    /// apply, drift, retune, trace ends mid-episode.
    fn lifecycle() -> Vec<Event> {
        vec![
            Event::HotspotPromoted {
                method: 3,
                invocations: 10,
                instret: 100,
            },
            Event::TuningStarted {
                scope: hs(3),
                configs: 3,
                instret: 120,
            },
            Event::TuningStep {
                scope: hs(3),
                trial: 0,
                ipc: 1.0,
                epi_nj: 0.5,
                instret: 200,
            },
            Event::Reconfigured {
                cu: CuId::L1d,
                from: 0,
                to: 1,
                cause: ReconfigCause::Trial,
                cycle: 250,
            },
            Event::TuningStep {
                scope: hs(3),
                trial: 1,
                ipc: 1.2,
                epi_nj: 0.4,
                instret: 300,
            },
            Event::Reconfigured {
                cu: CuId::L1d,
                from: 1,
                to: 2,
                cause: ReconfigCause::Trial,
                cycle: 350,
            },
            Event::TuningStep {
                scope: hs(3),
                trial: 2,
                ipc: 0.9,
                epi_nj: 0.6,
                instret: 400,
            },
            Event::TuningConverged {
                scope: hs(3),
                trials: 3,
                ipc: 1.2,
                epi_nj: 0.4,
                instret: 420,
            },
            Event::Reconfigured {
                cu: CuId::L1d,
                from: 2,
                to: 1,
                cause: ReconfigCause::Apply,
                cycle: 500,
            },
            Event::DriftRetune {
                scope: hs(3),
                drift: 0.3,
                instret: 900,
            },
            Event::TuningStarted {
                scope: hs(3),
                configs: 3,
                instret: 950,
            },
            Event::TuningStep {
                scope: hs(3),
                trial: 0,
                ipc: 1.1,
                epi_nj: 0.45,
                instret: 1000,
            },
        ]
    }

    #[test]
    fn reconstructs_the_episode_lifecycle() {
        let analysis = Analysis::of(&lifecycle());
        assert_eq!(analysis.scopes.len(), 1);
        let scope = &analysis.scopes[0];
        assert_eq!(scope.scope, hs(3));
        assert_eq!(scope.drift_retunes, 1);
        assert_eq!(scope.episodes.len(), 2);

        let first = &scope.episodes[0];
        assert_eq!(first.outcome, EpisodeOutcome::Converged);
        assert_eq!(first.trials.len(), 3);
        assert_eq!(first.started_instret, 120);
        assert_eq!(first.end_instret, 420);
        assert_eq!(first.converged_ipc, Some(1.2));

        let second = &scope.episodes[1];
        assert_eq!(second.outcome, EpisodeOutcome::InProgress);
        assert_eq!(second.trials.len(), 1);
        assert_eq!(second.end_instret, 1000, "closed at end of trace");

        assert_eq!(analysis.promotions.len(), 1);
        assert_eq!(analysis.episode_count(EpisodeOutcome::Converged), 1);
        assert_eq!(analysis.mean_trials_to_converge(), 3.0);
        assert_eq!(analysis.final_instret, 1000);
        assert_eq!(analysis.final_cycle, 500);
    }

    #[test]
    fn residency_attributes_cycles_per_level() {
        let analysis = Analysis::of(&lifecycle());
        let l1d = &analysis.residency[CuId::L1d.index()];
        assert_eq!(l1d.reconfigs, 3);
        assert_eq!(l1d.by_cause, [2, 1, 0]);
        assert_eq!(l1d.level_mismatches, 0);
        // Level 0 from cycle 0..250, level 1 from 250..350, level 2 from
        // 350..500, then level 1 from 500..final_cycle(500) = 0.
        assert_eq!(l1d.levels[0].cycles, 250);
        assert_eq!(l1d.levels[1].cycles, 100);
        assert_eq!(l1d.levels[2].cycles, 150);
        assert_eq!(l1d.levels[3].cycles, 0);
        assert_eq!(l1d.total_cycles(), 500);
        // Untouched CUs spend the whole trace at level 0.
        let l2 = &analysis.residency[CuId::L2.index()];
        assert_eq!(l2.reconfigs, 0);
        assert_eq!(l2.levels[0].cycles, 500);
    }

    #[test]
    fn restart_without_convergence_abandons() {
        let events = vec![
            Event::TuningStarted {
                scope: hs(1),
                configs: 4,
                instret: 10,
            },
            Event::TuningStarted {
                scope: hs(1),
                configs: 4,
                instret: 50,
            },
            Event::TuningConverged {
                scope: hs(1),
                trials: 4,
                ipc: 1.0,
                epi_nj: 0.3,
                instret: 90,
            },
        ];
        let analysis = Analysis::of(&events);
        let episodes = &analysis.scopes[0].episodes;
        assert_eq!(episodes.len(), 2);
        assert_eq!(episodes[0].outcome, EpisodeOutcome::Abandoned);
        assert_eq!(episodes[0].end_instret, 50);
        assert_eq!(episodes[1].outcome, EpisodeOutcome::Converged);
    }

    #[test]
    fn phase_segments_split_on_phase_change_and_gaps() {
        let sample = |phase, index, stable, instret| Event::IntervalSample {
            phase,
            index,
            ipc: 2.0,
            epi_nj: 0.5,
            stable,
            instret,
        };
        let events = vec![
            sample(0, 0, false, 100),
            sample(0, 1, true, 200),
            sample(1, 2, false, 300),
            sample(1, 3, true, 400),
            sample(1, 4, true, 500),
            // Index gap: same phase but a new segment.
            sample(1, 6, false, 700),
        ];
        let analysis = Analysis::of(&events);
        let t = &analysis.phases;
        assert_eq!(t.intervals, 6);
        assert_eq!(t.stable_intervals, 3);
        assert_eq!(t.segments.len(), 3);
        assert_eq!(t.segments[0].intervals(), 2);
        assert_eq!(t.segments[1].intervals(), 3);
        assert_eq!(t.segments[1].stable, 2);
        assert_eq!(t.segments[2].first_index, 6);
        assert_eq!(t.distinct_phases(), 2);
        assert_eq!(analysis.headline.mean_interval_ipc, 2.0);
    }

    #[test]
    fn orphan_steps_open_an_implicit_episode() {
        let events = vec![Event::TuningStep {
            scope: hs(9),
            trial: 2,
            ipc: 1.5,
            epi_nj: 0.2,
            instret: 40,
        }];
        let analysis = Analysis::of(&events);
        let ep = &analysis.scopes[0].episodes[0];
        assert_eq!(ep.configs, 0, "implicit episode has no announced configs");
        assert_eq!(ep.outcome, EpisodeOutcome::InProgress);
        assert_eq!(ep.trials.len(), 1);
    }

    #[test]
    fn level_mismatch_is_counted_not_fatal() {
        let events = vec![Event::Reconfigured {
            cu: CuId::L2,
            from: 2, // analyzer thinks level 0
            to: 3,
            cause: ReconfigCause::Trial,
            cycle: 100,
        }];
        let analysis = Analysis::of(&events);
        let l2 = &analysis.residency[CuId::L2.index()];
        assert_eq!(l2.level_mismatches, 1);
        // Attribution trusts the recorded `from` level.
        assert_eq!(l2.levels[2].cycles, 100);
    }

    #[test]
    fn spans_nest_by_begin_end_pairing() {
        use ace_telemetry::SpanName;
        let events = vec![
            Event::SpanBegin {
                name: SpanName::new("pass"),
                instret: 0,
                cycle: 0,
            },
            Event::SpanBegin {
                name: SpanName::new("wave"),
                instret: 100,
                cycle: 200,
            },
            Event::SpanEnd {
                name: SpanName::new("wave"),
                instret: 500,
                cycle: 900,
            },
            Event::SpanBegin {
                name: SpanName::new("wave"),
                instret: 500,
                cycle: 900,
            },
            // `pass` and the second `wave` stay open at end of trace.
        ];
        let analysis = Analysis::of(&events);
        assert_eq!(analysis.spans.len(), 3);
        let closed = &analysis.spans[0];
        assert_eq!(closed.name, "wave");
        assert_eq!(closed.depth, 1);
        assert_eq!((closed.begin_instret, closed.end_instret), (100, 500));
        assert_eq!(closed.span_cycles(), 700);
        assert!(!closed.open);
        assert!(analysis.spans[1..].iter().all(|s| s.open));
        assert_eq!(analysis.spans[1].name, "pass");
        assert_eq!(analysis.span_mismatches, 0);
        // Span stamps never stretch the run's counter span.
        assert_eq!(analysis.final_instret, 0);
        assert_eq!(analysis.final_cycle, 0);

        let orphan = Analysis::of(&[Event::SpanEnd {
            name: SpanName::new("nope"),
            instret: 1,
            cycle: 2,
        }]);
        assert_eq!(orphan.span_mismatches, 1);
        assert!(orphan.spans.is_empty());
    }

    #[test]
    fn empty_trace_analyzes_to_zeroes() {
        let analysis = Analysis::of(&[]);
        assert_eq!(analysis.total_events(), 0);
        assert_eq!(analysis.scopes.len(), 0);
        assert_eq!(analysis.headline.ipc(), 0.0);
        assert_eq!(analysis.phases.segments.len(), 0);
        assert_eq!(analysis.residency[0].total_cycles(), 0);
    }
}
