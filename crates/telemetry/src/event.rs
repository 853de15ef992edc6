//! Typed decision events emitted by the adaptive managers.
//!
//! Every event is `Copy` and carries only architectural counters
//! (`instret`, `cycle`) rather than wall-clock timestamps, so two runs with
//! identical seeds produce byte-identical event streams. That determinism
//! is load-bearing: the regression tests diff whole streams.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Maximum bytes a [`SpanName`] stores inline.
pub const SPAN_NAME_CAP: usize = 24;

/// Fixed-capacity inline span label.
///
/// [`Event`] stays `Copy` (sinks and the engine's replay copy events by
/// value), so span names cannot be heap strings. A `SpanName` holds up to
/// [`SPAN_NAME_CAP`] UTF-8 bytes inline, truncating longer inputs at a
/// character boundary. It serializes as a plain JSON string, so the JSONL
/// encoding reads naturally and longer names survive a decode round-trip
/// in their truncated form.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanName {
    len: u8,
    bytes: [u8; SPAN_NAME_CAP],
}

impl SpanName {
    /// Builds a span name from `s`, truncating past [`SPAN_NAME_CAP`]
    /// bytes at the nearest UTF-8 character boundary.
    pub fn new(s: &str) -> SpanName {
        let mut len = s.len().min(SPAN_NAME_CAP);
        while !s.is_char_boundary(len) {
            len -= 1;
        }
        let mut bytes = [0u8; SPAN_NAME_CAP];
        bytes[..len].copy_from_slice(&s.as_bytes()[..len]);
        SpanName {
            len: len as u8,
            bytes,
        }
    }

    /// The stored label.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.bytes[..self.len as usize])
            .expect("SpanName invariant: stored bytes are valid UTF-8")
    }
}

impl fmt::Debug for SpanName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SpanName({:?})", self.as_str())
    }
}

impl fmt::Display for SpanName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for SpanName {
    fn from(s: &str) -> SpanName {
        SpanName::new(s)
    }
}

impl Serialize for SpanName {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.as_str().to_string())
    }
}

impl Deserialize for SpanName {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v {
            serde::Value::Str(s) => Ok(SpanName::new(s)),
            _ => Err(serde::Error::custom("expected span-name string")),
        }
    }
}

/// A configurable unit of the modeled machine: the open
/// [`ace_sim::CuId`] index, so events name whatever unit a machine
/// registered. The JSONL encoding of the historical units is unchanged
/// (committed trace fixtures pin it).
pub use ace_sim::CuId;

/// The program region a tuning episode is attached to, one variant per
/// adaptation scheme.
///
/// The `Ord` impl (declaration order, then id) gives downstream analyses
/// a deterministic per-scope iteration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Scope {
    /// A promoted hotspot method (the paper's DO-driven scheme).
    Hotspot {
        /// Method id of the hotspot.
        method: u32,
    },
    /// A BBV phase (the temporal baseline).
    Phase {
        /// Phase id assigned by the BBV classifier.
        phase: u32,
    },
    /// A large procedure (the positional baseline).
    Procedure {
        /// Method id of the procedure.
        method: u32,
    },
}

impl Scope {
    /// Compact stable label (`hotspot:3`, `phase:0`, `proc:7`), used by
    /// trace summaries and the Chrome exporter's track names.
    pub fn label(self) -> String {
        match self {
            Scope::Hotspot { method } => format!("hotspot:{method}"),
            Scope::Phase { phase } => format!("phase:{phase}"),
            Scope::Procedure { method } => format!("proc:{method}"),
        }
    }
}

/// Why a reconfiguration request was issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ReconfigCause {
    /// Switching to the next trial configuration of a tuning episode.
    Trial,
    /// Applying a converged best configuration.
    Apply,
    /// Resetting to the baseline (e.g. after a misattributed interval).
    Reset,
}

impl ReconfigCause {
    /// Short lowercase name used in summaries.
    pub fn name(self) -> &'static str {
        match self {
            ReconfigCause::Trial => "trial",
            ReconfigCause::Apply => "apply",
            ReconfigCause::Reset => "reset",
        }
    }
}

/// One decision made by the DO system or an ACE manager.
///
/// Variants are ordered roughly by lifecycle: a method is promoted, a
/// tuning episode starts, steps through trials, converges, and the chosen
/// configuration is applied (emitting [`Event::Reconfigured`]); drift may
/// later trigger a retune. [`Event::IntervalSample`] is the temporal
/// scheme's per-interval heartbeat.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// The DO system promoted a method to hotspot status.
    HotspotPromoted {
        /// Promoted method id.
        method: u32,
        /// Invocation count at promotion time.
        invocations: u64,
        /// Retired-instruction counter at promotion time.
        instret: u64,
    },
    /// A tuning episode began for a scope.
    TuningStarted {
        /// What is being tuned.
        scope: Scope,
        /// Number of candidate configurations the episode will try.
        configs: u32,
        /// Retired-instruction counter when the episode began.
        instret: u64,
    },
    /// One trial configuration of a tuning episode was measured.
    TuningStep {
        /// What is being tuned.
        scope: Scope,
        /// Zero-based index of the trial that was just measured.
        trial: u32,
        /// Measured instructions per cycle under the trial configuration.
        ipc: f64,
        /// Measured energy per instruction (nanojoules) under the trial.
        epi_nj: f64,
        /// Retired-instruction counter when the measurement completed.
        instret: u64,
    },
    /// A tuning episode finished and picked its best configuration.
    TuningConverged {
        /// What was tuned.
        scope: Scope,
        /// Number of trials the episode measured.
        trials: u32,
        /// IPC of the winning configuration.
        ipc: f64,
        /// Energy per instruction (nanojoules) of the winning configuration.
        epi_nj: f64,
        /// Retired-instruction counter at convergence.
        instret: u64,
    },
    /// A CU actually changed size.
    Reconfigured {
        /// Which configurable unit resized.
        cu: CuId,
        /// Size-level index before the resize (0 = largest).
        from: u8,
        /// Size-level index after the resize.
        to: u8,
        /// Why the request was issued.
        cause: ReconfigCause,
        /// Cycle counter after the resize (includes the flush penalty).
        cycle: u64,
    },
    /// Behaviour drifted past the retune threshold; the scope's tuning
    /// state was discarded and a fresh episode scheduled.
    DriftRetune {
        /// The scope being retuned.
        scope: Scope,
        /// Relative IPC drift that tripped the threshold.
        drift: f64,
        /// Retired-instruction counter at the decision.
        instret: u64,
    },
    /// One fixed-length interval of the temporal (BBV) scheme.
    IntervalSample {
        /// Phase id the interval was classified into.
        phase: u32,
        /// Zero-based interval index within the run.
        index: u64,
        /// Measured IPC over the interval.
        ipc: f64,
        /// Measured energy per instruction (nanojoules) over the interval.
        epi_nj: f64,
        /// Whether the interval continued the previous phase.
        stable: bool,
        /// Retired-instruction counter at the interval boundary.
        instret: u64,
    },
    /// A hotspot's signature matched a shared tuning-store entry, so its
    /// tuning episode was warm-started from the stored configuration
    /// instead of walking the candidate list.
    WarmStartHit {
        /// The scope that was warm-started.
        scope: Scope,
        /// Packed hotspot signature key the store matched on.
        signature: u64,
        /// Candidate-list trials the warm start avoided.
        trials_saved: u32,
        /// Retired-instruction counter at the lookup.
        instret: u64,
    },
    /// A hotspot consulted the shared tuning store and found no entry for
    /// its signature; tuning proceeds cold.
    WarmStartMiss {
        /// The scope that fell back to cold tuning.
        scope: Scope,
        /// Packed hotspot signature key that was looked up.
        signature: u64,
        /// Retired-instruction counter at the lookup.
        instret: u64,
    },
    /// A converged configuration was published to the shared tuning store
    /// under its hotspot signature.
    StorePublish {
        /// The scope whose convergence is being published.
        scope: Scope,
        /// Packed hotspot signature key the entry is stored under.
        signature: u64,
        /// Energy per instruction (nanojoules) of the published entry.
        epi_nj: f64,
        /// Retired-instruction counter at the publish.
        instret: u64,
    },
    /// Phase Distance Mapping matched a scope's behavioral vector against
    /// an already-tuned phase within the distance threshold, so the tuned
    /// configuration was adopted directly instead of searching.
    PdmPredictHit {
        /// The scope whose configuration was predicted.
        scope: Scope,
        /// Normalized behavioral distance to the matched phase.
        distance: f64,
        /// Candidate-list trials the prediction avoided.
        trials_saved: u32,
        /// Retired-instruction counter at the prediction.
        instret: u64,
    },
    /// Phase Distance Mapping found no tuned phase within the distance
    /// threshold; tuning falls back to the configuration search.
    PdmPredictMiss {
        /// The scope that fell back to the search path.
        scope: Scope,
        /// Distance to the nearest tuned phase, or `-1.0` when no tuned
        /// phase with a comparable CU set exists yet.
        distance: f64,
        /// Retired-instruction counter at the decision.
        instret: u64,
    },
    /// A named harness span opened (see `Telemetry::span`). Spans nest by
    /// begin/end pairing, like Chrome trace `B`/`E` events; the matching
    /// wall-clock duration goes to the metrics registry only, never into
    /// the event stream.
    SpanBegin {
        /// Span label (e.g. `wave` for fleet waves, `drive` for runs).
        name: SpanName,
        /// Cumulative retired instructions at entry (0 when the caller
        /// has no architectural counter in scope).
        instret: u64,
        /// Cumulative cycles at entry (0 when unavailable).
        cycle: u64,
    },
    /// The matching close of a [`Event::SpanBegin`] with the same name.
    SpanEnd {
        /// Span label, equal to the begin event's.
        name: SpanName,
        /// Cumulative retired instructions at exit.
        instret: u64,
        /// Cumulative cycles at exit.
        cycle: u64,
    },
}

/// Discriminant-only view of [`Event`], used for per-kind counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// [`Event::HotspotPromoted`]
    HotspotPromoted,
    /// [`Event::TuningStarted`]
    TuningStarted,
    /// [`Event::TuningStep`]
    TuningStep,
    /// [`Event::TuningConverged`]
    TuningConverged,
    /// [`Event::Reconfigured`]
    Reconfigured,
    /// [`Event::DriftRetune`]
    DriftRetune,
    /// [`Event::IntervalSample`]
    IntervalSample,
    /// [`Event::WarmStartHit`]
    WarmStartHit,
    /// [`Event::WarmStartMiss`]
    WarmStartMiss,
    /// [`Event::StorePublish`]
    StorePublish,
    /// [`Event::PdmPredictHit`]
    PdmPredictHit,
    /// [`Event::PdmPredictMiss`]
    PdmPredictMiss,
    /// [`Event::SpanBegin`]
    SpanBegin,
    /// [`Event::SpanEnd`]
    SpanEnd,
}

impl EventKind {
    /// All kinds, in declaration order (matches [`EventKind::index`]).
    pub const ALL: [EventKind; Event::NUM_KINDS] = [
        EventKind::HotspotPromoted,
        EventKind::TuningStarted,
        EventKind::TuningStep,
        EventKind::TuningConverged,
        EventKind::Reconfigured,
        EventKind::DriftRetune,
        EventKind::IntervalSample,
        EventKind::WarmStartHit,
        EventKind::WarmStartMiss,
        EventKind::StorePublish,
        EventKind::PdmPredictHit,
        EventKind::PdmPredictMiss,
        EventKind::SpanBegin,
        EventKind::SpanEnd,
    ];

    /// Stable index in `0..Event::NUM_KINDS`.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The variant name as it appears in the JSONL encoding.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::HotspotPromoted => "HotspotPromoted",
            EventKind::TuningStarted => "TuningStarted",
            EventKind::TuningStep => "TuningStep",
            EventKind::TuningConverged => "TuningConverged",
            EventKind::Reconfigured => "Reconfigured",
            EventKind::DriftRetune => "DriftRetune",
            EventKind::IntervalSample => "IntervalSample",
            EventKind::WarmStartHit => "WarmStartHit",
            EventKind::WarmStartMiss => "WarmStartMiss",
            EventKind::StorePublish => "StorePublish",
            EventKind::PdmPredictHit => "PdmPredictHit",
            EventKind::PdmPredictMiss => "PdmPredictMiss",
            EventKind::SpanBegin => "SpanBegin",
            EventKind::SpanEnd => "SpanEnd",
        }
    }

    /// Inverse of [`EventKind::name`]: resolves a JSONL variant name.
    pub fn from_name(name: &str) -> Option<EventKind> {
        EventKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

impl Event {
    /// Number of event kinds (length of per-kind counter arrays).
    pub const NUM_KINDS: usize = 14;

    /// The discriminant of this event.
    pub fn kind(&self) -> EventKind {
        match self {
            Event::HotspotPromoted { .. } => EventKind::HotspotPromoted,
            Event::TuningStarted { .. } => EventKind::TuningStarted,
            Event::TuningStep { .. } => EventKind::TuningStep,
            Event::TuningConverged { .. } => EventKind::TuningConverged,
            Event::Reconfigured { .. } => EventKind::Reconfigured,
            Event::DriftRetune { .. } => EventKind::DriftRetune,
            Event::IntervalSample { .. } => EventKind::IntervalSample,
            Event::WarmStartHit { .. } => EventKind::WarmStartHit,
            Event::WarmStartMiss { .. } => EventKind::WarmStartMiss,
            Event::StorePublish { .. } => EventKind::StorePublish,
            Event::PdmPredictHit { .. } => EventKind::PdmPredictHit,
            Event::PdmPredictMiss { .. } => EventKind::PdmPredictMiss,
            Event::SpanBegin { .. } => EventKind::SpanBegin,
            Event::SpanEnd { .. } => EventKind::SpanEnd,
        }
    }

    /// The retired-instruction or cycle counter the event is stamped with,
    /// used to order mixed streams in the timeline example.
    pub fn timestamp(&self) -> u64 {
        match *self {
            Event::HotspotPromoted { instret, .. }
            | Event::TuningStarted { instret, .. }
            | Event::TuningStep { instret, .. }
            | Event::TuningConverged { instret, .. }
            | Event::DriftRetune { instret, .. }
            | Event::IntervalSample { instret, .. }
            | Event::WarmStartHit { instret, .. }
            | Event::WarmStartMiss { instret, .. }
            | Event::StorePublish { instret, .. }
            | Event::PdmPredictHit { instret, .. }
            | Event::PdmPredictMiss { instret, .. }
            | Event::SpanBegin { instret, .. }
            | Event::SpanEnd { instret, .. } => instret,
            Event::Reconfigured { cycle, .. } => cycle,
        }
    }

    /// The tuning scope the event is attached to, for the scope-carrying
    /// variants ([`Event::IntervalSample`] maps to its [`Scope::Phase`]).
    pub fn scope(&self) -> Option<Scope> {
        match *self {
            Event::TuningStarted { scope, .. }
            | Event::TuningStep { scope, .. }
            | Event::TuningConverged { scope, .. }
            | Event::DriftRetune { scope, .. }
            | Event::WarmStartHit { scope, .. }
            | Event::WarmStartMiss { scope, .. }
            | Event::StorePublish { scope, .. }
            | Event::PdmPredictHit { scope, .. }
            | Event::PdmPredictMiss { scope, .. } => Some(scope),
            Event::IntervalSample { phase, .. } => Some(Scope::Phase { phase }),
            Event::HotspotPromoted { .. }
            | Event::Reconfigured { .. }
            | Event::SpanBegin { .. }
            | Event::SpanEnd { .. } => None,
        }
    }

    /// The measured IPC the event carries, when it carries one.
    pub fn ipc(&self) -> Option<f64> {
        match *self {
            Event::TuningStep { ipc, .. }
            | Event::TuningConverged { ipc, .. }
            | Event::IntervalSample { ipc, .. } => Some(ipc),
            _ => None,
        }
    }

    /// The measured energy per instruction (nJ) the event carries, when it
    /// carries one.
    pub fn epi_nj(&self) -> Option<f64> {
        match *self {
            Event::TuningStep { epi_nj, .. }
            | Event::TuningConverged { epi_nj, .. }
            | Event::IntervalSample { epi_nj, .. }
            | Event::StorePublish { epi_nj, .. } => Some(epi_nj),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_indices_match_all_order() {
        for (i, kind) in EventKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i);
        }
    }

    #[test]
    fn events_report_their_kind() {
        let ev = Event::Reconfigured {
            cu: CuId::L1d,
            from: 0,
            to: 2,
            cause: ReconfigCause::Apply,
            cycle: 123,
        };
        assert_eq!(ev.kind(), EventKind::Reconfigured);
        assert_eq!(ev.kind().name(), "Reconfigured");
        assert_eq!(ev.timestamp(), 123);
    }

    #[test]
    fn span_name_truncates_at_char_boundary() {
        assert_eq!(SpanName::new("wave").as_str(), "wave");
        let long = "x".repeat(SPAN_NAME_CAP + 10);
        assert_eq!(SpanName::new(&long).as_str().len(), SPAN_NAME_CAP);
        // A multi-byte char straddling the cap is dropped, not split.
        let mut tricky = "y".repeat(SPAN_NAME_CAP - 1);
        tricky.push('é'); // two bytes; byte SPAN_NAME_CAP is mid-char
        assert_eq!(
            SpanName::new(&tricky).as_str(),
            "y".repeat(SPAN_NAME_CAP - 1)
        );
    }

    #[test]
    fn span_events_have_kinds_and_timestamps() {
        let begin = Event::SpanBegin {
            name: SpanName::new("wave"),
            instret: 10,
            cycle: 20,
        };
        let end = Event::SpanEnd {
            name: SpanName::new("wave"),
            instret: 30,
            cycle: 60,
        };
        assert_eq!(begin.kind(), EventKind::SpanBegin);
        assert_eq!(end.kind(), EventKind::SpanEnd);
        assert_eq!(begin.timestamp(), 10);
        assert_eq!(end.timestamp(), 30);
        assert_eq!(begin.scope(), None);
        assert_eq!(begin.ipc(), None);
    }
}
