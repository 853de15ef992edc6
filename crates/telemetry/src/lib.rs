//! # ace-telemetry — observability for the ACE reproduction
//!
//! Decision-event log, metrics registry, and scoped timers for the
//! adaptive managers in `ace-core` and the DO system in `ace-runtime`.
//! The design goal is **zero overhead when off**: a disabled
//! [`Telemetry`] handle is a `None` (one word), [`Telemetry::emit`] takes
//! a closure so disabled call sites never even construct the [`Event`],
//! and the whole emission path inlines away.
//!
//! Three pieces:
//!
//! | piece | type | use |
//! |---|---|---|
//! | event log | [`Event`] + [`Sink`] | what/why/when of every adaptation decision |
//! | metrics | [`Metrics`] | counters, gauges, fixed-bucket histograms |
//! | timers | [`ScopedTimer`] | wall-clock profiling of harness phases |
//!
//! Events carry only architectural counters (`instret`, `cycle`), never
//! wall-clock time, so identically seeded runs emit byte-identical
//! streams. Wall-clock time lives exclusively in the metrics registry.
//!
//! ## Example
//!
//! ```
//! use ace_telemetry::{CuId, Event, ReconfigCause, Telemetry};
//!
//! // Capture every event in memory.
//! let (tel, buffer) = Telemetry::buffered();
//! tel.emit(|| Event::Reconfigured {
//!     cu: CuId::L1d,
//!     from: 0,
//!     to: 2,
//!     cause: ReconfigCause::Apply,
//!     cycle: 12_345,
//! });
//! tel.metrics().unwrap().counter("demo").inc();
//! assert_eq!(buffer.snapshot().len(), 1);
//!
//! // A disabled handle costs one branch; the closure never runs.
//! let off = Telemetry::off();
//! off.emit(|| unreachable!("not constructed when telemetry is off"));
//! ```
//!
//! To trace a real run, put a handle in `ace_core::RunConfig::telemetry`
//! (see the repository README's *Observability* section and
//! `examples/telemetry_trace.rs`), or pass `--telemetry <path>` to the
//! bench binaries for a JSONL file.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod metrics;
mod sink;
mod snapshot;
mod stream;

pub use ace_sim::MAX_CUS;
pub use event::{CuId, Event, EventKind, ReconfigCause, Scope, SpanName, SPAN_NAME_CAP};
pub use metrics::{Counter, Gauge, Histogram, Metrics, ScopedTimer};
pub use sink::{JsonlSink, MemorySink, NullSink, Sink};
pub use snapshot::{
    read_obs_jsonl, write_obs_jsonl, HistogramSnapshot, MetricsSnapshot, ObsRecord,
};
pub use stream::{read_events, EventStream, StreamError};

use std::fmt;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

struct Inner {
    sink: Box<dyn Sink>,
    metrics: Metrics,
    counts: [AtomicU64; Event::NUM_KINDS],
}

/// Cheap-to-clone handle threaded through the run drivers and managers.
///
/// Internally an `Option<Arc<_>>`: disabled handles ([`Telemetry::off`],
/// also the `Default`) are a single `None` word and make every
/// [`Telemetry::emit`] a predictable not-taken branch. Enabled handles
/// share one sink, one [`Metrics`] registry, and per-kind event counts
/// across all clones.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Telemetry {
    /// The disabled handle. Emission is a no-op; the event closure is
    /// never called.
    pub fn off() -> Telemetry {
        Telemetry { inner: None }
    }

    /// Enables telemetry with an arbitrary sink.
    pub fn new(sink: impl Sink + 'static) -> Telemetry {
        Telemetry {
            inner: Some(Arc::new(Inner {
                sink: Box::new(sink),
                metrics: Metrics::default(),
                counts: std::array::from_fn(|_| AtomicU64::new(0)),
            })),
        }
    }

    /// Enables telemetry with a [`NullSink`]: events are counted and
    /// metrics collected, but nothing is stored or written.
    pub fn counting() -> Telemetry {
        Telemetry::new(NullSink)
    }

    /// Enables telemetry writing JSONL to `path` (truncated on open).
    pub fn jsonl(path: impl AsRef<Path>) -> io::Result<Telemetry> {
        Ok(Telemetry::new(JsonlSink::create(path)?))
    }

    /// Enables telemetry buffering every event in memory; returns the sink
    /// too so the caller can [`MemorySink::drain`] the events later.
    ///
    /// Tests and examples inspect a run's events this way. It is also the
    /// per-job handle of the parallel experiment engine: each job records
    /// into its own buffer, and the parent absorbs the buffers in
    /// deterministic job order via [`Telemetry::absorb_child`].
    pub fn buffered() -> (Telemetry, Arc<MemorySink>) {
        let sink = Arc::new(MemorySink::new());
        (Telemetry::new(Arc::clone(&sink)), sink)
    }

    /// Replays `events` into this handle's sink and counts, then folds the
    /// child's metrics registry into this one. No-op when disabled.
    ///
    /// Calling this once per job, in the same order a serial run would
    /// have executed the jobs, reproduces the serial event stream and
    /// metric totals exactly (wall-clock timer samples aside).
    pub fn absorb_child(&self, child: &Telemetry, events: &[Event]) {
        if !self.is_enabled() {
            return;
        }
        for event in events {
            self.emit(|| *event);
        }
        if let (Some(mine), Some(theirs)) = (self.metrics(), child.metrics()) {
            mine.absorb(theirs);
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records the event produced by `f`, if enabled.
    ///
    /// The closure runs only when telemetry is on, so call sites may
    /// compute event fields (e.g. read machine counters) inside it
    /// without penalising disabled runs.
    #[inline]
    pub fn emit(&self, f: impl FnOnce() -> Event) {
        if let Some(inner) = &self.inner {
            let event = f();
            inner.counts[event.kind().index()].fetch_add(1, Ordering::Relaxed);
            inner.sink.record(&event);
        }
    }

    /// The shared metrics registry, or `None` when disabled.
    pub fn metrics(&self) -> Option<&Metrics> {
        self.inner.as_ref().map(|i| &i.metrics)
    }

    /// Opens a named span: emits [`Event::SpanBegin`] stamped with the
    /// caller's cumulative `instret`/`cycle` counters and starts a
    /// wall-clock timer on the side.
    ///
    /// Close it with [`Span::end_at`] (or drop it) to emit the matching
    /// [`Event::SpanEnd`] and record the elapsed wall milliseconds into
    /// the `span.<name>_ms` metrics histogram. Spans nest by begin/end
    /// pairing; the wall duration never enters the event stream, so
    /// traces stay deterministic.
    ///
    /// Zero-cost when disabled: no event, no string work, not even an
    /// `Instant::now()` — the returned guard is a `None`.
    pub fn span_at(&self, name: &str, instret: u64, cycle: u64) -> Span {
        if !self.is_enabled() {
            return Span { inner: None };
        }
        let span_name = SpanName::new(name);
        self.emit(|| Event::SpanBegin {
            name: span_name,
            instret,
            cycle,
        });
        Span {
            inner: Some(SpanInner {
                tel: self.clone(),
                name: span_name,
                begin_instret: instret,
                begin_cycle: cycle,
                start: Instant::now(),
            }),
        }
    }

    /// How many events of `kind` have been emitted through this handle
    /// (and its clones). Zero when disabled.
    pub fn count(&self, kind: EventKind) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.counts[kind.index()].load(Ordering::Relaxed))
    }

    /// Total events emitted across all kinds. Zero when disabled.
    pub fn total_events(&self) -> u64 {
        EventKind::ALL.iter().map(|&k| self.count(k)).sum()
    }

    /// Flushes the sink (a no-op for memory sinks).
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            inner.sink.flush();
        }
    }

    /// Multi-line human-readable summary: per-kind event counts followed
    /// by the metrics dump. Intended for the bench binaries' `--telemetry`
    /// output.
    pub fn summary(&self) -> String {
        let Some(inner) = &self.inner else {
            return "telemetry: off\n".to_string();
        };
        let mut out = String::from("telemetry events:\n");
        if self.total_events() == 0 {
            out.push_str("  (none emitted — cached or untraced runs produce no events)\n");
        }
        for kind in EventKind::ALL {
            let n = inner.counts[kind.index()].load(Ordering::Relaxed);
            if n > 0 {
                out.push_str(&format!("  {:<32} {n}\n", kind.name()));
            }
        }
        let metrics = inner.metrics.summary();
        if !metrics.is_empty() {
            out.push_str("telemetry metrics:\n");
            out.push_str(&metrics);
        }
        out
    }
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            None => f.write_str("Telemetry(off)"),
            Some(_) => write!(f, "Telemetry(on, {} events)", self.total_events()),
        }
    }
}

struct SpanInner {
    tel: Telemetry,
    name: SpanName,
    begin_instret: u64,
    begin_cycle: u64,
    start: Instant,
}

/// Guard for an open span (see [`Telemetry::span_at`]).
///
/// Dropping it closes the span at the begin counters — fine for callers
/// that only want the wall-clock histogram. Callers with live
/// architectural counters should close explicitly with [`Span::end_at`]
/// so the `SpanEnd` event carries real progress.
#[derive(Debug)]
#[must_use = "a span closes when this guard drops"]
pub struct Span {
    inner: Option<SpanInner>,
}

impl fmt::Debug for SpanInner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SpanInner({:?})", self.name.as_str())
    }
}

impl Span {
    /// Closes the span, stamping [`Event::SpanEnd`] with the caller's
    /// current cumulative counters and recording the elapsed wall
    /// milliseconds into the `span.<name>_ms` histogram.
    pub fn end_at(mut self, instret: u64, cycle: u64) {
        if let Some(inner) = self.inner.take() {
            Span::finish(inner, instret, cycle);
        }
    }

    fn finish(inner: SpanInner, instret: u64, cycle: u64) {
        let wall_ms = inner.start.elapsed().as_secs_f64() * 1e3;
        inner.tel.emit(|| Event::SpanEnd {
            name: inner.name,
            instret,
            cycle,
        });
        if let Some(metrics) = inner.tel.metrics() {
            metrics
                .histogram(
                    &format!("span.{}_ms", inner.name.as_str()),
                    &metrics::timer_bounds(),
                )
                .record(wall_ms);
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let (instret, cycle) = (inner.begin_instret, inner.begin_cycle);
            Span::finish(inner, instret, cycle);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_handle_never_runs_closure() {
        let tel = Telemetry::off();
        tel.emit(|| unreachable!("closure must not run when off"));
        assert!(!tel.is_enabled());
        assert_eq!(tel.total_events(), 0);
        assert!(tel.metrics().is_none());
        assert_eq!(tel.summary(), "telemetry: off\n");
    }

    #[test]
    fn counts_are_shared_across_clones() {
        let (tel, buffer) = Telemetry::buffered();
        let clone = tel.clone();
        tel.emit(|| Event::TuningStarted {
            scope: Scope::Hotspot { method: 1 },
            configs: 10,
            instret: 100,
        });
        clone.emit(|| Event::TuningConverged {
            scope: Scope::Hotspot { method: 1 },
            trials: 10,
            ipc: 1.0,
            epi_nj: 0.4,
            instret: 900,
        });
        assert_eq!(tel.count(EventKind::TuningStarted), 1);
        assert_eq!(tel.count(EventKind::TuningConverged), 1);
        assert_eq!(clone.total_events(), 2);
        assert_eq!(buffer.snapshot().len(), 2);
        let summary = tel.summary();
        assert!(summary.contains("TuningStarted"));
        assert!(summary.contains("TuningConverged"));
    }

    #[test]
    fn spans_emit_paired_events_and_wall_histogram() {
        let (tel, buffer) = Telemetry::buffered();
        let outer = tel.span_at("wave", 100, 200);
        let inner = tel.span_at("machine", 300, 400);
        inner.end_at(300, 400);
        outer.end_at(500, 900);
        let events = buffer.snapshot();
        assert_eq!(
            events.iter().map(|e| e.kind()).collect::<Vec<_>>(),
            vec![
                EventKind::SpanBegin,
                EventKind::SpanBegin,
                EventKind::SpanEnd,
                EventKind::SpanEnd
            ]
        );
        match events[3] {
            Event::SpanEnd {
                name,
                instret,
                cycle,
            } => {
                assert_eq!(name.as_str(), "wave");
                assert_eq!((instret, cycle), (500, 900));
            }
            ref other => panic!("expected SpanEnd, got {other:?}"),
        }
        let metrics = tel.metrics().unwrap();
        assert_eq!(metrics.histogram("span.wave_ms", &[]).count(), 1);
        assert_eq!(metrics.histogram("span.machine_ms", &[]).count(), 1);
    }

    #[test]
    fn span_guard_drop_closes_and_disabled_span_is_inert() {
        let (tel, buffer) = Telemetry::buffered();
        {
            let _span = tel.span_at("scoped", 7, 9);
        }
        assert_eq!(tel.count(EventKind::SpanBegin), 1);
        assert_eq!(tel.count(EventKind::SpanEnd), 1);
        let end = Event::SpanEnd {
            name: SpanName::new("scoped"),
            instret: 7,
            cycle: 9,
        };
        assert_eq!(
            buffer.snapshot()[1..],
            [end],
            "closes at its begin counters"
        );

        let off = Telemetry::off();
        let span = off.span_at("nothing", 0, 0);
        span.end_at(1, 2);
        assert_eq!(off.total_events(), 0);
    }

    #[test]
    fn metrics_live_on_the_shared_handle() {
        let tel = Telemetry::counting();
        let clone = tel.clone();
        tel.metrics().unwrap().counter("reconfigs").add(3);
        assert_eq!(clone.metrics().unwrap().counter("reconfigs").get(), 3);
        assert!(tel.summary().contains("reconfigs"));
    }
}
