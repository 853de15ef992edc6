//! Event sinks: where emitted [`Event`]s go.
//!
//! Three implementations cover the three use cases: [`NullSink`] for
//! overhead-free counting, [`MemorySink`] for in-memory inspection from
//! tests and for the experiment engine's per-job buffers, and
//! [`JsonlSink`] for durable traces consumed by the bench binaries'
//! `--telemetry` flag.

use crate::event::Event;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Destination for emitted events.
///
/// Sinks take `&self` and must be internally synchronised: the threaded
/// driver and the bench harness share one [`crate::Telemetry`] handle
/// across worker threads.
pub trait Sink: Send + Sync {
    /// Records one event.
    fn record(&self, event: &Event);

    /// Flushes any buffered events to their backing store.
    fn flush(&self) {}
}

impl<S: Sink + ?Sized> Sink for Arc<S> {
    fn record(&self, event: &Event) {
        (**self).record(event);
    }

    fn flush(&self) {
        (**self).flush();
    }
}

/// Discards every event.
///
/// With this sink the handle still maintains per-kind counts and the
/// metrics registry, so it is the right choice when only the summary is
/// wanted — or when measuring the overhead of the emission paths
/// themselves.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl Sink for NullSink {
    fn record(&self, _event: &Event) {}
}

/// Unbounded in-memory event buffer, created by
/// [`crate::Telemetry::buffered`].
///
/// Tests read a run's events back from it. The experiment engine hands
/// each parallel job its own buffered [`crate::Telemetry`] handle backed
/// by one of these, then drains the buffers **in job-key order** into the
/// parent handle, so a parallel run replays the same event sequence a
/// serial run would have produced.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    /// Creates an empty buffer.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// Removes and returns every buffered event, in emission order.
    pub fn drain(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock().expect("memory sink poisoned"))
    }

    /// Copies the buffered events without draining them.
    pub fn snapshot(&self) -> Vec<Event> {
        self.events.lock().expect("memory sink poisoned").clone()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.lock().expect("memory sink poisoned").len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Sink for MemorySink {
    fn record(&self, event: &Event) {
        self.events
            .lock()
            .expect("memory sink poisoned")
            .push(*event);
    }
}

/// Buffered line-per-event JSON writer.
///
/// Each event is serialised with the externally tagged enum encoding, e.g.
/// `{"Reconfigured":{"cu":"L1d","from":0,...}}`, one per line. Events are
/// buffered; call [`Sink::flush`] (or drop the owning
/// [`crate::Telemetry`]) before reading the file.
pub struct JsonlSink {
    out: Mutex<BufWriter<Box<dyn Write + Send>>>,
}

impl JsonlSink {
    /// Creates (truncating) `path` and writes events to it.
    pub fn create(path: impl AsRef<Path>) -> io::Result<JsonlSink> {
        let file = File::create(path)?;
        Ok(JsonlSink::new(Box::new(file)))
    }

    /// Writes events to an arbitrary writer (used by tests with `Vec<u8>`).
    pub fn new(writer: Box<dyn Write + Send>) -> JsonlSink {
        JsonlSink {
            out: Mutex::new(BufWriter::new(writer)),
        }
    }
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("JsonlSink")
    }
}

impl Sink for JsonlSink {
    fn record(&self, event: &Event) {
        let Ok(line) = serde_json::to_string(event) else {
            return;
        };
        let mut out = self.out.lock().expect("jsonl sink poisoned");
        // An I/O error here (disk full) must not abort the simulated run;
        // the trace is best-effort by design.
        let _ = writeln!(out, "{line}");
    }

    fn flush(&self) {
        let _ = self.out.lock().expect("jsonl sink poisoned").flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        Sink::flush(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CuId, ReconfigCause};

    /// Shared byte buffer standing in for a file.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_round_trip() {
        let buf = SharedBuf::default();
        let sink = JsonlSink::new(Box::new(buf.clone()));
        let events = [
            Event::HotspotPromoted {
                method: 3,
                invocations: 2,
                instret: 1_000_000,
            },
            Event::Reconfigured {
                cu: CuId::L2,
                from: 0,
                to: 3,
                cause: ReconfigCause::Trial,
                cycle: 42,
            },
            Event::TuningStep {
                scope: crate::Scope::Hotspot { method: 3 },
                trial: 1,
                ipc: 1.25,
                epi_nj: 0.5,
                instret: 2_000_000,
            },
        ];
        for ev in &events {
            sink.record(ev);
        }
        Sink::flush(&sink);

        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let decoded: Vec<Event> = text
            .lines()
            .map(|line| serde_json::from_str(line).expect("valid JSONL line"))
            .collect();
        assert_eq!(decoded, events);
    }
}
