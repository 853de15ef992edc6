//! Re-reading recorded event streams.
//!
//! [`JsonlSink`](crate::JsonlSink) writes one externally tagged JSON
//! object per line; this module is the inverse: a line-by-line
//! [`EventStream`] iterator over any `BufRead`, plus the
//! [`read_events`] convenience for whole files. `ace-trace` builds its
//! analyses on top of these, and keeping the decoder next to the encoder
//! means the two cannot drift apart silently (the fixture tests pin the
//! wire format on both sides).

use crate::event::Event;
use std::fs::File;
use std::io::{self, BufRead, BufReader};
use std::path::Path;

/// Why a recorded stream could not be read back.
#[derive(Debug)]
pub enum StreamError {
    /// The underlying reader failed.
    Io(io::Error),
    /// A line was not a valid event encoding.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// Decoder message.
        message: String,
    },
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Io(e) => write!(f, "trace stream I/O error: {e}"),
            StreamError::Parse { line, message } => {
                write!(f, "trace line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for StreamError {}

impl From<io::Error> for StreamError {
    fn from(e: io::Error) -> StreamError {
        StreamError::Io(e)
    }
}

/// Streaming decoder over a JSONL event recording.
///
/// Yields one `Result<Event, StreamError>` per non-blank line, so a
/// multi-gigabyte trace can be analyzed without loading it whole; parse
/// errors carry the line number and do not stop the iterator (callers
/// decide whether to skip or abort).
#[derive(Debug)]
pub struct EventStream<R> {
    reader: R,
    line: usize,
    buf: String,
}

impl EventStream<BufReader<File>> {
    /// Opens `path` for streaming decode.
    ///
    /// # Errors
    ///
    /// Fails when the file cannot be opened.
    pub fn open(path: impl AsRef<Path>) -> io::Result<EventStream<BufReader<File>>> {
        Ok(EventStream::new(BufReader::new(File::open(path)?)))
    }
}

impl<R: BufRead> EventStream<R> {
    /// Decodes events from an arbitrary buffered reader.
    pub fn new(reader: R) -> EventStream<R> {
        EventStream {
            reader,
            line: 0,
            buf: String::new(),
        }
    }
}

impl<R: BufRead> Iterator for EventStream<R> {
    type Item = Result<Event, StreamError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            self.buf.clear();
            match self.reader.read_line(&mut self.buf) {
                Ok(0) => return None,
                Ok(_) => {}
                Err(e) => return Some(Err(StreamError::Io(e))),
            }
            self.line += 1;
            let text = self.buf.trim();
            if text.is_empty() {
                continue;
            }
            return Some(match serde_json::from_str::<Event>(text) {
                Ok(event) => Ok(event),
                Err(e) => Err(StreamError::Parse {
                    line: self.line,
                    message: e.to_string(),
                }),
            });
        }
    }
}

/// Reads every event of the JSONL recording at `path`, strictly: the
/// first malformed line aborts the read.
///
/// # Errors
///
/// [`StreamError::Io`] when the file cannot be opened or read,
/// [`StreamError::Parse`] (with line number) on a malformed line.
pub fn read_events(path: impl AsRef<Path>) -> Result<Vec<Event>, StreamError> {
    EventStream::open(path)?.collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CuId, ReconfigCause, Scope};
    use crate::sink::{JsonlSink, Sink};
    use std::io::Write;
    use std::sync::{Arc, Mutex};

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
    fn round_trips_what_the_sink_writes() {
        let events = [
            Event::HotspotPromoted {
                method: 3,
                invocations: 9,
                instret: 1_000,
            },
            Event::Reconfigured {
                cu: CuId::L1d,
                from: 0,
                to: 2,
                cause: ReconfigCause::Apply,
                cycle: 2_000,
            },
            Event::TuningConverged {
                scope: Scope::Phase { phase: 1 },
                trials: 5,
                ipc: 1.75,
                epi_nj: 0.25,
                instret: 3_000,
            },
        ];
        let buf = SharedBuf::default();
        let sink = JsonlSink::new(Box::new(buf.clone()));
        for ev in &events {
            sink.record(ev);
        }
        Sink::flush(&sink);
        let bytes = buf.0.lock().unwrap().clone();
        let decoded: Vec<Event> = EventStream::new(bytes.as_slice())
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(decoded, events);
    }

    #[test]
    fn blank_lines_skip_and_errors_carry_line_numbers() {
        let text =
            "\n{\"HotspotPromoted\":{\"method\":1,\"invocations\":2,\"instret\":3}}\n\nnot json\n";
        let items: Vec<_> = EventStream::new(text.as_bytes()).collect();
        assert_eq!(items.len(), 2);
        assert!(items[0].is_ok());
        match items[1].as_ref().unwrap_err() {
            StreamError::Parse { line, .. } => assert_eq!(*line, 4),
            other => panic!("expected parse error, got {other:?}"),
        }
    }
}
