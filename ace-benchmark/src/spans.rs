//! Coarse spans of a traced pass (workload → cycle → run; pass → wave →
//! job → machine; publish), kept in memory and written as JSONL at exit.

use serde::Value;
use std::path::Path;
use std::time::{Duration, Instant};

/// One finished span: times are offsets from the log's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span kind (`workload`, `cycle`, `run`, `pass`, `wave`, `job`,
    /// `machine`, `publish`).
    pub name: &'static str,
    /// Index of the parent span in the log (the root points at itself).
    pub parent: usize,
    /// Free-form label (run key, machine key, ...).
    pub label: String,
    /// Start offset.
    pub start: Duration,
    /// End offset.
    pub end: Duration,
}

impl SpanRecord {
    /// A finished span from `(start, end)` offsets.
    pub fn new(
        name: &'static str,
        parent: usize,
        label: String,
        (start, end): (Duration, Duration),
    ) -> SpanRecord {
        SpanRecord {
            name,
            parent,
            label,
            start,
            end,
        }
    }
}

/// An in-memory span log; span ids are indices into it.
#[derive(Debug, Clone)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<SpanRecord>,
}

impl SpanLog {
    /// An empty log whose offsets count from now.
    pub fn new() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// The instant offsets count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Opens a span now; [`SpanLog::close`] sets its end. A root span
    /// passes its own future id (`self.len()`) as `parent`.
    pub fn open(&mut self, name: &'static str, parent: usize, label: String) -> usize {
        let now = self.epoch.elapsed();
        self.push(SpanRecord::new(name, parent, label, (now, now)))
    }

    /// Ends span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.epoch.elapsed();
    }

    /// Appends a finished span and returns its id.
    pub fn push(&mut self, span: SpanRecord) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Writes one JSON object per span (`id`, `parent`, `name`, `label`,
    /// `start_us`, `end_us`) to `path`, creating its directory.
    ///
    /// # Errors
    ///
    /// Any I/O error.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let line = Value::Object(vec![
                ("id".into(), Value::U64(id as u64)),
                ("parent".into(), Value::U64(s.parent as u64)),
                ("name".into(), Value::Str(s.name.into())),
                ("label".into(), Value::Str(s.label.clone())),
                ("start_us".into(), Value::U64(s.start.as_micros() as u64)),
                ("end_us".into(), Value::U64(s.end.as_micros() as u64)),
            ]);
            out.push_str(&serde_json::to_string(&line).expect("values serialize"));
            out.push('\n');
        }
        std::fs::write(path, out)
    }
}

impl Default for SpanLog {
    fn default() -> SpanLog {
        SpanLog::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_write_as_jsonl() {
        let mut log = SpanLog::new();
        let root = log.open("workload", 0, "w".into());
        let child = log.open("run", root, "db/hotspot".into());
        log.close(child);
        log.close(root);
        assert_eq!(log.spans().len(), 2);
        assert!(log.spans()[0].start <= log.spans()[1].start);
        assert!(log.spans()[1].end <= log.spans()[0].end);
        let dir = std::env::temp_dir().join(format!("ace-benchmark-spans-{}", std::process::id()));
        let path = dir.join("spans.jsonl");
        log.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(text.lines().count(), 2);
        assert!(
            text.lines().nth(1).unwrap().contains("\"parent\":0"),
            "{text}"
        );
    }
}
