//! Frozen, serializable views of the metrics registry.
//!
//! A [`MetricsSnapshot`] is what `ace-obs` exports: the live atomics of
//! [`crate::Metrics`] copied into ordered `BTreeMap`s, so two snapshots
//! of identical registries serialize to identical bytes. Snapshots
//! render to the Prometheus text exposition format
//! ([`MetricsSnapshot::render_prometheus`]) for external scrapers.
//!
//! [`ObsRecord`] wraps a snapshot with a `(pass, wave)` key — the fleet
//! driver's wave-indexed sampling unit. The index is a logical wave
//! number, never a wall-clock timestamp, so an obs stream is
//! byte-identical at any `--jobs` width (DESIGN.md §11).

use crate::metrics::quantile_from;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, BufRead};

/// Frozen view of one histogram: bounds, per-bucket counts (last entry
/// is the overflow bucket), total count, and sum.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Upper-inclusive bucket bounds, strictly increasing.
    pub bounds: Vec<f64>,
    /// `bounds.len() + 1` counts; the final entry is the overflow bucket.
    pub buckets: Vec<u64>,
    /// Total recorded samples.
    pub count: u64,
    /// Sum of recorded samples.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Mean of the recorded samples, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Same estimator as [`crate::Histogram::quantile`], over the frozen
    /// buckets.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile_from(&self.bounds, &self.buckets, q)
    }
}

/// Ordered, serializable copy of a [`crate::Metrics`] registry.
///
/// `BTreeMap` keys pin the iteration (and therefore serialization and
/// render) order to name order; the golden fixture in
/// `tests/metrics_render.rs` holds that contract.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// The counter called `name`, or 0 when it was never registered.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The gauge called `name`, or 0.0 when it was never registered.
    pub fn gauge(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(0.0)
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4): `# TYPE` comments, sanitized `ace_`-prefixed
    /// metric names, and cumulative `_bucket{le="..."}` histogram series
    /// ending in `le="+Inf"`.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let n = prom_name(name);
            let _ = writeln!(out, "# TYPE {n} counter");
            let _ = writeln!(out, "{n} {v}");
        }
        for (name, v) in &self.gauges {
            let n = prom_name(name);
            let _ = writeln!(out, "# TYPE {n} gauge");
            let _ = writeln!(out, "{n} {}", prom_f64(*v));
        }
        for (name, h) in &self.histograms {
            let n = prom_name(name);
            let _ = writeln!(out, "# TYPE {n} histogram");
            let mut cum = 0u64;
            for (i, &count) in h.buckets.iter().enumerate() {
                cum += count;
                let le = match h.bounds.get(i) {
                    Some(b) => prom_f64(*b),
                    None => "+Inf".to_string(),
                };
                let _ = writeln!(out, "{n}_bucket{{le=\"{le}\"}} {cum}");
            }
            let _ = writeln!(out, "{n}_sum {}", prom_f64(h.sum));
            let _ = writeln!(out, "{n}_count {}", h.count);
        }
        out
    }
}

/// Sanitizes a registry name (`engine.job_wall_ms`) into a Prometheus
/// metric name (`ace_engine_job_wall_ms`): `[a-zA-Z0-9_:]` pass through,
/// everything else becomes `_`.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("ace_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Prometheus float rendering: Rust's shortest-round-trip `{}` format,
/// which Prometheus parses, with non-finite spellings pinned.
fn prom_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        format!("{v}")
    }
}

/// One wave-indexed observation: a metrics snapshot keyed by the pass
/// it belongs to (`cold`/`warm` for the fleet bin) and the logical wave
/// index within that pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObsRecord {
    /// Which pass of the run this sample belongs to.
    pub pass: String,
    /// One-based logical wave index within the pass — the determinism
    /// key; never derived from wall-clock time.
    pub wave: u64,
    /// The cumulative registry state at the end of that wave.
    pub metrics: MetricsSnapshot,
}

/// Serializes obs records as JSONL, one record per line.
pub fn write_obs_jsonl(w: &mut impl io::Write, records: &[ObsRecord]) -> io::Result<()> {
    for rec in records {
        let line = serde_json::to_string(rec).map_err(io::Error::other)?;
        writeln!(w, "{line}")?;
    }
    Ok(())
}

/// Reads an obs JSONL stream, reporting the 1-based line number of the
/// first malformed record.
pub fn read_obs_jsonl(r: impl io::Read) -> Result<Vec<ObsRecord>, String> {
    let mut out = Vec::new();
    for (i, line) in io::BufReader::new(r).lines().enumerate() {
        let line = line.map_err(|e| format!("line {}: {e}", i + 1))?;
        if line.trim().is_empty() {
            continue;
        }
        let rec: ObsRecord =
            serde_json::from_str(&line).map_err(|e| format!("line {}: {e}", i + 1))?;
        out.push(rec);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Metrics;

    fn sample_registry() -> Metrics {
        let m = Metrics::default();
        m.counter("fleet.warm_hits").add(42);
        m.counter("fleet.machines").add(64);
        m.gauge("fleet.hit_rate").set(0.9375);
        let h = m.histogram("fleet.ipc", &[0.5, 1.0, 2.0]);
        h.record(0.75);
        h.record(1.5);
        h.record(3.0);
        m
    }

    #[test]
    fn snapshot_round_trips_through_serde() {
        let snap = sample_registry().snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    #[test]
    fn snapshots_of_identical_registries_are_byte_identical() {
        let a = sample_registry().snapshot();
        let b = sample_registry().snapshot();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn histogram_snapshot_quantile_matches_live() {
        let m = sample_registry();
        let live = m.histogram("fleet.ipc", &[]);
        let snap = m.snapshot();
        let frozen = &snap.histograms["fleet.ipc"];
        for q in [0.0, 0.25, 0.5, 0.9, 1.0] {
            assert_eq!(frozen.quantile(q), live.quantile(q));
        }
        assert_eq!(frozen.mean(), live.mean());
    }

    #[test]
    fn prometheus_rendering_is_cumulative_and_sanitized() {
        let text = sample_registry().snapshot().render_prometheus();
        assert!(text.contains("# TYPE ace_fleet_warm_hits counter\nace_fleet_warm_hits 42\n"));
        assert!(text.contains("# TYPE ace_fleet_hit_rate gauge\nace_fleet_hit_rate 0.9375\n"));
        // Histogram buckets are cumulative and end with +Inf.
        assert!(text.contains("ace_fleet_ipc_bucket{le=\"0.5\"} 0\n"));
        assert!(text.contains("ace_fleet_ipc_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("ace_fleet_ipc_bucket{le=\"2\"} 2\n"));
        assert!(text.contains("ace_fleet_ipc_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("ace_fleet_ipc_count 3\n"));
    }

    #[test]
    fn obs_records_round_trip_through_jsonl() {
        let records = vec![
            ObsRecord {
                pass: "cold".into(),
                wave: 1,
                metrics: sample_registry().snapshot(),
            },
            ObsRecord {
                pass: "cold".into(),
                wave: 2,
                metrics: sample_registry().snapshot(),
            },
        ];
        let mut buf = Vec::new();
        write_obs_jsonl(&mut buf, &records).unwrap();
        let back = read_obs_jsonl(&buf[..]).unwrap();
        assert_eq!(back, records);
        let err = read_obs_jsonl(&b"{\"pass\":\"cold\"\n"[..]).unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
    }
}
