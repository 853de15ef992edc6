//! Observability time-series analysis (`ace trace metrics`).
//!
//! The fleet harness writes an obs stream: one [`ObsRecord`] per wave,
//! each a cumulative [`MetricsSnapshot`] keyed by `(pass, wave)`. This
//! module answers the two questions CI and operators ask of such a
//! stream:
//!
//! * *what moved between wave A and wave B?* — [`metrics_report`]
//!   renders the top-N largest deltas (plus histogram quantiles) over
//!   any wave range,
//! * *did this run regress against that one?* — [`diff_obs`] compares
//!   two streams' snapshots at matching waves under the same
//!   [`DiffThresholds`] machinery `ace trace diff` uses, so a recorded
//!   obs stream is a usable fleet-health baseline with exit-code
//!   semantics.
//!
//! Obs records carry only wave-indexed architectural data — never
//! wall-clock — so reports and diffs are byte-identical across `--jobs`
//! widths, the same contract the rest of the trace tooling holds.

use crate::diff::{rel_change, DiffLine, DiffReport, DiffThresholds};
use ace_telemetry::{read_obs_jsonl, MetricsSnapshot, ObsRecord};
use std::fmt::Write as _;

/// A parsed obs stream: wave-ordered records, possibly spanning several
/// passes (e.g. `cold` then `warm`).
#[derive(Debug, Clone, Default)]
pub struct ObsSeries {
    /// Records in file order (the harness writes them wave-ordered
    /// within each pass).
    pub records: Vec<ObsRecord>,
}

impl ObsSeries {
    /// Parses a JSONL obs stream.
    pub fn from_reader(r: impl std::io::Read) -> Result<ObsSeries, String> {
        Ok(ObsSeries {
            records: read_obs_jsonl(r)?,
        })
    }

    /// Reads and parses the obs stream at `path`.
    pub fn load(path: &str) -> Result<ObsSeries, String> {
        let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
        ObsSeries::from_reader(std::io::BufReader::new(file))
    }

    /// The records belonging to `pass`, or all records when `None`.
    pub fn pass_records(&self, pass: Option<&str>) -> Vec<&ObsRecord> {
        self.records
            .iter()
            .filter(|r| pass.is_none_or(|p| r.pass == p))
            .collect()
    }

    /// The record for `wave` within `pass` (first match in file order).
    pub fn at_wave(&self, pass: Option<&str>, wave: u64) -> Option<&ObsRecord> {
        self.pass_records(pass).into_iter().find(|r| r.wave == wave)
    }
}

/// One ranked delta row in a [`metrics_report`].
#[derive(Debug, Clone, PartialEq)]
struct DeltaRow {
    name: String,
    kind: &'static str,
    from: f64,
    to: f64,
}

impl DeltaRow {
    fn magnitude(&self) -> f64 {
        let delta = (self.to - self.from).abs();
        if self.from == 0.0 {
            delta
        } else {
            delta / self.from.abs()
        }
    }
}

/// Renders the top-`top` metric movements between the records at waves
/// `from` and `to` of `pass` (defaults: first and last wave present).
///
/// Rows are ranked by relative movement (absolute movement where the
/// starting value is zero), ties broken by name, so the report is a
/// deterministic function of the stream. Histograms additionally show
/// p50/p90 at the destination wave.
pub fn metrics_report(
    series: &ObsSeries,
    pass: Option<&str>,
    from: Option<u64>,
    to: Option<u64>,
    top: usize,
) -> Result<String, String> {
    let records = series.pass_records(pass);
    if records.is_empty() {
        return Err(match pass {
            Some(p) => format!("no obs records for pass {p:?}"),
            None => "no obs records in stream".to_string(),
        });
    }
    let first = records.first().expect("non-empty");
    let last = records.last().expect("non-empty");
    let from_wave = from.unwrap_or(first.wave);
    let to_wave = to.unwrap_or(last.wave);
    let rec_from = series
        .at_wave(pass, from_wave)
        .ok_or_else(|| format!("wave {from_wave} not present in stream"))?;
    let rec_to = series
        .at_wave(pass, to_wave)
        .ok_or_else(|| format!("wave {to_wave} not present in stream"))?;

    let (a, b) = (&rec_from.metrics, &rec_to.metrics);
    let mut rows: Vec<DeltaRow> = Vec::new();
    for name in b.counters.keys() {
        rows.push(DeltaRow {
            name: name.clone(),
            kind: "counter",
            from: a.counter(name) as f64,
            to: b.counter(name) as f64,
        });
    }
    for name in b.gauges.keys() {
        rows.push(DeltaRow {
            name: name.clone(),
            kind: "gauge",
            from: a.gauge(name),
            to: b.gauge(name),
        });
    }
    rows.sort_by(|x, y| {
        y.magnitude()
            .partial_cmp(&x.magnitude())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| x.name.cmp(&y.name))
    });

    let mut out = String::new();
    let _ = writeln!(
        out,
        "obs metrics: pass {} wave {from_wave} -> {to_wave} ({} records, {} counters, {} gauges, {} histograms)",
        rec_to.pass,
        records.len(),
        rec_to.metrics.counters.len(),
        rec_to.metrics.gauges.len(),
        rec_to.metrics.histograms.len(),
    );
    let shown = rows.len().min(top);
    let _ = writeln!(out, "top {shown} movements:");
    for row in rows.iter().take(top) {
        let _ = writeln!(
            out,
            "  {:<9} {:<28} {:>12.4} -> {:<12.4} delta {:>+12.4}",
            row.kind,
            row.name,
            row.from,
            row.to,
            row.to - row.from,
        );
    }
    if !rec_to.metrics.histograms.is_empty() {
        let _ = writeln!(out, "histograms at wave {to_wave}:");
        for (name, h) in &rec_to.metrics.histograms {
            let _ = writeln!(
                out,
                "  {:<28} n={} mean={:.3} p50={:.3} p90={:.3}",
                name,
                h.count,
                h.mean(),
                h.quantile(0.50),
                h.quantile(0.90),
            );
        }
    }
    Ok(out)
}

/// Gauge regression direction, inferred from the metric name.
enum GaugeDirection {
    /// A drop is a regression (hit rates, IPC, throughput).
    Drop,
    /// A rise is a regression (shed rates, EPI, trials, latencies).
    Rise,
    /// Movement in either direction is a regression.
    Both,
}

/// Classifies a gauge by name so [`diff_obs`] can judge it in the
/// direction that matters: quality metrics regress when they drop,
/// cost metrics regress when they rise, everything else both ways.
fn gauge_direction(name: &str) -> GaugeDirection {
    const DROP_BAD: [&str; 3] = ["hit_rate", "ipc", "per_sec"];
    const RISE_BAD: [&str; 4] = ["shed", "epi", "trials", "_ms"];
    if DROP_BAD.iter().any(|n| name.contains(n)) {
        GaugeDirection::Drop
    } else if RISE_BAD.iter().any(|n| name.contains(n)) {
        GaugeDirection::Rise
    } else {
        GaugeDirection::Both
    }
}

/// Compares two snapshots (baseline `a`, candidate `b`) under
/// `thresholds`, producing the same [`DiffReport`] shape as trace
/// diffing so callers share rendering and exit-code logic.
///
/// Counters and histogram counts flag on relative change in either
/// direction beyond `max_count_delta`. Gauges flag directionally per
/// the metric name: drop-bad gauges against `max_ipc_drop`,
/// rise-bad against `max_epi_rise` (trial-count gauges against
/// `max_convergence_slowdown`), both-way against `max_count_delta`.
pub fn diff_obs(
    a: &MetricsSnapshot,
    b: &MetricsSnapshot,
    thresholds: &DiffThresholds,
) -> DiffReport {
    let mut lines = Vec::new();

    let counter_names: Vec<&String> = {
        let mut names: Vec<&String> = a.counters.keys().chain(b.counters.keys()).collect();
        names.sort();
        names.dedup();
        names
    };
    for name in counter_names {
        let (va, vb) = (a.counter(name) as f64, b.counter(name) as f64);
        let delta = rel_change(va, vb);
        lines.push(DiffLine {
            metric: format!("counter {name}"),
            a: va,
            b: vb,
            delta,
            threshold: thresholds.max_count_delta,
            regressed: delta.abs() > thresholds.max_count_delta,
        });
    }

    let gauge_names: Vec<&String> = {
        let mut names: Vec<&String> = a.gauges.keys().chain(b.gauges.keys()).collect();
        names.sort();
        names.dedup();
        names
    };
    for name in gauge_names {
        let (va, vb) = (a.gauge(name), b.gauge(name));
        let delta = rel_change(va, vb);
        let (threshold, regressed) = match gauge_direction(name) {
            GaugeDirection::Drop => (thresholds.max_ipc_drop, -delta > thresholds.max_ipc_drop),
            GaugeDirection::Rise => {
                let limit = if name.contains("trials") {
                    thresholds.max_convergence_slowdown
                } else {
                    thresholds.max_epi_rise
                };
                (limit, delta > limit)
            }
            GaugeDirection::Both => (
                thresholds.max_count_delta,
                delta.abs() > thresholds.max_count_delta,
            ),
        };
        lines.push(DiffLine {
            metric: format!("gauge {name}"),
            a: va,
            b: vb,
            delta,
            threshold,
            regressed,
        });
    }

    let histogram_names: Vec<&String> = {
        let mut names: Vec<&String> = a.histograms.keys().chain(b.histograms.keys()).collect();
        names.sort();
        names.dedup();
        names
    };
    for name in histogram_names {
        let va = a.histograms.get(name).map_or(0.0, |h| h.count as f64);
        let vb = b.histograms.get(name).map_or(0.0, |h| h.count as f64);
        let delta = rel_change(va, vb);
        lines.push(DiffLine {
            metric: format!("histogram {name} count"),
            a: va,
            b: vb,
            delta,
            threshold: thresholds.max_count_delta,
            regressed: delta.abs() > thresholds.max_count_delta,
        });
    }

    DiffReport { lines }
}

/// Diffs two obs streams at their final snapshots of `pass` (or of the
/// whole stream when `pass` is `None`): baseline `a`, candidate `b`.
pub fn diff_obs_series(
    a: &ObsSeries,
    b: &ObsSeries,
    pass: Option<&str>,
    thresholds: &DiffThresholds,
) -> Result<DiffReport, String> {
    let last_of = |s: &'_ ObsSeries, which: &str| -> Result<MetricsSnapshot, String> {
        s.pass_records(pass)
            .last()
            .map(|r| r.metrics.clone())
            .ok_or_else(|| match pass {
                Some(p) => format!("{which}: no obs records for pass {p:?}"),
                None => format!("{which}: no obs records in stream"),
            })
    };
    let snap_a = last_of(a, "baseline")?;
    let snap_b = last_of(b, "candidate")?;
    Ok(diff_obs(&snap_a, &snap_b, thresholds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_telemetry::Metrics;

    fn record(pass: &str, wave: u64, hits: u64, hit_rate: f64) -> ObsRecord {
        let m = Metrics::default();
        m.counter("fleet.warm_hits").add(hits);
        m.counter("fleet.machines").add(wave * 10);
        m.gauge("fleet.hit_rate").set(hit_rate);
        m.gauge("fleet.shed_rate").set(0.01);
        let h = m.histogram("fleet.ipc_p", &[1.0, 2.0, 4.0]);
        for _ in 0..wave {
            h.record(1.5);
        }
        ObsRecord {
            pass: pass.to_string(),
            wave,
            metrics: m.snapshot(),
        }
    }

    fn series(passes: &[(&str, u64, u64, f64)]) -> ObsSeries {
        ObsSeries {
            records: passes
                .iter()
                .map(|&(p, w, hits, rate)| record(p, w, hits, rate))
                .collect(),
        }
    }

    #[test]
    fn series_selects_passes_and_waves() {
        let s = series(&[
            ("cold", 1, 0, 0.0),
            ("cold", 2, 3, 0.1),
            ("warm", 1, 8, 0.8),
        ]);
        assert_eq!(s.pass_records(Some("cold")).len(), 2);
        assert_eq!(s.pass_records(None).len(), 3);
        assert_eq!(s.at_wave(Some("warm"), 1).unwrap().pass, "warm");
        assert!(s.at_wave(Some("warm"), 2).is_none());
    }

    #[test]
    fn metrics_report_ranks_largest_movers_first() {
        let s = series(&[("cold", 1, 10, 0.5), ("cold", 4, 11, 0.52)]);
        let text = metrics_report(&s, Some("cold"), None, None, 10).unwrap();
        assert!(text.contains("wave 1 -> 4"), "{text}");
        // machines went 10 -> 40 (3x), hits 10 -> 11 (10%): machines first.
        let machines = text.find("fleet.machines").unwrap();
        let hits = text.find("fleet.warm_hits").unwrap();
        assert!(machines < hits, "{text}");
        assert!(text.contains("p50"), "{text}");
        // Deterministic rendering.
        let again = metrics_report(&s, Some("cold"), None, None, 10).unwrap();
        assert_eq!(text, again);
    }

    #[test]
    fn metrics_report_errors_on_missing_wave() {
        let s = series(&[("cold", 1, 0, 0.0)]);
        assert!(metrics_report(&s, None, Some(9), None, 5).is_err());
        assert!(metrics_report(&s, Some("nope"), None, None, 5).is_err());
    }

    #[test]
    fn diff_obs_flags_hit_rate_drop_not_rise() {
        let t = DiffThresholds::default();
        let base = record("warm", 4, 100, 0.90).metrics;
        let worse = record("warm", 4, 100, 0.50).metrics;
        let report = diff_obs(&base, &worse, &t);
        assert!(report
            .regressions()
            .any(|l| l.metric == "gauge fleet.hit_rate"));

        let better = record("warm", 4, 100, 0.99).metrics;
        let report = diff_obs(&base, &better, &t);
        assert!(!report.regressed(), "{}", report.render());
    }

    #[test]
    fn diff_obs_flags_counter_change_both_ways() {
        let t = DiffThresholds::default();
        let base = record("warm", 4, 100, 0.9).metrics;
        for hits in [50, 200] {
            let other = record("warm", 4, hits, 0.9).metrics;
            let report = diff_obs(&base, &other, &t);
            assert!(report
                .regressions()
                .any(|l| l.metric == "counter fleet.warm_hits"));
        }
    }

    #[test]
    fn diff_obs_flags_shed_rise_and_histogram_count() {
        let t = DiffThresholds::default();
        let base = record("warm", 4, 100, 0.9).metrics;
        let mut shed = base.clone();
        shed.gauges.insert("fleet.shed_rate".to_string(), 0.5);
        let report = diff_obs(&base, &shed, &t);
        assert!(report
            .regressions()
            .any(|l| l.metric == "gauge fleet.shed_rate"));

        let fewer = record("warm", 1, 100, 0.9).metrics; // histogram n=1 vs 4
        let report = diff_obs(&base, &fewer, &t);
        assert!(report
            .regressions()
            .any(|l| l.metric == "histogram fleet.ipc_p count"));
    }

    #[test]
    fn diff_obs_series_uses_final_snapshots() {
        let t = DiffThresholds::default();
        let a = series(&[("warm", 1, 10, 0.5), ("warm", 2, 100, 0.9)]);
        let b = series(&[("warm", 1, 10, 0.5), ("warm", 2, 100, 0.9)]);
        let report = diff_obs_series(&a, &b, Some("warm"), &t).unwrap();
        assert!(!report.regressed(), "{}", report.render());
        assert!(diff_obs_series(&a, &b, Some("nope"), &t).is_err());
    }

    #[test]
    fn gauge_direction_classification() {
        assert!(matches!(
            gauge_direction("fleet.hit_rate"),
            GaugeDirection::Drop
        ));
        assert!(matches!(
            gauge_direction("fleet.machines_per_sec"),
            GaugeDirection::Drop
        ));
        assert!(matches!(
            gauge_direction("fleet.shed_rate"),
            GaugeDirection::Rise
        ));
        assert!(matches!(
            gauge_direction("fleet.epi_p90"),
            GaugeDirection::Rise
        ));
        assert!(matches!(
            gauge_direction("fleet.store_size"),
            GaugeDirection::Both
        ));
    }
}
