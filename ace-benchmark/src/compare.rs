//! `compare`: judges a change's `run` result against its parent's, one
//! verdict per (workload, end-to-end metric).
//!
//! * **improved** — at least [`MIN_PAIRS`] pairs (sample `i` of each
//!   side, runs alternated between the commits), the change better in at
//!   least nine tenths of them (ties count for neither side), and the
//!   medians further apart than the parent's interquartile range;
//! * **regressed** — the change's median worse than the parent's by more
//!   than the metric's bound, as a share of the parent's median;
//! * **unresolved** — otherwise, when either side's spread (IQR over
//!   median) is wider than the bound, unless every change run beats
//!   every parent run: the benchmark cannot tell "unchanged" here;
//! * **within bound** — otherwise.
//!
//! Bounds come from `BENCHMARK.json`; metrics it does not list (the ones
//! only `run` reports) are exact: bound 0.

use crate::metrics::{self, Better};
use crate::stats::{median, quartiles, relative_iqr};
use serde::Value;
use std::collections::BTreeMap;
use std::fmt;

/// Pairs needed before a gain can be claimed.
pub const MIN_PAIRS: usize = 10;

/// Share of pairs the change must win to claim a gain.
pub const MIN_WIN_SHARE: f64 = 0.9;

/// The outcome for one (workload, metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A gain by the rule above.
    Improved,
    /// No worse than the bound, with a spread the bound can resolve.
    WithinBound,
    /// Worse than the bound.
    Regressed,
    /// The spread is wider than the bound.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        })
    }
}

fn better_than(a: f64, b: f64, better: Better) -> bool {
    match better {
        Better::Higher => a > b,
        Better::Lower => a < b,
    }
}

/// Judges `change` against `parent` samples of one metric.
///
/// # Panics
///
/// Panics if either side has no samples.
pub fn judge(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    let mp = median(parent).expect("parent samples");
    let mc = median(change).expect("change samples");
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| better_than(**c, **p, better))
        .count();
    let (q1, q3) = quartiles(parent).expect("parent samples");
    if pairs >= MIN_PAIRS
        && wins as f64 >= MIN_WIN_SHARE * pairs as f64
        && better_than(mc, mp, better)
        && (mc - mp).abs() > q3 - q1
    {
        return Verdict::Improved;
    }
    let worse = match better {
        Better::Higher => mp - mc,
        Better::Lower => mc - mp,
    };
    let worse_share = if mp == 0.0 {
        if worse > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        worse / mp.abs()
    };
    if worse_share > bound {
        return Verdict::Regressed;
    }
    let spread = relative_iqr(parent)
        .unwrap_or(0.0)
        .max(relative_iqr(change).unwrap_or(0.0));
    let all_better = change
        .iter()
        .all(|c| parent.iter().all(|p| better_than(*c, *p, better)));
    if spread > bound && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::WithinBound
    }
}

/// The end-to-end bounds `BENCHMARK.json` fixes, by metric name.
///
/// # Errors
///
/// Malformed JSON or an `end_to_end` entry without a numeric `bound`.
pub fn load_bounds(benchmark_json: &str) -> Result<BTreeMap<String, f64>, String> {
    let v: Value = serde_json::from_str(benchmark_json).map_err(|e| e.to_string())?;
    let entries = field(&v, "end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    entries
        .iter()
        .map(|e| {
            let name = field(e, "name")
                .and_then(as_str)
                .ok_or("end_to_end entry without a name")?;
            let bound = field(e, "bound")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{name}: no numeric bound"))?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

/// `obj[key]` for a JSON object value.
pub fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    serde::find_field(v.as_object()?, key)
}

/// The string inside a JSON string value.
pub fn as_str(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

/// One judged (workload, metric).
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Unit.
    pub unit: String,
    /// Parent median.
    pub parent: f64,
    /// Change median.
    pub change: f64,
    /// The bound applied.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// The samples of every (workload, metric) in a `run` result file.
///
/// # Errors
///
/// A file that is not a `run` result.
pub fn samples(result: &Value) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let mut out = BTreeMap::new();
    let workloads = field(result, "workloads")
        .and_then(Value::as_array)
        .ok_or("not a run result: no workloads list")?;
    for w in workloads {
        let name = field(w, "name")
            .and_then(as_str)
            .ok_or("workload without a name")?;
        let metrics = field(w, "end_to_end")
            .and_then(Value::as_object)
            .ok_or_else(|| format!("{name}: no end_to_end metrics"))?;
        for (metric, m) in metrics {
            let values: Vec<f64> = field(m, "samples")
                .and_then(Value::as_array)
                .ok_or_else(|| format!("{name}/{metric}: no samples"))?
                .iter()
                .filter_map(Value::as_f64)
                .collect();
            if !values.is_empty() {
                out.insert((name.to_string(), metric.clone()), values);
            }
        }
    }
    Ok(out)
}

/// Judges every (workload, metric) present in both result files.
///
/// # Errors
///
/// A malformed result file.
pub fn compare(
    parent: &Value,
    change: &Value,
    bounds: &BTreeMap<String, f64>,
) -> Result<Vec<Row>, String> {
    let p = samples(parent)?;
    let c = samples(change)?;
    let mut rows = Vec::new();
    for ((workload, metric), ps) in &p {
        let Some(cs) = c.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let Some(def) = metrics::end_to_end(metric) else {
            continue;
        };
        let bound = bounds.get(metric).copied().unwrap_or(0.0);
        rows.push(Row {
            workload: workload.clone(),
            metric: metric.clone(),
            unit: def.unit.to_string(),
            parent: median(ps).unwrap_or(0.0),
            change: median(cs).unwrap_or(0.0),
            bound,
            verdict: judge(ps, cs, def.better, bound),
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy(center: f64, spread: f64, n: usize) -> Vec<f64> {
        // Deterministic ± spread zig-zag around the center.
        (0..n)
            .map(|i| center * (1.0 + spread * ((i % 5) as f64 - 2.0) / 2.0))
            .collect()
    }

    #[test]
    fn identical_samples_are_within_bound() {
        let a = noisy(100.0, 0.01, 10);
        assert_eq!(judge(&a, &a, Better::Higher, 0.05), Verdict::WithinBound);
    }

    #[test]
    fn a_clear_gain_with_ten_pairs_is_improved() {
        let parent = noisy(100.0, 0.01, 10);
        let change: Vec<f64> = parent.iter().map(|p| p * 1.10).collect();
        assert_eq!(
            judge(&parent, &change, Better::Higher, 0.05),
            Verdict::Improved
        );
        // The same gain on a lower-is-better metric reads as a regression.
        assert_eq!(
            judge(&parent, &change, Better::Lower, 0.05),
            Verdict::Regressed
        );
    }

    #[test]
    fn a_gain_needs_ten_pairs() {
        let parent = noisy(100.0, 0.01, 9);
        let change: Vec<f64> = parent.iter().map(|p| p * 1.10).collect();
        // Every change run beats every parent run, so not unresolved.
        assert_eq!(
            judge(&parent, &change, Better::Higher, 0.05),
            Verdict::WithinBound
        );
    }

    #[test]
    fn a_gain_needs_nine_tenths_of_the_pairs() {
        let parent = vec![100.0; 10];
        let mut change = vec![110.0; 10];
        change[0] = 90.0;
        change[1] = 100.0; // a tie counts for neither side
        assert_eq!(
            judge(&parent, &change, Better::Higher, 0.5),
            Verdict::WithinBound
        );
        change[1] = 101.0;
        assert_eq!(
            judge(&parent, &change, Better::Higher, 0.5),
            Verdict::Improved
        );
    }

    #[test]
    fn a_gain_needs_a_gap_wider_than_the_parent_iqr() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + 4.0 * i as f64).collect();
        let change: Vec<f64> = parent.iter().map(|p| p + 3.0).collect();
        // Wins every pair, but the 3-unit gap is inside the parent's IQR.
        assert_eq!(
            judge(&parent, &change, Better::Higher, 0.5),
            Verdict::WithinBound
        );
    }

    #[test]
    fn worse_than_the_bound_is_regressed() {
        let parent = noisy(100.0, 0.01, 5);
        let change: Vec<f64> = parent.iter().map(|p| p * 0.90).collect();
        assert_eq!(
            judge(&parent, &change, Better::Higher, 0.05),
            Verdict::Regressed
        );
        let slight: Vec<f64> = parent.iter().map(|p| p * 0.98).collect();
        assert_eq!(
            judge(&parent, &slight, Better::Higher, 0.05),
            Verdict::WithinBound
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let parent = noisy(100.0, 0.30, 10);
        let change = noisy(99.0, 0.30, 10);
        assert_eq!(
            judge(&parent, &change, Better::Higher, 0.05),
            Verdict::Unresolved
        );
    }

    #[test]
    fn exact_metrics_regress_on_any_worsening() {
        assert_eq!(
            judge(&[0.0], &[0.01], Better::Lower, 0.0),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&[47.1], &[47.1], Better::Higher, 0.0),
            Verdict::WithinBound
        );
        assert_eq!(
            judge(&[47.1], &[47.0], Better::Higher, 0.0),
            Verdict::Regressed
        );
    }

    #[test]
    fn bounds_load_from_the_benchmark_file_shape() {
        let text = r#"{"end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}"#;
        let bounds = load_bounds(text).unwrap();
        assert_eq!(bounds.get("setup_s"), Some(&0.25));
        assert!(load_bounds(r#"{"end_to_end": [{"name": "x"}]}"#).is_err());
    }

    #[test]
    fn compare_pairs_up_workloads_and_metrics() {
        let result = |v: f64| {
            serde_json::from_str::<Value>(&format!(
                r#"{{"workloads": [{{"name": "headline", "end_to_end": {{
                    "sim_minstr_per_s": {{"unit": "Minstr/s", "samples": [{v}, {v}, {v}]}},
                    "paper_gap_pp": {{"unit": "pp", "samples": [12.0, 12.0, 12.0]}}}}}}]}}"#
            ))
            .unwrap()
        };
        let bounds = BTreeMap::from([("sim_minstr_per_s".to_string(), 0.1)]);
        let rows = compare(&result(100.0), &result(80.0), &bounds).unwrap();
        assert_eq!(rows.len(), 2);
        let sim = rows
            .iter()
            .find(|r| r.metric == "sim_minstr_per_s")
            .unwrap();
        assert_eq!(sim.verdict, Verdict::Regressed);
        let gap = rows.iter().find(|r| r.metric == "paper_gap_pp").unwrap();
        assert_eq!((gap.bound, gap.verdict), (0.0, Verdict::WithinBound));
    }
}
