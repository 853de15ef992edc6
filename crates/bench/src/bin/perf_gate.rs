//! Microbench half of the same-runner perf gate
//! (`benchmarks/same_runner_gate.py`): compares the parent's and the
//! change's `ACE_MICROBENCH_JSON` streams and fails (exit 1) when any
//! benchmark's median ns/iter in the change is more than 50 % above the
//! parent's.
//!
//! ```text
//! perf_gate <parent.jsonl> <change.jsonl>
//! ```
//!
//! Each stream holds one `{"name":"<group>/<bench>","ns_per_iter":N}`
//! line per benchmark per `cargo bench -p ace-bench` run, so a name
//! repeats once per run and the gate compares the per-name medians. A
//! benchmark in only one stream (added or removed by the change) is
//! listed but does not gate. Exit 2 on an unreadable stream.

use serde::Deserialize;
use std::process::ExitCode;

/// How much slower, as a share of the parent's median, a benchmark may
/// read before it gates: single-digit-nanosecond loops swing harder with
/// host state than whole workloads do.
const THRESHOLD: f64 = 0.5;

#[derive(Deserialize)]
struct Record {
    name: String,
    ns_per_iter: f64,
}

/// One benchmark's medians; `None` on the side that lacks it.
#[derive(Debug, PartialEq)]
struct Row {
    name: String,
    parent: Option<f64>,
    change: Option<f64>,
}

impl Row {
    fn regressed(&self) -> bool {
        matches!((self.parent, self.change), (Some(p), Some(c)) if c > p * (1.0 + THRESHOLD))
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Per-name medians, in first-seen order.
fn medians(records: &[(String, f64)]) -> Vec<(String, f64)> {
    let mut groups: Vec<(String, Vec<f64>)> = Vec::new();
    for (name, ns) in records {
        match groups.iter_mut().find(|(n, _)| n == name) {
            Some((_, samples)) => samples.push(*ns),
            None => groups.push((name.clone(), vec![*ns])),
        }
    }
    groups
        .into_iter()
        .map(|(name, samples)| (name, median(samples)))
        .collect()
}

/// One row per benchmark: the parent's in stream order, then those only
/// the change has.
fn compare(parent: &[(String, f64)], change: &[(String, f64)]) -> Vec<Row> {
    let parent = medians(parent);
    let change = medians(change);
    let lookup =
        |side: &[(String, f64)], name: &str| side.iter().find(|(n, _)| n == name).map(|&(_, m)| m);
    let mut rows: Vec<Row> = parent
        .iter()
        .map(|(name, m)| Row {
            name: name.clone(),
            parent: Some(*m),
            change: lookup(&change, name),
        })
        .collect();
    for (name, m) in &change {
        if lookup(&parent, name).is_none() {
            rows.push(Row {
                name: name.clone(),
                parent: None,
                change: Some(*m),
            });
        }
    }
    rows
}

fn load(path: &str) -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            serde_json::from_str::<Record>(line)
                .map(|r| (r.name, r.ns_per_iter))
                .map_err(|e| format!("{path}: {e}"))
        })
        .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [parent, change] = args.as_slice() else {
        eprintln!("usage: perf_gate <parent.jsonl> <change.jsonl>");
        return ExitCode::from(2);
    };
    let (parent, change) = match (load(parent), load(change)) {
        (Ok(p), Ok(c)) => (p, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perf_gate: {e}");
            return ExitCode::from(2);
        }
    };
    let rows = compare(&parent, &change);
    let cell = |m: Option<f64>| m.map_or_else(|| "-".to_string(), |v| format!("{v:.1}"));
    println!(
        "{:<44} {:>12} {:>12} {:>8}  verdict (> +{:.0}% regresses)",
        "benchmark (median ns/iter)",
        "parent",
        "change",
        "delta",
        THRESHOLD * 100.0
    );
    for row in &rows {
        let (delta, verdict) = match (row.parent, row.change) {
            (Some(p), Some(c)) => (
                format!("{:>+7.1}%", (c / p - 1.0) * 100.0),
                if row.regressed() { "REGRESSED" } else { "ok" },
            ),
            _ => (String::new(), "one side only"),
        };
        println!(
            "{:<44} {:>12} {:>12} {delta:>8}  {verdict}",
            row.name,
            cell(row.parent),
            cell(row.change)
        );
    }
    let regressed = rows.iter().filter(|r| r.regressed()).count();
    println!("{} benchmarks, {regressed} regressed", rows.len());
    if regressed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(records: &[(&str, f64)]) -> Vec<(String, f64)> {
        records.iter().map(|&(n, v)| (n.to_string(), v)).collect()
    }

    #[test]
    fn medians_pool_repeated_names() {
        let runs = stream(&[
            ("cache/a", 10.0),
            ("cache/b", 4.0),
            ("cache/a", 30.0),
            ("cache/a", 12.0),
            ("cache/b", 6.0),
        ]);
        assert_eq!(
            medians(&runs),
            stream(&[("cache/a", 12.0), ("cache/b", 5.0)])
        );
    }

    #[test]
    fn only_a_slowdown_past_half_gates() {
        let parent = stream(&[("a", 100.0), ("b", 100.0), ("a", 102.0), ("b", 98.0)]);
        // `a` reads 1.1x slower, `b` 2x slower.
        let change = stream(&[("a", 110.0), ("b", 200.0), ("a", 112.2), ("b", 196.0)]);
        let rows = compare(&parent, &change);
        let flagged: Vec<&str> = rows
            .iter()
            .filter(|r| r.regressed())
            .map(|r| r.name.as_str())
            .collect();
        assert_eq!(flagged, vec!["b"]);
    }

    #[test]
    fn one_sided_rows_are_listed_but_never_gate() {
        let parent = stream(&[("kept", 10.0), ("removed", 10.0)]);
        let change = stream(&[("kept", 10.0), ("added", 1e9)]);
        let rows = compare(&parent, &change);
        assert_eq!(
            rows,
            vec![
                Row {
                    name: "kept".into(),
                    parent: Some(10.0),
                    change: Some(10.0)
                },
                Row {
                    name: "removed".into(),
                    parent: Some(10.0),
                    change: None
                },
                Row {
                    name: "added".into(),
                    parent: None,
                    change: Some(1e9)
                },
            ]
        );
        assert!(rows.iter().all(|r| !r.regressed()));
    }
}
