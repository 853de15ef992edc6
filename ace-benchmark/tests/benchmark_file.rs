//! `BENCHMARK.json` at the repository root describes this benchmark to
//! anyone who runs it by the file alone; it must agree with the code.

use ace_benchmark::compare::{as_str, field};
use ace_benchmark::metrics::{self, Audience, Better};
use ace_benchmark::run::DEFAULT_SECONDS;
use ace_benchmark::workload::{self, NAMES};
use serde::Value;

fn benchmark() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    field(v, key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("{key} is a list"))
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    field(v, key)
        .and_then(as_str)
        .unwrap_or_else(|| panic!("{key} is a string"))
}

#[test]
fn top_level_shape() {
    let b = benchmark();
    let keys: Vec<&str> = b
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    assert_eq!(
        sorted,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let paths: Vec<&str> = list(&b, "paths").iter().filter_map(as_str).collect();
    assert_eq!(paths, ["ace-benchmark"]);
    for arg in list(&b, "command").iter().filter_map(as_str) {
        if arg.contains('/') {
            assert!(
                arg.starts_with("ace-benchmark/"),
                "{arg} is outside the benchmark"
            );
        }
    }
    let run_seconds = field(&b, "run_seconds").and_then(Value::as_u64).unwrap();
    assert_eq!(run_seconds as f64, DEFAULT_SECONDS);
}

#[test]
fn workloads_match_the_code() {
    let b = benchmark();
    let listed: Vec<(&str, &str)> = list(&b, "workloads")
        .iter()
        .map(|w| (text(w, "name"), text(w, "why")))
        .collect();
    let code: Vec<(&str, &str)> = NAMES
        .iter()
        .map(|n| (*n, workload::workload(n).unwrap().why))
        .collect();
    assert_eq!(listed, code);
}

#[test]
fn end_to_end_metrics_match_the_driver_facing_definitions() {
    let b = benchmark();
    let listed = list(&b, "end_to_end");
    let code: Vec<_> = metrics::END_TO_END
        .iter()
        .filter(|d| d.audience == Audience::Driver)
        .collect();
    assert_eq!(listed.len(), code.len());
    let mut bounds = Vec::new();
    for (entry, def) in listed.iter().zip(code) {
        assert_eq!(text(entry, "name"), def.name);
        assert_eq!(text(entry, "unit"), def.unit, "{}", def.name);
        assert_eq!(
            Better::parse(text(entry, "better")),
            Some(def.better),
            "{}",
            def.name
        );
        let bound = field(entry, "bound").and_then(Value::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", def.name);
        bounds.push((def.name, bound));
    }
    let setup = bounds.iter().find(|(n, _)| *n == "setup_s").unwrap().1;
    assert!(
        bounds.iter().all(|(_, b)| *b <= setup),
        "setup_s has the largest bound"
    );
}

#[test]
fn per_layer_metrics_match_the_code() {
    let b = benchmark();
    let listed: Vec<(String, String, Option<Better>)> = list(&b, "per_layer")
        .iter()
        .map(|m| {
            (
                text(m, "name").to_string(),
                text(m, "unit").to_string(),
                Better::parse(text(m, "better")),
            )
        })
        .collect();
    let code: Vec<(String, String, Option<Better>)> = metrics::per_layer()
        .into_iter()
        .map(|(n, u, b)| (n, u.to_string(), Some(b)))
        .collect();
    assert_eq!(listed, code);
}
