//! Chrome trace-event export.
//!
//! Renders an [`Analysis`] as Chrome trace-event JSON — the format
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev) load
//! directly. There is no wall-clock in a telemetry stream, so the
//! exporter maps the run's *architectural* counters onto the trace
//! timebase: one synthetic process per counter domain, with the raw
//! counter value used as the microsecond timestamp.
//!
//! * **pid 1 — instret domain**: the DO system's promotion instants, the
//!   phase timeline as duration slices, one track per tuning scope with
//!   episode slices and trial instants, and IPC/EPI counter tracks
//!   sampled at phase-segment boundaries.
//! * **pid 2 — cycle domain**: one track per configurable unit carrying
//!   reconfiguration instants plus a size-level counter track.
//!
//! The output is a deterministic function of the analysis: track ids are
//! assigned in scope order and every list is emitted in analysis order,
//! so two identically seeded runs export byte-identical traces.

use crate::analysis::{Analysis, EpisodeOutcome};
use ace_telemetry::CuId;
use serde::Value;

const PID_INSTRET: u64 = 1;
const PID_CYCLE: u64 = 2;
const TID_DO: u64 = 1;
const TID_PHASES: u64 = 2;
/// Harness spans render on this track in both domains.
const TID_SPANS: u64 = 3;
/// Scope tracks start here, one tid per scope in `Ord` order.
const TID_SCOPE_BASE: u64 = 10;

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn s(text: impl Into<String>) -> Value {
    Value::Str(text.into())
}

fn meta(name: &str, pid: u64, tid: Option<u64>, value: &str) -> Value {
    let mut pairs = vec![("name", s(name)), ("ph", s("M")), ("pid", Value::U64(pid))];
    if let Some(tid) = tid {
        pairs.push(("tid", Value::U64(tid)));
    }
    pairs.push(("args", obj(vec![("name", s(value))])));
    obj(pairs)
}

fn instant(name: String, pid: u64, tid: u64, ts: u64, args: Value) -> Value {
    obj(vec![
        ("name", s(name)),
        ("ph", s("i")),
        ("s", s("t")),
        ("pid", Value::U64(pid)),
        ("tid", Value::U64(tid)),
        ("ts", Value::U64(ts)),
        ("args", args),
    ])
}

fn slice(name: String, pid: u64, tid: u64, ts: u64, dur: u64, args: Value) -> Value {
    obj(vec![
        ("name", s(name)),
        ("ph", s("X")),
        ("pid", Value::U64(pid)),
        ("tid", Value::U64(tid)),
        ("ts", Value::U64(ts)),
        // Zero-duration slices render invisibly; clamp to one tick.
        ("dur", Value::U64(dur.max(1))),
        ("args", args),
    ])
}

fn counter(name: &str, pid: u64, ts: u64, series: Vec<(&str, f64)>) -> Value {
    obj(vec![
        ("name", s(name)),
        ("ph", s("C")),
        ("pid", Value::U64(pid)),
        ("ts", Value::U64(ts)),
        (
            "args",
            obj(series
                .into_iter()
                .map(|(k, v)| (k, Value::F64(v)))
                .collect()),
        ),
    ])
}

/// Renders the analysis as a Chrome trace-event JSON document.
///
/// Load the resulting string (saved as a `.json` file) in
/// `chrome://tracing` or Perfetto. Timestamps are the raw architectural
/// counters interpreted as microseconds.
pub fn chrome_trace(analysis: &Analysis) -> String {
    // --- metadata: name the synthetic processes and threads ------------
    let mut events: Vec<Value> = vec![
        meta("process_name", PID_INSTRET, None, "instret domain"),
        meta("process_name", PID_CYCLE, None, "cycle domain"),
        meta("thread_name", PID_INSTRET, Some(TID_DO), "do-system"),
        meta("thread_name", PID_INSTRET, Some(TID_PHASES), "phases"),
    ];
    for (i, scope) in analysis.scopes.iter().enumerate() {
        events.push(meta(
            "thread_name",
            PID_INSTRET,
            Some(TID_SCOPE_BASE + i as u64),
            &format!("tune {}", scope.scope.label()),
        ));
    }
    for cu in CuId::ALL {
        events.push(meta(
            "thread_name",
            PID_CYCLE,
            Some(cu.index() as u64 + 1),
            &format!("cu {}", cu.name()),
        ));
    }
    // Span tracks (and their metadata) appear only in obs-instrumented
    // traces, keeping pre-obs exports byte-identical.
    if !analysis.spans.is_empty() {
        events.push(meta("thread_name", PID_INSTRET, Some(TID_SPANS), "spans"));
        events.push(meta(
            "thread_name",
            PID_CYCLE,
            Some(TID_SPANS + 100),
            "spans",
        ));
    }

    // --- instret domain: DO system promotions ---------------------------
    for p in &analysis.promotions {
        events.push(instant(
            format!("promote method {}", p.method),
            PID_INSTRET,
            TID_DO,
            p.instret,
            obj(vec![("invocations", Value::U64(p.invocations))]),
        ));
    }

    // --- instret domain: phase segments + IPC/EPI counters --------------
    for seg in &analysis.phases.segments {
        events.push(slice(
            format!("phase {}", seg.phase),
            PID_INSTRET,
            TID_PHASES,
            seg.start_instret,
            seg.end_instret - seg.start_instret,
            obj(vec![
                ("intervals", Value::U64(seg.intervals())),
                ("stable", Value::U64(seg.stable)),
                ("mean_ipc", Value::F64(seg.mean_ipc)),
                ("mean_epi_nj", Value::F64(seg.mean_epi_nj)),
            ]),
        ));
        events.push(counter(
            "ipc",
            PID_INSTRET,
            seg.start_instret,
            vec![("ipc", seg.mean_ipc)],
        ));
        events.push(counter(
            "epi_nj",
            PID_INSTRET,
            seg.start_instret,
            vec![("epi_nj", seg.mean_epi_nj)],
        ));
    }

    // --- instret domain: one track per tuning scope ----------------------
    for (i, scope) in analysis.scopes.iter().enumerate() {
        let tid = TID_SCOPE_BASE + i as u64;
        for episode in &scope.episodes {
            let mut args = vec![
                ("outcome", s(episode.outcome.name())),
                ("configs", Value::U64(u64::from(episode.configs))),
                ("trials", Value::U64(episode.trials.len() as u64)),
            ];
            if episode.outcome == EpisodeOutcome::Converged {
                args.push(("ipc", Value::F64(episode.converged_ipc.unwrap_or(0.0))));
                args.push((
                    "epi_nj",
                    Value::F64(episode.converged_epi_nj.unwrap_or(0.0)),
                ));
            }
            events.push(slice(
                format!("tune {} ({})", scope.scope.label(), episode.outcome.name()),
                PID_INSTRET,
                tid,
                episode.started_instret,
                episode.span_instr(),
                obj(args),
            ));
            for trial in &episode.trials {
                events.push(instant(
                    format!("trial {}", trial.trial),
                    PID_INSTRET,
                    tid,
                    trial.instret,
                    obj(vec![
                        ("ipc", Value::F64(trial.ipc)),
                        ("epi_nj", Value::F64(trial.epi_nj)),
                    ]),
                ));
            }
        }
    }

    // --- both domains: harness spans -------------------------------------
    for span in &analysis.spans {
        let args = obj(vec![
            ("depth", Value::U64(u64::from(span.depth))),
            ("open", Value::Bool(span.open)),
        ]);
        events.push(slice(
            format!("span {}", span.name),
            PID_INSTRET,
            TID_SPANS,
            span.begin_instret,
            span.span_instr(),
            args.clone(),
        ));
        // The cycle-domain copy only helps when the span actually carried
        // cycle stamps.
        if span.end_cycle > 0 {
            events.push(slice(
                format!("span {}", span.name),
                PID_CYCLE,
                TID_SPANS + 100,
                span.begin_cycle,
                span.span_cycles(),
                args,
            ));
        }
    }

    // --- cycle domain: reconfigurations + level counters ------------------
    for r in &analysis.reconfigs {
        let tid = r.cu.index() as u64 + 1;
        events.push(instant(
            format!(
                "{} L{} -> L{} ({})",
                r.cu.name(),
                r.from,
                r.to,
                r.cause.name()
            ),
            PID_CYCLE,
            tid,
            r.cycle,
            obj(vec![
                ("from", Value::U64(u64::from(r.from))),
                ("to", Value::U64(u64::from(r.to))),
                ("cause", s(r.cause.name())),
            ]),
        ));
        events.push(counter(
            &format!("{} level", r.cu.name()),
            PID_CYCLE,
            r.cycle,
            vec![("level", f64::from(r.to))],
        ));
    }

    let doc = obj(vec![
        ("displayTimeUnit", s("ms")),
        ("traceEvents", Value::Array(events)),
    ]);
    serde_json::to_string(&doc).expect("value tree always serializes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_telemetry::{Event, ReconfigCause, Scope};
    use serde::find_field;

    fn sample() -> Analysis {
        let scope = Scope::Phase { phase: 0 };
        Analysis::of(&[
            Event::HotspotPromoted {
                method: 1,
                invocations: 9,
                instret: 10,
            },
            Event::TuningStarted {
                scope,
                configs: 4,
                instret: 100,
            },
            Event::TuningStep {
                scope,
                trial: 0,
                ipc: 1.0,
                epi_nj: 0.5,
                instret: 150,
            },
            Event::TuningConverged {
                scope,
                trials: 1,
                ipc: 1.0,
                epi_nj: 0.5,
                instret: 200,
            },
            Event::Reconfigured {
                cu: CuId::L1d,
                from: 0,
                to: 3,
                cause: ReconfigCause::Apply,
                cycle: 250,
            },
            Event::IntervalSample {
                phase: 0,
                index: 0,
                ipc: 1.1,
                epi_nj: 0.45,
                stable: false,
                instret: 300,
            },
        ])
    }

    #[test]
    fn export_parses_and_has_the_expected_shape() {
        let json = chrome_trace(&sample());
        let doc: Value = serde_json::from_str(&json).expect("export must be valid JSON");
        let root = doc.as_object().expect("root object");
        let trace_events = find_field(root, "traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents array");
        assert!(!trace_events.is_empty());
        // Every event is an object with name/ph/pid.
        for event in trace_events {
            let pairs = event.as_object().expect("event object");
            for key in ["name", "ph", "pid"] {
                assert!(find_field(pairs, key).is_some(), "event missing {key}");
            }
        }
        // Both counter domains are present and named.
        let phases: Vec<&str> = trace_events
            .iter()
            .filter_map(|e| find_field(e.as_object().unwrap(), "ph"))
            .filter_map(|v| match v {
                Value::Str(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        for ph in ["M", "i", "X", "C"] {
            assert!(phases.contains(&ph), "missing phase type {ph}");
        }
    }

    #[test]
    fn slice_durations_are_clamped_to_one_tick() {
        // A converged episode whose start == end would render invisibly.
        let scope = Scope::Hotspot { method: 5 };
        let analysis = Analysis::of(&[
            Event::TuningStarted {
                scope,
                configs: 1,
                instret: 100,
            },
            Event::TuningConverged {
                scope,
                trials: 0,
                ipc: 1.0,
                epi_nj: 0.5,
                instret: 100,
            },
        ]);
        let json = chrome_trace(&analysis);
        let doc: Value = serde_json::from_str(&json).unwrap();
        let trace_events = find_field(doc.as_object().unwrap(), "traceEvents")
            .and_then(Value::as_array)
            .unwrap();
        let durs: Vec<u64> = trace_events
            .iter()
            .filter_map(|e| find_field(e.as_object().unwrap(), "dur"))
            .filter_map(Value::as_u64)
            .collect();
        assert!(!durs.is_empty());
        assert!(durs.iter().all(|&d| d >= 1));
    }

    #[test]
    fn export_is_deterministic() {
        let analysis = sample();
        assert_eq!(chrome_trace(&analysis), chrome_trace(&analysis.clone()));
    }
}
