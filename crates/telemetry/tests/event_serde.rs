//! The event wire format is a contract: `JsonlSink` encodes it, the
//! trace reader (`ace-trace` via [`ace_telemetry::EventStream`]) decodes
//! it, and recorded traces outlive both. Two layers of protection:
//!
//! * a property test round-tripping randomly generated events of every
//!   variant through the JSONL encoding, and
//! * a fixture test pinning the exact line encoding of every variant,
//!   so an accidental field rename/reorder fails loudly instead of
//!   silently orphaning existing traces.

use ace_telemetry::{CuId, Event, EventKind, EventStream, ReconfigCause, Scope, SpanName};
use proptest::prelude::*;

fn scope_from(tag: u8, id: u32) -> Scope {
    match tag % 3 {
        0 => Scope::Hotspot { method: id },
        1 => Scope::Phase { phase: id },
        _ => Scope::Procedure { method: id },
    }
}

#[allow(clippy::too_many_arguments)] // one parameter per proptest strategy
fn build_event(
    kind: u8,
    scope: Scope,
    id: u32,
    big: u64,
    instret: u64,
    ipc: f64,
    epi_nj: f64,
    stable: bool,
) -> Event {
    match kind % 14 {
        0 => Event::HotspotPromoted {
            method: id,
            invocations: big,
            instret,
        },
        1 => Event::TuningStarted {
            scope,
            configs: id % 64 + 1,
            instret,
        },
        2 => Event::TuningStep {
            scope,
            trial: id % 64,
            ipc,
            epi_nj,
            instret,
        },
        3 => Event::TuningConverged {
            scope,
            trials: id % 64 + 1,
            ipc,
            epi_nj,
            instret,
        },
        4 => Event::Reconfigured {
            cu: CuId::ALL[(id % 3) as usize],
            from: (id % 4) as u8,
            to: (big % 4) as u8,
            cause: [
                ReconfigCause::Trial,
                ReconfigCause::Apply,
                ReconfigCause::Reset,
            ][(id % 3) as usize],
            cycle: instret,
        },
        5 => Event::DriftRetune {
            scope,
            drift: ipc,
            instret,
        },
        6 => Event::IntervalSample {
            phase: id,
            index: big,
            ipc,
            epi_nj,
            stable,
            instret,
        },
        7 => Event::WarmStartHit {
            scope,
            signature: big,
            trials_saved: id % 64,
            instret,
        },
        8 => Event::WarmStartMiss {
            scope,
            signature: big,
            instret,
        },
        9 => Event::StorePublish {
            scope,
            signature: big,
            epi_nj,
            instret,
        },
        10 => Event::PdmPredictHit {
            scope,
            distance: ipc,
            trials_saved: id % 64,
            instret,
        },
        11 => Event::PdmPredictMiss {
            scope,
            distance: ipc,
            instret,
        },
        12 => Event::SpanBegin {
            name: SpanName::new(if stable { "wave" } else { "drive" }),
            instret,
            cycle: big,
        },
        _ => Event::SpanEnd {
            name: SpanName::new(if stable { "wave" } else { "drive" }),
            instret,
            cycle: big,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn jsonl_encoding_round_trips_every_variant(
        kind in 0u8..14,
        scope_tag in 0u8..3,
        id in 0u32..1_000_000,
        big in 0u64..1_000_000_000_000,
        instret in 0u64..1_000_000_000_000,
        ipc in 0.0f64..8.0,
        epi_nj in 0.0f64..4.0,
        stable in any::<bool>(),
    ) {
        let scope = scope_from(scope_tag, id);
        let event = build_event(kind, scope, id, big, instret, ipc, epi_nj, stable);
        let line = serde_json::to_string(&event).expect("event serializes");
        let back: Event = serde_json::from_str(&line)
            .unwrap_or_else(|e| panic!("line {line:?} must decode: {e}"));
        prop_assert_eq!(back, event);
        // The streaming reader sees the same thing a file would contain.
        let streamed: Vec<Event> = EventStream::new(format!("{line}\n").as_bytes())
            .collect::<Result<_, _>>()
            .expect("stream decodes");
        prop_assert_eq!(streamed, vec![event]);
    }
}

/// One canonical instance of each variant, with its pinned encoding.
/// These strings are the on-disk format of every recorded trace: do NOT
/// update them to make the test pass without bumping the trace tooling.
fn fixtures() -> Vec<(Event, &'static str)> {
    vec![
        (
            Event::HotspotPromoted {
                method: 6,
                invocations: 5,
                instret: 524620,
            },
            r#"{"HotspotPromoted":{"method":6,"invocations":5,"instret":524620}}"#,
        ),
        (
            Event::TuningStarted {
                scope: Scope::Hotspot { method: 6 },
                configs: 16,
                instret: 600000,
            },
            r#"{"TuningStarted":{"scope":{"Hotspot":{"method":6}},"configs":16,"instret":600000}}"#,
        ),
        (
            Event::TuningStep {
                scope: Scope::Hotspot { method: 6 },
                trial: 2,
                ipc: 1.25,
                epi_nj: 0.5,
                instret: 700000,
            },
            r#"{"TuningStep":{"scope":{"Hotspot":{"method":6}},"trial":2,"ipc":1.25,"epi_nj":0.5,"instret":700000}}"#,
        ),
        (
            Event::TuningConverged {
                scope: Scope::Phase { phase: 3 },
                trials: 9,
                ipc: 2.5,
                epi_nj: 0.375,
                instret: 800000,
            },
            r#"{"TuningConverged":{"scope":{"Phase":{"phase":3}},"trials":9,"ipc":2.5,"epi_nj":0.375,"instret":800000}}"#,
        ),
        (
            Event::Reconfigured {
                cu: CuId::L2,
                from: 0,
                to: 3,
                cause: ReconfigCause::Apply,
                cycle: 900000,
            },
            r#"{"Reconfigured":{"cu":"L2","from":0,"to":3,"cause":"Apply","cycle":900000}}"#,
        ),
        (
            Event::DriftRetune {
                scope: Scope::Procedure { method: 11 },
                drift: 0.125,
                instret: 1000000,
            },
            r#"{"DriftRetune":{"scope":{"Procedure":{"method":11}},"drift":0.125,"instret":1000000}}"#,
        ),
        (
            Event::IntervalSample {
                phase: 4,
                index: 17,
                ipc: 1.5,
                epi_nj: 0.75,
                stable: true,
                instret: 1100000,
            },
            r#"{"IntervalSample":{"phase":4,"index":17,"ipc":1.5,"epi_nj":0.75,"stable":true,"instret":1100000}}"#,
        ),
        (
            Event::WarmStartHit {
                scope: Scope::Hotspot { method: 6 },
                signature: 81985529216486895,
                trials_saved: 3,
                instret: 1200000,
            },
            r#"{"WarmStartHit":{"scope":{"Hotspot":{"method":6}},"signature":81985529216486895,"trials_saved":3,"instret":1200000}}"#,
        ),
        (
            Event::WarmStartMiss {
                scope: Scope::Hotspot { method: 7 },
                signature: 81985529216486895,
                instret: 1300000,
            },
            r#"{"WarmStartMiss":{"scope":{"Hotspot":{"method":7}},"signature":81985529216486895,"instret":1300000}}"#,
        ),
        (
            Event::StorePublish {
                scope: Scope::Hotspot { method: 6 },
                signature: 81985529216486895,
                epi_nj: 0.5,
                instret: 1400000,
            },
            r#"{"StorePublish":{"scope":{"Hotspot":{"method":6}},"signature":81985529216486895,"epi_nj":0.5,"instret":1400000}}"#,
        ),
        (
            Event::PdmPredictHit {
                scope: Scope::Hotspot { method: 6 },
                distance: 0.125,
                trials_saved: 3,
                instret: 1500000,
            },
            r#"{"PdmPredictHit":{"scope":{"Hotspot":{"method":6}},"distance":0.125,"trials_saved":3,"instret":1500000}}"#,
        ),
        (
            Event::PdmPredictMiss {
                scope: Scope::Hotspot { method: 7 },
                distance: 0.75,
                instret: 1600000,
            },
            r#"{"PdmPredictMiss":{"scope":{"Hotspot":{"method":7}},"distance":0.75,"instret":1600000}}"#,
        ),
        (
            Event::SpanBegin {
                name: SpanName::new("wave"),
                instret: 1700000,
                cycle: 3400000,
            },
            r#"{"SpanBegin":{"name":"wave","instret":1700000,"cycle":3400000}}"#,
        ),
        (
            Event::SpanEnd {
                name: SpanName::new("wave"),
                instret: 1800000,
                cycle: 3600000,
            },
            r#"{"SpanEnd":{"name":"wave","instret":1800000,"cycle":3600000}}"#,
        ),
    ]
}

#[test]
fn fixture_pins_the_exact_jsonl_encoding() {
    let fixtures = fixtures();
    // One fixture per variant, in EventKind order — extending Event must
    // extend this fixture set.
    assert_eq!(fixtures.len(), Event::NUM_KINDS);
    for (i, (event, _)) in fixtures.iter().enumerate() {
        assert_eq!(event.kind(), EventKind::ALL[i]);
    }
    for (event, line) in &fixtures {
        assert_eq!(
            &serde_json::to_string(event).unwrap(),
            line,
            "encoder drifted for {:?}",
            event.kind()
        );
        let back: Event = serde_json::from_str(line).unwrap();
        assert_eq!(back, *event, "decoder drifted for {:?}", event.kind());
    }
}

#[test]
fn fixture_stream_decodes_as_a_whole_trace() {
    let fixtures = fixtures();
    let text: String = fixtures
        .iter()
        .map(|(_, line)| format!("{line}\n"))
        .collect();
    let events: Vec<Event> = EventStream::new(text.as_bytes())
        .collect::<Result<_, _>>()
        .unwrap();
    let expected: Vec<Event> = fixtures.iter().map(|(e, _)| *e).collect();
    assert_eq!(events, expected);
}
