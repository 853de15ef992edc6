//! End-to-end checks of the `ace-telemetry` wiring: events are
//! deterministic across identical runs, and the decision stream agrees
//! with the counters the managers report through [`HotspotReport`].

use ace::core::{Experiment, HotspotAceManager, HotspotManagerConfig};
use ace::energy::EnergyModel;
use ace::sim::CuId;
use ace::telemetry::{Event, EventKind, ReconfigCause, Telemetry};

fn traced_run(workload: &str, limit: u64) -> (Vec<Event>, ace::core::HotspotReport) {
    let (telemetry, buffer) = Telemetry::buffered();
    let mut mgr = HotspotAceManager::new(
        HotspotManagerConfig::default(),
        EnergyModel::default_180nm(),
    );
    Experiment::workload(workload)
        .instruction_limit(limit)
        .telemetry(&telemetry)
        .run_with(&mut mgr)
        .expect("valid run");
    (buffer.drain(), mgr.report())
}

#[test]
fn identical_runs_emit_identical_event_streams() {
    let (first, _) = traced_run("db", 20_000_000);
    let (second, _) = traced_run("db", 20_000_000);
    assert!(!first.is_empty(), "a traced db run must emit events");
    assert_eq!(
        first, second,
        "event streams must be bit-identical across runs"
    );
}

#[test]
fn compress_trace_matches_hotspot_report() {
    let (events, report) = traced_run("compress", 60_000_000);

    let applies = events
        .iter()
        .filter(|e| {
            matches!(
                e,
                Event::Reconfigured {
                    cause: ReconfigCause::Apply,
                    ..
                }
            )
        })
        .count() as u64;
    let reported =
        report.stats(CuId::Window).reconfigs + report.l1d().reconfigs + report.l2().reconfigs;
    assert!(
        applies >= 1,
        "compress must apply at least one configuration"
    );
    assert_eq!(
        applies, reported,
        "apply-cause Reconfigured events must equal the report's reconfig count"
    );

    let converged = events
        .iter()
        .filter(|e| matches!(e, Event::TuningConverged { .. }))
        .count() as u64;
    assert!(converged >= 1, "compress must converge at least one tuner");
    assert!(
        converged >= report.tuned_hotspots,
        "every tuned hotspot ({}) must have announced convergence ({converged})",
        report.tuned_hotspots
    );
}

#[test]
fn jsonl_sink_captures_a_compress_run() {
    let path = std::env::temp_dir().join(format!("ace_telemetry_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    {
        let telemetry = Telemetry::jsonl(&path).expect("temp dir is writable");
        let mut mgr = HotspotAceManager::new(
            HotspotManagerConfig::default(),
            EnergyModel::default_180nm(),
        );
        Experiment::workload("compress")
            .instruction_limit(60_000_000)
            .telemetry(&telemetry)
            .run_with(&mut mgr)
            .expect("valid run");
        telemetry.flush();

        let text = std::fs::read_to_string(&path).expect("telemetry file exists");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines.len() as u64,
            telemetry.total_events(),
            "one JSONL line per emitted event"
        );
        assert!(lines.iter().any(|l| l.contains("Reconfigured")));
        assert!(lines.iter().any(|l| l.contains("TuningConverged")));
        assert_eq!(
            lines.iter().filter(|l| l.contains("Reconfigured")).count() as u64,
            telemetry.count(EventKind::Reconfigured),
        );
    }
    let _ = std::fs::remove_file(&path);
}
