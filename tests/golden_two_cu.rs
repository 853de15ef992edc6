//! Two-CU equivalence goldens: pins the headline summaries and the full
//! telemetry event streams of seeded paper experiments to fixture bytes
//! captured before the registry-driven CU refactor.
//!
//! The paper's experiments configure exactly the L1D and L2 caches (plus
//! the vestigial window CU). The CU-registry refactor must not perturb a
//! single byte of what those runs measure or emit, so this test extends
//! the `golden_counters.rs` pattern one layer up: from raw machine
//! counters to the manager layer (scheme reports and telemetry streams).
//!
//! Regenerate fixtures (only legitimate after an *intentional* behaviour
//! change, never to paper over a refactor diff):
//!
//! ```text
//! ACE_BLESS_GOLDEN=1 cargo test --test golden_two_cu
//! ```
//!
//! The threaded case pins the time-multiplexed path the same way: the
//! dual-threaded mtrt under the hotspot scheme, capped short of its
//! natural end so the stop-at-limit behaviour is part of the fixture.
//!
//! The `pdm` cases pin Phase Distance Mapping's predictions on top of the
//! hotspot substrate: db predicts nothing, jess adopts four selections.

use ace::core::{Experiment, SchemeExt};
use ace::sim::CuId;
use ace::telemetry::Telemetry;
use std::fmt::Write as _;
use std::path::PathBuf;

const SEED: u64 = 42;

const CASES: &[(&str, &str)] = &[
    ("db", "hotspot"),
    ("db", "bbv"),
    ("jess", "hotspot"),
    ("jess", "bbv"),
    ("db", "pdm"),
    ("jess", "pdm"),
];

/// Scheduler quantum of the threaded case, in instructions.
const THREADED_QUANTUM: u64 = 1_000_000;

/// Instruction cap of the threaded case: well short of the program's
/// natural length, so the run ends at the limit.
const THREADED_LIMIT: u64 = 20_000_000;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

/// Runs one seeded case, returning (telemetry stream, headline digest).
fn run_case(experiment: Experiment, scheme: &str) -> (String, String) {
    let (tel, buffer) = Telemetry::buffered();
    let run = experiment
        .scheme(scheme)
        .seed(SEED)
        .telemetry(&tel)
        .run_scheme()
        .expect("seeded golden run succeeds");
    let mut stream = String::new();
    for ev in &buffer.drain() {
        stream.push_str(&serde_json::to_string(ev).expect("event serializes"));
        stream.push('\n');
    }
    (stream, digest(scheme, &run))
}

/// Renders the headline summary through stable accessors only; `{:?}`
/// float formatting makes any bit-level drift visible.
fn digest(scheme: &str, run: &ace::core::SchemeRun) -> String {
    let r = &run.record;
    let mut out = String::new();
    let _ = writeln!(out, "workload {} scheme {scheme}", r.workload);
    let _ = writeln!(out, "instret {}", r.instret);
    let _ = writeln!(out, "cycles {}", r.cycles);
    let _ = writeln!(out, "ipc {:?}", r.ipc);
    let _ = writeln!(out, "l1d_nj {:?}", r.energy.l1d_nj);
    let _ = writeln!(out, "l2_nj {:?}", r.energy.l2_nj);
    let _ = writeln!(out, "window_nj {:?}", r.energy.window_nj);
    let _ = writeln!(out, "total_nj {:?}", r.energy.total_nj());
    let _ = writeln!(out, "guard_rejections {}", r.counters.guard_rejections);
    let _ = writeln!(out, "table4_hotspots {}", r.table4.hotspots);
    let _ = writeln!(out, "do_jit {}", r.do_stats.jit_compilations);
    let _ = writeln!(out, "do_instr_in_hotspots {}", r.do_stats.instr_in_hotspots);
    match &run.report.ext {
        SchemeExt::Hotspot(h) => hotspot_digest(&mut out, h),
        SchemeExt::Pdm(p) => {
            hotspot_digest(&mut out, &p.base);
            let _ = writeln!(
                out,
                "predict hits {} misses {} trials_saved {} known_phases {}",
                p.predict_hits, p.predict_misses, p.predicted_trials_saved, p.known_phases
            );
        }
        SchemeExt::Bbv(b) => {
            let _ = writeln!(out, "phases {} tuned {}", b.phases, b.tuned_phases);
            let _ = writeln!(
                out,
                "intervals {} in_tuned {}",
                b.intervals, b.intervals_in_tuned_phases
            );
            let _ = writeln!(
                out,
                "tunings {} reconfigs {} covered {}",
                b.tunings, b.reconfigs, b.covered_instr
            );
            let _ = writeln!(out, "per_phase_ipc_cov {:?}", b.per_phase_ipc_cov);
            let _ = writeln!(out, "inter_phase_ipc_cov {:?}", b.inter_phase_ipc_cov);
            let _ = writeln!(out, "misattributed_trials {}", b.misattributed_trials);
            let _ = writeln!(
                out,
                "predictions {} accuracy {:?}",
                b.predictions, b.prediction_accuracy
            );
            let _ = writeln!(
                out,
                "stability stable {} transitional {}",
                b.stability.stable_intervals, b.stability.transitional_intervals
            );
        }
        _ => unreachable!("golden cases are Hotspot/Bbv/Pdm only"),
    }
    out
}

/// The hotspot-substrate counters, shared by the hotspot and PDM digests.
fn hotspot_digest(out: &mut String, h: &ace::core::HotspotReport) {
    let _ = writeln!(
        out,
        "hotspots window {} l1d {} l2 {} small {} tuned {}",
        h.hotspots_of(CuId::Window),
        h.l1d_hotspots(),
        h.l2_hotspots(),
        h.small_hotspots,
        h.tuned_hotspots
    );
    for (name, s) in [
        ("window", h.stats(CuId::Window)),
        ("l1d", h.l1d()),
        ("l2", h.l2()),
    ] {
        let _ = writeln!(
            out,
            "cu {name} tunings {} reconfigs {} covered {}",
            s.tunings, s.reconfigs, s.covered_instr
        );
    }
    let _ = writeln!(out, "per_hotspot_ipc_cov {:?}", h.per_hotspot_ipc_cov);
    let _ = writeln!(out, "inter_hotspot_ipc_cov {:?}", h.inter_hotspot_ipc_cov);
    let _ = writeln!(out, "retunings {}", h.retunings);
    let _ = writeln!(out, "report_guard_rejections {}", h.guard_rejections);
}

/// Compares one case against its fixtures, or rewrites them under
/// `ACE_BLESS_GOLDEN`.
fn check_fixture(stem: &str, stream: &str, digest: &str) {
    let dir = fixture_dir();
    let events_path = dir.join(format!("{stem}.events.jsonl"));
    let digest_path = dir.join(format!("{stem}.digest.txt"));
    if std::env::var_os("ACE_BLESS_GOLDEN").is_some() {
        std::fs::create_dir_all(&dir).expect("create fixture dir");
        std::fs::write(&events_path, stream).expect("write events fixture");
        std::fs::write(&digest_path, digest).expect("write digest fixture");
        return;
    }
    let want_digest = std::fs::read_to_string(&digest_path)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", digest_path.display()));
    assert_eq!(
        digest, want_digest,
        "{stem}: headline digest drifted from pre-refactor bytes"
    );
    let want_stream = std::fs::read_to_string(&events_path)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", events_path.display()));
    if stream != want_stream {
        let got: Vec<&str> = stream.lines().collect();
        let want: Vec<&str> = want_stream.lines().collect();
        let first_diff = got
            .iter()
            .zip(want.iter())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| got.len().min(want.len()));
        panic!(
            "{stem}: telemetry stream drifted ({} vs {} events), first diff at line {}:\n  got: {}\n want: {}",
            got.len(),
            want.len(),
            first_diff + 1,
            got.get(first_diff).unwrap_or(&"<eof>"),
            want.get(first_diff).unwrap_or(&"<eof>"),
        );
    }
}

#[test]
fn two_cu_runs_match_pre_refactor_bytes() {
    for &(workload, scheme) in CASES {
        let (stream, digest) = run_case(Experiment::workload(workload), scheme);
        check_fixture(&format!("{workload}-{scheme}"), &stream, &digest);
    }
}

#[test]
fn threaded_mtrt_matches_fixture_bytes() {
    let (program, entries) = ace::workloads::mtrt_threaded();
    let experiment = Experiment::program(program)
        .threaded(&entries, THREADED_QUANTUM)
        .instruction_limit(THREADED_LIMIT);
    let (stream, digest) = run_case(experiment, "hotspot");
    assert!(
        digest.starts_with("workload mtrt-mt(2T) "),
        "threaded records are named after their thread count:\n{digest}"
    );
    check_fixture("mtrt-threaded-hotspot", &stream, &digest);
}
