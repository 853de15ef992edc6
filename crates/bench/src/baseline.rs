//! The perf-baseline file format (`BENCH_run.json`).
//!
//! `run_all --bench-out <path>` serializes one [`BenchRun`] per
//! invocation: one [`BenchEntry`] per headline workload (wall-clock plus
//! the headline energy/slowdown metrics) and one per sibling experiment
//! (wall-clock only). CI stores the file as an artifact; a later run can
//! load both files and compare — the metric fields are deterministic, so
//! any metric delta is a real behaviour change, while the wall fields
//! track harness cost over time.
//!
//! The format is versioned ([`BenchRun::SCHEMA_VERSION`]) and
//! append-friendly: readers must ignore entries whose `kind` they do not
//! know.

use crate::{BenchResult, WorkloadOutcome};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Deterministic headline metrics of one workload (from
/// [`crate::SchemeResults`]); everything here is schedule- and
/// machine-independent.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HeadlineMetrics {
    /// Baseline-run IPC.
    pub baseline_ipc: f64,
    /// Hotspot-scheme L1D energy saving vs baseline, percent.
    pub hotspot_l1d_saving_pct: f64,
    /// Hotspot-scheme L2 energy saving vs baseline, percent.
    pub hotspot_l2_saving_pct: f64,
    /// Hotspot-scheme slowdown vs baseline, percent.
    pub hotspot_slowdown_pct: f64,
    /// BBV-scheme L1D energy saving vs baseline, percent.
    pub bbv_l1d_saving_pct: f64,
    /// BBV-scheme L2 energy saving vs baseline, percent.
    pub bbv_l2_saving_pct: f64,
    /// BBV-scheme slowdown vs baseline, percent.
    pub bbv_slowdown_pct: f64,
}

/// Throughput metrics of one fleet pass — wall-clock-derived, so they
/// live beside `wall_ms` in the baseline (never in deterministic report
/// text) and let `perf_gate` catch fleet throughput regressions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetMetrics {
    /// Machines completed per second of pass wall-clock.
    pub machines_per_sec: f64,
    /// Machines shed by the admission bound (deterministic).
    pub shed: u64,
    /// Store hit rate of the pass in `[0, 1]` (deterministic).
    pub warm_hit_rate: f64,
}

/// One timed unit of `run_all` work.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchEntry {
    /// Entry kind: `"workload"`, `"experiment"`, `"fleet"`, or
    /// `"microbench"`. Readers must ignore kinds they do not know.
    pub kind: String,
    /// Workload preset or experiment name.
    pub name: String,
    /// Worker wall-clock in milliseconds (0 for cache hits).
    /// `microbench` entries carry ns/iter here instead — the gate only
    /// ever compares this field against the same entry in another run,
    /// so the unit just has to be consistent per kind.
    pub wall_ms: f64,
    /// Whether the result came from the content-addressed cache.
    pub cached: bool,
    /// Headline metrics — present for workload entries only.
    pub headline: Option<HeadlineMetrics>,
    /// Fleet throughput metrics — present for fleet entries only.
    #[serde(default)]
    pub fleet: Option<FleetMetrics>,
}

/// One `run_all` invocation's perf baseline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchRun {
    /// Format version ([`BenchRun::SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Version of the bench crate that produced the file.
    pub crate_version: String,
    /// Worker-pool width the run used.
    pub jobs: usize,
    /// One entry per timed unit, in run order.
    pub entries: Vec<BenchEntry>,
}

impl BenchRun {
    /// Current file-format version.
    pub const SCHEMA_VERSION: u32 = 1;

    /// An empty baseline for a run at `jobs` width.
    pub fn new(jobs: usize) -> BenchRun {
        BenchRun {
            schema_version: BenchRun::SCHEMA_VERSION,
            crate_version: env!("CARGO_PKG_VERSION").to_string(),
            jobs,
            entries: Vec::new(),
        }
    }

    /// Appends one headline workload's outcome.
    pub fn push_workload(&mut self, outcome: &WorkloadOutcome) {
        let r = &outcome.results;
        self.entries.push(BenchEntry {
            kind: "workload".to_string(),
            name: r.workload.clone(),
            wall_ms: outcome.wall.as_secs_f64() * 1_000.0,
            cached: outcome.cached,
            headline: Some(HeadlineMetrics {
                baseline_ipc: r.baseline.ipc,
                hotspot_l1d_saving_pct: r.hotspot_l1d_saving_pct(),
                hotspot_l2_saving_pct: r.hotspot_l2_saving_pct(),
                hotspot_slowdown_pct: r.hotspot_slowdown_pct(),
                bbv_l1d_saving_pct: r.bbv_l1d_saving_pct(),
                bbv_l2_saving_pct: r.bbv_l2_saving_pct(),
                bbv_slowdown_pct: r.bbv_slowdown_pct(),
            }),
            fleet: None,
        });
    }

    /// Appends one sibling experiment's timing.
    pub fn push_experiment(&mut self, name: &str, wall: std::time::Duration) {
        self.entries.push(BenchEntry {
            kind: "experiment".to_string(),
            name: name.to_string(),
            wall_ms: wall.as_secs_f64() * 1_000.0,
            cached: false,
            headline: None,
            fleet: None,
        });
    }

    /// Appends one fleet pass: wall-clock plus throughput metrics, so
    /// the gate can compare fleet runtime and machines/sec between
    /// baselines. A cache-served pass passes `wall` zero and `cached`
    /// true; it times nothing and the gate skips it.
    pub fn push_fleet(
        &mut self,
        name: &str,
        wall: std::time::Duration,
        cached: bool,
        metrics: FleetMetrics,
    ) {
        self.entries.push(BenchEntry {
            kind: "fleet".to_string(),
            name: name.to_string(),
            wall_ms: wall.as_secs_f64() * 1_000.0,
            cached,
            headline: None,
            fleet: Some(metrics),
        });
    }

    /// Writes the baseline as JSON, atomically (temp file + rename).
    ///
    /// # Errors
    ///
    /// Fails when the parent directory cannot be created or the file
    /// cannot be written.
    pub fn write(&self, path: impl AsRef<Path>) -> BenchResult<()> {
        let path = path.as_ref();
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        std::fs::write(&tmp, serde_json::to_string(self).expect("serializable"))?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Loads a previously written baseline.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or a file that does not parse as a
    /// [`BenchRun`].
    pub fn load(path: impl AsRef<Path>) -> BenchResult<BenchRun> {
        let path = path.as_ref();
        let data = std::fs::read_to_string(path)?;
        serde_json::from_str(&data)
            .map_err(|e| crate::BenchError::msg(format!("{}: {e}", path.display())))
    }

    /// Loads the JSONL stream the vendored criterion appends when
    /// `ACE_MICROBENCH_JSON` is set (one
    /// `{"name":"<group>/<bench>","ns_per_iter":N}` line per measured
    /// benchmark) into a [`BenchRun`] of `"microbench"` entries, ns/iter
    /// carried in `wall_ms`. The file is append-mode, so when a name
    /// repeats (stale lines from an earlier `cargo bench`), the **last**
    /// measurement wins.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or any line that is not a microbench record.
    pub fn load_microbench_jsonl(path: impl AsRef<Path>) -> BenchResult<BenchRun> {
        #[derive(Deserialize)]
        struct MicrobenchRecord {
            name: String,
            ns_per_iter: f64,
        }
        let path = path.as_ref();
        let data = std::fs::read_to_string(path)?;
        let mut run = BenchRun::new(1);
        for line in data.lines().filter(|l| !l.trim().is_empty()) {
            let record: MicrobenchRecord = serde_json::from_str(line)
                .map_err(|e| crate::BenchError::msg(format!("{}: {e}", path.display())))?;
            match run.entries.iter_mut().find(|e| e.name == record.name) {
                Some(entry) => entry.wall_ms = record.ns_per_iter,
                None => run.entries.push(BenchEntry {
                    kind: "microbench".to_string(),
                    name: record.name,
                    wall_ms: record.ns_per_iter,
                    cached: false,
                    headline: None,
                    fleet: None,
                }),
            }
        }
        Ok(run)
    }
}

/// One workload's wall-clock comparison between two baselines.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GateRow {
    /// Workload name.
    pub name: String,
    /// Committed-baseline wall-clock, milliseconds.
    pub baseline_ms: f64,
    /// Current-run wall-clock, milliseconds.
    pub current_ms: f64,
    /// `current / baseline - 1`, as a percentage (positive = slower).
    pub delta_pct: f64,
    /// Whether this row exceeds the gate threshold.
    pub regressed: bool,
}

/// Result of gating a current [`BenchRun`] against a committed baseline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GateReport {
    /// Threshold used, percent.
    pub threshold_pct: f64,
    /// One row per headline workload present (uncached) in both runs.
    pub rows: Vec<GateRow>,
    /// Workload entries that could not be compared (cached or missing on
    /// one side) — informational, never gating.
    pub skipped: Vec<String>,
}

impl GateReport {
    /// `true` if any compared workload regressed beyond the threshold.
    pub fn regressed(&self) -> bool {
        self.rows.iter().any(|r| r.regressed)
    }
}

/// Compares the headline-workload, fleet-pass, and microbench timings
/// of `current` against `baseline`, flagging any entry more than
/// `threshold_pct` percent slower; fleet entries additionally gate on a
/// machines/sec drop of the same magnitude. Cache-hit entries time
/// nothing and are skipped, as are entries present on only one side;
/// sibling-experiment entries never gate (they time report generation,
/// not the simulator).
pub fn gate_against_baseline(
    baseline: &BenchRun,
    current: &BenchRun,
    threshold_pct: f64,
) -> GateReport {
    let gated = |run: &BenchRun| -> Vec<BenchEntry> {
        run.entries
            .iter()
            .filter(|e| e.kind == "workload" || e.kind == "fleet" || e.kind == "microbench")
            .cloned()
            .collect()
    };
    let base_entries = gated(baseline);
    let mut rows = Vec::new();
    let mut skipped = Vec::new();
    for cur in gated(current) {
        let Some(base) = base_entries
            .iter()
            .find(|e| e.name == cur.name && e.kind == cur.kind)
        else {
            skipped.push(format!("{} (not in baseline)", cur.name));
            continue;
        };
        if cur.cached || base.cached || base.wall_ms <= 0.0 {
            skipped.push(format!("{} (cached)", cur.name));
            continue;
        }
        let delta_pct = (cur.wall_ms / base.wall_ms - 1.0) * 100.0;
        rows.push(GateRow {
            name: cur.name.clone(),
            baseline_ms: base.wall_ms,
            current_ms: cur.wall_ms,
            delta_pct,
            regressed: delta_pct > threshold_pct,
        });
        // Fleet throughput: a machines/sec drop is the same regression
        // seen from the other side of the division, but it survives
        // wall-clock noise differently (throughput covers both passes'
        // useful work), so it gates as its own row.
        if let (Some(base_fleet), Some(cur_fleet)) = (&base.fleet, &cur.fleet) {
            if base_fleet.machines_per_sec > 0.0 && cur_fleet.machines_per_sec > 0.0 {
                let drop_pct =
                    (base_fleet.machines_per_sec / cur_fleet.machines_per_sec - 1.0) * 100.0;
                rows.push(GateRow {
                    name: format!("{} (machines/sec)", cur.name),
                    baseline_ms: base_fleet.machines_per_sec,
                    current_ms: cur_fleet.machines_per_sec,
                    delta_pct: drop_pct,
                    regressed: drop_pct > threshold_pct,
                });
            }
        }
    }
    for base in &base_entries {
        if !current
            .entries
            .iter()
            .any(|e| e.kind == base.kind && e.name == base.name)
        {
            skipped.push(format!("{} (not in current run)", base.name));
        }
    }
    GateReport {
        threshold_pct,
        rows,
        skipped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn run_with_workloads(entries: &[(&str, f64, bool)]) -> BenchRun {
        let mut run = BenchRun::new(1);
        for &(name, wall_ms, cached) in entries {
            run.entries.push(BenchEntry {
                kind: "workload".to_string(),
                name: name.to_string(),
                wall_ms,
                cached,
                headline: None,
                fleet: None,
            });
        }
        run
    }

    #[test]
    fn gate_passes_within_threshold() {
        let base = run_with_workloads(&[("db", 1000.0, false), ("compress", 2000.0, false)]);
        let cur = run_with_workloads(&[("db", 1200.0, false), ("compress", 1900.0, false)]);
        let report = gate_against_baseline(&base, &cur, 25.0);
        assert!(!report.regressed());
        assert_eq!(report.rows.len(), 2);
        assert!((report.rows[0].delta_pct - 20.0).abs() < 1e-9);
    }

    #[test]
    fn gate_fails_beyond_threshold() {
        let base = run_with_workloads(&[("db", 1000.0, false)]);
        let cur = run_with_workloads(&[("db", 1300.0, false)]);
        let report = gate_against_baseline(&base, &cur, 25.0);
        assert!(report.regressed());
        assert!(report.rows[0].regressed);
    }

    #[test]
    fn gate_skips_cached_and_unmatched_entries() {
        let base = run_with_workloads(&[("db", 1000.0, false), ("gone", 500.0, false)]);
        let cur = run_with_workloads(&[("db", 900.0, true), ("new", 700.0, false)]);
        let report = gate_against_baseline(&base, &cur, 25.0);
        assert!(report.rows.is_empty());
        assert!(!report.regressed(), "nothing comparable, nothing gates");
        assert_eq!(report.skipped.len(), 3);
    }

    #[test]
    fn experiments_never_gate() {
        let mut base = run_with_workloads(&[]);
        base.push_experiment("sensitivity", Duration::from_millis(100));
        let mut cur = run_with_workloads(&[]);
        cur.push_experiment("sensitivity", Duration::from_millis(100_000));
        let report = gate_against_baseline(&base, &cur, 25.0);
        assert!(!report.regressed());
    }

    #[test]
    fn fleet_entries_gate_wall_and_throughput() {
        let fleet = |wall_ms: f64, mps: f64| {
            let mut run = BenchRun::new(2);
            run.push_fleet(
                "fleet/smoke",
                Duration::from_secs_f64(wall_ms / 1_000.0),
                false,
                FleetMetrics {
                    machines_per_sec: mps,
                    shed: 0,
                    warm_hit_rate: 0.8,
                },
            );
            run
        };
        let base = fleet(10_000.0, 12.8);

        // Same wall, big throughput drop: only the throughput row flags.
        let slow_throughput = fleet(10_000.0, 6.4);
        let report = gate_against_baseline(&base, &slow_throughput, 25.0);
        assert!(report.regressed());
        let flagged: Vec<&str> = report
            .rows
            .iter()
            .filter(|r| r.regressed)
            .map(|r| r.name.as_str())
            .collect();
        assert_eq!(flagged, vec!["fleet/smoke (machines/sec)"]);

        // Slower wall clock flags the wall row too.
        let slow_wall = fleet(20_000.0, 12.8);
        let report = gate_against_baseline(&base, &slow_wall, 25.0);
        assert!(report
            .rows
            .iter()
            .any(|r| r.name == "fleet/smoke" && r.regressed));

        // Within threshold: nothing flags.
        let fine = fleet(10_500.0, 12.0);
        assert!(!gate_against_baseline(&base, &fine, 25.0).regressed());

        // A baseline without fleet entries skips them (no false gating).
        let old_baseline = run_with_workloads(&[("db", 1000.0, false)]);
        let report = gate_against_baseline(&old_baseline, &fleet(10_000.0, 12.8), 25.0);
        assert!(!report.regressed());
        assert!(report.skipped.iter().any(|s| s.contains("fleet/smoke")));
    }

    #[test]
    fn microbench_jsonl_loads_and_gates() {
        let dir = std::env::temp_dir().join(format!("ace_bench_micro_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("micro.jsonl");
        // Append-mode file with a stale first measurement of exec_block:
        // the last line for a name must win.
        std::fs::write(
            &path,
            concat!(
                "{\"name\":\"exec_block/hits\",\"ns_per_iter\":120.0}\n",
                "{\"name\":\"machine/exec_block\",\"ns_per_iter\":60.0}\n",
                "{\"name\":\"exec_block/hits\",\"ns_per_iter\":100.0}\n",
            ),
        )
        .unwrap();
        let base = BenchRun::load_microbench_jsonl(&path).unwrap();
        assert_eq!(base.entries.len(), 2);
        assert!(base.entries.iter().all(|e| e.kind == "microbench"));
        assert_eq!(base.entries[0].wall_ms, 100.0, "last measurement wins");

        // 10% slower passes a 50% gate; 2x slower fails it.
        let mut ok = base.clone();
        ok.entries[0].wall_ms = 110.0;
        assert!(!gate_against_baseline(&base, &ok, 50.0).regressed());
        let mut slow = base.clone();
        slow.entries[1].wall_ms = 125.0;
        let report = gate_against_baseline(&base, &slow, 50.0);
        assert!(report.regressed());
        let flagged: Vec<&str> = report
            .rows
            .iter()
            .filter(|r| r.regressed)
            .map(|r| r.name.as_str())
            .collect();
        assert_eq!(flagged, vec!["machine/exec_block"]);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn baseline_round_trips_through_json() {
        let mut run = BenchRun::new(4);
        run.push_experiment("sensitivity", Duration::from_millis(1500));
        let dir = std::env::temp_dir().join(format!("ace_bench_out_{}", std::process::id()));
        let path = dir.join("BENCH_run.json");
        run.write(&path).unwrap();
        let back = BenchRun::load(&path).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(back.schema_version, BenchRun::SCHEMA_VERSION);
        assert_eq!(back.jobs, 4);
        assert_eq!(back.entries.len(), 1);
        assert_eq!(back.entries[0].kind, "experiment");
        assert_eq!(back.entries[0].name, "sensitivity");
        assert!((back.entries[0].wall_ms - 1500.0).abs() < 1e-9);
        assert!(back.entries[0].headline.is_none());
    }

    #[test]
    fn load_rejects_garbage() {
        let dir = std::env::temp_dir().join(format!("ace_bench_bad_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.json");
        std::fs::write(&path, "not json").unwrap();
        let err = BenchRun::load(&path).unwrap_err();
        let _ = std::fs::remove_dir_all(&dir);
        assert!(err.to_string().contains("bad.json"));
    }
}
