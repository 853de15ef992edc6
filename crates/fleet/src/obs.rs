//! Wave-indexed fleet health sampling, the live status line, and the
//! threshold watchdog.
//!
//! The sampler hooks the driver's wave barrier: after each wave merges,
//! [`ObsSampler::record_wave`] folds the wave's machine outcomes into a
//! [`Metrics`] registry (cumulative counters, current-value gauges,
//! IPC/EPI histograms) and snapshots it into one
//! [`ObsRecord`] keyed by `(pass, wave)`.
//! **Everything sampled is wave-indexed and architectural** — machine
//! counts, store state, counter-derived rates — never wall-clock, so the
//! serialized obs stream is byte-identical at any `--jobs` width, the
//! same contract the fleet report itself holds.
//!
//! On top of the per-wave [`WaveHealth`] series sit two consumers:
//!
//! * the live renderer ([`render_wave_line`]) — a one-line-per-wave
//!   status the binary prints to stderr as waves complete,
//! * the watchdog ([`ObsGate`]) — shed-rate ceiling, hit-rate floor, and
//!   convergence-slowdown checks with a typed [`ObsGateReport`] that CI
//!   turns into an exit code.

use crate::driver::{LedgerCounts, MachineOutcome};
use ace_telemetry::{Metrics, ObsRecord};
use serde::{Deserialize, Serialize};

/// IPC histogram bucket bounds for fleet machines (sim IPC tops out
/// well under 4 on the table-2 machine).
pub const IPC_BOUNDS: [f64; 8] = [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0];

/// EPI histogram bucket bounds, nanojoules per instruction (L1D + L2
/// energy over retired instructions).
pub const EPI_BOUNDS: [f64; 8] = [0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4];

/// One wave's health row: cumulative fleet counters after the wave's
/// merge, plus distribution percentiles from the cumulative IPC/EPI
/// histograms. Every field is deterministic at any `--jobs` width.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WaveHealth {
    /// 1-based wave index within the pass.
    pub wave: u64,
    /// Machines that have run so far (cumulative).
    pub machines: u64,
    /// Machines shed by admission so far (cumulative).
    pub shed: u64,
    /// Warm-start hits so far (cumulative).
    pub warm_hits: u64,
    /// Warm-start misses so far (cumulative).
    pub warm_misses: u64,
    /// Trials avoided via warm starts so far (cumulative).
    pub trials_saved: u64,
    /// Configuration trials measured so far (cumulative).
    pub tunings: u64,
    /// Store publications so far (cumulative).
    pub publishes: u64,
    /// Tuning-store entries after this wave's merge.
    pub store_len: u64,
    /// Median machine IPC (cumulative histogram quantile).
    pub ipc_p50: f64,
    /// 90th-percentile machine IPC.
    pub ipc_p90: f64,
    /// Median machine EPI, nJ/instr.
    pub epi_p50: f64,
    /// 90th-percentile machine EPI, nJ/instr.
    pub epi_p90: f64,
}

impl WaveHealth {
    /// Cumulative store hit rate in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.warm_hits + self.warm_misses;
        if lookups == 0 {
            0.0
        } else {
            self.warm_hits as f64 / lookups as f64
        }
    }

    /// Cumulative shed rate in `[0, 1]` (shed over offered machines).
    pub fn shed_rate(&self) -> f64 {
        let offered = self.machines + self.shed;
        if offered == 0 {
            0.0
        } else {
            self.shed as f64 / offered as f64
        }
    }

    /// Mean tuning trials per machine so far.
    pub fn trials_per_machine(&self) -> f64 {
        if self.machines == 0 {
            0.0
        } else {
            self.tunings as f64 / self.machines as f64
        }
    }
}

/// The deterministic one-line status for a completed wave — what
/// `fleet --live` streams to stderr.
pub fn render_wave_line(pass: &str, h: &WaveHealth) -> String {
    format!(
        "obs[{pass}] wave {:>3}: {} machines ({} shed), hit {:>5.1}%, saved {} trials, \
         store {}, ipc p50 {:.2} p90 {:.2}, epi p50 {:.2}",
        h.wave,
        h.machines,
        h.shed,
        100.0 * h.hit_rate(),
        h.trials_saved,
        h.store_len,
        h.ipc_p50,
        h.ipc_p90,
        h.epi_p50,
    )
}

/// Per-pass wave sampler the driver feeds at each wave barrier.
///
/// Owns a [`Metrics`] registry that accumulates fleet counters and
/// IPC/EPI histograms; each recorded wave appends one cumulative
/// [`ObsRecord`] snapshot and one [`WaveHealth`] row.
#[derive(Debug)]
pub struct ObsSampler {
    pass: String,
    live: bool,
    metrics: Metrics,
    records: Vec<ObsRecord>,
    health: Vec<WaveHealth>,
    machines: u64,
    shed: u64,
    warm_hits: u64,
    warm_misses: u64,
    trials_saved: u64,
    tunings: u64,
    publishes: u64,
}

impl ObsSampler {
    /// A fresh sampler for one pass (e.g. `"cold"`, `"warm"`).
    pub fn new(pass: impl Into<String>) -> ObsSampler {
        ObsSampler {
            pass: pass.into(),
            live: false,
            metrics: Metrics::default(),
            records: Vec::new(),
            health: Vec::new(),
            machines: 0,
            shed: 0,
            warm_hits: 0,
            warm_misses: 0,
            trials_saved: 0,
            tunings: 0,
            publishes: 0,
        }
    }

    /// Enables the live status line: each recorded wave also prints
    /// [`render_wave_line`] to stderr (stderr is the wall-clock side of
    /// the fleet's output contract, so this never touches the report).
    pub fn live(mut self, on: bool) -> ObsSampler {
        self.live = on;
        self
    }

    /// The pass name records are keyed with.
    pub fn pass(&self) -> &str {
        &self.pass
    }

    /// The sampler's metrics registry (the binary adds wall-clock gauges
    /// here *after* the pass, so they reach `--metrics-out` without
    /// entering the already-snapshotted obs records).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Per-wave health rows recorded so far.
    pub fn health(&self) -> &[WaveHealth] {
        &self.health
    }

    /// Cumulative obs records recorded so far.
    pub fn records(&self) -> &[ObsRecord] {
        &self.records
    }

    /// Consumes the sampler into its obs records.
    pub fn into_records(self) -> Vec<ObsRecord> {
        self.records
    }

    /// Folds one merged wave into the sampler. `wave` is 1-based;
    /// `machines` is the slice of outcomes the wave produced (in
    /// machine-index order), `shed` the machines this wave dropped,
    /// `store_len` the store size after the wave's merge, and `ledger`
    /// how the wave used the store's run ledger.
    pub fn record_wave(
        &mut self,
        wave: u64,
        machines: &[MachineOutcome],
        shed: u64,
        store_len: usize,
        ledger: LedgerCounts,
    ) {
        let ipc_hist = self.metrics.histogram("fleet.machine_ipc", &IPC_BOUNDS);
        let epi_hist = self.metrics.histogram("fleet.machine_epi_nj", &EPI_BOUNDS);
        for m in machines {
            self.warm_hits += m.warm_hits;
            self.warm_misses += m.warm_misses;
            self.trials_saved += m.warm_trials_saved;
            self.tunings += m.tunings;
            self.publishes += m.store_publishes;
            ipc_hist.record(m.ipc);
            if m.instret > 0 {
                epi_hist.record((m.l1d_nj + m.l2_nj) / m.instret as f64);
            }
        }
        self.machines += machines.len() as u64;
        self.shed += shed;

        let c = |name: &str, v: u64| self.metrics.counter(name).add(v);
        c("fleet.machines", machines.len() as u64);
        c("fleet.shed", shed);
        c(
            "fleet.warm_hits",
            machines.iter().map(|m| m.warm_hits).sum(),
        );
        c(
            "fleet.warm_misses",
            machines.iter().map(|m| m.warm_misses).sum(),
        );
        c(
            "fleet.trials_saved",
            machines.iter().map(|m| m.warm_trials_saved).sum(),
        );
        c("fleet.tunings", machines.iter().map(|m| m.tunings).sum());
        c(
            "fleet.publishes",
            machines.iter().map(|m| m.store_publishes).sum(),
        );
        c("fleet.baselines_measured", ledger.baselines_measured);
        c("fleet.baselines_reused", ledger.baselines_reused);
        c("fleet.runs_reused", ledger.runs_reused);

        let health = WaveHealth {
            wave,
            machines: self.machines,
            shed: self.shed,
            warm_hits: self.warm_hits,
            warm_misses: self.warm_misses,
            trials_saved: self.trials_saved,
            tunings: self.tunings,
            publishes: self.publishes,
            store_len: store_len as u64,
            ipc_p50: ipc_hist.quantile(0.50),
            ipc_p90: ipc_hist.quantile(0.90),
            epi_p50: epi_hist.quantile(0.50),
            epi_p90: epi_hist.quantile(0.90),
        };
        self.metrics.gauge("fleet.hit_rate").set(health.hit_rate());
        self.metrics
            .gauge("fleet.shed_rate")
            .set(health.shed_rate());
        self.metrics.gauge("fleet.store_size").set(store_len as f64);
        self.metrics.gauge("fleet.ipc_p50").set(health.ipc_p50);
        self.metrics.gauge("fleet.ipc_p90").set(health.ipc_p90);
        self.metrics.gauge("fleet.epi_p50").set(health.epi_p50);
        self.metrics.gauge("fleet.epi_p90").set(health.epi_p90);

        if self.live {
            eprintln!("{}", render_wave_line(&self.pass, &health));
        }
        self.records.push(ObsRecord {
            pass: self.pass.clone(),
            wave,
            metrics: self.metrics.snapshot(),
        });
        self.health.push(health);
    }
}

/// Threshold watchdog over a pass's [`WaveHealth`] series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ObsGate {
    /// Maximum tolerated cumulative shed rate (`[0, 1]`).
    pub max_shed_rate: f64,
    /// Minimum required cumulative store hit rate (`[0, 1]`; 0 disables
    /// the check — a cold pass legitimately starts at zero).
    pub min_hit_rate: f64,
    /// Maximum tolerated rise of the final wave's per-machine tuning
    /// trials over the first wave's (0.25 = 25% slower to converge).
    pub max_convergence_slowdown: f64,
}

impl Default for ObsGate {
    fn default() -> ObsGate {
        ObsGate {
            max_shed_rate: 0.25,
            min_hit_rate: 0.0,
            max_convergence_slowdown: 0.25,
        }
    }
}

/// One watchdog check's outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObsGateLine {
    /// What was checked.
    pub check: String,
    /// Measured value.
    pub value: f64,
    /// The configured limit.
    pub limit: f64,
    /// Whether the value breached the limit.
    pub breached: bool,
}

/// The watchdog's typed report for one pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObsGateReport {
    /// Which pass was checked.
    pub pass: String,
    /// Every check, in check order.
    pub lines: Vec<ObsGateLine>,
}

impl ObsGateReport {
    /// Whether any check breached.
    pub fn breached(&self) -> bool {
        self.lines.iter().any(|l| l.breached)
    }

    /// Deterministic human-readable rendering; breached lines are
    /// prefixed `FAIL`, others `ok`.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "fleet watchdog [{}]:", self.pass);
        for line in &self.lines {
            let verdict = if line.breached { "FAIL" } else { "ok  " };
            let _ = writeln!(
                out,
                "  {verdict} {:<26} {:>10.4}  limit {:.4}",
                line.check, line.value, line.limit
            );
        }
        let breaches = self.lines.iter().filter(|l| l.breached).count();
        if breaches == 0 {
            let _ = writeln!(out, "  healthy ({} checks)", self.lines.len());
        } else {
            let _ = writeln!(
                out,
                "  {breaches} breach(es) in {} checks",
                self.lines.len()
            );
        }
        out
    }
}

impl ObsGate {
    /// Checks a pass's health series. An empty series breaches nothing
    /// (there is nothing to judge); the shed and hit-rate checks read the
    /// final cumulative row, the convergence check compares the last
    /// wave's per-machine trials against the first wave's.
    pub fn check(&self, pass: &str, health: &[WaveHealth]) -> ObsGateReport {
        let mut lines = Vec::new();
        let Some(last) = health.last() else {
            return ObsGateReport {
                pass: pass.to_string(),
                lines,
            };
        };
        lines.push(ObsGateLine {
            check: "shed rate".to_string(),
            value: last.shed_rate(),
            limit: self.max_shed_rate,
            breached: last.shed_rate() > self.max_shed_rate,
        });
        lines.push(ObsGateLine {
            check: "hit rate (floor)".to_string(),
            value: last.hit_rate(),
            limit: self.min_hit_rate,
            breached: self.min_hit_rate > 0.0 && last.hit_rate() < self.min_hit_rate,
        });
        // Convergence: the store should make later waves cheaper, never
        // markedly dearer. First-wave trials/machine is the reference.
        let first = health.first().expect("non-empty");
        let reference = first.trials_per_machine();
        let prev = health.len().checked_sub(2).and_then(|i| health.get(i));
        let last_wave_machines = last.machines - prev.map_or(0, |p| p.machines);
        let last_wave_tunings = last.tunings - prev.map_or(0, |p| p.tunings);
        let current = if last_wave_machines == 0 {
            0.0
        } else {
            last_wave_tunings as f64 / last_wave_machines as f64
        };
        let slowdown = if reference > 0.0 {
            current / reference - 1.0
        } else {
            0.0
        };
        lines.push(ObsGateLine {
            check: "convergence slowdown".to_string(),
            value: slowdown,
            limit: self.max_convergence_slowdown,
            breached: slowdown > self.max_convergence_slowdown,
        });
        ObsGateReport {
            pass: pass.to_string(),
            lines,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::MachineSpec;

    fn machine(index: usize, ipc: f64, hits: u64, misses: u64, tunings: u64) -> MachineOutcome {
        MachineOutcome {
            spec: MachineSpec {
                index,
                preset: "compress".to_string(),
                seed: index as u64 + 1,
            },
            ipc,
            instret: 1_000_000,
            l1d_nj: 150_000.0,
            l2_nj: 50_000.0,
            baseline: None,
            tunings,
            tuned_hotspots: 1,
            warm_hits: hits,
            warm_misses: misses,
            warm_trials_saved: hits * 3,
            store_publishes: misses,
        }
    }

    #[test]
    fn sampler_accumulates_waves_into_cumulative_records() {
        let mut s = ObsSampler::new("cold");
        s.record_wave(
            1,
            &[machine(0, 1.0, 0, 2, 16), machine(1, 1.2, 0, 2, 16)],
            1,
            3,
            LedgerCounts {
                baselines_measured: 2,
                ..LedgerCounts::default()
            },
        );
        s.record_wave(
            2,
            &[machine(2, 1.4, 2, 0, 4)],
            0,
            5,
            LedgerCounts {
                baselines_reused: 1,
                runs_reused: 1,
                ..LedgerCounts::default()
            },
        );
        assert_eq!(s.records().len(), 2);
        assert_eq!(s.health().len(), 2);

        let h = &s.health()[1];
        assert_eq!(h.machines, 3);
        assert_eq!(h.shed, 1);
        assert_eq!(h.warm_hits, 2);
        assert_eq!(h.warm_misses, 4);
        assert_eq!(h.tunings, 36);
        assert_eq!(h.store_len, 5);
        assert!((h.hit_rate() - 2.0 / 6.0).abs() < 1e-12);
        assert!((h.shed_rate() - 0.25).abs() < 1e-12);
        assert!(h.ipc_p50 > 0.0 && h.ipc_p90 >= h.ipc_p50);
        assert!(h.epi_p50 > 0.0);

        // Records are cumulative snapshots: wave 2's counters cover both
        // waves, and the delta recovers wave 2 alone.
        let w1 = &s.records()[0].metrics;
        let w2 = &s.records()[1].metrics;
        assert_eq!(w2.counters["fleet.machines"], 3);
        let delta = w2.delta_since(w1);
        assert_eq!(delta.counters["fleet.machines"], 1);
        assert_eq!(delta.counters["fleet.warm_hits"], 2);
        assert_eq!(w2.counters["fleet.baselines_measured"], 2);
        assert_eq!(delta.counters["fleet.baselines_measured"], 0);
        assert_eq!(delta.counters["fleet.baselines_reused"], 1);
        assert_eq!(w1.counters["fleet.runs_reused"], 0);
        assert_eq!(delta.counters["fleet.runs_reused"], 1);
    }

    #[test]
    fn sampler_snapshots_contain_no_wall_clock_metrics() {
        let mut s = ObsSampler::new("cold");
        s.record_wave(
            1,
            &[machine(0, 1.0, 0, 1, 8)],
            0,
            1,
            LedgerCounts::default(),
        );
        let snap = &s.records()[0].metrics;
        for name in snap
            .counters
            .keys()
            .chain(snap.gauges.keys())
            .chain(snap.histograms.keys())
        {
            assert!(
                !name.contains("_ms") && !name.contains("per_sec") && !name.contains("wall"),
                "wall-clock metric {name:?} leaked into the obs stream"
            );
        }
    }

    #[test]
    fn gate_passes_healthy_series_and_flags_breaches() {
        let mut s = ObsSampler::new("warm");
        s.record_wave(
            1,
            &[machine(0, 1.0, 3, 1, 4), machine(1, 1.1, 3, 1, 4)],
            0,
            4,
            LedgerCounts::default(),
        );
        s.record_wave(
            2,
            &[machine(2, 1.0, 4, 0, 1)],
            0,
            4,
            LedgerCounts::default(),
        );
        let healthy = ObsGate {
            max_shed_rate: 0.1,
            min_hit_rate: 0.5,
            max_convergence_slowdown: 0.25,
        }
        .check("warm", s.health());
        assert!(!healthy.breached(), "{}", healthy.render());
        assert_eq!(healthy.lines.len(), 3);
        assert!(healthy.render().contains("healthy"));

        // Same series judged by an impossible hit-rate floor breaches.
        let strict = ObsGate {
            min_hit_rate: 0.99,
            ..ObsGate::default()
        }
        .check("warm", s.health());
        assert!(strict.breached());
        assert!(strict.render().contains("FAIL"));
    }

    #[test]
    fn gate_flags_shedding_and_slow_convergence() {
        let mut s = ObsSampler::new("cold");
        // Wave 1: cheap tuning; wave 2: heavy shedding and dearer tuning.
        s.record_wave(
            1,
            &[machine(0, 1.0, 0, 1, 4)],
            0,
            1,
            LedgerCounts::default(),
        );
        s.record_wave(
            2,
            &[machine(1, 1.0, 0, 1, 16)],
            3,
            1,
            LedgerCounts::default(),
        );
        let report = ObsGate {
            max_shed_rate: 0.25,
            min_hit_rate: 0.0,
            max_convergence_slowdown: 0.25,
        }
        .check("cold", s.health());
        let breached: Vec<&str> = report
            .lines
            .iter()
            .filter(|l| l.breached)
            .map(|l| l.check.as_str())
            .collect();
        assert_eq!(breached, vec!["shed rate", "convergence slowdown"]);
    }

    #[test]
    fn gate_on_empty_series_is_silent() {
        let report = ObsGate::default().check("cold", &[]);
        assert!(!report.breached());
        assert!(report.lines.is_empty());
    }

    #[test]
    fn wave_line_renders_deterministically() {
        let mut s = ObsSampler::new("warm");
        s.record_wave(
            1,
            &[machine(0, 1.25, 1, 1, 2)],
            0,
            7,
            LedgerCounts::default(),
        );
        let line = render_wave_line("warm", &s.health()[0]);
        assert!(line.contains("obs[warm] wave   1"), "{line}");
        assert!(line.contains("store 7"), "{line}");
        assert_eq!(line, render_wave_line("warm", &s.health()[0]));
    }
}
