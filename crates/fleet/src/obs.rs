//! Wave-indexed fleet health sampling, the live status line, and the
//! threshold watchdog.
//!
//! The sampler hooks the driver's wave barrier: after each wave merges,
//! [`ObsSampler::record_wave`] folds the wave's machine outcomes into a
//! [`Metrics`] registry (cumulative counters, current-value gauges,
//! IPC/EPI histograms) and snapshots it into one
//! [`ObsRecord`] keyed by `(pass, wave)`: the only record the fleet keeps
//! of a wave. **Everything sampled is wave-indexed and architectural** — machine
//! counts, store state, counter-derived rates — never wall-clock, so the
//! serialized obs stream is byte-identical at any `--jobs` width, the
//! same contract the fleet report itself holds.
//!
//! On top of the per-wave records sit two consumers:
//!
//! * the live renderer ([`render_wave_line`]) — a one-line-per-wave
//!   status the binary prints to stderr as waves complete,
//! * the watchdog ([`ObsGate`]) — shed-rate ceiling, hit-rate floor, and
//!   convergence-slowdown checks with a typed [`ObsGateReport`] that CI
//!   turns into an exit code.

use crate::driver::{LedgerCounts, MachineOutcome};
use ace_telemetry::{Metrics, ObsRecord};

/// IPC histogram bucket bounds for fleet machines (sim IPC tops out
/// well under 4 on the table-2 machine).
pub const IPC_BOUNDS: [f64; 8] = [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0];

/// EPI histogram bucket bounds, nanojoules per instruction (L1D + L2
/// energy over retired instructions).
pub const EPI_BOUNDS: [f64; 8] = [0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4];

/// `num / den`, or 0 when `den` is 0.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The deterministic one-line status for a completed wave — what
/// `fleet --live` streams to stderr.
pub fn render_wave_line(pass: &str, record: &ObsRecord) -> String {
    let m = &record.metrics;
    format!(
        "obs[{pass}] wave {:>3}: {} machines ({} shed), hit {:>5.1}%, saved {} trials, \
         store {}, ipc p50 {:.2} p90 {:.2}, epi p50 {:.2}",
        record.wave,
        m.counter("fleet.machines"),
        m.counter("fleet.shed"),
        100.0 * m.gauge("fleet.hit_rate"),
        m.counter("fleet.trials_saved"),
        m.gauge("fleet.store_size"),
        m.gauge("fleet.ipc_p50"),
        m.gauge("fleet.ipc_p90"),
        m.gauge("fleet.epi_p50"),
    )
}

/// Per-pass wave sampler the driver feeds at each wave barrier.
///
/// Owns a [`Metrics`] registry that accumulates fleet counters and
/// IPC/EPI histograms; each recorded wave appends one cumulative
/// [`ObsRecord`] snapshot of it.
#[derive(Debug)]
pub struct ObsSampler {
    pass: String,
    live: bool,
    metrics: Metrics,
    records: Vec<ObsRecord>,
}

impl ObsSampler {
    /// A fresh sampler for one pass (e.g. `"cold"`, `"warm"`).
    pub fn new(pass: impl Into<String>) -> ObsSampler {
        ObsSampler {
            pass: pass.into(),
            live: false,
            metrics: Metrics::default(),
            records: Vec::new(),
        }
    }

    /// Enables the live status line: each recorded wave also prints
    /// [`render_wave_line`] to stderr (stderr is the wall-clock side of
    /// the fleet's output contract, so this never touches the report).
    pub fn live(mut self, on: bool) -> ObsSampler {
        self.live = on;
        self
    }

    /// The sampler's metrics registry (the binary adds wall-clock gauges
    /// here *after* the pass, so they reach `--metrics-out` without
    /// entering the already-snapshotted obs records).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Cumulative obs records recorded so far, one per wave.
    pub fn records(&self) -> &[ObsRecord] {
        &self.records
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
        let m = &self.metrics;
        let ipc_hist = m.histogram("fleet.machine_ipc", &IPC_BOUNDS);
        let epi_hist = m.histogram("fleet.machine_epi_nj", &EPI_BOUNDS);
        for machine in machines {
            ipc_hist.record(machine.ipc);
            if machine.instret > 0 {
                epi_hist.record((machine.l1d_nj + machine.l2_nj) / machine.instret as f64);
            }
        }

        let add = |name: &str, v: u64| m.counter(name).add(v);
        let add_sum = |name: &str, field: fn(&MachineOutcome) -> u64| {
            add(name, machines.iter().map(field).sum())
        };
        add("fleet.machines", machines.len() as u64);
        add("fleet.shed", shed);
        add_sum("fleet.warm_hits", |o| o.warm_hits);
        add_sum("fleet.warm_misses", |o| o.warm_misses);
        add_sum("fleet.trials_saved", |o| o.warm_trials_saved);
        add_sum("fleet.tunings", |o| o.tunings);
        add_sum("fleet.publishes", |o| o.store_publishes);
        add("fleet.baselines_measured", ledger.baselines_measured);
        add("fleet.baselines_reused", ledger.baselines_reused);
        add("fleet.runs_reused", ledger.runs_reused);

        let total = |name: &str| m.counter(name).get();
        let (hits, misses) = (total("fleet.warm_hits"), total("fleet.warm_misses"));
        let (ran, shed) = (total("fleet.machines"), total("fleet.shed"));
        let set = |name: &str, v: f64| m.gauge(name).set(v);
        set("fleet.hit_rate", ratio(hits, hits + misses));
        set("fleet.shed_rate", ratio(shed, ran + shed));
        set("fleet.store_size", store_len as f64);
        set("fleet.ipc_p50", ipc_hist.quantile(0.50));
        set("fleet.ipc_p90", ipc_hist.quantile(0.90));
        set("fleet.epi_p50", epi_hist.quantile(0.50));
        set("fleet.epi_p90", epi_hist.quantile(0.90));

        let record = ObsRecord {
            pass: self.pass.clone(),
            wave,
            metrics: m.snapshot(),
        };
        if self.live {
            eprintln!("{}", render_wave_line(&self.pass, &record));
        }
        self.records.push(record);
    }
}

/// Threshold watchdog over a pass's obs records.
#[derive(Debug, Clone, Copy, PartialEq)]
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
#[derive(Debug, Clone, PartialEq)]
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
#[derive(Debug, Clone, PartialEq)]
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
    /// Checks a pass's obs records. An empty series breaches nothing
    /// (there is nothing to judge); the shed and hit-rate checks read the
    /// final cumulative record, the convergence check compares the last
    /// wave's per-machine trials against the first wave's.
    pub fn check(&self, pass: &str, records: &[ObsRecord]) -> ObsGateReport {
        let mut report = ObsGateReport {
            pass: pass.to_string(),
            lines: Vec::new(),
        };
        let (Some(first), Some(last)) = (records.first(), records.last()) else {
            return report;
        };
        let mut push = |check: &str, value: f64, limit: f64, breached: bool| {
            report.lines.push(ObsGateLine {
                check: check.to_string(),
                value,
                limit,
                breached,
            });
        };
        let shed_rate = last.metrics.gauge("fleet.shed_rate");
        push(
            "shed rate",
            shed_rate,
            self.max_shed_rate,
            shed_rate > self.max_shed_rate,
        );
        let hit_rate = last.metrics.gauge("fleet.hit_rate");
        push(
            "hit rate (floor)",
            hit_rate,
            self.min_hit_rate,
            self.min_hit_rate > 0.0 && hit_rate < self.min_hit_rate,
        );
        // Convergence: the store should make later waves cheaper, never
        // markedly dearer. First-wave trials/machine is the reference.
        let reference = ratio(
            first.metrics.counter("fleet.tunings"),
            first.metrics.counter("fleet.machines"),
        );
        let prev = records.len().checked_sub(2).map(|i| &records[i].metrics);
        let last_wave =
            |name: &str| last.metrics.counter(name) - prev.map_or(0, |p| p.counter(name));
        let current = ratio(last_wave("fleet.tunings"), last_wave("fleet.machines"));
        let slowdown = if reference > 0.0 {
            current / reference - 1.0
        } else {
            0.0
        };
        push(
            "convergence slowdown",
            slowdown,
            self.max_convergence_slowdown,
            slowdown > self.max_convergence_slowdown,
        );
        report
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
        assert_eq!(s.records()[1].wave, 2);

        let w2 = &s.records()[1].metrics;
        assert_eq!(w2.counter("fleet.machines"), 3);
        assert_eq!(w2.counter("fleet.shed"), 1);
        assert_eq!(w2.counter("fleet.warm_hits"), 2);
        assert_eq!(w2.counter("fleet.warm_misses"), 4);
        assert_eq!(w2.counter("fleet.tunings"), 36);
        assert_eq!(w2.gauge("fleet.store_size"), 5.0);
        assert!((w2.gauge("fleet.hit_rate") - 2.0 / 6.0).abs() < 1e-12);
        assert!((w2.gauge("fleet.shed_rate") - 0.25).abs() < 1e-12);
        let (p50, p90) = (w2.gauge("fleet.ipc_p50"), w2.gauge("fleet.ipc_p90"));
        assert!(p50 > 0.0 && p90 >= p50);
        assert!(w2.gauge("fleet.epi_p50") > 0.0);

        // Records are cumulative snapshots: wave 1's counters cover wave
        // 1 alone, wave 2's both waves.
        let w1 = &s.records()[0].metrics;
        let both = |name: &str| (w1.counter(name), w2.counter(name));
        assert_eq!(both("fleet.machines"), (2, 3));
        assert_eq!(both("fleet.warm_hits"), (0, 2));
        assert_eq!(both("fleet.baselines_measured"), (2, 2));
        assert_eq!(both("fleet.baselines_reused"), (0, 1));
        assert_eq!(both("fleet.runs_reused"), (0, 1));
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
        .check("warm", s.records());
        assert!(!healthy.breached(), "{}", healthy.render());
        assert_eq!(healthy.lines.len(), 3);
        assert!(healthy.render().contains("healthy"));

        // Same series judged by an impossible hit-rate floor breaches.
        let strict = ObsGate {
            min_hit_rate: 0.99,
            ..ObsGate::default()
        }
        .check("warm", s.records());
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
        .check("cold", s.records());
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
        assert_eq!(
            render_wave_line("warm", &s.records()[0]),
            "obs[warm] wave   1: 1 machines (0 shed), hit  50.0%, saved 3 trials, \
             store 7, ipc p50 1.12 p90 1.23, epi p50 0.15"
        );
    }
}
