//! Metric definitions: names, units and which direction is better.
//!
//! End-to-end metrics come from untraced cycles; per-layer metrics from
//! the traced pass. `BENCHMARK.json` lists the [`Audience::Driver`]
//! end-to-end metrics and every per-layer metric, and fixes each
//! end-to-end metric's regression bound.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// `"higher"` or `"lower"`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// Parses [`Better::as_str`]'s spelling.
    pub fn parse(text: &str) -> Option<Better> {
        match text {
            "higher" => Some(Better::Higher),
            "lower" => Some(Better::Lower),
            _ => None,
        }
    }
}

/// Where an end-to-end metric is reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Audience {
    /// On every workload, in the single-run JSON line and `BENCHMARK.json`:
    /// host-side costs, never zero, compared by a share-of-median bound.
    Driver,
    /// In `run`'s report and result file only: the simulated results.
    /// They repeat exactly for a seed, so `compare` holds them exact;
    /// across seeds they move with the tuning decisions (by up to a fifth
    /// on `call-dense`), and some are signed, zero by design, or defined
    /// on one workload, so no share-of-median bound fits them.
    Report,
}

/// One metric definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Where it is reported.
    pub audience: Audience,
}

const fn def(
    name: &'static str,
    unit: &'static str,
    better: Better,
    audience: Audience,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        audience,
    }
}

use Audience::{Driver, Report};
use Better::{Higher, Lower};

/// Every end-to-end metric, driver-facing ones first.
pub const END_TO_END: [MetricDef; 11] = [
    def("sim_minstr_per_s", "Minstr/s", Higher, Driver),
    def("machines_per_s", "1/s", Higher, Driver),
    def("setup_s", "s", Lower, Driver),
    def("peak_rss_mb", "MiB", Lower, Driver),
    def("l1d_saving_pct", "%", Higher, Report),
    def("l2_saving_pct", "%", Higher, Report),
    def("slowdown_pct", "%", Lower, Report),
    def("paper_gap_pp", "pp", Lower, Report),
    def("warm_hit_rate", "ratio", Higher, Report),
    def("warm_trials_saved_pct", "%", Higher, Report),
    def("failed_frac", "ratio", Lower, Report),
];

/// The end-to-end metric named `name`.
pub fn end_to_end(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().find(|d| d.name == name)
}

/// The built-in schemes, in registry order; per-scheme `core.<s>.*`
/// metric names are fixed from this list.
pub const SCHEMES: [&str; 5] = ["baseline", "hotspot", "bbv", "positional", "pdm"];

/// Every per-layer metric as `(name, unit, better)`, in report order.
pub fn per_layer() -> Vec<(String, &'static str, Better)> {
    let mut out: Vec<(String, &'static str, Better)> = Vec::new();
    let mut add = |name: &str, unit: &'static str, better: Better| {
        out.push((name.to_string(), unit, better));
    };
    add("workloads.step.calls", "count", Lower);
    add("workloads.step.ns_per_instr", "ns/instr", Lower);
    add("workloads.step.share_pct", "%", Lower);
    add("workloads.calls_per_minstr", "1/Minstr", Lower);
    add("sim.exec_block.calls", "count", Lower);
    add("sim.exec_block.ns_per_instr", "ns/instr", Lower);
    add("sim.exec_block.ns_per_block", "ns/block", Lower);
    add("sim.exec_block.share_pct", "%", Lower);
    add("sim.ipc", "instr/cycle", Higher);
    add("sim.instr_per_block", "instr/block", Higher);
    add("sim.l1d.miss_ratio", "ratio", Lower);
    add("sim.l2.miss_ratio", "ratio", Lower);
    add("sim.dtlb.miss_ratio", "ratio", Lower);
    add("sim.resizes", "count", Lower);
    add("sim.flush_writebacks", "count", Lower);
    add("runtime.calls", "count", Lower);
    add("runtime.ns_per_call", "ns/call", Lower);
    add("runtime.share_pct", "%", Lower);
    add("runtime.hotspots", "count", Higher);
    for s in SCHEMES {
        add(&format!("core.{s}.hook_calls"), "count", Lower);
        add(&format!("core.{s}.ns_per_instr"), "ns/instr", Lower);
        add(&format!("core.{s}.share_pct"), "%", Lower);
        add(&format!("core.{s}.tunings"), "count", Lower);
        add(&format!("core.{s}.reconfigs"), "count", Lower);
        add(&format!("core.{s}.trials_per_tuned_scope"), "trials", Lower);
    }
    add("driver.share_pct", "%", Lower);
    add("bench.engine.jobs", "count", Lower);
    add("bench.engine.job_ms_p50", "ms", Lower);
    add("bench.engine.job_ms_p90", "ms", Lower);
    add("bench.engine.queue_wait_ms_p90", "ms", Lower);
    add("bench.engine.busy_ratio", "ratio", Higher);
    add("fleet.store.publish.calls", "count", Lower);
    add("fleet.store.publish.us_per_call", "us/call", Lower);
    add("fleet.store.snapshot.us_per_call", "us/call", Lower);
    add("fleet.store.entries", "count", Higher);
    add("fleet.cold.lookup_hit_ratio", "ratio", Higher);
    add("fleet.warm.lookup_hit_ratio", "ratio", Higher);
    add("fleet.wave.merge_ms", "ms", Lower);
    add("fleet.wave.barrier_idle_pct", "%", Lower);
    add("fleet.machine_ms_p50", "ms", Lower);
    add("fleet.machine_ms_p90", "ms", Lower);
    add("trace.overhead_pct", "%", Lower);
    add("trace.sampled_steps", "count", Lower);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_benchmark_file_rules() {
        let layer = per_layer();
        assert!(layer.len() <= 128);
        let mut names: Vec<String> = END_TO_END.iter().map(|d| d.name.to_string()).collect();
        names.extend(layer.iter().map(|(n, _, _)| n.clone()));
        for d in END_TO_END {
            assert!(valid_unit(d.unit), "{}", d.unit);
        }
        for (_, unit, _) in &layer {
            assert!(valid_unit(unit), "{unit}");
        }
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "metric names are used once");
    }

    #[test]
    fn per_scheme_names_follow_the_registry() {
        assert!(ace_core::SchemeRegistry::builtin().names().eq(SCHEMES));
    }
}
