//! # ace-bench — parallel deterministic experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation section.
//! Each experiment lives in [`experiments`] as a library entry point
//! (`run_all <experiment>` runs one by name); this library holds the
//! shared machinery:
//!
//! * [`engine`] — the work-stealing job pool every run fans out on,
//! * [`ExperimentSet`] — the builder running workload presets under the
//!   three headline schemes with content-addressed result caching,
//! * table/figure formatting helpers.
//!
//! Run everything with:
//!
//! ```text
//! cargo run --release -p ace-bench --bin run_all -- --jobs 8
//! ```
//!
//! ## Determinism
//!
//! Parallel runs are **byte-identical** to serial ones: jobs are keyed and
//! merged in submission order, each job traces into its own buffered
//! telemetry handle which the engine replays in that same order, and
//! cached results are only written from the ordered merge phase. See
//! [`engine`] for the recipe.
//!
//! ## Caching
//!
//! A run's cache file name embeds a hash of everything that determines
//! its outcome ([`cache_key`]): the workload, the crate version, and the
//! full run configuration. Change any input and the key changes, so stale
//! results can never be mistaken for fresh ones; pass `--fresh` (or
//! [`ExperimentSet::fresh`]) to re-run anyway.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod experiments;

pub use engine::{default_jobs, run_jobs, BenchError, BenchResult, Job, JobOutcome};

use ace_core::{BbvReport, Experiment, HotspotReport, RunConfig, RunRecord, SchemeExt, SchemeRun};
use ace_telemetry::Telemetry;
use ace_workloads::PRESET_NAMES;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// The three runs of one workload plus the scheme reports.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SchemeResults {
    /// Workload name.
    pub workload: String,
    /// Non-adaptive run (maximum cache sizes).
    pub baseline: RunRecord,
    /// BBV + tune-all-combinations run.
    pub bbv: RunRecord,
    /// BBV scheme report.
    pub bbv_report: BbvReport,
    /// Hotspot (DO-based) run.
    pub hotspot: RunRecord,
    /// Hotspot scheme report.
    pub hotspot_report: HotspotReport,
}

impl SchemeResults {
    /// L1D energy saving of the hotspot scheme vs baseline, in percent.
    pub fn hotspot_l1d_saving_pct(&self) -> f64 {
        100.0 * self.hotspot.l1d_saving_vs(&self.baseline)
    }

    /// L2 energy saving of the hotspot scheme vs baseline, in percent.
    pub fn hotspot_l2_saving_pct(&self) -> f64 {
        100.0 * self.hotspot.l2_saving_vs(&self.baseline)
    }

    /// L1D energy saving of the BBV scheme vs baseline, in percent.
    pub fn bbv_l1d_saving_pct(&self) -> f64 {
        100.0 * self.bbv.l1d_saving_vs(&self.baseline)
    }

    /// L2 energy saving of the BBV scheme vs baseline, in percent.
    pub fn bbv_l2_saving_pct(&self) -> f64 {
        100.0 * self.bbv.l2_saving_vs(&self.baseline)
    }

    /// Hotspot-scheme slowdown vs baseline, in percent.
    pub fn hotspot_slowdown_pct(&self) -> f64 {
        100.0 * self.hotspot.slowdown_vs(&self.baseline)
    }

    /// BBV-scheme slowdown vs baseline, in percent.
    pub fn bbv_slowdown_pct(&self) -> f64 {
        100.0 * self.bbv.slowdown_vs(&self.baseline)
    }
}

/// The scheme ids [`ExperimentSet`] runs, in run order.
pub const HEADLINE_SCHEMES: [&str; 3] = ["baseline", "bbv", "hotspot"];

/// Builder running a set of preset workloads under the three headline
/// schemes on the parallel [`engine`], with content-addressed caching.
///
/// ```no_run
/// use ace_bench::ExperimentSet;
///
/// let results = ExperimentSet::all_presets().run_parallel(4)?;
/// for r in &results {
///     println!("{}: {:.1}% L1D saved", r.workload, r.hotspot_l1d_saving_pct());
/// }
/// # Ok::<(), ace_bench::BenchError>(())
/// ```
#[derive(Clone)]
pub struct ExperimentSet {
    presets: Vec<String>,
    base: RunConfig,
    fresh: bool,
    telemetry: Telemetry,
    results_dir: Option<PathBuf>,
}

impl ExperimentSet {
    /// A set over all seven paper workloads ([`PRESET_NAMES`]).
    pub fn all_presets() -> ExperimentSet {
        ExperimentSet::presets(PRESET_NAMES.iter().copied())
    }

    /// A set over the given preset names (order is preserved in the
    /// returned results).
    pub fn presets<I, S>(names: I) -> ExperimentSet
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        ExperimentSet {
            presets: names.into_iter().map(Into::into).collect(),
            base: RunConfig::default(),
            fresh: false,
            telemetry: Telemetry::off(),
            results_dir: None,
        }
    }

    /// Base [`RunConfig`] shared by every run (default
    /// [`RunConfig::default`]). Its telemetry handle is ignored; use
    /// [`ExperimentSet::telemetry`].
    pub fn config(mut self, base: RunConfig) -> ExperimentSet {
        self.base = base;
        self
    }

    /// Forces fresh runs even when cached results exist.
    pub fn fresh(mut self, fresh: bool) -> ExperimentSet {
        self.fresh = fresh;
        self
    }

    /// Attaches an observability handle; traced events and metrics arrive
    /// in deterministic (workload, scheme) order regardless of the pool
    /// width. Cache hits skip their runs and therefore emit nothing.
    pub fn telemetry(mut self, telemetry: &Telemetry) -> ExperimentSet {
        self.telemetry = telemetry.clone();
        self
    }

    /// Overrides the cache directory (default: [`results_dir`], i.e. the
    /// `ACE_RESULTS_DIR` env var or `results/`).
    pub fn results_dir(mut self, dir: impl Into<PathBuf>) -> ExperimentSet {
        self.results_dir = Some(dir.into());
        self
    }

    /// [`ExperimentSet::run_parallel`] at [`default_jobs`] width.
    ///
    /// # Errors
    ///
    /// See [`ExperimentSet::run_parallel`].
    pub fn run(self) -> BenchResult<Vec<SchemeResults>> {
        let width = default_jobs();
        self.run_parallel(width)
    }

    /// Runs every workload as a job on a pool of `jobs` workers, its
    /// [`HEADLINE_SCHEMES`] as legs of one shared run
    /// ([`Experiment::run_schemes`]), and returns one [`SchemeResults`]
    /// per preset, in preset order — byte-identical at any pool width.
    ///
    /// # Errors
    ///
    /// Fails on unknown preset names or when any run fails; every job
    /// still runs, and the error aggregates all failures.
    pub fn run_parallel(self, jobs: usize) -> BenchResult<Vec<SchemeResults>> {
        let dir = self.results_dir.clone().unwrap_or_else(results_dir);

        // Phase 1: resolve caches; one job per missing workload, running
        // its scheme trio as legs of one shared run, in submission order.
        let mut cached: Vec<Option<SchemeResults>> = Vec::with_capacity(self.presets.len());
        let mut pool: Vec<Job<Vec<SchemeRun>>> = Vec::new();
        for name in &self.presets {
            let path = dir.join(cache_file_name(name, &self.base));
            if !self.fresh {
                if let Some(hit) = try_load(&path) {
                    cached.push(Some(hit));
                    continue;
                }
            }
            cached.push(None);
            let name = name.clone();
            let base = self.base.clone();
            pool.push(Job::new(name.clone(), move |tel| {
                Ok(Experiment::preset(name)
                    .config(base)
                    .telemetry(tel)
                    .run_schemes(HEADLINE_SCHEMES)?)
            }));
        }

        // Phase 2: fan out.
        let mut outcomes = run_jobs(pool, jobs, &self.telemetry).into_iter();

        // Phase 3: merge in preset order; write caches; aggregate errors.
        let mut results = Vec::with_capacity(self.presets.len());
        let mut failures: Vec<String> = Vec::new();
        for (name, hit) in self.presets.iter().zip(cached) {
            if let Some(hit) = hit {
                results.push(hit);
                continue;
            }
            let outcome = outcomes.next().expect("one outcome per workload");
            let runs = match outcome.result {
                Ok(runs) => runs,
                Err(e) => {
                    failures.push(format!("{}: {e}", outcome.key));
                    continue;
                }
            };
            let Ok([baseline, bbv, hotspot]) = <[SchemeRun; 3]>::try_from(runs) else {
                unreachable!("one run per scheme of HEADLINE_SCHEMES")
            };
            let (SchemeExt::Bbv(bbv_report), SchemeExt::Hotspot(hotspot_report)) =
                (bbv.report.ext, hotspot.report.ext)
            else {
                unreachable!("scheme order is fixed by HEADLINE_SCHEMES")
            };
            let assembled = SchemeResults {
                workload: name.clone(),
                baseline: baseline.record,
                bbv: bbv.record,
                bbv_report,
                hotspot: hotspot.record,
                hotspot_report,
            };
            let path = dir.join(cache_file_name(name, &self.base));
            if let Err(e) = save(&path, &assembled) {
                eprintln!("warning: could not cache {}: {e}", path.display());
            }
            results.push(assembled);
        }
        if !failures.is_empty() {
            return Err(BenchError::msg(failures.join("; ")));
        }
        Ok(results)
    }
}

/// Directory where cached results live: the `ACE_RESULTS_DIR` env var, or
/// `results/`.
pub fn results_dir() -> PathBuf {
    let root = std::env::var("ACE_RESULTS_DIR").unwrap_or_else(|_| "results".to_string());
    PathBuf::from(root)
}

/// Everything that determines a run's outcome, serialized into the hash.
/// Fields are owned because the vendored serde derive does not handle
/// generic (lifetime-parameterised) structs.
#[derive(Serialize)]
struct KeyMaterial {
    workload: String,
    crate_version: String,
    machine: ace_sim::MachineConfig,
    do_config: ace_runtime::DoConfig,
    energy: ace_energy::EnergyModel,
    instruction_limit: Option<u64>,
    workload_seed: Option<u64>,
}

/// Content-addressed cache key for one workload's [`SchemeResults`]:
/// 16 hex digits of FNV-1a over the serialized run inputs (workload name,
/// crate version, machine/DO/energy configuration, instruction limit,
/// seed). Two configs differing in any of those fields get different
/// keys; the telemetry handle does not participate (observability never
/// changes results).
pub fn cache_key(workload: &str, cfg: &RunConfig) -> String {
    let material = KeyMaterial {
        workload: workload.to_string(),
        crate_version: env!("CARGO_PKG_VERSION").to_string(),
        machine: cfg.machine.clone(),
        do_config: cfg.do_config.clone(),
        energy: cfg.energy,
        instruction_limit: cfg.instruction_limit,
        workload_seed: cfg.workload_seed,
    };
    let bytes = serde_json::to_string(&material).expect("key material serializes");
    // FNV-1a 64, dependency-free and stable across platforms.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes.bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x1_0000_01b3);
    }
    format!("{hash:016x}")
}

fn cache_file_name(workload: &str, cfg: &RunConfig) -> String {
    format!("{workload}-{}.json", cache_key(workload, cfg))
}

fn try_load(path: &Path) -> Option<SchemeResults> {
    let data = std::fs::read_to_string(path).ok()?;
    serde_json::from_str(&data).ok()
}

fn save(path: &Path, results: &SchemeResults) -> std::io::Result<()> {
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    std::fs::create_dir_all(dir)?;
    // Atomic publish: a reader (or a concurrent run) never sees a torn file.
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    std::fs::write(&tmp, serde_json::to_string(results).expect("serializable"))?;
    std::fs::rename(&tmp, path)
}

/// Parses the shared `--telemetry <path>` CLI flag: returns a JSONL-file
/// handle when present, [`Telemetry::off`] otherwise. Exits with a
/// message if the path cannot be created. Cached results skip their runs
/// and therefore their events — combine with `--fresh` for a full trace.
pub fn telemetry_from_args() -> Telemetry {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--telemetry" {
            let Some(path) = args.next() else {
                eprintln!("--telemetry requires a file path");
                std::process::exit(2);
            };
            match Telemetry::jsonl(&path) {
                Ok(tel) => return tel,
                Err(e) => {
                    eprintln!("cannot open telemetry file {path}: {e}");
                    std::process::exit(2);
                }
            }
        }
    }
    Telemetry::off()
}

/// Flushes and prints the telemetry summary (event counts + metrics) to
/// stderr when the handle is enabled; silent otherwise.
pub fn print_telemetry_summary(telemetry: &Telemetry) {
    if telemetry.is_enabled() {
        telemetry.flush();
        eprint!("{}", telemetry.summary());
    }
}

/// Formats a row-major table with a header, aligning columns.
pub fn format_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&head, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Renders grouped horizontal bars (one row per label, one bar per
/// series) — the closest a terminal gets to the paper's figures.
///
/// `series` pairs a short name with one value per label. Values are
/// scaled to `width` columns against the maximum across all series;
/// negative values render as a left-pointing bar.
pub fn bar_chart(labels: &[&str], series: &[(&str, Vec<f64>)], width: usize) -> String {
    let mut out = String::new();
    let max = series
        .iter()
        .flat_map(|(_, v)| v.iter())
        .fold(1e-9f64, |m, &v| m.max(v.abs()));
    let label_w = labels.iter().map(|l| l.len()).max().unwrap_or(4).max(4);
    let name_w = series.iter().map(|(n, _)| n.len()).max().unwrap_or(3);
    for (i, label) in labels.iter().enumerate() {
        for (j, (name, values)) in series.iter().enumerate() {
            let v = values.get(i).copied().unwrap_or(0.0);
            let cols = ((v.abs() / max) * width as f64).round() as usize;
            let bar: String = std::iter::repeat_n(if j == 0 { '█' } else { '▒' }, cols).collect();
            let sign = if v < 0.0 { "-" } else { "" };
            out.push_str(&format!(
                "{:>label_w$} {:<name_w$} |{sign}{bar} {v:.1}
",
                if j == 0 { label } else { "" },
                name,
            ));
        }
    }
    out
}

/// Appends one experiment's formatted output to `results/SUMMARY.md`.
///
/// Not thread-safe (read-modify-write): call it from the ordered merge
/// phase — e.g. via [`experiments::commit_report`] — never from inside a
/// job.
pub fn append_summary(section: &str, body: &str) {
    let path = results_dir().join("SUMMARY.md");
    let _ = std::fs::create_dir_all(results_dir());
    let mut text = std::fs::read_to_string(&path).unwrap_or_default();
    // Replace an existing section of the same name, else append.
    let header = format!(
        "## {section}
"
    );
    if let Some(start) = text.find(&header) {
        let rest = &text[start + header.len()..];
        let end = rest
            .find(
                "
## ",
            )
            .map(|e| start + header.len() + e + 1)
            .unwrap_or(text.len());
        text.replace_range(start..end, "");
    }
    text.push_str(&header);
    text.push_str(
        "
```text
",
    );
    text.push_str(body.trim_end());
    text.push_str(
        "
```

",
    );
    let _ = std::fs::write(&path, text);
}

/// Arithmetic mean (the paper's "avg" rows average percentages).
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_table_aligns() {
        let t = format_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "123456".into()],
            ],
        );
        assert!(t.contains("long-name"));
        assert!(t.lines().count() == 4);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean([]), 0.0);
        assert_eq!(mean([2.0, 4.0]), 3.0);
    }

    #[test]
    fn bar_chart_scales_and_labels() {
        let chart = bar_chart(
            &["db", "jess"],
            &[("BBV", vec![10.0, 20.0]), ("hot", vec![40.0, -5.0])],
            20,
        );
        assert!(chart.contains("db"));
        assert!(chart.contains("jess"));
        assert!(chart.contains("40.0"));
        assert!(
            chart.contains("-▒ 5.0") || chart.contains("-5.0"),
            "{chart}"
        );
        // The largest value spans the full width (second series uses ▒).
        let max_line = chart.lines().find(|l| l.contains("40.0")).unwrap();
        assert_eq!(max_line.matches('▒').count(), 20);
    }

    #[test]
    fn summary_section_replacement() {
        let dir = std::env::temp_dir().join(format!("ace_sum_{}", std::process::id()));
        std::env::set_var("ACE_RESULTS_DIR", &dir);
        append_summary("Alpha", "first");
        append_summary("Beta", "second");
        append_summary("Alpha", "updated");
        let text = std::fs::read_to_string(dir.join("SUMMARY.md")).unwrap();
        std::env::remove_var("ACE_RESULTS_DIR");
        let _ = std::fs::remove_dir_all(&dir);
        assert!(!text.contains("first"));
        assert!(text.contains("updated"));
        assert!(text.contains("second"));
        assert_eq!(text.matches("## Alpha").count(), 1);
    }

    #[test]
    fn cache_key_tracks_config_fields() {
        let base = RunConfig::default();
        let key = cache_key("db", &base);
        assert_eq!(key.len(), 16);
        // Identical inputs → identical key.
        assert_eq!(key, cache_key("db", &RunConfig::default()));
        // Any varying input → different key.
        let limited = RunConfig {
            instruction_limit: Some(1_000_000),
            ..RunConfig::default()
        };
        assert_ne!(key, cache_key("db", &limited));
        let seeded = RunConfig {
            workload_seed: Some(7),
            ..RunConfig::default()
        };
        assert_ne!(key, cache_key("db", &seeded));
        assert_ne!(key, cache_key("jess", &base));
        // Telemetry is observability, not an input: same key either way.
        let traced = RunConfig {
            telemetry: Telemetry::counting(),
            ..RunConfig::default()
        };
        assert_eq!(key, cache_key("db", &traced));
    }

    #[test]
    fn unknown_preset_fails_with_context() {
        let dir = std::env::temp_dir().join(format!("ace_unknown_{}", std::process::id()));
        let err = ExperimentSet::presets(["not-a-workload"])
            .results_dir(dir.clone())
            .run_parallel(2)
            .unwrap_err();
        let _ = std::fs::remove_dir_all(&dir);
        assert!(err.to_string().contains("not-a-workload"), "{err}");
    }
}
