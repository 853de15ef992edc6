//! # ace-bench — parallel deterministic experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation section.
//! Each experiment lives in [`experiments`] as a library entry point
//! (`run_all <experiment>` runs one by name); this library holds the
//! shared machinery:
//!
//! * [`engine`] — the job pool every run fans out on: fixed-size, one
//!   shared FIFO queue,
//! * [`ExperimentSet`] — the builder running workloads under a scheme
//!   set ([`CachedResults`]) with content-addressed result caching,
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
//!
//! The headline and PDM sets are the harness's only result caches
//! ([`ExperimentSet::run_cached`]), written by [`save_atomic`]. Every
//! other committed result is a `results/<name>.txt` report that a full
//! `run_all` rewrites and CI diffs; no run reads a report back.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod experiments;

pub use engine::{default_jobs, run_jobs, BenchError, BenchResult, Job, JobOutcome};

use ace_core::{
    fnv1a, BbvReport, Experiment, HotspotReport, RunConfig, RunRecord, SchemeExt, SchemeRun,
};
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

/// One workload's scheme runs, as an [`ExperimentSet`] caches them under
/// `results/<PREFIX><workload>-<key>.json`: the headline
/// [`SchemeResults`], or PDM's [`experiments::pdm::PdmResults`].
pub trait CachedResults: Serialize + Deserialize + 'static {
    /// Prefix of the set's cache-file namespace.
    const PREFIX: &'static str;
    /// Scheme ids every workload runs, as legs of one shared run, in order.
    const SCHEMES: &'static [&'static str];

    /// The experiment a workload's legs run: the named preset or spec
    /// file unless the set defines workloads of its own.
    fn experiment(workload: &str) -> Experiment {
        Experiment::workload(workload)
    }

    /// Assembles one workload's results from its runs, in
    /// [`CachedResults::SCHEMES`] order.
    fn assemble(workload: &str, runs: Vec<SchemeRun>) -> Self;
}

impl CachedResults for SchemeResults {
    const PREFIX: &'static str = "";
    const SCHEMES: &'static [&'static str] = &["baseline", "bbv", "hotspot"];

    fn assemble(workload: &str, runs: Vec<SchemeRun>) -> SchemeResults {
        let Ok([baseline, bbv, hotspot]) = <[SchemeRun; 3]>::try_from(runs) else {
            unreachable!("one run per scheme of SCHEMES")
        };
        let (SchemeExt::Bbv(bbv_report), SchemeExt::Hotspot(hotspot_report)) =
            (bbv.report.ext, hotspot.report.ext)
        else {
            unreachable!("scheme order is fixed by SCHEMES")
        };
        SchemeResults {
            workload: workload.to_string(),
            baseline: baseline.record,
            bbv: bbv.record,
            bbv_report,
            hotspot: hotspot.record,
            hotspot_report,
        }
    }
}

/// Builder running a set of workloads under a scheme set on the parallel
/// [`engine`], with content-addressed caching: the three headline schemes
/// by default ([`ExperimentSet::run_parallel`]), any [`CachedResults`]
/// set through [`ExperimentSet::run_cached`].
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
    workloads: Vec<String>,
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

    /// A set over the given workload names (order is preserved in the
    /// returned results): presets, spec-file paths, or the workloads a
    /// [`CachedResults`] set defines.
    pub fn presets<I, S>(names: I) -> ExperimentSet
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        ExperimentSet {
            workloads: names.into_iter().map(Into::into).collect(),
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

    /// [`ExperimentSet::run_cached`] under the three headline schemes.
    ///
    /// # Errors
    ///
    /// See [`ExperimentSet::run_cached`].
    pub fn run_parallel(self, jobs: usize) -> BenchResult<Vec<SchemeResults>> {
        self.run_cached(jobs)
    }

    /// The cache file names [`ExperimentSet::run_cached`] reads and writes
    /// for `R`, in workload order: `<PREFIX><workload>-<key>.json`.
    pub fn cache_files<R: CachedResults>(&self) -> Vec<String> {
        self.workloads
            .iter()
            .map(|name| format!("{}{name}-{}.json", R::PREFIX, cache_key(name, &self.base)))
            .collect()
    }

    /// Runs every workload as a job on a pool of `jobs` workers, its
    /// [`CachedResults::SCHEMES`] as legs of one shared run
    /// ([`Experiment::run_schemes`]), and returns one `R` per workload,
    /// in workload order — byte-identical at any pool width. Cached
    /// workloads are read instead of run, and fresh results are cached.
    ///
    /// # Errors
    ///
    /// Fails on unknown workload names or when any run fails; every job
    /// still runs, and the error aggregates all failures.
    pub fn run_cached<R: CachedResults>(self, jobs: usize) -> BenchResult<Vec<R>> {
        let dir = self.results_dir.clone().unwrap_or_else(results_dir);
        let paths: Vec<PathBuf> = self
            .cache_files::<R>()
            .into_iter()
            .map(|file| dir.join(file))
            .collect();

        // Phase 1: resolve caches; one job per missing workload, in
        // submission order.
        let mut cached: Vec<Option<R>> = Vec::with_capacity(self.workloads.len());
        let mut pool: Vec<Job<Vec<SchemeRun>>> = Vec::new();
        for (name, path) in self.workloads.iter().zip(&paths) {
            let hit = if self.fresh {
                None
            } else {
                std::fs::read_to_string(path)
                    .ok()
                    .and_then(|text| serde_json::from_str(&text).ok())
            };
            if hit.is_none() {
                let name = name.clone();
                let base = self.base.clone();
                pool.push(Job::new(name.clone(), move |tel| {
                    Ok(R::experiment(&name)
                        .config(base)
                        .telemetry(tel)
                        .run_schemes(R::SCHEMES.iter().copied())?)
                }));
            }
            cached.push(hit);
        }

        // Phase 2: fan out.
        let mut outcomes = run_jobs(pool, jobs, &self.telemetry).into_iter();

        // Phase 3: merge in workload order; write caches; aggregate errors.
        let mut results = Vec::with_capacity(self.workloads.len());
        let mut failures: Vec<String> = Vec::new();
        for ((name, path), hit) in self.workloads.iter().zip(&paths).zip(cached) {
            if let Some(hit) = hit {
                results.push(hit);
                continue;
            }
            let outcome = outcomes.next().expect("one outcome per uncached workload");
            match outcome.result {
                Ok(runs) => {
                    let assembled = R::assemble(name, runs);
                    let json = serde_json::to_string(&assembled).expect("results serialize");
                    if let Err(e) = save_atomic(path, &json) {
                        eprintln!("warning: could not cache {e}");
                    }
                    results.push(assembled);
                }
                Err(e) => failures.push(format!("{}: {e}", outcome.key)),
            }
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

/// Content-addressed cache key for one workload's cached results:
/// [`content_key`] over the serialized run inputs (workload name, crate
/// version, machine/DO/energy configuration, instruction limit, seed).
/// Two configs differing in any of those fields get different keys; the
/// telemetry handle does not participate (observability never changes
/// results).
pub fn cache_key(workload: &str, cfg: &RunConfig) -> String {
    content_key(&KeyMaterial {
        workload: workload.to_string(),
        crate_version: env!("CARGO_PKG_VERSION").to_string(),
        machine: cfg.machine.clone(),
        do_config: cfg.do_config.clone(),
        energy: cfg.energy,
        instruction_limit: cfg.instruction_limit,
        workload_seed: cfg.workload_seed,
    })
}

/// 16 hex digits of [`fnv1a`] over the JSON serialization of
/// `material`: two values get equal keys iff their JSON is
/// byte-identical.
pub fn content_key<T: Serialize + ?Sized>(material: &T) -> String {
    let json = serde_json::to_string(material).expect("key material serializes");
    format!("{:016x}", fnv1a(json.bytes()))
}

/// Writes `text` to `path` atomically, creating the parent directory: a
/// temp file renamed into place, so a reader (or a concurrent run) never
/// sees a torn file.
///
/// # Errors
///
/// Fails, naming the path, when the directory, the temp file or the
/// rename fails.
pub fn save_atomic(path: &Path, text: &str) -> BenchResult<()> {
    let fail = |p: &Path, e: std::io::Error| BenchError::msg(format!("{}: {e}", p.display()));
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| fail(dir, e))?;
    }
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    std::fs::write(&tmp, text).map_err(|e| fail(&tmp, e))?;
    std::fs::rename(&tmp, path).map_err(|e| fail(path, e))
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
    fn save_atomic_creates_the_directory_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("ace_cache_io_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("entry.json");
        save_atomic(&path, "[1,2,3]").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "[1,2,3]");
        let names: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["entry.json"], "no temp file is left behind");
        let _ = std::fs::remove_dir_all(&dir);
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
