//! **Corpus: differential oracles over generated workloads.**
//!
//! Every workload here comes from [`ace_workloads::gen`] — randomized but
//! fully deterministic specs the repo has never hand-tuned — and every
//! run is checked against *oracles* instead of golden numbers (there are
//! no goldens for workloads that did not exist a second ago):
//!
//! 1. **jobs=1 vs jobs=N** — each `(workload, scheme)` run executes once
//!    on the calling thread (the reference) and once as an engine job on
//!    a multi-worker pool; the serialized [`RunRecord`]s must be
//!    byte-identical. Catches schedule-dependent state leaking into
//!    results.
//! 2. **scheme-invariant counters** — the reference instruction stream
//!    is configuration-independent, so retired instructions, branch
//!    count, L1I/L1D accesses, L1D stores and DTLB translations must be
//!    equal across *all* schemes for one workload (misses, cycles, IPC
//!    and energy legitimately differ — those are what the schemes
//!    change).
//! 3. **shared stream** — all five schemes run again as legs of one
//!    shared run ([`Experiment::run_schemes`]), in lockstep off a single
//!    executor; every leg's record must be byte-identical to its solo
//!    reference. Catches state leaking between legs and a stream that
//!    depends on the machine it feeds.
//!
//! A workload that trips any oracle is written to the failure directory
//! as a spec file, then handed to [`ace_workloads::minimize`] with the
//! same oracle as the predicate; the minimized reproducer lands next to
//! it, ready to be committed under
//! `crates/workloads/fixtures/regressions/`. Minimization re-simulates
//! per candidate, so it only spends that time when a real bug exists.
//!
//! The registry entry runs a small corpus (CI-sized); a full `run_all`
//! writes its report to `results/corpus.txt`, which is committed and
//! checked like every other report. The `corpus` binary scales the same
//! machinery to nightly-stress sizes and can fold in the seven presets
//! at a 100x iteration scale.

use super::{outln, ExpCtx, Report};
use crate::{content_key, format_table, results_dir, run_jobs, BenchResult, Job};
use ace_core::{fnv1a, Experiment, RunRecord};
use ace_telemetry::Telemetry;
use ace_workloads::{gen, minimize, GenParams, WorkloadSpec};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Scheme ids every corpus workload runs under: the full builtin
/// registry, in registration order.
pub const CORPUS_SCHEMES: [&str; 5] = ["baseline", "hotspot", "bbv", "positional", "pdm"];

/// Default seed of the generated sequence (workload `i` uses
/// `seed_base + i`). Chosen once and pinned: the corpus is randomized in
/// construction, deterministic in replay.
pub const DEFAULT_SEED_BASE: u64 = 0x5EED_BA5E;

/// Default per-run instruction budget. Large enough for the DO system to
/// promote hotspots and the BBV scheme to see several intervals; small
/// enough that a 64-workload corpus finishes in CI minutes.
pub const DEFAULT_LIMIT: u64 = 2_000_000;

/// Corpus size the registry entry (and the push gate) runs.
pub const CI_COUNT: usize = 8;

/// Corpus size the `corpus` binary defaults to (the acceptance size).
pub const DEFAULT_COUNT: usize = 64;

/// One corpus invocation's shape.
#[derive(Debug, Clone)]
pub struct CorpusParams {
    /// Generated workloads to run.
    pub count: usize,
    /// Base of the generation seed sequence.
    pub seed_base: u64,
    /// Worker-pool width for the jobs=N differential pass.
    pub jobs: usize,
    /// Per-run instruction budget for generated workloads.
    pub instruction_limit: u64,
    /// Multiplies every generated spec's `outer_iters` (nightly stress).
    pub scale: u32,
    /// Also run the seven presets scaled by this factor (their natural
    /// length times N, no instruction limit) through the same oracles —
    /// the nightly "full-length 100x presets" tier.
    pub preset_scale: Option<u32>,
    /// Where failing specs (original + minimized) are written.
    pub fail_dir: PathBuf,
}

impl Default for CorpusParams {
    fn default() -> CorpusParams {
        CorpusParams {
            count: CI_COUNT,
            seed_base: DEFAULT_SEED_BASE,
            jobs: 2,
            instruction_limit: DEFAULT_LIMIT,
            scale: 1,
            preset_scale: None,
            fail_dir: results_dir().join("corpus-failures"),
        }
    }
}

/// One oracle violation: which workload, which oracle, and where the
/// reproducer specs were written.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CorpusFailure {
    /// Workload name (`gen-<seed>` or a preset name).
    pub workload: String,
    /// Oracle id: `"jobs"`, `"counters"` or `"shared"`.
    pub oracle: String,
    /// Human-readable mismatch detail.
    pub detail: String,
    /// Failing spec as written to the failure directory.
    pub spec_file: String,
    /// Minimized reproducer, when minimization made progress.
    pub minimized_file: Option<String>,
}

/// Everything one corpus run produced.
#[derive(Debug)]
pub struct CorpusOutcome {
    /// Workloads that went through every oracle.
    pub workloads: usize,
    /// Individual simulator runs executed.
    pub runs: usize,
    /// Oracle violations (empty on a healthy corpus).
    pub failures: Vec<CorpusFailure>,
    /// Per-workload rows for the report: `(name, instret, digest)` where
    /// the digest fingerprints the workload's full scheme-record set.
    pub rows: Vec<(String, u64, String)>,
}

/// Byte-level fingerprint of one run: [`content_key`] over the record.
/// Two records digest equal iff their JSON is byte-identical — exactly
/// the equality the jobs oracle is defined over.
pub fn record_digest(record: &RunRecord) -> String {
    content_key(record)
}

/// The counters every scheme must agree on: the workload's reference
/// stream, untouched by cache/TLB/window reconfiguration.
fn invariant_counters(r: &RunRecord) -> (u64, u64, u64, u64, u64, u64) {
    (
        r.instret,
        r.counters.branch.branches,
        r.counters.l1i.total_accesses(),
        r.counters.l1d.total_accesses(),
        r.counters.l1d.stores.iter().sum(),
        r.counters.dtlb.accesses,
    )
}

fn experiment(spec: &WorkloadSpec, limit: Option<u64>, telemetry: &Telemetry) -> Experiment {
    let e = Experiment::spec(spec.clone()).telemetry(telemetry);
    match limit {
        Some(limit) => e.instruction_limit(limit),
        None => e,
    }
}

fn run_one(
    spec: &WorkloadSpec,
    scheme: &str,
    limit: Option<u64>,
    telemetry: &Telemetry,
) -> BenchResult<RunRecord> {
    let e = experiment(spec, limit, telemetry);
    e.scheme(scheme).run().map_err(crate::BenchError::from)
}

/// Digests of every corpus scheme run as a leg of one shared run.
fn shared_digests(
    spec: &WorkloadSpec,
    limit: Option<u64>,
    telemetry: &Telemetry,
) -> BenchResult<Vec<String>> {
    let runs = experiment(spec, limit, telemetry).run_schemes(CORPUS_SCHEMES)?;
    Ok(runs.iter().map(|run| record_digest(&run.record)).collect())
}

/// Serial reference digests for every scheme of one spec.
fn reference_digests(
    spec: &WorkloadSpec,
    limit: Option<u64>,
    telemetry: &Telemetry,
) -> BenchResult<Vec<(String, RunRecord, String)>> {
    CORPUS_SCHEMES
        .iter()
        .map(|scheme| {
            let record = run_one(spec, scheme, limit, telemetry)?;
            let digest = record_digest(&record);
            Ok((scheme.to_string(), record, digest))
        })
        .collect()
}

/// Re-evaluates one oracle from scratch on `spec` — the minimizer's
/// predicate. Resolution failures (a candidate that no longer builds)
/// count as "does not reproduce": the minimizer must stay inside the
/// original failure, not wander into unrelated breakage.
fn oracle_fails(spec: &WorkloadSpec, oracle: &str, limit: Option<u64>, jobs: usize) -> bool {
    let off = Telemetry::off();
    let Ok(reference) = reference_digests(spec, limit, &off) else {
        return false;
    };
    match oracle {
        "jobs" => {
            let pool: Vec<Job<String>> = CORPUS_SCHEMES
                .iter()
                .map(|scheme| {
                    let spec = spec.clone();
                    let scheme = *scheme;
                    Job::new(format!("{}/{scheme}", spec.name), move |tel| {
                        run_one(&spec, scheme, limit, tel).map(|r| record_digest(&r))
                    })
                })
                .collect();
            run_jobs(pool, jobs.max(2), &off)
                .into_iter()
                .zip(&reference)
                .any(|(outcome, (_, _, want))| match outcome.result {
                    Ok(digest) => digest != *want,
                    Err(_) => false,
                })
        }
        "counters" => {
            let base = invariant_counters(&reference[0].1);
            reference
                .iter()
                .any(|(_, record, _)| invariant_counters(record) != base)
        }
        "shared" => shared_digests(spec, limit, &off).is_ok_and(|shared| {
            shared
                .iter()
                .zip(&reference)
                .any(|(got, (_, _, want))| got != want)
        }),
        _ => false,
    }
}

/// Writes `spec` under `dir` as `<stem>.json`, creating `dir`.
fn write_spec(dir: &Path, stem: &str, spec: &WorkloadSpec) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{stem}.json"));
    let json = serde_json::to_string(spec).expect("spec serializes");
    std::fs::write(&path, json + "\n")?;
    Ok(path)
}

/// Captures one oracle violation: writes the failing spec, minimizes it
/// with the same oracle, writes the reproducer.
fn capture_failure(
    params: &CorpusParams,
    spec: &WorkloadSpec,
    limit: Option<u64>,
    oracle: &str,
    detail: String,
) -> CorpusFailure {
    let stem = format!("{}-{oracle}", spec.name);
    let spec_file = write_spec(&params.fail_dir, &stem, spec)
        .map(|p| p.display().to_string())
        .unwrap_or_else(|e| format!("(unwritable: {e})"));
    let out = minimize(spec, &mut |candidate| {
        oracle_fails(candidate, oracle, limit, params.jobs)
    });
    let minimized_file = (out.accepted > 0).then(|| {
        write_spec(&params.fail_dir, &format!("{stem}-min"), &out.spec)
            .map(|p| p.display().to_string())
            .unwrap_or_else(|e| format!("(unwritable: {e})"))
    });
    CorpusFailure {
        workload: spec.name.clone(),
        oracle: oracle.to_string(),
        detail,
        spec_file,
        minimized_file,
    }
}

/// The workload list one corpus invocation covers: `count` generated
/// specs (scaled), plus the presets when a preset scale is set.
pub fn corpus_specs(params: &CorpusParams) -> Vec<(WorkloadSpec, Option<u64>)> {
    let mut specs: Vec<(WorkloadSpec, Option<u64>)> = (0..params.count)
        .map(|i| {
            let spec = gen(params.seed_base + i as u64, &GenParams::default());
            let spec = if params.scale > 1 {
                spec.scaled(params.scale)
            } else {
                spec
            };
            (spec, Some(params.instruction_limit))
        })
        .collect();
    if let Some(scale) = params.preset_scale {
        for name in ace_workloads::PRESET_NAMES {
            let spec = ace_workloads::preset_spec(name).expect("preset exists");
            // Full-length runs: the scaled presets get no instruction
            // limit — termination is the workload's own.
            specs.push((spec.scaled(scale), None));
        }
    }
    specs
}

/// Runs the corpus: every workload through every scheme under the three
/// differential oracles. Infrastructure errors (a run that fails
/// outright) abort; oracle violations are collected, minimized, and
/// returned.
///
/// # Errors
///
/// Propagates the first failed run — a corpus workload that cannot run
/// at all is a [`ace_workloads::gen`] contract violation, not an oracle
/// finding.
pub fn run_corpus(params: &CorpusParams, telemetry: &Telemetry) -> BenchResult<CorpusOutcome> {
    let specs = corpus_specs(params);
    let mut outcome = CorpusOutcome {
        workloads: specs.len(),
        runs: 0,
        failures: Vec::new(),
        rows: Vec::new(),
    };

    // Serial references, one digest per (workload, scheme).
    let mut references = Vec::with_capacity(specs.len());
    for (spec, limit) in &specs {
        let reference = reference_digests(spec, *limit, telemetry)?;
        outcome.runs += reference.len();
        references.push(reference);
    }

    // The jobs oracle: the same runs as engine jobs on a jobs=N pool.
    let pool: Vec<Job<String>> = specs
        .iter()
        .flat_map(|(spec, limit)| {
            CORPUS_SCHEMES.iter().map(|scheme| {
                let spec = spec.clone();
                let scheme = *scheme;
                let limit = *limit;
                Job::new(format!("{}/{scheme}", spec.name), move |tel| {
                    run_one(&spec, scheme, limit, tel).map(|r| record_digest(&r))
                })
            })
        })
        .collect();
    let parallel = run_jobs(pool, params.jobs, telemetry);
    outcome.runs += parallel.len();
    let mut parallel = parallel.into_iter();
    for ((spec, limit), reference) in specs.iter().zip(&references) {
        for (scheme, _, want) in reference {
            let job = parallel.next().expect("one outcome per submitted job");
            let got = job.result?;
            if got != *want {
                let detail = format!(
                    "{scheme}: jobs={} digest {got} != serial reference {want}",
                    params.jobs
                );
                outcome
                    .failures
                    .push(capture_failure(params, spec, *limit, "jobs", detail));
                break;
            }
        }
    }

    // The shared-stream oracle: every scheme as a leg of one shared run,
    // one engine job per workload.
    let pool: Vec<Job<Vec<String>>> = specs
        .iter()
        .map(|(spec, limit)| {
            let spec = spec.clone();
            let limit = *limit;
            Job::new(format!("{}/shared", spec.name), move |tel| {
                shared_digests(&spec, limit, tel)
            })
        })
        .collect();
    let shared = run_jobs(pool, params.jobs, telemetry);
    for (((spec, limit), reference), job) in specs.iter().zip(&references).zip(shared) {
        let digests = job.result?;
        outcome.runs += digests.len();
        let mismatch = digests
            .iter()
            .zip(reference)
            .find(|(got, (_, _, want))| *got != want);
        if let Some((got, (scheme, _, want))) = mismatch {
            let detail = format!("{scheme}: shared-stream digest {got} != solo reference {want}");
            outcome
                .failures
                .push(capture_failure(params, spec, *limit, "shared", detail));
        }
    }

    // The counters oracle: scheme-invariant counters, from the
    // reference records.
    for ((spec, limit), reference) in specs.iter().zip(&references) {
        let base = invariant_counters(&reference[0].1);
        if let Some((scheme, record, _)) = reference
            .iter()
            .find(|(_, record, _)| invariant_counters(record) != base)
        {
            let detail = format!(
                "{scheme}: reference-stream counters {:?} != baseline's {:?}",
                invariant_counters(record),
                base
            );
            outcome
                .failures
                .push(capture_failure(params, spec, *limit, "counters", detail));
        }
    }

    for ((spec, _), reference) in specs.iter().zip(&references) {
        let fingerprint = fnv1a(reference.iter().flat_map(|(_, _, digest)| digest.bytes()));
        outcome.rows.push((
            spec.name.clone(),
            reference[0].1.instret,
            format!("{fingerprint:016x}"),
        ));
    }
    Ok(outcome)
}

/// Renders one corpus outcome into a report body.
pub fn render(params: &CorpusParams, outcome: &CorpusOutcome, out: &mut String) {
    outln!(
        out,
        "Corpus: {} generated workloads (seed base {:#x}), {} schemes, {} runs",
        params.count,
        params.seed_base,
        CORPUS_SCHEMES.len(),
        outcome.runs
    );
    outln!(
        out,
        "oracles: jobs=1 vs jobs={}, scheme-invariant counters, shared stream\n",
        params.jobs
    );
    let rows: Vec<Vec<String>> = outcome
        .rows
        .iter()
        .map(|(name, instret, fingerprint)| {
            vec![name.clone(), format!("{instret}"), fingerprint.clone()]
        })
        .collect();
    outln!(
        out,
        "{}",
        format_table(&["workload", "instret", "fingerprint"], &rows)
    );
    if outcome.failures.is_empty() {
        outln!(
            out,
            "all {} workloads passed every oracle",
            outcome.workloads
        );
    } else {
        outln!(out, "{} ORACLE VIOLATION(S):", outcome.failures.len());
        for f in &outcome.failures {
            outln!(out, "  {} [{}]: {}", f.workload, f.oracle, f.detail);
            outln!(out, "    spec: {}", f.spec_file);
            if let Some(minimized) = &f.minimized_file {
                outln!(out, "    minimized: {}", minimized);
            }
        }
    }
}

pub(super) fn run(ctx: &ExpCtx) -> BenchResult<Report> {
    let mut report = Report::new("corpus");
    let params = CorpusParams::default();
    let outcome = run_corpus(&params, &ctx.telemetry)?;
    render(&params, &outcome, &mut report.text);
    if !outcome.failures.is_empty() {
        return Err(crate::BenchError::msg(format!(
            "corpus: {} oracle violation(s); specs under {}",
            outcome.failures.len(),
            params.fail_dir.display()
        )));
    }
    Ok(report)
}
