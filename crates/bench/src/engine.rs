//! # Experiment engine: a fixed pool over one shared job queue
//!
//! Every unit of evaluation work — one workload's scheme trio run as
//! legs of one shared run, one sibling experiment — becomes a [`Job`]
//! with a deterministic key. Jobs fan out across a fixed-size pool of
//! scoped OS threads that pop the next job from one shared FIFO queue (a
//! `Mutex<VecDeque>`; no per-worker queues, no stealing) ([`run_jobs`]); results
//! and telemetry are merged back **in submission order**, so every
//! output table, cached JSON file, and telemetry summary is
//! byte-identical to a serial (`--jobs 1`) run.
//!
//! Determinism recipe:
//!
//! * workers only *compute*; nothing is printed or written from inside a
//!   job,
//! * each job records into its own buffered [`Telemetry`] child handle
//!   ([`Telemetry::buffered`]),
//! * after the pool drains, children are absorbed into the parent handle
//!   in job-submission order ([`Telemetry::absorb_child`]),
//! * panics are caught per job and surface as [`BenchError`]s, so one
//!   crashing experiment cannot take down the pool.

use ace_core::ExperimentError;
use ace_telemetry::Telemetry;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Error type of the bench harness: a message, optionally chained from an
/// experiment or I/O failure.
#[derive(Debug, Clone)]
pub struct BenchError(String);

impl BenchError {
    /// Wraps a message.
    pub fn msg(text: impl Into<String>) -> BenchError {
        BenchError(text.into())
    }
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for BenchError {}

impl From<String> for BenchError {
    fn from(s: String) -> BenchError {
        BenchError(s)
    }
}

impl From<&str> for BenchError {
    fn from(s: &str) -> BenchError {
        BenchError(s.to_string())
    }
}

impl From<ExperimentError> for BenchError {
    fn from(e: ExperimentError) -> BenchError {
        BenchError(e.to_string())
    }
}

impl From<std::io::Error> for BenchError {
    fn from(e: std::io::Error) -> BenchError {
        BenchError(e.to_string())
    }
}

/// Result alias used across the harness.
pub type BenchResult<T> = Result<T, BenchError>;

/// One schedulable unit of work with a deterministic key.
///
/// The closure receives the job's own telemetry handle — a buffered child
/// of the pool's parent handle when tracing is on, [`Telemetry::off`]
/// otherwise — and must route any events through it rather than a shared
/// handle, or cross-job interleaving would become schedule-dependent.
pub struct Job<T> {
    key: String,
    #[allow(clippy::type_complexity)]
    work: Box<dyn FnOnce(&Telemetry) -> BenchResult<T> + Send>,
}

impl<T> Job<T> {
    /// A job named `key` running `work`.
    pub fn new(
        key: impl Into<String>,
        work: impl FnOnce(&Telemetry) -> BenchResult<T> + Send + 'static,
    ) -> Job<T> {
        Job {
            key: key.into(),
            work: Box::new(work),
        }
    }

    /// The job's deterministic key (e.g. `"javac/hotspot"`).
    pub fn key(&self) -> &str {
        &self.key
    }
}

/// The outcome of one [`Job`], in submission order.
pub struct JobOutcome<T> {
    /// The job's key.
    pub key: String,
    /// Computed value, or the failure/panic message.
    pub result: BenchResult<T>,
    /// Wall-clock time the job spent on its worker.
    pub wall: Duration,
    /// Time the job sat in the queue before a worker dequeued it.
    pub queue_wait: Duration,
}

/// Bucket bounds (milliseconds) for the engine's scheduling histograms.
/// Spans sub-millisecond dequeues up to minute-long experiment jobs.
const MS_BUCKETS: [f64; 10] = [
    1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1_000.0, 5_000.0, 15_000.0, 60_000.0,
];

/// Worker-pool width: `ACE_JOBS` if set and positive, else the machine's
/// available parallelism, else 1.
pub fn default_jobs() -> usize {
    if let Ok(v) = std::env::var("ACE_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `jobs` on a pool of at most `width` scoped threads and returns
/// their outcomes **in submission order**, having absorbed each job's
/// buffered telemetry into `telemetry` in that same order.
///
/// A job that returns `Err` or panics yields an `Err` outcome; the other
/// jobs are unaffected. `width` is clamped to `1..=jobs.len()`.
pub fn run_jobs<T: Send>(
    jobs: Vec<Job<T>>,
    width: usize,
    telemetry: &Telemetry,
) -> Vec<JobOutcome<T>> {
    let n = jobs.len();
    if n == 0 {
        return Vec::new();
    }
    let width = width.max(1).min(n);

    struct Done<T> {
        key: String,
        result: BenchResult<T>,
        child: Telemetry,
        events: Vec<ace_telemetry::Event>,
        wall: Duration,
        queue_wait: Duration,
    }

    let queue: Mutex<VecDeque<(usize, Job<T>)>> =
        Mutex::new(jobs.into_iter().enumerate().collect());
    let mut slots: Vec<Option<Done<T>>> = (0..n).map(|_| None).collect();
    let pool_start = Instant::now();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..width)
            .map(|_| {
                let queue = &queue;
                let parent = telemetry;
                scope.spawn(move || {
                    let mut done: Vec<(usize, Done<T>)> = Vec::new();
                    loop {
                        let next = queue.lock().expect("job queue").pop_front();
                        let Some((index, job)) = next else { break };
                        let queue_wait = pool_start.elapsed();
                        let (child, buffer) = if parent.is_enabled() {
                            let (tel, sink) = Telemetry::buffered();
                            (tel, Some(sink))
                        } else {
                            (Telemetry::off(), None)
                        };
                        let Job { key, work } = job;
                        let start = Instant::now();
                        let result = match catch_unwind(AssertUnwindSafe(|| work(&child))) {
                            Ok(r) => r,
                            Err(panic) => Err(BenchError::msg(format!(
                                "job {key} panicked: {}",
                                panic_text(&*panic)
                            ))),
                        };
                        let wall = start.elapsed();
                        let events = buffer.map(|b| b.drain()).unwrap_or_default();
                        done.push((
                            index,
                            Done {
                                key,
                                result,
                                child,
                                events,
                                wall,
                                queue_wait,
                            },
                        ));
                    }
                    done
                })
            })
            .collect();
        for handle in handles {
            for (index, done) in handle.join().expect("worker thread") {
                slots[index] = Some(done);
            }
        }
    });

    // Merge phase, strictly in submission order: telemetry replay here is
    // what makes a parallel run byte-identical to a serial one. Scheduling
    // histograms live in the metrics registry (the wall-clock domain), so
    // recording them here does not perturb the deterministic event stream.
    let histograms = telemetry.metrics().map(|m| {
        m.counter("engine.jobs").add(n as u64);
        (
            m.histogram("engine.job_wall_ms", &MS_BUCKETS),
            m.histogram("engine.queue_wait_ms", &MS_BUCKETS),
        )
    });
    slots
        .into_iter()
        .map(|slot| {
            let done = slot.expect("every job ran");
            telemetry.absorb_child(&done.child, &done.events);
            if let Some((wall_hist, wait_hist)) = &histograms {
                wall_hist.record(done.wall.as_secs_f64() * 1_000.0);
                wait_hist.record(done.queue_wait.as_secs_f64() * 1_000.0);
            }
            JobOutcome {
                key: done.key,
                result: done.result,
                wall: done.wall,
                queue_wait: done.queue_wait,
            }
        })
        .collect()
}

fn panic_text(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_telemetry::{Event, EventKind, Scope};

    fn tuning_event(i: u64) -> Event {
        Event::TuningStarted {
            scope: Scope::Hotspot { method: i as u32 },
            configs: 4,
            instret: i,
        }
    }

    #[test]
    fn outcomes_preserve_submission_order() {
        let jobs: Vec<Job<u64>> = (0..32)
            .map(|i| Job::new(format!("job{i}"), move |_t| Ok(i * i)))
            .collect();
        let out = run_jobs(jobs, 8, &Telemetry::off());
        assert_eq!(out.len(), 32);
        for (i, o) in out.iter().enumerate() {
            assert_eq!(o.key, format!("job{i}"));
            assert_eq!(*o.result.as_ref().unwrap(), (i * i) as u64);
        }
    }

    #[test]
    fn failures_and_panics_are_collected_not_fatal() {
        let jobs: Vec<Job<u32>> = vec![
            Job::new("ok", |_t| Ok(1)),
            Job::new("err", |_t| Err(BenchError::msg("deliberate"))),
            Job::new("boom", |_t| panic!("kaboom")),
            Job::new("also-ok", |_t| Ok(2)),
        ];
        let out = run_jobs(jobs, 4, &Telemetry::off());
        assert_eq!(*out[0].result.as_ref().unwrap(), 1);
        assert!(out[1]
            .result
            .as_ref()
            .unwrap_err()
            .to_string()
            .contains("deliberate"));
        let boom = out[2].result.as_ref().unwrap_err().to_string();
        assert!(boom.contains("boom") && boom.contains("kaboom"), "{boom}");
        assert_eq!(*out[3].result.as_ref().unwrap(), 2);
    }

    #[test]
    fn telemetry_replays_in_submission_order_at_any_width() {
        let streams: Vec<Vec<Event>> = (0..3)
            .map(|_| {
                let jobs: Vec<Job<()>> = (0..12u64)
                    .map(|i| {
                        Job::new(format!("j{i}"), move |t: &Telemetry| {
                            t.emit(|| tuning_event(i));
                            t.metrics().unwrap().counter("jobs_run").inc();
                            Ok(())
                        })
                    })
                    .collect();
                let (parent, sink) = Telemetry::buffered();
                let out = run_jobs(jobs, 5, &parent);
                assert!(out.iter().all(|o| o.result.is_ok()));
                assert_eq!(parent.count(EventKind::TuningStarted), 12);
                assert_eq!(parent.metrics().unwrap().counter("jobs_run").get(), 12);
                sink.drain()
            })
            .collect();
        // Same order every time, and the order is submission order.
        assert_eq!(streams[0], streams[1]);
        assert_eq!(streams[1], streams[2]);
        let serial: Vec<Event> = (0..12u64).map(tuning_event).collect();
        assert_eq!(streams[0], serial);
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn scheduling_histograms_record_one_sample_per_job() {
        let jobs: Vec<Job<()>> = (0..6)
            .map(|i| Job::new(format!("j{i}"), |_t| Ok(())))
            .collect();
        let tel = Telemetry::counting();
        let out = run_jobs(jobs, 3, &tel);
        assert_eq!(out.len(), 6);
        let metrics = tel.metrics().unwrap();
        let wall = metrics.histogram("engine.job_wall_ms", &MS_BUCKETS);
        let wait = metrics.histogram("engine.queue_wait_ms", &MS_BUCKETS);
        assert_eq!(wall.count(), 6);
        assert_eq!(wait.count(), 6);
        assert_eq!(metrics.counter("engine.jobs").get(), 6);
        // Queue wait is measured from pool start, so it is monotone in
        // dequeue order and the sum must cover every sample.
        assert!(wait.sum() >= 0.0);
    }

    #[test]
    fn disabled_telemetry_records_no_histograms() {
        let jobs: Vec<Job<()>> = vec![Job::new("solo", |_t| Ok(()))];
        let out = run_jobs(jobs, 1, &Telemetry::off());
        assert!(out[0].result.is_ok());
        assert!(out[0].wall >= Duration::ZERO);
    }
}
