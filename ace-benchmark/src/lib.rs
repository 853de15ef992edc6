//! # ace-benchmark — end-to-end and per-layer measurement of the ACE
//! reproduction
//!
//! Four workloads ([`workload::NAMES`]) each stress a different layer.
//! One process measures one workload for a fixed time
//! ([`measure::measure`]); `run` ([`run::run`]) interleaves child
//! processes over all workloads and reps and then takes one traced pass
//! per workload; `compare` ([`compare::compare`]) judges two `run`
//! results against the bounds in `BENCHMARK.json`.
//!
//! Every layer is measured from outside, through its public API: the
//! sampled driver loop ([`layers::run_sampled`]) and the traced fleet
//! wave loop ([`fleet::run_pass_traced`]) are replicas of the program's
//! own loops, checked against them exactly ([`check`]). No span is
//! compiled into the program itself.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod compare;
pub mod fleet;
pub mod layers;
pub mod measure;
pub mod metrics;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workload;
