//! # ace-fleet — thousands of machines sharing a warm-start tuning store
//!
//! The fleet-scale extension of the paper's scheme: many simulated
//! machines run similar workloads concurrently, and instead of every
//! machine re-walking its candidate configuration lists from scratch,
//! converged selections are published to a shared [`TuningStore`] keyed
//! by behavioral [`ace_core::HotspotSignature`]. A machine whose hotspot
//! matches a stored signature adopts the selection after a single
//! reference trial — the fleet amortizes tuning latency across itself.
//!
//! Pieces:
//!
//! * [`TuningStore`] — the persistent store: in-memory map + append-only
//!   JSONL log, better-epi-wins merging, registry-version staleness,
//!   bounded capacity with oldest-first eviction, and an in-memory
//!   ledger of the session's finished machine runs ([`store`]).
//! * [`run_fleet`] — the wave-based driver on the shared-queue engine,
//!   with an admission layer (bounded in-flight machines, load-shedding
//!   counter) and deterministic machine-index-order merging ([`driver`]).
//! * the `fleet` binary — runs a cold pass then a warm pass over the same
//!   fleet and reports aggregate energy savings, tuning-latency
//!   reduction, store hit rate, and (to stderr) machines/sec.
//! * [`ObsSampler`] / [`ObsGate`] — wave-indexed fleet health sampling
//!   (`--obs-out` JSONL time series, `--live` status lines) and the
//!   threshold watchdog CI turns into an exit code ([`obs`]).
//!
//! Determinism: machines in a wave share a frozen store snapshot, jobs
//! merge in submission order, and wall-clock is quarantined away from the
//! report text — `fleet --jobs 1` and `fleet --jobs 8` produce
//! byte-identical stdout.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod driver;
pub mod obs;
pub mod store;

pub use corpus::{fleet_fingerprints, outcome_fingerprint, run_corpus_oracle, store_fingerprint};
pub use driver::{
    fleet_do_config, fleet_registry_version, render_report, run_fleet, run_fleet_observed,
    FleetConfig, FleetOutcome, LedgerCounts, MachineOutcome, MachineSpec,
};
pub use obs::{render_wave_line, ObsGate, ObsGateLine, ObsGateReport, ObsSampler};
pub use store::{PublishOutcome, StoreEntry, TuningStore};

/// Version of the serialized [`FleetOutcome`] format.
pub const FLEET_SCHEMA_VERSION: u32 = 1;
