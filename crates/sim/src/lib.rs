//! # ace-sim — the simulated adaptive hardware platform
//!
//! A block-level superscalar CPU and reconfigurable memory-hierarchy timing
//! simulator, standing in for Dynamic SimpleScalar in the reproduction of
//! *Effective Adaptive Computing Environment Management via Dynamic
//! Optimization* (CGO 2005).
//!
//! The simulator consumes a stream of dynamic basic blocks ([`Block`]) and
//! models:
//!
//! * a 4-wide pipeline with a 2K-entry combined branch predictor,
//! * split 64 KB L1 caches, a unified 1 MB L2, and a 128-entry DTLB
//!   (Table 2 of the paper),
//! * **size-configurable** L1D and L2 caches — the two configurable units of
//!   the evaluated adaptive computing environment — including the hardware
//!   control registers and reconfiguration-interval guard counters of
//!   Section 3.4,
//! * per-size-level event counters so a power model can price every access
//!   at the energy of the configuration it actually ran under.
//!
//! ## Quick start
//!
//! ```
//! use ace_sim::{Machine, MachineConfig, Block, MemAccess, CuId, SizeLevel};
//!
//! let mut m = Machine::new(MachineConfig::table2())?;
//! let block = Block {
//!     pc: 0x400,
//!     ninstr: 32,
//!     accesses: vec![MemAccess::load(0x8000), MemAccess::store(0x8040)],
//!     branch: None,
//! };
//! for _ in 0..1000 {
//!     m.exec_block(&block);
//! }
//! // Ask the ACE hardware to shrink the L1D to 32 KB.
//! let outcome = m.request_resize(CuId::L1d, SizeLevel::new(1).unwrap());
//! assert!(outcome.in_effect());
//! # Ok::<(), ace_sim::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod branch;
mod cache;
mod config;
mod cu;
mod machine;
mod stats;
mod tlb;
mod trace;

pub use branch::{BranchPredictor, BranchStats};
pub use cache::{AccessOutcome, Cache, CacheStats, FlushReport};
pub use config::{CacheGeometry, ConfigError, MachineConfig, SizeLevel, NUM_SIZE_LEVELS};
pub use cu::{CuDescriptor, CuId, CuRegistry, FlushSemantics, MAX_CUS};
pub use machine::{Machine, MachineCounters, ReconfigOutcome};
pub use stats::OnlineStats;
pub use tlb::{Tlb, TlbStats};
pub use trace::{Block, BranchEvent, MemAccess};
