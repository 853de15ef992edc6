//! Machine configuration: cache geometries, pipeline parameters, and the
//! baseline configuration from Table 2 of the paper.
//!
//! The simulated processor is a 4-wide superscalar clocked at 1 GHz / 2 V
//! with a 64-entry instruction window, a 2K-entry combined branch predictor
//! (3-cycle misprediction penalty), split 64 KB L1 caches, a 1 MB unified
//! L2, and a 128-entry DTLB. The L1 data cache and the L2 cache are
//! *configurable units*: each supports four sizes selected at runtime via a
//! control register (see [`crate::machine::Machine`]).

use crate::cu::{CuDescriptor, CuId, CuRegistry, FlushSemantics};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Number of selectable sizes per configurable cache (Table 2: four sizes).
pub const NUM_SIZE_LEVELS: usize = 4;

/// A selectable size level of a configurable cache.
///
/// Level 0 is the **largest** (baseline) size; each subsequent level halves
/// the capacity. The tuning algorithms walk levels from 0 upward, so the
/// first configuration tested is always the full-size baseline.
///
/// # Examples
///
/// ```
/// use ace_sim::SizeLevel;
/// let lvl = SizeLevel::new(2).unwrap();
/// assert_eq!(lvl.index(), 2);
/// assert_eq!(SizeLevel::LARGEST.index(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SizeLevel(u8);

impl SizeLevel {
    /// The largest (baseline) size.
    pub const LARGEST: SizeLevel = SizeLevel(0);
    /// The smallest selectable size.
    pub const SMALLEST: SizeLevel = SizeLevel((NUM_SIZE_LEVELS - 1) as u8);

    /// Creates a size level, returning `None` if `index` is out of range.
    pub fn new(index: u8) -> Option<SizeLevel> {
        if (index as usize) < NUM_SIZE_LEVELS {
            Some(SizeLevel(index))
        } else {
            None
        }
    }

    /// The level index in `0..NUM_SIZE_LEVELS` (0 = largest).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The next smaller level, if any.
    pub fn smaller(self) -> Option<SizeLevel> {
        SizeLevel::new(self.0 + 1)
    }

    /// The next larger level, if any.
    pub fn larger(self) -> Option<SizeLevel> {
        self.0.checked_sub(1).map(SizeLevel)
    }

    /// Iterates over all levels from largest to smallest.
    pub fn all() -> impl Iterator<Item = SizeLevel> {
        (0..NUM_SIZE_LEVELS as u8).map(SizeLevel)
    }
}

impl Default for SizeLevel {
    fn default() -> Self {
        SizeLevel::LARGEST
    }
}

impl fmt::Display for SizeLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// Largest supported associativity: a set probe builds one `u32` bit per
/// way.
pub(crate) const MAX_WAYS: u32 = 32;

/// Static geometry of one cache at its **maximum** size.
///
/// A configurable cache shrinks by halving its set count, keeping
/// associativity and block size fixed; level `k` has `max_size >> k` bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheGeometry {
    /// Capacity in bytes at the largest size level.
    pub size_bytes: u64,
    /// Associativity (number of ways).
    pub ways: u32,
    /// Line size in bytes (a power of two).
    pub block_bytes: u32,
    /// Hit latency in cycles.
    pub hit_latency: u32,
}

impl CacheGeometry {
    /// Number of sets at the largest size level.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero ways or block size).
    pub fn max_sets(&self) -> u32 {
        assert!(self.ways > 0 && self.block_bytes > 0, "degenerate geometry");
        (self.size_bytes / (self.ways as u64 * self.block_bytes as u64)) as u32
    }

    /// Number of sets at `level` (half per level below the largest).
    pub fn sets_at(&self, level: SizeLevel) -> u32 {
        self.max_sets() >> level.index()
    }

    /// Capacity in bytes at `level`.
    pub fn size_at(&self, level: SizeLevel) -> u64 {
        self.size_bytes >> level.index()
    }

    /// Validates that the geometry supports all [`NUM_SIZE_LEVELS`] levels.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.block_bytes.is_power_of_two() {
            return Err(ConfigError::new("block size must be a power of two"));
        }
        if self.ways == 0 {
            return Err(ConfigError::new("cache must have at least one way"));
        }
        if self.ways > MAX_WAYS {
            return Err(ConfigError::new("cache must have at most 32 ways"));
        }
        let line = self.ways as u64 * self.block_bytes as u64;
        if !self.size_bytes.is_multiple_of(line) {
            return Err(ConfigError::new(
                "capacity must be a multiple of ways * block size",
            ));
        }
        let sets = self.max_sets();
        if !sets.is_power_of_two() {
            return Err(ConfigError::new("set count must be a power of two"));
        }
        if (sets >> (NUM_SIZE_LEVELS - 1)) == 0 {
            return Err(ConfigError::new(
                "cache too small to support all size levels",
            ));
        }
        Ok(())
    }
}

/// Error returned when a machine or cache configuration is invalid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    msg: &'static str,
}

impl ConfigError {
    pub(crate) fn new(msg: &'static str) -> ConfigError {
        ConfigError { msg }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid configuration: {}", self.msg)
    }
}

impl std::error::Error for ConfigError {}

/// Full machine configuration (Table 2 of the paper by default).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Instruction issue/commit width (instructions per cycle).
    pub issue_width: u32,
    /// Branch misprediction penalty in cycles.
    pub mispredict_penalty: u32,
    /// Entries in each branch predictor table (power of two).
    pub predictor_entries: u32,
    /// L1 instruction cache geometry (not configurable).
    pub l1i: CacheGeometry,
    /// L1 data cache geometry at its largest size (configurable unit).
    pub l1d: CacheGeometry,
    /// Unified L2 cache geometry at its largest size (configurable unit).
    pub l2: CacheGeometry,
    /// Main memory access latency in cycles.
    pub mem_latency: u32,
    /// DTLB entries (16-way set-associative approximation of fully assoc.):
    /// 16 times a power-of-two set count.
    pub dtlb_entries: u32,
    /// DTLB miss penalty in cycles (software-walked at this era).
    pub tlb_miss_penalty: u32,
    /// Page size in bytes.
    pub page_bytes: u64,
    /// Percent of the *memory-latency* portion of a data miss that is
    /// actually exposed as stall cycles — the complement of the
    /// memory-level parallelism the 64-entry window extracts.
    pub miss_exposure_pct: u32,
    /// Percent of the L2-hit latency of an L1D miss that is exposed. Short
    /// fills hide almost completely under out-of-order execution.
    pub l2_hit_exposure_pct: u32,
    /// Percent of a load's miss penalty charged for a store miss
    /// (stores retire through the write buffer and rarely stall commit).
    pub store_stall_pct: u32,
    /// Cycles charged per dirty line written back during a resize flush.
    pub flush_writeback_cycles: u32,
    /// Minimum instructions between L1D reconfigurations (paper: 100 K).
    pub l1d_reconfig_interval: u64,
    /// Minimum instructions between L2 reconfigurations (paper: 1 M).
    pub l2_reconfig_interval: u64,
    /// Instruction-window (issue queue + ROB) entries at the largest
    /// level; each level halves the entries. The window is the third
    /// configurable unit the paper reports as in progress ("we are
    /// implementing several more CUs, such as the issue window and the
    /// reorder buffer").
    pub window_entries: u32,
    /// Minimum instructions between window reconfigurations: draining the
    /// pipeline is cheap, so the interval is short — the paper's Section
    /// 2.1 puts reorder-buffer adaptation at "thousands of instructions".
    pub window_reconfig_interval: u64,
    /// Per-mille multiplier applied to exposed data-miss stalls at each
    /// window level: a smaller window extracts less memory-level
    /// parallelism, so code with misses suffers while hit-dominated code
    /// is unaffected.
    pub window_exposure_permille: [u32; NUM_SIZE_LEVELS],
    /// Whether the DTLB is exposed as a configurable unit. `false`
    /// reproduces the paper's machine (the DTLB exists but is fixed at
    /// 128 entries); `true` registers it as a third real CU with a
    /// four-level entry ladder.
    #[serde(default)]
    pub dtlb_configurable: bool,
    /// Minimum instructions between DTLB reconfigurations. Invalidating
    /// a TLB is cheap (nothing is written back), so the interval sits
    /// between the window's and the L1D's.
    #[serde(default)]
    pub dtlb_reconfig_interval: u64,
}

impl MachineConfig {
    /// The baseline configuration of Table 2.
    ///
    /// # Examples
    ///
    /// ```
    /// use ace_sim::MachineConfig;
    /// let cfg = MachineConfig::table2();
    /// assert_eq!(cfg.l1d.size_bytes, 64 * 1024);
    /// assert_eq!(cfg.l2.size_bytes, 1024 * 1024);
    /// cfg.validate().unwrap();
    /// ```
    pub fn table2() -> MachineConfig {
        MachineConfig {
            issue_width: 4,
            mispredict_penalty: 3,
            predictor_entries: 2048,
            l1i: CacheGeometry {
                size_bytes: 64 * 1024,
                ways: 2,
                block_bytes: 64,
                hit_latency: 1,
            },
            l1d: CacheGeometry {
                size_bytes: 64 * 1024,
                ways: 2,
                block_bytes: 64,
                hit_latency: 1,
            },
            l2: CacheGeometry {
                size_bytes: 1024 * 1024,
                ways: 4,
                block_bytes: 128,
                hit_latency: 10,
            },
            mem_latency: 100,
            dtlb_entries: 128,
            tlb_miss_penalty: 30,
            page_bytes: 4096,
            miss_exposure_pct: 25,
            l2_hit_exposure_pct: 12,
            store_stall_pct: 30,
            flush_writeback_cycles: 2,
            l1d_reconfig_interval: 100_000,
            l2_reconfig_interval: 1_000_000,
            window_entries: 64,
            window_reconfig_interval: 5_000,
            window_exposure_permille: [1000, 1150, 1400, 1850],
            dtlb_configurable: false,
            dtlb_reconfig_interval: 10_000,
        }
    }

    /// The registered configurable units this machine exposes, derived
    /// from the configuration: the paper's two caches, the vestigial
    /// window, and — when [`MachineConfig::dtlb_configurable`] — the
    /// DTLB. Each descriptor carries the hardware guard interval and the
    /// hotspot-grain floor the size-class rule bins against.
    pub fn cu_registry(&self) -> CuRegistry {
        let mut reg = CuRegistry::new();
        reg.register(CuDescriptor::new(
            CuId::Window,
            self.window_reconfig_interval,
            5_000,
            FlushSemantics::DrainPipeline,
        ));
        reg.register(CuDescriptor::new(
            CuId::L1d,
            self.l1d_reconfig_interval,
            50_000,
            FlushSemantics::WritebackDirty,
        ));
        reg.register(CuDescriptor::new(
            CuId::L2,
            self.l2_reconfig_interval,
            500_000,
            FlushSemantics::WritebackDirty,
        ));
        if self.dtlb_configurable {
            reg.register(CuDescriptor::new(
                CuId::Dtlb,
                self.dtlb_reconfig_interval,
                10_000,
                FlushSemantics::InvalidateAll,
            ));
        }
        reg
    }

    /// Validates every field, returning the first problem found.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any geometry is malformed or a pipeline
    /// parameter is zero where that would be meaningless.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.issue_width == 0 {
            return Err(ConfigError::new("issue width must be nonzero"));
        }
        if !self.predictor_entries.is_power_of_two() {
            return Err(ConfigError::new("predictor entries must be a power of two"));
        }
        if !self.page_bytes.is_power_of_two() {
            return Err(ConfigError::new("page size must be a power of two"));
        }
        if !self.dtlb_entries.is_multiple_of(16) || !(self.dtlb_entries / 16).is_power_of_two() {
            return Err(ConfigError::new(
                "DTLB entries must be 16 times a power of two",
            ));
        }
        if self.miss_exposure_pct > 100
            || self.l2_hit_exposure_pct > 100
            || self.store_stall_pct > 100
        {
            return Err(ConfigError::new("percentages must be at most 100"));
        }
        if self.l1d_reconfig_interval == 0
            || self.l2_reconfig_interval == 0
            || self.window_reconfig_interval == 0
        {
            return Err(ConfigError::new(
                "reconfiguration intervals must be nonzero",
            ));
        }
        if self.window_entries == 0 || (self.window_entries >> (NUM_SIZE_LEVELS - 1)) == 0 {
            return Err(ConfigError::new(
                "window too small to support all size levels",
            ));
        }
        if self.window_exposure_permille.iter().any(|&m| m < 1000) {
            return Err(ConfigError::new(
                "window exposure multipliers must be at least 1000 per-mille",
            ));
        }
        if self.dtlb_configurable {
            if self.dtlb_reconfig_interval == 0 {
                return Err(ConfigError::new(
                    "reconfiguration intervals must be nonzero",
                ));
            }
            if (self.dtlb_entries / 16) >> (NUM_SIZE_LEVELS - 1) == 0 {
                return Err(ConfigError::new(
                    "DTLB too small to support all size levels",
                ));
            }
        }
        self.l1i.validate()?;
        self.l1d.validate()?;
        self.l2.validate()?;
        Ok(())
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::table2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_is_valid() {
        MachineConfig::table2().validate().unwrap();
    }

    #[test]
    fn size_levels_cover_paper_sizes() {
        let cfg = MachineConfig::table2();
        let l1d_sizes: Vec<u64> = SizeLevel::all().map(|l| cfg.l1d.size_at(l)).collect();
        assert_eq!(l1d_sizes, vec![65536, 32768, 16384, 8192]);
        let l2_sizes: Vec<u64> = SizeLevel::all().map(|l| cfg.l2.size_at(l)).collect();
        assert_eq!(l2_sizes, vec![1 << 20, 512 << 10, 256 << 10, 128 << 10]);
    }

    #[test]
    fn sets_at_levels_halve() {
        let g = MachineConfig::table2().l1d;
        assert_eq!(g.max_sets(), 512);
        assert_eq!(g.sets_at(SizeLevel::new(1).unwrap()), 256);
        assert_eq!(g.sets_at(SizeLevel::SMALLEST), 64);
    }

    #[test]
    fn size_level_bounds() {
        assert!(SizeLevel::new(3).is_some());
        assert!(SizeLevel::new(4).is_none());
        assert_eq!(SizeLevel::LARGEST.larger(), None);
        assert_eq!(SizeLevel::SMALLEST.smaller(), None);
        assert_eq!(SizeLevel::LARGEST.smaller(), SizeLevel::new(1));
    }

    #[test]
    fn invalid_geometry_rejected() {
        let mut g = MachineConfig::table2().l1d;
        g.block_bytes = 48;
        assert!(g.validate().is_err());
        let mut g2 = MachineConfig::table2().l1d;
        g2.size_bytes = 1024; // only 8 sets at 2-way/64B -> level 3 would be 1 set: ok
        assert!(g2.validate().is_ok());
        g2.size_bytes = 256; // 2 sets -> level 3 has 0 sets
        assert!(g2.validate().is_err());
        // One mask bit per way: 32 ways is the most a set probe handles.
        let g3 = CacheGeometry {
            size_bytes: 32 * 64 * 8,
            ways: 32,
            block_bytes: 64,
            hit_latency: 1,
        };
        assert!(g3.validate().is_ok());
        let g4 = CacheGeometry {
            ways: 64,
            size_bytes: 64 * 64 * 8,
            ..g3
        };
        assert!(g4.validate().is_err());
    }

    #[test]
    fn invalid_machine_rejected() {
        let mut cfg = MachineConfig::table2();
        cfg.issue_width = 0;
        assert!(cfg.validate().is_err());
        let mut cfg2 = MachineConfig::table2();
        cfg2.miss_exposure_pct = 150;
        assert!(cfg2.validate().is_err());
    }

    #[test]
    fn dtlb_entries_need_a_power_of_two_set_count() {
        for ok in [16, 32, 128, 1024] {
            let cfg = MachineConfig {
                dtlb_entries: ok,
                ..MachineConfig::table2()
            };
            cfg.validate().unwrap();
        }
        for bad in [0, 8, 40, 48, 96, 144] {
            let cfg = MachineConfig {
                dtlb_entries: bad,
                ..MachineConfig::table2()
            };
            assert!(cfg.validate().is_err(), "{bad} DTLB entries accepted");
        }
    }

    #[test]
    fn display_and_ordering() {
        assert_eq!(SizeLevel::LARGEST.to_string(), "L0");
        assert!(SizeLevel::LARGEST < SizeLevel::SMALLEST);
    }

    #[test]
    fn registry_tracks_dtlb_configurability() {
        let cfg = MachineConfig::table2();
        let reg = cfg.cu_registry();
        assert_eq!(reg.len(), 3, "paper machine registers window+L1D+L2");
        assert!(!reg.contains(CuId::Dtlb));
        assert_eq!(reg.get(CuId::L2).unwrap().reconfig_interval, 1_000_000);

        let mut cfg = MachineConfig::table2();
        cfg.dtlb_configurable = true;
        cfg.validate().unwrap();
        let reg = cfg.cu_registry();
        assert_eq!(reg.len(), 4);
        assert_eq!(reg.get(CuId::Dtlb).unwrap().reconfig_interval, 10_000);

        cfg.dtlb_entries = 64; // 4 sets: level 3 would have half a set
        assert!(cfg.validate().is_err());
        cfg.dtlb_entries = 128;
        cfg.dtlb_reconfig_interval = 0;
        assert!(cfg.validate().is_err());
    }
}
