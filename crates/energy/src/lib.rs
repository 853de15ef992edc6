//! # ace-energy — cache energy and leakage model
//!
//! A Wattch/CACTI-style analytic power model for the reconfigurable caches
//! of the simulated adaptive computing environment, replacing the
//! Wattch-derived model the paper plugged into Dynamic SimpleScalar.
//!
//! The model prices three effects, each a function of the cache's size
//! *at the moment the event occurred* (ace-sim keeps all counters per size
//! level precisely so this is exact, not an average):
//!
//! * **dynamic access energy** — grows with capacity (longer word/bit lines,
//!   wider decoders); modeled as `e_max * (size / max_size)^alpha`,
//! * **leakage power** — proportional to capacity, charged per cycle,
//! * **reconfiguration energy** — each dirty line written back by a resize
//!   flush pays a writeback transfer cost (the overhead the paper's modified
//!   power model accounts for).
//!
//! Absolute joules are calibrated to 180 nm-era published values (the
//! paper's 1 GHz / 2 V design point); the tuning algorithms only consume
//! *relative* energy, so the shapes — which configuration wins, and by how
//! much — are what matters.
//!
//! ## Example
//!
//! ```
//! use ace_sim::{Machine, MachineConfig, Block, MemAccess};
//! use ace_energy::EnergyModel;
//!
//! let mut m = Machine::new(MachineConfig::table2())?;
//! let model = EnergyModel::default_180nm();
//! m.exec_block(&Block {
//!     pc: 0x400, ninstr: 16,
//!     accesses: vec![MemAccess::load(0x1000)],
//!     branch: None,
//! });
//! let e = model.breakdown(m.counters());
//! assert!(e.l1d_nj > 0.0 && e.l2_nj > 0.0);
//! # Ok::<(), ace_sim::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod processor;

pub use processor::{chip_energy, energy_delay, ChipEnergy, ProcessorEnergyParams};

use ace_sim::{CacheStats, MachineCounters, SizeLevel, NUM_SIZE_LEVELS};
use serde::{Deserialize, Serialize};

/// Energy parameters for one cache.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CacheEnergyParams {
    /// Dynamic energy of one access at the **largest** size, in nanojoules.
    pub access_nj_max: f64,
    /// Exponent of the size-scaling law for access energy
    /// (`e(size) = access_nj_max * (size/max)^alpha`); CACTI-era caches fall
    /// near 0.5.
    pub access_alpha: f64,
    /// Idle power (leakage plus Wattch-style clock/precharge) at the
    /// largest size, in nanojoules per cycle. Scales linearly with the
    /// powered capacity.
    pub leak_nj_per_cycle_max: f64,
    /// Energy to write one dirty line back to the next level during a
    /// reconfiguration flush, in nanojoules.
    pub writeback_nj: f64,
}

impl CacheEnergyParams {
    /// Dynamic energy per access at `level`, given the level's relative
    /// capacity `size/max = 2^-level`.
    pub fn access_nj(&self, level: SizeLevel) -> f64 {
        let rel = 1.0 / (1u64 << level.index()) as f64;
        self.access_nj_max * rel.powf(self.access_alpha)
    }

    /// Leakage per cycle at `level` (unused capacity is power-gated).
    pub fn leak_nj_per_cycle(&self, level: SizeLevel) -> f64 {
        let rel = 1.0 / (1u64 << level.index()) as f64;
        self.leak_nj_per_cycle_max * rel
    }

    /// Validates that all parameters are finite and non-negative.
    ///
    /// # Errors
    ///
    /// Returns [`EnergyParamError`] if any parameter is negative or
    /// non-finite.
    pub fn validate(&self) -> Result<(), EnergyParamError> {
        let vals = [
            self.access_nj_max,
            self.access_alpha,
            self.leak_nj_per_cycle_max,
            self.writeback_nj,
        ];
        if vals.iter().any(|v| !v.is_finite() || *v < 0.0) {
            return Err(EnergyParamError);
        }
        Ok(())
    }
}

/// Error returned for non-finite or negative energy parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnergyParamError;

impl std::fmt::Display for EnergyParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "energy parameters must be finite and non-negative")
    }
}

impl std::error::Error for EnergyParamError {}

/// Per-cache energy totals for a counter snapshot, in nanojoules.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// L1 data cache energy (dynamic + leakage + reconfiguration).
    pub l1d_nj: f64,
    /// L2 cache energy (dynamic + leakage + reconfiguration).
    pub l2_nj: f64,
    /// L1D dynamic portion.
    pub l1d_dynamic_nj: f64,
    /// L1D leakage portion.
    pub l1d_leak_nj: f64,
    /// L1D reconfiguration (flush writeback) portion.
    pub l1d_reconfig_nj: f64,
    /// L2 dynamic portion.
    pub l2_dynamic_nj: f64,
    /// L2 leakage portion.
    pub l2_leak_nj: f64,
    /// L2 reconfiguration portion.
    pub l2_reconfig_nj: f64,
    /// Instruction-window energy (0 when the model has no window params).
    #[serde(default)]
    pub window_nj: f64,
    /// DTLB energy (0 when the model has no DTLB params).
    #[serde(default)]
    pub dtlb_nj: f64,
}

impl EnergyBreakdown {
    /// Sum of all configurable units' energy.
    pub fn total_nj(&self) -> f64 {
        self.l1d_nj + self.l2_nj + self.window_nj + self.dtlb_nj
    }
}

/// Energy parameters for the configurable instruction window (issue queue
/// plus ROB): per-*instruction* issue/wakeup energy and per-cycle idle
/// power, both scaling with the powered entry count.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WindowEnergyParams {
    /// Issue/wakeup/commit energy per instruction at the largest window.
    pub issue_nj_max: f64,
    /// Exponent of the entry-count scaling law for issue energy (CAM
    /// wakeup scales superlinearly; the default models `entries^0.7`).
    pub issue_alpha: f64,
    /// Idle (clock + leakage) power at the largest window, nJ per cycle.
    pub leak_nj_per_cycle_max: f64,
}

impl WindowEnergyParams {
    /// Issue energy per instruction at `level`.
    pub fn issue_nj(&self, level: SizeLevel) -> f64 {
        let rel = 1.0 / (1u64 << level.index()) as f64;
        self.issue_nj_max * rel.powf(self.issue_alpha)
    }

    /// Idle power per cycle at `level`.
    pub fn leak_nj_per_cycle(&self, level: SizeLevel) -> f64 {
        let rel = 1.0 / (1u64 << level.index()) as f64;
        self.leak_nj_per_cycle_max * rel
    }

    /// 180 nm-era defaults: ≈0.25 nJ per issued instruction and ≈100 mW of
    /// wakeup/select/ROB clock power at 64 entries.
    pub fn default_180nm() -> WindowEnergyParams {
        WindowEnergyParams {
            issue_nj_max: 0.25,
            issue_alpha: 0.7,
            leak_nj_per_cycle_max: 0.10,
        }
    }
}

/// The energy model for the configurable units.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyModel {
    /// L1 data cache parameters.
    pub l1d: CacheEnergyParams,
    /// L2 cache parameters.
    pub l2: CacheEnergyParams,
    /// Instruction-window parameters; `None` (the paper's two-CU
    /// evaluation) excludes the window from all accounting.
    #[serde(default)]
    pub window: Option<WindowEnergyParams>,
    /// DTLB parameters; `None` excludes the DTLB from all accounting.
    /// The `writeback_nj` field prices one reconfiguration's refill cost
    /// (a TLB flush discards clean translations that must be re-walked).
    #[serde(default)]
    pub dtlb: Option<CacheEnergyParams>,
}

impl EnergyModel {
    /// Parameters calibrated to 180 nm-era CACTI/Wattch numbers at
    /// 1 GHz / 2 V: a 64 KB 2-way L1D costs ≈0.9 nJ per access, a 1 MB
    /// 4-way L2 ≈3.6 nJ. The per-cycle terms follow Wattch's conditional
    /// clocking style: a powered array pays clock/precharge and leakage
    /// power every cycle whether or not it is accessed (≈50 mW for the
    /// L1D, ≈450 mW for the 1 MB L2), which is why resizing a large,
    /// rarely-accessed L2 saves so much energy in the paper.
    pub fn default_180nm() -> EnergyModel {
        EnergyModel {
            l1d: CacheEnergyParams {
                access_nj_max: 0.9,
                access_alpha: 0.5,
                leak_nj_per_cycle_max: 0.050,
                writeback_nj: 1.2,
            },
            l2: CacheEnergyParams {
                access_nj_max: 3.6,
                access_alpha: 0.5,
                leak_nj_per_cycle_max: 0.450,
                writeback_nj: 4.0,
            },
            window: None,
            dtlb: None,
        }
    }

    /// The three-CU model: the 180 nm cache parameters plus the
    /// instruction-window parameters (the Section 4.1 extension).
    pub fn default_180nm_with_window() -> EnergyModel {
        EnergyModel {
            window: Some(WindowEnergyParams::default_180nm()),
            ..EnergyModel::default_180nm()
        }
    }

    /// The registry-extension model: the 180 nm cache parameters plus
    /// DTLB parameters. A 128-entry fully-associative CAM costs far less
    /// per lookup than a cache access (~0.05 nJ), but burns comparator
    /// precharge power every cycle (~2 mW at full size), and a resize
    /// flush pays one refill-walk charge.
    pub fn default_180nm_with_dtlb() -> EnergyModel {
        EnergyModel {
            dtlb: Some(CacheEnergyParams {
                access_nj_max: 0.05,
                access_alpha: 0.5,
                leak_nj_per_cycle_max: 0.002,
                writeback_nj: 0.5,
            }),
            ..EnergyModel::default_180nm()
        }
    }

    /// Validates both parameter sets.
    ///
    /// # Errors
    ///
    /// Returns [`EnergyParamError`] if any parameter is negative or
    /// non-finite.
    pub fn validate(&self) -> Result<(), EnergyParamError> {
        self.l1d.validate()?;
        self.l2.validate()?;
        if let Some(w) = &self.window {
            let vals = [w.issue_nj_max, w.issue_alpha, w.leak_nj_per_cycle_max];
            if vals.iter().any(|v| !v.is_finite() || *v < 0.0) {
                return Err(EnergyParamError);
            }
        }
        if let Some(d) = &self.dtlb {
            d.validate()?;
        }
        Ok(())
    }

    /// Energy of one cache over a counter snapshot, returned as
    /// `(dynamic, leakage, reconfiguration)` nanojoules.
    pub fn cache_energy(
        &self,
        params: &CacheEnergyParams,
        stats: &CacheStats,
        cycles_at_level: &[u64; NUM_SIZE_LEVELS],
    ) -> (f64, f64, f64) {
        let mut dynamic = 0.0;
        let mut leak = 0.0;
        let mut reconfig = 0.0;
        for level in SizeLevel::all() {
            let k = level.index();
            dynamic += stats.accesses[k] as f64 * params.access_nj(level);
            leak += cycles_at_level[k] as f64 * params.leak_nj_per_cycle(level);
            reconfig += stats.flush_writebacks[k] as f64 * params.writeback_nj;
        }
        (dynamic, leak, reconfig)
    }

    /// Full breakdown for a machine counter snapshot (or a delta of two).
    pub fn breakdown(&self, c: &MachineCounters) -> EnergyBreakdown {
        let (l1d_dyn, l1d_leak, l1d_rc) = self.cache_energy(&self.l1d, &c.l1d, &c.l1d_cycles);
        let (l2_dyn, l2_leak, l2_rc) = self.cache_energy(&self.l2, &c.l2, &c.l2_cycles);
        let window_nj = match &self.window {
            Some(w) => SizeLevel::all()
                .map(|level| {
                    let k = level.index();
                    c.window_instr[k] as f64 * w.issue_nj(level)
                        + c.window_cycles[k] as f64 * w.leak_nj_per_cycle(level)
                })
                .sum(),
            None => 0.0,
        };
        let dtlb_nj = match &self.dtlb {
            Some(d) => SizeLevel::all()
                .map(|level| {
                    let k = level.index();
                    c.dtlb_level_accesses[k] as f64 * d.access_nj(level)
                        + c.dtlb_cycles[k] as f64 * d.leak_nj_per_cycle(level)
                        + c.dtlb_resizes[k] as f64 * d.writeback_nj
                })
                .sum(),
            None => 0.0,
        };
        EnergyBreakdown {
            l1d_nj: l1d_dyn + l1d_leak + l1d_rc,
            l2_nj: l2_dyn + l2_leak + l2_rc,
            l1d_dynamic_nj: l1d_dyn,
            l1d_leak_nj: l1d_leak,
            l1d_reconfig_nj: l1d_rc,
            l2_dynamic_nj: l2_dyn,
            l2_leak_nj: l2_leak,
            l2_reconfig_nj: l2_rc,
            window_nj,
            dtlb_nj,
        }
    }

    /// Combined cache energy per retired instruction, in nanojoules — the
    /// objective the tuning algorithms minimize.
    ///
    /// Returns `f64::INFINITY` for an empty snapshot so that an unmeasured
    /// configuration never looks attractive.
    pub fn energy_per_instruction(&self, c: &MachineCounters) -> f64 {
        if c.instret == 0 {
            return f64::INFINITY;
        }
        self.breakdown(c).total_nj() / c.instret as f64
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel::default_180nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_sim::{Block, CuId, Machine, MachineConfig, MemAccess};

    fn run_fixed(l1d_level: u8, l2_level: u8, rounds: u32) -> MachineCounters {
        let mut m = Machine::new(MachineConfig::table2()).unwrap();
        m.apply_resize(CuId::L1d, SizeLevel::new(l1d_level).unwrap());
        m.apply_resize(CuId::L2, SizeLevel::new(l2_level).unwrap());
        let snap = m.counters().clone();
        for _ in 0..rounds {
            for a in (0..4096u64).step_by(64) {
                m.exec_block(&Block {
                    pc: 0x400,
                    ninstr: 16,
                    accesses: vec![MemAccess::load(0x10_0000 + a)],
                    branch: None,
                });
            }
        }
        m.counters().delta_since(&snap)
    }

    #[test]
    fn access_energy_scales_down_with_size() {
        let p = EnergyModel::default_180nm().l1d;
        let e0 = p.access_nj(SizeLevel::LARGEST);
        let e3 = p.access_nj(SizeLevel::SMALLEST);
        assert!(e3 < e0);
        // sqrt scaling: 8x smaller -> sqrt(8) ~ 2.83x cheaper.
        assert!((e0 / e3 - 8f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn leakage_scales_linearly() {
        let p = EnergyModel::default_180nm().l2;
        assert!(
            (p.leak_nj_per_cycle(SizeLevel::LARGEST) / p.leak_nj_per_cycle(SizeLevel::SMALLEST)
                - 8.0)
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn small_cache_saves_energy_on_small_working_set() {
        // 4 KB working set: fits even the 8 KB L1D, so the small
        // configuration must be strictly cheaper.
        let model = EnergyModel::default_180nm();
        let big = run_fixed(0, 0, 50);
        let small = run_fixed(3, 3, 50);
        let e_big = model.energy_per_instruction(&big);
        let e_small = model.energy_per_instruction(&small);
        assert!(
            e_small < e_big * 0.7,
            "small config should save >30%: big={e_big:.3} small={e_small:.3}"
        );
        // And performance must be essentially unchanged.
        let slow = 1.0 - small.ipc() / big.ipc();
        assert!(slow < 0.02, "slowdown {slow}");
    }

    #[test]
    fn breakdown_components_sum() {
        let model = EnergyModel::default_180nm();
        let c = run_fixed(1, 2, 5);
        let b = model.breakdown(&c);
        assert!((b.l1d_nj - (b.l1d_dynamic_nj + b.l1d_leak_nj + b.l1d_reconfig_nj)).abs() < 1e-6);
        assert!((b.l2_nj - (b.l2_dynamic_nj + b.l2_leak_nj + b.l2_reconfig_nj)).abs() < 1e-6);
        assert!((b.total_nj() - b.l1d_nj - b.l2_nj).abs() < 1e-6);
    }

    #[test]
    fn empty_snapshot_has_infinite_epi() {
        let model = EnergyModel::default_180nm();
        assert!(model
            .energy_per_instruction(&MachineCounters::default())
            .is_infinite());
    }

    #[test]
    fn reconfig_energy_counted() {
        let model = EnergyModel::default_180nm();
        let mut m = Machine::new(MachineConfig::table2()).unwrap();
        for i in 0..200u64 {
            m.exec_block(&Block {
                pc: 0x400,
                ninstr: 4,
                accesses: vec![MemAccess::store(0x20_0000 + i * 64)],
                branch: None,
            });
        }
        let before = model.breakdown(m.counters()).l1d_reconfig_nj;
        m.apply_resize(CuId::L1d, SizeLevel::new(2).unwrap());
        let after = model.breakdown(m.counters()).l1d_reconfig_nj;
        assert!(after > before, "flush writebacks must cost energy");
    }

    #[test]
    fn validation_rejects_nan() {
        let mut model = EnergyModel::default_180nm();
        model.l1d.access_nj_max = f64::NAN;
        assert!(model.validate().is_err());
        assert!(EnergyModel::default_180nm().validate().is_ok());
    }

    #[test]
    fn dtlb_model_prices_lookups_leak_and_resizes() {
        let mut cfg = MachineConfig::table2();
        cfg.dtlb_configurable = true;
        let mut m = Machine::new(cfg).unwrap();
        for i in 0..100u64 {
            m.exec_block(&Block {
                pc: 0x400,
                ninstr: 8,
                accesses: vec![MemAccess::load(0x10_0000 + i * 64)],
                branch: None,
            });
        }
        m.apply_resize(ace_sim::CuId::Dtlb, SizeLevel::new(2).unwrap());

        let with = EnergyModel::default_180nm_with_dtlb();
        let without = EnergyModel::default_180nm();
        let b_with = with.breakdown(m.counters());
        let b_without = without.breakdown(m.counters());
        assert!(b_with.dtlb_nj > 0.0, "lookups + leak + resize must cost");
        assert_eq!(b_without.dtlb_nj, 0.0, "no DTLB params, no DTLB energy");
        // The two-CU totals are untouched by the extra unit.
        assert_eq!(b_with.l1d_nj, b_without.l1d_nj);
        assert_eq!(b_with.l2_nj, b_without.l2_nj);
        assert!((b_with.total_nj() - b_without.total_nj() - b_with.dtlb_nj).abs() < 1e-12);
        assert!(with.validate().is_ok());
    }

    #[test]
    fn thrashing_small_cache_multiplies_l2_traffic_energy() {
        // A 48 KB working set thrashes the 8 KB L1D; the extra misses show
        // up as L2 dynamic energy, penalizing over-aggressive downsizing.
        let model = EnergyModel::default_180nm();
        let mut big = Machine::new(MachineConfig::table2()).unwrap();
        let mut small = Machine::new(MachineConfig::table2()).unwrap();
        small.apply_resize(CuId::L1d, SizeLevel::SMALLEST);
        for m in [&mut big, &mut small] {
            for _ in 0..30 {
                for a in (0..49152u64).step_by(64) {
                    m.exec_block(&Block {
                        pc: 0x400,
                        ninstr: 8,
                        accesses: vec![MemAccess::load(0x40_0000 + a)],
                        branch: None,
                    });
                }
            }
        }
        let e_small_l2 = model.breakdown(small.counters()).l2_dynamic_nj;
        let e_big_l2 = model.breakdown(big.counters()).l2_dynamic_nj;
        assert!(
            e_small_l2 > e_big_l2 * 5.0,
            "thrashing multiplies L2 dynamic energy: {e_small_l2:.0} vs {e_big_l2:.0}"
        );
    }
}
