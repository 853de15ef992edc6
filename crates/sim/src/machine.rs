//! The simulated machine: pipeline timing, memory hierarchy, and the
//! hardware support for adaptive computing (Section 3.4 of the paper).
//!
//! # Timing model
//!
//! Blocks retire at the issue width unless stalled. Stall sources:
//!
//! * branch mispredictions (fixed penalty),
//! * L1I misses (fetch stalls, fully exposed),
//! * data misses: the L2-hit portion scaled by `l2_hit_exposure_pct`
//!   (short fills hide almost completely under the 64-entry window) and
//!   the memory-latency portion by `miss_exposure_pct` (long fills expose
//!   more), with store misses further discounted because they drain
//!   through the write buffer,
//! * DTLB misses (software walk, fully exposed),
//! * reconfiguration flushes (dirty writebacks at a per-line cost).
//!
//! # Hardware support for adaptation
//!
//! Each configurable unit has a *control register* (its current
//! [`SizeLevel`]) and a *last-reconfiguration counter*. A reconfiguration
//! request arriving earlier than the unit's reconfiguration interval since
//! the previous applied change is ignored without modifying the
//! configuration — exactly the guard described in Section 3.4. This frees
//! the software framework from tracking minimum intervals itself.

use crate::branch::{BranchPredictor, BranchStats};
use crate::cache::{Cache, CacheStats, FlushReport};
use crate::config::{ConfigError, MachineConfig, SizeLevel, NUM_SIZE_LEVELS};
use crate::cu::{CuId, CuRegistry, MAX_CUS};
use crate::tlb::{Tlb, TlbStats};
use crate::trace::Block;
use serde::{Deserialize, Serialize};

/// Result of a reconfiguration request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReconfigOutcome {
    /// The control register was updated; the flush overhead was charged.
    Applied(FlushReport),
    /// The request arrived within the unit's reconfiguration interval and
    /// was ignored by the hardware guard.
    TooSoon {
        /// Instructions remaining until the guard reopens.
        remaining: u64,
    },
    /// The unit was already at the requested level; nothing happened.
    Unchanged,
}

impl ReconfigOutcome {
    /// `true` if the configuration now equals the requested one.
    pub fn in_effect(&self) -> bool {
        matches!(
            self,
            ReconfigOutcome::Applied(_) | ReconfigOutcome::Unchanged
        )
    }
}

/// A full snapshot of the machine's counters.
///
/// Cheap to clone. Tuning code does not keep whole snapshots: its probe
/// (`ace_core::Probe`) records instructions retired, cycles and total
/// energy at region entry. [`MachineCounters::delta_since`] subtracts
/// two whole snapshots, for tests and offline analysis.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MachineCounters {
    /// Instructions retired.
    pub instret: u64,
    /// Cycles elapsed.
    pub cycles: u64,
    /// L1 instruction cache statistics (level 0 only).
    pub l1i: CacheStats,
    /// L1 data cache statistics, per size level.
    pub l1d: CacheStats,
    /// L2 cache statistics, per size level.
    pub l2: CacheStats,
    /// DTLB statistics.
    pub dtlb: TlbStats,
    /// Branch predictor statistics.
    pub branch: BranchStats,
    /// Cycles spent while the L1D was at each size level (for leakage).
    pub l1d_cycles: [u64; NUM_SIZE_LEVELS],
    /// Cycles spent while the L2 was at each size level (for leakage).
    pub l2_cycles: [u64; NUM_SIZE_LEVELS],
    /// Cycles spent while the instruction window was at each level.
    #[serde(default)]
    pub window_cycles: [u64; NUM_SIZE_LEVELS],
    /// Instructions retired while the window was at each level (the
    /// per-instruction issue-energy accounting).
    #[serde(default)]
    pub window_instr: [u64; NUM_SIZE_LEVELS],
    /// Applied window reconfigurations, per level left.
    #[serde(default)]
    pub window_resizes: [u64; NUM_SIZE_LEVELS],
    /// DTLB translations while the DTLB was at each size level.
    #[serde(default)]
    pub dtlb_level_accesses: [u64; NUM_SIZE_LEVELS],
    /// DTLB misses while the DTLB was at each size level.
    #[serde(default)]
    pub dtlb_level_misses: [u64; NUM_SIZE_LEVELS],
    /// Cycles spent while the DTLB was at each size level.
    #[serde(default)]
    pub dtlb_cycles: [u64; NUM_SIZE_LEVELS],
    /// Applied DTLB reconfigurations, per level left.
    #[serde(default)]
    pub dtlb_resizes: [u64; NUM_SIZE_LEVELS],
    /// Reconfiguration requests rejected by the hardware interval guard.
    pub guard_rejections: u64,
}

impl MachineCounters {
    /// Counter difference `self - earlier`.
    ///
    /// # Snapshot-order contract
    ///
    /// `earlier` must be a snapshot taken no later than `self`; passing
    /// them in the wrong order is a caller bug. The whole `delta_since`
    /// family ([`CacheStats`], [`TlbStats`], [`BranchStats`], and this
    /// type) enforces one contract: debug builds panic with "snapshot
    /// order reversed", release builds wrap rather than aborting a
    /// long-running experiment on an accounting bug.
    pub fn delta_since(&self, earlier: &MachineCounters) -> MachineCounters {
        fn sub1(a: u64, b: u64) -> u64 {
            debug_assert!(a >= b, "snapshot order reversed");
            a.wrapping_sub(b)
        }
        fn sub4(a: &[u64; NUM_SIZE_LEVELS], b: &[u64; NUM_SIZE_LEVELS]) -> [u64; NUM_SIZE_LEVELS] {
            let mut out = [0; NUM_SIZE_LEVELS];
            for i in 0..NUM_SIZE_LEVELS {
                out[i] = sub1(a[i], b[i]);
            }
            out
        }
        MachineCounters {
            instret: sub1(self.instret, earlier.instret),
            cycles: sub1(self.cycles, earlier.cycles),
            l1i: self.l1i.delta_since(&earlier.l1i),
            l1d: self.l1d.delta_since(&earlier.l1d),
            l2: self.l2.delta_since(&earlier.l2),
            dtlb: self.dtlb.delta_since(&earlier.dtlb),
            branch: self.branch.delta_since(&earlier.branch),
            l1d_cycles: sub4(&self.l1d_cycles, &earlier.l1d_cycles),
            l2_cycles: sub4(&self.l2_cycles, &earlier.l2_cycles),
            window_cycles: sub4(&self.window_cycles, &earlier.window_cycles),
            window_instr: sub4(&self.window_instr, &earlier.window_instr),
            window_resizes: sub4(&self.window_resizes, &earlier.window_resizes),
            dtlb_level_accesses: sub4(&self.dtlb_level_accesses, &earlier.dtlb_level_accesses),
            dtlb_level_misses: sub4(&self.dtlb_level_misses, &earlier.dtlb_level_misses),
            dtlb_cycles: sub4(&self.dtlb_cycles, &earlier.dtlb_cycles),
            dtlb_resizes: sub4(&self.dtlb_resizes, &earlier.dtlb_resizes),
            guard_rejections: sub1(self.guard_rejections, earlier.guard_rejections),
        }
    }

    /// Instructions per cycle over this snapshot, or 0.0 if no cycles.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instret as f64 / self.cycles as f64
        }
    }
}

/// Per-reference penalty constants hoisted out of the data-reference
/// loop (see [`Machine::ref_consts`]): configuration-derived, invariant
/// for the duration of any block.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RefConsts {
    tlb_penalty: u64,
    l2_hit_milli: u64,
    mem_miss_milli: u64,
    store_pct: u64,
    line_shift: u32,
}

/// Per-block accumulator state of the data-reference loop; one lives on
/// the stack of [`Machine::exec_block`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct RefCursor {
    /// Previously referenced cache line (fused same-line fast path).
    prev_line: u64,
    /// Exposed data-stall milli-cycles accumulated so far.
    data_stall_milli: u64,
    /// Store references seen so far (bulk-counted at retire).
    nstores: u64,
}

impl RefCursor {
    #[inline]
    pub(crate) fn new() -> RefCursor {
        RefCursor {
            // No real line: addresses pack into 62 bits.
            prev_line: u64::MAX,
            data_stall_milli: 0,
            nstores: 0,
        }
    }
}

/// The simulated machine.
///
/// # Examples
///
/// ```
/// use ace_sim::{Machine, MachineConfig, Block, MemAccess};
/// let mut m = Machine::new(MachineConfig::table2())?;
/// let block = Block {
///     pc: 0x400,
///     ninstr: 16,
///     accesses: vec![MemAccess::load(0x1_0000)],
///     branch: None,
/// };
/// m.exec_block(&block);
/// assert_eq!(m.counters().instret, 16);
/// assert!(m.counters().cycles > 0);
/// # Ok::<(), ace_sim::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    cfg: MachineConfig,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    dtlb: Tlb,
    predictor: BranchPredictor,
    counters: MachineCounters,
    /// Fractional-issue accumulator (instructions not yet converted to cycles).
    issue_acc: u64,
    /// `log2(issue_width)` when the width is a power of two (it is in
    /// every shipped configuration), letting the per-block divide/modulo
    /// pair become a shift/mask.
    issue_shift: Option<u32>,
    /// Residual per-mille of exposed stall cycles not yet charged.
    stall_acc: u64,
    /// Current instruction-window level (the window's control register).
    window_level: SizeLevel,
    /// Instret at the last applied reconfiguration, per unit.
    last_reconfig: [Option<u64>; MAX_CUS],
    /// The configurable units this machine exposes.
    registry: CuRegistry,
}

impl Machine {
    /// Builds a machine from `cfg`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `cfg` fails validation.
    pub fn new(cfg: MachineConfig) -> Result<Machine, ConfigError> {
        cfg.validate()?;
        Ok(Machine {
            l1i: Cache::new(cfg.l1i)?,
            l1d: Cache::new(cfg.l1d)?,
            l2: Cache::new(cfg.l2)?,
            dtlb: Tlb::new(cfg.dtlb_entries, cfg.page_bytes),
            predictor: BranchPredictor::new(cfg.predictor_entries),
            counters: MachineCounters::default(),
            issue_acc: 0,
            issue_shift: cfg
                .issue_width
                .is_power_of_two()
                .then(|| cfg.issue_width.trailing_zeros()),
            stall_acc: 0,
            window_level: SizeLevel::LARGEST,
            last_reconfig: [None; MAX_CUS],
            registry: cfg.cu_registry(),
            cfg,
        })
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The configurable units this machine exposes.
    pub fn registry(&self) -> &CuRegistry {
        &self.registry
    }

    /// Current counter values.
    ///
    /// The machine's own counters (`instret`, `cycles`, per-level cycle
    /// attribution) are maintained directly by [`Machine::exec_block`];
    /// the sub-structure statistics (caches, DTLB, branch predictor) are
    /// copied into the snapshot here, on read, rather than after every
    /// block — readers sample counters thousands of times less often than
    /// blocks retire, so the hot loop never pays for the copy.
    pub fn counters(&mut self) -> &MachineCounters {
        self.sync_stats();
        &self.counters
    }

    /// Instructions retired so far.
    pub fn instret(&self) -> u64 {
        self.counters.instret
    }

    /// Cycles elapsed so far.
    pub fn cycles(&self) -> u64 {
        self.counters.cycles
    }

    /// Current size level of `cu` (the control register value).
    ///
    /// This is the one place a `CuId` meets the hardware structure it
    /// names; everything above the machine consumes the registry.
    pub fn level(&self, cu: CuId) -> SizeLevel {
        match cu {
            CuId::Window => self.window_level,
            CuId::L1d => self.l1d.level(),
            CuId::L2 => self.l2.level(),
            CuId::Dtlb => self.dtlb.level(),
            _ => SizeLevel::LARGEST,
        }
    }

    /// The reconfiguration interval of `cu` in instructions, from its
    /// registered descriptor (`u64::MAX` for an unregistered unit, whose
    /// guard therefore never reopens).
    pub fn reconfig_interval(&self, cu: CuId) -> u64 {
        self.registry
            .get(cu)
            .map_or(u64::MAX, |d| d.reconfig_interval)
    }

    /// Advances time by `cycles` without retiring instructions, attributing
    /// leakage time to the caches' current levels. Used to charge software
    /// overheads such as JIT compilation.
    pub fn add_overhead_cycles(&mut self, cycles: u64) {
        self.counters.cycles += cycles;
        self.counters.l1d_cycles[self.l1d.level().index()] += cycles;
        self.counters.l2_cycles[self.l2.level().index()] += cycles;
        self.counters.window_cycles[self.window_level.index()] += cycles;
        self.counters.dtlb_cycles[self.dtlb.level().index()] += cycles;
    }

    /// Executes one dynamic block, updating all structures and counters.
    ///
    /// This is the simulator's innermost loop — one call per ~50 retired
    /// instructions, one fused DTLB + L1D probe per data reference — so
    /// penalty constants, exposure factors, and level indices are hoisted
    /// out of the per-access loop; reconfiguration can only happen between
    /// blocks, so they are loop-invariant.
    ///
    /// The body is assembled from `pub(crate)` pieces (`fetch_stalls`,
    /// `data_ref`, `retire_block`).
    pub fn exec_block(&mut self, block: &Block) {
        let mut stalls = self.fetch_stalls(block.pc);
        let consts = self.ref_consts();
        let mut cursor = RefCursor::new();
        for acc in &block.accesses {
            self.data_ref(&consts, acc.addr, acc.is_store, &mut stalls, &mut cursor);
        }
        self.retire_block(block, stalls, &cursor);
    }

    /// Instruction fetch: one L1I probe per block. Returns the fetch
    /// stall cycles (zero on an L1I hit).
    #[inline]
    pub(crate) fn fetch_stalls(&mut self, pc: u64) -> u64 {
        let i_out = self.l1i.access(pc, false);
        if i_out.hit {
            return 0;
        }
        let l2_out = self.l2.access(pc, false);
        let mut stalls = self.cfg.l2.hit_latency as u64;
        if !l2_out.hit {
            stalls += self.cfg.mem_latency as u64;
        }
        stalls
    }

    /// Hoists the per-reference penalty constants — they depend only on
    /// the configuration, and reconfiguration can only happen between
    /// blocks, so they are loop-invariant for any block.
    #[inline]
    pub(crate) fn ref_consts(&self) -> RefConsts {
        RefConsts {
            tlb_penalty: self.cfg.tlb_miss_penalty as u64,
            // Milli-cycles: latency * 1000 * exposure% / 100.
            l2_hit_milli: self.cfg.l2.hit_latency as u64 * self.cfg.l2_hit_exposure_pct as u64 * 10,
            mem_miss_milli: self.cfg.mem_latency as u64 * self.cfg.miss_exposure_pct as u64 * 10,
            store_pct: self.cfg.store_stall_pct as u64,
            line_shift: self.l1d.offset_bits,
        }
    }

    /// Processes one data reference: the fused DTLB + L1D probe.
    ///
    /// Access/store counts are accumulated in the cursor and added to the
    /// cache and TLB statistics in one bulk update per block by
    /// [`Machine::retire_block`] (levels only change between blocks, so
    /// attribution is identical); consecutive references to one cache
    /// line — the dominant pattern of strided walks — take a fused fast
    /// path: after any reference to address A both MRU memos point at A's
    /// line and page, so a same-line successor is a guaranteed hit whose
    /// probe, promotion, and translation are all the identity, leaving
    /// only the dirty-bit OR.
    #[inline]
    pub(crate) fn data_ref(
        &mut self,
        consts: &RefConsts,
        addr: u64,
        is_store: bool,
        stalls: &mut u64,
        cursor: &mut RefCursor,
    ) {
        cursor.nstores += is_store as u64;
        let line = addr >> consts.line_shift;
        if line == cursor.prev_line {
            self.l1d.mru_mark_dirty(is_store);
            return;
        }
        cursor.prev_line = line;
        let translated = self.dtlb.translate_uncounted(addr);
        *stalls += consts.tlb_penalty * (!translated) as u64;
        let out = self.l1d.access_uncounted(addr, is_store);
        if !out.hit {
            if let Some(wb) = out.writeback {
                // Dirty L1D eviction drains into the L2; an L2 dirty
                // eviction in turn goes to memory, stall-free
                // (buffered).
                let _ = self.l2.access(wb, true);
            }
            let fill = self.l2.access(addr, false);
            let mut penalty_milli = consts.l2_hit_milli;
            if !fill.hit {
                penalty_milli += consts.mem_miss_milli;
            }
            if is_store {
                penalty_milli = penalty_milli * consts.store_pct / 100;
            }
            cursor.data_stall_milli += penalty_milli;
        }
    }

    /// Retires a block whose data references have all been processed:
    /// bulk statistics update, window exposure scaling, branch
    /// resolution, issue bandwidth, and the counter tail.
    #[inline]
    pub(crate) fn retire_block(&mut self, block: &Block, mut stalls: u64, cursor: &RefCursor) {
        let nrefs = block.accesses.len() as u64;
        self.l1d.bulk_count(nrefs, cursor.nstores);
        self.dtlb.bulk_count(nrefs);
        // A smaller instruction window extracts less memory-level
        // parallelism: scale the exposed data stalls by the window level's
        // multiplier. Hit-dominated code is unaffected, which is what lets
        // small hotspots shrink the window for free.
        let win = self.window_level.index();
        let wf = self.cfg.window_exposure_permille[win] as u64;
        // Carry the sub-cycle residue so long runs are exact.
        let exposed = cursor.data_stall_milli * wf / 1000 + self.stall_acc;
        stalls += exposed / 1000;
        self.stall_acc = exposed % 1000;

        // Branch resolution.
        if let Some(br) = block.branch {
            if !self.predictor.predict_and_update(br.pc, br.taken) {
                stalls += self.cfg.mispredict_penalty as u64;
            }
        }

        // Base issue bandwidth.
        self.issue_acc += block.ninstr as u64;
        let base = match self.issue_shift {
            Some(sh) => {
                let b = self.issue_acc >> sh;
                self.issue_acc &= (1 << sh) - 1;
                b
            }
            None => {
                let b = self.issue_acc / self.cfg.issue_width as u64;
                self.issue_acc %= self.cfg.issue_width as u64;
                b
            }
        };

        self.counters.instret += block.ninstr as u64;
        self.counters.window_instr[win] += block.ninstr as u64;
        let delta = base + stalls;
        self.counters.cycles += delta;
        self.counters.l1d_cycles[self.l1d.level().index()] += delta;
        self.counters.l2_cycles[self.l2.level().index()] += delta;
        self.counters.window_cycles[win] += delta;
        self.counters.dtlb_cycles[self.dtlb.level().index()] += delta;
    }

    /// Copies sub-structure stats into the counters snapshot. Called on
    /// demand from [`Machine::counters`], never from the block loop.
    fn sync_stats(&mut self) {
        self.counters.l1i = *self.l1i.stats();
        self.counters.l1d = *self.l1d.stats();
        self.counters.l2 = *self.l2.stats();
        self.counters.dtlb = *self.dtlb.stats();
        self.counters.branch = *self.predictor.stats();
        let per_level = self.dtlb.level_stats();
        for (k, level) in per_level.iter().enumerate() {
            self.counters.dtlb_level_accesses[k] = level.accesses;
            self.counters.dtlb_level_misses[k] = level.misses;
        }
        self.counters.dtlb_resizes = *self.dtlb.resizes();
    }

    /// Requests that `cu`'s control register be set to `level`.
    ///
    /// The hardware guard ignores requests arriving within the unit's
    /// reconfiguration interval of the last applied change
    /// ([`ReconfigOutcome::TooSoon`]). An applied change flushes the cache:
    /// dirty lines are written back (L1D lines drain into the L2; L2 lines
    /// drain to memory) and the flush cycles are charged.
    pub fn request_resize(&mut self, cu: CuId, level: SizeLevel) -> ReconfigOutcome {
        if !self.registry.contains(cu) {
            // Hardware without this unit ignores the write, like a store
            // to a reserved control register.
            return ReconfigOutcome::Unchanged;
        }
        let now = self.counters.instret;
        let idx = cu.index();
        let current = self.level(cu);
        if current == level {
            return ReconfigOutcome::Unchanged;
        }
        if let Some(last) = self.last_reconfig[idx] {
            let interval = self.reconfig_interval(cu);
            if now < last + interval {
                self.counters.guard_rejections += 1;
                return ReconfigOutcome::TooSoon {
                    remaining: last + interval - now,
                };
            }
        }
        self.last_reconfig[idx] = Some(now);
        let report = self.apply_resize(cu, level);
        ReconfigOutcome::Applied(report)
    }

    /// Immediately applies a resize, bypassing the interval guard. Used by
    /// oracle/static experiments; runtime adaptation should go through
    /// [`Machine::request_resize`].
    pub fn apply_resize(&mut self, cu: CuId, level: SizeLevel) -> FlushReport {
        match cu {
            CuId::Window => {
                // Resizing the window drains the pipeline: a short fixed
                // stall, no cache state is lost.
                if level != self.window_level {
                    self.counters.window_resizes[self.window_level.index()] += 1;
                    self.window_level = level;
                    self.add_overhead_cycles(30);
                }
                FlushReport::default()
            }
            CuId::Dtlb => {
                // A TLB flush invalidates in place: the pipeline drains
                // and the entries refill on demand via the miss penalty.
                let report = self.dtlb.resize(level);
                self.add_overhead_cycles(30);
                report
            }
            CuId::L1d => {
                let report = self.l1d.resize(level);
                // Drain L1D dirty lines into the L2 (they are L2 store
                // traffic).
                for i in 0..report.dirty_lines {
                    // Distinct line addresses in a reserved region: the
                    // energy and traffic accounting is what matters, not
                    // the addresses.
                    let addr = 0xF000_0000_0000 + i * self.cfg.l2.block_bytes as u64;
                    let _ = self.l2.access(addr, true);
                }
                let flush_cycles = report.dirty_lines * self.cfg.flush_writeback_cycles as u64;
                self.add_overhead_cycles(flush_cycles);
                report
            }
            CuId::L2 => {
                let report = self.l2.resize(level);
                let flush_cycles = report.dirty_lines * self.cfg.flush_writeback_cycles as u64;
                self.add_overhead_cycles(flush_cycles);
                report
            }
            _ => FlushReport::default(),
        }
    }

    /// Instructions until `cu`'s guard reopens (0 when a request would be
    /// applied immediately).
    pub fn guard_remaining(&self, cu: CuId) -> u64 {
        match self.last_reconfig[cu.index()] {
            Some(last) => (last + self.reconfig_interval(cu)).saturating_sub(self.counters.instret),
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{BranchEvent, MemAccess};

    fn machine() -> Machine {
        Machine::new(MachineConfig::table2()).unwrap()
    }

    fn block(pc: u64, ninstr: u32, accesses: Vec<MemAccess>) -> Block {
        Block {
            pc,
            ninstr,
            accesses,
            branch: None,
        }
    }

    #[test]
    fn issue_width_limits_ipc() {
        let mut m = machine();
        // Same block repeatedly: after warmup no misses, IPC -> issue width.
        let b = block(0x400, 16, vec![MemAccess::load(0x1000)]);
        for _ in 0..1000 {
            m.exec_block(&b);
        }
        let ipc = m.counters().ipc();
        assert!(ipc > 3.5 && ipc <= 4.0, "steady IPC near width, got {ipc}");
    }

    #[test]
    fn misses_add_stalls() {
        let mut m = machine();
        let hit = block(0x400, 8, vec![MemAccess::load(0x1000)]);
        for _ in 0..100 {
            m.exec_block(&hit);
        }
        let before = m.counters().clone();
        // Stream through 16 MB: misses in both L1D and L2.
        let mut misses = Vec::new();
        for i in 0..1000u64 {
            misses.push(MemAccess::load(0x100_0000 + i * 4096));
        }
        m.exec_block(&Block {
            pc: 0x400,
            ninstr: 8,
            accesses: misses,
            branch: None,
        });
        let d = m.counters().delta_since(&before);
        assert!(
            d.cycles > 1000,
            "misses must stall, got {} cycles",
            d.cycles
        );
        assert!(d.l2.total_misses() > 900);
    }

    #[test]
    fn mispredicts_charge_penalty() {
        let mut m = machine();
        let mut taken = false;
        let mut base = 0;
        // Random-ish outcomes on many PCs to defeat the predictor.
        let mut x = 1u64;
        for i in 0..2000u64 {
            x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            taken = (x >> 63) != 0;
            let b = Block {
                pc: 0x400,
                ninstr: 4,
                accesses: vec![],
                branch: Some(BranchEvent {
                    pc: 0x800 + (i % 64) * 4,
                    taken,
                }),
            };
            m.exec_block(&b);
            base += 1;
        }
        let _ = (taken, base);
        let c = m.counters();
        assert!(c.branch.mispredicts > 300, "got {}", c.branch.mispredicts);
        // Each mispredict costs 3 cycles on top of base 1 cycle/block.
        assert!(c.cycles >= 2000 + 3 * c.branch.mispredicts);
    }

    #[test]
    fn guard_blocks_rapid_reconfiguration() {
        let mut m = machine();
        let l1 = SizeLevel::new(1).unwrap();
        assert!(matches!(
            m.request_resize(CuId::L1d, l1),
            ReconfigOutcome::Applied(_)
        ));
        // Immediately asking again (different level) is too soon.
        let l2 = SizeLevel::new(2).unwrap();
        assert!(matches!(
            m.request_resize(CuId::L1d, l2),
            ReconfigOutcome::TooSoon { .. }
        ));
        assert_eq!(m.counters().guard_rejections, 1);
        // Retire 100K instructions, then it works.
        let b = block(0x400, 1000, vec![]);
        for _ in 0..100 {
            m.exec_block(&b);
        }
        assert!(matches!(
            m.request_resize(CuId::L1d, l2),
            ReconfigOutcome::Applied(_)
        ));
        assert_eq!(m.level(CuId::L1d), l2);
    }

    #[test]
    fn unchanged_request_is_free() {
        let mut m = machine();
        assert_eq!(
            m.request_resize(CuId::L1d, SizeLevel::LARGEST),
            ReconfigOutcome::Unchanged
        );
        assert_eq!(m.counters().guard_rejections, 0);
    }

    #[test]
    fn l1d_flush_drains_into_l2() {
        let mut m = machine();
        // Dirty 100 lines spread across the upper sets (sets 412..511 of
        // 512), which a shrink to 256 sets disables.
        for i in 0..100u64 {
            m.exec_block(&block(0x400, 4, vec![MemAccess::store((412 + i) * 64)]));
        }
        let l2_before = m.counters().l2.total_accesses();
        let out = m.request_resize(CuId::L1d, SizeLevel::new(1).unwrap());
        match out {
            ReconfigOutcome::Applied(report) => assert_eq!(report.dirty_lines, 100),
            other => panic!("expected Applied, got {other:?}"),
        }
        let l2_after = m.counters().l2.total_accesses();
        assert!(l2_after >= l2_before + 50, "writebacks become L2 traffic");
    }

    #[test]
    fn overhead_cycles_attributed_to_levels() {
        let mut m = machine();
        m.apply_resize(CuId::L2, SizeLevel::new(3).unwrap());
        m.add_overhead_cycles(500);
        assert_eq!(m.counters().l2_cycles[3], 500);
        assert_eq!(m.counters().l1d_cycles[0], 500);
    }

    #[test]
    fn smaller_l1d_misses_more() {
        let cfgs = [SizeLevel::LARGEST, SizeLevel::SMALLEST];
        let mut miss_ratios = Vec::new();
        for lvl in cfgs {
            let mut m = machine();
            m.apply_resize(CuId::L1d, lvl);
            // 32 KB working set streamed repeatedly.
            for _round in 0..20 {
                for a in (0..32768u64).step_by(64) {
                    m.exec_block(&block(0x400, 4, vec![MemAccess::load(0x2_0000 + a)]));
                }
            }
            miss_ratios.push(m.counters().l1d.miss_ratio());
        }
        assert!(
            miss_ratios[1] > miss_ratios[0] * 2.0,
            "8 KB misses far more than 64 KB on a 32 KB set: {miss_ratios:?}"
        );
    }

    #[test]
    fn ipc_degrades_with_tiny_caches() {
        let mut big = machine();
        let mut small = machine();
        small.apply_resize(CuId::L1d, SizeLevel::SMALLEST);
        small.apply_resize(CuId::L2, SizeLevel::SMALLEST);
        for m in [&mut big, &mut small] {
            for _round in 0..10 {
                for a in (0..262144u64).step_by(64) {
                    m.exec_block(&block(0x400, 8, vec![MemAccess::load(0x10_0000 + a)]));
                }
            }
        }
        assert!(
            small.counters().ipc() < big.counters().ipc(),
            "small {} vs big {}",
            small.counters().ipc(),
            big.counters().ipc()
        );
    }

    #[test]
    fn window_resize_is_cheap_and_guarded() {
        let mut m = machine();
        let out = m.request_resize(CuId::Window, SizeLevel::SMALLEST);
        assert!(
            matches!(out, ReconfigOutcome::Applied(report) if report == FlushReport::default())
        );
        assert_eq!(m.level(CuId::Window), SizeLevel::SMALLEST);
        assert!(m.cycles() > 0, "pipeline drain charged");
        // Guard: 5K instructions between window changes.
        assert!(matches!(
            m.request_resize(CuId::Window, SizeLevel::LARGEST),
            ReconfigOutcome::TooSoon { .. }
        ));
        for _ in 0..6 {
            m.exec_block(&block(0x400, 1000, vec![]));
        }
        assert!(m
            .request_resize(CuId::Window, SizeLevel::LARGEST)
            .in_effect());
    }

    #[test]
    fn small_window_amplifies_miss_stalls_only() {
        // Hit-dominated code: window size must not matter.
        let mut big = machine();
        let mut small = machine();
        small.apply_resize(CuId::Window, SizeLevel::SMALLEST);
        for m in [&mut big, &mut small] {
            for _ in 0..2000 {
                m.exec_block(&block(0x400, 16, vec![MemAccess::load(0x1000)]));
            }
        }
        let diff = small.counters().cycles as i64 - big.counters().cycles as i64;
        assert!(
            (0..=80).contains(&diff),
            "hit-dominated code pays only the drain and cold-miss residue, diff {diff}"
        );

        // Miss-heavy code: the small window exposes more stall cycles.
        let mut big = machine();
        let mut small = machine();
        small.apply_resize(CuId::Window, SizeLevel::SMALLEST);
        for m in [&mut big, &mut small] {
            for i in 0..5000u64 {
                m.exec_block(&block(0x400, 16, vec![MemAccess::load(0x10_0000 + i * 64)]));
            }
        }
        assert!(
            small.counters().cycles > big.counters().cycles * 105 / 100,
            "streaming at 8 entries: {} vs {} cycles",
            small.counters().cycles,
            big.counters().cycles
        );
    }

    #[test]
    fn window_counters_track_levels() {
        let mut m = machine();
        m.exec_block(&block(0x400, 100, vec![]));
        m.apply_resize(CuId::Window, SizeLevel::new(2).unwrap());
        m.exec_block(&block(0x400, 200, vec![]));
        let c = m.counters();
        assert_eq!(c.window_instr[0], 100);
        assert_eq!(c.window_instr[2], 200);
        assert_eq!(c.window_resizes[0], 1);
        assert!(c.window_cycles[2] > 0);
    }

    #[test]
    fn delta_since_of_ordered_snapshots() {
        let mut m = machine();
        m.exec_block(&block(0x400, 100, vec![MemAccess::load(0x1000)]));
        let snap = m.counters().clone();
        m.exec_block(&block(0x400, 50, vec![MemAccess::store(0x1000)]));
        let d = m.counters().delta_since(&snap);
        assert_eq!(d.instret, 50);
        assert_eq!(d.l1d.total_accesses(), 1);
        assert_eq!(d.l1d.stores[0], 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "snapshot order reversed")]
    fn delta_since_rejects_swapped_snapshots_in_debug() {
        let mut m = machine();
        let earlier = m.counters().clone();
        m.exec_block(&block(0x400, 100, vec![]));
        let later = m.counters().clone();
        let _ = earlier.delta_since(&later);
    }

    #[test]
    fn counters_are_synced_on_read() {
        let mut m = machine();
        m.exec_block(&block(0x400, 8, vec![MemAccess::load(0x2000)]));
        // Sub-structure stats are copied lazily by `counters()`, not by
        // the block loop; a read must always observe the latest values.
        assert_eq!(m.counters().l1d.total_accesses(), 1);
        assert_eq!(m.counters().dtlb.accesses, 1);
        m.exec_block(&block(0x400, 8, vec![MemAccess::load(0x2000)]));
        assert_eq!(m.counters().l1d.total_accesses(), 2);
        assert_eq!(m.counters().branch.branches, 0);
    }

    #[test]
    fn guard_remaining_reports() {
        let mut m = machine();
        assert_eq!(m.guard_remaining(CuId::L2), 0);
        m.request_resize(CuId::L2, SizeLevel::new(1).unwrap());
        assert_eq!(m.guard_remaining(CuId::L2), 1_000_000);
    }

    #[test]
    fn unregistered_dtlb_ignores_requests() {
        // The paper's machine does not expose the DTLB as a CU: a resize
        // request is a write to a reserved control register.
        let mut m = machine();
        assert!(!m.registry().contains(CuId::Dtlb));
        assert_eq!(
            m.request_resize(CuId::Dtlb, SizeLevel::SMALLEST),
            ReconfigOutcome::Unchanged
        );
        assert_eq!(m.level(CuId::Dtlb), SizeLevel::LARGEST);
        assert_eq!(m.counters().guard_rejections, 0);
    }

    #[test]
    fn dtlb_without_power_of_two_sets_is_a_config_error() {
        // 48 entries is a multiple of 16 but 3 sets; the set index masks
        // with `sets - 1`, so `validate` must refuse it before `Tlb::new`
        // would panic.
        let cfg = MachineConfig {
            dtlb_entries: 48,
            ..MachineConfig::table2()
        };
        assert!(Machine::new(cfg).is_err());
    }

    #[test]
    fn dtlb_cu_registers_resizes_and_guards() {
        let mut cfg = MachineConfig::table2();
        cfg.dtlb_configurable = true;
        let mut m = Machine::new(cfg).unwrap();
        assert!(m.registry().contains(CuId::Dtlb));
        // Warm 32 pages, then shrink to 16 entries.
        for p in 0..32u64 {
            m.exec_block(&block(0x400, 4, vec![MemAccess::load(p * 4096)]));
        }
        let out = m.request_resize(CuId::Dtlb, SizeLevel::SMALLEST);
        match out {
            ReconfigOutcome::Applied(report) => {
                assert_eq!(report.dirty_lines, 0);
                assert_eq!(report.valid_lines, 32);
            }
            other => panic!("expected Applied, got {other:?}"),
        }
        assert_eq!(m.level(CuId::Dtlb), SizeLevel::SMALLEST);
        // 10 K-instruction guard.
        assert!(matches!(
            m.request_resize(CuId::Dtlb, SizeLevel::LARGEST),
            ReconfigOutcome::TooSoon { .. }
        ));
        for _ in 0..11 {
            m.exec_block(&block(0x400, 1000, vec![]));
        }
        assert!(m.request_resize(CuId::Dtlb, SizeLevel::LARGEST).in_effect());
        let c = m.counters();
        assert_eq!(c.dtlb_resizes[0], 1);
        assert_eq!(c.dtlb_resizes[3], 1);
        assert!(c.dtlb_level_accesses[0] > 0);
        assert!(c.dtlb_cycles[3] > 0);
    }
}
