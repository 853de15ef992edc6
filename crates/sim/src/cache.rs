//! Set-associative, write-back, write-allocate cache with runtime resizing.
//!
//! A configurable cache shrinks or grows by halving/doubling its *set count*
//! (associativity and line size stay fixed), matching the four sizes per
//! unit in Table 2. Resizing follows the selective-sets model of the
//! reconfigurable-cache literature the paper builds on:
//!
//! * **shrinking** disables the upper sets: their valid lines are
//!   invalidated, and the dirty ones are written back to the next level —
//!   the "thousands of cycles" reconfiguration overhead the paper cites;
//! * **growing** re-enables sets: lines whose address now indexes a
//!   different set are invalidated (dirty ones written back); lines whose
//!   mapping is unchanged survive.
//!
//! Tags store the full line address, so surviving lines stay correct across
//! index-width changes. The flush report lets the machine charge cycles and
//! energy for every written-back line.
//!
//! Statistics are kept **per size level** so the energy model can later
//! price each access at the energy of the configuration it actually hit.
//!
//! # Data layout
//!
//! This is the simulator's hottest structure — every data reference of
//! every run probes it — so line state is stored struct-of-arrays:
//!
//! * [`Cache::meta`]: one packed `u64` per line, `tag << 2 | dirty << 1 |
//!   valid`. A probe is a single load and compare per way (`meta & !DIRTY
//!   == tag << 2 | VALID` checks tag *and* validity at once).
//! * [`Cache::rank`]: one recency byte per line. Within a set the ranks
//!   form a permutation of `0..ways`; 0 is most recently used, `ways - 1`
//!   is the LRU victim. Promotion increments the ranks below the touched
//!   line's old rank and clears the touched one, lane by lane in one
//!   branch-free pass, replacing the old per-line 8-byte monotonic
//!   timestamp and its scan-for-minimum victim search. In a 2-way set
//!   (Table 2's L1I and L1D) the two ranks are always a permutation of
//!   {0, 1}, so promotion is two stores: `rank[w] = 0; rank[w ^ 1] = 1`.
//!
//! On top of that, the cache memoizes the most recently touched line
//! ([`Cache::mru_key`]): consecutive accesses to the same line — the
//! common case for strided walks — skip the probe entirely. The memo is
//! sound because a repeated line is by definition already most recently
//! used (promotion is the identity) and nothing can have evicted it since
//! the previous access.
//!
//! # Branch-free set kernels
//!
//! On random walks the host cannot predict which way hits or whether a
//! way is free, so no set scan exits early:
//!
//! * the **probe** compares every way of the set and builds a way-match
//!   bitmask; tags are unique within a set, so `trailing_zeros` of a
//!   non-zero mask is the hit way;
//! * **victim selection** builds an invalid-way mask and an LRU-rank mask
//!   (rank `ways - 1`) in one pass and takes the lowest set bit of
//!   `if invalid != 0 { invalid } else { lru }`.
//!
//! Both run with the way count as a compile-time constant for Table 2's
//! associativities (2 and 4, fully unrolled) and with a loop for any
//! other (at most 32 ways: one mask bit per way). The access path up to
//! the hit is `#[inline(always)]`, so an L1D or L1I hit runs in the block
//! loop's registers and returns its outcome there rather than through
//! memory (`benchmarks/JOURNAL.md` §9). The miss path stays out of line
//! and `#[cold]`: without `#[cold]`, in-process runs of the miss-heavy
//! benchmark spec gained 1.53x over the early-exit scans instead of
//! 1.68x, and the hit path got slower (`benchmarks/JOURNAL.md` §7).
//!
//! The replacement behavior is bit-for-bit identical to the previous
//! array-of-structs implementation: true per-set LRU with invalid ways
//! (lowest index first) preferred as victims. `cache_reference_model.rs`
//! checks this against a naive oracle, and `lru_equivalence.rs` checks it
//! against a re-implementation of the old timestamp scheme, both also at
//! the L2's geometry across shrinks and grows.

use crate::config::{CacheGeometry, SizeLevel, MAX_WAYS, NUM_SIZE_LEVELS};
use serde::{Deserialize, Serialize};

/// `meta` bit 0: the line holds a valid tag.
const VALID: u64 = 1;
/// `meta` bit 1: the line has been written since allocation.
const DIRTY: u64 = 1 << 1;
/// `mru_key` value meaning "no memoized line" (a real key has VALID set).
const NO_MRU: u64 = 0;

/// Outcome of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the reference hit.
    pub hit: bool,
    /// Address of a dirty line evicted to make room, if any. The caller is
    /// responsible for propagating the writeback to the next level.
    pub writeback: Option<u64>,
}

/// Outcome of a resize or flush: what the transition cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlushReport {
    /// Dirty lines written back to the next level.
    pub dirty_lines: u64,
    /// Valid lines invalidated (including the dirty ones).
    pub valid_lines: u64,
}

/// Per-size-level access statistics for one cache.
///
/// Index `k` of each array accumulates events that occurred while the cache
/// was at [`SizeLevel`] `k`. Non-configurable caches only ever use index 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Total references (loads + stores).
    pub accesses: [u64; NUM_SIZE_LEVELS],
    /// References that missed.
    pub misses: [u64; NUM_SIZE_LEVELS],
    /// Store references (subset of `accesses`).
    pub stores: [u64; NUM_SIZE_LEVELS],
    /// Dirty evictions due to replacement.
    pub writebacks: [u64; NUM_SIZE_LEVELS],
    /// Dirty lines written back by resize and flush transitions, attributed
    /// to the level being *left* (for a flush, the current level).
    pub flush_writebacks: [u64; NUM_SIZE_LEVELS],
    /// Number of applied reconfigurations (attributed to the level left).
    pub resizes: [u64; NUM_SIZE_LEVELS],
}

impl CacheStats {
    /// Total references across all levels.
    pub fn total_accesses(&self) -> u64 {
        self.accesses.iter().sum()
    }

    /// Total misses across all levels.
    pub fn total_misses(&self) -> u64 {
        self.misses.iter().sum()
    }

    /// Global miss ratio, or 0.0 when there were no accesses.
    pub fn miss_ratio(&self) -> f64 {
        let a = self.total_accesses();
        if a == 0 {
            0.0
        } else {
            self.total_misses() as f64 / a as f64
        }
    }

    /// Element-wise difference `self - earlier`; used to attribute events to
    /// a region of execution (e.g. one hotspot invocation).
    ///
    /// Both snapshot types share one underflow contract (see
    /// [`crate::MachineCounters::delta_since`]): passing snapshots in the
    /// wrong order is a caller bug. Debug builds panic on it; release
    /// builds wrap rather than aborting a long experiment.
    pub fn delta_since(&self, earlier: &CacheStats) -> CacheStats {
        fn sub(a: &[u64; NUM_SIZE_LEVELS], b: &[u64; NUM_SIZE_LEVELS]) -> [u64; NUM_SIZE_LEVELS] {
            let mut out = [0; NUM_SIZE_LEVELS];
            for i in 0..NUM_SIZE_LEVELS {
                debug_assert!(a[i] >= b[i], "snapshot order reversed");
                out[i] = a[i].wrapping_sub(b[i]);
            }
            out
        }
        CacheStats {
            accesses: sub(&self.accesses, &earlier.accesses),
            misses: sub(&self.misses, &earlier.misses),
            stores: sub(&self.stores, &earlier.stores),
            writebacks: sub(&self.writebacks, &earlier.writebacks),
            flush_writebacks: sub(&self.flush_writebacks, &earlier.flush_writebacks),
            resizes: sub(&self.resizes, &earlier.resizes),
        }
    }
}

/// A resizable set-associative cache model.
///
/// # Examples
///
/// ```
/// use ace_sim::{Cache, CacheGeometry, SizeLevel};
/// let geom = CacheGeometry { size_bytes: 8 * 1024, ways: 2, block_bytes: 64, hit_latency: 1 };
/// let mut c = Cache::new(geom).unwrap();
/// assert!(!c.access(0x1000, false).hit); // cold miss (set 0)
/// assert!(!c.access(0xFC0, false).hit);  // cold miss (set 63)
/// let report = c.resize(SizeLevel::new(1).unwrap()); // 32 sets remain
/// assert!(c.access(0x1000, false).hit);  // set 0 survives the shrink
/// assert!(!c.access(0xFC0, false).hit);  // set 63 was disabled
/// assert_eq!(report.dirty_lines, 0);     // nothing was dirty
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    /// Packed per-line metadata: `tag << 2 | dirty << 1 | valid`, indexed
    /// `set * ways + way`. Storage covers the *maximum* set count; only the
    /// first `sets * ways` entries are in use after a shrink.
    pub(crate) meta: Vec<u64>,
    /// Per-line LRU rank; within each set a permutation of `0..ways`
    /// (0 = MRU). Ranks of invalid lines are stale but keep the
    /// permutation invariant.
    pub(crate) rank: Vec<u8>,
    /// Memoized key (`tag << 2 | VALID`) of the most recently touched
    /// line, or [`NO_MRU`]; a repeat access skips the probe loop.
    pub(crate) mru_key: u64,
    /// Flat index of the memoized line in `meta`.
    pub(crate) mru_slot: u32,
    /// Sets at the current level.
    pub(crate) sets: u32,
    /// Associativity, cached as `usize` for indexing.
    pub(crate) ways: usize,
    /// `log2(block_bytes)`.
    pub(crate) offset_bits: u32,
    /// `level.index()`, cached so the hot path never recomputes it.
    pub(crate) lvl: usize,
    level: SizeLevel,
    geom: CacheGeometry,
    stats: CacheStats,
}

impl Cache {
    /// Creates the cache at its largest size.
    ///
    /// # Errors
    ///
    /// Returns an error if the geometry fails [`CacheGeometry::validate`].
    pub fn new(geom: CacheGeometry) -> Result<Cache, crate::config::ConfigError> {
        geom.validate()?;
        let max_sets = geom.max_sets();
        let ways = geom.ways as usize;
        let lines = max_sets as usize * ways;
        Ok(Cache {
            meta: vec![0; lines],
            rank: (0..lines).map(|i| (i % ways) as u8).collect(),
            mru_key: NO_MRU,
            mru_slot: 0,
            sets: max_sets,
            ways,
            offset_bits: geom.block_bytes.trailing_zeros(),
            lvl: 0,
            level: SizeLevel::LARGEST,
            geom,
            stats: CacheStats::default(),
        })
    }

    /// The static geometry (at the largest level).
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    /// The current size level.
    #[inline]
    pub fn level(&self) -> SizeLevel {
        self.level
    }

    /// Current capacity in bytes.
    pub fn current_size(&self) -> u64 {
        self.geom.size_at(self.level)
    }

    /// Accumulated statistics.
    #[inline]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Performs one reference; `is_store` marks the line dirty on hit or
    /// after allocation (write-allocate).
    #[inline]
    pub fn access(&mut self, addr: u64, is_store: bool) -> AccessOutcome {
        let lvl = self.lvl;
        self.stats.accesses[lvl] += 1;
        self.stats.stores[lvl] += is_store as u64;
        self.access_uncounted(addr, is_store)
    }

    /// [`Cache::access`] without the per-reference access/store counter
    /// updates. The block loop counts references in bulk per block via
    /// [`Cache::bulk_count`] — the level cannot change mid-block (resizes
    /// only happen between blocks), so one bulk add at the current level
    /// leaves [`CacheStats`] byte-identical to per-reference counting.
    /// Misses and writebacks are still counted here (they are decided per
    /// reference, on the cold path).
    ///
    /// Always inlined, so an L1D or L1I hit runs in its caller's registers
    /// and returns its outcome in them; the miss path stays out of line.
    #[inline(always)]
    pub(crate) fn access_uncounted(&mut self, addr: u64, is_store: bool) -> AccessOutcome {
        let line = addr >> self.offset_bits;
        debug_assert!(line < 1 << 62, "line address too wide to pack");
        let key = (line << 2) | VALID;

        // Same line as the previous access: it is already MRU, so the
        // probe and promotion are both the identity; only the dirty bit
        // can change.
        if key == self.mru_key {
            self.meta[self.mru_slot as usize] |= (is_store as u64) << 1;
            return AccessOutcome {
                hit: true,
                writeback: None,
            };
        }

        let set = (line as u32) & (self.sets - 1);
        let base = set as usize * self.ways;
        // Table 2's associativities get the probe with the way count as a
        // constant, fully unrolled; any other runs it with a loop, out of
        // line so that the loop's registers are not saved on every probe.
        match self.ways {
            2 => self.probe::<2>(key, base, is_store),
            4 => self.probe::<4>(key, base, is_store),
            _ => self.probe_any_ways(key, base, is_store),
        }
    }

    #[inline(never)]
    fn probe_any_ways(&mut self, key: u64, base: usize, is_store: bool) -> AccessOutcome {
        self.probe::<0>(key, base, is_store)
    }

    /// The set probe of [`Cache::access_uncounted`] for associativity `W`
    /// (0: the runtime `ways`). A way-match mask over the whole set
    /// replaces an early-exit scan, whose exit branch the host cannot
    /// predict on random walks; tags are unique within a set, so at most
    /// one bit is set.
    #[inline(always)]
    fn probe<const W: usize>(&mut self, key: u64, base: usize, is_store: bool) -> AccessOutcome {
        let ways = if W == 0 { self.ways } else { W };
        let hits = way_mask(&self.meta[base..base + ways], |m| m & !DIRTY == key);
        if hits != 0 {
            let way = hits.trailing_zeros() as usize;
            let slot = base + way;
            self.meta[slot] |= (is_store as u64) << 1;
            promote_ways::<W>(&mut self.rank[base..base + ways], way);
            self.mru_key = key;
            self.mru_slot = slot as u32;
            return AccessOutcome {
                hit: true,
                writeback: None,
            };
        }
        self.miss::<W>(key, base, is_store)
    }

    /// Adds a block's worth of access/store counts at the current level.
    /// Pairs with [`Cache::access_uncounted`].
    #[inline]
    pub(crate) fn bulk_count(&mut self, accesses: u64, stores: u64) {
        self.stats.accesses[self.lvl] += accesses;
        self.stats.stores[self.lvl] += stores;
    }

    /// Marks the memoized MRU line dirty if `is_store`. Sound only when
    /// the caller has just accessed that line (so it is resident and MRU);
    /// the block loop uses this for consecutive same-line references,
    /// where probe, promotion, and miss accounting are all the identity.
    #[inline]
    pub(crate) fn mru_mark_dirty(&mut self, is_store: bool) {
        self.meta[self.mru_slot as usize] |= (is_store as u64) << 1;
    }

    /// Miss path for associativity `W` (see [`Cache::probe`]): allocates
    /// into the lowest invalid way, else evicts the LRU line.
    #[cold]
    #[inline(never)]
    fn miss<const W: usize>(&mut self, key: u64, base: usize, is_store: bool) -> AccessOutcome {
        let ways = if W == 0 { self.ways } else { W };
        let lvl = self.lvl;
        self.stats.misses[lvl] += 1;
        let rank = &mut self.rank[base..base + ways];
        let way = victim_way(&self.meta[base..base + ways], rank, |m| m & VALID == 0);
        promote_ways::<W>(rank, way);
        let slot = base + way;
        let old = self.meta[slot];
        let writeback = if old & (VALID | DIRTY) == VALID | DIRTY {
            self.stats.writebacks[lvl] += 1;
            Some((old >> 2) << self.offset_bits)
        } else {
            None
        };
        self.meta[slot] = key | (is_store as u64) << 1;
        self.mru_key = key;
        self.mru_slot = slot as u32;
        AccessOutcome {
            hit: false,
            writeback,
        }
    }

    /// Probes for residency without updating LRU state or statistics.
    #[inline]
    pub fn contains(&self, addr: u64) -> bool {
        let line = addr >> self.offset_bits;
        let key = (line << 2) | VALID;
        let set = (line as u32) & (self.sets - 1);
        let base = set as usize * self.ways;
        way_mask(&self.meta[base..base + self.ways], |m| m & !DIRTY == key) != 0
    }

    /// Changes the cache to `new_level` using selective-sets resizing.
    ///
    /// Shrinking invalidates the disabled sets; growing invalidates lines
    /// whose set mapping changes under the wider index. In both directions
    /// dirty casualties are written back and counted in the report (and in
    /// [`CacheStats::flush_writebacks`] at the level being left) so the
    /// caller can charge writeback cycles and next-level traffic. Resizing
    /// to the current level is a no-op returning an empty report.
    pub fn resize(&mut self, new_level: SizeLevel) -> FlushReport {
        if new_level == self.level {
            return FlushReport::default();
        }
        let old = self.lvl;
        let old_sets = self.sets;
        let new_sets = self.geom.sets_at(new_level);
        let ways = self.ways;
        let mut report = FlushReport::default();

        if new_sets < old_sets {
            // Disable the upper sets. Surviving sets keep their lines:
            // for s < new_sets, line_addr & (new_sets-1) == s still holds.
            for m in &mut self.meta[new_sets as usize * ways..old_sets as usize * ways] {
                if *m & VALID != 0 {
                    report.valid_lines += 1;
                    report.dirty_lines += (*m & DIRTY != 0) as u64;
                }
                *m = 0;
            }
        } else {
            // Re-enable sets: lines that would now index elsewhere must go.
            let new_mask = (new_sets - 1) as u64;
            for set in 0..old_sets as u64 {
                for m in &mut self.meta[set as usize * ways..(set as usize + 1) * ways] {
                    if *m & VALID != 0 && ((*m >> 2) & new_mask) != set {
                        report.valid_lines += 1;
                        report.dirty_lines += (*m & DIRTY != 0) as u64;
                        *m = 0;
                    }
                }
            }
        }

        self.mru_key = NO_MRU;
        self.stats.flush_writebacks[old] += report.dirty_lines;
        self.stats.resizes[old] += 1;
        self.level = new_level;
        self.lvl = new_level.index();
        self.sets = new_sets;
        report
    }

    /// Writes back and invalidates every line without changing the size.
    ///
    /// Dirty casualties are accounted exactly like a resize flush: they
    /// are counted in [`CacheStats::flush_writebacks`] at the current
    /// level (a flush leaves the level unchanged, so "the level left" is
    /// the current one). [`CacheStats::resizes`] is not bumped — the
    /// configuration did not change.
    pub fn flush(&mut self) -> FlushReport {
        let mut report = FlushReport::default();
        let in_use = self.sets as usize * self.ways;
        for m in &mut self.meta[..in_use] {
            if *m & VALID != 0 {
                report.valid_lines += 1;
                report.dirty_lines += (*m & DIRTY != 0) as u64;
            }
            *m = 0;
        }
        self.mru_key = NO_MRU;
        self.stats.flush_writebacks[self.lvl] += report.dirty_lines;
        report
    }

    /// Number of currently valid lines (test/diagnostic helper).
    pub fn valid_lines(&self) -> u64 {
        let in_use = self.sets as usize * self.ways;
        self.meta[..in_use]
            .iter()
            .filter(|&&m| m & VALID != 0)
            .count() as u64
    }

    /// Number of currently dirty lines (test/diagnostic helper).
    pub fn dirty_lines(&self) -> u64 {
        let in_use = self.sets as usize * self.ways;
        self.meta[..in_use]
            .iter()
            .filter(|&&m| m & (VALID | DIRTY) == VALID | DIRTY)
            .count() as u64
    }
}

/// Bit `w` set iff `pred(slots[w])`: a whole-set probe with no
/// data-dependent branch. Sets have at most [`MAX_WAYS`] ways.
#[inline(always)]
pub(crate) fn way_mask<T: Copy>(slots: &[T], pred: impl Fn(T) -> bool) -> u32 {
    debug_assert!(slots.len() <= MAX_WAYS as usize);
    slots
        .iter()
        .enumerate()
        .fold(0, |mask, (w, &s)| mask | (pred(s) as u32) << w)
}

/// Makes `way` the MRU entry of a set's `rank`s, shifting the ranks below
/// its old rank `r` up by one. Lane-wise and branch-free: the ranks are a
/// permutation, so the one lane equal to `r` is `way`'s, and it is
/// cleared in the same pass (no trailing byte store that the next
/// whole-set load would stall on). At rank 0 it is the identity.
#[inline(always)]
pub(crate) fn promote(rank: &mut [u8], way: usize) {
    let r = rank[way];
    for x in rank.iter_mut() {
        let promoted = ((*x == r) as u8).wrapping_neg();
        *x = (*x + (*x < r) as u8) & !promoted;
    }
}

/// [`promote`] for a set of `W` ways (0: the runtime way count). Two
/// ranks are always a permutation of {0, 1}, so a 2-way promotion is two
/// stores: the touched way becomes MRU and the other LRU.
#[inline(always)]
fn promote_ways<const W: usize>(rank: &mut [u8], way: usize) {
    if W == 2 {
        rank[way] = 0;
        rank[way ^ 1] = 1;
    } else {
        promote(rank, way);
    }
}

/// Replacement victim of a set: the lowest-index way whose `meta` is
/// `invalid`, else the LRU way. Both masks come from one branch-free pass;
/// when every way is valid the ranks are exactly the lines' recency
/// order, so exactly one way holds rank `ways - 1`.
#[inline(always)]
pub(crate) fn victim_way<T: Copy>(meta: &[T], rank: &[u8], invalid: impl Fn(T) -> bool) -> usize {
    let lru_rank = (rank.len() - 1) as u8;
    let (free, lru) =
        meta.iter()
            .zip(rank)
            .enumerate()
            .fold((0u32, 0u32), |(free, lru), (w, (&m, &r))| {
                (
                    free | (invalid(m) as u32) << w,
                    lru | ((r == lru_rank) as u32) << w,
                )
            });
    debug_assert!(
        free != 0 || lru.count_ones() == 1,
        "ranks form a permutation"
    );
    if free != 0 { free } else { lru }.trailing_zeros() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        Cache::new(CacheGeometry {
            size_bytes: 8 * 1024,
            ways: 2,
            block_bytes: 64,
            hit_latency: 1,
        })
        .unwrap()
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        assert!(!c.access(0x40, false).hit);
        assert!(c.access(0x40, false).hit);
        assert!(c.access(0x7f, false).hit, "same line");
        assert!(!c.access(0x80, false).hit, "next line");
        assert_eq!(c.stats().total_accesses(), 4);
        assert_eq!(c.stats().total_misses(), 2);
    }

    #[test]
    fn lru_replacement_within_set() {
        let mut c = small();
        // 8KB, 2-way, 64B lines -> 64 sets; addresses 64*64 apart share a set.
        let stride = 64 * 64;
        c.access(0, false);
        c.access(stride, false);
        c.access(0, false); // make line 0 MRU
        let out = c.access(2 * stride, false); // evicts `stride`
        assert!(!out.hit);
        assert!(c.contains(0));
        assert!(!c.contains(stride));
        assert!(c.contains(2 * stride));
    }

    #[test]
    fn dirty_eviction_reports_writeback_address() {
        let mut c = small();
        let stride = 64 * 64;
        c.access(0x100, true); // dirty
        c.access(0x100 + stride, false);
        let out = c.access(0x100 + 2 * stride, false);
        assert_eq!(out.writeback, Some(0x100 & !63));
        assert_eq!(c.stats().writebacks[0], 1);
    }

    #[test]
    fn store_allocate_marks_dirty() {
        let mut c = small();
        c.access(0x200, true);
        assert_eq!(c.dirty_lines(), 1);
        c.access(0x200, false);
        assert_eq!(c.dirty_lines(), 1, "load does not clean the line");
    }

    #[test]
    fn repeat_accesses_update_dirty_through_the_memo() {
        let mut c = small();
        // Load allocates clean; a store to the same line (served by the
        // MRU memo) must still mark it dirty.
        c.access(0x200, false);
        assert_eq!(c.dirty_lines(), 0);
        c.access(0x210, true);
        assert_eq!(c.dirty_lines(), 1);
        assert_eq!(c.stats().total_accesses(), 2);
        assert_eq!(c.stats().stores[0], 1);
    }

    #[test]
    fn shrink_evicts_only_disabled_sets() {
        let mut c = small(); // 64 sets at level 0; 16 sets at level 2.
                             // Lines in surviving sets 0..3 and in disabled sets 20..22.
        c.access(0, true);
        c.access(64, false);
        c.access(20 * 64, true);
        c.access(21 * 64, true);
        c.access(22 * 64, false);
        let report = c.resize(SizeLevel::new(2).unwrap());
        assert_eq!(report.valid_lines, 3, "only the disabled sets' lines go");
        assert_eq!(report.dirty_lines, 2);
        assert_eq!(c.current_size(), 2 * 1024);
        assert!(c.contains(0), "surviving set keeps its line");
        assert!(c.contains(64));
        assert!(!c.contains(20 * 64));
        assert_eq!(c.stats().flush_writebacks[0], 2);
        assert_eq!(c.stats().resizes[0], 1);
        // Subsequent accesses are attributed to the new level.
        c.access(0, false);
        assert_eq!(c.stats().accesses[2], 1);
    }

    #[test]
    fn grow_evicts_remapped_lines_only() {
        let mut c = small();
        c.resize(SizeLevel::new(2).unwrap()); // 16 sets
                                              // Two lines sharing set 0 at 16 sets: line 0 (set 0 at 64 sets too)
                                              // and line 16 (set 16 at 64 sets: remapped on grow).
        c.access(0, true);
        c.access(16 * 64, true);
        let report = c.resize(SizeLevel::LARGEST);
        assert_eq!(report.valid_lines, 1, "only the remapped line is dropped");
        assert_eq!(report.dirty_lines, 1);
        assert!(c.contains(0));
        assert!(!c.contains(16 * 64));
    }

    #[test]
    fn resize_to_same_level_is_noop() {
        let mut c = small();
        c.access(0, true);
        let report = c.resize(SizeLevel::LARGEST);
        assert_eq!(report, FlushReport::default());
        assert!(c.contains(0));
    }

    #[test]
    fn shrink_reduces_capacity_behaviorally() {
        let mut c = small(); // 8 KB
                             // Touch a 4 KB working set: fits at level 0.
        for a in (0..4096).step_by(64) {
            c.access(a, false);
        }
        let misses_before = c.stats().total_misses();
        for a in (0..4096).step_by(64) {
            c.access(a, false);
        }
        assert_eq!(c.stats().total_misses(), misses_before, "fits at 8 KB");
        // At 2 KB (level 2) the same working set must thrash.
        c.resize(SizeLevel::new(2).unwrap());
        for _round in 0..2 {
            for a in (0..4096).step_by(64) {
                c.access(a, false);
            }
        }
        let lvl2 = 2;
        assert!(
            c.stats().misses[lvl2] > 64,
            "4 KB working set thrashes a 2 KB cache: {} misses",
            c.stats().misses[lvl2]
        );
    }

    #[test]
    fn delta_since_subtracts() {
        let mut c = small();
        c.access(0, false);
        let snap = *c.stats();
        c.access(64, true);
        c.access(64, true);
        let d = c.stats().delta_since(&snap);
        assert_eq!(d.total_accesses(), 2);
        assert_eq!(d.stores[0], 2);
        assert_eq!(d.total_misses(), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "snapshot order reversed")]
    fn delta_since_rejects_swapped_snapshots_in_debug() {
        let mut c = small();
        let earlier = *c.stats();
        c.access(0, false);
        let later = *c.stats();
        let _ = earlier.delta_since(&later);
    }

    #[test]
    fn grow_after_shrink_restores_capacity() {
        let mut c = small();
        c.resize(SizeLevel::SMALLEST);
        assert_eq!(c.current_size(), 1024);
        c.resize(SizeLevel::LARGEST);
        assert_eq!(c.current_size(), 8 * 1024);
        // All sets usable again.
        for a in (0..8192).step_by(64) {
            c.access(a, false);
        }
        for a in (0..8192).step_by(64) {
            assert!(c.contains(a), "line {a:#x} resident after fill");
        }
    }

    #[test]
    fn flush_writes_back_and_accounts_like_resize() {
        let mut c = small();
        c.access(0, true);
        c.access(64, false);
        c.access(20 * 64, true);
        let report = c.flush();
        assert_eq!(report.valid_lines, 3);
        assert_eq!(report.dirty_lines, 2);
        assert_eq!(c.valid_lines(), 0);
        assert_eq!(
            c.stats().flush_writebacks[0],
            2,
            "flush accounts its writebacks at the current level, like resize"
        );
        assert_eq!(c.stats().resizes[0], 0, "a flush is not a resize");
        // The flushed lines are gone: re-access misses.
        assert!(!c.access(0, false).hit);
    }

    #[test]
    fn flush_at_shrunk_level_attributes_to_that_level() {
        let mut c = small();
        c.resize(SizeLevel::new(2).unwrap());
        c.access(0, true);
        let report = c.flush();
        assert_eq!(report.dirty_lines, 1);
        assert_eq!(c.stats().flush_writebacks[2], 1);
    }

    #[test]
    fn ranks_stay_a_permutation_across_transitions() {
        let mut c = small();
        for a in (0..8192u64).step_by(64) {
            c.access(a, a % 192 == 0);
        }
        c.resize(SizeLevel::new(2).unwrap());
        for a in (0..4096u64).step_by(32) {
            c.access(a, a % 96 == 0);
        }
        c.resize(SizeLevel::LARGEST);
        c.flush();
        // After heavy churn every set's ranks must still be 0..ways.
        for set in 0..64usize {
            let mut ranks: Vec<u8> = c.rank[set * 2..set * 2 + 2].to_vec();
            ranks.sort_unstable();
            assert_eq!(ranks, vec![0, 1], "set {set}");
        }
    }
}
