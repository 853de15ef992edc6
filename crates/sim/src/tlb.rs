//! Data TLB model.
//!
//! Table 2 specifies a 128-entry fully associative DTLB. True full
//! associativity with exact LRU costs a 128-entry scan per reference; we
//! model it as 16-way set-associative (8 sets of 16), which behaves within
//! noise of fully associative for the page-granular streams the workloads
//! produce while keeping the hot loop cheap. Misses charge a fixed
//! software-walk penalty.
//!
//! Each set is a fixed-size struct of arrays: per entry a packed `u64`
//! (`page << 1 | valid`), a recency-rank byte (0 = MRU, 15 = LRU) and a
//! 16-bit page **fingerprint** ([`Tlb::fingerprint`], never 0; 0 marks an
//! invalid entry). The most recently translated page is memoized, so the
//! page-granular locality of the workload streams (every line of a 4 KB
//! page translates to the same entry) skips the probe entirely.
//!
//! Each set also keeps the index of the way that holds rank 0, its most
//! recently used entry. When the one-page memo misses, the probe first
//! compares that way's key: on a match the translation is a hit whose
//! promotion is the identity, so it returns before the fingerprint
//! compare. This serves streams that alternate between pages in
//! different sets, which defeat the one-page memo. The index moves with
//! every promotion and fill, and [`Tlb::resize`] resets it with the set.
//!
//! A probe compares the set's 16 fingerprints as one `[u16; 16]` (a
//! constant-trip loop LLVM vectorises) into a candidate mask, then
//! verifies each candidate against the full key; two pages share a
//! fingerprint with probability about 2^-16, so there is almost never
//! more than one; comparing the 16 full `u64` keys instead measured
//! slower (`benchmarks/JOURNAL.md` §7). Victim selection uses
//! the fingerprints as validity: an invalid-way mask and an LRU-rank mask
//! from one pass, the lowest invalid way first. Rank promotion works over
//! the set's `[u8; 16]`. Fingerprints are written on fill and cleared on
//! [`Tlb::resize`].
//!
//! Replacement is bit-for-bit identical to the previous timestamp-based
//! implementation: true per-set LRU with invalid ways (lowest index first)
//! preferred as victims. `tlb_reference_model.rs` checks it against a
//! naive timestamp-LRU model, including pages built to share one
//! fingerprint inside one set and streams cycling across sets.

use crate::cache::{promote, victim_way, way_mask, FlushReport};
use crate::config::{SizeLevel, NUM_SIZE_LEVELS};
use serde::{Deserialize, Serialize};

/// Associativity used to approximate the fully associative DTLB.
const WAYS: usize = 16;

/// `meta` bit 0: the entry holds a valid page number.
const VALID: u64 = 1;
/// `mru_key` value meaning "no memoized page" (a real key has VALID set).
const NO_MRU: u64 = 0;

/// TLB statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TlbStats {
    /// Total translations requested.
    pub accesses: u64,
    /// Translations that missed.
    pub misses: u64,
}

impl TlbStats {
    /// Miss ratio, or 0.0 when idle.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Counter difference `self - earlier`.
    ///
    /// Shares the snapshot-order contract of
    /// [`crate::MachineCounters::delta_since`]: debug builds panic on
    /// swapped snapshots, release builds wrap.
    pub fn delta_since(&self, earlier: &TlbStats) -> TlbStats {
        debug_assert!(
            self.accesses >= earlier.accesses && self.misses >= earlier.misses,
            "snapshot order reversed"
        );
        TlbStats {
            accesses: self.accesses.wrapping_sub(earlier.accesses),
            misses: self.misses.wrapping_sub(earlier.misses),
        }
    }
}

/// A set-associative TLB with LRU replacement.
///
/// # Examples
///
/// ```
/// use ace_sim::Tlb;
/// let mut tlb = Tlb::new(128, 4096);
/// assert!(!tlb.translate(0x1234)); // cold miss
/// assert!(tlb.translate(0x1ff0));  // same 4 KB page
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    /// The sets; only the first `sets` are in use below the largest level.
    pub(crate) table: Vec<TlbSet>,
    /// Memoized key (`page << 1 | VALID`) of the last translation.
    pub(crate) mru_key: u64,
    pub(crate) sets: u32,
    pub(crate) page_shift: u32,
    stats: TlbStats,
    /// Set count at the largest (baseline) size level.
    base_sets: u32,
    /// Current size level (level `k` powers `base_sets >> k` sets).
    level: SizeLevel,
    /// Totals settled per level at past resizes; the current level's
    /// share since the last resize lives only in `stats` (settled lazily
    /// so the translate hot path never pays for per-level attribution).
    level_stats: [TlbStats; NUM_SIZE_LEVELS],
    /// Snapshot of `stats` at the last resize (the settling mark).
    level_mark: TlbStats,
    /// Applied resizes, per level left.
    resizes: [u64; NUM_SIZE_LEVELS],
}

/// One 16-way set. The three arrays are fixed-size so every whole-set
/// kernel (fingerprint compare, victim masks, rank promotion) is a
/// constant-trip loop LLVM can vectorise.
#[derive(Debug, Clone)]
pub(crate) struct TlbSet {
    /// [`Tlb::fingerprint`] of each entry's page; 0 marks an invalid
    /// entry (a fingerprint is never 0).
    fp: [u16; WAYS],
    /// LRU rank per entry; a permutation of `0..WAYS` (0 = MRU).
    rank: [u8; WAYS],
    /// Packed per-entry metadata: `page << 1 | valid`.
    meta: [u64; WAYS],
    /// The way holding rank 0, the set's most recently used entry.
    mru: u8,
}

impl TlbSet {
    const EMPTY: TlbSet = TlbSet {
        fp: [0; WAYS],
        rank: {
            let mut r = [0u8; WAYS];
            let mut w = 0;
            while w < WAYS {
                r[w] = w as u8;
                w += 1;
            }
            r
        },
        meta: [0; WAYS],
        mru: 0,
    };
}

impl Tlb {
    /// Creates a TLB with `entries` slots over `page_bytes` pages.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a positive multiple of 16 with a
    /// power-of-two set count, or if `page_bytes` is not a power of two.
    pub fn new(entries: u32, page_bytes: u64) -> Tlb {
        assert!(
            entries > 0 && entries.is_multiple_of(WAYS as u32),
            "entries must be a multiple of 16"
        );
        let sets = entries / WAYS as u32;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(
            page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        Tlb {
            table: vec![TlbSet::EMPTY; sets as usize],
            mru_key: NO_MRU,
            sets,
            page_shift: page_bytes.trailing_zeros(),
            stats: TlbStats::default(),
            base_sets: sets,
            level: SizeLevel::LARGEST,
            level_stats: [TlbStats::default(); NUM_SIZE_LEVELS],
            level_mark: TlbStats::default(),
            resizes: [0; NUM_SIZE_LEVELS],
        }
    }

    /// Accumulated statistics.
    #[inline]
    pub fn stats(&self) -> &TlbStats {
        &self.stats
    }

    /// Current size level (the control register value when the TLB is a
    /// configurable unit).
    pub fn level(&self) -> SizeLevel {
        self.level
    }

    /// `true` if the geometry supports all [`NUM_SIZE_LEVELS`] levels
    /// (at least one set remains at the smallest level).
    pub fn supports_all_levels(&self) -> bool {
        (self.base_sets >> (NUM_SIZE_LEVELS - 1)) > 0
    }

    /// Per-level statistics, with the unsettled share since the last
    /// resize attributed to the current level on read.
    pub fn level_stats(&self) -> [TlbStats; NUM_SIZE_LEVELS] {
        let mut out = self.level_stats;
        let pending = self.stats.delta_since(&self.level_mark);
        let k = self.level.index();
        out[k].accesses += pending.accesses;
        out[k].misses += pending.misses;
        out
    }

    /// Applied resizes per level left.
    pub fn resizes(&self) -> &[u64; NUM_SIZE_LEVELS] {
        &self.resizes
    }

    /// Resizes to `level`, invalidating every entry (entries refill on
    /// demand, paying the miss penalty naturally — a TLB flush writes
    /// nothing back). Returns the flush report; `valid_lines` counts the
    /// entries that were resident.
    pub fn resize(&mut self, level: SizeLevel) -> FlushReport {
        let old = self.level.index();
        // Settle the running totals into the level that accumulated them.
        let pending = self.stats.delta_since(&self.level_mark);
        self.level_stats[old].accesses += pending.accesses;
        self.level_stats[old].misses += pending.misses;
        self.level_mark = self.stats;
        self.resizes[old] += 1;
        let valid = self
            .table
            .iter()
            .map(|set| way_mask(&set.fp, |f| f != 0).count_ones() as u64)
            .sum();
        self.table.fill(TlbSet::EMPTY);
        self.mru_key = NO_MRU;
        self.level = level;
        self.sets = self.base_sets >> level.index();
        debug_assert!(self.sets > 0, "TLB resized below one set");
        FlushReport {
            dirty_lines: 0,
            valid_lines: valid,
        }
    }

    /// Translates `addr`, returning `true` on a TLB hit.
    #[inline]
    pub fn translate(&mut self, addr: u64) -> bool {
        self.stats.accesses += 1;
        self.translate_uncounted(addr)
    }

    /// [`Tlb::translate`] without the per-reference access counter update.
    /// The block loop adds the block's reference count in one
    /// [`Tlb::bulk_count`] — per-level attribution is already lazy (it
    /// settles totals only at resize boundaries, which happen between
    /// blocks), so bulk counting leaves every observable statistic
    /// byte-identical. Misses are still counted here.
    #[inline]
    pub(crate) fn translate_uncounted(&mut self, addr: u64) -> bool {
        let page = addr >> self.page_shift;
        debug_assert!(page < 1 << 63, "page number too wide to pack");
        let key = (page << 1) | VALID;
        // Same page as the previous translation: already resident and MRU.
        if key == self.mru_key {
            return true;
        }
        let idx = ((page as u32) & (self.sets - 1)) as usize;
        let set = &mut self.table[idx];
        // The set's MRU entry: a hit whose promotion is the identity.
        if set.meta[set.mru as usize] == key {
            self.mru_key = key;
            return true;
        }
        let fp = Tlb::fingerprint(page);
        // Candidates are the ways whose fingerprint matches; verify each
        // against the full key. Distinct pages share a fingerprint with
        // probability 2^-16, so this loop almost never runs twice.
        let mut candidates = way_mask(&set.fp, |f| f == fp);
        while candidates != 0 {
            let way = candidates.trailing_zeros() as usize;
            if set.meta[way] == key {
                promote(&mut set.rank, way);
                set.mru = way as u8;
                self.mru_key = key;
                return true;
            }
            candidates &= candidates - 1;
        }
        self.miss(key, fp, idx)
    }

    /// The 16-bit fingerprint the probe compares before the full key: the
    /// top bits of a Fibonacci hash of the page number, so pages that
    /// share a set (equal low bits) still spread over the whole range.
    /// Never 0, which marks an invalid entry. Public so tests can build
    /// pages that collide inside one set.
    #[inline]
    pub fn fingerprint(page: u64) -> u16 {
        let f = (page.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48) as u16;
        f.max(1)
    }

    /// Adds a block's worth of translation counts. Pairs with
    /// [`Tlb::translate_uncounted`].
    #[inline]
    pub(crate) fn bulk_count(&mut self, accesses: u64) {
        self.stats.accesses += accesses;
    }

    /// Miss path: refills the lowest invalid way, else the LRU entry.
    #[cold]
    #[inline(never)]
    fn miss(&mut self, key: u64, fp: u16, idx: usize) -> bool {
        self.stats.misses += 1;
        let set = &mut self.table[idx];
        let way = victim_way(&set.fp, &set.rank, |f| f == 0);
        set.meta[way] = key;
        set.fp[way] = fp;
        promote(&mut set.rank, way);
        set.mru = way as u8;
        self.mru_key = key;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_granularity() {
        let mut t = Tlb::new(128, 4096);
        assert!(!t.translate(0));
        assert!(t.translate(4095));
        assert!(!t.translate(4096));
        assert_eq!(t.stats().accesses, 3);
        assert_eq!(t.stats().misses, 2);
    }

    #[test]
    fn capacity_eviction() {
        let mut t = Tlb::new(128, 4096);
        // Touch 256 distinct pages twice: second round must still miss
        // heavily because only 128 fit.
        for round in 0..2 {
            for p in 0..256u64 {
                t.translate(p * 4096);
            }
            if round == 0 {
                assert_eq!(t.stats().misses, 256);
            }
        }
        assert!(t.stats().misses > 256 + 200, "second round mostly misses");
    }

    #[test]
    fn small_working_set_stays_resident() {
        let mut t = Tlb::new(128, 4096);
        for _ in 0..4 {
            for p in 0..64u64 {
                t.translate(p * 4096);
            }
        }
        assert_eq!(t.stats().misses, 64, "64 pages fit in 128 entries");
    }

    #[test]
    fn repeated_page_served_by_memo_still_counts_accesses() {
        let mut t = Tlb::new(128, 4096);
        assert!(!t.translate(0x1000));
        for off in 0..8u64 {
            assert!(t.translate(0x1000 + off * 64));
        }
        assert_eq!(t.stats().accesses, 9);
        assert_eq!(t.stats().misses, 1);
    }

    #[test]
    fn delta_since() {
        let mut t = Tlb::new(128, 4096);
        t.translate(0);
        let snap = *t.stats();
        t.translate(0);
        t.translate(1 << 20);
        let d = t.stats().delta_since(&snap);
        assert_eq!(d.accesses, 2);
        assert_eq!(d.misses, 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "snapshot order reversed")]
    fn delta_since_rejects_swapped_snapshots_in_debug() {
        let mut t = Tlb::new(128, 4096);
        let earlier = *t.stats();
        t.translate(0);
        let later = *t.stats();
        let _ = earlier.delta_since(&later);
    }

    #[test]
    fn resize_invalidates_and_shrinks_reach() {
        let mut t = Tlb::new(128, 4096);
        for p in 0..64u64 {
            t.translate(p * 4096);
        }
        let report = t.resize(SizeLevel::SMALLEST);
        assert_eq!(report.valid_lines, 64, "64 resident entries flushed");
        assert_eq!(report.dirty_lines, 0, "a TLB flush writes nothing back");
        assert_eq!(t.level(), SizeLevel::SMALLEST);
        // After the flush everything misses again; at 16 entries a
        // 64-page working set now thrashes.
        let before = *t.stats();
        for _ in 0..3 {
            for p in 0..64u64 {
                t.translate(p * 4096);
            }
        }
        let d = t.stats().delta_since(&before);
        assert!(
            d.misses > 150,
            "64 pages cannot stay resident in 16 entries: {} misses",
            d.misses
        );
    }

    #[test]
    fn resize_forgets_each_sets_mru_way() {
        let mut t = Tlb::new(128, 4096);
        // Pages 1 and 2 sit in sets 1 and 2: alternating them misses the
        // one-page memo and hits each set's MRU way.
        for p in [1u64, 2, 1, 2] {
            t.translate(p << 12);
        }
        assert_eq!(t.stats().misses, 2);
        assert_eq!(t.table[1].meta[t.table[1].mru as usize], 1 << 1 | VALID);
        t.resize(SizeLevel::LARGEST);
        // Page 2 was its set's MRU entry; after the flush it must miss.
        assert!(!t.translate(2 << 12));
        assert!(!t.translate(1 << 12));
        assert_eq!(t.stats().misses, 4);
    }

    #[test]
    fn level_stats_settle_lazily() {
        let mut t = Tlb::new(128, 4096);
        t.translate(0);
        t.translate(4096);
        // Unsettled share is attributed to the current level on read.
        assert_eq!(t.level_stats()[0].accesses, 2);
        assert_eq!(t.level_stats()[0].misses, 2);
        t.resize(SizeLevel::new(2).unwrap());
        t.translate(0);
        let ls = t.level_stats();
        assert_eq!(ls[0].accesses, 2, "pre-resize share settled at level 0");
        assert_eq!(ls[2].accesses, 1);
        assert_eq!(ls[2].misses, 1);
        assert_eq!(t.resizes()[0], 1);
        // Totals are unchanged by attribution.
        assert_eq!(t.stats().accesses, 3);
    }

    #[test]
    fn four_level_ladder_supported_at_128_entries() {
        let t = Tlb::new(128, 4096);
        assert!(t.supports_all_levels());
        let small = Tlb::new(64, 4096);
        assert!(!small.supports_all_levels());
    }
}
