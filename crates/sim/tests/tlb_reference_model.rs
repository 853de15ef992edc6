//! Differential testing of the DTLB against a naive reference model.
//!
//! The production `Tlb` probes a set by comparing 16-bit page
//! fingerprints and verifying each candidate against the full key, picks
//! victims from invalid-way and LRU-rank bitmasks, and settles per-level
//! statistics lazily at resizes. The model below does none of that: each
//! of its 8 sets is a list of at most 16 `(page, last-use tick)` pairs,
//! a miss in a full set evicts the smallest tick, and every statistic is
//! counted eagerly at the current level. Streams mix random pages with
//! pages built to share one fingerprint inside one set, so the candidate
//! verification loop meets several candidates, and resize to all four
//! levels. Further streams cycle among pages in two or three sets, so
//! consecutive translations miss the one-page memo but find their page in
//! its set's MRU way, with conflicting pages in the same sets moving that
//! way.

use ace_sim::{SizeLevel, Tlb};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::sync::OnceLock;

const ENTRIES: u32 = 128;
const WAYS: usize = 16;
const BASE_SETS: u64 = 8;
const PAGE_SHIFT: u32 = 12;

/// Timestamp-LRU reference: per set, (page, tick of last use).
struct ModelTlb {
    sets: Vec<Vec<(u64, u64)>>,
    level: usize,
    tick: u64,
    accesses: u64,
    misses: u64,
    level_stats: [(u64, u64); 4],
    resizes: [u64; 4],
}

impl ModelTlb {
    fn new() -> ModelTlb {
        ModelTlb {
            sets: vec![Vec::new(); BASE_SETS as usize],
            level: 0,
            tick: 0,
            accesses: 0,
            misses: 0,
            level_stats: [(0, 0); 4],
            resizes: [0; 4],
        }
    }

    fn translate(&mut self, addr: u64) -> bool {
        self.tick += 1;
        self.accesses += 1;
        self.level_stats[self.level].0 += 1;
        let page = addr >> PAGE_SHIFT;
        let n = self.sets.len() as u64;
        let set = &mut self.sets[(page % n) as usize];
        if let Some(entry) = set.iter_mut().find(|(p, _)| *p == page) {
            entry.1 = self.tick;
            return true;
        }
        self.misses += 1;
        self.level_stats[self.level].1 += 1;
        if set.len() == WAYS {
            let lru = (0..WAYS).min_by_key(|&i| set[i].1).unwrap();
            set.remove(lru);
        }
        set.push((page, self.tick));
        false
    }

    /// Flushes every entry and moves to `level`; returns the entries that
    /// were resident.
    fn resize(&mut self, level: usize) -> u64 {
        let valid = self.sets.iter().map(|s| s.len() as u64).sum();
        self.resizes[self.level] += 1;
        self.level = level;
        self.sets = vec![Vec::new(); (BASE_SETS >> level) as usize];
        valid
    }
}

/// `count` pages that all fall in set `set` (at every level: the set index
/// is the page's low bits) and share one fingerprint.
fn colliding_pages(set: u64, count: usize) -> Vec<u64> {
    let target = Tlb::fingerprint(set);
    let pages: Vec<u64> = (0u64..)
        .map(|k| set + k * BASE_SETS)
        .filter(|&p| Tlb::fingerprint(p) == target)
        .take(count)
        .collect();
    assert!(pages.iter().all(|&p| p % BASE_SETS == set));
    pages
}

/// The adversarial pool: 20 same-fingerprint pages in set 3 (more than a
/// set holds) and 6 in set 6. Built once: finding them scans millions of
/// pages.
fn adversarial_pool() -> &'static [u64] {
    static POOL: OnceLock<Vec<u64>> = OnceLock::new();
    POOL.get_or_init(|| {
        let mut pool = colliding_pages(3, 20);
        pool.extend(colliding_pages(6, 6));
        pool
    })
}

/// Runs `ops` through both TLBs, asserting equal observable behaviour
/// after every operation. An op `(kind, value)` resizes to level
/// `value % 4` when `kind == 0`, translates a page from the adversarial
/// pool when `kind` is odd, and a random page among 512 otherwise.
fn check(pool: &[u64], ops: &[(u8, u64)]) -> Result<(), TestCaseError> {
    let mut tlb = Tlb::new(ENTRIES, 1 << PAGE_SHIFT);
    let mut model = ModelTlb::new();
    for &(kind, value) in ops {
        if kind == 0 {
            let level = (value % 4) as usize;
            let report = tlb.resize(SizeLevel::new(level as u8).unwrap());
            let valid = model.resize(level);
            prop_assert_eq!(report.valid_lines, valid, "resident entries flushed");
            prop_assert_eq!(report.dirty_lines, 0);
            continue;
        }
        let page = if kind % 2 == 1 {
            pool[(value % pool.len() as u64) as usize]
        } else {
            value % 512
        };
        // Any offset within the page translates the same.
        let addr = (page << PAGE_SHIFT) | (value & 0xFFF);
        prop_assert_eq!(
            tlb.translate(addr),
            model.translate(addr),
            "hit/miss of page {:#x}",
            page
        );
        prop_assert_eq!(tlb.stats().accesses, model.accesses);
        prop_assert_eq!(tlb.stats().misses, model.misses);
    }
    let levels: Vec<(u64, u64)> = tlb
        .level_stats()
        .iter()
        .map(|s| (s.accesses, s.misses))
        .collect();
    prop_assert_eq!(
        &levels[..],
        &model.level_stats[..],
        "per-level (accesses, misses)"
    );
    prop_assert_eq!(tlb.resizes(), &model.resizes);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Per-translate hit/miss, totals, per-level statistics and resize
    /// counts agree with the model on mixed random and adversarial page
    /// streams with resizes to every level.
    #[test]
    fn tlb_matches_timestamp_lru_model(
        ops in prop::collection::vec((0u8..12, any::<u64>()), 1..1500),
    ) {
        check(adversarial_pool(), &ops)?;
    }

    /// The same on streams that cycle among one page in each of 2-3 sets
    /// (hits served by each set's MRU way, not the one-page memo),
    /// interleaved with resizes and with bursts of up to 48 distinct pages
    /// drawn from 64 conflicting pages per set (more than a set holds, so
    /// the MRU way moves and the LRU order decides who survives a burst).
    #[test]
    fn tlb_matches_model_when_cycling_across_sets(
        nsets in 2usize..4,
        first in 0..BASE_SETS,
        ops in prop::collection::vec((0u8..20, any::<u64>()), 1..800),
    ) {
        let sets: Vec<u64> = [0, 1, 3][..nsets]
            .iter()
            .map(|d| (first + d) % BASE_SETS)
            .collect();
        // Pool: the cycled page of each set first, then the conflicts.
        let mut pool = sets.clone();
        for k in 1..=64 {
            pool.extend(sets.iter().map(|s| s + k * BASE_SETS));
        }
        let cycled = nsets as u64;
        let conflicts = pool.len() as u64 - cycled;
        let mut next = 0;
        let ops: Vec<(u8, u64)> = ops
            .into_iter()
            .flat_map(|(kind, value)| match kind {
                0 => vec![(0, value)],
                1..=13 => {
                    next += 1;
                    vec![(1, next % cycled)]
                }
                _ => {
                    let burst = 1 + (value >> 32) % 48;
                    (0..burst)
                        .map(|i| (1, cycled + (value % conflicts + i) % conflicts))
                        .collect()
                }
            })
            .collect();
        check(&pool, &ops)?;
    }

    /// The same on streams drawn only from the colliding pages: every
    /// probe of set 3 meets up to 16 candidates, and the set thrashes.
    #[test]
    fn tlb_matches_model_on_fingerprint_collisions(
        ops in prop::collection::vec((0u8..40, any::<u64>()), 1..800),
    ) {
        let ops: Vec<(u8, u64)> = ops
            .into_iter()
            .map(|(kind, value)| (kind.min(1), value))
            .collect();
        check(adversarial_pool(), &ops)?;
    }
}

#[test]
fn full_set_of_one_fingerprint_keeps_exact_lru() {
    // 16 resident pages with one fingerprint in one set: each hit must be
    // found by full-key verification among 16 candidates, and the 17th
    // page must evict the least recently used of them.
    let pages = colliding_pages(3, 17);
    let mut tlb = Tlb::new(ENTRIES, 1 << PAGE_SHIFT);
    let mut model = ModelTlb::new();
    for &p in &pages[..16] {
        assert!(!tlb.translate(p << PAGE_SHIFT));
        model.translate(p << PAGE_SHIFT);
    }
    // Touch all but pages[5] again, in reverse: pages[5] becomes LRU.
    for (i, &p) in pages[..16].iter().enumerate().rev() {
        if i != 5 {
            assert!(tlb.translate(p << PAGE_SHIFT), "page {i} resident");
            model.translate(p << PAGE_SHIFT);
        }
    }
    assert!(!tlb.translate(pages[16] << PAGE_SHIFT));
    assert!(!model.translate(pages[16] << PAGE_SHIFT));
    assert!(!tlb.translate(pages[5] << PAGE_SHIFT), "LRU page evicted");
    assert!(!model.translate(pages[5] << PAGE_SHIFT));
    assert_eq!(tlb.stats().misses, model.misses);
}

#[test]
fn model_sanity() {
    // Guard against the oracle itself being wrong: 17 pages in one set
    // evict the first, and a resize flushes everything.
    let mut m = ModelTlb::new();
    for p in 0..17u64 {
        assert!(!m.translate((p * BASE_SETS) << PAGE_SHIFT));
    }
    assert!(!m.translate(0), "page 0 was the LRU victim");
    assert!(m.translate((16 * BASE_SETS) << PAGE_SHIFT));
    assert_eq!(m.resize(3), 16);
    assert_eq!(m.sets.len(), 1);
    assert_eq!(m.level_stats[0], (19, 18));
}
