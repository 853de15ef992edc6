//! Old-vs-new LRU equivalence: differential proptests of the rank-based
//! replacement policy against a faithful re-implementation of the
//! pre-rewrite scheme (array-of-structs lines, monotonic u64 tick,
//! scan-for-minimum victim search).
//!
//! The production `Cache` now keeps per-line recency as a rank byte
//! (0 = MRU .. ways-1 = LRU) instead of a timestamp. The two schemes are
//! provably equivalent — ticks are unique among valid lines, so the rank
//! permutation is exactly the tick order — but that proof is easy to
//! silently invalidate in a future edit (e.g. promoting on the wrong
//! side of an invalidation). These tests keep the old scheme around as
//! an executable oracle, including resize and flush transitions where
//! stale ranks on invalidated ways are the subtle case.

use ace_sim::{Cache, CacheGeometry, SizeLevel};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// The pre-rewrite cache: one struct per line, u64 LRU ticks, linear
/// victim scan preferring the first invalid way, else the minimum tick.
struct TickCache {
    lines: Vec<TickLine>,
    sets: u32,
    ways: usize,
    offset_bits: u32,
    tick: u64,
    geom: CacheGeometry,
}

#[derive(Clone, Copy, Default)]
struct TickLine {
    tag: u64,
    lru: u64,
    valid: bool,
    dirty: bool,
}

impl TickCache {
    fn new(geom: CacheGeometry) -> TickCache {
        TickCache {
            lines: vec![TickLine::default(); (geom.max_sets() * geom.ways) as usize],
            sets: geom.max_sets(),
            ways: geom.ways as usize,
            offset_bits: geom.block_bytes.trailing_zeros(),
            tick: 0,
            geom,
        }
    }

    /// Returns (hit, dirty_writeback_addr).
    fn access(&mut self, addr: u64, is_store: bool) -> (bool, Option<u64>) {
        self.tick += 1;
        let line = addr >> self.offset_bits;
        let set = (line as u32) & (self.sets - 1);
        let base = set as usize * self.ways;
        for w in 0..self.ways {
            let l = &mut self.lines[base + w];
            if l.valid && l.tag == line {
                l.lru = self.tick;
                l.dirty |= is_store;
                return (true, None);
            }
        }
        let mut victim = 0usize;
        let mut best = u64::MAX;
        for w in 0..self.ways {
            let l = &self.lines[base + w];
            if !l.valid {
                victim = w;
                break;
            }
            if l.lru < best {
                best = l.lru;
                victim = w;
            }
        }
        let v = &mut self.lines[base + victim];
        let writeback = if v.valid && v.dirty {
            Some(v.tag << self.offset_bits)
        } else {
            None
        };
        *v = TickLine {
            tag: line,
            lru: self.tick,
            valid: true,
            dirty: is_store,
        };
        (false, writeback)
    }

    /// Selective-sets resize; returns (valid_casualties, dirty_casualties).
    fn resize(&mut self, old_level: SizeLevel, new_level: SizeLevel) -> (u64, u64) {
        let old_sets = self.geom.sets_at(old_level);
        let new_sets = self.geom.sets_at(new_level);
        let mut valid = 0;
        let mut dirty = 0;
        if new_sets < old_sets {
            for set in new_sets..old_sets {
                for w in 0..self.ways {
                    let l = &mut self.lines[set as usize * self.ways + w];
                    if l.valid {
                        valid += 1;
                        dirty += l.dirty as u64;
                    }
                    *l = TickLine {
                        lru: l.lru,
                        ..TickLine::default()
                    };
                }
            }
        } else {
            let new_mask = (new_sets - 1) as u64;
            for set in 0..old_sets as u64 {
                for w in 0..self.ways {
                    let l = &mut self.lines[set as usize * self.ways + w];
                    if l.valid && (l.tag & new_mask) != set {
                        valid += 1;
                        dirty += l.dirty as u64;
                        *l = TickLine {
                            lru: l.lru,
                            ..TickLine::default()
                        };
                    }
                }
            }
        }
        self.sets = new_sets;
        (valid, dirty)
    }
}

fn geom() -> CacheGeometry {
    CacheGeometry {
        size_bytes: 4 * 1024,
        ways: 4,
        block_bytes: 64,
        hit_latency: 1,
    }
}

/// The L2's shape (Table 2: 4 ways, 128 B lines) at 16 KB, so short
/// random streams over 128 KB are miss-dominated.
fn l2_geom() -> CacheGeometry {
    CacheGeometry {
        size_bytes: 16 * 1024,
        ways: 4,
        block_bytes: 128,
        hit_latency: 10,
    }
}

/// 8 ways: an associativity the cache runs with the way count as a
/// runtime value rather than a constant.
fn eight_way_geom() -> CacheGeometry {
    CacheGeometry {
        size_bytes: 4 * 1024,
        ways: 8,
        block_bytes: 64,
        hit_latency: 1,
    }
}

/// Runs `segments` — (target level, accesses) — through both caches,
/// resizing between segments, and asserts identical hits, writebacks and
/// resize casualties.
fn check_segments(
    geom: CacheGeometry,
    segments: &[(u8, Vec<(u64, bool)>)],
) -> Result<(), TestCaseError> {
    let mut new = Cache::new(geom).unwrap();
    let mut old = TickCache::new(geom);
    let mut level = SizeLevel::LARGEST;
    for (lvl, ops) in segments {
        let target = SizeLevel::new(*lvl).unwrap();
        if target != level {
            let report = new.resize(target);
            let (valid, dirty) = old.resize(level, target);
            prop_assert_eq!(report.valid_lines, valid, "resize valid casualties");
            prop_assert_eq!(report.dirty_lines, dirty, "resize dirty casualties");
            level = target;
        }
        for &(addr, is_store) in ops {
            let out = new.access(addr, is_store);
            let (hit, wb) = old.access(addr, is_store);
            prop_assert_eq!(out.hit, hit, "hit mismatch at {:#x}", addr);
            prop_assert_eq!(out.writeback, wb, "writeback mismatch at {:#x}", addr);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Rank-based and tick-based LRU pick identical victims (observable
    /// through hits and dirty writeback addresses) on random streams.
    #[test]
    fn rank_lru_matches_tick_lru(
        ops in prop::collection::vec((0u64..1u64<<14, any::<bool>()), 1..800),
    ) {
        check_segments(geom(), &[(0, ops)])?;
    }

    /// Equivalence survives resize transitions interleaved with accesses —
    /// the case where ranks of invalidated ways go stale.
    #[test]
    fn rank_lru_matches_tick_lru_across_resizes(
        segments in prop::collection::vec(
            (0u8..4, prop::collection::vec((0u64..1u64<<14, any::<bool>()), 1..120)),
            1..8,
        ),
    ) {
        check_segments(geom(), &segments)?;
    }

    /// The same at the L2's shape on miss-dominated streams (8x the
    /// capacity) between shrinks and grows: growing leaves sets that mix
    /// invalid and valid ways, where the victim must be the lowest invalid
    /// way rather than the LRU.
    #[test]
    fn rank_lru_matches_tick_lru_at_l2_geometry(
        segments in prop::collection::vec(
            (0u8..4, prop::collection::vec((0u64..1u64<<17, any::<bool>()), 1..200)),
            1..10,
        ),
    ) {
        check_segments(l2_geom(), &segments)?;
    }

    /// The same for the runtime-associativity probe and victim select.
    #[test]
    fn rank_lru_matches_tick_lru_at_eight_ways(
        segments in prop::collection::vec(
            (0u8..4, prop::collection::vec((0u64..1u64<<15, any::<bool>()), 1..200)),
            1..10,
        ),
    ) {
        check_segments(eight_way_geom(), &segments)?;
    }
}

#[test]
fn oracle_sanity_lru_victim() {
    // Guard against the oracle itself being wrong: with 4 ways, filling a
    // set then touching three lines must evict the untouched one.
    let g = geom();
    let mut old = TickCache::new(g);
    let stride = 64 * g.max_sets() as u64;
    for i in 0..4 {
        old.access(i * stride, i == 1); // dirty the line that will be LRU
    }
    for i in [0u64, 2, 3] {
        assert!(old.access(i * stride, false).0);
    }
    let (hit, wb) = old.access(4 * stride, false);
    assert!(!hit);
    assert_eq!(wb, Some(stride), "untouched dirty line is the victim");
}
