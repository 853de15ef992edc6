//! Differential testing of the cache against a naive reference model.

use ace_sim::{Cache, CacheGeometry, SizeLevel};
use proptest::prelude::*;
use std::collections::VecDeque;

/// A deliberately naive set-associative LRU cache: per-set recency queues
/// of line addresses, no statistics, no cleverness.
struct ReferenceCache {
    sets: Vec<VecDeque<(u64, bool)>>, // (line_addr, dirty), front = MRU
    ways: usize,
    offset_bits: u32,
}

impl ReferenceCache {
    fn new(geom: CacheGeometry, level: SizeLevel) -> ReferenceCache {
        ReferenceCache {
            sets: vec![VecDeque::new(); geom.sets_at(level) as usize],
            ways: geom.ways as usize,
            offset_bits: geom.block_bytes.trailing_zeros(),
        }
    }

    /// Returns (hit, dirty_writeback_line).
    fn access(&mut self, addr: u64, is_store: bool) -> (bool, Option<u64>) {
        let line = addr >> self.offset_bits;
        let set_idx = (line as usize) & (self.sets.len() - 1);
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|&(l, _)| l == line) {
            let (l, dirty) = set.remove(pos).unwrap();
            set.push_front((l, dirty || is_store));
            return (true, None);
        }
        let mut writeback = None;
        if set.len() == self.ways {
            let (victim, dirty) = set.pop_back().unwrap();
            if dirty {
                writeback = Some(victim << self.offset_bits);
            }
        }
        set.push_front((line, is_store));
        (false, writeback)
    }

    /// Selective-sets resize to `new_sets` sets: shrinking drops the upper
    /// sets, growing drops each line whose index changes. Survivors keep
    /// their recency order. Returns (valid, dirty) casualties.
    fn resize(&mut self, new_sets: usize) -> (u64, u64) {
        let mut valid = 0;
        let mut dirty = 0;
        let mut drop = |(_, d): (u64, bool)| {
            valid += 1;
            dirty += d as u64;
        };
        if new_sets < self.sets.len() {
            self.sets.drain(new_sets..).flatten().for_each(&mut drop);
        } else {
            for (idx, set) in self.sets.iter_mut().enumerate() {
                let (stay, go): (VecDeque<_>, VecDeque<_>) = set
                    .drain(..)
                    .partition(|&(l, _)| (l as usize) & (new_sets - 1) == idx);
                *set = stay;
                go.into_iter().for_each(&mut drop);
            }
            self.sets.resize(new_sets, VecDeque::new());
        }
        (valid, dirty)
    }
}

fn geom() -> CacheGeometry {
    CacheGeometry {
        size_bytes: 4 * 1024,
        ways: 2,
        block_bytes: 64,
        hit_latency: 1,
    }
}

/// The L2's shape (Table 2: 4 ways, 128 B lines) at 16 KB.
fn l2_geom() -> CacheGeometry {
    CacheGeometry {
        size_bytes: 16 * 1024,
        ways: 4,
        block_bytes: 128,
        hit_latency: 10,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The production cache and the reference model agree on every hit,
    /// miss, and dirty writeback for arbitrary access sequences.
    #[test]
    fn cache_matches_reference_model(
        ops in prop::collection::vec((0u64..1u64<<16, any::<bool>()), 1..600),
    ) {
        let mut cache = Cache::new(geom()).unwrap();
        let mut reference = ReferenceCache::new(geom(), SizeLevel::LARGEST);
        for &(addr, is_store) in &ops {
            let out = cache.access(addr, is_store);
            let (ref_hit, ref_wb) = reference.access(addr, is_store);
            prop_assert_eq!(out.hit, ref_hit, "hit mismatch at {:#x}", addr);
            prop_assert_eq!(out.writeback, ref_wb, "writeback mismatch at {:#x}", addr);
        }
    }

    /// Agreement also holds when operating at a smaller size level.
    #[test]
    fn shrunk_cache_matches_reference_model(
        level in 1u8..4,
        ops in prop::collection::vec((0u64..1u64<<16, any::<bool>()), 1..400),
    ) {
        let level = SizeLevel::new(level).unwrap();
        let mut cache = Cache::new(geom()).unwrap();
        cache.resize(level);
        let mut reference = ReferenceCache::new(geom(), level);
        for &(addr, is_store) in &ops {
            let out = cache.access(addr, is_store);
            let (ref_hit, ref_wb) = reference.access(addr, is_store);
            prop_assert_eq!(out.hit, ref_hit);
            prop_assert_eq!(out.writeback, ref_wb);
        }
    }

    /// At the L2's shape, random miss-dominated streams (8x the capacity)
    /// interleaved with shrinks and grows agree on every hit, writeback
    /// and resize casualty. Grows leave sets mixing invalid and valid
    /// ways, so the victim select must prefer the lowest invalid way.
    #[test]
    fn l2_geometry_matches_reference_across_shrink_and_grow(
        segments in prop::collection::vec(
            (0u8..4, prop::collection::vec((0u64..1u64<<17, any::<bool>()), 1..200)),
            1..10,
        ),
    ) {
        let geom = l2_geom();
        let mut cache = Cache::new(geom).unwrap();
        let mut reference = ReferenceCache::new(geom, SizeLevel::LARGEST);
        for (lvl, ops) in &segments {
            let level = SizeLevel::new(*lvl).unwrap();
            if level != cache.level() {
                let report = cache.resize(level);
                let (valid, dirty) = reference.resize(geom.sets_at(level) as usize);
                prop_assert_eq!(report.valid_lines, valid, "resize valid casualties");
                prop_assert_eq!(report.dirty_lines, dirty, "resize dirty casualties");
            }
            for &(addr, is_store) in ops {
                let out = cache.access(addr, is_store);
                let (ref_hit, ref_wb) = reference.access(addr, is_store);
                prop_assert_eq!(out.hit, ref_hit, "hit mismatch at {:#x}", addr);
                prop_assert_eq!(out.writeback, ref_wb, "writeback mismatch at {:#x}", addr);
            }
        }
        prop_assert_eq!(cache.valid_lines(), reference.sets.iter().map(|s| s.len() as u64).sum::<u64>());
    }
}

#[test]
fn reference_model_sanity() {
    // Guard against the oracle itself being wrong: a 2-way set must evict
    // the least recently used line.
    let mut r = ReferenceCache::new(geom(), SizeLevel::LARGEST);
    let stride = 64 * 32; // same-set stride at 32 sets
    assert!(!r.access(0, false).0);
    assert!(!r.access(stride, true).0);
    assert!(r.access(0, false).0);
    let (hit, wb) = r.access(2 * stride, false);
    assert!(!hit);
    assert_eq!(wb, Some(stride), "dirty LRU victim written back");
}
