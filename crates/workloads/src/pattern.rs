//! Memory and branch behavior descriptors.
//!
//! Every `Compute` statement references a [`MemPattern`] describing how the
//! computation touches memory and how predictable its branches are. The
//! pattern — not an ISA — is what determines cache/TLB/predictor behavior,
//! which is all the evaluation observes.

use serde::{Deserialize, Serialize};

/// Identifies a [`MemPattern`] within a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PatternId(pub u32);

/// How the address cursor walks the pattern's working set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Walk {
    /// Wraps around the working set with a fixed stride; high spatial
    /// locality, strong reuse once the set fits in cache.
    Strided {
        /// Bytes between consecutive accesses.
        stride: u32,
    },
    /// Uniformly random within the working set; reuse only if the whole set
    /// fits in cache.
    Random,
    /// Walks a large region with a fixed stride, wrapping at
    /// `working_set` exactly like `Strided`; over a region much larger
    /// than the caches this streams, with no temporal reuse before the
    /// wrap.
    Streaming {
        /// Bytes between consecutive accesses.
        stride: u32,
    },
    /// Skewed random access: most references go to a hot core at the start
    /// of the working set, the rest uniformly over the whole set. This is
    /// the graceful, Zipf-like locality of real data structures — capacity
    /// misses grow smoothly as the cache shrinks below the working set.
    Skewed {
        /// Percent of the working set forming the hot core.
        hot_bytes_pct: u32,
        /// Percent of references that hit the hot core.
        hot_refs_pct: u32,
    },
}

/// A parameterized memory/branch behavior.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MemPattern {
    /// Base byte address of the pattern's data region.
    pub base: u64,
    /// Bytes of the region the walk covers (the working set for
    /// `Strided`/`Random`; the full region for `Streaming`).
    pub working_set: u64,
    /// How addresses advance.
    pub walk: Walk,
    /// Memory references per 1000 instructions (e.g. 300 = 30% mem ops).
    pub refs_per_kinstr: u32,
    /// Percent of references that are stores.
    pub store_pct: u32,
    /// Percent probability that the terminating branch of a block is taken.
    /// Values near 0 or 100 are highly predictable; near 50 defeats the
    /// predictor.
    pub taken_pct: u32,
    /// Mean block length in instructions (jittered ±50% per block).
    pub block_len: u32,
    /// Reset the walk cursor each time the owning method is entered
    /// (per-invocation temporal reuse) instead of continuing where the last
    /// invocation stopped.
    pub reset_on_entry: bool,
}

impl MemPattern {
    /// A resident working-set pattern: strided walk over `working_set`
    /// bytes starting at `base`, 30% memory ops, mostly-taken branches.
    pub fn resident(base: u64, working_set: u64) -> MemPattern {
        MemPattern {
            base,
            working_set,
            walk: Walk::Strided { stride: 24 },
            refs_per_kinstr: 300,
            store_pct: 25,
            taken_pct: 92,
            block_len: 48,
            reset_on_entry: true,
        }
    }

    /// A streaming pattern over a large region (no temporal reuse).
    pub fn streaming(base: u64, region: u64) -> MemPattern {
        MemPattern {
            base,
            working_set: region,
            walk: Walk::Streaming { stride: 32 },
            refs_per_kinstr: 250,
            store_pct: 20,
            taken_pct: 95,
            block_len: 64,
            reset_on_entry: false,
        }
    }

    /// A pointer-chasing style pattern: random within `working_set`.
    pub fn random(base: u64, working_set: u64) -> MemPattern {
        MemPattern {
            base,
            working_set,
            walk: Walk::Random,
            refs_per_kinstr: 350,
            store_pct: 15,
            taken_pct: 70,
            block_len: 32,
            reset_on_entry: true,
        }
    }

    /// A skewed (hot-core) pattern: 75% of references to the first 25% of
    /// `working_set`.
    pub fn skewed(base: u64, working_set: u64) -> MemPattern {
        MemPattern {
            base,
            working_set,
            walk: Walk::Skewed {
                hot_bytes_pct: 25,
                hot_refs_pct: 75,
            },
            refs_per_kinstr: 300,
            store_pct: 20,
            taken_pct: 90,
            block_len: 48,
            reset_on_entry: true,
        }
    }

    /// Validates the pattern's parameters.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first invalid field.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.working_set == 0 {
            return Err("working set must be nonzero");
        }
        if self.refs_per_kinstr > 1000 {
            return Err("at most one memory reference per instruction");
        }
        if self.store_pct > 100 || self.taken_pct > 100 {
            return Err("percentages must be at most 100");
        }
        if self.block_len == 0 {
            return Err("block length must be nonzero");
        }
        match self.walk {
            Walk::Strided { stride } | Walk::Streaming { stride } if stride == 0 => {
                Err("stride must be nonzero")
            }
            Walk::Skewed {
                hot_bytes_pct,
                hot_refs_pct,
            } if hot_bytes_pct == 0 || hot_bytes_pct > 100 || hot_refs_pct > 100 => {
                Err("skew percentages must be in range")
            }
            _ => Ok(()),
        }
    }
}

/// Mutable per-pattern cursor state owned by the executor.
#[derive(Debug, Clone, Copy, Default)]
pub struct PatternCursor {
    /// Sequential position within the working set (bytes).
    pub pos: u64,
    /// Fractional memory references not yet emitted (milli-refs).
    pub ref_residue: u64,
}

impl PatternCursor {
    /// Resets the walk position (used for `reset_on_entry` patterns).
    pub fn reset(&mut self) {
        self.pos = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_validate() {
        MemPattern::resident(0x1000, 4096).validate().unwrap();
        MemPattern::streaming(0x1000, 1 << 20).validate().unwrap();
        MemPattern::random(0x1000, 8192).validate().unwrap();
    }

    #[test]
    fn invalid_patterns_rejected() {
        let mut p = MemPattern::resident(0, 4096);
        p.working_set = 0;
        assert_eq!(p.validate(), Err("working set must be nonzero"));

        let mut p = MemPattern::resident(0, 4096);
        p.refs_per_kinstr = 1500;
        assert!(p.validate().is_err());

        let mut p = MemPattern::resident(0, 4096);
        p.taken_pct = 101;
        assert!(p.validate().is_err());

        let mut p = MemPattern::resident(0, 4096);
        p.walk = Walk::Strided { stride: 0 };
        assert!(p.validate().is_err());

        let mut p = MemPattern::resident(0, 4096);
        p.block_len = 0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn cursor_reset() {
        let mut c = PatternCursor {
            pos: 100,
            ref_residue: 7,
        };
        c.reset();
        assert_eq!(c.pos, 0);
        assert_eq!(c.ref_residue, 7, "residue survives reset");
    }
}
