//! The simulator's input model: a stream of *basic-block events*.
//!
//! The original system executed PowerPC binaries under Dynamic SimpleScalar.
//! Our substitute consumes an abstract dynamic stream in which each event is
//! one basic block: an instruction count, the data accesses the block
//! performs, and the conditional branch that terminates it. This carries
//! exactly the information the evaluation needs — instruction counts, memory
//! reference streams and branch outcomes — without modeling ISA semantics.

use serde::{Deserialize, Serialize};

/// One data memory reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemAccess {
    /// Byte address of the reference.
    pub addr: u64,
    /// `true` for a store, `false` for a load.
    pub is_store: bool,
}

impl MemAccess {
    /// A load from `addr`.
    pub fn load(addr: u64) -> MemAccess {
        MemAccess {
            addr,
            is_store: false,
        }
    }

    /// A store to `addr`.
    pub fn store(addr: u64) -> MemAccess {
        MemAccess {
            addr,
            is_store: true,
        }
    }
}

/// The conditional branch terminating a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BranchEvent {
    /// Address of the branch instruction; indexes predictor tables and the
    /// BBV accumulator.
    pub pc: u64,
    /// Dynamic outcome.
    pub taken: bool,
}

/// One dynamic basic block.
///
/// `Block` is designed for reuse: the producer clears and refills one buffer
/// per event (see [`Block::reset`]) so the hot simulation loop performs no
/// allocation in steady state.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Block {
    /// Address of the first instruction of the block.
    pub pc: u64,
    /// Number of instructions in the block (including the branch, if any).
    pub ninstr: u32,
    /// Data references performed by the block, in program order.
    pub accesses: Vec<MemAccess>,
    /// Terminating conditional branch, if the block ends in one.
    pub branch: Option<BranchEvent>,
}

impl Block {
    /// Creates an empty block with capacity for `cap` accesses.
    pub fn with_capacity(cap: usize) -> Block {
        Block {
            pc: 0,
            ninstr: 0,
            accesses: Vec::with_capacity(cap),
            branch: None,
        }
    }

    /// Clears the block for reuse, retaining the access buffer's capacity.
    pub fn reset(&mut self) {
        self.pc = 0;
        self.ninstr = 0;
        self.accesses.clear();
        self.branch = None;
    }

    /// `true` if the block contains no instructions.
    pub fn is_empty(&self) -> bool {
        self.ninstr == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_reset_retains_capacity() {
        let mut b = Block::with_capacity(32);
        b.accesses.extend((0..20).map(MemAccess::load));
        b.ninstr = 20;
        let cap = b.accesses.capacity();
        b.reset();
        assert!(b.is_empty());
        assert_eq!(b.accesses.capacity(), cap);
        assert!(b.branch.is_none());
    }

    #[test]
    fn mem_access_constructors() {
        assert!(!MemAccess::load(8).is_store);
        assert!(MemAccess::store(8).is_store);
    }
}
