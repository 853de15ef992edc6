//! Program execution: turns a [`Program`] into a dynamic block stream.
//!
//! The executor is an explicit-stack interpreter over the compiled opcode
//! form. Besides blocks, it surfaces **method enter/exit events** — the
//! hooks the dynamic optimization system instruments (invocation counting,
//! tuning code at hotspot entries, profiling code at exits). Iteration
//! counts and compute lengths are jittered deterministically so different
//! invocations of the same method vary the way real hotspot invocations do
//! (the per-hotspot IPC CoV of Table 5).

use crate::ir::{MethodId, Op, Program};
use crate::pattern::{PatternCursor, PatternId, Walk};
use crate::rng::DetRng;
use ace_sim::{Block, BranchEvent, MemAccess};

/// Maximum loop nesting depth within a single method body.
pub const MAX_LOOP_DEPTH: usize = 8;

/// Maximum call depth.
pub const MAX_CALL_DEPTH: usize = 128;

/// Percent jitter applied to compute lengths and loop iteration counts.
const SIZE_JITTER_PCT: u32 = 5;

/// One step of execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// A method was entered (its first block has not run yet).
    Enter(MethodId),
    /// A method was exited.
    Exit(MethodId),
    /// A dynamic block was produced into the caller's buffer.
    Block,
    /// The program (or the instruction limit) has finished; no more events.
    Done,
}

#[derive(Debug, Clone, Copy)]
struct LoopState {
    start_ip: u32,
    remaining: u32,
}

#[derive(Debug, Clone)]
struct Frame {
    method: MethodId,
    ip: u32,
    loops: [LoopState; MAX_LOOP_DEPTH],
    loop_depth: u8,
    compute_left: u64,
    pattern: PatternId,
    blk: u32,
}

impl Frame {
    fn new(method: MethodId) -> Frame {
        Frame {
            method,
            ip: 0,
            loops: [LoopState {
                start_ip: 0,
                remaining: 0,
            }; MAX_LOOP_DEPTH],
            loop_depth: 0,
            compute_left: 0,
            pattern: PatternId(0),
            blk: 0,
        }
    }
}

/// Interprets a program, producing blocks and method boundary events.
///
/// # Examples
///
/// ```
/// use ace_workloads::{ProgramBuilder, MemPattern, Stmt, Executor, Step};
/// use ace_sim::Block;
///
/// let mut b = ProgramBuilder::new("demo", 7);
/// let pat = b.add_pattern(MemPattern::resident(0x10000, 4096));
/// let m = b.add_method("main", vec![Stmt::Compute { ninstr: 200, pattern: pat }]);
/// let p = b.entry(m).build().unwrap();
///
/// let mut exec = Executor::new(&p);
/// let mut buf = Block::default();
/// assert_eq!(exec.step(&mut buf), Step::Enter(m));
/// assert_eq!(exec.step(&mut buf), Step::Block);
/// assert!(buf.ninstr > 0);
/// ```
#[derive(Debug, Clone)]
pub struct Executor<'p> {
    program: &'p Program,
    rng: DetRng,
    frames: Vec<Frame>,
    cursors: Vec<PatternCursor>,
    started: bool,
    finished: bool,
    unwinding: bool,
    emitted_instr: u64,
    limit: Option<u64>,
    entry: MethodId,
    /// Blocks emitted per walk kind (indexed like [`WALK_KIND_NAMES`]) —
    /// the frequency profile behind the hot-first dispatch order in
    /// [`Executor::emit_block`].
    walk_blocks: [u64; 4],
}

/// Names for the walk-kind indices of [`Executor::walk_profile`].
pub const WALK_KIND_NAMES: [&str; 4] = ["strided", "streaming", "random", "skewed"];

/// Index of a walk kind in [`Executor::walk_profile`] / [`WALK_KIND_NAMES`].
#[inline]
fn walk_index(walk: &Walk) -> usize {
    match walk {
        Walk::Strided { .. } => 0,
        Walk::Streaming { .. } => 1,
        Walk::Random => 2,
        Walk::Skewed { .. } => 3,
    }
}

impl<'p> Executor<'p> {
    /// Creates an executor over `program` using the program's own seed.
    pub fn new(program: &'p Program) -> Executor<'p> {
        Executor::with_seed(program, program.seed())
    }

    /// Creates an executor with an explicit seed (for perturbation studies).
    pub fn with_seed(program: &'p Program, seed: u64) -> Executor<'p> {
        Executor::with_entry(program, program.entry(), seed)
    }

    /// Creates an executor starting at `entry` instead of the program's
    /// default entry — one logical thread of a multithreaded program.
    pub fn with_entry(program: &'p Program, entry: MethodId, seed: u64) -> Executor<'p> {
        Executor {
            program,
            rng: DetRng::new(seed),
            frames: Vec::with_capacity(MAX_CALL_DEPTH),
            cursors: vec![PatternCursor::default(); program.patterns().len()],
            started: false,
            finished: false,
            unwinding: false,
            emitted_instr: 0,
            limit: None,
            entry,
            walk_blocks: [0; 4],
        }
    }

    /// Blocks emitted per walk kind, indexed like [`WALK_KIND_NAMES`].
    /// This is the measured dispatch-frequency profile: across the seven
    /// headline presets strided/streaming walks dominate (they are the
    /// default for resident and streaming patterns), which is why
    /// the block-emission dispatch tests them first.
    pub fn walk_profile(&self) -> [u64; 4] {
        self.walk_blocks
    }

    /// Stops execution (unwinding cleanly through exits) once `limit`
    /// instructions have been emitted.
    pub fn set_instruction_limit(&mut self, limit: u64) -> &mut Self {
        self.limit = Some(limit);
        self
    }

    /// Instructions emitted so far.
    pub fn emitted_instructions(&self) -> u64 {
        self.emitted_instr
    }

    /// The program being executed.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    fn enter(&mut self, method: MethodId) -> Step {
        assert!(
            self.frames.len() < MAX_CALL_DEPTH,
            "call depth exceeded: recursive program?"
        );
        for &pid in self.program.owned_patterns(method) {
            if self.program.pattern(pid).reset_on_entry {
                self.cursors[pid.0 as usize].reset();
            }
        }
        self.frames.push(Frame::new(method));
        Step::Enter(method)
    }

    /// Produces the next event. `out` is only meaningful when the result is
    /// [`Step::Block`].
    pub fn step(&mut self, out: &mut Block) -> Step {
        if self.finished {
            return Step::Done;
        }
        if !self.started {
            self.started = true;
            return self.enter(self.entry);
        }
        if self.unwinding || self.limit.is_some_and(|l| self.emitted_instr >= l) {
            self.unwinding = true;
            return match self.frames.pop() {
                Some(f) => Step::Exit(f.method),
                None => {
                    self.finished = true;
                    Step::Done
                }
            };
        }

        loop {
            let Some(frame) = self.frames.last_mut() else {
                self.finished = true;
                return Step::Done;
            };
            if frame.compute_left > 0 {
                return self.emit_block(out);
            }
            let method = self.program.method(frame.method);
            let op = method.ops[frame.ip as usize];
            match op {
                Op::Compute { ninstr, pattern } => {
                    frame.compute_left = self.rng.jitter(ninstr, SIZE_JITTER_PCT);
                    frame.pattern = pattern;
                    frame.ip += 1;
                }
                Op::Call { callee } => {
                    frame.ip += 1;
                    return self.enter(callee);
                }
                Op::LoopStart { iters, end } => {
                    let iters = if iters >= 4 {
                        self.rng.jitter(iters as u64, SIZE_JITTER_PCT) as u32
                    } else {
                        iters
                    };
                    if iters == 0 {
                        frame.ip = end;
                    } else {
                        assert!(
                            (frame.loop_depth as usize) < MAX_LOOP_DEPTH,
                            "loop nesting exceeded"
                        );
                        frame.loops[frame.loop_depth as usize] = LoopState {
                            start_ip: frame.ip,
                            remaining: iters,
                        };
                        frame.loop_depth += 1;
                        frame.ip += 1;
                    }
                }
                Op::LoopEnd { .. } => {
                    let depth = frame.loop_depth as usize - 1;
                    let state = &mut frame.loops[depth];
                    if state.remaining > 1 {
                        state.remaining -= 1;
                        frame.ip = state.start_ip + 1;
                    } else {
                        frame.loop_depth -= 1;
                        frame.ip += 1;
                    }
                }
                Op::Return => {
                    let f = self.frames.pop().expect("frame exists");
                    return Step::Exit(f.method);
                }
            }
        }
    }

    /// Fills `out` with the next block of the current compute run.
    fn emit_block(&mut self, out: &mut Block) -> Step {
        let frame = self.frames.last_mut().expect("in compute");
        let method = self.program.method(frame.method);
        let pat = self.program.pattern(frame.pattern);

        out.reset();
        let want = self.rng.jitter(pat.block_len as u64, 50).max(1);
        let ninstr = want.min(frame.compute_left).min(u32::MAX as u64) as u32;
        out.ninstr = ninstr;
        // Real code concentrates execution in a few hot blocks (inner-loop
        // back edges); give ~70% of the weight to the first two static
        // blocks so BBV signatures look like compiled code, not noise.
        let nblocks = method.code_blocks;
        let slot = if nblocks <= 2 || self.rng.chance(70) {
            frame.blk % nblocks.min(2)
        } else {
            2 + frame.blk % (nblocks - 2)
        };
        out.pc = method.code_pc + slot as u64 * 64;
        frame.blk = frame.blk.wrapping_add(1);

        // Memory references: refs_per_kinstr with milli-ref residue.
        let cursor = &mut self.cursors[frame.pattern.0 as usize];
        let milli = ninstr as u64 * pat.refs_per_kinstr as u64 + cursor.ref_residue;
        let nrefs = milli / 1000;
        cursor.ref_residue = milli % 1000;
        // The walk kind is per-pattern, so dispatch once per block, not
        // once per reference, with the arms ordered by the measured block
        // frequency ([`Executor::walk_profile`]: strided/streaming walks
        // dominate every headline preset). Each arm is a plain loop over
        // locals: the RNG state is copied in and written back after the
        // loop, and the cursor, base and bounds are plain values, so the
        // per-reference state stays in registers. (`extend` over a mapped
        // range would leave the fold out of line with all of them captured
        // by reference: loaded, and the cursor and RNG words stored back,
        // on every reference.) Each arm draws from the RNG in exactly the
        // order the unspecialized per-reference match did.
        self.walk_blocks[walk_index(&pat.walk)] += 1;
        let base = pat.base;
        let store_pct = pat.store_pct;
        let ws = pat.working_set;
        let mut rng = self.rng.clone();
        match pat.walk {
            // The cursor is kept reduced (`pos < working_set`, see the
            // reduction after the advance), so the per-reference modulo
            // of the naive `pos % working_set` walk becomes a
            // rarely-taken wrap branch. The emitted offset sequence is
            // identical: `pos` always equals the old unreduced cursor
            // mod `working_set`.
            Walk::Strided { stride } | Walk::Streaming { stride } => {
                let mut pos = cursor.pos;
                for _ in 0..nrefs {
                    let offset = pos;
                    pos += stride as u64;
                    if pos >= ws {
                        pos %= ws;
                    }
                    out.accesses.push(MemAccess {
                        addr: base + (offset & !7),
                        is_store: rng.chance(store_pct),
                    });
                }
                cursor.pos = pos;
            }
            Walk::Skewed {
                hot_bytes_pct,
                hot_refs_pct,
            } => {
                let hot_bytes = (ws * hot_bytes_pct as u64 / 100).max(64);
                for _ in 0..nrefs {
                    let offset = if rng.chance(hot_refs_pct) {
                        rng.below(hot_bytes)
                    } else {
                        rng.below(ws)
                    };
                    out.accesses.push(MemAccess {
                        addr: base + (offset & !7),
                        is_store: rng.chance(store_pct),
                    });
                }
            }
            Walk::Random => {
                for _ in 0..nrefs {
                    let offset = rng.below(ws);
                    out.accesses.push(MemAccess {
                        addr: base + (offset & !7),
                        is_store: rng.chance(store_pct),
                    });
                }
            }
        }
        self.rng = rng;

        // Terminating branch.
        out.branch = Some(BranchEvent {
            pc: out.pc + 56,
            taken: self.rng.chance(pat.taken_pct),
        });

        frame.compute_left -= ninstr as u64;
        self.emitted_instr += ninstr as u64;
        Step::Block
    }

    /// Runs to completion, discarding blocks; returns total instructions.
    /// Useful for sizing programs in tests and presets.
    pub fn measure(mut self) -> u64 {
        let mut buf = Block::with_capacity(64);
        loop {
            match self.step(&mut buf) {
                Step::Done => return self.emitted_instr,
                _ => continue,
            }
        }
    }

    /// Produces the next block into `out`, skipping method boundary
    /// events — the view a phase detector or a bare [`ace_sim::Machine`]
    /// needs. Returns `false` (leaving `out` empty) once execution is done.
    pub fn next_block(&mut self, out: &mut Block) -> bool {
        loop {
            match self.step(out) {
                Step::Block => return true,
                Step::Done => {
                    out.reset();
                    return false;
                }
                Step::Enter(_) | Step::Exit(_) => continue,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::ir::Stmt;
    use crate::pattern::MemPattern;

    fn simple_program() -> crate::ir::Program {
        let mut b = ProgramBuilder::new("t", 3);
        let pat = b.add_pattern(MemPattern::resident(0x1_0000, 4096));
        let leaf = b.add_method(
            "leaf",
            vec![Stmt::Compute {
                ninstr: 1_000,
                pattern: pat,
            }],
        );
        let main = b.add_method(
            "main",
            vec![
                Stmt::Compute {
                    ninstr: 500,
                    pattern: pat,
                },
                Stmt::Call {
                    callee: leaf,
                    count: 3,
                },
            ],
        );
        b.own_pattern(leaf, pat);
        b.entry(main).build().unwrap()
    }

    #[test]
    fn event_sequence_is_well_nested() {
        let p = simple_program();
        let mut exec = Executor::new(&p);
        let mut buf = Block::default();
        let mut depth = 0i32;
        let mut enters = 0;
        let mut exits = 0;
        loop {
            match exec.step(&mut buf) {
                Step::Enter(_) => {
                    depth += 1;
                    enters += 1;
                }
                Step::Exit(_) => {
                    depth -= 1;
                    exits += 1;
                    assert!(depth >= 0);
                }
                Step::Block => assert!(depth > 0, "blocks only inside methods"),
                Step::Done => break,
            }
        }
        assert_eq!(depth, 0);
        assert_eq!(enters, exits);
        assert_eq!(enters, 1 + 3, "main + 3 leaf invocations");
    }

    #[test]
    fn emitted_instructions_near_static_size() {
        let p = simple_program();
        let total = Executor::new(&p).measure();
        let expect = p.static_size(p.entry());
        let lo = expect * 85 / 100;
        let hi = expect * 115 / 100;
        assert!(
            (lo..=hi).contains(&total),
            "jittered total {total} should be near {expect}"
        );
    }

    #[test]
    fn deterministic_streams() {
        let p = simple_program();
        let mut a = Executor::new(&p);
        let mut b = Executor::new(&p);
        let mut ba = Block::default();
        let mut bb = Block::default();
        loop {
            let sa = a.step(&mut ba);
            let sb = b.step(&mut bb);
            assert_eq!(sa, sb);
            if sa == Step::Block {
                assert_eq!(ba, bb);
            }
            if sa == Step::Done {
                break;
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let p = simple_program();
        let t1 = Executor::with_seed(&p, 1).measure();
        let t2 = Executor::with_seed(&p, 2).measure();
        assert_ne!(t1, t2, "jitter depends on seed");
    }

    #[test]
    fn instruction_limit_unwinds_cleanly() {
        let mut b = ProgramBuilder::new("t", 3);
        let pat = b.add_pattern(MemPattern::resident(0x1_0000, 4096));
        let leaf = b.add_method(
            "leaf",
            vec![Stmt::Compute {
                ninstr: 10_000,
                pattern: pat,
            }],
        );
        let main = b.add_method(
            "main",
            vec![Stmt::Call {
                callee: leaf,
                count: 1000,
            }],
        );
        let p = b.entry(main).build().unwrap();
        let mut exec = Executor::new(&p);
        exec.set_instruction_limit(50_000);
        let mut buf = Block::default();
        let mut depth = 0i32;
        loop {
            match exec.step(&mut buf) {
                Step::Enter(_) => depth += 1,
                Step::Exit(_) => depth -= 1,
                Step::Block => {}
                Step::Done => break,
            }
        }
        assert_eq!(depth, 0, "every enter matched by an exit");
        assert!(exec.emitted_instructions() >= 50_000);
        assert!(exec.emitted_instructions() < 80_000, "stops promptly");
    }

    #[test]
    fn addresses_stay_in_region() {
        let base = 0x5_0000;
        let ws = 8192;
        let mut b = ProgramBuilder::new("t", 9);
        let pat = b.add_pattern(MemPattern::random(base, ws));
        let m = b.add_method(
            "m",
            vec![Stmt::Compute {
                ninstr: 50_000,
                pattern: pat,
            }],
        );
        let p = b.entry(m).build().unwrap();
        let mut exec = Executor::new(&p);
        let mut buf = Block::default();
        let mut seen = 0;
        while exec.next_block(&mut buf) {
            for a in &buf.accesses {
                assert!(a.addr >= base && a.addr < base + ws, "addr {:#x}", a.addr);
                seen += 1;
            }
        }
        assert!(seen > 10_000, "expected plenty of accesses, got {seen}");
    }

    #[test]
    fn reset_on_entry_reuses_addresses() {
        // Strided pattern with reset: every invocation touches the same
        // leading bytes; without reset the cursor would keep advancing.
        let mut b = ProgramBuilder::new("t", 5);
        let base = 0x9_0000;
        let mut pat = MemPattern::resident(base, 1 << 20);
        pat.reset_on_entry = true;
        let pid = b.add_pattern(pat);
        let leaf = b.add_method(
            "leaf",
            vec![Stmt::Compute {
                ninstr: 1_000,
                pattern: pid,
            }],
        );
        b.own_pattern(leaf, pid);
        let main = b.add_method(
            "main",
            vec![Stmt::Call {
                callee: leaf,
                count: 5,
            }],
        );
        let p = b.entry(main).build().unwrap();
        let mut exec = Executor::new(&p);
        let mut buf = Block::default();
        let mut max_addr = 0;
        while exec.next_block(&mut buf) {
            for a in &buf.accesses {
                max_addr = max_addr.max(a.addr);
            }
        }
        // ~300 refs/invocation * 24B stride ~ 7.2 KB per invocation; with
        // resets the max offset stays near one invocation's span.
        assert!(
            max_addr - base < 16 * 1024,
            "cursor reset keeps footprint small, max offset {}",
            max_addr - base
        );
    }

    #[test]
    fn block_source_skips_events() {
        let p = simple_program();
        let mut exec = Executor::new(&p);
        let mut buf = Block::default();
        let mut blocks = 0;
        while exec.next_block(&mut buf) {
            assert!(buf.ninstr > 0);
            blocks += 1;
        }
        assert!(blocks > 10);
    }
}
