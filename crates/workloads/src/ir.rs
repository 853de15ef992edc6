//! Program representation.
//!
//! A synthetic program is a set of *methods* whose bodies are trees of
//! statements: straight-line computation (with a memory pattern), loops,
//! and calls. Method bodies are compiled to a small flat opcode form that
//! the executor interprets without allocation.
//!
//! Methods are the hotspot candidates of the DO system: the runtime counts
//! their invocations, promotes frequently invoked ones, and instruments
//! their entry/exit — exactly how Jikes RVM treats Java methods.

use crate::pattern::{MemPattern, PatternId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifies a method within a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct MethodId(pub u32);

impl fmt::Display for MethodId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// A statement in a method body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Stmt {
    /// Execute `ninstr` instructions following `pattern`.
    Compute {
        /// Dynamic instruction count of this computation.
        ninstr: u64,
        /// The memory/branch behavior to follow.
        pattern: PatternId,
    },
    /// Invoke `callee` `count` times in a row.
    Call {
        /// The method to invoke.
        callee: MethodId,
        /// Number of back-to-back invocations.
        count: u32,
    },
    /// Repeat `body` `count` times.
    Loop {
        /// Iteration count.
        count: u32,
        /// Statements repeated each iteration.
        body: Vec<Stmt>,
    },
}

/// Flat opcode form of a method body (executor-internal, but public for
/// inspection and testing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Op {
    /// Run `ninstr` instructions with `pattern`.
    Compute {
        /// Dynamic instruction count.
        ninstr: u64,
        /// Behavior pattern index.
        pattern: PatternId,
    },
    /// Push a frame for `callee`.
    Call {
        /// Target method.
        callee: MethodId,
    },
    /// Begin a loop of `iters` iterations; `end` is the index just past the
    /// matching [`Op::LoopEnd`].
    LoopStart {
        /// Iteration count (0 skips the body entirely).
        iters: u32,
        /// Opcode index just past the matching `LoopEnd`.
        end: u32,
    },
    /// End of a loop body; `start` is the index of the matching
    /// [`Op::LoopStart`].
    LoopEnd {
        /// Opcode index of the matching `LoopStart`.
        start: u32,
    },
    /// Return from the method.
    Return,
}

/// A method: a named body plus its static code footprint.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Method {
    /// Human-readable name (diagnostics and reports).
    pub name: String,
    /// Base PC of the method's code; blocks cycle through
    /// `code_blocks` distinct line-aligned addresses from here.
    pub code_pc: u64,
    /// Number of distinct static blocks (drives L1I footprint and BBV
    /// signature richness).
    pub code_blocks: u32,
    /// Compiled body.
    pub ops: Vec<Op>,
}

/// A complete program: methods, patterns, and an entry point.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Program {
    name: String,
    methods: Vec<Method>,
    patterns: Vec<MemPattern>,
    /// Patterns owned by each method (reset on entry when flagged).
    owned_patterns: Vec<Vec<PatternId>>,
    entry: MethodId,
    seed: u64,
}

impl Program {
    /// Assembles a program; use [`crate::ProgramBuilder`] rather than
    /// calling this directly.
    pub(crate) fn from_parts(
        name: String,
        methods: Vec<Method>,
        patterns: Vec<MemPattern>,
        owned_patterns: Vec<Vec<PatternId>>,
        entry: MethodId,
        seed: u64,
    ) -> Program {
        Program {
            name,
            methods,
            patterns,
            owned_patterns,
            entry,
            seed,
        }
    }

    /// The program's name (e.g. `"db"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The entry method.
    pub fn entry(&self) -> MethodId {
        self.entry
    }

    /// RNG seed used by the executor for jitter and address draws.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of methods.
    pub fn method_count(&self) -> usize {
        self.methods.len()
    }

    /// Looks up a method.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range (method ids come from the same
    /// program, so this indicates a logic error).
    pub fn method(&self, id: MethodId) -> &Method {
        &self.methods[id.0 as usize]
    }

    /// All methods, in id order.
    pub fn methods(&self) -> &[Method] {
        &self.methods
    }

    /// Looks up a pattern.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn pattern(&self, id: PatternId) -> &MemPattern {
        &self.patterns[id.0 as usize]
    }

    /// All patterns, in id order.
    pub fn patterns(&self) -> &[MemPattern] {
        &self.patterns
    }

    /// Patterns owned by `method` (their cursors reset when it is entered,
    /// if flagged `reset_on_entry`).
    pub fn owned_patterns(&self, method: MethodId) -> &[PatternId] {
        &self.owned_patterns[method.0 as usize]
    }

    /// Static sanity check: every call target, pattern reference, and loop
    /// bracket must be well-formed.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed item found.
    pub fn validate(&self) -> Result<(), String> {
        if self.methods.is_empty() {
            return Err("program has no methods".into());
        }
        if self.entry.0 as usize >= self.methods.len() {
            return Err("entry method out of range".into());
        }
        for (pid, p) in self.patterns.iter().enumerate() {
            p.validate().map_err(|e| format!("pattern {pid}: {e}"))?;
        }
        for (mid, m) in self.methods.iter().enumerate() {
            if m.ops.last() != Some(&Op::Return) {
                return Err(format!("method {mid} ({}) does not end in Return", m.name));
            }
            if m.code_blocks == 0 {
                return Err(format!("method {mid} has zero code blocks"));
            }
            let mut depth = 0i32;
            for (i, op) in m.ops.iter().enumerate() {
                match *op {
                    Op::Compute { ninstr, pattern } => {
                        if ninstr == 0 {
                            return Err(format!("method {mid} op {i}: empty compute"));
                        }
                        if pattern.0 as usize >= self.patterns.len() {
                            return Err(format!("method {mid} op {i}: bad pattern"));
                        }
                    }
                    Op::Call { callee } => {
                        if callee.0 as usize >= self.methods.len() {
                            return Err(format!("method {mid} op {i}: bad callee"));
                        }
                    }
                    Op::LoopStart { end, .. } => {
                        depth += 1;
                        let end = end as usize;
                        if end > m.ops.len() || !matches!(m.ops[end - 1], Op::LoopEnd { .. }) {
                            return Err(format!("method {mid} op {i}: bad loop end"));
                        }
                    }
                    Op::LoopEnd { start } => {
                        depth -= 1;
                        if !matches!(m.ops[start as usize], Op::LoopStart { .. }) {
                            return Err(format!("method {mid} op {i}: bad loop start"));
                        }
                    }
                    Op::Return => {}
                }
            }
            if depth != 0 {
                return Err(format!("method {mid}: unbalanced loops"));
            }
        }
        Ok(())
    }

    /// Statically estimates the dynamic instruction count of one invocation
    /// of `method`, following calls and loops. Used by presets to hit size
    /// targets; runtime jitter makes actual sizes vary around this.
    ///
    /// Recursion is not supported by the estimator (or the executor) and
    /// yields a saturating result guarded by a depth limit.
    pub fn static_size(&self, method: MethodId) -> u64 {
        self.static_size_depth(method, 0)
    }

    fn static_size_depth(&self, method: MethodId, depth: u32) -> u64 {
        if depth > 64 {
            return u64::MAX / 4;
        }
        let m = self.method(method);
        let mut ip = 0usize;
        let mut total = 0u64;
        // Stack of (loop start ip, multiplier entering that loop).
        let mut mult: u64 = 1;
        let mut stack: Vec<u64> = Vec::new();
        while ip < m.ops.len() {
            match m.ops[ip] {
                Op::Compute { ninstr, .. } => {
                    total = total.saturating_add(ninstr.saturating_mul(mult))
                }
                Op::Call { callee } => {
                    let inner = self.static_size_depth(callee, depth + 1);
                    total = total.saturating_add(inner.saturating_mul(mult));
                }
                Op::LoopStart { iters, end } => {
                    if iters == 0 {
                        ip = end as usize;
                        continue;
                    }
                    stack.push(mult);
                    mult = mult.saturating_mul(iters as u64);
                }
                Op::LoopEnd { .. } => {
                    mult = stack.pop().unwrap_or(1);
                }
                Op::Return => break,
            }
            ip += 1;
        }
        total
    }
}

/// Compiles a statement tree into flat opcodes (appending to `ops`).
pub(crate) fn compile_body(stmts: &[Stmt], ops: &mut Vec<Op>) {
    for stmt in stmts {
        match stmt {
            Stmt::Compute { ninstr, pattern } => {
                ops.push(Op::Compute {
                    ninstr: *ninstr,
                    pattern: *pattern,
                });
            }
            Stmt::Call { callee, count } => {
                if *count == 1 {
                    ops.push(Op::Call { callee: *callee });
                } else if *count > 1 {
                    let start = ops.len() as u32;
                    ops.push(Op::LoopStart {
                        iters: *count,
                        end: 0,
                    });
                    ops.push(Op::Call { callee: *callee });
                    let end = ops.len() as u32 + 1;
                    ops.push(Op::LoopEnd { start });
                    if let Op::LoopStart { end: e, .. } = &mut ops[start as usize] {
                        *e = end;
                    }
                }
            }
            Stmt::Loop { count, body } => {
                let start = ops.len() as u32;
                ops.push(Op::LoopStart {
                    iters: *count,
                    end: 0,
                });
                compile_body(body, ops);
                let end = ops.len() as u32 + 1;
                ops.push(Op::LoopEnd { start });
                if let Op::LoopStart { end: e, .. } = &mut ops[start as usize] {
                    *e = end;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;

    #[test]
    fn compile_loop_brackets() {
        let mut ops = Vec::new();
        compile_body(
            &[Stmt::Loop {
                count: 3,
                body: vec![Stmt::Compute {
                    ninstr: 10,
                    pattern: PatternId(0),
                }],
            }],
            &mut ops,
        );
        assert_eq!(
            ops,
            vec![
                Op::LoopStart { iters: 3, end: 3 },
                Op::Compute {
                    ninstr: 10,
                    pattern: PatternId(0)
                },
                Op::LoopEnd { start: 0 },
            ]
        );
    }

    #[test]
    fn compile_multi_call_becomes_loop() {
        let mut ops = Vec::new();
        compile_body(
            &[Stmt::Call {
                callee: MethodId(5),
                count: 4,
            }],
            &mut ops,
        );
        assert!(matches!(ops[0], Op::LoopStart { iters: 4, .. }));
        assert!(matches!(
            ops[1],
            Op::Call {
                callee: MethodId(5)
            }
        ));
        let mut ops1 = Vec::new();
        compile_body(
            &[Stmt::Call {
                callee: MethodId(5),
                count: 1,
            }],
            &mut ops1,
        );
        assert_eq!(
            ops1,
            vec![Op::Call {
                callee: MethodId(5)
            }]
        );
        let mut ops0 = Vec::new();
        compile_body(
            &[Stmt::Call {
                callee: MethodId(5),
                count: 0,
            }],
            &mut ops0,
        );
        assert!(ops0.is_empty(), "zero-count call compiles away");
    }

    #[test]
    fn static_size_follows_calls_and_loops() {
        let mut b = ProgramBuilder::new("t", 1);
        let pat = b.add_pattern(crate::MemPattern::resident(0x1000, 4096));
        let leaf = b.add_method(
            "leaf",
            vec![Stmt::Compute {
                ninstr: 100,
                pattern: pat,
            }],
        );
        let mid = b.add_method(
            "mid",
            vec![
                Stmt::Compute {
                    ninstr: 50,
                    pattern: pat,
                },
                Stmt::Loop {
                    count: 3,
                    body: vec![Stmt::Call {
                        callee: leaf,
                        count: 2,
                    }],
                },
            ],
        );
        let main = b.add_method(
            "main",
            vec![Stmt::Call {
                callee: mid,
                count: 1,
            }],
        );
        let p = b.entry(main).build().unwrap();
        assert_eq!(p.static_size(leaf), 100);
        assert_eq!(p.static_size(mid), 50 + 3 * 2 * 100);
        assert_eq!(p.static_size(main), 650);
    }

    #[test]
    fn validate_catches_missing_return() {
        let mut b = ProgramBuilder::new("t", 1);
        let pat = b.add_pattern(crate::MemPattern::resident(0, 64));
        let m = b.add_method(
            "m",
            vec![Stmt::Compute {
                ninstr: 1,
                pattern: pat,
            }],
        );
        let mut p = b.entry(m).build().unwrap();
        // Corrupt it.
        p = {
            let mut methods = p.methods().to_vec();
            methods[0].ops.pop();
            Program::from_parts(
                "t".into(),
                methods,
                p.patterns().to_vec(),
                vec![vec![]],
                MethodId(0),
                1,
            )
        };
        assert!(p.validate().unwrap_err().contains("Return"));
    }

    #[test]
    fn zero_iteration_loop_contributes_nothing() {
        let mut b = ProgramBuilder::new("t", 1);
        let pat = b.add_pattern(crate::MemPattern::resident(0, 64));
        let m = b.add_method(
            "m",
            vec![Stmt::Loop {
                count: 0,
                body: vec![Stmt::Compute {
                    ninstr: 1000,
                    pattern: pat,
                }],
            }],
        );
        // Needs at least one real instruction to be valid work; add one.
        let m2 = b.add_method(
            "m2",
            vec![
                Stmt::Call {
                    callee: m,
                    count: 1,
                },
                Stmt::Compute {
                    ninstr: 7,
                    pattern: pat,
                },
            ],
        );
        let p = b.entry(m2).build().unwrap();
        assert_eq!(p.static_size(m2), 7);
    }
}
