//! Executor step-stream goldens: pins every [`Step`] the executor emits,
//! down to each memory reference, on the seven presets and on one
//! hand-built program that takes the walk paths no preset does.
//!
//! `golden_counters.rs` pins what the machine *measures* for three
//! presets; this test pins what the executor *produces*, byte for byte,
//! so a change to the block-emission loops (walk cursors, RNG draw order,
//! residue carry) shows up here before it shows up in any counter. Each
//! case is an FNV-1a digest over enter and exit ids, each block's `pc`
//! and `ninstr`, each access's `addr` and `is_store`, the branch `pc` and
//! `taken`, and the final [`Executor::walk_profile`].
//!
//! Regenerate the fixture (only legitimate after an *intentional* change
//! to the stream, never to paper over an optimization diff):
//!
//! ```text
//! ACE_BLESS_GOLDEN=1 cargo test -p ace-workloads --test executor_stream
//! ```

use ace_sim::Block;
use ace_workloads::{
    preset, Executor, MemPattern, Program, ProgramBuilder, Step, Stmt, Walk, PRESET_NAMES,
};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Instructions per case.
const LIMIT: u64 = 2_000_000;

/// 64-bit FNV-1a over the little-endian bytes fed to it.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Runs `program` to [`LIMIT`] and returns its fixture line
/// (`<name> steps <n> blocks <n> refs <n> instr <n> digest <hex>`) and
/// its walk profile.
fn stream_line(name: &str, program: &Program) -> (String, [u64; 4]) {
    let mut exec = Executor::new(program);
    exec.set_instruction_limit(LIMIT);
    let mut buf = Block::default();
    let mut h = Fnv::new();
    let (mut steps, mut blocks, mut refs) = (0u64, 0u64, 0u64);
    loop {
        let step = exec.step(&mut buf);
        steps += 1;
        match step {
            Step::Enter(m) => {
                h.bytes(&[1]);
                h.u64(m.0 as u64);
            }
            Step::Exit(m) => {
                h.bytes(&[2]);
                h.u64(m.0 as u64);
            }
            Step::Block => {
                blocks += 1;
                refs += buf.accesses.len() as u64;
                h.bytes(&[3]);
                h.u64(buf.pc);
                h.u64(buf.ninstr as u64);
                h.u64(buf.accesses.len() as u64);
                for a in &buf.accesses {
                    h.u64(a.addr);
                    h.bytes(&[a.is_store as u8]);
                }
                match buf.branch {
                    Some(br) => {
                        h.bytes(&[1]);
                        h.u64(br.pc);
                        h.bytes(&[br.taken as u8]);
                    }
                    None => h.bytes(&[0]),
                }
            }
            Step::Done => {
                h.bytes(&[4]);
                break;
            }
        }
    }
    let walks = exec.walk_profile();
    for n in walks {
        h.u64(n);
    }
    let line = format!(
        "{name} steps {steps} blocks {blocks} refs {refs} instr {} digest {:016x}",
        exec.emitted_instructions(),
        h.0
    );
    (line, walks)
}

/// A program whose leaves take the walk paths no preset takes: a
/// store-free strided walk, a streaming walk, a stride wider than its
/// working set, a cursor that survives across invocations, all-store
/// random and skewed walks, and a skewed hot core below one line.
fn edge_walks() -> Program {
    let mut b = ProgramBuilder::new("edge-walks", 0x5EED);
    let mut leaves = Vec::new();
    let mut leaf = |b: &mut ProgramBuilder, name: &str, ws: u64, pat: MemPattern| {
        let base = b.alloc_region(ws);
        let pid = b.add_pattern(MemPattern { base, ..pat });
        let m = b.add_method(
            name,
            vec![Stmt::Compute {
                ninstr: 3_000,
                pattern: pid,
            }],
        );
        b.own_pattern(m, pid);
        leaves.push(m);
    };
    leaf(
        &mut b,
        "strided_no_store",
        16 << 10,
        MemPattern {
            store_pct: 0,
            ..MemPattern::resident(0, 16 << 10)
        },
    );
    leaf(
        &mut b,
        "streaming",
        64 << 10,
        MemPattern::streaming(0, 64 << 10),
    );
    leaf(
        &mut b,
        "wide_stride",
        4096,
        MemPattern {
            walk: Walk::Strided { stride: 12_345 },
            ..MemPattern::resident(0, 4096)
        },
    );
    leaf(
        &mut b,
        "strided_no_reset",
        256 << 10,
        MemPattern {
            reset_on_entry: false,
            ..MemPattern::resident(0, 256 << 10)
        },
    );
    leaf(
        &mut b,
        "random_all_stores",
        64 << 10,
        MemPattern {
            store_pct: 100,
            ..MemPattern::random(0, 64 << 10)
        },
    );
    leaf(
        &mut b,
        "skewed_all_stores",
        128 << 10,
        MemPattern {
            store_pct: 100,
            ..MemPattern::skewed(0, 128 << 10)
        },
    );
    leaf(
        &mut b,
        "skewed_tiny_core",
        1024,
        MemPattern {
            walk: Walk::Skewed {
                hot_bytes_pct: 1,
                hot_refs_pct: 90,
            },
            ..MemPattern::skewed(0, 1024)
        },
    );
    let body = leaves
        .iter()
        .map(|&callee| Stmt::Call { callee, count: 2 })
        .collect();
    let main = b.add_method("main", vec![Stmt::Loop { count: 1_000, body }]);
    b.entry(main).build().expect("edge-walks program builds")
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("executor_stream.txt")
}

/// Compares `got` against the fixture, or rewrites it under
/// `ACE_BLESS_GOLDEN`.
fn check_fixture(got: &str) {
    let path = fixture_path();
    if std::env::var_os("ACE_BLESS_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create fixture dir");
        std::fs::write(&path, got).expect("write fixture");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(g, w, "executor step stream drifted from the blessed bytes");
    }
    assert_eq!(got.lines().count(), want.lines().count(), "case count");
}

#[test]
fn step_streams_match_blessed_digests() {
    let mut got = String::new();
    for name in PRESET_NAMES {
        let (line, _) = stream_line(name, &preset(name).expect("known preset"));
        let _ = writeln!(got, "{line}");
    }
    let (line, walks) = stream_line("edge-walks", &edge_walks());
    assert!(
        walks.iter().all(|&n| n > 0),
        "edge-walks takes every walk kind: {walks:?}"
    );
    let _ = writeln!(got, "{line}");
    check_fixture(&got);
}
