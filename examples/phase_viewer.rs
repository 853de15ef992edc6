//! Visualize a workload's phase behavior: the per-interval BBV phase id
//! timeline, the stable/transitional distribution (Figure 1), and the
//! hotspot nesting the DO system discovers for the same execution.
//!
//! ```text
//! cargo run --release --example phase_viewer [workload]
//! ```

use ace::phase::{BbvConfig, BbvDetector};
use ace::runtime::{DoConfig, DoSystem, HotspotClass};
use ace::sim::{Block, CuId, Machine, MachineConfig};
use ace::workloads::{Executor, Step};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "compress".to_string());
    let program =
        ace::workloads::preset(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;

    // Pass 1: pure phase detection over the block stream.
    let mut detector = BbvDetector::new(BbvConfig::default());
    let mut exec = Executor::new(&program);
    let mut buf = Block::default();
    let mut next_boundary = detector.config().interval_instr;
    let mut emitted = 0u64;
    while exec.next_block(&mut buf) {
        emitted += buf.ninstr as u64;
        if let Some(br) = buf.branch {
            detector.note_branch(br.pc, buf.ninstr);
        }
        if emitted >= next_boundary {
            detector.end_interval();
            next_boundary += detector.config().interval_instr;
        }
    }

    println!("== BBV phase timeline ({name}, one symbol per 1M-instruction interval)");
    let glyphs: Vec<char> = "ABCDEFGHIJKLMNOPQRSTUVWXYZ".chars().collect();
    let line: String = detector
        .history()
        .iter()
        .map(|p| glyphs.get(p.0 as usize).copied().unwrap_or('?'))
        .collect();
    for chunk in line.as_bytes().chunks(64) {
        println!("  {}", std::str::from_utf8(chunk).unwrap());
    }
    let s = detector.stability();
    println!(
        "  {} phases; {} intervals: {:.0}% stable / {:.0}% transitional (Figure 1)",
        detector.phase_count(),
        s.total_intervals,
        100.0 * s.stable_fraction(),
        100.0 * (1.0 - s.stable_fraction()),
    );

    // Pass 2: hotspot detection over the same program.
    let mut machine = Machine::new(MachineConfig::table2())?;
    let mut dos = DoSystem::new(&program, DoConfig::default());
    let mut exec = Executor::new(&program);
    loop {
        match exec.step(&mut buf) {
            Step::Block => machine.exec_block(&buf),
            Step::Enter(m) => {
                dos.on_enter(m, &mut machine);
            }
            Step::Exit(m) => {
                dos.on_exit(m, &mut machine);
            }
            Step::Done => break,
        }
    }

    println!();
    println!("== Hotspots the DO system found (positional phases)");
    let mut rows: Vec<_> = dos.database().hotspots().collect();
    rows.sort_by_key(|(_, e)| std::cmp::Reverse(e.avg_size));
    for (m, entry) in rows.iter().take(14) {
        let method = program.method(*m);
        println!(
            "  {:<24} {:>5}  {:>9} instr/invocation  {:>5} invocations",
            method.name,
            entry.class().map(|c| c.to_string()).unwrap_or_default(),
            entry.avg_size,
            entry.invocations,
        );
    }
    let t4 = dos.table4_summary(machine.instret());
    println!(
        "  …{} hotspots total ({} L1D, {} L2); {:.1}% of execution inside hotspots",
        t4.hotspots,
        dos.database().count_class(HotspotClass::Cu(CuId::L1d)),
        dos.database().count_class(HotspotClass::Cu(CuId::L2)),
        t4.pct_code_in_hotspots,
    );
    Ok(())
}
