//! Characterization tests for the seven preset workloads: the structural
//! properties the reproduction's calibration depends on. If a preset edit
//! breaks one of these, the paper's tables will quietly drift — fail loudly
//! here instead.

use ace_sim::Block;
use ace_workloads::{
    all_presets, preset, preset_spec, Executor, Program, Step, Walk, PRESET_NAMES,
};
use std::collections::HashMap;

/// Measures per-method inclusive invocation sizes over a prefix.
fn invocation_sizes(program: &Program, limit: u64) -> HashMap<String, Vec<u64>> {
    let mut exec = Executor::new(program);
    exec.set_instruction_limit(limit);
    let mut buf = Block::default();
    let mut stack: Vec<(String, u64)> = Vec::new();
    let mut emitted = 0u64;
    let mut sizes: HashMap<String, Vec<u64>> = HashMap::new();
    loop {
        match exec.step(&mut buf) {
            Step::Block => emitted += buf.ninstr as u64,
            Step::Enter(m) => stack.push((program.method(m).name.clone(), emitted)),
            Step::Exit(_) => {
                let (name, start) = stack.pop().unwrap();
                sizes.entry(name).or_default().push(emitted - start);
            }
            Step::Done => break,
        }
    }
    sizes
}

#[test]
fn spec_roundtrips_through_serde() {
    for name in PRESET_NAMES {
        let spec = preset_spec(name).unwrap();
        let json = serde_json::to_string(&spec).unwrap();
        let back: ace_workloads::WorkloadSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back, "{name} spec must survive serialization");
        assert_eq!(spec.build().unwrap(), back.build().unwrap());
    }
}

#[test]
fn stage_methods_are_l2_hotspot_sized() {
    for program in all_presets() {
        let sizes = invocation_sizes(&program, 15_000_000);
        for (name, invs) in &sizes {
            if name.starts_with("stage::") {
                let avg = invs.iter().sum::<u64>() / invs.len() as u64;
                assert!(
                    avg > 500_000,
                    "{}/{name}: stage size {avg} below the L2 hotspot bound",
                    program.name()
                );
            }
        }
    }
}

#[test]
fn kernels_are_l1d_hotspot_sized() {
    for program in all_presets() {
        let sizes = invocation_sizes(&program, 15_000_000);
        let mut kernels = 0;
        for (name, invs) in &sizes {
            if name.contains("::child") && !name.contains("work") {
                let avg = invs.iter().sum::<u64>() / invs.len() as u64;
                assert!(
                    (50_000..500_000).contains(&avg),
                    "{}/{name}: kernel size {avg} outside the L1D class",
                    program.name()
                );
                kernels += 1;
            }
        }
        assert!(
            kernels >= 6,
            "{}: only {kernels} kernels observed",
            program.name()
        );
    }
}

#[test]
fn kernels_recur_in_pairs() {
    // The tuning protocol measures a configuration on the invocation after
    // the one that applied it; that only works because hotspots here are
    // invoked in back-to-back pairs.
    let program = preset("jess").unwrap();
    let mut exec = Executor::new(&program);
    exec.set_instruction_limit(10_000_000);
    let mut buf = Block::default();
    let mut last_kernel: Option<(u32, bool)> = None; // (method, saw_pair)
    let mut pairs = 0;
    let mut singles = 0;
    loop {
        match exec.step(&mut buf) {
            Step::Enter(m)
                if program.method(m).name.contains("::child")
                    && !program.method(m).name.contains("work")
                    && !program.method(m).name.contains("leaf") =>
            {
                match last_kernel {
                    Some((prev, false)) if prev == m.0 => {
                        last_kernel = Some((m.0, true));
                        pairs += 1;
                    }
                    _ => {
                        if matches!(last_kernel, Some((_, false))) {
                            singles += 1;
                        }
                        last_kernel = Some((m.0, false));
                    }
                }
            }
            Step::Done => break,
            _ => {}
        }
    }
    assert!(pairs > 20, "kernel pairs: {pairs}");
    assert!(
        singles <= pairs / 10,
        "unpaired kernels: {singles} vs {pairs} pairs"
    );
}

#[test]
fn working_set_classes_fit_their_levels() {
    // Small-class kernels fit 16 KB with margin; the large class fits
    // 32 KB. (Stream patterns are exempt: they are streaming by design.)
    for program in all_presets() {
        for pat in program.patterns().iter().filter(|p| p.reset_on_entry) {
            assert!(
                pat.working_set <= 30 << 10,
                "{}: resident working set {} too large for any reduced L1D",
                program.name(),
                pat.working_set
            );
        }
    }
}

#[test]
fn streams_wrap_their_regions() {
    // Stage streams must exceed their regions per invocation so the region
    // size (not the stream length) determines the L2 footprint.
    for name in PRESET_NAMES {
        let spec = preset_spec(name).unwrap();
        for stage in &spec.stages {
            let span = stage.stream_instr * 28 / 100 * 24; // refs * stride
            assert!(
                span > stage.region_bytes,
                "{name}/{}: stream span {span} does not wrap region {}",
                stage.name,
                stage.region_bytes
            );
        }
    }
}

#[test]
fn per_benchmark_flavor_holds() {
    // db: tiniest working sets of the suite.
    let db = preset("db").unwrap();
    let db_max = db
        .patterns()
        .iter()
        .filter(|p| p.reset_on_entry)
        .map(|p| p.working_set)
        .max()
        .unwrap();
    for name in ["jess", "mtrt"] {
        let other = preset(name).unwrap();
        let other_max = other
            .patterns()
            .iter()
            .filter(|p| p.reset_on_entry)
            .map(|p| p.working_set)
            .max()
            .unwrap();
        assert!(
            db_max < other_max,
            "db ({db_max}) must be smaller than {name} ({other_max})"
        );
    }

    // mpeg: the most predictable branches.
    let mpeg = preset("mpeg").unwrap();
    let min_taken = mpeg.patterns().iter().map(|p| p.taken_pct).min().unwrap();
    assert!(min_taken >= 90, "mpeg branch bias {min_taken}");

    // mtrt: shares one scene region between its two render stages.
    let spec = preset_spec("mtrt").unwrap();
    assert!(spec.stages.iter().skip(1).all(|s| s.shared_region));

    // jack and mtrt: a flat stage starves L2 hotspots.
    for name in ["jack", "mtrt"] {
        let spec = preset_spec(name).unwrap();
        assert!(
            spec.stages.iter().any(|s| s.flat),
            "{name} must have a flat stage"
        );
    }
}

#[test]
fn block_stream_is_plausible() {
    let program = preset("compress").unwrap();
    let mut exec = Executor::new(&program);
    exec.set_instruction_limit(2_000_000);
    let mut buf = Block::default();
    let mut instr = 0u64;
    let mut refs = 0u64;
    let mut stores = 0u64;
    let mut branches = 0u64;
    while exec.next_block(&mut buf) {
        instr += buf.ninstr as u64;
        refs += buf.accesses.len() as u64;
        stores += buf.accesses.iter().filter(|a| a.is_store).count() as u64;
        branches += buf.branch.is_some() as u64;
        assert!(buf.ninstr > 0 && buf.ninstr < 200);
    }
    let ref_rate = refs as f64 / instr as f64;
    assert!((0.2..0.4).contains(&ref_rate), "memory ref rate {ref_rate}");
    let store_rate = stores as f64 / refs as f64;
    assert!((0.1..0.4).contains(&store_rate), "store rate {store_rate}");
    assert!(branches > 0);
}

#[test]
fn walks_cover_every_variant() {
    // The presets exercise all four walk kinds.
    let mut kinds = [false; 4];
    for program in all_presets() {
        for p in program.patterns() {
            match p.walk {
                Walk::Strided { .. } => kinds[0] = true,
                Walk::Random => kinds[1] = true,
                Walk::Streaming { .. } => kinds[2] = true,
                Walk::Skewed { .. } => kinds[3] = true,
            }
        }
    }
    assert!(kinds[1] && kinds[2] && kinds[3], "walk coverage {kinds:?}");
}
