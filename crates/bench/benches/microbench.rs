//! Criterion microbenchmarks for the simulation substrates: these measure
//! the *simulator's* throughput (how fast the reproduction runs), not the
//! simulated machine's performance.

use ace_core::{
    single_cu_list, ConfigTuner, Experiment, HotspotAceManager, HotspotManagerConfig, Measurement,
};
use ace_energy::EnergyModel;
use ace_phase::{BbvConfig, BbvDetector, WorkingSetConfig, WorkingSetDetector};
use ace_sim::{
    Block, BranchEvent, BranchPredictor, Cache, CacheGeometry, CuKind, Machine, MachineConfig,
    MemAccess, SizeLevel, Tlb,
};
use ace_workloads::{preset, Executor};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

/// xorshift64: a fixed-seed stream of unpredictable indices, so probe
/// outcomes and hit ways defeat the host's branch predictor the way the
/// workloads' random walks do.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn bench_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache");
    group.throughput(Throughput::Elements(1));
    let geom = CacheGeometry {
        size_bytes: 64 << 10,
        ways: 2,
        block_bytes: 64,
        hit_latency: 1,
    };

    group.bench_function("access_hit", |b| {
        // Repeated same-line access: the memoized MRU fast path.
        let mut cache = Cache::new(geom).unwrap();
        cache.access(0x1000, false);
        b.iter(|| {
            // Black-box the fields, not the struct: a whole inlined
            // `AccessOutcome` is built on the stack and reloaded, and the
            // failed store-to-load forward would dominate the row.
            let out = cache.access(black_box(0x1000), false);
            black_box(out.hit);
            black_box(out.writeback);
        })
    });
    group.bench_function("access_hit_rotating", |b| {
        // Hit-dominated but alternating lines, which defeats the MRU memo:
        // measures the way-probe plus rank-promotion hit path.
        let addrs = [0x1000u64, 0x2040, 0x3080, 0x40C0];
        let mut cache = Cache::new(geom).unwrap();
        for &a in &addrs {
            cache.access(a, false);
        }
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) & 3;
            let out = cache.access(black_box(addrs[i]), false);
            black_box(out.hit);
            black_box(out.writeback);
        })
    });
    group.bench_function("access_stream", |b| {
        let mut cache = Cache::new(geom).unwrap();
        let mut addr = 0u64;
        b.iter(|| {
            addr = addr.wrapping_add(64);
            black_box(cache.access(black_box(addr), false))
        })
    });
    group.bench_function("access_miss_dominated", |b| {
        // Store misses all landing in one set: every access takes the cold
        // miss path and evicts a dirty victim (writeback reported).
        let mut cache = Cache::new(geom).unwrap();
        let mut addr = 0u64;
        b.iter(|| {
            addr = addr.wrapping_add(64 << 10); // same-set stride
            black_box(cache.access(black_box(addr & ((64 << 20) - 1)), true))
        })
    });
    group.bench_function("resize_shrink_grow", |b| {
        let mut cache = Cache::new(geom).unwrap();
        for a in (0..65536u64).step_by(64) {
            cache.access(a, a % 128 == 0);
        }
        b.iter(|| {
            black_box(cache.resize(SizeLevel::SMALLEST));
            black_box(cache.resize(SizeLevel::LARGEST));
        })
    });
    group.bench_function("resize_churn", |b| {
        // Access bursts interleaved with shrink/grow transitions: the
        // pattern runtime tuning produces (trials at several levels with
        // flush casualties in between).
        let lvl2 = SizeLevel::new(2).unwrap();
        let mut cache = Cache::new(geom).unwrap();
        let mut addr = 0u64;
        b.iter(|| {
            for _ in 0..64 {
                addr = addr.wrapping_add(64);
                cache.access(addr & 0xF_FFFF, true);
            }
            black_box(cache.resize(lvl2));
            for _ in 0..64 {
                addr = addr.wrapping_add(64);
                cache.access(addr & 0xF_FFFF, true);
            }
            black_box(cache.resize(SizeLevel::LARGEST));
        })
    });
    group.finish();
}

fn bench_predictor_tlb(c: &mut Criterion) {
    let mut group = c.benchmark_group("frontend");
    group.throughput(Throughput::Elements(1));
    group.bench_function("branch_predict_update", |b| {
        let mut bp = BranchPredictor::new(2048);
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(bp.predict_and_update(0x4000 + (i % 64) * 4, !i.is_multiple_of(3)))
        })
    });
    group.bench_function("tlb_translate", |b| {
        let mut tlb = Tlb::new(128, 4096);
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(4096);
            black_box(tlb.translate(black_box(i % (1 << 22))))
        })
    });
    group.bench_function("tlb_translate_resident_random", |b| {
        // 96 resident pages (12 of 16 ways in each of the 8 sets), hit in
        // random order: the fingerprint probe and rank promotion at a
        // random way, with the page memo almost never applying.
        let mut tlb = Tlb::new(128, 4096);
        for p in 0..96u64 {
            tlb.translate(p << 12);
        }
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        b.iter(|| {
            let p = xorshift(&mut state) % 96;
            black_box(tlb.translate(black_box(p << 12)))
        })
    });
    group.bench_function("tlb_translate_alternating_sets", |b| {
        // Two pages in different sets, translated alternately: each
        // translation misses the one-page memo and hits its set's MRU way.
        let mut tlb = Tlb::new(128, 4096);
        tlb.translate(0);
        tlb.translate(1 << 12);
        let mut page = 0u64;
        b.iter(|| {
            page ^= 1;
            black_box(tlb.translate(black_box(page << 12)))
        })
    });
    group.finish();
}

fn bench_machine(c: &mut Criterion) {
    let mut group = c.benchmark_group("machine");
    let block = Block {
        pc: 0x400,
        ninstr: 48,
        accesses: vec![
            MemAccess::load(0x10_0000),
            MemAccess::load(0x10_0040),
            MemAccess::store(0x10_0080),
        ],
        branch: Some(BranchEvent {
            pc: 0x438,
            taken: true,
        }),
    };
    group.throughput(Throughput::Elements(block.ninstr as u64));
    group.bench_function("exec_block", |b| {
        let mut m = Machine::new(MachineConfig::table2()).unwrap();
        b.iter(|| m.exec_block(black_box(&block)))
    });
    group.bench_function("exec_block_hit_dominated", |b| {
        // A realistic ~14-reference block whose working set is resident:
        // the fused DTLB + L1D loop on its hit fast path.
        let hot = Block {
            pc: 0x400,
            ninstr: 48,
            accesses: (0..14)
                .map(|i| MemAccess::load(0x10_0000 + (i % 7) * 24))
                .collect(),
            branch: Some(BranchEvent {
                pc: 0x438,
                taken: true,
            }),
        };
        let mut m = Machine::new(MachineConfig::table2()).unwrap();
        m.exec_block(&hot); // warm the lines
        b.iter(|| m.exec_block(black_box(&hot)))
    });
    group.bench_function("exec_block_miss_heavy", |b| {
        // Streaming references that miss L1D (and often L2): the cold
        // miss path plus penalty accounting per reference.
        let mut stream = Block {
            pc: 0x400,
            ninstr: 48,
            accesses: (0..14).map(|i| MemAccess::load(i * 64)).collect(),
            branch: Some(BranchEvent {
                pc: 0x438,
                taken: false,
            }),
        };
        let mut m = Machine::new(MachineConfig::table2()).unwrap();
        let mut base = 0u64;
        b.iter(|| {
            base = base.wrapping_add(14 * 64);
            for (i, a) in stream.accesses.iter_mut().enumerate() {
                a.addr = 0x100_0000 + ((base + i as u64 * 64) & ((256 << 20) - 1));
            }
            m.exec_block(black_box(&stream))
        })
    });
    group.bench_function("exec_block_random_miss", |b| {
        // 14 references per block at random lines over 2 MB: twice the L2
        // and 32x the L1D, so most references miss L1D and many miss L2,
        // with the hit/miss outcome and victim way unpredictable.
        let mut block = Block {
            pc: 0x400,
            ninstr: 48,
            accesses: (0..14).map(|_| MemAccess::load(0)).collect(),
            branch: Some(BranchEvent {
                pc: 0x438,
                taken: false,
            }),
        };
        let mut m = Machine::new(MachineConfig::table2()).unwrap();
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        b.iter(|| {
            for a in block.accesses.iter_mut() {
                let r = xorshift(&mut state);
                a.addr = 0x100_0000 + (r & ((2 << 20) - 1));
                a.is_store = r >> 63 == 1;
            }
            m.exec_block(black_box(&block))
        })
    });
    group.bench_function("request_resize_guarded", |b| {
        let mut m = Machine::new(MachineConfig::table2()).unwrap();
        m.request_resize(CuKind::L1d, SizeLevel::SMALLEST);
        // Subsequent requests are guard-rejected: measures the fast path.
        b.iter(|| black_box(m.request_resize(CuKind::L1d, SizeLevel::LARGEST)))
    });
    group.finish();
}

fn bench_detectors(c: &mut Criterion) {
    let mut group = c.benchmark_group("phase");
    group.throughput(Throughput::Elements(1));
    group.bench_function("bbv_note_branch", |b| {
        let mut d = BbvDetector::new(BbvConfig::default());
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(4);
            d.note_branch(black_box(0x1000 + (i % 8192)), 48)
        })
    });
    group.bench_function("bbv_end_interval_64sigs", |b| {
        let mut d = BbvDetector::new(BbvConfig::default());
        // Pre-populate a realistic signature table.
        for k in 0..64u64 {
            for j in 0..16u64 {
                d.note_branch(k * 65536 + j * 4, 48);
            }
            d.end_interval();
        }
        b.iter(|| {
            d.note_branch(0x1234, 48);
            black_box(d.end_interval())
        })
    });
    group.bench_function("working_set_note_access", |b| {
        let mut d = WorkingSetDetector::new(WorkingSetConfig::default());
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(64);
            d.note_access(black_box(i % (1 << 20)))
        })
    });
    group.finish();
}

fn bench_executor(c: &mut Criterion) {
    let mut group = c.benchmark_group("workload");
    let program = preset("db").unwrap();
    group.bench_function("executor_1M_instructions", |b| {
        b.iter(|| {
            let mut exec = Executor::new(&program);
            exec.set_instruction_limit(1_000_000);
            black_box(exec.measure())
        })
    });
    group.finish();
}

fn bench_tuner(c: &mut Criterion) {
    let mut group = c.benchmark_group("tuner");
    group.bench_function("full_walk", |b| {
        b.iter(|| {
            let mut t = ConfigTuner::new(single_cu_list(CuKind::L1d), 0.02);
            let mut k = 0.0;
            while t.next_trial().is_some() {
                k += 0.1;
                t.record(Measurement {
                    instr: 100_000,
                    ipc: 2.0,
                    epi_nj: 1.0 - k,
                });
            }
            black_box(t.best())
        })
    });
    group.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end");
    group.sample_size(10);
    let program = preset("db").unwrap();
    group.bench_function("baseline_5M", |b| {
        b.iter(|| {
            black_box(
                Experiment::program(program.clone())
                    .instruction_limit(5_000_000)
                    .run()
                    .unwrap(),
            )
        })
    });
    group.bench_function("hotspot_managed_5M", |b| {
        b.iter(|| {
            let mut mgr = HotspotAceManager::new(
                HotspotManagerConfig::default(),
                EnergyModel::default_180nm(),
            );
            black_box(
                Experiment::program(program.clone())
                    .instruction_limit(5_000_000)
                    .run_with(&mut mgr)
                    .unwrap(),
            )
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_cache,
    bench_predictor_tlb,
    bench_machine,
    bench_detectors,
    bench_executor,
    bench_tuner,
    bench_end_to_end
);
criterion_main!(benches);
