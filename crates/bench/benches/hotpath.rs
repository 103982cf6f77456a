//! Microbenchmarks for the simulator's hot paths — the code the
//! host-performance work in DESIGN.md §9 targets: CRB instance
//! scanning (fingerprint pre-filter on vs off), ghost scanning, the
//! pipeline's register ready-tracking, and the per-layer cost of one
//! workload (bare emulation, emulation under the value profiler,
//! emulation plus the timing pipeline with and without the CRB, and
//! emulation under the Figure 4 reuse-potential study).

use ccr_ir::{Reg, RegionId, Value};
use ccr_profile::{
    CrbModel, Emulator, NullCrb, NullSink, PotentialStudy, RecordedInstance, ValueProfiler,
};
use ccr_regions::RegionConfig;
use ccr_sim::{simulate, simulate_baseline, CrbConfig, MachineConfig, ReuseBuffer};
use ccr_workloads::{build, InputSet};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// A 4-input instance whose values are derived from `seed`.
fn wide_instance(seed: i64) -> RecordedInstance {
    RecordedInstance {
        inputs: (1..=4)
            .map(|r| (Reg(r), Value::from_int(seed * 10 + r as i64)))
            .collect(),
        outputs: vec![(Reg(5), Value::from_int(seed))],
        accesses_memory: false,
        body_instrs: 12,
    }
}

/// A buffer whose entry for region 7 holds `CrbConfig::paper()`'s full
/// eight 4-input instances (seeds 0..8).
fn full_entry() -> ReuseBuffer {
    let mut buf = ReuseBuffer::new(CrbConfig::paper());
    for seed in 0..8 {
        buf.record(RegionId(7), wide_instance(seed));
    }
    buf
}

/// A buffer whose entry for region 7 holds sixty-four 4-input
/// instances — the long-entry case the chunked fingerprint-lane
/// compare targets.
fn long_entry() -> ReuseBuffer {
    let mut buf = ReuseBuffer::new(CrbConfig {
        instances: 64,
        ..CrbConfig::paper()
    });
    for seed in 0..64 {
        buf.record(RegionId(7), wide_instance(seed));
    }
    buf
}

fn bench_crb_lookup(c: &mut Criterion) {
    let mut g = c.benchmark_group("crb_hotpath");

    // Hit on the oldest instance: the scan walks all eight input
    // banks; the fingerprint filter skips the seven non-matching full
    // compares.
    g.bench_function("lookup_hit", |b| {
        let mut buf = full_entry();
        b.iter(|| {
            black_box(buf.lookup(RegionId(7), &mut |r| Value::from_int(r.0 as i64)));
        });
    });

    // Mismatch miss: eight live instances, none matching — the
    // filter's best case (eight fingerprint folds, zero full
    // compares).
    g.bench_function("lookup_mismatch_miss", |b| {
        let mut buf = full_entry();
        b.iter(|| {
            black_box(buf.lookup(RegionId(7), &mut |_r| Value::from_int(-1)));
        });
    });

    // The same miss with the filter disabled: every instance pays a
    // full input-bank compare. The gap to `lookup_mismatch_miss` is
    // the fingerprint's win.
    g.bench_function("lookup_mismatch_miss_unfiltered", |b| {
        let mut buf = full_entry();
        buf.set_fingerprint_filter(false);
        b.iter(|| {
            black_box(buf.lookup(RegionId(7), &mut |_r| Value::from_int(-1)));
        });
    });

    // Ghost scan: sixteen further records evicted the original eight,
    // so a lookup for seed 0 misses the live instances and walks the
    // ghost list to classify the miss as a capacity casualty.
    g.bench_function("lookup_ghost_scan", |b| {
        let mut buf = full_entry();
        for seed in 8..24 {
            buf.record(RegionId(7), wide_instance(seed));
        }
        b.iter(|| {
            black_box(buf.lookup(RegionId(7), &mut |r| Value::from_int(r.0 as i64)));
        });
    });

    // ---- SoA batched scan vs the scalar reference path ----
    // `set_batched_scan(false)` forces the per-candidate walk the
    // pre-SoA layout performed; the `_scalar` twins measure what the
    // structure-of-arrays banks buy on identical probes.

    g.bench_function("lookup_hit_scalar", |b| {
        let mut buf = full_entry();
        buf.set_batched_scan(false);
        b.iter(|| {
            black_box(buf.lookup(RegionId(7), &mut |r| Value::from_int(r.0 as i64)));
        });
    });

    g.bench_function("lookup_mismatch_miss_scalar", |b| {
        let mut buf = full_entry();
        buf.set_batched_scan(false);
        b.iter(|| {
            black_box(buf.lookup(RegionId(7), &mut |_r| Value::from_int(-1)));
        });
    });

    // Long entry: a 64-instance bank, mismatch probe — the chunked
    // fingerprint-lane compare's best case (sixteen 4-wide chunks,
    // zero full verifies) against sixty-four scalar fp folds.
    g.bench_function("lookup_mismatch_long_entry", |b| {
        let mut buf = long_entry();
        b.iter(|| {
            black_box(buf.lookup(RegionId(7), &mut |_r| Value::from_int(-1)));
        });
    });
    g.bench_function("lookup_mismatch_long_entry_scalar", |b| {
        let mut buf = long_entry();
        buf.set_batched_scan(false);
        b.iter(|| {
            black_box(buf.lookup(RegionId(7), &mut |_r| Value::from_int(-1)));
        });
    });

    // Batched ghost classification vs the per-ghost walk.
    g.bench_function("lookup_ghost_scan_scalar", |b| {
        let mut buf = full_entry();
        for seed in 8..24 {
            buf.record(RegionId(7), wide_instance(seed));
        }
        buf.set_batched_scan(false);
        b.iter(|| {
            black_box(buf.lookup(RegionId(7), &mut |r| Value::from_int(r.0 as i64)));
        });
    });

    // Contiguous-slice verify vs pointer-chased pairs: with the
    // fingerprint filter off, every candidate pays a full input
    // compare — flat value rows against per-instance Vec walks.
    g.bench_function("lookup_verify_hit_contiguous", |b| {
        let mut buf = full_entry();
        buf.set_fingerprint_filter(false);
        b.iter(|| {
            black_box(buf.lookup(RegionId(7), &mut |r| Value::from_int(r.0 as i64)));
        });
    });
    g.bench_function("lookup_verify_hit_scalar", |b| {
        let mut buf = full_entry();
        buf.set_fingerprint_filter(false);
        buf.set_batched_scan(false);
        b.iter(|| {
            black_box(buf.lookup(RegionId(7), &mut |r| Value::from_int(r.0 as i64)));
        });
    });

    g.finish();
}

fn bench_pipeline_ready_tracking(c: &mut Criterion) {
    let mut g = c.benchmark_group("pipeline_hotpath");
    g.sample_size(10);
    // A call-heavy workload: every call pushes a frame with a dense
    // ready vector, every return merges results back — the paths the
    // register ready-tracking rewrite targets.
    let program = build("130.li", InputSet::Train, 1).unwrap();
    g.bench_function("ready_tracking_li", |b| {
        b.iter(|| {
            let out = simulate_baseline(&program, &MachineConfig::paper(), ccr_bench::emu_config())
                .unwrap();
            black_box(out.stats.cycles);
        });
    });
    g.finish();
}

fn bench_sim_layers(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_layers");
    g.sample_size(10);
    // One workload through five stacks: the interpreter alone (no
    // CRB, no timing), the value profiler, the timing pipeline without
    // and with the CRB, then the limit study. The gap between the bare
    // run and each of the others is that layer's host cost.
    let program = build("124.m88ksim", InputSet::Train, 1).unwrap();
    g.bench_function("emulate_bare_m88ksim", |b| {
        let emulator = Emulator::with_config(&program, ccr_bench::emu_config());
        b.iter(|| {
            let out = emulator.run(&mut NullCrb, &mut NullSink).unwrap();
            black_box(out.dyn_instrs);
        });
    });
    // The compile's profile stage (what `profile.value_profile_ms`
    // measures per workload).
    g.bench_function("value_profile_m88ksim", |b| {
        let emulator = Emulator::with_config(&program, ccr_bench::emu_config());
        b.iter(|| {
            let mut profiler = ValueProfiler::for_program(&program);
            emulator.run(&mut NullCrb, &mut profiler).unwrap();
            black_box(profiler.finish());
        });
    });
    g.bench_function("simulate_baseline_m88ksim", |b| {
        b.iter(|| {
            let out = simulate_baseline(&program, &MachineConfig::paper(), ccr_bench::emu_config())
                .unwrap();
            black_box(out.stats.cycles);
        });
    });
    // The annotated build on the paper's CRB (what `sim.ccr_ms`
    // measures per workload).
    let compiled =
        ccr_bench::compile_benchmark("124.m88ksim", InputSet::Train, 1, &RegionConfig::paper());
    g.bench_function("simulate_ccr_m88ksim", |b| {
        b.iter(|| {
            let out = simulate(
                &compiled.annotated,
                &MachineConfig::paper(),
                Some(CrbConfig::paper()),
                ccr_bench::emu_config(),
            )
            .unwrap();
            black_box(out.stats.cycles);
        });
    });
    // The same instruction stream observed by the limit study (what
    // `profile.potential_ms` measures per workload).
    g.bench_function("potential_study_m88ksim", |b| {
        let emulator = Emulator::with_config(&program, ccr_bench::emu_config());
        b.iter(|| {
            let mut study = PotentialStudy::for_program(&program);
            emulator.run(&mut NullCrb, &mut study).unwrap();
            black_box(study.finish().region_reusable);
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_crb_lookup,
    bench_pipeline_ready_tracking,
    bench_sim_layers
);
criterion_main!(benches);
