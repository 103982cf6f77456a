//! Static vs dynamic dispatch of the emulator's step loop.
//!
//! `Emulator::run` is generic over its reuse buffer and trace sink, so
//! concrete types compile into one specialized loop while `&mut dyn`
//! callers keep working through vtables. Both must be the same
//! semantics: for every optimized training build, the baseline leg
//! (`NullCrb` + `Pipeline`) and the CCR leg (`ReuseBuffer` + `Pipeline`
//! on the annotated build) give identical run outcomes and simulated
//! statistics either way.
//!
//! Slow in debug builds (13 compiles plus four simulations per
//! workload); run with `cargo test --release`.

use ccr::ir::{CodeLayout, Program};
use ccr::profile::{CrbModel, Emulator, NullCrb, RunOutcome, TraceSink};
use ccr::regions::RegionConfig;
use ccr::sim::{CrbConfig, MachineConfig, Pipeline, ReuseBuffer, SimStats};
use ccr::workloads::{InputSet, NAMES};

/// Which way the run loop reaches the buffer and the sink.
#[derive(Clone, Copy, Debug)]
enum Dispatch {
    Concrete,
    Dyn,
}

/// Simulates `program` with `crb` (or none) and returns the outcome
/// plus statistics, the CRB counters folded in as `simulate` does.
fn simulate_with(
    program: &Program,
    crb: Option<CrbConfig>,
    dispatch: Dispatch,
) -> (RunOutcome, SimStats) {
    let emulator = Emulator::with_config(program, ccr_bench::emu_config());
    let mut pipeline = Pipeline::new(MachineConfig::paper(), CodeLayout::of(program));
    let mut buffer = crb.map(ReuseBuffer::new);
    let run = match (&mut buffer, dispatch) {
        (Some(buf), Dispatch::Concrete) => emulator.run(buf, &mut pipeline),
        (None, Dispatch::Concrete) => emulator.run(&mut NullCrb, &mut pipeline),
        (Some(buf), Dispatch::Dyn) => {
            let crb: &mut dyn CrbModel = buf;
            let sink: &mut dyn TraceSink = &mut pipeline;
            emulator.run(crb, sink)
        }
        (None, Dispatch::Dyn) => {
            let crb: &mut dyn CrbModel = &mut NullCrb;
            let sink: &mut dyn TraceSink = &mut pipeline;
            emulator.run(crb, sink)
        }
    }
    .expect("suite workload emulates");
    let mut stats = pipeline.into_stats();
    if let Some(buf) = buffer {
        stats.crb = buf.stats();
    }
    (run, stats)
}

/// Compares two legs; per-region statistics are compared as sorted
/// lists so a mismatch names the region.
fn assert_same_leg(name: &str, leg: &str, a: (RunOutcome, SimStats), b: (RunOutcome, SimStats)) {
    let (run_a, mut stats_a) = a;
    let (run_b, mut stats_b) = b;
    assert_eq!(run_a, run_b, "{name} {leg}: run outcome differs");
    let mut regions_a: Vec<_> = stats_a.regions.drain().collect();
    let mut regions_b: Vec<_> = stats_b.regions.drain().collect();
    regions_a.sort_by_key(|(id, _)| id.index());
    regions_b.sort_by_key(|(id, _)| id.index());
    assert_eq!(regions_a, regions_b, "{name} {leg}: region stats differ");
    assert_eq!(stats_a, stats_b, "{name} {leg}: stats differ");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow in debug builds; run with --release")]
fn generic_and_dyn_dispatch_simulate_identically() {
    for name in NAMES {
        let compiled =
            ccr_bench::compile_benchmark(name, InputSet::Train, 1, &RegionConfig::paper());
        assert_same_leg(
            name,
            "base",
            simulate_with(&compiled.base, None, Dispatch::Concrete),
            simulate_with(&compiled.base, None, Dispatch::Dyn),
        );
        let crb = Some(CrbConfig::paper());
        let concrete = simulate_with(&compiled.annotated, crb, Dispatch::Concrete);
        assert!(concrete.0.reuse_hits > 0, "{name}: the CCR leg reuses");
        assert_same_leg(
            name,
            "ccr",
            concrete,
            simulate_with(&compiled.annotated, crb, Dispatch::Dyn),
        );
    }
}
