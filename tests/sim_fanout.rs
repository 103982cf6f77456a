//! Fan-out equivalence over the whole experiment registry.
//!
//! The engine runs each distinct emulator+CRB event stream once and
//! drives one pipeline per distinct machine from it
//! (`ccr::sim::simulate_group`). That is sound only because the timing
//! model never feeds back into the emulator or the buffer. This test
//! checks the premise on every stream the registry plan has: each
//! fanned pipeline, each unit's own per-unit simulation and the
//! outcome the engine recorded must agree field by field — including
//! units whose compile differs from the group's but whose annotated
//! program is equal in content.

use ccr::sim::{simulate, simulate_group, SimOutcome, SimStats};
use ccr_bench::exp::{self, specs};
use ccr_bench::{emu_config, stream_groups};

/// Asserts two outcomes equal field by field, naming the first field
/// that differs (per-region statistics compared in region order).
fn assert_same(what: &str, a: &SimOutcome, b: &SimOutcome) {
    assert_eq!(a.run, b.run, "{what}: run outcome");
    let (x, y) = (&a.stats, &b.stats);
    macro_rules! fields {
        ($($f:ident),*) => {
            $(assert_eq!(x.$f, y.$f, "{what}: {}", stringify!($f));)*
        };
    }
    fields!(
        cycles,
        dyn_instrs,
        skipped_instrs,
        icache_hits,
        icache_misses,
        dcache_hits,
        dcache_misses,
        branch_correct,
        branch_mispredicts,
        reuse_hits,
        reuse_misses,
        crb,
        attribution
    );
    let sorted = |s: &SimStats| {
        let mut regions: Vec<_> = s.regions.iter().map(|(r, d)| (*r, *d)).collect();
        regions.sort_by_key(|(r, _)| *r);
        regions
    };
    assert_eq!(sorted(x), sorted(y), "{what}: regions");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow in debug builds; run with --release")]
fn every_registry_stream_fans_out_exactly() {
    let registry = specs::registry();
    let selected: Vec<&exp::ExperimentSpec> = registry.iter().collect();
    let plan = exp::plan(&selected);
    let executed = exp::execute(&plan, 2).expect("the registry runs within limits");
    let groups = stream_groups(&plan, &executed);

    // 26 baseline and 164 CCR streams; 65 baseline and 255 CCR
    // pipelines; the remaining 31 CCR units share a pipeline with a
    // content-equal unit of another compile.
    let members: usize = groups.iter().map(|g| g.members.len()).sum();
    let pipelines: usize = groups.iter().map(|g| g.machines.len()).sum();
    let base_streams = groups.iter().filter(|g| g.crb.is_none()).count();
    assert_eq!((groups.len(), pipelines, members), (190, 320, 351));
    assert_eq!(base_streams, 26);
    let foreign = groups
        .iter()
        .flat_map(|g| g.members.iter().map(move |m| (g, m)))
        .filter(|(g, m)| !std::ptr::eq(g.program, m.program))
        .count();
    assert!(foreign >= 31, "content-equal compiles must share streams");

    ccr::parallel_map(&groups, 2, |_, group| {
        let fanned = simulate_group(group.program, &group.machines, group.crb, emu_config())
            .expect("within limits");
        assert_eq!(fanned.len(), group.machines.len());
        for m in &group.members {
            let single =
                simulate(m.program, &m.machine, group.crb, emu_config()).expect("within limits");
            assert_same(&format!("{} fanned", m.key), &fanned[m.pipeline], &single);
            assert_same(&format!("{} engine", m.key), m.outcome, &single);
        }
    });
}
