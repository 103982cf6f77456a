//! Experiment-engine equivalence tests.
//!
//! Two contracts are pinned here:
//!
//! 1. **Bit-identity**: `ccr exp <name>` renders byte-for-byte what
//!    the legacy per-figure binary printed — checked against the
//!    committed `results/` tables (which are exactly that stdout).
//! 2. **Deduplication**: the planner simulates each distinct
//!    (workload, region, machine, CRB) point exactly once across
//!    specs, and never re-compiles a (workload, region-config) pair —
//!    without changing any rendered number.

use ccr::regions::RegionConfig;
use ccr::sim::{simulate_baseline, CrbConfig, MachineConfig};
use ccr::workloads::{build, InputSet, NAMES};
use ccr_bench::exp::{self, specs};

fn render(name: &str) -> String {
    let spec = specs::find(name).expect("known spec");
    let plan = exp::plan(&[&spec]);
    let executed = exp::execute(&plan, 0).expect("known workloads, within limits");
    executed.results(&spec).render().text
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow in debug builds; run with --release")]
fn exp_fig4_matches_committed_table() {
    assert_eq!(
        render("fig4"),
        include_str!("../results/fig4_potential.txt"),
        "engine output for fig4 diverged from the legacy binary's table"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow in debug builds; run with --release")]
fn exp_fig8a_matches_committed_table() {
    assert_eq!(
        render("fig8a"),
        include_str!("../results/fig8a_instances.txt"),
        "engine output for fig8a diverged from the legacy binary's table"
    );
}

#[test]
fn registry_resolves_short_and_legacy_names() {
    let registry = specs::registry();
    assert_eq!(registry.len(), 8);
    for spec in &registry {
        assert!(specs::find(spec.name).is_some(), "{} by name", spec.name);
        assert!(
            specs::find(spec.output).is_some(),
            "{} by legacy binary name",
            spec.output
        );
    }
    assert!(specs::find("no_such_experiment").is_none());
}

#[test]
fn planner_dedupes_across_the_fig8_family() {
    let a = specs::fig8a();
    let b = specs::fig8b();
    let g = specs::fig9();
    let stats = exp::plan(&[&a, &b, &g]).stats;
    // 13 workloads × (3 + 3 + 1) scenarios.
    assert_eq!(stats.requested_points, 91);
    // Compiles depend only on the region config: fig8a's instance
    // sweep varies `trial_instances` (3 distinct configs), while all
    // of fig8b's entry sweep and fig9 reuse the 8-instance config.
    assert_eq!(stats.unique_compiles, 3 * 13);
    assert_eq!(stats.deduped_compiles, 4 * 13);
    // Baselines ignore the region config entirely (one per workload);
    // CCR points: 4/8/16 CI plus 32e/64e (128e/8CI is fig8a's middle
    // column, and fig9's paper CRB is the same point again).
    assert_eq!(stats.unique_sims, 13 * (1 + 5));
    assert_eq!(stats.deduped_sims, 2 * 91 - 13 * 6);
    assert!(stats.deduped_sims > 0);
}

#[test]
fn registry_plan_counts_are_pinned() {
    let registry = specs::registry();
    let selected: Vec<&exp::ExperimentSpec> = registry.iter().collect();
    let stats = exp::plan(&selected).stats;
    assert_eq!(stats.requested_points, 455);
    assert_eq!(stats.unique_compiles, 117);
    // 65 baselines (keyed on the machine fields a baseline reads) and
    // 286 CCR points.
    assert_eq!(stats.unique_sims, 351);
    assert_eq!(stats.deduped_sims, 559);
    assert_eq!(stats.potential_points, 13);
}

/// The premise of the baseline key: a baseline program has no `reuse`
/// instructions, so the three reuse-only machine fields never change
/// its simulation.
#[test]
#[cfg_attr(debug_assertions, ignore = "slow in debug builds; run with --release")]
fn baseline_sims_ignore_the_reuse_only_machine_fields() {
    let paper = MachineConfig::paper();
    let variants = [
        MachineConfig {
            reuse_hit_latency: paper.reuse_hit_latency + 4,
            ..paper
        },
        MachineConfig {
            reuse_miss_penalty: paper.reuse_miss_penalty * 3,
            ..paper
        },
        MachineConfig {
            speculative_validation: !paper.speculative_validation,
            ..paper
        },
    ];
    let emu = ccr_bench::emu_config();
    for name in NAMES {
        let mut program = build(name, InputSet::Train, 1).expect("known workload");
        ccr::opt::optimize(&mut program, ccr::opt::OptConfig::default());
        let reference = simulate_baseline(&program, &paper, emu).expect("within limits");
        for machine in &variants {
            assert_eq!(machine.baseline_fields(), paper.baseline_fields());
            let outcome = simulate_baseline(&program, machine, emu).expect("within limits");
            assert_eq!(outcome.run, reference.run, "{name}");
            assert_eq!(outcome.stats, reference.stats, "{name} under {machine:?}");
        }
    }
}

static TINY_WORKLOADS: [&str; 1] = ["bitcount"];

fn tiny_render(res: &exp::SpecResults<'_>) -> exp::Rendered {
    exp::Rendered {
        text: format!("{:.4}\n", res.runs(0)[0].measurement.speedup()),
        tables: Vec::new(),
    }
}

fn tiny_spec(name: &'static str) -> exp::ExperimentSpec {
    exp::ExperimentSpec {
        name,
        output: name,
        title: "planner test spec",
        workloads: &TINY_WORKLOADS,
        scenarios: vec![exp::Scenario::new(
            "paper",
            InputSet::Train,
            &RegionConfig::paper(),
            &MachineConfig::paper(),
            CrbConfig::paper(),
        )],
        potential: false,
        render: tiny_render,
    }
}

#[test]
fn shared_point_across_two_specs_runs_exactly_once() {
    let a = tiny_spec("tiny_a");
    let b = tiny_spec("tiny_b");
    let plan = exp::plan(&[&a, &b]);
    assert_eq!(plan.stats.requested_points, 2);
    assert_eq!(plan.stats.unique_compiles, 1);
    assert_eq!(plan.stats.deduped_compiles, 1);
    // One baseline + one CCR simulation serve both specs.
    assert_eq!(plan.stats.unique_sims, 2);
    assert_eq!(plan.stats.deduped_sims, 2);
    let executed = exp::execute(&plan, 1).expect("bitcount runs within limits");
    let ra = executed.results(&a).render().text;
    let rb = executed.results(&b).render().text;
    assert_eq!(ra, rb, "both specs must see the same shared measurement");
    let speedup: f64 = ra.trim().parse().expect("rendered speedup");
    assert!(speedup > 0.5, "implausible speedup {speedup}");
}

#[test]
fn point_summaries_flatten_each_unique_ccr_point_once() {
    let a = tiny_spec("tiny_a");
    let b = tiny_spec("tiny_b");
    let plan = exp::plan(&[&a, &b]);
    let executed = exp::execute(&plan, 1).expect("bitcount runs within limits");
    let points = executed.point_summaries();
    // The two specs share one (workload, config) point: one summary.
    assert_eq!(points.len(), 1);
    let p = &points[0];
    assert_eq!(p.workload, "bitcount");
    assert_eq!(p.input, "train");
    assert_eq!(
        p.config_hash,
        ccr::config_hash(&MachineConfig::paper(), &CrbConfig::paper()),
        "summary must carry the PR-2 config hash of its point"
    );
    assert!(p.base_cycles > 0 && p.ccr_cycles > 0);
    let expected = p.base_cycles as f64 / p.ccr_cycles as f64;
    assert!((p.speedup - expected).abs() < 1e-12);
    assert!((0.0..=1.0).contains(&p.hit_rate));
    assert!(p.regions > 0, "paper config must form regions on bitcount");
    let misses: u64 = p.miss_causes.iter().sum();
    assert!(
        p.hit_rate < 1.0 || misses == 0,
        "a perfect hit rate cannot coexist with classified misses"
    );
}
