//! Execution-engine contracts.
//!
//! The engine layer (`ccr_bench::Engine`) exists so `ccr serve` can
//! keep one job pool, compile cache, and sim-result cache alive
//! across requests. Three things are pinned here:
//!
//! 1. **Bit-identity**: routing a plan through a fresh engine — every
//!    cache lookup a cold miss — produces exactly the same rendered
//!    tables and per-point statistics as the historical uncached
//!    path. Caching may only change *when* work runs, never what it
//!    computes.
//! 2. **Deterministic dedup**: two concurrent overlapping sweeps
//!    through one shared engine compile and simulate each shared
//!    point exactly once, with *pinned* hit/miss totals — the
//!    single-flight discipline makes the counters deterministic, not
//!    merely bounded. That holds for fanned simulation groups too: two
//!    racing overlapping plans give the serial run's outcomes and
//!    totals.
//! 3. **Cache mechanics**: LRU eviction order, the capacity-0
//!    degenerate case, error non-caching, the eviction exemption of
//!    reuse-potential entries, and multi-key group lookups that run
//!    each key once without deadlock.
//! 4. **The profile stage**: the compile cache value-profiles each
//!    training build once (13 profiles for the registry's 117
//!    compiles, one under an eight-thread race), never caches a
//!    profiling error, and a compile served through it equals a
//!    direct `compile_ccr`.

use std::sync::atomic::{AtomicU64, Ordering};

use ccr::profile::RunOutcome;
use ccr::regions::RegionConfig;
use ccr::sim::{CrbConfig, MachineConfig, SimOutcome, SimStats};
use ccr::telemetry::MetricsRegistry;
use ccr::workloads::InputSet;
use ccr::CompileConfig;
use ccr_bench::{exp, CachedSim, Engine, SimResultCache};

static TINY_WORKLOADS: [&str; 2] = ["bitcount", "lex"];

fn tiny_render(res: &exp::SpecResults<'_>) -> exp::Rendered {
    let mut text = String::new();
    for (i, _) in TINY_WORKLOADS.iter().enumerate() {
        let run = &res.runs(0)[i];
        text.push_str(&format!(
            "{} {} {} {:.6}\n",
            TINY_WORKLOADS[i],
            run.measurement.base.stats.cycles,
            run.measurement.ccr.stats.cycles,
            run.measurement.speedup()
        ));
    }
    exp::Rendered {
        text,
        tables: Vec::new(),
    }
}

fn tiny_spec(name: &'static str) -> exp::ExperimentSpec {
    exp::ExperimentSpec {
        name,
        output: name,
        title: "engine equivalence test spec",
        workloads: &TINY_WORKLOADS,
        scenarios: vec![exp::Scenario::new(
            "paper",
            InputSet::Train,
            &RegionConfig::paper(),
            &MachineConfig::paper(),
            CrbConfig::paper(),
        )],
        potential: true,
        render: tiny_render,
    }
}

/// The simulated fields of a point summary — everything except host
/// wall time, which legitimately differs across runs.
fn sim_view(points: &[exp::PointSummary]) -> Vec<String> {
    points
        .iter()
        .map(|p| {
            format!(
                "{} {} {} {} {} {} {:.12} {:.12} {:?} {}",
                p.workload,
                p.input,
                p.scale,
                p.config_hash,
                p.base_cycles,
                p.ccr_cycles,
                p.speedup,
                p.hit_rate,
                p.miss_causes,
                p.regions
            )
        })
        .collect()
}

#[test]
fn engine_path_is_bit_identical_to_the_uncached_path() {
    let spec = tiny_spec("tiny_engine");
    let plan = exp::plan(&[&spec]);

    let plain = exp::execute(&plan, 2).expect("tiny workloads run within limits");
    let engine = Engine::new(2);
    let routed = engine
        .execute_plan(&plan, &ccr::Harness::disabled(), None, None)
        .expect("engine run succeeds");

    assert_eq!(
        plain.results(&spec).render().text,
        routed.results(&spec).render().text,
        "the engine must not change a single rendered byte"
    );
    assert_eq!(
        sim_view(&plain.point_summaries()),
        sim_view(&routed.point_summaries()),
    );
    // A fresh engine serves nothing from its result cache: every
    // lookup is a cold miss (2 workloads x 2 sims + 2 potentials).
    assert_eq!(engine.result_cache().hits(), 0);
    assert_eq!(engine.result_cache().misses(), 6);
    assert_eq!(engine.result_cache().evictions(), 0);
}

#[test]
fn repeated_plan_is_served_entirely_from_the_caches() {
    let spec = tiny_spec("tiny_repeat");
    let plan = exp::plan(&[&spec]);
    let engine = Engine::new(2);
    let harness = ccr::Harness::disabled();

    let first = engine.execute_plan(&plan, &harness, None, None).unwrap();
    let again = engine.execute_plan(&plan, &harness, None, None).unwrap();
    assert_eq!(
        first.results(&spec).render().text,
        again.results(&spec).render().text,
        "a cache hit must reproduce the original result exactly"
    );
    // Second pass: 2 compiles, 4 sims, 2 potentials — all hits.
    assert_eq!(engine.compile_cache().hits(), 2);
    assert_eq!(engine.compile_cache().misses(), 2);
    assert_eq!(engine.result_cache().hits(), 6);
    assert_eq!(engine.result_cache().misses(), 6);
}

#[test]
fn concurrent_overlapping_sweeps_dedup_with_pinned_counts() {
    let engine = Engine::new(2);
    // Two clients sweep the same two-workload selection concurrently
    // through one shared engine. Single-flight pins the totals: each
    // of the 2 compiles and 4 sims runs exactly once, and the client
    // that lost the race counts a hit — whichever client that is.
    let runs: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let engine = &engine;
                scope.spawn(move || {
                    engine.run_selected(
                        &TINY_WORKLOADS,
                        InputSet::Train,
                        1,
                        &CompileConfig::paper(),
                        &MachineConfig::paper(),
                        CrbConfig::paper(),
                        ccr_bench::emu_config(),
                        &ccr::Harness::disabled(),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread").expect("sweep succeeds"))
            .collect()
    });
    assert_eq!(engine.compile_cache().hits(), 2);
    assert_eq!(engine.compile_cache().misses(), 2);
    assert_eq!(engine.result_cache().hits(), 4);
    assert_eq!(engine.result_cache().misses(), 4);
    // Both clients observe identical simulated statistics.
    for (a, b) in runs[0].iter().zip(&runs[1]) {
        assert_eq!(a.name, b.name);
        assert_eq!(
            a.measurement.base.stats.cycles,
            b.measurement.base.stats.cycles
        );
        assert_eq!(
            a.measurement.ccr.stats.cycles,
            b.measurement.ccr.stats.cycles
        );
    }
}

/// A tiny sweep whose scenarios share event streams: the paper
/// machine, a wider one and a harsher reuse-miss penalty all read the
/// paper CRB's stream, and a 16-instance CRB compiles under its own
/// region configuration.
fn fanned_spec(name: &'static str, extra: MachineConfig) -> exp::ExperimentSpec {
    let paper = MachineConfig::paper();
    let crb16 = CrbConfig {
        instances: 16,
        ..CrbConfig::paper()
    };
    let region = RegionConfig::paper();
    exp::ExperimentSpec {
        scenarios: vec![
            exp::Scenario::new(
                "paper",
                InputSet::Train,
                &region,
                &paper,
                CrbConfig::paper(),
            ),
            exp::Scenario::new(
                "extra",
                InputSet::Train,
                &region,
                &extra,
                CrbConfig::paper(),
            ),
            exp::Scenario::new("ci16", InputSet::Train, &region, &paper, crb16),
        ],
        ..tiny_spec(name)
    }
}

#[test]
fn concurrent_overlapping_plans_match_serial_execution() {
    let paper = MachineConfig::paper();
    let wide = MachineConfig {
        issue_width: 8,
        int_alus: 5,
        mem_ports: 2,
        ..paper
    };
    let harsh = MachineConfig {
        reuse_miss_penalty: 16,
        ..paper
    };
    let a = fanned_spec("fan_a", wide);
    let b = fanned_spec("fan_b", harsh);
    let plans = [exp::plan(&[&a]), exp::plan(&[&a, &b])];
    let harness = ccr::Harness::disabled();

    let serial = Engine::new(2);
    let expected: Vec<_> = plans
        .iter()
        .map(|plan| {
            sim_view(
                &serial
                    .execute_plan(plan, &harness, None, None)
                    .unwrap()
                    .point_summaries(),
            )
        })
        .collect();

    let shared = Engine::new(2);
    let barrier = std::sync::Barrier::new(2);
    let observed: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .map(|plan| {
                let (shared, harness, barrier) = (&shared, &harness, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    let executed = shared.execute_plan(plan, harness, None, None).unwrap();
                    sim_view(&executed.point_summaries())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    assert_eq!(
        observed, expected,
        "racing plans must compute what serial plans do"
    );
    // Single-flight over whole groups: each unique compile, sim and
    // potential still runs exactly once, so the totals are the serial
    // run's whoever wins each race.
    let totals = |e: &Engine| {
        (
            e.compile_cache().hits(),
            e.compile_cache().misses(),
            e.result_cache().hits(),
            e.result_cache().misses(),
        )
    };
    assert_eq!(totals(&shared), totals(&serial));
    // Plan A: 4 compiles (two region configurations), 4 baselines
    // (two machine widths), 6 CCR points and 2 potentials; plan B
    // repeats all of it and adds the 2 harsh-penalty CCR points.
    assert_eq!(totals(&serial), (4, 4, 12, 14));
}

fn sim_of(cycles: u64) -> CachedSim {
    CachedSim {
        outcome: SimOutcome {
            run: RunOutcome {
                returned: Vec::new(),
                dyn_instrs: 0,
                skipped_instrs: 0,
                reuse_hits: 0,
                reuse_misses: 0,
            },
            stats: SimStats {
                cycles,
                ..SimStats::default()
            },
        },
        wall_ms: 1,
        fingerprint: String::new(),
    }
}

#[test]
fn result_cache_evicts_least_recently_used() {
    let metrics = MetricsRegistry::new();
    let cache = SimResultCache::new(2, &metrics);
    cache.get_or_run("a", || Ok(sim_of(1))).unwrap();
    cache.get_or_run("b", || Ok(sim_of(2))).unwrap();
    // Touch `a` so `b` becomes the least recently used entry.
    cache
        .get_or_run("a", || unreachable!("a is cached"))
        .unwrap();
    cache.get_or_run("c", || Ok(sim_of(3))).unwrap();
    assert_eq!(cache.len(), 2);
    assert_eq!(cache.evictions(), 1);
    // `a` and `c` survive; `b` was evicted and must recompute.
    cache
        .get_or_run("a", || unreachable!("a survives"))
        .unwrap();
    cache
        .get_or_run("c", || unreachable!("c survives"))
        .unwrap();
    let recomputed = cache.get_or_run("b", || Ok(sim_of(2))).unwrap();
    assert_eq!(recomputed.outcome.stats.cycles, 2);
    assert_eq!(cache.hits(), 3);
    assert_eq!(cache.misses(), 4);
}

#[test]
fn zero_capacity_cache_retains_nothing_but_still_runs() {
    let metrics = MetricsRegistry::new();
    let cache = SimResultCache::new(0, &metrics);
    assert_eq!(cache.get_or_run("k", || Ok(sim_of(7))).unwrap().wall_ms, 1);
    assert!(cache.is_empty());
    // The same key misses again: nothing was retained.
    cache.get_or_run("k", || Ok(sim_of(7))).unwrap();
    assert_eq!(cache.hits(), 0);
    assert_eq!(cache.misses(), 2);
    assert_eq!(cache.evictions(), 2);
}

#[test]
fn errors_are_never_cached() {
    let metrics = MetricsRegistry::new();
    let cache = SimResultCache::new(8, &metrics);
    let Err(err) = cache.get_or_run("k", || Err("emulator limit".to_string())) else {
        panic!("a failing computation must surface its error");
    };
    assert_eq!(err, "emulator limit");
    assert!(cache.is_empty());
    // A later caller retries with its own computation and succeeds.
    cache.get_or_run("k", || Ok(sim_of(9))).unwrap();
    cache
        .get_or_run("k", || unreachable!("now cached"))
        .unwrap();
    assert_eq!(cache.hits(), 1);
    assert_eq!(cache.misses(), 2);
}

#[test]
fn single_flight_runs_each_key_exactly_once_under_contention() {
    let metrics = MetricsRegistry::new();
    let cache = SimResultCache::new(8, &metrics);
    let computations = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| {
                cache
                    .get_or_run("shared", || {
                        computations.fetch_add(1, Ordering::SeqCst);
                        // Widen the race window so waiters actually block.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        Ok(sim_of(5))
                    })
                    .unwrap();
            });
        }
    });
    assert_eq!(computations.load(Ordering::SeqCst), 1);
    assert_eq!(cache.misses(), 1);
    assert_eq!(cache.hits(), 7);
}

#[test]
fn group_lookups_run_each_key_once_without_deadlock() {
    let metrics = MetricsRegistry::new();
    let cache = SimResultCache::new(64, &metrics);
    let runs: std::sync::Mutex<Vec<String>> = std::sync::Mutex::new(Vec::new());
    let keys: Vec<String> = (0..6).map(|i| format!("k{i}")).collect();
    let barrier = std::sync::Barrier::new(6);
    std::thread::scope(|scope| {
        for t in 0..6 {
            let (cache, runs, keys, barrier) = (&cache, &runs, &keys, &barrier);
            scope.spawn(move || {
                // Overlapping windows in opposite orders, so threads
                // hold keys the others wait for.
                let mut mine: Vec<String> = (0..3).map(|j| keys[(t + j) % 6].clone()).collect();
                if t % 2 == 1 {
                    mine.reverse();
                }
                barrier.wait();
                let values = cache
                    .get_or_run_group(&mine, |idx| {
                        std::thread::sleep(std::time::Duration::from_millis(10));
                        let mut runs = runs.lock().unwrap();
                        Ok(idx
                            .iter()
                            .map(|&i| {
                                runs.push(mine[i].clone());
                                sim_of(mine[i][1..].parse().unwrap())
                            })
                            .collect())
                    })
                    .unwrap();
                for (key, v) in mine.iter().zip(&values) {
                    assert_eq!(v.outcome.stats.cycles, key[1..].parse::<u64>().unwrap());
                }
            });
        }
    });
    let mut ran = runs.into_inner().unwrap();
    ran.sort();
    assert_eq!(ran, keys, "each key computed exactly once");
    assert_eq!(cache.misses(), 6);
    assert_eq!(cache.hits(), 12);
}

#[test]
fn group_errors_are_never_cached() {
    let metrics = MetricsRegistry::new();
    let cache = SimResultCache::new(8, &metrics);
    let keys = ["a".to_string(), "b".to_string()];
    cache.get_or_run("a", || Ok(sim_of(1))).unwrap();
    let Err(err) = cache.get_or_run_group(&keys, |idx| {
        assert_eq!(idx, [1], "only the missing key runs");
        Err("emulator limit".to_string())
    }) else {
        panic!("a failing group must surface its error");
    };
    assert_eq!(err, "emulator limit");
    assert_eq!(cache.len(), 1);
    let values = cache
        .get_or_run_group(&keys, |idx| Ok(idx.iter().map(|_| sim_of(2)).collect()))
        .unwrap();
    assert_eq!(values[0].outcome.stats.cycles, 1);
    assert_eq!(values[1].outcome.stats.cycles, 2);
    assert_eq!((cache.hits(), cache.misses()), (2, 3));
}

#[test]
fn potential_entries_are_exempt_from_eviction() {
    let metrics = MetricsRegistry::new();
    let cache = SimResultCache::new(1, &metrics);
    let pot = ccr::profile::ReusePotential::default();
    cache
        .get_or_run_potential("pot|w|train|1", || Ok(pot))
        .unwrap();
    // Churn the sim side well past capacity.
    for i in 0..5 {
        cache
            .get_or_run(&format!("sim{i}"), || Ok(sim_of(i)))
            .unwrap();
    }
    assert!(cache.evictions() > 0, "sim churn must have evicted");
    // The potential entry survived every eviction.
    cache
        .get_or_run_potential("pot|w|train|1", || unreachable!("never evicted"))
        .unwrap();
    assert_eq!(cache.hits(), 1);
}

/// Every distinct compile configuration of the experiment registry,
/// as `(target input, config)` pairs in first-encounter order.
fn registry_compile_configs() -> Vec<(InputSet, CompileConfig)> {
    let mut out: Vec<(InputSet, CompileConfig)> = Vec::new();
    for spec in exp::specs::registry() {
        for sc in &spec.scenarios {
            let config = sc.compile_config();
            let seen = out.iter().any(|(input, c)| {
                *input == sc.input && c.region.fields() == config.region.fields()
            });
            if !seen {
                out.push((sc.input, config));
            }
        }
    }
    out
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow in debug builds; run with --release")]
fn registry_plan_profiles_each_training_build_once() {
    let specs = exp::specs::registry();
    let selected: Vec<&exp::ExperimentSpec> = specs.iter().collect();
    let plan = exp::plan(&selected);
    let engine = Engine::new(2);
    let executed = engine
        .execute_plan(&plan, &ccr::Harness::disabled(), None, None)
        .expect("the registry runs within limits");
    // 117 compiles over 13 workloads: 9 compile keys per workload
    // share one value profile.
    assert_eq!(executed.cache_stats(), (0, 117));
    assert_eq!(executed.profile_cache_stats(), (104, 13));
    assert_eq!(engine.compile_cache().profile_misses(), 13);
    assert_eq!(engine.compile_cache().profile_hits(), 104);
    // Every compile asks for a reiteration trial, but only 75 are
    // distinct: a reference-input compile shares its training twin's
    // trial, and region configs that form identical specs share one.
    assert_eq!(engine.compile_cache().trial_misses(), 75);
    assert_eq!(engine.compile_cache().trial_hits(), 42);
}

#[test]
fn racing_compiles_of_one_workload_profile_it_once() {
    // Eight threads compile the same workload under eight region
    // configurations at once: eight compile keys, one profile key.
    let cache = ccr_bench::CompileCache::new();
    let barrier = std::sync::Barrier::new(8);
    let compiled: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8u32)
            .map(|i| {
                let (cache, barrier) = (&cache, &barrier);
                scope.spawn(move || {
                    let config = CompileConfig {
                        region: RegionConfig {
                            trial_instances: 1 + i as usize,
                            ..RegionConfig::paper()
                        },
                        emu: ccr_bench::emu_config(),
                        ..CompileConfig::paper()
                    };
                    barrier.wait();
                    cache
                        .get_or_compile("bitcount", InputSet::Train, 1, &config)
                        .expect("bitcount compiles")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("compile thread"))
            .collect()
    });
    assert_eq!(cache.misses(), 8);
    assert_eq!(cache.hits(), 0);
    assert_eq!(cache.profile_misses(), 1);
    assert_eq!(cache.profile_hits(), 7);
    // Every compile holds the one cached profile allocation.
    for cw in &compiled[1..] {
        assert!(std::sync::Arc::ptr_eq(&cw.profile, &compiled[0].profile));
    }
}

#[test]
fn profile_stage_errors_are_never_cached() {
    let cache = ccr_bench::CompileCache::new();
    let starved = CompileConfig {
        emu: ccr::profile::EmuConfig {
            max_instrs: 1_000,
            max_depth: 64,
        },
        ..CompileConfig::paper()
    };
    for attempt in 1..=2 {
        let err = cache
            .get_or_compile("bitcount", InputSet::Train, 1, &starved)
            .expect_err("the profiling run exceeds the instruction limit");
        assert!(err.starts_with("bitcount: "), "{err}");
        // Each attempt profiles afresh: neither stage kept the error.
        assert_eq!(cache.profile_misses(), attempt);
        assert_eq!(cache.misses(), attempt);
    }
    assert_eq!(cache.profile_hits(), 0);
    assert_eq!(cache.hits(), 0);
}

/// Two workloads in debug builds; every workload in release builds.
#[test]
fn cache_served_compiles_equal_direct_compiles() {
    let configs = registry_compile_configs();
    assert_eq!(configs.len(), 9, "nine compile keys per workload");
    let names: Vec<&str> = if cfg!(debug_assertions) {
        vec!["bitcount", "129.compress"]
    } else {
        ccr::workloads::NAMES.to_vec()
    };
    let cache = ccr_bench::CompileCache::new();
    for &name in &names {
        for (input, config) in &configs {
            let cached = cache
                .get_or_compile(name, *input, 1, config)
                .expect("compiles");
            let train = ccr::workloads::build(name, InputSet::Train, 1).unwrap();
            let target = ccr::workloads::build(name, *input, 1).unwrap();
            let direct = ccr::compile_ccr(&train, &target, config).expect("compiles");
            assert_eq!(
                cached.annotated.to_string(),
                direct.annotated.to_string(),
                "{name} annotated IR"
            );
            assert_eq!(cached.base.to_string(), direct.base.to_string());
            assert_eq!(cached.regions, direct.regions, "{name} regions");
            assert_eq!(
                cached.telemetry.formation, direct.telemetry.formation,
                "{name} formation stats"
            );
            assert_eq!(*cached.profile, *direct.profile, "{name} profile");
            // The optimizer ran the same passes with the same effect
            // (wall time aside), whether or not the target build was
            // optimized separately from the training build.
            let shape = |cw: &ccr::CompiledWorkload| -> Vec<_> {
                cw.telemetry
                    .passes
                    .iter()
                    .map(|r| {
                        (
                            r.pass,
                            r.changes,
                            r.instrs_before,
                            r.instrs_after,
                            r.blocks_before,
                            r.blocks_after,
                        )
                    })
                    .collect()
            };
            assert_eq!(shape(&cached), shape(&direct), "{name} pass records");
        }
    }
    let n = names.len() as u64;
    assert_eq!(cache.profile_misses(), n);
    assert_eq!(cache.profile_hits(), 8 * n);
    assert_eq!(cache.trial_hits() + cache.trial_misses(), 9 * n);
}
