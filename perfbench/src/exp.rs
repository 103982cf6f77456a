//! `exp-sweep`: the whole experiment registry (`ccr exp --all`)
//! through `Engine::execute_plan` with one worker per hardware thread,
//! every rendered table checked against the committed `results/`.

use std::path::Path;
use std::time::{Duration, Instant};

use ccr_bench::exp::{self, ExperimentSpec, Rendered};
use ccr_bench::Engine;
use ccr_core::harness::{Harness, HarnessOptions};
use ccr_core::jobs::resolve_jobs;
use ccr_workloads::{build, InputSet, NAMES};

use crate::report::{engine_metrics, median, quantile, EnginePass, Outcome};
use crate::trace::{root_tallies, Tracer};
use crate::Run;

/// Setups timed per run; the median is reported.
const SETUP_REPS: usize = 25;

/// Compares one spec's rendered text and CSV tables with the committed
/// files; returns (checked, mismatched).
fn check(root: &Path, spec: &ExperimentSpec, rendered: &Rendered) -> (u64, u64) {
    let dir = root.join("results");
    let mut files = vec![(format!("{}.txt", spec.output), rendered.text.clone())];
    for (name, table) in &rendered.tables {
        files.push((format!("{}.{name}.csv", spec.output), table.to_csv()));
    }
    let mut bad = 0;
    for (file, text) in &files {
        if std::fs::read_to_string(dir.join(file)).ok().as_deref() != Some(text.as_str()) {
            eprintln!("exp-sweep: results/{file} differs from the rendered table");
            bad += 1;
        }
    }
    (files.len() as u64, bad)
}

/// Set-up: the builds the sweep touches, the engine, the plan and the
/// harness log. Timed `SETUP_REPS` times; the median is returned.
fn setup_s(run: &Run, jobs: usize) -> f64 {
    let mut times = Vec::new();
    for rep in 0..SETUP_REPS {
        let start = Instant::now();
        for name in NAMES {
            for input in [InputSet::Train, InputSet::Ref] {
                build(name, input, 1).expect("known workload");
            }
        }
        let engine = Engine::new(jobs);
        let registry = exp::specs::registry();
        let specs: Vec<&ExperimentSpec> = registry.iter().collect();
        let plan = exp::plan(&specs);
        let tag = format!("setup{rep}");
        let harness = harness(run, &tag);
        times.push(start.elapsed().as_secs_f64());
        harness.finish();
        let _ = std::fs::remove_file(log_path(run, &tag));
        drop((engine, plan));
    }
    median(&times)
}

fn harness(run: &Run, tag: &str) -> Harness {
    Harness::start(&HarnessOptions {
        out: Some(log_path(run, tag)),
        ..HarnessOptions::default()
    })
    .expect("harness log in the output directory")
}

fn log_path(run: &Run, tag: &str) -> std::path::PathBuf {
    run.out
        .join(format!("harness-exp-sweep-{}-{tag}.jsonl", run.seed))
}

/// One pass on a fresh engine; `t` wraps each public call in a span
/// when enabled.
fn pass(
    run: &Run,
    tag: &str,
    jobs: usize,
    specs: &[&ExperimentSpec],
    plan: &exp::Plan<'_>,
    t: &Tracer,
    o: &mut Outcome,
) -> Result<EnginePass, String> {
    let engine = Engine::new(jobs);
    let harness = harness(run, tag);
    let start = Instant::now();
    let root = t.begin("bench.sweep", Tracer::ROOT, 0, false);
    let executed = t.span("engine.execute_plan", root, 0, false, |_| {
        engine.execute_plan(plan, &harness, None, None)
    })?;
    let rendered: Vec<Rendered> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            t.span("exp.render", root, i as u64, false, |_| {
                executed.results(spec).render()
            })
        })
        .collect();
    let wall_s = start.elapsed().as_secs_f64();
    t.span("bench.check", root, 0, true, |_| {
        for (spec, r) in specs.iter().zip(&rendered) {
            let (n, bad) = check(&run.root, spec, r);
            o.count(n, bad);
        }
    });
    t.end(root);
    harness.finish();
    Ok(EnginePass::read(&engine, wall_s, &log_path(run, tag)))
}

/// Runs the sweep: untraced passes until the run's time is up, or —
/// traced — untraced and traced passes alternating.
pub fn run(run: &Run, t: &Tracer, o: &mut Outcome) -> Result<(), String> {
    let jobs = resolve_jobs(Some(0));
    let setup = if t.enabled() { 0.0 } else { setup_s(run, jobs) };
    let registry = exp::specs::registry();
    let specs: Vec<&ExperimentSpec> = registry.iter().collect();
    let plan = exp::plan(&specs);
    let off = Tracer::new(false);
    let start = Instant::now();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut last = Duration::ZERO;
    while untraced.is_empty() || crate::another_round(start, last, run.seconds) {
        let round = Instant::now();
        untraced.push(pass(
            run,
            &format!("p{}", untraced.len()),
            jobs,
            &specs,
            &plan,
            &off,
            o,
        )?);
        if t.enabled() {
            traced.push(pass(
                run,
                &format!("t{}", traced.len()),
                jobs,
                &specs,
                &plan,
                t,
                o,
            )?);
        }
        last = round.elapsed();
    }
    eprintln!(
        "exp-sweep: {} pass(es) at jobs {jobs}; {} requested point(s), {} compile(s) per pass",
        untraced.len(),
        plan.stats.requested_points,
        untraced[0].log.compiles
    );
    let per = |ps: &[EnginePass], f: &dyn Fn(&EnginePass) -> f64| {
        median(&ps.iter().map(f).collect::<Vec<_>>())
    };
    if !t.enabled() {
        // One pass is one request: what `ccr exp --all` is to its user.
        let walls_ms: Vec<f64> = untraced.iter().map(|p| p.wall_s * 1e3).collect();
        o.metric("setup_s", setup, "s");
        o.metric("wall_s", per(&untraced, &|p| p.wall_s), "s");
        o.metric(
            "compile_s",
            per(&untraced, &|p| p.log.compile_ms as f64 / 1e3),
            "s",
        );
        o.metric(
            "sim_mcyc_per_s",
            per(&untraced, &|p| {
                p.log.sim_cycles as f64 / (p.log.sim_ms as f64 / 1e3) / 1e6
            }),
            "Mcyc/s",
        );
        o.metric(
            "points_per_s",
            per(&untraced, &|p| {
                plan.stats.requested_points as f64 / p.wall_s
            }),
            "1/s",
        );
        o.metric("req_p50_ms", quantile(&walls_ms, 0.5), "ms");
        o.metric("req_p95_ms", quantile(&walls_ms, 0.95), "ms");
        o.metric("peak_rss_mb", crate::report::peak_rss_mb("self"), "MiB");
        return Ok(());
    }

    engine_metrics(o, &untraced.iter().collect::<Vec<_>>());

    let tallies = root_tallies(&t.spans(), "bench.sweep");
    let walls: Vec<f64> = tallies.iter().map(|r| r.wall_ns as f64 / 1e9).collect();
    let accounted: Vec<f64> = tallies.iter().map(|r| r.layer_ns as f64 / 1e9).collect();
    let untraced_wall = per(&untraced, &|p| p.wall_s);
    let traced_wall = median(&walls);
    o.metric(
        "trace.overhead_pct",
        100.0 * (traced_wall - untraced_wall) / untraced_wall,
        "%",
    );
    o.metric(
        "trace.accounted_pct",
        100.0 * median(&accounted) / traced_wall,
        "%",
    );
    Ok(())
}
