//! `suite-cold`: the thirteen workloads at scale 1 on the training
//! input, each pass on a fresh single-worker engine — the path of
//! `ccr bench --jobs 1`. The seed shuffles the workload order.

use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

use ccr_analyze::{BenchReport, BenchWorkload};
use ccr_bench::Engine;
use ccr_core::harness::{Harness, HarnessOptions};
use ccr_sim::SimOutcome;
use ccr_workloads::{build, InputSet, NAMES};

use crate::probe::{self, BenchConfig, Counts};
use crate::report::{engine_metrics, median, quantile, EnginePass, Outcome};
use crate::stream::suite_order;
use crate::trace::{root_tallies, Tracer};
use crate::Run;

/// Committed per-workload statistics every cold pass must reproduce.
pub struct Expected(HashMap<String, BenchWorkload>);

impl Expected {
    /// Reads `BENCH_ccr.json` (scale 1, training input).
    pub fn load(root: &Path) -> Result<Expected, String> {
        let path = root.join("BENCH_ccr.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let report = BenchReport::from_json(&text)?;
        if report.scale != 1 || report.input != "train" {
            return Err(format!(
                "{}: not a scale-1 training-input baseline",
                path.display()
            ));
        }
        Ok(Expected(
            report
                .workloads
                .into_iter()
                .map(|w| (w.name.clone(), w))
                .collect(),
        ))
    }

    /// True when a workload's statistics equal the committed ones.
    pub fn matches(&self, name: &str, base: &SimOutcome, ccr: &SimOutcome, regions: usize) -> bool {
        let Some(w) = self.0.get(name) else {
            return false;
        };
        let lookups = ccr.stats.reuse_hits + ccr.stats.reuse_misses;
        let hit_rate = if lookups == 0 {
            0.0
        } else {
            ccr.stats.reuse_hits as f64 / lookups as f64
        };
        let ok = w.base_cycles == base.stats.cycles
            && w.ccr_cycles == ccr.stats.cycles
            && w.hit_rate == hit_rate
            && w.regions == regions as u64
            && base.run.returned == ccr.run.returned;
        if !ok {
            eprintln!("suite-cold: {name}: statistics differ from BENCH_ccr.json");
        }
        ok
    }
}

/// One untraced pass through the engine.
struct Pass {
    setup_s: f64,
    cycles: u64,
    unit_ms: Vec<f64>,
    engine: EnginePass,
}

fn engine_pass(run: &Run, pass: usize, expected: &Expected, o: &mut Outcome) -> Pass {
    let cfg = BenchConfig::cli_default();
    let order = suite_order(run.seed, pass);
    let log_path = run
        .out
        .join(format!("harness-suite-cold-{}-{pass}.jsonl", run.seed));

    let setup = Instant::now();
    for name in NAMES {
        build(name, InputSet::Train, 1).expect("known workload");
    }
    let engine = Engine::new(1);
    let harness = Harness::start(&HarnessOptions {
        out: Some(log_path.clone()),
        ..HarnessOptions::default()
    })
    .expect("harness log in the output directory");
    let setup_s = setup.elapsed().as_secs_f64();

    // One `run_selected` call per workload, in the seeded order: the
    // same cold work as one call over all thirteen, with each unit's
    // compile + base + CCR latency timed on its own.
    let mut cycles = 0;
    let mut unit_ms = Vec::new();
    let start = Instant::now();
    for name in &order {
        let unit = Instant::now();
        let runs = engine.run_selected(
            std::slice::from_ref(name),
            InputSet::Train,
            1,
            &cfg.compile,
            &cfg.machine,
            cfg.crb,
            cfg.emu,
            &harness,
        );
        unit_ms.push(unit.elapsed().as_secs_f64() * 1e3);
        let ok = match &runs {
            Ok(runs) => {
                let (r, m) = (&runs[0], &runs[0].measurement);
                cycles += m.base.stats.cycles + m.ccr.stats.cycles;
                expected.matches(r.name, &m.base, &m.ccr, r.compiled.regions.len())
            }
            Err(e) => {
                eprintln!("suite-cold: {e}");
                false
            }
        };
        o.count(1, u64::from(!ok));
    }
    let wall_s = start.elapsed().as_secs_f64();
    harness.finish();

    Pass {
        setup_s,
        cycles,
        unit_ms,
        engine: EnginePass::read(&engine, wall_s, &log_path),
    }
}

fn passes(
    run: &Run,
    expected: &Expected,
    o: &mut Outcome,
    mut traced: impl FnMut(usize, &mut Outcome),
) -> Vec<Pass> {
    let start = Instant::now();
    let mut out = Vec::new();
    let mut last = Duration::ZERO;
    while out.is_empty() || crate::another_round(start, last, run.seconds) {
        let round = Instant::now();
        out.push(engine_pass(run, out.len(), expected, o));
        traced(out.len() - 1, o);
        last = round.elapsed();
    }
    out
}

/// The untraced run: end-to-end metrics.
pub fn run(run: &Run, o: &mut Outcome) -> Result<(), String> {
    let expected = Expected::load(&run.root)?;
    let ps = passes(run, &expected, o, |_, _| {});
    let per = |f: &dyn Fn(&Pass) -> f64| median(&ps.iter().map(f).collect::<Vec<_>>());
    let units: Vec<f64> = ps.iter().flat_map(|p| p.unit_ms.iter().copied()).collect();
    eprintln!(
        "suite-cold: {} pass(es), {} unit(s) of compile+base+ccr",
        ps.len(),
        units.len()
    );
    o.metric("setup_s", per(&|p| p.setup_s), "s");
    o.metric("wall_s", per(&|p| p.engine.wall_s), "s");
    o.metric(
        "compile_s",
        per(&|p| p.engine.log.compile_busy_ns as f64 / 1e9),
        "s",
    );
    o.metric(
        "sim_mcyc_per_s",
        per(&|p| p.cycles as f64 / (p.engine.log.sim_busy_ns as f64 / 1e9) / 1e6),
        "Mcyc/s",
    );
    o.metric(
        "points_per_s",
        per(&|p| NAMES.len() as f64 / p.engine.wall_s),
        "1/s",
    );
    o.metric("req_p50_ms", quantile(&units, 0.5), "ms");
    o.metric("req_p95_ms", quantile(&units, 0.95), "ms");
    o.metric("peak_rss_mb", crate::report::peak_rss_mb("self"), "MiB");
    Ok(())
}

/// The traced run: engine passes alternate with traced passes that
/// make the same calls layer by layer, plus the stage re-runs.
pub fn run_traced(run: &Run, t: &Tracer, o: &mut Outcome) -> Result<(), String> {
    let expected = Expected::load(&run.root)?;
    let cfg = BenchConfig::cli_default();
    let mut traced = Vec::new();
    let mut err = None;
    let ps = passes(run, &expected, o, |pass, o| {
        let first = t.spans().len();
        let mut counts = Counts::default();
        let res = t.span("bench.pass", Tracer::ROOT, pass as u64, false, |root| {
            traced_pass(
                t,
                root,
                &suite_order(run.seed, pass),
                &cfg,
                &expected,
                &mut counts,
                o,
            )
        });
        match res {
            Ok(()) => traced.push((first, t.spans().len(), counts)),
            Err(e) => err = Some(e),
        }
    });
    if let Some(e) = err {
        return Err(e);
    }

    let spans = t.spans();
    let layers: Vec<_> = traced
        .iter()
        .map(|(first, last, counts)| probe::layer_metrics(&spans[*first..*last], counts))
        .collect();
    let tallies = root_tallies(&spans, "bench.pass");
    let main_wall: Vec<f64> = tallies.iter().map(|r| r.wall_ns as f64 / 1e9).collect();
    let accounted: Vec<f64> = tallies.iter().map(|r| r.layer_ns as f64 / 1e9).collect();
    let untraced_wall = median(&ps.iter().map(|p| p.engine.wall_s).collect::<Vec<_>>());
    for (name, _) in layers[0].iter() {
        let v: Vec<f64> = layers.iter().map(|l| l[name]).collect();
        o.metric(name, median(&v), crate::unit_of(name));
    }
    engine_metrics(o, &ps.iter().map(|p| &p.engine).collect::<Vec<_>>());
    let traced_wall = median(&main_wall);
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
    eprintln!(
        "suite-cold: untraced pass {untraced_wall:.4} s, traced pass {traced_wall:.4} s \
         (without ref spans), layer self time {:.4} s",
        median(&accounted)
    );
    Ok(())
}

fn traced_pass(
    t: &Tracer,
    root: usize,
    order: &[&'static str],
    cfg: &BenchConfig,
    expected: &Expected,
    counts: &mut Counts,
    o: &mut Outcome,
) -> Result<(), String> {
    let unit = |i: usize| probe::Unit {
        t,
        parent: root,
        req: i as u64,
        name: order[i],
        main_ref: false,
    };
    let mut compiled = Vec::new();
    for i in 0..order.len() {
        compiled.push(probe::compile_unit(&unit(i), cfg, counts)?);
    }
    let mut bad = 0;
    for (i, cw) in compiled.iter().enumerate() {
        let (base, ccr) = probe::sim_unit(&unit(i), cw, cfg, counts)?;
        if !expected.matches(order[i], &base, &ccr, cw.regions.len()) {
            bad += 1;
        }
    }
    o.count(order.len() as u64, bad);
    Ok(())
}
