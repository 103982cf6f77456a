//! Layer-by-layer calls: one workload's cold pipeline driven through
//! the public entry point of each layer, each call inside a span.
//!
//! The cold suite's traced passes run the calls the untraced pass
//! makes (build, `compile_ccr`, `simulate_baseline`, `simulate`) as
//! ordinary spans, plus stage re-runs and emulator-only reference
//! runs tagged `ref`. On the other workloads the whole probe is
//! reference work, so every layer metric has one definition: a cold
//! pass over the thirteen training builds at scale 1.

use std::collections::BTreeMap;

use ccr_core::compile::{compile_ccr, CompileConfig, CompiledWorkload};
use ccr_core::measure::reuse_potential;
use ccr_profile::{EmuConfig, Emulator, NullCrb, NullSink, ValueProfiler};
use ccr_regions::FormationStats;
use ccr_sim::{simulate, simulate_baseline, CrbConfig, MachineConfig, ReuseBuffer, SimOutcome};
use ccr_workloads::{build, InputSet};

use crate::trace::{dur_ms_by_name, Span, SpanId, Tracer};

/// The configuration `ccr bench` runs with its default flags.
#[derive(Clone, Copy, Debug)]
pub struct BenchConfig {
    /// Compile pipeline settings (8 trial instances).
    pub compile: CompileConfig,
    /// The paper's machine.
    pub machine: MachineConfig,
    /// 128 entries x 8 instances.
    pub crb: CrbConfig,
    /// Simulation emulator limits.
    pub emu: EmuConfig,
}

impl BenchConfig {
    /// `ccr bench` with no configuration flags.
    pub fn cli_default() -> BenchConfig {
        let emu = EmuConfig {
            max_instrs: 500_000_000,
            max_depth: 1024,
        };
        let crb = CrbConfig {
            entries: 128,
            instances: 8,
            ..CrbConfig::paper()
        };
        BenchConfig {
            compile: CompileConfig {
                region: ccr_regions::RegionConfig {
                    trial_instances: crb.instances,
                    function_level: false,
                    ..ccr_regions::RegionConfig::paper()
                },
                emu,
                ..CompileConfig::paper()
            },
            machine: MachineConfig::paper(),
            crb,
            emu,
        }
    }
}

/// Counts the probe gathers alongside its spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    /// Instructions in the optimized builds.
    pub instrs_after: u64,
    /// Regions that survived formation and the reiteration trial.
    pub accepted: u64,
    /// Simulated cycles, base plus CCR.
    pub cycles: u64,
    /// Dynamic instructions issued, base plus CCR.
    pub dyn_instrs: u64,
    /// CRB lookups that hit.
    pub crb_hits: u64,
    /// CRB lookups.
    pub crb_lookups: u64,
}

/// Where one workload's spans go.
pub struct Unit<'a> {
    /// The recorder.
    pub t: &'a Tracer,
    /// Parent span of every span the unit records.
    pub parent: SpanId,
    /// Request id of the unit.
    pub req: u64,
    /// Workload name.
    pub name: &'a str,
    /// Whether the calls the untraced run also makes count as `ref`.
    pub main_ref: bool,
}

/// Compile side of one workload: the two builds and `compile_ccr`
/// (spans tagged `main_ref`), then each compile stage re-run on its
/// own (always `ref`).
pub fn compile_unit(
    u: &Unit<'_>,
    cfg: &BenchConfig,
    counts: &mut Counts,
) -> Result<CompiledWorkload, String> {
    let Unit {
        t,
        parent,
        req,
        name,
        main_ref,
    } = *u;
    let build_one = || {
        t.span("workloads.build", parent, req, main_ref, |_| {
            build(name, InputSet::Train, 1).ok_or_else(|| format!("unknown workload `{name}`"))
        })
    };
    let train = build_one()?;
    let target = build_one()?;
    let cw = t
        .span("core.compile", parent, req, main_ref, |_| {
            compile_ccr(&train, &target, &cfg.compile)
        })
        .map_err(|e| format!("{name}: {e}"))?;
    counts.accepted += cw.telemetry.formation.accepted;

    // Stage re-runs, in `compile_ccr`'s order. The trial run between
    // formation and the final annotation has no public entry point;
    // it is what `core.compile_rest_ms` measures.
    let (train_opt, base) = t.span("opt.optimize", parent, req, true, |_| {
        let mut train_opt = train.clone();
        ccr_opt::optimize(&mut train_opt, cfg.compile.opt);
        let mut base = target.clone();
        ccr_opt::optimize(&mut base, cfg.compile.opt);
        (train_opt, base)
    });
    counts.instrs_after += base.instr_count() as u64;
    let profile = t
        .span("profile.value_profile", parent, req, true, |_| {
            let mut profiler = ValueProfiler::for_program(&train_opt);
            Emulator::with_config(&train_opt, cfg.compile.emu)
                .run(&mut NullCrb, &mut profiler)
                .map(|_| profiler.finish())
        })
        .map_err(|e| format!("{name}: {e}"))?;
    t.span("profile.emu", parent, req, true, |_| {
        Emulator::with_config(&train_opt, cfg.compile.emu).run(&mut NullCrb, &mut NullSink)
    })
    .map_err(|e| format!("{name}: {e}"))?;
    let specs = t.span("regions.form", parent, req, true, |_| {
        ccr_regions::form_regions_observed(
            &train_opt,
            &profile,
            &cfg.compile.region,
            &mut FormationStats::new(),
        )
    });
    t.span("regions.annotate", parent, req, true, |_| {
        let mut annotated = base.clone();
        ccr_regions::transform::annotate(&mut annotated, specs)
    });
    t.span("profile.potential", parent, req, true, |_| {
        reuse_potential(&train, ccr_bench::emu_config())
    })
    .map_err(|e| format!("{name}: {e}"))?;
    Ok(cw)
}

/// Simulation side of one workload: `simulate_baseline` and
/// `simulate` (spans tagged `main_ref`), then the CCR build through
/// the bare emulator with a CRB (always `ref`).
pub fn sim_unit(
    u: &Unit<'_>,
    cw: &CompiledWorkload,
    cfg: &BenchConfig,
    counts: &mut Counts,
) -> Result<(SimOutcome, SimOutcome), String> {
    let Unit {
        t,
        parent,
        req,
        name,
        main_ref,
    } = *u;
    let base = t
        .span("sim.base", parent, req, main_ref, |_| {
            simulate_baseline(&cw.base, &cfg.machine, cfg.emu)
        })
        .map_err(|e| format!("{name}: {e}"))?;
    let ccr = t
        .span("sim.ccr", parent, req, main_ref, |_| {
            simulate(&cw.annotated, &cfg.machine, Some(cfg.crb), cfg.emu)
        })
        .map_err(|e| format!("{name}: {e}"))?;
    t.span("sim.emu_crb", parent, req, true, |_| {
        Emulator::with_config(&cw.annotated, cfg.emu)
            .run(&mut ReuseBuffer::new(cfg.crb), &mut NullSink)
    })
    .map_err(|e| format!("{name}: {e}"))?;
    for s in [&base.stats, &ccr.stats] {
        counts.cycles += s.cycles;
        counts.dyn_instrs += s.dyn_instrs;
    }
    counts.crb_hits += ccr.stats.reuse_hits;
    counts.crb_lookups += ccr.stats.reuse_hits + ccr.stats.reuse_misses;
    Ok((base, ccr))
}

/// A whole probe pass as reference work under one `ref` span: every
/// workload's compile side in `order`, then every simulation side.
/// Returns the counts; the timings are in the tracer's spans.
pub fn ref_pass(t: &Tracer, order: &[&'static str], cfg: &BenchConfig) -> Result<Counts, String> {
    let mut counts = Counts::default();
    t.span("bench.probe", Tracer::ROOT, 0, true, |root| {
        let unit = |i: usize| Unit {
            t,
            parent: root,
            req: i as u64,
            name: order[i],
            main_ref: true,
        };
        let mut compiled = Vec::new();
        for i in 0..order.len() {
            compiled.push(compile_unit(&unit(i), cfg, &mut counts)?);
        }
        for (i, cw) in compiled.iter().enumerate() {
            sim_unit(&unit(i), cw, cfg, &mut counts)?;
        }
        Ok(counts)
    })
}

/// Per-layer stage metrics of one pass, from its spans and counts.
pub fn layer_metrics(spans: &[Span], counts: &Counts) -> BTreeMap<&'static str, f64> {
    let d = dur_ms_by_name(spans);
    let ms = |k: &str| d.get(k).copied().unwrap_or(0.0);
    let staged = ms("opt.optimize")
        + ms("profile.value_profile")
        + ms("regions.form")
        + ms("regions.annotate");
    BTreeMap::from([
        ("workloads.build_ms", ms("workloads.build")),
        ("opt.optimize_ms", ms("opt.optimize")),
        ("opt.instrs_after", counts.instrs_after as f64),
        ("profile.value_profile_ms", ms("profile.value_profile")),
        ("profile.emu_ms", ms("profile.emu")),
        (
            "profile.overhead_x",
            ms("profile.value_profile") / ms("profile.emu").max(1e-9),
        ),
        ("profile.potential_ms", ms("profile.potential")),
        ("regions.form_ms", ms("regions.form")),
        ("regions.annotate_ms", ms("regions.annotate")),
        ("regions.accepted", counts.accepted as f64),
        ("core.compile_ms", ms("core.compile")),
        ("core.compile_rest_ms", ms("core.compile") - staged),
        ("sim.base_ms", ms("sim.base")),
        ("sim.ccr_ms", ms("sim.ccr")),
        ("sim.emu_crb_ms", ms("sim.emu_crb")),
        ("sim.pipeline_ms", ms("sim.base") - ms("profile.emu")),
        ("sim.cycles", counts.cycles as f64),
        ("sim.dyn_instrs", counts.dyn_instrs as f64),
        (
            "sim.crb_hit_ratio",
            counts.crb_hits as f64 / counts.crb_lookups.max(1) as f64,
        ),
    ])
}
