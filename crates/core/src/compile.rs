//! The compile half of the pipeline: optimize → profile → form →
//! annotate.
//!
//! Two stages share one code path. [`profile_training`] optimizes and
//! value-profiles the training build; its result depends only on the
//! training program and the optimizer and emulator settings.
//! [`compile_from_profile`] does everything that also depends on the
//! region configuration and the target build. [`compile_ccr`] is the
//! two in sequence; a cache may keep the profile stage's output and
//! run only the second stage for each further region configuration.
//! The second stage asks its caller for the reiteration trial's hit
//! ratios, so a cache may also answer repeated trials ([`TrialKey`]).

use std::sync::Arc;

use ccr_ir::Program;
use ccr_opt::{OptConfig, PassRecord, RecordingObserver};
use ccr_profile::{EmuConfig, EmuError, Emulator, NullCrb, ReuseProfile, ValueProfiler};
use ccr_regions::{FormationStats, RegionConfig, RegionInfo, RegionSpec};

/// Configuration of the compile pipeline.
#[derive(Clone, Copy, Debug, Default)]
pub struct CompileConfig {
    /// Baseline optimizer settings.
    pub opt: OptConfig,
    /// Region-formation heuristics.
    pub region: RegionConfig,
    /// Emulator limits for the profiling run.
    pub emu: EmuConfig,
}

impl CompileConfig {
    /// The paper's configuration everywhere.
    pub fn paper() -> CompileConfig {
        CompileConfig::default()
    }
}

/// Compile-time observability collected alongside a
/// [`CompiledWorkload`]: what the optimizer and region formation did,
/// and what it cost.
#[derive(Clone, Debug, Default)]
pub struct CompileTelemetry {
    /// Per-pass optimizer records for the target build, in execution
    /// order: wall time and IR size before/after each pass.
    pub passes: Vec<PassRecord>,
    /// Region-formation accounting: candidates examined, regions
    /// accepted, and per-reason rejections — including regions the
    /// reiteration trial discarded (reason `"reiteration"`).
    pub formation: FormationStats,
}

/// A benchmark compiled for CCR evaluation.
#[derive(Clone, Debug)]
pub struct CompiledWorkload {
    /// The optimized, unannotated program (the measurement baseline).
    pub base: Program,
    /// The optimized program with regions annotated.
    pub annotated: Program,
    /// Metadata for every formed region.
    pub regions: Vec<RegionInfo>,
    /// The training-run profile the regions were selected from
    /// (shared with any cache that holds the profile stage's result).
    pub profile: Arc<ReuseProfile>,
    /// Compile-time observability (pass timings, formation stats).
    pub telemetry: CompileTelemetry,
}

/// Compiles `target` for CCR execution, selecting regions from a
/// profile of `train`: [`profile_training`] followed by
/// [`compile_from_profile`].
///
/// `train` and `target` must be two builds of the *same* program that
/// differ only in data-object initializers (the paper's training vs
/// reference inputs). When evaluating on the training input, pass the
/// same program for both.
///
/// # Errors
///
/// Returns [`EmuError`] if the profiling run exceeds emulator limits.
///
/// # Panics
///
/// Panics if `train` and `target` differ structurally (different
/// instruction counts), which would make profile data and region
/// coordinates meaningless for the target.
pub fn compile_ccr(
    train: &Program,
    target: &Program,
    config: &CompileConfig,
) -> Result<CompiledWorkload, EmuError> {
    let profile = Arc::new(profile_training(train, config)?);
    compile_from_profile(&profile, train, target, config, |trial| {
        trial.run().map(Arc::new)
    })
}

/// The profile stage of [`compile_ccr`]: optimizes the training build
/// and value-profiles it.
///
/// The result depends only on `train`, `config.opt` and `config.emu`,
/// never on `config.region`, so one profile serves every region
/// configuration and every target input of the same program.
///
/// # Errors
///
/// Returns [`EmuError`] if the profiling run exceeds emulator limits.
pub fn profile_training(train: &Program, config: &CompileConfig) -> Result<ReuseProfile, EmuError> {
    let train_opt = optimized(train, config);
    let mut profiler = ValueProfiler::for_program(&train_opt);
    Emulator::with_config(&train_opt, config.emu).run(&mut NullCrb, &mut profiler)?;
    Ok(profiler.finish())
}

/// What a reiteration trial's hit ratios depend on besides the
/// optimized training build and the emulator limits, which the profile
/// stage already fixes: the formed regions and the trial buffer's
/// geometry. Two trials of one profile stage with equal keys measure
/// equal ratios.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct TrialKey {
    /// The regions formed on the training build, in formation order.
    specs: Vec<RegionSpec>,
    /// Instances per trial buffer entry
    /// ([`RegionConfig::trial_instances`]).
    instances: usize,
    /// Input-bank width ([`RegionConfig::max_live_in`]).
    max_live_in: usize,
    /// Output-bank width ([`RegionConfig::max_live_out`]).
    max_live_out: usize,
}

/// A reiteration trial ready to run: the optimized training build, the
/// emulator limits and its [`TrialKey`].
pub struct Trial<'a> {
    train_opt: &'a Program,
    emu: EmuConfig,
    key: TrialKey,
}

impl Trial<'_> {
    /// What the trial's result depends on within its profile stage.
    pub fn key(&self) -> &TrialKey {
        &self.key
    }

    /// Runs the annotated training build against a conflict-free
    /// buffer and returns each region's hit ratio, in spec order.
    ///
    /// # Errors
    ///
    /// Returns [`EmuError`] if the trial exceeds emulator limits.
    pub fn run(&self) -> Result<Vec<f64>, EmuError> {
        trial_hit_ratios(self.train_opt, &self.key, self.emu)
    }
}

/// The rest of [`compile_ccr`] after the profile stage: optimizes the
/// training build, forms regions on it from `profile`, takes the
/// reiteration trial's hit ratios from `trial_ratios` and annotates the
/// target.
///
/// `profile` must come from [`profile_training`] on the same `train`
/// with the same `config.opt` and `config.emu`; the compiled workload
/// shares it. `trial_ratios` is called at most once; it returns
/// [`Trial::run`]'s result, or a result recorded for an equal
/// [`TrialKey`] of the same profile stage.
///
/// # Errors
///
/// Returns [`EmuError`] if the reiteration trial exceeds emulator
/// limits.
///
/// # Panics
///
/// Panics if `train` and `target` differ structurally, as
/// [`compile_ccr`] does.
pub fn compile_from_profile(
    profile: &Arc<ReuseProfile>,
    train: &Program,
    target: &Program,
    config: &CompileConfig,
    trial_ratios: impl FnOnce(Trial<'_>) -> Result<Arc<Vec<f64>>, EmuError>,
) -> Result<CompiledWorkload, EmuError> {
    assert_same_code(train, target);

    // Optimize both builds identically; the optimizer is
    // deterministic, so structure stays aligned with the profiled
    // build. Pass records are taken from the target build (the one we
    // measure). When the target is the training program, its
    // optimized build is the training one: optimize once.
    let mut observer = RecordingObserver::default();
    let same = std::ptr::eq(train, target) || train == target;
    let mut train_opt = train.clone();
    let target_opt = if same {
        ccr_opt::optimize_observed(&mut train_opt, config.opt, &mut observer);
        None
    } else {
        ccr_opt::optimize(&mut train_opt, config.opt);
        let mut base = target.clone();
        ccr_opt::optimize_observed(&mut base, config.opt, &mut observer);
        debug_assert_eq!(
            train_opt.instr_count(),
            base.instr_count(),
            "optimizer must transform both builds identically"
        );
        Some(base)
    };

    // Select regions on the training build.
    let mut formation = FormationStats::new();
    let mut specs =
        ccr_regions::form_regions_observed(&train_opt, profile, &config.region, &mut formation);

    // Reiteration (Section 4.4): trial-run the annotated training
    // build against an idealized buffer and discard regions whose
    // predicted hit ratio cannot pay for the reuse-failure flushes.
    if config.region.min_predicted_hit > 0.0 && !specs.is_empty() {
        let ratios = trial_ratios(Trial {
            train_opt: &train_opt,
            emu: config.emu,
            key: TrialKey {
                specs: specs.clone(),
                instances: config.region.trial_instances,
                max_live_in: config.region.max_live_in,
                max_live_out: config.region.max_live_out,
            },
        })?;
        // Cost model: a hit saves roughly the region's serialized
        // execution (static instructions over a conservative IPC); a
        // miss costs a mispredict-like flush. Keep a region only if
        // the expected benefit is positive and its hit ratio clears
        // the configured floor.
        const ASSUMED_IPC: f64 = 1.5;
        const MISS_COST: f64 = 9.0;
        let before = specs.len();
        specs = specs
            .into_iter()
            .zip(ratios.iter())
            .filter_map(|(s, &h)| {
                let saved = s.static_instrs as f64 / ASSUMED_IPC;
                let worth = h * saved >= (1.0 - h) * MISS_COST;
                (h >= config.region.min_predicted_hit && worth).then_some(s)
            })
            .collect();
        formation.demote("reiteration", (before - specs.len()) as u64);
        formation.check();
    }

    let base = target_opt.unwrap_or(train_opt);
    let mut annotated_target = base.clone();
    let regions = ccr_regions::transform::annotate(&mut annotated_target, specs);

    Ok(CompiledWorkload {
        base,
        annotated: annotated_target,
        regions,
        profile: Arc::clone(profile),
        telemetry: CompileTelemetry {
            passes: observer.records,
            formation,
        },
    })
}

fn assert_same_code(train: &Program, target: &Program) {
    assert_eq!(
        train.instr_count(),
        target.instr_count(),
        "train and target must be the same code (only data may differ)"
    );
}

fn optimized(program: &Program, config: &CompileConfig) -> Program {
    let mut out = program.clone();
    ccr_opt::optimize(&mut out, config.opt);
    out
}

/// Runs the annotated training build against a conflict-free buffer
/// and returns each region's hit ratio, in spec order.
fn trial_hit_ratios(
    train_opt: &Program,
    key: &TrialKey,
    emu: EmuConfig,
) -> Result<Vec<f64>, EmuError> {
    use ccr_profile::{ExecEvent, TraceSink};

    let mut trial = train_opt.clone();
    let infos = ccr_regions::transform::annotate(&mut trial, key.specs.clone());

    /// (hits, misses) per region, indexed by region id.
    struct HitCounter {
        counts: Vec<(u64, u64)>,
    }
    impl TraceSink for HitCounter {
        fn on_exec(&mut self, e: &ExecEvent<'_>) {
            if let Some(r) = e.reuse {
                let slot = &mut self.counts[r.region.index()];
                if r.hit {
                    slot.0 += 1;
                } else {
                    slot.1 += 1;
                }
            }
        }
    }

    // One entry per region: the trial measures locality, not buffer
    // conflicts (entry-count effects are the hardware's business).
    let mut buffer = ccr_sim::ReuseBuffer::new(ccr_sim::CrbConfig {
        entries: key.specs.len().max(1),
        instances: key.instances,
        input_bank: key.max_live_in,
        output_bank: key.max_live_out,
        replacement: ccr_sim::Replacement::Lru,
        nonuniform: None,
    });
    let mut counter = HitCounter {
        counts: vec![(0, 0); trial.region_count()],
    };
    Emulator::with_config(&trial, emu).run(&mut buffer, &mut counter)?;
    Ok(infos
        .iter()
        .map(|info| {
            let (h, m) = counter.counts[info.id.index()];
            if h + m == 0 {
                0.0
            } else {
                h as f64 / (h + m) as f64
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccr_profile::NullSink;
    use ccr_workloads::{build, InputSet};

    #[test]
    fn compile_produces_regions_for_a_reuse_rich_benchmark() {
        let p = build("124.m88ksim", InputSet::Train, 1).unwrap();
        let cw = compile_ccr(&p, &p, &CompileConfig::paper()).unwrap();
        assert!(
            !cw.regions.is_empty(),
            "m88ksim must yield reusable regions"
        );
        ccr_ir::verify_program(&cw.base).unwrap();
        ccr_ir::verify_program(&cw.annotated).unwrap();
        // The annotated program carries reuse instructions.
        let reuses = cw
            .annotated
            .iter_instrs()
            .filter(|(_, i)| matches!(i.op, ccr_ir::Op::Reuse { .. }))
            .count();
        assert_eq!(reuses, cw.regions.len());
    }

    #[test]
    fn annotated_program_is_architecturally_equivalent() {
        let p = build("008.espresso", InputSet::Train, 1).unwrap();
        let cw = compile_ccr(&p, &p, &CompileConfig::paper()).unwrap();
        let run = |p: &Program| {
            Emulator::new(p)
                .run(&mut NullCrb, &mut NullSink)
                .unwrap()
                .returned
        };
        assert_eq!(run(&cw.base), run(&cw.annotated));
    }

    #[test]
    fn cross_input_compilation_transfers_regions() {
        let train = build("130.li", InputSet::Train, 1).unwrap();
        let reference = build("130.li", InputSet::Ref, 1).unwrap();
        let cw = compile_ccr(&train, &reference, &CompileConfig::paper()).unwrap();
        ccr_ir::verify_program(&cw.annotated).unwrap();
        // Reference outputs must match the unannotated reference build.
        let run = |p: &Program| {
            Emulator::new(p)
                .run(&mut NullCrb, &mut NullSink)
                .unwrap()
                .returned
        };
        assert_eq!(run(&cw.base), run(&cw.annotated));
    }

    #[test]
    fn compile_telemetry_records_passes_and_formation() {
        let p = build("124.m88ksim", InputSet::Train, 1).unwrap();
        let cw = compile_ccr(&p, &p, &CompileConfig::paper()).unwrap();
        let t = &cw.telemetry;
        assert!(!t.passes.is_empty(), "optimizer passes must be recorded");
        for required in ["constprop", "cse", "dce", "simplify"] {
            assert!(
                t.passes.iter().any(|r| r.pass == required),
                "missing pass record `{required}`"
            );
        }
        // Deltas chain: each record starts where the previous ended.
        for w in t.passes.windows(2) {
            assert_eq!(w[0].instrs_after, w[1].instrs_before);
        }
        // Formation accounting balances, and the accepted count is the
        // number of regions that survived every gate (including the
        // reiteration trial).
        t.formation.check();
        assert_eq!(t.formation.accepted, cw.regions.len() as u64);
        assert!(t.formation.candidates >= t.formation.accepted);
    }

    #[test]
    #[should_panic(expected = "same code")]
    fn structurally_different_programs_are_rejected() {
        let a = build("008.espresso", InputSet::Train, 1).unwrap();
        let b = build("124.m88ksim", InputSet::Train, 1).unwrap();
        let _ = compile_ccr(&a, &b, &CompileConfig::paper());
    }
}
