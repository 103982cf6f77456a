#![warn(missing_docs)]

//! # ccr-bench — experiment regenerators and benchmarks
//!
//! One binary per figure of the paper's evaluation (Section 5):
//!
//! | binary | paper result |
//! |---|---|
//! | `fig4_potential` | Figure 4 — dynamic reuse potential, block vs region |
//! | `fig8a_instances` | Figure 8(a) — speedup vs computation instances (128 entries × 4/8/16 CIs) |
//! | `fig8b_entries` | Figure 8(b) — speedup vs entries (32/64/128 × 8 CIs) |
//! | `fig9_groups` | Figure 9 — static & dynamic computation-group distributions |
//! | `fig10_distribution` | Figure 10 — cumulative reuse of the top 10/20/30/40 % computations |
//! | `fig11_inputs` | Figure 11 — training vs reference input speedup |
//! | `ablations` | design-space studies from DESIGN.md §5 |
//!
//! Criterion benches under `benches/` time the simulator and compiler
//! components themselves.

pub mod engine;
pub mod exp;

use ccr_core::compile::{compile_ccr, CompileConfig, CompiledWorkload};
use ccr_core::harness::Harness;
use ccr_core::jobs::resolve_jobs;
use ccr_core::measure::Measurement;
use ccr_profile::EmuConfig;
use ccr_regions::RegionConfig;
use ccr_sim::{CrbConfig, MachineConfig};
use ccr_workloads::{build, InputSet, NAMES};

pub use engine::{CachedSim, Engine, SimResultCache, DEFAULT_RESULT_CACHE_CAPACITY};
pub use exp::CompileCache;

/// Default driver scale for experiment binaries (kept moderate so the
/// full suite regenerates in seconds per configuration).
pub const SCALE: u32 = 1;

/// Worker count for an experiment binary: the last `--jobs N` (or
/// `--jobs=N`) on the command line, else the `CCR_JOBS` environment
/// variable, else serial. `0` means one worker per hardware thread.
pub fn cli_jobs() -> usize {
    let mut requested = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--jobs" {
            requested = args.next().and_then(|v| v.parse().ok());
        } else if let Some(v) = a.strip_prefix("--jobs=") {
            requested = v.parse().ok();
        }
    }
    resolve_jobs(requested)
}

/// Emulator limits for experiment runs.
pub fn emu_config() -> EmuConfig {
    EmuConfig {
        max_instrs: 200_000_000,
        max_depth: 512,
    }
}

/// One benchmark's compiled artifacts plus measurement.
pub struct SuiteRun {
    /// Benchmark name.
    pub name: &'static str,
    /// Compile products (annotated program, regions, profile).
    pub compiled: CompiledWorkload,
    /// Baseline vs CCR measurement.
    pub measurement: Measurement,
    /// Host milliseconds spent on this workload (compile + baseline
    /// sim + CCR sim), each phase timed on the thread that ran it —
    /// so per-workload cost stays comparable across job counts.
    pub wall_ms: u64,
}

/// Compiles one benchmark: profile on Train, annotate the `target`
/// build.
///
/// # Panics
///
/// Panics if the benchmark name is unknown or emulation exceeds
/// limits (experiment binaries treat both as fatal).
pub fn compile_benchmark(
    name: &str,
    target: InputSet,
    scale: u32,
    region: &RegionConfig,
) -> CompiledWorkload {
    let config = CompileConfig {
        region: *region,
        emu: emu_config(),
        ..CompileConfig::paper()
    };
    let train = build(name, InputSet::Train, scale).expect("known benchmark");
    let target = build(name, target, scale).expect("known benchmark");
    compile_ccr(&train, &target, &config).expect("profiling within limits")
}

/// Runs a selection of benchmarks end-to-end under one configuration,
/// fanning the compiles and the per-workload {base, ccr} simulations
/// out over `jobs` worker threads. Results come back in `names`
/// order, and every simulated statistic is identical to a serial run
/// (each simulation is self-contained and deterministic) — only
/// `wall_ms` reflects the host.
///
/// `config.region.trial_instances` should already match
/// `crb.instances` (callers deriving the region config from a CRB can
/// use [`run_benchmark`]/[`run_suite`], which enforce it).
///
/// # Errors
///
/// Returns the first failing workload's error (unknown name or
/// emulator limit breach), in `names` order.
#[allow(clippy::too_many_arguments)]
pub fn run_selected(
    names: &[&'static str],
    target: InputSet,
    scale: u32,
    config: &CompileConfig,
    machine: &MachineConfig,
    crb: CrbConfig,
    emu: EmuConfig,
    jobs: usize,
) -> Result<Vec<SuiteRun>, String> {
    run_selected_cached(names, target, scale, config, machine, crb, emu, jobs, None)
}

/// [`run_selected`] with an optional shared-compile cache.
///
/// Sweeps that vary only the simulated hardware (CRB geometry,
/// machine width) used to recompile an identical program once per
/// configuration; passing the same [`CompileCache`] across calls
/// compiles each distinct (workload, target, scale, region-config)
/// combination once and reuses it — the compiler is deterministic, so
/// every measured number is unchanged.
///
/// # Errors
///
/// Returns the first failing workload's error (unknown name or
/// emulator limit breach), in `names` order.
#[allow(clippy::too_many_arguments)]
pub fn run_selected_cached(
    names: &[&'static str],
    target: InputSet,
    scale: u32,
    config: &CompileConfig,
    machine: &MachineConfig,
    crb: CrbConfig,
    emu: EmuConfig,
    jobs: usize,
    cache: Option<&CompileCache>,
) -> Result<Vec<SuiteRun>, String> {
    run_selected_harnessed(
        names,
        target,
        scale,
        config,
        machine,
        crb,
        emu,
        jobs,
        cache,
        &Harness::disabled(),
    )
}

/// [`run_selected_cached`] with host-side observability: compiles and
/// simulations run under stable task labels, the job pool reports
/// per-worker accounting to `harness`, and start/finish events land
/// in `harness.jsonl`. With `Harness::disabled()` this is exactly
/// [`run_selected_cached`]; either way every simulated statistic is
/// identical (the harness only reads clocks and writes to side
/// channels).
///
/// # Errors
///
/// Returns the first failing workload's error (unknown name or
/// emulator limit breach), in `names` order.
#[allow(clippy::too_many_arguments)]
pub fn run_selected_harnessed(
    names: &[&'static str],
    target: InputSet,
    scale: u32,
    config: &CompileConfig,
    machine: &MachineConfig,
    crb: CrbConfig,
    emu: EmuConfig,
    jobs: usize,
    cache: Option<&CompileCache>,
    harness: &Harness,
) -> Result<Vec<SuiteRun>, String> {
    // No result cache: one-shot suite runs (and the host-reps
    // timing mode, which must re-simulate every rep to measure the
    // host) go through the pipeline cold. `Engine::run_selected` is
    // the cached path.
    engine::run_selected_inner(
        names, target, scale, config, machine, crb, emu, jobs, cache, None, harness,
    )
}

/// [`run_selected_harnessed`] repeated `host_reps` times, reporting
/// each workload's **median** `wall_ms` across the repetitions — the
/// noise-damped host-throughput mode behind `ccr bench --host-reps`.
///
/// Simulated statistics are deterministic, so every rep produces the
/// same counters (asserted); the returned runs are the first rep's,
/// with only `wall_ms` replaced by the median. Repetitions share
/// `cache`, so reps after the first reuse every compile: with three
/// or more reps the median reflects steady-state simulation
/// throughput rather than one cold compile pass.
///
/// # Errors
///
/// Returns the first failing workload's error (unknown name or
/// emulator limit breach), in `names` order.
#[allow(clippy::too_many_arguments)]
pub fn run_selected_reps(
    names: &[&'static str],
    target: InputSet,
    scale: u32,
    config: &CompileConfig,
    machine: &MachineConfig,
    crb: CrbConfig,
    emu: EmuConfig,
    jobs: usize,
    cache: Option<&CompileCache>,
    harness: &Harness,
    host_reps: usize,
) -> Result<Vec<SuiteRun>, String> {
    let run_once = |cache: Option<&CompileCache>| {
        run_selected_harnessed(
            names, target, scale, config, machine, crb, emu, jobs, cache, harness,
        )
    };
    if host_reps <= 1 {
        return run_once(cache);
    }
    // Repetitions need a shared compile cache to amortize compiles;
    // fall back to a local one when the caller didn't bring their own.
    let local_cache;
    let cache = match cache {
        Some(c) => c,
        None => {
            local_cache = CompileCache::new();
            &local_cache
        }
    };
    let mut runs = run_once(Some(cache))?;
    let mut walls: Vec<Vec<u64>> = runs.iter().map(|r| vec![r.wall_ms]).collect();
    for _ in 1..host_reps {
        let rep = run_once(Some(cache))?;
        for (i, r) in rep.iter().enumerate() {
            assert_eq!(
                runs[i].measurement.base.stats, r.measurement.base.stats,
                "{}: host repetition changed baseline statistics",
                r.name
            );
            assert_eq!(
                runs[i].measurement.ccr.stats, r.measurement.ccr.stats,
                "{}: host repetition changed CCR statistics",
                r.name
            );
            walls[i].push(r.wall_ms);
        }
    }
    for (run, wall) in runs.iter_mut().zip(&mut walls) {
        run.wall_ms = median_ms(wall);
    }
    Ok(runs)
}

/// Median of a sample of millisecond timings (midpoint of the two
/// central values for even sample sizes).
fn median_ms(samples: &mut [u64]) -> u64 {
    samples.sort_unstable();
    let n = samples.len();
    if n == 0 {
        0
    } else if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2
    }
}

/// Runs one benchmark end-to-end under the given CRB.
///
/// # Panics
///
/// Panics on unknown names or emulator limit violations.
pub fn run_benchmark(
    name: &'static str,
    target: InputSet,
    scale: u32,
    region: &RegionConfig,
    machine: &MachineConfig,
    crb: CrbConfig,
) -> SuiteRun {
    run_suite_with(&[name], target, scale, region, machine, crb, 1)
        .pop()
        .expect("one run for one name")
}

/// Runs the whole suite under one configuration on `jobs` workers.
pub fn run_suite(
    target: InputSet,
    scale: u32,
    region: &RegionConfig,
    machine: &MachineConfig,
    crb: CrbConfig,
    jobs: usize,
) -> Vec<SuiteRun> {
    run_suite_with(&NAMES, target, scale, region, machine, crb, jobs)
}

fn run_suite_with(
    names: &[&'static str],
    target: InputSet,
    scale: u32,
    region: &RegionConfig,
    machine: &MachineConfig,
    crb: CrbConfig,
    jobs: usize,
) -> Vec<SuiteRun> {
    // The compiler targets the actual machine: the selection trial
    // assumes the hardware's instance count.
    let region = RegionConfig {
        trial_instances: crb.instances,
        ..*region
    };
    let config = CompileConfig {
        region,
        emu: emu_config(),
        ..CompileConfig::paper()
    };
    run_selected(
        names,
        target,
        scale,
        &config,
        machine,
        crb,
        emu_config(),
        jobs,
    )
    .expect("known benchmarks, emulation within limits")
}

/// Arithmetic mean of a sequence (the paper reports average speedups).
pub fn mean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let v: Vec<f64> = xs.into_iter().collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean([]), 0.0);
        assert_eq!(mean([2.0, 4.0]), 3.0);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median_ms(&mut []), 0);
        assert_eq!(median_ms(&mut [7]), 7);
        assert_eq!(median_ms(&mut [9, 1, 5]), 5);
        assert_eq!(median_ms(&mut [4, 2, 8, 6]), 5);
    }

    #[test]
    fn compile_cache_hits_on_identical_config_only() {
        let cache = CompileCache::new();
        let config = CompileConfig {
            emu: emu_config(),
            ..CompileConfig::paper()
        };
        let a = cache
            .get_or_compile("bitcount", InputSet::Train, 1, &config)
            .unwrap();
        let b = cache
            .get_or_compile("bitcount", InputSet::Train, 1, &config)
            .unwrap();
        assert!(
            std::sync::Arc::ptr_eq(&a, &b),
            "identical configs must share one compile"
        );
        assert_eq!((cache.misses(), cache.hits()), (1, 1));
        // A different region configuration is a different program.
        let block = CompileConfig {
            region: RegionConfig::block_level(),
            ..config
        };
        let c = cache
            .get_or_compile("bitcount", InputSet::Train, 1, &block)
            .unwrap();
        assert!(!std::sync::Arc::ptr_eq(&a, &c));
        assert_eq!((cache.misses(), cache.hits()), (2, 1));
        assert!(cache
            .get_or_compile("no_such_benchmark", InputSet::Train, 1, &config)
            .is_err());
    }

    #[test]
    fn run_benchmark_produces_consistent_speedup() {
        let run = run_benchmark(
            "130.li",
            InputSet::Train,
            1,
            &RegionConfig::paper(),
            &MachineConfig::paper(),
            CrbConfig::paper(),
        );
        let s = run.measurement.speedup();
        assert!(s > 0.9 && s < 3.0, "speedup {s}");
        assert!(!run.compiled.regions.is_empty());
    }
}
