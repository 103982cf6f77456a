//! The shared execution engine: one long-lived object owning the
//! job pool, the compile cache, and a content-addressed simulation
//! result cache.
//!
//! Historically every entry point re-implemented the
//! plan→compile→sim pipeline with its own throwaway caches:
//! `exp::execute` built a fresh [`CompileCache`] per call, and
//! `run_selected_cached` shared one only across sequential calls.
//! That is the right shape for a one-shot CLI run, but `ccr serve`
//! keeps a process alive across many requests — and the paper's core
//! economics (amortize one compile/region-formation pass across many
//! dynamic executions) applies to the harness itself: two clients
//! sweeping overlapping configuration spaces should pay for each
//! unique compile and each unique simulation exactly once.
//!
//! [`Engine`] is that long-lived object. It owns:
//!
//! - the worker count fanned through [`ccr_core::jobs`] (PR 4),
//! - the PR-5 [`CompileCache`], now **single-flight**: a concurrent
//!   miss on a key another thread is already compiling blocks until
//!   that compile lands, so each unique unit compiles exactly once
//!   even across concurrent requests; beneath it, a profile stage
//!   value-profiles each training build once for all of its region
//!   configurations and target inputs,
//! - a [`SimResultCache`]: completed simulation outcomes keyed by the
//!   planner's FNV-1a dedup keys (workload, input, scale, and the
//!   region/machine/CRB `fields()` hashes), single-flight like the
//!   compile cache, with a configurable capacity, LRU eviction, and
//!   hit/miss/eviction counters registered on a PR-7
//!   [`MetricsRegistry`] (`engine.simcache.*`).
//!
//! The one-shot paths (`ccr exp`, `ccr bench`, `ccr suite`,
//! `ccr profile`) construct a fresh engine per invocation — every
//! lookup misses, the simulations run exactly as before, and every
//! rendered table stays byte-identical to the committed `results/`
//! artifacts (`tests/engine_equivalence.rs` pins this). `ccr serve`
//! keeps one engine for the whole session, which is where the
//! cross-request dedup comes from.
//!
//! **Bit-identity contract:** the caches only elide *repeats* of
//! deterministic work. A cache hit returns the identical
//! [`SimOutcome`] (and the originally measured host wall time, the
//! same convention checkpoint restores use), so every statistic a
//! renderer reads is unchanged whether a point ran cold, was
//! restored from a checkpoint, or was served from the result cache.

use std::collections::{HashMap, HashSet};
use std::io::Write as _;
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use ccr_core::compile::{CompileConfig, CompiledWorkload};
use ccr_core::config_hash;
use ccr_core::harness::Harness;
use ccr_core::jobs::parallel_map_observed;
use ccr_core::measure::{reuse_potential, Measurement};
use ccr_core::telemetry::{Counter, MetricsRegistry};
use ccr_profile::EmuConfig;
use ccr_profile::ReusePotential;
use ccr_sim::{simulate, simulate_baseline, CrbConfig, MachineConfig, SimOutcome, SimSession};
use ccr_workloads::InputSet;

use crate::exp::{
    base_sim_key, ccr_sim_key, ckpt_line, compile_key, hash_fields, input_tag, load_checkpoint,
    BaseUnit, CcrUnit, CompileCache, CompileUnit, Executed, Plan, PointMeta, PotentialUnit,
};
use crate::{emu_config, SuiteRun};

/// Default retained-entry capacity of a fresh engine's
/// [`SimResultCache`]. Generous relative to the full experiment
/// registry (455 requested points → 351 unique sims), so a default
/// engine never evicts mid-sweep; serve sessions that outgrow it
/// evict least-recently-used entries.
pub const DEFAULT_RESULT_CACHE_CAPACITY: usize = 4096;

/// One cached simulation: the deterministic [`SimOutcome`] plus the
/// host wall time and determinism-fingerprint chain hash measured
/// when the unit originally ran. Wall time is reused on a hit — the
/// same convention `execute_resumable` uses for checkpoint-restored
/// units, so summaries stay reproducible.
#[derive(Clone)]
pub struct CachedSim {
    /// The simulated outcome (bit-identical across reruns).
    pub outcome: SimOutcome,
    /// Host milliseconds the original run took.
    pub wall_ms: u64,
    /// Final fingerprint chain hash (16-digit lowercase hex), `""`
    /// for non-fingerprinted runs.
    pub fingerprint: String,
}

struct ReadyEntry {
    value: CachedSim,
    /// Logical LRU clock value of the last lookup that touched this
    /// entry (monotonic per cache, not wall time).
    last_used: u64,
}

#[derive(Default)]
struct ResultCacheState {
    ready: HashMap<String, ReadyEntry>,
    /// Completed reuse-potential studies, keyed by the planner's
    /// `pot|…` keys. Never evicted: the map is bounded by the
    /// workload registry (13 entries per input/scale), not by sweep
    /// size, so LRU pressure from simulations can't thrash it.
    potentials: HashMap<String, ReusePotential>,
    /// Keys some thread is currently computing (sim and potential
    /// keys are disjoint by construction — `pot|` prefixes the
    /// latter). Single-flight: concurrent requests for a pending key
    /// block until it lands rather than recomputing it.
    pending: HashSet<String>,
    tick: u64,
}

/// A content-addressed cache of completed simulation outcomes.
///
/// Keys are the planner's FNV-1a dedup keys (suffixed with the
/// fingerprint window so fingerprinted and plain runs never share an
/// entry): identical keys imply identical deterministic outcomes.
/// Lookups are single-flight — a miss marks the key pending and
/// computes outside the lock; concurrent lookups of the same key
/// block and then count as hits — so each unique simulation runs
/// exactly once no matter how many concurrent requests want it, and
/// the hit/miss totals are deterministic (pinned by
/// `tests/engine_equivalence.rs`).
///
/// Capacity bounds *retained* entries: inserting past it evicts the
/// least-recently-used ready entry (pending keys are never evicted
/// and never count). A capacity of 0 retains nothing — every lookup
/// misses, though concurrent lookups still share one in-flight run.
/// Errors are never cached; waiters retry after a failed compute.
pub struct SimResultCache {
    state: Mutex<ResultCacheState>,
    cv: Condvar,
    capacity: usize,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
}

impl SimResultCache {
    /// An empty cache with `capacity` retained entries, its counters
    /// registered on `metrics` as `engine.simcache.hits` /
    /// `engine.simcache.misses` / `engine.simcache.evictions`.
    pub fn new(capacity: usize, metrics: &MetricsRegistry) -> SimResultCache {
        SimResultCache {
            state: Mutex::new(ResultCacheState::default()),
            cv: Condvar::new(),
            capacity,
            hits: metrics.counter("engine.simcache.hits"),
            misses: metrics.counter("engine.simcache.misses"),
            evictions: metrics.counter("engine.simcache.evictions"),
        }
    }

    /// Lookups served from a ready entry (including lookups that
    /// waited out another thread's in-flight computation).
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Lookups that had to run the simulation.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Ready entries discarded to stay within capacity.
    pub fn evictions(&self) -> u64 {
        self.evictions.get()
    }

    /// Maximum retained entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Currently retained entries.
    pub fn len(&self) -> usize {
        self.state.lock().expect("result cache lock").ready.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the cached result of `key`, running `run` to produce
    /// and memoize it on first use. Concurrent callers of the same
    /// key block until the first caller's `run` completes, then read
    /// its entry.
    ///
    /// # Errors
    ///
    /// Returns `run`'s error without caching it (a waiter blocked on
    /// the failed computation retries with its own `run`).
    pub fn get_or_run(
        &self,
        key: &str,
        run: impl FnOnce() -> Result<CachedSim, String>,
    ) -> Result<CachedSim, String> {
        let mut state = self.state.lock().expect("result cache lock");
        loop {
            if state.ready.contains_key(key) {
                state.tick += 1;
                let tick = state.tick;
                let entry = state.ready.get_mut(key).expect("checked above");
                entry.last_used = tick;
                let value = entry.value.clone();
                self.hits.inc();
                return Ok(value);
            }
            if !state.pending.contains(key) {
                break;
            }
            state = self.cv.wait(state).expect("result cache lock");
        }
        state.pending.insert(key.to_string());
        self.misses.inc();
        drop(state);
        let result = run();
        let mut state = self.state.lock().expect("result cache lock");
        state.pending.remove(key);
        if let Ok(value) = &result {
            state.tick += 1;
            let tick = state.tick;
            state.ready.insert(
                key.to_string(),
                ReadyEntry {
                    value: value.clone(),
                    last_used: tick,
                },
            );
            while state.ready.len() > self.capacity {
                let victim = state
                    .ready
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| k.clone())
                    .expect("non-empty over-capacity map");
                state.ready.remove(&victim);
                self.evictions.inc();
            }
        }
        drop(state);
        self.cv.notify_all();
        result
    }

    /// [`SimResultCache::get_or_run`] for reuse-potential studies
    /// (Figure 4 prep units): same single-flight discipline and the
    /// same hit/miss counters, but entries are exempt from LRU
    /// eviction — the map is bounded by the workload registry, and a
    /// repeated `fig4` submission must stay a pure cache hit no
    /// matter how many simulations churned the cache in between.
    ///
    /// # Errors
    ///
    /// Returns `run`'s error without caching it (a waiter blocked on
    /// the failed computation retries with its own `run`).
    pub fn get_or_run_potential(
        &self,
        key: &str,
        run: impl FnOnce() -> Result<ReusePotential, String>,
    ) -> Result<ReusePotential, String> {
        let mut state = self.state.lock().expect("result cache lock");
        loop {
            if let Some(p) = state.potentials.get(key) {
                self.hits.inc();
                return Ok(*p);
            }
            if !state.pending.contains(key) {
                break;
            }
            state = self.cv.wait(state).expect("result cache lock");
        }
        state.pending.insert(key.to_string());
        self.misses.inc();
        drop(state);
        let result = run();
        let mut state = self.state.lock().expect("result cache lock");
        state.pending.remove(key);
        if let Ok(p) = &result {
            state.potentials.insert(key.to_string(), *p);
        }
        drop(state);
        self.cv.notify_all();
        result
    }
}

/// The long-lived execution engine: job-pool width plus the shared
/// compile and simulation-result caches. See the module docs for the
/// layering; `exp::execute*` and `run_selected*` are thin wrappers
/// over a fresh engine, `ccr serve` shares one across requests.
pub struct Engine {
    jobs: usize,
    metrics: Arc<MetricsRegistry>,
    compile_cache: CompileCache,
    result_cache: SimResultCache,
}

impl Engine {
    /// An engine fanning work over `jobs` workers with the default
    /// result-cache capacity.
    pub fn new(jobs: usize) -> Engine {
        Engine::with_capacity(jobs, DEFAULT_RESULT_CACHE_CAPACITY)
    }

    /// [`Engine::new`] with an explicit result-cache capacity.
    pub fn with_capacity(jobs: usize, result_capacity: usize) -> Engine {
        let metrics = Arc::new(MetricsRegistry::new());
        let result_cache = SimResultCache::new(result_capacity, &metrics);
        Engine {
            jobs,
            metrics,
            compile_cache: CompileCache::new(),
            result_cache,
        }
    }

    /// Worker count the engine fans units over.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The engine's metrics registry (carries the
    /// `engine.simcache.*` counters).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// The shared compile cache.
    pub fn compile_cache(&self) -> &CompileCache {
        &self.compile_cache
    }

    /// The shared simulation-result cache.
    pub fn result_cache(&self) -> &SimResultCache {
        &self.result_cache
    }

    /// Runs a plan through the engine: compiles and potential studies
    /// first, then every simulation as an independent work item, all
    /// through the shared caches. This is the body behind
    /// [`crate::exp::execute_resumable`] — see its docs for the
    /// checkpoint and fingerprint semantics. Cache accounting on the
    /// returned [`Executed`] (and the `compile_cache` harness event)
    /// is the **delta** this run contributed, so a fresh engine
    /// reports exactly what the pre-engine implementation did.
    ///
    /// # Errors
    ///
    /// Returns the first failing unit's error (unknown workload or
    /// emulator limit breach), in unit order, plus one-line errors
    /// for an unreadable, truncated, or wrong-version checkpoint.
    pub fn execute_plan<'s>(
        &self,
        plan: &Plan<'s>,
        harness: &Harness,
        checkpoint: Option<&Path>,
        fingerprint_window: Option<u64>,
    ) -> Result<Executed<'s>, String> {
        enum Prep<'a> {
            Compile(&'a CompileUnit),
            Potential(&'a PotentialUnit),
        }
        enum PrepOut {
            Compile(String, Arc<CompiledWorkload>),
            Potential(String, ReusePotential),
        }
        impl Prep<'_> {
            fn label(&self) -> String {
                match self {
                    Prep::Compile(u) => format!(
                        "compile:{}:{}@r{}",
                        u.name,
                        input_tag(u.input),
                        &hash_fields(&u.config.region.fields())[..8],
                    ),
                    Prep::Potential(u) => format!("potential:{}:{}", u.name, input_tag(u.input)),
                }
            }
            fn phase(&self) -> &'static str {
                match self {
                    Prep::Compile(_) => "compile",
                    Prep::Potential(_) => "potential",
                }
            }
        }
        let jobs = self.jobs;
        harness.plan(
            (plan.compiles.len() + plan.potentials.len()) as u64,
            (plan.bases.len() + plan.ccrs.len()) as u64,
            &[
                ("specs", plan.stats.specs as u64),
                ("requested_points", plan.stats.requested_points as u64),
                ("deduped_compiles", plan.stats.deduped_compiles as u64),
                ("deduped_sims", plan.stats.deduped_sims as u64),
                ("jobs", jobs as u64),
            ],
        );
        // Cache accounting is the run's delta: the engine's caches
        // outlive this call, but each run reports only what it added.
        let cache = &self.compile_cache;
        let (hits_before, misses_before) = (cache.hits(), cache.misses());
        let (profile_hits_before, profile_misses_before) =
            (cache.profile_hits(), cache.profile_misses());
        let prep_items: Vec<Prep<'_>> = plan
            .compiles
            .iter()
            .map(Prep::Compile)
            .chain(plan.potentials.iter().map(Prep::Potential))
            .collect();
        let prep_labels: Vec<String> = prep_items.iter().map(Prep::label).collect();
        let (prep, prep_pool) = parallel_map_observed(
            &prep_items,
            jobs,
            Some(&prep_labels),
            harness.observer(),
            |i, item| {
                harness.task_start(item.phase(), &prep_labels[i]);
                let start = Instant::now();
                let out = match item {
                    Prep::Compile(u) => cache
                        .get_or_compile(u.name, u.input, u.scale, &u.config)
                        .map(|cw| PrepOut::Compile(u.key.clone(), cw)),
                    Prep::Potential(u) => self
                        .result_cache
                        .get_or_run_potential(&u.key, || {
                            let program = ccr_workloads::build(u.name, u.input, u.scale)
                                .ok_or_else(|| format!("unknown benchmark `{}`", u.name))?;
                            reuse_potential(&program, emu_config())
                                .map_err(|e| format!("{}: {e}", u.name))
                        })
                        .map(|p| PrepOut::Potential(u.key.clone(), p)),
                };
                if out.is_ok() {
                    let wall_ms = start.elapsed().as_millis() as u64;
                    harness.task_finish(item.phase(), &prep_labels[i], wall_ms, None);
                }
                out
            },
        );
        harness.pool("prep", &prep_pool);
        let profile_cache = (
            cache.profile_hits() - profile_hits_before,
            cache.profile_misses() - profile_misses_before,
        );
        harness.compile_cache(
            cache.hits() - hits_before,
            cache.misses() - misses_before,
            profile_cache,
        );
        let mut executed = Executed {
            specs: plan.specs.clone(),
            compiles: HashMap::new(),
            bases: HashMap::new(),
            ccrs: HashMap::new(),
            potentials: HashMap::new(),
            sim_wall_ms: HashMap::new(),
            fingerprints: HashMap::new(),
            points: plan
                .ccrs
                .iter()
                .map(|u| PointMeta {
                    name: u.name,
                    input: u.input,
                    scale: u.scale,
                    config_hash: config_hash(&u.machine, &u.crb),
                    compile_key: u.compile_key.clone(),
                    base_key: u.base_key.clone(),
                    ccr_key: u.key.clone(),
                })
                .collect(),
            cache: (cache.hits() - hits_before, cache.misses() - misses_before),
            profile_cache,
        };
        for out in prep {
            match out? {
                PrepOut::Compile(key, cw) => {
                    executed.compiles.insert(key, cw);
                }
                PrepOut::Potential(key, p) => {
                    executed.potentials.insert(key, p);
                }
            }
        }

        let restored = match checkpoint {
            Some(path) => load_checkpoint(path)?,
            None => HashMap::new(),
        };
        let ckpt_sink = match checkpoint {
            Some(path) => {
                if let Some(parent) = path.parent() {
                    if !parent.as_os_str().is_empty() {
                        std::fs::create_dir_all(parent)
                            .map_err(|e| format!("{}: {e}", parent.display()))?;
                    }
                }
                let file = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                Some(Mutex::new(file))
            }
            None => None,
        };

        enum Sim<'a> {
            Base(&'a BaseUnit, Arc<CompiledWorkload>),
            Ccr(&'a CcrUnit, Arc<CompiledWorkload>),
        }
        impl Sim<'_> {
            fn key(&self) -> &str {
                match self {
                    Sim::Base(u, _) => &u.key,
                    Sim::Ccr(u, _) => &u.key,
                }
            }
            fn label(&self) -> String {
                match self {
                    Sim::Base(u, _) => format!(
                        "sim:base:{}:m{}",
                        u.name,
                        &hash_fields(&u.machine.fields())[..8]
                    ),
                    Sim::Ccr(u, _) => {
                        format!("sim:ccr:{}:{}", u.name, config_hash(&u.machine, &u.crb))
                    }
                }
            }
        }
        let mut sim_items: Vec<Sim<'_>> = Vec::new();
        for item in plan
            .bases
            .iter()
            .map(|u| Sim::Base(u, Arc::clone(&executed.compiles[&u.compile_key])))
            .chain(
                plan.ccrs
                    .iter()
                    .map(|u| Sim::Ccr(u, Arc::clone(&executed.compiles[&u.compile_key]))),
            )
        {
            let Some(entry) = restored.get(item.key()) else {
                sim_items.push(item);
                continue;
            };
            let key = item.key().to_string();
            harness.task_finish(
                "sim",
                &item.label(),
                entry.wall_ms,
                Some(entry.outcome.stats.cycles),
            );
            executed.sim_wall_ms.insert(key.clone(), entry.wall_ms);
            match item {
                Sim::Base(..) => {
                    executed.bases.insert(key, entry.outcome.clone());
                }
                Sim::Ccr(..) => {
                    if !entry.fingerprint.is_empty() {
                        executed
                            .fingerprints
                            .insert(key.clone(), entry.fingerprint.clone());
                    }
                    executed.ccrs.insert(key, entry.outcome.clone());
                }
            }
        }
        let planned_sims = plan.bases.len() + plan.ccrs.len();
        let restored_sims = planned_sims - sim_items.len();
        if restored_sims > 0 {
            eprintln!("checkpoint: restored {restored_sims} of {planned_sims} sim unit(s)");
        }
        let sim_labels: Vec<String> = sim_items.iter().map(Sim::label).collect();
        let (sims, sim_pool) = parallel_map_observed(
            &sim_items,
            jobs,
            Some(&sim_labels),
            harness.observer(),
            |i, item| {
                harness.task_start("sim", &sim_labels[i]);
                let cache_key = result_cache_key(item.key(), fingerprint_window);
                let out = self
                    .result_cache
                    .get_or_run(&cache_key, || {
                        let start = Instant::now();
                        let res = match item {
                            Sim::Base(u, cw) => {
                                simulate_baseline(&cw.base, &u.machine, emu_config())
                                    .map(|o| (o, String::new()))
                                    .map_err(|e| format!("{}: {e}", u.name))
                            }
                            Sim::Ccr(u, cw) => match fingerprint_window {
                                None => {
                                    simulate(&cw.annotated, &u.machine, Some(u.crb), emu_config())
                                        .map(|o| (o, String::new()))
                                        .map_err(|e| format!("{}: {e}", u.name))
                                }
                                Some(window) => {
                                    let mut session = SimSession::new(
                                        &cw.annotated,
                                        &u.machine,
                                        Some(u.crb),
                                        emu_config(),
                                        window,
                                    );
                                    session
                                        .set_provenance(u.name, &config_hash(&u.machine, &u.crb));
                                    session
                                        .run_to_end()
                                        .map_err(|e| format!("{}: {e}", u.name))
                                        .map(|()| {
                                            let hash = session.final_hash().expect("finished run");
                                            (session.into_outcome(), format!("{hash:016x}"))
                                        })
                                }
                            },
                        };
                        res.map(|(outcome, fingerprint)| CachedSim {
                            outcome,
                            wall_ms: start.elapsed().as_millis() as u64,
                            fingerprint,
                        })
                    })
                    .map(|c| match item {
                        Sim::Base(u, _) => (u.key.clone(), true, c),
                        Sim::Ccr(u, _) => (u.key.clone(), false, c),
                    });
                if let Ok((key, is_base, c)) = &out {
                    harness.task_finish(
                        "sim",
                        &sim_labels[i],
                        c.wall_ms,
                        Some(c.outcome.stats.cycles),
                    );
                    if let Some(sink) = &ckpt_sink {
                        let line = ckpt_line(key, *is_base, c.wall_ms, &c.fingerprint, &c.outcome);
                        let mut f = sink.lock().expect("checkpoint lock");
                        let _ = writeln!(f, "{line}").and_then(|()| f.flush());
                    }
                }
                out
            },
        );
        harness.pool("sim", &sim_pool);
        for out in sims {
            let (key, is_base, c) = out?;
            executed.sim_wall_ms.insert(key.clone(), c.wall_ms);
            if is_base {
                executed.bases.insert(key, c.outcome);
            } else {
                if !c.fingerprint.is_empty() {
                    executed.fingerprints.insert(key.clone(), c.fingerprint);
                }
                executed.ccrs.insert(key, c.outcome);
            }
        }
        Ok(executed)
    }

    /// Runs a workload selection end-to-end through the engine's
    /// shared caches — the suite/bench pipeline, re-routed. Identical
    /// statistics to [`crate::run_selected_harnessed`]; repeated or
    /// overlapping selections additionally reuse compiles *and*
    /// simulation outcomes across calls.
    ///
    /// # Errors
    ///
    /// Returns the first failing workload's error (unknown name or
    /// emulator limit breach), in `names` order.
    #[allow(clippy::too_many_arguments)]
    pub fn run_selected(
        &self,
        names: &[&'static str],
        target: InputSet,
        scale: u32,
        config: &CompileConfig,
        machine: &MachineConfig,
        crb: CrbConfig,
        emu: EmuConfig,
        harness: &Harness,
    ) -> Result<Vec<SuiteRun>, String> {
        run_selected_inner(
            names,
            target,
            scale,
            config,
            machine,
            crb,
            emu,
            self.jobs,
            Some(&self.compile_cache),
            Some(&self.result_cache),
            harness,
        )
    }
}

/// The result-cache key of a planned simulation unit: the planner's
/// dedup key plus the fingerprint window, so fingerprinted and plain
/// runs of the same point never share an entry.
fn result_cache_key(unit_key: &str, fingerprint_window: Option<u64>) -> String {
    match fingerprint_window {
        None => format!("{unit_key}|fp:none"),
        Some(w) => format!("{unit_key}|fp:{w}"),
    }
}

/// The suite pipeline body ([`crate::run_selected_harnessed`] and
/// [`Engine::run_selected`] are thin wrappers): compiles then the
/// per-workload {base, ccr} simulations fanned over `jobs` workers,
/// optionally through the shared caches. Without a compile cache the
/// compiles still go through a fresh one, so every suite path takes
/// the same staged compile. The result cache embeds the
/// simulation emulator limits in its keys (the suite path's sim
/// limits are a parameter, unlike the experiment path where they
/// always equal the compile config's).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_selected_inner(
    names: &[&'static str],
    target: InputSet,
    scale: u32,
    config: &CompileConfig,
    machine: &MachineConfig,
    crb: CrbConfig,
    emu: EmuConfig,
    jobs: usize,
    cache: Option<&CompileCache>,
    result_cache: Option<&SimResultCache>,
    harness: &Harness,
) -> Result<Vec<SuiteRun>, String> {
    let input = input_tag(target);
    let cfg_hash = config_hash(machine, &crb);
    harness.plan(
        names.len() as u64,
        2 * names.len() as u64,
        &[("jobs", jobs as u64)],
    );
    let local_cache;
    let cache = match cache {
        Some(c) => c,
        None => {
            local_cache = CompileCache::new();
            &local_cache
        }
    };
    let compile_labels: Vec<String> = names
        .iter()
        .map(|name| format!("compile:{name}:{input}@{scale}"))
        .collect();
    let compiled: Vec<(CompiledWorkload, u64)> = {
        let (results, pool) = parallel_map_observed(
            names,
            jobs,
            Some(&compile_labels),
            harness.observer(),
            |i, name| {
                harness.task_start("compile", &compile_labels[i]);
                let started = Instant::now();
                let out = cache
                    .get_or_compile(name, target, scale, config)
                    .map(|cw| ((*cw).clone(), started.elapsed().as_millis() as u64));
                if let Ok((_, wall_ms)) = &out {
                    harness.task_finish("compile", &compile_labels[i], *wall_ms, None);
                }
                out
            },
        );
        harness.pool("compile", &pool);
        let mut out = Vec::with_capacity(results.len());
        for r in results {
            out.push(r?);
        }
        out
    };
    // Fan every workload's two independent simulations out as their
    // own work items: 2N sims over `jobs` workers.
    let tasks: Vec<(usize, bool)> = (0..compiled.len())
        .flat_map(|i| [(i, false), (i, true)])
        .collect();
    let sim_labels: Vec<String> = tasks
        .iter()
        .map(|&(i, is_ccr)| {
            let kind = if is_ccr { "ccr" } else { "base" };
            format!("sim:{kind}:{}:{cfg_hash}", names[i])
        })
        .collect();
    let (sims, sim_pool) = parallel_map_observed(
        &tasks,
        jobs,
        Some(&sim_labels),
        harness.observer(),
        |t, &(i, is_ccr)| {
            harness.task_start("sim", &sim_labels[t]);
            let run = || {
                let started = Instant::now();
                let out = if is_ccr {
                    simulate(&compiled[i].0.annotated, machine, Some(crb), emu)
                } else {
                    simulate_baseline(&compiled[i].0.base, machine, emu)
                };
                out.map(|outcome| CachedSim {
                    outcome,
                    wall_ms: started.elapsed().as_millis() as u64,
                    fingerprint: String::new(),
                })
                .map_err(|e| format!("{}: {e}", names[i]))
            };
            let out = match result_cache {
                Some(rc) => {
                    let unit_key = if is_ccr {
                        ccr_sim_key(&compile_key(names[i], target, scale, config), machine, &crb)
                    } else {
                        base_sim_key(names[i], target, scale, config, machine)
                    };
                    let key = format!(
                        "{}|simemu:{}/{}|fp:none",
                        unit_key, emu.max_instrs, emu.max_depth
                    );
                    rc.get_or_run(&key, run)
                }
                None => run(),
            };
            if let Ok(c) = &out {
                harness.task_finish(
                    "sim",
                    &sim_labels[t],
                    c.wall_ms,
                    Some(c.outcome.stats.cycles),
                );
            }
            out
        },
    );
    harness.pool("sim", &sim_pool);
    let mut sims = sims.into_iter();
    let mut runs = Vec::with_capacity(compiled.len());
    for (name, (compiled, compile_ms)) in names.iter().zip(compiled) {
        let base = sims.next().expect("one base sim per workload")?;
        let ccr = sims.next().expect("one ccr sim per workload")?;
        assert_eq!(
            base.outcome.run.returned, ccr.outcome.run.returned,
            "computation reuse changed architectural results"
        );
        runs.push(SuiteRun {
            name,
            compiled,
            wall_ms: compile_ms + base.wall_ms + ccr.wall_ms,
            measurement: Measurement {
                base: base.outcome,
                ccr: ccr.outcome,
            },
        });
    }
    Ok(runs)
}
