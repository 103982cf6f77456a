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
//! Simulations run grouped by event stream: the emulator+CRB stream
//! depends only on the program's content, the CRB configuration and
//! the emulator limits, so one emulation drives the pipeline of every
//! distinct machine that reads it ([`ccr_sim::simulate_group`]), and
//! the result cache looks a group's keys up together
//! ([`SimResultCache::get_or_run_group`]). [`stream_groups`] exposes
//! the grouping for checking fanned runs against per-unit ones.
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
use ccr_ir::Program;
use ccr_profile::EmuConfig;
use ccr_profile::ReusePotential;
use ccr_sim::{
    apportion_wall_ms, simulate, simulate_baseline, simulate_group, CrbConfig, MachineConfig,
    SimOutcome, SimSession,
};
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
            if let Some(value) = self.take_ready(&mut state, key) {
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
        self.land(&[key], result.as_ref().ok().map(std::slice::from_ref));
        result
    }

    /// [`SimResultCache::get_or_run`] for several keys computed by one
    /// run, as a fanned simulation group is. Ready keys are hits.
    /// Missing keys are marked pending and handed to `run` together, as
    /// indices into `keys`; `run` returns one result per index, in that
    /// order. Keys another thread has pending are awaited only after
    /// this call has landed its own results, so two callers waiting on
    /// each other's keys cannot deadlock. Each key counts one hit or
    /// one miss, exactly as a [`SimResultCache::get_or_run`] of it
    /// would. Returns one result per key, in `keys` order.
    ///
    /// # Errors
    ///
    /// Returns `run`'s error without caching it; waiters on the failed
    /// keys retry with their own runs.
    pub fn get_or_run_group(
        &self,
        keys: &[String],
        mut run: impl FnMut(&[usize]) -> Result<Vec<CachedSim>, String>,
    ) -> Result<Vec<CachedSim>, String> {
        let mut out: Vec<Option<CachedSim>> = vec![None; keys.len()];
        let (mut mine, mut theirs) = (Vec::new(), Vec::new());
        let mut state = self.state.lock().expect("result cache lock");
        for (i, key) in keys.iter().enumerate() {
            if let Some(value) = self.take_ready(&mut state, key) {
                out[i] = Some(value);
            } else if state.pending.contains(key) {
                theirs.push(i);
            } else {
                state.pending.insert(key.clone());
                self.misses.inc();
                mine.push(i);
            }
        }
        drop(state);
        if !mine.is_empty() {
            let result = run(&mine);
            if let Ok(values) = &result {
                assert_eq!(values.len(), mine.len(), "one result per missing key");
            }
            let mine_keys: Vec<&str> = mine.iter().map(|&i| keys[i].as_str()).collect();
            self.land(&mine_keys, result.as_ref().ok().map(Vec::as_slice));
            for (&i, value) in mine.iter().zip(result?) {
                out[i] = Some(value);
            }
        }
        for i in theirs {
            let value = self.get_or_run(&keys[i], || {
                run(&[i]).map(|mut v| v.pop().expect("one result per missing key"))
            })?;
            out[i] = Some(value);
        }
        Ok(out
            .into_iter()
            .map(|v| v.expect("every key resolved"))
            .collect())
    }

    /// A hit on a ready entry: refreshes its LRU stamp, counts the hit
    /// and returns a copy.
    fn take_ready(&self, state: &mut ResultCacheState, key: &str) -> Option<CachedSim> {
        let entry = state.ready.get_mut(key)?;
        state.tick += 1;
        entry.last_used = state.tick;
        self.hits.inc();
        Some(entry.value.clone())
    }

    /// Clears the pending marks of `keys` and, on success, inserts
    /// their `values` (evicting least-recently-used entries past
    /// capacity), then wakes every waiter.
    fn land(&self, keys: &[&str], values: Option<&[CachedSim]>) {
        let mut state = self.state.lock().expect("result cache lock");
        for key in keys {
            state.pending.remove(*key);
        }
        for (key, value) in keys.iter().zip(values.unwrap_or_default()) {
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
    /// first, then the simulations grouped by event stream — one
    /// emulation per group, fanned out to one pipeline per distinct
    /// machine — all through the shared caches. Each planned unit
    /// still gets its own cache entry, checkpoint line and harness
    /// events; a group's wall time is apportioned across its members.
    /// This is the body behind
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
            plan.compiles.len() as u64,
            plan.potentials.len() as u64,
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

        let mut sim_items: Vec<Sim<'_>> = Vec::new();
        for item in sim_units(plan, &executed.compiles) {
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
        // Fingerprinted CCR units fold their session state, so they
        // run alone; every other unit shares its stream's group.
        let mut groups = group_streams(&sim_items, |item| {
            fingerprint_window.is_some() && matches!(item, Sim::Ccr(..))
        });
        // Largest first, so a big group never starts last and holds
        // the pool open after everything else has finished.
        groups.sort_by_key(|g| std::cmp::Reverse(g.pipelines.len()));
        harness.sim_groups(
            sim_items.len() as u64,
            groups.iter().map(|g| g.pipelines.len() as u64).sum(),
            groups.len() as u64,
        );
        let sim_labels: Vec<String> = sim_items.iter().map(Sim::label).collect();
        let group_labels: Vec<String> = groups.iter().map(|g| g.label(&sim_items)).collect();
        let (group_results, sim_pool) = parallel_map_observed(
            &groups,
            jobs,
            Some(&group_labels),
            harness.observer(),
            |_, group| {
                for &m in &group.members {
                    harness.task_start("sim", &sim_labels[m]);
                }
                let keys: Vec<String> = group
                    .members
                    .iter()
                    .map(|&m| result_cache_key(sim_items[m].key(), fingerprint_window))
                    .collect();
                let out = self.result_cache.get_or_run_group(&keys, |mine| {
                    run_group(group, mine, &sim_items, fingerprint_window)
                });
                if let Ok(values) = &out {
                    for (&m, c) in group.members.iter().zip(values) {
                        harness.task_finish(
                            "sim",
                            &sim_labels[m],
                            c.wall_ms,
                            Some(c.outcome.stats.cycles),
                        );
                        if let Some(sink) = &ckpt_sink {
                            let item = &sim_items[m];
                            let is_base = matches!(item, Sim::Base(..));
                            let line = ckpt_line(
                                item.key(),
                                is_base,
                                c.wall_ms,
                                &c.fingerprint,
                                &c.outcome,
                            );
                            let mut f = sink.lock().expect("checkpoint lock");
                            let _ = writeln!(f, "{line}").and_then(|()| f.flush());
                        }
                    }
                }
                out
            },
        );
        harness.pool("sim", &sim_pool);
        let mut unit_results: Vec<Option<Result<CachedSim, String>>> =
            (0..sim_items.len()).map(|_| None).collect();
        for (group, out) in groups.iter().zip(group_results) {
            match out {
                Ok(values) => {
                    for (&m, c) in group.members.iter().zip(values) {
                        unit_results[m] = Some(Ok(c));
                    }
                }
                Err(e) => {
                    for &m in &group.members {
                        unit_results[m] = Some(Err(e.clone()));
                    }
                }
            }
        }
        // Unit order, so the first failing unit's error surfaces.
        for (item, out) in sim_items.iter().zip(unit_results) {
            let c = out.expect("every unit is in one group")?;
            let key = item.key().to_string();
            executed.sim_wall_ms.insert(key.clone(), c.wall_ms);
            match item {
                Sim::Base(..) => {
                    executed.bases.insert(key, c.outcome);
                }
                Sim::Ccr(..) => {
                    if !c.fingerprint.is_empty() {
                        executed.fingerprints.insert(key.clone(), c.fingerprint);
                    }
                    executed.ccrs.insert(key, c.outcome);
                }
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

/// One planned simulation unit with the compile whose program it runs.
enum Sim<'a> {
    Base(&'a BaseUnit, &'a CompiledWorkload),
    Ccr(&'a CcrUnit, &'a CompiledWorkload),
}

impl<'a> Sim<'a> {
    fn key(&self) -> &'a str {
        match self {
            Sim::Base(u, _) => &u.key,
            Sim::Ccr(u, _) => &u.key,
        }
    }

    fn name(&self) -> &'static str {
        match self {
            Sim::Base(u, _) => u.name,
            Sim::Ccr(u, _) => u.name,
        }
    }

    fn label(&self) -> String {
        match self {
            Sim::Base(u, _) => format!(
                "sim:base:{}:m{}",
                u.name,
                &hash_fields(&u.machine.fields())[..8]
            ),
            Sim::Ccr(u, _) => format!("sim:ccr:{}:{}", u.name, config_hash(&u.machine, &u.crb)),
        }
    }

    fn program(&self) -> &'a Program {
        match self {
            Sim::Base(_, cw) => &cw.base,
            Sim::Ccr(_, cw) => &cw.annotated,
        }
    }

    fn machine(&self) -> &'a MachineConfig {
        match self {
            Sim::Base(u, _) => &u.machine,
            Sim::Ccr(u, _) => &u.machine,
        }
    }

    fn crb(&self) -> Option<CrbConfig> {
        match self {
            Sim::Base(..) => None,
            Sim::Ccr(u, _) => Some(u.crb),
        }
    }

    /// The content hash of the program the unit runs.
    fn program_hash(&self) -> u64 {
        match self {
            Sim::Base(_, cw) => cw.base_hash,
            Sim::Ccr(_, cw) => cw.annotated_hash,
        }
    }

    /// Whether `self` and `other` produce the same emulator+CRB event
    /// stream: equal program content and CRB configuration (none for a
    /// baseline). The emulator limits are `emu_config()` for every
    /// unit, and the machine reaches only the pipeline.
    fn same_stream(&self, other: &Sim<'_>) -> bool {
        self.program_hash() == other.program_hash()
            && match (self, other) {
                (Sim::Base(..), Sim::Base(..)) => true,
                (Sim::Ccr(u, _), Sim::Ccr(v, _)) => u.crb == v.crb,
                _ => false,
            }
    }

    /// Whether a pipeline on the shared stream times `self` and `other`
    /// identically: equal machines, or, for baselines, equal machine
    /// fields a program without `reuse` instructions can reach (as in
    /// the planner's baseline key).
    fn same_pipeline(&self, other: &Sim<'_>) -> bool {
        match (self, other) {
            (Sim::Base(u, _), Sim::Base(v, _)) => {
                u.machine.baseline_fields() == v.machine.baseline_fields()
            }
            (Sim::Ccr(u, _), Sim::Ccr(v, _)) => u.machine == v.machine,
            _ => false,
        }
    }
}

/// Every planned simulation unit in plan order (baselines, then CCR
/// points), each paired with the compile it reads from `compiles`.
fn sim_units<'a>(
    plan: &'a Plan<'_>,
    compiles: &'a HashMap<String, Arc<CompiledWorkload>>,
) -> impl Iterator<Item = Sim<'a>> {
    plan.bases
        .iter()
        .map(|u| Sim::Base(u, &compiles[&u.compile_key]))
        .chain(
            plan.ccrs
                .iter()
                .map(|u| Sim::Ccr(u, &compiles[&u.compile_key])),
        )
}

/// Units sharing one event stream: one emulator+CRB run drives one
/// pipeline per distinct machine among them.
#[derive(Default)]
struct Group {
    /// Indices into the unit list, in unit order.
    members: Vec<usize>,
    /// Per member, its index into `pipelines`. Members whose programs
    /// are equal in content and whose machines match share a pipeline.
    pipeline_of: Vec<usize>,
    /// Per distinct pipeline, the first member that reads it.
    pipelines: Vec<usize>,
}

impl Group {
    fn machines(&self, items: &[Sim<'_>]) -> Vec<MachineConfig> {
        self.pipelines
            .iter()
            .map(|&m| *items[m].machine())
            .collect()
    }

    fn label(&self, items: &[Sim<'_>]) -> String {
        let first = &items[self.members[0]];
        let kind = match first {
            Sim::Base(..) => "base",
            Sim::Ccr(..) => "ccr",
        };
        format!(
            "group:{kind}:{}:{:08x}x{}",
            first.name(),
            first.program_hash() >> 32,
            self.members.len()
        )
    }
}

/// Groups `items` by event stream, in first-encounter order; units for
/// which `alone` holds get a group of their own.
fn group_streams(items: &[Sim<'_>], alone: impl Fn(&Sim<'_>) -> bool) -> Vec<Group> {
    let mut groups: Vec<Group> = Vec::new();
    let mut by_program: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, item) in items.iter().enumerate() {
        let mut shared = (!alone(item)).then(|| by_program.entry(item.program_hash()).or_default());
        let found = shared.as_ref().and_then(|candidates| {
            candidates
                .iter()
                .copied()
                .find(|&g| item.same_stream(&items[groups[g].members[0]]))
        });
        let g = match found {
            Some(g) => g,
            None => {
                if let Some(candidates) = shared.as_mut() {
                    candidates.push(groups.len());
                }
                groups.push(Group::default());
                groups.len() - 1
            }
        };
        let group = &mut groups[g];
        let p = match group
            .pipelines
            .iter()
            .position(|&m| item.same_pipeline(&items[m]))
        {
            Some(p) => p,
            None => {
                group.pipelines.push(i);
                group.pipelines.len() - 1
            }
        };
        group.members.push(i);
        group.pipeline_of.push(p);
    }
    groups
}

/// One distinct event stream of an executed plan, as the engine fans
/// it out: what [`Engine::execute_plan`] ran as one emulator+CRB pass
/// (without a fingerprint window), for checking a fanned run against
/// per-unit simulations.
pub struct StreamGroup<'a> {
    /// The program the fanned run emulates (its first member's).
    pub program: &'a Program,
    /// The CRB the stream runs against; `None` for baselines.
    pub crb: Option<CrbConfig>,
    /// One machine per distinct pipeline.
    pub machines: Vec<MachineConfig>,
    /// The planned simulation units on the stream, in plan order.
    pub members: Vec<StreamMember<'a>>,
}

/// One planned simulation unit of a [`StreamGroup`].
pub struct StreamMember<'a> {
    /// The planner's dedup key of the unit.
    pub key: &'a str,
    /// The program of the unit's own compile: equal in content to the
    /// group's, though it may come from another region configuration.
    pub program: &'a Program,
    /// The unit's machine.
    pub machine: MachineConfig,
    /// Index into [`StreamGroup::machines`] of the pipeline it reads.
    pub pipeline: usize,
    /// The outcome the execution recorded for the unit.
    pub outcome: &'a SimOutcome,
}

/// The stream groups of `plan`'s simulations, in first-encounter
/// order, with the outcomes `executed` (a run of `plan`) holds.
///
/// # Panics
///
/// Panics if `executed` is not a completed run of `plan`.
pub fn stream_groups<'a>(plan: &'a Plan<'_>, executed: &'a Executed<'_>) -> Vec<StreamGroup<'a>> {
    let items: Vec<Sim<'a>> = sim_units(plan, &executed.compiles).collect();
    group_streams(&items, |_| false)
        .into_iter()
        .map(|group| {
            let first = &items[group.members[0]];
            StreamGroup {
                program: first.program(),
                crb: first.crb(),
                members: group
                    .members
                    .iter()
                    .zip(&group.pipeline_of)
                    .map(|(&m, &pipeline)| {
                        let item = &items[m];
                        StreamMember {
                            key: item.key(),
                            program: item.program(),
                            machine: *item.machine(),
                            pipeline,
                            outcome: match item {
                                Sim::Base(..) => &executed.bases[item.key()],
                                Sim::Ccr(..) => &executed.ccrs[item.key()],
                            },
                        }
                    })
                    .collect(),
                machines: group.machines(&items),
            }
        })
        .collect()
}

/// Simulates the members of `group` at positions `mine` (the ones the
/// result cache could not serve): one fanned run over their distinct
/// pipelines, its wall time apportioned across them. A fingerprinted
/// CCR unit, alone in its group, runs through a [`SimSession`].
fn run_group(
    group: &Group,
    mine: &[usize],
    items: &[Sim<'_>],
    fingerprint_window: Option<u64>,
) -> Result<Vec<CachedSim>, String> {
    let first = &items[group.members[mine[0]]];
    if let (Some(window), Sim::Ccr(u, cw)) = (fingerprint_window, first) {
        let start = Instant::now();
        let mut session =
            SimSession::new(&cw.annotated, &u.machine, Some(u.crb), emu_config(), window);
        session.set_provenance(u.name, &config_hash(&u.machine, &u.crb));
        session
            .run_to_end()
            .map_err(|e| format!("{}: {e}", u.name))?;
        let hash = session.final_hash().expect("finished run");
        return Ok(vec![CachedSim {
            outcome: session.into_outcome(),
            wall_ms: start.elapsed().as_millis() as u64,
            fingerprint: format!("{hash:016x}"),
        }]);
    }
    let mut slots: Vec<usize> = Vec::new();
    let mut machines = Vec::new();
    let slot_of: Vec<usize> = mine
        .iter()
        .map(|&j| {
            let p = group.pipeline_of[j];
            slots.iter().position(|&q| q == p).unwrap_or_else(|| {
                slots.push(p);
                machines.push(*items[group.pipelines[p]].machine());
                slots.len() - 1
            })
        })
        .collect();
    let start = Instant::now();
    let outcomes = simulate_group(first.program(), &machines, first.crb(), emu_config())
        .map_err(|e| format!("{}: {e}", first.name()))?;
    let walls = apportion_wall_ms(start.elapsed().as_nanos() as u64, mine.len());
    Ok(slot_of
        .into_iter()
        .zip(walls)
        .map(|(slot, wall_ms)| CachedSim {
            outcome: outcomes[slot].clone(),
            wall_ms,
            fingerprint: String::new(),
        })
        .collect())
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
        0,
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
