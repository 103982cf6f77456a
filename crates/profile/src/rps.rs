//! The Reuse Profiling System (RPS).
//!
//! Section 4.2 of the paper: *"The Reuse Profiling System (RPS) was
//! developed as a result of this work and is designed to report
//! accurate reuse information for three components: instruction-level
//! repetition, reusability for memory operations, and cyclic
//! computation recurrence."*
//!
//! * **Instruction-level**: for every instruction, the execution
//!   count, the concentration of its input-operand value vectors in
//!   the top *k* distinct vectors (the paper's `Invariance_R[k]`,
//!   k = 5), and the recurrence of vectors within the ten most recent
//!   executions ("profiling support allows the ten most recent
//!   instruction executions to be maintained").
//! * **Memory**: for every load, the fraction of executions for which
//!   the referenced location had not been stored to since the load's
//!   previous access of that location.
//! * **Cyclic**: for every candidate loop, the invocation count, the
//!   fraction of invocations with more than one iteration, and the
//!   fraction whose live-in value vector (with unchanged loop memory)
//!   matches one of the eight most recent recorded invocations.
//!
//! The profiler runs on every dynamic instruction, so its state is
//! dense: per-instruction tables indexed by [`InstrId::index`], one
//! store-version array per memory object, a per-function table of loop
//! headers, a bitset per loop body and the active invocations indexed
//! by call depth. [`ValueProfiler::finish`] compacts the result into a
//! [`ReuseProfile`] that keeps only what region formation reads.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

use ccr_analysis::LoopForest;
use ccr_ir::{BlockId, FuncId, InstrId, MemObjectId, Op, Operand, Program, Reg, Value};

use crate::trace::{ExecEvent, TraceSink};

/// Identifies a loop by its function and header block.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LoopKey {
    /// Function containing the loop.
    pub func: FuncId,
    /// The loop header.
    pub header: BlockId,
}

/// Static facts about a candidate loop, needed for cyclic profiling.
#[derive(Clone, Debug)]
pub struct LoopMeta {
    /// The loop's identity.
    pub key: LoopKey,
    /// Blocks in the loop body (header included).
    pub body: BTreeSet<BlockId>,
    /// Objects loaded anywhere in the body.
    pub loaded_objects: Vec<MemObjectId>,
    /// True if the body contains a store or a call — such loops are
    /// profiled for invocation statistics but can never be reused.
    pub impure: bool,
}

/// Number of distinct value vectors whose weight defines invariance
/// (the paper's k; "the number of invariant values to five").
pub const TOP_K: usize = 5;
/// Recent-execution window maintained per instruction.
pub const RECENT_WINDOW: usize = 10;
/// Invocation history depth for cyclic recurrence (matches the eight
/// records of the Figure 4 study).
pub const CYCLIC_HISTORY: usize = 8;
/// Cap on distinct value vectors tracked per instruction.
const MAX_TRACKED_VECTORS: usize = 64;
/// Cap on distinct locations tracked per load.
const MAX_TRACKED_LOCATIONS: usize = 4096;

/// Every candidate loop of `program`: its *innermost* natural loops,
/// in (function, header) order.
pub fn candidate_loops(program: &Program) -> Vec<LoopMeta> {
    let mut metas = Vec::new();
    for func in program.functions() {
        let forest = LoopForest::compute(func);
        let mut inner: Vec<_> = forest.inner_loops().collect();
        inner.sort_by_key(|lp| lp.header);
        for lp in inner {
            let mut loaded = BTreeSet::new();
            let mut impure = false;
            for &b in &lp.body {
                for instr in &func.block(b).instrs {
                    match &instr.op {
                        Op::Load { object, .. } => {
                            loaded.insert(*object);
                        }
                        Op::Store { .. } | Op::Call { .. } => impure = true,
                        _ => {}
                    }
                }
            }
            metas.push(LoopMeta {
                key: LoopKey {
                    func: func.id(),
                    header: lp.header,
                },
                body: lp.body.clone(),
                loaded_objects: loaded.into_iter().collect(),
                impure,
            });
        }
    }
    metas
}

/// Per-instruction value-locality counters.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct InstrProfile {
    /// Total executions.
    pub exec: u64,
    /// Executions whose input vector was seen in the recent window.
    pub recent_hits: u64,
    /// For branches: executions on which the branch was taken.
    pub taken: u64,
    /// Execution count of each tracked distinct input vector, largest
    /// first.
    vector_counts: Vec<u64>,
}

impl InstrProfile {
    /// Sum of the top-`k` distinct input-vector counts.
    pub fn invariance_top(&self, k: usize) -> u64 {
        self.vector_counts.iter().take(k).sum()
    }

    /// The paper's `Invariance_R[k](i) / Exec(i)` ratio in `[0, 1]`.
    pub fn invariance_ratio(&self, k: usize) -> f64 {
        if self.exec == 0 {
            0.0
        } else {
            self.invariance_top(k) as f64 / self.exec as f64
        }
    }

    /// Fraction of executions whose input vector recurred within the
    /// recent window.
    pub fn recent_ratio(&self) -> f64 {
        if self.exec == 0 {
            0.0
        } else {
            self.recent_hits as f64 / self.exec as f64
        }
    }

    /// Number of distinct input vectors observed (saturating at the
    /// tracking cap).
    pub fn distinct_vectors(&self) -> usize {
        self.vector_counts.len()
    }
}

/// Per-load memory-reuse counters.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct MemProfile {
    /// Total executions of the load.
    pub exec: u64,
    /// Executions finding the location unchanged since this load last
    /// touched it.
    pub unchanged: u64,
}

impl MemProfile {
    /// The fraction of executions with unchanged source locations —
    /// the paper's per-load memory reusability.
    pub fn unchanged_ratio(&self) -> f64 {
        if self.exec == 0 {
            0.0
        } else {
            self.unchanged as f64 / self.exec as f64
        }
    }
}

/// Per-loop cyclic recurrence counters.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct CyclicProfile {
    /// Loop invocations observed.
    pub invocations: u64,
    /// Invocations executing more than one iteration.
    pub multi_iteration: u64,
    /// Invocations whose input state matched a recent record.
    pub reuse_opportunities: u64,
    /// Total iterations across all invocations.
    pub total_iterations: u64,
}

impl CyclicProfile {
    /// Fraction of invocations that could have reused a recent result.
    pub fn reuse_ratio(&self) -> f64 {
        if self.invocations == 0 {
            0.0
        } else {
            self.reuse_opportunities as f64 / self.invocations as f64
        }
    }

    /// Fraction of invocations with more than one iteration.
    pub fn multi_iteration_ratio(&self) -> f64 {
        if self.invocations == 0 {
            0.0
        } else {
            self.multi_iteration as f64 / self.invocations as f64
        }
    }

    /// Mean iterations per invocation.
    pub fn mean_iterations(&self) -> f64 {
        if self.invocations == 0 {
            0.0
        } else {
            self.total_iterations as f64 / self.invocations as f64
        }
    }
}

/// The finished profile, as consumed by region formation.
///
/// Instruction and load profiles are indexed by [`InstrId::index`];
/// an entry with `exec == 0` stands for an instruction that never
/// ran. Cyclic profiles are kept for the loops that were invoked, in
/// [`LoopKey`] order.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct ReuseProfile {
    instr: Vec<InstrProfile>,
    mem: Vec<MemProfile>,
    cyclic: Vec<(LoopKey, CyclicProfile)>,
    /// Total dynamic instructions profiled.
    pub total_dyn_instrs: u64,
}

impl ReuseProfile {
    fn instr(&self, id: InstrId) -> Option<&InstrProfile> {
        self.instr.get(id.index()).filter(|p| p.exec > 0)
    }

    /// Execution count of an instruction (0 if never executed).
    pub fn exec(&self, id: InstrId) -> u64 {
        self.instr(id).map_or(0, |p| p.exec)
    }

    /// The `Invariance_R[k]/Exec` ratio of an instruction.
    pub fn invariance_ratio(&self, id: InstrId, k: usize) -> f64 {
        self.instr(id).map_or(0.0, |p| p.invariance_ratio(k))
    }

    /// Recent-window recurrence ratio of an instruction.
    pub fn recent_ratio(&self, id: InstrId) -> f64 {
        self.instr(id).map_or(0.0, |p| p.recent_ratio())
    }

    /// Memory-unchanged ratio of a load (0 for non-loads).
    pub fn mem_unchanged_ratio(&self, id: InstrId) -> f64 {
        self.mem
            .get(id.index())
            .map_or(0.0, |p| p.unchanged_ratio())
    }

    /// For branches: fraction of executions on which the branch was
    /// taken (0 if never executed).
    pub fn taken_ratio(&self, id: InstrId) -> f64 {
        self.instr(id)
            .map_or(0.0, |p| p.taken as f64 / p.exec as f64)
    }

    /// Full per-instruction profile, if the instruction executed.
    pub fn instr_profile(&self, id: InstrId) -> Option<&InstrProfile> {
        self.instr(id)
    }

    /// Cyclic profile of a loop, if it was a candidate and ran.
    pub fn cyclic_profile(&self, key: LoopKey) -> Option<&CyclicProfile> {
        self.cyclic
            .binary_search_by_key(&key, |(k, _)| *k)
            .ok()
            .map(|i| &self.cyclic[i].1)
    }

    /// Iterates over all profiled loops, in [`LoopKey`] order.
    pub fn iter_cyclic(&self) -> impl Iterator<Item = (&LoopKey, &CyclicProfile)> {
        self.cyclic.iter().map(|(k, c)| (k, c))
    }
}

/// Multiplicative hasher for the profiler's `u64`-keyed maps. Keys are
/// value signatures and memory locations, already well mixed; the
/// hasher is deterministic and only decides bucket placement, never a
/// profile count. Both maps are capped ([`MAX_TRACKED_VECTORS`],
/// [`MAX_TRACKED_LOCATIONS`]), so even a program whose keys collide
/// costs at most a scan of a capped table per lookup.
#[derive(Default)]
struct MixHasher(u64);

impl Hasher for MixHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }
}

type MixMap<K, V> = HashMap<K, V, BuildHasherDefault<MixHasher>>;

/// An instruction's counters while the run is in progress.
#[derive(Default)]
struct LiveInstr {
    exec: u64,
    recent_hits: u64,
    taken: u64,
    vector_counts: MixMap<u64, u64>,
    /// Ring buffer of the last [`RECENT_WINDOW`] input signatures.
    recent: [u64; RECENT_WINDOW],
    recent_len: usize,
    recent_next: usize,
}

impl LiveInstr {
    fn observe(&mut self, sig: u64) {
        self.exec += 1;
        if self.recent[..self.recent_len].contains(&sig) {
            self.recent_hits += 1;
        }
        self.recent[self.recent_next] = sig;
        self.recent_next = (self.recent_next + 1) % RECENT_WINDOW;
        self.recent_len = (self.recent_len + 1).min(RECENT_WINDOW);
        if self.vector_counts.len() < MAX_TRACKED_VECTORS {
            *self.vector_counts.entry(sig).or_insert(0) += 1;
        } else if let Some(n) = self.vector_counts.get_mut(&sig) {
            *n += 1;
        }
    }

    fn finish(self) -> InstrProfile {
        let mut vector_counts: Vec<u64> = self.vector_counts.into_values().collect();
        vector_counts.sort_unstable_by(|a, b| b.cmp(a));
        InstrProfile {
            exec: self.exec,
            recent_hits: self.recent_hits,
            taken: self.taken,
            vector_counts,
        }
    }
}

/// A load's counters while the run is in progress.
#[derive(Default)]
struct LiveMem {
    exec: u64,
    unchanged: u64,
    /// Store version of each tracked location when this load last
    /// read it.
    last_seen_version: MixMap<(MemObjectId, u64), u64>,
}

/// A set of blocks of one function, as a bitset over block indices.
#[derive(Debug)]
pub(crate) struct BlockSet(Vec<u64>);

impl BlockSet {
    pub(crate) fn new(blocks: &BTreeSet<BlockId>) -> BlockSet {
        let words = blocks.last().map_or(0, |b| b.index() / 64 + 1);
        let mut bits = vec![0u64; words];
        for b in blocks {
            bits[b.index() / 64] |= 1 << (b.index() % 64);
        }
        BlockSet(bits)
    }

    pub(crate) fn contains(&self, block: BlockId) -> bool {
        self.0
            .get(block.index() / 64)
            .is_some_and(|w| w >> (block.index() % 64) & 1 == 1)
    }
}

/// A candidate loop's static tables and its counters while the run is
/// in progress.
struct LiveLoop {
    meta: LoopMeta,
    body: BlockSet,
    profile: CyclicProfile,
    /// Signatures and loop-memory versions of the most recent
    /// invocations.
    history: VecDeque<(u64, Vec<u64>)>,
}

impl LiveLoop {
    fn new(meta: LoopMeta) -> LiveLoop {
        LiveLoop {
            body: BlockSet::new(&meta.body),
            meta,
            profile: CyclicProfile::default(),
            history: VecDeque::with_capacity(CYCLIC_HISTORY),
        }
    }

    fn contains(&self, block: BlockId) -> bool {
        self.body.contains(block)
    }
}

struct ActiveInvocation {
    /// Index into [`ValueProfiler::loops`].
    lp: usize,
    /// Live-in registers with their values, in first-read order.
    inputs: Vec<(Reg, Value)>,
    /// Per register of the loop's function: already read or written
    /// in this invocation.
    seen: Vec<bool>,
    iterations: u64,
    start_versions: Vec<u64>,
}

/// Marks a block that heads no candidate loop in
/// [`ValueProfiler::headers`].
const NO_LOOP: u32 = u32::MAX;

/// Online profiler; attach to an [`crate::Emulator`] run as a
/// [`TraceSink`], then call [`ValueProfiler::finish`].
pub struct ValueProfiler {
    /// Per-instruction counters, indexed by [`InstrId::index`].
    instr: Vec<LiveInstr>,
    /// Per-load counters, indexed by [`InstrId::index`].
    mem: Vec<LiveMem>,
    total_dyn_instrs: u64,
    /// Candidate loops, in [`LoopKey`] order.
    loops: Vec<LiveLoop>,
    /// `headers[func][block]`: index of the loop the block heads, or
    /// [`NO_LOOP`].
    headers: Vec<Vec<u32>>,
    /// Per-object global store version.
    obj_version: Vec<u64>,
    /// Per-location store version, one array per object.
    loc_version: Vec<Vec<u64>>,
    /// Active loop invocation per call depth.
    active: Vec<Option<ActiveInvocation>>,
    /// Register count of each function.
    reg_limits: Vec<usize>,
    depth: usize,
}

impl ValueProfiler {
    /// Creates a profiler with explicit loop metadata (one loop per
    /// key; a later duplicate replaces an earlier one).
    pub fn new(program: &Program, loops: Vec<LoopMeta>) -> ValueProfiler {
        let by_key: BTreeMap<LoopKey, LoopMeta> = loops.into_iter().map(|m| (m.key, m)).collect();
        let loops: Vec<LiveLoop> = by_key.into_values().map(LiveLoop::new).collect();
        let mut headers: Vec<Vec<u32>> = program
            .functions()
            .iter()
            .map(|f| vec![NO_LOOP; f.iter_blocks().count()])
            .collect();
        for (i, lp) in loops.iter().enumerate() {
            let LoopKey { func, header } = lp.meta.key;
            if headers.len() <= func.index() {
                headers.resize(func.index() + 1, Vec::new());
            }
            let table = &mut headers[func.index()];
            if table.len() <= header.index() {
                table.resize(header.index() + 1, NO_LOOP);
            }
            table[header.index()] = i as u32;
        }
        let instr_limit = program.instr_id_limit() as usize;
        ValueProfiler {
            instr: std::iter::repeat_with(LiveInstr::default)
                .take(instr_limit)
                .collect(),
            mem: std::iter::repeat_with(LiveMem::default)
                .take(instr_limit)
                .collect(),
            total_dyn_instrs: 0,
            loops,
            headers,
            obj_version: vec![0; program.objects().len()],
            loc_version: program
                .objects()
                .iter()
                .map(|o| vec![0; o.size()])
                .collect(),
            active: Vec::new(),
            reg_limits: program
                .functions()
                .iter()
                .map(|f| f.reg_limit() as usize)
                .collect(),
            depth: 0,
        }
    }

    /// Creates a profiler whose candidates are the program's
    /// [`candidate_loops`].
    pub fn for_program(program: &Program) -> ValueProfiler {
        ValueProfiler::new(program, candidate_loops(program))
    }

    /// The candidate-loop metadata the profiler was built with, in
    /// [`LoopKey`] order.
    pub fn loop_metas(&self) -> Vec<LoopMeta> {
        self.loops.iter().map(|l| l.meta.clone()).collect()
    }

    /// Consumes the profiler, finalizing any open invocation records
    /// (deepest first) and compacting the counters into a
    /// [`ReuseProfile`].
    pub fn finish(mut self) -> ReuseProfile {
        for d in (0..self.active.len()).rev() {
            self.finalize_invocation(d);
        }
        ReuseProfile {
            instr: self.instr.into_iter().map(LiveInstr::finish).collect(),
            mem: self
                .mem
                .into_iter()
                .map(|m| MemProfile {
                    exec: m.exec,
                    unchanged: m.unchanged,
                })
                .collect(),
            cyclic: self
                .loops
                .into_iter()
                .filter(|l| l.profile.invocations > 0)
                .map(|l| (l.meta.key, l.profile))
                .collect(),
            total_dyn_instrs: self.total_dyn_instrs,
        }
    }

    fn header_loop(&self, func: FuncId, block: BlockId) -> Option<usize> {
        let lp = *self.headers.get(func.index())?.get(block.index())?;
        (lp != NO_LOOP).then_some(lp as usize)
    }

    fn loop_versions(&self, lp: usize) -> Vec<u64> {
        self.loops[lp]
            .meta
            .loaded_objects
            .iter()
            .map(|o| self.obj_version[o.index()])
            .collect()
    }

    fn finalize_invocation(&mut self, depth: usize) {
        let Some(inv) = self.active.get_mut(depth).and_then(Option::take) else {
            return;
        };
        let versions = self.loop_versions(inv.lp);
        let sig = hash_reg_values(&inv.inputs);
        let lp = &mut self.loops[inv.lp];
        let prof = &mut lp.profile;
        prof.invocations += 1;
        prof.total_iterations += inv.iterations;
        if inv.iterations > 1 {
            prof.multi_iteration += 1;
        }
        let reusable = !lp.meta.impure
            && lp
                .history
                .iter()
                .any(|(s, v)| *s == sig && *v == inv.start_versions && *v == versions);
        if reusable {
            prof.reuse_opportunities += 1;
        }
        if lp.history.len() == CYCLIC_HISTORY {
            lp.history.pop_front();
        }
        lp.history.push_back((sig, versions));
    }
}

impl TraceSink for ValueProfiler {
    fn on_block_enter(&mut self, func: FuncId, block: BlockId) {
        let depth = self.depth;
        if self.active.len() <= depth {
            self.active.resize_with(depth + 1, || None);
        }
        // Entering a tracked header: new invocation or next iteration.
        if let Some(lp) = self.header_loop(func, block) {
            match &mut self.active[depth] {
                Some(inv) if inv.lp == lp => inv.iterations += 1,
                _ => {
                    self.finalize_invocation(depth);
                    let start_versions = self.loop_versions(lp);
                    let regs = self.reg_limits.get(func.index()).copied().unwrap_or(0);
                    self.active[depth] = Some(ActiveInvocation {
                        lp,
                        inputs: Vec::new(),
                        seen: vec![false; regs],
                        iterations: 1,
                        start_versions,
                    });
                }
            }
        } else if let Some(inv) = &self.active[depth] {
            // Leaving the active loop's body ends the invocation.
            if !self.loops[inv.lp].contains(block) {
                self.finalize_invocation(depth);
            }
        }
    }

    fn on_call(&mut self, _caller: FuncId, _callee: FuncId) {
        self.depth += 1;
    }

    fn on_ret(&mut self, _from: FuncId) {
        self.finalize_invocation(self.depth);
        self.depth = self.depth.saturating_sub(1);
    }

    fn on_exec(&mut self, event: &ExecEvent<'_>) {
        self.total_dyn_instrs += 1;
        let instr = event.instr;
        let idx = instr.id.index();
        if self.instr.len() <= idx {
            self.instr.resize_with(idx + 1, LiveInstr::default);
            self.mem.resize_with(idx + 1, LiveMem::default);
        }
        let ip = &mut self.instr[idx];
        ip.observe(hash_values(event.inputs));
        if event.taken == Some(true) {
            ip.taken += 1;
        }

        // Memory bookkeeping.
        if let Some(mem) = event.mem {
            let obj = mem.object.index();
            let slot = mem.index as usize;
            if self.loc_version.len() <= obj {
                self.loc_version.resize(obj + 1, Vec::new());
                self.obj_version.resize(obj + 1, 0);
            }
            let versions = &mut self.loc_version[obj];
            if versions.len() <= slot {
                versions.resize(slot + 1, 0);
            }
            if mem.is_store {
                self.obj_version[obj] += 1;
                versions[slot] += 1;
            } else {
                let version = versions[slot];
                let loc = (mem.object, mem.index);
                let prof = &mut self.mem[idx];
                prof.exec += 1;
                let tracked = prof.last_seen_version.len();
                match prof.last_seen_version.get_mut(&loc) {
                    Some(seen) => {
                        if *seen == version {
                            prof.unchanged += 1;
                        }
                        *seen = version;
                    }
                    None if tracked < MAX_TRACKED_LOCATIONS => {
                        prof.last_seen_version.insert(loc, version);
                    }
                    None => {}
                }
            }
        }

        // Cyclic live-in capture: registers read before written while
        // the invocation is active and the instruction is in the body.
        if let Some(Some(inv)) = self.active.get_mut(self.depth) {
            let lp = &self.loops[inv.lp];
            if event.func == lp.meta.key.func && lp.contains(event.block) {
                let ActiveInvocation { inputs, seen, .. } = inv;
                let mut mark = |r: Reg| {
                    if seen.len() <= r.index() {
                        seen.resize(r.index() + 1, false);
                    }
                    !std::mem::replace(&mut seen[r.index()], true)
                };
                let mut vals = event.inputs.iter();
                instr.for_each_src_operand(|op| {
                    if let (Operand::Reg(r), Some(&val)) = (op, vals.next()) {
                        if mark(r) {
                            inputs.push((r, val));
                        }
                    }
                });
                instr.for_each_dst(|d| {
                    mark(d);
                });
            }
        }
    }
}

/// Hashes a value slice with an FNV-1a-style mix (stable across runs).
pub fn hash_values(values: &[Value]) -> u64 {
    let mut h = ValueHasher::new();
    for v in values {
        h.push(v.0 as u64);
    }
    h.finish()
}

/// The mix of [`hash_values`], fed one word at a time: pushing the
/// words `v.0 as u64` of a slice yields exactly `hash_values(slice)`,
/// without collecting the slice first.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ValueHasher(u64);

impl ValueHasher {
    pub(crate) fn new() -> ValueHasher {
        ValueHasher(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn push(&mut self, word: u64) {
        self.0 ^= word;
        self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        self.0 ^= self.0 >> 29;
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

fn hash_reg_values(pairs: &[(Reg, Value)]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (r, v) in pairs {
        h ^= u64::from(r.0);
        h = h.wrapping_mul(0x1000_0000_01b3);
        h ^= v.0 as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
        h ^= h >> 29;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crb::NullCrb;
    use crate::emulator::Emulator;
    use ccr_ir::{BinKind, CmpPred, ProgramBuilder};

    /// Loop over a constant table, invoked `n` times via an outer loop.
    /// The inner loop's inputs are identical every invocation, so its
    /// cyclic reuse ratio should approach (n-1)/n.
    fn looped_sum(n: i64) -> (ccr_ir::Program, LoopKey) {
        let mut pb = ProgramBuilder::new();
        let t = pb.table("t", vec![2, 4, 6, 8]);
        let mut f = pb.function("main", 0, 1);
        let total = f.movi(0);
        let outer_i = f.movi(0);
        let sum = f.fresh();
        let j = f.fresh();
        let outer = f.block();
        let inner = f.block();
        let inner_done = f.block();
        let done = f.block();
        f.jump(outer);
        f.switch_to(outer);
        f.assign(sum, 0);
        f.assign(j, 0);
        f.jump(inner);
        f.switch_to(inner);
        let v = f.load(t, j);
        f.bin_into(BinKind::Add, sum, sum, v);
        f.inc(j, 1);
        f.br(CmpPred::Lt, j, 4, inner, inner_done);
        f.switch_to(inner_done);
        f.bin_into(BinKind::Add, total, total, sum);
        f.inc(outer_i, 1);
        f.br(CmpPred::Lt, outer_i, n, outer, done);
        f.switch_to(done);
        f.ret(&[ccr_ir::Operand::Reg(total)]);
        let id = pb.finish_function(f);
        pb.set_main(id);
        (
            pb.finish(),
            LoopKey {
                func: ccr_ir::FuncId(0),
                header: inner,
            },
        )
    }

    fn profile(p: &ccr_ir::Program) -> ReuseProfile {
        let mut prof = ValueProfiler::for_program(p);
        Emulator::new(p).run(&mut NullCrb, &mut prof).unwrap();
        prof.finish()
    }

    #[test]
    fn instruction_invariance_of_constant_inputs() {
        let (p, _) = looped_sum(10);
        let prof = profile(&p);
        // The load executes 40 times over 4 distinct indices: top-5
        // vectors cover everything.
        let load_id = p
            .function(p.main())
            .iter_instrs()
            .find(|(_, i)| i.is_load())
            .unwrap()
            .1
            .id;
        assert_eq!(prof.exec(load_id), 40);
        assert!((prof.invariance_ratio(load_id, 5) - 1.0).abs() < 1e-9);
        assert!(prof.instr_profile(load_id).unwrap().distinct_vectors() <= 4);
    }

    #[test]
    fn memory_unchanged_ratio_for_readonly_table() {
        let (p, _) = looped_sum(10);
        let prof = profile(&p);
        let load_id = p
            .function(p.main())
            .iter_instrs()
            .find(|(_, i)| i.is_load())
            .unwrap()
            .1
            .id;
        // First touch of each of 4 locations is "unknown"; the
        // remaining 36 accesses see unchanged locations.
        assert_eq!(prof.mem_unchanged_ratio(load_id), 36.0 / 40.0);
    }

    #[test]
    fn cyclic_profile_counts_invocations_and_reuse() {
        let (p, key) = looped_sum(10);
        let prof = profile(&p);
        let cyc = prof.cyclic_profile(key).expect("inner loop profiled");
        assert_eq!(cyc.invocations, 10);
        assert_eq!(cyc.multi_iteration, 10);
        assert_eq!(cyc.total_iterations, 40);
        // Every invocation after the first can reuse.
        assert_eq!(cyc.reuse_opportunities, 9);
        assert!((cyc.reuse_ratio() - 0.9).abs() < 1e-9);
        assert!((cyc.mean_iterations() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn stores_break_memory_reuse() {
        let mut pb = ProgramBuilder::new();
        let o = pb.object("o", 1);
        let mut f = pb.function("main", 0, 1);
        let i = f.movi(0);
        let acc = f.movi(0);
        let body = f.block();
        let done = f.block();
        f.jump(body);
        f.switch_to(body);
        let v = f.load(o, 0);
        f.bin_into(BinKind::Add, acc, acc, v);
        f.store(o, 0, i); // location changes every iteration
        f.inc(i, 1);
        f.br(CmpPred::Lt, i, 8, body, done);
        f.switch_to(done);
        f.ret(&[ccr_ir::Operand::Reg(acc)]);
        let id = pb.finish_function(f);
        pb.set_main(id);
        let p = pb.finish();
        let prof = profile(&p);
        let load_id = p
            .function(p.main())
            .iter_instrs()
            .find(|(_, i)| i.is_load())
            .unwrap()
            .1
            .id;
        assert_eq!(prof.mem_unchanged_ratio(load_id), 0.0);
        // The loop stores, so it is impure: no cyclic reuse.
        let key = LoopKey {
            func: p.main(),
            header: BlockId(1),
        };
        let cyc = prof.cyclic_profile(key).unwrap();
        assert_eq!(cyc.reuse_opportunities, 0);
    }

    #[test]
    fn varying_inputs_reduce_invariance() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0, 1);
        let i = f.movi(0);
        let acc = f.movi(0);
        let body = f.block();
        let done = f.block();
        f.jump(body);
        f.switch_to(body);
        let sq = f.mul(i, i); // new input vector every iteration
        f.bin_into(BinKind::Add, acc, acc, sq);
        f.inc(i, 1);
        f.br(CmpPred::Lt, i, 100, body, done);
        f.switch_to(done);
        f.ret(&[ccr_ir::Operand::Reg(acc)]);
        let id = pb.finish_function(f);
        pb.set_main(id);
        let p = pb.finish();
        let prof = profile(&p);
        let mul_id = p
            .function(p.main())
            .iter_instrs()
            .find(|(_, i)| {
                matches!(
                    i.op,
                    Op::Binary {
                        kind: BinKind::Mul,
                        ..
                    }
                )
            })
            .unwrap()
            .1
            .id;
        assert_eq!(prof.exec(mul_id), 100);
        assert!(prof.invariance_ratio(mul_id, 5) <= 0.06);
        assert_eq!(prof.recent_ratio(mul_id), 0.0);
    }

    #[test]
    fn recent_window_catches_alternation() {
        // Input alternates between two values: every execution after
        // the first two finds its vector in the 10-deep window.
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0, 1);
        let i = f.movi(0);
        let acc = f.movi(0);
        let body = f.block();
        let done = f.block();
        f.jump(body);
        f.switch_to(body);
        let bit = f.and(i, 1);
        let dbl = f.shl(bit, 1);
        f.bin_into(BinKind::Add, acc, acc, dbl);
        f.inc(i, 1);
        f.br(CmpPred::Lt, i, 50, body, done);
        f.switch_to(done);
        f.ret(&[ccr_ir::Operand::Reg(acc)]);
        let id = pb.finish_function(f);
        pb.set_main(id);
        let p = pb.finish();
        let prof = profile(&p);
        let shl_id = p
            .function(p.main())
            .iter_instrs()
            .find(|(_, i)| {
                matches!(
                    i.op,
                    Op::Binary {
                        kind: BinKind::Shl,
                        ..
                    }
                )
            })
            .unwrap()
            .1
            .id;
        let ip = prof.instr_profile(shl_id).unwrap();
        assert!(ip.recent_ratio() > 0.9, "ratio {}", ip.recent_ratio());
        assert_eq!(ip.distinct_vectors(), 2);
    }

    #[test]
    fn candidate_loops_come_in_key_order() {
        let p = two_sibling_loops();
        let loops = candidate_loops(&p);
        let keys: Vec<LoopKey> = loops.iter().map(|m| m.key).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert_eq!(keys.len(), 2, "both innermost loops are candidates");
        assert_eq!(ValueProfiler::for_program(&p).loop_metas().len(), 2);
    }

    #[test]
    fn finished_profile_keeps_only_invoked_loops_in_key_order() {
        let p = two_sibling_loops();
        let prof = profile(&p);
        let keys: Vec<LoopKey> = prof.iter_cyclic().map(|(k, _)| *k).collect();
        // The second loop never runs (its guard is false), so only the
        // first is reported.
        assert_eq!(keys.len(), 1);
        assert!(prof.cyclic_profile(keys[0]).is_some());
        let absent = candidate_loops(&p)[1].key;
        assert!(prof.cyclic_profile(absent).is_none());
        // Instructions that never ran read as absent.
        let never = p
            .iter_instrs()
            .map(|(_, i)| i.id)
            .find(|&id| prof.exec(id) == 0)
            .expect("the guarded loop's body never runs");
        assert!(prof.instr_profile(never).is_none());
        assert_eq!(prof.taken_ratio(never), 0.0);
    }

    /// Two sibling innermost loops in `main`; the second is guarded by
    /// a branch that is never taken.
    fn two_sibling_loops() -> ccr_ir::Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0, 1);
        let i = f.movi(0);
        let acc = f.movi(0);
        let first = f.block();
        let between = f.block();
        let second = f.block();
        let done = f.block();
        f.jump(first);
        f.switch_to(first);
        f.bin_into(BinKind::Add, acc, acc, i);
        f.inc(i, 1);
        f.br(CmpPred::Lt, i, 4, first, between);
        f.switch_to(between);
        f.br(CmpPred::Lt, i, 0, second, done);
        f.switch_to(second);
        f.bin_into(BinKind::Add, acc, acc, acc);
        f.inc(i, 1);
        f.br(CmpPred::Lt, i, 8, second, done);
        f.switch_to(done);
        f.ret(&[ccr_ir::Operand::Reg(acc)]);
        let id = pb.finish_function(f);
        pb.set_main(id);
        pb.finish()
    }

    #[test]
    fn hash_values_distinguishes_and_is_stable() {
        let a = hash_values(&[Value::from_int(1), Value::from_int(2)]);
        let b = hash_values(&[Value::from_int(2), Value::from_int(1)]);
        let c = hash_values(&[Value::from_int(1), Value::from_int(2)]);
        assert_ne!(a, b);
        assert_eq!(a, c);
        assert_ne!(hash_values(&[]), hash_values(&[Value::ZERO]));
    }
}
