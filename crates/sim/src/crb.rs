//! The Computation Reuse Buffer (Section 3.1 of the paper).
//!
//! A direct-mapped array of *computation entries* indexed by the
//! region identifier carried in the `reuse` instruction. Each entry
//! holds the computation tag (the region id), a valid bit, an array of
//! *computation instances*, and LRU state for instance replacement.
//! Each instance has an input bank and an output bank of eight
//! register entries, a valid bit, and a memory-valid field. A
//! computation instance is reusable when its input register values
//! match the current architectural state and its memory state has not
//! been invalidated.
//!
//! Host layout: instances and ghosts are stored as structure-of-arrays
//! banks ([`InstanceBank`], [`GhostBank`]) — one contiguous
//! fingerprint lane per entry scanned in fixed 4-wide chunks, and
//! flattened fixed-stride input/output rows so a surviving candidate's
//! full verify is one contiguous-slice compare (DESIGN.md §9). The
//! layout is invisible to the simulation: lookups, replacement,
//! snapshots, and `fold_state` all behave exactly as the previous
//! per-instance-`Vec` representation did.

use std::collections::HashSet;

use ccr_ir::{Reg, RegionId, Value};
use ccr_profile::{CrbModel, MissCause, RecordedInstance, ReuseLookup};

use crate::snapshot::{
    cause_from_index, cause_index, CrbEntrySnapshot, CrbGhostSnapshot, CrbInstanceSnapshot,
    CrbSnapshot,
};
use crate::stats::CrbStats;

/// FNV-1a fold of one `(register, value)` pair into a running hash.
/// Folds whole words rather than bytes: the fingerprint is a
/// host-side filter that never leaves the process, so xor-multiply
/// mixing per word gives the same reject power at a fraction of the
/// cost.
#[inline]
fn fnv1a_pair(mut h: u64, r: Reg, v: Value) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    h = (h ^ u64::from(r.0)).wrapping_mul(PRIME);
    h = (h ^ v.0 as u64).wrapping_mul(PRIME);
    h
}

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a fingerprint of a recorded input bank.
fn fingerprint(inputs: &[(Reg, Value)]) -> u64 {
    inputs
        .iter()
        .fold(FNV_OFFSET, |h, &(r, v)| fnv1a_pair(h, r, v))
}

/// Reads `r` through a per-lookup memo so each distinct register is
/// fetched from architectural state exactly once per lookup, no
/// matter how many instances and ghosts are scanned. Input banks hold
/// at most 8 registers, so linear search beats any map.
#[inline]
fn cached_read(
    cache: &mut Vec<(Reg, Value)>,
    read_reg: &mut dyn FnMut(Reg) -> Value,
    r: Reg,
) -> Value {
    if let Some(&(_, v)) = cache.iter().find(|&&(cr, _)| cr == r) {
        return v;
    }
    let v = read_reg(r);
    cache.push((r, v));
    v
}

/// Fingerprint the *current* architectural values of an input bank's
/// register sequence, using the same fold as [`fingerprint`]. Equal
/// recorded and live values therefore produce equal hashes, so a hash
/// mismatch proves at least one value differs — the filter can only
/// reject banks the full compare would reject too.
fn live_fingerprint(
    cache: &mut Vec<(Reg, Value)>,
    read_reg: &mut dyn FnMut(Reg) -> Value,
    regs: &[Reg],
) -> u64 {
    let mut h = FNV_OFFSET;
    for &r in regs {
        h = fnv1a_pair(h, r, cached_read(cache, read_reg, r));
    }
    h
}

/// [`live_fingerprint`] memoized on the input bank's register
/// sequence: all instances (and ghosts) of an entry share the
/// region's input register set, so in practice the fold runs once per
/// lookup and every further bank costs one sequence compare. Banks
/// with a different register sequence (defensive — they should not
/// occur within an entry) fall back to a fresh fold, so the cache can
/// never produce a wrong fingerprint.
fn cached_live_fp(
    fp_regs: &mut Vec<Reg>,
    fp: &mut Option<u64>,
    reads: &mut Vec<(Reg, Value)>,
    read_reg: &mut dyn FnMut(Reg) -> Value,
    regs: &[Reg],
) -> u64 {
    let cached = fp.filter(|_| fp_regs.as_slice() == regs);
    match cached {
        Some(h) => h,
        None => {
            let h = live_fingerprint(reads, read_reg, regs);
            fp_regs.clear();
            fp_regs.extend_from_slice(regs);
            *fp = Some(h);
            h
        }
    }
}

/// Slots per chunk in the fingerprint-lane scan.
const FP_CHUNK: usize = 4;

/// Scans a contiguous fingerprint lane for `target` in fixed 4-wide
/// chunks with a scalar tail (portable — no `std::simd`), visiting
/// matching slots in ascending order until `visit` accepts one
/// (returns `true`). Each chunk reduces four independent compares to
/// one mask word, so the common all-miss chunk costs a single branch;
/// equality on `u64` fingerprints is exactly the scalar filter's
/// predicate, so chunking can never change which slots survive.
#[inline]
fn scan_fp_lane(lane: &[u64], target: u64, visit: &mut impl FnMut(usize) -> bool) -> bool {
    let mut chunks = lane.chunks_exact(FP_CHUNK);
    let mut base = 0usize;
    for c in &mut chunks {
        let mut mask = (c[0] == target) as u32
            | (((c[1] == target) as u32) << 1)
            | (((c[2] == target) as u32) << 2)
            | (((c[3] == target) as u32) << 3);
        while mask != 0 {
            let bit = mask.trailing_zeros() as usize;
            if visit(base + bit) {
                return true;
            }
            mask &= mask - 1;
        }
        base += FP_CHUNK;
    }
    for (i, &f) in chunks.remainder().iter().enumerate() {
        if f == target && visit(base + i) {
            return true;
        }
    }
    false
}

/// Index of the first minimum in a lane (the tie-break
/// `Iterator::min_by_key` used on the old per-instance structs).
fn min_index(lane: &[u64]) -> usize {
    let mut best = 0;
    for (k, &v) in lane.iter().enumerate().skip(1) {
        if v < lane[best] {
            best = k;
        }
    }
    best
}

/// Instance replacement policy within a computation entry (the paper
/// specifies LRU; the alternatives support the ablation benches).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Replacement {
    /// Least-recently-used instance (the paper's policy).
    Lru,
    /// Oldest-inserted instance.
    Fifo,
    /// Uniformly random instance (deterministic xorshift stream).
    Random,
}

/// Nonuniform entry capacities (the paper's future-work item:
/// "reuse buffers with nonuniform capacities", and Section 5.2's
/// observation that "the CRB could be designed to have only a portion
/// of the computation entries with memory reuse capabilities").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct NonuniformConfig {
    /// Every `boost_every`-th entry holds `boosted_instances`
    /// computation instances instead of the base count.
    pub boost_every: usize,
    /// Instance count of the boosted entries.
    pub boosted_instances: usize,
    /// Percentage of entries (from index 0 upward) capable of holding
    /// memory-dependent instances; the rest silently drop them.
    pub mem_capable_percent: u8,
}

/// Buffer geometry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrbConfig {
    /// Number of computation entries (32 / 64 / 128 in the paper).
    pub entries: usize,
    /// Computation instances per entry (4 / 8 / 16 in the paper).
    pub instances: usize,
    /// Register entries in each instance's input bank.
    pub input_bank: usize,
    /// Register entries in each instance's output bank.
    pub output_bank: usize,
    /// Instance replacement policy.
    pub replacement: Replacement,
    /// Optional nonuniform entry capacities.
    pub nonuniform: Option<NonuniformConfig>,
}

impl CrbConfig {
    /// The paper's cost-effective configuration: 128 entries × 8
    /// instances, 8-entry banks, LRU.
    pub fn paper() -> CrbConfig {
        CrbConfig {
            entries: 128,
            instances: 8,
            input_bank: 8,
            output_bank: 8,
            replacement: Replacement::Lru,
            nonuniform: None,
        }
    }

    /// The paper's configuration with a different entry count.
    pub fn with_entries(entries: usize) -> CrbConfig {
        CrbConfig {
            entries,
            ..CrbConfig::paper()
        }
    }

    /// The paper's configuration with a different instance count.
    pub fn with_instances(instances: usize) -> CrbConfig {
        CrbConfig {
            instances,
            ..CrbConfig::paper()
        }
    }

    /// Canonical `(field, value)` enumeration of the buffer geometry,
    /// in declaration order (the optional nonuniform block flattened
    /// as `nonuniform.*`, `"-"` when absent).
    ///
    /// The experiment planner keys simulation units by hashing these
    /// pairs and labels sweep axes by diffing them, so the list must
    /// stay exhaustive — a missing field would alias two distinct
    /// buffer geometries.
    pub fn fields(&self) -> Vec<(&'static str, String)> {
        let (boost_every, boosted, mem_pct) = match self.nonuniform {
            None => ("-".to_string(), "-".to_string(), "-".to_string()),
            Some(nu) => (
                nu.boost_every.to_string(),
                nu.boosted_instances.to_string(),
                nu.mem_capable_percent.to_string(),
            ),
        };
        vec![
            ("entries", self.entries.to_string()),
            ("instances", self.instances.to_string()),
            ("input_bank", self.input_bank.to_string()),
            ("output_bank", self.output_bank.to_string()),
            (
                "replacement",
                match self.replacement {
                    Replacement::Lru => "lru",
                    Replacement::Fifo => "fifo",
                    Replacement::Random => "random",
                }
                .to_string(),
            ),
            ("nonuniform.boost_every", boost_every),
            ("nonuniform.boosted_instances", boosted),
            ("nonuniform.mem_capable_percent", mem_pct),
        ]
    }
}

/// Kind of a logged buffer event (see [`ReuseBuffer::set_event_logging`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CrbEventKind {
    /// A valid computation instance was overwritten by capacity
    /// replacement within its entry.
    Evict,
    /// An entry was reassigned to a different region (direct-mapped
    /// tag conflict), discarding the previous region's instances.
    Conflict,
    /// An `invalidate` killed one or more memory-dependent instances.
    Invalidate,
}

/// One logged buffer event. Recorded only while event logging is on;
/// the default-off log keeps the hot path allocation-free.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CrbEvent {
    /// Buffer clock at the event (advances on every lookup and record).
    pub clock: u64,
    /// What happened.
    pub kind: CrbEventKind,
    /// Region whose record or invalidate triggered the event.
    pub region: RegionId,
    /// Direct-mapped entry index involved.
    pub entry: usize,
    /// Valid instances in the entry after the event.
    pub occupancy: usize,
    /// Instances lost: 1 for an eviction, the cleared count for a
    /// conflict, the killed count for an invalidation.
    pub lost: usize,
}

/// Structure-of-arrays storage for one entry's computation instances.
///
/// Slot `k`'s scalar fields live at index `k` of each lane; its input
/// and output banks occupy rows `k * stride ..` of the flattened
/// register/value vectors (`in_len`/`out_len` give the live prefix of
/// each row). The fingerprint lane `fps` is the lane `lookup` scans
/// with [`scan_fp_lane`]; an invalid slot keeps whatever stale lane
/// data it last held, exactly as the old per-instance structs kept
/// stale `Vec`s after `valid` was cleared — `fold_state` and
/// snapshots observe that stale data, so it is part of the simulated
/// state trajectory and must survive the layout change.
#[derive(Clone, Debug)]
struct InstanceBank {
    /// Slot count (the entry's instance capacity).
    slots: usize,
    /// Row width of the flattened input banks.
    in_stride: usize,
    /// Row width of the flattened output banks.
    out_stride: usize,
    valid: Vec<bool>,
    /// Contiguous fingerprint lane, one `u64` per slot (see
    /// [`fingerprint`]; 0 for never-written slots).
    fps: Vec<u64>,
    accesses_memory: Vec<bool>,
    body_instrs: Vec<u64>,
    last_use: Vec<u64>,
    inserted: Vec<u64>,
    in_len: Vec<u32>,
    in_regs: Vec<Reg>,
    in_vals: Vec<Value>,
    out_len: Vec<u32>,
    out_regs: Vec<Reg>,
    out_vals: Vec<Value>,
}

impl InstanceBank {
    fn new(slots: usize, in_stride: usize, out_stride: usize) -> InstanceBank {
        InstanceBank {
            slots,
            in_stride,
            out_stride,
            valid: vec![false; slots],
            fps: vec![0; slots],
            accesses_memory: vec![false; slots],
            body_instrs: vec![0; slots],
            last_use: vec![0; slots],
            inserted: vec![0; slots],
            in_len: vec![0; slots],
            in_regs: vec![Reg(0); slots * in_stride],
            in_vals: vec![Value::ZERO; slots * in_stride],
            out_len: vec![0; slots],
            out_regs: vec![Reg(0); slots * out_stride],
            out_vals: vec![Value::ZERO; slots * out_stride],
        }
    }

    /// Input-bank register sequence of slot `k`.
    fn in_regs_row(&self, k: usize) -> &[Reg] {
        &self.in_regs[k * self.in_stride..][..self.in_len[k] as usize]
    }

    /// Input-bank recorded values of slot `k` (contiguous; the whole
    /// full-verify compare is one slice equality against the gathered
    /// live values).
    fn in_vals_row(&self, k: usize) -> &[Value] {
        &self.in_vals[k * self.in_stride..][..self.in_len[k] as usize]
    }

    /// Output bank of slot `k`, materialized as the `(reg, value)`
    /// pairs a [`ReuseLookup`] carries.
    fn out_pairs(&self, k: usize) -> Vec<(Reg, Value)> {
        let base = k * self.out_stride;
        let len = self.out_len[k] as usize;
        self.out_regs[base..base + len]
            .iter()
            .zip(&self.out_vals[base..base + len])
            .map(|(&r, &v)| (r, v))
            .collect()
    }

    /// True when slot `k` holds exactly `inputs` (register sequence
    /// and values) — the dedup predicate of `record`.
    fn in_row_eq(&self, k: usize, inputs: &[(Reg, Value)]) -> bool {
        self.in_len[k] as usize == inputs.len()
            && self
                .in_regs_row(k)
                .iter()
                .zip(self.in_vals_row(k))
                .zip(inputs)
                .all(|((&r, &v), &(ir, iv))| r == ir && v == iv)
    }

    /// Writes a freshly recorded instance into slot `k`.
    fn write_slot(&mut self, k: usize, inst: &RecordedInstance, fp: u64, clock: u64) {
        self.valid[k] = true;
        self.fps[k] = fp;
        self.accesses_memory[k] = inst.accesses_memory;
        self.body_instrs[k] = inst.body_instrs;
        self.last_use[k] = clock;
        self.inserted[k] = clock;
        self.in_len[k] = inst.inputs.len() as u32;
        let base = k * self.in_stride;
        for (j, &(r, v)) in inst.inputs.iter().enumerate() {
            self.in_regs[base + j] = r;
            self.in_vals[base + j] = v;
        }
        self.out_len[k] = inst.outputs.len() as u32;
        let base = k * self.out_stride;
        for (j, &(r, v)) in inst.outputs.iter().enumerate() {
            self.out_regs[base + j] = r;
            self.out_vals[base + j] = v;
        }
    }

    /// Resets every slot to the empty instance (a conflict clearing
    /// the entry; the old code assigned `Instance::empty()`, which
    /// dropped stale data rather than just clearing `valid`).
    fn clear_all(&mut self) {
        self.valid.fill(false);
        self.fps.fill(0);
        self.accesses_memory.fill(false);
        self.body_instrs.fill(0);
        self.last_use.fill(0);
        self.inserted.fill(0);
        self.in_len.fill(0);
        self.out_len.fill(0);
    }
}

/// Structure-of-arrays ghost list: the observational remnants of
/// instances that left the entry while its region kept the tag — the
/// input bank each matched on and why it died. Ghosts let a later miss
/// on the same inputs be classified as a capacity or invalidation
/// casualty instead of a plain mismatch. Purely diagnostic — never
/// consulted by hit/replacement decisions.
///
/// Index 0 is the oldest ghost; classification scans newest-first.
/// The same lane layout as [`InstanceBank`] makes that scan one
/// batched fingerprint pass instead of a per-ghost pointer walk.
#[derive(Clone, Debug)]
struct GhostBank {
    /// Row width of the flattened input banks.
    stride: usize,
    fps: Vec<u64>,
    causes: Vec<MissCause>,
    lens: Vec<u32>,
    regs: Vec<Reg>,
    vals: Vec<Value>,
}

impl GhostBank {
    fn new(stride: usize) -> GhostBank {
        GhostBank {
            stride,
            fps: Vec::new(),
            causes: Vec::new(),
            lens: Vec::new(),
            regs: Vec::new(),
            vals: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.fps.len()
    }

    fn regs_row(&self, k: usize) -> &[Reg] {
        &self.regs[k * self.stride..][..self.lens[k] as usize]
    }

    fn vals_row(&self, k: usize) -> &[Value] {
        &self.vals[k * self.stride..][..self.lens[k] as usize]
    }

    /// Appends a ghost (newest position).
    fn push(&mut self, regs: &[Reg], vals: &[Value], fp: u64, cause: MissCause) {
        self.fps.push(fp);
        self.causes.push(cause);
        self.lens.push(regs.len() as u32);
        let base = self.regs.len();
        self.regs.resize(base + self.stride, Reg(0));
        self.vals.resize(base + self.stride, Value::ZERO);
        self.regs[base..base + regs.len()].copy_from_slice(regs);
        self.vals[base..base + vals.len()].copy_from_slice(vals);
    }

    /// Drops the oldest ghost. O(len) lane copies, but it only runs
    /// when a record overflows the ghost cap — never on a lookup.
    fn pop_front(&mut self) {
        self.fps.remove(0);
        self.causes.remove(0);
        self.lens.remove(0);
        self.regs.drain(..self.stride);
        self.vals.drain(..self.stride);
    }

    fn clear(&mut self) {
        self.fps.clear();
        self.causes.clear();
        self.lens.clear();
        self.regs.clear();
        self.vals.clear();
    }

    /// Removes every ghost whose fingerprint and input bank equal
    /// (`fp`, `inputs`), preserving order — `record`'s re-recorded-
    /// inputs shedding.
    fn remove_matching(&mut self, fp: u64, inputs: &[(Reg, Value)]) {
        let mut write = 0;
        for read in 0..self.len() {
            let matches = self.fps[read] == fp
                && self.lens[read] as usize == inputs.len()
                && self
                    .regs_row(read)
                    .iter()
                    .zip(self.vals_row(read))
                    .zip(inputs)
                    .all(|((&r, &v), &(ir, iv))| r == ir && v == iv);
            if matches {
                continue;
            }
            if write != read {
                self.fps[write] = self.fps[read];
                self.causes[write] = self.causes[read];
                self.lens[write] = self.lens[read];
                let (dst, src) = (write * self.stride, read * self.stride);
                self.regs.copy_within(src..src + self.stride, dst);
                self.vals.copy_within(src..src + self.stride, dst);
            }
            write += 1;
        }
        self.fps.truncate(write);
        self.causes.truncate(write);
        self.lens.truncate(write);
        self.regs.truncate(write * self.stride);
        self.vals.truncate(write * self.stride);
    }
}

#[derive(Clone, Debug)]
struct Entry {
    tag: Option<RegionId>,
    bank: InstanceBank,
    ghosts: GhostBank,
    /// Canonical input register sequence shared by every valid
    /// instance and every ghost while `uniform` holds. Set by the
    /// first insert after the entry was (re)claimed; the batched scan
    /// relies on it to gather live values and fold the live
    /// fingerprint exactly once per lookup.
    seq: Vec<Reg>,
    /// Whether `seq` has been established.
    has_seq: bool,
    /// True while every valid instance and ghost shares `seq`. In
    /// practice always true (an entry's instances all come from one
    /// region, whose input register set is static); a divergent insert
    /// — possible only via hand-built snapshots — drops the entry to
    /// the scalar reference scan, which handles arbitrary sequences.
    uniform: bool,
}

impl Entry {
    fn new(slots: usize, in_stride: usize, out_stride: usize) -> Entry {
        Entry {
            tag: None,
            bank: InstanceBank::new(slots, in_stride, out_stride),
            ghosts: GhostBank::new(in_stride),
            seq: Vec::new(),
            has_seq: false,
            uniform: true,
        }
    }

    /// The entry's ghost capacity: twice its instance count.
    fn ghost_cap(&self) -> usize {
        self.bank.slots * 2
    }

    /// Remembers a departed instance's input bank (slot `k`), keeping
    /// at most [`ghost_cap`](Entry::ghost_cap) ghosts (oldest dropped
    /// first).
    fn ghost_from_slot(&mut self, k: usize, cause: MissCause) {
        if self.ghosts.len() >= self.ghost_cap() {
            self.ghosts.pop_front();
        }
        let base = k * self.bank.in_stride;
        let len = self.bank.in_len[k] as usize;
        self.ghosts.push(
            &self.bank.in_regs[base..base + len],
            &self.bank.in_vals[base..base + len],
            self.bank.fps[k],
            cause,
        );
    }

    /// Folds a new instance's register sequence into the uniformity
    /// tracking.
    fn note_seq(&mut self, inputs: &[(Reg, Value)]) {
        if !self.has_seq {
            self.seq.clear();
            self.seq.extend(inputs.iter().map(|&(r, _)| r));
            self.has_seq = true;
        } else if self.uniform
            && !(self.seq.len() == inputs.len()
                && self.seq.iter().zip(inputs).all(|(&s, &(r, _))| s == r))
        {
            self.uniform = false;
        }
    }

    /// Clears instances, ghosts, and the uniformity tracking (a tag
    /// conflict reclaiming the entry).
    fn clear_contents(&mut self) {
        self.bank.clear_all();
        self.ghosts.clear();
        self.seq.clear();
        self.has_seq = false;
        self.uniform = true;
    }
}

/// The hardware buffer. Implements [`CrbModel`] so the emulator can
/// consult it during execution-driven simulation.
///
/// ```
/// use ccr_ir::{Reg, RegionId, Value};
/// use ccr_profile::{CrbModel, RecordedInstance};
/// use ccr_sim::{CrbConfig, ReuseBuffer};
///
/// let mut buf = ReuseBuffer::new(CrbConfig::paper());
/// buf.record(RegionId(3), RecordedInstance {
///     inputs: vec![(Reg(1), Value::from_int(17))],
///     outputs: vec![(Reg(2), Value::from_int(289))],
///     accesses_memory: false,
///     body_instrs: 12,
/// });
/// // A lookup with r1 = 17 replays the recorded outputs.
/// let hit = buf.lookup(RegionId(3), &mut |_| Value::from_int(17)).unwrap();
/// assert_eq!(hit.outputs[0].1.as_int(), 289);
/// assert_eq!(hit.skipped_instrs, 12);
/// // A different input misses.
/// assert!(buf.lookup(RegionId(3), &mut |_| Value::from_int(18)).is_none());
/// ```
#[derive(Clone, Debug)]
pub struct ReuseBuffer {
    config: CrbConfig,
    entries: Vec<Entry>,
    clock: u64,
    rng: u64,
    stats: CrbStats,
    log_events: bool,
    events: Vec<CrbEvent>,
    /// Regions that ever had an instance actually inserted (dropped
    /// records — oversized banks, mem-incapable entries — don't
    /// count). Misses on regions outside this set are cold.
    ever_recorded: HashSet<RegionId>,
    /// Cause of the most recent miss; `None` after a hit.
    last_miss_cause: Option<MissCause>,
    /// When on (the default), `lookup` rejects instances and ghosts
    /// whose stored fingerprint differs from the fingerprint of the
    /// current register values before doing the full bank compare.
    /// Host-speed filter only — outcomes are identical either way
    /// (enforced by a property test).
    fp_filter: bool,
    /// When false, `lookup` uses the scalar reference scan even for
    /// uniform entries. Host-speed switch only, like `fp_filter`.
    batched_scan: bool,
    /// Per-lookup register-read memo for the scalar scan, kept on the
    /// buffer so the hot path never allocates after warmup.
    read_scratch: Vec<(Reg, Value)>,
    /// Register sequence of the last live-fingerprint fold (see
    /// [`cached_live_fp`]); same allocation-reuse rationale.
    fp_regs_scratch: Vec<Reg>,
    /// Live values of the entry's shared register sequence, gathered
    /// once per batched lookup.
    live_vals_scratch: Vec<Value>,
    /// Fingerprint-surviving ghost indices of a batched scan (the
    /// forward chunked pass feeds the newest-first verify order).
    ghost_match_scratch: Vec<u32>,
}

impl ReuseBuffer {
    /// Creates an empty buffer.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero entries or instances.
    pub fn new(config: CrbConfig) -> ReuseBuffer {
        assert!(config.entries > 0 && config.instances > 0);
        if let Some(nu) = config.nonuniform {
            assert!(nu.boost_every > 0 && nu.boosted_instances > 0);
            assert!(nu.mem_capable_percent <= 100);
        }
        ReuseBuffer {
            entries: (0..config.entries)
                .map(|idx| {
                    let count = match config.nonuniform {
                        Some(nu) if idx % nu.boost_every == 0 => nu.boosted_instances,
                        _ => config.instances,
                    };
                    Entry::new(count, config.input_bank, config.output_bank)
                })
                .collect(),
            config,
            clock: 0,
            rng: 0x9e37_79b9_7f4a_7c15,
            stats: CrbStats::default(),
            log_events: false,
            events: Vec::new(),
            ever_recorded: HashSet::new(),
            last_miss_cause: None,
            fp_filter: true,
            batched_scan: true,
            read_scratch: Vec::new(),
            fp_regs_scratch: Vec::new(),
            live_vals_scratch: Vec::new(),
            ghost_match_scratch: Vec::new(),
        }
    }

    /// Enables or disables the fingerprint reject filter in `lookup`.
    /// On by default; turning it off forces the full bank compare for
    /// every instance and ghost. Exists so tests and benches can pit
    /// the filtered path against the reference path — simulated
    /// outcomes are identical either way.
    pub fn set_fingerprint_filter(&mut self, on: bool) {
        self.fp_filter = on;
    }

    /// Enables or disables the batched (chunked fingerprint-lane)
    /// scan in `lookup`. On by default; turning it off forces the
    /// scalar reference scan for every entry. Same outcome-invariance
    /// contract (and property test) as
    /// [`set_fingerprint_filter`](ReuseBuffer::set_fingerprint_filter).
    pub fn set_batched_scan(&mut self, on: bool) {
        self.batched_scan = on;
    }

    /// The buffer's counters.
    pub fn stats(&self) -> CrbStats {
        self.stats.check();
        self.stats
    }

    /// Turns the eviction/conflict/invalidation event log on or off.
    /// Off by default: the log allocates, and most simulations never
    /// read it.
    pub fn set_event_logging(&mut self, on: bool) {
        self.log_events = on;
    }

    /// Drains the logged events, oldest first.
    pub fn take_events(&mut self) -> Vec<CrbEvent> {
        std::mem::take(&mut self.events)
    }

    /// Valid instances currently held by the entry at `idx`.
    fn occupancy(&self, idx: usize) -> usize {
        self.entries[idx].bank.valid.iter().filter(|&&v| v).count()
    }

    /// The buffer's geometry.
    pub fn config(&self) -> CrbConfig {
        self.config
    }

    fn entry_index(&self, region: RegionId) -> usize {
        region.index() % self.config.entries
    }

    /// True if the entry at `idx` may hold memory-dependent instances.
    fn mem_capable(&self, idx: usize) -> bool {
        match self.config.nonuniform {
            None => true,
            Some(nu) => idx * 100 < self.config.entries * nu.mem_capable_percent as usize,
        }
    }

    fn next_random(&mut self) -> u64 {
        // xorshift64*: deterministic, seedless-reproducible.
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Captures the complete buffer state as plain data.
    ///
    /// # Errors
    ///
    /// Event-logging buffers cannot be snapshotted: the event log is
    /// diagnostic state the snapshot format deliberately excludes.
    pub fn snapshot(&self) -> Result<CrbSnapshot, String> {
        if self.log_events {
            return Err("cannot snapshot a reuse buffer with event logging enabled".to_string());
        }
        let mut ever: Vec<u32> = self.ever_recorded.iter().map(|r| r.0).collect();
        ever.sort_unstable();
        Ok(CrbSnapshot {
            clock: self.clock,
            rng: self.rng,
            stats: self.stats,
            last_miss_cause: self.last_miss_cause.map(cause_index),
            ever_recorded: ever,
            entries: self
                .entries
                .iter()
                .map(|e| CrbEntrySnapshot {
                    tag: e.tag.map(|r| r.0),
                    instances: (0..e.bank.slots)
                        .map(|k| CrbInstanceSnapshot {
                            valid: e.bank.valid[k],
                            inputs: e
                                .bank
                                .in_regs_row(k)
                                .iter()
                                .zip(e.bank.in_vals_row(k))
                                .map(|(&r, &v)| (r.0, v.0 as u64))
                                .collect(),
                            fp: e.bank.fps[k],
                            outputs: e
                                .bank
                                .out_pairs(k)
                                .iter()
                                .map(|&(r, v)| (r.0, v.0 as u64))
                                .collect(),
                            accesses_memory: e.bank.accesses_memory[k],
                            body_instrs: e.bank.body_instrs[k],
                            last_use: e.bank.last_use[k],
                            inserted: e.bank.inserted[k],
                        })
                        .collect(),
                    ghosts: (0..e.ghosts.len())
                        .map(|k| CrbGhostSnapshot {
                            inputs: e
                                .ghosts
                                .regs_row(k)
                                .iter()
                                .zip(e.ghosts.vals_row(k))
                                .map(|(&r, &v)| (r.0, v.0 as u64))
                                .collect(),
                            fp: e.ghosts.fps[k],
                            cause: cause_index(e.ghosts.causes[k]),
                        })
                        .collect(),
                })
                .collect(),
        })
    }

    /// Rebuilds a mid-run buffer from a snapshot. The snapshot format
    /// is layout-independent plain data (one instance/ghost struct per
    /// candidate), so restoring through the structure-of-arrays banks
    /// needs no `snap_v` bump; uniformity of each entry's register
    /// sequences is recomputed from the restored rows.
    ///
    /// # Errors
    ///
    /// Returns a one-line description when the snapshot geometry does
    /// not match `config` or a miss-cause index is out of range.
    pub fn restore(config: CrbConfig, snap: &CrbSnapshot) -> Result<ReuseBuffer, String> {
        let mut buf = ReuseBuffer::new(config);
        if snap.entries.len() != buf.entries.len() {
            return Err(format!(
                "crb snapshot has {} entries, config wants {}",
                snap.entries.len(),
                buf.entries.len()
            ));
        }
        for (idx, (es, entry)) in snap.entries.iter().zip(buf.entries.iter_mut()).enumerate() {
            if es.instances.len() != entry.bank.slots {
                return Err(format!(
                    "crb entry {idx} has {} instances, config wants {}",
                    es.instances.len(),
                    entry.bank.slots
                ));
            }
            if es.ghosts.len() > entry.ghost_cap() {
                return Err(format!(
                    "crb entry {idx} has {} ghosts, capacity is {}",
                    es.ghosts.len(),
                    entry.ghost_cap()
                ));
            }
            // Hand-built snapshots may carry banks wider than the
            // configured strides; grow the rows to fit rather than
            // corrupting neighbors (records at runtime still enforce
            // the configured capacities).
            let in_stride = es
                .instances
                .iter()
                .map(|i| i.inputs.len())
                .chain(es.ghosts.iter().map(|g| g.inputs.len()))
                .max()
                .unwrap_or(0)
                .max(config.input_bank);
            let out_stride = es
                .instances
                .iter()
                .map(|i| i.outputs.len())
                .max()
                .unwrap_or(0)
                .max(config.output_bank);
            entry.tag = es.tag.map(RegionId);
            entry.bank = InstanceBank::new(es.instances.len(), in_stride, out_stride);
            entry.ghosts = GhostBank::new(in_stride);
            for (k, i) in es.instances.iter().enumerate() {
                let inst = RecordedInstance {
                    inputs: i
                        .inputs
                        .iter()
                        .map(|&(r, v)| (Reg(r), Value(v as i64)))
                        .collect(),
                    outputs: i
                        .outputs
                        .iter()
                        .map(|&(r, v)| (Reg(r), Value(v as i64)))
                        .collect(),
                    accesses_memory: i.accesses_memory,
                    body_instrs: i.body_instrs,
                };
                entry.bank.write_slot(k, &inst, i.fp, 0);
                entry.bank.valid[k] = i.valid;
                entry.bank.last_use[k] = i.last_use;
                entry.bank.inserted[k] = i.inserted;
            }
            for g in &es.ghosts {
                let pairs: Vec<(Reg, Value)> = g
                    .inputs
                    .iter()
                    .map(|&(r, v)| (Reg(r), Value(v as i64)))
                    .collect();
                let regs: Vec<Reg> = pairs.iter().map(|&(r, _)| r).collect();
                let vals: Vec<Value> = pairs.iter().map(|&(_, v)| v).collect();
                entry
                    .ghosts
                    .push(&regs, &vals, g.fp, cause_from_index(g.cause)?);
            }
            // Recompute the shared-sequence invariant over the valid
            // instances and ghosts actually restored.
            entry.seq.clear();
            entry.has_seq = false;
            entry.uniform = true;
            let mut sequences = (0..entry.bank.slots)
                .filter(|&k| entry.bank.valid[k])
                .map(|k| entry.bank.in_regs_row(k))
                .chain((0..entry.ghosts.len()).map(|k| entry.ghosts.regs_row(k)));
            if let Some(first) = sequences.next() {
                entry.seq = first.to_vec();
                entry.has_seq = true;
                entry.uniform = sequences.all(|s| s == entry.seq.as_slice());
            }
        }
        buf.clock = snap.clock;
        buf.rng = snap.rng;
        buf.stats = snap.stats;
        buf.last_miss_cause = snap.last_miss_cause.map(cause_from_index).transpose()?;
        buf.ever_recorded = snap.ever_recorded.iter().map(|r| RegionId(*r)).collect();
        Ok(buf)
    }

    /// Folds the full buffer state into `push` in a deterministic
    /// order (the `ever_recorded` set is sorted first). The event log,
    /// the fingerprint-filter and batched-scan switches, the scratch
    /// vectors, and the uniformity tracking are excluded: none of them
    /// alters simulated outcomes. The per-candidate iteration order is
    /// slot/queue order, exactly the stream the pre-SoA layout
    /// produced, so fingerprint chains are layout-invariant.
    pub fn fold_state(&self, push: &mut dyn FnMut(u64)) {
        push(self.clock);
        push(self.rng);
        self.stats.fold_state(push);
        match self.last_miss_cause {
            None => push(0),
            Some(c) => {
                push(1);
                push(cause_index(c));
            }
        }
        let mut ever: Vec<u32> = self.ever_recorded.iter().map(|r| r.0).collect();
        ever.sort_unstable();
        push(ever.len() as u64);
        for r in ever {
            push(u64::from(r));
        }
        push(self.entries.len() as u64);
        for e in &self.entries {
            match e.tag {
                None => push(0),
                Some(r) => {
                    push(1);
                    push(u64::from(r.0));
                }
            }
            push(e.bank.slots as u64);
            for k in 0..e.bank.slots {
                push(u64::from(e.bank.valid[k]));
                push(u64::from(e.bank.in_len[k]));
                for (r, v) in e.bank.in_regs_row(k).iter().zip(e.bank.in_vals_row(k)) {
                    push(u64::from(r.0));
                    push(v.0 as u64);
                }
                push(e.bank.fps[k]);
                push(u64::from(e.bank.out_len[k]));
                let base = k * e.bank.out_stride;
                let len = e.bank.out_len[k] as usize;
                for (r, v) in e.bank.out_regs[base..base + len]
                    .iter()
                    .zip(&e.bank.out_vals[base..base + len])
                {
                    push(u64::from(r.0));
                    push(v.0 as u64);
                }
                push(u64::from(e.bank.accesses_memory[k]));
                push(e.bank.body_instrs[k]);
                push(e.bank.last_use[k]);
                push(e.bank.inserted[k]);
            }
            push(e.ghosts.len() as u64);
            for k in 0..e.ghosts.len() {
                push(u64::from(e.ghosts.lens[k]));
                for (r, v) in e.ghosts.regs_row(k).iter().zip(e.ghosts.vals_row(k)) {
                    push(u64::from(r.0));
                    push(v.0 as u64);
                }
                push(e.ghosts.fps[k]);
                push(cause_index(e.ghosts.causes[k]));
            }
        }
    }

    /// Test hook: XORs the replacement RNG stream with a constant,
    /// deterministically disturbing internal state so fingerprint
    /// divergence can be injected at a chosen point.
    #[doc(hidden)]
    pub fn perturb_for_tests(&mut self) {
        self.rng ^= 0xdead_beef_0bad_f00d;
    }

    fn victim_slot(&mut self, idx: usize) -> usize {
        let bank = &self.entries[idx].bank;
        if let Some(free) = bank.valid.iter().position(|v| !v) {
            return free;
        }
        match self.config.replacement {
            Replacement::Lru => min_index(&bank.last_use),
            Replacement::Fifo => min_index(&bank.inserted),
            Replacement::Random => {
                let n = bank.slots as u64;
                (self.next_random() % n) as usize
            }
        }
    }
}

impl CrbModel for ReuseBuffer {
    fn lookup(
        &mut self,
        region: RegionId,
        read_reg: &mut dyn FnMut(Reg) -> Value,
    ) -> Option<ReuseLookup> {
        self.stats.lookups += 1;
        self.clock += 1;
        let idx = self.entry_index(region);
        let clock = self.clock;
        let recorded_before = self.ever_recorded.contains(&region);
        let entry = &mut self.entries[idx];
        if entry.tag != Some(region) {
            // The tag only moves away from a recorded region via a
            // direct-mapped reassignment, so a tag miss on a known
            // region is a conflict casualty.
            let cause = if recorded_before {
                MissCause::Conflict
            } else {
                MissCause::Cold
            };
            self.stats.misses += 1;
            self.stats.count_miss_cause(cause);
            self.last_miss_cause = Some(cause);
            return None;
        }
        let fp_filter = self.fp_filter;
        // The hit slot, or the classified miss cause. Both scans honor
        // the same order contract: instances in slot order (first full
        // match wins), ghosts newest-first.
        let outcome: Result<usize, MissCause> = if self.batched_scan && entry.uniform {
            // Batched scan: every candidate shares the entry's
            // register sequence, so one pass gathers the live value
            // of each register and folds the live fingerprint; the
            // fingerprint lanes are then scanned in 4-wide chunks and
            // each survivor's full verify is one contiguous-slice
            // compare against the gathered values.
            let live_vals = &mut self.live_vals_scratch;
            live_vals.clear();
            let mut live_fp = FNV_OFFSET;
            for &r in &entry.seq {
                let v = read_reg(r);
                live_vals.push(v);
                live_fp = fnv1a_pair(live_fp, r, v);
            }
            let bank = &entry.bank;
            let mut hit_slot = None;
            if fp_filter {
                scan_fp_lane(&bank.fps, live_fp, &mut |k| {
                    if bank.valid[k] && bank.in_vals_row(k) == live_vals.as_slice() {
                        hit_slot = Some(k);
                        true
                    } else {
                        false
                    }
                });
            } else {
                hit_slot = (0..bank.slots)
                    .find(|&k| bank.valid[k] && bank.in_vals_row(k) == live_vals.as_slice());
            }
            match hit_slot {
                Some(k) => Ok(k),
                None => {
                    // Batched ghost classification: one forward
                    // chunked pass collects the fingerprint survivors,
                    // then the (rare) survivors verify newest-first —
                    // the same "most recent matching ghost wins"
                    // semantics as the old reverse walk.
                    let ghosts = &entry.ghosts;
                    let mut cause = None;
                    if fp_filter {
                        let matches = &mut self.ghost_match_scratch;
                        matches.clear();
                        scan_fp_lane(&ghosts.fps, live_fp, &mut |k| {
                            matches.push(k as u32);
                            false
                        });
                        for &k in matches.iter().rev() {
                            if ghosts.vals_row(k as usize) == live_vals.as_slice() {
                                cause = Some(ghosts.causes[k as usize]);
                                break;
                            }
                        }
                    } else {
                        for k in (0..ghosts.len()).rev() {
                            if ghosts.vals_row(k) == live_vals.as_slice() {
                                cause = Some(ghosts.causes[k]);
                                break;
                            }
                        }
                    }
                    Err(match cause {
                        Some(c) => c,
                        None if entry.bank.valid.iter().all(|&v| !v) => MissCause::Invalidated,
                        None => MissCause::Mismatch,
                    })
                }
            }
        } else {
            // Scalar reference scan: per-candidate fingerprint folds
            // (memoized on the register sequence) and per-pair
            // compares. Handles entries whose candidates disagree on
            // their register sequences; also the reference side of the
            // batched-vs-scalar property test.
            let reads = &mut self.read_scratch;
            reads.clear();
            let fp_regs = &mut self.fp_regs_scratch;
            fp_regs.clear();
            let mut live_fp: Option<u64> = None;
            let bank = &entry.bank;
            let mut hit_slot = None;
            for k in 0..bank.slots {
                if !bank.valid[k] {
                    continue;
                }
                let regs = bank.in_regs_row(k);
                if fp_filter
                    && cached_live_fp(fp_regs, &mut live_fp, reads, read_reg, regs) != bank.fps[k]
                {
                    continue; // some input value differs — cannot match
                }
                if regs
                    .iter()
                    .zip(bank.in_vals_row(k))
                    .all(|(&r, &v)| cached_read(reads, read_reg, r) == v)
                {
                    hit_slot = Some(k);
                    break;
                }
            }
            match hit_slot {
                Some(k) => Ok(k),
                None => {
                    // No live instance matched. If a ghost matches the
                    // current register values, the instance that would
                    // have hit was lost — blame its recorded cause
                    // (most recent ghost first). A tagged entry with
                    // no live instances at all was emptied by
                    // invalidation (records always leave one
                    // instance).
                    let ghosts = &entry.ghosts;
                    let mut cause = None;
                    for k in (0..ghosts.len()).rev() {
                        let regs = ghosts.regs_row(k);
                        if fp_filter
                            && cached_live_fp(fp_regs, &mut live_fp, reads, read_reg, regs)
                                != ghosts.fps[k]
                        {
                            continue;
                        }
                        if regs
                            .iter()
                            .zip(ghosts.vals_row(k))
                            .all(|(&r, &v)| cached_read(reads, read_reg, r) == v)
                        {
                            cause = Some(ghosts.causes[k]);
                            break;
                        }
                    }
                    Err(match cause {
                        Some(c) => c,
                        None if bank.valid.iter().all(|&v| !v) => MissCause::Invalidated,
                        None => MissCause::Mismatch,
                    })
                }
            }
        };
        match outcome {
            Ok(k) => {
                entry.bank.last_use[k] = clock;
                let hit = ReuseLookup {
                    outputs: entry.bank.out_pairs(k),
                    inputs: entry.bank.in_regs_row(k).to_vec(),
                    skipped_instrs: entry.bank.body_instrs[k],
                };
                self.stats.hits += 1;
                self.last_miss_cause = None;
                Some(hit)
            }
            Err(cause) => {
                self.stats.misses += 1;
                self.stats.count_miss_cause(cause);
                self.last_miss_cause = Some(cause);
                None
            }
        }
    }

    fn record(&mut self, region: RegionId, instance: RecordedInstance) {
        if instance.inputs.len() > self.config.input_bank
            || instance.outputs.len() > self.config.output_bank
        {
            return; // exceeds bank capacity: drop (defensive)
        }
        self.clock += 1;
        let idx = self.entry_index(region);
        if instance.accesses_memory && !self.mem_capable(idx) {
            return; // this entry has no memory-validation hardware
        }
        self.stats.records += 1;
        if self.entries[idx].tag != Some(region) {
            if self.entries[idx].tag.is_some() {
                self.stats.entry_conflicts += 1;
                if self.log_events {
                    self.events.push(CrbEvent {
                        clock: self.clock,
                        kind: CrbEventKind::Conflict,
                        region,
                        entry: idx,
                        occupancy: 0,
                        lost: self.occupancy(idx),
                    });
                }
            }
            let entry = &mut self.entries[idx];
            entry.tag = Some(region);
            entry.clear_contents();
        }
        // An instance with the identical input bank is refreshed in
        // place rather than duplicated (duplicates would waste
        // capacity and let a replacement evict live input sets).
        // Equal banks hash equal, so the fingerprint lane scan below
        // never changes which slot is found — it only skips compares.
        let fp = fingerprint(&instance.inputs);
        let existing = {
            let bank = &self.entries[idx].bank;
            let mut found = None;
            scan_fp_lane(&bank.fps, fp, &mut |k| {
                if bank.valid[k] && bank.in_row_eq(k, &instance.inputs) {
                    found = Some(k);
                    true
                } else {
                    false
                }
            });
            found
        };
        let slot = match existing {
            Some(k) => k,
            None => {
                let k = self.victim_slot(idx);
                if self.entries[idx].bank.valid[k] {
                    if self.log_events {
                        self.events.push(CrbEvent {
                            clock: self.clock,
                            kind: CrbEventKind::Evict,
                            region,
                            entry: idx,
                            // The victim is overwritten by the incoming
                            // instance, so occupancy is unchanged.
                            occupancy: self.occupancy(idx),
                            lost: 1,
                        });
                    }
                    self.entries[idx].ghost_from_slot(k, MissCause::Capacity);
                }
                k
            }
        };
        let clock = self.clock;
        let entry = &mut self.entries[idx];
        entry.ghosts.remove_matching(fp, &instance.inputs);
        entry.note_seq(&instance.inputs);
        entry.bank.write_slot(slot, &instance, fp, clock);
        self.ever_recorded.insert(region);
    }

    fn invalidate(&mut self, region: RegionId) {
        self.stats.invalidations += 1;
        let idx = self.entry_index(region);
        let entry = &mut self.entries[idx];
        let mut killed = 0;
        if entry.tag == Some(region) {
            for k in 0..entry.bank.slots {
                if entry.bank.valid[k] && entry.bank.accesses_memory[k] {
                    entry.bank.valid[k] = false;
                    killed += 1;
                    entry.ghost_from_slot(k, MissCause::Invalidated);
                }
            }
        }
        if self.log_events && killed > 0 {
            self.events.push(CrbEvent {
                clock: self.clock,
                kind: CrbEventKind::Invalidate,
                region,
                entry: idx,
                occupancy: self.occupancy(idx),
                lost: killed,
            });
        }
    }

    fn input_capacity(&self) -> usize {
        self.config.input_bank
    }

    fn output_capacity(&self) -> usize {
        self.config.output_bank
    }

    fn last_miss_cause(&self) -> Option<MissCause> {
        self.last_miss_cause
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    fn inst(input: i64, output: i64, mem: bool) -> RecordedInstance {
        RecordedInstance {
            inputs: vec![(Reg(0), Value::from_int(input))],
            outputs: vec![(Reg(1), Value::from_int(output))],
            accesses_memory: mem,
            body_instrs: 10,
        }
    }

    fn lookup_with(buf: &mut ReuseBuffer, region: RegionId, r0: i64) -> Option<ReuseLookup> {
        buf.lookup(region, &mut |r| {
            assert_eq!(r, Reg(0));
            Value::from_int(r0)
        })
    }

    #[test]
    fn record_then_hit_on_matching_inputs() {
        let mut buf = ReuseBuffer::new(CrbConfig::paper());
        let r = RegionId(3);
        assert!(lookup_with(&mut buf, r, 5).is_none());
        buf.record(r, inst(5, 50, false));
        let hit = lookup_with(&mut buf, r, 5).expect("hit");
        assert_eq!(hit.outputs, vec![(Reg(1), Value::from_int(50))]);
        assert_eq!(hit.skipped_instrs, 10);
        assert!(lookup_with(&mut buf, r, 6).is_none(), "different input");
        let s = buf.stats();
        assert_eq!(s.lookups, 3);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        assert_eq!(s.records, 1);
    }

    #[test]
    fn multiple_instances_capture_multiple_input_sets() {
        let mut buf = ReuseBuffer::new(CrbConfig::with_instances(4));
        let r = RegionId(0);
        for v in 0..4 {
            buf.record(r, inst(v, v * 10, false));
        }
        for v in 0..4 {
            let hit = lookup_with(&mut buf, r, v).expect("all four retained");
            assert_eq!(hit.outputs[0].1, Value::from_int(v * 10));
        }
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut buf = ReuseBuffer::new(CrbConfig {
            entries: 4,
            instances: 2,
            input_bank: 8,
            output_bank: 8,
            replacement: Replacement::Lru,
            nonuniform: None,
        });
        let r = RegionId(0);
        buf.record(r, inst(1, 10, false));
        buf.record(r, inst(2, 20, false));
        // Touch instance 1, making instance 2 the LRU.
        assert!(lookup_with(&mut buf, r, 1).is_some());
        buf.record(r, inst(3, 30, false));
        assert!(lookup_with(&mut buf, r, 1).is_some(), "recently used kept");
        assert!(lookup_with(&mut buf, r, 2).is_none(), "LRU evicted");
        assert!(lookup_with(&mut buf, r, 3).is_some());
    }

    #[test]
    fn fifo_evicts_oldest() {
        let mut buf = ReuseBuffer::new(CrbConfig {
            entries: 4,
            instances: 2,
            input_bank: 8,
            output_bank: 8,
            replacement: Replacement::Fifo,
            nonuniform: None,
        });
        let r = RegionId(0);
        buf.record(r, inst(1, 10, false));
        buf.record(r, inst(2, 20, false));
        assert!(lookup_with(&mut buf, r, 1).is_some()); // touch 1
        buf.record(r, inst(3, 30, false));
        // FIFO ignores the touch: instance 1 (oldest) is evicted.
        assert!(lookup_with(&mut buf, r, 1).is_none());
        assert!(lookup_with(&mut buf, r, 2).is_some());
    }

    #[test]
    fn entry_conflict_replaces_tag_and_clears_instances() {
        let mut buf = ReuseBuffer::new(CrbConfig {
            entries: 2,
            instances: 4,
            input_bank: 8,
            output_bank: 8,
            replacement: Replacement::Lru,
            nonuniform: None,
        });
        // Regions 0 and 2 collide on entry 0.
        buf.record(RegionId(0), inst(1, 10, false));
        assert!(lookup_with(&mut buf, RegionId(0), 1).is_some());
        buf.record(RegionId(2), inst(1, 99, false));
        assert!(
            lookup_with(&mut buf, RegionId(0), 1).is_none(),
            "tag conflict evicts the old region"
        );
        let hit = lookup_with(&mut buf, RegionId(2), 1).unwrap();
        assert_eq!(hit.outputs[0].1, Value::from_int(99));
        assert_eq!(buf.stats().entry_conflicts, 1);
    }

    #[test]
    fn invalidate_kills_only_memory_instances() {
        let mut buf = ReuseBuffer::new(CrbConfig::paper());
        let r = RegionId(7);
        buf.record(r, inst(1, 10, true)); // memory-dependent
        buf.record(r, inst(2, 20, false)); // stateless
        buf.invalidate(r);
        assert!(lookup_with(&mut buf, r, 1).is_none(), "md instance dead");
        assert!(lookup_with(&mut buf, r, 2).is_some(), "sl instance alive");
        assert_eq!(buf.stats().invalidations, 1);
    }

    #[test]
    fn oversized_banks_are_rejected() {
        let mut buf = ReuseBuffer::new(CrbConfig {
            entries: 2,
            instances: 2,
            input_bank: 1,
            output_bank: 8,
            replacement: Replacement::Lru,
            nonuniform: None,
        });
        let too_big = RecordedInstance {
            inputs: vec![(Reg(0), Value::from_int(1)), (Reg(1), Value::from_int(2))],
            outputs: vec![],
            accesses_memory: false,
            body_instrs: 5,
        };
        buf.record(RegionId(0), too_big);
        assert_eq!(buf.stats().records, 0);
    }

    #[test]
    fn nonuniform_boosted_entries_hold_more_instances() {
        let mut buf = ReuseBuffer::new(CrbConfig {
            entries: 8,
            instances: 2,
            input_bank: 8,
            output_bank: 8,
            replacement: Replacement::Lru,
            nonuniform: Some(NonuniformConfig {
                boost_every: 4,
                boosted_instances: 4,
                mem_capable_percent: 100,
            }),
        });
        // Region 0 maps to a boosted entry (4 instances): all four
        // input sets survive.
        for v in 0..4 {
            buf.record(RegionId(0), inst(v, v, false));
        }
        for v in 0..4 {
            assert!(lookup_with(&mut buf, RegionId(0), v).is_some(), "v={v}");
        }
        // Region 1 maps to a base entry (2 instances): only the two
        // most recent survive.
        for v in 0..4 {
            buf.record(RegionId(1), inst(v, v, false));
        }
        assert!(lookup_with(&mut buf, RegionId(1), 0).is_none());
        assert!(lookup_with(&mut buf, RegionId(1), 3).is_some());
    }

    #[test]
    fn nonuniform_mem_capability_partitions_entries() {
        let mut buf = ReuseBuffer::new(CrbConfig {
            entries: 4,
            instances: 2,
            input_bank: 8,
            output_bank: 8,
            replacement: Replacement::Lru,
            nonuniform: Some(NonuniformConfig {
                boost_every: 1,
                boosted_instances: 2,
                mem_capable_percent: 50,
            }),
        });
        // Entries 0-1 are memory-capable; entries 2-3 are not.
        buf.record(RegionId(0), inst(1, 10, true));
        assert!(lookup_with(&mut buf, RegionId(0), 1).is_some());
        buf.record(RegionId(3), inst(1, 10, true));
        assert!(
            lookup_with(&mut buf, RegionId(3), 1).is_none(),
            "memory instance dropped by a mem-incapable entry"
        );
        // Stateless instances are fine anywhere.
        buf.record(RegionId(3), inst(2, 20, false));
        assert!(lookup_with(&mut buf, RegionId(3), 2).is_some());
    }

    #[test]
    fn event_log_is_off_by_default() {
        let mut buf = ReuseBuffer::new(CrbConfig::with_instances(1));
        let r = RegionId(0);
        buf.record(r, inst(1, 10, false));
        buf.record(r, inst(2, 20, false)); // evicts instance 1
        assert!(buf.take_events().is_empty());
    }

    #[test]
    fn event_log_captures_evictions_conflicts_and_invalidations() {
        let mut buf = ReuseBuffer::new(CrbConfig {
            entries: 2,
            instances: 2,
            ..CrbConfig::paper()
        });
        buf.set_event_logging(true);
        // Fill entry 0 for region 0, then overflow it: one eviction.
        buf.record(RegionId(0), inst(1, 10, false));
        buf.record(RegionId(0), inst(2, 20, false));
        buf.record(RegionId(0), inst(3, 30, false));
        // Region 2 collides with region 0 on entry 0: one conflict.
        buf.record(RegionId(2), inst(4, 40, true));
        // Kill region 2's memory-dependent instance: one invalidation.
        buf.invalidate(RegionId(2));
        // A no-op invalidate (nothing memory-dependent left) logs nothing.
        buf.invalidate(RegionId(2));

        let events = buf.take_events();
        let kinds: Vec<CrbEventKind> = events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                CrbEventKind::Evict,
                CrbEventKind::Conflict,
                CrbEventKind::Invalidate
            ],
            "{events:?}"
        );
        let evict = &events[0];
        assert_eq!(evict.entry, 0);
        assert_eq!(evict.occupancy, 2, "entry stays full across an eviction");
        assert_eq!(evict.lost, 1);
        let conflict = &events[1];
        assert_eq!(conflict.region, RegionId(2));
        assert_eq!(conflict.occupancy, 0);
        assert_eq!(conflict.lost, 2, "both of region 0's instances cleared");
        let inval = &events[2];
        assert_eq!(inval.occupancy, 0);
        assert_eq!(inval.lost, 1);
        // Clocks are monotonically non-decreasing.
        assert!(events.windows(2).all(|w| w[0].clock <= w[1].clock));
        // The log drains.
        assert!(buf.take_events().is_empty());
    }

    fn assert_causes(buf: &ReuseBuffer, expected: &[(MissCause, u64)]) {
        let s = buf.stats();
        for &(cause, want) in expected {
            let got = match cause {
                MissCause::Cold => s.miss_cold,
                MissCause::Mismatch => s.miss_mismatch,
                MissCause::Capacity => s.miss_capacity,
                MissCause::Conflict => s.miss_conflict,
                MissCause::Invalidated => s.miss_invalidated,
            };
            assert_eq!(got, want, "{cause:?}: {s:?}");
        }
        assert_eq!(s.miss_cause_total(), s.misses, "{s:?}");
    }

    #[test]
    fn cold_miss_is_classified_cold() {
        let mut buf = ReuseBuffer::new(CrbConfig::paper());
        assert!(lookup_with(&mut buf, RegionId(3), 5).is_none());
        assert_eq!(buf.last_miss_cause(), Some(MissCause::Cold));
        assert_causes(&buf, &[(MissCause::Cold, 1)]);
    }

    #[test]
    fn input_mismatch_is_classified_mismatch() {
        let mut buf = ReuseBuffer::new(CrbConfig::paper());
        let r = RegionId(3);
        buf.record(r, inst(5, 50, false));
        assert!(lookup_with(&mut buf, r, 6).is_none());
        assert_eq!(buf.last_miss_cause(), Some(MissCause::Mismatch));
        assert!(lookup_with(&mut buf, r, 5).is_some());
        assert_eq!(buf.last_miss_cause(), None, "hits clear the cause");
        assert_causes(&buf, &[(MissCause::Mismatch, 1), (MissCause::Cold, 0)]);
    }

    #[test]
    fn capacity_eviction_is_classified_capacity() {
        let mut buf = ReuseBuffer::new(CrbConfig::with_instances(1));
        let r = RegionId(0);
        buf.record(r, inst(1, 10, false));
        buf.record(r, inst(2, 20, false)); // evicts input set 1
        assert!(lookup_with(&mut buf, r, 1).is_none());
        assert_eq!(buf.last_miss_cause(), Some(MissCause::Capacity));
        // Inputs never recorded at all are a mismatch, not capacity.
        assert!(lookup_with(&mut buf, r, 9).is_none());
        assert_eq!(buf.last_miss_cause(), Some(MissCause::Mismatch));
        assert_causes(&buf, &[(MissCause::Capacity, 1), (MissCause::Mismatch, 1)]);
    }

    #[test]
    fn entry_conflict_is_classified_conflict() {
        let mut buf = ReuseBuffer::new(CrbConfig {
            entries: 2,
            instances: 4,
            ..CrbConfig::paper()
        });
        // Regions 0 and 2 collide on entry 0.
        buf.record(RegionId(0), inst(1, 10, false));
        buf.record(RegionId(2), inst(1, 99, false));
        assert!(lookup_with(&mut buf, RegionId(0), 1).is_none());
        assert_eq!(buf.last_miss_cause(), Some(MissCause::Conflict));
        // A region that never recorded stays cold even when its entry
        // is held by someone else.
        assert!(lookup_with(&mut buf, RegionId(4), 1).is_none());
        assert_eq!(buf.last_miss_cause(), Some(MissCause::Cold));
        assert_causes(&buf, &[(MissCause::Conflict, 1), (MissCause::Cold, 1)]);
    }

    #[test]
    fn invalidation_is_classified_invalidated() {
        let mut buf = ReuseBuffer::new(CrbConfig::paper());
        let r = RegionId(7);
        buf.record(r, inst(1, 10, true));
        buf.invalidate(r);
        assert!(lookup_with(&mut buf, r, 1).is_none());
        assert_eq!(buf.last_miss_cause(), Some(MissCause::Invalidated));
        // With a stateless sibling alive, an unrelated input set is a
        // mismatch while the killed set still blames the invalidate.
        buf.record(r, inst(2, 20, false));
        assert!(lookup_with(&mut buf, r, 3).is_none());
        assert_eq!(buf.last_miss_cause(), Some(MissCause::Mismatch));
        assert!(lookup_with(&mut buf, r, 1).is_none());
        assert_eq!(buf.last_miss_cause(), Some(MissCause::Invalidated));
        assert_causes(
            &buf,
            &[(MissCause::Invalidated, 2), (MissCause::Mismatch, 1)],
        );
    }

    #[test]
    fn rerecorded_inputs_shed_their_ghost() {
        let mut buf = ReuseBuffer::new(CrbConfig::with_instances(1));
        let r = RegionId(0);
        buf.record(r, inst(1, 10, false));
        buf.record(r, inst(2, 20, false)); // ghost for input set 1
        buf.record(r, inst(1, 10, false)); // input set 1 live again, ghost gone
        buf.record(r, inst(3, 30, false)); // new ghost for input set 1
        assert!(lookup_with(&mut buf, r, 1).is_none());
        assert_eq!(buf.last_miss_cause(), Some(MissCause::Capacity));
        assert_causes(&buf, &[(MissCause::Capacity, 1)]);
    }

    #[test]
    fn cause_counters_sum_to_misses_across_a_mixed_history() {
        let mut buf = ReuseBuffer::new(CrbConfig {
            entries: 2,
            instances: 1,
            ..CrbConfig::paper()
        });
        let _ = lookup_with(&mut buf, RegionId(0), 1); // cold
        buf.record(RegionId(0), inst(1, 10, false));
        let _ = lookup_with(&mut buf, RegionId(0), 2); // mismatch
        buf.record(RegionId(0), inst(2, 20, false)); // evicts set 1
        let _ = lookup_with(&mut buf, RegionId(0), 1); // capacity
        buf.record(RegionId(2), inst(7, 70, true)); // conflict on entry 0
        let _ = lookup_with(&mut buf, RegionId(0), 2); // conflict
        buf.invalidate(RegionId(2));
        let _ = lookup_with(&mut buf, RegionId(2), 7); // invalidated
        let _ = lookup_with(&mut buf, RegionId(0), 1); // conflict again
        let s = buf.stats();
        assert_eq!(s.hits, 0);
        assert_eq!(s.misses, 6);
        assert_causes(
            &buf,
            &[
                (MissCause::Cold, 1),
                (MissCause::Mismatch, 1),
                (MissCause::Capacity, 1),
                (MissCause::Conflict, 2),
                (MissCause::Invalidated, 1),
            ],
        );
    }

    #[test]
    fn random_replacement_is_deterministic() {
        let run = || {
            let mut buf = ReuseBuffer::new(CrbConfig {
                entries: 2,
                instances: 2,
                input_bank: 8,
                output_bank: 8,
                replacement: Replacement::Random,
                nonuniform: None,
            });
            let r = RegionId(0);
            for v in 0..10 {
                buf.record(r, inst(v, v, false));
            }
            (0..10)
                .map(|v| lookup_with(&mut buf, r, v).is_some())
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(), run());
    }
}
