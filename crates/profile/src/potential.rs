//! The reuse-potential limit study behind Figure 4 of the paper.
//!
//! Section 2.3: *"we constructed a value profiling infrastructure
//! within the IMPACT compiler and emulation framework to record reuse
//! opportunities for basic blocks and regions of code. Regions are
//! defined as paths of basic block segments and include both cyclic
//! and acyclic formations. ... Store instructions were not considered
//! to have reuse opportunities. Load instructions were considered
//! reusable if their source memory location had not been accessed by
//! any store operation between load executions. Reuse for cyclic
//! regions is detected by monitoring additional program state at the
//! invocation of the respective region headers. ... eight records of
//! previous dynamic information for each code segment were maintained."*
//!
//! The study runs as a [`TraceSink`] over an emulation:
//!
//! * **Block level**: every dynamic basic-block execution forms an
//!   input signature (live-in register values consumed plus the
//!   version stamps of every loaded location). A match against the
//!   block's 8-deep history makes all its non-store instructions
//!   *block-reusable*.
//! * **Region level**: dynamic *paths* of up to
//!   [`PotentialConfig::max_path_blocks`] block executions form the
//!   acyclic regions, and invocations of pure innermost loops form the
//!   cyclic regions, each with their own 8-deep history. Instructions
//!   inside an active pure-loop invocation are attributed to the
//!   cyclic detector; all others to the path detector, so the two
//!   never double-count.
//!
//! All per-run state is dense, like the value profiler's: per-depth
//! segments in a vector indexed by call depth and reset in place, one
//! store-version array per memory object, fixed-depth signature rings
//! indexed by a flat (function, block) slot, and per-accumulator
//! epoch-stamped register tables.

use ccr_ir::{BlockId, FuncId, MemObjectId, Operand, Program, Reg, Value};

use crate::rps::{candidate_loops, BlockSet, ValueHasher};
use crate::trace::{ExecEvent, TraceSink};

/// Limit-study parameters.
#[derive(Clone, Copy, Debug)]
pub struct PotentialConfig {
    /// Records of previous dynamic information kept per code segment
    /// (8 in the paper). 0 keeps no history, so nothing is ever
    /// reusable.
    pub history_depth: usize,
    /// Maximum block executions chained into one acyclic path region.
    pub max_path_blocks: usize,
}

impl Default for PotentialConfig {
    fn default() -> Self {
        PotentialConfig {
            history_depth: 8,
            max_path_blocks: 8,
        }
    }
}

/// Result of the limit study.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct ReusePotential {
    /// Total dynamic instructions observed.
    pub total_instrs: u64,
    /// Dynamic instructions covered by block-level reuse.
    pub block_reusable: u64,
    /// Dynamic instructions covered by region-level (path + cyclic)
    /// reuse.
    pub region_reusable: u64,
    /// Portion of `region_reusable` contributed by cyclic regions.
    pub cyclic_reusable: u64,
}

impl ReusePotential {
    /// Fraction of dynamic execution reusable at block granularity.
    pub fn block_ratio(&self) -> f64 {
        ratio(self.block_reusable, self.total_instrs)
    }

    /// Fraction of dynamic execution reusable at region granularity.
    pub fn region_ratio(&self) -> f64 {
        ratio(self.region_reusable, self.total_instrs)
    }
}

fn ratio(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// Accumulates the input signature of a region (block, path, or loop
/// invocation) as its instructions execute. Reset in place when a new
/// segment opens, so its buffers are allocated once per call depth.
#[derive(Debug)]
struct SigAccum {
    /// Live-in registers with their values, in first-read order.
    inputs: Vec<(Reg, Value)>,
    /// Loaded (object, index, store version), in execution order.
    loads: Vec<(MemObjectId, u64, u64)>,
    /// `seen[r] == epoch` once register `r` was read or written in the
    /// current segment: such a register is never a new live-in.
    seen: Vec<u32>,
    /// Stamp of the current segment; never 0, the "unseen" fill.
    epoch: u32,
    instrs: u64,
    stores: u64,
}

impl Default for SigAccum {
    fn default() -> Self {
        SigAccum {
            inputs: Vec::new(),
            loads: Vec::new(),
            seen: Vec::new(),
            epoch: 1,
            instrs: 0,
            stores: 0,
        }
    }
}

impl SigAccum {
    fn reset(&mut self) {
        self.inputs.clear();
        self.loads.clear();
        self.instrs = 0;
        self.stores = 0;
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.seen.fill(0);
            self.epoch = 1;
        }
    }

    fn observe(&mut self, event: &ExecEvent<'_>, loc_version: &[Vec<u64>]) {
        self.instrs += 1;
        let SigAccum {
            inputs,
            seen,
            epoch,
            ..
        } = self;
        let epoch = *epoch;
        let mut first_touch = |r: Reg| {
            if seen.len() <= r.index() {
                seen.resize(r.index() + 1, 0);
            }
            std::mem::replace(&mut seen[r.index()], epoch) != epoch
        };
        // `event.inputs` holds the operand values in
        // `for_each_src_operand` order, so position pairs them.
        let mut vals = event.inputs.iter();
        event.instr.for_each_src_operand(|op| {
            if let (Operand::Reg(r), Some(&val)) = (op, vals.next()) {
                if first_touch(r) {
                    inputs.push((r, val));
                }
            }
        });
        event.instr.for_each_dst(|d| {
            first_touch(d);
        });
        if let Some(mem) = event.mem {
            if mem.is_store {
                self.stores += 1;
            } else {
                let v = loc_version
                    .get(mem.object.index())
                    .and_then(|versions| versions.get(mem.index as usize))
                    .copied()
                    .unwrap_or(0);
                self.loads.push((mem.object, mem.index, v));
            }
        }
    }

    /// Signature over live-in values, load locations, and load
    /// versions: equal signatures mean equal inputs with memory
    /// untouched in between. Equals [`crate::rps::hash_values`] over
    /// the flattened `(reg, value)*` then `(object, index, version)*`
    /// words.
    fn signature(&self) -> u64 {
        let mut h = ValueHasher::new();
        for (r, v) in &self.inputs {
            h.push(u64::from(r.0));
            h.push(v.0 as u64);
        }
        for (o, i, ver) in &self.loads {
            h.push(u64::from(o.0));
            h.push(*i);
            h.push(*ver);
        }
        h.finish()
    }

    /// Instructions counted reusable on a signature match.
    fn reusable_instrs(&self) -> u64 {
        self.instrs - self.stores
    }
}

/// The last `depth` signatures of every code segment, as one ring of
/// `depth` words per slot.
#[derive(Debug)]
struct History {
    depth: usize,
    sigs: Vec<u64>,
    /// Signatures ever recorded per slot; the next write goes to
    /// position `recorded % depth`, the oldest record once full.
    recorded: Vec<u64>,
}

impl History {
    fn new(slots: usize, depth: usize) -> History {
        History {
            depth,
            sigs: vec![0; slots * depth],
            recorded: vec![0; slots],
        }
    }

    /// Checks `sig` against the slot's history and records it. With
    /// depth 0 there is no history: never a hit, nothing recorded.
    fn check_and_record(&mut self, slot: usize, sig: u64) -> bool {
        if self.depth == 0 {
            return false;
        }
        let ring = &mut self.sigs[slot * self.depth..(slot + 1) * self.depth];
        let recorded = &mut self.recorded[slot];
        let held = (*recorded).min(self.depth as u64) as usize;
        let hit = ring[..held].contains(&sig);
        ring[(*recorded % self.depth as u64) as usize] = sig;
        *recorded += 1;
        hit
    }
}

/// One open-or-closed segment of a call depth.
#[derive(Debug, Default)]
struct Segment {
    open: bool,
    accum: SigAccum,
    /// Instructions inside this segment already proven
    /// block-reusable; credited to the region count when the segment
    /// itself misses, so region-level coverage subsumes block-level
    /// coverage (a single block is a trivial region).
    block_matched: u64,
}

impl Segment {
    fn open(&mut self) {
        self.open = true;
        self.accum.reset();
        self.block_matched = 0;
    }
}

/// The dynamic state of one call depth.
#[derive(Debug, Default)]
struct Frame {
    block: Segment,
    /// Flat slot of the open block.
    block_slot: usize,
    path: Segment,
    /// Function of the open path.
    path_func: Option<FuncId>,
    /// Flat slot of the open path's head block.
    path_slot: usize,
    /// The open path's blocks; the first is its head.
    path_blocks: Vec<BlockId>,
    cyclic: Segment,
    /// Index of the open loop invocation's loop.
    loop_idx: usize,
}

/// A pure innermost loop, a cyclic-region candidate.
#[derive(Debug)]
struct Loop {
    func: FuncId,
    /// Body blocks, header included.
    body: BlockSet,
}

/// Marks a flat slot whose block heads no candidate loop.
const NO_LOOP: u32 = u32::MAX;

/// The limit study, attached to an emulation as a [`TraceSink`].
pub struct PotentialStudy {
    config: PotentialConfig,
    /// First flat slot of each function's blocks.
    slot_base: Vec<usize>,
    /// Per flat slot: index into `loops` of the loop the block heads,
    /// or [`NO_LOOP`].
    headers: Vec<u32>,
    loops: Vec<Loop>,
    result: ReusePotential,
    /// Keyed by the block's flat slot.
    block_history: History,
    /// Keyed by the flat slot of the path's head block.
    path_history: History,
    /// Keyed by loop index.
    loop_history: History,
    /// Per-location store version, one array per object.
    loc_version: Vec<Vec<u64>>,
    /// Per-depth dynamic state.
    frames: Vec<Frame>,
    depth: usize,
}

impl PotentialStudy {
    /// Creates a study for `program` with default parameters; pure
    /// innermost loops become cyclic-region candidates.
    pub fn for_program(program: &Program) -> PotentialStudy {
        PotentialStudy::with_config(program, PotentialConfig::default())
    }

    /// Creates a study with explicit parameters.
    pub fn with_config(program: &Program, config: PotentialConfig) -> PotentialStudy {
        let mut slot_base = Vec::with_capacity(program.functions().len());
        let mut slots = 0;
        for f in program.functions() {
            slot_base.push(slots);
            slots += f.blocks.len();
        }
        let mut headers = vec![NO_LOOP; slots];
        let mut loops: Vec<Loop> = Vec::new();
        for meta in candidate_loops(program).into_iter().filter(|m| !m.impure) {
            let slot = slot_base[meta.key.func.index()] + meta.key.header.index();
            let lp = Loop {
                func: meta.key.func,
                body: BlockSet::new(&meta.body),
            };
            // A later duplicate key replaces an earlier one.
            match headers[slot] {
                NO_LOOP => {
                    headers[slot] = loops.len() as u32;
                    loops.push(lp);
                }
                i => loops[i as usize] = lp,
            }
        }
        PotentialStudy {
            config,
            slot_base,
            headers,
            result: ReusePotential::default(),
            block_history: History::new(slots, config.history_depth),
            path_history: History::new(slots, config.history_depth),
            loop_history: History::new(loops.len(), config.history_depth),
            loops,
            loc_version: program
                .objects()
                .iter()
                .map(|o| vec![0; o.size()])
                .collect(),
            frames: Vec::new(),
            depth: 0,
        }
    }

    /// Finalizes open segments and returns the measured potential.
    pub fn finish(mut self) -> ReusePotential {
        for d in 0..self.frames.len() {
            self.close_block(d);
        }
        for d in 0..self.frames.len() {
            self.close_path(d);
        }
        for d in 0..self.frames.len() {
            self.close_loop(d);
        }
        self.result
    }

    fn slot(&self, func: FuncId, block: BlockId) -> usize {
        self.slot_base[func.index()] + block.index()
    }

    fn close_block(&mut self, depth: usize) {
        let Some(frame) = self.frames.get_mut(depth) else {
            return;
        };
        if !std::mem::take(&mut frame.block.open) || frame.block.accum.instrs == 0 {
            return;
        }
        let accum = &frame.block.accum;
        if self
            .block_history
            .check_and_record(frame.block_slot, accum.signature())
        {
            let n = accum.reusable_instrs();
            self.result.block_reusable += n;
            // Credit the enclosing region segment: if it misses,
            // these instructions are still region-reusable as
            // trivial single-block regions.
            if frame.cyclic.open {
                frame.cyclic.block_matched += n;
            } else if frame.path.open {
                frame.path.block_matched += n;
            }
        }
    }

    fn close_path(&mut self, depth: usize) {
        let Some(frame) = self.frames.get_mut(depth) else {
            return;
        };
        if !std::mem::take(&mut frame.path.open) || frame.path.accum.instrs == 0 {
            return;
        }
        // Path identity: head block plus the sequence of blocks.
        let mut h = ValueHasher::new();
        for b in &frame.path_blocks {
            h.push(u64::from(b.0));
        }
        h.push(frame.path.accum.signature());
        if self
            .path_history
            .check_and_record(frame.path_slot, h.finish())
        {
            self.result.region_reusable += frame.path.accum.reusable_instrs();
        } else {
            self.result.region_reusable += frame.path.block_matched;
        }
    }

    fn close_loop(&mut self, depth: usize) {
        let Some(frame) = self.frames.get_mut(depth) else {
            return;
        };
        if !std::mem::take(&mut frame.cyclic.open) || frame.cyclic.accum.instrs == 0 {
            return;
        }
        let accum = &frame.cyclic.accum;
        if self
            .loop_history
            .check_and_record(frame.loop_idx, accum.signature())
        {
            self.result.region_reusable += accum.reusable_instrs();
            self.result.cyclic_reusable += accum.reusable_instrs();
        } else {
            self.result.region_reusable += frame.cyclic.block_matched;
        }
    }
}

impl TraceSink for PotentialStudy {
    fn on_block_enter(&mut self, func: FuncId, block: BlockId) {
        let depth = self.depth;
        // Block segment: close previous, open new.
        self.close_block(depth);
        let slot = self.slot(func, block);
        if self.frames.len() <= depth {
            self.frames.resize_with(depth + 1, Frame::default);
        }
        let frame = &mut self.frames[depth];
        frame.block.open();
        frame.block_slot = slot;

        // Cyclic regions take precedence over paths.
        if frame.cyclic.open {
            let active = &self.loops[frame.loop_idx];
            if active.func == func && active.body.contains(block) {
                // Next iteration (the body holds the header), or still
                // inside the active loop body: keep accumulating.
                return;
            }
            self.close_loop(depth);
        }
        let header = self.headers[slot];
        if header != NO_LOOP {
            // Starting a new pure-loop invocation: paths pause.
            self.close_path(depth);
            let frame = &mut self.frames[depth];
            frame.cyclic.open();
            frame.loop_idx = header as usize;
            return;
        }

        // Path segment: extend or rotate.
        let frame = &self.frames[depth];
        let rotate = !frame.path.open
            || frame.path_func != Some(func)
            || frame.path_blocks.len() >= self.config.max_path_blocks
            || frame.path_blocks.contains(&block);
        if rotate {
            self.close_path(depth);
            let frame = &mut self.frames[depth];
            frame.path.open();
            frame.path_func = Some(func);
            frame.path_slot = slot;
            frame.path_blocks.clear();
            frame.path_blocks.push(block);
        } else {
            self.frames[depth].path_blocks.push(block);
        }
    }

    fn on_call(&mut self, _caller: FuncId, _callee: FuncId) {
        // A call ends the caller's open path; candidate loops are
        // pure, so no loop can be active across a call.
        let depth = self.depth;
        self.close_path(depth);
        self.close_loop(depth);
        self.depth += 1;
    }

    fn on_ret(&mut self, _from: FuncId) {
        let depth = self.depth;
        self.close_block(depth);
        self.close_path(depth);
        self.close_loop(depth);
        self.depth = self.depth.saturating_sub(1);
    }

    fn on_exec(&mut self, event: &ExecEvent<'_>) {
        self.result.total_instrs += 1;
        if let Some(frame) = self.frames.get_mut(self.depth) {
            if frame.block.open {
                frame.block.accum.observe(event, &self.loc_version);
            }
            if frame.cyclic.open {
                frame.cyclic.accum.observe(event, &self.loc_version);
            } else if frame.path.open {
                frame.path.accum.observe(event, &self.loc_version);
            }
        }
        // Stores bump versions *after* the signature observation so a
        // load earlier in the same segment keeps its pre-store stamp.
        if let Some(mem) = event.mem {
            if mem.is_store {
                let (obj, slot) = (mem.object.index(), mem.index as usize);
                if self.loc_version.len() <= obj {
                    self.loc_version.resize(obj + 1, Vec::new());
                }
                let versions = &mut self.loc_version[obj];
                if versions.len() <= slot {
                    versions.resize(slot + 1, 0);
                }
                versions[slot] += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crb::NullCrb;
    use crate::emulator::Emulator;
    use ccr_ir::{BinKind, CmpPred, ProgramBuilder};

    fn run_study(p: &ccr_ir::Program) -> ReusePotential {
        let mut study = PotentialStudy::for_program(p);
        Emulator::new(p).run(&mut NullCrb, &mut study).unwrap();
        study.finish()
    }

    /// Repeatedly sums a constant table: nearly everything is
    /// region-reusable, and per-block reuse is also high.
    #[test]
    fn constant_loop_is_highly_reusable() {
        let mut pb = ProgramBuilder::new();
        let t = pb.table("t", vec![1, 2, 3, 4, 5, 6, 7, 8]);
        let mut f = pb.function("main", 0, 1);
        let total = f.movi(0);
        let n = f.movi(0);
        let sum = f.fresh();
        let j = f.fresh();
        let outer = f.block();
        let inner = f.block();
        let after = f.block();
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
        f.br(CmpPred::Lt, j, 8, inner, after);
        f.switch_to(after);
        f.bin_into(BinKind::Add, total, total, sum);
        f.inc(n, 1);
        f.br(CmpPred::Lt, n, 20, outer, done);
        f.switch_to(done);
        f.ret(&[ccr_ir::Operand::Reg(total)]);
        let id = pb.finish_function(f);
        pb.set_main(id);
        let p = pb.finish();
        let pot = run_study(&p);
        assert!(pot.total_instrs > 500);
        // 19 of 20 inner-loop invocations are cyclic-reusable.
        assert!(
            pot.region_ratio() > 0.5,
            "region ratio {}",
            pot.region_ratio()
        );
        assert!(pot.cyclic_reusable > 0);
        // Region-level reuse must dominate block-level reuse.
        assert!(pot.region_reusable >= pot.block_reusable / 2);
    }

    /// A computation whose inputs never repeat: no reuse at any level.
    #[test]
    fn nonrepeating_computation_has_little_reuse() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0, 1);
        let i = f.movi(0);
        let acc = f.movi(0);
        let body = f.block();
        let done = f.block();
        f.jump(body);
        f.switch_to(body);
        let sq = f.mul(i, i);
        let x = f.xor(acc, sq);
        f.bin_into(BinKind::Add, acc, x, i);
        f.inc(i, 1);
        f.br(CmpPred::Lt, i, 200, body, done);
        f.switch_to(done);
        f.ret(&[ccr_ir::Operand::Reg(acc)]);
        let id = pb.finish_function(f);
        pb.set_main(id);
        let p = pb.finish();
        let pot = run_study(&p);
        assert!(pot.block_ratio() < 0.1, "block ratio {}", pot.block_ratio());
        assert!(
            pot.region_ratio() < 0.1,
            "region ratio {}",
            pot.region_ratio()
        );
    }

    /// Straight-line repetition without loops: identical call bodies
    /// make paths match across invocations.
    #[test]
    fn repeated_call_bodies_are_path_reusable() {
        let mut pb = ProgramBuilder::new();
        let g = pb.declare("g", 1, 1);
        let mut gb = pb.function_body(g);
        let x = gb.param(0);
        let a = gb.mul(x, 3);
        let b = gb.add(a, 7);
        let c = gb.xor(b, x);
        gb.ret(&[ccr_ir::Operand::Reg(c)]);
        pb.finish_function(gb);
        let mut f = pb.function("main", 0, 1);
        let acc = f.movi(0);
        let i = f.movi(0);
        let body = f.block();
        let done = f.block();
        f.jump(body);
        f.switch_to(body);
        // Always call with the same argument: g's path repeats.
        let r = f.call(g, &[ccr_ir::Operand::Imm(5)], 1);
        f.bin_into(BinKind::Add, acc, acc, r[0]);
        f.inc(i, 1);
        f.br(CmpPred::Lt, i, 30, body, done);
        f.switch_to(done);
        f.ret(&[ccr_ir::Operand::Reg(acc)]);
        let id = pb.finish_function(f);
        pb.set_main(id);
        let p = pb.finish();
        let pot = run_study(&p);
        assert!(
            pot.region_ratio() > 0.3,
            "region ratio {}",
            pot.region_ratio()
        );
    }

    /// A deeper history can only find more reuse, from depth 0 (no
    /// history) up; depth 8 (the paper's) dominates depth 1 on an
    /// alternating pattern.
    #[test]
    fn history_depth_monotonicity() {
        // A helper is called with arguments alternating A, B, A, B:
        // its path signature is just the argument, so a 1-deep
        // history never matches while an 8-deep history matches from
        // the third call on.
        let mut pb = ProgramBuilder::new();
        let t = pb.table("t", vec![11, 22]);
        let g = pb.declare("g", 1, 1);
        let mut gb = pb.function_body(g);
        let x = gb.param(0);
        let a = gb.mul(x, 3);
        let b = gb.add(a, 9);
        let c = gb.xor(b, x);
        gb.ret(&[ccr_ir::Operand::Reg(c)]);
        pb.finish_function(gb);
        let mut f = pb.function("main", 0, 1);
        let acc = f.movi(0);
        let i = f.movi(0);
        let body = f.block();
        let done = f.block();
        f.jump(body);
        f.switch_to(body);
        let sel = f.and(i, 1);
        let v = f.load(t, sel);
        let r = f.call(g, &[ccr_ir::Operand::Reg(v)], 1);
        f.bin_into(BinKind::Add, acc, acc, r[0]);
        f.inc(i, 1);
        f.br(CmpPred::Lt, i, 100, body, done);
        f.switch_to(done);
        f.ret(&[ccr_ir::Operand::Reg(acc)]);
        let id = pb.finish_function(f);
        pb.set_main(id);
        let p = pb.finish();
        let run = |depth: usize| {
            let mut study = PotentialStudy::with_config(
                &p,
                PotentialConfig {
                    history_depth: depth,
                    max_path_blocks: 8,
                },
            );
            Emulator::new(&p).run(&mut NullCrb, &mut study).unwrap();
            study.finish()
        };
        let runs: Vec<ReusePotential> = (0..=8).map(run).collect();
        // Depth 0 keeps no history: nothing is ever reusable.
        assert_eq!(runs[0].block_reusable, 0, "{:?}", runs[0]);
        assert_eq!(runs[0].region_reusable, 0, "{:?}", runs[0]);
        for (d, pair) in runs.windows(2).enumerate() {
            assert!(
                pair[1].block_reusable >= pair[0].block_reusable
                    && pair[1].region_reusable >= pair[0].region_reusable,
                "depth {} found less reuse than depth {d}: {:?} < {:?}",
                d + 1,
                pair[1],
                pair[0]
            );
        }
        let (shallow, deep) = (runs[1], runs[8]);
        assert!(
            deep.region_reusable > shallow.region_reusable,
            "8-deep {} must beat 1-deep {}",
            deep.region_reusable,
            shallow.region_reusable
        );
        assert!(deep.block_reusable > shallow.block_reusable);
    }

    #[test]
    fn streamed_signatures_equal_hash_values() {
        let acc = SigAccum {
            inputs: vec![(Reg(3), Value(-7)), (Reg(0), Value(i64::MAX))],
            loads: vec![(MemObjectId(2), 5, 1), (MemObjectId(0), u64::MAX, 0)],
            ..SigAccum::default()
        };
        let flat: Vec<Value> = [3, -7, 0, i64::MAX, 2, 5, 1, 0, -1, 0]
            .into_iter()
            .map(Value)
            .collect();
        assert_eq!(acc.signature(), crate::rps::hash_values(&flat));
        assert_eq!(
            SigAccum::default().signature(),
            crate::rps::hash_values(&[])
        );
    }

    #[test]
    fn history_ring_evicts_the_oldest_record() {
        let mut h = History::new(2, 3);
        for sig in [1, 2, 3] {
            assert!(!h.check_and_record(1, sig));
        }
        assert!(h.check_and_record(1, 1), "1 is still held");
        // Recording 1 again evicted the original 1; 2 is now oldest.
        assert!(!h.check_and_record(1, 4));
        assert!(!h.check_and_record(1, 2), "2 was evicted by 4");
        assert!(!h.check_and_record(0, 1), "slots are independent");
        let mut none = History::new(2, 0);
        assert!(!none.check_and_record(0, 9));
        assert!(!none.check_and_record(0, 9), "depth 0 never hits");
    }

    /// Stores to the scanned table between invocations destroy
    /// region-level reuse of the scan loop.
    #[test]
    fn stores_invalidate_cyclic_reuse() {
        let mut pb = ProgramBuilder::new();
        let tbl = pb.object("tbl", 4);
        let mut f = pb.function("main", 0, 1);
        let total = f.movi(0);
        let n = f.movi(0);
        let sum = f.fresh();
        let j = f.fresh();
        let outer = f.block();
        let inner = f.block();
        let after = f.block();
        let done = f.block();
        f.jump(outer);
        f.switch_to(outer);
        f.assign(sum, 0);
        f.assign(j, 0);
        f.store(tbl, 0, n); // mutate before each scan
        f.jump(inner);
        f.switch_to(inner);
        let v = f.load(tbl, j);
        f.bin_into(BinKind::Add, sum, sum, v);
        f.inc(j, 1);
        f.br(CmpPred::Lt, j, 4, inner, after);
        f.switch_to(after);
        f.bin_into(BinKind::Add, total, total, sum);
        f.inc(n, 1);
        f.br(CmpPred::Lt, n, 20, outer, done);
        f.switch_to(done);
        f.ret(&[ccr_ir::Operand::Reg(total)]);
        let id = pb.finish_function(f);
        pb.set_main(id);
        let p = pb.finish();
        let pot = run_study(&p);
        assert_eq!(pot.cyclic_reusable, 0, "{pot:?}");
    }
}
