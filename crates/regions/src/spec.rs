//! Region descriptors.

use ccr_ir::{BlockId, FuncId, MemObjectId, Reg, RegionId};

/// The deterministic-computation class of a region (Section 4.1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ComputationClass {
    /// Stateless: results depend only on register operands.
    Stateless,
    /// Memory-dependent: results also depend on named memory
    /// structures whose writers are statically known.
    MemoryDependent,
}

/// Shape of a region in the CFG.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum RegionShape {
    /// A whole natural loop, reused per invocation.
    Cyclic {
        /// Loop header (entry of the region body).
        header: BlockId,
        /// The unique block before the loop (holds the edge on which
        /// the reuse instruction is inserted).
        preheader: BlockId,
        /// The unique block all loop exits target (the continuation).
        exit_target: BlockId,
        /// All blocks of the loop body.
        body: Vec<BlockId>,
    },
    /// A path of blocks; the region starts at `start_pos` within the
    /// first block and ends at `end_pos` within the last.
    Path {
        /// The blocks on the principal path, in control-flow order.
        blocks: Vec<BlockId>,
        /// Index of the inception instruction in `blocks[0]`.
        start_pos: usize,
        /// Index of the finish instruction in `blocks.last()`.
        end_pos: usize,
    },
    /// A whole function call, reused per invocation — the
    /// function-level reuse of the paper's future-work section
    /// ("directing the CCR architecture at the function level could
    /// potentially reduce a significant amount of time spent
    /// executing calling convention and spill codes").
    Call {
        /// Block containing the call site.
        block: BlockId,
        /// Position of the call instruction in that block.
        pos: usize,
        /// The wrapped callee.
        callee: ccr_ir::FuncId,
    },
}

/// A region selected by formation, before code transformation.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct RegionSpec {
    /// Function containing the region.
    pub func: FuncId,
    /// CFG shape.
    pub shape: RegionShape,
    /// Deterministic-computation class.
    pub class: ComputationClass,
    /// Distinguishable memory structures the region loads from
    /// (empty for stateless regions; read-only tables excluded — they
    /// can never be invalidated).
    pub mem_objects: Vec<MemObjectId>,
    /// Statically estimated live-in registers.
    pub live_ins: Vec<Reg>,
    /// Statically computed live-out registers.
    pub live_outs: Vec<Reg>,
    /// Static instruction count replaced by a reuse hit.
    pub static_instrs: usize,
    /// Profile weight (executions of the inception point).
    pub exec_weight: u64,
}

/// A region after annotation: carries its hardware identity.
#[derive(Clone, PartialEq, Debug)]
pub struct RegionInfo {
    /// The region id carried by the `reuse` instruction (CRB index).
    pub id: RegionId,
    /// The selection-time descriptor.
    pub spec: RegionSpec,
    /// Number of `invalidate` instructions inserted for this region.
    pub invalidation_sites: usize,
}

impl RegionSpec {
    /// True for cyclic regions.
    pub fn is_cyclic(&self) -> bool {
        matches!(self.shape, RegionShape::Cyclic { .. })
    }

    /// True for function-level (whole-call) regions.
    pub fn is_function_level(&self) -> bool {
        matches!(self.shape, RegionShape::Call { .. })
    }

    /// Number of distinguishable (invalidatable) memory structures.
    pub fn mem_count(&self) -> usize {
        self.mem_objects.len()
    }

    /// Number of statically estimated live-in registers.
    pub fn input_count(&self) -> usize {
        self.live_ins.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(shape: RegionShape) -> RegionSpec {
        RegionSpec {
            func: FuncId(0),
            shape,
            class: ComputationClass::Stateless,
            mem_objects: vec![],
            live_ins: vec![Reg(0), Reg(1)],
            live_outs: vec![Reg(2)],
            static_instrs: 7,
            exec_weight: 1000,
        }
    }

    #[test]
    fn shape_predicates() {
        let cyc = sample(RegionShape::Cyclic {
            header: BlockId(1),
            preheader: BlockId(0),
            exit_target: BlockId(2),
            body: vec![BlockId(1)],
        });
        assert!(cyc.is_cyclic());
        assert_eq!(cyc.input_count(), 2);
        assert_eq!(cyc.mem_count(), 0);
        let path = sample(RegionShape::Path {
            blocks: vec![BlockId(0)],
            start_pos: 2,
            end_pos: 5,
        });
        assert!(!path.is_cyclic());
    }
}
