//! Structural and dataflow verification of programs.
//!
//! The verifier enforces the invariants the rest of the framework
//! (analyses, emulator, region former, simulator) relies on:
//!
//! * every block is non-empty, has exactly one terminator, and it is
//!   the last instruction;
//! * all branch targets, callees, objects, and registers are in range;
//! * call argument / result arities match the callee's signature;
//! * no store writes a read-only object;
//! * every register is defined on all paths before it is used
//!   (parameters count as defined on entry).

use std::collections::HashSet;
use std::fmt;

use crate::block::BlockId;
use crate::function::{FuncId, Function};
use crate::instr::{Instr, Op};
use crate::object::MemObjectId;
use crate::program::Program;
use crate::reg::Reg;

/// A verification failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct VerifyError {
    /// Function in which the error was found, if any.
    pub func: Option<FuncId>,
    /// Block in which the error was found, if any.
    pub block: Option<BlockId>,
    /// Human-readable description.
    pub message: String,
}

impl VerifyError {
    fn new(
        func: Option<FuncId>,
        block: Option<BlockId>,
        message: impl Into<String>,
    ) -> VerifyError {
        VerifyError {
            func,
            block,
            message: message.into(),
        }
    }
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.func, self.block) {
            (Some(fid), Some(bid)) => write!(f, "{fid}/{bid}: {}", self.message),
            (Some(fid), None) => write!(f, "{fid}: {}", self.message),
            _ => write!(f, "{}", self.message),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Verifies a whole program.
///
/// # Errors
///
/// Returns the first violated invariant found.
pub fn verify_program(program: &Program) -> Result<(), VerifyError> {
    let main = program.main();
    if main.index() >= program.functions().len() {
        return Err(VerifyError::new(None, None, "entry function out of range"));
    }
    if program.function(main).param_count() != 0 {
        return Err(VerifyError::new(
            Some(main),
            None,
            "entry function must take no parameters",
        ));
    }
    // The emulator masks every address into its object's bounds, which
    // an empty object does not have.
    if let Some(obj) = program.objects().iter().find(|o| o.size() == 0) {
        return Err(VerifyError::new(
            None,
            None,
            format!("object {} \"{}\" has size 0", obj.id(), obj.name()),
        ));
    }
    for func in program.functions() {
        verify_function(program, func)?;
    }
    Ok(())
}

fn err(f: &Function, b: Option<BlockId>, msg: impl Into<String>) -> VerifyError {
    VerifyError::new(Some(f.id()), b, msg)
}

fn verify_function(program: &Program, func: &Function) -> Result<(), VerifyError> {
    if func.blocks.is_empty() {
        return Err(err(func, None, "function has no blocks"));
    }
    let nblocks = func.blocks.len() as u32;
    for (bid, block) in func.iter_blocks() {
        if block.is_empty() {
            return Err(err(func, Some(bid), "empty block"));
        }
        for (pos, instr) in block.instrs.iter().enumerate() {
            let last = pos + 1 == block.instrs.len();
            if instr.is_terminator() != last {
                return Err(err(
                    func,
                    Some(bid),
                    format!(
                        "instruction {} at position {pos} {}",
                        instr.id,
                        if last {
                            "does not terminate its block"
                        } else {
                            "is a terminator in mid-block"
                        }
                    ),
                ));
            }
            verify_instr(program, func, bid, instr, nblocks)?;
        }
    }
    verify_defined_before_use(func)?;
    Ok(())
}

fn check_object(
    program: &Program,
    func: &Function,
    bid: BlockId,
    object: MemObjectId,
) -> Result<(), VerifyError> {
    if object.index() >= program.objects().len() {
        return Err(err(
            func,
            Some(bid),
            format!("object {object} out of range"),
        ));
    }
    Ok(())
}

fn verify_instr(
    program: &Program,
    func: &Function,
    bid: BlockId,
    instr: &Instr,
    nblocks: u32,
) -> Result<(), VerifyError> {
    for r in instr.src_regs().into_iter().chain(instr.dsts()) {
        if r.0 >= func.reg_limit() {
            return Err(err(
                func,
                Some(bid),
                format!("register {r} exceeds function register limit"),
            ));
        }
    }
    for target in instr.successors() {
        if target.0 >= nblocks {
            return Err(err(
                func,
                Some(bid),
                format!("branch target {target} out of range"),
            ));
        }
    }
    match &instr.op {
        Op::Load { object, .. } => check_object(program, func, bid, *object)?,
        Op::Store { object, .. } => {
            check_object(program, func, bid, *object)?;
            if program.object(*object).is_read_only() {
                return Err(err(
                    func,
                    Some(bid),
                    format!("store to read-only object {object}"),
                ));
            }
        }
        Op::Call { callee, args, rets } => {
            if callee.index() >= program.functions().len() {
                return Err(err(
                    func,
                    Some(bid),
                    format!("callee {callee} out of range"),
                ));
            }
            let target = program.function(*callee);
            if args.len() != target.param_count() {
                return Err(err(
                    func,
                    Some(bid),
                    format!(
                        "call to {} passes {} args, expected {}",
                        target.name(),
                        args.len(),
                        target.param_count()
                    ),
                ));
            }
            if rets.len() != target.ret_count() {
                return Err(err(
                    func,
                    Some(bid),
                    format!(
                        "call to {} binds {} results, expected {}",
                        target.name(),
                        rets.len(),
                        target.ret_count()
                    ),
                ));
            }
        }
        Op::Ret { values } if values.len() != func.ret_count() => {
            return Err(err(
                func,
                Some(bid),
                format!(
                    "return of {} values from a function returning {}",
                    values.len(),
                    func.ret_count()
                ),
            ));
        }
        Op::Reuse { region, .. } | Op::Invalidate { region }
            if region.index() >= program.region_count() =>
        {
            return Err(err(
                func,
                Some(bid),
                format!("region {region} was never allocated"),
            ));
        }
        _ => {}
    }
    Ok(())
}

/// Successors used by the defined-before-use dataflow.
///
/// A `reuse` terminator contributes only its *body* edge: the
/// continuation is reached either through the region body (whose defs
/// the dataflow sees via the region-end jump) or through a reuse hit,
/// which architecturally writes the same live-out registers a body
/// execution would. Following the direct reuse→cont edge would
/// spuriously report those live-outs as maybe-undefined.
fn dataflow_successors(block: &crate::block::Block) -> Vec<BlockId> {
    match block.terminator().map(|t| &t.op) {
        Some(Op::Reuse { body, .. }) => vec![*body],
        _ => block.successors(),
    }
}

/// Forward must-analysis: a register may be used only if it is defined
/// along *every* path from entry.
fn verify_defined_before_use(func: &Function) -> Result<(), VerifyError> {
    let n = func.blocks.len();
    let mut preds: Vec<Vec<BlockId>> = vec![Vec::new(); n];
    for (bid, block) in func.iter_blocks() {
        for s in dataflow_successors(block) {
            preds[s.index()].push(bid);
        }
    }
    // `None` = not yet computed (top); `Some(set)` = registers
    // definitely defined at block entry.
    let mut entry_defs: Vec<Option<HashSet<Reg>>> = vec![None; n];
    entry_defs[func.entry().index()] = Some(func.params().collect());
    let mut changed = true;
    while changed {
        changed = false;
        for (bid, block) in func.iter_blocks() {
            let at_entry = match compute_entry(func, bid, &preds, &entry_defs) {
                Some(s) => s,
                None => continue,
            };
            let mut defs = at_entry;
            for instr in &block.instrs {
                for d in instr.dsts() {
                    defs.insert(d);
                }
            }
            for s in dataflow_successors(block) {
                let slot = &mut entry_defs[s.index()];
                match slot {
                    None => {
                        *slot = Some(defs.clone());
                        changed = true;
                    }
                    Some(existing) => {
                        let before = existing.len();
                        existing.retain(|r| defs.contains(r));
                        if existing.len() != before {
                            changed = true;
                        }
                    }
                }
            }
        }
    }
    for (bid, block) in func.iter_blocks() {
        let mut defs = match &entry_defs[bid.index()] {
            Some(s) => s.clone(),
            None => continue, // unreachable block: uses are vacuous
        };
        for instr in &block.instrs {
            for r in instr.src_regs() {
                if !defs.contains(&r) {
                    return Err(err(
                        func,
                        Some(bid),
                        format!("register {r} used before definition in {}", instr.id),
                    ));
                }
            }
            for d in instr.dsts() {
                defs.insert(d);
            }
        }
    }
    Ok(())
}

fn compute_entry(
    func: &Function,
    bid: BlockId,
    preds: &[Vec<BlockId>],
    entry_defs: &[Option<HashSet<Reg>>],
) -> Option<HashSet<Reg>> {
    if bid == func.entry() {
        return entry_defs[bid.index()].clone();
    }
    let mut acc: Option<HashSet<Reg>> = None;
    for p in &preds[bid.index()] {
        // The defs at the end of predecessor p: its entry defs plus
        // everything the block defines. Recomputing keeps the fixpoint
        // simple; blocks are small.
        let pentry = entry_defs[p.index()].as_ref()?.clone();
        let mut pdefs = pentry;
        for instr in &func.block(*p).instrs {
            for d in instr.dsts() {
                pdefs.insert(d);
            }
        }
        acc = Some(match acc {
            None => pdefs,
            Some(mut a) => {
                a.retain(|r| pdefs.contains(r));
                a
            }
        });
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::instr::CmpPred;
    use crate::reg::Operand;

    fn single_fn(
        build: impl FnOnce(&mut crate::builder::FunctionBuilder),
    ) -> Result<(), VerifyError> {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0, 0);
        build(&mut f);
        let id = pb.finish_function(f);
        pb.set_main(id);
        verify_program(&pb.finish())
    }

    #[test]
    fn accepts_well_formed() {
        single_fn(|f| {
            let a = f.movi(3);
            let _ = f.add(a, a);
            f.ret(&[]);
        })
        .unwrap();
    }

    #[test]
    fn rejects_use_before_def_on_some_path() {
        // if (1 < 2) { x = 1 } ; use x  -- x undefined on the else path
        let err = single_fn(|f| {
            let then = f.block();
            let join = f.block();
            f.br(CmpPred::Lt, 1i64, 2i64, then, join);
            f.switch_to(then);
            let _x = f.movi(1); // r0 in this function
            f.jump(join);
            f.switch_to(join);
            let _ = f.add(Reg(0), 1i64);
            f.ret(&[]);
        })
        .unwrap_err();
        assert!(err.message.contains("used before definition"), "{err}");
    }

    #[test]
    fn accepts_def_on_all_paths() {
        single_fn(|f| {
            let x = f.fresh();
            let then = f.block();
            let els = f.block();
            let join = f.block();
            f.br(CmpPred::Lt, 1i64, 2i64, then, els);
            f.switch_to(then);
            f.assign(x, 10i64);
            f.jump(join);
            f.switch_to(els);
            f.assign(x, 20i64);
            f.jump(join);
            f.switch_to(join);
            let _ = f.add(x, 1i64);
            f.ret(&[]);
        })
        .unwrap();
    }

    #[test]
    fn rejects_store_to_readonly() {
        let mut pb = ProgramBuilder::new();
        let t = pb.table("t", vec![1]);
        let mut f = pb.function("main", 0, 0);
        f.store(t, 0i64, 5i64);
        f.ret(&[]);
        let id = pb.finish_function(f);
        pb.set_main(id);
        let e = verify_program(&pb.finish()).unwrap_err();
        assert!(e.message.contains("read-only"), "{e}");
    }

    #[test]
    fn rejects_bad_call_arity() {
        let mut pb = ProgramBuilder::new();
        let callee = pb.declare("g", 2, 1);
        let mut g = pb.function_body(callee);
        g.ret(&[Operand::Imm(0)]);
        pb.finish_function(g);
        let mut f = pb.function("main", 0, 0);
        let _ = f.call(callee, &[Operand::Imm(1)], 1); // missing one arg
        f.ret(&[]);
        let id = pb.finish_function(f);
        pb.set_main(id);
        let e = verify_program(&pb.finish()).unwrap_err();
        assert!(e.message.contains("passes 1 args"), "{e}");
    }

    #[test]
    fn rejects_bad_ret_arity() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0, 1);
        f.ret(&[]);
        let id = pb.finish_function(f);
        pb.set_main(id);
        let e = verify_program(&pb.finish()).unwrap_err();
        assert!(e.message.contains("return of 0 values"), "{e}");
    }

    #[test]
    fn rejects_mid_block_terminator() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0, 0);
        f.ret(&[]);
        let id = pb.finish_function(f);
        pb.set_main(id);
        let mut p = pb.finish();
        // Manually corrupt: append a Nop after the terminator.
        let ni = p.new_instr(Op::Nop);
        p.function_mut(id).block_mut(BlockId(0)).instrs.push(ni);
        let e = verify_program(&p).unwrap_err();
        assert!(e.message.contains("terminator in mid-block"), "{e}");
    }

    #[test]
    fn rejects_unallocated_region() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0, 0);
        f.ret(&[]);
        let id = pb.finish_function(f);
        pb.set_main(id);
        let mut p = pb.finish();
        let inv = p.new_instr(Op::Invalidate {
            region: crate::instr::RegionId(0),
        });
        p.function_mut(id)
            .block_mut(BlockId(0))
            .instrs
            .insert(0, inv);
        let e = verify_program(&p).unwrap_err();
        assert!(e.message.contains("never allocated"), "{e}");
    }

    #[test]
    fn rejects_entry_with_params() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 1, 0);
        f.ret(&[]);
        let id = pb.finish_function(f);
        pb.set_main(id);
        let e = verify_program(&pb.finish()).unwrap_err();
        assert!(e.message.contains("no parameters"), "{e}");
    }

    #[test]
    fn unreachable_block_uses_are_tolerated() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0, 0);
        f.ret(&[]);
        let dead = f.block();
        f.switch_to(dead);
        let _ = f.add(Reg(0), 1i64); // r0 never defined, but block unreachable
        f.ret(&[]);
        let id = pb.finish_function(f);
        pb.set_main(id);
        // r0 exceeds reg limit though; allocate it first.
        let p = pb.finish();
        let _ = p; // rebuilt below with a proper fresh reg
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0, 0);
        let x = f.fresh();
        f.ret(&[]);
        let dead = f.block();
        f.switch_to(dead);
        let _ = f.add(x, 1i64);
        f.ret(&[]);
        let id = pb.finish_function(f);
        pb.set_main(id);
        verify_program(&pb.finish()).unwrap();
    }

    #[test]
    fn rejects_zero_sized_object() {
        let mut pb = ProgramBuilder::new();
        pb.object("empty", 0);
        let mut f = pb.function("main", 0, 0);
        f.ret(&[]);
        let id = pb.finish_function(f);
        pb.set_main(id);
        let e = verify_program(&pb.finish()).unwrap_err();
        assert_eq!(e.to_string(), "object @0 \"empty\" has size 0");
    }

    #[test]
    fn verify_error_display() {
        let e = VerifyError::new(Some(FuncId(1)), Some(BlockId(2)), "boom");
        assert_eq!(e.to_string(), "f1/b2: boom");
        let e2 = VerifyError::new(None, None, "boom");
        assert_eq!(e2.to_string(), "boom");
    }
}
