//! Pretty-printing of programs in a readable assembly-like syntax.

use std::fmt;

use crate::block::BlockId;
use crate::function::Function;
use crate::instr::{Instr, Op};
use crate::program::Program;

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.op {
            Op::Binary {
                kind,
                dst,
                lhs,
                rhs,
            } => write!(f, "{dst} = {} {lhs}, {rhs}", kind.mnemonic())?,
            Op::Unary { kind, dst, src } => write!(f, "{dst} = {} {src}", kind.mnemonic())?,
            Op::Cmp {
                pred,
                dst,
                lhs,
                rhs,
            } => write!(f, "{dst} = cmp.{} {lhs}, {rhs}", pred.mnemonic())?,
            Op::Load {
                dst,
                object,
                addr,
                offset,
            } => {
                if *offset == 0 {
                    write!(f, "{dst} = load {object}[{addr}]")?
                } else {
                    write!(f, "{dst} = load {object}[{addr}+{offset}]")?
                }
            }
            Op::Store {
                object,
                addr,
                offset,
                value,
            } => {
                if *offset == 0 {
                    write!(f, "store {object}[{addr}] = {value}")?
                } else {
                    write!(f, "store {object}[{addr}+{offset}] = {value}")?
                }
            }
            Op::Branch {
                pred,
                lhs,
                rhs,
                taken,
                not_taken,
            } => write!(
                f,
                "br.{} {lhs}, {rhs} -> {taken} else {not_taken}",
                pred.mnemonic()
            )?,
            Op::Jump { target } => write!(f, "jump {target}")?,
            Op::Call { callee, args, rets } => {
                let rets_s = rets
                    .iter()
                    .map(|r| r.to_string())
                    .collect::<Vec<_>>()
                    .join(", ");
                let args_s = args
                    .iter()
                    .map(|a| a.to_string())
                    .collect::<Vec<_>>()
                    .join(", ");
                if rets.is_empty() {
                    write!(f, "call {callee}({args_s})")?
                } else {
                    write!(f, "{rets_s} = call {callee}({args_s})")?
                }
            }
            Op::Ret { values } => {
                let vals = values
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join(", ");
                write!(f, "ret {vals}")?
            }
            Op::Reuse { region, body, cont } => {
                write!(f, "reuse {region} body={body} cont={cont}")?
            }
            Op::Invalidate { region } => write!(f, "invalidate {region}")?,
            Op::Nop => write!(f, "nop")?,
        }
        if !self.ext.is_empty() {
            write!(f, "  ; ext: {}", self.ext)?;
        }
        Ok(())
    }
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "func {} \"{}\" (params={}, rets={}):",
            self.id(),
            self.name(),
            self.param_count(),
            self.ret_count()
        )?;
        for (bid, block) in self.iter_blocks() {
            let marker = if bid == self.entry() { " (entry)" } else { "" };
            writeln!(f, "  {bid}{marker}:")?;
            for instr in &block.instrs {
                writeln!(f, "    {:>5}  {instr}", instr.id.to_string())?;
            }
        }
        Ok(())
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "program main={}", self.main())?;
        for obj in self.objects() {
            write!(
                f,
                "object {} \"{}\" kind={:?} size={}",
                obj.id(),
                obj.name(),
                obj.kind(),
                obj.size()
            )?;
            if !obj.init().is_empty() {
                f.write_str(" init=[")?;
                for (i, v) in obj.init().iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{}", v.as_int())?;
                }
                f.write_str("]")?;
            }
            writeln!(f)?;
        }
        for (i, func) in self.functions().iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{func}")?;
        }
        Ok(())
    }
}

/// Renders a single block (handy in debug output and error messages).
pub fn block_to_string(func: &Function, bid: BlockId) -> String {
    let mut s = format!("{bid}:\n");
    for instr in &func.block(bid).instrs {
        s.push_str(&format!("  {instr}\n"));
    }
    s
}

#[cfg(test)]
mod tests {
    use crate::builder::ProgramBuilder;
    use crate::instr::{CmpPred, InstrExt};
    use crate::reg::Operand;

    #[test]
    fn program_prints_all_parts() {
        let mut pb = ProgramBuilder::new();
        let t = pb.table("bits", vec![0, 1, 1, 2]);
        let mut f = pb.function("main", 0, 1);
        let x = f.load(t, 2i64);
        let body = f.block();
        let done = f.block();
        f.br(CmpPred::Lt, x, 10i64, body, done);
        f.switch_to(body);
        f.store(t, 0i64, 0i64); // would fail verify, but printing is independent
        f.jump(done);
        f.switch_to(done);
        f.ret(&[Operand::Reg(x)]);
        let id = pb.finish_function(f);
        pb.set_main(id);
        let p = pb.finish();
        let s = p.to_string();
        assert!(s.contains("object @0 \"bits\""), "{s}");
        assert!(s.contains("load @0[2]"), "{s}");
        assert!(s.contains("br.lt"), "{s}");
        assert!(s.contains("(entry)"), "{s}");
        assert!(s.contains("ret r0"), "{s}");
    }

    #[test]
    fn extensions_are_rendered() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0, 0);
        f.nop();
        f.ret(&[]);
        let id = pb.finish_function(f);
        pb.set_main(id);
        let mut p = pb.finish();
        p.function_mut(id).block_mut(crate::BlockId(0)).instrs[0].ext = InstrExt::LIVE_OUT;
        let s = p.to_string();
        assert!(s.contains("ext: live_out"), "{s}");
    }

    #[test]
    fn block_to_string_renders() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0, 0);
        f.nop();
        f.ret(&[]);
        let id = pb.finish_function(f);
        pb.set_main(id);
        let p = pb.finish();
        let s = super::block_to_string(p.function(id), crate::BlockId(0));
        assert!(s.starts_with("b0:"), "{s}");
        assert!(s.contains("nop"), "{s}");
    }
}
