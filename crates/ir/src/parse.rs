//! Parser for the textual IR emitted by the pretty-printer.
//!
//! `parse_program(&program.to_string())` reconstructs a structurally
//! identical program, so the textual form can serve as a stable
//! on-disk format for test fixtures, bug reports, and hand-written
//! kernels. The grammar is exactly the printer's output:
//!
//! ```text
//! program main=f0
//! object @0 "weights" kind=ReadOnly size=4 init=[2, 4, 6, 8]
//! func f0 "main" (params=0, rets=1):
//!   b0 (entry):
//!        i0  r0 = mov 0
//!        i1  r1 = load @0[r0]
//!        i2  br.lt r0, 4 -> b0 else b1
//!   b1:
//!        i3  ret r1
//! ```

use std::fmt;

use crate::block::BlockId;
use crate::function::{FuncId, Function};
use crate::instr::{BinKind, CmpPred, Instr, InstrExt, InstrId, Op, RegionId, UnKind};
use crate::object::{MemObject, MemObjectId, ObjectKind};
use crate::program::Program;
use crate::reg::{Operand, Reg, Value};

/// A parse failure, with the 1-based source line.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// Description of what went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

type Result<T> = std::result::Result<T, ParseError>;

fn err<T>(line: usize, message: impl Into<String>) -> Result<T> {
    Err(ParseError {
        line,
        message: message.into(),
    })
}

/// Parses a whole program from the printer's textual form.
///
/// ```
/// let text = "\
/// program main=f0
/// object @0 \"t\" kind=ReadOnly size=2 init=[40, 2]
/// func f0 \"main\" (params=0, rets=1):
///   b0 (entry):
///      i0  r0 = load @0[0]
///      i1  r1 = load @0[1]
///      i2  r2 = add r0, r1
///      i3  ret r2
/// ";
/// let program = ccr_ir::parse_program(text)?;
/// ccr_ir::verify_program(&program)?;
/// assert_eq!(program.instr_count(), 4);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// # Errors
///
/// Returns a [`ParseError`] naming the offending line. The result is
/// *not* run through [`crate::verify_program`]; callers that ingest
/// untrusted text should verify explicitly.
pub fn parse_program(src: &str) -> Result<Program> {
    let mut main: Option<FuncId> = None;
    let mut objects: Vec<MemObject> = Vec::new();
    let mut functions: Vec<Function> = Vec::new();
    let mut cur_block: Option<BlockId> = None;
    let mut max_instr_id: u32 = 0;
    let mut max_region: u32 = 0;

    for (idx, raw) in src.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim_end();
        if line.trim().is_empty() {
            continue;
        }
        let t = line.trim_start();
        if let Some(rest) = t.strip_prefix("program main=") {
            main = Some(FuncId(parse_prefixed(rest.trim(), 'f', lineno)?));
        } else if t.starts_with("object ") {
            objects.push(parse_object(t, lineno)?);
        } else if t.starts_with("func ") {
            functions.push(parse_func_header(t, lineno)?);
            cur_block = None;
        } else if t.starts_with('b') && t.ends_with(':') {
            // Block header: `b3:` or `b0 (entry):`
            let body = t.trim_end_matches(':').trim();
            let bid_txt = body.split_whitespace().next().unwrap_or("");
            let bid = BlockId(parse_prefixed(bid_txt, 'b', lineno)?);
            let func = functions.last_mut().ok_or_else(|| ParseError {
                line: lineno,
                message: "block header before any function".into(),
            })?;
            while func.blocks.len() <= bid.index() {
                func.add_block();
            }
            cur_block = Some(bid);
        } else {
            // Instruction line: `  iN  <instr>[  ; ext: ...]`
            let func = functions.last_mut().ok_or_else(|| ParseError {
                line: lineno,
                message: "instruction before any function".into(),
            })?;
            let block = cur_block.ok_or_else(|| ParseError {
                line: lineno,
                message: "instruction before any block header".into(),
            })?;
            let instr = parse_instr(t, lineno)?;
            max_instr_id = max_instr_id.max(instr.id.0 + 1);
            if let Op::Reuse { region, .. } | Op::Invalidate { region } = instr.op {
                max_region = max_region.max(region.0 + 1);
            }
            let mut top = 0u32;
            for r in instr.src_regs().into_iter().chain(instr.dsts()) {
                top = top.max(r.0 + 1);
            }
            func.reserve_regs(top);
            func.block_mut(block).instrs.push(instr);
        }
    }

    let Some(main) = main else {
        return err(1, "missing `program main=fN` header");
    };
    let mut program = Program::from_parts(functions, objects, main, max_instr_id);
    program.reserve_regions(max_region);
    Ok(program)
}

fn parse_prefixed(tok: &str, prefix: char, line: usize) -> Result<u32> {
    let tok = tok.trim();
    match tok.strip_prefix(prefix) {
        Some(num) => num.parse::<u32>().map_err(|_| ParseError {
            line,
            message: format!("bad {prefix}-identifier `{tok}`"),
        }),
        None => err(line, format!("expected `{prefix}N`, found `{tok}`")),
    }
}

fn parse_region(tok: &str, line: usize) -> Result<RegionId> {
    let tok = tok.trim();
    match tok.strip_prefix("rcr") {
        Some(num) => num.parse::<u32>().map(RegionId).map_err(|_| ParseError {
            line,
            message: format!("bad region id `{tok}`"),
        }),
        None => err(line, format!("expected `rcrN`, found `{tok}`")),
    }
}

fn parse_quoted(s: &str, line: usize) -> Result<(String, &str)> {
    let s = s.trim_start();
    let Some(rest) = s.strip_prefix('"') else {
        return err(line, format!("expected quoted string at `{s}`"));
    };
    let Some(end) = rest.find('"') else {
        return err(line, "unterminated string");
    };
    Ok((rest[..end].to_string(), &rest[end + 1..]))
}

/// `object @0 "name" kind=Named size=4 init=[1, 2]`
fn parse_object(t: &str, line: usize) -> Result<MemObject> {
    let rest = t.strip_prefix("object ").expect("checked");
    let mut parts = rest.splitn(2, ' ');
    let id_tok = parts.next().unwrap_or("");
    let id = MemObjectId(parse_prefixed(id_tok, '@', line)?);
    let rest = parts.next().unwrap_or("");
    let (name, rest) = parse_quoted(rest, line)?;
    let mut kind = None;
    let mut size = None;
    let mut init = Vec::new();
    let rest = rest.trim();
    // init=[...] (may contain spaces) handled first.
    let (head, init_part) = match rest.find("init=[") {
        Some(pos) => (&rest[..pos], Some(&rest[pos + 6..])),
        None => (rest, None),
    };
    for field in head.split_whitespace() {
        if let Some(v) = field.strip_prefix("kind=") {
            kind = Some(match v {
                "Named" => ObjectKind::Named,
                "ReadOnly" => ObjectKind::ReadOnly,
                "Anonymous" => ObjectKind::Anonymous,
                other => return err(line, format!("unknown object kind `{other}`")),
            });
        } else if let Some(v) = field.strip_prefix("size=") {
            size = Some(v.parse::<usize>().map_err(|_| ParseError {
                line,
                message: format!("bad size `{v}`"),
            })?);
        } else {
            return err(line, format!("unexpected object field `{field}`"));
        }
    }
    if let Some(body) = init_part {
        let Some(end) = body.find(']') else {
            return err(line, "unterminated init list");
        };
        for item in body[..end].split(',') {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            init.push(Value::from_int(item.parse::<i64>().map_err(|_| {
                ParseError {
                    line,
                    message: format!("bad init value `{item}`"),
                }
            })?));
        }
    }
    let kind = kind.ok_or_else(|| ParseError {
        line,
        message: "object missing kind=".into(),
    })?;
    let size = size.ok_or_else(|| ParseError {
        line,
        message: "object missing size=".into(),
    })?;
    if size == 0 {
        return err(line, format!("object {id} has size 0"));
    }
    if init.len() > size {
        return err(
            line,
            format!(
                "object {id} has {} initializers for size {size}",
                init.len()
            ),
        );
    }
    Ok(MemObject::new(id, name, kind, size, init))
}

/// `func f0 "main" (params=0, rets=1):`
fn parse_func_header(t: &str, line: usize) -> Result<Function> {
    let rest = t.strip_prefix("func ").expect("checked");
    let mut parts = rest.splitn(2, ' ');
    let id = FuncId(parse_prefixed(parts.next().unwrap_or(""), 'f', line)?);
    let rest = parts.next().unwrap_or("");
    let (name, rest) = parse_quoted(rest, line)?;
    let rest = rest.trim().trim_end_matches(':').trim();
    let inner = rest
        .strip_prefix('(')
        .and_then(|s| s.strip_suffix(')'))
        .ok_or_else(|| ParseError {
            line,
            message: "expected `(params=N, rets=M)`".into(),
        })?;
    let mut params = None;
    let mut rets = None;
    for field in inner.split(',') {
        let field = field.trim();
        if let Some(v) = field.strip_prefix("params=") {
            params = v.parse::<usize>().ok();
        } else if let Some(v) = field.strip_prefix("rets=") {
            rets = v.parse::<usize>().ok();
        }
    }
    let (Some(params), Some(rets)) = (params, rets) else {
        return err(line, "bad params/rets");
    };
    let mut func = Function::new(id, name, params, rets);
    // The printer emits blocks explicitly; drop the implicit entry
    // block so block ids line up (it is re-added by the first header).
    func.blocks.clear();
    Ok(func)
}

fn parse_operand(tok: &str, line: usize) -> Result<Operand> {
    let tok = tok.trim().trim_end_matches(',');
    if let Some(num) = tok.strip_prefix('r') {
        if let Ok(n) = num.parse::<u32>() {
            return Ok(Operand::Reg(Reg(n)));
        }
    }
    tok.parse::<i64>()
        .map(Operand::Imm)
        .map_err(|_| ParseError {
            line,
            message: format!("bad operand `{tok}`"),
        })
}

fn parse_reg(tok: &str, line: usize) -> Result<Reg> {
    match parse_operand(tok, line)? {
        Operand::Reg(r) => Ok(r),
        Operand::Imm(_) => err(line, format!("expected register, found `{tok}`")),
    }
}

fn bin_kind(m: &str) -> Option<BinKind> {
    Some(match m {
        "add" => BinKind::Add,
        "sub" => BinKind::Sub,
        "mul" => BinKind::Mul,
        "div" => BinKind::Div,
        "rem" => BinKind::Rem,
        "and" => BinKind::And,
        "or" => BinKind::Or,
        "xor" => BinKind::Xor,
        "shl" => BinKind::Shl,
        "shr" => BinKind::Shr,
        "sar" => BinKind::Sar,
        "min" => BinKind::Min,
        "max" => BinKind::Max,
        "fadd" => BinKind::FAdd,
        "fsub" => BinKind::FSub,
        "fmul" => BinKind::FMul,
        "fdiv" => BinKind::FDiv,
        _ => return None,
    })
}

fn un_kind(m: &str) -> Option<UnKind> {
    Some(match m {
        "mov" => UnKind::Mov,
        "neg" => UnKind::Neg,
        "not" => UnKind::Not,
        "i2f" => UnKind::IntToFloat,
        "f2i" => UnKind::FloatToInt,
        _ => return None,
    })
}

fn cmp_pred(m: &str) -> Option<CmpPred> {
    Some(match m {
        "eq" => CmpPred::Eq,
        "ne" => CmpPred::Ne,
        "lt" => CmpPred::Lt,
        "le" => CmpPred::Le,
        "gt" => CmpPred::Gt,
        "ge" => CmpPred::Ge,
        _ => return None,
    })
}

/// `@N[addr]` or `@N[addr+off]` → (object, addr, offset)
fn parse_mem_ref(tok: &str, line: usize) -> Result<(MemObjectId, Operand, i64)> {
    let tok = tok.trim();
    let Some(open) = tok.find('[') else {
        return err(line, format!("expected `@N[..]`, found `{tok}`"));
    };
    let obj = MemObjectId(parse_prefixed(&tok[..open], '@', line)?);
    let inner = tok[open + 1..]
        .strip_suffix(']')
        .ok_or_else(|| ParseError {
            line,
            message: format!("unterminated memory reference `{tok}`"),
        })?;
    // The printer writes `addr+off` where off can itself be negative
    // (`r1+-3`); split on the first '+'.
    match inner.find('+') {
        Some(p) => {
            let addr = parse_operand(&inner[..p], line)?;
            let off = inner[p + 1..].parse::<i64>().map_err(|_| ParseError {
                line,
                message: format!("bad offset in `{tok}`"),
            })?;
            Ok((obj, addr, off))
        }
        None => Ok((obj, parse_operand(inner, line)?, 0)),
    }
}

fn parse_ext(s: &str, line: usize) -> Result<InstrExt> {
    let mut ext = InstrExt::NONE;
    for part in s.split('|') {
        ext = ext
            | match part.trim() {
                "live_out" => InstrExt::LIVE_OUT,
                "region_end" => InstrExt::REGION_END,
                "region_exit" => InstrExt::REGION_EXIT,
                "-" => InstrExt::NONE,
                other => return err(line, format!("unknown extension `{other}`")),
            };
    }
    Ok(ext)
}

/// One instruction line: `iN  <op text>[  ; ext: ...]`.
fn parse_instr(t: &str, line: usize) -> Result<Instr> {
    let (body, ext) = match t.find("; ext:") {
        Some(p) => (t[..p].trim_end(), parse_ext(t[p + 6..].trim(), line)?),
        None => (t, InstrExt::NONE),
    };
    let mut parts = body.split_whitespace();
    let id_tok = parts.next().unwrap_or("");
    let id = InstrId(parse_prefixed(id_tok, 'i', line)?);
    let rest: Vec<&str> = parts.collect();
    let op = parse_op(&rest, line)?;
    let mut instr = Instr::new(id, op);
    instr.ext = ext;
    Ok(instr)
}

fn parse_op(toks: &[&str], line: usize) -> Result<Op> {
    if toks.is_empty() {
        return err(line, "empty instruction");
    }
    // Keyword-led forms.
    match toks[0] {
        "nop" => return Ok(Op::Nop),
        "jump" => {
            let target = BlockId(parse_prefixed(toks.get(1).unwrap_or(&""), 'b', line)?);
            return Ok(Op::Jump { target });
        }
        "ret" => {
            let mut values = Vec::new();
            for tok in &toks[1..] {
                values.push(parse_operand(tok, line)?);
            }
            return Ok(Op::Ret { values });
        }
        "invalidate" => {
            return Ok(Op::Invalidate {
                region: parse_region(toks.get(1).unwrap_or(&""), line)?,
            });
        }
        "reuse" => {
            // reuse rcrN body=bB cont=bC
            let region = parse_region(toks.get(1).unwrap_or(&""), line)?;
            let mut body = None;
            let mut cont = None;
            for tok in &toks[2..] {
                if let Some(v) = tok.strip_prefix("body=") {
                    body = Some(BlockId(parse_prefixed(v, 'b', line)?));
                } else if let Some(v) = tok.strip_prefix("cont=") {
                    cont = Some(BlockId(parse_prefixed(v, 'b', line)?));
                }
            }
            let (Some(body), Some(cont)) = (body, cont) else {
                return err(line, "reuse missing body=/cont=");
            };
            return Ok(Op::Reuse { region, body, cont });
        }
        "store" => {
            // store @N[addr] = value
            let (object, addr, offset) = parse_mem_ref(toks.get(1).unwrap_or(&""), line)?;
            if toks.get(2) != Some(&"=") {
                return err(line, "store missing `=`");
            }
            let value = parse_operand(toks.get(3).unwrap_or(&""), line)?;
            return Ok(Op::Store {
                object,
                addr,
                offset,
                value,
            });
        }
        "call" => {
            return parse_call(&[], toks, line);
        }
        _ => {}
    }
    if let Some(b) = toks[0].strip_prefix("br.") {
        // br.pred lhs, rhs -> bT else bF
        let pred = cmp_pred(b).ok_or_else(|| ParseError {
            line,
            message: format!("unknown branch predicate `{b}`"),
        })?;
        let lhs = parse_operand(toks.get(1).unwrap_or(&""), line)?;
        let rhs = parse_operand(toks.get(2).unwrap_or(&""), line)?;
        if toks.get(3) != Some(&"->") {
            return err(line, "branch missing `->`");
        }
        let taken = BlockId(parse_prefixed(toks.get(4).unwrap_or(&""), 'b', line)?);
        if toks.get(5) != Some(&"else") {
            return err(line, "branch missing `else`");
        }
        let not_taken = BlockId(parse_prefixed(toks.get(6).unwrap_or(&""), 'b', line)?);
        return Ok(Op::Branch {
            pred,
            lhs,
            rhs,
            taken,
            not_taken,
        });
    }
    // Assignment forms: `rD[, rE ...] = <rhs>`.
    let eq = toks
        .iter()
        .position(|t| *t == "=")
        .ok_or_else(|| ParseError {
            line,
            message: format!("unrecognized instruction `{}`", toks.join(" ")),
        })?;
    let mut dsts = Vec::new();
    for tok in &toks[..eq] {
        dsts.push(parse_reg(tok, line)?);
    }
    let rhs = &toks[eq + 1..];
    if rhs.is_empty() {
        return err(line, "missing right-hand side");
    }
    if rhs[0] == "call" || rhs[0].starts_with("call") {
        return parse_call(&dsts, rhs, line);
    }
    if dsts.len() != 1 {
        return err(line, "multiple destinations only valid for calls");
    }
    let dst = dsts[0];
    if rhs[0] == "load" {
        let (object, addr, offset) = parse_mem_ref(rhs.get(1).unwrap_or(&""), line)?;
        return Ok(Op::Load {
            dst,
            object,
            addr,
            offset,
        });
    }
    if let Some(p) = rhs[0].strip_prefix("cmp.") {
        let pred = cmp_pred(p).ok_or_else(|| ParseError {
            line,
            message: format!("unknown compare predicate `{p}`"),
        })?;
        let lhs = parse_operand(rhs.get(1).unwrap_or(&""), line)?;
        let r = parse_operand(rhs.get(2).unwrap_or(&""), line)?;
        return Ok(Op::Cmp {
            pred,
            dst,
            lhs,
            rhs: r,
        });
    }
    if let Some(kind) = bin_kind(rhs[0]) {
        let lhs = parse_operand(rhs.get(1).unwrap_or(&""), line)?;
        let r = parse_operand(rhs.get(2).unwrap_or(&""), line)?;
        return Ok(Op::Binary {
            kind,
            dst,
            lhs,
            rhs: r,
        });
    }
    if let Some(kind) = un_kind(rhs[0]) {
        let src = parse_operand(rhs.get(1).unwrap_or(&""), line)?;
        return Ok(Op::Unary { kind, dst, src });
    }
    err(line, format!("unrecognized operation `{}`", rhs[0]))
}

/// `call fN(a, b)` with `rets` already parsed from the left-hand side.
fn parse_call(rets: &[Reg], toks: &[&str], line: usize) -> Result<Op> {
    // Rejoin: the argument list may have been split on spaces.
    let joined = toks.join(" ");
    let rest = joined.strip_prefix("call ").ok_or_else(|| ParseError {
        line,
        message: "expected `call`".into(),
    })?;
    let open = rest.find('(').ok_or_else(|| ParseError {
        line,
        message: "call missing `(`".into(),
    })?;
    let callee = FuncId(parse_prefixed(&rest[..open], 'f', line)?);
    let inner = rest[open + 1..]
        .strip_suffix(')')
        .ok_or_else(|| ParseError {
            line,
            message: "call missing `)`".into(),
        })?;
    let mut args = Vec::new();
    for a in inner.split(',') {
        let a = a.trim();
        if a.is_empty() {
            continue;
        }
        args.push(parse_operand(a, line)?);
    }
    Ok(Op::Call {
        callee,
        args,
        rets: rets.to_vec(),
    })
}

impl std::str::FromStr for Program {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Program> {
        parse_program(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::verify::verify_program;

    /// A program touching every syntactic form.
    fn kitchen_sink() -> Program {
        let mut pb = ProgramBuilder::new();
        let ro = pb.table("tbl", vec![1, -2, 3]);
        let rw = pb.object("buf", 4);
        let helper = pb.declare("helper", 2, 2);
        {
            let mut h = pb.function_body(helper);
            let (a, b) = (h.param(0), h.param(1));
            let s = h.add(a, b);
            let d = h.bin(BinKind::FMul, a, b);
            h.ret(&[Operand::Reg(s), Operand::Reg(d)]);
            pb.finish_function(h);
        }
        let mut f = pb.function("main", 0, 1);
        let x = f.movi(-7);
        let y = f.load_off(ro, x, 2);
        let n = f.un(UnKind::Not, y);
        let c = f.cmp(CmpPred::Ge, n, 0);
        f.store_off(rw, c, 1, n);
        let rs = f.call(helper, &[Operand::Reg(x), Operand::Imm(9)], 2);
        let t = f.block();
        let e = f.block();
        f.br(CmpPred::Ne, rs[0], rs[1], t, e);
        f.switch_to(t);
        f.nop();
        f.ret(&[Operand::Reg(n)]);
        f.switch_to(e);
        f.jump(t);
        let id = pb.finish_function(f);
        pb.set_main(id);
        pb.finish()
    }

    #[test]
    fn print_parse_print_is_identity() {
        let p = kitchen_sink();
        let text = p.to_string();
        let q = parse_program(&text).unwrap();
        assert_eq!(q.to_string(), text);
        verify_program(&q).unwrap();
    }

    #[test]
    fn parses_reuse_and_extensions() {
        let mut p = kitchen_sink();
        let region = p.fresh_region_id();
        let main = p.main();
        // Graft a reuse + invalidate + marks into the dead-ish blocks.
        let reuse = p.new_instr(Op::Reuse {
            region,
            body: BlockId(1),
            cont: BlockId(2),
        });
        let inv = p.new_instr(Op::Invalidate { region });
        let f = p.function_mut(main);
        f.block_mut(BlockId(2)).instrs.insert(0, inv);
        f.block_mut(BlockId(2)).instrs[0].ext = InstrExt::LIVE_OUT | InstrExt::REGION_END;
        *f.block_mut(BlockId(2)).instrs.last_mut().unwrap() = reuse;
        let text = p.to_string();
        let q = parse_program(&text).unwrap();
        assert_eq!(q.to_string(), text);
        assert_eq!(q.region_count(), p.region_count());
    }

    #[test]
    fn parses_object_initializers() {
        let p = kitchen_sink();
        let q = parse_program(&p.to_string()).unwrap();
        assert_eq!(
            q.object(MemObjectId(0)).init(),
            p.object(MemObjectId(0)).init()
        );
        assert_eq!(q.object(MemObjectId(0)).kind(), ObjectKind::ReadOnly);
        assert_eq!(q.object(MemObjectId(1)).kind(), ObjectKind::Named);
    }

    /// A one-object program around `object_line`, for object errors.
    fn with_object(object_line: &str) -> String {
        format!(
            "program main=f0\n{object_line}\nfunc f0 \"m\" (params=0, rets=0):\n  b0 (entry):\n    i0  ret \n"
        )
    }

    #[test]
    fn zero_sized_object_is_an_error() {
        let e =
            parse_program(&with_object("object @0 \"o\" kind=Named size=0 init=[]")).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("size 0"), "{e}");
    }

    #[test]
    fn initializer_longer_than_the_object_is_an_error() {
        let e = parse_program(&with_object(
            "object @0 \"o\" kind=Named size=2 init=[10, 20, 30, 40]",
        ))
        .unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("4 initializers for size 2"), "{e}");
        // A full-length initializer is fine.
        parse_program(&with_object(
            "object @0 \"o\" kind=Named size=2 init=[10, 20]",
        ))
        .unwrap();
    }

    #[test]
    fn error_reports_line_numbers() {
        let text = "program main=f0\nfunc f0 \"m\" (params=0, rets=0):\n  b0 (entry):\n    i0  garbage here\n";
        let e = parse_program(text).unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.to_string().contains("line 4"), "{e}");
    }

    #[test]
    fn missing_header_is_an_error() {
        let e = parse_program("func f0 \"m\" (params=0, rets=0):\n").unwrap_err();
        assert!(e.message.contains("program main"), "{e}");
    }

    #[test]
    fn from_str_is_parse_program() {
        let text =
            "program main=f0\nfunc f0 \"m\" (params=0, rets=0):\n  b0 (entry):\n    i0  ret \n";
        let p: Program = text.parse().unwrap();
        assert_eq!(p.functions().len(), 1);
    }

    #[test]
    fn negative_offsets_round_trip() {
        let mut pb = ProgramBuilder::new();
        let o = pb.table("t", vec![5, 6, 7, 8]);
        let mut f = pb.function("main", 0, 1);
        let i = f.movi(2);
        let v = f.load_off(o, i, -1);
        f.ret(&[Operand::Reg(v)]);
        let id = pb.finish_function(f);
        pb.set_main(id);
        let p = pb.finish();
        let q = parse_program(&p.to_string()).unwrap();
        assert_eq!(q.to_string(), p.to_string());
    }
}
