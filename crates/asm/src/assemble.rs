//! The two-pass assembler driver: layout (pass 1) and encoding (pass 2).

use crate::expr::{eval, SymEnv};
use crate::lexer::Token;
use crate::parser::{parse, Located, Stmt};
use crate::AsmError;
use metal_isa::insn::{AluOp, Cond, CsrOp, CsrSrc, Insn, LoadOp, MulOp, StoreOp};
use metal_isa::metal::{MarchOp, Mcr, MENTER_INDIRECT};
use metal_isa::reg::{MregIdx, Reg};
use metal_isa::{fits_simm, try_encode};
use std::collections::BTreeMap;

/// Base addresses for the `.text` and `.data` sections.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// Initial location counter of `.text` (the default section).
    pub text_base: u32,
    /// Initial location counter of `.data`.
    pub data_base: u32,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            text_base: 0,
            data_base: 0x1_0000,
        }
    }
}

/// A contiguous run of assembled bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Segment {
    /// Start address.
    pub base: u32,
    /// Raw bytes.
    pub data: Vec<u8>,
}

impl Segment {
    /// Address one past the last byte.
    #[must_use]
    pub fn end(&self) -> u32 {
        self.base + self.data.len() as u32
    }
}

/// Maps a run of assembled bytes back to the source statement that
/// produced it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SourceSpan {
    /// Start address of the emitted bytes.
    pub addr: u32,
    /// Number of bytes emitted (a pseudo-instruction may cover several
    /// words).
    pub len: u32,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column of the statement's first token.
    pub col: u32,
}

/// The output of a successful assembly.
#[derive(Clone, Debug, Default)]
pub struct Assembled {
    /// Merged, address-sorted segments.
    pub segments: Vec<Segment>,
    /// All defined symbols (labels and `.equ`/`=` definitions).
    pub symbols: BTreeMap<String, i64>,
    /// Address-sorted source spans for every emitting statement.
    pub spans: Vec<SourceSpan>,
}

impl Assembled {
    /// Looks up a label address.
    #[must_use]
    pub fn symbol(&self, name: &str) -> Option<u32> {
        self.symbols.get(name).map(|&v| v as u32)
    }

    /// The source span covering `addr`, if any statement emitted it.
    #[must_use]
    pub fn span_at(&self, addr: u32) -> Option<SourceSpan> {
        let idx = match self.spans.binary_search_by_key(&addr, |s| s.addr) {
            Ok(i) => i,
            Err(0) => return None,
            Err(i) => i - 1,
        };
        let span = self.spans[idx];
        (addr >= span.addr && addr < span.addr + span.len).then_some(span)
    }

    /// Flattens the image into a zero-filled byte vector starting at
    /// `base`. Returns an error message if any segment lies below `base`.
    pub fn flatten(&self, base: u32) -> Result<Vec<u8>, String> {
        let mut out = Vec::new();
        for seg in &self.segments {
            if seg.base < base {
                return Err(format!(
                    "segment at {:#x} lies below flatten base {base:#x}",
                    seg.base
                ));
            }
            let offset = (seg.base - base) as usize;
            if out.len() < offset + seg.data.len() {
                out.resize(offset + seg.data.len(), 0);
            }
            out[offset..offset + seg.data.len()].copy_from_slice(&seg.data);
        }
        Ok(out)
    }

    /// The image as little-endian words from `base` (zero-filled gaps).
    pub fn words(&self, base: u32) -> Result<Vec<u32>, String> {
        let mut bytes = self.flatten(base)?;
        bytes.resize(bytes.len().next_multiple_of(4), 0);
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }
}

/// Assembles a source file.
pub fn assemble(src: &str, options: Options) -> Result<Assembled, AsmError> {
    let stmts = parse(src)?;
    let mut asm = Assembler::new(options);
    asm.pass1(&stmts)?;
    asm.run_pass2(&stmts, options)?;
    asm.finish()
}

/// Assembles a single-section program at `base` and returns its image:
/// the bytes from `base`, zero-filled between segments and padded to a
/// whole word.
pub fn assemble_image(src: &str, base: u32) -> Result<Vec<u8>, AsmError> {
    let out = assemble(
        src,
        Options {
            text_base: base,
            data_base: base + 0x1_0000,
        },
    )?;
    let mut image = out.flatten(base).map_err(|msg| AsmError::new(0, msg))?;
    image.resize(image.len().next_multiple_of(4), 0);
    Ok(image)
}

/// [`assemble_image`] as little-endian words, for code that installs
/// or decodes words (mroutines, decoders).
pub fn assemble_at(src: &str, base: u32) -> Result<Vec<u32>, AsmError> {
    let image = assemble_image(src, base)?;
    Ok(image
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect())
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Section {
    Text,
    Data,
}

struct Assembler {
    loc_text: u32,
    loc_data: u32,
    section: Section,
    symbols: BTreeMap<String, i64>,
    chunks: Vec<(u32, Vec<u8>)>,
    spans: Vec<SourceSpan>,
}

struct Env<'a> {
    symbols: &'a BTreeMap<String, i64>,
    dot: i64,
}

impl SymEnv for Env<'_> {
    fn lookup(&self, name: &str) -> Option<i64> {
        self.symbols.get(name).copied()
    }
    fn dot(&self) -> i64 {
        self.dot
    }
}

/// An environment with no symbols at all, used to decide `li` expansion
/// deterministically across passes.
struct ConstEnv;

impl SymEnv for ConstEnv {
    fn lookup(&self, _name: &str) -> Option<i64> {
        None
    }
    fn dot(&self) -> i64 {
        0
    }
}

/// Decides whether `li` fits a single `addi`: only when the operand is a
/// symbol-free constant expression within the 12-bit signed range. The
/// choice must not depend on symbol values so that pass 1 and pass 2
/// agree on instruction sizes.
fn li_is_short(operand: &[Token]) -> bool {
    match eval(operand, 0, &ConstEnv, 0) {
        Ok((v, next)) if next == operand.len() => fits_simm(v, 12),
        _ => false,
    }
}

impl Assembler {
    fn new(options: Options) -> Assembler {
        Assembler {
            loc_text: options.text_base,
            loc_data: options.data_base,
            section: Section::Text,
            symbols: BTreeMap::new(),
            chunks: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn loc(&mut self) -> &mut u32 {
        match self.section {
            Section::Text => &mut self.loc_text,
            Section::Data => &mut self.loc_data,
        }
    }

    /// Pass 1: compute section layout and define all labels.
    fn pass1(&mut self, stmts: &[Located]) -> Result<(), AsmError> {
        for Located { line, stmt, .. } in stmts {
            let line = *line;
            match stmt {
                Stmt::Label(name) => {
                    let addr = i64::from(*self.loc());
                    if self.symbols.insert(name.clone(), addr).is_some() {
                        return Err(AsmError::new(line, format!("duplicate label {name:?}")));
                    }
                }
                Stmt::Assign { name, expr } => {
                    let dot = i64::from(*self.loc());
                    let env = Env {
                        symbols: &self.symbols,
                        dot,
                    };
                    let (v, next) = eval(expr, 0, &env, line)?;
                    expect_end(expr, next, line)?;
                    self.symbols.insert(name.clone(), v);
                }
                Stmt::Directive { name, args } => {
                    self.directive(line, name, args, None)?;
                }
                Stmt::Insn { mnemonic, operands } => {
                    let words = insn_size(line, mnemonic, operands)?;
                    self.advance(line, 4 * u64::from(words))?;
                }
            }
        }
        // Reset counters for pass 2.
        Ok(())
    }

    fn finish(self) -> Result<Assembled, AsmError> {
        let mut chunks = self.chunks;
        chunks.sort_by_key(|c| c.0);
        let mut segments: Vec<Segment> = Vec::new();
        for (base, data) in chunks {
            if data.is_empty() {
                continue;
            }
            if let Some(last) = segments.last_mut() {
                if base < last.end() {
                    return Err(AsmError::new(
                        0,
                        format!("overlapping output at address {base:#x}"),
                    ));
                }
                if base == last.end() {
                    last.data.extend_from_slice(&data);
                    continue;
                }
            }
            segments.push(Segment { base, data });
        }
        let mut spans = self.spans;
        spans.sort_by_key(|s| s.addr);
        Ok(Assembled {
            segments,
            symbols: self.symbols,
            spans,
        })
    }

    /// Moves the location counter `n` bytes on; it must stay inside the
    /// 32-bit address space.
    fn advance(&mut self, line: usize, n: u64) -> Result<(), AsmError> {
        let loc = self.loc();
        *loc = u32::try_from(n)
            .ok()
            .and_then(|n| loc.checked_add(n))
            .ok_or_else(|| AsmError::new(line, "location counter passes 0xffffffff"))?;
        Ok(())
    }

    fn emit(&mut self, line: usize, bytes: &[u8]) -> Result<(), AsmError> {
        let at = *self.loc();
        self.advance(line, bytes.len() as u64)?;
        self.chunks.push((at, bytes.to_vec()));
        Ok(())
    }

    fn record_span(&mut self, addr: u32, len: u32, line: usize, col: usize) {
        if len > 0 {
            self.spans.push(SourceSpan {
                addr,
                len,
                line: line as u32,
                col: col as u32,
            });
        }
    }

    /// Handles a directive. In pass 1 (`emit == None`) only layout effects
    /// apply; in pass 2 data is emitted.
    fn directive(
        &mut self,
        line: usize,
        name: &str,
        args: &[Vec<Token>],
        emit: Option<()>,
    ) -> Result<(), AsmError> {
        let emitting = emit.is_some();
        match name {
            "text" => self.section = Section::Text,
            "data" => self.section = Section::Data,
            "globl" | "global" | "section" | "p2align_ignored" => {}
            "org" => {
                let v = self.eval_one(line, args, 0)?;
                *self.loc() = u32::try_from(v)
                    .map_err(|_| AsmError::new(line, ".org target is outside 0..=0xffffffff"))?;
            }
            "align" => {
                let v = self.eval_one(line, args, 0)?;
                if !(0..=16).contains(&v) {
                    return Err(AsmError::new(line, ".align power out of range"));
                }
                let align = 1u32 << v;
                let loc = *self.loc();
                let pad = (align - (loc % align)) % align;
                if emitting {
                    self.emit(line, &vec![0u8; pad as usize])?;
                } else {
                    self.advance(line, u64::from(pad))?;
                }
            }
            "space" | "skip" => {
                let n = self.eval_one(line, args, 0)?;
                if n < 0 {
                    return Err(AsmError::new(line, ".space size is negative"));
                }
                let fill = if args.len() > 1 {
                    self.eval_one(line, args, 1)? as u8
                } else {
                    0
                };
                if emitting {
                    self.emit(line, &vec![fill; n as usize])?;
                } else {
                    self.advance(line, n as u64)?;
                }
            }
            "word" | "half" | "byte" => {
                let width = match name {
                    "word" => 4,
                    "half" => 2,
                    _ => 1,
                };
                if emitting {
                    let mut bytes = Vec::with_capacity(args.len() * width);
                    for idx in 0..args.len() {
                        let v = self.eval_one(line, args, idx)?;
                        bytes.extend_from_slice(&v.to_le_bytes()[..width]);
                    }
                    self.emit(line, &bytes)?;
                } else {
                    self.advance(line, (args.len() * width) as u64)?;
                }
            }
            "ascii" | "asciz" => {
                let mut bytes = Vec::new();
                for arg in args {
                    match arg.as_slice() {
                        [Token::Str(s)] => bytes.extend_from_slice(s.as_bytes()),
                        _ => return Err(AsmError::new(line, format!(".{name} expects strings"))),
                    }
                    if name == "asciz" {
                        bytes.push(0);
                    }
                }
                if emitting {
                    self.emit(line, &bytes)?;
                } else {
                    self.advance(line, bytes.len() as u64)?;
                }
            }
            "equ" | "set" => {
                if args.len() != 2 {
                    return Err(AsmError::new(line, ".equ expects name, value"));
                }
                let sym = match args[0].as_slice() {
                    [Token::Ident(n)] => n.clone(),
                    _ => return Err(AsmError::new(line, ".equ name must be an identifier")),
                };
                let v = self.eval_one(line, args, 1)?;
                self.symbols.insert(sym, v);
            }
            other => {
                return Err(AsmError::new(line, format!("unknown directive .{other}")));
            }
        }
        Ok(())
    }

    fn eval_one(&mut self, line: usize, args: &[Vec<Token>], idx: usize) -> Result<i64, AsmError> {
        let Some(arg) = args.get(idx) else {
            return Err(AsmError::new(line, "missing directive argument"));
        };
        let dot = i64::from(*self.loc());
        let env = Env {
            symbols: &self.symbols,
            dot,
        };
        let (v, next) = eval(arg, 0, &env, line)?;
        expect_end(arg, next, line)?;
        Ok(v)
    }
}

fn expect_end(toks: &[Token], next: usize, line: usize) -> Result<(), AsmError> {
    if next != toks.len() {
        Err(AsmError::new(line, "trailing tokens after expression"))
    } else {
        Ok(())
    }
}

/// The number of 4-byte words a (pseudo-)instruction occupies. Must agree
/// exactly with [`expand`].
fn insn_size(line: usize, mnemonic: &str, operands: &[Vec<Token>]) -> Result<u32, AsmError> {
    Ok(match mnemonic {
        "li" => {
            if operands.len() != 2 {
                return Err(AsmError::new(line, "li expects rd, imm"));
            }
            if li_is_short(&operands[1]) {
                1
            } else {
                2
            }
        }
        "la" => 2,
        _ => 1,
    })
}

/// Parses an operand as a GPR.
fn as_reg(toks: &[Token], line: usize) -> Result<Reg, AsmError> {
    match toks {
        [Token::Ident(name)] => Reg::parse(name)
            .ok_or_else(|| AsmError::new(line, format!("unknown register {name:?}"))),
        other => Err(AsmError::new(line, format!("expected register: {other:?}"))),
    }
}

/// True if the operand syntactically names a GPR.
fn is_reg(toks: &[Token]) -> bool {
    matches!(toks, [Token::Ident(name)] if Reg::parse(name).is_some())
}

/// Parses `offset(reg)` or `(reg)`.
fn as_mem(toks: &[Token], env: &dyn SymEnv, line: usize) -> Result<(i32, Reg), AsmError> {
    // Find the top-level '(' that starts the register part: it must be
    // followed by exactly [Ident, ')'] at the end of the operand.
    if toks.len() < 3 || toks[toks.len() - 1] != Token::Punct(')') {
        return Err(AsmError::new(line, "expected offset(register) operand"));
    }
    let open = toks.len() - 3;
    if toks[open] != Token::Punct('(') {
        return Err(AsmError::new(line, "expected offset(register) operand"));
    }
    let reg = match &toks[open + 1] {
        Token::Ident(name) => Reg::parse(name)
            .ok_or_else(|| AsmError::new(line, format!("unknown register {name:?}")))?,
        other => return Err(AsmError::new(line, format!("expected register: {other:?}"))),
    };
    let offset = if open == 0 {
        0
    } else {
        let (v, next) = eval(&toks[..open], 0, env, line)?;
        if next != open {
            return Err(AsmError::new(line, "malformed memory offset"));
        }
        v as i32
    };
    Ok((offset, reg))
}

/// Parses an `rmr`/`wmr` Metal-register operand: `mN`, an MCR name, or an
/// integer expression.
fn as_mreg(toks: &[Token], env: &dyn SymEnv, line: usize) -> Result<MregIdx, AsmError> {
    if let [Token::Ident(name)] = toks {
        if let Some(rest) = name.strip_prefix('m') {
            if let Ok(n) = rest.parse::<u8>() {
                return MregIdx::mreg(n)
                    .ok_or_else(|| AsmError::new(line, format!("no Metal register m{n}")));
            }
        }
        if let Some(mcr) = Mcr::parse(name) {
            return Ok(mcr.index());
        }
    }
    let (v, next) = eval(toks, 0, env, line)?;
    expect_end(toks, next, line)?;
    if !(0..0x1000).contains(&v) {
        return Err(AsmError::new(line, "Metal register index out of range"));
    }
    Ok(MregIdx::from_field(v as u32))
}

/// Parses a CSR operand: symbolic name or integer expression.
fn as_csr(toks: &[Token], env: &dyn SymEnv, line: usize) -> Result<u16, AsmError> {
    if let [Token::Ident(name)] = toks {
        if let Some(csr) = metal_isa::csr::parse(name) {
            return Ok(csr);
        }
    }
    let (v, next) = eval(toks, 0, env, line)?;
    expect_end(toks, next, line)?;
    if !(0..0x1000).contains(&v) {
        return Err(AsmError::new(line, "CSR address out of range"));
    }
    Ok(v as u16)
}

fn as_expr(toks: &[Token], env: &dyn SymEnv, line: usize) -> Result<i64, AsmError> {
    let (v, next) = eval(toks, 0, env, line)?;
    expect_end(toks, next, line)?;
    Ok(v)
}

/// Branch/jump target: an expression giving the target *address*; the
/// encoder receives `target - pc`.
fn as_target(toks: &[Token], env: &dyn SymEnv, pc: u32, line: usize) -> Result<i32, AsmError> {
    let v = as_expr(toks, env, line)?;
    Ok((v as u32).wrapping_sub(pc) as i32)
}

fn arity(line: usize, mnemonic: &str, operands: &[Vec<Token>], n: usize) -> Result<(), AsmError> {
    if operands.len() != n {
        Err(AsmError::new(
            line,
            format!("{mnemonic} expects {n} operand(s), got {}", operands.len()),
        ))
    } else {
        Ok(())
    }
}

/// Expands one (pseudo-)instruction at address `pc` into machine
/// instructions. The expansion length must agree with [`insn_size`].
#[allow(clippy::too_many_lines)]
fn expand(
    line: usize,
    mnemonic: &str,
    operands: &[Vec<Token>],
    env: &dyn SymEnv,
    pc: u32,
) -> Result<Vec<Insn>, AsmError> {
    let ops = operands;
    let branch =
        |cond: Cond, rs1: Reg, rs2: Reg, target: &[Token]| -> Result<Vec<Insn>, AsmError> {
            Ok(vec![Insn::Branch {
                cond,
                rs1,
                rs2,
                offset: as_target(target, env, pc, line)?,
            }])
        };
    let alu_imm = |op: AluOp| -> Result<Vec<Insn>, AsmError> {
        arity(line, mnemonic, ops, 3)?;
        Ok(vec![Insn::AluImm {
            op,
            rd: as_reg(&ops[0], line)?,
            rs1: as_reg(&ops[1], line)?,
            imm: as_expr(&ops[2], env, line)? as i32,
        }])
    };
    let alu = |op: AluOp| -> Result<Vec<Insn>, AsmError> {
        arity(line, mnemonic, ops, 3)?;
        Ok(vec![Insn::Alu {
            op,
            rd: as_reg(&ops[0], line)?,
            rs1: as_reg(&ops[1], line)?,
            rs2: as_reg(&ops[2], line)?,
        }])
    };
    let muldiv = |op: MulOp| -> Result<Vec<Insn>, AsmError> {
        arity(line, mnemonic, ops, 3)?;
        Ok(vec![Insn::MulDiv {
            op,
            rd: as_reg(&ops[0], line)?,
            rs1: as_reg(&ops[1], line)?,
            rs2: as_reg(&ops[2], line)?,
        }])
    };
    let load = |op: LoadOp| -> Result<Vec<Insn>, AsmError> {
        arity(line, mnemonic, ops, 2)?;
        let (offset, rs1) = as_mem(&ops[1], env, line)?;
        Ok(vec![Insn::Load {
            op,
            rd: as_reg(&ops[0], line)?,
            rs1,
            offset,
        }])
    };
    let store = |op: StoreOp| -> Result<Vec<Insn>, AsmError> {
        arity(line, mnemonic, ops, 2)?;
        let (offset, rs1) = as_mem(&ops[1], env, line)?;
        Ok(vec![Insn::Store {
            op,
            rs2: as_reg(&ops[0], line)?,
            rs1,
            offset,
        }])
    };
    let csr_reg = |op: CsrOp| -> Result<Vec<Insn>, AsmError> {
        arity(line, mnemonic, ops, 3)?;
        Ok(vec![Insn::Csr {
            op,
            rd: as_reg(&ops[0], line)?,
            csr: as_csr(&ops[1], env, line)?,
            src: CsrSrc::Reg(as_reg(&ops[2], line)?),
        }])
    };
    let csr_imm = |op: CsrOp| -> Result<Vec<Insn>, AsmError> {
        arity(line, mnemonic, ops, 3)?;
        let imm = as_expr(&ops[2], env, line)?;
        if !(0..32).contains(&imm) {
            return Err(AsmError::new(line, "CSR immediate out of range"));
        }
        Ok(vec![Insn::Csr {
            op,
            rd: as_reg(&ops[0], line)?,
            csr: as_csr(&ops[1], env, line)?,
            src: CsrSrc::Imm(imm as u8),
        }])
    };
    // `march` R-type helpers.
    let march_rd_rs1 = |op: MarchOp| -> Result<Vec<Insn>, AsmError> {
        arity(line, mnemonic, ops, 2)?;
        Ok(vec![Insn::March {
            op,
            rd: as_reg(&ops[0], line)?,
            rs1: as_reg(&ops[1], line)?,
            rs2: Reg::ZERO,
        }])
    };
    let march_rs1_rs2 = |op: MarchOp| -> Result<Vec<Insn>, AsmError> {
        arity(line, mnemonic, ops, 2)?;
        Ok(vec![Insn::March {
            op,
            rd: Reg::ZERO,
            rs1: as_reg(&ops[0], line)?,
            rs2: as_reg(&ops[1], line)?,
        }])
    };
    let march_rs1 = |op: MarchOp| -> Result<Vec<Insn>, AsmError> {
        arity(line, mnemonic, ops, 1)?;
        Ok(vec![Insn::March {
            op,
            rd: Reg::ZERO,
            rs1: as_reg(&ops[0], line)?,
            rs2: Reg::ZERO,
        }])
    };

    match mnemonic {
        // --- base ALU immediate ---
        "addi" => alu_imm(AluOp::Add),
        "slti" => alu_imm(AluOp::Slt),
        "sltiu" => alu_imm(AluOp::Sltu),
        "xori" => alu_imm(AluOp::Xor),
        "ori" => alu_imm(AluOp::Or),
        "andi" => alu_imm(AluOp::And),
        "slli" => alu_imm(AluOp::Sll),
        "srli" => alu_imm(AluOp::Srl),
        "srai" => alu_imm(AluOp::Sra),
        // --- base ALU register ---
        "add" => alu(AluOp::Add),
        "sub" => alu(AluOp::Sub),
        "sll" => alu(AluOp::Sll),
        "slt" => alu(AluOp::Slt),
        "sltu" => alu(AluOp::Sltu),
        "xor" => alu(AluOp::Xor),
        "srl" => alu(AluOp::Srl),
        "sra" => alu(AluOp::Sra),
        "or" => alu(AluOp::Or),
        "and" => alu(AluOp::And),
        // --- RV32M ---
        "mul" => muldiv(MulOp::Mul),
        "mulh" => muldiv(MulOp::Mulh),
        "mulhsu" => muldiv(MulOp::Mulhsu),
        "mulhu" => muldiv(MulOp::Mulhu),
        "div" => muldiv(MulOp::Div),
        "divu" => muldiv(MulOp::Divu),
        "rem" => muldiv(MulOp::Rem),
        "remu" => muldiv(MulOp::Remu),
        // --- loads/stores ---
        "lb" => load(LoadOp::Lb),
        "lh" => load(LoadOp::Lh),
        "lw" => load(LoadOp::Lw),
        "lbu" => load(LoadOp::Lbu),
        "lhu" => load(LoadOp::Lhu),
        "sb" => store(StoreOp::Sb),
        "sh" => store(StoreOp::Sh),
        "sw" => store(StoreOp::Sw),
        // --- upper immediates ---
        "lui" | "auipc" => {
            arity(line, mnemonic, ops, 2)?;
            let rd = as_reg(&ops[0], line)?;
            let imm = as_expr(&ops[1], env, line)?;
            if !(0..(1 << 20)).contains(&imm) {
                return Err(AsmError::new(line, "upper immediate out of range"));
            }
            let imm20 = imm as u32;
            Ok(vec![if mnemonic == "lui" {
                Insn::Lui { rd, imm20 }
            } else {
                Insn::Auipc { rd, imm20 }
            }])
        }
        // --- jumps ---
        "jal" => match ops.len() {
            1 => Ok(vec![Insn::Jal {
                rd: Reg::RA,
                offset: as_target(&ops[0], env, pc, line)?,
            }]),
            2 => Ok(vec![Insn::Jal {
                rd: as_reg(&ops[0], line)?,
                offset: as_target(&ops[1], env, pc, line)?,
            }]),
            n => Err(AsmError::new(
                line,
                format!("jal expects 1-2 operands, got {n}"),
            )),
        },
        "jalr" => match ops.len() {
            1 => {
                let (offset, rs1) = if is_reg(&ops[0]) {
                    (0, as_reg(&ops[0], line)?)
                } else {
                    as_mem(&ops[0], env, line)?
                };
                Ok(vec![Insn::Jalr {
                    rd: Reg::RA,
                    rs1,
                    offset,
                }])
            }
            2 => {
                let (offset, rs1) = as_mem(&ops[1], env, line)?;
                Ok(vec![Insn::Jalr {
                    rd: as_reg(&ops[0], line)?,
                    rs1,
                    offset,
                }])
            }
            n => Err(AsmError::new(
                line,
                format!("jalr expects 1-2 operands, got {n}"),
            )),
        },
        // --- branches ---
        "beq" | "bne" | "blt" | "bge" | "bltu" | "bgeu" => {
            arity(line, mnemonic, ops, 3)?;
            let cond = match mnemonic {
                "beq" => Cond::Eq,
                "bne" => Cond::Ne,
                "blt" => Cond::Lt,
                "bge" => Cond::Ge,
                "bltu" => Cond::Ltu,
                _ => Cond::Geu,
            };
            branch(
                cond,
                as_reg(&ops[0], line)?,
                as_reg(&ops[1], line)?,
                &ops[2],
            )
        }
        "bgt" | "ble" | "bgtu" | "bleu" => {
            arity(line, mnemonic, ops, 3)?;
            let cond = match mnemonic {
                "bgt" => Cond::Lt,
                "ble" => Cond::Ge,
                "bgtu" => Cond::Ltu,
                _ => Cond::Geu,
            };
            // Swapped-operand forms.
            branch(
                cond,
                as_reg(&ops[1], line)?,
                as_reg(&ops[0], line)?,
                &ops[2],
            )
        }
        "beqz" | "bnez" | "bltz" | "bgez" => {
            arity(line, mnemonic, ops, 2)?;
            let cond = match mnemonic {
                "beqz" => Cond::Eq,
                "bnez" => Cond::Ne,
                "bltz" => Cond::Lt,
                _ => Cond::Ge,
            };
            branch(cond, as_reg(&ops[0], line)?, Reg::ZERO, &ops[1])
        }
        "blez" | "bgtz" => {
            arity(line, mnemonic, ops, 2)?;
            let cond = if mnemonic == "blez" {
                Cond::Ge
            } else {
                Cond::Lt
            };
            branch(cond, Reg::ZERO, as_reg(&ops[0], line)?, &ops[1])
        }
        // --- system ---
        "ecall" => Ok(vec![Insn::Ecall]),
        "ebreak" => Ok(vec![Insn::Ebreak]),
        "mret" => Ok(vec![Insn::Mret]),
        "wfi" => Ok(vec![Insn::Wfi]),
        "fence" => Ok(vec![Insn::Fence]),
        "csrrw" => csr_reg(CsrOp::Rw),
        "csrrs" => csr_reg(CsrOp::Rs),
        "csrrc" => csr_reg(CsrOp::Rc),
        "csrrwi" => csr_imm(CsrOp::Rw),
        "csrrsi" => csr_imm(CsrOp::Rs),
        "csrrci" => csr_imm(CsrOp::Rc),
        "csrr" => {
            arity(line, mnemonic, ops, 2)?;
            Ok(vec![Insn::Csr {
                op: CsrOp::Rs,
                rd: as_reg(&ops[0], line)?,
                csr: as_csr(&ops[1], env, line)?,
                src: CsrSrc::Reg(Reg::ZERO),
            }])
        }
        "csrw" => {
            arity(line, mnemonic, ops, 2)?;
            Ok(vec![Insn::Csr {
                op: CsrOp::Rw,
                rd: Reg::ZERO,
                csr: as_csr(&ops[0], env, line)?,
                src: CsrSrc::Reg(as_reg(&ops[1], line)?),
            }])
        }
        // --- pseudo-instructions ---
        "nop" => Ok(vec![Insn::NOP]),
        "li" => {
            arity(line, mnemonic, ops, 2)?;
            let rd = as_reg(&ops[0], line)?;
            let v = as_expr(&ops[1], env, line)? as i32;
            if li_is_short(&ops[1]) {
                Ok(vec![Insn::AluImm {
                    op: AluOp::Add,
                    rd,
                    rs1: Reg::ZERO,
                    imm: v,
                }])
            } else {
                let hi = ((v.wrapping_add(0x800)) as u32) >> 12;
                let lo = (v << 20) >> 20;
                Ok(vec![
                    Insn::Lui { rd, imm20: hi },
                    Insn::AluImm {
                        op: AluOp::Add,
                        rd,
                        rs1: rd,
                        imm: lo,
                    },
                ])
            }
        }
        "la" => {
            arity(line, mnemonic, ops, 2)?;
            let rd = as_reg(&ops[0], line)?;
            let v = as_expr(&ops[1], env, line)? as i32;
            let hi = ((v.wrapping_add(0x800)) as u32) >> 12;
            let lo = (v << 20) >> 20;
            Ok(vec![
                Insn::Lui { rd, imm20: hi },
                Insn::AluImm {
                    op: AluOp::Add,
                    rd,
                    rs1: rd,
                    imm: lo,
                },
            ])
        }
        "mv" => {
            arity(line, mnemonic, ops, 2)?;
            Ok(vec![Insn::AluImm {
                op: AluOp::Add,
                rd: as_reg(&ops[0], line)?,
                rs1: as_reg(&ops[1], line)?,
                imm: 0,
            }])
        }
        "not" => {
            arity(line, mnemonic, ops, 2)?;
            Ok(vec![Insn::AluImm {
                op: AluOp::Xor,
                rd: as_reg(&ops[0], line)?,
                rs1: as_reg(&ops[1], line)?,
                imm: -1,
            }])
        }
        "neg" => {
            arity(line, mnemonic, ops, 2)?;
            Ok(vec![Insn::Alu {
                op: AluOp::Sub,
                rd: as_reg(&ops[0], line)?,
                rs1: Reg::ZERO,
                rs2: as_reg(&ops[1], line)?,
            }])
        }
        "seqz" => {
            arity(line, mnemonic, ops, 2)?;
            Ok(vec![Insn::AluImm {
                op: AluOp::Sltu,
                rd: as_reg(&ops[0], line)?,
                rs1: as_reg(&ops[1], line)?,
                imm: 1,
            }])
        }
        "snez" => {
            arity(line, mnemonic, ops, 2)?;
            Ok(vec![Insn::Alu {
                op: AluOp::Sltu,
                rd: as_reg(&ops[0], line)?,
                rs1: Reg::ZERO,
                rs2: as_reg(&ops[1], line)?,
            }])
        }
        "j" | "tail" => {
            arity(line, mnemonic, ops, 1)?;
            Ok(vec![Insn::Jal {
                rd: Reg::ZERO,
                offset: as_target(&ops[0], env, pc, line)?,
            }])
        }
        "jr" => {
            arity(line, mnemonic, ops, 1)?;
            Ok(vec![Insn::Jalr {
                rd: Reg::ZERO,
                rs1: as_reg(&ops[0], line)?,
                offset: 0,
            }])
        }
        "call" => {
            arity(line, mnemonic, ops, 1)?;
            Ok(vec![Insn::Jal {
                rd: Reg::RA,
                offset: as_target(&ops[0], env, pc, line)?,
            }])
        }
        "ret" => Ok(vec![Insn::Jalr {
            rd: Reg::ZERO,
            rs1: Reg::RA,
            offset: 0,
        }]),
        // --- Metal extension ---
        "menter" => {
            arity(line, mnemonic, ops, 1)?;
            if is_reg(&ops[0]) {
                Ok(vec![Insn::Menter {
                    rs1: as_reg(&ops[0], line)?,
                    entry: MENTER_INDIRECT,
                }])
            } else {
                let entry = as_expr(&ops[0], env, line)?;
                if !(0..64).contains(&entry) {
                    return Err(AsmError::new(line, "mroutine entry out of range"));
                }
                Ok(vec![Insn::Menter {
                    rs1: Reg::ZERO,
                    entry: entry as u32,
                }])
            }
        }
        "mexit" => Ok(vec![Insn::Mexit]),
        "rmr" => {
            arity(line, mnemonic, ops, 2)?;
            Ok(vec![Insn::Rmr {
                rd: as_reg(&ops[0], line)?,
                idx: as_mreg(&ops[1], env, line)?,
            }])
        }
        "wmr" => {
            arity(line, mnemonic, ops, 2)?;
            Ok(vec![Insn::Wmr {
                idx: as_mreg(&ops[0], env, line)?,
                rs1: as_reg(&ops[1], line)?,
            }])
        }
        "mld" => {
            arity(line, mnemonic, ops, 2)?;
            let (offset, rs1) = as_mem(&ops[1], env, line)?;
            Ok(vec![Insn::Mld {
                rd: as_reg(&ops[0], line)?,
                rs1,
                offset,
            }])
        }
        "mst" => {
            arity(line, mnemonic, ops, 2)?;
            let (offset, rs1) = as_mem(&ops[1], env, line)?;
            Ok(vec![Insn::Mst {
                rs2: as_reg(&ops[0], line)?,
                rs1,
                offset,
            }])
        }
        "mpld" => march_rd_rs1(MarchOp::Mpld),
        "mtlbp" => march_rd_rs1(MarchOp::Mtlbp),
        "mpst" => march_rs1_rs2(MarchOp::Mpst),
        "mtlbw" => march_rs1_rs2(MarchOp::Mtlbw),
        "mpkey" => march_rs1_rs2(MarchOp::Mpkey),
        "mintercept" => march_rs1_rs2(MarchOp::Mintercept),
        "mtlbi" => march_rs1(MarchOp::Mtlbi),
        "masid" => march_rs1(MarchOp::Masid),
        "miack" => march_rs1(MarchOp::Miack),
        "mlayer" => march_rs1(MarchOp::Mlayer),
        "mipend" => {
            arity(line, mnemonic, ops, 1)?;
            Ok(vec![Insn::March {
                op: MarchOp::Mipend,
                rd: as_reg(&ops[0], line)?,
                rs1: Reg::ZERO,
                rs2: Reg::ZERO,
            }])
        }
        "mscrub" => {
            arity(line, mnemonic, ops, 1)?;
            Ok(vec![Insn::March {
                op: MarchOp::Mscrub,
                rd: as_reg(&ops[0], line)?,
                rs1: Reg::ZERO,
                rs2: Reg::ZERO,
            }])
        }
        "mtlbiall" => {
            arity(line, mnemonic, ops, 0)?;
            Ok(vec![Insn::March {
                op: MarchOp::Mtlbiall,
                rd: Reg::ZERO,
                rs1: Reg::ZERO,
                rs2: Reg::ZERO,
            }])
        }
        other => Err(AsmError::new(line, format!("unknown mnemonic {other:?}"))),
    }
}

impl Assembler {
    fn run_pass2(&mut self, stmts: &[Located], options: Options) -> Result<(), AsmError> {
        self.loc_text = options.text_base;
        self.loc_data = options.data_base;
        self.section = Section::Text;
        for Located { line, col, stmt } in stmts {
            let (line, col) = (*line, *col);
            match stmt {
                Stmt::Label(_) | Stmt::Assign { .. } => {}
                Stmt::Directive { name, args } => {
                    let args = args.clone();
                    let section = self.section;
                    let at = *self.loc();
                    self.directive(line, name, &args, Some(()))?;
                    // `.org` moves the location counter without emitting;
                    // only data-emitting directives get a span.
                    let emits = matches!(
                        name.as_str(),
                        "word" | "half" | "byte" | "ascii" | "asciz" | "space" | "skip" | "align"
                    );
                    let end = *self.loc();
                    if emits && self.section == section && end > at {
                        self.record_span(at, end - at, line, col);
                    }
                }
                Stmt::Insn { mnemonic, operands } => {
                    let pc = *self.loc();
                    let env = Env {
                        symbols: &self.symbols,
                        dot: i64::from(pc),
                    };
                    let insns = expand(line, mnemonic, operands, &env, pc)?;
                    let expected = insn_size(line, mnemonic, operands)?;
                    debug_assert_eq!(insns.len() as u32, expected, "size mismatch: {mnemonic}");
                    let mut bytes = Vec::with_capacity(insns.len() * 4);
                    for insn in &insns {
                        let word = try_encode(insn)
                            .map_err(|e| AsmError::new(line, format!("{mnemonic}: {e}")))?;
                        bytes.extend_from_slice(&word.to_le_bytes());
                    }
                    self.emit(line, &bytes)?;
                    self.record_span(pc, bytes.len() as u32, line, col);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metal_isa::decode;

    fn asm(src: &str) -> Vec<u32> {
        assemble_at(src, 0).unwrap_or_else(|e| panic!("{e}"))
    }

    #[test]
    fn simple_program() {
        let words = asm("addi a0, zero, 5\naddi a0, a0, -1\n");
        assert_eq!(words.len(), 2);
        assert_eq!(
            decode(words[0]).unwrap(),
            Insn::AluImm {
                op: AluOp::Add,
                rd: Reg::A0,
                rs1: Reg::ZERO,
                imm: 5
            }
        );
    }

    #[test]
    fn labels_and_branches() {
        let words = asm("loop:\n addi a0, a0, 1\n bne a0, a1, loop\n j done\ndone:\n nop");
        // bne at pc=4 targets 0 => offset -4.
        assert_eq!(
            decode(words[1]).unwrap(),
            Insn::Branch {
                cond: Cond::Ne,
                rs1: Reg::A0,
                rs2: Reg::A1,
                offset: -4
            }
        );
        // j at pc=8 targets 12 => offset 4.
        assert_eq!(
            decode(words[2]).unwrap(),
            Insn::Jal {
                rd: Reg::ZERO,
                offset: 4
            }
        );
    }

    #[test]
    fn li_expansion() {
        let short = asm("li a0, 100");
        assert_eq!(short.len(), 1);
        let long = asm("li a0, 0x12345678");
        assert_eq!(long.len(), 2);
        let Insn::Lui { imm20, .. } = decode(long[0]).unwrap() else {
            panic!("expected lui");
        };
        let Insn::AluImm { imm, .. } = decode(long[1]).unwrap() else {
            panic!("expected addi");
        };
        assert_eq!(((imm20 << 12).wrapping_add(imm as u32)), 0x1234_5678);
    }

    #[test]
    fn li_negative_large() {
        let words = asm("li a0, -74565");
        let Insn::Lui { imm20, .. } = decode(words[0]).unwrap() else {
            panic!("expected lui");
        };
        let Insn::AluImm { imm, .. } = decode(words[1]).unwrap() else {
            panic!("expected addi");
        };
        assert_eq!((imm20 << 12).wrapping_add(imm as u32), (-74565i32) as u32);
    }

    #[test]
    fn la_uses_symbol() {
        let out = assemble(
            ".text\nla a0, buf\nret\n.data\nbuf: .word 1",
            Options {
                text_base: 0,
                data_base: 0x8000,
            },
        )
        .unwrap();
        assert_eq!(out.symbol("buf"), Some(0x8000));
    }

    #[test]
    fn data_directives() {
        let out = assemble(
            ".data\nv: .word 0x11223344, 2\nh: .half 0x5566\nb: .byte 1, 2\ns: .asciz \"ab\"",
            Options {
                text_base: 0,
                data_base: 0x100,
            },
        )
        .unwrap();
        let seg = &out.segments[0];
        assert_eq!(seg.base, 0x100);
        assert_eq!(
            seg.data,
            vec![0x44, 0x33, 0x22, 0x11, 2, 0, 0, 0, 0x66, 0x55, 1, 2, b'a', b'b', 0]
        );
    }

    #[test]
    fn align_and_org() {
        let out = assemble(
            ".data\n.byte 1\n.align 2\nw: .word 2\n.org 0x40\nq: .word 3",
            Options {
                text_base: 0,
                data_base: 0,
            },
        )
        .unwrap();
        assert_eq!(out.symbol("w"), Some(4));
        assert_eq!(out.symbol("q"), Some(0x40));
    }

    #[test]
    fn equ_and_assign() {
        let words = asm("FOO = 40\n.equ BAR, FOO + 2\nli a0, BAR");
        // BAR = 42 — symbolic, so li takes the 2-word form.
        assert_eq!(words.len(), 2);
    }

    #[test]
    fn metal_instructions() {
        let words = asm(
            "menter 3\nmenter a0\nmexit\nrmr a0, m31\nwmr m0, a1\nwmr mcause, a2\n\
             mld t0, 8(t1)\nmst t0, 4(t2)\nmpld a0, a1\nmtlbw a0, a1\nmtlbiall",
        );
        assert_eq!(
            decode(words[0]).unwrap(),
            Insn::Menter {
                rs1: Reg::ZERO,
                entry: 3
            }
        );
        assert_eq!(
            decode(words[1]).unwrap(),
            Insn::Menter {
                rs1: Reg::A0,
                entry: MENTER_INDIRECT
            }
        );
        assert_eq!(decode(words[2]).unwrap(), Insn::Mexit);
        assert_eq!(
            decode(words[5]).unwrap(),
            Insn::Wmr {
                rs1: Reg::A2,
                idx: Mcr::Mcause.index()
            }
        );
    }

    #[test]
    fn pseudo_instructions() {
        let words = asm("mv a0, a1\nnot a0, a0\nneg a1, a0\nseqz a2, a1\nsnez a3, a1\nret");
        assert_eq!(words.len(), 6);
        assert_eq!(
            decode(words[5]).unwrap(),
            Insn::Jalr {
                rd: Reg::ZERO,
                rs1: Reg::RA,
                offset: 0
            }
        );
    }

    #[test]
    fn swapped_branches() {
        let words = asm("x: bgt a0, a1, x\nble a0, a1, x\nbgtu a0, a1, x\nbleu a0, a1, x");
        let Insn::Branch { cond, rs1, rs2, .. } = decode(words[0]).unwrap() else {
            panic!("not a branch");
        };
        assert_eq!((cond, rs1, rs2), (Cond::Lt, Reg::A1, Reg::A0));
    }

    #[test]
    fn duplicate_label_rejected() {
        let err = assemble_at("a:\na:\n", 0).unwrap_err();
        assert!(err.msg.contains("duplicate label"));
    }

    #[test]
    fn undefined_symbol_rejected() {
        let err = assemble_at("j nowhere", 0).unwrap_err();
        assert!(err.msg.contains("undefined symbol"));
    }

    #[test]
    fn branch_out_of_range_rejected() {
        let src = "start: nop\n.org 0x2000\n beq a0, a1, start\n".to_string();
        let err = assemble_at(&src, 0).unwrap_err();
        assert!(err.msg.contains("branch offset"), "{err}");
    }

    #[test]
    fn unknown_mnemonic_rejected() {
        let err = assemble_at("frobnicate a0", 0).unwrap_err();
        assert!(err.msg.contains("unknown mnemonic"));
    }

    #[test]
    fn overlap_rejected() {
        let err = assemble_at(".org 0\n.word 1\n.org 0\n.word 2", 0).unwrap_err();
        assert!(err.msg.contains("overlapping"));
    }

    #[test]
    fn location_counter_stays_in_address_space() {
        for (src, line) in [
            (".org -4\n.word 1", 1),
            (".org 0x100000000\n.word 1", 1),
            (".org 0xfffffffc\n.word 1\n.word 2", 2),
        ] {
            let err = assemble_at(src, 0).unwrap_err();
            assert_eq!(err.line, line, "{src:?}: {err}");
        }
    }

    #[test]
    fn dot_relative_branch() {
        let words = asm("beq a0, a1, . + 8\nnop\nnop");
        assert_eq!(
            decode(words[0]).unwrap(),
            Insn::Branch {
                cond: Cond::Eq,
                rs1: Reg::A0,
                rs2: Reg::A1,
                offset: 8
            }
        );
    }

    #[test]
    fn hi_lo_pair() {
        let words = asm("lui a0, %hi(0xDEADBEEF)\naddi a0, a0, %lo(0xDEADBEEF)");
        let Insn::Lui { imm20, .. } = decode(words[0]).unwrap() else {
            panic!("expected lui");
        };
        let Insn::AluImm { imm, .. } = decode(words[1]).unwrap() else {
            panic!("expected addi");
        };
        assert_eq!((imm20 << 12).wrapping_add(imm as u32), 0xDEAD_BEEF);
    }
}
