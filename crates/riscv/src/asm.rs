//! A two-pass RV64IM assembler.
//!
//! Supports the standard mnemonics of the interpreter's subset, labels,
//! `#`/`;` comments, ABI register names, and the common pseudo-instructions
//! (`li`, `mv`, `j`, `call`, `ret`, `beqz`, `bgt`, …) so the WFA kernels can
//! be written as ordinary assembly text and unit-tested instruction by
//! instruction.

use crate::isa::{AluOp, BranchOp, Instr, LoadOp, MulOp, Reg, StoreOp};
use crate::vector::VInstr;
use std::collections::HashMap;

/// An assembled program.
#[derive(Debug, Clone)]
pub struct Program {
    /// Instructions, at addresses `base + 4*i`.
    pub instrs: Vec<Instr>,
    /// Label byte addresses (relative to the program base).
    pub labels: HashMap<String, u64>,
}

/// Assembly errors with line context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based source line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for AsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for AsmError {}

fn err(line: usize, message: impl Into<String>) -> AsmError {
    AsmError {
        line,
        message: message.into(),
    }
}

/// Parse a vector register name (v0..v31).
fn parse_vreg(s: &str) -> Option<u8> {
    let n: u8 = s.trim().strip_prefix('v')?.parse().ok()?;
    (n < 32).then_some(n)
}

/// Parse a register name (x0..x31 or ABI name).
fn parse_reg(s: &str) -> Option<Reg> {
    let s = s.trim();
    if let Some(num) = s.strip_prefix('x') {
        let n: u8 = num.parse().ok()?;
        return (n < 32).then_some(n);
    }
    Some(match s {
        "zero" => 0,
        "ra" => 1,
        "sp" => 2,
        "gp" => 3,
        "tp" => 4,
        "t0" => 5,
        "t1" => 6,
        "t2" => 7,
        "s0" | "fp" => 8,
        "s1" => 9,
        "a0" => 10,
        "a1" => 11,
        "a2" => 12,
        "a3" => 13,
        "a4" => 14,
        "a5" => 15,
        "a6" => 16,
        "a7" => 17,
        "s2" => 18,
        "s3" => 19,
        "s4" => 20,
        "s5" => 21,
        "s6" => 22,
        "s7" => 23,
        "s8" => 24,
        "s9" => 25,
        "s10" => 26,
        "s11" => 27,
        "t3" => 28,
        "t4" => 29,
        "t5" => 30,
        "t6" => 31,
        _ => return None,
    })
}

fn parse_imm(s: &str) -> Option<i64> {
    let s = s.trim();
    let (neg, body) = match s.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, s),
    };
    let v = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16).ok()?
    } else {
        body.parse::<i64>().ok()?
    };
    Some(if neg { -v } else { v })
}

/// One instruction before label resolution.
#[derive(Debug, Clone)]
enum Pending {
    Ready(Instr),
    /// jal rd, label
    Jal {
        rd: Reg,
        label: String,
        line: usize,
    },
    /// branch with a label target (operands possibly pre-swapped).
    Branch {
        op: BranchOp,
        rs1: Reg,
        rs2: Reg,
        label: String,
        line: usize,
    },
}

/// Split "off(reg)" into (offset, reg).
fn parse_mem_operand(s: &str, line: usize) -> Result<(i64, Reg), AsmError> {
    let s = s.trim();
    let open = s
        .find('(')
        .ok_or_else(|| err(line, format!("expected off(reg), got '{s}'")))?;
    if !s.ends_with(')') {
        return Err(err(line, format!("unterminated memory operand '{s}'")));
    }
    let off_str = &s[..open];
    let off = if off_str.is_empty() {
        0
    } else {
        parse_imm(off_str).ok_or_else(|| err(line, format!("bad offset '{off_str}'")))?
    };
    let reg = parse_reg(&s[open + 1..s.len() - 1])
        .ok_or_else(|| err(line, format!("bad register in '{s}'")))?;
    Ok((off, reg))
}

/// Assemble a full program text.
pub fn assemble(text: &str) -> Result<Program, AsmError> {
    let mut pending: Vec<Pending> = Vec::new();
    let mut labels: HashMap<String, u64> = HashMap::new();

    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let mut src = raw;
        if let Some(pos) = src.find('#') {
            src = &src[..pos];
        }
        if let Some(pos) = src.find(';') {
            src = &src[..pos];
        }
        let mut src = src.trim();

        // Labels (possibly several, possibly followed by an instruction).
        while let Some(colon) = src.find(':') {
            let name = src[..colon].trim();
            if name.is_empty()
                || !name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
            {
                return Err(err(line, format!("bad label '{name}'")));
            }
            if labels
                .insert(name.to_string(), (pending.len() * 4) as u64)
                .is_some()
            {
                return Err(err(line, format!("duplicate label '{name}'")));
            }
            src = src[colon + 1..].trim();
        }
        if src.is_empty() {
            continue;
        }

        let (mnemonic, rest) = match src.find(char::is_whitespace) {
            Some(pos) => (&src[..pos], src[pos..].trim()),
            None => (src, ""),
        };
        let ops: Vec<&str> = if rest.is_empty() {
            Vec::new()
        } else {
            rest.split(',').map(str::trim).collect()
        };
        let reg = |i: usize| -> Result<Reg, AsmError> {
            ops.get(i).and_then(|s| parse_reg(s)).ok_or_else(|| {
                err(
                    line,
                    format!("operand {i} of '{mnemonic}' must be a register"),
                )
            })
        };
        let imm = |i: usize| -> Result<i64, AsmError> {
            ops.get(i).and_then(|s| parse_imm(s)).ok_or_else(|| {
                err(
                    line,
                    format!("operand {i} of '{mnemonic}' must be an immediate"),
                )
            })
        };
        let label_op = |i: usize| -> Result<String, AsmError> {
            ops.get(i)
                .map(|s| s.to_string())
                .ok_or_else(|| err(line, format!("operand {i} of '{mnemonic}' must be a label")))
        };
        let nops = |n: usize| -> Result<(), AsmError> {
            if ops.len() == n {
                Ok(())
            } else {
                Err(err(
                    line,
                    format!("'{mnemonic}' takes {n} operands, got {}", ops.len()),
                ))
            }
        };

        macro_rules! push {
            ($i:expr) => {
                pending.push(Pending::Ready($i))
            };
        }
        let alu_imm = |op: AluOp, word: bool, ops: &[&str]| -> Result<Instr, AsmError> {
            if ops.len() != 3 {
                return Err(err(line, format!("'{mnemonic}' takes 3 operands")));
            }
            Ok(Instr::OpImm {
                op,
                rd: parse_reg(ops[0]).ok_or_else(|| err(line, "bad rd"))?,
                rs1: parse_reg(ops[1]).ok_or_else(|| err(line, "bad rs1"))?,
                imm: parse_imm(ops[2]).ok_or_else(|| err(line, "bad immediate"))?,
                word,
            })
        };
        let alu_reg = |op: AluOp, word: bool, ops: &[&str]| -> Result<Instr, AsmError> {
            if ops.len() != 3 {
                return Err(err(line, format!("'{mnemonic}' takes 3 operands")));
            }
            Ok(Instr::Op {
                op,
                rd: parse_reg(ops[0]).ok_or_else(|| err(line, "bad rd"))?,
                rs1: parse_reg(ops[1]).ok_or_else(|| err(line, "bad rs1"))?,
                rs2: parse_reg(ops[2]).ok_or_else(|| err(line, "bad rs2"))?,
                word,
            })
        };
        let muldiv = |op: MulOp, word: bool, ops: &[&str]| -> Result<Instr, AsmError> {
            if ops.len() != 3 {
                return Err(err(line, format!("'{mnemonic}' takes 3 operands")));
            }
            Ok(Instr::MulDiv {
                op,
                rd: parse_reg(ops[0]).ok_or_else(|| err(line, "bad rd"))?,
                rs1: parse_reg(ops[1]).ok_or_else(|| err(line, "bad rs1"))?,
                rs2: parse_reg(ops[2]).ok_or_else(|| err(line, "bad rs2"))?,
                word,
            })
        };
        let load = |op: LoadOp, ops: &[&str]| -> Result<Instr, AsmError> {
            if ops.len() != 2 {
                return Err(err(line, format!("'{mnemonic}' takes 2 operands")));
            }
            let rd = parse_reg(ops[0]).ok_or_else(|| err(line, "bad rd"))?;
            let (offset, rs1) = parse_mem_operand(ops[1], line)?;
            Ok(Instr::Load {
                op,
                rd,
                rs1,
                offset,
            })
        };
        let store = |op: StoreOp, ops: &[&str]| -> Result<Instr, AsmError> {
            if ops.len() != 2 {
                return Err(err(line, format!("'{mnemonic}' takes 2 operands")));
            }
            let rs2 = parse_reg(ops[0]).ok_or_else(|| err(line, "bad rs2"))?;
            let (offset, rs1) = parse_mem_operand(ops[1], line)?;
            Ok(Instr::Store {
                op,
                rs2,
                rs1,
                offset,
            })
        };
        let branch = |op: BranchOp,
                      swap: bool,
                      ops: &[&str],
                      pending: &mut Vec<Pending>|
         -> Result<(), AsmError> {
            if ops.len() != 3 {
                return Err(err(line, format!("'{mnemonic}' takes 3 operands")));
            }
            let mut rs1 = parse_reg(ops[0]).ok_or_else(|| err(line, "bad rs1"))?;
            let mut rs2 = parse_reg(ops[1]).ok_or_else(|| err(line, "bad rs2"))?;
            if swap {
                std::mem::swap(&mut rs1, &mut rs2);
            }
            pending.push(Pending::Branch {
                op,
                rs1,
                rs2,
                label: ops[2].to_string(),
                line,
            });
            Ok(())
        };
        let branch_zero = |op: BranchOp,
                           swap: bool,
                           ops: &[&str],
                           pending: &mut Vec<Pending>|
         -> Result<(), AsmError> {
            if ops.len() != 2 {
                return Err(err(line, format!("'{mnemonic}' takes 2 operands")));
            }
            let r = parse_reg(ops[0]).ok_or_else(|| err(line, "bad register"))?;
            let (rs1, rs2) = if swap { (0, r) } else { (r, 0) };
            pending.push(Pending::Branch {
                op,
                rs1,
                rs2,
                label: ops[1].to_string(),
                line,
            });
            Ok(())
        };

        match mnemonic {
            // --- U/J/I jumps ---
            "lui" => {
                nops(2)?;
                push!(Instr::Lui {
                    rd: reg(0)?,
                    imm: imm(1)? << 12
                });
            }
            "auipc" => {
                nops(2)?;
                push!(Instr::Auipc {
                    rd: reg(0)?,
                    imm: imm(1)? << 12
                });
            }
            "jal" => {
                if ops.len() == 1 {
                    pending.push(Pending::Jal {
                        rd: 1,
                        label: label_op(0)?,
                        line,
                    });
                } else {
                    nops(2)?;
                    pending.push(Pending::Jal {
                        rd: reg(0)?,
                        label: label_op(1)?,
                        line,
                    });
                }
            }
            "jalr" => {
                if ops.len() == 1 {
                    push!(Instr::Jalr {
                        rd: 1,
                        rs1: reg(0)?,
                        offset: 0
                    });
                } else {
                    nops(2)?;
                    let (offset, rs1) = parse_mem_operand(ops[1], line)?;
                    push!(Instr::Jalr {
                        rd: reg(0)?,
                        rs1,
                        offset
                    });
                }
            }
            "j" => {
                nops(1)?;
                pending.push(Pending::Jal {
                    rd: 0,
                    label: label_op(0)?,
                    line,
                });
            }
            "call" => {
                nops(1)?;
                pending.push(Pending::Jal {
                    rd: 1,
                    label: label_op(0)?,
                    line,
                });
            }
            "jr" => {
                nops(1)?;
                push!(Instr::Jalr {
                    rd: 0,
                    rs1: reg(0)?,
                    offset: 0
                });
            }
            "ret" => {
                nops(0)?;
                push!(Instr::Jalr {
                    rd: 0,
                    rs1: 1,
                    offset: 0
                });
            }

            // --- branches ---
            "beq" => branch(BranchOp::Eq, false, &ops, &mut pending)?,
            "bne" => branch(BranchOp::Ne, false, &ops, &mut pending)?,
            "blt" => branch(BranchOp::Lt, false, &ops, &mut pending)?,
            "bge" => branch(BranchOp::Ge, false, &ops, &mut pending)?,
            "bltu" => branch(BranchOp::Ltu, false, &ops, &mut pending)?,
            "bgeu" => branch(BranchOp::Geu, false, &ops, &mut pending)?,
            "bgt" => branch(BranchOp::Lt, true, &ops, &mut pending)?,
            "ble" => branch(BranchOp::Ge, true, &ops, &mut pending)?,
            "bgtu" => branch(BranchOp::Ltu, true, &ops, &mut pending)?,
            "bleu" => branch(BranchOp::Geu, true, &ops, &mut pending)?,
            "beqz" => branch_zero(BranchOp::Eq, false, &ops, &mut pending)?,
            "bnez" => branch_zero(BranchOp::Ne, false, &ops, &mut pending)?,
            "bltz" => branch_zero(BranchOp::Lt, false, &ops, &mut pending)?,
            "bgez" => branch_zero(BranchOp::Ge, false, &ops, &mut pending)?,
            "bgtz" => branch_zero(BranchOp::Lt, true, &ops, &mut pending)?,
            "blez" => branch_zero(BranchOp::Ge, true, &ops, &mut pending)?,

            // --- loads/stores ---
            "lb" => push!(load(LoadOp::B, &ops)?),
            "lh" => push!(load(LoadOp::H, &ops)?),
            "lw" => push!(load(LoadOp::W, &ops)?),
            "ld" => push!(load(LoadOp::D, &ops)?),
            "lbu" => push!(load(LoadOp::Bu, &ops)?),
            "lhu" => push!(load(LoadOp::Hu, &ops)?),
            "lwu" => push!(load(LoadOp::Wu, &ops)?),
            "sb" => push!(store(StoreOp::B, &ops)?),
            "sh" => push!(store(StoreOp::H, &ops)?),
            "sw" => push!(store(StoreOp::W, &ops)?),
            "sd" => push!(store(StoreOp::D, &ops)?),

            // --- ALU immediate ---
            "addi" => push!(alu_imm(AluOp::Add, false, &ops)?),
            "slti" => push!(alu_imm(AluOp::Slt, false, &ops)?),
            "sltiu" => push!(alu_imm(AluOp::Sltu, false, &ops)?),
            "xori" => push!(alu_imm(AluOp::Xor, false, &ops)?),
            "ori" => push!(alu_imm(AluOp::Or, false, &ops)?),
            "andi" => push!(alu_imm(AluOp::And, false, &ops)?),
            "slli" => push!(alu_imm(AluOp::Sll, false, &ops)?),
            "srli" => push!(alu_imm(AluOp::Srl, false, &ops)?),
            "srai" => push!(alu_imm(AluOp::Sra, false, &ops)?),
            "addiw" => push!(alu_imm(AluOp::Add, true, &ops)?),
            "slliw" => push!(alu_imm(AluOp::Sll, true, &ops)?),
            "srliw" => push!(alu_imm(AluOp::Srl, true, &ops)?),
            "sraiw" => push!(alu_imm(AluOp::Sra, true, &ops)?),

            // --- ALU register ---
            "add" => push!(alu_reg(AluOp::Add, false, &ops)?),
            "sub" => push!(alu_reg(AluOp::Sub, false, &ops)?),
            "sll" => push!(alu_reg(AluOp::Sll, false, &ops)?),
            "slt" => push!(alu_reg(AluOp::Slt, false, &ops)?),
            "sltu" => push!(alu_reg(AluOp::Sltu, false, &ops)?),
            "xor" => push!(alu_reg(AluOp::Xor, false, &ops)?),
            "srl" => push!(alu_reg(AluOp::Srl, false, &ops)?),
            "sra" => push!(alu_reg(AluOp::Sra, false, &ops)?),
            "or" => push!(alu_reg(AluOp::Or, false, &ops)?),
            "and" => push!(alu_reg(AluOp::And, false, &ops)?),
            "addw" => push!(alu_reg(AluOp::Add, true, &ops)?),
            "subw" => push!(alu_reg(AluOp::Sub, true, &ops)?),
            "sllw" => push!(alu_reg(AluOp::Sll, true, &ops)?),
            "srlw" => push!(alu_reg(AluOp::Srl, true, &ops)?),
            "sraw" => push!(alu_reg(AluOp::Sra, true, &ops)?),

            // --- M extension ---
            "mul" => push!(muldiv(MulOp::Mul, false, &ops)?),
            "mulh" => push!(muldiv(MulOp::Mulh, false, &ops)?),
            "mulhsu" => push!(muldiv(MulOp::Mulhsu, false, &ops)?),
            "mulhu" => push!(muldiv(MulOp::Mulhu, false, &ops)?),
            "div" => push!(muldiv(MulOp::Div, false, &ops)?),
            "divu" => push!(muldiv(MulOp::Divu, false, &ops)?),
            "rem" => push!(muldiv(MulOp::Rem, false, &ops)?),
            "remu" => push!(muldiv(MulOp::Remu, false, &ops)?),
            "mulw" => push!(muldiv(MulOp::Mul, true, &ops)?),
            "divw" => push!(muldiv(MulOp::Div, true, &ops)?),
            "divuw" => push!(muldiv(MulOp::Divu, true, &ops)?),
            "remw" => push!(muldiv(MulOp::Rem, true, &ops)?),
            "remuw" => push!(muldiv(MulOp::Remu, true, &ops)?),

            // --- pseudo ---
            "nop" => {
                nops(0)?;
                push!(Instr::OpImm {
                    op: AluOp::Add,
                    rd: 0,
                    rs1: 0,
                    imm: 0,
                    word: false
                });
            }
            "mv" => {
                nops(2)?;
                push!(Instr::OpImm {
                    op: AluOp::Add,
                    rd: reg(0)?,
                    rs1: reg(1)?,
                    imm: 0,
                    word: false
                });
            }
            "not" => {
                nops(2)?;
                push!(Instr::OpImm {
                    op: AluOp::Xor,
                    rd: reg(0)?,
                    rs1: reg(1)?,
                    imm: -1,
                    word: false
                });
            }
            "neg" => {
                nops(2)?;
                push!(Instr::Op {
                    op: AluOp::Sub,
                    rd: reg(0)?,
                    rs1: 0,
                    rs2: reg(1)?,
                    word: false
                });
            }
            "seqz" => {
                nops(2)?;
                push!(Instr::OpImm {
                    op: AluOp::Sltu,
                    rd: reg(0)?,
                    rs1: reg(1)?,
                    imm: 1,
                    word: false
                });
            }
            "snez" => {
                nops(2)?;
                push!(Instr::Op {
                    op: AluOp::Sltu,
                    rd: reg(0)?,
                    rs1: 0,
                    rs2: reg(1)?,
                    word: false
                });
            }
            "li" => {
                nops(2)?;
                let rd = reg(0)?;
                let v = imm(1)?;
                if (-2048..=2047).contains(&v) {
                    push!(Instr::OpImm {
                        op: AluOp::Add,
                        rd,
                        rs1: 0,
                        imm: v,
                        word: false
                    });
                } else if (-(1 << 31)..(1 << 31)).contains(&v) {
                    // lui + addiw with carry correction.
                    let lo = (v << 52) >> 52; // sign-extended low 12
                    let hi = v - lo;
                    push!(Instr::Lui {
                        rd,
                        imm: ((hi as u32) as i32) as i64
                    });
                    if lo != 0 {
                        push!(Instr::OpImm {
                            op: AluOp::Add,
                            rd,
                            rs1: rd,
                            imm: lo,
                            word: true
                        });
                    }
                } else {
                    return Err(err(line, format!("li immediate {v} beyond 32-bit support")));
                }
            }
            "ecall" => {
                nops(0)?;
                push!(Instr::Ecall);
            }
            "ebreak" => {
                nops(0)?;
                push!(Instr::Ebreak);
            }
            "fence" => {
                push!(Instr::Fence);
            }

            // --- RVV subset ---
            "vsetvli" => {
                nops(3)?;
                let sew = match ops[2].trim() {
                    "e8" => 8,
                    "e16" => 16,
                    "e32" => 32,
                    "e64" => 64,
                    other => return Err(err(line, format!("bad SEW '{other}'"))),
                };
                push!(Instr::Vector(VInstr::Vsetvli {
                    rd: reg(0)?,
                    rs1: reg(1)?,
                    sew
                }));
            }
            "vle8.v" | "vle16.v" | "vle32.v" | "vle64.v" | "vse8.v" | "vse16.v" | "vse32.v"
            | "vse64.v" => {
                nops(2)?;
                let width: u16 = mnemonic[3..mnemonic.len() - 2]
                    .parse()
                    .expect("mnemonic carries its width");
                let v = parse_vreg(ops[0]).ok_or_else(|| err(line, "bad vector register"))?;
                let (off, rs1) = parse_mem_operand(ops[1], line)?;
                if off != 0 {
                    return Err(err(line, "vector loads/stores take (reg) with no offset"));
                }
                if mnemonic.starts_with("vle") {
                    push!(Instr::Vector(VInstr::Vle { width, vd: v, rs1 }));
                } else {
                    push!(Instr::Vector(VInstr::Vse { width, vs3: v, rs1 }));
                }
            }
            "vadd.vv" | "vmax.vv" | "vmseq.vv" | "vmsne.vv" => {
                nops(3)?;
                let vd = parse_vreg(ops[0]).ok_or_else(|| err(line, "bad vd"))?;
                let vs2 = parse_vreg(ops[1]).ok_or_else(|| err(line, "bad vs2"))?;
                let vs1 = parse_vreg(ops[2]).ok_or_else(|| err(line, "bad vs1"))?;
                push!(Instr::Vector(match mnemonic {
                    "vadd.vv" => VInstr::VaddVV { vd, vs2, vs1 },
                    "vmax.vv" => VInstr::VmaxVV { vd, vs2, vs1 },
                    "vmseq.vv" => VInstr::VmseqVV { vd, vs2, vs1 },
                    _ => VInstr::VmsneVV { vd, vs2, vs1 },
                }));
            }
            "vadd.vi" => {
                nops(3)?;
                let vd = parse_vreg(ops[0]).ok_or_else(|| err(line, "bad vd"))?;
                let vs2 = parse_vreg(ops[1]).ok_or_else(|| err(line, "bad vs2"))?;
                let v = imm(2)?;
                if !(-16..=15).contains(&v) {
                    return Err(err(line, "vadd.vi immediate must fit 5 bits"));
                }
                push!(Instr::Vector(VInstr::VaddVI {
                    vd,
                    vs2,
                    imm: v as i8
                }));
            }
            "vadd.vx" | "vmslt.vx" | "vmsgt.vx" => {
                nops(3)?;
                let vd = parse_vreg(ops[0]).ok_or_else(|| err(line, "bad vd"))?;
                let vs2 = parse_vreg(ops[1]).ok_or_else(|| err(line, "bad vs2"))?;
                let rs1 = reg(2)?;
                push!(Instr::Vector(match mnemonic {
                    "vadd.vx" => VInstr::VaddVX { vd, vs2, rs1 },
                    "vmslt.vx" => VInstr::VmsltVX { vd, vs2, rs1 },
                    _ => VInstr::VmsgtVX { vd, vs2, rs1 },
                }));
            }
            "vmerge.vxm" => {
                nops(4)?;
                let vd = parse_vreg(ops[0]).ok_or_else(|| err(line, "bad vd"))?;
                let vs2 = parse_vreg(ops[1]).ok_or_else(|| err(line, "bad vs2"))?;
                let rs1 = reg(2)?;
                if parse_vreg(ops[3]) != Some(0) {
                    return Err(err(line, "vmerge mask must be v0"));
                }
                push!(Instr::Vector(VInstr::VmergeVXM { vd, vs2, rs1 }));
            }
            "vmv.v.x" => {
                nops(2)?;
                let vd = parse_vreg(ops[0]).ok_or_else(|| err(line, "bad vd"))?;
                push!(Instr::Vector(VInstr::VmvVX { vd, rs1: reg(1)? }));
            }
            "vfirst.m" => {
                nops(2)?;
                let vs2 = parse_vreg(ops[1]).ok_or_else(|| err(line, "bad vs2"))?;
                push!(Instr::Vector(VInstr::VfirstM { rd: reg(0)?, vs2 }));
            }
            "vid.v" => {
                nops(1)?;
                let vd = parse_vreg(ops[0]).ok_or_else(|| err(line, "bad vd"))?;
                push!(Instr::Vector(VInstr::VidV { vd }));
            }
            other => return Err(err(line, format!("unknown mnemonic '{other}'"))),
        }
    }

    // Second pass: resolve labels.
    let mut instrs = Vec::with_capacity(pending.len());
    for (idx, p) in pending.iter().enumerate() {
        let here = (idx * 4) as i64;
        let resolve = |label: &str, line: usize| -> Result<i64, AsmError> {
            labels
                .get(label)
                .map(|&addr| addr as i64 - here)
                .ok_or_else(|| err(line, format!("undefined label '{label}'")))
        };
        instrs.push(match p {
            Pending::Ready(i) => *i,
            Pending::Jal { rd, label, line } => Instr::Jal {
                rd: *rd,
                offset: resolve(label, *line)?,
            },
            Pending::Branch {
                op,
                rs1,
                rs2,
                label,
                line,
            } => Instr::Branch {
                op: *op,
                rs1: *rs1,
                rs2: *rs2,
                offset: resolve(label, *line)?,
            },
        });
    }

    Ok(Program { instrs, labels })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Instr;

    #[test]
    fn registers_by_both_names() {
        assert_eq!(parse_reg("x0"), Some(0));
        assert_eq!(parse_reg("zero"), Some(0));
        assert_eq!(parse_reg("a0"), Some(10));
        assert_eq!(parse_reg("t6"), Some(31));
        assert_eq!(parse_reg("x31"), Some(31));
        assert_eq!(parse_reg("x32"), None);
        assert_eq!(parse_reg("q1"), None);
    }

    #[test]
    fn basic_program() {
        let p =
            assemble("start:\n  addi a0, zero, 5\n  addi a1, zero, 7\n  add a0, a0, a1\n  ecall\n")
                .unwrap();
        assert_eq!(p.instrs.len(), 4);
        assert_eq!(p.labels["start"], 0);
        assert_eq!(
            p.instrs[2],
            Instr::Op {
                op: crate::isa::AluOp::Add,
                rd: 10,
                rs1: 10,
                rs2: 11,
                word: false
            }
        );
    }

    #[test]
    fn labels_and_branches() {
        let p =
            assemble("  li t0, 3\nloop:\n  addi t0, t0, -1\n  bnez t0, loop\n  ecall\n").unwrap();
        // bnez at index 2 -> loop at index 1: offset -4.
        match p.instrs[2] {
            Instr::Branch { offset, .. } => assert_eq!(offset, -4),
            ref other => panic!("expected branch, got {other:?}"),
        }
    }

    #[test]
    fn li_expansion() {
        // Small immediate: one instruction.
        assert_eq!(assemble("li a0, 100\n").unwrap().instrs.len(), 1);
        // Large immediate: lui + addiw.
        let p = assemble("li a0, 0x12345678\n").unwrap();
        assert_eq!(p.instrs.len(), 2);
        // Page-aligned large immediate: just lui.
        let p = assemble("li a0, 0x12345000\n").unwrap();
        assert_eq!(p.instrs.len(), 1);
        // Negative low half triggers carry correction.
        let p = assemble("li a0, 0x12345FFF\n").unwrap();
        assert_eq!(p.instrs.len(), 2);
    }

    #[test]
    fn memory_operands() {
        let p = assemble("  lw a0, -8(sp)\n  sd a1, 16(s0)\n  lbu t0, (a2)\n").unwrap();
        assert_eq!(
            p.instrs[0],
            Instr::Load {
                op: crate::isa::LoadOp::W,
                rd: 10,
                rs1: 2,
                offset: -8
            }
        );
        assert_eq!(
            p.instrs[2],
            Instr::Load {
                op: crate::isa::LoadOp::Bu,
                rd: 5,
                rs1: 12,
                offset: 0
            }
        );
    }

    #[test]
    fn comments_and_blanks() {
        let p = assemble("# header\n\n  nop # trailing\n  ; whole line\n  ecall\n").unwrap();
        assert_eq!(p.instrs.len(), 2);
    }

    #[test]
    fn swapped_branch_pseudos() {
        let p = assemble("top:\n  bgt a0, a1, top\n  ble a2, a3, top\n").unwrap();
        match p.instrs[0] {
            Instr::Branch {
                op: crate::isa::BranchOp::Lt,
                rs1,
                rs2,
                ..
            } => {
                assert_eq!((rs1, rs2), (11, 10), "bgt swaps operands");
            }
            ref other => panic!("{other:?}"),
        }
        match p.instrs[1] {
            Instr::Branch {
                op: crate::isa::BranchOp::Ge,
                rs1,
                rs2,
                ..
            } => {
                assert_eq!((rs1, rs2), (13, 12));
            }
            ref other => panic!("{other:?}"),
        }
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = assemble("  nop\n  bogus a0\n").unwrap_err();
        assert_eq!(e.line, 2);
        let e = assemble("  j nowhere\n").unwrap_err();
        assert!(e.message.contains("undefined label"));
        let e = assemble("dup:\ndup:\n").unwrap_err();
        assert!(e.message.contains("duplicate"));
    }

    #[test]
    fn everything_encodes_and_decodes() {
        let text = "
main:
  li   t0, 0x7FF
  li   t1, 123456
  mv   a0, t0
  slli a1, a0, 3
  mulw a2, a0, a1
  divu a3, a2, a0
  lw   t2, 4(sp)
  sw   t2, 8(sp)
  beq  a0, a1, main
  jal  ra, main
  ret
  ecall
";
        let p = assemble(text).unwrap();
        for i in &p.instrs {
            let enc = i.encode();
            assert_eq!(Instr::decode(enc), Some(*i), "{i:?}");
        }
    }
}
