//! Hand-written RISC-V WFA kernels, run on the interpreter.
//!
//! This is the instruction-accurate version of the paper's CPU baseline
//! ("a publicly available C implementation of the WFA executed on the
//! RISC-V CPU of the SoC"): a score-only exact gap-affine WFA with the
//! chip's penalties (4, 6, 2), written directly in RV64IM assembly.
//!
//! Kernel memory map (flat RAM):
//!
//! * `0x010000` — sequence `a` bytes;
//! * `0x020000` — sequence `b` bytes;
//! * `0x100000` — wavefront ring: 16 score slots of 3 arrays (M, I, D),
//!   each 512 × i32 (diagonals −255..=255 around center index 255), plus a
//!   17th always-NULL slot that stands in for "no wavefront at this score".
//!
//! The kernel supports scores up to 512 and `|m − n| ≤ 254`; beyond that it
//! returns −1 (mirroring the accelerator's Success = 0 envelope, scaled to
//! test sizes). Results are validated against `wfa-core`/SWG in the tests.

use crate::asm::{assemble, Program};
use crate::cpu::{ExecStats, Machine, Stop};
use std::sync::OnceLock;

/// Base of sequence `a` in kernel RAM.
pub const SEQ_A_BASE: u64 = 0x1_0000;
/// Base of sequence `b` in kernel RAM.
pub const SEQ_B_BASE: u64 = 0x2_0000;
/// Longest sequence the kernel memory map accepts.
pub const MAX_KERNEL_SEQ: usize = 0x1_0000;

/// The scalar score-only WFA kernel (penalties x=4, o=6, e=2).
pub const WFA_SCALAR_ASM: &str = r"
# WFA score-only kernel, gap-affine (x=4, o=6, e=2).
# in:  a0=&a  a1=n  a2=&b  a3=m      out: a0 = score or -1
main:
  li   s0, 0x100000        # wavefront ring base
  li   s9, -1073741824     # OFFSET_NULL
  li   s8, 255             # center index (KCAP)
  sub  s2, a3, a1          # kend = m - n
  li   t0, 254
  sub  t1, zero, t0
  bgt  s2, t0, fail        # |kend| beyond the supported band
  blt  s2, t1, fail

  # clear the always-NULL slot (slot 16 at ring + 16*0x1800)
  li   t0, 0x118000
  li   t1, 1536
null_clear:
  sw   s9, 0(t0)
  addi t0, t0, 4
  addi t1, t1, -1
  bnez t1, null_clear

  # ---- score 0 ----
  li   s1, 0
  mv   s4, s0               # slot 0
  mv   t0, s4
  li   t1, 1536
s0_clear:
  sw   s9, 0(t0)
  addi t0, t0, 4
  addi t1, t1, -1
  bnez t1, s0_clear
  # extend from (0, 0)
  li   t2, 0                # i
  li   t3, 0                # j
s0_ext:
  bge  t2, a1, s0_ext_done
  bge  t3, a3, s0_ext_done
  add  t4, a0, t2
  lbu  t4, 0(t4)
  add  t5, a2, t3
  lbu  t5, 0(t5)
  bne  t4, t5, s0_ext_done
  addi t2, t2, 1
  addi t3, t3, 1
  j    s0_ext
s0_ext_done:
  slli t0, s8, 2
  add  t0, t0, s4
  sw   t3, 0(t0)            # M[0][k=0] = j
  bnez s2, score_loop       # terminated only if kend == 0 ...
  bne  t3, a3, score_loop   # ... and offset reached m
  li   a0, 0
  ecall

# ================= per-score loop =================
score_loop:
  addi s1, s1, 1
  li   t0, 512
  bgt  s1, t0, fail         # hardware-style Score_max envelope
  # d = min(s, 254)
  li   t0, 254
  mv   s3, s1
  ble  s3, t0, d_ok
  mv   s3, t0
d_ok:
  # dst slot base: ring + (s & 15) * 0x1800
  andi t0, s1, 15
  slli t1, t0, 12
  slli t2, t0, 11
  add  t1, t1, t2
  add  s4, s0, t1
  # clear dst over center±cl, cl = min(s+9, 255)
  addi t0, s1, 9
  li   t1, 255
  ble  t0, t1, cl_ok
  mv   t0, t1
cl_ok:
  sub  t1, s8, t0
  slli t1, t1, 2
  add  t2, s4, t1           # &M[center-cl]
  li   t4, 0x800
  add  t5, t2, t4           # &I[...]
  add  t4, t5, t4           # &D[...]
  slli t3, t0, 1
  addi t3, t3, 1            # count = 2cl+1
clear_loop:
  sw   s9, 0(t2)
  sw   s9, 0(t5)
  sw   s9, 0(t4)
  addi t2, t2, 4
  addi t5, t5, 4
  addi t4, t4, 4
  addi t3, t3, -1
  bnez t3, clear_loop

  # source slot bases (the NULL slot when the score is too small)
  li   s5, 0x118000         # M[s-4]
  li   s6, 0x118000         # M[s-8]
  li   s7, 0x118000         # I/D[s-2]
  li   t0, 4
  blt  s1, t0, skip_sub
  addi t1, s1, -4
  andi t1, t1, 15
  slli t2, t1, 12
  slli t3, t1, 11
  add  t2, t2, t3
  add  s5, s0, t2
skip_sub:
  li   t0, 8
  blt  s1, t0, skip_open
  addi t1, s1, -8
  andi t1, t1, 15
  slli t2, t1, 12
  slli t3, t1, 11
  add  t2, t2, t3
  add  s6, s0, t2
skip_open:
  li   t0, 2
  blt  s1, t0, skip_ext
  addi t1, s1, -2
  andi t1, t1, 15
  slli t2, t1, 12
  slli t3, t1, 11
  add  t2, t2, t3
  add  s7, s0, t2
skip_ext:

  # ---- compute the frame column, k = -d..d ----
  sub  t0, s8, s3
  slli t0, t0, 2            # byte offset of idx0
  add  a4, s4, t0           # dst M
  li   t1, 0x800
  add  s10, a4, t1          # dst I
  add  s11, s10, t1         # dst D
  add  a5, s5, t0           # M[s-4][k]
  add  a6, s6, t0
  addi a6, a6, -4           # M[s-8][k-1]; [k+1] read at 8(a6)
  add  a7, s7, t0
  add  a7, a7, t1
  addi a7, a7, -4           # I[s-2][k-1]
  add  t6, s7, t0
  slli t2, t1, 1
  add  t6, t6, t2
  addi t6, t6, 4            # D[s-2][k+1]
  sub  gp, zero, s3         # k = -d
  slli tp, s3, 1
  addi tp, tp, 1            # iterations
comp_loop:
  # I[s][k] = max(validate(M_open[k-1]+1), validate(I_ext[k-1]+1))
  lw   t0, 0(a6)
  addi t0, t0, 1
  mv   t2, s9
  blt  t0, zero, i_open_bad
  bgt  t0, a3, i_open_bad
  sub  t1, t0, gp
  blt  t1, zero, i_open_bad
  bgt  t1, a1, i_open_bad
  mv   t2, t0
i_open_bad:
  lw   t0, 0(a7)
  addi t0, t0, 1
  blt  t0, zero, i_ext_bad
  bgt  t0, a3, i_ext_bad
  sub  t1, t0, gp
  blt  t1, zero, i_ext_bad
  bgt  t1, a1, i_ext_bad
  bge  t2, t0, i_ext_bad
  mv   t2, t0
i_ext_bad:
  sw   t2, 0(s10)
  mv   t3, t2               # running max for M
  # D[s][k] = max(validate(M_open[k+1]), validate(D_ext[k+1]))
  lw   t0, 8(a6)
  mv   t2, s9
  blt  t0, zero, d_open_bad
  bgt  t0, a3, d_open_bad
  sub  t1, t0, gp
  blt  t1, zero, d_open_bad
  bgt  t1, a1, d_open_bad
  mv   t2, t0
d_open_bad:
  lw   t0, 0(t6)
  blt  t0, zero, d_ext_bad
  bgt  t0, a3, d_ext_bad
  sub  t1, t0, gp
  blt  t1, zero, d_ext_bad
  bgt  t1, a1, d_ext_bad
  bge  t2, t0, d_ext_bad
  mv   t2, t0
d_ext_bad:
  sw   t2, 0(s11)
  bge  t3, t2, m_skip_d
  mv   t3, t2
m_skip_d:
  # M[s][k] = max(I, D, validate(M_sub[k]+1))
  lw   t0, 0(a5)
  addi t0, t0, 1
  blt  t0, zero, m_sub_bad
  bgt  t0, a3, m_sub_bad
  sub  t1, t0, gp
  blt  t1, zero, m_sub_bad
  bgt  t1, a1, m_sub_bad
  bge  t3, t0, m_sub_bad
  mv   t3, t0
m_sub_bad:
  sw   t3, 0(a4)
  addi a4, a4, 4
  addi s10, s10, 4
  addi s11, s11, 4
  addi a5, a5, 4
  addi a6, a6, 4
  addi a7, a7, 4
  addi t6, t6, 4
  addi gp, gp, 1
  addi tp, tp, -1
  bnez tp, comp_loop

  # ---- extend M[s], k = -d..d ----
  sub  t0, s8, s3
  slli t0, t0, 2
  add  a4, s4, t0
  sub  gp, zero, s3
  slli tp, s3, 1
  addi tp, tp, 1
ext_loop:
  lw   t0, 0(a4)
  blt  t0, zero, ext_next
  sub  t2, t0, gp           # i
  mv   t3, t0               # j
ext_inner:
  bge  t2, a1, ext_store
  bge  t3, a3, ext_store
  add  t4, a0, t2
  lbu  t4, 0(t4)
  add  t5, a2, t3
  lbu  t5, 0(t5)
  bne  t4, t5, ext_store
  addi t2, t2, 1
  addi t3, t3, 1
  j    ext_inner
ext_store:
  sw   t3, 0(a4)
ext_next:
  addi a4, a4, 4
  addi gp, gp, 1
  addi tp, tp, -1
  bnez tp, ext_loop

  # ---- termination: M[s][kend] == m ? ----
  sub  t0, zero, s3
  blt  s2, t0, score_loop
  bgt  s2, s3, score_loop
  add  t1, s2, s8
  slli t1, t1, 2
  add  t1, t1, s4
  lw   t1, 0(t1)
  bne  t1, a3, score_loop
  mv   a0, s1
  ecall

fail:
  li   a0, -1
  ecall
";

/// The assembled kernel (cached).
pub fn wfa_scalar_program() -> &'static Program {
    static PROG: OnceLock<Program> = OnceLock::new();
    PROG.get_or_init(|| assemble(WFA_SCALAR_ASM).expect("the bundled kernel must assemble"))
}

/// The vectorized score-only WFA kernel: the Extend phase compares 16 bases
/// per `vmsne.vv`/`vfirst.m` pair (the RVV analogue of the paper's "CPU
/// vector code"), and wavefront clearing streams NULLs with `vse32.v`.
/// The compute recurrence stays scalar, as in WFA vector implementations
/// where extend dominates.
pub const WFA_VECTOR_ASM: &str = r"
# WFA score-only kernel, vectorized extend (x=4, o=6, e=2).
# in:  a0=&a  a1=n  a2=&b  a3=m      out: a0 = score or -1
main:
  li   s0, 0x100000
  li   s9, -1073741824
  li   s8, 255
  sub  s2, a3, a1
  li   t0, 254
  sub  t1, zero, t0
  bgt  s2, t0, fail
  blt  s2, t1, fail

  # clear the always-NULL slot with vector stores
  li   t0, 0x118000
  li   t1, 1536
null_clear:
  vsetvli t2, t1, e32
  vmv.v.x v3, s9
  vse32.v v3, (t0)
  slli t3, t2, 2
  add  t0, t0, t3
  sub  t1, t1, t2
  bnez t1, null_clear

  # ---- score 0 ----
  li   s1, 0
  mv   s4, s0
  mv   t0, s4
  li   t1, 1536
s0_clear:
  vsetvli t2, t1, e32
  vmv.v.x v3, s9
  vse32.v v3, (t0)
  slli t3, t2, 2
  add  t0, t0, t3
  sub  t1, t1, t2
  bnez t1, s0_clear
  # vectorized extend from (0, 0)
  li   t2, 0
  li   t3, 0
s0_ext:
  sub  t4, a1, t2
  sub  t5, a3, t3
  blt  t4, t5, s0_rem_ok
  mv   t4, t5
s0_rem_ok:
  beqz t4, s0_ext_done
  vsetvli t5, t4, e8
  add  s10, a0, t2
  vle8.v v1, (s10)
  add  s11, a2, t3
  vle8.v v2, (s11)
  vmsne.vv v0, v1, v2
  vfirst.m s10, v0
  bltz s10, s0_all_match
  add  t2, t2, s10
  add  t3, t3, s10
  j    s0_ext_done
s0_all_match:
  add  t2, t2, t5
  add  t3, t3, t5
  j    s0_ext
s0_ext_done:
  slli t0, s8, 2
  add  t0, t0, s4
  sw   t3, 0(t0)
  bnez s2, score_loop
  bne  t3, a3, score_loop
  li   a0, 0
  ecall

# ================= per-score loop =================
score_loop:
  addi s1, s1, 1
  li   t0, 512
  bgt  s1, t0, fail
  li   t0, 254
  mv   s3, s1
  ble  s3, t0, d_ok
  mv   s3, t0
d_ok:
  andi t0, s1, 15
  slli t1, t0, 12
  slli t2, t0, 11
  add  t1, t1, t2
  add  s4, s0, t1
  # clear dst over center±cl with vector stores
  addi t0, s1, 9
  li   t1, 255
  ble  t0, t1, cl_ok
  mv   t0, t1
cl_ok:
  sub  t1, s8, t0
  slli t1, t1, 2
  add  t2, s4, t1
  li   t4, 0x800
  add  t5, t2, t4
  add  t4, t5, t4
  slli t3, t0, 1
  addi t3, t3, 1
clear_loop:
  vsetvli t0, t3, e32
  vmv.v.x v3, s9
  vse32.v v3, (t2)
  vse32.v v3, (t5)
  vse32.v v3, (t4)
  slli t1, t0, 2
  add  t2, t2, t1
  add  t5, t5, t1
  add  t4, t4, t1
  sub  t3, t3, t0
  bnez t3, clear_loop

  li   s5, 0x118000
  li   s6, 0x118000
  li   s7, 0x118000
  li   t0, 4
  blt  s1, t0, skip_sub
  addi t1, s1, -4
  andi t1, t1, 15
  slli t2, t1, 12
  slli t3, t1, 11
  add  t2, t2, t3
  add  s5, s0, t2
skip_sub:
  li   t0, 8
  blt  s1, t0, skip_open
  addi t1, s1, -8
  andi t1, t1, 15
  slli t2, t1, 12
  slli t3, t1, 11
  add  t2, t2, t3
  add  s6, s0, t2
skip_open:
  li   t0, 2
  blt  s1, t0, skip_ext
  addi t1, s1, -2
  andi t1, t1, 15
  slli t2, t1, 12
  slli t3, t1, 11
  add  t2, t2, t3
  add  s7, s0, t2
skip_ext:

  # ---- compute the frame column (scalar), k = -d..d ----
  sub  t0, s8, s3
  slli t0, t0, 2
  add  a4, s4, t0
  li   t1, 0x800
  add  s10, a4, t1
  add  s11, s10, t1
  add  a5, s5, t0
  add  a6, s6, t0
  addi a6, a6, -4
  add  a7, s7, t0
  add  a7, a7, t1
  addi a7, a7, -4
  add  t6, s7, t0
  slli t2, t1, 1
  add  t6, t6, t2
  addi t6, t6, 4
  sub  gp, zero, s3
  slli tp, s3, 1
  addi tp, tp, 1
comp_loop:
  lw   t0, 0(a6)
  addi t0, t0, 1
  mv   t2, s9
  blt  t0, zero, i_open_bad
  bgt  t0, a3, i_open_bad
  sub  t1, t0, gp
  blt  t1, zero, i_open_bad
  bgt  t1, a1, i_open_bad
  mv   t2, t0
i_open_bad:
  lw   t0, 0(a7)
  addi t0, t0, 1
  blt  t0, zero, i_ext_bad
  bgt  t0, a3, i_ext_bad
  sub  t1, t0, gp
  blt  t1, zero, i_ext_bad
  bgt  t1, a1, i_ext_bad
  bge  t2, t0, i_ext_bad
  mv   t2, t0
i_ext_bad:
  sw   t2, 0(s10)
  mv   t3, t2
  lw   t0, 8(a6)
  mv   t2, s9
  blt  t0, zero, d_open_bad
  bgt  t0, a3, d_open_bad
  sub  t1, t0, gp
  blt  t1, zero, d_open_bad
  bgt  t1, a1, d_open_bad
  mv   t2, t0
d_open_bad:
  lw   t0, 0(t6)
  blt  t0, zero, d_ext_bad
  bgt  t0, a3, d_ext_bad
  sub  t1, t0, gp
  blt  t1, zero, d_ext_bad
  bgt  t1, a1, d_ext_bad
  bge  t2, t0, d_ext_bad
  mv   t2, t0
d_ext_bad:
  sw   t2, 0(s11)
  bge  t3, t2, m_skip_d
  mv   t3, t2
m_skip_d:
  lw   t0, 0(a5)
  addi t0, t0, 1
  blt  t0, zero, m_sub_bad
  bgt  t0, a3, m_sub_bad
  sub  t1, t0, gp
  blt  t1, zero, m_sub_bad
  bgt  t1, a1, m_sub_bad
  bge  t3, t0, m_sub_bad
  mv   t3, t0
m_sub_bad:
  sw   t3, 0(a4)
  addi a4, a4, 4
  addi s10, s10, 4
  addi s11, s11, 4
  addi a5, a5, 4
  addi a6, a6, 4
  addi a7, a7, 4
  addi t6, t6, 4
  addi gp, gp, 1
  addi tp, tp, -1
  bnez tp, comp_loop

  # ---- vectorized extend of M[s], k = -d..d ----
  sub  t0, s8, s3
  slli t0, t0, 2
  add  a4, s4, t0
  sub  gp, zero, s3
  slli tp, s3, 1
  addi tp, tp, 1
ext_loop:
  lw   t0, 0(a4)
  blt  t0, zero, ext_next
  sub  t2, t0, gp
  mv   t3, t0
ext_vec:
  sub  t4, a1, t2
  sub  t5, a3, t3
  blt  t4, t5, rem_ok
  mv   t4, t5
rem_ok:
  beqz t4, ext_store
  vsetvli t5, t4, e8
  add  s10, a0, t2
  vle8.v v1, (s10)
  add  s11, a2, t3
  vle8.v v2, (s11)
  vmsne.vv v0, v1, v2
  vfirst.m s10, v0
  bltz s10, all_match
  add  t2, t2, s10
  add  t3, t3, s10
  j    ext_store
all_match:
  add  t2, t2, t5
  add  t3, t3, t5
  j    ext_vec
ext_store:
  sw   t3, 0(a4)
ext_next:
  addi a4, a4, 4
  addi gp, gp, 1
  addi tp, tp, -1
  bnez tp, ext_loop

  # ---- termination ----
  sub  t0, zero, s3
  blt  s2, t0, score_loop
  bgt  s2, s3, score_loop
  add  t1, s2, s8
  slli t1, t1, 2
  add  t1, t1, s4
  lw   t1, 0(t1)
  bne  t1, a3, score_loop
  mv   a0, s1
  ecall

fail:
  li   a0, -1
  ecall
";

/// The assembled vector kernel (cached).
fn wfa_vector_program() -> &'static Program {
    static PROG: OnceLock<Program> = OnceLock::new();
    PROG.get_or_init(|| assemble(WFA_VECTOR_ASM).expect("the bundled vector kernel must assemble"))
}

/// Replace exactly one occurrence of `pat` in `text` — the templating
/// primitive for re-penaltying the kernel sources. Zero or multiple matches
/// mean the kernel text drifted out from under the template and must fail
/// loudly rather than silently mis-patching a lookback.
fn replace_once(text: &str, pat: &str, with: &str) -> String {
    let first = text.find(pat).expect("kernel template anchor missing");
    assert!(
        text[first + pat.len()..].find(pat).is_none(),
        "kernel template anchor is not unique: {pat:?}"
    );
    text.replacen(pat, with, 1)
}

/// Re-template a kernel's assembly for penalties `(x, o, e)`.
///
/// The kernel encodes penalties purely as wavefront-ring *lookbacks*:
/// mismatch reads `M[s-x]`, gap-open reads `M[s-(o+e)]`, gap-extend reads
/// `I/D[s-e]`, and the per-score clear margin must cover the deepest
/// lookback. All three lookbacks must fit the 16-slot ring (1..=15).
fn template_kernel(asm: &str, x: u32, o: u32, e: u32) -> String {
    let (sub, open, ext) = (x, o + e, e);
    for lb in [sub, open, ext] {
        assert!(
            (1..=15).contains(&lb),
            "lookback {lb} outside the kernel's 16-slot ring (x={x}, o={o}, e={e})"
        );
    }
    let margin = sub.max(open) + 1;
    let mut s = asm.to_string();
    // Each anchor is a full li/branch/addi block including its unique
    // skip_* label, so substituted values can never collide with another
    // anchor (e.g. x = 2 must not capture the extend lookback's `li`).
    s = replace_once(
        &s,
        "  li   t0, 4\n  blt  s1, t0, skip_sub\n  addi t1, s1, -4\n",
        &format!("  li   t0, {sub}\n  blt  s1, t0, skip_sub\n  addi t1, s1, -{sub}\n"),
    );
    s = replace_once(
        &s,
        "  li   t0, 8\n  blt  s1, t0, skip_open\n  addi t1, s1, -8\n",
        &format!("  li   t0, {open}\n  blt  s1, t0, skip_open\n  addi t1, s1, -{open}\n"),
    );
    s = replace_once(
        &s,
        "  li   t0, 2\n  blt  s1, t0, skip_ext\n  addi t1, s1, -2\n",
        &format!("  li   t0, {ext}\n  blt  s1, t0, skip_ext\n  addi t1, s1, -{ext}\n"),
    );
    s = replace_once(
        &s,
        "  addi t0, s1, 9\n",
        &format!("  addi t0, s1, {margin}\n"),
    );
    s
}

/// The scalar kernel's assembly, re-templated for penalties `(x, o, e)`.
fn wfa_scalar_asm_for(x: u32, o: u32, e: u32) -> String {
    template_kernel(WFA_SCALAR_ASM, x, o, e)
}

/// The vector kernel's assembly, re-templated for penalties `(x, o, e)`.
fn wfa_vector_asm_for(x: u32, o: u32, e: u32) -> String {
    template_kernel(WFA_VECTOR_ASM, x, o, e)
}

/// Assemble the scalar kernel for penalties `(x, o, e)`. Callers that run
/// many pairs should hold the returned [`Program`] and feed it to
/// [`run_wfa_program`] instead of re-assembling per pair.
pub fn wfa_scalar_program_for(x: u32, o: u32, e: u32) -> Program {
    assemble(&wfa_scalar_asm_for(x, o, e)).expect("the templated kernel must assemble")
}

/// Assemble the vector kernel for penalties `(x, o, e)`.
pub fn wfa_vector_program_for(x: u32, o: u32, e: u32) -> Program {
    assemble(&wfa_vector_asm_for(x, o, e)).expect("the templated vector kernel must assemble")
}

/// Result of a kernel run.
#[derive(Debug, Clone, Copy)]
pub struct KernelRun {
    /// The alignment score, or `None` when the kernel reported failure
    /// (score/band envelope exceeded).
    pub score: Option<u32>,
    /// Execution statistics (instructions, modeled Sargantana cycles).
    pub stats: ExecStats,
}

/// Run a WFA kernel program (scalar or vector, any templated penalties) on
/// a pair of sequences, on a fresh machine.
pub fn run_wfa_program(program: &Program, a: &[u8], b: &[u8]) -> KernelRun {
    assert!(
        a.len() <= MAX_KERNEL_SEQ && b.len() <= MAX_KERNEL_SEQ,
        "sequence exceeds the kernel memory map"
    );
    let mut m = Machine::new(2 << 20);
    m.ram[SEQ_A_BASE as usize..SEQ_A_BASE as usize + a.len()].copy_from_slice(a);
    m.ram[SEQ_B_BASE as usize..SEQ_B_BASE as usize + b.len()].copy_from_slice(b);
    m.set_reg(10, SEQ_A_BASE);
    m.set_reg(11, a.len() as u64);
    m.set_reg(12, SEQ_B_BASE);
    m.set_reg(13, b.len() as u64);
    let stop = m.run(program, 500_000_000);
    assert_eq!(
        stop,
        Stop::Ecall,
        "kernel must halt via ecall, got {stop:?}"
    );
    let a0 = m.reg(10) as i64;
    KernelRun {
        score: (a0 >= 0).then_some(a0 as u32),
        stats: m.stats,
    }
}

/// Run the scalar WFA kernel (default penalties) on a pair of sequences.
pub fn run_wfa_scalar(a: &[u8], b: &[u8]) -> KernelRun {
    run_wfa_program(wfa_scalar_program(), a, b)
}

/// Run the vectorized WFA kernel (default penalties) on a pair of sequences.
pub fn run_wfa_vector(a: &[u8], b: &[u8]) -> KernelRun {
    run_wfa_program(wfa_vector_program(), a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_assembles() {
        let p = wfa_scalar_program();
        assert!(p.instrs.len() > 100);
        // And every instruction survives a binary round-trip.
        for i in &p.instrs {
            assert_eq!(crate::isa::Instr::decode(i.encode()), Some(*i), "{i:?}");
        }
    }

    #[test]
    fn identical_sequences_score_zero() {
        let r = run_wfa_scalar(b"ACGTACGTACGT", b"ACGTACGTACGT");
        assert_eq!(r.score, Some(0));
        assert!(r.stats.instret > 0);
    }

    #[test]
    fn single_mismatch_scores_x() {
        let r = run_wfa_scalar(b"ACGTACGT", b"ACTTACGT");
        assert_eq!(r.score, Some(4));
    }

    #[test]
    fn single_insertion_scores_open() {
        let r = run_wfa_scalar(b"ACGT", b"ACGGT");
        assert_eq!(r.score, Some(8));
        let r = run_wfa_scalar(b"ACGGT", b"ACGT");
        assert_eq!(r.score, Some(8));
    }

    #[test]
    fn empty_sequences() {
        assert_eq!(run_wfa_scalar(b"", b"").score, Some(0));
        assert_eq!(run_wfa_scalar(b"", b"ACG").score, Some(12));
        assert_eq!(run_wfa_scalar(b"ACG", b"").score, Some(12));
    }

    #[test]
    fn band_envelope_failure() {
        // kend = 300 > 254: immediate failure.
        let a = vec![b'A'; 10];
        let b = vec![b'A'; 310];
        assert_eq!(run_wfa_scalar(&a, &b).score, None);
    }

    #[test]
    fn score_envelope_failure() {
        // 200 mismatches = score 800 > 512.
        let a = vec![b'A'; 200];
        let b = vec![b'T'; 200];
        assert_eq!(run_wfa_scalar(&a, &b).score, None);
    }

    #[test]
    fn templated_kernels_score_alternate_penalty_sets() {
        // (x, o, e) = (7, 4, 1): mismatch lookback 7, open 5, extend 1.
        let p = wfa_scalar_program_for(7, 4, 1);
        assert_eq!(run_wfa_program(&p, b"ACGTACGT", b"ACTTACGT").score, Some(7));
        assert_eq!(run_wfa_program(&p, b"ACGT", b"ACGGT").score, Some(5));
        assert_eq!(run_wfa_program(&p, b"", b"ACG").score, Some(7));
        let v = wfa_vector_program_for(7, 4, 1);
        assert_eq!(run_wfa_program(&v, b"ACGTACGT", b"ACTTACGT").score, Some(7));
        // And the default template reproduces the bundled kernel verbatim.
        assert_eq!(wfa_scalar_asm_for(4, 6, 2), WFA_SCALAR_ASM);
        assert_eq!(wfa_vector_asm_for(4, 6, 2), WFA_VECTOR_ASM);
    }

    #[test]
    #[should_panic(expected = "16-slot ring")]
    fn templating_rejects_lookbacks_beyond_the_ring() {
        wfa_scalar_asm_for(4, 20, 2);
    }

    #[test]
    fn cycles_grow_with_divergence() {
        let a: Vec<u8> = (0..120).map(|i| b"ACGT"[i % 4]).collect();
        let identical = run_wfa_scalar(&a, &a);
        let mut b = a.clone();
        for i in (5..110).step_by(17) {
            b[i] = if b[i] == b'A' { b'C' } else { b'A' };
        }
        let noisy = run_wfa_scalar(&a, &b);
        assert!(noisy.stats.cycles > identical.stats.cycles * 2);
    }
}
