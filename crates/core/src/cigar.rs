//! Alignment operations and CIGAR strings.
//!
//! Conventions (fixed across the whole workspace, matching the paper's Eq. 3/4
//! geometry): alignments relate sequence `a` (the *pattern*, indexed by `i`)
//! to sequence `b` (the *text*, indexed by `j`).
//!
//! * `M` (match): consumes one base of `a` and one of `b`; the bases agree.
//! * `X` (mismatch): consumes one base of each; the bases differ.
//! * `I` (insertion): consumes one base of `b` only (a base of `b` that is
//!   absent from `a`).
//! * `D` (deletion): consumes one base of `a` only.

use crate::penalties::Penalties;

/// A single alignment operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Match: `a[i] == b[j]`.
    Match,
    /// Mismatch (substitution).
    Mismatch,
    /// Insertion: consumes one base of `b`.
    Ins,
    /// Deletion: consumes one base of `a`.
    Del,
}

impl Op {
    /// The canonical single-character code (`M`, `X`, `I`, `D`).
    pub fn code(self) -> char {
        match self {
            Op::Match => 'M',
            Op::Mismatch => 'X',
            Op::Ins => 'I',
            Op::Del => 'D',
        }
    }

    /// Parse from a single-character code.
    pub fn from_code(c: char) -> Option<Op> {
        match c {
            'M' => Some(Op::Match),
            'X' => Some(Op::Mismatch),
            'I' => Some(Op::Ins),
            'D' => Some(Op::Del),
            _ => None,
        }
    }
}

/// A full alignment transcript: a sequence of operations with run-length
/// compressed storage.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Cigar {
    runs: Vec<(u32, Op)>,
}

/// Summary statistics of a CIGAR.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EditStats {
    /// Number of matched bases.
    pub matches: u64,
    /// Number of mismatched bases.
    pub mismatches: u64,
    /// Number of inserted bases (total gap length over all insertion runs).
    pub ins_bases: u64,
    /// Number of insertion runs (gap openings on the `b` side).
    pub ins_runs: u64,
    /// Number of deleted bases.
    pub del_bases: u64,
    /// Number of deletion runs.
    pub del_runs: u64,
}

impl EditStats {
    /// Total number of gap openings (`num_o` in the paper's Eq. 5).
    pub fn gap_openings(&self) -> u64 {
        self.ins_runs + self.del_runs
    }

    /// Total edits (mismatches + indel bases).
    pub fn edits(&self) -> u64 {
        self.mismatches + self.ins_bases + self.del_bases
    }
}

impl Cigar {
    /// Empty transcript.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one operation, merging with the last run when possible.
    pub fn push(&mut self, op: Op) {
        self.push_run(op, 1);
    }

    /// Append `len` copies of `op`.
    pub fn push_run(&mut self, op: Op, len: u32) {
        if len == 0 {
            return;
        }
        if let Some(last) = self.runs.last_mut() {
            if last.1 == op {
                last.0 += len;
                return;
            }
        }
        self.runs.push((len, op));
    }

    /// The run-length view `(length, op)`.
    pub fn runs(&self) -> &[(u32, Op)] {
        &self.runs
    }

    /// Iterate over individual operations.
    pub fn ops(&self) -> impl Iterator<Item = Op> + '_ {
        self.runs
            .iter()
            .flat_map(|&(len, op)| std::iter::repeat_n(op, len as usize))
    }

    /// Number of individual operations.
    pub fn len(&self) -> usize {
        self.runs.iter().map(|&(len, _)| len as usize).sum()
    }

    /// True if there are no operations.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Reverse the transcript in place (used by backtraces, which discover
    /// operations from the end of the alignment).
    pub fn reverse(&mut self) {
        self.runs.reverse();
    }

    /// Build from an uncompressed op string such as `"MMXMMIMD"`.
    pub fn from_str_ops(s: &str) -> Option<Self> {
        let mut c = Cigar::new();
        for ch in s.chars() {
            c.push(Op::from_code(ch)?);
        }
        Some(c)
    }

    /// Render as an uncompressed op string (paper Fig. 1 style).
    pub fn to_op_string(&self) -> String {
        let mut s = String::with_capacity(self.len());
        for op in self.ops() {
            s.push(op.code());
        }
        s
    }

    /// Render as a run-length CIGAR string such as `"5M1X3M"`.
    pub fn to_rle_string(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        for &(len, op) in &self.runs {
            let _ = write!(s, "{}{}", len, op.code());
        }
        s
    }

    /// Edit statistics (mismatch/gap counts used by Eq. 5).
    pub fn stats(&self) -> EditStats {
        let mut st = EditStats::default();
        for &(len, op) in &self.runs {
            let len = len as u64;
            match op {
                Op::Match => st.matches += len,
                Op::Mismatch => st.mismatches += len,
                Op::Ins => {
                    st.ins_bases += len;
                    st.ins_runs += 1;
                }
                Op::Del => {
                    st.del_bases += len;
                    st.del_runs += 1;
                }
            }
        }
        st
    }

    /// Gap-affine score of the transcript under `p` (matches cost 0).
    pub fn score(&self, p: &Penalties) -> u64 {
        let st = self.stats();
        st.mismatches * p.x as u64
            + st.gap_openings() * p.o as u64
            + (st.ins_bases + st.del_bases) * p.e as u64
    }

    /// Validate the transcript against the aligned sequences: every operation
    /// must be consistent with the bases it consumes, and the transcript must
    /// consume exactly all of `a` and all of `b`.
    pub fn check(&self, a: &[u8], b: &[u8]) -> Result<(), CigarError> {
        let (mut i, mut j) = (0usize, 0usize);
        for (pos, op) in self.ops().enumerate() {
            match op {
                Op::Match => {
                    if i >= a.len() || j >= b.len() {
                        return Err(CigarError::Overrun { pos });
                    }
                    if a[i] != b[j] {
                        return Err(CigarError::FalseMatch { pos, i, j });
                    }
                    i += 1;
                    j += 1;
                }
                Op::Mismatch => {
                    if i >= a.len() || j >= b.len() {
                        return Err(CigarError::Overrun { pos });
                    }
                    if a[i] == b[j] {
                        return Err(CigarError::FalseMismatch { pos, i, j });
                    }
                    i += 1;
                    j += 1;
                }
                Op::Ins => {
                    if j >= b.len() {
                        return Err(CigarError::Overrun { pos });
                    }
                    j += 1;
                }
                Op::Del => {
                    if i >= a.len() {
                        return Err(CigarError::Overrun { pos });
                    }
                    i += 1;
                }
            }
        }
        if i != a.len() || j != b.len() {
            return Err(CigarError::Underrun {
                consumed_a: i,
                consumed_b: j,
            });
        }
        Ok(())
    }
}

impl std::fmt::Display for Cigar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_rle_string())
    }
}

/// Errors from CIGAR validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CigarError {
    /// An operation at `pos` claims a match but the bases differ.
    FalseMatch { pos: usize, i: usize, j: usize },
    /// An operation at `pos` claims a mismatch but the bases agree.
    FalseMismatch { pos: usize, i: usize, j: usize },
    /// The transcript consumes more bases than a sequence has.
    Overrun { pos: usize },
    /// The transcript ends before consuming both sequences fully.
    Underrun {
        consumed_a: usize,
        consumed_b: usize,
    },
}

impl std::fmt::Display for CigarError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CigarError::FalseMatch { pos, i, j } => {
                write!(
                    f,
                    "op {pos}: claimed match at a[{i}]/b[{j}] but bases differ"
                )
            }
            CigarError::FalseMismatch { pos, i, j } => {
                write!(
                    f,
                    "op {pos}: claimed mismatch at a[{i}]/b[{j}] but bases agree"
                )
            }
            CigarError::Overrun { pos } => write!(f, "op {pos}: ran past the end of a sequence"),
            CigarError::Underrun {
                consumed_a,
                consumed_b,
            } => write!(
                f,
                "transcript ended early (consumed a={consumed_a}, b={consumed_b})"
            ),
        }
    }
}

impl std::error::Error for CigarError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rle_merging() {
        let mut c = Cigar::new();
        c.push(Op::Match);
        c.push(Op::Match);
        c.push(Op::Mismatch);
        c.push_run(Op::Match, 3);
        c.push_run(Op::Match, 0);
        assert_eq!(
            c.runs(),
            &[(2, Op::Match), (1, Op::Mismatch), (3, Op::Match)]
        );
        assert_eq!(c.to_rle_string(), "2M1X3M");
        assert_eq!(c.to_op_string(), "MMXMMM");
        assert_eq!(c.len(), 6);
    }

    #[test]
    fn score_affine_runs() {
        let p = Penalties::WFASIC_DEFAULT;
        let c = Cigar::from_str_ops("MMXMMIIMD").unwrap();
        // 1 mismatch (4) + ins run len 2 (6 + 2*2) + del run len 1 (6 + 2)
        assert_eq!(c.score(&p), 4 + 10 + 8);
        let st = c.stats();
        assert_eq!(st.gap_openings(), 2);
        assert_eq!(st.edits(), 4);
    }

    #[test]
    fn separate_runs_open_separately() {
        let p = Penalties::WFASIC_DEFAULT;
        let c1 = Cigar::from_str_ops("IIM").unwrap();
        let c2 = Cigar::from_str_ops("IMI").unwrap();
        assert_eq!(c1.score(&p), 6 + 4);
        assert_eq!(c2.score(&p), 2 * (6 + 2));
    }

    #[test]
    fn check_valid_and_invalid() {
        let a = b"GATTACA";
        let b = b"GACTACA";
        let good = Cigar::from_str_ops("MMXMMMM").unwrap();
        assert!(good.check(a, b).is_ok());

        let false_match = Cigar::from_str_ops("MMMMMMM").unwrap();
        assert!(matches!(
            false_match.check(a, b),
            Err(CigarError::FalseMatch { pos: 2, .. })
        ));

        let short = Cigar::from_str_ops("MM").unwrap();
        assert!(matches!(
            short.check(a, b),
            Err(CigarError::Underrun { .. })
        ));

        let over = Cigar::from_str_ops("MMXMMMMI").unwrap();
        assert!(matches!(over.check(a, b), Err(CigarError::Overrun { .. })));
    }

    #[test]
    fn check_with_indels() {
        // a = GAT, b = GCAT: one insertion of C into b's view.
        let a = b"GAT";
        let b = b"GCAT";
        let c = Cigar::from_str_ops("MIMM").unwrap();
        assert!(c.check(a, b).is_ok());
    }

    #[test]
    fn paper_style_mismatch_only_example() {
        // Paper Fig. 1 style: mismatch-only alignment, penalties (4, 6, 2).
        // Three substitutions cost 3*x = 12 — the score shown in the figure.
        let p = Penalties::WFASIC_DEFAULT;
        let a = b"GATTACATCG";
        let b = b"GCTTACGTCC";
        let c = Cigar::from_str_ops("MXMMMMXMMX").unwrap();
        // Verify base-consistency before trusting the score.
        c.check(a, b).unwrap();
        assert_eq!(c.score(&p), 12);
    }

    #[test]
    fn empty_cigar_empty_seqs() {
        let c = Cigar::new();
        assert!(c.check(b"", b"").is_ok());
        assert_eq!(c.score(&Penalties::default()), 0);
        assert!(c.is_empty());
    }
}
