//! Full dynamic-programming baseline: Smith-Waterman-Gotoh (gap-affine,
//! paper Eq. 2).
//!
//! This is the `O(n^2)` exact reference the WFA is equivalent to. The paper
//! uses it both as the conceptual background (§2.2) and as the definition of
//! "equivalent DP cells" for the CUPS metric (§5.5). Here they also serve as
//! the correctness oracle for every other aligner in the workspace.
//!
//! The alignment is *end-to-end* (global): both sequences must be fully
//! consumed, matching the WFA termination condition (reach cell `(n, m)`).

use crate::cigar::{Cigar, Op};
use crate::penalties::Penalties;

/// Saturating "infinity" for u64 DP cells; large enough that adding any
/// penalty never wraps.
const INF: u64 = u64::MAX / 4;

/// Result of a full-DP alignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DpAlignment {
    /// Optimal gap-affine score.
    pub score: u64,
    /// An optimal transcript.
    pub cigar: Cigar,
    /// Number of DP cells computed (all matrices), for CUPS accounting.
    pub cells_computed: u64,
}

/// Which of the three Gotoh matrices a traceback state lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mat {
    M,
    I,
    D,
}

/// Global gap-affine alignment by the Smith-Waterman-Gotoh recurrence
/// (paper Eq. 2), minimizing penalties, with full traceback.
///
/// `I(i, j)` tracks alignments of `a[..i]`/`b[..j]` ending with an insertion
/// (consuming `b[j-1]` only); `D(i, j)` ends with a deletion (consuming
/// `a[i-1]` only), matching the conventions in [`crate::cigar`].
pub fn swg_align(a: &[u8], b: &[u8], p: &Penalties) -> DpAlignment {
    let n = a.len();
    let m = b.len();
    let w = m + 1;
    let idx = |i: usize, j: usize| i * w + j;

    let mut mm = vec![INF; (n + 1) * w];
    let mut ii = vec![INF; (n + 1) * w];
    let mut dd = vec![INF; (n + 1) * w];

    mm[idx(0, 0)] = 0;
    for j in 1..=m {
        ii[idx(0, j)] = p.o as u64 + p.e as u64 * j as u64;
        mm[idx(0, j)] = ii[idx(0, j)];
    }
    for i in 1..=n {
        dd[idx(i, 0)] = p.o as u64 + p.e as u64 * i as u64;
        mm[idx(i, 0)] = dd[idx(i, 0)];
    }

    for i in 1..=n {
        for j in 1..=m {
            let open = p.gap_open() as u64;
            let ext = p.e as u64;
            let ins = (mm[idx(i, j - 1)] + open).min(ii[idx(i, j - 1)] + ext);
            let del = (mm[idx(i - 1, j)] + open).min(dd[idx(i - 1, j)] + ext);
            let sub = if a[i - 1] == b[j - 1] { 0 } else { p.x as u64 };
            let diag = mm[idx(i - 1, j - 1)] + sub;
            ii[idx(i, j)] = ins;
            dd[idx(i, j)] = del;
            mm[idx(i, j)] = diag.min(ins).min(del);
        }
    }

    let score = mm[idx(n, m)];
    let cells_computed = 3 * (n as u64 + 1) * (m as u64 + 1);

    // Traceback from (n, m) in M.
    let mut cigar = Cigar::new();
    let (mut i, mut j) = (n, m);
    let mut mat = Mat::M;
    while i > 0 || j > 0 {
        match mat {
            Mat::M => {
                let v = mm[idx(i, j)];
                let sub_ok = i > 0 && j > 0;
                let sub = if sub_ok && a[i - 1] == b[j - 1] {
                    0
                } else {
                    p.x as u64
                };
                if sub_ok && mm[idx(i - 1, j - 1)] + sub == v {
                    cigar.push(if sub == 0 { Op::Match } else { Op::Mismatch });
                    i -= 1;
                    j -= 1;
                } else if j > 0 && ii[idx(i, j)] == v {
                    mat = Mat::I;
                } else {
                    debug_assert!(i > 0 && dd[idx(i, j)] == v);
                    mat = Mat::D;
                }
            }
            Mat::I => {
                let v = ii[idx(i, j)];
                cigar.push(Op::Ins);
                if ii[idx(i, j - 1)] + p.e as u64 == v && j > 1 {
                    // stay in I
                } else {
                    debug_assert_eq!(mm[idx(i, j - 1)] + p.gap_open() as u64, v);
                    mat = Mat::M;
                }
                j -= 1;
            }
            Mat::D => {
                let v = dd[idx(i, j)];
                cigar.push(Op::Del);
                if dd[idx(i - 1, j)] + p.e as u64 == v && i > 1 {
                    // stay in D
                } else {
                    debug_assert_eq!(mm[idx(i - 1, j)] + p.gap_open() as u64, v);
                    mat = Mat::M;
                }
                i -= 1;
            }
        }
    }
    cigar.reverse();

    DpAlignment {
        score,
        cigar,
        cells_computed,
    }
}

/// Score-only SWG with `O(m)` memory (two rolling rows per matrix). Used by
/// large oracle checks where the full matrices would not fit.
pub fn swg_score(a: &[u8], b: &[u8], p: &Penalties) -> u64 {
    let m = b.len();
    let open = p.gap_open() as u64;
    let ext = p.e as u64;

    // Two in-place rows (M and D). The I matrix needs no row at all: the
    // recurrence only ever reads `I(i, j-1)` — the cell just computed in
    // the same row — so it rolls through a single scalar.
    let mut mr = vec![INF; m + 1];
    let mut dr = vec![INF; m + 1];

    mr[0] = 0;
    for (j, cell) in mr.iter_mut().enumerate().skip(1) {
        *cell = p.o as u64 + ext * j as u64;
    }

    for (i, &ca) in a.iter().enumerate() {
        // `diag` carries M(i-1, j-1); reading mr[j]/dr[j] before the store
        // gives M(i-1, j)/D(i-1, j), so the update is safely in place.
        let mut diag = mr[0];
        let mut m_left = p.o as u64 + ext * (i as u64 + 1);
        let mut i_left = INF;
        mr[0] = m_left;
        for ((mj, dj), &cb) in mr[1..].iter_mut().zip(dr[1..].iter_mut()).zip(b) {
            let up_m = *mj;
            let up_d = *dj;
            let ins = (m_left + open).min(i_left + ext);
            let del = (up_m + open).min(up_d + ext);
            let sub = if ca == cb { 0 } else { p.x as u64 };
            let mc = (diag + sub).min(ins).min(del);
            *mj = mc;
            *dj = del;
            diag = up_m;
            m_left = mc;
            i_left = ins;
        }
    }
    mr[m]
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: Penalties = Penalties::WFASIC_DEFAULT;

    #[test]
    fn identical_sequences_score_zero() {
        let r = swg_align(b"ACGTACGT", b"ACGTACGT", &P);
        assert_eq!(r.score, 0);
        assert_eq!(r.cigar.to_op_string(), "MMMMMMMM");
        r.cigar.check(b"ACGTACGT", b"ACGTACGT").unwrap();
    }

    #[test]
    fn single_mismatch() {
        let r = swg_align(b"ACGT", b"AGGT", &P);
        assert_eq!(r.score, 4);
        r.cigar.check(b"ACGT", b"AGGT").unwrap();
        assert_eq!(r.cigar.score(&P), 4);
    }

    #[test]
    fn single_insertion() {
        // b has one extra base.
        let r = swg_align(b"ACGT", b"ACGGT", &P);
        assert_eq!(r.score, 8);
        r.cigar.check(b"ACGT", b"ACGGT").unwrap();
        assert_eq!(r.cigar.score(&P), 8);
    }

    #[test]
    fn single_deletion() {
        let r = swg_align(b"ACGGT", b"ACGT", &P);
        assert_eq!(r.score, 8);
        r.cigar.check(b"ACGGT", b"ACGT").unwrap();
    }

    #[test]
    fn long_gap_extends_affine() {
        // 4-base insertion: o + 4e = 6 + 8 = 14, cheaper than 4 mismatches+shifts.
        let r = swg_align(b"AAAA", b"AAAATTTT", &P);
        assert_eq!(r.score, 6 + 4 * 2);
        r.cigar.check(b"AAAA", b"AAAATTTT").unwrap();
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(swg_align(b"", b"", &P).score, 0);
        let r = swg_align(b"", b"ACG", &P);
        assert_eq!(r.score, 6 + 3 * 2);
        r.cigar.check(b"", b"ACG").unwrap();
        let r = swg_align(b"ACG", b"", &P);
        assert_eq!(r.score, 6 + 3 * 2);
        r.cigar.check(b"ACG", b"").unwrap();
    }

    #[test]
    fn score_only_matches_full() {
        let a = b"GATTACAGATTACAGGG";
        let b = b"GATCACAGAGTTACAGG";
        let full = swg_align(a, b, &P);
        assert_eq!(swg_score(a, b, &P), full.score);
        full.cigar.check(a, b).unwrap();
        assert_eq!(full.cigar.score(&P), full.score);
    }

    #[test]
    fn cells_computed_accounting() {
        let r = swg_align(b"ACGT", b"ACG", &P);
        assert_eq!(r.cells_computed, 3 * 5 * 4);
    }
}
