//! The origin backtrace (paper §4.3.3, §4.5): one 5-bit origin bundle
//! per wavefront cell, walked backwards from the end cell into an edit
//! list, then replayed forward over the sequences with greedy match
//! insertion.
//!
//! Each bundle is the code [`crate::kernel::compute_row_with_origins`]
//! emits (its doc gives the bit layout).
//!
//! Two stores feed the same [`walk`]: the chip's Collector streams the
//! bundles to memory, where the driver locates them through its wavefront
//! schedule, and the exact engine keeps them per score in `OriginRows`
//! in place of every offset. Both rebuild the CIGAR with [`replay`].

use crate::cigar::{Cigar, Op};
use crate::penalties::Penalties;

/// One edit from the origin walk, in forward order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edit {
    /// The operation (Mismatch, Ins or Del — never Match).
    pub op: Op,
    /// May matches precede this edit? True when the path reached this edit
    /// from an M cell (which is always maximally extended), false mid
    /// gap-chain.
    pub extend_before: bool,
}

/// The walk met a code no path could have written at `(score, k)`: a null
/// origin, a step below score 0, or a path that does not end on the
/// initial cell (reported at score 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BadOrigin {
    /// Score of the offending cell.
    pub score: u32,
    /// Diagonal of the offending cell.
    pub k: i32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Comp {
    M,
    I,
    D,
}

/// Walk the origins backwards from the M cell `(score, k_end)` to the
/// initial cell and return the edits in *forward* order. `origin_at(s, k)`
/// supplies cell `(s, k)`'s bundle, or the store's own error for a cell it
/// does not hold.
pub fn walk<E: From<BadOrigin>>(
    score: u32,
    k_end: i32,
    p: &Penalties,
    mut origin_at: impl FnMut(u32, i32) -> Result<u8, E>,
) -> Result<Vec<Edit>, E> {
    let edit = |op, extend_before| Edit { op, extend_before };
    let mut edits_rev: Vec<Edit> = Vec::new();
    let mut s = score as i64;
    let mut k = k_end;
    let mut comp = Comp::M;
    let x = p.x as i64;
    let oe = (p.o + p.e) as i64;
    let e = p.e as i64;

    while s > 0 {
        let bad = BadOrigin { score: s as u32, k };
        let code = origin_at(s as u32, k)?;
        match comp {
            Comp::M => match code & 7 {
                1 => {
                    edits_rev.push(edit(Op::Mismatch, true));
                    s -= x;
                }
                2 => {
                    edits_rev.push(edit(Op::Ins, true));
                    s -= oe;
                    k -= 1;
                }
                3 => {
                    edits_rev.push(edit(Op::Ins, false));
                    s -= e;
                    k -= 1;
                    comp = Comp::I;
                }
                4 => {
                    edits_rev.push(edit(Op::Del, true));
                    s -= oe;
                    k += 1;
                }
                5 => {
                    edits_rev.push(edit(Op::Del, false));
                    s -= e;
                    k += 1;
                    comp = Comp::D;
                }
                _ => return Err(bad.into()),
            },
            Comp::I => {
                let ext = code >> 3 & 1 == 1;
                edits_rev.push(edit(Op::Ins, !ext));
                s -= if ext { e } else { oe };
                k -= 1;
                if !ext {
                    comp = Comp::M;
                }
            }
            Comp::D => {
                let ext = code >> 4 & 1 == 1;
                edits_rev.push(edit(Op::Del, !ext));
                s -= if ext { e } else { oe };
                k += 1;
                if !ext {
                    comp = Comp::M;
                }
            }
        }
        if s < 0 {
            return Err(bad.into());
        }
    }
    if k != 0 || comp != Comp::M {
        return Err(BadOrigin { score: 0, k }.into());
    }
    edits_rev.reverse();
    Ok(edits_rev)
}

/// Insert the matches (paper §4.5: "the CPU traverses the two sequences
/// and inserts all the necessary matches between the differences"):
/// replay `edits` forward over sequences of lengths `n` and `m`, taking
/// `lcp(i, j)` matches wherever the path left an M cell. `None` when the
/// edits do not consume both sequences exactly.
///
/// A mismatch always follows such an extension, which stops only on
/// differing bases or at an end, so its bases need no second compare.
pub fn replay(
    edits: &[Edit],
    n: usize,
    m: usize,
    mut lcp: impl FnMut(usize, usize) -> usize,
) -> Option<Cigar> {
    let mut cigar = Cigar::new();
    let (mut i, mut j) = (0usize, 0usize);
    for edit in edits {
        if edit.extend_before {
            let run = lcp(i, j);
            cigar.push_run(Op::Match, run as u32);
            i += run;
            j += run;
        }
        let (di, dj) = match edit.op {
            Op::Mismatch => (1, 1),
            Op::Ins => (0, 1),
            Op::Del => (1, 0),
            Op::Match => unreachable!("the walk never emits Match edits"),
        };
        if i + di > n || j + dj > m {
            return None;
        }
        cigar.push(edit.op);
        i += di;
        j += dj;
    }
    // Trailing matches to the ends.
    let run = lcp(i, j);
    cigar.push_run(Op::Match, run as u32);
    (i + run == n && j + run == m).then_some(cigar)
}

/// The exact engine's origin store: one bundle per diagonal per score,
/// each score's row over the `lo..=hi` range its wavefront computed.
/// Rows live back to back in one buffer.
#[derive(Debug, Default)]
pub(crate) struct OriginRows {
    codes: Vec<u8>,
    /// Per score: the row's lowest diagonal and its start in `codes`. A
    /// row ends where the next one starts.
    rows: Vec<(i32, usize)>,
}

impl OriginRows {
    /// Empty the store, keeping its buffers.
    pub(crate) fn clear(&mut self) {
        self.codes.clear();
        self.rows.clear();
    }

    /// Open the next score's row over `lo..lo + len` and return its
    /// codes to fill.
    pub(crate) fn push_row(&mut self, lo: i32, len: usize) -> &mut [u8] {
        let start = self.codes.len();
        self.rows.push((lo, start));
        self.codes.resize(start + len, 0);
        &mut self.codes[start..]
    }

    /// Drop the newest row's codes, leaving that score empty.
    pub(crate) fn empty_last(&mut self) {
        if let Some(&(_, start)) = self.rows.last() {
            self.codes.truncate(start);
        }
    }

    /// The bundle of cell `(s, k)`.
    pub(crate) fn code(&self, s: u32, k: i32) -> Result<u8, BadOrigin> {
        let bad = BadOrigin { score: s, k };
        let &(lo, start) = self.rows.get(s as usize).ok_or(bad)?;
        let end = self
            .rows
            .get(s as usize + 1)
            .map_or(self.codes.len(), |r| r.1);
        let t = usize::try_from(k - lo).map_err(|_| bad)?;
        self.codes[start..end].get(t).copied().ok_or(bad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: Penalties = Penalties::WFASIC_DEFAULT;

    #[test]
    fn rows_index_by_score_and_diagonal() {
        let mut rows = OriginRows::default();
        rows.push_row(0, 0);
        rows.push_row(-1, 3).copy_from_slice(&[1, 2, 3]);
        rows.push_row(-2, 5);
        rows.empty_last();
        assert_eq!(rows.code(1, -1), Ok(1));
        assert_eq!(rows.code(1, 1), Ok(3));
        assert!(rows.code(1, 2).is_err());
        assert!(rows.code(1, -2).is_err());
        assert!(rows.code(2, 0).is_err(), "an emptied row holds nothing");
        assert!(rows.code(3, 0).is_err());
    }

    #[test]
    fn walk_rejects_null_and_stray_origins() {
        let none = |_: u32, _: i32| Ok::<u8, BadOrigin>(0);
        assert_eq!(walk(4, 0, &P, none), Err(BadOrigin { score: 4, k: 0 }));
        // A substitution chain on diagonal 1 never reaches cell (0, 0).
        let sub = |_: u32, _: i32| Ok::<u8, BadOrigin>(1);
        assert_eq!(walk(8, 1, &P, sub), Err(BadOrigin { score: 0, k: 1 }));
        // A step past score 0 is reported at the cell that took it.
        assert_eq!(walk(2, 0, &P, sub), Err(BadOrigin { score: 2, k: 0 }));
    }

    #[test]
    fn replay_inserts_matches_and_checks_lengths() {
        let (a, b) = (b"ACGT", b"ACTT");
        let lcp = |i: usize, j: usize| crate::kernel::lcp_bytes(a, b, i, j);
        let edits = [Edit {
            op: Op::Mismatch,
            extend_before: true,
        }];
        let cigar = replay(&edits, 4, 4, lcp).unwrap();
        assert_eq!(cigar.to_rle_string(), "2M1X1M");
        assert!(replay(&[], 4, 4, lcp).is_none(), "edits left bases over");
        let gap = Edit {
            op: Op::Del,
            extend_before: false,
        };
        assert!(replay(&[gap; 5], 4, 4, lcp).is_none(), "ran past a");
    }
}
