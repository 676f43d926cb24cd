//! Banked Wavefront RAM model (paper §4.3.1, Fig. 6).
//!
//! The wavefront *window* is a matrix: one column per retained wavefront
//! (4 previous M columns + the frame column for penalties (4, 6, 2)), one row
//! per diagonal (`2*k_max + 1` rows). It is distributed over `P` single-ported
//! banks — row `r` lives in bank `r mod P` — so `P` parallel sections can
//! access `P` consecutive rows without conflicts. Because computing the frame
//! column's rows `r..r+P-1` needs *gap-opening* reads at diagonals `k-1` and
//! `k+1` (rows `r-1..r+P`), the first and last M banks are **duplicated**
//! (RAM 1' and RAM 4' in Fig. 6); the I/D windows need only one read per
//! frame cell and are not duplicated.
//!
//! This module is the structural model: bank mapping and a checker proving
//! every batch's access pattern is conflict-free (the frame column's
//! rotation is the structural Aligner's step-indexed column choice). The
//! Aligner's cycle model encodes the resulting access counts (two sequential
//! M reads + one parallel I/D read per batch).

/// Bank assignment for the wavefront window.
#[derive(Debug, Clone)]
pub struct BankedWindow {
    /// Parallel sections = number of primary banks.
    pub banks: usize,
    /// Rows in the window (`2*k_max + 1`).
    pub rows: usize,
    /// Columns retained (M window: 4 previous + frame for (4,6,2)).
    pub columns: usize,
    /// Does this window have duplicated first/last banks (M only)?
    pub duplicated_edges: bool,
}

/// Identifies a physical bank: primary `Bank(i)`, or one of the duplicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BankId {
    /// Primary bank `i` (0-based).
    Primary(usize),
    /// Duplicate of bank 0 (RAM 1').
    DupFirst,
    /// Duplicate of bank `P-1` (RAM 4').
    DupLast,
}

/// One planned access: which bank serves the read of `row`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedAccess {
    /// Window row.
    pub row: usize,
    /// Serving bank.
    pub bank: BankId,
}

impl BankedWindow {
    /// An M window for the given geometry.
    pub fn m_window(parallel_sections: usize, k_max: u32, m_columns: usize) -> Self {
        BankedWindow {
            banks: parallel_sections,
            rows: 2 * k_max as usize + 1,
            columns: m_columns + 1, // previous columns + the frame column
            duplicated_edges: true,
        }
    }

    /// An I or D window (one previous column + frame; no duplicates).
    pub fn id_window(parallel_sections: usize, k_max: u32) -> Self {
        BankedWindow {
            banks: parallel_sections,
            rows: 2 * k_max as usize + 1,
            columns: 2,
            duplicated_edges: false,
        }
    }

    /// The primary bank holding `row`.
    pub fn bank_of(&self, row: usize) -> usize {
        row % self.banks
    }

    /// Plan parallel reads of rows `first..first+count` (one per section,
    /// same column), assigning conflicting edge rows to the duplicate banks.
    /// Returns `None` if the pattern cannot be served in one cycle.
    pub fn plan_parallel_reads(&self, first: isize, count: usize) -> Option<Vec<PlannedAccess>> {
        let mut used = std::collections::BTreeSet::new();
        let mut plan = Vec::with_capacity(count);
        for idx in 0..count {
            let row_signed = first + idx as isize;
            if row_signed < 0 || row_signed as usize >= self.rows {
                continue; // outside the window: no read issued
            }
            let row = row_signed as usize;
            let primary = BankId::Primary(self.bank_of(row));
            let bank = if used.contains(&primary) {
                if !self.duplicated_edges {
                    return None;
                }
                // Only the first and last banks are duplicated.
                match primary {
                    BankId::Primary(0) => BankId::DupFirst,
                    BankId::Primary(b) if b == self.banks - 1 => BankId::DupLast,
                    _ => return None,
                }
            } else {
                primary
            };
            if !used.insert(bank) {
                return None;
            }
            plan.push(PlannedAccess { row, bank });
        }
        Some(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_to_bank_matches_fig6() {
        // Fig 6: P=4; rows 0,4,8 -> RAM 1 (bank 0); 1,5,9 -> bank 1; etc.
        let w = BankedWindow::m_window(4, 5, 4);
        assert_eq!(w.rows, 11);
        assert_eq!(w.bank_of(0), 0);
        assert_eq!(w.bank_of(4), 0);
        assert_eq!(w.bank_of(7), 3);
    }

    #[test]
    fn aligned_batch_needs_no_duplicates() {
        let w = BankedWindow::m_window(4, 5, 4);
        // Rows 4..7: one per bank.
        let plan = w.plan_parallel_reads(4, 4).unwrap();
        let banks: Vec<_> = plan.iter().map(|p| p.bank).collect();
        assert_eq!(
            banks,
            vec![
                BankId::Primary(0),
                BankId::Primary(1),
                BankId::Primary(2),
                BankId::Primary(3)
            ]
        );
    }

    #[test]
    fn gap_open_reads_use_duplicates() {
        // Paper's example: computing cells (4:7) requires reading rows 3..=8:
        // rows 3 and 7 share bank 3, rows 4 and 8 share bank 0 — served by
        // RAM 4' and RAM 1'.
        let w = BankedWindow::m_window(4, 5, 4);
        let plan = w.plan_parallel_reads(3, 6).unwrap();
        assert_eq!(plan.len(), 6);
        let banks: Vec<_> = plan.iter().map(|p| p.bank).collect();
        assert!(banks.contains(&BankId::DupFirst));
        assert!(banks.contains(&BankId::DupLast));
        // All six served by distinct physical banks.
        let mut sorted = banks.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 6);
    }

    #[test]
    fn id_window_cannot_serve_overlapping_batches() {
        // Without duplicates, a P+2-row read pattern must fail…
        let w = BankedWindow::id_window(4, 5);
        assert!(w.plan_parallel_reads(3, 6).is_none());
        // …but the P-row shifted patterns I/D actually use are fine.
        assert!(w.plan_parallel_reads(3, 4).is_some());
        assert!(w.plan_parallel_reads(5, 4).is_some());
    }

    #[test]
    fn every_batch_of_every_score_is_conflict_free() {
        // Sweep a realistic geometry: every batch start the Aligner ever
        // issues (row groups of P, gap reads spanning P+2) plans cleanly.
        let p = 8;
        let w = BankedWindow::m_window(p, 64, 4);
        let idw = BankedWindow::id_window(p, 64);
        let rows = w.rows as isize;
        let mut starts = Vec::new();
        let mut r = 0isize;
        while r < rows {
            starts.push(r);
            r += p as isize;
        }
        for &start in &starts {
            // M substitution read: rows start..start+P (same k).
            assert!(w.plan_parallel_reads(start, p).is_some(), "sub @{start}");
            // M gap-open read: rows start-1..start+P (k-1 and k+1 together).
            assert!(
                w.plan_parallel_reads(start - 1, p + 2).is_some(),
                "open @{start}"
            );
            // I reads rows start-1..start+P-2; D reads start+1..start+P.
            assert!(
                idw.plan_parallel_reads(start - 1, p).is_some(),
                "I @{start}"
            );
            assert!(
                idw.plan_parallel_reads(start + 1, p).is_some(),
                "D @{start}"
            );
        }
    }

    #[test]
    fn edge_rows_clipped_outside_window() {
        let w = BankedWindow::m_window(4, 5, 4);
        // Reading below row 0 and above the last row silently drops those
        // lanes (the hardware masks them as invalid).
        let plan = w.plan_parallel_reads(-1, 6).unwrap();
        assert!(plan.iter().all(|p| p.row < w.rows));
        assert_eq!(plan.len(), 5);
    }
}
