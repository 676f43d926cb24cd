//! The Extend sub-module (paper §4.3.2, Fig. 7).
//!
//! Each parallel section owns one Extend sub-module and two Input_Seq RAM
//! replicas. Given a frame-column cell (diagonal `k`, offset), the unit
//! computes the starting positions `(i, j) = (offset - k, offset)`, streams
//! 4-byte RAM words (16 bases) through the REG_1/REG_2 shift/concatenate
//! alignment network, and compares 16 bases per cycle after a five-cycle
//! pipeline fill, stopping at the first mismatch or sequence end.
//!
//! Functionally this is exactly [`wfa_core::kernel::lcp_packed`];
//! the model adds the cycle accounting.

use crate::config::AccelConfig;
use wfa_core::bitpack::PackedSeq;
use wfa_core::kernel::lcp_packed;
use wfasic_soc::clock::Cycle;

/// Result of one cell extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtendResult {
    /// Matching bases found (the offset advances by this much).
    pub matches: usize,
    /// Comparison cycles consumed (16-base blocks; even an immediate
    /// mismatch costs one block).
    pub compare_cycles: Cycle,
}

/// Extend the cell `(k, offset)` against the packed sequences.
///
/// `offset` is the `j` coordinate; `i = offset - k` (paper Eq. 4). The caller
/// guarantees the cell is valid (within both sequences).
#[inline(always)]
pub fn extend_cell(
    cfg: &AccelConfig,
    a: &PackedSeq,
    b: &PackedSeq,
    k: i32,
    offset: i32,
) -> ExtendResult {
    let j = offset as usize;
    let i = (offset - k) as usize;
    debug_assert!(i <= a.len() && j <= b.len(), "invalid cell reached extend");
    let matches = lcp_packed(a, b, i, j);
    ExtendResult {
        matches,
        compare_cycles: compare_cycles(cfg, matches),
    }
}

/// Comparison cycles consumed discovering `matches` matching bases: one
/// block per `extend_bases_per_cycle` bases examined; the block containing
/// the mismatch (or the first block, if the very first base mismatches)
/// still costs a cycle. Runs shorter than one block — the overwhelmingly
/// common case — skip the division. Shared by [`extend_cell`] and the
/// aligner's batched extend, so the cycle model has exactly one definition.
#[inline(always)]
pub fn compare_cycles(cfg: &AccelConfig, matches: usize) -> Cycle {
    if matches < cfg.extend_bases_per_cycle {
        1
    } else {
        (matches / cfg.extend_bases_per_cycle) as Cycle + 1
    }
}

/// Cycle cost of one section extending a run of cells back-to-back:
/// one pipeline fill, then per-cell issue overhead plus comparison blocks.
pub fn section_run_cycles(cell_compare_cycles: &[Cycle]) -> Cycle {
    if cell_compare_cycles.is_empty() {
        return 0;
    }
    AccelConfig::EXTEND_FILL_CYCLES
        + cell_compare_cycles
            .iter()
            .map(|&c| c + AccelConfig::EXTEND_ISSUE_CYCLES)
            .sum::<Cycle>()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AccelConfig {
        AccelConfig::wfasic_chip()
    }

    fn packed(s: &[u8]) -> PackedSeq {
        PackedSeq::from_ascii(s).unwrap()
    }

    #[test]
    fn extend_counts_matches_and_blocks() {
        let a = packed(b"ACGTACGTACGTACGTACGT"); // 20 bases
        let b = packed(b"ACGTACGTACGTACGTACGA"); // mismatch at 19
        let r = extend_cell(&cfg(), &a, &b, 0, 0);
        assert_eq!(r.matches, 19);
        // 19 matches: blocks = 19/16 + 1 = 2.
        assert_eq!(r.compare_cycles, 2);
    }

    #[test]
    fn immediate_mismatch_costs_one_block() {
        let a = packed(b"AAAA");
        let b = packed(b"TAAA");
        let r = extend_cell(&cfg(), &a, &b, 0, 0);
        assert_eq!(r.matches, 0);
        assert_eq!(r.compare_cycles, 1);
    }

    #[test]
    fn off_diagonal_start() {
        // k = 2: i = offset - 2.
        let a = packed(b"GGGG");
        let b = packed(b"TTGGGG");
        let r = extend_cell(&cfg(), &a, &b, 2, 2);
        assert_eq!(r.matches, 4, "a[0..] matches b[2..]");
    }

    #[test]
    fn extend_to_sequence_end() {
        let a = packed(b"ACGT");
        let b = packed(b"ACGTACGT");
        let r = extend_cell(&cfg(), &a, &b, 0, 0);
        assert_eq!(r.matches, 4, "stops at the end of a");
    }

    #[test]
    fn section_run_accounting() {
        assert_eq!(section_run_cycles(&[]), 0);
        // Fill 5 + (2+1) + (1+1) = 10.
        assert_eq!(section_run_cycles(&[2, 1]), 10);
    }

    #[test]
    fn paper_pipeline_statement() {
        // "the comparator compares 16 bases of the sequences at each clock
        // cycle, after five initial cycles": a 64-base match run from a cold
        // section costs 5 + ceil(65/16 rounded in blocks) = 5 + (64/16+1).
        let run = section_run_cycles(&[(64 / 16) as Cycle + 1]);
        assert_eq!(run, 5 + 5 + 1);
    }
}
