//! Analytic Sargantana CPU cycle models (the paper's baseline: "the CPU
//! implementation of the WFA running on the RISC-V core of the chip").
//!
//! The models map the *measured work* of a real WFA run (wfa-core's
//! [`WfaStats`]) to cycles on an in-order RV64 core, for both the scalar
//! code and the RVV-vectorized code, plus the CPU side of the co-designed
//! backtrace (data separation, origin walk, match insertion). The constants
//! are a calibrated microarchitectural budget: so many cycles per wavefront
//! cell (loads from three wavefronts, maxes, stores), per compared base,
//! per alignment (allocation/setup of the wavefront structures), with a
//! cache-pressure multiplier once the working set spills L1/L2.
//!
//! A second, slower but instruction-accurate baseline lives in
//! `wfasic-riscv` (an RV64IM kernel on an interpreter); the constants here
//! are sanity-checked against it in the integration tests.

use wfa_core::WfaStats;
use wfasic_soc::clock::Cycle;

/// Per-operation cycle constants for a CPU WFA implementation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuCosts {
    /// Fixed cycles per alignment (wavefront allocation, setup, teardown —
    /// the dominant term for short reads).
    pub per_alignment: Cycle,
    /// Cycles per computed wavefront component cell.
    pub per_cell: f64,
    /// Cycles per compared base in extend().
    pub per_base: f64,
    /// Cycles per score step (loop control, wavefront bookkeeping).
    pub per_step: f64,
    /// Working-set thresholds (bytes) and the multipliers applied to
    /// per-cell work when the retained wavefronts spill L1 / L2.
    pub l1_bytes: u64,
    /// Multiplier when the working set exceeds L1.
    pub l1_spill_factor: f64,
    /// L2 capacity.
    pub l2_bytes: u64,
    /// Multiplier when the working set exceeds L2.
    pub l2_spill_factor: f64,
}

impl CpuCosts {
    /// The scalar WFA C code on Sargantana (RV64G, in-order, 7-stage).
    pub fn sargantana_scalar() -> Self {
        CpuCosts {
            per_alignment: 30_000,
            per_cell: 14.0,
            per_base: 4.0,
            per_step: 90.0,
            l1_bytes: 32 << 10,
            l1_spill_factor: 1.6,
            l2_bytes: 512 << 10,
            l2_spill_factor: 3.0,
        }
    }

    /// The RVV-0.7.1 vectorized WFA on Sargantana's SIMD unit: extends
    /// compare 16 bases per vector op, compute processes several cells per
    /// op; setup overhead stays (and grows slightly — vector configuration).
    pub fn sargantana_vector() -> Self {
        CpuCosts {
            per_alignment: 34_000,
            per_cell: 3.5,
            per_base: 0.5,
            per_step: 110.0,
            l1_bytes: 32 << 10,
            l1_spill_factor: 1.6,
            l2_bytes: 512 << 10,
            l2_spill_factor: 3.0,
        }
    }

    /// Cycles for one alignment with the given measured work.
    pub fn align_cycles(&self, stats: &WfaStats) -> Cycle {
        let working_set = modelled_bytes(stats);
        let spill = if working_set > self.l2_bytes {
            self.l2_spill_factor
        } else if working_set > self.l1_bytes {
            self.l1_spill_factor
        } else {
            1.0
        };
        let work = stats.cells_computed as f64 * self.per_cell * spill
            + stats.bases_compared as f64 * self.per_base
            + stats.score_steps as f64 * self.per_step;
        self.per_alignment + work as Cycle
    }
}

/// The wavefront bytes the modelled CPU code retains: the paper's software
/// WFA keeps every wavefront in CIGAR mode, so a CIGAR run is priced at
/// its full-history footprint, whatever the host engine kept; a
/// score-only run (no history figure) at its own peak.
fn modelled_bytes(stats: &WfaStats) -> u64 {
    match stats.full_history_bytes {
        0 => stats.peak_memory_bytes,
        full => full,
    }
}

// CPU-side backtrace cost model (paper §4.5 and Fig. 11), in cycles.

/// Fixed cycles per alignment: driver result handling, locating the
/// alignment's stream, setting up the walk (dominates short reads — the
/// paper's 2.8x BT speedup at 100-5% implies the CPU side dwarfs the
/// 214-cycle accelerator alignment).
const BT_PER_ALIGNMENT: f64 = 9_000.0;
/// Additional fixed cycles per alignment when the data-separation method
/// runs (per-alignment region allocation and bookkeeping; the paper's
/// Fig. 11 shows ~6.7x no-separation advantage even for 100bp pairs whose
/// streams are a few hundred bytes, implying a large fixed separation
/// cost).
const BT_SEPARATION_PER_ALIGNMENT: f64 = 60_000.0;
/// Data-separation throughput: cycles per byte moved (read + bucket write
/// on a single in-order core, mostly DRAM-bound).
const BT_SEPARATION_CYCLES_PER_BYTE: f64 = 25.0;
/// Cycles per transaction for boundary identification in the
/// no-separation method (header decode only).
const BT_BOUNDARY_CYCLES_PER_TXN: f64 = 3.0;
/// Cycles per origin-walk step (block locate + bit extract; random access,
/// frequently missing the caches).
const BT_WALK_CYCLES_PER_EDIT: f64 = 120.0;
/// Cycles per base during match insertion (sequential compare).
const BT_INSERT_CYCLES_PER_BASE: f64 = 3.0;

/// Cycles to backtrace one device alignment on the CPU.
///
/// * `bt_bytes` — this alignment's share of the backtrace stream;
/// * `edits` — mismatches + gap bases (origin-walk steps);
/// * `seq_bases` — `|a| + |b|` (match insertion);
/// * `separate` — multi-Aligner data separation needed?
pub fn backtrace_cycles(bt_bytes: u64, edits: u64, seq_bases: u64, separate: bool) -> Cycle {
    let txns = bt_bytes / 16;
    let locate = if separate {
        // Read everything, copy into per-alignment regions.
        BT_SEPARATION_PER_ALIGNMENT + bt_bytes as f64 * BT_SEPARATION_CYCLES_PER_BYTE
    } else {
        txns as f64 * BT_BOUNDARY_CYCLES_PER_TXN
    };
    let walk = edits as f64 * BT_WALK_CYCLES_PER_EDIT;
    let insert = seq_bases as f64 * BT_INSERT_CYCLES_PER_BASE;
    (BT_PER_ALIGNMENT + locate + walk + insert) as Cycle
}

/// Cycles for a pure-software backtrace following a software WFA run (the
/// CPU baseline with backtrace): walking the retained wavefronts and
/// emitting the CIGAR. Dominated by random accesses over the O(s·k)
/// wavefront store, which for long reads far exceeds the caches
/// ("the backtrace computation on the CPU is bound to the CPU-memory
/// bandwidth").
pub fn software_backtrace_cycles(stats: &WfaStats, edits: u64, seq_bases: u64) -> Cycle {
    // Full-history memory is roughly steps/lookback times the score-only
    // peak; each walk step touches a previous wavefront.
    let full_history_bytes = modelled_bytes(stats).saturating_mul(stats.score_steps.max(1)) / 9;
    let per_step: f64 = if full_history_bytes > (512 << 10) {
        140.0 // DRAM-latency bound
    } else if full_history_bytes > (32 << 10) {
        40.0
    } else {
        16.0
    };
    (edits as f64 * per_step + seq_bases as f64 * 2.0) as Cycle + 2_000
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(cells: u64, bases: u64, steps: u64, mem: u64) -> WfaStats {
        WfaStats {
            cells_computed: cells,
            bases_compared: bases,
            extend_calls: cells / 3,
            score_steps: steps,
            max_wavefront_len: steps,
            peak_memory_bytes: mem,
            full_history_bytes: 0,
        }
    }

    #[test]
    fn scalar_short_read_is_setup_dominated() {
        let c = CpuCosts::sargantana_scalar();
        let s = stats(400, 500, 12, 2_000);
        let cycles = c.align_cycles(&s);
        assert!(cycles > c.per_alignment);
        assert!(
            (cycles - c.per_alignment) * 2 < c.per_alignment,
            "work should be small next to setup for a 100bp pair"
        );
    }

    #[test]
    fn spill_factors_kick_in() {
        let c = CpuCosts::sargantana_scalar();
        let small = c.align_cycles(&stats(1_000_000, 0, 1, 1_000));
        let l1 = c.align_cycles(&stats(1_000_000, 0, 1, 64 << 10));
        let l2 = c.align_cycles(&stats(1_000_000, 0, 1, 1 << 20));
        assert!(l1 > small);
        assert!(l2 > l1);
    }

    #[test]
    fn vector_beats_scalar_on_long_reads() {
        let scalar = CpuCosts::sargantana_scalar();
        let vector = CpuCosts::sargantana_vector();
        let long = stats(20_000_000, 30_000_000, 3_000, 1 << 20);
        let sv = scalar.align_cycles(&long);
        let vv = vector.align_cycles(&long);
        let speedup = sv as f64 / vv as f64;
        assert!(
            speedup > 2.0 && speedup < 8.0,
            "vector speedup {speedup:.2}"
        );

        // On tiny reads the setup dominates and vectorization barely helps.
        let short = stats(400, 500, 12, 2_000);
        let ratio = scalar.align_cycles(&short) as f64 / vector.align_cycles(&short) as f64;
        assert!(ratio < 1.3, "short-read vector ratio {ratio:.2}");
    }

    #[test]
    fn separation_dominates_for_big_streams() {
        let big = 8 << 20; // ~8 MB of BT data (10K-10% pair)
        let sep = backtrace_cycles(big, 6_000, 20_000, true);
        let nosep = backtrace_cycles(big, 6_000, 20_000, false);
        assert!(
            sep as f64 / nosep as f64 > 10.0,
            "separation must dwarf the no-separation method: {sep} vs {nosep}"
        );
    }

    #[test]
    fn small_streams_pay_the_fixed_separation_cost() {
        // Fig. 11: even 100bp streams see a ~6.7x no-separation advantage,
        // so separation must carry a large fixed per-alignment cost.
        let sep = backtrace_cycles(2_000, 10, 200, true);
        let nosep = backtrace_cycles(2_000, 10, 200, false);
        assert!(sep > nosep * 3, "sep {sep} vs nosep {nosep}");
        assert!(sep < nosep * 20, "but bounded for tiny streams");
    }

    #[test]
    fn software_backtrace_scales_with_history() {
        let small = software_backtrace_cycles(&stats(400, 0, 12, 2_000), 5, 200);
        let large =
            software_backtrace_cycles(&stats(1_000_000, 0, 3_000, 600 << 10), 6_000, 20_000);
        assert!(large > small * 50);
    }
}
