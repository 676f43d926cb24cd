//! Accelerator configuration (paper §4/§5: the design parameters of WFAsic).

use wfa_core::Penalties;
use wfasic_seqio::memimage::SECTION;
use wfasic_soc::bus::BusConfig;
use wfasic_soc::clock::Cycle;

/// Structural and timing parameters of a WFAsic instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccelConfig {
    /// Number of Aligner modules (1 in the taped-out chip; the FPGA
    /// prototype scales to 10, Fig. 10).
    pub num_aligners: usize,
    /// Parallel sections per Aligner (64 in the chip; 32 in the Fig. 11
    /// alternative).
    pub parallel_sections: usize,
    /// Wavefront storage bound: diagonals `-k_max..=k_max` are kept
    /// (Eq. 6: supports scores up to `2*k_max + 4`).
    pub k_max: u32,
    /// Longest read the design supports (10K bases).
    pub max_supported_len: usize,
    /// Gap-affine penalties baked into the datapath: (4, 6, 2).
    pub penalties: Penalties,
    /// Shared AXI-Full port timing.
    pub bus: BusConfig,
    /// Keep the duplicated M-window edge banks (RAM 1'/RAM N', paper §4.4).
    /// The chip duplicates them so a compute batch's neighbour-section
    /// reads never collide with the regular banks; folding them away (the
    /// design-space sweep's "fold" banking variant) saves two macros per
    /// Aligner but costs an extra compute-batch cycle — see
    /// [`AccelConfig::with_folded_edge_banks`].
    pub duplicate_edge_banks: bool,

    // --- Aligner timing (cycle model) ---
    /// Bases compared per cycle per Extend sub-module (16: one Input_Seq
    /// RAM word).
    pub extend_bases_per_cycle: usize,
    /// Cycles per compute batch of `parallel_sections` cells: two
    /// sequential M-window reads + the parallel I/D read + write-back.
    pub compute_batch_cycles: Cycle,
}

impl AccelConfig {
    /// Input/output FIFO depth in 16-byte words (256 in the chip). Only
    /// the area model reads it: the timeline models no FIFO occupancy.
    pub const FIFO_DEPTH: usize = 256;
    /// Extend pipeline fill before the first 16-base comparison (paper
    /// §4.3.2: "after five initial cycles").
    pub const EXTEND_FILL_CYCLES: Cycle = 5;
    /// Per-cell issue overhead when a section's extends are pipelined
    /// back-to-back within a phase.
    pub const EXTEND_ISSUE_CYCLES: Cycle = 1;
    /// Fixed per-score-iteration control overhead (range bookkeeping,
    /// frame-column rotation).
    pub const SCORE_LOOP_OVERHEAD: Cycle = 6;

    /// The taped-out WFAsic: 1 Aligner × 64 parallel sections, 10K reads,
    /// error scores to 8000 (k_max = 3998), penalties (4, 6, 2).
    pub fn wfasic_chip() -> Self {
        AccelConfig {
            num_aligners: 1,
            parallel_sections: 64,
            k_max: 3998,
            max_supported_len: 10_000,
            penalties: Penalties::WFASIC_DEFAULT,
            bus: BusConfig::WFASIC_DEFAULT,
            duplicate_edge_banks: true,
            extend_bases_per_cycle: 16,
            compute_batch_cycles: 4,
        }
    }

    /// FPGA-prototype style instance with `n` Aligners (Fig. 10).
    pub fn with_aligners(mut self, n: usize) -> Self {
        assert!(n >= 1);
        self.num_aligners = n;
        self
    }

    /// Change the number of parallel sections (Fig. 11's 2×32PS variant).
    pub fn with_parallel_sections(mut self, p: usize) -> Self {
        assert!(p >= 1);
        self.parallel_sections = p;
        self
    }

    /// Replace the shared AXI-Full port timing (the design-space sweep's
    /// bus latency/bandwidth axis).
    pub fn with_bus(mut self, bus: BusConfig) -> Self {
        self.bus = bus;
        self
    }

    /// Fold the duplicated M-window edge banks away (the design-space
    /// sweep's banking axis). Two fewer memory macros per Aligner, but the
    /// edge sections' neighbour reads now collide with the regular banks,
    /// so every compute batch pays one extra cycle. The area model
    /// ([`crate::area`]) and the cycle model both read this coupling from
    /// the config, keeping the §5.4 area/performance trade consistent.
    pub fn with_folded_edge_banks(mut self) -> Self {
        self.duplicate_edge_banks = false;
        self.compute_batch_cycles += 1;
        self
    }

    /// Maximum alignment score the instance can complete (Eq. 6).
    pub fn score_max(&self) -> u32 {
        Penalties::hardware_score_max(self.k_max)
    }

    /// Rows of the wavefront matrix (`2*k_max + 1` diagonals).
    pub fn wavefront_rows(&self) -> usize {
        2 * self.k_max as usize + 1
    }

    /// Retained M wavefront columns: previous wavefronts within the deepest
    /// lookback `max(x, o+e)`, at the minimum score step (the gcd of the
    /// penalty deltas). For (4, 6, 2) this is 8 / 2 = 4, matching the
    /// paper's "only 4, 1 and 1 previous wavefront vectors of M̃, Ĩ and D̃".
    pub fn m_window_columns(&self) -> usize {
        let p = self.penalties;
        let step = gcd(gcd(p.x, p.e), p.o + p.e).max(1);
        (p.x.max(p.o + p.e) / step) as usize
    }

    /// Depth of one Input_Seq RAM in 4-byte words: ID + length + packed
    /// bases ([`SECTION`] per word). Paper §4.2: "at least 627 words" for
    /// 10K.
    pub fn input_ram_words(&self) -> usize {
        2 + self.max_supported_len.div_ceil(SECTION)
    }

    /// Validate internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        self.penalties.validate().map_err(|e| e.to_string())?;
        if self.parallel_sections == 0 || self.num_aligners == 0 {
            return Err("need at least one aligner and one parallel section".into());
        }
        if self.extend_bases_per_cycle == 0 {
            return Err("extend width must be positive".into());
        }
        if !self.max_supported_len.is_multiple_of(SECTION) {
            return Err(format!(
                "max supported length must be a multiple of the {SECTION}-byte section"
            ));
        }
        Ok(())
    }
}

impl Default for AccelConfig {
    fn default() -> Self {
        Self::wfasic_chip()
    }
}

fn gcd(a: u32, b: u32) -> u32 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chip_config_matches_paper() {
        let c = AccelConfig::wfasic_chip();
        assert_eq!(c.num_aligners, 1);
        assert_eq!(c.parallel_sections, 64);
        assert_eq!(c.score_max(), 8000);
        assert_eq!(c.max_supported_len, 10_000);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn input_ram_depth_matches_paper() {
        // Paper: "the depth is at least 627 words (10K / 16 + 2)".
        assert_eq!(AccelConfig::wfasic_chip().input_ram_words(), 627);
    }

    #[test]
    fn m_window_columns_for_default_penalties() {
        assert_eq!(AccelConfig::wfasic_chip().m_window_columns(), 4);
    }

    #[test]
    fn builders() {
        let c = AccelConfig::wfasic_chip()
            .with_aligners(2)
            .with_parallel_sections(32);
        assert_eq!(c.num_aligners, 2);
        assert_eq!(c.parallel_sections, 32);
    }

    #[test]
    fn folded_edge_banks_trade_macros_for_a_compute_cycle() {
        let base = AccelConfig::wfasic_chip();
        let folded = base.with_folded_edge_banks();
        assert!(!folded.duplicate_edge_banks);
        assert_eq!(
            folded.compute_batch_cycles,
            base.compute_batch_cycles + 1,
            "folding serializes the neighbour read"
        );
        assert!(folded.validate().is_ok());
    }

    #[test]
    fn with_bus_swaps_port_timing() {
        let c = AccelConfig::wfasic_chip().with_bus(BusConfig::LOW_LATENCY);
        assert_eq!(c.bus.burst_latency, 14);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut c = AccelConfig::wfasic_chip();
        c.parallel_sections = 0;
        assert!(c.validate().is_err());
        let mut c = AccelConfig::wfasic_chip();
        c.max_supported_len = 10_001;
        assert!(c.validate().is_err());
    }
}
