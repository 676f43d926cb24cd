//! Analytical area / frequency / power model (paper §5.2, Fig. 8).
//!
//! Physical design cannot be reproduced in software, so this model does what
//! the paper's area discussion does: budget arithmetic over the memory
//! macros and logic, anchored to the reported GF22FDX post-PnR numbers
//! (1.6 mm², 1.1 GHz, 312 mW, 260 memory macros totalling 0.48 MB and
//! occupying 85% of the area). Everything scales structurally with the
//! configuration, so the §5.4 design-space comparison (1×64PS vs 2×32PS)
//! can be reproduced with consistent area numbers.

use crate::config::AccelConfig;

/// The paper's anchor numbers for the taped-out configuration.
pub mod anchors {
    /// Post-PnR accelerator area, mm².
    pub const AREA_MM2: f64 = 1.6;
    /// Fraction of the area occupied by the 260 memory macros.
    pub const MACRO_AREA_FRACTION: f64 = 0.85;
    /// Total on-chip memory, bytes.
    pub const MEM_BYTES: f64 = 0.48 * 1024.0 * 1024.0;
    /// Post-PnR frequency, Hz (typical corner, 0.8 V, 85 °C).
    pub const FREQ_HZ: f64 = 1.1e9;
    /// Post-PnR power, W.
    pub const POWER_W: f64 = 0.312;
    /// Sargantana CPU area for the whole-SoC figure, mm².
    pub const CPU_AREA_MM2: f64 = 1.37;
}

/// Bits per stored wavefront offset (14-bit offsets for 10K reads, padded
/// to 16 in the macros).
const OFFSET_BITS: usize = 16;

/// An area/memory report for a configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaReport {
    /// Number of memory macros (RAM instances).
    pub memory_macros: usize,
    /// Total on-chip memory in bytes.
    pub memory_bytes: usize,
    /// Estimated accelerator area, mm².
    pub area_mm2: f64,
    /// Estimated power, W.
    pub power_w: f64,
    /// Post-PnR frequency, Hz.
    pub freq_hz: f64,
    /// Memory breakdown: (input_seq, wavefront_m, wavefront_id, fifos) bytes.
    pub breakdown: MemBreakdown,
}

impl AreaReport {
    /// Power at a DVFS-scaled clock. Around the 1.1 GHz design point the
    /// supply voltage tracks frequency, so dynamic power (which dominates
    /// the 312 mW post-PnR figure) scales with `f·V² ≈ f³`. This is what
    /// gives the design-space sweep a real clock trade: raising the clock
    /// buys GCUPS/mm² but pays cubically in GCUPS/W.
    pub fn power_at(&self, hz: f64) -> f64 {
        self.power_w * (hz / anchors::FREQ_HZ).powi(3)
    }
}

/// Per-structure memory bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemBreakdown {
    /// Input_Seq a+b RAM replicas.
    pub input_seq: usize,
    /// M wavefront window banks (including the duplicated edge banks).
    pub wavefront_m: usize,
    /// Merged I/D wavefront window banks.
    pub wavefront_id: usize,
    /// Input + output FIFOs.
    pub fifos: usize,
}

/// Count memory macros for a configuration (paper §4.6: per Aligner, one
/// Input_Seq a and b RAM per parallel section, one M bank per section plus
/// the two duplicated edge banks — unless folded away — and one merged I/D
/// bank per section; plus the two device FIFOs).
pub fn memory_macros(cfg: &AccelConfig) -> usize {
    let per_aligner = cfg.parallel_sections * 2  // Input_Seq a, b replicas
        + cfg.parallel_sections + edge_banks(cfg) // Wavefront_M banks (+ RAM 1'/RAM N')
        + cfg.parallel_sections; // merged Wavefront_I/D banks
    cfg.num_aligners * per_aligner + 2 // input + output FIFOs
}

/// Duplicated M-window edge banks per Aligner: 2 in the taped-out chip,
/// 0 when the banking sweep folds them away.
fn edge_banks(cfg: &AccelConfig) -> usize {
    if cfg.duplicate_edge_banks {
        2
    } else {
        0
    }
}

/// Memory bytes by structure.
pub fn memory_breakdown(cfg: &AccelConfig) -> MemBreakdown {
    let p = cfg.parallel_sections;
    let input_words = cfg.input_ram_words();
    let input_seq = cfg.num_aligners * 2 * p * input_words * 4;

    // Wavefront windows: rows striped over P banks; each bank holds
    // rows_per_bank × columns offsets of OFFSET_BITS bits.
    let rows_per_bank = cfg.wavefront_rows().div_ceil(p);
    let m_cols = cfg.m_window_columns() + 1; // previous + frame
    let bank_bytes = |cols: usize| rows_per_bank * cols * OFFSET_BITS / 8;
    let wavefront_m = cfg.num_aligners * (p + edge_banks(cfg)) * bank_bytes(m_cols);
    // I and D merged: (1 previous + frame) each.
    let wavefront_id = cfg.num_aligners * p * bank_bytes(4);

    let fifos = 2 * cfg.fifo_depth * 16;
    MemBreakdown {
        input_seq,
        wavefront_m,
        wavefront_id,
        fifos,
    }
}

/// Build the full report, scaling area/power from the paper's anchors by
/// the memory footprint (macros dominate at 85%) and the logic by the
/// number of parallel sections.
pub fn area_report(cfg: &AccelConfig) -> AreaReport {
    let chip = AccelConfig::wfasic_chip();
    let b = memory_breakdown(cfg);
    let memory_bytes = b.input_seq + b.wavefront_m + b.wavefront_id + b.fifos;
    let chip_b = memory_breakdown(&chip);
    let chip_bytes = chip_b.input_seq + chip_b.wavefront_m + chip_b.wavefront_id + chip_b.fifos;

    let macro_area =
        anchors::AREA_MM2 * anchors::MACRO_AREA_FRACTION * memory_bytes as f64 / chip_bytes as f64;
    let logic_scale = (cfg.num_aligners * cfg.parallel_sections) as f64
        / (chip.num_aligners * chip.parallel_sections) as f64;
    let logic_area = anchors::AREA_MM2 * (1.0 - anchors::MACRO_AREA_FRACTION) * logic_scale;
    let area = macro_area + logic_area;

    AreaReport {
        memory_macros: memory_macros(cfg),
        memory_bytes,
        area_mm2: area,
        power_w: anchors::POWER_W * area / anchors::AREA_MM2,
        freq_hz: anchors::FREQ_HZ,
        breakdown: b,
    }
}

/// Whole-SoC report for `lanes` identical WFAsic instances behind one
/// shared memory controller (the topology of `wfasic-driver`'s
/// `MultiLaneBackend`): memories, area and power replicate per lane. The arbiter and
/// interconnect are below this model's resolution, matching the paper's
/// treatment of the SoC glue.
pub fn soc_area_report(cfg: &AccelConfig, lanes: usize) -> AreaReport {
    assert!(lanes >= 1, "an SoC has at least one lane");
    let r = area_report(cfg);
    let n = lanes as f64;
    AreaReport {
        memory_macros: r.memory_macros * lanes,
        memory_bytes: r.memory_bytes * lanes,
        area_mm2: r.area_mm2 * n,
        power_w: r.power_w * n,
        freq_hz: r.freq_hz,
        breakdown: MemBreakdown {
            input_seq: r.breakdown.input_seq * lanes,
            wavefront_m: r.breakdown.wavefront_m * lanes,
            wavefront_id: r.breakdown.wavefront_id * lanes,
            fifos: r.breakdown.fifos * lanes,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chip_macro_count_matches_paper() {
        // 64×2 Input_Seq + 64 M + 2 duplicates + 64 I/D + 2 FIFOs = 260.
        assert_eq!(memory_macros(&AccelConfig::wfasic_chip()), 260);
    }

    #[test]
    fn chip_memory_near_048_mb() {
        let b = memory_breakdown(&AccelConfig::wfasic_chip());
        let total = (b.input_seq + b.wavefront_m + b.wavefront_id + b.fifos) as f64;
        let mb = total / (1024.0 * 1024.0);
        assert!(
            (mb - 0.48).abs() < 0.05,
            "on-chip memory should be ~0.48 MB, got {mb:.3} MB"
        );
    }

    #[test]
    fn chip_area_and_power_anchor() {
        let r = area_report(&AccelConfig::wfasic_chip());
        assert!((r.area_mm2 - anchors::AREA_MM2).abs() < 1e-9);
        assert!((r.power_w - anchors::POWER_W).abs() < 1e-9);
        assert_eq!(r.freq_hz, 1.1e9);
        assert_eq!(r.memory_macros, 260);
    }

    #[test]
    fn paper_claim_32ps_is_1_5x_smaller() {
        // §5.4: "One Aligner with 32 parallel sections is only 1.5× smaller
        // than one Aligner with 64 parallel sections" (memories with fixed
        // depth-per-bank shrink less than 2×).
        let a64 = area_report(&AccelConfig::wfasic_chip());
        let a32 = area_report(&AccelConfig::wfasic_chip().with_parallel_sections(32));
        let ratio = a64.area_mm2 / a32.area_mm2;
        assert!(
            (1.2..1.9).contains(&ratio),
            "64PS/32PS area ratio should be ~1.5, got {ratio:.2}"
        );
        // Hence 2×32PS costs more area than 1×64PS.
        let two32 = area_report(
            &AccelConfig::wfasic_chip()
                .with_parallel_sections(32)
                .with_aligners(2),
        );
        assert!(two32.area_mm2 > a64.area_mm2);
    }

    #[test]
    fn folded_edge_banks_shrink_the_memory_budget() {
        let chip = AccelConfig::wfasic_chip();
        let folded = chip.with_folded_edge_banks();
        assert_eq!(memory_macros(&folded), 258, "two edge macros folded away");
        let a = area_report(&chip);
        let b = area_report(&folded);
        assert!(b.memory_bytes < a.memory_bytes);
        assert!(b.area_mm2 < a.area_mm2);
    }

    #[test]
    fn power_follows_the_dvfs_cube_law() {
        let r = area_report(&AccelConfig::wfasic_chip());
        assert!((r.power_at(anchors::FREQ_HZ) - r.power_w).abs() < 1e-12);
        let half = r.power_at(anchors::FREQ_HZ / 2.0);
        assert!((half - r.power_w / 8.0).abs() < 1e-9);
        assert!(r.power_at(1.3e9) > r.power_w);
    }

    #[test]
    fn soc_report_replicates_per_lane() {
        let cfg = AccelConfig::wfasic_chip();
        let one = soc_area_report(&cfg, 1);
        assert_eq!(one, area_report(&cfg), "one lane is the lone device");
        let four = soc_area_report(&cfg, 4);
        assert_eq!(four.memory_macros, 4 * one.memory_macros);
        assert_eq!(four.memory_bytes, 4 * one.memory_bytes);
        assert!((four.area_mm2 - 4.0 * one.area_mm2).abs() < 1e-9);
        assert!((four.power_w - 4.0 * one.power_w).abs() < 1e-9);
        assert_eq!(four.freq_hz, one.freq_hz);
    }

    #[test]
    fn memory_scales_with_aligners() {
        let r1 = area_report(&AccelConfig::wfasic_chip());
        let r2 = area_report(&AccelConfig::wfasic_chip().with_aligners(2));
        assert!(r2.memory_bytes > 19 * r1.memory_bytes / 10 - r1.breakdown.fifos * 2);
        assert!(r2.area_mm2 > 1.8 * r1.area_mm2 - 0.2);
    }
}
