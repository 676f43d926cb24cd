//! Cycle bookkeeping shared by all device models.
//!
//! The paper measures performance in clock cycles on the FPGA prototype
//! ("regardless of the FPGA frequency"); every timing model in this
//! workspace does the same and converts to seconds only at reporting time
//! (e.g. scaling to the 1.1 GHz post-PnR ASIC frequency for Table 2).

/// A clock-cycle count.
pub type Cycle = u64;

/// Convert cycles to seconds at a given clock frequency in Hz.
pub fn cycles_to_seconds(cycles: Cycle, hz: f64) -> f64 {
    cycles as f64 / hz
}

/// The post-PnR WFAsic ASIC frequency (paper §5.2): 1.1 GHz.
pub const WFASIC_ASIC_HZ: f64 = 1.1e9;

/// The Sargantana CPU frequency (paper §3): 1.26 GHz.
pub const SARGANTANA_HZ: f64 = 1.26e9;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frequency_conversion() {
        let t = cycles_to_seconds(1_100_000_000, WFASIC_ASIC_HZ);
        assert!((t - 1.0).abs() < 1e-9);
    }
}
