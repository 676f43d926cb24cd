//! The differential sweep: 2,016 fixed-seed pairs, 224 per (penalty set ×
//! shape), through the chip device in jobs of 28 and through a 4-lane
//! multilane backend that streams each shape behind the service as one
//! job. Every score equals the SWG oracle's, every CIGAR replays to its
//! score, and multilane returns the device's exact transcript.
//!
//! These are the oracle matrix's `device` and `multilane` rows on its
//! differential slices (`matrix/mod.rs`), one test per penalty set. Debug
//! builds shorten the reads to 48/100/150 bp; release builds run
//! 100/250/600 bp.

mod matrix;

use matrix::{check, Kind, PAIRS_PER_SHAPE};
use wfasic::wfa::Penalties;

/// Both rows check all three shapes of the penalty set `p`.
fn sweep(p: Penalties) {
    let pairs = check(&["device", "multilane"], |s| {
        s.kind == Kind::Sweep && s.penalties == p
    });
    assert_eq!(pairs, [3 * PAIRS_PER_SHAPE as u64; 2]);
}

#[test]
fn differential_sweep_wfasic_default_penalties() {
    sweep(Penalties::WFASIC_DEFAULT);
}

#[test]
fn differential_sweep_mismatch_heavy_penalties() {
    sweep(Penalties::new(7, 4, 1).unwrap());
}

#[test]
fn differential_sweep_gap_heavy_penalties() {
    sweep(Penalties::new(2, 8, 3).unwrap());
}
