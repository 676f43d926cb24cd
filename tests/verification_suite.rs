//! The paper's §5.1 verification flow on the chip configuration: its six
//! input-set shapes (100/250/600 bp at 5 and 10% error, 4 pairs each)
//! through the device with backtrace off and on, every score checked
//! against the SWG oracle and every CIGAR replayed to its score.
//!
//! These are the oracle matrix's `device` row on its paper slices
//! (`matrix/mod.rs`); the other hardware configurations are rows of
//! `oracle_matrix.rs`.

mod matrix;

use matrix::{check, Kind};

#[test]
fn chip_config_no_backtrace() {
    let pairs = check(&["device"], |s| s.kind == Kind::Paper && !s.backtrace);
    assert_eq!(pairs, [6 * 4]);
}

#[test]
fn chip_config_with_backtrace() {
    let pairs = check(&["device"], |s| s.kind == Kind::Paper && s.backtrace);
    assert_eq!(pairs, [6 * 4]);
}
