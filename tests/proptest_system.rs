//! System-level property test: the whole co-design (device, driver and CPU
//! backtrace) agrees with the SWG oracle on arbitrary one-pair jobs.
//!
//! This is the oracle matrix's `device` row on its random one-pair slice
//! (`matrix/mod.rs`): 40 jobs of one pair of 0–120 bp with 0–9 edits,
//! empty sides included, backtrace on.

mod matrix;

use matrix::{check, Kind};

/// Device scores equal the SWG oracle; backtrace CIGARs are valid and cost
/// exactly the score.
#[test]
fn codesign_matches_oracle() {
    assert_eq!(check(&["device"], |s| s.kind == Kind::RandomOne), [40]);
}
