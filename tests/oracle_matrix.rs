//! The oracle matrix's row tests: each row over every slice of the grid it
//! admits. The table, the grid and the contracts are in `matrix/mod.rs`.
//!
//! Three parts of the `device` and `multilane` rows have their tests in
//! the files named for the checks they replaced: the differential sweep
//! (`differential.rs`), the paper shapes on the chip (`verification_suite.rs`)
//! and the random one-pair jobs (`proptest_system.rs`). This file checks the
//! chip `device` row on what is left, the random 2–5-pair jobs.

mod matrix;

use matrix::{check, Kind};

/// One test per row, over every slice it admits.
macro_rules! rows {
    ($($name:ident),* $(,)?) => {$(
        #[test]
        fn $name() {
            check(&[stringify!($name)], |_| true);
        }
    )*};
}

rows! {
    swg, exact, biwfa, riscv, hetero,
    device_2a_32ps, device_3a_64ps, device_4a_16ps, device_2a_8ps, device_1a_1ps,
    device_8ps, device_16ps, device_32ps, device_k12,
}

#[test]
fn device() {
    check(&["device"], |s| s.kind == Kind::RandomFew);
}
