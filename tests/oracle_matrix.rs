//! The oracle matrix's row tests: each row over every slice of the grid it
//! admits. The table, the grid and the contracts are in `matrix/mod.rs`.
//!
//! Three parts of the `device` and `multilane` rows have their tests in
//! the files named for the checks they replaced: the differential sweep
//! (`differential.rs`), the paper shapes on the chip (`verification_suite.rs`)
//! and the random one-pair jobs (`proptest_system.rs`). This file checks the
//! chip `device` row on what is left, the random 2–5-pair jobs, and BiWFA's
//! score-limit stop, which no row sets.

mod matrix;

use matrix::{check, Kind};
use wfasic::seqio::InputSetSpec;
use wfasic::wfa::{wfa_align, Penalties, WfaError, WfaOptions};

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
    swg, exact, biwfa, adaptive, riscv, hetero,
    device_2a_32ps, device_3a_64ps, device_4a_16ps, device_2a_8ps, device_1a_1ps,
    device_8ps, device_16ps, device_32ps, device_k12,
}

#[test]
fn device() {
    check(&["device"], |s| s.kind == Kind::RandomFew);
}

/// BiWFA with a score limit, on a pair past its exact cutoff (2 kb at 5%):
/// a limit at the optimum `s*` returns the unlimited score and CIGAR, and
/// `s* - 1` refuses with that limit. A meet that stopped before both sides
/// passed `horizon(limit)` would refuse the first.
#[test]
fn biwfa_score_limit_admits_the_optimum_and_refuses_below_it() {
    let pair = InputSetSpec {
        length: 2_000,
        error_pct: 5,
    }
    .generate(1, 0xB1F4_0030)
    .pairs
    .remove(0);
    let (a, b) = (pair.a.bytes(), pair.b.bytes());
    let biwfa = WfaOptions::biwfa(Penalties::WFASIC_DEFAULT);
    let limited = |limit| WfaOptions {
        score_limit: Some(limit),
        ..biwfa
    };
    let unlimited = wfa_align(&a, &b, &biwfa).unwrap();
    let s = unlimited.score;
    let at = wfa_align(&a, &b, &limited(s)).unwrap();
    assert_eq!((at.score, at.cigar), (s, unlimited.cigar));
    assert_eq!(
        wfa_align(&a, &b, &limited(s - 1)).unwrap_err(),
        WfaError::ScoreLimitExceeded { limit: s - 1 }
    );
}
