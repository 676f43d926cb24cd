//! Every deterministic `report` gate at the CI tier, as integration tests:
//! `cargo test` alone runs `ci-check`, `dse`, `cosim` and `longread`
//! through the gate engine's own check against their committed baselines,
//! the same comparison CI's `gates` matrix runs as `report <gate> --check`.
//! Each gate's in-run invariants (score/CIGAR identity, counter sums,
//! calibrated analytic bands) assert while it measures.

use wfasic_bench::gate::{self, Mode, RunOptions};

fn check(name: &str) {
    let gate = gate::find(name).expect("a gate by that name");
    if let Err(why) = gate::run_gate(gate, RunOptions::quick(), Mode::Check, None, None) {
        panic!("{why}");
    }
}

#[test]
fn ci_check_cycles_match_the_committed_baseline() {
    check("ci-check");
}

#[test]
fn dse_frontier_matches_the_committed_baseline() {
    check("dse");
}

#[test]
fn cosim_sweep_matches_the_committed_baseline() {
    check("cosim");
}

#[test]
fn longread_routing_matches_the_committed_baseline() {
    check("longread");
}
