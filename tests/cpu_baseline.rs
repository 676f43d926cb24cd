//! CPU-baseline consistency: the analytic Sargantana cost model and the
//! instruction-accurate RISC-V kernel must tell the same story.
//!
//! The agreement bands are no longer an order-of-magnitude guess: they are
//! the per-length calibrated bands measured and continuously re-checked by
//! the co-simulation sweep (`report -- cosim`, see
//! [`wfasic_bench::cosim::calibrated_band`] and EXPERIMENTS.md
//! "Co-simulation calibration").

use wfasic::driver::CpuCosts;
use wfasic::riscv::kernels::run_wfa_scalar;
use wfasic::seqio::PairGenerator;
use wfasic::wfa::{wfa_align_seqs, Penalties, WfaOptions};
use wfasic_bench::cosim::calibrated_band;

#[test]
fn analytic_model_stays_inside_the_calibrated_cosim_bands() {
    // The analytic model prices the optimized WFA C code; our hand-written
    // kernel recomputes full (-d..d) columns every score step, so the
    // analytic/interpreter ratio sits below 1 — but it must stay inside
    // the band the co-sim sweep calibrated for this length class.
    let costs = CpuCosts::sargantana_scalar();
    let mut work = Vec::new();
    for (len, rate, seed) in [(80usize, 0.05, 1u64), (150, 0.08, 2), (200, 0.10, 3)] {
        let p = PairGenerator::new(len, rate, seed).pair();
        let isa = run_wfa_scalar(&p.a.bytes(), &p.b.bytes());
        assert!(isa.score.is_some());
        let sw = wfa_align_seqs(
            &p.a,
            &p.b,
            &WfaOptions::score_only(Penalties::WFASIC_DEFAULT),
        )
        .unwrap();
        let analytic = costs.align_cycles(&sw.stats);
        let ratio = analytic as f64 / isa.stats.cycles as f64;
        let (lo, hi) = calibrated_band(len);
        assert!(
            (lo..=hi).contains(&ratio),
            "len={len} rate={rate}: analytic {analytic} vs ISA {} \
             (ratio {ratio:.3} outside calibrated band [{lo}, {hi}])",
            isa.stats.cycles
        );
        work.push((len as f64 * rate, isa.stats.cycles, analytic));
    }
    // Monotonicity, both models: more WFA work in, more cycles out.
    assert!(
        work.windows(2).all(|w| w[1].1 > w[0].1),
        "ISA kernel cycles not monotone in edit volume: {work:?}"
    );
    assert!(
        work.windows(2).all(|w| w[1].2 > w[0].2),
        "analytic cycles not monotone in edit volume: {work:?}"
    );
}

#[test]
fn vector_model_strictly_faster_on_real_workloads() {
    let scalar = CpuCosts::sargantana_scalar();
    let vector = CpuCosts::sargantana_vector();
    let mut g = PairGenerator::new(1000, 0.10, 9);
    let p = g.pair();
    let sw = wfa_align_seqs(
        &p.a,
        &p.b,
        &WfaOptions::score_only(Penalties::WFASIC_DEFAULT),
    )
    .unwrap();
    assert!(vector.align_cycles(&sw.stats) < scalar.align_cycles(&sw.stats));
}
