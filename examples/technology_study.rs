//! Sequencing-technology study: how the error *mix* (not just the rate)
//! affects the accelerator — Illumina-like substitution-heavy reads vs
//! PacBio/Nanopore indel-heavy reads at the same nominal error rate. The
//! edit mix of each set comes from exact software alignments, the cycle
//! counts from the simulated chip.
//!
//! Run with: `cargo run --release --example technology_study`

use wfasic::accel::AccelConfig;
use wfasic::driver::codesign::run_experiment;
use wfasic::seqio::{ErrorProfile, PairGenerator};
use wfasic::wfa::{wfa_align_seqs, Penalties, WfaOptions};

fn main() {
    let cfg = AccelConfig::wfasic_chip();
    let penalties = Penalties::WFASIC_DEFAULT;
    let technologies: [(&str, ErrorProfile, f64); 3] = [
        ("Illumina-like", ErrorProfile::ILLUMINA, 0.01),
        ("PacBio-like", ErrorProfile::PACBIO, 0.08),
        ("Nanopore-like", ErrorProfile::NANOPORE, 0.08),
    ];

    println!(
        "{:<14} {:>6} {:>7} {:>10} {:>11} {:>11} {:>9}",
        "technology", "len", "rate", "avg score", "gap bases%", "accel cyc", "speedup"
    );
    for (name, profile, rate) in technologies {
        let len = if rate < 0.05 { 150 } else { 1_000 };
        let mut g = PairGenerator::new(len, rate, 77)
            .with_profile(profile)
            .with_max_len(len);
        let pairs = g.pairs(6);

        // Edit-mix statistics from exact alignments.
        let mut score_sum = 0u64;
        let mut gaps = 0u64;
        let mut edits = 0u64;
        for p in &pairs {
            let r = wfa_align_seqs(&p.a, &p.b, &WfaOptions::exact(penalties)).unwrap();
            score_sum += r.score as u64;
            let st = r.cigar.unwrap().stats();
            gaps += st.ins_bases + st.del_bases;
            edits += st.edits();
        }

        let exp = run_experiment(&cfg, &pairs, false, false);
        assert!(exp.all_success);
        println!(
            "{:<14} {:>6} {:>6.0}% {:>10.1} {:>10.0}% {:>11.0} {:>8.0}x",
            name,
            len,
            rate * 100.0,
            score_sum as f64 / pairs.len() as f64,
            gaps as f64 / edits.max(1) as f64 * 100.0,
            exp.mean_align_cycles,
            exp.speedup_vs_scalar()
        );
    }
}
