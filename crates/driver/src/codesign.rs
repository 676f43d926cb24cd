//! The co-designed pipeline of paper Fig. 4, with per-phase cycle
//! accounting, plus the CPU-only baselines every experiment compares
//! against.
//!
//! For one input set this produces:
//!
//! * the accelerator job cycles (with or without backtrace),
//! * the CPU-side backtrace cycles (separation or no-separation method),
//! * the CPU scalar and vector WFA baselines (from real `wfa-core` runs
//!   mapped through the Sargantana cost models),
//! * per-pair alignment/reading cycles (Table 1's columns) and Eq. 7's
//!   `MaxAligners`.

use crate::api::WfasicDriver;
use crate::cpu_model::{software_backtrace_cycles, CpuCosts};
use wfa_core::wfa::{wfa_align_seqs, WfaOptions};
use wfasic_accel::AccelConfig;
use wfasic_seqio::generate::Pair;
use wfasic_soc::clock::Cycle;

/// Everything measured for one input set under one configuration.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Number of pairs aligned.
    pub pairs: usize,
    /// Was backtrace enabled?
    pub backtrace: bool,
    /// Was the data-separation method used for the CPU backtrace?
    pub separated: bool,
    /// Accelerator job cycles (Fig. 4 step 2).
    pub accel_cycles: Cycle,
    /// CPU backtrace cycles (Fig. 4 step 3; 0 when backtrace is off).
    pub cpu_bt_cycles: Cycle,
    /// WFAsic co-design total: accelerator + CPU backtrace.
    pub wfasic_total: Cycle,
    /// CPU scalar WFA baseline over the same pairs (plus its own software
    /// backtrace when backtrace is enabled).
    pub cpu_scalar_total: Cycle,
    /// CPU vector (RVV) WFA baseline.
    pub cpu_vector_total: Cycle,
    /// Mean per-pair alignment cycles on the accelerator (Table 1).
    pub mean_align_cycles: f64,
    /// Per-pair record reading cycles (Table 1).
    pub read_cycles: Cycle,
    /// Equivalent SWG DP cells (n×m summed — the CUPS numerator, §5.5).
    pub equivalent_cells: u64,
    /// All alignments succeeded?
    pub all_success: bool,
}

impl ExperimentResult {
    /// Paper Eq. 7: `MaxAligners = roundup(Alignment_cycles / Reading_cycles) + 1`.
    pub fn max_efficient_aligners(&self) -> u64 {
        if self.read_cycles == 0 {
            return 1;
        }
        (self.mean_align_cycles / self.read_cycles as f64).ceil() as u64 + 1
    }

    /// Speedup of the co-design over the CPU scalar baseline (Fig. 9).
    pub fn speedup_vs_scalar(&self) -> f64 {
        self.cpu_scalar_total as f64 / self.wfasic_total as f64
    }

    /// Speedup of the CPU vector code over the scalar code (Fig. 9).
    pub fn vector_vs_scalar(&self) -> f64 {
        self.cpu_scalar_total as f64 / self.cpu_vector_total as f64
    }

    /// GCUPS at a clock frequency (Table 2): equivalent SWG cells per
    /// second, counting the co-design end to end.
    pub fn gcups(&self, hz: f64) -> f64 {
        let seconds = self.wfasic_total as f64 / hz;
        self.equivalent_cells as f64 / seconds / 1e9
    }
}

/// Run the full co-designed pipeline and the CPU baselines for one set of
/// pairs. `force_separation` selects the Fig. 11 `[Sep]` method even on a
/// single-Aligner device.
pub fn run_experiment(
    cfg: &AccelConfig,
    pairs: &[Pair],
    backtrace: bool,
    force_separation: bool,
) -> ExperimentResult {
    let mut drv = WfasicDriver::new(*cfg);
    drv.policy.force_separation = force_separation;
    let job = drv
        .submit(pairs, backtrace)
        .expect("fault-free experiment job cannot fail");

    // CPU baselines from real software-WFA work measurements.
    let scalar = CpuCosts::sargantana_scalar();
    let vector = CpuCosts::sargantana_vector();
    let mut cpu_scalar_total: Cycle = 0;
    let mut cpu_vector_total: Cycle = 0;
    let mut equivalent_cells: u64 = 0;
    for pair in pairs {
        let r = wfa_align_seqs(&pair.a, &pair.b, &WfaOptions::score_only(cfg.penalties))
            .expect("unbounded software WFA cannot fail");
        cpu_scalar_total += scalar.align_cycles(&r.stats);
        cpu_vector_total += vector.align_cycles(&r.stats);
        equivalent_cells += pair.a.len() as u64 * pair.b.len() as u64;
        if backtrace {
            // The CPU baseline also has to produce the alignment: add its
            // software backtrace.
            let edits = estimate_edits(pair, r.score);
            let seq = (pair.a.len() + pair.b.len()) as u64;
            let bt = software_backtrace_cycles(&r.stats, edits, seq);
            cpu_scalar_total += bt;
            cpu_vector_total += bt; // the backtrace does not vectorize
        }
    }

    let mean_align_cycles = job
        .report
        .pairs
        .iter()
        .map(|p| p.align_cycles as f64)
        .sum::<f64>()
        / job.report.pairs.len().max(1) as f64;
    let read_cycles = job.report.pairs.first().map(|p| p.read_cycles).unwrap_or(0);
    let all_success = job.results.iter().all(|r| r.success);

    ExperimentResult {
        pairs: pairs.len(),
        backtrace,
        separated: job.separated,
        accel_cycles: job.report.total_cycles,
        cpu_bt_cycles: job.cpu_backtrace_cycles,
        wfasic_total: job.report.total_cycles + job.cpu_backtrace_cycles,
        cpu_scalar_total,
        cpu_vector_total,
        mean_align_cycles,
        read_cycles,
        equivalent_cells,
        all_success,
    }
}

/// Cheap edit-count estimate for the software-backtrace cost: the score
/// bounds the number of edits between `score/(x or o+e)` and `score/e`.
fn estimate_edits(_pair: &Pair, score: u32) -> u64 {
    (score / 3).max(1) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfasic_seqio::dataset::InputSetSpec;

    fn pairs(len: usize, pct: u32, n: usize, seed: u64) -> Vec<Pair> {
        InputSetSpec {
            length: len,
            error_pct: pct,
        }
        .generate(n, seed)
        .pairs
    }

    #[test]
    fn accelerator_beats_cpu_scalar() {
        let p = pairs(1000, 10, 3, 1);
        let r = run_experiment(&AccelConfig::wfasic_chip(), &p, false, false);
        assert!(r.all_success);
        assert!(
            r.speedup_vs_scalar() > 20.0,
            "1K-10% no-BT speedup should be large, got {:.1}",
            r.speedup_vs_scalar()
        );
    }

    #[test]
    fn bt_speedup_smaller_than_nbt_speedup() {
        let p = pairs(1000, 10, 3, 2);
        let nbt = run_experiment(&AccelConfig::wfasic_chip(), &p, false, false);
        let bt = run_experiment(&AccelConfig::wfasic_chip(), &p, true, false);
        assert!(
            bt.speedup_vs_scalar() < nbt.speedup_vs_scalar(),
            "bt {:.1} vs nbt {:.1}",
            bt.speedup_vs_scalar(),
            nbt.speedup_vs_scalar()
        );
    }

    #[test]
    fn separation_hurts() {
        let p = pairs(1000, 10, 2, 3);
        let nosep = run_experiment(&AccelConfig::wfasic_chip(), &p, true, false);
        let sep = run_experiment(&AccelConfig::wfasic_chip(), &p, true, true);
        assert!(sep.wfasic_total > nosep.wfasic_total);
    }

    #[test]
    fn eq7_max_aligners_grows_with_length_and_error() {
        let short = run_experiment(
            &AccelConfig::wfasic_chip(),
            &pairs(100, 5, 4, 4),
            false,
            false,
        );
        let long = run_experiment(
            &AccelConfig::wfasic_chip(),
            &pairs(1000, 10, 4, 4),
            false,
            false,
        );
        assert!(
            long.max_efficient_aligners() > short.max_efficient_aligners(),
            "long {} vs short {}",
            long.max_efficient_aligners(),
            short.max_efficient_aligners()
        );
    }

    #[test]
    fn vector_faster_than_scalar() {
        let p = pairs(1000, 10, 2, 5);
        let r = run_experiment(&AccelConfig::wfasic_chip(), &p, false, false);
        assert!(r.vector_vs_scalar() > 1.0);
    }

    #[test]
    fn gcups_positive_and_area_normalized_sane() {
        let p = pairs(1000, 5, 2, 6);
        let r = run_experiment(&AccelConfig::wfasic_chip(), &p, false, false);
        let g = r.gcups(wfasic_soc::clock::WFASIC_ASIC_HZ);
        assert!(g > 0.0, "gcups {g}");
    }
}
