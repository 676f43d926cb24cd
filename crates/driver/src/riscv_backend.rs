//! [`RiscvBackend`] — the paper's CPU baseline as a first-class execution
//! engine.
//!
//! Fig. 9/10 compare WFAsic against "a publicly available C implementation
//! of the WFA executed on the RISC-V CPU of the SoC". This backend runs
//! that baseline for real: the hand-written RV64IM WFA kernel executes on
//! the interpreter with the Sargantana-like 7-stage timing model, and the
//! modeled cycle/instruction totals come back through the same
//! [`BackendBatch`]/[`BackendCounters`] plumbing every other engine uses —
//! so the headline comparison flows through the regression-gated service
//! and report paths instead of living in a one-off script.
//!
//! Three independent models of the same core are kept in continuous
//! agreement (the FERIVer/BZL-style verification-in-the-loop shape):
//!
//! 1. the **ISA kernel** on the interpreter — scores must be byte-identical
//!    to `wfa_align` on every in-envelope pair (a hard assert, not a band);
//! 2. the **analytic model** ([`CpuCosts::sargantana_scalar`]) — per-pair
//!    cycles must stay within a wide structural tripwire of the
//!    interpreter's (the *calibrated* per-workload-class bands live in the
//!    co-simulation sweep, which measures them over non-degenerate
//!    workloads; a single identical-sequence pair legitimately sits far
//!    from the analytic fixed cost);
//! 3. the **mhpm-style counters** ([`BackendCounters::retired_instrs`],
//!    `sim_cycles`) — they must equal the sum of the per-pair interpreter
//!    stats exactly, which the co-sim sweep cross-checks.
//!
//! Answers (scores *and* CIGARs) come from the same software-WFA call every
//! CPU path uses, so the backend is exact everywhere — pairs outside the
//! kernel's score-512/band-254 envelope are still answered, with the
//! analytic model charged for their cycles instead of the interpreter.

use crate::api::{AlignmentResult, DriverError};
use crate::backend::{AlignPolicy, AlignmentBackend, BackendBatch, BackendCounters, Capabilities};
use crate::batch::BatchJob;
use crate::cpu_model::{software_backtrace_cycles, CpuCosts};
use wfa_core::cigar::Op;
use wfa_core::{wfa_align_seqs_with_arena, Penalties, WavefrontArena, WfaOptions};
use wfasic_riscv::kernels::{run_wfa_program, wfa_scalar_program_for, MAX_KERNEL_SEQ};
use wfasic_riscv::Program;
use wfasic_soc::clock::Cycle;

/// The kernel's score envelope (`li t0, 512` in the kernel source).
pub const KERNEL_SCORE_MAX: u32 = 512;
/// The kernel's diagonal band (`|m - n| <= 254`).
pub const KERNEL_BAND: usize = 254;

/// Structural tripwire between interpreter cycles and the analytic model,
/// asserted per in-envelope pair. Deliberately wide: degenerate pairs
/// (identical or empty sequences) finish in a few thousand interpreter
/// cycles while the analytic model's fixed `per_alignment` term alone is
/// 30k. The honest per-class bands are measured and gated by the co-sim
/// sweep; this one only catches a model that is broken outright.
pub const ANALYTIC_TRIPWIRE_FACTOR: u64 = 200;

/// The WFA kernel running on the RV64IM interpreter with Sargantana-like
/// timing — the paper's CPU baseline behind the standard backend trait.
#[derive(Debug)]
pub struct RiscvBackend {
    /// Penalty model (the kernel is re-templated for it at construction).
    pub penalties: Penalties,
    program: Program,
    arena: WavefrontArena,
    counters: BackendCounters,
}

impl RiscvBackend {
    /// Build the backend, assembling the scalar kernel templated for
    /// `penalties`. Panics if a wavefront lookback (`x`, `o + e`, `e`)
    /// falls outside the kernel's 16-slot ring.
    pub fn new(penalties: Penalties) -> Self {
        RiscvBackend {
            penalties,
            program: wfa_scalar_program_for(penalties.x, penalties.o, penalties.e),
            arena: WavefrontArena::new(),
            counters: BackendCounters::default(),
        }
    }

    /// Is this pair inside the ISA kernel's own envelope (memory map,
    /// diagonal band)? The score envelope is checked after the host align.
    fn kernel_admits(a: &[u8], b: &[u8]) -> bool {
        a.len() <= MAX_KERNEL_SEQ
            && b.len() <= MAX_KERNEL_SEQ
            && a.len().abs_diff(b.len()) <= KERNEL_BAND
    }
}

impl AlignmentBackend for RiscvBackend {
    fn capabilities(&self) -> Capabilities {
        Capabilities {
            name: "riscv",
            // A CPU baseline has no Eq. 5/6 envelope: every pair is
            // answered (out-of-kernel-envelope pairs by the same software
            // WFA, costed analytically).
            max_len: usize::MAX,
            score_max: None,
            lanes: 0,
        }
    }

    fn align_batch(&mut self, job: &BatchJob) -> Result<BackendBatch, DriverError> {
        let costs = CpuCosts::sargantana_scalar();
        let mut results = Vec::with_capacity(job.pairs.len());
        let mut kernel_cycles: Cycle = 0;
        for pair in &job.pairs {
            let opts = if job.backtrace {
                WfaOptions::exact(self.penalties)
            } else {
                WfaOptions::score_only(self.penalties)
            };
            let host = match wfa_align_seqs_with_arena(&pair.a, &pair.b, &opts, &mut self.arena) {
                Ok(al) => al,
                Err(_) => {
                    results.push(AlignmentResult {
                        id: pair.id,
                        success: false,
                        score: 0,
                        cigar: None,
                        recovered: false,
                    });
                    continue;
                }
            };
            let analytic = costs.align_cycles(&host.stats);

            let (ka, kb) = (pair.a.bytes(), pair.b.bytes());
            if Self::kernel_admits(&ka, &kb) && host.score <= KERNEL_SCORE_MAX {
                // In the kernel envelope: the score comes out of the
                // interpreter too, and must agree exactly — the per-pair
                // co-simulation invariant.
                let run = run_wfa_program(&self.program, &ka, &kb);
                assert_eq!(
                    run.score,
                    Some(host.score),
                    "ISA kernel disagrees with wfa_align on pair {}",
                    pair.id
                );
                let isa = run.stats.cycles;
                assert!(
                    isa <= ANALYTIC_TRIPWIRE_FACTOR.saturating_mul(analytic)
                        && analytic <= ANALYTIC_TRIPWIRE_FACTOR.saturating_mul(isa.max(1)),
                    "analytic model structurally off: isa={isa} analytic={analytic} (pair {})",
                    pair.id
                );
                kernel_cycles += isa;
                self.counters.retired_instrs += run.stats.instret;
            } else {
                // Outside the score-512/band-254 envelope the kernel would
                // return -1; the baseline still answers (same software
                // WFA), charged at the analytic model's rate.
                kernel_cycles += analytic;
            }

            if job.backtrace {
                // The ISA kernel is score-only; a CIGAR-producing CPU
                // baseline additionally runs the modeled software
                // backtrace (paper §4.5).
                let edits = host
                    .cigar
                    .as_ref()
                    .map(|c| c.ops().filter(|o| *o != Op::Match).count() as u64)
                    .unwrap_or(0);
                let seq_bases = (pair.a.len() + pair.b.len()) as u64;
                kernel_cycles += software_backtrace_cycles(&host.stats, edits, seq_bases);
            }

            results.push(AlignmentResult {
                id: pair.id,
                success: true,
                score: host.score,
                cigar: host.cigar,
                recovered: false,
            });
        }

        let batch = BackendBatch {
            results,
            sim_cycles: Some(kernel_cycles),
            perf: None,
            reports: Vec::new(),
        };
        self.counters.absorb(&batch);
        Ok(batch)
    }

    fn counters(&self) -> BackendCounters {
        self.counters
    }

    fn reset_counters(&mut self) {
        self.counters = BackendCounters::default();
    }

    fn apply_policy(&mut self, _policy: &AlignPolicy) {
        // A software baseline has no watchdog, lanes or fault surface.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfasic_seqio::dataset::InputSetSpec;
    use wfasic_seqio::generate::Pair;

    #[test]
    fn in_envelope_pairs_run_on_the_interpreter() {
        let mut backend = RiscvBackend::new(Penalties::WFASIC_DEFAULT);
        let pairs = InputSetSpec {
            length: 80,
            error_pct: 5,
        }
        .generate(4, 0x8157)
        .pairs;
        let batch = backend.align_batch(&BatchJob::score_only(pairs)).unwrap();
        assert!(batch.results.iter().all(|r| r.success));
        assert!(batch.sim_cycles.unwrap() > 0);
        let c = backend.counters();
        assert!(c.retired_instrs > 0, "kernel instructions were retired");
        assert!(c.sim_cycles > 0, "the batch's kernel cycles are counted");
    }

    #[test]
    fn out_of_envelope_pairs_still_get_exact_answers() {
        // 200 guaranteed mismatches: score 800 > the kernel's 512 cap, so
        // the kernel would fail — the backend answers anyway, charging the
        // analytic model.
        let mut backend = RiscvBackend::new(Penalties::WFASIC_DEFAULT);
        let pair = Pair::new(7, vec![b'A'; 200], vec![b'T'; 200]);
        let res = backend.align_one(&pair, false).unwrap();
        assert!(res.success);
        assert_eq!(res.score, 800);
        assert_eq!(
            backend.counters().retired_instrs,
            0,
            "no interpreter run for an out-of-envelope pair"
        );
        assert!(
            backend.counters().sim_cycles > 0,
            "the out-of-envelope pair is charged the analytic model"
        );
    }

    #[test]
    fn backtrace_costs_more_than_score_only() {
        let pairs = InputSetSpec {
            length: 100,
            error_pct: 5,
        }
        .generate(2, 0xB7)
        .pairs;
        let mut score_only = RiscvBackend::new(Penalties::WFASIC_DEFAULT);
        let a = score_only
            .align_batch(&BatchJob::score_only(pairs.clone()))
            .unwrap();
        let mut traced = RiscvBackend::new(Penalties::WFASIC_DEFAULT);
        let b = traced
            .align_batch(&BatchJob::with_backtrace(pairs))
            .unwrap();
        assert!(b.results.iter().all(|r| r.cigar.is_some()));
        assert!(
            b.sim_cycles.unwrap() > a.sim_cycles.unwrap(),
            "the modeled software backtrace adds cycles"
        );
    }
}
