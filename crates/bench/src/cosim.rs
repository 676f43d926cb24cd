//! Differential co-simulation sweep (`report -- cosim`): the paper's
//! Fig. 9/10 CPU-baseline comparison, closed into a loop.
//!
//! Every workload class (length × error rate × penalty set) runs the same
//! fixed-seed pairs through four independent models of the alignment:
//!
//! 1. **software WFA** (`wfa_align`) — the exact oracle for scores and
//!    CIGARs;
//! 2. the **ISA kernels** — the hand-written scalar and RVV WFA kernels on
//!    the RV64IM(+V subset) interpreter with Sargantana-like 7-stage
//!    timing, templated per penalty set;
//! 3. the **analytic models** ([`CpuCosts::sargantana_scalar`] /
//!    [`CpuCosts::sargantana_vector`]) fed by the oracle's work stats;
//! 4. the **mhpm-style backend counters** — `sim_cycles` and
//!    [`retired_instrs`](wfasic_driver::BackendCounters::retired_instrs)
//!    reported by [`RiscvBackend`] through the standard trait plumbing.
//!
//! In-sweep invariants (hard asserts, not tolerances): ISA scores are
//! identical to `wfa_align` on every pair; backend-reported CIGARs are
//! byte-identical to the oracle's; the backend counters equal the sum of
//! the per-pair interpreter stats exactly; and the analytic/interpreter
//! cycle ratio stays inside the per-length [`calibrated_band`] measured by
//! this sweep (see EXPERIMENTS.md for the methodology).
//!
//! Each class also runs on the simulated WFAsic device, producing the
//! Fig. 9/10-shaped speedup table (WFAsic cycles vs the scalar and
//! vectorized CPU baselines) emitted by [`crate::report::cosim_report`] and
//! as a schema-versioned JSON record ([`render_json`], default
//! `BENCH_cosim.json`). The trailing `"metrics"` object feeds
//! [`crate::baseline::drift_report`], so `report -- cosim --check` gates the
//! deterministic cycle/instruction totals against the committed
//! `bench/baselines/cosim.json` with `ci-check` semantics.
//!
//! Determinism contract: identical to the DSE sweep — byte-identical
//! output per `(tier, seed)`, invariant to `--threads` (classes fan out
//! over the deterministic [`ThreadPool`] with per-class derived seeds).

use crate::baseline::{self, Metric};
use crate::gate::RunOptions;
use wfa_core::pool::ThreadPool;
use wfa_core::{wfa_align_seqs_with_arena, Penalties, WavefrontArena, WfaOptions};
use wfasic_accel::AccelConfig;
use wfasic_driver::batch::BatchJob;
use wfasic_driver::cpu_model::CpuCosts;
use wfasic_driver::{AlignmentBackend, BackendKind, RiscvBackend};
use wfasic_riscv::kernels::{run_wfa_program, wfa_scalar_program_for, wfa_vector_program_for};
use wfasic_seqio::dataset::InputSetSpec;

/// Schema tag written into every `BENCH_cosim.json`; bump on layout
/// changes so stale baselines fail loudly instead of comparing garbage.
pub const SCHEMA: &str = "wfasic-cosim/1";

/// Default RNG seed for the sweep workloads.
pub const DEFAULT_SEED: u64 = 0xC051_5EED;

/// The penalty-set axis: the chip's default plus the two alternates the
/// differential suite exercises. All three keep every kernel lookback
/// (`x`, `o+e`, `e`) inside the 16-slot wavefront ring.
pub const PENALTY_SETS: [Penalties; 3] = [
    Penalties { x: 4, o: 6, e: 2 },
    Penalties { x: 7, o: 4, e: 1 },
    Penalties { x: 2, o: 8, e: 3 },
];

/// One workload class: a sequence shape under one penalty set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CosimClass {
    /// Sequence shape (length, error rate).
    pub spec: InputSetSpec,
    /// Gap-affine penalties (kernels are re-templated per set).
    pub penalties: Penalties,
}

impl CosimClass {
    /// Stable class name, e.g. `100bp-5pct-x4o6e2`.
    pub fn name(&self) -> String {
        format!(
            "{}bp-{}pct-x{}o{}e{}",
            self.spec.length,
            self.spec.error_pct,
            self.penalties.x,
            self.penalties.o,
            self.penalties.e
        )
    }
}

/// One class's co-simulation outcome: four models of the same pairs.
#[derive(Debug, Clone)]
pub struct CosimRow {
    /// The workload class.
    pub class: CosimClass,
    /// Pairs in the class workload.
    pub pairs: usize,
    /// Equivalent SWG DP cells (`Σ |a|·|b|`).
    pub cells: u64,
    /// Interpreter cycles for the scalar kernel, summed over pairs.
    pub scalar_cycles: u64,
    /// Instructions retired by the scalar kernel, summed over pairs.
    pub scalar_instret: u64,
    /// Interpreter cycles for the RVV kernel, summed over pairs.
    pub vector_cycles: u64,
    /// Instructions retired by the RVV kernel, summed over pairs.
    pub vector_instret: u64,
    /// [`CpuCosts::sargantana_scalar`] cycles for the same work.
    pub analytic_scalar: u64,
    /// [`CpuCosts::sargantana_vector`] cycles for the same work.
    pub analytic_vector: u64,
    /// Simulated WFAsic device cycles for the class batch.
    pub device_cycles: u64,
}

impl CosimRow {
    /// Scalar-kernel cycles per instruction on the 7-stage model.
    pub fn scalar_cpi(&self) -> f64 {
        self.scalar_cycles as f64 / self.scalar_instret as f64
    }

    /// Analytic-model cycles over interpreter cycles (scalar) — the
    /// quantity the [`calibrated_band`] bounds.
    pub fn analytic_ratio(&self) -> f64 {
        self.analytic_scalar as f64 / self.scalar_cycles as f64
    }

    /// WFAsic speedup over the scalar CPU baseline (Fig. 9 shape).
    pub fn speedup_scalar(&self) -> f64 {
        self.scalar_cycles as f64 / self.device_cycles as f64
    }

    /// WFAsic speedup over the vectorized CPU baseline (Fig. 10 shape).
    pub fn speedup_vector(&self) -> f64 {
        self.vector_cycles as f64 / self.device_cycles as f64
    }
}

/// The whole sweep's outcome.
#[derive(Debug, Clone)]
pub struct CosimOutcome {
    /// `"quick"` or `"full"`.
    pub tier: &'static str,
    /// Workload seed.
    pub seed: u64,
    /// One row per class, in grid order.
    pub rows: Vec<CosimRow>,
}

/// Calibrated bounds on `analytic_scalar / scalar_cycles` per sequence
/// length, measured by the full-tier sweep (see EXPERIMENTS.md
/// "Co-simulation calibration"). The analytic model prices the optimized
/// C implementation; the hand-written kernel recomputes full `(-d..d)`
/// wavefront columns every score step, so it does strictly more work and
/// the ratio sits below 1. Within a length the spread is driven by the
/// penalty set (high-mismatch sets keep wavefronts narrow, pulling the
/// two models together — measured 0.18–0.61 at 200bp, up to 0.82 at
/// 400bp/10%/x7o4e1); the bands wrap the measured envelope with ~35%
/// headroom. A model or timing change that moves a class outside its band
/// fails the sweep itself, not just the JSON gate.
pub fn calibrated_band(length: usize) -> (f64, f64) {
    match length {
        0..=99 => (0.12, 0.70),
        100..=199 => (0.10, 0.75),
        200..=299 => (0.10, 0.85),
        _ => (0.10, 1.10),
    }
}

/// The class grid: quick keeps the CI tier cheap (short reads only) while
/// still crossing both error rates with every penalty set; full extends
/// the length axis toward the band limit of the kernel's score-512
/// envelope.
pub fn class_grid(quick: bool) -> Vec<CosimClass> {
    let lengths: &[usize] = if quick {
        &[80, 100]
    } else {
        &[80, 100, 200, 400]
    };
    let errors: &[u32] = if quick { &[5, 10] } else { &[2, 5, 10] };
    let mut grid = Vec::new();
    for &length in lengths {
        for &error_pct in errors {
            for penalties in PENALTY_SETS {
                grid.push(CosimClass {
                    spec: InputSetSpec { length, error_pct },
                    penalties,
                });
            }
        }
    }
    grid
}

/// Pairs per class (kept small: every pair runs on the interpreter five
/// times across the scalar/vector/backend paths).
fn pairs_per_class(quick: bool) -> usize {
    if quick {
        3
    } else {
        6
    }
}

/// Run one class: oracle, both ISA kernels, both analytic models, the
/// backend counters and the device — with every cross-model invariant
/// asserted in place.
fn run_class(index: usize, class: &CosimClass, n: usize, seed: u64) -> CosimRow {
    let p = class.penalties;
    let name = class.name();
    let pairs = class
        .spec
        .generate(n, seed ^ ((index as u64 + 1) << 20))
        .pairs;
    let scalar_prog = wfa_scalar_program_for(p.x, p.o, p.e);
    let vector_prog = wfa_vector_program_for(p.x, p.o, p.e);
    let scalar_costs = CpuCosts::sargantana_scalar();
    let vector_costs = CpuCosts::sargantana_vector();
    let opts = WfaOptions::exact(p);
    let mut arena = WavefrontArena::new();

    let mut row = CosimRow {
        class: *class,
        pairs: pairs.len(),
        cells: 0,
        scalar_cycles: 0,
        scalar_instret: 0,
        vector_cycles: 0,
        vector_instret: 0,
        analytic_scalar: 0,
        analytic_vector: 0,
        device_cycles: 0,
    };
    let mut scores = Vec::with_capacity(pairs.len());
    let mut cigars = Vec::with_capacity(pairs.len());
    for pair in &pairs {
        let host = wfa_align_seqs_with_arena(&pair.a, &pair.b, &opts, &mut arena)
            .unwrap_or_else(|e| panic!("{name}: oracle failed on pair {}: {e:?}", pair.id));
        let (ia, ib) = (pair.a.bytes(), pair.b.bytes());
        let scalar = run_wfa_program(&scalar_prog, &ia, &ib);
        assert_eq!(
            scalar.score,
            Some(host.score),
            "{name}: scalar ISA kernel disagrees with wfa_align on pair {}",
            pair.id
        );
        let vector = run_wfa_program(&vector_prog, &ia, &ib);
        assert_eq!(
            vector.score,
            Some(host.score),
            "{name}: RVV ISA kernel disagrees with wfa_align on pair {}",
            pair.id
        );
        row.cells += pair.a.len() as u64 * pair.b.len() as u64;
        row.scalar_cycles += scalar.stats.cycles;
        row.scalar_instret += scalar.stats.instret;
        row.vector_cycles += vector.stats.cycles;
        row.vector_instret += vector.stats.instret;
        row.analytic_scalar += scalar_costs.align_cycles(&host.stats);
        row.analytic_vector += vector_costs.align_cycles(&host.stats);
        scores.push(host.score);
        cigars.push(
            host.cigar
                .as_ref()
                .expect("exact alignment carries a CIGAR")
                .to_rle_string(),
        );
    }

    // The mhpm-style counters: the backend's trait-level totals must equal
    // the per-pair interpreter sums exactly.
    let mut backend = RiscvBackend::new(p);
    let batch = backend
        .align_batch(&BatchJob::score_only(pairs.clone()))
        .expect("the riscv backend is infallible on generated pairs");
    assert_eq!(
        batch.sim_cycles,
        Some(row.scalar_cycles),
        "{name}: backend sim_cycles disagree with per-pair interpreter sums"
    );
    assert_eq!(
        backend.counters().retired_instrs,
        row.scalar_instret,
        "{name}: backend retired_instrs disagree with per-pair interpreter sums"
    );
    for (r, want) in batch.results.iter().zip(&scores) {
        assert!(r.success && r.score == *want, "{name}: backend score drift");
    }

    // CIGAR identity through the full backend path (backtrace on).
    let mut traced = RiscvBackend::new(p);
    let bt = traced
        .align_batch(&BatchJob::with_backtrace(pairs.clone()))
        .expect("the riscv backend is infallible on generated pairs");
    for (r, want) in bt.results.iter().zip(&cigars) {
        let got = r
            .cigar
            .as_ref()
            .expect("backtrace batches carry CIGARs")
            .to_rle_string();
        assert_eq!(&got, want, "{name}: backend CIGAR not byte-identical");
    }

    // The accelerator side of Fig. 9/10: one simulated WFAsic lane on the
    // same pairs under the same penalties.
    let mut cfg = AccelConfig::wfasic_chip();
    cfg.penalties = p;
    let mut device = BackendKind::Device.create(cfg, 1);
    let dev = device
        .align_batch(&BatchJob::score_only(pairs))
        .expect("the device must admit the cosim workloads");
    for (r, want) in dev.results.iter().zip(&scores) {
        assert!(r.success && r.score == *want, "{name}: device score drift");
    }
    row.device_cycles = dev.sim_cycles.expect("the device reports cycles");

    // The analytic model must sit inside the calibrated per-length band.
    let (lo, hi) = calibrated_band(class.spec.length);
    let ratio = row.analytic_ratio();
    assert!(
        (lo..=hi).contains(&ratio),
        "{name}: analytic/interpreter ratio {ratio:.4} outside calibrated band [{lo}, {hi}]"
    );
    row
}

/// Run the sweep: every class in parallel over the deterministic pool.
pub fn sweep(opts: &RunOptions) -> CosimOutcome {
    let grid = class_grid(opts.quick);
    let n = pairs_per_class(opts.quick);
    let seed = opts.seed_or(DEFAULT_SEED);
    let rows = ThreadPool::new(opts.threads()).map(&grid, |i, class| run_class(i, class, n, seed));
    CosimOutcome {
        tier: opts.tier(),
        seed,
        rows,
    }
}

/// The gated metric slice: per-class interpreter cycle/instruction totals
/// and device cycles (all deterministic integers), plus the grid shape.
/// The derived speedups and ratios follow from these, so gating the totals
/// gates the whole Fig. 9/10 table.
pub fn metrics(outcome: &CosimOutcome) -> Vec<Metric> {
    let mut m = vec![
        Metric {
            name: "cosim/classes".into(),
            value: outcome.rows.len() as f64,
        },
        Metric {
            name: "cosim/pairs".into(),
            value: outcome.rows.iter().map(|r| r.pairs).sum::<usize>() as f64,
        },
    ];
    for row in &outcome.rows {
        let name = row.class.name();
        m.push(Metric {
            name: format!("cosim/{name}/scalar_cycles"),
            value: row.scalar_cycles as f64,
        });
        m.push(Metric {
            name: format!("cosim/{name}/scalar_instret"),
            value: row.scalar_instret as f64,
        });
        m.push(Metric {
            name: format!("cosim/{name}/vector_cycles"),
            value: row.vector_cycles as f64,
        });
        m.push(Metric {
            name: format!("cosim/{name}/device_cycles"),
            value: row.device_cycles as f64,
        });
    }
    m
}

/// Render the schema-versioned JSON record (hand-rolled — the workspace
/// builds offline with no serde). The trailing `"metrics"` object is the
/// exact document [`crate::baseline::parse_json`] reads back for
/// `--check`.
pub fn render_json(outcome: &CosimOutcome) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
    s.push_str(&format!("  \"tier\": \"{}\",\n", outcome.tier));
    s.push_str(&format!("  \"seed\": {},\n", outcome.seed));
    s.push_str("  \"classes\": [\n");
    for (i, r) in outcome.rows.iter().enumerate() {
        let comma = if i + 1 < outcome.rows.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"length\": {}, \"error_pct\": {}, \
             \"penalties\": [{}, {}, {}], \"pairs\": {}, \"cells\": {}, \
             \"scalar_cycles\": {}, \"scalar_instret\": {}, \
             \"vector_cycles\": {}, \"vector_instret\": {}, \
             \"analytic_scalar\": {}, \"analytic_vector\": {}, \
             \"device_cycles\": {}, \"scalar_cpi\": {:.4}, \
             \"analytic_ratio\": {:.4}, \"speedup_scalar\": {:.4}, \
             \"speedup_vector\": {:.4}}}{}\n",
            r.class.name(),
            r.class.spec.length,
            r.class.spec.error_pct,
            r.class.penalties.x,
            r.class.penalties.o,
            r.class.penalties.e,
            r.pairs,
            r.cells,
            r.scalar_cycles,
            r.scalar_instret,
            r.vector_cycles,
            r.vector_instret,
            r.analytic_scalar,
            r.analytic_vector,
            r.device_cycles,
            r.scalar_cpi(),
            r.analytic_ratio(),
            r.speedup_scalar(),
            r.speedup_vector(),
            comma
        ));
    }
    s.push_str("  ],\n");
    baseline::push_metrics(&mut s, &metrics(outcome));
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::{drift_report, Comparison, TOLERANCE_PCT};

    const TWO_SIDED: Comparison = Comparison::TwoSided(TOLERANCE_PCT);

    fn quick_opts(threads: usize) -> RunOptions {
        RunOptions {
            threads: Some(threads),
            ..RunOptions::quick()
        }
    }

    #[test]
    fn quick_sweep_is_byte_identical_across_thread_widths() {
        let base = render_json(&sweep(&quick_opts(1)));
        for threads in [2usize, 8] {
            let got = render_json(&sweep(&quick_opts(threads)));
            assert_eq!(got, base, "cosim output drifted at width {threads}");
        }
    }

    #[test]
    fn quick_sweep_shape_speedups_and_schema() {
        let outcome = sweep(&quick_opts(0));
        assert_eq!(outcome.tier, "quick");
        assert_eq!(
            outcome.rows.len(),
            12,
            "2 lengths x 2 errors x 3 penalty sets"
        );
        let json = render_json(&outcome);
        assert!(json.starts_with("{\n  \"schema\": \"wfasic-cosim/1\""));
        for r in &outcome.rows {
            // The in-sweep asserts already held; the headline numbers must
            // additionally tell the paper's story: the ASIC wins, and the
            // vectorized baseline beats the scalar one.
            assert!(
                r.speedup_scalar() > 1.0,
                "{}: WFAsic no faster than the scalar CPU baseline",
                r.class.name()
            );
            assert!(
                r.vector_cycles < r.scalar_cycles,
                "{}: RVV kernel no faster than scalar",
                r.class.name()
            );
            assert!(
                r.scalar_cpi() > 1.0,
                "a 7-stage scalar core retires < 1 IPC"
            );
        }
    }

    #[test]
    fn json_metrics_round_trip_through_the_baseline_parser() {
        let outcome = sweep(&quick_opts(0));
        let parsed = crate::baseline::parse_json(&render_json(&outcome)).unwrap();
        assert_eq!(parsed, metrics(&outcome));
        assert_eq!(drift_report(&parsed, &metrics(&outcome), TWO_SIDED).1, 0);
    }

    #[test]
    fn cycle_drift_fails_the_gate() {
        let outcome = sweep(&quick_opts(0));
        let base = metrics(&outcome);
        let mut drifted = base.clone();
        let idx = drifted
            .iter()
            .position(|m| m.name.ends_with("/scalar_cycles"))
            .unwrap();
        drifted[idx].value *= 1.05;
        assert_eq!(drift_report(&base, &drifted, TWO_SIDED).1, 1);
    }
}
