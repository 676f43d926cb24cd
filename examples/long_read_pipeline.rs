//! Long-read pipeline: the paper's headline scenario, extended past the
//! device envelope — third-generation reads from 10 kb to 50 kb, routed
//! end-to-end by the heterogeneous backend:
//!
//! * in-envelope reads (≤ 10 kb) run on the accelerator lanes, with the
//!   per-phase cycle breakdown and the speedup over the CPU baselines;
//! * longer reads fall to the CPU, where the default `Auto` strategy runs
//!   the exact engine until its retained bytes pass a 1 MiB budget and
//!   then hands the pair to linear-memory BiWFA — the example measures
//!   that peak against the exact score-only engine, which keeps every
//!   wavefront, on a 50 kb pair and asserts the ≥20× reduction.
//!
//! Run with: `cargo run --release --example long_read_pipeline`

use wfasic::accel::AccelConfig;
use wfasic::driver::batch::BatchJob;
use wfasic::driver::codesign::run_experiment;
use wfasic::driver::{AlignStrategy, AlignmentBackend, CpuWfaBackend, HeterogeneousBackend};
use wfasic::seqio::InputSetSpec;
use wfasic::soc::{cycles_to_seconds, SARGANTANA_HZ, WFASIC_ASIC_HZ};

fn main() {
    let cfg = AccelConfig::wfasic_chip();
    println!(
        "WFAsic: {} Aligner x {} parallel sections, k_max {}, reads to {} bases\n",
        cfg.num_aligners, cfg.parallel_sections, cfg.k_max, cfg.max_supported_len
    );

    // Phase 1 — the paper's in-envelope scenario: 10 kb reads on the
    // accelerator, cycle breakdown and CPU-baseline speedups.
    for spec in [
        InputSetSpec {
            length: 10_000,
            error_pct: 5,
        },
        InputSetSpec {
            length: 10_000,
            error_pct: 10,
        },
    ] {
        let pairs = spec.generate(2, 2024).pairs;
        println!("--- input set {} ({} pairs) ---", spec.name(), pairs.len());

        let nbt = run_experiment(&cfg, &pairs, false, false);
        let bt = run_experiment(&cfg, &pairs, true, false);

        assert!(nbt.all_success && bt.all_success);
        println!(
            "accelerator, backtrace off : {:>12} cycles  ({:.3} ms at 1.1 GHz)",
            nbt.accel_cycles,
            cycles_to_seconds(nbt.accel_cycles, WFASIC_ASIC_HZ) * 1e3
        );
        println!(
            "accelerator, backtrace on  : {:>12} cycles  (+ CPU backtrace {} cycles, {:.3} ms at 1.26 GHz)",
            bt.accel_cycles,
            bt.cpu_bt_cycles,
            cycles_to_seconds(bt.cpu_bt_cycles, SARGANTANA_HZ) * 1e3
        );
        println!(
            "CPU scalar WFA baseline    : {:>12} cycles",
            nbt.cpu_scalar_total
        );
        println!(
            "CPU vector WFA baseline    : {:>12} cycles",
            nbt.cpu_vector_total
        );
        println!(
            "speedup vs CPU scalar      : {:>8.1}x (backtrace off)   {:>8.1}x (backtrace on)",
            nbt.speedup_vs_scalar(),
            bt.speedup_vs_scalar()
        );
        println!(
            "per-pair: {} alignment cycles, {} reading cycles -> Eq.7 max efficient aligners = {}\n",
            nbt.mean_align_cycles as u64,
            nbt.read_cycles,
            nbt.max_efficient_aligners()
        );
    }

    // Phase 2 — past the envelope: a 50 kb / 5% pair through the same
    // heterogeneous backend. The router sends it to the CPU, where the
    // default policy's Auto strategy passes the exact engine's byte budget
    // and hands the pair to linear-memory BiWFA.
    let spec = InputSetSpec {
        length: 50_000,
        error_pct: 5,
    };
    let pairs = spec.generate(1, 2024).pairs;
    println!(
        "--- input set {} (1 pair, past the envelope) ---",
        spec.name()
    );

    let mut hetero = HeterogeneousBackend::new(cfg, 4);
    let batch = hetero
        .align_batch(&BatchJob::with_backtrace(pairs.clone()))
        .expect("the heterogeneous backend takes any length");
    let res = &batch.results[0];
    assert!(res.success);
    res.cigar
        .as_ref()
        .expect("backtrace was requested")
        .check(&pairs[0].a.bytes(), &pairs[0].b.bytes())
        .expect("the BiWFA transcript replays");
    let c = hetero.counters();
    assert_eq!(
        (c.biwfa_pairs, c.exact_pairs),
        (1, 0),
        "a 50 kb read at 5% must pass the budget and reach BiWFA"
    );

    // The exact score-only engine on the same pair keeps every wavefront:
    // same score, at a footprint hundreds of times larger.
    let mut oracle = CpuWfaBackend::new(cfg.penalties);
    oracle.route.select = AlignStrategy::Exact;
    let exact = oracle.align_one(&pairs[0], false).expect("exact oracle");
    assert_eq!(exact.score, res.score, "BiWFA is score-identical");
    let oc = oracle.counters();

    println!(
        "Auto (budget, then BiWFA)  : score {:>6}, peak wavefront memory {:>11} B",
        res.score, c.peak_memory_bytes
    );
    println!(
        "exact, every wavefront kept: score {:>6}, peak wavefront memory {:>11} B",
        exact.score, oc.peak_memory_bytes
    );
    let reduction = oc.peak_memory_bytes as f64 / c.peak_memory_bytes.max(1) as f64;
    assert!(
        c.peak_memory_bytes * 20 <= oc.peak_memory_bytes,
        "bounded-memory claim: the routed peak must sit >=20x below the oracle's"
    );
    println!("memory reduction           : {reduction:>6.0}x (asserted >= 20x)");
}
