//! Experiment runners: one function per table/figure of the paper's §5.
//!
//! Each runner generates the paper's input sets, drives the full co-design
//! (accelerator model + CPU phases + CPU baselines) and returns rows ready
//! for printing next to the paper's reported numbers.

use crate::paper;
use wfasic_accel::AccelConfig;
use wfasic_driver::codesign::{run_experiment, ExperimentResult};
use wfasic_seqio::dataset::InputSetSpec;
use wfasic_soc::clock::{Cycle, SARGANTANA_HZ, WFASIC_ASIC_HZ};

/// Workload sizing for the experiment harness.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Pairs per 100bp set.
    pub pairs_100: usize,
    /// Pairs per 1Kbp set.
    pub pairs_1k: usize,
    /// Pairs per 10Kbp set.
    pub pairs_10k: usize,
    /// Pairs used for the Fig. 10 scheduling sweep (align durations are
    /// tiled from the simulated pairs when fewer were simulated).
    pub sched_pairs: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Sizes {
    /// Full sizes for the report binary.
    pub fn default_report() -> Self {
        Sizes {
            pairs_100: 24,
            pairs_1k: 10,
            pairs_10k: 3,
            sched_pairs: 64,
            seed: 0x5EED,
        }
    }

    /// Small sizes for CI/benches.
    pub fn quick() -> Self {
        Sizes {
            pairs_100: 8,
            pairs_1k: 4,
            pairs_10k: 1,
            sched_pairs: 48,
            seed: 0x5EED,
        }
    }

    /// Pairs for one input-set shape.
    pub fn pairs_for(&self, spec: &InputSetSpec) -> usize {
        match spec.length {
            100 => self.pairs_100,
            1_000 => self.pairs_1k,
            _ => self.pairs_10k,
        }
    }
}

/// Run one input set through a configuration.
pub fn measure(
    spec: &InputSetSpec,
    sizes: &Sizes,
    cfg: &AccelConfig,
    backtrace: bool,
    force_sep: bool,
) -> ExperimentResult {
    let set = spec.generate(sizes.pairs_for(spec), sizes.seed);
    run_experiment(cfg, &set.pairs, backtrace, force_sep)
}

// ---------------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------------

/// One measured Table 1 row.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Input set label.
    pub set: String,
    /// Mean per-pair alignment cycles.
    pub alignment_cycles: f64,
    /// Per-pair reading cycles.
    pub reading_cycles: Cycle,
    /// Eq. 7 maximum efficient Aligners.
    pub max_aligners: u64,
}

/// Regenerate Table 1 (alignment/reading cycles and Eq. 7 MaxAligners).
pub fn table1(sizes: &Sizes) -> Vec<Table1Row> {
    let cfg = AccelConfig::wfasic_chip();
    InputSetSpec::ALL
        .iter()
        .map(|spec| {
            let r = measure(spec, sizes, &cfg, false, false);
            Table1Row {
                set: spec.name(),
                alignment_cycles: r.mean_align_cycles,
                reading_cycles: r.read_cycles,
                max_aligners: r.max_efficient_aligners(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Fig. 9
// ---------------------------------------------------------------------------

/// One measured Fig. 9 group of bars.
#[derive(Debug, Clone)]
pub struct Fig9Row {
    /// Input set label.
    pub set: String,
    /// WFAsic speedup over CPU scalar, backtrace disabled.
    pub nbt_speedup: f64,
    /// WFAsic speedup over CPU scalar, backtrace enabled (no-separation).
    pub bt_speedup: f64,
    /// CPU vector speedup over CPU scalar.
    pub vector_speedup: f64,
}

/// Regenerate Fig. 9 (speedups vs the CPU scalar code).
pub fn fig9(sizes: &Sizes) -> Vec<Fig9Row> {
    let cfg = AccelConfig::wfasic_chip();
    InputSetSpec::ALL
        .iter()
        .map(|spec| {
            let nbt = measure(spec, sizes, &cfg, false, false);
            let bt = measure(spec, sizes, &cfg, true, false);
            Fig9Row {
                set: spec.name(),
                nbt_speedup: nbt.speedup_vs_scalar(),
                bt_speedup: bt.speedup_vs_scalar(),
                vector_speedup: nbt.vector_vs_scalar(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Fig. 10
// ---------------------------------------------------------------------------

/// One measured Fig. 10 series.
#[derive(Debug, Clone)]
pub struct Fig10Row {
    /// Input set label.
    pub set: String,
    /// Speedup over one Aligner, for 1..=10 Aligners.
    pub speedups: Vec<f64>,
}

/// The device's dispatch schedule, replayed analytically: the Extractor
/// ingests a pair only when an Aligner is (about to be) idle, record reads
/// serialize on the shared port, pairs go to the earliest-idle Aligner.
/// Matches `WfasicDevice::run` for backtrace-off jobs (validated in tests).
pub fn schedule_multi_aligner(read_cycles: Cycle, aligns: &[Cycle], n_aligners: usize) -> Cycle {
    let mut read_free: Cycle = 0;
    let mut free: Vec<Cycle> = vec![0; n_aligners];
    let mut completion: Vec<Cycle> = Vec::with_capacity(aligns.len());
    for (i, &al) in aligns.iter().enumerate() {
        let gate = if i >= n_aligners {
            completion[i - n_aligners]
        } else {
            0
        };
        let read_done = read_free.max(gate) + read_cycles;
        read_free = read_done;
        let w = (0..n_aligners).min_by_key(|&w| free[w]).unwrap();
        let done = read_done.max(free[w]) + al;
        free[w] = done;
        completion.push(done);
    }
    completion.into_iter().max().unwrap_or(0)
}

/// Regenerate Fig. 10 (scalability with 1..=10 Aligners, backtrace off).
pub fn fig10(sizes: &Sizes) -> Vec<Fig10Row> {
    let cfg = AccelConfig::wfasic_chip();
    InputSetSpec::ALL
        .iter()
        .map(|spec| {
            let set = spec.generate(sizes.pairs_for(spec), sizes.seed);
            let mut drv = wfasic_driver::WfasicDriver::new(cfg);
            let job = drv
                .submit(&set.pairs, false, wfasic_driver::WaitMode::PollIdle)
                .expect("fault-free job cannot fail");
            let read = job.report.pairs[0].read_cycles;
            // Tile the simulated align durations up to the scheduling size.
            let durations: Vec<Cycle> = job
                .report
                .pairs
                .iter()
                .map(|p| p.align_cycles)
                .cycle()
                .take(sizes.sched_pairs)
                .collect();
            let base = schedule_multi_aligner(read, &durations, 1);
            let speedups = (1..=10)
                .map(|n| base as f64 / schedule_multi_aligner(read, &durations, n) as f64)
                .collect();
            Fig10Row {
                set: spec.name(),
                speedups,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Fig. 11
// ---------------------------------------------------------------------------

/// One measured Fig. 11 group: speedups over the 1×64PS `[Sep]` baseline.
#[derive(Debug, Clone)]
pub struct Fig11Row {
    /// Input set label.
    pub set: String,
    /// 2 Aligners × 32 PS, with separation.
    pub sep_2x32: f64,
    /// 1 Aligner × 64 PS, without separation.
    pub nosep_1x64: f64,
}

/// Regenerate Fig. 11 (configuration comparison, backtrace enabled).
pub fn fig11(sizes: &Sizes) -> Vec<Fig11Row> {
    let cfg64 = AccelConfig::wfasic_chip();
    let cfg2x32 = AccelConfig::wfasic_chip()
        .with_parallel_sections(32)
        .with_aligners(2);
    InputSetSpec::ALL
        .iter()
        .map(|spec| {
            let sep64 = measure(spec, sizes, &cfg64, true, true);
            let sep2x32 = measure(spec, sizes, &cfg2x32, true, true);
            let nosep64 = measure(spec, sizes, &cfg64, true, false);
            Fig11Row {
                set: spec.name(),
                sep_2x32: sep64.wfasic_total as f64 / sep2x32.wfasic_total as f64,
                nosep_1x64: sep64.wfasic_total as f64 / nosep64.wfasic_total as f64,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Table 2
// ---------------------------------------------------------------------------

/// A Table 2 row: measured or from the paper's literature comparison.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Platform label.
    pub platform: String,
    /// GCUPS.
    pub gcups: f64,
    /// Area (mm²).
    pub area_mm2: f64,
    /// Is this row measured by this harness (vs paper-reported)?
    pub measured: bool,
}

/// Regenerate Table 2: our WFAsic rows measured on 10Kbp reads (scaled to
/// the 1.1 GHz ASIC clock; the CPU backtrace at the 1.26 GHz CPU clock),
/// alongside the paper's literature rows. The paper's WFAsic GCUPS numbers
/// correspond to the 10K-5% input (1e8 equivalent cells / 278k cycles ≈
/// 390 GCUPS), so that is the set used here.
pub fn table2(sizes: &Sizes) -> Vec<Table2Row> {
    let cfg = AccelConfig::wfasic_chip();
    let spec = InputSetSpec {
        length: 10_000,
        error_pct: 5,
    };
    let area = wfasic_accel::area::area_report(&cfg);

    let gcups_of = |r: &ExperimentResult| -> f64 {
        let seconds =
            r.accel_cycles as f64 / WFASIC_ASIC_HZ + r.cpu_bt_cycles as f64 / SARGANTANA_HZ;
        r.equivalent_cells as f64 / seconds / 1e9
    };
    let bt = measure(&spec, sizes, &cfg, true, false);
    let nbt = measure(&spec, sizes, &cfg, false, false);

    let mut rows: Vec<Table2Row> = paper::TABLE2_LITERATURE
        .iter()
        .map(|r| Table2Row {
            platform: r.platform.to_string(),
            gcups: r.gcups,
            area_mm2: r.area_mm2,
            measured: false,
        })
        .collect();
    rows.push(Table2Row {
        platform: "WFAsic [With Backtrace] (measured)".into(),
        gcups: gcups_of(&bt),
        area_mm2: area.area_mm2,
        measured: true,
    });
    rows.push(Table2Row {
        platform: "WFAsic [Without Backtrace] (measured)".into(),
        gcups: gcups_of(&nbt),
        area_mm2: area.area_mm2,
        measured: true,
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfasic_driver::{WaitMode, WfasicDriver};

    #[test]
    fn batch_scaling_reaches_3x_at_4_lanes_on_the_quick_queue() {
        let rows = batch_scaling(&Sizes::quick());
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].lanes, 1);
        assert!((rows[0].speedup - 1.0).abs() < 1e-9);
        let four = rows.iter().find(|r| r.lanes == 4).unwrap();
        assert!(
            four.speedup >= 3.0,
            "4 lanes must buy at least 3x aggregate throughput, got {:.2}x",
            four.speedup
        );
        // Same queue, same alignment count at every sweep point.
        assert!(rows.iter().all(|r| r.alignments == rows[0].alignments));
        // More lanes never lose throughput, but the shared port saturates:
        // 8 lanes pay real arbitration waits.
        for w in rows.windows(2) {
            assert!(w[1].total_cycles <= w[0].total_cycles);
        }
        assert!(rows[3].arb_wait > rows[1].arb_wait);
    }

    #[test]
    fn scheduler_matches_device_for_one_aligner() {
        let spec = InputSetSpec {
            length: 100,
            error_pct: 10,
        };
        let set = spec.generate(10, 3);
        let mut drv = WfasicDriver::new(AccelConfig::wfasic_chip());
        let job = drv.submit(&set.pairs, false, WaitMode::PollIdle).unwrap();
        let read = job.report.pairs[0].read_cycles;
        let aligns: Vec<Cycle> = job.report.pairs.iter().map(|p| p.align_cycles).collect();
        let sched = schedule_multi_aligner(read, &aligns, 1);
        let device = job.report.total_cycles;
        let rel = (sched as f64 - device as f64).abs() / device as f64;
        assert!(
            rel < 0.10,
            "analytic schedule {sched} vs device {device} (rel {rel:.3})"
        );
    }

    #[test]
    fn scheduler_saturates_per_eq7() {
        // align = 214, read = 75 (the paper's 100-5% row): speedup should
        // flatten around 4 aligners.
        let aligns = vec![214u64; 64];
        let base = schedule_multi_aligner(75, &aligns, 1);
        let s4 = base as f64 / schedule_multi_aligner(75, &aligns, 4) as f64;
        let s8 = base as f64 / schedule_multi_aligner(75, &aligns, 8) as f64;
        assert!(s4 > 3.0, "s4 = {s4:.2}");
        assert!(s8 < s4 * 1.25, "saturated: s8 = {s8:.2} vs s4 = {s4:.2}");
    }

    #[test]
    fn scheduler_scales_linearly_when_reads_are_cheap() {
        let aligns = vec![937_630u64; 60];
        let base = schedule_multi_aligner(3_420, &aligns, 1);
        let s10 = base as f64 / schedule_multi_aligner(3_420, &aligns, 10) as f64;
        assert!(
            s10 > 9.0,
            "10K-10%-like scaling should be near-linear, got {s10:.2}"
        );
    }

    #[test]
    fn quick_table1_monotonicity() {
        let rows = table1(&Sizes::quick());
        assert_eq!(rows.len(), 6);
        // Alignment cycles grow with both length and error rate.
        assert!(rows[1].alignment_cycles > rows[0].alignment_cycles);
        assert!(rows[3].alignment_cycles > rows[2].alignment_cycles);
        assert!(rows[5].alignment_cycles > rows[4].alignment_cycles);
        assert!(rows[4].alignment_cycles > rows[3].alignment_cycles);
        // Reading cycles depend only on length.
        assert_eq!(rows[0].reading_cycles, rows[1].reading_cycles);
        assert!(rows[2].reading_cycles > rows[0].reading_cycles);
    }
}

// ---------------------------------------------------------------------------
// Per-stage cycle attribution (the perf subsystem)
// ---------------------------------------------------------------------------

/// One per-stage breakdown row: where every cycle of an input set's job
/// went, as attributed by the device's perf counters.
#[derive(Debug, Clone)]
pub struct PerfRow {
    /// Input set label.
    pub set: String,
    /// Per-stage cycle attribution; sums exactly to `total`.
    pub counters: wfasic_soc::perf::PerfCounters,
    /// Total job cycles.
    pub total: Cycle,
}

/// Run every input set with `PERF_CTRL` enabled (backtrace off) and return
/// the per-stage breakdown for each.
pub fn perf_breakdown(sizes: &Sizes) -> Vec<PerfRow> {
    use wfasic_driver::{WaitMode, WfasicDriver};
    let cfg = AccelConfig::wfasic_chip();
    InputSetSpec::ALL
        .iter()
        .map(|spec| {
            let set = spec.generate(sizes.pairs_for(spec), sizes.seed);
            let mut drv = WfasicDriver::new(cfg);
            drv.policy.collect_perf = true;
            let job = drv
                .submit(&set.pairs, false, WaitMode::PollIdle)
                .expect("fault-free job cannot fail");
            let perf = job.perf().expect("collect_perf was set");
            PerfRow {
                set: spec.name(),
                counters: perf.counters,
                total: perf.total,
            }
        })
        .collect()
}

/// Chrome `trace_event` JSON for one input set's job (backtrace off),
/// viewable in `chrome://tracing` or Perfetto. Uses a 2-Aligner device so
/// the per-Aligner tracks show the dispatch interleaving.
pub fn trace_json(spec: &InputSetSpec, sizes: &Sizes) -> String {
    use wfasic_driver::{WaitMode, WfasicDriver};
    let set = spec.generate(sizes.pairs_for(spec), sizes.seed);
    let mut drv = WfasicDriver::new(AccelConfig::wfasic_chip().with_aligners(2));
    drv.policy.collect_perf = true;
    let job = drv
        .submit(&set.pairs, false, WaitMode::PollIdle)
        .expect("fault-free job cannot fail");
    job.chrome_trace().expect("collect_perf was set")
}

// ---------------------------------------------------------------------------
// Ablations (design-choice sensitivity, §5.4 extended)
// ---------------------------------------------------------------------------

/// One ablation row: a configuration delta and its measured effect.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Human-readable knob description.
    pub knob: String,
    /// Mean per-pair alignment cycles on the 1K-10% set.
    pub align_cycles: f64,
    /// Per-pair reading cycles.
    pub read_cycles: Cycle,
    /// Eq. 7 max efficient Aligners.
    pub max_aligners: u64,
    /// Accelerator area from the analytical model (mm²).
    pub area_mm2: f64,
}

/// Sweep the microarchitectural knobs the design fixes (extend comparator
/// width, compute batch cost, parallel sections, memory-port burst latency)
/// and measure each one's effect on the 1K-10% workload.
pub fn ablation(sizes: &Sizes) -> Vec<AblationRow> {
    let spec = InputSetSpec {
        length: 1_000,
        error_pct: 10,
    };
    let base = AccelConfig::wfasic_chip();

    let mut variants: Vec<(String, AccelConfig)> = vec![("baseline 1x64PS".into(), base)];
    for w in [8usize, 32] {
        let mut c = base;
        c.extend_bases_per_cycle = w;
        variants.push((format!("extend width {w} bases/cycle"), c));
    }
    for b in [2u64, 8] {
        let mut c = base;
        c.compute_batch_cycles = b;
        variants.push((format!("compute batch {b} cycles"), c));
    }
    for p in [16usize, 32, 128] {
        variants.push((
            format!("{p} parallel sections"),
            base.with_parallel_sections(p),
        ));
    }
    for lat in [10u64, 60] {
        let mut c = base;
        c.bus.burst_latency = lat;
        variants.push((format!("bus burst latency {lat} cycles"), c));
    }

    variants
        .iter()
        .map(|(knob, cfg)| {
            let r = measure(&spec, sizes, cfg, false, false);
            let area = wfasic_accel::area::area_report(cfg);
            AblationRow {
                knob: knob.clone(),
                align_cycles: r.mean_align_cycles,
                read_cycles: r.read_cycles,
                max_aligners: r.max_efficient_aligners(),
                area_mm2: area.area_mm2,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Fault-injection robustness sweep (§5.1 extended)
// ---------------------------------------------------------------------------

/// One robustness-sweep row: an input-set shape under one injected fault
/// rate, with the driver's retry + CPU-fallback policy enabled.
#[derive(Debug, Clone)]
pub struct FaultSweepRow {
    /// Input set label.
    pub set: String,
    /// Per-opportunity fault probability applied to every fault class.
    pub rate: f64,
    /// Pairs submitted.
    pub pairs: usize,
    /// Pairs answered by the accelerator itself.
    pub hw_ok: usize,
    /// Pairs answered by the CPU fallback.
    pub recovered: usize,
    /// Job resubmissions the driver performed.
    pub retries: u32,
    /// Faults actually injected (all classes, all attempts).
    pub faults_injected: u64,
}

impl FaultSweepRow {
    /// Fraction of pairs that got an answer (the §5.1 "no CPU freeze"
    /// criterion, strengthened: with fallback this must be 1.0).
    pub fn completion_rate(&self) -> f64 {
        (self.hw_ok + self.recovered) as f64 / self.pairs.max(1) as f64
    }
}

/// Sweep fault rates across the short-read input sets and measure how the
/// retry + CPU-fallback policy holds completion at 100%.
pub fn fault_sweep(sizes: &Sizes) -> Vec<FaultSweepRow> {
    use wfasic_driver::{WaitMode, WfasicDriver};
    use wfasic_soc::fault::FaultPlan;

    const RATES: [f64; 4] = [0.0, 0.001, 0.01, 0.05];
    let specs = [
        InputSetSpec {
            length: 100,
            error_pct: 5,
        },
        InputSetSpec {
            length: 100,
            error_pct: 10,
        },
        InputSetSpec {
            length: 1_000,
            error_pct: 5,
        },
        InputSetSpec {
            length: 1_000,
            error_pct: 10,
        },
    ];

    let mut rows = Vec::new();
    for spec in specs {
        let set = spec.generate(sizes.pairs_for(&spec), sizes.seed);
        for rate in RATES {
            let mut drv = WfasicDriver::new(AccelConfig::wfasic_chip());
            drv.policy.cpu_fallback = true;
            drv.policy.max_retries = 2;
            if rate > 0.0 {
                drv.device
                    .set_fault_plan(FaultPlan::uniform(sizes.seed ^ 0xFA17, rate));
            }
            let before = drv.device.fault_counters().total();
            let job = drv
                .submit(&set.pairs, false, WaitMode::PollIdle)
                .expect("fallback-enabled submit always answers");
            let injected = drv.device.fault_counters().total() - before;
            let recovered = job.recovered_count();
            rows.push(FaultSweepRow {
                set: spec.name(),
                rate,
                pairs: set.pairs.len(),
                hw_ok: job
                    .results
                    .iter()
                    .filter(|r| r.success && !r.recovered)
                    .count(),
                recovered,
                retries: job.retries,
                faults_injected: injected,
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Batch scaling (multi-lane throughput)
// ---------------------------------------------------------------------------

/// One lane-count point of the multi-lane batch throughput sweep.
#[derive(Debug, Clone)]
pub struct BatchScaleRow {
    /// Number of WFAsic lanes on the SoC.
    pub lanes: usize,
    /// Jobs in the queue (fixed across lane counts).
    pub jobs: usize,
    /// Alignments completed.
    pub alignments: usize,
    /// Cycle at which the whole batch finished (the slowest lane).
    pub total_cycles: Cycle,
    /// Aggregate throughput, alignments per 1,000 device cycles.
    pub throughput_kcyc: f64,
    /// Throughput relative to the 1-lane point.
    pub speedup: f64,
    /// Cycles lanes spent waiting on shared-port arbitration.
    pub arb_wait: Cycle,
}

/// The fixed job queue used by the batch sweep: short-read jobs, one seed
/// per job, enough jobs to keep the widest sweep point (8 lanes) busy.
fn batch_queue(sizes: &Sizes) -> Vec<wfasic_driver::BatchJob> {
    let spec = InputSetSpec {
        length: 100,
        error_pct: 10,
    };
    (0..32u64)
        .map(|j| {
            let set = spec.generate(sizes.pairs_100.max(2), sizes.seed ^ (j << 16));
            wfasic_driver::BatchJob::score_only(set.pairs)
        })
        .collect()
}

/// Sweep the same job queue across 1/2/4/8-lane SoCs and measure aggregate
/// throughput. The queue is identical at every point, so the speedup column
/// isolates what the extra lanes buy (and what shared-port arbitration
/// costs).
pub fn batch_scaling(sizes: &Sizes) -> Vec<BatchScaleRow> {
    use wfasic_driver::MultiLaneBackend;

    let jobs = batch_queue(sizes);
    let mut rows: Vec<BatchScaleRow> = Vec::new();
    for lanes in [1usize, 2, 4, 8] {
        let batch = MultiLaneBackend::new(AccelConfig::wfasic_chip(), lanes).submit_batch(&jobs);
        let alignments = batch.alignments();
        let tput = batch.throughput();
        let speedup = match rows.first() {
            Some(base) if base.throughput_kcyc > 0.0 => tput * 1_000.0 / base.throughput_kcyc,
            _ => 1.0,
        };
        rows.push(BatchScaleRow {
            lanes,
            jobs: jobs.len(),
            alignments,
            total_cycles: batch.total_cycles,
            throughput_kcyc: tput * 1_000.0,
            speedup,
            arb_wait: batch.arbiter.wait_cycles(),
        });
    }
    rows
}
