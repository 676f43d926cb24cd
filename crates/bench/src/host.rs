//! Host-throughput benchmark (`report -- host`): wall-clock performance of
//! the simulator itself, as opposed to the simulated cycle counts every
//! other report measures.
//!
//! Three layers, bottom up:
//!
//! * the shared LCP kernel ([`wfa_core::kernel`]) — scalar vs word-parallel
//!   vs the widest SIMD tier the host CPU offers, in bases/sec;
//! * the software WFA oracle ([`CpuWfaBackend`] — the workspace's single
//!   software answer path) — aligns/sec with fresh allocations vs the
//!   reused [`wfa_core::WavefrontArena`];
//! * the end-to-end device path — a queue of 28-pair backtrace jobs
//!   submitted to warm [`WfasicDriver`]s, one per pool worker, at width 1
//!   and at the requested width, reporting alignments/sec and
//!   DP-equivalent cells/sec (`|a|*|b|` per pair, the paper's §5.5 CUPS
//!   convention). What the width-N/width-1 ratio compares is spelled out
//!   on `HostOutcome::speedup_n_over_1`.
//!
//! Results print as a table and are also emitted as schema-versioned JSON
//! ([`SCHEMA`], default `BENCH_host.json`) so CI can archive them. A
//! committed ratio baseline (`bench/baselines/host.json`) gates the *speedup
//! ratios* — never absolute times, which depend on the machine — with a
//! generous one-sided floor: a ratio may grow freely but must not collapse
//! below [`RATIO_FLOOR`] of its blessed value. Thread counts change wall
//! clock only — every simulated result and cycle count is bit-identical at
//! any width: a reused driver answers as a fresh one (the driver's own
//! reuse test), and a job split across host threads matches the inline
//! path bit for bit (`tests/device_two_phase.rs`).

use crate::baseline::Metric;
use crate::gate::RunOptions;
use crate::timing::measure;
use std::sync::Barrier;
use std::time::Instant;
use wfa_core::kernel;
use wfa_core::pool::{available_threads, chunk_ranges, ThreadPool};
use wfa_core::rng::SmallRng;
use wfa_core::{PackedSeq, Penalties};
use wfasic_accel::AccelConfig;
use wfasic_driver::{BatchJob, CpuWfaBackend, WfasicDriver};
use wfasic_seqio::InputSetSpec;

/// Schema tag stamped into the JSON record (bump on layout changes).
pub const SCHEMA: &str = "wfasic-host/1";

/// One-sided gate floor: a measured speedup ratio must stay at or above
/// this fraction of its blessed baseline value (being faster never fails).
pub const RATIO_FLOOR: f64 = 0.5;

/// Default RNG seed for the generated workloads.
pub const DEFAULT_SEED: u64 = 0x1057_BEEF;

/// One measured throughput point.
#[derive(Debug, Clone, Copy)]
pub struct Throughput {
    /// Wall-clock seconds for the measured unit of work (p50).
    pub seconds: f64,
    /// Alignments completed per second.
    pub aligns_per_sec: f64,
    /// DP-equivalent cells per second (`|a|*|b|` per pair).
    pub cells_per_sec: f64,
}

/// Everything one benchmark run measured, ready to render or gate.
#[derive(Debug, Clone)]
pub struct HostOutcome {
    /// Parallel width the device path was measured at.
    pub threads: usize,
    /// Quick (CI) tier or the full workload?
    pub quick: bool,
    /// Workload seed.
    pub seed: u64,
    /// Layer 1: scalar bytes kernel, Gbases/s.
    pub scalar_gbps: f64,
    /// Layer 1: word-parallel packed kernel, Gbases/s.
    pub word_gbps: f64,
    /// Layer 1: widest available SIMD tier on packed data, Gbases/s.
    pub simd_gbps: f64,
    /// Layer 1 peak: word-parallel kernel on long identical runs, Gbases/s.
    pub peak_word_gbps: f64,
    /// Layer 1 peak: SIMD tier on long identical runs, Gbases/s.
    pub peak_simd_gbps: f64,
    /// The kernel path this host's CPU takes ([`kernel::kernel_dispatch`]).
    pub simd_tier: &'static str,
    /// Layer 2: oracle with a fresh arena per pair, aligns/s.
    pub fresh_aps: f64,
    /// Layer 2: oracle with one arena threaded through the set, aligns/s.
    pub arena_aps: f64,
    /// Layer 3: device path at width 1.
    pub one: Throughput,
    /// Layer 3: device path at `threads`; measured only when both `threads`
    /// and the host's available threads exceed 1.
    pub many: Option<Throughput>,
    /// The human-readable table.
    pub text: String,
}

impl HostOutcome {
    /// SIMD-over-word kernel speedup on the realistic run-length workload.
    fn simd_over_word(&self) -> f64 {
        self.simd_gbps / self.word_gbps
    }

    /// SIMD-over-word kernel speedup at peak (long identical runs — the
    /// workload where vector width is the limit, not per-call overhead).
    fn simd_over_word_peak(&self) -> f64 {
        self.peak_simd_gbps / self.peak_word_gbps
    }

    /// Word-over-scalar kernel speedup.
    fn word_over_scalar(&self) -> f64 {
        self.word_gbps / self.scalar_gbps
    }

    /// Device-path speedup of width N over width 1, when width N was
    /// measured.
    ///
    /// Both sides submit the same queue of jobs to [`WfasicDriver`]s, timed
    /// from the moment every worker's driver is warm to the moment the last
    /// job completes, so thread spawns, driver construction and first-touch
    /// memory stay off both clocks:
    ///
    /// * width 1: the whole queue on one driver on the caller's thread.
    ///   Its device splits each job, aligning the pairs on every host
    ///   thread (phase 1 of [`wfasic_accel::WfasicDevice::run_at`]).
    /// * width N: the queue cut into N contiguous parts, one per pool
    ///   worker, each with its own driver. Inside a pool worker the device
    ///   does not split jobs, so each job runs on one thread.
    ///
    /// The ratio is therefore job-level against pair-level parallelism on
    /// the same host. Near 1 means the device's own split already uses the
    /// host's threads; it sits above 1 by what the device's serial timing
    /// phase costs.
    fn speedup_n_over_1(&self) -> Option<f64> {
        self.many.map(|many| self.one.seconds / many.seconds)
    }
}

fn related_bytes(rng: &mut SmallRng, len: usize) -> (Vec<u8>, Vec<u8>) {
    let a: Vec<u8> = (0..len).map(|_| b"ACGT"[rng.gen_range(0, 4)]).collect();
    let mut b = a.clone();
    for base in b.iter_mut() {
        if rng.gen_bool(0.02) {
            *base = b"ACGT"[rng.gen_range(0, 4)];
        }
    }
    (a, b)
}

/// Sum LCPs from `probes` seeded start positions (the measured work unit
/// for the kernel layer). Both sequences are probed at the same position —
/// they are a mutated copy of each other, so runs have realistic
/// extend-step lengths instead of dying on the first unrelated base.
fn lcp_sweep(f: impl Fn(usize, usize) -> usize, len: usize, probes: usize, seed: u64) -> u64 {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut total = 0u64;
    for _ in 0..probes {
        let i = rng.gen_range(0, len);
        total += f(i, i) as u64;
    }
    total
}

/// Run the full measurement and return the structured outcome.
pub fn run(opts: &RunOptions) -> HostOutcome {
    let threads = opts.threads();
    let seed = opts.seed_or(DEFAULT_SEED);
    let mut out = String::new();
    out.push_str("== Host throughput (simulator wall clock) ==\n");
    out.push_str(&format!(
        "host threads available: {}; parallel width measured: {}\n\n",
        available_threads(),
        threads
    ));

    // --- Layer 1: the shared LCP kernel, scalar vs word vs SIMD. ---
    let kernel_len = if opts.quick { 20_000 } else { 100_000 };
    let probes = if opts.quick { 2_000 } else { 10_000 };
    let iters = if opts.quick { 3 } else { 8 };
    let mut rng = SmallRng::seed_from_u64(seed);
    let (ka, kb) = related_bytes(&mut rng, kernel_len);
    let (pa, pb) = (
        PackedSeq::from_ascii(&ka).expect("ACGT only"),
        PackedSeq::from_ascii(&kb).expect("ACGT only"),
    );
    let simd_tier = kernel::kernel_dispatch();

    let bases_scalar = lcp_sweep(
        |i, j| kernel::lcp_bytes_scalar(&ka, &kb, i, j),
        kernel_len,
        probes,
        seed,
    );
    let t_scalar = measure(iters, || {
        lcp_sweep(
            |i, j| kernel::lcp_bytes_scalar(&ka, &kb, i, j),
            kernel_len,
            probes,
            seed,
        )
    });
    let bases_word = lcp_sweep(
        |i, j| kernel::lcp_packed_word(&pa, &pb, i, j),
        kernel_len,
        probes,
        seed,
    );
    let bases_simd = lcp_sweep(
        |i, j| kernel::lcp_packed_simd(&pa, &pb, i, j),
        kernel_len,
        probes,
        seed,
    );
    assert!(
        bases_scalar == bases_word && bases_word == bases_simd,
        "kernel tiers must agree on the measured workload"
    );
    let t_word = measure(iters, || {
        lcp_sweep(
            |i, j| kernel::lcp_packed_word(&pa, &pb, i, j),
            kernel_len,
            probes,
            seed,
        )
    });
    let t_simd = measure(iters, || {
        lcp_sweep(
            |i, j| kernel::lcp_packed_simd(&pa, &pb, i, j),
            kernel_len,
            probes,
            seed,
        )
    });
    let scalar_gbps = bases_scalar as f64 / (t_scalar.p50_ms / 1e3) / 1e9;
    let word_gbps = bases_word as f64 / (t_word.p50_ms / 1e3) / 1e9;
    let simd_gbps = bases_simd as f64 / (t_simd.p50_ms / 1e3) / 1e9;
    out.push_str(&format!(
        "LCP kernel ({kernel_len} bp, {probes} probes, 2% divergence):\n\
         \x20 scalar        {scalar_gbps:6.2} Gbases/s\n\
         \x20 word-parallel {word_gbps:6.2} Gbases/s ({:.1}x scalar)\n\
         \x20 {:<13} {simd_gbps:6.2} Gbases/s ({:.1}x word)\n",
        word_gbps / scalar_gbps,
        simd_tier.name(),
        simd_gbps / word_gbps,
    ));

    // Peak kernel throughput: probe an identical copy, so every run goes to
    // the sequence end (mean length `kernel_len/2`). Short WFA-shaped runs
    // above are bounded by per-call overhead on every tier; long runs are
    // bounded by compare width, which is what separates the tiers.
    let peak_probes = if opts.quick { 40 } else { 200 };
    let bases_peak_word = lcp_sweep(
        |i, j| kernel::lcp_packed_word(&pa, &pa, i, j),
        kernel_len,
        peak_probes,
        seed ^ 0x9E,
    );
    let bases_peak_simd = lcp_sweep(
        |i, j| kernel::lcp_packed_simd(&pa, &pa, i, j),
        kernel_len,
        peak_probes,
        seed ^ 0x9E,
    );
    assert_eq!(
        bases_peak_word, bases_peak_simd,
        "kernel tiers must agree on the peak workload"
    );
    let t_peak_word = measure(iters, || {
        lcp_sweep(
            |i, j| kernel::lcp_packed_word(&pa, &pa, i, j),
            kernel_len,
            peak_probes,
            seed ^ 0x9E,
        )
    });
    let t_peak_simd = measure(iters, || {
        lcp_sweep(
            |i, j| kernel::lcp_packed_simd(&pa, &pa, i, j),
            kernel_len,
            peak_probes,
            seed ^ 0x9E,
        )
    });
    let peak_word_gbps = bases_peak_word as f64 / (t_peak_word.p50_ms / 1e3) / 1e9;
    let peak_simd_gbps = bases_peak_simd as f64 / (t_peak_simd.p50_ms / 1e3) / 1e9;
    out.push_str(&format!(
        "LCP kernel peak ({kernel_len} bp identical, {peak_probes} probes):\n\
         \x20 word-parallel {peak_word_gbps:6.2} Gbases/s\n\
         \x20 {:<13} {peak_simd_gbps:6.2} Gbases/s ({:.1}x word)\n",
        simd_tier.name(),
        peak_simd_gbps / peak_word_gbps,
    ));

    // --- Layer 2: the software WFA oracle, fresh vs arena-reused. ---
    let spec = if opts.quick {
        InputSetSpec {
            length: 150,
            error_pct: 5,
        }
    } else {
        InputSetSpec {
            length: 600,
            error_pct: 5,
        }
    };
    let oracle_pairs = spec
        .generate(if opts.quick { 16 } else { 64 }, seed ^ 0x0A)
        .pairs;
    // Both variants run the one software answer path
    // ([`CpuWfaBackend::align`]): fresh builds a new engine (and arena) per
    // pair; arena-reused threads one engine through the whole set.
    let t_fresh = measure(iters, || {
        let mut acc = 0u64;
        for p in &oracle_pairs {
            let mut cpu = CpuWfaBackend::new(Penalties::default());
            acc += cpu.align(p, true, false).score as u64;
        }
        acc
    });
    let t_arena = measure(iters, || {
        let mut cpu = CpuWfaBackend::new(Penalties::default());
        let mut acc = 0u64;
        for p in &oracle_pairs {
            acc += cpu.align(p, true, false).score as u64;
        }
        acc
    });
    let fresh_aps = oracle_pairs.len() as f64 / (t_fresh.p50_ms / 1e3);
    let arena_aps = oracle_pairs.len() as f64 / (t_arena.p50_ms / 1e3);
    out.push_str(&format!(
        "WFA oracle ({} x {}): fresh {fresh_aps:.0} aligns/s, arena-reused \
         {arena_aps:.0} aligns/s ({:+.1}%)\n",
        oracle_pairs.len(),
        spec.name(),
        (arena_aps / fresh_aps - 1.0) * 100.0
    ));

    // --- Layer 3: end-to-end device path at 1 and N threads. ---
    let e2e_spec = if opts.quick {
        InputSetSpec {
            length: 150,
            error_pct: 5,
        }
    } else {
        InputSetSpec {
            length: 600,
            error_pct: 10,
        }
    };
    // Enough jobs that each of up to 8 workers drains several.
    let e2e_pairs = e2e_spec
        .generate(if opts.quick { 2016 } else { 896 }, seed ^ 0xE2)
        .pairs;
    let e2e_cells: u64 = e2e_pairs
        .iter()
        .map(|p| p.a.len() as u64 * p.b.len() as u64)
        .sum();
    let jobs: Vec<BatchJob> = e2e_pairs
        .chunks(28)
        .map(|c| BatchJob::with_backtrace(c.to_vec()))
        .collect();
    let e2e_iters = if opts.quick { 3 } else { 5 };
    let run_at = |width: usize| -> Throughput {
        let mut samples: Vec<f64> = (0..e2e_iters)
            .map(|_| queue_seconds(&jobs, width))
            .collect();
        samples.sort_by(f64::total_cmp);
        let secs = samples[samples.len() / 2];
        Throughput {
            seconds: secs,
            aligns_per_sec: e2e_pairs.len() as f64 / secs,
            cells_per_sec: e2e_cells as f64 / secs,
        }
    };
    let one = run_at(1);
    // A ratio needs a second width and a second host thread to mean
    // anything; without them no ratio is reported.
    let many = (threads > 1 && available_threads() > 1).then(|| run_at(threads));
    out.push_str(&format!(
        "device path ({} jobs of 28 x {}, BT on, warm drivers):\n",
        jobs.len(),
        e2e_spec.name()
    ));
    out.push_str(&format!(
        "  1 thread : {:>8.0} aligns/s  {:>7.3} GCells/s  ({:.3} s)\n",
        one.aligns_per_sec,
        one.cells_per_sec / 1e9,
        one.seconds
    ));
    match many {
        Some(many) => out.push_str(&format!(
            "  {threads} threads: {:>8.0} aligns/s  {:>7.3} GCells/s  ({:.3} s, {:.2}x)\n",
            many.aligns_per_sec,
            many.cells_per_sec / 1e9,
            many.seconds,
            one.seconds / many.seconds
        )),
        None => out.push_str("  (no second width measured: one thread)\n"),
    }

    HostOutcome {
        threads,
        quick: opts.quick,
        seed,
        scalar_gbps,
        word_gbps,
        simd_gbps,
        peak_word_gbps,
        peak_simd_gbps,
        simd_tier: simd_tier.name(),
        fresh_aps,
        arena_aps,
        one,
        many,
        text: out,
    }
}

/// Wall-clock seconds to drain `jobs` cut into `width` contiguous queues,
/// one per pool worker. Each worker submits its queue to its own
/// [`WfasicDriver`], first warming it on the queue's first job, untimed;
/// the clock starts once every worker is warm and stops when the last
/// queue is drained.
fn queue_seconds(jobs: &[BatchJob], width: usize) -> f64 {
    let queues = chunk_ranges(jobs.len(), width);
    let warm = Barrier::new(queues.len());
    let spans = ThreadPool::new(width).map(&queues, |_, queue| {
        let mut drv = WfasicDriver::new(AccelConfig::wfasic_chip());
        let mut run = |jobs: &[BatchJob]| {
            for job in jobs {
                let out = drv.submit(&job.pairs, job.backtrace);
                assert!(out.is_ok(), "device jobs must pass");
            }
        };
        run(&jobs[queue.start..queue.start + 1]);
        warm.wait();
        let t0 = Instant::now();
        run(&jobs[queue.clone()]);
        (t0, Instant::now())
    });
    let start = spans.iter().map(|s| s.0).min();
    let end = spans.iter().map(|s| s.1).max();
    match (start, end) {
        (Some(start), Some(end)) => (end - start).as_secs_f64(),
        _ => 0.0,
    }
}

/// Render the schema-versioned JSON record.
pub fn render_json(o: &HostOutcome) -> String {
    // Hand-rolled JSON (no external crates in the offline build).
    format!(
        concat!(
            "{{\n",
            "  \"schema\": \"{}\",\n",
            "  \"host\": {{\"threads_available\": {}, \"threads_measured\": {}, ",
            "\"quick\": {}, \"seed\": {}}},\n",
            "  \"kernel\": {{\"scalar_gbases_per_sec\": {:.4}, ",
            "\"word_parallel_gbases_per_sec\": {:.4}, ",
            "\"simd_gbases_per_sec\": {:.4}, \"simd_tier\": \"{}\", ",
            "\"peak_word_gbases_per_sec\": {:.4}, ",
            "\"peak_simd_gbases_per_sec\": {:.4}, ",
            "\"speedup_word_over_scalar\": {:.3}, ",
            "\"speedup_simd_over_word\": {:.3}, ",
            "\"speedup_simd_over_word_peak\": {:.3}}},\n",
            "  \"oracle\": {{\"fresh_aligns_per_sec\": {:.2}, ",
            "\"arena_aligns_per_sec\": {:.2}}},\n",
            "  \"device_path\": {{\n",
            "    \"threads_1\": {{\"seconds\": {:.4}, \"aligns_per_sec\": {:.2}, ",
            "\"cells_per_sec\": {:.1}}}{}\n",
            "  }}\n",
            "}}\n"
        ),
        SCHEMA,
        available_threads(),
        o.threads,
        o.quick,
        o.seed,
        o.scalar_gbps,
        o.word_gbps,
        o.simd_gbps,
        o.simd_tier,
        o.peak_word_gbps,
        o.peak_simd_gbps,
        o.word_over_scalar(),
        o.simd_over_word(),
        o.simd_over_word_peak(),
        o.fresh_aps,
        o.arena_aps,
        o.one.seconds,
        o.one.aligns_per_sec,
        o.one.cells_per_sec,
        o.many.map_or(String::new(), |many| format!(
            concat!(
                ",\n    \"threads_n\": {{\"threads\": {}, \"seconds\": {:.4}, ",
                "\"aligns_per_sec\": {:.2}, \"cells_per_sec\": {:.1}}},\n",
                "    \"speedup_n_over_1\": {:.3}"
            ),
            o.threads,
            many.seconds,
            many.aligns_per_sec,
            many.cells_per_sec,
            o.one.seconds / many.seconds,
        )),
    )
}

/// The gated metrics: *speedup ratios only*. Absolute throughput depends
/// on the machine and never gates. The device-path ratio exists only when
/// width N was measured, so a one-thread host cannot pass the
/// `speedup_n_over_1` floor (it reports the metric missing).
pub fn metrics(o: &HostOutcome) -> Vec<Metric> {
    let mut metrics = vec![
        Metric {
            name: "host/kernel/speedup_word_over_scalar".into(),
            value: o.word_over_scalar(),
        },
        Metric {
            name: "host/kernel/speedup_simd_over_word".into(),
            value: o.simd_over_word(),
        },
        Metric {
            name: "host/kernel/speedup_simd_over_word_peak".into(),
            value: o.simd_over_word_peak(),
        },
    ];
    if let Some(value) = o.speedup_n_over_1() {
        metrics.push(Metric {
            name: "host/device/speedup_n_over_1".into(),
            value,
        });
    }
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::{drift_report, Comparison};

    const FLOOR: Comparison = Comparison::Floor(RATIO_FLOOR);

    #[test]
    fn quick_host_run_renders_text_and_json() {
        let o = run(&RunOptions {
            threads: Some(2),
            ..RunOptions::quick()
        });
        assert!(o.text.contains("LCP kernel"));
        assert!(o.text.contains("device path"));
        let json = render_json(&o);
        assert!(json.contains("\"schema\": \"wfasic-host/1\""));
        assert!(json.contains("\"threads_measured\": 2"));
        assert!(json.contains("\"simd_tier\""));
        assert!(json.contains("\"speedup_simd_over_word\""));
        assert!(json.contains("\"speedup_simd_over_word_peak\""));
        let multi = available_threads() > 1;
        assert_eq!(json.contains("\"speedup_n_over_1\""), multi);
        assert_eq!(metrics(&o).len(), 3 + usize::from(multi));
    }

    #[test]
    fn width_1_run_reports_no_ratio() {
        // One width has nothing to compare against: no second measurement,
        // no ratio in the record or the gated metrics.
        let o = run(&RunOptions {
            threads: Some(1),
            ..RunOptions::quick()
        });
        assert!(o.many.is_none());
        assert_eq!(o.speedup_n_over_1(), None);
        assert!(!render_json(&o).contains("speedup_n_over_1"));
        assert_eq!(metrics(&o).len(), 3);
    }

    #[test]
    fn ratio_floor_passes_equal_and_better_fails_collapse() {
        let base = vec![
            Metric {
                name: "host/kernel/speedup_simd_over_word".into(),
                value: 2.0,
            },
            Metric {
                name: "host/device/speedup_n_over_1".into(),
                value: 1.0,
            },
        ];
        // Identical → pass; better → pass.
        let (_, f) = drift_report(&base, &base, FLOOR);
        assert_eq!(f, 0);
        let better = vec![
            Metric {
                name: "host/kernel/speedup_simd_over_word".into(),
                value: 3.5,
            },
            Metric {
                name: "host/device/speedup_n_over_1".into(),
                value: 1.0,
            },
        ];
        let (_, f) = drift_report(&base, &better, FLOOR);
        assert_eq!(f, 0);
        // Collapse below the floor → fail.
        let collapsed = vec![
            Metric {
                name: "host/kernel/speedup_simd_over_word".into(),
                value: 0.9,
            },
            Metric {
                name: "host/device/speedup_n_over_1".into(),
                value: 1.0,
            },
        ];
        let (text, f) = drift_report(&base, &collapsed, FLOOR);
        assert_eq!(f, 1, "{text}");
        // Missing metric → fail.
        let (_, f) = drift_report(&base, &base[..1], FLOOR);
        assert_eq!(f, 1);
    }
}
