//! One benchmark run: generate the pool, compute the oracle, then drive the
//! closed loop — one client submitting one `BatchJob` at a time through
//! `AlignmentService` and waiting for it — untraced, window by window with
//! a timed cold start before each, for the end-to-end metrics and, when
//! asked, traced with a layer replay for the per-layer metrics.

use crate::metrics::{
    median, peak_rss_mb, percentile, ratio, reset_peak_rss, Metric, MetricSet, END_TO_END,
    PER_LAYER, STAGE_METRICS,
};
use crate::replay::{Replayer, Tally};
use crate::trace::{per_job_ns, per_pair_ns, Recorder, Shared, Span, Traced};
use crate::workload::{answer_ok, Shape, Workload};
use std::time::Instant;
use wfasic_driver::{BackendBatch, BatchJob};
use wfasic_service::{AlignmentService, ServiceConfig};
use wfasic_soc::WFASIC_ASIC_HZ;

/// Equal slices of wall-clock time (half a second each at the default
/// length) a timed stream is cut into.
pub const WINDOWS: usize = 60;

/// The end-to-end throughput and latency come from the quietest tenth of
/// the windows: the 90th percentile of the window rates and the 10th of
/// the window median latencies. Other tenants of a shared host only ever
/// add time, for seconds at a stretch, so the windows they touched read
/// slow; a median over windows still moves whenever more than half of a
/// run is disturbed.
pub const QUIET_PCT: f64 = 10.0;

/// When a closed-loop stream stops.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// After this much wall-clock time.
    Seconds(f64),
    /// After this many jobs.
    Jobs(usize),
}

#[derive(Debug)]
pub struct RunSpec {
    pub workload: Workload,
    pub shape: Shape,
    pub seed: u64,
    /// Length of the timed untraced stream.
    pub budget: Budget,
    pub trace: bool,
}

#[derive(Debug)]
pub struct Outcome {
    /// Pairs answered and checked against the oracle (cold starts,
    /// warm-up, timed and traced jobs alike).
    pub attempted: u64,
    /// Pairs unanswered, unsuccessful, in an errored job, or wrong.
    pub failed: u64,
    /// Points where the replay did not reproduce the real path.
    pub replay_errors: Vec<String>,
    /// `END_TO_END` for an untraced run, `PER_LAYER` for a traced one.
    pub metrics: Vec<Metric>,
    /// Jobs in the timed untraced stream.
    pub timed_jobs: usize,
    /// The resident set once the pool and its oracle scores were built:
    /// the benchmark's own share of `peak_rss_mb`.
    pub inputs_rss_mb: f64,
    /// The traced run's spans (empty when untraced).
    pub spans: Vec<Span>,
    /// The replay's work counts (default when untraced).
    pub tally: Tally,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.replay_errors.is_empty()
    }
}

/// What one closed-loop stream observed.
#[derive(Debug, Default)]
pub struct StreamLog {
    /// Submit→completion time of each job, in ns.
    pub job_ns: Vec<f64>,
    pub pairs: u64,
    pub failed: u64,
    /// Order-sensitive digest of each job's simulated cycles and the sum of
    /// the scores answered.
    pub answers: u64,
}

/// Drive `svc` through `jobs` from index `first` (wrapping) until `budget`
/// runs out. Each job is cloned before its timed interval starts and
/// checked after it ends; `after` sees each successful batch outside the
/// interval. With `rec`, each job runs under a `service.job` span.
pub fn stream(
    svc: &mut AlignmentService,
    jobs: &[BatchJob],
    want: &[Vec<u32>],
    first: usize,
    budget: Budget,
    rec: Option<&Shared>,
    mut after: impl FnMut(&BatchJob, &BackendBatch),
) -> StreamLog {
    let mut log = StreamLog::default();
    let started = Instant::now();
    for seq in 0.. {
        let done = match budget {
            Budget::Seconds(s) => started.elapsed().as_secs_f64() >= s,
            Budget::Jobs(n) => seq >= n,
        };
        if done {
            break;
        }
        let idx = (first + seq) % jobs.len();
        let job = jobs[idx].clone();
        let root = rec.map(|r| {
            let mut r = r.borrow_mut();
            r.job = seq as u64;
            r.begin("service.job", job.pairs.len() as u32)
        });
        let t0 = Instant::now();
        svc.submit(job)
            .expect("a closed loop never has a job queued when it submits");
        let completed = svc.try_next().expect("the job just submitted");
        log.job_ns.push(t0.elapsed().as_nanos() as f64);
        if let (Some(r), Some(root)) = (rec, root) {
            r.borrow_mut().end(root);
        }

        let job = &jobs[idx];
        log.pairs += job.pairs.len() as u64;
        match &completed.outcome {
            Ok(batch) => {
                let wrong = job
                    .pairs
                    .iter()
                    .zip(&want[idx])
                    .enumerate()
                    .filter(|&(i, (pair, &w))| {
                        batch
                            .results
                            .get(i)
                            .is_none_or(|r| !answer_ok(pair, r, w, job.backtrace))
                    })
                    .count();
                log.failed += wrong as u64;
                let scores: u64 = batch.results.iter().map(|r| u64::from(r.score)).sum();
                log.digest(batch.sim_cycles.unwrap_or(0), scores);
                after(job, batch);
            }
            Err(_) => {
                log.failed += job.pairs.len() as u64;
                log.digest(0, 0);
            }
        }
    }
    log
}

impl StreamLog {
    fn digest(&mut self, cycles: u64, scores: u64) {
        const K: u64 = 0x100_0000_01B3;
        self.answers = ((self.answers ^ cycles).wrapping_mul(K) ^ scores).wrapping_mul(K);
    }
}

/// The untraced timed stream, window by window, with one set-up sample
/// taken before each window. Each list holds one value per window.
#[derive(Debug, Default)]
pub struct Windows {
    /// Pairs answered ÷ the window's summed submit→completion time, in
    /// pairs/s.
    pub rates: Vec<f64>,
    /// The median submit→completion time of the window's jobs, in ns.
    pub p50_ns: Vec<f64>,
    /// Mean seconds of one cold start: service and backend construction
    /// through its first completed job (teardown untimed).
    pub setup_s: Vec<f64>,
    /// Jobs in the timed stream.
    pub jobs: usize,
}

/// Untimed warm-up jobs at the head of a pool of `pool` jobs: 5% of it.
fn warm_jobs(pool: usize) -> usize {
    (pool / 20).max(1)
}

/// Warm a fresh service up on the head of the pool, untimed, then drive
/// it from there for `budget`: a `Seconds` budget as `WINDOWS` equal
/// windows, a `Jobs` budget as one. Before each window, `setup_group` cold
/// starts run back to back on successive pool jobs, so the set-up samples
/// are spread over the run like the windows and one stretch of host noise
/// cannot move all of them. Every log is passed to `count`.
pub fn timed_stream(
    w: Workload,
    jobs: &[BatchJob],
    want: &[Vec<u32>],
    budget: Budget,
    setup_group: usize,
    mut count: impl FnMut(&StreamLog),
) -> Windows {
    let warm = warm_jobs(jobs.len());
    let mut svc = w.service();
    count(&stream(
        &mut svc,
        jobs,
        want,
        0,
        Budget::Jobs(warm),
        None,
        |_, _| {},
    ));
    let (windows, slice) = match budget {
        Budget::Seconds(s) => (WINDOWS, Budget::Seconds(s / WINDOWS as f64)),
        jobs => (1, jobs),
    };
    let mut out = Windows::default();
    let mut cold = 0;
    for _ in 0..windows {
        let mut sum = 0.0;
        for _ in 0..setup_group {
            let t0 = Instant::now();
            let mut fresh = w.service();
            let log = stream(
                &mut fresh,
                jobs,
                want,
                cold,
                Budget::Jobs(1),
                None,
                |_, _| {},
            );
            sum += t0.elapsed().as_secs_f64();
            drop(fresh);
            count(&log);
            cold += 1;
        }
        out.setup_s.push(sum / setup_group as f64);

        let log = stream(
            &mut svc,
            jobs,
            want,
            warm + out.jobs,
            slice,
            None,
            |_, _| {},
        );
        let busy_s = log.job_ns.iter().sum::<f64>() / 1e9;
        out.rates.push(log.pairs as f64 / busy_s);
        out.p50_ns.push(median(&log.job_ns));
        out.jobs += log.job_ns.len();
        count(&log);
    }
    out
}

pub fn run(spec: &RunSpec) -> Outcome {
    let w = spec.workload;
    let jobs = w.generate(spec.shape, spec.seed);
    let want = w.oracle(&jobs);
    let mut attempted = 0;
    let mut failed = 0;
    let mut count = |log: &StreamLog| {
        attempted += log.pairs;
        failed += log.failed;
    };

    // From here on the peak resident set is the system's: generating the
    // pool and the threaded oracle have peaked and are done.
    let inputs_rss_mb = reset_peak_rss();

    // A traced run needs the untraced stream only for
    // `trace.overhead_frac`, so it runs half as long there.
    let budget = match spec.budget {
        Budget::Seconds(s) if spec.trace => Budget::Seconds(s / 2.0),
        b => b,
    };
    let timed = timed_stream(w, &jobs, &want, budget, spec.shape.setup_group, &mut count);
    let setup_s = median(&timed.setup_s);

    let mut outcome = Outcome {
        attempted: 0,
        failed: 0,
        replay_errors: Vec::new(),
        metrics: Vec::new(),
        timed_jobs: timed.jobs,
        inputs_rss_mb,
        spans: Vec::new(),
        tally: Tally::default(),
    };
    if !spec.trace {
        let mut m = MetricSet::new(END_TO_END);
        m.set("aligns_per_s", percentile(&timed.rates, 100.0 - QUIET_PCT));
        m.set("job_ms_p50", percentile(&timed.p50_ns, QUIET_PCT) / 1e6);
        m.set("setup_s", setup_s);
        m.set("peak_rss_mb", peak_rss_mb());
        outcome.metrics = m.finish();
    } else {
        let rec = Recorder::shared();
        let traced = Traced {
            inner: w.backend_kind().create(Workload::accel(), w.lanes()),
            rec: rec.clone(),
        };
        let mut svc = AlignmentService::new(Box::new(traced), ServiceConfig::default());
        let mut replayer = Replayer::new(w);
        let budget = Budget::Jobs(spec.shape.traced_jobs);
        let log = stream(
            &mut svc,
            &jobs,
            &want,
            warm_jobs(jobs.len()),
            budget,
            Some(&rec),
            |job, batch| {
                if let Err(e) = replayer.replay(job, batch, &rec) {
                    outcome.replay_errors.push(e);
                }
            },
        );
        count(&log);
        drop(svc);
        let spans = rec.borrow().spans().to_vec();
        let untraced_p50_ns = median(&timed.p50_ns);
        outcome.metrics = layer_metrics(w, &spans, &replayer, untraced_p50_ns, setup_s);
        outcome.spans = spans;
        outcome.tally = replayer.tally;
    }
    outcome.attempted = attempted;
    outcome.failed = failed;
    outcome
}

/// The per-layer metrics of a traced run. Timings are medians per job (or
/// per pair) over the traced jobs; counts are totals over them.
fn layer_metrics(
    workload: Workload,
    spans: &[Span],
    replayer: &Replayer,
    untraced_p50_ns: f64,
    setup_s: f64,
) -> Vec<Metric> {
    let jobs: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == "service.job")
        .map(|s| s.job)
        .collect();
    let ns = |name: &str| -> Vec<f64> {
        per_job_ns(spans, name, &jobs)
            .into_iter()
            .map(|v| v as f64)
            .collect()
    };
    let med = |name: &str, scale: f64| median(&ns(name)) / scale;
    let total = |name: &str| ns(name).iter().sum::<f64>();
    let service = ns("service.job");
    let backend = ns("backend.align_batch");
    // One value per replay (0 for a failed one), in job order.
    let blocking: Vec<f64> = replayer.blocking_ns.iter().map(|&v| v as f64).collect();
    let diff = |a: &[f64], b: &[f64]| -> Vec<f64> { a.iter().zip(b).map(|(x, y)| x - y).collect() };
    let t = &replayer.tally;
    let (dev, cpu) = (ns("hetero.device"), ns("hetero.cpu"));

    let mut m = MetricSet::new(PER_LAYER);
    m.set("service.job_ms_p99", percentile(&service, 99.0) / 1e6);
    m.set("service.jobs", jobs.len() as f64);
    m.set("service.self_us", median(&diff(&service, &backend)) / 1e3);
    m.set("service.setup_s", setup_s);
    m.set("backend.self_us", median(&diff(&backend, &blocking)) / 1e3);

    m.set("accel.run_ms", med("accel.run", 1e6));
    let device_ns = total("accel.run") + total("hetero.device");
    m.set(
        "accel.host_ns_per_sim_cycle",
        ratio(device_ns, t.sim_cycles as f64),
    );
    m.set("accel.sim_cycles", t.sim_cycles as f64);
    for (name, cycles) in STAGE_METRICS.iter().zip(t.stage_cycles) {
        m.set(name, cycles as f64);
    }
    m.set(
        "accel.device_success_frac",
        ratio(t.device_ok as f64, t.device_pairs as f64),
    );
    // Σ|a|·|b| over device pairs ÷ simulated seconds at the chip clock.
    let sim_s = t.sim_cycles as f64 / WFASIC_ASIC_HZ;
    m.set("accel.sim_gcups", ratio(t.device_cells as f64, sim_s) / 1e9);

    m.set("seqio.encode_us", med("seqio.encode", 1e3));
    m.set("driver.bt_split_us", med("driver.bt_split", 1e3));
    m.set("driver.bt_walk_us", med("driver.bt_walk", 1e3));
    m.set("driver.cigar_us", med("driver.cigar", 1e3));
    m.set("driver.bt_bytes", t.bt_bytes as f64);
    m.set("driver.edits", t.edits as f64);

    m.set(
        "core.exact_us_per_pair",
        median(&per_pair_ns(spans, "core.exact")) / 1e3,
    );
    m.set("core.exact_pairs", t.exact_pairs as f64);
    m.set(
        "core.biwfa_ms_per_pair",
        median(&per_pair_ns(spans, "core.biwfa")) / 1e6,
    );
    m.set("core.biwfa_pairs", t.biwfa_pairs as f64);
    m.set("core.peak_wavefront_bytes", t.peak_wavefront_bytes as f64);
    m.set("core.cells_computed", t.cells_computed as f64);
    m.set("core.bases_compared", t.bases_compared as f64);
    m.set("core.extend_calls", t.extend_calls as f64);
    m.set(
        "core.bases_per_extend_call",
        ratio(t.bases_compared as f64, t.extend_calls as f64),
    );

    // Medians over the jobs that had work on that side.
    let busy = |v: &[f64]| -> Vec<f64> { v.iter().copied().filter(|&x| x > 0.0).collect() };
    m.set("hetero.device_ms", median(&busy(&dev)) / 1e6);
    m.set("hetero.cpu_ms", median(&busy(&cpu)) / 1e6);
    let critical = dev.iter().zip(&cpu).filter(|(d, c)| c > d).count();
    m.set(
        "hetero.cpu_critical_frac",
        ratio(critical as f64, jobs.len() as f64),
    );
    // The router's two sides run concurrently on the real path and one
    // after the other in the replay.
    let both = dev.iter().sum::<f64>() + cpu.iter().sum::<f64>();
    m.set(
        "hetero.parallel_efficiency",
        ratio(both, backend.iter().sum()),
    );
    let routed = workload == Workload::HeteroHifi;
    m.set(
        "hetero.device_pairs",
        if routed { t.device_pairs as f64 } else { 0.0 },
    );
    m.set("hetero.cpu_pairs", t.cpu_pairs as f64);

    m.set(
        "trace.attributed_frac",
        ratio(blocking.iter().sum(), backend.iter().sum()),
    );
    m.set(
        "trace.overhead_frac",
        ratio(median(&service), untraced_p50_ns) - 1.0,
    );
    m.finish()
}
