//! Batch-scheduler system tests: submission-order integrity, DMA/compute
//! overlap, per-lane perf-window invariants, and per-lane fault
//! degradation. (1-lane bit-identity with the single-device driver lives
//! in the root `tests/backend_equivalence.rs`.)

use wfa_core::prop;
use wfasic_accel::AccelConfig;
use wfasic_driver::{AlignmentBackend, BatchJob, BatchScheduler, DriverError, MultiLaneBackend};
use wfasic_seqio::dataset::InputSetSpec;
use wfasic_seqio::generate::{ErrorProfile, Pair, PairGenerator};
use wfasic_soc::fault::FaultPlan;

fn pairs(n: usize, length: usize, seed: u64) -> Vec<Pair> {
    InputSetSpec {
        length,
        error_pct: 5,
    }
    .generate(n, seed)
    .pairs
}

/// Re-ID a job queue so every pair in the whole batch carries a unique ID —
/// the tracer dye for drop/duplicate/reorder detection.
fn assign_unique_ids(jobs: &mut [BatchJob]) {
    let mut next = 0u32;
    for job in jobs.iter_mut() {
        for p in &mut job.pairs {
            p.id = next;
            next += 1;
        }
    }
}

#[test]
fn dma_of_the_next_job_overlaps_compute_of_the_previous() {
    let cfg = AccelConfig::wfasic_chip();
    let mut sched = BatchScheduler::new(cfg, 1);
    let jobs = vec![
        BatchJob::score_only(pairs(6, 1000, 1)),
        BatchJob::score_only(pairs(6, 1000, 2)),
    ];
    let batch = sched.submit_batch(&jobs);
    let first = batch.jobs[0].as_ref().unwrap();
    let second = batch.jobs[1].as_ref().unwrap();

    // Job 2's DMA begins the moment job 1's last record has arrived —
    // while job 1's Aligners are still draining.
    assert_eq!(second.report.start, first.report.input_done);
    assert!(
        second.report.start < first.report.total_cycles,
        "job 2's DMA ({}) should start before job 1 completes ({})",
        second.report.start,
        first.report.total_cycles
    );
    // So the batch beats back-to-back serial execution.
    let serial = first.report.duration() + second.report.duration();
    assert!(batch.total_cycles < serial);
}

#[test]
fn round_robin_preserves_submission_order_and_lane_accounting() {
    let cfg = AccelConfig::wfasic_chip();
    let mut sched = BatchScheduler::new(cfg, 3);
    let mut jobs: Vec<BatchJob> = (0..7)
        .map(|i| BatchJob::score_only(pairs(1 + i % 3, 60 + 20 * (i % 4), 40 + i as u64)))
        .collect();
    assign_unique_ids(&mut jobs);
    let expected: Vec<Vec<u32>> = jobs
        .iter()
        .map(|j| j.pairs.iter().map(|p| p.id).collect())
        .collect();

    let batch = sched.submit_batch(&jobs);
    assert_eq!(batch.jobs.len(), 7);
    let got: Vec<Vec<u32>> = batch
        .jobs
        .iter()
        .map(|j| j.as_ref().unwrap().results.iter().map(|r| r.id).collect())
        .collect();
    assert_eq!(got, expected, "reordered results");
    assert_eq!(batch.lanes, vec![0, 1, 2, 0, 1, 2, 0]);
    assert!(batch.throughput() > 0.0);
}

#[test]
fn per_lane_counters_attribute_every_cycle_of_the_batch_window() {
    let cfg = AccelConfig::wfasic_chip();
    let mut sched = BatchScheduler::new(cfg, 2);
    sched.policy.collect_perf = true;
    let jobs = vec![
        BatchJob::score_only(pairs(4, 200, 11)),
        BatchJob::score_only(pairs(2, 100, 12)),
        BatchJob::score_only(pairs(3, 150, 13)),
    ];
    let batch = sched.submit_batch(&jobs);
    let lane_perf = batch.lane_perf.as_ref().expect("collect_perf was set");
    assert_eq!(lane_perf.len(), 2);
    for (lane, counters) in lane_perf.iter().enumerate() {
        assert_eq!(
            counters.total(),
            batch.total_cycles,
            "lane {lane} counters must cover the whole batch window"
        );
    }
    // The lane that finished earlier is idle for the tail of the window.
    let slack: Vec<u64> = (0..2)
        .map(|l| batch.total_cycles - batch.lane_done[l])
        .collect();
    for (lane, counters) in lane_perf.iter().enumerate() {
        let idle = counters.get(wfasic_soc::perf::Stage::Idle);
        assert!(
            idle >= slack[lane],
            "lane {lane}: idle {idle} < completion slack {}",
            slack[lane]
        );
    }
}

#[test]
fn a_faulting_lane_degrades_to_cpu_answers_without_stalling_the_batch() {
    let cfg = AccelConfig::wfasic_chip();
    let mut sched = BatchScheduler::new(cfg, 2);
    sched.policy.cpu_fallback = true;
    sched.set_lane_fault_plan(
        1,
        FaultPlan {
            bit_flip_per_beat: 0.4,
            drop_beat: 0.05,
            ..FaultPlan::none()
        },
    );
    let mut jobs: Vec<BatchJob> = (0..4)
        .map(|i| BatchJob::score_only(pairs(3, 100, 600 + i)))
        .collect();
    assign_unique_ids(&mut jobs);
    let batch = sched.submit_batch(&jobs);

    for (i, outcome) in batch.jobs.iter().enumerate() {
        let job = outcome.as_ref().unwrap_or_else(|e| {
            panic!("job {i} failed despite cpu_fallback: {e}");
        });
        for (res, pair) in job.results.iter().zip(&jobs[i].pairs) {
            assert!(res.success);
            assert_eq!(res.id, pair.id);
            let opts = wfa_core::WfaOptions::exact(cfg.penalties);
            let truth = wfa_core::wfa_align_seqs(&pair.a, &pair.b, &opts).unwrap();
            assert_eq!(res.score, truth.score, "job {i} id {}", res.id);
        }
    }
    // Lane 0's jobs came straight off the hardware.
    for (i, outcome) in batch.jobs.iter().enumerate() {
        if batch.lanes[i] == 0 {
            let job = outcome.as_ref().unwrap();
            assert_eq!(job.report.faults.total(), 0);
            assert!(job.results.iter().all(|r| !r.recovered));
        }
    }
}

#[test]
fn an_oversized_job_fails_alone_without_poisoning_the_batch() {
    let cfg = AccelConfig::wfasic_chip();
    let mut sched = BatchScheduler::new(cfg, 2);
    // ~17 MiB encoded image (2200 pairs x ~8 KiB records) overflows the
    // 15 MiB in->out gap of a lane's layout, so the job is refused before
    // it ever touches the hardware.
    let mut g = PairGenerator::new(4000, 0.02, 5).with_max_len(4000);
    let huge = BatchJob::score_only(g.pairs(2200));
    let jobs = vec![
        BatchJob::score_only(pairs(3, 100, 21)),
        huge,
        BatchJob::score_only(pairs(3, 100, 22)),
    ];
    let batch = sched.submit_batch(&jobs);
    assert!(batch.jobs[0].is_ok());
    assert!(matches!(
        batch.jobs[1],
        Err(DriverError::BatchTooLarge { .. })
    ));
    assert!(batch.jobs[2].is_ok());
}

/// The scheduler property: for random lane counts, queue shapes and
/// per-lane fault plans, every submitted pair comes back exactly once,
/// in submission order, with the right ID — no drops, no duplicates.
#[test]
fn batches_never_drop_duplicate_or_reorder_jobs() {
    let n_cases = if cfg!(debug_assertions) { 12 } else { 24 };
    prop::cases(n_cases, 0x5C4ED, |rng, _| {
        let lanes = rng.gen_range(1, 9);
        let n_jobs = rng.gen_range(1, 7);
        let cfg = AccelConfig::wfasic_chip();
        let mut sched = BatchScheduler::new(cfg, lanes);
        sched.policy.cpu_fallback = true;
        // Sometimes poison one lane; cpu_fallback still answers everything.
        if rng.gen_bool(0.4) {
            let victim = rng.gen_range(0, lanes);
            sched.set_lane_fault_plan(
                victim,
                FaultPlan {
                    bit_flip_per_beat: rng.gen_range_f64(0.0, 0.3),
                    drop_beat: rng.gen_range_f64(0.0, 0.05),
                    bus_stall: rng.gen_range_f64(0.0, 0.05),
                    ..FaultPlan::none()
                },
            );
        }

        let mut jobs = Vec::new();
        for _ in 0..n_jobs {
            let n_pairs = rng.gen_range(1, 4);
            let len = rng.gen_range(32, 80);
            let backtrace = rng.gen_bool(0.3);
            let mut g = PairGenerator::new(len, rng.gen_range_f64(0.0, 0.1), rng.next_u64())
                .with_max_len(len);
            g.profile = ErrorProfile::default();
            let p = g.pairs(n_pairs);
            jobs.push(BatchJob {
                pairs: p,
                backtrace,
                deadline: None,
            });
        }
        assign_unique_ids(&mut jobs);
        let submitted: Vec<Vec<u32>> = jobs
            .iter()
            .map(|j| j.pairs.iter().map(|p| p.id).collect())
            .collect();

        let batch = sched.submit_batch(&jobs);
        assert_eq!(batch.jobs.len(), n_jobs);
        let mut seen = std::collections::HashSet::new();
        for (i, outcome) in batch.jobs.iter().enumerate() {
            let job = outcome.as_ref().expect("cpu_fallback answers every job");
            let ids: Vec<u32> = job.results.iter().map(|r| r.id).collect();
            assert_eq!(ids, submitted[i], "job {i}: wrong/reordered results");
            for id in ids {
                assert!(seen.insert(id), "id {id} duplicated across jobs");
            }
            assert!(job.results.iter().all(|r| r.success));
        }
        let total: usize = submitted.iter().map(|v| v.len()).sum();
        assert_eq!(seen.len(), total, "some pair was dropped");
    });
}

#[test]
fn an_empty_batch_reports_zero_throughput() {
    // Guard against 0/0: no jobs means no cycles, and throughput must be
    // a well-defined 0.0, not NaN.
    let mut sched = BatchScheduler::new(AccelConfig::wfasic_chip(), 2);
    let batch = sched.submit_batch(&[]);
    assert_eq!(batch.total_cycles, 0);
    assert_eq!(batch.alignments(), 0);
    assert_eq!(batch.throughput(), 0.0);
    assert!(!batch.throughput().is_nan());
}

#[test]
fn a_tight_deadline_is_refused_with_a_typed_error_and_never_feeds_the_breaker() {
    let cfg = AccelConfig::wfasic_chip();
    let mut sched = BatchScheduler::new(cfg, 2);
    sched.policy.quarantine_threshold = 1; // hair-trigger: any counted failure trips
    let jobs = vec![
        BatchJob::score_only(pairs(3, 100, 0xD0D1)),
        // One cycle of budget cannot cover even the DMA of the input image.
        BatchJob::score_only(pairs(3, 100, 0xD0D2)).with_deadline(1),
        BatchJob::score_only(pairs(3, 100, 0xD0D3)),
    ];
    let batch = sched.submit_batch(&jobs);

    assert!(batch.jobs[0].is_ok());
    assert!(batch.jobs[2].is_ok(), "refusal must not poison the batch");
    match &batch.jobs[1] {
        Err(DriverError::DeadlineExceeded { budget, spent }) => {
            assert_eq!(*budget, 1);
            assert!(*spent >= *budget);
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert_eq!(sched.deadline_refusals(), 1);
    // A deadline refusal is the caller's contract, not lane sickness: the
    // circuit breaker must not count it even at threshold 1.
    assert_eq!(sched.quarantine_events(), 0);
    for h in sched.lane_health() {
        assert_eq!(h.consecutive_failures, 0);
        assert!(h.available());
    }
}

#[test]
fn a_corrupted_doorbell_does_not_wedge_the_lane_forever() {
    // Regression: an MMIO fault corrupting the START write used to latch a
    // garbage doorbell value the FSM never consumed, so every later start
    // on that lane was refused as START-while-busy — a permanently stuck
    // lane. The FSM must consume a malformed doorbell when it refuses it.
    let cfg = AccelConfig::wfasic_chip();
    let mut sched = BatchScheduler::new(cfg, 1);
    sched.policy.cpu_fallback = true;
    sched.policy.max_retries = 0;
    sched.set_lane_fault_plan(
        0,
        FaultPlan {
            mmio_corrupt: 1.0,
            ..FaultPlan::uniform(0x57A2, 0.0)
        },
    );

    // Under 100% MMIO corruption the lane fails (CPU recovers the answers)
    // and must record at least one failed hardware attempt.
    let mut jobs: Vec<BatchJob> = (0..3)
        .map(|i| BatchJob::score_only(pairs(2, 80, 0xB00F + i)))
        .collect();
    assign_unique_ids(&mut jobs);
    let storm_batch = sched.submit_batch(&jobs);
    assert!(storm_batch.jobs.iter().all(|j| j.is_ok()));
    assert!(sched.lane_health()[0].failed_attempts > 0);

    // The storm passes. A clean job must now run on the hardware again —
    // with the wedge bug this failed forever with START_WHILE_BUSY.
    sched.set_lane_fault_plan(0, FaultPlan::none());
    let clean = BatchJob::score_only(pairs(2, 80, 0xC1EA));
    let batch = sched.submit_batch(&[clean]);
    let job = batch.jobs[0].as_ref().expect("lane must recover");
    assert!(job.results.iter().all(|r| r.success && !r.recovered));
    assert_eq!(
        sched.lane_health()[0].consecutive_failures,
        0,
        "hardware success must reset the failure streak"
    );
}

#[test]
fn repeated_batches_through_one_backend_cost_the_same_cycles() {
    // Regression: each batch restarts its lane timelines at cycle 0, but
    // the shared port arbiter used to keep every earlier batch's busy
    // intervals, so the same batch cost 2x, 3x, ... cycles on later
    // submissions. Two lanes so the arbiter actually arbitrates.
    let mut backend = MultiLaneBackend::new(AccelConfig::wfasic_chip(), 2);
    backend.chunk = 3;
    let job = BatchJob::with_backtrace(pairs(12, 100, 0xA4B1));
    let first = backend.align_batch(&job).unwrap();
    let first_arb = backend.sched.soc.arbiter_stats();
    let second = backend.align_batch(&job).unwrap();
    let second_arb = backend.sched.soc.arbiter_stats();

    assert!(first.sim_cycles.unwrap() > 0);
    assert_eq!(second.sim_cycles, first.sim_cycles);
    assert!(first_arb.grants() > 0);
    assert_eq!(second_arb, first_arb, "arbiter stats describe one batch");
    for (a, b) in first.results.iter().zip(&second.results) {
        assert_eq!((a.id, a.success, a.score), (b.id, b.success, b.score));
    }
}
