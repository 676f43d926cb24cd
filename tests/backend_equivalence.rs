//! Backend-equivalence suite: the behaviours that make the backends
//! interchangeable beyond a per-pair answer. (Score, CIGAR and transcript
//! agreement of every engine over one seeded grid is the oracle matrix,
//! `tests/matrix/mod.rs`.)
//!
//! One job on one lane — through the raw driver, the lane engine's batch
//! queue or the backend layer — is bit-identical on every failure path, perf
//! counters included; a pair the device cannot finish gets the same
//! software answer, on the service policy's route, whichever backend
//! recovers it; the service's policy drives the lanes' circuit breaker;
//! the heterogeneous backend never drops, duplicates, or reorders a pair
//! under random envelope violations and fault plans; and a `cpu` batch,
//! shared with the process's resident helper threads, answers and tallies
//! exactly as a serial `CpuWfaBackend::align` loop.

use wfasic::accel::{offsets, AccelConfig};
use wfasic::driver::batch::{BatchJob, DEFAULT_LANE_CHUNK};
use wfasic::driver::{
    AlignPolicy, AlignmentBackend, AlignmentResult, BackendCounters, BackendKind, CpuRoute,
    CpuWfaBackend, DriverError, HeterogeneousBackend, JobResult, LaneState, MultiLaneBackend,
    StrategySelect, WaitMode, WfasicDriver,
};
use wfasic::seqio::{InputSetSpec, Pair, Seq};
use wfasic::service::{AlignmentService, ServiceConfig};
use wfasic::soc::fault::{FaultCounters, FaultPlan};
use wfasic::soc::perf::PerfCounters;
use wfasic::wfa::{prop, swg_score, AdaptiveParams, Penalties};

/// One job as a one-lane engine saw it: the answers and the full run
/// report (rendered, since reports hold floats) or the error, and what the
/// device was left holding.
#[derive(Debug, PartialEq)]
struct OneLane {
    results: Result<String, DriverError>,
    report: Option<String>,
    perf: Option<PerfCounters>,
    /// `(config_cycles, retries, cpu_backtrace_cycles)`, which only a
    /// `JobResult` carries.
    job: Option<(u64, u32, u64)>,
    interrupt_raised: bool,
    faults: FaultCounters,
    irq_pending: u64,
}

impl OneLane {
    fn of_job(
        out: Result<JobResult, DriverError>,
        faults: FaultCounters,
        irq_pending: u64,
    ) -> Self {
        match out {
            Ok(j) => OneLane {
                results: Ok(format!("{:?}", j.results)),
                report: Some(format!("{:?}", j.report)),
                perf: j.perf_breakdown().copied(),
                job: Some((j.config_cycles, j.retries, j.cpu_backtrace_cycles)),
                interrupt_raised: j.report.interrupt_raised,
                faults,
                irq_pending,
            },
            Err(e) => OneLane {
                results: Err(e),
                report: None,
                perf: None,
                job: None,
                interrupt_raised: false,
                faults,
                irq_pending,
            },
        }
    }
}

/// One policy and fault plan to run a job under, and what must hold of it
/// given one clean attempt's duration for the job.
struct Scenario {
    name: &'static str,
    backtrace: bool,
    policy: AlignPolicy,
    plan: Option<FaultPlan>,
    expect: fn(&OneLane, u64) -> bool,
}

/// The raw driver, a one-lane `submit_batch`, the `device` backend and a
/// one-lane `multilane` backend run one job through the same attempt loop,
/// so on every path — clean, retried, timed out, refused, interrupted —
/// they agree on the answers, the full run report (per-stage perf counters
/// included), configuration cycles, retries, injected faults and the
/// interrupt left pending. A retry replays the job after the failed attempt
/// and its backoff, so the watchdog and the deadline see each attempt's own
/// duration.
#[test]
fn one_lane_one_job_keeps_raw_driver_perf_counters() {
    let cfg = AccelConfig::wfasic_chip();
    let pairs = InputSetSpec {
        length: 100,
        error_pct: 5,
    }
    .generate(5, 0x9E2F)
    .pairs;
    assert_eq!(
        BackendKind::Device.create(cfg, 1).capabilities(),
        MultiLaneBackend::device(cfg).capabilities()
    );
    let clean = |backtrace| {
        let mut drv = WfasicDriver::new(cfg);
        let out = drv.submit(&pairs, backtrace, WaitMode::PollIdle);
        out.unwrap().report.duration()
    };
    let bt_cycles = clean(true);

    let scenarios = [
        Scenario {
            name: "clean backtrace job",
            backtrace: true,
            policy: AlignPolicy {
                collect_perf: true,
                ..AlignPolicy::default()
            },
            plan: None,
            expect: |s, _| s.perf.is_some() && s.job.is_some_and(|(_, retries, _)| retries == 0),
        },
        Scenario {
            name: "retried under a uniform fault plan",
            backtrace: true,
            policy: AlignPolicy {
                max_retries: 2,
                cpu_fallback: true,
                ..AlignPolicy::default()
            },
            plan: Some(FaultPlan::uniform(2, 0.01)),
            expect: |s, _| s.job.is_some_and(|(_, retries, _)| retries == 1),
        },
        Scenario {
            name: "retried inside a deadline",
            backtrace: true,
            policy: AlignPolicy {
                max_retries: 2,
                retry_backoff_cycles: bt_cycles / 2,
                deadline_cycles: Some(3 * bt_cycles),
                cpu_fallback: true,
                ..AlignPolicy::default()
            },
            plan: Some(FaultPlan::uniform(2, 0.01)),
            expect: |s, _| s.job.is_some_and(|(_, retries, _)| retries == 1),
        },
        Scenario {
            name: "watchdog timeout",
            backtrace: false,
            policy: AlignPolicy {
                watchdog_cycles: 10,
                max_retries: 1,
                ..AlignPolicy::default()
            },
            plan: None,
            // Both attempts time out; the retry waited its own attempt's
            // cycles, like the first.
            expect: |s, cycles| {
                matches!(s.results, Err(DriverError::Timeout { waited, watchdog: 10 })
                    if waited == cycles)
            },
        },
        Scenario {
            name: "deadline refusal",
            backtrace: false,
            policy: AlignPolicy {
                deadline_cycles: Some(100),
                ..AlignPolicy::default()
            },
            plan: None,
            expect: |s, _| {
                matches!(
                    s.results,
                    Err(DriverError::DeadlineExceeded { budget: 100, .. })
                )
            },
        },
        Scenario {
            name: "corrupted IRQ_ENABLE write",
            backtrace: false,
            policy: AlignPolicy {
                cpu_fallback: true,
                ..AlignPolicy::default()
            },
            plan: Some(FaultPlan {
                seed: 0,
                mmio_corrupt: 0.1,
                ..FaultPlan::none()
            }),
            expect: |s, _| s.interrupt_raised,
        },
    ];

    for sc in &scenarios {
        let job = BatchJob {
            pairs: pairs.clone(),
            backtrace: sc.backtrace,
            deadline: None,
        };

        let mut drv = WfasicDriver::new(cfg);
        drv.policy = sc.policy;
        if let Some(plan) = sc.plan {
            drv.device.set_fault_plan(plan);
        }
        let out = drv.submit(&pairs, sc.backtrace, WaitMode::PollIdle);
        let irq = drv.device.mmio_read(offsets::IRQ_PENDING);
        let want = OneLane::of_job(out, drv.device.fault_counters(), irq);
        assert!(
            (sc.expect)(&want, clean(sc.backtrace)),
            "{}: {want:?}",
            sc.name
        );
        assert_eq!(want.irq_pending, 0, "{}: interrupt left pending", sc.name);

        let mut lanes = MultiLaneBackend::new(cfg, 1);
        lanes.policy = sc.policy;
        if let Some(plan) = sc.plan {
            lanes.set_lane_fault_plan(0, plan);
        }
        let batch = lanes.submit_batch(std::slice::from_ref(&job));
        assert_eq!(batch.arbiter.wait_cycles(), 0, "one lane never contends");
        if let Ok(j) = &batch.jobs[0] {
            assert_eq!(batch.total_cycles, j.report.total_cycles, "{}", sc.name);
        }
        let out = batch.jobs.into_iter().next().expect("one job");
        let irq = lanes.lane_mut(0).mmio_read(offsets::IRQ_PENDING);
        let got = OneLane::of_job(out, lanes.counters().faults, irq);
        assert_eq!(
            got, want,
            "{}: submit_batch differs from the driver",
            sc.name
        );

        for mut backend in [MultiLaneBackend::device(cfg), MultiLaneBackend::new(cfg, 1)] {
            let name = backend.capabilities().name;
            backend.apply_policy(&sc.policy);
            if let Some(plan) = sc.plan {
                backend.set_lane_fault_plan(0, plan);
            }
            let out = backend.align_batch(&job);
            let irq = backend.lane_mut(0).mmio_read(offsets::IRQ_PENDING);
            let faults = backend.counters().faults;
            // The backend layer does not carry configuration cycles or
            // retries; the `submit_batch` check above covers them.
            let got = match out {
                Ok(b) => {
                    assert_eq!(b.reports.len(), 1, "{}: {name} split the job", sc.name);
                    let report = &b.reports[0];
                    assert_eq!(b.sim_cycles, Some(report.total_cycles), "{}", sc.name);
                    OneLane {
                        results: Ok(format!("{:?}", b.results)),
                        report: Some(format!("{report:?}")),
                        perf: b.perf.map(|p| p.counters),
                        job: want.job,
                        interrupt_raised: report.interrupt_raised,
                        faults,
                        irq_pending: irq,
                    }
                }
                Err(e) => OneLane::of_job(Err(e), faults, irq),
            };
            assert_eq!(got, want, "{}: {name} differs from the driver", sc.name);
        }
    }
}

/// What a result says, rendered so results from different engines compare.
fn rendered(r: &AlignmentResult) -> (u32, bool, u32, Option<String>, bool) {
    let cigar = r.cigar.as_ref().map(|c| c.to_rle_string());
    (r.id, r.success, r.score, cigar, r.recovered)
}

/// The device backends' CPU fallback runs on the service policy's route:
/// with `strategy: Adaptive`, every pair a `k_max = 12` device cannot
/// finish comes back exactly as a CPU engine on that route answers it, and
/// the backend's counters tally each recovery once, as an adaptive pair. A
/// lone driver's fallback runs on its policy's route the same way.
#[test]
fn device_fallback_routes_by_the_policy_and_tallies_its_pairs() {
    let mut cfg = AccelConfig::wfasic_chip();
    cfg.k_max = 12;
    let pairs = InputSetSpec {
        length: 100,
        error_pct: 10,
    }
    .generate(12, 0xADA7)
    .pairs;
    let policy = AlignPolicy {
        cpu_fallback: true,
        strategy: StrategySelect::Adaptive,
        ..AlignPolicy::default()
    };
    let mut cpu = CpuWfaBackend::new(cfg.penalties);
    cpu.apply_policy(&policy);
    for kind in [BackendKind::Device, BackendKind::MultiLane] {
        let mut backend = kind.create(cfg, 2);
        backend.apply_policy(&policy);
        let batch = backend
            .align_batch(&BatchJob::with_backtrace(pairs.clone()))
            .unwrap();
        let mut recovered = 0;
        for (res, pair) in batch.results.iter().zip(&pairs) {
            assert!(res.success, "{}: pair {} unanswered", kind.name(), pair.id);
            if res.recovered {
                recovered += 1;
                let want = cpu.align(pair, true, true);
                assert_eq!(rendered(res), rendered(&want), "{}", kind.name());
            }
        }
        assert!(recovered > 0, "{}: k_max 12 recovers pairs", kind.name());
        let c = backend.counters();
        assert_eq!(c.adaptive_pairs, recovered, "{}", kind.name());
        assert_eq!((c.exact_pairs, c.biwfa_pairs), (0, 0), "{}", kind.name());
        assert_eq!(c.recovered_pairs, recovered, "{}", kind.name());
        assert!(c.peak_memory_bytes > 0, "{}", kind.name());
    }
    // A lone driver's fallback takes its route from its policy too: under a
    // band too tight to stay exact, its recoveries match a CPU engine on
    // that route, and some score above the optimum.
    let tight = AlignPolicy {
        adaptive: Some(AdaptiveParams {
            min_wavefront_length: 1,
            max_distance_threshold: 1,
        }),
        ..policy
    };
    cpu.apply_policy(&tight);
    let mut drv = WfasicDriver::new(cfg);
    drv.policy = tight;
    let job = drv.submit(&pairs, true, WaitMode::PollIdle).unwrap();
    let mut above_optimum = 0;
    for (res, pair) in job.results.iter().zip(&pairs) {
        if res.recovered {
            assert_eq!(rendered(res), rendered(&cpu.align(pair, true, true)));
            let optimum = swg_score(&pair.a.bytes(), &pair.b.bytes(), &cfg.penalties);
            above_optimum += usize::from(res.score as u64 > optimum);
        }
    }
    assert!(above_optimum > 0, "the driver's fallback ignored its route");
}

/// The service's policy drives the lanes' circuit breaker. Over
/// a two-lane `multilane` service whose watchdog fails every attempt, one
/// three-chunk batch with a one-strike breaker quarantines both lanes (the
/// third chunk, shifted off the first lane, finds no lane left and degrades
/// to the CPU); with the breaker off the same batch quarantines nothing.
/// Either way the CPU fallback answers every pair with the SWG optimum.
#[test]
fn service_policy_drives_the_lane_breaker() {
    let cfg = AccelConfig::wfasic_chip();
    let pairs = InputSetSpec {
        length: 100,
        error_pct: 5,
    }
    .generate(2 * DEFAULT_LANE_CHUNK + 1, 0xB2EA)
    .pairs;
    for (threshold, quarantines) in [(1, 2), (0, 0)] {
        let policy = AlignPolicy {
            watchdog_cycles: 1,
            max_retries: 0,
            quarantine_threshold: threshold,
            cpu_fallback: true,
            ..AlignPolicy::default()
        };
        let svc_cfg = ServiceConfig {
            policy,
            ..ServiceConfig::default()
        };
        let mut svc = AlignmentService::with_backend(BackendKind::MultiLane, cfg, 2, svc_cfg);
        let done = svc.stream([BatchJob::score_only(pairs.clone())]);
        let batch = done[0].outcome.as_ref().expect("the fallback answers");
        assert_eq!(batch.results.len(), pairs.len());
        for (res, pair) in batch.results.iter().zip(&pairs) {
            assert!(res.success && res.recovered, "threshold {threshold}");
            let want = swg_score(&pair.a.bytes(), &pair.b.bytes(), &cfg.penalties);
            assert_eq!(res.score as u64, want, "threshold {threshold}");
        }
        assert_eq!(svc.backend_counters().quarantine_events, quarantines);
        let quarantined = svc
            .lane_health()
            .iter()
            .filter(|h| matches!(h.state, LaneState::Quarantined { .. }))
            .count();
        assert_eq!(quarantined as u64, quarantines, "threshold {threshold}");
    }
}

/// The heterogeneous backend keeps one CPU engine (and its arena) across
/// batches: two batches through one backend answer and tally exactly as
/// two fresh backends do. Each batch mixes in-envelope pairs, some over
/// `Score_max` (recovered after the device job), with pairs past the
/// envelope (the shared CPU queue).
#[test]
fn hetero_reuses_its_cpu_engine_across_batches() {
    let mut cfg = AccelConfig::wfasic_chip();
    cfg.max_supported_len = 64;
    cfg.k_max = 12;
    let batch = |short: u64, long: u64| {
        let mut pairs = Vec::new();
        for (length, seed) in [(56, short), (150, long)] {
            let spec = InputSetSpec {
                length,
                error_pct: 10,
            };
            for mut p in spec.generate(4, seed).pairs {
                p.id = pairs.len() as u32;
                pairs.push(p);
            }
        }
        BatchJob::with_backtrace(pairs)
    };
    let batches = [batch(0x0E01, 0x0E02), batch(0x0E03, 0x0E04)];
    let answers =
        |b: &wfasic::driver::BackendBatch| -> Vec<_> { b.results.iter().map(rendered).collect() };
    let mut reused = HeterogeneousBackend::new(cfg, 2);
    let mut fresh_tally = (0, 0);
    for job in &batches {
        let mut fresh = HeterogeneousBackend::new(cfg, 2);
        let want = fresh.align_batch(job).unwrap();
        let got = reused.align_batch(job).unwrap();
        assert_eq!(answers(&got), answers(&want));
        let c = fresh.counters();
        fresh_tally = (
            fresh_tally.0 + c.exact_pairs,
            fresh_tally.1 + c.recovered_pairs,
        );
    }
    let c = reused.counters();
    assert!(c.exact_pairs > 0, "the CPU side ran");
    assert_eq!((c.exact_pairs, c.recovered_pairs), fresh_tally);
}

/// A device with a 64-base envelope and a job where most pairs miss it:
/// twelve pairs of 80 to 200 bases for the shared CPU queue, interleaved
/// with `in_envelope` pairs of 56 bases for the device.
fn queue_cfg_and_job(in_envelope: usize, seed: u64) -> (AccelConfig, BatchJob) {
    let mut cfg = AccelConfig::wfasic_chip();
    cfg.max_supported_len = 64;
    let mut pairs = Vec::new();
    for k in 0..12 + in_envelope {
        let length = if k % 5 == 4 && k / 5 < in_envelope {
            56
        } else {
            [80, 200, 120, 160][k % 4]
        };
        let spec = InputSetSpec {
            length,
            error_pct: 5,
        };
        let mut p = spec.generate(1, seed ^ k as u64).pairs.remove(0);
        p.id = k as u32;
        pairs.push(p);
    }
    (cfg, BatchJob::with_backtrace(pairs))
}

/// The CPU pairs of a heterogeneous batch are one queue that the resident
/// helpers and the lane thread drain together, so which engine answers a pair
/// depends on timing. The answers and the tallies must not: twenty runs
/// through one backend all answer every CPU-routed pair exactly as a lone
/// `CpuWfaBackend` does, and the counters add up to that engine's tallies.
#[test]
fn hetero_shared_cpu_queue_answers_and_tallies_deterministically() {
    let (cfg, job) = queue_cfg_and_job(3, 0x0E05);
    let mut oracle = CpuWfaBackend::new(cfg.penalties);
    let mut hetero = HeterogeneousBackend::new(cfg, 2);
    let first = hetero.align_batch(&job).unwrap();
    let mut cpu_routed = 0;
    for (res, pair) in first.results.iter().zip(&job.pairs) {
        if res.recovered {
            cpu_routed += 1;
            let want = oracle.align(pair, true, true);
            assert_eq!(rendered(res), rendered(&want), "pair {}", pair.id);
        } else {
            let swg = swg_score(&pair.a.bytes(), &pair.b.bytes(), &cfg.penalties);
            assert_eq!(
                (res.success, res.score as u64),
                (true, swg),
                "pair {}",
                pair.id
            );
        }
    }
    assert_eq!(cpu_routed, 12, "every pair past the envelope took the CPU");
    let once = oracle.counters();
    let answers: Vec<_> = first.results.iter().map(rendered).collect();
    for run in 1..=20u64 {
        if run > 1 {
            let again = hetero.align_batch(&job).unwrap();
            assert_eq!(
                again.results.iter().map(rendered).collect::<Vec<_>>(),
                answers
            );
        }
        let c = hetero.counters();
        let tallies = (c.exact_pairs, c.biwfa_pairs, c.adaptive_pairs);
        let want = (once.exact_pairs, once.biwfa_pairs, once.adaptive_pairs);
        assert_eq!(
            tallies,
            (run * want.0, run * want.1, run * want.2),
            "run {run}"
        );
        assert_eq!(c.recovered_pairs, run * cpu_routed, "run {run}");
        assert_eq!(c.peak_memory_bytes, once.peak_memory_bytes, "run {run}");
    }
}

/// A heterogeneous batch whose CPU queue holds one pair: a helper wakes
/// for it while the device runs, or the lane thread takes it once its
/// device batch is done, whichever claims it first. Either way, twenty
/// runs answer that pair and tally it exactly as a lone `CpuWfaBackend`
/// does, and every device pair keeps its exact score.
#[test]
fn hetero_with_one_cpu_pair_answers_and_tallies_as_a_lone_cpu_engine() {
    let mut cfg = AccelConfig::wfasic_chip();
    cfg.max_supported_len = 64;
    let mut pairs = Vec::new();
    for (k, length) in [56, 48, 150, 56, 40, 56].into_iter().enumerate() {
        let spec = InputSetSpec {
            length,
            error_pct: 5,
        };
        let mut p = spec.generate(1, 0x0E08 ^ k as u64).pairs.remove(0);
        p.id = k as u32;
        pairs.push(p);
    }
    let job = BatchJob::with_backtrace(pairs);
    let mut oracle = CpuWfaBackend::new(cfg.penalties);
    let want = rendered(&oracle.align(&job.pairs[2], true, true));
    let once = oracle.counters();
    let mut hetero = HeterogeneousBackend::new(cfg, 1);
    for run in 1..=20u64 {
        let batch = hetero.align_batch(&job).unwrap();
        for (res, pair) in batch.results.iter().zip(&job.pairs) {
            if pair.id == 2 {
                assert_eq!(rendered(res), want, "run {run}");
                continue;
            }
            let swg = swg_score(&pair.a.bytes(), &pair.b.bytes(), &cfg.penalties);
            assert_eq!(
                (res.success, res.recovered, res.score as u64),
                (true, false, swg),
                "run {run} pair {}",
                pair.id
            );
        }
        let c = hetero.counters();
        assert_eq!(
            (c.exact_pairs, c.biwfa_pairs, c.adaptive_pairs),
            (
                run * once.exact_pairs,
                run * once.biwfa_pairs,
                run * once.adaptive_pairs
            ),
            "run {run}"
        );
        assert_eq!(c.recovered_pairs, run, "run {run}");
        assert_eq!(c.peak_memory_bytes, once.peak_memory_bytes, "run {run}");
    }
}

/// A route set directly on `hetero.cpu` holds on every thread that drains
/// the CPU queue: with a job of CPU pairs only, the lane thread and the
/// helpers start claiming pairs at once, and every pair must still be
/// tallied under the route's strategy, not the default one.
#[test]
fn hetero_cpu_route_holds_on_both_drainers() {
    let (cfg, job) = queue_cfg_and_job(0, 0x0E06);
    let mut hetero = HeterogeneousBackend::new(cfg, 2);
    hetero.cpu.route = CpuRoute {
        select: StrategySelect::BiWfa,
        ..CpuRoute::default()
    };
    let runs = 5;
    for _ in 0..runs {
        let batch = hetero.align_batch(&job).unwrap();
        assert!(batch.results.iter().all(|r| r.success && r.recovered));
    }
    let c = hetero.counters();
    assert_eq!(c.biwfa_pairs, runs * job.pairs.len() as u64);
    assert_eq!((c.exact_pairs, c.adaptive_pairs), (0, 0));
}

/// `reset_counters` clears the CPU tallies, the helpers' share of the
/// queue included.
#[test]
fn hetero_reset_clears_both_cpu_engines() {
    let (cfg, job) = queue_cfg_and_job(2, 0x0E07);
    let mut hetero = HeterogeneousBackend::new(cfg, 2);
    for _ in 0..3 {
        hetero.align_batch(&job).unwrap();
    }
    let c = hetero.counters();
    assert!(c.exact_pairs > 0 && c.peak_memory_bytes > 0);
    hetero.reset_counters();
    let c = hetero.counters();
    let tallies = (c.exact_pairs, c.biwfa_pairs, c.adaptive_pairs);
    assert_eq!((tallies, c.peak_memory_bytes), ((0, 0, 0), 0));
}

/// The heterogeneous property: random mixes of in-envelope and
/// out-of-envelope pairs, random fault plans on random lanes — every pair
/// comes back exactly once, in order, successfully.
#[test]
fn hetero_never_drops_duplicates_or_reorders_under_violations_and_faults() {
    let n_cases = if cfg!(debug_assertions) { 10 } else { 20 };
    prop::cases(n_cases, 0x8E7E_0D11, |rng, _| {
        // A small device envelope so random pairs genuinely violate it:
        // reads over 64 bases must take the CPU route.
        let mut cfg = AccelConfig::wfasic_chip();
        cfg.max_supported_len = 64;
        cfg.k_max = 200;
        let lanes = rng.gen_range(1, 5);
        let mut backend = HeterogeneousBackend::new(cfg, lanes);
        if rng.gen_bool(0.5) {
            let victim = rng.gen_range(0, lanes);
            backend.accel.set_lane_fault_plan(
                victim,
                FaultPlan {
                    bit_flip_per_beat: rng.gen_range_f64(0.0, 0.3),
                    drop_beat: rng.gen_range_f64(0.0, 0.05),
                    bus_stall: rng.gen_range_f64(0.0, 0.05),
                    ..FaultPlan::none()
                },
            );
            backend.accel.policy.max_retries = rng.gen_range(0, 3) as u32;
        }

        let n_pairs = rng.gen_range(4, 16);
        let backtrace = rng.gen_bool(0.5);
        let mut pairs = Vec::new();
        for id in 0..n_pairs {
            // ~40% of pairs are longer than the 64-base envelope.
            let len = if rng.gen_bool(0.4) {
                rng.gen_range(65, 160)
            } else {
                rng.gen_range(24, 65)
            };
            let mut p = InputSetSpec {
                length: len,
                error_pct: 5,
            }
            .generate(1, rng.next_u64())
            .pairs
            .remove(0);
            p.id = id as u32;
            pairs.push(p);
        }

        let batch = backend
            .align_batch(&BatchJob {
                pairs: pairs.clone(),
                backtrace,
                deadline: None,
            })
            .expect("the heterogeneous backend answers every batch");

        let ids: Vec<u32> = batch.results.iter().map(|r| r.id).collect();
        let want: Vec<u32> = pairs.iter().map(|p| p.id).collect();
        assert_eq!(ids, want, "dropped, duplicated, or reordered a pair");
        for (res, pair) in batch.results.iter().zip(&pairs) {
            assert!(res.success, "pair {} unanswered", pair.id);
            let oracle = swg_score(&pair.a.bytes(), &pair.b.bytes(), &Penalties::WFASIC_DEFAULT);
            assert_eq!(res.score as u64, oracle, "pair {} wrong score", pair.id);
            let oversized = pair.a.len().max(pair.b.len()) > 64;
            if oversized {
                assert!(res.recovered, "oversized pair {} not CPU-routed", pair.id);
            }
            if backtrace {
                let cigar = res.cigar.as_ref().expect("backtrace was on");
                cigar.check(&pair.a.bytes(), &pair.b.bytes()).unwrap();
                assert_eq!(cigar.score(&Penalties::WFASIC_DEFAULT), oracle);
            }
        }
    });
}

/// The `cpu` batch mix: 57 pairs of 150 bp at 5% error, except a raw pair
/// (lowercase bases and an `N`, so it is aligned as bytes) at index 1 and
/// a 10.5 kb pair (BiWFA under `Auto`) at index 7. Ids are positions.
fn cpu_mix(seed: u64) -> Vec<Pair> {
    let short = InputSetSpec {
        length: 150,
        error_pct: 5,
    };
    let mut pairs = short.generate(57, seed).pairs;
    let long = InputSetSpec {
        length: 10_500,
        error_pct: 1,
    };
    pairs[7] = long.generate(1, seed ^ 0x7).pairs.remove(0);
    let mut raw = pairs[1].a.bytes().into_owned();
    raw[3] = b'N';
    raw[10..20].make_ascii_lowercase();
    pairs[1].a = Seq::from_bytes(raw);
    for (i, p) in pairs.iter_mut().enumerate() {
        p.id = i as u32;
    }
    pairs
}

/// A `cpu` batch is one queue the backend's engine drains together with
/// the resident helpers, so which engine answers a pair depends on timing.
/// The answers and the counters must not: batches of 0, 1, 2, 29 and 57
/// pairs, on the default `Auto` route and on an `Adaptive` route set
/// through `apply_policy`, with and without backtrace, answer exactly as a
/// serial `CpuWfaBackend::align` loop, and after every batch the counters
/// equal that loop's tallies plus the batch bookkeeping.
#[test]
fn cpu_batches_match_a_serial_align_loop() {
    let cfg = AccelConfig::wfasic_chip();
    let pairs = cpu_mix(0xC0_0001);
    let adaptive = AlignPolicy {
        strategy: StrategySelect::Adaptive,
        ..AlignPolicy::default()
    };
    for policy in [AlignPolicy::default(), adaptive] {
        let mut backend = BackendKind::Cpu.create(cfg, 1);
        backend.apply_policy(&policy);
        let mut serial = CpuWfaBackend::new(cfg.penalties);
        serial.apply_policy(&policy);
        let mut want_counters = BackendCounters::default();
        for n in [0, 1, 2, 29, 57] {
            for backtrace in [true, false] {
                let job = BatchJob {
                    pairs: pairs[..n].to_vec(),
                    backtrace,
                    deadline: None,
                };
                let want: Vec<_> = job
                    .pairs
                    .iter()
                    .map(|p| rendered(&serial.align(p, backtrace, false)))
                    .collect();
                let got = backend.align_batch(&job).unwrap();
                let got: Vec<_> = got.results.iter().map(rendered).collect();
                let label = format!("{:?} n={n} bt={backtrace}", policy.strategy);
                assert_eq!(got, want, "{label}");
                want_counters.jobs += 1;
                want_counters.pairs += n as u64;
                want_counters.failed_pairs += want.iter().filter(|r| !r.1).count() as u64;
                let tallies = serial.counters();
                let want_counters = BackendCounters {
                    exact_pairs: tallies.exact_pairs,
                    biwfa_pairs: tallies.biwfa_pairs,
                    adaptive_pairs: tallies.adaptive_pairs,
                    peak_memory_bytes: tallies.peak_memory_bytes,
                    ..want_counters
                };
                assert_eq!(backend.counters(), want_counters, "{label}");
            }
        }
        let c = backend.counters();
        match policy.strategy {
            StrategySelect::Auto => assert_eq!((c.biwfa_pairs, c.adaptive_pairs), (4, 0)),
            _ => assert_eq!((c.exact_pairs, c.biwfa_pairs), (0, 0)),
        }
    }
}

/// Four threads run `cpu` batches at once, all sharing the process's
/// resident helpers: each gets its own answers, batch after batch.
#[test]
fn cpu_batches_on_four_threads_each_get_their_own_answers() {
    let cfg = AccelConfig::wfasic_chip();
    let sets: Vec<Vec<Pair>> = (0..4u32)
        .map(|t| {
            let mut pairs = cpu_mix(0xC0_0100 + t as u64);
            pairs.remove(7); // the long pair: keep the rounds short
            for p in &mut pairs {
                p.id += 1000 * t;
            }
            pairs
        })
        .collect();
    std::thread::scope(|scope| {
        for set in &sets {
            scope.spawn(move || {
                let mut serial = CpuWfaBackend::new(cfg.penalties);
                let want: Vec<_> = set
                    .iter()
                    .map(|p| rendered(&serial.align(p, false, false)))
                    .collect();
                let mut backend = BackendKind::Cpu.create(cfg, 1);
                for round in 0..10 {
                    let got = backend
                        .align_batch(&BatchJob::score_only(set.clone()))
                        .unwrap();
                    let got: Vec<_> = got.results.iter().map(rendered).collect();
                    assert_eq!(got, want, "round {round}");
                }
                assert_eq!(backend.counters().exact_pairs, 10 * set.len() as u64);
            });
        }
    });
}

/// The resident helpers number at most one per spare host thread, and on
/// a one-thread host (`taskset -c 0`) a `cpu`, `device` or `hetero` batch
/// runs inline and no helper thread exists. Helper threads are named
/// `pool-helper-N`; the count reads `/proc/self/task`, so it is checked
/// only where that exists.
#[test]
fn cpu_batches_spawn_no_helper_beyond_the_spare_threads() {
    let mut pairs = cpu_mix(0xC0_0200);
    pairs.truncate(7);
    let (hetero_cfg, hetero_job) = queue_cfg_and_job(3, 0x0E09);
    let batches = [
        (
            BackendKind::Cpu,
            AccelConfig::wfasic_chip(),
            BatchJob::score_only(pairs),
        ),
        (
            BackendKind::Device,
            AccelConfig::wfasic_chip(),
            BatchJob::with_backtrace(
                InputSetSpec {
                    length: 150,
                    error_pct: 5,
                }
                .generate(8, 0xC0_0201)
                .pairs,
            ),
        ),
        (BackendKind::Heterogeneous, hetero_cfg, hetero_job),
    ];
    for (kind, cfg, job) in batches {
        let mut backend = kind.create(cfg, 1);
        let batch = backend.align_batch(&job).unwrap();
        assert!(batch.results.iter().all(|r| r.success), "{}", kind.name());
    }
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return;
    };
    let helpers = tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .filter(|name| name.starts_with("pool-helper"))
        .count();
    assert!(
        helpers < wfasic::wfa::pool::available_threads(),
        "{helpers} helpers"
    );
}
