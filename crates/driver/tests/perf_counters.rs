//! End-to-end properties of the perf subsystem, driven through the full
//! driver stack: the exact sum-to-total invariant, run-to-run determinism,
//! zero-overhead-when-disabled, and the fault-injection interplay.

use wfasic_accel::regs::offsets;
use wfasic_accel::AccelConfig;
use wfasic_driver::{WaitMode, WfasicDriver};
use wfasic_seqio::dataset::InputSetSpec;
use wfasic_soc::fault::FaultPlan;
use wfasic_soc::perf::Stage;

fn pairs(length: usize, error_pct: u32, n: usize, seed: u64) -> Vec<wfasic_seqio::Pair> {
    InputSetSpec { length, error_pct }.generate(n, seed).pairs
}

fn perf_driver(cfg: AccelConfig) -> WfasicDriver {
    let mut drv = WfasicDriver::new(cfg);
    drv.policy.collect_perf = true;
    drv
}

#[test]
fn stage_cycles_sum_exactly_to_total_on_seeded_batches() {
    for (len, err, n, seed) in [
        (100, 5, 8, 0x5EED),
        (100, 10, 8, 1),
        (1_000, 10, 4, 2),
        (10_000, 5, 1, 3),
    ] {
        let input = pairs(len, err, n, seed);
        for backtrace in [false, true] {
            let mut drv = perf_driver(AccelConfig::wfasic_chip());
            let job = drv.submit(&input, backtrace, WaitMode::PollIdle).unwrap();
            let counters = job.perf_breakdown().expect("collect_perf set");
            assert_eq!(
                counters.total(),
                job.report.total_cycles,
                "{len}bp-{err}% bt={backtrace}: attribution must sum exactly"
            );
        }
    }
}

#[test]
fn multi_aligner_jobs_keep_the_invariant() {
    let input = pairs(1_000, 10, 8, 7);
    for n_aligners in [2, 4] {
        let mut drv = perf_driver(AccelConfig::wfasic_chip().with_aligners(n_aligners));
        let job = drv.submit(&input, false, WaitMode::PollIdle).unwrap();
        let perf = job.perf().unwrap();
        assert_eq!(perf.counters.total(), job.report.total_cycles);
        // Every aligner shows up in the span stream.
        for w in 0..n_aligners {
            let track = wfasic_soc::perf::track::ALIGNER0 + w as u16;
            assert!(
                perf.spans.iter().any(|s| s.track == track),
                "aligner {w} recorded no spans"
            );
        }
    }
}

#[test]
fn breakdown_is_stable_across_identical_runs() {
    let input = pairs(1_000, 5, 4, 0x5EED);
    let run = || {
        let mut drv = perf_driver(AccelConfig::wfasic_chip());
        let job = drv.submit(&input, false, WaitMode::PollIdle).unwrap();
        (job.report.total_cycles, *job.perf_breakdown().unwrap())
    };
    let (t1, c1) = run();
    let (t2, c2) = run();
    assert_eq!(t1, t2);
    for stage in Stage::ALL {
        assert_eq!(c1.get(stage), c2.get(stage), "{} drifted", stage.name());
    }
}

#[test]
fn disabling_perf_changes_no_cycle_results() {
    let input = pairs(100, 10, 6, 11);
    let mut on = perf_driver(AccelConfig::wfasic_chip());
    let mut off = WfasicDriver::new(AccelConfig::wfasic_chip());
    let job_on = on.submit(&input, true, WaitMode::PollIdle).unwrap();
    let job_off = off.submit(&input, true, WaitMode::PollIdle).unwrap();
    assert!(job_off.perf_breakdown().is_none());
    assert_eq!(job_on.report.total_cycles, job_off.report.total_cycles);
    let detail = |j: &wfasic_driver::JobResult| {
        j.report
            .pairs
            .iter()
            .map(|p| (p.start, p.done, p.read_cycles))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        detail(&job_on),
        detail(&job_off),
        "tracing is purely observational"
    );
}

#[test]
fn counters_still_sum_under_an_active_fault_plan() {
    let input = pairs(100, 5, 8, 21);
    let mut drv = perf_driver(AccelConfig::wfasic_chip());
    drv.policy.cpu_fallback = true;
    drv.device.set_fault_plan(FaultPlan {
        bit_flip_per_beat: 0.1,
        bus_stall: 0.2,
        fifo_stuck: 0.2,
        ..FaultPlan::none().with_stall_cycles(50)
    });
    let job = drv.submit(&input, false, WaitMode::PollIdle).unwrap();
    let counters = job.perf_breakdown().expect("perf survives fault injection");
    assert_eq!(counters.total(), job.report.total_cycles);

    // A deterministic stall plan: every FIFO output sticks for 500 cycles,
    // far longer than a 100bp alignment, so stall time must be attributed.
    let mut drv = perf_driver(AccelConfig::wfasic_chip());
    drv.device.set_fault_plan(FaultPlan {
        fifo_stuck: 1.0,
        ..FaultPlan::none().with_stall_cycles(500)
    });
    let job = drv.submit(&input, false, WaitMode::PollIdle).unwrap();
    let counters = job.perf_breakdown().unwrap();
    assert_eq!(counters.total(), job.report.total_cycles);
    assert!(job.report.faults.fifo_stalls > 0, "the plan fired");
    assert!(
        counters.get(Stage::FifoStall) > 0,
        "stuck-FIFO time must be attributed: {counters:?}"
    );
}

#[test]
fn aborted_job_reports_partial_attribution_without_panicking() {
    let input = pairs(400, 10, 4, 13);
    let mut drv = perf_driver(AccelConfig::wfasic_chip());
    drv.policy.out_size = 32; // guarantees OUT_OVERRUN on a BT stream
    drv.policy.max_retries = 0;
    let err = drv.submit(&input, true, WaitMode::PollIdle).unwrap_err();
    assert!(matches!(err, wfasic_driver::DriverError::Device(_)));
    // The device still published the partial attribution over MMIO.
    let mut sum = 0;
    for stage in Stage::ALL {
        sum += drv.device.mmio_read(offsets::perf_counter(stage));
    }
    assert_eq!(sum, drv.device.mmio_read(offsets::JOB_CYCLES));
    assert!(sum > 0, "the aborted job ran some cycles");
}

#[test]
fn chrome_trace_is_valid_and_cycle_aligned() {
    let input = pairs(100, 10, 4, 17);
    let mut drv = perf_driver(AccelConfig::wfasic_chip().with_aligners(2));
    let job = drv.submit(&input, false, WaitMode::PollIdle).unwrap();
    let trace = job.chrome_trace().unwrap();
    assert!(trace.starts_with('{') && trace.ends_with('}'));
    assert_eq!(
        trace.matches('{').count(),
        trace.matches('}').count(),
        "balanced JSON braces"
    );
    for name in ["axi-bus", "device", "aligner-0", "aligner-1"] {
        assert!(trace.contains(name), "missing track {name}");
    }
    assert!(trace.contains("\"ph\":\"X\""), "complete events present");
}
