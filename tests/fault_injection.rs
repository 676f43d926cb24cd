//! End-to-end fault-injection scenarios (the paper's §5.1 robustness
//! campaign, made systematic): each scenario injects a specific hardware
//! failure — bus bit flips, dropped DMA beats, stuck FIFOs, bad register
//! programming, undersized output buffers — and checks the architectural
//! contract:
//!
//! 1. the device never panics and always returns to `IDLE = 1`;
//! 2. a refused or aborted job latches a documented `ERROR_CODE`;
//! 3. with retry + CPU fallback enabled, the driver still answers every
//!    pair, and recovered answers are software-exact.

use wfasic::accel::regs::{error_code, offsets};
use wfasic::accel::{AccelConfig, WfasicDevice};
use wfasic::driver::{DriverError, WfasicDriver};
use wfasic::seqio::InputSetSpec;
use wfasic::soc::fault::FaultPlan;
use wfasic::soc::MainMemory;
use wfasic::wfa::{swg_score, Penalties};

fn pairs(n: usize, seed: u64) -> Vec<wfasic::seqio::Pair> {
    InputSetSpec {
        length: 100,
        error_pct: 5,
    }
    .generate(n, seed)
    .pairs
}

fn recovering_driver() -> WfasicDriver {
    let mut drv = WfasicDriver::new(AccelConfig::wfasic_chip());
    drv.policy.cpu_fallback = true;
    drv.policy.max_retries = 2;
    drv
}

/// Check the full contract for one job under one fault plan: completion,
/// Idle, and exactness of every recovered answer.
fn assert_recovered(drv: &mut WfasicDriver, plan: FaultPlan, seed: u64) {
    let input = pairs(6, seed);
    drv.device.set_fault_plan(plan);
    let job = drv.submit(&input, false).unwrap();
    assert_eq!(job.results.len(), input.len());
    for (res, pair) in job.results.iter().zip(&input) {
        assert!(res.success, "pair {} must be answered", pair.id);
        if res.recovered {
            assert_eq!(
                res.score as u64,
                swg_score(&pair.a.bytes(), &pair.b.bytes(), &Penalties::WFASIC_DEFAULT),
                "recovered pair {} must be software-exact",
                pair.id
            );
        }
    }
    assert_eq!(drv.device.mmio_read(offsets::IDLE), 1);
    drv.device.clear_fault_plan();
}

/// Scenario 1: random bit flips on bus read data.
#[test]
fn scenario_bit_flips_on_bus_reads() {
    let mut drv = recovering_driver();
    assert_recovered(
        &mut drv,
        FaultPlan {
            bit_flip_per_beat: 0.25,
            ..FaultPlan::none()
        },
        101,
    );
    assert!(
        drv.device.fault_counters().bit_flips > 0,
        "flips were injected"
    );
}

/// Scenario 2: dropped DMA beats (a burst loses a 16-byte beat).
#[test]
fn scenario_dropped_dma_beats() {
    let mut drv = recovering_driver();
    assert_recovered(
        &mut drv,
        FaultPlan {
            drop_beat: 0.1,
            ..FaultPlan::none()
        },
        102,
    );
    assert!(drv.device.fault_counters().dropped_beats > 0);
}

/// Scenario 3: a stuck input FIFO delays ingestion but never corrupts.
#[test]
fn scenario_stuck_fifo_delays_but_completes() {
    let input = pairs(4, 103);
    // Baseline without faults.
    let mut clean = WfasicDriver::new(AccelConfig::wfasic_chip());
    let base = clean.submit(&input, false).unwrap();

    let mut drv = WfasicDriver::new(AccelConfig::wfasic_chip());
    drv.device.set_fault_plan(FaultPlan {
        fifo_stuck: 1.0,
        ..FaultPlan::none().with_stall_cycles(200)
    });
    let job = drv.submit(&input, false).unwrap();
    assert!(drv.device.fault_counters().fifo_stalls > 0);
    assert!(
        job.report.total_cycles > base.report.total_cycles,
        "stuck FIFO must cost cycles: {} vs {}",
        job.report.total_cycles,
        base.report.total_cycles
    );
    // Stalls delay but do not corrupt: all pairs succeed on the device.
    for (res, pair) in job.results.iter().zip(&input) {
        assert!(res.success && !res.recovered);
        assert_eq!(
            res.score as u64,
            swg_score(&pair.a.bytes(), &pair.b.bytes(), &Penalties::WFASIC_DEFAULT)
        );
    }
}

/// Scenario 4: START written while a job is already latched.
#[test]
fn scenario_start_while_busy() {
    let input = pairs(2, 104);
    let mut dev = WfasicDevice::new(AccelConfig::wfasic_chip());
    let mut mem = MainMemory::with_default_cap();
    let max = 112u64;
    let img = wfasic::seqio::memimage::InputImage::encode_raw(&input, max as usize);
    mem.write(0x1000, &img.bytes);
    dev.mmio_write(offsets::MAX_READ_LEN, max);
    dev.mmio_write(offsets::IN_ADDR, 0x1000);
    dev.mmio_write(offsets::IN_SIZE, img.bytes.len() as u64);
    dev.mmio_write(offsets::OUT_ADDR, 0x10_0000);
    dev.mmio_write(offsets::START, 1);
    dev.mmio_write(offsets::START, 1); // double start: refused
    assert_eq!(
        dev.mmio_read(offsets::ERROR_CODE),
        error_code::START_WHILE_BUSY
    );
    let report = dev.run(&mut mem);
    assert!(report.error.is_none(), "the original job is unaffected");
    assert_eq!(report.pairs.len(), 2);
    assert!(report.pairs.iter().all(|p| p.success));
    assert_eq!(dev.mmio_read(offsets::IDLE), 1);
}

/// Scenario 5: IN_SIZE not a whole number of records (an over-length or
/// torn input window) is refused with BAD_IN_SIZE, and an absurd
/// MAX_READ_LEN with BAD_MAX_READ_LEN.
#[test]
fn scenario_over_length_in_size() {
    let mut dev = WfasicDevice::new(AccelConfig::wfasic_chip());
    let mut mem = MainMemory::with_default_cap();
    dev.mmio_write(offsets::MAX_READ_LEN, 112);
    dev.mmio_write(offsets::IN_ADDR, 0x1000);
    dev.mmio_write(offsets::IN_SIZE, 1234); // not a record multiple
    dev.mmio_write(offsets::OUT_ADDR, 0x10_0000);
    dev.mmio_write(offsets::START, 1);
    let report = dev.run(&mut mem);
    assert_eq!(report.error.map(|e| e.code), Some(error_code::BAD_IN_SIZE));
    assert_eq!(dev.mmio_read(offsets::ERROR_CODE), error_code::BAD_IN_SIZE);
    assert_eq!(dev.mmio_read(offsets::ERROR_INFO), 1234);
    assert_eq!(dev.mmio_read(offsets::IDLE), 1);

    dev.mmio_write(offsets::MAX_READ_LEN, (1 << 24) as u64); // absurd
    dev.mmio_write(offsets::START, 1);
    let report = dev.run(&mut mem);
    assert_eq!(
        report.error.map(|e| e.code),
        Some(error_code::BAD_MAX_READ_LEN)
    );
    assert_eq!(dev.mmio_read(offsets::IDLE), 1);
}

/// Scenario 6: the output buffer is too small for the result stream — the
/// job aborts with OUT_OVERRUN; with CPU fallback the driver still answers.
#[test]
fn scenario_output_buffer_overrun() {
    let input = pairs(6, 106);

    // Without fallback the abort surfaces as a driver error.
    let mut strict = WfasicDriver::new(AccelConfig::wfasic_chip());
    strict.policy.out_size = 16; // one transaction: far too small
    let err = strict.submit(&input, true).unwrap_err();
    match err {
        DriverError::Device(e) => assert_eq!(e.code, error_code::OUT_OVERRUN),
        other => panic!("expected OUT_OVERRUN, got {other}"),
    }
    assert_eq!(strict.device.mmio_read(offsets::IDLE), 1);

    // With fallback every pair is still answered, exactly.
    let mut drv = recovering_driver();
    drv.policy.out_size = 16;
    let job = drv.submit(&input, true).unwrap();
    assert_eq!(job.recovered_count(), input.len());
    for (res, pair) in job.results.iter().zip(&input) {
        assert!(res.success);
        assert_eq!(
            res.score as u64,
            swg_score(&pair.a.bytes(), &pair.b.bytes(), &Penalties::WFASIC_DEFAULT)
        );
        res.cigar
            .as_ref()
            .unwrap()
            .check(&pair.a.bytes(), &pair.b.bytes())
            .unwrap();
    }
}

/// Scenario 7: everything at once — flips, drops, duplicates, stalls, MMIO
/// corruption — over four jobs, each drawing fresh fault streams. A
/// corrupted `IRQ_ENABLE` write raises an interrupt the polling driver
/// never asked for, which it must still acknowledge (W1C). The driver must
/// always come back with answers.
#[test]
fn scenario_combined_storm_with_interrupts() {
    let input = pairs(5, 107);
    let mut drv = recovering_driver();
    drv.device.set_fault_plan(FaultPlan {
        bit_flip_per_beat: 0.1,
        drop_beat: 0.02,
        dup_beat: 0.02,
        bus_stall: 0.05,
        fifo_stuck: 0.05,
        mmio_corrupt: 0.02,
        ..FaultPlan::none()
    });
    for _ in 0..4 {
        let job = drv.submit(&input, false).unwrap();
        assert_eq!(job.results.len(), input.len());
        assert!(job.results.iter().all(|r| r.success));
        assert_eq!(drv.device.mmio_read(offsets::IDLE), 1);
        assert_eq!(
            drv.device.mmio_read(offsets::IRQ_PENDING),
            0,
            "irq acknowledged"
        );
    }
    assert!(drv.device.fault_counters().total() > 0);
}

/// The watchdog path: a pathologically tight watchdog turns every attempt
/// into a timeout; retry exhausts; fallback still answers.
#[test]
fn scenario_watchdog_timeout_recovery() {
    let input = pairs(3, 108);
    let mut drv = recovering_driver();
    drv.policy.watchdog_cycles = 10; // nothing real completes this fast
    let job = drv.submit(&input, false).unwrap();
    assert_eq!(job.recovered_count(), input.len());
    assert_eq!(job.retries, drv.policy.max_retries);

    // Without fallback, the timeout is an error the caller sees.
    drv.policy.cpu_fallback = false;
    let err = drv.submit(&input, false).unwrap_err();
    assert!(
        matches!(err, DriverError::Timeout { watchdog: 10, .. }),
        "{err}"
    );
}
