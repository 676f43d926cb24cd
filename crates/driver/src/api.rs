//! The Linux-driver-style API (paper §3/§5.3: "We use a standard Linux
//! driver and API to configure the WFAsic accelerator").
//!
//! [`WfasicDriver`] owns one device and main memory, and exposes the flow
//! the paper's co-design uses: build the input image, program the
//! memory-mapped registers over AXI-Lite, start the job, poll Idle, then
//! parse results — including the CPU-side backtrace when enabled.
//! [`WfasicDriver::submit`] is a one-lane call into the attempt loop in
//! [`crate::job`], the same loop every lane of a
//! [`crate::MultiLaneBackend`] runs.
//!
//! Robustness (paper §5.1, made a driver contract): `submit` returns a
//! [`Result`] instead of asserting. Under the driver's [`AlignPolicy`] a
//! watchdog bounds how long it waits on a job; device-refused jobs,
//! watchdog timeouts and unparseable result streams are retried (injected
//! faults are transients, so a resubmission can succeed). With CPU
//! fallback on, pairs the hardware could not complete — and whole jobs
//! that exhaust their retries — are re-run through the software WFA and
//! marked [`AlignmentResult::recovered`], so the application always gets
//! answers, on the CPU route the same policy names.

use crate::backend::{AlignPolicy, CpuRoute, CpuWfaBackend};
use crate::backtrace::BtError;
use crate::faults::{FaultClass, FaultLayer, Provenance};
use crate::job::{self, Lane, LaneTimeline};
use wfa_core::cigar::Cigar;
use wfasic_accel::device::{RunReport, WfasicDevice};
use wfasic_accel::regs::DeviceError;
use wfasic_accel::schedule::WavefrontSchedule;
use wfasic_accel::AccelConfig;
use wfasic_seqio::generate::Pair;
use wfasic_soc::clock::Cycle;
use wfasic_soc::mem::MainMemory;
use wfasic_soc::perf::{JobPerf, PerfCounters};

/// Where a driver stages a job in main memory. The defaults put the input
/// image at 1 MiB and results at 16 MiB (the backing store grows on demand;
/// a modest output base keeps the simulated-DRAM allocation small for
/// typical jobs). A multi-lane batch gives every lane its own layout so
/// concurrent jobs never collide — the driver used to hardcode one global
/// pair of addresses, a latent single-instance assumption.
///
/// `in_addr` must be below `out_addr`; the gap bounds the largest input
/// image ([`DriverError::BatchTooLarge`] guards it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemLayout {
    /// Base address of the staged input image.
    pub in_addr: u64,
    /// Base address where the device writes results.
    pub out_addr: u64,
}

impl Default for MemLayout {
    fn default() -> Self {
        MemLayout {
            in_addr: 0x0010_0000,
            out_addr: 0x0100_0000,
        }
    }
}

impl MemLayout {
    /// Bytes of staging memory each lane owns (32 MiB): the 256 MiB default
    /// memory holds the windows of 8 lanes.
    pub const LANE_BYTES: u64 = 0x0200_0000;

    /// The layout of lane `lane` in a multi-lane SoC: each lane's windows
    /// are the default layout shifted up by `lane * LANE_BYTES`, so lanes
    /// never share a byte of staging memory.
    pub fn for_lane(lane: usize) -> Self {
        let stride = lane as u64 * Self::LANE_BYTES;
        let base = MemLayout::default();
        MemLayout {
            in_addr: base.in_addr + stride,
            out_addr: base.out_addr + stride,
        }
    }
}

/// One alignment's final result as the application sees it.
#[derive(Debug, Clone)]
pub struct AlignmentResult {
    /// Alignment ID.
    pub id: u32,
    /// Completed (by hardware, or by CPU fallback)?
    pub success: bool,
    /// Alignment score (valid when `success`).
    pub score: u32,
    /// CIGAR from the CPU backtrace (when backtrace was enabled and the
    /// alignment succeeded).
    pub cigar: Option<Cigar>,
    /// This result came from the CPU fallback path, not the accelerator.
    pub recovered: bool,
}

/// The outcome of one submitted job.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Per-alignment results, in submission order.
    pub results: Vec<AlignmentResult>,
    /// The accelerator's run report (cycles, per-pair details, faults)
    /// from the last attempt, on the lane's timeline: a retry starts after
    /// the failed attempt plus the backoff, so after a retry `start` is that
    /// cycle and `total_cycles` includes the failed attempts.
    pub report: RunReport,
    /// AXI-Lite configuration cycles spent by the driver (all attempts).
    pub config_cycles: Cycle,
    /// Modeled CPU cycles for the backtrace step (0 when disabled).
    pub cpu_backtrace_cycles: Cycle,
    /// Whether the multi-Aligner data-separation method was used.
    pub separated: bool,
    /// How many times the job was resubmitted after a failure.
    pub retries: u32,
}

impl JobResult {
    /// Pairs answered by the CPU fallback rather than the accelerator.
    pub fn recovered_count(&self) -> usize {
        self.results.iter().filter(|r| r.recovered).count()
    }

    /// Per-stage cycle attribution for the last attempt, when the driver was
    /// configured with [`AlignPolicy::collect_perf`]. The counters sum
    /// exactly to `report.total_cycles`.
    pub fn perf_breakdown(&self) -> Option<&PerfCounters> {
        self.report.perf.as_ref().map(|p| &p.counters)
    }

    /// The full per-stage trace for the last attempt (spans + counters).
    pub fn perf(&self) -> Option<&JobPerf> {
        self.report.perf.as_ref()
    }

    /// Chrome `trace_event` JSON for the last attempt, viewable in
    /// `chrome://tracing` or Perfetto (1 simulated cycle = 1 µs).
    pub fn chrome_trace(&self) -> Option<String> {
        self.report.perf.as_ref().map(|p| p.chrome_trace_json())
    }
}

/// Why a submission failed (after exhausting retries, with CPU fallback
/// disabled).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DriverError {
    /// The device refused or aborted the job (`ERROR_CODE` latched).
    Device(DeviceError),
    /// The job outran the driver's watchdog.
    Timeout {
        /// Cycles the job actually took.
        waited: Cycle,
        /// The configured watchdog bound.
        watchdog: Cycle,
    },
    /// The result stream in memory did not parse (corrupted output).
    Stream(BtError),
    /// The input image would overlap the result region; split the batch.
    BatchTooLarge {
        /// Encoded image size in bytes.
        bytes: usize,
    },
    /// The job's cycle budget ran out before any attempt produced an
    /// answer. The driver stops waiting (and stops retrying) the moment the
    /// budget is spent — a deadline-bounded job never waits past it.
    DeadlineExceeded {
        /// The configured budget, in simulated cycles.
        budget: Cycle,
        /// Simulated cycles the job consumed (attempts + retry backoff)
        /// when the driver refused. May exceed `budget` by the tail of the
        /// attempt in flight — the caller's *wait* still ends at `budget`;
        /// the overshoot is charged to the device, not the caller.
        spent: Cycle,
    },
    /// Every lane that could run the job is quarantined or retired, and no
    /// degradation path (surviving lane, CPU fallback) was available.
    Quarantined {
        /// The lane the job was last assigned to.
        lane: usize,
    },
}

impl DriverError {
    /// Which layer / lane / fault class this error belongs to — the shared
    /// attribution key for `report -- faults` and the chaos soak.
    pub fn provenance(&self) -> Provenance {
        match self {
            DriverError::Device(_) => Provenance::of(FaultLayer::Device, FaultClass::DeviceError),
            DriverError::Timeout { .. } => Provenance::of(FaultLayer::Driver, FaultClass::Watchdog),
            DriverError::Stream(_) => Provenance::of(FaultLayer::Driver, FaultClass::CorruptStream),
            DriverError::BatchTooLarge { .. } => {
                Provenance::of(FaultLayer::Driver, FaultClass::Oversize)
            }
            DriverError::DeadlineExceeded { .. } => {
                Provenance::of(FaultLayer::Scheduler, FaultClass::DeadlineExceeded)
            }
            DriverError::Quarantined { lane } => {
                Provenance::of(FaultLayer::Scheduler, FaultClass::LaneQuarantined).on_lane(*lane)
            }
        }
    }
}

impl std::fmt::Display for DriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriverError::Device(e) => write!(f, "device error: {e}"),
            DriverError::Timeout { waited, watchdog } => {
                write!(
                    f,
                    "watchdog timeout: job ran {waited} cycles (bound {watchdog})"
                )
            }
            DriverError::Stream(e) => write!(f, "result stream unparseable: {e:?}"),
            DriverError::BatchTooLarge { bytes } => {
                write!(
                    f,
                    "input image ({bytes} bytes) would overlap the result region"
                )
            }
            DriverError::DeadlineExceeded { budget, spent } => {
                write!(
                    f,
                    "deadline exceeded: budget {budget} cycles spent ({spent} consumed)"
                )
            }
            DriverError::Quarantined { lane } => {
                write!(f, "lane {lane} is quarantined and no fallback remains")
            }
        }
    }
}

impl std::error::Error for DriverError {}

/// The driver: device + memory + policy, and the CPU engine that answers
/// its fallbacks.
#[derive(Debug)]
pub struct WfasicDriver {
    /// The accelerator.
    pub device: WfasicDevice,
    /// Main memory shared between CPU and accelerator.
    pub mem: MainMemory,
    /// Every job's watchdog, retry, fallback and programming rules, and
    /// the fallback's CPU route. A lone driver has no lane to quarantine,
    /// so the three circuit-breaker fields go unread.
    pub policy: AlignPolicy,
    /// Where jobs are staged in main memory.
    pub layout: MemLayout,
    /// The CPU engine the fallback runs on; it takes [`Self::policy`]'s
    /// route at every submit.
    cpu: CpuWfaBackend,
    schedule: WavefrontSchedule,
}

impl WfasicDriver {
    /// Bring up a device with the given configuration.
    pub fn new(cfg: AccelConfig) -> Self {
        let schedule = WavefrontSchedule::for_config(&cfg);
        WfasicDriver {
            device: WfasicDevice::new(cfg),
            mem: MainMemory::with_default_cap(),
            policy: AlignPolicy::default(),
            layout: MemLayout::default(),
            cpu: CpuWfaBackend::new(cfg.penalties),
            schedule,
        }
    }

    /// Submit a batch of pairs and run to completion: one job on this
    /// driver's device, starting at cycle 0, under [`Self::policy`].
    ///
    /// Failures (device refusal, watchdog timeout, unparseable results) are
    /// retried up to [`AlignPolicy::max_retries`] times; if every attempt
    /// fails the job is either recovered entirely on the CPU (when
    /// [`AlignPolicy::cpu_fallback`] is set) or reported as an error. The
    /// driver polls Idle for completion, and a lone driver's job has no
    /// deadline: a cycle budget is a [`crate::BatchJob::deadline`], which
    /// the lane engines take.
    pub fn submit(&mut self, pairs: &[Pair], backtrace: bool) -> Result<JobResult, DriverError> {
        self.cpu.route = CpuRoute::from_policy(&self.policy);
        let lane = Lane {
            device: &mut self.device,
            cpu: &mut self.cpu,
            mem: &mut self.mem,
            layout: self.layout,
            schedule: &self.schedule,
            timeline: &mut LaneTimeline::default(),
        };
        job::run_job(lane, &self.policy, None, pairs, backtrace).result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfa_core::{swg_score, Penalties};
    use wfasic_accel::regs::{error_code, offsets};
    use wfasic_seqio::dataset::InputSetSpec;
    use wfasic_soc::fault::FaultPlan;

    #[test]
    fn nbt_job_results_match_software() {
        let pairs = InputSetSpec {
            length: 100,
            error_pct: 10,
        }
        .generate(5, 42)
        .pairs;
        let mut drv = WfasicDriver::new(AccelConfig::wfasic_chip());
        let job = drv.submit(&pairs, false).unwrap();
        assert_eq!(job.results.len(), 5);
        assert!(job.config_cycles > 0);
        assert_eq!(job.retries, 0);
        for (res, pair) in job.results.iter().zip(&pairs) {
            assert!(res.success);
            assert!(!res.recovered);
            assert_eq!(
                res.score as u64,
                swg_score(&pair.a.bytes(), &pair.b.bytes(), &Penalties::WFASIC_DEFAULT)
            );
            assert!(res.cigar.is_none());
        }
    }

    #[test]
    fn bt_job_produces_valid_cigars() {
        let pairs = InputSetSpec {
            length: 100,
            error_pct: 10,
        }
        .generate(4, 7)
        .pairs;
        let mut drv = WfasicDriver::new(AccelConfig::wfasic_chip());
        let job = drv.submit(&pairs, true).unwrap();
        assert!(job.cpu_backtrace_cycles > 0);
        assert!(!job.separated, "single aligner defaults to no separation");
        for (res, pair) in job.results.iter().zip(&pairs) {
            assert!(res.success);
            let cigar = res.cigar.as_ref().expect("bt job yields cigars");
            cigar.check(&pair.a.bytes(), &pair.b.bytes()).unwrap();
            assert_eq!(cigar.score(&Penalties::WFASIC_DEFAULT), res.score as u64);
        }
    }

    #[test]
    fn multi_aligner_bt_separates_and_still_works() {
        let pairs = InputSetSpec {
            length: 100,
            error_pct: 5,
        }
        .generate(6, 3)
        .pairs;
        let mut drv = WfasicDriver::new(AccelConfig::wfasic_chip().with_aligners(3));
        let job = drv.submit(&pairs, true).unwrap();
        assert!(job.separated);
        for (res, pair) in job.results.iter().zip(&pairs) {
            assert!(res.success);
            res.cigar
                .as_ref()
                .unwrap()
                .check(&pair.a.bytes(), &pair.b.bytes())
                .unwrap();
        }
    }

    #[test]
    fn forced_separation_single_aligner() {
        let pairs = InputSetSpec {
            length: 100,
            error_pct: 5,
        }
        .generate(2, 5)
        .pairs;
        let mut drv = WfasicDriver::new(AccelConfig::wfasic_chip());
        drv.policy.force_separation = true;
        let sep_job = drv.submit(&pairs, true).unwrap();
        assert!(sep_job.separated);

        let mut drv2 = WfasicDriver::new(AccelConfig::wfasic_chip());
        let nosep_job = drv2.submit(&pairs, true).unwrap();
        assert!(
            sep_job.cpu_backtrace_cycles > nosep_job.cpu_backtrace_cycles,
            "separation must cost more CPU cycles"
        );
        // Same CIGARs either way.
        for (a, b) in sep_job.results.iter().zip(&nosep_job.results) {
            assert_eq!(a.score, b.score);
            assert_eq!(a.cigar, b.cigar);
        }
    }

    #[test]
    fn unsupported_pair_flows_through_with_success_false() {
        let mut pairs = InputSetSpec {
            length: 100,
            error_pct: 5,
        }
        .generate(3, 8)
        .pairs;
        pairs[1].b.set_byte(5, b'N');
        let mut drv = WfasicDriver::new(AccelConfig::wfasic_chip());
        let job = drv.submit(&pairs, true).unwrap();
        assert!(job.results[0].success);
        assert!(!job.results[1].success);
        assert!(job.results[1].cigar.is_none());
        assert!(job.results[2].success);
    }

    #[test]
    fn cpu_fallback_recovers_unsupported_pairs() {
        let mut pairs = InputSetSpec {
            length: 100,
            error_pct: 5,
        }
        .generate(3, 8)
        .pairs;
        pairs[1].b.set_byte(5, b'N');
        let mut drv = WfasicDriver::new(AccelConfig::wfasic_chip());
        drv.policy.cpu_fallback = true;
        let job = drv.submit(&pairs, true).unwrap();
        assert_eq!(job.recovered_count(), 1);
        for res in &job.results {
            assert!(res.success, "fallback answers every pair");
            assert!(res.cigar.is_some());
        }
        assert!(job.results[1].recovered);
        let pair = &pairs[1];
        assert_eq!(
            job.results[1].score as u64,
            swg_score(&pair.a.bytes(), &pair.b.bytes(), &Penalties::WFASIC_DEFAULT),
            "recovered score is the software optimum"
        );
    }

    #[test]
    fn watchdog_timeout_surfaces_after_retries() {
        let pairs = InputSetSpec {
            length: 100,
            error_pct: 5,
        }
        .generate(2, 9)
        .pairs;
        let mut drv = WfasicDriver::new(AccelConfig::wfasic_chip());
        drv.policy.watchdog_cycles = 1; // everything times out
        let err = drv.submit(&pairs, false).unwrap_err();
        assert!(
            matches!(err, DriverError::Timeout { watchdog: 1, .. }),
            "{err}"
        );
        // Device is still usable afterwards.
        drv.policy.watchdog_cycles = 1 << 40;
        assert!(drv.submit(&pairs, false).is_ok());
    }

    #[test]
    fn watchdog_timeout_with_fallback_still_answers() {
        let pairs = InputSetSpec {
            length: 100,
            error_pct: 5,
        }
        .generate(2, 9)
        .pairs;
        let mut drv = WfasicDriver::new(AccelConfig::wfasic_chip());
        drv.policy.watchdog_cycles = 1;
        drv.policy.cpu_fallback = true;
        let job = drv.submit(&pairs, false).unwrap();
        assert_eq!(job.recovered_count(), 2);
        assert_eq!(job.retries, drv.policy.max_retries);
        for (res, pair) in job.results.iter().zip(&pairs) {
            assert!(res.success);
            assert_eq!(
                res.score as u64,
                swg_score(&pair.a.bytes(), &pair.b.bytes(), &Penalties::WFASIC_DEFAULT)
            );
        }
    }

    #[test]
    fn device_error_surfaces_as_driver_error() {
        let pairs = InputSetSpec {
            length: 400,
            error_pct: 10,
        }
        .generate(4, 11)
        .pairs;
        let mut drv = WfasicDriver::new(AccelConfig::wfasic_chip());
        drv.policy.out_size = 32; // too small for a BT stream -> OUT_OVERRUN
        let err = drv.submit(&pairs, true).unwrap_err();
        match err {
            DriverError::Device(e) => assert_eq!(e.code, error_code::OUT_OVERRUN),
            other => panic!("expected a device error, got {other}"),
        }
    }

    #[test]
    fn heavy_faults_with_fallback_always_complete() {
        // The headline robustness property: under aggressive injected
        // faults, retry + CPU fallback still answers every pair with the
        // exact software score, and the device ends Idle.
        let pairs = InputSetSpec {
            length: 100,
            error_pct: 10,
        }
        .generate(6, 21)
        .pairs;
        let mut drv = WfasicDriver::new(AccelConfig::wfasic_chip());
        drv.policy.cpu_fallback = true;
        drv.device.set_fault_plan(FaultPlan {
            bit_flip_per_beat: 0.2,
            drop_beat: 0.02,
            bus_stall: 0.05,
            ..FaultPlan::none()
        });
        let job = drv.submit(&pairs, false).unwrap();
        assert_eq!(job.results.len(), pairs.len());
        for (res, pair) in job.results.iter().zip(&pairs) {
            assert!(res.success, "every pair is answered");
            if res.recovered {
                // CPU-recovered pairs realign the original input, so
                // they are exact. (A bit flip that maps one valid base
                // to another can leave a hardware pair "successful" but
                // silently corrupted — exactly like ECC-less silicon.)
                assert_eq!(
                    res.score as u64,
                    swg_score(&pair.a.bytes(), &pair.b.bytes(), &Penalties::WFASIC_DEFAULT)
                );
            }
        }
        assert_eq!(drv.device.mmio_read(offsets::IDLE), 1);
        assert_eq!(drv.device.mmio_read(offsets::IRQ_PENDING), 0);
        assert!(
            drv.device.fault_counters().total() > 0,
            "faults were injected"
        );
    }

    #[test]
    fn perf_breakdown_flows_through_the_driver() {
        let pairs = InputSetSpec {
            length: 100,
            error_pct: 10,
        }
        .generate(4, 13)
        .pairs;
        let mut drv = WfasicDriver::new(AccelConfig::wfasic_chip());
        drv.policy.collect_perf = true;
        let job = drv.submit(&pairs, false).unwrap();
        let counters = job.perf_breakdown().expect("collect_perf was set");
        assert_eq!(counters.total(), job.report.total_cycles);
        let trace = job.chrome_trace().unwrap();
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("aligner-0"));

        // Same job without perf: identical cycles, no breakdown.
        let mut plain = WfasicDriver::new(AccelConfig::wfasic_chip());
        let job2 = plain.submit(&pairs, false).unwrap();
        assert!(job2.perf_breakdown().is_none());
        assert_eq!(job2.report.total_cycles, job.report.total_cycles);
    }

    #[test]
    fn custom_memory_layout_relocates_the_job_without_changing_results() {
        // Regression for the hardcoded IN_ADDR/OUT_ADDR single-instance
        // assumption: a relocated layout (as every lane of a batch uses)
        // must produce bit-identical scores, CIGARs, and cycle counts.
        let pairs = InputSetSpec {
            length: 100,
            error_pct: 10,
        }
        .generate(4, 15)
        .pairs;
        let mut base = WfasicDriver::new(AccelConfig::wfasic_chip());
        let job_a = base.submit(&pairs, true).unwrap();
        let mut moved = WfasicDriver::new(AccelConfig::wfasic_chip());
        moved.layout = MemLayout::for_lane(3);
        assert_ne!(moved.layout, MemLayout::default());
        let job_b = moved.submit(&pairs, true).unwrap();
        assert_eq!(job_a.report.total_cycles, job_b.report.total_cycles);
        for (a, b) in job_a.results.iter().zip(&job_b.results) {
            assert_eq!((a.id, a.score, a.success), (b.id, b.score, b.success));
            assert_eq!(a.cigar, b.cigar);
        }
    }

    /// A driver is reusable: `submit` restages memory, reprograms every
    /// register and restarts the timeline at cycle 0, so after a different
    /// job (another size, backtrace off) it answers exactly as a fresh
    /// driver, perf counters included.
    #[test]
    fn a_reused_driver_answers_as_a_fresh_one() {
        let spec = InputSetSpec {
            length: 60,
            error_pct: 10,
        };
        let (pairs, other) = (spec.generate(3, 17).pairs, spec.generate(5, 18).pairs);
        let run = |drv: &mut WfasicDriver, pairs: &[Pair], bt| {
            drv.policy.collect_perf = true;
            format!("{:?}", drv.submit(pairs, bt).unwrap())
        };
        let cfg = AccelConfig::wfasic_chip();
        let (mut fresh, mut reused) = (WfasicDriver::new(cfg), WfasicDriver::new(cfg));
        let want = run(&mut fresh, &pairs, true);
        run(&mut reused, &other, false);
        assert_eq!(run(&mut reused, &pairs, true), want);
        assert_eq!(run(&mut reused, &pairs, true), want);
    }

    #[test]
    fn oversized_batch_is_refused_not_asserted() {
        let pairs: Vec<Pair> = (0..16)
            .map(|i| Pair::new(i, vec![b'A'; 600_000], vec![b'C'; 600_000]))
            .collect();
        let mut drv = WfasicDriver::new(AccelConfig::wfasic_chip());
        let err = drv.submit(&pairs, false).unwrap_err();
        assert!(matches!(err, DriverError::BatchTooLarge { .. }));
    }
}
