//! The one attempt loop every device job runs through (paper §3/§5.3: stage
//! the image, program the registers, start, wait, parse).
//!
//! [`crate::WfasicDriver::submit`] calls it once on its lone device with a
//! fresh timeline; [`crate::MultiLaneBackend`] calls it once per queued job
//! on the job's lane, carrying that lane's timeline from job to job. Both
//! hold one [`AlignPolicy`], the service's, so watchdog, retry and
//! fallback rules are written once; the only deadline is the job's own
//! ([`crate::BatchJob::deadline`]):
//!
//! * each attempt restages the image, programs all nine registers, runs the
//!   device, polls Idle and acknowledges any pending interrupt;
//! * then, in order: a spent deadline refuses the job, a watchdog overrun,
//!   a latched device error or an unparseable result stream fails the
//!   attempt, and with CPU fallback on the pairs the hardware flagged are
//!   realigned in software;
//! * a retry replays the job on the lane's timeline, after the failed
//!   attempt plus the configured backoff, so the watchdog and the deadline
//!   see each attempt's own duration;
//! * if every attempt fails the whole job is answered in software, or the
//!   last failure is returned.

use crate::api::{AlignmentResult, DriverError, JobResult, MemLayout};
use crate::backend::{AlignPolicy, CpuWfaBackend};
use crate::backtrace::{
    backtrace_alignment_packed, separate_stream, split_consecutive_stream, BtAlignment, BtError,
};
use crate::cpu_model::backtrace_cycles;
use wfasic_accel::device::{RunReport, WfasicDevice};
use wfasic_accel::regs::offsets;
use wfasic_accel::schedule::WavefrontSchedule;
use wfasic_seqio::dataset::round_up_16;
use wfasic_seqio::generate::Pair;
use wfasic_seqio::memimage::InputImage;
use wfasic_soc::bus::AXI_LITE_ACCESS_CYCLES;
use wfasic_soc::clock::Cycle;
use wfasic_soc::mem::MainMemory;
use wfasic_soc::perf::Span;

/// One lane's timeline: when its input port and its Aligners are next
/// free, and the hardware spans its jobs have placed on it.
#[derive(Debug, Default)]
pub(crate) struct LaneTimeline {
    pub dma_free: Cycle,
    pub compute_free: Cycle,
    /// Every attempt's perf spans, when perf collection is on.
    pub spans: Vec<Span>,
}

impl LaneTimeline {
    /// The cycle the lane's last job completed.
    pub fn done(&self) -> Cycle {
        self.compute_free.max(self.dma_free)
    }
}

/// Where a job runs: one device (a lone driver's, or one lane of a
/// multi-lane SoC), the memory it shares with the CPU, the schedule the
/// CPU backtrace walks, and the CPU engine its caller owns, which answers
/// the pairs the fallback takes.
pub(crate) struct Lane<'a> {
    pub device: &'a mut WfasicDevice,
    pub cpu: &'a mut CpuWfaBackend,
    pub mem: &'a mut MainMemory,
    pub layout: MemLayout,
    pub schedule: &'a WavefrontSchedule,
    pub timeline: &'a mut LaneTimeline,
}

/// What one job came to, plus the counts a lane's circuit breaker needs.
pub(crate) struct Outcome {
    pub result: Result<JobResult, DriverError>,
    /// Attempts that failed, including ones a later retry recovered.
    pub failed_attempts: u64,
    /// Every attempt failed: the lane burned all its retries.
    pub exhausted: bool,
}

impl Outcome {
    fn refused(err: DriverError, failed_attempts: u64) -> Self {
        Outcome {
            result: Err(err),
            failed_attempts,
            exhausted: false,
        }
    }
}

/// Run `pairs` on `lane` under `policy`, starting its DMA at the lane's
/// `dma_free` and its Aligners at `compute_free`, and advance the timeline
/// past the job. `deadline` is the job's own cycle budget
/// ([`crate::BatchJob::deadline`]; `None` = no deadline). See the module
/// docs for the rules.
pub(crate) fn run_job(
    lane: Lane<'_>,
    policy: &AlignPolicy,
    deadline: Option<Cycle>,
    pairs: &[Pair],
    backtrace: bool,
) -> Outcome {
    let max_read_len = round_up_16(
        pairs
            .iter()
            .map(|p| p.a.len().max(p.b.len()))
            .max()
            .unwrap_or(16)
            .max(16),
    );
    // The CPU parses the input and stores it in main memory (Fig. 4 step
    // 1), padding every sequence to MAX_READ_LEN with dummy bases.
    let img = InputImage::encode_raw(pairs, max_read_len);
    let layout = lane.layout;
    if layout.in_addr + img.bytes.len() as u64 > layout.out_addr {
        let bytes = img.bytes.len();
        return Outcome::refused(DriverError::BatchTooLarge { bytes }, 0);
    }

    let separated = policy.force_separation || lane.device.cfg.num_aligners > 1;
    let registers = [
        (offsets::BT_ENABLE, backtrace as u64),
        (offsets::MAX_READ_LEN, max_read_len as u64),
        (offsets::IN_ADDR, layout.in_addr),
        (offsets::IN_SIZE, img.bytes.len() as u64),
        (offsets::OUT_ADDR, layout.out_addr),
        (offsets::OUT_SIZE, policy.out_size),
        (offsets::PERF_CTRL, policy.collect_perf as u64),
        // The driver polls Idle, so it leaves the interrupt off.
        (offsets::IRQ_ENABLE, 0),
        (offsets::START, 1),
    ];
    let mut config_cycles: Cycle = 0;
    let mut failed_attempts = 0;
    let mut last_failure: Option<(DriverError, RunReport)> = None;
    // The first attempt overlaps the lane's previous job's compute; a retry
    // replays the job after the failed attempt (plus the backoff), so each
    // attempt's `duration()` is its own.
    let mut dma_start = lane.timeline.dma_free;
    let mut compute_start = lane.timeline.compute_free;
    // Every attempt's duration and every retry backoff count against the
    // deadline.
    let mut spent: Cycle = 0;

    for attempt in 0..=policy.max_retries {
        if attempt > 0 {
            spent += policy.retry_backoff_cycles;
            dma_start += policy.retry_backoff_cycles;
            compute_start = compute_start.max(dma_start);
        }
        // (Re)stage the image and program the registers over AXI-Lite — a
        // retry reprograms everything in case a fault corrupted the
        // configuration path.
        lane.mem.write(layout.in_addr, &img.bytes);
        for (off, value) in registers {
            lane.device.mmio_write(off, value);
        }
        config_cycles += AXI_LITE_ACCESS_CYCLES * registers.len() as Cycle;

        let report = lane.device.run_at(lane.mem, dma_start, compute_start);
        // Completion: poll Idle, then clear any interrupt a corrupted
        // IRQ_ENABLE write raised.
        debug_assert_eq!(lane.device.mmio_read(offsets::IDLE), 1);
        acknowledge_interrupt(lane.device);
        // The silicon ran whatever the attempt comes to, so the lane's next
        // job cannot start before it ended.
        let timeline = &mut *lane.timeline;
        timeline.dma_free = timeline.dma_free.max(report.input_done);
        timeline.compute_free = timeline.compute_free.max(report.total_cycles);
        if let Some(perf) = &report.perf {
            timeline.spans.extend_from_slice(&perf.spans);
        }

        let waited = report.duration();
        spent += waited;
        if let Some(budget) = deadline {
            // The caller stopped waiting the moment the budget ran out:
            // refuse instead of parsing, retrying or falling back — a late
            // answer is still a missed deadline. The refusal is a policy
            // outcome, not a lane fault, so it never feeds a breaker.
            if spent > budget {
                let err = DriverError::DeadlineExceeded { budget, spent };
                return Outcome::refused(err, failed_attempts);
            }
        }
        let err = if waited > policy.watchdog_cycles {
            DriverError::Timeout {
                waited,
                watchdog: policy.watchdog_cycles,
            }
        } else if let Some(e) = report.error {
            DriverError::Device(e)
        } else {
            match parse_results(&lane, pairs, &report, backtrace, separated) {
                Ok((mut results, cpu_backtrace_cycles)) => {
                    if policy.cpu_fallback {
                        for (res, pair) in results.iter_mut().zip(pairs) {
                            if !res.success {
                                *res = lane.cpu.align(pair, backtrace, true);
                            }
                        }
                    }
                    return Outcome {
                        result: Ok(JobResult {
                            results,
                            report,
                            config_cycles,
                            cpu_backtrace_cycles,
                            separated,
                            retries: attempt,
                        }),
                        failed_attempts,
                        exhausted: false,
                    };
                }
                Err(e) => DriverError::Stream(e),
            }
        };
        failed_attempts += 1;
        dma_start = report.total_cycles;
        last_failure = Some((err, report));
    }

    // Every attempt failed: recover the whole job on the CPU or surface the
    // last failure.
    let (err, report) = last_failure.expect("at least one attempt ran");
    let result = if policy.cpu_fallback {
        Ok(JobResult {
            results: pairs
                .iter()
                .map(|p| lane.cpu.align(p, backtrace, true))
                .collect(),
            report,
            config_cycles,
            cpu_backtrace_cycles: 0,
            separated,
            retries: policy.max_retries,
        })
    } else {
        Err(err)
    };
    Outcome {
        result,
        failed_attempts,
        exhausted: true,
    }
}

/// Acknowledge any pending interrupt (write-1-to-clear) once the status
/// registers have been collected. The driver polls, but a corrupted
/// `IRQ_ENABLE` write can raise an interrupt nobody asked for.
/// The ack itself travels over MMIO and can arrive corrupted (a flipped bit
/// 0 drops the clear), so verify the pending bit dropped and re-arm if not.
fn acknowledge_interrupt(device: &mut WfasicDevice) {
    for _ in 0..4 {
        if device.mmio_read(offsets::IRQ_PENDING) == 0 {
            break;
        }
        device.mmio_write(offsets::IRQ_PENDING, 1);
    }
}

/// Parse a job's results from the lane's output window: NBT records, or
/// the backtrace stream plus the CPU backtrace (returning its modeled
/// cycles).
fn parse_results(
    lane: &Lane<'_>,
    pairs: &[Pair],
    report: &RunReport,
    backtrace: bool,
    separated: bool,
) -> Result<(Vec<AlignmentResult>, Cycle), BtError> {
    let window = lane
        .mem
        .view(lane.layout.out_addr, report.output_bytes as usize);
    let failed = |pair: &Pair| AlignmentResult {
        id: pair.id,
        success: false,
        score: 0,
        cigar: None,
        recovered: false,
    };
    if !backtrace {
        // An output window the memory cannot hold parses as no records. A
        // short or ID-mismatched record set (torn/corrupted output) leaves
        // the affected pairs marked failed rather than crashing; the CPU
        // fallback can then recover them.
        let bytes = window.unwrap_or_default();
        let recs = wfasic_accel::collector::parse_nbt_records(&bytes, pairs.len());
        let mut results: Vec<AlignmentResult> = pairs.iter().map(failed).collect();
        for (i, rec) in recs.iter().enumerate().take(pairs.len()) {
            if rec.id as u32 == pairs[i].id & 0xFFFF {
                results[i].success = rec.success;
                results[i].score = rec.score as u32;
            }
        }
        return Ok((results, 0));
    }

    // An output window the memory cannot hold reads as a cut-off stream.
    let bytes = window.map_err(|_| BtError::TruncatedStream)?;
    let alignments: Vec<BtAlignment> = if separated {
        separate_stream(&bytes)?
    } else {
        split_consecutive_stream(&bytes)?
    };
    let by_id: std::collections::HashMap<u32, &BtAlignment> =
        alignments.iter().map(|a| (a.id, a)).collect();

    let cfg = &lane.device.cfg;
    let (p, ps) = (cfg.penalties, cfg.parallel_sections);
    let mut cycles: Cycle = 0;
    let mut results = Vec::with_capacity(pairs.len());
    for pair in pairs {
        let bt = by_id
            .get(&(pair.id & 0x7F_FFFF))
            .ok_or(BtError::TruncatedStream)?;
        // The Extractor accepts exactly the alphabet `Seq` packs, so a raw
        // (non-ACGT) pair comes back successful only from a corrupted
        // record: answer it as failed.
        let (Some(pa), Some(pb), true) =
            (pair.a.as_packed(), pair.b.as_packed(), bt.record.success)
        else {
            results.push(failed(pair));
            continue;
        };
        let cigar = backtrace_alignment_packed(lane.schedule, bt, pa, pb, &p, ps)?;
        cycles += backtrace_cycles(
            (bt.txns * 16) as u64,
            cigar.stats().edits(),
            (pair.a.len() + pair.b.len()) as u64,
            separated,
        );
        results.push(AlignmentResult {
            id: pair.id,
            success: true,
            score: bt.record.score as u32,
            cigar: Some(cigar),
            recovered: false,
        });
    }
    Ok((results, cycles))
}
