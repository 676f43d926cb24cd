//! The top-level WFAsic device (paper Fig. 5): DMA → Input FIFO → Extractor
//! → Aligner(s) → Collector → Output FIFO → DMA, behind the AXI-Lite
//! register file.
//!
//! `run()` executes one job exactly as the hardware would: it reads the
//! input set from main memory record by record (the Extractor ingests a pair
//! only when an Aligner is idle), dispatches pairs to the earliest-idle
//! Aligner, streams results back through the Collector, and accounts cycles
//! on the shared AXI-Full port — which is precisely what saturates
//! multi-Aligner scaling for short reads (Table 1 / Fig. 10 / Eq. 7).
//!
//! On the host, `run_at` splits function from timing: phase 1 aligns the
//! job's records on every host thread, phase 2 replays the cycle timeline
//! serially and takes each precomputed answer only where the bytes it read
//! match (see [`WfasicDevice::run_at`]). Simulated results do not depend on
//! the host's thread count.
//!
//! Malformed configuration never panics (the paper's §5.1 campaign: broken
//! data "did not \[cause\] any CPU freeze"). Invalid jobs are refused with a
//! latched [`offsets::ERROR_CODE`]/[`offsets::ERROR_INFO`] pair and the
//! device returns to `IDLE = 1`; corrupted records degrade to per-pair
//! `Success = 0`. A [`FaultPlan`] can be installed to exercise those paths
//! deterministically (bit flips, dropped/duplicated DMA beats, stuck FIFOs,
//! bus stalls, MMIO corruption).

use crate::aligner::{align_extracted_in, AlignerOutcome, AlignerScratch, AlignerStats};
use crate::collector::{collect_bt_bytes, nbt_record, pack_nbt_records};
use crate::config::AccelConfig;
use crate::extractor::extract_pair;
use crate::regs::{error_code, offsets, DeviceError, JobConfig};
use crate::schedule::WavefrontSchedule;
use std::cell::RefCell;
use std::ops::Range;
use std::rc::Rc;
use std::sync::Arc;
use wfa_core::pool::{self, available_threads, in_worker};
use wfasic_seqio::memimage::{pair_record_bytes, NbtRecord, SECTION};
use wfasic_soc::arbiter::BusArbiter;
use wfasic_soc::bus::{BusStats, MemoryBus};
use wfasic_soc::clock::Cycle;
use wfasic_soc::dma::DmaEngine;
use wfasic_soc::fault::{streams, FaultCounters, FaultInjector, FaultPlan};
use wfasic_soc::fifo::SinglePortFifo;
use wfasic_soc::mem::MainMemory;
use wfasic_soc::mmio::RegFile;
use wfasic_soc::perf::{track, JobPerf, Stage, TraceSink};

/// Per-pair timing/result record.
#[derive(Debug, Clone, Copy)]
pub struct PairReport {
    /// Alignment ID.
    pub id: u32,
    /// Completed within the hardware limits?
    pub success: bool,
    /// Alignment score.
    pub score: u32,
    /// Cycles to read this pair's record from memory, from issue to data
    /// arrival — includes bus queueing behind other traffic (the unqueued
    /// first-pair value is the paper's Table 1 "Reading Cycles").
    pub read_cycles: Cycle,
    /// Cycles the Aligner spent on this pair (Table 1 "Alignment Cycles").
    pub align_cycles: Cycle,
    /// Cycle the Aligner started this pair.
    pub start: Cycle,
    /// Cycle the pair fully completed (including result drain).
    pub done: Cycle,
    /// Which Aligner ran it.
    pub aligner: usize,
    /// Work counters.
    pub stats: AlignerStats,
}

/// The report of one accelerator job.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Absolute cycle at which everything completed. For a job launched at
    /// cycle 0 (the single-device path) this is the job duration; for a
    /// lane job launched mid-batch, subtract [`RunReport::start`] — see
    /// [`RunReport::duration`].
    pub total_cycles: Cycle,
    /// Absolute cycle at which the job was launched (0 on the single-device
    /// path).
    pub start: Cycle,
    /// Absolute cycle at which the last input record finished arriving: the
    /// earliest point the next job's DMA-in may begin on this lane.
    pub input_done: Cycle,
    /// Per-pair details, in input order (may be truncated if the job
    /// aborted — see `error`).
    pub pairs: Vec<PairReport>,
    /// Result bytes written to memory.
    pub output_bytes: u64,
    /// Shared-bus traffic.
    pub bus: BusStats,
    /// Bus utilization over the job.
    pub bus_utilization: f64,
    /// Per-Aligner busy cycles.
    pub aligner_busy: Vec<Cycle>,
    /// Was an interrupt raised at completion?
    pub interrupt_raised: bool,
    /// The error latched by this job, if any (mirrors `ERROR_CODE`).
    pub error: Option<DeviceError>,
    /// Faults injected during this job (bus + FIFO streams).
    pub faults: FaultCounters,
    /// Per-stage cycle attribution and the raw hardware spans, collected
    /// when `PERF_CTRL` was set for this job (`None` otherwise). The
    /// attribution covers the job window `[start, total_cycles)` exactly,
    /// so the counters sum to [`RunReport::duration`] — see
    /// [`wfasic_soc::perf::attribute_timeline`].
    pub perf: Option<JobPerf>,
}

impl RunReport {
    /// Cycles the job itself took (`total_cycles - start`; mirrors the
    /// `JOB_CYCLES` register).
    pub fn duration(&self) -> Cycle {
        self.total_cycles - self.start
    }
}

/// Output chunking granularity for the backtrace stream: one bus burst.
const BT_CHUNK_TXNS: usize = 16;

/// Sanity bound on MAX_READ_LEN: anything beyond this cannot be a real
/// input set and is refused up front (per-read limits are still enforced
/// record by record against `max_supported_len`).
const MAX_READ_LEN_SANITY: usize = 1 << 20;

/// Cycles charged for decoding and refusing an invalid configuration.
const REFUSE_CYCLES: Cycle = 2;

/// Phase 1's window (see [`WfasicDevice::run_at`]): at most this many
/// pairs per host worker.
pub const PAIRS_PER_WORKER: usize = 32;

/// The WFAsic accelerator device.
#[derive(Debug)]
pub struct WfasicDevice {
    /// Structural/timing configuration.
    pub cfg: AccelConfig,
    /// The AXI-Lite register file.
    pub regs: RegFile,
    schedule: Arc<WavefrontSchedule>,
    /// Installed fault plan (`None` = fault-free operation).
    fault_plan: Option<FaultPlan>,
    /// Faults injected across all jobs (bus + FIFO streams).
    fault_counters: FaultCounters,
    /// Injector for the MMIO configuration path.
    mmio_fault: Option<FaultInjector>,
    jobs_run: u64,
    /// This device's lane ID in a multi-lane SoC (0 for a lone device).
    /// Namespaces the fault-injection streams and perf trace tracks so
    /// lanes sharing a fault plan do not draw correlated fault sequences.
    lane: usize,
    /// The shared memory-controller arbiter, when this device is one lane
    /// of a multi-lane SoC.
    shared_bus: Option<Rc<RefCell<BusArbiter>>>,
    /// Host-side wavefront/staging scratch for the pairs this thread
    /// aligns, in either phase, reused across pairs and jobs (wall-clock
    /// only; outcomes and cycles are unaffected). Resident helpers keep
    /// their own.
    scratch: AlignerScratch,
}

impl WfasicDevice {
    /// Instantiate a device.
    pub fn new(cfg: AccelConfig) -> Self {
        cfg.validate().expect("invalid accelerator configuration");
        let schedule = Arc::new(WavefrontSchedule::for_config(&cfg));
        let mut regs = RegFile::new();
        for ro in [
            offsets::IDLE,
            offsets::OUT_BYTES,
            offsets::JOB_CYCLES,
            offsets::ERROR_CODE,
            offsets::ERROR_INFO,
        ] {
            regs.mark_ro(ro);
        }
        for ro in offsets::PERF_COUNTERS {
            regs.mark_ro(ro);
        }
        regs.mark_w1c(offsets::IRQ_PENDING);
        regs.poke(offsets::IDLE, 1);
        WfasicDevice {
            cfg,
            regs,
            schedule,
            fault_plan: None,
            fault_counters: FaultCounters::default(),
            mmio_fault: None,
            jobs_run: 0,
            lane: 0,
            shared_bus: None,
            scratch: AlignerScratch::new(),
        }
    }

    /// Give this device a lane identity in a multi-lane SoC. Lane 0 is
    /// bit-identical to a lone device.
    pub fn with_lane(mut self, lane: usize) -> Self {
        self.set_lane(lane);
        self
    }

    /// Set the lane ID (see [`WfasicDevice::with_lane`]).
    pub fn set_lane(&mut self, lane: usize) {
        self.lane = lane;
        // The MMIO fault stream is per-device state: re-key it so lanes
        // sharing a plan do not draw the same configuration-path faults.
        if let Some(plan) = self.fault_plan {
            self.clear_fault_plan();
            self.set_fault_plan(plan);
        }
    }

    /// This device's lane ID.
    pub fn lane(&self) -> usize {
        self.lane
    }

    /// Attach this device's DMA port to a shared memory-controller arbiter
    /// (as lane [`WfasicDevice::lane`]). Transfers then contend with the
    /// other lanes' traffic.
    pub fn attach_shared_bus(&mut self, arbiter: Rc<RefCell<BusArbiter>>) {
        self.shared_bus = Some(arbiter);
    }

    /// Stream-key nonce for this device: varies per job (faults behave as
    /// transients across retries) and per lane (lanes sharing a plan draw
    /// independent sequences). Lane 0's first job keys exactly as a lone
    /// device's.
    fn fault_nonce(&self) -> u64 {
        (self.jobs_run ^ ((self.lane as u64) << 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// Install a fault plan. Takes effect on subsequent MMIO writes and jobs;
    /// each job draws fresh per-stream fault sequences, so an identical
    /// resubmission sees a *different* (transient) fault pattern.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        // Replacing a plan mid-soak must not lose what the old injector
        // already counted.
        if let Some(inj) = self.mmio_fault.take() {
            self.fault_counters.merge(&inj.counters);
        }
        let key = streams::MMIO ^ ((self.lane as u64) << 32);
        self.mmio_fault = Some(FaultInjector::with_stream(plan, key));
        self.fault_plan = Some(plan);
    }

    /// Remove the fault plan (counters are retained).
    pub fn clear_fault_plan(&mut self) {
        if let Some(inj) = self.mmio_fault.take() {
            self.fault_counters.merge(&inj.counters);
        }
        self.fault_plan = None;
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.fault_plan
    }

    /// Everything injected so far, across all jobs and the MMIO path.
    pub fn fault_counters(&self) -> FaultCounters {
        let mut total = self.fault_counters;
        if let Some(inj) = &self.mmio_fault {
            total.merge(&inj.counters);
        }
        total
    }

    /// Latch an error into the sticky `ERROR_CODE`/`ERROR_INFO` pair.
    fn latch_error(&mut self, code: u64, info: u64) {
        self.regs.poke(offsets::ERROR_CODE, code);
        self.regs.poke(offsets::ERROR_INFO, info);
    }

    /// Is per-stage cycle attribution enabled for the next job?
    fn perf_enabled(&self) -> bool {
        self.regs.peek(offsets::PERF_CTRL) & 1 != 0
    }

    /// Publish a job's per-stage counters into the read-only MMIO bank
    /// (zeros when attribution was disabled), mirroring the RISC-V
    /// `mhpmcounter` style: the CPU reads them back after `IDLE` returns.
    fn publish_perf(&mut self, perf: Option<&JobPerf>) {
        for stage in Stage::ALL {
            let cycles = perf.map_or(0, |p| p.counters.get(stage));
            self.regs.poke(offsets::perf_counter(stage), cycles);
        }
    }

    /// CPU-side register write over AXI-Lite.
    pub fn mmio_write(&mut self, offset: u64, value: u64) {
        let value = match self.mmio_fault.as_mut() {
            Some(inj) => inj.corrupt_mmio(value),
            None => value,
        };
        if offset == offsets::START && value != 0 {
            if self.regs.peek(offsets::START) != 0 || self.regs.peek(offsets::IDLE) == 0 {
                // START while a job is already pending or running: refuse
                // the write, keep the in-flight job intact.
                self.latch_error(error_code::START_WHILE_BUSY, 0);
                self.regs.write_count += 1;
                return;
            }
            // Accepted start: the sticky error pair resets.
            self.latch_error(error_code::OK, 0);
        }
        self.regs.write(offset, value);
    }

    /// CPU-side register read over AXI-Lite.
    pub fn mmio_read(&mut self, offset: u64) -> u64 {
        self.regs.read(offset)
    }

    /// Refuse the job latched at cycle `start`: latch the error, return to
    /// Idle, raise the interrupt if enabled (so waiters wake and see the
    /// error).
    fn refuse(&mut self, start: Cycle, code: u64, info: u64, irq_enable: bool) -> RunReport {
        self.latch_error(code, info);
        self.regs.poke(offsets::IDLE, 1);
        self.regs.poke(offsets::OUT_BYTES, 0);
        self.regs.poke(offsets::JOB_CYCLES, REFUSE_CYCLES);
        if irq_enable {
            self.regs.poke(offsets::IRQ_PENDING, 1);
        }
        // A refused job still accounts its cycles: decode-and-refuse is
        // control-FSM time.
        let total = start + REFUSE_CYCLES;
        let perf = self.perf_enabled().then(|| {
            let mut sink = TraceSink::new(true);
            sink.record(Stage::Ctrl, self.lane_track(track::DEVICE), start, total, 0);
            let mut spans = Vec::new();
            sink.drain_into(&mut spans);
            JobPerf::from_spans_window(spans, start, total)
        });
        self.publish_perf(perf.as_ref());
        RunReport {
            total_cycles: total,
            start,
            input_done: start,
            pairs: Vec::new(),
            output_bytes: 0,
            bus: BusStats::default(),
            bus_utilization: 0.0,
            aligner_busy: vec![0; self.cfg.num_aligners],
            interrupt_raised: irq_enable,
            error: Some(DeviceError { code, info }),
            faults: FaultCounters::default(),
            perf,
        }
    }

    /// The lane-namespaced ID of module track `base` (see
    /// [`track::on_lane`]).
    fn lane_track(&self, base: u16) -> u16 {
        track::on_lane(base, self.lane)
    }

    /// Execute the job described by the registers. The CPU writes START = 1
    /// and this simulates until completion (IDLE returns to 1; the interrupt
    /// is raised if enabled).
    ///
    /// Never panics on malformed configuration or corrupted data: invalid
    /// jobs are refused with a latched `ERROR_CODE`, an output-buffer
    /// overrun aborts the job mid-flight, and corrupted records degrade to
    /// per-pair `Success = 0`.
    pub fn run(&mut self, mem: &mut MainMemory) -> RunReport {
        self.run_at(mem, 0, 0)
    }

    /// Execute the latched job with a timeline offset: input DMA may begin
    /// no earlier than `dma_start`, Aligners no earlier than
    /// `compute_start`. `run_at(mem, 0, 0)` is exactly [`WfasicDevice::run`].
    ///
    /// This is the batch-overlap primitive: a lane that finished reading
    /// job *k*'s input at [`RunReport::input_done`] can start job *k+1*'s
    /// DMA there while job *k* is still computing (`compute_start` = job
    /// *k*'s completion).
    ///
    /// The host work runs in two phases, and neither changes a simulated
    /// result:
    ///
    /// * **Phase 1 (function).** Once the job passes validation, read a
    ///   window of input records straight from `mem` (no bus, no faults)
    ///   and run the Extractor and an Aligner on each. The window is one
    ///   queue that this thread drains together with the process's
    ///   resident helper threads ([`pool::share`]), each on an
    ///   [`AlignerScratch`] of its own that it keeps across jobs. Outcomes
    ///   are stored by pair index, so they never depend on scheduling. A
    ///   window holds at most [`PAIRS_PER_WORKER`] pairs per host thread,
    ///   which bounds the outcomes (backtrace blocks included) held at
    ///   once.
    /// * **Phase 2 (timing).** The serial loop: DMA reads, fault draws,
    ///   Input FIFO, Collector, DMA writes and perf spans, record by record.
    ///   It takes pair *i*'s precomputed outcome only when the bytes
    ///   `dma.read` returned equal the bytes phase 1 aligned; otherwise it
    ///   aligns the bytes it read, inline. A bus bit flip, a dropped or
    ///   duplicated beat, a result write that landed on a not-yet-read
    ///   input record and a time-windowed [`FaultPlan`] all take that
    ///   path, so the report and the output bytes are bit-identical to a
    ///   serial run under every input.
    ///
    /// The width is [`available_threads`] capped at the pair count. The job
    /// runs inline, phase 2 aligning every record itself as the serial
    /// model does, when the width is 1 or when the call is already inside
    /// pool work ([`in_worker`]): a parallel sweep of whole jobs, or a
    /// heterogeneous batch whose CPU queue has the helpers, then does not
    /// oversubscribe the host. Each lane of a multi-lane SoC splits its own
    /// `run_at`; one job is never split across lanes.
    pub fn run_at(
        &mut self,
        mem: &mut MainMemory,
        dma_start: Cycle,
        compute_start: Cycle,
    ) -> RunReport {
        let start = dma_start.min(compute_start);
        if self.regs.peek(offsets::START) != 1 {
            // The control FSM consumes the doorbell even when it refuses:
            // a malformed START (e.g. a fault-corrupted write latched a
            // value other than 1) must not wedge the lane by making every
            // later START write look like START-while-busy.
            self.regs.poke(offsets::START, 0);
            let irq = self.regs.peek(offsets::IRQ_ENABLE) != 0;
            return self.refuse(start, error_code::START_NOT_SET, 0, irq);
        }
        self.regs.poke(offsets::START, 0);
        self.regs.poke(offsets::IDLE, 0);

        let job = JobConfig::from_regs(&self.regs);

        // Configuration validation — the hardware's refuse-and-idle path.
        if job.max_read_len == 0
            || !job.max_read_len.is_multiple_of(16)
            || job.max_read_len > MAX_READ_LEN_SANITY
        {
            return self.refuse(
                start,
                error_code::BAD_MAX_READ_LEN,
                job.max_read_len as u64,
                job.irq_enable,
            );
        }
        let rec_bytes = pair_record_bytes(job.max_read_len);
        if !job.in_size.is_multiple_of(rec_bytes as u64) {
            return self.refuse(start, error_code::BAD_IN_SIZE, job.in_size, job.irq_enable);
        }
        let mem_cap = mem.cap() as u64;
        let in_window_ok = job
            .in_addr
            .checked_add(job.in_size)
            .is_some_and(|end| end <= mem_cap);
        if !in_window_ok {
            return self.refuse(start, error_code::BAD_ADDR, job.in_addr, job.irq_enable);
        }
        let out_window_ok =
            job.out_addr <= mem_cap && job.out_addr.checked_add(job.out_size).is_some();
        if !out_window_ok {
            return self.refuse(start, error_code::BAD_ADDR, job.out_addr, job.irq_enable);
        }
        // End of the output window (OUT_SIZE = 0 means "to end of memory").
        let out_limit = if job.out_size == 0 {
            mem_cap
        } else {
            mem_cap.min(job.out_addr + job.out_size)
        };

        let num_pairs = (job.in_size / rec_bytes as u64) as usize;
        let n_aligners = self.cfg.num_aligners;

        self.jobs_run += 1;
        // Perf tracing is purely observational: the sinks record spans the
        // timing model already produces, so enabling PERF_CTRL can never
        // change a job's cycle results.
        let perf_on = self.perf_enabled();
        let mut dev_perf = TraceSink::new(perf_on);
        let mut bus = MemoryBus::new(self.cfg.bus);
        bus.perf.enabled = perf_on;
        if let Some(arbiter) = &self.shared_bus {
            bus.attach_shared(arbiter.clone(), self.lane);
        }
        let mut in_fifo: SinglePortFifo<()> = SinglePortFifo::new(self.cfg.fifo_depth.max(1));
        in_fifo.perf.enabled = perf_on;
        if let Some(plan) = self.fault_plan {
            // Per-job, per-lane nonce: a retried job draws fresh fault
            // sequences (faults behave as transients), and lanes sharing a
            // plan draw independent ones.
            let nonce = self.fault_nonce();
            bus.fault = Some(FaultInjector::with_stream(plan, streams::BUS ^ nonce));
            in_fifo.fault = Some(FaultInjector::with_stream(plan, streams::FIFO ^ nonce));
        }
        let mut dma = DmaEngine::new();

        let mut aligner_free: Vec<Cycle> = vec![compute_start; n_aligners];
        let mut aligner_busy: Vec<Cycle> = vec![0; n_aligners];
        let mut completion: Vec<Cycle> = Vec::with_capacity(num_pairs);
        let mut pairs: Vec<PairReport> = Vec::with_capacity(num_pairs);

        let mut out_cursor = job.out_addr;
        let mut output_bytes: u64 = 0;
        let mut last_event: Cycle = 0;
        let mut error: Option<DeviceError> = None;

        // Pending NBT records (flushed four per transaction).
        let mut nbt_pending: Vec<(NbtRecord, Cycle)> = Vec::new();

        let width = if in_worker() {
            1
        } else {
            available_threads().min(num_pairs)
        };
        let mut ahead = Ahead::default();

        let mut read_free: Cycle = dma_start;
        'job: for i in 0..num_pairs {
            if width > 1 && i == ahead.end() {
                let window = i..num_pairs.min(i + width * PAIRS_PER_WORKER);
                ahead = self.align_ahead(mem, &job, window);
            }
            // The Extractor starts ingesting a pair only when an Aligner is
            // (about to be) idle: gate on the (i - N)-th completion.
            let gate = if i >= n_aligners {
                completion[i - n_aligners]
            } else {
                0
            };
            let read_start = read_free.max(gate);
            let (record, read_done) = dma.read(
                mem,
                &mut bus,
                read_start,
                job.in_addr + (i * rec_bytes) as u64,
                rec_bytes,
            );
            read_free = read_done;

            // The record parks in the Input FIFO on its way to the
            // Extractor; a stuck FIFO delays ingestion.
            let ingest = in_fifo.output_ready(read_done);

            let (decode_cycles, outcome) = match ahead.take(i, &record) {
                Some(precomputed) => precomputed,
                None => {
                    extract_and_align(&self.cfg, &self.schedule, &record, &job, &mut self.scratch)
                }
            };
            dev_perf.record(
                Stage::Extract,
                track::DEVICE,
                ingest,
                ingest + decode_cycles,
                outcome.id,
            );

            // Dispatch to the earliest-idle Aligner.
            let w = (0..n_aligners)
                .min_by_key(|&w| aligner_free[w])
                .unwrap_or(0);
            let t0 = ingest.max(aligner_free[w]);
            if dev_perf.enabled {
                dev_perf.spans.extend(outcome.phase_spans(t0, w));
            }
            let mut done = t0 + outcome.cycles;
            aligner_busy[w] += outcome.cycles;

            if job.backtrace {
                // Collector BT: stream the origin blocks out while the
                // alignment runs; the pair is not finished until the stream
                // has drained (the Aligner stalls if the output can't keep
                // up — "transferring huge amount of backtrace data ... may
                // limit the performance").
                let bytes = collect_bt_bytes(&outcome);
                let chunks = bytes.chunks(BT_CHUNK_TXNS * SECTION);
                let n_chunks = chunks.len();
                let mut write_done = t0;
                for (ci, chunk) in chunks.enumerate() {
                    if out_cursor + chunk.len() as u64 > out_limit {
                        error = Some(DeviceError {
                            code: error_code::OUT_OVERRUN,
                            info: out_cursor,
                        });
                        break 'job;
                    }
                    // Chunk becomes available proportionally through the
                    // alignment; the last chunk only after completion.
                    let avail = t0 + (outcome.cycles * (ci as Cycle + 1)) / n_chunks as Cycle;
                    write_done = dma.write(mem, &mut bus, avail, out_cursor, chunk);
                    out_cursor += chunk.len() as u64;
                    output_bytes += chunk.len() as u64;
                }
                done = done.max(write_done);
            } else {
                nbt_pending.push((nbt_record(&outcome), done));
                if nbt_pending.len() == 4 {
                    let (bytes, avail) = drain_nbt(&mut nbt_pending);
                    if out_cursor + bytes.len() as u64 > out_limit {
                        error = Some(DeviceError {
                            code: error_code::OUT_OVERRUN,
                            info: out_cursor,
                        });
                        break 'job;
                    }
                    let wd = dma.write(mem, &mut bus, avail, out_cursor, &bytes);
                    out_cursor += bytes.len() as u64;
                    output_bytes += bytes.len() as u64;
                    last_event = last_event.max(wd);
                }
            }

            aligner_free[w] = done;
            completion.push(done);
            last_event = last_event.max(done);

            pairs.push(PairReport {
                id: outcome.id,
                success: outcome.success,
                score: outcome.score,
                read_cycles: read_done - read_start,
                align_cycles: outcome.cycles,
                start: t0,
                done,
                aligner: w,
                stats: outcome.stats,
            });
        }

        // Flush a partial NBT transaction (skipped if the job aborted).
        if error.is_none() && !nbt_pending.is_empty() {
            let (bytes, avail) = drain_nbt(&mut nbt_pending);
            if out_cursor + bytes.len() as u64 > out_limit {
                error = Some(DeviceError {
                    code: error_code::OUT_OVERRUN,
                    info: out_cursor,
                });
            } else {
                let wd = dma.write(mem, &mut bus, avail, out_cursor, &bytes);
                output_bytes += bytes.len() as u64;
                last_event = last_event.max(wd);
            }
        }

        // Collect this job's injected-fault counters.
        let mut job_faults = FaultCounters::default();
        if let Some(inj) = bus.fault.take() {
            job_faults.merge(&inj.counters);
        }
        if let Some(inj) = in_fifo.fault.take() {
            job_faults.merge(&inj.counters);
        }
        self.fault_counters.merge(&job_faults);

        let total_cycles = last_event.max(read_free);
        // Assemble the per-stage timeline: every span the bus, the input
        // FIFO, and the device recorded, attributed over the job window
        // [start, total_cycles). An aborted job (OUT_OVERRUN) lands here
        // too, so partial jobs get partial — but still exactly-summing —
        // attribution.
        let perf = perf_on.then(|| {
            let mut spans = Vec::new();
            bus.perf.drain_into(&mut spans);
            in_fifo.perf.drain_into(&mut spans);
            dev_perf.drain_into(&mut spans);
            // The module sinks record on bare module tracks; namespace them
            // to this device's lane (a no-op for lane 0).
            if self.lane != 0 {
                let offset = self.lane as u16 * track::LANE_STRIDE;
                for s in &mut spans {
                    s.track += offset;
                }
            }
            JobPerf::from_spans_window(spans, start, total_cycles)
        });
        self.publish_perf(perf.as_ref());
        self.regs.poke(offsets::IDLE, 1);
        self.regs.poke(offsets::OUT_BYTES, output_bytes);
        self.regs.poke(offsets::JOB_CYCLES, total_cycles - start);
        if let Some(e) = error {
            self.latch_error(e.code, e.info);
        }
        let interrupt_raised = job.irq_enable;
        if interrupt_raised {
            self.regs.poke(offsets::IRQ_PENDING, 1);
        }

        RunReport {
            total_cycles,
            start,
            input_done: read_free,
            pairs,
            output_bytes,
            bus: bus.stats,
            bus_utilization: bus.utilization((total_cycles - start).max(1)),
            aligner_busy,
            interrupt_raised,
            error,
            faults: job_faults,
            perf,
        }
    }

    /// Phase 1 of [`WfasicDevice::run_at`]: the Extractor and an Aligner on
    /// the input records `window`, read straight from `mem`, shared with the
    /// resident helpers.
    fn align_ahead(&mut self, mem: &MainMemory, job: &JobConfig, window: Range<usize>) -> Ahead {
        thread_local! {
            static HELPER_SCRATCH: RefCell<AlignerScratch> = RefCell::new(AlignerScratch::new());
        }
        let rec_bytes = pair_record_bytes(job.max_read_len);
        let addr = job.in_addr + (window.start * rec_bytes) as u64;
        // Validation put the whole input window inside memory; should a
        // read still fail, the rest of the job is aligned inline.
        let Ok(bytes) = mem.view(addr, window.len() * rec_bytes) else {
            return Ahead::default();
        };
        let bytes: Arc<[u8]> = bytes.into();
        let (cfg, job) = (self.cfg, *job);
        let (schedule, scratch) = (&self.schedule, &mut self.scratch);
        let (outcomes, _) = pool::share(
            window.len(),
            |queue| {
                queue.drain(|k| {
                    let record = &bytes[k * rec_bytes..][..rec_bytes];
                    Some(extract_and_align(&cfg, schedule, record, &job, scratch))
                })
            },
            || {
                let (bytes, schedule) = (Arc::clone(&bytes), Arc::clone(schedule));
                move |queue: &pool::Cursor| {
                    HELPER_SCRATCH.with_borrow_mut(|scratch| {
                        let part = queue.drain(|k| {
                            let record = &bytes[k * rec_bytes..][..rec_bytes];
                            Some(extract_and_align(&cfg, &schedule, record, &job, scratch))
                        });
                        (part, ())
                    })
                }
            },
        );
        Ahead {
            first: window.start,
            rec_bytes,
            bytes,
            outcomes,
        }
    }
}

/// The Extractor then an Aligner on one input record: the decode cycles
/// and the outcome. A pure function of the record bytes and the job's
/// configuration (`scratch` only saves allocations), which is what lets
/// phase 1 compute it ahead of the timeline.
fn extract_and_align(
    cfg: &AccelConfig,
    schedule: &WavefrontSchedule,
    record: &[u8],
    job: &JobConfig,
    scratch: &mut AlignerScratch,
) -> (Cycle, AlignerOutcome) {
    let ex = extract_pair(cfg, record, job.max_read_len);
    let outcome = align_extracted_in(cfg, schedule, &ex, job.backtrace, scratch);
    (ex.decode_cycles, outcome)
}

/// Phase 1's answers for a window of consecutive input records, kept with
/// the record bytes they were computed from.
#[derive(Debug, Default)]
struct Ahead {
    /// Pair index of the window's first record.
    first: usize,
    rec_bytes: usize,
    /// The window's records as phase 1 read them.
    bytes: Arc<[u8]>,
    /// `(decode cycles, outcome)` per record; taken at most once.
    outcomes: Vec<Option<(Cycle, AlignerOutcome)>>,
}

impl Ahead {
    /// One past the window's last pair.
    fn end(&self) -> usize {
        self.first + self.outcomes.len()
    }

    /// Pair `i`'s precomputed answer, if phase 1 aligned exactly `record`.
    fn take(&mut self, i: usize, record: &[u8]) -> Option<(Cycle, AlignerOutcome)> {
        let k = i.checked_sub(self.first)?;
        let aligned = self
            .bytes
            .get(k * self.rec_bytes..(k + 1) * self.rec_bytes)?;
        if aligned != record {
            return None;
        }
        self.outcomes.get_mut(k)?.take()
    }
}

/// Pack pending NBT records into transaction bytes; returns the bytes and
/// the cycle at which the group is ready (the latest member's completion).
fn drain_nbt(pending: &mut Vec<(NbtRecord, Cycle)>) -> (Vec<u8>, Cycle) {
    let avail = pending.iter().map(|&(_, t)| t).max().unwrap_or(0);
    let recs: Vec<NbtRecord> = pending.drain(..).map(|(r, _)| r).collect();
    (pack_nbt_records(&recs), avail)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::parse_nbt_records;
    use wfasic_seqio::dataset::InputSetSpec;
    use wfasic_seqio::memimage::InputImage;

    const IN_ADDR: u64 = 0x1000;
    const OUT_ADDR: u64 = 0x40_0000;

    fn setup(
        spec: InputSetSpec,
        n: usize,
        seed: u64,
        bt: bool,
        cfg: AccelConfig,
    ) -> (WfasicDevice, MainMemory, usize, Vec<wfasic_seqio::Pair>) {
        let set = spec.generate(n, seed);
        let max = set.max_read_len();
        let img = InputImage::encode(&set.pairs, max);
        let mut mem = MainMemory::with_default_cap();
        mem.write(IN_ADDR, &img.bytes);

        let mut dev = WfasicDevice::new(cfg);
        dev.mmio_write(offsets::BT_ENABLE, bt as u64);
        dev.mmio_write(offsets::MAX_READ_LEN, max as u64);
        dev.mmio_write(offsets::IN_ADDR, IN_ADDR);
        dev.mmio_write(offsets::IN_SIZE, img.bytes.len() as u64);
        dev.mmio_write(offsets::OUT_ADDR, OUT_ADDR);
        dev.mmio_write(offsets::START, 1);
        (dev, mem, max, set.pairs)
    }

    #[test]
    fn nbt_job_end_to_end() {
        let spec = InputSetSpec {
            length: 100,
            error_pct: 5,
        };
        let (mut dev, mut mem, _max, input) = setup(spec, 6, 1, false, AccelConfig::wfasic_chip());
        let report = dev.run(&mut mem);
        assert_eq!(report.pairs.len(), 6);
        assert!(report.pairs.iter().all(|p| p.success));
        assert_eq!(dev.mmio_read(offsets::IDLE), 1);
        assert_eq!(dev.mmio_read(offsets::ERROR_CODE), error_code::OK);
        assert!(report.error.is_none());
        assert_eq!(report.faults.total(), 0);

        // Results in memory match software WFA scores.
        let out = mem.read(OUT_ADDR, report.output_bytes as usize);
        let recs = parse_nbt_records(&out, 6);
        assert_eq!(recs.len(), 6);
        for (rec, pair) in recs.iter().zip(&input) {
            let sw = wfa_core::swg_score(
                &pair.a.bytes(),
                &pair.b.bytes(),
                &wfa_core::Penalties::WFASIC_DEFAULT,
            );
            assert_eq!(rec.score as u64, sw, "pair id {}", pair.id);
            assert_eq!(rec.id as u32, pair.id & 0xFFFF);
            assert!(rec.success);
        }
    }

    #[test]
    fn bt_job_writes_stream_and_score_records() {
        let spec = InputSetSpec {
            length: 100,
            error_pct: 10,
        };
        let (mut dev, mut mem, _max, input) = setup(spec, 2, 7, true, AccelConfig::wfasic_chip());
        let report = dev.run(&mut mem);
        assert!(report.output_bytes > 0);
        assert_eq!(report.output_bytes % 16, 0);
        // Walk the transactions: Last flags appear exactly once per pair.
        let out = mem.read(OUT_ADDR, report.output_bytes as usize);
        let lasts: Vec<_> = out
            .chunks_exact(16)
            .map(wfasic_seqio::BtTxn::decode)
            .filter(|t| t.last)
            .collect();
        assert_eq!(lasts.len(), input.len());
        for (t, pair) in lasts.iter().zip(&input) {
            let rec = wfasic_seqio::BtScoreRecord::decode(&t.payload);
            let sw = wfa_core::swg_score(
                &pair.a.bytes(),
                &pair.b.bytes(),
                &wfa_core::Penalties::WFASIC_DEFAULT,
            );
            assert_eq!(rec.score as u64, sw);
            assert_eq!(t.id, pair.id & 0x7F_FFFF);
        }
    }

    #[test]
    fn bt_costs_more_cycles_than_nbt() {
        let spec = InputSetSpec {
            length: 1000,
            error_pct: 10,
        };
        let (mut d1, mut m1, _, _) = setup(spec, 2, 3, false, AccelConfig::wfasic_chip());
        let (mut d2, mut m2, _, _) = setup(spec, 2, 3, true, AccelConfig::wfasic_chip());
        let r_nbt = d1.run(&mut m1);
        let r_bt = d2.run(&mut m2);
        assert!(
            r_bt.total_cycles >= r_nbt.total_cycles,
            "backtrace streaming cannot be free: bt={} nbt={}",
            r_bt.total_cycles,
            r_nbt.total_cycles
        );
        assert!(r_bt.output_bytes > r_nbt.output_bytes * 10);
    }

    #[test]
    fn more_aligners_scale_long_reads() {
        let spec = InputSetSpec {
            length: 1000,
            error_pct: 10,
        };
        let (mut d1, mut m1, _, _) = setup(spec, 8, 5, false, AccelConfig::wfasic_chip());
        let (mut d4, mut m4, _, _) = setup(
            spec,
            8,
            5,
            false,
            AccelConfig::wfasic_chip().with_aligners(4),
        );
        let r1 = d1.run(&mut m1);
        let r4 = d4.run(&mut m4);
        let speedup = r1.total_cycles as f64 / r4.total_cycles as f64;
        assert!(
            speedup > 2.5,
            "4 aligners should speed up 1K-10% markedly, got {speedup:.2}x"
        );
        // Same results regardless of aligner count.
        let s1: Vec<_> = r1.pairs.iter().map(|p| (p.id, p.score)).collect();
        let s4: Vec<_> = r4.pairs.iter().map(|p| (p.id, p.score)).collect();
        assert_eq!(s1, s4);
    }

    #[test]
    fn unsupported_reads_do_not_hang_and_flag_failure() {
        // The paper's robustness test: broken/unexpected data must not hang
        // the device; the affected pair reports Success = 0.
        let mut pairs = InputSetSpec {
            length: 100,
            error_pct: 5,
        }
        .generate(3, 2)
        .pairs;
        pairs[1].a.set_byte(10, b'N');
        let max = 128;
        let img = InputImage::encode(&pairs, max);
        let mut mem = MainMemory::with_default_cap();
        mem.write(IN_ADDR, &img.bytes);
        let mut dev = WfasicDevice::new(AccelConfig::wfasic_chip());
        dev.mmio_write(offsets::MAX_READ_LEN, max as u64);
        dev.mmio_write(offsets::IN_ADDR, IN_ADDR);
        dev.mmio_write(offsets::IN_SIZE, img.bytes.len() as u64);
        dev.mmio_write(offsets::OUT_ADDR, OUT_ADDR);
        dev.mmio_write(offsets::START, 1);
        let report = dev.run(&mut mem);
        assert_eq!(report.pairs.len(), 3);
        assert!(report.pairs[0].success);
        assert!(!report.pairs[1].success, "the 'N' read must fail");
        assert!(report.pairs[2].success);
    }

    #[test]
    fn interrupt_raised_when_enabled() {
        let spec = InputSetSpec {
            length: 100,
            error_pct: 5,
        };
        let (mut dev, mut mem, _, _) = setup(spec, 1, 9, false, AccelConfig::wfasic_chip());
        dev.mmio_write(offsets::IRQ_ENABLE, 1);
        dev.mmio_write(offsets::START, 1);
        let report = dev.run(&mut mem);
        assert!(report.interrupt_raised);
        assert_eq!(dev.mmio_read(offsets::IRQ_PENDING), 1);
        // Write-1-to-clear: writing 0 leaves it set, writing 1 clears it.
        dev.mmio_write(offsets::IRQ_PENDING, 0);
        assert_eq!(dev.mmio_read(offsets::IRQ_PENDING), 1);
        dev.mmio_write(offsets::IRQ_PENDING, 1);
        assert_eq!(dev.mmio_read(offsets::IRQ_PENDING), 0);
    }

    #[test]
    fn job_cycles_register_matches_report() {
        let spec = InputSetSpec {
            length: 100,
            error_pct: 10,
        };
        let (mut dev, mut mem, _, _) = setup(spec, 4, 11, false, AccelConfig::wfasic_chip());
        let report = dev.run(&mut mem);
        assert_eq!(dev.mmio_read(offsets::JOB_CYCLES), report.total_cycles);
        assert_eq!(dev.mmio_read(offsets::OUT_BYTES), report.output_bytes);
    }

    #[test]
    fn first_pair_read_cycles_match_table1_band() {
        // Satellite check: the queued-latency read_cycles fix keeps the
        // unqueued first pair inside the paper's Table 1 calibration band
        // (75 reading cycles for a 100bp record, within 25%).
        let spec = InputSetSpec {
            length: 100,
            error_pct: 5,
        };
        let (mut dev, mut mem, max, _) = setup(spec, 4, 13, false, AccelConfig::wfasic_chip());
        let report = dev.run(&mut mem);
        let first = report.pairs[0].read_cycles;
        assert_eq!(
            first,
            dev.cfg.bus.transfer_cycles(pair_record_bytes(max)),
            "first pair is unqueued"
        );
        assert!(
            (first as f64 - 75.0).abs() / 75.0 < 0.25,
            "100bp reading cycles {first} outside the Table 1 band"
        );
        // Later pairs can only see equal-or-worse latency (queueing).
        assert!(report.pairs.iter().all(|p| p.read_cycles >= first));
    }

    #[test]
    fn bad_max_read_len_refused_with_error_code() {
        let mut mem = MainMemory::with_default_cap();
        let mut dev = WfasicDevice::new(AccelConfig::wfasic_chip());
        for bad in [0u64, 100, (1 << 21)] {
            dev.mmio_write(offsets::MAX_READ_LEN, bad);
            dev.mmio_write(offsets::IN_SIZE, 0);
            dev.mmio_write(offsets::START, 1);
            let report = dev.run(&mut mem);
            assert_eq!(
                report.error,
                Some(DeviceError {
                    code: error_code::BAD_MAX_READ_LEN,
                    info: bad
                })
            );
            assert_eq!(
                dev.mmio_read(offsets::ERROR_CODE),
                error_code::BAD_MAX_READ_LEN
            );
            assert_eq!(dev.mmio_read(offsets::ERROR_INFO), bad);
            assert_eq!(dev.mmio_read(offsets::IDLE), 1, "device returns to Idle");
        }
    }

    #[test]
    fn misaligned_in_size_refused() {
        let mut mem = MainMemory::with_default_cap();
        let mut dev = WfasicDevice::new(AccelConfig::wfasic_chip());
        dev.mmio_write(offsets::MAX_READ_LEN, 112);
        dev.mmio_write(offsets::IN_SIZE, 273); // not a record multiple
        dev.mmio_write(offsets::START, 1);
        let report = dev.run(&mut mem);
        assert_eq!(
            report.error,
            Some(DeviceError {
                code: error_code::BAD_IN_SIZE,
                info: 273
            })
        );
        assert_eq!(dev.mmio_read(offsets::IDLE), 1);
    }

    #[test]
    fn out_of_range_addresses_refused() {
        let mut mem = MainMemory::new(1 << 16);
        let mut dev = WfasicDevice::new(AccelConfig::wfasic_chip());
        let rec = pair_record_bytes(112) as u64;
        dev.mmio_write(offsets::MAX_READ_LEN, 112);
        dev.mmio_write(offsets::IN_ADDR, u64::MAX - 8);
        dev.mmio_write(offsets::IN_SIZE, rec * 4); // overflows the address space
        dev.mmio_write(offsets::START, 1);
        let report = dev.run(&mut mem);
        assert_eq!(report.error.map(|e| e.code), Some(error_code::BAD_ADDR));
        assert_eq!(dev.mmio_read(offsets::IDLE), 1);

        dev.mmio_write(offsets::IN_ADDR, 0);
        dev.mmio_write(offsets::OUT_ADDR, (1 << 20) as u64); // beyond the cap
        dev.mmio_write(offsets::START, 1);
        let report = dev.run(&mut mem);
        assert_eq!(report.error.map(|e| e.code), Some(error_code::BAD_ADDR));
    }

    #[test]
    fn start_while_busy_latches_error_and_keeps_job() {
        let spec = InputSetSpec {
            length: 100,
            error_pct: 5,
        };
        let (mut dev, mut mem, _, _) = setup(spec, 2, 17, false, AccelConfig::wfasic_chip());
        // START is already latched; a second START must be refused.
        dev.mmio_write(offsets::START, 1);
        assert_eq!(
            dev.mmio_read(offsets::ERROR_CODE),
            error_code::START_WHILE_BUSY
        );
        // The original job still runs to completion.
        let report = dev.run(&mut mem);
        assert!(report.error.is_none(), "the in-flight job is unaffected");
        assert_eq!(report.pairs.len(), 2);
        // The sticky error survives the job (cleared on the next START).
        assert_eq!(
            dev.mmio_read(offsets::ERROR_CODE),
            error_code::START_WHILE_BUSY
        );
        dev.mmio_write(offsets::START, 1);
        assert_eq!(dev.mmio_read(offsets::ERROR_CODE), error_code::OK);
    }

    #[test]
    fn run_without_start_is_refused_not_asserted() {
        let mut mem = MainMemory::with_default_cap();
        let mut dev = WfasicDevice::new(AccelConfig::wfasic_chip());
        let report = dev.run(&mut mem);
        assert_eq!(
            report.error.map(|e| e.code),
            Some(error_code::START_NOT_SET)
        );
        assert_eq!(dev.mmio_read(offsets::IDLE), 1);
    }

    #[test]
    fn output_overrun_aborts_and_returns_to_idle() {
        let spec = InputSetSpec {
            length: 100,
            error_pct: 10,
        };
        let (mut dev, mut mem, _, _) = setup(spec, 6, 19, true, AccelConfig::wfasic_chip());
        dev.mmio_write(offsets::OUT_SIZE, 64); // far too small for a BT stream
        dev.mmio_write(offsets::START, 1);
        let report = dev.run(&mut mem);
        assert_eq!(report.error.map(|e| e.code), Some(error_code::OUT_OVERRUN));
        assert_eq!(dev.mmio_read(offsets::ERROR_CODE), error_code::OUT_OVERRUN);
        assert_eq!(
            dev.mmio_read(offsets::IDLE),
            1,
            "abort still returns to Idle"
        );
        assert!(report.output_bytes <= 64);
        assert!(report.pairs.len() < 6, "the job aborted early");
    }

    #[test]
    fn status_registers_are_read_only() {
        let spec = InputSetSpec {
            length: 100,
            error_pct: 5,
        };
        let (mut dev, mut mem, _, _) = setup(spec, 1, 23, false, AccelConfig::wfasic_chip());
        let report = dev.run(&mut mem);
        dev.mmio_write(offsets::JOB_CYCLES, 0);
        dev.mmio_write(offsets::IDLE, 0);
        dev.mmio_write(offsets::ERROR_CODE, 99);
        assert_eq!(dev.mmio_read(offsets::JOB_CYCLES), report.total_cycles);
        assert_eq!(dev.mmio_read(offsets::IDLE), 1);
        assert_eq!(dev.mmio_read(offsets::ERROR_CODE), error_code::OK);
    }

    #[test]
    fn injected_bit_flips_degrade_to_pair_failures() {
        // A high bit-flip rate corrupts records in flight: bases decode to
        // non-ACGT values or lengths go wild, and the affected pairs come
        // back Success = 0 — never a panic, always back to Idle.
        let spec = InputSetSpec {
            length: 100,
            error_pct: 5,
        };
        let (mut dev, mut mem, _, _) = setup(spec, 8, 29, false, AccelConfig::wfasic_chip());
        dev.set_fault_plan(FaultPlan {
            bit_flip_per_beat: 0.4,
            ..FaultPlan::none()
        });
        dev.mmio_write(offsets::START, 1);
        let report = dev.run(&mut mem);
        assert_eq!(report.pairs.len(), 8);
        assert!(report.faults.bit_flips > 0, "faults were injected");
        assert_eq!(dev.mmio_read(offsets::IDLE), 1);
        assert_eq!(report.faults, dev.fault_counters());
    }

    #[test]
    fn retried_job_sees_fresh_fault_pattern() {
        // Faults are transient: two identical submissions draw different
        // fault sequences, so a retry can succeed where the first try lost
        // pairs to corruption.
        let spec = InputSetSpec {
            length: 100,
            error_pct: 5,
        };
        let (mut dev, mut mem, _, _) = setup(spec, 4, 31, false, AccelConfig::wfasic_chip());
        dev.set_fault_plan(FaultPlan {
            bit_flip_per_beat: 0.05,
            ..FaultPlan::none()
        });
        dev.mmio_write(offsets::START, 1);
        let r1 = dev.run(&mut mem);
        dev.mmio_write(offsets::START, 1);
        let r2 = dev.run(&mut mem);
        let flips = |r: &RunReport| r.faults.bit_flips;
        // Not a strict inequality on every seed, but the *pattern* differs:
        // counters or per-pair outcomes cannot both be identical.
        let outcomes = |r: &RunReport| r.pairs.iter().map(|p| p.success).collect::<Vec<_>>();
        assert!(
            flips(&r1) != flips(&r2) || outcomes(&r1) != outcomes(&r2),
            "retry drew the identical fault pattern"
        );
    }

    #[test]
    fn perf_attribution_sums_to_total_and_fills_the_mmio_bank() {
        let spec = InputSetSpec {
            length: 100,
            error_pct: 10,
        };
        let (mut dev, mut mem, _, _) = setup(spec, 6, 41, false, AccelConfig::wfasic_chip());
        dev.mmio_write(offsets::PERF_CTRL, 1);
        dev.mmio_write(offsets::START, 1);
        let report = dev.run(&mut mem);
        let perf = report.perf.as_ref().expect("PERF_CTRL was set");
        // The load-bearing invariant: per-stage cycles sum exactly to the
        // job's total cycles.
        assert_eq!(perf.counters.total(), report.total_cycles);
        assert!(perf.counters.get(Stage::Compute) > 0);
        assert!(perf.counters.get(Stage::DmaIn) > 0);
        // The MMIO counter bank mirrors the breakdown.
        let mut mmio_sum = 0;
        for stage in Stage::ALL {
            let v = dev.mmio_read(offsets::perf_counter(stage));
            assert_eq!(v, perf.counters.get(stage), "{}", stage.name());
            mmio_sum += v;
        }
        assert_eq!(mmio_sum, dev.mmio_read(offsets::JOB_CYCLES));
    }

    #[test]
    fn perf_disabled_changes_no_cycle_results_and_reads_zero() {
        let spec = InputSetSpec {
            length: 1000,
            error_pct: 10,
        };
        let (mut plain, mut m1, _, _) = setup(spec, 4, 43, true, AccelConfig::wfasic_chip());
        let (mut traced, mut m2, _, _) = setup(spec, 4, 43, true, AccelConfig::wfasic_chip());
        traced.mmio_write(offsets::PERF_CTRL, 1);
        traced.mmio_write(offsets::START, 1);
        let r1 = plain.run(&mut m1);
        let r2 = traced.run(&mut m2);
        assert_eq!(r1.total_cycles, r2.total_cycles, "tracing is observational");
        let times = |r: &RunReport| {
            r.pairs
                .iter()
                .map(|p| (p.start, p.done))
                .collect::<Vec<_>>()
        };
        assert_eq!(times(&r1), times(&r2));
        assert!(r1.perf.is_none());
        for stage in Stage::ALL {
            assert_eq!(plain.mmio_read(offsets::perf_counter(stage)), 0);
        }
        // The counter bank is read-only to the CPU.
        plain.mmio_write(offsets::PERF_COMPUTE, 999);
        assert_eq!(plain.mmio_read(offsets::PERF_COMPUTE), 0);
    }

    #[test]
    fn refused_job_attributes_its_cycles_to_the_control_fsm() {
        let mut mem = MainMemory::with_default_cap();
        let mut dev = WfasicDevice::new(AccelConfig::wfasic_chip());
        dev.mmio_write(offsets::PERF_CTRL, 1);
        dev.mmio_write(offsets::MAX_READ_LEN, 7); // not a multiple of 16
        dev.mmio_write(offsets::START, 1);
        let report = dev.run(&mut mem);
        let perf = report.perf.expect("attribution enabled");
        assert_eq!(perf.counters.get(Stage::Ctrl), REFUSE_CYCLES);
        assert_eq!(perf.counters.total(), report.total_cycles);
        assert_eq!(dev.mmio_read(offsets::PERF_CTRL_FSM), REFUSE_CYCLES);
    }

    #[test]
    fn aborted_job_reports_partial_attribution() {
        let spec = InputSetSpec {
            length: 100,
            error_pct: 10,
        };
        let (mut dev, mut mem, _, _) = setup(spec, 6, 19, true, AccelConfig::wfasic_chip());
        dev.mmio_write(offsets::OUT_SIZE, 64); // forces OUT_OVERRUN mid-job
        dev.mmio_write(offsets::PERF_CTRL, 1);
        dev.mmio_write(offsets::START, 1);
        let report = dev.run(&mut mem);
        assert_eq!(report.error.map(|e| e.code), Some(error_code::OUT_OVERRUN));
        let perf = report.perf.expect("partial attribution survives the abort");
        assert_eq!(perf.counters.total(), report.total_cycles);
    }

    #[test]
    fn run_at_shifts_the_timeline_and_job_cycles_stays_a_duration() {
        let spec = InputSetSpec {
            length: 100,
            error_pct: 10,
        };
        let (mut base, mut m1, _, _) = setup(spec, 5, 47, false, AccelConfig::wfasic_chip());
        let (mut offset, mut m2, _, _) = setup(spec, 5, 47, false, AccelConfig::wfasic_chip());
        let r0 = base.run(&mut m1);
        const S: Cycle = 10_000;
        let rs = offset.run_at(&mut m2, S, S);
        assert_eq!(rs.start, S);
        assert_eq!(rs.total_cycles, r0.total_cycles + S, "uniform shift");
        assert_eq!(rs.duration(), r0.duration());
        assert_eq!(rs.input_done, r0.input_done + S);
        for (a, b) in r0.pairs.iter().zip(&rs.pairs) {
            assert_eq!((a.id, a.score, a.success), (b.id, b.score, b.success));
            assert_eq!(a.start + S, b.start);
            assert_eq!(a.done + S, b.done);
            assert_eq!(a.read_cycles, b.read_cycles);
        }
        // JOB_CYCLES reports the duration, not the absolute completion.
        assert_eq!(offset.mmio_read(offsets::JOB_CYCLES), rs.duration());
        assert_eq!(base.mmio_read(offsets::JOB_CYCLES), r0.total_cycles);
    }

    #[test]
    fn run_at_overlaps_dma_with_prior_compute() {
        // The batch-overlap primitive: job k+1's DMA may start at job k's
        // input_done while compute waits for job k's completion.
        let spec = InputSetSpec {
            length: 1000,
            error_pct: 10,
        };
        let (mut dev, mut mem, _, _) = setup(spec, 3, 53, false, AccelConfig::wfasic_chip());
        let r1 = dev.run(&mut mem);
        assert!(r1.input_done < r1.total_cycles, "compute outlasts DMA-in");
        dev.mmio_write(offsets::START, 1);
        let r2 = dev.run_at(&mut mem, r1.input_done, r1.total_cycles);
        // The second job's first read started before the first job's
        // compute finished — and nothing in the second job precedes its
        // own launch window.
        assert!(r2.start == r1.input_done);
        assert!(r2.pairs[0].start >= r1.total_cycles, "compute gated");
        assert!(r2.total_cycles < r1.total_cycles + r2.duration() + 1);
    }

    #[test]
    fn run_at_perf_attribution_covers_exactly_the_job_window() {
        let spec = InputSetSpec {
            length: 100,
            error_pct: 10,
        };
        let (mut dev, mut mem, _, _) = setup(spec, 4, 59, false, AccelConfig::wfasic_chip());
        dev.mmio_write(offsets::PERF_CTRL, 1);
        dev.mmio_write(offsets::START, 1);
        let report = dev.run_at(&mut mem, 5_000, 7_000);
        let perf = report.perf.as_ref().expect("PERF_CTRL set");
        assert_eq!(perf.counters.total(), report.duration());
        assert_eq!(dev.mmio_read(offsets::JOB_CYCLES), report.duration());
        // The MMIO bank still sums to JOB_CYCLES under an offset launch.
        let mmio_sum: Cycle = Stage::ALL
            .iter()
            .map(|&s| dev.mmio_read(offsets::perf_counter(s)))
            .sum();
        assert_eq!(mmio_sum, dev.mmio_read(offsets::JOB_CYCLES));
    }

    #[test]
    fn lanes_sharing_a_fault_plan_draw_independent_streams() {
        // Regression for a latent single-instance assumption: the per-job
        // fault nonce depended only on jobs_run, so two lanes with the same
        // plan replayed identical fault sequences. The nonce now mixes in
        // the lane ID.
        let spec = InputSetSpec {
            length: 100,
            error_pct: 5,
        };
        let plan = FaultPlan {
            bit_flip_per_beat: 0.1,
            ..FaultPlan::none()
        };
        let run_lane = |lane: usize| {
            let (mut dev, mut mem, _, _) = setup(spec, 8, 61, false, AccelConfig::wfasic_chip());
            dev.set_lane(lane);
            dev.set_fault_plan(plan);
            dev.mmio_write(offsets::START, 1);
            let r = dev.run(&mut mem);
            (
                r.faults,
                r.pairs.iter().map(|p| p.success).collect::<Vec<_>>(),
            )
        };
        let (f0, s0) = run_lane(0);
        let (f0b, s0b) = run_lane(0);
        assert_eq!((f0, s0.clone()), (f0b, s0b), "lane 0 is deterministic");
        let (f1, s1) = run_lane(1);
        assert!(
            f0 != f1 || s0 != s1,
            "lane 1 must not replay lane 0's fault stream"
        );
    }

    #[test]
    fn stuck_fifo_and_bus_stalls_slow_the_job_down() {
        let spec = InputSetSpec {
            length: 100,
            error_pct: 5,
        };
        let (mut clean, mut m1, _, _) = setup(spec, 4, 37, false, AccelConfig::wfasic_chip());
        let baseline = clean.run(&mut m1).total_cycles;

        let (mut faulty, mut m2, _, _) = setup(spec, 4, 37, false, AccelConfig::wfasic_chip());
        faulty.set_fault_plan(FaultPlan {
            bus_stall: 1.0,
            fifo_stuck: 1.0,
            ..FaultPlan::none().with_stall_cycles(100)
        });
        faulty.mmio_write(offsets::START, 1);
        let report = faulty.run(&mut m2);
        assert!(report.faults.bus_stalls > 0);
        assert!(report.faults.fifo_stalls > 0);
        assert!(
            report.total_cycles > baseline + 100,
            "stalls must show up in job time: {} vs {}",
            report.total_cycles,
            baseline
        );
        // Scores are unaffected — stalls delay, they don't corrupt.
        assert!(report.pairs.iter().all(|p| p.success));
    }
}
