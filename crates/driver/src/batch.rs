//! The multi-lane engine: [`MultiLaneBackend`], N WFAsic lanes behind one
//! shared memory controller, and the queue of [`BatchJob`]s it dispatches
//! over them.
//!
//! The paper tapes out a single WFAsic instance; the scaling story beyond
//! one chip is more instances on the same SoC, not more Aligners per
//! instance (Eq. 7 bounds the latter). Each lane is a full
//! [`WfasicDevice`] with its own register file, DMA engine, input FIFO and
//! (optional) fault plan, programmed through the same nine registers a
//! lone device has. Every lane's AXI-Full traffic is granted slots by one
//! shared [`BusArbiter`], so concurrent lanes contend for memory bandwidth
//! and the contention shows up as per-lane arbitration waits.
//!
//! [`MultiLaneBackend::submit_batch`] accepts a queue of jobs, deals them
//! round-robin over the available lanes, and on each lane overlaps the
//! DMA-in of job *k+1* with the compute of job *k* (the lane's input port
//! is free once the last record has arrived — [`RunReport::input_done`] —
//! long before the Aligners drain). Its [`AlignmentBackend`] impl chunks
//! one backend batch into such a queue.
//!
//! Cycle accounting stays honest end to end: every lane's transfers are
//! granted slots by the shared memory-controller arbiter (contention is
//! visible in [`BatchResult::arbiter`]), each job's `JOB_CYCLES` is a true
//! duration, and with [`AlignPolicy::collect_perf`] set the per-lane
//! counters each attribute *every* cycle of the batch window — so each
//! lane's breakdown sums exactly to [`BatchResult::total_cycles`].
//!
//! Every job runs through the one attempt loop in [`crate::job`], the loop
//! [`crate::WfasicDriver::submit`] also calls, under the engine's
//! [`AlignPolicy`]: retries (with fresh per-lane fault streams) on the
//! lane's own timeline, a watchdog bound, and optional CPU fallback — so
//! one faulting lane degrades to software answers without stalling the rest
//! of the batch. This module keeps only dispatch, the lanes' timelines and
//! spans, and the per-lane circuit breaker, which reads its threshold,
//! cooldown and retirement count from that same policy.
//!
//! A 1-lane batch of one job with no deadline is bit-identical to
//! [`crate::WfasicDriver::submit`]: same loop, same memory layout, same
//! uncontended bus timing (lane 0 keeps the lone device's perf track IDs
//! and fault stream keys). The backend-equivalence suite pins this.

use crate::api::{DriverError, JobResult, MemLayout};
use crate::backend::{
    AlignPolicy, AlignmentBackend, BackendBatch, BackendCounters, Capabilities, CpuRoute,
    CpuWfaBackend,
};
use crate::job::{self, Lane, LaneTimeline};
use std::cell::RefCell;
use std::rc::Rc;
use wfasic_accel::device::{RunReport, WfasicDevice};
use wfasic_accel::schedule::WavefrontSchedule;
use wfasic_accel::AccelConfig;
use wfasic_seqio::generate::Pair;
use wfasic_soc::arbiter::{ArbiterStats, BusArbiter};
use wfasic_soc::clock::Cycle;
use wfasic_soc::fault::FaultPlan;
use wfasic_soc::mem::MainMemory;
use wfasic_soc::perf::{attribute_window, JobPerf, PerfCounters};

/// One alignment job in a batch queue.
#[derive(Debug, Clone)]
pub struct BatchJob {
    /// The pairs to align.
    pub pairs: Vec<Pair>,
    /// Generate backtrace data (CIGARs) for this job?
    pub backtrace: bool,
    /// Optional cycle budget for this job (all attempts + retry backoff),
    /// the stack's only deadline; `None` = no deadline (the policy's
    /// watchdog is then the only bound). When the budget runs out the job
    /// gets a typed [`DriverError::DeadlineExceeded`] refusal instead of
    /// waiting or retrying further — CPU fallback does **not** rescue a
    /// blown deadline; the refusal is the contract.
    pub deadline: Option<Cycle>,
}

impl BatchJob {
    /// A score-only job.
    pub fn score_only(pairs: Vec<Pair>) -> Self {
        BatchJob {
            pairs,
            backtrace: false,
            deadline: None,
        }
    }

    /// A job with backtrace (CIGAR) generation.
    pub fn with_backtrace(pairs: Vec<Pair>) -> Self {
        BatchJob {
            pairs,
            backtrace: true,
            deadline: None,
        }
    }

    /// Attach a per-job deadline (cycle budget).
    pub fn with_deadline(mut self, budget: Cycle) -> Self {
        self.deadline = Some(budget);
        self
    }
}

/// Circuit-breaker state of one lane.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum LaneState {
    /// In rotation, no open circuit.
    #[default]
    Healthy,
    /// Open circuit: the lane takes no jobs until the epoch clock reaches
    /// `until`, at which point it is re-admitted on probation.
    Quarantined {
        /// Epoch cycle at which the cooldown elapses.
        until: Cycle,
    },
    /// Re-admitted after a cooldown: back in rotation, but one more failure
    /// re-opens the circuit immediately (no K-strike grace) and one
    /// hardware success restores [`LaneState::Healthy`].
    Probation,
    /// Permanently out of rotation ([`AlignPolicy::retire_after`]
    /// quarantines exhausted). Never re-admitted.
    Retired,
}

/// Rolling health record for one lane, fed by every job outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneHealth {
    /// Circuit-breaker state.
    pub state: LaneState,
    /// Consecutive jobs on this lane that failed to produce a hardware
    /// answer (reset by any hardware success).
    pub consecutive_failures: u32,
    /// Total jobs on this lane that exhausted their retries (whether or not
    /// the CPU then recovered them).
    pub failed_jobs: u64,
    /// Total failed *attempts*, including ones a later retry recovered.
    pub failed_attempts: u64,
    /// Times this lane has been quarantined.
    pub quarantines: u32,
    /// Times this lane has been re-admitted from quarantine.
    pub readmissions: u32,
    /// Epoch cycle of the most recent quarantine (valid when
    /// `quarantines > 0`).
    pub quarantined_at: Cycle,
    /// Epoch cycles from the most recent quarantine to its re-admission —
    /// the lane's last recovery time (valid when `readmissions > 0`).
    pub last_recovery_cycles: Cycle,
}

impl LaneHealth {
    /// Is the lane accepting jobs right now?
    pub fn available(&self) -> bool {
        matches!(self.state, LaneState::Healthy | LaneState::Probation)
    }
}

/// The outcome of a batch submission.
#[derive(Debug)]
pub struct BatchResult {
    /// Per-job outcomes, in submission order. A job fails individually
    /// (its lane's retries exhausted, CPU fallback off) without failing
    /// the batch.
    pub jobs: Vec<Result<JobResult, DriverError>>,
    /// Cycle at which the whole batch completed (the slowest lane).
    pub total_cycles: Cycle,
    /// Which lane each job ran on, in submission order.
    pub lanes: Vec<usize>,
    /// Per-lane completion cycle.
    pub lane_done: Vec<Cycle>,
    /// Shared-port arbitration statistics (per-lane grants/waits) of this
    /// batch alone.
    pub arbiter: ArbiterStats,
    /// Per-lane per-stage attribution of the *entire* batch window
    /// `[0, total_cycles)`, when perf collection was on: each lane's
    /// counters sum exactly to `total_cycles` (idle cycles included).
    pub lane_perf: Option<Vec<PerfCounters>>,
}

impl BatchResult {
    /// Alignments completed successfully across all jobs.
    pub fn alignments(&self) -> usize {
        self.jobs
            .iter()
            .filter_map(|j| j.as_ref().ok())
            .map(|j| j.results.iter().filter(|r| r.success).count())
            .sum()
    }

    /// Aggregate throughput in alignments per cycle.
    pub fn throughput(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.alignments() as f64 / self.total_cycles as f64
        }
    }
}

/// Pairs per sub-job when a backend batch is spread across the lanes of a
/// [`MultiLaneBackend`] (the oracle matrix's differential job size).
pub const DEFAULT_LANE_CHUNK: usize = 28;

/// An N-lane WFAsic SoC, its memory and the dispatch / recovery policy: one
/// backend batch is chunked into per-lane jobs, dispatched with DMA/compute
/// overlap over the shared-port arbiter, and reassembled in submission
/// order.
#[derive(Debug)]
pub struct MultiLaneBackend {
    /// Every job's watchdog, retry, deadline, fallback and programming
    /// rules, the CPU route, and the lanes' circuit breaker (a
    /// `quarantine_threshold` of 0 disables it; health counters still
    /// accumulate). Cooldowns run on the epoch clock.
    pub policy: AlignPolicy,
    /// Pairs per sub-job ([`DEFAULT_LANE_CHUNK`] by default). A batch that
    /// fits one chunk runs as one job, passed through uncopied; an empty
    /// batch runs no job, except on `device` (`usize::MAX`), which runs
    /// every batch whole as the lone driver does.
    pub chunk: usize,
    lanes: Vec<WfasicDevice>,
    arbiter: Rc<RefCell<BusArbiter>>,
    /// Main memory shared by the CPU and every lane.
    mem: MainMemory,
    /// The CPU engine every lane's fallback and every degraded job runs
    /// on; it takes [`Self::policy`]'s route at every batch.
    cpu: CpuWfaBackend,
    schedule: WavefrontSchedule,
    health: Vec<LaneHealth>,
    /// Monotone cross-batch clock: per-batch timelines restart at 0, so
    /// quarantine cooldowns are measured on this accumulated clock instead.
    epoch: Cycle,
    /// Epoch cycles charged by CPU-degraded jobs in the current batch (the
    /// clock must advance even when no lane ran, or a fully-quarantined
    /// engine could never reach a cooldown).
    epoch_extra: Cycle,
    degraded_jobs: u64,
    deadline_refusals: u64,
    name: &'static str,
    counters: BackendCounters,
}

impl MultiLaneBackend {
    /// A backend over `lanes` identically-configured lanes (at least 1).
    pub fn new(cfg: AccelConfig, lanes: usize) -> Self {
        assert!(lanes >= 1, "an SoC needs at least one lane");
        let arbiter = Rc::new(RefCell::new(BusArbiter::new(lanes)));
        MultiLaneBackend {
            policy: AlignPolicy::default(),
            chunk: DEFAULT_LANE_CHUNK,
            lanes: (0..lanes)
                .map(|lane| {
                    let mut dev = WfasicDevice::new(cfg).with_lane(lane);
                    dev.attach_shared_bus(arbiter.clone());
                    dev
                })
                .collect(),
            arbiter,
            mem: MainMemory::with_default_cap(),
            cpu: CpuWfaBackend::new(cfg.penalties),
            schedule: WavefrontSchedule::for_config(&cfg),
            health: vec![LaneHealth::default(); lanes],
            epoch: 0,
            epoch_extra: 0,
            degraded_jobs: 0,
            deadline_refusals: 0,
            name: "multilane",
            counters: BackendCounters::default(),
        }
    }

    /// The paper's taped-out configuration, named `device`: one lane that
    /// runs every backend batch whole, as one job, so a batch of any size
    /// takes the cycles of one driver submit.
    pub fn device(cfg: AccelConfig) -> Self {
        MultiLaneBackend {
            chunk: usize::MAX,
            name: "device",
            ..Self::new(cfg, 1)
        }
    }

    /// Mutably borrow a lane's device (its register file and fault plan).
    pub fn lane_mut(&mut self, lane: usize) -> &mut WfasicDevice {
        &mut self.lanes[lane]
    }

    /// Submit a queue of jobs and run the whole batch to completion.
    /// Results come back in submission order regardless of which lane ran
    /// each job or how the lanes' timelines interleaved.
    ///
    /// Containment: jobs are dispatched only to available lanes (healthy or
    /// on probation). A lane that opens its circuit mid-batch hands its
    /// remaining queue to the not-yet-run lanes after it; when no lane
    /// remains the leftovers are answered by the CPU fallback (marked
    /// `recovered`) or refused with [`DriverError::Quarantined`]. With the
    /// breaker disabled (`quarantine_threshold == 0`, the default) every
    /// lane takes its round-robin share.
    pub fn submit_batch(&mut self, jobs: &[BatchJob]) -> BatchResult {
        let n = self.lanes.len();
        // Every batch's lane timelines start at cycle 0, so the shared port
        // must too: `BatchResult::arbiter` then describes this batch alone.
        self.arbiter.borrow_mut().reset();
        self.cpu.route = CpuRoute::from_policy(&self.policy);
        self.readmit_due_lanes();
        let avail: Vec<usize> = (0..n).filter(|&l| self.health[l].available()).collect();
        let mut results: Vec<Option<Result<JobResult, DriverError>>> =
            jobs.iter().map(|_| None).collect();
        let mut lanes = vec![0usize; jobs.len()];
        let mut timelines: Vec<LaneTimeline> = (0..n).map(|_| LaneTimeline::default()).collect();

        // Phase 1: dispatch jobs to the available lanes' queues. With every
        // lane open-circuit, fall through with empty queues — each job then
        // degrades to the CPU (or a typed refusal) below.
        let mut queues: Vec<Vec<usize>> = vec![Vec::new(); n];
        if avail.is_empty() {
            for (i, _) in jobs.iter().enumerate() {
                lanes[i] = i % n;
            }
        } else {
            for i in 0..jobs.len() {
                let lane = avail[i % avail.len()];
                queues[lane].push(i);
                lanes[i] = lane;
            }
        }

        // Phase 2: run each lane's queue in order, overlapping each job's
        // DMA-in with its predecessor's compute. Lanes are simulated one
        // after another; the shared arbiter's gap allocation keeps the
        // port timeline identical to a truly concurrent execution.
        for (ai, &lane) in avail.iter().enumerate() {
            let mut qi = 0;
            while qi < queues[lane].len() {
                let ji = queues[lane][qi];
                qi += 1;
                results[ji] = Some(self.run_job(lane, &jobs[ji], &mut timelines[lane]));
                if !self.health[lane].available() {
                    // The circuit opened: shift this lane's remaining queue
                    // to the lanes that have not run yet, round-robin.
                    let rest: Vec<usize> = queues[lane].drain(qi..).collect();
                    let later = &avail[ai + 1..];
                    for (k, ji2) in rest.into_iter().enumerate() {
                        if later.is_empty() {
                            results[ji2] = Some(self.degrade_job(&jobs[ji2], lane));
                        } else {
                            let tgt = later[k % later.len()];
                            queues[tgt].push(ji2);
                            lanes[ji2] = tgt;
                        }
                    }
                }
            }
        }
        let lane_done: Vec<Cycle> = timelines.iter().map(LaneTimeline::done).collect();
        let total = lane_done.iter().copied().max().unwrap_or(0);

        // Jobs never queued (every lane was open-circuit at dispatch).
        for (ji, slot) in results.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(self.degrade_job(&jobs[ji], lanes[ji]));
            }
        }

        // Advance the epoch clock past this batch, including the modeled
        // cost of any CPU-degraded work (otherwise a fully-quarantined
        // engine would freeze time and never reach a cooldown).
        self.epoch += total + self.epoch_extra;
        self.epoch_extra = 0;

        let lane_perf = self.policy.collect_perf.then(|| {
            timelines
                .iter()
                .map(|t| attribute_window(&t.spans, 0, total))
                .collect()
        });

        BatchResult {
            jobs: results
                .into_iter()
                .map(|r| r.expect("every job ran"))
                .collect(),
            total_cycles: total,
            lanes,
            lane_done,
            arbiter: self.arbiter.borrow().stats.clone(),
            lane_perf,
        }
    }

    /// Re-admit quarantined lanes whose cooldown has elapsed on the epoch
    /// clock: open circuit → probation. Called at every batch boundary.
    fn readmit_due_lanes(&mut self) {
        for h in &mut self.health {
            if let LaneState::Quarantined { until } = h.state {
                if self.epoch >= until {
                    h.state = LaneState::Probation;
                    h.consecutive_failures = 0;
                    h.readmissions += 1;
                    h.last_recovery_cycles = self.epoch.saturating_sub(h.quarantined_at);
                }
            }
        }
    }

    /// Record a job-level lane failure (retries exhausted) at epoch cycle
    /// `now` and open the circuit when the breaker trips. Deadline and
    /// oversize refusals are policy refusals, not lane faults — they never
    /// reach here.
    fn note_lane_failure(&mut self, lane: usize, now: Cycle) {
        let h = &mut self.health[lane];
        h.consecutive_failures += 1;
        h.failed_jobs += 1;
        let policy = &self.policy;
        if policy.quarantine_threshold == 0 {
            return;
        }
        let trips = match h.state {
            // One strike on probation.
            LaneState::Probation => true,
            LaneState::Healthy => h.consecutive_failures >= policy.quarantine_threshold,
            LaneState::Quarantined { .. } | LaneState::Retired => false,
        };
        if trips {
            h.quarantines += 1;
            if policy.retire_after > 0 && h.quarantines >= policy.retire_after {
                h.state = LaneState::Retired;
            } else {
                h.quarantined_at = now;
                h.state = LaneState::Quarantined {
                    until: now + policy.quarantine_cooldown,
                };
            }
        }
    }

    /// Answer a job that no lane would take: whole-job CPU recovery when
    /// the fallback is enabled (every result marked `recovered`), a typed
    /// [`DriverError::Quarantined`] refusal otherwise. Charges a modeled
    /// software cost to the epoch clock so degraded time still passes.
    fn degrade_job(&mut self, job: &BatchJob, lane: usize) -> Result<JobResult, DriverError> {
        if !self.policy.cpu_fallback {
            return Err(DriverError::Quarantined { lane });
        }
        self.degraded_jobs += 1;
        let costs = crate::cpu_model::CpuCosts::sargantana_scalar();
        self.epoch_extra += job
            .pairs
            .iter()
            .map(|p| {
                costs.per_alignment + ((p.a.len() + p.b.len()) as f64 * costs.per_base) as Cycle
            })
            .sum::<Cycle>();
        let cfg = self.lanes[0].cfg;
        Ok(JobResult {
            results: job
                .pairs
                .iter()
                .map(|p| self.cpu.align(p, job.backtrace, true))
                .collect(),
            report: RunReport::default(),
            config_cycles: 0,
            cpu_backtrace_cycles: 0,
            separated: self.policy.force_separation || cfg.num_aligners > 1,
            retries: 0,
        })
    }

    /// Run one job on `lane` through the attempt loop, on the lane's
    /// timeline, and feed its outcome to the lane's health record.
    fn run_job(
        &mut self,
        lane: usize,
        job: &BatchJob,
        timeline: &mut LaneTimeline,
    ) -> Result<JobResult, DriverError> {
        let run = Lane {
            device: &mut self.lanes[lane],
            cpu: &mut self.cpu,
            mem: &mut self.mem,
            layout: MemLayout::for_lane(lane),
            schedule: &self.schedule,
            timeline,
        };
        let out = job::run_job(run, &self.policy, job.deadline, &job.pairs, job.backtrace);
        self.health[lane].failed_attempts += out.failed_attempts;
        if out.exhausted {
            // The lane burned every retry, which is what the circuit
            // breaker counts, whether or not the CPU then answered.
            self.note_lane_failure(lane, self.epoch + timeline.compute_free);
        } else if out.result.is_ok() {
            // A hardware answer closes the breaker window: the
            // consecutive-failure count resets, and a probation lane has
            // earned back full health.
            let h = &mut self.health[lane];
            h.consecutive_failures = 0;
            if h.state == LaneState::Probation {
                h.state = LaneState::Healthy;
            }
        } else if matches!(out.result, Err(DriverError::DeadlineExceeded { .. })) {
            self.deadline_refusals += 1;
        }
        out.result
    }
}

impl AlignmentBackend for MultiLaneBackend {
    fn capabilities(&self) -> Capabilities {
        let cfg = self.lanes[0].cfg;
        Capabilities {
            name: self.name,
            max_len: cfg.max_supported_len,
            score_max: Some(cfg.score_max()),
            lanes: self.lanes.len(),
        }
    }

    fn align_batch(&mut self, job: &BatchJob) -> Result<BackendBatch, DriverError> {
        let chunk = self.chunk.max(1);
        let chunked: Vec<BatchJob>;
        let whole = self.chunk == usize::MAX || (1..=chunk).contains(&job.pairs.len());
        let jobs = if whole {
            std::slice::from_ref(job)
        } else {
            chunked = job
                .pairs
                .chunks(chunk)
                .map(|pairs| BatchJob {
                    pairs: pairs.to_vec(),
                    backtrace: job.backtrace,
                    deadline: job.deadline,
                })
                .collect();
            &chunked
        };
        let batch = self.submit_batch(jobs);
        let mut results = Vec::with_capacity(job.pairs.len());
        let mut perf: Option<JobPerf> = None;
        let mut reports = Vec::with_capacity(batch.jobs.len());
        for outcome in batch.jobs {
            match outcome {
                Ok(j) => {
                    if perf.is_none() {
                        perf = j.report.perf.clone();
                    }
                    results.extend(j.results);
                    reports.push(j.report);
                }
                Err(e) => {
                    // One lost sub-job fails the whole backend batch; with
                    // the service's `cpu_fallback` policy (or the hetero
                    // backend above this one) this path is unreachable.
                    self.counters.errors += 1;
                    return Err(e);
                }
            }
        }
        let batch = BackendBatch {
            results,
            sim_cycles: Some(batch.total_cycles),
            perf,
            reports,
        };
        self.counters.absorb(&batch);
        Ok(batch)
    }

    fn lane_health(&self) -> Vec<LaneHealth> {
        self.health.clone()
    }

    fn set_lane_fault_plan(&mut self, lane: usize, plan: FaultPlan) {
        self.lanes[lane].set_fault_plan(plan);
    }

    fn counters(&self) -> BackendCounters {
        // Merge the lanes' health ledger in: fault counters from every
        // lane's device, breaker transitions, degradations, refusals, and
        // the CPU engine's strategy tallies. None of it is reset with the
        // counters.
        let mut c = self.counters;
        for dev in &self.lanes {
            c.faults.merge(&dev.fault_counters());
        }
        c.quarantine_events = self.health.iter().map(|h| h.quarantines as u64).sum();
        c.readmissions = self.health.iter().map(|h| h.readmissions as u64).sum();
        c.degraded_jobs = self.degraded_jobs;
        c.deadline_refusals = self.deadline_refusals;
        c.merge_cpu_tallies(&self.cpu.counters());
        c
    }

    fn reset_counters(&mut self) {
        self.counters = BackendCounters::default();
        self.cpu.reset_counters();
    }

    fn apply_policy(&mut self, policy: &AlignPolicy) {
        self.policy = *policy;
    }
}
