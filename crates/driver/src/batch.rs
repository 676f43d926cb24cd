//! The batch scheduler: a queue of alignment jobs dispatched across the
//! lanes of a [`MultiLaneSoc`].
//!
//! The paper's co-design drives one WFAsic instance one job at a time; a
//! production SoC serves many alignment requests concurrently. The
//! [`BatchScheduler`] is the driver-side answer: it accepts a queue of
//! [`BatchJob`]s, spreads them over N lanes ([`DispatchPolicy::RoundRobin`]
//! or [`DispatchPolicy::ShortestQueue`]), and on each lane overlaps the
//! DMA-in of job *k+1* with the compute of job *k* (the lane's input port
//! is free once the last record has arrived — [`RunReport::input_done`] —
//! long before the Aligners drain).
//!
//! Cycle accounting stays honest end to end: every lane's transfers are
//! granted slots by the shared memory-controller arbiter (contention is
//! visible in [`BatchResult::arbiter`]), each job's `JOB_CYCLES` is a true
//! duration, and with [`JobPolicy::collect_perf`] set the per-lane
//! counters each attribute *every* cycle of the batch window — so each
//! lane's breakdown sums exactly to [`BatchResult::total_cycles`].
//!
//! Every job runs through the one attempt loop in [`crate::job`], the loop
//! [`crate::WfasicDriver::submit`] also calls, under the scheduler's
//! [`JobPolicy`]: retries (with fresh per-lane fault streams) on the lane's
//! own timeline, a watchdog bound, and optional CPU fallback — so one
//! faulting lane degrades to software answers without stalling the rest of
//! the batch. This module keeps only dispatch, the lanes' timelines and
//! spans, and the per-lane circuit breaker.
//!
//! A 1-lane batch of one job is bit-identical to
//! [`crate::WfasicDriver::submit`]: same loop, same memory layout, same
//! uncontended bus timing. The backend-equivalence suite pins this.

use crate::api::{DriverError, JobResult, MemLayout, WaitMode, WfasicDriver};
use crate::cpu_model::BacktraceCosts;
use crate::job::{self, JobPolicy, Lane, LaneTimeline};
use wfa_core::pool::ThreadPool;
use wfasic_accel::device::RunReport;
use wfasic_accel::multilane::MultiLaneSoc;
use wfasic_accel::schedule::WavefrontSchedule;
use wfasic_accel::AccelConfig;
use wfasic_seqio::generate::Pair;
use wfasic_soc::arbiter::ArbiterStats;
use wfasic_soc::bus::AxiLite;
use wfasic_soc::clock::Cycle;
use wfasic_soc::fault::{FaultCounters, FaultPlan};
use wfasic_soc::mem::MainMemory;
use wfasic_soc::perf::{attribute_window, PerfCounters};

/// How jobs are spread across lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchPolicy {
    /// Job `i` goes to lane `i mod N`.
    RoundRobin,
    /// Each job (in submission order) goes to the lane with the least
    /// estimated queued work (total sequence bytes); ties break to the
    /// lowest lane ID. Deterministic.
    ShortestQueue,
}

/// One alignment job in a batch queue.
#[derive(Debug, Clone)]
pub struct BatchJob {
    /// The pairs to align.
    pub pairs: Vec<Pair>,
    /// Generate backtrace data (CIGARs) for this job?
    pub backtrace: bool,
    /// Optional cycle budget for this job (all attempts + retry backoff).
    /// Overrides the policy's [`JobPolicy::deadline_cycles`];
    /// when the budget runs out the job gets a typed
    /// [`DriverError::DeadlineExceeded`] refusal instead of waiting longer.
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

    /// Dispatch-cost estimate: total sequence bytes.
    fn cost(&self) -> u64 {
        self.pairs
            .iter()
            .map(|p| (p.a.len() + p.b.len()) as u64)
            .sum()
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
    /// Permanently out of rotation ([`BatchScheduler::retire_after`]
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

/// The batch scheduler: a [`MultiLaneSoc`], its memory, and the dispatch /
/// recovery policy.
#[derive(Debug)]
pub struct BatchScheduler {
    /// The multi-lane SoC.
    pub soc: MultiLaneSoc,
    /// Main memory shared by the CPU and every lane.
    pub mem: MainMemory,
    /// AXI-Lite timing for register traffic.
    pub axi_lite: AxiLite,
    /// CPU backtrace cost model.
    pub bt_costs: BacktraceCosts,
    /// Dispatch policy.
    pub dispatch: DispatchPolicy,
    /// Watchdog, retry, deadline, fallback and programming policy for
    /// every job.
    pub policy: JobPolicy,
    /// Quarantine a lane after this many consecutive job failures
    /// (0 = circuit breaker disabled; health counters still accumulate).
    pub quarantine_threshold: u32,
    /// Epoch cycles a quarantined lane sits out before probation.
    pub quarantine_cooldown: Cycle,
    /// Retire a lane permanently after this many quarantines (0 = never).
    pub retire_after: u32,
    schedule: WavefrontSchedule,
    health: Vec<LaneHealth>,
    /// Monotone cross-batch clock: per-batch timelines restart at 0, so
    /// quarantine cooldowns are measured on this accumulated clock instead.
    epoch: Cycle,
    /// Epoch cycles charged by CPU-degraded jobs in the current batch (the
    /// clock must advance even when no lane ran, or a fully-quarantined
    /// scheduler could never reach a cooldown).
    epoch_extra: Cycle,
    degraded_jobs: u64,
    deadline_refusals: u64,
}

impl BatchScheduler {
    /// A scheduler over `lanes` identically-configured lanes.
    pub fn new(cfg: AccelConfig, lanes: usize) -> Self {
        let schedule = WavefrontSchedule::for_config(&cfg);
        BatchScheduler {
            soc: MultiLaneSoc::new(cfg, lanes),
            mem: MainMemory::with_default_cap(),
            axi_lite: AxiLite::default(),
            bt_costs: BacktraceCosts::default(),
            dispatch: DispatchPolicy::RoundRobin,
            policy: JobPolicy::default(),
            quarantine_threshold: 0,
            quarantine_cooldown: 0,
            retire_after: 0,
            schedule,
            health: vec![LaneHealth::default(); lanes],
            epoch: 0,
            epoch_extra: 0,
            degraded_jobs: 0,
            deadline_refusals: 0,
        }
    }

    /// Number of lanes.
    pub fn num_lanes(&self) -> usize {
        self.soc.num_lanes()
    }

    /// Install a fault plan on one lane; the other lanes stay clean.
    pub fn set_lane_fault_plan(&mut self, lane: usize, plan: FaultPlan) {
        self.soc.set_lane_fault_plan(lane, plan);
    }

    /// Per-lane health records (circuit-breaker state, rolling counts).
    pub fn lane_health(&self) -> &[LaneHealth] {
        &self.health
    }

    /// Times any lane opened its circuit.
    pub fn quarantine_events(&self) -> u64 {
        self.health.iter().map(|h| h.quarantines as u64).sum()
    }

    /// Times any lane was re-admitted from quarantine.
    pub fn readmissions(&self) -> u64 {
        self.health.iter().map(|h| h.readmissions as u64).sum()
    }

    /// Whole jobs answered by the CPU because no lane would take them.
    pub fn degraded_jobs(&self) -> u64 {
        self.degraded_jobs
    }

    /// Jobs refused with [`DriverError::DeadlineExceeded`].
    pub fn deadline_refusals(&self) -> u64 {
        self.deadline_refusals
    }

    /// Injected-fault counters merged across every lane's device.
    pub fn fault_counters(&self) -> FaultCounters {
        let mut total = FaultCounters::default();
        for lane in 0..self.num_lanes() {
            total.merge(&self.soc.lane(lane).fault_counters());
        }
        total
    }

    /// Run a queue of **independent single-lane jobs** across host threads.
    ///
    /// Each job runs on a private one-lane [`WfasicDriver`] carrying this
    /// scheduler's [`JobPolicy`] (the job's own deadline overriding the
    /// policy's), so jobs share no simulated state: every job's device
    /// starts at cycle 0 with a private port. Host
    /// threads only change wall-clock — results come back in submission
    /// order and each [`JobResult`] (cycles, perf counters, everything) is
    /// bit-identical to a sequential `WfasicDriver::submit` of the same
    /// pairs, at any `threads` value.
    ///
    /// Each worker thread keeps one warm driver and reuses it across its
    /// queue (fresh drivers pay milliseconds of host-side allocation —
    /// arena, scratch, memory image — per job). Reuse is safe because
    /// [`WfasicDriver::submit`] restages memory, reprograms every register
    /// and restarts the simulated timeline at cycle 0 on every call, and
    /// these drivers never carry fault plans; the parallel differential
    /// suite pins reuse against fresh-driver submits bit for bit.
    ///
    /// This is the throughput path for embarrassingly-parallel work. It is
    /// deliberately distinct from [`BatchScheduler::submit_batch`]: the
    /// shared-bus multi-lane timeline is inherently serial (the arbiter
    /// allocates one port's cycles across lanes), so that path stays
    /// sequential. Per-lane fault plans belong to the shared SoC and do not
    /// apply here — the private drivers are fault-free.
    pub fn run_parallel(
        &self,
        jobs: &[BatchJob],
        threads: usize,
    ) -> Vec<Result<JobResult, DriverError>> {
        thread_local! {
            static WORKER_DRIVER: std::cell::RefCell<Option<WfasicDriver>> =
                const { std::cell::RefCell::new(None) };
        }
        // Copy the policy out of `self`: the worker closure must not
        // capture the scheduler itself (the shared SoC is single-threaded
        // state and is not touched by this path).
        let cfg = self.soc.lane(0).cfg;
        let (axi_lite, bt_costs, policy) = (self.axi_lite, self.bt_costs, self.policy);
        ThreadPool::new(threads).map(jobs, move |_, job| {
            WORKER_DRIVER.with(|slot| {
                let mut slot = slot.borrow_mut();
                // The cached driver survives across `run_parallel` calls on
                // a long-lived thread (e.g. `threads == 1` runs on the
                // caller); rebuild it whenever the device shape changed.
                let drv = match slot.as_mut() {
                    Some(d) if d.device.cfg == cfg => d,
                    _ => slot.insert(WfasicDriver::new(cfg)),
                };
                drv.axi_lite = axi_lite;
                drv.bt_costs = bt_costs;
                drv.policy = policy.with_deadline(job.deadline);
                drv.layout = MemLayout::default();
                drv.submit(&job.pairs, job.backtrace, WaitMode::PollIdle)
            })
        })
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
    /// breaker disabled (`quarantine_threshold == 0`, the default) dispatch
    /// and cycle results are bit-identical to the pre-quarantine scheduler.
    pub fn submit_batch(&mut self, jobs: &[BatchJob]) -> BatchResult {
        let n = self.num_lanes();
        // Every batch's lane timelines start at cycle 0, so the shared port
        // must too: `BatchResult::arbiter` then describes this batch alone.
        self.soc.reset_arbiter();
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
            match self.dispatch {
                DispatchPolicy::RoundRobin => {
                    for i in 0..jobs.len() {
                        let lane = avail[i % avail.len()];
                        queues[lane].push(i);
                        lanes[i] = lane;
                    }
                }
                DispatchPolicy::ShortestQueue => {
                    let mut load = vec![0u64; n];
                    for (i, job) in jobs.iter().enumerate() {
                        let lane = *avail
                            .iter()
                            .min_by_key(|&&l| (load[l], l))
                            .expect("avail is non-empty");
                        queues[lane].push(i);
                        lanes[i] = lane;
                        load[lane] += job.cost().max(1);
                    }
                }
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
        // scheduler would freeze time and never reach a cooldown).
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
            arbiter: self.soc.arbiter_stats(),
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
        if self.quarantine_threshold == 0 {
            return;
        }
        let trips = match h.state {
            // One strike on probation.
            LaneState::Probation => true,
            LaneState::Healthy => h.consecutive_failures >= self.quarantine_threshold,
            LaneState::Quarantined { .. } | LaneState::Retired => false,
        };
        if trips {
            h.quarantines += 1;
            if self.retire_after > 0 && h.quarantines >= self.retire_after {
                h.state = LaneState::Retired;
            } else {
                h.quarantined_at = now;
                h.state = LaneState::Quarantined {
                    until: now + self.quarantine_cooldown,
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
        let cfg = self.soc.lane(0).cfg;
        Ok(JobResult {
            results: job::recover_all(cfg.penalties, &job.pairs, job.backtrace),
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
            device: self.soc.lane_mut(lane),
            mem: &mut self.mem,
            layout: MemLayout::for_lane(lane),
            axi_lite: self.axi_lite,
            bt_costs: &self.bt_costs,
            schedule: &self.schedule,
            timeline,
        };
        let policy = self.policy.with_deadline(job.deadline);
        let out = job::run_job(run, &policy, &job.pairs, job.backtrace, WaitMode::PollIdle);
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
