//! Chaos soak harness (`report -- chaos`): thousands of jobs through the
//! streaming [`AlignmentService`] while the harness storms the device lanes,
//! plants envelope violators, attaches cycle deadlines, and churns the
//! bounded queue — then proves the paper's §5.1 robustness claim at service
//! scale: **no pair is ever dropped, duplicated, reordered, or silently
//! lost**, and **no lane stays stuck**: every storm-quarantined lane is
//! re-admitted by the circuit breaker's cooldown or cleanly retired.
//!
//! Choreography (all simulated time — the summary is bit-deterministic for
//! a given seed, so CI can diff it):
//!
//! * **Fault storms** — the harness flips per-lane [`FaultPlan`]s on and off
//!   mid-soak through [`AlignmentBackend::set_lane_fault_plan`]: two lanes
//!   take turns under heavy storm plans (one additionally gusting on a
//!   device-time [`Storm`] schedule), one lane runs constant low-rate
//!   background noise, one lane stays clean.
//! * **Deadlines** — a slice of jobs carries a cycle budget far below any
//!   feasible run; the multi-lane engine must refuse them with the *typed*
//!   [`DriverError::DeadlineExceeded`], never a hang or a fabricated
//!   answer. Another slice carries generous budgets that must pass.
//! * **Envelope violators** — on the heterogeneous phase some jobs smuggle
//!   pairs longer than the device envelope; they must come back CPU-routed
//!   (`recovered`), in position.
//! * **Backpressure churn** — the queue is 4 deep and the submitter drains
//!   lazily, so admission control trips throughout the soak.
//! * **Retirement** — a side scenario runs a lane under a permanent storm
//!   with `retire_after` set and asserts the breaker gives up on it for
//!   good while the batch still completes in order.
//!
//! Every refusal anywhere in the stack is keyed by its
//! [`Provenance`](wfasic_driver::faults::Provenance) fault class
//! ([`FaultClass::name`]), and the whole summary is written to
//! `BENCH_chaos.json` so CI can archive recovery time, fallback rate,
//! quarantine/readmission counts and refusal counts per class.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use wfa_core::rng::SmallRng;
use wfasic_accel::AccelConfig;
use wfasic_driver::backend::{AlignPolicy, AlignmentBackend, BackendCounters};
use wfasic_driver::batch::{BatchJob, LaneState};
use wfasic_driver::faults::FaultClass;
use wfasic_driver::{DriverError, HeterogeneousBackend, MultiLaneBackend};
use wfasic_seqio::generate::Pair;
use wfasic_seqio::InputSetSpec;
use wfasic_service::{AlignmentService, CompletedJob, ServiceConfig, ServiceError, Ticket};
use wfasic_soc::clock::Cycle;
use wfasic_soc::fault::{FaultPlan, Storm};

/// Options for the chaos soak.
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Shrink the soak for CI smoke runs.
    pub quick: bool,
    /// RNG seed for workloads, storm plans and churn decisions.
    pub seed: u64,
    /// Where to write the JSON record (`None` = `BENCH_chaos.json`).
    pub out: Option<PathBuf>,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            quick: false,
            seed: 0x0C4A_05C4,
            out: None,
        }
    }
}

/// The soak's result: the printable report, the JSON record, and every
/// invariant violation found (empty = the soak passed).
#[derive(Debug)]
pub struct ChaosOutcome {
    /// The printable report (deterministic for a given seed).
    pub text: String,
    /// The `BENCH_chaos.json` payload (deterministic for a given seed).
    pub json: String,
    /// Invariant violations — drops, duplicates, reorders, stuck lanes,
    /// untyped refusals. CI fails on any.
    pub violations: Vec<String>,
}

/// Refusal counters keyed by [`FaultClass`] (presentation order).
#[derive(Debug, Clone, Copy, Default)]
struct Refusals([u64; FaultClass::ALL.len()]);

impl Refusals {
    fn bump(&mut self, class: FaultClass) {
        let i = FaultClass::ALL
            .iter()
            .position(|&c| c == class)
            .expect("every class is in ALL");
        self.0[i] += 1;
    }

    fn get(&self, class: FaultClass) -> u64 {
        let i = FaultClass::ALL.iter().position(|&c| c == class).unwrap();
        self.0[i]
    }

    fn render_json(&self) -> String {
        let fields: Vec<String> = FaultClass::ALL
            .iter()
            .zip(self.0.iter())
            .map(|(c, n)| format!("\"{}\": {n}", c.name()))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// What a job in the stream is trying to provoke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobKind {
    /// In-envelope pairs, no budget.
    Normal,
    /// A cycle budget far below any feasible run: must be refused (typed)
    /// or degraded — never answered late as if on time.
    TightDeadline,
    /// A generous budget: must pass.
    GenerousDeadline,
    /// Carries pairs longer than the device envelope (hetero phase only).
    Violator,
}

/// Everything remembered about an in-flight job for verification.
struct InFlight {
    ticket: Ticket,
    ids: Vec<u32>,
    kind: JobKind,
    oversized: Vec<u32>,
}

/// One soaked backend's ledger.
struct PhaseOutcome {
    name: &'static str,
    jobs: u64,
    pairs: u64,
    ok_jobs: u64,
    refused_jobs: u64,
    tight_jobs: u64,
    violator_pairs: u64,
    refusals: Refusals,
    counters: BackendCounters,
    calm_rounds: u64,
    max_recovery_cycles: Cycle,
    readmitted_lanes: usize,
    retired_lanes: usize,
    lane_rows: Vec<Vec<String>>,
}

impl PhaseOutcome {
    fn fallback_rate(&self) -> f64 {
        if self.counters.pairs == 0 {
            0.0
        } else {
            self.counters.recovered_pairs as f64 / self.counters.pairs as f64
        }
    }
}

/// Harness-time storm schedule for one lane, measured in job indices: the
/// lane is under its heavy plan while `(j - offset) % period < on` (and
/// `j >= offset`) — the soak-scale analogue of [`Storm`], which gates in
/// device time *within* a batch.
#[derive(Debug, Clone, Copy)]
struct JobStorm {
    lane: usize,
    period: u64,
    on: u64,
    offset: u64,
    plan: FaultPlan,
}

impl JobStorm {
    fn raging_at(&self, job: u64) -> bool {
        job >= self.offset && (job - self.offset) % self.period < self.on
    }
}

const LANES: usize = 4;
const QUEUE_DEPTH: usize = 4;
/// Pairs per scheduler sub-job: small, so one service job fans out across
/// several lanes and quarantine redistribution actually happens mid-batch.
const LANE_CHUNK: usize = 4;
/// A budget almost no chunk fits under (a 4-pair chunk runs a few
/// thousand cycles).
const TIGHT_BUDGET_MAX: Cycle = 1_000;
const GENEROUS_BUDGET: Cycle = 1 << 40;

fn soak_policy() -> AlignPolicy {
    AlignPolicy {
        // `resilient()` cools down on a production timescale; the soak
        // compresses it to roughly a dozen jobs so re-admissions happen
        // many times per run.
        quarantine_cooldown: 50_000,
        ..AlignPolicy::resilient()
    }
}

fn chaos_config() -> AccelConfig {
    let mut cfg = AccelConfig::wfasic_chip();
    // A small envelope so the hetero phase's violators are genuinely out
    // of it without needing pathological read lengths.
    cfg.max_supported_len = 96;
    cfg.k_max = 300;
    cfg
}

fn storm_schedule(seed: u64, quick: bool) -> Vec<JobStorm> {
    let (period, on) = if quick { (40, 16) } else { (60, 22) };
    vec![
        // Lane 0: hard storm — every fault kind at 50% per opportunity.
        JobStorm {
            lane: 0,
            period,
            on,
            offset: period / 6,
            plan: FaultPlan::uniform(seed ^ 0x11, 0.5),
        },
        // Lane 1: the same severity, phase-shifted, additionally gusting on
        // a device-time storm within each batch.
        JobStorm {
            lane: 1,
            period,
            on,
            offset: period / 2,
            plan: FaultPlan::uniform(seed ^ 0x22, 0.5).with_storm(Storm::periodic(40_000, 30_000)),
        },
    ]
}

fn gen_pairs(rng: &mut SmallRng, n: usize, len_lo: usize, len_hi: usize, base: u32) -> Vec<Pair> {
    (0..n)
        .map(|k| {
            let mut p = InputSetSpec {
                length: rng.gen_range(len_lo, len_hi),
                error_pct: 5,
            }
            .generate(1, rng.next_u64())
            .pairs
            .remove(0);
            p.id = base + k as u32;
            p
        })
        .collect()
}

/// Soak one backend. `hetero` enables envelope violators (the multi-lane
/// engine has no CPU pre-route, so its stream stays in-envelope).
fn soak(
    name: &'static str,
    mut backend: Box<dyn AlignmentBackend>,
    hetero: bool,
    opts: &ChaosOptions,
    violations: &mut Vec<String>,
) -> PhaseOutcome {
    let n_jobs: u64 = if opts.quick { 160 } else { 1_200 };
    let mut rng = SmallRng::seed_from_u64(opts.seed ^ (name.len() as u64) << 8);

    // Constant background noise on lane 2; lane 3 stays clean.
    backend.set_lane_fault_plan(2, FaultPlan::uniform(opts.seed ^ 0x33, 0.01));
    let storms = storm_schedule(opts.seed, opts.quick);
    let mut raging = vec![false; storms.len()];

    let mut svc = AlignmentService::new(
        backend,
        ServiceConfig {
            queue_depth: QUEUE_DEPTH,
            policy: soak_policy(),
        },
    );

    let mut inflight: VecDeque<InFlight> = VecDeque::new();
    let mut next_id: u32 = 0;
    let mut next_ticket: u64 = 0;
    let mut refusals = Refusals::default();
    let mut pairs_total: u64 = 0;
    let mut ok_jobs: u64 = 0;
    let mut refused_jobs: u64 = 0;
    let mut tight_jobs: u64 = 0;
    let mut violator_pairs: u64 = 0;

    let complete_one = |svc: &mut AlignmentService,
                        inflight: &mut VecDeque<InFlight>,
                        next_ticket: &mut u64,
                        refusals: &mut Refusals,
                        ok_jobs: &mut u64,
                        refused_jobs: &mut u64,
                        violations: &mut Vec<String>| {
        let Some(done) = svc.try_next() else {
            return false;
        };
        let Some(want) = inflight.pop_front() else {
            violations.push(format!("{name}: completion with nothing in flight"));
            return true;
        };
        verify_completion(
            name,
            &done,
            &want,
            Ticket(*next_ticket),
            refusals,
            ok_jobs,
            refused_jobs,
            violations,
        );
        *next_ticket += 1;
        true
    };

    for j in 0..n_jobs {
        // Harness-time storm transitions: flip lane plans through the
        // service-boxed backend.
        for (s, storm) in storms.iter().enumerate() {
            let now = storm.raging_at(j);
            if now != raging[s] {
                raging[s] = now;
                let plan = if now { storm.plan } else { FaultPlan::none() };
                svc.backend_mut().set_lane_fault_plan(storm.lane, plan);
            }
        }

        // Compose the job.
        let roll = rng.gen_range(0, 100);
        let kind = if roll < 8 {
            JobKind::TightDeadline
        } else if roll < 14 {
            JobKind::GenerousDeadline
        } else if hetero && roll < 26 {
            JobKind::Violator
        } else {
            JobKind::Normal
        };
        let n_pairs = rng.gen_range(6, 17);
        let mut pairs = gen_pairs(&mut rng, n_pairs, 60, 90, next_id);
        let mut oversized = Vec::new();
        if kind == JobKind::Violator {
            for _ in 0..rng.gen_range(1, 3) {
                let slot = rng.gen_range(0, pairs.len());
                let long = gen_pairs(&mut rng, 1, 130, 180, pairs[slot].id).remove(0);
                pairs[slot] = long;
                oversized.push(pairs[slot].id);
            }
            oversized.sort_unstable();
            oversized.dedup();
            violator_pairs += oversized.len() as u64;
        }
        next_id += n_pairs as u32;
        pairs_total += n_pairs as u64;
        let ids: Vec<u32> = pairs.iter().map(|p| p.id).collect();
        let mut job = if rng.gen_bool(0.5) {
            BatchJob::with_backtrace(pairs)
        } else {
            BatchJob::score_only(pairs)
        };
        match kind {
            JobKind::TightDeadline => {
                tight_jobs += 1;
                job = job.with_deadline(rng.gen_range(200, TIGHT_BUDGET_MAX as usize) as Cycle);
            }
            JobKind::GenerousDeadline => job = job.with_deadline(GENEROUS_BUDGET),
            _ => {}
        }

        // Submit under churn: on backpressure, drain the oldest completion
        // and re-try (admission control must hold the line, not drop).
        let ticket = loop {
            match svc.submit(job.clone()) {
                Ok(t) => break t,
                Err(ServiceError::Backpressure { .. }) => {
                    refusals.bump(FaultClass::Backpressure);
                    if !complete_one(
                        &mut svc,
                        &mut inflight,
                        &mut next_ticket,
                        &mut refusals,
                        &mut ok_jobs,
                        &mut refused_jobs,
                        violations,
                    ) {
                        violations.push(format!("{name}: backpressure on an empty queue"));
                        break Ticket(u64::MAX);
                    }
                }
            }
        };
        inflight.push_back(InFlight {
            ticket,
            ids,
            kind,
            oversized,
        });

        // Lazy drain: complete roughly one job per submission, so the queue
        // oscillates between full and half-full all soak long.
        if rng.gen_bool(0.55) {
            complete_one(
                &mut svc,
                &mut inflight,
                &mut next_ticket,
                &mut refusals,
                &mut ok_jobs,
                &mut refused_jobs,
                violations,
            );
        }
    }
    while complete_one(
        &mut svc,
        &mut inflight,
        &mut next_ticket,
        &mut refusals,
        &mut ok_jobs,
        &mut refused_jobs,
        violations,
    ) {}
    if !inflight.is_empty() {
        violations.push(format!(
            "{name}: {} submitted job(s) never completed",
            inflight.len()
        ));
    }

    // Calm tail: storms are over (plans cleared); keep feeding clean work
    // until every breaker that opened has re-admitted its lane (or retired
    // it). Bounded — a lane still quarantined after this is *stuck*.
    for storm in &storms {
        svc.backend_mut()
            .set_lane_fault_plan(storm.lane, FaultPlan::none());
    }
    let mut calm_rounds: u64 = 0;
    let max_calm = 400;
    while calm_rounds < max_calm {
        let all_settled = svc
            .lane_health()
            .iter()
            .all(|h| matches!(h.state, LaneState::Retired) || h.available());
        if all_settled {
            break;
        }
        calm_rounds += 1;
        let pairs = gen_pairs(&mut rng, LANES * LANE_CHUNK, 60, 90, next_id);
        next_id += (LANES * LANE_CHUNK) as u32;
        pairs_total += (LANES * LANE_CHUNK) as u64;
        let ids: Vec<u32> = pairs.iter().map(|p| p.id).collect();
        let ticket = svc
            .submit(BatchJob::score_only(pairs))
            .expect("the calm tail never outruns the queue");
        inflight.push_back(InFlight {
            ticket,
            ids,
            kind: JobKind::Normal,
            oversized: Vec::new(),
        });
        complete_one(
            &mut svc,
            &mut inflight,
            &mut next_ticket,
            &mut refusals,
            &mut ok_jobs,
            &mut refused_jobs,
            violations,
        );
    }

    // The no-stuck-lane invariant: every lane the breaker ever opened on
    // must have been re-admitted at least once or retired for good.
    let health = svc.lane_health();
    let mut lane_rows = Vec::new();
    let mut max_recovery: Cycle = 0;
    let mut readmitted_lanes = 0;
    let mut retired_lanes = 0;
    for (lane, h) in health.iter().enumerate() {
        let state = match h.state {
            LaneState::Healthy => "healthy",
            LaneState::Probation => "probation",
            LaneState::Quarantined { .. } => "quarantined",
            LaneState::Retired => "retired",
        };
        if h.readmissions > 0 {
            readmitted_lanes += 1;
            max_recovery = max_recovery.max(h.last_recovery_cycles);
        }
        if matches!(h.state, LaneState::Retired) {
            retired_lanes += 1;
        }
        if h.quarantines > 0 && h.readmissions == 0 && !matches!(h.state, LaneState::Retired) {
            violations.push(format!(
                "{name}: lane {lane} quarantined {} time(s) but never re-admitted or retired",
                h.quarantines
            ));
        }
        if matches!(h.state, LaneState::Quarantined { .. }) {
            violations.push(format!(
                "{name}: lane {lane} still quarantined after the calm tail"
            ));
        }
        lane_rows.push(vec![
            lane.to_string(),
            state.to_string(),
            h.quarantines.to_string(),
            h.readmissions.to_string(),
            h.failed_jobs.to_string(),
            h.failed_attempts.to_string(),
            h.last_recovery_cycles.to_string(),
        ]);
    }
    let counters = svc.backend_counters();
    if counters.quarantine_events == 0 {
        violations.push(format!(
            "{name}: the storms never tripped a breaker — the soak is not exercising quarantine"
        ));
    }
    let stats = svc.stats();
    if stats.deadline_refused != refusals.get(FaultClass::DeadlineExceeded) {
        violations.push(format!(
            "{name}: service counted {} deadline refusals, harness saw {}",
            stats.deadline_refused,
            refusals.get(FaultClass::DeadlineExceeded)
        ));
    }

    PhaseOutcome {
        name,
        jobs: stats.completed,
        pairs: pairs_total,
        ok_jobs,
        refused_jobs,
        tight_jobs,
        violator_pairs,
        refusals,
        counters,
        calm_rounds,
        max_recovery_cycles: max_recovery,
        readmitted_lanes,
        retired_lanes,
        lane_rows,
    }
}

/// Check one completed job against what was submitted.
#[allow(clippy::too_many_arguments)]
fn verify_completion(
    name: &str,
    done: &CompletedJob,
    want: &InFlight,
    expect_ticket: Ticket,
    refusals: &mut Refusals,
    ok_jobs: &mut u64,
    refused_jobs: &mut u64,
    violations: &mut Vec<String>,
) {
    if done.ticket != want.ticket || done.ticket != expect_ticket {
        violations.push(format!(
            "{name}: ticket {:?} completed out of order (submitted {:?}, expected {:?})",
            done.ticket, want.ticket, expect_ticket
        ));
    }
    match &done.outcome {
        Ok(batch) => {
            *ok_jobs += 1;
            let ids: Vec<u32> = batch.results.iter().map(|r| r.id).collect();
            if ids != want.ids {
                violations.push(format!(
                    "{name}: ticket {:?} dropped, duplicated or reordered pairs",
                    done.ticket
                ));
            }
            for r in &batch.results {
                if !r.success {
                    violations.push(format!(
                        "{name}: ticket {:?} pair {} came back unanswered",
                        done.ticket, r.id
                    ));
                }
                if want.oversized.binary_search(&r.id).is_ok() && !r.recovered {
                    violations.push(format!(
                        "{name}: oversized pair {} was not CPU-routed",
                        r.id
                    ));
                }
            }
        }
        Err(e) => {
            *refused_jobs += 1;
            refusals.bump(e.provenance().class);
            // The only refusal the policy lets through is the typed
            // deadline refusal, and only on a deadline-carrying job:
            // everything else must have been retried, degraded or
            // recovered.
            let typed = matches!(e, DriverError::DeadlineExceeded { .. });
            if !typed || want.kind != JobKind::TightDeadline {
                violations.push(format!(
                    "{name}: ticket {:?} ({:?}) refused with unexpected error: {e}",
                    done.ticket, want.kind
                ));
            }
        }
    }
}

/// The blackout scenario: *every* lane under a permanent storm, cooldown
/// set beyond the horizon. Once all breakers open, the scheduler has no
/// silicon left — graceful degradation must answer every job on the CPU
/// cost model ([`BatchScheduler::degrade_job`]'s path), never hang or drop.
fn blackout_scenario(opts: &ChaosOptions, violations: &mut Vec<String>) -> (u64, u64) {
    let mut backend = MultiLaneBackend::new(chaos_config(), 2);
    backend.chunk = LANE_CHUNK;
    for lane in 0..2 {
        backend.set_lane_fault_plan(
            lane,
            FaultPlan::uniform(opts.seed ^ (0x88 + lane as u64), 0.5)
                .with_storm(Storm::permanent()),
        );
    }
    let mut svc = AlignmentService::new(
        Box::new(backend),
        ServiceConfig {
            queue_depth: QUEUE_DEPTH,
            policy: AlignPolicy {
                quarantine_threshold: 2,
                quarantine_cooldown: Cycle::MAX / 2,
                ..soak_policy()
            },
        },
    );
    let n_jobs = if opts.quick { 16 } else { 40 };
    let mut rng = SmallRng::seed_from_u64(opts.seed ^ 0xB1AC);
    let mut next_id = 0u32;
    for t in 0..n_jobs {
        let pairs = gen_pairs(&mut rng, 8, 60, 90, next_id);
        next_id += 8;
        let want: Vec<u32> = pairs.iter().map(|p| p.id).collect();
        let done = svc.stream([BatchJob::score_only(pairs)]);
        match &done[0].outcome {
            Ok(batch) => {
                let ids: Vec<u32> = batch.results.iter().map(|r| r.id).collect();
                if ids != want || batch.results.iter().any(|r| !r.success) {
                    violations.push(format!("blackout: job {t} lost or failed pairs"));
                }
            }
            Err(e) => violations.push(format!("blackout: job {t} refused: {e}")),
        }
    }
    let counters = svc.backend_counters();
    if counters.degraded_jobs == 0 {
        violations.push(
            "blackout: no job was CPU-degraded — the all-lanes-open path never ran".to_string(),
        );
    }
    if !svc
        .lane_health()
        .iter()
        .all(|h| matches!(h.state, LaneState::Quarantined { .. }))
    {
        violations.push("blackout: a permanently-storming lane escaped quarantine".to_string());
    }
    (n_jobs, counters.degraded_jobs)
}

/// The retirement scenario: one lane under a permanent storm with
/// `retire_after` set. The breaker must quarantine it, give it its chances,
/// then retire it for good — while every job still completes in order on
/// the surviving lanes.
fn retire_scenario(opts: &ChaosOptions, violations: &mut Vec<String>) -> (u64, u32, usize) {
    let mut backend = MultiLaneBackend::new(chaos_config(), 3);
    backend.chunk = LANE_CHUNK;
    backend.set_lane_fault_plan(
        0,
        FaultPlan::uniform(opts.seed ^ 0x77, 0.5).with_storm(Storm::permanent()),
    );
    let mut svc = AlignmentService::new(
        Box::new(backend),
        ServiceConfig {
            queue_depth: QUEUE_DEPTH,
            policy: AlignPolicy {
                quarantine_threshold: 2,
                // A few batches: the quick run's 24 jobs must see the
                // probation strike that retires the lane.
                quarantine_cooldown: 8_000,
                retire_after: 2,
                ..soak_policy()
            },
        },
    );
    let n_jobs = if opts.quick { 24 } else { 60 };
    let mut rng = SmallRng::seed_from_u64(opts.seed ^ 0x7E7E);
    let mut next_id = 0u32;
    let mut want_ids: Vec<Vec<u32>> = Vec::new();
    for _ in 0..n_jobs {
        let pairs = gen_pairs(&mut rng, 9, 60, 90, next_id);
        next_id += 9;
        want_ids.push(pairs.iter().map(|p| p.id).collect());
        let done = svc.stream([BatchJob::score_only(pairs)]);
        for c in done {
            match &c.outcome {
                Ok(batch) => {
                    let ids: Vec<u32> = batch.results.iter().map(|r| r.id).collect();
                    if ids != want_ids[c.ticket.0 as usize] {
                        violations.push(format!("retire: ticket {:?} lost pair order", c.ticket));
                    }
                }
                Err(e) => violations.push(format!("retire: ticket {:?} failed: {e}", c.ticket)),
            }
        }
    }
    let health = svc.lane_health();
    if !matches!(health[0].state, LaneState::Retired) {
        violations.push(format!(
            "retire: the permanently-storming lane was not retired (state {:?}, {} quarantines)",
            health[0].state, health[0].quarantines
        ));
    }
    for (lane, h) in health.iter().enumerate().skip(1) {
        if !h.available() {
            violations.push(format!("retire: clean lane {lane} is {:?}", h.state));
        }
    }
    (n_jobs, health[0].quarantines, 1)
}

fn phase_table(p: &PhaseOutcome) -> String {
    let mut s = crate::fmt::render_table(
        &format!("Chaos soak: {} backend", p.name),
        &[
            "lane",
            "state",
            "quarantines",
            "readmissions",
            "failed jobs",
            "failed tries",
            "recovery cyc",
        ],
        &p.lane_rows,
    );
    s.push_str(&format!(
        "jobs {} ({} refused, {} with tight deadlines) · pairs {} · \
         degraded jobs {} · recovered pairs {} ({:.2}% fallback)\n",
        p.jobs,
        p.refused_jobs,
        p.tight_jobs,
        p.pairs,
        p.counters.degraded_jobs,
        p.counters.recovered_pairs,
        p.fallback_rate() * 100.0,
    ));
    s.push_str(&format!(
        "breaker: {} quarantine(s), {} readmission(s), {} retired · \
         faults injected {} · sim cycles {}\n",
        p.counters.quarantine_events,
        p.counters.readmissions,
        p.retired_lanes,
        p.counters.faults.total(),
        p.counters.sim_cycles,
    ));
    let refusal_list: Vec<String> = FaultClass::ALL
        .iter()
        .filter(|c| p.refusals.get(**c) > 0)
        .map(|c| format!("{} {}", c.name(), p.refusals.get(*c)))
        .collect();
    s.push_str(&format!(
        "refusals: {} · calm rounds to settle {}\n\n",
        if refusal_list.is_empty() {
            "none".to_string()
        } else {
            refusal_list.join(", ")
        },
        p.calm_rounds,
    ));
    s
}

fn phase_json(p: &PhaseOutcome) -> String {
    format!(
        concat!(
            "  \"{}\": {{\n",
            "    \"jobs\": {}, \"pairs\": {}, \"ok_jobs\": {}, \"refused_jobs\": {},\n",
            "    \"tight_deadline_jobs\": {}, \"violator_pairs\": {},\n",
            "    \"refusals\": {},\n",
            "    \"quarantine_events\": {}, \"readmissions\": {}, \"retired_lanes\": {},\n",
            "    \"readmitted_lanes\": {}, \"max_recovery_cycles\": {},\n",
            "    \"degraded_jobs\": {}, \"recovered_pairs\": {}, \"fallback_rate\": {:.6},\n",
            "    \"deadline_refusals\": {}, \"faults_injected\": {},\n",
            "    \"sim_cycles\": {}, \"calm_rounds\": {}\n",
            "  }}"
        ),
        p.name,
        p.jobs,
        p.pairs,
        p.ok_jobs,
        p.refused_jobs,
        p.tight_jobs,
        p.violator_pairs,
        p.refusals.render_json(),
        p.counters.quarantine_events,
        p.counters.readmissions,
        p.retired_lanes,
        p.readmitted_lanes,
        p.max_recovery_cycles,
        p.counters.degraded_jobs,
        p.counters.recovered_pairs,
        p.fallback_rate(),
        p.counters.deadline_refusals,
        p.counters.faults.total(),
        p.counters.sim_cycles,
        p.calm_rounds,
    )
}

/// Run the soak on both batch engines plus the retirement scenario.
/// Deterministic for a given seed — no wall clock anywhere in the output.
pub fn chaos_run(opts: &ChaosOptions) -> ChaosOutcome {
    let mut violations = Vec::new();
    let mut text = String::new();
    text.push_str("== Chaos soak: storms, deadlines, violators, backpressure ==\n");
    text.push_str(&format!(
        "seed {:#x} · {} mode · {} lanes · queue depth {} · chunk {}\n\n",
        opts.seed,
        if opts.quick { "quick" } else { "full" },
        LANES,
        QUEUE_DEPTH,
        LANE_CHUNK,
    ));

    let mut ml = MultiLaneBackend::new(chaos_config(), LANES);
    ml.chunk = LANE_CHUNK;
    let multilane = soak("multilane", Box::new(ml), false, opts, &mut violations);
    text.push_str(&phase_table(&multilane));

    let mut he = HeterogeneousBackend::new(chaos_config(), LANES);
    he.accel.chunk = LANE_CHUNK;
    let hetero = soak("hetero", Box::new(he), true, opts, &mut violations);
    text.push_str(&phase_table(&hetero));

    let (retire_jobs, retire_quarantines, retire_retired) = retire_scenario(opts, &mut violations);
    text.push_str(&format!(
        "Retirement scenario: {retire_jobs} jobs, permanently-storming lane retired after \
         {retire_quarantines} quarantine(s)\n"
    ));

    let (blackout_jobs, blackout_degraded) = blackout_scenario(opts, &mut violations);
    text.push_str(&format!(
        "Blackout scenario: {blackout_jobs} jobs with every lane open-circuit, \
         {blackout_degraded} answered by CPU degradation\n\n"
    ));

    if violations.is_empty() {
        text.push_str(&format!(
            "chaos: PASS — {} jobs / {} pairs answered in order, every opened breaker \
             re-admitted or retired its lane\n",
            multilane.jobs + hetero.jobs + retire_jobs + blackout_jobs,
            multilane.pairs + hetero.pairs,
        ));
    } else {
        text.push_str(&format!("chaos: {} violation(s)\n", violations.len()));
        for v in &violations {
            text.push_str(&format!("  VIOLATION: {v}\n"));
        }
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"chaos\": {{\"quick\": {}, \"seed\": {}, \"violations\": {}}},\n",
            "{},\n",
            "{},\n",
            "  \"retire\": {{\"jobs\": {}, \"quarantines_on_retired_lane\": {}, ",
            "\"retired_lanes\": {}}},\n",
            "  \"blackout\": {{\"jobs\": {}, \"degraded_jobs\": {}}}\n",
            "}}\n"
        ),
        opts.quick,
        opts.seed,
        violations.len(),
        phase_json(&multilane),
        phase_json(&hetero),
        retire_jobs,
        retire_quarantines,
        retire_retired,
        blackout_jobs,
        blackout_degraded,
    );

    ChaosOutcome {
        text,
        json,
        violations,
    }
}

/// Run the soak, write `BENCH_chaos.json`, and return the outcome (the
/// write log is appended to the text).
pub fn chaos_report(opts: &ChaosOptions) -> ChaosOutcome {
    let mut outcome = chaos_run(opts);
    let path = opts
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from("BENCH_chaos.json"));
    write_json(&path, &outcome.json, &mut outcome.text);
    outcome
}

fn write_json(path: &Path, json: &str, log: &mut String) {
    match std::fs::write(path, json) {
        Ok(()) => log.push_str(&format!("\nwrote {}\n", path.display())),
        Err(e) => log.push_str(&format!("\nfailed to write {}: {e}\n", path.display())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_soak_passes_and_is_deterministic() {
        let opts = ChaosOptions {
            quick: true,
            ..ChaosOptions::default()
        };
        let a = chaos_run(&opts);
        assert!(
            a.violations.is_empty(),
            "chaos violations: {:#?}",
            a.violations
        );
        // Same seed, same soak, byte for byte: the summary has no wall
        // clock in it.
        let b = chaos_run(&opts);
        assert_eq!(a.text, b.text);
        assert_eq!(a.json, b.json);
        // The soak genuinely exercised its machinery.
        assert!(a.json.contains("\"quarantine_events\""));
        assert!(a.text.contains("chaos: PASS"));
    }

    #[test]
    fn different_seeds_change_the_soak() {
        let a = chaos_run(&ChaosOptions {
            quick: true,
            ..ChaosOptions::default()
        });
        let b = chaos_run(&ChaosOptions {
            quick: true,
            seed: 0xDEAD_BEEF,
            ..ChaosOptions::default()
        });
        assert!(b.violations.is_empty(), "{:#?}", b.violations);
        assert_ne!(a.json, b.json, "the seed must drive the whole soak");
    }

    #[test]
    fn report_writes_the_json_record() {
        let dir = std::env::temp_dir().join("wfasic_chaos_bench_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_chaos.json");
        let outcome = chaos_report(&ChaosOptions {
            quick: true,
            out: Some(path.clone()),
            ..ChaosOptions::default()
        });
        assert!(outcome.text.contains("wrote "));
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"refusals\""));
        assert!(json.contains("\"backpressure\""));
        assert!(json.contains("\"retire\""));
        std::fs::remove_file(&path).ok();
    }
}
