//! The unified execution layer: every way this workspace can run an
//! alignment, behind one [`AlignmentBackend`] trait.
//!
//! The paper evaluates the *same* workload on two engines — the software
//! WFA on the Sargantana core and the WFAsic device — and the repo grew
//! several more (multi-lane batches, the SWG oracle, per-call-site CPU
//! fallbacks). Before this module each caller re-implemented staging,
//! penalties plumbing, envelope checks and result shaping; now every test,
//! bench and tool can exercise every engine interchangeably:
//!
//! * [`CpuWfaBackend`] — the software WFA oracle, routed per pair by
//!   strategy in one reused arena. Its [`CpuWfaBackend::align`] is **the**
//!   one software answer path: this backend's batches, the heterogeneous
//!   CPU partition and its recoveries, the attempt loop's fallback in
//!   [`crate::job`] and the lanes' degraded jobs all call it, each on
//!   an engine its caller owns. A batch is one queue that this engine
//!   drains together with the process's resident helper threads
//!   ([`pool::share`]), each on an engine of its own.
//! * [`SwgBackend`] — the full-DP Smith-Waterman-Gotoh reference (Eq. 2).
//! * [`crate::RiscvBackend`] — the paper's CPU baseline: the hand-written
//!   WFA kernel on the RV64IM interpreter with Sargantana-like timing,
//!   cross-checked per pair against `wfa_align` and the analytic cost
//!   model (see `crate::riscv_backend`).
//! * [`MultiLaneBackend`] — an N-lane SoC with a shared-port arbiter, and
//!   the batch scheduler that deals jobs over its lanes (`crate::batch`).
//!   [`BackendKind::Device`], the paper's taped-out configuration, is its
//!   one-lane form ([`MultiLaneBackend::device`]): each backend batch runs
//!   whole, as one job.
//! * [`HeterogeneousBackend`] — accelerator lanes plus CPU workers:
//!   out-of-envelope pairs (Eq. 5/6 — too long for the device, see
//!   [`Capabilities`]) are routed to the CPU *before* submission (so they
//!   never inflate the batch's `MAX_READ_LEN` padding), and pairs the
//!   hardware flags unsuccessful (score over `Score_max`, unknown bases,
//!   fault damage) are recovered on the CPU afterwards. The CPU partition
//!   is one queue, shared the way a `cpu` batch is: the resident helpers
//!   drain it while the accelerator simulates, and the lane thread joins
//!   in once its device batch is done.
//!
//! One [`AlignPolicy`] governs them all: [`AlignmentBackend::apply_policy`]
//! installs the service's value whole — as the lanes' policy on the
//! device-backed engines (the heterogeneous backend turning device-side
//! fallback off, since it recovers itself) and as the route of every CPU
//! engine — so no backend keeps a copy of a policy field.
//!
//! Scores are bit-identical across every backend (all six compute the
//! exact gap-affine optimum). CIGARs are bit-identical across the three
//! device-backed backends; the software engines may pick a different but
//! equally-optimal transcript (optimal alignments are not unique), which
//! the backend-equivalence suite pins down precisely.

use crate::api::{AlignmentResult, DriverError};
use crate::batch::{BatchJob, LaneHealth, MultiLaneBackend};
use std::cell::RefCell;
use std::sync::Arc;
use wfa_core::pool;
use wfa_core::{
    swg_align, wfa_align_seqs_with_arena, AlignStrategy, Penalties, WavefrontArena, WfaOptions,
};
use wfasic_accel::device::RunReport;
use wfasic_accel::AccelConfig;
use wfasic_seqio::generate::Pair;
use wfasic_soc::clock::Cycle;
use wfasic_soc::fault::{FaultCounters, FaultPlan};
use wfasic_soc::perf::JobPerf;

/// What an engine can take on — the hardware envelope of Eq. 5/6, or
/// "unbounded" for the software engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capabilities {
    /// Stable backend name (`cpu`, `swg`, `riscv`, `device`, `multilane`,
    /// `hetero`).
    pub name: &'static str,
    /// Longest read the engine accepts (Eq. 5 / `max_supported_len`;
    /// `usize::MAX` for the software engines).
    pub max_len: usize,
    /// Highest completable alignment score (Eq. 6: `2*k_max + 4`;
    /// `None` = unbounded).
    pub score_max: Option<u32>,
    /// Device lanes behind the backend (0 for pure software).
    pub lanes: usize,
}

impl Capabilities {
    /// Is this pair inside the engine's static (length) envelope?
    pub fn admits(&self, pair: &Pair) -> bool {
        pair.a.len().max(pair.b.len()) <= self.max_len
    }
}

/// The outcome of one backend batch.
#[derive(Debug, Clone)]
pub struct BackendBatch {
    /// Per-pair results, in submission order.
    pub results: Vec<AlignmentResult>,
    /// Simulated device cycles consumed by the batch (`None` for pure
    /// software engines, whose cost models live in [`crate::cpu_model`]).
    pub sim_cycles: Option<Cycle>,
    /// Per-stage trace of the device job, when the policy asked for perf
    /// collection and the backend has a device to trace.
    pub perf: Option<JobPerf>,
    /// Device run reports backing this batch (one per device sub-job, in
    /// dispatch order; empty for pure software engines). The trace hook for
    /// callers that need per-pair cycle detail or fault counters.
    pub reports: Vec<RunReport>,
}

/// The resolved CPU routing decision a backend carries: the policy's
/// strategy projection, ready to pick a concrete [`AlignStrategy`] per
/// pair and build the matching [`WfaOptions`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuRoute {
    /// The strategy every CPU pair runs. Under [`AlignStrategy::Auto`] the
    /// engine itself hands a pair to BiWFA once its retained bytes pass
    /// [`wfa_core::EXACT_BYTE_BUDGET`].
    pub select: AlignStrategy,
}

impl Default for CpuRoute {
    fn default() -> Self {
        CpuRoute {
            select: AlignStrategy::Auto,
        }
    }
}

impl CpuRoute {
    /// Project a policy's strategy field.
    pub fn from_policy(policy: &AlignPolicy) -> Self {
        CpuRoute {
            select: policy.strategy,
        }
    }

    /// The strategy for one pair: the route's own for every pair. Within
    /// `Auto` the engine's byte budget, not the pair's length, decides.
    pub fn pick(&self, _pair: &Pair) -> AlignStrategy {
        self.select
    }

    /// The [`WfaOptions`] implementing `strategy` for this route.
    pub fn options(
        &self,
        strategy: AlignStrategy,
        penalties: Penalties,
        backtrace: bool,
    ) -> WfaOptions {
        WfaOptions {
            penalties,
            strategy,
            compute_cigar: backtrace,
        }
    }
}

/// Lifetime counters every backend keeps (the service layer aggregates
/// these into its own stats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackendCounters {
    /// Batches executed.
    pub jobs: u64,
    /// Pairs answered (success or not).
    pub pairs: u64,
    /// Pairs whose final result is `success == false`.
    pub failed_pairs: u64,
    /// Pairs answered by a CPU worker on a device-backed path.
    pub recovered_pairs: u64,
    /// Whole-batch errors surfaced to the caller.
    pub errors: u64,
    /// Accumulated simulated device cycles.
    pub sim_cycles: Cycle,
    /// Injected-fault events across every device behind the backend
    /// (zeroed for pure software engines).
    pub faults: FaultCounters,
    /// Lane circuit-breaker openings (device-backed batch engines only).
    pub quarantine_events: u64,
    /// Lanes re-admitted from quarantine after their cooldown.
    pub readmissions: u64,
    /// Whole jobs answered by the CPU because no lane would take them.
    pub degraded_jobs: u64,
    /// Jobs refused with [`DriverError::DeadlineExceeded`].
    pub deadline_refusals: u64,
    /// Instructions retired on a modeled CPU (`mhpmcounter`-style; only
    /// the RISC-V baseline backend reports these — zero elsewhere).
    pub retired_instrs: u64,
    /// CPU-routed pairs answered by the exact engine.
    pub exact_pairs: u64,
    /// CPU-routed pairs answered by the bidirectional linear-memory
    /// engine.
    pub biwfa_pairs: u64,
    /// High-water mark of retained wavefront memory across every CPU-routed
    /// pair (bytes; `WfaStats::peak_memory_bytes`). This is the measured
    /// number behind the BiWFA `O(s)` claim — zero for backends that never
    /// route a pair to the host CPU.
    pub peak_memory_bytes: u64,
}

impl BackendCounters {
    pub(crate) fn absorb(&mut self, batch: &BackendBatch) {
        self.jobs += 1;
        self.pairs += batch.results.len() as u64;
        self.failed_pairs += batch.results.iter().filter(|r| !r.success).count() as u64;
        self.recovered_pairs += batch.results.iter().filter(|r| r.recovered).count() as u64;
        self.sim_cycles += batch.sim_cycles.unwrap_or(0);
    }

    /// Add a CPU engine's strategy tallies and fold in its memory peak;
    /// recoveries come from [`Self::absorb`]. Sums and a max, so engines
    /// that split one queue between them merge to the same totals however
    /// the pairs fell.
    pub(crate) fn merge_cpu_tallies(&mut self, cpu: &BackendCounters) {
        self.exact_pairs += cpu.exact_pairs;
        self.biwfa_pairs += cpu.biwfa_pairs;
        self.peak_memory_bytes = self.peak_memory_bytes.max(cpu.peak_memory_bytes);
    }
}

/// How every job is programmed, bounded, retried and rescued, and how the
/// CPU routes its pairs: the one policy value, set in **one** place (the
/// service layer) and read unchanged by the backend, the device lanes,
/// a lone [`crate::WfasicDriver`] and the attempt loop in [`crate::job`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlignPolicy {
    /// Fail an attempt whose duration exceeds this bound (the driver's
    /// watchdog timer against a wedged device).
    pub watchdog_cycles: Cycle,
    /// Resubmit a failed job this many times before giving up (injected
    /// faults are transient, so retries genuinely help).
    pub max_retries: u32,
    /// Simulated cycles of deterministic backoff before each retry (a real
    /// driver sleeps between resubmissions instead of hammering a faulting
    /// device). Delays the retry's DMA and counts against the job's deadline.
    pub retry_backoff_cycles: Cycle,
    /// Quarantine a device lane after this many consecutive job failures
    /// (0 = circuit breaker off). Every [`MultiLaneBackend`] has a
    /// breaker, the one-lane `device` backend included; a lone
    /// [`crate::WfasicDriver`] has no lane to quarantine and ignores the
    /// three breaker fields.
    pub quarantine_threshold: u32,
    /// Cycles a quarantined lane sits out before probation re-admission
    /// (lanes only).
    pub quarantine_cooldown: Cycle,
    /// Retire a lane permanently after this many quarantines (0 = never;
    /// lanes only).
    pub retire_after: u32,
    /// Re-run failed pairs (and fully-failed jobs) through the software WFA
    /// so the application always gets answers. [`HeterogeneousBackend`]
    /// recovers on the CPU regardless — that is its contract.
    pub cpu_fallback: bool,
    /// Program `PERF_CTRL` so every job collects per-stage cycle
    /// attribution, readable via [`crate::JobResult::perf_breakdown`].
    /// Attribution is observational: it never changes cycle results.
    pub collect_perf: bool,
    /// Force the data-separation backtrace method even with one Aligner
    /// (Fig. 11's `[Sep]` configurations). Multi-Aligner jobs always
    /// separate.
    pub force_separation: bool,
    /// Output-buffer size programmed into `OUT_SIZE` (0 = unbounded).
    pub out_size: u64,
    /// Which engine CPU-routed pairs run on ([`AlignStrategy::Auto`]
    /// decides by retained bytes; the device lanes are unaffected).
    pub strategy: AlignStrategy,
}

impl Default for AlignPolicy {
    fn default() -> Self {
        AlignPolicy {
            watchdog_cycles: 1 << 40,
            max_retries: 1,
            retry_backoff_cycles: 0,
            quarantine_threshold: 0,
            quarantine_cooldown: 0,
            retire_after: 0,
            cpu_fallback: false,
            collect_perf: false,
            force_separation: false,
            out_size: 0,
            strategy: AlignStrategy::Auto,
        }
    }
}

impl AlignPolicy {
    /// The fault-containment preset the chaos soak runs under: CPU fallback
    /// on, a 3-strike circuit breaker with a 2M-cycle cooldown, and 10k
    /// cycles of backoff between retries. Deadlines are per job
    /// ([`BatchJob::deadline`]).
    pub fn resilient() -> Self {
        AlignPolicy {
            max_retries: 2,
            retry_backoff_cycles: 10_000,
            quarantine_threshold: 3,
            quarantine_cooldown: 2_000_000,
            cpu_fallback: true,
            ..AlignPolicy::default()
        }
    }
}

/// One engine that can run alignment batches.
pub trait AlignmentBackend {
    /// The engine's envelope and identity.
    fn capabilities(&self) -> Capabilities;

    /// Align a batch of pairs; results come back in submission order.
    fn align_batch(&mut self, job: &BatchJob) -> Result<BackendBatch, DriverError>;

    /// Align a single pair (a one-pair batch by default).
    fn align_one(&mut self, pair: &Pair, backtrace: bool) -> Result<AlignmentResult, DriverError> {
        let job = BatchJob {
            pairs: vec![pair.clone()],
            backtrace,
            deadline: None,
        };
        self.align_batch(&job)
            .map(|mut b| b.results.pop().expect("a one-pair batch yields one result"))
    }

    /// Lifetime counters.
    fn counters(&self) -> BackendCounters;

    /// Per-lane circuit-breaker health, for engines with device lanes
    /// (empty for pure software engines).
    fn lane_health(&self) -> Vec<LaneHealth> {
        Vec::new()
    }

    /// Install (or replace) a fault-injection plan on one device lane.
    /// This is the chaos-choreography surface: a harness can storm a boxed
    /// backend *through* the service layer, mid-soak, without reaching into
    /// the lanes. No-op for engines without device lanes.
    fn set_lane_fault_plan(&mut self, lane: usize, plan: FaultPlan) {
        let _ = (lane, plan);
    }

    /// Reset the lifetime counters.
    fn reset_counters(&mut self);

    /// Install the service-level policy. The SWG and RISC-V engines have
    /// nothing to configure.
    fn apply_policy(&mut self, policy: &AlignPolicy) {
        let _ = policy;
    }
}

/// Which backend to build — the one name every CLI flag, bench table and
/// test loop shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// [`CpuWfaBackend`].
    Cpu,
    /// [`SwgBackend`].
    Swg,
    /// [`crate::RiscvBackend`].
    Riscv,
    /// [`MultiLaneBackend::device`]: one lane, whole batches.
    Device,
    /// [`MultiLaneBackend`].
    MultiLane,
    /// [`HeterogeneousBackend`].
    Heterogeneous,
}

impl BackendKind {
    /// Every kind, in CLI presentation order.
    pub const ALL: [BackendKind; 6] = [
        BackendKind::Cpu,
        BackendKind::Swg,
        BackendKind::Riscv,
        BackendKind::Device,
        BackendKind::MultiLane,
        BackendKind::Heterogeneous,
    ];

    /// The stable CLI name.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Cpu => "cpu",
            BackendKind::Swg => "swg",
            BackendKind::Riscv => "riscv",
            BackendKind::Device => "device",
            BackendKind::MultiLane => "multilane",
            BackendKind::Heterogeneous => "hetero",
        }
    }

    /// Parse a CLI name.
    pub fn parse(name: &str) -> Option<Self> {
        BackendKind::ALL.iter().copied().find(|k| k.name() == name)
    }

    /// Build the backend over `lanes` device lanes (ignored by the software
    /// engines; [`BackendKind::Device`] always has exactly one).
    pub fn create(self, cfg: AccelConfig, lanes: usize) -> Box<dyn AlignmentBackend> {
        match self {
            BackendKind::Cpu => Box::new(CpuWfaBackend::new(cfg.penalties)),
            BackendKind::Swg => Box::new(SwgBackend::new(cfg.penalties)),
            BackendKind::Riscv => Box::new(crate::RiscvBackend::new(cfg.penalties)),
            BackendKind::Device => Box::new(MultiLaneBackend::device(cfg)),
            BackendKind::MultiLane => Box::new(MultiLaneBackend::new(cfg, lanes)),
            BackendKind::Heterogeneous => Box::new(HeterogeneousBackend::new(cfg, lanes)),
        }
    }
}

impl std::str::FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        BackendKind::parse(s).ok_or_else(|| {
            let names: Vec<&str> = BackendKind::ALL.iter().map(|k| k.name()).collect();
            format!("unknown backend '{s}' (one of: {})", names.join(", "))
        })
    }
}

// ---------------------------------------------------------------------------
// CpuWfaBackend
// ---------------------------------------------------------------------------

/// The software WFA oracle: gap-affine alignment on the host CPU, routed
/// per pair by a [`CpuRoute`] and reusing one [`WavefrontArena`] for the
/// engine's lifetime.
///
/// [`AlignmentBackend::align_batch`] shares a batch with the process's
/// resident helper threads ([`pool::share`]), each aligning on its own
/// engine with this one's route and penalties. Answers come back in input
/// order and the helpers' tallies merge as sums and a max, so neither
/// depends on which thread claimed a pair.
#[derive(Debug)]
pub struct CpuWfaBackend {
    /// Penalty model.
    pub penalties: Penalties,
    /// Strategy routing (`Auto` by default; set via
    /// [`AlignmentBackend::apply_policy`] or directly).
    pub route: CpuRoute,
    arena: WavefrontArena,
    counters: BackendCounters,
}

impl CpuWfaBackend {
    /// A CPU engine on the default route.
    pub fn new(penalties: Penalties) -> Self {
        CpuWfaBackend {
            penalties,
            route: CpuRoute::default(),
            arena: WavefrontArena::new(),
            counters: BackendCounters::default(),
        }
    }

    /// **The** software answer path: every CPU alignment and every CPU
    /// fallback in the workspace runs through this method. It picks the
    /// pair's strategy by [`Self::route`], aligns in this engine's arena,
    /// and tallies the engine that answered and the retained wavefront
    /// memory peak. `recovered` only stamps the result: it marks an answer
    /// given on behalf of a device that could not finish the pair itself.
    pub fn align(&mut self, pair: &Pair, backtrace: bool, recovered: bool) -> AlignmentResult {
        let strategy = self.route.pick(pair);
        let opts = self.route.options(strategy, self.penalties, backtrace);
        let c = &mut self.counters;
        let (success, score, cigar) =
            match wfa_align_seqs_with_arena(&pair.a, &pair.b, &opts, &mut self.arena) {
                Ok(al) => {
                    match al.engine {
                        AlignStrategy::BiWfa => c.biwfa_pairs += 1,
                        _ => c.exact_pairs += 1,
                    }
                    c.peak_memory_bytes = c.peak_memory_bytes.max(al.stats.peak_memory_bytes);
                    (true, al.score, al.cigar)
                }
                // Both strategies are exact and end below the all-gaps
                // cap, so only an engine defect lands here; the pair is
                // reported failed rather than taking the batch down.
                Err(_) => (false, 0, None),
            };
        AlignmentResult {
            id: pair.id,
            success,
            score,
            cigar,
            recovered,
        }
    }

    /// Answer every pair of `queue`, in queue order, sharing the queue with
    /// the process's resident helper threads ([`pool::share`]). This
    /// engine drains it once `first` has run on this thread (the helpers
    /// start at once); each helper drains on an engine of its own that
    /// takes this one's route and penalties, and its tallies merge into
    /// this engine's. Returns `first`'s result and the answers.
    fn align_shared<O>(
        &mut self,
        queue: &[&Pair],
        backtrace: bool,
        recovered: bool,
        first: impl FnOnce() -> O,
    ) -> (O, Vec<AlignmentResult>) {
        thread_local! {
            static HELPER_ENGINE: RefCell<CpuWfaBackend> =
                RefCell::new(CpuWfaBackend::new(Penalties::default()));
        }
        let (route, penalties) = (self.route, self.penalties);
        let mut first_out = None;
        let (results, helper_tallies) = pool::share(
            queue.len(),
            |cursor| {
                first_out = Some(first());
                cursor.drain(|k| self.align(queue[k], backtrace, recovered))
            },
            || {
                let pairs: Arc<Vec<Pair>> = Arc::new(queue.iter().map(|&p| p.clone()).collect());
                move |cursor: &pool::Cursor| {
                    HELPER_ENGINE.with_borrow_mut(|engine| {
                        engine.route = route;
                        engine.penalties = penalties;
                        engine.counters = BackendCounters::default();
                        let part = cursor.drain(|k| engine.align(&pairs[k], backtrace, recovered));
                        (part, engine.counters)
                    })
                }
            },
        );
        for tallies in &helper_tallies {
            self.counters.merge_cpu_tallies(tallies);
        }
        (first_out.expect("share runs the caller's drain"), results)
    }
}

impl AlignmentBackend for CpuWfaBackend {
    fn capabilities(&self) -> Capabilities {
        Capabilities {
            name: "cpu",
            max_len: usize::MAX,
            score_max: None,
            lanes: 0,
        }
    }

    fn align_batch(&mut self, job: &BatchJob) -> Result<BackendBatch, DriverError> {
        let queue: Vec<&Pair> = job.pairs.iter().collect();
        let ((), results) = self.align_shared(&queue, job.backtrace, false, || ());
        let batch = BackendBatch {
            results,
            sim_cycles: None,
            perf: None,
            reports: Vec::new(),
        };
        self.counters.absorb(&batch);
        Ok(batch)
    }

    fn counters(&self) -> BackendCounters {
        self.counters
    }

    fn reset_counters(&mut self) {
        self.counters = BackendCounters::default();
    }

    fn apply_policy(&mut self, policy: &AlignPolicy) {
        self.route = CpuRoute::from_policy(policy);
    }
}

// ---------------------------------------------------------------------------
// SwgBackend
// ---------------------------------------------------------------------------

/// The full-DP Smith-Waterman-Gotoh reference (paper Eq. 2): an
/// algorithmically unrelated oracle for the exact score. `O(n*m)` — keep the
/// batches modest.
#[derive(Debug)]
pub struct SwgBackend {
    /// Penalty model.
    pub penalties: Penalties,
    counters: BackendCounters,
}

impl SwgBackend {
    /// A new SWG reference backend.
    pub fn new(penalties: Penalties) -> Self {
        SwgBackend {
            penalties,
            counters: BackendCounters::default(),
        }
    }
}

impl AlignmentBackend for SwgBackend {
    fn capabilities(&self) -> Capabilities {
        Capabilities {
            name: "swg",
            max_len: usize::MAX,
            score_max: None,
            lanes: 0,
        }
    }

    fn align_batch(&mut self, job: &BatchJob) -> Result<BackendBatch, DriverError> {
        let results: Vec<AlignmentResult> = job
            .pairs
            .iter()
            .map(|pair| {
                let (sa, sb) = (pair.a.bytes(), pair.b.bytes());
                let dp = swg_align(&sa, &sb, &self.penalties);
                AlignmentResult {
                    id: pair.id,
                    success: dp.score <= u32::MAX as u64,
                    score: dp.score.min(u32::MAX as u64) as u32,
                    cigar: job.backtrace.then_some(dp.cigar),
                    recovered: false,
                }
            })
            .collect();
        let batch = BackendBatch {
            results,
            sim_cycles: None,
            perf: None,
            reports: Vec::new(),
        };
        self.counters.absorb(&batch);
        Ok(batch)
    }

    fn counters(&self) -> BackendCounters {
        self.counters
    }

    fn reset_counters(&mut self) {
        self.counters = BackendCounters::default();
    }
}

// ---------------------------------------------------------------------------
// HeterogeneousBackend
// ---------------------------------------------------------------------------

/// Accelerator lanes plus CPU workers, replacing the per-call-site fallback
/// logic: pairs outside the device envelope never reach the hardware, and
/// pairs the hardware could not finish are recovered in software — so this
/// backend answers **every** pair, in order, under any fault plan.
#[derive(Debug)]
pub struct HeterogeneousBackend {
    /// The accelerator side. Public for fault-plan installation in tests.
    pub accel: MultiLaneBackend,
    /// The CPU side (also the overflow-recovery worker). Its route and
    /// penalties also govern the helpers' share of the CPU queue.
    pub cpu: CpuWfaBackend,
    counters: BackendCounters,
}

impl HeterogeneousBackend {
    /// A heterogeneous backend over `lanes` device lanes and the host CPU.
    pub fn new(cfg: AccelConfig, lanes: usize) -> Self {
        HeterogeneousBackend {
            accel: MultiLaneBackend::new(cfg, lanes),
            cpu: CpuWfaBackend::new(cfg.penalties),
            counters: BackendCounters::default(),
        }
    }
}

impl AlignmentBackend for HeterogeneousBackend {
    fn capabilities(&self) -> Capabilities {
        Capabilities {
            name: "hetero",
            // The CPU side removes the device's length/score envelope.
            max_len: usize::MAX,
            score_max: None,
            lanes: self.accel.capabilities().lanes,
        }
    }

    fn align_batch(&mut self, job: &BatchJob) -> Result<BackendBatch, DriverError> {
        let device_caps = self.accel.capabilities();
        let mut dev_idx = Vec::new();
        let mut cpu_idx = Vec::new();
        for (i, pair) in job.pairs.iter().enumerate() {
            if device_caps.admits(pair) {
                dev_idx.push(i);
            } else {
                cpu_idx.push(i);
            }
        }
        let dev_job = BatchJob {
            pairs: dev_idx.iter().map(|&i| job.pairs[i].clone()).collect(),
            backtrace: job.backtrace,
            deadline: job.deadline,
        };

        // The out-of-envelope partition is one queue, longest pair first
        // (BiWFA's cost grows about with length squared), that the resident
        // helpers start on while the accelerator simulates on this thread;
        // this thread joins them once its device batch is done (on one
        // core it drains the queue alone, after the device batch). The
        // engine routes by strategy: realistic long reads (the usual reason
        // a pair misses the envelope) take the linear-memory BiWFA engine
        // under the default `Auto` policy. The device batch then runs as
        // pool work, so it does not also spread its jobs over the host's
        // threads; with no CPU pair it runs outside the queue and keeps its
        // split.
        cpu_idx.sort_unstable_by_key(|&i| {
            (
                std::cmp::Reverse(job.pairs[i].a.len() + job.pairs[i].b.len()),
                i,
            )
        });
        let queue: Vec<&Pair> = cpu_idx.iter().map(|&i| &job.pairs[i]).collect();
        let accel = &mut self.accel;
        let mut lane = || (!dev_job.pairs.is_empty()).then(|| accel.align_batch(&dev_job));
        let (accel_out, cpu_out) = if queue.is_empty() {
            (lane(), Vec::new())
        } else {
            self.cpu.align_shared(&queue, job.backtrace, true, lane)
        };

        // Fill the device partition back in, recovering overflowed pairs
        // (score over the envelope, unknown bases, fault damage) — and the
        // whole partition if the device job itself was lost.
        let mut slots: Vec<Option<AlignmentResult>> = vec![None; job.pairs.len()];
        let mut sim_cycles = 0;
        let mut perf = None;
        let mut reports = Vec::new();
        match accel_out {
            None => {}
            Some(Ok(batch)) => {
                sim_cycles = batch.sim_cycles.unwrap_or(0);
                perf = batch.perf;
                reports = batch.reports;
                for (&i, res) in dev_idx.iter().zip(batch.results) {
                    slots[i] = Some(if res.success {
                        res
                    } else {
                        self.cpu.align(&job.pairs[i], job.backtrace, true)
                    });
                }
            }
            Some(Err(_)) => {
                for &i in &dev_idx {
                    slots[i] = Some(self.cpu.align(&job.pairs[i], job.backtrace, true));
                }
            }
        }
        for (&i, res) in cpu_idx.iter().zip(cpu_out) {
            slots[i] = Some(res);
        }

        let batch = BackendBatch {
            results: slots
                .into_iter()
                .map(|r| r.expect("every pair was routed exactly once"))
                .collect(),
            sim_cycles: Some(sim_cycles),
            perf,
            reports,
        };
        self.counters.absorb(&batch);
        Ok(batch)
    }

    fn lane_health(&self) -> Vec<LaneHealth> {
        self.accel.lane_health()
    }

    fn set_lane_fault_plan(&mut self, lane: usize, plan: FaultPlan) {
        self.accel.set_lane_fault_plan(lane, plan);
    }

    fn counters(&self) -> BackendCounters {
        // Surface the accelerator side's health ledger (faults, breaker
        // transitions, refusals) and the CPU side's strategy tallies
        // alongside this backend's own totals.
        let mut c = self.counters;
        let accel = self.accel.counters();
        c.faults = accel.faults;
        c.quarantine_events = accel.quarantine_events;
        c.readmissions = accel.readmissions;
        c.degraded_jobs = accel.degraded_jobs;
        c.deadline_refusals = accel.deadline_refusals;
        c.merge_cpu_tallies(&self.cpu.counters);
        c
    }

    fn reset_counters(&mut self) {
        self.counters = BackendCounters::default();
        self.accel.reset_counters();
        self.cpu.reset_counters();
    }

    fn apply_policy(&mut self, policy: &AlignPolicy) {
        // The heterogeneous backend *is* the fallback: device-internal
        // fallback stays off so unfinished pairs surface here (with their
        // honest cycle accounting) and are recovered once, in one place.
        let device_policy = AlignPolicy {
            cpu_fallback: false,
            ..*policy
        };
        self.accel.apply_policy(&device_policy);
        // The CPU side takes the strategy routing as-is.
        self.cpu.apply_policy(policy);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfasic_seqio::dataset::InputSetSpec;

    fn pairs(n: usize, length: usize, seed: u64) -> Vec<Pair> {
        InputSetSpec {
            length,
            error_pct: 5,
        }
        .generate(n, seed)
        .pairs
    }

    #[test]
    fn kind_round_trips_names() {
        for kind in BackendKind::ALL {
            assert_eq!(BackendKind::parse(kind.name()), Some(kind));
            let backend = kind.create(AccelConfig::wfasic_chip(), 2);
            assert_eq!(backend.capabilities().name, kind.name());
        }
        assert!(BackendKind::parse("gpu").is_none());
        assert!("nope".parse::<BackendKind>().is_err());
    }

    #[test]
    fn every_backend_scores_identically() {
        let p = pairs(6, 100, 0xBEAC);
        let job = BatchJob::with_backtrace(p.clone());
        let mut scores: Vec<Vec<u32>> = Vec::new();
        for kind in BackendKind::ALL {
            let mut backend = kind.create(AccelConfig::wfasic_chip(), 2);
            let batch = backend.align_batch(&job).unwrap();
            assert_eq!(batch.results.len(), p.len(), "{}", kind.name());
            assert!(batch.results.iter().all(|r| r.success));
            scores.push(batch.results.iter().map(|r| r.score).collect());
            let counters = backend.counters();
            assert_eq!(counters.jobs, 1);
            assert_eq!(counters.pairs, p.len() as u64);
        }
        for s in &scores[1..] {
            assert_eq!(s, &scores[0], "backends disagree on scores");
        }
    }

    #[test]
    fn multilane_chunks_and_preserves_order() {
        let p = pairs(10, 80, 0x1A4E);
        let mut backend = MultiLaneBackend::new(AccelConfig::wfasic_chip(), 3);
        backend.chunk = 3; // 4 sub-jobs over 3 lanes
        let got = backend
            .align_batch(&BatchJob::score_only(p.clone()))
            .unwrap();
        let ids: Vec<u32> = got.results.iter().map(|r| r.id).collect();
        let want: Vec<u32> = p.iter().map(|x| x.id).collect();
        assert_eq!(ids, want);
        assert!(got.sim_cycles.unwrap() > 0);
    }

    #[test]
    fn empty_batch_runs_a_job_only_on_device() {
        let cfg = AccelConfig::wfasic_chip();
        let empty = BatchJob::score_only(Vec::new());
        for (mut backend, jobs) in [
            (MultiLaneBackend::device(cfg), 1),
            (MultiLaneBackend::new(cfg, 3), 0),
        ] {
            let got = backend.align_batch(&empty).unwrap();
            assert!(got.results.is_empty());
            assert_eq!((got.reports.len(), got.sim_cycles), (jobs, Some(0)));
        }
    }

    #[test]
    fn hetero_routes_oversized_pairs_to_the_cpu() {
        let mut cfg = AccelConfig::wfasic_chip();
        cfg.max_supported_len = 64;
        let mut p = pairs(5, 48, 0x0E7E);
        // Pair 2 is far outside the device envelope.
        p[2] = Pair {
            id: p[2].id,
            a: pairs(1, 150, 1)[0].a.clone(),
            b: pairs(1, 150, 1)[0].b.clone(),
        };
        let mut backend = HeterogeneousBackend::new(cfg, 2);
        let got = backend
            .align_batch(&BatchJob::with_backtrace(p.clone()))
            .unwrap();
        assert!(got.results.iter().all(|r| r.success));
        assert!(
            got.results[2].recovered,
            "oversized pair took the CPU route"
        );
        assert!(
            got.results
                .iter()
                .enumerate()
                .all(|(i, r)| i == 2 || !r.recovered),
            "in-envelope pairs stayed on the accelerator"
        );
        let want = CpuWfaBackend::new(cfg.penalties).align(&p[2], true, false);
        assert_eq!(got.results[2].score, want.score);
        assert!(backend.counters().recovered_pairs >= 1);
    }

    #[test]
    fn strategy_round_trips_names() {
        for s in AlignStrategy::ALL {
            assert_eq!(AlignStrategy::parse(s.name()), Some(s));
            assert_eq!(s.name().parse::<AlignStrategy>(), Ok(s));
        }
        assert!(AlignStrategy::parse("banded").is_none());
        assert!("nope".parse::<AlignStrategy>().is_err());
    }

    #[test]
    fn cpu_backend_tallies_strategies_and_memory() {
        let p = pairs(4, 120, 0x7A11);
        let mut backend = CpuWfaBackend::new(Penalties::WFASIC_DEFAULT);
        backend
            .align_batch(&BatchJob::with_backtrace(p.clone()))
            .unwrap();
        let c = backend.counters();
        assert_eq!(c.exact_pairs, 4);
        assert_eq!(c.biwfa_pairs, 0);
        assert!(c.peak_memory_bytes > 0);

        backend.apply_policy(&AlignPolicy {
            strategy: AlignStrategy::BiWfa,
            ..AlignPolicy::default()
        });
        backend.align_batch(&BatchJob::with_backtrace(p)).unwrap();
        assert_eq!(backend.counters().biwfa_pairs, 4);
    }

    /// `Auto` keeps a 12 kb HiFi-like pair (1%) on the exact engine, its
    /// origins well inside the byte budget, and hands a 12 kb pair at 10%
    /// to BiWFA: tallied as a `biwfa` pair, with a forced BiWFA run's
    /// score. (The engine's own tests check that the answer's stats count
    /// the abandoned exact run.)
    #[test]
    fn hetero_auto_hands_pairs_past_the_byte_budget_to_biwfa() {
        let mut backend = HeterogeneousBackend::new(AccelConfig::wfasic_chip(), 2);
        let mut forced = CpuWfaBackend::new(Penalties::WFASIC_DEFAULT);
        forced.route.select = AlignStrategy::BiWfa;
        for (error_pct, seed, tallies) in [(1, 0xB1F4, (1, 0)), (10, 0xB1F5, (0, 1))] {
            let spec = InputSetSpec {
                length: 12_000,
                error_pct,
            };
            let p = spec.generate(1, seed).pairs;
            backend.reset_counters();
            let job = BatchJob::with_backtrace(p.clone());
            let got = &backend.align_batch(&job).unwrap().results[0];
            assert!(got.success && got.recovered, "{spec:?}");
            let cigar = got.cigar.as_ref().unwrap();
            cigar.check(&p[0].a.bytes(), &p[0].b.bytes()).unwrap();
            let c = backend.counters();
            assert_eq!((c.exact_pairs, c.biwfa_pairs), tallies, "{spec:?}");
            assert_eq!(got.score, forced.align(&p[0], false, false).score);
        }
    }

    #[test]
    fn policy_reaches_the_device_engines() {
        let policy = AlignPolicy {
            watchdog_cycles: 123,
            max_retries: 7,
            retry_backoff_cycles: 55,
            quarantine_threshold: 4,
            quarantine_cooldown: 1_000,
            retire_after: 2,
            cpu_fallback: true,
            collect_perf: true,
            force_separation: true,
            out_size: 4_096,
            strategy: AlignStrategy::BiWfa,
        };
        let mut dev = MultiLaneBackend::device(AccelConfig::wfasic_chip());
        dev.apply_policy(&policy);
        assert_eq!(dev.policy, policy);

        // The heterogeneous backend owns recovery itself.
        let mut hetero = HeterogeneousBackend::new(AccelConfig::wfasic_chip(), 2);
        hetero.apply_policy(&policy);
        let device_policy = AlignPolicy {
            cpu_fallback: false,
            ..policy
        };
        assert_eq!(hetero.accel.policy, device_policy);
        assert_eq!(hetero.cpu.route, CpuRoute::from_policy(&policy));
    }
}
