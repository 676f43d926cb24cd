//! # wfasic-service — the streaming alignment engine
//!
//! One layer above the backends: [`AlignmentService`] owns an
//! [`AlignmentBackend`], a bounded submission queue with backpressure, and
//! the watchdog/retry/fallback/perf policy — the single place that policy
//! lives, instead of being re-plumbed at every call site.
//!
//! ```text
//!  CLI / bench / tests
//!          │  submit(BatchJob) ─── Err(Backpressure) when the queue is full
//!          ▼
//!  AlignmentService            bounded queue · submission-order results
//!          │  align_batch()    · per-backend counters · AlignPolicy
//!          ▼
//!  dyn AlignmentBackend        cpu │ swg │ device │ multilane │ hetero
//! ```
//!
//! Results stream back in **submission order** ([`AlignmentService::try_next`]
//! completes the oldest queued job), so a caller interleaving submissions
//! and completions sees exactly the order it produced — regardless of which
//! engine, how many lanes, or how many CPU workers answered.

use std::collections::VecDeque;
use wfasic_accel::AccelConfig;
use wfasic_driver::backend::{
    AlignPolicy, AlignmentBackend, BackendBatch, BackendCounters, BackendKind,
};
use wfasic_driver::batch::{BatchJob, LaneHealth};
use wfasic_driver::faults::{FaultClass, FaultLayer, Provenance};
use wfasic_driver::DriverError;

pub use wfasic_driver::backend;

/// How an [`AlignmentService`] is tuned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Jobs the submission queue holds before [`ServiceError::Backpressure`].
    pub queue_depth: usize,
    /// Watchdog / retry / fallback / perf policy installed on the backend.
    pub policy: AlignPolicy,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_depth: 64,
            policy: AlignPolicy::default(),
        }
    }
}

/// A submitted job's handle: tickets are issued in submission order and
/// completed jobs come back carrying them, so callers can re-associate
/// results without bookkeeping of their own.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ticket(pub u64);

/// Why the service refused a submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The bounded queue is full — complete some jobs ([`AlignmentService::
    /// try_next`]) before submitting more.
    Backpressure {
        /// The configured queue depth.
        depth: usize,
    },
}

impl ServiceError {
    /// Which layer / lane / fault class this refusal belongs to — the same
    /// attribution key [`DriverError::provenance`] produces, so every
    /// non-success in the stack lands in one taxonomy.
    pub fn provenance(&self) -> Provenance {
        match self {
            ServiceError::Backpressure { .. } => {
                Provenance::of(FaultLayer::Service, FaultClass::Backpressure)
            }
        }
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Backpressure { depth } => {
                write!(f, "submission queue full ({depth} jobs queued)")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

/// One completed job, streamed back in submission order.
#[derive(Debug)]
pub struct CompletedJob {
    /// The handle [`AlignmentService::submit`] issued for this job.
    pub ticket: Ticket,
    /// The backend's answer — or the [`DriverError`] that survived the
    /// service's policy (retries exhausted, fallback off).
    pub outcome: Result<BackendBatch, DriverError>,
}

/// Service-level statistics (the backend's own counters are available via
/// [`AlignmentService::backend_counters`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Jobs accepted into the queue.
    pub submitted: u64,
    /// Jobs completed (either outcome).
    pub completed: u64,
    /// Submissions refused with [`ServiceError::Backpressure`].
    pub rejected: u64,
    /// Completed jobs whose outcome was an error.
    pub failed: u64,
    /// Completed jobs refused with [`DriverError::DeadlineExceeded`]
    /// (a subset of `failed`): the budget ran out before an answer existed.
    pub deadline_refused: u64,
}

/// The streaming engine: a bounded queue in front of one backend.
pub struct AlignmentService {
    backend: Box<dyn AlignmentBackend>,
    cfg: ServiceConfig,
    queue: VecDeque<(Ticket, BatchJob)>,
    next_ticket: u64,
    stats: ServiceStats,
}

impl AlignmentService {
    /// A service over an existing backend. The config's policy is applied
    /// to the backend immediately.
    pub fn new(mut backend: Box<dyn AlignmentBackend>, cfg: ServiceConfig) -> Self {
        backend.apply_policy(&cfg.policy);
        AlignmentService {
            backend,
            cfg,
            queue: VecDeque::new(),
            next_ticket: 0,
            stats: ServiceStats::default(),
        }
    }

    /// Build the named backend over `lanes` device lanes and wrap it.
    pub fn with_backend(
        kind: BackendKind,
        accel: AccelConfig,
        lanes: usize,
        cfg: ServiceConfig,
    ) -> Self {
        Self::new(kind.create(accel, lanes), cfg)
    }

    /// The backend's envelope and identity.
    pub fn capabilities(&self) -> backend::Capabilities {
        self.backend.capabilities()
    }

    /// Queue a job. Fails with [`ServiceError::Backpressure`] when the
    /// bounded queue is full — the caller must drain completions first.
    pub fn submit(&mut self, job: BatchJob) -> Result<Ticket, ServiceError> {
        if self.queue.len() >= self.cfg.queue_depth {
            self.stats.rejected += 1;
            return Err(ServiceError::Backpressure {
                depth: self.cfg.queue_depth,
            });
        }
        let ticket = Ticket(self.next_ticket);
        self.next_ticket += 1;
        self.queue.push_back((ticket, job));
        self.stats.submitted += 1;
        Ok(ticket)
    }

    /// Jobs waiting in the queue.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Complete the **oldest** queued job (submission-order streaming), or
    /// `None` when the queue is empty.
    pub fn try_next(&mut self) -> Option<CompletedJob> {
        let (ticket, job) = self.queue.pop_front()?;
        let outcome = self.backend.align_batch(&job);
        self.stats.completed += 1;
        if let Err(e) = &outcome {
            self.stats.failed += 1;
            if matches!(e, DriverError::DeadlineExceeded { .. }) {
                self.stats.deadline_refused += 1;
            }
        }
        Some(CompletedJob { ticket, outcome })
    }

    /// Complete every queued job, in submission order.
    pub fn drain(&mut self) -> Vec<CompletedJob> {
        let mut done = Vec::with_capacity(self.queue.len());
        while let Some(job) = self.try_next() {
            done.push(job);
        }
        done
    }

    /// Push a whole workload through with backpressure handled internally:
    /// whenever the queue fills, the oldest jobs are completed to make
    /// room. Returns every completion in submission order.
    pub fn stream<I>(&mut self, jobs: I) -> Vec<CompletedJob>
    where
        I: IntoIterator<Item = BatchJob>,
    {
        let mut done = Vec::new();
        for job in jobs {
            while self.queue.len() >= self.cfg.queue_depth {
                let completed = self
                    .try_next()
                    .expect("a full queue always has a job to complete");
                done.push(completed);
            }
            self.submit(job).expect("the queue has room after draining");
        }
        done.extend(self.drain());
        done
    }

    /// Service-level statistics.
    pub fn stats(&self) -> ServiceStats {
        self.stats
    }

    /// The backend's lifetime counters, including the fault/health ledger
    /// of any device lanes behind it (injected-fault counts, quarantine and
    /// re-admission events, CPU degradations, deadline refusals).
    pub fn backend_counters(&self) -> BackendCounters {
        self.backend.counters()
    }

    /// Per-lane circuit-breaker health of the backend's device lanes
    /// (empty for pure software engines).
    pub fn lane_health(&self) -> Vec<LaneHealth> {
        self.backend.lane_health()
    }

    /// Replace the policy (re-applied to the backend).
    #[cfg(test)]
    fn set_policy(&mut self, policy: AlignPolicy) {
        self.cfg.policy = policy;
        self.backend.apply_policy(&policy);
    }

    /// Direct access to the backend (fault-plan installation in tests).
    pub fn backend_mut(&mut self) -> &mut dyn AlignmentBackend {
        &mut *self.backend
    }
}

impl std::fmt::Debug for AlignmentService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AlignmentService")
            .field("backend", &self.backend.capabilities().name)
            .field("cfg", &self.cfg)
            .field("queued", &self.queue.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfasic_seqio::dataset::InputSetSpec;
    use wfasic_seqio::generate::Pair;

    fn jobs(n: usize, pairs_each: usize) -> Vec<BatchJob> {
        (0..n)
            .map(|i| {
                let mut set = InputSetSpec {
                    length: 80,
                    error_pct: 5,
                }
                .generate(pairs_each, 0x5EED ^ i as u64);
                for (k, p) in set.pairs.iter_mut().enumerate() {
                    p.id = (i * pairs_each + k) as u32;
                }
                BatchJob::score_only(set.pairs)
            })
            .collect()
    }

    fn service(kind: BackendKind, depth: usize) -> AlignmentService {
        AlignmentService::with_backend(
            kind,
            AccelConfig::wfasic_chip(),
            2,
            ServiceConfig {
                queue_depth: depth,
                ..ServiceConfig::default()
            },
        )
    }

    #[test]
    fn results_stream_in_submission_order() {
        let mut svc = service(BackendKind::Cpu, 8);
        let workload = jobs(5, 3);
        let want: Vec<Vec<u32>> = workload
            .iter()
            .map(|j| j.pairs.iter().map(|p| p.id).collect())
            .collect();
        let done = svc.stream(workload);
        assert_eq!(done.len(), 5);
        for (i, c) in done.iter().enumerate() {
            assert_eq!(c.ticket, Ticket(i as u64));
            let ids: Vec<u32> = c
                .outcome
                .as_ref()
                .unwrap()
                .results
                .iter()
                .map(|r| r.id)
                .collect();
            assert_eq!(ids, want[i]);
        }
        assert_eq!(svc.stats().submitted, 5);
        assert_eq!(svc.stats().completed, 5);
        assert_eq!(svc.backend_counters().pairs, 15);
    }

    #[test]
    fn bounded_queue_pushes_back() {
        let mut svc = service(BackendKind::Cpu, 2);
        let mut w = jobs(3, 1).into_iter();
        svc.submit(w.next().unwrap()).unwrap();
        svc.submit(w.next().unwrap()).unwrap();
        let err = svc.submit(w.next().unwrap()).unwrap_err();
        assert_eq!(err, ServiceError::Backpressure { depth: 2 });
        assert_eq!(svc.stats().rejected, 1);
        // Completing the oldest job frees a slot.
        let c = svc.try_next().unwrap();
        assert_eq!(c.ticket, Ticket(0));
        assert!(svc.submit(jobs(1, 1).remove(0)).is_ok());
        assert_eq!(svc.drain().len(), 2);
    }

    #[test]
    fn stream_handles_backpressure_internally() {
        let mut svc = service(BackendKind::Device, 2);
        let done = svc.stream(jobs(7, 2));
        assert_eq!(done.len(), 7);
        let tickets: Vec<u64> = done.iter().map(|c| c.ticket.0).collect();
        assert_eq!(tickets, vec![0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(svc.stats().rejected, 0, "stream never bounces a job");
        assert!(svc.backend_counters().sim_cycles > 0);
    }

    #[test]
    fn policy_flows_through_to_the_backend() {
        let mut svc = service(BackendKind::Device, 4);
        svc.set_policy(AlignPolicy {
            watchdog_cycles: 10, // everything times out
            max_retries: 0,
            cpu_fallback: false,
            ..AlignPolicy::default()
        });
        let done = svc.stream(jobs(1, 2));
        assert!(matches!(
            done[0].outcome,
            Err(DriverError::Timeout { watchdog: 10, .. })
        ));
        assert_eq!(svc.stats().failed, 1);

        // Same workload with fallback on: the service's policy turns the
        // timeout into recovered software answers.
        let mut svc = service(BackendKind::Device, 4);
        svc.set_policy(AlignPolicy {
            watchdog_cycles: 10,
            max_retries: 0,
            cpu_fallback: true,
            ..AlignPolicy::default()
        });
        let done = svc.stream(jobs(1, 2));
        let batch = done[0].outcome.as_ref().unwrap();
        assert!(batch.results.iter().all(|r| r.success && r.recovered));
    }

    #[test]
    fn hetero_service_answers_out_of_envelope_jobs() {
        let mut accel = AccelConfig::wfasic_chip();
        accel.max_supported_len = 48;
        let mut svc = AlignmentService::with_backend(
            BackendKind::Heterogeneous,
            accel,
            2,
            ServiceConfig::default(),
        );
        // 100bp pairs are outside the 48-base device envelope.
        let set = InputSetSpec {
            length: 100,
            error_pct: 5,
        }
        .generate(4, 7);
        let done = svc.stream([BatchJob::with_backtrace(set.pairs.clone())]);
        let batch = done[0].outcome.as_ref().unwrap();
        assert!(batch.results.iter().all(|r| r.success && r.recovered));
        let ids: Vec<u32> = batch.results.iter().map(|r| r.id).collect();
        let want: Vec<u32> = set.pairs.iter().map(|p| p.id).collect();
        assert_eq!(ids, want);
    }

    #[test]
    fn ticket_ordering_is_stable() {
        let a = Ticket(1);
        let b = Ticket(2);
        assert!(a < b);
        let p = Pair::new(9, b"ACGT".to_vec(), b"ACGT".to_vec());
        let mut svc = service(BackendKind::Swg, 1);
        let t = svc.submit(BatchJob::score_only(vec![p])).unwrap();
        assert_eq!(t, Ticket(0));
        assert_eq!(svc.queued(), 1);
        let c = svc.try_next().unwrap();
        assert_eq!(c.outcome.unwrap().results[0].score, 0);
    }
}
