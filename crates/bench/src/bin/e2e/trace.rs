//! Host-time spans recorded from the benchmark's own code around calls into
//! each layer, kept in memory and written as Chrome `trace_event` JSON when
//! the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;
use wfasic_driver::{
    AlignPolicy, AlignmentBackend, BackendBatch, BackendCounters, BatchJob, Capabilities,
    DriverError, LaneHealth,
};

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The closed-loop sequence number of the job the span belongs to.
    pub job: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Pairs the span's work covered (0 when not pair-shaped).
    pub pairs: u32,
}

/// Span buffer with a stack of open spans; a span opened while another is
/// open becomes its child.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Job stamped on spans opened from now on.
    pub job: u64,
}

/// The recorder shared by the closed loop, the [`Traced`] backend and the
/// replay.
pub type Shared = Rc<RefCell<Recorder>>;

impl Recorder {
    pub fn shared() -> Shared {
        Rc::new(RefCell::new(Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            job: 0,
        }))
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, pairs: u32) -> usize {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            job: self.job,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            dur_ns: 0,
            pairs,
        });
        self.open.push(idx);
        idx
    }

    /// Close span `idx` (the innermost open one); returns its duration.
    pub fn end(&mut self, idx: usize) -> u64 {
        assert_eq!(self.open.pop(), Some(idx), "spans close innermost first");
        let now = self.now_ns();
        let span = &mut self.spans[idx];
        span.dur_ns = now - span.start_ns;
        span.dur_ns
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Run `f` inside a span; returns its result and the span's duration.
pub fn span<R>(rec: &Shared, name: &'static str, pairs: u32, f: impl FnOnce() -> R) -> (R, u64) {
    let idx = rec.borrow_mut().begin(name, pairs);
    let out = f();
    let ns = rec.borrow_mut().end(idx);
    (out, ns)
}

/// The real backend with a `backend.align_batch` span around each batch,
/// handed to `AlignmentService::new` in the traced run.
pub struct Traced {
    pub inner: Box<dyn AlignmentBackend>,
    pub rec: Shared,
}

impl AlignmentBackend for Traced {
    fn capabilities(&self) -> Capabilities {
        self.inner.capabilities()
    }

    fn align_batch(&mut self, job: &BatchJob) -> Result<BackendBatch, DriverError> {
        let inner = &mut self.inner;
        span(
            &self.rec,
            "backend.align_batch",
            job.pairs.len() as u32,
            || inner.align_batch(job),
        )
        .0
    }

    fn counters(&self) -> BackendCounters {
        self.inner.counters()
    }

    fn lane_health(&self) -> Vec<LaneHealth> {
        self.inner.lane_health()
    }

    fn reset_counters(&mut self) {
        self.inner.reset_counters();
    }

    fn apply_policy(&mut self, policy: &AlignPolicy) {
        self.inner.apply_policy(policy);
    }
}

/// For every job in `jobs` (ascending), the summed duration of its spans
/// called `name`, 0 where it has none.
pub fn per_job_ns(spans: &[Span], name: &str, jobs: &[u64]) -> Vec<u64> {
    let mut sums: BTreeMap<u64, u64> = jobs.iter().map(|&j| (j, 0)).collect();
    for s in spans.iter().filter(|s| s.name == name) {
        if let Some(sum) = sums.get_mut(&s.job) {
            *sum += s.dur_ns;
        }
    }
    sums.into_values().collect()
}

/// Nanoseconds per pair of every span called `name`.
pub fn per_pair_ns(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name && s.pairs > 0)
        .map(|s| s.dur_ns as f64 / s.pairs as f64)
        .collect()
}

/// Chrome `trace_event` JSON: one complete event per span on host process
/// 1, so it sits beside `report -- trace`'s simulated timeline (process 0)
/// in Perfetto. Timestamps are microseconds.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from(
        "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\
         {\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
         \"args\":{\"name\":\"host (e2e benchmark)\"}}",
    );
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(-1, |p| p as i64);
        out.push_str(&format!(
            ",{{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"name\":\"{}\",\"cat\":\"host\",\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"job\":{},\"span\":{i},\
             \"parent\":{parent},\"pairs\":{}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3,
            s.job,
            s.pairs
        ));
    }
    out.push_str("]}");
    out
}
