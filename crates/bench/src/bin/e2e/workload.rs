//! The three workloads: how their inputs are generated from the seed, which
//! backend serves them, and the oracle every answer is checked against.

use wfa_core::pool::ThreadPool;
use wfa_core::{swg_score, wfa_align_seqs, Penalties, WfaOptions};
use wfasic_accel::AccelConfig;
use wfasic_driver::{AlignmentResult, BackendKind, BatchJob};
use wfasic_seqio::{InputSetSpec, Pair, Technology};
use wfasic_service::{AlignmentService, ServiceConfig};

/// One service-level traffic shape (see README.md for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 600 bp / 10% pairs, backtrace on, one simulated WFAsic lane.
    DeviceBt,
    /// PacBio HiFi reads through the length-class router: BiWFA on the host
    /// CPU beside two device lanes.
    HeteroHifi,
    /// 150 bp / 5% pairs, score-only, on the exact software WFA.
    CpuShort,
}

/// How much of a workload one run generates and replays.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Distinct jobs in the pool the closed loop cycles through.
    pub jobs: usize,
    /// Pairs per job.
    pub pairs: usize,
    /// Jobs the traced run submits and replays (a fixed count, so the
    /// simulated and work counts repeat exactly).
    pub traced_jobs: usize,
    /// Cold starts, back to back on successive pool jobs, that one set-up
    /// sample averages (one sample per window): enough that a sample spans
    /// several milliseconds.
    pub setup_group: usize,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::DeviceBt, Workload::HeteroHifi, Workload::CpuShort];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DeviceBt => "device-bt",
            Workload::HeteroHifi => "hetero-hifi",
            Workload::CpuShort => "cpu-short",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The full-size shape the benchmark runs. The traced job counts keep
    /// a traced run near five seconds on a 2-vCPU host; the set-up samples
    /// add about 5% to the timed stream's wall-clock time.
    pub fn shape(self) -> Shape {
        match self {
            Workload::DeviceBt => Shape {
                jobs: 500,
                pairs: 28,
                traced_jobs: 150,
                setup_group: 1,
            },
            Workload::HeteroHifi => Shape {
                jobs: 500,
                pairs: 4,
                traced_jobs: 150,
                setup_group: 1,
            },
            Workload::CpuShort => Shape {
                jobs: 2000,
                pairs: 28,
                traced_jobs: 4000,
                setup_group: 50,
            },
        }
    }

    /// The device configuration every backend is built over.
    pub fn accel() -> AccelConfig {
        AccelConfig::wfasic_chip()
    }

    pub fn penalties() -> Penalties {
        Self::accel().penalties
    }

    pub fn backend_kind(self) -> BackendKind {
        match self {
            Workload::DeviceBt => BackendKind::Device,
            Workload::HeteroHifi => BackendKind::Heterogeneous,
            Workload::CpuShort => BackendKind::Cpu,
        }
    }

    /// Device lanes behind the backend (the hetero router runs two, one
    /// per host thread).
    pub fn lanes(self) -> usize {
        match self {
            Workload::HeteroHifi => 2,
            _ => 1,
        }
    }

    pub fn backtrace(self) -> bool {
        !matches!(self, Workload::CpuShort)
    }

    /// A fresh service over this workload's backend — the path `setup_s`
    /// times.
    pub fn service(self) -> AlignmentService {
        AlignmentService::with_backend(
            self.backend_kind(),
            Self::accel(),
            self.lanes(),
            ServiceConfig::default(),
        )
    }

    /// The job pool for `seed`: the same seed always gives the same jobs.
    pub fn generate(self, shape: Shape, seed: u64) -> Vec<BatchJob> {
        let n = shape.jobs * shape.pairs;
        // Decorrelate the workloads' streams for one seed.
        let seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ self as u64;
        let pairs = match self {
            Workload::DeviceBt => {
                InputSetSpec {
                    length: 600,
                    error_pct: 10,
                }
                .generate(n, seed)
                .pairs
            }
            Workload::HeteroHifi => Technology::PacBioHifi.pairs(n, seed),
            Workload::CpuShort => {
                InputSetSpec {
                    length: 150,
                    error_pct: 5,
                }
                .generate(n, seed)
                .pairs
            }
        };
        pairs
            .chunks(shape.pairs)
            .map(|chunk| BatchJob {
                pairs: chunk.to_vec(),
                backtrace: self.backtrace(),
                deadline: None,
            })
            .collect()
    }

    /// The expected score of every pair in `jobs`, from an engine other than
    /// the one under test: the SWG DP for `cpu-short` (whose engine is the
    /// exact WFA), the exact score-only WFA elsewhere (the device and BiWFA
    /// are the engines there). Computed on every host thread.
    pub fn oracle(self, jobs: &[BatchJob]) -> Vec<Vec<u32>> {
        let flat: Vec<&Pair> = jobs.iter().flat_map(|j| &j.pairs).collect();
        let p = Self::penalties();
        let scores = ThreadPool::host_sized().map(&flat, |_, pair| match self {
            Workload::CpuShort => {
                let s = swg_score(&pair.a.bytes(), &pair.b.bytes(), &p);
                u32::try_from(s).expect("a 150 bp score fits in u32")
            }
            _ => {
                wfa_align_seqs(&pair.a, &pair.b, &WfaOptions::score_only(p))
                    .expect("unbounded score-only WFA always completes")
                    .score
            }
        });
        let mut rest = scores.as_slice();
        jobs.iter()
            .map(|j| {
                let (head, tail) = rest.split_at(j.pairs.len());
                rest = tail;
                head.to_vec()
            })
            .collect()
    }
}

/// Is `r` a correct answer to `pair`? The score must equal the oracle's,
/// and with backtrace on the CIGAR must be a valid transcript of the pair
/// that rescores to that score.
pub fn answer_ok(pair: &Pair, r: &AlignmentResult, want: u32, backtrace: bool) -> bool {
    if r.id != pair.id || !r.success || r.score != want {
        return false;
    }
    if !backtrace {
        return true;
    }
    r.cigar.as_ref().is_some_and(|c| {
        c.check(&pair.a.bytes(), &pair.b.bytes()).is_ok()
            && c.score(&Workload::penalties()) == u64::from(want)
    })
}
