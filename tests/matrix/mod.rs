//! The oracle matrix: every alignment engine in the workspace, checked
//! against one golden model over one seeded grid.
//!
//! This is the paper's §5.1 verification flow made declarative: one golden
//! model ([`swg_score`], the classic SWG dynamic program, algorithmically
//! unrelated to the wavefront engines), one self-checking loop, run across
//! every input-set shape and hardware configuration.
//!
//! * The **grid** ([`grid`]) is built once per process from fixed seeds:
//!   three penalty sets over the differential shapes (224 pairs per shape,
//!   jobs of 28), the paper's six input-set shapes with backtrace on and
//!   off, random mutated pairs of 0–120 bp (empty sides included) in jobs
//!   of one and of two to five pairs, and long pairs past BiWFA's exact
//!   cutoff (one PacBio HiFi, one Nanopore, and four gap-only pairs at 20%
//!   error). A slice's SWG scores are computed once, on first use.
//! * Each **row** is an engine behind the streaming service, built once
//!   per penalty set and reused for every slice it admits. It declares its
//!   [`Contract`]s and which slices it admits. The rows are the `rows!`
//!   table below, so a new engine is a new row.
//! * A test runs [`check`] on some rows and a slice filter. The test
//!   binaries that include this module hold those tests.
//!
//! A failure names the row, the contract, the slice and its seed, and the
//! pair id. Debug builds (`cargo test`) shorten the differential shapes so
//! the cycle-level model stays fast; release builds run them at
//! 100/250/600 bp.

use std::sync::OnceLock;
use wfasic::accel::AccelConfig;
use wfasic::driver::{
    AlignPolicy, AlignStrategy, AlignmentResult, BackendCounters, BackendKind, BatchJob,
};
use wfasic::seqio::{ErrorProfile, InputSetSpec, Pair, PairGenerator, Technology};
use wfasic::service::{AlignmentService, ServiceConfig};
use wfasic::wfa::pool::ThreadPool;
use wfasic::wfa::rng::SmallRng;
use wfasic::wfa::{swg_score, Penalties};
use AlignStrategy::*;
use BackendKind::*;
use Contract::*;
use Kind::*;

/// Pairs per (penalty set × differential shape) slice.
pub const PAIRS_PER_SHAPE: usize = 224;
/// Shrinking the differential slices below 2,000 pairs through the device
/// rows is a build error, not a silent coverage loss.
const _DEVICE_ROWS_SEE_AT_LEAST_TWO_THOUSAND_PAIRS: () = assert!(3 * 3 * PAIRS_PER_SHAPE >= 2000);

/// Which part of the grid a slice belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A differential shape under one penalty set, in jobs of 28 pairs.
    Sweep,
    /// One of the paper's six input-set shapes, one job of 4 pairs.
    Paper,
    /// Random mutated pairs, one pair per job.
    RandomOne,
    /// Random mutated pairs, 2–5 pairs per job.
    RandomFew,
    /// Pairs past BiWFA's 1,024-base exact cutoff: one 2–6 kb HiFi pair
    /// and one 2.5 kb Nanopore pair, and four 1.5 kb gap-only pairs at 20%
    /// error.
    Long,
}

/// One seeded slice of the grid: jobs of pairs under one penalty set.
pub struct Slice {
    pub kind: Kind,
    name: String,
    seed: u64,
    pub penalties: Penalties,
    /// Nominal read length (0 for random pairs).
    length: usize,
    pub backtrace: bool,
    jobs: Vec<Vec<Pair>>,
    /// The golden SWG score of every pair, in job order.
    swg: OnceLock<Vec<u64>>,
}

impl Slice {
    fn pairs(&self) -> impl Iterator<Item = &Pair> {
        self.jobs.iter().flatten()
    }

    /// The slice's name and seed, for failure messages.
    fn label(&self) -> String {
        format!("slice {} (seed {:#x})", self.name, self.seed)
    }

    /// The golden SWG score of every pair, computed on first use.
    fn swg(&self) -> &[u64] {
        self.swg.get_or_init(|| {
            let pairs: Vec<&Pair> = self.pairs().collect();
            ThreadPool::host_sized().map(&pairs, |_, pair| {
                swg_score(&pair.a.bytes(), &pair.b.bytes(), &self.penalties)
            })
        })
    }
}

/// What a row's answers must satisfy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Contract {
    /// Success, with the score equal to `swg_score`.
    Score,
    /// With backtrace on, a successful pair has a CIGAR that passes
    /// `check` and whose `score(p)` equals the reported score.
    Cigar,
    /// Id, success, score and CIGAR equal the chip `device` row's.
    SameTranscript,
    /// Success iff the SWG score is at most the engine's `Score_max`, and
    /// the score is exact when it succeeds.
    HonestFailure,
    /// The engine tallies one BiWFA pair per pair.
    BiwfaTally,
}

/// A row's engine: a backend behind the streaming service.
struct Engine {
    svc: AlignmentService,
    /// Stream each slice as one job, which the backend re-chunks, instead
    /// of job by job.
    whole_slice: bool,
}

/// One engine of the matrix.
struct Row {
    name: &'static str,
    /// Builds the engine for one penalty set.
    engine: fn(Penalties) -> Engine,
    /// The slices of the grid this row runs.
    admits: fn(&Slice) -> bool,
    contracts: &'static [Contract],
}

/// A row's answers on the slices it ran.
struct Answers {
    /// `(slice index, results in job order)`.
    slices: Vec<(usize, Vec<AlignmentResult>)>,
    /// `Score_max` of the row's engine (the same for every penalty set).
    score_max: Option<u32>,
    /// The lifetime counters of each engine the row built.
    counters: Vec<BackendCounters>,
}

/// The chip with `p` as its penalty set.
fn chip(p: Penalties) -> AccelConfig {
    AccelConfig {
        penalties: p,
        ..AccelConfig::wfasic_chip()
    }
}

/// A `kind` backend over `cfg` on `lanes` lanes, behind the service with
/// CPU-routed pairs on `strategy`, fed job by job.
fn on(kind: BackendKind, cfg: AccelConfig, lanes: usize, strategy: AlignStrategy) -> Engine {
    let policy = AlignPolicy {
        strategy,
        ..AlignPolicy::default()
    };
    let cfg_svc = ServiceConfig {
        policy,
        ..ServiceConfig::default()
    };
    let svc = AlignmentService::new(kind.create(cfg, lanes), cfg_svc);
    Engine {
        svc,
        whole_slice: false,
    }
}

/// The row whose answers [`Contract::SameTranscript`] compares against.
const DEVICE: &str = "device";

/// The rows, as one table.
macro_rules! rows {
    ($($name:ident: $engine:expr, $admits:expr, $contracts:expr;)*) => {
        const ROWS: &[Row] = &[$(Row {
            name: stringify!($name),
            engine: $engine,
            admits: $admits,
            contracts: $contracts,
        }),*];
    };
}

rows! {
    device: |p| on(Device, chip(p), 1, Auto), |s| s.kind != Long, &[Score, Cigar];
    swg: |p| on(Swg, chip(p), 1, Auto),
        |s| s.kind != Long && s.penalties == Penalties::WFASIC_DEFAULT, &[Score, Cigar];
    exact: |p| on(Cpu, chip(p), 1, Exact), |_| true, &[Score, Cigar];
    biwfa: |p| on(Cpu, chip(p), 1, BiWfa), |_| true, &[Score, Cigar, BiwfaTally];
    riscv: |p| on(Riscv, chip(p), 1, Auto), |s| s.kind == Paper && s.length == 100, &[Score, Cigar];
    multilane: |p| Engine { whole_slice: true, ..on(MultiLane, chip(p), 4, Auto) },
        |s| s.kind == Sweep, &[Score, Cigar, SameTranscript];
    hetero: |p| on(Heterogeneous, chip(p), 2, Auto),
        |s| s.kind == Sweep && s.penalties == Penalties::WFASIC_DEFAULT,
        &[Score, Cigar, SameTranscript];
    device_2a_32ps: |p| on(Device, chip(p).with_aligners(2).with_parallel_sections(32), 1, Auto),
        |s| matches!(s.kind, Paper | RandomFew), &[Score, Cigar];
    device_3a_64ps: |p| on(Device, chip(p).with_aligners(3).with_parallel_sections(64), 1, Auto),
        |s| matches!(s.kind, Paper | RandomFew), &[Score, Cigar];
    device_4a_16ps: |p| on(Device, chip(p).with_aligners(4).with_parallel_sections(16), 1, Auto),
        |s| matches!(s.kind, Paper | RandomFew), &[Score, Cigar];
    device_2a_8ps: |p| on(Device, chip(p).with_aligners(2).with_parallel_sections(8), 1, Auto),
        |s| matches!(s.kind, Paper | RandomFew), &[Score, Cigar];
    device_1a_1ps: |p| on(Device, chip(p).with_parallel_sections(1), 1, Auto),
        |s| s.kind == Paper && s.backtrace, &[Score, Cigar];
    device_8ps: |p| on(Device, chip(p).with_parallel_sections(8), 1, Auto),
        |s| s.kind == RandomOne, &[Score, Cigar, SameTranscript];
    device_16ps: |p| on(Device, chip(p).with_parallel_sections(16), 1, Auto),
        |s| s.kind == RandomOne, &[Score, Cigar, SameTranscript];
    device_32ps: |p| on(Device, chip(p).with_parallel_sections(32), 1, Auto),
        |s| s.kind == RandomOne, &[Score, Cigar, SameTranscript];
    device_k12: |p| on(Device, AccelConfig { k_max: 12, ..chip(p) }, 1, Auto),
        |s| matches!(s.kind, RandomOne | RandomFew) || (s.kind == Paper && s.length == 100),
        &[HonestFailure, Cigar];
}

/// The row called `name`.
fn row(name: &str) -> &'static Row {
    let row = ROWS.iter().find(|r| r.name == name);
    row.unwrap_or_else(|| panic!("no row {name} in the matrix"))
}

/// Run the rows called `names` over every slice they admit that `pick`
/// keeps, and check each row's contracts. The chip `device` row runs once
/// over the union of those slices when a row compares transcripts with it
/// or is it. Returns the number of pairs checked per row.
pub fn check(names: &[&str], pick: impl Fn(&Slice) -> bool) -> Vec<u64> {
    let rows: Vec<&Row> = names.iter().map(|name| row(name)).collect();
    let picked = |row: &Row| -> Vec<usize> {
        let admitted = grid().iter().enumerate();
        let admitted = admitted.filter(|(_, s)| (row.admits)(s) && pick(s));
        admitted.map(|(i, _)| i).collect()
    };
    let referenced = rows
        .iter()
        .filter(|r| r.name == DEVICE || r.contracts.contains(&SameTranscript));
    let mut reference: Vec<usize> = referenced.flat_map(|r| picked(r)).collect();
    reference.sort_unstable();
    reference.dedup();
    let device = (!reference.is_empty()).then(|| run(row(DEVICE), &reference));
    let verified = rows.iter().map(|r| match (&device, r.name == DEVICE) {
        (Some(device), true) => verify(r, device, None),
        _ => verify(r, &run(r, &picked(r)), device.as_ref()),
    });
    verified.collect()
}

/// Run a row over the grid slices `slices`, building its engine once per
/// penalty set.
fn run(row: &Row, slices: &[usize]) -> Answers {
    assert!(!slices.is_empty(), "row {} admits no slice", row.name);
    let mut engines: Vec<(Penalties, Engine)> = Vec::new();
    let mut answers = Vec::new();
    for &i in slices {
        let slice = &grid()[i];
        assert!(
            (row.admits)(slice),
            "row {} runs {}",
            row.name,
            slice.label()
        );
        let p = slice.penalties;
        if !engines.iter().any(|(q, _)| *q == p) {
            engines.push((p, (row.engine)(p)));
        }
        let (_, Engine { svc, whole_slice }) = engines.iter_mut().find(|(q, _)| *q == p).unwrap();
        let jobs = match whole_slice {
            true => vec![slice.pairs().cloned().collect()],
            false => slice.jobs.clone(),
        };
        let jobs = jobs.into_iter().map(|pairs| BatchJob {
            pairs,
            backtrace: slice.backtrace,
            deadline: None,
        });
        let mut results = Vec::new();
        for done in svc.stream(jobs) {
            let refused = |e| panic!("row {}, {}: job refused: {e}", row.name, slice.label());
            let batch = done.outcome.unwrap_or_else(refused);
            results.extend(batch.results);
        }
        answers.push((i, results));
    }
    let score_max = engines[0].1.svc.capabilities().score_max;
    let counters = engines.iter().map(|(_, e)| e.svc.backend_counters());
    let counters = counters.collect();
    Answers {
        slices: answers,
        score_max,
        counters,
    }
}

/// Check a row's answers against every contract it declares, with
/// `device`'s answers as the [`Contract::SameTranscript`] reference.
/// Returns the number of pairs checked.
fn verify(row: &Row, answers: &Answers, device: Option<&Answers>) -> u64 {
    let (mut pairs, mut failed) = (0u64, 0u64);
    for (i, results) in &answers.slices {
        let slice = &grid()[*i];
        let reference = row.contracts.contains(&SameTranscript).then(|| {
            let slices = &device.expect("the device row ran").slices;
            let missing = || panic!("row {}: device does not run {}", row.name, slice.name);
            &slices
                .iter()
                .find(|(j, _)| j == i)
                .unwrap_or_else(missing)
                .1
        });
        let count = (results.len(), slice.swg().len());
        assert_eq!(count.0, count.1, "row {}, slice {}", row.name, slice.name);
        for (k, ((pair, res), &swg)) in slice.pairs().zip(results).zip(slice.swg()).enumerate() {
            let fail = |contract: &str, why: String| -> ! {
                let (row, at, id) = (row.name, slice.label(), pair.id);
                panic!("row {row}, contract {contract}, {at}, pair {id}: {why}")
            };
            pairs += 1;
            failed += u64::from(!res.success);
            if res.id != pair.id {
                fail("Order", format!("answered as pair {}", res.id));
            }
            let score = u64::from(res.score);
            let got = || format!("success {} score {score} vs SWG {swg}", res.success);
            for &c in row.contracts {
                let broken = match c {
                    Score => (!res.success || score != swg).then(got),
                    HonestFailure => {
                        let max = u64::from(answers.score_max.expect("a device row"));
                        let honest = match swg <= max {
                            true => res.success && score == swg,
                            false => !res.success,
                        };
                        (!honest).then(|| format!("{}, Score_max {max}", got()))
                    }
                    Cigar if slice.backtrace && res.success => match &res.cigar {
                        None => Some("no CIGAR".into()),
                        Some(cigar) => match cigar.check(&pair.a.bytes(), &pair.b.bytes()) {
                            Err(e) => Some(format!("CIGAR does not replay: {e:?}")),
                            Ok(()) => {
                                let cost = cigar.score(&slice.penalties);
                                (cost != score).then(|| format!("CIGAR costs {cost} vs {score}"))
                            }
                        },
                    },
                    SameTranscript => {
                        let want = &reference.expect("looked up above")[k];
                        let got = (res.id, res.success, res.score, &res.cigar);
                        let want_key = (want.id, want.success, want.score, &want.cigar);
                        (got != want_key).then(|| format!("{got:?} vs device {want:?}"))
                    }
                    Cigar | BiwfaTally => None,
                };
                if let Some(why) = broken {
                    fail(&format!("{c:?}"), why);
                }
            }
        }
    }
    let tally = |f: fn(&BackendCounters) -> u64| answers.counters.iter().map(f).sum::<u64>();
    assert_eq!(tally(|c| c.pairs), pairs, "row {}: pairs tallied", row.name);
    if row.contracts.contains(&BiwfaTally) {
        let biwfa = tally(|c| c.biwfa_pairs);
        assert_eq!(biwfa, pairs, "row {}, contract BiwfaTally", row.name);
    }
    if row.contracts.contains(&HonestFailure) {
        let (row, both) = (row.name, failed > 0 && failed < pairs);
        assert!(
            both,
            "row {row}, contract HonestFailure: {failed} of {pairs} failed"
        );
    }
    pairs
}

/// A random pair: `a` of 0–120 bases, `b` a copy of it with 0–9 random
/// substitutions, insertions and deletions.
fn mutated_pair(rng: &mut SmallRng) -> Pair {
    let len = rng.gen_range(0, 121);
    let a: Vec<u8> = (0..len).map(|_| *rng.pick(b"ACGT")).collect();
    let mut b = a.clone();
    for _ in 0..rng.gen_range(0, 10) {
        if b.is_empty() {
            b.push(*rng.pick(b"ACGT"));
            continue;
        }
        let at = rng.gen_range(0, b.len());
        match rng.gen_range(0, 3) {
            0 => b[at] = *rng.pick(b"ACGT"),
            1 => b.insert(at, *rng.pick(b"ACGT")),
            _ => {
                b.remove(at);
            }
        }
    }
    Pair::new(0, a, b)
}

/// 40 random jobs of `sizes` pairs each, numbered in order. The first job
/// holds two empty sides, and the next two one empty side each.
fn random_jobs(seed: u64, sizes: std::ops::RangeInclusive<usize>) -> Vec<Vec<Pair>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut jobs: Vec<Vec<Pair>> = (0..40)
        .map(|_| {
            let n = rng.gen_range(*sizes.start(), *sizes.end() + 1);
            (0..n).map(|_| mutated_pair(&mut rng)).collect()
        })
        .collect();
    let empty = [(&b""[..], &b""[..]), (b"", b"ACGTTA"), (b"GATTACA", b"")];
    for (job, (a, b)) in jobs.iter_mut().zip(empty) {
        job[0] = Pair::new(0, a.to_vec(), b.to_vec());
    }
    for (id, pair) in jobs.iter_mut().flatten().enumerate() {
        pair.id = id as u32;
    }
    jobs
}

/// The grid, built once per process: every slice, its golden scores left
/// to first use.
fn grid() -> &'static [Slice] {
    static GRID: OnceLock<Vec<Slice>> = OnceLock::new();
    GRID.get_or_init(|| {
        let default = Penalties::WFASIC_DEFAULT;
        let slice = |kind, name: String, seed, penalties, length, backtrace, jobs| Slice {
            kind,
            name,
            seed,
            penalties,
            length,
            backtrace,
            jobs,
            swg: OnceLock::new(),
        };
        let mut grid = Vec::new();
        // The differential shapes, 2/5/10% error, shortened in debug
        // builds, under the chip default, mismatch-heavy and gap-heavy
        // penalty sets.
        let lengths = match cfg!(debug_assertions) {
            true => [48, 100, 150],
            false => [100, 250, 600],
        };
        let shapes = [(lengths[0], 2), (lengths[1], 5), (lengths[2], 10)];
        let penalties = [
            default,
            Penalties::new(7, 4, 1).unwrap(),
            Penalties::new(2, 8, 3).unwrap(),
        ];
        for (pi, p) in penalties.into_iter().enumerate() {
            for (si, (length, error_pct)) in shapes.into_iter().enumerate() {
                let spec = InputSetSpec { length, error_pct };
                let seed = (0xD1FF_0001 + pi as u64) ^ ((si as u64) << 8);
                let pairs = spec.generate(PAIRS_PER_SHAPE, seed).pairs;
                let jobs = pairs.chunks(28).map(<[Pair]>::to_vec).collect();
                let name = format!("sweep ({},{},{}) {}", p.x, p.o, p.e, spec.name());
                grid.push(slice(Sweep, name, seed, p, spec.length, true, jobs));
            }
        }
        for backtrace in [false, true] {
            for length in [100, 250, 600] {
                for error_pct in [5, 10] {
                    let spec = InputSetSpec { length, error_pct };
                    let seed = 0x5E7_0000 ^ ((length as u64) << 8) ^ error_pct as u64;
                    let jobs = vec![spec.generate(4, seed).pairs];
                    let name = format!("paper {} bt={backtrace}", spec.name());
                    grid.push(slice(Paper, name, seed, default, length, backtrace, jobs));
                }
            }
        }
        for (kind, seed, sizes, backtrace) in [
            (RandomOne, 0x5151_0001, 1..=1, true),
            (RandomFew, 0x5151_0002, 2..=5, false),
        ] {
            let name = format!("random {sizes:?} pairs/job");
            let jobs = random_jobs(seed, sizes);
            grid.push(slice(kind, name, seed, default, 0, backtrace, jobs));
        }
        // Long reads past BiWFA's exact cutoff: a HiFi pair, and a 2.5 kb
        // gap-heavy Nanopore pair whose top-level meet proves its optimum
        // on a D–D touch.
        let seed = 0xB1F4;
        let hifi = Technology::PacBioHifi.pairs_with_nominal(1, seed, 4_000);
        let ont = Technology::Nanopore.pairs_with_nominal(1, 0x0A87, 2_000);
        let jobs = vec![hifi, ont];
        assert!(jobs.iter().all(|j| j[0].a.len().min(j[0].b.len()) > 1_024));
        let name = "hifi 2-6kb + nanopore 2.5kb (seed 0xa87)".to_string();
        grid.push(slice(Long, name, seed, default, 4_000, true, jobs));
        // Four gap-only 1.5 kb pairs at 20% error under a gap-heavy penalty
        // set. They guard BiWFA's stop rule: a top-level meet that stopped
        // at its first touch, or at half its horizon, answers two of them
        // one above the optimum.
        let (seed, gap_heavy) = (7, Penalties::new(2, 3, 1).unwrap());
        let gaps = ErrorProfile {
            mismatch: 0.0,
            ..ErrorProfile::default()
        };
        let jobs = vec![PairGenerator::new(1_500, 0.2, seed)
            .with_profile(gaps)
            .pairs(4)];
        let name = "gap-only 1.5kb 20% (2,3,1)".to_string();
        grid.push(slice(Long, name, seed, gap_heavy, 1_500, true, jobs));
        grid
    })
}
