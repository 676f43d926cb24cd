//! End-to-end differential verification sweep.
//!
//! Thousands of seeded random pairs — across read lengths, error rates and
//! penalty sets — are pushed through the accelerator **twice** (independent
//! single-lane jobs via [`BatchScheduler::run_parallel`], and batched
//! submission across a 4-lane [`MultiLaneBackend`] behind the streaming
//! [`AlignmentService`]) and every alignment is checked against two
//! independent software references:
//!
//! * the exact software WFA ([`CpuWfaBackend`] — the same single answer
//!   path every CPU fallback in the workspace routes through) — the golden
//!   model the hardware's wavefront recurrence must match;
//! * the classic SWG dynamic program ([`swg_score`]) — an algorithmically
//!   unrelated oracle for the score.
//!
//! For every pair: accelerator score == WFA score == SWG score; the
//! accelerator-derived CIGAR replays against the sequences and costs
//! exactly the expected score; and batched results are identical to
//! single-job results (lane count, dispatch policy, DMA overlap and the
//! service's queue must never change an answer).
//!
//! The sweep covers >= 2,000 pairs in every build profile. Debug builds
//! (`cargo test`) use shorter reads so the cycle-level simulation stays
//! fast; release sweeps extend to 600bp. The seeds are fixed: any failure
//! reproduces exactly, and the case mix is identical run to run.

use wfasic::accel::AccelConfig;
use wfasic::driver::{
    AlignmentBackend, AlignmentResult, BatchJob, BatchScheduler, CpuWfaBackend, DispatchPolicy,
    MultiLaneBackend, StrategySelect,
};
use wfasic::seqio::{InputSetSpec, Pair, Technology};
use wfasic::service::{AlignmentService, ServiceConfig};
use wfasic::wfa::pool::ThreadPool;
use wfasic::wfa::{swg_score, wfa_align_seqs, Penalties, WavefrontArena, WfaOptions};

/// Pairs per (penalty set x shape) bucket; 3 shapes x 224 = 672 per penalty
/// set, 2,016 across the three sweep tests.
const PAIRS_PER_BUCKET: usize = 224;
/// Pairs per batched job (so each bucket exercises multi-job batches).
const JOB_CHUNK: usize = 28;
const LANES: usize = 4;

/// Read-length / error-rate shapes. Debug builds shorten the reads (the
/// cycle-level model is ~10x slower unoptimized) but keep the pair count.
fn shapes() -> [InputSetSpec; 3] {
    let lengths: [usize; 3] = if cfg!(debug_assertions) {
        [48, 100, 150]
    } else {
        [100, 250, 600]
    };
    [
        InputSetSpec {
            length: lengths[0],
            error_pct: 2,
        },
        InputSetSpec {
            length: lengths[1],
            error_pct: 5,
        },
        InputSetSpec {
            length: lengths[2],
            error_pct: 10,
        },
    ]
}

/// Check one accelerator answer against both software references. The WFA
/// golden runs through [`CpuWfaBackend::align_pair_in`] — the exact code
/// path the driver's CPU fallback uses.
fn check_pair(res: &AlignmentResult, pair: &Pair, p: &Penalties, ctx: &str) {
    assert!(res.success, "{ctx}: pair {} failed", pair.id);
    assert_eq!(res.id, pair.id, "{ctx}: result/pair ID mismatch");
    let golden = CpuWfaBackend::align_pair_in(&mut WavefrontArena::new(), *p, pair, true, false);
    assert!(
        golden.success,
        "{ctx}: software WFA must handle every generated pair"
    );
    let oracle = swg_score(&pair.a.bytes(), &pair.b.bytes(), p);
    assert_eq!(
        golden.score as u64, oracle,
        "{ctx}: WFA golden disagrees with SWG oracle on pair {}",
        pair.id
    );
    assert_eq!(
        res.score,
        golden.score,
        "{ctx}: accelerator score diverges on pair {} ({}bp)",
        pair.id,
        pair.a.len()
    );
    let cigar = res
        .cigar
        .as_ref()
        .unwrap_or_else(|| panic!("{ctx}: pair {} missing CIGAR", pair.id));
    cigar
        .check(&pair.a.bytes(), &pair.b.bytes())
        .unwrap_or_else(|e| panic!("{ctx}: pair {} CIGAR invalid: {e:?}", pair.id));
    assert_eq!(
        cigar.score(p),
        oracle,
        "{ctx}: pair {} CIGAR cost is not optimal",
        pair.id
    );
}

/// Sweep one penalty set: every bucket's pairs go through the parallel
/// single-lane job path and through a 4-lane batch behind the streaming
/// service, and the two answers must agree with the references and with
/// each other.
///
/// Path 1 and the per-pair golden checks fan out across the host thread
/// pool ([`ThreadPool::host_sized`]); per-pair answers are independent of
/// job grouping and thread count (the `run_parallel` bit-identity tests in
/// `wfasic-driver` pin this), so the sweep verifies exactly the same
/// properties at any pool width — just faster on multi-core hosts.
fn sweep(penalties: Penalties, policy: DispatchPolicy, master_seed: u64) {
    let mut cfg = AccelConfig::wfasic_chip();
    cfg.penalties = penalties;
    let pool = ThreadPool::host_sized();
    let mut verified = 0usize;

    // Path 2's engine: a 4-lane backend (same chunking as the explicit job
    // queue below) behind the bounded streaming service. One service
    // per sweep — buckets stream through it in submission order.
    let mut backend = MultiLaneBackend::new(cfg, LANES);
    backend.sched.dispatch = policy;
    backend.chunk = JOB_CHUNK;
    let mut svc = AlignmentService::new(Box::new(backend), ServiceConfig::default());

    for (si, spec) in shapes().iter().enumerate() {
        let pairs = spec
            .generate(PAIRS_PER_BUCKET, master_seed ^ ((si as u64) << 8))
            .pairs;
        let ctx = format!(
            "penalties ({},{},{}) {}bp/{}%",
            penalties.x, penalties.o, penalties.e, spec.length, spec.error_pct
        );

        let jobs: Vec<BatchJob> = pairs
            .chunks(JOB_CHUNK)
            .map(|c| BatchJob::with_backtrace(c.to_vec()))
            .collect();

        // Path 1: independent single-lane jobs through the parallel
        // scheduler path (each job a fresh one-lane device).
        let mut sched = BatchScheduler::new(cfg, LANES);
        sched.dispatch = policy;
        let single_jobs = sched.run_parallel(&jobs, pool.threads());
        let single: Vec<_> = single_jobs
            .iter()
            .flat_map(|j| j.as_ref().unwrap().results.iter())
            .collect();
        assert_eq!(single.len(), pairs.len());

        // Path 2: the whole bucket as one streamed job — the service queues
        // it and the 4-lane backend chunks it across contending lanes (the
        // shared bus arbiter is one serial timeline — deliberately
        // sequential).
        let done = svc.stream([BatchJob::with_backtrace(pairs.clone())]);
        assert_eq!(done.len(), 1);
        let batch = done[0]
            .outcome
            .as_ref()
            .unwrap_or_else(|e| panic!("{ctx}: streamed batch failed: {e}"));
        let batched = &batch.results;
        assert_eq!(batched.len(), pairs.len());

        // Golden checks, fanned out per pair (asserts inside workers
        // propagate with their original messages).
        let items: Vec<usize> = (0..pairs.len()).collect();
        let counts = pool.map(&items, |_, &idx| {
            let (res, bres, pair) = (single[idx], &batched[idx], &pairs[idx]);
            check_pair(res, pair, &penalties, &ctx);
            // Batched submission must not change a single answer.
            assert_eq!(
                (res.id, res.score, &res.cigar),
                (bres.id, bres.score, &bres.cigar),
                "{ctx}: batch diverges from single-job on pair {}",
                pair.id
            );
            1usize
        });
        verified += counts.iter().sum::<usize>();
    }
    assert_eq!(verified, 3 * PAIRS_PER_BUCKET);
    assert_eq!(svc.backend_counters().pairs as usize, 3 * PAIRS_PER_BUCKET);
}

#[test]
fn differential_sweep_wfasic_default_penalties() {
    sweep(
        Penalties::WFASIC_DEFAULT,
        DispatchPolicy::RoundRobin,
        0xD1FF_0001,
    );
}

#[test]
fn differential_sweep_mismatch_heavy_penalties() {
    sweep(
        Penalties::new(7, 4, 1).unwrap(),
        DispatchPolicy::ShortestQueue,
        0xD1FF_0002,
    );
}

#[test]
fn differential_sweep_gap_heavy_penalties() {
    sweep(
        Penalties::new(2, 8, 3).unwrap(),
        DispatchPolicy::RoundRobin,
        0xD1FF_0003,
    );
}

/// The three sweeps above must add up to the advertised coverage
/// (compile-time: shrinking `PAIRS_PER_BUCKET` below the 2,000-pair floor
/// is a build error, not a silent coverage loss).
const _SWEEP_COVERS_AT_LEAST_TWO_THOUSAND_PAIRS: () = assert!(3 * 3 * PAIRS_PER_BUCKET >= 2000);

/// BiWFA end to end: a PacBio HiFi pair (its band shortened to 2–6 kb so a
/// debug build stays fast, still far past BiWFA's 1 kb exact cutoff, so the
/// meet phase and its touch scan run) through [`CpuWfaBackend`] forced to
/// BiWFA. The score equals the exact engine's, the CIGAR replays to it,
/// and the backend tallies exactly one BiWFA pair.
#[test]
fn cpu_backend_biwfa_matches_exact_on_a_hifi_pair() {
    let p = Penalties::WFASIC_DEFAULT;
    let pair = Technology::PacBioHifi.pairs_with_nominal(1, 0xB1F4, 4_000)[0].clone();
    assert!(pair.a.len() + pair.b.len() > 4_000);
    let exact = wfa_align_seqs(&pair.a, &pair.b, &WfaOptions::exact(p)).unwrap();

    let mut cpu = CpuWfaBackend::new(p);
    cpu.route.select = StrategySelect::BiWfa;
    let batch = cpu
        .align_batch(&BatchJob::with_backtrace(vec![pair.clone()]))
        .unwrap();
    let res = &batch.results[0];
    assert!(res.success);
    assert_eq!(res.score, exact.score);
    let cigar = res.cigar.as_ref().expect("BiWFA returns a CIGAR");
    cigar.check(&pair.a.bytes(), &pair.b.bytes()).unwrap();
    assert_eq!(cigar.score(&p), exact.score as u64);
    assert_eq!(cpu.counters().biwfa_pairs, 1);
}
