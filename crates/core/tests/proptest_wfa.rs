//! Property-based tests for the WFA core: the exactness invariants the paper
//! relies on ("identical results to the SWG algorithm", §2.3).
//!
//! Runs on the in-repo harness (`wfa_core::prop`) — the build environment is
//! offline, so `proptest` is not available.

use wfa_core::bitpack::PackedSeq;
use wfa_core::kernel::{lcp_bytes, lcp_packed};
use wfa_core::prop::cases;
use wfa_core::rng::SmallRng;
use wfa_core::wfa::{wfa_align, WfaOptions};
use wfa_core::{swg_align, swg_score, Penalties, WfaAlignment, WfaError};

const CASES: usize = 200;
const BASES: &[u8] = b"ACGT";

/// Exact alignment with a CIGAR under `p`.
fn align(a: &[u8], b: &[u8], p: Penalties) -> Result<WfaAlignment, WfaError> {
    wfa_align(a, b, &WfaOptions::exact(p))
}

/// Random DNA of length 0..=max.
fn dna(rng: &mut SmallRng, max: usize) -> Vec<u8> {
    let len = rng.gen_range(0, max + 1);
    (0..len).map(|_| *rng.pick(BASES)).collect()
}

/// A mutated copy of a sequence (bounded random edits) — keeps the pair
/// similar so scores stay small and the WFA advantage is realistic.
fn dna_pair(rng: &mut SmallRng, max: usize) -> (Vec<u8>, Vec<u8>) {
    let a = dna(rng, max);
    let mut b = a.clone();
    for _ in 0..rng.gen_range(0, 8) {
        let base = *rng.pick(BASES);
        if b.is_empty() {
            b.push(base);
            continue;
        }
        let p = rng.gen_range(0, b.len());
        match rng.gen_range(0, 3) {
            0 => b[p] = base,
            1 => b.insert(p, base),
            _ => {
                b.remove(p);
            }
        }
    }
    (a, b)
}

/// WFA score equals the full-DP SWG score on arbitrary pairs.
#[test]
fn wfa_equals_swg_arbitrary() {
    cases(CASES, 0x57FA_0001, |rng, _| {
        let (a, b) = (dna(rng, 48), dna(rng, 48));
        let p = Penalties::WFASIC_DEFAULT;
        let wfa = align(&a, &b, p).unwrap();
        assert_eq!(wfa.score as u64, swg_align(&a, &b, &p).score);
    });
}

/// WFA score equals SWG on realistic mutated pairs, and the CIGAR is a
/// valid transcript that costs exactly the score.
#[test]
fn wfa_cigar_valid_and_optimal() {
    cases(CASES, 0x57FA_0002, |rng, _| {
        let (a, b) = dna_pair(rng, 96);
        let p = Penalties::WFASIC_DEFAULT;
        let wfa = align(&a, &b, p).unwrap();
        let cigar = wfa.cigar.unwrap();
        cigar.check(&a, &b).unwrap();
        assert_eq!(cigar.score(&p), wfa.score as u64);
        assert_eq!(wfa.score as u64, swg_score(&a, &b, &p));
    });
}

/// Exactness holds for other penalty sets too.
#[test]
fn wfa_equals_swg_other_penalties() {
    cases(CASES, 0x57FA_0003, |rng, _| {
        let (a, b) = dna_pair(rng, 40);
        let x = rng.gen_range(1, 8) as u32;
        let o = rng.gen_range(0, 10) as u32;
        let e = rng.gen_range(1, 5) as u32;
        let p = Penalties::new(x, o, e).unwrap();
        let wfa = align(&a, &b, p).unwrap();
        assert_eq!(wfa.score as u64, swg_score(&a, &b, &p));
        let cigar = wfa.cigar.unwrap();
        cigar.check(&a, &b).unwrap();
        assert_eq!(cigar.score(&p), wfa.score as u64);
    });
}

/// The origin backtrace on the co-simulation sweep's penalty sets
/// (`wfasic_bench::cosim::PENALTY_SETS`) plus unit costs: every pair,
/// empty sides and 1-base pairs included, scores as SWG, and its CIGAR is
/// a valid transcript costing exactly that score.
#[test]
fn origin_backtrace_is_optimal_on_the_cosim_penalty_sets() {
    let sets = [(4, 6, 2), (7, 4, 1), (2, 8, 3), (1, 1, 1)];
    let tiny: [&[u8]; 5] = [b"", b"A", b"C", b"AC", b"GTT"];
    for (n, &(x, o, e)) in sets.iter().enumerate() {
        let p = Penalties::new(x, o, e).unwrap();
        let check = |a: &[u8], b: &[u8]| {
            let wfa = align(a, b, p).unwrap();
            assert_eq!(wfa.score as u64, swg_score(a, b, &p), "{p:?} {a:?} {b:?}");
            let cigar = wfa.cigar.unwrap();
            cigar.check(a, b).unwrap();
            assert_eq!(cigar.score(&p), wfa.score as u64, "{p:?} {a:?} {b:?}");
        };
        for a in tiny {
            for b in tiny {
                check(a, b);
            }
        }
        cases(CASES, 0x57FA_0040 + n as u64, |rng, case| {
            let (a, b) = if case % 2 == 0 {
                dna_pair(rng, 64)
            } else {
                (dna(rng, 12), dna(rng, 12))
            };
            check(&a, &b);
        });
    }
}

/// Score-only mode agrees with CIGAR mode.
#[test]
fn score_only_agrees() {
    cases(CASES, 0x57FA_0004, |rng, _| {
        let (a, b) = dna_pair(rng, 96);
        let p = Penalties::WFASIC_DEFAULT;
        let full = align(&a, &b, p).unwrap();
        let so = wfa_align(&a, &b, &WfaOptions::score_only(p)).unwrap();
        assert_eq!(full.score, so.score);
    });
}

/// The packed-word extend equals the byte-wise extend at every position.
#[test]
fn packed_extend_equals_naive() {
    cases(CASES, 0x57FA_0005, |rng, _| {
        let (a, b) = (dna(rng, 80), dna(rng, 80));
        let i = rng.gen_range(0, a.len() + 1);
        let j = rng.gen_range(0, b.len() + 1);
        let pa = PackedSeq::from_ascii(&a).unwrap();
        let pb = PackedSeq::from_ascii(&b).unwrap();
        assert_eq!(lcp_packed(&pa, &pb, i, j), lcp_bytes(&a, &b, i, j));
    });
}

/// Packing round-trips, and the word-at-a-time decoder equals the
/// per-base decode on every prefix.
#[test]
fn pack_roundtrip() {
    use wfa_core::bitpack::decode_base;
    cases(CASES, 0x57FA_0006, |rng, _| {
        let a = dna(rng, 200);
        let p = PackedSeq::from_ascii(&a).unwrap();
        assert_eq!(p.to_ascii(), a);
        for prefix in 0..=a.len() {
            let mut out = vec![0u8; prefix];
            p.write_ascii_into(&mut out);
            let want: Vec<u8> = (0..prefix).map(|i| decode_base(p.get(i))).collect();
            assert_eq!(out, want, "prefix {prefix} of {}", a.len());
        }
    });
}

/// The score is symmetric in (a, b) up to swapping I and D.
#[test]
fn score_symmetric() {
    cases(CASES, 0x57FA_0007, |rng, _| {
        let (a, b) = dna_pair(rng, 64);
        let p = Penalties::WFASIC_DEFAULT;
        let fwd = align(&a, &b, p).unwrap();
        let rev = align(&b, &a, p).unwrap();
        assert_eq!(fwd.score, rev.score);
    });
}

/// Triangle-ish sanity: score is bounded by the all-gaps alignment.
#[test]
fn score_bounded_by_all_gaps() {
    cases(CASES, 0x57FA_0008, |rng, _| {
        let (a, b) = (dna(rng, 60), dna(rng, 60));
        let p = Penalties::WFASIC_DEFAULT;
        let r = align(&a, &b, p).unwrap();
        let bound = p.gap_cost(a.len() as u32) as u64 + p.gap_cost(b.len() as u32) as u64;
        assert!(r.score as u64 <= bound);
    });
}

/// The exactness sweep on the kernel path the CPU takes (AVX2 or word):
/// scores and CIGARs are optimal, and single-cell and row extends agree
/// with the byte kernel. Each fast path is compared with its scalar
/// reference directly in `wfa_core::kernel`'s own tests.
#[test]
fn wfa_exactness_holds_on_the_cpus_kernel_path() {
    use wfa_core::kernel::extend_row;
    use wfa_core::wavefront::{offset_is_valid, OFFSET_NULL};
    cases(64, 0x57FA_0010, |rng, _| {
        let (a, b) = dna_pair(rng, 96);
        let p = Penalties::WFASIC_DEFAULT;
        let wfa = align(&a, &b, p).unwrap();
        let cigar = wfa.cigar.unwrap();
        cigar.check(&a, &b).unwrap();
        assert_eq!(cigar.score(&p), wfa.score as u64);
        assert_eq!(wfa.score as u64, swg_score(&a, &b, &p));

        // Single-cell and row extends agree with the byte kernel.
        let pa = PackedSeq::from_ascii(&a).unwrap();
        let pb = PackedSeq::from_ascii(&b).unwrap();
        let i = rng.gen_range(0, a.len() + 1);
        let j = rng.gen_range(0, b.len() + 1);
        assert_eq!(lcp_packed(&pa, &pb, i, j), lcp_bytes(&a, &b, i, j));
        // A row of 0..=10 cells (tails of every length) from a k_lo
        // that is often negative: NULLs stay, the rest extend.
        let (n, m) = (a.len() as i32, b.len() as i32);
        let k_lo = rng.gen_range(0, (n + m + 1) as usize) as i32 - n;
        let row: Vec<i32> = (0..rng.gen_range(0, 11) as i32)
            .map(|t| {
                let k = k_lo + t;
                let (lo, hi) = (k.max(0), m.min(n + k));
                if lo > hi || rng.gen_bool(0.2) {
                    OFFSET_NULL
                } else {
                    lo + rng.gen_range(0, (hi - lo + 1) as usize) as i32
                }
            })
            .collect();
        let mut got = row.clone();
        let mut cells = Vec::new();
        extend_row(&pa, &pb, &mut got, k_lo, |t, matches, limit| {
            cells.push((t, matches, limit))
        });
        let (mut want_row, mut want) = (row.clone(), Vec::new());
        for (t, off) in want_row.iter_mut().enumerate() {
            if !offset_is_valid(*off) {
                continue;
            }
            let (i, j) = ((*off - k_lo - t as i32) as usize, *off as usize);
            let matches = lcp_bytes(&a, &b, i, j);
            *off += matches as i32;
            want.push((t, matches, (a.len() - i).min(b.len() - j)));
        }
        assert_eq!(
            got, want_row,
            "k_lo={k_lo}: NULL cells stay, the rest extend"
        );
        assert_eq!(cells, want, "k_lo={k_lo}");
    });
}

/// BiWFA is score-identical to the exact engine and its CIGAR replays to
/// exactly the optimal score on the kernel path the CPU takes, so the
/// byte extend under the bidirectional machines is covered the same way
/// the exact engine's is.
#[test]
fn biwfa_matches_exact_on_the_cpus_kernel_path() {
    use wfa_core::AlignStrategy;
    cases(48, 0x57FA_0020, |rng, _| {
        let (a, b) = dna_pair(rng, 96);
        let p = Penalties::WFASIC_DEFAULT;
        let exact = align(&a, &b, p).unwrap();
        let opts = WfaOptions::biwfa(p);
        assert_eq!(opts.strategy, AlignStrategy::BiWfa);
        let bi = wfa_align(&a, &b, &opts).unwrap();
        assert_eq!(bi.score, exact.score);
        let cigar = bi.cigar.unwrap();
        cigar.check(&a, &b).unwrap();
        assert_eq!(cigar.score(&p), bi.score as u64);
    });
}

/// A packed `Seq` pair and its bytes run the same engine: the entry
/// decodes the packed pair once, so on ACGT pairs the exact and BiWFA
/// strategies return identical alignments and identical `WfaStats`
/// (extend calls, bases compared, peak memory and all) whichever
/// representation they are handed.
#[test]
fn packed_and_byte_paths_are_identical() {
    use wfa_core::Seq;
    cases(CASES, 0x57FA_0030, |rng, case| {
        let (a, b) = dna_pair(rng, if case % 4 == 0 { 400 } else { 96 });
        let (sa, sb) = (Seq::from_ascii(&a), Seq::from_ascii(&b));
        assert!(sa.as_packed().is_some() && sb.as_packed().is_some());
        let p = Penalties::WFASIC_DEFAULT;
        for opts in [
            WfaOptions::exact(p),
            WfaOptions::score_only(p),
            WfaOptions::biwfa(p),
        ] {
            let bytes = wfa_align(&a, &b, &opts).unwrap();
            let packed = wfa_core::wfa_align_seqs(&sa, &sb, &opts).unwrap();
            assert_eq!(
                format!("{packed:?}"),
                format!("{bytes:?}"),
                "{:?} cigar={}",
                opts.strategy,
                opts.compute_cigar
            );
        }
    });
}

/// BiWFA stays exact on non-default penalty sets (odd costs exercise
/// wavefront schedules the default even-cost grid never produces).
#[test]
fn biwfa_matches_exact_on_other_penalties() {
    cases(CASES, 0x57FA_0021, |rng, _| {
        let (a, b) = dna_pair(rng, 72);
        let x = rng.gen_range(1, 8) as u32;
        let o = rng.gen_range(0, 10) as u32;
        let e = rng.gen_range(1, 5) as u32;
        let p = Penalties::new(x, o, e).unwrap();
        let bi = wfa_align(&a, &b, &WfaOptions::biwfa(p)).unwrap();
        assert_eq!(bi.score as u64, swg_score(&a, &b, &p));
        let cigar = bi.cigar.unwrap();
        cigar.check(&a, &b).unwrap();
        assert_eq!(cigar.score(&p), bi.score as u64);
    });
}

/// `a` with `error_pct`% of its bases edited, the edit kind drawn by the
/// `[substitute, insert, delete]` weights.
fn edit(rng: &mut SmallRng, a: &[u8], error_pct: usize, mix: [usize; 3]) -> Vec<u8> {
    let mut b = Vec::with_capacity(a.len() + a.len() / 4);
    for &ch in a {
        if rng.gen_range(0, 100) >= error_pct {
            b.push(ch);
            continue;
        }
        let pick = rng.gen_range(0, mix.iter().sum());
        if pick < mix[0] {
            b.push(*rng.pick(BASES));
        } else if pick < mix[0] + mix[1] {
            b.extend([*rng.pick(BASES), ch]);
        }
    }
    b
}

/// BiWFA stays exact past the exact cutoff (`n + m` > 1,024), where the
/// meet phase and its touch scan actually run and the top level must
/// prove its answer: pairs of 1,100–3,600 total bases at 1–30% error,
/// gap-only edits on every third case, one side cut to two thirds of its
/// length on every fifth, `a` longer than `b` on even cases and shorter
/// on odd ones, under random penalties (a free gap open on every fourth
/// case, odd costs throughout) so I–I and D–D touches occur.
#[test]
fn biwfa_matches_exact_past_the_exact_cutoff() {
    cases(30, 0x57FA_0023, |rng, case| {
        let len = rng.gen_range(700, 1481);
        let mut a: Vec<u8> = (0..len).map(|_| *rng.pick(BASES)).collect();
        let error_pct = if case % 2 == 0 {
            rng.gen_range(1, 11)
        } else {
            rng.gen_range(10, 31)
        };
        let gap_only = case % 3 == 0;
        let mut b = edit(rng, &a, error_pct, [!gap_only as usize, 1, 1]);
        if case % 5 == 0 {
            b.truncate(b.len() * 2 / 3);
        }
        if a.len() == b.len() {
            b.push(*rng.pick(BASES));
        }
        if (a.len() > b.len()) != (case % 2 == 0) {
            std::mem::swap(&mut a, &mut b);
        }
        assert!((1_100..=3_600).contains(&(a.len() + b.len())));

        let x = rng.gen_range(1, 8) as u32;
        let o = if case % 4 == 0 {
            0
        } else {
            rng.gen_range(1, 10) as u32
        };
        let e = rng.gen_range(1, 5) as u32;
        let p = Penalties::new(x, o, e).unwrap();
        let exact = align(&a, &b, p).unwrap();
        let bi = wfa_align(&a, &b, &WfaOptions::biwfa(p)).unwrap();
        assert_eq!(
            bi.score,
            exact.score,
            "{p:?} |a|={} |b|={} {error_pct}%",
            a.len(),
            b.len()
        );
        let cigar = bi.cigar.unwrap();
        cigar.check(&a, &b).unwrap();
        assert_eq!(cigar.score(&p), exact.score as u64, "{p:?}");
    });
}

/// BiWFA's optimality over a wide grid: 1,000 pairs of 0.5–3 kb across
/// ten penalty sets (three with a free gap open), five edit profiles
/// (balanced, substitution-, insertion- and deletion-heavy, gap-only),
/// 1–30% error, and skewed lengths (`b` cut to two thirds of its length
/// on every fourth pair). Each answer's score equals the score-only exact
/// WFA, and its CIGAR is a valid transcript that rescores to it.
///
/// Ignored by default: it takes ~20 s in release and minutes in a debug
/// build, so CI runs it in release with `--ignored`.
#[test]
#[ignore]
fn biwfa_stress_grid() {
    const SETS: [(u32, u32, u32); 10] = [
        (4, 6, 2),
        (1, 0, 1),
        (3, 0, 1),
        (5, 7, 3),
        (2, 3, 1),
        (4, 4, 2),
        (6, 5, 3),
        (1, 1, 1),
        (7, 9, 4),
        (2, 0, 2),
    ];
    // [substitute, insert, delete] weights.
    const MIXES: [[usize; 3]; 5] = [[1, 1, 1], [90, 5, 5], [10, 80, 10], [10, 10, 80], [0, 1, 1]];
    cases(1_000, 0x57FA_0028, |rng, case| {
        let (x, o, e) = SETS[case % SETS.len()];
        let p = Penalties::new(x, o, e).unwrap();
        let mix = MIXES[(case / SETS.len()) % MIXES.len()];
        let error_pct = *rng.pick(&[1, 2, 3, 5, 10, 15, 20, 30]);
        let len = rng.gen_range(500, 3_001);
        let a: Vec<u8> = (0..len).map(|_| *rng.pick(BASES)).collect();
        let mut b = edit(rng, &a, error_pct, mix);
        if case % 4 == 3 {
            b.truncate(b.len() * 2 / 3);
        }
        let want = wfa_align(&a, &b, &WfaOptions::score_only(p)).unwrap().score;
        let bi = wfa_align(&a, &b, &WfaOptions::biwfa(p)).unwrap();
        let why = format!(
            "case {case} {p:?} mix={mix:?} {error_pct}% |a|={len} |b|={}",
            b.len()
        );
        assert_eq!(bi.score, want, "{why}");
        let cigar = bi.cigar.unwrap();
        cigar.check(&a, &b).unwrap();
        assert_eq!(cigar.score(&p), want as u64, "{why}");
    });
}

#[test]
fn lcp_bytes_edge_positions() {
    let a = b"ACGT";
    let b = b"ACGT";
    assert_eq!(lcp_bytes(a, b, 4, 4), 0);
    assert_eq!(lcp_bytes(a, b, 0, 4), 0);
    assert_eq!(lcp_bytes(a, b, 0, 0), 4);
}
