//! Synthetic read-pair generation (paper §5.3).
//!
//! "We generate synthetic input sets with random mismatches, insertions and
//! deletions, using the same methodology as in [13, 15]. For the synthetic
//! inputs, the sequence errors follow a uniform and random distribution."
//!
//! A pair is produced by sampling a uniform random sequence `a` of the
//! nominal length, then applying `round(len * error_rate)` edits at uniform
//! random positions to produce `b`. The edit-type mix is configurable; the
//! default follows the common ⅓ mismatch / ⅓ insertion / ⅓ deletion split.

use wfa_core::rng::SmallRng;
use wfa_core::seq::Seq;

/// The four canonical bases in 2-bit code order.
const BASES: [u8; 4] = [b'A', b'C', b'G', b'T'];

/// One input pair for alignment.
///
/// Sequences are carried as [`Seq`]: generated reads pack to 2 bits/base at
/// construction and stay packed through the backends' hot paths; broken
/// data (injected 'N's, arbitrary bytes) degrades to `Seq::Raw` and routes
/// through the byte-oriented oracle instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pair {
    /// Unique alignment ID (travels through the hardware and back).
    pub id: u32,
    /// Pattern sequence (`a` in the paper's equations).
    pub a: Seq,
    /// Text sequence (`b`).
    pub b: Seq,
}

impl Pair {
    /// Build a pair from ASCII sequences (packing clean ACGT reads).
    pub fn new(id: u32, a: Vec<u8>, b: Vec<u8>) -> Pair {
        Pair {
            id,
            a: Seq::from_bytes(a),
            b: Seq::from_bytes(b),
        }
    }
}

/// Edit-type mix for the mutator. Fields are relative weights.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorProfile {
    /// Weight of substitutions.
    pub mismatch: f64,
    /// Weight of insertions (extra base in `b`).
    pub insertion: f64,
    /// Weight of deletions (missing base in `b`).
    pub deletion: f64,
}

impl Default for ErrorProfile {
    fn default() -> Self {
        ErrorProfile {
            mismatch: 1.0,
            insertion: 1.0,
            deletion: 1.0,
        }
    }
}

impl ErrorProfile {
    /// Mismatches only (the paper's Fig. 1 example style).
    pub const MISMATCH_ONLY: ErrorProfile = ErrorProfile {
        mismatch: 1.0,
        insertion: 0.0,
        deletion: 0.0,
    };

    /// Illumina-like short-read errors: almost entirely substitutions.
    pub const ILLUMINA: ErrorProfile = ErrorProfile {
        mismatch: 0.95,
        insertion: 0.025,
        deletion: 0.025,
    };

    /// PacBio CLR-like long-read errors: indel-dominated, insertion-heavy.
    pub const PACBIO: ErrorProfile = ErrorProfile {
        mismatch: 0.15,
        insertion: 0.50,
        deletion: 0.35,
    };

    /// Oxford Nanopore-like long-read errors: indel-dominated,
    /// deletion-heavy.
    pub const NANOPORE: ErrorProfile = ErrorProfile {
        mismatch: 0.25,
        insertion: 0.30,
        deletion: 0.45,
    };
}

/// Generator of synthetic pairs with a nominal error rate.
#[derive(Debug)]
pub struct PairGenerator {
    /// Nominal read length (length of `a`).
    pub length: usize,
    /// Nominal error rate (fraction of `length` turned into edits).
    pub error_rate: f64,
    /// Edit-type mix.
    pub profile: ErrorProfile,
    /// Hard cap on the mutated sequence's length (insertions that would
    /// exceed it are applied as substitutions instead). The standard input
    /// sets cap at the nominal read length so every read fits the
    /// accelerator's supported maximum.
    pub max_len: Option<usize>,
    rng: SmallRng,
    next_id: u32,
}

impl PairGenerator {
    /// Deterministic generator from a seed.
    pub fn new(length: usize, error_rate: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&error_rate),
            "error rate must be in [0, 1]"
        );
        PairGenerator {
            length,
            error_rate,
            profile: ErrorProfile::default(),
            max_len: None,
            rng: SmallRng::seed_from_u64(seed),
            next_id: 0,
        }
    }

    /// Cap the mutated sequence's length.
    pub fn with_max_len(mut self, max_len: usize) -> Self {
        self.max_len = Some(max_len);
        self
    }

    /// Replace the edit-type mix.
    pub fn with_profile(mut self, profile: ErrorProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Uniform random sequence of the nominal length.
    fn random_seq(&mut self) -> Vec<u8> {
        (0..self.length)
            .map(|_| BASES[self.rng.gen_range(0, 4)])
            .collect()
    }

    /// Generate the next pair.
    pub fn pair(&mut self) -> Pair {
        let a = self.random_seq();
        let num_edits = (self.length as f64 * self.error_rate).round() as usize;
        let b = mutate_capped(&a, num_edits, &self.profile, self.max_len, &mut self.rng);
        let id = self.next_id;
        self.next_id += 1;
        Pair::new(id, a, b)
    }

    /// Generate `n` pairs.
    pub fn pairs(&mut self, n: usize) -> Vec<Pair> {
        (0..n).map(|_| self.pair()).collect()
    }
}

/// Apply `num_edits` uniform random edits to `seq`.
pub fn mutate(seq: &[u8], num_edits: usize, profile: &ErrorProfile, rng: &mut SmallRng) -> Vec<u8> {
    mutate_capped(seq, num_edits, profile, None, rng)
}

/// [`mutate`] with an optional length cap: insertions that would exceed
/// `max_len` are applied as substitutions instead (keeping the nominal edit
/// count while guaranteeing the result fits a fixed-size device buffer).
fn mutate_capped(
    seq: &[u8],
    num_edits: usize,
    profile: &ErrorProfile,
    max_len: Option<usize>,
    rng: &mut SmallRng,
) -> Vec<u8> {
    let mut out = seq.to_vec();
    let total = profile.mismatch + profile.insertion + profile.deletion;
    assert!(total > 0.0, "error profile must have positive total weight");
    #[derive(PartialEq)]
    enum Kind {
        Sub,
        Ins,
        Del,
    }
    for _ in 0..num_edits {
        let roll = rng.gen_range_f64(0.0, total);
        if out.is_empty() {
            out.push(BASES[rng.gen_range(0, 4)]);
            continue;
        }
        let pos = rng.gen_range(0, out.len());
        let mut kind = if roll < profile.mismatch {
            Kind::Sub
        } else if roll < profile.mismatch + profile.insertion {
            Kind::Ins
        } else {
            Kind::Del
        };
        let at_cap = max_len.is_some_and(|cap| out.len() >= cap);
        if kind == Kind::Ins && at_cap {
            kind = Kind::Sub; // demote the insertion to a substitution
        }
        if kind == Kind::Sub {
            // Substitute with a *different* base so the edit is real.
            let cur = out[pos];
            let mut nb = BASES[rng.gen_range(0, 4)];
            while nb == cur {
                nb = BASES[rng.gen_range(0, 4)];
            }
            out[pos] = nb;
        } else if kind == Kind::Ins {
            out.insert(pos, BASES[rng.gen_range(0, 4)]);
        } else {
            out.remove(pos);
        }
    }
    if let Some(cap) = max_len {
        debug_assert!(out.len() <= cap);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfa_core::{wfa_align_seqs, Penalties, WfaOptions};

    #[test]
    fn deterministic_for_seed() {
        let p1 = PairGenerator::new(100, 0.05, 42).pairs(3);
        let p2 = PairGenerator::new(100, 0.05, 42).pairs(3);
        assert_eq!(p1, p2);
        let p3 = PairGenerator::new(100, 0.05, 43).pairs(3);
        assert_ne!(p1, p3);
    }

    #[test]
    fn ids_are_sequential() {
        let pairs = PairGenerator::new(50, 0.1, 1).pairs(4);
        let ids: Vec<u32> = pairs.iter().map(|p| p.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn zero_error_rate_gives_identical_pairs() {
        let mut g = PairGenerator::new(80, 0.0, 7);
        let p = g.pair();
        assert_eq!(p.a, p.b);
        let r = wfa_align_seqs(&p.a, &p.b, &WfaOptions::exact(Penalties::WFASIC_DEFAULT)).unwrap();
        assert_eq!(r.score, 0);
    }

    #[test]
    fn mismatch_only_profile_preserves_length() {
        let mut g = PairGenerator::new(120, 0.1, 9).with_profile(ErrorProfile::MISMATCH_ONLY);
        for _ in 0..5 {
            let p = g.pair();
            assert_eq!(p.a.len(), p.b.len());
        }
    }

    #[test]
    fn error_rate_reflected_in_score() {
        // 5% errors over 1000 bases: score should land in a plausible band
        // (each edit costs 4..=8 under (4, 6, 2), and edits can coincide).
        let mut g = PairGenerator::new(1000, 0.05, 123);
        let p = g.pair();
        let r = wfa_align_seqs(&p.a, &p.b, &WfaOptions::exact(Penalties::WFASIC_DEFAULT)).unwrap();
        assert!(r.score >= 100, "score {} too low for 50 edits", r.score);
        assert!(r.score <= 450, "score {} too high for 50 edits", r.score);
    }

    #[test]
    fn lengths_stay_near_nominal() {
        let mut g = PairGenerator::new(1000, 0.1, 5);
        let p = g.pair();
        assert_eq!(p.a.len(), 1000);
        assert!((p.b.len() as i64 - 1000).unsigned_abs() <= 110);
    }

    #[test]
    #[should_panic(expected = "error rate")]
    fn rejects_bad_error_rate() {
        PairGenerator::new(10, 1.5, 0);
    }

    #[test]
    fn technology_profiles_shift_the_edit_mix() {
        use wfa_core::{wfa_align_seqs as walign, Penalties as Pen};
        // Indel-heavy profiles produce more gap bases than mismatch-heavy
        // ones at the same nominal error rate.
        let gap_fraction = |profile: ErrorProfile| -> f64 {
            let mut g = PairGenerator::new(600, 0.08, 31).with_profile(profile);
            let p = g.pair();
            let r = walign(
                &p.a,
                &p.b,
                &wfa_core::WfaOptions::exact(Pen::WFASIC_DEFAULT),
            )
            .unwrap();
            let st = r.cigar.unwrap().stats();
            (st.ins_bases + st.del_bases) as f64 / st.edits().max(1) as f64
        };
        let illumina = gap_fraction(ErrorProfile::ILLUMINA);
        let pacbio = gap_fraction(ErrorProfile::PACBIO);
        let nanopore = gap_fraction(ErrorProfile::NANOPORE);
        assert!(illumina < 0.25, "illumina gap fraction {illumina}");
        assert!(pacbio > 0.6, "pacbio gap fraction {pacbio}");
        assert!(nanopore > 0.6, "nanopore gap fraction {nanopore}");
    }

    #[test]
    fn max_len_cap_is_respected() {
        let mut g = PairGenerator::new(200, 0.10, 77).with_max_len(200);
        for _ in 0..10 {
            let p = g.pair();
            assert!(p.b.len() <= 200, "capped at nominal, got {}", p.b.len());
        }
    }

    #[test]
    fn cap_keeps_nominal_edit_cost() {
        // Demoted insertions still count as edits: the score stays in the
        // expected band.
        let mut g = PairGenerator::new(500, 0.10, 3).with_max_len(500);
        let p = g.pair();
        let r = wfa_align_seqs(&p.a, &p.b, &WfaOptions::exact(Penalties::WFASIC_DEFAULT)).unwrap();
        assert!(r.score >= 150 && r.score <= 450, "score {}", r.score);
    }
}
