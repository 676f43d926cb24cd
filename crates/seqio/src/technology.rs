//! Sequencing-technology presets: realistic long-read workload shapes.
//!
//! The paper's standard input sets ([`crate::dataset`]) use fixed nominal
//! lengths; real PacBio/ONT runs mix read lengths across a wide band at a
//! technology-typical error rate and edit mix. A [`Technology`] bundles
//! those three knobs into one named preset so benches, examples and the
//! long-read gate all draw the same workloads.

use crate::generate::{ErrorProfile, Pair, PairGenerator};
use wfa_core::rng::SmallRng;

/// A named long-read technology preset (nominal length, error rate, edit
/// mix). Generated sets spread read lengths uniformly over
/// `0.5×..=1.5×` the nominal length, so one set straddles the device
/// envelope the backend router has to handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Technology {
    /// PacBio CLR: ~25 kb reads at ~10% indel-dominated error.
    PacBioClr,
    /// PacBio HiFi (CCS): ~15 kb reads at ~1% error, mismatch-leaning.
    PacBioHifi,
    /// Oxford Nanopore: ~30 kb reads at ~6% deletion-heavy error.
    Nanopore,
}

impl Technology {
    /// Every preset, in CLI presentation order.
    pub const ALL: [Technology; 3] = [
        Technology::PacBioClr,
        Technology::PacBioHifi,
        Technology::Nanopore,
    ];

    /// The stable CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Technology::PacBioClr => "pacbio-clr",
            Technology::PacBioHifi => "pacbio-hifi",
            Technology::Nanopore => "nanopore",
        }
    }

    /// Parse a CLI name.
    pub fn parse(name: &str) -> Option<Self> {
        Technology::ALL.iter().copied().find(|t| t.name() == name)
    }

    /// Nominal (median) read length in bases.
    pub fn nominal_length(self) -> usize {
        match self {
            Technology::PacBioClr => 25_000,
            Technology::PacBioHifi => 15_000,
            Technology::Nanopore => 30_000,
        }
    }

    /// Nominal per-base error rate.
    pub fn error_rate(self) -> f64 {
        match self {
            Technology::PacBioClr => 0.10,
            Technology::PacBioHifi => 0.01,
            Technology::Nanopore => 0.06,
        }
    }

    /// Technology-typical edit mix.
    pub fn profile(self) -> ErrorProfile {
        match self {
            Technology::PacBioClr => ErrorProfile::PACBIO,
            // HiFi consensus removes most indels; what survives leans
            // substitution, like short-read chemistry.
            Technology::PacBioHifi => ErrorProfile::ILLUMINA,
            Technology::Nanopore => ErrorProfile::NANOPORE,
        }
    }

    /// Generate `n` deterministic pairs: per-pair lengths drawn uniformly
    /// from `0.5×..=1.5×` the nominal length, mutated at the preset's
    /// error rate and edit mix. IDs are sequential from 0.
    pub fn pairs(self, n: usize, seed: u64) -> Vec<Pair> {
        self.pairs_with_nominal(n, seed, self.nominal_length())
    }

    /// [`Technology::pairs`] with the nominal length overridden — the
    /// long-read bench's quick tier shrinks the band (same error rate and
    /// edit mix) so CI exercises the full routing ladder cheaply.
    pub fn pairs_with_nominal(self, n: usize, seed: u64, nominal: usize) -> Vec<Pair> {
        let mut lengths = SmallRng::seed_from_u64(seed ^ 0x7EC4);
        (0..n)
            .map(|i| {
                let len = lengths.gen_range(nominal / 2, nominal + nominal / 2 + 1);
                let mut g = PairGenerator::new(len, self.error_rate(), seed.wrapping_add(i as u64))
                    .with_profile(self.profile());
                let mut pair = g.pair();
                pair.id = i as u32;
                pair
            })
            .collect()
    }
}

impl std::fmt::Display for Technology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Technology {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Technology::parse(s).ok_or_else(|| {
            let names: Vec<&str> = Technology::ALL.iter().map(|t| t.name()).collect();
            format!("unknown technology '{s}' (one of: {})", names.join(", "))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for t in Technology::ALL {
            assert_eq!(Technology::parse(t.name()), Some(t));
            assert_eq!(t.name().parse::<Technology>(), Ok(t));
            assert_eq!(t.to_string(), t.name());
        }
        assert!(Technology::parse("sanger").is_none());
        assert!("sanger".parse::<Technology>().is_err());
    }

    #[test]
    fn pairs_are_deterministic_and_length_spread() {
        let t = Technology::PacBioHifi;
        let p1 = t.pairs(4, 42);
        let p2 = t.pairs(4, 42);
        assert_eq!(p1, p2);
        assert_ne!(p1, t.pairs(4, 43));
        let ids: Vec<u32> = p1.iter().map(|p| p.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        let nominal = t.nominal_length();
        for p in &p1 {
            assert!(p.a.len() >= nominal / 2 && p.a.len() <= nominal + nominal / 2);
        }
        // Lengths actually vary across the set.
        assert!(p1.iter().any(|p| p.a.len() != p1[0].a.len()));
    }

    #[test]
    fn error_rate_shows_up_in_edit_distance() {
        use wfa_core::{wfa_align_seqs, Penalties, WfaOptions};
        // HiFi at 1%: a 15 kb read carries ~150 edits; score lands within
        // the 4..=8-per-edit band (coinciding edits can shrink it a bit).
        let p = &Technology::PacBioHifi.pairs(1, 7)[0];
        let edits = (p.a.len() as f64 * 0.01).round();
        let r = wfa_align_seqs(&p.a, &p.b, &WfaOptions::biwfa(Penalties::WFASIC_DEFAULT)).unwrap();
        assert!(
            (r.score as f64) >= edits * 2.0,
            "score {} edits {edits}",
            r.score
        );
        assert!(
            (r.score as f64) <= edits * 9.0,
            "score {} edits {edits}",
            r.score
        );
        r.cigar.unwrap().check(&p.a.bytes(), &p.b.bytes()).unwrap();
    }
}
