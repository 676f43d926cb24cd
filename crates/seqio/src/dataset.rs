//! The paper's standard input sets (Table 1 / Fig. 9-11).
//!
//! Six synthetic sets: read lengths {100, 1K, 10K} × error rates {5%, 10%},
//! "although the accelerator is designed for long sequences, we evaluate its
//! performance for short (100bp), medium (1Kbp) and long (10Kbp) sequences".

use crate::generate::{Pair, PairGenerator};

/// One of the paper's six standard input-set shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InputSetSpec {
    /// Nominal read length in bases.
    pub length: usize,
    /// Nominal error rate in percent (5 or 10 in the paper).
    pub error_pct: u32,
}

impl InputSetSpec {
    /// The six paper input sets, in Table 1 order.
    pub const ALL: [InputSetSpec; 6] = [
        InputSetSpec {
            length: 100,
            error_pct: 5,
        },
        InputSetSpec {
            length: 100,
            error_pct: 10,
        },
        InputSetSpec {
            length: 1_000,
            error_pct: 5,
        },
        InputSetSpec {
            length: 1_000,
            error_pct: 10,
        },
        InputSetSpec {
            length: 10_000,
            error_pct: 5,
        },
        InputSetSpec {
            length: 10_000,
            error_pct: 10,
        },
    ];

    /// The paper's label, e.g. `"1K-10%"`.
    pub fn name(&self) -> String {
        let len = match self.length {
            1_000 => "1K".to_string(),
            10_000 => "10K".to_string(),
            other => other.to_string(),
        };
        format!("{}-{}%", len, self.error_pct)
    }

    /// Error rate as a fraction.
    pub fn error_rate(&self) -> f64 {
        self.error_pct as f64 / 100.0
    }

    /// Generate a concrete input set with `n` pairs. Sequences are capped
    /// at the nominal read length so the whole set fits the accelerator's
    /// supported maximum (10K-base sets must not exceed 10,000 bases).
    pub fn generate(&self, n: usize, seed: u64) -> InputSet {
        let mut g =
            PairGenerator::new(self.length, self.error_rate(), seed).with_max_len(self.length);
        InputSet {
            spec: *self,
            pairs: g.pairs(n),
        }
    }
}

/// A concrete input set: a spec plus generated pairs.
#[derive(Debug, Clone)]
pub struct InputSet {
    /// The shape this set was generated from.
    pub spec: InputSetSpec,
    /// The read pairs.
    pub pairs: Vec<Pair>,
}

impl InputSet {
    /// Longest sequence in the set (either side).
    fn max_seq_len(&self) -> usize {
        self.pairs
            .iter()
            .map(|p| p.a.len().max(p.b.len()))
            .max()
            .unwrap_or(0)
    }

    /// The `MAX_READ_LEN` the CPU would program into the accelerator:
    /// the longest sequence rounded up to a multiple of 16 (paper §4.2,
    /// "if the longest sequence ... has a length of 9010 bases, the
    /// MAX_READ_LEN is set to 9024").
    pub fn max_read_len(&self) -> usize {
        round_up_16(self.max_seq_len())
    }
}

/// Round up to the AXI data width granule (16 bytes/bases).
pub fn round_up_16(n: usize) -> usize {
    n.div_ceil(16) * 16
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper() {
        let names: Vec<String> = InputSetSpec::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec!["100-5%", "100-10%", "1K-5%", "1K-10%", "10K-5%", "10K-10%"]
        );
    }

    #[test]
    fn paper_rounding_example() {
        assert_eq!(round_up_16(9010), 9024);
        assert_eq!(round_up_16(16), 16);
        assert_eq!(round_up_16(0), 0);
        assert_eq!(round_up_16(1), 16);
    }

    #[test]
    fn generated_set_shape() {
        let set = InputSetSpec {
            length: 100,
            error_pct: 10,
        }
        .generate(8, 3);
        assert_eq!(set.pairs.len(), 8);
        assert!(set.max_seq_len() >= 100);
        assert_eq!(set.max_read_len() % 16, 0);
        assert!(set.max_read_len() >= set.max_seq_len());
    }

    #[test]
    fn distinct_seeds_distinct_sets() {
        let s1 = InputSetSpec::ALL[0].generate(2, 1);
        let s2 = InputSetSpec::ALL[0].generate(2, 2);
        assert_ne!(s1.pairs, s2.pairs);
    }
}
