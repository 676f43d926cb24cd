//! Gap-affine penalty model used throughout WFAsic.
//!
//! The paper (and the WFA algorithm it accelerates) uses the *gap-affine*
//! scoring model of Smith-Waterman-Gotoh: matches are free, a mismatch costs
//! `x`, and a gap of length `L` costs `o + L*e` (the first gap base pays both
//! the opening and the extension penalty, per Eq. 2/3 of the paper).

/// Gap-affine penalties `(x, o, e)`.
///
/// All penalties are non-negative costs (the alignment *minimizes* the total
/// penalty; identical sequences score 0). The WFA recurrences additionally
/// require `x > 0` and `e > 0` so that every edit strictly increases the
/// score, which guarantees progress of the wavefront iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Penalties {
    /// Mismatch (substitution) penalty.
    pub x: u32,
    /// Gap-opening penalty (charged once per run of insertions or deletions).
    pub o: u32,
    /// Gap-extension penalty (charged for every gap base, including the first).
    pub e: u32,
}

impl Penalties {
    /// The penalties used throughout the paper's examples and in the taped-out
    /// WFAsic configuration: `(x, o, e) = (4, 6, 2)`.
    pub const WFASIC_DEFAULT: Penalties = Penalties { x: 4, o: 6, e: 2 };

    /// Create a new penalty set, validating the WFA requirements.
    pub fn new(x: u32, o: u32, e: u32) -> Result<Self, PenaltyError> {
        let p = Penalties { x, o, e };
        p.validate()?;
        Ok(p)
    }

    /// Check that the penalties satisfy the WFA preconditions.
    pub fn validate(&self) -> Result<(), PenaltyError> {
        if self.x == 0 {
            return Err(PenaltyError::ZeroMismatch);
        }
        if self.e == 0 {
            return Err(PenaltyError::ZeroGapExtension);
        }
        Ok(())
    }

    /// Cost of opening a gap: the first gap base pays `o + e`.
    #[inline]
    pub fn gap_open(&self) -> u32 {
        self.o + self.e
    }

    /// Cost of a gap of length `len` (`0` for an empty gap).
    #[inline]
    pub fn gap_cost(&self, len: u32) -> u32 {
        if len == 0 {
            0
        } else {
            self.o + self.e * len
        }
    }

    /// Paper Eq. 6: the maximum alignment score supported by a hardware design
    /// whose wavefront vectors are bounded to `k_max` diagonals per side:
    /// `score_max = 2*k_max + 4`.
    pub fn hardware_score_max(k_max: u32) -> u32 {
        2 * k_max + 4
    }
}

impl Default for Penalties {
    fn default() -> Self {
        Self::WFASIC_DEFAULT
    }
}

/// Errors for invalid penalty configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PenaltyError {
    /// The mismatch penalty must be strictly positive.
    ZeroMismatch,
    /// The gap-extension penalty must be strictly positive.
    ZeroGapExtension,
}

impl std::fmt::Display for PenaltyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PenaltyError::ZeroMismatch => write!(f, "mismatch penalty x must be > 0"),
            PenaltyError::ZeroGapExtension => write!(f, "gap-extension penalty e must be > 0"),
        }
    }
}

impl std::error::Error for PenaltyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let p = Penalties::default();
        assert_eq!((p.x, p.o, p.e), (4, 6, 2));
    }

    #[test]
    fn validation_rejects_zero_x_and_e() {
        assert_eq!(Penalties::new(0, 6, 2), Err(PenaltyError::ZeroMismatch));
        assert_eq!(Penalties::new(4, 6, 0), Err(PenaltyError::ZeroGapExtension));
        assert!(
            Penalties::new(4, 0, 2).is_ok(),
            "o = 0 degrades to gap-linear and is legal"
        );
    }

    #[test]
    fn gap_cost_affine() {
        let p = Penalties::default();
        assert_eq!(p.gap_cost(0), 0);
        assert_eq!(p.gap_cost(1), 8);
        assert_eq!(p.gap_cost(3), 12);
        assert_eq!(p.gap_open(), 8);
    }

    #[test]
    fn eq6_score_max() {
        assert_eq!(Penalties::hardware_score_max(3998), 8000);
    }
}
