//! The deterministic wavefront schedule.
//!
//! Which scores get a wavefront, and how wide each wavefront's diagonal range
//! is, depends only on the penalties and the `k_max` clamp — never on the
//! sequence data (ranges grow by one diagonal per computed score on each
//! side; Eq. 3's sources are fixed lookbacks). Both ends of the backtrace
//! co-design rely on this:
//!
//! * the Aligner emits origin blocks for the frame column's full
//!   (deterministic) range, batch by batch;
//! * the CPU backtrace recomputes the same schedule to locate the 5-bit
//!   origin of any `(score, diagonal)` cell inside the block stream
//!   (paper §4.5: "the CPU code should correctly handle the gaps between
//!   backtrace data").

use wfa_core::Penalties;

/// One computed wavefront step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// The score of this wavefront.
    pub score: u32,
    /// Diagonal half-range: the frame column covers `-depth..=depth`.
    pub depth: u32,
    /// Origin blocks emitted before this step (cumulative, across the whole
    /// alignment). Score 0 (the initial wavefront) emits no blocks.
    pub block_offset: u64,
}

/// The full schedule up to a score limit.
#[derive(Debug, Clone)]
pub struct WavefrontSchedule {
    steps: Vec<Step>,
    /// `by_score[s] = Some(index into steps)` when score `s` is computed.
    by_score: Vec<Option<u32>>,
    parallel_sections: usize,
    k_max: u32,
}

impl WavefrontSchedule {
    /// Build the schedule for scores `0..=score_max`.
    pub fn new(p: Penalties, k_max: u32, score_max: u32, parallel_sections: usize) -> Self {
        assert!(parallel_sections > 0);
        let n = score_max as usize + 1;
        let mut by_score: Vec<Option<u32>> = vec![None; n];
        let mut steps = Vec::new();
        // Per-component structural existence (ignores the data-dependent
        // matrix bounds, which only nullify individual cells):
        //   I[s] exists iff M[s-o-e] or I[s-e] exists (Eq. 3), same for D;
        //   M[s] exists iff M[s-x], I[s] or D[s] exists; M[0] exists.
        let mut m_ex = vec![false; n];
        let mut i_ex = vec![false; n];
        let mut d_ex = vec![false; n];
        let mut depth_of = vec![0u32; n];
        m_ex[0] = true;

        // Score 0: the initial wavefront, depth 0, no origin block.
        by_score[0] = Some(0);
        steps.push(Step {
            score: 0,
            depth: 0,
            block_offset: 0,
        });

        let mut blocks: u64 = 0;
        for s in 1..=score_max {
            let su = s as usize;
            let back = |arr: &[bool], b: u32| s >= b && arr[(s - b) as usize];
            i_ex[su] = back(&m_ex, p.o + p.e) || back(&i_ex, p.e);
            d_ex[su] = back(&m_ex, p.o + p.e) || back(&d_ex, p.e);
            m_ex[su] = back(&m_ex, p.x) || i_ex[su] || d_ex[su];
            if !(m_ex[su] || i_ex[su] || d_ex[su]) {
                continue;
            }
            // The frame-column range widens by one over the deepest source.
            let deepest = [
                back(&m_ex, p.x).then(|| depth_of[(s - p.x) as usize]),
                back(&m_ex, p.o + p.e).then(|| depth_of[(s - p.o - p.e) as usize]),
                (s >= p.e && (i_ex[(s - p.e) as usize] || d_ex[(s - p.e) as usize]))
                    .then(|| depth_of[(s - p.e) as usize]),
            ]
            .into_iter()
            .flatten()
            .max()
            .expect("existing wavefront must have a source");
            let depth = (deepest + 1).min(k_max);
            depth_of[su] = depth;
            by_score[su] = Some(steps.len() as u32);
            steps.push(Step {
                score: s,
                depth,
                block_offset: blocks,
            });
            blocks += Self::blocks_for_depth(depth, k_max, parallel_sections);
        }

        WavefrontSchedule {
            steps,
            by_score,
            parallel_sections,
            k_max,
        }
    }

    /// Build from an accelerator configuration.
    pub fn for_config(cfg: &crate::config::AccelConfig) -> Self {
        Self::new(
            cfg.penalties,
            cfg.k_max,
            cfg.score_max(),
            cfg.parallel_sections,
        )
    }

    /// Origin blocks a frame column of half-range `depth` needs: the column
    /// is processed in `P`-aligned row groups of the wavefront matrix (row
    /// `= k + k_max`), because the Fig. 6 bank distribution and its
    /// duplicated edge banks only cover aligned batches.
    fn blocks_for_depth(depth: u32, k_max: u32, parallel_sections: usize) -> u64 {
        let lo = (k_max - depth) as usize / parallel_sections;
        let hi = (k_max + depth) as usize / parallel_sections;
        (hi - lo + 1) as u64
    }

    /// All computed steps, ascending by score.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// The step for a score, if that score is ever computed.
    fn step_of(&self, score: u32) -> Option<&Step> {
        let idx = *self.by_score.get(score as usize)?;
        idx.map(|i| &self.steps[i as usize])
    }

    /// Total origin blocks emitted for an alignment that terminates at
    /// `final_score` (inclusive).
    pub fn total_blocks_through(&self, final_score: u32) -> u64 {
        match self.step_of(final_score) {
            Some(step) => {
                step.block_offset
                    + Self::blocks_for_depth(step.depth, self.k_max, self.parallel_sections)
            }
            None => 0,
        }
    }

    /// Locate the origin of cell `(score, k)`: returns
    /// `(global_block_index, cell_within_block)`. Rows are absolute
    /// wavefront-matrix rows (`k + k_max`) grouped `P`-aligned.
    ///
    /// Score 0 has no origins (the initial wavefront was never computed).
    pub fn locate(&self, score: u32, k: i32) -> Option<(u64, usize)> {
        if score == 0 {
            return None;
        }
        let step = self.step_of(score)?;
        let depth = step.depth as i32;
        if k < -depth || k > depth {
            return None;
        }
        let row = (k + self.k_max as i32) as usize;
        let first_group = (self.k_max - step.depth) as usize / self.parallel_sections;
        Some((
            step.block_offset + (row / self.parallel_sections - first_group) as u64,
            row % self.parallel_sections,
        ))
    }

    /// The wavefront-matrix center row (`k_max`).
    pub fn k_max(&self) -> u32 {
        self.k_max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: Penalties = Penalties::WFASIC_DEFAULT;

    #[test]
    fn computed_scores_for_default_penalties() {
        // (x, o, e) = (4, 6, 2): reachable scores are 0, 4, 8, then every
        // even score from 8 up (paper Fig. 1: "only for some scores
        // wavefront vectors are generated, i.e., 0, 4, 8, 10, 12, 14...").
        let s = WavefrontSchedule::new(P, 100, 40, 64);
        let computed: Vec<u32> = s.steps().iter().map(|st| st.score).collect();
        assert_eq!(
            computed,
            vec![0, 4, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30, 32, 34, 36, 38, 40]
        );
    }

    #[test]
    fn depths_grow_one_per_step_along_deepest_chain() {
        let s = WavefrontSchedule::new(P, 100, 40, 64);
        // depth(4) = 1 (from score 0), depth(8) = 2 (from 4 or 0).
        assert_eq!(s.step_of(4).unwrap().depth, 1);
        assert_eq!(s.step_of(8).unwrap().depth, 2);
        assert_eq!(s.step_of(10).unwrap().depth, 3);
        // Depths are monotone along the schedule.
        let depths: Vec<u32> = s.steps().iter().map(|st| st.depth).collect();
        assert!(depths.windows(2).all(|w| w[1] >= w[0]));
    }

    #[test]
    fn k_max_clamps_depth() {
        let s = WavefrontSchedule::new(P, 3, 60, 64);
        let max_depth = s.steps().iter().map(|st| st.depth).max().unwrap();
        assert_eq!(max_depth, 3);
    }

    #[test]
    fn block_offsets_accumulate() {
        // k_max = 100: center row 100. P = 4.
        let s = WavefrontSchedule::new(P, 100, 40, 4);
        // Score 4 (depth 1): rows 99..=101, groups 24..=25 -> 2 blocks.
        // Score 8 (depth 2): rows 98..=102, groups 24..=25 -> 2 blocks.
        // Score 10 (depth 3): rows 97..=103, groups 24..=25 -> 2 blocks.
        assert_eq!(s.step_of(4).unwrap().block_offset, 0);
        assert_eq!(s.step_of(8).unwrap().block_offset, 2);
        assert_eq!(s.step_of(10).unwrap().block_offset, 4);
        assert_eq!(s.total_blocks_through(8), 4);
    }

    #[test]
    fn locate_cells() {
        let s = WavefrontSchedule::new(P, 100, 40, 4);
        // Score 8 (depth 2): k=-2 -> row 98 (group 24, lane 2), blocks
        // start at offset 2, first group 24.
        assert_eq!(s.locate(8, -2), Some((2, 2)));
        assert_eq!(s.locate(8, 1), Some((3, 1)));
        assert_eq!(s.locate(8, 2), Some((3, 2)));
        assert_eq!(s.locate(8, 3), None, "outside the range");
        assert_eq!(s.locate(0, 0), None, "initial wavefront has no origins");
        assert_eq!(s.locate(5, 0), None, "score 5 never computed");
    }

    #[test]
    fn uncomputable_scores_absent() {
        let s = WavefrontSchedule::new(P, 100, 40, 64);
        for sc in [1, 2, 3, 5, 6, 7, 9] {
            assert!(s.step_of(sc).is_none(), "score {sc}");
        }
    }
}
