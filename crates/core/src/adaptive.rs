//! Heuristic wavefront reduction (the WFA-adaptive strategy of Marco-Sola et
//! al., offered as an extension; WFAsic itself is *exact* — the paper's
//! related-work section contrasts it with heuristic accelerators).
//!
//! After each `extend()`, diagonals whose best-case remaining distance to the
//! target cell `(n, m)` is far worse than the current best are dropped. This
//! trades exactness for a narrower wavefront: the returned score is an upper
//! bound on the optimal score (never better, usually equal for realistic
//! error distributions).

use crate::wavefront::{offset_is_valid, Wavefront, OFFSET_NULL};

/// Parameters of the adaptive reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveParams {
    /// Only prune wavefronts longer than this many diagonals.
    pub min_wavefront_length: usize,
    /// Drop a diagonal when its distance-to-target exceeds the best
    /// diagonal's distance by more than this.
    pub max_distance_threshold: i32,
}

impl Default for AdaptiveParams {
    fn default() -> Self {
        // The defaults used by the reference WFA implementation.
        AdaptiveParams {
            min_wavefront_length: 10,
            max_distance_threshold: 50,
        }
    }
}

/// Anti-diagonal distance from the cell `(i, j) = (offset - k, offset)` to
/// the target `(n, m)`: the minimum number of remaining base consumptions.
#[inline]
fn distance_to_target(off: i32, k: i32, n: i32, m: i32) -> i32 {
    let i = off - k;
    let j = off;
    (n - i) + (m - j)
}

/// Prune the M wavefront in place. Returns the number of diagonals dropped.
pub fn reduce_wavefront(w: &mut Wavefront, n: i32, m: i32, params: &AdaptiveParams) -> usize {
    if w.len() <= params.min_wavefront_length {
        return 0;
    }
    let mut best = i32::MAX;
    for (k, off) in w.valid_cells() {
        best = best.min(distance_to_target(off, k, n, m));
    }
    if best == i32::MAX {
        return 0;
    }
    let mut dropped = 0;
    let lo = w.lo;
    for (idx, off) in w.offsets.iter_mut().enumerate() {
        if !offset_is_valid(*off) {
            continue;
        }
        let k = lo + idx as i32;
        if distance_to_target(*off, k, n, m) > best + params.max_distance_threshold {
            *off = OFFSET_NULL;
            dropped += 1;
        }
    }
    if dropped > 0 {
        w.shrink_to_valid();
    }
    dropped
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::penalties::Penalties;
    use crate::swg::swg_score;
    use crate::wfa::{wfa_align, WfaOptions};

    const P: Penalties = Penalties::WFASIC_DEFAULT;

    #[test]
    fn no_prune_below_min_length() {
        let mut w = Wavefront::null_range(-2, 2);
        w.set(0, 100);
        w.set(2, 0);
        let dropped = reduce_wavefront(&mut w, 100, 100, &AdaptiveParams::default());
        assert_eq!(dropped, 0, "short wavefronts are left alone");
    }

    #[test]
    fn prunes_hopeless_diagonals() {
        let mut w = Wavefront::null_range(-40, 40);
        w.set(0, 100); // distance 0 to (100, 100)
        w.set(40, 0); // far behind
        let params = AdaptiveParams {
            min_wavefront_length: 4,
            max_distance_threshold: 30,
        };
        let dropped = reduce_wavefront(&mut w, 100, 100, &params);
        assert_eq!(dropped, 1);
        assert!(!offset_is_valid(w.get(40)));
        assert_eq!(w.get(0), 100);
    }

    #[test]
    fn adaptive_score_never_beats_exact() {
        let a = b"GATTACAGATTACAGATTACAGATTACA";
        let b = b"GATCACAGATTACAGAATTACAGATTCA";
        let exact = swg_score(a, b, &P);
        let opts = WfaOptions {
            compute_cigar: false,
            ..WfaOptions::adaptive(P, AdaptiveParams::default())
        };
        let adaptive = wfa_align(a, b, &opts).unwrap();
        assert!(adaptive.score as u64 >= exact);
        // With the default (loose) thresholds it stays exact on this input.
        assert_eq!(adaptive.score as u64, exact);
    }

    #[test]
    fn pruning_narrows_wavefronts_on_structural_variants() {
        // A long foreign insert makes the wavefront spread: laggard
        // diagonals fall behind and get pruned, reducing computed cells.
        let a: Vec<u8> = (0..240).map(|i| b"ACGT"[i % 4]).collect();
        let mut b = a.clone();
        let insert: Vec<u8> = (0..60).map(|i| b"TTGG"[i % 4]).collect();
        b.splice(120..120, insert);
        let exact = wfa_align(&a, &b, &WfaOptions::score_only(P)).unwrap();
        let params = AdaptiveParams {
            min_wavefront_length: 4,
            max_distance_threshold: 8,
        };
        let opts = WfaOptions {
            compute_cigar: false,
            ..WfaOptions::adaptive(P, params)
        };
        let pruned = wfa_align(&a, &b, &opts).unwrap();
        assert!(pruned.score >= exact.score);
        assert!(
            pruned.stats.cells_computed < exact.stats.cells_computed,
            "pruning must reduce work: {} vs {}",
            pruned.stats.cells_computed,
            exact.stats.cells_computed
        );
    }

    #[test]
    fn tight_threshold_still_completes() {
        let a: Vec<u8> = (0..200).map(|i| b"ACGT"[i % 4]).collect();
        let mut b = a.clone();
        b[50] = b'A';
        b[51] = b'A';
        let params = AdaptiveParams {
            min_wavefront_length: 2,
            max_distance_threshold: 10,
        };
        let opts = WfaOptions {
            compute_cigar: false,
            ..WfaOptions::adaptive(P, params)
        };
        let r = wfa_align(&a, &b, &opts).unwrap();
        assert!(r.score as u64 >= swg_score(&a, &b, &P));
    }
}
