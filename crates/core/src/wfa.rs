//! The exact gap-affine WaveFront Alignment algorithm (paper §2.3, Eq. 3/4).
//!
//! WFA computes the same optimal score and alignment as Smith-Waterman-Gotoh
//! but visits only `O(n*s)` cells: for each score `s` (in increasing order) it
//! keeps, per diagonal `k`, the farthest DP cell reachable with exactly that
//! score, then alternates two operators:
//!
//! * `extend()` — advance each M offset along its diagonal while bases match
//!   (matches are free, so the farthest cell of the same score moves);
//! * `compute()` — build the next score's wavefronts from the wavefronts at
//!   `s - x`, `s - o - e`, and `s - e` (Eq. 3).
//!
//! The iteration stops when the wavefront reaches the cell `(n, m)`.

use crate::arena::WavefrontArena;
use crate::backtrace;
use crate::cigar::Cigar;
use crate::kernel;
use crate::penalties::Penalties;
use crate::seq::Seq;
use crate::wavefront::{fill_row, offset_is_valid, WavefrontSet, OFFSET_NULL};

/// Which algorithm answers an alignment call — the strategy axis of the
/// engine. Both strategies are exact and share the same wavefront
/// kernels, arena and extend ladder; they differ in what they *retain*:
///
/// * [`AlignStrategy::Exact`] — today's full-history WFA: optimal score
///   and CIGAR, `O(s²)` retained wavefront memory in CIGAR mode.
/// * [`AlignStrategy::BiWfa`] — bidirectional linear-memory WFA: forward
///   and reverse score-only wavefronts meet in the middle and the engine
///   recurses on the split point. Optimal score and a valid optimal
///   CIGAR, `O(s)` retained wavefront memory — the long-read mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AlignStrategy {
    /// Exact full-history WFA (the default).
    #[default]
    Exact,
    /// Bidirectional linear-memory WFA (exact score, `O(s)` memory).
    BiWfa,
}

/// Options controlling a WFA run.
#[derive(Debug, Clone, Copy)]
pub struct WfaOptions {
    /// Penalty model.
    pub penalties: Penalties,
    /// Algorithm strategy (see [`AlignStrategy`]).
    pub strategy: AlignStrategy,
    /// Keep all wavefronts and produce a CIGAR (otherwise score-only with
    /// bounded memory, like the accelerator with backtrace disabled).
    pub compute_cigar: bool,
}

impl WfaOptions {
    /// Exact, unbounded alignment with a CIGAR.
    pub fn exact(penalties: Penalties) -> Self {
        WfaOptions {
            penalties,
            strategy: AlignStrategy::Exact,
            compute_cigar: true,
        }
    }

    /// Score-only (bounded-memory) exact alignment.
    pub fn score_only(penalties: Penalties) -> Self {
        WfaOptions {
            compute_cigar: false,
            ..Self::exact(penalties)
        }
    }

    /// Bidirectional linear-memory alignment with a CIGAR — the long-read
    /// configuration: exact scores and valid optimal CIGARs in `O(s)`
    /// retained wavefront memory.
    pub fn biwfa(penalties: Penalties) -> Self {
        WfaOptions {
            strategy: AlignStrategy::BiWfa,
            ..Self::exact(penalties)
        }
    }
}

impl Default for WfaOptions {
    fn default() -> Self {
        Self::exact(Penalties::default())
    }
}

/// Work statistics of a WFA run — the basis for the CPU cycle models and for
/// CUPS accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WfaStats {
    /// Wavefront component cells computed by `compute()` (M + I + D).
    pub cells_computed: u64,
    /// Base comparisons performed by `extend()` (matches + the terminating
    /// mismatch where applicable).
    pub bases_compared: u64,
    /// Individual diagonal extensions performed.
    pub extend_calls: u64,
    /// Scores for which a (non-null) wavefront set exists.
    pub score_steps: u64,
    /// Widest wavefront (number of diagonals) seen.
    pub max_wavefront_len: u64,
    /// Peak retained wavefront memory in bytes.
    pub peak_memory_bytes: u64,
}

/// The result of a WFA alignment.
#[derive(Debug, Clone)]
pub struct WfaAlignment {
    /// Optimal gap-affine score (exact, equal to SWG).
    pub score: u32,
    /// Optimal transcript (present iff `compute_cigar` was set).
    pub cigar: Option<Cigar>,
    /// Work statistics.
    pub stats: WfaStats,
}

/// WFA failure modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WfaError {
    /// No alignment reached the end cell at or below `limit`, the
    /// all-gaps cost. Every optimum s* is at most that cost, so an exact
    /// run always ends first: this error only reports a defect in the
    /// engine, never a property of the input.
    ScoreLimitExceeded { limit: u32 },
    /// Invalid penalties.
    BadPenalties(crate::penalties::PenaltyError),
}

impl std::fmt::Display for WfaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WfaError::ScoreLimitExceeded { limit } => {
                write!(f, "no alignment reached the end within score {limit}")
            }
            WfaError::BadPenalties(e) => write!(f, "invalid penalties: {e}"),
        }
    }
}

impl std::error::Error for WfaError {}

/// Validate a candidate offset for diagonal `k` against the DP-matrix bounds:
/// the cell `(i, j) = (offset - k, offset)` must lie inside the matrix.
#[inline]
pub fn validated_offset(off: i32, k: i32, n: i32, m: i32) -> i32 {
    if !offset_is_valid(off) {
        return OFFSET_NULL;
    }
    let j = off;
    let i = off - k;
    if j < 0 || j > m || i < 0 || i > n {
        OFFSET_NULL
    } else {
        off
    }
}

/// Eq. 3, insertion component: `I[s][k] = max(M[s-o-e][k-1], I[s-e][k-1]) + 1`.
///
/// Each candidate is bounds-validated *before* the max: a larger source
/// offset whose successor cell falls outside the matrix must not shadow a
/// smaller one whose successor is valid (this matters at the right/bottom
/// matrix edges).
#[inline]
pub fn compute_cell_i(m_open: i32, i_ext: i32, k: i32, n: i32, m: i32) -> i32 {
    let open = if offset_is_valid(m_open) {
        validated_offset(m_open + 1, k, n, m)
    } else {
        OFFSET_NULL
    };
    let ext = if offset_is_valid(i_ext) {
        validated_offset(i_ext + 1, k, n, m)
    } else {
        OFFSET_NULL
    };
    open.max(ext)
}

/// Eq. 3, deletion component: `D[s][k] = max(M[s-o-e][k+1], D[s-e][k+1])`.
/// Candidates validate before the max, as in [`compute_cell_i`].
#[inline]
pub fn compute_cell_d(m_open: i32, d_ext: i32, k: i32, n: i32, m: i32) -> i32 {
    let open = if offset_is_valid(m_open) {
        validated_offset(m_open, k, n, m)
    } else {
        OFFSET_NULL
    };
    let ext = if offset_is_valid(d_ext) {
        validated_offset(d_ext, k, n, m)
    } else {
        OFFSET_NULL
    };
    open.max(ext)
}

/// Eq. 3, match component: `M[s][k] = max(M[s-x][k] + 1, I[s][k], D[s][k])`.
#[inline]
pub fn compute_cell_m(m_sub: i32, i_cur: i32, d_cur: i32, k: i32, n: i32, m: i32) -> i32 {
    let sub = if offset_is_valid(m_sub) {
        validated_offset(m_sub + 1, k, n, m)
    } else {
        OFFSET_NULL
    };
    sub.max(i_cur).max(d_cur)
}

/// Align `a` against `b` end-to-end over raw bytes (any alphabet), with a
/// private [`WavefrontArena`]. Callers aligning many pairs should hold
/// [`Seq`]s and reuse one arena via [`wfa_align_seqs_with_arena`].
pub fn wfa_align(a: &[u8], b: &[u8], opts: &WfaOptions) -> Result<WfaAlignment, WfaError> {
    wfa_align_seqs_ref(a, b, opts, &mut WavefrontArena::new())
}

/// Align a [`Seq`] pair. The engine runs on bytes: a packed side is
/// decoded once here, a raw side (non-ACGT alphabets) is borrowed as is.
pub fn wfa_align_seqs(a: &Seq, b: &Seq, opts: &WfaOptions) -> Result<WfaAlignment, WfaError> {
    wfa_align_seqs_with_arena(a, b, opts, &mut WavefrontArena::new())
}

/// [`wfa_align_seqs`] with caller-provided scratch: wavefront buffers come
/// from (and return to) `arena`, so aligning a stream of pairs stops
/// hitting the allocator after the first few. Results, statistics and
/// simulated-cycle inputs are bit-identical to a fresh arena.
pub fn wfa_align_seqs_with_arena(
    a: &Seq,
    b: &Seq,
    opts: &WfaOptions,
    arena: &mut WavefrontArena,
) -> Result<WfaAlignment, WfaError> {
    wfa_align_seqs_ref(&a.bytes(), &b.bytes(), opts, arena)
}

/// The lowest-level entry: align two byte slices with `arena`'s buffers.
pub(crate) fn wfa_align_seqs_ref(
    a: &[u8],
    b: &[u8],
    opts: &WfaOptions,
    arena: &mut WavefrontArena,
) -> Result<WfaAlignment, WfaError> {
    match opts.strategy {
        // Bidirectional CIGAR path: the linear-memory engine. Score-only
        // BiWfa requests fall through to the unidirectional loop below,
        // which is already O(s) memory in score-only mode and computes the
        // identical (exact) score.
        AlignStrategy::BiWfa if opts.compute_cigar => crate::biwfa::biwfa_align(a, b, opts, arena),
        _ => wfa_align_inner(a, b, opts, arena),
    }
}

/// How a [`WfaMachine`] retains old wavefronts across score steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Retention {
    /// Keep every wavefront (the full-history mode the backtrace needs).
    Full,
    /// The seed score-only policy, preserved bit-for-bit because its
    /// `peak_memory_bytes` feeds the blessed cycle baselines: drop the
    /// single slot `s - w - 1`, and only on steps that actually compute a
    /// front. Under the default all-even penalty costs every front sits
    /// at an even score while `s - w - 1` is odd on compute steps, so in
    /// practice this retains the full history — the model the gated
    /// metrics were calibrated against.
    Legacy(usize),
    /// True bounded-memory mode for the bidirectional engine: every step
    /// drops *all* fronts older than `s - w`, including on source-less
    /// and all-null steps.
    Strict(usize),
}

/// The incremental unidirectional WFA engine: one score step at a time
/// over an arena-backed spine of per-score wavefront sets.
///
/// [`wfa_align_inner`] drives it straight to termination (the classic
/// single-pass WFA); the bidirectional engine ([`crate::biwfa`]) drives a
/// forward and a reverse machine in lock-step and reads their fronts to
/// find the meet point. Work statistics are accounted exactly as the
/// pre-refactor monolithic loop did, so cycle models and gated metrics are
/// bit-identical.
pub(crate) struct WfaMachine<'s> {
    a: &'s [u8],
    b: &'s [u8],
    pub(crate) n: i32,
    pub(crate) m: i32,
    p: Penalties,
    /// The all-gaps alignment cost, which bounds every optimum: the
    /// loop's termination guard. An exact run always ends at or below it,
    /// so reaching it means the engine is at fault; the guard turns such a
    /// defect into [`WfaError::ScoreLimitExceeded`] instead of a loop that
    /// never ends.
    cap: u64,
    /// `fronts[s]` is the wavefront set for score `s` (None once dropped
    /// by the retention window or never materialized).
    pub(crate) fronts: Vec<Option<WavefrontSet>>,
    /// Current score.
    pub(crate) s: usize,
    /// First spine slot not yet reclaimed by [`Retention::Strict`].
    drop_floor: usize,
    live_memory: u64,
    pub(crate) stats: WfaStats,
}

impl<'s> WfaMachine<'s> {
    pub(crate) fn new(a: &'s [u8], b: &'s [u8], p: Penalties, arena: &mut WavefrontArena) -> Self {
        let n = a.len() as i32;
        let m = b.len() as i32;
        let cap = p.gap_cost(n as u32) as u64 + p.gap_cost(m as u32) as u64;
        let mut fronts = arena.take_spine();
        fronts.push(Some(WavefrontSet {
            m: arena.initial(),
            i: None,
            d: None,
        }));
        let live_memory = fronts[0].as_ref().unwrap().memory_bytes() as u64;
        let stats = WfaStats {
            peak_memory_bytes: live_memory,
            ..WfaStats::default()
        };
        WfaMachine {
            a,
            b,
            n,
            m,
            p,
            cap,
            fronts,
            s: 0,
            drop_floor: 0,
            live_memory,
            stats,
        }
    }

    #[inline]
    pub(crate) fn k_end(&self) -> i32 {
        self.m - self.n
    }

    /// Wavefront set at score `score`, if still retained.
    #[inline]
    pub(crate) fn front(&self, score: usize) -> Option<&WavefrontSet> {
        self.fronts.get(score).and_then(|f| f.as_ref())
    }

    /// Retained wavefront bytes right now.
    #[inline]
    pub(crate) fn live_memory(&self) -> u64 {
        self.live_memory
    }

    /// Has the score cap been reached? [`Self::step`] must not be called
    /// past it.
    #[inline]
    pub(crate) fn at_cap(&self) -> bool {
        self.s as u64 >= self.cap
    }

    /// `extend()` the current front's M offsets along their diagonals
    /// (matches are free). Returns true when a front exists at the
    /// current score.
    pub(crate) fn extend_current(&mut self) -> bool {
        let (n, m) = (self.n as usize, self.m as usize);
        let Some(set) = self.fronts[self.s].as_mut() else {
            return false;
        };
        let stats = &mut self.stats;
        stats.score_steps += 1;
        stats.max_wavefront_len = stats.max_wavefront_len.max(set.m.len() as u64);
        let lo = set.m.lo;
        for (idx, off) in set.m.offsets.iter_mut().enumerate() {
            if !offset_is_valid(*off) {
                continue;
            }
            let (i, j) = ((*off - (lo + idx as i32)) as usize, *off as usize);
            let matches = kernel::lcp_bytes(self.a, self.b, i, j);
            *off += matches as i32;
            stats.extend_calls += 1;
            // Count the terminating comparison too when we stopped on a
            // mismatch inside both sequences.
            stats.bases_compared += matches as u64 + (matches < (n - i).min(m - j)) as u64;
        }
        true
    }

    /// Has the current front's M component reached the end cell `(n, m)`?
    pub(crate) fn reached_end(&self) -> bool {
        self.front(self.s)
            .is_some_and(|set| set.m.get(self.k_end()) == self.m)
    }

    /// Advance the score by one and `compute()` the next wavefront set
    /// (Eq. 3, batched kernel). `retention` governs which old fronts are
    /// recycled — see [`Retention`]. The caller stops at the cap: see
    /// [`Self::at_cap`].
    pub(crate) fn step(&mut self, arena: &mut WavefrontArena, retention: Retention) {
        debug_assert!(!self.at_cap(), "step past the all-gaps cap");
        let (n, m, p) = (self.n, self.m, self.p);
        self.s += 1;
        let s = self.s;

        if let Retention::Strict(w) = retention {
            // Reclaim everything older than the window, on every step —
            // including the source-less and all-null early-outs below.
            while self.drop_floor + w < s {
                if let Some(old) = self.fronts[self.drop_floor].take() {
                    self.live_memory -= old.memory_bytes() as u64;
                    arena.recycle_set(old);
                }
                self.drop_floor += 1;
            }
        }

        let fronts = &mut self.fronts;
        let get = |fronts: &[Option<WavefrontSet>], back: u32| -> Option<usize> {
            let back = back as usize;
            if s >= back && fronts[s - back].is_some() {
                Some(s - back)
            } else {
                None
            }
        };
        let src_sub = get(fronts, p.x);
        let src_open = get(fronts, p.o + p.e);
        let src_ext = get(fronts, p.e);
        // A wavefront for this score exists only if some source exists.
        if src_sub.is_none() && src_open.is_none() && src_ext.is_none() {
            fronts.push(None);
            return;
        }

        // New diagonal range: sources widen by one on each side through the
        // I (k-1 -> k) and D (k+1 -> k) transitions.
        let mut lo = i32::MAX;
        let mut hi = i32::MIN;
        let mut consider = |idx: Option<usize>, fronts: &[Option<WavefrontSet>]| {
            if let Some(i) = idx {
                let set = fronts[i].as_ref().unwrap();
                lo = lo.min(set.m.lo);
                hi = hi.max(set.m.hi);
                if let Some(w) = &set.i {
                    lo = lo.min(w.lo);
                    hi = hi.max(w.hi);
                }
                if let Some(w) = &set.d {
                    lo = lo.min(w.lo);
                    hi = hi.max(w.hi);
                }
            }
        };
        consider(src_sub, fronts);
        consider(src_open, fronts);
        consider(src_ext, fronts);
        let lo = lo - 1;
        let hi = hi + 1;

        let mut wi = arena.wavefront(lo, hi);
        let mut wd = arena.wavefront(lo, hi);
        let mut wm = arena.wavefront(lo, hi);

        // Hoist the source-wavefront lookups out of the per-diagonal loop:
        // the sources are fixed for the whole score step.
        let sub_m = src_sub.map(|i| &fronts[i].as_ref().unwrap().m);
        let open_m = src_open.map(|i| &fronts[i].as_ref().unwrap().m);
        let (ext_i, ext_d) = match src_ext {
            Some(i) => {
                let set = fronts[i].as_ref().unwrap();
                (set.i.as_ref(), set.d.as_ref())
            }
            None => (None, None),
        };

        // Gather the four Eq. 3 source rows (with a one-diagonal halo on
        // each side) and compute the whole run of adjacent diagonals in one
        // batched kernel call. The outputs are written unconditionally: an
        // invalid component is exactly OFFSET_NULL, identical to the arena's
        // NULL fill, so the per-cell validity branches are unnecessary.
        let mut sub_row = arena.take_row();
        let mut open_row = arena.take_row();
        let mut iext_row = arena.take_row();
        let mut dext_row = arena.take_row();
        fill_row(&mut sub_row, lo - 1, hi + 1, sub_m);
        fill_row(&mut open_row, lo - 1, hi + 1, open_m);
        fill_row(&mut iext_row, lo - 1, hi + 1, ext_i);
        fill_row(&mut dext_row, lo - 1, hi + 1, ext_d);
        kernel::compute_row(
            &sub_row,
            &open_row,
            &iext_row,
            &dext_row,
            lo,
            n,
            m,
            &mut wi.offsets,
            &mut wd.offsets,
            &mut wm.offsets,
        );
        arena.recycle_row(sub_row);
        arena.recycle_row(open_row);
        arena.recycle_row(iext_row);
        arena.recycle_row(dext_row);
        self.stats.cells_computed += 3 * wm.offsets.len() as u64;
        let any_i = !wi.is_all_null();
        let any_d = !wd.is_all_null();
        let any_m = !wm.is_all_null();

        if !any_m && !any_i && !any_d {
            arena.recycle(wm);
            arena.recycle(wi);
            arena.recycle(wd);
            fronts.push(None);
            return;
        }
        let set = WavefrontSet {
            m: wm,
            i: if any_i {
                Some(wi)
            } else {
                arena.recycle(wi);
                None
            },
            d: if any_d {
                Some(wd)
            } else {
                arena.recycle(wd);
                None
            },
        };
        self.live_memory += set.memory_bytes() as u64;
        fronts.push(Some(set));

        // Bounded-memory modes: drop wavefronts beyond the retention
        // window (their buffers go straight back to the arena pool).
        if let Retention::Legacy(window) = retention {
            if s > window {
                if let Some(old) = fronts[s - window - 1].take() {
                    self.live_memory -= old.memory_bytes() as u64;
                    arena.recycle_set(old);
                }
            }
        }
        self.stats.peak_memory_bytes = self.stats.peak_memory_bytes.max(self.live_memory);
    }

    /// Tear the machine down, returning every retained buffer to the
    /// arena.
    pub(crate) fn finish(self, arena: &mut WavefrontArena) {
        arena.recycle_spine(self.fronts);
    }
}

pub(crate) fn wfa_align_inner(
    a: &[u8],
    b: &[u8],
    opts: &WfaOptions,
    arena: &mut WavefrontArena,
) -> Result<WfaAlignment, WfaError> {
    opts.penalties.validate().map_err(WfaError::BadPenalties)?;
    let p = opts.penalties;
    let n = a.len() as i32;
    let m = b.len() as i32;
    let lookback = p.x.max(p.o + p.e) as usize;
    let retention = if opts.compute_cigar {
        Retention::Full
    } else if opts.strategy == AlignStrategy::BiWfa {
        // Score-only BiWfa requests have no backtrace to serve, so the
        // strictly-windowed schedule applies: genuinely O(lookback)
        // retained wavefronts, unlike the legacy schedule below.
        Retention::Strict(lookback)
    } else {
        Retention::Legacy(lookback)
    };

    let mut mach = WfaMachine::new(a, b, p, arena);
    loop {
        // --- extend() + termination check ---
        if mach.extend_current() && mach.reached_end() {
            let score = mach.s as u32;
            let stats = mach.stats;
            let cigar = if opts.compute_cigar {
                Some(backtrace::backtrace(n, m, &mach.fronts, score, &p))
            } else {
                None
            };
            mach.finish(arena);
            return Ok(WfaAlignment {
                score,
                cigar,
                stats,
            });
        }

        // --- advance the score and compute() the next wavefront set ---
        if mach.at_cap() {
            let limit = mach.cap as u32;
            mach.finish(arena);
            return Err(WfaError::ScoreLimitExceeded { limit });
        }
        mach.step(arena, retention);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::swg::swg_align;

    const P: Penalties = Penalties::WFASIC_DEFAULT;

    fn align(a: &[u8], b: &[u8], p: Penalties) -> Result<WfaAlignment, WfaError> {
        wfa_align(a, b, &WfaOptions::exact(p))
    }

    fn check_against_swg(a: &[u8], b: &[u8]) {
        let wfa = align(a, b, P).unwrap();
        let swg = swg_align(a, b, &P);
        assert_eq!(wfa.score as u64, swg.score, "a={:?} b={:?}", a, b);
        let cigar = wfa.cigar.expect("cigar requested");
        cigar.check(a, b).unwrap();
        assert_eq!(cigar.score(&P), wfa.score as u64);
    }

    #[test]
    fn identical() {
        let r = align(b"ACGTACGTAC", b"ACGTACGTAC", P).unwrap();
        assert_eq!(r.score, 0);
        assert_eq!(r.cigar.unwrap().to_op_string(), "MMMMMMMMMM");
    }

    #[test]
    fn empty_both() {
        let r = align(b"", b"", P).unwrap();
        assert_eq!(r.score, 0);
    }

    #[test]
    fn empty_one_side() {
        check_against_swg(b"", b"ACGT");
        check_against_swg(b"ACGT", b"");
    }

    #[test]
    fn single_base_cases() {
        check_against_swg(b"A", b"A");
        check_against_swg(b"A", b"C");
        check_against_swg(b"A", b"AC");
        check_against_swg(b"CA", b"A");
    }

    #[test]
    fn mismatches_and_gaps() {
        check_against_swg(b"GATTACA", b"GACTACA");
        check_against_swg(b"GATTACA", b"GATTTACA");
        check_against_swg(b"GATTACA", b"GTTACA");
        check_against_swg(b"AAAAAAAA", b"TTTTTTTT");
        check_against_swg(b"ACGT", b"TGCA");
    }

    #[test]
    fn long_gap_preferred() {
        check_against_swg(b"AAAA", b"AAAATTTTTTTT");
        check_against_swg(b"AAAATTTTTTTT", b"AAAA");
    }

    #[test]
    fn score_only_matches_full() {
        let a = b"GATTACAGATTACAGGGCCC";
        let b = b"GATCACAGAGTTACAGGCCC";
        let full = align(a, b, P).unwrap();
        let so = wfa_align(a, b, &WfaOptions::score_only(P)).unwrap();
        assert_eq!(full.score, so.score);
        assert!(so.cigar.is_none());
        // Score-only retains at most lookback+1 wavefronts: less memory.
        assert!(so.stats.peak_memory_bytes <= full.stats.peak_memory_bytes);
    }

    #[test]
    fn stats_are_populated() {
        let r = align(b"GATTACAGATTACA", b"GACTACAGATTACA", P).unwrap();
        assert!(r.stats.extend_calls > 0);
        assert!(r.stats.bases_compared >= 13);
        assert!(r.stats.score_steps >= 1);
        assert!(r.stats.peak_memory_bytes > 0);
        if r.score > 0 {
            assert!(r.stats.cells_computed > 0);
        }
    }

    #[test]
    fn wfa_visits_far_fewer_cells_than_swg() {
        // The headline property: O(ns) vs O(n^2).
        let a: Vec<u8> = (0..400).map(|i| b"ACGT"[i % 4]).collect();
        let mut b = a.clone();
        b[101] = b'A'; // a[101] = 'C': one mismatch vs the periodic pattern
        let wfa = align(&a, &b, P).unwrap();
        let swg = swg_align(&a, &b, &P);
        assert_eq!(wfa.score as u64, swg.score);
        assert!(
            wfa.stats.cells_computed * 10 < swg.cells_computed,
            "wfa={} swg={}",
            wfa.stats.cells_computed,
            swg.cells_computed
        );
    }
}
