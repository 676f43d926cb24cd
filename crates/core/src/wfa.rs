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
use crate::cigar::Cigar;
use crate::kernel;
use crate::origins::{self, OriginRows};
use crate::penalties::Penalties;
use crate::seq::Seq;
use crate::wavefront::{fill_row, offset_is_valid, WavefrontSet, OFFSET_NULL};

/// Which algorithm answers an alignment call — the strategy axis of the
/// engine. Every strategy is exact and shares the same wavefront kernels,
/// arena and extend ladder; they differ in what they *retain*:
///
/// * [`AlignStrategy::Exact`] — the unidirectional WFA. In CIGAR mode it
///   keeps one origin byte per diagonal per score (the chip's 5-bit
///   bundle, paper §4.3.3) plus a window of offsets, `O(s²)` bytes.
/// * [`AlignStrategy::BiWfa`] — bidirectional linear-memory WFA: forward
///   and reverse score-only wavefronts meet in the middle and the engine
///   recurses on the split point. Optimal score and a valid optimal
///   CIGAR, `O(s)` retained wavefront memory — the long-read mode.
/// * [`AlignStrategy::Auto`] — `Exact` under [`EXACT_BYTE_BUDGET`]: a
///   pair whose retained bytes pass the budget is handed to `BiWfa`
///   within the same call, and [`WfaAlignment::engine`] says which
///   answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlignStrategy {
    /// Memory decides: exact, or BiWFA past the byte budget.
    Auto,
    /// The exact unidirectional WFA, unbounded.
    Exact,
    /// Bidirectional linear-memory WFA (exact score, `O(s)` memory).
    BiWfa,
}

impl AlignStrategy {
    /// Every strategy, in CLI presentation order.
    pub const ALL: [AlignStrategy; 3] = [
        AlignStrategy::Auto,
        AlignStrategy::Exact,
        AlignStrategy::BiWfa,
    ];

    /// The stable CLI name.
    pub fn name(self) -> &'static str {
        match self {
            AlignStrategy::Auto => "auto",
            AlignStrategy::Exact => "exact",
            AlignStrategy::BiWfa => "biwfa",
        }
    }

    /// Parse a CLI name.
    pub fn parse(name: &str) -> Option<Self> {
        AlignStrategy::ALL.into_iter().find(|s| s.name() == name)
    }
}

impl std::str::FromStr for AlignStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        AlignStrategy::parse(s).ok_or_else(|| {
            let names: Vec<&str> = AlignStrategy::ALL.iter().map(|k| k.name()).collect();
            format!("unknown strategy '{s}' (one of: {})", names.join(", "))
        })
    }
}

/// Retained bytes (origin rows plus the offset window) past which an
/// [`AlignStrategy::Auto`] run hands its pair to BiWFA. At 1 MiB the
/// ≥10 kb PacBio HiFi pairs (1%) stay exact, peaking near 0.3 MB, while a
/// 50 kb pair at 5% — hundreds of megabytes of history — costs at most
/// this much before BiWFA takes it.
pub const EXACT_BYTE_BUDGET: u64 = 1 << 20;

/// Options controlling a WFA run.
#[derive(Debug, Clone, Copy)]
pub struct WfaOptions {
    /// Penalty model.
    pub penalties: Penalties,
    /// Algorithm strategy (see [`AlignStrategy`]).
    pub strategy: AlignStrategy,
    /// Produce a CIGAR (otherwise score-only with bounded memory, like the
    /// accelerator with backtrace disabled).
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
    /// Bytes of offsets the run would hold with every wavefront kept, as
    /// CIGAR mode did before it kept origins (for BiWFA, its largest exact
    /// leaf's); 0 in score-only runs. The CPU cost model prices its cache
    /// tier from it, since the modelled baseline (the paper's software
    /// WFA) keeps the whole history.
    pub full_history_bytes: u64,
}

impl WfaStats {
    /// Fold a run that went before this one into its figures: work
    /// counters add, watermarks take the max (the runs were sequential, so
    /// their retained memory never coexisted).
    pub(crate) fn absorb(&mut self, rhs: &WfaStats) {
        self.cells_computed += rhs.cells_computed;
        self.bases_compared += rhs.bases_compared;
        self.extend_calls += rhs.extend_calls;
        self.score_steps += rhs.score_steps;
        self.max_wavefront_len = self.max_wavefront_len.max(rhs.max_wavefront_len);
        self.peak_memory_bytes = self.peak_memory_bytes.max(rhs.peak_memory_bytes);
        self.full_history_bytes = self.full_history_bytes.max(rhs.full_history_bytes);
    }
}

/// The result of a WFA alignment.
#[derive(Debug, Clone)]
pub struct WfaAlignment {
    /// Optimal gap-affine score (exact, equal to SWG).
    pub score: u32,
    /// Optimal transcript (present iff `compute_cigar` was set).
    pub cigar: Option<Cigar>,
    /// Work statistics, including any exact run an
    /// [`AlignStrategy::Auto`] call gave up on.
    pub stats: WfaStats,
    /// The engine that answered: [`AlignStrategy::Exact`] or
    /// [`AlignStrategy::BiWfa`], never `Auto`.
    pub engine: AlignStrategy,
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
    opts.penalties.validate().map_err(WfaError::BadPenalties)?;
    match opts.strategy {
        // Bidirectional CIGAR path: the linear-memory engine. Score-only
        // BiWfa requests take the unidirectional loop below, which in
        // score-only mode keeps a window of fronts and computes the
        // identical (exact) score.
        AlignStrategy::BiWfa if opts.compute_cigar => {
            Ok(crate::biwfa::biwfa_align(a, b, &opts.penalties, arena))
        }
        _ => wfa_align_inner(a, b, opts, arena),
    }
}

/// How a [`WfaMachine`] retains old wavefronts across score steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Retention {
    /// The seed score-only policy, preserved bit-for-bit because its
    /// `peak_memory_bytes` feeds the blessed cycle baselines: drop the
    /// single slot `s - w - 1`, and only on steps that actually compute a
    /// front. Under the default all-even penalty costs every front sits
    /// at an even score while `s - w - 1` is odd on compute steps, so in
    /// practice this retains the full history — the model the gated
    /// metrics were calibrated against.
    Legacy(usize),
    /// True bounded-memory mode: every step drops *all* fronts older than
    /// `s - w`, including on source-less and all-null steps.
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
///
/// A machine built to keep origins records each score's origin row beside
/// its offsets ([`OriginRows`]) and counts it in its retained bytes: with
/// those rows the offsets need only the window the next step reads, and
/// [`Self::cigar`] walks the rows back from the end cell.
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
    /// Per-score origin bundles, when the machine keeps them.
    origins: Option<OriginRows>,
    live_memory: u64,
    pub(crate) stats: WfaStats,
}

impl<'s> WfaMachine<'s> {
    /// A machine at score 0; `keep_origins` records origin rows for
    /// [`Self::cigar`].
    pub(crate) fn new(
        a: &'s [u8],
        b: &'s [u8],
        p: Penalties,
        arena: &mut WavefrontArena,
        keep_origins: bool,
    ) -> Self {
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
        // Score 0's row stays empty: the walk stops on reaching score 0.
        let origins = keep_origins.then(|| {
            let mut rows = arena.take_origins();
            rows.push_row(0, 0);
            rows
        });
        let stats = WfaStats {
            peak_memory_bytes: live_memory,
            full_history_bytes: if keep_origins { live_memory } else { 0 },
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
            origins,
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
            if let Some(rows) = &mut self.origins {
                rows.push_row(0, 0);
            }
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
        match &mut self.origins {
            Some(rows) => kernel::compute_row_with_origins(
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
                rows.push_row(lo, (hi - lo + 1) as usize),
            ),
            None => kernel::compute_row(
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
            ),
        }
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
            if let Some(rows) = &mut self.origins {
                rows.empty_last();
            }
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
        if self.origins.is_some() {
            self.live_memory += set.m.len() as u64;
            self.stats.full_history_bytes += set.memory_bytes() as u64;
        }
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

    /// The optimal transcript to the end cell the current front reached:
    /// walk the origin rows back to score 0, then replay the edits with
    /// the matches between them.
    fn cigar(&self) -> Cigar {
        let rows = self.origins.as_ref().expect("a CIGAR run keeps origins");
        let edits = origins::walk(self.s as u32, self.k_end(), &self.p, |s, k| rows.code(s, k))
            .expect("the engine's own origins lead back to cell (0, 0)");
        let (a, b) = (self.a, self.b);
        origins::replay(&edits, a.len(), b.len(), |i, j| {
            kernel::lcp_bytes(a, b, i, j)
        })
        .expect("the engine's own edits consume both sequences")
    }

    /// Tear the machine down, returning every retained buffer to the
    /// arena.
    pub(crate) fn finish(self, arena: &mut WavefrontArena) {
        arena.recycle_spine(self.fronts);
        if let Some(rows) = self.origins {
            arena.recycle_origins(rows);
        }
    }
}

/// The unidirectional loop. CIGAR runs keep origins and a window of
/// offsets; score-only runs keep the legacy schedule, or the strict window
/// for a BiWfa request. An [`AlignStrategy::Auto`] run that passes
/// [`EXACT_BYTE_BUDGET`] goes to BiWFA: a CIGAR run restarts there, after
/// its work so far is counted; a score-only run carries on under the
/// strict window, which is all BiWFA's score-only mode is.
fn wfa_align_inner(
    a: &[u8],
    b: &[u8],
    opts: &WfaOptions,
    arena: &mut WavefrontArena,
) -> Result<WfaAlignment, WfaError> {
    let p = opts.penalties;
    let lookback = p.x.max(p.o + p.e) as usize;
    let (mut engine, mut retention) = match opts.strategy {
        AlignStrategy::BiWfa => (AlignStrategy::BiWfa, Retention::Strict(lookback)),
        _ if opts.compute_cigar => (AlignStrategy::Exact, Retention::Strict(lookback)),
        _ => (AlignStrategy::Exact, Retention::Legacy(lookback)),
    };
    let mut budget = (opts.strategy == AlignStrategy::Auto).then_some(EXACT_BYTE_BUDGET);

    let mut mach = WfaMachine::new(a, b, p, arena, opts.compute_cigar);
    loop {
        // --- extend() + termination check ---
        if mach.extend_current() && mach.reached_end() {
            let cigar = opts.compute_cigar.then(|| mach.cigar());
            let (score, stats) = (mach.s as u32, mach.stats);
            mach.finish(arena);
            return Ok(WfaAlignment {
                score,
                cigar,
                stats,
                engine,
            });
        }

        // --- advance the score and compute() the next wavefront set ---
        if mach.at_cap() {
            let limit = mach.cap as u32;
            mach.finish(arena);
            return Err(WfaError::ScoreLimitExceeded { limit });
        }
        mach.step(arena, retention);

        if budget.is_some_and(|bytes| mach.live_memory() > bytes) {
            budget = None;
            engine = AlignStrategy::BiWfa;
            if !opts.compute_cigar {
                retention = Retention::Strict(lookback);
                continue;
            }
            let aborted = mach.stats;
            mach.finish(arena);
            let mut al = crate::biwfa::biwfa_align(a, b, &p, arena);
            al.stats.absorb(&aborted);
            return Ok(al);
        }
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

    /// Edits at either end, mixed edits, a gap beside a mismatch and
    /// homopolymer slippage (many co-optimal paths): the origin walk's
    /// transcript is valid and costs the SWG optimum.
    #[test]
    fn origin_backtrace_places_every_edit() {
        let pairs: [(&[u8], &[u8]); 11] = [
            (b"ACGT", b"ACGT"),
            (b"TACGT", b"AACGT"),
            (b"ACGTT", b"ACGTA"),
            (b"TTACGT", b"ACGT"),
            (b"ACGT", b"ACGTTT"),
            (b"GATTACAGATTACA", b"GACTACAGGATTAA"),
            (b"CCCCAAAATTTT", b"CCCCTTTT"),
            (b"AGCT", b"TCGA"),
            (b"AAACCCGGG", b"AAATCCCGGGG"),
            (b"AAAAAAAAAA", b"AAAAAAA"),
            (b"AAAAAAA", b"AAAAAAAAAA"),
        ];
        for (a, b) in pairs {
            check_against_swg(a, b);
        }
    }

    #[test]
    fn score_only_matches_full() {
        let a = b"GATTACAGATTACAGGGCCC";
        let b = b"GATCACAGAGTTACAGGCCC";
        let full = align(a, b, P).unwrap();
        let so = wfa_align(a, b, &WfaOptions::score_only(P)).unwrap();
        assert_eq!(full.score, so.score);
        assert!(so.cigar.is_none());
        assert_eq!(so.stats.full_history_bytes, 0);
    }

    /// A ≥1 kb pair at 5%: CIGAR mode's origin bytes and offset window
    /// come to at most a sixth of the offsets a full-history run keeps,
    /// and the work is that of the score-only run.
    #[test]
    fn cigar_mode_keeps_a_sixth_of_the_full_history() {
        let mut rng = crate::rng::SmallRng::seed_from_u64(0x0816_1215);
        let a: Vec<u8> = (0..1200).map(|_| *rng.pick(b"ACGT")).collect();
        let mut b = a.clone();
        for _ in 0..60 {
            let at = rng.gen_range(0, b.len());
            match rng.gen_range(0, 3) {
                0 => b[at] = *rng.pick(b"ACGT"),
                1 => b.insert(at, *rng.pick(b"ACGT")),
                _ => drop(b.remove(at)),
            }
        }
        let full = align(&a, &b, P).unwrap();
        let so = wfa_align(&a, &b, &WfaOptions::score_only(P)).unwrap();
        assert_eq!(full.score, so.score);
        assert_eq!(full.stats.cells_computed, so.stats.cells_computed);
        let (kept, history) = (full.stats.peak_memory_bytes, full.stats.full_history_bytes);
        assert!(
            kept * 6 <= history,
            "kept {kept} B of a {history} B history"
        );
    }

    /// Under `Auto` a pair whose retained bytes pass the budget is
    /// answered by BiWFA with the same score, and its stats count the
    /// abandoned exact run. A score-only run carries on in the strict
    /// window, so its work is exactly the unbounded run's.
    #[test]
    fn auto_hands_a_pair_past_the_budget_to_biwfa() {
        let mut rng = crate::rng::SmallRng::seed_from_u64(0x00B0_D6E7);
        let a: Vec<u8> = (0..12_000).map(|_| *rng.pick(b"ACGT")).collect();
        let b: Vec<u8> = a
            .iter()
            .map(|&c| if rng.gen_range(0, 10) == 0 { b'T' } else { c })
            .collect();
        let auto = WfaOptions {
            strategy: AlignStrategy::Auto,
            ..WfaOptions::exact(P)
        };
        let got = wfa_align(&a, &b, &auto).unwrap();
        let bi = wfa_align(&a, &b, &WfaOptions::biwfa(P)).unwrap();
        assert_eq!(got.engine, AlignStrategy::BiWfa);
        assert_eq!(got.score, bi.score);
        got.cigar.unwrap().check(&a, &b).unwrap();
        assert!(got.stats.cells_computed > bi.stats.cells_computed);
        assert!(got.stats.peak_memory_bytes > EXACT_BYTE_BUDGET);
        assert!(got.stats.peak_memory_bytes < EXACT_BYTE_BUDGET + (64 << 10));

        let score_only = WfaOptions {
            compute_cigar: false,
            ..auto
        };
        let so = wfa_align(&a, &b, &score_only).unwrap();
        let whole = wfa_align(&a, &b, &WfaOptions::score_only(P)).unwrap();
        assert_eq!((so.engine, so.score), (AlignStrategy::BiWfa, whole.score));
        assert_eq!(so.stats.cells_computed, whole.stats.cells_computed);
        assert!(so.stats.peak_memory_bytes < whole.stats.peak_memory_bytes);

        // A short pair stays exact, and answers as the exact engine does.
        let short = wfa_align(&a[..500], &b[..500], &auto).unwrap();
        let exact = wfa_align(&a[..500], &b[..500], &WfaOptions::exact(P)).unwrap();
        assert_eq!(short.engine, AlignStrategy::Exact);
        assert_eq!((short.cigar, short.stats), (exact.cigar, exact.stats));
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
