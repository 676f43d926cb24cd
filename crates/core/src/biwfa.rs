//! Bidirectional linear-memory WFA (the `BiWfa` strategy).
//!
//! The exact WFA keeps an origin byte per wavefront cell so its backtrace
//! can walk the optimal path — `O(s²)` bytes for a score-`s` alignment,
//! which is what makes it choke on realistic PacBio CLR/ONT long reads.
//! This module produces the *same optimal score and a valid optimal CIGAR*
//! in `O(s)` retained wavefront memory, BiWFA-style (Marco-Sola et al.):
//!
//! 1. **Meet phase** — a forward machine over `(a, b)` and a reverse
//!    machine over the reversed sequences advance in lock-step (always the
//!    lower-score side), each keeping only a short window of recent
//!    wavefronts. When the two frontiers touch on a diagonal, the touch is
//!    recorded as a *split candidate*: an M–M touch of front costs
//!    `(c1, c2)` witnesses an alignment of cost `c1 + c2` through that
//!    cell; an I–I or D–D touch witnesses `c1 + c2 - o` (a split inside a
//!    gap run pays the open on both sides). The top-level meet has no
//!    score hint: it stops once its lowest touch value `v` is proved a
//!    lower bound on the optimum (below).
//! 2. **Recurse + verify** — the value-`v` candidates are tried in balance
//!    order: the pair is split at the candidate cell, both halves are
//!    aligned recursively, and the spliced CIGAR is *re-scored as a
//!    whole*. A splice is accepted only if it re-scores no worse than its
//!    candidate, which at the top level means exactly `v`. Below the top,
//!    a child's meet is sized by the hint its parent's candidate claimed.
//!    Candidates that fail are discarded and the next is tried; a node
//!    that runs out of candidates, the top level included, falls back to
//!    the exact engine (correct, just not linear-memory for
//!    that — empirically rare — subtree).
//!
//! The top level ends in one of two ways. Its meet proves `v` as above.
//! Or its mover reaches the end cell before the proof: that score is the
//! optimum, small enough to lie below its own horizon, and the whole pair
//! goes to the exact engine.
//!
//! **Why the meet's stop proves the optimum.** Walk an optimal path and
//! split it between two operations (an M–M split, prefix cost `c1`,
//! suffix cost `c2`, `c1 + c2 = s*`) or inside a gap run (I–I / D–D,
//! `c1 + c2 - o = s*`). From one split to the next, the balance `c1 − c2`
//! moves by at most `2·max(x, o+e)`, and it runs from `−s*` to `s*`, so
//! some split has `|c1 − c2| ≤ lookback = max(x, o+e)`. Its two fronts
//! cost at most `(s* + o + lookback) / 2`, they reach its cell from either
//! end, and whichever is computed second finds the other still inside the
//! retention window. So once both sides pass
//! `horizon(s*) = ((s* + o + window) / 2 + 2).max(window)`, a touch of
//! value `s*` has been recorded. The top-level meet stops when
//! `min(fwd.s, rev.s) ≥ horizon(v)` for the lowest recorded value `v`
//! (or at once when `v = 0`). Then `v ≤ s*`: were `s*` below `v`,
//! `horizon(s*) ≤ horizon(v)` and its touch would already hold the
//! minimum. A value-`v` candidate whose splice re-scores to exactly `v`
//! is a real alignment, so `v ≥ s*` as well: it is optimal.
//!
//! Small subproblems (`n + m ≤ 1 kb`, or at an interior node an expected
//! score within a few penalty lookbacks) drop straight to the exact
//! engine: at that size its origin rows *are* linear memory, it is optimal by
//! construction, and it terminates the recursion.

use std::cell::Cell;

use crate::arena::WavefrontArena;
use crate::cigar::{Cigar, Op};
use crate::penalties::Penalties;
use crate::wavefront::{offset_is_valid, Wavefront, WavefrontSet};
use crate::wfa::{
    wfa_align_seqs_ref, AlignStrategy, Retention, WfaAlignment, WfaMachine, WfaOptions, WfaStats,
};

/// Subproblems at or below this total length are aligned exactly.
const EXACT_CUTOFF_LEN: usize = 1024;

/// Split candidates tried per recursion node before falling back to the
/// exact engine.
const MAX_SPLIT_TRIES: usize = 6;

/// Split candidates retained per recursion node.
const MAX_CANDIDATES: usize = 24;

/// Which wavefront components touched to produce a split candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Touch {
    /// M–M: the witnessed path crosses the split cell between operations.
    Mm,
    /// I–I: the split lies inside an insertion run (open paid twice).
    Ii,
    /// D–D: the split lies inside a deletion run (open paid twice).
    Dd,
}

impl Touch {
    /// Every touch kind, in scan order.
    const ALL: [Touch; 3] = [Touch::Mm, Touch::Ii, Touch::Dd];

    /// The credit this kind of touch earns against `c_fwd + c_rev`: an
    /// I–I / D–D touch pays the gap open on both sides, so the witnessed
    /// alignment (one gap run crossing the split) costs `open` less.
    fn credit(self, open: u64) -> u64 {
        match self {
            Touch::Mm => 0,
            Touch::Ii | Touch::Dd => open,
        }
    }

    /// The component of `set` whose fronts meet in this kind of touch.
    fn component(self, set: &WavefrontSet) -> Option<&Wavefront> {
        match self {
            Touch::Mm => Some(&set.m),
            Touch::Ii => set.i.as_ref(),
            Touch::Dd => set.d.as_ref(),
        }
    }
}

/// A recorded frontier touch: a candidate split of the pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Candidate {
    /// Cost of an alignment through this split (`c1 + c2`, minus `o` for
    /// gap-interior touches).
    value: u64,
    /// Forward-side front cost.
    c_fwd: u32,
    /// Reverse-side front cost.
    c_rev: u32,
    /// Split row in `a` (forward coordinates).
    i: usize,
    /// Split column in `b` (forward coordinates).
    j: usize,
    touch: Touch,
}

impl Candidate {
    fn balance(&self) -> i64 {
        (self.c_fwd as i64 - self.c_rev as i64).abs()
    }
}

/// Which path answered a top-level [`biwfa_top`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Answer {
    /// A [`leaf`] on the whole pair, optimal by construction: at or below
    /// [`EXACT_CUTOFF_LEN`], a meet that reached the end cell before its
    /// proof, or a proof no splice verified.
    Exact,
    /// The hint-free meet proved its lowest touch value optimal, and a
    /// candidate's splice re-scored to it.
    Proven,
}

/// Entry point for the `BiWfa` strategy with a CIGAR (called by the
/// `wfa` module's dispatch and its `Auto` handover) on validated
/// penalties, with which every path below ends in an answer. Phases run
/// one after another (the meet machines are torn down before the
/// recursion), so the stats' peak is the max, not the sum, of theirs.
pub(crate) fn biwfa_align(
    a: &[u8],
    b: &[u8],
    p: &Penalties,
    arena: &mut WavefrontArena,
) -> WfaAlignment {
    let mut stats = WfaStats::default();
    let (score, cigar, _) = biwfa_top(a, b, p, arena, &mut stats);
    WfaAlignment {
        score: score as u32,
        cigar: Some(cigar),
        stats,
        engine: AlignStrategy::BiWfa,
    }
}

/// [`biwfa_align`] on validated penalties, reporting which path
/// answered. Work stats accumulate in `stats`.
fn biwfa_top(
    a: &[u8],
    b: &[u8],
    p: &Penalties,
    arena: &mut WavefrontArena,
    stats: &mut WfaStats,
) -> (u64, Cigar, Answer) {
    let mut cigar = Cigar::new();
    let mut proven = None;
    if !a.is_empty() && !b.is_empty() && a.len() + b.len() > EXACT_CUTOFF_LEN {
        let (cands, stop) = meet_phase(a, b, Goal::Prove, p, arena, stats);
        // The meet proved `v ≤ s*`, so a splice that re-scores to `v` is
        // optimal (module doc). An end-cell stop leaves the optimum, below
        // the horizon, to the leaf; only a hinted meet starves.
        if stop == Stop::Horizon {
            let v = cands[0].value;
            let tier = cands.iter().take_while(|c| c.value == v).count();
            proven = try_splits(a, b, &cands[..tier], p, arena, &mut cigar, stats);
        }
    }
    let (score, answer) = match proven {
        Some(score) => (score, Answer::Proven),
        None => (leaf(a, b, p, arena, &mut cigar, stats), Answer::Exact),
    };
    debug_assert!(cigar.check(a, b).is_ok(), "BiWFA produced an invalid CIGAR");
    (score, cigar, answer)
}

/// A recursion leaf, optimal by construction: the forced all-gap
/// transcript when one side is empty, else the exact engine,
/// whose work stats it absorbs. Appends to `out` and returns the
/// transcript's cost.
fn leaf(
    a: &[u8],
    b: &[u8],
    p: &Penalties,
    arena: &mut WavefrontArena,
    out: &mut Cigar,
    stats: &mut WfaStats,
) -> u64 {
    let (n, m) = (a.len(), b.len());
    if n == 0 || m == 0 {
        if m > 0 {
            out.push_run(Op::Ins, m as u32);
        }
        if n > 0 {
            out.push_run(Op::Del, n as u32);
        }
        return p.gap_cost(n.max(m) as u32) as u64;
    }
    let r = wfa_align_seqs_ref(a, b, &WfaOptions::exact(*p), arena)
        .expect("validated penalties, and an exact run ends at or below its all-gaps cap");
    stats.absorb(&r.stats);
    splice(out, r.cigar.as_ref().expect("exact mode produces a CIGAR"));
    r.score as u64
}

/// Recursively align `a` vs `b`, appending the transcript to `out`.
///
/// `expected` is the cost the parent's candidate claimed for this
/// subproblem: a hint that sizes the meet phase, not a trusted fact.
/// Returns the actual re-scored cost of the appended transcript.
fn biwfa_rec(
    a: &[u8],
    b: &[u8],
    expected: u64,
    p: &Penalties,
    arena: &mut WavefrontArena,
    out: &mut Cigar,
    stats: &mut WfaStats,
) -> u64 {
    let (n, m) = (a.len(), b.len());
    let lookback = p.x.max(p.o + p.e) as u64;
    // Small or nearly-converged subproblems: the exact engine is already
    // linear-memory at this scale, and this terminates the recursion.
    if n == 0 || m == 0 || n + m <= EXACT_CUTOFF_LEN || expected <= 8 * lookback {
        return leaf(a, b, p, arena, out, stats);
    }
    let (cands, _) = meet_phase(a, b, Goal::Hint(expected), p, arena, stats);
    match try_splits(a, b, &cands, p, arena, out, stats) {
        Some(cost) => cost,
        // No candidate verified (or none found): exact fallback.
        // Correctness is unaffected; only this subtree loses the memory
        // bound.
        None => leaf(a, b, p, arena, out, stats),
    }
}

/// Try up to [`MAX_SPLIT_TRIES`] of `cands`, in order, and accept the
/// first splice that re-scores no worse than its candidate's value,
/// appending it to `out` and returning its cost. A splice is a real
/// alignment of the pair, so it can never cost less than the optimum:
/// accepting `got ≤ value` keeps only genuine witnesses. Tries that fail
/// leave `out` and `stats` untouched.
fn try_splits(
    a: &[u8],
    b: &[u8],
    cands: &[Candidate],
    p: &Penalties,
    arena: &mut WavefrontArena,
    out: &mut Cigar,
    stats: &mut WfaStats,
) -> Option<u64> {
    // Balanced splits come first (the meet's sort): they halve the
    // problem, and their touch cells sit where the two frontiers met —
    // overwhelmingly a cell of an optimal path.
    for cand in cands.iter().take(MAX_SPLIT_TRIES) {
        let mut spliced = Cigar::new();
        let mut try_stats = *stats;
        let got = try_split(a, b, cand, p, arena, &mut spliced, &mut try_stats);
        if got <= cand.value {
            *stats = try_stats;
            splice(out, &spliced);
            return Some(got);
        }
    }
    None
}

/// Split at `cand` and align both halves recursively; appends to `out`
/// and returns the re-scored cost of the whole spliced transcript.
fn try_split(
    a: &[u8],
    b: &[u8],
    cand: &Candidate,
    p: &Penalties,
    arena: &mut WavefrontArena,
    out: &mut Cigar,
    stats: &mut WfaStats,
) -> u64 {
    let (i, j) = (cand.i, cand.j);
    match cand.touch {
        Touch::Mm => {
            biwfa_rec(&a[..i], &b[..j], cand.c_fwd as u64, p, arena, out, stats);
            biwfa_rec(&a[i..], &b[j..], cand.c_rev as u64, p, arena, out, stats);
        }
        Touch::Ii => {
            // The split lies inside an insertion run: peel one explicit
            // `I` so the halves splice back into a single gap run.
            let hint = (cand.c_fwd as u64).saturating_sub(p.e as u64);
            biwfa_rec(&a[..i], &b[..j - 1], hint, p, arena, out, stats);
            out.push_run(Op::Ins, 1);
            let hint = (cand.c_rev as u64).saturating_sub(p.e as u64);
            biwfa_rec(&a[i..], &b[j..], hint, p, arena, out, stats);
        }
        Touch::Dd => {
            let hint = (cand.c_fwd as u64).saturating_sub(p.e as u64);
            biwfa_rec(&a[..i - 1], &b[..j], hint, p, arena, out, stats);
            out.push_run(Op::Del, 1);
            let hint = (cand.c_rev as u64).saturating_sub(p.e as u64);
            biwfa_rec(&a[i..], &b[j..], hint, p, arena, out, stats);
        }
    }
    // Re-score the spliced transcript as a whole: `Cigar::score` sees the
    // merged runs, so a gap run healed across the split point is charged
    // exactly one open.
    out.score(p)
}

/// Append `piece` to `out`, merging adjacent same-op runs at the seam.
fn splice(out: &mut Cigar, piece: &Cigar) {
    for &(len, op) in piece.runs() {
        out.push_run(op, len);
    }
}

/// The geometry every touch scan of one meet phase shares.
struct Meet {
    /// Length of `a` (rows).
    n: usize,
    /// Length of `b` (columns).
    m: usize,
    /// Gap-open penalty: the credit an I–I / D–D touch earns.
    open: u64,
    /// How many scores back `fixed`'s retained fronts reach.
    window: usize,
}

impl Meet {
    /// The exact reachability gate for one component pair. A touch on
    /// mover diagonal `k` (fixed diagonal `k' = (m − n) − k`) needs
    /// `f + r ≥ m`, which is `(2f − k) + (2r − k') ≥ n + m`: the two
    /// cells' anti-diagonals must span the matrix. So components whose
    /// [`reach`] values sum below `n + m` cannot touch on any diagonal.
    fn may_touch(&self, mover_reach: i64, fixed_reach: i64) -> bool {
        mover_reach + fixed_reach >= (self.n + self.m) as i64
    }
}

/// `reach` of an absent component: two of them still sum without overflow
/// and fall far below any matrix span.
const UNREACHED: i64 = i64::MIN / 4;

/// Farthest anti-diagonal `i + j = 2·offset − k` over the valid cells of
/// `w`. A stored offset is either
/// [`OFFSET_NULL`](crate::wavefront::OFFSET_NULL) (`i32::MIN / 4`) or a
/// column in `0..=m`, so the branch-free `i32` pass neither overflows nor
/// needs a validity test: NULL cells map far below zero, and an all-NULL
/// component yields a value no gate admits.
fn reach(w: Option<&Wavefront>) -> i64 {
    let Some(w) = w else {
        return UNREACHED;
    };
    let far = w
        .offsets
        .iter()
        .zip(0i32..)
        .fold(i32::MIN / 2, |far, (&off, idx)| far.max(2 * off - idx));
    far as i64 - w.lo as i64
}

/// The [`reach`] of one finalised front: M's at once, I's and D's on
/// first use.
#[derive(Clone)]
struct FrontReach {
    m: i64,
    /// `[I, D]`, once a scan has asked for them.
    gaps: Cell<Option<[i64; 2]>>,
}

/// One side of the meet phase: a machine plus the [`FrontReach`] of every
/// front it has finalised, indexed by score like its spine.
struct Side<'s> {
    mach: WfaMachine<'s>,
    /// [`UNREACHED`] M reach for scores without a front.
    reach: Vec<FrontReach>,
}

impl<'s> Side<'s> {
    fn new(a: &'s [u8], b: &'s [u8], p: &Penalties, arena: &mut WavefrontArena) -> Self {
        Side {
            mach: WfaMachine::new(a, b, *p, arena, false),
            reach: Vec::new(),
        }
    }

    /// Extend the current front, which makes it final, and record its
    /// M reach. True when a front exists at this score.
    fn extend(&mut self) -> bool {
        let found = self.mach.extend_current();
        let s = self.mach.s;
        let unreached = FrontReach {
            m: UNREACHED,
            gaps: Cell::new(None),
        };
        self.reach.resize(s + 1, unreached);
        if let Some(set) = self.mach.front(s) {
            self.reach[s].m = reach(Some(&set.m));
        }
        found
    }

    /// The I (`Touch::Ii`) or D reach of `set`, this side's front at score
    /// `s`, computed on first use.
    fn gap_reach(&self, s: usize, set: &WavefrontSet, touch: Touch) -> i64 {
        let cell = &self.reach[s].gaps;
        let [i, d] = cell.get().unwrap_or_else(|| {
            let gaps = [reach(set.i.as_ref()), reach(set.d.as_ref())];
            cell.set(Some(gaps));
            gaps
        });
        if touch == Touch::Ii {
            i
        } else {
            d
        }
    }
}

/// What a meet phase runs to establish.
#[derive(Debug, Clone, Copy)]
enum Goal {
    /// An interior node's meet, sized by the cost its parent's candidate
    /// claimed.
    Hint(u64),
    /// The top level's hint-free meet: prove the lowest touch value a
    /// lower bound on the optimum (module doc).
    Prove,
}

/// Why a meet phase stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stop {
    /// Both sides passed the horizon. Under [`Goal::Prove`] that proves
    /// the lowest touch value `v ≤ s*`.
    Horizon,
    /// The mover reached the end cell first, at this score: the optimum.
    End(u64),
    /// A hinted meet gave up: the score cap, or a hint so low that nothing
    /// touched.
    Starved,
}

/// Drive a forward and a reverse [`WfaMachine`] toward each other and
/// collect frontier-touch candidates, best (lowest value, then most
/// balanced) first, until the [`Goal`]'s stop rule fires.
fn meet_phase(
    a: &[u8],
    b: &[u8],
    goal: Goal,
    p: &Penalties,
    arena: &mut WavefrontArena,
    stats: &mut WfaStats,
) -> (Vec<Candidate>, Stop) {
    meet_phase_with(a, b, goal, p, arena, stats, scan_touches)
}

/// [`meet_phase`] with its touch scan passed in, so a test can run a
/// reference scan beside [`scan_touches`] on the very same machines.
#[allow(clippy::too_many_arguments)]
fn meet_phase_with<S>(
    a: &[u8],
    b: &[u8],
    goal: Goal,
    p: &Penalties,
    arena: &mut WavefrontArena,
    stats: &mut WfaStats,
    mut scan: S,
) -> (Vec<Candidate>, Stop)
where
    S: FnMut(&Side<'_>, &Side<'_>, &Meet, bool, &mut Vec<Candidate>),
{
    let lookback = p.x.max(p.o + p.e) as usize;
    // Retention window: a touch pairs the newest front on one side with a
    // front up to `window` scores old on the other. Optimal splits have a
    // representative within `lookback` of perfect balance (module doc), so
    // this window never ages one out.
    let window = lookback + p.o as usize + 4;
    // The depth both sides must pass to hold every split of value `v`'s
    // balanced representative, with slack for an imperfect hint.
    let horizon = |v: u64| ((v as usize + p.o as usize + window) / 2 + 2).max(window);
    // A hinted meet stops at its hint's horizon once anything touched. A
    // hint-free one stops at the horizon of its lowest touch value, which
    // proves that value a lower bound on the optimum; no alignment costs
    // less than 0, so a touch of value 0 needs no steps at all.
    let stop_rule = |cands: &[Candidate], depth: usize| {
        let v = cands.iter().map(|c| c.value).min();
        match goal {
            Goal::Hint(hint) => (v.is_some() && depth >= horizon(hint)).then_some(Stop::Horizon),
            Goal::Prove => {
                let v = v?;
                (v == 0 || depth >= horizon(v)).then_some(Stop::Horizon)
            }
        }
    };
    let meet = Meet {
        n: a.len(),
        m: b.len(),
        open: p.o as u64,
        window,
    };

    let ar: Vec<u8> = a.iter().rev().copied().collect();
    let br: Vec<u8> = b.iter().rev().copied().collect();

    let mut fwd = Side::new(a, b, p, arena);
    let mut rev = Side::new(&ar, &br, p, arena);

    let mut cands: Vec<Candidate> = Vec::new();
    let mut phase_peak: u64 = 0;

    // Extend the two score-0 fronts, then alternate: step the lower-score
    // side, extend its new front, and scan that front against the other
    // side's retained window.
    fwd.extend();
    rev.extend();
    scan(&fwd, &rev, &meet, true, &mut cands);
    let mut stop = stop_rule(&cands, 0);

    while stop.is_none() {
        phase_peak = phase_peak.max(fwd.mach.live_memory() + rev.mach.live_memory());
        let fwd_turn = fwd.mach.s <= rev.mach.s;
        let (mover, fixed) = if fwd_turn {
            (&mut fwd, &rev)
        } else {
            (&mut rev, &fwd)
        };
        if mover.mach.at_cap() {
            // The score cap is the all-gaps bound, which admits every
            // pair — reaching it without a touch means the hint starved
            // us; surface "no candidates" and let the caller fall back.
            break;
        }
        mover.mach.step(arena, Retention::Strict(window));
        let mut end = None;
        if mover.extend() {
            end = mover
                .mach
                .reached_end()
                .then_some(Stop::End(mover.mach.s as u64));
            scan(mover, fixed, &meet, fwd_turn, &mut cands);
        }
        let depth = fwd.mach.s.min(rev.mach.s);
        // The end cell, or a hint so low that nothing ever touched: stop
        // rather than crawl to the cap.
        let starved = match goal {
            Goal::Hint(hint) if depth >= 2 * horizon(hint) + 8 => Some(Stop::Starved),
            _ => None,
        };
        stop = stop_rule(&cands, depth).or(end).or(starved);
    }
    // The last step's fronts are live too.
    phase_peak = phase_peak.max(fwd.mach.live_memory() + rev.mach.live_memory());

    let fwd_stats = fwd.mach.stats;
    let rev_stats = rev.mach.stats;
    fwd.mach.finish(arena);
    rev.mach.finish(arena);
    stats.absorb(&fwd_stats);
    stats.absorb(&rev_stats);
    stats.peak_memory_bytes = stats.peak_memory_bytes.max(phase_peak);

    cands.sort_by_key(|c| (c.value, c.balance(), c.touch != Touch::Mm));
    (cands, stop.unwrap_or(Stop::Starved))
}

/// Scan `mover`'s newest (just-extended) front against every front still
/// retained by `fixed`, recording each diagonal touch as a candidate.
///
/// Three exact cuts skip work whose touches could never be kept:
///
/// - **Value cutoff.** [`push_candidate`] drops any value above the best
///   so far plus [`VALUE_TIER_SLACK`], and the best only falls during a
///   scan, so a (fixed front, kind) pair whose value
///   `c_mover + c_fixed − credit` exceeds the cutoff taken at the start
///   is skipped. Values grow with `c_fixed`, so the walk stops at the
///   first fixed front that even the gap credit cannot bring under it.
/// - **Reachability gate**, per (front, component) pair: a pair whose
///   [`reach`] values fail [`Meet::may_touch`] — their farthest
///   anti-diagonals sum below `n + m` — cannot touch on any diagonal, so
///   its offsets are never read.
/// - **M first.** On every diagonal an I or D offset is at most M's
///   (M takes the max of X, I and D, then extends), so neither gap
///   component reaches past M. A front pair whose M components fail the
///   gate fails it for all three kinds; I and D reaches are computed only
///   for pairs that pass.
fn scan_touches(
    mover: &Side<'_>,
    fixed: &Side<'_>,
    meet: &Meet,
    mover_is_fwd: bool,
    cands: &mut Vec<Candidate>,
) {
    let c_mover = mover.mach.s;
    let Some(mover_set) = mover.mach.front(c_mover) else {
        return;
    };
    let cutoff = cands
        .iter()
        .map(|c| c.value)
        .min()
        .map_or(u64::MAX, |best| best.saturating_add(VALUE_TIER_SLACK));
    for c_fixed in fixed.mach.s.saturating_sub(meet.window)..=fixed.mach.s {
        let sum = (c_mover + c_fixed) as u64;
        if sum.saturating_sub(meet.open) > cutoff {
            break;
        }
        let Some(fixed_set) = fixed.mach.front(c_fixed) else {
            continue;
        };
        if !meet.may_touch(mover.reach[c_mover].m, fixed.reach[c_fixed].m) {
            continue;
        }
        for touch in Touch::ALL {
            if sum.saturating_sub(touch.credit(meet.open)) > cutoff {
                continue;
            }
            let (Some(mw), Some(fw)) = (touch.component(mover_set), touch.component(fixed_set))
            else {
                continue;
            };
            if touch != Touch::Mm
                && !meet.may_touch(
                    mover.gap_reach(c_mover, mover_set, touch),
                    fixed.gap_reach(c_fixed, fixed_set, touch),
                )
            {
                continue;
            }
            let pair = FrontPair::new(c_mover, c_fixed, mover_is_fwd, touch);
            record_component_touches(mw, fw, &pair, meet, cands);
        }
    }
}

/// Diagonals per block of the touch walk's pre-check.
const TOUCH_BLOCK: usize = 16;

/// Record every diagonal on which the mover's component `mw` touches the
/// fixed side's `fw`.
///
/// The overlap is walked as two slices — the mover's ascending in `k`, the
/// fixed side's descending — one block of [`TOUCH_BLOCK`] diagonals at a
/// time. A block first tests `f + r ≥ m` on every diagonal in one
/// branch-free (vectorisable) pass; only a block with a hit runs the
/// per-cell logic. [`OFFSET_NULL`](crate::wavefront::OFFSET_NULL) is
/// `i32::MIN / 4`, so a sum with a NULL neither overflows nor passes.
fn record_component_touches(
    mw: &Wavefront,
    fw: &Wavefront,
    pair: &FrontPair,
    meet: &Meet,
    cands: &mut Vec<Candidate>,
) {
    // mover diagonal k ↔ fixed diagonal (m-n) - k: reversing both
    // sequences maps diagonal k to (m-n)-k, in either direction.
    let shift = meet.m as i32 - meet.n as i32;
    let klo = mw.lo.max(shift - fw.hi);
    let khi = mw.hi.min(shift - fw.lo);
    if klo > khi {
        return;
    }
    let movers = &mw.offsets[(klo - mw.lo) as usize..=(khi - mw.lo) as usize];
    let fixeds = &fw.offsets[(shift - khi - fw.lo) as usize..=(shift - klo - fw.lo) as usize];
    let m = meet.m as i32;
    let mut block = |k0: i32, fs: &[i32], rs: &[i32]| {
        let cells = || fs.iter().zip(rs.iter().rev());
        if cells().fold(false, |hit, (&f, &r)| hit | (f + r >= m)) {
            for (t, (&f, &r)) in cells().enumerate() {
                record_cell(k0 + t as i32, f, r, pair, meet, cands);
            }
        }
    };
    // Whole blocks (a fixed length the compiler unrolls), then the tail.
    let blocks = movers.chunks_exact(TOUCH_BLOCK);
    let fixed_blocks = fixeds.rchunks_exact(TOUCH_BLOCK);
    let (tail, fixed_tail) = (blocks.remainder(), fixed_blocks.remainder());
    for (idx, (fs, rs)) in blocks.zip(fixed_blocks).enumerate() {
        block(klo + (idx * TOUCH_BLOCK) as i32, fs, rs);
    }
    block(khi + 1 - tail.len() as i32, tail, fixed_tail);
}

/// One (mover front, fixed front, component) pairing of a touch scan.
struct FrontPair {
    /// Forward-side front cost.
    c_fwd: usize,
    /// Reverse-side front cost.
    c_rev: usize,
    mover_is_fwd: bool,
    touch: Touch,
}

impl FrontPair {
    fn new(c_mover: usize, c_fixed: usize, mover_is_fwd: bool, touch: Touch) -> Self {
        let (c_fwd, c_rev) = if mover_is_fwd {
            (c_mover, c_fixed)
        } else {
            (c_fixed, c_mover)
        };
        FrontPair {
            c_fwd,
            c_rev,
            mover_is_fwd,
            touch,
        }
    }
}

/// Record the touch of mover offset `f` on diagonal `k` with fixed offset
/// `r` on diagonal `(m − n) − k`, if the two valid cells meet.
fn record_cell(k: i32, f: i32, r: i32, pair: &FrontPair, meet: &Meet, cands: &mut Vec<Candidate>) {
    let (n, m) = (meet.n, meet.m);
    if !offset_is_valid(f) || !offset_is_valid(r) || (f as i64 + r as i64) < m as i64 {
        return;
    }
    let (k_fwd, off_fwd) = if pair.mover_is_fwd {
        (k, f)
    } else {
        (m as i32 - n as i32 - k, r)
    };
    let value = ((pair.c_fwd + pair.c_rev) as u64).saturating_sub(pair.touch.credit(meet.open));
    let j = off_fwd as usize;
    let i = (off_fwd - k_fwd) as usize;
    // Gap-interior splits peel one op off the forward half, so the touch
    // cell must not sit on the matrix edge for that op.
    let usable = match pair.touch {
        Touch::Mm => true,
        Touch::Ii => j >= 1,
        Touch::Dd => i >= 1,
    };
    if usable && i <= n && j <= m {
        push_candidate(
            cands,
            Candidate {
                value,
                c_fwd: pair.c_fwd as u32,
                c_rev: pair.c_rev as u32,
                i,
                j,
                touch: pair.touch,
            },
        );
    }
}

/// How far above the best-seen value a candidate may sit and still be
/// retained: a spurious touch can undercut every true split by up to a
/// gap-open, so keeping a one-open band preserves the true tier as retry
/// material.
const VALUE_TIER_SLACK: u64 = 8;

/// Keep the candidate list small: values within [`VALUE_TIER_SLACK`] of
/// the best seen, capped at [`MAX_CANDIDATES`] by (value, balance).
fn push_candidate(cands: &mut Vec<Candidate>, cand: Candidate) {
    let best = cands.iter().map(|c| c.value).min().unwrap_or(u64::MAX);
    if cand.value > best.saturating_add(VALUE_TIER_SLACK) {
        return;
    }
    if cand.value < best {
        // A strictly better tier evicts everything beyond its own band.
        let cutoff = cand.value + VALUE_TIER_SLACK;
        cands.retain(|c| c.value <= cutoff);
    }
    if cands.len() < MAX_CANDIDATES {
        cands.push(cand);
    } else if let Some((idx, worst)) = cands
        .iter()
        .enumerate()
        .max_by_key(|&(_, c)| (c.value, c.balance()))
    {
        if (cand.value, cand.balance()) < (worst.value, worst.balance()) {
            cands[idx] = cand;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SmallRng;
    use crate::wfa::wfa_align;

    const P: Penalties = Penalties::WFASIC_DEFAULT;

    fn random_seq(len: usize, rng: &mut SmallRng) -> Vec<u8> {
        const BASES: [u8; 4] = *b"ACGT";
        (0..len).map(|_| BASES[rng.gen_range(0, 4)]).collect()
    }

    fn mutate(a: &[u8], error_pct: usize, rng: &mut SmallRng) -> Vec<u8> {
        mutate_mix(a, error_pct, [1, 1, 1], rng)
    }

    /// `a` with `error_pct`% of its bases edited, the edit kind drawn by
    /// the `[substitute, insert, delete]` weights.
    fn mutate_mix(a: &[u8], error_pct: usize, mix: [usize; 3], rng: &mut SmallRng) -> Vec<u8> {
        const BASES: [u8; 4] = *b"ACGT";
        let mut b = Vec::with_capacity(a.len() + 8);
        for &ch in a {
            if rng.gen_range(0, 100) < error_pct {
                let pick = rng.gen_range(0, mix.iter().sum());
                if pick < mix[0] {
                    b.push(BASES[rng.gen_range(0, 4)]); // substitute
                } else if pick < mix[0] + mix[1] {
                    b.push(BASES[rng.gen_range(0, 4)]); // insert
                    b.push(ch);
                } // else delete
            } else {
                b.push(ch);
            }
        }
        b
    }

    /// The pre-gate touch scan, kept as the reference: every retained
    /// fixed front, every component, every overlapping diagonal read
    /// through [`Wavefront::get`].
    fn scan_touches_reference(
        mover: &Side<'_>,
        fixed: &Side<'_>,
        meet: &Meet,
        mover_is_fwd: bool,
        cands: &mut Vec<Candidate>,
    ) {
        let c_mover = mover.mach.s;
        let Some(mover_set) = mover.mach.front(c_mover) else {
            return;
        };
        let shift = meet.m as i32 - meet.n as i32;
        for c_fixed in fixed.mach.s.saturating_sub(meet.window)..=fixed.mach.s {
            let Some(fixed_set) = fixed.mach.front(c_fixed) else {
                continue;
            };
            for touch in Touch::ALL {
                let (Some(mw), Some(fw)) = (touch.component(mover_set), touch.component(fixed_set))
                else {
                    continue;
                };
                let pair = FrontPair::new(c_mover, c_fixed, mover_is_fwd, touch);
                for k in mw.lo.max(shift - fw.hi)..=mw.hi.min(shift - fw.lo) {
                    record_cell(k, mw.get(k), fw.get(shift - k), &pair, meet, cands);
                }
            }
        }
    }

    /// Run a meet of `a` vs `b` with the gated, blocked scan, and after
    /// every scan check that the reference scan, fed the same machines,
    /// holds the identical candidate list (element for element, in order).
    /// The meet is the top level's hint-free one, or `hinted` by the exact
    /// score as an interior node's is by its parent's candidate. Returns
    /// the meet's sorted candidates.
    fn meet_against_reference(a: &[u8], b: &[u8], p: &Penalties, hinted: bool) -> Vec<Candidate> {
        let mut arena = WavefrontArena::new();
        let mut stats = WfaStats::default();
        let score = wfa_align(a, b, &WfaOptions::score_only(*p)).unwrap().score;
        let goal = match hinted {
            true => Goal::Hint(score as u64),
            false => Goal::Prove,
        };
        let mut reference = Vec::new();
        let mut scans = 0usize;
        let (cands, _) = meet_phase_with(
            a,
            b,
            goal,
            p,
            &mut arena,
            &mut stats,
            |mover, fixed, meet, mover_is_fwd, cands| {
                scan_touches(mover, fixed, meet, mover_is_fwd, cands);
                scan_touches_reference(mover, fixed, meet, mover_is_fwd, &mut reference);
                assert_eq!(
                    *cands, reference,
                    "scan {scans} diverged from the reference"
                );
                scans += 1;
            },
        );
        assert!(scans > 1);
        cands
    }

    /// One touch-scan test pair, with the length and error rate it was
    /// drawn at.
    struct ScanCase {
        len: usize,
        err: usize,
        a: Vec<u8>,
        b: Vec<u8>,
        p: Penalties,
    }

    /// The touch-scan test pairs, drawn in order from one seed.
    fn scan_cases() -> Vec<ScanCase> {
        let mut rng = SmallRng::seed_from_u64(0x70C4_0001);
        let odd = Penalties::new(5, 7, 3).unwrap();
        let free_open = Penalties::new(3, 0, 1).unwrap();
        // (length, error %, [sub, ins, del] mix, penalties): HiFi-like
        // (substitution-leaning 1%), Nanopore-like (deletion-heavy 6%,
        // so |a| > |b|), insertion-heavy (|a| < |b|), and non-default
        // penalties with odd costs and a free gap open.
        let cases: &[(usize, usize, [usize; 3], Penalties)] = &[
            (3000, 1, [95, 3, 2], P),
            (3000, 6, [25, 30, 45], P),
            (2000, 8, [20, 60, 20], P),
            (2500, 4, [1, 1, 1], odd),
            (2500, 4, [1, 1, 1], free_open),
        ];
        cases
            .iter()
            .map(|&(len, err, mix, p)| {
                let a = random_seq(len, &mut rng);
                let b = mutate_mix(&a, err, mix, &mut rng);
                ScanCase { len, err, a, b, p }
            })
            .collect()
    }

    #[test]
    fn gated_blocked_scan_matches_the_full_scan_reference() {
        let mut gap_touches = 0;
        for ScanCase { len, err, a, b, p } in scan_cases() {
            for hinted in [false, true] {
                let cands = meet_against_reference(&a, &b, &p, hinted);
                assert!(!cands.is_empty(), "len={len} err={err}% found no touch");
                gap_touches += cands.iter().filter(|c| c.touch != Touch::Mm).count();
            }
        }
        assert!(gap_touches > 0, "no I–I / D–D touch exercised");
    }

    #[test]
    fn no_gap_component_reaches_past_m_in_a_real_meet() {
        // The M-first gate's premise, on the HiFi-like, Nanopore-like and
        // odd-penalty pairs of the scan reference test. Each scan checks
        // its mover's new front, so every front of both sides is checked
        // once it is final (the reverse side's score-0 front, never a
        // mover, holds only M).
        let cases = scan_cases();
        let mut fronts = [0usize; 2];
        let mut gap_fronts = 0usize;
        for case in [&cases[0], &cases[1], &cases[3]] {
            let mut arena = WavefrontArena::new();
            let mut stats = WfaStats::default();
            meet_phase_with(
                &case.a,
                &case.b,
                Goal::Prove,
                &case.p,
                &mut arena,
                &mut stats,
                |mover, fixed, meet, mover_is_fwd, cands| {
                    scan_touches(mover, fixed, meet, mover_is_fwd, cands);
                    let s = mover.mach.s;
                    let set = mover.mach.front(s).unwrap();
                    let m = reach(Some(&set.m));
                    assert!(reach(set.i.as_ref()) <= m, "front {s}: I reaches past M");
                    assert!(reach(set.d.as_ref()) <= m, "front {s}: D reaches past M");
                    fronts[usize::from(mover_is_fwd)] += 1;
                    gap_fronts += usize::from(set.i.is_some() || set.d.is_some());
                },
            );
        }
        assert!(
            fronts.iter().all(|&f| f > 100),
            "fronts per side: {fronts:?}"
        );
        assert!(gap_fronts > 100, "{gap_fronts} fronts with a gap component");
    }

    /// A random stored front for an `n × m` matrix: NULL or an in-matrix
    /// column on each diagonal, biased toward the far end so touches (and
    /// exact `f + r = m` boundary touches) are common.
    fn random_front(rng: &mut SmallRng, n: usize, m: usize) -> Wavefront {
        let (n, m) = (n as i32, m as i32);
        let lo = rng.gen_range(0, (n + m + 1) as usize) as i32 - n;
        let hi = (lo + rng.gen_range(0, 40) as i32).min(m);
        let mut w = Wavefront::null_range(lo, hi);
        for k in lo..=hi {
            let (first, last) = (k.max(0), m.min(n + k));
            if first <= last && !rng.gen_bool(0.3) {
                let back = rng.gen_range(0, 4).min((last - first) as usize) as i32;
                w.set(k, last - back);
            }
        }
        w
    }

    #[test]
    fn reach_gate_and_blocked_walk_are_exact_on_random_fronts() {
        let mut rng = SmallRng::seed_from_u64(0x70C4_0002);
        let (mut touching, mut on_boundary) = (0, 0);
        for _ in 0..20_000 {
            let (n, m) = (rng.gen_range(1, 50), rng.gen_range(1, 50));
            let meet = Meet {
                n,
                m,
                open: 3,
                window: 0,
            };
            let (mw, fw) = (random_front(&mut rng, n, m), random_front(&mut rng, n, m));
            let touch = Touch::ALL[rng.gen_range(0, 3)];
            let pair = FrontPair::new(4, 6, rng.gen_bool(0.5), touch);
            let shift = m as i32 - n as i32;
            let mut want = Vec::new();
            let mut meets = false;
            for k in mw.lo.max(shift - fw.hi)..=mw.hi.min(shift - fw.lo) {
                let (f, r) = (mw.get(k), fw.get(shift - k));
                meets |= offset_is_valid(f) && offset_is_valid(r) && f + r >= m as i32;
                record_cell(k, f, r, &pair, &meet, &mut want);
            }
            let mut got = Vec::new();
            record_component_touches(&mw, &fw, &pair, &meet, &mut got);
            assert_eq!(got, want);
            if meets {
                let (rm, rf) = (reach(Some(&mw)), reach(Some(&fw)));
                assert!(meet.may_touch(rm, rf), "gate refused a touching pair");
                touching += 1;
                // The gate's tight case: the touch sits exactly at the
                // farthest cells of both fronts.
                on_boundary += (rm + rf == (n + m) as i64) as usize;
            }
        }
        assert!(
            touching > 1_000 && on_boundary > 10,
            "{touching} / {on_boundary}"
        );
    }

    #[test]
    fn reach_is_the_farthest_valid_anti_diagonal() {
        use crate::wavefront::OFFSET_NULL;
        assert_eq!(reach(None), UNREACHED);
        let mut w = Wavefront::null_range(-2, 3);
        assert!(reach(Some(&w)) + reach(Some(&w)) < 0);
        w.set(-2, 4); // (i, j) = (6, 4): anti-diagonal 10
        w.set(1, 5); // (4, 5): 9
        assert_eq!(w.get(0), OFFSET_NULL);
        assert_eq!(reach(Some(&w)), 10);
    }

    fn biwfa_opts() -> WfaOptions {
        WfaOptions::biwfa(P)
    }

    #[test]
    fn matches_exact_on_small_pairs() {
        let cases: &[(&[u8], &[u8])] = &[
            (b"GATTACA", b"GATTACA"),
            (b"GATTACA", b"GACTATA"),
            (b"AAAA", b"AAAATTTTAAAA"),
            (b"ACGTACGTACGT", b"ACGT"),
            (b"A", b"T"),
            (b"", b"ACGT"),
            (b"ACGT", b""),
        ];
        for (a, b) in cases {
            let exact = wfa_align(a, b, &WfaOptions::exact(P)).unwrap();
            let bi = wfa_align(a, b, &biwfa_opts()).unwrap();
            assert_eq!(bi.score, exact.score, "score mismatch on {a:?} vs {b:?}");
            let cigar = bi.cigar.expect("BiWFA must produce a CIGAR");
            cigar.check(a, b).unwrap();
            assert_eq!(cigar.score(&P), exact.score as u64);
        }
    }

    #[test]
    fn matches_exact_on_mutated_pairs_past_the_cutoff() {
        let mut rng = SmallRng::seed_from_u64(0x5EED_B1F4);
        for &(len, err) in &[(700usize, 5usize), (1500, 5), (2500, 10), (4000, 2)] {
            let a = random_seq(len, &mut rng);
            let b = mutate(&a, err, &mut rng);
            let exact = wfa_align(&a, &b, &WfaOptions::exact(P)).unwrap();
            let bi = wfa_align(&a, &b, &biwfa_opts()).unwrap();
            assert_eq!(bi.score, exact.score, "len={len} err={err}%");
            let cigar = bi.cigar.unwrap();
            cigar.check(&a, &b).unwrap();
            assert_eq!(cigar.score(&P), exact.score as u64, "len={len} err={err}%");
        }
    }

    #[test]
    fn linear_memory_on_a_long_pair() {
        let mut rng = SmallRng::seed_from_u64(0xB1F4_0001);
        let a = random_seq(8_000, &mut rng);
        let b = mutate(&a, 5, &mut rng);
        let exact = wfa_align(&a, &b, &WfaOptions::exact(P)).unwrap();
        let bi = wfa_align(&a, &b, &biwfa_opts()).unwrap();
        assert_eq!(bi.score, exact.score);
        assert!(
            bi.stats.peak_memory_bytes * 4 <= exact.stats.peak_memory_bytes,
            "BiWFA peak {} not ≥4× below exact peak {}",
            bi.stats.peak_memory_bytes,
            exact.stats.peak_memory_bytes,
        );
    }

    /// The top level on `a` vs `b`: its answer, checked optimal against
    /// the score-only exact engine, and which path gave it.
    fn top(a: &[u8], b: &[u8], opts: &WfaOptions) -> (WfaAlignment, Answer) {
        let p = opts.penalties;
        let want = wfa_align(a, b, &WfaOptions::score_only(p)).unwrap().score as u64;
        let mut stats = WfaStats::default();
        let (score, cigar, answer) = biwfa_top(a, b, &p, &mut WavefrontArena::new(), &mut stats);
        assert_eq!(score, want, "{answer:?}");
        cigar.check(a, b).unwrap();
        assert_eq!(cigar.score(&p), want, "{answer:?}");
        let aln = WfaAlignment {
            score: score as u32,
            cigar: Some(cigar),
            stats,
            engine: AlignStrategy::BiWfa,
        };
        (aln, answer)
    }

    /// A 3 kb HiFi-like pair: 1% edits, nearly all substitutions.
    fn hifi_pair() -> (Vec<u8>, Vec<u8>) {
        let mut rng = SmallRng::seed_from_u64(0xB1F4_0028);
        let a = random_seq(3000, &mut rng);
        let b = mutate_mix(&a, 1, [95, 3, 2], &mut rng);
        (a, b)
    }

    #[test]
    fn the_meet_proves_a_hifi_pair() {
        let (a, b) = hifi_pair();
        assert_eq!(top(&a, &b, &biwfa_opts()).1, Answer::Proven);
    }

    /// The meet's peak includes the fronts its last step left live: on the
    /// HiFi pair that is 12,000 bytes, where sampling only before each
    /// step recorded 11,520. The meet is the whole run's peak.
    #[test]
    fn the_meet_peak_counts_its_last_step() {
        let (a, b) = hifi_pair();
        let mut stats = WfaStats::default();
        meet_phase(
            &a,
            &b,
            Goal::Prove,
            &P,
            &mut WavefrontArena::new(),
            &mut stats,
        );
        assert_eq!(stats.peak_memory_bytes, 12_000);
        let (aln, _) = top(&a, &b, &biwfa_opts());
        assert_eq!(aln.stats.peak_memory_bytes, 12_000);
    }

    #[test]
    fn a_meet_that_reaches_the_end_first_goes_to_the_exact_engine() {
        // Two mismatches: the forward side reaches the end cell at score 8,
        // short of `horizon(8)`, so the meet proves nothing.
        let mut rng = SmallRng::seed_from_u64(0xB1F4_0029);
        let a = random_seq(1500, &mut rng);
        let mut b = a.clone();
        for pos in [400, 1100] {
            b[pos] = if a[pos] == b'A' { b'C' } else { b'A' };
        }
        let mut stats = WfaStats::default();
        let mut arena = WavefrontArena::new();
        let (_, stop) = meet_phase(&a, &b, Goal::Prove, &P, &mut arena, &mut stats);
        assert_eq!(stop, Stop::End(2 * P.x as u64));
        let (aln, answer) = top(&a, &b, &biwfa_opts());
        assert_eq!(answer, Answer::Exact);
        assert_eq!(aln.score, 2 * P.x);
    }

    #[test]
    fn an_identical_pair_is_proven_at_score_zero() {
        let mut rng = SmallRng::seed_from_u64(0xB1F4_002A);
        let a = random_seq(1500, &mut rng);
        let (aln, answer) = top(&a, &a, &biwfa_opts());
        assert_eq!(answer, Answer::Proven);
        assert_eq!(aln.cigar.unwrap().runs(), [(1500, Op::Match)]);
        // The score-0 touch is proved at once: no machine steps.
        assert_eq!(aln.stats.cells_computed, 0);
    }

    #[test]
    fn score_only_biwfa_requests_use_the_windowed_engine() {
        let opts = WfaOptions {
            compute_cigar: false,
            ..biwfa_opts()
        };
        let r = wfa_align(b"GATTACAGATTACA", b"GATCACAGATTACA", &opts).unwrap();
        assert_eq!(r.score, 4);
        assert!(r.cigar.is_none());

        // On a long pair the strict window shows: same score as the
        // legacy score-only engine, far smaller retained-memory peak.
        let mut rng = SmallRng::seed_from_u64(0x5C02E);
        let a = random_seq(6000, &mut rng);
        let b = mutate(&a, 5, &mut rng);
        let bi = wfa_align(&a, &b, &opts).unwrap();
        let legacy = wfa_align(&a, &b, &WfaOptions::score_only(Penalties::WFASIC_DEFAULT)).unwrap();
        assert_eq!(bi.score, legacy.score);
        assert!(
            bi.stats.peak_memory_bytes * 8 <= legacy.stats.peak_memory_bytes,
            "strict window peak {} vs legacy peak {}",
            bi.stats.peak_memory_bytes,
            legacy.stats.peak_memory_bytes
        );
    }

    #[test]
    fn packed_inputs_round_trip_through_biwfa() {
        use crate::bitpack::PackedSeq;
        use crate::seq::Seq;
        let mut rng = SmallRng::seed_from_u64(0xACC7);
        let a = random_seq(1800, &mut rng);
        let b = mutate(&a, 5, &mut rng);
        let pa = Seq::Packed(PackedSeq::from_ascii(&a).unwrap());
        let pb = Seq::Packed(PackedSeq::from_ascii(&b).unwrap());
        let exact = wfa_align(&a, &b, &WfaOptions::exact(P)).unwrap();
        let bi = crate::wfa::wfa_align_seqs(&pa, &pb, &biwfa_opts()).unwrap();
        assert_eq!(bi.score, exact.score);
        bi.cigar.unwrap().check(&a, &b).unwrap();
    }
}
