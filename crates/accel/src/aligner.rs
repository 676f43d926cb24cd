//! The Aligner module (paper §4.3): per-score extend/compute iteration over
//! batches of `P` parallel sections, with cycle accounting and backtrace
//! origin-block emission.
//!
//! The Aligner follows the deterministic [`crate::schedule::WavefrontSchedule`]:
//! for every computed score it (1) computes the frame column in batches of
//! `P` cells (emitting one origin block per batch when backtrace is
//! enabled), (2) extends the new M cells — each parallel section extends the
//! cells of its stripe back-to-back — and (3) checks termination. An
//! alignment whose score exceeds `Score_max = 2*k_max + 4` (Eq. 6) is
//! terminated with `Success = 0`.

use crate::config::AccelConfig;
use crate::extend::{compare_cycles, extend_cell, section_run_cycles};
use crate::extractor::ExtractedPair;
use crate::schedule::WavefrontSchedule;
use wfa_core::arena::WavefrontArena;
use wfa_core::bitpack::PackedSeq;
use wfa_core::kernel::{compute_row, compute_row_with_origins, extend_row};
use wfa_core::wavefront::{fill_row, Wavefront};
use wfasic_seqio::memimage::{bt_block_bytes, pack_code_into, pack_codes_dense};
use wfasic_soc::clock::Cycle;

/// Reusable host-side scratch for the Aligner datapath: the wavefront
/// buffer arena plus the per-step section/origin staging vectors.
///
/// Purely a wall-clock optimization — reusing scratch across pairs changes
/// no outcome field and no cycle count (the `ci-check` gate and the
/// oracle matrix pin this). One scratch per device/lane; it reaches
/// the workload's high-water mark on the first pair and stops allocating.
#[derive(Debug, Default)]
pub struct AlignerScratch {
    /// Wavefront offset-buffer pool (shared with the software WFA oracle's
    /// [`wfa_core::wfa_align_seqs_with_arena`] when the driver falls back).
    pub arena: WavefrontArena,
    /// Per-section cycle sums of one extend phase.
    sections: Vec<Cycle>,
    code_row: Vec<u8>,
    sub_row: Vec<i32>,
    open_row: Vec<i32>,
    iext_row: Vec<i32>,
    dext_row: Vec<i32>,
}

impl AlignerScratch {
    /// Fresh, empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Work counters for one alignment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AlignerStats {
    /// Frame-column cells computed (each computes I, D and M).
    pub cells: u64,
    /// Compute batches issued.
    pub batches: u64,
    /// Extend operations performed (valid M cells).
    pub extends: u64,
    /// Bases compared across all extends.
    pub bases_compared: u64,
    /// Computed score steps executed.
    pub score_steps: u64,
}

/// The outcome of aligning one pair (or rejecting it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlignerOutcome {
    /// Alignment ID.
    pub id: u32,
    /// Completed within the hardware limits?
    pub success: bool,
    /// Alignment score (valid when `success`).
    pub score: u32,
    /// Terminal diagonal `k_end = |b| - |a|`.
    pub k_end: i32,
    /// Total alignment cycles (compute + extend + per-score overhead).
    pub cycles: Cycle,
    /// Cycles in the extend phases.
    pub extend_cycles: Cycle,
    /// Cycles in the compute phases.
    pub compute_cycles: Cycle,
    /// Packed origin blocks in emission order, concatenated into one flat
    /// stream of [`wfasic_seqio::memimage::bt_block_bytes`]`(P)`-byte blocks
    /// (empty when backtrace is disabled or the pair was rejected). The flat
    /// form is exactly what Collector BT streams out, so nothing downstream
    /// ever re-concatenates per-block allocations.
    pub bt_blocks: Vec<u8>,
    /// Work counters.
    pub stats: AlignerStats,
}

impl AlignerOutcome {
    /// Decompose this alignment's busy interval `[t0, t0 + cycles)` into
    /// its three pipeline phases for perf attribution: compute, extend,
    /// then per-score loop overhead, laid out back to back. The phase
    /// lengths are the outcome's exact cycle accounting, so the spans
    /// always cover the busy interval with no gap or overlap.
    pub fn phase_spans(&self, t0: Cycle, aligner: usize) -> [wfasic_soc::perf::Span; 3] {
        use wfasic_soc::perf::{track, Span, Stage};
        let t1 = t0 + self.compute_cycles;
        let t2 = t1 + self.extend_cycles;
        let tr = track::ALIGNER0 + aligner as u16;
        [
            Span {
                stage: Stage::Compute,
                track: tr,
                start: t0,
                end: t1,
                id: self.id,
            },
            Span {
                stage: Stage::Extend,
                track: tr,
                start: t1,
                end: t2,
                id: self.id,
            },
            Span {
                stage: Stage::ScoreLoop,
                track: tr,
                start: t2,
                end: t0 + self.cycles,
                id: self.id,
            },
        ]
    }
}

/// One score's wavefront storage inside the Aligner window.
#[derive(Debug, Clone)]
struct WfSet {
    score: u32,
    m: Wavefront,
    i: Wavefront,
    d: Wavefront,
}

/// Retained window of recent wavefronts (the hardware keeps only the
/// lookback needed by Eq. 3: 4 M columns + 1 I + 1 D for (4,6,2)).
#[derive(Debug, Default)]
struct Window {
    sets: Vec<WfSet>,
}

impl Window {
    fn get(&self, score: i64) -> Option<&WfSet> {
        if score < 0 {
            return None;
        }
        self.sets.iter().find(|s| s.score as i64 == score)
    }

    /// Push a new set, retiring everything older than the lookback into the
    /// arena pool.
    fn push(&mut self, set: WfSet, lookback: u32, arena: &mut WavefrontArena) {
        let min_keep = set.score.saturating_sub(lookback);
        let mut idx = 0;
        while idx < self.sets.len() {
            if self.sets[idx].score < min_keep {
                let old = self.sets.remove(idx);
                arena.recycle(old.m);
                arena.recycle(old.i);
                arena.recycle(old.d);
            } else {
                idx += 1;
            }
        }
        self.sets.push(set);
    }

    /// Return every retained set's buffers to the arena.
    fn drain_into(&mut self, arena: &mut WavefrontArena) {
        for set in self.sets.drain(..) {
            arena.recycle(set.m);
            arena.recycle(set.i);
            arena.recycle(set.d);
        }
    }
}

/// Align an extracted pair with caller-provided reusable scratch. `bt`
/// enables origin-block emission.
pub fn align_extracted_in(
    cfg: &AccelConfig,
    schedule: &WavefrontSchedule,
    ex: &ExtractedPair,
    bt: bool,
    scratch: &mut AlignerScratch,
) -> AlignerOutcome {
    let Some((a, b)) = &ex.seqs else {
        // Unsupported read: Success = 0, no processing beyond a couple of
        // control cycles.
        return AlignerOutcome {
            id: ex.id,
            success: false,
            score: 0,
            k_end: 0,
            cycles: 2,
            extend_cycles: 0,
            compute_cycles: 0,
            bt_blocks: Vec::new(),
            stats: AlignerStats::default(),
        };
    };
    align_packed_in(cfg, schedule, ex.id, a, b, bt, scratch)
}

/// Align two packed sequences (the Aligner datapath proper).
///
/// Convenience wrapper over [`align_packed_in`] with throwaway scratch.
pub fn align_packed(
    cfg: &AccelConfig,
    schedule: &WavefrontSchedule,
    id: u32,
    a: &PackedSeq,
    b: &PackedSeq,
    bt: bool,
) -> AlignerOutcome {
    align_packed_in(cfg, schedule, id, a, b, bt, &mut AlignerScratch::new())
}

/// [`align_packed`] with caller-provided reusable scratch (wavefront arena
/// + staging vectors). Bit-identical outcomes; just fewer allocations.
pub fn align_packed_in(
    cfg: &AccelConfig,
    schedule: &WavefrontSchedule,
    id: u32,
    a: &PackedSeq,
    b: &PackedSeq,
    bt: bool,
    scratch: &mut AlignerScratch,
) -> AlignerOutcome {
    align_with(cfg, schedule, id, a, b, bt, scratch, extend_column)
}

/// One frame column's Extend phase: extends the valid M cells of `offs`
/// (diagonals from `k_lo`) in place and returns the phase's cycles, the
/// extends performed and the bases compared. `sections` is scratch.
type ExtendColumn =
    fn(&AccelConfig, &PackedSeq, &PackedSeq, &mut [i32], i32, &mut Vec<Cycle>) -> (Cycle, u64, u64);

/// The [`ExtendColumn`] model: one streaming pass over the frame column. Cell
/// `idx` belongs to section `idx % P` (striping over the *full* row range,
/// so the assignment is exactly the hardware's bank mapping, independent
/// of which cells are valid). `section_run_cycles` over a run is fill +
/// Σ(compare + issue), so each section accumulates only the sum; every
/// cell adds at least one cycle, so a zero sum marks an idle section.
fn extend_column(
    cfg: &AccelConfig,
    a: &PackedSeq,
    b: &PackedSeq,
    offs: &mut [i32],
    k_lo: i32,
    sections: &mut Vec<Cycle>,
) -> (Cycle, u64, u64) {
    let p = cfg.parallel_sections;
    sections.clear();
    sections.resize(p, 0);
    let (mut extends, mut bases) = (0u64, 0u64);
    // `(idx, idx % p)` of the cell after the last one handed over: cells
    // arrive in increasing order, so the section advances without a divide.
    extend_row(a, b, offs, k_lo, |idx, matches, limit| {
        sections[idx % p] += compare_cycles(cfg, matches) + AccelConfig::EXTEND_ISSUE_CYCLES;
        extends += 1;
        bases += matches as u64 + (matches < limit) as u64;
    });
    let busiest = sections.iter().copied().max().unwrap_or(0);
    let cycles = if busiest > 0 {
        AccelConfig::EXTEND_FILL_CYCLES + busiest
    } else {
        0
    };
    (cycles, extends, bases)
}

/// The Aligner datapath over any [`ExtendColumn`] model.
#[allow(clippy::too_many_arguments)]
fn align_with(
    cfg: &AccelConfig,
    schedule: &WavefrontSchedule,
    id: u32,
    a: &PackedSeq,
    b: &PackedSeq,
    bt: bool,
    scratch: &mut AlignerScratch,
    extend_column: ExtendColumn,
) -> AlignerOutcome {
    let n = a.len() as i32;
    let m = b.len() as i32;
    let k_end = m - n;
    let p = cfg.parallel_sections;
    let lookback = cfg.penalties.x.max(cfg.penalties.o + cfg.penalties.e);

    let mut out = AlignerOutcome {
        id,
        success: false,
        score: 0,
        k_end,
        cycles: 0,
        extend_cycles: 0,
        compute_cycles: 0,
        bt_blocks: Vec::new(),
        stats: AlignerStats::default(),
    };

    let mut window = Window::default();

    // --- Score 0: the initial wavefront, extended. ---
    let mut m0 = scratch.arena.initial();
    {
        out.stats.score_steps += 1;
        let r = extend_cell(cfg, a, b, 0, 0);
        out.stats.extends += 1;
        out.stats.bases_compared += r.matches as u64 + 1;
        m0.set(0, r.matches as i32);
        out.extend_cycles += section_run_cycles(&[r.compare_cycles]);
        out.cycles = out.extend_cycles + AccelConfig::SCORE_LOOP_OVERHEAD;
    }
    if k_end == 0 && m0.get(0) == m {
        out.success = true;
        out.score = 0;
        scratch.arena.recycle(m0);
        return out;
    }
    let i0 = scratch.arena.wavefront(0, 0);
    let d0 = scratch.arena.wavefront(0, 0);
    window.push(
        WfSet {
            score: 0,
            m: m0,
            i: i0,
            d: d0,
        },
        lookback,
        &mut scratch.arena,
    );

    // --- Scheduled score steps. ---
    let px = cfg.penalties.x as i64;
    let poe = (cfg.penalties.o + cfg.penalties.e) as i64;
    let pe = cfg.penalties.e as i64;

    for step in &schedule.steps()[1..] {
        let s = step.score as i64;
        let depth = step.depth as i32;
        out.stats.score_steps += 1;

        // The batched kernel stores to every slot in [-depth, depth], so the
        // buffers need sizing only, not the arena's NULL fill.
        let mut wm = scratch.arena.wavefront_overwritten(-depth, depth);
        let mut wi = scratch.arena.wavefront_overwritten(-depth, depth);
        let mut wd = scratch.arena.wavefront_overwritten(-depth, depth);

        // The three source sets are fixed for the whole score step.
        let set_sub = window.get(s - px);
        let set_open = window.get(s - poe);
        let set_ext = window.get(s - pe);

        // Compute phase: P-aligned row groups of the wavefront matrix
        // covering the frame column's range (row = k + k_max; the Fig. 6
        // bank distribution serves aligned batches).
        let center = cfg.k_max as i32;
        let row_lo = (center - depth) as usize;
        let row_hi = (center + depth) as usize;
        let first_group = row_lo / p;
        let last_group = row_hi / p;
        let batches = last_group - first_group + 1;
        out.stats.batches += batches as u64;
        out.stats.cells += (row_hi - row_lo + 1) as u64;
        out.compute_cycles += batches as Cycle * cfg.compute_batch_cycles;

        // Output stores are unconditional: an invalid component is exactly
        // OFFSET_NULL (see `kernel::compute_row`), identical to the untouched
        // arena fill, so skipping the validity branches changes nothing.
        // The whole frame column runs through the batched SIMD kernel either
        // way. Values are bit-identical to `compute_row_scalar` per cell, and
        // the batch/cycle accounting above depends only on the row range —
        // host vector width never reaches the simulated cycle counts.
        let wm_offs = &mut wm.offsets[..];
        let wi_offs = &mut wi.offsets[..];
        let wd_offs = &mut wd.offsets[..];
        let (lo, hi) = (-depth - 1, depth + 1);
        fill_row(&mut scratch.sub_row, lo, hi, set_sub.map(|t| &t.m));
        fill_row(&mut scratch.open_row, lo, hi, set_open.map(|t| &t.m));
        fill_row(&mut scratch.iext_row, lo, hi, set_ext.map(|t| &t.i));
        fill_row(&mut scratch.dext_row, lo, hi, set_ext.map(|t| &t.d));
        if bt {
            // Backtrace on: the kernel also emits each cell's 5-bit origin
            // code (identical to `compute_row_with_origins_scalar`), which the
            // P-lane batches below pack into the hardware block layout.
            let code_row = &mut scratch.code_row;
            code_row.clear();
            code_row.resize(wm_offs.len(), 0);
            compute_row_with_origins(
                &scratch.sub_row,
                &scratch.open_row,
                &scratch.iext_row,
                &scratch.dext_row,
                -depth,
                n,
                m,
                wi_offs,
                wd_offs,
                wm_offs,
                code_row,
            );
            // Pack each P-lane batch straight into the tail of the flat
            // stream: lanes outside the frame column pack code 0 (NONE),
            // which is a no-op on the zeroed block bytes.
            let bb = bt_block_bytes(p);
            for group in first_group..=last_group {
                let gstart = group * p;
                let base = out.bt_blocks.len();
                out.bt_blocks.resize(base + bb, 0);
                let block = &mut out.bt_blocks[base..];
                let s = gstart.max(row_lo);
                let e = (gstart + p - 1).min(row_hi);
                if s == gstart {
                    // Group aligned with the frame column: one dense pack
                    // (PEXT-accelerated) over its codes. All but the first
                    // group of every step take this path.
                    pack_codes_dense(block, &code_row[s - row_lo..=e - row_lo]);
                } else {
                    for row in s..=e {
                        pack_code_into(block, row - gstart, code_row[row - row_lo]);
                    }
                }
            }
        } else {
            compute_row(
                &scratch.sub_row,
                &scratch.open_row,
                &scratch.iext_row,
                &scratch.dext_row,
                -depth,
                n,
                m,
                wi_offs,
                wd_offs,
                wm_offs,
            );
        }

        // Extend phase: each section extends its stripe's valid M cells.
        let (cycles, extends, bases) =
            extend_column(cfg, a, b, &mut wm.offsets, -depth, &mut scratch.sections);
        out.extend_cycles += cycles;
        out.stats.extends += extends;
        out.stats.bases_compared += bases;

        // Termination check.
        let done = k_end.abs() <= depth && wm.get(k_end) == m;
        if done {
            out.success = true;
            out.score = step.score;
        }
        window.push(
            WfSet {
                score: step.score,
                m: wm,
                i: wi,
                d: wd,
            },
            lookback,
            &mut scratch.arena,
        );
        if done {
            break;
        }
    }

    window.drain_into(&mut scratch.arena);
    out.cycles = out.extend_cycles
        + out.compute_cycles
        + out.stats.score_steps * AccelConfig::SCORE_LOOP_OVERHEAD;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfa_core::{swg_score, Penalties};

    fn cfg() -> AccelConfig {
        AccelConfig::wfasic_chip()
    }

    fn run(a: &[u8], b: &[u8], bt: bool) -> AlignerOutcome {
        let c = cfg();
        let schedule = WavefrontSchedule::for_config(&c);
        let pa = PackedSeq::from_ascii(a).unwrap();
        let pb = PackedSeq::from_ascii(b).unwrap();
        align_packed(&c, &schedule, 1, &pa, &pb, bt)
    }

    #[test]
    fn identical_pair_scores_zero() {
        let out = run(b"ACGTACGTACGT", b"ACGTACGTACGT", false);
        assert!(out.success);
        assert_eq!(out.score, 0);
        assert!(out.cycles > 0);
    }

    #[test]
    fn scores_match_software_wfa() {
        let cases: [(&[u8], &[u8]); 6] = [
            (b"GATTACA", b"GACTACA"),
            (b"GATTACA", b"GATTTACA"),
            (b"AAAA", b"AAAATTTT"),
            (b"ACGTACGTACGTACGT", b"TGCATGCA"),
            (b"GATTACAGATTACAGATTACA", b"GATCACAGATAACAGATTACA"),
            (b"A", b"T"),
        ];
        for (a, b) in cases {
            let out = run(a, b, false);
            assert!(out.success, "a={:?}", a);
            assert_eq!(
                out.score as u64,
                swg_score(a, b, &Penalties::WFASIC_DEFAULT),
                "a={:?} b={:?}",
                std::str::from_utf8(a).unwrap(),
                std::str::from_utf8(b).unwrap()
            );
        }
    }

    #[test]
    fn empty_sequences() {
        let out = run(b"", b"", false);
        assert!(out.success);
        assert_eq!(out.score, 0);
        let out = run(b"", b"ACG", false);
        assert!(out.success);
        assert_eq!(out.score, 6 + 3 * 2);
        let out = run(b"ACG", b"", false);
        assert!(out.success);
        assert_eq!(out.score, 6 + 3 * 2);
    }

    #[test]
    fn score_limit_sets_success_zero() {
        // A tiny k_max bounds the score at 2*k+4; wildly different sequences
        // blow past it and must come back with Success = 0.
        let mut c = cfg();
        c.k_max = 3;
        let schedule = WavefrontSchedule::for_config(&c);
        let a = PackedSeq::from_ascii(&[b'A'; 40]).unwrap();
        let b = PackedSeq::from_ascii(&[b'T'; 40]).unwrap();
        let out = align_packed(&c, &schedule, 9, &a, &b, false);
        assert!(!out.success);
    }

    #[test]
    fn bt_blocks_follow_schedule() {
        let c = cfg();
        let schedule = WavefrontSchedule::for_config(&c);
        let a = PackedSeq::from_ascii(b"GATTACAGATTACA").unwrap();
        let b = PackedSeq::from_ascii(b"GATCACAGATAACA").unwrap();
        let out = align_packed(&c, &schedule, 1, &a, &b, true);
        assert!(out.success);
        // The flat stream is whole blocks of P*5 bits each, and the block
        // count must match the deterministic schedule.
        let bb = wfasic_seqio::memimage::bt_block_bytes(c.parallel_sections);
        assert_eq!(out.bt_blocks.len() % bb, 0);
        assert_eq!(
            (out.bt_blocks.len() / bb) as u64,
            schedule.total_blocks_through(out.score),
            "emitted blocks must match the deterministic schedule"
        );
    }

    #[test]
    fn bt_disabled_emits_nothing() {
        let out = run(b"GATTACA", b"GACTACA", false);
        assert!(out.bt_blocks.is_empty());
    }

    #[test]
    fn phase_spans_tile_the_busy_interval_exactly() {
        for (a, b) in [
            (b"GATTACAGATTACA".as_slice(), b"GATCACAGATAACA".as_slice()),
            (b"ACGT".as_slice(), b"ACGT".as_slice()), // score-0 early return
        ] {
            let out = run(a, b, false);
            let t0 = 1000;
            let spans = out.phase_spans(t0, 2);
            assert_eq!(spans[0].start, t0);
            assert_eq!(spans[0].end, spans[1].start);
            assert_eq!(spans[1].end, spans[2].start);
            assert_eq!(spans[2].end, t0 + out.cycles, "no gap, no overlap");
            assert!(spans
                .iter()
                .all(|s| s.track == wfasic_soc::perf::track::ALIGNER0 + 2));
            assert!(spans.iter().all(|s| s.id == out.id));
        }
    }

    #[test]
    fn cycle_accounting_is_consistent() {
        let out = run(
            b"GATTACAGATTACAGATTACAGATTACA",
            b"GATCACAGATAACAGATTACAGATTACA",
            false,
        );
        assert_eq!(
            out.cycles,
            out.extend_cycles
                + out.compute_cycles
                + out.stats.score_steps * AccelConfig::SCORE_LOOP_OVERHEAD
        );
        assert!(out.stats.cells > 0);
        assert!(out.stats.batches > 0);
    }

    #[test]
    fn more_parallel_sections_fewer_cycles_on_wide_wavefronts() {
        // A long, noisy pair produces wide wavefronts; 64 sections must beat
        // 8 sections in cycles.
        let a: Vec<u8> = (0..600).map(|i| b"ACGT"[i % 4]).collect();
        let mut b = a.clone();
        for idx in (7..580).step_by(13) {
            b[idx] = if b[idx] == b'A' { b'C' } else { b'A' };
        }
        let c64 = cfg();
        let c8 = cfg().with_parallel_sections(8);
        let pa = PackedSeq::from_ascii(&a).unwrap();
        let pb = PackedSeq::from_ascii(&b).unwrap();
        let o64 = align_packed(
            &c64,
            &WavefrontSchedule::for_config(&c64),
            0,
            &pa,
            &pb,
            false,
        );
        let o8 = align_packed(&c8, &WavefrontSchedule::for_config(&c8), 0, &pa, &pb, false);
        assert!(o64.success && o8.success);
        assert_eq!(o64.score, o8.score, "parallelism must not change results");
        assert!(
            o64.cycles * 2 < o8.cycles,
            "64 PS ({}) should be much faster than 8 PS ({})",
            o64.cycles,
            o8.cycles
        );
    }

    /// The Extend phase spelled out cell by cell: one [`extend_cell`] per
    /// valid M cell, each section's compare cycles collected as a run and
    /// charged with [`section_run_cycles`].
    fn extend_column_per_cell(
        cfg: &AccelConfig,
        a: &PackedSeq,
        b: &PackedSeq,
        offs: &mut [i32],
        k_lo: i32,
        _: &mut Vec<Cycle>,
    ) -> (Cycle, u64, u64) {
        let mut runs: Vec<Vec<Cycle>> = vec![Vec::new(); cfg.parallel_sections];
        let (mut extends, mut bases) = (0u64, 0u64);
        for (idx, off) in offs.iter_mut().enumerate() {
            if !wfa_core::wavefront::offset_is_valid(*off) {
                continue;
            }
            let k = k_lo + idx as i32;
            let (i, j) = ((*off - k) as usize, *off as usize);
            let r = extend_cell(cfg, a, b, k, *off);
            extends += 1;
            let inside = i + r.matches < a.len() && j + r.matches < b.len();
            bases += r.matches as u64 + inside as u64;
            *off += r.matches as i32;
            runs[idx % cfg.parallel_sections].push(r.compare_cycles);
        }
        let cycles = runs.iter().map(|r| section_run_cycles(r)).max();
        (cycles.unwrap_or(0), extends, bases)
    }

    #[test]
    fn row_extend_matches_per_cell_reference() {
        use wfa_core::prop;
        use wfa_core::rng::SmallRng;
        fn mutate(rng: &mut SmallRng, a: &[u8], rate: f64) -> Vec<u8> {
            let mut b = Vec::with_capacity(a.len());
            for &base in a {
                if !rng.gen_bool(rate) {
                    b.push(base);
                    continue;
                }
                match rng.gen_range(0, 3) {
                    0 => b.push(*rng.pick(b"ACGT")),
                    1 => b.extend([base, *rng.pick(b"ACGT")]),
                    _ => {}
                }
            }
            b
        }
        // P = 6 is not a multiple of the AVX2 kernel's four lanes.
        for p in [6, 8, 32, 64] {
            let c = cfg().with_parallel_sections(p);
            let schedule = WavefrontSchedule::for_config(&c);
            let mut scratch = AlignerScratch::new();
            prop::cases(24, 0xA1_16E5 ^ p as u64, |rng, case| {
                let (len, rate) = [(600, 0.10), (150, 0.05), (1000, 0.02), (100, 0.20)][case % 4];
                let a: Vec<u8> = (0..len).map(|_| *rng.pick(b"ACGT")).collect();
                let b = mutate(rng, &a, rate);
                let pa = PackedSeq::from_ascii(&a).unwrap();
                let pb = PackedSeq::from_ascii(&b).unwrap();
                for bt in [false, true] {
                    let got = align_packed_in(&c, &schedule, 7, &pa, &pb, bt, &mut scratch);
                    let want = align_with(
                        &c,
                        &schedule,
                        7,
                        &pa,
                        &pb,
                        bt,
                        &mut AlignerScratch::new(),
                        extend_column_per_cell,
                    );
                    assert_eq!(got, want, "P={p} len={len} rate={rate} bt={bt}");
                }
            });
        }
    }

    #[test]
    fn rejected_pair_outcome() {
        let c = cfg();
        let schedule = WavefrontSchedule::for_config(&c);
        let ex = ExtractedPair {
            id: 5,
            seqs: None,
            reject: Some(crate::extractor::RejectReason::UnknownBase),
            decode_cycles: 5,
        };
        let out = align_extracted_in(&c, &schedule, &ex, true, &mut AlignerScratch::new());
        assert!(!out.success);
        assert_eq!(out.id, 5);
        assert!(out.bt_blocks.is_empty());
    }
}
