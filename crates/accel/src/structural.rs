//! The structural ("netlist-level") Aligner: same datapath as
//! [`crate::aligner`], but the wavefront window physically lives in the
//! banked single-port RAM models of [`crate::wavefront_ram`], every batch
//! access is planned through the Fig. 6 bank-distribution scheme (with the
//! duplicated edge banks), and the frame column *rotates* instead of data
//! moving (§4.3.1).
//!
//! This plays the role the paper's LEC/GLS flow plays for the RTL: an
//! independent, lower-level implementation whose results must be exactly
//! equivalent to the behavioral model — checked by the equivalence tests at
//! the bottom of this file and in the integration suite.

use crate::aligner::{AlignerOutcome, AlignerStats};
use crate::config::AccelConfig;
use crate::extend::{extend_cell, section_run_cycles};
use crate::schedule::WavefrontSchedule;
use crate::wavefront_ram::BankedWindow;
use wfa_core::bitpack::PackedSeq;
use wfa_core::kernel::compute_row_with_origins_scalar;
use wfa_core::wavefront::{offset_is_valid, OFFSET_NULL};
use wfasic_seqio::memimage::pack_origin_codes;
use wfasic_soc::clock::Cycle;

/// One banked, multi-column wavefront store: `banks × rows_per_bank × cols`
/// of offsets, with optional duplicated edge banks kept in lockstep.
#[derive(Debug)]
struct BankedStore {
    window: BankedWindow,
    /// `banks[b][addr]` where `addr = (row / P) * cols + col`.
    primary: Vec<Vec<i32>>,
    dup_first: Option<Vec<i32>>,
    dup_last: Option<Vec<i32>>,
    cols: usize,
}

impl BankedStore {
    fn new(window: BankedWindow) -> Self {
        let p = window.banks;
        let rows_per_bank = window.rows.div_ceil(p);
        let cols = window.columns;
        let bank_words = rows_per_bank * cols;
        BankedStore {
            primary: vec![vec![OFFSET_NULL; bank_words]; p],
            dup_first: window
                .duplicated_edges
                .then(|| vec![OFFSET_NULL; bank_words]),
            dup_last: window
                .duplicated_edges
                .then(|| vec![OFFSET_NULL; bank_words]),
            cols,
            window,
        }
    }

    #[inline]
    fn addr(&self, row: usize, col: usize) -> usize {
        (row / self.window.banks) * self.cols + col
    }

    /// Read through a specific physical bank (as a planned access would).
    fn read(&self, row: usize, col: usize) -> i32 {
        let b = self.window.bank_of(row);
        self.primary[b][self.addr(row, col)]
    }

    /// Read via a duplicate bank — must hold the same value (checked).
    fn read_dup(&self, row: usize, col: usize) -> i32 {
        let b = self.window.bank_of(row);
        let a = self.addr(row, col);
        let dup = if b == 0 {
            self.dup_first.as_ref()
        } else if b == self.window.banks - 1 {
            self.dup_last.as_ref()
        } else {
            None
        };
        let v = dup.expect("duplicate read from a non-edge bank")[a];
        debug_assert_eq!(
            v, self.primary[b][a],
            "duplicate banks must mirror primaries"
        );
        v
    }

    /// Write a cell (mirrored into the duplicate when the row lives in an
    /// edge bank).
    fn write(&mut self, row: usize, col: usize, value: i32) {
        let b = self.window.bank_of(row);
        let a = self.addr(row, col);
        self.primary[b][a] = value;
        if b == 0 {
            if let Some(d) = self.dup_first.as_mut() {
                d[a] = value;
            }
        } else if b == self.window.banks - 1 {
            if let Some(d) = self.dup_last.as_mut() {
                d[a] = value;
            }
        }
    }
}

/// Align a pair on the structural datapath. Produces bit-identical results
/// (and identical cycle counts) to [`crate::aligner::align_packed`].
pub fn align_structural(
    cfg: &AccelConfig,
    schedule: &WavefrontSchedule,
    id: u32,
    a: &PackedSeq,
    b: &PackedSeq,
    bt: bool,
) -> AlignerOutcome {
    let n = a.len() as i32;
    let m = b.len() as i32;
    let k_end = m - n;
    let p = cfg.parallel_sections;
    let k_max = cfg.k_max as i32;
    let center = cfg.k_max as usize;
    let rows = cfg.wavefront_rows();

    let m_cols = cfg.m_window_columns() + 1;
    let mut m_store =
        BankedStore::new(BankedWindow::m_window(p, cfg.k_max, cfg.m_window_columns()));
    // I and D windows: one previous column + the frame column.
    let mut i_store = BankedStore::new(BankedWindow::id_window(p, cfg.k_max));
    let mut d_store = BankedStore::new(BankedWindow::id_window(p, cfg.k_max));

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

    // Column assignment rotates per computed step (the frame column moves,
    // not the data): step t writes M column t % m_cols, I/D column t % 2.
    let m_col_of = |step: usize| step % m_cols;
    let id_col_of = |step: usize| step % 2;
    // Validity masking: reads outside a source step's diagonal range return
    // NULL ("the design only processes the valid cells of each column").
    let steps = schedule.steps();
    let step_index_of_score: std::collections::HashMap<u32, usize> = steps
        .iter()
        .enumerate()
        .map(|(t, st)| (st.score, t))
        .collect();

    // --- Score 0 (step 0): initial wavefront, extended. ---
    {
        out.stats.score_steps += 1;
        let r = extend_cell(cfg, a, b, 0, 0);
        out.stats.extends += 1;
        out.stats.bases_compared += r.matches as u64 + 1;
        m_store.write(center, m_col_of(0), r.matches as i32);
        out.extend_cycles += section_run_cycles(&[r.compare_cycles]);
        out.cycles = out.extend_cycles + AccelConfig::SCORE_LOOP_OVERHEAD;
        if k_end == 0 && r.matches as i32 == m {
            out.success = true;
            out.score = 0;
            return out;
        }
    }

    let px = cfg.penalties.x;
    let poe = cfg.penalties.o + cfg.penalties.e;
    let pe = cfg.penalties.e;

    // Masked M read: NULL unless `score` was computed, the row is in its
    // valid range, and the cell's column still holds that step's data.
    let read_m = |store: &BankedStore, score: i64, row: isize, cur_step: usize| -> i32 {
        if score < 0 || row < 0 || row as usize >= rows {
            return OFFSET_NULL;
        }
        let Some(&t) = step_index_of_score.get(&(score as u32)) else {
            return OFFSET_NULL;
        };
        if cur_step - t >= m_cols {
            return OFFSET_NULL; // column since overwritten (never happens for real sources)
        }
        let depth = steps[t].depth as isize;
        let k = row - center as isize;
        if k < -depth || k > depth {
            return OFFSET_NULL;
        }
        store.read(row as usize, t % m_cols)
    };
    let read_id = |store: &BankedStore, score: i64, row: isize, cur_step: usize| -> i32 {
        if score < 0 || row < 0 || row as usize >= rows {
            return OFFSET_NULL;
        }
        let Some(&t) = step_index_of_score.get(&(score as u32)) else {
            return OFFSET_NULL;
        };
        if cur_step - t >= 2 {
            return OFFSET_NULL;
        }
        let depth = steps[t].depth as isize;
        let k = row - center as isize;
        if k < -depth || k > depth {
            return OFFSET_NULL;
        }
        store.read(row as usize, t % 2)
    };

    for (t, step) in steps.iter().enumerate().skip(1) {
        let s = step.score as i64;
        let depth = step.depth as i32;
        out.stats.score_steps += 1;
        let mcol = m_col_of(t);
        let idcol = id_col_of(t);

        let row_lo = (center as i32 - depth) as usize;
        let row_hi = (center as i32 + depth) as usize;
        let first_group = row_lo / p;
        let last_group = row_hi / p;
        let batches = last_group - first_group + 1;
        out.stats.batches += batches as u64;
        out.stats.cells += (row_hi - row_lo + 1) as u64;
        out.compute_cycles += batches as Cycle * cfg.compute_batch_cycles;

        // Clear the frame column over the valid range before writing (the
        // hardware initializes columns to negative values).
        for row in row_lo..=row_hi {
            m_store.write(row, mcol, OFFSET_NULL);
            i_store.write(row, idcol, OFFSET_NULL);
            d_store.write(row, idcol, OFFSET_NULL);
        }

        // Batches start at P-aligned row groups (so the Fig. 6 duplicate
        // trick covers the gap reads — asserted below).
        for group in first_group..=last_group {
            let gstart = group * p;
            // Plan the three parallel read patterns and assert they are
            // conflict-free in the banked layout.
            let open_plan = m_store
                .window
                .plan_parallel_reads(gstart as isize - 1, p + 2)
                .expect("gap-open batch must be servable with duplicated edge banks");
            let sub_plan = m_store
                .window
                .plan_parallel_reads(gstart as isize, p)
                .expect("substitution batch must be conflict-free");
            let i_plan = i_store
                .window
                .plan_parallel_reads(gstart as isize - 1, p)
                .expect("I batch must be conflict-free");
            let d_plan = d_store
                .window
                .plan_parallel_reads(gstart as isize + 1, p)
                .expect("D batch must be conflict-free");
            debug_assert!(open_plan.len() <= p + 2 && sub_plan.len() <= p);
            debug_assert!(i_plan.len() <= p && d_plan.len() <= p);
            // Exercise the duplicate read path for the edge lanes.
            for pa in &open_plan {
                match pa.bank {
                    crate::wavefront_ram::BankId::DupFirst
                    | crate::wavefront_ram::BankId::DupLast => {
                        let _ = m_store.read_dup(pa.row, 0);
                    }
                    crate::wavefront_ram::BankId::Primary(_) => {}
                }
            }

            // The batch's Eq. 3 sources as halo rows over rows
            // `gstart - 1 ..= gstart + P` (lane `l` is row `gstart + l`).
            let halo = |read: &dyn Fn(isize) -> i32| -> Vec<i32> {
                (0..p as isize + 2)
                    .map(|l| read(gstart as isize + l - 1))
                    .collect()
            };
            let sub = halo(&|r| read_m(&m_store, s - px as i64, r, t));
            let open = halo(&|r| read_m(&m_store, s - poe as i64, r, t));
            let iext = halo(&|r| read_id(&i_store, s - pe as i64, r, t));
            let dext = halo(&|r| read_id(&d_store, s - pe as i64, r, t));
            let (mut iv, mut dv, mut mv) = (vec![0; p], vec![0; p], vec![0; p]);
            let mut codes = vec![0u8; p];
            compute_row_with_origins_scalar(
                &sub,
                &open,
                &iext,
                &dext,
                gstart as i32 - center as i32,
                n,
                m,
                &mut iv,
                &mut dv,
                &mut mv,
                &mut codes,
            );
            for lane in 0..p {
                let row = gstart + lane;
                if row < row_lo || row > row_hi {
                    // Lanes outside the valid range are masked; they still
                    // occupy their block slot with a null origin.
                    codes[lane] = 0;
                    continue;
                }
                if offset_is_valid(iv[lane]) {
                    i_store.write(row, idcol, iv[lane]);
                }
                if offset_is_valid(dv[lane]) {
                    d_store.write(row, idcol, dv[lane]);
                }
                if offset_is_valid(mv[lane]) {
                    m_store.write(row, mcol, mv[lane]);
                }
            }
            if bt {
                out.bt_blocks.extend_from_slice(&pack_origin_codes(&codes));
            }
        }

        // Extend phase over the frame column.
        let mut section_cycles: Vec<Vec<Cycle>> = vec![Vec::new(); p];
        for row in row_lo..=row_hi {
            let k = row as i32 - center as i32;
            let off = m_store.read(row, mcol);
            if !offset_is_valid(off) {
                continue;
            }
            let r = extend_cell(cfg, a, b, k, off);
            out.stats.extends += 1;
            let i0 = (off - k) as usize + r.matches;
            let j0 = off as usize + r.matches;
            let stopped_inside = (i0 as i32) < n && (j0 as i32) < m;
            out.stats.bases_compared += r.matches as u64 + stopped_inside as u64;
            if r.matches > 0 {
                m_store.write(row, mcol, off + r.matches as i32);
            }
            // Sections stripe by row % P over the *range*, matching the
            // behavioral model's assignment.
            section_cycles[(row - row_lo) % p].push(r.compare_cycles);
        }
        let extend_phase = section_cycles
            .iter()
            .map(|cells| section_run_cycles(cells))
            .max()
            .unwrap_or(0);
        out.extend_cycles += extend_phase;

        // Termination.
        if k_end.abs() <= depth && k_end.abs() <= k_max {
            let row = (center as i32 + k_end) as usize;
            if m_store.read(row, mcol) == m {
                out.success = true;
                out.score = step.score;
                break;
            }
        }
    }

    out.cycles = out.extend_cycles
        + out.compute_cycles
        + out.stats.score_steps * AccelConfig::SCORE_LOOP_OVERHEAD;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aligner::align_packed;

    fn equivalent(a: &[u8], b: &[u8], cfg: &AccelConfig, bt: bool) {
        let schedule = WavefrontSchedule::for_config(cfg);
        let pa = PackedSeq::from_ascii(a).unwrap();
        let pb = PackedSeq::from_ascii(b).unwrap();
        let behavioral = align_packed(cfg, &schedule, 1, &pa, &pb, bt);
        let structural = align_structural(cfg, &schedule, 1, &pa, &pb, bt);
        assert_eq!(structural.success, behavioral.success);
        assert_eq!(structural.score, behavioral.score);
        assert_eq!(structural.cycles, behavioral.cycles, "cycle-equivalent");
        assert_eq!(structural.extend_cycles, behavioral.extend_cycles);
        assert_eq!(structural.compute_cycles, behavioral.compute_cycles);
        assert_eq!(structural.stats, behavioral.stats);
        assert_eq!(
            structural.bt_blocks, behavioral.bt_blocks,
            "origin streams equal"
        );
    }

    /// A small config keeps the banked stores cheap in tests.
    fn small_cfg() -> AccelConfig {
        let mut c = AccelConfig::wfasic_chip();
        c.k_max = 64;
        c.parallel_sections = 8;
        c
    }

    #[test]
    fn lec_identical_sequences() {
        equivalent(b"ACGTACGTACGT", b"ACGTACGTACGT", &small_cfg(), true);
    }

    #[test]
    fn lec_simple_edits() {
        let c = small_cfg();
        equivalent(b"GATTACA", b"GACTACA", &c, true);
        equivalent(b"GATTACA", b"GATTTACA", &c, true);
        equivalent(b"AAAA", b"AAAATTTT", &c, true);
        equivalent(b"ACGT", b"TGCA", &c, false);
    }

    #[test]
    fn lec_longer_noisy_pair() {
        let a: Vec<u8> = (0..300).map(|i| b"ACGT"[(i * 3 + 1) % 4]).collect();
        let mut b = a.clone();
        b[40] = b'A';
        b.insert(100, b'T');
        b.remove(200);
        b[250] = b'G';
        equivalent(&a, &b, &small_cfg(), true);
    }

    #[test]
    fn lec_chip_geometry() {
        // Full 64-section geometry (smaller k_max to keep the store small).
        let mut c = AccelConfig::wfasic_chip();
        c.k_max = 128;
        let a: Vec<u8> = (0..200).map(|i| b"ACGT"[(i * 7 + 2) % 4]).collect();
        let mut b = a.clone();
        for idx in (11..190).step_by(23) {
            b[idx] = if b[idx] == b'C' { b'G' } else { b'C' };
        }
        equivalent(&a, &b, &c, true);
    }

    #[test]
    fn lec_failure_envelope() {
        let mut c = small_cfg();
        c.k_max = 4;
        equivalent(&[b'A'; 30], &[b'T'; 30], &c, false);
    }

    #[test]
    fn lec_empty_inputs() {
        let c = small_cfg();
        equivalent(b"", b"", &c, true);
        equivalent(b"", b"ACGT", &c, true);
        equivalent(b"ACGT", b"", &c, true);
    }
}
