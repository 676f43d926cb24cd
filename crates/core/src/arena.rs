//! Reusable wavefront storage: a high-water-mark allocation pool.
//!
//! WFA allocates three offset vectors (M/I/D) per score step; at ~1 score
//! per error the per-pair allocation count is small, but a sweep over
//! thousands of pairs turns it into an allocation storm that dominates host
//! wall-clock. [`WavefrontArena`] keeps every retired offset buffer on a
//! freelist and hands it back out (cleared and NULL-filled) for the next
//! wavefront, so a long-running aligner reaches its high-water mark once and
//! then stops calling the allocator entirely.
//!
//! The arena is purely a host-side optimization: a recycled wavefront is
//! bit-identical to a freshly allocated one (same `lo..=hi` range, every
//! cell [`OFFSET_NULL`]), and [`WavefrontSet::memory_bytes`] is length-based
//! rather than capacity-based, so the simulated cycle counts and the
//! `peak_memory_bytes` statistic that feeds the CPU cycle model are
//! unchanged. The `ci-check` gate and the differential sweep enforce that.

use crate::wavefront::{Wavefront, WavefrontSet, OFFSET_NULL};

/// Allocation-reuse counters (observability for tests and the host bench).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Buffers created because the freelist was empty.
    pub fresh_allocs: u64,
    /// Buffers served from the freelist.
    pub reuses: u64,
    /// Most buffers ever parked on the freelist at once (the pool's
    /// high-water mark; the pool never shrinks below it).
    pub peak_pooled: usize,
    /// Bytes of wavefront storage currently checked out of the arena
    /// (heap capacity of outstanding offset buffers).
    pub live_bytes: u64,
    /// High-water mark of [`ArenaStats::live_bytes`] — the measured peak
    /// wavefront memory of everything run through this arena. This is the
    /// arena-side complement of `WfaStats::peak_memory_bytes`: the model
    /// counts retained *length*, this counts handed-out *capacity*.
    pub peak_live_bytes: u64,
}

/// A freelist pool of wavefront offset buffers (plus the `fronts` spines
/// used by the full-history oracle).
#[derive(Debug, Default)]
pub struct WavefrontArena {
    free: Vec<Vec<i32>>,
    rows: Vec<Vec<i32>>,
    spines: Vec<Vec<Option<WavefrontSet>>>,
    stats: ArenaStats,
}

impl WavefrontArena {
    /// An empty arena. It grows to the workload's high-water mark on first
    /// use and serves every later allocation from the pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reuse/allocation counters.
    pub fn stats(&self) -> ArenaStats {
        self.stats
    }

    /// A wavefront covering `lo..=hi` with every cell NULL — identical to
    /// [`Wavefront::null_range`], but backed by a recycled buffer when one
    /// is available.
    pub fn wavefront(&mut self, lo: i32, hi: i32) -> Wavefront {
        assert!(lo <= hi, "wavefront range must be non-empty ({lo}..={hi})");
        let len = (hi - lo + 1) as usize;
        let offsets = match self.free.pop() {
            Some(mut buf) => {
                self.stats.reuses += 1;
                buf.clear();
                buf.resize(len, OFFSET_NULL);
                buf
            }
            None => {
                self.stats.fresh_allocs += 1;
                vec![OFFSET_NULL; len]
            }
        };
        self.check_out(offsets.capacity());
        Wavefront { lo, hi, offsets }
    }

    /// A wavefront covering `lo..=hi` whose cells are *unspecified* (stale
    /// recycled values) — for callers that overwrite every slot before any
    /// read, e.g. the batched compute kernel's unconditional stores. Skips
    /// [`Self::wavefront`]'s NULL fill; the caller's full-range overwrite is
    /// what makes the result bit-identical to a fresh NULL wavefront.
    pub fn wavefront_overwritten(&mut self, lo: i32, hi: i32) -> Wavefront {
        assert!(lo <= hi, "wavefront range must be non-empty ({lo}..={hi})");
        let len = (hi - lo + 1) as usize;
        let offsets = match self.free.pop() {
            Some(mut buf) => {
                self.stats.reuses += 1;
                // resize only fills growth; surviving slots keep stale data.
                buf.resize(len, OFFSET_NULL);
                buf.truncate(len);
                buf
            }
            None => {
                self.stats.fresh_allocs += 1;
                vec![OFFSET_NULL; len]
            }
        };
        self.check_out(offsets.capacity());
        Wavefront { lo, hi, offsets }
    }

    /// Record a buffer leaving the arena. Accounting is capacity-based so
    /// the check-out and check-in amounts always agree: the adaptive
    /// heuristic shrinks a wavefront's *length* while it is out
    /// (`drain`/`truncate`), but never its heap capacity.
    fn check_out(&mut self, capacity_cells: usize) {
        self.stats.live_bytes += (std::mem::size_of::<i32>() * capacity_cells) as u64;
        self.stats.peak_live_bytes = self.stats.peak_live_bytes.max(self.stats.live_bytes);
    }

    /// Record a buffer returning to the arena (the inverse of
    /// [`Self::check_out`]).
    fn check_in(&mut self, capacity_cells: usize) {
        let bytes = (std::mem::size_of::<i32>() * capacity_cells) as u64;
        self.stats.live_bytes = self.stats.live_bytes.saturating_sub(bytes);
    }

    /// The initial wavefront `M(0, 0) = 0` (arena-backed
    /// [`Wavefront::initial`]).
    pub fn initial(&mut self) -> Wavefront {
        let mut w = self.wavefront(0, 0);
        w.set(0, 0);
        w
    }

    /// Return a wavefront's buffer to the pool.
    pub fn recycle(&mut self, w: Wavefront) {
        self.check_in(w.offsets.capacity());
        self.free.push(w.offsets);
        self.stats.peak_pooled = self.stats.peak_pooled.max(self.free.len());
    }

    /// Return all of a set's component buffers to the pool.
    pub fn recycle_set(&mut self, set: WavefrontSet) {
        self.recycle(set.m);
        if let Some(w) = set.i {
            self.recycle(w);
        }
        if let Some(w) = set.d {
            self.recycle(w);
        }
    }

    /// An empty scratch row for the batched compute kernel's gathered
    /// source vectors (callers fill it). Kept on a separate freelist from
    /// the wavefront buffers so [`ArenaStats`] still counts wavefront
    /// traffic only.
    pub fn take_row(&mut self) -> Vec<i32> {
        self.rows.pop().map_or_else(Vec::new, |mut r| {
            r.clear();
            r
        })
    }

    /// Return a scratch row to the pool.
    pub fn recycle_row(&mut self, row: Vec<i32>) {
        self.rows.push(row);
    }

    /// A cleared per-score `fronts` spine (recycled when available).
    pub fn take_spine(&mut self) -> Vec<Option<WavefrontSet>> {
        self.spines.pop().unwrap_or_default()
    }

    /// Recycle a spine and every set still parked in it.
    pub fn recycle_spine(&mut self, mut spine: Vec<Option<WavefrontSet>>) {
        for set in spine.drain(..).flatten() {
            self.recycle_set(set);
        }
        self.spines.push(spine);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycled_wavefront_is_bit_identical_to_fresh() {
        let mut arena = WavefrontArena::new();
        let mut w = arena.wavefront(-3, 5);
        w.set(2, 17);
        w.set(-3, 4);
        arena.recycle(w);
        let recycled = arena.wavefront(-2, 2);
        assert_eq!(recycled, Wavefront::null_range(-2, 2));
        assert_eq!(arena.stats().reuses, 1);
    }

    #[test]
    fn initial_matches_wavefront_initial() {
        let mut arena = WavefrontArena::new();
        assert_eq!(arena.initial(), Wavefront::initial());
    }

    #[test]
    fn pool_reaches_high_water_then_stops_allocating() {
        let mut arena = WavefrontArena::new();
        for round in 0..5 {
            let sets: Vec<WavefrontSet> = (0..8)
                .map(|i| WavefrontSet {
                    m: arena.wavefront(-i, i),
                    i: Some(arena.wavefront(-i, i)),
                    d: None,
                })
                .collect();
            for s in sets {
                arena.recycle_set(s);
            }
            if round == 0 {
                assert_eq!(arena.stats().fresh_allocs, 16);
            }
        }
        // Rounds 1..4 are served entirely from the pool.
        assert_eq!(arena.stats().fresh_allocs, 16);
        assert_eq!(arena.stats().reuses, 64);
        assert_eq!(arena.stats().peak_pooled, 16);
    }

    #[test]
    fn live_bytes_tracks_checkouts_and_returns() {
        let mut arena = WavefrontArena::new();
        let w1 = arena.wavefront(-4, 3); // 8 cells = 32 bytes
        assert_eq!(arena.stats().live_bytes, 32);
        let w2 = arena.wavefront(0, 1); // 2 cells = 8 bytes
        assert_eq!(arena.stats().live_bytes, 40);
        assert_eq!(arena.stats().peak_live_bytes, 40);
        arena.recycle(w2);
        arena.recycle(w1);
        assert_eq!(arena.stats().live_bytes, 0);
        assert_eq!(arena.stats().peak_live_bytes, 40);
        // A recycled buffer keeps its capacity: checking the 8-cell buffer
        // back out as a 2-cell wavefront still accounts 32 bytes.
        let w3 = arena.wavefront(0, 1);
        assert_eq!(arena.stats().live_bytes, 32);
        arena.recycle(w3);
        assert_eq!(arena.stats().live_bytes, 0);
        assert_eq!(arena.stats().peak_live_bytes, 40);
    }

    #[test]
    fn shrunk_wavefront_checks_in_its_full_capacity() {
        let mut arena = WavefrontArena::new();
        let mut w = arena.wavefront(-10, 10);
        w.set(0, 5);
        w.shrink_to_valid();
        assert_eq!(w.len(), 1);
        arena.recycle(w);
        // Capacity-based accounting returns to zero even though the
        // wavefront's length shrank while it was out.
        assert_eq!(arena.stats().live_bytes, 0);
        assert_eq!(arena.stats().peak_live_bytes, 84);
    }

    #[test]
    fn spine_recycling_reclaims_parked_sets() {
        let mut arena = WavefrontArena::new();
        let mut spine = arena.take_spine();
        spine.push(Some(WavefrontSet {
            m: arena.wavefront(0, 3),
            i: None,
            d: Some(arena.wavefront(0, 3)),
        }));
        spine.push(None);
        arena.recycle_spine(spine);
        assert_eq!(arena.free.len(), 2);
        let spine = arena.take_spine();
        assert!(spine.is_empty(), "recycled spine must come back cleared");
    }
}
