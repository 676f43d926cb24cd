//! Reusable wavefront storage: a freelist of retired offset buffers.
//!
//! WFA allocates three offset vectors (M/I/D) per score step; at ~1 score
//! per error the per-pair allocation count is small, but a sweep over
//! thousands of pairs turns it into an allocation storm that dominates host
//! wall-clock. [`WavefrontArena`] keeps every retired offset buffer on a
//! freelist and hands it back out (cleared and NULL-filled) for the next
//! wavefront. The freelist is last in, first out and does not match sizes:
//! a recycled buffer shorter than the requested wavefront grows, which
//! calls the allocator. A buffer keeps the largest capacity it has held,
//! so a workload that repeats its wavefront widths stops allocating once
//! each buffer has grown to the width it is handed next — not after the
//! first pass. `pool_reaches_high_water_then_stops_allocating` pins this:
//! over rounds of 8 sets of widths 1..15, the second round still
//! reallocates 8 of the 16 pooled buffers, and from the third round on
//! every round reuses the same 16.
//!
//! The arena is purely a host-side optimization: a recycled wavefront is
//! bit-identical to a freshly allocated one (same `lo..=hi` range, every
//! cell [`OFFSET_NULL`]), and [`WavefrontSet::memory_bytes`] is length-based
//! rather than capacity-based, so the simulated cycle counts and the
//! `peak_memory_bytes` statistic that feeds the CPU cycle model are
//! unchanged. The `ci-check` gate and the oracle matrix enforce that.

use crate::origins::OriginRows;
use crate::wavefront::{Wavefront, WavefrontSet, OFFSET_NULL};

/// A freelist pool of wavefront offset buffers (plus the per-score
/// `fronts` spines and origin stores of the engine's machines).
#[derive(Debug, Default)]
pub struct WavefrontArena {
    free: Vec<Vec<i32>>,
    rows: Vec<Vec<i32>>,
    spines: Vec<Vec<Option<WavefrontSet>>>,
    origins: Vec<OriginRows>,
}

impl WavefrontArena {
    /// An empty arena. It grows with the workload; the module docs say when
    /// it stops calling the allocator.
    pub fn new() -> Self {
        Self::default()
    }

    /// A wavefront covering `lo..=hi` with every cell NULL — identical to
    /// [`Wavefront::null_range`], but backed by a recycled buffer when one
    /// is available.
    pub fn wavefront(&mut self, lo: i32, hi: i32) -> Wavefront {
        assert!(lo <= hi, "wavefront range must be non-empty ({lo}..={hi})");
        let len = (hi - lo + 1) as usize;
        let offsets = match self.free.pop() {
            Some(mut buf) => {
                buf.clear();
                buf.resize(len, OFFSET_NULL);
                buf
            }
            None => vec![OFFSET_NULL; len],
        };
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
                // resize only fills growth; surviving slots keep stale data.
                buf.resize(len, OFFSET_NULL);
                buf.truncate(len);
                buf
            }
            None => vec![OFFSET_NULL; len],
        };
        Wavefront { lo, hi, offsets }
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
        self.free.push(w.offsets);
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
    /// source vectors (callers fill it), from its own freelist: a row
    /// never takes a wavefront buffer.
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

    /// An empty origin store (recycled when available).
    pub(crate) fn take_origins(&mut self) -> OriginRows {
        self.origins.pop().unwrap_or_default()
    }

    /// Return an origin store to the pool, emptied.
    pub(crate) fn recycle_origins(&mut self, mut rows: OriginRows) {
        rows.clear();
        self.origins.push(rows);
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
        let buffer = w.offsets.as_ptr();
        arena.recycle(w);
        let recycled = arena.wavefront(-2, 2);
        assert_eq!(recycled, Wavefront::null_range(-2, 2));
        assert_eq!(recycled.offsets.as_ptr(), buffer, "served from the pool");
    }

    #[test]
    fn initial_matches_wavefront_initial() {
        let mut arena = WavefrontArena::new();
        assert_eq!(arena.initial(), Wavefront::initial());
    }

    /// Round 0 allocates 16 buffers. The pool hands them out last in,
    /// first out, so in round 1 the small ones serve the large wavefronts
    /// and grow once. From round 2 on, every buffer handed out is one of
    /// the 16 that round 1 left in the pool.
    #[test]
    fn pool_reaches_high_water_then_stops_allocating() {
        let mut arena = WavefrontArena::new();
        let mut pooled = Vec::new();
        for round in 0..6 {
            let sets: Vec<WavefrontSet> = (0..8)
                .map(|i| WavefrontSet {
                    m: arena.wavefront(-i, i),
                    i: Some(arena.wavefront(-i, i)),
                    d: None,
                })
                .collect();
            let mut buffers: Vec<*const i32> = sets
                .iter()
                .flat_map(|s| [&s.m, s.i.as_ref().unwrap()])
                .map(|w| w.offsets.as_ptr())
                .collect();
            buffers.sort();
            buffers.dedup();
            assert_eq!(buffers.len(), 16, "round {round}");
            if round >= 2 {
                assert_eq!(buffers, pooled, "round {round} allocated");
            }
            pooled = buffers;
            for s in sets {
                arena.recycle_set(s);
            }
        }
        assert_eq!(arena.free.len(), 16);
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
