//! Set-associative cache timing models for the CPU side of the SoC
//! (Sargantana's 16KB L1I / 32KB L1D, the 512KB shared L2, and DRAM —
//! paper §3).
//!
//! Functional contents are not modeled — only hit/miss behavior over
//! addresses, which is what the CPU cycle models need. Replacement is LRU.

use crate::clock::Cycle;

/// One cache level.
#[derive(Debug, Clone)]
pub struct Cache {
    /// Line size in bytes (power of two).
    pub line_bytes: usize,
    /// Number of sets (power of two).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Latency of a hit in this level, in cycles.
    pub hit_latency: Cycle,
    /// tags[set * ways + way] = Some(tag); LRU order in `lru` (oldest first).
    tags: Vec<Option<u64>>,
    lru: Vec<Vec<u8>>,
    /// Hits observed.
    pub hits: u64,
    /// Misses observed.
    pub misses: u64,
}

impl Cache {
    /// Build from total capacity.
    pub fn new(capacity_bytes: usize, ways: usize, line_bytes: usize, hit_latency: Cycle) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let lines = capacity_bytes / line_bytes;
        assert!(
            lines >= ways && lines.is_multiple_of(ways),
            "capacity/ways mismatch"
        );
        let sets = lines / ways;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Cache {
            line_bytes,
            sets,
            ways,
            hit_latency,
            tags: vec![None; sets * ways],
            lru: vec![(0..ways as u8).collect(); sets],
            hits: 0,
            misses: 0,
        }
    }

    /// Sargantana L1 instruction cache: 16KB.
    pub fn sargantana_l1i() -> Self {
        Cache::new(16 << 10, 4, 64, 1)
    }

    /// Sargantana L1 data cache: 32KB (non-blocking; we model latency only).
    fn sargantana_l1d() -> Self {
        Cache::new(32 << 10, 4, 64, 2)
    }

    /// The SoC's 512KB L2.
    fn soc_l2() -> Self {
        Cache::new(512 << 10, 8, 64, 12)
    }

    #[inline]
    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr / self.line_bytes as u64;
        let set = (line % self.sets as u64) as usize;
        let tag = line / self.sets as u64;
        (set, tag)
    }

    /// Access a byte address; returns whether it hit. On miss the line is
    /// filled (victim chosen by LRU).
    pub fn access(&mut self, addr: u64) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        let base = set * self.ways;
        let ways = &mut self.tags[base..base + self.ways];
        if let Some(way) = ways.iter().position(|&t| t == Some(tag)) {
            self.hits += 1;
            // Move to MRU position.
            let order = &mut self.lru[set];
            let pos = order.iter().position(|&w| w as usize == way).unwrap();
            let w = order.remove(pos);
            order.push(w);
            true
        } else {
            self.misses += 1;
            let victim = self.lru[set][0] as usize;
            self.tags[base + victim] = Some(tag);
            let order = &mut self.lru[set];
            let w = order.remove(0);
            order.push(w);
            false
        }
    }

    /// Flush all lines (e.g. between benchmark repetitions).
    #[cfg(test)]
    fn flush(&mut self) {
        self.tags.fill(None);
        for (set, order) in self.lru.iter_mut().enumerate() {
            *order = (0..self.ways as u8).collect();
            let _ = set;
        }
    }

    /// Hit rate over all accesses so far.
    #[cfg(test)]
    fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A two-level data hierarchy with DRAM behind it: returns access latency.
#[derive(Debug, Clone)]
pub struct MemHierarchy {
    /// First-level cache.
    pub l1: Cache,
    /// Second-level cache.
    pub l2: Cache,
    /// Cycles for an access that misses both levels.
    pub dram_latency: Cycle,
    /// Total access latency handed out so far, split by the level that
    /// served the access (`[l1, l2, dram]`) — the CPU-side analogue of the
    /// accelerator's per-stage cycle attribution.
    pub level_cycles: [Cycle; 3],
}

impl MemHierarchy {
    /// Sargantana-like data hierarchy (paper §3): L1D 32KB, L2 512KB,
    /// ~110-cycle DRAM.
    pub fn sargantana_data() -> Self {
        MemHierarchy {
            l1: Cache::sargantana_l1d(),
            l2: Cache::soc_l2(),
            dram_latency: 110,
            level_cycles: [0; 3],
        }
    }

    /// Latency of a data access at `addr`.
    pub fn access(&mut self, addr: u64) -> Cycle {
        let (level, latency) = if self.l1.access(addr) {
            (0, self.l1.hit_latency)
        } else if self.l2.access(addr) {
            (1, self.l1.hit_latency + self.l2.hit_latency)
        } else {
            (
                2,
                self.l1.hit_latency + self.l2.hit_latency + self.dram_latency,
            )
        };
        self.level_cycles[level] += latency;
        latency
    }

    /// All memory-access cycles handed out so far; always equals the sum of
    /// [`Self::level_cycles`] — the hierarchy's own sum-to-total invariant.
    pub fn total_cycles(&self) -> Cycle {
        self.level_cycles.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_access_hits() {
        let mut c = Cache::sargantana_l1d();
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x1004), "same line");
        assert!(!c.access(0x1000 + 64), "next line misses");
        assert_eq!(c.hits, 2);
        assert_eq!(c.misses, 2);
    }

    #[test]
    fn lru_evicts_oldest() {
        // 2 ways, 1 set: third distinct line evicts the first.
        let mut c = Cache::new(128, 2, 64, 1);
        assert_eq!(c.sets, 1);
        c.access(0); // line A
        c.access(64); // line B
        c.access(128); // evicts A
        assert!(!c.access(0), "A was evicted");
        assert!(c.access(128), "C stays (B was evicted by A's refill)");
    }

    #[test]
    fn capacity_working_set_behavior() {
        let mut c = Cache::sargantana_l1d();
        // A working set that fits: second sweep all hits.
        for addr in (0..16 << 10).step_by(64) {
            c.access(addr as u64);
        }
        let misses_before = c.misses;
        for addr in (0..16 << 10).step_by(64) {
            c.access(addr as u64);
        }
        assert_eq!(c.misses, misses_before, "fitting working set re-hits");

        // A working set 4x the capacity: second sweep keeps missing.
        let mut c = Cache::sargantana_l1d();
        for _ in 0..2 {
            for addr in (0..128 << 10).step_by(64) {
                c.access(addr as u64);
            }
        }
        assert!(
            c.hit_rate() < 0.1,
            "thrashing working set, rate={}",
            c.hit_rate()
        );
    }

    #[test]
    fn hierarchy_latencies_stack() {
        let mut h = MemHierarchy::sargantana_data();
        let cold = h.access(0x4_0000);
        assert_eq!(cold, 2 + 12 + 110);
        let warm = h.access(0x4_0000);
        assert_eq!(warm, 2);
        h.l1.flush();
        let l2_hit = h.access(0x4_0000);
        assert_eq!(l2_hit, 2 + 12);
        // Per-level attribution sums exactly to the cycles handed out.
        assert_eq!(h.level_cycles, [2, 14, 124]);
        assert_eq!(h.total_cycles(), cold + warm + l2_hit);
    }

    #[test]
    fn flush_clears_state() {
        let mut c = Cache::sargantana_l1i();
        c.access(0);
        c.flush();
        assert!(!c.access(0));
    }
}
