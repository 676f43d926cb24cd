//! Wavefront vector storage (the data structure behind paper Eq. 3).
//!
//! A wavefront for score `s` is, per component (M/I/D), a vector of *offsets*
//! indexed by diagonal `k`. Following the paper's Eq. 4 geometry:
//!
//! * diagonal `k = j - i` (with `i` indexing `a`, `j` indexing `b`),
//! * the stored offset is `j` — the farthest column reached on that diagonal
//!   with score `s` by an alignment ending in the component's state,
//! * so `i = offset - k`.
//!
//! Only the farthest (maximum) offset per diagonal is kept, which is the key
//! compression that makes WFA `O(n*s)`.

/// Sentinel for "no alignment with this score reaches this diagonal".
///
/// Very negative, but far from `i32::MIN` so that `NULL + 1` and similar
/// arithmetic cannot overflow and still compares below every real offset.
pub const OFFSET_NULL: i32 = i32::MIN / 4;

/// Is this a real offset (not the NULL sentinel)?
#[inline]
pub fn offset_is_valid(off: i32) -> bool {
    off > OFFSET_NULL / 2
}

/// Fill `row` with `w.get(k)` for `k in lo..=hi` (all NULL without a
/// source): the gathered form the batched Eq. 3 kernels consume. Each slot
/// is written once: NULL head, one block copy of the overlap with the
/// source's stored range, NULL tail.
pub fn fill_row(row: &mut Vec<i32>, lo: i32, hi: i32, w: Option<&Wavefront>) {
    row.resize((hi - lo + 1) as usize, OFFSET_NULL);
    match w.filter(|w| w.lo <= hi && lo <= w.hi) {
        Some(w) => {
            let (s, e) = (lo.max(w.lo), hi.min(w.hi));
            let (dst, src, count) = ((s - lo) as usize, (s - w.lo) as usize, (e - s + 1) as usize);
            row[..dst].fill(OFFSET_NULL);
            row[dst..dst + count].copy_from_slice(&w.offsets[src..src + count]);
            row[dst + count..].fill(OFFSET_NULL);
        }
        None => row.fill(OFFSET_NULL),
    }
}

/// One wavefront vector: offsets for diagonals `lo..=hi`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Wavefront {
    /// Lowest diagonal with storage.
    pub lo: i32,
    /// Highest diagonal with storage.
    pub hi: i32,
    /// `offsets[(k - lo) as usize]` is the offset for diagonal `k`.
    pub offsets: Vec<i32>,
}

impl Wavefront {
    /// A wavefront covering `lo..=hi`, all diagonals NULL.
    pub fn null_range(lo: i32, hi: i32) -> Self {
        assert!(lo <= hi, "wavefront range must be non-empty ({lo}..={hi})");
        Wavefront {
            lo,
            hi,
            offsets: vec![OFFSET_NULL; (hi - lo + 1) as usize],
        }
    }

    /// The initial wavefront: `M(0, 0) = 0`.
    pub fn initial() -> Self {
        Wavefront {
            lo: 0,
            hi: 0,
            offsets: vec![0],
        }
    }

    /// Offset at diagonal `k`; NULL outside the stored range.
    #[inline]
    pub fn get(&self, k: i32) -> i32 {
        if k < self.lo || k > self.hi {
            OFFSET_NULL
        } else {
            self.offsets[(k - self.lo) as usize]
        }
    }

    /// Set the offset at diagonal `k` (must be within range).
    #[inline]
    pub fn set(&mut self, k: i32, off: i32) {
        debug_assert!(
            k >= self.lo && k <= self.hi,
            "k={k} out of [{}, {}]",
            self.lo,
            self.hi
        );
        self.offsets[(k - self.lo) as usize] = off;
    }

    /// Number of stored diagonals.
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// Always false: a wavefront stores at least one diagonal.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// True if every diagonal is NULL.
    pub fn is_all_null(&self) -> bool {
        self.offsets.iter().all(|&o| !offset_is_valid(o))
    }
}

/// The M/I/D wavefront triple for one score.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WavefrontSet {
    /// Match/mismatch component (always present when the set exists).
    pub m: Wavefront,
    /// Insertion component (None when no insertion path has this score).
    pub i: Option<Wavefront>,
    /// Deletion component.
    pub d: Option<Wavefront>,
}

impl WavefrontSet {
    /// Estimated heap footprint in bytes (used by the CPU memory model).
    pub fn memory_bytes(&self) -> usize {
        let cell = std::mem::size_of::<i32>();
        let mut total = self.m.len() * cell;
        if let Some(w) = &self.i {
            total += w.len() * cell;
        }
        if let Some(w) = &self.d {
            total += w.len() * cell;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_wavefront() {
        let w = Wavefront::initial();
        assert_eq!(w.get(0), 0);
        assert_eq!(w.get(1), OFFSET_NULL);
        assert_eq!(w.get(-1), OFFSET_NULL);
        assert!(!w.is_all_null());
    }

    #[test]
    fn null_range_and_set() {
        let mut w = Wavefront::null_range(-2, 3);
        assert_eq!(w.len(), 6);
        assert!(w.is_all_null());
        w.set(-2, 5);
        w.set(3, 7);
        assert_eq!(w.get(-2), 5);
        assert_eq!(w.get(3), 7);
        assert_eq!(w.get(0), OFFSET_NULL);
    }

    #[test]
    fn null_arithmetic_is_safe() {
        // The compute step adds 1 to possibly-NULL offsets; the result must
        // still register as invalid and never overflow.
        let bumped = OFFSET_NULL + 1;
        assert!(!offset_is_valid(bumped));
        let maxed = bumped.max(OFFSET_NULL);
        assert!(!offset_is_valid(maxed));
    }

    #[test]
    fn out_of_range_get_is_null() {
        let w = Wavefront::null_range(0, 0);
        assert_eq!(w.get(100), OFFSET_NULL);
        assert_eq!(w.get(-100), OFFSET_NULL);
    }

    #[test]
    fn memory_accounting() {
        let set = WavefrontSet {
            m: Wavefront::null_range(-1, 1),
            i: Some(Wavefront::null_range(0, 1)),
            d: None,
        };
        assert_eq!(set.memory_bytes(), (3 + 2) * 4);
    }
}
