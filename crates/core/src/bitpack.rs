//! 2-bit packed DNA sequences and machine-word `extend()`.
//!
//! The WFAsic Extractor packs each base into 2 bits so 16 bases fit in a
//! 4-byte Input_Seq RAM word, and the Extend sub-module compares 16 bases per
//! cycle (paper §4.2/§4.3.2). This module provides the same packing and a
//! word-at-a-time comparison primitive:
//!
//! * it is the functional reference for the hardware Extend model, and
//! * it doubles as the "CPU vector code" analogue (the paper's RVV kernel),
//!   since a 64-bit XOR + trailing-zero count compares 32 bases at once.

/// 2-bit encoding of one base: A=0, C=1, G=2, T=3. Only uppercase ACGT
/// packs: the software engines compare raw bytes, so a lowercase base is a
/// different symbol to them, and the hardware must not fold it into its
/// uppercase twin.
#[inline]
pub fn encode_base(b: u8) -> Option<u8> {
    match b {
        b'A' => Some(0),
        b'C' => Some(1),
        b'G' => Some(2),
        b'T' => Some(3),
        _ => None,
    }
}

/// Decode a 2-bit code back to an uppercase ASCII base.
#[inline]
pub fn decode_base(code: u8) -> u8 {
    match code & 3 {
        0 => b'A',
        1 => b'C',
        2 => b'G',
        _ => b'T',
    }
}

/// Bases per 64-bit word.
pub const BASES_PER_WORD: usize = 32;

/// A DNA sequence packed at 2 bits per base, little-endian within each word
/// (base `i` occupies bits `2*(i%32) ..= 2*(i%32)+1` of word `i/32`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedSeq {
    len: usize,
    words: Vec<u64>,
}

impl PackedSeq {
    /// Pack an ASCII sequence. Returns `None` if any base is not ACGT
    /// (the hardware flags such reads as unsupported — 'N' bases, §4.2).
    pub fn from_ascii(seq: &[u8]) -> Option<Self> {
        let mut words = vec![0u64; seq.len().div_ceil(BASES_PER_WORD)];
        for (i, &b) in seq.iter().enumerate() {
            let code = encode_base(b)? as u64;
            words[i / BASES_PER_WORD] |= code << (2 * (i % BASES_PER_WORD));
        }
        Some(PackedSeq {
            len: seq.len(),
            words,
        })
    }

    /// Number of bases.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The 2-bit code of base `i`.
    #[inline]
    pub fn get(&self, i: usize) -> u8 {
        debug_assert!(i < self.len);
        ((self.words[i / BASES_PER_WORD] >> (2 * (i % BASES_PER_WORD))) & 3) as u8
    }

    /// Raw packed words.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Decode back to ASCII.
    pub fn to_ascii(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.len];
        self.write_ascii_into(&mut out);
        out
    }

    /// Decode into a caller-provided buffer (alloc-free staging for the
    /// memory-image encoder). `out` must hold exactly `len()` bytes.
    pub fn write_ascii_into(&self, out: &mut [u8]) {
        assert_eq!(out.len(), self.len, "destination must hold len() bytes");
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = decode_base(self.get(i));
        }
    }

    /// Overwrite base `i` with an already-encoded 2-bit code.
    #[inline]
    pub fn set_code(&mut self, i: usize, code: u8) {
        assert!(i < self.len, "set_code index {i} out of range {}", self.len);
        let shift = 2 * (i % BASES_PER_WORD);
        let w = &mut self.words[i / BASES_PER_WORD];
        *w = (*w & !(3u64 << shift)) | (((code & 3) as u64) << shift);
    }

    /// Append one already-encoded 2-bit base code.
    #[inline]
    pub fn push_code(&mut self, code: u8) {
        let i = self.len;
        if i.is_multiple_of(BASES_PER_WORD) {
            self.words.push(0);
        }
        self.words[i / BASES_PER_WORD] |= ((code & 3) as u64) << (2 * (i % BASES_PER_WORD));
        self.len = i + 1;
    }

    /// The packed sub-sequence `range` (a copy; used at debug/replay
    /// boundaries that previously round-tripped through ASCII).
    pub fn slice(&self, range: std::ops::Range<usize>) -> PackedSeq {
        assert!(range.start <= range.end && range.end <= self.len);
        let mut out = PackedSeq {
            len: 0,
            words: Vec::with_capacity((range.end - range.start).div_ceil(BASES_PER_WORD)),
        };
        for i in range {
            out.push_code(self.get(i));
        }
        out
    }

    /// The packed words viewed as little-endian bytes — the load stream for
    /// the x86 SIMD LCP kernels (4 bases per byte; bytes past the last base
    /// are zero padding).
    #[cfg(target_arch = "x86_64")]
    #[inline]
    pub(crate) fn as_raw_bytes(&self) -> &[u8] {
        // SAFETY: u64 has no padding and alignment 8 >= 1; reinterpreting
        // the initialized words as bytes is sound. x86_64 is little-endian,
        // matching the kernel's byte-stream arithmetic.
        unsafe {
            std::slice::from_raw_parts(self.words.as_ptr() as *const u8, self.words.len() * 8)
        }
    }

    /// Read 32 bases starting at base `pos` as one u64, shifting across the
    /// word boundary (the hardware's REG_1/REG_2 concatenate-and-shift,
    /// §4.3.2). Requires `pos < len()`; bases past the end are unspecified
    /// garbage, so callers bound the comparison by length.
    #[inline]
    pub(crate) fn window(&self, pos: usize) -> u64 {
        debug_assert!(pos < self.len, "window past the end");
        let wi = pos / BASES_PER_WORD;
        let shift = 2 * (pos % BASES_PER_WORD);
        // SAFETY: pos < len implies wi indexes an existing word.
        let lo = unsafe { *self.words.get_unchecked(wi) } >> shift;
        let hi = if wi + 1 < self.words.len() {
            self.words[wi + 1]
        } else {
            0
        };
        // `(hi << (63 - shift)) << 1` is `hi << (64 - shift)` without the
        // shift == 0 branch (two in-range shifts totalling 64 yield 0).
        lo | ((hi << (63 - shift)) << 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{lcp_bytes, lcp_packed};

    #[test]
    fn encode_decode_roundtrip() {
        for &b in b"ACGT" {
            assert_eq!(decode_base(encode_base(b).unwrap()), b);
        }
        assert_eq!(encode_base(b'N'), None);
        assert_eq!(encode_base(b'a'), None);
    }

    #[test]
    fn pack_roundtrip() {
        let seq = b"ACGTACGTACGTACGTACGTACGTACGTACGTACG"; // 35 bases, crosses a word
        let p = PackedSeq::from_ascii(seq).unwrap();
        assert_eq!(p.len(), 35);
        assert_eq!(p.to_ascii(), seq);
        assert_eq!(p.words().len(), 2);
    }

    #[test]
    fn rejects_n_bases() {
        assert!(PackedSeq::from_ascii(b"ACGNT").is_none());
    }

    #[test]
    fn packed_extend_equals_naive() {
        let a = b"ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTAAAA";
        let b = b"ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTAAAT";
        let pa = PackedSeq::from_ascii(a).unwrap();
        let pb = PackedSeq::from_ascii(b).unwrap();
        for i in 0..a.len() {
            for j in 0..b.len() {
                assert_eq!(
                    lcp_packed(&pa, &pb, i, j),
                    lcp_bytes(a, b, i, j),
                    "i={i} j={j}"
                );
            }
        }
    }

    #[test]
    fn extend_across_word_boundaries() {
        // 70 identical bases: full-word fast path plus a partial tail.
        let a = vec![b'G'; 70];
        let b = vec![b'G'; 70];
        let pa = PackedSeq::from_ascii(&a).unwrap();
        let pb = PackedSeq::from_ascii(&b).unwrap();
        assert_eq!(lcp_packed(&pa, &pb, 0, 0), 70);
        assert_eq!(lcp_packed(&pa, &pb, 5, 0), 65);
        assert_eq!(lcp_packed(&pa, &pb, 31, 33), 37);
    }

    #[test]
    fn immediate_mismatch() {
        let pa = PackedSeq::from_ascii(b"AAAA").unwrap();
        let pb = PackedSeq::from_ascii(b"TAAA").unwrap();
        assert_eq!(lcp_packed(&pa, &pb, 0, 0), 0);
    }
}
