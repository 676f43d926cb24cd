//! The end-to-end sequence representation: 2-bit packed for reads the
//! device can hold, raw bytes for everything the hardware would flag as
//! unsupported.
//!
//! The WFAsic Extractor packs each base into 2 bits the moment a read
//! enters the device (paper §4.2). [`Seq`] does the packing at sequence
//! *construction*: a clean uppercase-ACGT read is stored as a
//! [`PackedSeq`] once, at a quarter of the bytes, and the device path
//! reads that form. The software WFA runs on bytes: its entry
//! ([`crate::wfa::wfa_align_seqs_with_arena`]) decodes a packed pair once,
//! a word at a time, and so does the memory-image encoder.
//!
//! Reads the hardware cannot represent ('N' bases, gap characters,
//! arbitrary bytes from robustness tests) fall back to [`Seq::Raw`] and
//! keep their exact bytes — the byte-oriented WFA still aligns them, so
//! broken data is aligned in software instead of being rejected.
//!
//! Canonical-form invariant: [`Seq::from_bytes`] packs *iff* every byte is
//! uppercase ACGT, so equal byte content built through the constructor
//! always compares equal (`derive(PartialEq)` never has to compare across
//! representations).

use crate::bitpack::{encode_base, PackedSeq};
use std::borrow::Cow;

/// A DNA sequence: packed (uppercase ACGT) or raw bytes (anything else).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Seq {
    /// 2-bit packed uppercase ACGT — what the generator produces and the
    /// device model reads.
    Packed(PackedSeq),
    /// Verbatim bytes for sequences outside the 2-bit alphabet.
    Raw(Vec<u8>),
}

impl Seq {
    /// Build the canonical representation: packed when every byte is
    /// uppercase ACGT, the one alphabet [`encode_base`] packs; raw
    /// otherwise, so a lowercase base stays its own symbol.
    pub fn from_bytes(bytes: Vec<u8>) -> Seq {
        match PackedSeq::from_ascii(&bytes) {
            Some(p) => Seq::Packed(p),
            None => Seq::Raw(bytes),
        }
    }

    /// [`Seq::from_bytes`] from a borrowed slice.
    pub fn from_ascii(bytes: &[u8]) -> Seq {
        Seq::from_bytes(bytes.to_vec())
    }

    /// Number of bases.
    pub fn len(&self) -> usize {
        match self {
            Seq::Packed(p) => p.len(),
            Seq::Raw(v) => v.len(),
        }
    }

    /// True if the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The packed form, when every base is uppercase ACGT.
    pub fn as_packed(&self) -> Option<&PackedSeq> {
        match self {
            Seq::Packed(p) => Some(p),
            Seq::Raw(_) => None,
        }
    }

    /// The ASCII bytes: borrowed for raw sequences, decoded (allocating,
    /// a word at a time) for packed ones — the software WFA's input.
    pub fn bytes(&self) -> Cow<'_, [u8]> {
        match self {
            Seq::Packed(p) => Cow::Owned(p.to_ascii()),
            Seq::Raw(v) => Cow::Borrowed(v),
        }
    }

    /// The ASCII bytes as an owned vector (always allocates for packed).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.bytes().into_owned()
    }

    /// Overwrite base `i` with an arbitrary byte. An ACGT byte edits the
    /// packed form in place; anything else demotes the sequence to
    /// [`Seq::Raw`] (this is how robustness tests inject 'N' bases into
    /// generated reads).
    pub fn set_byte(&mut self, i: usize, val: u8) {
        match self {
            Seq::Packed(p) => {
                if let Some(code) = encode_base(val) {
                    p.set_code(i, code);
                } else {
                    let mut v = p.to_ascii();
                    v[i] = val;
                    *self = Seq::Raw(v);
                }
            }
            Seq::Raw(v) => v[i] = val,
        }
    }

    /// Write the first `out.len()` bases as ASCII into `out` (the
    /// memory-image encoder's staging primitive; `out` must not be longer
    /// than the sequence).
    pub fn write_prefix_into(&self, out: &mut [u8]) {
        match self {
            Seq::Raw(v) => out.copy_from_slice(&v[..out.len()]),
            Seq::Packed(p) => p.write_ascii_into(out),
        }
    }
}

impl From<Vec<u8>> for Seq {
    fn from(bytes: Vec<u8>) -> Seq {
        Seq::from_bytes(bytes)
    }
}

impl From<&[u8]> for Seq {
    fn from(bytes: &[u8]) -> Seq {
        Seq::from_ascii(bytes)
    }
}

impl<const N: usize> From<&[u8; N]> for Seq {
    fn from(bytes: &[u8; N]) -> Seq {
        Seq::from_ascii(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_reads_pack() {
        let s = Seq::from_ascii(b"ACGTACGT");
        assert!(matches!(s, Seq::Packed(_)));
        assert_eq!(s.len(), 8);
        assert_eq!(&s.bytes()[..], b"ACGTACGT");
    }

    #[test]
    fn non_acgt_and_lowercase_stay_raw() {
        for bytes in [&b"ACGNT"[..], b"acgt", b"AC-T", b"\x00\xFF"] {
            let s = Seq::from_ascii(bytes);
            assert!(matches!(s, Seq::Raw(_)), "{bytes:?}");
            assert_eq!(&s.bytes()[..], bytes, "raw bytes are verbatim");
        }
    }

    #[test]
    fn empty_packs() {
        let s = Seq::from_bytes(Vec::new());
        assert!(matches!(s, Seq::Packed(_)));
        assert!(s.is_empty());
    }

    #[test]
    fn set_byte_edits_packed_in_place() {
        let mut s = Seq::from_ascii(b"AAAA");
        s.set_byte(2, b'G');
        assert!(matches!(s, Seq::Packed(_)));
        assert_eq!(&s.bytes()[..], b"AAGA");
    }

    #[test]
    fn set_byte_demotes_on_unknown_base() {
        let mut s = Seq::from_ascii(b"ACGT");
        s.set_byte(1, b'N');
        assert!(matches!(s, Seq::Raw(_)));
        assert_eq!(&s.bytes()[..], b"ANGT");
        // Lowercase also demotes: packing would silently uppercase it.
        let mut t = Seq::from_ascii(b"ACGT");
        t.set_byte(0, b'a');
        assert!(matches!(t, Seq::Raw(_)));
        assert_eq!(&t.bytes()[..], b"aCGT");
    }

    #[test]
    fn prefix_staging_matches_bytes() {
        for src in [&b"ACGTACGTACGT"[..], b"ACGNACGTACGT"] {
            let s = Seq::from_ascii(src);
            let mut out = vec![0u8; 7];
            s.write_prefix_into(&mut out);
            assert_eq!(out, src[..7]);
        }
    }

    #[test]
    fn canonical_equality() {
        assert_eq!(Seq::from_ascii(b"ACGT"), Seq::from_ascii(b"ACGT"));
        assert_ne!(Seq::from_ascii(b"ACGT"), Seq::from_ascii(b"ACGA"));
        assert_eq!(Seq::from(b"NNNN"), Seq::from(b"NNNN"));
    }
}
