//! Input_Seq RAM model (paper §4.2/§4.3).
//!
//! Each Aligner replicates both sequences into one Input_Seq RAM pair per
//! parallel section so the Extend sub-modules can read in parallel. Each RAM
//! is 4 bytes wide: address 0 holds the alignment ID, address 1 the sequence
//! length, and addresses 2+ hold the bases packed at 2 bits each (16 bases
//! per word).

use wfa_core::bitpack::{encode_base, PackedSeq};

/// One Input_Seq RAM image (the content every replica holds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputSeqRam {
    words: Vec<u32>,
}

impl InputSeqRam {
    /// Build the RAM image for a sequence. Returns `None` if the sequence
    /// contains a byte outside uppercase ACGT (the Extractor flags the read
    /// unsupported instead of storing it).
    pub fn load(id: u32, seq: &[u8], capacity_words: usize) -> Option<InputSeqRam> {
        let base_words = seq.len().div_ceil(16);
        assert!(
            2 + base_words <= capacity_words,
            "sequence does not fit the Input_Seq RAM"
        );
        let mut words = vec![0u32; 2 + base_words];
        words[0] = id;
        words[1] = seq.len() as u32;
        for (i, &b) in seq.iter().enumerate() {
            let code = encode_base(b)? as u32;
            words[2 + i / 16] |= code << (2 * (i % 16));
        }
        Some(InputSeqRam { words })
    }

    /// Alignment ID (address 0).
    pub fn id(&self) -> u32 {
        self.words[0]
    }

    /// Sequence length (address 1).
    pub fn len(&self) -> usize {
        self.words[1] as usize
    }

    /// True if the stored sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Raw 4-byte word at `addr` (what an Extend sub-module reads).
    pub fn word(&self, addr: usize) -> u32 {
        self.words.get(addr).copied().unwrap_or(0)
    }

    /// View the bases as a [`PackedSeq`] (same 2-bit little-endian layout;
    /// two RAM words make one packed 64-bit word).
    pub fn to_packed(&self) -> PackedSeq {
        let ascii: Vec<u8> = (0..self.len()).map(|i| self.base_ascii(i)).collect();
        PackedSeq::from_ascii(&ascii).expect("RAM contents are canonical by construction")
    }

    /// ASCII base at position `i`.
    pub fn base_ascii(&self, i: usize) -> u8 {
        debug_assert!(i < self.len());
        let w = self.words[2 + i / 16];
        wfa_core::bitpack::decode_base(((w >> (2 * (i % 16))) & 3) as u8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_layout_matches_paper() {
        // "Alignment ID is stored in address 0, length in address 1, and
        // sequence bases from address 2 onward", 16 bases per 4-byte word.
        let ram = InputSeqRam::load(42, b"ACGTACGTACGTACGTA", 627).unwrap();
        assert_eq!(ram.id(), 42);
        assert_eq!(ram.len(), 17);
        assert_eq!(ram.words.len(), 2 + 2);
        // First word: ACGT repeated = codes 0,1,2,3 -> 0b11100100 per 4.
        assert_eq!(ram.word(2) & 0xFF, 0b11100100);
        assert_eq!(ram.word(3) & 3, 0, "17th base 'A'");
    }

    #[test]
    fn roundtrip_to_packed() {
        let seq = b"GATTACAGATTACAGATTACA";
        let ram = InputSeqRam::load(1, seq, 627).unwrap();
        assert_eq!(ram.to_packed().to_ascii(), seq);
    }

    #[test]
    fn rejects_n_bases() {
        assert!(InputSeqRam::load(0, b"ACGNACGT", 627).is_none());
    }

    #[test]
    fn empty_sequence() {
        let ram = InputSeqRam::load(3, b"", 627).unwrap();
        assert_eq!(ram.len(), 0);
        assert!(ram.is_empty());
        assert_eq!(ram.to_packed().len(), 0);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn capacity_enforced() {
        InputSeqRam::load(0, &[b'A'; 100], 4);
    }
}
