//! The Extractor module (paper §4.2).
//!
//! Reads 16 bytes of input per cycle from the Input FIFO, decodes the
//! per-pair record (ID, lengths, bases), compacts bases from one byte to two
//! bits, broadcasts the packed words into an idle Aligner's Input_Seq RAMs,
//! and detects the two kinds of unsupported reads: longer than MAX_READ_LEN
//! and containing 'N' bases.
//!
//! Each Aligner replicates both sequences into one Input_Seq RAM pair per
//! parallel section (§4.2/§4.3) so the Extend sub-modules read in parallel.
//! A RAM is 4 bytes wide: address 0 holds the alignment ID, address 1 the
//! sequence length, and addresses 2+ the bases at 2 bits each, 16 per word,
//! little-endian — [`AccelConfig::input_ram_words`] deep, which the area
//! model sizes. The model keeps the ID in [`ExtractedPair`] and each read's
//! length and bases as one [`PackedSeq`], the same 2-bit little-endian
//! layout with two RAM words to a packed 64-bit word.

use crate::config::AccelConfig;
use wfa_core::bitpack::PackedSeq;
use wfasic_seqio::memimage::{pair_record_bytes, HEADER_SECTIONS, SECTION};
use wfasic_soc::clock::Cycle;

/// A pair decoded and packed as the Input_Seq RAMs hold it, or flagged
/// unsupported.
#[derive(Debug, Clone)]
pub struct ExtractedPair {
    /// Alignment ID from the record.
    pub id: u32,
    /// The two reads' packed bases, or `None` for unsupported reads ("the
    /// Aligner does not process the alignment and sets the Success flag ...
    /// to zero").
    pub seqs: Option<(PackedSeq, PackedSeq)>,
    /// Why the pair was rejected, if it was.
    pub reject: Option<RejectReason>,
    /// Extractor decode cycles (16 input bytes per cycle).
    pub decode_cycles: Cycle,
}

/// Reasons the Extractor rejects a pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// A recorded length exceeds the programmed MAX_READ_LEN.
    OverMaxReadLen { len: usize, max: usize },
    /// A recorded length exceeds the design's supported maximum.
    OverSupportedLen { len: usize, max: usize },
    /// The bases contain an 'N' (or any byte outside uppercase ACGT,
    /// lowercase bases included).
    UnknownBase,
    /// The record is not `pair_record_bytes(max_read_len)` long (a truncated
    /// or torn stream — only reachable with injected faults or a broken DMA).
    Malformed { len: usize, expected: usize },
}

/// Decode one pair record from raw input bytes.
///
/// `record` should be exactly `pair_record_bytes(max_read_len)` long; a
/// record of any other size is rejected as [`RejectReason::Malformed`]
/// rather than crashing, matching the hardware's broken-data behavior.
pub fn extract_pair(cfg: &AccelConfig, record: &[u8], max_read_len: usize) -> ExtractedPair {
    let expected = pair_record_bytes(max_read_len);
    let decode_cycles = (record.len() / SECTION).max(1) as Cycle;
    if record.len() != expected {
        return ExtractedPair {
            id: 0,
            seqs: None,
            reject: Some(RejectReason::Malformed {
                len: record.len(),
                expected,
            }),
            decode_cycles,
        };
    }

    let id = u32::from_le_bytes(record[0..4].try_into().unwrap());
    let len_a = u32::from_le_bytes(record[SECTION..SECTION + 4].try_into().unwrap()) as usize;
    let len_b =
        u32::from_le_bytes(record[2 * SECTION..2 * SECTION + 4].try_into().unwrap()) as usize;

    let reject_len = |len: usize| -> Option<RejectReason> {
        if len > cfg.max_supported_len {
            Some(RejectReason::OverSupportedLen {
                len,
                max: cfg.max_supported_len,
            })
        } else if len > max_read_len {
            Some(RejectReason::OverMaxReadLen {
                len,
                max: max_read_len,
            })
        } else {
            None
        }
    };
    if let Some(reject) = reject_len(len_a).or_else(|| reject_len(len_b)) {
        return ExtractedPair {
            id,
            seqs: None,
            reject: Some(reject),
            decode_cycles,
        };
    }

    let a_off = HEADER_SECTIONS * SECTION;
    let a_bytes = &record[a_off..a_off + len_a];
    let b_off = a_off + max_read_len;
    let b_bytes = &record[b_off..b_off + len_b];

    // Any byte outside uppercase ACGT (lowercase included) rejects the read.
    match (
        PackedSeq::from_ascii(a_bytes),
        PackedSeq::from_ascii(b_bytes),
    ) {
        (Some(a), Some(b)) => ExtractedPair {
            id,
            seqs: Some((a, b)),
            reject: None,
            decode_cycles,
        },
        _ => ExtractedPair {
            id,
            seqs: None,
            reject: Some(RejectReason::UnknownBase),
            decode_cycles,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfasic_seqio::generate::Pair;
    use wfasic_seqio::memimage::InputImage;

    fn cfg() -> AccelConfig {
        AccelConfig::wfasic_chip()
    }

    fn record_for(pair: &Pair, max: usize) -> Vec<u8> {
        InputImage::encode_raw(std::slice::from_ref(pair), max).bytes
    }

    #[test]
    fn extracts_good_pair() {
        let pair = Pair::new(99, b"GATTACAGATTACA".to_vec(), b"GATCACAGATTACA".to_vec());
        let rec = record_for(&pair, 16);
        let ex = extract_pair(&cfg(), &rec, 16);
        assert_eq!(ex.id, 99);
        assert!(ex.reject.is_none());
        let (a, b) = ex.seqs.unwrap();
        assert_eq!(a.to_ascii(), pair.a.to_bytes());
        assert_eq!(b.to_ascii(), pair.b.to_bytes());
        // 3 header sections + 2 sequence sections of 16 bytes each.
        assert_eq!(ex.decode_cycles, 5);
    }

    #[test]
    fn rejects_over_max_read_len() {
        let pair = Pair::new(1, vec![b'A'; 20], b"ACGT".to_vec());
        let rec = record_for(&pair, 16);
        let ex = extract_pair(&cfg(), &rec, 16);
        assert!(matches!(
            ex.reject,
            Some(RejectReason::OverMaxReadLen { len: 20, max: 16 })
        ));
        assert!(ex.seqs.is_none());
    }

    #[test]
    fn rejects_over_supported_len() {
        // MAX_READ_LEN programmed beyond the design's 10K support.
        let pair = Pair::new(1, vec![b'A'; 10_016], b"ACGT".to_vec());
        let rec = record_for(&pair, 10_016);
        let ex = extract_pair(&cfg(), &rec, 10_016);
        assert!(matches!(
            ex.reject,
            Some(RejectReason::OverSupportedLen { .. })
        ));
    }

    #[test]
    fn rejects_n_bases() {
        for a in [&b"ACGNACGT"[..], b"acgtacgt"] {
            let pair = Pair::new(7, a.to_vec(), b"ACGTACGT".to_vec());
            let rec = record_for(&pair, 16);
            let ex = extract_pair(&cfg(), &rec, 16);
            assert_eq!(ex.reject, Some(RejectReason::UnknownBase), "{a:?}");
            assert_eq!(ex.id, 7, "id still reported for the Success=0 result");
        }
    }

    #[test]
    fn rejects_malformed_record_length() {
        let ex = extract_pair(&cfg(), &[0u8; 7], 16);
        assert!(matches!(
            ex.reject,
            Some(RejectReason::Malformed {
                len: 7,
                expected: 80
            })
        ));
        assert!(ex.seqs.is_none());
        let ex = extract_pair(&cfg(), &[], 16);
        assert!(matches!(ex.reject, Some(RejectReason::Malformed { .. })));
    }

    #[test]
    fn dummy_padding_ignored() {
        // Padding bytes after the true length are zeros (not valid bases) —
        // the Extractor must ignore them because it knows the lengths.
        let pair = Pair::new(2, b"ACG".to_vec(), b"ACGT".to_vec());
        let rec = record_for(&pair, 32);
        let ex = extract_pair(&cfg(), &rec, 32);
        assert!(ex.reject.is_none());
        let (a, _) = ex.seqs.unwrap();
        assert_eq!(a.len(), 3);
    }
}
