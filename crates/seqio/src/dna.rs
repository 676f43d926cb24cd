//! DNA alphabet utilities.
//!
//! WFAsic supports the four canonical uppercase bases; reads containing
//! any other byte ('N', lowercase) are flagged unsupported by the Extractor
//! (paper §4.2).

/// The four canonical bases in 2-bit code order.
pub const BASES: [u8; 4] = [b'A', b'C', b'G', b'T'];

/// Is this byte a supported (canonical, uppercase) base?
#[inline]
pub fn is_canonical(b: u8) -> bool {
    matches!(b, b'A' | b'C' | b'G' | b'T')
}

/// Does the sequence contain any unsupported base (e.g. 'N')?
pub fn has_unsupported(seq: &[u8]) -> bool {
    seq.iter().any(|&b| !is_canonical(b))
}

/// Uppercase a base in place-free style.
#[inline]
pub fn to_upper(b: u8) -> u8 {
    b & !0x20
}

/// Complement of a canonical base.
#[inline]
pub fn complement(b: u8) -> u8 {
    match to_upper(b) {
        b'A' => b'T',
        b'T' => b'A',
        b'C' => b'G',
        b'G' => b'C',
        other => other,
    }
}

/// Reverse complement of a sequence (canonical bases only).
pub fn reverse_complement(seq: &[u8]) -> Vec<u8> {
    seq.iter().rev().map(|&b| complement(b)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_detection() {
        assert!(is_canonical(b'A'));
        assert!(is_canonical(b'T'));
        assert!(!is_canonical(b't'));
        assert!(!is_canonical(b'N'));
        assert!(!is_canonical(b'-'));
        assert!(has_unsupported(b"ACGNT"));
        assert!(!has_unsupported(b"ACGT"));
    }

    #[test]
    fn revcomp() {
        assert_eq!(reverse_complement(b"ACGT"), b"ACGT");
        assert_eq!(reverse_complement(b"AACG"), b"CGTT");
    }

    #[test]
    fn complement_is_involution() {
        for &b in &BASES {
            assert_eq!(complement(complement(b)), b);
        }
    }
}
