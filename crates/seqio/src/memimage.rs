//! Main-memory wire formats of the WFAsic accelerator (paper §4.2, §4.4).
//!
//! Everything the DMA moves is laid out in 16-byte *sections* (the AXI-Full
//! data width). This module defines, for both producers (CPU input images,
//! accelerator result streams) and consumers (Extractor, CPU backtrace):
//!
//! * the **input image**: per pair — ID section, length-of-`a` section,
//!   length-of-`b` section, then `a` bases and `b` bases at 1 byte/base,
//!   each padded with dummy bytes to `MAX_READ_LEN`;
//! * the **NBT result record** (backtrace disabled): 4 bytes per alignment
//!   {Success:1b, score:15b, ID:16b}, four records per 16-byte transaction;
//! * the **BT transaction** (backtrace enabled): 16 bytes = 10 bytes of
//!   backtrace payload + 6 bytes of info {counter:24b, Last:1b, ID:23b};
//! * the **5-bit origin code** each computed wavefront cell contributes to a
//!   40-byte backtrace block (64 cells × 5 bits = 320 bits).

use crate::generate::Pair;

/// AXI-Full data width: one memory section/transaction is 16 bytes.
pub const SECTION: usize = 16;

/// Header sections per pair: ID, len(a), len(b).
pub const HEADER_SECTIONS: usize = 3;

/// Bytes of one pair record in the input image.
pub fn pair_record_bytes(max_read_len: usize) -> usize {
    assert_eq!(
        max_read_len % SECTION,
        0,
        "MAX_READ_LEN must be divisible by 16"
    );
    HEADER_SECTIONS * SECTION + 2 * max_read_len
}

/// Dummy byte used to pad sequences to `MAX_READ_LEN`; the Extractor ignores
/// padding (it knows the true lengths).
pub const DUMMY_BASE: u8 = 0;

/// An encoded input image ready for DMA.
#[derive(Debug, Clone)]
pub struct InputImage {
    /// Raw bytes (a whole number of 16-byte sections).
    pub bytes: Vec<u8>,
    /// The MAX_READ_LEN the image was padded to.
    pub max_read_len: usize,
    /// Number of pair records.
    pub num_pairs: usize,
}

impl InputImage {
    /// Encode pairs with the given `MAX_READ_LEN` (must be a multiple of 16
    /// and at least as long as every sequence; over-length sequences are
    /// *kept* — the Extractor must detect and reject them, paper §4.2, so
    /// tests can build deliberately unsupported inputs by lying here only
    /// through [`InputImage::encode_raw`]).
    pub fn encode(pairs: &[Pair], max_read_len: usize) -> InputImage {
        for p in pairs {
            assert!(
                p.a.len() <= max_read_len && p.b.len() <= max_read_len,
                "sequence longer than MAX_READ_LEN; use encode_raw to build adversarial images"
            );
        }
        Self::encode_raw(pairs, max_read_len)
    }

    /// Encode without the length sanity check (for adversarial/robustness
    /// tests that deliberately exceed MAX_READ_LEN). Bases beyond
    /// `max_read_len` are truncated in the image but the *recorded length*
    /// keeps the true value, which is what trips the hardware check.
    pub fn encode_raw(pairs: &[Pair], max_read_len: usize) -> InputImage {
        let rec = pair_record_bytes(max_read_len);
        let mut bytes = vec![DUMMY_BASE; rec * pairs.len()];
        for (n, p) in pairs.iter().enumerate() {
            let base = n * rec;
            bytes[base..base + 4].copy_from_slice(&p.id.to_le_bytes());
            bytes[base + SECTION..base + SECTION + 4]
                .copy_from_slice(&(p.a.len() as u32).to_le_bytes());
            bytes[base + 2 * SECTION..base + 2 * SECTION + 4]
                .copy_from_slice(&(p.b.len() as u32).to_le_bytes());
            // The wire format stays ASCII at 1 byte/base (§4.2): packed
            // sequences decode straight into the image buffer, raw ones
            // memcpy — no intermediate allocation either way.
            let a_off = base + HEADER_SECTIONS * SECTION;
            let a_n = p.a.len().min(max_read_len);
            p.a.write_prefix_into(&mut bytes[a_off..a_off + a_n]);
            let b_off = a_off + max_read_len;
            let b_n = p.b.len().min(max_read_len);
            p.b.write_prefix_into(&mut bytes[b_off..b_off + b_n]);
        }
        InputImage {
            bytes,
            max_read_len,
            num_pairs: pairs.len(),
        }
    }

    /// Decode pair `n` back out of the image (test helper; returns the
    /// recorded id/lengths and the stored base bytes, truncated to the image).
    pub fn decode(&self, n: usize) -> (u32, Vec<u8>, Vec<u8>) {
        let rec = pair_record_bytes(self.max_read_len);
        let base = n * rec;
        let id = u32::from_le_bytes(self.bytes[base..base + 4].try_into().unwrap());
        let len_a = u32::from_le_bytes(
            self.bytes[base + SECTION..base + SECTION + 4]
                .try_into()
                .unwrap(),
        ) as usize;
        let len_b = u32::from_le_bytes(
            self.bytes[base + 2 * SECTION..base + 2 * SECTION + 4]
                .try_into()
                .unwrap(),
        ) as usize;
        let a_off = base + HEADER_SECTIONS * SECTION;
        let a = self.bytes[a_off..a_off + len_a.min(self.max_read_len)].to_vec();
        let b_off = a_off + self.max_read_len;
        let b = self.bytes[b_off..b_off + len_b.min(self.max_read_len)].to_vec();
        (id, a, b)
    }
}

// ---------------------------------------------------------------------------
// NBT result records (backtrace disabled)
// ---------------------------------------------------------------------------

/// A parsed no-backtrace result record (paper §4.4: "the Success flag in one
/// bit, the alignment score in 15 bits, and the alignment ID in two bytes").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NbtRecord {
    /// Did the alignment complete within the hardware limits?
    pub success: bool,
    /// Alignment score (15 bits; the hardware Score_max of 8000 fits).
    pub score: u16,
    /// Low 16 bits of the alignment ID.
    pub id: u16,
}

/// Number of NBT records merged into one 16-byte transaction.
pub const NBT_RECORDS_PER_TXN: usize = 4;

impl NbtRecord {
    /// Pack into the 4-byte wire format.
    pub fn encode(&self) -> [u8; 4] {
        assert!(self.score < (1 << 15), "score exceeds the 15-bit field");
        let word = ((self.success as u32) << 31) | ((self.score as u32) << 16) | self.id as u32;
        word.to_le_bytes()
    }

    /// Unpack from the 4-byte wire format.
    pub fn decode(bytes: [u8; 4]) -> NbtRecord {
        let word = u32::from_le_bytes(bytes);
        NbtRecord {
            success: (word >> 31) & 1 == 1,
            score: ((word >> 16) & 0x7FFF) as u16,
            id: (word & 0xFFFF) as u16,
        }
    }
}

// ---------------------------------------------------------------------------
// BT transactions (backtrace enabled)
// ---------------------------------------------------------------------------

/// Bytes of backtrace payload carried per BT transaction.
pub const BT_PAYLOAD_BYTES: usize = 10;

/// One 40-byte backtrace block is split into this many transactions.
pub const BT_TXNS_PER_BLOCK: usize = 4;

/// Bytes of one backtrace block (64 cells × 5 bits).
pub const BT_BLOCK_BYTES: usize = 40;

/// A parsed backtrace transaction (paper §4.4: 10 bytes of data + 6 bytes of
/// info = {counter: 3 bytes, Last flag: 1 bit, alignment ID: 23 bits}).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BtTxn {
    /// 10 bytes of backtrace payload.
    pub payload: [u8; BT_PAYLOAD_BYTES],
    /// Running transaction counter within the alignment (24 bits).
    pub counter: u32,
    /// Set on the final (score-record) transaction of an alignment.
    pub last: bool,
    /// Low 23 bits of the alignment ID.
    pub id: u32,
}

impl BtTxn {
    /// Unpack from the 16-byte wire format.
    pub fn decode(bytes: &[u8]) -> BtTxn {
        assert_eq!(bytes.len(), SECTION);
        let mut payload = [0u8; BT_PAYLOAD_BYTES];
        payload.copy_from_slice(&bytes[..BT_PAYLOAD_BYTES]);
        let counter = bytes[10] as u32 | (bytes[11] as u32) << 8 | (bytes[12] as u32) << 16;
        let tail = bytes[13] as u32 | (bytes[14] as u32) << 8 | (bytes[15] as u32) << 16;
        BtTxn {
            payload,
            counter,
            last: (tail >> 23) & 1 == 1,
            id: tail & 0x7F_FFFF,
        }
    }
}

/// Write a BT transaction's 6 info bytes after its payload (16-byte wire
/// format: the payload first, then the counter LE24, then a 24-bit field of
/// {Last:1, ID:23}). The one encoder of the layout [`BtTxn::decode`] reads;
/// callers check that `counter` fits 24 bits and `id` 23.
#[inline]
pub fn write_bt_info(txn: &mut [u8; SECTION], counter: u32, last: bool, id: u32) {
    let tail = ((last as u32) << 23) | id;
    txn[BT_PAYLOAD_BYTES..13].copy_from_slice(&counter.to_le_bytes()[..3]);
    txn[13..].copy_from_slice(&tail.to_le_bytes()[..3]);
}

/// The final score record carried in the payload of the Last transaction
/// (paper §4.4: Success in one byte, the reached `k` in two bytes, the score
/// in two bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BtScoreRecord {
    /// Did the alignment complete within the hardware limits?
    pub success: bool,
    /// The diagonal the alignment terminated on (`k_end = m - n`).
    pub k: i16,
    /// Alignment score.
    pub score: u16,
}

impl BtScoreRecord {
    /// Pack into the first 5 payload bytes.
    pub fn encode(&self) -> [u8; BT_PAYLOAD_BYTES] {
        let mut p = [0u8; BT_PAYLOAD_BYTES];
        p[0] = self.success as u8;
        p[1..3].copy_from_slice(&self.k.to_le_bytes());
        p[3..5].copy_from_slice(&self.score.to_le_bytes());
        p
    }

    /// Unpack from a payload.
    pub fn decode(p: &[u8; BT_PAYLOAD_BYTES]) -> BtScoreRecord {
        BtScoreRecord {
            success: p[0] != 0,
            k: i16::from_le_bytes([p[1], p[2]]),
            score: u16::from_le_bytes([p[3], p[4]]),
        }
    }
}

// ---------------------------------------------------------------------------
// 5-bit origin codes (Compute sub-module -> CPU backtrace)
// ---------------------------------------------------------------------------

/// Origin of an M cell (3 bits; paper: "the origin of a cell in the ... M̃
/// wavefront matrices can come from ... 5 positions").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MOrigin {
    /// Cell is null/invalid.
    None,
    /// From `M[s-x][k] + 1` (substitution).
    Sub,
    /// From the insertion component (which itself opened: `M[s-o-e][k-1]`).
    InsOpen,
    /// From the insertion component (which extended: `I[s-e][k-1]`).
    InsExt,
    /// From the deletion component (opened).
    DelOpen,
    /// From the deletion component (extended).
    DelExt,
}

impl MOrigin {
    /// 3-bit code.
    pub fn code(self) -> u8 {
        match self {
            MOrigin::None => 0,
            MOrigin::Sub => 1,
            MOrigin::InsOpen => 2,
            MOrigin::InsExt => 3,
            MOrigin::DelOpen => 4,
            MOrigin::DelExt => 5,
        }
    }

    /// Decode a 3-bit code (6 and 7 are never produced; treated as None).
    pub fn from_code(c: u8) -> MOrigin {
        match c & 7 {
            1 => MOrigin::Sub,
            2 => MOrigin::InsOpen,
            3 => MOrigin::InsExt,
            4 => MOrigin::DelOpen,
            5 => MOrigin::DelExt,
            _ => MOrigin::None,
        }
    }
}

/// Per-cell 5-bit origin bundle: M (3 bits), I (1 bit: 1 = extended,
/// 0 = opened), D (1 bit). Layout: `[d:1][i:1][m:3]` from MSB to LSB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellOrigin {
    /// M component origin.
    pub m: MOrigin,
    /// I came from `I[s-e][k-1]` (true) or `M[s-o-e][k-1]` (false).
    pub i_ext: bool,
    /// D came from `D[s-e][k+1]` (true) or `M[s-o-e][k+1]` (false).
    pub d_ext: bool,
}

impl CellOrigin {
    /// A null origin (invalid cell).
    pub const NONE: CellOrigin = CellOrigin {
        m: MOrigin::None,
        i_ext: false,
        d_ext: false,
    };

    /// 5-bit code.
    pub fn code(self) -> u8 {
        self.m.code() | (self.i_ext as u8) << 3 | (self.d_ext as u8) << 4
    }

    /// Decode a 5-bit code.
    pub fn from_code(c: u8) -> CellOrigin {
        CellOrigin {
            m: MOrigin::from_code(c & 7),
            i_ext: (c >> 3) & 1 == 1,
            d_ext: (c >> 4) & 1 == 1,
        }
    }
}

/// Pack 5-bit cell origin codes ([`CellOrigin::code`], the form the batched
/// compute kernel emits — see `wfa_core::kernel::compute_row_with_origins`)
/// at 5 bits each, little-endian (cell `n` occupies bits `5n..5n+5`): a
/// 64-PS block is [`BT_BLOCK_BYTES`] bytes, and designs with a different
/// number of parallel sections pack to their own width (e.g. the 2×32PS
/// configuration of Fig. 11, whose blocks are 160 bits).
pub fn pack_origin_codes(codes: &[u8]) -> Vec<u8> {
    let mut out = vec![0u8; (codes.len() * 5).div_ceil(8)];
    for (n, &code) in codes.iter().enumerate() {
        pack_code_into(&mut out, n, code);
    }
    out
}

/// OR one cell's 5-bit origin `code` into slot `n` of a zero-initialized
/// block (the single-cell form of [`pack_origin_codes`], for callers that
/// pack straight into a preallocated block buffer).
#[inline]
pub fn pack_code_into(out: &mut [u8], n: usize, code: u8) {
    let bit = 5 * n;
    let code = code as u16;
    let byte = bit / 8;
    let off = bit % 8;
    out[byte] |= (code << off) as u8;
    if off > 3 {
        out[byte + 1] |= (code >> (8 - off)) as u8;
    }
}

/// Pack a dense run of 5-bit codes into slots `0..codes.len()` of a
/// zero-initialized block — [`pack_code_into`] over every slot, in one
/// call. Bit-identical output; on BMI2 hosts each group of eight codes is
/// packed with one `PEXT` (slot `8g` starts at bit `40g`, a byte boundary,
/// so each group lands on exactly five whole bytes).
#[inline]
pub fn pack_codes_dense(out: &mut [u8], codes: &[u8]) {
    let mut n = 0;
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("bmi2") {
        // SAFETY: feature checked above.
        n = unsafe { pack_codes_bmi2_prefix(out, codes) };
    }
    for (t, &code) in codes.iter().enumerate().skip(n) {
        pack_code_into(out, t, code);
    }
}

/// Pack the longest multiple-of-8 prefix of `codes` with `PEXT`, returning
/// how many codes were consumed. Eight code bytes read as a little-endian
/// `u64` put code `n`'s low 5 bits at bits `8n..8n+5`; extracting through
/// the `0x1F` byte mask concatenates them to bits `5n..5n+5` — the block
/// layout — and the 40-bit result is the group's five output bytes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "bmi2")]
unsafe fn pack_codes_bmi2_prefix(out: &mut [u8], codes: &[u8]) -> usize {
    use std::arch::x86_64::_pext_u64;
    for (g, chunk) in codes.chunks_exact(8).enumerate() {
        let v = u64::from_le_bytes(chunk.try_into().unwrap());
        let packed = _pext_u64(v, 0x1F1F_1F1F_1F1F_1F1F);
        out[5 * g..5 * g + 5].copy_from_slice(&packed.to_le_bytes()[..5]);
    }
    codes.len() / 8 * 8
}

/// Bytes of one origin block for `p` parallel sections.
pub fn bt_block_bytes(p: usize) -> usize {
    (p * 5).div_ceil(8)
}

/// Extract cell `n`'s 5-bit origin from a packed block.
pub fn unpack_bt_cell(block: &[u8], n: usize) -> CellOrigin {
    let bit = 5 * n;
    let byte = bit / 8;
    let off = bit % 8;
    let mut code = (block[byte] >> off) as u16;
    if off > 3 {
        code |= (block[byte + 1] as u16) << (8 - off);
    }
    CellOrigin::from_code((code & 0x1F) as u8)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_pair(id: u32, a: &[u8], b: &[u8]) -> Pair {
        Pair::new(id, a.to_vec(), b.to_vec())
    }

    #[test]
    fn input_image_roundtrip() {
        let pairs = vec![
            mk_pair(7, b"ACGTACGTACGT", b"ACGTACGAACGT"),
            mk_pair(8, b"TTTT", b"TTTTTT"),
        ];
        let img = InputImage::encode(&pairs, 16);
        assert_eq!(img.bytes.len(), 2 * (3 * 16 + 2 * 16));
        for (n, p) in pairs.iter().enumerate() {
            let (id, a, b) = img.decode(n);
            assert_eq!(id, p.id);
            assert_eq!(a, p.a.to_bytes());
            assert_eq!(b, p.b.to_bytes());
        }
    }

    #[test]
    #[should_panic(expected = "MAX_READ_LEN")]
    fn encode_rejects_over_length() {
        let pairs = vec![mk_pair(0, &[b'A'; 20], b"ACGT")];
        InputImage::encode(&pairs, 16);
    }

    #[test]
    fn encode_raw_keeps_true_length_for_adversarial_images() {
        let pairs = vec![mk_pair(0, &[b'A'; 20], b"ACGT")];
        let img = InputImage::encode_raw(&pairs, 16);
        let (_, a, _) = img.decode(0);
        assert_eq!(a.len(), 16, "bases truncated to the image");
        let len_a = u32::from_le_bytes(img.bytes[16..20].try_into().unwrap());
        assert_eq!(len_a, 20, "recorded length keeps the unsupported value");
    }

    #[test]
    #[should_panic(expected = "divisible by 16")]
    fn max_read_len_must_be_aligned() {
        pair_record_bytes(100);
    }

    #[test]
    fn nbt_record_roundtrip() {
        for (success, score, id) in [(true, 0u16, 0u16), (false, 8000, 65535), (true, 32767, 42)] {
            let r = NbtRecord { success, score, id };
            assert_eq!(NbtRecord::decode(r.encode()), r);
        }
    }

    #[test]
    #[should_panic(expected = "15-bit")]
    fn nbt_score_field_limit() {
        NbtRecord {
            success: true,
            score: 1 << 15,
            id: 0,
        }
        .encode();
    }

    #[test]
    fn bt_txn_roundtrip() {
        let t = BtTxn {
            payload: [1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
            counter: 0xABCDE,
            last: true,
            id: 0x7F_FFFF,
        };
        let wire = |t: &BtTxn| {
            let mut w = [0u8; SECTION];
            w[..BT_PAYLOAD_BYTES].copy_from_slice(&t.payload);
            write_bt_info(&mut w, t.counter, t.last, t.id);
            w
        };
        assert_eq!(BtTxn::decode(&wire(&t)), t);
        let t2 = BtTxn {
            last: false,
            id: 0,
            counter: 0,
            ..t
        };
        assert_eq!(BtTxn::decode(&wire(&t2)), t2);
    }

    #[test]
    fn bt_score_record_roundtrip() {
        let r = BtScoreRecord {
            success: true,
            k: -123,
            score: 8000,
        };
        assert_eq!(BtScoreRecord::decode(&r.encode()), r);
    }

    #[test]
    fn origin_codes_roundtrip() {
        for m in [
            MOrigin::None,
            MOrigin::Sub,
            MOrigin::InsOpen,
            MOrigin::InsExt,
            MOrigin::DelOpen,
            MOrigin::DelExt,
        ] {
            for i_ext in [false, true] {
                for d_ext in [false, true] {
                    let c = CellOrigin { m, i_ext, d_ext };
                    assert_eq!(CellOrigin::from_code(c.code()), c);
                    assert!(c.code() < 32);
                }
            }
        }
    }

    #[test]
    fn bt_block_pack_unpack() {
        let mut cells = [CellOrigin::NONE; 64];
        for (n, c) in cells.iter_mut().enumerate() {
            *c = CellOrigin::from_code(((n * 7) % 30) as u8);
        }
        let codes: Vec<u8> = cells.iter().map(|c| c.code()).collect();
        let block = pack_origin_codes(&codes);
        assert_eq!(block.len(), BT_BLOCK_BYTES);
        for (n, c) in cells.iter().enumerate() {
            assert_eq!(unpack_bt_cell(&block, n), *c, "cell {n}");
        }
    }

    #[test]
    fn dense_packer_matches_per_slot_packer() {
        // Every length from empty through a full 64-PS block, so the PEXT
        // prefix, the scalar tail, and their seam are all exercised.
        for len in 0..=64usize {
            let codes: Vec<u8> = (0..len).map(|n| ((n * 13) % 32) as u8).collect();
            let mut want = vec![0u8; bt_block_bytes(64)];
            for (n, &c) in codes.iter().enumerate() {
                pack_code_into(&mut want, n, c);
            }
            let mut got = vec![0u8; bt_block_bytes(64)];
            pack_codes_dense(&mut got, &codes);
            assert_eq!(got, want, "len {len}");
        }
    }

    #[test]
    fn block_size_matches_paper() {
        // 64 parallel sections × 5 bits = 320 bits = 40 bytes = 4 txns of 10B.
        assert_eq!(64 * 5, BT_BLOCK_BYTES * 8);
        assert_eq!(BT_BLOCK_BYTES, BT_TXNS_PER_BLOCK * BT_PAYLOAD_BYTES);
    }
}
