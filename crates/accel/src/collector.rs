//! Collector modules (paper §4.4): package Aligner results into 16-byte
//! output transactions.
//!
//! * **Collector BT** (backtrace enabled): each origin block is split into
//!   10-byte payload chunks, each wrapped with 6 bytes of info
//!   {counter, Last, ID}; the final transaction of an alignment carries the
//!   5-byte score record with Last = 1.
//! * **Collector NBT** (backtrace disabled): 4-byte result records
//!   {Success, score, ID}, merged four to a transaction ("this way, the
//!   design is less limited by the accelerator-memory bandwidth").

use crate::aligner::AlignerOutcome;
use wfasic_seqio::memimage::{
    write_bt_info, BtScoreRecord, NbtRecord, BT_PAYLOAD_BYTES, NBT_RECORDS_PER_TXN, SECTION,
};

/// Serialize one alignment's backtrace stream to its 16-byte transactions:
/// origin-block transactions followed by the Last score-record
/// transaction, encoded in one pass without a per-transaction struct.
pub fn collect_bt_bytes(outcome: &AlignerOutcome) -> Vec<u8> {
    let id = outcome.id & 0x7F_FFFF;
    let txns = outcome.bt_blocks.len().div_ceil(BT_PAYLOAD_BYTES) + 1;
    assert!(txns <= (1 << 24), "BT counter exceeds 24 bits");
    let mut out = vec![0u8; txns * SECTION];
    // Blocks are streamed contiguously so the CPU can index block `i` at
    // byte `i * block_bytes` of the reassembled payload; only the final
    // partial payload is padded. (For the 64-PS chip a block is exactly
    // four 10-byte payloads, so the chunking is invisible.)
    let chunks = outcome.bt_blocks.chunks(BT_PAYLOAD_BYTES);
    for (counter, (t, chunk)) in out.chunks_exact_mut(SECTION).zip(chunks).enumerate() {
        let t: &mut [u8; SECTION] = t.try_into().expect("16-byte transaction");
        t[..chunk.len()].copy_from_slice(chunk);
        write_bt_info(t, counter as u32, false, id);
    }
    // Final transaction: the score record with Last = 1.
    let score_rec = BtScoreRecord {
        success: outcome.success,
        k: outcome.k_end as i16,
        score: outcome.score.min(u16::MAX as u32) as u16,
    };
    let counter = txns - 1;
    let t: &mut [u8; SECTION] = (&mut out[counter * SECTION..])
        .try_into()
        .expect("16-byte transaction");
    t[..BT_PAYLOAD_BYTES].copy_from_slice(&score_rec.encode());
    write_bt_info(t, counter as u32, true, id);
    out
}

/// The NBT result record for one alignment.
pub fn nbt_record(outcome: &AlignerOutcome) -> NbtRecord {
    NbtRecord {
        success: outcome.success,
        score: outcome.score.min(0x7FFF) as u16,
        id: (outcome.id & 0xFFFF) as u16,
    }
}

/// Pack NBT records into 16-byte transactions, padding the tail with
/// sentinel records (`success = false`, `id = 0xFFFF`, `score = 0x7FFF`)
/// that consumers can recognize and skip.
pub fn pack_nbt_records(records: &[NbtRecord]) -> Vec<u8> {
    let mut out = Vec::with_capacity(records.len().div_ceil(NBT_RECORDS_PER_TXN) * SECTION);
    for group in records.chunks(NBT_RECORDS_PER_TXN) {
        for rec in group {
            out.extend_from_slice(&rec.encode());
        }
        for _ in group.len()..NBT_RECORDS_PER_TXN {
            out.extend_from_slice(&NBT_PAD.encode());
        }
    }
    out
}

/// The padding sentinel for partially-filled NBT transactions.
pub const NBT_PAD: NbtRecord = NbtRecord {
    success: false,
    score: 0x7FFF,
    id: 0xFFFF,
};

/// Parse an NBT output buffer back into records (skipping pad sentinels).
pub fn parse_nbt_records(bytes: &[u8], expected: usize) -> Vec<NbtRecord> {
    let mut out = Vec::with_capacity(expected);
    for chunk in bytes.chunks_exact(4) {
        if out.len() == expected {
            break;
        }
        let rec = NbtRecord::decode(chunk.try_into().unwrap());
        if rec == NBT_PAD {
            continue;
        }
        out.push(rec);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aligner::AlignerStats;
    use wfasic_seqio::memimage::BtTxn;

    fn outcome(id: u32, success: bool, score: u32, blocks: usize) -> AlignerOutcome {
        AlignerOutcome {
            id,
            success,
            score,
            k_end: -3,
            cycles: 100,
            extend_cycles: 60,
            compute_cycles: 40,
            bt_blocks: (0..blocks).flat_map(|i| [i as u8; 40]).collect(),
            stats: AlignerStats::default(),
        }
    }

    /// The stream as the CPU decodes it, one transaction per 16 bytes.
    fn txns(o: &AlignerOutcome) -> Vec<BtTxn> {
        let bytes = collect_bt_bytes(o);
        assert_eq!(bytes.len() % SECTION, 0);
        bytes.chunks(SECTION).map(BtTxn::decode).collect()
    }

    #[test]
    fn bt_stream_structure() {
        let o = outcome(12, true, 44, 3);
        let txns = txns(&o);
        // 3 blocks × 4 txns + 1 score txn.
        assert_eq!(txns.len(), 13);
        assert!(txns[..12].iter().all(|t| !t.last));
        assert!(txns[12].last);
        // Counters are continuous.
        for (i, t) in txns.iter().enumerate() {
            assert_eq!(t.counter, i as u32);
            assert_eq!(t.id, 12);
        }
        let rec = BtScoreRecord::decode(&txns[12].payload);
        assert_eq!(rec.score, 44);
        assert_eq!(rec.k, -3);
        assert!(rec.success);
    }

    #[test]
    fn bt_payloads_reassemble_the_block_stream() {
        // Whole 40-byte blocks, and 20-byte blocks (32-PS style) whose
        // final payload is padded.
        let mut partial = outcome(9, true, 4, 0);
        partial.bt_blocks = vec![0xAB; 20];
        let cases = [0, 1, 3, 7].map(|blocks| outcome(0x7_1234, blocks != 1, 44, blocks));
        for o in cases.iter().chain([&partial]) {
            let txns = txns(o);
            let origins = &txns[..txns.len() - 1];
            assert_eq!(origins.len(), o.bt_blocks.len().div_ceil(BT_PAYLOAD_BYTES));
            let mut payload: Vec<u8> = origins.iter().flat_map(|t| t.payload).collect();
            assert!(payload[o.bt_blocks.len()..].iter().all(|&b| b == 0));
            payload.truncate(o.bt_blocks.len());
            assert_eq!(payload, o.bt_blocks);
            assert!(txns.iter().all(|t| t.id == o.id & 0x7F_FFFF));
            assert_eq!(
                BtScoreRecord::decode(&txns[origins.len()].payload).success,
                o.success
            );
        }
    }

    #[test]
    fn bt_failed_alignment_still_reports() {
        let o = outcome(5, false, 0, 0);
        let txns = txns(&o);
        assert_eq!(txns.len(), 1);
        assert!(txns[0].last);
        assert!(!BtScoreRecord::decode(&txns[0].payload).success);
    }

    #[test]
    fn nbt_packing_and_padding() {
        let recs: Vec<NbtRecord> = (0..5)
            .map(|i| NbtRecord {
                success: true,
                score: i * 10,
                id: i,
            })
            .collect();
        let bytes = pack_nbt_records(&recs);
        // 5 records -> 2 transactions (32 bytes), 3 pads.
        assert_eq!(bytes.len(), 32);
        let parsed = parse_nbt_records(&bytes, 5);
        assert_eq!(parsed, recs);
    }

    #[test]
    fn nbt_32ps_style_blocks_split_into_two_txns() {
        // 20-byte origin blocks (32 parallel sections) -> 2 payload chunks.
        let mut o = outcome(1, true, 4, 0);
        o.bt_blocks = vec![0xAB; 20];
        assert_eq!(txns(&o).len(), 2 + 1);
    }

    #[test]
    fn nbt_id_truncates_to_16_bits() {
        let o = outcome(0x1_0005, true, 9, 0);
        assert_eq!(nbt_record(&o).id, 5);
    }
}
