//! CPU-side backtrace over the accelerator's origin stream (paper §4.5).
//!
//! The accelerator emits, per computed wavefront cell, a 5-bit origin code;
//! the CPU turns that stream back into full alignments in three steps:
//!
//! 1. **Locate** each alignment's transactions. With multiple Aligners the
//!    streams interleave in memory and must be *separated* (bucketed by the
//!    23-bit ID and ordered by counter — the expensive step Fig. 11
//!    measures); with a single Aligner the data is already consecutive and
//!    only the boundaries must be found (the "no separation" method).
//! 2. **Walk** the origins backwards from the final cell `(score, k_end)`,
//!    using the deterministic [`WavefrontSchedule`] to find each cell's
//!    block, producing the edit list (mismatches/indels — no matches yet).
//!    Each edit records whether it was taken from an M cell (so matches may
//!    precede it) or mid gap-chain (no matches possible before it).
//! 3. **Insert matches**: replay the edits forward over the two sequences,
//!    extending greedily wherever the path passed through an (always
//!    maximally-extended) M cell.
//!
//! Steps 2 and 3 are wfa-core's [`origins`] walk and replay, the ones the
//! exact software engine runs over its own origin rows; this module only
//! locates the cells in the stream and extends over packed sequences.

use wfa_core::cigar::Cigar;
use wfa_core::origins::{self, BadOrigin};
use wfa_core::Penalties;
use wfasic_accel::schedule::WavefrontSchedule;
use wfasic_seqio::memimage::{unpack_bt_cell, BtScoreRecord, BtTxn, BT_PAYLOAD_BYTES, SECTION};

pub use wfa_core::origins::Edit;

/// One alignment's reassembled backtrace data.
#[derive(Debug, Clone)]
pub struct BtAlignment {
    /// 23-bit alignment ID.
    pub id: u32,
    /// Final score record from the Last transaction.
    pub record: BtScoreRecord,
    /// Concatenated origin-block payload bytes (transaction payloads in
    /// counter order, excluding the Last/score transaction).
    pub payload: Vec<u8>,
    /// Transactions this alignment contributed (for cost accounting).
    pub txns: usize,
}

/// Errors in stream parsing or the origin walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BtError {
    /// The stream ended without a Last transaction for an alignment.
    TruncatedStream,
    /// Transaction counters are not contiguous for an alignment.
    BadCounters { id: u32 },
    /// The walk needed a cell outside the emitted schedule.
    WalkOutOfSchedule { score: u32, k: i32 },
    /// An origin code was inconsistent with the walk state.
    BadOrigin { score: u32, k: i32 },
    /// Match insertion failed to consume the sequences exactly.
    ReconstructionMismatch,
}

impl std::fmt::Display for BtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BtError::TruncatedStream => {
                write!(f, "backtrace stream ended without a Last transaction")
            }
            BtError::BadCounters { id } => {
                write!(f, "non-contiguous transaction counters for alignment {id}")
            }
            BtError::WalkOutOfSchedule { score, k } => {
                write!(
                    f,
                    "origin walk left the schedule at score {score}, diagonal {k}"
                )
            }
            BtError::BadOrigin { score, k } => {
                write!(f, "inconsistent origin code at score {score}, diagonal {k}")
            }
            BtError::ReconstructionMismatch => {
                write!(f, "match insertion failed to consume the sequences exactly")
            }
        }
    }
}

impl std::error::Error for BtError {}

impl From<BadOrigin> for BtError {
    fn from(e: BadOrigin) -> Self {
        BtError::BadOrigin {
            score: e.score,
            k: e.k,
        }
    }
}

/// Parse a raw BT output region (multi-Aligner case): bucket transactions by
/// ID, order by counter, reassemble payloads — the *data separation* step.
pub fn separate_stream(bytes: &[u8]) -> Result<Vec<BtAlignment>, BtError> {
    let mut order: Vec<u32> = Vec::new();
    let mut buckets: std::collections::HashMap<u32, Vec<BtTxn>> = std::collections::HashMap::new();
    for chunk in bytes.chunks_exact(SECTION) {
        let txn = BtTxn::decode(chunk);
        let bucket = buckets.entry(txn.id).or_insert_with(|| {
            order.push(txn.id);
            Vec::new()
        });
        bucket.push(txn);
    }
    let mut out = Vec::with_capacity(order.len());
    for id in order {
        let mut txns = buckets.remove(&id).unwrap();
        txns.sort_by_key(|t| t.counter);
        out.push(assemble(id, txns)?);
    }
    Ok(out)
}

/// Parse a single-Aligner BT region (the "no separation" method): data is
/// consecutive; split at Last flags.
pub fn split_consecutive_stream(bytes: &[u8]) -> Result<Vec<BtAlignment>, BtError> {
    // Single pass: consecutive data needs no reordering, so payload bytes
    // stream straight into the current alignment's buffer and counters are
    // checked as they arrive — no per-transaction structs are materialized
    // (a counter gap is therefore reported at the offending transaction
    // rather than at the end of its segment).
    let mut out = Vec::new();
    let mut payload: Vec<u8> = Vec::new();
    let mut count: usize = 0;
    let is_last = |chunk: &[u8]| chunk[15] >> 7 == 1;
    for (t, chunk) in bytes.chunks_exact(SECTION).enumerate() {
        if count == 0 {
            // First transaction of an alignment: size its payload buffer
            // to the transactions before its Last flag, so the copies
            // below never reallocate.
            let rest = bytes[t * SECTION..].chunks_exact(SECTION);
            let txns = rest.clone().position(is_last).unwrap_or(rest.len());
            payload.reserve_exact(txns * BT_PAYLOAD_BYTES);
        }
        // Decode the 6 info bytes in place (`BtTxn::decode` layout); the
        // payload streams straight from the chunk, copied exactly once.
        let counter = chunk[10] as u32 | (chunk[11] as u32) << 8 | (chunk[12] as u32) << 16;
        let tail = chunk[13] as u32 | (chunk[14] as u32) << 8 | (chunk[15] as u32) << 16;
        let id = tail & 0x7F_FFFF;
        if counter != count as u32 {
            return Err(BtError::BadCounters { id });
        }
        count += 1;
        if is_last(chunk) {
            let mut rec = [0u8; BT_PAYLOAD_BYTES];
            rec.copy_from_slice(&chunk[..BT_PAYLOAD_BYTES]);
            out.push(BtAlignment {
                id,
                record: BtScoreRecord::decode(&rec),
                payload: std::mem::take(&mut payload),
                txns: count,
            });
            count = 0;
        } else {
            payload.extend_from_slice(&chunk[..BT_PAYLOAD_BYTES]);
        }
    }
    if count != 0 {
        return Err(BtError::TruncatedStream);
    }
    Ok(out)
}

fn assemble(id: u32, txns: Vec<BtTxn>) -> Result<BtAlignment, BtError> {
    let Some(last) = txns.last() else {
        return Err(BtError::TruncatedStream);
    };
    if !last.last {
        return Err(BtError::TruncatedStream);
    }
    for (i, t) in txns.iter().enumerate() {
        if t.counter != i as u32 {
            return Err(BtError::BadCounters { id });
        }
    }
    let record = BtScoreRecord::decode(&last.payload);
    let mut payload = Vec::with_capacity((txns.len() - 1) * BT_PAYLOAD_BYTES);
    for t in &txns[..txns.len() - 1] {
        payload.extend_from_slice(&t.payload);
    }
    Ok(BtAlignment {
        id,
        record,
        payload,
        txns: txns.len(),
    })
}

/// Walk the origin stream backwards from `(score, k_end)`.
/// Returns the edits in *forward* order.
pub fn walk_origins(
    schedule: &WavefrontSchedule,
    bt: &BtAlignment,
    p: &Penalties,
    parallel_sections: usize,
) -> Result<Vec<Edit>, BtError> {
    let block_bytes = wfasic_seqio::memimage::bt_block_bytes(parallel_sections);
    let origin_at = |score: u32, k: i32| -> Result<u8, BtError> {
        let (block, cell) = schedule
            .locate(score, k)
            .ok_or(BtError::WalkOutOfSchedule { score, k })?;
        let start = block as usize * block_bytes;
        let end = start + block_bytes;
        if end > bt.payload.len() {
            return Err(BtError::TruncatedStream);
        }
        Ok(unpack_bt_cell(&bt.payload[start..end], cell))
    };
    origins::walk(bt.record.score as u32, bt.record.k as i32, p, origin_at)
}

/// Insert matches: replay the edits forward over the 2-bit packed
/// sequences (paper §4.5).
pub fn insert_matches_packed(
    a: &wfa_core::bitpack::PackedSeq,
    b: &wfa_core::bitpack::PackedSeq,
    edits: &[Edit],
) -> Result<Cigar, BtError> {
    let lcp = |i, j| wfa_core::kernel::lcp_packed(a, b, i, j);
    origins::replay(edits, a.len(), b.len(), lcp).ok_or(BtError::ReconstructionMismatch)
}

/// Full per-alignment CPU backtrace over packed sequences: walk + match
/// insertion with no ASCII decode.
pub fn backtrace_alignment_packed(
    schedule: &WavefrontSchedule,
    bt: &BtAlignment,
    a: &wfa_core::bitpack::PackedSeq,
    b: &wfa_core::bitpack::PackedSeq,
    p: &Penalties,
    parallel_sections: usize,
) -> Result<Cigar, BtError> {
    let edits = walk_origins(schedule, bt, p, parallel_sections)?;
    insert_matches_packed(a, b, &edits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfa_core::bitpack::PackedSeq;
    use wfasic_accel::aligner::align_packed;
    use wfasic_accel::collector::collect_bt_bytes;
    use wfasic_accel::AccelConfig;

    fn hw_backtrace(a: &[u8], b: &[u8]) -> (u32, Cigar) {
        let cfg = AccelConfig::wfasic_chip();
        let schedule = WavefrontSchedule::for_config(&cfg);
        let pa = PackedSeq::from_ascii(a).unwrap();
        let pb = PackedSeq::from_ascii(b).unwrap();
        let outcome = align_packed(&cfg, &schedule, 3, &pa, &pb, true);
        assert!(outcome.success);
        let bytes = collect_bt_bytes(&outcome);
        let alignments = split_consecutive_stream(&bytes).unwrap();
        assert_eq!(alignments.len(), 1);
        let cigar = backtrace_alignment_packed(
            &schedule,
            &alignments[0],
            &pa,
            &pb,
            &cfg.penalties,
            cfg.parallel_sections,
        )
        .unwrap();
        (outcome.score, cigar)
    }

    fn check(a: &[u8], b: &[u8]) {
        let (score, cigar) = hw_backtrace(a, b);
        cigar.check(a, b).unwrap();
        assert_eq!(
            cigar.score(&Penalties::WFASIC_DEFAULT),
            score as u64,
            "CIGAR must cost the hardware score: a={:?} b={:?} cigar={}",
            std::str::from_utf8(a).unwrap(),
            std::str::from_utf8(b).unwrap(),
            cigar
        );
        assert_eq!(
            score as u64,
            wfa_core::swg_score(a, b, &Penalties::WFASIC_DEFAULT)
        );
    }

    #[test]
    fn identical_sequences() {
        check(b"ACGTACGTACGT", b"ACGTACGTACGT");
    }

    #[test]
    fn single_edits() {
        check(b"GATTACA", b"GACTACA");
        check(b"GATTACA", b"GATTTACA");
        check(b"GATTTACA", b"GATTACA");
    }

    #[test]
    fn gap_chains_with_matching_interiors() {
        // The adversarial case for greedy match insertion: a gap chain whose
        // interior cells sit on matching bases (extend_before must gate the
        // greedy extension).
        check(b"AG", b"ATGG");
        check(b"ATGG", b"AG");
        check(b"AAAA", b"AAAAAAAA");
        check(b"ACAC", b"ACACAC");
    }

    #[test]
    fn mixed_edit_soup() {
        check(b"GATTACAGATTACAGATTACA", b"GATCACAGGATTACAGATACA");
        check(b"CCCCAAAATTTT", b"CCCCTTTT");
        check(b"ACGT", b"TGCA");
    }

    #[test]
    fn longer_random_style_pair() {
        let a: Vec<u8> = (0..300).map(|i| b"ACGT"[(i * 7 + 3) % 4]).collect();
        let mut b = a.clone();
        b[50] = b'A';
        b.insert(120, b'G');
        b.remove(200);
        b[250] = b'T';
        check(&a, &b);
    }

    #[test]
    fn separation_equals_no_separation_for_one_stream() {
        let cfg = AccelConfig::wfasic_chip();
        let schedule = WavefrontSchedule::for_config(&cfg);
        let a = PackedSeq::from_ascii(b"GATTACAGATTACA").unwrap();
        let b = PackedSeq::from_ascii(b"GATCACAGATAACA").unwrap();
        let outcome = align_packed(&cfg, &schedule, 77, &a, &b, true);
        let bytes = collect_bt_bytes(&outcome);
        let sep = separate_stream(&bytes).unwrap();
        let nosep = split_consecutive_stream(&bytes).unwrap();
        assert_eq!(sep.len(), 1);
        assert_eq!(sep[0].id, nosep[0].id);
        assert_eq!(sep[0].payload, nosep[0].payload);
        assert_eq!(sep[0].record, nosep[0].record);
    }

    #[test]
    fn truncated_stream_detected() {
        let cfg = AccelConfig::wfasic_chip();
        let schedule = WavefrontSchedule::for_config(&cfg);
        let a = PackedSeq::from_ascii(b"GATTACA").unwrap();
        let b = PackedSeq::from_ascii(b"GACTACA").unwrap();
        let outcome = align_packed(&cfg, &schedule, 1, &a, &b, true);
        let bytes = collect_bt_bytes(&outcome);
        // Drop the Last transaction.
        let err = split_consecutive_stream(&bytes[..bytes.len() - 16]).unwrap_err();
        assert_eq!(err, BtError::TruncatedStream);
    }

    #[test]
    fn interleaved_streams_separate_correctly() {
        // Fabricate a two-Aligner interleave by zipping two streams.
        let cfg = AccelConfig::wfasic_chip();
        let schedule = WavefrontSchedule::for_config(&cfg);
        let packed = |a: &[u8], b: &[u8]| {
            (
                PackedSeq::from_ascii(a).unwrap(),
                PackedSeq::from_ascii(b).unwrap(),
            )
        };
        let (a1, b1) = packed(b"GATTACAGATTACA", b"GATCACAGATAACA");
        let (a2, b2) = packed(b"CCCCAAAATTTT", b"CCCCTTTT");
        let s1 = collect_bt_bytes(&align_packed(&cfg, &schedule, 1, &a1, &b1, true));
        let s2 = collect_bt_bytes(&align_packed(&cfg, &schedule, 2, &a2, &b2, true));
        let (mut t1, mut t2) = (s1.chunks(SECTION), s2.chunks(SECTION));
        let mut bytes = Vec::new();
        loop {
            let (x, y) = (t1.next(), t2.next());
            if x.is_none() && y.is_none() {
                break;
            }
            bytes.extend(x.into_iter().chain(y).flatten());
        }
        let alignments = separate_stream(&bytes).unwrap();
        assert_eq!(alignments.len(), 2);
        let by_id: std::collections::HashMap<u32, &BtAlignment> =
            alignments.iter().map(|a| (a.id, a)).collect();
        let c1 =
            backtrace_alignment_packed(&schedule, by_id[&1], &a1, &b1, &cfg.penalties, 64).unwrap();
        c1.check(b"GATTACAGATTACA", b"GATCACAGATAACA").unwrap();
        let c2 =
            backtrace_alignment_packed(&schedule, by_id[&2], &a2, &b2, &cfg.penalties, 64).unwrap();
        c2.check(b"CCCCAAAATTTT", b"CCCCTTTT").unwrap();
    }
}
