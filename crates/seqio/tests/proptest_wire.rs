//! Property tests for the wire formats: arbitrary values must round-trip
//! through every encoding the hardware and driver share.
//!
//! Runs on the in-repo harness (`wfa_core::prop`) — the build environment is
//! offline, so `proptest` is not available.

use wfa_core::prop::cases;
use wfa_core::rng::SmallRng;
use wfasic_seqio::generate::Pair;
use wfasic_seqio::memimage::{
    bt_block_bytes, pack_origin_codes, unpack_bt_cell, write_bt_info, BtScoreRecord, BtTxn,
    CellOrigin, InputImage, MOrigin, NbtRecord, BT_PAYLOAD_BYTES, SECTION,
};

const CASES: usize = 200;
const BASES: &[u8] = b"ACGT";

fn dna(rng: &mut SmallRng, max: usize) -> Vec<u8> {
    let len = rng.gen_range(0, max + 1);
    (0..len).map(|_| *rng.pick(BASES)).collect()
}

fn origin(rng: &mut SmallRng) -> CellOrigin {
    CellOrigin {
        m: MOrigin::from_code(rng.gen_range(0, 6) as u8),
        i_ext: rng.gen_bool(0.5),
        d_ext: rng.gen_bool(0.5),
    }
}

/// Input images round-trip arbitrary pair batches.
#[test]
fn input_image_roundtrip() {
    cases(CASES, 0x5E10_0001, |rng, _| {
        let n_pairs = rng.gen_range(1, 5);
        let pairs: Vec<Pair> = (0..n_pairs)
            .map(|i| Pair::new(i as u32 * 7, dna(rng, 40), dna(rng, 40)))
            .collect();
        let max = pairs
            .iter()
            .map(|p| p.a.len().max(p.b.len()))
            .max()
            .unwrap_or(0)
            .div_ceil(16)
            .max(1)
            * 16;
        let img = InputImage::encode(&pairs, max);
        for (n, p) in pairs.iter().enumerate() {
            let (id, a, b) = img.decode(n);
            assert_eq!(id, p.id);
            assert_eq!(a, p.a.to_bytes());
            assert_eq!(b, p.b.to_bytes());
        }
    });
}

/// NBT records round-trip over the whole field space.
#[test]
fn nbt_roundtrip() {
    cases(CASES, 0x5E10_0002, |rng, _| {
        let r = NbtRecord {
            success: rng.gen_bool(0.5),
            score: rng.gen_range(0, 0x8000) as u16,
            id: rng.next_u32() as u16,
        };
        assert_eq!(NbtRecord::decode(r.encode()), r);
    });
}

/// BT transactions round-trip over the whole field space.
#[test]
fn bt_txn_roundtrip() {
    cases(CASES, 0x5E10_0003, |rng, _| {
        let mut payload = [0u8; BT_PAYLOAD_BYTES];
        rng.fill_bytes(&mut payload);
        let t = BtTxn {
            payload,
            counter: rng.gen_range_u64(0, 1 << 24) as u32,
            last: rng.gen_bool(0.5),
            id: rng.gen_range_u64(0, 1 << 23) as u32,
        };
        let mut wire = [0u8; SECTION];
        wire[..BT_PAYLOAD_BYTES].copy_from_slice(&t.payload);
        write_bt_info(&mut wire, t.counter, t.last, t.id);
        assert_eq!(BtTxn::decode(&wire), t);
    });
}

/// Score records round-trip including negative diagonals.
#[test]
fn score_record_roundtrip() {
    cases(CASES, 0x5E10_0004, |rng, _| {
        let r = BtScoreRecord {
            success: rng.gen_bool(0.5),
            k: rng.next_u32() as u16 as i16,
            score: rng.next_u32() as u16,
        };
        assert_eq!(BtScoreRecord::decode(&r.encode()), r);
    });
}

/// Origin blocks of any width pack/unpack losslessly.
#[test]
fn origin_block_roundtrip() {
    cases(CASES, 0x5E10_0005, |rng, _| {
        let n_cells = rng.gen_range(1, 130);
        let cells: Vec<CellOrigin> = (0..n_cells).map(|_| origin(rng)).collect();
        let codes: Vec<u8> = cells.iter().map(|c| c.code()).collect();
        let block = pack_origin_codes(&codes);
        assert_eq!(block.len(), bt_block_bytes(cells.len()));
        for (n, c) in cells.iter().enumerate() {
            assert_eq!(unpack_bt_cell(&block, n), *c, "cell {n}");
        }
    });
}
