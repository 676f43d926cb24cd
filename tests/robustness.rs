//! The paper's broken-data robustness tests (§5.1): "to check that the
//! WFAsic does not cause the CPU to hang in case of receiving broken data,
//! we intentionally send data in different unexpected formats ... In these
//! tests, we did not observe any CPU freeze."
//!
//! Here: unsupported reads, over-length reads, garbage-filled images and
//! empty sequences must all complete with sensible Success flags, never
//! panic and never corrupt neighbouring results.

use wfasic::accel::regs::offsets;
use wfasic::accel::{AccelConfig, WfasicDevice};
use wfasic::driver::WfasicDriver;
use wfasic::seqio::memimage::{pair_record_bytes, InputImage};
use wfasic::seqio::{InputSetSpec, Pair};
use wfasic::soc::MainMemory;

#[test]
fn n_bases_flagged_not_hung() {
    let mut pairs = InputSetSpec {
        length: 120,
        error_pct: 5,
    }
    .generate(5, 1)
    .pairs;
    pairs[0].a.set_byte(3, b'N');
    pairs[2].b.set_byte(100, b'n');
    pairs[4].a.set_byte(0, b'-');
    let mut drv = WfasicDriver::new(AccelConfig::wfasic_chip());
    let job = drv.submit(&pairs, true).unwrap();
    assert!(!job.results[0].success);
    assert!(job.results[1].success);
    assert!(!job.results[2].success);
    assert!(job.results[3].success);
    assert!(!job.results[4].success);
}

#[test]
fn over_length_reads_rejected_per_read() {
    // Build an image whose recorded length exceeds MAX_READ_LEN for one
    // pair (the Extractor's first unsupported-read check).
    let good = Pair::new(
        0,
        b"ACGTACGTACGTACGT".to_vec(),
        b"ACGTACGAACGTACGT".to_vec(),
    );
    // 64 'A's: longer than MAX_READ_LEN = 16.
    let bad = Pair::new(1, vec![b'A'; 64], b"ACGT".to_vec());
    let img = InputImage::encode_raw(&[good.clone(), bad], 16);
    let mut mem = MainMemory::with_default_cap();
    mem.write(0x1000, &img.bytes);

    let mut dev = WfasicDevice::new(AccelConfig::wfasic_chip());
    dev.mmio_write(offsets::MAX_READ_LEN, 16);
    dev.mmio_write(offsets::IN_ADDR, 0x1000);
    dev.mmio_write(offsets::IN_SIZE, img.bytes.len() as u64);
    dev.mmio_write(offsets::OUT_ADDR, 0x10_0000);
    dev.mmio_write(offsets::START, 1);
    let report = dev.run(&mut mem);
    assert!(report.pairs[0].success);
    assert!(!report.pairs[1].success);
    assert_eq!(dev.mmio_read(offsets::IDLE), 1, "device returned to idle");
}

#[test]
fn garbage_image_completes_with_failures() {
    // Fill an input region with pseudo-random bytes and run it as if it
    // were a job: lengths will be nonsense and bases unsupported; every
    // result must be Success=0 and the device must reach Idle.
    let max_read_len = 64usize;
    let rec = pair_record_bytes(max_read_len);
    let n_pairs = 4;
    let mut bytes = vec![0u8; rec * n_pairs];
    let mut state: u32 = 0xDEAD_BEEF;
    for b in bytes.iter_mut() {
        state = state.wrapping_mul(1664525).wrapping_add(1013904223);
        *b = (state >> 24) as u8;
    }
    // Cap the recorded lengths so they are in-range but the bases are
    // garbage (non-ACGT): the 'N'-style check must catch them.
    for i in 0..n_pairs {
        let base = i * rec;
        bytes[base + 16..base + 20].copy_from_slice(&(40u32).to_le_bytes());
        bytes[base + 32..base + 36].copy_from_slice(&(40u32).to_le_bytes());
    }
    let mut mem = MainMemory::with_default_cap();
    mem.write(0x1000, &bytes);
    let mut dev = WfasicDevice::new(AccelConfig::wfasic_chip());
    dev.mmio_write(offsets::MAX_READ_LEN, max_read_len as u64);
    dev.mmio_write(offsets::IN_ADDR, 0x1000);
    dev.mmio_write(offsets::IN_SIZE, bytes.len() as u64);
    dev.mmio_write(offsets::OUT_ADDR, 0x10_0000);
    dev.mmio_write(offsets::BT_ENABLE, 1);
    dev.mmio_write(offsets::START, 1);
    let report = dev.run(&mut mem);
    assert_eq!(report.pairs.len(), n_pairs);
    assert!(report.pairs.iter().all(|p| !p.success));
    assert_eq!(dev.mmio_read(offsets::IDLE), 1);
}

#[test]
fn empty_and_tiny_sequences_flow_through() {
    let pairs = vec![
        Pair::new(0, Vec::new(), b"ACGT".to_vec()),
        Pair::new(1, b"A".to_vec(), b"A".to_vec()),
        Pair::new(2, b"ACGT".to_vec(), Vec::new()),
        Pair::new(3, Vec::new(), Vec::new()),
    ];
    let mut drv = WfasicDriver::new(AccelConfig::wfasic_chip());
    let job = drv.submit(&pairs, true).unwrap();
    assert!(job.results.iter().all(|r| r.success));
    assert_eq!(job.results[0].score, 6 + 4 * 2);
    assert_eq!(job.results[1].score, 0);
    assert_eq!(job.results[2].score, 6 + 4 * 2);
    assert_eq!(job.results[3].score, 0);
    for (res, pair) in job.results.iter().zip(&pairs) {
        res.cigar
            .as_ref()
            .unwrap()
            .check(&pair.a.bytes(), &pair.b.bytes())
            .unwrap();
    }
}

#[test]
fn mixed_lengths_in_one_job() {
    // MAX_READ_LEN is set by the longest read; short reads are padded with
    // dummy bases that the Extractor must ignore.
    let pairs = vec![
        Pair::new(0, b"ACG".to_vec(), b"ACG".to_vec()),
        Pair::new(1, vec![b'G'; 777], vec![b'G'; 777]),
        Pair::new(2, b"GATTACA".to_vec(), b"GACTACA".to_vec()),
    ];
    let mut drv = WfasicDriver::new(AccelConfig::wfasic_chip());
    let job = drv.submit(&pairs, false).unwrap();
    assert!(job.results.iter().all(|r| r.success));
    assert_eq!(job.results[0].score, 0);
    assert_eq!(job.results[1].score, 0);
    assert_eq!(job.results[2].score, 4);
}

/// Satellite property fuzz: drive the device with arbitrary MMIO write
/// sequences over arbitrary memory contents. Whatever the sequence, `run()`
/// must never panic, must leave the device Idle, and must leave a coherent
/// `ERROR_CODE` (one of the architecturally defined values).
#[test]
fn fuzz_arbitrary_mmio_sequences_never_panic() {
    use wfasic::accel::regs::error_code;
    use wfasic::wfa::prop::cases;

    const KNOWN_OFFSETS: [u64; 14] = [
        offsets::START,
        offsets::IDLE,
        offsets::BT_ENABLE,
        offsets::MAX_READ_LEN,
        offsets::IN_ADDR,
        offsets::IN_SIZE,
        offsets::OUT_ADDR,
        offsets::IRQ_ENABLE,
        offsets::OUT_BYTES,
        offsets::JOB_CYCLES,
        offsets::IRQ_PENDING,
        offsets::ERROR_CODE,
        offsets::ERROR_INFO,
        offsets::OUT_SIZE,
    ];

    cases(150, 0xF022_0001, |rng, _| {
        let mem_cap = 1usize << 18;
        let mut mem = MainMemory::new(mem_cap);
        // Arbitrary garbage in the low memory the device might read.
        let mut junk = vec![0u8; 4096];
        rng.fill_bytes(&mut junk);
        mem.write(rng.gen_range_u64(0, 1024), &junk);

        let mut dev = WfasicDevice::new(AccelConfig::wfasic_chip());
        let n_writes = rng.gen_range(0, 24);
        for _ in 0..n_writes {
            // Mostly known registers, sometimes wild offsets.
            let off = if rng.gen_bool(0.8) {
                *rng.pick(&KNOWN_OFFSETS)
            } else {
                rng.gen_range_u64(0, 0x200) & !7
            };
            // Mostly small values (so jobs that do start stay fast), with
            // occasional extreme ones to probe the validators.
            let val = match rng.gen_range(0, 4) {
                0 => rng.gen_range_u64(0, 64),
                1 => rng.gen_range_u64(0, 1 << 14),
                2 => rng.next_u64(),
                _ => *rng.pick(&[0, 1, 16, 0xFFFF, u64::MAX]),
            };
            dev.mmio_write(off, val);
        }
        // Constrain the job so arbitrary IN_SIZE values cannot make the
        // fuzz quadratic: window the input into the small memory.
        dev.mmio_write(offsets::IN_ADDR, rng.gen_range_u64(0, mem_cap as u64));
        dev.mmio_write(offsets::IN_SIZE, rng.gen_range_u64(0, 8192));
        if rng.gen_bool(0.7) {
            dev.mmio_write(offsets::START, 1);
        }
        let report = dev.run(&mut mem);

        assert_eq!(
            dev.mmio_read(offsets::IDLE),
            1,
            "device always returns to Idle"
        );
        let code = dev.mmio_read(offsets::ERROR_CODE);
        assert!(
            error_code::ALL.contains(&code),
            "latched ERROR_CODE {code} is not an architectural value"
        );
        if let Some(e) = report.error {
            assert_ne!(
                e.code,
                error_code::OK,
                "an error report carries a real code"
            );
            // The register mirror agrees with the report when the job errored.
            assert_eq!(code, e.code);
        }
    });
}

/// Boundary fuzz: the FASTA reader on corrupted and truncated bytes. A
/// valid multi-record file is damaged per case (random byte values, which
/// break UTF-8; stray `>`; NULs; `\r`; a cut mid-record) and both entry
/// points must return `Ok` or an `io::Error`, never panic. Where the bytes
/// are still UTF-8, `read_fasta` and `parse_fasta` give the same answer,
/// and no record they return holds whitespace in its sequence. Every error
/// names a line of the input, at or before the first byte that broke
/// UTF-8.
#[test]
fn fuzz_corrupted_fasta_never_panics() {
    use wfasic::seqio::fasta::{format_fasta, parse_fasta, read_fasta, Record};
    use wfasic::wfa::prop::cases;

    /// The 1-based line an error names, which must lie in `1..=last`.
    fn named_line(e: &std::io::Error, last: usize) -> usize {
        let msg = e.to_string();
        let line = msg
            .strip_prefix("line ")
            .and_then(|rest| rest.split_once(": "))
            .and_then(|(n, _)| n.parse().ok());
        let line = line.unwrap_or_else(|| panic!("{msg:?} names no line"));
        assert!((1..=last).contains(&line), "{msg:?} past line {last}");
        line
    }

    cases(400, 0xFA57_0001, |rng, _| {
        let records: Vec<Record> = (0..rng.gen_range(1, 5))
            .map(|r| Record {
                name: format!("read{r} sample"),
                seq: (0..rng.gen_range(0, 90))
                    .map(|_| *rng.pick(b"ACGTNacgt"))
                    .collect(),
            })
            .collect();
        let mut bytes = format_fasta(&records, rng.gen_range(0, 40)).into_bytes();
        for _ in 0..rng.gen_range(0, 6) {
            if bytes.is_empty() {
                break;
            }
            let at = rng.gen_range(0, bytes.len());
            match rng.gen_range(0, 5) {
                0 => bytes[at] = rng.next_u32() as u8,
                1 => bytes.insert(at, b'>'),
                2 => bytes.insert(at, 0),
                3 => bytes.insert(at, b'\r'),
                _ => bytes.truncate(at),
            }
        }
        let from_reader = read_fasta(bytes.as_slice());
        if let Ok(recs) = &from_reader {
            assert!(recs
                .iter()
                .all(|r| !r.seq.iter().any(u8::is_ascii_whitespace)));
        }
        let lines = bytes.split(|&b| b == b'\n').count();
        match std::str::from_utf8(&bytes) {
            Ok(text) => {
                let from_text = parse_fasta(text);
                match (&from_reader, &from_text) {
                    (Ok(a), Ok(b)) => assert_eq!(a, b),
                    (Err(a), Err(b)) => assert_eq!(named_line(a, lines), named_line(b, lines)),
                    _ => panic!("the reader and the parser disagree on {text:?}"),
                }
            }
            Err(utf8) => {
                let e = from_reader
                    .as_ref()
                    .expect_err("non-UTF-8 input is an io::Error");
                let newlines = bytes[..utf8.valid_up_to()].iter().filter(|&&b| b == b'\n');
                assert!(named_line(e, lines) <= newlines.count() + 1, "{e}");
                let _ = parse_fasta(&String::from_utf8_lossy(&bytes));
            }
        }
    });
}

/// Boundary fuzz: the driver's backtrace-stream parsers on a damaged
/// result region. A clean multi-pair BT region (and its NBT twin) is
/// mutated per case — bit flips, a cut at any byte, random byte
/// overwrites, a corrupted score record in a Last transaction — and both
/// stream parsers, the origin walk behind them, and the NBT parser must
/// return `Ok` or a `BtError`, never panic.
#[test]
fn fuzz_corrupted_bt_stream_never_panics() {
    use wfasic::accel::aligner::align_packed;
    use wfasic::accel::collector::{
        collect_bt_bytes, nbt_record, pack_nbt_records, parse_nbt_records,
    };
    use wfasic::accel::schedule::WavefrontSchedule;
    use wfasic::driver::backtrace::{
        backtrace_alignment_packed, separate_stream, split_consecutive_stream,
    };
    use wfasic::seqio::memimage::SECTION;
    use wfasic::wfa::prop::cases;

    let cfg = AccelConfig::wfasic_chip();
    let schedule = WavefrontSchedule::for_config(&cfg);
    let pairs: Vec<Pair> = [(60, 5), (150, 10), (300, 10), (90, 2)]
        .iter()
        .enumerate()
        .flat_map(|(i, &(length, error_pct))| {
            InputSetSpec { length, error_pct }
                .generate(1, 0xB7_0000 + i as u64)
                .pairs
        })
        .collect();
    let packed: Vec<_> = pairs
        .iter()
        .map(|p| {
            (
                p.a.as_packed().unwrap().clone(),
                p.b.as_packed().unwrap().clone(),
            )
        })
        .collect();
    let outcomes: Vec<_> = packed
        .iter()
        .enumerate()
        .map(|(id, (a, b))| align_packed(&cfg, &schedule, id as u32, a, b, true))
        .collect();
    let clean_bt: Vec<u8> = outcomes.iter().flat_map(collect_bt_bytes).collect();
    let records: Vec<_> = outcomes.iter().map(nbt_record).collect();
    let clean_nbt = pack_nbt_records(&records);
    let walk = |bytes: &[u8]| {
        for parsed in [split_consecutive_stream(bytes), separate_stream(bytes)] {
            let Ok(alignments) = parsed else { continue };
            for bt in &alignments {
                let (a, b) = &packed[bt.id as usize % packed.len()];
                let _ = backtrace_alignment_packed(
                    &schedule,
                    bt,
                    a,
                    b,
                    &cfg.penalties,
                    cfg.parallel_sections,
                );
            }
        }
    };

    // The fixture itself: the clean region walks to every pair's CIGAR.
    let alignments = split_consecutive_stream(&clean_bt).unwrap();
    assert_eq!(alignments.len(), pairs.len());
    for (bt, pair) in alignments.iter().zip(&pairs) {
        let (a, b) = &packed[bt.id as usize];
        backtrace_alignment_packed(&schedule, bt, a, b, &cfg.penalties, cfg.parallel_sections)
            .unwrap()
            .check(&pair.a.bytes(), &pair.b.bytes())
            .unwrap();
    }
    assert_eq!(parse_nbt_records(&clean_nbt, records.len()), records);

    let lasts: Vec<usize> = (0..clean_bt.len() / SECTION)
        .filter(|t| clean_bt[t * SECTION + 15] >> 7 == 1)
        .collect();
    cases(500, 0xB7_5EED, |rng, _| {
        let mut bt = clean_bt.clone();
        let mut nbt = clean_nbt.clone();
        for _ in 0..rng.gen_range(1, 4) {
            let kind = rng.gen_range(0, 4);
            if kind == 3 {
                // The score record (success, k LE16, score LE16) of a Last
                // transaction, unless a cut already removed it: nudge k or
                // the score, so the walk asks for blocks the payload does
                // not hold, or overwrite the record outright.
                let t = *rng.pick(&lasts) * SECTION;
                if let Some(record) = bt.get_mut(t..t + 5) {
                    let nudge = rng.gen_range(1, 16) as u8;
                    match rng.gen_range(0, 3) {
                        0 => record[1] = record[1].wrapping_add(nudge),
                        1 => record[3] = record[3].wrapping_add(nudge),
                        _ => rng.fill_bytes(record),
                    }
                }
                continue;
            }
            let region = if rng.gen_bool(0.8) { &mut bt } else { &mut nbt };
            if region.is_empty() {
                continue;
            }
            let at = rng.gen_range(0, region.len());
            match kind {
                0 => region[at] ^= 1 << rng.gen_range(0, 8),
                1 => region.truncate(at),
                _ => region[at] = rng.next_u32() as u8,
            }
        }
        walk(&bt);
        assert!(parse_nbt_records(&nbt, records.len()).len() <= records.len());
    });
}
