//! `wfasic-align` — align FASTA read pairs on any execution backend.
//!
//! ```text
//! wfasic-align <a.fasta> <b.fasta> [--backend cpu|swg|riscv|device|multilane|hetero]
//!              [--lanes N] [--aligners N] [--no-backtrace] [--cycles]
//!              [--strategy auto|exact|biwfa]
//! ```
//!
//! Records are paired by position (record `i` of `a.fasta` vs record `i` of
//! `b.fasta`) and routed through the streaming [`AlignmentService`] over the
//! chosen backend (`device` by default — the paper's taped-out
//! configuration). Output is one line per pair: id, status, score, and CIGAR
//! (when backtrace is enabled), plus an optional cycle summary.
//!
//! `--lanes` (for `multilane`/`hetero`, default 4) takes 1–8: each lane
//! stages its jobs in its own 32 MiB window of the SoC's 256 MiB memory.
//! `--aligners` takes 1–61: each Aligner records on its own perf track.
//!
//! `--strategy` picks the engine for CPU-routed pairs: `auto` (default)
//! runs the exact engine and hands a pair to the linear-memory BiWFA
//! engine once its retained bytes pass a fixed budget (1 MiB); `exact`
//! and `biwfa` force one engine. Every strategy is exact, so all three
//! print the same scores.
//!
//! Exit codes: 0 success, 1 I/O or alignment failure, 2 usage error,
//! 3 device/driver error (watchdog, refused job, corrupt result stream),
//! 4 service backpressure.

use std::collections::HashMap;
use std::fs::File;
use std::io::BufReader;
use wfasic::accel::AccelConfig;
use wfasic::driver::batch::BatchJob;
use wfasic::driver::{AlignPolicy, AlignStrategy, BackendKind, MemLayout};
use wfasic::seqio::fasta::read_fasta;
use wfasic::seqio::Pair;
use wfasic::service::{AlignmentService, ServiceConfig, ServiceError};
use wfasic::soc::perf::track;
use wfasic::soc::MainMemory;

const EXIT_IO: i32 = 1;
const EXIT_USAGE: i32 = 2;
const EXIT_DRIVER: i32 = 3;
const EXIT_BACKPRESSURE: i32 = 4;

fn usage() -> ! {
    eprintln!(
        "usage: wfasic-align <a.fasta> <b.fasta> \
         [--backend cpu|swg|riscv|device|multilane|hetero] [--lanes N] \
         [--aligners N] [--no-backtrace] [--cycles] \
         [--strategy auto|exact|biwfa]"
    );
    std::process::exit(EXIT_USAGE);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut files: Vec<&str> = Vec::new();
    let mut backend = BackendKind::Device;
    let mut lanes = 4usize;
    let mut backtrace = true;
    let mut aligners = 1usize;
    let mut show_cycles = false;
    let mut strategy = AlignStrategy::Auto;
    // Each lane stages its jobs in its own window of the SoC's memory, and
    // each Aligner records on its own perf track below the lane stride.
    let max_lanes = MainMemory::with_default_cap().cap() as u64 / MemLayout::LANE_BYTES;
    let max_aligners = u64::from(track::LANE_STRIDE - track::ALIGNER0);
    let in_range = |max: u64| move |&n: &usize| (1..=max).contains(&(n as u64));
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--no-backtrace" => backtrace = false,
            "--cycles" => show_cycles = true,
            "--strategy" => {
                i += 1;
                strategy = match args.get(i).map(|s| s.parse::<AlignStrategy>()) {
                    Some(Ok(s)) => s,
                    Some(Err(e)) => {
                        eprintln!("{e}");
                        std::process::exit(EXIT_USAGE);
                    }
                    None => usage(),
                };
            }
            "--backend" => {
                i += 1;
                backend = match args.get(i).map(|s| s.parse::<BackendKind>()) {
                    Some(Ok(kind)) => kind,
                    Some(Err(e)) => {
                        eprintln!("{e}");
                        std::process::exit(EXIT_USAGE);
                    }
                    None => usage(),
                };
            }
            "--lanes" => {
                i += 1;
                lanes = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(in_range(max_lanes))
                    .unwrap_or_else(|| usage());
            }
            "--aligners" => {
                i += 1;
                aligners = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(in_range(max_aligners))
                    .unwrap_or_else(|| usage());
            }
            "--help" | "-h" => usage(),
            other if !other.starts_with('-') => files.push(other),
            _ => usage(),
        }
        i += 1;
    }
    if files.len() != 2 {
        usage();
    }

    let read = |path: &str| {
        let file = File::open(path).unwrap_or_else(|e| {
            eprintln!("cannot open {path}: {e}");
            std::process::exit(EXIT_IO);
        });
        read_fasta(BufReader::new(file)).unwrap_or_else(|e| {
            eprintln!("cannot parse {path}: {e}");
            std::process::exit(EXIT_IO);
        })
    };
    let recs_a = read(files[0]);
    let recs_b = read(files[1]);
    if recs_a.len() != recs_b.len() {
        eprintln!(
            "record count mismatch: {} has {}, {} has {}",
            files[0],
            recs_a.len(),
            files[1],
            recs_b.len()
        );
        std::process::exit(EXIT_IO);
    }
    if recs_a.is_empty() {
        eprintln!("no records");
        std::process::exit(EXIT_IO);
    }

    let pairs: Vec<Pair> = recs_a
        .iter()
        .zip(&recs_b)
        .enumerate()
        .map(|(i, (ra, rb))| Pair::new(i as u32, ra.seq.clone(), rb.seq.clone()))
        .collect();

    let policy = AlignPolicy {
        strategy,
        ..AlignPolicy::default()
    };

    let cfg = AccelConfig::wfasic_chip().with_aligners(aligners);
    let svc_cfg = ServiceConfig {
        policy,
        ..ServiceConfig::default()
    };
    let mut svc = AlignmentService::with_backend(backend, cfg, lanes, svc_cfg);
    let job = BatchJob {
        pairs,
        backtrace,
        deadline: None,
    };
    let ticket = svc
        .submit(job)
        .unwrap_or_else(|e @ ServiceError::Backpressure { .. }| {
            eprintln!("service refused the job: {e}");
            std::process::exit(EXIT_BACKPRESSURE);
        });
    let completed = svc.try_next().expect("one job was queued");
    debug_assert_eq!(completed.ticket, ticket);
    let batch = completed.outcome.unwrap_or_else(|e| {
        eprintln!("alignment job failed: {e}");
        std::process::exit(EXIT_DRIVER);
    });

    // Per-pair device cycles, when a device-backed backend ran the pair
    // (the hardware reports IDs truncated to the record format's 16 bits).
    let pair_cycles: HashMap<u32, (u64, u64)> = batch
        .reports
        .iter()
        .flat_map(|r| &r.pairs)
        .map(|p| (p.id, (p.align_cycles, p.read_cycles)))
        .collect();

    for (res, ra) in batch.results.iter().zip(&recs_a) {
        let status = if res.success { "OK" } else { "FAIL" };
        let cigar = res
            .cigar
            .as_ref()
            .map(|c| c.to_rle_string())
            .unwrap_or_else(|| "-".to_string());
        print!(
            "{}\t{}\tscore={}\tcigar={}",
            ra.name, status, res.score, cigar
        );
        if show_cycles {
            match pair_cycles.get(&(res.id & 0xFFFF)) {
                Some((align, read)) => {
                    print!("\talign_cycles={align}\tread_cycles={read}")
                }
                None => print!("\talign_cycles=-\tread_cycles=-"),
            }
        }
        println!();
    }
    if show_cycles {
        let counters = svc.backend_counters();
        match batch.sim_cycles {
            Some(cycles) => eprintln!(
                "job: {} simulated cycles on backend '{}' ({} recovered on CPU)",
                cycles,
                backend.name(),
                counters.recovered_pairs
            ),
            None => eprintln!(
                "job: software backend '{}' (no simulated cycles)",
                backend.name()
            ),
        }
    }
}
