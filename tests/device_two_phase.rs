//! The device's two host phases are invisible: a job run with phase 1
//! aligning its records on every host thread gives exactly the report,
//! memory and registers of the same job run inline.
//!
//! The inline side runs inside a [`ThreadPool`] worker, where the device's
//! nesting rule aligns every record in phase 2. The other side runs on the
//! test thread and splits whenever the host has more than one thread. Each
//! comparison covers the whole `RunReport` (per-pair reports, total cycles,
//! `JobPerf` spans and attribution, bus statistics, per-job fault counters,
//! the error), every byte of main memory, the device's status, error and
//! perf-counter registers and its cumulative fault counters.

use wfasic::accel::device::PAIRS_PER_WORKER;
use wfasic::accel::regs::{error_code, offsets};
use wfasic::accel::{AccelConfig, WfasicDevice};
use wfasic::seqio::memimage::{pair_record_bytes, InputImage};
use wfasic::seqio::InputSetSpec;
use wfasic::soc::clock::Cycle;
use wfasic::soc::fault::{FaultPlan, Storm};
use wfasic::soc::perf::Stage;
use wfasic::soc::MainMemory;
use wfasic::wfa::pool::{available_threads, in_worker, ThreadPool};

const IN_ADDR: u64 = 0x1000;
const OUT_ADDR: u64 = 0x40_0000;

/// One device job.
#[derive(Clone, Copy)]
struct Job {
    spec: InputSetSpec,
    pairs: usize,
    seed: u64,
    backtrace: bool,
    aligners: usize,
    /// Programmed MAX_READ_LEN (`None`: the set's longest read).
    max_read_len: Option<u64>,
    out_addr: u64,
    out_size: u64,
    plan: Option<FaultPlan>,
}

impl Job {
    fn new(length: usize, error_pct: u32, pairs: usize, backtrace: bool) -> Self {
        Job {
            spec: InputSetSpec { length, error_pct },
            pairs,
            seed: 7,
            backtrace,
            aligners: 1,
            max_read_len: None,
            out_addr: OUT_ADDR,
            out_size: 0,
            plan: None,
        }
    }

    fn max_read_len(&self) -> usize {
        self.spec.generate(self.pairs, self.seed).max_read_len()
    }
}

/// Everything a job leaves behind.
struct Observed {
    /// `Debug` of the whole `RunReport`: every field, floats to the bit.
    report: String,
    pair_outcomes: Vec<(u32, bool, u32)>,
    memory: Vec<u8>,
    registers: Vec<u64>,
    fault_counters: String,
}

fn run(job: &Job) -> Observed {
    let set = job.spec.generate(job.pairs, job.seed);
    let max = set.max_read_len();
    let img = InputImage::encode(&set.pairs, max);
    let mut mem = MainMemory::with_default_cap();
    mem.write(IN_ADDR, &img.bytes);

    let mut dev = WfasicDevice::new(AccelConfig::wfasic_chip().with_aligners(job.aligners));
    if let Some(plan) = job.plan {
        dev.set_fault_plan(plan);
    }
    for (reg, value) in [
        (offsets::BT_ENABLE, job.backtrace as u64),
        (
            offsets::MAX_READ_LEN,
            job.max_read_len.unwrap_or(max as u64),
        ),
        (offsets::IN_ADDR, IN_ADDR),
        (offsets::IN_SIZE, img.bytes.len() as u64),
        (offsets::OUT_ADDR, job.out_addr),
        (offsets::OUT_SIZE, job.out_size),
        (offsets::PERF_CTRL, 1),
        (offsets::IRQ_ENABLE, 1),
        (offsets::START, 1),
    ] {
        dev.mmio_write(reg, value);
    }
    let report = dev.run(&mut mem);
    let mut registers: Vec<u64> = [
        offsets::IDLE,
        offsets::OUT_BYTES,
        offsets::JOB_CYCLES,
        offsets::ERROR_CODE,
        offsets::ERROR_INFO,
        offsets::IRQ_PENDING,
    ]
    .into_iter()
    .map(|r| dev.mmio_read(r))
    .collect();
    registers.extend(Stage::ALL.map(|s| dev.mmio_read(offsets::perf_counter(s))));
    Observed {
        pair_outcomes: report
            .pairs
            .iter()
            .map(|p| (p.id, p.success, p.score))
            .collect(),
        report: format!("{report:?}"),
        memory: mem.read(0, mem.len()),
        registers,
        fault_counters: format!("{:?}", dev.fault_counters()),
    }
}

/// Run `f` inside a pool worker, where the device never splits a job.
fn inline<R: Send>(f: impl Fn() -> R + Sync) -> R {
    let mut out = ThreadPool::new(2).map(&[false, true], |_, &go| {
        go.then(|| {
            assert!(in_worker());
            f()
        })
    });
    out.pop().flatten().expect("the second worker ran the job")
}

/// Run `job` both ways, assert they agree, and return what it left.
fn same_both_ways(job: &Job) -> Observed {
    assert!(!in_worker(), "the test thread may split the job");
    let split = run(job);
    let serial = inline(|| run(job));
    assert_eq!(split.report, serial.report, "RunReport");
    assert_eq!(split.registers, serial.registers, "registers");
    assert_eq!(
        split.fault_counters, serial.fault_counters,
        "fault counters"
    );
    assert!(split.memory == serial.memory, "main memory differs");
    split
}

#[test]
fn backtrace_and_score_only_jobs_match_the_inline_path() {
    for backtrace in [true, false] {
        let got = same_both_ways(&Job::new(200, 10, 9, backtrace));
        assert_eq!(got.pair_outcomes.len(), 9);
        assert!(got.pair_outcomes.iter().all(|&(_, ok, _)| ok));
    }
    // Two Aligners interleave completions; the split must not care.
    same_both_ways(&Job {
        aligners: 2,
        ..Job::new(150, 10, 7, true)
    });
}

#[test]
fn one_pair_and_multi_window_jobs_match_the_inline_path() {
    let one = same_both_ways(&Job::new(300, 10, 1, true));
    assert_eq!(one.pair_outcomes.len(), 1);
    // More pairs than one phase-1 window holds on this host.
    let pairs = PAIRS_PER_WORKER * available_threads() + 3;
    let many = same_both_ways(&Job::new(32, 5, pairs, false));
    assert_eq!(many.pair_outcomes.len(), pairs);
}

#[test]
fn bus_bit_flips_are_realigned_from_the_bytes_read() {
    let clean = Job::new(100, 5, 8, false);
    let flipped = Job {
        plan: Some(FaultPlan {
            bit_flip_per_beat: 0.05,
            ..FaultPlan::none()
        }),
        ..clean
    };
    // Faults armed only for part of the job, [300, 900): a storm whose
    // period never ends.
    let windowed = Job {
        plan: Some(FaultPlan {
            bit_flip_per_beat: 0.2,
            storm: Some(Storm {
                period: Cycle::MAX,
                on: 600,
                offset: 300,
            }),
            ..FaultPlan::none()
        }),
        ..clean
    };
    let base = same_both_ways(&clean);
    for job in [flipped, windowed] {
        let got = same_both_ways(&job);
        // A pair answered from the clean bytes phase 1 read would match
        // the fault-free run; the corrupted ones must not.
        assert_ne!(
            got.pair_outcomes, base.pair_outcomes,
            "no flip reached a record"
        );
        assert!(got.pair_outcomes.iter().any(|&(_, ok, _)| !ok));
    }
}

#[test]
fn results_written_over_unread_input_records_are_realigned() {
    // The output window starts on the second input record, so the first
    // pair's backtrace stream overwrites records the device reads later.
    let job = Job::new(100, 10, 6, true);
    let rec = pair_record_bytes(job.max_read_len()) as u64;
    let overlapping = Job {
        out_addr: IN_ADDR + rec,
        ..job
    };
    let base = same_both_ways(&job);
    let got = same_both_ways(&overlapping);
    assert_eq!(got.pair_outcomes.len(), 6);
    assert_eq!(got.pair_outcomes[0], base.pair_outcomes[0]);
    assert_ne!(
        got.pair_outcomes, base.pair_outcomes,
        "no record was overwritten"
    );
}

#[test]
fn an_output_overrun_aborts_identically() {
    let job = Job {
        out_size: 2048,
        ..Job::new(200, 10, 8, true)
    };
    let got = same_both_ways(&job);
    assert_eq!(got.registers[3], error_code::OUT_OVERRUN);
    assert!(got.pair_outcomes.len() < 8, "the job aborted mid-way");
}

#[test]
fn a_refused_job_matches_the_inline_path() {
    let got = same_both_ways(&Job {
        max_read_len: Some(100),
        ..Job::new(100, 5, 4, false)
    });
    assert_eq!(got.registers[3], error_code::BAD_MAX_READ_LEN);
    assert!(got.pair_outcomes.is_empty());
}
