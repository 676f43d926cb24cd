//! The AXI-Lite register map (paper §3: "The WFAsic accelerator includes a
//! set of memory-mapped registers, and the CPU writes into these registers
//! the configuration of the accelerator").
//!
//! Error semantics (the §5.1 robustness campaign, made architectural):
//! malformed configuration never crashes the device. Instead the job is
//! refused (or aborted), `ERROR_CODE`/`ERROR_INFO` latch the reason, and the
//! device returns to `IDLE = 1`. The pair of registers is sticky until the
//! next *accepted* `START`.

/// Byte offsets of the memory-mapped registers.
pub mod offsets {
    /// Write 1 to start the configured job.
    pub const START: u64 = 0x00;
    /// (RO) Reads 1 while the accelerator is idle (polled by the CPU).
    pub const IDLE: u64 = 0x08;
    /// 1 = backtrace data generation enabled.
    pub const BT_ENABLE: u64 = 0x10;
    /// MAX_READ_LEN for the input set (multiple of 16).
    pub const MAX_READ_LEN: u64 = 0x18;
    /// Base address of the input set in main memory.
    pub const IN_ADDR: u64 = 0x20;
    /// Size of the input set in bytes.
    pub const IN_SIZE: u64 = 0x28;
    /// Base address where results are written.
    pub const OUT_ADDR: u64 = 0x30;
    /// 1 = raise an interrupt at job completion.
    pub const IRQ_ENABLE: u64 = 0x38;
    /// (RO) Bytes of results written by the last job.
    pub const OUT_BYTES: u64 = 0x40;
    /// (RO) Total cycles of the last job.
    pub const JOB_CYCLES: u64 = 0x48;
    /// (W1C) Sticky interrupt pending flag (write 1 to clear).
    pub const IRQ_PENDING: u64 = 0x50;
    /// (RO) Why the last job was refused or aborted (see [`super::error_code`]).
    pub const ERROR_CODE: u64 = 0x58;
    /// (RO) Detail for `ERROR_CODE` (the offending value or address).
    pub const ERROR_INFO: u64 = 0x60;
    /// Size of the output buffer in bytes (0 = unbounded, to end of memory).
    pub const OUT_SIZE: u64 = 0x68;
    /// Bit 0 = enable per-stage cycle attribution for subsequent jobs
    /// (the `mcountinhibit`-style control for the counter bank below).
    pub const PERF_CTRL: u64 = 0x70;
    /// (RO) Cycles attributed to Aligner frame-column computation.
    pub const PERF_COMPUTE: u64 = 0x78;
    /// (RO) Cycles attributed to the Aligner extend phase.
    pub const PERF_EXTEND: u64 = 0x80;
    /// (RO) Cycles attributed to per-score loop overhead.
    pub const PERF_SCORE_LOOP: u64 = 0x88;
    /// (RO) Cycles attributed to Extractor record decode.
    pub const PERF_EXTRACT: u64 = 0x90;
    /// (RO) Cycles attributed to device FSM control (refuse/abort).
    pub const PERF_CTRL_FSM: u64 = 0x98;
    /// (RO) Cycles attributed to result drain (DMA out).
    pub const PERF_DMA_OUT: u64 = 0xA0;
    /// (RO) Cycles attributed to input record transfer (DMA in).
    pub const PERF_DMA_IN: u64 = 0xA8;
    /// (RO) Cycles attributed to waiting for the shared bus grant.
    pub const PERF_BUS_WAIT: u64 = 0xB0;
    /// (RO) Cycles attributed to input-FIFO stalls.
    pub const PERF_FIFO_STALL: u64 = 0xB8;
    /// (RO) Cycles no unit was active.
    pub const PERF_IDLE: u64 = 0xC0;

    /// The read-only per-stage counter bank, in [`Stage`] priority order.
    /// After a job run with `PERF_CTRL` set, these sum exactly to
    /// `JOB_CYCLES` (the hardware-style accounting invariant); with
    /// `PERF_CTRL` clear they read 0.
    pub const PERF_COUNTERS: [u64; 10] = [
        PERF_COMPUTE,
        PERF_EXTEND,
        PERF_SCORE_LOOP,
        PERF_EXTRACT,
        PERF_CTRL_FSM,
        PERF_DMA_OUT,
        PERF_DMA_IN,
        PERF_BUS_WAIT,
        PERF_FIFO_STALL,
        PERF_IDLE,
    ];

    use wfasic_soc::perf::Stage;

    /// The MMIO counter register holding a stage's attributed cycles.
    pub fn perf_counter(stage: Stage) -> u64 {
        PERF_COUNTERS[stage as usize]
    }
}

/// `ERROR_CODE` values.
pub mod error_code {
    /// No error.
    pub const OK: u64 = 0;
    /// `MAX_READ_LEN` is zero, not a multiple of 16, or absurdly large.
    /// `ERROR_INFO` = the programmed value.
    pub const BAD_MAX_READ_LEN: u64 = 1;
    /// `IN_SIZE` is not a whole number of pair records.
    /// `ERROR_INFO` = the programmed size.
    pub const BAD_IN_SIZE: u64 = 2;
    /// `START` written while a job is pending or running. The write is
    /// ignored; the running job is unaffected.
    pub const START_WHILE_BUSY: u64 = 3;
    /// The result stream hit the end of the output buffer; the job was
    /// aborted. `ERROR_INFO` = the overflowing cursor address.
    pub const OUT_OVERRUN: u64 = 4;
    /// The input or output window falls outside addressable memory.
    /// `ERROR_INFO` = the offending address.
    pub const BAD_ADDR: u64 = 5;
    /// `run()` invoked without a latched `START`.
    pub const START_NOT_SET: u64 = 6;

    /// Human-readable name for an error code.
    pub fn name(code: u64) -> &'static str {
        match code {
            OK => "OK",
            BAD_MAX_READ_LEN => "BAD_MAX_READ_LEN",
            BAD_IN_SIZE => "BAD_IN_SIZE",
            START_WHILE_BUSY => "START_WHILE_BUSY",
            OUT_OVERRUN => "OUT_OVERRUN",
            BAD_ADDR => "BAD_ADDR",
            START_NOT_SET => "START_NOT_SET",
            _ => "UNKNOWN",
        }
    }

    /// All codes the hardware can latch (for coherence assertions).
    pub const ALL: [u64; 7] = [
        OK,
        BAD_MAX_READ_LEN,
        BAD_IN_SIZE,
        START_WHILE_BUSY,
        OUT_OVERRUN,
        BAD_ADDR,
        START_NOT_SET,
    ];
}

/// A latched `ERROR_CODE`/`ERROR_INFO` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceError {
    /// One of [`error_code`]'s constants.
    pub code: u64,
    /// The offending value or address.
    pub info: u64,
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} (code {}, info {:#x})",
            error_code::name(self.code),
            self.code,
            self.info
        )
    }
}

impl std::error::Error for DeviceError {}

/// A decoded job configuration, read from the register file when START is
/// written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobConfig {
    /// Backtrace enabled?
    pub backtrace: bool,
    /// MAX_READ_LEN programmed by the CPU.
    pub max_read_len: usize,
    /// Input base address.
    pub in_addr: u64,
    /// Input size in bytes.
    pub in_size: u64,
    /// Output base address.
    pub out_addr: u64,
    /// Output buffer size in bytes (0 = unbounded).
    pub out_size: u64,
    /// Interrupt on completion?
    pub irq_enable: bool,
}

impl JobConfig {
    /// Decode from a register file.
    pub fn from_regs(regs: &wfasic_soc::RegFile) -> JobConfig {
        JobConfig {
            backtrace: regs.peek(offsets::BT_ENABLE) != 0,
            max_read_len: regs.peek(offsets::MAX_READ_LEN) as usize,
            in_addr: regs.peek(offsets::IN_ADDR),
            in_size: regs.peek(offsets::IN_SIZE),
            out_addr: regs.peek(offsets::OUT_ADDR),
            out_size: regs.peek(offsets::OUT_SIZE),
            irq_enable: regs.peek(offsets::IRQ_ENABLE) != 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfasic_soc::RegFile;

    #[test]
    fn decode_from_regfile() {
        let mut regs = RegFile::new();
        regs.write(offsets::BT_ENABLE, 1);
        regs.write(offsets::MAX_READ_LEN, 9024);
        regs.write(offsets::IN_ADDR, 0x1000);
        regs.write(offsets::IN_SIZE, 0x2000);
        regs.write(offsets::OUT_ADDR, 0x8000);
        let job = JobConfig::from_regs(&regs);
        assert_eq!(
            job,
            JobConfig {
                backtrace: true,
                max_read_len: 9024,
                in_addr: 0x1000,
                in_size: 0x2000,
                out_addr: 0x8000,
                out_size: 0,
                irq_enable: false,
            }
        );
    }

    #[test]
    fn offsets_are_distinct() {
        use offsets::*;
        let mut all = vec![
            START,
            IDLE,
            BT_ENABLE,
            MAX_READ_LEN,
            IN_ADDR,
            IN_SIZE,
            OUT_ADDR,
            IRQ_ENABLE,
            OUT_BYTES,
            JOB_CYCLES,
            IRQ_PENDING,
            ERROR_CODE,
            ERROR_INFO,
            OUT_SIZE,
            PERF_CTRL,
        ];
        all.extend(PERF_COUNTERS);
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len());
    }

    #[test]
    fn perf_counter_bank_covers_every_stage() {
        use wfasic_soc::perf::Stage;
        let mut offs: Vec<u64> = Stage::ALL
            .iter()
            .map(|&s| offsets::perf_counter(s))
            .collect();
        offs.sort_unstable();
        offs.dedup();
        assert_eq!(offs.len(), Stage::COUNT);
        assert_eq!(offsets::perf_counter(Stage::Compute), offsets::PERF_COMPUTE);
        assert_eq!(offsets::perf_counter(Stage::Idle), offsets::PERF_IDLE);
    }

    #[test]
    fn error_codes_named_and_distinct() {
        let mut sorted = error_code::ALL.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), error_code::ALL.len());
        for &code in &error_code::ALL {
            assert_ne!(error_code::name(code), "UNKNOWN");
        }
        assert_eq!(error_code::name(999), "UNKNOWN");
        let e = DeviceError {
            code: error_code::BAD_IN_SIZE,
            info: 0x30,
        };
        assert_eq!(e.to_string(), "BAD_IN_SIZE (code 2, info 0x30)");
    }
}
