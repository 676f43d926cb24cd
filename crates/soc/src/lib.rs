//! # wfasic-soc — System-on-Chip substrate models
//!
//! Behavioral models of everything in the paper's Fig. 3 that isn't the
//! accelerator or the CPU core proper:
//!
//! * [`mem`] — byte-addressable main memory (functional);
//! * [`arbiter`] — the shared memory-controller arbiter that serializes
//!   transfers across multi-lane SoC configurations and accounts per-lane
//!   arbitration waits;
//! * [`bus`] — AXI-Full burst timing with shared-port contention (the
//!   mechanism behind Table 1's reading cycles and Fig. 10's saturation) and
//!   the AXI-Lite configuration path;
//! * [`dma`] — the accelerator's DMA engine;
//! * [`fifo`] — show-ahead FIFOs plus the checked single-port RAM wrapper of
//!   the ASIC memory implementation (§4.6);
//! * [`fault`] — seeded deterministic fault injection (bit flips, dropped/
//!   duplicated beats, stalls, MMIO corruption) consulted by the bus, DMA
//!   and FIFOs, reproducing the paper's §5.1 broken-data campaign;
//! * [`cache`] — L1/L2/DRAM hierarchy timing for the CPU models;
//! * [`mmio`] — the memory-mapped register file;
//! * [`perf`] — cycle-attribution performance counters ([`perf::Stage`],
//!   [`perf::TraceSink`], the timeline attribution) and Chrome
//!   `trace_event` export, consulted by the bus, FIFOs and every device
//!   model when tracing is enabled;
//! * [`clock`] — cycle bookkeeping and frequency constants.

pub mod arbiter;
pub mod bus;
pub mod cache;
pub mod clock;
pub mod dma;
pub mod fault;
pub mod fifo;
pub mod mem;
pub mod mmio;
pub mod perf;

pub use arbiter::{ArbiterStats, BusArbiter, LaneArbStats};
pub use bus::{AxiLite, BusConfig, BusStats, MemoryBus};
pub use cache::{Cache, MemHierarchy};
pub use clock::{cycles_to_seconds, BusyUnit, Cycle, SARGANTANA_HZ, WFASIC_ASIC_HZ};
pub use dma::{DmaEngine, DmaStats};
pub use fault::{FaultCounters, FaultInjector, FaultPlan};
pub use fifo::{FifoFull, ShowAheadFifo, SinglePortFifo};
pub use mem::MainMemory;
pub use mmio::RegFile;
pub use perf::{
    attribute_timeline, attribute_window, JobPerf, PerfCounters, Span, Stage, TraceSink,
};
