//! # wfasic-accel — the WFAsic accelerator model
//!
//! A cycle-level behavioral model of the paper's primary contribution: the
//! WFA ASIC accelerator of Fig. 5, with every module implemented:
//!
//! * [`config`] — structural/timing parameters (1 Aligner × 64 parallel
//!   sections, k_max 3998, 10K reads in the taped-out chip);
//! * [`regs`] — the AXI-Lite register map (Start/Idle/config/DMA);
//! * [`extractor`] — 16 B/cycle record decode, 2-bit packing into the
//!   Input_Seq RAM layout (ID @0, length @1, bases @2+), unsupported read
//!   detection ('N' bases, over-length);
//! * [`wavefront_ram`] — the banked wavefront window with duplicated edge
//!   banks and conflict-free batch access plans (Fig. 6);
//! * [`schedule`] — the deterministic wavefront schedule shared with the
//!   CPU backtrace;
//! * [`extend`] — the per-section Extend sub-module (16 bases/cycle
//!   comparison); the Compute sub-module (Eq. 3 with 5-bit origin
//!   tracking) is `wfa_core::kernel::compute_row_with_origins`;
//! * [`aligner`] — the per-score iteration with cycle accounting;
//! * [`collector`] — BT/NBT output packaging;
//! * [`device`] — the top level: DMA, dispatch, shared-bus contention,
//!   Start/Idle/interrupt protocol;
//! * [`multilane`] — N device instances (lanes) behind a shared memory
//!   controller with per-lane MMIO windows;
//! * [`area`] — the GF22FDX area/frequency/power budget model (Fig. 8,
//!   Table 2).

pub mod aligner;
pub mod area;
pub mod collector;
pub mod config;
pub mod device;
pub mod extend;
pub mod extractor;
pub mod multilane;
pub mod regs;
pub mod schedule;
pub mod structural;
pub mod wavefront_ram;

pub use aligner::{align_packed, align_packed_in, AlignerOutcome, AlignerScratch, AlignerStats};
pub use area::{area_report, AreaReport};
pub use config::AccelConfig;
pub use device::{PairReport, RunReport, WfasicDevice};
pub use multilane::MultiLaneSoc;
pub use regs::{offsets, JobConfig};
pub use schedule::WavefrontSchedule;
pub use structural::align_structural;
