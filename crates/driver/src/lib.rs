//! # wfasic-driver — the CPU side of the co-design
//!
//! Everything the paper's Fig. 4 runs on the CPU:
//!
//! * [`api`] — the Linux-driver-style interface: [`WfasicDriver`], one
//!   device and its memory, whose `submit` is a one-lane call into [`job`];
//! * [`job`] — the one attempt loop every device job runs (stage, program
//!   the registers over AXI-Lite, start, wait, acknowledge, parse) under
//!   the one [`AlignPolicy`] that bounds, retries and rescues it;
//! * [`backend`] — the unified execution layer: every engine (software WFA,
//!   SWG reference, single-lane device, multi-lane SoC, heterogeneous
//!   CPU+accel) behind one [`AlignmentBackend`] trait;
//! * [`backtrace`] — the CPU backtrace over the accelerator's origin
//!   stream: multi-Aligner data separation, single-Aligner no-separation
//!   boundary detection, the origin walk, and match insertion (§4.5);
//! * [`batch`] — the multi-lane engine [`MultiLaneBackend`]: N lanes
//!   behind a shared-port arbiter, a queue of jobs dealt round-robin across
//!   them with DMA/compute overlap, a per-lane circuit breaker, and
//!   submission-order results;
//! * [`cpu_model`] — analytic Sargantana cycle models for the scalar and
//!   vectorized CPU WFA baselines and the CPU backtrace costs;
//! * [`codesign`] — end-to-end experiment execution (accelerator + CPU
//!   phases + baselines) used by every table/figure harness;
//! * [`faults`] — the unified failure taxonomy: every refusal anywhere in
//!   the stack maps to one [`Provenance`] (layer × lane × fault class).

pub mod api;
pub mod backend;
pub mod backtrace;
pub mod batch;
pub mod codesign;
pub mod cpu_model;
pub mod faults;
pub mod job;
pub mod riscv_backend;

pub use api::{AlignmentResult, DriverError, JobResult, MemLayout, WfasicDriver};
pub use backend::{
    AlignPolicy, AlignmentBackend, BackendBatch, BackendCounters, BackendKind, Capabilities,
    CpuRoute, CpuWfaBackend, HeterogeneousBackend, SwgBackend,
};
pub use backtrace::{backtrace_alignment_packed, BtAlignment, BtError, Edit};
pub use batch::{BatchJob, BatchResult, LaneHealth, LaneState, MultiLaneBackend};
pub use codesign::{run_experiment, ExperimentResult};
pub use cpu_model::{backtrace_cycles, software_backtrace_cycles, CpuCosts};
pub use faults::{FaultClass, FaultLayer, Provenance};
pub use riscv_backend::RiscvBackend;
pub use wfa_core::AlignStrategy;
