//! # wfasic — behavioral Rust reproduction of the WFAsic system
//!
//! Facade over the workspace crates reproducing *WFAsic: A High-Performance
//! ASIC Accelerator for DNA Sequence Alignment on a RISC-V SoC* (ICPP 2023):
//!
//! * [`wfa`] (`wfa-core`) — the exact gap-affine WaveFront Alignment
//!   algorithm, the SWG baseline, CIGARs, packed sequences;
//! * [`seqio`] — synthetic workloads, datasets, and the accelerator's
//!   memory wire formats;
//! * [`soc`] — SoC substrate models (memory, buses, DMA, FIFOs, caches);
//! * [`riscv`] — RV64IM interpreter + assembler + Sargantana timing model;
//! * [`accel`] — the cycle-level WFAsic accelerator model;
//! * [`driver`] — the CPU side: driver API, execution backends, backtrace,
//!   cycle models;
//! * [`service`] — the streaming alignment engine: a bounded queue and one
//!   policy home over any [`driver::AlignmentBackend`].
//!
//! ## Quickstart
//!
//! ```
//! use wfasic::driver::WfasicDriver;
//! use wfasic::accel::AccelConfig;
//! use wfasic::seqio::InputSetSpec;
//!
//! // Generate a small 100bp / 5% error input set and run it through the
//! // accelerator with backtrace enabled.
//! let pairs = InputSetSpec { length: 100, error_pct: 5 }.generate(4, 42).pairs;
//! let mut drv = WfasicDriver::new(AccelConfig::wfasic_chip());
//! let job = drv.submit(&pairs, true).expect("job failed");
//! for (res, pair) in job.results.iter().zip(&pairs) {
//!     assert!(res.success);
//!     res.cigar.as_ref().unwrap().check(&pair.a.bytes(), &pair.b.bytes()).unwrap();
//! }
//! ```

pub use wfa_core as wfa;
pub use wfasic_accel as accel;
pub use wfasic_driver as driver;
pub use wfasic_riscv as riscv;
pub use wfasic_seqio as seqio;
pub use wfasic_service as service;
pub use wfasic_soc as soc;
