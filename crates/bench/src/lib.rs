//! # wfasic-bench — experiment harnesses for every table and figure
//!
//! * [`experiments`] — runners regenerating Table 1, Fig. 9, Fig. 10,
//!   Fig. 11 and Table 2 from the full co-design simulation, plus the
//!   per-stage perf breakdown and Chrome trace emission;
//! * [`backends`] — the execution-backend comparison behind
//!   `report -- backends` (aligns/s + simulated cycles per backend);
//! * [`baseline`] — the CI cycle-regression gate behind
//!   `report -- ci-check`, and the baseline comparison every gate shares;
//! * [`gate`] — the one gate engine: the table of gated subcommands
//!   (`ci-check`, `dse`, `cosim`, `longread`, `host`, `chaos`), their
//!   shared [`gate::RunOptions`], and the record/check/bless driver;
//! * [`paper`] — the paper's reported numbers for side-by-side printing;
//! * [`report`] — the formatted reports (also used by the `report` binary);
//! * [`host`] — the host wall-clock throughput benchmark behind
//!   `report -- host` (alignments/sec, cells/sec, 1 vs N threads);
//! * [`chaos`] — the chaos soak behind `report -- chaos`: storms, cycle
//!   deadlines, envelope violators and backpressure churn against the
//!   streaming service, with no-drop/no-stuck-lane invariants enforced;
//! * [`cosim`] — the differential co-simulation sweep behind
//!   `report -- cosim`: the ISA WFA kernels on the RV64IM interpreter vs
//!   `wfa_align`, the analytic Sargantana models, the RISC-V backend
//!   counters and the simulated device, CI-gated per workload class;
//! * [`dse`] — the design-space exploration sweep behind `report -- dse`:
//!   lanes × sections × banking × bus × clock through the multi-lane SoC,
//!   joined with the area model into a CI-gated Pareto frontier;
//! * [`longread`] — the long-read scale-out bench behind
//!   `report -- longread`: technology-shaped read sets through the
//!   heterogeneous router, CI-gated strategy tallies and the measured
//!   BiWFA memory reduction;
//! * [`pool`] — the deterministic host thread pool (re-export of
//!   [`wfa_core::pool`]);
//! * [`fmt`] — table rendering.
//!
//! `cargo run -p wfasic-bench --release --bin report -- all` prints every
//! regenerated table/figure; `report host` times the host kernels on the
//! in-repo [`timing`] harness.

pub mod backends;
pub mod baseline;
pub mod chaos;
pub mod cosim;
pub mod dse;
pub mod experiments;
pub mod fmt;
pub mod gate;
pub mod host;
pub mod longread;
pub mod paper;
pub mod pool;
pub mod report;
pub mod timing;
