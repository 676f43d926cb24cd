//! # wfa-core — exact gap-affine WaveFront Alignment
//!
//! The algorithm library at the heart of the WFAsic reproduction
//! (Haghi et al., *WFAsic: A High-Performance ASIC Accelerator for DNA
//! Sequence Alignment on a RISC-V SoC*, ICPP 2023).
//!
//! It implements, from scratch:
//!
//! * the exact gap-affine **WFA** (paper Eq. 3/4) with a backtrace over
//!   the chip's 5-bit origin bundles, score-only bounded-memory mode and
//!   work statistics ([`wfa`], [`wavefront`], [`origins`]); the chip's
//!   `k_max` / `Score_max` limits belong to the device model, not to
//!   these engines;
//! * the bidirectional linear-memory **BiWFA** for long reads, with the
//!   same exact score in `O(s)` retained memory ([`biwfa`]);
//! * the **Smith-Waterman-Gotoh** full-DP baseline (Eq. 2) as the
//!   correctness oracle and CUPS reference ([`swg`]);
//! * 2-bit **packed sequences** with machine-word extension — the functional
//!   model of the hardware Extend sub-module ([`bitpack`]); the software
//!   engines above run on bytes.
//!
//! ## Quickstart
//!
//! ```
//! use wfa_core::{wfa_align, Penalties, WfaOptions};
//!
//! let a = b"GATTACAGATTACA";
//! let b = b"GATCACAGATTACA";
//! let r = wfa_align(a, b, &WfaOptions::exact(Penalties::WFASIC_DEFAULT)).unwrap();
//! assert_eq!(r.score, 4); // one mismatch under (x, o, e) = (4, 6, 2)
//! let cigar = r.cigar.unwrap();
//! assert_eq!(cigar.to_rle_string(), "3M1X10M");
//! cigar.check(a, b).unwrap();
//! ```

pub mod arena;
pub mod bitpack;
pub mod biwfa;
pub mod cigar;
pub mod kernel;
pub mod origins;
pub mod penalties;
pub mod pool;
pub mod prop;
pub mod rng;
pub mod seq;
pub mod swg;
pub mod wavefront;
pub mod wfa;

pub use arena::WavefrontArena;
pub use bitpack::PackedSeq;
pub use cigar::{Cigar, CigarError, EditStats, Op};
pub use penalties::{Penalties, PenaltyError};
pub use rng::SmallRng;
pub use seq::Seq;
pub use swg::{swg_align, swg_score, DpAlignment};
pub use wavefront::{Wavefront, WavefrontSet, OFFSET_NULL};
pub use wfa::{
    wfa_align, wfa_align_seqs, wfa_align_seqs_with_arena, AlignStrategy, WfaAlignment, WfaError,
    WfaOptions, WfaStats, EXACT_BYTE_BUDGET,
};
