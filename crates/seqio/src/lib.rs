//! # wfasic-seqio — sequences, synthetic workloads, and wire formats
//!
//! Input-side substrate of the WFAsic reproduction:
//!
//! * [`generate`] — the paper's synthetic pair generator (uniform random
//!   mismatches/insertions/deletions at a nominal error rate, §5.3);
//! * [`dataset`] — the six standard input sets of Table 1 / Figs. 9-11;
//! * [`memimage`] — the exact main-memory layouts the accelerator's DMA,
//!   Extractor and Collectors produce/consume (16-byte sections, NBT result
//!   records, BT transactions, 5-bit origin codes);
//! * [`technology`] — PacBio/ONT-style long-read presets (length band,
//!   error rate, edit mix) for the long-read bench and examples;
//! * [`fasta`] — minimal FASTA I/O for the examples.

pub mod dataset;
pub mod fasta;
pub mod generate;
pub mod memimage;
pub mod technology;

pub use dataset::{round_up_16, InputSet, InputSetSpec};
pub use generate::{ErrorProfile, Pair, PairGenerator};
pub use memimage::{BtScoreRecord, BtTxn, InputImage, NbtRecord};
pub use technology::Technology;
pub use wfa_core::seq::Seq;
