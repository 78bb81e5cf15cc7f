//! # rigid-bench — the experiment harness
//!
//! Regenerates every figure, table and theorem-level claim of the SPAA'25
//! CatBatch paper (experiments E01–E16; see DESIGN.md for the index), and
//! hosts the `catbatch bench` scenario matrix ([`perf`]) and the
//! `time_ablation` binary.
//!
//! Run individual experiments:
//!
//! ```text
//! cargo run -p rigid-bench --release --bin fig06_catbatch_run
//! cargo run -p rigid-bench --release --bin thm1_ratio_n
//! ```
//!
//! Or everything at once:
//!
//! ```text
//! cargo run -p rigid-bench --release --bin all_experiments
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod harness;
pub mod perf;

pub use harness::{Sched, Table};
