//! # gnn4tdl-bench
//!
//! The experiment harness reproducing every table and figure of the survey
//! as an empirical study (see DESIGN.md's experiment index), plus the
//! `chaos` fault-injection binary.
//!
//! Run everything with:
//! ```text
//! cargo run --release -p gnn4tdl-bench --bin experiments -- all
//! ```
//!
//! Performance is measured by `gnnbench/` (the benchmark of record); the
//! CI performance floors are the `gate_*` tests, run with
//! `cargo test --release --workspace -q -- --ignored --test-threads=1 gate_`.

#![allow(clippy::needless_range_loop)] // index loops over matrix coordinates read better in numeric kernels
#![allow(clippy::type_complexity)] // index loops over matrix coordinates read better in numeric kernels

pub mod experiments;
pub mod report;
pub mod workloads;
