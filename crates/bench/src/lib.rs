//! Experiment harness for the BoFL reproduction: one module per table or
//! figure of the paper's evaluation (§6), run by the `reproduce` binary.
//! The crate also holds `bench_check`, the parent-vs-change gate over
//! the `perfbench` benchmark.
//!
//! Every experiment function returns a [`report::Report`] — a set of named
//! CSV-able tables plus a human-readable rendering — so the binary can
//! both print and persist results, and tests can assert on the numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;

pub use report::{Report, Table};
