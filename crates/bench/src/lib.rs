//! # adaedge-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! AdaEdge paper's evaluation (§V). Each `fig*` binary prints the rows /
//! series of the corresponding figure; `benches/codecs.rs` holds the
//! Criterion microbenchmarks behind the throughput numbers.
//!
//! Shared here: experiment setup (frozen models, streams, sweeps), table
//! printing, and JSON result emission so EXPERIMENTS.md can be
//! regenerated mechanically.

#![warn(missing_docs)]

pub mod agg_figure;
pub mod harness;
pub mod setup;

pub use harness::{print_table, ratio_sweep, MethodSeries};
pub use setup::{
    frozen_model, offline_ml_config, offline_ml_loss, ModelKind, INSTANCE_LEN, SEGMENT_LEN,
};
