//! Shared helpers for the KIFF experiment harness.
//!
//! The entry point is the `experiments` binary (`src/bin/experiments.rs`),
//! which regenerates every table and figure of the paper and runs the
//! bench-smoke gates. Each experiment writes `<id>.txt` and `<id>.json`
//! through [`experiments::Ctx::finish`].

pub mod datasets;
pub mod experiments;
pub mod runner;

pub use datasets::SuiteScale;
