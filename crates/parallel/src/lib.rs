#![warn(missing_docs)]

//! Minimal scoped parallel runtime for the KIFF workspace.
//!
//! The paper's implementations are "multi-threaded to parallelize the
//! treatment of individual users" (§IV). All three algorithms here share the
//! same shape: a loop over users whose iterations are independent except for
//! synchronized heap updates. That needs nothing more than:
//!
//! * [`parallel_for`] — dynamically scheduled chunked parallel iteration
//!   over an index range, built on [`std::thread::scope`];
//! * [`parallel_fold`] — the same with per-thread accumulators merged at
//!   the end;
//! * [`parallel_for_each_mut`] — exclusive mutable iteration over a slice
//!   of worker states (the sharded online engine's shard-execution step);
//! * [`SharedSlice`] — disjoint-range mutable access to one shared output
//!   slice (the flat-CSR assembly's write primitive);
//! * [`ScratchPool`] — a checkout pool of reusable scratch objects
//!   (scorer workspaces, gather buffers) whose capacity survives across
//!   chunks and driver iterations;
//! * [`Counter`] / [`TimeAccumulator`] — relaxed atomic counters and
//!   per-activity wall-clock accumulators safe to update from any worker;
//! * [`ViewCell`] / [`ViewCache`] — epoch-published immutable views and
//!   the per-reader memo that loads them (the serving layer's lock-free
//!   read path).
//!
//! Work is handed out through a shared atomic cursor in `grain`-sized
//! chunks, so skewed per-user costs (ubiquitous under power-law degree
//! distributions) cannot starve the pool.

pub mod counters;
pub mod pool;
pub mod scratch;
pub mod shared;
pub mod view;

pub use counters::{Counter, ScopedTimer, TimeAccumulator};
pub use pool::{effective_threads, parallel_fold, parallel_for, parallel_for_each_mut};
pub use scratch::{ScratchGuard, ScratchPool};
pub use shared::SharedSlice;
pub use view::{ViewCache, ViewCell};
