#![warn(missing_docs)]

//! Core collection primitives shared by the KIFF workspace.
//!
//! The KIFF algorithm (Boutet et al., ICDE 2016) is dominated by a handful of
//! low-level operations: counting shared items between users and building
//! compressed sparse rows out of edge streams. This crate provides small,
//! dependency-free building blocks for them:
//!
//! * [`hash`] — an FxHash-style fast hasher plus [`FxHashMap`]/[`FxHashSet`]
//!   aliases (the default SipHash is needlessly slow for `u32` keys).
//! * [`radix`] — least-significant-digit radix sort for `u32` keys, the
//!   workhorse of sort-based candidate counting.
//! * [`csr`] — a compressed-sparse-row builder for bipartite adjacency.
//! * [`bitset`] — a fixed-capacity bitset for candidate deduplication.
//! * [`counter`] — multiplicity counters (hash-based, sort-based, and
//!   epoch-stamped dense).
//! * [`unionfind`] — disjoint-set forest for component analysis.
//! * [`prefetch`](mod@prefetch) — a software prefetch hint for rows read a
//!   few steps later.

pub mod bitset;
pub mod counter;
pub mod csr;
pub mod hash;
pub mod prefetch;
pub mod radix;
pub mod unionfind;

pub use bitset::FixedBitSet;
pub use counter::{count_sorted_runs, DenseCounter, SparseCounter};
pub use csr::{Csr, CsrBuilder};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use prefetch::prefetch;
pub use radix::radix_sort_u32;
pub use unionfind::UnionFind;
