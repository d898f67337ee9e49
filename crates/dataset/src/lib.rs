#![warn(missing_docs)]

//! Sparse bipartite user–item datasets for KNN graph construction.
//!
//! KIFF (Boutet et al., ICDE 2016) targets datasets "in which nodes are
//! associated to items, and similarity is computed on the basis of these
//! items": users rating movies, editors voting on candidates, authors
//! co-signing papers, people checking into venues. This crate provides:
//!
//! * [`Dataset`] / [`DatasetBuilder`] — CSR-backed storage of user profiles
//!   (`UP_u`) with lazily derived item profiles (`IP_i`), the two views of
//!   the labelled bipartite graph `G = (U ∪ I, E, ρ)` of §III-A;
//! * [`delta`] — a mutable overlay over the frozen CSR for streaming
//!   workloads: copy-on-write user profiles and item rows, folded back
//!   into a fresh CSR by batched re-compaction (the `kiff-online`
//!   engine's storage layer), and [`FrozenDelta`], an immutable capture
//!   of it that shares the base and every profile by `Arc`;
//! * [`io`] — SNAP-style TSV and MovieLens loaders/writers plus a JSON dump
//!   format;
//! * [`codec`] — a versioned binary dataset codec for snapshot
//!   persistence (bit-exact rating round-trips, validated on load);
//! * [`generators`] — synthetic dataset generators calibrated to the four
//!   evaluation datasets of the paper (Table I) and the MovieLens-1M family
//!   (Table IX), used here because the original public datasets cannot be
//!   downloaded in an offline environment (see DESIGN.md §3);
//! * [`density`] — the paper's density-family derivation: progressively
//!   removing randomly chosen ratings (§V-B3);
//! * [`stats`] — dataset descriptors matching Table I and profile-size
//!   distributions matching Fig. 4.

pub mod codec;
pub mod dataset;
pub mod delta;
pub mod density;
pub mod generators;
pub mod io;
pub mod stats;
pub mod types;
pub mod zipf;

pub use dataset::{Dataset, DatasetBuilder};
pub use delta::{DeltaDataset, FrozenDelta, ProfileStats};
pub use density::{ml_family, subsample_ratings};
pub use generators::presets::{paper_k, reduced_k, PaperDataset};
pub use stats::DatasetStats;
pub use types::{ItemId, ProfileRef, Rating, UserId};
