#![warn(missing_docs)]

//! KIFF — the paper's contribution (Algorithm 1).
//!
//! KIFF constructs an approximate KNN graph in two phases:
//!
//! 1. **Counting phase** ([`counting`]): item profiles are derived from the
//!    user–item bipartite graph, and each user's **Ranked Candidate Set**
//!    (RCS) is assembled — every co-rater with a higher id (the pivot
//!    strategy of §II-D), ordered by decreasing number of shared items.
//! 2. **Refinement phase** ([`refine`]): starting from empty
//!    neighbourhoods, each iteration pops the top `γ` candidates of every
//!    user's RCS, evaluates the real similarity once per pair, and updates
//!    both endpoints' bounded heaps; the loop stops when the average number
//!    of heap changes per user falls below `β` (or every RCS is exhausted).
//!
//! Because all candidates share at least one item and arrive in decreasing
//!  shared-count order, KIFF both skips all provably-zero pairs and meets
//! good neighbours early; with `γ = ∞` (and `β = 0`) the result is the
//! exact KNN for any metric satisfying the sparse axioms (§III-D) — a
//! property the test-suite checks against brute force.
//!
//! Entry point: [`Kiff`] with a [`KiffConfig`]; instrumentation (per-phase
//! wall time, similarity-evaluation counts, per-iteration traces) is
//! returned in [`KiffStats`].

pub mod config;
pub mod counting;
pub mod error;
pub mod fault;
pub mod init;
pub mod kiff;
pub mod refine;

pub use config::{CountStrategy, Gamma, KiffConfig, TimingMode};
pub use counting::{build_rcs, user_candidate_counts, CountingConfig, RankedCandidates};
pub use error::KiffError;
pub use init::initial_rcs_graph;
pub use kiff::{kiff_knn, Kiff, KiffResult};
pub use refine::{IterationObserver, IterationTrace, KiffStats, NoObserver};
