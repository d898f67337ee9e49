#![warn(missing_docs)]

//! Item-based similarity metrics over sparse user profiles.
//!
//! KIFF "is generic, in the sense that it can be applied to any kind of
//! nodes, items, or similarity metrics" (§I). This crate provides the
//! metrics named by the paper — cosine (its evaluation default), Jaccard's
//! coefficient, Adamic–Adar — plus the coarse common-item count KIFF's
//! counting phase approximates similarity with.
//!
//! Three layers:
//!
//! * [`functions`] — allocation-free free functions over
//!   [`ProfileRef`](kiff_dataset::ProfileRef) pairs, built on the shared
//!   merge/galloping intersection kernels in [`kernels`];
//! * [`scorer`] — prepared scorers: preprocess one reference profile
//!   (dense epoch-stamped lookup for high-degree users, pairwise fallback
//!   for small ones), then score each candidate in `O(|UP_v|)`, or a
//!   whole batch by walking the reference's item rows when those are
//!   shorter — the fast path of KIFF's refinement loop and the
//!   baselines;
//! * [`Similarity`] — the object-safe trait the graph-construction
//!   algorithms are generic over. Implementations may carry precomputed
//!   state (per-user norms, per-item Adamic–Adar weights) keyed by the
//!   dataset they were fitted on, and hand out prepared scorers via
//!   [`Similarity::scorer`]; every candidate loop scores through
//!   [`score_candidates`]. [`Pairwise`] wraps a metric so that it keeps
//!   only the pairwise path: the oracle the prepared scorers are checked
//!   against.
//!
//! All provided metrics satisfy the two *sparse axioms* of §III-D used in
//! KIFF's optimality argument (Eq. 5–6): they are non-negative, and zero
//! whenever two profiles share no item — which is what makes pruning
//! non-sharing pairs lossless.

pub mod functions;
pub mod kernels;
pub mod metrics;
pub mod scorer;

pub use functions::{
    adamic_adar_with, binary_cosine, common_items, dice, jaccard, weighted_cosine, weighted_jaccard,
};
pub use kernels::{galloping_intersect_count, intersect_count, merge_intersect_count};
pub use metrics::{
    AdamicAdar, BinaryCosine, CommonItems, Dice, Jaccard, Pairwise, Similarity, WeightedCosine,
    WeightedJaccard,
};
pub use scorer::{
    score_candidates, ProfileScorer, ScoreKind, Scorer, ScorerWorkspace, PREPARED_MIN_BATCH,
};

/// Numerical tolerance used when comparing similarity values for recall
/// (ties at the k-th neighbour must not be penalised — Eq. 3).
pub const SIM_EPSILON: f64 = 1e-9;
