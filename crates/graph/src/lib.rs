#![warn(missing_docs)]

//! KNN graph structures, exact construction, and recall evaluation.
//!
//! The output of every algorithm in this workspace is a [`KnnGraph`]: for
//! each user, the `k` most similar other users found, with their similarity
//! values. During construction the algorithms share a [`SharedKnn`] — one
//! bounded [`KnnHeap`] row per user in one flat slab, each row behind its
//! own lock, because the pivot strategy (§II-D) makes user `u`'s worker
//! update user `v`'s heap. Beside each lock sits a lock-free admission
//! hint, the worst similarity of a full heap, so an offer that cannot
//! enter is turned away after one atomic load instead of a lock and a
//! scan. [`SharedKnn::update_batch`] offers a whole scored batch both
//! ways and prefetches the random rows its reverse side lands on.
//!
//! [`exact`] builds ground truth two ways: an exhaustive `O(|U|²)` scan and
//! an inverted-index construction that only evaluates pairs sharing an item
//! — exact for every metric satisfying the sparse axioms of §III-D, and the
//! property the whole KIFF idea rests on. [`recall()`] implements the
//! paper's tie-aware quality measure (Eq. 2–4).

pub mod analysis;
pub mod codec;
pub mod exact;
pub mod io;
pub mod knn;
pub mod observer;
pub mod recall;
pub mod reverse;

pub use analysis::{in_degrees, summarize, symmetry, weak_components, GraphSummary};
pub use exact::{exact_knn, exact_knn_brute};
pub use io::{
    load_edges_tsv, save_edges_tsv, save_json as save_graph_json, write_edges_tsv, GraphLoadError,
};
pub use knn::{
    EditStats, HeapChange, HeapEntry, HeapGuard, KnnGraph, KnnHeap, Neighbor, SharedKnn,
};
pub use observer::{IterationObserver, IterationTrace, NoObserver};
pub use recall::{recall, recall_per_user, recall_user};
pub use reverse::ShardReverse;
