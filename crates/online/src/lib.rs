#![warn(missing_docs)]

//! Incremental KNN-graph maintenance under streaming rating updates.
//!
//! The KIFF pipeline of the paper is strictly batch: it counts shared
//! items over a frozen dataset, refines once, and stops. A serving system
//! receives a continuous stream of new ratings, new users, and deletions;
//! rebuilding the graph per update is intractable. This crate keeps a
//! KIFF-quality graph *live* instead (cf. Zhao's generic online
//! construction and Debatty's online NN-Descent in the related work):
//!
//! ```
//! use kiff_dataset::dataset::figure2_toy;
//! use kiff_online::{OnlineConfig, OnlineKnn, Update};
//!
//! let mut engine = OnlineKnn::new(&figure2_toy(), OnlineConfig::new(2));
//! // Carl picks up coffee — he becomes reachable from Alice and Bob.
//! let stats = engine.apply(Update::AddRating { user: 2, item: 1, rating: 1.0 });
//! assert!(stats.sim_evals > 0);
//! assert!(engine.neighbors(2).iter().any(|n| n.id == 0 || n.id == 1));
//! ```
//!
//! # Consistency model
//!
//! The engine is **eventually consistent with a bounded repair radius**:
//!
//! * The *dataset view* ([`kiff_dataset::DeltaDataset`]) and the live
//!   shared-item counters are always exact — counter maintenance touches
//!   precisely the co-raters of the touched item and is not approximated.
//! * The *graph* is repaired locally: the updated user is re-scored
//!   against its refreshed candidate-prefix (top [`OnlineConfig::repair_width`]
//!   by live shared-item count) plus its current and reverse neighbours;
//!   degradations then propagate through reverse edges (Debatty-style)
//!   until no heap changes, capped by [`MAX_PROPAGATION`].
//!   A single update can only change similarities incident to the updated
//!   user, so this radius recovers almost all of the batch recall at a
//!   small, bounded fraction of a rebuild's similarity evaluations.
//! * A repair scores all its candidates in one item-at-a-time pass over
//!   the repaired user's items and their live raters, and every score
//!   equals [`OnlineMetric::eval`] on the two live profiles bit for bit.
//! * Storage re-compacts in batches: mutated profiles live in an overlay
//!   folded back into a fresh CSR when it covers
//!   [`OnlineConfig::compaction_threshold`] of the users.
//!
//! [`ShardedOnlineKnn::apply_batch`] amortises repair across many
//! updates — the realistic serving pattern — re-scoring each touched user
//! once against the batch-final state.
//!
//! # One engine, any number of shards
//!
//! [`ShardedOnlineKnn`] is the engine: it places each user on a shard by
//! a hash of its id and runs the counter and repair phases on all shards
//! in parallel, exchanging cross-shard heap and reverse-edge edits
//! through asynchronous message queues (see [`sharded`] for the
//! mechanics). [`OnlineKnn`] is its one-shard configuration. Same
//! consistency model at every shard count, `apply_batch` throughput
//! scaling with cores.
//!
//! Consumers that take either type — the serving daemon, the CLI
//! replay, the bench harness — dispatch through the object-safe
//! [`KnnEngine`] trait.

pub mod api;
pub mod config;
pub mod engine;
mod scoring;
pub mod sharded;
mod snapshot;
pub mod update;

pub use api::{KnnEngine, ReadView};
pub use config::{OnlineConfig, OnlineMetric, MAX_PROPAGATION};
pub use engine::OnlineKnn;
pub use sharded::{ShardConfig, ShardedOnlineKnn};
pub use update::{Update, UpdateStats};
