#![warn(missing_docs)]

//! Greedy KNN-graph construction baselines: NN-Descent and HyRec.
//!
//! Both baselines follow the paper's experimental setup (§IV-B):
//!
//! * **NN-Descent** (Dong, Moses, Li — WWW'11): starts from a random
//!   `k`-degree graph and iteratively joins each user's *new* neighbours
//!   against her full bidirectional neighbourhood, using new/old flags to
//!   avoid re-evaluating pairs and a pivot so each local pair is evaluated
//!   once. Run "without sampling (as in the original publication)".
//! * **HyRec** (Boutet et al., Middleware'14): per user, considers the
//!   neighbours of her current neighbours plus `r` random users (the
//!   paper's default is `r = 0`), "with the same pivot mechanism as in
//!   NN-Descent and the early termination of KIFF".
//! * **L2Knng** (Anastasiu & Karypis, CIKM'15): the cosine-specific
//!   two-phase pruning approach of §VI — an approximate graph sets per-user
//!   thresholds, then a sequential exact pass abandons pairs whose L2
//!   suffix-norm bound cannot beat them.
//!
//! Shared infrastructure: random initial graphs ([`init`]), candidate
//! deduplication, per-activity instrumentation ([`GreedyStats`]) matching
//! §IV-C so the harness can chart Figs 1/5/8 for every algorithm alike.
//!
//! Every candidate loop here is node-centric: each batch goes through
//! [`kiff_similarity::score_candidates`], which prepares the
//! pivot/reference profile once through
//! [`kiff_similarity::Similarity::scorer`] and streams its candidates
//! through the prepared scorer. Run over [`kiff_similarity::Pairwise`] of
//! the metric, every algorithm scores pair by pair and builds
//! bit-identical graphs — the comparison against KIFF measures
//! algorithms, not scoring plumbing.

pub mod config;
pub mod hyrec;
pub mod init;
pub mod l2knng;
pub mod lsh;
pub mod nndescent;
pub mod stats;

pub use config::GreedyConfig;
pub use hyrec::HyRec;
pub use init::random_graph;
pub use l2knng::{L2Knng, L2KnngConfig, L2Stats};
pub use lsh::{Lsh, LshConfig, LshFamily, LshStats};
pub use nndescent::NnDescent;
pub use stats::GreedyStats;
