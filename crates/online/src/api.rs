//! [`KnnEngine`]: the object-safe surface of the live engine.
//!
//! There is one online engine, [`ShardedOnlineKnn`]; [`OnlineKnn`] is its
//! one-shard configuration. Consumers that take either (the CLI `update`
//! replay, the bench harness, the serving daemon) hold a
//! `Box<dyn KnnEngine>` or a `&mut dyn KnnEngine` chosen at startup.
//!
//! Two deliberate deviations from the inherent methods:
//!
//! - [`KnnEngine::neighbors`] returns `Result` instead of panicking on
//!   an out-of-range user: a daemon must answer a bad request with an
//!   error frame, not die. The inherent panicking methods remain for
//!   in-process callers that already hold the invariant.
//! - [`KnnEngine::apply_batch`] takes a `Vec` (not `impl IntoIterator`)
//!   because generic methods are not object-safe.

use std::sync::Arc;

use kiff_core::KiffError;
use kiff_dataset::{DeltaDataset, FrozenDelta, UserId};
use kiff_graph::{KnnGraph, Neighbor};

use crate::engine::OnlineKnn;
use crate::sharded::ShardedOnlineKnn;
use crate::update::{Update, UpdateStats};

/// An immutable, batch-consistent snapshot of everything a query needs:
/// the KNN graph, the ratings (the frozen base plus the changed
/// profiles, shared by `Arc`), `k`, and the lifetime work counters at
/// capture time.
///
/// A serving layer captures one of these after each `apply_batch` and
/// publishes it through an epoch cell; readers then answer
/// `neighbors`/`recommend`/`search` from the view without ever touching
/// the writer's engine lock. Capture costs what the batch changed (see
/// [`KnnEngine::read_view`]). The graph and dataset are captured
/// together between mutations, so a view can never pair a fresh graph
/// with a stale dataset or vice versa.
#[derive(Debug, Clone)]
pub struct ReadView {
    /// The KNN graph snapshot at capture time.
    pub graph: Arc<KnnGraph>,
    /// The ratings the graph was computed against: user profiles read
    /// through the capture, item-side reads through
    /// [`FrozenDelta::materialised`], built at most once per view.
    pub dataset: Arc<FrozenDelta>,
    /// Neighbourhood size `k`.
    pub k: usize,
    /// Lifetime work counters at capture time (what `stats` queries
    /// report without locking the engine).
    pub stats: UpdateStats,
}

impl ReadView {
    /// Current number of users in the view.
    pub fn num_users(&self) -> usize {
        self.graph.num_users()
    }

    /// `u`'s neighbours in the view, best first, or
    /// [`KiffError::UnknownUser`] when `u` is out of range.
    pub fn neighbors(&self, u: UserId) -> Result<Vec<Neighbor>, KiffError> {
        check_user(u, self.num_users())?;
        Ok(self.graph.neighbors(u).to_vec())
    }
}

/// A live KNN engine: queryable, updatable, snapshottable.
///
/// Implemented by [`ShardedOnlineKnn`] and by its one-shard wrapper
/// [`OnlineKnn`].
pub trait KnnEngine: Send {
    /// Neighbourhood size `k`.
    fn k(&self) -> usize;

    /// Current number of users.
    fn len(&self) -> usize;

    /// Whether the engine tracks no users yet.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `u`'s current neighbours, best first, or
    /// [`KiffError::UnknownUser`] when `u` is out of range.
    fn neighbors(&self, u: UserId) -> Result<Vec<Neighbor>, KiffError>;

    /// Snapshots the live graph: the previous snapshot with the rows
    /// edited since re-sorted, and the same `Arc` between mutations.
    fn graph(&self) -> Arc<KnnGraph>;

    /// Captures the live ratings ([`DeltaDataset::freeze`]): one `Arc`
    /// clone per overlay user after a mutation, with no rating copied,
    /// and the same `Arc` between mutations.
    fn dataset(&self) -> Arc<FrozenDelta>;

    /// Captures a batch-consistent [`ReadView`] of the engine: graph +
    /// ratings + `k` + lifetime stats, all observed between mutations.
    ///
    /// After a batch this costs the graph rows the batch edited (each
    /// re-sorted; every other row is shared with the previous view, at
    /// one `Arc` clone per user) plus one `Arc` clone per changed user
    /// profile; no rating is copied. Between mutations it is two `Arc`
    /// clones and a `Copy`.
    fn read_view(&self) -> ReadView {
        ReadView {
            graph: self.graph(),
            dataset: self.dataset(),
            k: self.k(),
            stats: *self.stats(),
        }
    }

    /// The live dataset view.
    fn data(&self) -> &DeltaDataset;

    /// Applies one mutation and repairs the graph around it.
    fn apply(&mut self, update: Update) -> UpdateStats;

    /// Applies a batch of mutations with a single amortised repair pass.
    fn apply_batch(&mut self, updates: Vec<Update>) -> UpdateStats;

    /// Work accumulated over the engine's lifetime.
    fn stats(&self) -> &UpdateStats;

    /// The engine's shared-item counters, exported for snapshot
    /// persistence: one `(co_rater, count)` row per user, in user-id
    /// order (see [`ShardedOnlineKnn::counters_snapshot`]).
    fn counters_snapshot(&self) -> Vec<Vec<(UserId, u32)>>;
}

/// Bounds-checks a user id against the engine size.
fn check_user(u: UserId, num_users: usize) -> Result<(), KiffError> {
    if (u as usize) < num_users {
        Ok(())
    } else {
        Err(KiffError::UnknownUser { user: u, num_users })
    }
}

impl KnnEngine for OnlineKnn {
    fn k(&self) -> usize {
        KnnEngine::k(&**self)
    }

    fn len(&self) -> usize {
        KnnEngine::len(&**self)
    }

    fn neighbors(&self, u: UserId) -> Result<Vec<Neighbor>, KiffError> {
        KnnEngine::neighbors(&**self, u)
    }

    fn graph(&self) -> Arc<KnnGraph> {
        KnnEngine::graph(&**self)
    }

    fn dataset(&self) -> Arc<FrozenDelta> {
        KnnEngine::dataset(&**self)
    }

    fn data(&self) -> &DeltaDataset {
        KnnEngine::data(&**self)
    }

    fn apply(&mut self, update: Update) -> UpdateStats {
        KnnEngine::apply(&mut **self, update)
    }

    fn apply_batch(&mut self, updates: Vec<Update>) -> UpdateStats {
        KnnEngine::apply_batch(&mut **self, updates)
    }

    fn stats(&self) -> &UpdateStats {
        KnnEngine::stats(&**self)
    }

    fn counters_snapshot(&self) -> Vec<Vec<(UserId, u32)>> {
        KnnEngine::counters_snapshot(&**self)
    }
}

impl KnnEngine for ShardedOnlineKnn {
    fn k(&self) -> usize {
        ShardedOnlineKnn::k(self)
    }

    fn len(&self) -> usize {
        self.num_users()
    }

    fn neighbors(&self, u: UserId) -> Result<Vec<Neighbor>, KiffError> {
        check_user(u, self.num_users())?;
        Ok(ShardedOnlineKnn::neighbors(self, u))
    }

    fn graph(&self) -> Arc<KnnGraph> {
        ShardedOnlineKnn::graph(self)
    }

    fn dataset(&self) -> Arc<FrozenDelta> {
        ShardedOnlineKnn::dataset(self)
    }

    fn data(&self) -> &DeltaDataset {
        ShardedOnlineKnn::data(self)
    }

    fn apply(&mut self, update: Update) -> UpdateStats {
        ShardedOnlineKnn::apply(self, update)
    }

    fn apply_batch(&mut self, updates: Vec<Update>) -> UpdateStats {
        ShardedOnlineKnn::apply_batch(self, updates)
    }

    fn stats(&self) -> &UpdateStats {
        self.lifetime_stats()
    }

    fn counters_snapshot(&self) -> Vec<Vec<(UserId, u32)>> {
        ShardedOnlineKnn::counters_snapshot(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OnlineConfig;
    use crate::sharded::ShardConfig;
    use kiff_dataset::dataset::figure2_toy;

    fn engines() -> Vec<Box<dyn KnnEngine>> {
        let ds = figure2_toy();
        vec![
            Box::new(OnlineKnn::new(&ds, OnlineConfig::new(2))),
            Box::new(ShardedOnlineKnn::new(
                &ds,
                OnlineConfig::new(2),
                ShardConfig::new(2),
            )),
        ]
    }

    #[test]
    fn both_engines_serve_the_same_trait() {
        for mut engine in engines() {
            assert_eq!(engine.k(), 2);
            assert_eq!(engine.len(), 4);
            assert!(!engine.is_empty());
            let nbrs = engine.neighbors(0).expect("user 0 exists");
            assert_eq!(nbrs[0].id, 1, "Alice's nearest is Bob");
            let stats = engine.apply(Update::AddRating {
                user: 2,
                item: 1,
                rating: 1.0,
            });
            assert_eq!(stats.updates, 1);
            assert_eq!(engine.stats().updates, 1);
            let stats = engine.apply_batch(vec![
                Update::AddUser,
                Update::AddRating {
                    user: 4,
                    item: 0,
                    rating: 2.0,
                },
            ]);
            assert_eq!(stats.updates, 2);
            assert_eq!(engine.len(), 5);
            assert_eq!(engine.graph().num_users(), 5);
            assert_eq!(engine.data().num_users(), 5);
        }
    }

    #[test]
    fn read_view_is_batch_consistent_and_cheap_to_recapture() {
        for mut engine in engines() {
            let view = engine.read_view();
            assert_eq!(view.num_users(), 4);
            assert_eq!(view.k, 2);
            assert_eq!(view.stats.updates, 0);
            assert_eq!(view.neighbors(0).unwrap()[0].id, 1);
            assert!(view.neighbors(99).is_err());
            // Steady state: recapture reuses the cached Arcs.
            let again = engine.read_view();
            assert!(Arc::ptr_eq(&view.graph, &again.graph));
            assert!(Arc::ptr_eq(&view.dataset, &again.dataset));
            // The old view survives a mutation untouched (snapshot
            // isolation); a fresh capture sees the new state.
            engine.apply(Update::AddRating {
                user: 2,
                item: 1,
                rating: 1.0,
            });
            assert_eq!(view.num_users(), 4);
            assert_eq!(view.dataset.user_profile(2).rating(1), None);
            let fresh = engine.read_view();
            assert_eq!(fresh.stats.updates, 1);
            assert_eq!(fresh.dataset.user_profile(2).rating(1), Some(1.0));
            assert!(!Arc::ptr_eq(&view.dataset, &fresh.dataset));
        }
    }

    #[test]
    fn unknown_user_is_an_error_not_a_panic() {
        for engine in engines() {
            let err = engine.neighbors(99).unwrap_err();
            match err {
                kiff_core::KiffError::UnknownUser { user, num_users } => {
                    assert_eq!(user, 99);
                    assert_eq!(num_users, 4);
                }
                other => panic!("expected UnknownUser, got {other}"),
            }
        }
    }
}
