//! [`OnlineKnn`]: the live KNN graph on one shard.
//!
//! The online engine is [`ShardedOnlineKnn`]; `OnlineKnn` is its
//! one-shard configuration, kept as a type of its own for the callers
//! that never shard. It holds the one-shard constructors and derefs to
//! the engine for everything else, so both types run the same mutate,
//! repair and propagation code (see [`crate::sharded`]).

use std::ops::{Deref, DerefMut};

use kiff_core::KiffError;
use kiff_dataset::{Dataset, UserId};
use kiff_graph::{KnnGraph, Neighbor};

use crate::config::OnlineConfig;
use crate::sharded::{ShardConfig, ShardedOnlineKnn};
use crate::update::{Update, UpdateStats};

/// A KNN graph maintained incrementally under streaming rating updates:
/// a [`ShardedOnlineKnn`] with a single shard.
#[derive(Debug)]
pub struct OnlineKnn(ShardedOnlineKnn);

impl OnlineKnn {
    /// Builds the initial graph with batch KIFF under `config.metric`,
    /// then wraps it for streaming.
    pub fn new(dataset: &Dataset, config: OnlineConfig) -> Self {
        Self(ShardedOnlineKnn::new(dataset, config, ShardConfig::new(1)))
    }

    /// Wraps an already-built graph (any construction algorithm) for
    /// streaming. The live shared-item counters are seeded from one
    /// unpivoted batch counting pass.
    pub fn from_graph(dataset: &Dataset, graph: &KnnGraph, config: OnlineConfig) -> Self {
        Self(ShardedOnlineKnn::from_graph(
            dataset,
            graph,
            config,
            ShardConfig::new(1),
        ))
    }

    /// Restores an engine from persisted state without a counting pass
    /// (see [`ShardedOnlineKnn::from_snapshot`]).
    pub fn from_snapshot(
        dataset: &Dataset,
        graph: &KnnGraph,
        counter_rows: Vec<Vec<(UserId, u32)>>,
        config: OnlineConfig,
    ) -> Result<Self, KiffError> {
        ShardedOnlineKnn::from_snapshot(dataset, graph, counter_rows, config, ShardConfig::new(1))
            .map(Self)
    }

    // The two inherent methods whose signatures differ from their
    // `KnnEngine` namesakes: forwarded so that method calls keep
    // resolving to them where the trait is in scope.

    /// `u`'s current neighbours, best first.
    pub fn neighbors(&self, u: UserId) -> Vec<Neighbor> {
        self.0.neighbors(u)
    }

    /// Applies a batch of mutations, then repairs once (see
    /// [`ShardedOnlineKnn::apply_batch`]).
    pub fn apply_batch(&mut self, updates: impl IntoIterator<Item = Update>) -> UpdateStats {
        self.0.apply_batch(updates)
    }
}

impl Deref for OnlineKnn {
    type Target = ShardedOnlineKnn;

    fn deref(&self) -> &ShardedOnlineKnn {
        &self.0
    }
}

impl DerefMut for OnlineKnn {
    fn deref_mut(&mut self) -> &mut ShardedOnlineKnn {
        &mut self.0
    }
}

// The engine's behaviour at one shard, driven through `OnlineKnn`; the
// multi-shard arms live in the `sharded` tests.
#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::sharded::tests::audit;
    use kiff_dataset::dataset::figure2_toy;

    fn toy_engine() -> OnlineKnn {
        OnlineKnn::new(&figure2_toy(), OnlineConfig::new(2))
    }

    #[test]
    fn seeded_counters_match_single_user_counting() {
        // The live counters must agree with the batch counting phase's
        // single-user unit (`kiff_core::user_candidate_counts`) on the
        // frozen seed dataset.
        let ds = figure2_toy();
        let engine = toy_engine();
        for u in 0..ds.num_users() as UserId {
            let ranked = kiff_core::user_candidate_counts(&ds, u);
            for (v, count) in ranked {
                assert_eq!(engine.shared_count(u, v), count, "pair ({u}, {v})");
            }
        }
    }

    #[test]
    fn seeded_state_matches_batch() {
        let engine = toy_engine();
        audit(&engine);
        // Alice's nearest neighbour is Bob, as in the batch quick start.
        assert_eq!(engine.neighbors(0)[0].id, 1);
        assert_eq!(engine.neighbors(2)[0].id, 3);
    }

    #[test]
    fn add_rating_connects_new_pairs() {
        let mut engine = toy_engine();
        // Carl(2) picks up coffee(1): Carl now shares items with Alice and
        // Bob, who were unreachable before.
        let stats = engine.apply(Update::AddRating {
            user: 2,
            item: 1,
            rating: 1.0,
        });
        assert_eq!(stats.updates, 1);
        assert!(stats.sim_evals > 0);
        assert!(stats.counter_adjustments >= 4, "two new sharing pairs");
        audit(&engine);
        let ids: Vec<UserId> = engine.neighbors(2).iter().map(|nb| nb.id).collect();
        assert!(
            ids.contains(&0) || ids.contains(&1),
            "coffee drinkers found"
        );
    }

    #[test]
    fn remove_rating_severs_pairs() {
        let mut engine = toy_engine();
        // Bob(1) drops coffee(1): Alice and Bob now share nothing, so the
        // edge between them must disappear from both heaps.
        let stats = engine.apply(Update::RemoveRating { user: 1, item: 1 });
        assert!(stats.edits.removals > 0);
        audit(&engine);
        assert!(!engine.neighbors(0).iter().any(|nb| nb.id == 1));
        assert!(!engine.neighbors(1).iter().any(|nb| nb.id == 0));
        // Removing it again is a no-op.
        let stats = engine.apply(Update::RemoveRating { user: 1, item: 1 });
        assert_eq!(stats.sim_evals, 0);
        assert_eq!(stats.counter_adjustments, 0);
    }

    #[test]
    fn reinforcement_refreshes_similarity() {
        let mut engine = toy_engine();
        let before = engine.neighbors(0)[0].sim;
        // Alice re-rates coffee: her norm grows, every incident cosine
        // changes, but no counter moves.
        let stats = engine.apply(Update::AddRating {
            user: 0,
            item: 1,
            rating: 3.0,
        });
        assert_eq!(stats.counter_adjustments, 0);
        assert!(stats.edits.reprioritized > 0);
        audit(&engine);
        assert!((engine.neighbors(0)[0].sim - before).abs() > 1e-9);
    }

    #[test]
    fn new_user_streams_into_the_graph() {
        let mut engine = toy_engine();
        let u = engine.add_user();
        assert_eq!(u, 4);
        assert!(engine.neighbors(u).is_empty());
        engine.apply(Update::AddRating {
            user: u,
            item: 3,
            rating: 1.0,
        });
        audit(&engine);
        // The newcomer shares shopping with Carl and Dave.
        let ids: Vec<UserId> = engine.neighbors(u).iter().map(|nb| nb.id).collect();
        assert_eq!(ids, vec![2, 3]);
        // And is discoverable from their side.
        assert!(engine.neighbors(2).iter().any(|nb| nb.id == u));
    }

    #[test]
    fn implicit_user_growth_on_add_rating() {
        let mut engine = toy_engine();
        engine.apply(Update::AddRating {
            user: 6,
            item: 0,
            rating: 1.0,
        });
        assert_eq!(engine.num_users(), 7, "users 4..=6 created");
        audit(&engine);
        assert!(
            engine.neighbors(6).iter().any(|nb| nb.id == 0),
            "shares book"
        );
    }

    #[test]
    fn batch_equals_sequential_on_final_state() {
        let updates = vec![
            Update::AddRating {
                user: 2,
                item: 1,
                rating: 1.0,
            },
            Update::AddRating {
                user: 0,
                item: 2,
                rating: 2.0,
            },
            Update::RemoveRating { user: 3, item: 3 },
        ];
        let mut sequential = toy_engine();
        for u in updates.clone() {
            sequential.apply(u);
        }
        let mut batched = toy_engine();
        let stats = batched.apply_batch(updates);
        assert_eq!(stats.updates, 3);
        audit(&sequential);
        audit(&batched);
        for u in 0..sequential.num_users() as UserId {
            assert_eq!(
                sequential.neighbors(u),
                batched.neighbors(u),
                "user {u} diverged"
            );
        }
        // Batching repairs each dirty user once.
        assert!(stats.sim_evals <= sequential.lifetime_stats().sim_evals);
    }

    #[test]
    fn compaction_triggers_and_preserves_state() {
        let mut engine = OnlineKnn::new(
            &figure2_toy(),
            OnlineConfig::new(2).with_compaction_threshold(0.2),
        );
        let stats = engine.apply(Update::AddRating {
            user: 2,
            item: 1,
            rating: 1.0,
        });
        assert!(stats.compacted, "20% threshold trips on the first overlay");
        assert_eq!(engine.data().overlay_users(), 0);
        audit(&engine);
    }

    #[test]
    fn graph_snapshot_is_cached_until_an_edit() {
        let mut engine = toy_engine();
        let first = engine.graph();
        let second = engine.graph();
        assert!(
            Arc::ptr_eq(&first, &second),
            "read-only period must reuse the snapshot"
        );
        // An update with heap edits invalidates the cache...
        let stats = engine.apply(Update::AddRating {
            user: 2,
            item: 1,
            rating: 1.0,
        });
        assert!(stats.edits.total() > 0);
        let third = engine.graph();
        assert!(!Arc::ptr_eq(&first, &third), "edit must invalidate");
        assert!(third.neighbors(2).iter().any(|nb| nb.id == 0 || nb.id == 1));
        // ...and so does a bare user addition (the graph grows a row).
        engine.add_user();
        let fourth = engine.graph();
        assert!(!Arc::ptr_eq(&third, &fourth));
        assert_eq!(fourth.num_users(), engine.num_users());
    }

    #[test]
    fn dataset_materialization_is_cached_until_a_mutation() {
        let mut engine = toy_engine();
        let first = engine.dataset();
        let second = engine.dataset();
        assert!(
            Arc::ptr_eq(&first, &second),
            "read-only period must reuse the materialized dataset"
        );
        // Any rating mutation invalidates — even a reinforcement that
        // edits no graph edge still changes the dataset contents.
        engine.apply(Update::AddRating {
            user: 0,
            item: 1,
            rating: 3.0,
        });
        let third = engine.dataset();
        assert!(!Arc::ptr_eq(&first, &third), "mutation must invalidate");
        assert_eq!(
            third.user_profile(0).rating(1),
            engine.data().profile(0).rating(1),
            "rematerialization reflects the reinforced rating"
        );
        // A bare user addition grows the materialized dataset too.
        engine.add_user();
        let fourth = engine.dataset();
        assert!(!Arc::ptr_eq(&third, &fourth));
        assert_eq!(fourth.num_users(), engine.num_users());
    }

    #[test]
    fn telemetry_mirrors_update_stats() {
        let registry = kiff_telemetry::Registry::new();
        let mut engine = OnlineKnn::new(
            &figure2_toy(),
            OnlineConfig::new(2).with_telemetry(registry.clone()),
        );
        let stats = engine.apply(Update::AddRating {
            user: 2,
            item: 1,
            rating: 1.0,
        });
        let snap = registry.snapshot();
        assert_eq!(snap.counter("online.sims"), Some(stats.sim_evals));
        assert_eq!(snap.histogram("online.apply_ns").unwrap().count, 1);
        assert_eq!(snap.counter("shard.0.repairs"), Some(stats.repaired_users));
        // One repair in eight is timed, the first of a batch included.
        assert_eq!(
            snap.histogram("shard.0.repair_ns").unwrap().count,
            stats.repaired_users.div_ceil(8)
        );
        // Repair scoring flows through the instrumented workspace.
        assert!(snap.counter("similarity.scores").unwrap_or(0) >= stats.sim_evals);
        // A disabled registry records nothing but repairs identically.
        let off = kiff_telemetry::Registry::disabled();
        let mut quiet = OnlineKnn::new(
            &figure2_toy(),
            OnlineConfig::new(2).with_telemetry(off.clone()),
        );
        let stats2 = quiet.apply(Update::AddRating {
            user: 2,
            item: 1,
            rating: 1.0,
        });
        assert_eq!(stats2.sim_evals, stats.sim_evals);
        assert_eq!(off.snapshot().counter("online.sims"), Some(0));
    }

    #[test]
    fn lifetime_stats_accumulate() {
        let mut engine = toy_engine();
        engine.apply(Update::AddRating {
            user: 2,
            item: 1,
            rating: 1.0,
        });
        engine.apply(Update::RemoveRating { user: 2, item: 1 });
        let life = engine.lifetime_stats();
        assert_eq!(life.updates, 2);
        assert!(life.sim_evals >= 2);
    }
}
