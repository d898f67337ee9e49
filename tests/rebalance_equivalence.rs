//! Rebalance-vs-one-shard equivalence: a *skewed* replay — a hot-community
//! burst followed by a tail of brand-new users — with live migrations
//! enabled (rebalancer plus explicit mid-batch migration requests) must
//! reach recall within ε of the one-shard [`OnlineKnn`] replay, for shard
//! counts 2, 4 and 8 and for both the hash and the community-aware
//! partitioner. Migration moves ownership, never edges, so it must be
//! invisible to what the repair computes (mirroring
//! `sharded_equivalence.rs`, which pins the migration-free engine).

use std::sync::Arc;

use proptest::prelude::*;

use kiff::dataset::generators::planted::{generate_planted, PlantedConfig};
use kiff::dataset::{Dataset, DatasetBuilder};
use kiff::graph::{exact_knn, recall};
use kiff::online::{
    CommunityPartitioner, HashPartitioner, OnlineConfig, OnlineKnn, Partitioner, RebalanceConfig,
    ShardConfig, ShardedOnlineKnn, Update,
};
use kiff::similarity::WeightedCosine;

/// Same tolerance as `sharded_equivalence.rs`: shards carry independent
/// propagation budgets, so recalls agree up to ε, not bit for bit.
const EPSILON: f64 = 0.05;

/// New users streamed into the hot community after the burst.
const NEW_USERS: u32 = 24;

fn planted(seed: u64) -> Dataset {
    generate_planted(&PlantedConfig {
        num_users: 300,
        num_items: 240,
        communities: 4,
        ratings_per_user: 12,
        affinity: 0.85,
        ..PlantedConfig::tiny("rebalance-equiv", seed)
    })
    .0
}

/// Splits `full` into a base dataset and a *skewed* update stream: the
/// held-out ratings of community 0 (users `u % 4 == 0`) arrive first as a
/// hot burst, the rest follow, and a tail of brand-new users joins the
/// hot community's item block (the power-law-growth shape that unbalances
/// fixed-at-admission sharding).
fn split_skewed(full: &Dataset, holdout_every: usize) -> (Dataset, Vec<Update>) {
    let mut builder = DatasetBuilder::new("base", full.num_users(), full.num_items());
    let mut hot = Vec::new();
    let mut cold = Vec::new();
    for (pos, (user, item, rating)) in full.iter_ratings().enumerate() {
        if pos % holdout_every == 0 {
            let update = Update::AddRating { user, item, rating };
            if user % 4 == 0 {
                hot.push(update);
            } else {
                cold.push(update);
            }
        } else {
            builder.add_rating(user, item, rating);
        }
    }
    let n = full.num_users() as u32;
    for i in 0..NEW_USERS {
        for j in 0..3u32 {
            hot.push(Update::AddRating {
                user: n + i,
                // Community 0's item block is [0, num_items / 4).
                item: (i * 7 + j * 13) % (full.num_items() as u32 / 4),
                rating: 1.0,
            });
        }
    }
    hot.extend(cold);
    (builder.build(), hot)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// Skewed batched replay with migrations enabled stays within ε of
    /// the one-shard replay, for 2/4/8 shards × both partitioners,
    /// and ends with consistent cross-shard state and real migrations.
    #[test]
    fn skewed_replay_with_migrations_matches_single_engine(
        seed in 0u64..1000,
        batch in 32usize..96,
    ) {
        let full = planted(seed);
        let k = 5;
        let (base, stream) = split_skewed(&full, 10);
        prop_assert!(stream.len() > NEW_USERS as usize * 3);

        // Single-engine yardstick on the same skewed stream.
        let mut single = OnlineKnn::new(&base, OnlineConfig::new(k));
        for chunk in stream.chunks(batch) {
            single.apply_batch(chunk.iter().copied());
        }
        let final_dataset = single.data().to_dataset();
        let sim = WeightedCosine::fit(&final_dataset);
        let exact = exact_knn(&final_dataset, &sim, k, Some(2));
        let single_recall = recall(&exact, &single.graph());

        let partitioners: Vec<(&str, Arc<dyn Partitioner>)> = vec![
            ("hash", Arc::new(HashPartitioner)),
            (
                "community",
                Arc::new(CommunityPartitioner::from_dataset(&base, 4)),
            ),
        ];
        for shards in [2usize, 4, 8] {
            for (name, partitioner) in &partitioners {
                let mut engine = ShardedOnlineKnn::new(
                    &base,
                    OnlineConfig::new(k),
                    ShardConfig::new(shards)
                        .with_threads(2)
                        .with_partitioner(Arc::clone(partitioner))
                        .with_rebalance(RebalanceConfig::new(1.5).with_max_moves(16)),
                );
                for (round, chunk) in stream.chunks(batch).enumerate() {
                    // Churn ownership on purpose: request a mid-batch
                    // migration of a streamed user every few chunks.
                    if round % 3 == 0 {
                        if let Some(Update::AddRating { user, .. }) = chunk.first() {
                            if (*user as usize) < engine.num_users() {
                                let away = (engine.shard_of(*user) + 1) % shards;
                                engine.request_migration(*user, away);
                            }
                        }
                    }
                    engine.apply_batch(chunk.iter().copied());
                }
                engine.validate_invariants();
                prop_assert!(
                    engine.migrations_total() > 0,
                    "{shards} shards / {name}: no migrations exercised"
                );
                prop_assert_eq!(
                    engine.data().num_ratings(),
                    single.data().num_ratings(),
                    "{} shards / {}: ratings lost", shards, name
                );
                let sharded_recall = recall(&exact, &engine.graph());
                prop_assert!(
                    sharded_recall >= single_recall - EPSILON,
                    "{shards} shards / {name}: recall {sharded_recall:.4} not within ε \
                     of one shard {single_recall:.4}"
                );
            }
        }
    }
}
