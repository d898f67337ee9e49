//! Shard-count equivalence: replaying the same update stream on 2 and 4
//! shards must reach recall within ε of the one-shard replay — sharding
//! distributes the repair work, it must not change what the repair
//! computes.

use proptest::prelude::*;

use kiff::dataset::generators::planted::{generate_planted, PlantedConfig};
use kiff::dataset::{Dataset, DatasetBuilder};
use kiff::graph::{exact_knn, recall};
use kiff::online::{OnlineConfig, OnlineKnn, ShardConfig, ShardedOnlineKnn, Update};
use kiff::similarity::WeightedCosine;

/// Across shard counts, cross-shard scores land in a different order and
/// each shard carries its own propagation budget, so recalls are equal up
/// to a small tolerance, not bit-identical.
const EPSILON: f64 = 0.05;

fn planted(seed: u64) -> Dataset {
    generate_planted(&PlantedConfig {
        num_users: 300,
        num_items: 240,
        communities: 4,
        ratings_per_user: 12,
        affinity: 0.85,
        ..PlantedConfig::tiny("shard-equiv", seed)
    })
    .0
}

/// Splits `full` into a base dataset and a held-out update stream.
fn split(full: &Dataset, holdout_every: usize) -> (Dataset, Vec<Update>) {
    let mut builder = DatasetBuilder::new("base", full.num_users(), full.num_items());
    let mut held = Vec::new();
    for (pos, (user, item, rating)) in full.iter_ratings().enumerate() {
        if pos % holdout_every == 0 {
            held.push(Update::AddRating { user, item, rating });
        } else {
            builder.add_rating(user, item, rating);
        }
    }
    (builder.build(), held)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// A sharded batched replay reaches recall within ε of the one-shard
    /// batched replay on the same stream, for 2 and 4 shards, and ends
    /// with consistent cross-shard state.
    #[test]
    fn sharded_replay_matches_single_engine(seed in 0u64..1000, batch in 32usize..128) {
        let full = planted(seed);
        let k = 5;
        let (base, held) = split(&full, 10);
        prop_assert!(!held.is_empty());

        // One-shard yardstick.
        let mut single = OnlineKnn::new(&base, OnlineConfig::new(k));
        for chunk in held.chunks(batch) {
            single.apply_batch(chunk.iter().copied());
        }
        let final_dataset = single.data().to_dataset();
        let sim = WeightedCosine::fit(&final_dataset);
        let exact = exact_knn(&final_dataset, &sim, k, Some(1));
        let single_recall = recall(&exact, &single.graph());

        for shards in [2usize, 4] {
            let mut engine = ShardedOnlineKnn::new(
                &base,
                OnlineConfig::new(k),
                ShardConfig::new(shards).with_threads(2),
            );
            for chunk in held.chunks(batch) {
                engine.apply_batch(chunk.iter().copied());
            }
            engine.validate_invariants();
            prop_assert_eq!(
                engine.data().num_ratings(),
                full.num_ratings(),
                "{} shards lost ratings", shards
            );
            let sharded_recall = recall(&exact, &engine.graph());
            prop_assert!(
                sharded_recall >= single_recall - EPSILON,
                "{shards} shards: recall {sharded_recall:.4} not within ε of \
                 one shard {single_recall:.4}"
            );
        }
    }
}
