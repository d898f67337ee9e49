//! Results do not depend on the thread count.
//!
//! A shard with more than one worker prepares each large repair wave on
//! all of them and lands the wave in queue order. Random mixed streams
//! are replayed at one shard on 1, 2 and 3 threads and at two shards on 2
//! and 4 threads, and every run must report the same per-batch
//! `UpdateStats`, and end with the same graph (ids and similarity bits),
//! as the one-thread run at its shard count. The base has 24 items, so
//! that co-raters are many and batches of up to 160 make waves large
//! enough to be prepared in parallel; a fixed replay checks that they
//! are.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use kiff_dataset::generators::planted::{generate_planted, PlantedConfig};
use kiff_dataset::generators::RatingModel;
use kiff_dataset::zipf::Zipf;
use kiff_dataset::{Dataset, DeltaDataset, ItemId, UserId};
use kiff_graph::Neighbor;
use kiff_online::{OnlineConfig, ShardConfig, ShardedOnlineKnn, Update, UpdateStats};
use kiff_telemetry::Registry;

/// A stream of `len` updates of every kind over `base`: Zipf-hot writers
/// and items (so the targeted cap, count ties and the propagation budget
/// bite), removals of live ratings, re-adds of removed ones, new users
/// and new items. Decoded against a mirror of the live ratings, so every
/// removal names a rating that exists.
fn stream(base: &Dataset, seed: u64, len: usize) -> Vec<Update> {
    let mut mirror = DeltaDataset::new(base.clone());
    let writers = Zipf::new(base.num_users(), 1.1);
    let items = Zipf::new(base.num_items(), 0.9);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut removed: Vec<(UserId, ItemId)> = Vec::new();
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let n = mirror.num_users() as UserId;
        let user = if rng.gen_bool(0.2) {
            rng.gen_range(0..n)
        } else {
            writers.sample(&mut rng) as UserId
        };
        let rating = f32::from(rng.gen_range(1u8..=10)) * 0.5;
        let update = match rng.gen_range(0..12) {
            0 => Update::AddUser,
            1..=2 => {
                let rated = mirror.profile(user).items;
                if rated.is_empty() {
                    continue;
                }
                let item = rated[rng.gen_range(0..rated.len())];
                removed.push((user, item));
                Update::RemoveRating { user, item }
            }
            3 if !removed.is_empty() => {
                let (user, item) = removed.swap_remove(rng.gen_range(0..removed.len()));
                Update::AddRating { user, item, rating }
            }
            4 => Update::AddRating {
                user,
                item: mirror.num_items() as ItemId + rng.gen_range(0..2u32),
                rating,
            },
            _ => Update::AddRating {
                user,
                item: items.sample(&mut rng) as ItemId,
                rating,
            },
        };
        match update {
            Update::AddRating { user, item, rating } => {
                mirror.add_rating(user, item, rating);
            }
            Update::RemoveRating { user, item } => {
                mirror.remove_rating(user, item);
            }
            Update::AddUser => {
                mirror.add_user();
            }
        }
        out.push(update);
    }
    out
}

/// A star-rated planted base of 300 users over 24 items.
fn base(seed: u64) -> Dataset {
    generate_planted(&PlantedConfig {
        num_items: 24,
        rating_model: RatingModel::Stars { half_steps: true },
        ..PlantedConfig::tiny("thread-counts", seed)
    })
    .0
}

/// Every batch's stats and the final rows of one replay, which records
/// into `registry`.
fn replay(
    base: &Dataset,
    updates: &[Update],
    batch: usize,
    shards: usize,
    threads: usize,
    registry: &Registry,
) -> (Vec<UpdateStats>, Vec<Vec<(UserId, u64)>>) {
    let config = OnlineConfig::new(4)
        .with_compaction_threshold(0.05)
        .with_telemetry(registry.clone());
    let mut engine =
        ShardedOnlineKnn::new(base, config, ShardConfig::new(shards).with_threads(threads));
    let stats = updates
        .chunks(batch)
        .map(|chunk| engine.apply_batch(chunk.iter().copied()))
        .collect();
    let rows = (0..engine.num_users() as UserId)
        .map(|u| {
            let row: Vec<Neighbor> = engine.neighbors(u);
            row.iter().map(|nb| (nb.id, nb.sim.to_bits())).collect()
        })
        .collect();
    (stats, rows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn results_do_not_depend_on_the_thread_count(
        seed in 0u64..1000,
        len in 60usize..400,
        batch in 1usize..161,
    ) {
        let base = base(seed);
        let updates = stream(&base, seed ^ 0x7ead, len);
        let registry = Registry::disabled();
        for (shards, threads) in [(1, [2, 3]), (2, [2, 4])] {
            let (stats, rows) = replay(&base, &updates, batch, shards, 1, &registry);
            for threads in threads {
                let (got_stats, got_rows) =
                    replay(&base, &updates, batch, shards, threads, &registry);
                prop_assert_eq!(
                    &got_stats,
                    &stats,
                    "{} shards, {} threads: per-batch stats",
                    shards,
                    threads
                );
                prop_assert!(
                    got_rows == rows,
                    "{} shards, {} threads: final graph differs",
                    shards,
                    threads
                );
            }
        }
    }
}

#[test]
fn a_replay_with_parallel_waves_lands_as_one_thread_does() {
    let base = base(7);
    let updates = stream(&base, 0x7ead, 600);
    let registry = Registry::new();
    let one = replay(&base, &updates, 150, 1, 1, &Registry::disabled());
    let two = replay(&base, &updates, 150, 1, 2, &registry);
    let waves = registry
        .snapshot()
        .histogram("shard.0.prepare_ns")
        .map_or(0, |h| h.count);
    assert!(waves > 0, "no wave was prepared in parallel");
    assert_eq!(two.0, one.0, "per-batch stats");
    assert!(two.1 == one.1, "final graph differs");
}
