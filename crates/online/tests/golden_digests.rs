//! Golden digests of the online engine's results.
//!
//! Two fixed streams are replayed at 1, 2 and 4 shards, each at one
//! thread and at four. Every replay is reduced to two FNV-1a digests:
//! one over every batch's `UpdateStats`, one over the final graph (each
//! row's ids and similarity bits). The expected values were recorded
//! from the serial repair loop that preceded wave-parallel repair, so a
//! change that must not move any result (a new schedule, a faster walk)
//! keeps them, and one that moves a graph or a work count anywhere fails
//! here.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use kiff_dataset::generators::planted::{generate_planted, PlantedConfig};
use kiff_dataset::generators::RatingModel;
use kiff_dataset::zipf::Zipf;
use kiff_dataset::{Dataset, DeltaDataset, ItemId, UserId};
use kiff_online::{OnlineConfig, ShardConfig, ShardedOnlineKnn, Update, UpdateStats};

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn stats(&mut self, s: &UpdateStats) {
        for x in [
            s.updates,
            s.sim_evals,
            s.counter_adjustments,
            s.edits.inserts,
            s.edits.evictions,
            s.edits.removals,
            s.edits.reprioritized,
            s.repaired_users,
            s.cross_messages,
            u64::from(s.compacted),
        ] {
            self.word(x);
        }
    }
}

/// The stats and graph digests of one replay.
fn replay(
    base: &Dataset,
    config: &OnlineConfig,
    batches: &[Vec<Update>],
    shards: usize,
    threads: usize,
) -> (u64, u64) {
    let mut engine = ShardedOnlineKnn::new(
        base,
        config.clone(),
        ShardConfig::new(shards).with_threads(threads),
    );
    let mut stats = Fnv::new();
    for batch in batches {
        stats.stats(&engine.apply_batch(batch.iter().copied()));
    }
    let mut graph = Fnv::new();
    graph.word(engine.num_users() as u64);
    for u in 0..engine.num_users() as UserId {
        let row = engine.neighbors(u);
        graph.word(row.len() as u64);
        for nb in row {
            graph.word(u64::from(nb.id));
            graph.word(nb.sim.to_bits());
        }
    }
    (stats.0, graph.0)
}

/// Replays `batches` at each `(shards, stats, graph)` of `expected`, at
/// one thread and at four, and checks both digests.
fn check(
    name: &str,
    base: &Dataset,
    config: OnlineConfig,
    batches: &[Vec<Update>],
    expected: [(usize, u64, u64); 3],
) {
    for (shards, stats, graph) in expected {
        for threads in [1, 4] {
            let got = replay(base, &config, batches, shards, threads);
            assert_eq!(
                got,
                (stats, graph),
                "{name}: {shards} shards, {threads} threads: (stats, graph) digests \
                 {:#018x}, {:#018x}",
                got.0,
                got.1
            );
        }
    }
}

/// The planted serve input at a fifth of its size (8 communities, 20
/// ratings a user, affinity 0.8), written by Zipf-skewed users and
/// items (exponents 1.1 and 0.8) in 40 batches of 32.
#[test]
fn planted_serve_stream_with_zipf_writers() {
    let users = 2_000;
    let base = generate_planted(&PlantedConfig {
        name: "golden-serve".to_string(),
        num_users: users,
        num_items: users * 4 / 5,
        communities: 8,
        ratings_per_user: 20,
        affinity: 0.8,
        ..PlantedConfig::tiny("golden-serve", 3)
    })
    .0;
    let writers = Zipf::new(base.num_users(), 1.1);
    let items = Zipf::new(base.num_items(), 0.8);
    let mut rng = StdRng::seed_from_u64(0x3e_12e5);
    let batches: Vec<Vec<Update>> = (0..40)
        .map(|_| {
            (0..32)
                .map(|_| Update::AddRating {
                    user: writers.sample(&mut rng) as UserId,
                    item: items.sample(&mut rng) as ItemId,
                    rating: 1.0,
                })
                .collect()
        })
        .collect();
    check(
        "planted serve",
        &base,
        OnlineConfig::new(10),
        &batches,
        [
            (1, 0x1f24_119e_f9de_19ec, 0xff3b_8cc9_f799_6bb0),
            (2, 0x7b43_d629_c08c_7cc2, 0xa326_2f90_1f3d_381b),
            (4, 0xa5b5_15b3_a5c9_c1a9, 0x3a74_4267_d4bc_8a21),
        ],
    );
}

/// Star ratings under removals, re-adds, new users and new items, in 60
/// batches of 1 to 40. Compaction at a 5% overlay trips in about half
/// the batches.
#[test]
fn mixed_stream_with_removals_new_users_and_compaction() {
    let base = generate_planted(&PlantedConfig {
        num_users: 400,
        num_items: 320,
        communities: 4,
        ratings_per_user: 10,
        rating_model: RatingModel::Stars { half_steps: true },
        ..PlantedConfig::tiny("golden-mixed", 11)
    })
    .0;
    // The stream is decoded against a mirror of the live ratings, so
    // every removal names a rating that exists.
    let mut mirror = DeltaDataset::new(base.clone());
    let writers = Zipf::new(base.num_users(), 0.9);
    let mut rng = StdRng::seed_from_u64(0x90_1de4);
    let mut removed: Vec<(UserId, ItemId)> = Vec::new();
    let mut batches = Vec::new();
    for _ in 0..60 {
        let len = rng.gen_range(1..=40);
        let mut batch = Vec::with_capacity(len);
        for _ in 0..len {
            let n = mirror.num_users() as UserId;
            let user = if rng.gen_bool(0.3) {
                rng.gen_range(0..n)
            } else {
                writers.sample(&mut rng) as UserId
            };
            let rating = f32::from(rng.gen_range(1u8..=10)) * 0.5;
            let update = match rng.gen_range(0..10) {
                0 => Update::AddUser,
                1..=2 => {
                    let items = mirror.profile(user).items;
                    if items.is_empty() {
                        continue;
                    }
                    let item = items[rng.gen_range(0..items.len())];
                    removed.push((user, item));
                    Update::RemoveRating { user, item }
                }
                3 if !removed.is_empty() => {
                    let (user, item) = removed.swap_remove(rng.gen_range(0..removed.len()));
                    Update::AddRating { user, item, rating }
                }
                _ => Update::AddRating {
                    user,
                    item: rng.gen_range(0..mirror.num_items() as ItemId + 2),
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
            batch.push(update);
        }
        batches.push(batch);
    }
    check(
        "mixed",
        &base,
        OnlineConfig::new(6).with_compaction_threshold(0.05),
        &batches,
        [
            (1, 0x4047_1f98_9531_71db, 0x4013_050b_cd6e_b876),
            (2, 0x3eaa_00c7_a697_4562, 0x1ec0_a552_2346_3c6d),
            (4, 0xfeab_91a1_5ee7_d97f, 0x63fe_f0e6_e7cc_96d1),
        ],
    );
}
