//! Patched read views equal a from-scratch rebuild, bit for bit.
//!
//! `KnnEngine::read_view` starts from the previous view: it re-sorts only
//! the graph rows whose heaps were edited since and shares every other
//! row by `Arc`, and it captures the ratings as the frozen base plus the
//! changed user profiles, shared by `Arc` rather than copied. An edit
//! site that forgot to stamp its row would publish a stale
//! neighbourhood, and a serving-level test cannot see that, because its
//! reference engine publishes through the same path. So this replays
//! arbitrary batches of every update kind on both engines — compacting
//! the overlay, and exchanging edits between shards — and checks every
//! view, its ratings materialised, against an oracle built from the live
//! engine state alone.

use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;

use kiff::dataset::codec::write_dataset;
use kiff::dataset::generators::planted::{generate_planted, PlantedConfig};
use kiff::dataset::{Dataset, DatasetBuilder, DeltaDataset, UserId};
use kiff::graph::KnnGraph;
use kiff::online::{
    KnnEngine, OnlineConfig, OnlineKnn, ReadView, ShardConfig, ShardedOnlineKnn, Update,
};

/// Overlay share that triggers compaction: three users of the base's 60.
const COMPACT_AT: f64 = 0.05;

/// `(k, ratings per user)` of the two bases every case replays on. Full
/// heaps refill a removed edge at once, which hides a removal's edit, so
/// the sparser base keeps heaps short; the denser one moves more edges
/// between shards.
const SHAPES: [(usize, usize); 2] = [(4, 6), (8, 4)];

fn base(seed: u64, ratings_per_user: usize) -> Dataset {
    generate_planted(&PlantedConfig {
        num_users: 60,
        num_items: 48,
        ratings_per_user,
        ..PlantedConfig::tiny("patched-views", seed)
    })
    .0
}

/// One generated update: `(kind, user, pick, rating)`, see [`decode`].
type Raw = (u32, u32, u32, u32);

/// Decodes one generated `(kind, user, pick, rating)` tuple against the
/// live dataset. Users and items run a little past the current ranges,
/// so ratings admit users and items implicitly; a removal picks one of
/// the user's current items, so most removals really remove.
fn decode(data: &DeltaDataset, (kind, user, pick, rating): Raw) -> Update {
    let user = user % (data.num_users() as u32 + 2);
    match kind {
        0 => Update::AddUser,
        1 | 2 => {
            let rated = if (user as usize) < data.num_users() {
                data.profile(user).items
            } else {
                &[]
            };
            // An unrated user's removal stays a no-op.
            let item = rated.get(pick as usize % rated.len().max(1));
            Update::RemoveRating {
                user,
                item: item.copied().unwrap_or(pick),
            }
        }
        _ => Update::AddRating {
            user,
            item: pick % (data.num_items() as u32 + 3),
            rating: rating as f32,
        },
    }
}

/// Every row as `(id, similarity bits)`: equality is bit-for-bit.
fn graph_bits(graph: &KnnGraph) -> (usize, Vec<Vec<(UserId, u64)>>) {
    let rows = (0..graph.num_users() as UserId)
        .map(|u| {
            graph
                .neighbors(u)
                .iter()
                .map(|nb| (nb.id, nb.sim.to_bits()))
                .collect()
        })
        .collect();
    (graph.k(), rows)
}

/// The dataset's binary encoding: name, sizes, rows, rating bits.
fn dataset_bytes(dataset: &Dataset) -> Vec<u8> {
    let mut buf = Vec::new();
    write_dataset(&mut buf, dataset).unwrap();
    buf
}

/// Checks `engine`'s current view against a from-scratch oracle — every
/// live neighbour list through `KnnGraph::from_neighbors`, every live
/// profile through `DatasetBuilder` — and, against the `prev` view, that
/// at most one existing row was replaced per heap edit (`edits`) while
/// every other row is the previous view's own `Arc`. Returns the view.
fn check_view(engine: &dyn KnnEngine, prev: &ReadView, edits: u64, label: &str) -> ReadView {
    let view = engine.read_view();
    let n = engine.len();
    let oracle_graph = KnnGraph::from_neighbors(
        engine.k(),
        (0..n as UserId)
            .map(|u| engine.neighbors(u).unwrap())
            .collect(),
    );
    assert_eq!(
        graph_bits(&view.graph),
        graph_bits(&oracle_graph),
        "{label}: the patched graph differs from a rebuild"
    );
    let data = engine.data();
    let mut builder = DatasetBuilder::new(data.base().name(), n, data.num_items());
    for u in 0..n as UserId {
        for (item, rating) in data.profile(u).iter() {
            builder.add_rating(u, item, rating);
        }
    }
    assert_eq!(
        dataset_bytes(&view.dataset.to_dataset()),
        dataset_bytes(&builder.build()),
        "{label}: the materialised dataset differs from a rebuild"
    );

    let replaced = (0..prev.num_users() as UserId)
        .filter(|&u| !Arc::ptr_eq(prev.graph.row(u), view.graph.row(u)))
        .count() as u64;
    assert!(
        replaced <= edits,
        "{label}: {replaced} rows replaced for {edits} heap edits"
    );
    if edits == 0 && n == prev.num_users() {
        assert!(
            Arc::ptr_eq(&prev.graph, &view.graph),
            "{label}: an unedited graph was rebuilt"
        );
    }
    view
}

/// Replays `batches` on both engines over one base, checking every view.
fn replay(seed: u64, (k, ratings_per_user): (usize, usize), shards: usize, batches: &[Vec<Raw>]) {
    let base = base(seed, ratings_per_user);
    let config = OnlineConfig::new(k).with_compaction_threshold(COMPACT_AT);
    let mut single = OnlineKnn::new(&base, config.clone());
    let mut sharded =
        ShardedOnlineKnn::new(&base, config, ShardConfig::new(shards).with_threads(2));
    let mut single_view = check_view(&single, &single.read_view(), 0, "single, initial view");
    let mut sharded_view = check_view(&sharded, &sharded.read_view(), 0, "sharded, initial view");
    let mut compactions = 0;
    for (b, raw) in batches.iter().enumerate() {
        let batch: Vec<Update> = raw.iter().map(|&t| decode(single.data(), t)).collect();
        let stats = KnnEngine::apply_batch(&mut single, batch.clone());
        compactions += u64::from(stats.compacted);
        let label = format!("k={k}, single, batch {b}");
        single_view = check_view(&single, &single_view, stats.edits.total(), &label);

        let stats = KnnEngine::apply_batch(&mut sharded, batch);
        let label = format!("k={k}, {shards} shards, batch {b}");
        sharded_view = check_view(&sharded, &sharded_view, stats.edits.total(), &label);
    }
    sharded.validate_invariants();
    assert!(compactions > 0, "k={k}: no batch compacted the overlay");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Both engines publish views equal to a rebuild after every batch,
    /// and share every row no heap edit touched.
    #[test]
    fn patched_views_equal_a_rebuild(
        seed in 0u64..1000,
        shards in 2usize..4,
        batches in vec(vec((0u32..8, 0u32..80, 0u32..64, 1u32..6), 4..24), 2..8),
    ) {
        for shape in SHAPES {
            replay(seed, shape, shards, &batches);
        }
    }
}
