//! Crash-recovery and wire-parity guarantees of the serving layer.
//!
//! The durability contract under test: for *any* update stream, cutting
//! the daemon at any point — with a snapshot taken at any earlier point,
//! or never — and recovering from the newest snapshot plus the WAL tail
//! yields exactly the engine an uninterrupted run would have produced.
//! This holds because the online engine's repair is deterministic under
//! replay; these tests pin that end to end, including over TCP.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use kiff::dataset::generators::planted::{generate_planted, PlantedConfig};
use kiff::prelude::*;
use kiff::serve::{recover, StoreConfig};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A fresh scratch directory per call (proptest cases must not share).
fn scratch(tag: &str) -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let mut p = std::env::temp_dir();
    p.push(format!(
        "kiff-serve-recovery-{}-{tag}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// A small but non-trivial seed: 8 users over 10 items with overlap.
fn seed_dataset() -> Dataset {
    let mut b = DatasetBuilder::new("serve-seed", 8, 10);
    for u in 0..8u32 {
        for j in 0..4u32 {
            b.add_rating(u, (u * 3 + j * 2) % 10, 1.0 + (u + j) as f32 % 3.0);
        }
    }
    b.build()
}

/// Arbitrary update streams over the seed's id space. `AddUser` grows
/// the population but ratings stay within the seed's 8 users, so every
/// stream is valid regardless of interleaving.
fn arb_stream() -> impl Strategy<Value = Vec<Update>> {
    proptest::collection::vec((0u8..8, 0u32..8, 0u32..10, 1u32..6), 1..60).prop_map(|ops| {
        ops.into_iter()
            .map(|(kind, user, item, rating)| match kind {
                0 => Update::AddUser,
                1 => Update::RemoveRating { user, item },
                _ => Update::AddRating {
                    user,
                    item,
                    rating: rating as f32,
                },
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any stream, any batch size, a snapshot at any batch boundary (or
    /// never, when `cut` exceeds the stream), then an unclean stop: the
    /// recovered graph is *identical* to an uninterrupted run's.
    #[test]
    fn snapshot_at_any_point_recovers_exactly(
        stream in arb_stream(),
        cut in 0usize..80,
        batch in 1usize..7,
    ) {
        let seed = seed_dataset();

        // Uninterrupted reference run. Same batch boundaries as the
        // persisted run below: repair is amortised per batch, so the
        // boundaries are part of the state — the WAL records them and
        // recovery replays with them.
        let mut reference = OnlineKnn::new(&seed, OnlineConfig::new(3));
        for chunk in stream.chunks(batch) {
            reference.apply_batch(chunk.to_vec());
        }

        // Persisted run: log + apply in batches, snapshot once when the
        // applied count first reaches `cut`, then stop without any
        // shutdown handshake — the moral equivalent of `kill -9`.
        let dir = scratch("prop");
        let cfg = StoreConfig::new(&dir).with_snapshot_every(0);
        let rec = recover(&cfg, &seed, None, OnlineConfig::new(3), None).unwrap();
        let (mut engine, mut store) = (rec.engine, rec.store);
        let mut applied = 0usize;
        let mut snapped = false;
        for chunk in stream.chunks(batch) {
            store.append(chunk, 0).unwrap();
            engine.apply_batch(chunk.to_vec());
            applied += chunk.len();
            if !snapped && applied >= cut {
                store.snapshot(engine.as_ref()).unwrap();
                snapped = true;
            }
        }
        drop((engine, store));

        let rec = recover(&cfg, &seed, None, OnlineConfig::new(3), None).unwrap();
        prop_assert!(!rec.truncated, "no corruption was injected");
        let (recovered, expected) = (rec.engine.graph(), reference.graph());
        prop_assert_eq!(
            recovered.as_ref(),
            expected.as_ref(),
            "recovered graph diverged from the uninterrupted run"
        );
        prop_assert_eq!(rec.engine.len(), reference.num_users());
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// An unclean stop with *no* snapshot ever taken: the whole WAL replays
/// over the seed and nothing is lost.
#[test]
fn kill_without_snapshot_loses_nothing() {
    let seed = seed_dataset();
    let stream: Vec<Update> = (0..25u32)
        .map(|i| Update::AddRating {
            user: i % 8,
            item: (i * 7) % 10,
            rating: 1.0 + (i % 5) as f32,
        })
        .collect();

    let mut reference = OnlineKnn::new(&seed, OnlineConfig::new(3));
    for chunk in stream.chunks(4) {
        reference.apply_batch(chunk.to_vec());
    }

    let dir = scratch("kill9");
    let cfg = StoreConfig::new(&dir).with_snapshot_every(0);
    let rec = recover(&cfg, &seed, None, OnlineConfig::new(3), None).unwrap();
    let (mut engine, mut store) = (rec.engine, rec.store);
    for chunk in stream.chunks(4) {
        store.append(chunk, 0).unwrap();
        engine.apply_batch(chunk.to_vec());
    }
    drop((engine, store)); // no snapshot, no goodbye

    let rec = recover(&cfg, &seed, None, OnlineConfig::new(3), None).unwrap();
    assert_eq!(rec.snapshot_seq, None, "nothing was ever snapshotted");
    assert_eq!(rec.replayed, stream.len() as u64);
    assert_eq!(rec.engine.graph().as_ref(), reference.graph().as_ref());
    std::fs::remove_dir_all(&dir).ok();
}

/// Recovery stays exact where the repair-width cap fires: on a 300-user
/// planted input items have ~15 co-raters against a width of 4, so each
/// repair keeps only the best-ranked of its targeted candidates. A live
/// engine lists an item's base raters before its overlay raters, while an
/// engine restored from a (compacted) snapshot sees them in id order; the
/// cap must keep the same candidates either way. Checked for the default
/// daemon (one shard) and for two shards, over a snapshot plus a WAL tail.
#[test]
fn recovery_past_the_repair_cap_is_exact() {
    let config = || {
        OnlineConfig::new(4)
            .with_repair_width(4)
            .with_compaction_threshold(0.95)
    };
    for seed in 0..3u64 {
        let full = generate_planted(&PlantedConfig {
            communities: 4,
            ..PlantedConfig::tiny("recovery-cap", seed)
        })
        .0;
        let mut base = DatasetBuilder::new("base", full.num_users(), full.num_items());
        let mut stream = Vec::new();
        for (pos, (user, item, rating)) in full.iter_ratings().enumerate() {
            if pos % 10 == 0 {
                stream.push(Update::AddRating { user, item, rating });
            } else {
                base.add_rating(user, item, rating);
            }
        }
        let base = base.build();
        let batches: Vec<&[Update]> = stream.chunks(40).collect();
        for shards in [None, Some(ShardConfig::new(2))] {
            let dir = scratch("cap");
            let cfg = StoreConfig::new(&dir).with_snapshot_every(0);
            let rec = recover(&cfg, &base, None, config(), shards.clone()).unwrap();
            let (mut engine, mut store) = (rec.engine, rec.store);
            for (i, batch) in batches.iter().enumerate() {
                store.append(batch, 0).unwrap();
                engine.apply_batch(batch.to_vec());
                if i == batches.len() / 2 {
                    store.snapshot(engine.as_ref()).unwrap();
                }
            }
            let uninterrupted = engine.graph();
            drop((engine, store));

            let rec = recover(&cfg, &base, None, config(), shards.clone()).unwrap();
            assert!(rec.snapshot_seq.is_some() && rec.replayed > 0);
            assert_eq!(
                rec.engine.graph().as_ref(),
                uninterrupted.as_ref(),
                "seed {seed}, {shards:?}: recovery diverged from the uninterrupted run"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// The acceptance path end to end: a daemon recovered from snapshot +
/// WAL answers `neighbors` over TCP identically to an in-process engine
/// fed the same stream — ids *and* similarities, which survive the JSON
/// wire format because floats print in shortest round-trip form.
#[test]
fn recovered_daemon_matches_in_process_over_tcp() {
    let seed = seed_dataset();
    let graph = KnnGraphBuilder::new(3).threads(1).build(&seed);
    let stream: Vec<Update> = (0..30u32)
        .map(|i| Update::AddRating {
            user: (i * 5) % 8,
            item: (i * 3) % 10,
            rating: 1.0 + (i % 4) as f32,
        })
        .collect();

    // In-process engine over the same prebuilt graph and stream,
    // applied with the same batch boundaries as the daemon's WAL.
    let config = || OnlineConfig::new(3);
    let mut in_process = OnlineKnn::from_graph(&seed, &graph, config());
    for chunk in stream.chunks(6) {
        in_process.apply_batch(chunk.to_vec());
    }

    // Persisted run: snapshot midway, crash, recover into a daemon.
    let dir = scratch("tcp");
    let cfg = StoreConfig::new(&dir).with_snapshot_every(0);
    let rec = recover(&cfg, &seed, Some(&graph), config(), None).unwrap();
    let (mut engine, mut store) = (rec.engine, rec.store);
    for (i, chunk) in stream.chunks(6).enumerate() {
        store.append(chunk, 0).unwrap();
        engine.apply_batch(chunk.to_vec());
        if i == 1 {
            store.snapshot(engine.as_ref()).unwrap();
        }
    }
    drop((engine, store));

    let rec = recover(&cfg, &seed, Some(&graph), config(), None).unwrap();
    assert_eq!(rec.snapshot_seq, Some(12));
    assert_eq!(rec.replayed, 18);
    let host = EngineHost::new(rec.engine, Some(rec.store), Registry::new());
    let server = Server::bind("127.0.0.1:0", host).unwrap();
    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || server.run());

    let mut client = kiff::serve::Client::connect(&addr).unwrap();
    for u in 0..8u32 {
        let over_wire = client.neighbors(u).unwrap();
        let local = in_process.neighbors(u);
        assert_eq!(over_wire, local, "user {u} diverged over the wire");
    }
    client.shutdown().unwrap();
    daemon.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
