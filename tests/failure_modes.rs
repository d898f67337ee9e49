//! Degenerate-input and failure-injection tests: pathological datasets the
//! algorithms must survive with correct (if trivial) output.

use kiff::prelude::*;
use kiff_core::Gamma;

/// Every user rated the single same item: everyone is everyone's
/// neighbour with similarity 1 — maximal RCS density.
#[test]
fn one_item_shared_by_all() {
    let n = 50u32;
    let mut b = DatasetBuilder::new("star-item", n as usize, 1);
    for u in 0..n {
        b.add_rating(u, 0, 1.0);
    }
    let ds = b.build();
    let k = 5;
    let graph = KnnGraphBuilder::new(k).threads(1).build(&ds);
    for u in 0..n {
        let ns = graph.neighbors(u);
        assert_eq!(ns.len(), k, "user {u}");
        assert!(ns.iter().all(|x| (x.sim - 1.0).abs() < 1e-12));
    }
    // Tie-aware recall: any k users are an optimal KNN set.
    let sim = WeightedCosine::fit(&ds);
    let exact = exact_knn(&ds, &sim, k, Some(1));
    assert_eq!(recall(&exact, &graph), 1.0);
}

/// Fully disjoint profiles: nobody is anybody's neighbour.
#[test]
fn fully_disjoint_profiles() {
    let n = 30usize;
    let mut b = DatasetBuilder::new("disjoint", n, n);
    for u in 0..n as u32 {
        b.add_rating(u, u, 1.0);
    }
    let ds = b.build();
    let graph = KnnGraphBuilder::new(3).threads(1).build(&ds);
    for u in 0..n as u32 {
        assert!(graph.neighbors(u).is_empty(), "user {u}");
    }
    let sim = WeightedCosine::fit(&ds);
    let exact = exact_knn(&ds, &sim, 3, Some(1));
    assert_eq!(recall(&exact, &graph), 1.0);
}

/// k larger than the population: neighbourhoods are capped at n − 1.
#[test]
fn k_exceeds_population() {
    let mut b = DatasetBuilder::new("small-n", 4, 1);
    for u in 0..4 {
        b.add_rating(u, 0, 1.0);
    }
    let ds = b.build();
    let graph = KnnGraphBuilder::new(100).threads(1).build(&ds);
    for u in 0..4 {
        assert_eq!(graph.neighbors(u).len(), 3);
    }
}

/// A hub user who rated everything: appears in every RCS without
/// overflowing anything.
#[test]
fn hub_user() {
    let (n, items) = (40usize, 20usize);
    let mut b = DatasetBuilder::new("hub", n, items);
    for i in 0..items as u32 {
        b.add_rating(0, i, 1.0); // the hub
    }
    for u in 1..n as u32 {
        b.add_rating(u, u % items as u32, 1.0);
    }
    let ds = b.build();
    let sim = WeightedCosine::fit(&ds);
    let graph = Kiff::new(KiffConfig::exact(5).with_threads(1))
        .run(&ds, &sim)
        .graph;
    // The hub shares an item with every user; every user's list contains
    // somebody (at least the hub).
    for u in 0..n as u32 {
        assert!(!graph.neighbors(u).is_empty(), "user {u}");
    }
    assert_eq!(graph.neighbors(0).len(), 5);
}

/// Identical profiles everywhere: all similarities tie at 1.0; the
/// deterministic tie-break (smallest id) must produce stable output.
#[test]
fn all_identical_profiles() {
    let n = 25usize;
    let mut b = DatasetBuilder::new("clones", n, 3);
    for u in 0..n as u32 {
        for i in 0..3 {
            b.add_rating(u, i, 2.0);
        }
    }
    let ds = b.build();
    let sim = WeightedCosine::fit(&ds);
    let graph = Kiff::new(KiffConfig::exact(4).with_threads(1))
        .run(&ds, &sim)
        .graph;
    // User 10's neighbours are the four smallest other ids.
    let ids: Vec<u32> = graph.neighbors(10).iter().map(|x| x.id).collect();
    assert_eq!(ids, vec![0, 1, 2, 3]);
    let exact = exact_knn(&ds, &sim, 4, Some(1));
    assert_eq!(recall(&exact, &graph), 1.0);
}

/// Gamma of 1: the slowest possible drip still converges to the same
/// exhaustive answer when β = 0.
#[test]
fn gamma_one_still_exact_with_beta_zero() {
    let mut b = DatasetBuilder::new("drip", 20, 6);
    for u in 0..20u32 {
        b.add_rating(u, u % 6, 1.0);
        b.add_rating(u, (u + 1) % 6, 1.0);
    }
    let ds = b.build();
    let sim = WeightedCosine::fit(&ds);
    let mut config = KiffConfig::new(3)
        .with_gamma(1)
        .with_beta(0.0)
        .with_threads(1);
    config.max_iterations = 100_000;
    let drip = Kiff::new(config).run(&ds, &sim);
    let exact = Kiff::new(KiffConfig {
        gamma: Gamma::All,
        beta: 0.0,
        ..KiffConfig::new(3)
    })
    .run(&ds, &sim);
    for u in 0..20u32 {
        assert_eq!(
            drip.graph.neighbors(u),
            exact.graph.neighbors(u),
            "user {u}"
        );
    }
    assert!(drip.stats.iterations > exact.stats.iterations);
}

/// Max-iterations cap actually caps.
#[test]
fn max_iterations_cap_binds() {
    let ds = kiff_dataset::PaperDataset::Wikipedia.generate(0.05, 3);
    let sim = WeightedCosine::fit(&ds);
    let mut config = KiffConfig::new(5)
        .with_gamma(1)
        .with_beta(0.0)
        .with_threads(1);
    config.max_iterations = 3;
    let result = Kiff::new(config).run(&ds, &sim);
    assert_eq!(result.stats.iterations, 3);
}

/// Loader failure injection: malformed files report the offending line
/// and never panic.
#[test]
fn loader_failure_injection() {
    use kiff_dataset::io::{parse_snap_str, LoadError};
    for (text, bad_line) in [
        ("1 2\nx y\n", 2),
        ("1\n", 1),
        ("1 2 NaN\n", 1),
        ("1 2 0\n", 1),
        ("1 2 -3\n", 1),
        ("9999999999999999999999 1\n", 1),
    ] {
        match parse_snap_str("bad", text) {
            Err(LoadError::Parse { line, .. }) => assert_eq!(line, bad_line, "input {text:?}"),
            other => panic!("expected parse error for {text:?}, got {other:?}"),
        }
    }
}

/// Loading a missing file surfaces the I/O error.
#[test]
fn loader_missing_file() {
    let err = kiff_dataset::io::load_snap_tsv("/nonexistent/kiff-test.tsv").unwrap_err();
    assert!(matches!(err, kiff_dataset::io::LoadError::Io(_)));
}

/// The rating-threshold heuristic (§VII) composes with the full pipeline
/// and preserves the neighbours that rated things positively. The data
/// must be *sparse* for the threshold to remove whole candidate pairs —
/// on dense data every pair still shares some highly rated item (which is
/// also why the paper pitches the heuristic for RCS-size reduction).
#[test]
fn rating_threshold_end_to_end() {
    use kiff_dataset::generators::bipartite::{generate_bipartite, BipartiteConfig};
    use kiff_dataset::generators::RatingModel;
    let ds = generate_bipartite(&BipartiteConfig {
        rating_model: RatingModel::Stars { half_steps: true },
        num_users: 500,
        num_items: 400,
        target_ratings: 4_000,
        ..BipartiteConfig::tiny("thr-e2e", 11)
    });
    let sim = WeightedCosine::fit(&ds);
    let plain = Kiff::new(KiffConfig::new(5).with_threads(1)).run(&ds, &sim);
    let pruned = Kiff::new(
        KiffConfig::new(5)
            .with_threads(1)
            .with_rating_threshold(3.0),
    )
    .run(&ds, &sim);
    // The heuristic must reduce work…
    assert!(
        pruned.stats.total_rcs < plain.stats.total_rcs,
        "threshold did not shrink RCSs: {} vs {}",
        pruned.stats.total_rcs,
        plain.stats.total_rcs
    );
    // …and stay a usable approximation.
    let exact = exact_knn(&ds, &sim, 5, Some(1));
    let r = recall(&exact, &pruned.graph);
    assert!(r > 0.7, "threshold recall collapsed: {r}");
}

mod telemetry {
    //! Telemetry accounting over a sharded replay. The per-shard
    //! `shard.N.repairs` and `shard.N.cross_messages` counters and the
    //! shared `online.sims` counter are flushed from plain per-batch
    //! tallies at batch end; after every batch they must reconcile
    //! exactly with the engine's own accounting.

    use kiff::dataset::generators::bipartite::{generate_bipartite, BipartiteConfig};
    use kiff::online::{OnlineConfig, ShardConfig, ShardedOnlineKnn, Update};
    use kiff::telemetry::Registry;

    #[test]
    fn per_shard_counters_reconcile_with_batch_accounting() {
        let base = generate_bipartite(&BipartiteConfig::tiny("failure-modes", 41));
        let registry = Registry::new();
        let mut engine = ShardedOnlineKnn::new(
            &base,
            OnlineConfig::new(5).with_telemetry(registry.clone()),
            ShardConfig::new(3).with_threads(2),
        );
        let users = engine.num_users() as u32;
        let items = engine.data().num_items() as u32;

        let mut total_repaired = 0u64;
        let mut total_sims = 0u64;
        for round in 0..12u32 {
            let first = round % users;
            let batch: Vec<Update> = (0..16)
                .map(|i| Update::AddRating {
                    user: (first + i) % users,
                    item: (round * 7 + i) % items,
                    rating: 1.0 + (i % 5) as f32,
                })
                .collect();
            let stats = engine.apply_batch(batch);
            total_repaired += stats.repaired_users;
            total_sims += stats.sim_evals;

            // Whichever shard performed each repair owns it in the
            // registry: the per-shard sums must reconcile exactly with
            // the engine's own batch accounting.
            let snap = registry.snapshot();
            assert_eq!(
                snap.counter_sum_matching("shard.", ".repairs"),
                total_repaired,
                "round {round}: per-shard repair sum diverged"
            );
            assert_eq!(
                snap.counter("online.sims"),
                Some(total_sims),
                "round {round}: similarity count diverged"
            );
            assert_eq!(
                snap.counter_sum_matching("shard.", ".cross_messages"),
                engine.cross_shard_messages(),
                "round {round}: cross-traffic counters diverged"
            );
        }
        assert!(total_repaired > 0, "batches must have repaired someone");
        // The lifetime figure is the sum of per-batch counter deltas.
        assert!(
            engine.cross_shard_messages() > 0,
            "no traffic crossed shards"
        );
        assert_eq!(
            engine.lifetime_stats().cross_messages,
            engine.cross_shard_messages()
        );
        assert_eq!(
            engine.shard_cross_traffic().iter().sum::<u64>(),
            engine.cross_shard_messages()
        );
        engine.validate_invariants();
    }
}

/// Failure injection against the persistence layer: torn and corrupted
/// WAL records must cost only the damaged suffix, never the prefix and
/// never a panic.
mod persistence {
    use std::path::PathBuf;

    use kiff::prelude::*;
    use kiff::serve::{recover, StoreConfig};

    fn scratch(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("kiff-failure-persist-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    fn seed() -> Dataset {
        let mut b = DatasetBuilder::new("persist-seed", 6, 8);
        for u in 0..6u32 {
            for j in 0..3u32 {
                b.add_rating(u, (u * 2 + j) % 8, 1.0 + j as f32);
            }
        }
        b.build()
    }

    fn stream() -> Vec<Update> {
        (0..12u32)
            .map(|i| Update::AddRating {
                user: i % 6,
                item: (i * 5) % 8,
                rating: 1.0 + (i % 3) as f32,
            })
            .collect()
    }

    /// Logs the stream one update per batch, then damages the newest
    /// segment's tail in two ways. Recovery must report the truncation
    /// and land exactly on the state of a run that stopped right before
    /// the damaged record.
    #[test]
    fn damaged_wal_tail_recovers_to_the_last_valid_record() {
        for (tag, damage) in [
            (
                "bitflip",
                &(|bytes: &mut Vec<u8>| {
                    let n = bytes.len();
                    bytes[n - 1] ^= 0xff; // CRC of the last record now fails
                }) as &dyn Fn(&mut Vec<u8>),
            ),
            ("torn", &|bytes: &mut Vec<u8>| {
                let n = bytes.len();
                bytes.truncate(n - 3); // a write cut off mid-record
            }),
        ] {
            let dir = scratch(tag);
            let ds = seed();
            let stream = stream();
            let cfg = StoreConfig::new(&dir).with_snapshot_every(0);
            let rec = recover(&cfg, &ds, None, OnlineConfig::new(2), None).unwrap();
            let (mut engine, mut store) = (rec.engine, rec.store);
            for u in &stream {
                store.append(std::slice::from_ref(u), 0).unwrap();
                engine.apply_batch(vec![*u]);
            }
            drop((engine, store));

            // Damage the single segment's tail.
            let segment = std::fs::read_dir(&dir)
                .unwrap()
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .find(|p| p.extension().is_some_and(|x| x == "log"))
                .expect("a WAL segment exists");
            let mut bytes = std::fs::read(&segment).unwrap();
            damage(&mut bytes);
            std::fs::write(&segment, &bytes).unwrap();

            // The run the recovery must reproduce: everything but the
            // damaged final record.
            let mut reference = OnlineKnn::new(&ds, OnlineConfig::new(2));
            for u in &stream[..stream.len() - 1] {
                reference.apply_batch(vec![*u]);
            }

            let rec = recover(&cfg, &ds, None, OnlineConfig::new(2), None).unwrap();
            assert!(rec.truncated, "{tag}: the damage must be reported");
            assert_eq!(rec.replayed, stream.len() as u64 - 1, "{tag}");
            assert_eq!(
                rec.engine.graph().as_ref(),
                reference.graph().as_ref(),
                "{tag}: recovered graph diverged from the undamaged prefix"
            );

            // The daemon keeps going: appends after the heal replay
            // cleanly (the torn tail was truncated away on reopen).
            let (mut engine, mut store) = (rec.engine, rec.store);
            let extra = Update::AddRating {
                user: 0,
                item: 7,
                rating: 5.0,
            };
            store.append(&[extra], 0).unwrap();
            engine.apply_batch(vec![extra]);
            drop((engine, store));
            let rec = recover(&cfg, &ds, None, OnlineConfig::new(2), None).unwrap();
            assert!(!rec.truncated, "{tag}: the heal is permanent");
            assert_eq!(rec.replayed, stream.len() as u64, "{tag}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// A corrupt snapshot is a hard error (it cannot be silently
    /// ignored — the WAL before it may already be pruned), and it says
    /// which artefact is at fault.
    #[test]
    fn corrupt_snapshot_is_a_typed_error() {
        let dir = scratch("snap");
        let ds = seed();
        let cfg = StoreConfig::new(&dir).with_snapshot_every(0);
        let rec = recover(&cfg, &ds, None, OnlineConfig::new(2), None).unwrap();
        let (mut engine, mut store) = (rec.engine, rec.store);
        store.append(&stream(), 0).unwrap();
        engine.apply_batch(stream());
        store.snapshot(engine.as_ref()).unwrap();
        drop((engine, store));

        let snap = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|x| x == "kifs"))
            .expect("a snapshot exists");
        let mut bytes = std::fs::read(&snap).unwrap();
        bytes[3] ^= 0xff; // break the magic
        std::fs::write(&snap, &bytes).unwrap();

        let err = match recover(&cfg, &ds, None, OnlineConfig::new(2), None) {
            Err(e) => e,
            Ok(_) => panic!("a corrupt snapshot must fail recovery"),
        };
        assert_eq!(err.exit_code(), 5, "corruption class");
        assert!(err.to_string().contains("snapshot"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

mod serving {
    use std::path::PathBuf;
    use std::time::{Duration, Instant};

    use kiff::prelude::*;
    use kiff::serve::{recover, Client, ServerConfig, StoreConfig};
    use kiff_core::fault::{self, points, Trigger};
    use kiff_core::KiffError;

    fn scratch(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("kiff-failure-serving-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    fn seed() -> Dataset {
        let mut b = DatasetBuilder::new("serving-seed", 6, 8);
        for u in 0..6u32 {
            for j in 0..3u32 {
                b.add_rating(u, (u * 2 + j) % 8, 1.0 + j as f32);
            }
        }
        b.build()
    }

    /// A WAL fault flips the daemon into degraded mode: queries keep
    /// serving, writes refuse with typed `Unavailable`, `health`
    /// reports it — and the background recovery task heals the WAL and
    /// flips back to healthy, after which writes land again.
    #[test]
    fn wal_fault_degrades_reads_survive_then_recovery_heals() {
        let ds = seed();
        let dir = scratch("degraded");
        let dir_scope = dir.to_string_lossy().into_owned();
        let cfg = StoreConfig::new(&dir).with_snapshot_every(0);
        let rec = recover(&cfg, &ds, None, OnlineConfig::new(3), None).unwrap();
        let host = EngineHost::new(rec.engine, Some(rec.store), Registry::new());
        let server_config = ServerConfig {
            recovery_interval: Duration::from_millis(5),
            ..ServerConfig::default()
        };
        let server = kiff::serve::Server::bind_with("127.0.0.1:0", host, server_config).unwrap();
        let addr = server.local_addr().to_string();
        let daemon = std::thread::spawn(move || server.run());
        let mut client = Client::connect(&addr).unwrap();

        let update = [Update::AddRating {
            user: 0,
            item: 7,
            rating: 4.0,
        }];

        // Poison the WAL on the next append, and hold it down — every
        // heal attempt's fsync probe fails too — so the degraded
        // window stays open for as long as the test wants to observe
        // it, however fast the recovery task spins.
        fault::arm_scoped(points::WAL_APPEND, Trigger::Nth(1), &dir_scope);
        fault::arm_scoped(points::WAL_FSYNC, Trigger::Every(1), &dir_scope);
        let err = client.update_batch(&update, 1).unwrap_err();
        match &err {
            KiffError::Remote { kind, op, .. } => {
                assert_eq!(kind, "unavailable");
                assert_eq!(op, "update");
            }
            other => panic!("expected a remote unavailable error, got {other}"),
        }
        assert!(err.is_retryable(), "degraded writes invite a retry");

        // Reads keep serving from the in-memory engine while degraded.
        assert!(!client.neighbors(0).unwrap().is_empty());
        let health = client.health().unwrap();
        assert_ne!(health.status, "healthy", "the WAL is poisoned");
        assert_eq!(health.seq, Some(0), "the failed batch applied nothing");

        // Release the WAL: the recovery task reopens it and flips back
        // to healthy on its own.
        fault::disarm(points::WAL_FSYNC);
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let health = client.health().unwrap();
            if health.status == "healthy" {
                break;
            }
            assert!(Instant::now() < deadline, "recovery never healed the WAL");
            std::thread::sleep(Duration::from_millis(5));
        }

        // Healed: the retried batch lands, durably.
        let ack = client.update_batch(&update, 1).unwrap();
        assert_eq!(ack.applied, 1);
        assert!(!ack.deduped, "the failed attempt must not count as applied");
        assert_eq!(ack.seq, Some(1));

        client.shutdown().unwrap();
        daemon.join().unwrap().unwrap();

        let rec = recover(&cfg, &ds, None, OnlineConfig::new(3), None).unwrap();
        assert_eq!(rec.store.seq(), 1, "exactly the healed append persisted");
        assert_eq!(rec.store.batch_hwm(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
