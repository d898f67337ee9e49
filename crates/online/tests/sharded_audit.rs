//! Invariant audit of the sharded engine under long random mixed update
//! streams: after any sequence of adds, removals, reinforcements and new
//! users, every shard's counters must equal brute-force profile
//! intersections, every stored edge must carry a fresh similarity, and
//! the cross-shard reverse-edge invariant must hold exactly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use kiff_dataset::generators::bipartite::{generate_bipartite, BipartiteConfig};
use kiff_online::{OnlineConfig, ShardConfig, ShardedOnlineKnn, Update};
use kiff_similarity::intersect_count;

/// Checks counters and stored similarities against the live profiles,
/// plus the engine's own cross-shard invariants.
fn audit(engine: &ShardedOnlineKnn) {
    engine.validate_invariants();
    let n = engine.num_users() as u32;
    for u in 0..n {
        for v in (u + 1)..n {
            let expected = intersect_count(
                engine.data().profile(u).items,
                engine.data().profile(v).items,
            ) as u32;
            assert_eq!(engine.shared_count(u, v), expected, "counter ({u}, {v})");
            assert_eq!(engine.shared_count(v, u), expected, "counter ({v}, {u})");
        }
        for nb in engine.neighbors(u) {
            let fresh = engine
                .config()
                .metric
                .eval(engine.data().profile(u), engine.data().profile(nb.id));
            assert!(
                (nb.sim - fresh).abs() < 1e-12,
                "stale edge {u} -> {}: stored {} fresh {fresh}",
                nb.id,
                nb.sim
            );
            assert!(nb.sim > 0.0, "zero-similarity edge {u} -> {}", nb.id);
        }
    }
}

#[test]
fn long_mixed_stream_stays_consistent_across_shards() {
    let base = generate_bipartite(&BipartiteConfig::tiny("shard-audit", 99));
    let mut engine = ShardedOnlineKnn::new(
        &base,
        OnlineConfig::new(5),
        ShardConfig::new(3).with_threads(2),
    );
    let mut rng = StdRng::seed_from_u64(7);

    let mut applied = 0u64;
    for step in 0..450 {
        let n = engine.num_users() as u32;
        let items = engine.data().num_items() as u32;
        let roll = rng.gen_range(0u32..10);
        if roll < 6 {
            engine.apply(Update::AddRating {
                user: rng.gen_range(0..n),
                item: rng.gen_range(0..items),
                rating: rng.gen_range(1..6) as f32,
            });
            applied += 1;
        } else if roll < 8 {
            let u = rng.gen_range(0..n);
            let profile = engine.data().profile(u);
            if !profile.is_empty() {
                let idx = rng.gen_range(0..profile.len());
                let item = profile.items[idx];
                engine.apply(Update::RemoveRating { user: u, item });
                applied += 1;
            }
        } else if roll < 9 {
            engine.apply(Update::AddUser);
            applied += 1;
        } else {
            // A newcomer arrives with a rating directly.
            engine.apply(Update::AddRating {
                user: n,
                item: rng.gen_range(0..items),
                rating: 1.0,
            });
            applied += 1;
        }
        if step % 150 == 149 {
            audit(&engine);
        }
    }
    audit(&engine);
    let life = engine.lifetime_stats();
    assert_eq!(life.updates, applied);
    assert!(life.sim_evals > 0);
}

#[test]
fn batched_stream_stays_consistent_across_four_shards() {
    let base = generate_bipartite(&BipartiteConfig::tiny("shard-audit-batch", 123));
    let mut engine = ShardedOnlineKnn::new(
        &base,
        OnlineConfig::new(4),
        ShardConfig::new(4).with_threads(2),
    );
    let mut rng = StdRng::seed_from_u64(11);

    for _ in 0..10 {
        let n = engine.num_users() as u32;
        let items = engine.data().num_items() as u32;
        let batch: Vec<Update> = (0..40)
            .map(|_| Update::AddRating {
                user: rng.gen_range(0..n),
                item: rng.gen_range(0..items),
                rating: 1.0,
            })
            .collect();
        let stats = engine.apply_batch(batch);
        assert_eq!(stats.updates, 40);
        audit(&engine);
    }
}
