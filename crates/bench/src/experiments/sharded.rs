//! Sharded-engine scaling: `sharded.json`.
//!
//! Replays the same held-out stream as the `online` experiment (the
//! shared [`StreamScenario`]) through [`ShardedOnlineKnn`] at 1, 2, 4
//! and 8 shards (batched apply — the serving pattern the sharded engine
//! accelerates) and reports apply throughput and recall-vs-rebuild per
//! shard count. Expected shape: throughput grows with shards on
//! multi-core hardware (the 1-shard run is the coordination-overhead
//! baseline) while recall stays within a few percent of the
//! single-engine figure — partition-then-merge preserves quality (cf.
//! Cluster-and-Conquer in the related work).

use std::time::Instant;

use kiff_graph::{recall, KnnGraph};
use kiff_online::{OnlineConfig, ShardConfig, ShardedOnlineKnn, Update};

use super::{Ctx, StreamScenario, STREAM_K};

const BATCH: usize = 256;
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One shard count's outcome.
struct ShardRun {
    shards: usize,
    updates: u64,
    elapsed_s: f64,
    updates_per_sec: f64,
    sim_evals_per_update: f64,
    recall_vs_exact: f64,
}

fn replay(
    sc: &StreamScenario,
    shards: usize,
    threads: Option<usize>,
    exact: &KnnGraph,
) -> ShardRun {
    let mut engine = ShardedOnlineKnn::from_graph(
        &sc.base,
        &sc.seed_graph,
        OnlineConfig::new(STREAM_K),
        ShardConfig {
            threads,
            ..ShardConfig::new(shards)
        },
    );
    let updates: Vec<Update> = sc
        .held
        .iter()
        .map(|&(user, item, rating)| Update::AddRating { user, item, rating })
        .collect();
    let start = Instant::now();
    for chunk in updates.chunks(BATCH) {
        engine.apply_batch(chunk.iter().copied());
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    let life = *engine.lifetime_stats();
    ShardRun {
        shards,
        updates: life.updates,
        elapsed_s,
        updates_per_sec: life.updates as f64 / elapsed_s.max(1e-9),
        sim_evals_per_update: life.sim_evals_per_update(),
        recall_vs_exact: recall(exact, &engine.graph()),
    }
}

/// Runs the shard-scaling benchmark and writes `sharded.json`.
pub fn sharded(ctx: &mut Ctx) -> String {
    let sc = ctx.stream_scenario();
    let rebuild_recall = sc.rebuild_recall;

    let runs: Vec<ShardRun> = SHARD_COUNTS
        .iter()
        .map(|&s| replay(&sc, s, ctx.threads, &sc.exact))
        .collect();
    let baseline_rate = runs[0].updates_per_sec.max(1e-9);

    let mut out = String::new();
    out.push_str(&format!(
        "Sharded online maintenance on {}: {} users, {} items, {} ratings \
         ({} streamed, batch {BATCH})\n\
         full rebuild recall {rebuild_recall:.4}\n\n",
        sc.full.name(),
        sc.full.num_users(),
        sc.full.num_items(),
        sc.full.num_ratings(),
        sc.held.len(),
    ));
    for r in &runs {
        let ratio = r.recall_vs_exact / rebuild_recall.max(1e-9);
        out.push_str(&format!(
            "{} shard(s): {:>7.0} updates/s ({:.2}x vs 1 shard), \
             {:.1} sim evals/update, recall {:.4} ({:.3}x rebuild)\n",
            r.shards,
            r.updates_per_sec,
            r.updates_per_sec / baseline_rate,
            r.sim_evals_per_update,
            r.recall_vs_exact,
            ratio,
        ));
        ctx.enforce_recall_floor("sharded", &format!("{}-shards", r.shards), ratio);
    }
    out.push_str(
        "\nExpected shape: apply throughput scales with shard count on \
         multi-core hardware (>=1.5x at 4 shards) while recall stays \
         within a few percent of the single-engine figure; on a 1-core \
         box the shard counts tie, modulo coordination overhead.\n",
    );

    let dataset_v = serde_json::json!({
        "name": sc.full.name(),
        "num_users": sc.full.num_users(),
        "num_items": sc.full.num_items(),
        "num_ratings": sc.full.num_ratings(),
        "streamed_updates": sc.held.len()
    });
    let rebuild_v = serde_json::json!({ "recall": rebuild_recall });
    let runs_v: Vec<serde_json::Value> = runs
        .iter()
        .map(|r| {
            serde_json::json!({
                "shards": r.shards,
                "updates": r.updates,
                "wall_time_s": r.elapsed_s,
                "updates_per_sec": r.updates_per_sec,
                "speedup_vs_1_shard": r.updates_per_sec / baseline_rate,
                "sim_evals_per_update": r.sim_evals_per_update,
                "recall": r.recall_vs_exact,
                "recall_vs_rebuild": r.recall_vs_exact / rebuild_recall.max(1e-9)
            })
        })
        .collect();
    let payload = serde_json::json!({
        "dataset": dataset_v,
        "k": STREAM_K,
        "batch": BATCH,
        "rebuild": rebuild_v,
        "runs": runs_v
    });
    ctx.finish(
        "sharded",
        "Shard-count scaling of the online engine (kiff-online sharded)",
        out,
        &payload,
    )
}
