//! Online-maintenance trajectory: `online.json`.
//!
//! Streams the held-out 10% of an ML-4-like dataset (the shared
//! [`StreamScenario`]) through the `kiff-online` engine — one update at a
//! time and in amortised batches — and compares against rebuilding from
//! scratch. Each replay's recall-vs-rebuild is checked against
//! `--recall-floor`.

use std::time::Instant;

use kiff_graph::{recall, KnnGraph};
use kiff_online::{OnlineConfig, OnlineKnn, Update};

use super::{Ctx, StreamScenario, STREAM_K};

const BATCH: usize = 100;

/// One replay mode's outcome.
struct Replay {
    label: &'static str,
    updates: u64,
    elapsed_s: f64,
    sim_evals_per_update: f64,
    repaired_edges_per_update: f64,
    recall_vs_exact: f64,
}

fn replay(sc: &StreamScenario, batch: usize, exact: &KnnGraph) -> Replay {
    let mut engine = OnlineKnn::from_graph(&sc.base, &sc.seed_graph, OnlineConfig::new(STREAM_K));
    let start = Instant::now();
    let updates = sc
        .held
        .iter()
        .map(|&(user, item, rating)| Update::AddRating { user, item, rating });
    if batch <= 1 {
        for update in updates {
            engine.apply(update);
        }
    } else {
        let all: Vec<Update> = updates.collect();
        for chunk in all.chunks(batch) {
            engine.apply_batch(chunk.iter().copied());
        }
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    let life = *engine.lifetime_stats();
    Replay {
        label: if batch <= 1 { "one-by-one" } else { "batched" },
        updates: life.updates,
        elapsed_s,
        sim_evals_per_update: life.sim_evals_per_update(),
        repaired_edges_per_update: life.edits_per_update(),
        recall_vs_exact: recall(exact, &engine.graph()),
    }
}

/// Runs the online-maintenance benchmark and writes `online.json`.
pub fn online(ctx: &mut Ctx) -> String {
    let sc = ctx.stream_scenario();
    let runs = [replay(&sc, 1, &sc.exact), replay(&sc, BATCH, &sc.exact)];
    let rebuild_recall = sc.rebuild_recall;
    let rebuild_s = sc.rebuild_s;

    let mut out = String::new();
    out.push_str(&format!(
        "Online maintenance on {}: {} users, {} items, {} ratings ({} streamed)\n\
         full rebuild: {} sim evals in {rebuild_s:.3}s, recall {rebuild_recall:.4}\n\n",
        sc.full.name(),
        sc.full.num_users(),
        sc.full.num_items(),
        sc.full.num_ratings(),
        sc.held.len(),
        sc.rebuild_sim_evals,
    ));
    for r in &runs {
        out.push_str(&format!(
            "{:<10}: {:.0} updates/s, {:.1} sim evals/update ({:.0}x below rebuild), \
             {:.2} repaired edges/update, recall {:.4} ({:.3}x rebuild)\n",
            r.label,
            r.updates as f64 / r.elapsed_s.max(1e-9),
            r.sim_evals_per_update,
            sc.rebuild_sim_evals as f64 / r.sim_evals_per_update.max(1e-9),
            r.repaired_edges_per_update,
            r.recall_vs_exact,
            r.recall_vs_exact / rebuild_recall.max(1e-9),
        ));
        ctx.enforce_recall_floor(
            "online",
            r.label,
            r.recall_vs_exact / rebuild_recall.max(1e-9),
        );
    }
    out.push_str(
        "\nExpected shape: per-update work stays orders of magnitude below one \
         rebuild while recall lands within a few percent of it; batching trades \
         a little recall for amortised repair.\n",
    );

    let dataset_v = serde_json::json!({
        "name": sc.full.name(),
        "num_users": sc.full.num_users(),
        "num_items": sc.full.num_items(),
        "num_ratings": sc.full.num_ratings(),
        "streamed_updates": sc.held.len()
    });
    let rebuild_v = serde_json::json!({
        "sim_evals": sc.rebuild_sim_evals,
        "wall_time_s": rebuild_s,
        "recall": rebuild_recall
    });
    let runs_v: Vec<serde_json::Value> = runs
        .iter()
        .map(|r| {
            serde_json::json!({
                "mode": r.label,
                "updates": r.updates,
                "updates_per_sec": r.updates as f64 / r.elapsed_s.max(1e-9),
                "sim_evals_per_update": r.sim_evals_per_update,
                "repaired_edges_per_update": r.repaired_edges_per_update,
                "recall": r.recall_vs_exact
            })
        })
        .collect();
    let payload = serde_json::json!({
        "dataset": dataset_v,
        "k": STREAM_K,
        "rebuild": rebuild_v,
        "runs": runs_v
    });
    ctx.finish(
        "online",
        "Streaming maintenance vs rebuild (kiff-online)",
        out,
        &payload,
    )
}
