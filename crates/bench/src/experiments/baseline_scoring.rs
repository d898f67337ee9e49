//! Baseline-suite scoring regression bench: `baselines.json`.
//!
//! KIFF's own refinement scores through prepared scorers; this
//! experiment measures the same path across the *comparison suite* —
//! NN-Descent's local joins, HyRec's neighbour-of-neighbour scans, LSH's
//! bucket joins, the random initialisation and `exact_knn`'s row kernel —
//! each of which prepares one reference profile per candidate batch
//! (`kiff_similarity::score_candidates`), against the same algorithm run
//! over `kiff_similarity::Pairwise` of the metric, which re-merges raw
//! profiles per pair (one boxed `PairwiseScorer` per batch).
//!
//! Two hard gates ride along, mirroring the `counting` experiment:
//!
//! * per algorithm, prepared and pairwise runs must build *identical*
//!   graphs, row by row with the same similarity bits, over equal
//!   evaluation counts — same seeds, same similarity values, same
//!   updates;
//! * the identity must hold for every metric family, not just the cosine
//!   the timings use (spot-checked with Jaccard and Adamic–Adar).
//!
//! Runs use the suite's thread count: the greedy baselines now derive
//! change counts and NN flags from post-join membership diffs, so a
//! parallel run is the same deterministic sweep as a serial one and the
//! identity gates hold at any thread count (the ROADMAP's tie-break
//! follow-up). Prepared and pairwise are always timed at the *same*
//! thread count, so the speedup ratio the gate reads stays meaningful.

use std::time::{Duration, Instant};

use kiff::Algorithm;
use kiff_baselines::{GreedyConfig, HyRec, Lsh, LshConfig, LshFamily, NnDescent};
use kiff_dataset::generators::bipartite::{generate_bipartite, BipartiteConfig};
use kiff_dataset::generators::RatingModel;
use kiff_dataset::Dataset;
use kiff_graph::KnnGraph;
use kiff_similarity::{AdamicAdar, Jaccard, Pairwise, Similarity, WeightedCosine};

use super::{graphs_bit_identical, Ctx};

/// Timing repetitions per measured configuration (minimum taken).
const REPS: usize = 3;

/// Neighbourhood size of every measured run.
const K: usize = 10;

/// The algorithms measured and identity-gated (the whole baseline
/// suite; KIFF itself is covered by the `counting` experiment).
const ALGORITHMS: [(Algorithm, &str); 4] = [
    (Algorithm::NnDescent, "nndescent"),
    (Algorithm::HyRec, "hyrec"),
    (Algorithm::Lsh, "lsh"),
    (Algorithm::Exact, "exact_knn"),
];

/// Profile-heavy synthetic in the regime where preparation pays: user
/// degrees well above the dense-stamp threshold, item profiles long
/// enough that every algorithm's candidate batches are real (the paper's
/// Wikipedia/Gowalla shapes, scaled down).
fn baselines_dataset(multiplier: f64, seed: u64) -> Dataset {
    let m = multiplier.clamp(0.05, 2.0);
    generate_bipartite(&BipartiteConfig {
        name: "bench-baselines".to_string(),
        num_users: (10_000.0 * m) as usize,
        num_items: (1_200.0 * m) as usize,
        target_ratings: (400_000.0 * m) as usize,
        user_degree_min: 2,
        user_degree_max: 300,
        item_exponent: 0.8,
        rating_model: RatingModel::Stars { half_steps: false },
        seed,
    })
}

/// Runs `f` `REPS` times, returning the fastest wall time and the last
/// result.
fn time_best<R>(mut f: impl FnMut() -> R) -> (Duration, R) {
    let mut best = Duration::MAX;
    let mut out = None;
    for _ in 0..REPS {
        let start = Instant::now();
        let r = f();
        best = best.min(start.elapsed());
        out = Some(r);
    }
    (best, out.expect("REPS > 0"))
}

struct AlgoRun {
    label: &'static str,
    pairwise_s: f64,
    prepared_s: f64,
    speedup: f64,
    /// Candidate pairs scored per run (both runs score the same set).
    sim_evals: u64,
    identical: bool,
}

/// One run of `algorithm` over `sim`, through the per-algorithm entry
/// points (not the builder facade, which discards the stats), with LSH on
/// signatures of `family`: returns the graph and, where the algorithm
/// reports it, its similarity evaluation count.
fn run_algorithm<S: Similarity + ?Sized>(
    ds: &Dataset,
    sim: &S,
    algorithm: Algorithm,
    family: LshFamily,
    seed: u64,
    threads: Option<usize>,
) -> (KnnGraph, Option<u64>) {
    let mut greedy = GreedyConfig::new(K);
    greedy.threads = threads;
    greedy.seed = seed;
    match algorithm {
        Algorithm::NnDescent => {
            let (graph, stats) = NnDescent::new(greedy).run(ds, sim);
            (graph, Some(stats.sim_evals))
        }
        Algorithm::HyRec => {
            let (graph, stats) = HyRec::new(greedy).run(ds, sim);
            (graph, Some(stats.sim_evals))
        }
        Algorithm::Lsh => {
            let mut config = LshConfig::new(K);
            config.family = family;
            config.threads = threads;
            config.seed = seed;
            let (graph, stats) = Lsh::new(config).run(ds, sim);
            (graph, Some(stats.sim_evals))
        }
        Algorithm::Exact => (kiff_graph::exact_knn(ds, sim, K, threads), None),
        other => unreachable!("not part of the baseline suite: {other:?}"),
    }
}

/// Runs the baseline-scoring regression bench and writes `baselines.json`.
pub fn baselines(ctx: &mut Ctx) -> String {
    let ds = baselines_dataset(ctx.scale.multiplier, ctx.seed);
    // Item profiles are shared by every build; materialise them up front
    // so the first timed run is not charged for them.
    let _ = ds.item_profiles();
    let seed = ctx.seed;
    let cosine = WeightedCosine::fit(&ds);
    // `exact_knn` returns no stats; it scores each user against her full
    // unpivoted co-rater set, which `user_candidate_counts` — the same
    // gather the online engine's counters are audited against — counts.
    let exact_evals: u64 = (0..ds.num_users() as u32)
        .map(|u| kiff_core::user_candidate_counts(&ds, u).len() as u64)
        .sum();

    // Multi-threaded like every other gate: parallel greedy runs are
    // deterministic sweeps since the membership-diff accounting landed.
    let threads = ctx.threads;
    // Cosine runs LSH on random hyperplanes, Jaccard on MinHash, as the
    // builder facade picks them.
    let hyperplanes = LshConfig::new(K).family;
    let oracle = Pairwise(&cosine);

    let mut runs: Vec<AlgoRun> = Vec::new();
    for (algorithm, label) in ALGORITHMS {
        let (pairwise_t, (pairwise_graph, pairwise_evals)) =
            time_best(|| run_algorithm(&ds, &oracle, algorithm, hyperplanes, seed, threads));
        let (prepared_t, (prepared_graph, prepared_evals)) =
            time_best(|| run_algorithm(&ds, &cosine, algorithm, hyperplanes, seed, threads));
        let pairwise_s = pairwise_t.as_secs_f64().max(1e-9);
        let prepared_s = prepared_t.as_secs_f64().max(1e-9);
        // Both runs must score the same pair set to the same bits;
        // bit-identical graphs (the gate below) plus equal eval counts
        // pin that down.
        let identical = graphs_bit_identical(&pairwise_graph, &prepared_graph)
            && pairwise_evals == prepared_evals;
        runs.push(AlgoRun {
            label,
            pairwise_s,
            prepared_s,
            speedup: pairwise_s / prepared_s,
            sim_evals: prepared_evals.unwrap_or(exact_evals),
            identical,
        });
    }

    // Cross-metric identity spot checks (1 rep each): the prepared path
    // must be invisible for every metric family, not just cosine.
    let adamic_adar = AdamicAdar::fit(&ds);
    let others: [(&dyn Similarity, LshFamily, &str); 2] = [
        (&Jaccard, LshConfig::minhash(K).family, "jaccard"),
        (&adamic_adar, hyperplanes, "adamic-adar"),
    ];
    let mut metric_checks: Vec<(&str, &str, bool)> = Vec::new();
    for (algorithm, label) in ALGORITHMS {
        for (sim, family, metric_label) in others {
            let (prepared, _) = run_algorithm(&ds, sim, algorithm, family, seed, threads);
            let (pairwise, _) =
                run_algorithm(&ds, &Pairwise(sim), algorithm, family, seed, threads);
            metric_checks.push((
                label,
                metric_label,
                graphs_bit_identical(&prepared, &pairwise),
            ));
        }
    }

    let mut out = String::new();
    out.push_str(&format!(
        "Baseline-suite scoring on {}: {} users, {} items, {} ratings\n\
         (k={K}, cosine, {} thread(s), best of {REPS}; prepared = one \
         reference preparation per candidate batch, pairwise = per-pair \
         profile merge)\n\n\
         {:>10}  {:>9}  {:>9}  {:>8}  {:>13}  {}\n",
        ds.name(),
        ds.num_users(),
        ds.num_items(),
        ds.num_ratings(),
        threads.map_or_else(|| "all".to_string(), |t| t.to_string()),
        "algorithm",
        "pairwise",
        "prepared",
        "speedup",
        "sims/s(prep)",
        "graphs",
    ));
    for r in &runs {
        out.push_str(&format!(
            "{:>10}  {:>8.3}s  {:>8.3}s  {:>7.2}x  {:>13.0}  {}\n",
            r.label,
            r.pairwise_s,
            r.prepared_s,
            r.speedup,
            r.sim_evals as f64 / r.prepared_s,
            if r.identical { "identical" } else { "MISMATCH" },
        ));
    }
    out.push_str("\nCross-metric identity (prepared vs pairwise, 1 run each):\n");
    for (algo, metric, ok) in &metric_checks {
        out.push_str(&format!(
            "{algo:>10} / {metric:<12} {}\n",
            if *ok { "identical" } else { "MISMATCH" }
        ));
    }

    // Hard gates, like the counting experiment's: divergent graphs fail
    // the suite.
    for r in runs.iter().filter(|r| !r.identical) {
        let msg = format!(
            "baselines/{}: prepared vs pairwise graphs or evaluation counts diverged",
            r.label
        );
        eprintln!("AGREEMENT VIOLATION: {msg}");
        out.push_str(&format!("VIOLATION: {msg}\n"));
        ctx.violations.push(msg);
    }
    for (algo, metric, _) in metric_checks.iter().filter(|(_, _, ok)| !ok) {
        let msg = format!("baselines/{algo}/{metric}: prepared vs pairwise graphs diverged");
        eprintln!("AGREEMENT VIOLATION: {msg}");
        out.push_str(&format!("VIOLATION: {msg}\n"));
        ctx.violations.push(msg);
    }

    let runs_v: Vec<serde_json::Value> = runs
        .iter()
        .map(|r| {
            let pairwise_v = serde_json::json!({
                "wall_time_s": r.pairwise_s,
                "sims_per_sec": r.sim_evals as f64 / r.pairwise_s
            });
            let prepared_v = serde_json::json!({
                "wall_time_s": r.prepared_s,
                "sims_per_sec": r.sim_evals as f64 / r.prepared_s
            });
            serde_json::json!({
                "algorithm": r.label,
                "sim_evals": r.sim_evals,
                "pairwise": pairwise_v,
                "prepared": prepared_v,
                "prepared_speedup_vs_pairwise": r.speedup,
                "identical_graphs": r.identical
            })
        })
        .collect();
    let metric_checks_v: Vec<serde_json::Value> = metric_checks
        .iter()
        .map(|(algo, metric, ok)| {
            serde_json::json!({
                "algorithm": algo,
                "metric": metric,
                "identical_graphs": ok
            })
        })
        .collect();
    let dataset_v = serde_json::json!({
        "name": ds.name(),
        "num_users": ds.num_users(),
        "num_items": ds.num_items(),
        "num_ratings": ds.num_ratings()
    });
    let payload = serde_json::json!({
        "dataset": dataset_v,
        "k": K,
        "algorithms": runs_v,
        "metric_identity": metric_checks_v
    });
    ctx.finish(
        "baselines",
        "Baseline-suite scoring throughput, prepared vs pairwise, with graph-identity gates",
        out,
        &payload,
    )
}
