//! Random initial graphs ("greedy approaches start from an initial random
//! graph", §II-D).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use kiff_dataset::Dataset;
use kiff_graph::{KnnGraph, SharedKnn};
use kiff_parallel::{effective_threads, Counter};
use kiff_similarity::{ScorerWorkspace, Similarity, PREPARED_MIN_BATCH};

use crate::config::GreedyConfig;

/// Fills `shared` with `k` distinct random neighbours per user, scored with
/// the real metric (entries carry the `new` flag for NN-Descent's first
/// join). Draws come from `config.seed`, and scores count into
/// `config.telemetry`. When `k` reaches `PREPARED_MIN_BATCH`, each user's
/// profile is prepared once ([`Similarity::scorer`]) and all of her `k`
/// draws stream through the prepared scorer; otherwise each draw is
/// scored pairwise. Both score identically. Returns the number of
/// similarity evaluations spent.
pub fn random_init<S: Similarity + ?Sized>(
    dataset: &Dataset,
    sim: &S,
    shared: &SharedKnn,
    config: &GreedyConfig,
) -> u64 {
    let n = dataset.num_users();
    let k = shared.k();
    if n <= 1 {
        return 0;
    }
    let evals = Counter::new();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut ws = ScorerWorkspace::with_telemetry(&config.telemetry);
    // Below the batch threshold a user scores too few draws to amortise
    // preparation — same fallback as every other call site.
    let prepare = k.min(n - 1) >= PREPARED_MIN_BATCH;
    for u in 0..n as u32 {
        let mut scorer = prepare.then(|| sim.scorer(dataset, u, &mut ws));
        let mut picked = 0usize;
        let mut guard = 0usize;
        let budget = 20 * k + 100;
        while picked < k.min(n - 1) && guard < budget {
            guard += 1;
            let v = rng.gen_range(0..n as u32);
            if v == u {
                continue;
            }
            // `update` rejects duplicates, so a repeated draw is retried.
            let mut heap = shared.lock(u);
            if heap.contains(v) {
                continue;
            }
            let s = match scorer.as_mut() {
                Some(scorer) => scorer.score(v),
                None => sim.sim(dataset, u, v),
            };
            evals.incr();
            heap.update(s, v);
            picked += 1;
        }
    }
    if !prepare {
        // The prepared scorers counted their own scores.
        ws.count_scores(evals.get() as usize);
    }
    evals.get()
}

/// A standalone random `k`-degree graph with true similarity scores — the
/// "Random" baseline of Table VII.
pub fn random_graph<S: Similarity + ?Sized>(
    dataset: &Dataset,
    sim: &S,
    k: usize,
    seed: u64,
) -> KnnGraph {
    let shared = SharedKnn::new(dataset.num_users(), k);
    let config = GreedyConfig {
        seed,
        ..GreedyConfig::new(k)
    };
    random_init(dataset, sim, &shared, &config);
    shared.snapshot(effective_threads(config.threads))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kiff_dataset::generators::bipartite::{generate_bipartite, BipartiteConfig};
    use kiff_similarity::{Pairwise, WeightedCosine};

    #[test]
    fn fills_k_distinct_neighbors() {
        let ds = generate_bipartite(&BipartiteConfig::tiny("ri", 3));
        let g = random_graph(&ds, &WeightedCosine::new(), 5, 7);
        for u in 0..ds.num_users() as u32 {
            let ids: Vec<u32> = g.neighbors(u).iter().map(|x| x.id).collect();
            assert_eq!(ids.len(), 5, "user {u}");
            assert!(!ids.contains(&u));
            let mut d = ids.clone();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), 5);
        }
    }

    #[test]
    fn scoring_modes_build_identical_graphs() {
        let ds = generate_bipartite(&BipartiteConfig::tiny("rp", 13));
        let sim = WeightedCosine::fit(&ds);
        let prepared = random_graph(&ds, &sim, 5, 7);
        let pairwise = random_graph(&ds, &Pairwise(&sim), 5, 7);
        assert_eq!(prepared, pairwise);
    }

    #[test]
    fn deterministic_in_seed() {
        let ds = generate_bipartite(&BipartiteConfig::tiny("rs", 5));
        let a = random_graph(&ds, &WeightedCosine::new(), 4, 11);
        let b = random_graph(&ds, &WeightedCosine::new(), 4, 11);
        assert_eq!(a, b);
        let c = random_graph(&ds, &WeightedCosine::new(), 4, 12);
        assert_ne!(a, c);
    }

    #[test]
    fn scores_are_true_similarities() {
        let ds = generate_bipartite(&BipartiteConfig::tiny("rt", 9));
        let sim = WeightedCosine::fit(&ds);
        let g = random_graph(&ds, &sim, 3, 1);
        for u in 0..ds.num_users() as u32 {
            for nb in g.neighbors(u) {
                assert!((nb.sim - sim.sim(&ds, u, nb.id)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn tiny_population_caps_neighbourhoods() {
        let mut b = kiff_dataset::DatasetBuilder::new("3users", 3, 2);
        b.add_rating(0, 0, 1.0);
        b.add_rating(1, 0, 1.0);
        b.add_rating(2, 1, 1.0);
        let ds = b.build();
        let g = random_graph(&ds, &WeightedCosine::new(), 10, 2);
        for u in 0..3u32 {
            assert_eq!(g.neighbors(u).len(), 2, "only two possible neighbours");
        }
    }
}
