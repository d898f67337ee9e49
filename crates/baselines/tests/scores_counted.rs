//! The baselines that score through the scorer layer count every
//! evaluation into their registry's `similarity.scores`, as KIFF's refine
//! does: NN-Descent and HyRec (their random initial graph included) and
//! LSH, over a metric and over its pairwise oracle. Over the oracle they
//! prepare nothing: were `Pairwise` to forward `scorer`, every identity
//! gate would compare the prepared path with itself.

use kiff_baselines::{GreedyConfig, HyRec, Lsh, LshConfig, NnDescent};
use kiff_dataset::generators::bipartite::{generate_bipartite, BipartiteConfig};
use kiff_similarity::{Pairwise, Similarity, WeightedCosine};
use kiff_telemetry::Registry;

fn scores(registry: &Registry) -> u64 {
    registry
        .snapshot()
        .counter("similarity.scores")
        .unwrap_or(0)
}

/// Checks that the run prepared scorers exactly when it ran over the
/// plain metric.
fn check_prepares(registry: &Registry, pairwise: bool, algorithm: &str) {
    let prepares = registry
        .snapshot()
        .counter("similarity.prepares")
        .unwrap_or(0);
    assert_eq!(
        prepares == 0,
        pairwise,
        "{algorithm}, pairwise: {pairwise}: {prepares} prepares"
    );
}

#[test]
fn similarity_scores_equal_sim_evals() {
    let ds = generate_bipartite(&BipartiteConfig::tiny("baseline-scores", 17));
    let fitted = WeightedCosine::fit(&ds);
    let oracle = Pairwise(&fitted);
    for (sim, pairwise) in [(&fitted as &dyn Similarity, false), (&oracle, true)] {
        let greedy = |registry: &Registry| {
            let mut config = GreedyConfig::new(6).with_telemetry(registry.clone());
            config.threads = Some(2);
            config
        };

        let registry = Registry::new();
        let (_, stats) = NnDescent::new(greedy(&registry)).run(&ds, sim);
        assert!(stats.sim_evals > 0);
        assert_eq!(
            scores(&registry),
            stats.sim_evals,
            "NN-Descent, pairwise: {pairwise}"
        );
        check_prepares(&registry, pairwise, "NN-Descent");

        let registry = Registry::new();
        let (_, stats) = HyRec::new(greedy(&registry)).run(&ds, sim);
        assert!(stats.sim_evals > 0);
        assert_eq!(
            scores(&registry),
            stats.sim_evals,
            "HyRec, pairwise: {pairwise}"
        );
        check_prepares(&registry, pairwise, "HyRec");

        let registry = Registry::new();
        let mut config = LshConfig::new(6).with_telemetry(registry.clone());
        config.threads = Some(2);
        let (_, stats) = Lsh::new(config).run(&ds, sim);
        assert!(stats.sim_evals > 0);
        assert_eq!(
            scores(&registry),
            stats.sim_evals,
            "LSH, pairwise: {pairwise}"
        );
        check_prepares(&registry, pairwise, "LSH");
    }
}
