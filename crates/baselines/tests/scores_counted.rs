//! The baselines that score through the scorer layer count every
//! evaluation into their registry's `similarity.scores`, as KIFF's refine
//! does: NN-Descent and HyRec (their random initial graph included) and
//! LSH, under both scoring modes.

use kiff_baselines::{GreedyConfig, HyRec, Lsh, LshConfig, NnDescent};
use kiff_dataset::generators::bipartite::{generate_bipartite, BipartiteConfig};
use kiff_similarity::{ScoringMode, WeightedCosine};
use kiff_telemetry::Registry;

fn scores(registry: &Registry) -> u64 {
    registry
        .snapshot()
        .counter("similarity.scores")
        .unwrap_or(0)
}

#[test]
fn similarity_scores_equal_sim_evals() {
    let ds = generate_bipartite(&BipartiteConfig::tiny("baseline-scores", 17));
    let sim = WeightedCosine::fit(&ds);
    for scoring in [ScoringMode::Prepared, ScoringMode::Pairwise] {
        let greedy = |registry: &Registry| {
            let mut config = GreedyConfig::new(6)
                .with_scoring(scoring)
                .with_telemetry(registry.clone());
            config.threads = Some(2);
            config
        };

        let registry = Registry::new();
        let (_, stats) = NnDescent::new(greedy(&registry)).run(&ds, &sim);
        assert!(stats.sim_evals > 0);
        assert_eq!(
            scores(&registry),
            stats.sim_evals,
            "NN-Descent, {scoring:?}"
        );

        let registry = Registry::new();
        let (_, stats) = HyRec::new(greedy(&registry)).run(&ds, &sim);
        assert!(stats.sim_evals > 0);
        assert_eq!(scores(&registry), stats.sim_evals, "HyRec, {scoring:?}");

        let registry = Registry::new();
        let mut config = LshConfig::new(6).with_telemetry(registry.clone());
        config.scoring = scoring;
        config.threads = Some(2);
        let (_, stats) = Lsh::new(config).run(&ds, &sim);
        assert!(stats.sim_evals > 0);
        assert_eq!(scores(&registry), stats.sim_evals, "LSH, {scoring:?}");
    }
}
