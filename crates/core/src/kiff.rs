//! The public KIFF facade tying both phases together.

use std::time::Instant;

use kiff_dataset::Dataset;
use kiff_graph::KnnGraph;
use kiff_similarity::Similarity;

use crate::config::KiffConfig;
use crate::counting::{build_rcs, CountingConfig, RankedCandidates};
use crate::refine::{refine, IterationObserver, KiffStats, NoObserver};

/// A configured KIFF instance.
///
/// ```
/// use kiff_core::{Kiff, KiffConfig};
/// use kiff_dataset::dataset::figure2_toy;
/// use kiff_similarity::WeightedCosine;
///
/// let dataset = figure2_toy();
/// let result = Kiff::new(KiffConfig::new(1)).run(&dataset, &WeightedCosine::new());
/// assert_eq!(result.graph.neighbors(0)[0].id, 1); // Alice's 1-NN is Bob
/// assert!(result.stats.scan_rate <= 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct Kiff {
    config: KiffConfig,
}

/// Output of a KIFF run: the approximate KNN graph plus instrumentation.
#[derive(Debug, Clone)]
pub struct KiffResult {
    /// The constructed graph.
    pub graph: KnnGraph,
    /// Phase timings, scan rate, iteration traces (§IV-C metrics).
    pub stats: KiffStats,
}

impl Kiff {
    /// Creates an instance with `config`.
    pub fn new(config: KiffConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &KiffConfig {
        &self.config
    }

    /// Runs both phases on `dataset` under `sim`.
    pub fn run<S: Similarity + ?Sized>(&self, dataset: &Dataset, sim: &S) -> KiffResult {
        self.run_observed(dataset, sim, &mut NoObserver)
    }

    /// Runs both phases, invoking `observer` after every refinement
    /// iteration (used to trace convergence as in Fig. 8).
    pub fn run_observed<S: Similarity + ?Sized>(
        &self,
        dataset: &Dataset,
        sim: &S,
        observer: &mut dyn IterationObserver,
    ) -> KiffResult {
        let total_start = Instant::now();
        let tele = &self.config.telemetry;
        let total_span = tele.histogram("core.phase.total_ns").span();

        // Counting phase. Item profiles are timed separately (Table IV)
        // from RCS construction (Table V).
        let ip_start = Instant::now();
        {
            let _span = tele.histogram("core.phase.item_profiles_ns").span();
            let _ = dataset.item_profiles();
        }
        let item_profile_time = ip_start.elapsed();

        let rcs_span = tele.histogram("core.phase.rcs_ns").span();
        let rcs = build_rcs(
            dataset,
            &CountingConfig {
                pivot: true,
                keep_counts: false,
                threads: self.config.threads,
                strategy: self.config.count_strategy,
                rating_threshold: self.config.rating_threshold,
                max_rcs: self.config.max_rcs,
            },
        );
        rcs_span.finish();

        // Refinement phase.
        let (graph, mut stats) = refine(dataset, sim, &rcs, &self.config, observer);
        total_span.finish();
        stats.item_profile_time = item_profile_time;
        stats.rcs_time = rcs.build_time;
        stats.total_time = total_start.elapsed();
        KiffResult { graph, stats }
    }

    /// Runs only the counting phase (with counts kept), for the
    /// statistics-oriented experiments (Tables V/VI/IX, Figs 6/7).
    pub fn counting_phase(&self, dataset: &Dataset) -> RankedCandidates {
        build_rcs(
            dataset,
            &CountingConfig {
                pivot: true,
                keep_counts: true,
                threads: self.config.threads,
                strategy: self.config.count_strategy,
                rating_threshold: self.config.rating_threshold,
                max_rcs: self.config.max_rcs,
            },
        )
    }
}

/// One-call convenience: KIFF with the paper's defaults under weighted
/// cosine.
pub fn kiff_knn(dataset: &Dataset, k: usize) -> KnnGraph {
    let sim = kiff_similarity::WeightedCosine::fit(dataset);
    Kiff::new(KiffConfig::new(k)).run(dataset, &sim).graph
}

#[cfg(test)]
mod tests {
    use super::*;
    use kiff_dataset::dataset::figure2_toy;
    use kiff_dataset::generators::bipartite::{generate_bipartite, BipartiteConfig};
    use kiff_graph::{exact_knn, recall};
    use kiff_similarity::{Jaccard, Pairwise, Similarity, WeightedCosine};

    #[test]
    fn facade_runs_end_to_end() {
        let ds = figure2_toy();
        let result = Kiff::new(KiffConfig::new(1)).run(&ds, &WeightedCosine::new());
        assert_eq!(result.graph.neighbors(0)[0].id, 1);
        assert!(result.stats.total_time >= result.stats.rcs_time);
    }

    #[test]
    fn default_parameters_reach_high_recall() {
        let ds = generate_bipartite(&BipartiteConfig::tiny("hr", 61));
        let sim = WeightedCosine::fit(&ds);
        let result = Kiff::new(KiffConfig::new(10)).run(&ds, &sim);
        let exact = exact_knn(&ds, &sim, 10, None);
        let r = recall(&exact, &result.graph);
        // The paper reports 0.99 across datasets; on this small synthetic
        // workload the defaults should do at least as well.
        assert!(r > 0.95, "recall = {r}");
    }

    #[test]
    fn works_with_other_metrics() {
        let ds = generate_bipartite(&BipartiteConfig::tiny("jac", 67));
        let result = Kiff::new(KiffConfig::new(5)).run(&ds, &Jaccard);
        let exact = exact_knn(&ds, &Jaccard, 5, None);
        let r = recall(&exact, &result.graph);
        assert!(r > 0.9, "recall = {r}");
    }

    #[test]
    fn kiff_knn_convenience() {
        let ds = figure2_toy();
        let graph = kiff_knn(&ds, 1);
        assert_eq!(graph.neighbors(2)[0].id, 3);
    }

    #[test]
    fn telemetry_registry_mirrors_stats() {
        let ds = generate_bipartite(&BipartiteConfig::tiny("tele", 71));
        let fitted = WeightedCosine::fit(&ds);
        let oracle = Pairwise(&fitted);
        for (sim, pairwise) in [(&fitted as &dyn Similarity, false), (&oracle, true)] {
            let registry = kiff_telemetry::Registry::new();
            let config = KiffConfig::new(5).with_telemetry(registry.clone());
            let result = Kiff::new(config).run(&ds, sim);
            let snap = registry.snapshot();
            assert_eq!(
                snap.counter("core.refine.sims"),
                Some(result.stats.sim_evals),
                "registry sims disagree with KiffStats"
            );
            // Every refine evaluation is one score, prepared or pairwise
            // and on both sides of `PREPARED_MIN_BATCH`.
            assert_eq!(
                snap.counter("similarity.scores"),
                snap.counter("core.refine.sims"),
                "pairwise: {pairwise}"
            );
            // The oracle prepares nothing: were it to forward `scorer`,
            // every identity gate would compare the prepared path with
            // itself.
            let prepares = snap.counter("similarity.prepares").unwrap_or(0);
            assert_eq!(prepares == 0, pairwise, "{prepares} prepares");
            assert_eq!(
                snap.counter("core.refine.iterations"),
                Some(result.stats.iterations as u64)
            );
            assert_eq!(
                snap.counter("core.refine.heap_offers"),
                Some(2 * result.stats.sim_evals)
            );
            for phase in [
                "core.phase.item_profiles_ns",
                "core.phase.rcs_ns",
                "core.phase.refine_ns",
                "core.phase.total_ns",
            ] {
                assert_eq!(snap.histogram(phase).unwrap().count, 1, "{phase}");
            }
            // A disabled registry records nothing but still runs correctly.
            let off = kiff_telemetry::Registry::disabled();
            let config = KiffConfig::new(5).with_telemetry(off.clone());
            let result2 = Kiff::new(config).run(&ds, sim);
            assert_eq!(result2.stats.sim_evals, result.stats.sim_evals);
            assert_eq!(off.snapshot().counter("core.refine.sims"), Some(0));
        }
    }

    #[test]
    fn counting_phase_exposes_counts() {
        let ds = figure2_toy();
        let rcs = Kiff::new(KiffConfig::new(1)).counting_phase(&ds);
        assert_eq!(rcs.counts(0).unwrap(), &[1]);
    }
}
