//! High-level builder facade over the workspace's algorithms.

use kiff_baselines::{GreedyConfig, HyRec, L2Knng, L2KnngConfig, Lsh, LshConfig, NnDescent};
use kiff_core::{Kiff, KiffConfig, ScoringMode};
use kiff_dataset::Dataset;
use kiff_graph::{exact_knn_with, KnnGraph};
use kiff_online::{OnlineConfig, OnlineKnn, OnlineMetric, ShardConfig, ShardedOnlineKnn};
use kiff_similarity::{
    AdamicAdar, BinaryCosine, Dice, Jaccard, Similarity, WeightedCosine, WeightedJaccard,
};
use kiff_telemetry::Registry;

/// Which construction algorithm the builder runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Algorithm {
    /// KIFF (the paper's contribution) — the default.
    #[default]
    Kiff,
    /// NN-Descent (greedy baseline).
    NnDescent,
    /// HyRec (greedy baseline).
    HyRec,
    /// L2Knng-style two-phase pruning (§VI related work). Cosine-specific:
    /// the chosen [`Metric`] is ignored and weighted cosine is used.
    L2Knng,
    /// LSH banding (§VI related work). Jaccard-family metrics select
    /// MinHash signatures; everything else uses random hyperplanes.
    Lsh,
    /// Exact construction via the inverted index.
    Exact,
}

/// Which similarity metric the builder applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Metric {
    /// Cosine over rating vectors (the paper's evaluation default).
    #[default]
    Cosine,
    /// Cosine over binary presence vectors.
    BinaryCosine,
    /// Jaccard's coefficient over item sets.
    Jaccard,
    /// Ruzicka (weighted Jaccard).
    WeightedJaccard,
    /// Dice coefficient.
    Dice,
    /// Adamic–Adar with `1/ln|IP_i|` item weights.
    AdamicAdar,
}

/// One-stop builder: pick an algorithm, a metric and the usual knobs, then
/// [`KnnGraphBuilder::build`] a graph.
///
/// ```
/// use kiff::KnnGraphBuilder;
/// use kiff_dataset::dataset::figure2_toy;
///
/// let graph = KnnGraphBuilder::new(1).threads(1).build(&figure2_toy());
/// assert_eq!(graph.neighbors(0)[0].id, 1);
/// ```
#[derive(Debug, Clone)]
pub struct KnnGraphBuilder {
    k: usize,
    algorithm: Algorithm,
    metric: Metric,
    threads: Option<usize>,
    gamma: Option<usize>,
    beta: Option<f64>,
    termination: Option<f64>,
    seed: u64,
    scoring: ScoringMode,
    telemetry: Option<Registry>,
}

impl KnnGraphBuilder {
    /// A builder for `k`-NN graphs with KIFF + cosine defaults.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        Self {
            k,
            algorithm: Algorithm::default(),
            metric: Metric::default(),
            threads: None,
            gamma: None,
            beta: None,
            termination: None,
            seed: 42,
            scoring: ScoringMode::default(),
            telemetry: None,
        }
    }

    /// Selects the construction algorithm.
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Selects the similarity metric.
    pub fn metric(mut self, metric: Metric) -> Self {
        self.metric = metric;
        self
    }

    /// Sets the worker thread count (default: all available).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Sets KIFF's `γ` (default `2k`).
    pub fn gamma(mut self, gamma: usize) -> Self {
        self.gamma = Some(gamma);
        self
    }

    /// Sets KIFF's `β` (default `0.001`).
    pub fn beta(mut self, beta: f64) -> Self {
        self.beta = Some(beta);
        self
    }

    /// Sets the greedy baselines' termination threshold.
    pub fn termination(mut self, t: f64) -> Self {
        self.termination = Some(t);
        self
    }

    /// Seeds the baselines' random initial graphs.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Records every phase the builder drives into `registry`: KIFF's
    /// `core.*` counting/refinement instruments and `similarity.*`
    /// scorer counters during [`KnnGraphBuilder::build`], plus the
    /// `online.*` and per-shard `shard.N.*` instruments when the result
    /// is handed to [`KnnGraphBuilder::into_online`] /
    /// [`KnnGraphBuilder::into_sharded`] — one unified snapshot across
    /// layers. By default each layer keeps its own private (enabled)
    /// registry; pass [`kiff_telemetry::Registry::disabled`] to reduce
    /// every instrument operation to a single relaxed load. NN-Descent,
    /// HyRec and LSH record only `similarity.*`, through their scorer
    /// workspaces; L2Knng scores outside the scorer layer and records
    /// nothing. Online repair adds its scores to `similarity.scores`.
    pub fn telemetry(mut self, registry: Registry) -> Self {
        self.telemetry = Some(registry);
        self
    }

    /// Sets how every algorithm's candidate loops evaluate similarities
    /// (default: prepared scorers; see [`ScoringMode`]). Applies to KIFF's
    /// refinement, the greedy baselines' joins, LSH's bucket scoring and
    /// the exact construction alike; both modes build identical graphs.
    pub fn scoring(mut self, scoring: ScoringMode) -> Self {
        self.scoring = scoring;
        self
    }

    /// Builds the KNN graph of `dataset`.
    pub fn build(&self, dataset: &Dataset) -> KnnGraph {
        match self.metric {
            Metric::Cosine => self.dispatch(dataset, &WeightedCosine::fit(dataset)),
            Metric::BinaryCosine => self.dispatch(dataset, &BinaryCosine),
            Metric::Jaccard => self.dispatch(dataset, &Jaccard),
            Metric::WeightedJaccard => self.dispatch(dataset, &WeightedJaccard),
            Metric::Dice => self.dispatch(dataset, &Dice),
            Metric::AdamicAdar => self.dispatch(dataset, &AdamicAdar::fit(dataset)),
        }
    }

    /// Builds the graph of `dataset` with the configured algorithm, then
    /// hands it to the [`kiff_online`] engine for streaming maintenance:
    /// the returned [`OnlineKnn`] accepts `AddRating` / `AddUser` /
    /// `RemoveRating` updates and keeps the graph repaired incrementally.
    ///
    /// ```
    /// use kiff::KnnGraphBuilder;
    /// use kiff::online::Update;
    /// use kiff_dataset::dataset::figure2_toy;
    ///
    /// let ds = figure2_toy();
    /// let mut live = KnnGraphBuilder::new(1).threads(1).into_online(&ds);
    /// live.apply(Update::AddRating { user: 2, item: 1, rating: 1.0 });
    /// assert!(!live.neighbors(2).is_empty());
    /// ```
    ///
    /// # Panics
    /// Panics for [`Metric::AdamicAdar`]: its per-item weights are fitted
    /// on a frozen dataset and would go stale under mutation.
    pub fn into_online(self, dataset: &Dataset) -> OnlineKnn {
        let (graph, config) = self.online_parts(dataset);
        OnlineKnn::from_graph(dataset, &graph, config)
    }

    /// Like [`KnnGraphBuilder::into_online`], but places users across
    /// `num_shards` shards by a hash of their id and repairs the shards in
    /// parallel on the builder's [`KnnGraphBuilder::threads`] (all
    /// available by default):
    ///
    /// ```
    /// use kiff::KnnGraphBuilder;
    /// use kiff::online::Update;
    /// use kiff_dataset::dataset::figure2_toy;
    ///
    /// let ds = figure2_toy();
    /// let mut live = KnnGraphBuilder::new(1).threads(1).into_sharded(&ds, 2);
    /// live.apply(Update::AddRating { user: 2, item: 1, rating: 1.0 });
    /// assert!(!live.neighbors(2).is_empty());
    /// ```
    ///
    /// # Panics
    /// Panics for [`Metric::AdamicAdar`] (see
    /// [`KnnGraphBuilder::into_online`]) and for `num_shards == 0`.
    pub fn into_sharded(self, dataset: &Dataset, num_shards: usize) -> ShardedOnlineKnn {
        let mut shard_config = ShardConfig::new(num_shards);
        shard_config.threads = self.threads;
        let (graph, config) = self.online_parts(dataset);
        ShardedOnlineKnn::from_graph(dataset, &graph, config, shard_config)
    }

    /// Shared tail of the online conversions: the initial graph plus the
    /// online configuration with the metric translated.
    fn online_parts(&self, dataset: &Dataset) -> (KnnGraph, OnlineConfig) {
        let metric = match self.metric {
            Metric::Cosine => OnlineMetric::Cosine,
            Metric::BinaryCosine => OnlineMetric::BinaryCosine,
            Metric::Jaccard => OnlineMetric::Jaccard,
            Metric::WeightedJaccard => OnlineMetric::WeightedJaccard,
            Metric::Dice => OnlineMetric::Dice,
            Metric::AdamicAdar => panic!(
                "Adamic-Adar carries dataset-fitted item weights and is not \
                 supported by the online engine"
            ),
        };
        let graph = self.build(dataset);
        let mut config = OnlineConfig::new(self.k).with_metric(metric);
        if let Some(t) = &self.telemetry {
            config = config.with_telemetry(t.clone());
        }
        (graph, config)
    }

    /// NN-Descent's and HyRec's parameters from the builder's.
    fn greedy_config(&self) -> GreedyConfig {
        let mut config = GreedyConfig::new(self.k).with_scoring(self.scoring);
        config.threads = self.threads;
        config.seed = self.seed;
        if let Some(t) = self.termination {
            config.termination = t;
        }
        if let Some(t) = &self.telemetry {
            config = config.with_telemetry(t.clone());
        }
        config
    }

    fn dispatch<S: Similarity>(&self, dataset: &Dataset, sim: &S) -> KnnGraph {
        match self.algorithm {
            Algorithm::Kiff => {
                let mut config = KiffConfig::new(self.k).with_scoring(self.scoring);
                config.threads = self.threads;
                if let Some(t) = &self.telemetry {
                    config = config.with_telemetry(t.clone());
                }
                if let Some(g) = self.gamma {
                    config = config.with_gamma(g);
                }
                if let Some(b) = self.beta {
                    config = config.with_beta(b);
                }
                Kiff::new(config).run(dataset, sim).graph
            }
            Algorithm::NnDescent => NnDescent::new(self.greedy_config()).run(dataset, sim).0,
            Algorithm::HyRec => HyRec::new(self.greedy_config()).run(dataset, sim).0,
            Algorithm::L2Knng => L2Knng::new(L2KnngConfig::new(self.k)).run(dataset).0,
            Algorithm::Lsh => {
                let mut config = match self.metric {
                    Metric::Jaccard | Metric::WeightedJaccard | Metric::Dice => {
                        LshConfig::minhash(self.k)
                    }
                    _ => LshConfig::new(self.k),
                };
                config.threads = self.threads;
                config.seed = self.seed;
                config.scoring = self.scoring;
                if let Some(t) = &self.telemetry {
                    config = config.with_telemetry(t.clone());
                }
                Lsh::new(config).run(dataset, sim).0
            }
            Algorithm::Exact => exact_knn_with(dataset, sim, self.k, self.threads, self.scoring),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kiff_dataset::dataset::figure2_toy;
    use kiff_dataset::generators::bipartite::{generate_bipartite, BipartiteConfig};
    use kiff_graph::recall;

    #[test]
    fn all_algorithms_run_on_toy() {
        let ds = figure2_toy();
        for algo in [
            Algorithm::Kiff,
            Algorithm::NnDescent,
            Algorithm::HyRec,
            Algorithm::L2Knng,
            Algorithm::Lsh,
            Algorithm::Exact,
        ] {
            let g = KnnGraphBuilder::new(1)
                .algorithm(algo)
                .threads(1)
                .build(&ds);
            assert_eq!(g.num_users(), 4, "{algo:?}");
        }
    }

    #[test]
    fn all_metrics_run() {
        let ds = figure2_toy();
        for metric in [
            Metric::Cosine,
            Metric::BinaryCosine,
            Metric::Jaccard,
            Metric::WeightedJaccard,
            Metric::Dice,
            Metric::AdamicAdar,
        ] {
            let g = KnnGraphBuilder::new(1).metric(metric).threads(1).build(&ds);
            // Alice's neighbour is always Bob: the only sharing user.
            assert_eq!(g.neighbors(0)[0].id, 1, "{metric:?}");
        }
    }

    #[test]
    fn into_sharded_streams_like_into_online() {
        use kiff_online::Update;
        let ds = figure2_toy();
        let mut single = KnnGraphBuilder::new(2).threads(1).into_online(&ds);
        let mut sharded = KnnGraphBuilder::new(2).threads(1).into_sharded(&ds, 2);
        assert_eq!(sharded.num_shards(), 2);
        let update = Update::AddRating {
            user: 2,
            item: 1,
            rating: 1.0,
        };
        single.apply(update);
        sharded.apply(update);
        for u in 0..ds.num_users() as u32 {
            assert_eq!(single.neighbors(u), sharded.neighbors(u), "user {u}");
        }
    }

    #[test]
    fn count_strategies_and_scoring_modes_build_identical_graphs() {
        let ds = generate_bipartite(&BipartiteConfig::tiny("builder-strat", 307));
        let reference = KnnGraphBuilder::new(5).threads(1).build(&ds);
        for scoring in [ScoringMode::Prepared, ScoringMode::Pairwise] {
            let g = KnnGraphBuilder::new(5)
                .threads(1)
                .scoring(scoring)
                .build(&ds);
            for u in 0..ds.num_users() as u32 {
                assert_eq!(
                    reference.neighbors(u),
                    g.neighbors(u),
                    "{scoring:?} user {u}"
                );
            }
        }
    }

    #[test]
    fn scoring_mode_is_invisible_for_every_algorithm() {
        let ds = generate_bipartite(&BipartiteConfig::tiny("builder-scoring", 311));
        for algo in [
            Algorithm::Kiff,
            Algorithm::NnDescent,
            Algorithm::HyRec,
            Algorithm::Lsh,
            Algorithm::Exact,
        ] {
            let build = |scoring| {
                KnnGraphBuilder::new(4)
                    .algorithm(algo)
                    .threads(1)
                    .scoring(scoring)
                    .build(&ds)
            };
            let prepared = build(ScoringMode::Prepared);
            let pairwise = build(ScoringMode::Pairwise);
            for u in 0..ds.num_users() as u32 {
                assert_eq!(
                    prepared.neighbors(u),
                    pairwise.neighbors(u),
                    "{algo:?} user {u}"
                );
            }
        }
    }

    #[test]
    fn telemetry_spans_batch_and_online_layers() {
        use kiff_online::Update;
        let ds = figure2_toy();
        let registry = Registry::new();
        let mut live = KnnGraphBuilder::new(2)
            .threads(1)
            .telemetry(registry.clone())
            .into_sharded(&ds, 2);
        live.apply(Update::AddRating {
            user: 2,
            item: 1,
            rating: 1.0,
        });
        let snap = registry.snapshot();
        // One registry, every layer: batch construction, online repair,
        // per-shard accounting, prepared scoring.
        assert!(snap.counter("core.refine.sims").unwrap_or(0) > 0);
        assert_eq!(snap.histogram("core.phase.total_ns").unwrap().count, 1);
        assert_eq!(snap.histogram("online.apply_ns").unwrap().count, 1);
        assert!(snap.counter_sum_matching("shard.", ".repairs") > 0);
        assert!(snap.counter("similarity.scores").unwrap_or(0) > 0);
    }

    #[test]
    fn kiff_matches_exact_closely() {
        let ds = generate_bipartite(&BipartiteConfig::tiny("builder", 301));
        let exact = KnnGraphBuilder::new(5)
            .algorithm(Algorithm::Exact)
            .build(&ds);
        let kiff = KnnGraphBuilder::new(5).build(&ds);
        assert!(recall(&exact, &kiff) > 0.95);
    }
}
