//! Online engine configuration.

use kiff_dataset::ProfileRef;
use kiff_similarity::{functions, ScoreKind};
use kiff_telemetry::Registry;

/// Which metric the online engine evaluates during repair.
///
/// Unlike the batch builders, the online engine cannot use metrics with
/// dataset-fitted state (precomputed norms, Adamic–Adar item weights):
/// fitted state goes stale under mutation. Every variant here is computed
/// directly from the two live profiles, so it is always exact on the
/// current dataset view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OnlineMetric {
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
}

impl OnlineMetric {
    /// Evaluates the metric on two live profiles.
    #[inline]
    pub fn eval(self, a: ProfileRef<'_>, b: ProfileRef<'_>) -> f64 {
        match self {
            OnlineMetric::Cosine => functions::weighted_cosine(a, b),
            OnlineMetric::BinaryCosine => functions::binary_cosine(a, b),
            OnlineMetric::Jaccard => functions::jaccard(a, b),
            OnlineMetric::WeightedJaccard => functions::weighted_jaccard(a, b),
            OnlineMetric::Dice => functions::dice(a, b),
        }
    }

    /// The metric's [`ScoreKind`]: repair scores close with its formula
    /// in [`kiff_similarity::scorer::finish`], as the batch scorers do.
    pub(crate) fn kind(self) -> ScoreKind {
        match self {
            OnlineMetric::Cosine => ScoreKind::Cosine,
            OnlineMetric::BinaryCosine => ScoreKind::BinaryCosine,
            OnlineMetric::Jaccard => ScoreKind::Jaccard,
            OnlineMetric::WeightedJaccard => ScoreKind::WeightedJaccard,
            OnlineMetric::Dice => ScoreKind::Dice,
        }
    }

    /// Metric name for reports.
    pub fn name(self) -> &'static str {
        match self {
            OnlineMetric::Cosine => "cosine",
            OnlineMetric::BinaryCosine => "binary-cosine",
            OnlineMetric::Jaccard => "jaccard",
            OnlineMetric::WeightedJaccard => "weighted-jaccard",
            OnlineMetric::Dice => "dice",
        }
    }
}

/// Cap on *additional* users repaired per `apply` beyond those a
/// mutation touched directly — the Debatty-style propagation budget.
pub const MAX_PROPAGATION: usize = 64;

/// Knobs of the online engine (sharding aside, see
/// [`ShardConfig`](crate::ShardConfig)). Defaults follow the batch paper
/// parameters where an analogue exists: the repair width is the online γ.
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// Neighbourhood size `k`.
    pub k: usize,
    /// How many top-ranked candidates (by live shared-item count) a repair
    /// re-scores — the online analogue of the paper's γ. Default `8k`:
    /// unlike the batch loop, which pops `γ = 2k` per iteration and
    /// iterates to convergence, a repair gets one shot at the candidate
    /// ranking, so it reads a deeper prefix.
    pub repair_width: usize,
    /// Similarity metric.
    pub metric: OnlineMetric,
    /// Re-compact the delta storage once this fraction of users carries an
    /// overlay profile. `1.0` effectively disables compaction.
    pub compaction_threshold: f64,
    /// Telemetry registry the engine records into (`online.*` apply and
    /// repair-round instruments, per-shard `shard.N.*` instruments, and
    /// the `similarity.scores` counter). Each config starts with its own
    /// enabled registry; share one across engines with
    /// [`OnlineConfig::with_telemetry`].
    pub telemetry: Registry,
}

impl OnlineConfig {
    /// Defaults for neighbourhood size `k`: `repair_width = 8k`,
    /// cosine, compaction at 25% overlay.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        Self {
            k,
            repair_width: 8 * k,
            metric: OnlineMetric::default(),
            compaction_threshold: 0.25,
            telemetry: Registry::new(),
        }
    }

    /// Sets the repair width (online γ).
    pub fn with_repair_width(mut self, width: usize) -> Self {
        assert!(width > 0, "repair width must be positive");
        self.repair_width = width;
        self
    }

    /// Sets the metric.
    pub fn with_metric(mut self, metric: OnlineMetric) -> Self {
        self.metric = metric;
        self
    }

    /// Sets the overlay fraction that triggers re-compaction.
    pub fn with_compaction_threshold(mut self, threshold: f64) -> Self {
        assert!(threshold > 0.0, "threshold must be positive");
        self.compaction_threshold = threshold;
        self
    }

    /// Records the engine into `registry` (shared, not copied). Pass the
    /// same registry to several engines — or to a batch
    /// [`KiffConfig`](kiff_core::KiffConfig) — to aggregate one snapshot
    /// across layers, or a [`Registry::disabled`] one to reduce every
    /// instrument operation to a single relaxed load. Note the sharded
    /// engine *derives* its cross-shard traffic accounting from this
    /// registry, so a disabled registry also zeroes those derived
    /// statistics (see `ShardedOnlineKnn::shard_cross_traffic`).
    pub fn with_telemetry(mut self, registry: Registry) -> Self {
        self.telemetry = registry;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_scale_with_k() {
        let cfg = OnlineConfig::new(10);
        assert_eq!(cfg.repair_width, 80);
        assert_eq!(cfg.metric, OnlineMetric::Cosine);
    }

    #[test]
    fn metric_eval_matches_functions() {
        let items = [1u32, 4, 7];
        let ratings = [1.0f32, 2.0, 3.0];
        let a = ProfileRef {
            items: &items,
            ratings: &ratings,
        };
        let other_items = [4u32, 7, 9];
        let other_ratings = [2.0f32, 1.0, 5.0];
        let b = ProfileRef {
            items: &other_items,
            ratings: &other_ratings,
        };
        assert_eq!(
            OnlineMetric::Cosine.eval(a, b),
            functions::weighted_cosine(a, b)
        );
        assert_eq!(OnlineMetric::Jaccard.eval(a, b), functions::jaccard(a, b));
        assert!(OnlineMetric::Dice.eval(a, b) > 0.0);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_rejected() {
        let _ = OnlineConfig::new(0);
    }
}
