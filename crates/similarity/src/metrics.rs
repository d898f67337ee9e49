//! The [`Similarity`] trait and its implementations.
//!
//! Graph-construction algorithms are generic over `S: Similarity` and call
//! [`Similarity::sim`] with user ids; implementations fetch the profiles
//! and may consult state fitted on the dataset (precomputed norms, item
//! degree weights).

use kiff_dataset::{Dataset, ProfileStats, UserId};

use crate::functions;
use crate::scorer::{
    finish, PairwiseScorer, ProfileKindScorer, ScoreKind, Scorer, ScorerWorkspace,
};

/// An item-based similarity over users of a dataset.
///
/// Implementations must be non-negative. When [`Similarity::sparse_axioms`]
/// returns `true`, the metric additionally guarantees Eq. (5)–(6) of the
/// paper — `sim = 0` exactly when the profiles share no item — which is the
/// precondition for KIFF's candidate pruning to be lossless (§III-D).
pub trait Similarity: Sync {
    /// `sim(u, v)` over `dataset`.
    fn sim(&self, dataset: &Dataset, u: UserId, v: UserId) -> f64;

    /// Metric name for reports.
    fn name(&self) -> &'static str;

    /// Whether Eq. (5)–(6) hold (true for everything in this module).
    fn sparse_axioms(&self) -> bool {
        true
    }

    /// Prepares a reusable scorer for reference user `u`: preprocessing
    /// (norms, dense profile stamps) happens once here, and every
    /// subsequent [`Scorer::score`] call runs in `O(|UP_v|)` for the
    /// metrics of this crate. Results equal [`Similarity::sim`] within
    /// [`crate::SIM_EPSILON`] (exactly, for the provided metrics).
    ///
    /// `ws` is the per-worker preparation arena; the returned scorer
    /// borrows it until dropped. The default implementation is a plain
    /// pairwise fallback, so custom metrics keep working without a
    /// prepared path.
    fn scorer<'a>(
        &'a self,
        dataset: &'a Dataset,
        u: UserId,
        ws: &'a mut ScorerWorkspace,
    ) -> Box<dyn Scorer + 'a> {
        Box::new(PairwiseScorer {
            sim: self,
            dataset,
            u,
            ws,
        })
    }
}

/// Shared tail of the stateless-metric `scorer` implementations.
fn kind_scorer<'a>(
    kind: ScoreKind,
    dataset: &'a Dataset,
    u: UserId,
    ws: &'a mut ScorerWorkspace,
) -> Box<dyn Scorer + 'a> {
    Box::new(ProfileKindScorer {
        inner: ws.prepare(kind, dataset.user_profile(u)),
        dataset,
    })
}

/// Cosine over presence (binary) vectors.
#[derive(Debug, Clone, Copy, Default)]
pub struct BinaryCosine;

impl Similarity for BinaryCosine {
    fn sim(&self, dataset: &Dataset, u: UserId, v: UserId) -> f64 {
        functions::binary_cosine(dataset.user_profile(u), dataset.user_profile(v))
    }

    fn name(&self) -> &'static str {
        "binary-cosine"
    }

    fn scorer<'a>(
        &'a self,
        dataset: &'a Dataset,
        u: UserId,
        ws: &'a mut ScorerWorkspace,
    ) -> Box<dyn Scorer + 'a> {
        kind_scorer(ScoreKind::BinaryCosine, dataset, u, ws)
    }
}

/// Cosine over rating vectors — the paper's evaluation metric.
///
/// `WeightedCosine::new()` computes norms on the fly; [`WeightedCosine::fit`]
/// precomputes one norm per user, halving the per-pair work. The fitted
/// instance must only be used with the dataset it was fitted on (checked by
/// length in debug builds).
#[derive(Debug, Clone, Default)]
pub struct WeightedCosine {
    norms: Option<Box<[f64]>>,
}

impl WeightedCosine {
    /// Norm-on-the-fly variant.
    pub fn new() -> Self {
        Self { norms: None }
    }

    /// Precomputes per-user norms for `dataset`.
    pub fn fit(dataset: &Dataset) -> Self {
        let norms = (0..dataset.num_users() as u32)
            .map(|u| dataset.user_profile(u).norm())
            .collect();
        Self { norms: Some(norms) }
    }
}

impl Similarity for WeightedCosine {
    fn sim(&self, dataset: &Dataset, u: UserId, v: UserId) -> f64 {
        let a = dataset.user_profile(u);
        let b = dataset.user_profile(v);
        match &self.norms {
            Some(norms) => {
                debug_assert_eq!(
                    norms.len(),
                    dataset.num_users(),
                    "fitted on another dataset"
                );
                functions::weighted_cosine_with_norms(a, b, norms[u as usize], norms[v as usize])
            }
            None => functions::weighted_cosine(a, b),
        }
    }

    fn name(&self) -> &'static str {
        "cosine"
    }

    fn scorer<'a>(
        &'a self,
        dataset: &'a Dataset,
        u: UserId,
        ws: &'a mut ScorerWorkspace,
    ) -> Box<dyn Scorer + 'a> {
        let norms = self.norms.as_deref();
        let profile = dataset.user_profile(u);
        let (inner, norm_u) = match norms {
            Some(norms) => {
                debug_assert_eq!(
                    norms.len(),
                    dataset.num_users(),
                    "fitted on another dataset"
                );
                let norm_u = norms[u as usize];
                // The fitted table supplies the reference norm: skip the
                // norm pass `prepare` would otherwise run.
                (
                    ws.prepare_with_norm(ScoreKind::Cosine, profile, norm_u),
                    Some(norm_u),
                )
            }
            None => (ws.prepare(ScoreKind::Cosine, profile), None),
        };
        Box::new(CosineScorer {
            inner,
            dataset,
            norm_u,
            norms,
        })
    }
}

/// Prepared scorer of [`WeightedCosine`]: dense dot products plus either
/// the fitted norm table or per-candidate norms, exactly mirroring
/// [`WeightedCosine::sim`]'s two paths.
struct CosineScorer<'a> {
    inner: crate::scorer::ProfileScorer<'a>,
    dataset: &'a Dataset,
    /// Fitted norm of the reference user, when fitted.
    norm_u: Option<f64>,
    norms: Option<&'a [f64]>,
}

impl Scorer for CosineScorer<'_> {
    fn score(&mut self, v: UserId) -> f64 {
        let b = self.dataset.user_profile(v);
        match (self.norm_u, self.norms) {
            (Some(norm_u), Some(norms)) => {
                self.inner
                    .score_cosine_with_norms(b, norm_u, norms[v as usize])
            }
            _ => self.inner.score(b),
        }
    }

    fn score_into(&mut self, candidates: &[UserId], out: &mut Vec<f64>) {
        let dataset = self.dataset;
        let (Some(norm_u), Some(norms)) = (self.norm_u, self.norms) else {
            // Unfitted: each candidate's norm reads its whole profile, so
            // a walk would save nothing.
            return self
                .inner
                .scan_batch(candidates, out, |s, v| s.scan(dataset.user_profile(v)));
        };
        let a = ProfileStats {
            len: self.inner.reference().len(),
            norm: norm_u,
            total: 0.0,
        };
        self.inner.score_batch(
            dataset,
            candidates,
            out,
            |_, rating_u, rating_v| f64::from(rating_u) * f64::from(rating_v),
            |dot, v| {
                let b = ProfileStats {
                    len: dataset.user_degree(v),
                    norm: norms[v as usize],
                    total: 0.0,
                };
                finish(ScoreKind::Cosine, dot, a, b)
            },
            |s, v| s.scan_with_norms(dataset.user_profile(v), norm_u, norms[v as usize]),
        );
    }
}

/// Jaccard's coefficient over item sets.
#[derive(Debug, Clone, Copy, Default)]
pub struct Jaccard;

impl Similarity for Jaccard {
    fn sim(&self, dataset: &Dataset, u: UserId, v: UserId) -> f64 {
        functions::jaccard(dataset.user_profile(u), dataset.user_profile(v))
    }

    fn name(&self) -> &'static str {
        "jaccard"
    }

    fn scorer<'a>(
        &'a self,
        dataset: &'a Dataset,
        u: UserId,
        ws: &'a mut ScorerWorkspace,
    ) -> Box<dyn Scorer + 'a> {
        kind_scorer(ScoreKind::Jaccard, dataset, u, ws)
    }
}

/// Ruzicka (weighted Jaccard) over rating vectors.
#[derive(Debug, Clone, Copy, Default)]
pub struct WeightedJaccard;

impl Similarity for WeightedJaccard {
    fn sim(&self, dataset: &Dataset, u: UserId, v: UserId) -> f64 {
        functions::weighted_jaccard(dataset.user_profile(u), dataset.user_profile(v))
    }

    fn name(&self) -> &'static str {
        "weighted-jaccard"
    }

    fn scorer<'a>(
        &'a self,
        dataset: &'a Dataset,
        u: UserId,
        ws: &'a mut ScorerWorkspace,
    ) -> Box<dyn Scorer + 'a> {
        kind_scorer(ScoreKind::WeightedJaccard, dataset, u, ws)
    }
}

/// Dice coefficient over item sets.
#[derive(Debug, Clone, Copy, Default)]
pub struct Dice;

impl Similarity for Dice {
    fn sim(&self, dataset: &Dataset, u: UserId, v: UserId) -> f64 {
        functions::dice(dataset.user_profile(u), dataset.user_profile(v))
    }

    fn name(&self) -> &'static str {
        "dice"
    }

    fn scorer<'a>(
        &'a self,
        dataset: &'a Dataset,
        u: UserId,
        ws: &'a mut ScorerWorkspace,
    ) -> Box<dyn Scorer + 'a> {
        kind_scorer(ScoreKind::Dice, dataset, u, ws)
    }
}

/// Raw common-item count — KIFF's coarse counting-phase approximation
/// exposed as a metric (unnormalized; useful for Fig. 7-style rank
/// comparisons and ablations).
#[derive(Debug, Clone, Copy, Default)]
pub struct CommonItems;

impl Similarity for CommonItems {
    fn sim(&self, dataset: &Dataset, u: UserId, v: UserId) -> f64 {
        functions::common_items(dataset.user_profile(u), dataset.user_profile(v))
    }

    fn name(&self) -> &'static str {
        "common-items"
    }

    fn scorer<'a>(
        &'a self,
        dataset: &'a Dataset,
        u: UserId,
        ws: &'a mut ScorerWorkspace,
    ) -> Box<dyn Scorer + 'a> {
        kind_scorer(ScoreKind::CommonItems, dataset, u, ws)
    }
}

/// Adamic–Adar: shared items weighted by `1 / ln |IP_i|`, down-weighting
/// blockbuster items. Items rated by fewer than two users get the `ln 2`
/// weight (they cannot be shared more cheaply).
#[derive(Debug, Clone)]
pub struct AdamicAdar {
    item_weights: Box<[f64]>,
}

impl AdamicAdar {
    /// Precomputes item weights from the dataset's item profiles.
    pub fn fit(dataset: &Dataset) -> Self {
        let items = dataset.item_profiles();
        let item_weights = (0..dataset.num_items() as u32)
            .map(|i| 1.0 / f64::from(items.degree(i).max(2) as u32).ln())
            .collect();
        Self { item_weights }
    }

    /// The fitted per-item weights.
    pub fn item_weights(&self) -> &[f64] {
        &self.item_weights
    }
}

impl Similarity for AdamicAdar {
    fn sim(&self, dataset: &Dataset, u: UserId, v: UserId) -> f64 {
        debug_assert_eq!(
            self.item_weights.len(),
            dataset.num_items(),
            "fitted on another dataset"
        );
        functions::adamic_adar_with(
            dataset.user_profile(u),
            dataset.user_profile(v),
            &self.item_weights,
        )
    }

    fn name(&self) -> &'static str {
        "adamic-adar"
    }

    fn scorer<'a>(
        &'a self,
        dataset: &'a Dataset,
        u: UserId,
        ws: &'a mut ScorerWorkspace,
    ) -> Box<dyn Scorer + 'a> {
        debug_assert_eq!(
            self.item_weights.len(),
            dataset.num_items(),
            "fitted on another dataset"
        );
        Box::new(AdamicAdarScorer {
            // CommonItems preparation: Adamic–Adar needs only the stamped
            // reference items, no norms or totals.
            inner: ws.prepare(ScoreKind::CommonItems, dataset.user_profile(u)),
            dataset,
            weights: &self.item_weights,
        })
    }
}

/// Prepared scorer of [`AdamicAdar`]: stamped reference items summed
/// through the fitted per-item weights.
struct AdamicAdarScorer<'a> {
    inner: crate::scorer::ProfileScorer<'a>,
    dataset: &'a Dataset,
    weights: &'a [f64],
}

impl Scorer for AdamicAdarScorer<'_> {
    fn score(&mut self, v: UserId) -> f64 {
        self.inner.count(1);
        self.inner
            .weighted_shared(self.dataset.user_profile(v), self.weights)
    }

    fn score_into(&mut self, candidates: &[UserId], out: &mut Vec<f64>) {
        let (dataset, weights) = (self.dataset, self.weights);
        // The score is the weight sum itself: nothing to close.
        self.inner.score_batch(
            dataset,
            candidates,
            out,
            |i, _, _| weights[i as usize],
            |sum, _| sum,
            |s, v| s.weighted_shared(dataset.user_profile(v), weights),
        );
    }
}

/// The pairwise oracle of a metric. [`Similarity::sim`],
/// [`Similarity::name`] and [`Similarity::sparse_axioms`] forward to the
/// wrapped metric, and [`Similarity::scorer`] keeps its default, so any
/// algorithm run over `Pairwise(&sim)` scores every candidate with one
/// `sim` call ([`PairwiseScorer`]) and prepares nothing. The prepared
/// scorers are checked against it: an algorithm must build the same
/// graph over `sim` and over `Pairwise(&sim)`.
pub struct Pairwise<'a, S: ?Sized>(
    /// The wrapped metric.
    pub &'a S,
);

impl<S: Similarity + ?Sized> Similarity for Pairwise<'_, S> {
    fn sim(&self, dataset: &Dataset, u: UserId, v: UserId) -> f64 {
        self.0.sim(dataset, u, v)
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn sparse_axioms(&self) -> bool {
        self.0.sparse_axioms()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kiff_dataset::dataset::figure2_toy;
    use kiff_dataset::DatasetBuilder;

    #[test]
    fn toy_cosine_values() {
        let ds = figure2_toy();
        let cos = WeightedCosine::new();
        // Alice–Bob share coffee: 1/√(2·2) = 0.5.
        assert!((cos.sim(&ds, 0, 1) - 0.5).abs() < 1e-12);
        // Alice–Carl share nothing.
        assert_eq!(cos.sim(&ds, 0, 2), 0.0);
        // Carl–Dave both like only shopping: 1.0.
        assert!((cos.sim(&ds, 2, 3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fitted_cosine_matches_unfitted() {
        let ds = figure2_toy();
        let plain = WeightedCosine::new();
        let fitted = WeightedCosine::fit(&ds);
        for u in 0..4 {
            for v in 0..4 {
                assert!((plain.sim(&ds, u, v) - fitted.sim(&ds, u, v)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn weighted_cosine_reflects_ratings() {
        let mut b = DatasetBuilder::new("w", 3, 3);
        // u0 loves item0, mildly likes item1; u1 mirrors; u2 only item0.
        b.add_rating(0, 0, 5.0);
        b.add_rating(0, 1, 1.0);
        b.add_rating(1, 0, 1.0);
        b.add_rating(1, 1, 5.0);
        b.add_rating(2, 0, 5.0);
        let ds = b.build();
        let cos = WeightedCosine::new();
        // u0 is closer to u2 (aligned heavy rating) than to u1.
        assert!(cos.sim(&ds, 0, 2) > cos.sim(&ds, 0, 1));
    }

    #[test]
    fn adamic_adar_downweights_popular_items() {
        let mut b = DatasetBuilder::new("aa", 4, 2);
        // item0 is rated by everyone (popular); item1 only by users 0 and 1.
        for u in 0..4 {
            b.add_rating(u, 0, 1.0);
        }
        b.add_rating(0, 1, 1.0);
        b.add_rating(1, 1, 1.0);
        let ds = b.build();
        let aa = AdamicAdar::fit(&ds);
        // Sharing the rare item contributes more than sharing the popular
        // one.
        let via_both = aa.sim(&ds, 0, 1); // shares item0 and item1
        let via_popular = aa.sim(&ds, 2, 3); // shares only item0
        assert!(via_both > via_popular);
        let w = aa.item_weights();
        assert!(w[1] > w[0], "rare item must weigh more");
    }

    #[test]
    fn all_metrics_report_sparse_axioms() {
        let ds = figure2_toy();
        let aa = AdamicAdar::fit(&ds);
        let metrics: Vec<&dyn Similarity> = vec![
            &BinaryCosine,
            &Jaccard,
            &WeightedJaccard,
            &Dice,
            &CommonItems,
            &aa,
        ];
        for m in metrics {
            assert!(m.sparse_axioms(), "{}", m.name());
            // Disjoint pair Alice–Carl must be zero under every metric.
            assert_eq!(m.sim(&ds, 0, 2), 0.0, "{}", m.name());
        }
    }

    #[test]
    fn prepared_scorers_match_pairwise_sim() {
        use kiff_dataset::generators::bipartite::{generate_bipartite, BipartiteConfig};
        let ds = generate_bipartite(&BipartiteConfig::tiny("scorer", 71));
        let aa = AdamicAdar::fit(&ds);
        let fitted = WeightedCosine::fit(&ds);
        let unfitted = WeightedCosine::new();
        let metrics: Vec<&dyn Similarity> = vec![
            &BinaryCosine,
            &fitted,
            &unfitted,
            &Jaccard,
            &WeightedJaccard,
            &Dice,
            &CommonItems,
            &aa,
        ];
        let n = ds.num_users() as UserId;
        let mut ws = ScorerWorkspace::new();
        for m in metrics {
            for u in 0..n.min(40) {
                let mut scorer = m.scorer(&ds, u, &mut ws);
                for v in 0..n.min(40) {
                    let prepared = scorer.score(v);
                    let pairwise = m.sim(&ds, u, v);
                    assert!(
                        (prepared - pairwise).abs() <= crate::SIM_EPSILON,
                        "{}: ({u},{v}) prepared {prepared} vs pairwise {pairwise}",
                        m.name()
                    );
                }
            }
        }
    }

    #[test]
    fn default_scorer_falls_back_to_sim() {
        /// A custom metric without a prepared path.
        struct Constant;
        impl Similarity for Constant {
            fn sim(&self, _: &Dataset, u: UserId, v: UserId) -> f64 {
                f64::from(u + v)
            }
            fn name(&self) -> &'static str {
                "constant"
            }
        }
        let ds = figure2_toy();
        let mut ws = ScorerWorkspace::new();
        let mut scorer = Constant.scorer(&ds, 1, &mut ws);
        assert_eq!(scorer.score(2), 3.0);
    }

    #[test]
    fn pairwise_wrapper_scores_like_its_metric_without_preparing() {
        let ds = figure2_toy();
        let fitted = WeightedCosine::fit(&ds);
        let metric: &dyn Similarity = &fitted;
        let oracle = Pairwise(metric);
        assert_eq!(oracle.name(), fitted.name());
        assert!(oracle.sparse_axioms());
        let batch = [0, 1, 2, 3, 1, 0];
        // Scores the batch over `sim` into a fresh registry, returning the
        // score bits and the `similarity.prepares` count.
        let score = |sim: &dyn Similarity| {
            let registry = kiff_telemetry::Registry::new();
            let mut out = Vec::new();
            let mut ws = ScorerWorkspace::with_telemetry(&registry);
            crate::score_candidates(sim, &ds, 0, &batch, &mut ws, &mut out);
            drop(ws);
            let snap = registry.snapshot();
            assert_eq!(snap.counter("similarity.scores"), Some(batch.len() as u64));
            let bits: Vec<u64> = out.iter().map(|s| s.to_bits()).collect();
            (bits, snap.counter("similarity.prepares").unwrap_or(0))
        };
        let (want, prepared) = score(metric);
        let (got, oracle_prepares) = score(&oracle);
        assert_eq!(got, want);
        assert!(prepared > 0);
        assert_eq!(oracle_prepares, 0);
    }

    #[test]
    fn names_are_distinct() {
        let ds = figure2_toy();
        let aa = AdamicAdar::fit(&ds);
        let cos = WeightedCosine::new();
        let metrics: Vec<&dyn Similarity> = vec![
            &BinaryCosine,
            &cos,
            &Jaccard,
            &WeightedJaccard,
            &Dice,
            &CommonItems,
            &aa,
        ];
        let mut names: Vec<&str> = metrics.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 7);
    }
}
