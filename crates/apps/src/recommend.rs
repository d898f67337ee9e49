//! User-based collaborative filtering over a KNN graph.
//!
//! "In a movie rating database, nodes are users, and each user is
//! associated with the movies (items) she has already rated" (§I). Once
//! the KNN graph connects each user to her most similar peers, two
//! classic primitives follow:
//!
//! * **Top-N recommendation** — rank the items the user has *not* rated
//!   by the similarity-weighted enthusiasm of her neighbours
//!   ([`Recommender::recommend`]).
//! * **Rating prediction** — estimate `ρ(u, i)` as the similarity-weighted
//!   mean of the neighbours' ratings of `i`
//!   ([`Recommender::predict_rating`]).
//!
//! [`hit_rate`] evaluates top-N quality with the standard leave-one-out
//! protocol, so graph quality (recall) can be traced through to
//! application quality.

use std::sync::Arc;

use kiff_collections::FxHashMap;
use kiff_core::KiffError;
use kiff_dataset::{Dataset, ItemId, UserId};
use kiff_graph::KnnGraph;
use kiff_online::ReadView;

/// One recommended item with its aggregation score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Recommendation {
    /// The recommended item.
    pub item: ItemId,
    /// Similarity-weighted aggregate score (higher is better; not a
    /// rating prediction — use [`Recommender::predict_rating`] for that).
    pub score: f64,
}

/// A user-based collaborative-filtering recommender over `(dataset,
/// graph)`.
///
/// Owns `Arc` snapshots of both sides, so one can be built per request
/// from a live engine's [`graph()`](kiff_graph::KnnGraph) snapshot
/// without lifetime gymnastics — the shape the `kiff-serve` daemon
/// needs. Cloning is cheap (two `Arc` bumps).
///
/// ```
/// use std::sync::Arc;
/// use kiff_apps::Recommender;
/// use kiff_core::kiff_knn;
/// use kiff_dataset::dataset::figure2_toy;
///
/// let ds = Arc::new(figure2_toy());
/// let graph = Arc::new(kiff_knn(&ds, 1));
/// let rec = Recommender::new(ds, graph).unwrap();
/// // Alice's neighbour Bob likes cheese (item 2), which Alice lacks.
/// assert_eq!(rec.recommend(0, 5)[0].item, 2);
/// ```
#[derive(Debug, Clone)]
pub struct Recommender {
    dataset: Arc<Dataset>,
    graph: Arc<KnnGraph>,
}

impl Recommender {
    /// Wraps a dataset and a KNN graph built over its users, or
    /// [`KiffError::Mismatch`] when they disagree on the user count.
    pub fn new(dataset: Arc<Dataset>, graph: Arc<KnnGraph>) -> Result<Self, KiffError> {
        if dataset.num_users() != graph.num_users() {
            return Err(KiffError::Mismatch {
                detail: format!(
                    "graph has {} users, dataset has {}",
                    graph.num_users(),
                    dataset.num_users()
                ),
            });
        }
        Ok(Self { dataset, graph })
    }

    /// Builds over an engine's published [`ReadView`]: two `Arc` bumps,
    /// no copies, no engine lock — the serving daemon's per-request
    /// path. A view is captured between mutations, so its graph and
    /// dataset always agree on the user count and this cannot fail.
    pub fn from_view(view: &ReadView) -> Self {
        Self::new(Arc::clone(&view.dataset), Arc::clone(&view.graph))
            .expect("a ReadView is batch-consistent by construction")
    }

    /// Bounds-checked [`Recommender::recommend`]: errors on an unknown
    /// user instead of panicking — the daemon's request path.
    pub fn try_recommend(&self, u: UserId, n: usize) -> Result<Vec<Recommendation>, KiffError> {
        self.check_user(u)?;
        Ok(self.recommend(u, n))
    }

    /// Bounds-checked [`Recommender::predict_rating`]: errors on an
    /// unknown user or item; `Ok(None)` still means "no neighbour with
    /// positive similarity rated the item".
    pub fn try_predict(&self, u: UserId, i: ItemId) -> Result<Option<f64>, KiffError> {
        self.check_user(u)?;
        self.check_item(i)?;
        Ok(self.predict_rating(u, i))
    }

    /// Bounds-checked [`Recommender::audience`]: errors on an unknown
    /// item instead of silently returning an empty ranking.
    pub fn try_audience(&self, i: ItemId, n: usize) -> Result<Vec<(UserId, f64)>, KiffError> {
        self.check_item(i)?;
        Ok(self.audience(i, n))
    }

    fn check_user(&self, u: UserId) -> Result<(), KiffError> {
        if (u as usize) < self.dataset.num_users() {
            Ok(())
        } else {
            Err(KiffError::UnknownUser {
                user: u,
                num_users: self.dataset.num_users(),
            })
        }
    }

    fn check_item(&self, i: ItemId) -> Result<(), KiffError> {
        if (i as usize) < self.dataset.num_items() {
            Ok(())
        } else {
            Err(KiffError::UnknownItem {
                item: i,
                num_items: self.dataset.num_items(),
            })
        }
    }

    /// Top-`n` items for `u`: items rated by `u`'s neighbours but not by
    /// `u`, scored by `Σ sim(u, v) · ρ(v, i)` over the neighbours `v`
    /// that rated `i`. Ties break towards the smaller item id, so results
    /// are deterministic.
    pub fn recommend(&self, u: UserId, n: usize) -> Vec<Recommendation> {
        let mut scores: FxHashMap<ItemId, f64> = FxHashMap::default();
        let own = self.dataset.user_profile(u);
        for neighbor in self.graph.neighbors(u) {
            if neighbor.sim <= 0.0 {
                continue;
            }
            for (item, rating) in self.dataset.user_profile(neighbor.id).iter() {
                if own.rating(item).is_none() {
                    *scores.entry(item).or_insert(0.0) += neighbor.sim * f64::from(rating);
                }
            }
        }
        let mut ranked: Vec<Recommendation> = scores
            .into_iter()
            .map(|(item, score)| Recommendation { item, score })
            .collect();
        ranked.sort_unstable_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.item.cmp(&b.item))
        });
        ranked.truncate(n);
        ranked
    }

    /// Predicted rating of `i` by `u`: the similarity-weighted mean of
    /// the neighbours' ratings of `i`. `None` when no neighbour with
    /// positive similarity rated `i`.
    pub fn predict_rating(&self, u: UserId, i: ItemId) -> Option<f64> {
        let mut num = 0.0;
        let mut den = 0.0;
        for neighbor in self.graph.neighbors(u) {
            if neighbor.sim <= 0.0 {
                continue;
            }
            if let Some(r) = self.dataset.user_profile(neighbor.id).rating(i) {
                num += neighbor.sim * f64::from(r);
                den += neighbor.sim;
            }
        }
        (den > 0.0).then(|| num / den)
    }

    /// The audience of item `i`: the top-`n` users most likely to
    /// appreciate it, ranked by the similarity-weighted enthusiasm of
    /// their neighbours for `i`, excluding users who already rated it.
    ///
    /// This is the *reversed CF* query of Park et al. (cited as \[6\] by
    /// the paper): instead of asking "what should user u see?", ask
    /// "who should see item i?" — the primitive behind push campaigns
    /// and cold-start item seeding. It exploits the same KNN graph
    /// through its reverse edges.
    pub fn audience(&self, i: ItemId, n: usize) -> Vec<(UserId, f64)> {
        let raters = self.dataset.item_profile(i);
        let mut scores: FxHashMap<UserId, f64> = FxHashMap::default();
        // Reverse edges: a rater v of i boosts every user u that lists v
        // as a neighbour.
        for u in 0..self.dataset.num_users() as u32 {
            if self.dataset.user_profile(u).rating(i).is_some() {
                continue;
            }
            for neighbor in self.graph.neighbors(u) {
                if neighbor.sim <= 0.0 {
                    continue;
                }
                if let Some(r) = raters.rating(neighbor.id) {
                    // `raters` is the item profile: ids are users, the
                    // rating is v's rating of i.
                    *scores.entry(u).or_insert(0.0) += neighbor.sim * f64::from(r);
                }
            }
        }
        let mut ranked: Vec<(UserId, f64)> = scores.into_iter().collect();
        ranked.sort_unstable_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
        ranked.truncate(n);
        ranked
    }

    /// Fraction of the item space reachable through recommendations:
    /// distinct items recommended in anyone's top-`n`, over `|I|`.
    /// A catalogue-coverage diagnostic for the demo binaries.
    pub fn coverage(&self, n: usize) -> f64 {
        let mut seen: Vec<bool> = vec![false; self.dataset.num_items()];
        for u in 0..self.dataset.num_users() as u32 {
            for rec in self.recommend(u, n) {
                seen[rec.item as usize] = true;
            }
        }
        if self.dataset.num_items() == 0 {
            return 0.0;
        }
        seen.iter().filter(|&&s| s).count() as f64 / self.dataset.num_items() as f64
    }
}

/// Leave-one-out hit rate: for each held-out `(user, item)` pair — a
/// rating removed *before* the graph/dataset were built — checks whether
/// `item` appears in the user's top-`n`. Returns hits / pairs, or 0.0 on
/// an empty slice.
pub fn hit_rate(
    dataset: &Dataset,
    graph: &KnnGraph,
    held_out: &[(UserId, ItemId)],
    n: usize,
) -> f64 {
    if held_out.is_empty() {
        return 0.0;
    }
    // One-shot evaluation: the clone into owning `Arc`s is paid once for
    // the whole held-out sweep.
    let rec = Recommender::new(Arc::new(dataset.clone()), Arc::new(graph.clone()))
        .expect("graph and dataset disagree on |U|");
    let hits = held_out
        .iter()
        .filter(|&&(u, i)| rec.recommend(u, n).iter().any(|r| r.item == i))
        .count();
    hits as f64 / held_out.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use kiff_dataset::DatasetBuilder;
    use kiff_graph::{KnnGraph, Neighbor};

    fn rec_over(ds: &Dataset, graph: &KnnGraph) -> Recommender {
        Recommender::new(Arc::new(ds.clone()), Arc::new(graph.clone())).unwrap()
    }

    /// Three users: 0 and 1 near-identical, 2 disjoint. Item 3 is rated
    /// only by user 1.
    fn small() -> (Dataset, KnnGraph) {
        let mut b = DatasetBuilder::new("rec", 3, 5);
        b.add_rating(0, 0, 5.0);
        b.add_rating(0, 1, 3.0);
        b.add_rating(1, 0, 4.0);
        b.add_rating(1, 1, 3.0);
        b.add_rating(1, 3, 5.0);
        b.add_rating(2, 4, 2.0);
        let ds = b.build();
        let graph = KnnGraph::from_neighbors(
            2,
            vec![
                vec![Neighbor { id: 1, sim: 0.9 }],
                vec![Neighbor { id: 0, sim: 0.9 }],
                vec![],
            ],
        );
        (ds, graph)
    }

    #[test]
    fn recommends_unseen_neighbour_items() {
        let (ds, graph) = small();
        let rec = rec_over(&ds, &graph);
        let top = rec.recommend(0, 3);
        assert_eq!(top.len(), 1, "only item 3 is new to user 0");
        assert_eq!(top[0].item, 3);
        assert!((top[0].score - 0.9 * 5.0).abs() < 1e-12);
    }

    #[test]
    fn never_recommends_rated_items() {
        let (ds, graph) = small();
        let rec = rec_over(&ds, &graph);
        for u in 0..3 {
            let own = ds.user_profile(u);
            for r in rec.recommend(u, 10) {
                assert!(own.rating(r.item).is_none(), "user {u} item {}", r.item);
            }
        }
    }

    #[test]
    fn predicts_weighted_mean() {
        let (ds, graph) = small();
        let rec = rec_over(&ds, &graph);
        // User 0's only neighbour (sim 0.9) rated item 3 with 5.0.
        assert!((rec.predict_rating(0, 3).unwrap() - 5.0).abs() < 1e-12);
        // Nobody in user 2's (empty) neighbourhood rated anything.
        assert_eq!(rec.predict_rating(2, 0), None);
        // Item 2 was rated by no one.
        assert_eq!(rec.predict_rating(0, 2), None);
    }

    #[test]
    fn audience_is_reverse_of_recommend() {
        let (ds, graph) = small();
        let rec = rec_over(&ds, &graph);
        // Item 3 is rated only by user 1; user 0 (1's neighbour) is its
        // audience. Users 1 (already rated) and 2 (no neighbours) are not.
        let audience = rec.audience(3, 5);
        assert_eq!(audience.len(), 1);
        assert_eq!(audience[0].0, 0);
        assert!((audience[0].1 - 0.9 * 5.0).abs() < 1e-12);
        // Consistency with the forward query: user 0's top recommendation
        // is exactly that item.
        assert_eq!(rec.recommend(0, 1)[0].item, 3);
    }

    #[test]
    fn audience_of_unrated_item_is_empty() {
        let (ds, graph) = small();
        let rec = rec_over(&ds, &graph);
        assert!(rec.audience(2, 5).is_empty(), "item 2 has no raters");
    }

    #[test]
    fn isolated_user_gets_nothing() {
        let (ds, graph) = small();
        let rec = rec_over(&ds, &graph);
        assert!(rec.recommend(2, 5).is_empty());
    }

    #[test]
    fn hit_rate_counts_hits() {
        let (ds, graph) = small();
        // Item 3 is recommended to user 0; item 4 is not.
        assert_eq!(hit_rate(&ds, &graph, &[(0, 3)], 5), 1.0);
        assert_eq!(hit_rate(&ds, &graph, &[(0, 3), (0, 4)], 5), 0.5);
        assert_eq!(hit_rate(&ds, &graph, &[], 5), 0.0);
    }

    #[test]
    fn coverage_counts_distinct_items() {
        let (ds, graph) = small();
        let rec = rec_over(&ds, &graph);
        // Items 0, 1, 3 are recommendable (between users 0 and 1); 5 items
        // total. Item 3 → user 0; items 0,1 are rated by both, nothing for
        // user 1 except… user 1 already has 0,1,3; user 0 lacks 3.
        let c = rec.coverage(5);
        assert!((c - 1.0 / 5.0).abs() < 1e-12, "coverage = {c}");
    }

    #[test]
    fn rejects_mismatched_graph() {
        let (ds, _) = small();
        let graph = KnnGraph::from_neighbors(1, vec![vec![]]);
        let err = Recommender::new(Arc::new(ds), Arc::new(graph)).unwrap_err();
        assert!(matches!(err, KiffError::Mismatch { .. }));
        assert_eq!(err.exit_code(), 5);
    }

    #[test]
    fn try_variants_type_their_errors() {
        let (ds, graph) = small();
        let rec = rec_over(&ds, &graph);
        assert!(matches!(
            rec.try_recommend(99, 3).unwrap_err(),
            KiffError::UnknownUser { user: 99, .. }
        ));
        assert!(matches!(
            rec.try_predict(0, 99).unwrap_err(),
            KiffError::UnknownItem { item: 99, .. }
        ));
        assert!(matches!(
            rec.try_audience(99, 3).unwrap_err(),
            KiffError::UnknownItem { item: 99, .. }
        ));
        // In-range calls defer to the plain methods.
        assert_eq!(rec.try_recommend(0, 3).unwrap(), rec.recommend(0, 3));
        assert_eq!(rec.try_predict(0, 3).unwrap(), rec.predict_rating(0, 3));
    }

    #[test]
    fn end_to_end_with_kiff_graph() {
        use kiff_core::{Kiff, KiffConfig};
        use kiff_dataset::generators::{generate_planted, PlantedConfig};
        use kiff_similarity::WeightedCosine;

        // Planted communities: recommendations should come from the
        // user's own item block far more often than not.
        let cfg = PlantedConfig {
            affinity: 0.95,
            ..PlantedConfig::tiny("rec-e2e", 23)
        };
        let (ds, labels) = generate_planted(&cfg);
        let sim = WeightedCosine::fit(&ds);
        let graph = Kiff::new(KiffConfig::new(8)).run(&ds, &sim).graph;
        let rec = rec_over(&ds, &graph);
        let block = cfg.num_items / cfg.communities;
        let mut home = 0usize;
        let mut total = 0usize;
        for u in 0..ds.num_users() as u32 {
            for r in rec.recommend(u, 5) {
                let item_block = ((r.item as usize) / block).min(cfg.communities - 1);
                home += usize::from(item_block as u32 == labels[u as usize]);
                total += 1;
            }
        }
        assert!(total > 0);
        let ratio = home as f64 / total as f64;
        assert!(ratio > 0.8, "home-block ratio = {ratio}");
    }
}
