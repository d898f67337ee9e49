//! Similarity search for out-of-graph queries over a KNN graph.
//!
//! §VI distinguishes KNN *graph construction* (this workspace) from NN
//! *search* — "find the k nearest neighbors of a small number of
//! individual elements (the queries)". The two meet in practice: a
//! constructed KNN graph is itself a serviceable search index. Like the
//! navigable-small-world family the paper cites (Malkov et al.), a query
//! is answered by a greedy best-first walk: start from seed users who
//! share an item with the query, repeatedly expand the most promising
//! frontier user's graph neighbours, and stop when the frontier cannot
//! improve the current result set.

use std::collections::BinaryHeap;
use std::sync::Arc;

use kiff_collections::{FxHashMap, FxHashSet};
use kiff_core::KiffError;
use kiff_dataset::{Dataset, ItemId, ProfileRef, Rating, UserId};
use kiff_graph::KnnGraph;
use kiff_online::ReadView;
use kiff_similarity::functions;

/// An owned query profile: sorted items with ratings, built from arbitrary
/// `(item, rating)` pairs (duplicates resolve to the last value).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryProfile {
    items: Vec<ItemId>,
    ratings: Vec<Rating>,
}

impl QueryProfile {
    /// Builds a profile from `(item, rating)` pairs in any order.
    pub fn new(pairs: impl IntoIterator<Item = (ItemId, Rating)>) -> Self {
        let mut map: FxHashMap<ItemId, Rating> = FxHashMap::default();
        for (item, rating) in pairs {
            map.insert(item, rating);
        }
        let mut items: Vec<ItemId> = map.keys().copied().collect();
        items.sort_unstable();
        let ratings = items.iter().map(|i| map[i]).collect();
        Self { items, ratings }
    }

    /// Binary (presence-only) profile from item ids.
    pub fn from_items(items: impl IntoIterator<Item = ItemId>) -> Self {
        Self::new(items.into_iter().map(|i| (i, 1.0)))
    }

    /// Number of items in the query.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the query is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Borrowed view usable with the similarity functions.
    pub fn as_ref(&self) -> ProfileRef<'_> {
        ProfileRef {
            items: &self.items,
            ratings: &self.ratings,
        }
    }
}

/// Profile-vs-profile similarity for query scoring (the query is not a
/// dataset user, so the id-based [`kiff_similarity::Similarity`] trait
/// does not apply).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProfileMetric {
    /// Cosine over presence vectors.
    BinaryCosine,
    /// Cosine over rating vectors (the paper's default).
    #[default]
    Cosine,
    /// Jaccard's coefficient over item sets.
    Jaccard,
    /// Ruzicka (weighted Jaccard).
    WeightedJaccard,
    /// Dice coefficient.
    Dice,
}

impl ProfileMetric {
    /// Similarity between two profiles under this metric.
    pub fn sim(&self, a: ProfileRef<'_>, b: ProfileRef<'_>) -> f64 {
        match self {
            ProfileMetric::BinaryCosine => functions::binary_cosine(a, b),
            ProfileMetric::Cosine => functions::weighted_cosine(a, b),
            ProfileMetric::Jaccard => functions::jaccard(a, b),
            ProfileMetric::WeightedJaccard => functions::weighted_jaccard(a, b),
            ProfileMetric::Dice => functions::dice(a, b),
        }
    }
}

/// One search hit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchResult {
    /// Matched user.
    pub user: UserId,
    /// Similarity between the query and the user's profile.
    pub sim: f64,
}

/// Frontier entry ordered by similarity (ties towards smaller id, for
/// determinism).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Frontier {
    sim: f64,
    user: UserId,
}

impl Eq for Frontier {}

impl Ord for Frontier {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.sim
            .partial_cmp(&other.sim)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| other.user.cmp(&self.user))
    }
}

impl PartialOrd for Frontier {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A greedy best-first searcher over `(dataset, graph)`.
///
/// Owns `Arc` snapshots of both sides, so one can be built per request
/// from a live engine's graph snapshot without lifetime gymnastics —
/// the shape the `kiff-serve` daemon needs. Cloning is cheap (two
/// `Arc` bumps).
///
/// ```
/// use std::sync::Arc;
/// use kiff_apps::{GraphSearcher, ProfileMetric, QueryProfile};
/// use kiff_core::kiff_knn;
/// use kiff_dataset::dataset::figure2_toy;
///
/// let ds = Arc::new(figure2_toy());
/// let graph = Arc::new(kiff_knn(&ds, 1));
/// let searcher = GraphSearcher::new(ds, graph, ProfileMetric::Cosine).unwrap();
/// // A visitor who likes coffee (item 1) matches Alice and Bob.
/// let hits = searcher.search(&QueryProfile::from_items([1]), 2, 10);
/// assert_eq!(hits.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct GraphSearcher {
    dataset: Arc<Dataset>,
    graph: Arc<KnnGraph>,
    metric: ProfileMetric,
    /// Maximum seed users drawn from the query's item profiles.
    max_seeds: usize,
}

impl GraphSearcher {
    /// Wraps a dataset and a KNN graph built over its users, or
    /// [`KiffError::Mismatch`] when they disagree on the user count.
    pub fn new(
        dataset: Arc<Dataset>,
        graph: Arc<KnnGraph>,
        metric: ProfileMetric,
    ) -> Result<Self, KiffError> {
        if dataset.num_users() != graph.num_users() {
            return Err(KiffError::Mismatch {
                detail: format!(
                    "graph has {} users, dataset has {}",
                    graph.num_users(),
                    dataset.num_users()
                ),
            });
        }
        Ok(Self {
            dataset,
            graph,
            metric,
            max_seeds: 8,
        })
    }

    /// Builds over an engine's published [`ReadView`]: two `Arc` bumps,
    /// no copies, no engine lock — the serving daemon's per-request
    /// path. A view is captured between mutations, so its graph and
    /// dataset always agree on the user count and this cannot fail.
    pub fn from_view(view: &ReadView, metric: ProfileMetric) -> Self {
        Self::new(Arc::clone(&view.dataset), Arc::clone(&view.graph), metric)
            .expect("a ReadView is batch-consistent by construction")
    }

    /// [`GraphSearcher::search`] with the empty-query case reported as
    /// [`KiffError::EmptyQuery`] instead of a silently empty result —
    /// the daemon's request path.
    pub fn try_search(
        &self,
        query: &QueryProfile,
        k: usize,
        ef: usize,
    ) -> Result<Vec<SearchResult>, KiffError> {
        if query.is_empty() {
            return Err(KiffError::EmptyQuery);
        }
        Ok(self.search(query, k, ef))
    }

    /// Overrides the seed budget (default 8).
    pub fn with_max_seeds(mut self, seeds: usize) -> Self {
        self.max_seeds = seeds.max(1);
        self
    }

    /// Top-`k` users most similar to `query`, explored with a result
    /// beam of width `ef` (clamped to at least `k`). Larger `ef` trades
    /// time for recall, as in navigable-small-world search.
    pub fn search(&self, query: &QueryProfile, k: usize, ef: usize) -> Vec<SearchResult> {
        self.search_with_stats(query, k, ef).0
    }

    /// Like [`GraphSearcher::search`], additionally reporting how many
    /// users were visited (= similarity evaluations spent). The walk's
    /// selling point over a scan is that this stays far below `|U|`.
    pub fn search_with_stats(
        &self,
        query: &QueryProfile,
        k: usize,
        ef: usize,
    ) -> (Vec<SearchResult>, usize) {
        if query.is_empty() || self.dataset.num_users() == 0 || k == 0 {
            return (Vec::new(), 0);
        }
        let ef = ef.max(k);
        let q = query.as_ref();

        let mut visited: FxHashSet<UserId> = FxHashSet::default();
        let mut frontier: BinaryHeap<Frontier> = BinaryHeap::new();
        // Result beam: a min-ordered vector kept at ≤ ef entries.
        let mut beam: Vec<Frontier> = Vec::with_capacity(ef + 1);

        let push = |u: UserId,
                    visited: &mut FxHashSet<UserId>,
                    frontier: &mut BinaryHeap<Frontier>,
                    beam: &mut Vec<Frontier>| {
            if !visited.insert(u) {
                return;
            }
            let sim = self.metric.sim(q, self.dataset.user_profile(u));
            let entry = Frontier { sim, user: u };
            frontier.push(entry);
            let pos = beam.partition_point(|e| *e < entry);
            beam.insert(pos, entry);
            if beam.len() > ef {
                beam.remove(0);
            }
        };

        for seed in self.seeds(query) {
            push(seed, &mut visited, &mut frontier, &mut beam);
        }

        while let Some(best) = frontier.pop() {
            // The beam's floor can only rise; once the best frontier entry
            // cannot beat it, expansion stops. Ties count as "cannot beat":
            // on tie-dense binary data a strict comparison degenerates into
            // a breadth-first sweep of an entire similarity plateau.
            if beam.len() >= ef && best.sim <= beam[0].sim {
                break;
            }
            for n in self.graph.neighbors(best.user) {
                push(n.id, &mut visited, &mut frontier, &mut beam);
            }
        }

        let results = beam
            .iter()
            .rev()
            .take(k)
            .filter(|e| e.sim > 0.0)
            .map(|e| SearchResult {
                user: e.user,
                sim: e.sim,
            })
            .collect();
        (results, visited.len())
    }

    /// Linear-scan reference: scores every user. Used to measure the
    /// graph walk's recall and speed-up in demos and tests.
    pub fn brute(&self, query: &QueryProfile, k: usize) -> Vec<SearchResult> {
        let q = query.as_ref();
        let mut all: Vec<SearchResult> = (0..self.dataset.num_users() as u32)
            .map(|u| SearchResult {
                user: u,
                sim: self.metric.sim(q, self.dataset.user_profile(u)),
            })
            .filter(|r| r.sim > 0.0)
            .collect();
        all.sort_unstable_by(|a, b| {
            b.sim
                .partial_cmp(&a.sim)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.user.cmp(&b.user))
        });
        all.truncate(k);
        all
    }

    /// Seed users, drawn from the item profiles of the query's items,
    /// rarest items first. The rarest item's raters are *all* seeded:
    /// any user whose profile contains every query item rates the rarest
    /// one too, so exact matches are guaranteed entry points. (If the
    /// rarest query item is a blockbuster this approaches a scan of its
    /// raters — who are exactly the plausible matches, so the work is
    /// spent where the answers are.) Remaining items contribute up to
    /// `max_seeds` more; unrated-everywhere queries fall back to evenly
    /// spread seeds.
    fn seeds(&self, query: &QueryProfile) -> Vec<UserId> {
        let mut order: Vec<ItemId> = query
            .items
            .iter()
            .copied()
            .filter(|&i| (i as usize) < self.dataset.num_items())
            .collect();
        order.sort_unstable_by_key(|&i| self.dataset.item_profile(i).len());

        let mut seeds = Vec::with_capacity(self.max_seeds);
        let mut seen: FxHashSet<UserId> = FxHashSet::default();
        let mut first_nonempty = true;
        'outer: for i in order {
            let profile = self.dataset.item_profile(i);
            if profile.is_empty() {
                continue;
            }
            let exhaustive = std::mem::take(&mut first_nonempty);
            for (u, _) in profile.iter() {
                if seen.insert(u) {
                    seeds.push(u);
                    if !exhaustive && seeds.len() >= self.max_seeds {
                        break 'outer;
                    }
                }
            }
        }
        if seeds.is_empty() {
            // Nothing shares an item with the query: spread seeds evenly
            // so the walk can still locate weakly similar users.
            let n = self.dataset.num_users();
            let step = (n / self.max_seeds).max(1);
            seeds.extend((0..n).step_by(step).take(self.max_seeds).map(|u| u as u32));
        }
        seeds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kiff_core::{Kiff, KiffConfig};
    use kiff_dataset::generators::bipartite::{generate_bipartite, BipartiteConfig};
    use kiff_dataset::DatasetBuilder;
    use kiff_similarity::WeightedCosine;

    fn searchable(seed: u64) -> (Dataset, KnnGraph) {
        let ds = generate_bipartite(&BipartiteConfig::tiny("srch", seed));
        let sim = WeightedCosine::fit(&ds);
        let graph = Kiff::new(KiffConfig::new(10)).run(&ds, &sim).graph;
        (ds, graph)
    }

    fn searcher_over(ds: &Dataset, graph: &KnnGraph, metric: ProfileMetric) -> GraphSearcher {
        GraphSearcher::new(Arc::new(ds.clone()), Arc::new(graph.clone()), metric).unwrap()
    }

    #[test]
    fn mismatched_graph_is_an_error() {
        let (ds, _) = searchable(29);
        let graph = KnnGraph::from_neighbors(1, vec![vec![]]);
        let err =
            GraphSearcher::new(Arc::new(ds), Arc::new(graph), ProfileMetric::Cosine).unwrap_err();
        assert!(matches!(err, KiffError::Mismatch { .. }));
    }

    #[test]
    fn empty_query_is_a_typed_error() {
        let (ds, graph) = searchable(53);
        let searcher = searcher_over(&ds, &graph, ProfileMetric::Cosine);
        let err = searcher
            .try_search(&QueryProfile::new(std::iter::empty()), 5, 20)
            .unwrap_err();
        assert!(matches!(err, KiffError::EmptyQuery));
        // Non-empty queries pass through to the plain search path.
        let hits = searcher
            .try_search(&QueryProfile::new(ds.user_profile(0).iter()), 3, 30)
            .unwrap();
        assert!(!hits.is_empty());
    }

    #[test]
    fn finds_own_profile() {
        let (ds, graph) = searchable(31);
        let searcher = searcher_over(&ds, &graph, ProfileMetric::Cosine);
        // Query = user 5's exact profile; top hit must have similarity 1.
        let p = ds.user_profile(5);
        let query = QueryProfile::new(p.iter());
        let hits = searcher.search(&query, 3, 30);
        assert!(!hits.is_empty());
        assert!(
            (hits[0].sim - 1.0).abs() < 1e-9,
            "top sim = {}",
            hits[0].sim
        );
    }

    #[test]
    fn walk_matches_brute_force_closely() {
        let (ds, graph) = searchable(37);
        let searcher = searcher_over(&ds, &graph, ProfileMetric::Cosine);
        let mut agree = 0usize;
        let mut total = 0usize;
        for u in (0..ds.num_users() as u32).step_by(29) {
            let query = QueryProfile::new(ds.user_profile(u).iter());
            let walk: FxHashSet<u32> = searcher
                .search(&query, 5, 50)
                .into_iter()
                .map(|r| r.user)
                .collect();
            for b in searcher.brute(&query, 5) {
                total += 1;
                agree += usize::from(walk.contains(&b.user));
            }
        }
        let recall = agree as f64 / total as f64;
        assert!(recall > 0.85, "walk recall vs brute = {recall}");
    }

    #[test]
    fn results_sorted_and_positive() {
        let (ds, graph) = searchable(41);
        let searcher = searcher_over(&ds, &graph, ProfileMetric::Jaccard);
        let query = QueryProfile::new(ds.user_profile(0).iter());
        let hits = searcher.search(&query, 10, 40);
        for w in hits.windows(2) {
            assert!(w[0].sim >= w[1].sim);
        }
        assert!(hits.iter().all(|h| h.sim > 0.0));
    }

    #[test]
    fn empty_query_returns_nothing() {
        let (ds, graph) = searchable(43);
        let searcher = searcher_over(&ds, &graph, ProfileMetric::Cosine);
        let query = QueryProfile::new(std::iter::empty());
        assert!(searcher.search(&query, 5, 20).is_empty());
    }

    #[test]
    fn unknown_items_fall_back_to_spread_seeds() {
        let mut b = DatasetBuilder::new("fb", 4, 10);
        b.add_rating(0, 0, 1.0);
        b.add_rating(1, 0, 1.0);
        b.add_rating(2, 1, 1.0);
        b.add_rating(3, 1, 1.0);
        let ds = b.build();
        let graph = kiff_graph::exact_knn(&ds, &WeightedCosine::new(), 2, None);
        let searcher = searcher_over(&ds, &graph, ProfileMetric::Cosine);
        // Item 9 is rated by nobody: seeds fall back, zero-sim hits are
        // filtered out.
        let query = QueryProfile::from_items([9]);
        assert!(searcher.search(&query, 3, 10).is_empty());
    }

    #[test]
    fn query_profile_dedups_and_sorts() {
        let q = QueryProfile::new([(5, 1.0), (2, 3.0), (5, 2.0)]);
        assert_eq!(q.len(), 2);
        let r = q.as_ref();
        assert_eq!(r.items, &[2, 5]);
        assert_eq!(r.rating(5), Some(2.0), "last write wins");
    }

    #[test]
    fn larger_beam_never_hurts() {
        let (ds, graph) = searchable(47);
        let searcher = searcher_over(&ds, &graph, ProfileMetric::Cosine);
        let query = QueryProfile::new(ds.user_profile(7).iter());
        let narrow = searcher.search(&query, 5, 5);
        let wide = searcher.search(&query, 5, 100);
        let best_narrow = narrow.first().map_or(0.0, |r| r.sim);
        let best_wide = wide.first().map_or(0.0, |r| r.sim);
        assert!(best_wide >= best_narrow - 1e-12);
    }

    #[test]
    fn metric_enum_dispatches() {
        let a = QueryProfile::new([(0, 2.0), (1, 1.0)]);
        let b = QueryProfile::new([(0, 2.0), (1, 1.0)]);
        for m in [
            ProfileMetric::BinaryCosine,
            ProfileMetric::Cosine,
            ProfileMetric::Jaccard,
            ProfileMetric::WeightedJaccard,
            ProfileMetric::Dice,
        ] {
            let s = m.sim(a.as_ref(), b.as_ref());
            assert!((s - 1.0).abs() < 1e-12, "{m:?} self-sim = {s}");
        }
    }
}
