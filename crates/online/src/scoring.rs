//! Item-at-a-time repair scoring.
//!
//! A repair re-scores one user `u` against a candidate set `C`. Scoring
//! each candidate on its own reads its whole profile, `Σ_{v∈C} |UP_v|`
//! entries, and the candidates a repair reaches are the heaviest users
//! of the dataset. KIFF's premise is the other side of the bipartite
//! graph: in sparse data item profiles are short. So [`RepairScorer`]
//! walks `u`'s items in ascending order and, for each, the item's
//! current raters with their live ratings ([`DeltaDataset::item_row`]),
//! adding the metric's shared-item term into the candidates marked in a
//! dense scratch array: `Σ_{i∈UP_u} |IP_i|` entries. Each score is then
//! finished from the two users' cached
//! [`ProfileStats`](kiff_dataset::ProfileStats).
//!
//! A repair visits hundreds of short rows at scattered addresses, so a
//! row's first cache lines, not its raters, are most of a visit's cost.
//! The walk reads each row as two plain slices and asks for the rows
//! [`PREFETCH_AHEAD`] items ahead before it reads the current one.
//!
//! The scores are [`OnlineMetric::eval`]'s, bit for bit. The outer loop
//! runs over `u`'s items in ascending order, so every pair's terms are
//! summed from `0.0` in ascending shared-item order, as the pairwise
//! functions of `kiff_similarity::functions` sum them, and
//! [`finish`] applies their closing formulas to the same statistics.
//! Debug builds assert the equality on every score.
//!
//! The batch build's prepared scorers (`kiff_similarity::scorer`) walk
//! the same way, and close with the same [`finish`], on the batches where
//! the walk reads fewer entries than scanning; a repair always walks.

use kiff_collections::prefetch;
use kiff_dataset::{DeltaDataset, ItemId, Rating, UserId};
use kiff_similarity::scorer::finish;

use crate::config::OnlineMetric;

/// How many items ahead of the one it reads the walk prefetches a row.
const PREFETCH_AHEAD: usize = 8;

/// A shard's scratch for item-at-a-time scoring.
#[derive(Debug, Default)]
pub(crate) struct RepairScorer {
    /// Per user id: one plus the user's position in the candidate list
    /// being scored, or 0 for a user that is not a candidate. All zero
    /// between calls.
    mark: Vec<u32>,
    /// Per candidate position: the sum of the pair's shared-item terms.
    sums: Vec<f64>,
    /// One item's candidate raters, as `(mark, rating)`: see
    /// [`RepairScorer::walk`].
    hits: Vec<(u32, Rating)>,
}

impl RepairScorer {
    /// Scores `u` against `candidates` (ascending, without `u`),
    /// appending one `(candidate, similarity)` per candidate, in order.
    pub(crate) fn score(
        &mut self,
        metric: OnlineMetric,
        data: &DeltaDataset,
        u: UserId,
        candidates: &[UserId],
        out: &mut Vec<(UserId, f64)>,
    ) {
        if self.mark.len() < data.num_users() {
            self.mark.resize(data.num_users(), 0);
        }
        self.sums.clear();
        self.sums.resize(candidates.len(), 0.0);
        for (pos, &v) in (1..).zip(candidates) {
            self.mark[v as usize] = pos;
        }
        // One monomorphised walk per term shape, so the rater loop
        // carries no metric dispatch.
        match metric {
            OnlineMetric::Cosine => self.walk(data, u, |a, b| f64::from(a) * f64::from(b)),
            OnlineMetric::WeightedJaccard => {
                self.walk(data, u, |a, b| f64::from(a).min(f64::from(b)))
            }
            OnlineMetric::BinaryCosine | OnlineMetric::Jaccard | OnlineMetric::Dice => {
                self.walk(data, u, |_, _| 1.0)
            }
        }
        let (kind, stats_u) = (metric.kind(), data.stats(u));
        for (&v, &sum) in candidates.iter().zip(&self.sums) {
            self.mark[v as usize] = 0;
            let s = finish(kind, sum, stats_u, data.stats(v));
            debug_assert_eq!(
                s.to_bits(),
                metric.eval(data.profile(u), data.profile(v)).to_bits(),
                "repair score of ({u}, {v}) under {metric:?} drifted from eval"
            );
            out.push((v, s));
        }
    }

    /// Adds `term(ρ(u, i), ρ(v, i))` into the sum of every marked rater
    /// `v` of every item `i` of `u`, items ascending.
    ///
    /// About two raters in five are candidates, too many for a branch on
    /// the mark to predict. So each item's raters are first compacted
    /// into `hits` without a branch: every rater is written at the next
    /// free slot, which only a candidate claims. The candidates' terms
    /// are then added in a second, branch-free loop. A candidate rates
    /// an item at most once, so the order within an item is free.
    fn walk(&mut self, data: &DeltaDataset, u: UserId, term: impl Fn(Rating, Rating) -> f64) {
        let (mark, sums, hits) = (&self.mark, &mut self.sums, &mut self.hits);
        // An item has at most one rater per user.
        if hits.len() < mark.len() {
            hits.resize(mark.len(), (0, 0.0));
        }
        let profile = data.profile(u);
        for &i in profile.items.iter().take(PREFETCH_AHEAD) {
            prefetch_row(data, i);
        }
        for (j, (&i, &rating_u)) in profile.items.iter().zip(profile.ratings).enumerate() {
            if let Some(&ahead) = profile.items.get(j + PREFETCH_AHEAD) {
                prefetch_row(data, ahead);
            }
            let (users, ratings) = data.item_row(i);
            let mut n = 0;
            for (&v, &rating_v) in users.iter().zip(ratings) {
                let pos = mark[v as usize];
                hits[n] = (pos, rating_v);
                n += usize::from(pos != 0);
            }
            for &(pos, rating_v) in &hits[..n] {
                sums[pos as usize - 1] += term(rating_u, rating_v);
            }
        }
    }
}

/// Starts loading the heads of `i`'s rater and rating slices.
#[inline]
fn prefetch_row(data: &DeltaDataset, i: ItemId) {
    let (users, ratings) = data.item_row(i);
    prefetch(users.as_ptr());
    prefetch(ratings.as_ptr());
}

#[cfg(test)]
mod tests {
    use kiff_dataset::generators::planted::{generate_planted, PlantedConfig};
    use kiff_dataset::generators::RatingModel;
    use kiff_dataset::{Dataset, DeltaDataset, ItemId};
    use proptest::collection::vec;
    use proptest::prelude::*;

    use super::*;
    use crate::sharded::tests::audit;
    use crate::{OnlineConfig, ShardConfig, ShardedOnlineKnn, Update};

    const METRICS: [OnlineMetric; 5] = [
        OnlineMetric::Cosine,
        OnlineMetric::BinaryCosine,
        OnlineMetric::Jaccard,
        OnlineMetric::WeightedJaccard,
        OnlineMetric::Dice,
    ];

    /// Star ratings, so that a rating taken from the wrong place shows.
    fn base(seed: u64) -> Dataset {
        generate_planted(&PlantedConfig {
            num_users: 40,
            num_items: 30,
            ratings_per_user: 6,
            rating_model: RatingModel::Stars { half_steps: true },
            ..PlantedConfig::tiny("repair-scores", seed)
        })
        .0
    }

    /// Decodes one generated `(kind, user, pick, rating)` against the
    /// live dataset: a new user, the removal of one of the user's
    /// ratings, the re-add of the last removed pair with a fresh rating,
    /// a repeated add, or a rating of a possibly new item.
    fn decode(
        data: &DeltaDataset,
        removed: &mut Vec<(UserId, ItemId)>,
        (kind, user, pick, rating): (u32, u32, u32, u32),
    ) -> Update {
        let user = user % data.num_users() as UserId;
        let rating = rating as Rating * 0.5;
        let rated = data.profile(user).items;
        let owned = rated.get(pick as usize % rated.len().max(1)).copied();
        match (kind, owned) {
            (0, _) => Update::AddUser,
            (1, Some(item)) => {
                removed.push((user, item));
                Update::RemoveRating { user, item }
            }
            (2, _) if !removed.is_empty() => {
                let (user, item) = removed.pop().expect("checked non-empty");
                Update::AddRating { user, item, rating }
            }
            (3, Some(item)) => Update::AddRating { user, item, rating },
            _ => Update::AddRating {
                user,
                item: pick % (data.num_items() as ItemId + 3),
                rating,
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Every metric, at one and two shards, over streams of every
        /// update kind with compaction at a low threshold: each repair
        /// score equals `eval` bit for bit (the tripwire in
        /// `RepairScorer::score`), and so does every stored similarity
        /// after every batch.
        #[test]
        fn repair_scores_equal_eval_bit_for_bit(
            seed in 0u64..1000,
            raw in vec((0u32..6, 0u32..64, 0u32..64, 1u32..10), 16..64),
            batch in 1usize..12,
        ) {
            let base = base(seed);
            for metric in METRICS {
                for shards in [1, 2] {
                    let config = OnlineConfig::new(4)
                        .with_metric(metric)
                        .with_compaction_threshold(0.1);
                    let mut engine = ShardedOnlineKnn::new(
                        &base,
                        config,
                        ShardConfig::new(shards).with_threads(shards),
                    );
                    let mut removed = Vec::new();
                    for chunk in raw.chunks(batch) {
                        // Decoded against the state before the batch: a
                        // removal and the re-add of its pair can share a
                        // batch, so the repair walks an item's owned row
                        // that dropped and re-inserted a base rater,
                        // before compaction folds it into the base.
                        let updates: Vec<Update> = chunk
                            .iter()
                            .map(|&r| decode(engine.data(), &mut removed, r))
                            .collect();
                        engine.apply_batch(updates);
                        let data = engine.data();
                        for u in 0..engine.num_users() as UserId {
                            for nb in engine.neighbors(u) {
                                let fresh = metric.eval(data.profile(u), data.profile(nb.id));
                                prop_assert_eq!(
                                    nb.sim.to_bits(),
                                    fresh.to_bits(),
                                    "{:?}, {} shards: edge {} -> {}",
                                    metric,
                                    shards,
                                    u,
                                    nb.id
                                );
                            }
                        }
                    }
                    audit(&engine);
                }
            }
        }
    }
}
