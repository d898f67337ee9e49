//! Prepared similarity scorers: preprocess one profile, score many.
//!
//! KIFF's refinement and the baselines' candidate loops score one
//! *reference* user against a stream of candidates — `refine` pops up to
//! `γ` RCS candidates per user per iteration. (The online engine's repair
//! scores item-at-a-time instead, from live item profiles; see
//! `kiff_online`.) The pairwise entry points
//! ([`crate::functions`], [`crate::Similarity::sim`]) rediscover the
//! reference profile on every call: a fresh sorted-merge walk, plus — for
//! cosine — a fresh `O(|UP_u|)` norm pass.
//!
//! This module hoists the per-reference work out of the loop:
//!
//! * [`ScorerWorkspace`] — a reusable (per worker thread) preparation
//!   arena: a zeroed dense map `item → (rating, presence)` of the
//!   reference profile, cleaned up slot-by-slot (`O(|UP_u|)`) between
//!   reference users.
//! * [`ProfileScorer`] — the prepared reference profile. For high-degree
//!   references it stamps the profile into the dense map so each candidate
//!   scores in `O(|UP_v|)` *branchless* lookups (unshared items contribute
//!   exact zero terms); for low-degree references (where a merge/gallop is
//!   already cheap and stamping would dominate) it falls back to the
//!   pairwise kernels unchanged.
//! * [`ScoreKind`] — which metric formula the scorer applies.
//! * [`Scorer`] — the object-safe trait [`crate::Similarity::scorer`]
//!   returns, binding a prepared reference to a dataset so graph
//!   algorithms stay generic over the metric.
//!
//! Every path reproduces the pairwise functions *exactly* (same shared
//! items visited in the same ascending order, same f64 widening), so
//! prepared and pairwise scoring yield bit-identical similarities — the
//! property the `counting_scorers` suite tests and the `counting` bench
//! experiment relies on for its recall-ratio-1.0 check.

use std::sync::atomic::{AtomicU64, Ordering};

use kiff_dataset::{Dataset, ProfileRef, UserId};
use kiff_telemetry::{Counter, Registry};

use crate::functions;

/// Reference-profile degree below which stamping is skipped and scoring
/// falls back to the pairwise kernels (a short merge beats the stamp
/// setup; measured in the `counting` bench experiment).
const DENSE_MIN_DEGREE: usize = 8;

/// Candidate-batch size below which callers should skip preparation and
/// score pairwise instead: preparing (profile stamping + a boxed scorer)
/// only pays for itself across several candidates. Both paths compute
/// identical similarities, so the choice is invisible in the output —
/// `refine`, the baselines and `exact_knn` all use this threshold.
pub const PREPARED_MIN_BATCH: usize = 4;

/// How a candidate loop evaluates similarities against its reference
/// node.
///
/// Every algorithm in the workspace — KIFF's refinement, NN-Descent's
/// local joins, HyRec's neighbour-of-neighbour scans, LSH's bucket
/// joins, the random initialisation and the exact constructions — scores
/// one *reference* user against a stream of candidates, and accepts this
/// selector:
///
/// * [`ScoringMode::Prepared`] (default) prepares the reference once per
///   node through [`crate::Similarity::scorer`] and scores each
///   candidate in `O(|UP_v|)`;
/// * [`ScoringMode::Pairwise`] re-merges both raw profiles per candidate
///   through [`crate::Similarity::sim`] — the historical behaviour, kept
///   as the regression baseline for the `counting` and `baselines` bench
///   experiments.
///
/// Both modes compute bit-identical similarities for every metric in
/// this crate, so they build identical graphs (property-tested in
/// `tests/counting_scorers.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScoringMode {
    /// Prepare a reusable scorer per reference node; each candidate
    /// scores in `O(|UP_v|)`. Default.
    #[default]
    Prepared,
    /// Pairwise [`crate::Similarity::sim`] per candidate.
    Pairwise,
}

/// Metric selector for profile-level prepared scoring. Mirrors the
/// stateless metrics of [`crate::functions`]; dataset-fitted state
/// (cosine norms, Adamic–Adar weights) is layered on by the
/// [`crate::Similarity::scorer`] implementations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScoreKind {
    /// Weighted cosine over rating vectors (the paper's default).
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
    /// Raw shared-item count.
    CommonItems,
}

/// Reusable preparation arena for [`ProfileScorer`], one per worker.
///
/// Holds the dense `item → (rating, presence)` map of the current
/// reference profile in *zeroed* form: slots not touched by the reference
/// read as `(0.0, 0)`, so scoring loops accumulate branchlessly — an
/// unshared item contributes an exact `+0.0` (or `+0`) term, which leaves
/// every metric's sum bit-identical to the pairwise shared-only walk
/// because all contributions are non-negative. Preparing a new reference
/// clears exactly the previously touched slots (the `clear_ids` idiom),
/// so capacity grows to the largest item id seen but per-prepare cost
/// stays `O(|UP_u|)`.
#[derive(Debug, Default)]
pub struct ScorerWorkspace {
    /// Reference rating per item (0.0 when the reference lacks the item).
    rating: Vec<f32>,
    /// 1 when the reference rates the item, else 0.
    present: Vec<u32>,
    /// Items stamped by the current reference, for O(|UP_u|) cleanup.
    dirty: Vec<u32>,
    /// `similarity.prepares`/`similarity.scores` counters (detached
    /// no-ops unless wired via [`ScorerWorkspace::with_telemetry`]).
    prepares: Counter,
    scores: Counter,
    /// Scored-candidate tally not yet flushed into `scores`. Scoring is
    /// the hottest loop in the workspace: a shared-counter RMW per
    /// candidate bounces the counter's cache line across every worker
    /// thread (measured at >25% replay throughput in the `telemetry`
    /// bench experiment), so scorers bump this unsynchronised cell and
    /// the workspace flushes one `add` per reference at the next
    /// `prepare` / [`ScorerWorkspace::flush_telemetry`] / drop. An
    /// `AtomicU64` only so the workspace (and the engines embedding it)
    /// stays `Sync` for shared read access; every touch is a relaxed
    /// plain load/store on a per-worker cell — same machine code as the
    /// former `Cell<u64>`, never a contended RMW in the scoring loop.
    pending_scores: AtomicU64,
}

impl ScorerWorkspace {
    /// An empty workspace; the dense map grows on first use. Prepared
    /// scoring is *not* instrumented — see
    /// [`ScorerWorkspace::with_telemetry`].
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty workspace whose scorers count into `registry`:
    /// `similarity.prepares` increments per prepared reference and
    /// `similarity.scores` per scored candidate. Score counts are
    /// batched per reference; holders of a long-lived workspace call
    /// [`ScorerWorkspace::flush_telemetry`] before snapshotting (see
    /// `pending_scores`).
    pub fn with_telemetry(registry: &Registry) -> Self {
        Self {
            rating: Vec::new(),
            present: Vec::new(),
            dirty: Vec::new(),
            prepares: registry.counter("similarity.prepares"),
            scores: registry.counter("similarity.scores"),
            pending_scores: AtomicU64::new(0),
        }
    }

    /// Publishes any scored-candidate tally still pending into the
    /// `similarity.scores` counter. Runs automatically on the next
    /// `prepare` and on drop; engines that keep a workspace alive
    /// across telemetry snapshots call this at batch end so the
    /// exported counter is exact. A no-op (and free) when nothing is
    /// pending or telemetry is not wired.
    pub fn flush_telemetry(&self) {
        let pending = self.pending_scores.swap(0, Ordering::Relaxed);
        if pending > 0 {
            self.scores.add(pending);
        }
    }

    /// Prepares `a` as the reference profile for `kind`.
    ///
    /// The returned scorer borrows both the workspace and the profile; it
    /// is valid until the next `prepare` call on this workspace.
    pub fn prepare<'a>(&'a mut self, kind: ScoreKind, a: ProfileRef<'a>) -> ProfileScorer<'a> {
        // The norm is the same `ProfileRef::norm` the pairwise functions
        // call; callers holding a fitted norm table use
        // [`ScorerWorkspace::prepare_with_norm`] to skip this pass.
        let norm_a = match kind {
            ScoreKind::Cosine => a.norm(),
            _ => 0.0,
        };
        self.prepare_with_norm(kind, a, norm_a)
    }

    /// [`ScorerWorkspace::prepare`] with an externally supplied reference
    /// norm (the fitted-cosine path): no `O(|UP_u|)` norm pass runs here.
    /// `norm_a` is only read by [`ScoreKind::Cosine`]'s
    /// [`ProfileScorer::score`] / [`ProfileScorer::score_cosine`].
    pub fn prepare_with_norm<'a>(
        &'a mut self,
        kind: ScoreKind,
        a: ProfileRef<'a>,
        norm_a: f64,
    ) -> ProfileScorer<'a> {
        self.flush_telemetry();
        self.prepares.incr();
        for &i in &self.dirty {
            self.rating[i as usize] = 0.0;
            self.present[i as usize] = 0;
        }
        self.dirty.clear();
        let dense = a.len() >= DENSE_MIN_DEGREE;
        if dense {
            // Items are sorted: the last is the largest, sizing the map.
            let need = *a.items.last().expect("non-empty profile") as usize + 1;
            if self.rating.len() < need {
                self.rating.resize(need, 0.0);
                self.present.resize(need, 0);
            }
            for (item, rating) in a.iter() {
                self.rating[item as usize] = rating;
                self.present[item as usize] = 1;
            }
            self.dirty.extend_from_slice(a.items);
        }
        // Per-reference statistics each formula needs, computed once.
        let total_a = match kind {
            ScoreKind::WeightedJaccard => a.ratings.iter().map(|&r| f64::from(r)).sum(),
            _ => 0.0,
        };
        ProfileScorer {
            ws: if dense { Some(&*self) } else { None },
            a,
            kind,
            norm_a,
            total_a,
            pending_scores: &self.pending_scores,
        }
    }
}

impl Drop for ScorerWorkspace {
    /// Transient workspaces (per-run scratch pools, test locals) publish
    /// their final reference's score tally without an explicit
    /// [`ScorerWorkspace::flush_telemetry`] call.
    fn drop(&mut self) {
        self.flush_telemetry();
    }
}

/// A reference profile prepared for repeated scoring (see the module
/// docs). Create via [`ScorerWorkspace::prepare`].
#[derive(Debug)]
pub struct ProfileScorer<'a> {
    /// The dense map, when the reference is stamped; `None` selects the
    /// pairwise fallback.
    ws: Option<&'a ScorerWorkspace>,
    a: ProfileRef<'a>,
    kind: ScoreKind,
    norm_a: f64,
    total_a: f64,
    /// The workspace's unflushed `similarity.scores` tally: one
    /// unsynchronised bump per candidate here, one shared-counter `add`
    /// per reference at flush — never an atomic RMW in the scoring loop.
    pending_scores: &'a AtomicU64,
}

impl ProfileScorer<'_> {
    /// One unsynchronised tally bump per scored candidate: a relaxed
    /// load/store pair (not an RMW) on the workspace's private cell.
    #[inline]
    fn bump_scores(&self) {
        self.pending_scores.store(
            self.pending_scores.load(Ordering::Relaxed) + 1,
            Ordering::Relaxed,
        );
    }

    /// The prepared reference profile.
    pub fn reference(&self) -> ProfileRef<'_> {
        self.a
    }

    /// Whether the dense-stamp fast path is active (false = pairwise
    /// fallback for a low-degree reference).
    pub fn is_dense(&self) -> bool {
        self.ws.is_some()
    }

    /// `|A ∩ B|` in `O(|UP_v|)` (dense) — identical to
    /// [`crate::intersect_count`] on the same pair.
    #[inline]
    pub fn shared_count(&self, b: ProfileRef<'_>) -> usize {
        match self.ws {
            Some(ws) => {
                // Branchless: absent slots read 0.
                let mut shared = 0u32;
                for &item in b.items {
                    shared += ws.present.get(item as usize).copied().unwrap_or(0);
                }
                shared as usize
            }
            None => crate::kernels::intersect_count(self.a.items, b.items),
        }
    }

    /// `⟨a, b⟩` over shared items, widened to f64 exactly like
    /// [`crate::kernels::sparse_dot`] (ascending item order; the dense
    /// path's extra `+0.0` terms for unshared items cannot change a sum
    /// of non-negative products).
    #[inline]
    pub fn dot(&self, b: ProfileRef<'_>) -> f64 {
        match self.ws {
            Some(ws) => {
                let mut dot = 0.0f64;
                for (item, rating) in b.iter() {
                    let a_rating = ws.rating.get(item as usize).copied().unwrap_or(0.0);
                    dot += f64::from(a_rating) * f64::from(rating);
                }
                dot
            }
            None => crate::kernels::sparse_dot(self.a.items, self.a.ratings, b.items, b.ratings),
        }
    }

    /// `Σ min(aᵢ, bᵢ)` over shared items (the weighted-Jaccard numerator;
    /// absent reference slots read 0.0, whose `min` against a positive
    /// rating contributes an exact `+0.0`).
    #[inline]
    fn min_sum(&self, b: ProfileRef<'_>) -> f64 {
        match self.ws {
            Some(ws) => {
                let mut min_sum = 0.0f64;
                for (item, rating) in b.iter() {
                    let a_rating = ws.rating.get(item as usize).copied().unwrap_or(0.0);
                    min_sum += f64::from(a_rating).min(f64::from(rating));
                }
                min_sum
            }
            None => {
                let mut min_sum = 0.0f64;
                crate::kernels::for_each_shared(self.a.items, b.items, |i, j| {
                    min_sum += f64::from(self.a.ratings[i]).min(f64::from(b.ratings[j]));
                });
                min_sum
            }
        }
    }

    /// `Σ_{i ∈ A∩B} weights[i]` — the Adamic–Adar accumulator, identical
    /// to [`functions::adamic_adar_with`] on the same pair (weights are
    /// positive, so masked `+0.0` terms are exact no-ops).
    #[inline]
    pub fn weighted_shared(&self, b: ProfileRef<'_>, weights: &[f64]) -> f64 {
        match self.ws {
            Some(ws) => {
                let mut sum = 0.0f64;
                for &item in b.items {
                    let i = item as usize;
                    let mask = ws.present.get(i).copied().unwrap_or(0);
                    sum += f64::from(mask) * weights[i];
                }
                sum
            }
            None => functions::adamic_adar_with(self.a, b, weights),
        }
    }

    /// Scores `b` against the prepared reference under the prepared
    /// [`ScoreKind`] — equal to the matching [`crate::functions`] function
    /// on `(a, b)`, bit for bit.
    #[inline]
    pub fn score(&self, b: ProfileRef<'_>) -> f64 {
        self.bump_scores();
        match self.kind {
            ScoreKind::Cosine => self.cosine_value(b, self.norm_a, b.norm()),
            ScoreKind::BinaryCosine => {
                if self.a.is_empty() || b.is_empty() {
                    return 0.0;
                }
                let shared = self.shared_count(b) as f64;
                shared / ((self.a.len() as f64) * (b.len() as f64)).sqrt()
            }
            ScoreKind::Jaccard => {
                if self.a.is_empty() && b.is_empty() {
                    return 0.0;
                }
                let shared = self.shared_count(b);
                let union = self.a.len() + b.len() - shared;
                shared as f64 / union as f64
            }
            ScoreKind::WeightedJaccard => {
                if self.a.is_empty() && b.is_empty() {
                    return 0.0;
                }
                let min_sum = self.min_sum(b);
                let total_b: f64 = b.ratings.iter().map(|&r| f64::from(r)).sum();
                let max_sum = self.total_a + total_b - min_sum;
                if max_sum == 0.0 {
                    0.0
                } else {
                    min_sum / max_sum
                }
            }
            ScoreKind::Dice => {
                if self.a.is_empty() && b.is_empty() {
                    return 0.0;
                }
                let shared = self.shared_count(b);
                2.0 * shared as f64 / (self.a.len() + b.len()) as f64
            }
            ScoreKind::CommonItems => self.shared_count(b) as f64,
        }
    }

    /// Cosine against `b` with an externally supplied `norm_b`, using the
    /// reference norm precomputed at prepare time; matches
    /// [`functions::weighted_cosine`] when `norm_b == b.norm()`. Only
    /// meaningful when prepared with [`ScoreKind::Cosine`].
    #[inline]
    pub fn score_cosine(&self, b: ProfileRef<'_>, norm_b: f64) -> f64 {
        self.bump_scores();
        self.cosine_value(b, self.norm_a, norm_b)
    }

    /// Cosine with both norms supplied (the fitted [`crate::WeightedCosine`]
    /// path, where the reference norm too comes from the fitted table).
    #[inline]
    pub fn score_cosine_with_norms(&self, b: ProfileRef<'_>, norm_a: f64, norm_b: f64) -> f64 {
        self.bump_scores();
        self.cosine_value(b, norm_a, norm_b)
    }

    /// The shared cosine formula behind every public cosine entry point.
    #[inline]
    fn cosine_value(&self, b: ProfileRef<'_>, norm_a: f64, norm_b: f64) -> f64 {
        debug_assert_eq!(self.kind, ScoreKind::Cosine, "prepared for {:?}", self.kind);
        if self.a.is_empty() || b.is_empty() {
            return 0.0;
        }
        let dot = self.dot(b);
        if dot == 0.0 {
            0.0
        } else {
            dot / (norm_a * norm_b)
        }
    }
}

/// A similarity scorer prepared for one reference user of a dataset.
///
/// Returned by [`crate::Similarity::scorer`]; [`Scorer::score`] equals
/// `sim.sim(dataset, u, v)` within [`crate::SIM_EPSILON`] (for every
/// metric in this crate, exactly).
pub trait Scorer {
    /// Similarity of the prepared user against `v`.
    fn score(&mut self, v: UserId) -> f64;

    /// Scores every candidate in one pass, overwriting `out` with one
    /// similarity per candidate (same order). The node-centric batch
    /// entry point of the graph algorithms: one virtual call per
    /// candidate *list* instead of per candidate, and implementations
    /// keep the prepared reference hot across the whole batch.
    fn score_into(&mut self, candidates: &[UserId], out: &mut Vec<f64>) {
        out.clear();
        out.reserve(candidates.len());
        for &v in candidates {
            out.push(self.score(v));
        }
    }
}

/// The trait-level fallback scorer: pairwise [`crate::Similarity::sim`]
/// per candidate, no preparation. Used by the default
/// [`crate::Similarity::scorer`] implementation so custom metrics work
/// unchanged.
pub struct PairwiseScorer<'a, S: ?Sized> {
    /// The metric scored through.
    pub sim: &'a S,
    /// The dataset profiles come from.
    pub dataset: &'a Dataset,
    /// The reference user.
    pub u: UserId,
}

impl<S: crate::Similarity + ?Sized> Scorer for PairwiseScorer<'_, S> {
    fn score(&mut self, v: UserId) -> f64 {
        self.sim.sim(self.dataset, self.u, v)
    }
}

/// A [`Scorer`] over a [`ProfileScorer`] whose formula needs no fitted
/// state: the common implementation behind the stateless metrics.
pub struct ProfileKindScorer<'a> {
    pub(crate) inner: ProfileScorer<'a>,
    pub(crate) dataset: &'a Dataset,
}

impl Scorer for ProfileKindScorer<'_> {
    fn score(&mut self, v: UserId) -> f64 {
        self.inner.score(self.dataset.user_profile(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile<'a>(items: &'a [u32], ratings: &'a [f32]) -> ProfileRef<'a> {
        ProfileRef { items, ratings }
    }

    /// A reference big enough to trigger the dense path.
    fn big_profile() -> (Vec<u32>, Vec<f32>) {
        let items: Vec<u32> = (0..20).map(|i| i * 3).collect();
        let ratings: Vec<f32> = (0..20).map(|i| 1.0 + (i % 5) as f32).collect();
        (items, ratings)
    }

    #[test]
    fn dense_path_engages_by_degree() {
        let (items, ratings) = big_profile();
        let mut ws = ScorerWorkspace::new();
        assert!(ws
            .prepare(ScoreKind::Cosine, profile(&items, &ratings))
            .is_dense());
        let small = profile(&items[..2], &ratings[..2]);
        assert!(!ws.prepare(ScoreKind::Cosine, small).is_dense());
    }

    #[test]
    fn every_kind_matches_its_pairwise_function() {
        let (a_items, a_ratings) = big_profile();
        let a = profile(&a_items, &a_ratings);
        let b_items: Vec<u32> = vec![0, 3, 7, 12, 30, 57, 100];
        let b_ratings: Vec<f32> = vec![2.0, 1.0, 5.0, 3.0, 4.0, 1.0, 2.0];
        let b = profile(&b_items, &b_ratings);
        type PairwiseFn = fn(ProfileRef<'_>, ProfileRef<'_>) -> f64;
        let cases: [(ScoreKind, PairwiseFn); 6] = [
            (ScoreKind::Cosine, functions::weighted_cosine),
            (ScoreKind::BinaryCosine, functions::binary_cosine),
            (ScoreKind::Jaccard, functions::jaccard),
            (ScoreKind::WeightedJaccard, functions::weighted_jaccard),
            (ScoreKind::Dice, functions::dice),
            (ScoreKind::CommonItems, functions::common_items),
        ];
        let mut ws = ScorerWorkspace::new();
        for (kind, f) in cases {
            // Dense path (high-degree reference).
            let scorer = ws.prepare(kind, a);
            assert_eq!(scorer.score(b), f(a, b), "{kind:?} dense");
            // Fallback path (low-degree reference).
            let small = profile(&a_items[..3], &a_ratings[..3]);
            let scorer = ws.prepare(kind, small);
            assert_eq!(scorer.score(b), f(small, b), "{kind:?} fallback");
        }
    }

    #[test]
    fn candidates_beyond_the_dense_map_score_zero_shared() {
        // b rates items far beyond a's largest: the bounds check must
        // treat them as unshared, not panic.
        let (a_items, a_ratings) = big_profile();
        let a = profile(&a_items, &a_ratings);
        let b_items = [1_000_000u32, 2_000_000];
        let b_ratings = [1.0f32, 1.0];
        let b = profile(&b_items, &b_ratings);
        let mut ws = ScorerWorkspace::new();
        let scorer = ws.prepare(ScoreKind::Jaccard, a);
        assert_eq!(scorer.score(b), 0.0);
    }

    #[test]
    fn reprepared_workspace_forgets_the_old_reference() {
        let (a_items, a_ratings) = big_profile();
        let a = profile(&a_items, &a_ratings);
        let c_items: Vec<u32> = (100..120).collect();
        let c_ratings: Vec<f32> = vec![1.0; 20];
        let c = profile(&c_items, &c_ratings);
        let b = profile(&a_items[..5], &a_ratings[..5]); // shares with a only
        let mut ws = ScorerWorkspace::new();
        let s1 = ws.prepare(ScoreKind::CommonItems, a);
        assert_eq!(s1.score(b), 5.0);
        // After re-preparing with c, a's stamps must be stale.
        let s2 = ws.prepare(ScoreKind::CommonItems, c);
        assert_eq!(s2.score(b), 0.0);
    }

    #[test]
    fn empty_candidate_never_nan() {
        let (a_items, a_ratings) = big_profile();
        let a = profile(&a_items, &a_ratings);
        let e = profile(&[], &[]);
        let mut ws = ScorerWorkspace::new();
        for kind in [
            ScoreKind::Cosine,
            ScoreKind::BinaryCosine,
            ScoreKind::Jaccard,
            ScoreKind::WeightedJaccard,
            ScoreKind::Dice,
            ScoreKind::CommonItems,
        ] {
            let scorer = ws.prepare(kind, a);
            assert_eq!(scorer.score(e), 0.0, "{kind:?}");
        }
    }

    #[test]
    fn telemetry_counts_prepares_and_scores() {
        let registry = kiff_telemetry::Registry::new();
        let (a_items, a_ratings) = big_profile();
        let a = profile(&a_items, &a_ratings);
        let b = profile(&a_items[..3], &a_ratings[..3]);
        let mut ws = ScorerWorkspace::with_telemetry(&registry);
        let scorer = ws.prepare(ScoreKind::Cosine, a);
        let _ = scorer.score(b);
        let _ = scorer.score_cosine(b, b.norm());
        let _ = scorer.score_cosine_with_norms(b, 1.0, 1.0);
        let scorer = ws.prepare(ScoreKind::Jaccard, a);
        let _ = scorer.score(b);
        // Score counts batch per reference: the live workspace still
        // holds the Jaccard reference's tally until flushed.
        ws.flush_telemetry();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("similarity.prepares"), Some(2));
        assert_eq!(snap.counter("similarity.scores"), Some(4));
        // The plain workspace stays uninstrumented.
        let mut plain = ScorerWorkspace::new();
        let scorer = plain.prepare(ScoreKind::Cosine, a);
        let _ = scorer.score(b);
        assert_eq!(
            registry.snapshot().counter("similarity.prepares"),
            Some(2),
            "detached workspace leaked into the registry"
        );
    }

    #[test]
    fn weighted_shared_matches_adamic_adar() {
        let (a_items, a_ratings) = big_profile();
        let a = profile(&a_items, &a_ratings);
        let b_items = [0u32, 3, 57];
        let b_ratings = [1.0f32; 3];
        let b = profile(&b_items, &b_ratings);
        let weights: Vec<f64> = (0..200).map(|i| 1.0 / (i as f64 + 2.0)).collect();
        let mut ws = ScorerWorkspace::new();
        let scorer = ws.prepare(ScoreKind::CommonItems, a);
        assert_eq!(
            scorer.weighted_shared(b, &weights),
            functions::adamic_adar_with(a, b, &weights)
        );
    }
}
