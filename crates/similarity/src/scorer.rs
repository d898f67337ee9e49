//! Prepared similarity scorers: preprocess one profile, score many.
//!
//! KIFF's refinement and the baselines' candidate loops score one
//! *reference* user `u` against a batch of candidates `C` — `refine` pops
//! up to `γ` RCS candidates per user per iteration. The pairwise entry
//! points ([`crate::functions`], [`crate::Similarity::sim`]) rediscover
//! the reference profile on every call: a fresh sorted-merge walk, plus —
//! for cosine — a fresh `O(|UP_u|)` norm pass.
//!
//! This module hoists the per-reference work out of the loop:
//!
//! * [`ScorerWorkspace`] — a reusable (per worker thread) arena: a zeroed
//!   dense map `item → (rating, presence)` of the reference profile,
//!   cleaned up slot-by-slot (`O(|UP_u|)`) between reference users, and
//!   the item walk's scratch (below).
//! * [`ProfileScorer`] — the prepared reference profile. For high-degree
//!   references it stamps the profile into the dense map so each candidate
//!   scores in `O(|UP_v|)` *branchless* lookups (unshared items contribute
//!   exact zero terms); for low-degree references (where a merge/gallop is
//!   already cheap and stamping would dominate) it falls back to the
//!   pairwise kernels unchanged.
//! * [`ScoreKind`] — which metric formula the scorer applies, and
//!   [`finish`], the one copy of the closing formulas.
//! * [`Scorer`] — the object-safe trait [`crate::Similarity::scorer`]
//!   returns, binding a prepared reference to a dataset so graph
//!   algorithms stay generic over the metric.
//! * [`score_candidates`] — the one call every candidate loop makes:
//!   the prepared scorer for a batch of at least [`PREPARED_MIN_BATCH`],
//!   [`PairwiseScorer`] for a smaller one.
//!
//! Scanning reads every candidate's whole profile, `Σ_{v∈C} |UP_v|`
//! entries. KIFF's premise is that in sparse data item profiles are
//! short, so the built-in metrics' [`Scorer::score_into`] may instead walk
//! the other side of the bipartite graph: `u`'s items in ascending order
//! and, in each item row `IP_i`, the raters whose ids lie in the batch's
//! `[min C, max C]` range, adding the metric's shared-item term into the
//! marked candidates; each score is then finished from `O(1)`
//! per-candidate state (degree, fitted norm). A batch walks when that
//! reads fewer entries, `Σ_{i∈UP_u} |IP_i| < Σ_{v∈C} |UP_v|`: both sides
//! are sums of CSR row lengths, known before any score, so there is no
//! constant to tune. Metrics whose closing formula reads the candidate's
//! whole profile (unfitted cosine's norm, weighted Jaccard's rating
//! total) always scan. The online engine's repair walks the same way,
//! from live item profiles (`kiff_online`).
//!
//! Every path reproduces the pairwise functions *exactly*: the same
//! shared-item terms, summed from `0.0` in ascending item order (the
//! walk's outer loop is `u`'s items, ascending), closed by the same
//! formulas, with the same f64 widening. So prepared and pairwise scoring
//! yield bit-identical similarities — the property
//! `tests/counting_scorers.rs` tests, the `counting` and `baselines` bench
//! experiments gate, and debug builds assert on every walked score. The
//! oracle of those comparisons is [`crate::Pairwise`]: a metric wrapper
//! that keeps the default [`crate::Similarity::scorer`], so any algorithm
//! run over it scores pair by pair.

use std::sync::atomic::{AtomicU64, Ordering};

use kiff_dataset::{Dataset, ItemId, ProfileRef, ProfileStats, Rating, UserId};
use kiff_telemetry::{Counter, Registry};

use crate::functions;

/// Reference-profile degree below which stamping is skipped and scoring
/// falls back to the pairwise kernels (a short merge beats the stamp
/// setup; measured in the `counting` bench experiment).
const DENSE_MIN_DEGREE: usize = 8;

/// Candidate-batch size below which [`score_candidates`] skips
/// preparation and scores pairwise instead: preparing (profile stamping +
/// a boxed scorer) only pays for itself across several candidates. Both
/// paths compute identical similarities, so the choice is invisible in
/// the output.
pub const PREPARED_MIN_BATCH: usize = 4;

/// Scores reference user `u` against every candidate, overwriting `out`
/// with one similarity per candidate (same order): the one candidate
/// loop of KIFF's refinement, NN-Descent's local joins, HyRec's pivots,
/// LSH's bucket groups and the exact constructions' rows.
///
/// A batch of at least [`PREPARED_MIN_BATCH`] candidates goes to the
/// metric's prepared scorer ([`crate::Similarity::scorer`], then
/// [`Scorer::score_into`]); a smaller one to [`PairwiseScorer`], one
/// [`crate::Similarity::sim`] per candidate. Either way every candidate
/// counts once in `ws`'s `similarity.scores`. To score pair by pair
/// throughout, run over [`crate::Pairwise`] of the metric.
pub fn score_candidates<S: crate::Similarity + ?Sized>(
    sim: &S,
    dataset: &Dataset,
    u: UserId,
    candidates: &[UserId],
    ws: &mut ScorerWorkspace,
    out: &mut Vec<f64>,
) {
    if candidates.len() >= PREPARED_MIN_BATCH {
        // One boxed scorer per batch: the allocation is amortised over
        // the batch, the price of keeping `Similarity` open for external
        // metrics (no closed enum to dispatch through).
        sim.scorer(dataset, u, ws).score_into(candidates, out);
    } else {
        PairwiseScorer {
            sim,
            dataset,
            u,
            ws,
        }
        .score_into(candidates, out);
    }
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

/// Closes `kind`'s score of a pair from the sum of its shared-item terms
/// — rating products for [`ScoreKind::Cosine`], rating minima for
/// [`ScoreKind::WeightedJaccard`], ones (the shared count) otherwise —
/// and the two profiles' statistics, with the closing formulas of
/// [`crate::functions`]. Only the fields a formula reads need be set:
/// `norm` for cosine, `total` for weighted Jaccard, `len` for the rest.
///
/// The one copy of these formulas: the prepared scan
/// ([`ProfileScorer::score`]), the batch item walk and the online
/// engine's repair all close their scores here. A pair sharing no item
/// scores exactly `0.0`, as every metric does there, so no formula below
/// meets an empty profile.
#[inline]
pub fn finish(kind: ScoreKind, sum: f64, a: ProfileStats, b: ProfileStats) -> f64 {
    if sum == 0.0 {
        return 0.0;
    }
    match kind {
        ScoreKind::Cosine => sum / (a.norm * b.norm),
        ScoreKind::BinaryCosine => sum / ((a.len as f64) * (b.len as f64)).sqrt(),
        ScoreKind::Jaccard => {
            let union = a.len + b.len - sum as usize;
            sum / union as f64
        }
        ScoreKind::WeightedJaccard => {
            let max_sum = a.total + b.total - sum;
            if max_sum == 0.0 {
                0.0
            } else {
                sum / max_sum
            }
        }
        ScoreKind::Dice => 2.0 * sum / (a.len + b.len) as f64,
        ScoreKind::CommonItems => sum,
    }
}

/// Adds `n` to a per-worker tally: a relaxed load/store pair (not an
/// RMW) on a cell only its own worker writes.
#[inline]
fn bump(tally: &AtomicU64, n: usize) {
    tally.store(tally.load(Ordering::Relaxed) + n as u64, Ordering::Relaxed);
}

/// The dense `item → (rating, presence)` map of the current reference
/// profile, in *zeroed* form: slots not touched by the reference read as
/// `(0.0, 0)`, so scoring loops accumulate branchlessly — an unshared
/// item contributes an exact `+0.0` (or `+0`) term, which leaves every
/// metric's sum bit-identical to the pairwise shared-only walk because
/// all contributions are non-negative. Preparing a new reference clears
/// exactly the previously touched slots (the `clear_ids` idiom), so
/// capacity grows to the largest item id seen but per-prepare cost stays
/// `O(|UP_u|)`.
#[derive(Debug, Default)]
struct DenseMap {
    /// Reference rating per item (0.0 when the reference lacks the item).
    rating: Vec<f32>,
    /// 1 when the reference rates the item, else 0.
    present: Vec<u32>,
    /// Items stamped by the current reference, for O(|UP_u|) cleanup.
    dirty: Vec<u32>,
}

/// Scratch of the batch item walk ([`ProfileScorer::walk`]).
#[derive(Debug, Default)]
struct WalkScratch {
    /// Per user id: one plus the candidate's slot in `sums`, or 0 for a
    /// user that is not in the batch. All zero between batches.
    mark: Vec<u32>,
    /// Per distinct candidate, in order of first appearance: the sum of
    /// the pair's shared-item terms.
    sums: Vec<f64>,
    /// One item row's candidate raters, as `(mark, rating)`; grows to the
    /// longest row slice walked.
    hits: Vec<(u32, Rating)>,
}

/// Reusable scoring arena for [`ProfileScorer`], one per worker: the
/// reference's dense map and the item walk's scratch. Neither is
/// allocated per batch; both grow to the largest item and user ids seen.
#[derive(Debug, Default)]
pub struct ScorerWorkspace {
    dense: DenseMap,
    walk: WalkScratch,
    /// `similarity.prepares` / `similarity.scores` / `similarity.walks`
    /// counters (detached no-ops unless wired via
    /// [`ScorerWorkspace::with_telemetry`]).
    prepares: Counter,
    scores: Counter,
    walks: Counter,
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
    /// Walked-candidate tally not yet flushed into `walks`, kept like
    /// `pending_scores`.
    pending_walks: AtomicU64,
}

impl ScorerWorkspace {
    /// An empty workspace; its buffers grow on first use. Prepared
    /// scoring is *not* instrumented — see
    /// [`ScorerWorkspace::with_telemetry`].
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty workspace whose scorers count into `registry`:
    /// `similarity.prepares` increments per prepared reference,
    /// `similarity.scores` per scored candidate and `similarity.walks`
    /// per candidate scored by the item walk. Counts are batched per
    /// reference; holders of a long-lived workspace call
    /// [`ScorerWorkspace::flush_telemetry`] before snapshotting (see
    /// `pending_scores`).
    pub fn with_telemetry(registry: &Registry) -> Self {
        Self {
            dense: DenseMap::default(),
            walk: WalkScratch::default(),
            prepares: registry.counter("similarity.prepares"),
            scores: registry.counter("similarity.scores"),
            walks: registry.counter("similarity.walks"),
            pending_scores: AtomicU64::new(0),
            pending_walks: AtomicU64::new(0),
        }
    }

    /// Publishes the scored- and walked-candidate tallies still pending
    /// into the `similarity.scores` and `similarity.walks` counters. Runs
    /// automatically on the next `prepare` and on drop; engines that keep
    /// a workspace alive across telemetry snapshots call this at batch
    /// end so the exported counters are exact. A no-op (and free) when
    /// nothing is pending or telemetry is not wired.
    pub fn flush_telemetry(&self) {
        for (pending, counter) in [
            (&self.pending_scores, &self.scores),
            (&self.pending_walks, &self.walks),
        ] {
            let n = pending.swap(0, Ordering::Relaxed);
            if n > 0 {
                counter.add(n);
            }
        }
    }

    /// Counts `n` evaluations a caller made without a prepared scorer
    /// (the pairwise path of a candidate loop) into `similarity.scores`,
    /// batched like the prepared scorers' own counts.
    pub fn count_scores(&self, n: usize) {
        bump(&self.pending_scores, n);
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
        let map = &mut self.dense;
        for &i in &map.dirty {
            map.rating[i as usize] = 0.0;
            map.present[i as usize] = 0;
        }
        map.dirty.clear();
        let dense = a.len() >= DENSE_MIN_DEGREE;
        if dense {
            // Items are sorted: the last is the largest, sizing the map.
            let need = *a.items.last().expect("non-empty profile") as usize + 1;
            if map.rating.len() < need {
                map.rating.resize(need, 0.0);
                map.present.resize(need, 0);
            }
            for (item, rating) in a.iter() {
                map.rating[item as usize] = rating;
                map.present[item as usize] = 1;
            }
            map.dirty.extend_from_slice(a.items);
        }
        // Per-reference statistics each formula needs, computed once.
        let total_a = match kind {
            ScoreKind::WeightedJaccard => a.ratings.iter().map(|&r| f64::from(r)).sum(),
            _ => 0.0,
        };
        ProfileScorer {
            dense: dense.then_some(&self.dense),
            walk: &mut self.walk,
            a,
            kind,
            norm_a,
            total_a,
            pending_scores: &self.pending_scores,
            pending_walks: &self.pending_walks,
        }
    }
}

impl Drop for ScorerWorkspace {
    /// Transient workspaces (per-run scratch pools, test locals) publish
    /// their final reference's tallies without an explicit
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
    dense: Option<&'a DenseMap>,
    walk: &'a mut WalkScratch,
    a: ProfileRef<'a>,
    kind: ScoreKind,
    norm_a: f64,
    total_a: f64,
    /// The workspace's unflushed `similarity.scores` / `similarity.walks`
    /// tallies: unsynchronised bumps here, one shared-counter `add` per
    /// reference at flush — never an atomic RMW in the scoring loop.
    pending_scores: &'a AtomicU64,
    pending_walks: &'a AtomicU64,
}

impl ProfileScorer<'_> {
    /// Counts `n` scored candidates into the workspace's tally.
    #[inline]
    pub(crate) fn count(&self, n: usize) {
        bump(self.pending_scores, n);
    }

    /// The prepared reference profile.
    pub fn reference(&self) -> ProfileRef<'_> {
        self.a
    }

    /// Whether the dense-stamp fast path is active (false = pairwise
    /// fallback for a low-degree reference).
    pub fn is_dense(&self) -> bool {
        self.dense.is_some()
    }

    /// `|A ∩ B|` in `O(|UP_v|)` (dense) — identical to
    /// [`crate::intersect_count`] on the same pair.
    #[inline]
    pub fn shared_count(&self, b: ProfileRef<'_>) -> usize {
        match self.dense {
            Some(map) => {
                // Branchless: absent slots read 0.
                let mut shared = 0u32;
                for &item in b.items {
                    shared += map.present.get(item as usize).copied().unwrap_or(0);
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
        match self.dense {
            Some(map) => {
                let mut dot = 0.0f64;
                for (item, rating) in b.iter() {
                    let a_rating = map.rating.get(item as usize).copied().unwrap_or(0.0);
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
        match self.dense {
            Some(map) => {
                let mut min_sum = 0.0f64;
                for (item, rating) in b.iter() {
                    let a_rating = map.rating.get(item as usize).copied().unwrap_or(0.0);
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
        match self.dense {
            Some(map) => {
                let mut sum = 0.0f64;
                for &item in b.items {
                    let i = item as usize;
                    let mask = map.present.get(i).copied().unwrap_or(0);
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
        self.count(1);
        self.scan(b)
    }

    /// Cosine against `b` with an externally supplied `norm_b`, using the
    /// reference norm precomputed at prepare time; matches
    /// [`functions::weighted_cosine`] when `norm_b == b.norm()`. Only
    /// meaningful when prepared with [`ScoreKind::Cosine`].
    #[inline]
    pub fn score_cosine(&self, b: ProfileRef<'_>, norm_b: f64) -> f64 {
        self.score_cosine_with_norms(b, self.norm_a, norm_b)
    }

    /// Cosine with both norms supplied (the fitted [`crate::WeightedCosine`]
    /// path, where the reference norm too comes from the fitted table).
    #[inline]
    pub fn score_cosine_with_norms(&self, b: ProfileRef<'_>, norm_a: f64, norm_b: f64) -> f64 {
        debug_assert_eq!(self.kind, ScoreKind::Cosine, "prepared for {:?}", self.kind);
        self.count(1);
        self.scan_with_norms(b, norm_a, norm_b)
    }

    /// [`ProfileScorer::score`] uncounted: the scan of one candidate.
    #[inline]
    pub(crate) fn scan(&self, b: ProfileRef<'_>) -> f64 {
        let norm_b = match self.kind {
            ScoreKind::Cosine => b.norm(),
            _ => 0.0,
        };
        self.scan_with_norms(b, self.norm_a, norm_b)
    }

    /// The scan of one candidate with the cosine norms supplied (read by
    /// [`ScoreKind::Cosine`] only): the shared-term sum over `b`'s
    /// profile, closed by [`finish`].
    #[inline]
    pub(crate) fn scan_with_norms(&self, b: ProfileRef<'_>, norm_a: f64, norm_b: f64) -> f64 {
        let (sum, total_b) = match self.kind {
            ScoreKind::Cosine => (self.dot(b), 0.0),
            ScoreKind::WeightedJaccard => (
                self.min_sum(b),
                b.ratings.iter().map(|&r| f64::from(r)).sum(),
            ),
            _ => (self.shared_count(b) as f64, 0.0),
        };
        let a = ProfileStats {
            len: self.a.len(),
            norm: norm_a,
            total: self.total_a,
        };
        let b = ProfileStats {
            len: b.len(),
            norm: norm_b,
            total: total_b,
        };
        finish(self.kind, sum, a, b)
    }

    /// Scores every candidate with `scan`, which does not count: the
    /// batch is counted once.
    pub(crate) fn scan_batch(
        &self,
        candidates: &[UserId],
        out: &mut Vec<f64>,
        scan: impl Fn(&Self, UserId) -> f64,
    ) {
        self.count(candidates.len());
        out.clear();
        out.extend(candidates.iter().map(|&v| scan(self, v)));
    }

    /// The batch path of the built-in metrics that can walk: scores
    /// `candidates` into `out` (one similarity per position) by walking
    /// the reference's item rows when that reads fewer entries than
    /// scanning (see [`ProfileScorer::walk_is_cheaper`]), and with `scan`
    /// otherwise.
    ///
    /// A walk adds `term(i, ρ(u, i), ρ(v, i))` per shared item `i` and
    /// closes each score with `finish(sum, v)`, which must read only
    /// `O(1)` state of `v`. Debug builds assert that every walked score
    /// equals `scan`'s, bit for bit.
    pub(crate) fn score_batch(
        &mut self,
        dataset: &Dataset,
        candidates: &[UserId],
        out: &mut Vec<f64>,
        term: impl Fn(ItemId, Rating, Rating) -> f64,
        finish: impl Fn(f64, UserId) -> f64,
        scan: impl Fn(&Self, UserId) -> f64,
    ) {
        if !self.walk_is_cheaper(dataset, candidates) {
            return self.scan_batch(candidates, out, scan);
        }
        self.walk(dataset, candidates, out, term);
        for (s, &v) in out.iter_mut().zip(candidates) {
            *s = finish(*s, v);
        }
        if cfg!(debug_assertions) {
            for (&v, &s) in candidates.iter().zip(out.iter()) {
                let scanned = scan(self, v);
                assert_eq!(
                    s.to_bits(),
                    scanned.to_bits(),
                    "{:?}: walked score {s} of candidate {v} drifted from the scan's {scanned}",
                    self.kind
                );
            }
        }
        self.count(candidates.len());
        bump(self.pending_walks, candidates.len());
    }

    /// Whether walking the reference's item rows reads fewer entries than
    /// scanning the candidates' profiles: `Σ_{i∈UP_u} |IP_i| <
    /// Σ_{v∈C} |UP_v|`. Both sides are CSR row lengths; the first is
    /// summed only until it reaches the second.
    fn walk_is_cheaper(&self, dataset: &Dataset, candidates: &[UserId]) -> bool {
        let scan: usize = candidates.iter().map(|&v| dataset.user_degree(v)).sum();
        let items = dataset.item_profiles();
        let mut walk = 0;
        for &i in self.a.items {
            walk += items.degree(i);
            if walk >= scan {
                return false;
            }
        }
        walk < scan
    }

    /// Writes into `out`, per candidate position, the sum of
    /// `term(i, ρ(u, i), ρ(v, i))` over the items `i` the reference `u`
    /// shares with candidate `v`, summed from `0.0` in ascending item
    /// order. The batch may hold ids in any order, repeated ids and `u`
    /// itself.
    ///
    /// The outer loop is `u`'s items, ascending. Item rows are sorted by
    /// user id, so each row's raters in the batch's `[min C, max C]` range
    /// are one slice, found by two binary searches. About as many of them
    /// miss the batch as hit it, too many for a branch on the mark to
    /// predict. So each slice is first compacted into `hits` without a
    /// branch: every rater is written at the next free slot, which only a
    /// candidate claims. The candidates' terms are then added in a
    /// second, branch-free loop. A candidate rates an item at most once,
    /// so the order within an item is free.
    fn walk(
        &mut self,
        dataset: &Dataset,
        candidates: &[UserId],
        out: &mut Vec<f64>,
        term: impl Fn(ItemId, Rating, Rating) -> f64,
    ) {
        let WalkScratch { mark, sums, hits } = &mut *self.walk;
        if mark.len() < dataset.num_users() {
            mark.resize(dataset.num_users(), 0);
        }
        sums.clear();
        let (mut lo, mut hi) = (UserId::MAX, 0);
        for &v in candidates {
            let slot = &mut mark[v as usize];
            if *slot == 0 {
                sums.push(0.0);
                *slot = sums.len() as u32;
            }
            lo = lo.min(v);
            hi = hi.max(v);
        }
        let items = dataset.item_profiles();
        for (i, rating_u) in self.a.iter() {
            let (raters, ratings) = items.row_entries(i);
            let start = raters.partition_point(|&v| v < lo);
            let end = start + raters[start..].partition_point(|&v| v <= hi);
            if hits.len() < end - start {
                hits.resize(end - start, (0, 0.0));
            }
            let mut n = 0;
            for (&v, &rating_v) in raters[start..end].iter().zip(&ratings[start..end]) {
                let slot = mark[v as usize];
                hits[n] = (slot, rating_v);
                n += usize::from(slot != 0);
            }
            for &(slot, rating_v) in &hits[..n] {
                sums[slot as usize - 1] += term(i, rating_u, rating_v);
            }
        }
        out.clear();
        out.extend(
            candidates
                .iter()
                .map(|&v| sums[mark[v as usize] as usize - 1]),
        );
        for &v in candidates {
            mark[v as usize] = 0;
        }
    }
}

/// A similarity scorer prepared for one reference user of a dataset.
///
/// Returned by [`crate::Similarity::scorer`]; [`Scorer::score`] and
/// [`Scorer::score_into`] equal `sim.sim(dataset, u, v)` within
/// [`crate::SIM_EPSILON`] (for every metric in this crate, bit for bit).
pub trait Scorer {
    /// Similarity of the prepared user against `v`.
    fn score(&mut self, v: UserId) -> f64;

    /// Scores every candidate in one pass, overwriting `out` with one
    /// similarity per candidate (same order). The node-centric batch
    /// entry point of the graph algorithms: one virtual call per
    /// candidate *list* instead of per candidate. The batch may hold ids
    /// in any order, repeated ids and the reference itself.
    ///
    /// The default scores each candidate through [`Scorer::score`]. The
    /// built-in metrics' scorers score the batch along whichever side of
    /// the bipartite graph reads fewer entries: each candidate's profile
    /// (`Σ_{v∈C} |UP_v|` entries), or the reference's item rows
    /// (`Σ_{i∈UP_u} |IP_i|`) — see the module docs. The choice reads the
    /// item rows' lengths from [`Dataset::item_profiles`], which the
    /// first batch builds and caches when no caller has. Unfitted cosine
    /// and weighted Jaccard always scan.
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
/// unchanged, and by [`score_candidates`] for a batch too small to
/// prepare for.
pub struct PairwiseScorer<'a, S: ?Sized> {
    /// The metric scored through.
    pub sim: &'a S,
    /// The dataset profiles come from.
    pub dataset: &'a Dataset,
    /// The reference user.
    pub u: UserId,
    /// The workspace whose `similarity.scores` tally counts the scores.
    pub ws: &'a ScorerWorkspace,
}

impl<S: crate::Similarity + ?Sized> Scorer for PairwiseScorer<'_, S> {
    fn score(&mut self, v: UserId) -> f64 {
        self.ws.count_scores(1);
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

    fn score_into(&mut self, candidates: &[UserId], out: &mut Vec<f64>) {
        let dataset = self.dataset;
        let scan = |s: &ProfileScorer<'_>, v| s.scan(dataset.user_profile(v));
        let kind = self.inner.kind;
        if matches!(kind, ScoreKind::Cosine | ScoreKind::WeightedJaccard) {
            // Their closing formulas read the candidate's whole profile
            // (its norm, its rating total): a walk would save nothing.
            return self.inner.scan_batch(candidates, out, scan);
        }
        // The rest close on the shared count and the two degrees.
        let a = ProfileStats {
            len: self.inner.a.len(),
            norm: 0.0,
            total: 0.0,
        };
        self.inner.score_batch(
            dataset,
            candidates,
            out,
            |_, _, _| 1.0,
            |shared, v| {
                let b = ProfileStats {
                    len: dataset.user_degree(v),
                    norm: 0.0,
                    total: 0.0,
                };
                finish(kind, shared, a, b)
            },
            scan,
        );
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

    /// Users 0 and 3 rate a few items; 1 and 5 rate all 13; 2 rates all
    /// but item 0; 4 rates nothing. Item 0's row is short (four raters),
    /// the others long.
    fn walk_dataset() -> Dataset {
        let mut b = kiff_dataset::DatasetBuilder::new("walk", 6, 13);
        b.add_rating(0, 0, 2.0);
        for i in 0..13 {
            let rating = 1.0 + (i % 4) as f32 * 0.5;
            b.add_rating(1, i, rating);
            b.add_rating(5, i, 5.0 - rating);
            if i > 0 {
                b.add_rating(2, i, rating + 0.5);
            }
        }
        b.add_rating(3, 0, 4.5);
        b.add_rating(3, 5, 1.0);
        b.build()
    }

    /// Scores `batch` against `u` through `score_into` on a counted
    /// workspace: the scores and the number of candidates walked.
    fn walked_batch(
        sim: &dyn crate::Similarity,
        ds: &Dataset,
        u: UserId,
        batch: &[UserId],
    ) -> (Vec<f64>, u64) {
        let registry = Registry::new();
        let mut ws = ScorerWorkspace::with_telemetry(&registry);
        let mut out = vec![f64::NAN; 3];
        sim.scorer(ds, u, &mut ws).score_into(batch, &mut out);
        ws.flush_telemetry();
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("similarity.scores"),
            Some(batch.len() as u64),
            "{}: every candidate counts once",
            sim.name()
        );
        (out, snap.counter("similarity.walks").unwrap_or(0))
    }

    #[test]
    fn batches_walk_when_item_rows_are_shorter_and_scan_otherwise() {
        use crate::metrics::*;
        let ds = walk_dataset();
        let fitted = WeightedCosine::fit(&ds);
        let unfitted = WeightedCosine::new();
        let aa = AdamicAdar::fit(&ds);
        // Each metric with whether its scorer can walk: the unfitted
        // cosine and weighted Jaccard close on whole-profile state.
        let metrics: [(&dyn crate::Similarity, bool); 8] = [
            (&fitted, true),
            (&BinaryCosine, true),
            (&Jaccard, true),
            (&Dice, true),
            (&CommonItems, true),
            (&aa, true),
            (&unfitted, false),
            (&WeightedJaccard, false),
        ];
        // User 0's walk reads item 0's four raters; scanning this batch
        // reads 54 profile entries. It holds unsorted and repeated ids,
        // the reference, a user sharing nothing (2) and an empty one (4).
        let walk_batch = [5, 1, 0, 3, 4, 2, 1];
        // User 1's walk reads 41 rater entries; scanning reads 4.
        let scan_batch = [0, 3, 4, 0];
        // The empty user's walk reads nothing.
        let empty_batch = [0, 1, 4];
        let cases = [
            (0, &walk_batch[..]),
            (1, &scan_batch[..]),
            (4, &empty_batch[..]),
        ];
        for (sim, can_walk) in metrics {
            for (u, batch) in cases {
                let (scores, walked) = walked_batch(sim, &ds, u, batch);
                let expect_walk = can_walk && u != 1;
                assert_eq!(
                    walked,
                    if expect_walk { batch.len() as u64 } else { 0 },
                    "{} reference {u}",
                    sim.name()
                );
                assert_eq!(scores.len(), batch.len());
                for (&v, &s) in batch.iter().zip(&scores) {
                    assert_eq!(
                        s.to_bits(),
                        sim.sim(&ds, u, v).to_bits(),
                        "{}: ({u}, {v})",
                        sim.name()
                    );
                }
            }
        }
    }

    #[test]
    fn finish_closes_every_kind_like_its_pairwise_function() {
        let (a_items, a_ratings) = big_profile();
        let a = profile(&a_items, &a_ratings);
        let b_items: Vec<u32> = vec![0, 3, 7, 12, 30, 57, 100];
        let b_ratings: Vec<f32> = vec![2.0, 1.0, 5.0, 3.0, 4.5, 1.0, 2.0];
        let b = profile(&b_items, &b_ratings);
        let e = profile(&[], &[]);
        let stats = |p: ProfileRef<'_>| ProfileStats {
            len: p.len(),
            norm: p.norm(),
            total: p.ratings.iter().map(|&r| f64::from(r)).sum(),
        };
        type PairwiseFn = fn(ProfileRef<'_>, ProfileRef<'_>) -> f64;
        let cases: [(ScoreKind, PairwiseFn); 6] = [
            (ScoreKind::Cosine, functions::weighted_cosine),
            (ScoreKind::BinaryCosine, functions::binary_cosine),
            (ScoreKind::Jaccard, functions::jaccard),
            (ScoreKind::WeightedJaccard, functions::weighted_jaccard),
            (ScoreKind::Dice, functions::dice),
            (ScoreKind::CommonItems, functions::common_items),
        ];
        for (kind, f) in cases {
            let mut ws = ScorerWorkspace::new();
            // The shared-term sum the scan computes, closed by `finish`.
            let sum = match kind {
                ScoreKind::Cosine => ws.prepare(kind, a).dot(b),
                ScoreKind::WeightedJaccard => ws.prepare(kind, a).min_sum(b),
                _ => ws.prepare(kind, a).shared_count(b) as f64,
            };
            assert_eq!(
                finish(kind, sum, stats(a), stats(b)).to_bits(),
                f(a, b).to_bits(),
                "{kind:?}"
            );
            assert_eq!(finish(kind, 0.0, stats(a), stats(e)), f(a, e), "{kind:?}");
            assert_eq!(finish(kind, 0.0, stats(e), stats(e)), f(e, e), "{kind:?}");
        }
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
