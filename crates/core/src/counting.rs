//! The counting phase: item profiles and Ranked Candidate Sets
//! (Algorithm 1, lines 1–4).
//!
//! [`build_rcs`] assembles the flat CSR layout in two parallel passes
//! with zero per-user allocation:
//!
//! 1. **Size** — each worker counts every user's distinct co-raters
//!    (post pivot/threshold filters, capped by `max_rcs`) with an
//!    epoch-stamped [`DenseCounter`]; lengths land in a shared array
//!    through disjoint chunk ranges.
//! 2. **Write** — a serial prefix sum turns lengths into CSR offsets,
//!    then workers count each user's candidates in a dense counter, rank
//!    them by a counting sort over multiplicities and write ids (and
//!    counts) *directly* into their final `[offsets[u], offsets[u+1])`
//!    slots of the shared output — no per-user `Vec`, no chunk merge, no
//!    flatten copy.
//!
//! [`CountStrategy::Reference`] swaps both passes for the counting oracle
//! (gather → sort → per-user `Vec` → flatten), the bit-for-bit yardstick
//! of the agreement tests and the baseline the `counting` bench
//! experiment measures the dense path against.

use std::time::Instant;

use kiff_collections::{count_sorted_runs, Csr, DenseCounter};
use kiff_dataset::{Dataset, UserId};
use kiff_parallel::{effective_threads, parallel_fold, SharedSlice};

use crate::config::CountStrategy;

mod reference;

/// Scheduling grain of both counting passes (users per work unit).
const GRAIN: usize = 32;

/// Options for RCS construction.
#[derive(Debug, Clone)]
pub struct CountingConfig {
    /// Restrict each RCS to ids greater than the owner (the pivot strategy
    /// of §II-D, halving memory and ensuring each pair is evaluated once).
    /// Disable to obtain the full per-user candidate ranking of §II-C
    /// (used by Table VII's top-k-from-RCS initialisation and Fig. 7).
    pub pivot: bool,
    /// Keep the shared-item counts next to the ids. The refinement phase
    /// only needs the order ("plain ordered lists, without multiplicity
    /// information", §III-C), so the default drops them; the statistics
    /// experiments keep them.
    pub keep_counts: bool,
    /// Worker threads (`None` = all available).
    pub threads: Option<usize>,
    /// Counting path: the dense counter, or the reference oracle.
    pub strategy: CountStrategy,
    /// The paper's future-work heuristic (§VII): only ratings at or above
    /// this threshold contribute candidates — "a naive threshold on
    /// multiple-ratings to insert, in the ranked candidate sets, only those
    /// users who have positively rated items, reduces the RCSs' size and
    /// improves the performance". `None` keeps every rating (the paper's
    /// evaluated configuration).
    pub rating_threshold: Option<f32>,
    /// The other §VII-style insertion limit: cap every RCS at its top
    /// entries by shared-item count. Bounds both memory (`Σ|RCS| ≤ cap·|U|`)
    /// and, through §III-D, the scan rate — at the cost of never
    /// considering candidates ranked below the cap. `None` keeps full RCSs
    /// (the paper's evaluated configuration).
    pub max_rcs: Option<usize>,
}

impl Default for CountingConfig {
    fn default() -> Self {
        Self {
            pivot: true,
            keep_counts: false,
            threads: None,
            strategy: CountStrategy::Dense,
            rating_threshold: None,
            max_rcs: None,
        }
    }
}

/// The Ranked Candidate Sets of all users, flattened.
///
/// `rcs(u)` lists every co-rater of `u` (ids `> u` under the pivot
/// strategy), ordered by decreasing shared-item count, ties by ascending
/// id. With `keep_counts`, `counts(u)` is parallel to `rcs(u)`.
#[derive(Debug, Clone)]
pub struct RankedCandidates {
    offsets: Vec<usize>,
    ids: Box<[u32]>,
    counts: Option<Box<[u32]>>,
    /// Wall time spent building (reported in Table V).
    pub build_time: std::time::Duration,
}

impl RankedCandidates {
    /// Number of users covered.
    pub fn num_users(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The ranked candidate list of `u`.
    #[inline]
    pub fn rcs(&self, u: UserId) -> &[u32] {
        let u = u as usize;
        &self.ids[self.offsets[u]..self.offsets[u + 1]]
    }

    /// Shared-item counts parallel to [`RankedCandidates::rcs`], when kept.
    pub fn counts(&self, u: UserId) -> Option<&[u32]> {
        self.counts.as_ref().map(|c| {
            let u = u as usize;
            &c[self.offsets[u]..self.offsets[u + 1]]
        })
    }

    /// `|RCS_u|`.
    #[inline]
    pub fn len(&self, u: UserId) -> usize {
        let u = u as usize;
        self.offsets[u + 1] - self.offsets[u]
    }

    /// True when every RCS is empty.
    pub fn is_empty(&self) -> bool {
        self.total() == 0
    }

    /// `Σ_u |RCS_u|` — the hard bound on similarity evaluations (§III-D).
    pub fn total(&self) -> usize {
        *self.offsets.last().expect("offsets non-empty")
    }

    /// Average RCS length (Table V / Table IX).
    pub fn avg_len(&self) -> f64 {
        if self.num_users() == 0 {
            0.0
        } else {
            self.total() as f64 / self.num_users() as f64
        }
    }

    /// All RCS sizes (Fig. 6's CCDF input).
    pub fn sizes(&self) -> Vec<usize> {
        (0..self.num_users() as u32).map(|u| self.len(u)).collect()
    }

    /// The maximum scan rate these RCSs can induce:
    /// `2·avg|RCS| / (|U| − 1)` (Table V).
    pub fn max_scan_rate(&self) -> f64 {
        let n = self.num_users();
        if n <= 1 {
            0.0
        } else {
            2.0 * self.avg_len() / (n as f64 - 1.0)
        }
    }
}

/// The full (unpivoted) ranked candidate set of one user, computed from
/// the item profiles: every co-rater of `u` with its shared-item count,
/// in RCS order. This is Algorithm 1 line 4 for a single user — the
/// reference the `kiff-online` engine's incrementally maintained
/// counters are audited against.
pub fn user_candidate_counts(dataset: &Dataset, u: UserId) -> Vec<(u32, u32)> {
    let items = dataset.item_profiles();
    let mut gathered = Vec::new();
    for &item in dataset.user_profile(u).items {
        gathered.extend(items.row(item).iter().copied().filter(|&v| v != u));
    }
    count_sorted_runs(&mut gathered)
}

/// Visits every RCS candidate of `u` — the multiset union
/// `⊎_{i ∈ UP_u} {v ∈ IP_i}` after the pivot / rating-threshold filters —
/// exactly once per occurrence. The shared gather kernel of both counting
/// passes and of the reference pipeline.
#[inline]
fn for_each_candidate(
    dataset: &Dataset,
    items: &Csr,
    u: u32,
    pivot: bool,
    threshold: Option<f32>,
    mut visit: impl FnMut(u32),
) {
    match threshold {
        None => {
            for &item in dataset.user_profile(u).items {
                let co_raters = items.row(item);
                if pivot {
                    // Rows are sorted: co-raters > u form a suffix.
                    let from = co_raters.partition_point(|&v| v <= u);
                    for &v in &co_raters[from..] {
                        visit(v);
                    }
                } else {
                    for &v in co_raters {
                        if v != u {
                            visit(v);
                        }
                    }
                }
            }
        }
        Some(t) => {
            // §VII heuristic: only positively rated edges (on both
            // endpoints) contribute candidates.
            for (item, rating) in dataset.user_profile(u).iter() {
                if rating < t {
                    continue;
                }
                let (co_raters, weights) = items.row_entries(item);
                for (&v, &w) in co_raters.iter().zip(weights) {
                    if w >= t && ((pivot && v > u) || (!pivot && v != u)) {
                        visit(v);
                    }
                }
            }
        }
    }
}

/// Builds the Ranked Candidate Sets of `dataset`.
///
/// For each user `u`, the multiset union `⊎_{i ∈ UP_u} {v ∈ IP_i | v > u}`
/// is counted (line 4 of Algorithm 1) and ranked by multiplicity. Work is
/// parallel over users in two flat-CSR passes (see the module docs); item
/// profiles must already be available (they are built on first access and
/// their cost is accounted separately, matching Table IV vs Table V).
pub fn build_rcs(dataset: &Dataset, config: &CountingConfig) -> RankedCandidates {
    if config.strategy == CountStrategy::Reference {
        return reference::build_rcs(dataset, config);
    }
    let start = Instant::now();
    let n = dataset.num_users();
    let items = dataset.item_profiles();
    let threads = effective_threads(config.threads);
    let pivot = config.pivot;
    let threshold = config.rating_threshold;
    let cap = config.max_rcs.unwrap_or(usize::MAX);

    // Pass 1: size every RCS — distinct co-raters post filters, capped.
    // Lengths land in a shared array through disjoint chunk ranges.
    let mut lens = vec![0u32; n];
    {
        let lens_out = SharedSlice::new(&mut lens);
        parallel_fold(
            threads,
            n,
            GRAIN,
            // Mark-only sizing: stamps alone, 4 bytes per user per worker.
            || DenseCounter::with_stamp_capacity(n),
            |counter, range| {
                // SAFETY: the pool hands out disjoint ranges.
                let out = unsafe { lens_out.slice_mut(range.start, range.len()) };
                for (u, slot) in range.zip(out.iter_mut()) {
                    counter.begin();
                    let mut distinct = 0usize;
                    for_each_candidate(dataset, items, u as u32, pivot, threshold, |v| {
                        distinct += counter.mark(v) as usize;
                    });
                    *slot = distinct.min(cap) as u32;
                }
            },
            |a, _| a,
        );
    }

    // Serial prefix sum: lengths become CSR offsets.
    let mut offsets = Vec::with_capacity(n + 1);
    let mut running = 0usize;
    offsets.push(0);
    for &len in &lens {
        running += len as usize;
        offsets.push(running);
    }
    let total = running;

    // Pass 2: rank every user's candidates and write ids (and counts)
    // directly into their final flat slots.
    let mut ids = vec![0u32; total];
    let mut counts = config.keep_counts.then(|| vec![0u32; total]);
    {
        let ids_out = SharedSlice::new(&mut ids);
        let counts_out = counts.as_mut().map(|c| SharedSlice::new(c.as_mut_slice()));
        let offsets = &offsets;
        parallel_fold(
            threads,
            n,
            GRAIN,
            // Pre-sized to the user universe: no growth re-checks in the
            // hot loop.
            || DenseCounter::with_capacity(n),
            |counter, range| {
                for u in range {
                    let off = offsets[u];
                    let len = offsets[u + 1] - off;
                    if len == 0 {
                        continue;
                    }
                    // SAFETY: `[off, off + len)` belongs to user `u` alone.
                    let ids_slice = unsafe { ids_out.slice_mut(off, len) };
                    let counts_slice = counts_out
                        .as_ref()
                        .map(|c| unsafe { c.slice_mut(off, len) });
                    counter.begin();
                    for_each_candidate(dataset, items, u as u32, pivot, threshold, |v| {
                        counter.add(v)
                    });
                    let written = counter.emit_ranked(len, ids_slice, counts_slice);
                    debug_assert_eq!(written, len, "pass-1/pass-2 size mismatch");
                }
            },
            |a, _| a,
        );
    }

    RankedCandidates {
        offsets,
        ids: ids.into_boxed_slice(),
        counts: counts.map(Vec::into_boxed_slice),
        build_time: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kiff_dataset::dataset::figure2_toy;
    use kiff_dataset::generators::bipartite::{generate_bipartite, BipartiteConfig};
    use kiff_similarity::intersect_count;

    fn counted(pivot: bool) -> CountingConfig {
        CountingConfig {
            pivot,
            keep_counts: true,
            threads: Some(1),
            ..Default::default()
        }
    }

    #[test]
    fn toy_pivot_rcs() {
        let ds = figure2_toy();
        let rcs = build_rcs(&ds, &counted(true));
        // Alice(0) shares coffee with Bob(1); pivot keeps 1 > 0.
        assert_eq!(rcs.rcs(0), &[1]);
        assert_eq!(rcs.counts(0).unwrap(), &[1]);
        // Bob's only co-rater is Alice (0 < 1): pruned by the pivot.
        assert_eq!(rcs.rcs(1), &[] as &[u32]);
        // Carl(2) shares shopping with Dave(3).
        assert_eq!(rcs.rcs(2), &[3]);
        assert_eq!(rcs.rcs(3), &[] as &[u32]);
        assert_eq!(rcs.total(), 2);
    }

    #[test]
    fn toy_unpivoted_rcs_is_symmetric() {
        let ds = figure2_toy();
        let rcs = build_rcs(&ds, &counted(false));
        assert_eq!(rcs.rcs(0), &[1]);
        assert_eq!(rcs.rcs(1), &[0]);
        assert_eq!(rcs.rcs(2), &[3]);
        assert_eq!(rcs.rcs(3), &[2]);
    }

    #[test]
    fn counts_match_brute_force_intersections() {
        let ds = generate_bipartite(&BipartiteConfig::tiny("rcs", 3));
        let rcs = build_rcs(&ds, &counted(true));
        for u in 0..ds.num_users() as u32 {
            let ids = rcs.rcs(u);
            let counts = rcs.counts(u).unwrap();
            for (&v, &c) in ids.iter().zip(counts) {
                assert!(v > u, "pivot violated: {v} <= {u}");
                let expected = intersect_count(ds.user_profile(u).items, ds.user_profile(v).items);
                assert_eq!(c as usize, expected, "pair ({u}, {v})");
            }
        }
    }

    #[test]
    fn rcs_covers_every_sharing_pair_exactly_once() {
        let ds = generate_bipartite(&BipartiteConfig::tiny("cover", 5));
        let rcs = build_rcs(&ds, &counted(true));
        let n = ds.num_users() as u32;
        let mut covered = std::collections::HashSet::new();
        for u in 0..n {
            for &v in rcs.rcs(u) {
                assert!(covered.insert((u, v)), "pair ({u},{v}) appears twice");
            }
        }
        for u in 0..n {
            for v in (u + 1)..n {
                let shares =
                    intersect_count(ds.user_profile(u).items, ds.user_profile(v).items) > 0;
                assert_eq!(covered.contains(&(u, v)), shares, "pair ({u},{v})");
            }
        }
    }

    #[test]
    fn ordering_is_count_desc_then_id_asc() {
        let ds = generate_bipartite(&BipartiteConfig::tiny("order", 7));
        let rcs = build_rcs(&ds, &counted(true));
        for u in 0..ds.num_users() as u32 {
            let ids = rcs.rcs(u);
            let counts = rcs.counts(u).unwrap();
            for w in 0..counts.len().saturating_sub(1) {
                let (c0, c1) = (counts[w], counts[w + 1]);
                assert!(
                    c0 > c1 || (c0 == c1 && ids[w] < ids[w + 1]),
                    "user {u}: ({}, {}) before ({}, {})",
                    ids[w],
                    c0,
                    ids[w + 1],
                    c1
                );
            }
        }
    }

    /// Builds `config` on the dense path and on the reference oracle and
    /// asserts identical offsets, ids and counts.
    fn assert_dense_matches_reference(ds: &Dataset, config: &CountingConfig, label: &str) {
        let on = |strategy| {
            build_rcs(
                ds,
                &CountingConfig {
                    strategy,
                    ..config.clone()
                },
            )
        };
        let dense = on(CountStrategy::Dense);
        let reference = on(CountStrategy::Reference);
        assert_eq!(dense.offsets, reference.offsets, "{label}");
        assert_eq!(dense.ids, reference.ids, "{label}");
        assert_eq!(dense.counts, reference.counts, "{label}");
    }

    #[test]
    fn strategies_agree() {
        let ds = generate_bipartite(&BipartiteConfig::tiny("strat", 11));
        assert_dense_matches_reference(&ds, &counted(true), "one thread");
        let threaded = CountingConfig {
            threads: Some(3),
            ..counted(true)
        };
        assert_dense_matches_reference(&ds, &threaded, "three threads");
    }

    #[test]
    fn flat_assembly_matches_the_reference_pipeline() {
        for seed in [11, 19, 23] {
            let ds = generate_bipartite(&BipartiteConfig::tiny("ref", seed));
            for max_rcs in [None, Some(5)] {
                for pivot in [true, false] {
                    let config = CountingConfig {
                        max_rcs,
                        ..counted(pivot)
                    };
                    let label = format!("seed {seed} cap {max_rcs:?} pivot {pivot}");
                    assert_dense_matches_reference(&ds, &config, &label);
                }
            }
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let ds = generate_bipartite(&BipartiteConfig::tiny("par", 13));
        let seq = build_rcs(&ds, &counted(true));
        let par = build_rcs(
            &ds,
            &CountingConfig {
                threads: Some(8),
                ..counted(true)
            },
        );
        for u in 0..ds.num_users() as u32 {
            assert_eq!(seq.rcs(u), par.rcs(u));
        }
    }

    #[test]
    fn statistics_are_consistent() {
        let ds = generate_bipartite(&BipartiteConfig::tiny("stats", 17));
        let rcs = build_rcs(&ds, &counted(true));
        let sizes = rcs.sizes();
        assert_eq!(sizes.iter().sum::<usize>(), rcs.total());
        assert!((rcs.avg_len() - rcs.total() as f64 / sizes.len() as f64).abs() < 1e-12);
        let n = rcs.num_users() as f64;
        assert!((rcs.max_scan_rate() - 2.0 * rcs.avg_len() / (n - 1.0)).abs() < 1e-12);
    }

    #[test]
    fn stripped_rcs_drops_counts() {
        let ds = figure2_toy();
        let rcs = build_rcs(&ds, &CountingConfig::default());
        assert!(rcs.counts(0).is_none());
        assert_eq!(rcs.rcs(0), &[1]);
    }

    #[test]
    fn max_rcs_caps_every_list_at_the_best_entries() {
        let ds = generate_bipartite(&BipartiteConfig::tiny("cap", 19));
        let full = build_rcs(&ds, &counted(true));
        let capped = build_rcs(
            &ds,
            &CountingConfig {
                max_rcs: Some(5),
                ..counted(true)
            },
        );
        assert!(full.total() > capped.total(), "cap had no effect");
        for u in 0..ds.num_users() as u32 {
            assert!(capped.len(u) <= 5, "user {u}: {}", capped.len(u));
            // The kept entries are exactly the full list's prefix (same
            // count-desc, id-asc order).
            assert_eq!(capped.rcs(u), &full.rcs(u)[..capped.len(u)]);
        }
    }

    #[test]
    fn generous_cap_is_a_no_op() {
        let ds = figure2_toy();
        let full = build_rcs(&ds, &counted(true));
        let capped = build_rcs(
            &ds,
            &CountingConfig {
                max_rcs: Some(1000),
                ..counted(true)
            },
        );
        for u in 0..ds.num_users() as u32 {
            assert_eq!(full.rcs(u), capped.rcs(u));
        }
    }

    #[test]
    fn capped_kiff_trades_recall_for_scan_rate() {
        use crate::{Kiff, KiffConfig};
        use kiff_graph::{exact_knn, recall};
        use kiff_similarity::WeightedCosine;

        let ds = generate_bipartite(&BipartiteConfig::tiny("capk", 21));
        let sim = WeightedCosine::fit(&ds);
        let exact = exact_knn(&ds, &sim, 5, Some(1));
        let full = Kiff::new(KiffConfig::new(5)).run(&ds, &sim);
        let capped = Kiff::new(KiffConfig::new(5).with_max_rcs(32)).run(&ds, &sim);
        // Cap 32 on this workload: scan rate falls ~2.4× (0.38 → 0.16).
        assert!(
            capped.stats.scan_rate < 0.5 * full.stats.scan_rate,
            "capped {} !< half of full {}",
            capped.stats.scan_rate,
            full.stats.scan_rate
        );
        // The cap keeps the *best* candidates, so recall degrades
        // gracefully (0.755 here), not catastrophically.
        let r = recall(&exact, &capped.graph);
        assert!(r > 0.7, "capped recall = {r}");
        assert!(recall(&exact, &full.graph) >= r);
    }

    #[test]
    fn rating_threshold_prunes_low_ratings() {
        // §VII heuristic: u0 and u1 share item 0, but u1 rated it below
        // the threshold, so the pair is pruned; u0 and u2 share item 1
        // with high ratings on both sides and survive.
        let mut b = kiff_dataset::DatasetBuilder::new("thr", 3, 2);
        b.add_rating(0, 0, 5.0);
        b.add_rating(0, 1, 4.0);
        b.add_rating(1, 0, 1.0); // low rating
        b.add_rating(2, 1, 5.0);
        let ds = b.build();
        let full = build_rcs(&ds, &counted(true));
        assert_eq!(full.rcs(0), &[1, 2]);
        let pruned = build_rcs(
            &ds,
            &CountingConfig {
                rating_threshold: Some(3.0),
                ..counted(true)
            },
        );
        assert_eq!(pruned.rcs(0), &[2]);
        assert!(pruned.total() < full.total());
    }

    #[test]
    fn rating_threshold_strategies_agree() {
        let cfg = BipartiteConfig {
            rating_model: kiff_dataset::generators::RatingModel::Stars { half_steps: false },
            user_degree_min: 20,
            ..BipartiteConfig::tiny("thr-strat", 19)
        };
        let ds = generate_bipartite(&cfg);
        let thresholded = CountingConfig {
            rating_threshold: Some(3.0),
            ..counted(true)
        };
        assert_dense_matches_reference(&ds, &thresholded, "threshold 3");
        // The threshold must actually bite on star-rated data.
        let full = build_rcs(&ds, &counted(true));
        assert!(build_rcs(&ds, &thresholded).total() < full.total());
    }

    #[test]
    fn binary_data_unaffected_by_threshold_of_one() {
        let ds = generate_bipartite(&BipartiteConfig::tiny("thr-bin", 23));
        let plain = build_rcs(&ds, &counted(true));
        let thresholded = build_rcs(
            &ds,
            &CountingConfig {
                rating_threshold: Some(1.0),
                ..counted(true)
            },
        );
        for u in 0..ds.num_users() as u32 {
            assert_eq!(plain.rcs(u), thresholded.rcs(u));
        }
    }
}
