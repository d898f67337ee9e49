//! L2Knng-style exact KNN graph construction under cosine with L2-norm
//! pruning (Anastasiu & Karypis, CIKM'15), the two-phase competitor the
//! paper contrasts KIFF against in §VI.
//!
//! "L2Knng also adopts a two-phase approach and uses pruning to improve its
//! KNN computation. … Firstly, L2Knng's approach is specific to the cosine
//! similarity while KIFF can be applied to any similarity metric. Secondly,
//! L2Knng exploits neighbors-of-neighbors relationships … for its
//! convergence phase … Finally, the design and implementation choice of the
//! candidate set of L2Knng renders it unsuitable for parallel execution."
//!
//! This module reproduces that design faithfully enough to stand in as the
//! comparison point:
//!
//! 1. **Approximate phase** (`L2KnngApprox`): every user indexes her μ
//!    highest-weight features in an inverted index; candidates are scored
//!    by the partial dot product over those indexed features; the top
//!    `λ·k` candidates per user are verified exactly, and a few
//!    neighbours-of-neighbours improvement sweeps refine the initial
//!    graph. Its only job is to establish good per-user similarity
//!    thresholds `θ_u` (the current k-th neighbour similarity).
//! 2. **Exact phase**: users are processed in id order against an
//!    inverted index of all previously processed users, so every pair
//!    sharing at least one item is encountered exactly once. Each
//!    encountered pair is verified with an *early-abandoning* merged dot
//!    product: at merge position `(i, j)` the remaining mass is bounded by
//!    Cauchy–Schwarz as `‖u_{≥i}‖·‖v_{≥j}‖`, and the pair is abandoned as
//!    soon as `dot + bound < min(θ_u, θ_v)` — it can then enter neither
//!    final neighbourhood, because thresholds only grow.
//!
//! Unlike the original (which also truncates the *index* to vector
//! prefixes), the index here holds full vectors; only verification is
//! pruned. That keeps the exactness argument two-sided and local while
//! preserving the algorithm's signature behaviour — L2-norm bounds driven
//! by approximate-graph thresholds. The exact phase is sequential by
//! construction: each user's pruning consumes the thresholds produced by
//! all earlier users, which is precisely the serial dependency §VI calls
//! out ("its pruning mechanism of order n requires results from the
//! remaining n−1 objects").

use std::time::{Duration, Instant};

use kiff_dataset::{Dataset, UserId};
use kiff_graph::{HeapEntry, KnnGraph, KnnHeap, SharedKnn};

/// Parameters of [`L2Knng`].
#[derive(Debug, Clone)]
pub struct L2KnngConfig {
    /// Neighbourhood size `k`.
    pub k: usize,
    /// μ — number of highest-weight features each user contributes to the
    /// approximate phase's inverted index. Ties (all weights are equal on
    /// binary data) are broken towards *rarer* items, which discriminate
    /// better.
    pub index_features: usize,
    /// λ — the approximate phase verifies the `λ·k` best-estimated
    /// candidates per user.
    pub candidate_factor: usize,
    /// Neighbourhood-improvement sweeps run after the initial candidates
    /// (the original's "neighborhood enhancement" step).
    pub improve_iterations: usize,
}

impl L2KnngConfig {
    /// Defaults used by the harness: μ = 4, λ = 2, two improvement sweeps.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            index_features: 4,
            candidate_factor: 2,
            improve_iterations: 2,
        }
    }
}

/// Instrumentation of an [`L2Knng`] run.
#[derive(Debug, Clone, Default)]
pub struct L2Stats {
    /// Completed similarity evaluations (full dot products), both phases.
    pub sim_evals: u64,
    /// Pairs abandoned early by the L2 suffix-norm bound.
    pub pruned_pairs: u64,
    /// Pairs encountered in the exact phase (shared-item pairs).
    pub candidate_pairs: u64,
    /// `sim_evals / (|U|·(|U|−1)/2)` — comparable to the other
    /// algorithms' scan rates.
    pub scan_rate: f64,
    /// Wall time of the approximate phase.
    pub approx_time: Duration,
    /// Wall time of the exact verification phase.
    pub verify_time: Duration,
    /// End-to-end wall time.
    pub total_time: Duration,
}

impl L2Stats {
    fn finish(&mut self, n: usize) {
        let possible = n as f64 * (n as f64 - 1.0) / 2.0;
        self.scan_rate = if possible > 0.0 {
            self.sim_evals as f64 / possible
        } else {
            0.0
        };
    }
}

/// A configured L2Knng instance.
///
/// Cosine-specific by design: profiles are L2-normalised once, so a dot
/// product of stored weights *is* the cosine similarity.
///
/// ```
/// use kiff_baselines::{L2Knng, L2KnngConfig};
/// use kiff_dataset::dataset::figure2_toy;
///
/// let (graph, stats) = L2Knng::new(L2KnngConfig::new(1)).run(&figure2_toy());
/// assert_eq!(graph.neighbors(0)[0].id, 1); // Alice ↔ Bob, exact
/// assert!(stats.scan_rate <= 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct L2Knng {
    config: L2KnngConfig,
}

/// Flattened normalised vectors with per-position suffix norms.
struct NormalizedProfiles {
    /// `offsets[u]..offsets[u + 1]` indexes user `u`'s entries.
    offsets: Vec<usize>,
    /// Item ids, ascending per user (CSR order).
    items: Vec<u32>,
    /// L2-normalised weights parallel to `items`.
    weights: Vec<f64>,
    /// `suffix[p] = ‖weights[p..end-of-user]‖` — the Cauchy–Schwarz bound
    /// on any dot product confined to the suffix starting at `p`.
    suffix: Vec<f64>,
}

impl NormalizedProfiles {
    fn build(dataset: &Dataset) -> Self {
        let n = dataset.num_users();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let nnz = dataset.num_ratings();
        let mut items = Vec::with_capacity(nnz);
        let mut weights = Vec::with_capacity(nnz);
        let mut suffix = vec![0.0f64; nnz];
        for u in 0..n as u32 {
            let p = dataset.user_profile(u);
            let norm = p.norm();
            let start = items.len();
            for (item, rating) in p.iter() {
                items.push(item);
                weights.push(if norm > 0.0 {
                    f64::from(rating) / norm
                } else {
                    0.0
                });
            }
            // Suffix norms, right to left.
            let mut acc = 0.0f64;
            for pos in (start..items.len()).rev() {
                acc += weights[pos] * weights[pos];
                suffix[pos] = acc.sqrt();
            }
            offsets.push(items.len());
        }
        Self {
            offsets,
            items,
            weights,
            suffix,
        }
    }

    #[inline]
    fn range(&self, u: UserId) -> std::ops::Range<usize> {
        self.offsets[u as usize]..self.offsets[u as usize + 1]
    }

    /// Full cosine similarity (merged dot product of normalised weights).
    fn dot(&self, u: UserId, v: UserId) -> f64 {
        let (ru, rv) = (self.range(u), self.range(v));
        let (iu, iv) = (&self.items[ru.clone()], &self.items[rv.clone()]);
        let (wu, wv) = (&self.weights[ru], &self.weights[rv]);
        let mut dot = 0.0;
        let (mut i, mut j) = (0, 0);
        while i < iu.len() && j < iv.len() {
            match iu[i].cmp(&iv[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    dot += wu[i] * wv[j];
                    i += 1;
                    j += 1;
                }
            }
        }
        dot
    }

    /// Early-abandoning cosine: returns `None` as soon as the remaining
    /// mass cannot lift the dot product to `threshold`.
    fn dot_bounded(&self, u: UserId, v: UserId, threshold: f64) -> Option<f64> {
        let (ru, rv) = (self.range(u), self.range(v));
        let (iu, iv) = (&self.items[ru.clone()], &self.items[rv.clone()]);
        let (wu, wv) = (&self.weights[ru.clone()], &self.weights[rv.clone()]);
        let (su, sv) = (&self.suffix[ru], &self.suffix[rv]);
        let mut dot = 0.0;
        let (mut i, mut j) = (0, 0);
        while i < iu.len() && j < iv.len() {
            if dot + su[i] * sv[j] < threshold {
                return None;
            }
            match iu[i].cmp(&iv[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    dot += wu[i] * wv[j];
                    i += 1;
                    j += 1;
                }
            }
        }
        Some(dot)
    }
}

impl L2Knng {
    /// Creates an instance with `config`.
    pub fn new(config: L2KnngConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &L2KnngConfig {
        &self.config
    }

    /// Builds the exact cosine KNN graph of `dataset`.
    pub fn run(&self, dataset: &Dataset) -> (KnnGraph, L2Stats) {
        let total_start = Instant::now();
        let n = dataset.num_users();
        let k = self.config.k;
        let mut stats = L2Stats::default();
        let profiles = NormalizedProfiles::build(dataset);
        let shared = SharedKnn::new(n, k);

        let approx_start = Instant::now();
        self.approximate_phase(dataset, &profiles, &shared, &mut stats);
        stats.approx_time = approx_start.elapsed();

        let verify_start = Instant::now();
        self.exact_phase(dataset, &profiles, &shared, &mut stats);
        stats.verify_time = verify_start.elapsed();

        stats.total_time = total_start.elapsed();
        stats.finish(n);
        (shared.snapshot(1), stats)
    }

    /// Phase 1: initial approximate graph from the top-μ feature index,
    /// refined by neighbours-of-neighbours sweeps. Establishes the
    /// thresholds that make phase 2's pruning effective.
    fn approximate_phase(
        &self,
        dataset: &Dataset,
        profiles: &NormalizedProfiles,
        shared: &SharedKnn,
        stats: &mut L2Stats,
    ) {
        let n = dataset.num_users();
        let mu = self.config.index_features.max(1);
        let items = dataset.item_profiles();

        // Each user's μ highest-weight features, ties towards rarer items.
        let mut indexed: Vec<Vec<u32>> = Vec::with_capacity(n);
        for u in 0..n as u32 {
            let r = profiles.range(u);
            let ids = &profiles.items[r.clone()];
            let ws = &profiles.weights[r];
            let mut order: Vec<usize> = (0..ids.len()).collect();
            order.sort_unstable_by(|&a, &b| {
                ws[b]
                    .partial_cmp(&ws[a])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| items.degree(ids[a]).cmp(&items.degree(ids[b])))
                    .then_with(|| ids[a].cmp(&ids[b]))
            });
            order.truncate(mu);
            indexed.push(order.into_iter().map(|idx| ids[idx]).collect());
        }

        // Inverted index over the selected features only.
        let mut inv: Vec<Vec<u32>> = vec![Vec::new(); dataset.num_items()];
        for (u, feats) in indexed.iter().enumerate() {
            for &i in feats {
                inv[i as usize].push(u as u32);
            }
        }

        // Candidate scoring by partial dot over indexed features.
        let k = self.config.k;
        let budget = (self.config.candidate_factor * k).max(k);
        let mut estimate: Vec<f64> = vec![0.0; n];
        let mut touched: Vec<u32> = Vec::new();
        for u in 0..n as u32 {
            touched.clear();
            let r = profiles.range(u);
            let (ids, ws) = (&profiles.items[r.clone()], &profiles.weights[r]);
            for (pos, &i) in ids.iter().enumerate() {
                for &v in &inv[i as usize] {
                    if v == u {
                        continue;
                    }
                    if estimate[v as usize] == 0.0 {
                        touched.push(v);
                    }
                    // The candidate's weight on `i` is found by binary
                    // search in its profile; both sides contribute.
                    let rv = profiles.range(v);
                    let vi = &profiles.items[rv.clone()];
                    if let Ok(idx) = vi.binary_search(&i) {
                        estimate[v as usize] += ws[pos] * profiles.weights[rv.start + idx];
                    }
                }
            }
            // Verify the top-λk estimates exactly.
            if touched.len() > budget {
                touched.select_nth_unstable_by(budget - 1, |&a, &b| {
                    estimate[b as usize]
                        .partial_cmp(&estimate[a as usize])
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                for &v in &touched[budget..] {
                    estimate[v as usize] = 0.0;
                }
                touched.truncate(budget);
            }
            for &v in &touched {
                let s = profiles.dot(u, v);
                stats.sim_evals += 1;
                if s > 0.0 {
                    shared.update(u, v, s);
                    shared.update(v, u, s);
                }
                estimate[v as usize] = 0.0;
            }
        }

        // Neighbourhood improvement sweeps (neighbours of neighbours).
        let mut cands: Vec<u32> = Vec::new();
        for _ in 0..self.config.improve_iterations {
            let mut changes = 0u64;
            for u in 0..n as u32 {
                cands.clear();
                let direct = shared.lock(u).ids();
                for &v in &direct {
                    cands.extend(shared.lock(v).ids());
                }
                cands.sort_unstable();
                cands.dedup();
                for &w in &cands {
                    if w == u || direct.contains(&w) {
                        continue;
                    }
                    let s = profiles.dot(u, w);
                    stats.sim_evals += 1;
                    if s > 0.0 {
                        changes += shared.update(u, w, s) + shared.update(w, u, s);
                    }
                }
            }
            if changes == 0 {
                break;
            }
        }
    }

    /// Phase 2: sequential exact pass. Every shared-item pair `(v, u)`
    /// with `v < u` is encountered once when `u` queries the index of
    /// processed users, and abandoned only when the L2 bound proves it
    /// cannot enter either neighbourhood.
    fn exact_phase(
        &self,
        dataset: &Dataset,
        profiles: &NormalizedProfiles,
        shared: &SharedKnn,
        stats: &mut L2Stats,
    ) {
        let n = dataset.num_users();
        let k = self.config.k;
        // Inverted index of processed users, one list per item.
        let mut inv: Vec<Vec<u32>> = vec![Vec::new(); dataset.num_items()];
        // Epoch-stamped candidate dedup.
        let mut stamp: Vec<u32> = vec![u32::MAX; n];
        let mut cands: Vec<u32> = Vec::new();

        let theta = |heap: &KnnHeap<&mut [HeapEntry]>| -> f64 {
            if heap.len() == k {
                heap.worst().map_or(0.0, |(s, _)| s)
            } else {
                0.0
            }
        };

        for u in 0..n as u32 {
            cands.clear();
            let r = profiles.range(u);
            for &i in &profiles.items[r.clone()] {
                for &v in &inv[i as usize] {
                    if stamp[v as usize] != u {
                        stamp[v as usize] = u;
                        cands.push(v);
                    }
                }
            }
            stats.candidate_pairs += cands.len() as u64;

            let mut theta_u = theta(&shared.lock(u));
            for &v in &cands {
                let theta_v = theta(&shared.lock(v));
                let min_theta = theta_u.min(theta_v);
                match profiles.dot_bounded(u, v, min_theta) {
                    None => stats.pruned_pairs += 1,
                    Some(s) => {
                        stats.sim_evals += 1;
                        if s > 0.0 {
                            let changed = shared.update(u, v, s) + shared.update(v, u, s);
                            if changed > 0 {
                                theta_u = theta(&shared.lock(u));
                            }
                        }
                    }
                }
            }

            // u becomes part of the index for all later users.
            for &i in &profiles.items[r] {
                inv[i as usize].push(u);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kiff_dataset::dataset::figure2_toy;
    use kiff_dataset::generators::bipartite::{generate_bipartite, BipartiteConfig};
    use kiff_graph::{exact_knn_brute, recall};
    use kiff_similarity::WeightedCosine;

    #[test]
    fn toy_dataset_exact() {
        let ds = figure2_toy();
        let (graph, _) = L2Knng::new(L2KnngConfig::new(1)).run(&ds);
        assert_eq!(graph.neighbors(0)[0].id, 1); // Alice ↔ Bob
        assert_eq!(graph.neighbors(2)[0].id, 3); // Carl ↔ Dave
        assert!((graph.neighbors(2)[0].sim - 1.0).abs() < 1e-12);
    }

    #[test]
    fn matches_brute_force_exactly() {
        let ds = generate_bipartite(&BipartiteConfig::tiny("l2k", 131));
        let sim = WeightedCosine::fit(&ds);
        for k in [1, 5, 10] {
            let (graph, _) = L2Knng::new(L2KnngConfig::new(k)).run(&ds);
            let exact = exact_knn_brute(&ds, &sim, k, None);
            let r = recall(&exact, &graph);
            assert!((r - 1.0).abs() < 1e-12, "k={k}: recall = {r}");
        }
    }

    #[test]
    fn exact_even_with_crippled_approximate_phase() {
        // With μ = 1, λ·k tiny and no improvement sweeps, thresholds are
        // poor — pruning must still never discard a true neighbour.
        let ds = generate_bipartite(&BipartiteConfig::tiny("l2c", 137));
        let sim = WeightedCosine::fit(&ds);
        let cfg = L2KnngConfig {
            k: 5,
            index_features: 1,
            candidate_factor: 1,
            improve_iterations: 0,
        };
        let (graph, _) = L2Knng::new(cfg).run(&ds);
        let exact = exact_knn_brute(&ds, &sim, 5, None);
        assert!((recall(&exact, &graph) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pruning_is_effective() {
        let ds = generate_bipartite(&BipartiteConfig::tiny("l2p", 139));
        let (_, stats) = L2Knng::new(L2KnngConfig::new(3)).run(&ds);
        assert!(stats.pruned_pairs > 0, "no pairs pruned");
        assert!(stats.sim_evals > 0);
        assert!(stats.candidate_pairs >= stats.pruned_pairs);
        assert!(stats.scan_rate > 0.0);
    }

    #[test]
    fn better_thresholds_prune_more() {
        // More improvement sweeps ⇒ higher θ entering the exact phase ⇒
        // at least as many pruned pairs.
        let ds = generate_bipartite(&BipartiteConfig::tiny("l2t", 149));
        let weak = L2KnngConfig {
            k: 5,
            index_features: 1,
            candidate_factor: 1,
            improve_iterations: 0,
        };
        let strong = L2KnngConfig {
            k: 5,
            index_features: 6,
            candidate_factor: 3,
            improve_iterations: 3,
        };
        let (_, sw) = L2Knng::new(weak).run(&ds);
        let (_, ss) = L2Knng::new(strong).run(&ds);
        assert!(
            ss.pruned_pairs >= sw.pruned_pairs,
            "strong {} < weak {}",
            ss.pruned_pairs,
            sw.pruned_pairs
        );
    }

    #[test]
    fn deterministic() {
        let ds = generate_bipartite(&BipartiteConfig::tiny("l2d", 151));
        let (g1, s1) = L2Knng::new(L2KnngConfig::new(4)).run(&ds);
        let (g2, s2) = L2Knng::new(L2KnngConfig::new(4)).run(&ds);
        assert_eq!(s1.sim_evals, s2.sim_evals);
        assert_eq!(s1.pruned_pairs, s2.pruned_pairs);
        for u in 0..ds.num_users() as u32 {
            let a: Vec<_> = g1.neighbors(u).iter().map(|x| x.id).collect();
            let b: Vec<_> = g2.neighbors(u).iter().map(|x| x.id).collect();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn suffix_norms_decrease() {
        let ds = figure2_toy();
        let p = NormalizedProfiles::build(&ds);
        for u in 0..ds.num_users() as u32 {
            let r = p.range(u);
            let s = &p.suffix[r];
            for w in s.windows(2) {
                assert!(w[0] >= w[1] - 1e-12);
            }
            // A normalised vector's full suffix norm is 1.
            if !s.is_empty() {
                assert!((s[0] - 1.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn empty_and_disjoint_users() {
        use kiff_dataset::DatasetBuilder;
        let mut b = DatasetBuilder::new("sparse", 3, 4);
        b.add_rating(0, 0, 1.0);
        b.add_rating(1, 1, 1.0);
        b.add_rating(2, 2, 1.0);
        let ds = b.build();
        let (graph, stats) = L2Knng::new(L2KnngConfig::new(2)).run(&ds);
        for u in 0..3 {
            assert!(graph.neighbors(u).is_empty(), "user {u} has neighbours");
        }
        assert_eq!(stats.candidate_pairs, 0);
    }
}
