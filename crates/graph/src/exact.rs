//! Exact KNN graph construction (ground truth).
//!
//! Two constructions are provided:
//!
//! * [`exact_knn_brute`] — the literal `O(|U|²)` definition (Eq. 1): every
//!   pair is evaluated. The paper uses this to establish its ideal graphs
//!   (§IV-C). Kept for validation and small data.
//! * [`exact_knn`] — inverted-index construction: only pairs sharing at
//!   least one item are evaluated. For metrics satisfying the sparse axioms
//!   (Eq. 5–6) the result is exact, because non-sharing pairs have
//!   similarity 0 and can never beat a sharing pair; users with fewer than
//!   `k` sharing candidates simply get shorter neighbour lists, which the
//!   tie-aware recall treats as similarity 0 (§III-B, Eq. 3). This is the
//!   `γ = ∞` special case of KIFF discussed in §III-D.
//!
//! Both are *blocked prepare-row × stream-columns kernels*: rows (users)
//! are handed to workers in blocks, and each row is scored through
//! [`score_candidates`], which prepares the row's reference profile once
//! ([`Similarity::scorer`]) and streams every column (candidate) of that
//! row through the prepared scorer — they share one `scored_row` kernel,
//! so the brute path cannot drift from the inverted-index path. Run over
//! [`kiff_similarity::Pairwise`] of the metric, both score every pair
//! with [`Similarity::sim`] and build identical graphs.

use kiff_collections::FixedBitSet;
use kiff_dataset::{Dataset, UserId};
use kiff_parallel::{effective_threads, parallel_fold};
use kiff_similarity::{score_candidates, ScorerWorkspace, Similarity};

use crate::knn::{KnnGraph, KnnHeap, Neighbor};

/// Per-worker scratch of the row kernels: the scorer-preparation arena
/// and the batch similarity buffer.
#[derive(Default)]
struct RowScratch {
    ws: ScorerWorkspace,
    sims: Vec<f64>,
}

/// The shared row kernel: scores `u` against every candidate through
/// [`score_candidates`] and returns its sorted `k` best sharing
/// neighbours.
fn scored_row<S: Similarity + ?Sized>(
    dataset: &Dataset,
    sim: &S,
    u: UserId,
    candidates: &[UserId],
    k: usize,
    scratch: &mut RowScratch,
) -> Vec<Neighbor> {
    let RowScratch { ws, sims } = scratch;
    score_candidates(sim, dataset, u, candidates, ws, sims);
    let mut heap = KnnHeap::new(k);
    for (&v, &s) in candidates.iter().zip(sims.iter()) {
        if s > 0.0 {
            heap.update(s, v);
        }
    }
    heap.sorted_neighbors()
}

/// Exhaustive exact KNN: evaluates all `|U|·(|U|−1)/2` pairs, with
/// prepared row scoring.
pub fn exact_knn_brute<S: Similarity + ?Sized>(
    dataset: &Dataset,
    sim: &S,
    k: usize,
    threads: Option<usize>,
) -> KnnGraph {
    let n = dataset.num_users();
    let threads = effective_threads(threads);
    let neighbors = parallel_fold(
        threads,
        n,
        16,
        || {
            (
                Vec::<(UserId, Vec<Neighbor>)>::new(),
                Vec::<UserId>::new(),
                RowScratch::default(),
            )
        },
        |(acc, cols, scratch), range| {
            for u in range {
                let u = u as UserId;
                // Stream every column of the row except the diagonal.
                cols.clear();
                cols.extend((0..n as UserId).filter(|&v| v != u));
                acc.push((u, scored_row(dataset, sim, u, cols, k, scratch)));
            }
        },
        |mut a, b| {
            a.0.extend(b.0);
            a
        },
    )
    .0;
    assemble(k, n, neighbors)
}

/// Inverted-index exact KNN: for each user, candidates are gathered from the
/// item profiles of her items (both id directions, no pivot) and only those
/// are evaluated, with prepared row scoring.
///
/// # Panics
/// Panics if the metric does not satisfy the sparse axioms — the
/// construction would silently miss candidates otherwise.
pub fn exact_knn<S: Similarity + ?Sized>(
    dataset: &Dataset,
    sim: &S,
    k: usize,
    threads: Option<usize>,
) -> KnnGraph {
    assert!(
        sim.sparse_axioms(),
        "inverted-index exact KNN requires a metric with sparse axioms (Eq. 5-6); \
         use exact_knn_brute for {}",
        sim.name()
    );
    let n = dataset.num_users();
    let items = dataset.item_profiles();
    let threads = effective_threads(threads);
    let neighbors = parallel_fold(
        threads,
        n,
        16,
        || {
            (
                Vec::<(UserId, Vec<Neighbor>)>::new(),
                FixedBitSet::new(n),
                Vec::<UserId>::new(),
                RowScratch::default(),
            )
        },
        |(acc, seen, touched, scratch), range| {
            for u in range {
                let u = u as UserId;
                // Gather each co-rater exactly once via the reusable bitset.
                touched.clear();
                for &item in dataset.user_profile(u).items {
                    for &v in items.row(item) {
                        if v != u && seen.insert(v) {
                            touched.push(v);
                        }
                    }
                }
                let row = scored_row(dataset, sim, u, touched, k, scratch);
                seen.clear_ids(touched);
                acc.push((u, row));
            }
        },
        |mut a, b| {
            a.0.extend(b.0);
            a
        },
    )
    .0;
    assemble(k, n, neighbors)
}

fn assemble(k: usize, n: usize, mut chunks: Vec<(UserId, Vec<Neighbor>)>) -> KnnGraph {
    let mut lists: Vec<Vec<Neighbor>> = vec![Vec::new(); n];
    for (u, list) in chunks.drain(..) {
        lists[u as usize] = list;
    }
    KnnGraph::from_neighbors(k, lists)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kiff_dataset::dataset::figure2_toy;
    use kiff_dataset::generators::bipartite::{generate_bipartite, BipartiteConfig};
    use kiff_similarity::{Jaccard, Pairwise, WeightedCosine};

    #[test]
    fn toy_exact_neighbors() {
        let ds = figure2_toy();
        let g = exact_knn(&ds, &WeightedCosine::new(), 1, Some(1));
        assert_eq!(g.neighbors(0)[0].id, 1); // Alice ↔ Bob via coffee
        assert_eq!(g.neighbors(1)[0].id, 0);
        assert_eq!(g.neighbors(2)[0].id, 3); // Carl ↔ Dave via shopping
        assert_eq!(g.neighbors(3)[0].id, 2);
    }

    #[test]
    fn inverted_index_matches_brute_force() {
        let ds = generate_bipartite(&BipartiteConfig::tiny("x", 17));
        let sim = WeightedCosine::fit(&ds);
        for k in [1, 5, 10] {
            let fast = exact_knn(&ds, &sim, k, Some(2));
            let brute = exact_knn_brute(&ds, &sim, k, Some(2));
            for u in 0..ds.num_users() as u32 {
                // Ties can reorder ids, but the similarity multiset is
                // unique. Both use the same deterministic tie-breaking, so
                // direct equality should hold.
                assert_eq!(fast.neighbors(u), brute.neighbors(u), "user {u}, k={k}");
            }
        }
    }

    #[test]
    fn prepared_and_pairwise_build_identical_graphs() {
        let ds = generate_bipartite(&BipartiteConfig::tiny("sc", 19));
        let sim = WeightedCosine::fit(&ds);
        for k in [1, 5] {
            let prepared = exact_knn(&ds, &sim, k, Some(2));
            let pairwise = exact_knn(&ds, &Pairwise(&sim), k, Some(2));
            assert_eq!(prepared, pairwise, "inverted, k={k}");
            let brute_p = exact_knn_brute(&ds, &sim, k, Some(2));
            let brute_w = exact_knn_brute(&ds, &Pairwise(&sim), k, Some(2));
            assert_eq!(brute_p, brute_w, "brute, k={k}");
        }
    }

    #[test]
    fn brute_force_respects_positive_only() {
        // Users with no sharing candidates get empty neighbourhoods, not
        // arbitrary zero-similarity fillers.
        let ds = figure2_toy();
        let g = exact_knn_brute(&ds, &Jaccard, 3, Some(1));
        // Alice shares with Bob only.
        assert_eq!(g.neighbors(0).len(), 1);
    }

    #[test]
    fn parallel_matches_sequential() {
        let ds = generate_bipartite(&BipartiteConfig::tiny("p", 23));
        let sim = WeightedCosine::fit(&ds);
        let seq = exact_knn(&ds, &sim, 5, Some(1));
        let par = exact_knn(&ds, &sim, 5, Some(8));
        assert_eq!(seq, par);
    }

    #[test]
    fn neighbor_lists_exclude_self_and_duplicates() {
        let ds = generate_bipartite(&BipartiteConfig::tiny("d", 31));
        let g = exact_knn(&ds, &Jaccard, 8, None);
        for u in 0..ds.num_users() as u32 {
            let ids: Vec<u32> = g.neighbors(u).iter().map(|n| n.id).collect();
            assert!(!ids.contains(&u));
            let mut dedup = ids.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), ids.len());
        }
    }
}
