//! Initialisation-quality helpers (Table VII).
//!
//! Table VII compares the recall of two *initial* KNN approximations before
//! any convergence: the top-`k` of each user's (unpivoted) RCS versus a
//! random graph. The former "illustrates the immediate benefit obtained by
//! KIFF from its counting phase" (§V-A2).

use kiff_dataset::Dataset;
use kiff_graph::{KnnGraph, Neighbor};
use kiff_similarity::{score_candidates, ScorerWorkspace, Similarity};

use crate::counting::{build_rcs, CountingConfig};

/// Builds the KNN approximation obtained by taking the top `k` entries of
/// each user's full (unpivoted) Ranked Candidate Set, with their true
/// similarities attached (recall evaluation compares similarity values).
/// Each user's RCS prefix is scored as one batch ([`score_candidates`]) —
/// identical values to the pairwise path, as everywhere in the workspace.
pub fn initial_rcs_graph<S: Similarity + ?Sized>(
    dataset: &Dataset,
    sim: &S,
    k: usize,
    threads: Option<usize>,
) -> KnnGraph {
    let rcs = build_rcs(
        dataset,
        &CountingConfig {
            pivot: false,
            threads,
            ..CountingConfig::default()
        },
    );
    let mut ws = ScorerWorkspace::new();
    let mut sims = Vec::new();
    let lists: Vec<Vec<Neighbor>> = (0..dataset.num_users() as u32)
        .map(|u| {
            let prefix = &rcs.rcs(u)[..k.min(rcs.rcs(u).len())];
            score_candidates(sim, dataset, u, prefix, &mut ws, &mut sims);
            prefix
                .iter()
                .zip(&sims)
                .map(|(&id, &s)| Neighbor { id, sim: s })
                .collect()
        })
        .collect();
    KnnGraph::from_neighbors(k, lists)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kiff_dataset::dataset::figure2_toy;
    use kiff_dataset::generators::bipartite::{generate_bipartite, BipartiteConfig};
    use kiff_graph::{exact_knn, recall};
    use kiff_similarity::WeightedCosine;

    #[test]
    fn toy_initialisation_is_already_exact() {
        let ds = figure2_toy();
        let sim = WeightedCosine::new();
        let init = initial_rcs_graph(&ds, &sim, 1, Some(1));
        assert_eq!(init.neighbors(0)[0].id, 1);
        assert_eq!(init.neighbors(1)[0].id, 0); // unpivoted: Bob sees Alice
        assert_eq!(init.neighbors(3)[0].id, 2);
    }

    #[test]
    fn rcs_initialisation_beats_random_substantially() {
        let ds = generate_bipartite(&BipartiteConfig::tiny("init", 71));
        let sim = WeightedCosine::fit(&ds);
        let k = 5;
        let n = ds.num_users() as u32;
        let exact = exact_knn(&ds, &sim, k, None);
        let init = initial_rcs_graph(&ds, &sim, k, None);
        let r_init = recall(&exact, &init);
        // A deterministic stand-in for the random initial graph greedy
        // approaches start from.
        let random = KnnGraph::from_neighbors(
            k,
            (0..n)
                .map(|u| {
                    (1..=k as u32)
                        .map(|d| {
                            let v = (u + d * 17) % n;
                            Neighbor {
                                id: v,
                                sim: sim.sim(&ds, u, v),
                            }
                        })
                        .collect()
                })
                .collect(),
        );
        let r_random = recall(&exact, &random);
        // Table VII's shape: the counting-phase initialisation dominates a
        // random start by a wide margin.
        assert!(
            r_init > 2.0 * r_random,
            "init recall {r_init} vs random {r_random}"
        );
        assert!(r_init <= 1.0 + 1e-9);
    }

    #[test]
    fn neighbor_sims_are_true_similarities() {
        let ds = figure2_toy();
        let sim = WeightedCosine::new();
        let init = initial_rcs_graph(&ds, &sim, 2, Some(1));
        for u in 0..4u32 {
            for n in init.neighbors(u) {
                assert!((n.sim - sim.sim(&ds, u, n.id)).abs() < 1e-12);
            }
        }
    }
}
