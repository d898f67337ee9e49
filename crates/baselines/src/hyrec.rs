//! HyRec (Boutet et al., Middleware'14), as re-implemented by the paper.
//!
//! "Similar to NN-Descent, HyRec relies on node locality to iteratively
//! converge to an accurate KNN from a random graph. During each iteration,
//! HyRec considers the neighbors of neighbors of each user, as well as a
//! set of few random users … a parameter r is used to define the number of
//! random users considered in the candidate set. For a fair comparison …
//! we implement the same pivot mechanism as in NN-Descent and the early
//! termination of KIFF." (§IV-B)
//!
//! Defaults follow §IV-D: `r = 0` (random candidates cause random memory
//! accesses and barely improve recall).

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use kiff_dataset::Dataset;
use kiff_graph::{IterationObserver, IterationTrace, KnnGraph, NoObserver, SharedKnn};
use kiff_parallel::{effective_threads, parallel_for, Counter, ScratchPool, TimeAccumulator};
use kiff_similarity::{score_candidates, ScorerWorkspace, Similarity};

use crate::config::GreedyConfig;
use crate::init::random_init;
use crate::stats::GreedyStats;

/// A configured HyRec instance.
#[derive(Debug, Clone)]
pub struct HyRec {
    config: GreedyConfig,
    /// Number of random users added to each candidate set (`r`).
    random_candidates: usize,
}

impl HyRec {
    /// HyRec with the paper's default `r = 0`.
    pub fn new(config: GreedyConfig) -> Self {
        Self {
            config,
            random_candidates: 0,
        }
    }

    /// Sets `r`, the number of random users per candidate set.
    pub fn with_random_candidates(mut self, r: usize) -> Self {
        self.random_candidates = r;
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &GreedyConfig {
        &self.config
    }

    /// Runs HyRec on `dataset` under `sim`.
    pub fn run<S: Similarity + ?Sized>(
        &self,
        dataset: &Dataset,
        sim: &S,
    ) -> (KnnGraph, GreedyStats) {
        self.run_observed(dataset, sim, &mut NoObserver)
    }

    /// Runs with a per-iteration observer (Fig. 8 traces).
    pub fn run_observed<S: Similarity + ?Sized>(
        &self,
        dataset: &Dataset,
        sim: &S,
        observer: &mut dyn IterationObserver,
    ) -> (KnnGraph, GreedyStats) {
        let total_start = Instant::now();
        let n = dataset.num_users();
        let k = self.config.k;
        let threads = effective_threads(self.config.threads);
        let shared = SharedKnn::new(n, k);
        let mut stats = GreedyStats::default();

        let init_start = Instant::now();
        let init_evals = random_init(dataset, sim, &shared, &self.config);
        stats.init_time = init_start.elapsed();

        let sim_evals = Counter::new();
        let candidate_time = TimeAccumulator::new();
        let similarity_time = TimeAccumulator::new();
        // Scorer-preparation arenas, reused across chunks and iterations.
        let registry = self.config.telemetry.clone();
        let workspaces = ScratchPool::with_init(move || ScorerWorkspace::with_telemetry(&registry));
        let mut cumulative = init_evals;

        for iteration in 1..=self.config.max_iterations {
            let before = sim_evals.get();
            let cand_before = candidate_time.total();
            let simt_before = similarity_time.total();

            // Freeze the adjacency for this iteration (candidate selection
            // walks neighbours-of-neighbours on a consistent snapshot).
            let guard = candidate_time.start();
            let frozen: Vec<Vec<u32>> = (0..n as u32)
                .map(|u| {
                    let mut ids = shared.lock(u).ids();
                    ids.sort_unstable(); // binary-searched by the pivot below
                    ids
                })
                .collect();
            drop(guard);

            parallel_for(threads, n, 16, |range| {
                let mut candidates: Vec<u32> = Vec::new();
                let mut sims: Vec<f64> = Vec::new();
                let mut ws = workspaces.checkout();
                for u in range {
                    let uid = u as u32;
                    let _guard = candidate_time.start();
                    candidates.clear();
                    // Neighbours of neighbours, on the frozen snapshot.
                    for &v in &frozen[u] {
                        candidates.extend_from_slice(&frozen[v as usize]);
                    }
                    // r random users against local minima (§IV-B).
                    if self.random_candidates > 0 {
                        let mut rng = StdRng::seed_from_u64(
                            self.config
                                .seed
                                .wrapping_add((iteration as u64) << 32)
                                .wrapping_add(uid as u64),
                        );
                        for _ in 0..self.random_candidates {
                            candidates.push(rng.gen_range(0..n as u32));
                        }
                    }
                    candidates.sort_unstable();
                    candidates.dedup();
                    // Pivot: evaluate each (u, v) pair once per iteration;
                    // skip self and pairs already in u's neighbourhood
                    // (their similarity is known).
                    candidates.retain(|&v| v != uid && frozen[u].binary_search(&v).is_err());
                    drop(_guard);

                    if candidates.is_empty() {
                        continue;
                    }
                    // The pivot is the reference of its whole candidate
                    // set: prepared scoring preprocesses it once and
                    // streams the set.
                    let sim_guard = similarity_time.start();
                    score_candidates(sim, dataset, uid, &candidates, &mut ws, &mut sims);
                    drop(sim_guard);
                    sim_evals.add(candidates.len() as u64);
                    shared.update_batch(uid, &candidates, &sims);
                }
            });

            // Serial accounting: changes = edges that entered some heap
            // this iteration, diffed against the frozen snapshot. Counting
            // concurrent `update` returns instead would make termination
            // depend on offer interleaving (an offer can be accepted then
            // evicted in one schedule, rejected in another); the diff is
            // interleaving-independent, so parallel runs are bit-identical
            // to serial ones. Deliberate semantic shift (serial runs
            // too): β now reads *net* changes, so intra-iteration churn
            // no longer delays termination.
            let diff_guard = candidate_time.start();
            let mut iter_changes = 0u64;
            for u in 0..n as u32 {
                let heap = shared.lock(u);
                iter_changes += heap
                    .iter()
                    .filter(|e| frozen[u as usize].binary_search(&e.id).is_err())
                    .count() as u64;
            }
            drop(diff_guard);

            let iter_evals = sim_evals.get() - before;
            cumulative += iter_evals;
            let trace = IterationTrace {
                iteration,
                changes: iter_changes,
                sim_evals: iter_evals,
                cumulative_sim_evals: cumulative,
                candidate_time: candidate_time.total() - cand_before,
                similarity_time: similarity_time.total() - simt_before,
            };
            stats.per_iteration.push(trace);
            stats.iterations = iteration;
            observer.on_iteration(trace, &shared);

            // KIFF's early termination: changes per user below β.
            if (iter_changes as f64) / (n.max(1) as f64) < self.config.termination {
                break;
            }
        }

        stats.sim_evals = cumulative;
        stats.candidate_selection_time = candidate_time.total();
        stats.similarity_time = similarity_time.total();
        stats.total_time = total_start.elapsed();
        stats.finish(n);
        (shared.snapshot(threads), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kiff_dataset::generators::bipartite::{generate_bipartite, BipartiteConfig};
    use kiff_graph::{exact_knn, recall};
    use kiff_similarity::{Pairwise, WeightedCosine};

    #[test]
    fn converges_to_reasonable_recall() {
        let ds = generate_bipartite(&BipartiteConfig::tiny("hy", 211));
        let sim = WeightedCosine::fit(&ds);
        let (graph, stats) = HyRec::new(GreedyConfig::new(10)).run(&ds, &sim);
        let exact = exact_knn(&ds, &sim, 10, None);
        let r = recall(&exact, &graph);
        assert!(r > 0.7, "recall = {r}");
        assert!(stats.iterations >= 2);
    }

    #[test]
    fn frozen_snapshot_keeps_sorted_ids() {
        // The binary_search-based pivot requires frozen lists sorted; this
        // is enforced by sorting in `ids()` order... verify indirectly by
        // running a couple of iterations without panicking and checking
        // output sanity.
        let ds = generate_bipartite(&BipartiteConfig::tiny("hs", 223));
        let sim = WeightedCosine::fit(&ds);
        let (graph, _) = HyRec::new(GreedyConfig::new(4)).run(&ds, &sim);
        for u in 0..ds.num_users() as u32 {
            assert!(graph.neighbors(u).len() <= 4);
        }
    }

    #[test]
    fn random_candidates_increase_evaluations() {
        let ds = generate_bipartite(&BipartiteConfig::tiny("hr", 227));
        let sim = WeightedCosine::fit(&ds);
        let (_, plain) = HyRec::new(GreedyConfig::new(5)).run(&ds, &sim);
        let (_, extra) = HyRec::new(GreedyConfig::new(5))
            .with_random_candidates(5)
            .run(&ds, &sim);
        assert!(
            extra.sim_evals > plain.sim_evals,
            "extra {} !> plain {}",
            extra.sim_evals,
            plain.sim_evals
        );
    }

    #[test]
    fn random_candidates_do_not_hurt_recall() {
        let ds = generate_bipartite(&BipartiteConfig::tiny("hq", 229));
        let sim = WeightedCosine::fit(&ds);
        let exact = exact_knn(&ds, &sim, 5, None);
        let (g0, _) = HyRec::new(GreedyConfig::new(5)).run(&ds, &sim);
        let (g5, _) = HyRec::new(GreedyConfig::new(5))
            .with_random_candidates(5)
            .run(&ds, &sim);
        let (r0, r5) = (recall(&exact, &g0), recall(&exact, &g5));
        // §IV-D: random nodes only *slightly* improve recall (~4%); they
        // must not degrade it noticeably.
        assert!(r5 + 0.05 >= r0, "r=0: {r0}, r=5: {r5}");
    }

    #[test]
    fn scoring_modes_build_identical_graphs() {
        let ds = generate_bipartite(&BipartiteConfig::tiny("hp", 239));
        let sim = WeightedCosine::fit(&ds);
        let mut cfg = GreedyConfig::new(6);
        cfg.threads = Some(2); // parallel runs are deterministic sweeps too
        let (prepared, ps) = HyRec::new(cfg.clone()).run(&ds, &sim);
        let (pairwise, ws) = HyRec::new(cfg).run(&ds, &Pairwise(&sim));
        assert_eq!(ps.sim_evals, ws.sim_evals);
        for u in 0..ds.num_users() as u32 {
            assert_eq!(prepared.neighbors(u), pairwise.neighbors(u), "user {u}");
        }
    }

    #[test]
    fn parallel_run_is_bit_identical_to_serial() {
        // Diff-based change counting makes the iteration count — and so
        // the whole run — independent of offer interleaving.
        let ds = generate_bipartite(&BipartiteConfig::tiny("hz", 241));
        let sim = WeightedCosine::fit(&ds);
        let run = |threads: usize| {
            let mut cfg = GreedyConfig::new(6);
            cfg.threads = Some(threads);
            HyRec::new(cfg).run(&ds, &sim)
        };
        let (serial, s_stats) = run(1);
        for threads in [2, 4] {
            let (parallel, p_stats) = run(threads);
            assert_eq!(s_stats.iterations, p_stats.iterations, "{threads} threads");
            assert_eq!(s_stats.sim_evals, p_stats.sim_evals, "{threads} threads");
            for u in 0..ds.num_users() as u32 {
                assert_eq!(
                    serial.neighbors(u),
                    parallel.neighbors(u),
                    "{threads} threads, user {u}"
                );
            }
        }
    }

    #[test]
    fn termination_respects_beta() {
        let ds = generate_bipartite(&BipartiteConfig::tiny("ht", 233));
        let sim = WeightedCosine::fit(&ds);
        let mut strict_cfg = GreedyConfig::new(5);
        strict_cfg.termination = 0.0001;
        let mut loose_cfg = GreedyConfig::new(5);
        loose_cfg.termination = 2.0;
        let (_, strict) = HyRec::new(strict_cfg).run(&ds, &sim);
        let (_, loose) = HyRec::new(loose_cfg).run(&ds, &sim);
        assert!(loose.iterations <= strict.iterations);
    }
}
