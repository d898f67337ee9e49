//! NN-Descent (Dong, Moses, Li — WWW'11), as re-implemented by the paper.
//!
//! "Starting from a random graph, NN-Descent iteratively refines the
//! neighborhood of a user by considering at each iteration a candidate set
//! composed of the direct neighborhood of the current bidirectional
//! neighbors (both in-coming and out-going neighbors). To avoid repeated
//! similarity computations, NN-Descent uses a system of flags to only
//! consider new neighbors-of-neighbors during each iteration. … NN-Descent
//! also uses a pivot strategy … by iterating on both the in-coming and
//! out-going neighbors of the current pivot user." (§IV-B)
//!
//! The local join at pivot `u` evaluates `new × new` (each unordered pair
//! once) and `new × old`, updating both endpoints' heaps. Termination
//! follows the original publication: stop when the number of updates in an
//! iteration drops below `δ·n·k`.
//!
//! # Determinism under parallelism
//!
//! Heap contents after a join phase are permutation-invariant (the heap
//! keeps the top-k under the total order (sim, −id)), but two quantities
//! written *during* concurrent joins are not: the per-update change count
//! (an offer can be accepted-then-evicted in one interleaving and
//! rejected outright in another) and the `new` flags (an entry evicted
//! and re-inserted is re-flagged). Both are therefore derived serially
//! *after* each join phase from a membership diff against the
//! pre-iteration heaps — id-ordered admission plus diff-based accounting
//! make every run bit-identical regardless of thread count, which is what
//! lets the scoring-identity gates run parallel.
//!
//! Note the deliberate semantic shift, which applies to serial runs too:
//! the termination criterion now reads *net* changes — an offer accepted
//! and evicted within the same iteration no longer counts — so
//! churn-heavy datasets can terminate an iteration earlier than under
//! the original per-update counting (a stricter reading of "number of
//! updates", and the price of determinism).

use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use kiff_collections::FxHashSet;
use kiff_dataset::Dataset;
use kiff_graph::{IterationObserver, IterationTrace, KnnGraph, NoObserver, SharedKnn};
use kiff_parallel::{effective_threads, parallel_for, Counter, ScratchPool, TimeAccumulator};
use kiff_similarity::{score_candidates, ScorerWorkspace, Similarity};

use crate::config::GreedyConfig;
use crate::init::random_init;
use crate::stats::GreedyStats;

/// A configured NN-Descent instance.
#[derive(Debug, Clone)]
pub struct NnDescent {
    config: GreedyConfig,
    /// Sampling rate ρ: each side of the local join considers at most
    /// `ρ·k` new/reversed entries. `None` = no sampling, the paper's
    /// evaluation setting.
    sample_rate: Option<f64>,
}

impl NnDescent {
    /// NN-Descent without sampling (the paper's configuration).
    pub fn new(config: GreedyConfig) -> Self {
        Self {
            config,
            sample_rate: None,
        }
    }

    /// Enables sampling at rate `rho ∈ (0, 1]` (the original paper's
    /// speed-up knob; exposed for the ablation benches).
    pub fn with_sampling(mut self, rho: f64) -> Self {
        assert!(rho > 0.0 && rho <= 1.0, "sampling rate must be in (0, 1]");
        self.sample_rate = Some(rho);
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &GreedyConfig {
        &self.config
    }

    /// Runs NN-Descent on `dataset` under `sim`.
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

        // Random initial k-degree graph, flagged new.
        let init_start = Instant::now();
        let init_evals = random_init(dataset, sim, &shared, &self.config);
        stats.init_time = init_start.elapsed();
        stats.sim_evals = init_evals;

        let sim_evals = Counter::new();
        let candidate_time = TimeAccumulator::new();
        let similarity_time = TimeAccumulator::new();
        // Scorer-preparation arenas, reused across chunks and iterations.
        let registry = self.config.telemetry.clone();
        let workspaces = ScratchPool::with_init(move || ScorerWorkspace::with_telemetry(&registry));
        let sample_budget = self
            .sample_rate
            .map(|rho| ((rho * k as f64).ceil() as usize).max(1));
        let mut cumulative = init_evals;

        for iteration in 1..=self.config.max_iterations {
            let before = sim_evals.get();
            let cand_before = candidate_time.total();
            let simt_before = similarity_time.total();

            // Phase 1: per-user new/old extraction (flag handling).
            // Sequential — O(n·k) and deterministic. `before_sets` /
            // `keep_new` freeze the pre-join membership and the flags
            // surviving sampling, for the diff-based accounting below.
            let guard = candidate_time.start();
            let mut new_lists: Vec<Vec<u32>> = vec![Vec::new(); n];
            let mut old_lists: Vec<Vec<u32>> = vec![Vec::new(); n];
            let mut before_sets: Vec<FxHashSet<u32>> = vec![FxHashSet::default(); n];
            let mut keep_new: Vec<FxHashSet<u32>> = vec![FxHashSet::default(); n];
            let mut rng = StdRng::seed_from_u64(self.config.seed.wrapping_add(iteration as u64));
            for u in 0..n as u32 {
                let mut heap = shared.lock(u);
                let mut fresh = heap.new_ids();
                match sample_budget {
                    Some(budget) if fresh.len() > budget => {
                        fresh.shuffle(&mut rng);
                        fresh.truncate(budget);
                    }
                    _ => {}
                }
                for &id in &fresh {
                    heap.clear_new_flag(id);
                }
                before_sets[u as usize] = heap.ids().into_iter().collect();
                // Unsampled news keep their flag for a later iteration.
                keep_new[u as usize] = heap.new_ids().into_iter().collect();
                let news: FxHashSet<u32> = fresh.iter().copied().collect();
                old_lists[u as usize] = heap
                    .ids()
                    .into_iter()
                    .filter(|v| !news.contains(v))
                    .collect();
                new_lists[u as usize] = fresh;
            }

            // Phase 2: reversals ("in-coming neighbors").
            let mut rev_new: Vec<Vec<u32>> = vec![Vec::new(); n];
            let mut rev_old: Vec<Vec<u32>> = vec![Vec::new(); n];
            for u in 0..n as u32 {
                for &v in &new_lists[u as usize] {
                    rev_new[v as usize].push(u);
                }
                for &v in &old_lists[u as usize] {
                    rev_old[v as usize].push(u);
                }
            }
            drop(guard);

            // Phase 3: local joins at every pivot user.
            parallel_for(threads, n, 16, |range| {
                let mut news: Vec<u32> = Vec::new();
                let mut olds: Vec<u32> = Vec::new();
                let mut partners: Vec<u32> = Vec::new();
                let mut sims: Vec<f64> = Vec::new();
                let mut ws = workspaces.checkout();
                for u in range {
                    let _guard = candidate_time.start();
                    news.clear();
                    olds.clear();
                    news.extend_from_slice(&new_lists[u]);
                    let mut rev_sampled: Vec<u32> = rev_new[u].clone();
                    let mut rev_old_sampled: Vec<u32> = rev_old[u].clone();
                    if let Some(budget) = sample_budget {
                        let mut rng = StdRng::seed_from_u64(
                            self.config
                                .seed
                                .wrapping_add((iteration as u64) << 32)
                                .wrapping_add(u as u64),
                        );
                        if rev_sampled.len() > budget {
                            rev_sampled.shuffle(&mut rng);
                            rev_sampled.truncate(budget);
                        }
                        if rev_old_sampled.len() > budget {
                            rev_old_sampled.shuffle(&mut rng);
                            rev_old_sampled.truncate(budget);
                        }
                    }
                    news.extend(rev_sampled);
                    news.sort_unstable();
                    news.dedup();
                    olds.extend_from_slice(&old_lists[u]);
                    olds.extend(rev_old_sampled);
                    olds.sort_unstable();
                    olds.dedup();
                    // Keep the two sides disjoint so a pair is joined once.
                    olds.retain(|v| news.binary_search(v).is_err());
                    drop(_guard);

                    // new × new (unordered pairs) and new × old: `a` is
                    // the reference of its whole join row, so prepared
                    // scoring preprocesses it once and streams the row.
                    for (idx, &a) in news.iter().enumerate() {
                        partners.clear();
                        partners.extend_from_slice(&news[idx + 1..]);
                        partners.extend(olds.iter().copied().filter(|&b| b != a));
                        if partners.is_empty() {
                            continue;
                        }
                        let sim_guard = similarity_time.start();
                        score_candidates(sim, dataset, a, &partners, &mut ws, &mut sims);
                        drop(sim_guard);
                        sim_evals.add(partners.len() as u64);
                        shared.update_batch(a, &partners, &sims);
                    }
                }
            });

            // Serial accounting pass: count the edges that entered each
            // heap this iteration and retag the `new` flags from the
            // membership diff — interleaving-independent (see the module
            // docs), so parallel runs are bit-identical to serial ones.
            let diff_guard = candidate_time.start();
            let mut iter_changes = 0u64;
            for u in 0..n as u32 {
                let mut heap = shared.lock(u);
                let before_set = &before_sets[u as usize];
                let keep = &keep_new[u as usize];
                heap.retag_new(|id| {
                    if before_set.contains(&id) {
                        keep.contains(&id)
                    } else {
                        true
                    }
                });
                iter_changes += heap.iter().filter(|e| !before_set.contains(&e.id)).count() as u64;
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

            // Original termination: c < δ·n·k.
            if (iter_changes as f64) < self.config.termination * n as f64 * k as f64 {
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
    fn converges_to_high_recall() {
        let ds = generate_bipartite(&BipartiteConfig::tiny("nnd", 101));
        let sim = WeightedCosine::fit(&ds);
        let (graph, stats) = NnDescent::new(GreedyConfig::new(10)).run(&ds, &sim);
        let exact = exact_knn(&ds, &sim, 10, None);
        let r = recall(&exact, &graph);
        assert!(r > 0.85, "recall = {r}");
        assert!(stats.iterations >= 2);
        assert!(stats.sim_evals > 0);
        assert!(stats.scan_rate > 0.0);
    }

    #[test]
    fn sampling_reduces_evaluations() {
        let ds = generate_bipartite(&BipartiteConfig::tiny("nds", 103));
        let sim = WeightedCosine::fit(&ds);
        let (_, full) = NnDescent::new(GreedyConfig::new(8)).run(&ds, &sim);
        let (_, sampled) = NnDescent::new(GreedyConfig::new(8))
            .with_sampling(0.5)
            .run(&ds, &sim);
        assert!(
            sampled.sim_evals < full.sim_evals,
            "sampled {} !< full {}",
            sampled.sim_evals,
            full.sim_evals
        );
    }

    #[test]
    fn traces_accumulate() {
        let ds = generate_bipartite(&BipartiteConfig::tiny("ndt", 107));
        let sim = WeightedCosine::fit(&ds);
        let (_, stats) = NnDescent::new(GreedyConfig::new(5)).run(&ds, &sim);
        let mut cum =
            stats.sim_evals - stats.per_iteration.iter().map(|t| t.sim_evals).sum::<u64>();
        for t in &stats.per_iteration {
            cum += t.sim_evals;
            assert_eq!(t.cumulative_sim_evals, cum);
        }
        assert_eq!(cum, stats.sim_evals);
    }

    #[test]
    fn first_iterations_make_most_changes() {
        // The three-step convergence of §V-A3: early iterations dominated
        // by updates.
        let ds = generate_bipartite(&BipartiteConfig::tiny("ndc", 109));
        let sim = WeightedCosine::fit(&ds);
        let (_, stats) = NnDescent::new(GreedyConfig::new(8)).run(&ds, &sim);
        if stats.per_iteration.len() >= 2 {
            let first = stats.per_iteration[0].changes;
            let last = stats.per_iteration.last().unwrap().changes;
            assert!(first > last, "first={first} last={last}");
        }
    }

    #[test]
    fn scoring_modes_build_identical_graphs() {
        let ds = generate_bipartite(&BipartiteConfig::tiny("ndp", 127));
        let sim = WeightedCosine::fit(&ds);
        let mut cfg = GreedyConfig::new(8);
        cfg.threads = Some(2); // parallel runs are deterministic sweeps too
        let (prepared, ps) = NnDescent::new(cfg.clone()).run(&ds, &sim);
        let (pairwise, ws) = NnDescent::new(cfg).run(&ds, &Pairwise(&sim));
        assert_eq!(ps.sim_evals, ws.sim_evals);
        for u in 0..ds.num_users() as u32 {
            assert_eq!(prepared.neighbors(u), pairwise.neighbors(u), "user {u}");
        }
    }

    #[test]
    fn parallel_run_is_bit_identical_to_serial() {
        // The diff-based change counting and post-join flag retagging
        // make the whole run interleaving-independent: any thread count
        // produces the serial graph, iteration count and eval count.
        let ds = generate_bipartite(&BipartiteConfig::tiny("ndq", 131));
        let sim = WeightedCosine::fit(&ds);
        let run = |threads: usize| {
            let mut cfg = GreedyConfig::new(8);
            cfg.threads = Some(threads);
            NnDescent::new(cfg).run(&ds, &sim)
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
    fn graphs_have_no_self_loops_or_duplicates() {
        let ds = generate_bipartite(&BipartiteConfig::tiny("ndd", 113));
        let sim = WeightedCosine::fit(&ds);
        let (graph, _) = NnDescent::new(GreedyConfig::new(6)).run(&ds, &sim);
        for u in 0..ds.num_users() as u32 {
            let ids: Vec<u32> = graph.neighbors(u).iter().map(|x| x.id).collect();
            assert!(!ids.contains(&u));
            let mut d = ids.clone();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), ids.len());
        }
    }
}
