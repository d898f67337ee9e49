//! The refinement phase: greedy convergence over the Ranked Candidate Sets
//! (Algorithm 1, lines 5–16), instrumented.
//!
//! Each popped batch is scored through
//! [`kiff_similarity::score_candidates`]: the user's profile is prepared
//! once per iteration through [`Similarity::scorer`] and the batch is
//! scored along the shorter side of the bipartite graph (the candidates'
//! profiles or the user's item rows, see `kiff_similarity::scorer`),
//! while a batch below `PREPARED_MIN_BATCH` is scored pairwise. Refining
//! over `kiff_similarity::Pairwise` of the metric scores every candidate
//! pairwise and builds the identical graph (the `counting` bench
//! baseline). Every evaluation counts once in `similarity.scores`.
//!
//! [`TimingMode`], a [`KiffConfig`] policy, samples per-activity
//! wall-clock accumulation (1 in 64 scheduling chunks) by default so the
//! per-user timestamp syscalls disappear from the steady state; totals
//! are rescaled by the timed fraction and reported with their coverage
//! in [`KiffStats`].
//!
//! Each popped batch is offered to both users' heaps through
//! [`SharedKnn::update_batch`]: the owner's heap takes the batch under one
//! lock, and every candidate's heap takes its reverse offer, each heap in
//! candidate order as a pair-by-pair loop would offer them. Most offers
//! in a converging build lose to the heap's worst entry, and a per-user
//! admission hint turns those away after one atomic load, without the
//! row's lock or its duplicate scan; the reverse side filters a batch by
//! hint first and prefetches the rows of the offers that pass. The batch
//! counts what the locked path would, so change counts, β termination and
//! graphs do not depend on the hint.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use kiff_dataset::Dataset;
use kiff_graph::{KnnGraph, SharedKnn};
use kiff_parallel::{effective_threads, parallel_fold, Counter, ScratchPool, TimeAccumulator};
use kiff_similarity::{score_candidates, ScorerWorkspace, Similarity};

pub use kiff_graph::observer::{IterationObserver, IterationTrace, NoObserver};

use crate::config::{KiffConfig, TimingMode};
use crate::counting::RankedCandidates;

/// Scheduling grain of the refinement loop (users per work unit).
const GRAIN: usize = 32;

/// Under [`TimingMode::Sampled`], one in this many scheduling chunks is
/// timed.
const TIMING_SAMPLE: usize = 64;

/// Instrumentation of a full KIFF run, matching the metrics of §IV-C.
///
/// The same quantities (and more) are recorded into the run's
/// [`kiff_telemetry::Registry`] ([`KiffConfig::telemetry`]): the
/// `core.refine.sims` / `core.refine.heap_offers` /
/// `core.refine.iterations` counters and the `core.phase.*_ns`
/// histograms subsume this struct's timing fields with exportable,
/// cross-layer instruments — prefer the registry when aggregating over
/// several runs or layers; `KiffStats` remains the per-run return
/// value.
#[derive(Debug, Clone, Default)]
pub struct KiffStats {
    /// Iterations executed by the refinement loop.
    pub iterations: usize,
    /// Total similarity evaluations.
    pub sim_evals: u64,
    /// `sim_evals / (|U|·(|U|−1)/2)` — the scan rate.
    pub scan_rate: f64,
    /// Wall time of item-profile construction (Table IV's Δ).
    pub item_profile_time: Duration,
    /// Wall time of RCS construction (Table V).
    pub rcs_time: Duration,
    /// Aggregated worker time selecting candidates: RCS pops and the
    /// heap offers of [`SharedKnn::update_batch`], almost all of it the
    /// offers, and mostly memory stalls on the reverse side's random
    /// rows (on the DBLP stand-in, about as long as
    /// [`KiffStats::similarity_time`]). Under [`TimingMode::Sampled`] this
    /// is an estimate: the measured total rescaled by
    /// [`KiffStats::timing_coverage`].
    pub candidate_selection_time: Duration,
    /// Aggregated worker time evaluating similarities (same sampling
    /// caveat as [`KiffStats::candidate_selection_time`]).
    pub similarity_time: Duration,
    /// Fraction of similarity evaluations whose chunk was timed: 1.0
    /// under [`TimingMode::Full`], ~1/64 under [`TimingMode::Sampled`],
    /// 0.0 under [`TimingMode::Off`].
    pub timing_coverage: f64,
    /// End-to-end wall time of the run (counting + refinement).
    pub total_time: Duration,
    /// Per-iteration traces.
    pub per_iteration: Vec<IterationTrace>,
    /// Average RCS length (Table V).
    pub avg_rcs_len: f64,
    /// Σ|RCS| — the similarity-evaluation bound.
    pub total_rcs: usize,
}

impl KiffStats {
    /// Preprocessing wall time: item profiles + RCS construction (the
    /// paper's "preprocessing" bar in Fig. 5 minus dataset loading, which
    /// is common to all approaches).
    pub fn preprocessing_time(&self) -> Duration {
        self.item_profile_time + self.rcs_time
    }

    /// Average number of graph updates per user per iteration (Fig. 8b).
    pub fn updates_per_user(&self, num_users: usize) -> Vec<f64> {
        self.per_iteration
            .iter()
            .map(|t| t.changes as f64 / num_users.max(1) as f64)
            .collect()
    }
}

/// Runs the refinement loop over pre-built RCSs, returning the graph and
/// the loop's share of the statistics (the caller owns phase timings for
/// the counting phase).
pub fn refine<S: Similarity + ?Sized>(
    dataset: &Dataset,
    sim: &S,
    rcs: &RankedCandidates,
    config: &KiffConfig,
    observer: &mut dyn IterationObserver,
) -> (KnnGraph, KiffStats) {
    let n = dataset.num_users();
    let threads = effective_threads(config.threads);
    let shared = SharedKnn::new(n, config.k);
    // Per-user cursor into the RCS; owned by whichever worker holds the
    // user's chunk in the current iteration (chunks are disjoint).
    let cursors: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();

    let sim_evals = Counter::new();
    let timed_evals = Counter::new();
    let changes = Counter::new();
    let candidate_time = TimeAccumulator::new();
    let similarity_time = TimeAccumulator::new();
    // Telemetry handles, resolved once outside the hot loop; with a
    // disabled registry each record below costs one relaxed load.
    let tele = &config.telemetry;
    let tele_sims = tele.counter("core.refine.sims");
    let tele_offers = tele.counter("core.refine.heap_offers");
    let tele_changes = tele.counter("core.refine.heap_updates");
    let tele_iterations = tele.counter("core.refine.iterations");
    let refine_span = tele.histogram("core.phase.refine_ns").span();
    // Scorer-preparation arenas: pooled *outside* the iteration loop, so
    // a workspace's dense map survives across iterations instead of being
    // rebuilt by every `parallel_fold` launch.
    let ws_registry = tele.clone();
    let workspaces: ScratchPool<ScorerWorkspace> =
        ScratchPool::with_init(move || ScorerWorkspace::with_telemetry(&ws_registry));

    let gamma = config.gamma.budget();
    let mut stats = KiffStats::default();
    let mut cumulative_evals = 0u64;

    for iteration in 1..=config.max_iterations {
        changes.take();
        let evals_before = sim_evals.get();
        let timed_before = timed_evals.get();
        let cand_before = candidate_time.total();
        let simt_before = similarity_time.total();

        parallel_fold(
            threads,
            n,
            GRAIN,
            // Per-worker state: the similarity staging buffer and the
            // checked-out scorer-preparation arena, reused across chunks
            // (and, through the pool, across iterations).
            || {
                (
                    Vec::<f64>::with_capacity(gamma.min(1024)),
                    workspaces.checkout(),
                )
            },
            |(sims, ws), range| {
                let timed = match config.timing {
                    TimingMode::Full => true,
                    TimingMode::Off => false,
                    // Chunk starts are multiples of GRAIN, so this times
                    // every TIMING_SAMPLE-th chunk (always including the
                    // first, keeping coverage non-zero on small runs).
                    TimingMode::Sampled => (range.start / GRAIN).is_multiple_of(TIMING_SAMPLE),
                };
                for u in range {
                    let uid = u as u32;
                    // top-pop(RCS_u, γ): the RCS is a sorted list, popping
                    // is advancing the cursor.
                    let select_guard = timed.then(|| candidate_time.start());
                    let list = rcs.rcs(uid);
                    let start = cursors[u].load(Ordering::Relaxed);
                    if start >= list.len() {
                        continue;
                    }
                    let end = (start.saturating_add(gamma)).min(list.len());
                    cursors[u].store(end, Ordering::Relaxed);
                    let cs = &list[start..end];
                    drop(select_guard);

                    // Similarity evaluations — one per popped candidate.
                    let sim_start = timed.then(Instant::now);
                    score_candidates(sim, dataset, uid, cs, ws, sims);
                    if let Some(t0) = sim_start {
                        similarity_time.add(t0.elapsed());
                        timed_evals.add(cs.len() as u64);
                    }
                    sim_evals.add(cs.len() as u64);
                    tele_sims.add(cs.len() as u64);
                    // Every evaluated candidate is offered to both heaps
                    // (pivot symmetry).
                    tele_offers.add(2 * cs.len() as u64);

                    // UPDATENN both ways (pivot symmetry, lines 10–12).
                    let _update_guard = timed.then(|| candidate_time.start());
                    let c = shared.update_batch(uid, cs, sims);
                    if c > 0 {
                        changes.add(c);
                    }
                }
            },
            |a, _| a,
        );

        let iter_changes = changes.get();
        let iter_evals = sim_evals.get() - evals_before;
        cumulative_evals += iter_evals;
        tele_iterations.incr();
        tele_changes.add(iter_changes);
        // Rescale this iteration's sampled measurements by its own timed
        // fraction so traces stay commensurate with the run totals (which
        // are rescaled by the overall coverage below).
        let iter_timed = timed_evals.get() - timed_before;
        let iter_scale = |d: Duration| {
            if iter_timed > 0 && iter_evals > 0 {
                d.div_f64(iter_timed as f64 / iter_evals as f64)
            } else {
                d
            }
        };
        let trace = IterationTrace {
            iteration,
            changes: iter_changes,
            sim_evals: iter_evals,
            cumulative_sim_evals: cumulative_evals,
            candidate_time: iter_scale(candidate_time.total() - cand_before),
            similarity_time: iter_scale(similarity_time.total() - simt_before),
        };
        stats.per_iteration.push(trace);
        stats.iterations = iteration;
        observer.on_iteration(trace, &shared);

        // Termination: average changes per user strictly below β (line 13;
        // strictness makes β = 0 mean "run until every RCS is exhausted"),
        // or exhaustion itself (no further evaluation is possible).
        let exhausted = iter_evals == 0;
        if exhausted || (iter_changes as f64) / (n.max(1) as f64) < config.beta {
            break;
        }
    }

    stats.sim_evals = cumulative_evals;
    let possible_pairs = n as f64 * (n as f64 - 1.0) / 2.0;
    stats.scan_rate = if possible_pairs > 0.0 {
        cumulative_evals as f64 / possible_pairs
    } else {
        0.0
    };
    // Rescale sampled measurements to full-run estimates: both activities
    // are sampled on the same chunks, so phase *shares* are exact and only
    // the magnitudes are extrapolated.
    let coverage = if cumulative_evals > 0 {
        timed_evals.get() as f64 / cumulative_evals as f64
    } else {
        0.0
    };
    stats.timing_coverage = coverage;
    let scale = |d: Duration| {
        if coverage > 0.0 {
            d.div_f64(coverage)
        } else {
            d
        }
    };
    stats.candidate_selection_time = scale(candidate_time.total());
    stats.similarity_time = scale(similarity_time.total());
    stats.avg_rcs_len = rcs.avg_len();
    stats.total_rcs = rcs.total();
    refine_span.finish();
    (shared.snapshot(threads), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Gamma;
    use crate::counting::{build_rcs, CountingConfig};
    use kiff_dataset::dataset::figure2_toy;
    use kiff_dataset::generators::bipartite::{generate_bipartite, BipartiteConfig};
    use kiff_graph::{exact_knn, Neighbor};
    use kiff_similarity::{Pairwise, WeightedCosine};

    fn run(dataset: &kiff_dataset::Dataset, config: &KiffConfig) -> (KnnGraph, KiffStats) {
        run_over(dataset, &WeightedCosine::fit(dataset), config)
    }

    fn run_over<S: Similarity + ?Sized>(
        dataset: &kiff_dataset::Dataset,
        sim: &S,
        config: &KiffConfig,
    ) -> (KnnGraph, KiffStats) {
        let rcs = build_rcs(
            dataset,
            &CountingConfig {
                threads: config.threads,
                ..Default::default()
            },
        );
        refine(dataset, sim, &rcs, config, &mut NoObserver)
    }

    #[test]
    fn toy_refinement_finds_neighbors() {
        let ds = figure2_toy();
        let (graph, stats) = run(&ds, &KiffConfig::new(1).with_threads(1));
        assert_eq!(graph.neighbors(0)[0].id, 1);
        assert_eq!(graph.neighbors(1)[0].id, 0);
        assert_eq!(graph.neighbors(2)[0].id, 3);
        assert_eq!(graph.neighbors(3)[0].id, 2);
        // Only the two sharing pairs are ever evaluated.
        assert_eq!(stats.sim_evals, 2);
        assert!(stats.scan_rate > 0.0 && stats.scan_rate < 1.0);
    }

    #[test]
    fn gamma_all_equals_exact_knn() {
        // §III-D: γ=∞ (with β=0) yields the optimal KNN under the sparse
        // axioms.
        let ds = generate_bipartite(&BipartiteConfig::tiny("exact", 29));
        let sim = WeightedCosine::fit(&ds);
        let cfg = KiffConfig {
            gamma: Gamma::All,
            beta: 0.0,
            ..KiffConfig::new(5)
        };
        let (graph, stats) = run(&ds, &cfg);
        let exact = exact_knn(&ds, &sim, 5, None);
        for u in 0..ds.num_users() as u32 {
            assert_eq!(graph.neighbors(u), exact.neighbors(u), "user {u}");
        }
        // One iteration drains everything; a second confirms exhaustion.
        assert!(stats.iterations <= 2, "iterations = {}", stats.iterations);
    }

    #[test]
    fn beta_zero_runs_to_exhaustion() {
        let ds = generate_bipartite(&BipartiteConfig::tiny("drain", 31));
        let cfg = KiffConfig::new(3).with_beta(0.0).with_threads(1);
        let (_, stats) = run(&ds, &cfg);
        // Every RCS entry is evaluated exactly once.
        assert_eq!(stats.sim_evals as usize, stats.total_rcs);
    }

    #[test]
    fn sim_evals_never_exceed_rcs_bound() {
        let ds = generate_bipartite(&BipartiteConfig::tiny("bound", 37));
        for beta in [0.0, 0.001, 0.1] {
            let cfg = KiffConfig::new(4).with_beta(beta);
            let (_, stats) = run(&ds, &cfg);
            assert!(
                stats.sim_evals as usize <= stats.total_rcs,
                "β={beta}: {} > {}",
                stats.sim_evals,
                stats.total_rcs
            );
        }
    }

    #[test]
    fn larger_beta_stops_earlier() {
        let ds = generate_bipartite(&BipartiteConfig::tiny("beta", 41));
        let (_, strict) = run(&ds, &KiffConfig::new(4).with_beta(0.0).with_threads(1));
        let (_, loose) = run(&ds, &KiffConfig::new(4).with_beta(0.5).with_threads(1));
        assert!(loose.sim_evals <= strict.sim_evals);
        assert!(loose.iterations <= strict.iterations);
    }

    #[test]
    fn traces_are_cumulative_and_consistent() {
        let ds = generate_bipartite(&BipartiteConfig::tiny("trace", 43));
        let (_, stats) = run(&ds, &KiffConfig::new(4).with_threads(1));
        assert_eq!(stats.per_iteration.len(), stats.iterations);
        let mut cum = 0;
        for t in &stats.per_iteration {
            cum += t.sim_evals;
            assert_eq!(t.cumulative_sim_evals, cum);
        }
        assert_eq!(cum, stats.sim_evals);
        // First iteration makes by far the most changes (RCS ordering).
        if stats.per_iteration.len() > 1 {
            assert!(stats.per_iteration[0].changes >= stats.per_iteration.last().unwrap().changes);
        }
    }

    #[test]
    fn observer_sees_every_iteration() {
        let ds = generate_bipartite(&BipartiteConfig::tiny("obs", 47));
        let rcs = build_rcs(&ds, &CountingConfig::default());
        let sim = WeightedCosine::fit(&ds);
        let mut seen = Vec::new();
        let mut observer = |trace: IterationTrace, state: &SharedKnn| {
            assert_eq!(state.num_users(), ds.num_users());
            seen.push(trace.iteration);
        };
        let (_, stats) = refine(&ds, &sim, &rcs, &KiffConfig::new(3), &mut observer);
        assert_eq!(seen, (1..=stats.iterations).collect::<Vec<_>>());
    }

    #[test]
    fn prepared_and_pairwise_scoring_build_identical_graphs() {
        let ds = generate_bipartite(&BipartiteConfig::tiny("score", 59));
        let base = KiffConfig::new(5).with_beta(0.0);
        let (g_prepared, s_prepared) = run(&ds, &base);
        let (g_pairwise, s_pairwise) = run_over(&ds, &Pairwise(&WeightedCosine::fit(&ds)), &base);
        assert_eq!(s_prepared.sim_evals, s_pairwise.sim_evals);
        for u in 0..ds.num_users() as u32 {
            assert_eq!(g_prepared.neighbors(u), g_pairwise.neighbors(u), "user {u}");
        }
    }

    #[test]
    fn timing_modes_do_not_change_results() {
        let ds = generate_bipartite(&BipartiteConfig::tiny("time", 61));
        let base = KiffConfig::new(4).with_beta(0.0).with_threads(1);
        let (g_full, s_full) = run(&ds, &base.clone().with_timing(TimingMode::Full));
        let (g_sampled, s_sampled) = run(&ds, &base.clone().with_timing(TimingMode::Sampled));
        let (g_off, s_off) = run(&ds, &base.with_timing(TimingMode::Off));
        for u in 0..ds.num_users() as u32 {
            assert_eq!(g_full.neighbors(u), g_sampled.neighbors(u));
            assert_eq!(g_full.neighbors(u), g_off.neighbors(u));
        }
        assert!((s_full.timing_coverage - 1.0).abs() < 1e-12);
        // Single-threaded on a small dataset every chunk may fall in the
        // sampled stride, but coverage is always in (0, 1].
        assert!(s_sampled.timing_coverage > 0.0 && s_sampled.timing_coverage <= 1.0);
        assert_eq!(s_off.timing_coverage, 0.0);
        assert_eq!(s_off.similarity_time, Duration::ZERO);
        assert_eq!(s_off.candidate_selection_time, Duration::ZERO);
    }

    /// Tripwire for the offer order: one-threaded `refine` equals an
    /// oracle that pops the same RCS batches and offers every scored pair
    /// interleaved, `u ← v` then `v ← u`, to plain [`KnnHeap`]s: the same
    /// graph (ids and similarity bits), evaluations, iterations and
    /// per-iteration change counts. Change counts depend on the order
    /// each heap sees its offers in, so a batch path that reorders any
    /// heap's offers shows here even where the final graph would not.
    #[test]
    fn one_thread_refine_equals_interleaved_heap_offers() {
        use kiff_graph::KnnHeap;
        for (name, seed) in [("order-a", 71), ("order-b", 73), ("order-c", 79)] {
            let ds = generate_bipartite(&BipartiteConfig::tiny(name, seed));
            let sim = WeightedCosine::fit(&ds);
            let n = ds.num_users();
            let rcs = build_rcs(&ds, &CountingConfig::default());
            for k in [1, 5] {
                for beta in [0.0, 0.001] {
                    let config = KiffConfig::new(k).with_beta(beta).with_threads(1);
                    let (graph, stats) = refine(&ds, &sim, &rcs, &config, &mut NoObserver);

                    let mut heaps: Vec<KnnHeap> = (0..n).map(|_| KnnHeap::new(k)).collect();
                    let mut cursors = vec![0usize; n];
                    let (mut evals, mut changes) = (0u64, Vec::new());
                    for _ in 0..config.max_iterations {
                        let (mut iter_changes, mut iter_evals) = (0u64, 0u64);
                        for u in 0..n as u32 {
                            let list = rcs.rcs(u);
                            let start = cursors[u as usize];
                            let end = start.saturating_add(config.gamma.budget()).min(list.len());
                            cursors[u as usize] = end;
                            for &v in &list[start..end] {
                                let s = sim.sim(&ds, u, v);
                                iter_changes += u64::from(heaps[u as usize].update(s, v));
                                iter_changes += u64::from(heaps[v as usize].update(s, u));
                                iter_evals += 1;
                            }
                        }
                        evals += iter_evals;
                        changes.push(iter_changes);
                        if iter_evals == 0 || (iter_changes as f64) / (n as f64) < beta {
                            break;
                        }
                    }

                    let case = format!("{name}, k = {k}, β = {beta}");
                    assert_eq!(stats.sim_evals, evals, "{case}");
                    assert_eq!(stats.iterations, changes.len(), "{case}");
                    let traced: Vec<u64> = stats.per_iteration.iter().map(|t| t.changes).collect();
                    assert_eq!(traced, changes, "{case}");
                    for u in 0..n as u32 {
                        let bits = |row: &[Neighbor]| -> Vec<(u32, u64)> {
                            row.iter().map(|e| (e.id, e.sim.to_bits())).collect()
                        };
                        let want = heaps[u as usize].sorted_neighbors();
                        assert_eq!(bits(graph.neighbors(u)), bits(&want), "{case}, user {u}");
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_exhaustive_matches_sequential() {
        let ds = generate_bipartite(&BipartiteConfig::tiny("par", 53));
        let cfg_seq = KiffConfig::new(5).with_beta(0.0).with_threads(1);
        let cfg_par = KiffConfig::new(5).with_beta(0.0).with_threads(8);
        let (g_seq, _) = run(&ds, &cfg_seq);
        let (g_par, _) = run(&ds, &cfg_par);
        // With β=0 every pair is evaluated regardless of scheduling, and
        // heap contents are order-independent for distinct ids.
        for u in 0..ds.num_users() as u32 {
            assert_eq!(g_seq.neighbors(u), g_par.neighbors(u), "user {u}");
        }
    }
}
