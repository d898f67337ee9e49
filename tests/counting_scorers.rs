//! Cross-crate properties of the counting-phase strategies and the
//! prepared-scorer layer (the two hot paths rewritten for the flat-CSR /
//! prepared-scorer PR):
//!
//! * every [`CountStrategy`] — and the retained pre-rewrite reference
//!   pipeline — produces *identical* [`RankedCandidates`] (ids and
//!   counts) across pivot / rating-threshold / max-RCS combinations;
//! * every metric's prepared [`Scorer`] reproduces its pairwise
//!   [`Similarity::sim`] within [`SIM_EPSILON`], on both the dense and
//!   the low-degree fallback paths;
//! * every metric's batch entry point, [`Scorer::score_into`], equals
//!   [`Similarity::sim`] bit for bit on every position of any batch,
//!   whether the batch scans the candidates' profiles or walks the
//!   reference's item rows — and both paths run;
//! * every *algorithm* of the comparison suite — NN-Descent, HyRec, LSH,
//!   the random initialisation and both exact constructions — builds the
//!   identical graph under [`ScoringMode::Prepared`] and
//!   [`ScoringMode::Pairwise`], across metric families.

use proptest::prelude::*;

use kiff::prelude::*;
use kiff::{Algorithm, KnnGraphBuilder, Metric};
use kiff_baselines::random_graph_with;
use kiff_core::{build_rcs, build_rcs_reference, CountStrategy, CountingConfig};
use kiff_dataset::generators::bipartite::{generate_bipartite, BipartiteConfig};
use kiff_dataset::generators::RatingModel;
use kiff_graph::{exact_knn_brute_with, exact_knn_with};
use kiff_similarity::{ScorerWorkspace, ScoringMode, SIM_EPSILON};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A small random dataset strategy: up to 40 users, 30 items, star
/// ratings so the rating threshold has something to prune.
fn arb_dataset() -> impl Strategy<Value = Dataset> {
    (
        2usize..40,
        2usize..30,
        proptest::collection::vec((0u32..40, 0u32..30, 1u32..6), 1..300),
    )
        .prop_map(|(nu, ni, triples)| {
            let mut b = DatasetBuilder::new("prop", nu, ni);
            for (u, i, r) in triples {
                b.add_rating(u % nu as u32, i % ni as u32, r as f32);
            }
            b.build()
        })
}

/// [`arb_dataset`] with one more user, user 0, who rates nothing. The
/// empty profile takes the lowest id so that a batch's largest id is
/// mostly a user who rates something.
fn arb_dataset_with_empty_user() -> impl Strategy<Value = Dataset> {
    arb_dataset().prop_map(|ds| {
        let mut b = DatasetBuilder::new("prop-empty", ds.num_users() + 1, ds.num_items());
        for (u, i, r) in ds.iter_ratings() {
            b.add_rating(u + 1, i, r);
        }
        b.build()
    })
}

/// Scores `batch` against every reference user through
/// [`Scorer::score_into`] and checks each position's bits against
/// [`Similarity::sim`]; `batch_of(u)` builds the batch for reference `u`.
fn check_batches(
    ds: &Dataset,
    metric: &dyn Similarity,
    ws: &mut ScorerWorkspace,
    batch_of: &mut dyn FnMut(u32) -> Vec<u32>,
) -> Result<(), String> {
    let mut out = Vec::new();
    for u in 0..ds.num_users() as u32 {
        let batch = batch_of(u);
        metric.scorer(ds, u, ws).score_into(&batch, &mut out);
        if out.len() != batch.len() {
            return Err(format!(
                "{}: {} scores for {} candidates",
                metric.name(),
                out.len(),
                batch.len()
            ));
        }
        for (&v, &s) in batch.iter().zip(&out) {
            let expected = metric.sim(ds, u, v);
            if s.to_bits() != expected.to_bits() {
                return Err(format!(
                    "{}: ({u}, {v}) batch score {s} vs pairwise {expected}",
                    metric.name()
                ));
            }
        }
    }
    Ok(())
}

/// Every metric of the crate, fitted and unfitted cosine included, each
/// with whether its scorer can walk: the unfitted cosine and weighted
/// Jaccard close on whole-profile state (a norm, a rating total), so
/// they always scan.
fn all_metrics(ds: &Dataset) -> Vec<(Box<dyn Similarity>, bool)> {
    vec![
        (Box::new(WeightedCosine::fit(ds)), true),
        (Box::new(WeightedCosine::new()), false),
        (Box::new(BinaryCosine), true),
        (Box::new(Jaccard), true),
        (Box::new(WeightedJaccard), false),
        (Box::new(Dice), true),
        (Box::new(CommonItems), true),
        (Box::new(AdamicAdar::fit(ds)), true),
    ]
}

/// Over random batches of every reference of a few generated datasets,
/// both batch paths run for each metric that can walk: the item walk
/// scores some candidates and the scan the rest (`similarity.walks`
/// against `similarity.scores`). Every score equals `sim` bit for bit.
#[test]
fn batch_scoring_takes_both_paths() {
    let datasets: Vec<Dataset> = (0..4)
        .map(|seed| {
            generate_bipartite(&BipartiteConfig {
                rating_model: RatingModel::Stars { half_steps: true },
                ..BipartiteConfig::tiny("batches", seed)
            })
        })
        .collect();
    for index in 0..all_metrics(&datasets[0]).len() {
        let registry = kiff_telemetry::Registry::new();
        let (mut name, mut can_walk) = ("", false);
        for (seed, ds) in datasets.iter().enumerate() {
            let (metric, walks) = all_metrics(ds).swap_remove(index);
            (name, can_walk) = (metric.name(), walks);
            let mut ws = ScorerWorkspace::with_telemetry(&registry);
            let mut rng = StdRng::seed_from_u64(seed as u64);
            let n = ds.num_users() as u32;
            let mut batch_of = |_| {
                let len = rng.gen_range(1..48usize);
                (0..len).map(|_| rng.gen_range(0..n)).collect()
            };
            check_batches(ds, metric.as_ref(), &mut ws, &mut batch_of).unwrap();
        }
        let snap = registry.snapshot();
        let scores = snap.counter("similarity.scores").unwrap_or(0);
        let walks = snap.counter("similarity.walks").unwrap_or(0);
        assert!(scores > 0, "{name}");
        if can_walk {
            assert!(
                0 < walks && walks < scores,
                "{name}: {walks} of {scores} walked"
            );
        } else {
            assert_eq!(walks, 0, "{name}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Dense, sort-based and hash-based counting — and the reference
    /// per-user-Vec pipeline — agree entry for entry on ids *and* counts
    /// under every pivot/threshold/cap combination.
    #[test]
    fn all_count_strategies_agree(
        ds in arb_dataset(),
        pivot in any::<bool>(),
        threshold in 0u32..5,   // 0 = no rating threshold
        cap in 0usize..12,      // 0 = uncapped RCSs
    ) {
        let config = |strategy| CountingConfig {
            pivot,
            keep_counts: true,
            threads: Some(2),
            strategy,
            rating_threshold: (threshold > 0).then_some(threshold as f32),
            max_rcs: (cap > 0).then_some(cap),
        };
        let reference = build_rcs_reference(&ds, &config(CountStrategy::SortBased));
        for strategy in [
            CountStrategy::Dense,
            CountStrategy::SortBased,
            CountStrategy::HashBased,
            CountStrategy::Auto,
        ] {
            let rcs = build_rcs(&ds, &config(strategy));
            prop_assert_eq!(rcs.num_users(), reference.num_users());
            for u in 0..ds.num_users() as u32 {
                prop_assert_eq!(
                    rcs.rcs(u), reference.rcs(u),
                    "{:?} ids diverge for user {}", strategy, u
                );
                prop_assert_eq!(
                    rcs.counts(u), reference.counts(u),
                    "{:?} counts diverge for user {}", strategy, u
                );
            }
        }
    }

    /// Prepared scorers equal pairwise `sim.sim` within `SIM_EPSILON` for
    /// every metric, over every user pair of a random dataset (covering
    /// both the dense-stamp and the small-profile fallback paths).
    #[test]
    fn prepared_scorers_match_pairwise(ds in arb_dataset()) {
        let fitted = WeightedCosine::fit(&ds);
        let unfitted = WeightedCosine::new();
        let aa = AdamicAdar::fit(&ds);
        let metrics: Vec<&dyn Similarity> = vec![
            &fitted,
            &unfitted,
            &BinaryCosine,
            &Jaccard,
            &WeightedJaccard,
            &Dice,
            &CommonItems,
            &aa,
        ];
        let n = ds.num_users() as u32;
        let mut ws = ScorerWorkspace::new();
        for m in metrics {
            for u in 0..n {
                let mut scorer = m.scorer(&ds, u, &mut ws);
                for v in 0..n {
                    let prepared = scorer.score(v);
                    let pairwise = m.sim(&ds, u, v);
                    prop_assert!(
                        (prepared - pairwise).abs() <= SIM_EPSILON,
                        "{}: ({}, {}) prepared {} vs pairwise {}",
                        m.name(), u, v, prepared, pairwise
                    );
                }
            }
        }
    }

    /// Batch scoring equals `sim` bit for bit for every metric, on
    /// batches holding unsorted and repeated ids, the reference itself,
    /// users sharing nothing with it and a user with an empty profile —
    /// who is also a reference.
    #[test]
    fn batch_scores_equal_sim_bit_for_bit(
        ds in arb_dataset_with_empty_user(),
        raw in proptest::collection::vec(0u32..64, 0..24),
    ) {
        let n = ds.num_users() as u32;
        let mut ws = ScorerWorkspace::new();
        for (metric, _) in all_metrics(&ds) {
            let mut batch_of = |u| raw.iter().map(|&v| v % n).chain([u, 0]).collect();
            let checked = check_batches(&ds, metric.as_ref(), &mut ws, &mut batch_of);
            prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
        }
    }

    /// Every baseline algorithm builds the identical graph under
    /// prepared and pairwise scoring, for every metric family. Runs
    /// multi-threaded: the greedy baselines count changes and retag NN
    /// flags by post-join membership diffs, so a parallel run is the same
    /// deterministic sweep as a serial one and the comparison stays bit
    /// for bit (the ROADMAP's tie-break follow-up).
    #[test]
    fn baselines_invariant_under_scoring(ds in arb_dataset(), k in 1usize..6, seed in 0u64..1000) {
        for metric in [Metric::Cosine, Metric::Jaccard, Metric::AdamicAdar] {
            for algorithm in [
                Algorithm::NnDescent,
                Algorithm::HyRec,
                Algorithm::Lsh,
                Algorithm::Exact,
            ] {
                let build = |scoring| KnnGraphBuilder::new(k)
                    .algorithm(algorithm)
                    .metric(metric)
                    .scoring(scoring)
                    .seed(seed)
                    .threads(2)
                    .build(&ds);
                let prepared = build(ScoringMode::Prepared);
                let pairwise = build(ScoringMode::Pairwise);
                for u in 0..ds.num_users() as u32 {
                    prop_assert_eq!(
                        prepared.neighbors(u), pairwise.neighbors(u),
                        "{:?}/{:?} user {}", algorithm, metric, u
                    );
                }
            }
        }
        // The pieces the builder facade does not reach: the standalone
        // random graph and the brute-force exact construction.
        let sim = WeightedCosine::fit(&ds);
        let rg_p = random_graph_with(&ds, &sim, k, seed, ScoringMode::Prepared);
        let rg_w = random_graph_with(&ds, &sim, k, seed, ScoringMode::Pairwise);
        prop_assert_eq!(rg_p, rg_w, "random init diverged");
        let br_p = exact_knn_brute_with(&ds, &sim, k, Some(2), ScoringMode::Prepared);
        let br_w = exact_knn_brute_with(&ds, &sim, k, Some(2), ScoringMode::Pairwise);
        prop_assert_eq!(&br_p, &br_w, "brute exact diverged");
        // And the brute path must agree with the shared-kernel inverted
        // index (the Eq. 5-6 equivalence the kernel refactor preserves).
        let inv = exact_knn_with(&ds, &sim, k, Some(2), ScoringMode::Prepared);
        prop_assert_eq!(&br_p, &inv, "brute vs inverted diverged");
    }

    /// End to end: KIFF graphs are invariant under counting strategy and
    /// scoring mode (exact mode, so the comparison is deterministic).
    #[test]
    fn kiff_invariant_under_strategy_and_scoring(ds in arb_dataset(), k in 1usize..6) {
        use kiff_core::{KiffConfig, ScoringMode};
        let sim = WeightedCosine::fit(&ds);
        let reference = Kiff::new(KiffConfig::exact(k).with_threads(1)).run(&ds, &sim).graph;
        for strategy in [CountStrategy::Dense, CountStrategy::HashBased] {
            for scoring in [ScoringMode::Prepared, ScoringMode::Pairwise] {
                let config = KiffConfig::exact(k)
                    .with_threads(1)
                    .with_count_strategy(strategy)
                    .with_scoring(scoring);
                let graph = Kiff::new(config).run(&ds, &sim).graph;
                for u in 0..ds.num_users() as u32 {
                    prop_assert_eq!(
                        graph.neighbors(u), reference.neighbors(u),
                        "{:?}/{:?} user {}", strategy, scoring, u
                    );
                }
            }
        }
    }
}
