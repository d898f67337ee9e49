//! Equivalence guarantees: KIFF in exact mode against brute force, across
//! metrics, thread counts, and counting paths (the §III-D optimality
//! argument, machine-checked).

use kiff::prelude::*;
use kiff_core::{CountStrategy, KiffConfig};
use kiff_dataset::generators::bipartite::{generate_bipartite, BipartiteConfig};
use kiff_dataset::generators::coauthor::{generate_coauthorship, CoauthorConfig};
use kiff_graph::exact_knn_brute;
use kiff_similarity::Similarity;

fn assert_graphs_equal(a: &KnnGraph, b: &KnnGraph, label: &str) {
    assert_eq!(a.num_users(), b.num_users());
    for u in 0..a.num_users() as u32 {
        assert_eq!(a.neighbors(u), b.neighbors(u), "{label}: user {u}");
    }
}

fn exact_kiff<S: Similarity>(ds: &Dataset, sim: &S, k: usize, threads: usize) -> KnnGraph {
    Kiff::new(KiffConfig::exact(k).with_threads(threads))
        .run(ds, sim)
        .graph
}

#[test]
fn kiff_exact_mode_equals_brute_force_cosine() {
    let ds = generate_bipartite(&BipartiteConfig::tiny("eq-cos", 31));
    let sim = WeightedCosine::fit(&ds);
    for k in [1, 3, 10] {
        let kiff = exact_kiff(&ds, &sim, k, 1);
        let brute = exact_knn_brute(&ds, &sim, k, Some(1));
        assert_graphs_equal(&kiff, &brute, &format!("cosine k={k}"));
    }
}

#[test]
fn kiff_exact_mode_equals_brute_force_other_metrics() {
    let ds = generate_bipartite(&BipartiteConfig::tiny("eq-m", 37));
    let aa = AdamicAdar::fit(&ds);
    let metrics: Vec<(&str, &dyn Similarity)> = vec![
        ("jaccard", &Jaccard),
        ("weighted-jaccard", &WeightedJaccard),
        ("dice", &Dice),
        ("binary-cosine", &BinaryCosine),
        ("adamic-adar", &aa),
    ];
    for (name, sim) in metrics {
        let kiff = Kiff::new(KiffConfig::exact(5).with_threads(1))
            .run(&ds, sim)
            .graph;
        let brute = exact_knn_brute(&ds, sim, 5, Some(1));
        assert_graphs_equal(&kiff, &brute, name);
    }
}

#[test]
fn kiff_exact_mode_on_coauthorship() {
    let ds = generate_coauthorship(&CoauthorConfig {
        weighted: true,
        ..CoauthorConfig::tiny("eq-coa", 41)
    });
    let sim = WeightedCosine::fit(&ds);
    let kiff = exact_kiff(&ds, &sim, 4, 1);
    let brute = exact_knn_brute(&ds, &sim, 4, Some(1));
    assert_graphs_equal(&kiff, &brute, "coauthorship");
}

#[test]
fn thread_counts_do_not_change_exhaustive_results() {
    let ds = generate_bipartite(&BipartiteConfig::tiny("eq-t", 43));
    let sim = WeightedCosine::fit(&ds);
    let reference = exact_kiff(&ds, &sim, 7, 1);
    for threads in [2, 4, 8] {
        let parallel = exact_kiff(&ds, &sim, 7, threads);
        assert_graphs_equal(&reference, &parallel, &format!("{threads} threads"));
    }
}

#[test]
fn counting_strategies_yield_identical_graphs() {
    let ds = generate_bipartite(&BipartiteConfig::tiny("eq-s", 47));
    let sim = WeightedCosine::fit(&ds);
    let run = |strategy| {
        let config = KiffConfig::exact(6)
            .with_threads(1)
            .with_count_strategy(strategy);
        Kiff::new(config).run(&ds, &sim).graph
    };
    let dense = run(CountStrategy::Dense);
    let reference = run(CountStrategy::Reference);
    assert_graphs_equal(&dense, &reference, "count strategies");
}

#[test]
fn exact_mode_recall_is_exactly_one() {
    let ds = generate_bipartite(&BipartiteConfig::tiny("eq-r", 53));
    let sim = WeightedCosine::fit(&ds);
    let exact = exact_knn(&ds, &sim, 8, None);
    let kiff = exact_kiff(&ds, &sim, 8, 4);
    assert_eq!(recall(&exact, &kiff), 1.0);
}

#[test]
fn default_beta_only_trades_tail_recall() {
    // With the default β = 0.001 the scan rate must not exceed the exact
    // mode's, and recall stays within a whisker of 1 (Table II's 0.99).
    let ds = generate_bipartite(&BipartiteConfig::tiny("eq-b", 59));
    let sim = WeightedCosine::fit(&ds);
    let exact_cfg = Kiff::new(KiffConfig::exact(10)).run(&ds, &sim);
    let default_cfg = Kiff::new(KiffConfig::new(10)).run(&ds, &sim);
    assert!(default_cfg.stats.sim_evals <= exact_cfg.stats.sim_evals);
    let exact = exact_knn(&ds, &sim, 10, None);
    assert!(recall(&exact, &default_cfg.graph) > 0.95);
}
