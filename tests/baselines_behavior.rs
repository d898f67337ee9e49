//! Behavioural shape tests: the qualitative claims of the paper's
//! evaluation must hold on our synthetic sparse data.

use kiff::prelude::*;
use kiff_dataset::PaperDataset;
use kiff_graph::{IterationTrace, SharedKnn};

fn sparse_dataset() -> Dataset {
    // A small Gowalla-like dataset: very sparse, skewed.
    PaperDataset::Gowalla.generate(0.01, 99)
}

#[test]
fn kiff_needs_fewer_similarity_evaluations() {
    // The core claim (Tables II-III): on sparse data KIFF's scan rate is a
    // fraction of the greedy baselines'.
    let ds = sparse_dataset();
    let k = 10;
    let sim = WeightedCosine::fit(&ds);
    let kiff = Kiff::new(KiffConfig::new(k)).run(&ds, &sim);
    let (_, nnd) = NnDescent::new(GreedyConfig::new(k)).run(&ds, &sim);
    let (_, hyrec) = HyRec::new(GreedyConfig::new(k)).run(&ds, &sim);
    assert!(
        kiff.stats.scan_rate < nnd.scan_rate / 2.0,
        "kiff {} vs nn-descent {}",
        kiff.stats.scan_rate,
        nnd.scan_rate
    );
    assert!(
        kiff.stats.scan_rate < hyrec.scan_rate / 2.0,
        "kiff {} vs hyrec {}",
        kiff.stats.scan_rate,
        hyrec.scan_rate
    );
}

#[test]
fn kiff_recall_at_least_matches_baselines() {
    let ds = sparse_dataset();
    let k = 10;
    let sim = WeightedCosine::fit(&ds);
    let exact = exact_knn(&ds, &sim, k, None);
    let kiff = recall(&exact, &Kiff::new(KiffConfig::new(k)).run(&ds, &sim).graph);
    let nnd = recall(
        &exact,
        &NnDescent::new(GreedyConfig::new(k)).run(&ds, &sim).0,
    );
    let hyrec = recall(&exact, &HyRec::new(GreedyConfig::new(k)).run(&ds, &sim).0);
    assert!(kiff > 0.97, "kiff recall {kiff}");
    assert!(kiff + 1e-9 >= nnd, "kiff {kiff} vs nn-descent {nnd}");
    assert!(kiff + 1e-9 >= hyrec, "kiff {kiff} vs hyrec {hyrec}");
}

#[test]
fn smaller_k_degrades_baselines_more_than_kiff() {
    // Table VIII's shape: halving k costs the greedy approaches recall,
    // while KIFF stays put.
    let ds = sparse_dataset();
    let sim = WeightedCosine::fit(&ds);
    let (k_big, k_small) = (10, 5);

    let exact_big = exact_knn(&ds, &sim, k_big, None);
    let exact_small = exact_knn(&ds, &sim, k_small, None);

    let kiff_big = recall(
        &exact_big,
        &Kiff::new(KiffConfig::new(k_big)).run(&ds, &sim).graph,
    );
    let kiff_small = recall(
        &exact_small,
        &Kiff::new(KiffConfig::new(k_small)).run(&ds, &sim).graph,
    );
    let nnd_big = recall(
        &exact_big,
        &NnDescent::new(GreedyConfig::new(k_big)).run(&ds, &sim).0,
    );
    let nnd_small = recall(
        &exact_small,
        &NnDescent::new(GreedyConfig::new(k_small)).run(&ds, &sim).0,
    );

    let kiff_drop = kiff_big - kiff_small;
    let nnd_drop = nnd_big - nnd_small;
    assert!(
        kiff_drop < 0.02,
        "KIFF's recall moved by {kiff_drop} when k halved"
    );
    assert!(
        nnd_drop >= kiff_drop - 1e-9,
        "NN-Descent drop {nnd_drop} vs KIFF drop {kiff_drop}"
    );
}

#[test]
fn kiff_first_iteration_recall_dominates_random_start() {
    // Fig. 8a's shape: KIFF's first iteration already reaches a high
    // recall, while a greedy baseline's first iteration is far lower.
    let ds = sparse_dataset();
    let k = 10;
    let sim = WeightedCosine::fit(&ds);
    let exact = exact_knn(&ds, &sim, k, None);

    let first_recall = |points: &mut Vec<f64>| points.first().copied().unwrap_or(0.0);

    let mut kiff_points = Vec::new();
    {
        let mut obs = |_t: IterationTrace, s: &SharedKnn| {
            kiff_points.push(recall(&exact, &s.snapshot(1)));
        };
        Kiff::new(KiffConfig::new(k)).run_observed(&ds, &sim, &mut obs);
    }
    let mut nnd_points = Vec::new();
    {
        let mut obs = |_t: IterationTrace, s: &SharedKnn| {
            nnd_points.push(recall(&exact, &s.snapshot(1)));
        };
        NnDescent::new(GreedyConfig::new(k)).run_observed(&ds, &sim, &mut obs);
    }
    let kiff_first = first_recall(&mut kiff_points);
    let nnd_first = first_recall(&mut nnd_points);
    assert!(
        kiff_first > nnd_first,
        "KIFF first-iteration recall {kiff_first} vs NN-Descent {nnd_first}"
    );
    assert!(kiff_first > 0.5, "KIFF starts at {kiff_first}");
}

#[test]
fn baselines_recall_improves_across_iterations() {
    let ds = sparse_dataset();
    let k = 8;
    let sim = WeightedCosine::fit(&ds);
    let exact = exact_knn(&ds, &sim, k, None);
    let mut points = Vec::new();
    let mut obs = |_t: IterationTrace, s: &SharedKnn| {
        points.push(recall(&exact, &s.snapshot(1)));
    };
    NnDescent::new(GreedyConfig::new(k)).run_observed(&ds, &sim, &mut obs);
    assert!(points.len() >= 2, "needs at least two iterations");
    let (first, last) = (points[0], *points.last().unwrap());
    assert!(last > first, "no convergence: {first} -> {last}");
}

#[test]
fn density_crossover_shape() {
    // Fig. 10's shape in miniature: KIFF's scan rate falls sharply with
    // density while NN-Descent's barely moves, so KIFF's relative
    // advantage grows as data gets sparser. Needs k << n for the greedy
    // regime to be meaningful, hence the larger base dataset.
    let base = kiff_dataset::generators::movielens_like(0.3, 5);
    let sparse = kiff_dataset::subsample_ratings(&base, base.num_ratings() / 10, 6);
    let k = 10;
    let run = |ds: &Dataset| {
        let sim = WeightedCosine::fit(ds);
        let kiff = Kiff::new(KiffConfig::new(k)).run(ds, &sim).stats.scan_rate;
        let nnd = NnDescent::new(GreedyConfig::new(k))
            .run(ds, &sim)
            .1
            .scan_rate;
        (kiff, nnd)
    };
    let (kiff_dense, nnd_dense) = run(&base);
    let (kiff_sparse, nnd_sparse) = run(&sparse);
    // KIFF's scan rate must fall with density (Fig. 10b's dominant trend)…
    assert!(
        kiff_sparse < kiff_dense / 2.0,
        "KIFF scan did not fall: dense {kiff_dense} sparse {kiff_sparse}"
    );
    // …and its relative advantage over NN-Descent must grow.
    let dense_ratio = kiff_dense / nnd_dense.max(1e-12);
    let sparse_ratio = kiff_sparse / nnd_sparse.max(1e-12);
    assert!(
        sparse_ratio < dense_ratio,
        "sparse ratio {sparse_ratio} !< dense ratio {dense_ratio}"
    );
}
