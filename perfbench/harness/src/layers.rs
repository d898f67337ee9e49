//! A KIFF build split into the public calls `Kiff::run` makes, and the
//! build-layer metrics every workload's traced run reports: each
//! workload builds a graph, the `build` workload as its work and the
//! others as their set-up.

use std::time::Instant;

use kiff_core::counting::{build_rcs, CountingConfig};
use kiff_core::refine::refine;
use kiff_core::{Kiff, KiffConfig, NoObserver};
use kiff_dataset::Dataset;
use kiff_graph::KnnGraph;
use kiff_similarity::WeightedCosine;

use crate::trace::Tracer;
use crate::util::{median, Report};

/// What the traced builds of one input measured, one value per build.
#[derive(Default)]
pub struct BuildLayers {
    fit_s: Vec<f64>,
    item_profiles_s: Vec<f64>,
    rcs_s: Vec<f64>,
    refine_s: Vec<f64>,
    rcs_entries: Vec<f64>,
    sims: Vec<f64>,
    iterations: Vec<f64>,
    /// User pairs a brute-force build would score.
    pairs: f64,
}

/// One measured value of every traced build of an input.
type LayerValues = fn(&BuildLayers) -> &[f64];

const PER_BUILD: [(&str, &str, LayerValues); 7] = [
    ("dataset.item_profiles_s", "s", |l| &l.item_profiles_s),
    ("similarity.fit_s", "s", |l| &l.fit_s),
    ("core.rcs_s", "s", |l| &l.rcs_s),
    ("core.refine_s", "s", |l| &l.refine_s),
    ("core.rcs_entries", "count", |l| &l.rcs_entries),
    ("core.refine.sims", "count", |l| &l.sims),
    ("core.refine.iterations", "count", |l| &l.iterations),
];

/// One cold cosine KIFF build of `ds`, timed from outside. With tracing
/// on it runs as a span `parent` split into the public calls `Kiff::run`
/// makes, recorded in `layers`.
pub fn timed_build(
    t: &mut Tracer,
    parent: &'static str,
    ds: &Dataset,
    cfg: &KiffConfig,
    layers: &mut BuildLayers,
) -> (KnnGraph, f64) {
    if !t.is_on() {
        let start = Instant::now();
        let sim = WeightedCosine::fit(ds);
        let graph = Kiff::new(cfg.clone()).run(ds, &sim).graph;
        return (graph, start.elapsed().as_secs_f64());
    }
    let start = Instant::now();
    t.enter(parent);
    let (sim, fit_s) = t.span("similarity.fit", || WeightedCosine::fit(ds));
    let (_, item_profiles_s) = t.span("dataset.item_profiles", || {
        ds.item_profiles();
    });
    let (rcs, rcs_s) = t.span("core.rcs", || {
        build_rcs(
            ds,
            &CountingConfig {
                pivot: true,
                keep_counts: false,
                threads: cfg.threads,
                strategy: cfg.count_strategy,
                rating_threshold: cfg.rating_threshold,
                max_rcs: cfg.max_rcs,
            },
        )
    });
    let ((graph, stats), refine_s) = t.span("core.refine", || {
        refine(ds, &sim, &rcs, cfg, &mut NoObserver)
    });
    t.exit();
    let n = ds.num_users() as f64;
    layers.fit_s.push(fit_s);
    layers.item_profiles_s.push(item_profiles_s);
    layers.rcs_s.push(rcs_s);
    layers.refine_s.push(refine_s);
    layers.rcs_entries.push(rcs.total() as f64);
    layers.sims.push(stats.sim_evals as f64);
    layers.iterations.push(stats.iterations as f64);
    layers.pairs = n * (n - 1.0) / 2.0;
    (graph, start.elapsed().as_secs_f64())
}

/// Reports the build-layer metrics of one build of each input: per
/// input as `<metric>.<suffix>` when there are several, and unsuffixed
/// for one build of every input together (each input's median build).
pub fn report_builds(report: &mut Report, inputs: &[(&str, &BuildLayers)]) {
    let sims = |l: &BuildLayers| median(&l.sims);
    let refine_s = |l: &BuildLayers| median(&l.refine_s);
    if inputs.len() > 1 {
        for &(suffix, l) in inputs {
            for (name, unit, values) in PER_BUILD {
                report.metric(format!("{name}.{suffix}"), median(values(l)), unit);
            }
            report.metric(
                format!("core.scan_rate.{suffix}"),
                sims(l) / l.pairs,
                "ratio",
            );
            report.metric(
                format!("similarity.sims_per_s.{suffix}"),
                sims(l) / refine_s(l),
                "1/s",
            );
        }
    }
    let total = |of: &dyn Fn(&BuildLayers) -> f64| inputs.iter().map(|(_, l)| of(l)).sum::<f64>();
    for (name, unit, values) in PER_BUILD {
        report.metric(name, total(&|l| median(values(l))), unit);
    }
    report.metric(
        "core.scan_rate",
        total(&sims) / total(&|l| l.pairs),
        "ratio",
    );
    report.metric(
        "similarity.sims_per_s",
        total(&sims) / total(&refine_s),
        "1/s",
    );
}
