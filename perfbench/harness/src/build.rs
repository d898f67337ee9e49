//! `build`: cold KIFF construction on the sparsest and the densest
//! Table-I stand-ins, checked for recall on a user sample. Its work is
//! one build of each input; its recall the mean of their sampled
//! recalls. The traced run splits each build into item profiles, RCS and
//! refinement, and runs the Table II baselines beside KIFF on the
//! Wikipedia-like input.

use std::time::Instant;

use kiff_baselines::{GreedyConfig, HyRec, L2Knng, L2KnngConfig, NnDescent};
use kiff_core::KiffConfig;
use kiff_dataset::generators::presets::{paper_k, PaperDataset};
use kiff_dataset::Dataset;
use kiff_graph::{KnnGraph, Neighbor};
use kiff_similarity::WeightedCosine;

use crate::layers::{report_builds, timed_build, BuildLayers};
use crate::trace::Tracer;
use crate::util::{exact_for, median, sample_recall, sample_users, Report};
use crate::{Args, THREADS};

const WIKI_SCALE: f64 = 2.0;
const SAMPLE_USERS: usize = 300;
const SETUP_REPEATS: usize = 11;
/// A KIFF build whose sampled recall falls below this is a failed build.
const RECALL_FLOOR: f64 = 0.9;

struct Input {
    name: &'static str,
    dataset: Dataset,
    k: usize,
    sample: Vec<u32>,
    exact: Vec<Vec<Neighbor>>,
}

fn generate(seed: u64) -> (Dataset, Dataset) {
    (
        PaperDataset::Dblp.generate_default(seed),
        PaperDataset::Wikipedia.generate(WIKI_SCALE, seed),
    )
}

fn config(k: usize) -> KiffConfig {
    KiffConfig::new(k).with_threads(THREADS)
}

pub fn run(args: &Args, t: &mut Tracer, report: &mut Report) {
    let mut setup = Vec::new();
    let mut datasets = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let generated = generate(args.seed);
        setup.push(start.elapsed().as_secs_f64());
        datasets = Some(generated);
    }
    let (dblp, wiki) = datasets.expect("at least one set-up");
    let prefix = if t.is_on() { "e2e." } else { "" };
    report.metric(format!("{prefix}setup_s"), median(&setup), "s");

    let inputs: Vec<Input> = [
        ("dblp", dblp, PaperDataset::Dblp),
        ("wiki", wiki, PaperDataset::Wikipedia),
    ]
    .into_iter()
    .map(|(name, dataset, preset)| {
        let k = paper_k(preset);
        let sample = sample_users(dataset.num_users(), SAMPLE_USERS, args.seed);
        let exact = exact_for(&dataset, &WeightedCosine::fit(&dataset), &sample, k);
        Input {
            name,
            dataset,
            k,
            sample,
            exact,
        }
    })
    .collect();
    for input in &inputs {
        let ds = &input.dataset;
        report.input(&format!("{}.users", input.name), ds.num_users() as f64);
        report.input(&format!("{}.items", input.name), ds.num_items() as f64);
        report.input(&format!("{}.ratings", input.name), ds.num_ratings() as f64);
        report.input(&format!("{}.density", input.name), ds.density());
        report.input(&format!("{}.k", input.name), input.k as f64);
    }

    t.reset_origin();
    if t.is_on() {
        baselines(t, &inputs[1], args.seed, report);
    }

    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    let mut times = [Vec::new(), Vec::new()];
    let mut recalls = [Vec::new(), Vec::new()];
    let mut layers = [BuildLayers::default(), BuildLayers::default()];
    let mut rounds = 0usize;
    while rounds < 2 || Instant::now() < deadline {
        for (i, input) in inputs.iter().enumerate() {
            // A fresh clone drops the cached item profiles, so every build
            // pays for them as a first build does.
            let ds = input.dataset.clone();
            let (graph, secs) = timed_build(t, "op.build", &ds, &config(input.k), &mut layers[i]);
            let r = sample_recall(&input.sample, &input.exact, input.k, |u| graph.neighbors(u));
            report.attempted += 1;
            if r < RECALL_FLOOR {
                report.failed += 1;
                report.check(
                    false,
                    format!("{} recall {r:.4} < {RECALL_FLOOR}", input.name),
                );
            }
            times[i].push(secs);
            recalls[i].push(r);
        }
        rounds += 1;
    }

    // The work of one round: one build of each input, each at its median.
    let (dblp_s, wiki_s) = (median(&times[0]), median(&times[1]));
    let (recall_dblp, recall_wiki) = (median(&recalls[0]), median(&recalls[1]));
    report.metric(format!("{prefix}work_s"), dblp_s + wiki_s, "s");
    report.metric(
        format!("{prefix}recall"),
        (recall_dblp + recall_wiki) / 2.0,
        "ratio",
    );
    report.metric(format!("{prefix}build_dblp_s"), dblp_s, "s");
    report.metric(format!("{prefix}build_wiki_s"), wiki_s, "s");
    report.metric(format!("{prefix}recall_dblp"), recall_dblp, "ratio");
    report.metric(format!("{prefix}recall_wiki"), recall_wiki, "ratio");
    if t.is_on() {
        report_builds(report, &[("dblp", &layers[0]), ("wiki", &layers[1])]);
    }
}

/// Table II beside KIFF: NN-Descent, HyRec and L2Knng on the
/// Wikipedia-like input, each once, with time, similarity evaluations
/// and sampled recall.
fn baselines(t: &mut Tracer, input: &Input, seed: u64, report: &mut Report) {
    let ds = &input.dataset;
    let sim = WeightedCosine::fit(ds);
    let mut greedy = GreedyConfig::new(input.k);
    greedy.threads = Some(THREADS);
    greedy.seed = seed;
    let ((g, stats), secs) = t.span("baselines.nndescent", || {
        NnDescent::new(greedy.clone()).run(ds, &sim)
    });
    record(report, "nndescent", secs, stats.sim_evals, input, &g);
    let ((g, stats), secs) = t.span("baselines.hyrec", || {
        HyRec::new(greedy.clone()).run(ds, &sim)
    });
    record(report, "hyrec", secs, stats.sim_evals, input, &g);
    let ((g, stats), secs) = t.span("baselines.l2knng", || {
        L2Knng::new(L2KnngConfig::new(input.k)).run(ds)
    });
    record(report, "l2knng", secs, stats.sim_evals, input, &g);
}

fn record(report: &mut Report, algo: &str, secs: f64, sims: u64, input: &Input, graph: &KnnGraph) {
    let r = sample_recall(&input.sample, &input.exact, input.k, |u| graph.neighbors(u));
    report.metric(format!("baselines.{algo}.s"), secs, "s");
    report.metric(format!("baselines.{algo}.sims"), sims as f64, "count");
    report.metric(format!("baselines.{algo}.recall"), r, "ratio");
}
