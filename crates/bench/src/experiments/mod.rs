//! One module per paper artefact. Every experiment takes the shared
//! [`Ctx`] (dataset + ground-truth caches, output directory) and returns
//! the human-readable report. [`Ctx::finish`] is the one writer of the
//! experiment's artifacts: the report as `<id>.txt` and its payload as the
//! `data` field of `<id>.json`, both in the `--out` directory.

pub mod baseline_scoring;
pub mod comparison;
pub mod convergence;
pub mod counting_exps;
pub mod counting_perf;
pub mod datasets_exps;
pub mod density_exps;
pub mod extensions;
pub mod failover;
pub mod faults;
pub mod online;
pub mod reads;
pub mod sensitivity;
pub mod serve;
pub mod sharded;
pub mod telemetry;

use std::collections::HashMap;
use std::path::PathBuf;
use std::rc::Rc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use kiff_core::{Kiff, KiffConfig, KiffError};
use kiff_dataset::generators::movielens::movielens_like;
use kiff_dataset::generators::planted::{generate_planted, PlantedConfig};
use kiff_dataset::zipf::Zipf;
use kiff_dataset::{subsample_ratings, Dataset, DatasetBuilder, PaperDataset};
use kiff_eval::{AlgoRunRecord, ExperimentRecord};
use kiff_graph::{exact_knn, recall, KnnGraph};
use kiff_online::Update;
use kiff_serve::Client;
use kiff_similarity::WeightedCosine;

use crate::datasets::SuiteScale;
use crate::runner::{self, RunOptions};

/// Whether two graphs hold the same rows: the same neighbour ids with
/// the same similarity bits, in the same order. The scoring-identity
/// gates use it where `recall` would forgive any similarity change
/// within `SIM_EPSILON`.
pub fn graphs_bit_identical(a: &KnnGraph, b: &KnnGraph) -> bool {
    a.num_users() == b.num_users()
        && (0..a.num_users() as u32).all(|u| {
            let (x, y) = (a.neighbors(u), b.neighbors(u));
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|(p, q)| p.id == q.id && p.sim.to_bits() == q.sim.to_bits())
        })
}

/// The planted-community population of a serve-family experiment
/// (`serve`, `reads`, `faults`, `failover`, `telemetry`): `users` at
/// scale 1, scaled by the suite multiplier clamped to 0.05–2, and never
/// fewer than `min_users`; four items per five users, affinity 0.8.
pub(crate) fn planted(
    ctx: &Ctx,
    name: &str,
    users: f64,
    min_users: usize,
    communities: usize,
    ratings_per_user: usize,
) -> Dataset {
    let m = ctx.scale.multiplier.clamp(0.05, 2.0);
    let users = ((users * m) as usize).max(min_users);
    generate_planted(&PlantedConfig {
        name: name.to_string(),
        num_users: users,
        num_items: (users * 4) / 5,
        communities,
        ratings_per_user,
        affinity: 0.8,
        ..PlantedConfig::tiny(name, ctx.seed)
    })
    .0
}

/// `len` Zipf-skewed rating arrivals over `ds`'s existing users and
/// items, deterministic in the seed: a daemon and its mirror replay, or
/// two measured modes, apply the identical stream.
pub(crate) fn zipf_stream(ds: &Dataset, seed: u64, len: usize) -> Vec<Update> {
    let user_dist = Zipf::new(ds.num_users(), 1.1);
    let item_dist = Zipf::new(ds.num_items(), 0.8);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| Update::AddRating {
            user: user_dist.sample(&mut rng) as u32,
            item: item_dist.sample(&mut rng) as u32,
            rating: 1.0,
        })
        .collect()
}

/// A fresh scratch directory for one phase's store.
pub(crate) fn scratch(experiment: &str, tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "kiff-bench-{experiment}-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// The 99th percentile of `latencies` (sorted in place), 0 when empty.
pub(crate) fn p99_us(latencies: &mut [f64]) -> f64 {
    if latencies.is_empty() {
        return 0.0;
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    latencies[(latencies.len() * 99 / 100).min(latencies.len() - 1)]
}

/// A daemon serving from a thread of the experiment's process.
pub(crate) struct Daemon {
    pub(crate) addr: String,
    pub(crate) handle: JoinHandle<Result<(), KiffError>>,
}

impl Daemon {
    /// Sends `shutdown` (retrying a busy daemon briefly) and joins the
    /// daemon, which must exit cleanly.
    pub(crate) fn shutdown(self) {
        for _ in 0..50 {
            match Client::connect(&self.addr) {
                Ok(mut c) => {
                    if c.shutdown().is_ok() {
                        break;
                    }
                }
                Err(_) => break, // already down
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.handle
            .join()
            .expect("daemon thread")
            .expect("clean daemon exit");
    }
}

/// Neighbourhood size of the streaming experiments (`online`, `sharded`).
pub const STREAM_K: usize = 10;

/// Shared preparation of the streaming experiments: the ML-4-like
/// dataset (MovieLens preset subsampled into the sparse regime of Table
/// IX), its base/holdout split, the exact ground truth, the KIFF rebuild
/// yardstick on the final dataset, and the seed graph on the base —
/// computed once per suite invocation and cached on [`Ctx`], so running
/// `online sharded` together (the CI bench-smoke job) pays for the
/// expensive `exact_knn` and rebuild exactly once and the two reports
/// compare directly by construction.
pub struct StreamScenario {
    /// The final dataset (base plus every streamed rating).
    pub full: Dataset,
    /// The base dataset the engines build on.
    pub base: Dataset,
    /// The held-out stream (every 10th rating of `full`).
    pub held: Vec<(u32, u32, f32)>,
    /// Exact cosine ground truth on `full`.
    pub exact: KnnGraph,
    /// Similarity evaluations of the KIFF rebuild on `full`.
    pub rebuild_sim_evals: u64,
    /// Wall time of that rebuild.
    pub rebuild_s: f64,
    /// Its recall against `exact`.
    pub rebuild_recall: f64,
    /// KIFF graph of `base`, seeding every replayed engine identically.
    pub seed_graph: KnnGraph,
}

/// Shared state across experiments in one `experiments` invocation:
/// generated datasets and exact ground truths are cached because half the
/// experiments need them.
pub struct Ctx {
    /// Where reports land.
    pub out_dir: PathBuf,
    /// Dataset scale.
    pub scale: SuiteScale,
    /// Generation / initialisation seed.
    pub seed: u64,
    /// Worker threads for all runs.
    pub threads: Option<usize>,
    /// When set, the streaming experiments (`online`, `sharded`) record a
    /// violation whenever recall-vs-rebuild falls below this ratio — the
    /// CI bench-regression gate.
    pub recall_floor: Option<f64>,
    /// Recall-floor violations accumulated across experiments; the
    /// `experiments` binary fails when any exist.
    pub violations: Vec<String>,
    datasets: HashMap<PaperDataset, Rc<Dataset>>,
    truths: HashMap<(PaperDataset, usize), Rc<KnnGraph>>,
    table2_cache: Option<Rc<Vec<AlgoRunRecord>>>,
    stream_cache: Option<Rc<StreamScenario>>,
}

impl Ctx {
    /// Creates a context writing into `out_dir` (created if missing).
    pub fn new(out_dir: PathBuf, scale: SuiteScale, seed: u64, threads: Option<usize>) -> Self {
        std::fs::create_dir_all(&out_dir).expect("cannot create output directory");
        Self {
            out_dir,
            scale,
            seed,
            threads,
            recall_floor: None,
            violations: Vec::new(),
            datasets: HashMap::new(),
            truths: HashMap::new(),
            table2_cache: None,
            stream_cache: None,
        }
    }

    /// The streaming experiments' shared scenario (cached; see
    /// [`StreamScenario`]).
    pub fn stream_scenario(&mut self) -> Rc<StreamScenario> {
        if self.stream_cache.is_none() {
            let ml_scale = (0.2 * self.scale.multiplier).clamp(0.02, 1.0);
            let ml1 = movielens_like(ml_scale, self.seed);
            let full = subsample_ratings(&ml1, ml1.num_ratings() * 13 / 100, self.seed)
                .with_name("ML-4-like");

            // Hold out every 10th rating as the stream.
            let mut builder = DatasetBuilder::new("ml4-base", full.num_users(), full.num_items());
            let mut held = Vec::new();
            for (pos, (u, i, r)) in full.iter_ratings().enumerate() {
                if pos % 10 == 0 {
                    held.push((u, i, r));
                } else {
                    builder.add_rating(u, i, r);
                }
            }
            let base = builder.build();

            let sim = WeightedCosine::fit(&full);
            let exact = exact_knn(&full, &sim, STREAM_K, self.threads);
            let mut rebuild_config = KiffConfig::new(STREAM_K);
            rebuild_config.threads = self.threads;
            let rebuild_start = Instant::now();
            let rebuild = Kiff::new(rebuild_config).run(&full, &sim);
            let rebuild_s = rebuild_start.elapsed().as_secs_f64();
            let rebuild_recall = recall(&exact, &rebuild.graph);

            let base_sim = WeightedCosine::fit(&base);
            let mut seed_config = KiffConfig::new(STREAM_K);
            seed_config.threads = self.threads;
            let seed_graph = Kiff::new(seed_config).run(&base, &base_sim).graph;

            self.stream_cache = Some(Rc::new(StreamScenario {
                full,
                base,
                held,
                exact,
                rebuild_sim_evals: rebuild.stats.sim_evals,
                rebuild_s,
                rebuild_recall,
                seed_graph,
            }));
        }
        Rc::clone(self.stream_cache.as_ref().expect("just inserted"))
    }

    /// Checks a recall-vs-rebuild ratio against the configured floor,
    /// recording a violation (and warning on stderr) when it is below.
    pub fn enforce_recall_floor(&mut self, experiment: &str, mode: &str, ratio: f64) {
        if let Some(floor) = self.recall_floor {
            if ratio < floor {
                let msg = format!(
                    "{experiment}/{mode}: recall-vs-rebuild {ratio:.4} below floor {floor:.2}"
                );
                eprintln!("RECALL FLOOR VIOLATION: {msg}");
                self.violations.push(msg);
            }
        }
    }

    /// The calibrated stand-in for `d` (cached).
    pub fn dataset(&mut self, d: PaperDataset) -> Rc<Dataset> {
        let scale = self.scale.scale_for(d);
        let seed = self.seed;
        Rc::clone(
            self.datasets
                .entry(d)
                .or_insert_with(|| Rc::new(d.generate(scale, seed))),
        )
    }

    /// Exact cosine ground truth for `(d, k)` (cached).
    pub fn ground_truth(&mut self, d: PaperDataset, k: usize) -> Rc<KnnGraph> {
        if !self.truths.contains_key(&(d, k)) {
            let ds = self.dataset(d);
            let gt = runner::ground_truth(&ds, k, self.threads);
            self.truths.insert((d, k), Rc::new(gt));
        }
        Rc::clone(&self.truths[&(d, k)])
    }

    /// Run options for neighbourhood size `k`.
    pub fn opts(&self, k: usize) -> RunOptions {
        RunOptions {
            k,
            threads: self.threads,
            seed: self.seed,
        }
    }

    /// Table II records, computed once and shared with Table III / Fig. 5.
    pub fn table2_records(&mut self) -> Rc<Vec<AlgoRunRecord>> {
        if self.table2_cache.is_none() {
            let records = comparison::collect_table2(self);
            self.table2_cache = Some(Rc::new(records));
        }
        Rc::clone(self.table2_cache.as_ref().expect("just inserted"))
    }

    /// Writes `<id>.txt` and `<id>.json`, returning the text.
    pub fn finish(
        &self,
        id: &str,
        description: &str,
        text: String,
        payload: &impl Serialize,
    ) -> String {
        std::fs::write(self.out_dir.join(format!("{id}.txt")), &text)
            .unwrap_or_else(|e| eprintln!("warning: cannot write {id}.txt: {e}"));
        match ExperimentRecord::new(id, description, payload) {
            Ok(record) => {
                record
                    .save(self.out_dir.join(format!("{id}.json")))
                    .unwrap_or_else(|e| eprintln!("warning: cannot write {id}.json: {e}"));
            }
            Err(e) => eprintln!("warning: cannot serialise {id}: {e}"),
        }
        text
    }
}

/// Every experiment id, in the paper's presentation order.
pub const ALL: [&str; 30] = [
    "table1",
    "fig4",
    "fig1",
    "table2",
    "table3",
    "fig5",
    "table4",
    "table5",
    "table6",
    "fig6",
    "fig7",
    "table7",
    "fig8",
    "table8",
    "fig9",
    "table9_fig10",
    "ext1",
    "ext2",
    "ext3",
    "ext4",
    "ext5",
    "online",
    "sharded",
    "counting",
    "baselines",
    "telemetry",
    "serve",
    "reads",
    "faults",
    "failover",
];

/// Runs one experiment by id.
pub fn run_experiment(id: &str, ctx: &mut Ctx) -> Result<String, String> {
    match id {
        "table1" => Ok(datasets_exps::table1(ctx)),
        "fig4" => Ok(datasets_exps::fig4(ctx)),
        "fig1" => Ok(comparison::fig1(ctx)),
        "table2" => Ok(comparison::table2(ctx)),
        "table3" => Ok(comparison::table3(ctx)),
        "fig5" => Ok(comparison::fig5(ctx)),
        "table4" => Ok(counting_exps::table4(ctx)),
        "table5" => Ok(counting_exps::table5(ctx)),
        "table6" => Ok(counting_exps::table6(ctx)),
        "fig6" => Ok(counting_exps::fig6(ctx)),
        "fig7" => Ok(counting_exps::fig7(ctx)),
        "table7" => Ok(counting_exps::table7(ctx)),
        "fig8" => Ok(convergence::fig8(ctx)),
        "table8" => Ok(sensitivity::table8(ctx)),
        "fig9" => Ok(sensitivity::fig9(ctx)),
        "table9" | "fig10" | "table9_fig10" => Ok(density_exps::table9_fig10(ctx)),
        "ext1" => Ok(extensions::ext1(ctx)),
        "ext2" => Ok(extensions::ext2(ctx)),
        "ext3" => Ok(extensions::ext3(ctx)),
        "ext4" => Ok(extensions::ext4(ctx)),
        "ext5" => Ok(extensions::ext5(ctx)),
        "online" => Ok(online::online(ctx)),
        "sharded" => Ok(sharded::sharded(ctx)),
        "counting" => Ok(counting_perf::counting(ctx)),
        "baselines" => Ok(baseline_scoring::baselines(ctx)),
        "telemetry" => Ok(telemetry::telemetry(ctx)),
        "serve" => Ok(serve::serve(ctx)),
        "reads" => Ok(reads::reads(ctx)),
        "faults" => Ok(faults::faults(ctx)),
        "failover" => Ok(failover::failover(ctx)),
        other => Err(format!(
            "unknown experiment '{other}'; available: {}",
            ALL.join(", ")
        )),
    }
}
