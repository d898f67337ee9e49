//! Execution of parsed [`Command`]s.

use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use kiff::core::KiffError;

use kiff::online::{OnlineConfig, ShardConfig, ShardedOnlineKnn, Update};
use kiff::prelude::*;
use kiff::{Algorithm, Metric};
use kiff_dataset::io::{load_json, load_movielens, load_snap_tsv, load_updates_tsv, save_snap_tsv};
use kiff_dataset::stats::{item_profile_sizes, user_profile_sizes};
use kiff_dataset::{Dataset, DatasetStats};
use kiff_eval::percentile;
use kiff_graph::{exact_knn, exact_knn_brute, write_edges_tsv};

use crate::args::{
    BuildOptions, Command, CompareOptions, ExactOptions, Format, GenerateOptions, InputOptions,
    RecommendOptions, SearchOptions, ServeOptions, UpdateOptions,
};
use crate::report::UpdateReport;

/// A command-execution failure with a user-facing message and the
/// process exit code the binary should terminate with.
///
/// Usage and argument errors keep the traditional code `1`; failures
/// that originate as a typed [`KiffError`] carry its
/// [`exit_code`](KiffError::exit_code) so scripts can branch on the
/// failure class (2 = unknown id, 3 = empty profile/query, 4 = i/o,
/// 5 = corrupt/mismatch, 6 = protocol, 7 = remote).
#[derive(Debug)]
pub struct CommandError {
    message: String,
    code: u8,
}

impl CommandError {
    /// The process exit code for this failure.
    pub fn exit_code(&self) -> u8 {
        self.code
    }
}

impl fmt::Display for CommandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for CommandError {}

impl From<io::Error> for CommandError {
    fn from(e: io::Error) -> Self {
        CommandError {
            message: format!("i/o error: {e}"),
            code: KiffError::from(e).exit_code(),
        }
    }
}

impl From<KiffError> for CommandError {
    fn from(e: KiffError) -> Self {
        CommandError {
            code: e.exit_code(),
            message: e.to_string(),
        }
    }
}

fn err(message: impl Into<String>) -> CommandError {
    CommandError {
        message: message.into(),
        code: 1,
    }
}

/// Writes a rendered telemetry snapshot to its own file (`--metrics-out`),
/// returning the snapshot so callers can also summarise it; metrics never
/// share a stream with human-readable output.
fn write_metrics(
    path: &Path,
    registry: &Registry,
    format: MetricsFormat,
) -> Result<TelemetrySnapshot, CommandError> {
    let snapshot = registry.snapshot();
    std::fs::write(path, kiff::telemetry::export::render(&snapshot, format))
        .map_err(|e| err(format!("{}: {e}", path.display())))?;
    Ok(snapshot)
}

/// Loads a dataset according to `options` (format inferred from the
/// extension when not given).
pub fn load_dataset(options: &InputOptions) -> Result<Dataset, CommandError> {
    let format = options
        .format
        .or_else(|| Format::from_path(&options.input))
        .ok_or_else(|| {
            err(format!(
                "cannot infer format of '{}'; pass --format tsv|movielens|json",
                options.input.display()
            ))
        })?;
    let path = &options.input;
    let dataset = match format {
        Format::SnapTsv => {
            load_snap_tsv(path)
                .map_err(|e| err(format!("{}: {e}", path.display())))?
                .0
        }
        Format::MovieLens => {
            load_movielens(path)
                .map_err(|e| err(format!("{}: {e}", path.display())))?
                .0
        }
        Format::Json => load_json(path).map_err(|e| err(format!("{}: {e}", path.display())))?,
    };
    Ok(dataset)
}

/// Runs `command`, writing human-readable output to `out`.
pub fn execute(command: &Command, out: &mut dyn Write) -> Result<(), CommandError> {
    match command {
        Command::Help => {
            writeln!(out, "{}", crate::args::USAGE)?;
            Ok(())
        }
        Command::Stats(options) => stats(options, out),
        Command::Build(options) => build(options, out),
        Command::Exact(options) => exact(options, out),
        Command::Compare(options) => compare(options, out),
        Command::Generate(options) => generate(options, out),
        Command::Recommend(options) => recommend(options, out),
        Command::Search(options) => search(options, out),
        Command::Update(options) => update(options, out),
        Command::Serve(options) => serve(options, out),
    }
}

/// Loads a dataset like [`load_dataset`], also returning the external-id
/// maps so a replayed update stream can be joined against it.
fn load_dataset_with_ids(
    options: &InputOptions,
) -> Result<(Dataset, kiff_dataset::io::IdMaps), CommandError> {
    let format = options
        .format
        .or_else(|| Format::from_path(&options.input))
        .ok_or_else(|| {
            err(format!(
                "cannot infer format of '{}'; pass --format tsv|movielens|json",
                options.input.display()
            ))
        })?;
    let path = &options.input;
    match format {
        Format::SnapTsv => load_snap_tsv(path).map_err(|e| err(format!("{}: {e}", path.display()))),
        Format::MovieLens => {
            load_movielens(path).map_err(|e| err(format!("{}: {e}", path.display())))
        }
        Format::Json => Err(err(
            "kiff update needs external ids to join the stream against; \
             use the tsv or movielens format for --input",
        )),
    }
}

fn update(options: &UpdateOptions, out: &mut dyn Write) -> Result<(), CommandError> {
    use kiff::collections::FxHashMap;

    let (base, ids) = load_dataset_with_ids(&options.input)?;
    let raw = load_updates_tsv(&options.updates)
        .map_err(|e| err(format!("{}: {e}", options.updates.display())))?;
    if raw.is_empty() {
        return Err(err("the update stream is empty"));
    }

    // Join the stream's external ids against the base mapping; unseen ids
    // extend the dense spaces (new users stream into the graph).
    let mut user_map: FxHashMap<u64, u32> = ids
        .user_ids
        .iter()
        .enumerate()
        .map(|(dense, &ext)| (ext, dense as u32))
        .collect();
    let mut item_map: FxHashMap<u64, u32> = ids
        .item_ids
        .iter()
        .enumerate()
        .map(|(dense, &ext)| (ext, dense as u32))
        .collect();
    let mut new_users = 0usize;
    let mut new_items = 0usize;
    let stream: Vec<Update> = raw
        .iter()
        .map(|&(user, item, rating, _)| {
            let next_user = user_map.len() as u32;
            let user = *user_map.entry(user).or_insert_with(|| {
                new_users += 1;
                next_user
            });
            let next_item = item_map.len() as u32;
            let item = *item_map.entry(item).or_insert_with(|| {
                new_items += 1;
                next_item
            });
            Update::AddRating { user, item, rating }
        })
        .collect();

    // Everything human-readable funnels through the report and is
    // written once at the end, so stdout can never interleave with the
    // metrics file.
    let mut report = UpdateReport::new();
    report.base(base.num_users(), base.num_items(), base.num_ratings());
    report.stream(stream.len(), new_users, new_items);

    // Build the initial graph, then replay. The engine records into
    // `registry` (its own enabled registry when no export is wanted, so
    // the sharded engine's derived cross-traffic stays live).
    let registry = Registry::new();
    let mut config = OnlineConfig::new(options.k).with_telemetry(registry.clone());
    if let Some(width) = options.repair_width {
        config = config.with_repair_width(width);
    }
    let build_start = Instant::now();
    let mut shard_config = ShardConfig::new(options.shards);
    shard_config.threads = options.threads;
    let mut engine = ShardedOnlineKnn::new(&base, config, shard_config);
    let sharded = options.shards > 1;
    if sharded {
        report.shards(&engine.shard_sizes());
    }
    report.initial_build(build_start.elapsed());

    let replay_start = Instant::now();
    if options.batch <= 1 {
        for u in stream {
            engine.apply(u);
        }
    } else {
        for chunk in stream.chunks(options.batch) {
            engine.apply_batch(chunk.to_vec());
        }
    }
    let replay_time = replay_start.elapsed();
    let life = *engine.lifetime_stats();
    report.replay(&life, replay_time, options.batch);
    let final_dataset = engine.data().to_dataset();
    let live_graph = engine.graph();
    if sharded {
        report.cross_shard(engine.cross_shard_messages(), &engine.shard_sizes());
    }

    // Export the replay's telemetry before the rebuild below muddies it
    // with unrelated construction work.
    if let Some(path) = &options.metrics_out {
        let snapshot = write_metrics(path, &registry, options.metrics_format)?;
        let instruments =
            snapshot.counters.len() + snapshot.gauges.len() + snapshot.histograms.len();
        report.metrics_written(path, options.metrics_format, instruments);
    }

    // Compare against rebuilding from scratch on the final dataset.
    let mut kiff_config = kiff::core::KiffConfig::new(options.k);
    kiff_config.threads = options.threads;
    let rebuild_start = Instant::now();
    let sim = kiff::similarity::WeightedCosine::fit(&final_dataset);
    let rebuild = kiff::core::Kiff::new(kiff_config).run(&final_dataset, &sim);
    let rebuild_time = rebuild_start.elapsed();
    let r = recall(&rebuild.graph, &live_graph);
    report.rebuild(
        rebuild.stats.sim_evals,
        rebuild_time,
        r,
        life.sim_evals_per_update(),
    );
    report.write_to(out)?;
    Ok(())
}

/// The daemon engine's share of the `granted` threads (`None` = all
/// available): all of them when the shards take every one, else all but
/// one, kept for the connection workers. The threads beyond one per
/// shard prepare repair waves, and a wave's preparation occupies every
/// one of them, so without the kept thread a read that arrives during a
/// write waits for a core.
fn engine_threads(granted: Option<usize>, shards: usize) -> usize {
    let granted = kiff::parallel::effective_threads(granted);
    if granted > shards {
        granted - 1
    } else {
        granted
    }
}

fn serve(options: &ServeOptions, out: &mut dyn Write) -> Result<(), CommandError> {
    use kiff::core::fault;
    use kiff::serve::{recover_or_seed, EngineHost, Server, ServerConfig, StoreConfig};

    // Arm chaos failpoints before anything they could fire on: the env
    // spec first (fleet-wide drills), then the flag (per-daemon).
    let armed = fault::arm_from_env()?
        + match &options.failpoints {
            Some(spec) => fault::arm_from_spec(spec)?,
            None => 0,
        };
    if armed > 0 {
        // `off` entries count as armed (they neutralise an env spec)
        // but are not live, so the list can be shorter than the count.
        let live = fault::armed();
        let live = if live.is_empty() {
            "none live".to_string()
        } else {
            live.join(", ")
        };
        writeln!(out, "armed {armed} failpoint(s): {live}")?;
    }

    // The input and the start-up KIFF build over it seed a fresh data
    // directory, the volatile engine and the `--degraded-ok` fallback. A
    // restart over a snapshot recovers the snapshot's own dataset and
    // graph, so it neither parses the input nor builds.
    let seed = |out: &mut dyn Write| -> Result<(Dataset, KnnGraph), CommandError> {
        let dataset = load_dataset(&options.input)?;
        let mut builder = KnnGraphBuilder::new(options.k).metric(options.metric);
        if let Some(threads) = options.threads {
            builder = builder.threads(threads);
        }
        let build_start = Instant::now();
        let graph = builder.build(&dataset);
        writeln!(
            out,
            "built k={} graph over {} users in {:.2?}",
            options.k,
            dataset.num_users(),
            build_start.elapsed()
        )?;
        Ok((dataset, graph))
    };

    let registry = Registry::new();
    let config = OnlineConfig::new(options.k).with_telemetry(registry.clone());
    let shard_config = ShardConfig::new(options.shards)
        .with_threads(engine_threads(options.threads, options.shards));

    // The engine over a seed: a fresh data directory's, the no-data-dir
    // path's, and the `--degraded-ok` read-only fallback's.
    let seeded = |(dataset, graph): &(Dataset, KnnGraph), config| -> Box<dyn KnnEngine> {
        let engine = ShardedOnlineKnn::from_graph(dataset, graph, config, shard_config.clone());
        Box::new(engine)
    };

    let mut read_only = false;
    let (engine, store) = match &options.data_dir {
        Some(dir) => {
            let mut cfg = StoreConfig::new(dir);
            if let Some(every) = options.snapshot_every {
                cfg = cfg.with_snapshot_every(every);
            }
            // Kept for the fallback when recovery seeds and then fails.
            let mut fresh = None;
            let recovered = recover_or_seed(
                &cfg,
                |config, _| -> Result<_, CommandError> {
                    // The stage a fresh data directory runs instead of
                    // the snapshot load and engine restore.
                    let _span = registry.histogram("recovery.seed_ns").span();
                    let fresh = fresh.insert(seed(out)?);
                    Ok(seeded(fresh, config))
                },
                config.clone(),
                Some(shard_config.clone()),
            );
            match recovered {
                Ok(recovered) => {
                    let torn = if recovered.truncated {
                        " (torn WAL tail truncated)"
                    } else {
                        ""
                    };
                    match recovered.snapshot_seq {
                        Some(seq) => writeln!(
                            out,
                            "recovered snapshot seq {seq} + {} WAL update(s){torn} from {}",
                            recovered.replayed,
                            dir.display()
                        )?,
                        None if recovered.replayed > 0 => writeln!(
                            out,
                            "replayed {} WAL update(s){torn} from {}",
                            recovered.replayed,
                            dir.display()
                        )?,
                        None => writeln!(out, "fresh data directory {}", dir.display())?,
                    }
                    (recovered.engine, Some(recovered.store))
                }
                Err(e) if options.degraded_ok => {
                    // Persistence is unusable but the operator asked to
                    // keep answering queries: serve the freshly built
                    // graph read-only (writes refuse with a typed
                    // `unavailable`) instead of exiting.
                    writeln!(
                        out,
                        "WARNING: {}: {e}; --degraded-ok set, serving read-only",
                        dir.display()
                    )?;
                    read_only = true;
                    let fresh = match fresh {
                        Some(fresh) => fresh,
                        None => seed(out)?,
                    };
                    (seeded(&fresh, config), None)
                }
                Err(e) => return Err(e),
            }
        }
        None => {
            let fresh = seed(out)?;
            writeln!(
                out,
                "no --data-dir: running volatile, updates are lost on exit"
            )?;
            (seeded(&fresh, config), None)
        }
    };

    let mut host = EngineHost::new(engine, store, registry);
    if read_only {
        host = host.read_only();
    }
    let replication = options.repl_listen.as_ref().map(|listen| {
        let mut rc = kiff::serve::ReplicationConfig::new(listen).with_peers(options.peers.clone());
        if let Some(primary) = &options.replica_of {
            rc = rc.replica_of(primary);
        }
        if let Some(ms) = options.heartbeat_ms {
            rc = rc.with_heartbeat(std::time::Duration::from_millis(ms));
        }
        if let Some(min) = options.min_sync_replicas {
            rc = rc.with_min_sync_replicas(min);
        }
        rc
    });
    let server_config = ServerConfig {
        max_inflight: options.max_inflight,
        replication,
        ..ServerConfig::default()
    };
    let server = Server::bind_with(&options.addr, host, server_config)?;
    let bound = server.local_addr();
    if let Some(repl) = server.repl_addr() {
        let role = match &options.replica_of {
            Some(primary) => format!("replica of {primary}"),
            None => "primary".to_string(),
        };
        writeln!(out, "replication on {repl} ({role})")?;
    }
    if let Some(path) = &options.addr_file {
        std::fs::write(path, format!("{bound}\n"))
            .map_err(|e| err(format!("{}: {e}", path.display())))?;
    }
    if options.max_inflight > 0 {
        writeln!(
            out,
            "shedding beyond {} concurrent request(s)",
            options.max_inflight
        )?;
    }
    writeln!(out, "serving on {bound} (send `shutdown` to stop)")?;
    out.flush()?;
    server.run()?;
    writeln!(out, "daemon stopped")?;
    Ok(())
}

fn stats(options: &InputOptions, out: &mut dyn Write) -> Result<(), CommandError> {
    let dataset = load_dataset(options)?;
    let s = DatasetStats::compute(&dataset);
    writeln!(out, "dataset : {}", s.name)?;
    writeln!(out, "users   : {}", s.num_users)?;
    writeln!(out, "items   : {}", s.num_items)?;
    writeln!(out, "ratings : {}", s.num_ratings)?;
    writeln!(out, "density : {:.4}%", s.density_percent())?;
    writeln!(
        out,
        "avg |UP|: {:.1}   (max {})",
        s.avg_user_profile, s.max_user_profile
    )?;
    writeln!(
        out,
        "avg |IP|: {:.1}   (max {})",
        s.avg_item_profile, s.max_item_profile
    )?;
    let pct = |sizes: &[usize]| -> (f64, f64, f64) {
        let v: Vec<f64> = sizes.iter().map(|&x| x as f64).collect();
        (
            percentile(&v, 50.0),
            percentile(&v, 90.0),
            percentile(&v, 99.0),
        )
    };
    let (u50, u90, u99) = pct(&user_profile_sizes(&dataset));
    let (i50, i90, i99) = pct(&item_profile_sizes(&dataset));
    writeln!(out, "|UP| pct: p50 {u50:.0}  p90 {u90:.0}  p99 {u99:.0}")?;
    writeln!(out, "|IP| pct: p50 {i50:.0}  p90 {i90:.0}  p99 {i99:.0}")?;
    Ok(())
}

fn build(options: &BuildOptions, out: &mut dyn Write) -> Result<(), CommandError> {
    let dataset = load_dataset(&options.input)?;
    let mut builder = KnnGraphBuilder::new(options.k)
        .algorithm(options.algorithm)
        .metric(options.metric)
        .seed(options.seed);
    if let Some(g) = options.gamma {
        builder = builder.gamma(g);
    }
    if let Some(b) = options.beta {
        builder = builder.beta(b).termination(b);
    }
    if let Some(t) = options.threads {
        builder = builder.threads(t);
    }
    let registry = options.metrics_out.as_ref().map(|_| Registry::new());
    if let Some(r) = &registry {
        builder = builder.telemetry(r.clone());
    }

    let start = Instant::now();
    let graph = builder.build(&dataset);
    let elapsed = start.elapsed();

    if let (Some(path), Some(r)) = (&options.metrics_out, &registry) {
        write_metrics(path, r, options.metrics_format)?;
    }
    match &options.output {
        Some(path) if path.as_os_str() != "-" => {
            let mut w = BufWriter::new(File::create(path)?);
            write_graph(&graph, &mut w)?;
            w.flush()?;
            writeln!(
                out,
                "built {}-NN graph of {} users in {elapsed:.1?} ({} edges) -> {}",
                options.k,
                graph.num_users(),
                graph.num_edges(),
                path.display()
            )?;
        }
        _ => write_graph(&graph, out)?,
    }
    Ok(())
}

/// Writes `user<TAB>neighbor<TAB>similarity` lines in the format
/// `kiff_graph::load_edges_tsv` round-trips exactly.
fn write_graph(graph: &KnnGraph, w: &mut dyn Write) -> Result<(), CommandError> {
    write_edges_tsv(graph, w)?;
    Ok(())
}

/// The fitted metric object behind a [`Metric`] selector.
fn metric_object(metric: Metric, dataset: &Dataset) -> Box<dyn Similarity> {
    match metric {
        Metric::Cosine => Box::new(WeightedCosine::fit(dataset)),
        Metric::BinaryCosine => Box::new(BinaryCosine),
        Metric::Jaccard => Box::new(Jaccard),
        Metric::WeightedJaccard => Box::new(WeightedJaccard),
        Metric::Dice => Box::new(Dice),
        Metric::AdamicAdar => Box::new(AdamicAdar::fit(dataset)),
    }
}

fn algorithm_name(algorithm: Algorithm) -> &'static str {
    match algorithm {
        Algorithm::Kiff => "kiff",
        Algorithm::NnDescent => "nndescent",
        Algorithm::HyRec => "hyrec",
        Algorithm::L2Knng => "l2knng",
        Algorithm::Lsh => "lsh",
        Algorithm::Exact => "exact",
    }
}

fn exact(options: &ExactOptions, out: &mut dyn Write) -> Result<(), CommandError> {
    let dataset = load_dataset(&options.input)?;
    let sim = metric_object(options.metric, &dataset);
    let start = Instant::now();
    let graph = if options.brute {
        exact_knn_brute(&dataset, sim.as_ref(), options.k, options.threads)
    } else {
        exact_knn(&dataset, sim.as_ref(), options.k, options.threads)
    };
    let elapsed = start.elapsed();
    match &options.output {
        Some(path) if path.as_os_str() != "-" => {
            let mut w = BufWriter::new(File::create(path)?);
            write_graph(&graph, &mut w)?;
            w.flush()?;
            writeln!(
                out,
                "built exact {}-NN graph of {} users in {elapsed:.1?} ({} edges, {}) -> {}",
                options.k,
                graph.num_users(),
                graph.num_edges(),
                if options.brute {
                    "brute force"
                } else {
                    "inverted index"
                },
                path.display()
            )?;
        }
        _ => write_graph(&graph, out)?,
    }
    Ok(())
}

fn compare(options: &CompareOptions, out: &mut dyn Write) -> Result<(), CommandError> {
    let dataset = load_dataset(&options.input)?;
    let sim = metric_object(options.metric, &dataset);
    let exact_start = Instant::now();
    let exact = exact_knn(&dataset, sim.as_ref(), options.k, options.threads);
    writeln!(
        out,
        "exact ground truth: {} users, k={}, {:.1?}",
        dataset.num_users(),
        options.k,
        exact_start.elapsed()
    )?;
    writeln!(
        out,
        "{:<12} {:>8} {:>12} {:>10}",
        "algorithm", "recall", "time", "edges"
    )?;
    // One registry spans the whole suite, so the export shows how much
    // similarity work each family of algorithms performed side by side.
    let registry = options.metrics_out.as_ref().map(|_| Registry::new());
    for &algorithm in &options.algorithms {
        let mut builder = KnnGraphBuilder::new(options.k)
            .algorithm(algorithm)
            .metric(options.metric)
            .seed(options.seed);
        if let Some(t) = options.threads {
            builder = builder.threads(t);
        }
        if let Some(r) = &registry {
            builder = builder.telemetry(r.clone());
        }
        let start = Instant::now();
        let graph = builder.build(&dataset);
        let elapsed = start.elapsed();
        writeln!(
            out,
            "{:<12} {:>8.4} {:>12.1?} {:>10}",
            algorithm_name(algorithm),
            recall(&exact, &graph),
            elapsed,
            graph.num_edges()
        )?;
    }
    if let (Some(path), Some(r)) = (&options.metrics_out, &registry) {
        write_metrics(path, r, options.metrics_format)?;
    }
    Ok(())
}

fn generate(options: &GenerateOptions, out: &mut dyn Write) -> Result<(), CommandError> {
    if options.scale <= 0.0 {
        return Err(err("--scale must be positive"));
    }
    let dataset = options.preset.generate(options.scale, options.seed);
    save_snap_tsv(&dataset, &options.output)?;
    let s = DatasetStats::compute(&dataset);
    writeln!(
        out,
        "generated {}: {} users, {} items, {} ratings (density {:.4}%) -> {}",
        s.name,
        s.num_users,
        s.num_items,
        s.num_ratings,
        s.density_percent(),
        options.output.display()
    )?;
    Ok(())
}

fn recommend(options: &RecommendOptions, out: &mut dyn Write) -> Result<(), CommandError> {
    let dataset = load_dataset(&options.input)?;
    let graph = KnnGraphBuilder::new(options.k).build(&dataset);
    let recommender = Recommender::new(Arc::new(dataset), Arc::new(graph))?;
    let recs = recommender.try_recommend(options.user, options.top)?;
    if recs.is_empty() {
        writeln!(out, "no recommendations for user {}", options.user)?;
        return Ok(());
    }
    writeln!(out, "top {} items for user {}:", recs.len(), options.user)?;
    for (rank, r) in recs.iter().enumerate() {
        writeln!(
            out,
            "{:>3}. item {:<8} score {:.4}",
            rank + 1,
            r.item,
            r.score
        )?;
    }
    Ok(())
}

fn search(options: &SearchOptions, out: &mut dyn Write) -> Result<(), CommandError> {
    let dataset = load_dataset(&options.input)?;
    let graph = KnnGraphBuilder::new(options.k).build(&dataset);
    let searcher = GraphSearcher::new(Arc::new(dataset), Arc::new(graph), ProfileMetric::Cosine)?;
    let query = QueryProfile::from_items(options.items.iter().copied());
    let hits = searcher.try_search(&query, options.top, (options.top * 4).max(40))?;
    if hits.is_empty() {
        writeln!(out, "no users match the query items")?;
        return Ok(());
    }
    writeln!(
        out,
        "top {} users for items {:?}:",
        hits.len(),
        options.items
    )?;
    for (rank, h) in hits.iter().enumerate() {
        writeln!(out, "{:>3}. user {:<8} sim {:.4}", rank + 1, h.user, h.sim)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("kiff-cli-test-{}-{name}", std::process::id()));
        p
    }

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn run_str(cmdline: &str) -> Result<String, CommandError> {
        let cmd = parse(&argv(cmdline)).expect("parse");
        let mut out = Vec::new();
        execute(&cmd, &mut out)?;
        Ok(String::from_utf8(out).unwrap())
    }

    /// Writes a small SNAP file, at a path of its own for every call:
    /// `fs::write` truncates first, so a shared path would let a test
    /// running in parallel read it empty.
    fn fixture() -> PathBuf {
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        let call = CALLS.fetch_add(1, Ordering::Relaxed);
        let path = tmp(&format!("fixture-{call}.tsv"));
        std::fs::write(
            &path,
            "# toy\n0\t0\n0\t1\n1\t1\n1\t2\n2\t3\n3\t3\n2\t0\n3\t1\n",
        )
        .unwrap();
        path
    }

    #[test]
    fn stats_prints_table1_columns() {
        let path = fixture();
        let out = run_str(&format!("stats --input {}", path.display())).unwrap();
        assert!(out.contains("users   : 4"), "{out}");
        assert!(out.contains("ratings : 8"), "{out}");
        assert!(out.contains("density"), "{out}");
    }

    #[test]
    fn build_writes_edge_list() {
        let input = fixture();
        let output = tmp("graph.tsv");
        let out = run_str(&format!(
            "build --input {} --k 2 --threads 1 --output {}",
            input.display(),
            output.display()
        ))
        .unwrap();
        assert!(out.contains("built 2-NN graph of 4 users"), "{out}");
        let graph = std::fs::read_to_string(&output).unwrap();
        let lines: Vec<&str> = graph.lines().filter(|l| !l.starts_with('#')).collect();
        assert!(!lines.is_empty());
        for line in &lines {
            let cols: Vec<&str> = line.split('\t').collect();
            assert_eq!(cols.len(), 3, "line '{line}'");
            let _: u32 = cols[0].parse().unwrap();
            let _: u32 = cols[1].parse().unwrap();
            let s: f64 = cols[2].parse().unwrap();
            assert!(s > 0.0);
        }
        std::fs::remove_file(output).ok();
    }

    #[test]
    fn build_to_stdout_when_no_output() {
        let input = fixture();
        let out = run_str(&format!(
            "build --input {} --k 1 --threads 1",
            input.display()
        ))
        .unwrap();
        assert!(out.lines().count() >= 4, "{out}");
    }

    #[test]
    fn build_all_algorithms() {
        let input = fixture();
        for algo in ["kiff", "nndescent", "hyrec", "l2knng", "lsh", "exact"] {
            let out = run_str(&format!(
                "build --input {} --k 1 --threads 1 --algorithm {algo}",
                input.display()
            ))
            .unwrap();
            // LSH may legitimately find no bucket collisions on a 4-user
            // toy; every other algorithm must emit edges.
            if algo != "lsh" {
                assert!(!out.is_empty(), "{algo}");
            }
        }
    }

    #[test]
    fn exact_writes_edge_list_and_brute_matches() {
        let input = fixture();
        let inverted = run_str(&format!(
            "exact --input {} --k 2 --threads 1",
            input.display()
        ))
        .unwrap();
        assert!(inverted.lines().count() >= 4, "{inverted}");
        let brute = run_str(&format!(
            "exact --input {} --k 2 --threads 1 --brute",
            input.display()
        ))
        .unwrap();
        assert_eq!(inverted, brute, "inverted index must match brute force");
    }

    #[test]
    fn compare_reports_every_algorithm() {
        let input = fixture();
        let out = run_str(&format!(
            "compare --input {} --k 1 --threads 1 --seed 7",
            input.display()
        ))
        .unwrap();
        assert!(out.contains("exact ground truth"), "{out}");
        for algo in ["kiff", "nndescent", "hyrec", "lsh"] {
            assert!(out.contains(algo), "missing {algo}: {out}");
        }
        let subset = run_str(&format!(
            "compare --input {} --k 1 --threads 1 --algorithms kiff",
            input.display()
        ))
        .unwrap();
        assert!(subset.contains("kiff"), "{subset}");
        assert!(!subset.contains("hyrec"), "{subset}");
    }

    #[test]
    fn generate_roundtrips_through_stats() {
        let output = tmp("gen.tsv");
        let out = run_str(&format!(
            "generate --preset wikipedia --scale 0.05 --output {}",
            output.display()
        ))
        .unwrap();
        assert!(out.contains("generated"), "{out}");
        let stats = run_str(&format!("stats --input {}", output.display())).unwrap();
        assert!(stats.contains("users"), "{stats}");
        std::fs::remove_file(output).ok();
    }

    #[test]
    fn recommend_prints_ranked_items() {
        let input = fixture();
        let out = run_str(&format!(
            "recommend --input {} --user 0 --k 2 --top 3",
            input.display()
        ))
        .unwrap();
        assert!(
            out.contains("top") || out.contains("no recommendations"),
            "{out}"
        );
    }

    #[test]
    fn recommend_rejects_bad_user() {
        let input = fixture();
        let e = run_str(&format!("recommend --input {} --user 99", input.display()));
        assert!(e.is_err());
        let e = e.unwrap_err();
        assert!(e.to_string().contains("unknown user 99"), "{e}");
        assert_eq!(e.exit_code(), 2, "unknown ids map to exit code 2");
    }

    #[test]
    fn search_finds_raters() {
        let input = fixture();
        let out = run_str(&format!(
            "search --input {} --items 0,1 --k 2 --top 3",
            input.display()
        ))
        .unwrap();
        assert!(out.contains("top"), "{out}");
        assert!(out.contains("user"), "{out}");
    }

    #[test]
    fn update_replays_a_stream() {
        let input = fixture();
        let updates = tmp("updates.tsv");
        // Two known users pick up items; user 9 is brand new and arrives
        // with two ratings. Timestamps arrive out of order on purpose.
        std::fs::write(
            &updates,
            "# streamed ratings\n2\t1\t1.0\t30\n0\t2\t1.0\t10\n9\t3\t1.0\t20\n9\t1\t1.0\t40\n",
        )
        .unwrap();
        let out = run_str(&format!(
            "update --input {} --updates {} --k 2",
            input.display(),
            updates.display()
        ))
        .unwrap();
        assert!(out.contains("stream  : 4 updates (1 new users"), "{out}");
        assert!(out.contains("recall vs rebuild"), "{out}");
        assert!(out.contains("per-update work"), "{out}");
        std::fs::remove_file(updates).ok();
    }

    /// Runs `kiff serve` (`cmdline` must pass `--addr-file addr_file`)
    /// on a thread, returning it and the address the daemon bound.
    fn spawn_daemon(
        cmdline: String,
        addr_file: &Path,
    ) -> (
        std::thread::JoinHandle<Result<String, CommandError>>,
        String,
    ) {
        std::fs::remove_file(addr_file).ok();
        let daemon = std::thread::spawn(move || run_str(&cmdline));
        // The daemon writes its ephemeral port once the listener is up.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let addr = loop {
            if let Ok(s) = std::fs::read_to_string(addr_file) {
                let s = s.trim().to_string();
                if !s.is_empty() {
                    break s;
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "daemon never published its address"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        };
        (daemon, addr)
    }

    #[test]
    fn serve_keeps_a_thread_for_reads_when_the_shards_leave_one() {
        assert_eq!(engine_threads(Some(2), 1), 1);
        assert_eq!(engine_threads(Some(8), 1), 7);
        assert_eq!(engine_threads(Some(8), 2), 7);
        assert_eq!(engine_threads(Some(2), 2), 2);
        assert_eq!(engine_threads(Some(2), 4), 2);
        assert_eq!(engine_threads(Some(1), 1), 1);
        assert!(engine_threads(None, 1) >= 1);
    }

    #[test]
    fn serve_answers_over_tcp_and_shuts_down() {
        let input = fixture();
        let addr_file = tmp("serve-addr.txt");
        let cmdline = format!(
            "serve --input {} --k 2 --addr 127.0.0.1:0 --addr-file {}",
            input.display(),
            addr_file.display()
        );
        let (daemon, addr) = spawn_daemon(cmdline, &addr_file);

        let mut client = kiff::serve::Client::connect(&addr).expect("connect");
        client.ping().expect("ping");
        let nbrs = client.neighbors(0).expect("neighbors");
        assert!(!nbrs.is_empty(), "user 0 has neighbours");
        let applied = client
            .update(&[Update::AddRating {
                user: 2,
                item: 1,
                rating: 1.0,
            }])
            .expect("update");
        assert_eq!(applied, 1);
        let e = client.neighbors(99).unwrap_err();
        assert_eq!(e.exit_code(), 7, "server-side failures surface as remote");
        client.shutdown().expect("shutdown");
        let out = daemon.join().expect("join").expect("serve run");
        assert!(out.contains("serving on "), "{out}");
        assert!(out.contains("volatile"), "{out}");
        assert!(out.contains("daemon stopped"), "{out}");
        std::fs::remove_file(&addr_file).ok();
    }

    #[test]
    fn serve_restart_over_a_snapshot_skips_the_build() {
        let input = fixture();
        let addr_file = tmp("serve-restart-addr.txt");
        let data_dir = tmp("serve-restart-datadir");
        std::fs::remove_dir_all(&data_dir).ok();
        let cmdline = format!(
            "serve --input {} --k 2 --addr 127.0.0.1:0 --addr-file {} --data-dir {}",
            input.display(),
            addr_file.display(),
            data_dir.display()
        );
        let answers = |client: &mut kiff::serve::Client| -> Vec<Vec<Neighbor>> {
            (0..5)
                .map(|u| client.neighbors(u).expect("neighbors"))
                .collect()
        };

        let (daemon, addr) = spawn_daemon(cmdline.clone(), &addr_file);
        let mut client = kiff::serve::Client::connect(&addr).expect("connect");
        let updates = [
            Update::AddRating {
                user: 2,
                item: 1,
                rating: 1.0,
            },
            Update::AddUser,
            Update::AddRating {
                user: 4,
                item: 3,
                rating: 2.0,
            },
        ];
        assert_eq!(client.update(&updates).expect("update"), 3);
        client.snapshot().expect("snapshot");
        let before = answers(&mut client);
        client.shutdown().expect("shutdown");
        let first = daemon.join().expect("join").expect("serve run");
        assert!(first.contains("built k=2 graph"), "{first}");
        assert!(first.contains("fresh data directory"), "{first}");

        let (daemon, addr) = spawn_daemon(cmdline, &addr_file);
        let mut client = kiff::serve::Client::connect(&addr).expect("connect");
        assert_eq!(
            answers(&mut client),
            before,
            "the restart answers as before"
        );
        client.shutdown().expect("shutdown");
        let second = daemon.join().expect("join").expect("serve run");
        assert!(second.contains("recovered snapshot seq 3"), "{second}");
        assert!(
            !second.contains("built k="),
            "the restart built a graph: {second}"
        );
        std::fs::remove_file(&addr_file).ok();
        std::fs::remove_dir_all(&data_dir).ok();
    }

    #[test]
    fn serve_restart_over_a_snapshot_reads_no_input() {
        let input = fixture();
        let addr_file = tmp("serve-no-input-addr.txt");
        let data_dir = tmp("serve-no-input-datadir");
        std::fs::remove_dir_all(&data_dir).ok();
        let cmdline = format!(
            "serve --input {} --k 2 --addr 127.0.0.1:0 --addr-file {} --data-dir {}",
            input.display(),
            addr_file.display(),
            data_dir.display()
        );
        let answers = |client: &mut kiff::serve::Client| -> Vec<Vec<Neighbor>> {
            (0..5)
                .map(|u| client.neighbors(u).expect("neighbors"))
                .collect()
        };

        let (daemon, addr) = spawn_daemon(cmdline.clone(), &addr_file);
        let mut client = kiff::serve::Client::connect(&addr).expect("connect");
        let updates = [
            Update::AddUser,
            Update::AddRating {
                user: 4,
                item: 1,
                rating: 2.0,
            },
        ];
        assert_eq!(client.update(&updates).expect("update"), 2);
        client.snapshot().expect("snapshot");
        let before = answers(&mut client);
        client.shutdown().expect("shutdown");
        daemon.join().expect("join").expect("serve run");

        // The snapshot holds the dataset: the restart needs no input.
        std::fs::remove_file(&input).unwrap();
        let (daemon, addr) = spawn_daemon(cmdline, &addr_file);
        let mut client = kiff::serve::Client::connect(&addr).expect("connect");
        assert_eq!(
            answers(&mut client),
            before,
            "the restart answers as before"
        );
        client.shutdown().expect("shutdown");
        let out = daemon.join().expect("join").expect("serve run");
        assert!(out.contains("recovered snapshot seq 2"), "{out}");

        // A fresh data directory starts from the input, so it fails, and
        // names the file it could not read.
        let fresh_dir = tmp("serve-no-input-fresh");
        std::fs::remove_dir_all(&fresh_dir).ok();
        let e = run_str(&format!(
            "serve --input {} --k 2 --addr 127.0.0.1:0 --data-dir {}",
            input.display(),
            fresh_dir.display()
        ))
        .unwrap_err();
        assert!(e.to_string().contains(&input.display().to_string()), "{e}");
        std::fs::remove_file(&addr_file).ok();
        std::fs::remove_dir_all(&data_dir).ok();
        std::fs::remove_dir_all(&fresh_dir).ok();
    }

    #[test]
    fn serve_times_each_recovery_stage_it_runs() {
        let input = fixture();
        let addr_file = tmp("serve-stages-addr.txt");
        let data_dir = tmp("serve-stages-datadir");
        std::fs::remove_dir_all(&data_dir).ok();
        let cmdline = format!(
            "serve --input {} --k 2 --addr 127.0.0.1:0 --addr-file {} --data-dir {}",
            input.display(),
            addr_file.display(),
            data_dir.display()
        );
        // Samples per recovery stage, read from the daemon's metrics; a
        // stage that never ran reads 0.
        let stages = |client: &mut kiff::serve::Client| -> Vec<(&str, u64)> {
            let metrics = client.metrics().expect("metrics");
            ["seed", "snapshot_load", "engine", "wal_replay", "wal_apply"]
                .into_iter()
                .map(|stage| {
                    let count = metrics
                        .get("histograms")
                        .and_then(|h| h.get(&format!("recovery.{stage}_ns")))
                        .and_then(|h| h.get("count"))
                        .and_then(|c| c.as_u64())
                        .unwrap_or(0);
                    (stage, count)
                })
                .collect()
        };

        // A fresh directory seeds, and has no snapshot to load.
        let (daemon, addr) = spawn_daemon(cmdline.clone(), &addr_file);
        let mut client = kiff::serve::Client::connect(&addr).expect("connect");
        assert_eq!(
            stages(&mut client),
            [
                ("seed", 1),
                ("snapshot_load", 0),
                ("engine", 0),
                ("wal_replay", 1),
                ("wal_apply", 1)
            ]
        );
        let update = Update::AddRating {
            user: 2,
            item: 1,
            rating: 1.0,
        };
        assert_eq!(client.update(&[update]).expect("update"), 1);
        client.snapshot().expect("snapshot");
        client.shutdown().expect("shutdown");
        daemon.join().expect("join").expect("serve run");

        // The restart over the snapshot runs every stage but the seed.
        let (daemon, addr) = spawn_daemon(cmdline, &addr_file);
        let mut client = kiff::serve::Client::connect(&addr).expect("connect");
        assert_eq!(
            stages(&mut client),
            [
                ("seed", 0),
                ("snapshot_load", 1),
                ("engine", 1),
                ("wal_replay", 1),
                ("wal_apply", 1)
            ]
        );
        client.shutdown().expect("shutdown");
        daemon.join().expect("join").expect("serve run");
        std::fs::remove_file(&addr_file).ok();
        std::fs::remove_dir_all(&data_dir).ok();
    }

    #[test]
    fn serve_degraded_ok_survives_broken_data_dir() {
        let input = fixture();
        let addr_file = tmp("serve-degraded-addr.txt");
        // A regular file where a directory is expected: recovery fails,
        // but --degraded-ok keeps the daemon up read-only.
        let bad_dir = tmp("serve-degraded-datadir");
        std::fs::remove_dir_all(&bad_dir).ok();
        std::fs::remove_file(&bad_dir).ok();
        std::fs::write(&bad_dir, "not a directory").unwrap();
        let cmdline = format!(
            "serve --input {} --k 2 --addr 127.0.0.1:0 --addr-file {} \
             --data-dir {} --degraded-ok --max-inflight 8",
            input.display(),
            addr_file.display(),
            bad_dir.display()
        );
        let (daemon, addr) = spawn_daemon(cmdline, &addr_file);

        let mut client = kiff::serve::Client::connect(&addr).expect("connect");
        let nbrs = client.neighbors(0).expect("reads still serve");
        assert!(!nbrs.is_empty(), "user 0 has neighbours");
        let e = client
            .update(&[Update::AddRating {
                user: 2,
                item: 1,
                rating: 1.0,
            }])
            .unwrap_err();
        assert_eq!(e.exit_code(), 7, "refusal surfaces as a remote error");
        assert!(e.to_string().contains("unavailable"), "{e}");
        assert!(e.is_retryable(), "unavailable is retryable: {e}");
        let health = client.health().expect("health");
        assert_ne!(health.status, "healthy", "read-only mode is not healthy");
        client.shutdown().expect("shutdown");
        let out = daemon.join().expect("join").expect("serve run");
        assert!(
            out.contains("--degraded-ok set, serving read-only"),
            "{out}"
        );
        assert!(
            out.contains("shedding beyond 8 concurrent request(s)"),
            "{out}"
        );
        std::fs::remove_file(&addr_file).ok();
        std::fs::remove_file(&bad_dir).ok();
    }

    #[test]
    fn update_batched_matches_contract() {
        let input = fixture();
        let updates = tmp("updates-batch.tsv");
        std::fs::write(&updates, "2\t1\n0\t2\n3\t0\n1\t3\n").unwrap();
        let out = run_str(&format!(
            "update --input {} --updates {} --k 2 --batch 4 --repair-width 8",
            input.display(),
            updates.display()
        ))
        .unwrap();
        assert!(out.contains("batch 4"), "{out}");
        assert!(out.contains("recall vs rebuild"), "{out}");
        std::fs::remove_file(updates).ok();
    }

    #[test]
    fn update_sharded_replays_a_stream() {
        let input = fixture();
        let updates = tmp("updates-sharded.tsv");
        std::fs::write(&updates, "2\t1\t1.0\t30\n0\t2\t1.0\t10\n9\t3\t1.0\t20\n").unwrap();
        let out = run_str(&format!(
            "update --input {} --updates {} --k 2 --batch 2 --shards 2 --threads 2",
            input.display(),
            updates.display()
        ))
        .unwrap();
        assert!(out.contains("shards  : 2"), "{out}");
        assert!(out.contains("cross-shard:"), "{out}");
        assert!(out.contains("recall vs rebuild"), "{out}");
        std::fs::remove_file(updates).ok();
    }

    #[test]
    fn build_exports_metrics_to_their_own_file() {
        let input = fixture();
        let metrics = tmp("metrics.json");
        let out = run_str(&format!(
            "build --input {} --k 2 --threads 1 --metrics-out {}",
            input.display(),
            metrics.display()
        ))
        .unwrap();
        // The edge list still goes to stdout; the snapshot to the file.
        assert!(out.lines().count() >= 4, "{out}");
        assert!(!out.contains("\"counters\""), "metrics leaked: {out}");
        let m = std::fs::read_to_string(&metrics).unwrap();
        assert!(m.contains("\"enabled\": true"), "{m}");
        assert!(m.contains("\"core.refine.sims\""), "{m}");
        assert!(m.contains("\"core.phase.total_ns\""), "{m}");
        std::fs::remove_file(metrics).ok();
    }

    #[test]
    fn update_exports_prometheus_metrics_without_interleaving() {
        let input = fixture();
        let updates = tmp("updates-metrics.tsv");
        std::fs::write(&updates, "2\t1\t1.0\t30\n0\t2\t1.0\t10\n9\t3\t1.0\t20\n").unwrap();
        let metrics = tmp("metrics.prom");
        let out = run_str(&format!(
            "update --input {} --updates {} --k 2 --batch 2 --shards 2 --threads 2 \
             --metrics-out {} --metrics-format prom",
            input.display(),
            updates.display(),
            metrics.display()
        ))
        .unwrap();
        assert!(out.contains("telemetry: "), "{out}");
        assert!(out.contains("recall vs rebuild"), "{out}");
        assert!(!out.contains("# TYPE"), "metrics leaked into stdout: {out}");
        let m = std::fs::read_to_string(&metrics).unwrap();
        assert!(
            m.contains("# TYPE kiff_shard_0_cross_messages counter"),
            "{m}"
        );
        assert!(m.contains("kiff_online_apply_ns"), "{m}");
        std::fs::remove_file(updates).ok();
        std::fs::remove_file(metrics).ok();
    }

    #[test]
    fn update_rejects_empty_stream() {
        let input = fixture();
        let updates = tmp("updates-empty.tsv");
        std::fs::write(&updates, "# nothing\n").unwrap();
        let e = run_str(&format!(
            "update --input {} --updates {}",
            input.display(),
            updates.display()
        ));
        assert!(e.unwrap_err().to_string().contains("empty"));
        std::fs::remove_file(updates).ok();
    }

    #[test]
    fn missing_file_is_reported() {
        let e = run_str("stats --input /nonexistent/nope.tsv");
        assert!(e.is_err());
    }

    #[test]
    fn unknown_extension_needs_format() {
        let path = tmp("data.weird");
        std::fs::write(&path, "0\t0\n").unwrap();
        let e = run_str(&format!("stats --input {}", path.display()));
        assert!(e.unwrap_err().to_string().contains("--format"));
        let ok = run_str(&format!("stats --input {} --format tsv", path.display()));
        assert!(ok.is_ok());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn help_contains_all_commands() {
        let out = run_str("help").unwrap();
        for c in [
            "build",
            "exact",
            "compare",
            "stats",
            "generate",
            "recommend",
            "search",
            "update",
        ] {
            assert!(out.contains(c), "usage lacks '{c}'");
        }
    }
}
