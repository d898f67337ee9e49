//! Argument parsing for the `kiff` binary.

use std::fmt;
use std::path::PathBuf;

use kiff::telemetry::MetricsFormat;
use kiff::{Algorithm, Metric};
use kiff_dataset::PaperDataset;

/// Dataset file format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// SNAP-style `user<TAB>item[<TAB>rating]` edge list.
    SnapTsv,
    /// MovieLens `user::item::rating::timestamp`.
    MovieLens,
    /// JSON dump written by `kiff_dataset::io::save_json`.
    Json,
}

impl Format {
    /// Infers the format from a file extension; `None` if unknown.
    pub fn from_path(path: &std::path::Path) -> Option<Self> {
        match path.extension()?.to_str()? {
            "tsv" | "txt" | "edges" => Some(Format::SnapTsv),
            "dat" => Some(Format::MovieLens),
            "json" => Some(Format::Json),
            _ => None,
        }
    }
}

/// Common options of dataset-consuming subcommands.
#[derive(Debug, Clone)]
pub struct InputOptions {
    /// Dataset file.
    pub input: PathBuf,
    /// Explicit format (otherwise inferred from the extension).
    pub format: Option<Format>,
}

/// Options of `kiff build`.
#[derive(Debug, Clone)]
pub struct BuildOptions {
    /// Dataset to load.
    pub input: InputOptions,
    /// Neighbourhood size.
    pub k: usize,
    /// Construction algorithm.
    pub algorithm: Algorithm,
    /// Similarity metric.
    pub metric: Metric,
    /// KIFF's γ (default 2k).
    pub gamma: Option<usize>,
    /// KIFF's β / the greedy baselines' termination threshold.
    pub beta: Option<f64>,
    /// Worker threads.
    pub threads: Option<usize>,
    /// RNG seed for randomised algorithms.
    pub seed: u64,
    /// Where the graph edge list goes (`-` or absent = stdout).
    pub output: Option<PathBuf>,
    /// When set, capture a telemetry snapshot of the build into this
    /// file (never interleaved with the human-readable output).
    pub metrics_out: Option<PathBuf>,
    /// Exporter rendering `--metrics-out` (default json).
    pub metrics_format: MetricsFormat,
}

/// Options of `kiff generate`.
#[derive(Debug, Clone)]
pub struct GenerateOptions {
    /// Which calibrated preset to generate.
    pub preset: PaperDataset,
    /// Scale multiplier on the preset's defaults.
    pub scale: f64,
    /// RNG seed.
    pub seed: u64,
    /// Output file (TSV).
    pub output: PathBuf,
}

/// Options of `kiff exact` (exact ground-truth construction).
#[derive(Debug, Clone)]
pub struct ExactOptions {
    /// Dataset to load.
    pub input: InputOptions,
    /// Neighbourhood size.
    pub k: usize,
    /// Similarity metric.
    pub metric: Metric,
    /// Exhaustive `O(|U|²)` scan instead of the inverted index.
    pub brute: bool,
    /// Worker threads.
    pub threads: Option<usize>,
    /// Where the graph edge list goes (`-` or absent = stdout).
    pub output: Option<PathBuf>,
}

/// Options of `kiff compare` (run the algorithm suite against exact
/// ground truth).
#[derive(Debug, Clone)]
pub struct CompareOptions {
    /// Dataset to load.
    pub input: InputOptions,
    /// Neighbourhood size.
    pub k: usize,
    /// Similarity metric.
    pub metric: Metric,
    /// Algorithms to run (default: kiff, nndescent, hyrec, lsh).
    pub algorithms: Vec<Algorithm>,
    /// Worker threads.
    pub threads: Option<usize>,
    /// RNG seed for randomised algorithms.
    pub seed: u64,
    /// When set, capture one telemetry snapshot spanning every
    /// algorithm of the suite into this file.
    pub metrics_out: Option<PathBuf>,
    /// Exporter rendering `--metrics-out` (default json).
    pub metrics_format: MetricsFormat,
}

/// Options of `kiff recommend`.
#[derive(Debug, Clone)]
pub struct RecommendOptions {
    /// Dataset to load.
    pub input: InputOptions,
    /// User to recommend for (internal dense id).
    pub user: u32,
    /// Neighbourhood size for the underlying graph.
    pub k: usize,
    /// How many recommendations to print.
    pub top: usize,
}

/// Options of `kiff search`.
#[derive(Debug, Clone)]
pub struct SearchOptions {
    /// Dataset to load.
    pub input: InputOptions,
    /// Query items (internal dense ids).
    pub items: Vec<u32>,
    /// Neighbourhood size for the underlying graph.
    pub k: usize,
    /// How many hits to print.
    pub top: usize,
}

/// Options of `kiff update`.
#[derive(Debug, Clone)]
pub struct UpdateOptions {
    /// Base dataset to load and build the initial graph from.
    pub input: InputOptions,
    /// TSV of streamed rating updates
    /// (`user<TAB>item[<TAB>rating[<TAB>timestamp]]`, external ids).
    pub updates: PathBuf,
    /// Neighbourhood size.
    pub k: usize,
    /// Apply updates in batches of this size (1 = one repair per update).
    pub batch: usize,
    /// Online repair width (default 8k).
    pub repair_width: Option<usize>,
    /// Shard the engine across this many user partitions (1 = the
    /// single-threaded engine).
    pub shards: usize,
    /// Worker threads for the sharded engine and rebuild comparison.
    pub threads: Option<usize>,
    /// When set, capture the replay's telemetry (per-shard counters,
    /// repair latency histograms) into this file.
    pub metrics_out: Option<PathBuf>,
    /// Exporter rendering `--metrics-out` (default json).
    pub metrics_format: MetricsFormat,
}

/// Options of `kiff serve`.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Base dataset to load and build the initial graph from (the
    /// recovery *seed* — keep it stable across restarts of the same
    /// data directory).
    pub input: InputOptions,
    /// Neighbourhood size.
    pub k: usize,
    /// Similarity metric of the initial build.
    pub metric: Metric,
    /// Address to listen on (`host:port`; port 0 = ephemeral).
    pub addr: String,
    /// Directory for the WAL and snapshots. Absent = volatile daemon
    /// (queries and updates work, nothing survives a restart).
    pub data_dir: Option<PathBuf>,
    /// Snapshot after this many persisted updates (0 = only on
    /// explicit `snapshot` requests and graceful shutdown).
    pub snapshot_every: Option<u64>,
    /// Shard the engine across this many user partitions.
    pub shards: usize,
    /// Worker threads for the initial build and the sharded engine,
    /// which leaves one of them to reads when the shards do not need it.
    pub threads: Option<usize>,
    /// When set, write the bound address (`host:port`) to this file
    /// once the listener is up — for scripts that pass port 0.
    pub addr_file: Option<PathBuf>,
    /// Maximum concurrently processed requests before the daemon sheds
    /// load with a typed `overloaded` error (0 = unbounded).
    pub max_inflight: usize,
    /// When the data directory cannot be opened or recovered, serve
    /// queries read-only instead of exiting.
    pub degraded_ok: bool,
    /// Failpoint spec (`name=trigger[%scope],...`) armed at startup on
    /// top of `KIFF_FAILPOINTS` — chaos drills against a live daemon.
    pub failpoints: Option<String>,
    /// Replication channel to listen on (`host:port`; port 0 =
    /// ephemeral). Enables replication; absent = standalone daemon.
    pub repl_listen: Option<String>,
    /// Start as a replica of this primary (its *client* address).
    /// Absent with `--repl-listen` = start as the primary.
    pub replica_of: Option<String>,
    /// Client addresses of every group member, polled during elections.
    pub peers: Vec<String>,
    /// Replication heartbeat interval in milliseconds (default 500);
    /// a primary silent for four intervals triggers an election.
    pub heartbeat_ms: Option<u64>,
    /// Minimum replicas that must ack a write within the ack timeout
    /// for the client to see success (default 0 = best-effort
    /// semi-sync); below it the write is refused as retryable
    /// `Unavailable`.
    pub min_sync_replicas: Option<usize>,
}

/// A parsed subcommand.
#[derive(Debug, Clone)]
pub enum Command {
    /// Build a KNN graph.
    Build(BuildOptions),
    /// Build the exact ground-truth graph.
    Exact(ExactOptions),
    /// Run the algorithm suite against exact ground truth.
    Compare(CompareOptions),
    /// Print Table-I style dataset statistics.
    Stats(InputOptions),
    /// Generate a synthetic dataset.
    Generate(GenerateOptions),
    /// Print top-N recommendations for a user.
    Recommend(RecommendOptions),
    /// Search the graph for a free-standing item-set query.
    Search(SearchOptions),
    /// Replay streamed rating updates through the online engine.
    Update(UpdateOptions),
    /// Run the query daemon.
    Serve(ServeOptions),
    /// Print usage.
    Help,
}

/// A parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// The usage text printed by `kiff help`.
pub const USAGE: &str = "kiff — KNN graph construction for sparse datasets (ICDE'16 reproduction)

usage: kiff <command> [options]

commands:
  build      build a KNN graph from a ratings file
             --input FILE [--format tsv|movielens|json] --k N
             [--algorithm kiff|nndescent|hyrec|l2knng|lsh|exact]
             [--metric cosine|binary-cosine|jaccard|weighted-jaccard|dice|adamic-adar]
             [--gamma N] [--beta F] [--threads N] [--seed N] [--output FILE]
             [--metrics-out FILE [--metrics-format json|prom]]
  exact      build the exact ground-truth graph (inverted index, or
             --brute for the exhaustive O(|U|^2) scan)
             --input FILE --k N [--metric ...] [--threads N] [--output FILE]
  compare    run the algorithm suite and report recall against exact
             ground truth, wall time and edges per algorithm
             --input FILE --k N [--metric ...] [--algorithms kiff,nndescent,...]
             [--threads N] [--seed N]
             [--metrics-out FILE [--metrics-format json|prom]]
  stats      print dataset statistics (Table I columns)
             --input FILE [--format ...]
  generate   write a synthetic dataset calibrated to a paper dataset
             --preset wikipedia|arxiv|gowalla|dblp [--scale F] [--seed N] --output FILE
  recommend  top-N items for a user via a KIFF graph
             --input FILE --user ID [--k N] [--top N]
  search     top users for an ad-hoc set of items via a KIFF graph
             --input FILE --items 1,2,3 [--k N] [--top N]
  update     build a graph, then replay a stream of timestamped ratings
             through the online engine and report repair cost vs rebuild
             --input BASE --updates STREAM [--k N] [--batch N]
             [--repair-width N] [--shards N] [--threads N]
             [--metrics-out FILE [--metrics-format json|prom]]
  serve      build a graph, then answer queries and accept updates over
             a TCP socket; with --data-dir, persist updates to a WAL and
             periodic snapshots and recover from them on restart
             --input SEED [--k N] [--metric ...] [--addr HOST:PORT]
             [--data-dir DIR] [--snapshot-every N] [--shards N]
             [--threads N] [--addr-file FILE] [--max-inflight N]
             [--degraded-ok] [--failpoints SPEC]
             [--repl-listen HOST:PORT [--replica-of HOST:PORT]
              [--peers HOST:PORT,...] [--heartbeat-ms N]
              [--min-sync-replicas N]]
  help       this text

The graph edge list is written as `user<TAB>neighbor<TAB>similarity`.";

fn value(flag: &str, iter: &mut impl Iterator<Item = String>) -> Result<String, ParseError> {
    iter.next()
        .ok_or_else(|| ParseError(format!("{flag} needs a value")))
}

fn parse_num<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, ParseError>
where
    T::Err: fmt::Display,
{
    raw.parse()
        .map_err(|e| ParseError(format!("bad {flag} '{raw}': {e}")))
}

fn parse_metrics_format(raw: &str) -> Result<MetricsFormat, ParseError> {
    MetricsFormat::parse(raw).ok_or_else(|| {
        ParseError(format!(
            "unknown metrics format '{raw}' (expected json or prom)"
        ))
    })
}

fn parse_format(raw: &str) -> Result<Format, ParseError> {
    match raw {
        "tsv" | "snap" => Ok(Format::SnapTsv),
        "movielens" | "ml" | "dat" => Ok(Format::MovieLens),
        "json" => Ok(Format::Json),
        other => Err(ParseError(format!("unknown format '{other}'"))),
    }
}

fn parse_algorithm(raw: &str) -> Result<Algorithm, ParseError> {
    match raw {
        "kiff" => Ok(Algorithm::Kiff),
        "nndescent" | "nn-descent" => Ok(Algorithm::NnDescent),
        "hyrec" => Ok(Algorithm::HyRec),
        "l2knng" => Ok(Algorithm::L2Knng),
        "lsh" => Ok(Algorithm::Lsh),
        "exact" | "brute" => Ok(Algorithm::Exact),
        other => Err(ParseError(format!("unknown algorithm '{other}'"))),
    }
}

fn parse_metric(raw: &str) -> Result<Metric, ParseError> {
    match raw {
        "cosine" => Ok(Metric::Cosine),
        "binary-cosine" => Ok(Metric::BinaryCosine),
        "jaccard" => Ok(Metric::Jaccard),
        "weighted-jaccard" => Ok(Metric::WeightedJaccard),
        "dice" => Ok(Metric::Dice),
        "adamic-adar" => Ok(Metric::AdamicAdar),
        other => Err(ParseError(format!("unknown metric '{other}'"))),
    }
}

fn parse_preset(raw: &str) -> Result<PaperDataset, ParseError> {
    match raw {
        "wikipedia" => Ok(PaperDataset::Wikipedia),
        "arxiv" => Ok(PaperDataset::Arxiv),
        "gowalla" => Ok(PaperDataset::Gowalla),
        "dblp" => Ok(PaperDataset::Dblp),
        other => Err(ParseError(format!("unknown preset '{other}'"))),
    }
}

fn parse_peers(raw: &str) -> Result<Vec<String>, ParseError> {
    let list: Vec<String> = raw
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(String::from)
        .collect();
    if list.is_empty() {
        return Err(ParseError("--peers must list at least one address".into()));
    }
    Ok(list)
}

fn parse_items(raw: &str) -> Result<Vec<u32>, ParseError> {
    raw.split(',')
        .filter(|s| !s.is_empty())
        .map(|s| parse_num("--items", s.trim()))
        .collect()
}

fn parse_algorithms(raw: &str) -> Result<Vec<Algorithm>, ParseError> {
    let list: Vec<Algorithm> = raw
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| parse_algorithm(s.trim()))
        .collect::<Result<_, _>>()?;
    if list.is_empty() {
        return Err(ParseError("--algorithms must list at least one".into()));
    }
    Ok(list)
}

/// Parses `argv` (excluding the program name) into a [`Command`].
pub fn parse(argv: &[String]) -> Result<Command, ParseError> {
    let mut iter = argv.iter().cloned();
    let sub = iter
        .next()
        .ok_or_else(|| ParseError(format!("missing command\n\n{USAGE}")))?;

    // Collected flags, validated per subcommand afterwards.
    let mut input: Option<PathBuf> = None;
    let mut format: Option<Format> = None;
    let mut output: Option<PathBuf> = None;
    let mut k: Option<usize> = None;
    let mut algorithm = Algorithm::Kiff;
    let mut metric = Metric::Cosine;
    let mut gamma: Option<usize> = None;
    let mut beta: Option<f64> = None;
    let mut threads: Option<usize> = None;
    let mut seed = 42u64;
    let mut scale = 1.0f64;
    let mut preset: Option<PaperDataset> = None;
    let mut user: Option<u32> = None;
    let mut top: Option<usize> = None;
    let mut items: Option<Vec<u32>> = None;
    let mut updates: Option<PathBuf> = None;
    let mut batch: Option<usize> = None;
    let mut repair_width: Option<usize> = None;
    let mut shards: Option<usize> = None;
    let mut algorithms: Option<Vec<Algorithm>> = None;
    let mut brute = false;
    let mut metrics_out: Option<PathBuf> = None;
    let mut metrics_format: Option<MetricsFormat> = None;
    let mut addr: Option<String> = None;
    let mut data_dir: Option<PathBuf> = None;
    let mut snapshot_every: Option<u64> = None;
    let mut addr_file: Option<PathBuf> = None;
    let mut max_inflight: Option<usize> = None;
    let mut degraded_ok = false;
    let mut failpoints: Option<String> = None;
    let mut repl_listen: Option<String> = None;
    let mut replica_of: Option<String> = None;
    let mut peers: Option<Vec<String>> = None;
    let mut heartbeat_ms: Option<u64> = None;
    let mut min_sync_replicas: Option<usize> = None;

    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--input" | "-i" => input = Some(PathBuf::from(value("--input", &mut iter)?)),
            "--format" | "-f" => format = Some(parse_format(&value("--format", &mut iter)?)?),
            "--output" | "-o" => output = Some(PathBuf::from(value("--output", &mut iter)?)),
            "--k" | "-k" => k = Some(parse_num("--k", &value("--k", &mut iter)?)?),
            "--algorithm" | "-a" => algorithm = parse_algorithm(&value("--algorithm", &mut iter)?)?,
            "--metric" | "-m" => metric = parse_metric(&value("--metric", &mut iter)?)?,
            "--gamma" => gamma = Some(parse_num("--gamma", &value("--gamma", &mut iter)?)?),
            "--beta" => beta = Some(parse_num("--beta", &value("--beta", &mut iter)?)?),
            "--threads" => threads = Some(parse_num("--threads", &value("--threads", &mut iter)?)?),
            "--seed" => seed = parse_num("--seed", &value("--seed", &mut iter)?)?,
            "--scale" => scale = parse_num("--scale", &value("--scale", &mut iter)?)?,
            "--preset" => preset = Some(parse_preset(&value("--preset", &mut iter)?)?),
            "--user" | "-u" => user = Some(parse_num("--user", &value("--user", &mut iter)?)?),
            "--top" | "-n" => top = Some(parse_num("--top", &value("--top", &mut iter)?)?),
            "--items" => items = Some(parse_items(&value("--items", &mut iter)?)?),
            "--updates" => updates = Some(PathBuf::from(value("--updates", &mut iter)?)),
            "--batch" => batch = Some(parse_num("--batch", &value("--batch", &mut iter)?)?),
            "--repair-width" => {
                repair_width = Some(parse_num(
                    "--repair-width",
                    &value("--repair-width", &mut iter)?,
                )?)
            }
            "--shards" => shards = Some(parse_num("--shards", &value("--shards", &mut iter)?)?),
            "--algorithms" => {
                algorithms = Some(parse_algorithms(&value("--algorithms", &mut iter)?)?)
            }
            "--brute" => brute = true,
            "--addr" => addr = Some(value("--addr", &mut iter)?),
            "--data-dir" => data_dir = Some(PathBuf::from(value("--data-dir", &mut iter)?)),
            "--snapshot-every" => {
                snapshot_every = Some(parse_num(
                    "--snapshot-every",
                    &value("--snapshot-every", &mut iter)?,
                )?)
            }
            "--addr-file" => addr_file = Some(PathBuf::from(value("--addr-file", &mut iter)?)),
            "--max-inflight" => {
                max_inflight = Some(parse_num(
                    "--max-inflight",
                    &value("--max-inflight", &mut iter)?,
                )?)
            }
            "--degraded-ok" => degraded_ok = true,
            "--failpoints" => failpoints = Some(value("--failpoints", &mut iter)?),
            "--repl-listen" => repl_listen = Some(value("--repl-listen", &mut iter)?),
            "--replica-of" => replica_of = Some(value("--replica-of", &mut iter)?),
            "--peers" => peers = Some(parse_peers(&value("--peers", &mut iter)?)?),
            "--heartbeat-ms" => {
                heartbeat_ms = Some(parse_num(
                    "--heartbeat-ms",
                    &value("--heartbeat-ms", &mut iter)?,
                )?)
            }
            "--min-sync-replicas" => {
                min_sync_replicas = Some(parse_num(
                    "--min-sync-replicas",
                    &value("--min-sync-replicas", &mut iter)?,
                )?)
            }
            "--metrics-out" => {
                metrics_out = Some(PathBuf::from(value("--metrics-out", &mut iter)?))
            }
            "--metrics-format" => {
                metrics_format = Some(parse_metrics_format(&value(
                    "--metrics-format",
                    &mut iter,
                )?)?)
            }
            "--help" | "-h" => return Ok(Command::Help),
            other => return Err(ParseError(format!("unknown option '{other}'\n\n{USAGE}"))),
        }
    }

    if metrics_format.is_some() && metrics_out.is_none() {
        return Err(ParseError("--metrics-format requires --metrics-out".into()));
    }

    let need_input = |input: Option<PathBuf>| -> Result<InputOptions, ParseError> {
        let input = input.ok_or_else(|| ParseError("--input is required".into()))?;
        Ok(InputOptions { input, format })
    };

    // Telemetry capture is wired through build/compare/update only;
    // reject rather than silently ignore the flag elsewhere.
    fn no_metrics(sub: &str, metrics_out: &Option<PathBuf>) -> Result<(), ParseError> {
        if metrics_out.is_some() {
            return Err(ParseError(format!(
                "--metrics-out is not supported by '{sub}'"
            )));
        }
        Ok(())
    }

    match sub.as_str() {
        "build" => Ok(Command::Build(BuildOptions {
            input: need_input(input)?,
            k: k.ok_or_else(|| ParseError("--k is required".into()))?,
            algorithm,
            metric,
            gamma,
            beta,
            threads,
            seed,
            output,
            metrics_out,
            metrics_format: metrics_format.unwrap_or_default(),
        })),
        "exact" => {
            no_metrics("exact", &metrics_out)?;
            Ok(Command::Exact(ExactOptions {
                input: need_input(input)?,
                k: k.ok_or_else(|| ParseError("--k is required".into()))?,
                metric,
                brute,
                threads,
                output,
            }))
        }
        "compare" => Ok(Command::Compare(CompareOptions {
            input: need_input(input)?,
            k: k.ok_or_else(|| ParseError("--k is required".into()))?,
            metric,
            algorithms: algorithms.unwrap_or_else(|| {
                vec![
                    Algorithm::Kiff,
                    Algorithm::NnDescent,
                    Algorithm::HyRec,
                    Algorithm::Lsh,
                ]
            }),
            threads,
            seed,
            metrics_out,
            metrics_format: metrics_format.unwrap_or_default(),
        })),
        "stats" => {
            no_metrics("stats", &metrics_out)?;
            Ok(Command::Stats(need_input(input)?))
        }
        "generate" => {
            no_metrics("generate", &metrics_out)?;
            Ok(Command::Generate(GenerateOptions {
                preset: preset.ok_or_else(|| ParseError("--preset is required".into()))?,
                scale,
                seed,
                output: output.ok_or_else(|| ParseError("--output is required".into()))?,
            }))
        }
        "recommend" => {
            no_metrics("recommend", &metrics_out)?;
            Ok(Command::Recommend(RecommendOptions {
                input: need_input(input)?,
                user: user.ok_or_else(|| ParseError("--user is required".into()))?,
                k: k.unwrap_or(20),
                top: top.unwrap_or(10),
            }))
        }
        "search" => {
            no_metrics("search", &metrics_out)?;
            Ok(Command::Search(SearchOptions {
                input: need_input(input)?,
                items: items.ok_or_else(|| ParseError("--items is required".into()))?,
                k: k.unwrap_or(20),
                top: top.unwrap_or(10),
            }))
        }
        "update" => {
            let batch = batch.unwrap_or(1);
            if batch == 0 {
                return Err(ParseError("--batch must be positive".into()));
            }
            let shards = shards.unwrap_or(1);
            if shards == 0 {
                return Err(ParseError("--shards must be positive".into()));
            }
            Ok(Command::Update(UpdateOptions {
                input: need_input(input)?,
                updates: updates.ok_or_else(|| ParseError("--updates is required".into()))?,
                k: k.unwrap_or(20),
                batch,
                repair_width,
                shards,
                threads,
                metrics_out,
                metrics_format: metrics_format.unwrap_or_default(),
            }))
        }
        "serve" => {
            no_metrics("serve", &metrics_out)?;
            let shards = shards.unwrap_or(1);
            if shards == 0 {
                return Err(ParseError("--shards must be positive".into()));
            }
            if data_dir.is_none() && snapshot_every.is_some() {
                return Err(ParseError("--snapshot-every requires --data-dir".into()));
            }
            if degraded_ok && data_dir.is_none() {
                return Err(ParseError("--degraded-ok requires --data-dir".into()));
            }
            if let Some(spec) = &failpoints {
                // Surface a malformed spec as a usage error now, not a
                // startup crash after the graph build.
                kiff::core::fault::parse_spec(spec)
                    .map_err(|e| ParseError(format!("bad --failpoints: {e}")))?;
            }
            if repl_listen.is_none() && (replica_of.is_some() || peers.is_some()) {
                return Err(ParseError(
                    "--replica-of/--peers require --repl-listen".into(),
                ));
            }
            if heartbeat_ms.is_some() && repl_listen.is_none() {
                return Err(ParseError("--heartbeat-ms requires --repl-listen".into()));
            }
            if min_sync_replicas.is_some() && repl_listen.is_none() {
                return Err(ParseError(
                    "--min-sync-replicas requires --repl-listen".into(),
                ));
            }
            if heartbeat_ms == Some(0) {
                return Err(ParseError("--heartbeat-ms must be positive".into()));
            }
            if repl_listen.is_some() && data_dir.is_none() {
                // The replica stream is WAL-backed; a volatile daemon
                // has nothing to ship.
                return Err(ParseError("--repl-listen requires --data-dir".into()));
            }
            Ok(Command::Serve(ServeOptions {
                input: need_input(input)?,
                k: k.unwrap_or(20),
                metric,
                addr: addr.unwrap_or_else(|| "127.0.0.1:7407".into()),
                data_dir,
                snapshot_every,
                shards,
                threads,
                addr_file,
                max_inflight: max_inflight.unwrap_or(0),
                degraded_ok,
                failpoints,
                repl_listen,
                replica_of,
                peers: peers.unwrap_or_default(),
                heartbeat_ms,
                min_sync_replicas,
            }))
        }
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(ParseError(format!("unknown command '{other}'\n\n{USAGE}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_build() {
        let cmd = parse(&argv(
            "build --input r.tsv --k 20 --algorithm nndescent --metric jaccard \
             --gamma 40 --beta 0.01 --threads 4 --seed 7 --output g.tsv",
        ))
        .unwrap();
        match cmd {
            Command::Build(b) => {
                assert_eq!(b.input.input, PathBuf::from("r.tsv"));
                assert_eq!(b.k, 20);
                assert_eq!(b.algorithm, Algorithm::NnDescent);
                assert_eq!(b.metric, Metric::Jaccard);
                assert_eq!(b.gamma, Some(40));
                assert_eq!(b.beta, Some(0.01));
                assert_eq!(b.threads, Some(4));
                assert_eq!(b.seed, 7);
                assert_eq!(b.output, Some(PathBuf::from("g.tsv")));
            }
            other => panic!("expected Build, got {other:?}"),
        }
    }

    #[test]
    fn build_requires_input_and_k() {
        assert!(parse(&argv("build --k 5")).is_err());
        assert!(parse(&argv("build --input r.tsv")).is_err());
    }

    #[test]
    fn build_rejects_removed_oracle_flags() {
        // The counting path is picked from the input, and pairwise
        // scoring is a library oracle: neither is a CLI option.
        for flags in ["--count-strategy dense", "--scoring pairwise"] {
            let err = parse(&argv(&format!("build --input r.tsv --k 5 {flags}"))).expect_err(flags);
            assert!(err.0.contains("unknown option"), "{flags}: {err}");
        }
    }

    #[test]
    fn parses_exact() {
        let cmd = parse(&argv(
            "exact --input r.tsv --k 10 --metric jaccard --brute --threads 2",
        ))
        .unwrap();
        match cmd {
            Command::Exact(e) => {
                assert_eq!(e.k, 10);
                assert_eq!(e.metric, Metric::Jaccard);
                assert!(e.brute);
                assert_eq!(e.threads, Some(2));
            }
            other => panic!("expected Exact, got {other:?}"),
        }
        // Default: inverted index.
        match parse(&argv("exact --input r.tsv --k 5")).unwrap() {
            Command::Exact(e) => assert!(!e.brute),
            other => panic!("expected Exact, got {other:?}"),
        }
        assert!(parse(&argv("exact --input r.tsv")).is_err(), "needs --k");
    }

    #[test]
    fn parses_compare() {
        let cmd = parse(&argv(
            "compare --input r.tsv --k 5 --algorithms nndescent,hyrec",
        ))
        .unwrap();
        match cmd {
            Command::Compare(c) => {
                assert_eq!(c.algorithms, vec![Algorithm::NnDescent, Algorithm::HyRec]);
            }
            other => panic!("expected Compare, got {other:?}"),
        }
        // Default suite: kiff + the approximate baselines.
        match parse(&argv("compare --input r.tsv --k 5")).unwrap() {
            Command::Compare(c) => assert_eq!(c.algorithms.len(), 4),
            other => panic!("expected Compare, got {other:?}"),
        }
        assert!(parse(&argv("compare --input r.tsv --k 5 --algorithms magic")).is_err());
        assert!(parse(&argv("compare --input r.tsv --k 5 --algorithms ,")).is_err());
    }

    #[test]
    fn parses_generate() {
        let cmd = parse(&argv(
            "generate --preset gowalla --scale 0.25 --seed 3 --output g.tsv",
        ))
        .unwrap();
        match cmd {
            Command::Generate(g) => {
                assert_eq!(g.preset, PaperDataset::Gowalla);
                assert_eq!(g.scale, 0.25);
                assert_eq!(g.seed, 3);
            }
            other => panic!("expected Generate, got {other:?}"),
        }
    }

    #[test]
    fn parses_items_list() {
        let cmd = parse(&argv("search --input r.tsv --items 1,2,3 --top 5")).unwrap();
        match cmd {
            Command::Search(s) => {
                assert_eq!(s.items, vec![1, 2, 3]);
                assert_eq!(s.top, 5);
                assert_eq!(s.k, 20, "default k");
            }
            other => panic!("expected Search, got {other:?}"),
        }
    }

    #[test]
    fn rejects_unknown_things() {
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("build --input r.tsv --k 5 --metric euclid")).is_err());
        assert!(parse(&argv("build --input r.tsv --k 5 --algorithm magic")).is_err());
        assert!(parse(&argv("generate --preset netflix --output x.tsv")).is_err());
        assert!(parse(&argv("build --wat")).is_err());
    }

    #[test]
    fn parses_update() {
        let cmd = parse(&argv(
            "update --input base.tsv --updates stream.tsv --k 5 --batch 20 --repair-width 64 \
             --shards 4",
        ))
        .unwrap();
        match cmd {
            Command::Update(u) => {
                assert_eq!(u.input.input, PathBuf::from("base.tsv"));
                assert_eq!(u.updates, PathBuf::from("stream.tsv"));
                assert_eq!(u.k, 5);
                assert_eq!(u.batch, 20);
                assert_eq!(u.repair_width, Some(64));
                assert_eq!(u.shards, 4);
            }
            other => panic!("expected Update, got {other:?}"),
        }
    }

    #[test]
    fn update_defaults_to_one_shard() {
        match parse(&argv("update --input b.tsv --updates s.tsv")).unwrap() {
            Command::Update(u) => {
                assert_eq!(u.shards, 1);
            }
            other => panic!("expected Update, got {other:?}"),
        }
    }

    #[test]
    fn update_requires_both_files() {
        assert!(parse(&argv("update --updates s.tsv")).is_err());
        assert!(parse(&argv("update --input b.tsv")).is_err());
        assert!(parse(&argv("update --input b.tsv --updates s.tsv --batch 0")).is_err());
        assert!(parse(&argv("update --input b.tsv --updates s.tsv --shards 0")).is_err());
    }

    #[test]
    fn update_rejects_removed_placement_flags() {
        // Users are always placed by a hash of their id; scripts that
        // still pass a placement or rebalancing flag fail loudly.
        for flags in [
            "--shards 2 --partitioner hash",
            "--shards 2 --rebalance 2.0",
        ] {
            let err = parse(&argv(&format!(
                "update --input b.tsv --updates s.tsv {flags}"
            )))
            .expect_err(flags);
            assert!(err.0.contains("unknown option"), "{flags}: {err}");
        }
    }

    #[test]
    fn parses_metrics_flags() {
        match parse(&argv(
            "build --input r.tsv --k 5 --metrics-out m.prom --metrics-format prom",
        ))
        .unwrap()
        {
            Command::Build(b) => {
                assert_eq!(b.metrics_out, Some(PathBuf::from("m.prom")));
                assert_eq!(b.metrics_format, MetricsFormat::Prometheus);
            }
            other => panic!("expected Build, got {other:?}"),
        }
        // Default format is json; the flags ride on compare and update too.
        match parse(&argv("compare --input r.tsv --k 5 --metrics-out m.json")).unwrap() {
            Command::Compare(c) => {
                assert_eq!(c.metrics_out, Some(PathBuf::from("m.json")));
                assert_eq!(c.metrics_format, MetricsFormat::Json);
            }
            other => panic!("expected Compare, got {other:?}"),
        }
        match parse(&argv(
            "update --input b.tsv --updates s.tsv --metrics-out m.json",
        ))
        .unwrap()
        {
            Command::Update(u) => {
                assert_eq!(u.metrics_out, Some(PathBuf::from("m.json")));
                assert_eq!(u.metrics_format, MetricsFormat::Json);
            }
            other => panic!("expected Update, got {other:?}"),
        }
        match parse(&argv("build --input r.tsv --k 5")).unwrap() {
            Command::Build(b) => assert_eq!(b.metrics_out, None),
            other => panic!("expected Build, got {other:?}"),
        }
    }

    #[test]
    fn metrics_flags_are_validated() {
        assert!(
            parse(&argv("build --input r.tsv --k 5 --metrics-format prom")).is_err(),
            "format without a destination rejected"
        );
        assert!(
            parse(&argv(
                "build --input r.tsv --k 5 --metrics-out m --metrics-format yaml"
            ))
            .is_err(),
            "unknown exporter rejected"
        );
        for sub in [
            "stats --input r.tsv",
            "exact --input r.tsv --k 5",
            "generate --preset dblp --output g.tsv",
            "recommend --input r.tsv --user 0",
            "search --input r.tsv --items 1",
        ] {
            let e = parse(&argv(&format!("{sub} --metrics-out m.json")));
            assert!(e.is_err(), "{sub} must reject --metrics-out");
            assert!(
                e.unwrap_err().to_string().contains("not supported"),
                "{sub}"
            );
        }
    }

    #[test]
    fn parses_serve() {
        let cmd = parse(&argv(
            "serve --input base.tsv --k 10 --metric jaccard --addr 0.0.0.0:9000 \
             --data-dir /tmp/kiff --snapshot-every 500 --shards 2 --threads 4 \
             --addr-file /tmp/addr.txt --max-inflight 64 --degraded-ok \
             --failpoints wal.fsync=prob:0.01@7,net.write=nth:3%127.0.0.1",
        ))
        .unwrap();
        match cmd {
            Command::Serve(s) => {
                assert_eq!(s.input.input, PathBuf::from("base.tsv"));
                assert_eq!(s.k, 10);
                assert_eq!(s.metric, Metric::Jaccard);
                assert_eq!(s.addr, "0.0.0.0:9000");
                assert_eq!(s.data_dir, Some(PathBuf::from("/tmp/kiff")));
                assert_eq!(s.snapshot_every, Some(500));
                assert_eq!(s.shards, 2);
                assert_eq!(s.threads, Some(4));
                assert_eq!(s.addr_file, Some(PathBuf::from("/tmp/addr.txt")));
                assert_eq!(s.max_inflight, 64);
                assert!(s.degraded_ok);
                assert_eq!(
                    s.failpoints.as_deref(),
                    Some("wal.fsync=prob:0.01@7,net.write=nth:3%127.0.0.1")
                );
            }
            other => panic!("expected Serve, got {other:?}"),
        }
    }

    #[test]
    fn serve_defaults_and_validation() {
        match parse(&argv("serve --input base.tsv")).unwrap() {
            Command::Serve(s) => {
                assert_eq!(s.k, 20, "default k");
                assert_eq!(s.addr, "127.0.0.1:7407", "default address");
                assert_eq!(s.data_dir, None, "volatile by default");
                assert_eq!(s.shards, 1);
                assert_eq!(s.max_inflight, 0, "unbounded by default");
                assert!(!s.degraded_ok);
                assert_eq!(s.failpoints, None);
            }
            other => panic!("expected Serve, got {other:?}"),
        }
        assert!(parse(&argv("serve")).is_err(), "needs --input");
        assert!(parse(&argv("serve --input b.tsv --shards 0")).is_err());
        assert!(
            parse(&argv("serve --input b.tsv --snapshot-every 10")).is_err(),
            "snapshot cadence without a data dir rejected, not ignored"
        );
        assert!(
            parse(&argv("serve --input b.tsv --metrics-out m.json")).is_err(),
            "metrics travel over the wire, not to a file"
        );
        assert!(
            parse(&argv("serve --input b.tsv --degraded-ok")).is_err(),
            "read-only fallback is about persistence; it needs --data-dir"
        );
        assert!(
            parse(&argv("serve --input b.tsv --failpoints wal.fsync=banana")).is_err(),
            "a malformed failpoint spec is a usage error, not a late crash"
        );
    }

    #[test]
    fn parses_serve_replication() {
        let cmd = parse(&argv(
            "serve --input base.tsv --data-dir /tmp/kiff --repl-listen 0.0.0.0:9001 \
             --replica-of 10.0.0.1:7407 --peers 10.0.0.1:7407,10.0.0.2:7407 \
             --heartbeat-ms 250 --min-sync-replicas 1",
        ))
        .unwrap();
        match cmd {
            Command::Serve(s) => {
                assert_eq!(s.repl_listen.as_deref(), Some("0.0.0.0:9001"));
                assert_eq!(s.replica_of.as_deref(), Some("10.0.0.1:7407"));
                assert_eq!(s.peers, vec!["10.0.0.1:7407", "10.0.0.2:7407"]);
                assert_eq!(s.heartbeat_ms, Some(250));
                assert_eq!(s.min_sync_replicas, Some(1));
            }
            other => panic!("expected Serve, got {other:?}"),
        }
        // Standalone default: no replication at all.
        match parse(&argv("serve --input base.tsv")).unwrap() {
            Command::Serve(s) => {
                assert_eq!(s.repl_listen, None);
                assert_eq!(s.replica_of, None);
                assert!(s.peers.is_empty());
                assert_eq!(s.heartbeat_ms, None);
                assert_eq!(s.min_sync_replicas, None);
            }
            other => panic!("expected Serve, got {other:?}"),
        }
    }

    #[test]
    fn serve_replication_flags_are_validated() {
        assert!(
            parse(&argv(
                "serve --input b.tsv --data-dir /tmp/k --replica-of 10.0.0.1:7407"
            ))
            .is_err(),
            "--replica-of without --repl-listen rejected, not ignored"
        );
        assert!(
            parse(&argv(
                "serve --input b.tsv --data-dir /tmp/k --peers 10.0.0.1:7407"
            ))
            .is_err(),
            "--peers without --repl-listen rejected"
        );
        assert!(
            parse(&argv(
                "serve --input b.tsv --data-dir /tmp/k --heartbeat-ms 100"
            ))
            .is_err(),
            "--heartbeat-ms without --repl-listen rejected"
        );
        assert!(
            parse(&argv(
                "serve --input b.tsv --data-dir /tmp/k --min-sync-replicas 1"
            ))
            .is_err(),
            "--min-sync-replicas without --repl-listen rejected"
        );
        assert!(
            parse(&argv(
                "serve --input b.tsv --data-dir /tmp/k --repl-listen :0 --heartbeat-ms 0"
            ))
            .is_err(),
            "a zero heartbeat would mean instant elections"
        );
        assert!(
            parse(&argv("serve --input b.tsv --repl-listen 127.0.0.1:0")).is_err(),
            "replication ships the WAL; it needs --data-dir"
        );
        assert!(
            parse(&argv(
                "serve --input b.tsv --data-dir /tmp/k --repl-listen :0 --peers ,"
            ))
            .is_err(),
            "empty peer list rejected"
        );
    }

    #[test]
    fn help_short_circuits() {
        assert!(matches!(parse(&argv("help")).unwrap(), Command::Help));
        assert!(matches!(
            parse(&argv("build --help")).unwrap(),
            Command::Help
        ));
    }

    #[test]
    fn format_inference() {
        use std::path::Path;
        assert_eq!(Format::from_path(Path::new("x.tsv")), Some(Format::SnapTsv));
        assert_eq!(
            Format::from_path(Path::new("x.dat")),
            Some(Format::MovieLens)
        );
        assert_eq!(Format::from_path(Path::new("x.json")), Some(Format::Json));
        assert_eq!(Format::from_path(Path::new("x.csv")), None);
        assert_eq!(Format::from_path(Path::new("noext")), None);
    }
}
