//! `serve`: the `kiff serve` daemon as users run it, on loopback TCP
//! with a durable data directory and the default snapshot interval.
//!
//! Each cycle starts a daemon on a fresh data directory over a planted
//! dataset, then runs two client connections together: an open-loop
//! reader at a fixed offered rate (`neighbors` and `recommend`, each
//! latency timed from the request's due time) and a closed-loop writer
//! sending a fixed number of durable 32-update batches with Zipf-skewed
//! users and items. The batch count makes periodic snapshots fire in
//! the window and leaves a fixed WAL tail. The daemon is then killed
//! with SIGKILL and restarted on the same data directory, several times.
//!
//! Its work is the write phase plus one crash recovery; its recall that
//! of the restarted daemon's `neighbors` answers on a user sample,
//! against exact neighbours on the final dataset.
//!
//! Checks: every acked batch is applied exactly once after a restart
//! (the applied-batch high-water mark and the WAL sequence), the
//! restarted daemon answers a user sample exactly as an in-process
//! mirror that replays the acked batches, and each reader sees view
//! versions that never go back.
//!
//! The traced run runs one daemon cycle, whose figures are its `e2e.*`
//! metrics, then replays the same shape in process, one call per layer
//! (wire codec, WAL, engine, view publishing, snapshot, recovery), since
//! the daemon's internals are not visible from outside. The replay's own
//! totals are `replay.*`.

use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kiff::telemetry::Registry;
use kiff::{KnnGraphBuilder, Metric};
use kiff_apps::Recommender;
use kiff_core::KiffConfig;
use kiff_dataset::generators::planted::{generate_planted, PlantedConfig};
use kiff_dataset::io::{load_json, save_json};
use kiff_dataset::zipf::Zipf;
use kiff_dataset::Dataset;
use kiff_graph::{recall_user, Neighbor};
use kiff_online::{KnnEngine, OnlineConfig, OnlineKnn, ReadView, Update};
use kiff_parallel::ViewCell;
use kiff_serve::wal::Wal;
use kiff_serve::wire::{read_frame, write_frame};
use kiff_serve::{latest_snapshot, load_snapshot, recover, Client, Request, StoreConfig};
use kiff_similarity::WeightedCosine;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::Value;

use crate::layers::{report_builds, timed_build, BuildLayers};
use crate::trace::Tracer;
use crate::util::{exact_for, mean, median, quantile, sample_users, Report};
use crate::{Args, THREADS};

const USERS: usize = 10_000;
const K: usize = 10;
const BATCH: usize = 32;
/// 330 batches: the daemon's default snapshot interval (10 000 updates)
/// fires after batch 313, leaving a 17-batch WAL tail.
const BATCHES: usize = 330;
/// The daemon's default `--snapshot-every`.
const SNAPSHOT_EVERY: usize = 10_000;
const USER_ZIPF: f64 = 1.1;
const ITEM_ZIPF: f64 = 0.8;
/// Offered read rate of the open-loop reader, requests per second: about
/// a tenth of what one connection serves closed loop from an idle daemon
/// on a 2-core machine (about 10k/s), so reads rarely queue behind each
/// other and their latency shows the service time plus the writer's
/// interference. Each run measures that capacity and records it, with
/// this rate's share of it, in its context line.
const READ_RATE: f64 = 1000.0;
/// How long the closed-loop capacity probe reads.
const CAPACITY_PROBE: Duration = Duration::from_millis(500);
const TOP: usize = 10;
const RESTARTS: usize = 3;
const MIN_CYCLES: usize = 2;
const SAMPLE_USERS: usize = 1000;

fn dataset(seed: u64) -> Dataset {
    generate_planted(&PlantedConfig {
        name: "serve-planted".to_string(),
        num_users: USERS,
        num_items: USERS * 4 / 5,
        communities: 8,
        ratings_per_user: 20,
        affinity: 0.8,
        ..PlantedConfig::tiny("serve-planted", seed)
    })
    .0
}

/// The writer's batches: Zipf-skewed users and items over the base.
fn write_batches(ds: &Dataset, seed: u64) -> Vec<Vec<Update>> {
    let users = Zipf::new(ds.num_users(), USER_ZIPF);
    let items = Zipf::new(ds.num_items(), ITEM_ZIPF);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x3e_12e5);
    (0..BATCHES)
        .map(|_| {
            (0..BATCH)
                .map(|_| Update::AddRating {
                    user: users.sample(&mut rng) as u32,
                    item: items.sample(&mut rng) as u32,
                    rating: 1.0,
                })
                .collect()
        })
        .collect()
}

/// Updates past the last periodic snapshot once every batch is acked:
/// the daemon snapshots after the first batch that takes the WAL
/// `SNAPSHOT_EVERY` updates past the previous snapshot.
fn wal_tail_updates() -> usize {
    let mut last_snapshot = 0;
    for seq in (BATCH..=BATCHES * BATCH).step_by(BATCH) {
        if seq - last_snapshot >= SNAPSHOT_EVERY {
            last_snapshot = seq;
        }
    }
    BATCHES * BATCH - last_snapshot
}

/// Share of the writes whose user is among the top 1% most-written.
fn top_user_share(batches: &[Vec<Update>], num_users: usize) -> f64 {
    let mut per_user = vec![0u64; num_users];
    let mut total = 0u64;
    for u in batches.iter().flatten() {
        if let Update::AddRating { user, .. } = u {
            per_user[*user as usize] += 1;
            total += 1;
        }
    }
    per_user.sort_unstable_by(|a, b| b.cmp(a));
    let top: u64 = per_user[..(num_users / 100).max(1)].iter().sum();
    top as f64 / total.max(1) as f64
}

/// A running daemon; killed with SIGKILL and reaped on drop.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Starts `kiff serve` and returns it once it answers `health`,
    /// with the seconds that took.
    fn start(args: &Args, input: &Path, data: &Path) -> Result<(Self, f64), String> {
        let addr_file = args.work.join("addr");
        let _ = std::fs::remove_file(&addr_file);
        let log = std::fs::File::create(args.work.join("daemon.log")).map_err(|e| e.to_string())?;
        let start = Instant::now();
        let child = Command::new(&args.kiff)
            .arg("serve")
            .arg("--input")
            .arg(input)
            .args([
                "--k",
                &K.to_string(),
                "--addr",
                "127.0.0.1:0",
                "--threads",
                &THREADS.to_string(),
            ])
            .arg("--addr-file")
            .arg(&addr_file)
            .arg("--data-dir")
            .arg(data)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", args.kiff.display()))?;
        let mut daemon = Daemon {
            child,
            addr: String::new(),
        };
        loop {
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                if text.ends_with('\n') {
                    daemon.addr = text.trim().to_string();
                    if let Ok(mut c) = Client::connect(&daemon.addr) {
                        if c.health().is_ok() {
                            return Ok((daemon, start.elapsed().as_secs_f64()));
                        }
                    }
                }
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited during start-up: {status}"));
            }
            if start.elapsed() > Duration::from_secs(60) {
                return Err("daemon did not answer health within 60 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Sleeps, then spins for the last 200 us, until `due`: a sleep alone
/// overshoots by the kernel's timer slack and wakes on a cold core.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// The reader's `i`-th request: `neighbors` and `recommend` alternate.
fn read_request(i: u32, user: u32) -> Request {
    if i.is_multiple_of(2) {
        Request::Neighbors { user }
    } else {
        Request::Recommend { user, top: TOP }
    }
}

/// Closed-loop reads per second over one connection to an idle daemon.
fn read_capacity(addr: &str, num_users: usize, seed: u64) -> Result<f64, String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xca9a);
    let start = Instant::now();
    let mut i = 0u32;
    while start.elapsed() < CAPACITY_PROBE {
        let user = rng.gen_range(0..num_users) as u32;
        client
            .request(&read_request(i, user))
            .map_err(|e| e.to_string())?;
        i += 1;
    }
    Ok(f64::from(i) / start.elapsed().as_secs_f64())
}

struct ReadLoad {
    latencies_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    regressions: u64,
    late_s: f64,
}

/// The open-loop reader: one request per `1 / READ_RATE` seconds until
/// `done`, each timed from its due time.
fn read_load(addr: &str, num_users: usize, seed: u64, done: &AtomicBool) -> ReadLoad {
    let mut load = ReadLoad {
        latencies_us: Vec::new(),
        attempted: 0,
        failed: 0,
        regressions: 0,
        late_s: 0.0,
    };
    let Ok(mut client) = Client::connect(addr) else {
        load.attempted = 1;
        load.failed = 1;
        return load;
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4ead);
    let interval = Duration::from_secs_f64(1.0 / READ_RATE);
    let start = Instant::now();
    let mut last_view = 0.0;
    let mut i = 0u32;
    while !done.load(Ordering::SeqCst) {
        let due = start + interval * i;
        wait_until(due);
        load.late_s = load.late_s.max(due.elapsed().as_secs_f64());
        let user = rng.gen_range(0..num_users) as u32;
        load.attempted += 1;
        match client.request(&read_request(i, user)) {
            Ok(response) => {
                load.latencies_us.push(due.elapsed().as_secs_f64() * 1e6);
                let view = response.get("view").and_then(Value::as_f64).unwrap_or(-1.0);
                if view < last_view {
                    load.regressions += 1;
                }
                last_view = view;
            }
            Err(_) => load.failed += 1,
        }
        i += 1;
    }
    load
}

struct WriteLoad {
    latencies_ms: Vec<f64>,
    acked: usize,
    failed: u64,
}

/// The closed-loop writer: every batch once, with ids `1..=BATCHES`.
fn write_load(addr: &str, batches: &[Vec<Update>]) -> WriteLoad {
    let mut load = WriteLoad {
        latencies_ms: Vec::new(),
        acked: 0,
        failed: 0,
    };
    let Ok(mut client) = Client::connect(addr) else {
        load.failed = batches.len() as u64;
        return load;
    };
    for (i, batch) in batches.iter().enumerate() {
        let t = Instant::now();
        match client.update_batch(batch, i as u64 + 1) {
            Ok(ack) if ack.applied == batch.len() as u64 && !ack.deduped => {
                load.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
                load.acked += 1;
            }
            _ => {
                // Later batches would not line up with the mirror.
                load.failed += (batches.len() - i) as u64;
                break;
            }
        }
    }
    load
}

/// A user's `neighbors` and `recommend` answers as `(id, score)` lists.
type Answers = Vec<(u32, Vec<(u32, f64)>, Vec<(u32, f64)>)>;

fn pairs(v: &Value, field: &str, key: &str, score: &str) -> Vec<(u32, f64)> {
    v.get(field)
        .and_then(Value::as_array)
        .map(|list| {
            list.iter()
                .map(|e| {
                    (
                        e.get(key).and_then(Value::as_u64).unwrap_or(u64::MAX) as u32,
                        e.get(score).and_then(Value::as_f64).unwrap_or(f64::NAN),
                    )
                })
                .collect()
        })
        .unwrap_or_default()
}

fn daemon_answers(addr: &str, users: &[u32]) -> Result<Answers, String> {
    let mut c = Client::connect(addr).map_err(|e| e.to_string())?;
    users
        .iter()
        .map(|&user| {
            let nb = c
                .request(&Request::Neighbors { user })
                .map_err(|e| e.to_string())?;
            let rec = c
                .request(&Request::Recommend { user, top: TOP })
                .map_err(|e| e.to_string())?;
            Ok((
                user,
                pairs(&nb, "neighbors", "id", "sim"),
                pairs(&rec, "recommendations", "item", "score"),
            ))
        })
        .collect()
}

fn view_answers(view: &ReadView, users: &[u32]) -> Answers {
    let rec = Recommender::from_view(view);
    users
        .iter()
        .map(|&user| {
            let nb = view
                .neighbors(user)
                .map(|list| list.iter().map(|n| (n.id, n.sim)).collect())
                .unwrap_or_default();
            let recs = rec
                .try_recommend(user, TOP)
                .map(|list| list.iter().map(|r| (r.item, r.score)).collect())
                .unwrap_or_default();
            (user, nb, recs)
        })
        .collect()
}

/// The engine a fresh daemon serves: the same KIFF build `kiff serve`
/// runs at start, wrapped for streaming.
fn startup_build(ds: &Dataset) -> kiff_graph::KnnGraph {
    KnnGraphBuilder::new(K)
        .metric(Metric::Cosine)
        .threads(THREADS)
        .build(ds)
}

/// The configuration `startup_build` runs KIFF with.
fn startup_config() -> KiffConfig {
    KiffConfig::new(K).with_threads(THREADS)
}

/// Mean recall of the answered neighbour lists against `exact`.
fn answers_recall(answers: &Answers, exact: &[Vec<Neighbor>]) -> f64 {
    let total: f64 = answers
        .iter()
        .zip(exact)
        .map(|((_, nb, _), ex)| {
            let nb: Vec<Neighbor> = nb.iter().map(|&(id, sim)| Neighbor { id, sim }).collect();
            recall_user(ex, &nb, K)
        })
        .sum();
    total / answers.len().max(1) as f64
}

pub fn run(args: &Args, t: &mut Tracer, report: &mut Report) {
    let input = args.work.join("base.json");
    let generated = dataset(args.seed);
    save_json(&generated, &input).expect("write the daemon's input");
    // The daemon and the mirror both see the dataset as loaded from disk.
    let ds = load_json(&input).expect("read the daemon's input back");
    let batches = write_batches(&ds, args.seed);
    report.input("users", ds.num_users() as f64);
    report.input("items", ds.num_items() as f64);
    report.input("ratings", ds.num_ratings() as f64);
    report.input("density", ds.density());
    report.input("k", K as f64);
    report.input("write_batch", BATCH as f64);
    report.input("write_batches", BATCHES as f64);
    report.input("user_zipf", USER_ZIPF);
    report.input("item_zipf", ITEM_ZIPF);
    report.input(
        "write_top1pct_user_share",
        top_user_share(&batches, ds.num_users()),
    );
    report.input("read_rate_per_s", READ_RATE);
    report.input("snapshot_every", SNAPSHOT_EVERY as f64);
    report.input("wal_tail_updates", wal_tail_updates() as f64);

    let sample = sample_users(ds.num_users(), SAMPLE_USERS, args.seed);
    // The mirror: the daemon's start-up engine plus every acked batch. A
    // restarted daemon must answer as it does; the recall of its answers
    // is against exact neighbours on the mirror's final dataset.
    let mut mirror = OnlineKnn::from_graph(&ds, &startup_build(&ds), OnlineConfig::new(K));
    for batch in &batches {
        mirror.apply_batch(batch.clone());
    }
    let expected = view_answers(&mirror.read_view(), &sample);
    let final_ds = mirror.data().to_dataset();
    let exact = exact_for(&final_ds, &WeightedCosine::fit(&final_ds), &sample, K);
    drop(mirror);
    let data = args.work.join("data");
    let run_cycle = |report: &mut Report, probe: bool| -> Option<Cycle> {
        let _ = std::fs::remove_dir_all(&data);
        cycle(args, &input, &data, &ds, &batches, &sample, probe, report)
            .map_err(|e| {
                report.check(false, e);
                report.attempted += 1;
                report.failed += 1;
            })
            .ok()
    };
    if t.is_on() {
        // The daemon is not instrumented, so the traced run's end-to-end
        // figures come from one daemon cycle, run the same way as in an
        // untraced run.
        let Some(c) = run_cycle(report, true) else {
            return;
        };
        record_capacity(report, &c);
        report.check(
            c.answers == expected,
            "restarted daemon's answers differ from the in-process mirror",
        );
        cycle_metrics(report, "e2e.", std::slice::from_ref(&c), &exact);
        // The replay serves as many reads per write batch as the daemon
        // cycle did.
        let reads_per_batch = (c.reads_attempted as f64 / c.acked.max(1) as f64)
            .round()
            .max(1.0) as usize;
        report.input("traced_reads_per_batch", reads_per_batch as f64);
        t.reset_origin();
        replay_traced(args, t, report, &ds, &batches, reads_per_batch);
        return;
    }

    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut cycles = Vec::new();
    while cycles.len() < MIN_CYCLES || Instant::now() < deadline {
        match run_cycle(report, cycles.is_empty()) {
            Some(c) => cycles.push(c),
            None => break,
        }
    }
    if let Some(c) = cycles.first() {
        record_capacity(report, c);
    }
    if cycles.is_empty() {
        return;
    }
    for c in &cycles {
        report.check(
            c.answers == expected,
            "restarted daemon's answers differ from the in-process mirror",
        );
    }
    cycle_metrics(report, "", &cycles, &exact);
}

/// The end-to-end figures of `cycles`, as medians over cycles of each
/// cycle's figure: one cycle that shares the machine with a burst of
/// outside load moves none of them. The work is the write phase plus
/// one crash recovery.
fn cycle_metrics(report: &mut Report, prefix: &str, cycles: &[Cycle], exact: &[Vec<Neighbor>]) {
    let per_cycle =
        |f: &dyn Fn(&Cycle) -> f64| -> f64 { median(&cycles.iter().map(f).collect::<Vec<_>>()) };
    let all = |f: &dyn Fn(&Cycle) -> &[f64]| -> Vec<f64> {
        cycles.iter().flat_map(|c| f(c).iter().copied()).collect()
    };
    let (writes, reads) = (all(&|c| &c.writes_ms), all(&|c| &c.reads_us));
    let write_s = write_s(cycles);
    let recovery_s = per_cycle(&|c| median(&c.recovery_s));
    report.metric(format!("{prefix}setup_s"), per_cycle(&|c| c.setup_s), "s");
    report.metric(format!("{prefix}work_s"), write_s + recovery_s, "s");
    report.metric(
        format!("{prefix}recall"),
        per_cycle(&|c| answers_recall(&c.answers, exact)),
        "ratio",
    );
    report.metric(
        format!("{prefix}write_updates_per_s"),
        (BATCHES * BATCH) as f64 / write_s,
        "1/s",
    );
    report.metric(
        format!("{prefix}write_p50_ms"),
        quantile(&writes, 0.5),
        "ms",
    );
    report.metric(
        format!("{prefix}write_p99_ms"),
        quantile(&writes, 0.99),
        "ms",
    );
    report.metric(format!("{prefix}recovery_s"), recovery_s, "s");
    report.metric(format!("{prefix}read_p50_us"), quantile(&reads, 0.5), "us");
    report.metric(format!("{prefix}read_p99_us"), quantile(&reads, 0.99), "us");
}

/// Records the measured read capacity behind `READ_RATE`.
fn record_capacity(report: &mut Report, c: &Cycle) {
    if let Some(capacity) = c.read_capacity {
        report.input("read_capacity_per_s", capacity);
        report.input("read_rate_share_of_capacity", READ_RATE / capacity);
    }
}

/// Seconds the writer takes for every batch, from each batch's median
/// latency across cycles: every cycle writes the same batches, so a
/// burst of outside load during one cycle's batch moves nothing.
fn write_s(cycles: &[Cycle]) -> f64 {
    (0..BATCHES)
        .map(|b| {
            let ms: Vec<f64> = cycles
                .iter()
                .filter_map(|c| c.writes_ms.get(b).copied())
                .collect();
            median(&ms) / 1e3
        })
        .sum()
}

/// What one daemon life and its restarts measured.
struct Cycle {
    setup_s: f64,
    reads_us: Vec<f64>,
    reads_attempted: u64,
    /// Each acked batch's latency, in batch order.
    writes_ms: Vec<f64>,
    acked: usize,
    recovery_s: Vec<f64>,
    answers: Answers,
    /// Closed-loop reads per second, when the cycle probed for it.
    read_capacity: Option<f64>,
}

/// One daemon life on a fresh data directory, then `RESTARTS` crash
/// recoveries of it. With `probe`, the idle daemon's closed-loop read
/// capacity is measured after the load, before the crash.
#[allow(clippy::too_many_arguments)]
fn cycle(
    args: &Args,
    input: &Path,
    data: &Path,
    ds: &Dataset,
    batches: &[Vec<Update>],
    sample: &[u32],
    probe: bool,
    report: &mut Report,
) -> Result<Cycle, String> {
    let (daemon, setup_s) = Daemon::start(args, input, data)?;
    let done = AtomicBool::new(false);
    let (reads, writes) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let load = write_load(&daemon.addr, batches);
            done.store(true, Ordering::SeqCst);
            load
        });
        let reads = read_load(&daemon.addr, ds.num_users(), args.seed, &done);
        (reads, writer.join().expect("writer thread"))
    });
    report.attempted += reads.attempted + batches.len() as u64;
    report.failed += reads.failed + writes.failed;
    report.check(
        reads.regressions == 0,
        format!("{} reads saw the view version go back", reads.regressions),
    );
    report.check(
        writes.acked == batches.len(),
        format!("{} of {} batches acked", writes.acked, batches.len()),
    );
    report.notes.push(format!(
        "reader ran at most {:.3} ms late",
        reads.late_s * 1e3
    ));
    let read_capacity = if probe {
        Some(read_capacity(&daemon.addr, ds.num_users(), args.seed)?)
    } else {
        None
    };
    drop(daemon); // SIGKILL: no final snapshot, the WAL tail stays

    let mut recovery_s = Vec::new();
    let mut answers = Vec::new();
    for restart in 0..RESTARTS {
        let (daemon, secs) = Daemon::start(args, input, data)?;
        recovery_s.push(secs);
        report.attempted += 1;
        let mut c = Client::connect(&daemon.addr).map_err(|e| e.to_string())?;
        let health = c.health().map_err(|e| e.to_string())?;
        let exactly_once = health.batch_hwm == batches.len() as u64
            && health.seq == Some((batches.len() * BATCH) as u64);
        report.check(
            exactly_once,
            format!(
                "after restart: batch_hwm {} seq {:?}",
                health.batch_hwm, health.seq
            ),
        );
        if !exactly_once {
            report.failed += 1;
        }
        if restart == 0 {
            answers = daemon_answers(&daemon.addr, sample)?;
        }
    }
    Ok(Cycle {
        setup_s,
        reads_us: reads.latencies_us,
        reads_attempted: reads.attempted,
        writes_ms: writes.latencies_ms,
        acked: writes.acked,
        recovery_s,
        answers,
        read_capacity,
    })
}

/// Size in bytes of the WAL segments in `dir`.
fn wal_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Encodes `v` as one wire frame.
fn frame(v: &Value) -> Vec<u8> {
    let mut buf = Vec::new();
    write_frame(&mut buf, v).expect("frame into memory");
    buf
}

fn unframe(mut bytes: &[u8]) -> Value {
    read_frame(&mut bytes)
        .expect("decode frame")
        .expect("one frame")
}

/// What one traced in-process cycle measured beyond its spans.
#[derive(Default)]
struct TracedCycle {
    read_us: Vec<f64>,
    write_s: f64,
    recovery_s: f64,
    wal_bytes: u64,
    snapshot_bytes: Vec<f64>,
    response_bytes: Vec<f64>,
    tail: usize,
}

/// The traced run: the daemon's write, read and recovery paths replayed
/// in process, one span per public call, cycle after cycle until the
/// run's time is up.
fn replay_traced(
    args: &Args,
    t: &mut Tracer,
    report: &mut Report,
    ds: &Dataset,
    batches: &[Vec<Update>],
    reads_per_batch: usize,
) {
    let sample = sample_users(ds.num_users(), SAMPLE_USERS, args.seed);
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut cycles = Vec::new();
    let mut build_layers = BuildLayers::default();
    while cycles.is_empty() || Instant::now() < deadline {
        cycles.push(traced_cycle(
            args,
            t,
            report,
            ds,
            batches,
            &sample,
            reads_per_batch,
            &mut build_layers,
        ));
    }
    report_builds(report, &[("planted", &build_layers)]);
    let updates = (batches.len() * BATCH) as f64;
    let all =
        |f: &dyn Fn(&TracedCycle) -> Vec<f64>| -> Vec<f64> { cycles.iter().flat_map(f).collect() };
    let ms = |name: &str, q: f64| 1e3 * quantile(&t.durations(name), q);
    let us = |name: &str| 1e6 * median(&t.durations(name));
    let s = |name: &str| median(&t.durations(name));
    let setup: Vec<f64> = t
        .durations("core.startup_build")
        .iter()
        .zip(t.durations("online.seed"))
        .map(|(a, b)| a + b)
        .collect();
    report.metric("replay.setup_s", median(&setup), "s");
    report.metric(
        "replay.read_p50_us",
        quantile(&all(&|c| c.read_us.clone()), 0.5),
        "us",
    );
    report.metric(
        "replay.read_p99_us",
        quantile(&all(&|c| c.read_us.clone()), 0.99),
        "us",
    );
    report.metric(
        "replay.write_updates_per_s",
        median(&all(&|c| vec![updates / c.write_s])),
        "1/s",
    );
    report.metric(
        "replay.recovery_s",
        median(&all(&|c| vec![c.recovery_s])),
        "s",
    );
    report.metric("online.seed_s", s("online.seed"), "s");
    report.metric(
        "online.apply_batch_ms.p50",
        ms("online.apply_batch", 0.5),
        "ms",
    );
    report.metric(
        "online.apply_batch_ms.p99",
        ms("online.apply_batch", 0.99),
        "ms",
    );
    report.metric("online.read_view_ms", ms("online.read_view", 0.5), "ms");
    report.metric("parallel.view_load_ns", 1e9 * s("parallel.view_load"), "ns");
    report.metric(
        "apps.answer_us.neighbors",
        us("apps.answer.neighbors"),
        "us",
    );
    report.metric(
        "apps.answer_us.recommend",
        us("apps.answer.recommend"),
        "us",
    );
    report.metric("serve.wire.decode_us", us("serve.wire.decode"), "us");
    report.metric("serve.wire.encode_us", us("serve.wire.encode"), "us");
    report.metric(
        "serve.wire.bytes_per_response",
        mean(&all(&|c| c.response_bytes.clone())),
        "bytes",
    );
    report.metric("serve.wal.append_ms", ms("serve.wal.append", 0.5), "ms");
    report.metric(
        "serve.wal.bytes_per_update",
        median(&all(&|c| vec![c.wal_bytes as f64 / updates])),
        "bytes",
    );
    report.metric("serve.snapshot_ms", ms("serve.snapshot", 0.5), "ms");
    report.metric(
        "serve.snapshot.bytes",
        median(&all(&|c| c.snapshot_bytes.clone())),
        "bytes",
    );
    report.metric("recovery.startup_build_s", s("recovery.startup_build"), "s");
    report.metric("serve.snapshot.decode_s", s("serve.snapshot.decode"), "s");
    report.metric("online.counter_load_s", s("online.counter_load"), "s");
    report.metric("serve.wal.replay_read_s", s("serve.wal.replay_read"), "s");
    report.metric("online.replay_apply_s", s("online.replay_apply"), "s");
    report.metric(
        "serve.wal.tail_updates",
        median(&all(&|c| vec![c.tail as f64])),
        "count",
    );
}

#[allow(clippy::too_many_arguments)]
fn traced_cycle(
    args: &Args,
    t: &mut Tracer,
    report: &mut Report,
    ds: &Dataset,
    batches: &[Vec<Update>],
    sample: &[u32],
    reads_per_batch: usize,
    build_layers: &mut BuildLayers,
) -> TracedCycle {
    let mut out = TracedCycle::default();
    let data = args.work.join("traced-data");
    let _ = std::fs::remove_dir_all(&data);
    let cfg = StoreConfig::new(&data);
    // The daemon's engines record into a live registry; so do these.
    let registry = Registry::new();
    let config = || OnlineConfig::new(K).with_telemetry(registry.clone());
    t.enter("op.setup");
    // The start-up build `kiff serve` runs, split into its calls, on a
    // fresh clone: a starting daemon has no item profiles cached.
    let (graph, _) = timed_build(
        t,
        "core.startup_build",
        &ds.clone(),
        &startup_config(),
        build_layers,
    );
    let (rec, _) = t.span("online.seed", || {
        recover(&cfg, ds, Some(&graph), config(), None).expect("fresh data directory")
    });
    t.exit();
    let (mut engine, mut store) = (rec.engine, rec.store);
    let cell = ViewCell::new(Arc::new(engine.read_view()));

    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x4ead);
    for (i, batch) in batches.iter().enumerate() {
        let write_start = Instant::now();
        t.enter("op.write");
        let (bytes, _) = t.span("serve.wire.encode", || {
            frame(
                &Request::Update {
                    updates: batch.clone(),
                    batch: i as u64 + 1,
                }
                .to_value(),
            )
        });
        let (request, _) = t.span("serve.wire.decode", || {
            Request::from_value(&unframe(&bytes)).expect("update request")
        });
        let Request::Update { updates, batch: id } = request else {
            unreachable!("encoded an update")
        };
        let before = wal_bytes(&data);
        t.span("serve.wal.append", || {
            store.append(&updates, id).expect("wal append")
        });
        out.wal_bytes += wal_bytes(&data).saturating_sub(before);
        let (stats, _) = t.span("online.apply_batch", || engine.apply_batch(updates));
        t.span("online.read_view", || {
            cell.publish(Arc::new(engine.read_view()))
        });
        if store.should_snapshot() {
            let (path, _) = t.span("serve.snapshot", || {
                store.snapshot(engine.as_ref()).expect("snapshot")
            });
            out.snapshot_bytes
                .push(std::fs::metadata(&path).map_or(0, |m| m.len()) as f64);
        }
        let ack =
            serde_json::json!({"ok": true, "applied": stats.updates, "seq": store.seq() as f64});
        let (bytes, _) = t.span("serve.wire.encode", || frame(&ack));
        t.span("serve.wire.decode", || unframe(&bytes));
        t.exit();
        out.write_s += write_start.elapsed().as_secs_f64();

        for r in 0..reads_per_batch {
            let read_start = Instant::now();
            t.enter("op.read");
            let user = rng.gen_range(0..ds.num_users()) as u32;
            let request = read_request(r as u32, user);
            let (bytes, _) = t.span("serve.wire.encode", || frame(&request.to_value()));
            let (request, _) = t.span("serve.wire.decode", || {
                Request::from_value(&unframe(&bytes)).expect("read request")
            });
            let (view, _) = t.span("parallel.view_load", || cell.load());
            let response = match request {
                Request::Neighbors { user } => {
                    let (nb, _) = t.span("apps.answer.neighbors", || {
                        view.neighbors(user).expect("known user")
                    });
                    let list: Vec<Value> = nb
                        .iter()
                        .map(|n| serde_json::json!({"id": n.id, "sim": n.sim}))
                        .collect();
                    serde_json::json!({"ok": true, "neighbors": list})
                }
                Request::Recommend { user, top } => {
                    let (recs, _) = t.span("apps.answer.recommend", || {
                        Recommender::from_view(&view)
                            .try_recommend(user, top)
                            .expect("known user")
                    });
                    let list: Vec<Value> = recs
                        .iter()
                        .map(|r| serde_json::json!({"item": r.item, "score": r.score}))
                        .collect();
                    serde_json::json!({"ok": true, "recommendations": list})
                }
                _ => unreachable!("read ops only"),
            };
            let (bytes, _) = t.span("serve.wire.encode", || frame(&response));
            out.response_bytes.push(bytes.len() as f64);
            t.span("serve.wire.decode", || unframe(&bytes));
            t.exit();
            out.read_us.push(read_start.elapsed().as_secs_f64() * 1e6);
        }
    }
    report.attempted += (batches.len() * (1 + reads_per_batch)) as u64;
    let before_crash = view_answers(&engine.read_view(), sample);
    drop((engine, store)); // crash: no final snapshot

    // Recovery, one public call at a time: the daemon's start-up build,
    // then what `recover` does.
    let recovery_start = Instant::now();
    t.enter("op.recovery");
    timed_build(
        t,
        "recovery.startup_build",
        &ds.clone(),
        &startup_config(),
        build_layers,
    );
    let ((snap_seq, snap), _) = t.span("serve.snapshot.decode", || {
        let (seq, path) = latest_snapshot(&data)
            .expect("list snapshots")
            .expect("a snapshot fired");
        (seq, load_snapshot(&path).expect("decode snapshot"))
    });
    let (mut engine, _) = t.span("online.counter_load", || {
        OnlineKnn::from_snapshot(
            &snap.dataset,
            &snap.graph,
            snap.counters.expect("unsharded snapshots carry counters"),
            config(),
        )
        .expect("restore engine")
    });
    let (replay, _) = t.span("serve.wal.replay_read", || {
        Wal::replay(&data, snap_seq, &registry).expect("replay wal")
    });
    out.tail = replay.updates.len();
    t.span("online.replay_apply", || {
        for batch in replay.batches() {
            engine.apply_batch(batch);
        }
    });
    t.exit();
    out.recovery_s = recovery_start.elapsed().as_secs_f64();
    report.attempted += 1;
    report.check(
        view_answers(&engine.read_view(), sample) == before_crash,
        "in-process recovery differs from the state before the crash",
    );
    let _ = std::fs::remove_dir_all(&data);
    out
}
