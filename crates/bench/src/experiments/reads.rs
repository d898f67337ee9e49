//! Lock-free read path benchmark: `reads.json`.
//!
//! Proves ISSUE 10's serving property on a live TCP daemon: queries are
//! answered from the published read view and never wait on the writer's
//! mutex. Two measured windows over the same planted dataset:
//!
//! 1. **Idle** — 8 reader threads hammer `neighbors` with no writer.
//! 2. **Contended** — the same 8 readers while one writer streams
//!    Zipf-skewed update batches back-to-back.
//!
//! Gates (hard, via `ctx.violations`):
//!
//! - `serve.read_wait_ns` p99 stays under a millisecond in *both*
//!   windows: the view load is an atomic epoch check, so even a writer
//!   mid-`apply_batch` cannot stall it. This is the direct lock-freedom
//!   instrument and is core-count independent.
//! - Contended read p99 and throughput stay within a factor of the idle
//!   window. The factors are tiered by `available_parallelism`: with 8+
//!   cores the readers and the writer genuinely run in parallel and the
//!   paper numbers apply (p99 <= 5x idle, throughput >= 0.9x); on
//!   smaller hosts the writer *timeshares the CPU* with the readers, so
//!   the gate relaxes to a bound that still fails a mutex-serialized
//!   read path (which collapses throughput by 10-50x, not percents).
//! - Every reader observes monotone view versions, and the daemon's
//!   final state equals a fault-free mirror run batch-for-batch.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kiff_online::{KnnEngine, OnlineConfig, OnlineKnn};
use kiff_serve::{Client, EngineHost, Request, Server};
use kiff_telemetry::Registry;

use super::{planted, zipf_stream, Ctx, STREAM_K};

const BATCH: usize = 32;
const READERS: usize = 8;
/// View loads must stay sub-millisecond at p99 even under write load —
/// an epoch check plus an occasional `Arc` clone, never a mutex wait.
const MAX_READ_WAIT_P99_US: f64 = 1_000.0;
/// Idle p99 below this is timer noise; the ratio gate floors on it.
const IDLE_P99_FLOOR_US: f64 = 50.0;

/// (max contended p99 / idle p99, min contended qps / idle qps) tiered
/// by how much real parallelism the host has. Below 8 cores the writer
/// steals CPU from the readers, which is scheduling, not locking.
fn contention_gates(cores: usize) -> (f64, f64) {
    if cores >= 8 {
        (5.0, 0.9)
    } else if cores >= 2 {
        (15.0, 0.6)
    } else {
        (30.0, 0.3)
    }
}

/// What one reader thread brings home from a measured window.
struct ReaderReport {
    latencies_ns: Vec<u64>,
    queries: u64,
    max_view: u64,
}

/// Spawns `READERS` threads querying `neighbors` round-robin until
/// `stop` flips, each asserting the stamped view version never goes
/// backwards on its connection.
fn spawn_readers(
    addr: &str,
    num_users: u32,
    stop: &Arc<AtomicBool>,
) -> Vec<std::thread::JoinHandle<ReaderReport>> {
    (0..READERS)
        .map(|r| {
            let addr = addr.to_string();
            let stop = Arc::clone(stop);
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("reader connects");
                let mut report = ReaderReport {
                    latencies_ns: Vec::new(),
                    queries: 0,
                    max_view: 0,
                };
                let mut u = r as u32;
                while !stop.load(Ordering::Relaxed) {
                    let started = Instant::now();
                    let reply = client
                        .request(&Request::Neighbors {
                            user: u % num_users,
                        })
                        .expect("neighbors over the wire");
                    report
                        .latencies_ns
                        .push(started.elapsed().as_nanos() as u64);
                    let view = reply
                        .get("view")
                        .and_then(serde_json::Value::as_u64)
                        .expect("view-served responses stamp a version");
                    assert!(
                        view >= report.max_view,
                        "view went backwards: {view} after {}",
                        report.max_view
                    );
                    report.max_view = view;
                    report.queries += 1;
                    u = u.wrapping_add(READERS as u32);
                }
                report
            })
        })
        .collect()
}

/// Joins one window's readers into (p99 us, aggregate qps, max view).
fn collect(handles: Vec<std::thread::JoinHandle<ReaderReport>>, window_s: f64) -> (f64, f64, u64) {
    let mut latencies = Vec::new();
    let mut queries = 0u64;
    let mut max_view = 0u64;
    for h in handles {
        let report = h.join().expect("reader thread");
        latencies.extend(report.latencies_ns);
        queries += report.queries;
        max_view = max_view.max(report.max_view);
    }
    latencies.sort_unstable();
    let p99 = if latencies.is_empty() {
        0.0
    } else {
        latencies[(latencies.len() - 1) * 99 / 100] as f64 / 1_000.0
    };
    (p99, queries as f64 / window_s.max(1e-9), max_view)
}

/// Runs the lock-free read benchmark and writes `reads.json`.
pub fn reads(ctx: &mut Ctx) -> String {
    let base = planted(ctx, "bench-reads", 10_000.0, 1_500, 8, 20);
    // The daemon and the mirror apply the identical stream at identical
    // batch boundaries.
    let stream = zipf_stream(&base, ctx.seed, base.num_users());
    let num_users = base.num_users() as u32;
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let (max_p99_ratio, min_qps_ratio) = contention_gates(cores);

    // Storeless daemon: the WAL's fsync cost belongs to the `serve`
    // benchmark; this one isolates the read path against the in-memory
    // apply, which is where the old mutex serialization lived.
    let registry = Registry::new();
    let config = OnlineConfig::new(STREAM_K).with_telemetry(registry.clone());
    let engine = Box::new(OnlineKnn::new(&base, config));
    let host = EngineHost::new(engine, None, registry.clone());
    let server = Server::bind("127.0.0.1:0", host).expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || server.run());

    // Window 1: write-idle baseline.
    let stop = Arc::new(AtomicBool::new(false));
    let readers = spawn_readers(&addr, num_users, &stop);
    let idle_start = Instant::now();
    std::thread::sleep(Duration::from_millis(600));
    stop.store(true, Ordering::Relaxed);
    let idle_s = idle_start.elapsed().as_secs_f64();
    let (idle_p99_us, idle_qps, _) = collect(readers, idle_s);

    // Window 2: the same readers against a writer streaming the whole
    // update stream back-to-back.
    let stop = Arc::new(AtomicBool::new(false));
    let readers = spawn_readers(&addr, num_users, &stop);
    let contended_start = Instant::now();
    let writer_addr = addr.clone();
    let writer_stream = stream.clone();
    let writer = std::thread::spawn(move || {
        let mut client = Client::connect(&writer_addr).expect("writer connects");
        for chunk in writer_stream.chunks(BATCH) {
            client.update(chunk).expect("update batch acked");
        }
    });
    writer.join().expect("writer thread");
    stop.store(true, Ordering::Relaxed);
    let contended_s = contended_start.elapsed().as_secs_f64();
    let (cont_p99_us, cont_qps, max_view) = collect(readers, contended_s);

    // Mirror run: identical stream, identical batch boundaries. The
    // daemon's served answers must match it exactly.
    let mut mirror = OnlineKnn::new(&base, OnlineConfig::new(STREAM_K));
    for chunk in stream.chunks(BATCH) {
        mirror.apply_batch(chunk.to_vec());
    }
    let batches = stream.chunks(BATCH).len() as u64;
    let mut probe = Client::connect(&addr).expect("probe connects");
    let stats = probe.stats().expect("stats over the wire");
    let served_updates = stats
        .get("updates")
        .and_then(serde_json::Value::as_u64)
        .unwrap_or(0);
    let mirror_graph = mirror.graph();
    for u in (0..num_users).step_by((num_users as usize / 16).max(1)) {
        let served = probe.neighbors(u).expect("neighbors over the wire");
        let expected = mirror_graph.neighbors(u);
        assert_eq!(
            served.len(),
            expected.len(),
            "served neighbor list diverges from the mirror at user {u}"
        );
        for (s, e) in served.iter().zip(expected) {
            assert_eq!(s.id, e.id, "neighbor ids diverge at user {u}");
        }
    }
    probe.shutdown().expect("graceful shutdown");
    daemon
        .join()
        .expect("daemon thread")
        .expect("daemon exits cleanly");

    let read_wait_p99_us = registry
        .snapshot()
        .histogram("serve.read_wait_ns")
        .map(|h| h.p99 as f64 / 1_000.0)
        .unwrap_or(0.0);
    let idle_floor_us = idle_p99_us.max(IDLE_P99_FLOOR_US);
    let p99_ratio = cont_p99_us / idle_floor_us.max(1e-9);
    let qps_ratio = cont_qps / idle_qps.max(1e-9);

    let mut out = String::new();
    out.push_str(&format!(
        "Lock-free read path on {}: {} users, {READERS} readers, \
         {} streamed updates (k={STREAM_K}, batch {BATCH}, {cores} cores)\n\n\
         {:>24}: {idle_qps:>10.0} queries/s (p99 {idle_p99_us:.0} us, {idle_s:.2} s window)\n\
         {:>24}: {cont_qps:>10.0} queries/s (p99 {cont_p99_us:.0} us, {contended_s:.2} s window)\n\
         {:>24}: {qps_ratio:>10.2}x (gate >= {min_qps_ratio})\n\
         {:>24}: {p99_ratio:>10.2}x (gate <= {max_p99_ratio}, idle floored at {IDLE_P99_FLOOR_US} us)\n\
         {:>24}: {read_wait_p99_us:>10.1} us (gate <= {MAX_READ_WAIT_P99_US})\n\
         {:>24}: {max_view:>10} (of {batches} batches; monotone per connection)\n",
        base.name(),
        base.num_users(),
        stream.len(),
        "idle reads",
        "contended reads",
        "throughput ratio",
        "p99 ratio",
        "view load p99",
        "max view seen",
    ));

    if read_wait_p99_us > MAX_READ_WAIT_P99_US {
        let msg = format!(
            "reads/lock-free: serve.read_wait_ns p99 {read_wait_p99_us:.1}us exceeds \
             {MAX_READ_WAIT_P99_US}us — reads are waiting on the writer"
        );
        eprintln!("READ PATH VIOLATION: {msg}");
        out.push_str(&format!("VIOLATION: {msg}\n"));
        ctx.violations.push(msg);
    }
    if p99_ratio > max_p99_ratio {
        let msg = format!(
            "reads/latency: contended p99 {cont_p99_us:.0}us is {p99_ratio:.1}x idle \
             ({idle_floor_us:.0}us floored), gate {max_p99_ratio}x at {cores} cores"
        );
        eprintln!("READ PATH VIOLATION: {msg}");
        out.push_str(&format!("VIOLATION: {msg}\n"));
        ctx.violations.push(msg);
    }
    if qps_ratio < min_qps_ratio {
        let msg = format!(
            "reads/throughput: contended {cont_qps:.0} q/s is {qps_ratio:.2}x idle \
             {idle_qps:.0} q/s, gate {min_qps_ratio}x at {cores} cores"
        );
        eprintln!("READ PATH VIOLATION: {msg}");
        out.push_str(&format!("VIOLATION: {msg}\n"));
        ctx.violations.push(msg);
    }
    if served_updates != mirror.stats().updates {
        let msg = format!(
            "reads/consistency: daemon applied {served_updates} updates, mirror {}",
            mirror.stats().updates
        );
        eprintln!("READ PATH VIOLATION: {msg}");
        out.push_str(&format!("VIOLATION: {msg}\n"));
        ctx.violations.push(msg);
    }

    let dataset_v = serde_json::json!({
        "name": base.name(),
        "num_users": base.num_users(),
        "num_items": base.num_items(),
        "streamed_updates": stream.len()
    });
    let idle_v = serde_json::json!({
        "qps": idle_qps, "p99_us": idle_p99_us, "window_s": idle_s
    });
    let contended_v = serde_json::json!({
        "qps": cont_qps, "p99_us": cont_p99_us, "window_s": contended_s
    });
    let ratios_v = serde_json::json!({ "qps": qps_ratio, "p99": p99_ratio });
    let gates_v = serde_json::json!({
        "max_p99_ratio": max_p99_ratio,
        "min_qps_ratio": min_qps_ratio,
        "max_read_wait_p99_us": MAX_READ_WAIT_P99_US
    });
    let payload = serde_json::json!({
        "dataset": dataset_v,
        "k": STREAM_K,
        "batch": BATCH,
        "readers": READERS,
        "cores": cores,
        "idle": idle_v,
        "contended": contended_v,
        "ratios": ratios_v,
        "gates": gates_v,
        "read_wait_p99_us": read_wait_p99_us,
        "batches": batches,
        "max_view": max_view
    });
    ctx.finish(
        "reads",
        "Lock-free read path: query p99 and throughput under write load vs idle",
        out,
        &payload,
    )
}
