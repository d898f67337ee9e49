//! Serving-layer benchmark: `serve.json`.
//!
//! Two phases, both over a planted dataset the experiment generates
//! itself (like the `telemetry` experiment, and for the same reason:
//! the shared streaming scenario is too small at smoke scale for a
//! wall-clock gate — a millisecond rebuild drowns in timer noise):
//!
//! 1. **Query throughput under write load.** A durable daemon (WAL
//!    fsync-per-batch in a scratch directory) is recovered from a
//!    prebuilt seed graph and served over a real TCP socket. One
//!    client streams Zipf-skewed rating updates in batches while
//!    another hammers `neighbors` queries; the report is queries/s and
//!    updates/s over the contended window, plus the daemon's own
//!    `serve.request_ns.*` latency percentiles from telemetry.
//!
//! 2. **Recovery vs rebuild.** A second store replays the same stream,
//!    snapshots one batch before the end, and then stops *without* any
//!    shutdown handshake — the graceful path takes a final snapshot, so
//!    a crash has to be simulated at the store level to leave a WAL
//!    tail. Recovery (snapshot load + one-batch tail replay, the state
//!    after a crash shortly past a periodic snapshot) is timed best-of-3
//!    against cold construction of the serving engine on the final
//!    dataset — `OnlineKnn::new`, exactly what `kiff serve` without a
//!    populated `--data-dir` does: KIFF graph build plus counter
//!    seeding plus heap assembly. Restarting from persistence must be
//!    at least `MIN_RECOVERY_SPEEDUP`× faster than that cold start (a
//!    **hard gate** in bench-smoke), else the persistence layer is not
//!    paying for its fsyncs.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use kiff_core::{Kiff, KiffConfig};
use kiff_dataset::Dataset;
use kiff_graph::KnnGraph;
use kiff_online::{KnnEngine, OnlineConfig, OnlineKnn};
use kiff_serve::{recover, Client, EngineHost, Server, StoreConfig};
use kiff_similarity::WeightedCosine;
use kiff_telemetry::Registry;

use super::{planted, scratch, zipf_stream, Ctx, STREAM_K};

const BATCH: usize = 32;
/// The gate: recovery must beat a from-scratch rebuild by this factor.
const MIN_RECOVERY_SPEEDUP: f64 = 5.0;

fn kiff_graph(ds: &Dataset, threads: Option<usize>) -> KnnGraph {
    let sim = WeightedCosine::fit(ds);
    let mut config = KiffConfig::new(STREAM_K);
    config.threads = threads;
    Kiff::new(config).run(ds, &sim).graph
}

/// Runs the serving benchmark and writes `serve.json`.
pub fn serve(ctx: &mut Ctx) -> String {
    // A planted population large enough that a full rebuild takes tens
    // of milliseconds even at smoke scale, so the speedup gate measures
    // work rather than timer noise.
    let base = planted(ctx, "bench-serve", 20_000.0, 2_000, 8, 20);
    // Zipf-skewed arrivals, identical for both phases.
    let stream = zipf_stream(&base, ctx.seed, 2 * base.num_users());
    let num_users = base.num_users() as u32;
    let seed_graph = kiff_graph(&base, ctx.threads);

    // Phase 1: a real daemon on an ephemeral port, one writer client
    // streaming the updates while a reader client counts `neighbors`
    // round trips. Automatic snapshots are disabled so the contended
    // window measures the steady state (append + apply + query), not a
    // snapshot stall.
    let dir = scratch("serve", "daemon");
    let cfg = StoreConfig::new(&dir).with_snapshot_every(0);
    let registry = Registry::new();
    let config = OnlineConfig::new(STREAM_K).with_telemetry(registry.clone());
    let rec = recover(&cfg, &base, Some(&seed_graph), config, None)
        .expect("fresh scratch directory must recover");
    let host = EngineHost::new(rec.engine, Some(rec.store), registry.clone());
    let server = Server::bind("127.0.0.1:0", host).expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || server.run());

    let done = Arc::new(AtomicBool::new(false));
    let writer_done = Arc::clone(&done);
    let writer_addr = addr.clone();
    let writer_stream = stream.clone();
    let writer = std::thread::spawn(move || {
        let mut client = Client::connect(&writer_addr).expect("writer connects");
        let start = Instant::now();
        for chunk in writer_stream.chunks(BATCH) {
            client.update(chunk).expect("update batch acked");
        }
        writer_done.store(true, Ordering::SeqCst);
        start.elapsed().as_secs_f64()
    });

    let mut reader = Client::connect(&addr).expect("reader connects");
    let mut queries = 0u64;
    let query_start = Instant::now();
    while !done.load(Ordering::SeqCst) || queries == 0 {
        reader
            .neighbors(queries as u32 % num_users)
            .expect("neighbors over the wire");
        queries += 1;
    }
    let query_s = query_start.elapsed().as_secs_f64();
    let write_s = writer.join().expect("writer thread");
    reader.shutdown().expect("graceful shutdown");
    daemon
        .join()
        .expect("daemon thread")
        .expect("daemon exits cleanly");
    std::fs::remove_dir_all(&dir).ok();

    let qps = queries as f64 / query_s.max(1e-9);
    let ups = stream.len() as f64 / write_s.max(1e-9);
    let snapshot = registry.snapshot();
    let served_p99_us = |op: &str| -> f64 {
        snapshot
            .histogram(&format!("serve.request_ns.{op}"))
            .map(|h| h.p99 as f64 / 1_000.0)
            .unwrap_or(0.0)
    };
    let neighbors_p99_us = served_p99_us("neighbors");
    let update_p99_us = served_p99_us("update");

    // Phase 2: the same stream into a second store, snapshot one batch
    // before the end, then a simulated `kill -9` (drop without shutdown
    // — the graceful path would snapshot and leave nothing to replay).
    // Time recovery against a cold engine build on the final dataset.
    let dir = scratch("serve", "recovery");
    let cfg = StoreConfig::new(&dir).with_snapshot_every(0);
    let config = || OnlineConfig::new(STREAM_K);
    let rec = recover(&cfg, &base, Some(&seed_graph), config(), None)
        .expect("fresh scratch directory must recover");
    let (mut engine, mut store) = (rec.engine, rec.store);
    let snap_at = stream.len().saturating_sub(BATCH);
    let mut applied = 0usize;
    let mut snapped = false;
    for chunk in stream.chunks(BATCH) {
        store.append(chunk, 0).expect("append batch");
        engine.apply_batch(chunk.to_vec());
        applied += chunk.len();
        if !snapped && applied >= snap_at {
            store.snapshot(engine.as_ref()).expect("snapshot");
            snapped = true;
        }
    }
    let final_dataset = engine.data().to_dataset();
    drop((engine, store)); // crash: no final snapshot, WAL tail remains

    // Recovery is read-only and repeatable; best-of-3 discards a cold
    // page cache or a preempted run.
    let mut recover_s = f64::INFINITY;
    let mut replayed = 0u64;
    let mut recovered_users = 0usize;
    for _ in 0..3 {
        let start = Instant::now();
        let rec = recover(&cfg, &base, Some(&seed_graph), config(), None)
            .expect("recovery after simulated crash");
        recover_s = recover_s.min(start.elapsed().as_secs_f64());
        replayed = rec.replayed;
        recovered_users = rec.engine.len();
    }
    std::fs::remove_dir_all(&dir).ok();
    // The cold-start path a daemon without persistence pays: KIFF graph
    // build + co-rating counter seeding + heap assembly, same config as
    // the recovered engine.
    let start = Instant::now();
    let cold = OnlineKnn::new(&final_dataset, config());
    let rebuild_s = start.elapsed().as_secs_f64();
    assert_eq!(
        cold.len(),
        recovered_users,
        "cold build must match recovery"
    );
    let speedup = rebuild_s / recover_s.max(1e-9);

    let mut out = String::new();
    out.push_str(&format!(
        "Serving benchmark on {}: {} users, {} streamed updates \
         (k={STREAM_K}, batch {BATCH}, WAL fsync per batch)\n\n\
         phase 1: query throughput under write load\n\
         {:>24}: {:>10.0} queries/s ({} neighbors queries in {:.3} s)\n\
         {:>24}: {:>10.0} updates/s (p99 {update_p99_us:.0} us/batch request)\n\
         {:>24}: {neighbors_p99_us:>10.0} us\n\n",
        base.name(),
        base.num_users(),
        stream.len(),
        "concurrent qps",
        qps,
        queries,
        query_s,
        "durable write rate",
        ups,
        "neighbors p99",
    ));
    out.push_str(&format!(
        "phase 2: recovery vs rebuild\n\
         {:>24}: {recover_s:>10.4} s (snapshot at {snap_at}/{} + {replayed} WAL updates, \
         {recovered_users} users)\n\
         {:>24}: {rebuild_s:>10.4} s\n\
         {:>24}: {speedup:>10.1}x (gate >= {MIN_RECOVERY_SPEEDUP})\n",
        "recover",
        stream.len(),
        "cold engine build",
        "speedup",
    ));

    // Hard gate: restart-from-persistence must stay far cheaper than a
    // rebuild, else the WAL + snapshot machinery earns nothing.
    if speedup < MIN_RECOVERY_SPEEDUP {
        let msg = format!(
            "serve/recovery: recovery speedup {speedup:.1}x below {MIN_RECOVERY_SPEEDUP}x \
             (recover {recover_s:.4}s vs rebuild {rebuild_s:.4}s)"
        );
        eprintln!("SERVE RECOVERY VIOLATION: {msg}");
        out.push_str(&format!("VIOLATION: {msg}\n"));
        ctx.violations.push(msg);
    }

    let dataset_v = serde_json::json!({
        "name": base.name(),
        "num_users": base.num_users(),
        "num_items": base.num_items(),
        "num_ratings": base.num_ratings(),
        "streamed_updates": stream.len()
    });
    let phase1_v = serde_json::json!({
        "queries": queries,
        "queries_per_sec": qps,
        "updates_per_sec": ups,
        "neighbors_p99_us": neighbors_p99_us,
        "update_p99_us": update_p99_us
    });
    let phase2_v = serde_json::json!({
        "snapshot_at": snap_at,
        "wal_replayed": replayed,
        "recover_s": recover_s,
        "rebuild_s": rebuild_s,
        "speedup": speedup,
        "min_speedup": MIN_RECOVERY_SPEEDUP
    });
    let payload = serde_json::json!({
        "dataset": dataset_v,
        "k": STREAM_K,
        "batch": BATCH,
        "query_throughput": phase1_v,
        "recovery": phase2_v
    });
    ctx.finish(
        "serve",
        "Serving layer: TCP query throughput under write load; recovery vs rebuild",
        out,
        &payload,
    )
}
