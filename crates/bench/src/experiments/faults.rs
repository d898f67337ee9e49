//! Fault-tolerance benchmark: `faults.json`.
//!
//! The robustness counterpart to the `serve` experiment and the
//! end-to-end exercise of the retrying client: the same kind of durable
//! daemon, but driven through a [`SelfHealingClient`] while
//! deterministic failpoints (see [`kiff_core::fault`]) fail every 100th
//! WAL fsync (1%) and every 200th socket check in each direction
//! (0.5%). Three phases:
//!
//! 1. **Clean baseline.** The workload — update batches interleaved
//!    with `neighbors` queries — against an unfaulted daemon, for the
//!    latency yardstick.
//! 2. **Faulted run.** The identical workload with failpoints armed.
//!    Every armed point fires by construction: each batch is at least
//!    one fsync and each round at least three requests, and the stream
//!    is at least two fsync periods long. Every operation goes through
//!    the retry discipline (reconnect, leader rediscovery, backoff,
//!    idempotent batch replay). Gates: every armed point fired and the
//!    client retried (**hard** — otherwise the phase measured a clean
//!    run), success rate `>= MIN_SUCCESS_RATE` (**hard**),
//!    client-observed p99 — retries, backoff and reconnects included —
//!    `<= MAX_P99_US` (**hard**), and the recovered state must be
//!    bit-exact against a fault-free in-process replay of the
//!    acknowledged batches with the applied high-water mark at the last
//!    batch id — the exactly-once gate (**hard**).
//! 3. **Forced outage.** With the phase-2 failpoints disarmed, every WAL
//!    append fails (`wal.append` always firing) until a write is refused
//!    and the daemon reports degraded, then the WAL is released; the
//!    time until the background recovery task reports `healthy` again is
//!    gated `<= MAX_RECOVERY_MS` (**hard**).

use std::path::Path;
use std::time::{Duration, Instant};

use kiff_core::fault::{self, points, Trigger};
use kiff_dataset::Dataset;
use kiff_online::{OnlineConfig, OnlineKnn, Update};
use kiff_serve::{
    recover, Client, EngineHost, RetryPolicy, SelfHealingClient, Server, ServerConfig, StoreConfig,
};
use kiff_telemetry::Registry;

use super::{p99_us, planted, scratch, zipf_stream, Ctx, Daemon, STREAM_K};

const BATCH: usize = 8;
/// Injected fault period on the WAL fsync path: every 100th fsync
/// fails (1%).
const WAL_FAULT_EVERY: u64 = 100;
/// Injected fault period per socket direction: every 200th check fails
/// (0.5%).
const NET_FAULT_EVERY: u64 = 200;
/// The failpoints armed in the faulted phase; each must fire.
const PHASE_2_POINTS: [&str; 3] = [points::WAL_FSYNC, points::NET_READ, points::NET_WRITE];
/// Hard gate: operations that succeed within the retry budget.
const MIN_SUCCESS_RATE: f64 = 0.999;
/// Hard gate: client-observed p99 under faults, retries included.
const MAX_P99_US: f64 = 250_000.0;
/// Hard gate: degraded-to-healthy after the WAL is released.
const MAX_RECOVERY_MS: f64 = 2_000.0;

struct DriveOutcome {
    ok: u64,
    failed: u64,
    latencies_us: Vec<f64>,
    retries: u64,
    reconnects: u64,
    /// The acknowledged batches, in acknowledgement order — the input
    /// to the fault-free reference replay.
    acked: Vec<Vec<Update>>,
}

/// Pushes the workload through the retrying client: one update batch,
/// then two `neighbors` probes, per round.
fn drive(client: &mut SelfHealingClient, stream: &[Vec<Update>], users: u32) -> DriveOutcome {
    let mut out = DriveOutcome {
        ok: 0,
        failed: 0,
        latencies_us: Vec::new(),
        retries: 0,
        reconnects: 0,
        acked: Vec::new(),
    };
    for (i, batch) in stream.iter().enumerate() {
        let t = Instant::now();
        let applied = client.update(batch).is_ok();
        out.latencies_us.push(t.elapsed().as_secs_f64() * 1e6);
        if applied {
            out.ok += 1;
            out.acked.push(batch.clone());
        } else {
            out.failed += 1;
        }
        for probe in 0..2u32 {
            let user = (i as u32 * 7 + probe * 13) % users;
            let t = Instant::now();
            let got = client.call(|c| c.neighbors(user)).is_ok();
            out.latencies_us.push(t.elapsed().as_secs_f64() * 1e6);
            if got {
                out.ok += 1;
            } else {
                out.failed += 1;
            }
        }
    }
    out.retries = client.retries();
    out.reconnects = client.reconnects();
    out
}

/// Recovers a durable daemon in `dir` and serves it on an ephemeral port.
fn spawn_daemon(dir: &Path, base: &Dataset, k: usize) -> Daemon {
    let cfg = StoreConfig::new(dir).with_snapshot_every(0);
    let registry = Registry::new();
    let config = OnlineConfig::new(k).with_telemetry(registry.clone());
    let rec = recover(&cfg, base, None, config, None).expect("fresh scratch directory recovers");
    let host = EngineHost::new(rec.engine, Some(rec.store), registry);
    let server_config = ServerConfig {
        recovery_interval: Duration::from_millis(5),
        ..ServerConfig::default()
    };
    let server =
        Server::bind_with("127.0.0.1:0", host, server_config).expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    Daemon { addr, handle }
}

fn retry_policy(seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_attempts: 10,
        base_delay: Duration::from_millis(3),
        max_delay: Duration::from_millis(50),
        seed,
    }
}

/// Runs the fault-tolerance benchmark and writes `faults.json`.
pub fn faults(ctx: &mut Ctx) -> String {
    // Smaller than the `serve` population: the subject here is the retry
    // discipline, not raw throughput, and three daemons run per pass.
    let base = planted(ctx, "bench-faults", 6_000.0, 800, 8, 20);
    // At least two fsync periods: every batch fsyncs at least once and
    // every round makes three requests, so each armed point fires.
    let batches = ((150.0 * ctx.scale.multiplier.clamp(0.05, 2.0)) as usize)
        .max(2 * WAL_FAULT_EVERY as usize);
    let stream: Vec<Vec<Update>> = zipf_stream(&base, ctx.seed, batches * BATCH)
        .chunks(BATCH)
        .map(<[Update]>::to_vec)
        .collect();
    let users = base.num_users() as u32;
    let config = || OnlineConfig::new(STREAM_K);

    // Phase 1: clean baseline for the latency yardstick.
    let clean_dir = scratch("faults", "clean");
    let daemon = spawn_daemon(&clean_dir, &base, STREAM_K);
    let mut client =
        SelfHealingClient::connect(&[&daemon.addr], retry_policy(ctx.seed)).expect("connect clean");
    let mut clean = drive(&mut client, &stream, users);
    drop(client);
    daemon.shutdown();
    std::fs::remove_dir_all(&clean_dir).ok();
    let clean_p99 = p99_us(&mut clean.latencies_us);
    assert_eq!(clean.failed, 0, "the clean run must not fail");

    // Phase 2: the same workload under a 1% WAL and 0.5% socket fault
    // rate. The failpoints are scoped to this daemon's WAL directory and
    // socket, and periodic, so the fire pattern reproduces run-to-run.
    let fault_dir = scratch("faults", "faulted");
    let fault_scope = fault_dir.to_string_lossy().into_owned();
    let daemon = spawn_daemon(&fault_dir, &base, STREAM_K);
    let mut client = SelfHealingClient::connect(&[&daemon.addr], retry_policy(ctx.seed))
        .expect("connect faulted");
    fault::arm_scoped(
        points::WAL_FSYNC,
        Trigger::Every(WAL_FAULT_EVERY),
        &fault_scope,
    );
    fault::arm_scoped(
        points::NET_READ,
        Trigger::Every(NET_FAULT_EVERY),
        &daemon.addr,
    );
    fault::arm_scoped(
        points::NET_WRITE,
        Trigger::Every(NET_FAULT_EVERY),
        &daemon.addr,
    );
    let mut faulted = drive(&mut client, &stream, users);
    let faulted_p99 = p99_us(&mut faulted.latencies_us);
    let total_ops = faulted.ok + faulted.failed;
    let success_rate = faulted.ok as f64 / total_ops.max(1) as f64;

    // The daemon must settle back to healthy after the stream.
    let settle = Instant::now();
    let settled = loop {
        match client.call(Client::health) {
            Ok(h) if h.status == "healthy" => break true,
            _ if settle.elapsed() > Duration::from_secs(5) => break false,
            _ => std::thread::sleep(Duration::from_millis(5)),
        }
    };

    // Phase 3: forced outage. Disarm the phase-2 faults (their counters
    // stay readable), hold the WAL down until a write fails (degraded),
    // release it, and time the flip back to healthy.
    for point in PHASE_2_POINTS {
        fault::disarm(point);
    }
    fault::arm_scoped(points::WAL_APPEND, Trigger::Always, &fault_scope);
    let mut prober = Client::connect(&daemon.addr).expect("prober connects");
    let outage_batch = faulted.acked.len() as u64 + 1;
    let refused = prober.update_batch(&stream[0], outage_batch).is_err();
    let healing = Instant::now();
    fault::disarm(points::WAL_APPEND);
    let mut recovery_ms = f64::INFINITY;
    while healing.elapsed() < Duration::from_secs(10) {
        if let Ok(h) = prober.health() {
            if h.status == "healthy" {
                recovery_ms = healing.elapsed().as_secs_f64() * 1e3;
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    drop(prober);
    drop(client);

    let fault_counters: Vec<(String, u64, u64)> = fault::counters()
        .into_iter()
        .map(|c| (c.name, c.checks, c.fires))
        .collect();
    let injected: u64 = fault_counters.iter().map(|(_, _, fires)| fires).sum();
    let silent: Vec<&str> = PHASE_2_POINTS
        .into_iter()
        .filter(|point| {
            !fault_counters
                .iter()
                .any(|(name, _, fires)| name == point && *fires > 0)
        })
        .collect();

    daemon.shutdown();
    fault::disarm_all();

    // Exactly-once: recover the faulted store and compare bit-exactly
    // against a fault-free in-process replay of the acknowledged
    // batches; the high-water mark must sit at the last batch id (the
    // refused outage batch must have left no trace).
    let cfg = StoreConfig::new(&fault_dir).with_snapshot_every(0);
    let rec = recover(&cfg, &base, None, config(), None).expect("faulted store recovers");
    let mut reference = OnlineKnn::new(&base, config());
    for batch in &faulted.acked {
        reference.apply_batch(batch.clone());
    }
    let bit_exact = rec.engine.graph().as_ref() == reference.graph().as_ref();
    let hwm_exact = rec.store.batch_hwm() == faulted.acked.len() as u64;
    std::fs::remove_dir_all(&fault_dir).ok();

    let mut out = String::new();
    out.push_str(&format!(
        "Fault-tolerance benchmark on {}: {} users, {} update batches of {BATCH} \
         + {} queries, {:.1}% injected WAL fault rate\n\n\
         phase 1: clean baseline\n\
         {:>24}: {clean_p99:>10.0} us\n\n\
         phase 2: faulted run (wal.fsync every {WAL_FAULT_EVERY}th, \
         net.read/net.write every {NET_FAULT_EVERY}th)\n\
         {:>24}: {:>10} of {total_ops} ops ({success_rate:.5}, gate >= {MIN_SUCCESS_RATE})\n\
         {:>24}: {faulted_p99:>10.0} us ({:.1}x clean, gate <= {MAX_P99_US:.0} us)\n\
         {:>24}: {:>10} retries, {} reconnects, {injected} faults fired\n\
         {:>24}: {:>10}\n\n",
        base.name(),
        base.num_users(),
        stream.len(),
        2 * stream.len(),
        100.0 / WAL_FAULT_EVERY as f64,
        "op p99",
        "succeeded",
        faulted.ok,
        "faulted op p99",
        faulted_p99 / clean_p99.max(1e-9),
        "retrying client",
        faulted.retries,
        faulted.reconnects,
        "settled healthy",
        settled,
    ));
    out.push_str(&format!(
        "phase 3: forced WAL outage\n\
         {:>24}: {:>10}\n\
         {:>24}: {recovery_ms:>10.1} ms (gate <= {MAX_RECOVERY_MS:.0})\n\n\
         exactly-once: bit_exact={bit_exact} hwm_exact={hwm_exact} \
         (hwm {} == acked {})\n",
        "degraded on write",
        refused,
        "degraded -> healthy",
        rec.store.batch_hwm(),
        faulted.acked.len(),
    ));

    let mut fail = |msg: String| {
        eprintln!("FAULTS VIOLATION: {msg}");
        out.push_str(&format!("VIOLATION: {msg}\n"));
        ctx.violations.push(msg);
    };
    if !silent.is_empty() || faulted.retries == 0 {
        fail(format!(
            "faults/injection: armed point(s) {silent:?} never fired and the client \
             retried {} time(s); the faulted phase must inject faults and retry",
            faulted.retries
        ));
    }
    if success_rate < MIN_SUCCESS_RATE {
        fail(format!(
            "faults/success: {success_rate:.5} below {MIN_SUCCESS_RATE} \
             ({} of {total_ops} ops failed past the retry budget)",
            faulted.failed
        ));
    }
    // Absolute bound, relaxed to 10x the clean baseline at scales
    // where a single heavy batch already takes longer than the bound.
    let p99_bound = MAX_P99_US.max(10.0 * clean_p99);
    if faulted_p99 > p99_bound {
        fail(format!(
            "faults/latency: faulted p99 {faulted_p99:.0} us above {p99_bound:.0} us \
             (max({MAX_P99_US:.0}, 10x clean {clean_p99:.0}))"
        ));
    }
    if !settled || !refused || recovery_ms > MAX_RECOVERY_MS {
        fail(format!(
            "faults/recovery: settled={settled} refused={refused} \
             degraded->healthy {recovery_ms:.1} ms (gate <= {MAX_RECOVERY_MS:.0})"
        ));
    }
    if !bit_exact || !hwm_exact {
        fail(format!(
            "faults/exactly-once: bit_exact={bit_exact} hwm_exact={hwm_exact} \
             (hwm {} vs {} acked batches)",
            rec.store.batch_hwm(),
            faulted.acked.len()
        ));
    }

    let dataset_v = serde_json::json!({
        "name": base.name(),
        "num_users": base.num_users(),
        "num_items": base.num_items(),
        "update_batches": stream.len(),
        "batch": BATCH
    });
    let rates_v = serde_json::json!({
        "wal_fsync_p": 1.0 / WAL_FAULT_EVERY as f64,
        "net_p": 1.0 / NET_FAULT_EVERY as f64,
        "wal_fsync_every": WAL_FAULT_EVERY,
        "net_every": NET_FAULT_EVERY
    });
    let clean_v = serde_json::json!({ "p99_us": clean_p99, "ops": clean.ok });
    let faulted_v = serde_json::json!({
        "ops": total_ops,
        "succeeded": faulted.ok,
        "success_rate": success_rate,
        "min_success_rate": MIN_SUCCESS_RATE,
        "p99_us": faulted_p99,
        "max_p99_us": MAX_P99_US,
        "p99_bound_us": p99_bound,
        "p99_vs_clean": faulted_p99 / clean_p99.max(1e-9),
        "retries": faulted.retries,
        "reconnects": faulted.reconnects,
        "silent_points": silent,
        "settled_healthy": settled
    });
    let outage_v = serde_json::json!({
        "refused_while_degraded": refused,
        "recovery_ms": recovery_ms,
        "max_recovery_ms": MAX_RECOVERY_MS
    });
    let exactly_once_v = serde_json::json!({
        "bit_exact": bit_exact,
        "batch_hwm": rec.store.batch_hwm(),
        "acked_batches": faulted.acked.len()
    });
    let failpoints_v = fault_counters
        .iter()
        .map(|(name, checks, fires)| {
            serde_json::json!({ "name": name, "checks": checks, "fires": fires })
        })
        .collect::<Vec<_>>();
    let payload = serde_json::json!({
        "dataset": dataset_v,
        "fault_rate": rates_v,
        "clean": clean_v,
        "faulted": faulted_v,
        "outage": outage_v,
        "exactly_once": exactly_once_v,
        "failpoints": failpoints_v
    });
    ctx.finish(
        "faults",
        "Fault tolerance: retrying client under injected faults; degraded-mode recovery",
        out,
        &payload,
    )
}
