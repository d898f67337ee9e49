//! Replication benchmark: `failover.json`.
//!
//! The replication counterpart to the `faults` experiment: a
//! primary/replica pair joined by the WAL-shipping channel (see
//! `kiff_serve::replication`), measured in three phases:
//!
//! 1. **Replicated load.** Update batches stream into the primary while
//!    `neighbors` probes hit both nodes. Gates: replica read p99 `<= 2x`
//!    the primary read p99 (**hard** — replica reads must not pay a
//!    replication tax), and steady-state replication lag `<= 1` batch
//!    once the stream drains (**hard** — semi-sync shipping keeps the
//!    replica at most one in-flight batch behind).
//! 2. **Forced failover.** The primary is killed mid-stream; a
//!    [`SelfHealingClient`] given both members' endpoints rides through
//!    the election. Gate:
//!    client-observed unavailability — from the kill to the first
//!    acknowledged write on the promoted replica — `<= 2s` (**hard**).
//! 3. **Exactly-once verification.** The survivor's recovered state
//!    must be bit-exact against a fault-free in-process replay of every
//!    acknowledged batch, with the applied high-water mark at the last
//!    batch id (**hard**).

use std::net::TcpListener;
use std::path::Path;
use std::time::{Duration, Instant};

use kiff_dataset::Dataset;
use kiff_online::{OnlineConfig, OnlineKnn, Update};
use kiff_serve::{
    recover, Client, EngineHost, ReplicationConfig, RetryPolicy, SelfHealingClient, Server,
    ServerConfig, StoreConfig,
};
use kiff_telemetry::Registry;

use super::{p99_us, planted, scratch, zipf_stream, Ctx, Daemon, STREAM_K};

const BATCH: usize = 8;
/// Hard gate: replica read p99 as a multiple of the primary's.
const MAX_REPLICA_READ_FACTOR: f64 = 2.0;
/// Hard gate: replication lag (batches) once the stream drains.
const MAX_STEADY_LAG: u64 = 1;
/// Hard gate: client-observed unavailability across the failover.
const MAX_UNAVAILABILITY_MS: f64 = 2_000.0;
/// Replication heartbeat — elections fire after four silent intervals,
/// so this bounds how fast the failover gate can possibly pass.
const HEARTBEAT: Duration = Duration::from_millis(50);

/// Binds a member's client port. The peer lists must name every daemon
/// up front, so both listeners are bound before either daemon is built
/// and each is handed to its server: no other socket can take a port
/// between choosing it and serving on it.
fn listen() -> (TcpListener, String) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener.local_addr().expect("local addr").to_string();
    (listener, addr)
}

/// Recovers a durable group member in `dir` and serves it on `listener`.
fn spawn_member(
    dir: &Path,
    base: &Dataset,
    listener: TcpListener,
    replica_of: Option<&str>,
    peers: &[String],
) -> Daemon {
    let cfg = StoreConfig::new(dir).with_snapshot_every(0);
    let registry = Registry::new();
    let config = OnlineConfig::new(STREAM_K).with_telemetry(registry.clone());
    let rec = recover(&cfg, base, None, config, None).expect("fresh scratch directory recovers");
    let host = EngineHost::new(rec.engine, Some(rec.store), registry);
    let mut rc = ReplicationConfig::new("127.0.0.1:0")
        .with_peers(peers.to_vec())
        .with_heartbeat(HEARTBEAT);
    if let Some(primary) = replica_of {
        rc = rc.replica_of(primary);
    }
    let server_config = ServerConfig {
        recovery_interval: Duration::from_millis(5),
        replication: Some(rc),
        ..ServerConfig::default()
    };
    let server =
        Server::from_listener(listener, host, server_config).expect("serve on the listener");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    Daemon { addr, handle }
}

/// Runs the replication benchmark and writes `failover.json`.
pub fn failover(ctx: &mut Ctx) -> String {
    // Smaller than the `serve` population: two replicated daemons run
    // per pass, and the subject is the channel, not raw throughput.
    let base = planted(ctx, "bench-failover", 4_000.0, 600, 8, 20);
    let batches = ((120.0 * ctx.scale.multiplier.clamp(0.05, 2.0)) as usize).max(50);
    let stream: Vec<Vec<Update>> = zipf_stream(&base, ctx.seed, batches * BATCH)
        .chunks(BATCH)
        .map(<[Update]>::to_vec)
        .collect();
    let users = base.num_users() as u32;
    let config = || OnlineConfig::new(STREAM_K);

    let ((listener_a, addr_a), (listener_b, addr_b)) = (listen(), listen());
    let peers = vec![addr_a.clone(), addr_b.clone()];
    let dir_a = scratch("failover", "primary");
    let dir_b = scratch("failover", "replica");
    let primary = spawn_member(&dir_a, &base, listener_a, None, &peers);
    let replica = spawn_member(&dir_b, &base, listener_b, Some(&addr_a), &peers);

    // Phase 1: replicated load. Writes go to the primary; `neighbors`
    // probes hit both nodes so the read p99s compare like-for-like.
    let mut writer = Client::connect(&addr_a).expect("connect primary");
    let mut primary_reader = Client::connect(&addr_a).expect("connect primary reader");
    let mut replica_reader = Client::connect(&addr_b).expect("connect replica reader");
    // Let the channel attach before measuring: the first batches would
    // otherwise race the replica's catch-up dial.
    writer.update_batch(&stream[0], 1).expect("first batch");
    let attach = Instant::now();
    while replica_reader.health().expect("replica health").seq != Some(BATCH as u64) {
        assert!(
            attach.elapsed() < Duration::from_secs(10),
            "replica never attached to the primary"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    let split = stream.len() * 2 / 3; // phase 1 load; the rest rides the failover
    let mut primary_reads_us = Vec::new();
    let mut replica_reads_us = Vec::new();
    let mut acked: Vec<Vec<Update>> = vec![stream[0].clone()];
    for (i, batch) in stream[1..split].iter().enumerate() {
        writer
            .update_batch(batch, acked.len() as u64 + 1)
            .expect("replicated write");
        acked.push(batch.clone());
        for probe in 0..2u32 {
            let user = (i as u32 * 7 + probe * 13) % users;
            let t = Instant::now();
            primary_reader.neighbors(user).expect("primary read");
            primary_reads_us.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            replica_reader.neighbors(user).expect("replica read");
            replica_reads_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    let primary_p99 = p99_us(&mut primary_reads_us);
    let replica_p99 = p99_us(&mut replica_reads_us);
    let read_factor = replica_p99 / primary_p99.max(1e-9);

    // Steady-state lag once the stream drains: semi-sync shipping means
    // at most the one in-flight batch.
    let settle = Instant::now();
    let mut steady_lag = u64::MAX;
    while settle.elapsed() < Duration::from_secs(5) {
        steady_lag = writer.health().expect("primary health").replication_lag;
        if steady_lag <= MAX_STEADY_LAG {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let replicated_seq = replica_reader.health().expect("replica health").seq;
    drop((writer, primary_reader, replica_reader));

    // Phase 2: forced failover. The retrying client keeps writing; the
    // primary dies; the gap until the next acknowledged write on the
    // promoted replica is the client-observed unavailability.
    let policy = RetryPolicy {
        max_attempts: 20,
        base_delay: Duration::from_millis(10),
        max_delay: Duration::from_millis(200),
        seed: ctx.seed,
    };
    let mut client = SelfHealingClient::connect(&peers, policy).expect("retrying client connects");
    assert_eq!(
        client.leader(),
        Some(addr_a.as_str()),
        "discovery finds the primary"
    );

    primary.shutdown();
    let killed = Instant::now();
    let mut unavailability_ms = f64::INFINITY;
    for batch in &stream[split..] {
        let ack = client.update(batch);
        assert!(ack.is_ok(), "post-kill batch must land: {:?}", ack.err());
        if unavailability_ms.is_infinite() {
            unavailability_ms = killed.elapsed().as_secs_f64() * 1e3;
        }
        acked.push(batch.clone());
    }
    let failed_over = client.leader() == Some(addr_b.as_str());
    let failovers = client.failovers();
    let retries = client.retries();
    let reconnects = client.reconnects();

    // The survivor must have promoted itself with a bumped epoch.
    let mut survivor = Client::connect(&addr_b).expect("connect survivor");
    let promote = Instant::now();
    let health = loop {
        let h = survivor.health().expect("survivor health");
        if h.role.as_deref() == Some("primary") {
            break h;
        }
        assert!(
            promote.elapsed() < Duration::from_secs(10),
            "survivor never promoted"
        );
        std::thread::sleep(Duration::from_millis(5));
    };
    drop(survivor);
    replica.shutdown();

    // Phase 3: exactly-once. Recover the survivor and compare
    // bit-exactly against a fault-free replay of the acknowledged
    // batches.
    let cfg = StoreConfig::new(&dir_b).with_snapshot_every(0);
    let rec = recover(&cfg, &base, None, config(), None).expect("survivor recovers");
    let mut reference = OnlineKnn::new(&base, config());
    for batch in &acked {
        reference.apply_batch(batch.clone());
    }
    let bit_exact = rec.engine.graph().as_ref() == reference.graph().as_ref();
    let hwm_exact = rec.store.batch_hwm() == acked.len() as u64;
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();

    let mut out = String::new();
    out.push_str(&format!(
        "Replication benchmark on {}: {} users, {} update batches of {BATCH}, \
         heartbeat {:?}\n\n\
         phase 1: replicated load ({} batches)\n\
         {:>24}: {primary_p99:>10.0} us\n\
         {:>24}: {replica_p99:>10.0} us ({read_factor:.2}x primary, gate <= {MAX_REPLICA_READ_FACTOR}x)\n\
         {:>24}: {steady_lag:>10} batch(es) (gate <= {MAX_STEADY_LAG})\n\
         {:>24}: {:>10?}\n\n",
        base.name(),
        base.num_users(),
        stream.len(),
        HEARTBEAT,
        split,
        "primary read p99",
        "replica read p99",
        "steady-state lag",
        "replicated seq",
        replicated_seq,
    ));
    out.push_str(&format!(
        "phase 2: forced failover ({} batches ride through)\n\
         {:>24}: {unavailability_ms:>10.1} ms (gate <= {MAX_UNAVAILABILITY_MS:.0})\n\
         {:>24}: {:>10} (leader now {}; {failovers} failover(s), {retries} retries, \
         {reconnects} reconnects)\n\
         {:>24}: epoch {} role {}\n\n\
         exactly-once: bit_exact={bit_exact} hwm_exact={hwm_exact} \
         (hwm {} == acked {})\n",
        stream.len() - split,
        "unavailability",
        "re-routed",
        failed_over,
        if failed_over { &addr_b } else { "<unchanged>" },
        "survivor",
        health.epoch,
        health.role.as_deref().unwrap_or("?"),
        rec.store.batch_hwm(),
        acked.len(),
    ));

    let mut fail = |msg: String| {
        eprintln!("FAILOVER VIOLATION: {msg}");
        out.push_str(&format!("VIOLATION: {msg}\n"));
        ctx.violations.push(msg);
    };
    if read_factor > MAX_REPLICA_READ_FACTOR {
        fail(format!(
            "failover/replica-reads: replica read p99 {replica_p99:.0} us is \
             {read_factor:.2}x the primary's {primary_p99:.0} us (gate <= {MAX_REPLICA_READ_FACTOR}x)"
        ));
    }
    if steady_lag > MAX_STEADY_LAG {
        fail(format!(
            "failover/lag: steady-state replication lag {steady_lag} batches \
             (gate <= {MAX_STEADY_LAG})"
        ));
    }
    if !failed_over || unavailability_ms > MAX_UNAVAILABILITY_MS {
        fail(format!(
            "failover/unavailability: re-routed={failed_over} \
             unavailability {unavailability_ms:.1} ms (gate <= {MAX_UNAVAILABILITY_MS:.0})"
        ));
    }
    if !bit_exact || !hwm_exact || health.epoch == 0 {
        fail(format!(
            "failover/exactly-once: bit_exact={bit_exact} hwm_exact={hwm_exact} \
             epoch={} (hwm {} vs {} acked batches)",
            health.epoch,
            rec.store.batch_hwm(),
            acked.len()
        ));
    }

    let dataset_v = serde_json::json!({
        "name": base.name(),
        "num_users": base.num_users(),
        "num_items": base.num_items(),
        "update_batches": stream.len(),
        "batch": BATCH,
        "heartbeat_ms": HEARTBEAT.as_millis() as u64
    });
    let load_v = serde_json::json!({
        "batches": split,
        "primary_read_p99_us": primary_p99,
        "replica_read_p99_us": replica_p99,
        "replica_read_factor": read_factor,
        "max_replica_read_factor": MAX_REPLICA_READ_FACTOR,
        "steady_lag_batches": steady_lag,
        "max_steady_lag_batches": MAX_STEADY_LAG
    });
    let failover_v = serde_json::json!({
        "batches": stream.len() - split,
        "unavailability_ms": unavailability_ms,
        "max_unavailability_ms": MAX_UNAVAILABILITY_MS,
        "re_routed": failed_over,
        "failovers": failovers,
        "retries": retries,
        "reconnects": reconnects,
        "survivor_epoch": health.epoch,
        "survivor_role": health.role
    });
    let exactly_once_v = serde_json::json!({
        "bit_exact": bit_exact,
        "batch_hwm": rec.store.batch_hwm(),
        "acked_batches": acked.len()
    });
    let payload = serde_json::json!({
        "dataset": dataset_v,
        "load": load_v,
        "failover": failover_v,
        "exactly_once": exactly_once_v
    });
    ctx.finish(
        "failover",
        "Replication: primary/replica WAL shipping, forced failover, exactly-once across the kill",
        out,
        &payload,
    )
}
