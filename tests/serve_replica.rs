//! Replication and failover chaos: primary/replica pairs driven over
//! real sockets.
//!
//! The deterministic tests pin the core guarantees one by one — the
//! replica follows the stream and serves reads, writes to it come back
//! as typed `NotPrimary` with a leader hint, torn replication streams
//! and acks redial and catch up, and a stale primary's frames are
//! fenced by epoch after a promotion. The proptest drives arbitrary
//! update streams through a [`SelfHealingClient`] with the primary killed
//! at an arbitrary batch index and proves the promoted replica ends
//! bit-exact against a fault-free single-engine reference with every
//! batch applied exactly once.
//!
//! Failpoints are process-global, so every arm is scoped to this
//! case's replica replication address; triggers are one-shot (`Nth`)
//! and exhaust themselves.

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use proptest::prelude::*;
use serde_json::{json, Value};

use kiff::prelude::*;
use kiff::serve::{
    recover, replication, Client, ReplicationConfig, RetryPolicy, SelfHealingClient, ServerConfig,
    StoreConfig,
};
use kiff_core::fault::{self, points, Trigger};
use kiff_core::KiffError;

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn scratch(tag: &str) -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let mut p = std::env::temp_dir();
    p.push(format!(
        "kiff-serve-replica-{}-{tag}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// Arms any ambient `KIFF_FAILPOINTS` spec exactly once per test
/// binary. The CI chaos job sets one (probabilistic replication faults
/// with fixed seeds) so the whole suite runs under background fault
/// pressure; unset, this is a no-op and the only faults are the scoped
/// per-case arms below.
fn ambient_failpoints() {
    static ARM: std::sync::Once = std::sync::Once::new();
    ARM.call_once(|| {
        let armed = fault::arm_from_env().expect("invalid KIFF_FAILPOINTS spec");
        if armed > 0 {
            eprintln!("chaos: {armed} ambient failpoint(s) armed from KIFF_FAILPOINTS");
        }
    });
}

/// Same seed shape as the other serve chaos suites: 8 users, 10 items.
fn seed_dataset() -> Dataset {
    let mut b = DatasetBuilder::new("replica-seed", 8, 10);
    for u in 0..8u32 {
        for j in 0..4u32 {
            b.add_rating(u, (u * 3 + j * 2) % 10, 1.0 + (u + j) as f32 % 3.0);
        }
    }
    b.build()
}

fn arb_stream() -> impl Strategy<Value = Vec<Update>> {
    proptest::collection::vec((0u8..8, 0u32..8, 0u32..10, 1u32..6), 1..30).prop_map(|ops| {
        ops.into_iter()
            .map(|(kind, user, item, rating)| match kind {
                0 => Update::AddUser,
                1 => Update::RemoveRating { user, item },
                _ => Update::AddRating {
                    user,
                    item,
                    rating: rating as f32,
                },
            })
            .collect()
    })
}

/// Binds a node's client port. The peer lists must name every daemon
/// before any of them runs, so each test binds all its listeners first
/// and hands each one to its server: no other socket can take a port
/// between choosing it and serving on it.
fn listen() -> (TcpListener, String) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    (listener, addr)
}

struct Node {
    repl_addr: String,
    dir: PathBuf,
    handle: std::thread::JoinHandle<Result<(), KiffError>>,
}

fn spawn_node(
    dir: &Path,
    listener: TcpListener,
    replica_of: Option<&str>,
    peers: &[String],
    heartbeat_ms: u64,
) -> Node {
    spawn_node_min_sync(dir, listener, replica_of, peers, heartbeat_ms, 0)
}

fn spawn_node_min_sync(
    dir: &Path,
    listener: TcpListener,
    replica_of: Option<&str>,
    peers: &[String],
    heartbeat_ms: u64,
    min_sync: usize,
) -> Node {
    ambient_failpoints();
    let cfg = StoreConfig::new(dir).with_snapshot_every(0);
    let rec = recover(&cfg, &seed_dataset(), None, OnlineConfig::new(3), None).unwrap();
    let host = EngineHost::new(rec.engine, Some(rec.store), Registry::new());
    let mut rc = ReplicationConfig::new("127.0.0.1:0")
        .with_peers(peers.to_vec())
        .with_heartbeat(Duration::from_millis(heartbeat_ms))
        .with_ack_timeout(Duration::from_millis(500))
        .with_min_sync_replicas(min_sync);
    if let Some(primary) = replica_of {
        rc = rc.replica_of(primary);
    }
    let server_config = ServerConfig {
        recovery_interval: Duration::from_millis(5),
        replication: Some(rc),
        ..ServerConfig::default()
    };
    let server = kiff::serve::Server::from_listener(listener, host, server_config).unwrap();
    let repl_addr = server.repl_addr().unwrap().to_string();
    Node {
        repl_addr,
        dir: dir.to_path_buf(),
        handle: std::thread::spawn(move || server.run()),
    }
}

fn shutdown_daemon(addr: &str) {
    for _ in 0..50 {
        match Client::connect(addr) {
            Ok(mut c) => {
                if c.shutdown().is_ok() {
                    return;
                }
            }
            Err(_) => return,
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("daemon at {addr} refused shutdown");
}

/// Polls `probe` until it returns true or `secs` elapse.
fn wait_for(secs: u64, what: &str, mut probe: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while !probe() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn retry_policy(seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_attempts: 12,
        base_delay: Duration::from_millis(20),
        max_delay: Duration::from_millis(300),
        seed,
    }
}

/// Recovers a node's data dir in-process for bit-exact comparison.
fn recovered_graph(dir: &Path) -> (std::sync::Arc<kiff_graph::KnnGraph>, u64, u64) {
    let cfg = StoreConfig::new(dir).with_snapshot_every(0);
    let rec = recover(&cfg, &seed_dataset(), None, OnlineConfig::new(3), None).unwrap();
    (rec.engine.graph(), rec.store.batch_hwm(), rec.store.seq())
}

#[test]
fn replica_follows_serves_reads_and_refuses_writes() {
    let ((la, a), (lb, b)) = (listen(), listen());
    let peers = vec![a.clone(), b.clone()];
    let primary = spawn_node(&scratch("basics-a"), la, None, &peers, 50);
    let replica = spawn_node(&scratch("basics-b"), lb, Some(&a), &peers, 50);

    let mut reference = OnlineKnn::new(&seed_dataset(), OnlineConfig::new(3));
    let stream: Vec<Update> = (0..24u32)
        .map(|i| Update::AddRating {
            user: i % 8,
            item: (i * 7) % 10,
            rating: 1.0 + (i % 5) as f32,
        })
        .collect();
    let mut client = Client::connect(&a).unwrap();
    let mut batches = 0u64;
    for chunk in stream.chunks(4) {
        batches += 1;
        client.update_batch(chunk, batches).unwrap();
        reference.apply_batch(chunk.to_vec());
    }

    // Semi-sync shipping: by the time the last update is acked, the
    // replica holds every batch (lag ≤ the one in flight).
    let mut replica_client = Client::connect(&b).unwrap();
    wait_for(5, "replica catch-up", || {
        replica_client.health().unwrap().seq == Some(stream.len() as u64)
    });

    let primary_health = client.health().unwrap();
    assert_eq!(primary_health.role.as_deref(), Some("primary"));
    assert_eq!(primary_health.epoch, 0);
    let replica_health = replica_client.health().unwrap();
    assert_eq!(replica_health.role.as_deref(), Some("replica"));
    assert_eq!(replica_health.epoch, 0);
    assert!(
        replica_health.repl_addr.is_some(),
        "health names the channel"
    );
    assert_eq!(replica_health.batch_hwm, batches, "hwm replicated too");

    // Replica reads answer and agree with the primary.
    for user in 0..8u32 {
        assert_eq!(
            replica_client.neighbors(user).unwrap(),
            client.neighbors(user).unwrap(),
            "user {user} diverged on the replica"
        );
    }

    // Writes to the replica are refused with a typed leader hint.
    let err = replica_client
        .update_batch(&[Update::AddUser], 999)
        .unwrap_err();
    match &err {
        KiffError::NotPrimary { leader } => {
            assert_eq!(
                leader.as_deref(),
                Some(a.as_str()),
                "hint names the primary"
            );
        }
        other => panic!("expected NotPrimary, got {other}"),
    }
    assert!(err.is_retryable(), "the retrying client can re-route this");

    shutdown_daemon(&a);
    primary.handle.join().unwrap().unwrap();
    shutdown_daemon(&b);
    replica.handle.join().unwrap().unwrap();

    let (graph_a, hwm_a, _) = recovered_graph(&primary.dir);
    let (graph_b, hwm_b, _) = recovered_graph(&replica.dir);
    assert_eq!(graph_a.as_ref(), reference.graph().as_ref());
    assert_eq!(graph_b.as_ref(), reference.graph().as_ref());
    assert_eq!((hwm_a, hwm_b), (batches, batches));
    std::fs::remove_dir_all(&primary.dir).ok();
    std::fs::remove_dir_all(&replica.dir).ok();
}

#[test]
fn torn_stream_and_torn_ack_redial_and_converge() {
    let ((la, a), (lb, b)) = (listen(), listen());
    let peers = vec![a.clone(), b.clone()];
    let primary = spawn_node(&scratch("torn-a"), la, None, &peers, 50);
    let replica = spawn_node(&scratch("torn-b"), lb, Some(&a), &peers, 50);

    // Wait for the stream to come up before arming, so the handshake
    // itself isn't the casualty.
    let mut replica_client = Client::connect(&b).unwrap();
    let mut client = Client::connect(&a).unwrap();
    client.update_batch(&[Update::AddUser], 1).unwrap();
    wait_for(5, "initial replication", || {
        replica_client.health().unwrap().seq == Some(1)
    });

    // Tear the stream before a batch frame, and (later) the replica's
    // ack after an apply: both paths must redial, catch up from the
    // WAL, and dedup the resent batch by sequence.
    fault::arm_scoped(points::REPL_STREAM, Trigger::Nth(1), &replica.repl_addr);
    fault::arm_scoped(points::REPL_ACK, Trigger::Nth(2), &replica.repl_addr);

    let mut reference = OnlineKnn::new(&seed_dataset(), OnlineConfig::new(3));
    reference.apply_batch(vec![Update::AddUser]);
    let stream: Vec<Update> = (0..16u32)
        .map(|i| Update::AddRating {
            user: i % 8,
            item: (i * 3) % 10,
            rating: 1.0 + (i % 4) as f32,
        })
        .collect();
    let mut batches = 1u64;
    for chunk in stream.chunks(4) {
        batches += 1;
        client.update_batch(chunk, batches).unwrap();
        reference.apply_batch(chunk.to_vec());
    }
    wait_for(5, "post-fault convergence", || {
        replica_client.health().unwrap().seq == Some(1 + stream.len() as u64)
    });

    shutdown_daemon(&a);
    primary.handle.join().unwrap().unwrap();
    shutdown_daemon(&b);
    replica.handle.join().unwrap().unwrap();
    let (graph_b, hwm_b, seq_b) = recovered_graph(&replica.dir);
    assert_eq!(graph_b.as_ref(), reference.graph().as_ref());
    assert_eq!(hwm_b, batches, "every batch exactly once despite tears");
    assert_eq!(seq_b, 1 + stream.len() as u64);
    std::fs::remove_dir_all(&primary.dir).ok();
    std::fs::remove_dir_all(&replica.dir).ok();
}

#[test]
fn primary_kill_promotes_replica_and_fences_the_old_epoch() {
    let ((la, a), (lb, b)) = (listen(), listen());
    let peers = vec![a.clone(), b.clone()];
    let primary = spawn_node(&scratch("fence-a"), la, None, &peers, 25);
    let replica = spawn_node(&scratch("fence-b"), lb, Some(&a), &peers, 25);

    let mut client = Client::connect(&a).unwrap();
    client
        .update_batch(
            &[Update::AddRating {
                user: 0,
                item: 9,
                rating: 5.0,
            }],
            1,
        )
        .unwrap();

    // Let the channel establish and ship the batch before the kill —
    // semi-sync only covers writes made while a subscriber is attached.
    let mut replica_client = Client::connect(&b).unwrap();
    wait_for(5, "initial replication", || {
        replica_client.health().unwrap().seq == Some(1)
    });

    shutdown_daemon(&a);
    primary.handle.join().unwrap().unwrap();

    // Silence → election → promotion with a bumped, persisted epoch.
    wait_for(5, "promotion", || {
        let h = replica_client.health().unwrap();
        h.role.as_deref() == Some("primary") && h.epoch >= 1
    });
    let promoted = replica_client.health().unwrap();
    assert_eq!(promoted.seq, Some(1), "acked write survived the failover");

    // The promoted node takes writes now.
    replica_client
        .update_batch(
            &[Update::AddRating {
                user: 1,
                item: 0,
                rating: 2.0,
            }],
            2,
        )
        .unwrap();

    // A stale primary reconnecting with the old epoch is fenced.
    let mut stale = std::net::TcpStream::connect(&replica.repl_addr).unwrap();
    replication::write_frame(
        &mut stale,
        &json!({"t": "hello", "epoch": 0u64, "seq": 1u64, "advertise": a.clone()}),
    )
    .unwrap();
    let answer = replication::read_frame(&mut stale).unwrap();
    assert_eq!(answer.get("t").and_then(Value::as_str), Some("not_leader"));
    assert!(
        answer.get("epoch").and_then(Value::as_u64).unwrap() >= 1,
        "the fence carries the new epoch"
    );

    // Equal epoch is refused too: a primary never accepts a rival
    // stream at its own epoch.
    let epoch = replica_client.health().unwrap().epoch;
    let mut rival = std::net::TcpStream::connect(&replica.repl_addr).unwrap();
    replication::write_frame(
        &mut rival,
        &json!({"t": "hello", "epoch": epoch, "seq": 1u64, "advertise": a.clone()}),
    )
    .unwrap();
    let answer = replication::read_frame(&mut rival).unwrap();
    assert_eq!(answer.get("t").and_then(Value::as_str), Some("not_leader"));

    // The epoch fence survives a restart (persisted in snapshot v3).
    shutdown_daemon(&b);
    replica.handle.join().unwrap().unwrap();
    let cfg = StoreConfig::new(&replica.dir).with_snapshot_every(0);
    let rec = recover(&cfg, &seed_dataset(), None, OnlineConfig::new(3), None).unwrap();
    assert!(rec.store.epoch() >= 1, "promotion epoch persisted");
    assert_eq!(rec.store.seq(), 2);
    std::fs::remove_dir_all(&primary.dir).ok();
    std::fs::remove_dir_all(&replica.dir).ok();
}

/// Retries a write through retryable refusals (`Unavailable` while the
/// group is under the in-sync minimum, transient transport errors from
/// ambient chaos faults) until it acks.
fn update_until_acked(
    client: &mut Client,
    updates: &[Update],
    batch: u64,
) -> kiff::serve::UpdateAck {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match client.update_batch(updates, batch) {
            Ok(ack) => return ack,
            Err(e) => {
                assert!(Instant::now() < deadline, "batch {batch} never acked: {e}");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

/// With `min_sync_replicas = 1` a primary alone in the group refuses
/// writes as retryable `Unavailable` instead of acking batches no
/// replica holds; once a replica attaches and catches up, the retried
/// batch dedups and fresh writes ack normally.
#[test]
fn min_sync_replicas_gates_acks_until_a_replica_attaches() {
    let ((la, a), (lb, b)) = (listen(), listen());
    let peers = vec![a.clone(), b.clone()];
    let primary = spawn_node_min_sync(&scratch("isr-a"), la, None, &peers, 25, 1);

    let mut client = Client::connect(&a).unwrap();
    let err = client.update_batch(&[Update::AddUser], 1).unwrap_err();
    match &err {
        KiffError::Remote { kind, .. } => assert_eq!(
            kind, "unavailable",
            "zero attached replicas < 1 required must refuse the ack"
        ),
        other => panic!("expected a remote unavailable refusal, got {other}"),
    }
    assert!(err.is_retryable(), "the client should retry, not give up");

    // The refused batch still landed in the primary's WAL, so the
    // replica picks it up through the reconnect catch-up. (Until now
    // the replica's port was bound but not served: the primary's health
    // poll of it waited in the listener's backlog.)
    let replica = spawn_node(&scratch("isr-b"), lb, Some(&a), &peers, 25);
    let mut replica_client = Client::connect(&b).unwrap();
    wait_for(5, "replica catch-up", || {
        replica_client.health().unwrap().seq == Some(1)
    });

    // The retry under the original id dedups into a success now that
    // the group meets the minimum... (retried like a real client would,
    // since the CI chaos job's ambient faults can tear the stream and
    // momentarily push the group back under the minimum)
    let retry = update_until_acked(&mut client, &[Update::AddUser], 1);
    assert!(retry.deduped, "retried batch id dedups, not re-applies");
    // ...and a fresh batch acks only after the replica confirmed it.
    update_until_acked(
        &mut client,
        &[Update::AddRating {
            user: 2,
            item: 3,
            rating: 4.0,
        }],
        2,
    );
    wait_for(5, "semi-sync ship", || {
        replica_client.health().unwrap().seq == Some(2)
    });

    shutdown_daemon(&a);
    primary.handle.join().unwrap().unwrap();
    shutdown_daemon(&b);
    replica.handle.join().unwrap().unwrap();
    let (_, hwm_b, seq_b) = recovered_graph(&replica.dir);
    assert_eq!((hwm_b, seq_b), (2, 2), "both batches exactly once");
    std::fs::remove_dir_all(&primary.dir).ok();
    std::fs::remove_dir_all(&replica.dir).ok();
}

#[test]
fn retrying_client_discovers_and_routes_to_the_leader() {
    let ((la, a), (lb, b)) = (listen(), listen());
    let peers = vec![a.clone(), b.clone()];
    let primary = spawn_node(&scratch("route-a"), la, None, &peers, 50);
    let replica = spawn_node(&scratch("route-b"), lb, Some(&a), &peers, 50);

    // The replica is listed first: discovery must pick the primary by
    // its role, not by the order of the endpoints.
    let mut client = SelfHealingClient::connect(&[&b, &a], retry_policy(3)).unwrap();
    assert_eq!(
        client.leader(),
        Some(a.as_str()),
        "health discovery finds the primary"
    );
    assert_eq!(client.next_batch(), 1);

    // Writes land on the primary.
    for i in 0..6u32 {
        client
            .update(&[Update::AddRating {
                user: i % 8,
                item: i % 10,
                rating: 1.5,
            }])
            .unwrap();
    }
    // Once the replica caught up, a leader-routed read and a direct
    // read of the replica agree.
    let mut replica_client = Client::connect(&b).unwrap();
    wait_for(5, "replica catch-up", || {
        replica_client.health().unwrap().seq == Some(6)
    });
    let routed = client.call(|c| c.neighbors(0)).unwrap();
    assert_eq!(
        routed,
        replica_client.neighbors(0).unwrap(),
        "the caught-up replica agrees with the leader"
    );
    assert_eq!(
        client.leader(),
        Some(a.as_str()),
        "reads route to the leader"
    );
    assert_eq!(client.failovers(), 0);

    shutdown_daemon(&a);
    primary.handle.join().unwrap().unwrap();
    shutdown_daemon(&b);
    replica.handle.join().unwrap().unwrap();
    std::fs::remove_dir_all(&primary.dir).ok();
    std::fs::remove_dir_all(&replica.dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Arbitrary streams, the primary killed at an arbitrary batch
    /// index: the retrying client lands every batch exactly once on
    /// the surviving node, whose recovered state is bit-exact against
    /// a fault-free single-engine reference.
    #[test]
    fn failover_chaos_preserves_exactly_once_and_bit_exact_state(
        stream in arb_stream(),
        batch in 1usize..5,
        kill_frac in 0.0f64..1.0,
    ) {
        let seed = seed_dataset();
        let mut reference = OnlineKnn::new(&seed, OnlineConfig::new(3));
        let chunks: Vec<Vec<Update>> = stream.chunks(batch).map(<[Update]>::to_vec).collect();
        let kill_at = ((chunks.len() as f64) * kill_frac) as usize;

        let ((la, a), (lb, b)) = (listen(), listen());
        let peers = vec![a.clone(), b.clone()];
        let primary = spawn_node(&scratch("chaos-a"), la, None, &peers, 25);
        let replica = spawn_node(&scratch("chaos-b"), lb, Some(&a), &peers, 25);

        let mut client = SelfHealingClient::connect(&peers, retry_policy(11)).unwrap();
        prop_assert_eq!(client.leader(), Some(a.as_str()));
        prop_assert_eq!(client.next_batch(), 1);

        // Prime the channel: semi-sync only covers writes made while a
        // subscriber is attached, so let the replica connect and ship
        // one batch before any kill can happen.
        client.update(&[Update::AddUser]).unwrap();
        reference.apply_batch(vec![Update::AddUser]);
        let mut survivor = Client::connect(&b).unwrap();
        {
            let deadline = Instant::now() + Duration::from_secs(5);
            loop {
                if survivor.health().unwrap().seq == Some(1) {
                    break;
                }
                prop_assert!(Instant::now() < deadline, "replica never attached");
                std::thread::sleep(Duration::from_millis(10));
            }
        }

        let mut primary_handle = Some(primary.handle);
        for (i, chunk) in chunks.iter().enumerate() {
            if i == kill_at {
                // Graceful kill: acked batches are already replicated
                // (semi-sync), un-acked ones replay under their
                // original id and dedup on the new leader.
                shutdown_daemon(&a);
                primary_handle.take().unwrap().join().unwrap().unwrap();
            }
            let ack = client.update(chunk);
            prop_assert!(ack.is_ok(), "batch {i} must land within the retry budget: {:?}", ack.err());
            reference.apply_batch(chunk.clone());
        }
        if let Some(handle) = primary_handle.take() {
            shutdown_daemon(&a);
            handle.join().unwrap().unwrap();
        }
        let batches = chunks.len() as u64 + 1; // priming batch + the stream
        prop_assert_eq!(client.next_batch(), batches + 1);
        if kill_at < chunks.len() {
            prop_assert_eq!(client.leader(), Some(b.as_str()), "writes re-routed to the survivor");
            prop_assert!(client.failovers() >= 1);
        }

        // The survivor ends up primary and owns the whole stream.
        let total = stream.len() as u64 + 1;
        wait_for(10, "survivor promotion", || {
            let h = survivor.health().unwrap();
            h.role.as_deref() == Some("primary") && h.seq == Some(total)
        });
        let health = survivor.health().unwrap();
        prop_assert!(health.epoch >= 1, "promotion bumped the epoch");
        prop_assert_eq!(health.batch_hwm, batches, "every batch exactly once");

        shutdown_daemon(&b);
        replica.handle.join().unwrap().unwrap();
        let (graph, hwm, seq) = recovered_graph(&replica.dir);
        let expected = reference.graph();
        prop_assert_eq!(
            graph.as_ref(),
            expected.as_ref(),
            "promoted replica diverged from the fault-free reference"
        );
        prop_assert_eq!(hwm, batches);
        prop_assert_eq!(seq, total);
        std::fs::remove_dir_all(&primary.dir).ok();
        std::fs::remove_dir_all(&replica.dir).ok();
    }
}
