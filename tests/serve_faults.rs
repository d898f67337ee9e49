//! Chaos harness: proptest fault schedules driven through a *live*
//! daemon over TCP.
//!
//! Each case arms a schedule of one-shot failpoints (WAL append/fsync
//! failures, connections torn by the server mid-read or mid-write),
//! pushes an arbitrary update stream through a [`SelfHealingClient`],
//! and then proves the two contracts the fault layer exists for:
//!
//! 1. **Bit-exact recovery** — the state recovered from disk equals a
//!    fault-free in-process run applying the same batches, exactly.
//! 2. **Exactly-once writes** — every batch applies once no matter how
//!    many times the client had to retry it; the applied high-water
//!    mark ends at the last batch id, never beyond.
//!
//! Failpoints are process-global, so every arm here is *scoped*: WAL
//! faults to this case's scratch directory, network faults to this
//! case's listener address. Triggers are one-shot (`Nth`), so entries
//! exhaust themselves and stale scopes can never match a later case.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use proptest::prelude::*;

use kiff::prelude::*;
use kiff::serve::{recover, Client, RetryPolicy, SelfHealingClient, ServerConfig, StoreConfig};
use kiff_core::fault::{self, points, Trigger};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A fresh scratch directory per call — the directory path doubles as
/// the failpoint scope, so it must be unique per case.
fn scratch(tag: &str) -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let mut p = std::env::temp_dir();
    p.push(format!(
        "kiff-serve-faults-{}-{tag}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// Arms any ambient `KIFF_FAILPOINTS` spec exactly once per test
/// binary. The CI chaos job sets one (probabilistic triggers with
/// fixed seeds) so the suite runs under background fault pressure;
/// unset, this is a no-op and the only faults are the scoped per-case
/// arms below.
fn ambient_failpoints() {
    static ARM: std::sync::Once = std::sync::Once::new();
    ARM.call_once(|| {
        let armed = fault::arm_from_env().expect("invalid KIFF_FAILPOINTS spec");
        if armed > 0 {
            eprintln!("chaos: {armed} ambient failpoint(s) armed from KIFF_FAILPOINTS");
        }
    });
}

/// Same seed shape as `serve_recovery`: 8 users over 10 items.
fn seed_dataset() -> Dataset {
    let mut b = DatasetBuilder::new("fault-seed", 8, 10);
    for u in 0..8u32 {
        for j in 0..4u32 {
            b.add_rating(u, (u * 3 + j * 2) % 10, 1.0 + (u + j) as f32 % 3.0);
        }
    }
    b.build()
}

/// Arbitrary update streams over the seed's id space.
fn arb_stream() -> impl Strategy<Value = Vec<Update>> {
    proptest::collection::vec((0u8..8, 0u32..8, 0u32..10, 1u32..6), 1..40).prop_map(|ops| {
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

/// A fault schedule: up to three one-shot failpoints, each firing on
/// its n-th check. Index picks the point; WAL faults scope to the
/// store directory, network faults to the listener address.
fn arb_faults() -> impl Strategy<Value = Vec<(u8, u64)>> {
    proptest::collection::vec((0u8..4, 1u64..5), 0..3)
}

/// Retries `shutdown` against a daemon whose connections a leftover
/// net fault might still tear. A refused connection means the daemon
/// already stopped (a torn shutdown ack still shuts down).
fn shutdown_daemon(addr: &str) {
    for _ in 0..20 {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any stream, any batch size, any schedule of injected WAL and
    /// network faults: the self-healing client lands every batch
    /// exactly once, and recovery from disk is bit-exact against a
    /// fault-free reference run.
    #[test]
    fn fault_schedule_preserves_exactly_once_and_bit_exact_recovery(
        stream in arb_stream(),
        batch in 1usize..6,
        faults in arb_faults(),
    ) {
        ambient_failpoints();
        let seed = seed_dataset();
        let config = || OnlineConfig::new(3);

        // Fault-free reference: one apply_batch per client update call,
        // same boundaries — exactly-once means the daemon's effective
        // apply sequence must equal this.
        let mut reference = OnlineKnn::new(&seed, config());
        for chunk in stream.chunks(batch) {
            reference.apply_batch(chunk.to_vec());
        }

        let dir = scratch("chaos");
        let dir_scope = dir.to_string_lossy().into_owned();
        let cfg = StoreConfig::new(&dir).with_snapshot_every(0);
        let rec = recover(&cfg, &seed, None, config(), None).unwrap();
        let host = EngineHost::new(rec.engine, Some(rec.store), Registry::new());
        let server_config = ServerConfig {
            recovery_interval: Duration::from_millis(5),
            ..ServerConfig::default()
        };
        let server = kiff::serve::Server::bind_with("127.0.0.1:0", host, server_config).unwrap();
        let addr = server.local_addr().to_string();
        let daemon = std::thread::spawn(move || server.run());

        // Connect *before* arming network faults so the handshake
        // (which seeds the batch-id counter from the server's hwm)
        // can't be torn; every later request is fair game.
        let policy = RetryPolicy {
            max_attempts: 10,
            base_delay: Duration::from_millis(3),
            max_delay: Duration::from_millis(30),
            seed: 7,
        };
        let mut client = SelfHealingClient::connect(&[&addr], policy).unwrap();
        prop_assert_eq!(client.next_batch(), 1, "fresh store starts below batch 1");

        for (point, nth) in &faults {
            match point {
                0 => fault::arm_scoped(points::WAL_APPEND, Trigger::Nth(*nth), &dir_scope),
                1 => fault::arm_scoped(points::WAL_FSYNC, Trigger::Nth(*nth), &dir_scope),
                2 => fault::arm_scoped(points::NET_READ, Trigger::Nth(*nth), &addr),
                _ => fault::arm_scoped(points::NET_WRITE, Trigger::Nth(*nth), &addr),
            }
        }

        let mut batches = 0u64;
        for chunk in stream.chunks(batch) {
            let ack = client.update(chunk);
            prop_assert!(
                ack.is_ok(),
                "batch must land within the retry budget: {:?}",
                ack.err()
            );
            batches += 1;
        }
        prop_assert_eq!(client.next_batch(), batches + 1);

        // The daemon must heal before the (bounded) patience runs out.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let health = client.call(Client::health).unwrap();
            if health.status == "healthy" {
                prop_assert_eq!(health.batch_hwm, batches);
                break;
            }
            prop_assert!(Instant::now() < deadline, "stuck {}", health.status);
            std::thread::sleep(Duration::from_millis(5));
        }

        shutdown_daemon(&addr);
        daemon.join().unwrap().unwrap();

        // Recover from disk and compare bit-exactly. A batch that was
        // retried after a torn ack must appear exactly once.
        let rec = recover(&cfg, &seed, None, config(), None).unwrap();
        prop_assert_eq!(rec.store.batch_hwm(), batches, "hwm is the last batch id");
        let (recovered, expected) = (rec.engine.graph(), reference.graph());
        prop_assert_eq!(
            recovered.as_ref(),
            expected.as_ref(),
            "recovered graph diverged from the fault-free run"
        );
        prop_assert_eq!(rec.engine.len(), reference.num_users());
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A failed snapshot write must leave recovery entirely WAL-driven: no
/// partial snapshot, no `.tmp` litter, no lost updates.
#[test]
fn failed_snapshot_write_falls_back_to_wal_replay() {
    ambient_failpoints();
    let seed = seed_dataset();
    let config = || OnlineConfig::new(3);
    let stream: Vec<Update> = (0..20u32)
        .map(|i| Update::AddRating {
            user: i % 8,
            item: (i * 7) % 10,
            rating: 1.0 + (i % 5) as f32,
        })
        .collect();

    let mut reference = OnlineKnn::new(&seed, config());
    for chunk in stream.chunks(4) {
        reference.apply_batch(chunk.to_vec());
    }

    let dir = scratch("snapfault");
    let dir_scope = dir.to_string_lossy().into_owned();
    let cfg = StoreConfig::new(&dir).with_snapshot_every(0);
    let rec = recover(&cfg, &seed, None, config(), None).unwrap();
    let (mut engine, mut store) = (rec.engine, rec.store);
    fault::arm_scoped(points::SNAPSHOT_WRITE, Trigger::Nth(1), &dir_scope);
    for (i, chunk) in stream.chunks(4).enumerate() {
        store.append(chunk, 0).unwrap();
        engine.apply_batch(chunk.to_vec());
        if i == 2 {
            assert!(
                store.snapshot(engine.as_ref()).is_err(),
                "injected write fault"
            );
        }
    }
    drop((engine, store)); // crash without a (working) snapshot

    for entry in std::fs::read_dir(&dir).unwrap() {
        let name = entry.unwrap().file_name();
        let name = name.to_string_lossy().into_owned();
        assert!(!name.ends_with(".tmp"), "tmp litter: {name}");
        assert!(!name.contains("snapshot"), "phantom snapshot: {name}");
    }

    let rec = recover(&cfg, &seed, None, config(), None).unwrap();
    assert_eq!(rec.snapshot_seq, None);
    assert_eq!(rec.replayed, stream.len() as u64);
    assert_eq!(rec.engine.graph().as_ref(), reference.graph().as_ref());
    std::fs::remove_dir_all(&dir).ok();
}

/// The canonical torn-ack scenario, pinned deterministically: the
/// server applies a batch, the connection dies before the ack, the
/// client retries the same batch id, and the server dedupes it — one
/// apply, `deduped: true` on the retry.
#[test]
fn killed_ack_retries_without_double_apply() {
    ambient_failpoints();
    let seed = seed_dataset();
    let config = || OnlineConfig::new(3);

    let dir = scratch("tornack");
    let cfg = StoreConfig::new(&dir).with_snapshot_every(0);
    let rec = recover(&cfg, &seed, None, config(), None).unwrap();
    let host = EngineHost::new(rec.engine, Some(rec.store), Registry::new());
    let server = kiff::serve::Server::bind("127.0.0.1:0", host).unwrap();
    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || server.run());

    let mut client = SelfHealingClient::connect(&[&addr], RetryPolicy::default()).unwrap();
    // Fire on the write of the *next* response: the update below is
    // applied server-side, but its ack never reaches the client.
    fault::arm_scoped(points::NET_WRITE, Trigger::Nth(1), &addr);
    let ack = client
        .update(&[Update::AddRating {
            user: 0,
            item: 9,
            rating: 5.0,
        }])
        .unwrap();
    assert_eq!(ack.applied, 0, "retry was deduped, not re-applied");
    assert!(ack.deduped);
    assert!(client.retries() >= 1, "the torn ack forced a retry");
    assert!(client.reconnects() >= 1);

    // The batch landed exactly once despite the retry.
    let health = client.call(Client::health).unwrap();
    assert_eq!(health.status, "healthy");
    assert_eq!(health.batch_hwm, 1);
    assert_eq!(health.seq, Some(1));

    shutdown_daemon(&addr);
    daemon.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
