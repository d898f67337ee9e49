//! Talking to a `kiff serve` daemon over TCP.
//!
//! Spawns an in-process daemon on an ephemeral port — the same
//! [`kiff::serve::Server`] the `kiff serve` subcommand runs — with WAL +
//! snapshot persistence in a scratch directory, then walks the typed
//! [`kiff::serve::Client`] through the whole wire surface: neighbours,
//! recommendations, predictions, durable updates, a forced snapshot,
//! stats, and telemetry. A chaos interlude arms a `net.write` failpoint
//! so the daemon's ack dies mid-flight, and a [`SelfHealingClient`]
//! retries the batch across a fresh connection without double-applying
//! it. Finally it kills the daemon, recovers a second one from the same
//! directory, and shows the streamed ratings survived.
//!
//! Against a real daemon (`kiff serve --input ... --data-dir ...`), skip
//! the spawning and just `Client::connect("host:port")`.
//!
//! Run with: `cargo run --release --example kiff_client`

use kiff::core::fault::{self, points, Trigger};
use kiff::dataset::generators::movielens::movielens_like;
use kiff::online::{OnlineConfig, Update};
use kiff::prelude::*;
use kiff::serve::{
    recover, Client, EngineHost, RetryPolicy, SelfHealingClient, Server, StoreConfig,
};
use kiff::telemetry::Registry;

fn spawn_daemon(
    dir: &std::path::Path,
    base: &Dataset,
) -> (std::thread::JoinHandle<Result<(), KiffError>>, String) {
    let registry = Registry::new();
    let config = OnlineConfig::new(10).with_telemetry(registry.clone());
    let rec = recover(&StoreConfig::new(dir), base, None, config, None)
        .expect("data directory must recover");
    println!(
        "daemon: snapshot {:?}, {} WAL update(s) replayed",
        rec.snapshot_seq, rec.replayed
    );
    let host = EngineHost::new(rec.engine, Some(rec.store), registry);
    let server = Server::bind("127.0.0.1:0", host).expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    (std::thread::spawn(move || server.run()), addr)
}

fn main() {
    let base = movielens_like(0.05, 42);
    println!(
        "dataset : {} users, {} items, {} ratings",
        base.num_users(),
        base.num_items(),
        base.num_ratings()
    );
    let dir = std::env::temp_dir().join(format!("kiff-client-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // First daemon: fresh directory, engine built from the dataset.
    let (daemon, addr) = spawn_daemon(&dir, &base);
    let mut client = Client::connect(&addr).expect("connect");
    client.ping().expect("ping");
    println!("connected to {addr}\n");

    // Queries: the same answers the in-process engines give.
    let neighbors = client.neighbors(0).expect("neighbors");
    println!(
        "user 0's top neighbours: {:?}",
        &neighbors[..neighbors.len().min(3)]
    );
    let recs = client.recommend(0, 3).expect("recommend");
    println!("user 0's recommendations: {recs:?}");
    if let Some((item, _)) = recs.first() {
        let p = client.predict(0, *item).expect("predict");
        println!("user 0's predicted rating of item {item}: {p:?}");
    }

    // A durable update: WAL-appended and fsynced before it is applied.
    let applied = client
        .update(&[Update::AddRating {
            user: 0,
            item: 1,
            rating: 5.0,
        }])
        .expect("update");
    let seq = client.snapshot().expect("snapshot");
    println!("\napplied {applied} update(s), forced a snapshot at seq {seq}");

    let stats = client.stats().expect("stats");
    println!(
        "stats   : {}",
        serde_json::to_string(&stats).expect("stats render")
    );
    let metrics = client.metrics().expect("metrics");
    let request_count = metrics
        .get("counters")
        .and_then(|c| c.get("serve.requests"))
        .cloned();
    println!("requests served so far (from telemetry): {request_count:?}");

    // Chaos interlude: kill the ack of the next write on the wire and
    // let the self-healing client ride it out. The batch carries a
    // client-assigned id, so when the ack dies after the daemon already
    // applied it, the retry dedupes against the WAL high-water mark
    // instead of double-applying.
    let mut healing =
        SelfHealingClient::connect(&[&addr], RetryPolicy::default()).expect("self-healing connect");
    fault::arm_scoped(points::NET_WRITE, Trigger::Nth(1), &addr);
    let ack = healing
        .update(&[Update::AddRating {
            user: 1,
            item: 2,
            rating: 4.0,
        }])
        .expect("update survives the torn connection");
    println!(
        "\nchaos   : ack killed mid-flight; {} retr{}, {} reconnect(s), \
         batch {} (applied {})",
        healing.retries(),
        if healing.retries() == 1 { "y" } else { "ies" },
        healing.reconnects(),
        if ack.deduped {
            "deduped — first attempt had landed"
        } else {
            "applied on the retry"
        },
        ack.applied
    );
    assert!(
        healing.reconnects() >= 2,
        "the torn connection forced a redial past the first dial"
    );
    let health = healing.call(Client::health).expect("health");
    println!(
        "health  : {} at seq {:?}, batch high-water mark {}",
        health.status, health.seq, health.batch_hwm
    );
    fault::disarm(points::NET_WRITE);

    // Stop the daemon, then recover a second one from the same
    // directory: the update streamed above is still there.
    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon thread").expect("clean exit");
    println!("\ndaemon stopped; restarting from {}", dir.display());
    let (daemon, addr) = spawn_daemon(&dir, &base);
    let mut client = Client::connect(&addr).expect("reconnect");
    let stats = client.stats().expect("stats");
    println!(
        "recovered daemon resumes at seq {:?}",
        stats.get("seq").cloned()
    );
    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon thread").expect("clean exit");
    std::fs::remove_dir_all(&dir).ok();
}
