#![warn(missing_docs)]

//! `kiff-serve`: a query daemon with WAL + snapshot persistence.
//!
//! Everything below PR 6 answered queries in-process; this crate puts
//! the live engines behind a socket and a disk. The moving parts:
//!
//! | Module | Contents |
//! |--------|----------|
//! | [`wire`] | length-prefixed JSON frames, [`wire::Request`], update codec |
//! | [`wal`]  | append-only log of updates, CRC-checked, segment-rotated |
//! | [`snapshot`] | atomic point-in-time dumps of dataset + graph + counters |
//! | [`store`] | the WAL + snapshot lifecycle; [`store::recover`] |
//! | [`server`] | the TCP daemon: [`server::Server`], [`server::EngineHost`], degraded mode, load shedding |
//! | [`client`] | the blocking [`client::Client`] with the typed helpers, and [`client::SelfHealingClient`], the one retrying client for a daemon or a replication group |
//! | [`replication`] | primary/replica WAL shipping, epoch fencing, automatic failover |
//!
//! The durability contract: an acknowledged update is on disk (WAL,
//! fsynced per batch) before it is applied, and recovery — newest
//! snapshot plus WAL tail — reproduces the engine an uninterrupted run
//! would have had, *exactly*: the online engine's repair is
//! deterministic under replay, and because repair is amortised *per
//! batch*, the WAL marks each append's first record so recovery
//! re-applies the tail with the original batch boundaries. Batches are
//! atomic — each carries a commit marker on its last record, and a torn
//! tail (crash or failed fsync mid-append) drops the whole uncommitted
//! batch, never a prefix. An *un*acknowledged batch is therefore never
//! half-applied, and a retried batch (client-assigned id, deduped
//! against the applied high-water mark) is never double-applied.
//!
//! The fault-tolerance contract on top of it: a WAL failure flips the
//! daemon into read-only degraded mode — queries keep serving, writes
//! return typed `Unavailable`, a background task heals the WAL and
//! flips back — and overload sheds with typed `Overloaded` instead of
//! queueing unboundedly. `tests/serve_faults.rs` drives proptest fault
//! schedules (via [`kiff_core::fault`]) through live daemons to prove
//! recovered state stays bit-exact and no batch applies twice.
//!
//! ```no_run
//! use kiff_online::{KnnEngine, OnlineConfig, OnlineKnn};
//! use kiff_serve::server::{EngineHost, Server};
//! use kiff_serve::store::{recover, StoreConfig};
//! use kiff_telemetry::Registry;
//!
//! let seed = kiff_dataset::dataset::figure2_toy();
//! let registry = Registry::new();
//! let config = OnlineConfig::new(2).with_telemetry(registry.clone());
//! let rec = recover(&StoreConfig::new("/var/lib/kiff"), &seed, None, config, None)?;
//! let host = EngineHost::new(rec.engine, Some(rec.store), registry);
//! let server = Server::bind("127.0.0.1:7407", host)?;
//! println!("serving on {}", server.local_addr());
//! server.run()?; // blocks until a client sends `shutdown`
//! # Ok::<(), kiff_core::KiffError>(())
//! ```

pub mod client;
pub mod replication;
pub mod server;
pub mod snapshot;
pub mod store;
pub mod wal;
pub mod wire;

pub use client::{Client, Health, RetryPolicy, SelfHealingClient, UpdateAck};
pub use replication::{ReplState, ReplicationConfig, Role};
pub use server::{EngineHost, ServeView, Server, ServerConfig};
pub use snapshot::{latest_snapshot, load_snapshot, save_snapshot, Snapshot};
pub use store::{recover, recover_or_seed, Appended, Recovered, Store, StoreConfig};
pub use wal::{Wal, WalReplay};
pub use wire::Request;
