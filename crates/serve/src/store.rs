//! Durable engine state: the WAL + snapshot lifecycle in one place.
//!
//! The daemon's write path is *log → apply → (occasionally) snapshot*:
//!
//! 1. [`Store::append`] persists an update batch to the WAL before the
//!    engine applies it.
//! 2. After [`Store::threshold`] updates have accumulated since the last
//!    snapshot, [`Store::maybe_snapshot`] freezes the engine (dataset,
//!    graph, counters) into a `snap-*.kifs` file and prunes WAL segments
//!    the snapshot now covers.
//! 3. [`recover`] reverses the process: load the newest snapshot, replay
//!    the WAL tail (`seq > snapshot.seq`), and hand back a live engine
//!    plus a store positioned to continue the sequence.
//!    [`recover_or_seed`] is the same recovery with the seed made on
//!    demand, for callers that would rather not load it over a snapshot.
//!
//! Because the online engine is deterministic under replay (heap
//! evolution has a total tie-break order, and mutate's candidate
//! truncation is id-stable), *snapshot + tail replay produces exactly
//! the state of an uninterrupted run* — `tests/serve_recovery.rs` proves
//! this property over arbitrary streams and snapshot points.

use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

use kiff_core::KiffError;
use kiff_dataset::Dataset;
use kiff_graph::KnnGraph;
use kiff_online::{KnnEngine, OnlineConfig, ShardConfig, ShardedOnlineKnn, Update};
use kiff_telemetry::{Gauge, Registry};

use crate::snapshot::{latest_snapshot, load_snapshot, save_snapshot};
use crate::wal::Wal;

/// Persistence knobs.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Directory holding `wal-*.log` segments and `snap-*.kifs` files.
    pub dir: PathBuf,
    /// Take a snapshot every this many updates (`0` = only on demand).
    pub snapshot_every: u64,
}

impl StoreConfig {
    /// Defaults for `dir`: snapshot every 10 000 updates. WAL segments
    /// rotate at [`DEFAULT_SEGMENT_BYTES`](crate::wal::DEFAULT_SEGMENT_BYTES).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            snapshot_every: 10_000,
        }
    }

    /// Sets the automatic snapshot interval (`0` disables it).
    pub fn with_snapshot_every(mut self, updates: u64) -> Self {
        self.snapshot_every = updates;
        self
    }
}

/// A live WAL plus the snapshot bookkeeping around it.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    wal: Wal,
    snapshot_every: u64,
    last_snapshot_seq: u64,
    batch_hwm: u64,
    epoch: u64,
    last_append_at: Instant,
    last_snapshot_at: Instant,
    /// `store.seq`, resolved at construction: every append sets it.
    seq: Gauge,
    telemetry: Registry,
}

/// What [`Store::append`] did with a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Appended {
    /// The batch was durably logged; the engine must now apply it.
    Applied {
        /// Sequence number of the batch's last update.
        seq: u64,
    },
    /// The batch id was at or below the applied high-water mark — a
    /// client retry of a batch that already landed. The engine must
    /// *not* apply it again.
    Duplicate {
        /// The store's current sequence, unchanged.
        seq: u64,
    },
}

/// What [`recover`] reconstructed.
pub struct Recovered {
    /// The live engine, positioned exactly where the stream left off.
    pub engine: Box<dyn KnnEngine>,
    /// A store continuing the same WAL sequence.
    pub store: Store,
    /// Sequence of the snapshot recovery started from (`None` = none).
    pub snapshot_seq: Option<u64>,
    /// WAL updates replayed on top of the snapshot (or the seed).
    pub replayed: u64,
    /// Whether the WAL tail was cut short by a torn or corrupt record.
    pub truncated: bool,
    /// Replication leadership epoch recovered from the snapshot (0 when
    /// the daemon never participated in a failover).
    pub epoch: u64,
}

/// The engine for `dataset`: restored from `graph` plus exported
/// counters when the snapshot carries them, recounted when it predates
/// them, and built with KIFF when there is no graph yet.
fn build_engine(
    dataset: &Dataset,
    graph: Option<&KnnGraph>,
    counters: Option<Vec<Vec<(u32, u32)>>>,
    config: OnlineConfig,
    shards: ShardConfig,
) -> Result<Box<dyn KnnEngine>, KiffError> {
    Ok(Box::new(match (graph, counters) {
        (Some(g), Some(rows)) => ShardedOnlineKnn::from_snapshot(dataset, g, rows, config, shards)?,
        (Some(g), None) => ShardedOnlineKnn::from_graph(dataset, g, config, shards),
        (None, _) => ShardedOnlineKnn::new(dataset, config, shards),
    }))
}

/// Rebuilds a live engine from the newest snapshot in `cfg.dir` plus the
/// WAL tail past it. When the directory holds no snapshot, the engine
/// starts from `seed` (and `seed_graph`, when one was prebuilt) and the
/// *whole* WAL is replayed on top — the seed is the state WAL sequence
/// numbers count from, so it must be the same dataset the daemon was
/// first started with. `shards` defaults to one shard.
pub fn recover(
    cfg: &StoreConfig,
    seed: &Dataset,
    seed_graph: Option<&KnnGraph>,
    config: OnlineConfig,
    shards: Option<ShardConfig>,
) -> Result<Recovered, KiffError> {
    recover_or_seed(
        cfg,
        |config, shards| build_engine(seed, seed_graph, None, config, shards),
        config,
        shards,
    )
}

/// [`recover`] with the seed engine made on demand: `seed` runs only when
/// `cfg.dir` holds no snapshot, so a restart over a snapshot never loads
/// or builds the state the directory was first started from. `seed`
/// receives the engine configuration and the shard layout (one shard
/// when `shards` is `None`).
pub fn recover_or_seed<E: From<KiffError>>(
    cfg: &StoreConfig,
    seed: impl FnOnce(OnlineConfig, ShardConfig) -> Result<Box<dyn KnnEngine>, E>,
    config: OnlineConfig,
    shards: Option<ShardConfig>,
) -> Result<Recovered, E> {
    let telemetry = config.telemetry.clone();
    let shards = shards.unwrap_or_else(|| ShardConfig::new(1));
    let (mut engine, after_seq, snapshot_seq, snapshot_hwm, epoch) =
        match latest_snapshot(&cfg.dir)? {
            Some((seq, path)) => {
                let snap = load_snapshot(&path)?;
                let engine = build_engine(
                    &snap.dataset,
                    Some(&snap.graph),
                    snap.counters,
                    config,
                    shards,
                )?;
                (engine, seq, Some(seq), snap.batch_hwm, snap.epoch)
            }
            None => (seed(config, shards)?, 0, None, 0, 0),
        };

    let replay = Wal::replay(&cfg.dir, after_seq, &telemetry)?;
    let replayed = replay.updates.len() as u64;
    let (next_seq, truncated) = (replay.next_seq, replay.truncated);
    // The dedup mark must survive both paths: WAL pruning (snapshot hwm)
    // and snapshots that predate the latest committed batches (replay
    // hwm). Take the max.
    let batch_hwm = snapshot_hwm.max(replay.batch_hwm);
    // Re-apply with the *original* batch boundaries: repair is amortised
    // per batch, so the boundaries are part of the replayed state.
    for batch in replay.batches() {
        engine.apply_batch(batch);
    }
    let wal = Wal::open(&cfg.dir, next_seq, telemetry.clone())?;
    let seq = telemetry.gauge("store.seq");
    seq.set((next_seq - 1) as i64);
    Ok(Recovered {
        engine,
        store: Store {
            dir: cfg.dir.clone(),
            wal,
            snapshot_every: cfg.snapshot_every,
            last_snapshot_seq: after_seq,
            batch_hwm,
            epoch,
            last_append_at: Instant::now(),
            last_snapshot_at: Instant::now(),
            seq,
            telemetry,
        },
        snapshot_seq,
        replayed,
        truncated,
        epoch,
    })
}

impl Store {
    /// The sequence number of the last persisted update (0 = none yet).
    pub fn seq(&self) -> u64 {
        self.wal.next_seq() - 1
    }

    /// The automatic snapshot interval (`0` = manual only).
    pub fn threshold(&self) -> u64 {
        self.snapshot_every
    }

    /// The persistence directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Highest client-assigned batch id applied so far (0 = none).
    pub fn batch_hwm(&self) -> u64 {
        self.batch_hwm
    }

    /// The replication leadership epoch this store last persisted.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Adopts a new leadership epoch. The caller (promotion, or a
    /// replica following a newer primary) should snapshot soon after so
    /// the fence survives a restart; until then the epoch lives only in
    /// memory.
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
        self.telemetry.gauge("store.epoch").set(epoch as i64);
    }

    /// Whether a failed append has poisoned the WAL (writes must be
    /// refused until [`Store::reopen_wal`] succeeds).
    pub fn is_poisoned(&self) -> bool {
        self.wal.is_poisoned()
    }

    /// The WAL's live poisoned flag (see [`Store::is_poisoned`]).
    pub(crate) fn poisoned_flag(&self) -> Arc<AtomicBool> {
        self.wal.poisoned_flag()
    }

    /// Attempts to heal a poisoned WAL (see [`Wal::reopen`]).
    pub fn reopen_wal(&mut self) -> Result<(), KiffError> {
        self.wal.reopen()
    }

    /// Seconds since the last successful WAL append (or recovery).
    pub fn wal_age_secs(&self) -> u64 {
        self.last_append_at.elapsed().as_secs()
    }

    /// Seconds since the last snapshot (or recovery).
    pub fn snapshot_age_secs(&self) -> u64 {
        self.last_snapshot_at.elapsed().as_secs()
    }

    /// Durably appends `updates` to the WAL (one fsync), *before* they
    /// are applied to the engine.
    ///
    /// `batch_id` is the client-assigned id (0 = none): ids at or below
    /// the applied high-water mark are retries of batches that already
    /// landed and come back as [`Appended::Duplicate`] without touching
    /// the log — the idempotence half of the self-healing client.
    pub fn append(&mut self, updates: &[Update], batch_id: u64) -> Result<Appended, KiffError> {
        if batch_id != 0 && batch_id <= self.batch_hwm {
            self.telemetry.counter("store.deduped").incr();
            return Ok(Appended::Duplicate { seq: self.seq() });
        }
        let seq = self.wal.append_batch(updates, batch_id)?;
        self.batch_hwm = self.batch_hwm.max(batch_id);
        self.last_append_at = Instant::now();
        self.seq.set(seq as i64);
        Ok(Appended::Applied { seq })
    }

    /// Whether the WAL holds updates not yet covered by a snapshot.
    pub fn dirty(&self) -> bool {
        self.seq() > self.last_snapshot_seq
    }

    /// Whether enough updates accumulated since the last snapshot.
    pub fn should_snapshot(&self) -> bool {
        self.snapshot_every > 0 && self.seq() - self.last_snapshot_seq >= self.snapshot_every
    }

    /// Snapshots `engine` at the current sequence and prunes WAL
    /// segments the snapshot covers. The engine must have applied
    /// everything appended so far.
    pub fn snapshot(&mut self, engine: &dyn KnnEngine) -> Result<PathBuf, KiffError> {
        let seq = self.seq();
        // The engine's cached captures, free when a view was just
        // published; the ratings are materialised once, here.
        let dataset = engine.dataset().to_dataset();
        let graph = engine.graph();
        let counters = engine.counters_snapshot();
        let path = save_snapshot(
            &self.dir,
            seq,
            self.batch_hwm,
            self.epoch,
            &dataset,
            &graph,
            Some(&counters),
        )?;
        self.last_snapshot_seq = seq;
        self.last_snapshot_at = Instant::now();
        self.wal.prune(seq)?;
        self.telemetry.counter("snapshot.saved").incr();
        self.telemetry.gauge("snapshot.seq").set(seq as i64);
        Ok(path)
    }

    /// Runs [`Store::snapshot`] when [`Store::should_snapshot`] says so.
    pub fn maybe_snapshot(&mut self, engine: &dyn KnnEngine) -> Result<Option<PathBuf>, KiffError> {
        if self.should_snapshot() {
            self.snapshot(engine).map(Some)
        } else {
            Ok(None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kiff_dataset::dataset::figure2_toy;
    use kiff_online::OnlineKnn;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("kiff-store-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    fn stream() -> Vec<Update> {
        let mut updates = vec![Update::AddUser];
        for i in 0..20u32 {
            updates.push(Update::AddRating {
                user: i % 5,
                item: (i * 3) % 7,
                rating: 1.0 + (i % 4) as f32,
            });
        }
        updates.push(Update::RemoveRating { user: 0, item: 0 });
        updates
    }

    fn graphs_equal(a: &KnnGraph, b: &KnnGraph) -> bool {
        a == b
    }

    #[test]
    fn snapshot_plus_tail_equals_uninterrupted_replay() {
        let dir = tmp("equiv");
        let seed = figure2_toy();
        let stream = stream();

        // Uninterrupted reference run, applied with the same batch
        // boundaries the persisted run will log (repair is amortised per
        // batch, so boundaries are part of the state).
        let mut reference = OnlineKnn::new(&seed, OnlineConfig::new(2));
        for chunk in stream.chunks(4) {
            reference.apply_batch(chunk.to_vec());
        }

        // Persisted run: append + apply in small batches, snapshot at an
        // arbitrary point in the middle.
        let cfg = StoreConfig::new(&dir).with_snapshot_every(0);
        let rec = recover(&cfg, &seed, None, OnlineConfig::new(2), None).unwrap();
        let (mut engine, mut store) = (rec.engine, rec.store);
        for (i, chunk) in stream.chunks(4).enumerate() {
            store.append(chunk, 0).unwrap();
            engine.apply_batch(chunk.to_vec());
            if i == 2 {
                store.snapshot(engine.as_ref()).unwrap();
            }
        }
        drop((engine, store));

        // Recover: snapshot + WAL tail must equal the reference exactly.
        let rec = recover(&cfg, &seed, None, OnlineConfig::new(2), None).unwrap();
        assert_eq!(rec.snapshot_seq, Some(12));
        assert_eq!(rec.replayed, stream.len() as u64 - 12);
        assert!(!rec.truncated);
        assert!(
            graphs_equal(&rec.engine.graph(), &reference.graph()),
            "recovered graph diverged from the uninterrupted run"
        );
        assert_eq!(rec.engine.len(), reference.num_users());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn automatic_snapshots_fire_on_threshold() {
        let dir = tmp("auto");
        let seed = figure2_toy();
        let cfg = StoreConfig::new(&dir).with_snapshot_every(8);
        let rec = recover(&cfg, &seed, None, OnlineConfig::new(2), None).unwrap();
        let (mut engine, mut store) = (rec.engine, rec.store);
        let stream = stream();
        let mut snapped = 0;
        for chunk in stream.chunks(3) {
            store.append(chunk, 0).unwrap();
            engine.apply_batch(chunk.to_vec());
            if store.maybe_snapshot(engine.as_ref()).unwrap().is_some() {
                snapped += 1;
            }
        }
        assert!(snapped >= 2, "snapshots fired {snapped} times");
        assert!(!store.should_snapshot());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn epoch_persists_through_snapshot_and_recovery() {
        let dir = tmp("epoch");
        let seed = figure2_toy();
        let cfg = StoreConfig::new(&dir).with_snapshot_every(0);
        let rec = recover(&cfg, &seed, None, OnlineConfig::new(2), None).unwrap();
        assert_eq!(rec.epoch, 0, "fresh stores start at epoch 0");
        let (mut engine, mut store) = (rec.engine, rec.store);
        let stream = stream();
        store.append(&stream, 1).unwrap();
        engine.apply_batch(stream.clone());
        store.set_epoch(3);
        store.snapshot(engine.as_ref()).unwrap();
        drop((engine, store));

        let rec = recover(&cfg, &seed, None, OnlineConfig::new(2), None).unwrap();
        assert_eq!(rec.epoch, 3, "promotion epoch survives restart");
        assert_eq!(rec.store.epoch(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sharded_engines_recover_through_snapshots_too() {
        let dir = tmp("sharded");
        let seed = figure2_toy();
        let cfg = StoreConfig::new(&dir).with_snapshot_every(0);
        let shards = Some(ShardConfig::new(2));
        let rec = recover(&cfg, &seed, None, OnlineConfig::new(2), shards.clone()).unwrap();
        let (mut engine, mut store) = (rec.engine, rec.store);
        let stream = stream();
        for (i, chunk) in stream.chunks(4).enumerate() {
            store.append(chunk, 0).unwrap();
            engine.apply_batch(chunk.to_vec());
            if i == 2 {
                store.snapshot(engine.as_ref()).unwrap();
            }
        }
        let expected = engine.graph();
        drop((engine, store));

        let snap = load_snapshot(&latest_snapshot(&dir).unwrap().unwrap().1).unwrap();
        assert!(snap.counters.is_some(), "sharded snapshots carry counters");
        let rec = recover(&cfg, &seed, None, OnlineConfig::new(2), shards).unwrap();
        assert_eq!(rec.snapshot_seq, Some(12));
        assert_eq!(rec.replayed, stream.len() as u64 - 12);
        assert_eq!(rec.engine.graph().as_ref(), expected.as_ref());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
