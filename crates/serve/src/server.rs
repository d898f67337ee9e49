//! The TCP daemon: accept loop, per-connection workers, request
//! dispatch, graceful degradation, and shutdown.
//!
//! One [`EngineHost`] owns the engine and its persistence behind a
//! mutex: the engines are `&mut`-update structures, so the daemon
//! serialises *writes* rather than pretending to share them. Queries
//! never touch that mutex: after every applied batch the host captures
//! a [`ServeView`] — an immutable graph + ratings snapshot tagged with
//! the batch version — and publishes it through an epoch cell
//! ([`kiff_parallel::ViewCell`]). Connection workers answer
//! `neighbors` / `recommend` / `predict` / `audience` / `search` /
//! `stats` from the view they load with one atomic epoch check
//! (`serve.read_wait_ns` measures the load; it stays ~0 even while a
//! batch is mid-apply), so one slow `apply_batch` no longer stalls
//! every reader. `update` / `snapshot` / `health` / `shutdown` keep
//! the serialized path; `serve.view_age_batches` reports how far the
//! published view trails the write epoch (1 while a batch is
//! in-flight, 0 otherwise).
//!
//! # Graceful degradation
//!
//! A WAL append or fsync failure must not take queries down with it —
//! the live engine is untouched and the failed batch was never
//! acknowledged. The daemon instead enters **read-only degraded mode**:
//! queries keep serving, writes come back as a typed
//! [`KiffError::Unavailable`], and a background recovery thread retries
//! [`Store::reopen_wal`] until the disk accepts an fsync again, flipping
//! the daemon back to healthy. The `health` op reports the current
//! state (`healthy | degraded | recovering`) plus sequence, applied-
//! batch high-water mark, and WAL/snapshot ages.
//!
//! # Overload shedding
//!
//! [`ServerConfig::max_inflight`] bounds concurrently processed
//! requests; beyond it the daemon answers [`KiffError::Overloaded`]
//! immediately (counted in `serve.shed`) instead of queueing without
//! bound on the host mutex. Shed responses are cheap — no engine lock
//! is touched — so a saturated daemon stays responsive enough to tell
//! clients to back off.
//!
//! Shutdown is cooperative: the `shutdown` op flips an atomic flag,
//! and the flipping connection pokes the accept loop with a throwaway
//! connect so it observes the flag without waiting for a real client.
//! Connection readers poll the flag between 100 ms read timeouts and
//! drain their in-flight request before exiting; `run` joins every
//! worker. On a graceful exit the host takes a final snapshot when the
//! WAL has advanced past the last one.
//!
//! The `net.read` / `net.write` failpoints ([`kiff_core::fault`]) fire
//! here, scoped by the listener address; a fired point kills only that
//! connection, exactly like a real peer reset.

use std::cell::Cell;
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use kiff_apps::{GraphSearcher, ProfileMetric, QueryProfile, Recommender};
use kiff_core::fault::{self, points};
use kiff_core::KiffError;
use kiff_online::{KnnEngine, ReadView, Update};
use kiff_parallel::{ViewCache, ViewCell};
use kiff_telemetry::{Counter, Gauge, Histogram, Registry};
use serde_json::Value;

use crate::replication::{self, ReplState, ReplicationConfig, Role};
use crate::store::{Appended, Store};
use crate::wire::{self, Request};

const READ_POLL: Duration = Duration::from_millis(100);
/// Per-connection write timeout: a client that stops draining its
/// socket is disconnected instead of wedging a worker (and the response
/// buffer) forever.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum concurrently processed requests before shedding
    /// (`0` = unbounded).
    pub max_inflight: usize,
    /// How often the degraded-mode recovery thread retries the WAL.
    pub recovery_interval: Duration,
    /// Primary/replica WAL shipping (`None` = standalone daemon). See
    /// [`crate::replication`].
    pub replication: Option<ReplicationConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_inflight: 0,
            recovery_interval: Duration::from_millis(50),
            replication: None,
        }
    }
}

/// One published, immutable serving snapshot: everything the read ops
/// answer from, tagged with the write version it reflects.
///
/// The host publishes a fresh `ServeView` (through a
/// [`kiff_parallel::ViewCell`]) after every applied batch; readers load
/// the current one with a single atomic epoch check and keep it alive
/// for the duration of a request — snapshot isolation with a staleness
/// bound of the one batch currently mid-apply.
#[derive(Debug, Clone)]
pub struct ServeView {
    /// The engine snapshot: graph, captured ratings, `k`, stats.
    pub view: ReadView,
    /// Last persisted sequence at capture (`None` without a store).
    pub seq: Option<u64>,
    /// Write-epoch version: the number of applied batches this view
    /// reflects. Strictly monotone across publishes, echoed as the
    /// `"view"` field on every view-served response.
    pub version: u64,
}

/// The engine, its persistence, and the published read view.
pub struct EngineHost {
    engine: Box<dyn KnnEngine>,
    store: Option<Store>,
    telemetry: Registry,
    /// The published read view; shared with every connection worker.
    views: Arc<ViewCell<ServeView>>,
    /// Batches applied (bumped before each `apply_batch`); the gap to
    /// the published view's version is `serve.view_age_batches`.
    write_epoch: Arc<AtomicU64>,
    /// Version of the last view published (writer-private mirror).
    last_published: u64,
    view_age: Gauge,
    read_only: bool,
    /// True while the recovery thread has a reopen attempt in flight —
    /// the `recovering` leg of the health tristate.
    recovering: Arc<AtomicBool>,
    /// Replication state when the daemon is part of a group; gates the
    /// write path on role and publishes committed batches.
    repl: Option<Arc<ReplState>>,
    /// The write path's stages after the WAL's own (`wal.append_ns`,
    /// `wal.fsync_ns`), resolved at construction.
    stages: WriteStages,
}

/// `serve.publish_ns` (capture plus publish of each post-apply view),
/// `serve.repl_wait_ns` (each semi-synchronous replication wait, only
/// when replicating) and `serve.snapshot_ns` (each snapshot the host
/// takes).
struct WriteStages {
    publish_ns: Histogram,
    repl_wait_ns: Histogram,
    snapshot_ns: Histogram,
}

impl WriteStages {
    fn new(telemetry: &Registry) -> Self {
        Self {
            publish_ns: telemetry.histogram("serve.publish_ns"),
            repl_wait_ns: telemetry.histogram("serve.repl_wait_ns"),
            snapshot_ns: telemetry.histogram("serve.snapshot_ns"),
        }
    }
}

impl EngineHost {
    /// Wraps `engine` (and optionally its durable `store`) for serving.
    /// Publishes the initial read view (version 0) immediately, so
    /// queries can serve before — and during — the first write.
    pub fn new(engine: Box<dyn KnnEngine>, store: Option<Store>, telemetry: Registry) -> Self {
        let seq = store.as_ref().map(Store::seq);
        let initial = ServeView {
            view: engine.read_view(),
            seq,
            version: 0,
        };
        let view_age = telemetry.gauge("serve.view_age_batches");
        Self {
            engine,
            store,
            stages: WriteStages::new(&telemetry),
            telemetry,
            views: Arc::new(ViewCell::new(Arc::new(initial))),
            write_epoch: Arc::new(AtomicU64::new(0)),
            last_published: 0,
            view_age,
            read_only: false,
            recovering: Arc::new(AtomicBool::new(false)),
            repl: None,
        }
    }

    /// The shared view cell readers load from (cloned into the server's
    /// shared state at bind time; also the in-process read handle tests
    /// and embedded readers use).
    pub fn view_handle(&self) -> Arc<ViewCell<ServeView>> {
        Arc::clone(&self.views)
    }

    /// Marks the start of one batch apply: bumps the write epoch so
    /// `serve.view_age_batches` reads 1 until the post-apply publish.
    fn begin_batch(&mut self) -> u64 {
        let epoch = self.write_epoch.fetch_add(1, Ordering::AcqRel) + 1;
        self.view_age.set((epoch - self.last_published) as i64);
        epoch
    }

    /// Captures the engine's current state and atomically publishes it
    /// as the serving view. Called with the host lock held (writes are
    /// serialized), after every mutation, *before* the client ack — an
    /// acknowledged write is visible to the very next read.
    fn publish_view(&mut self) -> u64 {
        let _span = self.stages.publish_ns.span();
        let version = self.write_epoch.load(Ordering::Acquire);
        let view = ServeView {
            view: self.engine.read_view(),
            seq: self.store.as_ref().map(Store::seq),
            version,
        };
        self.views.publish(Arc::new(view));
        self.last_published = version;
        self.view_age.set(0);
        version
    }

    /// Snapshots the engine into the store (a no-op without one), timed
    /// in `serve.snapshot_ns`.
    fn snapshot(&mut self) -> Result<(), KiffError> {
        if let Some(store) = &mut self.store {
            let _span = self.stages.snapshot_ns.span();
            store.snapshot(self.engine.as_ref())?;
        }
        Ok(())
    }

    /// Snapshots the engine when the store's interval says so, timing
    /// the snapshot in `serve.snapshot_ns` when one is taken.
    fn maybe_snapshot(&mut self) -> Result<(), KiffError> {
        if let Some(store) = &mut self.store {
            let started = Instant::now();
            if store.maybe_snapshot(self.engine.as_ref())?.is_some() {
                let nanos = started.elapsed().as_nanos() as u64;
                self.stages.snapshot_ns.record(nanos);
            }
        }
        Ok(())
    }

    /// Installs replication state (done by [`Server::bind_with`] when
    /// [`ServerConfig::replication`] is set).
    pub(crate) fn set_replication(&mut self, repl: Arc<ReplState>) {
        self.repl = Some(repl);
    }

    /// Last persisted sequence (0 without a store).
    pub(crate) fn store_seq(&self) -> u64 {
        self.store.as_ref().map_or(0, Store::seq)
    }

    /// The store's data directory, for lock-free WAL catch-up reads.
    pub(crate) fn store_dir(&self) -> Option<PathBuf> {
        self.store.as_ref().map(|s| s.dir().to_path_buf())
    }

    /// The store's current leadership epoch (0 without a store).
    pub(crate) fn store_epoch(&self) -> u64 {
        self.store.as_ref().map_or(0, Store::epoch)
    }

    /// Applies one replicated batch from the primary's stream: seq
    /// continuity is enforced (a gap closes the stream so the primary
    /// redials and catches up), duplicates from the catch-up overlap
    /// are acked without re-applying, and everything else goes through
    /// the same WAL-then-engine path as a local write. Returns the
    /// applied sequence.
    pub(crate) fn apply_replicated(
        &mut self,
        first_seq: u64,
        batch_id: u64,
        updates: &[Update],
    ) -> Result<u64, KiffError> {
        if updates.is_empty() {
            return Ok(self.store_seq());
        }
        let seq = self.store_seq();
        let last = first_seq + updates.len() as u64 - 1;
        if last <= seq {
            return Ok(seq);
        }
        if first_seq != seq + 1 {
            return Err(KiffError::Protocol(format!(
                "replication gap: batch starts at {first_seq}, applied through {seq}"
            )));
        }
        let store = self
            .store
            .as_mut()
            .ok_or_else(|| KiffError::Protocol("replication requires a data dir".into()))?;
        let seq = match store.append(updates, batch_id)? {
            Appended::Applied { seq } => seq,
            Appended::Duplicate { seq } => return Ok(seq),
        };
        self.begin_batch();
        self.engine.apply_batch(updates.to_vec());
        self.maybe_snapshot()?;
        // Replica reads serve the shipped state as soon as it lands.
        self.publish_view();
        Ok(seq)
    }

    /// The epoch fence: persists `epoch` in a snapshot *before* the
    /// caller acts under it — a promoted replica before it acknowledges
    /// a write, a demoted primary or a replica before it applies a newer
    /// leader's stream — so the old primary's frames stay rejected even
    /// across a restart.
    pub(crate) fn promote(&mut self, epoch: u64) -> Result<(), KiffError> {
        let store = self
            .store
            .as_mut()
            .ok_or_else(|| KiffError::Protocol("replication requires a data dir".into()))?;
        store.set_epoch(epoch);
        self.snapshot()
    }

    /// Marks the host permanently read-only: queries serve, every write
    /// is refused as `Unavailable`. The `--degraded-ok` fallback when
    /// persistence could not be opened at startup.
    pub fn read_only(mut self) -> Self {
        self.read_only = true;
        self
    }

    /// Read-only access to the engine (tests compare served answers
    /// against direct calls).
    pub fn engine(&self) -> &dyn KnnEngine {
        self.engine.as_ref()
    }

    /// Whether writes are currently refused (permanent read-only mode
    /// or a poisoned WAL awaiting recovery).
    pub fn is_degraded(&self) -> bool {
        self.read_only || self.store.as_ref().is_some_and(Store::is_poisoned)
    }

    fn health_status(&self) -> &'static str {
        if !self.is_degraded() {
            "healthy"
        } else if self.recovering.load(Ordering::SeqCst) {
            "recovering"
        } else {
            "degraded"
        }
    }

    fn unavailable(&self, op: &str) -> KiffError {
        let detail = if self.read_only {
            "daemon is read-only (started with --degraded-ok after a persistence failure)".into()
        } else {
            "wal is poisoned by a failed append; recovery in progress".to_string()
        };
        KiffError::Unavailable {
            op: op.into(),
            detail,
        }
    }

    /// Dispatches one request. `Shutdown` is handled by the connection
    /// loop before this point; it answers like `Ping` here.
    ///
    /// Read ops answer from the *published view* — the same code path
    /// the lock-free connection workers use — so in-process callers
    /// (the CLI, tests) observe exactly what a TCP reader would.
    pub fn handle(&mut self, request: &Request) -> Result<Value, KiffError> {
        match request {
            Request::Ping | Request::Shutdown => Ok(serde_json::json!({"ok": true})),
            Request::Neighbors { .. }
            | Request::Recommend { .. }
            | Request::Predict { .. }
            | Request::Audience { .. }
            | Request::Search { .. }
            | Request::Stats => {
                let view = self.views.load();
                answer_from_view(&view, request)
                    .expect("view-served ops are classified exhaustively")
            }
            Request::Update { updates, batch } => {
                if let Some(repl) = &self.repl {
                    if repl.role() != Role::Primary {
                        // Typed refusal with a leader hint so a
                        // failover-aware client can re-route instead of
                        // treating this as a dead end.
                        return Err(KiffError::NotPrimary {
                            leader: repl.leader_hint(),
                        });
                    }
                }
                if self.is_degraded() {
                    return Err(self.unavailable("update"));
                }
                let mut applied_seq = None;
                let seq = match &mut self.store {
                    Some(store) => match store.append(updates, *batch) {
                        Ok(Appended::Applied { seq }) => {
                            applied_seq = Some(seq);
                            Value::Number(seq as f64)
                        }
                        Ok(Appended::Duplicate { seq }) => {
                            // The batch already landed in a previous
                            // life; acknowledge without re-applying so a
                            // retried write is idempotent. It must still
                            // clear the same durability bar as a fresh
                            // apply: a write refused as under-replicated
                            // keeps failing on retry until enough
                            // replicas re-attach (the batch is in the
                            // WAL, so the reconnect handshake ships it).
                            if let Some(repl) = &self.repl {
                                repl.require_min_sync()?;
                            }
                            return Ok(serde_json::json!({
                                "ok": true,
                                "applied": 0,
                                "deduped": true,
                                "seq": Value::Number(seq as f64),
                                "view": Value::Number(self.last_published as f64)
                            }));
                        }
                        Err(e) => {
                            // The WAL is now poisoned; this and every
                            // following write is refused until the
                            // recovery thread heals it. The batch was
                            // never acknowledged, so the client retries
                            // it — nothing is lost.
                            self.telemetry.gauge("serve.degraded").set(1);
                            return Err(KiffError::Unavailable {
                                op: "update".into(),
                                detail: e.to_string(),
                            });
                        }
                    },
                    None => Value::Null,
                };
                self.begin_batch();
                let stats = self.engine.apply_batch(updates.clone());
                // Publish before the (possibly slow, possibly failing)
                // replication wait and ack: the local apply stands
                // either way, and readers see it immediately.
                let version = self.publish_view();
                if let (Some(repl), Some(last_seq)) =
                    (&self.repl, applied_seq.filter(|_| !updates.is_empty()))
                {
                    // Semi-synchronous shipping: the batch reaches every
                    // live replica (bounded wait per replica) before the
                    // client sees the ack, so an acked write survives
                    // losing the primary. Runs under the host mutex, so
                    // replicas receive batches in commit order. Under
                    // `min_sync_replicas` a batch short of the bar fails
                    // the write (retryable; the local apply stands and
                    // the retry dedups).
                    let first_seq = last_seq + 1 - updates.len() as u64;
                    let _span = self.stages.repl_wait_ns.span();
                    repl.publish_and_wait(first_seq, *batch, updates)?;
                }
                self.maybe_snapshot()?;
                Ok(serde_json::json!({
                    "ok": true,
                    "applied": stats.updates,
                    "seq": seq,
                    "sim_evals": stats.sim_evals,
                    "repaired_users": stats.repaired_users,
                    "view": Value::Number(version as f64)
                }))
            }
            Request::Health => {
                let (seq, hwm, wal_age, snap_age) = match &self.store {
                    Some(store) => (
                        Value::Number(store.seq() as f64),
                        Value::Number(store.batch_hwm() as f64),
                        Value::Number(store.wal_age_secs() as f64),
                        Value::Number(store.snapshot_age_secs() as f64),
                    ),
                    None => (Value::Null, Value::Number(0.0), Value::Null, Value::Null),
                };
                let mut body = serde_json::json!({
                    "ok": true,
                    "status": self.health_status(),
                    "seq": seq,
                    "batch_hwm": hwm,
                    "wal_age_secs": wal_age,
                    "snapshot_age_secs": snap_age
                });
                if let Some(repl) = &self.repl {
                    // Role, epoch, lag, and the replication address:
                    // everything a failover-aware client needs to find
                    // the leader and spread reads.
                    if let Value::Object(entries) = &mut body {
                        entries.push(("role".into(), Value::String(repl.role().as_str().into())));
                        entries.push(("epoch".into(), Value::Number(repl.epoch() as f64)));
                        entries.push((
                            "replication_lag_batches".into(),
                            Value::Number(repl.lag() as f64),
                        ));
                        entries.push(("repl_addr".into(), Value::String(repl.repl_addr().into())));
                    }
                }
                Ok(body)
            }
            Request::Metrics => metrics_value(&self.telemetry),
            Request::Snapshot => {
                if self.is_degraded() {
                    return Err(self.unavailable("snapshot"));
                }
                if self.store.is_none() {
                    return Err(KiffError::Protocol(
                        "daemon is running without a data dir; nothing to snapshot".into(),
                    ));
                }
                self.snapshot()?;
                Ok(serde_json::json!({"ok": true, "seq": self.store_seq()}))
            }
        }
    }

    /// One degraded-mode recovery attempt; returns whether the host is
    /// healthy afterwards.
    fn try_recover_wal(&mut self) -> bool {
        let Some(store) = &mut self.store else {
            return true;
        };
        if !store.is_poisoned() {
            self.telemetry.gauge("serve.degraded").set(0);
            return true;
        }
        self.telemetry.counter("serve.wal_recover_attempts").incr();
        if store.reopen_wal().is_ok() {
            self.telemetry.gauge("serve.degraded").set(0);
            true
        } else {
            false
        }
    }

    /// Final snapshot on graceful shutdown, when the WAL advanced.
    /// Skipped while degraded — everything committed is already durable
    /// in the WAL, and a poisoned store cannot prune safely anyway.
    fn final_snapshot(&mut self) -> Result<(), KiffError> {
        if self.is_degraded() || !self.store.as_ref().is_some_and(Store::dirty) {
            return Ok(());
        }
        self.snapshot()
    }
}

/// Renders the registry snapshot as the `metrics` response body. Pure
/// telemetry — never touches the host lock.
fn metrics_value(telemetry: &Registry) -> Result<Value, KiffError> {
    let text = kiff_telemetry::export::to_json(&telemetry.snapshot());
    let metrics: Value = serde_json::from_str(&text)
        .map_err(|e| KiffError::Protocol(format!("metrics render: {e}")))?;
    Ok(serde_json::json!({"ok": true, "metrics": metrics}))
}

/// Answers one view-served read op from `view` alone — no engine, no
/// lock, no I/O. Returns `None` for ops that need the host (writes,
/// health, snapshot, shutdown) or the registry (ping, metrics). Every
/// response carries the `"view"` version it was answered from, so
/// clients can assert read-your-writes and monotone reads.
fn answer_from_view(view: &ServeView, request: &Request) -> Option<Result<Value, KiffError>> {
    let version = Value::Number(view.version as f64);
    let answer = match request {
        Request::Neighbors { user } => view.view.neighbors(*user).map(|neighbors| {
            let neighbors: Vec<Value> = neighbors
                .iter()
                .map(|nb| serde_json::json!({"id": nb.id, "sim": nb.sim}))
                .collect();
            serde_json::json!({"ok": true, "neighbors": neighbors, "view": version})
        }),
        Request::Recommend { user, top } => Recommender::from_view(&view.view)
            .try_recommend(*user, *top)
            .map(|recs| {
                let recs: Vec<Value> = recs
                    .iter()
                    .map(|r| serde_json::json!({"item": r.item, "score": r.score}))
                    .collect();
                serde_json::json!({"ok": true, "recommendations": recs, "view": version})
            }),
        Request::Predict { user, item } => Recommender::from_view(&view.view)
            .try_predict(*user, *item)
            .map(|prediction| {
                let prediction = match prediction {
                    Some(p) => Value::Number(p),
                    None => Value::Null,
                };
                serde_json::json!({"ok": true, "prediction": prediction, "view": version})
            }),
        Request::Audience { item, top } => Recommender::from_view(&view.view)
            .try_audience(*item, *top)
            .map(|audience| {
                let audience: Vec<Value> = audience
                    .iter()
                    .map(|(u, score)| serde_json::json!({"user": *u, "score": *score}))
                    .collect();
                serde_json::json!({"ok": true, "audience": audience, "view": version})
            }),
        Request::Search { items, top } => {
            let searcher = GraphSearcher::from_view(&view.view, ProfileMetric::Cosine);
            let query = QueryProfile::new(items.iter().copied());
            let ef = (top * 4).max(40);
            searcher.try_search(&query, *top, ef).map(|hits| {
                let hits: Vec<Value> = hits
                    .iter()
                    .map(|h| serde_json::json!({"user": h.user, "sim": h.sim}))
                    .collect();
                serde_json::json!({"ok": true, "hits": hits, "view": version})
            })
        }
        Request::Stats => {
            let stats = &view.view.stats;
            let seq = match view.seq {
                Some(seq) => Value::Number(seq as f64),
                None => Value::Null,
            };
            Ok(serde_json::json!({
                "ok": true,
                "users": view.view.num_users(),
                "k": view.view.k,
                "seq": seq,
                "updates": stats.updates,
                "sim_evals": stats.sim_evals,
                "repaired_users": stats.repaired_users,
                "cross_messages": stats.cross_messages,
                "view": version
            }))
        }
        _ => return None,
    };
    Some(answer)
}

pub(crate) struct Shared {
    pub(crate) host: Mutex<EngineHost>,
    pub(crate) shutdown: AtomicBool,
    /// The published read view, shared with the host (the writer).
    /// Workers load it lock-free; the host mutex is never taken on the
    /// read path.
    pub(crate) views: Arc<ViewCell<ServeView>>,
    /// The store's WAL poisoned flag (never set without a store): the
    /// self-heal thread polls it without the host lock.
    wal_poisoned: Arc<AtomicBool>,
    /// The host's `recovering` flag, raised by the self-heal thread.
    recovering: Arc<AtomicBool>,
    inflight: AtomicUsize,
    config: ServerConfig,
    pub(crate) telemetry: Registry,
    /// `serve.request_ns.<op>`, resolved at bind.
    request_ns: RequestTimers,
    /// `serve.shed`, resolved at bind.
    shed: Counter,
    /// `serve.queue_depth`, `serve.requests`, `serve.errors` and
    /// `serve.read_wait_ns`, resolved at bind: a connection starts
    /// without a registry lookup.
    queue_depth: Gauge,
    requests: Counter,
    errors: Counter,
    read_wait: Histogram,
    /// `serve.connection_errors.<kind>`, resolved at bind.
    connection_errors: ConnectionErrors,
    addr: SocketAddr,
    net_ctx: String,
    pub(crate) repl: Option<Arc<ReplState>>,
}

/// `serve.request_ns.<op>` for every [`Request::OPS`] entry, plus
/// `invalid` for frames that never parsed. Resolved once when the server
/// binds, so the request loop records latencies without a registry
/// lookup (each lookup takes the registry's global mutex).
struct RequestTimers(Vec<(&'static str, Histogram)>);

impl RequestTimers {
    fn new(telemetry: &Registry) -> Self {
        let ops = Request::OPS.into_iter().chain(["invalid"]);
        Self(
            ops.map(|op| (op, telemetry.histogram(&format!("serve.request_ns.{op}"))))
                .collect(),
        )
    }

    fn get(&self, op: &str) -> &Histogram {
        let (_, timer) = self
            .0
            .iter()
            .find(|(name, _)| *name == op)
            .expect("every op has a timer");
        timer
    }
}

/// `serve.connection_errors.<kind>`: connections that ended in an error,
/// counted by [`KiffError::kind`] when their worker exits. A connection
/// ends in an error on a socket failure or an armed `net.*` failpoint
/// (`io`), or on a request frame it cannot read, torn or oversized
/// (`protocol`); any other kind would count as `other`.
struct ConnectionErrors {
    io: Counter,
    protocol: Counter,
    other: Counter,
}

impl ConnectionErrors {
    fn new(telemetry: &Registry) -> Self {
        let counter = |kind: &str| telemetry.counter(&format!("serve.connection_errors.{kind}"));
        Self {
            io: counter("io"),
            protocol: counter("protocol"),
            other: counter("other"),
        }
    }

    fn record(&self, err: &KiffError) {
        match err.kind() {
            "io" => &self.io,
            "protocol" => &self.protocol,
            _ => &self.other,
        }
        .incr();
    }
}

thread_local! {
    /// Whether this thread is answering from the lock-free view lane
    /// (only ever set in debug builds, see [`ViewLane`]).
    static IN_VIEW_LANE: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as answering from the lock-free view lane
/// until dropped. In debug builds [`Shared::lock_host`] asserts that the
/// mark is clear, so a read op that reaches for the host mutex fails
/// every debug run that drives it, whether or not a writer holds the
/// lock at that moment.
struct ViewLane;

impl ViewLane {
    fn enter() -> Self {
        if cfg!(debug_assertions) {
            IN_VIEW_LANE.with(|lane| lane.set(true));
        }
        ViewLane
    }
}

impl Drop for ViewLane {
    fn drop(&mut self) {
        if cfg!(debug_assertions) {
            IN_VIEW_LANE.with(|lane| lane.set(false));
        }
    }
}

impl Shared {
    pub(crate) fn lock_host(&self) -> std::sync::MutexGuard<'_, EngineHost> {
        debug_assert!(
            !IN_VIEW_LANE.with(Cell::get),
            "the lock-free view lane took the host lock"
        );
        // A worker that panicked while holding the lock (a bug, but one
        // that must not cascade) leaves the engine in a valid state:
        // handle() mutates through &mut with no partial commits visible
        // after unwind, so serving beats poisoning the whole daemon.
        self.host.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A bound, not-yet-running daemon.
pub struct Server {
    listener: TcpListener,
    repl_listener: Option<TcpListener>,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) with
    /// default [`ServerConfig`].
    pub fn bind(addr: &str, host: EngineHost) -> Result<Self, KiffError> {
        Self::bind_with(addr, host, ServerConfig::default())
    }

    /// Binds `addr` with explicit tuning knobs.
    pub fn bind_with(
        addr: &str,
        host: EngineHost,
        config: ServerConfig,
    ) -> Result<Self, KiffError> {
        let listener = TcpListener::bind(addr).map_err(KiffError::Io)?;
        Self::from_listener(listener, host, config)
    }

    /// Serves on an already bound `listener`. A replication group whose
    /// peer list must name every member's port up front binds all the
    /// listeners first, so no other socket can take a port between
    /// choosing it and serving on it.
    pub fn from_listener(
        listener: TcpListener,
        host: EngineHost,
        config: ServerConfig,
    ) -> Result<Self, KiffError> {
        let telemetry = host.telemetry.clone();
        let addr = listener.local_addr().map_err(KiffError::Io)?;
        let mut host = host;
        let (repl_listener, repl) = match &config.replication {
            Some(rc) => {
                if host.store.is_none() {
                    return Err(KiffError::Protocol(
                        "replication requires a data dir (the replica stream is WAL-backed)".into(),
                    ));
                }
                let repl_listener = TcpListener::bind(&rc.repl_listen).map_err(KiffError::Io)?;
                let repl_addr = repl_listener.local_addr().map_err(KiffError::Io)?;
                let state = Arc::new(ReplState::new(
                    rc.clone(),
                    repl_addr.to_string(),
                    addr.to_string(),
                    host.store_epoch(),
                    telemetry.clone(),
                ));
                host.set_replication(Arc::clone(&state));
                (Some(repl_listener), Some(state))
            }
            None => (None, None),
        };
        let views = host.view_handle();
        let wal_poisoned = host
            .store
            .as_ref()
            .map_or_else(Default::default, Store::poisoned_flag);
        let recovering = Arc::clone(&host.recovering);
        Ok(Self {
            listener,
            repl_listener,
            shared: Arc::new(Shared {
                host: Mutex::new(host),
                shutdown: AtomicBool::new(false),
                views,
                wal_poisoned,
                recovering,
                inflight: AtomicUsize::new(0),
                config,
                request_ns: RequestTimers::new(&telemetry),
                shed: telemetry.counter("serve.shed"),
                queue_depth: telemetry.gauge("serve.queue_depth"),
                requests: telemetry.counter("serve.requests"),
                errors: telemetry.counter("serve.errors"),
                read_wait: telemetry.histogram("serve.read_wait_ns"),
                connection_errors: ConnectionErrors::new(&telemetry),
                telemetry,
                addr,
                net_ctx: addr.to_string(),
                repl,
            }),
        })
    }

    /// The published read view cell: what connection workers answer
    /// read ops from. Exposed so embedded (in-process) readers can
    /// share the daemon's snapshots without a TCP round trip.
    pub fn view_handle(&self) -> Arc<ViewCell<ServeView>> {
        Arc::clone(&self.shared.views)
    }

    /// The actually bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The replication channel's bound address, when configured.
    pub fn repl_addr(&self) -> Option<SocketAddr> {
        self.repl_listener
            .as_ref()
            .and_then(|l| l.local_addr().ok())
    }

    /// Runs the accept loop until a client sends `shutdown`. Consumes
    /// the server; returns once every connection worker has drained.
    pub fn run(mut self) -> Result<(), KiffError> {
        let repl_threads = match self.repl_listener.take() {
            Some(listener) => replication::spawn_replication(&self.shared, listener),
            None => Vec::new(),
        };
        let recovery = {
            // Background self-healing: while the WAL is poisoned, retry
            // reopening it so the daemon flips back from degraded to
            // healthy without operator intervention. Polling reads the
            // shared flag: only a repair attempt takes the host lock.
            let shared = Arc::clone(&self.shared);
            std::thread::spawn(move || {
                while !shared.shutdown.load(Ordering::SeqCst) {
                    std::thread::sleep(shared.config.recovery_interval);
                    if !shared.wal_poisoned.load(Ordering::SeqCst) {
                        continue;
                    }
                    shared.recovering.store(true, Ordering::SeqCst);
                    shared.lock_host().try_recover_wal();
                    shared.recovering.store(false, Ordering::SeqCst);
                }
            })
        };
        let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        for stream in self.listener.incoming() {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            match stream {
                Ok(stream) => {
                    let shared = Arc::clone(&self.shared);
                    workers.push(std::thread::spawn(move || {
                        if let Err(e) = handle_connection(stream, &shared) {
                            shared.connection_errors.record(&e);
                        }
                    }));
                }
                Err(e) => {
                    if self.shared.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    return Err(KiffError::Io(e));
                }
            }
            workers.retain(|w| !w.is_finished());
        }
        for worker in workers {
            let _ = worker.join();
        }
        // Replication drains before the final snapshot: outbound
        // streaming threads flush every batch already acknowledged to a
        // client, then a bounded final pass re-dials any peer a torn
        // stream left lagging, so a graceful primary exit leaves no
        // acked write behind on its replicas.
        for thread in repl_threads {
            let _ = thread.join();
        }
        if let Some(repl) = &self.shared.repl {
            replication::final_drain(&self.shared, repl);
        }
        let _ = recovery.join();
        self.shared.lock_host().final_snapshot()
    }
}

/// RAII slot in the bounded in-flight window.
struct InflightSlot<'a>(&'a AtomicUsize);

impl Drop for InflightSlot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Claims an in-flight slot, or reports how oversubscribed the daemon
/// is. Claiming happens *before* waiting on the host mutex, so requests
/// queued behind a slow batch shed deterministically.
fn claim_slot(shared: &Shared) -> Result<InflightSlot<'_>, KiffError> {
    let inflight = shared.inflight.fetch_add(1, Ordering::SeqCst) + 1;
    let limit = shared.config.max_inflight;
    if limit > 0 && inflight > limit {
        shared.inflight.fetch_sub(1, Ordering::SeqCst);
        shared.shed.incr();
        return Err(KiffError::Overloaded { inflight, limit });
    }
    Ok(InflightSlot(&shared.inflight))
}

fn handle_connection(mut stream: TcpStream, shared: &Shared) -> Result<(), KiffError> {
    // Request/response framing is latency-bound, not throughput-bound:
    // without nodelay, Nagle holds small response frames for the
    // peer's delayed ACK (~40ms per request once quickack wears off).
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(READ_POLL))
        .map_err(KiffError::Io)?;
    stream
        .set_write_timeout(Some(WRITE_TIMEOUT))
        .map_err(KiffError::Io)?;
    // Per-connection view memo: in the steady state a read op costs one
    // atomic epoch check, no lock of any kind.
    let mut view_cache: ViewCache<ServeView> = ViewCache::new();

    loop {
        // An armed net.read failpoint kills the connection exactly like
        // a peer reset — the error stays connection-scoped.
        fault::check_ctx(points::NET_READ, &shared.net_ctx)?;
        let Some(value) = wire::read_request(&mut stream, &shared.shutdown)? else {
            return Ok(());
        };
        shared.requests.incr();
        // RAII: every exit between here and the end of this iteration —
        // shed, handler error, write timeout, even a panicking handler
        // unwinding the worker — lowers the gauge again. A bare
        // add(1)/add(-1) pair leaked on exactly those paths.
        let _depth = shared.queue_depth.raise(1);
        let started = Instant::now();
        let (response, op, shutdown) = match Request::from_value(&value) {
            Ok(request) => {
                let op = request.op();
                let shutdown = matches!(request, Request::Shutdown);
                let response = claim_slot(shared).and_then(|_slot| {
                    // Lock-free lane: answered from the published view
                    // (or pure telemetry) without touching the host
                    // mutex — a writer mid-`apply_batch` cannot stall
                    // these. The lane mark makes `lock_host` trip here.
                    let lane = ViewLane::enter();
                    match request {
                        Request::Ping => Ok(serde_json::json!({"ok": true})),
                        Request::Metrics => metrics_value(&shared.telemetry),
                        Request::Neighbors { .. }
                        | Request::Recommend { .. }
                        | Request::Predict { .. }
                        | Request::Audience { .. }
                        | Request::Search { .. }
                        | Request::Stats => {
                            let load_started = Instant::now();
                            let view = shared.views.load_cached(&mut view_cache);
                            shared
                                .read_wait
                                .record(load_started.elapsed().as_nanos() as u64);
                            answer_from_view(&view, &request)
                                .expect("view-served ops are classified exhaustively")
                        }
                        // Serialized lane: writes, persistence, health,
                        // shutdown — the host mutex path.
                        _ => {
                            drop(lane);
                            shared.lock_host().handle(&request)
                        }
                    }
                });
                match response {
                    Ok(mut body) => {
                        if shutdown {
                            shared.shutdown.store(true, Ordering::SeqCst);
                            if let Value::Object(entries) = &mut body {
                                entries.push(("stopping".into(), Value::Bool(true)));
                            }
                        }
                        (body, op, shutdown)
                    }
                    Err(e) => {
                        shared.errors.incr();
                        (wire::error_value(&e, op), op, false)
                    }
                }
            }
            Err(e) => {
                shared.errors.incr();
                (wire::error_value(&e, ""), "invalid", false)
            }
        };
        shared
            .request_ns
            .get(op)
            .record(started.elapsed().as_nanos() as u64);
        let written = fault::check_ctx(points::NET_WRITE, &shared.net_ctx)
            .and_then(|()| wire::write_frame(&mut stream, &response));
        if shutdown {
            // Poke the accept loop so it observes the flag — even when
            // the ack write failed: the flag is already set, and
            // skipping the poke would leave the daemon wedged in
            // `accept` with the client convinced it is stopping.
            if let Ok(mut poke) = TcpStream::connect(shared.addr) {
                let _ = poke.write_all(&[]);
            }
            return written;
        }
        written?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::store::{recover, StoreConfig};
    use kiff_dataset::dataset::figure2_toy;
    use kiff_online::{OnlineConfig, OnlineKnn, Update};

    fn spawn_toy_server() -> (std::thread::JoinHandle<Result<(), KiffError>>, SocketAddr) {
        let ds = figure2_toy();
        let reg = Registry::new();
        let config = OnlineConfig::new(2).with_telemetry(reg.clone());
        let engine = Box::new(OnlineKnn::new(&ds, config));
        let host = EngineHost::new(engine, None, reg);
        let server = Server::bind("127.0.0.1:0", host).unwrap();
        let addr = server.local_addr();
        (std::thread::spawn(move || server.run()), addr)
    }

    #[test]
    fn serves_queries_updates_and_shuts_down() {
        let (handle, addr) = spawn_toy_server();
        let mut client = Client::connect(&addr.to_string()).unwrap();
        client.ping().unwrap();

        // Alice's nearest neighbour is Bob, exactly as in-process.
        let nbrs = client.neighbors(0).unwrap();
        assert_eq!(nbrs[0].id, 1);

        let recs = client.recommend(0, 3).unwrap();
        assert!(!recs.is_empty(), "Alice gets recommendations");

        let err = client.neighbors(99).unwrap_err();
        match err {
            KiffError::Remote { kind, op, .. } => {
                assert_eq!(kind, "unknown_user");
                assert_eq!(op, "neighbors", "failing op crosses the wire");
            }
            other => panic!("expected Remote, got {other}"),
        }

        // Update over the wire, then observe the graph move.
        let applied = client
            .update(&[Update::AddRating {
                user: 2,
                item: 1,
                rating: 2.0,
            }])
            .unwrap();
        assert_eq!(applied, 1);
        let stats = client.stats().unwrap();
        assert_eq!(stats.get("updates").and_then(Value::as_u64), Some(1));

        let metrics = client.metrics().unwrap();
        assert!(metrics.get("counters").is_some(), "telemetry surfaces");

        // Health on a storeless daemon: healthy, no seq.
        let health = client.health().unwrap();
        assert_eq!(health.status, "healthy");
        assert_eq!(health.batch_hwm, 0);

        // A second concurrent client works while the first idles.
        let mut other = Client::connect(&addr.to_string()).unwrap();
        other.ping().unwrap();
        drop(other);

        client.shutdown().unwrap();
        handle.join().unwrap().unwrap();
    }

    /// The tentpole invariant: read ops are answered from the published
    /// view and never wait on the host mutex. We hold the writer's lock
    /// for the whole test and queries must still come back.
    #[test]
    fn reads_are_answered_while_the_host_mutex_is_held() {
        let ds = figure2_toy();
        let reg = Registry::new();
        let config = OnlineConfig::new(2).with_telemetry(reg.clone());
        let engine = Box::new(OnlineKnn::new(&ds, config));
        let host = EngineHost::new(engine, None, reg.clone());
        let server = Server::bind("127.0.0.1:0", host).unwrap();
        let addr = server.local_addr();
        let shared = Arc::clone(&server.shared);
        let handle = std::thread::spawn(move || server.run());

        // Wedge the writer: simulate a long apply_batch by holding the
        // host mutex on this thread. A locked read path would deadlock
        // the client below until the timeout fires.
        let guard = shared.lock_host();
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut client = Client::connect(&addr.to_string()).unwrap();
            let nbrs = client.neighbors(0);
            let stats = client.stats();
            let metrics = client.metrics();
            tx.send((nbrs, stats, metrics)).unwrap();
        });
        let (nbrs, stats, metrics) = rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("reads must not block on the writer's mutex");
        assert_eq!(nbrs.unwrap()[0].id, 1, "answered from the view");
        assert!(stats.unwrap().get("view").is_some(), "stats stamps a view");
        assert!(metrics.unwrap().get("counters").is_some());
        reader.join().unwrap();
        drop(guard);

        // And the read path never recorded a meaningful wait: the view
        // load is one atomic epoch check in the steady state.
        let waited = reg
            .snapshot()
            .histograms
            .iter()
            .any(|h| h.name == "serve.read_wait_ns" && h.count > 0);
        assert!(waited, "read_wait_ns instruments every view load");

        Client::connect(&addr.to_string())
            .unwrap()
            .shutdown()
            .unwrap();
        handle.join().unwrap().unwrap();
    }

    /// A bounded in-flight window sheds with a typed, retryable
    /// `Overloaded` instead of queueing: an update holding the only slot
    /// parks on the host mutex, a second update is shed at once, and the
    /// first lands when the mutex is released.
    #[test]
    fn overload_sheds_typed_retryable_errors() {
        let reg = Registry::new();
        let config = OnlineConfig::new(2).with_telemetry(reg.clone());
        let engine = Box::new(OnlineKnn::new(&figure2_toy(), config));
        let host = EngineHost::new(engine, None, reg.clone());
        let server_config = ServerConfig {
            max_inflight: 1,
            ..ServerConfig::default()
        };
        let server = Server::bind_with("127.0.0.1:0", host, server_config).unwrap();
        let addr = server.local_addr().to_string();
        let shared = Arc::clone(&server.shared);
        let handle = std::thread::spawn(move || server.run());
        let update = [Update::AddRating {
            user: 2,
            item: 1,
            rating: 2.0,
        }];

        // The first update claims the only slot, then parks on the host
        // mutex this thread holds.
        let guard = shared.lock_host();
        let first = std::thread::spawn({
            let addr = addr.clone();
            move || Client::connect(&addr).unwrap().update(&update)
        });
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        while shared.inflight.load(Ordering::SeqCst) == 0 {
            assert!(Instant::now() < deadline, "the first update never arrived");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }

        // The second is shed at once; were it queued instead, it would
        // wait on the held mutex and miss the timeout.
        let (tx, rx) = std::sync::mpsc::channel();
        let second = std::thread::spawn({
            let addr = addr.clone();
            move || tx.send(Client::connect(&addr).unwrap().update(&update))
        });
        let err = rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("the second update must be shed, not queued")
            .unwrap_err();
        second.join().unwrap().unwrap();
        match &err {
            KiffError::Remote { kind, op, .. } => {
                assert_eq!(kind, "overloaded");
                assert_eq!(op, "update");
            }
            other => panic!("expected a remote overloaded error, got {other}"),
        }
        assert!(err.is_retryable(), "a shed must invite a retry");
        assert_eq!(reg.counter("serve.shed").get(), 1, "one shed, counted");

        drop(guard);
        assert_eq!(
            first.join().unwrap().unwrap(),
            1,
            "the limit sheds excess load, not all load"
        );
        Client::connect(&addr).unwrap().shutdown().unwrap();
        handle.join().unwrap().unwrap();
    }

    /// Every instrument a request records into is resolved before the
    /// request arrives — at bind, at `Wal::open` and when the store is
    /// built: a fresh connection, a durable update batch and a view-lane
    /// request take no registry lookup, hence not the registry's global
    /// mutex either.
    #[test]
    fn view_lane_requests_look_up_no_instruments() {
        let mut dir = std::env::temp_dir();
        dir.push(format!("kiff-server-lookups-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let reg = Registry::new();
        let config = OnlineConfig::new(2).with_telemetry(reg.clone());
        let cfg = StoreConfig::new(&dir).with_snapshot_every(0);
        let rec = recover(&cfg, &figure2_toy(), None, config, None).unwrap();
        let host = EngineHost::new(rec.engine, Some(rec.store), reg.clone());
        let server = Server::bind("127.0.0.1:0", host).unwrap();
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run());

        let before = reg.lookups();
        let mut client = Client::connect(&addr.to_string()).unwrap();
        client.ping().unwrap();
        assert_eq!(reg.lookups(), before, "a fresh connection looked up");
        client
            .update(&[Update::AddRating {
                user: 2,
                item: 1,
                rating: 2.0,
            }])
            .unwrap();
        assert_eq!(reg.lookups(), before, "a durable update batch looked up");
        client.neighbors(0).unwrap();
        client.recommend(0, 3).unwrap();
        client
            .request(&Request::Predict { user: 0, item: 2 })
            .unwrap();
        client
            .request(&Request::Audience { item: 1, top: 2 })
            .unwrap();
        client
            .request(&Request::Search {
                items: vec![(1, 1.0)],
                top: 2,
            })
            .unwrap();
        client.stats().unwrap();
        assert_eq!(reg.lookups(), before, "a view-lane request looked up");
        client.shutdown().unwrap();
        handle.join().unwrap().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The lock-order tripwire: in debug builds, taking the host lock
    /// from the lock-free view lane panics.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "the lock-free view lane took the host lock")]
    fn the_view_lane_cannot_take_the_host_lock() {
        let config = OnlineConfig::new(2);
        let engine = Box::new(OnlineKnn::new(&figure2_toy(), config));
        let host = EngineHost::new(engine, None, Registry::new());
        let server = Server::bind("127.0.0.1:0", host).unwrap();
        let _lane = ViewLane::enter();
        let _host = server.shared.lock_host();
    }

    /// Regression (satellite 2): `serve.queue_depth` used to be a bare
    /// add(1)/add(-1) pair, which leaked a permanent +1 whenever the
    /// worker exited between the two. With the RAII guard the gauge
    /// returns to zero even when the connection dies mid-request.
    #[test]
    fn queue_depth_recovers_after_a_connection_dies_mid_request() {
        use kiff_core::fault::{self, points, Trigger};

        let ds = figure2_toy();
        let reg = Registry::new();
        let config = OnlineConfig::new(2).with_telemetry(reg.clone());
        let engine = Box::new(OnlineKnn::new(&ds, config));
        let host = EngineHost::new(engine, None, reg.clone());
        let server = Server::bind("127.0.0.1:0", host).unwrap();
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run());

        // Connect first, then arm: the very next response write on this
        // daemon fails, killing the worker while the depth guard is
        // live.
        let mut doomed = Client::connect(&addr.to_string()).unwrap();
        fault::arm_scoped(points::NET_WRITE, Trigger::Nth(1), addr.to_string());
        assert!(doomed.ping().is_err(), "the armed write kills the reply");
        drop(doomed);

        // The worker unwinds its stack on the way out; the guard must
        // have restored the gauge. Poll briefly — worker exit is
        // asynchronous with the client seeing the reset.
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        loop {
            let depth = reg.snapshot().gauge("serve.queue_depth");
            if depth == Some(0) {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "queue_depth leaked: stuck at {depth:?}"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }

        let mut client = Client::connect(&addr.to_string()).unwrap();
        client.ping().unwrap();
        client.shutdown().unwrap();
        handle.join().unwrap().unwrap();
    }

    /// A connection that dies on a torn request is counted by its kind,
    /// and the daemon keeps serving other connections.
    #[test]
    fn a_torn_request_counts_one_protocol_error_and_serving_goes_on() {
        let reg = Registry::new();
        let config = OnlineConfig::new(2).with_telemetry(reg.clone());
        let engine = Box::new(OnlineKnn::new(&figure2_toy(), config));
        let host = EngineHost::new(engine, None, reg.clone());
        let server = Server::bind("127.0.0.1:0", host).unwrap();
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run());
        let count = |kind: &str| {
            reg.snapshot()
                .counter(&format!("serve.connection_errors.{kind}"))
        };

        // A header that promises 64 bytes, ten of them, then EOF.
        let mut torn = TcpStream::connect(addr).unwrap();
        torn.write_all(&64u32.to_le_bytes()).unwrap();
        torn.write_all(br#"{"op":"pi"#).unwrap();
        torn.shutdown(std::net::Shutdown::Write).unwrap();
        // The worker counts its error as it exits, after the client
        // has sent everything: poll briefly.
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        while count("protocol") != Some(1) {
            assert!(Instant::now() < deadline, "torn request not counted");
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        drop(torn);

        let mut client = Client::connect(&addr.to_string()).unwrap();
        client.ping().unwrap();
        client.shutdown().unwrap();
        handle.join().unwrap().unwrap();
        assert_eq!(
            count("protocol"),
            Some(1),
            "clean connections count nothing"
        );
        assert_eq!(count("io"), Some(0));
        assert_eq!(count("other"), Some(0));
    }

    /// The write path's stage histograms count what the host did: one
    /// WAL append, fsync and view publish per applied batch, one
    /// snapshot per snapshot taken, and one replication wait per batch
    /// only once the host replicates.
    #[test]
    fn write_stages_count_every_batch_and_every_snapshot() {
        let mut dir = std::env::temp_dir();
        dir.push(format!("kiff-server-stages-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let reg = Registry::new();
        let config = OnlineConfig::new(2).with_telemetry(reg.clone());
        let cfg = StoreConfig::new(&dir).with_snapshot_every(4);
        let rec = recover(&cfg, &figure2_toy(), None, config, None).unwrap();
        let mut host = EngineHost::new(rec.engine, Some(rec.store), reg.clone());
        let write = |host: &mut EngineHost, batch: u32| {
            let updates = vec![
                Update::AddRating {
                    user: batch % 4,
                    item: (batch + 1) % 4,
                    rating: 1.0,
                },
                Update::AddRating {
                    user: (batch + 2) % 4,
                    item: batch % 4,
                    rating: 1.0,
                },
            ];
            let request = Request::Update {
                updates,
                batch: u64::from(batch) + 1,
            };
            host.handle(&request).unwrap();
        };
        let count = |name: &str| reg.snapshot().histogram(name).map_or(0, |h| h.count);
        for batch in 0..5 {
            write(&mut host, batch);
        }
        // Two updates a batch: the interval of 4 fires after batches 2
        // and 4, then one snapshot on demand.
        host.handle(&Request::Snapshot).unwrap();
        for name in ["wal.append_ns", "wal.fsync_ns", "serve.publish_ns"] {
            assert_eq!(count(name), 5, "{name}");
        }
        assert_eq!(count("serve.snapshot_ns"), 3);
        assert_eq!(reg.snapshot().counter("snapshot.saved"), Some(3));
        assert_eq!(count("serve.repl_wait_ns"), 0, "not replicating");

        // A primary with no replica attached still waits once a batch.
        host.set_replication(Arc::new(ReplState::new(
            ReplicationConfig::new("127.0.0.1:0"),
            "127.0.0.1:7000".into(),
            "127.0.0.1:9000".into(),
            0,
            reg.clone(),
        )));
        for batch in 5..8 {
            write(&mut host, batch);
        }
        assert_eq!(count("serve.repl_wait_ns"), 3);
        assert_eq!(count("serve.publish_ns"), 8);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Acked writes are immediately visible to every reader (the view
    /// publishes before the ack), and each view-served response stamps
    /// the monotone view version it was answered from.
    #[test]
    fn acked_updates_are_visible_and_stamp_a_view_version() {
        let (handle, addr) = spawn_toy_server();
        let mut writer = Client::connect(&addr.to_string()).unwrap();
        let mut reader = Client::connect(&addr.to_string()).unwrap();

        let before = reader
            .request(&Request::Neighbors { user: 0 })
            .unwrap()
            .get("view")
            .and_then(Value::as_u64)
            .expect("view-served responses carry the version");

        let ack = writer
            .update(&[Update::AddRating {
                user: 2,
                item: 1,
                rating: 2.0,
            }])
            .unwrap();
        assert_eq!(ack, 1);

        // Read-your-writes through *any* connection: the ack means the
        // view was already published.
        let stats = reader.request(&Request::Stats).unwrap();
        assert_eq!(stats.get("updates").and_then(Value::as_u64), Some(1));
        let after = stats.get("view").and_then(Value::as_u64).unwrap();
        assert!(after > before, "the batch bumped the view version");

        // Monotone per connection: a later read never sees an older
        // version.
        let again = reader
            .request(&Request::Neighbors { user: 0 })
            .unwrap()
            .get("view")
            .and_then(Value::as_u64)
            .unwrap();
        assert!(again >= after);

        writer.shutdown().unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn snapshot_without_a_data_dir_is_a_protocol_error() {
        let (handle, addr) = spawn_toy_server();
        let mut client = Client::connect(&addr.to_string()).unwrap();
        let err = client.snapshot().unwrap_err();
        match err {
            KiffError::Remote { kind, .. } => assert_eq!(kind, "protocol"),
            other => panic!("expected Remote, got {other}"),
        }
        client.shutdown().unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn read_only_host_serves_queries_but_refuses_writes() {
        let ds = figure2_toy();
        let reg = Registry::new();
        let config = OnlineConfig::new(2).with_telemetry(reg.clone());
        let engine = Box::new(OnlineKnn::new(&ds, config));
        let host = EngineHost::new(engine, None, reg).read_only();
        let server = Server::bind("127.0.0.1:0", host).unwrap();
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run());

        let mut client = Client::connect(&addr.to_string()).unwrap();
        assert_eq!(client.neighbors(0).unwrap()[0].id, 1, "queries serve");
        let err = client.update(&[Update::AddUser]).unwrap_err();
        match &err {
            KiffError::Remote { kind, op, .. } => {
                assert_eq!(kind, "unavailable");
                assert_eq!(op, "update");
            }
            other => panic!("expected Remote, got {other}"),
        }
        assert!(err.is_retryable(), "unavailable invites a retry");
        assert_eq!(client.health().unwrap().status, "degraded");

        client.shutdown().unwrap();
        handle.join().unwrap().unwrap();
    }
}
