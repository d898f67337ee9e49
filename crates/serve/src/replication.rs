//! Primary/replica WAL shipping with automatic failover.
//!
//! One daemon is the **primary**: it accepts writes, appends them to
//! its WAL, applies them to its engine, and streams every committed
//! batch to each configured replica over a dedicated replication
//! channel before acknowledging the client (semi-synchronous
//! replication with a bounded ack wait). **Replicas** apply the stream
//! through the same [`crate::server::EngineHost`] path as local
//! recovery, serve every read op, and refuse writes with a typed
//! [`KiffError::NotPrimary`] carrying a leader hint.
//!
//! # Wire format
//!
//! The replication channel reuses the WAL's frame header — `u32 len LE
//! · u32 crc32 LE · payload` (decoded by the same helper as WAL replay
//! and recovery) — with a JSON payload per frame:
//!
//! | `t`         | direction         | fields                                          |
//! |-------------|-------------------|-------------------------------------------------|
//! | `hello`     | primary → replica | `epoch`, `seq` (primary applied), `advertise`   |
//! | `hello_ack` | replica → primary | `epoch`, `seq` (replica applied)                |
//! | `not_leader`| replica → primary | `epoch`, optional `leader` hint                 |
//! | `batch`     | primary → replica | `epoch`, `first_seq`, `batch`, `lag`, `updates` |
//! | `heartbeat` | primary → replica | `epoch`, `seq`, `lag`                           |
//! | `ack`       | replica → primary | `epoch`, `seq`                                  |
//!
//! The exchange is strict request/response: every `batch` and
//! `heartbeat` gets exactly one `ack` (or `not_leader`, which closes
//! the stream).
//!
//! # Epoch fencing
//!
//! Leadership is guarded by a monotonic **epoch** persisted in
//! snapshots (format v3). A replica accepts an inbound stream iff the
//! sender's epoch is newer than its own, or equal while it is still a
//! replica; anything staler is answered with `not_leader` and closed.
//! Promotion bumps the epoch and snapshots it *before* the new primary
//! acknowledges any write, so a partitioned old primary's late frames
//! are rejected even across a replica restart. A primary that sees a
//! higher epoch anywhere — an inbound hello, a `not_leader` answer, a
//! peer's health — demotes itself back to replica.
//!
//! # Failover
//!
//! Replicas detect a dead primary by silence: no frame for four
//! heartbeat intervals triggers an election. The candidate polls every
//! peer's `health` over the normal client port; it promotes only if
//! the round **resolved a majority of the group** — itself plus peers
//! that answered or are provably down (an active connection refusal;
//! timeouts prove nothing) — no live primary with a current epoch
//! answered, and no other replica is further ahead (ties break toward
//! the lexicographically smallest advertised address). A replica cut
//! off from every peer keeps retrying inconclusive rounds
//! (`serve.elections_inconclusive`) instead of splitting the brain.
//! Because acknowledged writes were replicated
//! semi-synchronously, the winner owns every acked batch, and
//! [`crate::client::SelfHealingClient`] replays un-acked batch ids
//! against the new leader where the applied-batch high-water mark
//! dedups them — exactly-once across a primary kill.
//!
//! A known limit, shared with every semi-sync design: an old primary
//! that crashed with *un-replicated, un-acked* suffix batches diverges
//! from the new timeline and must be re-seeded from a fresh data dir
//! before rejoining; `serve.repl_diverged` counts the refusal. By
//! default replication is best-effort beyond the bounded ack wait —
//! with every replica down the primary still acks writes
//! (`serve.repl_ack_timeouts` ticks). Setting
//! [`ReplicationConfig::min_sync_replicas`] hardens this: a write that
//! fewer replicas confirmed is refused with a retryable
//! [`KiffError::Unavailable`] (`serve.repl_underreplicated`), so every
//! *acked* write really does survive losing the primary.
//!
//! The `repl.stream`, `repl.ack`, and `repl.heartbeat` failpoints
//! ([`kiff_core::fault`]) cut batch frames, replica acks, and
//! heartbeats respectively — the chaos tests drive every failover path
//! through them.

use std::collections::HashMap;
use std::io::{Read, Write as _};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use kiff_core::fault::{self, points};
use kiff_core::KiffError;
use kiff_online::Update;
use kiff_telemetry::Registry;
use serde_json::{json, Value};

use crate::client::Client;
use crate::server::Shared;
use crate::wal::{crc32, decode_frame_header, Wal};
use crate::wire::{self, Fill, MAX_FRAME};

/// How often blocked reads wake up to poll the shutdown flag.
const POLL: Duration = Duration::from_millis(25);
/// Bound on handshake and per-frame ack waits.
const EXCHANGE_TIMEOUT: Duration = Duration::from_secs(5);
/// Bound on the graceful-shutdown final drain: how long a dying
/// primary keeps retrying to land WAL batches its replicas are still
/// missing before giving up on them.
const FINAL_DRAIN_TIMEOUT: Duration = Duration::from_secs(2);
/// Heartbeat intervals of silence before a replica suspects the
/// primary is dead and starts an election.
const SUSPECT_AFTER: u32 = 4;

/// Replication tuning for one daemon.
#[derive(Debug, Clone)]
pub struct ReplicationConfig {
    /// Address the replication channel listens on (`host:port`,
    /// `:0` for ephemeral).
    pub repl_listen: String,
    /// Client address of the initial primary (`None` = start as the
    /// primary).
    pub replica_of: Option<String>,
    /// Client addresses of every daemon in the group (self included or
    /// not — self is skipped), used for streaming targets, failure
    /// detection, and elections.
    pub peers: Vec<String>,
    /// Heartbeat interval; a replica suspects the primary after four
    /// silent intervals.
    pub heartbeat: Duration,
    /// How long a write waits for each live replica's ack before
    /// giving up on it for this batch.
    pub ack_timeout: Duration,
    /// Minimum replicas that must ack a batch within `ack_timeout` for
    /// the client write to succeed. Below the bar the write is refused
    /// with a retryable [`KiffError::Unavailable`] (it stays in the
    /// WAL, so the client's retry dedups once enough replicas are
    /// back). `0` (the default) keeps best-effort semi-sync: timeouts
    /// are counted but never fail the write.
    pub min_sync_replicas: usize,
}

impl ReplicationConfig {
    /// Replication listening on `repl_listen`, primary role, no peers,
    /// 500 ms heartbeat, 1 s ack wait.
    pub fn new(repl_listen: impl Into<String>) -> Self {
        Self {
            repl_listen: repl_listen.into(),
            replica_of: None,
            peers: Vec::new(),
            heartbeat: Duration::from_millis(500),
            ack_timeout: Duration::from_secs(1),
            min_sync_replicas: 0,
        }
    }

    /// Starts as a replica of the primary at `addr` (client address).
    pub fn replica_of(mut self, addr: impl Into<String>) -> Self {
        self.replica_of = Some(addr.into());
        self
    }

    /// Sets the peer list (client addresses).
    pub fn with_peers(mut self, peers: Vec<String>) -> Self {
        self.peers = peers;
        self
    }

    /// Sets the heartbeat interval.
    pub fn with_heartbeat(mut self, heartbeat: Duration) -> Self {
        self.heartbeat = heartbeat;
        self
    }

    /// Sets the per-replica ack wait.
    pub fn with_ack_timeout(mut self, ack_timeout: Duration) -> Self {
        self.ack_timeout = ack_timeout;
        self
    }

    /// Sets the minimum in-sync replica count a write needs to ack.
    pub fn with_min_sync_replicas(mut self, min: usize) -> Self {
        self.min_sync_replicas = min;
        self
    }
}

/// A daemon's current replication role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Accepts writes and streams them to replicas.
    Primary,
    /// Applies the primary's stream; refuses writes with
    /// [`KiffError::NotPrimary`].
    Replica,
}

impl Role {
    /// The string the `health` op reports (`primary` | `replica`).
    pub fn as_str(self) -> &'static str {
        match self {
            Role::Primary => "primary",
            Role::Replica => "replica",
        }
    }
}

/// One committed batch queued for a replica connection.
pub(crate) struct ReplBatch {
    epoch: u64,
    first_seq: u64,
    batch_id: u64,
    updates: Arc<Vec<Update>>,
    ack: SyncSender<()>,
}

struct Subscriber {
    tx: mpsc::Sender<ReplBatch>,
    depth: Arc<AtomicU64>,
    closed: Arc<AtomicBool>,
}

/// One streaming connection's side of the publish hub. Closing it (on
/// any outbound exit) zeroes the depth slot so queued-but-undeliverable
/// batches stop counting toward primary-side lag, and marks the
/// subscriber for pruning.
struct Subscription {
    rx: Receiver<ReplBatch>,
    depth: Arc<AtomicU64>,
    closed: Arc<AtomicBool>,
}

impl Subscription {
    fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        self.depth.store(0, Ordering::SeqCst);
    }
}

/// Shared replication state: role, epoch, leader hint, lag, and the
/// publish hub feeding per-replica streaming threads.
pub struct ReplState {
    config: ReplicationConfig,
    repl_addr: String,
    advertise: String,
    role: Mutex<Role>,
    epoch: AtomicU64,
    leader_hint: Mutex<Option<String>>,
    lag: AtomicU64,
    last_frame: Mutex<Instant>,
    subscribers: Mutex<Vec<Subscriber>>,
    telemetry: Registry,
}

fn relock<'a, T>(
    guard: Result<std::sync::MutexGuard<'a, T>, PoisonError<std::sync::MutexGuard<'a, T>>>,
) -> std::sync::MutexGuard<'a, T> {
    guard.unwrap_or_else(PoisonError::into_inner)
}

impl ReplState {
    pub(crate) fn new(
        config: ReplicationConfig,
        repl_addr: String,
        advertise: String,
        epoch: u64,
        telemetry: Registry,
    ) -> Self {
        let role = if config.replica_of.is_some() {
            Role::Replica
        } else {
            Role::Primary
        };
        telemetry
            .gauge("serve.role")
            .set(matches!(role, Role::Primary) as i64);
        let leader_hint = match role {
            Role::Primary => Some(advertise.clone()),
            Role::Replica => config.replica_of.clone(),
        };
        Self {
            config,
            repl_addr,
            advertise,
            role: Mutex::new(role),
            epoch: AtomicU64::new(epoch),
            leader_hint: Mutex::new(leader_hint),
            lag: AtomicU64::new(0),
            last_frame: Mutex::new(Instant::now()),
            subscribers: Mutex::new(Vec::new()),
            telemetry,
        }
    }

    /// The daemon's current role.
    pub fn role(&self) -> Role {
        *relock(self.role.lock())
    }

    /// The current leadership epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Where this daemon believes writes should go: its own client
    /// address while primary, the last primary that streamed to it (or
    /// that an election discovered) while replica.
    pub fn leader_hint(&self) -> Option<String> {
        relock(self.leader_hint.lock()).clone()
    }

    /// The replication channel's actually-bound address.
    pub fn repl_addr(&self) -> &str {
        &self.repl_addr
    }

    /// The client address this daemon advertises as a leader hint.
    pub fn advertise(&self) -> &str {
        &self.advertise
    }

    /// Replication lag in batches: on the primary the deepest
    /// per-replica queue, on a replica the primary's last reported
    /// queue depth toward it.
    pub fn lag(&self) -> u64 {
        match self.role() {
            Role::Primary => {
                let mut subs = relock(self.subscribers.lock());
                // A dead streaming thread never drains its queue; drop
                // it here so an idle primary's lag reflects only live
                // connections.
                subs.retain(|s| !s.closed.load(Ordering::SeqCst));
                subs.iter()
                    .map(|s| s.depth.load(Ordering::SeqCst))
                    .max()
                    .unwrap_or(0)
            }
            Role::Replica => self.lag.load(Ordering::SeqCst),
        }
    }

    fn heartbeat(&self) -> Duration {
        self.config.heartbeat
    }

    fn set_role(&self, role: Role) {
        *relock(self.role.lock()) = role;
        self.telemetry
            .gauge("serve.role")
            .set(matches!(role, Role::Primary) as i64);
    }

    fn set_epoch(&self, epoch: u64) {
        self.epoch.store(epoch, Ordering::SeqCst);
    }

    fn set_leader_hint(&self, hint: Option<String>) {
        *relock(self.leader_hint.lock()) = hint;
    }

    fn set_lag(&self, lag: u64) {
        self.lag.store(lag, Ordering::SeqCst);
        self.telemetry
            .gauge("serve.replication_lag_batches")
            .set(lag as i64);
    }

    fn touch(&self) {
        *relock(self.last_frame.lock()) = Instant::now();
    }

    fn silent_for(&self) -> Duration {
        relock(self.last_frame.lock()).elapsed()
    }

    /// Peers to stream to / poll in an election: the configured peer
    /// list plus the initial primary, minus ourselves.
    fn other_peers(&self) -> Vec<String> {
        let mut peers = self.config.peers.clone();
        if let Some(primary) = &self.config.replica_of {
            if !peers.contains(primary) {
                peers.push(primary.clone());
            }
        }
        peers.retain(|p| p != &self.advertise);
        peers
    }

    /// Registers a new streaming connection with the publish hub.
    fn subscribe(&self) -> Subscription {
        let (tx, rx) = mpsc::channel();
        let depth = Arc::new(AtomicU64::new(0));
        let closed = Arc::new(AtomicBool::new(false));
        relock(self.subscribers.lock()).push(Subscriber {
            tx,
            depth: Arc::clone(&depth),
            closed: Arc::clone(&closed),
        });
        Subscription { rx, depth, closed }
    }

    /// Builds the under-replication refusal for a write that `acked`
    /// replicas confirmed, short of the configured minimum.
    fn under_replicated(&self, acked: usize) -> KiffError {
        self.telemetry.counter("serve.repl_underreplicated").incr();
        KiffError::Unavailable {
            op: "update".into(),
            detail: format!(
                "{acked} in-sync replica(s) acknowledged, {} required; \
                 the batch is in the WAL and a retry dedups once replicas return",
                self.config.min_sync_replicas
            ),
        }
    }

    /// Fails fast when fewer live streaming connections exist than the
    /// configured minimum in-sync replica count — the gate the dedup
    /// path uses, since a retried batch already sits in the WAL and
    /// ships over any attached stream.
    pub(crate) fn require_min_sync(&self) -> Result<(), KiffError> {
        if self.config.min_sync_replicas == 0 {
            return Ok(());
        }
        let live = {
            let mut subs = relock(self.subscribers.lock());
            subs.retain(|s| !s.closed.load(Ordering::SeqCst));
            subs.len()
        };
        if live < self.config.min_sync_replicas {
            return Err(self.under_replicated(live));
        }
        Ok(())
    }

    /// Publishes a committed batch to every live streaming connection
    /// and waits (bounded by `ack_timeout`) for each to confirm the
    /// replica applied it — the semi-synchronous half of the
    /// durability story. Called with the host mutex held, so batches
    /// reach every replica in commit order.
    ///
    /// With `min_sync_replicas` > 0 the ack count is enforced: fewer
    /// confirmed copies than the minimum fails the write with a
    /// retryable [`KiffError::Unavailable`] instead of silently
    /// degrading to zero-replication durability.
    pub(crate) fn publish_and_wait(
        &self,
        first_seq: u64,
        batch_id: u64,
        updates: &[Update],
    ) -> Result<(), KiffError> {
        let epoch = self.epoch();
        let shared = Arc::new(updates.to_vec());
        let mut acks: Vec<Receiver<()>> = Vec::new();
        {
            let mut subs = relock(self.subscribers.lock());
            subs.retain_mut(|s| {
                if s.closed.load(Ordering::SeqCst) {
                    return false;
                }
                let (ack_tx, ack_rx) = mpsc::sync_channel(1);
                let batch = ReplBatch {
                    epoch,
                    first_seq,
                    batch_id,
                    updates: Arc::clone(&shared),
                    ack: ack_tx,
                };
                match s.tx.send(batch) {
                    Ok(()) => {
                        s.depth.fetch_add(1, Ordering::SeqCst);
                        acks.push(ack_rx);
                        true
                    }
                    // The streaming thread exited; drop the dead
                    // subscription — the supervisor will redial.
                    Err(_) => false,
                }
            });
        }
        let deadline = Instant::now() + self.config.ack_timeout;
        let mut acked = 0usize;
        for rx in acks {
            let left = deadline.saturating_duration_since(Instant::now());
            if rx.recv_timeout(left).is_ok() {
                acked += 1;
            } else {
                self.telemetry.counter("serve.repl_ack_timeouts").incr();
            }
        }
        self.telemetry
            .gauge("serve.replication_lag_batches")
            .set(self.lag() as i64);
        if acked < self.config.min_sync_replicas {
            return Err(self.under_replicated(acked));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------- framing

/// Writes one replication frame: `u32 len LE · u32 crc32 LE · JSON`.
pub fn write_frame(stream: &mut TcpStream, frame: &Value) -> Result<(), KiffError> {
    let text = serde_json::to_string(frame)
        .map_err(|e| KiffError::Protocol(format!("replication frame encode: {e}")))?;
    let bytes = text.as_bytes();
    let len = u32::try_from(bytes.len())
        .ok()
        .filter(|len| *len <= MAX_FRAME)
        .ok_or_else(|| KiffError::Protocol("replication frame too large".into()))?;
    let mut buf = Vec::with_capacity(8 + bytes.len());
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(&crc32(bytes).to_le_bytes());
    buf.extend_from_slice(bytes);
    stream.write_all(&buf).map_err(KiffError::Io)?;
    stream.flush().map_err(KiffError::Io)
}

/// Reads one replication frame, blocking until it arrives (a stream
/// read timeout surfaces as an `Io` error). The checksum is verified
/// before the JSON is parsed.
pub fn read_frame(stream: &mut TcpStream) -> Result<Value, KiffError> {
    let closed = || {
        KiffError::Io(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "replication stream closed",
        ))
    };
    read_frame_with(stream, None, None, closed)?.map_err(|_| closed())
}

/// Reads one frame through [`wire::fill`], watching `stop` and
/// `deadline` while the stream is idle (the stream must carry a short
/// read timeout). `Ok(Err(end))` when the read ends before a frame:
/// EOF before its first byte, or the flag or the deadline during its
/// header. EOF inside the frame, or the flag or the deadline during its
/// body, is `torn()`.
fn read_frame_with<R: Read>(
    r: &mut R,
    stop: Option<&AtomicBool>,
    deadline: Option<Instant>,
    torn: fn() -> KiffError,
) -> Result<Result<Value, Fill>, KiffError> {
    let mut header = [0u8; 8];
    match wire::fill(r, &mut header, stop, deadline).map_err(KiffError::Io)? {
        Fill::Full => {}
        Fill::Eof(n) if n > 0 => return Err(torn()),
        end => return Ok(Err(end)),
    }
    let (len, crc) = decode_frame_header(&header, MAX_FRAME)
        .ok_or_else(|| KiffError::corrupt("replication stream", "oversized or short frame"))?;
    let mut bytes = vec![0u8; len as usize];
    if wire::fill(r, &mut bytes, stop, deadline).map_err(KiffError::Io)? != Fill::Full {
        return Err(torn());
    }
    if crc32(&bytes) != crc {
        return Err(KiffError::corrupt(
            "replication stream",
            "frame checksum mismatch",
        ));
    }
    let text = String::from_utf8(bytes)
        .map_err(|_| KiffError::corrupt("replication stream", "frame is not UTF-8"))?;
    serde_json::from_str(&text)
        .map(Ok)
        .map_err(|e| KiffError::Protocol(format!("replication frame: {e}")))
}

/// Reads one frame on a live replication stream, polling `stop` (and
/// `deadline`, if any); see [`read_frame_with`].
fn read_polled<R: Read>(
    stream: &mut R,
    stop: &AtomicBool,
    deadline: Option<Instant>,
) -> Result<Result<Value, Fill>, KiffError> {
    read_frame_with(stream, Some(stop), deadline, || {
        KiffError::Protocol("replication stream closed mid-frame".into())
    })
}

/// Readies a replication socket, dialled or accepted: blocking, no
/// Nagle delay, reads that wake every [`POLL`] to check the stop flag,
/// and writes bounded by [`EXCHANGE_TIMEOUT`].
fn prepare(stream: &TcpStream) -> Result<(), KiffError> {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_nodelay(true);
    stream.set_read_timeout(Some(POLL)).map_err(KiffError::Io)?;
    stream
        .set_write_timeout(Some(EXCHANGE_TIMEOUT))
        .map_err(KiffError::Io)
}

fn frame_type(frame: &Value) -> &str {
    frame.get("t").and_then(Value::as_str).unwrap_or("")
}

fn field_u64(frame: &Value, key: &str) -> u64 {
    frame.get(key).and_then(Value::as_u64).unwrap_or(0)
}

fn field_str(frame: &Value, key: &str) -> Option<String> {
    frame.get(key).and_then(Value::as_str).map(String::from)
}

fn not_leader_frame(repl: &ReplState) -> Value {
    let leader = match repl.leader_hint() {
        Some(addr) => Value::String(addr),
        None => Value::Null,
    };
    json!({"t": "not_leader", "epoch": repl.epoch(), "leader": leader})
}

// ------------------------------------------------------------ thread entry

/// Spawns the replication threads for a configured daemon: the
/// replication-channel acceptor (every role), the primary-side
/// streaming supervisor, and the replica-side failure monitor. All
/// three poll the shutdown flag; `Server::run` joins them.
pub(crate) fn spawn_replication(
    shared: &Arc<Shared>,
    listener: TcpListener,
) -> Vec<JoinHandle<()>> {
    let repl = shared.repl.clone().expect("replication state installed");
    let mut handles = Vec::new();
    {
        let shared = Arc::clone(shared);
        let repl = Arc::clone(&repl);
        handles.push(std::thread::spawn(move || {
            run_acceptor(&shared, &repl, listener);
        }));
    }
    {
        let shared = Arc::clone(shared);
        let repl = Arc::clone(&repl);
        handles.push(std::thread::spawn(move || {
            run_supervisor(&shared, &repl);
        }));
    }
    {
        let shared = Arc::clone(shared);
        handles.push(std::thread::spawn(move || {
            run_monitor(&shared, &repl);
        }));
    }
    handles
}

/// Sleeps up to `total`, waking early when `shutdown` flips.
fn sleep_poll(shutdown: &AtomicBool, total: Duration) {
    let deadline = Instant::now() + total;
    while !shutdown.load(Ordering::SeqCst) {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        std::thread::sleep(left.min(POLL));
    }
}

// -------------------------------------------------------- inbound (replica)

fn run_acceptor(shared: &Arc<Shared>, repl: &Arc<ReplState>, listener: TcpListener) {
    let _ = listener.set_nonblocking(true);
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(shared);
                let repl = Arc::clone(repl);
                conns.push(std::thread::spawn(move || {
                    if run_inbound(&shared, &repl, stream).is_err() {
                        shared.telemetry.counter("serve.repl_conn_drops").incr();
                    }
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
        conns.retain(|c| !c.is_finished());
    }
    for conn in conns {
        let _ = conn.join();
    }
}

/// Steps down to `epoch`, persisting the fence. Takes the host lock.
fn adopt(shared: &Shared, repl: &ReplState, epoch: u64, hint: Option<String>) {
    let mut host = shared.lock_host();
    if epoch <= repl.epoch() {
        return;
    }
    if host.promote(epoch).is_err() {
        // The fence could not be persisted (disk trouble); stay on the
        // old epoch — the stream will be refused and retried.
        return;
    }
    let was_primary = repl.role() == Role::Primary;
    repl.set_epoch(epoch);
    repl.set_role(Role::Replica);
    repl.set_leader_hint(hint);
    repl.touch();
    if was_primary {
        shared.telemetry.counter("serve.demotions").incr();
    }
}

/// Serves one inbound replication stream: handshake with epoch
/// fencing, then apply `batch`/`heartbeat` frames until EOF, shutdown,
/// or a stale epoch.
fn run_inbound(
    shared: &Arc<Shared>,
    repl: &Arc<ReplState>,
    mut stream: TcpStream,
) -> Result<(), KiffError> {
    prepare(&stream)?;
    let deadline = Instant::now() + EXCHANGE_TIMEOUT;
    let Ok(hello) = read_polled(&mut stream, &shared.shutdown, Some(deadline))? else {
        return Ok(());
    };
    if frame_type(&hello) != "hello" {
        return Err(KiffError::Protocol(format!(
            "replication stream opened with {:?}, expected hello",
            frame_type(&hello)
        )));
    }
    let h_epoch = field_u64(&hello, "epoch");
    let accept =
        h_epoch > repl.epoch() || (h_epoch == repl.epoch() && repl.role() == Role::Replica);
    if !accept {
        shared.telemetry.counter("serve.repl_fenced").incr();
        let _ = write_frame(&mut stream, &not_leader_frame(repl));
        return Ok(());
    }
    if h_epoch > repl.epoch() {
        adopt(shared, repl, h_epoch, field_str(&hello, "advertise"));
        if repl.epoch() < h_epoch {
            // adopt failed; refuse the stream rather than apply frames
            // from an epoch we could not fence.
            let _ = write_frame(&mut stream, &not_leader_frame(repl));
            return Ok(());
        }
    } else if let Some(advertise) = field_str(&hello, "advertise") {
        repl.set_leader_hint(Some(advertise));
    }
    repl.touch();
    let applied = shared.lock_host().store_seq();
    write_frame(
        &mut stream,
        &json!({"t": "hello_ack", "epoch": repl.epoch(), "seq": applied}),
    )?;
    loop {
        let Ok(frame) = read_polled(&mut stream, &shared.shutdown, None)? else {
            return Ok(());
        };
        let f_epoch = field_u64(&frame, "epoch");
        if f_epoch < repl.epoch() {
            // A stale primary kept streaming across our promotion (or a
            // newer epoch we adopted elsewhere): fence it off.
            shared.telemetry.counter("serve.repl_fenced").incr();
            let _ = write_frame(&mut stream, &not_leader_frame(repl));
            return Ok(());
        }
        if f_epoch > repl.epoch() {
            adopt(shared, repl, f_epoch, repl.leader_hint());
            if repl.epoch() < f_epoch {
                // Persisting the fence failed (disk trouble); refuse
                // the stream like the handshake does rather than apply
                // frames from an epoch we could not adopt.
                let _ = write_frame(&mut stream, &not_leader_frame(repl));
                return Ok(());
            }
        }
        let seq = match frame_type(&frame) {
            "batch" => {
                repl.touch();
                repl.set_lag(field_u64(&frame, "lag"));
                let first_seq = field_u64(&frame, "first_seq");
                let batch_id = field_u64(&frame, "batch");
                let updates: Vec<Update> = frame
                    .get("updates")
                    .and_then(Value::as_array)
                    .ok_or_else(|| KiffError::Protocol("batch frame missing updates".into()))?
                    .iter()
                    .map(wire::update_from_value)
                    .collect::<Result<_, _>>()?;
                let mut host = shared.lock_host();
                // Promotion bumps the epoch under this same host lock,
                // so re-checking here closes the gap between the
                // loop-top epoch check and the apply: a deposed
                // primary's last in-flight batch must not land on the
                // new timeline.
                if f_epoch < repl.epoch() {
                    drop(host);
                    shared.telemetry.counter("serve.repl_fenced").incr();
                    let _ = write_frame(&mut stream, &not_leader_frame(repl));
                    return Ok(());
                }
                host.apply_replicated(first_seq, batch_id, &updates)?
            }
            "heartbeat" => {
                repl.touch();
                repl.set_lag(field_u64(&frame, "lag"));
                shared.lock_host().store_seq()
            }
            other => {
                return Err(KiffError::Protocol(format!(
                    "unexpected replication frame {other:?}"
                )));
            }
        };
        // An armed repl.ack failpoint kills the connection before the
        // ack leaves — the primary re-sends after redialling and the
        // seq check deduplicates, exactly like a real torn ack.
        fault::check_ctx(points::REPL_ACK, repl.repl_addr())?;
        write_frame(
            &mut stream,
            &json!({"t": "ack", "epoch": repl.epoch(), "seq": seq}),
        )?;
    }
}

// ------------------------------------------------------- outbound (primary)

/// What a peer's `health` told us, trimmed to election needs.
struct PeerHealth {
    role: Option<String>,
    epoch: u64,
    seq: u64,
    repl_addr: Option<String>,
}

fn poll_health(addr: &str) -> Result<PeerHealth, KiffError> {
    let mut client = Client::connect(addr)?;
    let health = client.health()?;
    Ok(PeerHealth {
        role: health.role,
        epoch: health.epoch,
        seq: health.seq.unwrap_or(0),
        repl_addr: health.repl_addr,
    })
}

/// Primary-side supervisor: keeps one streaming connection per peer
/// alive while this daemon leads, discovering each peer's replication
/// address through its client-port `health`.
fn run_supervisor(shared: &Arc<Shared>, repl: &Arc<ReplState>) {
    let mut conns: HashMap<String, (Arc<AtomicBool>, JoinHandle<()>)> = HashMap::new();
    while !shared.shutdown.load(Ordering::SeqCst) {
        if repl.role() == Role::Primary {
            for peer in repl.other_peers() {
                if conns
                    .get(&peer)
                    .is_some_and(|(alive, _)| alive.load(Ordering::SeqCst))
                {
                    continue;
                }
                if let Some((_, handle)) = conns.remove(&peer) {
                    let _ = handle.join();
                }
                let Ok(health) = poll_health(&peer) else {
                    continue;
                };
                if health.epoch > repl.epoch() {
                    // The group moved on without us; step down.
                    adopt(shared, repl, health.epoch, Some(peer.clone()));
                    break;
                }
                let Some(peer_repl) = health.repl_addr else {
                    continue;
                };
                let alive = Arc::new(AtomicBool::new(true));
                let handle = {
                    let shared = Arc::clone(shared);
                    let repl = Arc::clone(repl);
                    let alive = Arc::clone(&alive);
                    std::thread::spawn(move || {
                        if run_outbound(&shared, &repl, &peer_repl).is_err() {
                            shared.telemetry.counter("serve.repl_conn_drops").incr();
                        }
                        alive.store(false, Ordering::SeqCst);
                    })
                };
                conns.insert(peer, (alive, handle));
            }
        }
        sleep_poll(&shared.shutdown, repl.heartbeat());
    }
    for (_, (_, handle)) in conns {
        let _ = handle.join();
    }
}

/// Streams the WAL to one replica: hello/ack handshake, catch-up from
/// disk, then live batches from the publish hub with heartbeats while
/// idle. Returns when the connection drops, the daemon stops leading,
/// or shutdown begins.
fn run_outbound(
    shared: &Arc<Shared>,
    repl: &Arc<ReplState>,
    peer_repl: &str,
) -> Result<(), KiffError> {
    // Subscribe *before* reading the WAL so no batch committed during
    // catch-up can fall between the replay and the live stream; the
    // seq check below drops the overlap.
    let sub = repl.subscribe();
    let result = stream_to_replica(shared, repl, peer_repl, &sub);
    // Whatever ended the stream, this queue will never drain again:
    // zero its depth slot so `lag()` stops counting it and mark the
    // subscriber for pruning.
    sub.close();
    result
}

fn stream_to_replica(
    shared: &Arc<Shared>,
    repl: &Arc<ReplState>,
    peer_repl: &str,
    sub: &Subscription,
) -> Result<(), KiffError> {
    let (rx, depth) = (&sub.rx, &sub.depth);
    let my_seq = shared.lock_host().store_seq();
    let Some((mut stream, replica_seq)) =
        open_stream(shared, repl, peer_repl, my_seq, &shared.shutdown)?
    else {
        return Ok(());
    };
    if replica_seq > my_seq {
        // The replica holds a diverged suffix (it outlived an older
        // timeline); refuse to stream rather than corrupt it.
        shared.telemetry.counter("serve.repl_diverged").incr();
        return Err(KiffError::Protocol(format!(
            "replica at {peer_repl} applied seq {replica_seq} > primary seq {my_seq}; re-seed it"
        )));
    }
    let mut last_sent = replica_seq;
    if replica_seq < my_seq
        && catch_up(
            &mut stream,
            shared,
            repl,
            peer_repl,
            &mut last_sent,
            depth,
            &shared.shutdown,
        )? == BatchOutcome::NotLeader
    {
        return Ok(());
    }
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            // Drain batches already published so every acked write is
            // on the replica before a graceful exit. The ack reads poll
            // a never-set stop — the real flag is already up, and these
            // frames must still complete (bounded by EXCHANGE_TIMEOUT).
            let drain_stop = AtomicBool::new(false);
            while let Ok(batch) = rx.try_recv() {
                if forward_batch(
                    &mut stream,
                    shared,
                    repl,
                    peer_repl,
                    &batch,
                    depth,
                    &mut last_sent,
                    &drain_stop,
                )? == BatchOutcome::NotLeader
                {
                    return Ok(());
                }
            }
            return Ok(());
        }
        if repl.role() != Role::Primary {
            return Ok(());
        }
        match rx.recv_timeout(repl.heartbeat()) {
            Ok(batch) => {
                if forward_batch(
                    &mut stream,
                    shared,
                    repl,
                    peer_repl,
                    &batch,
                    depth,
                    &mut last_sent,
                    &shared.shutdown,
                )? == BatchOutcome::NotLeader
                {
                    return Ok(());
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                // An armed repl.heartbeat failpoint suppresses the
                // heartbeat — the replica sees silence and, enough
                // intervals later, starts an election.
                if fault::check_ctx(points::REPL_HEARTBEAT, peer_repl).is_err() {
                    shared
                        .telemetry
                        .counter("serve.repl_heartbeats_suppressed")
                        .incr();
                    continue;
                }
                write_frame(
                    &mut stream,
                    &json!({
                        "t": "heartbeat",
                        "epoch": repl.epoch(),
                        "seq": last_sent,
                        "lag": depth.load(Ordering::SeqCst)
                    }),
                )?;
                match await_ack(&mut stream, &shared.shutdown)? {
                    AckOutcome::Ack => {}
                    AckOutcome::NotLeader(frame) => {
                        handle_not_leader(shared, repl, &frame);
                        return Ok(());
                    }
                    AckOutcome::Gone => return Ok(()),
                }
            }
            Err(RecvTimeoutError::Disconnected) => return Ok(()),
        }
    }
}

/// The primary's side of a stream's opening: dials `peer_repl`, says
/// hello at `my_seq` under this daemon's epoch, and reads the answer.
/// Returns the stream and the replica's applied seq, or `None` when the
/// replica refused (`not_leader`, which may demote this daemon) or the
/// exchange ended on EOF, `stop` or its deadline.
fn open_stream(
    shared: &Arc<Shared>,
    repl: &Arc<ReplState>,
    peer_repl: &str,
    my_seq: u64,
    stop: &AtomicBool,
) -> Result<Option<(TcpStream, u64)>, KiffError> {
    let mut stream = TcpStream::connect(peer_repl).map_err(KiffError::Io)?;
    prepare(&stream)?;
    write_frame(
        &mut stream,
        &json!({
            "t": "hello",
            "epoch": repl.epoch(),
            "seq": my_seq,
            "advertise": repl.advertise().to_string()
        }),
    )?;
    let deadline = Instant::now() + EXCHANGE_TIMEOUT;
    let Ok(ack) = read_polled(&mut stream, stop, Some(deadline))? else {
        return Ok(None);
    };
    match frame_type(&ack) {
        "hello_ack" => Ok(Some((stream, field_u64(&ack, "seq")))),
        "not_leader" => {
            handle_not_leader(shared, repl, &ack);
            Ok(None)
        }
        other => Err(KiffError::Protocol(format!(
            "expected hello_ack, got {other:?}"
        ))),
    }
}

/// Ships every WAL batch past `*last_sent` from disk, advancing
/// `*last_sent` as each is acked; each batch reports `depth` as the
/// primary's queue depth. Stops early when the replica answers
/// `not_leader`.
fn catch_up(
    stream: &mut TcpStream,
    shared: &Arc<Shared>,
    repl: &Arc<ReplState>,
    peer_repl: &str,
    last_sent: &mut u64,
    depth: &AtomicU64,
    stop: &AtomicBool,
) -> Result<BatchOutcome, KiffError> {
    let dir = shared
        .lock_host()
        .store_dir()
        .ok_or_else(|| KiffError::Protocol("replication requires a data dir".into()))?;
    // WAL segments are immutable once written, so catch-up reads them
    // without the host lock; writes continuing in parallel land in the
    // subscription instead.
    let replay = Wal::replay(&dir, *last_sent, &shared.telemetry)?;
    for (first_seq, batch_id, updates) in replay.batches_with_ids() {
        if first_seq <= *last_sent {
            continue;
        }
        match send_batch(
            stream,
            shared,
            repl,
            peer_repl,
            repl.epoch(),
            first_seq,
            batch_id,
            &updates,
            depth.load(Ordering::SeqCst),
            stop,
        )? {
            BatchOutcome::Acked => *last_sent = first_seq + updates.len() as u64 - 1,
            BatchOutcome::NotLeader => return Ok(BatchOutcome::NotLeader),
        }
    }
    shared.telemetry.counter("serve.repl_catchups").incr();
    Ok(BatchOutcome::Acked)
}

#[derive(PartialEq, Eq)]
enum BatchOutcome {
    Acked,
    NotLeader,
}

/// Sends one hub batch, settling its depth slot and publisher ack.
#[allow(clippy::too_many_arguments)]
fn forward_batch(
    stream: &mut TcpStream,
    shared: &Arc<Shared>,
    repl: &Arc<ReplState>,
    peer_repl: &str,
    batch: &ReplBatch,
    depth: &Arc<AtomicU64>,
    last_sent: &mut u64,
    stop: &AtomicBool,
) -> Result<BatchOutcome, KiffError> {
    let result = if batch.first_seq <= *last_sent {
        // Already shipped during catch-up.
        Ok(BatchOutcome::Acked)
    } else {
        send_batch(
            stream,
            shared,
            repl,
            peer_repl,
            batch.epoch,
            batch.first_seq,
            batch.batch_id,
            &batch.updates,
            depth.load(Ordering::SeqCst).saturating_sub(1),
            stop,
        )
    };
    depth.fetch_sub(1, Ordering::SeqCst);
    match &result {
        Ok(BatchOutcome::Acked) => {
            *last_sent = (*last_sent).max(batch.first_seq + batch.updates.len() as u64 - 1);
            let _ = batch.ack.send(());
        }
        Ok(BatchOutcome::NotLeader) | Err(_) => {}
    }
    result
}

#[allow(clippy::too_many_arguments)]
fn send_batch(
    stream: &mut TcpStream,
    shared: &Arc<Shared>,
    repl: &Arc<ReplState>,
    peer_repl: &str,
    epoch: u64,
    first_seq: u64,
    batch_id: u64,
    updates: &[Update],
    lag: u64,
    stop: &AtomicBool,
) -> Result<BatchOutcome, KiffError> {
    // An armed repl.stream failpoint tears the connection before the
    // frame leaves — the batch stays queued WAL-side and ships on the
    // next redial's catch-up.
    fault::check_ctx(points::REPL_STREAM, peer_repl)?;
    let updates_json: Vec<Value> = updates.iter().map(wire::update_to_value).collect();
    write_frame(
        stream,
        &json!({
            "t": "batch",
            "epoch": epoch,
            "first_seq": first_seq,
            "batch": batch_id,
            "lag": lag,
            "updates": updates_json
        }),
    )?;
    match await_ack(stream, stop)? {
        AckOutcome::Ack => Ok(BatchOutcome::Acked),
        AckOutcome::NotLeader(frame) => {
            handle_not_leader(shared, repl, &frame);
            Ok(BatchOutcome::NotLeader)
        }
        AckOutcome::Gone => Err(KiffError::Protocol(
            "replication stream closed awaiting ack".into(),
        )),
    }
}

enum AckOutcome {
    Ack,
    NotLeader(Value),
    Gone,
}

fn await_ack(stream: &mut TcpStream, stop: &AtomicBool) -> Result<AckOutcome, KiffError> {
    match read_polled(stream, stop, Some(Instant::now() + EXCHANGE_TIMEOUT))? {
        Ok(frame) => match frame_type(&frame) {
            "ack" => Ok(AckOutcome::Ack),
            "not_leader" => Ok(AckOutcome::NotLeader(frame)),
            other => Err(KiffError::Protocol(format!("expected ack, got {other:?}"))),
        },
        Err(Fill::Expired) => Err(KiffError::Protocol("replication ack timed out".into())),
        Err(_) => Ok(AckOutcome::Gone),
    }
}

fn handle_not_leader(shared: &Arc<Shared>, repl: &Arc<ReplState>, frame: &Value) {
    let epoch = field_u64(frame, "epoch");
    if epoch > repl.epoch() {
        adopt(shared, repl, epoch, field_str(frame, "leader"));
    }
}

/// Bounded last-chance drain on graceful shutdown, called by
/// `Server::run` after every worker and replication thread has joined
/// (so the WAL can no longer advance). A stream torn moments before
/// the flag flipped leaves acked batches only in this WAL — the
/// supervisor had no time to redial — so a leading daemon re-dials
/// each lagging peer and ships the missing tail from disk, retrying
/// torn attempts until [`FINAL_DRAIN_TIMEOUT`].
pub(crate) fn final_drain(shared: &Arc<Shared>, repl: &Arc<ReplState>) {
    if repl.role() != Role::Primary {
        return;
    }
    let my_seq = shared.lock_host().store_seq();
    let deadline = Instant::now() + FINAL_DRAIN_TIMEOUT;
    for peer in repl.other_peers() {
        while Instant::now() < deadline {
            // Unreachable peer, a peer that moved the group to a newer
            // epoch, or one already caught up: nothing left to ship.
            let Ok(health) = poll_health(&peer) else {
                break;
            };
            if health.epoch > repl.epoch() || health.seq >= my_seq {
                break;
            }
            let Some(peer_repl) = health.repl_addr else {
                break;
            };
            if final_catch_up(shared, repl, &peer_repl, my_seq).is_err() {
                // Torn mid-drain (a failpoint or a real reset); the
                // next round restarts from the peer's new ack point.
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// One catch-up dial for [`final_drain`]: hello at our current seq,
/// then every WAL batch past the replica's ack point. Runs with the
/// shutdown flag already set, so frame reads poll a local never-set
/// stop and rely on the `EXCHANGE_TIMEOUT` deadlines instead.
fn final_catch_up(
    shared: &Arc<Shared>,
    repl: &Arc<ReplState>,
    peer_repl: &str,
    my_seq: u64,
) -> Result<(), KiffError> {
    let stop = AtomicBool::new(false);
    let Some((mut stream, mut last_sent)) = open_stream(shared, repl, peer_repl, my_seq, &stop)?
    else {
        return Ok(());
    };
    if last_sent < my_seq {
        let depth = AtomicU64::new(0);
        catch_up(
            &mut stream,
            shared,
            repl,
            peer_repl,
            &mut last_sent,
            &depth,
            &stop,
        )?;
    }
    Ok(())
}

// ------------------------------------------------------ failover (monitor)

/// Whether a failed election-round health poll *proves* the peer's
/// daemon is down. An active refusal (refused/reset/aborted) means
/// something on the peer's host answered and said nobody is listening;
/// a timeout or routing failure proves nothing — the peer may be alive
/// and serving on the far side of a partition.
fn peer_confirmed_down(err: &KiffError) -> bool {
    matches!(err, KiffError::Io(e) if matches!(
        e.kind(),
        std::io::ErrorKind::ConnectionRefused
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
    ))
}

/// Whether an election round resolved enough of the group to decide
/// safely: this daemon plus every peer that either answered `health`
/// or is provably down must form a strict majority, so two partitioned
/// minorities can never both promote.
fn election_quorum(resolved_peers: usize, group_size: usize) -> bool {
    (resolved_peers + 1) * 2 > group_size
}

/// Replica-side failure monitor: after four silent heartbeat intervals
/// it polls every peer's `health`; if the round resolves a majority of
/// the group, no live primary with a current epoch answers, and no
/// other replica is further ahead, it promotes — bumping the epoch and
/// snapshotting the fence before taking writes.
fn run_monitor(shared: &Arc<Shared>, repl: &Arc<ReplState>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        sleep_poll(&shared.shutdown, repl.heartbeat());
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if repl.role() != Role::Replica {
            continue;
        }
        if repl.silent_for() < repl.heartbeat() * SUSPECT_AFTER {
            continue;
        }
        shared.telemetry.counter("serve.elections").incr();
        let mut found_leader = false;
        let mut resolved = 0usize;
        let mut rivals: Vec<(u64, String)> = Vec::new();
        let peers = repl.other_peers();
        let group_size = peers.len() + 1;
        for peer in peers {
            let health = match poll_health(&peer) {
                Ok(health) => {
                    resolved += 1;
                    health
                }
                Err(e) => {
                    if peer_confirmed_down(&e) {
                        resolved += 1;
                    }
                    continue;
                }
            };
            if health.role.as_deref() == Some("primary") && health.epoch >= repl.epoch() {
                // The primary is alive (we just could not hear it) or a
                // rival already won; wait for its stream.
                if health.epoch > repl.epoch() {
                    adopt(shared, repl, health.epoch, Some(peer.clone()));
                } else {
                    repl.set_leader_hint(Some(peer.clone()));
                    repl.touch();
                }
                found_leader = true;
                break;
            }
            if health.role.as_deref() == Some("replica") {
                rivals.push((health.seq, peer));
            }
        }
        if found_leader {
            continue;
        }
        if !election_quorum(resolved, group_size) {
            // Cut off from too much of the group — the unreachable
            // peers (and possibly the real primary) may be alive across
            // a partition, so self-promoting here would split the
            // brain. The round is inconclusive; keep retrying.
            shared
                .telemetry
                .counter("serve.elections_inconclusive")
                .incr();
            continue;
        }
        let my_seq = shared.lock_host().store_seq();
        let me = repl.advertise().to_string();
        // Deterministic election: the reachable replica with the most
        // applied WAL wins; ties break to the smallest address. Both
        // sides compute the same winner from the same health polls.
        let wins = rivals
            .iter()
            .all(|(seq, addr)| *seq < my_seq || (*seq == my_seq && *addr > me));
        if !wins {
            continue;
        }
        let mut host = shared.lock_host();
        if repl.role() != Role::Replica {
            continue;
        }
        let new_epoch = repl.epoch() + 1;
        // Persist the fence before the first write of the new reign:
        // promote() snapshots the bumped epoch, so even if we crash and
        // recover, the old primary's frames stay fenced.
        if host.promote(new_epoch).is_err() {
            shared.telemetry.counter("serve.promote_failures").incr();
            continue;
        }
        repl.set_epoch(new_epoch);
        repl.set_role(Role::Primary);
        repl.set_leader_hint(Some(me));
        repl.set_lag(0);
        shared.telemetry.counter("serve.promotions").incr();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_builder_covers_every_knob() {
        let config = ReplicationConfig::new("127.0.0.1:0")
            .replica_of("127.0.0.1:9001")
            .with_peers(vec!["127.0.0.1:9001".into(), "127.0.0.1:9002".into()])
            .with_heartbeat(Duration::from_millis(50))
            .with_ack_timeout(Duration::from_millis(200));
        assert_eq!(config.replica_of.as_deref(), Some("127.0.0.1:9001"));
        assert_eq!(config.peers.len(), 2);
        assert_eq!(config.heartbeat, Duration::from_millis(50));
        assert_eq!(config.ack_timeout, Duration::from_millis(200));
    }

    #[test]
    fn repl_state_tracks_role_epoch_and_leader_hint() {
        let config = ReplicationConfig::new("127.0.0.1:0").replica_of("127.0.0.1:9001");
        let state = ReplState::new(
            config,
            "127.0.0.1:7000".into(),
            "127.0.0.1:9002".into(),
            3,
            Registry::new(),
        );
        assert_eq!(state.role(), Role::Replica);
        assert_eq!(state.epoch(), 3);
        assert_eq!(state.leader_hint().as_deref(), Some("127.0.0.1:9001"));
        state.set_epoch(4);
        state.set_role(Role::Primary);
        state.set_leader_hint(Some("127.0.0.1:9002".into()));
        assert_eq!(state.role(), Role::Primary);
        assert_eq!(state.epoch(), 4);
        assert_eq!(Role::Primary.as_str(), "primary");
        assert_eq!(Role::Replica.as_str(), "replica");
    }

    #[test]
    fn other_peers_includes_primary_and_skips_self() {
        let config = ReplicationConfig::new("127.0.0.1:0")
            .replica_of("127.0.0.1:9001")
            .with_peers(vec![
                "127.0.0.1:9001".into(),
                "127.0.0.1:9002".into(),
                "127.0.0.1:9003".into(),
            ]);
        let state = ReplState::new(
            config,
            "127.0.0.1:7000".into(),
            "127.0.0.1:9002".into(),
            0,
            Registry::new(),
        );
        let peers = state.other_peers();
        assert!(peers.contains(&"127.0.0.1:9001".to_string()));
        assert!(peers.contains(&"127.0.0.1:9003".to_string()));
        assert!(
            !peers.contains(&"127.0.0.1:9002".to_string()),
            "self skipped"
        );
    }

    #[test]
    fn frames_roundtrip_over_a_socket_pair() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let sender = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            write_frame(
                &mut stream,
                &json!({"t": "heartbeat", "epoch": 7u64, "seq": 42u64, "lag": 1u64}),
            )
            .unwrap();
        });
        let (mut stream, _) = listener.accept().unwrap();
        let frame = read_frame(&mut stream).unwrap();
        assert_eq!(frame_type(&frame), "heartbeat");
        assert_eq!(field_u64(&frame, "epoch"), 7);
        assert_eq!(field_u64(&frame, "seq"), 42);
        sender.join().unwrap();
    }

    #[test]
    fn corrupt_frames_are_rejected_by_checksum() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let sender = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            let body = br#"{"t":"ack","seq":1}"#;
            let mut buf = Vec::new();
            buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
            buf.extend_from_slice(&(crc32(body) ^ 0xdead_beef).to_le_bytes());
            buf.extend_from_slice(body);
            stream.write_all(&buf).unwrap();
        });
        let (mut stream, _) = listener.accept().unwrap();
        let err = read_frame(&mut stream).unwrap_err();
        assert_eq!(err.kind(), "corrupt");
        sender.join().unwrap();
    }

    /// `len · crc32 · JSON` bytes of one replication frame.
    fn frame_bytes(frame: &Value) -> Vec<u8> {
        let text = serde_json::to_string(frame).unwrap();
        let mut bytes = (text.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&crc32(text.as_bytes()).to_le_bytes());
        bytes.extend_from_slice(text.as_bytes());
        bytes
    }

    #[test]
    fn polled_frames_assemble_end_cleanly_and_tear_as_protocol_errors() {
        use crate::wire::tests::{dribble, idle, Scripted};

        let frame = json!({"t": "heartbeat", "epoch": 7u64, "seq": 42u64, "lag": 1u64});
        let bytes = frame_bytes(&frame);
        let stop = AtomicBool::new(false);
        // Split over many short reads, timeouts and interruptions.
        let mut r = dribble(bytes.clone(), true);
        assert_eq!(read_polled(&mut r, &stop, None).unwrap().unwrap(), frame);
        // EOF before the first header byte is a clean end.
        assert_eq!(read_polled(&mut r, &stop, None).unwrap(), Err(Fill::Eof(0)));

        // EOF inside the header or the body.
        for cut in [3, bytes.len() - 2] {
            let err = read_polled(&mut &bytes[..cut], &stop, None).unwrap_err();
            assert_eq!(err.kind(), "protocol", "torn at byte {cut}");
        }
        // The stop flag or the deadline inside the body.
        let deadline = Instant::now() + Duration::from_millis(20);
        for (stop_at, deadline) in [(Some(2), None), (None, Some(deadline))] {
            let (stop, mut reads, mut quiet) = (AtomicBool::new(false), 0, idle());
            let mut r = Scripted(|buf: &mut [u8]| {
                reads += 1;
                if reads == 1 {
                    buf[..8].copy_from_slice(&bytes[..8]);
                    return Ok(8);
                }
                if Some(reads) == stop_at {
                    stop.store(true, Ordering::SeqCst);
                }
                quiet.read(buf)
            });
            let err = read_polled(&mut r, &stop, deadline).unwrap_err();
            assert_eq!(err.kind(), "protocol");
        }

        // The flag or the deadline while the stream is idle ends the
        // read before a frame.
        let soon = Some(Instant::now() + Duration::from_millis(20));
        assert_eq!(
            read_polled(&mut idle(), &stop, soon).unwrap(),
            Err(Fill::Expired)
        );
        stop.store(true, Ordering::SeqCst);
        assert_eq!(
            read_polled(&mut idle(), &stop, None).unwrap(),
            Err(Fill::Stopped)
        );

        // An oversized length is refused from the header alone.
        let mut oversized = (MAX_FRAME + 1).to_le_bytes().to_vec();
        oversized.extend_from_slice(&[0; 4]);
        oversized.extend_from_slice(b"xx");
        let mut r = oversized.as_slice();
        let err = read_polled(&mut r, &AtomicBool::new(false), None).unwrap_err();
        assert_eq!(err.kind(), "corrupt");
        assert_eq!(r, b"xx", "nothing past the header was read");
    }

    #[test]
    fn publish_to_a_dead_subscriber_prunes_it_without_blocking() {
        let state = ReplState::new(
            ReplicationConfig::new("127.0.0.1:0").with_ack_timeout(Duration::from_millis(20)),
            "127.0.0.1:7000".into(),
            "127.0.0.1:9000".into(),
            0,
            Registry::new(),
        );
        let sub = state.subscribe();
        drop(sub);
        let started = Instant::now();
        state.publish_and_wait(1, 1, &[Update::AddUser]).unwrap();
        assert!(
            started.elapsed() < Duration::from_millis(250),
            "dead subscriber must not cost an ack timeout"
        );
        assert!(relock(state.subscribers.lock()).is_empty(), "pruned");
    }

    #[test]
    fn publish_waits_for_live_subscriber_acks() {
        let state = Arc::new(ReplState::new(
            ReplicationConfig::new("127.0.0.1:0").with_ack_timeout(Duration::from_secs(2)),
            "127.0.0.1:7000".into(),
            "127.0.0.1:9000".into(),
            0,
            Registry::new(),
        ));
        let sub = state.subscribe();
        let worker = std::thread::spawn(move || {
            let batch = sub.rx.recv().unwrap();
            assert_eq!(batch.first_seq, 5);
            assert_eq!(batch.batch_id, 9);
            sub.depth.fetch_sub(1, Ordering::SeqCst);
            batch.ack.send(()).unwrap();
        });
        state.publish_and_wait(5, 9, &[Update::AddUser]).unwrap();
        worker.join().unwrap();
        assert_eq!(state.lag(), 0, "acked batch leaves no lag");
    }

    #[test]
    fn min_sync_replicas_fails_an_unreplicated_write() {
        let state = ReplState::new(
            ReplicationConfig::new("127.0.0.1:0")
                .with_ack_timeout(Duration::from_millis(20))
                .with_min_sync_replicas(1),
            "127.0.0.1:7000".into(),
            "127.0.0.1:9000".into(),
            0,
            Registry::new(),
        );
        // No subscriber at all: zero acks < 1 required.
        let err = state
            .publish_and_wait(1, 1, &[Update::AddUser])
            .unwrap_err();
        assert_eq!(err.kind(), "unavailable");
        assert!(err.is_retryable(), "the client must retry, not give up");
        // The dedup path's gate agrees while no stream is attached...
        assert!(state.require_min_sync().is_err());
        // ...and clears once one is.
        let sub = state.subscribe();
        assert!(state.require_min_sync().is_ok());
        // A subscriber that acks in time satisfies the minimum.
        let worker = std::thread::spawn(move || {
            let batch = sub.rx.recv().unwrap();
            sub.depth.fetch_sub(1, Ordering::SeqCst);
            batch.ack.send(()).unwrap();
        });
        state.publish_and_wait(2, 2, &[Update::AddUser]).unwrap();
        worker.join().unwrap();
    }

    #[test]
    fn min_sync_replicas_fails_when_the_ack_times_out() {
        let state = ReplState::new(
            ReplicationConfig::new("127.0.0.1:0")
                .with_ack_timeout(Duration::from_millis(20))
                .with_min_sync_replicas(1),
            "127.0.0.1:7000".into(),
            "127.0.0.1:9000".into(),
            0,
            Registry::new(),
        );
        // Subscriber attached but silent: the ack wait expires.
        let sub = state.subscribe();
        let err = state
            .publish_and_wait(1, 1, &[Update::AddUser])
            .unwrap_err();
        assert_eq!(err.kind(), "unavailable");
        drop(sub);
    }

    #[test]
    fn closed_subscriptions_stop_counting_toward_lag() {
        let state = ReplState::new(
            ReplicationConfig::new("127.0.0.1:0"),
            "127.0.0.1:7000".into(),
            "127.0.0.1:9000".into(),
            0,
            Registry::new(),
        );
        let sub = state.subscribe();
        sub.depth.store(7, Ordering::SeqCst);
        assert_eq!(state.lag(), 7, "live queue depth counts");
        // The streaming thread dies with batches still queued: closing
        // zeroes the slot and lag() prunes the subscriber.
        sub.close();
        assert_eq!(state.lag(), 0, "dead queue depth does not");
        assert!(relock(state.subscribers.lock()).is_empty(), "pruned");
    }

    #[test]
    fn election_quorum_needs_a_resolved_majority() {
        // Two-node group: the lone replica decides alone only once the
        // primary is provably down (resolved), never on pure silence.
        assert!(election_quorum(1, 2));
        assert!(!election_quorum(0, 2));
        // Three-node group: one resolved peer plus self is a majority;
        // resolving nobody is not.
        assert!(election_quorum(1, 3));
        assert!(!election_quorum(0, 3));
        // Five-node group: two resolved peers plus self.
        assert!(election_quorum(2, 5));
        assert!(!election_quorum(1, 5));
        // Degenerate single-node group: always decisive.
        assert!(election_quorum(0, 1));
    }

    #[test]
    fn refusal_confirms_a_peer_down_but_a_timeout_does_not() {
        let refused = KiffError::Io(std::io::Error::from(std::io::ErrorKind::ConnectionRefused));
        assert!(peer_confirmed_down(&refused));
        let reset = KiffError::Io(std::io::Error::from(std::io::ErrorKind::ConnectionReset));
        assert!(peer_confirmed_down(&reset));
        let timed_out = KiffError::Io(std::io::Error::from(std::io::ErrorKind::TimedOut));
        assert!(
            !peer_confirmed_down(&timed_out),
            "a partition looks like a timeout; the peer may be alive"
        );
        let unreachable = KiffError::Io(std::io::Error::from(std::io::ErrorKind::HostUnreachable));
        assert!(!peer_confirmed_down(&unreachable));
        let protocol = KiffError::Protocol("garbled health".into());
        assert!(!peer_confirmed_down(&protocol));
    }
}
