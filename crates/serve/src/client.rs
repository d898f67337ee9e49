//! Clients for the `kiff-serve` wire protocol.
//!
//! [`Client`] is the raw blocking connection and the one home of the
//! typed helpers (`neighbors`, `health`, `update_batch`, …): one request
//! in flight, [`Client::request`] writes a frame and blocks for the
//! answer. Server-side failures come back as [`KiffError::Remote`]
//! carrying the server's error `kind` tag *and* the failing op, so a
//! caller can branch on the failure class — `unavailable` vs
//! `overloaded` vs `corrupt` — across the wire.
//!
//! [`SelfHealingClient`] is the retrying client. It takes the client
//! ports of a replication group — a standalone daemon is a group of
//! one — and runs any `Client` helper through one retried entry point,
//! [`SelfHealingClient::call`]:
//!
//! * **Leader routing** — discovery polls every endpoint's `health` and
//!   takes the `primary` with the newest epoch (a standalone daemon,
//!   which reports no role, counts). A `NotPrimary` refusal's leader
//!   hint routes the next attempt; a transport error forgets the
//!   leader, so the next attempt discovers it again.
//! * **Backoff** — exponential with deterministic seeded jitter
//!   ([`RetryPolicy`]); the same seed reproduces the same retry timing,
//!   which keeps chaos tests replayable.
//! * **Reconnect** — a torn connection (server killed it, network blip)
//!   is dropped and redialled on the next attempt.
//! * **Idempotent writes** — every update batch carries a
//!   client-assigned id from a monotonic counter seeded once, off the
//!   first leader's applied high-water mark (via `health`). If an
//!   acknowledgement is lost and the batch is retried — on the same
//!   daemon or on a newly promoted one — the server recognises the id
//!   and answers `deduped` instead of applying it twice: the
//!   exactly-once half of the fault-tolerance story, proven by the
//!   chaos proptests in `tests/serve_faults.rs` and
//!   `tests/serve_replica.rs`.
//!
//! Only [`KiffError::is_retryable`] failures are retried: a malformed
//! request or an unknown user fails identically every time and is
//! returned immediately, on the connection it arrived on.

use std::net::TcpStream;
use std::time::Duration;

use kiff_core::fault::xorshift64;
use kiff_core::KiffError;
use kiff_graph::Neighbor;
use kiff_online::Update;
use serde_json::Value;

use crate::wire::{read_frame, write_frame, Request};

/// A connected client.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
}

fn protocol(msg: impl Into<String>) -> KiffError {
    KiffError::Protocol(msg.into())
}

/// A decoded `health` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Health {
    /// `healthy`, `degraded`, or `recovering`.
    pub status: String,
    /// Last persisted sequence (`None` on a storeless daemon).
    pub seq: Option<u64>,
    /// Applied-batch high-water mark (0 = no batch ids seen).
    pub batch_hwm: u64,
    /// Seconds since the last successful WAL append.
    pub wal_age_secs: Option<u64>,
    /// Seconds since the last snapshot.
    pub snapshot_age_secs: Option<u64>,
    /// `primary` or `replica` (`None` on a standalone daemon).
    pub role: Option<String>,
    /// Replication leadership epoch (0 when standalone).
    pub epoch: u64,
    /// Batches the daemon lags behind its primary (0 on the primary:
    /// its deepest per-replica queue).
    pub replication_lag: u64,
    /// The daemon's replication-channel address, when replicating.
    pub repl_addr: Option<String>,
}

/// A decoded `update` acknowledgement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateAck {
    /// Updates applied by this request (0 when deduped).
    pub applied: u64,
    /// Whether the server recognised the batch id as already applied.
    pub deduped: bool,
    /// The WAL sequence after the batch (`None` on a storeless daemon).
    pub seq: Option<u64>,
}

impl Client {
    /// Connects to a daemon at `addr` (`host:port`).
    pub fn connect(addr: &str) -> Result<Self, KiffError> {
        let stream = TcpStream::connect(addr).map_err(KiffError::Io)?;
        stream.set_nodelay(true).map_err(KiffError::Io)?;
        Ok(Self { stream })
    }

    /// Sends `request` and returns the decoded response body. An
    /// `"ok": false` response is mapped to [`KiffError::Remote`].
    pub fn request(&mut self, request: &Request) -> Result<Value, KiffError> {
        write_frame(&mut self.stream, &request.to_value())?;
        let response = read_frame(&mut self.stream)?.ok_or_else(|| {
            // The server vanished between our frame and its answer — a
            // transport failure the self-healing client must retry.
            KiffError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))
        })?;
        let ok = response
            .get("ok")
            .and_then(Value::as_bool)
            .ok_or_else(|| protocol("response missing `ok`"))?;
        if ok {
            return Ok(response);
        }
        let error = response.get("error");
        let kind = error
            .and_then(|e| e.get("kind"))
            .and_then(Value::as_str)
            .unwrap_or("unknown")
            .to_string();
        let op = error
            .and_then(|e| e.get("op"))
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string();
        let message = error
            .and_then(|e| e.get("message"))
            .and_then(Value::as_str)
            .unwrap_or("unspecified server error")
            .to_string();
        if kind == "not_primary" {
            // Rebuild the typed refusal so a failover-aware caller can
            // read the leader hint without string-matching the message.
            let leader = error
                .and_then(|e| e.get("leader"))
                .and_then(Value::as_str)
                .map(String::from);
            return Err(KiffError::NotPrimary { leader });
        }
        Err(KiffError::Remote { kind, op, message })
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), KiffError> {
        self.request(&Request::Ping).map(|_| ())
    }

    /// `user`'s current neighbours, best first.
    pub fn neighbors(&mut self, user: u32) -> Result<Vec<Neighbor>, KiffError> {
        let response = self.request(&Request::Neighbors { user })?;
        response
            .get("neighbors")
            .and_then(Value::as_array)
            .ok_or_else(|| protocol("response missing `neighbors`"))?
            .iter()
            .map(|nb| {
                let id = nb
                    .get("id")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| protocol("neighbor missing `id`"))?
                    as u32;
                let sim = nb
                    .get("sim")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| protocol("neighbor missing `sim`"))?;
                Ok(Neighbor { id, sim })
            })
            .collect()
    }

    /// Top-`top` item recommendations for `user`, as `(item, score)`.
    pub fn recommend(&mut self, user: u32, top: usize) -> Result<Vec<(u32, f64)>, KiffError> {
        let response = self.request(&Request::Recommend { user, top })?;
        pairs(&response, "recommendations", "item", "score")
    }

    /// Predicted rating of `item` by `user` (`None` = no basis).
    pub fn predict(&mut self, user: u32, item: u32) -> Result<Option<f64>, KiffError> {
        let response = self.request(&Request::Predict { user, item })?;
        match response
            .field("prediction")
            .map_err(|_| protocol("response missing `prediction`"))?
        {
            Value::Null => Ok(None),
            v => v
                .as_f64()
                .map(Some)
                .ok_or_else(|| protocol("non-numeric prediction")),
        }
    }

    /// The `top` users most interested in `item`, as `(user, score)`.
    pub fn audience(&mut self, item: u32, top: usize) -> Result<Vec<(u32, f64)>, KiffError> {
        let response = self.request(&Request::Audience { item, top })?;
        pairs(&response, "audience", "user", "score")
    }

    /// Users most similar to the ad-hoc profile `items`.
    pub fn search(
        &mut self,
        items: &[(u32, f32)],
        top: usize,
    ) -> Result<Vec<(u32, f64)>, KiffError> {
        let response = self.request(&Request::Search {
            items: items.to_vec(),
            top,
        })?;
        pairs(&response, "hits", "user", "sim")
    }

    /// Applies `updates` (persisted server-side first); returns the
    /// number applied.
    pub fn update(&mut self, updates: &[Update]) -> Result<u64, KiffError> {
        self.update_batch(updates, 0).map(|ack| ack.applied)
    }

    /// Applies `updates` carrying the idempotence id `batch` (0 = none).
    pub fn update_batch(&mut self, updates: &[Update], batch: u64) -> Result<UpdateAck, KiffError> {
        let response = self.request(&Request::Update {
            updates: updates.to_vec(),
            batch,
        })?;
        let applied = response
            .get("applied")
            .and_then(Value::as_u64)
            .ok_or_else(|| protocol("response missing `applied`"))?;
        let deduped = response
            .get("deduped")
            .and_then(Value::as_bool)
            .unwrap_or(false);
        let seq = response.get("seq").and_then(Value::as_u64);
        Ok(UpdateAck {
            applied,
            deduped,
            seq,
        })
    }

    /// Engine lifetime statistics as a raw JSON object.
    pub fn stats(&mut self) -> Result<Value, KiffError> {
        self.request(&Request::Stats)
    }

    /// The daemon's health tristate plus progress marks.
    pub fn health(&mut self) -> Result<Health, KiffError> {
        let response = self.request(&Request::Health)?;
        let status = response
            .get("status")
            .and_then(Value::as_str)
            .ok_or_else(|| protocol("response missing `status`"))?
            .to_string();
        Ok(Health {
            status,
            seq: response.get("seq").and_then(Value::as_u64),
            batch_hwm: response
                .get("batch_hwm")
                .and_then(Value::as_u64)
                .unwrap_or(0),
            wal_age_secs: response.get("wal_age_secs").and_then(Value::as_u64),
            snapshot_age_secs: response.get("snapshot_age_secs").and_then(Value::as_u64),
            role: response
                .get("role")
                .and_then(Value::as_str)
                .map(String::from),
            epoch: response.get("epoch").and_then(Value::as_u64).unwrap_or(0),
            replication_lag: response
                .get("replication_lag_batches")
                .and_then(Value::as_u64)
                .unwrap_or(0),
            repl_addr: response
                .get("repl_addr")
                .and_then(Value::as_str)
                .map(String::from),
        })
    }

    /// The daemon's telemetry snapshot as a raw JSON object.
    pub fn metrics(&mut self) -> Result<Value, KiffError> {
        let response = self.request(&Request::Metrics)?;
        response
            .get("metrics")
            .cloned()
            .ok_or_else(|| protocol("response missing `metrics`"))
    }

    /// Forces a snapshot; returns the covered sequence number.
    pub fn snapshot(&mut self) -> Result<u64, KiffError> {
        let response = self.request(&Request::Snapshot)?;
        response
            .get("seq")
            .and_then(Value::as_u64)
            .ok_or_else(|| protocol("response missing `seq`"))
    }

    /// Asks the daemon to shut down gracefully.
    pub fn shutdown(&mut self) -> Result<(), KiffError> {
        self.request(&Request::Shutdown).map(|_| ())
    }
}

fn pairs(
    response: &Value,
    field: &str,
    key: &str,
    value: &str,
) -> Result<Vec<(u32, f64)>, KiffError> {
    response
        .get(field)
        .and_then(Value::as_array)
        .ok_or_else(|| protocol(format!("response missing `{field}`")))?
        .iter()
        .map(|entry| {
            let k = entry
                .get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| protocol(format!("entry missing `{key}`")))?
                as u32;
            let v = entry
                .get(value)
                .and_then(Value::as_f64)
                .ok_or_else(|| protocol(format!("entry missing `{value}`")))?;
            Ok((k, v))
        })
        .collect()
}

/// Retry discipline for [`SelfHealingClient`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts per operation (first try included).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per further retry.
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
    /// Jitter seed — the same seed reproduces the same retry timing.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 8,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(500),
            seed: 42,
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry number `retry` (1-based): exponential,
    /// capped at `max_delay`, scaled by a deterministic jitter in
    /// `[0.5, 1.0)` drawn from `rng`. Jitter decorrelates a fleet of
    /// clients hammering a recovering daemon; determinism keeps a given
    /// seed's schedule replayable.
    pub fn delay(&self, retry: u32, rng: &mut u64) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(1u32 << retry.saturating_sub(1).min(20));
        let capped = exp.min(self.max_delay);
        let jitter = 0.5 + 0.5 * ((xorshift64(rng) >> 11) as f64 / (1u64 << 53) as f64);
        capped.mul_f64(jitter)
    }
}

/// The retrying client: survives daemon degradation, overload, torn
/// connections and primary failover (see the module docs for the full
/// discipline).
#[derive(Debug)]
pub struct SelfHealingClient {
    endpoints: Vec<String>,
    policy: RetryPolicy,
    leader: Option<String>,
    // Survives `leader = None` forgets, so a crash-failover (forget →
    // rediscover) still counts as a leader change.
    last_leader: Option<String>,
    conn: Option<Client>,
    next_batch: u64,
    rng: u64,
    retries: u64,
    reconnects: u64,
    failovers: u64,
    delays: Vec<Duration>,
}

/// Most recent backoff delays kept in [`SelfHealingClient::delay_log`].
const DELAY_LOG_CAP: usize = 64;

impl SelfHealingClient {
    /// Connects to a group given its client-port `endpoints` (one
    /// endpoint for a standalone daemon: `&[&addr]`), finds the leader,
    /// and seeds the batch-id counter just past its applied high-water
    /// mark, so this client's ids never collide with batches a previous
    /// client already landed.
    pub fn connect(endpoints: &[impl AsRef<str>], policy: RetryPolicy) -> Result<Self, KiffError> {
        let rng = policy.seed | 1;
        let mut client = Self {
            endpoints: endpoints.iter().map(|e| e.as_ref().to_string()).collect(),
            policy,
            leader: None,
            last_leader: None,
            conn: None,
            next_batch: 1,
            rng,
            retries: 0,
            reconnects: 0,
            failovers: 0,
            delays: Vec::new(),
        };
        let health = client.call(Client::health)?;
        client.next_batch = health.batch_hwm + 1;
        Ok(client)
    }

    /// The client address requests currently route to, if known.
    pub fn leader(&self) -> Option<&str> {
        self.leader.as_deref()
    }

    /// Leader changes observed since connect.
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// Retries attempted so far (observability for tests and benches).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Dials of the leader connection so far, the first one included
    /// (discovery probes are not counted).
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// The id the next update batch will carry.
    pub fn next_batch(&self) -> u64 {
        self.next_batch
    }

    /// The most recent backoff delays slept (newest last, capped at 64
    /// entries) — lets tests assert the schedule resets after a success
    /// and replays exactly under a fixed seed.
    pub fn delay_log(&self) -> &[Duration] {
        &self.delays
    }

    /// Routes the next attempt to `addr`. Only called without a live
    /// connection: a forgotten leader never keeps one.
    fn note_leader(&mut self, addr: String) {
        if self.last_leader.as_deref().is_some_and(|old| old != addr) {
            self.failovers += 1;
        }
        self.last_leader = Some(addr.clone());
        self.leader = Some(addr);
    }

    /// Polls every endpoint's `health` and elects the answer with the
    /// newest epoch whose role is `primary` (a standalone daemon — no
    /// role — also counts: the group may not be replicated yet).
    fn discover(&mut self) -> Result<(), KiffError> {
        let mut best: Option<(u64, &String)> = None;
        for addr in &self.endpoints {
            let Ok(health) = Client::connect(addr).and_then(|mut probe| probe.health()) else {
                continue;
            };
            let leads = matches!(health.role.as_deref(), Some("primary") | None);
            if leads && best.is_none_or(|(epoch, _)| health.epoch > epoch) {
                best = Some((health.epoch, addr));
            }
        }
        let (_, addr) = best.ok_or_else(|| KiffError::Unavailable {
            op: "discover".into(),
            detail: "no primary reachable on any endpoint".into(),
        })?;
        self.note_leader(addr.clone());
        Ok(())
    }

    fn leader_conn(&mut self) -> Result<&mut Client, KiffError> {
        if self.conn.is_none() {
            if self.leader.is_none() {
                self.discover()?;
            }
            let addr = self.leader.as_deref().expect("discovered above");
            // An unreachable leader is forgotten, so the next attempt
            // re-discovers.
            let conn = Client::connect(addr).inspect_err(|_| self.leader = None)?;
            self.conn = Some(conn);
            self.reconnects += 1;
        }
        Ok(self.conn.as_mut().expect("connected above"))
    }

    /// Runs `op` — any [`Client`] helper, e.g. `call(|c| c.neighbors(u))`
    /// — against the leader, retrying retryable failures with backoff.
    /// A `NotPrimary` hint routes the next attempt; a transport error
    /// drops the connection and forgets the leader. A non-retryable
    /// error returns at once, and a remote one (the server answered)
    /// leaves the connection in place. The last error is returned once
    /// attempts are exhausted.
    pub fn call<T>(
        &mut self,
        mut op: impl FnMut(&mut Client) -> Result<T, KiffError>,
    ) -> Result<T, KiffError> {
        let mut retry = 0u32;
        loop {
            let err = match self.leader_conn().and_then(&mut op) {
                Ok(v) => return Ok(v),
                Err(e) => e,
            };
            match &err {
                // The server answered; the connection and leadership
                // are fine — the failure is the op's own.
                KiffError::Remote { .. } => {}
                // A refusal naming the leader routes the next attempt.
                KiffError::NotPrimary { leader: Some(addr) } => {
                    self.conn = None;
                    self.note_leader(addr.clone());
                }
                // Transport trouble, or a refusal without a hint: the
                // stream state is unknown and the leader may be the
                // casualty, so the next attempt re-discovers.
                _ => {
                    self.conn = None;
                    self.leader = None;
                }
            }
            retry += 1;
            if !err.is_retryable() || retry >= self.policy.max_attempts {
                return Err(err);
            }
            self.retries += 1;
            let delay = self.policy.delay(retry, &mut self.rng);
            if self.delays.len() == DELAY_LOG_CAP {
                self.delays.remove(0);
            }
            self.delays.push(delay);
            std::thread::sleep(delay);
        }
    }

    /// Applies `updates` exactly once, across retries and failovers: the
    /// batch id is assigned up front and the counter advances only after
    /// success, so a batch replayed after a lost acknowledgement — to the
    /// same daemon or a newly promoted one — is deduped by the
    /// replicated high-water mark, and a batch that exhausts its retries
    /// can be re-submitted under the same id.
    pub fn update(&mut self, updates: &[Update]) -> Result<UpdateAck, KiffError> {
        let batch = self.next_batch;
        let ack = self.call(|c| c.update_batch(updates, batch))?;
        self.next_batch = batch + 1;
        Ok(ack)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_exponential_capped_and_deterministic() {
        let policy = RetryPolicy::default();
        let mut rng_a = policy.seed | 1;
        let mut rng_b = policy.seed | 1;
        let a: Vec<Duration> = (1..=7).map(|r| policy.delay(r, &mut rng_a)).collect();
        let b: Vec<Duration> = (1..=7).map(|r| policy.delay(r, &mut rng_b)).collect();
        assert_eq!(a, b, "same seed, same schedule");
        // Jitter keeps every delay within [0.5, 1.0) of the exponential.
        for (i, d) in a.iter().enumerate() {
            let exp = policy
                .base_delay
                .saturating_mul(1u32 << i)
                .min(policy.max_delay);
            assert!(*d >= exp.mul_f64(0.5) && *d < exp, "retry {}: {d:?}", i + 1);
        }
        // The cap binds from retry 7 on (10ms * 2^6 = 640ms > 500ms).
        assert!(a[6] <= policy.max_delay);
    }

    use crate::server::{EngineHost, Server};
    use kiff_core::fault::{self, points, Trigger};
    use kiff_dataset::dataset::figure2_toy;
    use kiff_online::{OnlineConfig, OnlineKnn};
    use kiff_telemetry::Registry;

    fn spawn_toy_daemon() -> (std::thread::JoinHandle<Result<(), KiffError>>, String) {
        let ds = figure2_toy();
        let reg = Registry::new();
        let config = OnlineConfig::new(2).with_telemetry(reg.clone());
        let engine = Box::new(OnlineKnn::new(&ds, config));
        let host = EngineHost::new(engine, None, reg);
        let server = Server::bind("127.0.0.1:0", host).unwrap();
        let addr = server.local_addr().to_string();
        (std::thread::spawn(move || server.run()), addr)
    }

    fn fast_policy(seed: u64) -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(16),
            seed,
        }
    }

    #[test]
    fn backoff_schedule_resets_after_success() {
        let (daemon, addr) = spawn_toy_daemon();
        let policy = fast_policy(7);
        let mut client = SelfHealingClient::connect(&[&addr], policy.clone()).unwrap();
        for round in 0..2usize {
            // One torn response per round: the ping retries once, then
            // lands on a fresh connection.
            fault::arm_scoped(points::NET_WRITE, Trigger::Nth(1), &addr);
            client.call(Client::ping).unwrap();
            assert_eq!(client.delay_log().len(), round + 1, "one retry per tear");
        }
        // Both sleeps used retry number 1: the success between them
        // reset the exponential, so each delay is jittered off the base
        // step, never the doubled one.
        for d in client.delay_log() {
            assert!(
                *d >= policy.base_delay.mul_f64(0.5) && *d < policy.base_delay,
                "{d:?} is not a first-retry delay"
            );
        }
        Client::connect(&addr).unwrap().shutdown().unwrap();
        daemon.join().unwrap().unwrap();
    }

    #[test]
    fn seeded_jitter_replays_across_identical_schedules() {
        let (daemon, addr) = spawn_toy_daemon();
        let run = |addr: &str| {
            let mut client = SelfHealingClient::connect(&[addr], fast_policy(99)).unwrap();
            for _ in 0..3 {
                fault::arm_scoped(points::NET_WRITE, Trigger::Nth(1), addr);
                client.call(Client::ping).unwrap();
            }
            client.delay_log().to_vec()
        };
        let first = run(&addr);
        let second = run(&addr);
        assert_eq!(first.len(), 3);
        assert_eq!(
            first, second,
            "same seed and fault schedule must sleep identically"
        );
        Client::connect(&addr).unwrap().shutdown().unwrap();
        daemon.join().unwrap().unwrap();
    }

    /// The one retry loop's classification: a non-retryable remote error
    /// (the server answered, the op itself is at fault) returns at once,
    /// without a retry or a sleep, and keeps the connection for the next
    /// call.
    #[test]
    fn non_retryable_remote_errors_return_at_once_on_the_same_connection() {
        let (daemon, addr) = spawn_toy_daemon();
        let mut client = SelfHealingClient::connect(&[&addr], fast_policy(5)).unwrap();
        assert_eq!(
            client.leader(),
            Some(addr.as_str()),
            "a daemon of one leads"
        );
        assert_eq!(client.reconnects(), 1, "connect dialled the leader once");

        let err = client.call(|c| c.neighbors(99)).unwrap_err();
        match &err {
            KiffError::Remote { kind, op, .. } => {
                assert_eq!(kind, "unknown_user");
                assert_eq!(op, "neighbors");
            }
            other => panic!("expected a remote unknown_user error, got {other}"),
        }
        assert!(!err.is_retryable());
        assert_eq!(client.retries(), 0, "a non-retryable error is not retried");
        assert!(client.delay_log().is_empty(), "and never slept on");

        assert_eq!(client.call(|c| c.neighbors(0)).unwrap()[0].id, 1);
        assert_eq!(
            client.reconnects(),
            1,
            "the next call reused the connection"
        );
        assert_eq!(client.failovers(), 0);
        Client::connect(&addr).unwrap().shutdown().unwrap();
        daemon.join().unwrap().unwrap();
    }
}
