//! The length-prefixed JSON wire protocol.
//!
//! Frames are `u32` little-endian byte length + UTF-8 JSON. Requests
//! carry an `"op"` discriminator; responses carry `"ok": true` plus
//! op-specific fields, or `"ok": false` with an `"error"` object whose
//! `kind` is the server-side [`KiffError::kind`] tag:
//!
//! ```text
//! → {"op":"neighbors","user":3}
//! ← {"ok":true,"neighbors":[{"id":1,"sim":0.5}, …]}
//! → {"op":"neighbors","user":99}
//! ← {"ok":false,"error":{"kind":"unknown_user","message":"…"}}
//! ```
//!
//! View-served responses (`neighbors`, `recommend`, `predict`,
//! `audience`, `search`, `stats`) and update acks additionally carry a
//! `"view"` field: the monotone version of the published read view the
//! answer was computed from (or, for an ack, the version the write
//! became visible at). Clients that don't care simply ignore it —
//! parsers must tolerate unknown response fields.
//!
//! JSON (rather than a binary encoding) keeps the protocol debuggable
//! with a five-line script; the framing keeps it unambiguous over a
//! stream. Updates use a tagged representation mirroring
//! [`Update`]:
//! `{"type":"add_rating","user":u,"item":i,"rating":r}`,
//! `{"type":"add_user"}`, `{"type":"remove_rating","user":u,"item":i}`.
//!
//! Every frame this crate reads — client and daemon frames here,
//! replication frames in [`crate::replication`] — fills its buffer
//! through one loop, `fill`, which can also watch a stop flag and a
//! deadline while the socket is idle.

use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use kiff_core::KiffError;
use kiff_online::Update;
use serde_json::Value;

/// Frames larger than this are rejected as a protocol error — nothing
/// the protocol legitimately carries comes close.
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// `user`'s current neighbour list.
    Neighbors {
        /// Queried user.
        user: u32,
    },
    /// Top-`top` item recommendations for `user`.
    Recommend {
        /// Target user.
        user: u32,
        /// List length.
        top: usize,
    },
    /// Predicted rating of `item` by `user`.
    Predict {
        /// Target user.
        user: u32,
        /// Target item.
        item: u32,
    },
    /// The `top` users most interested in `item`.
    Audience {
        /// Target item.
        item: u32,
        /// List length.
        top: usize,
    },
    /// Profile search: users most similar to an ad-hoc profile.
    Search {
        /// `(item, rating)` pairs of the query profile.
        items: Vec<(u32, f32)>,
        /// Result length.
        top: usize,
    },
    /// Apply a batch of updates (persisted to the WAL first).
    Update {
        /// The mutations, in order.
        updates: Vec<Update>,
        /// Client-assigned batch id for idempotent retry (0 = none).
        /// Ids at or below the server's applied high-water mark are
        /// acknowledged without re-applying.
        batch: u64,
    },
    /// Engine lifetime statistics.
    Stats,
    /// Daemon health: `healthy | degraded | recovering`, current seq,
    /// applied-batch high-water mark, and WAL/snapshot ages.
    Health,
    /// Telemetry snapshot of the daemon's registry.
    Metrics,
    /// Force a snapshot now.
    Snapshot,
    /// Graceful daemon shutdown.
    Shutdown,
}

fn protocol(msg: impl Into<String>) -> KiffError {
    KiffError::Protocol(msg.into())
}

fn get_u32(v: &Value, key: &str) -> Result<u32, KiffError> {
    v.get(key)
        .and_then(Value::as_u64)
        .and_then(|n| u32::try_from(n).ok())
        .ok_or_else(|| protocol(format!("missing or invalid `{key}`")))
}

fn get_top(v: &Value, default: usize) -> Result<usize, KiffError> {
    match v.get("top") {
        None => Ok(default),
        Some(t) => t
            .as_u64()
            .map(|n| n as usize)
            .ok_or_else(|| protocol("invalid `top`")),
    }
}

/// Converts one [`Update`] to its wire representation.
pub fn update_to_value(update: &Update) -> Value {
    match update {
        Update::AddRating { user, item, rating } => serde_json::json!({
            "type": "add_rating",
            "user": *user,
            "item": *item,
            "rating": *rating
        }),
        Update::AddUser => serde_json::json!({"type": "add_user"}),
        Update::RemoveRating { user, item } => serde_json::json!({
            "type": "remove_rating",
            "user": *user,
            "item": *item
        }),
    }
}

/// Parses one wire update object.
pub fn update_from_value(v: &Value) -> Result<Update, KiffError> {
    let kind = v
        .get("type")
        .and_then(Value::as_str)
        .ok_or_else(|| protocol("update missing `type`"))?;
    match kind {
        "add_rating" => {
            let rating =
                v.get("rating")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| protocol("missing or invalid `rating`"))? as f32;
            if !rating.is_finite() || rating <= 0.0 {
                return Err(protocol(format!("rating {rating} must be finite positive")));
            }
            Ok(Update::AddRating {
                user: get_u32(v, "user")?,
                item: get_u32(v, "item")?,
                rating,
            })
        }
        "add_user" => Ok(Update::AddUser),
        "remove_rating" => Ok(Update::RemoveRating {
            user: get_u32(v, "user")?,
            item: get_u32(v, "item")?,
        }),
        other => Err(protocol(format!("unknown update type `{other}`"))),
    }
}

impl Request {
    /// Parses a decoded request frame.
    pub fn from_value(v: &Value) -> Result<Self, KiffError> {
        let op = v
            .get("op")
            .and_then(Value::as_str)
            .ok_or_else(|| protocol("request missing `op`"))?;
        match op {
            "ping" => Ok(Request::Ping),
            "neighbors" => Ok(Request::Neighbors {
                user: get_u32(v, "user")?,
            }),
            "recommend" => Ok(Request::Recommend {
                user: get_u32(v, "user")?,
                top: get_top(v, 10)?,
            }),
            "predict" => Ok(Request::Predict {
                user: get_u32(v, "user")?,
                item: get_u32(v, "item")?,
            }),
            "audience" => Ok(Request::Audience {
                item: get_u32(v, "item")?,
                top: get_top(v, 10)?,
            }),
            "search" => {
                let items = v
                    .get("items")
                    .and_then(Value::as_array)
                    .ok_or_else(|| protocol("missing `items`"))?
                    .iter()
                    .map(|pair| {
                        let item = pair
                            .get("item")
                            .and_then(Value::as_u64)
                            .and_then(|n| u32::try_from(n).ok())
                            .ok_or_else(|| protocol("search item missing `item`"))?;
                        let rating =
                            pair.get("rating").and_then(Value::as_f64).unwrap_or(1.0) as f32;
                        Ok((item, rating))
                    })
                    .collect::<Result<Vec<_>, KiffError>>()?;
                Ok(Request::Search {
                    items,
                    top: get_top(v, 10)?,
                })
            }
            "update" => {
                let updates = v
                    .get("updates")
                    .and_then(Value::as_array)
                    .ok_or_else(|| protocol("missing `updates`"))?
                    .iter()
                    .map(update_from_value)
                    .collect::<Result<Vec<_>, KiffError>>()?;
                let batch = match v.get("batch") {
                    None => 0,
                    Some(b) => b.as_u64().ok_or_else(|| protocol("invalid `batch`"))?,
                };
                Ok(Request::Update { updates, batch })
            }
            "stats" => Ok(Request::Stats),
            "health" => Ok(Request::Health),
            "metrics" => Ok(Request::Metrics),
            "snapshot" => Ok(Request::Snapshot),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(protocol(format!("unknown op `{other}`"))),
        }
    }

    /// The wire representation of this request.
    pub fn to_value(&self) -> Value {
        match self {
            Request::Ping => serde_json::json!({"op": "ping"}),
            Request::Neighbors { user } => {
                serde_json::json!({"op": "neighbors", "user": *user})
            }
            Request::Recommend { user, top } => {
                serde_json::json!({"op": "recommend", "user": *user, "top": *top})
            }
            Request::Predict { user, item } => {
                serde_json::json!({"op": "predict", "user": *user, "item": *item})
            }
            Request::Audience { item, top } => {
                serde_json::json!({"op": "audience", "item": *item, "top": *top})
            }
            Request::Search { items, top } => {
                let items: Vec<Value> = items
                    .iter()
                    .map(|(i, r)| serde_json::json!({"item": *i, "rating": *r}))
                    .collect();
                serde_json::json!({"op": "search", "items": items, "top": *top})
            }
            Request::Update { updates, batch } => {
                let updates: Vec<Value> = updates.iter().map(update_to_value).collect();
                if *batch == 0 {
                    serde_json::json!({"op": "update", "updates": updates})
                } else {
                    serde_json::json!({"op": "update", "updates": updates, "batch": *batch})
                }
            }
            Request::Stats => serde_json::json!({"op": "stats"}),
            Request::Health => serde_json::json!({"op": "health"}),
            Request::Metrics => serde_json::json!({"op": "metrics"}),
            Request::Snapshot => serde_json::json!({"op": "snapshot"}),
            Request::Shutdown => serde_json::json!({"op": "shutdown"}),
        }
    }

    /// Every name [`Request::op`] returns.
    pub const OPS: [&'static str; 12] = [
        "ping",
        "neighbors",
        "recommend",
        "predict",
        "audience",
        "search",
        "update",
        "stats",
        "health",
        "metrics",
        "snapshot",
        "shutdown",
    ];

    /// The op name, used as the telemetry histogram label.
    pub fn op(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::Neighbors { .. } => "neighbors",
            Request::Recommend { .. } => "recommend",
            Request::Predict { .. } => "predict",
            Request::Audience { .. } => "audience",
            Request::Search { .. } => "search",
            Request::Update { .. } => "update",
            Request::Stats => "stats",
            Request::Health => "health",
            Request::Metrics => "metrics",
            Request::Snapshot => "snapshot",
            Request::Shutdown => "shutdown",
        }
    }
}

/// An error response frame for `err` failing op `op` (`""` when the
/// request never parsed far enough to know). Clients rebuild a
/// [`KiffError::Remote`] from all three fields, so the error class —
/// `unavailable` vs `overloaded` vs `corrupt` — survives the wire.
pub fn error_value(err: &KiffError, op: &str) -> Value {
    let mut error = serde_json::json!({
        "kind": err.kind(),
        "op": op,
        "message": err.to_string()
    });
    // A write refused by a replica carries the leader hint as a
    // structured field, so a failover-aware client re-routes without
    // parsing the message text.
    if let KiffError::NotPrimary { leader: Some(addr) } = err {
        if let Value::Object(entries) = &mut error {
            entries.push(("leader".into(), Value::String(addr.clone())));
        }
    }
    serde_json::json!({"ok": false, "error": error})
}

/// Writes one frame: `u32` LE length + JSON bytes.
pub fn write_frame<W: Write>(w: &mut W, value: &Value) -> Result<(), KiffError> {
    let text = serde_json::to_string(value).map_err(|e| protocol(e.to_string()))?;
    let bytes = text.as_bytes();
    let len = u32::try_from(bytes.len()).map_err(|_| protocol("frame too large"))?;
    if len > MAX_FRAME {
        return Err(protocol(format!(
            "frame of {len} bytes exceeds {MAX_FRAME}"
        )));
    }
    // One write per frame: a separate header write would let Nagle +
    // delayed ACK stall the payload ~40ms on sockets without nodelay.
    let mut frame = Vec::with_capacity(4 + bytes.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(bytes);
    w.write_all(&frame).map_err(KiffError::Io)?;
    w.flush().map_err(KiffError::Io)?;
    Ok(())
}

/// Reads one frame; `Ok(None)` on clean EOF at a frame boundary. A
/// socket read timeout is an `Io` error.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Value>, KiffError> {
    // A transport failure, not a protocol violation: the peer (or a
    // fault) tore the connection mid-frame. `Io` keeps it retryable for
    // the self-healing client.
    read_client_frame(r, None, || {
        KiffError::Io(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-frame",
        ))
    })
}

/// Reads one request on a daemon connection, checking `shutdown`
/// whenever the socket's read timeout wakes the reader. `Ok(None)` on
/// EOF before a frame or once the flag is set; a torn frame is a
/// `Protocol` error.
pub(crate) fn read_request<R: Read>(
    r: &mut R,
    shutdown: &AtomicBool,
) -> Result<Option<Value>, KiffError> {
    read_client_frame(r, Some(shutdown), || {
        protocol("connection closed mid-frame")
    })
}

/// Why [`fill`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fill {
    /// The buffer is full.
    Full,
    /// The reader reached EOF after this many bytes of the buffer.
    Eof(usize),
    /// The stop flag was set.
    Stopped,
    /// The deadline passed.
    Expired,
}

/// Fills `buf` from `r`: the one loop every frame read in this crate
/// goes through. Before each read it checks `stop` and `deadline`, when
/// given. An interrupted read is retried. A read timeout (`WouldBlock`
/// or `TimedOut`) is the polling interval when there is a flag or a
/// deadline to check, and an error otherwise.
pub(crate) fn fill<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    stop: Option<&AtomicBool>,
    deadline: Option<Instant>,
) -> io::Result<Fill> {
    use io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
    let polled = stop.is_some() || deadline.is_some();
    let mut filled = 0;
    while filled < buf.len() {
        if stop.is_some_and(|stop| stop.load(Ordering::SeqCst)) {
            return Ok(Fill::Stopped);
        }
        if deadline.is_some_and(|deadline| Instant::now() >= deadline) {
            return Ok(Fill::Expired);
        }
        match r.read(&mut buf[filled..]) {
            Ok(0) => return Ok(Fill::Eof(filled)),
            Ok(n) => filled += n,
            Err(e) if e.kind() == Interrupted => {}
            Err(e) if polled && matches!(e.kind(), WouldBlock | TimedOut) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(Fill::Full)
}

/// The one decoder of client frames, read through [`fill`] while
/// watching `stop`. `Ok(None)` when the read ends before a frame: EOF
/// before its first byte, or the flag at any point (a stopping daemon
/// abandons a half-read request). EOF inside the frame is `torn()`.
fn read_client_frame<R: Read>(
    r: &mut R,
    stop: Option<&AtomicBool>,
    torn: fn() -> KiffError,
) -> Result<Option<Value>, KiffError> {
    let mut header = [0u8; 4];
    match fill(r, &mut header, stop, None).map_err(KiffError::Io)? {
        Fill::Full => {}
        Fill::Eof(n) if n > 0 => return Err(torn()),
        Fill::Eof(_) | Fill::Stopped | Fill::Expired => return Ok(None),
    }
    let len = u32::from_le_bytes(header);
    if len > MAX_FRAME {
        return Err(protocol(format!(
            "frame of {len} bytes exceeds {MAX_FRAME}"
        )));
    }
    let mut bytes = vec![0u8; len as usize];
    match fill(r, &mut bytes, stop, None).map_err(KiffError::Io)? {
        Fill::Full => {}
        Fill::Eof(_) => return Err(torn()),
        Fill::Stopped | Fill::Expired => return Ok(None),
    }
    let text = String::from_utf8(bytes).map_err(|_| protocol("frame is not UTF-8"))?;
    serde_json::from_str(&text)
        .map(Some)
        .map_err(|e| protocol(e.to_string()))
}

#[cfg(test)]
pub(crate) mod tests {
    use std::time::Duration;

    use super::*;

    /// A `Read` that runs a closure per call: tests script short reads,
    /// socket timeouts and interruptions with it.
    pub(crate) struct Scripted<F>(pub(crate) F);

    impl<F: FnMut(&mut [u8]) -> io::Result<usize>> Read for Scripted<F> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            (self.0)(buf)
        }
    }

    /// Hands `bytes` out one to four at a time, then reports EOF. Before
    /// every read that delivers come an `Interrupted` and, for a polled
    /// reader (`timeouts`), a `WouldBlock`: on an unpolled read that
    /// one is an error.
    pub(crate) fn dribble(bytes: Vec<u8>, timeouts: bool) -> impl Read {
        let (mut at, mut call) = (0, 0usize);
        Scripted(move |buf: &mut [u8]| {
            call += 1;
            match call % 3 {
                1 if timeouts => Err(io::ErrorKind::WouldBlock.into()),
                1 | 2 => Err(io::ErrorKind::Interrupted.into()),
                _ => {
                    let n = (call % 4 + 1).min(buf.len()).min(bytes.len() - at);
                    buf[..n].copy_from_slice(&bytes[at..at + n]);
                    at += n;
                    Ok(n)
                }
            }
        })
    }

    /// A reader whose socket has no data: every read times out after a
    /// millisecond. It reports EOF after five thousand reads, so a read
    /// that misses its stop flag or deadline fails instead of hanging.
    pub(crate) fn idle() -> impl Read {
        let mut reads = 0;
        Scripted(move |_: &mut [u8]| {
            reads += 1;
            if reads > 5_000 {
                return Ok(0);
            }
            std::thread::sleep(Duration::from_millis(1));
            Err(io::ErrorKind::WouldBlock.into())
        })
    }

    #[test]
    fn requests_round_trip_through_the_wire_form() {
        let requests = vec![
            Request::Ping,
            Request::Neighbors { user: 3 },
            Request::Recommend { user: 1, top: 5 },
            Request::Predict { user: 2, item: 9 },
            Request::Audience { item: 4, top: 2 },
            Request::Search {
                items: vec![(1, 2.0), (7, 1.0)],
                top: 3,
            },
            Request::Update {
                updates: vec![
                    Update::AddRating {
                        user: 0,
                        item: 1,
                        rating: 2.5,
                    },
                    Update::AddUser,
                    Update::RemoveRating { user: 0, item: 1 },
                ],
                batch: 0,
            },
            Request::Update {
                updates: vec![Update::AddUser],
                batch: 42,
            },
            Request::Stats,
            Request::Health,
            Request::Metrics,
            Request::Snapshot,
            Request::Shutdown,
        ];
        for req in &requests {
            let back = Request::from_value(&req.to_value()).unwrap();
            assert_eq!(&back, req);
        }
        let mut ops: Vec<&str> = requests.iter().map(Request::op).collect();
        ops.dedup();
        assert_eq!(ops, Request::OPS, "OPS lists every op once");
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut buf = Vec::new();
        let v = Request::Neighbors { user: 7 }.to_value();
        write_frame(&mut buf, &v).unwrap();
        write_frame(&mut buf, &serde_json::json!({"ok": true})).unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), v);
        assert!(read_frame(&mut r).unwrap().is_some());
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn malformed_requests_are_protocol_errors() {
        for text in [
            r#"{"user":1}"#,
            r#"{"op":"warp"}"#,
            r#"{"op":"neighbors"}"#,
            r#"{"op":"update","updates":[{"type":"add_rating","user":1,"item":2,"rating":-1}]}"#,
        ] {
            let v: Value = serde_json::from_str(text).unwrap();
            let err = Request::from_value(&v).unwrap_err();
            assert!(matches!(err, KiffError::Protocol(_)), "{text}: {err}");
            assert_eq!(err.exit_code(), 6);
        }
    }

    #[test]
    fn oversized_and_torn_frames_are_rejected() {
        // An oversized length is refused from the header alone: the
        // body is never read, so it is never allocated either.
        let mut bytes = (MAX_FRAME + 1).to_le_bytes().to_vec();
        bytes.extend_from_slice(b"xx");
        let mut r = bytes.as_slice();
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), "protocol");
        assert_eq!(r, b"xx", "nothing past the header was read");
        let stop = AtomicBool::new(false);
        let mut r = bytes.as_slice();
        assert_eq!(read_request(&mut r, &stop).unwrap_err().kind(), "protocol");
        assert_eq!(r, b"xx");

        // EOF inside the header or the body: `io` on the client, which
        // the self-healing client retries, and `protocol` in the daemon.
        let mut buf = Vec::new();
        write_frame(&mut buf, &serde_json::json!({"ok": true})).unwrap();
        for cut in [2, buf.len() - 2] {
            let torn = &buf[..cut];
            let err = read_frame(&mut dribble(torn.to_vec(), false)).unwrap_err();
            assert!(err.is_retryable(), "client, torn at byte {cut}: {err}");
            assert!(
                matches!(&err, KiffError::Io(e) if e.kind() == io::ErrorKind::UnexpectedEof),
                "client, torn at byte {cut}: {err}"
            );
            let err = read_request(&mut dribble(torn.to_vec(), true), &stop).unwrap_err();
            assert_eq!(err.kind(), "protocol", "daemon, torn at byte {cut}");
        }
    }

    #[test]
    fn frames_split_over_many_reads_assemble() {
        let mut buf = Vec::new();
        let v = Request::Search {
            items: vec![(1, 2.0), (7, 1.0)],
            top: 3,
        }
        .to_value();
        write_frame(&mut buf, &v).unwrap();
        write_frame(&mut buf, &serde_json::json!({"ok": true})).unwrap();
        let mut r = dribble(buf.clone(), false);
        assert_eq!(read_frame(&mut r).unwrap(), Some(v.clone()));
        let stop = AtomicBool::new(false);
        let mut r = dribble(buf, true);
        assert_eq!(read_request(&mut r, &stop).unwrap(), Some(v));
        assert!(read_request(&mut r, &stop).unwrap().is_some());
        // EOF before the first header byte is a clean end.
        assert_eq!(read_request(&mut r, &stop).unwrap(), None);

        let mut out = [0u8; 5];
        let mut r = dribble(b"kiff!".to_vec(), true);
        assert_eq!(
            fill(&mut r, &mut out, Some(&stop), None).unwrap(),
            Fill::Full
        );
        assert_eq!(&out, b"kiff!");
        assert_eq!(
            fill(&mut r, &mut out, Some(&stop), None).unwrap(),
            Fill::Eof(0)
        );
    }

    #[test]
    fn a_stop_flag_or_a_deadline_ends_an_idle_read() {
        let mut buf = [0u8; 4];
        let stop = AtomicBool::new(false);
        let (mut reads, mut quiet) = (0, idle());
        let mut stopping = Scripted(|buf: &mut [u8]| {
            reads += 1;
            if reads == 3 {
                stop.store(true, Ordering::SeqCst);
            }
            quiet.read(buf)
        });
        let end = fill(&mut stopping, &mut buf, Some(&stop), None).unwrap();
        assert_eq!(end, Fill::Stopped);
        assert_eq!(read_request(&mut idle(), &stop).unwrap(), None);
        // A daemon that stops mid-request abandons it without an error.
        let mut frame = Vec::new();
        write_frame(&mut frame, &Request::Ping.to_value()).unwrap();
        let (stop_now, mut quiet) = (AtomicBool::new(false), idle());
        let mut half_sent = (&frame[..6]).chain(Scripted(|buf: &mut [u8]| {
            stop_now.store(true, Ordering::SeqCst);
            quiet.read(buf)
        }));
        assert_eq!(read_request(&mut half_sent, &stop_now).unwrap(), None);

        let deadline = Instant::now() + Duration::from_millis(20);
        let end = fill(&mut idle(), &mut buf, None, Some(deadline)).unwrap();
        assert_eq!(end, Fill::Expired);
        assert!(Instant::now() >= deadline);
    }

    #[test]
    fn an_unpolled_read_returns_a_socket_timeout_as_an_io_error() {
        for kind in [io::ErrorKind::WouldBlock, io::ErrorKind::TimedOut] {
            // EOF after a thousand timeouts, should they be retried.
            let mut reads = 0;
            let mut r = Scripted(move |_: &mut [u8]| {
                reads += 1;
                if reads > 1_000 {
                    return Ok(0);
                }
                Err(kind.into())
            });
            match read_frame(&mut r) {
                Err(KiffError::Io(e)) => assert_eq!(e.kind(), kind),
                other => panic!("expected an io error, got {other:?}"),
            }
        }
    }

    #[test]
    fn error_envelope_carries_kind_and_op() {
        let err = KiffError::Unavailable {
            op: "update".into(),
            detail: "wal degraded".into(),
        };
        let v = error_value(&err, "update");
        assert_eq!(v["ok"], serde_json::json!(false));
        assert_eq!(v["error"]["kind"], serde_json::json!("unavailable"));
        assert_eq!(v["error"]["op"], serde_json::json!("update"));
    }
}
