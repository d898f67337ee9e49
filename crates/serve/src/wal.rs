//! Write-ahead log of [`Update`] events.
//!
//! Every mutation batch the daemon accepts is appended here *before* it
//! is applied to the engine, so a crash between acknowledgement and the
//! next snapshot loses nothing. The log is a sequence of segment files
//! (`wal-{first_seq:016}.log`) of self-checking records:
//!
//! ```text
//! record  = u32 payload length (LE) · u32 CRC-32 of payload (LE) · payload
//! payload = u64 seq (LE) · u8 tag · fields · [u64 batch id, commit only]
//! tag 0   = AddRating    (u32 user, u32 item, u32 f32-bits rating)
//! tag 1   = AddUser      (no fields)
//! tag 2   = RemoveRating (u32 user, u32 item)
//! ```
//!
//! Bit 7 of the tag marks the *first* record of an appended batch; bit 6
//! marks the *last* and turns the record into the batch's **commit
//! marker**, carrying the client-assigned batch id (0 when the writer
//! had none). Batches are atomic: replay applies only batches whose
//! commit marker survived — a torn tail drops the whole partial batch,
//! never a prefix of one. That matters twice over: the engine's repair
//! pass is amortised per batch, so graph state depends on where batch
//! boundaries fell ([`WalReplay::batches`] re-applies them with the
//! original boundaries, keeping recovery bit-identical to the
//! uninterrupted run); and the committed batch ids form a high-water
//! mark ([`WalReplay::batch_hwm`]) the server dedupes retried client
//! batches against — a half-written batch must not advance it, or the
//! client's retry would be wrongly dropped.
//!
//! Sequence numbers start at 1 and increase by one per update — they are
//! the global ordering the snapshots cut through (a snapshot at seq `S`
//! covers updates `1..=S`; recovery replays strictly greater). The file
//! is `sync_data`ed once per appended batch, not per record. An append
//! whose write or fsync fails leaves the in-memory sequence untouched
//! and **poisons** the log — the bytes on disk past the last committed
//! batch are unknown (an fsync error may leave them readable anyway),
//! so further appends are refused until [`Wal::reopen`] physically
//! truncates the uncommitted tail and re-probes the disk. This is the
//! mechanism behind the daemon's read-only degraded mode.
//!
//! Replay is deliberately forgiving at the tail: a record that is
//! truncated, fails its CRC, carries a malformed payload, breaks the
//! sequence run, or belongs to an uncommitted batch marks the end of the
//! log — everything before it is recovered, everything after is
//! discarded. That is exactly the state a `kill -9` mid-append leaves
//! behind.
//!
//! The `wal.append` and `wal.fsync` failpoints ([`kiff_core::fault`])
//! fire here, scoped by the WAL directory path.

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use kiff_core::fault::{self, points};
use kiff_core::KiffError;
use kiff_online::Update;
use kiff_telemetry::{Counter, Gauge, Histogram, Registry};

/// Rotate to a fresh segment once the current one exceeds this size.
pub const DEFAULT_SEGMENT_BYTES: u64 = 8 * 1024 * 1024;

/// Largest accepted record payload; anything bigger is corruption.
const MAX_PAYLOAD: u32 = 64;

/// CRC-32 (IEEE 802.3, reflected) over `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
        }
    }
    !crc
}

fn segment_name(first_seq: u64) -> String {
    format!("wal-{first_seq:016}.log")
}

/// Sorted list of `(first_seq, path)` for every WAL segment in `dir`
/// (empty when the directory does not exist yet).
fn segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, KiffError> {
    let mut found = Vec::new();
    if !dir.exists() {
        return Ok(found);
    }
    for entry in fs::read_dir(dir).map_err(KiffError::Io)? {
        let entry = entry.map_err(KiffError::Io)?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(seq) = name
            .strip_prefix("wal-")
            .and_then(|rest| rest.strip_suffix(".log"))
            .and_then(|digits| digits.parse::<u64>().ok())
        {
            found.push((seq, entry.path()));
        }
    }
    found.sort_unstable();
    Ok(found)
}

/// Decodes the fixed 8-byte frame header shared by WAL records and the
/// replication stream: `u32 payload length (LE) · u32 payload CRC-32
/// (LE)`. Returns `None` when fewer than 8 bytes remain or the length
/// exceeds `max_payload` — both read as corruption (or, on a live
/// stream, a peer speaking a different protocol).
pub(crate) fn decode_frame_header(header: &[u8], max_payload: u32) -> Option<(u32, u32)> {
    let len = u32::from_le_bytes(header.get(..4)?.try_into().ok()?);
    let crc = u32::from_le_bytes(header.get(4..8)?.try_into().ok()?);
    (len <= max_payload).then_some((len, crc))
}

/// The checked record starting at `bytes[at..]`: decodes the header via
/// [`decode_frame_header`], bounds-checks the payload, and verifies its
/// CRC. Returns the payload slice and the total encoded record length,
/// or `None` for any structural failure (the caller treats the rest of
/// the buffer as a crash tail).
fn checked_record(bytes: &[u8], at: usize) -> Option<(&[u8], usize)> {
    let (len, crc) = decode_frame_header(bytes.get(at..)?, MAX_PAYLOAD)?;
    let payload = bytes.get(at + 8..at + 8 + len as usize)?;
    (crc32(payload) == crc).then_some((payload, 8 + len as usize))
}

/// Tag bit marking the first record of an appended batch.
const BATCH_HEAD: u8 = 0x80;
/// Tag bit marking the last record of a batch — the commit marker. The
/// payload gains a trailing u64 batch id; replay drops batches whose
/// commit marker did not survive.
const BATCH_COMMIT: u8 = 0x40;
const TAG_MASK: u8 = !(BATCH_HEAD | BATCH_COMMIT);

fn encode(seq: u64, update: &Update, batch_head: bool, commit: Option<u64>) -> Vec<u8> {
    let mut payload = Vec::with_capacity(29);
    payload.extend_from_slice(&seq.to_le_bytes());
    let mut marks = if batch_head { BATCH_HEAD } else { 0 };
    if commit.is_some() {
        marks |= BATCH_COMMIT;
    }
    match update {
        Update::AddRating { user, item, rating } => {
            payload.push(marks);
            payload.extend_from_slice(&user.to_le_bytes());
            payload.extend_from_slice(&item.to_le_bytes());
            payload.extend_from_slice(&rating.to_bits().to_le_bytes());
        }
        Update::AddUser => payload.push(1 | marks),
        Update::RemoveRating { user, item } => {
            payload.push(2 | marks);
            payload.extend_from_slice(&user.to_le_bytes());
            payload.extend_from_slice(&item.to_le_bytes());
        }
    }
    if let Some(batch_id) = commit {
        payload.extend_from_slice(&batch_id.to_le_bytes());
    }
    let mut record = Vec::with_capacity(8 + payload.len());
    record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    record.extend_from_slice(&crc32(&payload).to_le_bytes());
    record.extend_from_slice(&payload);
    record
}

/// One decoded record: sequence, update, batch-head flag, and — on the
/// batch's commit marker — the batch id.
fn decode_payload(payload: &[u8]) -> Option<(u64, Update, bool, Option<u64>)> {
    let seq = u64::from_le_bytes(payload.get(..8)?.try_into().ok()?);
    let raw_tag = *payload.get(8)?;
    let batch_head = raw_tag & BATCH_HEAD != 0;
    let committed = raw_tag & BATCH_COMMIT != 0;
    let tag = raw_tag & TAG_MASK;
    let mut rest = &payload[9..];
    let commit = if committed {
        if rest.len() < 8 {
            return None;
        }
        let (fields, id) = rest.split_at(rest.len() - 8);
        rest = fields;
        Some(u64::from_le_bytes(id.try_into().ok()?))
    } else {
        None
    };
    let le_u32 = |b: &[u8], at: usize| -> Option<u32> {
        Some(u32::from_le_bytes(b.get(at..at + 4)?.try_into().ok()?))
    };
    let update = match tag {
        0 if rest.len() == 12 => Update::AddRating {
            user: le_u32(rest, 0)?,
            item: le_u32(rest, 4)?,
            rating: f32::from_bits(le_u32(rest, 8)?),
        },
        1 if rest.is_empty() => Update::AddUser,
        2 if rest.len() == 8 => Update::RemoveRating {
            user: le_u32(rest, 0)?,
            item: le_u32(rest, 4)?,
        },
        _ => return None,
    };
    Some((seq, update, batch_head, commit))
}

/// Length of the *committed* record prefix of a segment: structurally
/// valid records up to and including the last surviving batch-commit
/// marker. Records of a batch whose commit never made it to disk are
/// part of the discarded tail.
fn committed_len(bytes: &[u8]) -> usize {
    let mut at = 0usize;
    let mut committed = 0usize;
    while at < bytes.len() {
        let Some((payload, advance)) = checked_record(bytes, at) else {
            break;
        };
        let Some((_, _, _, commit)) = decode_payload(payload) else {
            break;
        };
        at += advance;
        if commit.is_some() {
            committed = at;
        }
    }
    committed
}

/// The outcome of scanning a WAL directory.
#[derive(Debug)]
pub struct WalReplay {
    /// Recovered `(seq, update, batch_head)` triples with
    /// `seq > after_seq`, in order, restricted to *committed* batches.
    /// `batch_head` marks the first record of each appended batch.
    pub updates: Vec<(u64, Update, bool)>,
    /// The sequence number the next appended update will carry — the
    /// last committed seq plus one, so a dropped partial batch's
    /// numbers are reused.
    pub next_seq: u64,
    /// Whether an invalid record or an uncommitted batch cut the scan
    /// short (crash tail).
    pub truncated: bool,
    /// Highest client-assigned batch id among *all* committed batches
    /// scanned (not just those past `after_seq`); 0 when none carried
    /// one. The server's double-apply guard for retried client batches.
    pub batch_hwm: u64,
    /// Client-assigned batch id of each recovered batch, aligned with
    /// [`WalReplay::batches`] (0 when the writer had none). Replication
    /// catch-up re-streams these so a replica's dedup hwm tracks the
    /// primary's exactly.
    pub batch_ids: Vec<u64>,
}

impl WalReplay {
    /// The recovered updates regrouped into their original append
    /// batches, in order. Re-applying these batch-by-batch reproduces
    /// the uninterrupted engine exactly — the repair pass is amortised
    /// per batch, so boundaries are state, not just framing.
    pub fn batches(self) -> Vec<Vec<Update>> {
        self.batches_with_ids()
            .into_iter()
            .map(|(_, _, updates)| updates)
            .collect()
    }

    /// Like [`WalReplay::batches`], but each batch keeps its identity:
    /// `(first_seq, batch_id, updates)`. The replication stream sends
    /// exactly these triples during catch-up, so a replica applies them
    /// under the same sequence numbers and dedup ids as the original
    /// client writes.
    pub fn batches_with_ids(self) -> Vec<(u64, u64, Vec<Update>)> {
        let ids = self.batch_ids;
        let mut batches: Vec<(u64, u64, Vec<Update>)> = Vec::new();
        for (seq, update, head) in self.updates {
            if head || batches.is_empty() {
                let id = ids.get(batches.len()).copied().unwrap_or(0);
                batches.push((seq, id, Vec::new()));
            }
            batches.last_mut().expect("just pushed").2.push(update);
        }
        batches
    }
}

/// An appendable write-ahead log rooted at a directory.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    ctx: String,
    file: File,
    segment_len: u64,
    segment_bytes: u64,
    next_seq: u64,
    /// Set by a failed append, cleared by [`Wal::reopen`]; shared with
    /// [`Wal::poisoned_flag`] watchers.
    poisoned: Arc<AtomicBool>,
    /// `wal.appends`, `wal.fsyncs`, `wal.segments`, and the per-batch
    /// `wal.append_ns` (encode, write and fsync) and `wal.fsync_ns`,
    /// resolved at open so an append takes no registry lookup.
    appends: Counter,
    fsyncs: Counter,
    segments: Gauge,
    append_ns: Histogram,
    fsync_ns: Histogram,
    telemetry: Registry,
}

impl Wal {
    /// Opens (or starts) the log in `dir`, appending to the newest
    /// segment. `next_seq` must come from a prior [`Wal::replay`] (or be
    /// 1 for a fresh directory). The uncommitted tail left by a crash —
    /// torn records *and* whole batches missing their commit marker —
    /// is truncated away first, so appended records always follow the
    /// last committed one.
    pub fn open(dir: &Path, next_seq: u64, telemetry: Registry) -> Result<Self, KiffError> {
        fs::create_dir_all(dir).map_err(KiffError::Io)?;
        let segments = segments(dir)?;
        let path = match segments.last() {
            Some((first, path)) if *first <= next_seq => path.clone(),
            _ => dir.join(segment_name(next_seq)),
        };
        if let Ok(bytes) = fs::read(&path) {
            let keep = committed_len(&bytes);
            if keep < bytes.len() {
                let f = OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .map_err(KiffError::Io)?;
                f.set_len(keep as u64).map_err(KiffError::Io)?;
                f.sync_data().map_err(KiffError::Io)?;
            }
        }
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(KiffError::Io)?;
        let segment_len = file.metadata().map_err(KiffError::Io)?.len();
        let wal = Self {
            dir: dir.to_path_buf(),
            ctx: dir.to_string_lossy().into_owned(),
            file,
            segment_len,
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            next_seq,
            poisoned: Arc::default(),
            appends: telemetry.counter("wal.appends"),
            fsyncs: telemetry.counter("wal.fsyncs"),
            segments: telemetry.gauge("wal.segments"),
            append_ns: telemetry.histogram("wal.append_ns"),
            fsync_ns: telemetry.histogram("wal.fsync_ns"),
            telemetry,
        };
        wal.update_segment_gauge()?;
        Ok(wal)
    }

    /// Overrides the segment rotation threshold (tests use tiny ones).
    pub fn with_segment_bytes(mut self, bytes: u64) -> Self {
        self.segment_bytes = bytes.max(1);
        self
    }

    /// The sequence number the next appended update will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Whether a failed append has poisoned the log (see [`Wal::reopen`]).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::SeqCst)
    }

    /// The live poisoned flag, for a watcher (the daemon's self-heal
    /// thread) that must not lock whoever owns the log to poll it.
    pub(crate) fn poisoned_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.poisoned)
    }

    /// Appends `updates` as one atomic batch — consecutive records whose
    /// last carries the commit marker and `batch_id` (0 = no client id)
    /// — and flushes them with a single `sync_data`. Returns the
    /// sequence number of the last appended update.
    ///
    /// On failure nothing logical changes: the in-memory sequence stays
    /// put, the half-written bytes carry no commit marker (replay and
    /// reopen discard them), and the log is poisoned until a successful
    /// [`Wal::reopen`].
    pub fn append_batch(&mut self, updates: &[Update], batch_id: u64) -> Result<u64, KiffError> {
        if updates.is_empty() {
            return Ok(self.next_seq.saturating_sub(1));
        }
        if self.is_poisoned() {
            return Err(KiffError::Io(std::io::Error::other(
                "wal is poisoned by a failed append; reopen required",
            )));
        }
        if self.segment_len >= self.segment_bytes {
            self.rotate()?;
        }
        let _append = self.append_ns.span();
        // Build the whole batch before touching any state, so a failure
        // below leaves `next_seq` ready to reuse the same numbers.
        let mut buf = Vec::with_capacity(updates.len() * 37);
        let last = updates.len() - 1;
        for (i, update) in updates.iter().enumerate() {
            let commit = (i == last).then_some(batch_id);
            buf.extend_from_slice(&encode(self.next_seq + i as u64, update, i == 0, commit));
        }
        let result = fault::check_ctx(points::WAL_APPEND, &self.ctx)
            .and_then(|()| self.file.write_all(&buf).map_err(KiffError::Io))
            .and_then(|()| fault::check_ctx(points::WAL_FSYNC, &self.ctx))
            .and_then(|()| {
                let _fsync = self.fsync_ns.span();
                self.file.sync_data().map_err(KiffError::Io)
            });
        if let Err(e) = result {
            self.poisoned.store(true, Ordering::SeqCst);
            self.telemetry.counter("wal.append_errors").incr();
            return Err(e);
        }
        self.next_seq += updates.len() as u64;
        self.segment_len += buf.len() as u64;
        self.appends.add(updates.len() as u64);
        self.fsyncs.incr();
        Ok(self.next_seq - 1)
    }

    /// Heals a poisoned log: physically truncates the segment back to
    /// the committed length, re-probes the disk with an fsync, and
    /// reopens the append handle. Fails (and stays poisoned) while the
    /// underlying disk — or an armed `wal.fsync` failpoint — still
    /// refuses to sync; the daemon's degraded-mode recovery loop calls
    /// this until it succeeds.
    pub fn reopen(&mut self) -> Result<(), KiffError> {
        let segments = segments(&self.dir)?;
        let path = match segments.last() {
            Some((_, path)) => path.clone(),
            None => self.dir.join(segment_name(self.next_seq)),
        };
        let f = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(KiffError::Io)?;
        f.set_len(self.segment_len).map_err(KiffError::Io)?;
        fault::check_ctx(points::WAL_FSYNC, &self.ctx)?;
        f.sync_data().map_err(KiffError::Io)?;
        drop(f);
        self.file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(KiffError::Io)?;
        self.poisoned.store(false, Ordering::SeqCst);
        self.telemetry.counter("wal.reopens").incr();
        Ok(())
    }

    fn rotate(&mut self) -> Result<(), KiffError> {
        let path = self.dir.join(segment_name(self.next_seq));
        self.file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(KiffError::Io)?;
        self.segment_len = 0;
        self.update_segment_gauge()?;
        Ok(())
    }

    /// Deletes every segment whose records are all `<= through_seq`
    /// (they are covered by a snapshot). The newest segment is always
    /// kept: it holds, or will hold, the live tail.
    ///
    /// `through_seq` is clamped to the newest on-disk snapshot's
    /// sequence: a segment holding batches no snapshot covers is never
    /// deleted, no matter what the caller asks — dropping it would lose
    /// committed updates (and the batch ids that dedupe client
    /// retries). A clamped call bumps the `wal.prune_refused` counter.
    pub fn prune(&mut self, through_seq: u64) -> Result<usize, KiffError> {
        let covered = crate::snapshot::latest_snapshot(&self.dir)?.map_or(0, |(seq, _)| seq);
        let effective = through_seq.min(covered);
        if effective < through_seq {
            self.telemetry.counter("wal.prune_refused").incr();
        }
        let segments = segments(&self.dir)?;
        let mut removed = 0;
        // Segment i's records all precede segment i+1's first_seq.
        for window in segments.windows(2) {
            let (_, ref path) = window[0];
            let (next_first, _) = window[1];
            if next_first <= effective + 1 {
                fs::remove_file(path).map_err(KiffError::Io)?;
                removed += 1;
            }
        }
        self.update_segment_gauge()?;
        Ok(removed)
    }

    /// Refreshes the `wal.segments` gauge from the directory listing.
    fn update_segment_gauge(&self) -> Result<(), KiffError> {
        let n = segments(&self.dir)?.len();
        self.segments.set(n as i64);
        Ok(())
    }

    /// Scans every segment in `dir` and returns the updates of committed
    /// batches with `seq > after_seq`. Stops at the first invalid or
    /// out-of-order record and drops any trailing uncommitted batch (see
    /// the module docs); sequence numbers must form one contiguous run
    /// across segment boundaries.
    pub fn replay(
        dir: &Path,
        after_seq: u64,
        telemetry: &Registry,
    ) -> Result<WalReplay, KiffError> {
        let mut updates = Vec::new();
        let mut pending: Vec<(u64, Update, bool)> = Vec::new();
        let mut next_seq = after_seq + 1;
        let mut expected: Option<u64> = None;
        let mut batch_hwm = 0u64;
        let mut batch_ids = Vec::new();
        let mut truncated = false;

        'segments: for (_, path) in segments(dir)? {
            let mut bytes = Vec::new();
            File::open(&path)
                .and_then(|mut f| f.read_to_end(&mut bytes))
                .map_err(KiffError::Io)?;
            let mut at = 0usize;
            while at < bytes.len() {
                let Some((payload, advance)) = checked_record(&bytes, at) else {
                    truncated = true;
                    break 'segments;
                };
                let Some((seq, update, head, commit)) = decode_payload(payload) else {
                    truncated = true;
                    break 'segments;
                };
                if expected.is_some_and(|e| seq != e) {
                    truncated = true;
                    break 'segments;
                }
                if head && !pending.is_empty() {
                    // The previous batch never committed mid-log; only a
                    // failed tail truncation produces this. Nothing past
                    // it can be trusted.
                    truncated = true;
                    break 'segments;
                }
                expected = Some(seq + 1);
                at += advance;
                if seq > after_seq {
                    if seq != next_seq + updates.len() as u64 + pending.len() as u64 {
                        // A gap between the snapshot point and the log:
                        // replaying would skip updates silently.
                        return Err(KiffError::corrupt(
                            "wal",
                            format!(
                                "expected seq {}, found {seq}",
                                next_seq + updates.len() as u64 + pending.len() as u64
                            ),
                        ));
                    }
                    pending.push((seq, update, head));
                }
                if let Some(batch_id) = commit {
                    if !pending.is_empty() {
                        batch_ids.push(batch_id);
                    }
                    updates.append(&mut pending);
                    batch_hwm = batch_hwm.max(batch_id);
                }
            }
        }
        if !pending.is_empty() {
            // A batch whose commit marker never hit the disk: drop it
            // whole, so its sequence numbers get reused by the retry.
            truncated = true;
            pending.clear();
        }
        next_seq += updates.len() as u64;
        if truncated {
            telemetry.counter("wal.truncated").incr();
        }
        telemetry.counter("wal.replayed").add(updates.len() as u64);
        Ok(WalReplay {
            updates,
            next_seq,
            truncated,
            batch_hwm,
            batch_ids,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kiff_core::fault::Trigger;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("kiff-wal-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&p);
        p
    }

    fn add(user: u32, item: u32, rating: f32) -> Update {
        Update::AddRating { user, item, rating }
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_then_replay_round_trips() {
        let dir = tmp("round-trip");
        let reg = Registry::new();
        let mut wal = Wal::open(&dir, 1, reg.clone()).unwrap();
        let batch = vec![
            add(0, 1, 2.5),
            Update::AddUser,
            Update::RemoveRating { user: 0, item: 1 },
        ];
        assert_eq!(wal.append_batch(&batch, 11).unwrap(), 3);
        assert_eq!(wal.append_batch(&[add(4, 4, 1.0)], 12).unwrap(), 4);

        let replay = Wal::replay(&dir, 0, &reg).unwrap();
        assert!(!replay.truncated);
        assert_eq!(replay.next_seq, 5);
        assert_eq!(replay.batch_hwm, 12, "highest committed batch id");
        let seqs: Vec<u64> = replay.updates.iter().map(|(s, _, _)| *s).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4]);
        assert_eq!(replay.updates[0].1, batch[0]);
        assert_eq!(replay.updates[2].1, batch[2]);
        let heads: Vec<bool> = replay.updates.iter().map(|(_, _, h)| *h).collect();
        assert_eq!(heads, vec![true, false, false, true], "batch heads marked");
        assert_eq!(
            Wal::replay(&dir, 0, &reg).unwrap().batches(),
            vec![batch.clone(), vec![add(4, 4, 1.0)]],
            "replay regroups the original append batches"
        );
        assert_eq!(
            Wal::replay(&dir, 0, &reg).unwrap().batches_with_ids(),
            vec![(1, 11, batch.clone()), (4, 12, vec![add(4, 4, 1.0)])],
            "each batch keeps its first seq and client id"
        );

        // Replay after a snapshot point skips the prefix but still sees
        // every committed batch id.
        let tail = Wal::replay(&dir, 3, &reg).unwrap();
        assert_eq!(tail.updates.len(), 1);
        assert_eq!(tail.updates[0].0, 4);
        assert_eq!(tail.batch_hwm, 12);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A snapshot file covering `seq` — the contents never matter to
    /// `prune`, only the `snap-{seq}.kifs` name `latest_snapshot` sees.
    fn fake_snapshot(dir: &Path, seq: u64) {
        let ds = kiff_dataset::dataset::figure2_toy();
        let graph = kiff_graph::KnnGraph::from_neighbors(
            1,
            (0..4u32)
                .map(|u| {
                    vec![kiff_graph::Neighbor {
                        id: u ^ 1,
                        sim: 0.5,
                    }]
                })
                .collect(),
        );
        crate::snapshot::save_snapshot(dir, seq, 0, 0, &ds, &graph, None).unwrap();
    }

    #[test]
    fn rotation_splits_segments_and_replay_spans_them() {
        let dir = tmp("rotate");
        let reg = Registry::new();
        let mut wal = Wal::open(&dir, 1, reg.clone())
            .unwrap()
            .with_segment_bytes(1);
        for i in 0..5u32 {
            wal.append_batch(&[add(i, i, 1.0)], 0).unwrap();
        }
        assert!(segments(&dir).unwrap().len() >= 4, "tiny threshold rotates");
        assert_eq!(
            reg.snapshot().gauge("wal.segments"),
            Some(segments(&dir).unwrap().len() as i64),
            "rotation keeps the segment gauge fresh"
        );
        let replay = Wal::replay(&dir, 0, &reg).unwrap();
        assert_eq!(replay.updates.len(), 5);
        assert_eq!(replay.next_seq, 6);

        // No snapshot yet: pruning is refused outright, whatever the
        // caller claims is covered.
        assert_eq!(wal.prune(3).unwrap(), 0, "nothing covered, nothing pruned");
        assert_eq!(reg.snapshot().counter("wal.prune_refused"), Some(1));

        // With a snapshot at seq 3, pruning through 3 removes segments
        // fully covered by it.
        fake_snapshot(&dir, 3);
        let before = segments(&dir).unwrap().len();
        let removed = wal.prune(3).unwrap();
        assert!(removed >= 2, "removed {removed} of {before}");
        assert_eq!(
            reg.snapshot().gauge("wal.segments"),
            Some(segments(&dir).unwrap().len() as i64)
        );
        let after = Wal::replay(&dir, 3, &reg).unwrap();
        assert_eq!(after.updates.len(), 2, "tail survives pruning");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The prune safety guard, under fire: a mid-rotation append fault
    /// poisons the log, and an over-eager prune (claiming more is
    /// covered than any snapshot proves) must still keep every segment
    /// holding unsnapshotted batches — recovery after the fault loses
    /// nothing.
    #[test]
    fn prune_mid_rotation_under_append_faults_keeps_uncovered_batches() {
        let dir = tmp("prune-guard");
        let reg = Registry::new();
        let scope = dir.to_string_lossy().into_owned();
        let mut wal = Wal::open(&dir, 1, reg.clone())
            .unwrap()
            .with_segment_bytes(1);
        for i in 0..3u32 {
            wal.append_batch(&[add(i, i, 1.0)], u64::from(i) + 1)
                .unwrap();
        }
        // Snapshot covers only seq 2; seq 3 lives in WAL segments alone.
        fake_snapshot(&dir, 2);

        // The next append dies mid-rotation and poisons the log.
        fault::arm_scoped(points::WAL_APPEND, Trigger::Nth(1), scope.clone());
        assert!(wal.append_batch(&[add(3, 3, 1.0)], 4).is_err());
        assert!(wal.is_poisoned());

        // A buggy caller prunes "through seq 10". The guard clamps to
        // the snapshot boundary: batch 3 must survive.
        wal.prune(10).unwrap();
        assert_eq!(reg.snapshot().counter("wal.prune_refused"), Some(1));
        let replay = Wal::replay(&dir, 2, &reg).unwrap();
        assert_eq!(replay.updates.len(), 1, "unsnapshotted batch survives");
        assert_eq!(replay.updates[0].0, 3);
        assert_eq!(replay.batch_hwm, 3, "dedup hwm survives the prune");

        // Heal and land the faulted batch; nothing was lost.
        wal.reopen().unwrap();
        assert_eq!(wal.append_batch(&[add(3, 3, 1.0)], 4).unwrap(), 4);
        let replay = Wal::replay(&dir, 2, &reg).unwrap();
        assert_eq!(replay.updates.len(), 2);
        assert_eq!(replay.batch_hwm, 4);
        fault::disarm(points::WAL_APPEND);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_tail_drops_the_whole_uncommitted_batch() {
        let dir = tmp("corrupt");
        let reg = Registry::new();
        let mut wal = Wal::open(&dir, 1, reg.clone()).unwrap();
        wal.append_batch(&[add(7, 7, 1.0)], 1).unwrap();
        wal.append_batch(&[add(0, 0, 1.0), add(1, 1, 1.0), add(2, 2, 1.0)], 2)
            .unwrap();
        drop(wal);

        let (_, path) = segments(&dir).unwrap().pop().unwrap();
        let mut bytes = fs::read(&path).unwrap();
        // Flip a payload byte of the last record: its CRC fails, the
        // commit marker is lost, and the whole second batch — not just
        // its tail record — must vanish. Batches are atomic.
        let n = bytes.len();
        bytes[n - 1] ^= 0xff;
        fs::write(&path, &bytes).unwrap();

        let replay = Wal::replay(&dir, 0, &reg).unwrap();
        assert!(replay.truncated);
        assert_eq!(replay.updates.len(), 1, "only the committed batch survives");
        assert_eq!(replay.next_seq, 2, "partial batch seqs are reusable");
        assert_eq!(
            replay.batch_hwm, 1,
            "uncommitted batch id does not advance hwm"
        );

        // Truncated mid-record (a torn write) behaves the same.
        bytes.truncate(n - 3);
        fs::write(&path, &bytes).unwrap();
        let replay = Wal::replay(&dir, 0, &reg).unwrap();
        assert!(replay.truncated);
        assert_eq!(replay.updates.len(), 1);

        // Reopening drops the torn tail; the retry reuses seqs 2..=4 and
        // replays cleanly.
        let mut wal = Wal::open(&dir, replay.next_seq, reg.clone()).unwrap();
        wal.append_batch(&[add(0, 0, 1.0), add(1, 1, 1.0), add(2, 2, 1.0)], 2)
            .unwrap();
        let healed = Wal::replay(&dir, 0, &reg).unwrap();
        assert!(!healed.truncated);
        assert_eq!(healed.updates.len(), 4);
        assert_eq!(healed.updates[3].0, 4);
        assert_eq!(healed.batch_hwm, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_fsync_poisons_until_reopen_and_loses_nothing() {
        let dir = tmp("poison");
        let reg = Registry::new();
        let scope = dir.to_string_lossy().into_owned();
        let mut wal = Wal::open(&dir, 1, reg.clone()).unwrap();
        wal.append_batch(&[add(0, 0, 1.0)], 1).unwrap();

        // Arm the fsync failpoint for this directory only: the append
        // writes its bytes but the sync fails, so the batch must not
        // exist logically.
        fault::arm_scoped(points::WAL_FSYNC, Trigger::Nth(1), scope.clone());
        let err = wal
            .append_batch(&[add(1, 1, 1.0), add(2, 2, 1.0)], 2)
            .unwrap_err();
        assert_eq!(err.kind(), "io");
        assert!(wal.is_poisoned());
        assert_eq!(wal.next_seq(), 2, "failed append advances nothing");

        // While poisoned, further appends are refused outright.
        assert!(wal.append_batch(&[add(3, 3, 1.0)], 3).is_err());

        // The unacknowledged batch's bytes physically landed before the
        // fsync failed, so a crash *now* would recover it — which is
        // safe: the ack was lost, the client retries under the same id,
        // and the recovered hwm dedupes the retry. (Had the bytes not
        // survived, the retry would apply instead. Either way, exactly
        // once.)
        let replay = Wal::replay(&dir, 0, &reg).unwrap();
        assert_eq!(replay.updates.len(), 3);
        assert_eq!(replay.batch_hwm, 2);

        // The live process instead heals by truncating back to what it
        // *knows* is durable; the retried batch then lands on the same
        // sequence numbers.
        wal.reopen().unwrap();
        assert!(!wal.is_poisoned());
        let replay = Wal::replay(&dir, 0, &reg).unwrap();
        assert_eq!(
            replay.updates.len(),
            1,
            "reopen discarded the unsynced tail"
        );
        assert_eq!(
            wal.append_batch(&[add(1, 1, 1.0), add(2, 2, 1.0)], 2)
                .unwrap(),
            3
        );
        let replay = Wal::replay(&dir, 0, &reg).unwrap();
        assert!(!replay.truncated);
        assert_eq!(replay.updates.len(), 3);
        assert_eq!(replay.batch_hwm, 2);
        assert_eq!(reg.snapshot().counter("wal.reopens"), Some(1));
        fault::disarm(points::WAL_FSYNC);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_stays_poisoned_while_fsync_keeps_failing() {
        let dir = tmp("stuck");
        let reg = Registry::new();
        let scope = dir.to_string_lossy().into_owned();
        let mut wal = Wal::open(&dir, 1, reg.clone()).unwrap();
        wal.append_batch(&[add(0, 0, 1.0)], 1).unwrap();

        fault::arm_scoped(points::WAL_FSYNC, Trigger::Nth(1), scope.clone());
        assert!(wal.append_batch(&[add(1, 1, 1.0)], 2).is_err());
        // The reopen probe hits the same failing disk.
        fault::arm_scoped(points::WAL_FSYNC, Trigger::Nth(1), scope.clone());
        assert!(wal.reopen().is_err());
        assert!(wal.is_poisoned());
        // Once the disk recovers, reopen heals.
        wal.reopen().unwrap();
        assert!(!wal.is_poisoned());
        assert_eq!(wal.append_batch(&[add(1, 1, 1.0)], 2).unwrap(), 2);
        fault::disarm(points::WAL_FSYNC);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_continues_the_sequence() {
        let dir = tmp("reopen");
        let reg = Registry::new();
        let mut wal = Wal::open(&dir, 1, reg.clone()).unwrap();
        wal.append_batch(&[add(0, 0, 1.0)], 0).unwrap();
        drop(wal);

        let replay = Wal::replay(&dir, 0, &reg).unwrap();
        let mut wal = Wal::open(&dir, replay.next_seq, reg.clone()).unwrap();
        assert_eq!(wal.next_seq(), 2);
        wal.append_batch(&[add(1, 1, 1.0)], 0).unwrap();
        let replay = Wal::replay(&dir, 0, &reg).unwrap();
        assert_eq!(replay.updates.len(), 2);
        assert_eq!(reg.snapshot().counter("wal.fsyncs"), Some(2));
        fs::remove_dir_all(&dir).unwrap();
    }
}
