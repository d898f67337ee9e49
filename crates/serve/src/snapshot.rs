//! Point-in-time engine snapshots.
//!
//! A snapshot freezes everything recovery needs to resume without a
//! rebuild: the compacted dataset, the KNN graph (raw `f64` bits, so a
//! restored engine's heaps are bit-identical), and the per-user
//! shared-item counters. Counters are a pure speed optimisation:
//! recounting them from the dataset yields the same values (counting is
//! exact), just slower. The section is optional on disk because files
//! from sharded daemons of earlier versions lack it; a reader missing it
//! still recovers correctly via `ShardedOnlineKnn::from_graph`.
//!
//! ```text
//! magic    b"KIFS"
//! version  u16 (currently 3)
//! seq      u64      — the WAL sequence this snapshot covers (1..=seq)
//! hwm      u64      — applied-batch high-water mark (version ≥ 2)
//! epoch    u64      — replication leadership epoch (version ≥ 3)
//! dataset  kiff_dataset::codec block (b"KIFD")
//! graph    kiff_graph::codec block (b"KIFG")
//! counters u8 presence flag; when 1: per user u32 len,
//!          then len × (u32 co-rater id, u32 shared-item count)
//! ```
//!
//! Version 2 added the applied-batch high-water mark: once a snapshot
//! lets the WAL prune segments, the hwm is the only surviving proof
//! that a client-retried batch was already applied — losing it would
//! re-open the double-apply window the WAL's commit markers close.
//! Version 3 added the replication leadership epoch: a promoted replica
//! bumps it and snapshots immediately, so the fence against the old
//! primary's late frames survives a restart. Version-1 and -2 files
//! still load (with `batch_hwm = 0` / `epoch = 0` respectively).
//!
//! Files are named `snap-{seq:016}.kifs` and written via a `.tmp` +
//! `fsync` + atomic rename, so a crash mid-write leaves no torn
//! snapshot behind — only the previous one. The `snapshot.write` and
//! `snapshot.rename` failpoints ([`kiff_core::fault`]) fire here,
//! scoped by the snapshot directory path.

use std::fs::{self, File};
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use kiff_core::fault::{self, points};
use kiff_core::KiffError;
use kiff_dataset::codec::{read_u16, read_u32, read_u64, write_u16, write_u64};
use kiff_dataset::{Dataset, UserId};
use kiff_graph::KnnGraph;

const MAGIC: &[u8; 4] = b"KIFS";
const VERSION: u16 = 3;

/// A decoded snapshot.
#[derive(Debug)]
pub struct Snapshot {
    /// The WAL sequence number this snapshot covers (updates `1..=seq`).
    pub seq: u64,
    /// Highest client-assigned batch id applied at the snapshot point
    /// (0 in version-1 files, which predate batch ids).
    pub batch_hwm: u64,
    /// Replication leadership epoch at the snapshot point (0 in
    /// version-1/-2 files, which predate replication).
    pub epoch: u64,
    /// The compacted dataset at the snapshot point.
    pub dataset: Dataset,
    /// The KNN graph at the snapshot point, bit-identical to the writer's.
    pub graph: KnnGraph,
    /// Per-user shared-item counters, when the writer exported them.
    pub counters: Option<Vec<Vec<(UserId, u32)>>>,
}

fn corrupt(detail: impl Into<String>) -> KiffError {
    KiffError::corrupt("snapshot", detail)
}

/// The canonical file name for the snapshot covering `seq`.
pub fn snapshot_name(seq: u64) -> String {
    format!("snap-{seq:016}.kifs")
}

/// Writes a snapshot of (`dataset`, `graph`, `counters`) covering WAL
/// sequence `seq` with applied-batch high-water mark `batch_hwm` and
/// replication leadership epoch `epoch` into `dir`, atomically. Returns
/// the final path.
pub fn save_snapshot(
    dir: &Path,
    seq: u64,
    batch_hwm: u64,
    epoch: u64,
    dataset: &Dataset,
    graph: &KnnGraph,
    counters: Option<&[Vec<(UserId, u32)>]>,
) -> Result<PathBuf, KiffError> {
    fs::create_dir_all(dir).map_err(KiffError::Io)?;
    let ctx = dir.to_string_lossy();
    let final_path = dir.join(snapshot_name(seq));
    let tmp_path = dir.join(format!("{}.tmp", snapshot_name(seq)));

    // A fault anywhere before the rename leaves only the .tmp file,
    // which `latest_snapshot` never picks up — clean it up on the way
    // out so a retried snapshot starts fresh.
    let write_result = (|| -> Result<(), KiffError> {
        fault::check_ctx(points::SNAPSHOT_WRITE, &ctx)?;
        let file = File::create(&tmp_path).map_err(KiffError::Io)?;
        let mut w = BufWriter::new(file);
        w.write_all(MAGIC).map_err(KiffError::Io)?;
        write_u16(&mut w, VERSION).map_err(KiffError::Io)?;
        write_u64(&mut w, seq).map_err(KiffError::Io)?;
        write_u64(&mut w, batch_hwm).map_err(KiffError::Io)?;
        write_u64(&mut w, epoch).map_err(KiffError::Io)?;
        kiff_dataset::codec::write_dataset(&mut w, dataset).map_err(KiffError::Io)?;
        kiff_graph::codec::write_graph(&mut w, graph).map_err(KiffError::Io)?;
        match counters {
            Some(rows) => {
                if rows.len() != dataset.num_users() {
                    return Err(corrupt(format!(
                        "{} counter rows for {} users",
                        rows.len(),
                        dataset.num_users()
                    )));
                }
                w.write_all(&[1]).map_err(KiffError::Io)?;
                // One write per row: counters dominate the file, and
                // per-field writes cost more than the encoding itself.
                let mut buf: Vec<u8> = Vec::new();
                for row in rows {
                    buf.clear();
                    buf.extend_from_slice(&(row.len() as u32).to_le_bytes());
                    for &(v, c) in row {
                        buf.extend_from_slice(&v.to_le_bytes());
                        buf.extend_from_slice(&c.to_le_bytes());
                    }
                    w.write_all(&buf).map_err(KiffError::Io)?;
                }
            }
            None => w.write_all(&[0]).map_err(KiffError::Io)?,
        }
        let file = w.into_inner().map_err(|e| KiffError::Io(e.into()))?;
        file.sync_all().map_err(KiffError::Io)?;
        drop(file);
        fault::check_ctx(points::SNAPSHOT_RENAME, &ctx)?;
        fs::rename(&tmp_path, &final_path).map_err(KiffError::Io)?;
        Ok(())
    })();
    if let Err(e) = write_result {
        let _ = fs::remove_file(&tmp_path);
        return Err(e);
    }
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(final_path)
}

/// Reads and validates the snapshot at `path`.
pub fn load_snapshot(path: &Path) -> Result<Snapshot, KiffError> {
    let file = File::open(path).map_err(KiffError::Io)?;
    let mut r = BufReader::new(file);

    let mut magic = [0u8; 4];
    r.read_exact(&mut magic).map_err(KiffError::from)?;
    if &magic != MAGIC {
        return Err(corrupt(format!("bad magic {magic:?}")));
    }
    let version = read_u16(&mut r).map_err(KiffError::from)?;
    if !(1..=VERSION).contains(&version) {
        return Err(corrupt(format!(
            "unsupported version {version} (expected 1..={VERSION})"
        )));
    }
    let seq = read_u64(&mut r).map_err(KiffError::from)?;
    // Version 1 predates batch-id dedup; an hwm of 0 dedupes nothing.
    let batch_hwm = if version >= 2 {
        read_u64(&mut r).map_err(KiffError::from)?
    } else {
        0
    };
    // Versions 1–2 predate replication; epoch 0 fences nothing.
    let epoch = if version >= 3 {
        read_u64(&mut r).map_err(KiffError::from)?
    } else {
        0
    };
    let dataset = kiff_dataset::codec::read_dataset(&mut r).map_err(KiffError::from)?;
    let graph = kiff_graph::codec::read_graph(&mut r).map_err(KiffError::from)?;
    if graph.num_users() != dataset.num_users() {
        return Err(corrupt(format!(
            "graph covers {} users, dataset {}",
            graph.num_users(),
            dataset.num_users()
        )));
    }

    let mut flag = [0u8; 1];
    r.read_exact(&mut flag).map_err(KiffError::from)?;
    let counters = match flag[0] {
        0 => None,
        1 => {
            let n = dataset.num_users();
            let mut rows = Vec::with_capacity(n);
            // Bulk-read each row: recovery time is dominated by this
            // section, and two `read_exact` calls per pair cost more
            // than the decoding itself.
            let mut buf: Vec<u8> = Vec::new();
            for u in 0..n {
                let len = read_u32(&mut r).map_err(KiffError::from)? as usize;
                if len > n {
                    return Err(corrupt(format!("user {u} has {len} counter entries")));
                }
                buf.resize(len * 8, 0);
                r.read_exact(&mut buf).map_err(KiffError::from)?;
                let mut row = Vec::with_capacity(len);
                for pair in buf.chunks_exact(8) {
                    let v = u32::from_le_bytes(pair[0..4].try_into().expect("4-byte chunk"));
                    let c = u32::from_le_bytes(pair[4..8].try_into().expect("4-byte chunk"));
                    row.push((v, c));
                }
                rows.push(row);
            }
            Some(rows)
        }
        other => return Err(corrupt(format!("bad counters flag {other}"))),
    };
    Ok(Snapshot {
        seq,
        batch_hwm,
        epoch,
        dataset,
        graph,
        counters,
    })
}

/// The newest complete snapshot in `dir`, as `(seq, path)`.
pub fn latest_snapshot(dir: &Path) -> Result<Option<(u64, PathBuf)>, KiffError> {
    if !dir.exists() {
        return Ok(None);
    }
    let mut best: Option<(u64, PathBuf)> = None;
    for entry in fs::read_dir(dir).map_err(KiffError::Io)? {
        let entry = entry.map_err(KiffError::Io)?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(seq) = name
            .strip_prefix("snap-")
            .and_then(|rest| rest.strip_suffix(".kifs"))
            .and_then(|digits| digits.parse::<u64>().ok())
        {
            if best.as_ref().is_none_or(|(b, _)| seq > *b) {
                best = Some((seq, entry.path()));
            }
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kiff_dataset::dataset::figure2_toy;
    use kiff_graph::Neighbor;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("kiff-snap-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&p);
        p
    }

    fn toy_graph() -> KnnGraph {
        KnnGraph::from_neighbors(
            2,
            vec![
                vec![Neighbor { id: 1, sim: 0.5 }],
                vec![Neighbor { id: 0, sim: 0.5 }],
                vec![Neighbor { id: 3, sim: 1.0 }],
                vec![Neighbor { id: 2, sim: 1.0 }],
            ],
        )
    }

    #[test]
    fn round_trips_with_and_without_counters() {
        let dir = tmp("rt");
        let ds = figure2_toy();
        let graph = toy_graph();
        let counters = vec![
            vec![(1u32, 1u32)],
            vec![(0, 1), (2, 1)],
            vec![(1, 1)],
            vec![],
        ];

        save_snapshot(&dir, 7, 41, 2, &ds, &graph, Some(&counters)).unwrap();
        let snap = load_snapshot(&dir.join(snapshot_name(7))).unwrap();
        assert_eq!(snap.seq, 7);
        assert_eq!(snap.batch_hwm, 41);
        assert_eq!(snap.epoch, 2);
        assert_eq!(snap.dataset.num_ratings(), ds.num_ratings());
        assert_eq!(snap.graph, graph);
        assert_eq!(snap.counters.as_deref(), Some(&counters[..]));

        save_snapshot(&dir, 9, 0, 0, &ds, &graph, None).unwrap();
        let snap = load_snapshot(&dir.join(snapshot_name(9))).unwrap();
        assert!(snap.counters.is_none());

        let (seq, path) = latest_snapshot(&dir).unwrap().unwrap();
        assert_eq!(seq, 9);
        assert!(path.ends_with(snapshot_name(9)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version1_files_load_with_zero_hwm() {
        let dir = tmp("v1");
        let ds = figure2_toy();
        let graph = toy_graph();
        let path = save_snapshot(&dir, 3, 17, 9, &ds, &graph, None).unwrap();
        // Rewrite the file as version 1: drop the hwm and epoch fields.
        let bytes = fs::read(&path).unwrap();
        let mut v1 = Vec::with_capacity(bytes.len() - 16);
        v1.extend_from_slice(&bytes[..4]);
        v1.extend_from_slice(&1u16.to_le_bytes());
        v1.extend_from_slice(&bytes[6..14]); // seq
        v1.extend_from_slice(&bytes[30..]); // skip hwm + epoch
        fs::write(&path, &v1).unwrap();
        let snap = load_snapshot(&path).unwrap();
        assert_eq!(snap.seq, 3);
        assert_eq!(snap.batch_hwm, 0, "v1 predates batch ids");
        assert_eq!(snap.epoch, 0, "v1 predates replication");
        assert_eq!(snap.graph, graph);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version2_files_load_with_zero_epoch() {
        let dir = tmp("v2");
        let ds = figure2_toy();
        let graph = toy_graph();
        let path = save_snapshot(&dir, 4, 23, 5, &ds, &graph, None).unwrap();
        // Rewrite the file as version 2: keep hwm, drop the epoch field.
        let bytes = fs::read(&path).unwrap();
        let mut v2 = Vec::with_capacity(bytes.len() - 8);
        v2.extend_from_slice(&bytes[..4]);
        v2.extend_from_slice(&2u16.to_le_bytes());
        v2.extend_from_slice(&bytes[6..22]); // seq + hwm
        v2.extend_from_slice(&bytes[30..]); // skip epoch
        fs::write(&path, &v2).unwrap();
        let snap = load_snapshot(&path).unwrap();
        assert_eq!(snap.seq, 4);
        assert_eq!(snap.batch_hwm, 23, "v2 keeps its hwm");
        assert_eq!(snap.epoch, 0, "v2 predates replication");
        assert_eq!(snap.graph, graph);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn faulted_write_leaves_no_tmp_and_no_snapshot() {
        use kiff_core::fault::{self, points, Trigger};
        let dir = tmp("faulted");
        let ds = figure2_toy();
        let graph = toy_graph();
        let scope = dir.to_string_lossy().into_owned();

        fault::arm_scoped(points::SNAPSHOT_RENAME, Trigger::Nth(1), scope.clone());
        let err = save_snapshot(&dir, 5, 1, 0, &ds, &graph, None).unwrap_err();
        assert_eq!(err.kind(), "io");
        assert_eq!(latest_snapshot(&dir).unwrap(), None, "no torn snapshot");
        assert!(
            fs::read_dir(&dir).unwrap().next().is_none(),
            ".tmp cleaned up"
        );
        // The retry goes through untouched.
        save_snapshot(&dir, 5, 1, 0, &ds, &graph, None).unwrap();
        assert_eq!(latest_snapshot(&dir).unwrap().unwrap().0, 5);
        fault::disarm(points::SNAPSHOT_RENAME);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_is_a_typed_error() {
        let dir = tmp("bad");
        let ds = figure2_toy();
        let graph = toy_graph();
        let path = save_snapshot(&dir, 1, 0, 0, &ds, &graph, None).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes[0] = b'?';
        fs::write(&path, &bytes).unwrap();
        let err = load_snapshot(&path).unwrap_err();
        assert!(matches!(err, KiffError::Corrupt { .. }), "{err}");
        assert_eq!(err.exit_code(), 5);

        // A torn .tmp file is never picked up as a snapshot.
        fs::write(dir.join("snap-0000000000000002.kifs.tmp"), b"torn").unwrap();
        assert_eq!(latest_snapshot(&dir).unwrap().unwrap().0, 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}
