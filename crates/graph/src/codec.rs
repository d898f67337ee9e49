//! Versioned binary [`KnnGraph`] codec for snapshot persistence.
//!
//! The TSV writer in [`crate::io`] prints similarities with 17
//! significant digits, which round-trips `f64` but costs parsing time
//! and space; a serving daemon snapshotting every few thousand updates
//! wants neither. This codec stores similarities as raw `f64` bit
//! patterns, so a restored engine's heaps are bit-identical to the
//! writer's and replay determinism is preserved.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic  b"KIFG"
//! version u16       (currently 1)
//! header  u64 k, u64 num_users
//! rows    per user: u32 len (≤ k), then len × (u32 id, u64 f64-bits)
//! ```
//!
//! Corruption surfaces as [`std::io::ErrorKind::InvalidData`], matching
//! the dataset codec's convention.

use std::io::{self, Read, Write};

use kiff_dataset::codec::{read_u16, read_u32, read_u64, write_u16, write_u32, write_u64};
use kiff_dataset::UserId;

use crate::knn::{KnnGraph, Neighbor};

const MAGIC: &[u8; 4] = b"KIFG";
const VERSION: u16 = 1;

fn corrupt(detail: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, detail.into())
}

/// Serializes `graph` into `w`.
pub fn write_graph<W: Write>(w: &mut W, graph: &KnnGraph) -> io::Result<()> {
    w.write_all(MAGIC)?;
    write_u16(w, VERSION)?;
    write_u64(w, graph.k() as u64)?;
    write_u64(w, graph.num_users() as u64)?;
    for u in 0..graph.num_users() as UserId {
        let row = graph.neighbors(u);
        write_u32(
            w,
            u32::try_from(row.len()).map_err(|_| corrupt("neighbour row too long"))?,
        )?;
        for nb in row {
            write_u32(w, nb.id)?;
            write_u64(w, nb.sim.to_bits())?;
        }
    }
    Ok(())
}

/// Deserializes a graph from `r`, validating ids, row lengths, and
/// similarity values as it goes.
pub fn read_graph<R: Read>(r: &mut R) -> io::Result<KnnGraph> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(corrupt(format!("bad graph magic {magic:?}")));
    }
    let version = read_u16(r)?;
    if version != VERSION {
        return Err(corrupt(format!(
            "unsupported graph codec version {version} (expected {VERSION})"
        )));
    }
    let k = usize::try_from(read_u64(r)?).map_err(|_| corrupt("k overflows usize"))?;
    if k == 0 {
        return Err(corrupt("k must be positive"));
    }
    let num_users =
        usize::try_from(read_u64(r)?).map_err(|_| corrupt("user count overflows usize"))?;
    let mut rows = Vec::with_capacity(num_users);
    for u in 0..num_users as UserId {
        let len = read_u32(r)? as usize;
        if len > k {
            return Err(corrupt(format!(
                "user {u} stores {len} neighbours with k = {k}"
            )));
        }
        let mut row = Vec::with_capacity(len);
        for _ in 0..len {
            let id = read_u32(r)?;
            let sim = f64::from_bits(read_u64(r)?);
            if (id as usize) >= num_users || id == u {
                return Err(corrupt(format!("user {u} has invalid neighbour id {id}")));
            }
            if sim.is_nan() {
                return Err(corrupt(format!(
                    "user {u} -> {id} carries a NaN similarity"
                )));
            }
            row.push(Neighbor { id, sim });
        }
        rows.push(row);
    }
    Ok(KnnGraph::from_neighbors(k, rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_graph() -> KnnGraph {
        KnnGraph::from_neighbors(
            2,
            vec![
                vec![
                    Neighbor { id: 1, sim: 0.5 },
                    Neighbor {
                        id: 2,
                        sim: 1.0 / 3.0,
                    },
                ],
                vec![Neighbor { id: 0, sim: 0.5 }],
                vec![],
            ],
        )
    }

    #[test]
    fn round_trips_bit_identically() {
        let graph = toy_graph();
        let mut buf = Vec::new();
        write_graph(&mut buf, &graph).unwrap();
        let back = read_graph(&mut buf.as_slice()).unwrap();
        assert_eq!(back.k(), graph.k());
        assert_eq!(back.num_users(), graph.num_users());
        for u in 0..graph.num_users() as UserId {
            let (a, b) = (graph.neighbors(u), back.neighbors(u));
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.id, y.id);
                assert_eq!(x.sim.to_bits(), y.sim.to_bits(), "exact bits survive");
            }
        }
    }

    #[test]
    fn corruption_is_rejected() {
        let graph = toy_graph();
        let mut buf = Vec::new();
        write_graph(&mut buf, &graph).unwrap();

        let mut evil = buf.clone();
        evil[1] = b'?';
        assert_eq!(
            read_graph(&mut evil.as_slice()).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );

        // Self-loop: patch user 1's single neighbour id (0 -> 1). Offset:
        // magic(4) + version(2) + k(8) + n(8) + row0(4 + 2*12) + row1 len(4).
        let mut looped = buf.clone();
        let offset = 4 + 2 + 8 + 8 + 4 + 24 + 4;
        looped[offset..offset + 4].copy_from_slice(&1u32.to_le_bytes());
        assert!(read_graph(&mut looped.as_slice()).is_err());

        assert!(read_graph(&mut &buf[..buf.len() - 1]).is_err());
    }
}
