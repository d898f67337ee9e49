//! Versioned binary [`Dataset`] codec for snapshot persistence.
//!
//! The TSV/JSON loaders in [`crate::io`] exist for interchange; this
//! codec exists for *recovery speed* — a serving daemon restoring from a
//! snapshot must deserialize straight into the CSR without parsing text
//! or re-deriving anything. Ratings are stored as exact `f32` bit
//! patterns so a restored engine replays bit-identically to the one
//! that wrote the snapshot.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic  b"KIFD"
//! version u16        (currently 1)
//! name    u32 len + UTF-8 bytes
//! counts  u64 users, u64 items, u64 ratings
//! rows    per user: u32 degree, then degree × (u32 item, u32 f32-bits)
//! ```
//!
//! Corruption (bad magic, unsupported version, unsorted or out-of-range
//! rows, truncation) surfaces as [`std::io::ErrorKind::InvalidData`];
//! higher layers lift that into their structured error type.
//!
//! The little-endian integer helpers below are shared by every binary
//! codec in the workspace (the graph codec and the serve snapshot).

use std::io::{self, Read, Write};

use kiff_collections::Csr;

use crate::dataset::Dataset;
use crate::types::UserId;

const MAGIC: &[u8; 4] = b"KIFD";
const VERSION: u16 = 1;

fn corrupt(detail: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, detail.into())
}

/// Writes `v` as 2 little-endian bytes.
pub fn write_u16<W: Write>(w: &mut W, v: u16) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Writes `v` as 4 little-endian bytes.
pub fn write_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Writes `v` as 8 little-endian bytes.
pub fn write_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Reads 2 little-endian bytes.
pub fn read_u16<R: Read>(r: &mut R) -> io::Result<u16> {
    let mut buf = [0u8; 2];
    r.read_exact(&mut buf)?;
    Ok(u16::from_le_bytes(buf))
}

/// Reads 4 little-endian bytes.
pub fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

/// Reads 8 little-endian bytes.
pub fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

/// Converts a persisted u64 count to `usize`, rejecting absurd values.
fn checked_len(v: u64, what: &str) -> io::Result<usize> {
    usize::try_from(v).map_err(|_| corrupt(format!("{what} count {v} overflows usize")))
}

/// Serializes `dataset` into `w`.
pub fn write_dataset<W: Write>(w: &mut W, dataset: &Dataset) -> io::Result<()> {
    w.write_all(MAGIC)?;
    write_u16(w, VERSION)?;
    let name = dataset.name().as_bytes();
    write_u32(
        w,
        u32::try_from(name.len()).map_err(|_| corrupt("dataset name too long"))?,
    )?;
    w.write_all(name)?;
    write_u64(w, dataset.num_users() as u64)?;
    write_u64(w, dataset.num_items() as u64)?;
    write_u64(w, dataset.num_ratings() as u64)?;
    for u in 0..dataset.num_users() as UserId {
        let profile = dataset.user_profile(u);
        write_u32(
            w,
            u32::try_from(profile.items.len()).map_err(|_| corrupt("profile too long"))?,
        )?;
        for (&item, &rating) in profile.items.iter().zip(profile.ratings) {
            write_u32(w, item)?;
            write_u32(w, rating.to_bits())?;
        }
    }
    Ok(())
}

/// Deserializes a dataset from `r`, validating structure as it goes.
pub fn read_dataset<R: Read>(r: &mut R) -> io::Result<Dataset> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(corrupt(format!("bad dataset magic {magic:?}")));
    }
    let version = read_u16(r)?;
    if version != VERSION {
        return Err(corrupt(format!(
            "unsupported dataset codec version {version} (expected {VERSION})"
        )));
    }
    let name_len = checked_len(read_u32(r)? as u64, "name byte")?;
    let mut name_buf = vec![0u8; name_len];
    r.read_exact(&mut name_buf)?;
    let name =
        String::from_utf8(name_buf).map_err(|_| corrupt("dataset name is not valid UTF-8"))?;
    let num_users = checked_len(read_u64(r)?, "user")?;
    let num_items = checked_len(read_u64(r)?, "item")?;
    let num_ratings = checked_len(read_u64(r)?, "rating")?;
    // Rows were written sorted, so they are read straight into the CSR;
    // `Csr::from_sorted_parts` rejects a row that is not.
    let mut offsets = Vec::with_capacity(num_users + 1);
    let mut items = Vec::with_capacity(num_ratings);
    let mut ratings = Vec::with_capacity(num_ratings);
    offsets.push(0);
    for u in 0..num_users as UserId {
        let degree = read_u32(r)? as usize;
        for _ in 0..degree {
            let item = read_u32(r)?;
            let rating = f32::from_bits(read_u32(r)?);
            if (item as usize) >= num_items {
                return Err(corrupt(format!(
                    "user {u} rates item {item} beyond the declared {num_items}"
                )));
            }
            if !(rating.is_finite() && rating > 0.0) {
                return Err(corrupt(format!(
                    "user {u} item {item} carries invalid rating {rating}"
                )));
            }
            items.push(item);
            ratings.push(rating);
        }
        offsets.push(items.len());
    }
    if items.len() != num_ratings {
        return Err(corrupt(format!(
            "rating count mismatch: header says {num_ratings}, rows sum to {}",
            items.len()
        )));
    }
    let users = Csr::from_sorted_parts(offsets, items, ratings).map_err(corrupt)?;
    Ok(Dataset::from_users_csr(name, num_items, users))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{figure2_toy, DatasetBuilder};

    fn round_trip(ds: &Dataset) -> Dataset {
        let mut buf = Vec::new();
        write_dataset(&mut buf, ds).unwrap();
        read_dataset(&mut buf.as_slice()).unwrap()
    }

    #[test]
    fn round_trips_bit_identically() {
        let ds = figure2_toy();
        let back = round_trip(&ds);
        assert_eq!(back.name(), ds.name());
        assert_eq!(back.num_users(), ds.num_users());
        assert_eq!(back.num_items(), ds.num_items());
        assert_eq!(back.num_ratings(), ds.num_ratings());
        for u in 0..ds.num_users() as UserId {
            assert_eq!(back.user_profile(u).items, ds.user_profile(u).items);
            // Exact bits, not approximate equality: recovery must replay
            // identically to the writer.
            let a: Vec<u32> = ds
                .user_profile(u)
                .ratings
                .iter()
                .map(|r| r.to_bits())
                .collect();
            let b: Vec<u32> = back
                .user_profile(u)
                .ratings
                .iter()
                .map(|r| r.to_bits())
                .collect();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn empty_users_survive() {
        let b = DatasetBuilder::new("sparse", 3, 2);
        // User 1 rates nothing at all.
        let mut b = b;
        b.add_rating(0, 0, 1.5);
        b.add_rating(2, 1, 0.25);
        let back = round_trip(&b.build());
        assert_eq!(back.num_users(), 3);
        assert_eq!(back.user_degree(1), 0);
        assert_eq!(back.user_profile(2).items, &[1]);
    }

    #[test]
    fn bad_magic_and_truncation_are_invalid_data() {
        let ds = figure2_toy();
        let mut buf = Vec::new();
        write_dataset(&mut buf, &ds).unwrap();

        let mut evil = buf.clone();
        evil[0] = b'X';
        let err = read_dataset(&mut evil.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        let cut = &buf[..buf.len() - 3];
        assert!(read_dataset(&mut &cut[..]).is_err());

        let mut wrong_version = buf.clone();
        wrong_version[4] = 9;
        let err = read_dataset(&mut wrong_version.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn out_of_range_item_is_rejected() {
        let ds = figure2_toy();
        let mut buf = Vec::new();
        write_dataset(&mut buf, &ds).unwrap();
        // The first row entry sits right after magic(4) + version(2) +
        // name(4 + len) + counts(24) + degree(4). Patch its item id.
        let offset = 4 + 2 + 4 + ds.name().len() + 24 + 4;
        buf[offset..offset + 4].copy_from_slice(&999u32.to_le_bytes());
        let err = read_dataset(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("999"));
    }

    #[test]
    fn unsorted_row_is_rejected() {
        let ds = figure2_toy();
        let mut buf = Vec::new();
        write_dataset(&mut buf, &ds).unwrap();
        // Alice's row is items [0, 1]; repeat the first as the second.
        let second = 4 + 2 + 4 + ds.name().len() + 24 + 4 + 8;
        buf[second..second + 4].copy_from_slice(&0u32.to_le_bytes());
        let err = read_dataset(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("not strictly sorted"), "{err}");
    }
}
