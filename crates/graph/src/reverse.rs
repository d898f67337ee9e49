//! Incrementally maintained reverse adjacency.
//!
//! [`KnnGraph::reverse`](crate::KnnGraph::reverse) materialises
//! in-neighbour lists once, which is the right shape for batch
//! algorithms. The online engine instead needs the invariant
//! *`u ∈ incoming(v)` ⇔ `v ∈ knn_u`* kept live across thousands of
//! single-edge mutations: when a user's profile changes, every user
//! currently pointing *at* it holds a stale similarity and must be
//! visited (the Debatty-style propagation step). This module provides
//! that as hash-set rows with O(1) edge add/remove.

use kiff_collections::FxHashSet;
use kiff_dataset::UserId;

/// Reverse adjacency for one *shard* of users: rows are indexed by the
/// shard's dense local slot, contents are **global** user ids.
///
/// The online engine partitions users across shards, and the invariant
/// *`u ∈ incoming(v)` ⇔ `v ∈ knn_u`* crosses that partition: the owner of
/// edge `u → v` lives on `shard(u)` while `incoming(v)` lives on
/// `shard(v)`. Each shard keeps a `ShardReverse` covering only its owned
/// targets; edge edits whose target lives elsewhere are routed to the
/// owning shard as asynchronous messages and applied there. The source
/// ids stay global because the pointing user can be anywhere.
#[derive(Debug, Clone, Default)]
pub struct ShardReverse {
    /// Row index = local slot, contents = global source ids.
    rows: Vec<FxHashSet<UserId>>,
}

impl ShardReverse {
    /// Empty in-neighbour sets for `slots` locally-owned users.
    pub fn new(slots: usize) -> Self {
        Self {
            rows: vec![FxHashSet::default(); slots],
        }
    }

    /// Number of locally-owned slots.
    pub fn num_slots(&self) -> usize {
        self.rows.len()
    }

    /// Appends a slot for a newly-assigned user, returning its local index.
    pub fn push_slot(&mut self) -> usize {
        self.rows.push(FxHashSet::default());
        self.rows.len() - 1
    }

    /// Records the KNN edge `source → (local) target`.
    pub fn add(&mut self, target_slot: usize, source: UserId) {
        self.rows[target_slot].insert(source);
    }

    /// Retracts the KNN edge `source → (local) target`; returns whether it
    /// was recorded.
    pub fn remove(&mut self, target_slot: usize, source: UserId) -> bool {
        self.rows[target_slot].remove(&source)
    }

    /// The global ids of users whose neighbourhoods contain the local
    /// target (unordered).
    pub fn in_neighbors(&self, target_slot: usize) -> impl Iterator<Item = UserId> + '_ {
        self.rows[target_slot].iter().copied()
    }

    /// In-degree of the local target.
    pub fn in_degree(&self, target_slot: usize) -> usize {
        self.rows[target_slot].len()
    }

    /// Whether `source → (local) target` is recorded.
    pub fn contains(&self, target_slot: usize, source: UserId) -> bool {
        self.rows[target_slot].contains(&source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::{KnnGraph, Neighbor};

    #[test]
    fn add_remove_round_trip() {
        let mut rev = ShardReverse::new(3);
        rev.add(2, 0);
        rev.add(2, 1);
        assert_eq!(rev.in_degree(2), 2);
        assert!(rev.contains(2, 0));
        assert!(rev.remove(2, 0));
        assert!(!rev.remove(2, 0));
        assert_eq!(rev.in_degree(2), 1);
        let ins: Vec<u32> = rev.in_neighbors(2).collect();
        assert_eq!(ins, vec![1]);
    }

    #[test]
    fn from_graph_matches_batch_reverse() {
        // One shard owning every user in id order: slot == user id, so
        // the live rows must equal the batch in-neighbour lists.
        let g = KnnGraph::from_neighbors(
            2,
            vec![
                vec![Neighbor { id: 1, sim: 0.9 }, Neighbor { id: 2, sim: 0.5 }],
                vec![Neighbor { id: 2, sim: 0.8 }],
                vec![],
            ],
        );
        let mut rev = ShardReverse::new(g.num_users());
        for u in 0..g.num_users() as UserId {
            for n in g.neighbors(u) {
                rev.add(n.id as usize, u);
            }
        }
        for (v, batch) in g.reverse().iter().enumerate() {
            let mut live: Vec<u32> = rev.in_neighbors(v).collect();
            live.sort_unstable();
            assert_eq!(&live, batch, "user {v}");
        }
    }

    #[test]
    fn shard_reverse_round_trip() {
        let mut rev = ShardReverse::new(2);
        assert_eq!(rev.num_slots(), 2);
        rev.add(0, 7);
        rev.add(0, 1000); // sources are global ids, unbounded by slot count
        rev.add(1, 7);
        assert_eq!(rev.in_degree(0), 2);
        assert!(rev.contains(0, 1000));
        assert!(rev.remove(0, 7));
        assert!(!rev.remove(0, 7), "double retract reports absence");
        let ins: Vec<u32> = rev.in_neighbors(0).collect();
        assert_eq!(ins, vec![1000]);
        assert_eq!(rev.push_slot(), 2);
        rev.add(2, 3);
        assert_eq!(rev.in_degree(2), 1);
    }

    #[test]
    fn push_user_extends() {
        let mut rev = ShardReverse::new(1);
        assert_eq!(rev.push_slot(), 1);
        rev.add(0, 1);
        assert_eq!(rev.in_degree(0), 1);
        assert_eq!(rev.num_slots(), 2);
    }
}
