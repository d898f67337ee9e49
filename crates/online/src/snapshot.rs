//! Clock-tagged snapshot caches: how the engine publishes its graph and
//! ratings without rebuilding what a batch did not touch.
//!
//! The engine keeps a *mutation clock* that ticks at every mutation
//! entry point (a batch, a single update, a user admission). Every real
//! heap edit stamps its row with the clock — one store per edit, never
//! one per scored pair — so [`ClockCache::graph`] brings the cached
//! graph up to date by re-sorting only the rows stamped after the
//! snapshot's clock and sharing every other row
//! ([`KnnGraph::patched`]). The ratings capture
//! ([`kiff_dataset::DeltaDataset::freeze`]) is tagged with
//! [`kiff_dataset::DeltaDataset::version`] instead, and re-captured
//! whenever that moved.

use std::sync::{Arc, Mutex, PoisonError};

use kiff_dataset::UserId;
use kiff_graph::{KnnGraph, Neighbor};

/// One derived snapshot (graph or ratings capture), tagged with the
/// clock it reflects.
#[derive(Debug)]
pub(crate) struct ClockCache<T> {
    slot: Mutex<Option<(u64, Arc<T>)>>,
}

impl<T> ClockCache<T> {
    /// An empty cache: the first read builds.
    pub(crate) fn new() -> Self {
        Self {
            slot: Mutex::new(None),
        }
    }

    /// The snapshot at `clock`: the cached one when its tag matches,
    /// otherwise whatever `refresh` makes of the stale snapshot and its
    /// tag (`None` before the first build), cached under `clock`.
    ///
    /// Readers share the engine by `&self`, so the refresh runs under
    /// the slot's lock: concurrent readers wait for one refresh instead
    /// of each building their own, and all of them get the same `Arc`.
    pub(crate) fn get(
        &self,
        clock: u64,
        refresh: impl FnOnce(Option<(u64, &Arc<T>)>) -> Arc<T>,
    ) -> Arc<T> {
        let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((tag, snapshot)) = slot.as_ref() {
            if *tag == clock {
                return Arc::clone(snapshot);
            }
        }
        let fresh = refresh(slot.as_ref().map(|(tag, snapshot)| (*tag, snapshot)));
        *slot = Some((clock, Arc::clone(&fresh)));
        fresh
    }
}

impl ClockCache<KnnGraph> {
    /// The graph at `clock` over `num_users` rows. `edited(since)` must
    /// list, sorted or not, the neighbours of every row stamped after
    /// `since`; the engine stamps every row at least 1, so `edited(0)`
    /// lists them all for the first build. When no row changed, the
    /// previous snapshot itself is returned.
    pub(crate) fn graph(
        &self,
        clock: u64,
        k: usize,
        num_users: usize,
        edited: impl FnOnce(u64) -> Vec<(UserId, Vec<Neighbor>)>,
    ) -> Arc<KnnGraph> {
        self.get(clock, |prev| match prev {
            Some((since, graph)) => {
                let rows = edited(since);
                if rows.is_empty() && graph.num_users() == num_users {
                    Arc::clone(graph)
                } else {
                    Arc::new(graph.patched(num_users, rows))
                }
            }
            None => {
                let empty = KnnGraph::from_neighbors(k, Vec::new());
                Arc::new(empty.patched(num_users, edited(0)))
            }
        })
    }
}
