//! Bounded neighbour heaps and graph snapshots.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use kiff_dataset::UserId;

/// One directed KNN edge: neighbour id and its similarity to the owner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Neighbour user id.
    pub id: UserId,
    /// Similarity to the owning user.
    pub sim: f64,
}

/// An entry of a [`KnnHeap`]: a neighbour plus NN-Descent's `new` flag
/// ("to only consider new neighbors-of-neighbors during each iteration",
/// §IV-B). KIFF ignores the flag.
#[derive(Debug, Clone, Copy)]
pub struct HeapEntry {
    /// Similarity to the heap's owner.
    pub sim: f64,
    /// Neighbour id.
    pub id: UserId,
    /// True until the entry has been sampled by NN-Descent's join step.
    pub is_new: bool,
}

/// `a` strictly better than `b`: higher similarity, ties to smaller id.
#[inline]
fn better(a: (f64, u32), b: (f64, u32)) -> bool {
    a.0 > b.0 || (a.0 == b.0 && a.1 < b.1)
}

/// Outcome of offering an edge to a [`KnnHeap`] — the information an
/// incremental maintainer needs to keep reverse adjacency and change
/// statistics consistent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeapChange {
    /// The offer entered the heap; `evicted` is the id it displaced when
    /// the heap was already full.
    Inserted {
        /// Id evicted to make room, if any.
        evicted: Option<UserId>,
    },
    /// The id is already a neighbour; the offer was ignored (use
    /// [`KnnHeap::reprioritize`] to refresh a stale similarity). A full
    /// heap checks its worst entry before it scans for the id, so this is
    /// reported only for offers that would otherwise enter; a known id
    /// whose offer loses to a full heap's worst entry is
    /// [`HeapChange::Rejected`].
    AlreadyPresent,
    /// The heap was full and the offer did not beat its worst entry.
    Rejected,
}

/// Counts of heap edits applied during one maintenance step — the
/// per-update change statistics the online engine reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EditStats {
    /// Edges newly inserted into some heap.
    pub inserts: u64,
    /// Edges evicted by a better insert.
    pub evictions: u64,
    /// Edges explicitly removed (similarity collapsed to zero).
    pub removals: u64,
    /// Stored similarities refreshed in place.
    pub reprioritized: u64,
}

impl EditStats {
    /// Total heap mutations.
    pub fn total(&self) -> u64 {
        self.inserts + self.evictions + self.removals + self.reprioritized
    }

    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &EditStats) {
        self.inserts += other.inserts;
        self.evictions += other.evictions;
        self.removals += other.removals;
        self.reprioritized += other.reprioritized;
    }
}

/// The current approximation `k̂nn_u` of one user's neighbourhood: "a heap
/// of maximum size k, with the similarity between u and its neighbors used
/// as priority" (§III-C).
///
/// The worst retained entry sits at the root; duplicate ids are rejected so
/// re-evaluated pairs cannot inflate change counts.
#[derive(Debug, Clone)]
pub struct KnnHeap {
    entries: Vec<HeapEntry>,
    capacity: usize,
}

impl KnnHeap {
    /// An empty heap retaining at most `k` neighbours.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        Self {
            entries: Vec::with_capacity(k),
            capacity: k,
        }
    }

    /// Maximum neighbourhood size `k`.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of neighbours.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the neighbourhood is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The worst retained (similarity, id), if any.
    pub fn worst(&self) -> Option<(f64, UserId)> {
        self.entries.first().map(|e| (e.sim, e.id))
    }

    /// Whether `id` is currently a neighbour (linear scan — `k ≤ 50`).
    pub fn contains(&self, id: UserId) -> bool {
        self.entries.iter().any(|e| e.id == id)
    }

    /// The paper's UPDATENN (Algorithm 1, lines 14–16): offers `(sim, id)`
    /// and reports whether the neighbourhood changed.
    ///
    /// Duplicates are rejected; when full, the offer must beat the current
    /// worst entry.
    pub fn update(&mut self, sim: f64, id: UserId) -> bool {
        matches!(self.offer(sim, id), HeapChange::Inserted { .. })
    }

    /// UPDATENN with full outcome reporting: like [`KnnHeap::update`] but
    /// returns what happened, including the evicted id — which incremental
    /// maintainers need to keep reverse adjacency consistent.
    ///
    /// A full heap compares the offer with its worst entry first and
    /// turns away one that does not beat it without scanning for the id:
    /// in a converging build most offers lose to the worst entry. Only an
    /// offer that would enter pays the `O(k)` duplicate scan.
    pub fn offer(&mut self, sim: f64, id: UserId) -> HeapChange {
        debug_assert!(!sim.is_nan());
        let full = self.entries.len() == self.capacity;
        if full {
            let root = self.entries[0];
            if !better((sim, id), (root.sim, root.id)) {
                return HeapChange::Rejected;
            }
        }
        if self.contains(id) {
            return HeapChange::AlreadyPresent;
        }
        let entry = HeapEntry {
            sim,
            id,
            is_new: true,
        };
        if full {
            let evicted = self.entries[0].id;
            self.entries[0] = entry;
            self.sift_down(0);
            HeapChange::Inserted {
                evicted: Some(evicted),
            }
        } else {
            self.entries.push(entry);
            self.sift_up(self.entries.len() - 1);
            HeapChange::Inserted { evicted: None }
        }
    }

    /// The similarity an offer must at least reach to enter: the worst
    /// retained similarity of a full heap, −∞ while the heap has room.
    /// An offer equal to it may still enter on a smaller id.
    fn admission_floor(&self) -> f64 {
        match self.entries.first() {
            Some(root) if self.entries.len() == self.capacity => root.sim,
            _ => f64::NEG_INFINITY,
        }
    }

    /// Removes `id` from the neighbourhood, restoring the heap property.
    /// Returns whether it was present. Used when a deleted rating collapses
    /// a similarity to zero (a non-sharing pair is not a valid KNN edge
    /// under the sparse axioms).
    pub fn remove(&mut self, id: UserId) -> bool {
        let Some(pos) = self.entries.iter().position(|e| e.id == id) else {
            return false;
        };
        self.entries.swap_remove(pos);
        self.heapify();
        true
    }

    /// Refreshes the stored similarity of `id` in place, restoring the
    /// heap property; returns the previous similarity when present.
    /// Incremental repair uses this when a profile mutation stales the
    /// similarities of existing edges.
    pub fn reprioritize(&mut self, id: UserId, sim: f64) -> Option<f64> {
        debug_assert!(!sim.is_nan());
        let entry = self.entries.iter_mut().find(|e| e.id == id)?;
        let old = entry.sim;
        entry.sim = sim;
        if old != sim {
            self.heapify();
        }
        Some(old)
    }

    /// Re-establishes the heap property bottom-up (`k ≤ 50`, so the O(k)
    /// rebuild is cheaper than being clever).
    fn heapify(&mut self) {
        for i in (0..self.entries.len() / 2).rev() {
            self.sift_down(i);
        }
    }

    /// Iterates entries in unspecified (heap) order.
    pub fn iter(&self) -> impl Iterator<Item = &HeapEntry> {
        self.entries.iter()
    }

    /// Ids of entries still flagged `new`, clearing the flag (NN-Descent's
    /// sampling step; with full sampling every new entry is taken).
    pub fn take_new_ids(&mut self) -> Vec<UserId> {
        let mut ids = Vec::new();
        for e in &mut self.entries {
            if e.is_new {
                e.is_new = false;
                ids.push(e.id);
            }
        }
        ids
    }

    /// Ids currently flagged `new`, without clearing (NN-Descent's sampled
    /// variant chooses a subset before clearing via
    /// [`KnnHeap::clear_new_flag`]).
    pub fn new_ids(&self) -> Vec<UserId> {
        self.entries
            .iter()
            .filter(|e| e.is_new)
            .map(|e| e.id)
            .collect()
    }

    /// Clears the `new` flag of `id` if present.
    pub fn clear_new_flag(&mut self, id: UserId) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.id == id) {
            e.is_new = false;
        }
    }

    /// Rewrites every entry's `new` flag as `is_new(id)`. NN-Descent's
    /// deterministic parallel mode retags heaps *after* each concurrent
    /// join phase from a serial membership diff, because flags written
    /// during the joins depend on offer interleaving (an entry evicted
    /// and re-inserted keeps `new`, one never displaced does not).
    pub fn retag_new(&mut self, mut is_new: impl FnMut(UserId) -> bool) {
        for e in &mut self.entries {
            e.is_new = is_new(e.id);
        }
    }

    /// All current neighbour ids (unordered).
    pub fn ids(&self) -> Vec<UserId> {
        self.entries.iter().map(|e| e.id).collect()
    }

    /// Neighbours sorted best-first.
    pub fn sorted_neighbors(&self) -> Vec<Neighbor> {
        let mut out: Vec<Neighbor> = self
            .entries
            .iter()
            .map(|e| Neighbor {
                id: e.id,
                sim: e.sim,
            })
            .collect();
        sort_best_first(&mut out);
        out
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            let (p, c) = (self.entries[parent], self.entries[i]);
            if better((p.sim, p.id), (c.sim, c.id)) {
                self.entries.swap(parent, i);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.entries.len();
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut smallest = i;
            for child in [l, r] {
                if child < n {
                    let (s, c) = (self.entries[smallest], self.entries[child]);
                    if better((s.sim, s.id), (c.sim, c.id)) {
                        smallest = child;
                    }
                }
            }
            if smallest == i {
                break;
            }
            self.entries.swap(i, smallest);
            i = smallest;
        }
    }
}

/// The mutable, thread-shared state of a KNN construction: one lock-guarded
/// heap per user, and beside it one lock-free admission hint per user.
///
/// The hint is the worst similarity of a full heap, −∞ while the heap has
/// room. [`SharedKnn::update`] reads it first and turns away an offer
/// strictly below it without taking the heap's mutex; an equal offer takes
/// the lock, because the id breaks the tie. In a converging build most
/// offers lose to the worst entry, so most updates never touch the heap.
///
/// `update` republishes the hint after an edit, and the [`HeapGuard`] that
/// [`SharedKnn::lock`] hands out republishes it when dropped, so a guard
/// may edit the heap in any way (insert, `remove`, demote through
/// `reprioritize`, retag flags) without leaving the hint above the heap's
/// worst entry.
#[derive(Debug)]
pub struct SharedKnn {
    heaps: Vec<Mutex<KnnHeap>>,
    /// Per-user admission hints, as `f64` bits. `Relaxed` ordering is
    /// enough: a hint publishes no other data; every store happens under
    /// its heap's mutex, so a reader holding the lock sees the last one;
    /// and while a heap is full its worst entry only rises through
    /// `update`, so a hint read without the lock is never above the true
    /// worst and a stale one can only send an offer down the locked path.
    /// (A guard that lowers the worst republishes before it unlocks; an
    /// offer still reading the older hint raced that guard.)
    hints: Vec<AtomicU64>,
    k: usize,
}

impl SharedKnn {
    /// Empty neighbourhoods for `n` users with capacity `k`.
    pub fn new(n: usize, k: usize) -> Self {
        Self {
            heaps: (0..n).map(|_| Mutex::new(KnnHeap::new(k))).collect(),
            hints: (0..n)
                .map(|_| AtomicU64::new(f64::NEG_INFINITY.to_bits()))
                .collect(),
            k,
        }
    }

    /// Neighbourhood size `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of users.
    pub fn num_users(&self) -> usize {
        self.heaps.len()
    }

    /// UPDATENN on `u`'s heap; returns 1 if it changed, 0 otherwise (the
    /// integer form matches Algorithm 1's change counting). An offer
    /// strictly below `u`'s admission hint returns 0 without locking.
    #[inline]
    pub fn update(&self, u: UserId, v: UserId, sim: f64) -> u64 {
        debug_assert_ne!(u, v, "self-loops are not valid KNN edges");
        let hint = &self.hints[u as usize];
        if sim < f64::from_bits(hint.load(Ordering::Relaxed)) {
            return 0;
        }
        let mut heap = self.heaps[u as usize].lock();
        debug_check_hint(hint, &heap);
        let changed = heap.update(sim, v);
        if changed {
            publish_hint(hint, &heap);
        }
        u64::from(changed)
    }

    /// Locks and returns `u`'s heap guard (for bulk operations by the
    /// owner's worker). Dropping the guard republishes `u`'s admission
    /// hint from the heap.
    pub fn lock(&self, u: UserId) -> HeapGuard<'_> {
        let hint = &self.hints[u as usize];
        let heap = self.heaps[u as usize].lock();
        debug_check_hint(hint, &heap);
        HeapGuard { heap, hint }
    }

    /// Snapshots the current state as an immutable [`KnnGraph`].
    pub fn snapshot(&self) -> KnnGraph {
        let neighbors = self
            .heaps
            .iter()
            .map(|h| h.lock().sorted_neighbors().into())
            .collect();
        KnnGraph {
            k: self.k,
            neighbors,
        }
    }
}

/// Exclusive access to one user's heap, from [`SharedKnn::lock`].
///
/// The guard may edit the heap in any way. Dropping it stores the heap's
/// admission floor as the user's hint before the mutex is released, so a
/// `remove` or a demotion lowers the hint with the worst entry, and a
/// read-only guard stores the value already there.
pub struct HeapGuard<'a> {
    heap: MutexGuard<'a, KnnHeap>,
    hint: &'a AtomicU64,
}

impl Deref for HeapGuard<'_> {
    type Target = KnnHeap;

    fn deref(&self) -> &KnnHeap {
        &self.heap
    }
}

impl DerefMut for HeapGuard<'_> {
    fn deref_mut(&mut self) -> &mut KnnHeap {
        &mut self.heap
    }
}

impl Drop for HeapGuard<'_> {
    fn drop(&mut self) {
        publish_hint(self.hint, &self.heap);
    }
}

/// Stores `heap`'s admission floor as its hint. Call with the heap's mutex
/// held.
#[inline]
fn publish_hint(hint: &AtomicU64, heap: &KnnHeap) {
    hint.store(heap.admission_floor().to_bits(), Ordering::Relaxed);
}

/// Debug-build tripwire, checked with the heap's mutex held: a hint is
/// never above a full heap's worst similarity, and is −∞ while the heap
/// has room. A hint above the heap's admission floor would turn away
/// offers that belong in the heap.
#[inline]
fn debug_check_hint(hint: &AtomicU64, heap: &KnnHeap) {
    debug_assert!(
        f64::from_bits(hint.load(Ordering::Relaxed)) <= heap.admission_floor(),
        "admission hint above the heap's floor"
    );
}

/// Sorts a neighbour list best-first: decreasing similarity, ties by
/// ascending id.
fn sort_best_first(list: &mut [Neighbor]) {
    list.sort_unstable_by(|a, b| {
        b.sim
            .partial_cmp(&a.sim)
            .expect("NaN similarity")
            .then_with(|| a.id.cmp(&b.id))
    });
}

/// An immutable KNN graph: for each user, its neighbours sorted by
/// decreasing similarity (ties by ascending id).
///
/// Each row is its own `Arc<[Neighbor]>`, so a graph derived from an
/// older one with [`KnnGraph::patched`] shares every row it did not
/// replace. Online edits are scattered across the id space, which is
/// why rows are shared one by one rather than in blocks.
#[derive(Debug, Clone, PartialEq)]
pub struct KnnGraph {
    k: usize,
    neighbors: Vec<Arc<[Neighbor]>>,
}

impl KnnGraph {
    /// Builds a graph from per-user neighbour lists (sorted on entry).
    pub fn from_neighbors(k: usize, neighbors: Vec<Vec<Neighbor>>) -> Self {
        let neighbors = neighbors
            .into_iter()
            .map(|mut list| {
                sort_best_first(&mut list);
                list.into()
            })
            .collect();
        Self { k, neighbors }
    }

    /// This graph grown (or cut) to `num_users` rows with every listed
    /// `(user, neighbours)` row swapped in, sorted on entry. Every row
    /// not listed is shared with `self`; new rows not listed are empty.
    /// Costs one `Arc` clone per row plus the listed rows.
    pub fn patched(
        &self,
        num_users: usize,
        rows: impl IntoIterator<Item = (UserId, Vec<Neighbor>)>,
    ) -> Self {
        let mut neighbors = self.neighbors.clone();
        neighbors.resize(num_users, Arc::from(Vec::new()));
        for (u, mut list) in rows {
            sort_best_first(&mut list);
            neighbors[u as usize] = list.into();
        }
        Self {
            k: self.k,
            neighbors,
        }
    }

    /// The neighbourhood size the graph was built for. Individual lists may
    /// be shorter when fewer candidates exist.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of users.
    pub fn num_users(&self) -> usize {
        self.neighbors.len()
    }

    /// `u`'s neighbours, best first.
    pub fn neighbors(&self, u: UserId) -> &[Neighbor] {
        &self.neighbors[u as usize]
    }

    /// `u`'s shared row: `Arc::ptr_eq` on two graphs' rows tells whether
    /// [`KnnGraph::patched`] carried the row over or replaced it.
    pub fn row(&self, u: UserId) -> &Arc<[Neighbor]> {
        &self.neighbors[u as usize]
    }

    /// Total directed edges.
    pub fn num_edges(&self) -> usize {
        self.neighbors.iter().map(|n| n.len()).sum()
    }

    /// Mean similarity over all edges (a cheap quality proxy).
    pub fn mean_similarity(&self) -> f64 {
        let edges = self.num_edges();
        if edges == 0 {
            return 0.0;
        }
        self.neighbors
            .iter()
            .flat_map(|n| n.iter().map(|e| e.sim))
            .sum::<f64>()
            / edges as f64
    }

    /// In-neighbour lists: `reverse()[v]` holds every `u` with `v ∈ knn_u`.
    /// NN-Descent's candidate generation uses the union of out- and
    /// in-neighbours ("both in-coming and out-going neighbors", §IV-B).
    pub fn reverse(&self) -> Vec<Vec<UserId>> {
        let mut rev = vec![Vec::new(); self.neighbors.len()];
        for (u, list) in self.neighbors.iter().enumerate() {
            for n in list.iter() {
                rev[n.id as usize].push(u as UserId);
            }
        }
        rev
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_keeps_best_k() {
        let mut h = KnnHeap::new(2);
        assert!(h.update(0.1, 1));
        assert!(h.update(0.5, 2));
        assert!(h.update(0.3, 3)); // evicts 0.1
        assert!(!h.update(0.2, 4)); // worse than worst (0.3)
        let ns = h.sorted_neighbors();
        assert_eq!(ns.len(), 2);
        assert_eq!(ns[0], Neighbor { id: 2, sim: 0.5 });
        assert_eq!(ns[1], Neighbor { id: 3, sim: 0.3 });
    }

    #[test]
    fn heap_rejects_duplicates() {
        let mut h = KnnHeap::new(3);
        assert!(h.update(0.5, 7));
        assert!(!h.update(0.5, 7), "same offer must not count as a change");
        assert!(!h.update(0.9, 7), "known id is rejected even if better");
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn heap_tie_break_prefers_smaller_id() {
        let mut h = KnnHeap::new(1);
        h.update(0.5, 10);
        assert!(h.update(0.5, 2));
        assert!(!h.update(0.5, 11));
        assert_eq!(h.sorted_neighbors()[0].id, 2);
    }

    #[test]
    fn offer_reports_evictions() {
        let mut h = KnnHeap::new(2);
        assert_eq!(h.offer(0.1, 1), HeapChange::Inserted { evicted: None });
        assert_eq!(h.offer(0.5, 2), HeapChange::Inserted { evicted: None });
        assert_eq!(h.offer(0.3, 3), HeapChange::Inserted { evicted: Some(1) });
        assert_eq!(h.offer(0.2, 4), HeapChange::Rejected);
        assert_eq!(h.offer(0.9, 2), HeapChange::AlreadyPresent);
    }

    #[test]
    fn remove_restores_heap_property() {
        let mut h = KnnHeap::new(4);
        for (s, id) in [(0.4, 1), (0.9, 2), (0.1, 3), (0.6, 4)] {
            h.update(s, id);
        }
        assert!(h.remove(2));
        assert!(!h.remove(2), "double remove reports absence");
        assert_eq!(h.len(), 3);
        assert_eq!(h.worst(), Some((0.1, 3)));
        // Further offers still behave.
        assert!(h.update(0.5, 5));
        let ids: Vec<u32> = h.sorted_neighbors().iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![4, 5, 1, 3]);
    }

    #[test]
    fn reprioritize_refreshes_in_place() {
        let mut h = KnnHeap::new(3);
        h.update(0.4, 1);
        h.update(0.9, 2);
        h.update(0.6, 3);
        assert_eq!(h.reprioritize(2, 0.1), Some(0.9));
        assert_eq!(h.reprioritize(42, 0.5), None);
        assert_eq!(h.worst(), Some((0.1, 2)));
        // A full heap now evicts the demoted entry first.
        assert_eq!(h.offer(0.5, 5), HeapChange::Inserted { evicted: Some(2) });
    }

    #[test]
    fn edit_stats_merge_and_total() {
        let mut a = EditStats {
            inserts: 1,
            evictions: 2,
            removals: 3,
            reprioritized: 4,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.total(), 20);
        assert_eq!(a.inserts, 2);
    }

    #[test]
    fn new_flags_cleared_once() {
        let mut h = KnnHeap::new(4);
        h.update(0.1, 1);
        h.update(0.2, 2);
        let mut fresh = h.take_new_ids();
        fresh.sort_unstable();
        assert_eq!(fresh, vec![1, 2]);
        assert!(h.take_new_ids().is_empty());
        h.update(0.3, 3);
        assert_eq!(h.take_new_ids(), vec![3]);
    }

    #[test]
    fn shared_knn_update_counts_changes() {
        let shared = SharedKnn::new(3, 2);
        assert_eq!(shared.update(0, 1, 0.5), 1);
        assert_eq!(shared.update(0, 1, 0.5), 0);
        assert_eq!(shared.update(1, 0, 0.5), 1);
        let g = shared.snapshot();
        assert_eq!(g.neighbors(0), &[Neighbor { id: 1, sim: 0.5 }]);
        assert_eq!(g.neighbors(2), &[]);
    }

    #[test]
    fn shared_knn_ties_at_the_worst_entry_take_the_lock() {
        let shared = SharedKnn::new(1, 2);
        assert_eq!(shared.update(0, 5, 0.5), 1);
        assert_eq!(shared.update(0, 6, 0.7), 1);
        assert_eq!(shared.update(0, 7, 0.4), 0, "below the worst entry");
        assert_eq!(shared.update(0, 8, 0.5), 0, "tie lost on the id");
        assert_eq!(shared.update(0, 4, 0.5), 1, "tie won on the id");
        let want = [Neighbor { id: 6, sim: 0.7 }, Neighbor { id: 4, sim: 0.5 }];
        assert_eq!(shared.snapshot().neighbors(0), &want);
    }

    #[test]
    fn guard_edits_republish_the_hint() {
        let shared = SharedKnn::new(1, 2);
        shared.update(0, 1, 0.5);
        shared.update(0, 2, 0.7);
        // A demotion lowers the worst entry below the published 0.5.
        assert_eq!(shared.lock(0).reprioritize(2, 0.1), Some(0.7));
        assert_eq!(shared.update(0, 3, 0.3), 1, "0.3 beats the demoted 0.1");
        assert_eq!(shared.update(0, 4, 0.2), 0, "0.2 loses to the worst, 0.3");
        // A removal leaves room, so any offer enters again.
        assert!(shared.lock(0).remove(1));
        assert_eq!(shared.update(0, 5, 0.05), 1);
        let want = [Neighbor { id: 3, sim: 0.3 }, Neighbor { id: 5, sim: 0.05 }];
        assert_eq!(shared.snapshot().neighbors(0), &want);
    }

    #[test]
    fn graph_reverse_edges() {
        let g = KnnGraph::from_neighbors(
            2,
            vec![
                vec![Neighbor { id: 1, sim: 0.9 }, Neighbor { id: 2, sim: 0.5 }],
                vec![Neighbor { id: 2, sim: 0.8 }],
                vec![],
            ],
        );
        let rev = g.reverse();
        assert_eq!(rev[0], Vec::<u32>::new());
        assert_eq!(rev[1], vec![0]);
        assert_eq!(rev[2], vec![0, 1]);
    }

    #[test]
    fn graph_statistics() {
        let g = KnnGraph::from_neighbors(
            1,
            vec![
                vec![Neighbor { id: 1, sim: 0.4 }],
                vec![Neighbor { id: 0, sim: 0.6 }],
            ],
        );
        assert_eq!(g.num_edges(), 2);
        assert!((g.mean_similarity() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn from_neighbors_sorts_lists() {
        let g = KnnGraph::from_neighbors(
            3,
            vec![vec![
                Neighbor { id: 5, sim: 0.1 },
                Neighbor { id: 3, sim: 0.9 },
                Neighbor { id: 4, sim: 0.9 },
            ]],
        );
        let ids: Vec<u32> = g.neighbors(0).iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![3, 4, 5]);
    }

    #[test]
    fn patched_shares_untouched_rows_and_sorts_new_ones() {
        let old = KnnGraph::from_neighbors(
            2,
            vec![
                vec![Neighbor { id: 1, sim: 0.9 }],
                vec![Neighbor { id: 0, sim: 0.9 }],
                vec![],
            ],
        );
        let new = old.patched(
            4,
            [(
                1,
                vec![Neighbor { id: 3, sim: 0.2 }, Neighbor { id: 2, sim: 0.7 }],
            )],
        );
        assert_eq!(new.num_users(), 4);
        assert_eq!(new.k(), 2);
        assert!(Arc::ptr_eq(old.row(0), new.row(0)), "untouched row shared");
        assert!(Arc::ptr_eq(old.row(2), new.row(2)));
        assert!(!Arc::ptr_eq(old.row(1), new.row(1)), "listed row replaced");
        let ids: Vec<u32> = new.neighbors(1).iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![2, 3], "sorted best first");
        assert!(new.neighbors(3).is_empty(), "new unlisted rows are empty");
        assert_eq!(old.neighbors(1), &[Neighbor { id: 0, sim: 0.9 }]);
        assert_eq!(old.patched(3, []), old);
    }

    #[test]
    fn concurrent_updates_preserve_invariants() {
        use kiff_parallel::parallel_for;
        let n = 200u32;
        let k = 5;
        // Deterministic pseudo-similarity, symmetric in the pair.
        let sim_of =
            |u: u32, v: u32| f64::from((u ^ v).wrapping_mul(2_654_435_761) % 1000) / 1000.0;
        let shared = SharedKnn::new(n as usize, k);
        parallel_for(4, n as usize, 8, |range| {
            for u in range {
                for v in 0..n {
                    if v != u as u32 {
                        let sim = sim_of(u as u32, v);
                        shared.update(u as u32, v, sim);
                        shared.update(v, u as u32, sim);
                    }
                }
            }
        });
        let g = shared.snapshot();
        for u in 0..n {
            // Every other user was offered with a fixed similarity, so the
            // row is the sequential top-k whatever the interleaving.
            let mut expected: Vec<Neighbor> = (0..n)
                .filter(|&v| v != u)
                .map(|v| Neighbor {
                    id: v,
                    sim: sim_of(u, v),
                })
                .collect();
            sort_best_first(&mut expected);
            expected.truncate(k);
            assert_eq!(g.neighbors(u), &expected[..], "row of user {u}");
        }
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The heap retains exactly the top-k by (sim, -id) among the
            /// distinct offered ids. Similarities are a deterministic
            /// function of the id, as they are in real use (sim(u, v) never
            /// changes between offers of the same pair).
            #[test]
            fn heap_matches_sort_model(
                offers in proptest::collection::vec(0u32..40, 1..200),
                k in 1usize..12,
            ) {
                let sim_of = |id: u32| f64::from(id.wrapping_mul(2_654_435_761) % 16) / 16.0;
                let mut heap = KnnHeap::new(k);
                let mut seen = std::collections::HashMap::new();
                for &id in &offers {
                    let sim = sim_of(id);
                    heap.update(sim, id);
                    seen.entry(id).or_insert(sim);
                }
                let mut model: Vec<(f64, u32)> =
                    seen.into_iter().map(|(id, sim)| (sim, id)).collect();
                model.sort_unstable_by(|a, b| {
                    b.0.partial_cmp(&a.0).unwrap().then_with(|| a.1.cmp(&b.1))
                });
                model.truncate(k);
                let got: Vec<(f64, u32)> = heap
                    .sorted_neighbors()
                    .into_iter()
                    .map(|n| (n.sim, n.id))
                    .collect();
                prop_assert_eq!(got, model);
            }

            /// `SharedKnn` — admission hints, lock-free rejection and
            /// guards — answers every operation as plain `KnnHeap`s do and
            /// ends with the same rows. Offered similarities are a fixed
            /// function of the id on a coarse grid, so ids repeat and ties
            /// at the worst entry are common; guards remove entries, move
            /// them (demotions included) through `reprioritize`, insert and
            /// read, interleaved with the offers.
            #[test]
            fn shared_knn_matches_plain_heaps(
                ops in proptest::collection::vec((0u8..10, 0u32..3, 0u32..40, 0u32..8), 1..300),
                k in 1usize..8,
            ) {
                const USERS: u32 = 3;
                let sim_of = |id: u32| f64::from(id.wrapping_mul(2_654_435_761) % 8) / 8.0;
                let shared = SharedKnn::new(USERS as usize, k);
                let mut model: Vec<KnnHeap> = (0..USERS).map(|_| KnnHeap::new(k)).collect();
                for (kind, u, pick, level) in ops {
                    let heap = &mut model[u as usize];
                    // Offers go to ids past the users (never a self-loop);
                    // guard edits target an entry of the heap when it has one.
                    let offered = USERS + pick;
                    let ids = heap.ids();
                    let present = ids.get(pick as usize % ids.len().max(1)).copied();
                    match (kind, present) {
                        (0..=5, _) => {
                            let sim = sim_of(offered);
                            let got = shared.update(u, offered, sim);
                            prop_assert_eq!(got, u64::from(heap.update(sim, offered)));
                        }
                        (6, Some(id)) => {
                            let got = shared.lock(u).remove(id);
                            prop_assert_eq!(got, heap.remove(id));
                        }
                        (7, Some(id)) => {
                            let sim = f64::from(level) / 8.0;
                            let got = shared.lock(u).reprioritize(id, sim);
                            prop_assert_eq!(got, heap.reprioritize(id, sim));
                        }
                        (8, _) => {
                            let sim = sim_of(offered);
                            let got = shared.lock(u).update(sim, offered);
                            prop_assert_eq!(got, heap.update(sim, offered));
                        }
                        _ => {
                            let got = shared.lock(u).ids();
                            prop_assert_eq!(got, ids);
                        }
                    }
                }
                let graph = shared.snapshot();
                for u in 0..USERS {
                    let want = model[u as usize].sorted_neighbors();
                    prop_assert_eq!(graph.neighbors(u), &want[..]);
                }
            }
        }
    }
}
