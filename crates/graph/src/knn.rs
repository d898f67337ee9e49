//! Bounded neighbour heaps and graph snapshots.
//!
//! The heap algorithm is written once, as [`KnnHeap<S>`] over a row of
//! `k` slots and a length. Two kinds of storage use it: a [`KnnHeap`]
//! owns its slots (the online engine keeps one per user), and
//! [`SharedKnn`] keeps every user's slots in one flat slab and lends a
//! row at a time under that row's lock.
//!
//! A construction's serial steps stay off its critical path. The slab
//! comes from zeroed memory, which is every slot vacant, so nothing
//! writes it before the workers do, and the final graph's rows are
//! sorted on the run's own workers ([`SharedKnn::snapshot`]). The batch
//! path asks for the rows it is about to lock with the shared
//! [`prefetch`](fn@kiff_collections::prefetch) hint.

use std::cell::UnsafeCell;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use kiff_collections::prefetch;
use kiff_dataset::UserId;
use kiff_parallel::parallel_fold;

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

/// What fills a slot no entry occupies yet; never read as a neighbour.
/// Its fields are all zero bits, so zeroed memory holds it (see
/// [`SharedKnn::new`]).
const VACANT: HeapEntry = HeapEntry {
    sim: 0.0,
    id: 0,
    is_new: false,
};

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
///
/// The heap lives in `S`, a row of `k` slots of which the first
/// [`KnnHeap::len`] hold entries. The default, `Box<[HeapEntry]>`, is a
/// heap that owns its row ([`KnnHeap::new`]); `&mut [HeapEntry]` is a row
/// of [`SharedKnn`]'s slab, read through the [`HeapGuard`] that holds
/// the row's lock.
#[derive(Debug, Clone)]
pub struct KnnHeap<S = Box<[HeapEntry]>> {
    slots: S,
    len: usize,
}

impl KnnHeap {
    /// An empty heap retaining at most `k` neighbours.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        Self {
            slots: vec![VACANT; k].into_boxed_slice(),
            len: 0,
        }
    }
}

impl<S: DerefMut<Target = [HeapEntry]>> KnnHeap<S> {
    /// Maximum neighbourhood size `k`.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Current number of neighbours.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the neighbourhood is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The occupied slots, in heap order.
    #[inline]
    fn entries(&self) -> &[HeapEntry] {
        &self.slots[..self.len]
    }

    /// The worst retained (similarity, id), if any.
    pub fn worst(&self) -> Option<(f64, UserId)> {
        self.entries().first().map(|e| (e.sim, e.id))
    }

    /// Whether `id` is currently a neighbour (linear scan — `k ≤ 50`).
    pub fn contains(&self, id: UserId) -> bool {
        self.entries().iter().any(|e| e.id == id)
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
    /// offer that would enter pays the `O(k)` duplicate scan, which reads
    /// every id without an early exit: KIFF never offers a known id, so
    /// the scan almost always runs to the end, and a loop without a
    /// branch per id runs it faster.
    pub fn offer(&mut self, sim: f64, id: UserId) -> HeapChange {
        debug_assert!(!sim.is_nan());
        let full = self.len == self.capacity();
        if full {
            let root = self.slots[0];
            if !better((sim, id), (root.sim, root.id)) {
                return HeapChange::Rejected;
            }
        }
        if self
            .entries()
            .iter()
            .fold(false, |seen, e| seen | (e.id == id))
        {
            return HeapChange::AlreadyPresent;
        }
        let entry = HeapEntry {
            sim,
            id,
            is_new: true,
        };
        if full {
            let evicted = self.slots[0].id;
            self.slots[0] = entry;
            self.sift_down(0);
            HeapChange::Inserted {
                evicted: Some(evicted),
            }
        } else {
            self.slots[self.len] = entry;
            self.len += 1;
            self.sift_up(self.len - 1);
            HeapChange::Inserted { evicted: None }
        }
    }

    /// The similarity an offer must at least reach to enter: the worst
    /// retained similarity of a full heap, −∞ while the heap has room.
    /// An offer equal to it may still enter on a smaller id.
    fn admission_floor(&self) -> f64 {
        if self.len == self.capacity() {
            self.slots[0].sim
        } else {
            f64::NEG_INFINITY
        }
    }

    /// Removes `id` from the neighbourhood, restoring the heap property.
    /// Returns whether it was present. Used when a deleted rating collapses
    /// a similarity to zero (a non-sharing pair is not a valid KNN edge
    /// under the sparse axioms).
    pub fn remove(&mut self, id: UserId) -> bool {
        let Some(pos) = self.entries().iter().position(|e| e.id == id) else {
            return false;
        };
        self.len -= 1;
        self.slots.swap(pos, self.len);
        self.heapify();
        true
    }

    /// Refreshes the stored similarity of `id` in place, restoring the
    /// heap property; returns the previous similarity when present.
    /// Incremental repair uses this when a profile mutation stales the
    /// similarities of existing edges.
    pub fn reprioritize(&mut self, id: UserId, sim: f64) -> Option<f64> {
        debug_assert!(!sim.is_nan());
        let len = self.len;
        let entry = self.slots[..len].iter_mut().find(|e| e.id == id)?;
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
        for i in (0..self.len / 2).rev() {
            self.sift_down(i);
        }
    }

    /// Iterates entries in unspecified (heap) order.
    pub fn iter(&self) -> impl Iterator<Item = &HeapEntry> {
        self.entries().iter()
    }

    /// Ids of entries still flagged `new`, clearing the flag (NN-Descent's
    /// sampling step; with full sampling every new entry is taken).
    pub fn take_new_ids(&mut self) -> Vec<UserId> {
        let len = self.len;
        let mut ids = Vec::new();
        for e in &mut self.slots[..len] {
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
        self.iter().filter(|e| e.is_new).map(|e| e.id).collect()
    }

    /// Clears the `new` flag of `id` if present.
    pub fn clear_new_flag(&mut self, id: UserId) {
        let len = self.len;
        if let Some(e) = self.slots[..len].iter_mut().find(|e| e.id == id) {
            e.is_new = false;
        }
    }

    /// Rewrites every entry's `new` flag as `is_new(id)`. NN-Descent's
    /// deterministic parallel mode retags heaps *after* each concurrent
    /// join phase from a serial membership diff, because flags written
    /// during the joins depend on offer interleaving (an entry evicted
    /// and re-inserted keeps `new`, one never displaced does not).
    pub fn retag_new(&mut self, mut is_new: impl FnMut(UserId) -> bool) {
        let len = self.len;
        for e in &mut self.slots[..len] {
            e.is_new = is_new(e.id);
        }
    }

    /// All current neighbour ids (unordered).
    pub fn ids(&self) -> Vec<UserId> {
        self.iter().map(|e| e.id).collect()
    }

    /// Neighbours sorted best-first.
    pub fn sorted_neighbors(&self) -> Vec<Neighbor> {
        let mut out: Vec<Neighbor> = self
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
            let (p, c) = (self.slots[parent], self.slots[i]);
            if better((p.sim, p.id), (c.sim, c.id)) {
                self.slots.swap(parent, i);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.len;
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut smallest = i;
            for child in [l, r] {
                if child < n {
                    let (s, c) = (self.slots[smallest], self.slots[child]);
                    if better((s.sim, s.id), (c.sim, c.id)) {
                        smallest = child;
                    }
                }
            }
            if smallest == i {
                break;
            }
            self.slots.swap(i, smallest);
            i = smallest;
        }
    }
}

/// Survivors of the reverse side's admission filter kept at once: the
/// batch path filters and offers a batch's reverse side this many
/// candidates at a time, with the survivors in a stack buffer.
const FILTER_CHUNK: usize = 64;

/// How many offers ahead the batch path prefetches a surviving row.
const PREFETCH_DISTANCE: usize = 8;

/// Heap entries per 64-byte cache line.
const ENTRIES_PER_LINE: usize = 64 / std::mem::size_of::<HeapEntry>();

/// Rows a worker sorts at a time in [`SharedKnn::snapshot`].
const SNAPSHOT_GRAIN: usize = 1024;

/// The mutable, thread-shared state of a KNN construction: every user's
/// neighbour heap in one flat slab, with one lock and one lock-free
/// admission hint per user beside it.
///
/// Row `u` is slots `[u·k, (u+1)·k)` of the slab; its lock guards the
/// row's slots and holds its length. No row has an allocation of its own,
/// so a row is one address computed from `u`, and the batch path can ask
/// for it before it needs it.
///
/// The hint is the worst similarity of a full heap, −∞ while the heap has
/// room. [`SharedKnn::update`] reads it first and turns away an offer
/// strictly below it without taking the row's lock; an equal offer takes
/// the lock, because the id breaks the tie. In a converging build most
/// offers lose to the worst entry, so most updates never touch the row.
///
/// Every edit goes through the [`HeapGuard`] that [`SharedKnn::lock`]
/// hands out, which republishes the hint when dropped, so a guard may
/// edit the heap in any way (insert, `remove`, demote through
/// `reprioritize`, retag flags) without leaving the hint above the
/// heap's worst entry.
pub struct SharedKnn {
    /// `n·k` slots. Row `u`'s slots are read and written only through a
    /// [`HeapGuard`] that holds `locks[u]`.
    slab: Box<[UnsafeCell<HeapEntry>]>,
    /// Per-row locks, each holding its row's length.
    locks: Box<[Mutex<u32>]>,
    /// Per-user admission hints, as `f64` bits. `Relaxed` ordering is
    /// enough: a hint publishes no other data; every store happens under
    /// its row's lock, so a reader holding the lock sees the last one;
    /// and while a row is full its worst entry only rises through
    /// offers, so a hint read without the lock is never above the true
    /// worst and a stale one can only send an offer down the locked path.
    /// (A guard that lowers the worst republishes before it unlocks; an
    /// offer still reading the older hint raced that guard.)
    hints: Box<[AtomicU64]>,
    k: usize,
}

// SAFETY: `slab` is the only field that is not `Sync` by itself: row
// `u`'s cells are reached only through a `HeapGuard` for row `u`, which
// holds row `u`'s lock (`locks[u]`) for as long as it can touch them, so
// no two threads access a row's slots at once. `locks` (mutexes over
// plain lengths) and `hints` (atomics) are `Sync`, and `k` never changes.
unsafe impl Sync for SharedKnn {}

impl SharedKnn {
    /// Empty neighbourhoods for `n` users with capacity `k`. The slab
    /// comes from zeroed memory, which is a vacant entry in every slot:
    /// nothing writes it here, and each page is first touched by
    /// whichever worker fills its rows.
    pub fn new(n: usize, k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        assert!(u32::try_from(k).is_ok(), "k must fit a row length");
        let slots = n.checked_mul(k).expect("n·k slots fit the address space");
        Self {
            slab: vacant_slab(slots),
            locks: (0..n).map(|_| Mutex::new(0)).collect(),
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
        self.locks.len()
    }

    /// `u`'s admission hint, read without its lock.
    #[inline]
    fn hint(&self, u: UserId) -> f64 {
        f64::from_bits(self.hints[u as usize].load(Ordering::Relaxed))
    }

    /// UPDATENN on `u`'s heap; returns 1 if it changed, 0 otherwise (the
    /// integer form matches Algorithm 1's change counting). An offer
    /// strictly below `u`'s admission hint returns 0 without locking.
    #[inline]
    pub fn update(&self, u: UserId, v: UserId, sim: f64) -> u64 {
        debug_assert_ne!(u, v, "self-loops are not valid KNN edges");
        if sim < self.hint(u) {
            return 0;
        }
        u64::from(self.lock(u).update(sim, v))
    }

    /// UPDATENN both ways for one scored batch (pivot symmetry, Algorithm
    /// 1 lines 10–12): offers every `(candidates[i], sims[i])` to
    /// `owner`'s heap and `(owner, sims[i])` to `candidates[i]`'s heap.
    /// Returns how many offers changed a heap, as the sum of the two
    /// [`SharedKnn::update`]s per candidate would.
    ///
    /// Every heap sees its offers in candidate order, as in a loop of
    /// `update(owner, v, s); update(v, owner, s)`: the owner's heap
    /// receives only the owner side and every other heap only the
    /// reverse side, so a single-threaded caller gets that loop's result.
    /// The owner side runs under one lock of the owner's row. The reverse
    /// side first turns away, by hint, every offer that cannot enter; the
    /// survivors' rows are random users' rows, so each is prefetched a
    /// few offers before its lock is taken.
    pub fn update_batch(&self, owner: UserId, candidates: &[UserId], sims: &[f64]) -> u64 {
        assert_eq!(candidates.len(), sims.len(), "one similarity per candidate");
        if candidates.is_empty() {
            return 0;
        }
        let mut changes = 0u64;
        let mut row = self.lock(owner);
        for (&v, &s) in candidates.iter().zip(sims) {
            debug_assert_ne!(owner, v, "self-loops are not valid KNN edges");
            changes += u64::from(row.update(s, v));
        }
        drop(row);

        let mut survivors = [0usize; FILTER_CHUNK];
        for start in (0..candidates.len()).step_by(FILTER_CHUNK) {
            let end = (start + FILTER_CHUNK).min(candidates.len());
            let mut kept = 0;
            for i in start..end {
                survivors[kept] = i;
                kept += usize::from(sims[i] >= self.hint(candidates[i]));
            }
            let survivors = &survivors[..kept];
            for &i in survivors.iter().take(PREFETCH_DISTANCE) {
                self.prefetch_row(candidates[i]);
            }
            for (j, &i) in survivors.iter().enumerate() {
                if let Some(&ahead) = survivors.get(j + PREFETCH_DISTANCE) {
                    self.prefetch_row(candidates[ahead]);
                }
                changes += u64::from(self.lock(candidates[i]).update(sims[i], owner));
            }
        }
        changes
    }

    /// Starts loading `u`'s lock and every cache line of its row: an
    /// offer that enters reads all the row's ids for duplicates.
    #[inline]
    fn prefetch_row(&self, u: UserId) {
        let u = u as usize;
        prefetch(&self.locks[u]);
        let row = &self.slab[u * self.k..(u + 1) * self.k];
        for slot in row.iter().step_by(ENTRIES_PER_LINE) {
            prefetch(slot);
        }
    }

    /// Locks and returns `u`'s heap guard (for bulk operations by the
    /// owner's worker). Dropping the guard republishes `u`'s admission
    /// hint from the heap.
    pub fn lock(&self, u: UserId) -> HeapGuard<'_> {
        let u = u as usize;
        let len = self.locks[u].lock();
        let row = &self.slab[u * self.k..(u + 1) * self.k];
        // SAFETY: `len` holds row `u`'s lock (`locks[u]`). The slice goes
        // into the guard built below, beside `len`, and lives exactly as
        // long as it: the guard lends the heap out by `&` only (no
        // `DerefMut`, so it cannot be swapped into another guard) and edits
        // it through its own methods. So while the slice exists, row `u`'s
        // lock is held, no other guard for row `u` exists, and nothing else
        // reaches row `u`'s cells. The pointer comes from the bounds-checked
        // slice of row `u`'s `k` cells.
        let slots =
            unsafe { std::slice::from_raw_parts_mut(UnsafeCell::raw_get(row.as_ptr()), self.k) };
        let guard = HeapGuard {
            heap: KnnHeap {
                slots,
                len: *len as usize,
            },
            len,
            hint: &self.hints[u],
        };
        debug_check_hint(guard.hint, &guard.heap);
        guard
    }

    /// Snapshots the current state as an immutable [`KnnGraph`], sorting
    /// the rows on `threads` workers. A run's final graph takes the run's
    /// own worker count; an observer between iterations may pass 1.
    pub fn snapshot(&self, threads: usize) -> KnnGraph {
        let mut parts = parallel_fold(
            threads,
            self.num_users(),
            SNAPSHOT_GRAIN,
            Vec::new,
            |parts: &mut Vec<(usize, Vec<Arc<[Neighbor]>>)>, range| {
                let rows = range
                    .clone()
                    .map(|u| self.lock(u as UserId).sorted_neighbors().into())
                    .collect();
                parts.push((range.start, rows));
            },
            |mut a, mut b| {
                a.append(&mut b);
                a
            },
        );
        parts.sort_unstable_by_key(|&(start, _)| start);
        KnnGraph {
            k: self.k,
            neighbors: parts.into_iter().flat_map(|(_, rows)| rows).collect(),
        }
    }
}

/// `slots` cells holding [`VACANT`], allocated zeroed.
fn vacant_slab(slots: usize) -> Box<[UnsafeCell<HeapEntry>]> {
    let slab = Box::<[UnsafeCell<HeapEntry>]>::new_zeroed_slice(slots);
    // SAFETY: all-zero bytes are a valid `HeapEntry`, and they are
    // `VACANT`: `sim` 0.0 is the all-zero `f64`, `id` 0 and `is_new`
    // false are zero bytes, and padding may hold anything
    // (`vacant_is_all_zero_bits_and_fills_a_new_slab` checks the fields).
    // `UnsafeCell<T>` has `T`'s layout.
    unsafe { slab.assume_init() }
}

impl fmt::Debug for SharedKnn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedKnn")
            .field("num_users", &self.num_users())
            .field("k", &self.k)
            .finish_non_exhaustive()
    }
}

/// Exclusive access to one row of a [`SharedKnn`], from
/// [`SharedKnn::lock`]: a [`KnnHeap`] over the row's slots, held under the
/// row's lock.
///
/// The guard reads the heap through `Deref` and edits it through its own
/// methods, which are [`KnnHeap`]'s. It has no `DerefMut`: a `&mut` heap
/// over the row could be swapped into another row's guard and outlive
/// this row's lock. Dropping the guard stores the heap's length and, when
/// the floor moved, its admission floor as the user's hint, before the
/// lock is released: a `remove` or a demotion lowers the hint with the
/// worst entry, and a guard that changed nothing writes no hint.
pub struct HeapGuard<'a> {
    heap: KnnHeap<&'a mut [HeapEntry]>,
    len: MutexGuard<'a, u32>,
    hint: &'a AtomicU64,
}

impl<'a> Deref for HeapGuard<'a> {
    type Target = KnnHeap<&'a mut [HeapEntry]>;

    fn deref(&self) -> &Self::Target {
        &self.heap
    }
}

impl HeapGuard<'_> {
    /// [`KnnHeap::update`] on the locked row.
    pub fn update(&mut self, sim: f64, id: UserId) -> bool {
        self.heap.update(sim, id)
    }

    /// [`KnnHeap::remove`] on the locked row.
    pub fn remove(&mut self, id: UserId) -> bool {
        self.heap.remove(id)
    }

    /// [`KnnHeap::reprioritize`] on the locked row.
    pub fn reprioritize(&mut self, id: UserId, sim: f64) -> Option<f64> {
        self.heap.reprioritize(id, sim)
    }

    /// [`KnnHeap::take_new_ids`] on the locked row.
    pub fn take_new_ids(&mut self) -> Vec<UserId> {
        self.heap.take_new_ids()
    }

    /// [`KnnHeap::clear_new_flag`] on the locked row.
    pub fn clear_new_flag(&mut self, id: UserId) {
        self.heap.clear_new_flag(id)
    }

    /// [`KnnHeap::retag_new`] on the locked row.
    pub fn retag_new(&mut self, is_new: impl FnMut(UserId) -> bool) {
        self.heap.retag_new(is_new)
    }
}

impl Drop for HeapGuard<'_> {
    fn drop(&mut self) {
        *self.len = self.heap.len as u32;
        let floor = self.heap.admission_floor().to_bits();
        if self.hint.load(Ordering::Relaxed) != floor {
            self.hint.store(floor, Ordering::Relaxed);
        }
    }
}

/// Debug-build tripwire, checked with the row's lock held: a hint is
/// never above a full heap's worst similarity, and is −∞ while the heap
/// has room. A hint above the heap's admission floor would turn away
/// offers that belong in the heap.
#[inline]
fn debug_check_hint(hint: &AtomicU64, heap: &KnnHeap<&mut [HeapEntry]>) {
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
        let g = shared.snapshot(1);
        assert_eq!(g.neighbors(0), &[Neighbor { id: 1, sim: 0.5 }]);
        assert_eq!(g.neighbors(2), &[]);
    }

    #[test]
    fn vacant_is_all_zero_bits_and_fills_a_new_slab() {
        assert_eq!(
            (VACANT.sim.to_bits(), VACANT.id, VACANT.is_new),
            (0, 0, false)
        );
        let shared = SharedKnn::new(3, 5);
        for u in 0..3 {
            let row = shared.lock(u);
            for e in row.heap.slots.iter() {
                assert_eq!((e.sim.to_bits(), e.id, e.is_new), (0, 0, false));
            }
        }
        assert_eq!(SharedKnn::new(0, 5).snapshot(2).num_users(), 0);
    }

    #[test]
    fn snapshots_agree_at_every_worker_count() {
        // More rows than one worker's grain, so the rows come from
        // several workers' parts.
        let n = 2 * SNAPSHOT_GRAIN as u32 + 7;
        let shared = SharedKnn::new(n as usize, 3);
        for u in 0..n {
            for j in 1..5 {
                let v = (u * 7 + j * 13) % n;
                if v != u {
                    shared.update(u, v, f64::from((u + j) % 9) / 9.0);
                }
            }
        }
        let serial = shared.snapshot(1);
        assert!(serial.num_edges() > 0);
        for threads in [2, 4] {
            assert_eq!(shared.snapshot(threads), serial, "{threads} workers");
        }
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
        assert_eq!(shared.snapshot(1).neighbors(0), &want);
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
        assert_eq!(shared.snapshot(1).neighbors(0), &want);
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
        let g = shared.snapshot(1);
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

    #[test]
    fn concurrent_batches_preserve_invariants() {
        use kiff_parallel::parallel_for;
        let n = 200u32;
        let k = 5;
        let sim_of =
            |u: u32, v: u32| f64::from((u ^ v).wrapping_mul(2_654_435_761) % 1000) / 1000.0;
        let shared = SharedKnn::new(n as usize, k);
        parallel_for(4, n as usize, 8, |range| {
            for u in range {
                // Each owner scores the users above it, so every row gets
                // some offers on the owner side and the rest on the
                // reverse side of other owners' batches, and batches run
                // from 199 candidates (several filter chunks) down to none.
                let u = u as u32;
                let candidates: Vec<u32> = (u + 1..n).collect();
                let sims: Vec<f64> = candidates.iter().map(|&v| sim_of(u, v)).collect();
                shared.update_batch(u, &candidates, &sims);
            }
        });
        let g = shared.snapshot(1);
        for u in 0..n {
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

    #[test]
    fn batch_ties_at_the_worst_entry_take_the_lock() {
        let shared = SharedKnn::new(3, 1);
        assert_eq!(shared.update_batch(0, &[2], &[0.5]), 2);
        // User 2's row is full at (0.5, 0): user 1's offer ties it and
        // loses on the id, while user 1's own row has room.
        assert_eq!(shared.update_batch(1, &[2], &[0.5]), 1);
        // Rows 0 and 1 are full at (0.5, 2): both ties win on the id.
        assert_eq!(shared.update_batch(1, &[0], &[0.5]), 2);
        let g = shared.snapshot(1);
        assert_eq!(g.neighbors(0), &[Neighbor { id: 1, sim: 0.5 }]);
        assert_eq!(g.neighbors(1), &[Neighbor { id: 0, sim: 0.5 }]);
        assert_eq!(g.neighbors(2), &[Neighbor { id: 0, sim: 0.5 }]);
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
                let graph = shared.snapshot(1);
                for u in 0..USERS {
                    let want = model[u as usize].sorted_neighbors();
                    prop_assert_eq!(graph.neighbors(u), &want[..]);
                }
            }

            /// [`SharedKnn::update_batch`] counts what per-offer plain-heap
            /// updates, interleaved owner side then reverse side as
            /// Algorithm 1 offers them, count, and leaves every row as
            /// they leave it. Batches repeat candidates, run past a
            /// filter chunk, and score on a coarse grid so ties at the
            /// worst entry are common; removals between batches give full
            /// rows room again, so the hints fall as well as rise.
            #[test]
            fn batch_matches_plain_heaps(
                batches in proptest::collection::vec(
                    (0u32..6, proptest::collection::vec((0u32..5, 0u32..8), 0..150), 0u32..6),
                    1..12,
                ),
                k in 1usize..6,
            ) {
                const USERS: u32 = 6;
                let shared = SharedKnn::new(USERS as usize, k);
                let mut model: Vec<KnnHeap> = (0..USERS).map(|_| KnnHeap::new(k)).collect();
                for (owner, offers, drop_from) in batches {
                    // Candidates skip the owner: no self-loops.
                    let candidates: Vec<u32> = offers
                        .iter()
                        .map(|&(c, _)| if c >= owner { c + 1 } else { c })
                        .collect();
                    let sims: Vec<f64> = offers.iter().map(|&(_, level)| f64::from(level) / 8.0).collect();
                    let mut want = 0u64;
                    for (&v, &s) in candidates.iter().zip(&sims) {
                        want += u64::from(model[owner as usize].update(s, v));
                        want += u64::from(model[v as usize].update(s, owner));
                    }
                    prop_assert_eq!(shared.update_batch(owner, &candidates, &sims), want);
                    // Drop one row's best-kept entry, if it has any.
                    let row = &mut model[drop_from as usize];
                    if let Some(best) = row.sorted_neighbors().first() {
                        prop_assert!(row.remove(best.id));
                        prop_assert!(shared.lock(drop_from).remove(best.id));
                    }
                }
                let graph = shared.snapshot(1);
                for u in 0..USERS {
                    let want = model[u as usize].sorted_neighbors();
                    prop_assert_eq!(graph.neighbors(u), &want[..]);
                }
            }
        }
    }
}
