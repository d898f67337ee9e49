//! Epoch-published shared views: the read side of a single-writer system.
//!
//! The serving daemon has one writer (the engine host applying batches
//! under its own mutex) and many readers (query connections). Readers
//! must never wait on the writer's long critical section, so the writer
//! publishes an immutable snapshot ([`ViewCell::publish`]) after every
//! batch and readers load it with — in the steady state — **one relaxed
//! atomic read** ([`ViewCell::load_cached`] against a per-reader
//! [`ViewCache`]).
//!
//! There is no `arc-swap` crate in this workspace, so the cell is built
//! from `std` parts: an epoch counter plus a micro-mutex guarding the
//! `Arc` slot. The micro-mutex is held only for an `Arc` clone or
//! pointer swap (a few nanoseconds); crucially it is *not* the writer's
//! engine mutex, so a reader can at worst collide with another reader's
//! clone or the writer's swap — never with an in-flight `apply_batch`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A shared slot holding the current immutable view of some state,
/// republished by a single writer and loaded by many readers.
///
/// Readers are wait-free with respect to the writer's long critical
/// sections: the internal mutex only ever guards an `Arc` clone/swap.
/// Pair with a per-reader [`ViewCache`] to collapse the steady-state
/// load to a single atomic epoch check.
#[derive(Debug)]
pub struct ViewCell<T> {
    /// Bumped on every publish; `ViewCache` validates against this.
    epoch: AtomicU64,
    /// Micro-lock: held only to clone or replace the `Arc`, never while
    /// building `T`.
    slot: Mutex<Arc<T>>,
}

impl<T> ViewCell<T> {
    /// Creates a cell publishing `initial` as epoch 1.
    pub fn new(initial: Arc<T>) -> Self {
        ViewCell {
            epoch: AtomicU64::new(1),
            slot: Mutex::new(initial),
        }
    }

    /// Atomically replaces the published view, returning the new epoch.
    ///
    /// The epoch is bumped *after* the swap, so a reader that observes
    /// epoch `e` and then loads the slot can only see the view for `e`
    /// or something newer — never an older view tagged with a newer
    /// epoch.
    pub fn publish(&self, view: Arc<T>) -> u64 {
        let mut slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        *slot = view;
        let epoch = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        drop(slot);
        epoch
    }

    /// Loads the current view (one micro-lock clone).
    pub fn load(&self) -> Arc<T> {
        Arc::clone(&self.slot.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Loads the current view and the epoch it was observed at.
    pub fn load_with_epoch(&self) -> (Arc<T>, u64) {
        let slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        let view = Arc::clone(&slot);
        // Read the epoch while still holding the slot: the writer bumps
        // the epoch under the same lock, so this pairing is exact.
        let epoch = self.epoch.load(Ordering::Acquire);
        drop(slot);
        (view, epoch)
    }

    /// Loads through a per-reader cache: in the steady state (no
    /// publish since the last call) this is a single atomic load and
    /// an `Arc` clone of the cached view — no lock at all.
    pub fn load_cached(&self, cache: &mut ViewCache<T>) -> Arc<T> {
        let current = self.epoch.load(Ordering::Acquire);
        match &cache.view {
            Some(v) if cache.epoch == current => Arc::clone(v),
            _ => {
                let (view, epoch) = self.load_with_epoch();
                cache.epoch = epoch;
                cache.view = Some(Arc::clone(&view));
                view
            }
        }
    }

    /// The current publish epoch (starts at 1, +1 per publish).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }
}

/// Per-reader memo for [`ViewCell::load_cached`].
///
/// One per connection/thread; never shared. Holding one keeps the last
/// view's `Arc` alive, which is exactly the snapshot-isolation contract:
/// a reader mid-request keeps its view even as the writer publishes.
#[derive(Debug)]
pub struct ViewCache<T> {
    epoch: u64,
    view: Option<Arc<T>>,
}

impl<T> ViewCache<T> {
    /// An empty cache; the first load always hits the cell.
    pub fn new() -> Self {
        ViewCache {
            epoch: 0,
            view: None,
        }
    }
}

impl<T> Default for ViewCache<T> {
    fn default() -> Self {
        ViewCache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn publish_and_load_round_trip() {
        let cell = ViewCell::new(Arc::new(1u32));
        assert_eq!(*cell.load(), 1);
        assert_eq!(cell.epoch(), 1);
        let epoch = cell.publish(Arc::new(2));
        assert_eq!(epoch, 2);
        assert_eq!(*cell.load(), 2);
    }

    #[test]
    fn cached_load_skips_the_lock_until_a_publish() {
        let cell = ViewCell::new(Arc::new(10u32));
        let mut cache = ViewCache::new();
        let a = cell.load_cached(&mut cache);
        let b = cell.load_cached(&mut cache);
        assert!(Arc::ptr_eq(&a, &b), "steady state reuses the cached Arc");
        cell.publish(Arc::new(11));
        let c = cell.load_cached(&mut cache);
        assert_eq!(*c, 11, "cache notices the new epoch");
    }

    #[test]
    fn readers_see_monotone_epochs_under_a_publishing_writer() {
        let cell = Arc::new(ViewCell::new(Arc::new(0u64)));
        let writer = {
            let cell = Arc::clone(&cell);
            thread::spawn(move || {
                for i in 1..=500u64 {
                    cell.publish(Arc::new(i));
                }
            })
        };
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let cell = Arc::clone(&cell);
                thread::spawn(move || {
                    let mut cache = ViewCache::new();
                    let mut last = 0u64;
                    for _ in 0..2000 {
                        let v = *cell.load_cached(&mut cache);
                        assert!(v >= last, "view went backwards: {v} < {last}");
                        last = v;
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(*cell.load(), 500);
    }
}
