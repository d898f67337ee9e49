//! Sparse multiplicity counters for the KIFF counting phase.
//!
//! Building a ranked candidate set means computing, for one user `u`, the
//! multiset union of the item profiles of the items `u` rated (Algorithm 1,
//! line 4) — i.e. counting how many items `u` shares with every co-rater:
//!
//! * [`DenseCounter`] — epoch-stamped dense array over dense `u32` keys;
//!   O(1) per increment with no hashing and no sort of the raw multiset.
//!   The production RCS ranking; pays O(key universe) memory per
//!   instance, so one is kept per worker thread.
//! * [`count_sorted_runs`] — sort + run-length-encode; the ranking of the
//!   counting oracle and of `kiff-core`'s single-user
//!   `user_candidate_counts`.
//! * [`SparseCounter`] — hash-map based; long-lived per-user counts that
//!   are incremented and decremented in place (the online engine).

use crate::hash::FxHashMap;
use crate::radix::{radix_sort_u32, radix_sort_u32_with};

/// Hash-based sparse counter over `u32` keys.
///
/// A thin wrapper around an Fx-hashed map that keeps the counting workflow
/// (`add*`, `sub`, `top_by_count`) explicit at call sites.
#[derive(Debug, Default, Clone)]
pub struct SparseCounter {
    counts: FxHashMap<u32, u32>,
}

impl SparseCounter {
    /// Creates an empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty counter with space for `cap` distinct keys.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            counts: FxHashMap::with_capacity_and_hasher(cap, Default::default()),
        }
    }

    /// Increments the multiplicity of `key`.
    #[inline]
    pub fn add(&mut self, key: u32) {
        *self.counts.entry(key).or_insert(0) += 1;
    }

    /// Increments every key in `keys`.
    pub fn add_all(&mut self, keys: &[u32]) {
        for &k in keys {
            self.add(k);
        }
    }

    /// Adds `n` to the multiplicity of `key` in one step (bulk seeding
    /// from a precomputed ranked candidate set).
    pub fn add_n(&mut self, key: u32, n: u32) {
        if n > 0 {
            *self.counts.entry(key).or_insert(0) += n;
        }
    }

    /// Number of distinct keys seen.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether no key has been counted.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Multiplicity of `key` (0 when unseen).
    pub fn get(&self, key: u32) -> u32 {
        self.counts.get(&key).copied().unwrap_or(0)
    }

    /// Decrements the multiplicity of `key`, removing it at zero. Used by
    /// the online engine to retract a shared item when a rating is deleted.
    ///
    /// # Panics
    /// Panics if `key` is not currently counted — a decrement without a
    /// matching increment is an accounting bug upstream.
    pub fn sub(&mut self, key: u32) {
        let count = self
            .counts
            .get_mut(&key)
            .unwrap_or_else(|| panic!("sub on uncounted key {key}"));
        *count -= 1;
        if *count == 0 {
            self.counts.remove(&key);
        }
    }

    /// Iterates `(key, count)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.counts.iter().map(|(&k, &c)| (k, c))
    }

    /// The `limit` keys with the highest counts, ordered by descending
    /// count (ties: ascending key) — the ranked-candidate-set prefix,
    /// without draining. A partial select keeps this `O(n + limit log
    /// limit)` rather than sorting the whole counter.
    pub fn top_by_count(&self, limit: usize) -> Vec<(u32, u32)> {
        let mut pairs: Vec<(u32, u32)> = self.counts.iter().map(|(&k, &c)| (k, c)).collect();
        let order = |a: &(u32, u32), b: &(u32, u32)| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0));
        if pairs.len() > limit {
            pairs.select_nth_unstable_by(limit, order);
            pairs.truncate(limit);
        }
        pairs.sort_unstable_by(order);
        pairs
    }
}

/// Epoch-stamped dense multiplicity counter over `u32` keys.
///
/// Counts live in a flat array indexed by key; a parallel stamp array
/// records which epoch each slot was last written in, so "resetting"
/// between batches is a single epoch increment instead of an O(universe)
/// clear. Touched keys are recorded in first-touch order, making a full
/// drain O(distinct).
///
/// This is the engine of `kiff-core`'s RCS construction: one
/// instance per worker thread, `begin()` per user, `add()` per gathered
/// candidate, then [`DenseCounter::emit_ranked`] produces the RCS order via
/// a counting sort over multiplicities (which are bounded by the user's
/// degree — each rated item contributes at most one shared item per
/// co-rater).
#[derive(Debug, Clone)]
pub struct DenseCounter {
    count: Vec<u32>,
    stamp: Vec<u32>,
    /// Distinct keys of the current batch, in first-touch order.
    touched: Vec<u32>,
    /// Starts at 1: fresh slots carry stamp 0 and therefore read as
    /// untouched even before the first [`DenseCounter::begin`].
    epoch: u32,
    /// Scratch histogram for [`DenseCounter::emit_ranked`]'s counting sort.
    hist: Vec<u32>,
    /// Radix-sort scratch for [`DenseCounter::emit_ranked`].
    sort_scratch: Vec<u32>,
}

impl Default for DenseCounter {
    fn default() -> Self {
        Self {
            count: Vec::new(),
            stamp: Vec::new(),
            touched: Vec::new(),
            epoch: 1,
            hist: Vec::new(),
            sort_scratch: Vec::new(),
        }
    }
}

impl DenseCounter {
    /// An empty counter; slots grow on demand (see [`DenseCounter::add`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty counter with slots for keys `0..capacity` preallocated.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut c = Self::default();
        c.ensure_capacity(capacity);
        c
    }

    /// An empty counter with only *stamp* slots for keys `0..capacity`
    /// preallocated — the mark-only sizing configuration
    /// ([`DenseCounter::mark`] never touches the count array, so sizing
    /// passes pay 4 bytes per key instead of 8). Count slots still grow
    /// on demand if [`DenseCounter::add`] is used later.
    pub fn with_stamp_capacity(capacity: usize) -> Self {
        let mut c = Self::default();
        c.stamp.resize(capacity, 0);
        c
    }

    /// Grows the slot arrays to cover keys `0..capacity`.
    pub fn ensure_capacity(&mut self, capacity: usize) {
        if self.count.len() < capacity {
            self.count.resize(capacity, 0);
        }
        // Fresh slots carry stamp 0; epoch starts at 1, so they read as
        // untouched. Guarded separately: mark-only use grows stamps ahead
        // of counts, and resizing must never truncate.
        if self.stamp.len() < capacity {
            self.stamp.resize(capacity, 0);
        }
    }

    /// Starts a new batch: all keys read as count 0 again.
    pub fn begin(&mut self) {
        self.touched.clear();
        if self.epoch == u32::MAX {
            // Epoch wrap: hard-reset the stamps once every 2^32 batches.
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Increments `key`'s multiplicity (growing the slot arrays if `key` is
    /// beyond the current capacity).
    #[inline]
    pub fn add(&mut self, key: u32) {
        let k = key as usize;
        if k >= self.count.len() {
            self.ensure_capacity(k + 1);
        }
        if self.stamp[k] == self.epoch {
            self.count[k] += 1;
        } else {
            self.stamp[k] = self.epoch;
            self.count[k] = 1;
            self.touched.push(key);
        }
    }

    /// Stamps `key` without maintaining its count, returning whether it
    /// was unseen in the current batch — the distinct-only fast path of
    /// sizing passes (no count-array traffic or allocation, no
    /// touched-list push).
    ///
    /// Do not mix with [`DenseCounter::add`] inside one batch: a marked
    /// key reads as count 0 but would not be re-registered by `add`.
    #[inline]
    pub fn mark(&mut self, key: u32) -> bool {
        let k = key as usize;
        if k >= self.stamp.len() {
            self.stamp.resize(k + 1, 0);
        }
        if self.stamp[k] == self.epoch {
            false
        } else {
            self.stamp[k] = self.epoch;
            true
        }
    }

    /// Multiplicity of `key` in the current batch (0 when untouched).
    #[inline]
    pub fn get(&self, key: u32) -> u32 {
        let k = key as usize;
        if k < self.count.len() && self.stamp[k] == self.epoch {
            self.count[k]
        } else {
            0
        }
    }

    /// Number of distinct keys in the current batch.
    #[inline]
    pub fn distinct(&self) -> usize {
        self.touched.len()
    }

    /// Writes up to `cap` `(key, count)` pairs of the current batch in RCS
    /// order — descending count, ties by ascending key — into `ids` (and
    /// `counts`, when provided), returning how many were written.
    ///
    /// Order is produced by a counting sort over multiplicities: keys are
    /// first sorted ascending (radix over the distinct set, not the raw
    /// multiset), bucketed by count, and emitted bucket-by-bucket from the
    /// highest count down, each bucket preserving ascending-key order. Cost
    /// is `O(distinct + max_count)`; `max_count` is bounded by the batch's
    /// maximum multiplicity (the user degree, in the RCS use).
    ///
    /// # Panics
    /// Panics if `ids` (or a provided `counts`) is shorter than
    /// `min(cap, distinct)`.
    pub fn emit_ranked(
        &mut self,
        cap: usize,
        ids: &mut [u32],
        mut counts: Option<&mut [u32]>,
    ) -> usize {
        let out_len = self.touched.len().min(cap);
        if out_len == 0 {
            return 0;
        }
        // Ties break by ascending key: feed keys ascending into the buckets.
        radix_sort_u32_with(&mut self.touched, &mut self.sort_scratch);

        let mut max_count = 0u32;
        for &key in &self.touched {
            max_count = max_count.max(self.count[key as usize]);
        }
        let buckets = max_count as usize + 1;
        if self.hist.len() < buckets {
            self.hist.resize(buckets, 0);
        }
        let hist = &mut self.hist[..buckets];
        hist.fill(0);
        for &key in &self.touched {
            hist[self.count[key as usize] as usize] += 1;
        }
        // hist[c] becomes the first output slot of count c, with higher
        // counts placed first.
        let mut next = 0u32;
        for c in (1..buckets).rev() {
            let run = hist[c];
            hist[c] = next;
            next += run;
        }
        for &key in &self.touched {
            let c = self.count[key as usize];
            let slot = hist[c as usize] as usize;
            hist[c as usize] += 1;
            if slot < out_len {
                ids[slot] = key;
                if let Some(out_counts) = counts.as_deref_mut() {
                    out_counts[slot] = c;
                }
            }
        }
        out_len
    }

    /// Drains the current batch into `(key, count)` pairs in RCS order,
    /// allocating the output — for tests and one-off callers.
    pub fn drain_sorted_by_count(&mut self) -> Vec<(u32, u32)> {
        let n = self.distinct();
        let mut ids = vec![0u32; n];
        let mut counts = vec![0u32; n];
        self.emit_ranked(n, &mut ids, Some(&mut counts));
        self.begin();
        ids.into_iter().zip(counts).collect()
    }
}

/// Sort-based counting: sorts `keys` in place, then returns `(key, count)`
/// pairs ordered by descending count (ties: ascending key).
///
/// Equivalent to ranking `keys` through [`SparseCounter`] or
/// [`DenseCounter`] — property-tested below.
pub fn count_sorted_runs(keys: &mut [u32]) -> Vec<(u32, u32)> {
    let mut pairs = Vec::new();
    if keys.is_empty() {
        return pairs;
    }
    radix_sort_u32(keys);
    let mut run_key = keys[0];
    let mut run_len = 0u32;
    for &k in keys.iter() {
        if k == run_key {
            run_len += 1;
        } else {
            pairs.push((run_key, run_len));
            run_key = k;
            run_len = 1;
        }
    }
    pairs.push((run_key, run_len));
    pairs.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts_multiplicities() {
        let mut c = SparseCounter::new();
        c.add_all(&[3, 1, 3, 3, 2, 1]);
        assert_eq!(c.get(3), 3);
        assert_eq!(c.get(1), 2);
        assert_eq!(c.get(2), 1);
        assert_eq!(c.get(99), 0);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn sub_retracts_and_removes_at_zero() {
        let mut c = SparseCounter::new();
        c.add_all(&[4, 4, 8]);
        c.sub(4);
        assert_eq!(c.get(4), 1);
        c.sub(4);
        assert_eq!(c.get(4), 0);
        assert_eq!(c.len(), 1, "zeroed key is dropped");
        c.sub(8);
        assert!(c.is_empty());
    }

    #[test]
    #[should_panic(expected = "sub on uncounted key")]
    fn sub_on_missing_key_panics() {
        SparseCounter::new().sub(3);
    }

    #[test]
    fn top_by_count_is_the_ranked_prefix() {
        let mut c = SparseCounter::new();
        c.add_all(&[5, 5, 5, 9, 9, 1, 2, 2]);
        assert_eq!(c.top_by_count(2), vec![(5, 3), (2, 2)]);
        assert_eq!(c.top_by_count(3), vec![(5, 3), (2, 2), (9, 2)]);
        // Beyond the population: everything, still ranked.
        assert_eq!(c.top_by_count(100), vec![(5, 3), (2, 2), (9, 2), (1, 1)]);
        // Non-destructive.
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn sorted_runs_empty_input() {
        let mut keys = vec![];
        assert!(count_sorted_runs(&mut keys).is_empty());
    }

    #[test]
    fn sorted_runs_single_run() {
        let mut keys = vec![7, 7, 7];
        assert_eq!(count_sorted_runs(&mut keys), vec![(7, 3)]);
    }

    #[test]
    fn sorted_runs_matches_hand_example() {
        // RCS_Alice from the paper (§II-C): counts decide the rank.
        let mut keys = vec![
            1, 1, 1, 1, 1, 1, 1, 1, 1, 1, // Bob shares 10
            2, 2, 2, 2, 2, 2, 2, 2, 2, // Carl shares 9
            3, 3, 3, 3, 3, 3, 3, 3, // Dave 8
            4, 4, 4, 4, 4, 4, // Xavier 6
            5, 5, 5, // Yann 3
        ];
        assert_eq!(
            count_sorted_runs(&mut keys),
            vec![(1, 10), (2, 9), (3, 8), (4, 6), (5, 3)]
        );
    }

    #[test]
    fn dense_counter_counts_and_resets_by_epoch() {
        let mut c = DenseCounter::with_capacity(16);
        c.begin();
        for k in [3u32, 1, 3, 3, 2, 1] {
            c.add(k);
        }
        assert_eq!(c.get(3), 3);
        assert_eq!(c.get(1), 2);
        assert_eq!(c.get(2), 1);
        assert_eq!(c.get(9), 0);
        assert_eq!(c.distinct(), 3);
        // New batch: everything reads zero without clearing slots.
        c.begin();
        assert_eq!(c.get(3), 0);
        assert_eq!(c.distinct(), 0);
    }

    #[test]
    fn dense_counter_usable_before_first_begin() {
        let mut c = DenseCounter::new();
        c.add(5);
        c.add(5);
        assert_eq!(c.get(5), 2);
        assert_eq!(c.distinct(), 1);
        assert_eq!(c.drain_sorted_by_count(), vec![(5, 2)]);
        let mut m = DenseCounter::with_capacity(8);
        assert!(m.mark(3));
        assert!(!m.mark(3));
    }

    #[test]
    fn dense_counter_grows_on_demand() {
        let mut c = DenseCounter::new();
        c.begin();
        c.add(1000);
        c.add(1000);
        assert_eq!(c.get(1000), 2);
        assert_eq!(c.distinct(), 1);
    }

    #[test]
    fn dense_drain_matches_sparse_order() {
        let keys = [5u32, 5, 9, 9, 1, 2];
        let mut dense = DenseCounter::new();
        dense.begin();
        for &k in &keys {
            dense.add(k);
        }
        let mut sparse = SparseCounter::new();
        sparse.add_all(&keys);
        assert_eq!(
            dense.drain_sorted_by_count(),
            sparse.top_by_count(keys.len())
        );
    }

    #[test]
    fn emit_ranked_caps_at_the_best_entries() {
        let mut c = DenseCounter::new();
        c.begin();
        for k in [5u32, 5, 5, 9, 9, 1, 2, 2] {
            c.add(k);
        }
        let mut ids = [0u32; 2];
        let mut counts = [0u32; 2];
        let written = c.emit_ranked(2, &mut ids, Some(&mut counts));
        assert_eq!(written, 2);
        assert_eq!(ids, [5, 2]);
        assert_eq!(counts, [3, 2]);
    }

    #[test]
    fn emit_ranked_empty_batch_writes_nothing() {
        let mut c = DenseCounter::new();
        c.begin();
        assert_eq!(c.emit_ranked(10, &mut [], None), 0);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Hash-based and sort-based ranking agree exactly.
            #[test]
            fn strategies_agree(keys in proptest::collection::vec(0u32..300, 0..600)) {
                let mut hash = SparseCounter::new();
                hash.add_all(&keys);
                let mut keys_mut = keys.clone();
                prop_assert_eq!(hash.top_by_count(keys.len()), count_sorted_runs(&mut keys_mut));
            }

            /// Dense counting agrees with sort-based ranking across
            /// consecutive batches (epoch reuse).
            #[test]
            fn dense_agrees_across_batches(
                batches in proptest::collection::vec(
                    proptest::collection::vec(0u32..300, 0..200), 1..4)
            ) {
                let mut dense = DenseCounter::new();
                for keys in &batches {
                    dense.begin();
                    for &k in keys {
                        dense.add(k);
                    }
                    let mut keys_mut = keys.clone();
                    prop_assert_eq!(
                        dense.drain_sorted_by_count(),
                        count_sorted_runs(&mut keys_mut)
                    );
                }
            }

            /// Total multiplicity equals input length.
            #[test]
            fn counts_sum_to_len(keys in proptest::collection::vec(any::<u32>(), 0..400)) {
                let mut keys_mut = keys.clone();
                let total: u64 = count_sorted_runs(&mut keys_mut)
                    .iter()
                    .map(|&(_, c)| u64::from(c))
                    .sum();
                prop_assert_eq!(total, keys.len() as u64);
            }
        }
    }
}
