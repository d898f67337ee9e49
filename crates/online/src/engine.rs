//! The [`OnlineKnn`] engine: a live KNN graph under streaming mutations.
//!
//! State per user: the live profile (in the [`DeltaDataset`] overlay), a
//! [`SparseCounter`] of shared items with every co-rater (the live,
//! unpivoted RCS of §II-C), and a [`KnnHeap`] of current neighbours, with
//! a [`ReverseAdjacency`] tying the heaps together.
//!
//! One update flows through three steps:
//!
//! 1. **mutate** — the dataset view changes; only the co-raters of the
//!    touched item get their shared-item counters adjusted (the
//!    incremental counting phase).
//! 2. **repair** — the updated user is re-scored against its refreshed
//!    RCS prefix (top `repair_width` by live count) plus its current and
//!    reverse neighbours, because every stored similarity involving the
//!    user is stale after a profile change.
//! 3. **propagate** — any user whose neighbourhood *degraded* (an edge
//!    removed, or a stored similarity revised downwards) is enqueued and
//!    repaired in turn, Debatty-style, until no heap changes or the
//!    propagation budget is exhausted.
//!
//! A single rating update can only change similarities incident to the
//! updated user, so this repair radius is exact for upgrades; the budget
//! bounds the (rare) degradation cascades. The result is the *eventual*
//! consistency model documented at the crate root.

use std::collections::VecDeque;
use std::sync::Arc;

use kiff_collections::{FxHashMap, FxHashSet, SparseCounter};
use kiff_core::{build_rcs, CountingConfig, Kiff, KiffConfig, KiffError};
use kiff_dataset::{Dataset, DeltaDataset, UserId};
use kiff_graph::{HeapChange, KnnGraph, KnnHeap, Neighbor, ReverseAdjacency};
use kiff_similarity as sim;
use kiff_similarity::ScorerWorkspace;
use kiff_telemetry::{Counter, Histogram};

use crate::config::{OnlineConfig, OnlineMetric};
use crate::snapshot::ClockCache;
use crate::update::{Update, UpdateStats};

/// A KNN graph maintained incrementally under streaming rating updates.
#[derive(Debug)]
pub struct OnlineKnn {
    config: OnlineConfig,
    data: DeltaDataset,
    /// Live shared-item counts: `counters[u]` maps every co-rater `v` to
    /// `|UP_u ∩ UP_v|` (both directions stored; the pivot trick of §II-D
    /// trades badly against per-update maintenance).
    counters: Vec<SparseCounter>,
    heaps: Vec<KnnHeap>,
    /// `stamps[u]`: the mutation clock of the last edit of `u`'s heap
    /// (or of its admission).
    stamps: Vec<u64>,
    /// Mutation clock: ticks at every mutation entry point; heap edits
    /// stamp their row with it.
    clock: u64,
    reverse: ReverseAdjacency,
    lifetime: UpdateStats,
    /// Prepared-scorer arena: a repair preprocesses the dirty user's
    /// profile once here, then scores every candidate in `O(|UP_v|)`.
    scorer_ws: ScorerWorkspace,
    /// Reusable repair staging buffer of `(candidate, similarity)`.
    scored: Vec<(UserId, f64)>,
    /// [`OnlineKnn::graph`] snapshot, tagged with the clock.
    graph_snapshot: ClockCache<KnnGraph>,
    /// [`OnlineKnn::dataset`] snapshot, tagged with the dataset version.
    dataset_snapshot: ClockCache<Dataset>,
    /// `online.apply_ns`: wall-clock of each `apply`/`apply_batch` call.
    apply_ns: Histogram,
    /// `online.repair_ns`: wall-clock of each single-user repair.
    repair_ns: Histogram,
    /// `online.sims`: repair similarity evaluations (the registry twin of
    /// [`UpdateStats::sim_evals`]).
    tele_sims: Counter,
}

impl OnlineKnn {
    /// Builds the initial graph with batch KIFF under `config.metric`,
    /// then wraps it for streaming.
    pub fn new(dataset: &Dataset, config: OnlineConfig) -> Self {
        let graph = batch_graph(dataset, config.k, config.metric);
        Self::from_graph(dataset, &graph, config)
    }

    /// Wraps an already-built graph (any construction algorithm) for
    /// streaming. The live shared-item counters are seeded from one
    /// unpivoted batch counting pass.
    pub fn from_graph(dataset: &Dataset, graph: &KnnGraph, config: OnlineConfig) -> Self {
        assert_eq!(
            graph.num_users(),
            dataset.num_users(),
            "graph and dataset disagree on the user count"
        );
        let n = dataset.num_users();
        let rcs = build_rcs(
            dataset,
            &CountingConfig {
                pivot: false,
                keep_counts: true,
                ..Default::default()
            },
        );
        let mut counters = Vec::with_capacity(n);
        for u in 0..n as UserId {
            let ids = rcs.rcs(u);
            let counts = rcs.counts(u).expect("keep_counts set");
            let mut counter = SparseCounter::with_capacity(ids.len());
            for (&v, &c) in ids.iter().zip(counts) {
                counter.add_n(v, c);
            }
            counters.push(counter);
        }
        Self::assemble(dataset, graph, counters, config)
    }

    /// Restores an engine from persisted state: the compacted dataset, the
    /// graph snapshot, and the exported shared-item counters (see
    /// [`OnlineKnn::counters_snapshot`]) — pure deserialization, no
    /// counting pass, which is what makes snapshot recovery beat a
    /// rebuild by a wide margin.
    ///
    /// Validates that the three sections agree on the user count and that
    /// counter keys stay in range; inconsistencies surface as
    /// [`KiffError::Corrupt`].
    pub fn from_snapshot(
        dataset: &Dataset,
        graph: &KnnGraph,
        counter_rows: Vec<Vec<(UserId, u32)>>,
        config: OnlineConfig,
    ) -> Result<Self, KiffError> {
        let n = dataset.num_users();
        if graph.num_users() != n || counter_rows.len() != n {
            return Err(KiffError::corrupt(
                "engine snapshot",
                format!(
                    "user counts disagree: dataset {n}, graph {}, counters {}",
                    graph.num_users(),
                    counter_rows.len()
                ),
            ));
        }
        let mut counters = Vec::with_capacity(n);
        for (u, row) in counter_rows.into_iter().enumerate() {
            let mut counter = SparseCounter::with_capacity(row.len());
            for (v, c) in row {
                if v as usize >= n || v as usize == u {
                    return Err(KiffError::corrupt(
                        "engine snapshot",
                        format!("counter row {u} references invalid co-rater {v}"),
                    ));
                }
                counter.add_n(v, c);
            }
            counters.push(counter);
        }
        Ok(Self::assemble(dataset, graph, counters, config))
    }

    /// Exports the live shared-item counters as per-user `(co_rater,
    /// count)` rows sorted by co-rater id — the deterministic form the
    /// snapshot codec persists and [`OnlineKnn::from_snapshot`] accepts.
    pub fn counters_snapshot(&self) -> Vec<Vec<(UserId, u32)>> {
        self.counters
            .iter()
            .map(|counter| {
                let mut row: Vec<(UserId, u32)> = counter.iter().collect();
                row.sort_unstable_by_key(|&(v, _)| v);
                row
            })
            .collect()
    }

    /// Shared tail of the constructors: wire counters + graph-seeded
    /// heaps + reverse adjacency into an engine.
    fn assemble(
        dataset: &Dataset,
        graph: &KnnGraph,
        counters: Vec<SparseCounter>,
        config: OnlineConfig,
    ) -> Self {
        let n = dataset.num_users();
        let mut heaps = Vec::with_capacity(n);
        for u in 0..n as UserId {
            let mut heap = KnnHeap::new(config.k);
            for nb in graph.neighbors(u) {
                heap.update(nb.sim, nb.id);
            }
            heaps.push(heap);
        }
        let tele = &config.telemetry;
        let apply_ns = tele.histogram("online.apply_ns");
        let repair_ns = tele.histogram("online.repair_ns");
        let tele_sims = tele.counter("online.sims");
        let scorer_ws = ScorerWorkspace::with_telemetry(tele);
        let mut engine = Self {
            config,
            data: DeltaDataset::new(dataset.clone()),
            counters,
            reverse: ReverseAdjacency::new(n),
            heaps,
            stamps: vec![1; n],
            clock: 1,
            lifetime: UpdateStats::default(),
            scorer_ws,
            scored: Vec::new(),
            graph_snapshot: ClockCache::new(),
            dataset_snapshot: ClockCache::new(),
            apply_ns,
            repair_ns,
            tele_sims,
        };
        // Rebuild reverse adjacency from the heaps (not from `graph`: the
        // heap capacity may be smaller than the snapshot's k).
        for u in 0..n as UserId {
            for id in engine.heaps[u as usize].ids() {
                engine.reverse.add(u, id);
            }
        }
        engine
    }

    /// The engine's configuration.
    pub fn config(&self) -> &OnlineConfig {
        &self.config
    }

    /// Neighbourhood size `k`.
    pub fn k(&self) -> usize {
        self.config.k
    }

    /// Current number of users.
    pub fn num_users(&self) -> usize {
        self.data.num_users()
    }

    /// The live dataset view.
    pub fn data(&self) -> &DeltaDataset {
        &self.data
    }

    /// Work accumulated over the engine's lifetime.
    pub fn lifetime_stats(&self) -> &UpdateStats {
        &self.lifetime
    }

    /// `u`'s current neighbours, best first.
    pub fn neighbors(&self, u: UserId) -> Vec<Neighbor> {
        self.heaps[u as usize].sorted_neighbors()
    }

    /// The live shared-item count `|UP_u ∩ UP_v|` (0 when disjoint) — the
    /// incremental counting phase's output, exposed for audits and tools.
    pub fn shared_count(&self, u: UserId, v: UserId) -> u32 {
        self.counters[u as usize].get(v)
    }

    /// Snapshots the live graph.
    ///
    /// The first call sorts every row (`O(|E|)`). Later calls start from
    /// the cached snapshot and re-sort only the rows edited since, so a
    /// batch costs the rows it changed plus one `Arc` clone per user;
    /// calls between mutations return the same `Arc` for free.
    pub fn graph(&self) -> Arc<KnnGraph> {
        self.graph_snapshot
            .graph(self.clock, self.config.k, self.num_users(), |since| {
                self.stamps
                    .iter()
                    .enumerate()
                    .filter(|&(_, &stamp)| stamp > since)
                    .map(|(u, _)| (u as UserId, self.heaps[u].sorted_neighbors()))
                    .collect()
            })
    }

    /// Materializes the live dataset view as a frozen [`Dataset`]: one
    /// copy of the ratings ([`DeltaDataset::to_dataset`]) per dataset
    /// change, and the same `Arc` for free between changes.
    pub fn dataset(&self) -> Arc<Dataset> {
        self.dataset_snapshot
            .get(self.data.version(), |_| Arc::new(self.data.to_dataset()))
    }

    /// Appends a user with an empty profile, returning its id.
    pub fn add_user(&mut self) -> UserId {
        let id = self.data.add_user();
        self.counters.push(SparseCounter::new());
        self.heaps.push(KnnHeap::new(self.config.k));
        self.clock += 1;
        self.stamps.push(self.clock);
        let rid = self.reverse.push_user();
        debug_assert_eq!(rid, id);
        id
    }

    /// Applies one mutation and repairs the graph around it.
    pub fn apply(&mut self, update: Update) -> UpdateStats {
        let _span = self.apply_ns.span();
        self.clock += 1;
        let mut stats = UpdateStats {
            updates: 1,
            ..Default::default()
        };
        let dirty = self.mutate(update, &mut stats);
        self.propagate(dirty.into_iter().collect(), &mut stats);
        self.maybe_compact(&mut stats);
        self.lifetime.merge(&stats);
        stats
    }

    /// Applies a batch of mutations, then repairs once — the realistic
    /// serving pattern: counter maintenance happens per mutation, but a
    /// user touched by many ratings in the batch is re-scored a single
    /// time against the final state, amortising repair.
    pub fn apply_batch(&mut self, updates: impl IntoIterator<Item = Update>) -> UpdateStats {
        let _span = self.apply_ns.span();
        self.clock += 1;
        let mut stats = UpdateStats::default();
        let mut dirty: Vec<(UserId, Vec<UserId>)> = Vec::new();
        let mut slot: FxHashMap<UserId, usize> = FxHashMap::default();
        for update in updates {
            stats.updates += 1;
            for (u, extras) in self.mutate(update, &mut stats) {
                match slot.get(&u) {
                    Some(&idx) => dirty[idx].1.extend(extras),
                    None => {
                        slot.insert(u, dirty.len());
                        dirty.push((u, extras));
                    }
                }
            }
        }
        self.propagate(dirty, &mut stats);
        self.maybe_compact(&mut stats);
        self.lifetime.merge(&stats);
        stats
    }

    /// Step 1: mutate the dataset view and the shared-item counters.
    /// Returns the users whose profiles changed, each with the *targeted*
    /// candidates a repair must consider beyond the standing prefix: the
    /// co-raters of the touched item, since `sim(user, v)` rose exactly
    /// for those `v` (capped at `repair_width`, best shared counts first).
    fn mutate(&mut self, update: Update, stats: &mut UpdateStats) -> Vec<(UserId, Vec<UserId>)> {
        match update {
            Update::AddRating { user, item, rating } => {
                while (user as usize) >= self.data.num_users() {
                    self.add_user();
                }
                // Capture co-raters before insertion: exactly these pairs
                // gain a shared item (or, on reinforcement, weight).
                let mut raters = self.data.item_raters(item);
                raters.retain(|&v| v != user);
                // On reinforcement only the rating value changes (repair
                // still needed — similarities moved — but no counter does).
                if self.data.add_rating(user, item, rating) {
                    for &v in &raters {
                        self.counters[user as usize].add(v);
                        self.counters[v as usize].add(user);
                        stats.counter_adjustments += 2;
                    }
                }
                if raters.len() > self.config.repair_width {
                    // Partial select: only the best shared counts matter,
                    // and repair dedups/sorts candidates again anyway. The
                    // id tie-break makes the kept *set* independent of the
                    // rater iteration order, which differs between a live
                    // overlay and a compacted (or snapshot-restored) base
                    // — snapshot+replay must equal uninterrupted replay.
                    let counter = &self.counters[user as usize];
                    raters.select_nth_unstable_by_key(self.config.repair_width, |&v| {
                        (std::cmp::Reverse(counter.get(v)), v)
                    });
                    raters.truncate(self.config.repair_width);
                }
                vec![(user, raters)]
            }
            Update::AddUser => {
                self.add_user();
                Vec::new()
            }
            Update::RemoveRating { user, item } => {
                if (user as usize) >= self.data.num_users() || !self.data.remove_rating(user, item)
                {
                    return Vec::new();
                }
                // Post-removal raters are exactly the pairs that lost a
                // shared item. No targeted candidates: a removal only
                // lowers similarities, and every standing edge is already
                // covered by the heap and reverse sets.
                for v in self.data.item_raters(item) {
                    if v != user {
                        self.counters[user as usize].sub(v);
                        self.counters[v as usize].sub(user);
                        stats.counter_adjustments += 2;
                    }
                }
                vec![(user, Vec::new())]
            }
        }
    }

    /// Steps 2–3: repair each dirty user, then propagate through users
    /// whose neighbourhoods degraded, until quiescence or budget
    /// exhaustion.
    fn propagate(&mut self, dirty: Vec<(UserId, Vec<UserId>)>, stats: &mut UpdateStats) {
        let budget = dirty.len() as u64 + self.config.max_propagation as u64;
        let mut queue: VecDeque<UserId> = VecDeque::new();
        let mut extras: FxHashMap<UserId, Vec<UserId>> = FxHashMap::default();
        for (u, targeted) in dirty {
            queue.push_back(u);
            extras.entry(u).or_default().extend(targeted);
        }
        let mut visited: FxHashSet<UserId> = FxHashSet::default();
        let mut repaired = 0u64;
        while let Some(u) = queue.pop_front() {
            if repaired >= budget {
                break;
            }
            if !visited.insert(u) {
                continue;
            }
            repaired += 1;
            let targeted = extras.remove(&u).unwrap_or_default();
            self.repair(u, targeted, stats, &mut queue, &mut visited);
        }
        stats.repaired_users += repaired;
        // Scorers batch their per-candidate tally in the workspace; the
        // engine outlives snapshots, so publish it at batch end.
        self.scorer_ws.flush_telemetry();
    }

    /// Re-scores `u` against its refreshed RCS prefix plus every user a
    /// stale similarity could hide in: its current neighbours and its
    /// reverse neighbours. `u`'s profile is prepared once (dense stamps,
    /// hoisted norm); every candidate then scores in `O(|UP_v|)`,
    /// reproducing [`OnlineMetric::eval`](crate::OnlineMetric) exactly.
    fn repair(
        &mut self,
        u: UserId,
        targeted: Vec<UserId>,
        stats: &mut UpdateStats,
        queue: &mut VecDeque<UserId>,
        visited: &mut FxHashSet<UserId>,
    ) {
        let span = self.repair_ns.span();
        let mut candidates = targeted;
        candidates.extend(self.heaps[u as usize].ids());
        candidates.extend(self.reverse.in_neighbors(u));
        candidates.extend(
            self.counters[u as usize]
                .top_by_count(self.config.repair_width)
                .into_iter()
                .map(|(v, _)| v),
        );
        candidates.sort_unstable();
        candidates.dedup();
        // Score first (the scorer borrows the workspace and the dataset
        // view), then land the results on the heaps.
        let mut scored = std::mem::take(&mut self.scored);
        scored.clear();
        {
            let scorer = self
                .scorer_ws
                .prepare(self.config.metric.kind(), self.data.profile(u));
            for v in candidates {
                if v == u {
                    continue;
                }
                scored.push((v, scorer.score(self.data.profile(v))));
            }
        }
        stats.sim_evals += scored.len() as u64;
        self.tele_sims.add(scored.len() as u64);
        for &(v, s) in &scored {
            self.score_pair(u, v, s, stats, queue, visited);
        }
        self.scored = scored;
        span.finish();
    }

    /// Lands a freshly evaluated similarity on both endpoint heaps,
    /// keeping the reverse adjacency consistent and enqueueing owners
    /// whose neighbourhood degraded. Each branch that edits a heap
    /// stamps the owner's row.
    fn score_pair(
        &mut self,
        u: UserId,
        v: UserId,
        s: f64,
        stats: &mut UpdateStats,
        queue: &mut VecDeque<UserId>,
        visited: &mut FxHashSet<UserId>,
    ) {
        for (owner, other) in [(u, v), (v, u)] {
            let heap = &mut self.heaps[owner as usize];
            if s <= 0.0 {
                // A non-sharing pair is not a valid KNN edge under the
                // sparse axioms; drop it and refill the owner later.
                if heap.remove(other) {
                    self.stamps[owner as usize] = self.clock;
                    self.reverse.remove(owner, other);
                    stats.edits.removals += 1;
                    if !visited.contains(&owner) {
                        queue.push_back(owner);
                    }
                }
            } else if let Some(old) = heap.reprioritize(other, s) {
                if old != s {
                    self.stamps[owner as usize] = self.clock;
                    stats.edits.reprioritized += 1;
                    // A downgrade can push the edge below candidates the
                    // owner is not currently holding: re-rank the owner.
                    if s < old && !visited.contains(&owner) {
                        queue.push_back(owner);
                    }
                }
            } else if let HeapChange::Inserted { evicted } = heap.offer(s, other) {
                self.stamps[owner as usize] = self.clock;
                stats.edits.inserts += 1;
                self.reverse.add(owner, other);
                if let Some(e) = evicted {
                    self.reverse.remove(owner, e);
                    stats.edits.evictions += 1;
                }
            }
        }
    }

    /// Folds the delta overlay back into a fresh CSR once it covers too
    /// large a fraction of the users.
    fn maybe_compact(&mut self, stats: &mut UpdateStats) {
        let n = self.data.num_users().max(1);
        if (self.data.overlay_users() as f64) >= self.config.compaction_threshold * n as f64 {
            self.data.compact();
            stats.compacted = true;
        }
    }
}

/// Builds the initial batch graph with KIFF under the online metric's
/// batch twin (shared with the sharded engine).
pub(crate) fn batch_graph(dataset: &Dataset, k: usize, metric: OnlineMetric) -> KnnGraph {
    let kiff = Kiff::new(KiffConfig::new(k));
    match metric {
        OnlineMetric::Cosine => kiff.run(dataset, &sim::WeightedCosine::fit(dataset)).graph,
        OnlineMetric::BinaryCosine => kiff.run(dataset, &sim::BinaryCosine).graph,
        OnlineMetric::Jaccard => kiff.run(dataset, &sim::Jaccard).graph,
        OnlineMetric::WeightedJaccard => kiff.run(dataset, &sim::WeightedJaccard).graph,
        OnlineMetric::Dice => kiff.run(dataset, &sim::Dice).graph,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kiff_dataset::dataset::figure2_toy;
    use kiff_similarity::intersect_count;

    fn toy_engine() -> OnlineKnn {
        OnlineKnn::new(&figure2_toy(), OnlineConfig::new(2))
    }

    /// Exhaustive consistency audit: counters equal brute-force shared
    /// counts, heap similarities equal fresh metric evaluations, reverse
    /// adjacency mirrors the heaps.
    fn audit(engine: &OnlineKnn) {
        let n = engine.num_users() as UserId;
        for u in 0..n {
            for v in 0..n {
                if u == v {
                    continue;
                }
                let shared = intersect_count(
                    engine.data().profile(u).items,
                    engine.data().profile(v).items,
                );
                assert_eq!(
                    engine.counters[u as usize].get(v) as usize,
                    shared,
                    "counter ({u}, {v})"
                );
            }
            for e in engine.heaps[u as usize].iter() {
                let fresh = engine
                    .config()
                    .metric
                    .eval(engine.data().profile(u), engine.data().profile(e.id));
                assert!(
                    (e.sim - fresh).abs() < 1e-12,
                    "stale sim on edge {u} -> {}: stored {} fresh {fresh}",
                    e.id,
                    e.sim
                );
                assert!(
                    engine.reverse.contains(u, e.id),
                    "reverse lacks {u} -> {}",
                    e.id
                );
            }
            for w in engine.reverse.in_neighbors(u) {
                assert!(
                    engine.heaps[w as usize].contains(u),
                    "reverse ghost {w} -> {u}"
                );
            }
        }
    }

    #[test]
    fn seeded_counters_match_single_user_counting() {
        // The live counters must agree with the batch counting phase's
        // single-user unit (`kiff_core::user_candidate_counts`) on the
        // frozen seed dataset.
        let ds = figure2_toy();
        let engine = toy_engine();
        for u in 0..ds.num_users() as UserId {
            let ranked = kiff_core::user_candidate_counts(&ds, u);
            for (v, count) in ranked {
                assert_eq!(engine.shared_count(u, v), count, "pair ({u}, {v})");
            }
        }
    }

    #[test]
    fn seeded_state_matches_batch() {
        let engine = toy_engine();
        audit(&engine);
        // Alice's nearest neighbour is Bob, as in the batch quick start.
        assert_eq!(engine.neighbors(0)[0].id, 1);
        assert_eq!(engine.neighbors(2)[0].id, 3);
    }

    #[test]
    fn add_rating_connects_new_pairs() {
        let mut engine = toy_engine();
        // Carl(2) picks up coffee(1): Carl now shares items with Alice and
        // Bob, who were unreachable before.
        let stats = engine.apply(Update::AddRating {
            user: 2,
            item: 1,
            rating: 1.0,
        });
        assert_eq!(stats.updates, 1);
        assert!(stats.sim_evals > 0);
        assert!(stats.counter_adjustments >= 4, "two new sharing pairs");
        audit(&engine);
        let ids: Vec<UserId> = engine.neighbors(2).iter().map(|nb| nb.id).collect();
        assert!(
            ids.contains(&0) || ids.contains(&1),
            "coffee drinkers found"
        );
    }

    #[test]
    fn remove_rating_severs_pairs() {
        let mut engine = toy_engine();
        // Bob(1) drops coffee(1): Alice and Bob now share nothing, so the
        // edge between them must disappear from both heaps.
        let stats = engine.apply(Update::RemoveRating { user: 1, item: 1 });
        assert!(stats.edits.removals > 0);
        audit(&engine);
        assert!(!engine.neighbors(0).iter().any(|nb| nb.id == 1));
        assert!(!engine.neighbors(1).iter().any(|nb| nb.id == 0));
        // Removing it again is a no-op.
        let stats = engine.apply(Update::RemoveRating { user: 1, item: 1 });
        assert_eq!(stats.sim_evals, 0);
        assert_eq!(stats.counter_adjustments, 0);
    }

    #[test]
    fn reinforcement_refreshes_similarity() {
        let mut engine = toy_engine();
        let before = engine.neighbors(0)[0].sim;
        // Alice re-rates coffee: her norm grows, every incident cosine
        // changes, but no counter moves.
        let stats = engine.apply(Update::AddRating {
            user: 0,
            item: 1,
            rating: 3.0,
        });
        assert_eq!(stats.counter_adjustments, 0);
        assert!(stats.edits.reprioritized > 0);
        audit(&engine);
        assert!((engine.neighbors(0)[0].sim - before).abs() > 1e-9);
    }

    #[test]
    fn new_user_streams_into_the_graph() {
        let mut engine = toy_engine();
        let u = engine.add_user();
        assert_eq!(u, 4);
        assert!(engine.neighbors(u).is_empty());
        engine.apply(Update::AddRating {
            user: u,
            item: 3,
            rating: 1.0,
        });
        audit(&engine);
        // The newcomer shares shopping with Carl and Dave.
        let ids: Vec<UserId> = engine.neighbors(u).iter().map(|nb| nb.id).collect();
        assert_eq!(ids, vec![2, 3]);
        // And is discoverable from their side.
        assert!(engine.neighbors(2).iter().any(|nb| nb.id == u));
    }

    #[test]
    fn implicit_user_growth_on_add_rating() {
        let mut engine = toy_engine();
        engine.apply(Update::AddRating {
            user: 6,
            item: 0,
            rating: 1.0,
        });
        assert_eq!(engine.num_users(), 7, "users 4..=6 created");
        audit(&engine);
        assert!(
            engine.neighbors(6).iter().any(|nb| nb.id == 0),
            "shares book"
        );
    }

    #[test]
    fn batch_equals_sequential_on_final_state() {
        let updates = vec![
            Update::AddRating {
                user: 2,
                item: 1,
                rating: 1.0,
            },
            Update::AddRating {
                user: 0,
                item: 2,
                rating: 2.0,
            },
            Update::RemoveRating { user: 3, item: 3 },
        ];
        let mut sequential = toy_engine();
        for u in updates.clone() {
            sequential.apply(u);
        }
        let mut batched = toy_engine();
        let stats = batched.apply_batch(updates);
        assert_eq!(stats.updates, 3);
        audit(&sequential);
        audit(&batched);
        for u in 0..sequential.num_users() as UserId {
            assert_eq!(
                sequential.neighbors(u),
                batched.neighbors(u),
                "user {u} diverged"
            );
        }
        // Batching repairs each dirty user once.
        assert!(stats.sim_evals <= sequential.lifetime_stats().sim_evals);
    }

    #[test]
    fn compaction_triggers_and_preserves_state() {
        let mut engine = OnlineKnn::new(
            &figure2_toy(),
            OnlineConfig::new(2).with_compaction_threshold(0.2),
        );
        let stats = engine.apply(Update::AddRating {
            user: 2,
            item: 1,
            rating: 1.0,
        });
        assert!(stats.compacted, "20% threshold trips on the first overlay");
        assert_eq!(engine.data().overlay_users(), 0);
        audit(&engine);
    }

    #[test]
    fn graph_snapshot_is_cached_until_an_edit() {
        let mut engine = toy_engine();
        let first = engine.graph();
        let second = engine.graph();
        assert!(
            Arc::ptr_eq(&first, &second),
            "read-only period must reuse the snapshot"
        );
        // An update with heap edits invalidates the cache...
        let stats = engine.apply(Update::AddRating {
            user: 2,
            item: 1,
            rating: 1.0,
        });
        assert!(stats.edits.total() > 0);
        let third = engine.graph();
        assert!(!Arc::ptr_eq(&first, &third), "edit must invalidate");
        assert!(third.neighbors(2).iter().any(|nb| nb.id == 0 || nb.id == 1));
        // ...and so does a bare user addition (the graph grows a row).
        engine.add_user();
        let fourth = engine.graph();
        assert!(!Arc::ptr_eq(&third, &fourth));
        assert_eq!(fourth.num_users(), engine.num_users());
    }

    #[test]
    fn dataset_materialization_is_cached_until_a_mutation() {
        let mut engine = toy_engine();
        let first = engine.dataset();
        let second = engine.dataset();
        assert!(
            Arc::ptr_eq(&first, &second),
            "read-only period must reuse the materialized dataset"
        );
        // Any rating mutation invalidates — even a reinforcement that
        // edits no graph edge still changes the dataset contents.
        engine.apply(Update::AddRating {
            user: 0,
            item: 1,
            rating: 3.0,
        });
        let third = engine.dataset();
        assert!(!Arc::ptr_eq(&first, &third), "mutation must invalidate");
        assert_eq!(
            third.user_profile(0).rating(1),
            engine.data().profile(0).rating(1),
            "rematerialization reflects the reinforced rating"
        );
        // A bare user addition grows the materialized dataset too.
        engine.add_user();
        let fourth = engine.dataset();
        assert!(!Arc::ptr_eq(&third, &fourth));
        assert_eq!(fourth.num_users(), engine.num_users());
    }

    #[test]
    fn telemetry_mirrors_update_stats() {
        let registry = kiff_telemetry::Registry::new();
        let mut engine = OnlineKnn::new(
            &figure2_toy(),
            OnlineConfig::new(2).with_telemetry(registry.clone()),
        );
        let stats = engine.apply(Update::AddRating {
            user: 2,
            item: 1,
            rating: 1.0,
        });
        let snap = registry.snapshot();
        assert_eq!(snap.counter("online.sims"), Some(stats.sim_evals));
        assert_eq!(snap.histogram("online.apply_ns").unwrap().count, 1);
        assert_eq!(
            snap.histogram("online.repair_ns").unwrap().count,
            stats.repaired_users
        );
        // Repair scoring flows through the instrumented workspace.
        assert!(snap.counter("similarity.scores").unwrap_or(0) >= stats.sim_evals);
        // A disabled registry records nothing but repairs identically.
        let off = kiff_telemetry::Registry::disabled();
        let mut quiet = OnlineKnn::new(
            &figure2_toy(),
            OnlineConfig::new(2).with_telemetry(off.clone()),
        );
        let stats2 = quiet.apply(Update::AddRating {
            user: 2,
            item: 1,
            rating: 1.0,
        });
        assert_eq!(stats2.sim_evals, stats.sim_evals);
        assert_eq!(off.snapshot().counter("online.sims"), Some(0));
    }

    #[test]
    fn lifetime_stats_accumulate() {
        let mut engine = toy_engine();
        engine.apply(Update::AddRating {
            user: 2,
            item: 1,
            rating: 1.0,
        });
        engine.apply(Update::RemoveRating { user: 2, item: 1 });
        let life = engine.lifetime_stats();
        assert_eq!(life.updates, 2);
        assert!(life.sim_evals >= 2);
    }
}
