//! The online engine: a live KNN graph under streaming mutations,
//! partitioned across user shards and repaired in parallel.
//! [`OnlineKnn`](crate::OnlineKnn) is its one-shard configuration.
//!
//! State per user: the live profile (in the [`DeltaDataset`] overlay), a
//! [`SparseCounter`] of shared items with every co-rater (the live,
//! unpivoted RCS of §II-C), a [`KnnHeap`] of current neighbours, and the
//! in-neighbour set tying the heaps together. One batch flows through
//! three steps:
//!
//! 1. **mutate** — the dataset view changes; only the co-raters of the
//!    touched item get their shared-item counters adjusted (the
//!    incremental counting phase).
//! 2. **repair** — each updated user is re-scored against the co-raters
//!    its mutations touched (capped at `repair_width`, best live shared
//!    counts first, ties to the lower id), its refreshed RCS prefix (top
//!    `repair_width` by live count) and its current and reverse
//!    neighbours, because every stored similarity involving the user is
//!    stale after a profile change. One item-at-a-time pass scores all
//!    the candidates: it walks the user's items and each item's live
//!    raters once, rather than every candidate's whole profile (see
//!    `crate::scoring`), and equals [`OnlineMetric::eval`] bit for bit.
//! 3. **propagate** — any user whose neighbourhood *degraded* (an edge
//!    removed, or a stored similarity revised downwards) is enqueued and
//!    repaired in turn, Debatty-style, until no heap changes or the
//!    propagation budget is exhausted.
//!
//! KIFF's per-user decomposition means all of this state splits along
//! user boundaries, which the engine exploits to scale `apply_batch`
//! throughput with cores:
//!
//! * **Partitioning** — every user belongs to exactly one shard, decided
//!   by a multiplicative hash of its id when it is admitted and never
//!   changed afterwards. A shard privately owns its users' counters,
//!   heaps and in-neighbour sets.
//! * **Serial mutate, parallel repair** — dataset mutations are applied
//!   serially, and every counter adjustment is *pre-bucketed* to its
//!   owning shard while the mutation's point-in-time rater list is in
//!   hand; the expensive phases — counter maintenance (each shard applies
//!   exactly its own bucket, no scan of the batch's full event list) and
//!   similarity re-scoring — run on all shards concurrently through
//!   [`kiff_parallel::parallel_for_each_mut`], with every worker reading
//!   the shared dataset through a shared `&DeltaDataset`.
//! * **Asynchronous cross-shard repair** — a repair of user `u` may
//!   evaluate a pair `(u, v)` whose other endpoint lives on another
//!   shard, and `v`'s heap (plus the reverse-edge set of any user `u`'s
//!   heap edits touch) belongs to that shard alone. Instead of locking,
//!   the owning shard is sent a `ShardMsg` through per-shard message
//!   queues; messages are drained at the start of the next repair round,
//!   so a shard never blocks on another shard's heaps. Rounds repeat
//!   until every queue and inbox is empty (quiescence), which a batch
//!   always reaches: repairs are budget-bounded and bookkeeping messages
//!   generate no further work.
//!
//! Counters stay exact at every shard count, and the graph is eventually
//! consistent with a bounded repair radius. Replay is deterministic:
//! snapshot plus replay reproduces an uninterrupted run exactly. Across
//! shard counts the order in which cross-shard scores land differs, so a
//! property test (`tests/sharded_equivalence.rs`) holds 2- and 4-shard
//! replays to within ε of the one-shard replay's recall.

use std::collections::VecDeque;
use std::sync::Arc;

use kiff_collections::{FxHashMap, FxHashSet, SparseCounter};
use kiff_core::{build_rcs, CountingConfig, Kiff, KiffConfig, KiffError};
use kiff_dataset::{Dataset, DeltaDataset, FrozenDelta, ItemId, UserId};
use kiff_graph::{HeapChange, KnnGraph, KnnHeap, Neighbor, ShardReverse};
use kiff_parallel::{effective_threads, parallel_for_each_mut};
use kiff_similarity as sim;
use kiff_telemetry::{Counter, Gauge, Histogram, Registry};

use crate::config::{OnlineConfig, OnlineMetric, MAX_PROPAGATION};
use crate::scoring::RepairScorer;
use crate::snapshot::ClockCache;
use crate::update::{Update, UpdateStats};

/// The shard (in `0..num_shards`) owning `user`: a Fibonacci
/// multiplicative hash of the id, which spreads dense id ranges (ids are
/// admission order) evenly across shards with no state. Placement by
/// co-rating community was measured against it on a stream and lost on
/// updates per second: it balanced users, not repair work.
fn home_shard(user: UserId, num_shards: usize) -> usize {
    (user.wrapping_mul(0x9E37_79B9) >> 16) as usize % num_shards
}

/// Sharding knobs of the [`ShardedOnlineKnn`] engine.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of shards users are partitioned across.
    pub num_shards: usize,
    /// Worker threads driving the shards (`None` = all available). More
    /// threads than shards is never useful; the engine caps internally.
    pub threads: Option<usize>,
}

impl ShardConfig {
    /// `num_shards` shards on all available threads. Users are placed by
    /// a hash of their id.
    pub fn new(num_shards: usize) -> Self {
        assert!(num_shards > 0, "num_shards must be positive");
        Self {
            num_shards,
            threads: None,
        }
    }

    /// Sets the worker thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }
}

/// Where a user lives: its shard and its dense slot within that shard.
#[derive(Debug, Clone, Copy)]
struct Slot {
    shard: u32,
    idx: u32,
}

/// One cross-shard message. Every variant is applied by the shard owning
/// the user it names, at the start of the next repair round.
#[derive(Debug, Clone, Copy)]
enum ShardMsg {
    /// A similarity freshly evaluated by another shard's repair; `owner`
    /// is ours, and the value must land on its heap exactly as a local
    /// evaluation would.
    Scored {
        owner: UserId,
        other: UserId,
        sim: f64,
    },
    /// The KNN edge `source → target` appeared on `source`'s shard;
    /// `target` is ours and its in-neighbour set must record it.
    ReverseAdd { target: UserId, source: UserId },
    /// The KNN edge `source → target` was retracted on `source`'s shard.
    ReverseRemove { target: UserId, source: UserId },
}

/// One counter adjustment owned by a specific shard, bucketed serially at
/// mutation time — rater sets are point-in-time — so the parallel counter
/// phase applies exactly its own bucket instead of every shard scanning
/// the batch's full event list (the ROADMAP's high-shard-count
/// follow-up).
///
/// Each shard holds ONE list, pushed in event order and applied in that
/// order: counts may dip through zero transiently within a batch (an add
/// from one update funding a sub from a later one), so per-counter
/// operation order must match the mutation order — a phase split (all
/// bulks, then all scatters) would panic `SparseCounter::sub` on exactly
/// those interleavings.
///
/// The two sides of each `(user, rater)` pair have different shapes: the
/// mutated user's own counter absorbs the *whole* rater list (one
/// [`CounterAdj::Bulk`] sharing the mutation's `Arc`'d snapshot — no
/// per-pair memory, even for hot items), while each rater's counter lives
/// on its own shard and gets one [`CounterAdj::Scatter`] entry.
#[derive(Debug)]
enum CounterAdj {
    /// The mutated user's counter gains (or loses) one shared item with
    /// every user in `raters`.
    Bulk {
        /// Local slot of the mutated user's counter.
        slot: u32,
        /// Point-in-time co-rater snapshot (shared with the repair
        /// extras).
        raters: Arc<Vec<UserId>>,
        /// Increment (a rating appeared) or decrement (one was removed).
        added: bool,
    },
    /// One rater-side adjustment: the counter at local slot `slot` gains
    /// (or loses) one shared item with `other`.
    Scatter {
        /// Local slot of the owned counter.
        slot: u32,
        /// The co-rater whose shared count moves.
        other: UserId,
        /// Increment (a rating appeared) or decrement (one was removed).
        added: bool,
    },
}

/// One in this many repairs is timed into `shard.N.repair_ns`, and its
/// stages into `shard.N.{gather,score,land}_ns`. Repair latency is the
/// hottest per-event instrument in the stack; sampling keeps the
/// enabled-registry cost inside the telemetry bench's 3% overhead gate
/// while a uniform 1-in-8 sample still estimates the same latency
/// distribution (and its p99).
const SPAN_SAMPLE: u64 = 8;

/// A shard: the private online-engine state of the users it owns.
#[derive(Debug, Default)]
struct Shard {
    /// Global ids of owned users, by local slot.
    users: Vec<UserId>,
    /// Live shared-item counters of owned users (keys are global ids).
    counters: Vec<SparseCounter>,
    /// Neighbour heaps of owned users.
    heaps: Vec<KnnHeap>,
    /// Mutation-clock stamp of each owned heap's last edit.
    stamps: Vec<u64>,
    /// The engine's mutation clock for this batch, stamped on edits.
    clock: u64,
    /// In-neighbour sets of owned users (sources are global ids).
    incoming: ShardReverse,
    /// Owned users awaiting repair this batch.
    queue: VecDeque<UserId>,
    /// Targeted repair candidates for queued users, as shared
    /// point-in-time rater snapshots (one chunk per mutation).
    extras: FxHashMap<UserId, Vec<Arc<Vec<UserId>>>>,
    /// Owned users already repaired this batch.
    visited: FxHashSet<UserId>,
    /// Repairs performed this batch, against `budget`.
    repaired: u64,
    /// Repair budget for this batch (dirty users + propagation cap).
    budget: u64,
    /// Work accounting for this batch, merged into the engine's stats.
    stats: UpdateStats,
    /// Messages awaiting application by this shard.
    inbox: Vec<ShardMsg>,
    /// Messages produced this round, by destination shard.
    outbox: Vec<Vec<ShardMsg>>,
    /// `shard.N.cross_messages`: cross-shard messages sent over the
    /// shard's lifetime — the single source of truth for cross-traffic;
    /// [`ShardedOnlineKnn::shard_cross_traffic`] and the per-batch
    /// [`UpdateStats::cross_messages`] delta both read it.
    /// Flushed in bulk at batch end, before any of those reads.
    cross_messages: Counter,
    /// Messages sent this batch, not yet flushed into `cross_messages`:
    /// [`Shard::send`] sits inside the repair loop, so it bumps this
    /// plain field and phase 4 publishes the batch's total in one `add`.
    pending_cross: u64,
    /// `shard.N.repairs`: single-user repairs performed (lifetime).
    /// Flushed in bulk at batch end — exact at every snapshot point but
    /// never touched inside the repair loop.
    tele_repairs: Counter,
    /// `online.sims`: similarity evaluations, shared with every other
    /// shard (same registry cell), mirroring the engine-wide
    /// `UpdateStats::sim_evals` total. Flushed in bulk at batch end.
    tele_sims: Counter,
    /// `similarity.scores`: the same evaluations, counted beside the
    /// batch build's and the baselines' scores. Flushed with `tele_sims`.
    tele_scores: Counter,
    /// `shard.N.drain_ns`: the inbox drain that opens every repair
    /// round (reverse-edge edits and scores landed from other shards).
    drain_ns: Histogram,
    /// `shard.N.repair_ns`: repair wall-clock latency, sampled 1 in
    /// [`SPAN_SAMPLE`] repairs.
    repair_ns: Histogram,
    /// `shard.N.gather_ns`: the candidate gathering of the same sampled
    /// repairs (the targeted cap, the prefix, the heap and reverse sets,
    /// sort and dedup).
    gather_ns: Histogram,
    /// `shard.N.score_ns`: the scoring stage of the same sampled
    /// repairs.
    score_ns: Histogram,
    /// `shard.N.land_ns`: the landing of the same sampled repairs' scores
    /// on the heaps, local or by message.
    land_ns: Histogram,
    /// `shard.N.queue_depth`: repair-queue depth at the last round end.
    queue_depth: Gauge,
    /// Item-at-a-time scoring scratch for this shard's repairs.
    scorer: RepairScorer,
    /// Reusable repair staging buffer of `(candidate, similarity)`.
    scored: Vec<(UserId, f64)>,
}

impl Shard {
    fn new(num_shards: usize, my: usize, tele: &Registry) -> Self {
        Self {
            outbox: vec![Vec::new(); num_shards],
            cross_messages: tele.counter(&format!("shard.{my}.cross_messages")),
            tele_repairs: tele.counter(&format!("shard.{my}.repairs")),
            tele_sims: tele.counter("online.sims"),
            tele_scores: tele.counter("similarity.scores"),
            drain_ns: tele.histogram(&format!("shard.{my}.drain_ns")),
            repair_ns: tele.histogram(&format!("shard.{my}.repair_ns")),
            gather_ns: tele.histogram(&format!("shard.{my}.gather_ns")),
            score_ns: tele.histogram(&format!("shard.{my}.score_ns")),
            land_ns: tele.histogram(&format!("shard.{my}.land_ns")),
            queue_depth: tele.gauge(&format!("shard.{my}.queue_depth")),
            ..Self::default()
        }
    }

    /// Admits a user at mutation clock `clock`, returning its local slot.
    fn push_user(&mut self, k: usize, user: UserId, clock: u64) -> u32 {
        let idx = self.users.len() as u32;
        self.users.push(user);
        self.counters.push(SparseCounter::new());
        self.heaps.push(KnnHeap::new(k));
        self.stamps.push(clock);
        self.incoming.push_slot();
        idx
    }

    /// Whether this shard still has work queued this round.
    fn has_work(&self) -> bool {
        !self.inbox.is_empty() || !self.queue.is_empty()
    }

    /// Queues a cross-shard message, counting it toward the shard's
    /// cross-traffic (`shard.N.cross_messages`).
    fn send(&mut self, dest: usize, msg: ShardMsg) {
        self.outbox[dest].push(msg);
        self.pending_cross += 1;
    }

    /// Applies this shard's pre-bucketed counter adjustments — exactly the
    /// ones it owns, in mutation order (see [`CounterAdj`] on why the
    /// order matters).
    fn apply_counter_adjustments(&mut self, bucket: &[CounterAdj]) {
        for adj in bucket {
            match adj {
                CounterAdj::Bulk {
                    slot,
                    raters,
                    added,
                } => {
                    let counter = &mut self.counters[*slot as usize];
                    for &v in raters.iter() {
                        if *added {
                            counter.add(v);
                        } else {
                            counter.sub(v);
                        }
                    }
                    self.stats.counter_adjustments += raters.len() as u64;
                }
                CounterAdj::Scatter { slot, other, added } => {
                    let counter = &mut self.counters[*slot as usize];
                    if *added {
                        counter.add(*other);
                    } else {
                        counter.sub(*other);
                    }
                    self.stats.counter_adjustments += 1;
                }
            }
        }
    }

    /// One repair round: drain the inbox, then repair queued users within
    /// the batch budget, emitting cross-shard messages into the outbox.
    fn step(&mut self, my: u32, data: &DeltaDataset, assign: &[Slot], config: &OnlineConfig) {
        // One pass in message order: a reverse edit names a pair whose
        // source lives on another shard, while landing a score here only
        // mirrors pairs whose source is ours, so the two never touch the
        // same pair.
        let drain_span = self.drain_ns.span();
        for msg in std::mem::take(&mut self.inbox) {
            match msg {
                ShardMsg::ReverseAdd { target, source } => {
                    self.incoming
                        .add(assign[target as usize].idx as usize, source);
                }
                ShardMsg::ReverseRemove { target, source } => {
                    self.incoming
                        .remove(assign[target as usize].idx as usize, source);
                }
                ShardMsg::Scored { owner, other, sim } => {
                    self.land(my, owner, other, sim, assign);
                }
            }
        }
        drain_span.finish();
        while self.repaired < self.budget {
            let Some(u) = self.queue.pop_front() else {
                break;
            };
            if !self.visited.insert(u) {
                continue;
            }
            self.repaired += 1;
            let targeted = self.extras.remove(&u).unwrap_or_default();
            // Time 1 in SPAN_SAMPLE repairs: a clock pair plus a
            // histogram record on *every* repair is measurable against
            // the telemetry bench's 3% overhead gate, while the p99 of
            // a uniform sample estimates the same distribution. The
            // repairs counter itself stays exact — it is flushed in
            // bulk at batch end alongside the sims counter.
            if self.sampled() {
                let span = self.repair_ns.span();
                self.repair(my, u, targeted, data, assign, config);
                span.finish();
            } else {
                self.repair(my, u, targeted, data, assign, config);
            }
        }
        if self.repaired >= self.budget {
            // Budget exhausted: drop the remaining cascade.
            self.queue.clear();
            self.extras.clear();
        }
        self.queue_depth.set(self.queue.len() as i64);
    }

    /// Whether the repair under way is one of the 1 in [`SPAN_SAMPLE`]
    /// that are timed.
    fn sampled(&self) -> bool {
        self.repaired % SPAN_SAMPLE == 1
    }

    /// Re-scores `u` (owned) against its targeted candidates, refreshed
    /// counter prefix, current neighbours and in-neighbours.
    fn repair(
        &mut self,
        my: u32,
        u: UserId,
        targeted: Vec<Arc<Vec<UserId>>>,
        data: &DeltaDataset,
        assign: &[Slot],
        config: &OnlineConfig,
    ) {
        let sampled = self.sampled();
        let gather_span = sampled.then(|| self.gather_ns.span());
        let slot = assign[u as usize].idx as usize;
        let mut candidates: Vec<UserId> =
            Vec::with_capacity(targeted.iter().map(|c| c.len()).sum());
        for chunk in &targeted {
            candidates.extend_from_slice(chunk);
        }
        if candidates.len() > config.repair_width {
            // Deferred from the serial mutate phase: by now the counter
            // phase has run, so live counts rank the touched co-raters.
            // The id tie-break makes the kept set independent of the
            // rater order, which differs between a live overlay and a
            // compacted (or snapshot-restored) base: without it,
            // snapshot + replay keeps other tied candidates than the
            // uninterrupted run.
            let counter = &self.counters[slot];
            candidates.select_nth_unstable_by_key(config.repair_width, |&v| {
                (std::cmp::Reverse(counter.get(v)), v)
            });
            candidates.truncate(config.repair_width);
        }
        candidates.extend(self.heaps[slot].ids());
        candidates.extend(self.incoming.in_neighbors(slot));
        candidates.extend(
            self.counters[slot]
                .top_by_count(config.repair_width)
                .into_iter()
                .map(|(v, _)| v),
        );
        candidates.sort_unstable();
        candidates.dedup();
        if let Ok(pos) = candidates.binary_search(&u) {
            candidates.remove(pos);
        }
        drop(gather_span);
        // Item-at-a-time scoring (see `crate::scoring`): one walk over
        // `u`'s items and their live raters scores every candidate,
        // equal to `config.metric.eval` bit for bit.
        let mut scored = std::mem::take(&mut self.scored);
        scored.clear();
        {
            let _span = sampled.then(|| self.score_ns.span());
            self.scorer
                .score(config.metric, data, u, &candidates, &mut scored);
        }
        self.stats.sim_evals += scored.len() as u64;
        let _land_span = sampled.then(|| self.land_ns.span());
        for &(v, s) in &scored {
            self.land(my, u, v, s, assign);
            let vslot = assign[v as usize];
            if vslot.shard == my {
                self.land(my, v, u, s, assign);
            } else {
                self.send(
                    vslot.shard as usize,
                    ShardMsg::Scored {
                        owner: v,
                        other: u,
                        sim: s,
                    },
                );
            }
        }
        self.scored = scored;
    }

    /// Lands an evaluated similarity on `owner`'s heap (`owner` is always
    /// ours), routing reverse-edge edits to the shard owning the other
    /// endpoint and enqueueing `owner` again when its neighbourhood
    /// degraded. Each branch that edits the heap stamps its row.
    fn land(&mut self, my: u32, owner: UserId, other: UserId, s: f64, assign: &[Slot]) {
        let slot = assign[owner as usize].idx as usize;
        if s <= 0.0 {
            if self.heaps[slot].remove(other) {
                self.stamps[slot] = self.clock;
                self.retract_reverse(my, owner, other, assign);
                self.stats.edits.removals += 1;
                if !self.visited.contains(&owner) {
                    self.queue.push_back(owner);
                }
            }
        } else if let Some(old) = self.heaps[slot].reprioritize(other, s) {
            if old != s {
                self.stamps[slot] = self.clock;
                self.stats.edits.reprioritized += 1;
                if s < old && !self.visited.contains(&owner) {
                    self.queue.push_back(owner);
                }
            }
        } else if let HeapChange::Inserted { evicted } = self.heaps[slot].offer(s, other) {
            self.stamps[slot] = self.clock;
            self.stats.edits.inserts += 1;
            self.record_reverse(my, owner, other, assign);
            if let Some(e) = evicted {
                self.retract_reverse(my, owner, e, assign);
                self.stats.edits.evictions += 1;
            }
        }
    }

    /// Records `source → target` in the in-neighbour set of `target`,
    /// locally or by message.
    fn record_reverse(&mut self, my: u32, source: UserId, target: UserId, assign: &[Slot]) {
        let tslot = assign[target as usize];
        if tslot.shard == my {
            self.incoming.add(tslot.idx as usize, source);
        } else {
            self.send(
                tslot.shard as usize,
                ShardMsg::ReverseAdd { target, source },
            );
        }
    }

    /// Retracts `source → target` from the in-neighbour set of `target`,
    /// locally or by message.
    fn retract_reverse(&mut self, my: u32, source: UserId, target: UserId, assign: &[Slot]) {
        let tslot = assign[target as usize];
        if tslot.shard == my {
            self.incoming.remove(tslot.idx as usize, source);
        } else {
            self.send(
                tslot.shard as usize,
                ShardMsg::ReverseRemove { target, source },
            );
        }
    }
}

/// A KNN graph maintained incrementally by a pool of user shards.
///
/// Apply updates, read neighbourhoods, snapshot the graph; `apply_batch`
/// distributes repair across shards and threads. Construct via
/// [`ShardedOnlineKnn::new`], [`ShardedOnlineKnn::from_graph`],
/// [`ShardedOnlineKnn::from_snapshot`], or the facade's
/// `KnnGraphBuilder::into_sharded`; [`OnlineKnn`](crate::OnlineKnn)
/// builds the one-shard configuration.
#[derive(Debug)]
pub struct ShardedOnlineKnn {
    config: OnlineConfig,
    shard_config: ShardConfig,
    data: DeltaDataset,
    /// Shard/slot of every user, fixed at admission: the shard is
    /// [`home_shard`], the slot its admission order on that shard.
    assign: Vec<Slot>,
    shards: Vec<Shard>,
    lifetime: UpdateStats,
    /// Mutation clock: ticks at every mutation entry point; shards stamp
    /// edited rows with it.
    clock: u64,
    /// [`ShardedOnlineKnn::graph`] snapshot, tagged with the clock.
    graph_snapshot: ClockCache<KnnGraph>,
    /// [`ShardedOnlineKnn::dataset`] capture, tagged with the dataset
    /// version.
    dataset_snapshot: ClockCache<FrozenDelta>,
    /// `online.apply_ns`: wall-clock of each `apply_batch` call.
    apply_ns: Histogram,
    /// `online.repair_round_ns`: wall-clock of each parallel repair
    /// round (inbox drain + budgeted repairs across all shards).
    repair_round_ns: Histogram,
    /// `online.mutate_ns`: phase 1 of each `apply_batch` call.
    mutate_ns: Histogram,
    /// `online.counters_ns`: phase 2 of each `apply_batch` call.
    counters_ns: Histogram,
}

impl ShardedOnlineKnn {
    /// Builds the initial graph with batch KIFF, then shards it for
    /// streaming.
    pub fn new(dataset: &Dataset, config: OnlineConfig, shards: ShardConfig) -> Self {
        let graph = batch_graph(dataset, config.k, config.metric);
        Self::from_graph(dataset, &graph, config, shards)
    }

    /// Shards an already-built graph (any construction algorithm) for
    /// streaming. The live shared-item counters are seeded from one
    /// unpivoted batch counting pass.
    pub fn from_graph(
        dataset: &Dataset,
        graph: &KnnGraph,
        config: OnlineConfig,
        shard_config: ShardConfig,
    ) -> Self {
        assert_eq!(
            graph.num_users(),
            dataset.num_users(),
            "graph and dataset disagree on the user count"
        );
        let rcs = build_rcs(
            dataset,
            &CountingConfig {
                pivot: false,
                keep_counts: true,
                ..Default::default()
            },
        );
        let counters = (0..dataset.num_users() as UserId)
            .map(|u| {
                let ids = rcs.rcs(u);
                let counts = rcs.counts(u).expect("keep_counts set");
                let mut counter = SparseCounter::with_capacity(ids.len());
                for (&v, &c) in ids.iter().zip(counts) {
                    counter.add_n(v, c);
                }
                counter
            })
            .collect();
        Self::assemble(dataset, graph, counters, config, shard_config)
    }

    /// Restores an engine from persisted state: the compacted dataset, the
    /// graph snapshot, and the exported shared-item counters (see
    /// [`ShardedOnlineKnn::counters_snapshot`]) — pure deserialization, no
    /// counting pass, which is what makes snapshot recovery beat a
    /// rebuild by a wide margin. The rows do not depend on the shard
    /// layout, so any shard configuration restores any snapshot.
    ///
    /// Validates that the three sections agree on the user count and that
    /// counter keys stay in range; inconsistencies surface as
    /// [`KiffError::Corrupt`].
    pub fn from_snapshot(
        dataset: &Dataset,
        graph: &KnnGraph,
        counter_rows: Vec<Vec<(UserId, u32)>>,
        config: OnlineConfig,
        shard_config: ShardConfig,
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
        Ok(Self::assemble(
            dataset,
            graph,
            counters,
            config,
            shard_config,
        ))
    }

    /// Exports the live shared-item counters as per-user `(co_rater,
    /// count)` rows, in user-id order whatever the shard layout, each
    /// sorted by co-rater id — the deterministic form the snapshot codec
    /// persists and [`ShardedOnlineKnn::from_snapshot`] accepts.
    pub fn counters_snapshot(&self) -> Vec<Vec<(UserId, u32)>> {
        self.assign
            .iter()
            .map(|slot| {
                let counter = &self.shards[slot.shard as usize].counters[slot.idx as usize];
                let mut row: Vec<(UserId, u32)> = counter.iter().collect();
                row.sort_unstable_by_key(|&(v, _)| v);
                row
            })
            .collect()
    }

    /// Shared tail of the constructors: places every user on its shard
    /// with its counter (`counters[u]`) and its graph-seeded heap, then
    /// mirrors the heaps into the owning shards' in-neighbour sets.
    fn assemble(
        dataset: &Dataset,
        graph: &KnnGraph,
        counters: Vec<SparseCounter>,
        config: OnlineConfig,
        shard_config: ShardConfig,
    ) -> Self {
        let num_shards = shard_config.num_shards;
        let mut shards: Vec<Shard> = (0..num_shards)
            .map(|s| Shard::new(num_shards, s, &config.telemetry))
            .collect();
        let mut assign = Vec::with_capacity(counters.len());
        for (u, counter) in (0..).zip(counters) {
            let s = home_shard(u, num_shards);
            let shard = &mut shards[s];
            let idx = shard.push_user(config.k, u, 1);
            assign.push(Slot {
                shard: s as u32,
                idx,
            });
            let slot = idx as usize;
            shard.counters[slot] = counter;
            for nb in graph.neighbors(u) {
                shard.heaps[slot].update(nb.sim, nb.id);
            }
        }
        let tele = &config.telemetry;
        let apply_ns = tele.histogram("online.apply_ns");
        let repair_round_ns = tele.histogram("online.repair_round_ns");
        let mutate_ns = tele.histogram("online.mutate_ns");
        let counters_ns = tele.histogram("online.counters_ns");
        let mut engine = Self {
            config,
            shard_config,
            data: DeltaDataset::new(dataset.clone()),
            assign,
            shards,
            lifetime: UpdateStats::default(),
            clock: 1,
            graph_snapshot: ClockCache::new(),
            dataset_snapshot: ClockCache::new(),
            apply_ns,
            repair_round_ns,
            mutate_ns,
            counters_ns,
        };
        // Mirror from the heaps, not from `graph`: the heap capacity may
        // be smaller than the snapshot's k.
        for u in 0..engine.assign.len() as UserId {
            let slot = engine.assign[u as usize];
            for id in engine.shards[slot.shard as usize].heaps[slot.idx as usize].ids() {
                let t = engine.assign[id as usize];
                engine.shards[t.shard as usize]
                    .incoming
                    .add(t.idx as usize, u);
            }
        }
        engine
    }

    /// The engine's online configuration.
    pub fn config(&self) -> &OnlineConfig {
        &self.config
    }

    /// The engine's sharding configuration.
    pub fn shard_config(&self) -> &ShardConfig {
        &self.shard_config
    }

    /// Neighbourhood size `k`.
    pub fn k(&self) -> usize {
        self.config.k
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
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

    /// The shard owning `u`.
    pub fn shard_of(&self, u: UserId) -> usize {
        self.assign[u as usize].shard as usize
    }

    /// Users owned per shard.
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.users.len()).collect()
    }

    /// Cross-shard messages each shard has sent over its lifetime — the
    /// per-shard cross-traffic signal; high senders are poorly co-located
    /// with their users' neighbours. Read from the `shard.N.cross_messages`
    /// telemetry counters (reads 0 when the engine was built with a
    /// [`kiff_telemetry::Registry::disabled`] registry).
    pub fn shard_cross_traffic(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.cross_messages.get()).collect()
    }

    /// Total cross-shard messages sent over the engine's lifetime — the
    /// coordination cost of sharding. The sum of
    /// [`ShardedOnlineKnn::shard_cross_traffic`].
    pub fn cross_shard_messages(&self) -> u64 {
        self.shards.iter().map(|s| s.cross_messages.get()).sum()
    }

    /// `u`'s current neighbours, best first.
    pub fn neighbors(&self, u: UserId) -> Vec<Neighbor> {
        let slot = self.assign[u as usize];
        self.shards[slot.shard as usize].heaps[slot.idx as usize].sorted_neighbors()
    }

    /// The live shared-item count `|UP_u ∩ UP_v|` (0 when disjoint), read
    /// from the shard owning `u`.
    pub fn shared_count(&self, u: UserId, v: UserId) -> u32 {
        let slot = self.assign[u as usize];
        self.shards[slot.shard as usize].counters[slot.idx as usize].get(v)
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
                self.shards
                    .iter()
                    .flat_map(|shard| {
                        shard
                            .stamps
                            .iter()
                            .zip(&shard.users)
                            .zip(&shard.heaps)
                            .filter(move |((&stamp, _), _)| stamp > since)
                            .map(|((_, &u), heap)| (u, heap.sorted_neighbors()))
                    })
                    .collect()
            })
    }

    /// Captures the live ratings ([`DeltaDataset::freeze`]): one `Arc`
    /// clone per overlay user per dataset change, with no rating copied,
    /// and the same `Arc` for free between changes.
    pub fn dataset(&self) -> Arc<FrozenDelta> {
        self.dataset_snapshot
            .get(self.data.version(), |_| Arc::new(self.data.freeze()))
    }

    /// Appends a user with an empty profile, returning its id.
    pub fn add_user(&mut self) -> UserId {
        let id = self.data.add_user();
        let s = home_shard(id, self.shards.len());
        self.clock += 1;
        let idx = self.shards[s].push_user(self.config.k, id, self.clock);
        self.assign.push(Slot {
            shard: s as u32,
            idx,
        });
        id
    }

    /// Applies one mutation and repairs the graph around it: a batch of
    /// one. On several shards prefer [`ShardedOnlineKnn::apply_batch`]:
    /// single updates rarely have enough repair work to amortise the
    /// cross-shard coordination.
    pub fn apply(&mut self, update: Update) -> UpdateStats {
        self.apply_batch(std::iter::once(update))
    }

    /// Applies a batch of mutations: serial dataset mutation, then
    /// parallel counter maintenance and repair across shards, with
    /// cross-shard work exchanged through message queues between rounds.
    /// A user touched by many ratings in the batch is re-scored once,
    /// against the batch-final state, which amortises repair.
    pub fn apply_batch(&mut self, updates: impl IntoIterator<Item = Update>) -> UpdateStats {
        let _span = self.apply_ns.span();
        self.clock += 1;
        let mut stats = UpdateStats::default();
        // Lifetime cross-traffic totals before this batch: the per-batch
        // cross_messages figure is the counters' delta across the batch
        // (the counters, not a parallel field, are the source of truth).
        let cross_before: Vec<u64> = self.shards.iter().map(|s| s.cross_messages.get()).collect();
        let mut adjustments: Vec<Vec<CounterAdj>> =
            (0..self.shards.len()).map(|_| Vec::new()).collect();

        // Phase 1 (serial): mutate the dataset view, bucket every counter
        // adjustment by its owning shard while the point-in-time rater set
        // is in hand, and route each dirty user to its owning shard.
        let mutate_span = self.mutate_ns.span();
        for update in updates {
            stats.updates += 1;
            if let Some((user, targeted)) = self.mutate(update, &mut adjustments) {
                let shard = &mut self.shards[self.assign[user as usize].shard as usize];
                match shard.extras.entry(user) {
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        e.get_mut().extend(targeted);
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(targeted.into_iter().collect());
                        shard.queue.push_back(user);
                    }
                }
            }
        }
        mutate_span.finish();

        let threads = effective_threads(self.shard_config.threads).min(self.shards.len());

        for shard in &mut self.shards {
            shard.budget = (shard.queue.len() + MAX_PROPAGATION) as u64;
            shard.clock = self.clock;
        }

        // Phase 2 (parallel): every shard applies exactly its own
        // pre-bucketed counter adjustments.
        let counters_span = self.counters_ns.span();
        parallel_for_each_mut(threads, &mut self.shards, |my, shard| {
            shard.apply_counter_adjustments(&adjustments[my]);
        });
        counters_span.finish();

        // Phase 3 (parallel rounds): repair until quiescence. Each round
        // drains inboxes and queues shard-locally; produced messages are
        // routed between rounds.
        while self.shards.iter().any(Shard::has_work) {
            let round_span = self.repair_round_ns.span();
            let data = &self.data;
            let assign = &self.assign;
            let config = &self.config;
            parallel_for_each_mut(threads, &mut self.shards, |my, shard| {
                shard.step(my as u32, data, assign, config);
            });
            round_span.finish();
            for s in 0..self.shards.len() {
                for d in 0..self.shards.len() {
                    let msgs = std::mem::take(&mut self.shards[s].outbox[d]);
                    self.shards[d].inbox.extend(msgs);
                }
            }
        }

        // Phase 4 (serial): merge accounting, reset per-batch state,
        // re-compact storage if the overlay grew past the threshold.
        for (s, shard) in self.shards.iter_mut().enumerate() {
            // Publish the batch's accumulated telemetry in one add per
            // instrument — shards outlive snapshots, so flushing here
            // (the serial phase) keeps every exported counter exact
            // without a single shared-cell RMW inside the repair loop.
            shard.tele_repairs.add(shard.repaired);
            shard.tele_sims.add(shard.stats.sim_evals);
            shard.tele_scores.add(shard.stats.sim_evals);
            if shard.pending_cross > 0 {
                shard
                    .cross_messages
                    .add(std::mem::take(&mut shard.pending_cross));
            }
            stats.merge(&std::mem::take(&mut shard.stats));
            stats.repaired_users += shard.repaired;
            stats.cross_messages += shard.cross_messages.get() - cross_before[s];
            shard.repaired = 0;
            shard.visited.clear();
        }
        let n = self.data.num_users().max(1);
        if (self.data.overlay_users() as f64) >= self.config.compaction_threshold * n as f64 {
            self.data.compact();
            stats.compacted = true;
        }
        self.lifetime.merge(&stats);
        stats
    }

    /// Step 1: applies one mutation to the dataset view, bucketing its
    /// counter adjustments by owning shard, and returns the dirty user
    /// with its *targeted* candidates: the co-raters of the touched item,
    /// since `sim(user, v)` rose exactly for those `v`. Uncapped: the
    /// owning shard caps them against live counts after the counter
    /// phase. A removal has no targeted candidates: it only lowers
    /// similarities, and every standing edge is already covered by the
    /// heap and reverse sets.
    fn mutate(
        &mut self,
        update: Update,
        adjustments: &mut [Vec<CounterAdj>],
    ) -> Option<(UserId, Option<Arc<Vec<UserId>>>)> {
        match update {
            Update::AddRating { user, item, rating } => {
                while (user as usize) >= self.data.num_users() {
                    self.add_user();
                }
                let raters = Arc::new(self.raters_besides(item, user));
                if self.data.add_rating(user, item, rating) {
                    Self::bucket_adjustments(&self.assign, adjustments, user, &raters, true);
                }
                Some((user, Some(raters)))
            }
            Update::AddUser => {
                self.add_user();
                None
            }
            Update::RemoveRating { user, item } => {
                if (user as usize) >= self.data.num_users() || !self.data.remove_rating(user, item)
                {
                    return None;
                }
                let raters = Arc::new(self.raters_besides(item, user));
                Self::bucket_adjustments(&self.assign, adjustments, user, &raters, false);
                Some((user, None))
            }
        }
    }

    /// The current raters of `item` other than `user`: a copy of the
    /// item's live rater slice, taken while the mutation is in hand.
    fn raters_besides(&self, item: ItemId, user: UserId) -> Vec<UserId> {
        let (raters, _) = self.data.item_row(item);
        raters.iter().copied().filter(|&v| v != user).collect()
    }

    /// Routes both directions of every `(user, rater)` counter adjustment
    /// to the shard owning each endpoint's counter: the user side as one
    /// `Arc`-shared bulk entry, the rater side as per-pair scatters. All
    /// entries land in event order (the caller is the serial mutate loop),
    /// preserving per-counter operation order across the batch.
    fn bucket_adjustments(
        assign: &[Slot],
        adjustments: &mut [Vec<CounterAdj>],
        user: UserId,
        raters: &Arc<Vec<UserId>>,
        added: bool,
    ) {
        let own = assign[user as usize];
        adjustments[own.shard as usize].push(CounterAdj::Bulk {
            slot: own.idx,
            raters: Arc::clone(raters),
            added,
        });
        for &v in raters.iter() {
            let vslot = assign[v as usize];
            adjustments[vslot.shard as usize].push(CounterAdj::Scatter {
                slot: vslot.idx,
                other: user,
                added,
            });
        }
    }

    /// Exhaustively checks the cross-shard invariants (`O(n·k)`; tests
    /// and tools only): every user sits on the shard its id hashes to,
    /// its cached slot maps back to it, every heap edge `u → v` is
    /// mirrored in the in-neighbour set held by `v`'s shard, and every
    /// recorded in-neighbour points back.
    ///
    /// # Panics
    /// Panics on the first violated invariant.
    pub fn validate_invariants(&self) {
        assert_eq!(
            self.shard_sizes().iter().sum::<usize>(),
            self.num_users(),
            "shards and dataset disagree on the user count"
        );
        for u in 0..self.num_users() as UserId {
            let slot = self.assign[u as usize];
            assert_eq!(
                slot.shard as usize,
                home_shard(u, self.shards.len()),
                "user {u} left its home shard"
            );
            let shard = &self.shards[slot.shard as usize];
            assert_eq!(shard.users[slot.idx as usize], u, "slot map corrupt at {u}");
            for id in shard.heaps[slot.idx as usize].ids() {
                let t = self.assign[id as usize];
                assert!(
                    self.shards[t.shard as usize]
                        .incoming
                        .contains(t.idx as usize, u),
                    "edge {u} -> {id} missing from shard {} incoming",
                    t.shard
                );
            }
            for w in shard.incoming.in_neighbors(slot.idx as usize) {
                let ws = self.assign[w as usize];
                assert!(
                    self.shards[ws.shard as usize].heaps[ws.idx as usize].contains(u),
                    "reverse ghost {w} -> {u}"
                );
            }
        }
    }
}

/// Builds the initial batch graph with KIFF under the online metric's
/// batch twin.
fn batch_graph(dataset: &Dataset, k: usize, metric: OnlineMetric) -> KnnGraph {
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
pub(crate) mod tests {
    use super::*;
    use kiff_dataset::dataset::figure2_toy;
    use kiff_similarity::intersect_count;

    fn toy(shards: usize) -> ShardedOnlineKnn {
        ShardedOnlineKnn::new(
            &figure2_toy(),
            OnlineConfig::new(2),
            ShardConfig::new(shards).with_threads(2),
        )
    }

    /// Counter + stored-similarity audit against brute force, plus the
    /// cross-shard invariants.
    pub(crate) fn audit(engine: &ShardedOnlineKnn) {
        engine.validate_invariants();
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
                    engine.shared_count(u, v) as usize,
                    shared,
                    "counter ({u}, {v})"
                );
            }
            for nb in engine.neighbors(u) {
                let fresh = engine
                    .config()
                    .metric
                    .eval(engine.data().profile(u), engine.data().profile(nb.id));
                assert!(
                    (nb.sim - fresh).abs() < 1e-12,
                    "stale sim on edge {u} -> {}: stored {} fresh {fresh}",
                    nb.id,
                    nb.sim
                );
            }
        }
    }

    #[test]
    fn seeded_state_matches_batch_for_any_shard_count() {
        for shards in [1, 2, 3, 8] {
            let engine = toy(shards);
            assert_eq!(engine.num_shards(), shards);
            assert_eq!(engine.shard_sizes().iter().sum::<usize>(), 4);
            audit(&engine);
            assert_eq!(engine.neighbors(0)[0].id, 1, "{shards} shards");
            assert_eq!(engine.neighbors(2)[0].id, 3, "{shards} shards");
        }
    }

    #[test]
    fn add_rating_connects_cross_shard_pairs() {
        // Two shards put Carl(2) and Bob(1) apart on the toy, so the new
        // edges must flow through the message queue.
        let mut engine = toy(2);
        assert_ne!(engine.shard_of(2), engine.shard_of(1));
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
    fn remove_rating_severs_cross_shard_pairs() {
        let mut engine = toy(3);
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
    fn new_users_land_on_their_shard() {
        let mut engine = toy(2);
        let u = engine.add_user();
        assert_eq!(u, 4);
        assert_eq!(
            engine.shard_of(u),
            home_shard(u, 2),
            "id hash decides placement"
        );
        engine.apply(Update::AddRating {
            user: u,
            item: 3,
            rating: 1.0,
        });
        audit(&engine);
        let ids: Vec<UserId> = engine.neighbors(u).iter().map(|nb| nb.id).collect();
        assert_eq!(ids, vec![2, 3]);
        assert!(engine.neighbors(2).iter().any(|nb| nb.id == u));
    }

    #[test]
    fn implicit_user_growth_on_add_rating() {
        let mut engine = toy(2);
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
    fn batched_add_then_remove_interleaves_counter_ops_safely() {
        // Regression: Alice(0) and Carl(2) share nothing initially. In one
        // batch Alice picks up shopping(3) (scattered add on Carl's
        // counter) and Carl then drops shopping (bulk sub on Carl's
        // counter, whose rater snapshot now includes Alice). Applying all
        // bulks before all scatters would sub Carl->Alice at count 0 and
        // panic; event-ordered application must handle it.
        for shards in [1, 2, 4] {
            let mut engine = toy(shards);
            let stats = engine.apply_batch(vec![
                Update::AddRating {
                    user: 0,
                    item: 3,
                    rating: 1.0,
                },
                Update::RemoveRating { user: 2, item: 3 },
            ]);
            assert_eq!(stats.updates, 2, "{shards} shards");
            audit(&engine);
            assert_eq!(engine.shared_count(2, 0), 0, "{shards} shards");
        }
    }

    #[test]
    fn batch_equals_sequential_on_final_neighborhoods() {
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
        let mut sequential = toy(2);
        for u in updates.clone() {
            sequential.apply(u);
        }
        let mut batched = toy(2);
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
    }

    #[test]
    fn graph_snapshot_cached_and_invalidated() {
        let mut engine = toy(2);
        let first = engine.graph();
        assert!(Arc::ptr_eq(&first, &engine.graph()));
        engine.apply(Update::AddRating {
            user: 2,
            item: 1,
            rating: 1.0,
        });
        let second = engine.graph();
        assert!(!Arc::ptr_eq(&first, &second));
        assert_eq!(second.num_users(), 4);
    }

    #[test]
    fn concurrent_readers_share_one_snapshot_without_tearing() {
        // Once readers run concurrently with each other (shared `&engine`
        // between writer batches), a stale-cache stampede must not
        // publish divergent snapshots. Every thread must read a complete
        // graph, and the cache must converge to one pointer-stable Arc.
        let mut engine = toy(4);
        let _ = engine.graph();
        engine.apply(Update::AddRating {
            user: 2,
            item: 1,
            rating: 1.0,
        });
        // The expectation comes from the heaps, leaving the snapshot
        // stale so the threads race its refresh.
        let expected: Vec<Vec<Neighbor>> = (0..engine.num_users() as UserId)
            .map(|u| engine.neighbors(u))
            .collect();
        let engine = Arc::new(engine);
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let engine = Arc::clone(&engine);
                std::thread::spawn(move || {
                    let mut graphs = Vec::new();
                    for _ in 0..50 {
                        graphs.push(engine.graph());
                    }
                    graphs
                })
            })
            .collect();
        let warm = engine.graph();
        for h in handles {
            for g in h.join().unwrap() {
                assert!(Arc::ptr_eq(&g, &warm), "one refresh, one Arc");
                for (u, row) in expected.iter().enumerate() {
                    assert_eq!(g.neighbors(u as UserId), &row[..], "torn snapshot");
                }
            }
        }
        // The dataset materialization cache obeys the same discipline.
        let ds_a = engine.dataset();
        let ds_b = engine.dataset();
        assert!(Arc::ptr_eq(&ds_a, &ds_b));
        assert_eq!(ds_a.num_users(), expected.len());
    }

    #[test]
    fn counter_rows_restore_under_any_shard_layout() {
        let updates = vec![
            Update::AddRating {
                user: 2,
                item: 1,
                rating: 1.0,
            },
            Update::AddUser,
            Update::AddRating {
                user: 4,
                item: 3,
                rating: 2.0,
            },
        ];
        let mut one = toy(1);
        one.apply_batch(updates.clone());
        let rows = one.counters_snapshot();
        for (u, row) in rows.iter().enumerate() {
            for &(v, c) in row {
                assert_eq!(one.shared_count(u as UserId, v), c, "pair ({u}, {v})");
            }
        }
        let (dataset, graph) = (one.dataset().to_dataset(), one.graph());
        for shards in [2, 3] {
            let mut engine = toy(shards);
            engine.apply_batch(updates.clone());
            assert_eq!(engine.counters_snapshot(), rows, "{shards} shards");
            let restored = ShardedOnlineKnn::from_snapshot(
                &dataset,
                &graph,
                rows.clone(),
                OnlineConfig::new(2),
                ShardConfig::new(shards),
            )
            .expect("valid rows");
            assert_ne!(
                restored.shard_of(1),
                restored.shard_of(2),
                "{shards} shards"
            );
            audit(&restored);
            assert_eq!(restored.counters_snapshot(), rows, "{shards} shards");
            assert_eq!(restored.graph().as_ref(), graph.as_ref(), "{shards} shards");
        }
        // Rows that disagree with the dataset are corrupt, not a panic.
        let restore = |rows| {
            ShardedOnlineKnn::from_snapshot(
                &dataset,
                &graph,
                rows,
                OnlineConfig::new(2),
                ShardConfig::new(2),
            )
        };
        let mut self_loop = rows.clone();
        self_loop[0].push((0, 1));
        let mut out_of_range = rows.clone();
        out_of_range[1].push((99, 1));
        for bad in [rows[1..].to_vec(), self_loop, out_of_range] {
            assert!(matches!(restore(bad), Err(KiffError::Corrupt { .. })));
        }
    }

    #[test]
    fn compaction_triggers_and_preserves_state() {
        let mut engine = ShardedOnlineKnn::new(
            &figure2_toy(),
            OnlineConfig::new(2).with_compaction_threshold(0.2),
            ShardConfig::new(2),
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
    #[should_panic(expected = "num_shards must be positive")]
    fn zero_shards_rejected() {
        let _ = ShardConfig::new(0);
    }

    #[test]
    fn telemetry_counters_are_the_cross_traffic_source_of_truth() {
        let registry = Registry::new();
        let mut engine = ShardedOnlineKnn::new(
            &figure2_toy(),
            OnlineConfig::new(2).with_telemetry(registry.clone()),
            ShardConfig::new(2).with_threads(2),
        );
        assert_ne!(engine.shard_of(2), engine.shard_of(1));
        let stats = engine.apply(Update::AddRating {
            user: 2,
            item: 1,
            rating: 1.0,
        });
        assert!(stats.cross_messages > 0, "endpoints straddle shards");
        let snap = registry.snapshot();
        // The legacy accessors re-derive from the per-shard counters.
        assert_eq!(
            snap.counter_sum_matching("shard.", ".cross_messages"),
            stats.cross_messages
        );
        assert_eq!(engine.cross_shard_messages(), stats.cross_messages);
        assert_eq!(
            engine.shard_cross_traffic().iter().sum::<u64>(),
            stats.cross_messages
        );
        assert_eq!(
            snap.counter_sum_matching("shard.", ".repairs"),
            stats.repaired_users
        );
        assert_eq!(snap.counter("online.sims"), Some(stats.sim_evals));
        assert!(snap.histogram("online.repair_round_ns").unwrap().count > 0);
        assert_eq!(snap.histogram("online.apply_ns").unwrap().count, 1);
    }

    #[test]
    fn stage_histograms_count_every_sampled_repair_and_every_batch() {
        use kiff_dataset::generators::planted::{generate_planted, PlantedConfig};
        let registry = Registry::new();
        let base = generate_planted(&PlantedConfig {
            num_users: 60,
            num_items: 40,
            ratings_per_user: 6,
            ..PlantedConfig::tiny("stages", 7)
        })
        .0;
        let mut engine = ShardedOnlineKnn::new(
            &base,
            OnlineConfig::new(4).with_telemetry(registry.clone()),
            ShardConfig::new(2).with_threads(2),
        );
        let batches = 5;
        for b in 0..batches {
            engine.apply_batch((0..20).map(|j| Update::AddRating {
                user: (b * 20 + j * 7) % 60,
                item: (j * 3 + b) % 40,
                rating: 1.0,
            }));
        }
        let snap = registry.snapshot();
        let count = |name: &str| snap.histogram(name).map_or(0, |h| h.count);
        // Every shard steps in every round, so each drains once a round.
        let rounds = count("online.repair_round_ns");
        assert!(rounds >= u64::from(batches), "a batch ran no round");
        for n in 0..2 {
            let repairs = count(&format!("shard.{n}.repair_ns"));
            assert!(repairs > 0, "shard {n} timed no repair");
            for stage in ["gather", "score", "land"] {
                let name = format!("shard.{n}.{stage}_ns");
                assert_eq!(count(&name), repairs, "{name}");
            }
            assert_eq!(count(&format!("shard.{n}.drain_ns")), rounds, "shard {n}");
        }
        for stage in ["apply", "mutate", "counters"] {
            let name = format!("online.{stage}_ns");
            assert_eq!(count(&name), u64::from(batches), "{name}");
        }
    }

    #[test]
    fn disabled_registry_zeroes_derived_traffic_but_preserves_the_graph() {
        let update = Update::AddRating {
            user: 2,
            item: 1,
            rating: 1.0,
        };
        let shards = || ShardConfig::new(2).with_threads(2);
        let mut on = ShardedOnlineKnn::new(&figure2_toy(), OnlineConfig::new(2), shards());
        let mut off = ShardedOnlineKnn::new(
            &figure2_toy(),
            OnlineConfig::new(2).with_telemetry(Registry::disabled()),
            shards(),
        );
        assert_ne!(on.shard_of(2), on.shard_of(1));
        let on_stats = on.apply(update);
        let off_stats = off.apply(update);
        // The graphs agree edge-for-edge; only the derived traffic
        // accounting goes dark under the disabled fast path.
        for u in 0..on.num_users() as UserId {
            assert_eq!(on.neighbors(u), off.neighbors(u), "user {u} diverged");
        }
        assert_eq!(on_stats.sim_evals, off_stats.sim_evals);
        assert!(on_stats.cross_messages > 0);
        assert_eq!(off_stats.cross_messages, 0);
        assert_eq!(off.cross_shard_messages(), 0);
        audit(&off);
    }

    #[test]
    fn cross_traffic_is_counted() {
        let mut engine = toy(2);
        // Carl joins the coffee drinkers: endpoints straddle shards.
        assert_ne!(engine.shard_of(2), engine.shard_of(1));
        let stats = engine.apply(Update::AddRating {
            user: 2,
            item: 1,
            rating: 1.0,
        });
        assert!(stats.cross_messages > 0, "cross-shard edges must message");
        assert_eq!(engine.cross_shard_messages(), stats.cross_messages);
        assert_eq!(
            engine.shard_cross_traffic().iter().sum::<u64>(),
            stats.cross_messages
        );
    }
}
