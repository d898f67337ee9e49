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
//!
//!    A shard repairs in *waves*: the distinct unvisited users at the
//!    head of its queue, up to the remaining budget. The wave is
//!    *prepared* on the shard's workers at once: each member's
//!    heap-independent candidates (the capped targeted set and the
//!    prefix, both fixed once the counter phase has run) plus the heap
//!    and in-neighbour ids it holds at wave start are gathered and
//!    walked. The members then *land* serially, in queue order: each
//!    one after the first has its set rebuilt from its prepared part and
//!    its current heap and in-neighbours, which earlier landings may
//!    have changed. A candidate with a prepared score takes it, one that
//!    joined since is scored with [`OnlineMetric::eval`]. So the heaps,
//!    the work counts and every later wave are exactly those of one
//!    repair at a time, at any thread count. A shard with one worker,
//!    and a wave too small to pay for starting workers, repairs one user
//!    at a time.
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
//!   the shared dataset through a shared `&DeltaDataset`. Threads beyond
//!   one per shard prepare each shard's repair waves: a shard gets
//!   `threads / shards` workers, at least one.
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
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use kiff_collections::{FxHashMap, FxHashSet, SparseCounter};
use kiff_core::{build_rcs, CountingConfig, Kiff, KiffConfig, KiffError};
use kiff_dataset::{Dataset, DeltaDataset, FrozenDelta, ItemId, UserId};
use kiff_graph::{HeapChange, KnnGraph, KnnHeap, Neighbor, ShardReverse};
use kiff_parallel::{effective_threads, parallel_for_each_mut, ScratchPool};
use kiff_similarity as sim;
use kiff_telemetry::{Counter, Histogram, Registry};

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
    /// Worker threads driving the shards (`None` = all available). Each
    /// shard gets an equal share, at least one: the shards run side by
    /// side, and a shard with more than one worker prepares each repair
    /// wave on all of them (see the module docs). Results do not depend
    /// on the thread count.
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

/// The fewest members a wave is prepared in parallel for; they must also
/// have [`PARALLEL_CORATERS`] co-raters in all. Any other wave is
/// repaired one member at a time on the calling thread: starting and
/// joining the workers, and rebuilding every member after the first at
/// landing, cost more than the workers save. Measured on two cores,
/// switching thresholds between stretches of one replay: with waves of 2
/// and up in parallel, one-update replays of the `online` experiment's
/// stream ran 7–28% slower than one repair at a time, and with 16 and up
/// its batches of 100 still ran 11–18% slower; from 64 up, none of its
/// replays, nor the perfbench stream's batches of 256, ran slower.
const PARALLEL_WAVE: usize = 64;

/// The fewest co-raters, in all, of a wave prepared in parallel. A
/// member's gathering ranks its whole counter and its walk reaches every
/// co-rater, so they count the wave's work. The `online` experiment's
/// smallest stream, a batch of 100 over 120 users, makes one wave of 90
/// members with 6,768 co-raters, which ran 17% slower in parallel; the
/// larger replays' waves of 64 and up have 27,825 or more.
const PARALLEL_CORATERS: usize = 16_384;

/// One member of a repair wave: a queued user and what its preparation
/// computed for it before it landed. Members are kept in [`Shard::wave`]
/// and reused, so their buffers keep their capacity across waves and
/// batches.
#[derive(Debug, Default)]
struct Prepared {
    /// The user to repair.
    user: UserId,
    /// Its targeted candidates, taken from [`Shard::extras`].
    targeted: Vec<Arc<Vec<UserId>>>,
    /// Whether this repair is timed: one of the 1 in [`SPAN_SAMPLE`],
    /// while the registry is enabled.
    timed: bool,
    /// Its heap-independent candidates (see [`heap_independent`]),
    /// ascending and without the user; kept only for a wave of many.
    fixed: Vec<UserId>,
    /// Walk scores of the prepared candidates, ascending by candidate.
    scored: Vec<(UserId, f64)>,
    /// Candidate scratch: the prepared set, then the set rebuilt at
    /// landing.
    candidates: Vec<UserId>,
    /// Gathering plus walk time of a timed repair.
    prepare_ns: u64,
}

impl Prepared {
    /// Gathers the member's candidates as they stand and scores them with
    /// one walk. Reads only what no landing writes (the counters, the
    /// targeted chunks, the dataset) plus the member's own heap and
    /// in-neighbours, so every member of a wave can be prepared at once.
    /// A member of a wave of many also keeps its heap-independent
    /// candidates apart, for its landing; a member prepared `alone` lands
    /// before anything else does and needs no such part.
    #[allow(clippy::too_many_arguments)]
    fn prepare(
        &mut self,
        scorer: &mut RepairScorer,
        data: &DeltaDataset,
        config: &OnlineConfig,
        counter: &SparseCounter,
        heap: &KnnHeap,
        incoming: impl Iterator<Item = UserId>,
        alone: bool,
        stages: [&Histogram; 2],
    ) {
        let (u, width) = (self.user, config.repair_width);
        let start = self.timed.then(Instant::now);
        let candidates = &mut self.candidates;
        if alone {
            heap_independent(&self.targeted, counter, width, candidates);
        } else {
            heap_independent(&self.targeted, counter, width, &mut self.fixed);
            sort_without(u, &mut self.fixed);
            candidates.clone_from(&self.fixed);
        }
        candidates.extend(heap.iter().map(|e| e.id));
        candidates.extend(incoming);
        sort_without(u, candidates);
        let gathered = self.timed.then(Instant::now);
        // Item-at-a-time scoring (see `crate::scoring`): one walk over
        // `u`'s items and their live raters scores every candidate,
        // equal to `config.metric.eval` bit for bit.
        self.scored.clear();
        scorer.score(config.metric, data, u, candidates, &mut self.scored);
        if let (Some(start), Some(gathered)) = (start, gathered) {
            let [gather_ns, score_ns] = stages;
            let (gather, score) = (nanos(gathered - start), nanos(gathered.elapsed()));
            gather_ns.record(gather);
            score_ns.record(score);
            self.prepare_ns = gather + score;
        }
    }
}

/// Into `out`, unordered, the candidates of a user that no heap edit can
/// change: its targeted co-raters capped at `width` by live count
/// (descending, ties to the lower id), and the `width` co-raters its
/// counter ranks first. The counters and the targeted chunks are fixed
/// once the counter phase has run, so this set is the same at any point
/// of the batch's repair rounds.
fn heap_independent(
    targeted: &[Arc<Vec<UserId>>],
    counter: &SparseCounter,
    width: usize,
    out: &mut Vec<UserId>,
) {
    out.clear();
    for chunk in targeted {
        out.extend_from_slice(chunk);
    }
    if out.len() > width {
        // Deferred from the serial mutate phase: by now the counter
        // phase has run, so live counts rank the touched co-raters.
        // The id tie-break makes the kept set independent of the
        // rater order, which differs between a live overlay and a
        // compacted (or snapshot-restored) base: without it,
        // snapshot + replay keeps other tied candidates than the
        // uninterrupted run.
        out.select_nth_unstable_by_key(width, |&v| (std::cmp::Reverse(counter.get(v)), v));
        out.truncate(width);
    }
    out.extend(counter.top_by_count(width).into_iter().map(|(v, _)| v));
}

/// Sorts `ids` ascending and drops duplicates and `u`.
fn sort_without(u: UserId, ids: &mut Vec<UserId>) {
    ids.sort_unstable();
    ids.dedup();
    if let Ok(pos) = ids.binary_search(&u) {
        ids.remove(pos);
    }
}

/// A duration in nanoseconds, saturated to `u64`.
fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

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
    /// Owned users already repaired this batch, or dropped from the
    /// queue once its budget ran out.
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
    /// `shard.N.prepare_ns`: the wall time of each wave's preparation on
    /// more than one worker.
    prepare_ns: Histogram,
    /// `shard.N.repair_ns`: a repair's own time (gathering, walk and
    /// landing), sampled 1 in [`SPAN_SAMPLE`] repairs.
    repair_ns: Histogram,
    /// `shard.N.gather_ns`: the candidate gathering of the same sampled
    /// repairs (the targeted cap, the prefix, the heap and reverse sets,
    /// sort and dedup), run in the wave's preparation.
    gather_ns: Histogram,
    /// `shard.N.score_ns`: the scoring walk of the same sampled repairs,
    /// run in the wave's preparation.
    score_ns: Histogram,
    /// `shard.N.land_ns`: the landing of the same sampled repairs: the
    /// candidate set rebuilt from the current heap and in-neighbours for
    /// a wave member after the first, and the scores landed on the
    /// heaps, local or by message.
    land_ns: Histogram,
    /// Distinct unvisited users dropped from the queue this batch when
    /// its repair budget ran out, not yet flushed into `tele_dropped`.
    dropped: u64,
    /// `shard.N.dropped_repairs`: users whose repair the budget cut off
    /// (lifetime). Flushed in bulk at batch end, like `tele_repairs`.
    tele_dropped: Counter,
    /// Candidates scored pairwise at landing this batch, not yet flushed
    /// into `tele_late`.
    late: u64,
    /// `online.late_candidates`: candidates that joined a wave member's
    /// set after its preparation (lifetime, shared by every shard).
    tele_late: Counter,
    /// Prepared scores no landing used this batch, not yet flushed into
    /// `tele_unused`.
    unused: u64,
    /// `online.unused_prepared`: prepared scores of candidates that left
    /// a member's set before it landed (lifetime, shared by every shard).
    tele_unused: Counter,
    /// The registry, read for whether sampled repairs are timed.
    telemetry: Registry,
    /// The current wave's members; entries past the wave are kept for
    /// their buffers.
    wave: Vec<Prepared>,
    /// Item-at-a-time scoring scratch, one per worker preparing a wave;
    /// kept across batches.
    scorers: ScratchPool<RepairScorer>,
    /// Reusable staging buffer of `(candidate, similarity)` for a
    /// member's rebuilt set.
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
            prepare_ns: tele.histogram(&format!("shard.{my}.prepare_ns")),
            repair_ns: tele.histogram(&format!("shard.{my}.repair_ns")),
            gather_ns: tele.histogram(&format!("shard.{my}.gather_ns")),
            score_ns: tele.histogram(&format!("shard.{my}.score_ns")),
            land_ns: tele.histogram(&format!("shard.{my}.land_ns")),
            tele_dropped: tele.counter(&format!("shard.{my}.dropped_repairs")),
            tele_late: tele.counter("online.late_candidates"),
            tele_unused: tele.counter("online.unused_prepared"),
            telemetry: tele.clone(),
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
    ///
    /// Repairs run in waves. A wave is the distinct unvisited users at the
    /// head of the queue, up to the remaining budget, or one user when the
    /// shard has one worker or fewer than [`PARALLEL_WAVE`] queued. A wave
    /// of at least that many members, with enough co-raters, is prepared
    /// together on `workers` threads, then landed one at a time in queue
    /// order, so the heaps evolve exactly as under one repair at a time;
    /// any other is repaired a member at a time.
    fn step(
        &mut self,
        my: u32,
        data: &DeltaDataset,
        assign: &[Slot],
        config: &OnlineConfig,
        workers: usize,
    ) {
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
        loop {
            // A queue too short for a wave worth the workers is repaired
            // one user at a time, in the one reused entry of the wave.
            let most = if workers > 1 && self.queue.len() >= PARALLEL_WAVE {
                usize::MAX
            } else {
                1
            };
            let members = self.take_wave(most);
            if members == 0 {
                break;
            }
            if members >= PARALLEL_WAVE && self.wave_coraters(members, assign) >= PARALLEL_CORATERS
            {
                self.prepare_wave(0..members, data, assign, config, workers);
                self.land_wave(0..members, my, data, assign, config);
            } else {
                // One user, a wave thinned by repeated and visited users
                // or by the budget, or one of little work: one repair at
                // a time.
                for m in 0..members {
                    self.prepare_wave(m..m + 1, data, assign, config, 1);
                    self.land_wave(m..m + 1, my, data, assign, config);
                }
            }
        }
        if self.repaired >= self.budget {
            // Budget exhausted: drop the remaining cascade, counting each
            // user it cuts off once a batch. Marking them visited only
            // stops later rounds from queueing them again: the batch
            // repairs no one else.
            for u in self.queue.drain(..) {
                if self.visited.insert(u) {
                    self.dropped += 1;
                }
            }
            self.extras.clear();
        }
    }

    /// Pops the next wave, at most `most` users, into `self.wave` and
    /// returns its size.
    ///
    /// Members are marked visited as they are taken, not as they land.
    /// That only stops a landing from queueing a later member of the same
    /// wave again, an entry the serial loop would pop after that member's
    /// repair and skip.
    fn take_wave(&mut self, most: usize) -> usize {
        let mut members = 0;
        while members < most && self.repaired < self.budget {
            let Some(u) = self.queue.pop_front() else {
                break;
            };
            if !self.visited.insert(u) {
                continue;
            }
            self.repaired += 1;
            // Time 1 in SPAN_SAMPLE repairs: a clock pair plus a
            // histogram record on *every* repair is measurable against
            // the telemetry bench's 3% overhead gate, while the p99 of
            // a uniform sample estimates the same distribution. The
            // repairs counter itself stays exact — it is flushed in
            // bulk at batch end alongside the sims counter.
            let timed = self.repaired % SPAN_SAMPLE == 1 && self.telemetry.is_enabled();
            if members == self.wave.len() {
                self.wave.push(Prepared::default());
            }
            let member = &mut self.wave[members];
            member.user = u;
            member.targeted = self.extras.remove(&u).unwrap_or_default();
            member.timed = timed;
            members += 1;
        }
        members
    }

    /// The co-raters of the first `members` entries of the wave, in all.
    fn wave_coraters(&self, members: usize, assign: &[Slot]) -> usize {
        self.wave[..members]
            .iter()
            .map(|m| self.counters[assign[m.user as usize].idx as usize].len())
            .sum()
    }

    /// Prepares the `members` entries of the wave on `workers` threads,
    /// each with a scorer of its own. Only a preparation on more than one
    /// worker is timed into `prepare_ns`: a lone member's is its gathering
    /// and walk, already sampled into their own stages.
    fn prepare_wave(
        &mut self,
        members: Range<usize>,
        data: &DeltaDataset,
        assign: &[Slot],
        config: &OnlineConfig,
        workers: usize,
    ) {
        let _span = (workers > 1).then(|| self.prepare_ns.span());
        let alone = members.len() == 1;
        let (counters, heaps, incoming) = (&self.counters, &self.heaps, &self.incoming);
        let (scorers, stages) = (&self.scorers, [&self.gather_ns, &self.score_ns]);
        parallel_for_each_mut(workers, &mut self.wave[members], |_, member| {
            let slot = assign[member.user as usize].idx as usize;
            member.prepare(
                &mut scorers.checkout(),
                data,
                config,
                &counters[slot],
                &heaps[slot],
                incoming.in_neighbors(slot),
                alone,
                stages,
            );
        });
    }

    /// Lands the `members` entries of the wave, in queue order. Each
    /// member's candidate set is its heap-independent part plus its
    /// *current* heap and in-neighbours, which earlier members' landings
    /// may have changed since the wave was prepared; a candidate scored
    /// in preparation takes that score, one that joined since is scored
    /// with [`OnlineMetric::eval`], which equals the walk bit for bit.
    /// Timed members record `land_ns`, and `repair_ns` as their
    /// preparation plus landing.
    fn land_wave(
        &mut self,
        members: Range<usize>,
        my: u32,
        data: &DeltaDataset,
        assign: &[Slot],
        config: &OnlineConfig,
    ) {
        let mut wave = std::mem::take(&mut self.wave);
        let mut rebuilt = std::mem::take(&mut self.scored);
        for (pos, member) in wave[members].iter_mut().enumerate() {
            let start = member.timed.then(Instant::now);
            let (u, slot) = (member.user, assign[member.user as usize].idx as usize);
            let scored = if pos == 0 {
                // Nothing has landed since the wave was prepared.
                &member.scored
            } else {
                if cfg!(debug_assertions) {
                    // Nothing a landing writes may feed the prepared part.
                    let mut fixed = Vec::new();
                    heap_independent(
                        &member.targeted,
                        &self.counters[slot],
                        config.repair_width,
                        &mut fixed,
                    );
                    sort_without(u, &mut fixed);
                    assert_eq!(
                        fixed, member.fixed,
                        "heap-independent candidates of {u} moved during the wave"
                    );
                }
                self.rebuild(member, slot, data, config, &mut rebuilt);
                &rebuilt
            };
            self.stats.sim_evals += scored.len() as u64;
            for &(v, s) in scored {
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
            member.targeted.clear();
            if let Some(start) = start {
                let land = nanos(start.elapsed());
                self.land_ns.record(land);
                self.repair_ns.record(member.prepare_ns + land);
            }
        }
        self.wave = wave;
        self.scored = rebuilt;
    }

    /// Rebuilds `member`'s candidate set from its heap-independent part
    /// and the current ids of its heap and in-neighbours, at local slot
    /// `slot`, into `out`, ascending, each with its prepared score or,
    /// for a candidate that joined after preparation, a pairwise one.
    /// Counts both kinds of mismatch.
    fn rebuild(
        &mut self,
        member: &mut Prepared,
        slot: usize,
        data: &DeltaDataset,
        config: &OnlineConfig,
        out: &mut Vec<(UserId, f64)>,
    ) {
        let u = member.user;
        let candidates = &mut member.candidates;
        candidates.clone_from(&member.fixed);
        candidates.extend(self.heaps[slot].iter().map(|e| e.id));
        candidates.extend(self.incoming.in_neighbors(slot));
        sort_without(u, candidates);
        out.clear();
        let mut prepared = member.scored.iter().peekable();
        let mut used = 0;
        for &v in candidates.iter() {
            while prepared.next_if(|&&(w, _)| w < v).is_some() {}
            let s = match prepared.next_if(|&&(w, _)| w == v) {
                Some(&(_, s)) => {
                    used += 1;
                    s
                }
                None => {
                    self.late += 1;
                    config.metric.eval(data.profile(u), data.profile(v))
                }
            };
            out.push((v, s));
        }
        self.unused += (member.scored.len() - used) as u64;
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

        // The shards run side by side on up to one thread each, and each
        // shard prepares its repair waves on an equal share of the threads.
        let threads = effective_threads(self.shard_config.threads);
        let workers = (threads / self.shards.len()).max(1);
        let threads = threads.min(self.shards.len());

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
                shard.step(my as u32, data, assign, config, workers);
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
            shard.tele_dropped.add(std::mem::take(&mut shard.dropped));
            shard.tele_sims.add(shard.stats.sim_evals);
            shard.tele_scores.add(shard.stats.sim_evals);
            shard.tele_late.add(std::mem::take(&mut shard.late));
            shard.tele_unused.add(std::mem::take(&mut shard.unused));
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
        let base = generate_planted(&PlantedConfig {
            num_users: 400,
            num_items: 100,
            ratings_per_user: 20,
            ..PlantedConfig::tiny("stages", 7)
        })
        .0;
        // Two shards on two threads have one worker each, so every wave
        // is one repair; one shard on two threads prepares waves of many.
        // Every batch dirties 100 users, most of them co-raters of each
        // other: a wave worth both workers.
        for shards in [2, 1] {
            let registry = Registry::new();
            let mut engine = ShardedOnlineKnn::new(
                &base,
                OnlineConfig::new(4).with_telemetry(registry.clone()),
                ShardConfig::new(shards).with_threads(2),
            );
            let batches = 5;
            for b in 0..batches {
                engine.apply_batch((0..100).map(|j| Update::AddRating {
                    user: (b * 100 + j * 7) % 400,
                    item: (j * 3 + b) % 100,
                    rating: 1.0,
                }));
            }
            let snap = registry.snapshot();
            let count = |name: &str| snap.histogram(name).map_or(0, |h| h.count);
            // Every shard steps in every round, so each drains once a round.
            let rounds = count("online.repair_round_ns");
            assert!(rounds >= u64::from(batches), "a batch ran no round");
            for n in 0..shards {
                let repairs = count(&format!("shard.{n}.repair_ns"));
                assert!(repairs > 0, "shard {n} timed no repair");
                for stage in ["gather", "score", "land"] {
                    let name = format!("shard.{n}.{stage}_ns");
                    assert_eq!(count(&name), repairs, "{name}");
                }
                assert_eq!(count(&format!("shard.{n}.drain_ns")), rounds, "shard {n}");
                // One preparation per wave on many workers: none on one
                // worker, fewer than the repairs on two, and at least one
                // per batch, whose first wave has 100 members.
                let waves = count(&format!("shard.{n}.prepare_ns"));
                let repaired = snap.counter(&format!("shard.{n}.repairs")).unwrap();
                if shards == 2 {
                    assert_eq!(waves, 0, "shard {n}");
                } else {
                    assert!(waves < repaired, "{waves} waves, {repaired} repairs");
                    assert!(waves >= u64::from(batches), "{waves} waves");
                }
            }
            for stage in ["apply", "mutate", "counters"] {
                let name = format!("online.{stage}_ns");
                assert_eq!(count(&name), u64::from(batches), "{name}");
            }
            for name in ["online.late_candidates", "online.unused_prepared"] {
                assert!(snap.counter(name).is_some(), "{name}");
            }
        }
    }

    #[test]
    fn dropped_repairs_count_the_cascade_the_budget_cuts_off() {
        use kiff_dataset::generators::planted::{generate_planted, PlantedConfig};
        let base = generate_planted(&PlantedConfig {
            num_users: 400,
            num_items: 100,
            ratings_per_user: 20,
            ..PlantedConfig::tiny("dropped", 7)
        })
        .0;
        let registry = Registry::new();
        let mut engine = ShardedOnlineKnn::new(
            &base,
            OnlineConfig::new(4).with_telemetry(registry.clone()),
            ShardConfig::new(1).with_threads(1),
        );
        let dropped = |registry: &Registry| {
            registry
                .snapshot()
                .counter("shard.0.dropped_repairs")
                .unwrap_or(0)
        };
        // Five new ratings raise similarities only: the cascade stays
        // well inside the budget.
        let stats = engine.apply_batch((0..5).map(|j| Update::AddRating {
            user: j * 61,
            item: (j * 13) % 100,
            rating: 1.0,
        }));
        assert!(stats.repaired_users < (5 + MAX_PROPAGATION) as u64);
        assert_eq!(dropped(&registry), 0);
        // Removing a rating from each of 100 users lowers their scores in
        // the heaps of their in-neighbours, who queue up past the budget.
        let stats = engine.apply_batch((0..100).map(|j| {
            let user = j * 4;
            Update::RemoveRating {
                user,
                item: base.user_profile(user).items[0],
            }
        }));
        assert_eq!(stats.repaired_users, (100 + MAX_PROPAGATION) as u64);
        assert!(dropped(&registry) > 0);
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
