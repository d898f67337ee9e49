//! `stream`: in-process maintenance through `KnnEngine::apply_batch`.
//!
//! A Gowalla-like stand-in (count ratings over a huge item space) is
//! split into a base and a held-out stream: a share of the ratings, the
//! whole profile of a few users (sent as `AddUser` then their ratings),
//! and a small share of `RemoveRating` retractions of base ratings. The
//! same stream is replayed on the unsharded engine and on the sharded
//! engine with two shards. Every round starts from a fresh engine, so
//! each replay is checked against the first for identical work counts
//! and an identical graph. Its work is one replay on each engine; its
//! recall the mean of the two maintained graphs' sampled recalls, each
//! checked against a KIFF rebuild's.

use std::time::Instant;

use kiff_core::{Kiff, KiffConfig};
use kiff_dataset::generators::presets::PaperDataset;
use kiff_dataset::{Dataset, DatasetBuilder};
use kiff_graph::KnnGraph;
use kiff_online::{
    KnnEngine, OnlineConfig, OnlineKnn, ShardConfig, ShardedOnlineKnn, Update, UpdateStats,
};
use kiff_similarity::WeightedCosine;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::layers::{report_builds, timed_build, BuildLayers};
use crate::trace::Tracer;
use crate::util::{exact_for, median, quantile, sample_recall, sample_users, Report};
use crate::{Args, THREADS};

const GOWALLA_SCALE: f64 = 0.1;
const K: usize = 20;
const BATCH: usize = 256;
/// Share of the remaining users' ratings held out as `AddRating`s.
const HELD_SHARE: f64 = 0.0125;
/// Share of users whose whole profile is held out (`AddUser`).
const NEW_USER_SHARE: f64 = 0.003;
/// Retractions as a share of the held-out ratings.
const REMOVE_SHARE: f64 = 0.05;
const SAMPLE_USERS: usize = 300;
const MIN_ROUNDS: usize = 3;
/// Rounds that build their engine from scratch and time it as set-up.
const SETUP_ROUNDS: usize = 3;
/// A maintained graph below this share of a rebuild's recall fails.
const RECALL_RATIO_FLOOR: f64 = 0.9;

struct Scenario {
    base: Dataset,
    stream: Vec<Update>,
    final_ratings: usize,
}

fn scenario(seed: u64, report: &mut Report) -> Scenario {
    let full = PaperDataset::Gowalla.generate(GOWALLA_SCALE, seed);
    let n = full.num_users();
    let new_users = ((n as f64 * NEW_USER_SHARE) as usize).max(1);
    let kept_users = n - new_users;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x57_4ea3);

    // Joining users are drawn among those with at most the mean profile
    // length, so one heavy user cannot double a seed's stream. They take
    // the top ids: `AddUser` appends the next dense id.
    let mean_len = full.num_ratings() / n.max(1);
    let mut candidates: Vec<u32> = (0..n as u32)
        .filter(|&u| (1..=mean_len).contains(&full.user_degree(u)))
        .collect();
    candidates.shuffle(&mut rng);
    let joining: std::collections::BTreeSet<u32> = candidates.into_iter().take(new_users).collect();
    let (mut kept_ids, mut joined_ids) = (Vec::new(), Vec::new());
    for u in 0..n as u32 {
        if joining.contains(&u) {
            joined_ids.push(u);
        } else {
            kept_ids.push(u);
        }
    }

    // Every event gets a time in [0, 1); the stream is the events in
    // time order, and a joining user's `AddUser`s precede its ratings.
    let mut events: Vec<(f64, Update)> = Vec::new();
    let mut builder = DatasetBuilder::new("gowalla-base", kept_users, full.num_items());
    let mut base_ratings = Vec::new();
    // Each kept user holds out every `1 / HELD_SHARE`-th of its ratings
    // from a seeded offset: heavy users contribute in proportion to their
    // profiles on every seed, which keeps the stream's work steady.
    let stride = (1.0 / HELD_SHARE).round() as usize;
    let mut held = 0usize;
    for (user, &original) in kept_ids.iter().enumerate() {
        let user = user as u32;
        let offset = rng.gen_range(0..stride);
        for (pos, (item, rating)) in full.user_profile(original).iter().enumerate() {
            if pos % stride == offset {
                events.push((rng.gen::<f64>(), Update::AddRating { user, item, rating }));
                held += 1;
            } else {
                builder.add_rating(user, item, rating);
                base_ratings.push((user, item));
            }
        }
    }
    let mut joins: Vec<f64> = (0..new_users).map(|_| rng.gen::<f64>()).collect();
    joins.sort_by(f64::total_cmp);
    let mut new_ratings = 0usize;
    for (offset, (&joined, &original)) in joins.iter().zip(&joined_ids).enumerate() {
        let user = (kept_users + offset) as u32;
        events.push((joined, Update::AddUser));
        for (item, rating) in full.user_profile(original).iter() {
            let at = joined + (1.0 - joined) * rng.gen::<f64>();
            events.push((at, Update::AddRating { user, item, rating }));
            new_ratings += 1;
        }
    }
    let removals = ((held as f64 * REMOVE_SHARE) as usize).min(base_ratings.len());
    let mut removed = std::collections::BTreeSet::new();
    while removed.len() < removals {
        removed.insert(base_ratings[rng.gen_range(0..base_ratings.len())]);
    }
    for &(user, item) in &removed {
        events.push((rng.gen::<f64>(), Update::RemoveRating { user, item }));
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0));
    let stream: Vec<Update> = events.into_iter().map(|(_, u)| u).collect();
    let base = builder.build();

    report.input("users", n as f64);
    report.input("items", full.num_items() as f64);
    report.input("ratings", full.num_ratings() as f64);
    report.input("density", full.density());
    report.input("k", K as f64);
    report.input("batch", BATCH as f64);
    report.input(
        "held_out_share",
        (held + new_ratings) as f64 / full.num_ratings() as f64,
    );
    report.input("stream.add_rating", (held + new_ratings) as f64);
    report.input("stream.add_user", new_users as f64);
    report.input("stream.remove_rating", removals as f64);
    Scenario {
        final_ratings: base.num_ratings() + held + new_ratings - removals,
        base,
        stream,
    }
}

/// One replay's observable outcome: work counts and the final graph.
struct Replay {
    stats: UpdateStats,
    compactions: u64,
    graph: std::sync::Arc<KnnGraph>,
    batch_s: Vec<f64>,
}

fn replay(
    t: &mut Tracer,
    span: &'static str,
    engine: &mut dyn KnnEngine,
    stream: &[Update],
) -> Replay {
    let mut stats = UpdateStats::default();
    let mut compactions = 0;
    let mut batch_s = Vec::with_capacity(stream.len() / BATCH + 1);
    for chunk in stream.chunks(BATCH) {
        let (s, secs) = t.span(span, || engine.apply_batch(chunk.to_vec()));
        compactions += u64::from(s.compacted);
        stats.merge(&s);
        batch_s.push(secs);
    }
    Replay {
        stats,
        compactions,
        graph: engine.graph(),
        batch_s,
    }
}

fn same_graph(a: &KnnGraph, b: &KnnGraph) -> bool {
    a.num_users() == b.num_users()
        && (0..a.num_users() as u32).all(|u| {
            let (x, y) = (a.neighbors(u), b.neighbors(u));
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|(p, q)| p.id == q.id && p.sim.to_bits() == q.sim.to_bits())
        })
}

fn same_work(a: &UpdateStats, b: &UpdateStats) -> bool {
    a.updates == b.updates
        && a.sim_evals == b.sim_evals
        && a.counter_adjustments == b.counter_adjustments
        && a.repaired_users == b.repaired_users
        && a.edits == b.edits
        && a.cross_messages == b.cross_messages
}

/// One replay's time as the sum over batches of each batch's median
/// time across rounds: every round applies the same batches, so a burst
/// of outside load during one round's batch moves nothing.
fn replay_s(rounds: &[Vec<f64>]) -> f64 {
    (0..rounds[0].len())
        .map(|b| median(&rounds.iter().map(|r| r[b]).collect::<Vec<_>>()))
        .sum()
}

pub fn run(args: &Args, t: &mut Tracer, report: &mut Report) {
    let sc = scenario(args.seed, report);
    let updates = sc.stream.len() as f64;
    t.reset_origin();

    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    let mut setup = Vec::new();
    let mut first: [Option<Replay>; 2] = [None, None];
    let mut per_round: [Vec<Vec<f64>>; 2] = [Vec::new(), Vec::new()];
    let mut final_ds = None;
    let mut seed: Option<std::sync::Arc<KnnGraph>> = None;
    let mut build_layers = BuildLayers::default();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || Instant::now() < deadline {
        // Set-up: the unsharded engine on the base input, timed in the
        // first rounds. With tracing on, split into the KIFF build and
        // the counter seeding. Later rounds seed from the first graph,
        // which leaves more of the run for replays.
        let start = Instant::now();
        t.enter("op.setup");
        let mut engine = match &seed {
            Some(graph) if setup.len() >= SETUP_ROUNDS => {
                t.span("online.seed", || {
                    OnlineKnn::from_graph(&sc.base, graph, OnlineConfig::new(K))
                })
                .0
            }
            _ if t.is_on() => {
                // The build `OnlineKnn::new` runs, split into its calls.
                let (graph, _) = timed_build(
                    t,
                    "core.build",
                    &sc.base.clone(),
                    &KiffConfig::new(K),
                    &mut build_layers,
                );
                t.span("online.seed", || {
                    OnlineKnn::from_graph(&sc.base, &graph, OnlineConfig::new(K))
                })
                .0
            }
            _ => OnlineKnn::new(&sc.base, OnlineConfig::new(K)),
        };
        t.exit();
        if setup.len() < SETUP_ROUNDS {
            setup.push(start.elapsed().as_secs_f64());
        }
        let seed_graph = seed.get_or_insert_with(|| engine.graph()).clone();
        let mut sharded = ShardedOnlineKnn::from_graph(
            &sc.base,
            &seed_graph,
            OnlineConfig::new(K),
            ShardConfig::new(2).with_threads(THREADS),
        );

        let engines: [(&'static str, &mut dyn KnnEngine); 2] = [
            ("online.apply_batch", &mut engine),
            ("online.sharded.apply_batch", &mut sharded),
        ];
        for (i, (span, engine)) in engines.into_iter().enumerate() {
            t.enter("op.replay");
            let r = replay(t, span, engine, &sc.stream);
            t.exit();
            report.attempted += sc.stream.len() as u64;
            let data = engine.data();
            let mut ok = data.num_ratings() == sc.final_ratings;
            report.check(
                ok,
                format!(
                    "{span}: final dataset has {} ratings, expected {}",
                    data.num_ratings(),
                    sc.final_ratings
                ),
            );
            if let Some(f) = &first[i] {
                let same = same_work(&f.stats, &r.stats) && same_graph(&f.graph, &r.graph);
                report.check(
                    same,
                    format!("{span}: replay differs from the first replay"),
                );
                ok &= same;
            }
            if !ok {
                report.failed += sc.stream.len() as u64;
            }
            per_round[i].push(r.batch_s.clone());
            if first[i].is_none() {
                if final_ds.is_none() {
                    final_ds = Some(data.to_dataset());
                }
                first[i] = Some(r);
            }
        }
        rounds += 1;
    }

    let [Some(plain), Some(shard)] = first else {
        unreachable!("at least one round ran")
    };
    // Recall of each maintained graph against exact neighbours on the
    // final dataset, and over a KIFF rebuild's: benchmark overhead,
    // outside every timed region.
    let final_ds = final_ds.expect("the first round keeps its final dataset");
    let ((recalls, rebuilt), _) = t.span("bench.ground_truth", || {
        let sim = WeightedCosine::fit(&final_ds);
        let sample = sample_users(final_ds.num_users(), SAMPLE_USERS, args.seed);
        let exact = exact_for(&final_ds, &sim, &sample, K);
        let rebuild = Kiff::new(KiffConfig::new(K).with_threads(THREADS))
            .run(&final_ds, &sim)
            .graph;
        let recall_of = |g: &KnnGraph| sample_recall(&sample, &exact, K, |u| g.neighbors(u));
        (
            [recall_of(&plain.graph), recall_of(&shard.graph)],
            recall_of(&rebuild),
        )
    });

    let prefix = if t.is_on() { "e2e." } else { "" };
    let replays = [replay_s(&per_round[0]), replay_s(&per_round[1])];
    report.metric(format!("{prefix}setup_s"), median(&setup), "s");
    report.metric(format!("{prefix}work_s"), replays[0] + replays[1], "s");
    report.metric(
        format!("{prefix}recall"),
        (recalls[0] + recalls[1]) / 2.0,
        "ratio",
    );
    report.metric(
        format!("{prefix}stream_updates_per_s"),
        updates / replays[0],
        "1/s",
    );
    report.metric(
        format!("{prefix}stream_sharded_updates_per_s"),
        updates / replays[1],
        "1/s",
    );
    for (name, recall) in [
        ("stream_recall_ratio", recalls[0]),
        ("stream_sharded_recall_ratio", recalls[1]),
    ] {
        let ratio = recall / rebuilt;
        report.check(
            ratio >= RECALL_RATIO_FLOOR,
            format!("{name} {ratio:.4} < {RECALL_RATIO_FLOOR}"),
        );
        report.metric(format!("{prefix}{name}"), ratio, "ratio");
    }
    if !t.is_on() {
        return;
    }

    report_builds(report, &[("gowalla", &build_layers)]);
    let batch_s = [per_round[0].concat(), per_round[1].concat()];
    let per_update = |x: u64| x as f64 / plain.stats.updates.max(1) as f64;
    report.metric("online.seed_s", median(&t.durations("online.seed")), "s");
    report.metric("core.build_s", median(&t.durations("core.build")), "s");
    report.metric("online.apply_batch_ms.p50", 1e3 * median(&batch_s[0]), "ms");
    report.metric(
        "online.apply_batch_ms.p99",
        1e3 * quantile(&batch_s[0], 0.99),
        "ms",
    );
    report.metric(
        "online.sims_per_update",
        per_update(plain.stats.sim_evals),
        "count",
    );
    report.metric(
        "online.counter_adjustments_per_update",
        per_update(plain.stats.counter_adjustments),
        "count",
    );
    report.metric(
        "online.repaired_users_per_update",
        per_update(plain.stats.repaired_users),
        "count",
    );
    report.metric(
        "online.edits_per_update",
        per_update(plain.stats.edits.total()),
        "count",
    );
    report.metric("online.compactions", plain.compactions as f64, "count");
    report.metric(
        "online.sharded.apply_batch_ms",
        1e3 * median(&batch_s[1]),
        "ms",
    );
    report.metric(
        "online.sharded.cross_messages_per_update",
        shard.stats.cross_messages as f64 / shard.stats.updates.max(1) as f64,
        "count",
    );
}
