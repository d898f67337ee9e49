//! Telemetry overhead gate: `telemetry.json`.
//!
//! Replays a planted-community stream through [`ShardedOnlineKnn`] in
//! two modes — recording into an enabled [`Registry`] versus a disabled
//! one — after an untimed warmup, in back-to-back on/off round pairs.
//! The gated statistic is the *median of per-pair wall-time ratios*:
//! the two halves of a pair run within milliseconds of each other, so
//! they almost always share whatever noise regime a shared CI runner is
//! in, and the median discards the pairs that straddle a regime change.
//! Sampling is sequential — the experiment keeps adding round pairs
//! (between `MIN_ROUNDS` and `MAX_ROUNDS`) until the estimate
//! clears `MIN_RATIO`; noise can only delay a pass, while a real
//! overhead regression holds the estimate below the bar through every
//! round and fails the gate. The experiment generates its own dataset
//! (larger than the shared streaming scenario) so the timed region is
//! long enough for a percent-level gate to be meaningful at smoke
//! scale. The instrumented engine resolves every handle at
//! construction and a disabled registry reduces each record to one
//! relaxed atomic load, so telemetry-on throughput must stay within a
//! few percent of telemetry-off: the run records a violation when the
//! ratio stays below `MIN_RATIO` (a **hard gate** in bench-smoke).
//!
//! Beyond the gate, the report surfaces what only the registry can see:
//! per-shard p99 repair latency (`shard.N.repair_ns`) and the
//! registry-derived similarity evaluations per update (`online.sims`),
//! cross-checked against [`UpdateStats`].

use std::time::Instant;

use kiff_online::{OnlineConfig, ShardConfig, ShardedOnlineKnn, Update, UpdateStats};
use kiff_telemetry::{Registry, TelemetrySnapshot};

use super::{planted, zipf_stream, Ctx, STREAM_K};

const SHARDS: usize = 4;
const BATCH: usize = 64;
/// Round pairs always measured before the first gate check.
const MIN_ROUNDS: usize = 9;
/// Round-pair cap: a below-gate estimate keeps sampling until it
/// either recovers (noise) or exhausts this many pairs (regression).
const MAX_ROUNDS: usize = 45;
/// The gate: telemetry-on throughput must be at least this fraction of
/// telemetry-off throughput.
const MIN_RATIO: f64 = 0.97;

struct Replay {
    elapsed_s: f64,
    stats: UpdateStats,
    snapshot: TelemetrySnapshot,
}

/// One full replay of `stream` through a fresh sharded engine recording
/// into `registry`; only the replay loop is timed (construction is the
/// same work in both modes).
///
/// The replay deliberately runs single-threaded regardless of
/// `--threads`: a percent-level wall-time gate needs additive-only noise
/// (a preempted serial run is only ever *slower*, so best-of-N converges
/// on the clean time), whereas worker threads timeslicing a shared CI
/// core make the parallel section's wall time depend on scheduler
/// interleaving in either direction. All `SHARDS` shards still run —
/// sequentially — so every per-shard instrument records, and per-record
/// telemetry cost is thread-count-independent, which is exactly what the
/// gate measures.
fn replay(base: &kiff_dataset::Dataset, stream: &[Update], registry: &Registry) -> Replay {
    let config = OnlineConfig::new(STREAM_K).with_telemetry(registry.clone());
    let shard_config = ShardConfig {
        threads: Some(1),
        ..ShardConfig::new(SHARDS)
    };
    let mut engine = ShardedOnlineKnn::new(base, config, shard_config);
    let start = Instant::now();
    for chunk in stream.chunks(BATCH) {
        engine.apply_batch(chunk.iter().copied());
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    Replay {
        elapsed_s,
        stats: *engine.lifetime_stats(),
        snapshot: registry.snapshot(),
    }
}

/// Runs the telemetry-overhead benchmark and writes `telemetry.json`.
pub fn telemetry(ctx: &mut Ctx) -> String {
    // Large enough that one replay takes tens of milliseconds even at
    // smoke scale; the stream is identical for both modes.
    let base = planted(ctx, "bench-telemetry", 6_000.0, 600, 2 * SHARDS, 12);
    let stream = zipf_stream(&base, ctx.seed, 2 * base.num_users());
    let base = &base;

    // One untimed warmup so neither measured mode pays first-touch
    // costs, then measure in back-to-back on/off pairs (fresh registries
    // per round so every run records from zero). The gated statistic is
    // the median of per-pair off/on wall-time ratios: shared-runner
    // noise comes in regimes lasting many rounds, so pooled per-mode
    // statistics have an effective sample size of "number of regime
    // blocks", while the halves of one pair nearly always share a
    // regime and their ratio stays clean. The order within a pair flips
    // every round so drift inside a pair cannot systematically favour
    // whichever mode runs second, and sampling is sequential: a
    // below-gate estimate earns more rounds (up to MAX_ROUNDS) before
    // the verdict, so a noise burst delays the pass that a genuine
    // regression can never reach.
    replay(base, &stream, &Registry::disabled());
    let mut on_rounds: Vec<Replay> = Vec::with_capacity(MIN_ROUNDS);
    let mut off_rounds: Vec<Replay> = Vec::with_capacity(MIN_ROUNDS);
    let pair_ratio_median = |on: &[Replay], off: &[Replay]| -> f64 {
        let mut ratios: Vec<f64> = on
            .iter()
            .zip(off)
            .map(|(on, off)| off.elapsed_s / on.elapsed_s.max(1e-9))
            .collect();
        ratios.sort_by(f64::total_cmp);
        ratios[ratios.len() / 2]
    };
    loop {
        if on_rounds.len().is_multiple_of(2) {
            on_rounds.push(replay(base, &stream, &Registry::new()));
            off_rounds.push(replay(base, &stream, &Registry::disabled()));
        } else {
            off_rounds.push(replay(base, &stream, &Registry::disabled()));
            on_rounds.push(replay(base, &stream, &Registry::new()));
        }
        let n = on_rounds.len();
        if n >= MIN_ROUNDS
            && (pair_ratio_median(&on_rounds, &off_rounds) >= MIN_RATIO || n >= MAX_ROUNDS)
        {
            break;
        }
    }
    let rounds_run = on_rounds.len();
    let ratio = pair_ratio_median(&on_rounds, &off_rounds);
    // Per-mode medians give the human-readable wall/throughput figures
    // (the gate itself is the paired ratio above).
    let median = |rounds: &[Replay]| -> f64 {
        let mut times: Vec<f64> = rounds.iter().map(|r| r.elapsed_s).collect();
        times.sort_by(f64::total_cmp);
        times[times.len() / 2]
    };
    let on_s = median(&on_rounds);
    let off_s = median(&off_rounds);
    // The replay is deterministic, so counters/stats agree across
    // rounds; any instrumented round's snapshot serves the readouts.
    let on = on_rounds.first().expect("MIN_ROUNDS > 0");

    let updates = on.stats.updates;
    let tput_on = updates as f64 / on_s.max(1e-9);
    let tput_off = updates as f64 / off_s.max(1e-9);

    // What only the registry can report.
    let shard_p99_ns: Vec<u64> = (0..SHARDS)
        .map(|s| {
            on.snapshot
                .histogram(&format!("shard.{s}.repair_ns"))
                .map(|h| h.p99)
                .unwrap_or(0)
        })
        .collect();
    let registry_sims = on.snapshot.counter("online.sims").unwrap_or(0);
    let sims_per_update = registry_sims as f64 / updates.max(1) as f64;

    let mut out = String::new();
    out.push_str(&format!(
        "Telemetry overhead on {}: {} users, {} streamed updates \
         ({SHARDS} shards, k={STREAM_K}, batch {BATCH}, paired medians over \
         {rounds_run} alternating round pairs)\n\n\
         {:>14}  {:>9}  {:>10}\n",
        base.name(),
        base.num_users(),
        updates,
        "mode",
        "wall (s)",
        "updates/s",
    ));
    out.push_str(&format!(
        "{:>14}  {:>9.3}  {:>10.0}\n{:>14}  {:>9.3}  {:>10.0}\n\n",
        "telemetry-on", on_s, tput_on, "telemetry-off", off_s, tput_off,
    ));
    out.push_str(&format!(
        "throughput ratio (on/off): {ratio:.4} (gate >= {MIN_RATIO})\n\
         registry sims/update     : {sims_per_update:.1} \
         (UpdateStats agrees: {})\n\
         per-shard repair p99     : {:?} ns\n",
        registry_sims == on.stats.sim_evals,
        shard_p99_ns,
    ));

    // Hard gate: enabled instruments must not cost measurable
    // throughput.
    if ratio < MIN_RATIO {
        let msg = format!(
            "telemetry/overhead: telemetry-on throughput ratio {ratio:.4} below {MIN_RATIO}"
        );
        eprintln!("TELEMETRY OVERHEAD VIOLATION: {msg}");
        out.push_str(&format!("VIOLATION: {msg}\n"));
        ctx.violations.push(msg);
    }
    // Sanity gate: the registry's lifetime counter must mirror the
    // engine's own accounting exactly, else the export is lying.
    if registry_sims != on.stats.sim_evals {
        let msg = format!(
            "telemetry/accounting: online.sims {registry_sims} != UpdateStats.sim_evals {}",
            on.stats.sim_evals
        );
        eprintln!("TELEMETRY ACCOUNTING VIOLATION: {msg}");
        out.push_str(&format!("VIOLATION: {msg}\n"));
        ctx.violations.push(msg);
    }

    let dataset_v = serde_json::json!({
        "name": base.name(),
        "num_users": base.num_users(),
        "num_items": base.num_items(),
        "num_ratings": base.num_ratings(),
        "streamed_updates": updates
    });
    let on_round_s: Vec<f64> = on_rounds.iter().map(|r| r.elapsed_s).collect();
    let off_round_s: Vec<f64> = off_rounds.iter().map(|r| r.elapsed_s).collect();
    let on_v = serde_json::json!({
        "median_wall_s": on_s,
        "round_wall_s": on_round_s,
        "updates_per_sec": tput_on
    });
    let off_v = serde_json::json!({
        "median_wall_s": off_s,
        "round_wall_s": off_round_s,
        "updates_per_sec": tput_off
    });
    let cross_messages = on
        .snapshot
        .counter_sum_matching("shard.", ".cross_messages");
    let payload = serde_json::json!({
        "dataset": dataset_v,
        "k": STREAM_K,
        "shards": SHARDS,
        "batch": BATCH,
        "rounds": rounds_run,
        "min_throughput_ratio": MIN_RATIO,
        "telemetry_on": on_v,
        "telemetry_off": off_v,
        "throughput_ratio": ratio,
        "per_shard_repair_p99_ns": shard_p99_ns,
        "sims_per_update": sims_per_update,
        "cross_shard_messages": cross_messages
    });
    ctx.finish(
        "telemetry",
        "Telemetry overhead: instrumented vs disabled-registry replay throughput",
        out,
        &payload,
    )
}
