//! Counting/scoring hot-loop regression bench: `counting.json`.
//!
//! Measures the two KIFF inner loops this repo's flat-CSR + prepared-
//! scorer rewrite targets, against the retained pre-rewrite baselines:
//!
//! 1. **RCS construction** — [`build_rcs`]'s flat-CSR dense path vs
//!    [`CountStrategy::Reference`] (the legacy gather → per-user-`Vec` →
//!    flatten pipeline), with a bit-for-bit agreement check on ids and
//!    counts.
//! 2. **Refinement scoring** — [`refine`] over the metric (one profile
//!    preparation per user and batch, each batch scored along the
//!    shorter side of the bipartite graph) vs [`refine`] over
//!    [`Pairwise`] of the metric (the old per-candidate profile merge,
//!    plus one boxed `PairwiseScorer` per batch), with a graph-identity
//!    check: both compute the same similarities, so the graphs must match
//!    row by row, ids and similarity bits, over equal evaluation counts.

use std::time::{Duration, Instant};

use kiff_core::refine::refine;
use kiff_core::{
    build_rcs, CountStrategy, CountingConfig, KiffConfig, NoObserver, RankedCandidates, TimingMode,
};
use kiff_dataset::generators::bipartite::{generate_bipartite, BipartiteConfig};
use kiff_dataset::generators::RatingModel;
use kiff_dataset::Dataset;
use kiff_similarity::{Pairwise, WeightedCosine};

use super::{graphs_bit_identical, Ctx};

/// Timing repetitions per measured configuration (minimum taken).
const REPS: usize = 5;

/// Multiplicity-rich synthetic: few items relative to users, so item
/// profiles are long and every user's candidate multiset carries real
/// multiplicity — the regime the counting phase exists for (cf. the
/// paper's Wikipedia/Gowalla shapes).
fn counting_dataset(multiplier: f64, seed: u64) -> Dataset {
    let m = multiplier.clamp(0.05, 2.0);
    generate_bipartite(&BipartiteConfig {
        name: "bench-counting".to_string(),
        num_users: (20_000.0 * m) as usize,
        num_items: (2_000.0 * m) as usize,
        target_ratings: (800_000.0 * m) as usize,
        user_degree_min: 2,
        user_degree_max: 400,
        item_exponent: 0.8,
        rating_model: RatingModel::Stars { half_steps: false },
        seed,
    })
}

/// Runs `f` `REPS` times, returning the fastest wall time and the last
/// result.
fn time_best<R>(mut f: impl FnMut() -> R) -> (Duration, R) {
    let mut best = Duration::MAX;
    let mut out = None;
    for _ in 0..REPS {
        let start = Instant::now();
        let r = f();
        best = best.min(start.elapsed());
        out = Some(r);
    }
    (best, out.expect("REPS > 0"))
}

fn rcs_equal(a: &RankedCandidates, b: &RankedCandidates) -> bool {
    let n = a.num_users();
    n == b.num_users() && (0..n as u32).all(|u| a.rcs(u) == b.rcs(u) && a.counts(u) == b.counts(u))
}

struct RefineRun {
    label: String,
    wall_s: f64,
    sims_per_sec: f64,
    sim_evals: u64,
}

/// Runs the counting/scoring regression bench and writes `counting.json`.
pub fn counting(ctx: &mut Ctx) -> String {
    let ds = counting_dataset(ctx.scale.multiplier, ctx.seed);
    // Item profiles are shared by every measured build; materialise them
    // up front so the timings isolate RCS assembly (as in Table V).
    let _ = ds.item_profiles();
    let threads = ctx.threads;

    let rcs_config = |strategy| CountingConfig {
        keep_counts: true,
        threads,
        strategy,
        ..CountingConfig::default()
    };

    // The pre-rewrite path: sort-based ranking through the per-user-Vec
    // pipeline (what `build_rcs` was before the flat-CSR assembly).
    let (ref_time, reference) = time_best(|| build_rcs(&ds, &rcs_config(CountStrategy::Reference)));
    let total_entries = reference.total();
    let ref_s = ref_time.as_secs_f64().max(1e-9);

    let (flat_time, flat) = time_best(|| build_rcs(&ds, &rcs_config(CountStrategy::Dense)));
    let flat_s = flat_time.as_secs_f64().max(1e-9);
    let flat_entries_per_sec = total_entries as f64 / flat_s;
    let flat_speedup = ref_s / flat_s;
    let flat_agrees = rcs_equal(&reference, &flat);

    // Refinement: same RCS (counts stripped, as `Kiff::run` builds it),
    // same metric, timing off — pure hot-loop wall clock.
    let refine_rcs = build_rcs(
        &ds,
        &CountingConfig {
            threads,
            ..CountingConfig::default()
        },
    );
    let sim = WeightedCosine::fit(&ds);
    let mut refine_config = KiffConfig::new(10)
        .with_beta(0.0)
        .with_timing(TimingMode::Off);
    refine_config.threads = threads;
    let (pairwise_time, (pairwise_graph, pairwise_stats)) = time_best(|| {
        refine(
            &ds,
            &Pairwise(&sim),
            &refine_rcs,
            &refine_config,
            &mut NoObserver,
        )
    });
    let (prepared_time, (prepared_graph, prepared_stats)) =
        time_best(|| refine(&ds, &sim, &refine_rcs, &refine_config, &mut NoObserver));
    let refine_runs = [
        RefineRun {
            label: "pairwise".to_string(),
            wall_s: pairwise_time.as_secs_f64().max(1e-9),
            sims_per_sec: pairwise_stats.sim_evals as f64 / pairwise_time.as_secs_f64().max(1e-9),
            sim_evals: pairwise_stats.sim_evals,
        },
        RefineRun {
            label: "prepared".to_string(),
            wall_s: prepared_time.as_secs_f64().max(1e-9),
            sims_per_sec: prepared_stats.sim_evals as f64 / prepared_time.as_secs_f64().max(1e-9),
            sim_evals: prepared_stats.sim_evals,
        },
    ];
    let refine_speedup = refine_runs[0].wall_s / refine_runs[1].wall_s;
    // Both runs evaluate identical similarities over the same pairs:
    // the graphs must match bit for bit, and the evaluation counts too.
    let identical = graphs_bit_identical(&pairwise_graph, &prepared_graph)
        && pairwise_stats.sim_evals == prepared_stats.sim_evals;

    let mut out = String::new();
    out.push_str(&format!(
        "Counting/scoring hot loops on {}: {} users, {} items, {} ratings\n\
         RCS total {total_entries} entries (avg {:.1}/user)\n\n\
         RCS construction (best of {REPS}, reference = pre-rewrite \
         per-user-Vec pipeline, {ref_s:.3}s):\n",
        ds.name(),
        ds.num_users(),
        ds.num_items(),
        ds.num_ratings(),
        reference.avg_len(),
    ));
    out.push_str(&format!(
        "{:>10}: {flat_s:.3}s  {flat_entries_per_sec:>12.0} entries/s  \
         {flat_speedup:.2}x vs reference  agreement: {}\n",
        "flat",
        if flat_agrees { "exact" } else { "MISMATCH" },
    ));
    out.push_str(&format!(
        "\nRefinement to exhaustion (k=10, beta=0, best of {REPS}):\n"
    ));
    for r in &refine_runs {
        out.push_str(&format!(
            "{:>10}: {:.3}s  {:>12.0} sims/s  ({} evals)\n",
            r.label, r.wall_s, r.sims_per_sec, r.sim_evals,
        ));
    }
    out.push_str(&format!(
        "\nprepared-vs-pairwise speedup {refine_speedup:.2}x, graphs and \
         evaluation counts {} (must be identical)\n",
        if identical { "identical" } else { "MISMATCH" }
    ));
    // Correctness checks are hard gates, like the streaming experiments'
    // recall floors: the flat path diverging from the reference, or the
    // prepared and pairwise runs building different graphs, fails the suite.
    if !flat_agrees {
        let msg = "counting/flat: output diverged from the reference pipeline".to_string();
        eprintln!("AGREEMENT VIOLATION: {msg}");
        out.push_str(&format!("VIOLATION: {msg}\n"));
        ctx.violations.push(msg);
    }
    if !identical {
        let msg = "counting/scoring: prepared vs pairwise graphs or evaluation counts diverged"
            .to_string();
        eprintln!("AGREEMENT VIOLATION: {msg}");
        out.push_str(&format!("VIOLATION: {msg}\n"));
        ctx.violations.push(msg);
    }

    let dataset_v = serde_json::json!({
        "name": ds.name(),
        "num_users": ds.num_users(),
        "num_items": ds.num_items(),
        "num_ratings": ds.num_ratings(),
        "rcs_entries": total_entries,
        "avg_rcs_len": reference.avg_len()
    });
    let flat_v = serde_json::json!({
        "wall_time_s": flat_s,
        "entries_per_sec": flat_entries_per_sec,
        "speedup_vs_reference": flat_speedup,
        "agrees_with_reference": flat_agrees
    });
    let rcs_build_v = serde_json::json!({
        "reference_wall_time_s": ref_s,
        "reference_entries_per_sec": total_entries as f64 / ref_s,
        "flat": flat_v
    });
    let refine_runs_v: Vec<serde_json::Value> = refine_runs
        .iter()
        .map(|r| {
            serde_json::json!({
                "scoring": r.label,
                "wall_time_s": r.wall_s,
                "sims_per_sec": r.sims_per_sec,
                "sim_evals": r.sim_evals
            })
        })
        .collect();
    let refine_v = serde_json::json!({
        "k": 10,
        "runs": refine_runs_v,
        "prepared_speedup_vs_pairwise": refine_speedup,
        "identical_graphs": identical
    });
    let payload = serde_json::json!({
        "dataset": dataset_v,
        "rcs_build": rcs_build_v,
        "refine": refine_v
    });
    ctx.finish(
        "counting",
        "RCS-construction and refinement-scoring throughput, old vs new hot paths",
        out,
        &payload,
    )
}
