//! Counting/scoring hot-loop regression bench: `counting.json`.
//!
//! Measures the two KIFF inner loops this repo's flat-CSR + prepared-
//! scorer rewrite targets, against the retained pre-rewrite baselines:
//!
//! 1. **RCS construction** — [`build_rcs`] (flat-CSR, two-pass) under
//!    every [`CountStrategy`] vs [`build_rcs_reference`] (the legacy
//!    gather → per-user-`Vec` → flatten pipeline), with a bit-for-bit
//!    agreement check on ids, counts and offsets.
//! 2. **Refinement scoring** — [`refine`] under
//!    [`ScoringMode::Prepared`] (one profile preparation per user, each
//!    candidate scored in `O(|UP_v|)`) vs [`ScoringMode::Pairwise`] (the
//!    old per-candidate profile merge), with a graph-identity check:
//!    both modes compute the same similarities, so the graphs must match
//!    row by row, ids and similarity bits, over equal evaluation counts.

use std::time::{Duration, Instant};

use kiff_core::refine::refine;
use kiff_core::{
    build_rcs, build_rcs_reference, CountStrategy, CountingConfig, KiffConfig, NoObserver,
    RankedCandidates, ScoringMode, TimingMode,
};
use kiff_dataset::generators::bipartite::{generate_bipartite, BipartiteConfig};
use kiff_dataset::generators::RatingModel;
use kiff_dataset::Dataset;
use kiff_similarity::WeightedCosine;

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

struct RcsRun {
    label: String,
    wall_s: f64,
    entries_per_sec: f64,
    speedup_vs_reference: f64,
    agrees: bool,
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

    let base_config = CountingConfig {
        keep_counts: true,
        threads,
        ..CountingConfig::default()
    };

    // The pre-rewrite path: sort-based ranking through the per-user-Vec
    // pipeline (what `build_rcs` was before the flat-CSR assembly).
    let (ref_time, reference) = time_best(|| {
        build_rcs_reference(
            &ds,
            &CountingConfig {
                strategy: CountStrategy::SortBased,
                ..base_config.clone()
            },
        )
    });
    let total_entries = reference.total();
    let ref_s = ref_time.as_secs_f64().max(1e-9);

    let mut rcs_runs = Vec::new();
    for (label, strategy) in [
        ("flat-dense", CountStrategy::Dense),
        ("flat-sort", CountStrategy::SortBased),
        ("flat-hash", CountStrategy::HashBased),
        ("flat-auto", CountStrategy::Auto),
    ] {
        let (time, rcs) = time_best(|| {
            build_rcs(
                &ds,
                &CountingConfig {
                    strategy,
                    ..base_config.clone()
                },
            )
        });
        let wall_s = time.as_secs_f64().max(1e-9);
        rcs_runs.push(RcsRun {
            label: label.to_string(),
            wall_s,
            entries_per_sec: total_entries as f64 / wall_s,
            speedup_vs_reference: ref_s / wall_s,
            agrees: rcs_equal(&reference, &rcs),
        });
    }

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
    let refine_config = |scoring: ScoringMode| {
        let mut c = KiffConfig::new(10)
            .with_beta(0.0)
            .with_scoring(scoring)
            .with_timing(TimingMode::Off);
        c.threads = threads;
        c
    };
    let (pairwise_time, (pairwise_graph, pairwise_stats)) = time_best(|| {
        refine(
            &ds,
            &sim,
            &refine_rcs,
            &refine_config(ScoringMode::Pairwise),
            &mut NoObserver,
        )
    });
    let (prepared_time, (prepared_graph, prepared_stats)) = time_best(|| {
        refine(
            &ds,
            &sim,
            &refine_rcs,
            &refine_config(ScoringMode::Prepared),
            &mut NoObserver,
        )
    });
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
    // Both modes evaluate identical similarities over the same pairs:
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
    for r in &rcs_runs {
        out.push_str(&format!(
            "{:>10}: {:.3}s  {:>12.0} entries/s  {:.2}x vs reference  agreement: {}\n",
            r.label,
            r.wall_s,
            r.entries_per_sec,
            r.speedup_vs_reference,
            if r.agrees { "exact" } else { "MISMATCH" },
        ));
    }
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
    // recall floors: a strategy diverging from the reference, or the two
    // scoring modes building different graphs, fails the suite.
    for r in rcs_runs.iter().filter(|r| !r.agrees) {
        let msg = format!(
            "counting/{}: output diverged from the reference pipeline",
            r.label
        );
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
    let rcs_runs_v: Vec<serde_json::Value> = rcs_runs
        .iter()
        .map(|r| {
            serde_json::json!({
                "strategy": r.label,
                "wall_time_s": r.wall_s,
                "entries_per_sec": r.entries_per_sec,
                "speedup_vs_reference": r.speedup_vs_reference,
                "agrees_with_reference": r.agrees
            })
        })
        .collect();
    let rcs_build_v = serde_json::json!({
        "reference_wall_time_s": ref_s,
        "reference_entries_per_sec": total_entries as f64 / ref_s,
        "runs": rcs_runs_v
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
