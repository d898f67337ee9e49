//! The counting oracle behind [`CountStrategy::Reference`]: gather → sort
//! → one `Vec` per user → flatten.
//!
//! It shares only the candidate gather with the dense path: it ranks with
//! [`count_sorted_runs`], allocates per user and merges worker chunks, yet
//! produces bit-identical [`RankedCandidates`] (offsets, ids, counts) —
//! the agreement tests hold the two together, and the `counting` bench
//! experiment measures the dense path against it.
//!
//! [`CountStrategy::Reference`]: crate::config::CountStrategy::Reference

use std::time::Instant;

use kiff_collections::count_sorted_runs;
use kiff_dataset::Dataset;
use kiff_parallel::{effective_threads, parallel_fold};

use super::{for_each_candidate, CountingConfig, RankedCandidates, GRAIN};

/// Builds the Ranked Candidate Sets of `dataset` through the reference
/// pipeline.
pub(super) fn build_rcs(dataset: &Dataset, config: &CountingConfig) -> RankedCandidates {
    let start = Instant::now();
    let n = dataset.num_users();
    let items = dataset.item_profiles();
    let threads = effective_threads(config.threads);
    let pivot = config.pivot;
    let threshold = config.rating_threshold;
    let max_rcs = config.max_rcs;

    // Each worker accumulates (user, ranked pairs) and a gather buffer.
    type Chunk = Vec<(u32, Vec<(u32, u32)>)>;
    let (chunks, _) = parallel_fold(
        threads,
        n,
        GRAIN,
        || (Chunk::new(), Vec::<u32>::new()),
        |(out, gather), range| {
            for u in range {
                let u = u as u32;
                gather.clear();
                for_each_candidate(dataset, items, u, pivot, threshold, |v| gather.push(v));
                let mut ranked = count_sorted_runs(gather);
                if let Some(cap) = max_rcs {
                    // Lists are ordered by decreasing count (ties by
                    // ascending id), so truncation keeps the best.
                    ranked.truncate(cap);
                }
                out.push((u, ranked));
            }
        },
        |(mut a, g), (b, _)| {
            a.extend(b);
            (a, g)
        },
    );

    // Assemble the flat layout through the per-user intermediate.
    let mut per_user: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
    for (u, ranked) in chunks {
        per_user[u as usize] = ranked;
    }
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0usize);
    let total: usize = per_user.iter().map(|r| r.len()).sum();
    let mut ids = Vec::with_capacity(total);
    let mut counts = config.keep_counts.then(|| Vec::with_capacity(total));
    for ranked in &per_user {
        for &(id, count) in ranked {
            ids.push(id);
            if let Some(c) = counts.as_mut() {
                c.push(count);
            }
        }
        offsets.push(ids.len());
    }

    RankedCandidates {
        offsets,
        ids: ids.into_boxed_slice(),
        counts: counts.map(Vec::into_boxed_slice),
        build_time: start.elapsed(),
    }
}
