//! Locality-Sensitive Hashing baselines for ANN graph construction.
//!
//! The paper positions greedy approaches against LSH throughout: NN-Descent
//! "has shown to deliver a better recall in a shorter computational time
//! than … an approach using Locality Sensitive Hashing (LSH)" (§VI), and
//! LSH solutions "are optimized for very dense data sets" while "KIFF
//! targets sparse datasets" (§VI). This module provides the LSH comparison
//! point so that claim can be exercised directly:
//!
//! * [`LshFamily::CosineHyperplane`] — random-hyperplane (SimHash)
//!   signatures: bit `j` of a user's signature is the sign of her rating
//!   vector's projection onto a pseudo-random ±1 hyperplane. Collision
//!   probability grows with cosine similarity.
//! * [`LshFamily::MinHash`] — classic MinHash signatures whose per-row
//!   collision probability equals the Jaccard coefficient of the item
//!   sets.
//!
//! Signatures are split into bands; users colliding in any band bucket
//! become candidate pairs, which are then scored with the *real* similarity
//! metric and inserted into bounded k-heaps on both sides — the same
//! scoring discipline as every other algorithm in this workspace, so scan
//! rates and recalls are directly comparable.
//!
//! Hyperplanes and permutations are derived by hashing `(input, function,
//! seed)`, so signatures need no stored projection matrices and runs are
//! deterministic for a fixed seed.

use std::time::{Duration, Instant};

use kiff_collections::{FxHashMap, FxHashSet};
use kiff_dataset::{Dataset, UserId};
use kiff_graph::{KnnGraph, SharedKnn};
use kiff_parallel::{effective_threads, parallel_fold, parallel_for, Counter, ScratchPool};
use kiff_similarity::{ScorerWorkspace, ScoringMode, Similarity, PREPARED_MIN_BATCH};
use kiff_telemetry::Registry;

/// The signature family used by [`Lsh`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LshFamily {
    /// Random-hyperplane signatures for cosine-like metrics.
    CosineHyperplane {
        /// Total signature bits (≤ 256).
        bits: usize,
        /// Bits per band; must divide `bits`.
        band_bits: usize,
    },
    /// MinHash signatures for Jaccard-like metrics.
    MinHash {
        /// Number of hash functions (signature rows).
        hashes: usize,
        /// Rows per band; must divide `hashes`.
        band_size: usize,
    },
}

impl LshFamily {
    /// Number of bands implied by the family parameters.
    pub fn num_bands(&self) -> usize {
        match *self {
            LshFamily::CosineHyperplane { bits, band_bits } => bits / band_bits,
            LshFamily::MinHash { hashes, band_size } => hashes / band_size,
        }
    }

    fn validate(&self) {
        match *self {
            LshFamily::CosineHyperplane { bits, band_bits } => {
                assert!(bits > 0 && bits <= 256, "bits must be in 1..=256");
                assert!(
                    band_bits > 0 && bits % band_bits == 0,
                    "band_bits must divide bits"
                );
            }
            LshFamily::MinHash { hashes, band_size } => {
                assert!(hashes > 0, "hashes must be positive");
                assert!(
                    band_size > 0 && hashes % band_size == 0,
                    "band_size must divide hashes"
                );
            }
        }
    }
}

/// Parameters of [`Lsh`].
#[derive(Debug, Clone)]
pub struct LshConfig {
    /// Neighbourhood size `k`.
    pub k: usize,
    /// Signature family and banding scheme.
    pub family: LshFamily,
    /// Buckets larger than this are truncated (their overflow pairs are
    /// counted in [`LshStats::skipped_pairs`]): a degenerate bucket —
    /// e.g. every user sharing one blockbuster item — would otherwise
    /// reintroduce the quadratic scan LSH exists to avoid.
    pub max_bucket: usize,
    /// Worker threads for signature construction (`None` = all).
    pub threads: Option<usize>,
    /// Seed for the hash-derived hyperplanes/permutations.
    pub seed: u64,
    /// How candidate pairs are scored with the real metric (default:
    /// prepared — each bucket member is prepared once and scores all its
    /// bucket partners; both modes build identical graphs).
    pub scoring: ScoringMode,
    /// Telemetry registry the run's scorers count into
    /// (`similarity.*`). Each config starts with its own enabled
    /// registry; share one with [`LshConfig::with_telemetry`].
    pub telemetry: Registry,
}

impl LshConfig {
    /// Cosine-oriented defaults: 64-bit signatures in 8 bands of 8 bits.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            family: LshFamily::CosineHyperplane {
                bits: 64,
                band_bits: 8,
            },
            max_bucket: 512,
            threads: None,
            seed: 42,
            scoring: ScoringMode::default(),
            telemetry: Registry::new(),
        }
    }

    /// MinHash defaults: 64 hashes in 16 bands of 4 rows.
    pub fn minhash(k: usize) -> Self {
        Self {
            k,
            family: LshFamily::MinHash {
                hashes: 64,
                band_size: 4,
            },
            max_bucket: 512,
            threads: None,
            seed: 42,
            scoring: ScoringMode::default(),
            telemetry: Registry::new(),
        }
    }

    /// Records the run's scores into `registry` (shared, not copied).
    pub fn with_telemetry(mut self, registry: Registry) -> Self {
        self.telemetry = registry;
        self
    }
}

/// Instrumentation of an [`Lsh`] run.
#[derive(Debug, Clone, Default)]
pub struct LshStats {
    /// Distinct candidate pairs scored with the real metric.
    pub sim_evals: u64,
    /// `sim_evals / (|U|·(|U|−1)/2)`.
    pub scan_rate: f64,
    /// Non-empty buckets across all bands.
    pub buckets: u64,
    /// Population of the largest bucket seen.
    pub largest_bucket: usize,
    /// Pairs not scored because their bucket exceeded
    /// [`LshConfig::max_bucket`].
    pub skipped_pairs: u64,
    /// Wall time building signatures.
    pub signature_time: Duration,
    /// Wall time bucketing and scoring candidates.
    pub join_time: Duration,
    /// End-to-end wall time.
    pub total_time: Duration,
}

impl LshStats {
    fn finish(&mut self, n: usize) {
        let possible = n as f64 * (n as f64 - 1.0) / 2.0;
        self.scan_rate = if possible > 0.0 {
            self.sim_evals as f64 / possible
        } else {
            0.0
        };
    }
}

/// A configured LSH graph constructor.
///
/// ```
/// use kiff_baselines::{Lsh, LshConfig};
/// use kiff_dataset::dataset::figure2_toy;
/// use kiff_similarity::WeightedCosine;
///
/// let ds = figure2_toy();
/// let (graph, stats) = Lsh::new(LshConfig::new(1)).run(&ds, &WeightedCosine::new());
/// assert_eq!(graph.num_users(), 4);
/// assert!(stats.scan_rate <= 1.0); // each pair scored at most once
/// ```
#[derive(Debug, Clone)]
pub struct Lsh {
    config: LshConfig,
}

/// SplitMix64 finaliser: decorrelates consecutive inputs well enough for
/// hash-derived hyperplanes and permutations.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl Lsh {
    /// Creates an instance with `config`.
    pub fn new(config: LshConfig) -> Self {
        config.family.validate();
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &LshConfig {
        &self.config
    }

    /// Builds an approximate KNN graph of `dataset` under `sim`.
    pub fn run<S: Similarity + ?Sized>(&self, dataset: &Dataset, sim: &S) -> (KnnGraph, LshStats) {
        let total_start = Instant::now();
        let n = dataset.num_users();
        let mut stats = LshStats::default();

        let sig_start = Instant::now();
        let signatures = self.signatures(dataset);
        stats.signature_time = sig_start.elapsed();

        let join_start = Instant::now();
        let shared = SharedKnn::new(n, self.config.k);
        self.banded_join(dataset, sim, &signatures, &shared, &mut stats);
        stats.join_time = join_start.elapsed();

        stats.total_time = total_start.elapsed();
        stats.finish(n);
        (
            shared.snapshot(effective_threads(self.config.threads)),
            stats,
        )
    }

    /// Per-user signatures: one `u64` per band, flattened row-major.
    fn signatures(&self, dataset: &Dataset) -> Vec<u64> {
        let n = dataset.num_users();
        let bands = self.config.family.num_bands();
        let seed = self.config.seed;
        let family = self.config.family;
        let threads = effective_threads(self.config.threads);
        // Workers fold disjoint (user, row) batches; the scatter into the
        // flat buffer is sequential and cheap relative to hashing.
        let rows = parallel_fold(
            threads,
            n,
            64,
            Vec::<(usize, Vec<u64>)>::new,
            |acc, range| {
                for u in range {
                    let profile = dataset.user_profile(u as UserId);
                    let row = match family {
                        LshFamily::CosineHyperplane { bits, band_bits } => {
                            hyperplane_bands(profile, bits, band_bits, seed)
                        }
                        LshFamily::MinHash { hashes, band_size } => {
                            minhash_bands(profile, hashes, band_size, seed)
                        }
                    };
                    acc.push((u, row));
                }
            },
            |mut a, b| {
                a.extend(b);
                a
            },
        );
        let mut sigs = vec![0u64; n * bands];
        for (u, row) in rows {
            sigs[u * bands..u * bands + bands].copy_from_slice(&row);
        }
        sigs
    }

    /// Groups users by band bucket and scores all intra-bucket pairs.
    fn banded_join<S: Similarity + ?Sized>(
        &self,
        dataset: &Dataset,
        sim: &S,
        signatures: &[u64],
        shared: &SharedKnn,
        stats: &mut LshStats,
    ) {
        let n = dataset.num_users();
        let bands = self.config.family.num_bands();
        let max_bucket = self.config.max_bucket.max(2);
        let mut seen: FxHashSet<u64> = FxHashSet::default();
        let evals = Counter::new();
        let threads = effective_threads(self.config.threads);
        // Scorer-preparation arenas, reused across chunks and bands.
        let registry = self.config.telemetry.clone();
        let workspaces = ScratchPool::with_init(move || ScorerWorkspace::with_telemetry(&registry));

        for band in 0..bands {
            let mut buckets: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
            for u in 0..n {
                buckets
                    .entry(signatures[u * bands + band])
                    .or_default()
                    .push(u as u32);
            }
            stats.buckets += buckets.values().filter(|b| b.len() > 1).count() as u64;

            // Collect this band's new pairs (dedup against prior bands),
            // grouped bucket-locally by reference member: `refs[g]`
            // scores `partners[offsets[g]..offsets[g + 1]]`, so prepared
            // scoring preprocesses each bucket member once.
            let mut refs: Vec<u32> = Vec::new();
            let mut offsets: Vec<usize> = vec![0];
            let mut partners: Vec<u32> = Vec::new();
            for bucket in buckets.values_mut() {
                stats.largest_bucket = stats.largest_bucket.max(bucket.len());
                if bucket.len() > max_bucket {
                    let full = bucket.len() as u64;
                    let kept = max_bucket as u64;
                    stats.skipped_pairs += full * (full - 1) / 2 - kept * (kept - 1) / 2;
                    bucket.truncate(max_bucket);
                }
                for (idx, &a) in bucket.iter().enumerate() {
                    let start = partners.len();
                    for &b in &bucket[idx + 1..] {
                        let key = (u64::from(a.min(b)) << 32) | u64::from(a.max(b));
                        if seen.insert(key) {
                            partners.push(b);
                        }
                    }
                    if partners.len() > start {
                        refs.push(a);
                        offsets.push(partners.len());
                    }
                }
            }

            // Score each reference's new partners in parallel; heap
            // updates are locked.
            parallel_for(threads, refs.len(), 8, |range| {
                let mut ws = workspaces.checkout();
                let mut sims: Vec<f64> = Vec::new();
                for g in range {
                    let a = refs[g];
                    let group = &partners[offsets[g]..offsets[g + 1]];
                    match self.config.scoring {
                        ScoringMode::Prepared if group.len() >= PREPARED_MIN_BATCH => {
                            let mut scorer = sim.scorer(dataset, a, &mut ws);
                            scorer.score_into(group, &mut sims);
                        }
                        ScoringMode::Prepared | ScoringMode::Pairwise => {
                            ws.count_scores(group.len());
                            sims.clear();
                            sims.extend(group.iter().map(|&b| sim.sim(dataset, a, b)));
                        }
                    }
                    evals.add(group.len() as u64);
                    for (&b, &s) in group.iter().zip(sims.iter()) {
                        if s > 0.0 {
                            shared.update(a, b, s);
                            shared.update(b, a, s);
                        }
                    }
                }
            });
        }
        stats.sim_evals = evals.get();
    }
}

/// Random-hyperplane signature of one profile, packed band-wise.
fn hyperplane_bands(
    profile: kiff_dataset::ProfileRef<'_>,
    bits: usize,
    band_bits: usize,
    seed: u64,
) -> Vec<u64> {
    let mut projections = vec![0.0f64; bits];
    for (item, rating) in profile.iter() {
        let base = mix64(u64::from(item) ^ seed);
        for (j, proj) in projections.iter_mut().enumerate() {
            // One pseudo-random ±1 per (item, hyperplane).
            let h = mix64(base ^ ((j as u64) << 17));
            let sign = if h & 1 == 0 { 1.0 } else { -1.0 };
            *proj += sign * f64::from(rating);
        }
    }
    let bands = bits / band_bits;
    let mut out = vec![0u64; bands];
    for (j, &p) in projections.iter().enumerate() {
        if p > 0.0 {
            out[j / band_bits] |= 1 << (j % band_bits);
        }
    }
    // Tag each band with its index so identical bit patterns in different
    // bands never alias to the same bucket key space accidentally.
    for (band, v) in out.iter_mut().enumerate() {
        *v = mix64(*v ^ ((band as u64) << 56) ^ seed);
    }
    out
}

/// MinHash signature of one profile, one `u64` per band (the band's rows
/// hashed together).
fn minhash_bands(
    profile: kiff_dataset::ProfileRef<'_>,
    hashes: usize,
    band_size: usize,
    seed: u64,
) -> Vec<u64> {
    let bands = hashes / band_size;
    let mut out = vec![0u64; bands];
    let mut acc = 0u64;
    for t in 0..hashes {
        let mut min = u64::MAX;
        for &item in profile.items {
            let h = mix64(u64::from(item) ^ ((t as u64) << 32) ^ seed);
            min = min.min(h);
        }
        acc = mix64(acc ^ min);
        if (t + 1) % band_size == 0 {
            out[t / band_size] = mix64(acc ^ ((t as u64 / band_size as u64) << 56));
            acc = 0;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use kiff_dataset::dataset::figure2_toy;
    use kiff_dataset::generators::bipartite::{generate_bipartite, BipartiteConfig};
    use kiff_dataset::DatasetBuilder;
    use kiff_graph::{exact_knn, recall};
    use kiff_similarity::{Jaccard, WeightedCosine};

    #[test]
    fn hyperplane_reaches_useful_recall() {
        let ds = generate_bipartite(&BipartiteConfig::tiny("lshc", 157));
        let sim = WeightedCosine::fit(&ds);
        let cfg = LshConfig {
            family: LshFamily::CosineHyperplane {
                bits: 128,
                band_bits: 4,
            },
            ..LshConfig::new(10)
        };
        let (graph, stats) = Lsh::new(cfg).run(&ds, &sim);
        let exact = exact_knn(&ds, &sim, 10, None);
        let r = recall(&exact, &graph);
        assert!(r > 0.5, "recall = {r}");
        assert!(stats.sim_evals > 0);
        assert!(stats.scan_rate < 1.0, "LSH must not scan every pair");
    }

    #[test]
    fn minhash_reaches_useful_recall() {
        let ds = generate_bipartite(&BipartiteConfig::tiny("lshm", 163));
        let cfg = LshConfig {
            family: LshFamily::MinHash {
                hashes: 128,
                band_size: 2,
            },
            ..LshConfig::minhash(10)
        };
        let (graph, _) = Lsh::new(cfg).run(&ds, &Jaccard);
        let exact = exact_knn(&ds, &Jaccard, 10, None);
        let r = recall(&exact, &graph);
        assert!(r > 0.5, "recall = {r}");
    }

    #[test]
    fn minhash_collision_rate_tracks_jaccard() {
        // Two users with Jaccard 0.5 should agree on roughly half their
        // MinHash rows — a statistical sanity check of the family.
        let mut b = DatasetBuilder::new("mh", 2, 30);
        for i in 0..20 {
            b.add_rating(0, i, 1.0); // user 0: items 0..20
        }
        for i in 10..30 {
            b.add_rating(1, i, 1.0); // user 1: items 10..30 (overlap 10/30)
        }
        let ds = b.build();
        let hashes = 2048;
        let s0 = minhash_bands(ds.user_profile(0), hashes, 1, 7);
        let s1 = minhash_bands(ds.user_profile(1), hashes, 1, 7);
        let agree = s0.iter().zip(&s1).filter(|(a, b)| a == b).count();
        let rate = agree as f64 / hashes as f64;
        let jaccard = 10.0 / 30.0;
        assert!(
            (rate - jaccard).abs() < 0.05,
            "rate {rate} vs jaccard {jaccard}"
        );
    }

    #[test]
    fn hyperplane_agreement_tracks_cosine() {
        // Identical profiles collide on every bit; disjoint profiles on
        // roughly half of them.
        let ds = figure2_toy();
        let bits = 2048;
        let sig = |u| hyperplane_bands(ds.user_profile(u), bits, 1, 11);
        let (alice, carl, dave) = (sig(0), sig(2), sig(3));
        // Carl and Dave have identical profiles.
        assert_eq!(carl, dave);
        let agree = alice.iter().zip(&carl).filter(|(a, b)| a == b).count();
        let rate = agree as f64 / bits as f64;
        assert!(
            (rate - 0.5).abs() < 0.1,
            "disjoint profiles agree at {rate}, expected ≈ 0.5"
        );
    }

    #[test]
    fn scoring_modes_build_identical_graphs() {
        let ds = generate_bipartite(&BipartiteConfig::tiny("lshp", 151));
        let sim = WeightedCosine::fit(&ds);
        let cfg = |scoring| LshConfig {
            scoring,
            threads: Some(1),
            ..LshConfig::new(8)
        };
        let (prepared, ps) = Lsh::new(cfg(ScoringMode::Prepared)).run(&ds, &sim);
        let (pairwise, ws) = Lsh::new(cfg(ScoringMode::Pairwise)).run(&ds, &sim);
        assert_eq!(ps.sim_evals, ws.sim_evals);
        for u in 0..ds.num_users() as u32 {
            assert_eq!(prepared.neighbors(u), pairwise.neighbors(u), "user {u}");
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let ds = generate_bipartite(&BipartiteConfig::tiny("lshd", 167));
        let sim = WeightedCosine::fit(&ds);
        let (g1, s1) = Lsh::new(LshConfig::new(5)).run(&ds, &sim);
        let (g2, s2) = Lsh::new(LshConfig::new(5)).run(&ds, &sim);
        assert_eq!(s1.sim_evals, s2.sim_evals);
        for u in 0..ds.num_users() as u32 {
            let a: Vec<_> = g1.neighbors(u).iter().map(|x| x.id).collect();
            let b: Vec<_> = g2.neighbors(u).iter().map(|x| x.id).collect();
            assert_eq!(a, b, "user {u}");
        }
    }

    #[test]
    fn more_bands_find_more_pairs() {
        let ds = generate_bipartite(&BipartiteConfig::tiny("lshb", 173));
        let sim = WeightedCosine::fit(&ds);
        let narrow = LshConfig {
            family: LshFamily::CosineHyperplane {
                bits: 64,
                band_bits: 16,
            },
            ..LshConfig::new(5)
        };
        let wide = LshConfig {
            family: LshFamily::CosineHyperplane {
                bits: 64,
                band_bits: 4,
            },
            ..LshConfig::new(5)
        };
        let (_, sn) = Lsh::new(narrow).run(&ds, &sim);
        let (_, sw) = Lsh::new(wide).run(&ds, &sim);
        assert!(
            sw.sim_evals > sn.sim_evals,
            "wide {} !> narrow {}",
            sw.sim_evals,
            sn.sim_evals
        );
    }

    #[test]
    fn bucket_cap_limits_pairs() {
        // Every user shares one blockbuster item: a single giant bucket.
        let mut b = DatasetBuilder::new("cap", 40, 2);
        for u in 0..40 {
            b.add_rating(u, 0, 1.0);
        }
        let ds = b.build();
        let cfg = LshConfig {
            max_bucket: 8,
            family: LshFamily::MinHash {
                hashes: 4,
                band_size: 4,
            },
            ..LshConfig::minhash(3)
        };
        let (_, stats) = Lsh::new(cfg).run(&ds, &Jaccard);
        assert!(stats.skipped_pairs > 0, "cap never engaged");
        assert!(stats.largest_bucket == 40);
        assert!(stats.sim_evals <= 8 * 7 / 2);
    }

    #[test]
    fn rejects_invalid_banding() {
        let r = std::panic::catch_unwind(|| {
            Lsh::new(LshConfig {
                family: LshFamily::CosineHyperplane {
                    bits: 64,
                    band_bits: 7,
                },
                ..LshConfig::new(5)
            })
        });
        assert!(r.is_err(), "band_bits=7 must not divide bits=64");
    }

    #[test]
    fn empty_profiles_are_harmless() {
        let b = DatasetBuilder::new("empty", 3, 3);
        let ds = b.build();
        let (graph, stats) = Lsh::new(LshConfig::new(2)).run(&ds, &WeightedCosine::new());
        for u in 0..3 {
            assert!(graph.neighbors(u).is_empty());
        }
        // All-empty profiles collide, but zero similarity keeps heaps empty.
        assert_eq!(graph.num_edges(), 0);
        let _ = stats;
    }
}
