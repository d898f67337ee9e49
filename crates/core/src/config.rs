//! KIFF configuration.

use kiff_telemetry::Registry;

/// Number of candidates popped from each RCS per iteration (Algorithm 1,
/// line 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gamma {
    /// Pop at most this many per iteration. The paper's default is `2k`.
    Fixed(usize),
    /// Exhaust the whole RCS in the first iteration (`γ = ∞`, §III-D): the
    /// result is the exact KNN under the sparse axioms.
    All,
}

impl Gamma {
    /// The pop budget for one iteration.
    pub fn budget(self) -> usize {
        match self {
            Gamma::Fixed(g) => g,
            Gamma::All => usize::MAX,
        }
    }
}

/// How RCS construction counts shared items.
///
/// * [`CountStrategy::Dense`] (default) — the production path: an
///   epoch-stamped dense counter per worker and a counting sort over
///   multiplicities (which are bounded by the user's degree), written
///   straight into the flat CSR. O(1) per gathered candidate, no hashing,
///   no sort of the raw multiset.
/// * [`CountStrategy::Reference`] — the counting oracle: gather, radix-sort
///   and run-length encode each user's candidates into a `Vec`, then
///   flatten. The agreement tests and the `counting` bench experiment
///   compare the dense path against it, the way they compare prepared
///   scoring against the `kiff_similarity::Pairwise` wrapper of a metric.
///
/// Both produce bit-identical
/// [`RankedCandidates`](crate::counting::RankedCandidates) (offsets, ids
/// *and* counts), property-tested in `tests/counting_scorers.rs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CountStrategy {
    /// Epoch-stamped dense counting + counting sort by multiplicity.
    #[default]
    Dense,
    /// Per-user gather, radix-sort and run-length encode, then flatten.
    Reference,
}

/// How much of the refinement loop's per-activity wall-clock
/// instrumentation is collected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TimingMode {
    /// Time 1 in 64 scheduling chunks and scale the totals by the timed
    /// fraction of similarity evaluations — phase *shares* stay accurate
    /// while the hot loop takes two timestamps per 64 chunks instead of
    /// six per user. Default.
    #[default]
    Sampled,
    /// Time every user (the paper-faithful breakdown; measurably slows
    /// the loop on fast metrics).
    Full,
    /// No per-activity timing; the corresponding [`crate::KiffStats`]
    /// fields stay zero.
    Off,
}

/// Full KIFF configuration. Defaults follow §IV-D: `γ = 2k`, `β = 0.001`.
#[derive(Debug, Clone)]
pub struct KiffConfig {
    /// Neighbourhood size `k`.
    pub k: usize,
    /// Per-iteration pop budget `γ`.
    pub gamma: Gamma,
    /// Termination threshold `β`: stop when changes-per-user in an
    /// iteration drop below it. `0.0` runs until every RCS is exhausted.
    pub beta: f64,
    /// Worker threads (`None` = all available).
    pub threads: Option<usize>,
    /// Safety cap on iterations.
    pub max_iterations: usize,
    /// Counting path: the dense counter, or the reference oracle.
    pub count_strategy: CountStrategy,
    /// Optional §VII heuristic: only ratings at or above this value
    /// contribute RCS candidates (shrinks RCSs on rating-valued data).
    pub rating_threshold: Option<f32>,
    /// Optional §VII-style cap on RCS length (top entries by shared-item
    /// count). Bounds memory and scan rate; `None` keeps full RCSs.
    pub max_rcs: Option<usize>,
    /// How much per-activity wall-clock instrumentation refinement
    /// collects.
    pub timing: TimingMode,
    /// Telemetry registry the run records into (`core.refine.*`
    /// counters, `core.phase.*_ns` histograms, `similarity.*` scorer
    /// counters). Each config starts with its own enabled registry;
    /// share one across layers with
    /// [`KiffConfig::with_telemetry`].
    pub telemetry: Registry,
}

impl KiffConfig {
    /// The paper's default parameters for neighbourhood size `k`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        Self {
            k,
            gamma: Gamma::Fixed(2 * k),
            beta: 0.001,
            threads: None,
            max_iterations: 10_000,
            count_strategy: CountStrategy::Dense,
            rating_threshold: None,
            max_rcs: None,
            timing: TimingMode::Sampled,
            telemetry: Registry::new(),
        }
    }

    /// Exact mode: `γ = ∞`, `β = 0` (§III-D).
    pub fn exact(k: usize) -> Self {
        Self {
            gamma: Gamma::All,
            beta: 0.0,
            ..Self::new(k)
        }
    }

    /// Sets `γ`.
    pub fn with_gamma(mut self, gamma: usize) -> Self {
        self.gamma = Gamma::Fixed(gamma);
        self
    }

    /// Sets `β`.
    pub fn with_beta(mut self, beta: f64) -> Self {
        assert!(beta >= 0.0 && beta.is_finite());
        self.beta = beta;
        self
    }

    /// Sets the worker thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Enables the §VII rating-threshold heuristic.
    pub fn with_rating_threshold(mut self, threshold: f32) -> Self {
        assert!(threshold.is_finite() && threshold > 0.0);
        self.rating_threshold = Some(threshold);
        self
    }

    /// Caps every RCS at its top `cap` entries by shared-item count
    /// (the other §VII insertion limit).
    pub fn with_max_rcs(mut self, cap: usize) -> Self {
        assert!(cap > 0, "cap must be positive");
        self.max_rcs = Some(cap);
        self
    }

    /// Sets the counting path.
    pub fn with_count_strategy(mut self, strategy: CountStrategy) -> Self {
        self.count_strategy = strategy;
        self
    }

    /// Sets the instrumentation level of the refinement loop.
    pub fn with_timing(mut self, timing: TimingMode) -> Self {
        self.timing = timing;
        self
    }

    /// Records the run into `registry` (shared, not copied): pass the
    /// same registry to several configs/engines to aggregate one
    /// unified snapshot across layers, or a
    /// [`Registry::disabled`] one to reduce recording to a single
    /// relaxed load per instrument operation.
    pub fn with_telemetry(mut self, registry: Registry) -> Self {
        self.telemetry = registry;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let cfg = KiffConfig::new(20);
        assert_eq!(cfg.k, 20);
        assert_eq!(cfg.gamma, Gamma::Fixed(40));
        assert_eq!(cfg.beta, 0.001);
        assert_eq!(cfg.count_strategy, CountStrategy::Dense);
        assert_eq!(cfg.timing, TimingMode::Sampled);
    }

    #[test]
    fn exact_mode() {
        let cfg = KiffConfig::exact(5);
        assert_eq!(cfg.gamma, Gamma::All);
        assert_eq!(cfg.beta, 0.0);
        assert_eq!(cfg.gamma.budget(), usize::MAX);
    }

    #[test]
    fn builder_methods() {
        let cfg = KiffConfig::new(10)
            .with_gamma(7)
            .with_beta(0.1)
            .with_threads(2);
        assert_eq!(cfg.gamma, Gamma::Fixed(7));
        assert_eq!(cfg.beta, 0.1);
        assert_eq!(cfg.threads, Some(2));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_k_rejected() {
        let _ = KiffConfig::new(0);
    }
}
