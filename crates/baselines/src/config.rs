//! Shared configuration for the greedy baselines.

use kiff_telemetry::Registry;

/// Parameters shared by NN-Descent and HyRec.
#[derive(Debug, Clone)]
pub struct GreedyConfig {
    /// Neighbourhood size `k`.
    pub k: usize,
    /// Termination threshold: stop when changes per user per iteration drop
    /// below this (the paper's `δ`/`β`).
    pub termination: f64,
    /// Worker threads (`None` = all available).
    pub threads: Option<usize>,
    /// RNG seed for the random initial graph.
    pub seed: u64,
    /// Hard cap on iterations (safety net; the paper's runs converge well
    /// before this).
    pub max_iterations: usize,
    /// Telemetry registry the run's scorers count into
    /// (`similarity.*`). Each config starts with its own enabled
    /// registry; share one with [`GreedyConfig::with_telemetry`].
    pub telemetry: Registry,
}

impl GreedyConfig {
    /// The paper's default parameters (§IV-D) for a given `k`.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            termination: 0.001,
            threads: None,
            seed: 42,
            max_iterations: 200,
            telemetry: Registry::new(),
        }
    }

    /// Records the run's scores into `registry` (shared, not copied).
    pub fn with_telemetry(mut self, registry: Registry) -> Self {
        self.telemetry = registry;
        self
    }
}
