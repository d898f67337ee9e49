//! Dataset provisioning for the experiments.

use kiff_dataset::generators::bipartite::{generate_bipartite, BipartiteConfig};
use kiff_dataset::generators::RatingModel;
use kiff_dataset::{Dataset, PaperDataset};

/// Scale control for the paper suite: a multiplier applied on top of each
/// dataset's default scale (1.0 reproduces the defaults; smaller values
/// give quick smoke runs).
#[derive(Debug, Clone, Copy)]
pub struct SuiteScale {
    /// Multiplier on the per-dataset default scale.
    pub multiplier: f64,
}

impl SuiteScale {
    /// Effective generation scale for `dataset`.
    pub fn scale_for(&self, dataset: PaperDataset) -> f64 {
        (dataset.default_scale() * self.multiplier).min(2.0)
    }
}

/// A small Wikipedia-like dataset for tests that run all three algorithms.
pub fn small_bench_dataset(seed: u64) -> Dataset {
    generate_bipartite(&BipartiteConfig {
        name: "bench-small".to_string(),
        num_users: 400,
        num_items: 250,
        target_ratings: 6_000,
        user_degree_min: 1,
        user_degree_max: 120,
        item_exponent: 0.7,
        rating_model: RatingModel::Binary,
        seed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_scales_apply_defaults() {
        let s = SuiteScale { multiplier: 1.0 };
        assert_eq!(s.scale_for(PaperDataset::Wikipedia), 1.0);
        assert!((s.scale_for(PaperDataset::Dblp) - 1.0 / 16.0).abs() < 1e-12);
        let q = SuiteScale { multiplier: 0.25 };
        assert_eq!(q.scale_for(PaperDataset::Wikipedia), 0.25);
    }

    #[test]
    fn bench_datasets_are_small() {
        assert!(small_bench_dataset(1).num_users() <= 500);
    }
}
