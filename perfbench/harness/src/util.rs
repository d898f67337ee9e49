//! Statistics, ground truth on a user sample, and the run report.

use std::path::Path;
use std::time::Instant;

use kiff_dataset::Dataset;
use kiff_graph::{recall_user, Neighbor};
use kiff_similarity::Similarity;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trace::Tracer;

/// The `q`-quantile (0..=1) of `values` by linear interpolation; NaN,
/// which makes the run incorrect, when there are none.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// `count` distinct users of `0..num_users`, drawn with `seed`.
pub fn sample_users(num_users: usize, count: usize, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_5a3b1e);
    let mut picked = std::collections::BTreeSet::new();
    while picked.len() < count.min(num_users) {
        picked.insert(rng.gen_range(0..num_users) as u32);
    }
    picked.into_iter().collect()
}

/// Exact `k` nearest neighbours of each user in `users`: every user
/// sharing an item is scored, so the lists are exact for a metric with
/// the sparse axioms (zero similarity without a shared item).
pub fn exact_for<S: Similarity + ?Sized>(
    dataset: &Dataset,
    sim: &S,
    users: &[u32],
    k: usize,
) -> Vec<Vec<Neighbor>> {
    let mut seen = vec![u32::MAX; dataset.num_users()];
    users
        .iter()
        .map(|&u| {
            let mut scored = Vec::new();
            for &item in dataset.user_profile(u).items {
                for &v in dataset.item_profile(item).items {
                    if v != u && seen[v as usize] != u {
                        seen[v as usize] = u;
                        let s = sim.sim(dataset, u, v);
                        if s > 0.0 {
                            scored.push(Neighbor { id: v, sim: s });
                        }
                    }
                }
            }
            scored.sort_by(|a, b| b.sim.total_cmp(&a.sim).then(a.id.cmp(&b.id)));
            scored.truncate(k);
            scored
        })
        .collect()
}

/// Mean tie-aware recall of `approx(u)` over the sampled users.
pub fn sample_recall<'a>(
    users: &[u32],
    exact: &[Vec<Neighbor>],
    k: usize,
    approx: impl Fn(u32) -> &'a [Neighbor],
) -> f64 {
    let total: f64 = users
        .iter()
        .zip(exact)
        .map(|(&u, ex)| recall_user(ex, approx(u), k))
        .sum();
    total / users.len().max(1) as f64
}

/// Median latency in milliseconds of a bare 4 KiB write plus
/// `sync_data` in `dir`: the disk's own fsync cost, without the WAL.
pub fn sync_data_ms(dir: &Path) -> f64 {
    use std::io::Write;
    let path = dir.join("fsync-probe");
    let mut file = std::fs::File::create(&path).expect("create fsync probe");
    let block = [0x5au8; 4096];
    let times: Vec<f64> = (0..20)
        .map(|_| {
            let start = Instant::now();
            file.write_all(&block).expect("write fsync probe");
            file.sync_data().expect("sync fsync probe");
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    drop(file);
    let _ = std::fs::remove_file(&path);
    median(&times)
}

/// What one run prints: the correctness verdict, operations attempted
/// and failed, named metrics, and the inputs it ran on.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    /// Input properties as `(name, rendered JSON value)`.
    pub inputs: Vec<(String, String)>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn new() -> Self {
        Self {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            inputs: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    pub fn input(&mut self, name: &str, value: f64) {
        self.inputs.push((name.to_string(), format!("{value:?}")));
    }

    /// Records a failed correctness check; the run is then not correct.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.correct = false;
            self.notes.push(format!("check failed: {}", what.into()));
        }
    }

    /// Adds the traced run's per-layer self times, uncovered remainder
    /// and wall time, and writes the spans to `spans`.
    pub fn trace_summary(&mut self, tracer: &Tracer, spans: Option<&Path>) {
        let (layers, wall, uncovered) = tracer.layer_summary();
        for (layer, secs) in layers {
            self.metric(format!("selftime.{layer}_s"), secs, "s");
        }
        self.metric("selftime.uncovered_s", uncovered, "s");
        self.metric("trace.wall_s", wall, "s");
        if let Some(path) = spans {
            if let Err(e) = tracer.write(path) {
                self.notes.push(format!("cannot write spans: {e}"));
            }
        }
    }

    /// The final result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct && self.attempted > 0 && self.metrics.iter().all(|m| m.1.is_finite()),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
