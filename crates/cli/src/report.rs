//! Single-funnel human-readable reporting for `kiff update`.
//!
//! Every line `kiff update` prints passes through [`UpdateReport`]: the
//! command accumulates typed sections while it works and flushes the
//! whole report with one [`UpdateReport::write_to`] call at the end.
//! Because nothing is written to the stream mid-replay, the
//! human-readable output can never interleave with a `--metrics-out`
//! export (which goes to its own file via a separate write).

use std::io::{self, Write};
use std::path::Path;
use std::time::Duration;

use kiff::online::UpdateStats;
use kiff::telemetry::MetricsFormat;

/// Accumulates the `kiff update` report; see the module docs.
#[derive(Debug, Default)]
pub struct UpdateReport {
    lines: Vec<String>,
}

impl UpdateReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// The base dataset the initial graph is built from.
    pub fn base(&mut self, users: usize, items: usize, ratings: usize) {
        self.lines.push(format!(
            "base    : {users} users, {items} items, {ratings} ratings"
        ));
    }

    /// The joined update stream.
    pub fn stream(&mut self, updates: usize, new_users: usize, new_items: usize) {
        self.lines.push(format!(
            "stream  : {updates} updates ({new_users} new users, {new_items} new items)"
        ));
    }

    /// The shard layout (omitted on one shard).
    pub fn shards(&mut self, sizes: &[usize]) {
        self.lines
            .push(format!("shards  : {} (sizes {sizes:?})", sizes.len()));
    }

    /// Wall time of the initial graph construction.
    pub fn initial_build(&mut self, elapsed: Duration) {
        self.lines.push(format!("initial build: {elapsed:?}"));
    }

    /// The replay summary: throughput plus per-update work figures.
    pub fn replay(&mut self, life: &UpdateStats, elapsed: Duration, batch: usize) {
        self.lines.push(format!(
            "replayed {} updates in {elapsed:.1?} ({:.0} updates/s, batch {batch})",
            life.updates,
            life.updates as f64 / elapsed.as_secs_f64().max(1e-9)
        ));
        self.lines.push(format!(
            "work/update: {:.1} sim evals, {:.2} repaired edges, {:.2} users repaired",
            life.sim_evals_per_update(),
            life.edits_per_update(),
            life.repaired_users as f64 / life.updates.max(1) as f64
        ));
    }

    /// Cross-shard coordination cost (sharded engine only).
    pub fn cross_shard(&mut self, messages: u64, sizes: &[usize]) {
        self.lines.push(format!(
            "cross-shard: {messages} messages (final sizes {sizes:?})"
        ));
    }

    /// The rebuild-from-scratch comparison; `per_update` is the replay's
    /// mean similarity evaluations per update.
    pub fn rebuild(&mut self, sim_evals: u64, elapsed: Duration, recall: f64, per_update: f64) {
        self.lines.push(format!(
            "full rebuild: {sim_evals} sim evals in {elapsed:.1?}"
        ));
        self.lines.push(format!("recall vs rebuild: {recall:.4}"));
        if per_update > 0.0 {
            self.lines.push(format!(
                "per-update work is {:.0}x below one rebuild",
                sim_evals as f64 / per_update
            ));
        }
    }

    /// Notes where the telemetry snapshot went (`--metrics-out`).
    pub fn metrics_written(&mut self, path: &Path, format: MetricsFormat, instruments: usize) {
        self.lines.push(format!(
            "telemetry: {instruments} instruments -> {} ({})",
            path.display(),
            format.name()
        ));
    }

    /// Flushes the whole report with one write.
    pub fn write_to(&self, out: &mut dyn Write) -> io::Result<()> {
        let mut text = String::with_capacity(self.lines.iter().map(|l| l.len() + 1).sum());
        for line in &self.lines {
            text.push_str(line);
            text.push('\n');
        }
        out.write_all(text.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sections_render_in_insertion_order() {
        let mut report = UpdateReport::new();
        report.base(4, 4, 8);
        report.stream(3, 1, 0);
        report.shards(&[2, 2]);
        report.initial_build(Duration::from_millis(5));
        let life = UpdateStats {
            updates: 3,
            sim_evals: 30,
            repaired_users: 6,
            ..Default::default()
        };
        report.replay(&life, Duration::from_millis(10), 2);
        report.cross_shard(7, &[3, 2]);
        report.rebuild(100, Duration::from_millis(8), 0.95, 10.0);
        report.metrics_written(Path::new("m.json"), MetricsFormat::Json, 12);
        let mut out = Vec::new();
        report.write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let expect_in_order = [
            "base    : 4 users, 4 items, 8 ratings",
            "stream  : 3 updates (1 new users, 0 new items)",
            "shards  : 2 (sizes [2, 2])",
            "initial build:",
            "replayed 3 updates",
            "work/update: 10.0 sim evals",
            "cross-shard: 7 messages (final sizes [3, 2])",
            "full rebuild: 100 sim evals",
            "recall vs rebuild: 0.9500",
            "per-update work is 10x below one rebuild",
            "telemetry: 12 instruments -> m.json (json)",
        ];
        let mut cursor = 0;
        for needle in expect_in_order {
            let at = text[cursor..]
                .find(needle)
                .unwrap_or_else(|| panic!("missing '{needle}' after byte {cursor}:\n{text}"));
            cursor += at + needle.len();
        }
    }

    #[test]
    fn rebuild_without_update_work_omits_the_ratio() {
        let mut report = UpdateReport::new();
        report.rebuild(100, Duration::from_millis(1), 1.0, 0.0);
        let mut out = Vec::new();
        report.write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(!text.contains("below one rebuild"), "{text}");
    }
}
