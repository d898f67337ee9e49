//! Streamed mutations and per-update work accounting.

use kiff_dataset::{ItemId, Rating, UserId};
use kiff_graph::EditStats;

/// One streamed mutation of the live dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Update {
    /// `ρ(user, item) += rating` — a new rating, or reinforcement of an
    /// existing one. Rating an item id beyond the current bound grows the
    /// item space; a `user` id one past the current bound implicitly adds
    /// that user (streams commonly interleave first-ever ratings of new
    /// users).
    AddRating {
        /// Rating user.
        user: UserId,
        /// Rated item.
        item: ItemId,
        /// Positive, finite rating value.
        rating: Rating,
    },
    /// Appends a user with an empty profile (the next dense id).
    AddUser,
    /// Deletes the rating `(user, item)`; a no-op when absent.
    RemoveRating {
        /// Rating user.
        user: UserId,
        /// Rated item.
        item: ItemId,
    },
}

/// Work performed by one `apply`/`apply_batch` call — the serving-cost
/// counters a capacity model needs (scan-rate analogue of §IV-C, but per
/// update instead of per construction).
///
/// The [`kiff_telemetry::Registry`] the engine records into (see
/// `OnlineConfig::telemetry`) carries the lifetime twins of these
/// per-call figures plus latency distributions the struct cannot hold:
/// `online.sims` mirrors [`UpdateStats::sim_evals`], the per-batch
/// [`UpdateStats::cross_messages`] is *derived* from the per-shard
/// `shard.N.cross_messages` counters (their delta across the batch), and
/// `online.apply_ns` / `online.repair_round_ns` / `shard.N.repair_ns`
/// histograms time what these counters only count.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct UpdateStats {
    /// Mutations applied (1 for `apply`, the batch length for
    /// `apply_batch`).
    pub updates: u64,
    /// Similarity evaluations performed by repair.
    pub sim_evals: u64,
    /// Shared-item counter adjustments (two per affected co-rater pair).
    pub counter_adjustments: u64,
    /// Heap edits, broken down by kind.
    pub edits: EditStats,
    /// Users re-scored against their candidate prefix (repair + Debatty
    /// propagation through reverse neighbours).
    pub repaired_users: u64,
    /// Cross-shard messages sent (always 0 on one shard): the
    /// coordination cost of sharding. It is the per-batch delta of the
    /// `shard.N.cross_messages` telemetry counters, so it reads 0 when
    /// the engine records into a disabled registry.
    pub cross_messages: u64,
    /// Whether this call ended with a delta-storage re-compaction.
    pub compacted: bool,
}

impl UpdateStats {
    /// Accumulates `other` into `self` (compaction is sticky).
    pub fn merge(&mut self, other: &UpdateStats) {
        self.updates += other.updates;
        self.sim_evals += other.sim_evals;
        self.counter_adjustments += other.counter_adjustments;
        self.edits.merge(&other.edits);
        self.repaired_users += other.repaired_users;
        self.cross_messages += other.cross_messages;
        self.compacted |= other.compacted;
    }

    /// Mean similarity evaluations per applied update.
    pub fn sim_evals_per_update(&self) -> f64 {
        if self.updates == 0 {
            0.0
        } else {
            self.sim_evals as f64 / self.updates as f64
        }
    }

    /// Mean heap edits (repaired edges) per applied update.
    pub fn edits_per_update(&self) -> f64 {
        if self.updates == 0 {
            0.0
        } else {
            self.edits.total() as f64 / self.updates as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates_and_averages() {
        let mut a = UpdateStats {
            updates: 1,
            sim_evals: 10,
            counter_adjustments: 4,
            edits: EditStats {
                inserts: 2,
                evictions: 1,
                removals: 0,
                reprioritized: 3,
            },
            repaired_users: 2,
            cross_messages: 5,
            compacted: false,
        };
        let b = UpdateStats {
            updates: 3,
            sim_evals: 2,
            compacted: true,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.updates, 4);
        assert_eq!(a.sim_evals, 12);
        assert_eq!(a.cross_messages, 5);
        assert!(a.compacted);
        assert!((a.sim_evals_per_update() - 3.0).abs() < 1e-12);
        assert!((a.edits_per_update() - 1.5).abs() < 1e-12);
    }
}
