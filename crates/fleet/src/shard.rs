//! Aggregator shards: the fleet-side machinery of hierarchical FedAvg.
//!
//! `bofl-fl` owns the *math* ([`ShardPlan`], [`UpdateAccumulator`] —
//! re-exported here): contiguous cohort ranges folded into fixed-point
//! partial sums whose merge is order-free. The scale simulation folds
//! each shard (its member range plus its private accumulator slot) on the
//! workspace's one fan-out, [`bofl::drain_tasks`]: results land in
//! per-task slots and are read back in canonical order, so worker count
//! is invisible in the output.
//!
//! This module defines [`ShardRoundStats`], the per-shard accounting record:
//! every count is an integer, so *fleet-level* totals (summed in shard
//! order) are identical no matter how the cohort was partitioned — only
//! the per-shard breakdown itself depends on the plan, so it stays an
//! in-memory record on the report, never mixed into the identity-checked
//! trace.

pub use bofl_fl::aggregate::{aggregate_sharded, ShardPlan, UpdateAccumulator};

/// Per-shard, per-round accounting: membership, aggregation outcome,
/// faults, energy and wire traffic — all integers, so any grouping of
/// shards sums to the same fleet totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardRoundStats {
    /// Round index.
    pub round: u32,
    /// Shard index within the round's plan.
    pub shard: u32,
    /// Cohort members assigned to this shard.
    pub members: u32,
    /// Members whose updates were folded into the shard's partial sum.
    pub aggregated: u32,
    /// Total FedAvg weight (sample count) this shard accumulated.
    pub weight: u64,
    /// The shard-local quorum (`ceil(members × quorum_fraction)`).
    pub quorum: u32,
    /// How many updates short of the shard quorum this shard fell.
    pub shortfall: u32,
    /// Members lost to dropout.
    pub dropped: u32,
    /// Members that straggled (slowdown > 1).
    pub straggled: u32,
    /// Members that missed the round deadline outright.
    pub missed_deadline: u32,
    /// Members whose upload ultimately failed after all retries.
    pub upload_failed: u32,
    /// Extra upload attempts spent by this shard's members.
    pub retries: u32,
    /// Members whose upload succeeded only thanks to a retry.
    pub recovered: u32,
    /// Members that churned out mid-round.
    pub departed: u32,
    /// Energy this shard's members burned, millijoules.
    pub energy_mj: u64,
    /// Simulated bytes this shard put on the uplink (compressed).
    pub wire_bytes: u64,
    /// Bytes the same updates would have cost uncompressed.
    pub raw_bytes: u64,
}

impl ShardRoundStats {
    /// Adds this shard's integer counters into a fleet-level total
    /// (identity fields excluded — totals are grouping-free).
    pub(crate) fn add_into(&self, total: &mut ShardRoundStats) {
        total.members += self.members;
        total.aggregated += self.aggregated;
        total.weight += self.weight;
        total.shortfall += self.shortfall;
        total.dropped += self.dropped;
        total.straggled += self.straggled;
        total.missed_deadline += self.missed_deadline;
        total.upload_failed += self.upload_failed;
        total.retries += self.retries;
        total.recovered += self.recovered;
        total.departed += self.departed;
        total.energy_mj += self.energy_mj;
        total.wire_bytes += self.wire_bytes;
        total.raw_bytes += self.raw_bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_totals_are_grouping_free() {
        let stats: Vec<ShardRoundStats> = (0..16)
            .map(|s| ShardRoundStats {
                round: 1,
                shard: s,
                members: 10 + s,
                aggregated: 8 + s,
                weight: 100 * (s as u64 + 1),
                energy_mj: 5_000 + s as u64,
                wire_bytes: 64 * (s as u64 + 1),
                raw_bytes: 512 * (s as u64 + 1),
                ..ShardRoundStats::default()
            })
            .collect();
        let mut forward = ShardRoundStats::default();
        let mut backward = ShardRoundStats::default();
        for s in &stats {
            s.add_into(&mut forward);
        }
        for s in stats.iter().rev() {
            s.add_into(&mut backward);
        }
        assert_eq!(forward, backward);
        assert_eq!(forward.members, (0..16).map(|s| 10 + s).sum::<u32>());
    }
}
