//! Aggregator shards: the fleet-side machinery of hierarchical FedAvg.
//!
//! `bofl-fl` owns the *math* ([`ShardPlan`], [`UpdateAccumulator`] —
//! re-exported here): contiguous cohort ranges folded into fixed-point
//! partial sums whose merge is order-free. This module owns the
//! *execution*: [`drain_tasks`], the one deterministic work queue in the
//! workspace. It hands each shard (its member range plus its private
//! accumulator slot) to the worker pool, and `bofl-control`'s
//! event-driven engine drains each round's client jobs through it the
//! same way: results land in per-task slots and are read back in
//! canonical order, so worker count is invisible in the output.
//!
//! It also defines [`ShardRoundStats`], the per-shard accounting record:
//! every count is an integer, so *fleet-level* totals (summed in shard
//! order) are identical no matter how the cohort was partitioned — only
//! the per-shard breakdown itself depends on the plan, so it stays an
//! in-memory record on the report, never mixed into the identity-checked
//! trace.

use std::sync::Mutex;

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

/// Drains `tasks` across at most `workers` OS threads (never more
/// threads than tasks), giving each worker one private scratch value
/// built by `init`. Task results must land inside the task itself (each
/// task owns `&mut` access to its output slot), so scheduling order
/// cannot influence the outcome.
///
/// With `workers <= 1` (or a single task) everything runs inline on the
/// caller's thread: the parallel path is an optimization, never a
/// semantic fork.
pub fn drain_tasks<T, S>(
    workers: usize,
    tasks: Vec<T>,
    init: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, T) + Sync,
) where
    T: Send,
{
    if workers <= 1 || tasks.len() <= 1 {
        let mut scratch = init();
        for task in tasks {
            work(&mut scratch, task);
        }
        return;
    }
    let threads = workers.min(tasks.len());
    let queue = Mutex::new(tasks.into_iter());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut scratch = init();
                loop {
                    // Hold the lock only to pop; shard folding runs
                    // unlocked.
                    let task = { queue.lock().expect("queue poisoned").next() };
                    match task {
                        Some(task) => work(&mut scratch, task),
                        None => break,
                    }
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_tasks_runs_every_task_exactly_once() {
        for workers in [1usize, 2, 8] {
            let mut hits = vec![0u32; 100];
            let tasks: Vec<(usize, &mut u32)> = hits.iter_mut().enumerate().collect();
            drain_tasks(
                workers,
                tasks,
                || (),
                |(), (i, slot)| {
                    *slot += 1 + i as u32;
                },
            );
            assert!(
                hits.iter().enumerate().all(|(i, &h)| h == 1 + i as u32),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn drain_tasks_starts_no_more_workers_than_tasks() {
        for (workers, tasks) in [(8usize, 3usize), (8, 4), (2, 5), (3, 3)] {
            // `init` runs once on every started worker, idle or not.
            let started = Mutex::new(std::collections::HashSet::new());
            let init = || started.lock().unwrap().insert(std::thread::current().id());
            drain_tasks(workers, vec![(); tasks], init, |_, ()| {});
            let started = started.into_inner().unwrap().len();
            assert_eq!(
                started,
                workers.min(tasks),
                "{workers} workers, {tasks} tasks"
            );
        }
    }

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
