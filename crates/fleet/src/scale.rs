//! Million-client scale simulation: hierarchical sharded FedAvg over a
//! registry of lightweight clients.
//!
//! `bofl_control::ControlSimulation` runs *real* clients — live models,
//! SGD steps, device simulators — which tops out around thousands. This
//! module is the other end of the telescope: each client is a compact
//! [`ClientStat`] record (20 bytes), its per-round behaviour (faults,
//! retries, energy, synthetic update) is a pure function of
//! `(seed, round, id)`, and the server work is the real thing — the same
//! [`ShardPlan`]/[`UpdateAccumulator`] reduction, the same [`FaultPlan`]
//! streams, the same [`Compressor`] uplink encodings as the small-scale
//! engines. That makes a 1M-client × 100-round run a seconds-scale
//! workload while every scaling claim (shard invariance, bytes on wire,
//! per-shard quorum accounting) is exercised for real.
//!
//! # Determinism contract
//!
//! The [`ScaleReport`]'s trace and final model depend **only** on the
//! configuration — not on worker count (results land in per-shard slots,
//! merged canonically) and not on shard count (fixed-point folds are
//! order-free; every trace field is an integer sum over *clients*, or the
//! hash of the model those sums produce). The per-shard breakdown
//! ([`ScaleReport::shard_stats`]) naturally differs between plans; it
//! stays in memory for callers to inspect and is never written out or
//! hashed.

use std::collections::HashMap;

use crate::compress::{CompressedUpdate, Compressor, Int8Quantizer, COMPRESS_SALT};
use crate::fault::{splitmix64, stream_seed, ChurnStatus, FaultPlan};
use crate::generator::DeviceKind;
use crate::sampler::{ClientSampler, ClientStat, UniformSampler};
use crate::shard::{ShardPlan, ShardRoundStats, UpdateAccumulator};
use bofl::drain_tasks;

/// Salt for the synthetic-update stream.
const UPDATE_SALT: u64 = 0x0B5E_55ED_0DA7_A5A1;
/// Salt for the loss-evolution stream.
const LOSS_SALT: u64 = 0x10_55_DE_CA_ED_05;

/// Configuration of a scale simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleConfig {
    /// Registered fleet size (clients the sampler chooses from).
    pub fleet_size: usize,
    /// Cohort size per round.
    pub cohort: usize,
    /// Number of rounds.
    pub rounds: usize,
    /// Model dimensionality.
    pub dim: usize,
    /// Master seed: fully determines the run.
    pub seed: u64,
    /// How the cohort is partitioned into aggregator shards.
    pub shard_plan: ShardPlan,
    /// Worker threads reducing the shards (any count, same output).
    pub workers: usize,
    /// Per-shard quorum fraction (`ceil(members × fraction)` updates per
    /// shard, `0.0` disables shard quorums). Accounting only — shortfalls
    /// are recorded, never used to discard arrived work.
    pub shard_quorum_fraction: f64,
    /// Fraction of the fleet on AGX-class boards (the rest TX2-class).
    pub agx_fraction: f64,
    /// Upload attempts per client before the update counts as lost.
    pub max_upload_attempts: u32,
    /// A straggler misses the round deadline when its slowdown factor
    /// exceeds this headroom.
    pub deadline_headroom: f64,
    /// Keep per-client error-feedback residuals across rounds (costs
    /// `O(participants × dim)` memory; off by default at the 1M scale).
    pub error_feedback: bool,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        ScaleConfig {
            fleet_size: 10_000,
            cohort: 512,
            rounds: 10,
            dim: 32,
            seed: 42,
            shard_plan: ShardPlan::with_shards(16),
            workers: 1,
            shard_quorum_fraction: 0.5,
            agx_fraction: 0.5,
            max_upload_attempts: 2,
            deadline_headroom: 2.0,
            error_feedback: false,
        }
    }
}

/// One registered client's immutable traits plus its evolving stats —
/// see [`ClientStat`] (the sampler-facing view is the whole record).
fn registry(config: &ScaleConfig) -> Vec<ClientStat> {
    (0..config.fleet_size)
        .map(|id| {
            let h = splitmix64(config.seed ^ (id as u64).wrapping_mul(0xA076_1D64_78BD_642F));
            let kind = if unit_from(h) < config.agx_fraction {
                DeviceKind::JetsonAgx
            } else {
                DeviceKind::JetsonTx2
            };
            let h2 = splitmix64(h ^ 0x9E37_79B9_7F4A_7C15);
            let h3 = splitmix64(h2 ^ 0x2545_F491_4F6C_DD1D);
            ClientStat {
                // Local dataset sizes spread 32..=256 (FedAvg weights).
                samples: 32 + (h2 % 225) as u32,
                // Unit-level spread of ±15% around the class baseline.
                energy_j_est: (kind.nominal_round_energy_j() * (0.85 + 0.30 * unit_from(h3)))
                    as f32,
                last_loss: (1.0 + 0.5 * unit_from(splitmix64(h3 ^ 0xDEAD))) as f32,
                last_selected: u32::MAX,
                kind,
            }
        })
        .collect()
}

/// What happened to one cohort member this round: pure in the config,
/// fault plan, round and client, so its shard task draws it.
#[derive(Debug, Clone, Copy, Default)]
struct MemberOutcome {
    aggregated: bool,
    dropped: bool,
    straggled: bool,
    missed_deadline: bool,
    upload_failed: bool,
    departed: bool,
    retries: u32,
    recovered: bool,
    energy_mj: u64,
    next_loss: f32,
}

/// A cohort member's slot for the parallel pass: identity, the outcome
/// its shard task draws, and (with error feedback) its residual,
/// temporarily moved out of the registry map so shard workers get
/// disjoint ownership.
struct Cell {
    id: u32,
    outcome: MemberOutcome,
    residual: Option<Vec<f64>>,
}

/// Per-shard reduction slot: accumulator + accounting, preallocated once
/// and reused every round.
#[derive(Default)]
struct ShardSlot {
    acc: UpdateAccumulator,
    stats: ShardRoundStats,
}

/// Per-worker scratch: synthetic update, wire encoding, decoded update.
#[derive(Default)]
struct WorkerScratch {
    update: Vec<f64>,
    decoded: Vec<f64>,
    wire: CompressedUpdate,
}

/// One row of the identity-checked trace. Every field is either an
/// integer sum over *clients* (grouping-free) or derived from the global
/// model those sums produce — nothing here can depend on the shard plan
/// or worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleRoundTrace {
    /// Round index.
    pub round: u32,
    /// Cohort members selected.
    pub selected: u32,
    /// Updates folded into the global model.
    pub aggregated: u32,
    /// Total FedAvg weight aggregated.
    pub weight: u64,
    /// Members lost to dropout.
    pub dropped: u32,
    /// Members that straggled.
    pub straggled: u32,
    /// Members whose slowdown blew the deadline.
    pub missed_deadline: u32,
    /// Members whose upload failed after all retries.
    pub upload_failed: u32,
    /// Extra upload attempts spent.
    pub retries: u32,
    /// Uploads saved by a retry.
    pub recovered: u32,
    /// Members that churned out mid-round.
    pub departed: u32,
    /// Cohort energy, millijoules.
    pub energy_mj: u64,
    /// Compressed bytes on the uplink.
    pub wire_bytes: u64,
    /// Bytes the same updates would cost uncompressed.
    pub raw_bytes: u64,
    /// FNV-1a hash of the global model's exact bits after this round.
    pub model_hash: u64,
}

/// The outcome of a scale run: the identity-checked trace, the per-shard
/// diagnostic breakdown, and the final global model.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleReport {
    /// Per-round identity trace (shard/worker-count invariant).
    pub trace: Vec<ScaleRoundTrace>,
    /// Per-shard accounting, all rounds flattened (plan-dependent).
    pub shard_stats: Vec<ShardRoundStats>,
    /// The final global model.
    pub final_model: Vec<f64>,
    /// Which sampler chose the cohorts.
    pub sampler: &'static str,
    /// Which compressor encoded the uplink.
    pub compressor: &'static str,
}

impl ScaleReport {
    /// FNV-1a hash over the final model's exact bits.
    pub fn model_hash(&self) -> u64 {
        hash_model(&self.final_model)
    }

    /// FNV-1a hash over the whole trace: each row's 15 fields in round
    /// order, comma-separated, the model hash as 16 hex digits.
    pub fn trace_hash(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for r in &self.trace {
            let row = format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{:016x}",
                r.round,
                r.selected,
                r.aggregated,
                r.weight,
                r.dropped,
                r.straggled,
                r.missed_deadline,
                r.upload_failed,
                r.retries,
                r.recovered,
                r.departed,
                r.energy_mj,
                r.wire_bytes,
                r.raw_bytes,
                r.model_hash,
            );
            for b in row.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        }
        h
    }

    /// Total energy across the run, joules.
    pub fn total_energy_j(&self) -> f64 {
        self.trace.iter().map(|r| r.energy_mj).sum::<u64>() as f64 / 1e3
    }

    /// Total compressed uplink traffic, bytes.
    pub fn wire_bytes(&self) -> u64 {
        self.trace.iter().map(|r| r.wire_bytes).sum()
    }

    /// Uplink traffic the run would have cost uncompressed, bytes.
    pub fn raw_bytes(&self) -> u64 {
        self.trace.iter().map(|r| r.raw_bytes).sum()
    }

    /// Raw-to-wire compression ratio (`1.0` when nothing was sent).
    pub fn compression_ratio(&self) -> f64 {
        let wire = self.wire_bytes();
        if wire == 0 {
            return 1.0;
        }
        self.raw_bytes() as f64 / wire as f64
    }

    /// Rounds in which at least one shard missed its local quorum.
    pub fn shard_shortfall_rounds(&self) -> usize {
        let mut rounds: Vec<u32> = self
            .shard_stats
            .iter()
            .filter(|s| s.shortfall > 0)
            .map(|s| s.round)
            .collect();
        rounds.dedup();
        rounds.len()
    }
}

/// The scale simulation. Build with [`ScaleSimulation::builder`], run
/// with [`ScaleSimulation::run`].
pub struct ScaleSimulation {
    config: ScaleConfig,
    sampler: Box<dyn ClientSampler>,
    compressor: Box<dyn Compressor>,
    faults: FaultPlan,
    clients: Vec<ClientStat>,
    global: Vec<f64>,
    residuals: HashMap<u32, Vec<f64>>,
    // Reused per-round buffers — the steady-state round allocates
    // nothing beyond what the OS hands the worker threads.
    cohort: Vec<u32>,
    cells: Vec<Cell>,
    slots: Vec<ShardSlot>,
    root: UpdateAccumulator,
    avg: Vec<f64>,
}

impl std::fmt::Debug for ScaleSimulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScaleSimulation")
            .field("fleet", &self.config.fleet_size)
            .field("cohort", &self.config.cohort)
            .field("rounds", &self.config.rounds)
            .field("shards", &self.config.shard_plan.shards())
            .field("workers", &self.config.workers)
            .finish()
    }
}

/// Builder for a [`ScaleSimulation`].
pub struct ScaleSimulationBuilder {
    config: ScaleConfig,
    sampler: Box<dyn ClientSampler>,
    compressor: Box<dyn Compressor>,
    faults: FaultPlan,
}

impl std::fmt::Debug for ScaleSimulationBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScaleSimulationBuilder")
            .field("config", &self.config)
            .finish()
    }
}

impl ScaleSimulationBuilder {
    /// Sets the cohort-selection policy (defaults to [`UniformSampler`]).
    #[must_use]
    pub fn sampler(mut self, sampler: impl ClientSampler + 'static) -> Self {
        self.sampler = Box::new(sampler);
        self
    }

    /// Sets the uplink compressor (defaults to [`Int8Quantizer`]).
    #[must_use]
    pub fn compressor(mut self, compressor: impl Compressor + 'static) -> Self {
        self.compressor = Box::new(compressor);
        self
    }

    /// Sets the fault plan (defaults to a light dropout/straggler mix
    /// seeded from the master seed).
    #[must_use]
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Builds the simulation, materializing the client registry.
    pub fn build(self) -> ScaleSimulation {
        let config = self.config;
        let clients = registry(&config);
        let slots = (0..config.shard_plan.shard_count(config.cohort.max(1)))
            .map(|_| ShardSlot::default())
            .collect();
        ScaleSimulation {
            clients,
            global: initial_model(&config),
            residuals: HashMap::new(),
            cohort: Vec::with_capacity(config.cohort),
            cells: Vec::with_capacity(config.cohort),
            slots,
            root: UpdateAccumulator::new(),
            avg: Vec::with_capacity(config.dim),
            sampler: self.sampler,
            compressor: self.compressor,
            faults: self.faults,
            config,
        }
    }
}

impl ScaleSimulation {
    /// Starts building a scale simulation.
    pub fn builder(config: ScaleConfig) -> ScaleSimulationBuilder {
        ScaleSimulationBuilder {
            faults: FaultPlan::new(config.seed ^ 0xFA_17)
                .with_dropout(0.02)
                .with_stragglers(0.08, (1.2, 3.0))
                .with_upload_failures(0.03),
            config,
            sampler: Box::new(UniformSampler),
            compressor: Box::new(Int8Quantizer),
        }
    }

    /// The registered fleet (id order).
    pub fn clients(&self) -> &[ClientStat] {
        &self.clients
    }

    /// Runs all configured rounds and returns the report.
    pub fn run(&mut self) -> ScaleReport {
        let mut trace = Vec::with_capacity(self.config.rounds);
        let mut shard_stats = Vec::new();
        for round in 0..self.config.rounds {
            trace.push(self.run_round(round, &mut shard_stats));
        }
        ScaleReport {
            trace,
            shard_stats,
            final_model: self.global.clone(),
            sampler: self.sampler.label(),
            compressor: self.compressor.label(),
        }
    }

    fn run_round(
        &mut self,
        round: usize,
        shard_stats: &mut Vec<ShardRoundStats>,
    ) -> ScaleRoundTrace {
        let cfg = self.config;

        // 1. Cohort selection over the registry (sorted by id).
        self.sampler
            .sample(&self.clients, cfg.cohort, round, cfg.seed, &mut self.cohort);

        // 2. Sequential pre-pass in id order: one cell per member, holding
        //    (with error feedback) any residual it carries.
        self.cells.clear();
        for &id in &self.cohort {
            self.cells.push(Cell {
                id,
                outcome: MemberOutcome::default(),
                residual: if cfg.error_feedback {
                    self.residuals.remove(&id)
                } else {
                    None
                },
            });
        }

        // 3. Parallel shard pass: each shard draws its contiguous member
        //    slice's pure fault/retry/energy outcomes and folds the
        //    updates into its private fixed-point slot. Workers only ever
        //    touch their current task's slot + cells, so scheduling is
        //    invisible.
        let count = cfg.shard_plan.shard_count(self.cells.len());
        while self.slots.len() < count {
            self.slots.push(ShardSlot::default());
        }
        {
            let ranges = cfg.shard_plan.ranges(self.cells.len());
            let mut tasks: Vec<(usize, &mut ShardSlot, &mut [Cell])> = Vec::with_capacity(count);
            let total_cells = self.cells.len();
            let mut slots_rest: &mut [ShardSlot] = &mut self.slots[..count];
            let mut cells_rest: &mut [Cell] = &mut self.cells;
            let mut consumed = 0usize;
            for (shard, range) in ranges.iter().enumerate() {
                let (slot, rest) = slots_rest
                    .split_first_mut()
                    .expect("one slot per shard was preallocated");
                slots_rest = rest;
                let (chunk, rest) = cells_rest.split_at_mut(range.len());
                cells_rest = rest;
                consumed += range.len();
                tasks.push((shard, slot, chunk));
            }
            debug_assert_eq!(consumed, total_cells);

            let compressor = &*self.compressor;
            let faults = &self.faults;
            let clients = &self.clients;
            let faults_seed = cfg.seed;
            drain_tasks(
                cfg.workers,
                tasks,
                WorkerScratch::default,
                move |scratch, (shard, slot, cells)| {
                    slot.acc.reset(cfg.dim);
                    slot.stats = ShardRoundStats {
                        round: round as u32,
                        shard: shard as u32,
                        ..ShardRoundStats::default()
                    };
                    for cell in cells.iter_mut() {
                        let stat = &clients[cell.id as usize];
                        cell.outcome = member_outcome(&cfg, faults, round, cell.id as usize, stat);
                        tally(&mut slot.stats, &cell.outcome);
                        if !cell.outcome.aggregated {
                            continue;
                        }
                        if cfg.error_feedback {
                            cell.residual.get_or_insert_with(Vec::new);
                        }
                        synth_update(
                            faults_seed,
                            round,
                            cell.id,
                            stat.last_loss,
                            cfg.dim,
                            &mut scratch.update,
                        );
                        let wire_seed =
                            stream_seed(faults_seed, round, cell.id as usize, COMPRESS_SALT);
                        compressor.compress(
                            &scratch.update,
                            wire_seed,
                            cell.residual.as_mut(),
                            &mut scratch.wire,
                        );
                        slot.stats.wire_bytes += scratch.wire.wire_bytes();
                        slot.stats.raw_bytes += scratch.wire.raw_bytes();
                        scratch.wire.decode_into(&mut scratch.decoded);
                        slot.acc.fold(&scratch.decoded, stat.samples as u64);
                        slot.stats.aggregated += 1;
                        slot.stats.weight += stat.samples as u64;
                    }
                    // Shard-local quorum: a label for the operator, never
                    // a filter — identical philosophy to round quorums.
                    if cfg.shard_quorum_fraction > 0.0 && slot.stats.members > 0 {
                        let quorum =
                            (slot.stats.members as f64 * cfg.shard_quorum_fraction).ceil() as u32;
                        slot.stats.quorum = quorum;
                        slot.stats.shortfall = quorum.saturating_sub(slot.stats.aggregated);
                    }
                },
            );
        }

        // 4. Root reduction in canonical shard order.
        self.root.reset(cfg.dim);
        let mut totals = ShardRoundStats::default();
        for slot in &self.slots[..count] {
            self.root.merge(&slot.acc);
            slot.stats.add_into(&mut totals);
            shard_stats.push(slot.stats);
        }
        if self.root.finish_into(&mut self.avg) {
            for (g, a) in self.global.iter_mut().zip(self.avg.iter()) {
                *g += a;
            }
        }

        // 5. Sequential post-pass in id order: registry stats evolve,
        //    residuals go back to their owners.
        for cell in self.cells.iter_mut() {
            let stat = &mut self.clients[cell.id as usize];
            stat.last_selected = round as u32;
            if cell.outcome.aggregated {
                stat.last_loss = cell.outcome.next_loss;
            }
            if let Some(residual) = cell.residual.take() {
                self.residuals.insert(cell.id, residual);
            }
        }

        ScaleRoundTrace {
            round: round as u32,
            selected: self.cohort.len() as u32,
            aggregated: totals.aggregated,
            weight: totals.weight,
            dropped: totals.dropped,
            straggled: totals.straggled,
            missed_deadline: totals.missed_deadline,
            upload_failed: totals.upload_failed,
            retries: totals.retries,
            recovered: totals.recovered,
            departed: totals.departed,
            energy_mj: totals.energy_mj,
            wire_bytes: totals.wire_bytes,
            raw_bytes: totals.raw_bytes,
            model_hash: hash_model(&self.global),
        }
    }
}

/// The pure per-member outcome: faults, churn, retries, energy, loss
/// evolution — a function of `(config, fault plan, round, client)` only.
fn member_outcome(
    cfg: &ScaleConfig,
    faults: &FaultPlan,
    round: usize,
    id: usize,
    stat: &ClientStat,
) -> MemberOutcome {
    let mut out = MemberOutcome::default();
    let churn = faults.churn_status(round, id);
    if matches!(churn, ChurnStatus::Departing | ChurnStatus::Absent) {
        // A departing member burns half a round of energy before
        // vanishing; an absent one should not have been sampled, but is
        // accounted as departed rather than silently skipped.
        out.departed = true;
        out.energy_mj = (stat.energy_j_est as f64 * 500.0).round() as u64;
        out.next_loss = stat.last_loss;
        return out;
    }
    let draw = faults.draw(round, id);
    out.dropped = draw.dropped;
    out.straggled = draw.straggler_factor > 1.0;
    out.missed_deadline = draw.straggler_factor > cfg.deadline_headroom;
    // Energy scales with how long the device actually ran.
    let duration_factor = if draw.dropped {
        0.5
    } else {
        draw.straggler_factor.min(cfg.deadline_headroom)
    };
    out.energy_mj = (stat.energy_j_est as f64 * duration_factor * 1000.0).round() as u64;
    let trained = !draw.dropped && !out.missed_deadline;
    if trained {
        // Attempt 1 is the draw's own `upload_failed`; only retries redraw.
        let mut attempt = 1u32;
        let mut failed = draw.upload_failed;
        while failed && attempt < cfg.max_upload_attempts {
            attempt += 1;
            failed = faults.upload_attempt_failed(round, id, attempt);
        }
        out.retries = attempt - 1;
        out.upload_failed = failed;
        out.recovered = !failed && attempt > 1;
        out.aggregated = !failed;
    }
    // Loss decays slowly on successful participation (pure draw).
    let u = unit_from(splitmix64(stream_seed(cfg.seed, round, id, LOSS_SALT)));
    out.next_loss = (stat.last_loss * (0.96 + 0.03 * u) as f32).max(0.01);
    out
}

fn tally(stats: &mut ShardRoundStats, outcome: &MemberOutcome) {
    stats.members += 1;
    stats.dropped += u32::from(outcome.dropped);
    stats.straggled += u32::from(outcome.straggled);
    stats.missed_deadline += u32::from(outcome.missed_deadline);
    stats.upload_failed += u32::from(outcome.upload_failed);
    stats.retries += outcome.retries;
    stats.recovered += u32::from(outcome.recovered);
    stats.departed += u32::from(outcome.departed);
    stats.energy_mj += outcome.energy_mj;
}

/// The synthetic local update: a seeded pseudo-gradient whose magnitude
/// tracks the client's current loss (training on a lossier shard moves
/// the model more). Pure in `(seed, round, id, loss, dim)`.
fn synth_update(seed: u64, round: usize, id: u32, loss: f32, dim: usize, out: &mut Vec<f64>) {
    out.clear();
    let base = stream_seed(seed, round, id as usize, UPDATE_SALT);
    let amp = loss as f64 * 0.05;
    for d in 0..dim {
        let h = splitmix64(base ^ (d as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        out.push(amp * (unit_from(h) * 2.0 - 1.0));
    }
}

/// The seeded initial global model.
fn initial_model(cfg: &ScaleConfig) -> Vec<f64> {
    (0..cfg.dim)
        .map(|d| {
            let h =
                splitmix64(cfg.seed ^ 0x0061_0BA1 ^ (d as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
            unit_from(h) * 0.1 - 0.05
        })
        .collect()
}

/// FNV-1a over a model's exact f64 bits.
fn hash_model(model: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in model {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

/// A uniform draw in `[0, 1)` from already-mixed bits.
fn unit_from(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::TopKSparsifier;
    use crate::sampler::EnergyAwareSampler;

    fn small_config() -> ScaleConfig {
        ScaleConfig {
            fleet_size: 2_000,
            cohort: 128,
            rounds: 6,
            dim: 16,
            seed: 7,
            shard_plan: ShardPlan::with_shards(8),
            workers: 2,
            ..ScaleConfig::default()
        }
    }

    #[test]
    fn scale_run_produces_complete_trace() {
        let mut sim = ScaleSimulation::builder(small_config()).build();
        let report = sim.run();
        assert_eq!(report.trace.len(), 6);
        for row in &report.trace {
            assert_eq!(row.selected, 128);
            assert!(row.aggregated > 0, "faults are light, updates must land");
            assert!(row.aggregated <= row.selected);
            assert!(row.energy_mj > 0);
            assert!(row.wire_bytes > 0);
            assert!(row.wire_bytes < row.raw_bytes, "int8 must shrink the wire");
        }
        assert_eq!(report.shard_stats.len(), 6 * 8);
        assert!(report.compression_ratio() > 5.0);
    }

    #[test]
    fn shard_and_worker_count_are_invisible() {
        let reference = {
            let mut sim = ScaleSimulation::builder(ScaleConfig {
                shard_plan: ShardPlan::flat(),
                workers: 1,
                ..small_config()
            })
            .build();
            sim.run()
        };
        for shards in [4usize, 16] {
            for workers in [1usize, 2, 8] {
                let mut sim = ScaleSimulation::builder(ScaleConfig {
                    shard_plan: ShardPlan::with_shards(shards),
                    workers,
                    ..small_config()
                })
                .build();
                let report = sim.run();
                assert_eq!(
                    report.trace, reference.trace,
                    "trace must not see shards={shards} workers={workers}"
                );
                assert_eq!(
                    report
                        .final_model
                        .iter()
                        .map(|v| v.to_bits())
                        .collect::<Vec<_>>(),
                    reference
                        .final_model
                        .iter()
                        .map(|v| v.to_bits())
                        .collect::<Vec<_>>(),
                    "model must be byte-identical at shards={shards} workers={workers}"
                );
            }
        }
    }

    #[test]
    fn error_feedback_residuals_persist_across_rounds() {
        let mut sim = ScaleSimulation::builder(ScaleConfig {
            error_feedback: true,
            ..small_config()
        })
        .compressor(TopKSparsifier::new(0.25))
        .build();
        let report = sim.run();
        assert!(
            !sim.residuals.is_empty(),
            "top-k with error feedback must carry residuals"
        );
        assert!(report.compression_ratio() > 2.0);
    }

    #[test]
    fn energy_aware_sampling_cuts_fleet_energy() {
        let uniform = {
            let mut sim = ScaleSimulation::builder(small_config()).build();
            sim.run().total_energy_j()
        };
        let aware = {
            let mut sim = ScaleSimulation::builder(small_config())
                .sampler(EnergyAwareSampler { alpha: 4.0 })
                .build();
            sim.run().total_energy_j()
        };
        assert!(
            aware < uniform * 0.9,
            "energy-aware sampling should save >10%: {aware:.0} vs {uniform:.0} J"
        );
    }

    #[test]
    fn shard_quorum_accounting_labels_but_never_discards() {
        let heavy = FaultPlan::new(3)
            .with_dropout(0.6)
            .with_upload_failures(0.3);
        let bare = {
            let mut sim = ScaleSimulation::builder(small_config())
                .faults(heavy)
                .build();
            sim.run()
        };
        assert!(
            bare.shard_stats.iter().any(|s| s.shortfall > 0),
            "60% dropout must starve some shard quorums"
        );
        // Every arrived update is still aggregated: per-round aggregated
        // counts equal the shard sums regardless of shortfalls.
        for row in &bare.trace {
            let shard_sum: u32 = bare
                .shard_stats
                .iter()
                .filter(|s| s.round == row.round)
                .map(|s| s.aggregated)
                .sum();
            assert_eq!(shard_sum, row.aggregated);
        }
    }

    #[test]
    fn seed_changes_the_run() {
        let a = ScaleSimulation::builder(small_config()).build().run();
        let b = ScaleSimulation::builder(ScaleConfig {
            seed: 8,
            ..small_config()
        })
        .build()
        .run();
        assert_ne!(a.trace, b.trace);
    }
}
