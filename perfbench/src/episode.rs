//! What one pass over a workload's inputs produces, and the statistics
//! the report draws from it.

use std::collections::BTreeMap;

/// One episode: a full pass over a workload's seeded inputs.
#[derive(Debug, Default)]
pub struct Episode {
    /// Wall time of the timed part, seconds.
    pub wall_s: f64,
    /// CPU time of the timed part, seconds, all threads.
    pub cpu_s: f64,
    /// Client-rounds simulated.
    pub client_rounds: u64,
    /// Wall times of the steps the timed part is made of, milliseconds,
    /// grouped into parts that recur in every draw of the workload's
    /// inputs: one per testbed × task pair on `paper_pace` (each round of
    /// BoFL, then of Performant). Empty where the rounds in `round_ms` are
    /// the steps and form a single part.
    pub parts: Vec<Vec<f64>>,
    /// Round wall times, milliseconds (see the workload for what a round is).
    pub round_ms: Vec<f64>,
    /// Energy of the client-rounds counted in `energy_rounds`, joules.
    pub energy_j: f64,
    /// Client-rounds `energy_j` is spread over.
    pub energy_rounds: u64,
    /// Client-rounds that had a deadline.
    pub deadline_attempted: u64,
    /// Of those, how many met it.
    pub deadline_met: u64,
    /// Updates the server asked for.
    pub updates_selected: u64,
    /// Of those, how many it aggregated.
    pub updates_delivered: u64,
    /// Outcome counts and hashes that must repeat exactly on the same
    /// inputs, traced or not.
    pub fingerprint: Vec<(&'static str, u64)>,
    /// Figures printed for people, not gated: `(name, value, unit)`.
    pub notes: Vec<(&'static str, f64, &'static str)>,
    /// Heap the episode's built inputs hold at the end of set-up, MiB.
    pub setup_heap_mb: f64,
    /// Highest live heap of the system under test while the timed part
    /// ran (its inputs included), MiB.
    pub peak_heap_mb: f64,
    /// Per-layer values of a traced episode, keyed by metric name.
    pub layers: BTreeMap<&'static str, f64>,
}

impl Episode {
    /// The timed part's steps, grouped into parts (see [`Episode::parts`]).
    pub fn steps(&self) -> &[Vec<f64>] {
        if self.parts.is_empty() {
            std::slice::from_ref(&self.round_ms)
        } else {
            &self.parts
        }
    }
}

/// The median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Linear-interpolated percentile `p` (0..=100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}
