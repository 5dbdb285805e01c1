use bofl_device::{ConfigIndex, ConfigSpace, DvfsConfig, JobCost};
use std::collections::HashMap;

/// When to quarantine a latency sample instead of folding it into the
/// aggregates that train the GP surrogate.
///
/// A transient straggler episode (thermal throttling, a co-located
/// process, a background daemon) can inflate a job's measured latency far
/// beyond anything the device model — or the guardian's slowdown bound —
/// predicts for that configuration. Folding such a sample into the running
/// mean poisons the Pareto front: the configuration looks permanently
/// slow, the ILP avoids it, and the energy savings it offered are lost
/// long after the episode has passed. The quarantine keeps those samples
/// out of the training set while still counting them, so the caller can
/// surface "observations rejected" in its metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuarantinePolicy {
    /// Whether quarantine runs at all (off = every sample is folded in,
    /// the pre-quarantine behavior).
    pub enabled: bool,
    /// A sample whose latency exceeds `factor ×` the configuration's
    /// current mean latency is quarantined. Keep this comfortably below
    /// the guardian's pessimistic slowdown bound (default 10×) but above
    /// ordinary measurement jitter; transient straggler slowdowns in the
    /// fleet simulator run 2–4×.
    pub factor: f64,
    /// Minimum clean samples a configuration needs before the quarantine
    /// may judge new arrivals — with fewer, the mean itself is too noisy
    /// to be a reference.
    pub min_jobs: u64,
}

impl QuarantinePolicy {
    /// Quarantine with the given trip factor and the default warm-up.
    ///
    /// # Panics
    ///
    /// Panics if `factor <= 1`.
    pub(crate) fn with_factor(factor: f64) -> Self {
        assert!(factor > 1.0, "quarantine factor must exceed 1");
        QuarantinePolicy {
            enabled: true,
            factor,
            min_jobs: 3,
        }
    }

    /// No quarantine: every sample is folded into the aggregates.
    pub(crate) fn disabled() -> Self {
        QuarantinePolicy {
            enabled: false,
            ..QuarantinePolicy::with_factor(3.0)
        }
    }
}

impl Default for QuarantinePolicy {
    /// Disabled — the store's historical behavior. The BoFL controller
    /// opts in explicitly.
    fn default() -> Self {
        QuarantinePolicy::disabled()
    }
}

/// Aggregated measurements for one configuration: job-weighted averages of
/// latency and energy over every job executed at that configuration.
///
/// BoFL measures each configuration for at least `τ` seconds (several
/// jobs) precisely so these averages are trustworthy; the store performs
/// the aggregation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggregatedObservation {
    /// The observed configuration.
    pub config: DvfsConfig,
    /// Jobs executed at this configuration.
    pub jobs: u64,
    /// Total measured latency across those jobs, seconds.
    pub total_latency_s: f64,
    /// Total measured energy across those jobs, joules.
    pub total_energy_j: f64,
}

impl AggregatedObservation {
    /// Mean per-job latency `T̂(x)`.
    pub fn mean_latency_s(&self) -> f64 {
        self.total_latency_s / self.jobs as f64
    }

    /// Mean per-job energy `Ê(x)`.
    pub fn mean_energy_j(&self) -> f64 {
        self.total_energy_j / self.jobs as f64
    }

    /// The mean cost as a [`JobCost`].
    pub(crate) fn mean_cost(&self) -> JobCost {
        JobCost {
            latency_s: self.mean_latency_s(),
            energy_j: self.mean_energy_j(),
        }
    }
}

/// The controller's memory of everything it has measured, keyed by grid
/// index.
#[derive(Debug, Clone, Default)]
pub struct ObservationStore {
    by_index: HashMap<ConfigIndex, AggregatedObservation>,
    /// Indices in first-observation order (stable reporting).
    order: Vec<ConfigIndex>,
    quarantine: QuarantinePolicy,
    quarantined_jobs: u64,
}

impl ObservationStore {
    /// Creates an empty store with quarantine disabled.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty store with the given quarantine policy.
    pub(crate) fn with_quarantine(policy: QuarantinePolicy) -> Self {
        ObservationStore {
            quarantine: policy,
            ..ObservationStore::default()
        }
    }

    /// Total latency samples quarantined (counted but excluded from the
    /// aggregates) since the store was created.
    pub(crate) fn quarantined_jobs(&self) -> u64 {
        self.quarantined_jobs
    }

    /// Records one executed job. Returns `true` if this was the first job
    /// ever run at `config`.
    ///
    /// Under an enabled [`QuarantinePolicy`], a sample whose latency is
    /// inflated beyond `factor ×` the configuration's established mean is
    /// quarantined: the sample is counted in `Self::quarantined_jobs`
    /// but never reaches the aggregates (and therefore never reaches the
    /// GP training set or the exploitation planner).
    pub fn record(&mut self, space: &ConfigSpace, config: DvfsConfig, cost: JobCost) -> bool {
        let index = space
            .index_of(config)
            .expect("observations must be grid points");
        match self.by_index.get_mut(&index) {
            Some(agg) => {
                if self.quarantine.enabled
                    && agg.jobs >= self.quarantine.min_jobs
                    && cost.latency_s > self.quarantine.factor * agg.mean_latency_s()
                {
                    self.quarantined_jobs += 1;
                    return false;
                }
                agg.jobs += 1;
                agg.total_latency_s += cost.latency_s;
                agg.total_energy_j += cost.energy_j;
                false
            }
            None => {
                self.by_index.insert(
                    index,
                    AggregatedObservation {
                        config,
                        jobs: 1,
                        total_latency_s: cost.latency_s,
                        total_energy_j: cost.energy_j,
                    },
                );
                self.order.push(index);
                true
            }
        }
    }

    /// The aggregate for a configuration value, if observed.
    pub(crate) fn get_config(
        &self,
        space: &ConfigSpace,
        config: DvfsConfig,
    ) -> Option<&AggregatedObservation> {
        space.index_of(config).and_then(|i| self.by_index.get(&i))
    }

    /// Number of distinct configurations observed.
    pub fn len(&self) -> usize {
        self.by_index.len()
    }

    /// `true` if nothing has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.by_index.is_empty()
    }

    /// Iterates over aggregates in first-observation order.
    pub fn iter(&self) -> impl Iterator<Item = &AggregatedObservation> + '_ {
        self.order.iter().map(|i| &self.by_index[i])
    }

    /// Grid indices in first-observation order.
    pub(crate) fn indices(&self) -> &[ConfigIndex] {
        &self.order
    }

    /// The observed configurations whose mean costs are Pareto-optimal
    /// (energy, latency both minimized), in first-observation order: those
    /// no other aggregate [dominates](JobCost::dominates), so equal costs
    /// all stay.
    ///
    /// One sort and one sweep. In energy order, an aggregate is dominated
    /// iff some strictly lower energy has a latency no higher than its
    /// own, or its own energy has a strictly lower latency. A cost with a
    /// NaN coordinate neither dominates nor is dominated, so it stays and
    /// skips the sweep.
    pub fn pareto_set(&self) -> Vec<&AggregatedObservation> {
        let all: Vec<(&AggregatedObservation, JobCost)> =
            self.iter().map(|a| (a, a.mean_cost())).collect();
        let cost = |i: usize| (all[i].1.energy_j, all[i].1.latency_s);
        let mut keep = vec![true; all.len()];
        let mut order: Vec<usize> = (0..all.len())
            .filter(|&i| !cost(i).0.is_nan() && !cost(i).1.is_nan())
            .collect();
        order.sort_by(|&a, &b| {
            cost(a)
                .partial_cmp(&cost(b))
                .expect("NaN costs skip the sort")
        });
        // The least latency seen at a strictly lower energy.
        let mut best: Option<f64> = None;
        for same_energy in order.chunk_by(|&a, &b| cost(a).0 == cost(b).0) {
            let least = cost(same_energy[0]).1;
            for &i in same_energy {
                let latency = cost(i).1;
                keep[i] = latency == least && best.is_none_or(|b| latency < b);
            }
            best = Some(best.map_or(least, |b| b.min(least)));
        }
        all.iter()
            .zip(keep)
            .filter(|&(_, kept)| kept)
            .map(|(&(a, _), _)| a)
            .collect()
    }

    /// Worst observed mean energy and latency — the reference-point
    /// ingredients of the paper's §4.3.
    pub(crate) fn worst_objectives(&self) -> Option<[f64; 2]> {
        if self.is_empty() {
            return None;
        }
        let mut worst = [f64::NEG_INFINITY; 2];
        for a in self.iter() {
            worst[0] = worst[0].max(a.mean_energy_j());
            worst[1] = worst[1].max(a.mean_latency_s());
        }
        Some(worst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bofl_device::{ConfigSpace, FreqMHz, FreqTable};
    use proptest::prelude::*;

    fn space() -> ConfigSpace {
        ConfigSpace::new(
            FreqTable::from_mhz(&[100, 200]),
            FreqTable::from_mhz(&[300, 400]),
            FreqTable::from_mhz(&[500, 600]),
        )
    }

    fn cfg(c: u32, g: u32, m: u32) -> DvfsConfig {
        DvfsConfig::new(FreqMHz::new(c), FreqMHz::new(g), FreqMHz::new(m))
    }

    #[test]
    fn record_aggregates() {
        let sp = space();
        let mut store = ObservationStore::new();
        let x = cfg(100, 300, 500);
        assert!(store.record(
            &sp,
            x,
            JobCost {
                latency_s: 0.2,
                energy_j: 4.0
            }
        ));
        assert!(!store.record(
            &sp,
            x,
            JobCost {
                latency_s: 0.4,
                energy_j: 6.0
            }
        ));
        let agg = store.get_config(&sp, x).unwrap();
        assert_eq!(agg.jobs, 2);
        assert!((agg.mean_latency_s() - 0.3).abs() < 1e-12);
        assert!((agg.mean_energy_j() - 5.0).abs() < 1e-12);
        assert_eq!(store.len(), 1);
        assert!(!store.is_empty());
    }

    #[test]
    fn pareto_set_filters_dominated() {
        let sp = space();
        let mut store = ObservationStore::new();
        store.record(
            &sp,
            cfg(100, 300, 500),
            JobCost {
                latency_s: 0.2,
                energy_j: 5.0,
            },
        );
        store.record(
            &sp,
            cfg(200, 300, 500),
            JobCost {
                latency_s: 0.4,
                energy_j: 3.0,
            },
        );
        store.record(
            &sp,
            cfg(100, 400, 500),
            JobCost {
                latency_s: 0.5,
                energy_j: 6.0,
            },
        ); // dominated
        let pareto = store.pareto_set();
        assert_eq!(pareto.len(), 2);
        assert!(pareto.iter().all(|a| a.mean_latency_s() < 0.45));
    }

    #[test]
    fn worst_objectives() {
        let sp = space();
        let mut store = ObservationStore::new();
        assert_eq!(store.worst_objectives(), None);
        store.record(
            &sp,
            cfg(100, 300, 500),
            JobCost {
                latency_s: 0.2,
                energy_j: 5.0,
            },
        );
        store.record(
            &sp,
            cfg(200, 400, 600),
            JobCost {
                latency_s: 0.7,
                energy_j: 3.0,
            },
        );
        assert_eq!(store.worst_objectives(), Some([5.0, 0.7]));
    }

    #[test]
    fn iteration_order_is_first_observed() {
        let sp = space();
        let mut store = ObservationStore::new();
        let a = cfg(200, 400, 600);
        let b = cfg(100, 300, 500);
        store.record(
            &sp,
            a,
            JobCost {
                latency_s: 0.1,
                energy_j: 1.0,
            },
        );
        store.record(
            &sp,
            b,
            JobCost {
                latency_s: 0.2,
                energy_j: 2.0,
            },
        );
        store.record(
            &sp,
            a,
            JobCost {
                latency_s: 0.1,
                energy_j: 1.0,
            },
        );
        let order: Vec<DvfsConfig> = store.iter().map(|o| o.config).collect();
        assert_eq!(order, vec![a, b]);
        assert_eq!(store.indices().len(), 2);
    }

    #[test]
    fn quarantine_excludes_inflated_samples() {
        let sp = space();
        let mut store = ObservationStore::with_quarantine(QuarantinePolicy {
            enabled: true,
            factor: 3.0,
            min_jobs: 3,
        });
        let x = cfg(100, 300, 500);
        // Three clean samples establish the mean (0.2 s).
        for _ in 0..3 {
            store.record(
                &sp,
                x,
                JobCost {
                    latency_s: 0.2,
                    energy_j: 1.0,
                },
            );
        }
        // A 5× straggler sample is quarantined, not folded in.
        store.record(
            &sp,
            x,
            JobCost {
                latency_s: 1.0,
                energy_j: 1.0,
            },
        );
        let agg = store.get_config(&sp, x).unwrap();
        assert_eq!(agg.jobs, 3, "contaminated sample must not be aggregated");
        assert!((agg.mean_latency_s() - 0.2).abs() < 1e-12);
        assert_eq!(store.quarantined_jobs(), 1);
        // A borderline-but-sane sample still lands.
        store.record(
            &sp,
            x,
            JobCost {
                latency_s: 0.5,
                energy_j: 1.0,
            },
        );
        assert_eq!(store.get_config(&sp, x).unwrap().jobs, 4);
        assert_eq!(store.quarantined_jobs(), 1);
    }

    #[test]
    fn quarantine_waits_for_warmup_and_respects_disabled() {
        let sp = space();
        let x = cfg(100, 300, 500);
        // Before `min_jobs` clean samples, nothing is quarantined — the
        // mean is not yet trustworthy.
        let mut warming = ObservationStore::with_quarantine(QuarantinePolicy {
            enabled: true,
            factor: 2.0,
            min_jobs: 5,
        });
        for i in 0..4 {
            warming.record(
                &sp,
                x,
                JobCost {
                    latency_s: if i == 3 { 10.0 } else { 0.1 },
                    energy_j: 1.0,
                },
            );
        }
        assert_eq!(warming.quarantined_jobs(), 0);
        assert_eq!(warming.get_config(&sp, x).unwrap().jobs, 4);
        // Disabled policy folds everything in (the historical behavior).
        let mut off = ObservationStore::new();
        assert!(!off.quarantine.enabled);
        off.record(
            &sp,
            x,
            JobCost {
                latency_s: 0.1,
                energy_j: 1.0,
            },
        );
        for _ in 0..5 {
            off.record(
                &sp,
                x,
                JobCost {
                    latency_s: 100.0,
                    energy_j: 1.0,
                },
            );
        }
        assert_eq!(off.quarantined_jobs(), 0);
        assert_eq!(off.get_config(&sp, x).unwrap().jobs, 6);
    }

    #[test]
    #[should_panic(expected = "quarantine factor must exceed 1")]
    fn quarantine_rejects_bad_factor() {
        let _ = QuarantinePolicy::with_factor(1.0);
    }

    #[test]
    #[should_panic(expected = "grid points")]
    fn rejects_off_grid() {
        let sp = space();
        let mut store = ObservationStore::new();
        store.record(
            &sp,
            cfg(150, 300, 500),
            JobCost {
                latency_s: 0.1,
                energy_j: 1.0,
            },
        );
    }

    /// The quadratic dominance filter `pareto_set` ran before its sweep,
    /// kept as the reference.
    fn quadratic_pareto_set(store: &ObservationStore) -> Vec<DvfsConfig> {
        let all: Vec<(&AggregatedObservation, JobCost)> =
            store.iter().map(|a| (a, a.mean_cost())).collect();
        all.iter()
            .filter(|(a, a_cost)| {
                !all.iter()
                    .any(|(b, b_cost)| b.config != a.config && b_cost.dominates(a_cost))
            })
            .map(|&(a, _)| a.config)
            .collect()
    }

    /// A cost coordinate: mostly one of four grid values, so equal
    /// energies, equal latencies and duplicated costs are common; else
    /// `-0.0`, `+0.0`, `+∞` or NaN.
    fn coordinate(pick: u8) -> f64 {
        match pick {
            0..=15 => [0.5, 1.0, 1.5, 2.0][usize::from(pick % 4)],
            16 => -0.0,
            17 => 0.0,
            18 => f64::INFINITY,
            _ => f64::NAN,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Jobs land on up to 48 of a 64-point grid, some configurations
        /// more than once, so means mix too.
        #[test]
        fn sweep_keeps_the_quadratic_filters_set_and_order(
            jobs in prop::collection::vec((0usize..48, 0u8..20, 0u8..20), 0..64),
        ) {
            let sp = ConfigSpace::new(
                FreqTable::from_mhz(&[100, 200, 300, 400]),
                FreqTable::from_mhz(&[300, 400, 500, 600]),
                FreqTable::from_mhz(&[500, 600, 700, 800]),
            );
            let mut store = ObservationStore::new();
            for &(index, energy, latency) in &jobs {
                let x = sp.iter().nth(index).unwrap();
                let cost = JobCost {
                    latency_s: coordinate(latency),
                    energy_j: coordinate(energy),
                };
                store.record(&sp, x, cost);
            }
            let swept: Vec<DvfsConfig> = store.pareto_set().iter().map(|a| a.config).collect();
            prop_assert_eq!(swept, quadratic_pareto_set(&store));
        }
    }
}
