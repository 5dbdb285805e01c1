//! Pluggable client-sampling policies for fleets far larger than the
//! per-round cohort.
//!
//! At fleet scale the server never runs *everyone*: each round it picks a
//! cohort of a few thousand out of a registered population of up to
//! millions. The literature (PAPERS.md: "Cost-Effective Federated
//! Learning Design"; "Scheduling Algorithms for FL with Minimal Energy
//! Consumption") shows the sampling distribution is a first-order lever
//! on both convergence and energy — so it is a seam here, not a policy
//! baked into the server.
//!
//! Every sampler is a pure function of `(seed, round, fleet stats)`: the
//! same inputs yield the same cohort on any thread, any worker count, any
//! machine running the same binary. Weighted policies use the
//! Efraimidis–Spirakis one-pass reservoir scheme (smallest `-ln(u)/w`
//! keys win), which gives exact weighted sampling *without replacement*
//! — no shuffling of a million-entry vector.
//!
//! A client's id is its index in the registry slice (`0..fleet.len()`);
//! the record itself carries no id. Client `id`'s draw is the splitmix64
//! finalizer of `stream_seed(seed, round, id, salt)`. That mix XORs a
//! per-round part with a per-client part, so each `sample` call computes
//! the round's part once and the scan adds only the client's term: the
//! same bits, for one multiply, one XOR and the finalizer per client.
//!
//! # The selection kernel
//!
//! All three samplers reduce to "the `cohort` smallest `(key, id)` pairs",
//! with ties on the key broken by id. The kernel sees only a key function
//! of the id. Keys are integers that order exactly like
//! [`f64::total_cmp`] on the float key (the weighted samplers, which read
//! `fleet[id]`) or like the draw itself (the uniform sampler orders by
//! the 53 raw bits behind `RoundDraws::unit` and reads no record at
//! all). One pass over the ids in ascending order admits keys below a
//! running cut into a buffer of `2 · cohort`; each time the buffer fills,
//! a linear-time select shrinks it back to `cohort` and tightens the cut.
//! That is O(fleet) expected with no heap.
//!
//! The weighted samplers start with no cut and fill the buffer with the
//! first `2 · cohort` pairs. The uniform sampler's keys are uniform on
//! `[0, 2^53)`, so it seeds the cut just above the expected
//! `cohort`-th smallest key: the pass then admits about `cohort` pairs
//! and runs one select, at the merge. A seeded cut only drops pairs that
//! cannot win while at least `cohort` are admitted; when fewer are, the
//! kernel rescans with no cut, so the result is exact either way.
//!
//! Fleets of at least `2 · 2^17` clients are scanned across cores: the
//! ids split into contiguous chunks of at least 2^17, at most one per
//! available core, and each chunk keeps its own `cohort` smallest
//! pairs. The `cohort` smallest of their union are exactly the global
//! `cohort` smallest, so the cohort is the same at any chunk count. The
//! scan runs before the round's shard pass, while that pool is idle, so
//! its thread count follows the host rather than `ScaleConfig::workers`;
//! smaller fleets stay on the calling thread.

use std::ops::Range;

use crate::fault::{client_term, splitmix64, stream_seed};
use crate::generator::DeviceKind;
use bofl::drain_tasks;

/// Salt distinguishing the sampler's draw stream from fault/chaos draws.
const SAMPLER_SALT: u64 = 0x005A_3917_C040_57A7;

/// The compact per-client record a scale fleet keeps in RAM — 20 bytes
/// per client instead of a live `FlClient`, which is what makes a
/// million-client registry a ~20 MB table rather than gigabytes of model
/// replicas. A client's id is its index in the registry, so the record
/// does not store it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientStat {
    /// Local dataset size — the FedAvg aggregation weight.
    pub samples: u32,
    /// Estimated full-round energy at `x_max`, joules (device-class
    /// baseline with unit-level spread).
    pub energy_j_est: f32,
    /// Most recently reported local training loss.
    pub last_loss: f32,
    /// Round this client last participated in (`u32::MAX` = never).
    pub last_selected: u32,
    /// The board class this client runs on.
    pub kind: DeviceKind,
}

impl ClientStat {
    /// Rounds since this client last participated, as of `round`
    /// (`round + 1` when it never has — maximally stale).
    pub(crate) fn staleness(&self, round: usize) -> u32 {
        if self.last_selected == u32::MAX {
            round as u32 + 1
        } else {
            (round as u32).saturating_sub(self.last_selected)
        }
    }
}

/// Chooses each round's cohort out of the registered fleet.
///
/// Contract: `sample` must be a pure function of its arguments, must
/// return at most `cohort` *distinct* ids (indices into `fleet`), and
/// must leave `out` sorted ascending (the canonical cohort order every
/// downstream consumer — shard planner, trace, journal — assumes).
pub trait ClientSampler: Send + Sync {
    /// Short policy name for traces and artifacts.
    fn label(&self) -> &'static str;

    /// Fills `out` with the round's cohort, sorted ascending by id.
    fn sample(
        &self,
        fleet: &[ClientStat],
        cohort: usize,
        round: usize,
        seed: u64,
        out: &mut Vec<u32>,
    );

    /// Boxed clone, so engines holding a sampler stay cloneable.
    fn clone_box(&self) -> Box<dyn ClientSampler>;
}

impl Clone for Box<dyn ClientSampler> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Uniform sampling without replacement: every client equally likely.
/// The scale analogue of the vanilla FedAvg server (and the paper's
/// assumption).
#[derive(Debug, Clone, Copy, Default)]
pub struct UniformSampler;

/// Energy-aware sampling (AutoFL-style, paper §2.1): client weight is
/// `energy_est^-alpha`, so efficient devices participate more often but
/// expensive ones still appear (statistical coverage of non-IID data).
#[derive(Debug, Clone, Copy)]
pub struct EnergyAwareSampler {
    /// Preference strength (`0` = uniform; `1` = inverse-energy;
    /// larger = greedier).
    pub alpha: f64,
}

impl Default for EnergyAwareSampler {
    fn default() -> Self {
        EnergyAwareSampler { alpha: 1.0 }
    }
}

/// Loss- and staleness-weighted sampling ("pick the clients the model
/// has learned least from, and the ones it hasn't seen lately"):
/// weight is `(last_loss + ε)^loss_exp · (1 + staleness)^staleness_exp`.
#[derive(Debug, Clone, Copy)]
pub struct LossStalenessSampler {
    /// Exponent on the client's last reported loss.
    pub loss_exp: f64,
    /// Exponent on rounds-since-last-participation.
    pub staleness_exp: f64,
}

impl Default for LossStalenessSampler {
    fn default() -> Self {
        LossStalenessSampler {
            loss_exp: 1.0,
            staleness_exp: 0.5,
        }
    }
}

impl EnergyAwareSampler {
    /// Efraimidis–Spirakis key for weight `energy^-alpha`.
    fn key(&self, s: &ClientStat, id: u32, draws: RoundDraws) -> f64 {
        let u = draws.unit(id);
        let energy = (s.energy_j_est as f64).max(1e-6);
        -u.ln() * energy.powf(self.alpha)
    }
}

impl LossStalenessSampler {
    /// Efraimidis–Spirakis key for the loss × staleness weight.
    fn key(&self, s: &ClientStat, id: u32, draws: RoundDraws, round: usize) -> f64 {
        let u = draws.unit(id);
        let loss = (s.last_loss as f64 + 0.05).max(1e-6);
        let fresh = 1.0 + s.staleness(round) as f64;
        let w = loss.powf(self.loss_exp) * fresh.powf(self.staleness_exp);
        -u.ln() / w
    }
}

/// One round's sampler draws, pure in `(seed, round, id)`: `new` mixes
/// the round's part of `stream_seed(seed, round, id, SAMPLER_SALT)` once,
/// and each draw adds only the client's term (see the module docs).
#[derive(Debug, Clone, Copy)]
struct RoundDraws {
    base: u64,
}

impl RoundDraws {
    fn new(seed: u64, round: usize) -> Self {
        RoundDraws {
            base: stream_seed(seed, round, 0, SAMPLER_SALT),
        }
    }

    /// The 53 uniform bits behind [`RoundDraws::unit`].
    fn bits(self, id: u32) -> u64 {
        splitmix64(self.base ^ client_term(id as usize)) >> 11
    }

    /// A uniform draw in `(0, 1]`. The open lower bound keeps `ln` finite
    /// for the weighted keys. The map from [`RoundDraws::bits`] is exact
    /// and strictly increasing.
    fn unit(self, id: u32) -> f64 {
        (self.bits(id) as f64 + 1.0) / (1u64 << 53) as f64
    }
}

/// An integer that orders exactly like `x` under [`f64::total_cmp`]
/// (the same bit transform it uses), so `-0.0 < +0.0` and NaNs sort to
/// the ends by sign.
fn total_order_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// A selection candidate: ordered by key, ties broken by id.
type Candidate = (i64, u32);

/// Scan chunks never hold fewer clients than this, so fleets below
/// twice this size are scanned on the calling thread.
const MIN_SCAN_CHUNK: usize = 1 << 17;

/// Standard deviations of the admitted count that the uniform sampler's
/// seeded cut leaves above `cohort`, so the no-cut rescan is rare.
const SEED_MARGIN_SIGMAS: f64 = 4.0;

/// The uniform sampler's starting cut: the key below which about
/// `k + SEED_MARGIN_SIGMAS · √k` of `n` keys uniform on `[0, 2^53)`
/// fall (`k <= n`; meaningless, and unused, when `k == 0`).
fn seeded_uniform_cut(k: usize, n: usize) -> i64 {
    let expected = k as f64 + SEED_MARGIN_SIGMAS * (k as f64).sqrt();
    (expected / n as f64 * (1u64 << 53) as f64) as i64
}

/// Shared smallest-`cohort`-keys selection over the ids `0..len`: the
/// winners, sorted ascending. Keys at or above the seeded `cut` are
/// never admitted unless that leaves fewer than `cohort`. Large fleets
/// are scanned across the host's cores.
fn smallest_k(
    len: usize,
    cohort: usize,
    cut: Option<i64>,
    out: &mut Vec<u32>,
    key: impl Fn(usize) -> i64 + Sync,
) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chunks = cores.min(len / MIN_SCAN_CHUNK).max(1);
    smallest_k_chunked(len, cohort, chunks, cut, out, key);
}

/// [`smallest_k`] over `chunks >= 1` contiguous id ranges of equal size
/// (fewer when the fleet is smaller), one [`drain_tasks`] task each on
/// `chunks` workers, the calling thread among them; their winners are
/// concatenated in range order. The result depends on neither `chunks`
/// nor `cut`.
fn smallest_k_chunked(
    len: usize,
    cohort: usize,
    chunks: usize,
    cut: Option<i64>,
    out: &mut Vec<u32>,
    key: impl Fn(usize) -> i64 + Sync,
) {
    out.clear();
    let k = cohort.min(len);
    if k == 0 {
        return;
    }
    // One task per id range, each with its own winners slot.
    let size = len.div_ceil(chunks);
    let mut found = vec![Vec::new(); len.div_ceil(size)];
    let tasks: Vec<_> = (0..len).step_by(size).zip(found.iter_mut()).collect();
    drain_tasks(
        chunks,
        tasks,
        || (),
        |(), (lo, found)| {
            scan_chunk(lo..len.min(lo + size), k, cut, &key, found);
        },
    );
    let mut winners = found.concat();
    if winners.len() < k && cut.is_some() {
        // The seeded cut was too tight to leave `k`: scan again without it.
        return smallest_k_chunked(len, cohort, chunks, None, out, key);
    }
    keep_smallest(&mut winners, k);
    out.extend(winners.iter().map(|&(_, id)| id));
    out.sort_unstable();
}

/// Leaves the `k` smallest candidates of the ids in `part` in `found`
/// (unordered), admitting only keys below `cut` when one is given.
///
/// Ids are scanned in ascending order, so a newcomer's id exceeds every
/// buffered id and a newcomer tied with the cut's key would lose the tie:
/// comparing keys alone is exact.
fn scan_chunk(
    mut part: Range<usize>,
    k: usize,
    cut: Option<i64>,
    key: &impl Fn(usize) -> i64,
    found: &mut Vec<Candidate>,
) {
    found.clear();
    let cap = 2 * k;
    let mut cut = match cut {
        Some(cut) => cut,
        None => {
            found.extend(part.by_ref().take(cap).map(|i| (key(i), i as u32)));
            keep_smallest(found, k);
            if found.len() < k {
                return;
            }
            // A select leaves the k-th smallest last: a newcomer must beat it.
            found[k - 1].0
        }
    };
    for i in part {
        let key = key(i);
        if key < cut {
            found.push((key, i as u32));
            if found.len() == cap {
                keep_smallest(found, k);
                cut = found[k - 1].0;
            }
        }
    }
    keep_smallest(found, k);
}

/// Truncates `found` to its `k` smallest candidates (`k >= 1`), with the
/// largest of them last.
fn keep_smallest(found: &mut Vec<Candidate>, k: usize) {
    if found.len() > k {
        found.select_nth_unstable(k - 1);
        found.truncate(k);
    }
}

impl ClientSampler for UniformSampler {
    fn label(&self) -> &'static str {
        "uniform"
    }

    fn sample(
        &self,
        fleet: &[ClientStat],
        cohort: usize,
        round: usize,
        seed: u64,
        out: &mut Vec<u32>,
    ) {
        let draws = RoundDraws::new(seed, round);
        let n = fleet.len();
        let cut = seeded_uniform_cut(cohort.min(n), n);
        smallest_k(n, cohort, Some(cut), out, move |i| {
            draws.bits(i as u32) as i64
        });
    }

    fn clone_box(&self) -> Box<dyn ClientSampler> {
        Box::new(*self)
    }
}

impl ClientSampler for EnergyAwareSampler {
    fn label(&self) -> &'static str {
        "energy_aware"
    }

    fn sample(
        &self,
        fleet: &[ClientStat],
        cohort: usize,
        round: usize,
        seed: u64,
        out: &mut Vec<u32>,
    ) {
        let draws = RoundDraws::new(seed, round);
        smallest_k(fleet.len(), cohort, None, out, move |i| {
            total_order_key(self.key(&fleet[i], i as u32, draws))
        });
    }

    fn clone_box(&self) -> Box<dyn ClientSampler> {
        Box::new(*self)
    }
}

impl ClientSampler for LossStalenessSampler {
    fn label(&self) -> &'static str {
        "loss_staleness"
    }

    fn sample(
        &self,
        fleet: &[ClientStat],
        cohort: usize,
        round: usize,
        seed: u64,
        out: &mut Vec<u32>,
    ) {
        let draws = RoundDraws::new(seed, round);
        smallest_k(fleet.len(), cohort, None, out, move |i| {
            total_order_key(self.key(&fleet[i], i as u32, draws, round))
        });
    }

    fn clone_box(&self) -> Box<dyn ClientSampler> {
        Box::new(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet(n: usize) -> Vec<ClientStat> {
        (0..n)
            .map(|id| ClientStat {
                samples: 100,
                energy_j_est: if id % 2 == 0 { 50.0 } else { 200.0 },
                last_loss: if id < n / 2 { 0.2 } else { 2.0 },
                last_selected: u32::MAX,
                kind: DeviceKind::JetsonAgx,
            })
            .collect()
    }

    fn assert_cohort_shape(out: &[u32], cohort: usize, fleet_len: usize) {
        assert_eq!(out.len(), cohort.min(fleet_len));
        assert!(out.windows(2).all(|w| w[0] < w[1]), "sorted + distinct");
        assert!(out.iter().all(|&id| (id as usize) < fleet_len));
    }

    #[test]
    fn client_stat_is_20_bytes() {
        assert_eq!(std::mem::size_of::<ClientStat>(), 20);
    }

    #[test]
    fn samplers_are_deterministic_and_canonical() {
        let fleet = fleet(500);
        let samplers: Vec<Box<dyn ClientSampler>> = vec![
            Box::new(UniformSampler),
            Box::new(EnergyAwareSampler::default()),
            Box::new(LossStalenessSampler::default()),
        ];
        for s in &samplers {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            s.sample(&fleet, 64, 3, 42, &mut a);
            s.sample(&fleet, 64, 3, 42, &mut b);
            assert_eq!(a, b, "{} must be pure", s.label());
            assert_cohort_shape(&a, 64, fleet.len());
            s.sample(&fleet, 64, 4, 42, &mut b);
            assert_ne!(a, b, "{} must vary by round", s.label());
        }
    }

    #[test]
    fn uniform_covers_the_fleet_over_rounds() {
        let fleet = fleet(200);
        let mut seen = [false; 200];
        let mut out = Vec::new();
        for round in 0..40 {
            UniformSampler.sample(&fleet, 20, round, 7, &mut out);
            for &id in &out {
                seen[id as usize] = true;
            }
        }
        let covered = seen.iter().filter(|&&s| s).count();
        assert!(
            covered > 180,
            "uniform should touch most clients: {covered}"
        );
    }

    #[test]
    fn energy_aware_prefers_cheap_clients() {
        let fleet = fleet(1000);
        let mut out = Vec::new();
        let mut cheap = 0usize;
        let mut total = 0usize;
        for round in 0..20 {
            EnergyAwareSampler { alpha: 2.0 }.sample(&fleet, 50, round, 9, &mut out);
            cheap += out.iter().filter(|&&id| id % 2 == 0).count();
            total += out.len();
        }
        assert!(
            cheap as f64 > total as f64 * 0.75,
            "cheap devices should dominate: {cheap}/{total}"
        );
    }

    #[test]
    fn loss_weighted_prefers_high_loss_clients() {
        let fleet = fleet(1000);
        let mut out = Vec::new();
        let mut lossy = 0usize;
        let mut total = 0usize;
        for round in 0..20 {
            LossStalenessSampler {
                loss_exp: 2.0,
                staleness_exp: 0.0,
            }
            .sample(&fleet, 50, round, 11, &mut out);
            lossy += out.iter().filter(|&&id| id >= 500).count();
            total += out.len();
        }
        assert!(
            lossy as f64 > total as f64 * 0.75,
            "high-loss clients should dominate: {lossy}/{total}"
        );
    }

    #[test]
    fn staleness_pressure_recalls_neglected_clients() {
        let mut fleet = fleet(100);
        // Everyone participated recently except client 7.
        for s in fleet.iter_mut() {
            s.last_selected = 99;
            s.last_loss = 1.0;
        }
        fleet[7].last_selected = 0;
        let sampler = LossStalenessSampler {
            loss_exp: 0.0,
            staleness_exp: 4.0,
        };
        let mut out = Vec::new();
        let mut hits = 0;
        for round in 100..120 {
            sampler.sample(&fleet, 10, round, 13, &mut out);
            hits += usize::from(out.contains(&7));
        }
        assert!(
            hits >= 18,
            "stale client should almost always be recalled: {hits}/20"
        );
    }

    #[test]
    fn cohort_larger_than_fleet_returns_everyone() {
        let fleet = fleet(8);
        let mut out = Vec::new();
        UniformSampler.sample(&fleet, 100, 0, 1, &mut out);
        assert_eq!(out, (0..8).collect::<Vec<u32>>());
    }

    /// Splitmix64 step: a tiny deterministic generator for random fleets.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A dense registry of `n` clients with random energy, loss and
    /// history.
    fn random_fleet(n: usize, seed: u64) -> Vec<ClientStat> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                let r = next(&mut state);
                ClientStat {
                    samples: 100,
                    energy_j_est: 10.0 + (r % 290) as f32,
                    last_loss: ((r >> 16) % 300) as f32 / 100.0,
                    last_selected: if r >> 40 & 1 == 0 {
                        u32::MAX
                    } else {
                        ((r >> 41) % 30) as u32
                    },
                    kind: DeviceKind::JetsonTx2,
                }
            })
            .collect()
    }

    /// The naive reference: fully sort the ids `0..len` by
    /// `(total_cmp key, id)`, keep the first `cohort`, return them sorted.
    fn reference(len: usize, cohort: usize, key: impl Fn(usize) -> f64) -> Vec<u32> {
        let mut all: Vec<(f64, u32)> = (0..len).map(|i| (key(i), i as u32)).collect();
        all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut ids: Vec<u32> = all.iter().take(cohort).map(|&(_, id)| id).collect();
        ids.sort_unstable();
        ids
    }

    /// Checks the kernel against [`reference`] at every chunk count, for
    /// cohorts 0, 1, a middle size, `len` and beyond, with no cut and with
    /// seeded cuts: one that admits nothing, one at the median key, and
    /// the cohort-th and next smallest keys (which, without ties, admit
    /// one fewer than the cohort, forcing the rescan, and exactly the
    /// cohort).
    fn assert_matches_reference(len: usize, key: impl Fn(usize) -> f64 + Sync) {
        let mut keys: Vec<i64> = (0..len).map(|i| total_order_key(key(i))).collect();
        keys.sort_unstable();
        let at = |i: usize| keys.get(i).copied().unwrap_or(i64::MAX);
        let mut out = Vec::new();
        for cohort in [0, 1, len / 3, len.saturating_sub(1), len, len + 5] {
            let want = reference(len, cohort, &key);
            let cuts = [
                None,
                Some(i64::MIN),
                Some(at(len / 2)),
                Some(at(cohort.saturating_sub(1))),
                Some(at(cohort)),
            ];
            for chunks in [1, 2, 3, 7] {
                for cut in cuts {
                    smallest_k_chunked(len, cohort, chunks, cut, &mut out, |i| {
                        total_order_key(key(i))
                    });
                    assert_eq!(
                        out, want,
                        "cohort {cohort} chunks {chunks} cut {cut:?} fleet {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn total_order_key_orders_like_total_cmp() {
        let values = [
            f64::NEG_INFINITY,
            -f64::NAN,
            f64::NAN,
            -1.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            f64::MAX,
            f64::INFINITY,
            f64::from_bits(0x7FF0_0000_0000_0001),
            f64::from_bits(0xFFFF_FFFF_FFFF_FFFF),
        ];
        for a in values {
            for b in values {
                assert_eq!(
                    total_order_key(a).cmp(&total_order_key(b)),
                    a.total_cmp(&b),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn kernel_breaks_ties_by_id() {
        assert_matches_reference(301, |_| 0.5);
    }

    #[test]
    fn kernel_orders_signed_zeros_infinities_and_nans() {
        let specials = [
            -0.0,
            0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            1.0,
            -2.0,
        ];
        // 250 is no multiple of 3 or 7 (or of the 8 specials).
        assert_matches_reference(250, |i| specials[(i * 5 + 3) % specials.len()]);
    }

    #[test]
    fn kernel_matches_reference_on_random_keys() {
        for (n, seed) in [(0, 2), (1, 3), (2, 4), (9, 5), (1000, 6), (4099, 7)] {
            assert_matches_reference(n, |i| {
                let mut st = i as u64 ^ seed;
                // Coarse keys force many ties on top of the random order.
                (next(&mut st) % 97) as f64 - 48.0
            });
        }
    }

    /// The draw bits the way the sampler first computed them: the whole
    /// `stream_seed` mix for every client, then the splitmix64 finalizer.
    fn full_mix_bits(seed: u64, round: usize, id: u32) -> u64 {
        let mut h = stream_seed(seed, round, id as usize, SAMPLER_SALT);
        h = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
        h >> 11
    }

    fn full_mix_unit(seed: u64, round: usize, id: u32) -> f64 {
        (full_mix_bits(seed, round, id) as f64 + 1.0) / (1u64 << 53) as f64
    }

    #[test]
    fn round_draws_match_the_full_stream_mix() {
        let mut state = 17;
        let edges = [0, 1, 2, u32::MAX / 2, u32::MAX - 1, u32::MAX];
        for _ in 0..200 {
            let seed = next(&mut state);
            let round = match next(&mut state) % 3 {
                0 => 0,
                1 => (next(&mut state) % 10_000) as usize,
                _ => next(&mut state) as usize,
            };
            let draws = RoundDraws::new(seed, round);
            let random = (0..64).map(|_| next(&mut state) as u32);
            for id in edges.into_iter().chain(random) {
                assert_eq!(draws.bits(id), full_mix_bits(seed, round, id));
                assert_eq!(
                    draws.unit(id).to_bits(),
                    full_mix_unit(seed, round, id).to_bits()
                );
            }
        }
    }

    #[test]
    fn samplers_match_reference_at_every_chunk_count() {
        let mut out = Vec::new();
        // Sizes 0 and 1, and sizes that are no multiple of 2, 3 or 7.
        for (n, seed) in [(0, 10), (1, 11), (5, 12), (701, 8), (3001, 9)] {
            let fleet = random_fleet(n, seed);
            for round in [0, 17] {
                let draws = RoundDraws::new(seed, round);
                let energy = EnergyAwareSampler { alpha: 1.5 };
                let loss = LossStalenessSampler::default();
                let uniform_key = |i: usize| full_mix_unit(seed, round, i as u32);
                let energy_key = |i: usize| energy.key(&fleet[i], i as u32, draws);
                let loss_key = |i: usize| loss.key(&fleet[i], i as u32, draws, round);
                assert_matches_reference(n, uniform_key);
                assert_matches_reference(n, energy_key);
                assert_matches_reference(n, loss_key);

                // The public entry points agree, including the uniform
                // sampler's integer keys under its seeded cut.
                for cohort in [0, 1, n / 10, n, n + 3] {
                    let uniform = reference(n, cohort, uniform_key);
                    UniformSampler.sample(&fleet, cohort, round, seed, &mut out);
                    assert_eq!(out, uniform, "uniform cohort {cohort} fleet {n}");
                    let cut = seeded_uniform_cut(cohort.min(n), n);
                    for chunks in [1, 2, 3, 7] {
                        smallest_k_chunked(n, cohort, chunks, Some(cut), &mut out, |i| {
                            draws.bits(i as u32) as i64
                        });
                        assert_eq!(out, uniform, "cohort {cohort} chunks {chunks} fleet {n}");
                    }
                    energy.sample(&fleet, cohort, round, seed, &mut out);
                    assert_eq!(out, reference(n, cohort, energy_key));
                    loss.sample(&fleet, cohort, round, seed, &mut out);
                    assert_eq!(out, reference(n, cohort, loss_key));
                }
            }
        }
    }

    #[test]
    fn seeded_uniform_cut_admits_a_little_over_the_cohort() {
        // Across many rounds the seeded cut admits at least the cohort
        // (no rescan) and not much more (about one select's worth).
        let (n, cohort) = (50_000, 512);
        let cut = seeded_uniform_cut(cohort, n);
        for round in 0..50 {
            let draws = RoundDraws::new(99, round);
            let admitted = (0..n)
                .filter(|&i| (draws.bits(i as u32) as i64) < cut)
                .count();
            assert!(
                (cohort..cohort + cohort / 2).contains(&admitted),
                "round {round}: {admitted} admitted for a cohort of {cohort}"
            );
        }
    }
}
