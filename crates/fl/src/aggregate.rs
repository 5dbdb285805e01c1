//! Hierarchical (sharded) FedAvg aggregation.
//!
//! The flat server folds every arrived update into one running average.
//! That is O(cohort) work and O(model) memory *at the root* — fine for
//! hundreds of clients, hopeless for a million. This module provides the
//! two pieces that turn the flat pass into a reduction tree:
//!
//! - [`ShardPlan`] — a pure, `Copy` description of how a round's cohort
//!   (already in canonical ascending-id order) is partitioned into
//!   contiguous shards;
//! - [`UpdateAccumulator`] — a weighted partial sum of updates in
//!   **fixed-point** arithmetic, so that folds and merges are associative
//!   and commutative and the final model is **byte-identical** no matter
//!   how the cohort is grouped into shards or how many workers reduce
//!   them.
//!
//! # Why fixed point
//!
//! Floating-point addition is not associative: `(a + b) + c` and
//! `a + (b + c)` can differ in the last ulp, so a tree-shaped reduction
//! would produce a *different* global model at different shard counts —
//! breaking the repo-wide determinism contract (trace bytes depend only
//! on the seed, never on the execution geometry). Each client
//! contribution is therefore quantized once to a signed 64.32 fixed-point
//! value (`round(p · 2³²)`), scaled by its integer sample count, and
//! summed in `i128`. Integer addition *is* associative, so any grouping —
//! one flat pass, 4 shards, 16 shards, a deeper tree — yields the same
//! bits. The quantization error is bounded by `2⁻³³` per parameter
//! (relative to the weighted mean), far below the noise floor of SGD.
//!
//! # Shard tree
//!
//! ```text
//!          root (merge in canonical shard order, then finish)
//!         /    |    \
//!     shard0 shard1 shard2      each: fold(member updates) in id order
//!      /|\    /|\    /|\
//!     clients (cohort sorted by id, split into contiguous ranges)
//! ```

/// Number of fractional bits in the fixed-point representation.
pub(crate) const FIXED_POINT_BITS: u32 = 32;

/// `2^FIXED_POINT_BITS` as an `f64` scale factor.
const SCALE: f64 = (1u64 << FIXED_POINT_BITS) as f64;

/// How a round's cohort is partitioned into aggregator shards.
///
/// The plan is pure geometry: given a cohort of `n` members (already
/// sorted by client id — the canonical order every engine produces), it
/// yields at most `shards` contiguous, near-equal ranges. Contiguity in
/// id order is what makes the partition independent of worker scheduling,
/// and the fixed-point accumulator makes the *result* independent of the
/// partition itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardPlan {
    shards: usize,
}

impl ShardPlan {
    /// The flat plan: one shard, i.e. exactly the pre-sharding server.
    pub fn flat() -> Self {
        ShardPlan { shards: 1 }
    }

    /// A plan with up to `shards` aggregator shards (`shards >= 1`).
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    pub fn with_shards(shards: usize) -> Self {
        assert!(shards > 0, "a ShardPlan needs at least one shard");
        ShardPlan { shards }
    }

    /// The configured maximum number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// How many shards a cohort of `len` members actually uses: never
    /// more than the cohort itself (empty shards are pointless), never
    /// zero for a non-empty cohort.
    pub fn shard_count(&self, len: usize) -> usize {
        self.shards.min(len).max(usize::from(len > 0))
    }

    /// The half-open member range `[start, end)` of shard `shard` for a
    /// cohort of `len` members. Ranges are contiguous, cover `0..len`
    /// exactly, and differ in size by at most one (the first
    /// `len % count` shards get the extra member).
    pub(crate) fn range(&self, shard: usize, len: usize) -> std::ops::Range<usize> {
        let count = self.shard_count(len);
        debug_assert!(shard < count.max(1), "shard index out of range");
        let base = len / count.max(1);
        let extra = len % count.max(1);
        let start = shard * base + shard.min(extra);
        let size = base + usize::from(shard < extra);
        start..(start + size).min(len)
    }

    /// All member ranges for a cohort of `len`, in canonical shard order.
    pub fn ranges(&self, len: usize) -> Vec<std::ops::Range<usize>> {
        let count = if len == 0 { 0 } else { self.shard_count(len) };
        (0..count).map(|s| self.range(s, len)).collect()
    }
}

impl Default for ShardPlan {
    fn default() -> Self {
        ShardPlan::flat()
    }
}

/// A weighted partial sum of model updates in 64.32 fixed point.
///
/// `fold` adds one client's parameter vector with an integer weight
/// (its sample count); `merge` combines two partials (shard → root);
/// `finish_into` divides out the accumulated weight and writes the
/// weighted mean. Because the state is integer, `fold`/`merge` commute
/// and associate: every grouping of the same multiset of contributions
/// produces bit-identical output.
///
/// The buffers are reused across rounds — call [`UpdateAccumulator::reset`]
/// once per round and the hot path performs no allocation after the first
/// round (see `crates/fleet/tests/alloc_count.rs`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct UpdateAccumulator {
    weight: u64,
    sum: Vec<i128>,
}

impl UpdateAccumulator {
    /// An empty accumulator (dimension set by the first `reset`).
    pub fn new() -> Self {
        UpdateAccumulator::default()
    }

    /// Clears the partial sum and (re)sizes it for `dim` parameters.
    /// Reuses the existing allocation whenever `dim` fits.
    pub fn reset(&mut self, dim: usize) {
        self.weight = 0;
        self.sum.clear();
        self.sum.resize(dim, 0);
    }

    /// True when nothing has been folded in.
    pub(crate) fn is_empty(&self) -> bool {
        self.weight == 0
    }

    /// Folds one client update in: `sum += fix(params) · samples`.
    ///
    /// `samples` must be positive — a zero-weight update would be
    /// invisible in the mean but still bump no weight, so it is rejected
    /// loudly in debug builds and skipped in release.
    ///
    /// # Panics
    /// Debug builds panic on dimension mismatch or non-finite parameters.
    pub fn fold(&mut self, params: &[f64], samples: u64) {
        debug_assert_eq!(
            params.len(),
            self.sum.len(),
            "update dimension must match the accumulator"
        );
        debug_assert!(samples > 0, "updates must carry a positive weight");
        if samples == 0 || params.len() != self.sum.len() {
            return;
        }
        self.weight += samples;
        let w = samples as i128;
        for (acc, &p) in self.sum.iter_mut().zip(params.iter()) {
            debug_assert!(p.is_finite(), "non-finite parameter in update");
            *acc += fix(p) as i128 * w;
        }
    }

    /// Merges another partial sum in (shard partial → root). The other
    /// accumulator is left untouched.
    ///
    /// # Panics
    /// Debug builds panic on dimension mismatch between non-empty sides.
    pub fn merge(&mut self, other: &UpdateAccumulator) {
        if other.is_empty() {
            return;
        }
        if self.sum.is_empty() {
            self.sum.resize(other.sum.len(), 0);
        }
        debug_assert_eq!(self.sum.len(), other.sum.len(), "shard dimension mismatch");
        self.weight += other.weight;
        for (acc, &o) in self.sum.iter_mut().zip(other.sum.iter()) {
            *acc += o;
        }
    }

    /// Writes the weighted mean into `out` (cleared and refilled, so the
    /// caller can keep one buffer alive across rounds). Returns `false`
    /// and leaves `out` empty when nothing was accumulated.
    pub fn finish_into(&self, out: &mut Vec<f64>) -> bool {
        out.clear();
        if self.weight == 0 {
            return false;
        }
        let denom = SCALE * self.weight as f64;
        out.extend(self.sum.iter().map(|&s| s as f64 / denom));
        true
    }

    /// A stable FNV-1a checksum over the exact accumulator state (weight
    /// plus every fixed-point word), which the shard-invariance tests
    /// compare.
    #[cfg(test)]
    fn checksum(&self) -> u64 {
        let mut h = fnv1a(0xcbf2_9ce4_8422_2325, self.weight);
        for &s in &self.sum {
            h = fnv1a(h, s as u64);
            h = fnv1a(h, (s >> 64) as u64);
        }
        h
    }
}

/// Quantizes one parameter to signed 64.32 fixed point.
#[inline]
fn fix(p: f64) -> i64 {
    round_to_i64(p * SCALE)
}

/// Exactly `x.round() as i64` (half away from zero), inline.
///
/// On baseline x86-64 (SSE2 only) `f64::round` is an out-of-line libcall,
/// once per parameter of every fold. Below 2^52 the truncation `t` and the
/// remainder `x - t` are exact, so the tie test decides the rounding
/// exactly; larger magnitudes, infinities and NaN are already integral or
/// special and take the library path.
#[inline]
fn round_to_i64(x: f64) -> i64 {
    if x.abs() < TWO_POW_52 {
        let t = x as i64;
        let f = x - t as f64;
        t + i64::from(f >= 0.5) - i64::from(f <= -0.5)
    } else {
        x.round() as i64
    }
}

/// 2^52: from here up every `f64` is an integer.
const TWO_POW_52: f64 = (1u64 << 52) as f64;

#[cfg(test)]
fn fnv1a(mut h: u64, word: u64) -> u64 {
    for byte in word.to_le_bytes() {
        h ^= byte as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Runs one full shard-tree reduction over `updates` (parameter slices
/// paired with sample counts, in canonical cohort order): each shard
/// folds its contiguous member range into `shard_scratch`, the root
/// merges the partials in shard order into `root`, and the weighted mean
/// lands in `out`. Returns `true` when at least one update arrived.
///
/// This is the *sequential* reference reduction — `bofl-fleet` runs the
/// same per-shard folds on its worker pool and merges identically, which
/// is exactly why the two agree byte-for-byte.
pub fn aggregate_sharded(
    plan: ShardPlan,
    dim: usize,
    updates: &[(&[f64], u64)],
    root: &mut UpdateAccumulator,
    shard_scratch: &mut UpdateAccumulator,
    out: &mut Vec<f64>,
) -> bool {
    root.reset(dim);
    for shard in 0..plan.shard_count(updates.len()) {
        shard_scratch.reset(dim);
        for &(params, samples) in &updates[plan.range(shard, updates.len())] {
            shard_scratch.fold(params, samples);
        }
        root.merge(shard_scratch);
    }
    root.finish_into(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn synth_update(seed: u64, dim: usize) -> Vec<f64> {
        (0..dim)
            .map(|d| {
                let h = seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(d as u64)
                    .wrapping_mul(0xBF58_476D_1CE4_E5B9);
                (h >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn plan_ranges_cover_cohort_exactly() {
        for shards in [1usize, 2, 3, 4, 7, 16, 100] {
            for len in [0usize, 1, 2, 5, 16, 97] {
                let plan = ShardPlan::with_shards(shards);
                let ranges = plan.ranges(len);
                if len == 0 {
                    assert!(ranges.is_empty());
                    continue;
                }
                assert_eq!(ranges.len(), plan.shard_count(len));
                assert_eq!(ranges[0].start, 0);
                assert_eq!(ranges.last().unwrap().end, len);
                for w in ranges.windows(2) {
                    assert_eq!(w[0].end, w[1].start, "ranges must be contiguous");
                }
                let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(hi - lo <= 1, "near-equal split: {sizes:?}");
                assert!(*lo >= 1, "no empty shards");
            }
        }
    }

    #[test]
    fn sharded_equals_flat_bitwise() {
        let dim = 37;
        let updates: Vec<(Vec<f64>, u64)> = (0..23)
            .map(|i| (synth_update(i * 77 + 5, dim), 10 + i % 7))
            .collect();
        let borrowed: Vec<(&[f64], u64)> =
            updates.iter().map(|(p, n)| (p.as_slice(), *n)).collect();

        let mut reference = Vec::new();
        let (mut root, mut scratch) = (UpdateAccumulator::new(), UpdateAccumulator::new());
        assert!(aggregate_sharded(
            ShardPlan::flat(),
            dim,
            &borrowed,
            &mut root,
            &mut scratch,
            &mut reference,
        ));
        let reference_checksum = root.checksum();

        for shards in [2usize, 3, 4, 16, 23, 64] {
            let mut out = Vec::new();
            assert!(aggregate_sharded(
                ShardPlan::with_shards(shards),
                dim,
                &borrowed,
                &mut root,
                &mut scratch,
                &mut out,
            ));
            assert_eq!(root.checksum(), reference_checksum, "{shards} shards");
            assert!(
                out.iter()
                    .zip(reference.iter())
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "sharded mean must be byte-identical at {shards} shards"
            );
        }
    }

    #[test]
    fn fold_merge_commute() {
        let dim = 8;
        let a = synth_update(1, dim);
        let b = synth_update(2, dim);
        let c = synth_update(3, dim);

        let mut left = UpdateAccumulator::new();
        left.reset(dim);
        left.fold(&a, 3);
        left.fold(&b, 5);
        left.fold(&c, 2);

        let mut r1 = UpdateAccumulator::new();
        r1.reset(dim);
        r1.fold(&c, 2);
        let mut r2 = UpdateAccumulator::new();
        r2.reset(dim);
        r2.fold(&b, 5);
        r2.fold(&a, 3);
        r1.merge(&r2);

        assert_eq!(left, r1);
        assert_eq!(left.checksum(), r1.checksum());
        assert_eq!(left.weight, 10);
    }

    #[test]
    fn mean_matches_float_reference_closely() {
        let dim = 16;
        let updates: Vec<(Vec<f64>, u64)> =
            (0..9).map(|i| (synth_update(i, dim), 1 + i % 4)).collect();
        let total: f64 = updates.iter().map(|(_, n)| *n as f64).sum();
        let mut float_avg = vec![0.0f64; dim];
        for (p, n) in &updates {
            for (a, &v) in float_avg.iter_mut().zip(p.iter()) {
                *a += v * *n as f64 / total;
            }
        }

        let mut acc = UpdateAccumulator::new();
        acc.reset(dim);
        for (p, n) in &updates {
            acc.fold(p, *n);
        }
        let mut fixed = Vec::new();
        assert!(acc.finish_into(&mut fixed));
        for (f, x) in float_avg.iter().zip(fixed.iter()) {
            assert!(
                (f - x).abs() < 1e-8,
                "fixed-point mean within quantization error: {f} vs {x}"
            );
        }
    }

    #[test]
    fn empty_accumulator_reports_nothing() {
        let acc = UpdateAccumulator::new();
        let mut out = vec![1.0, 2.0];
        assert!(!acc.finish_into(&mut out));
        assert!(out.is_empty());
        assert!(acc.is_empty());
    }

    #[test]
    fn buffers_are_reused_across_resets() {
        let mut acc = UpdateAccumulator::new();
        acc.reset(64);
        let cap = acc.sum.capacity();
        acc.reset(32);
        assert_eq!(acc.sum.capacity(), cap, "reset must keep the allocation");
        assert_eq!(acc.sum.len(), 32);
    }

    /// Inputs (each also negated) where an inline round is easiest to get
    /// wrong: zero, half-integers, the largest double below one half, both
    /// sides of 2^52, magnitudes beyond `i64`, infinity, NaN, the smallest
    /// normal and both ends of the subnormals.
    const EDGES: [f64; 16] = [
        0.0,
        0.5,
        1.5,
        2.5,
        0.499_999_999_999_999_94,
        4_503_599_627_370_495.5,
        4_503_599_627_370_496.0,
        4_503_599_627_370_497.0,
        9.3e18,
        f64::MAX,
        f64::INFINITY,
        f64::NAN,
        f64::MIN_POSITIVE,
        2.225_073_858_507_201e-308,
        5e-324,
        1.0 - f64::EPSILON / 2.0,
    ];

    #[test]
    fn inline_round_matches_the_library_on_edge_cases() {
        for x in EDGES.into_iter().flat_map(|x| [x, -x]) {
            assert_eq!(round_to_i64(x), x.round() as i64, "round({x:e})");
        }
    }

    proptest! {
        /// Random bit patterns, `k + 0.5` ties across every magnitude
        /// below 2^52 with their neighbouring doubles, and random doubles
        /// with exponents around the integer range.
        #[test]
        fn inline_round_matches_the_library_bit_for_bit(seed in 0u64..u64::MAX) {
            let mut rng = proptest::TestRng::new(seed);
            for _ in 0..2048 {
                let r = rng.next_u64();
                let k = ((r >> 11) as i64 - (1 << 52)) >> (r % 53);
                let tie = k as f64 + 0.5;
                let exponent = (1023 - 8 + (r >> 1) % 72) << 52;
                let near = f64::from_bits(rng.next_u64() & 0x800F_FFFF_FFFF_FFFF | exponent);
                for x in [
                    f64::from_bits(r),
                    tie,
                    f64::from_bits(tie.to_bits() + 1),
                    f64::from_bits(tie.to_bits() - 1),
                    near,
                ] {
                    prop_assert!(
                        round_to_i64(x) == x.round() as i64,
                        "round({x:e}) = {}, library {}",
                        round_to_i64(x),
                        x.round() as i64
                    );
                }
            }
        }
    }
}
