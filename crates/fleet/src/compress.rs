//! Update compression for the simulated uplink: quantized and sparse
//! encodings of client deltas, with error feedback.
//!
//! At fleet scale the uplink — not the server CPU — is the scarce
//! resource: a million dense f64 updates per round is terabytes on the
//! wire. The [`Compressor`] seam models the standard remedies:
//!
//! - [`Int8Quantizer`] — per-update absmax scaling to one signed byte per
//!   parameter with **stochastic rounding** (unbiased: the expected
//!   dequantized value equals the input), seeded per `(round, client)`
//!   stream so every engine reproduces the identical bytes;
//! - [`TopKSparsifier`] — keep only the `k` largest-magnitude entries and
//!   carry the rest forward in an **error-feedback residual**, so nothing
//!   is ever lost, merely delayed (the residual invariant
//!   `sent + residual' == update + residual` holds *exactly* in f64);
//! - [`NoCompression`] — the identity encoding, for baselines.
//!
//! Compression is lossy per round but deterministic: the decoded update
//! is a pure function of `(update, stream seed, residual)`, which keeps
//! the repo-wide byte-identical-trace contract intact at any shard or
//! worker count.

use crate::fault::splitmix64;

/// Salt for the per-`(round, client)` compression streams
/// (`fault::stream_seed(seed, round, client, COMPRESS_SALT)`). Every engine
/// that compresses uplinks draws from this one stream family, so an engine
/// and a scale simulation given the same seed quantize identically.
pub const COMPRESS_SALT: u64 = 0xC0_4B_1E_55_ED_B1_75;

/// Wire encoding of one compressed client update.
///
/// One reusable buffer object per worker: compressors overwrite it in
/// place, so the steady-state uplink path allocates nothing.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CompressedUpdate {
    kind: Kind,
    dim: usize,
    scale: f64,
    bytes: Vec<i8>,
    indices: Vec<u32>,
    values: Vec<f64>,
    scratch: Vec<f64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Kind {
    /// Dense f64 payload (identity encoding).
    #[default]
    Dense,
    /// Absmax int8 with a shared f32 scale.
    Int8,
    /// Sparse `(index, value)` pairs.
    TopK,
}

impl CompressedUpdate {
    /// An empty buffer ready for reuse.
    pub fn new() -> Self {
        CompressedUpdate::default()
    }

    /// Simulated bytes this encoding occupies on the wire:
    /// dense `8·dim`; int8 `4 + dim` (f32 scale + one byte per
    /// parameter); top-k `4 + 12·k` (u32 count + u32 index + f64 value
    /// per kept entry).
    pub fn wire_bytes(&self) -> u64 {
        match self.kind {
            Kind::Dense => 8 * self.dim as u64,
            Kind::Int8 => 4 + self.dim as u64,
            Kind::TopK => 4 + 12 * self.values.len() as u64,
        }
    }

    /// Bytes the uncompressed dense update would have occupied.
    pub fn raw_bytes(&self) -> u64 {
        8 * self.dim as u64
    }

    /// Decodes the dense f64 update into `out` (cleared and refilled).
    pub fn decode_into(&self, out: &mut Vec<f64>) {
        out.clear();
        match self.kind {
            Kind::Dense => out.extend_from_slice(&self.values),
            Kind::Int8 => {
                out.extend(self.bytes.iter().map(|&q| q as f64 * self.scale));
            }
            Kind::TopK => {
                out.resize(self.dim, 0.0);
                for (&i, &v) in self.indices.iter().zip(self.values.iter()) {
                    out[i as usize] = v;
                }
            }
        }
    }
}

/// A deterministic uplink encoder. `compress` must be a pure function of
/// `(update, seed, residual)` and must leave `out` decodable to the
/// values whose bytes it reports — the simulation *aggregates what was
/// decoded*, so compression loss is faithfully visible in the model.
pub trait Compressor: Send + Sync + std::fmt::Debug {
    /// Short encoder name for traces and artifacts.
    fn label(&self) -> &'static str;

    /// Encodes `update` into `out`. When `residual` is `Some`, the
    /// compressor applies error feedback: it compresses
    /// `update + residual` and stores what it could not send back into
    /// `residual` (resizing it to `update.len()` on first use).
    fn compress(
        &self,
        update: &[f64],
        seed: u64,
        residual: Option<&mut Vec<f64>>,
        out: &mut CompressedUpdate,
    );

    /// Boxed clone, so engines holding a compressor stay cloneable.
    fn clone_box(&self) -> Box<dyn Compressor>;
}

impl Clone for Box<dyn Compressor> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// The identity encoding: full dense f64 on the wire.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoCompression;

impl Compressor for NoCompression {
    fn label(&self) -> &'static str {
        "dense"
    }

    fn compress(
        &self,
        update: &[f64],
        _seed: u64,
        residual: Option<&mut Vec<f64>>,
        out: &mut CompressedUpdate,
    ) {
        // With error feedback enabled, flush any residual a lossier
        // predecessor left behind — identity encoding loses nothing.
        out.kind = Kind::Dense;
        out.dim = update.len();
        out.values.clear();
        out.values.extend_from_slice(update);
        if let Some(res) = residual {
            res.resize(update.len(), 0.0);
            for (v, r) in out.values.iter_mut().zip(res.iter_mut()) {
                *v += *r;
                *r = 0.0;
            }
        }
    }

    fn clone_box(&self) -> Box<dyn Compressor> {
        Box::new(*self)
    }
}

/// Absmax int8 quantization with stochastic rounding: ~8× smaller than
/// dense f64, unbiased in expectation, deterministic per stream seed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Int8Quantizer;

impl Compressor for Int8Quantizer {
    fn label(&self) -> &'static str {
        "int8_stochastic"
    }

    fn compress(
        &self,
        update: &[f64],
        seed: u64,
        residual: Option<&mut Vec<f64>>,
        out: &mut CompressedUpdate,
    ) {
        out.kind = Kind::Int8;
        out.dim = update.len();
        out.bytes.clear();
        // Error feedback: quantize the update plus whatever previous
        // rounds could not express, then store the new quantization error.
        let effective: &[f64] = match &residual {
            Some(res) if !res.is_empty() => {
                debug_assert_eq!(res.len(), update.len(), "residual dimension");
                out.scratch.clear();
                out.scratch
                    .extend(update.iter().zip(res.iter()).map(|(u, r)| u + r));
                &out.scratch
            }
            _ => update,
        };
        let max_abs = effective.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        // Round the scale through f32 — that is what the 4-byte wire
        // header carries, and decode must use the identical value.
        let scale = if max_abs > 0.0 {
            (max_abs / 127.0) as f32 as f64
        } else {
            0.0
        };
        out.scale = scale;
        for (d, &v) in effective.iter().enumerate() {
            let q = if scale == 0.0 {
                0i8
            } else {
                let x = v / scale;
                let lo = floor(x);
                let frac = x - lo;
                let up = unit(seed, d as u64) < frac;
                (lo as i32 + i32::from(up)).clamp(-127, 127) as i8
            };
            out.bytes.push(q);
        }
        if let Some(res) = residual {
            res.resize(update.len(), 0.0);
            for ((r, &e), &q) in res.iter_mut().zip(effective.iter()).zip(out.bytes.iter()) {
                *r = e - q as f64 * scale;
            }
        }
    }

    fn clone_box(&self) -> Box<dyn Compressor> {
        Box::new(*self)
    }
}

/// Exactly [`f64::floor`], inline.
///
/// On baseline x86-64 (SSE2 only) `f64::floor` is an out-of-line libcall,
/// once per quantized parameter. Below 2^52 the truncation `t` is exact
/// and `floor` is `t` or `t - 1`; `copysign` keeps the sign of a zero
/// result (`floor(-0.0) == -0.0`). Larger magnitudes, infinities and NaN
/// take the library path.
#[inline]
fn floor(x: f64) -> f64 {
    if x.abs() < TWO_POW_52 {
        let t = x as i64 as f64;
        let lo = if t > x { t - 1.0 } else { t };
        lo.copysign(x)
    } else {
        x.floor()
    }
}

/// 2^52: from here up every `f64` is an integer.
const TWO_POW_52: f64 = (1u64 << 52) as f64;

/// Top-k magnitude sparsification with error feedback: send the `k`
/// largest-magnitude entries exactly, carry everything else forward in
/// the residual. Ties break toward the lower index, so the kept set is
/// canonical.
#[derive(Debug, Clone, Copy)]
pub struct TopKSparsifier {
    /// Fraction of entries to keep (`0 < fraction <= 1`); at least one
    /// entry is always kept.
    pub fraction: f64,
}

impl TopKSparsifier {
    /// Keeps `fraction` of the update's entries.
    ///
    /// # Panics
    /// Panics if `fraction` is not in `(0, 1]`.
    pub fn new(fraction: f64) -> Self {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "top-k fraction must be in (0, 1]"
        );
        TopKSparsifier { fraction }
    }

    fn k(&self, dim: usize) -> usize {
        ((dim as f64 * self.fraction).ceil() as usize).clamp(1, dim.max(1))
    }
}

impl Default for TopKSparsifier {
    fn default() -> Self {
        TopKSparsifier::new(0.1)
    }
}

impl Compressor for TopKSparsifier {
    fn label(&self) -> &'static str {
        "topk_error_feedback"
    }

    fn compress(
        &self,
        update: &[f64],
        _seed: u64,
        residual: Option<&mut Vec<f64>>,
        out: &mut CompressedUpdate,
    ) {
        out.kind = Kind::TopK;
        out.dim = update.len();
        out.indices.clear();
        out.values.clear();
        if update.is_empty() {
            if let Some(res) = residual {
                res.clear();
            }
            return;
        }
        // Effective signal = update + carried residual (exact f64 adds).
        out.scratch.clear();
        match &residual {
            Some(res) if !res.is_empty() => {
                debug_assert_eq!(res.len(), update.len(), "residual dimension");
                out.scratch
                    .extend(update.iter().zip(res.iter()).map(|(u, r)| u + r));
            }
            _ => out.scratch.extend_from_slice(update),
        }
        let k = self.k(update.len());
        out.indices.extend(0..update.len() as u32);
        let scratch = &out.scratch;
        if k < update.len() {
            out.indices.select_nth_unstable_by(k - 1, |&a, &b| {
                scratch[b as usize]
                    .abs()
                    .total_cmp(&scratch[a as usize].abs())
                    .then(a.cmp(&b))
            });
            out.indices.truncate(k);
        }
        out.indices.sort_unstable();
        out.values
            .extend(out.indices.iter().map(|&i| scratch[i as usize]));
        if let Some(res) = residual {
            // Residual = effective signal minus what was sent: exact,
            // because sent entries are copied verbatim and zeroed here.
            res.clear();
            res.extend_from_slice(&out.scratch);
            for &i in &out.indices {
                res[i as usize] = 0.0;
            }
        }
    }

    fn clone_box(&self) -> Box<dyn Compressor> {
        Box::new(*self)
    }
}

/// A uniform draw in `[0, 1)`, pure in `(seed, lane)` — the stochastic
/// rounding coin.
fn unit(seed: u64, lane: u64) -> f64 {
    let h = splitmix64(seed ^ lane.wrapping_mul(0x2545_F491_4F6C_DD1D));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn synth(seed: u64, dim: usize) -> Vec<f64> {
        (0..dim).map(|d| unit(seed, d as u64) * 2.0 - 1.0).collect()
    }

    #[test]
    fn int8_error_bounded_by_scale() {
        let update = synth(3, 64);
        let mut out = CompressedUpdate::new();
        Int8Quantizer.compress(&update, 99, None, &mut out);
        assert_eq!(out.wire_bytes(), 4 + 64);
        assert_eq!(out.raw_bytes(), 8 * 64);
        let mut decoded = Vec::new();
        out.decode_into(&mut decoded);
        let max_abs = update.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let scale = (max_abs / 127.0) as f32 as f64;
        for (u, d) in update.iter().zip(decoded.iter()) {
            assert!(
                (u - d).abs() <= scale + 1e-12,
                "per-entry error bounded by one quantization step"
            );
        }
    }

    #[test]
    fn int8_is_deterministic_per_seed() {
        let update = synth(5, 128);
        let (mut a, mut b, mut c) = (
            CompressedUpdate::new(),
            CompressedUpdate::new(),
            CompressedUpdate::new(),
        );
        Int8Quantizer.compress(&update, 7, None, &mut a);
        Int8Quantizer.compress(&update, 7, None, &mut b);
        Int8Quantizer.compress(&update, 8, None, &mut c);
        assert_eq!(a, b, "same stream seed, same bytes");
        assert_ne!(a.bytes, c.bytes, "different seed re-rolls the rounding");
    }

    #[test]
    fn topk_error_feedback_is_exact() {
        // Invariant: sent + residual' == update + residual, exactly.
        let mut residual: Vec<f64> = Vec::new();
        let mut out = CompressedUpdate::new();
        let sparser = TopKSparsifier::new(0.25);
        let mut carried_in: Vec<f64> = vec![0.0; 32];
        for round in 0..5u64 {
            let update = synth(round * 31 + 1, 32);
            let effective: Vec<f64> = update
                .iter()
                .zip(carried_in.iter())
                .map(|(u, r)| u + r)
                .collect();
            sparser.compress(&update, round, Some(&mut residual), &mut out);
            let mut sent = Vec::new();
            out.decode_into(&mut sent);
            for ((s, r), e) in sent.iter().zip(residual.iter()).zip(effective.iter()) {
                assert_eq!(
                    (s + r).to_bits(),
                    e.to_bits(),
                    "error feedback must conserve the signal exactly"
                );
            }
            carried_in.clone_from(&residual);
        }
        assert_eq!(out.values.len(), 8, "25% of 32 entries kept");
        assert_eq!(out.wire_bytes(), 4 + 12 * 8);
    }

    #[test]
    fn topk_keeps_the_largest_magnitudes() {
        let mut update = vec![0.01; 16];
        update[3] = -5.0;
        update[11] = 4.0;
        let mut out = CompressedUpdate::new();
        TopKSparsifier::new(2.0 / 16.0).compress(&update, 0, None, &mut out);
        assert_eq!(out.indices, vec![3, 11]);
        let mut decoded = Vec::new();
        out.decode_into(&mut decoded);
        assert_eq!(decoded[3], -5.0);
        assert_eq!(decoded[11], 4.0);
        assert!(decoded
            .iter()
            .enumerate()
            .all(|(i, &v)| v == 0.0 || i == 3 || i == 11));
    }

    #[test]
    fn residual_bounded_under_repeated_topk() {
        // With a contractive signal the residual cannot grow without
        // bound: each round sends the largest entries, so the carried
        // error stays within a small multiple of the per-round update.
        let sparser = TopKSparsifier::new(0.25);
        let mut residual = Vec::new();
        let mut out = CompressedUpdate::new();
        let mut max_norm = 0.0f64;
        for round in 0..50u64 {
            let update = synth(round + 100, 40);
            sparser.compress(&update, round, Some(&mut residual), &mut out);
            let norm = residual.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            max_norm = max_norm.max(norm);
        }
        assert!(
            max_norm < 10.0,
            "residual must stay bounded, got max |r| = {max_norm}"
        );
    }

    #[test]
    fn dense_flushes_residual() {
        let update = vec![1.0, 2.0];
        let mut residual = vec![0.5, -0.25];
        let mut out = CompressedUpdate::new();
        NoCompression.compress(&update, 0, Some(&mut residual), &mut out);
        let mut decoded = Vec::new();
        out.decode_into(&mut decoded);
        assert_eq!(decoded, vec![1.5, 1.75]);
        assert!(residual.iter().all(|&r| r == 0.0));
        assert_eq!(out.wire_bytes(), out.raw_bytes());
    }

    #[test]
    fn zero_update_compresses_to_zero() {
        let update = vec![0.0; 8];
        let mut out = CompressedUpdate::new();
        Int8Quantizer.compress(&update, 1, None, &mut out);
        let mut decoded = Vec::new();
        out.decode_into(&mut decoded);
        assert_eq!(decoded, update);
    }

    /// Inputs (each also negated) where an inline floor is easiest to get
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
    fn inline_floor_matches_the_library_on_edge_cases() {
        for x in EDGES.into_iter().flat_map(|x| [x, -x]) {
            assert_eq!(floor(x).to_bits(), x.floor().to_bits(), "floor({x:e})");
        }
    }

    proptest! {
        /// Random bit patterns, `k + 0.5` ties across every magnitude
        /// below 2^52 with their neighbouring doubles, and random doubles
        /// with exponents around the integer range.
        #[test]
        fn inline_floor_matches_the_library_bit_for_bit(seed in 0u64..u64::MAX) {
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
                        floor(x).to_bits() == x.floor().to_bits(),
                        "floor({x:e}) = {:e}, library {:e}",
                        floor(x),
                        x.floor()
                    );
                }
            }
        }
    }
}
