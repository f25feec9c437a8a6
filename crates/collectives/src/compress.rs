//! Gradient compression — the paper's stated future work (§VI-D: "We will
//! leave it as our future work to introduce gradient compression techniques
//! into our DeAR scheduling framework").
//!
//! Two classic compressors are provided, plus the error-feedback residual
//! accumulator that keeps compressed S-SGD convergent:
//!
//! - [`TopK`]: magnitude-based sparsification (Lin et al., DGC); aggregated
//!   with a ring all-gather of the sparse payloads
//!   ([`compressed_aggregate`]), since sparse contributions cannot ride a
//!   sum-reducing reduce-scatter.
//! - [`Uniform8`]: block-wise uniform 8-bit quantization (QSGD-style).
//! - [`ErrorFeedback`]: carries the compression residual into the next
//!   iteration.
//!
//! Payloads are real byte strings ([`Compressed::payload`] is `Vec<u8>`,
//! each compressor documents its encoding) and travel over transports as
//! opaque [`DType::U8`] wire buffers — see [`Compressed::into_wire`] /
//! [`Compressed::from_wire`].

use crate::error::CollectiveError;
use crate::transport::Transport;
use crate::wire::{DType, WireBuf};

/// A compressed gradient payload: an opaque byte string whose layout is
/// defined by the compressor that produced it (all multi-byte fields are
/// little-endian).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Compressed {
    /// Encoded payload bytes (see each compressor's documented format).
    pub payload: Vec<u8>,
}

impl Compressed {
    /// Size in bytes on the wire.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.payload.len() as u64
    }

    /// Wraps the payload as an opaque [`DType::U8`] wire buffer, ready to
    /// travel over any [`Transport`].
    #[must_use]
    pub fn into_wire(self) -> WireBuf {
        WireBuf::from_raw(DType::U8, self.payload).expect("U8 accepts any byte length")
    }

    /// Recovers a payload from a wire buffer. The buffer's dtype tag is not
    /// interpreted (compressor payloads are self-describing); the
    /// compressor's decoder validates the layout.
    #[must_use]
    pub fn from_wire(wire: WireBuf) -> Compressed {
        Compressed {
            payload: wire.into_bytes(),
        }
    }
}

fn read_u32(payload: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(
        payload[off..off + 4]
            .try_into()
            .expect("bounds checked by caller"),
    )
}

fn read_f32(payload: &[u8], off: usize) -> f32 {
    f32::from_le_bytes(
        payload[off..off + 4]
            .try_into()
            .expect("bounds checked by caller"),
    )
}

/// A lossy gradient compressor.
pub trait Compressor {
    /// Compresses `data` into a payload.
    fn compress(&self, data: &[f32]) -> Compressed;

    /// Decodes a payload back to a dense vector of length `len`,
    /// **accumulating** into `out` (so P contributions can be summed).
    ///
    /// # Panics
    ///
    /// Implementations may panic on malformed payloads.
    fn accumulate_into(&self, compressed: &Compressed, out: &mut [f32]);

    /// The nominal compression ratio (compressed bytes / dense bytes).
    fn ratio(&self) -> f64;

    /// [`Compressor::compress`] straight to an opaque wire buffer.
    fn compress_wire(&self, data: &[f32]) -> WireBuf {
        self.compress(data).into_wire()
    }

    /// [`Compressor::accumulate_into`] from a received wire buffer.
    fn accumulate_wire(&self, wire: WireBuf, out: &mut [f32]) {
        self.accumulate_into(&Compressed::from_wire(wire), out);
    }
}

/// Magnitude top-k sparsification: keeps the `ratio` fraction of entries
/// with the largest absolute values.
///
/// Payload encoding (little-endian): `[k: u32][(idx: u32)(val: f32)] × k`,
/// with indices strictly increasing — `4 + 8k` bytes total.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopK {
    ratio: f64,
}

impl TopK {
    /// Creates a sparsifier keeping the top `ratio` ∈ (0, 1] of entries.
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is out of range.
    #[must_use]
    pub fn new(ratio: f64) -> Self {
        assert!(ratio > 0.0 && ratio <= 1.0, "ratio must be in (0, 1]");
        TopK { ratio }
    }

    fn k_for(&self, len: usize) -> usize {
        ((len as f64 * self.ratio).ceil() as usize).clamp(1, len.max(1))
    }
}

impl Compressor for TopK {
    fn compress(&self, data: &[f32]) -> Compressed {
        assert!(
            u32::try_from(data.len()).is_ok(),
            "top-k indices exceed the u32 payload field"
        );
        let k = self.k_for(data.len());
        let mut order: Vec<usize> = (0..data.len()).collect();
        order.sort_by(|&a, &b| {
            data[b]
                .abs()
                .partial_cmp(&data[a].abs())
                .expect("gradients must be finite")
        });
        let mut payload = Vec::with_capacity(4 + 8 * k);
        payload.extend_from_slice(&(k as u32).to_le_bytes());
        let mut kept: Vec<usize> = order.into_iter().take(k).collect();
        kept.sort_unstable();
        for idx in kept {
            payload.extend_from_slice(&(idx as u32).to_le_bytes());
            payload.extend_from_slice(&data[idx].to_le_bytes());
        }
        Compressed { payload }
    }

    fn accumulate_into(&self, compressed: &Compressed, out: &mut [f32]) {
        let p = &compressed.payload;
        assert!(p.len() >= 4, "malformed top-k payload");
        let k = read_u32(p, 0) as usize;
        assert_eq!(p.len(), 4 + 8 * k, "malformed top-k payload");
        for i in 0..k {
            let off = 4 + 8 * i;
            let idx = read_u32(p, off) as usize;
            out[idx] += read_f32(p, off + 4);
        }
    }

    fn ratio(&self) -> f64 {
        2.0 * self.ratio
    }
}

/// Block-wise uniform 8-bit quantization. Each block of `block` values is
/// scaled into 255 levels between its min and max.
///
/// Payload encoding (little-endian): `[len: u32]` then per block
/// `[lo: f32][hi: f32][q: u8 × block_len]` — one byte per value plus eight
/// per block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform8 {
    block: usize,
}

impl Uniform8 {
    /// Creates a quantizer with the given block length.
    ///
    /// # Panics
    ///
    /// Panics if `block == 0`.
    #[must_use]
    pub fn new(block: usize) -> Self {
        assert!(block > 0, "block length must be positive");
        Uniform8 { block }
    }
}

impl Compressor for Uniform8 {
    fn compress(&self, data: &[f32]) -> Compressed {
        assert!(
            u32::try_from(data.len()).is_ok(),
            "quantized length exceeds the u32 payload field"
        );
        let nblocks = data.len().div_ceil(self.block.max(1));
        let mut payload = Vec::with_capacity(4 + 8 * nblocks + data.len());
        payload.extend_from_slice(&(data.len() as u32).to_le_bytes());
        for block in data.chunks(self.block) {
            let lo = block.iter().copied().fold(f32::INFINITY, f32::min);
            let hi = block.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            payload.extend_from_slice(&lo.to_le_bytes());
            payload.extend_from_slice(&hi.to_le_bytes());
            let scale = if hi > lo { 255.0 / (hi - lo) } else { 0.0 };
            for &v in block {
                let q = ((v - lo) * scale).round().clamp(0.0, 255.0) as u8;
                payload.push(q);
            }
        }
        Compressed { payload }
    }

    fn accumulate_into(&self, compressed: &Compressed, out: &mut [f32]) {
        let p = &compressed.payload;
        assert!(p.len() >= 4, "malformed quantized payload");
        let len = read_u32(p, 0) as usize;
        assert_eq!(len, out.len(), "quantized payload length mismatch");
        let mut cursor = 4usize;
        let mut base = 0usize;
        while base < len {
            let block_len = self.block.min(len - base);
            let lo = read_f32(p, cursor);
            let hi = read_f32(p, cursor + 4);
            cursor += 8;
            let scale = if hi > lo { (hi - lo) / 255.0 } else { 0.0 };
            for i in 0..block_len {
                out[base + i] += lo + f32::from(p[cursor + i]) * scale;
            }
            cursor += block_len;
            base += block_len;
        }
        assert_eq!(cursor, p.len(), "malformed quantized payload");
    }

    fn ratio(&self) -> f64 {
        // 1 byte per value plus two f32 per block.
        0.25 + 8.0 / (self.block as f64 * 4.0)
    }
}

/// Error-feedback residual (Karimireddy et al.): the part of the gradient
/// the compressor dropped is carried into the next iteration, preserving
/// convergence.
#[derive(Debug, Clone, Default)]
pub struct ErrorFeedback {
    residual: Vec<f32>,
}

impl ErrorFeedback {
    /// Creates an empty accumulator (residual allocated lazily).
    #[must_use]
    pub fn new() -> Self {
        ErrorFeedback::default()
    }

    /// Adds the residual to `grad` (in place), compresses the compensated
    /// gradient, updates the residual to the newly-dropped part, and
    /// returns the payload.
    pub fn compress_with_feedback(
        &mut self,
        compressor: &impl Compressor,
        grad: &mut [f32],
    ) -> Compressed {
        if self.residual.len() != grad.len() {
            self.residual = vec![0.0; grad.len()];
        }
        for (g, r) in grad.iter_mut().zip(&self.residual) {
            *g += r;
        }
        let compressed = compressor.compress(grad);
        // residual = compensated - decompressed
        let mut decompressed = vec![0.0f32; grad.len()];
        compressor.accumulate_into(&compressed, &mut decompressed);
        for ((r, &g), d) in self.residual.iter_mut().zip(grad.iter()).zip(decompressed) {
            *r = g - d;
        }
        compressed
    }

    /// The current residual (empty before first use).
    #[must_use]
    pub fn residual(&self) -> &[f32] {
        &self.residual
    }
}

/// Ring all-gather of **variable-length** payloads: after the call every
/// rank holds all `world` payloads, in rank order. `P−1` forwarding rounds.
/// Payloads keep their dtype tags, so this moves opaque compressor bytes
/// and numeric buffers alike.
///
/// # Errors
///
/// Propagates transport errors.
pub fn ring_all_gather_variable<T: Transport>(
    t: &T,
    own: WireBuf,
) -> Result<Vec<WireBuf>, CollectiveError> {
    let world = t.world_size();
    let rank = t.rank();
    let mut payloads: Vec<Option<WireBuf>> = (0..world).map(|_| None).collect();
    let next = (rank + 1) % world;
    let prev = (rank + world - 1) % world;
    let mut current = own.clone();
    let mut current_owner = rank;
    payloads[rank] = Some(own);
    for _ in 0..world.saturating_sub(1) {
        t.send(next, current.into())?;
        let incoming = t.recv(prev)?.into_payload();
        current_owner = (current_owner + world - 1) % world;
        payloads[current_owner] = Some(incoming.clone());
        current = incoming;
    }
    Ok(payloads
        .into_iter()
        .map(|p| p.expect("every owner visited"))
        .collect())
}

/// Compressed gradient aggregation: compresses `data` (with error
/// feedback), all-gathers every rank's payload, and replaces `data` with
/// the **average** of the decompressed contributions.
///
/// # Errors
///
/// Propagates transport errors.
pub fn compressed_aggregate<T: Transport>(
    t: &T,
    data: &mut [f32],
    compressor: &impl Compressor,
    feedback: &mut ErrorFeedback,
) -> Result<(), CollectiveError> {
    let payload = feedback.compress_with_feedback(compressor, data);
    let all = ring_all_gather_variable(t, payload.into_wire())?;
    data.iter_mut().for_each(|x| *x = 0.0);
    for p in all {
        compressor.accumulate_wire(p, data);
    }
    let inv = 1.0 / t.world_size() as f32;
    for x in data.iter_mut() {
        *x *= inv;
    }
    Ok(())
}

/// Wire bytes moved per rank by [`compressed_aggregate`] for a dense size
/// of `bytes`, versus the `2·(P−1)/P·bytes` of a ring all-reduce — the
/// break-even analysis for when compression pays off.
#[must_use]
pub fn compressed_aggregate_wire_bytes(bytes: u64, ratio: f64, world: usize) -> f64 {
    // Each rank forwards (P-1) payloads of ratio*d bytes.
    (world.saturating_sub(1)) as f64 * ratio * bytes as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::run_cluster;

    #[test]
    fn topk_keeps_largest_magnitudes() {
        let data = vec![0.1, -5.0, 0.2, 3.0, -0.05];
        let c = TopK::new(0.4); // k = 2
        let payload = c.compress(&data);
        // Documented encoding: [k u32][(idx u32)(val f32)] * k.
        assert_eq!(payload.payload.len(), 4 + 8 * 2);
        assert_eq!(payload.bytes(), 20);
        let mut out = vec![0.0; 5];
        c.accumulate_into(&payload, &mut out);
        assert_eq!(out, vec![0.0, -5.0, 0.0, 3.0, 0.0]);
    }

    #[test]
    fn topk_payload_layout_is_the_documented_bytes() {
        let data = vec![0.0f32, 9.0, 0.0, -4.0];
        let payload = TopK::new(0.5).compress(&data).payload;
        assert_eq!(&payload[0..4], &2u32.to_le_bytes()); // k = 2
        assert_eq!(&payload[4..8], &1u32.to_le_bytes()); // idx 1
        assert_eq!(&payload[8..12], &9.0f32.to_le_bytes());
        assert_eq!(&payload[12..16], &3u32.to_le_bytes()); // idx 3
        assert_eq!(&payload[16..20], &(-4.0f32).to_le_bytes());
    }

    #[test]
    fn topk_full_ratio_is_lossless() {
        let data = vec![1.0, -2.0, 3.5, 0.0];
        let c = TopK::new(1.0);
        let mut out = vec![0.0; 4];
        c.accumulate_into(&c.compress(&data), &mut out);
        assert_eq!(out, data);
    }

    #[test]
    fn uniform8_bounded_error() {
        let data: Vec<f32> = (0..1000).map(|i| ((i as f32) * 0.37).sin()).collect();
        let c = Uniform8::new(256);
        let payload = c.compress(&data);
        // 4 blocks: 4 + 4*8 + 1000 bytes — about a quarter of 4000 dense.
        assert_eq!(payload.bytes(), 4 + 32 + 1000);
        let mut out = vec![0.0; 1000];
        c.accumulate_into(&payload, &mut out);
        let range = 2.0; // values span [-1, 1]
        let max_err = data
            .iter()
            .zip(&out)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(max_err <= range / 255.0 + 1e-6, "max error {max_err}");
        assert!(c.ratio() < 0.27);
    }

    #[test]
    fn uniform8_handles_constant_blocks_and_tails() {
        let data = vec![7.0f32; 13]; // constant + short tail block
        let c = Uniform8::new(8);
        let mut out = vec![0.0; 13];
        c.accumulate_into(&c.compress(&data), &mut out);
        assert_eq!(out, data);
    }

    #[test]
    fn compressed_roundtrips_through_an_opaque_wire_buffer() {
        let c = Uniform8::new(4);
        let data = vec![0.25f32, -1.0, 3.5, 0.0, 2.0];
        let wire = c.compress_wire(&data);
        assert_eq!(wire.dtype(), DType::U8);
        assert_eq!(wire.num_bytes() as u64, c.compress(&data).bytes());
        let mut out = vec![0.0; 5];
        c.accumulate_wire(wire, &mut out);
        for (a, b) in data.iter().zip(&out) {
            assert!((a - b).abs() <= (4.5 / 255.0) + 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn error_feedback_carries_dropped_mass() {
        let c = TopK::new(0.5);
        let mut ef = ErrorFeedback::new();
        let mut grad = vec![1.0f32, 0.1, -2.0, 0.05];
        let _ = ef.compress_with_feedback(&c, &mut grad);
        // The two small entries were dropped; their mass is the residual.
        assert_eq!(ef.residual(), &[0.0, 0.1, 0.0, 0.05]);
        // Next iteration, the residual compensates: after enough rounds the
        // small entries get transmitted.
        let mut grad2 = vec![0.0f32, 0.1, 0.0, 0.05];
        let payload = ef.compress_with_feedback(&c, &mut grad2);
        let mut out = vec![0.0; 4];
        c.accumulate_into(&payload, &mut out);
        assert!(
            (out[1] - 0.2).abs() < 1e-6,
            "compensated value sent: {out:?}"
        );
    }

    #[test]
    fn variable_all_gather_collects_all_payloads() {
        let results = run_cluster(4, |ep| {
            let own = WireBuf::from_raw(DType::U8, vec![ep.rank() as u8; ep.rank() + 1]).unwrap();
            ring_all_gather_variable(&ep, own).unwrap()
        });
        for payloads in results {
            for (rank, p) in payloads.iter().enumerate() {
                assert_eq!(p.dtype(), DType::U8);
                assert_eq!(p.bytes(), &vec![rank as u8; rank + 1][..]);
            }
        }
    }

    #[test]
    fn compressed_aggregate_with_full_ratio_matches_mean() {
        let world = 4;
        let d = 20;
        let results = run_cluster(world, |ep| {
            let mut data: Vec<f32> = (0..d).map(|i| (ep.rank() * d + i) as f32).collect();
            let mut ef = ErrorFeedback::new();
            compressed_aggregate(&ep, &mut data, &TopK::new(1.0), &mut ef).unwrap();
            data
        });
        let expect: Vec<f32> = (0..d)
            .map(|i| (0..world).map(|r| (r * d + i) as f32).sum::<f32>() / world as f32)
            .collect();
        for data in results {
            for (a, b) in data.iter().zip(&expect) {
                assert!((a - b).abs() < 1e-4, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn compressed_aggregate_quantized_is_close_to_mean() {
        let world = 3;
        let d = 64;
        let results = run_cluster(world, |ep| {
            let mut data: Vec<f32> = (0..d)
                .map(|i| ((ep.rank() + i) as f32 * 0.1).cos())
                .collect();
            let mut ef = ErrorFeedback::new();
            compressed_aggregate(&ep, &mut data, &Uniform8::new(32), &mut ef).unwrap();
            data
        });
        let expect: Vec<f32> = (0..d)
            .map(|i| {
                (0..world)
                    .map(|r| ((r + i) as f32 * 0.1).cos())
                    .sum::<f32>()
                    / world as f32
            })
            .collect();
        for data in results {
            for (a, b) in data.iter().zip(&expect) {
                assert!((a - b).abs() < 0.02, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn wire_bytes_break_even() {
        // Dense ring all-reduce moves ~2d per rank; compressed aggregation
        // moves (P-1)·ratio·d. With 64 workers, compression wins only when
        // ratio < 2/63.
        let d = 1_000_000u64;
        let world = 64;
        let dense = 2.0 * d as f64 * (world - 1) as f64 / world as f64;
        assert!(compressed_aggregate_wire_bytes(d, 0.01, world) < dense);
        assert!(compressed_aggregate_wire_bytes(d, 0.25, world) > dense);
    }

    #[test]
    #[should_panic(expected = "ratio must be in")]
    fn topk_rejects_zero_ratio() {
        let _ = TopK::new(0.0);
    }
}
