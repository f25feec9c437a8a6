//! The byte-typed wire format: every payload that crosses a transport is a
//! [`WireBuf`] — a dtype-tagged little-endian byte buffer.
//!
//! This is the substrate for mixed-precision collectives: a rank holds its
//! working data in `f32`, **casts once on send** to the configured wire
//! dtype ([`DType::Bf16`] / [`DType::F16`]), and the receiver widens back to
//! `f32` *as it accumulates* — so every hop of a reduction rounds at most
//! once and rounding never cascades through the partial sums (the
//! accumulator itself is never narrowed mid-collective). [`DType::U8`] is an
//! opaque container for compressor payloads, which define their own
//! encodings (see [`crate::Compressed`]).
//!
//! All encodings are little-endian and bit-exact for `f32`: an encode/decode
//! round-trip through [`DType::F32`] reproduces the input bits, which is
//! what keeps the default wire path bit-identical to an all-`f32` stack.

use crate::error::CollectiveError;
use crate::reduce::ReduceOp;
use crate::simd;

use serde::{Deserialize, Serialize};

/// The element type of a wire payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum DType {
    /// 32-bit IEEE-754 float, bit-exact on the wire (the default).
    #[default]
    F32,
    /// bfloat16: f32's 8-bit exponent with a 7-bit mantissa. Same dynamic
    /// range as f32, ~2-3 decimal digits — the standard gradient wire type.
    Bf16,
    /// IEEE-754 binary16: 5-bit exponent, 10-bit mantissa. More mantissa
    /// than bf16 but overflows above 65504.
    F16,
    /// Opaque bytes with a compressor-defined encoding; not element-typed
    /// numerically (`size_bytes` is 1, one "element" per byte).
    U8,
}

impl DType {
    /// Bytes per element on the wire.
    #[must_use]
    pub const fn size_bytes(self) -> usize {
        match self {
            DType::F32 => 4,
            DType::Bf16 | DType::F16 => 2,
            DType::U8 => 1,
        }
    }

    /// The one-byte tag used by wire protocols (part of the frame ABI:
    /// never renumber).
    #[must_use]
    pub const fn tag(self) -> u8 {
        match self {
            DType::F32 => 0,
            DType::Bf16 => 1,
            DType::F16 => 2,
            DType::U8 => 3,
        }
    }

    /// Inverse of [`DType::tag`].
    #[must_use]
    pub const fn from_tag(tag: u8) -> Option<DType> {
        match tag {
            0 => Some(DType::F32),
            1 => Some(DType::Bf16),
            2 => Some(DType::F16),
            3 => Some(DType::U8),
            _ => None,
        }
    }

    /// Lowercase name, matching [`DType::parse`].
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            DType::F32 => "f32",
            DType::Bf16 => "bf16",
            DType::F16 => "f16",
            DType::U8 => "u8",
        }
    }

    /// Parses a dtype name (`"f32"`, `"bf16"`, `"f16"`, `"u8"`).
    #[must_use]
    pub fn parse(name: &str) -> Option<DType> {
        match name.trim().to_ascii_lowercase().as_str() {
            "f32" | "fp32" | "float32" => Some(DType::F32),
            "bf16" | "bfloat16" => Some(DType::Bf16),
            "f16" | "fp16" | "float16" | "half" => Some(DType::F16),
            "u8" | "byte" => Some(DType::U8),
            _ => None,
        }
    }

    /// Whether `f32` data can be encoded to / decoded from this dtype
    /// (everything but the opaque [`DType::U8`]).
    #[must_use]
    pub const fn is_numeric(self) -> bool {
        !matches!(self, DType::U8)
    }
}

impl std::fmt::Display for DType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Casts `f32 → bf16` with round-to-nearest-even (the IEEE default mode).
///
/// bf16 is the top 16 bits of the f32 representation, so the cast rounds
/// the low 16 bits away; NaNs are quieted so a payload NaN cannot collapse
/// to ±inf.
#[must_use]
pub fn f32_to_bf16(x: f32) -> u16 {
    let bits = x.to_bits();
    // Round to nearest, ties to even: add 0x7FFF plus the LSB that survives.
    let round_bias = 0x7FFF + ((bits >> 16) & 1);
    let rounded = (bits.wrapping_add(round_bias) >> 16) as u16;
    // Keep the sign, force a quiet NaN mantissa that survives truncation.
    let quieted = ((bits >> 16) as u16) | 0x0040;
    // Branchless select so bulk encode loops vectorize.
    if (bits & 0x7FFF_FFFF) > 0x7F80_0000 {
        quieted
    } else {
        rounded
    }
}

/// Widens `bf16 → f32`. Exact: every bf16 value is representable in f32.
#[must_use]
pub fn bf16_to_f32(b: u16) -> f32 {
    f32::from_bits(u32::from(b) << 16)
}

/// Casts `f32 → f16` (IEEE binary16) with round-to-nearest-even.
///
/// Values above the f16 range become ±inf; subnormal results are rounded
/// denormals; NaNs are quieted.
#[must_use]
pub fn f32_to_f16(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let f = bits & 0x7FFF_FFFF;
    // All three cases are computed branch-free and selected at the end, so
    // bulk encode loops auto-vectorize (the scalar port of the classic
    // "float_to_half_fast3_rtne" bit trick).
    //
    // Normal result (2^-14 <= |x| < 65520): rebias the exponent and round
    // to nearest-even on the 13 dropped bits; the rounding carry may
    // overflow into the exponent, including up to inf — that is the
    // correct RNE result for values in [65504, 65520).
    let odd = (f >> 13) & 1;
    let normal = (f.wrapping_sub(0x3800_0000).wrapping_add(0xFFF + odd) >> 13) as u16;
    // Subnormal-or-zero result (|x| < 2^-14): adding 0.5 makes the FPU
    // align x's mantissa to f16-subnormal ULPs and round to nearest-even
    // in hardware; stripping 0.5's bits back off leaves the f16 payload.
    let magic = 126u32 << 23; // 0.5f32
    let subnormal = (f32::from_bits(f) + f32::from_bits(magic))
        .to_bits()
        .wrapping_sub(magic) as u16;
    // Inf, NaN (quieted), or overflow to inf.
    let special = if f > 0x7F80_0000 { 0x7E00 } else { 0x7C00 };
    let o = if f >= 0x4780_0000 {
        special
    } else if f < 0x3880_0000 {
        subnormal
    } else {
        normal
    };
    sign | o
}

/// Widens `f16 → f32`. Exact: every f16 value is representable in f32.
#[must_use]
pub fn f16_to_f32(h: u16) -> f32 {
    let sign = u32::from(h & 0x8000) << 16;
    let bits = u32::from(h & 0x7FFF) << 13;
    // Reinterpreting the f16 exponent field as f32 leaves the value scaled
    // down by 2^(127-15); one multiply by 2^112 undoes that *exactly*
    // (power of two), and the FPU normalizes f16 subnormals for free —
    // branch-free, so bulk decode/accumulate loops auto-vectorize.
    let f = f32::from_bits(bits) * f32::from_bits(0x7780_0000); // 2^112
                                                                // inf/NaN: saturate the exponent back (mask arithmetic, no branch).
    let special = u32::from(h & 0x7C00 == 0x7C00) * 0x7F80_0000;
    f32::from_bits(f.to_bits() | special | sign)
}

/// Rounds every element of `data` to the value it takes after one trip
/// through `wire` (a no-op for [`DType::F32`]).
///
/// Senders of **copy**-collectives (all-gather, broadcast) apply this so
/// they keep exactly the values they shipped: every rank — the source
/// included — then holds bit-identical data after the collective. Relays
/// re-encode such already-rounded values without further loss
/// (`narrow(widen(y)) == y`), so the one-cast-per-hop rule holds across an
/// arbitrary number of forwarding hops.
///
/// # Panics
///
/// Panics for [`DType::U8`], which has no numeric rounding.
pub fn round_to_wire(data: &mut [f32], wire: DType) {
    match wire {
        DType::F32 => {}
        DType::Bf16 => {
            for x in data {
                *x = bf16_to_f32(f32_to_bf16(*x));
            }
        }
        DType::F16 => {
            for x in data {
                *x = f16_to_f32(f32_to_f16(*x));
            }
        }
        DType::U8 => panic!("opaque U8 has no numeric rounding"),
    }
}

/// A typed error for a payload that cannot be interpreted as `f32`
/// elements — an opaque [`DType::U8`] buffer arriving where a numeric one
/// was expected. Peer-supplied, so it must never panic the training thread.
fn opaque_payload_error(bytes: usize) -> CollectiveError {
    CollectiveError::WireFormat {
        dtype: DType::U8.name(),
        bytes,
    }
}

/// A dtype-tagged, little-endian byte payload — the unit that travels over
/// every [`crate::Transport`].
///
/// `len_elems` counts **elements** (of `dtype`), and `bytes.len()` is
/// always `len_elems * dtype.size_bytes()`. The buffer is self-describing:
/// receivers decode by the payload's own tag, so a wire can carry mixed
/// precisions frame by frame.
#[derive(Debug, Clone, PartialEq)]
pub struct WireBuf {
    dtype: DType,
    bytes: Vec<u8>,
    len_elems: usize,
}

impl WireBuf {
    /// An empty `f32` payload.
    #[must_use]
    pub fn empty() -> WireBuf {
        WireBuf {
            dtype: DType::F32,
            bytes: Vec::new(),
            len_elems: 0,
        }
    }

    /// Encodes `src` as little-endian `f32` bytes — bit-exact, no rounding.
    #[must_use]
    pub fn from_f32(src: &[f32]) -> WireBuf {
        WireBuf::encode_into(src, DType::F32, Vec::with_capacity(src.len() * 4))
    }

    /// Encodes `src` to `dtype` — **the cast-on-send step**. For
    /// [`DType::F32`] this is bit-exact; for [`DType::Bf16`]/[`DType::F16`]
    /// each element is rounded to nearest-even exactly once.
    ///
    /// # Panics
    ///
    /// Panics for [`DType::U8`], which has no numeric encoding — build
    /// opaque payloads with [`WireBuf::from_raw`].
    #[must_use]
    pub fn encode(src: &[f32], dtype: DType) -> WireBuf {
        WireBuf::encode_into(
            src,
            dtype,
            Vec::with_capacity(src.len() * dtype.size_bytes()),
        )
    }

    /// [`WireBuf::encode`] into a reused byte buffer (cleared first), so
    /// pooling transports encode allocation-free.
    ///
    /// # Panics
    ///
    /// Panics for [`DType::U8`].
    #[must_use]
    pub fn encode_into(src: &[f32], dtype: DType, mut bytes: Vec<u8>) -> WireBuf {
        bytes.clear();
        bytes.resize(src.len() * dtype.size_bytes(), 0);
        match dtype {
            DType::F32 => simd::encode_f32(src, &mut bytes),
            DType::Bf16 => simd::encode_bf16(src, &mut bytes),
            DType::F16 => simd::encode_f16(src, &mut bytes),
            DType::U8 => panic!("U8 is an opaque container; use WireBuf::from_raw"),
        }
        WireBuf {
            dtype,
            bytes,
            len_elems: src.len(),
        }
    }

    /// [`WireBuf::encode_into`] fused with [`round_to_wire`]: encodes `src`
    /// to `dtype` and, in the same pass, replaces each `src` element with
    /// the value the receiver will decode — so a lossy sender keeps exactly
    /// what it shipped at the cost of one narrow + one widen per element
    /// instead of two narrows and a widen.
    ///
    /// # Panics
    ///
    /// Panics for [`DType::U8`].
    #[must_use]
    pub fn encode_round_into(src: &mut [f32], dtype: DType, mut bytes: Vec<u8>) -> WireBuf {
        bytes.clear();
        bytes.resize(src.len() * dtype.size_bytes(), 0);
        match dtype {
            DType::F32 => simd::encode_f32(src, &mut bytes),
            DType::Bf16 => simd::encode_round_bf16(src, &mut bytes),
            DType::F16 => simd::encode_round_f16(src, &mut bytes),
            DType::U8 => panic!("U8 is an opaque container; use WireBuf::from_raw"),
        }
        WireBuf {
            dtype,
            bytes,
            len_elems: src.len(),
        }
    }

    /// Wraps raw wire bytes already encoded as `dtype`.
    ///
    /// # Errors
    ///
    /// Returns [`CollectiveError::WireFormat`] if `bytes` is not a whole
    /// number of `dtype` elements.
    pub fn from_raw(dtype: DType, bytes: Vec<u8>) -> Result<WireBuf, CollectiveError> {
        if !bytes.len().is_multiple_of(dtype.size_bytes()) {
            return Err(CollectiveError::WireFormat {
                dtype: dtype.name(),
                bytes: bytes.len(),
            });
        }
        let len_elems = bytes.len() / dtype.size_bytes();
        Ok(WireBuf {
            dtype,
            bytes,
            len_elems,
        })
    }

    /// The element type.
    #[must_use]
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// Element count.
    #[must_use]
    pub fn len_elems(&self) -> usize {
        self.len_elems
    }

    /// Whether the payload is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len_elems == 0
    }

    /// Bytes on the wire (`len_elems × dtype.size_bytes()`), the quantity
    /// the β term of a cost model is charged for.
    #[must_use]
    pub fn num_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// The raw encoded bytes.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the payload, returning the byte buffer for pooling.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Decodes (widening if narrow) into `dst` — the receive-side cast.
    /// Exact for every dtype: bf16/f16 → f32 widening never rounds.
    ///
    /// Both failure modes are peer-triggerable on the training thread (the
    /// payload arrived off the wire), so they are typed errors, not panics.
    ///
    /// # Errors
    ///
    /// Returns [`CollectiveError::SizeMismatch`] if
    /// `dst.len() != len_elems`, and [`CollectiveError::WireFormat`] for an
    /// opaque ([`DType::U8`]) payload.
    pub fn decode_into(&self, dst: &mut [f32]) -> Result<(), CollectiveError> {
        self.check_len(dst)?;
        self.decode_part_into(0, dst)
    }

    /// [`WireBuf::decode_into`] of the elements `at..at + dst.len()`: a
    /// receiver that works through a payload piece by piece.
    pub(crate) fn decode_part_into(
        &self,
        at: usize,
        dst: &mut [f32],
    ) -> Result<(), CollectiveError> {
        let src = self.part(at, dst.len())?;
        match self.dtype {
            DType::F32 => simd::decode_f32(src, dst),
            DType::Bf16 => simd::decode_bf16(src, dst),
            DType::F16 => simd::decode_f16(src, dst),
            DType::U8 => return Err(opaque_payload_error(self.bytes.len())),
        }
        Ok(())
    }

    /// `SizeMismatch` unless `dst` holds exactly this payload's elements.
    fn check_len(&self, dst: &[f32]) -> Result<(), CollectiveError> {
        if dst.len() == self.len_elems {
            Ok(())
        } else {
            Err(CollectiveError::SizeMismatch {
                expected: dst.len(),
                actual: self.len_elems,
            })
        }
    }

    /// The bytes of the elements `at..at + len`.
    fn part(&self, at: usize, len: usize) -> Result<&[u8], CollectiveError> {
        let size = self.dtype.size_bytes();
        self.bytes
            .get(at * size..(at + len) * size)
            .ok_or(CollectiveError::SizeMismatch {
                expected: at + len,
                actual: self.len_elems,
            })
    }

    /// Decodes to a fresh vector.
    ///
    /// # Panics
    ///
    /// Panics for opaque ([`DType::U8`]) payloads — a convenience for
    /// tests and local (not peer-facing) callers; the training thread uses
    /// [`WireBuf::decode_into`], which returns a typed error instead.
    #[must_use]
    pub fn to_f32_vec(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.len_elems];
        self.decode_into(&mut out)
            .expect("opaque U8 payload cannot be decoded as f32");
        out
    }

    /// Accumulates this payload into `dst` with `op`, widening each element
    /// to `f32` **before** combining — the accumulate-in-f32 rule. One pass,
    /// no intermediate allocation; the running sums in `dst` stay full
    /// precision at every hop. [`ReduceOp::Sum`] takes the fused SIMD
    /// widen-accumulate kernels; the rare ops widen element-wise.
    ///
    /// # Errors
    ///
    /// Returns [`CollectiveError::SizeMismatch`] if
    /// `dst.len() != len_elems`, and [`CollectiveError::WireFormat`] for an
    /// opaque ([`DType::U8`]) payload — both are peer-triggerable and must
    /// never panic the training thread.
    pub fn accumulate_into(&self, dst: &mut [f32], op: ReduceOp) -> Result<(), CollectiveError> {
        self.check_len(dst)?;
        self.accumulate_part_into(0, dst, op)
    }

    /// [`WireBuf::accumulate_into`] of the elements `at..at + dst.len()`:
    /// a receiver that works through a payload piece by piece.
    pub(crate) fn accumulate_part_into(
        &self,
        at: usize,
        dst: &mut [f32],
        op: ReduceOp,
    ) -> Result<(), CollectiveError> {
        let src = self.part(at, dst.len())?;
        match (self.dtype, op) {
            (DType::F32, ReduceOp::Sum) => simd::sum_f32_bytes(dst, src),
            (DType::Bf16, ReduceOp::Sum) => simd::sum_bf16(dst, src),
            (DType::F16, ReduceOp::Sum) => simd::sum_f16(dst, src),
            (DType::F32, _) => {
                for (d, c) in dst.iter_mut().zip(src.chunks_exact(4)) {
                    *d = op.combine(*d, f32::from_le_bytes([c[0], c[1], c[2], c[3]]));
                }
            }
            (DType::Bf16, _) => {
                for (d, c) in dst.iter_mut().zip(src.chunks_exact(2)) {
                    *d = op.combine(*d, bf16_to_f32(u16::from_le_bytes([c[0], c[1]])));
                }
            }
            (DType::F16, _) => {
                for (d, c) in dst.iter_mut().zip(src.chunks_exact(2)) {
                    *d = op.combine(*d, f16_to_f32(u16::from_le_bytes([c[0], c[1]])));
                }
            }
            (DType::U8, _) => return Err(opaque_payload_error(self.bytes.len())),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtype_tags_roundtrip_and_are_stable() {
        for d in [DType::F32, DType::Bf16, DType::F16, DType::U8] {
            assert_eq!(DType::from_tag(d.tag()), Some(d));
            assert_eq!(DType::parse(d.name()), Some(d));
        }
        // Wire ABI: tags are frozen.
        assert_eq!(DType::F32.tag(), 0);
        assert_eq!(DType::Bf16.tag(), 1);
        assert_eq!(DType::F16.tag(), 2);
        assert_eq!(DType::U8.tag(), 3);
        assert_eq!(DType::from_tag(9), None);
        assert_eq!(DType::parse("q4"), None);
    }

    #[test]
    fn f32_roundtrip_is_bit_exact() {
        let vals = [
            0.0f32,
            -0.0,
            1.0,
            -1.5,
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1.0e-42, // subnormal
            std::f32::consts::PI,
        ];
        let wb = WireBuf::from_f32(&vals);
        assert_eq!(wb.dtype(), DType::F32);
        assert_eq!(wb.num_bytes(), vals.len() * 4);
        let back = wb.to_f32_vec();
        for (a, b) in vals.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // NaN separately: payload must stay NaN.
        let wb = WireBuf::from_f32(&[f32::NAN]);
        assert!(wb.to_f32_vec()[0].is_nan());
    }

    #[test]
    fn bf16_is_truncated_f32_with_rne() {
        // Exactly representable values roundtrip exactly (7 mantissa bits).
        for x in [0.0f32, 1.0, -2.0, 0.5, 256.0, -(2.0f32.powi(100))] {
            assert_eq!(bf16_to_f32(f32_to_bf16(x)), x);
        }
        // Relative error bounded by 2^-8 for normal values.
        for x in [1.234_567f32, -9.876e5, 3.3e-20, -1.0e30] {
            let y = bf16_to_f32(f32_to_bf16(x));
            assert!(((y - x) / x).abs() < 1.0 / 256.0, "{x} -> {y}");
        }
        // Ties round to even: 1 + 2^-7 + 2^-8 is exactly between two bf16
        // values; RNE picks the even mantissa (1 + 2^-6).
        let tie = 1.0 + 1.0 / 128.0 + 1.0 / 256.0;
        let rounded = bf16_to_f32(f32_to_bf16(tie));
        assert_eq!(rounded, 1.0 + 2.0 / 128.0);
        // NaN stays NaN, infinities survive.
        assert!(bf16_to_f32(f32_to_bf16(f32::NAN)).is_nan());
        assert_eq!(bf16_to_f32(f32_to_bf16(f32::INFINITY)), f32::INFINITY);
        assert_eq!(
            bf16_to_f32(f32_to_bf16(f32::NEG_INFINITY)),
            f32::NEG_INFINITY
        );
    }

    #[test]
    fn f16_cast_handles_normals_subnormals_and_overflow() {
        for x in [0.0f32, 1.0, -1.0, 0.5, 2048.0, 65504.0] {
            assert_eq!(f16_to_f32(f32_to_f16(x)), x, "{x} should be exact");
        }
        // Relative error bounded by 2^-11 for normal values.
        for x in [1.234_567f32, -0.000_123_4, 999.9] {
            let y = f16_to_f32(f32_to_f16(x));
            assert!(((y - x) / x).abs() < 1.0 / 2048.0, "{x} -> {y}");
        }
        // Overflow → inf.
        assert_eq!(f16_to_f32(f32_to_f16(1.0e6)), f32::INFINITY);
        assert_eq!(f16_to_f32(f32_to_f16(-1.0e6)), f32::NEG_INFINITY);
        // Subnormal f16 (smallest is 2^-24).
        let sub = 3.0e-6f32;
        let y = f16_to_f32(f32_to_f16(sub));
        assert!((y - sub).abs() <= 2.0f32.powi(-24));
        // Deep underflow → 0 with the sign preserved.
        assert_eq!(f16_to_f32(f32_to_f16(1.0e-10)), 0.0);
        assert_eq!(f32_to_f16(-1.0e-10), 0x8000);
        // NaN and infinities.
        assert!(f16_to_f32(f32_to_f16(f32::NAN)).is_nan());
        assert_eq!(f16_to_f32(f32_to_f16(f32::INFINITY)), f32::INFINITY);
    }

    #[test]
    fn round_to_wire_matches_one_wire_trip_and_is_idempotent() {
        let orig = [0.1f32, -1.234_567, 3.0e4, 1.0, -0.0, 7.5e-3];
        for d in [DType::F32, DType::Bf16, DType::F16] {
            let mut rounded = orig;
            round_to_wire(&mut rounded, d);
            // Identical to an encode/decode round-trip...
            assert_eq!(WireBuf::encode(&orig, d).to_f32_vec(), rounded.to_vec());
            // ...and a second rounding changes nothing (relays are lossless).
            let mut again = rounded;
            round_to_wire(&mut again, d);
            assert_eq!(again, rounded);
        }
    }

    #[test]
    #[should_panic(expected = "no numeric rounding")]
    fn round_to_wire_rejects_u8() {
        round_to_wire(&mut [1.0], DType::U8);
    }

    #[test]
    fn encode_round_into_fuses_encode_and_rounding() {
        let orig = [0.1f32, -1.234_567, 3.0e4, 1.0, -0.0, 7.5e-3, f32::NAN];
        for d in [DType::F32, DType::Bf16, DType::F16] {
            let separate = WireBuf::encode(&orig, d);
            let mut src = orig;
            let fused = WireBuf::encode_round_into(&mut src, d, Vec::new());
            // Same bytes as the two-pass path...
            assert_eq!(fused.bytes(), separate.bytes(), "{d} bytes diverged");
            // ...and src now holds exactly what was shipped.
            let mut expect = orig;
            round_to_wire(&mut expect, d);
            for (a, b) in src.iter().zip(&expect) {
                assert_eq!(a.to_bits(), b.to_bits(), "{d} src not rounded in place");
            }
        }
    }

    #[test]
    fn narrow_encodings_halve_the_wire_bytes() {
        let src = vec![1.5f32; 100];
        assert_eq!(WireBuf::encode(&src, DType::F32).num_bytes(), 400);
        assert_eq!(WireBuf::encode(&src, DType::Bf16).num_bytes(), 200);
        assert_eq!(WireBuf::encode(&src, DType::F16).num_bytes(), 200);
    }

    #[test]
    fn accumulate_widens_then_combines() {
        // dst += widen(bf16(x)): the accumulator keeps f32 precision even
        // though the wire was 16-bit.
        let mut dst = vec![1.0e-4f32; 4];
        let wb = WireBuf::encode(&[1.0, 2.0, 3.0, 4.0], DType::Bf16);
        wb.accumulate_into(&mut dst, ReduceOp::Sum).unwrap();
        for (i, d) in dst.iter().enumerate() {
            let expect = 1.0e-4 + (i as f32 + 1.0);
            assert_eq!(*d, expect, "exact: both addends are representable");
        }
        // Max combines through the widened value too.
        let mut dst = vec![2.5f32, 0.0];
        WireBuf::encode(&[1.0, 7.0], DType::F16)
            .accumulate_into(&mut dst, ReduceOp::Max)
            .unwrap();
        assert_eq!(dst, vec![2.5, 7.0]);
    }

    #[test]
    fn mis_sized_and_opaque_payloads_are_typed_errors_not_panics() {
        // Both arrive off the wire, so they must surface as errors the
        // communication engine can turn into a failed collective.
        let wb = WireBuf::from_f32(&[1.0, 2.0]);
        let mut short = vec![0.0f32; 1];
        assert!(matches!(
            wb.decode_into(&mut short),
            Err(CollectiveError::SizeMismatch {
                expected: 1,
                actual: 2
            })
        ));
        assert!(matches!(
            wb.accumulate_into(&mut short, ReduceOp::Sum),
            Err(CollectiveError::SizeMismatch { .. })
        ));
        // A U8 payload whose element count happens to match still cannot
        // be interpreted numerically.
        let opaque = WireBuf::from_raw(DType::U8, vec![7, 8, 9]).unwrap();
        let mut dst = vec![0.0f32; 3];
        assert!(matches!(
            opaque.decode_into(&mut dst),
            Err(CollectiveError::WireFormat {
                dtype: "u8",
                bytes: 3
            })
        ));
        assert!(matches!(
            opaque.accumulate_into(&mut dst, ReduceOp::Sum),
            Err(CollectiveError::WireFormat { .. })
        ));
    }

    #[test]
    fn from_raw_validates_element_alignment() {
        assert!(WireBuf::from_raw(DType::F32, vec![0; 8]).is_ok());
        let err = WireBuf::from_raw(DType::F32, vec![0; 7]).unwrap_err();
        assert!(matches!(
            err,
            CollectiveError::WireFormat {
                dtype: "f32",
                bytes: 7
            }
        ));
        assert!(WireBuf::from_raw(DType::Bf16, vec![0; 3]).is_err());
        // U8 accepts any length.
        let wb = WireBuf::from_raw(DType::U8, vec![1, 2, 3]).unwrap();
        assert_eq!(wb.len_elems(), 3);
        assert_eq!(wb.num_bytes(), 3);
    }

    #[test]
    fn encode_into_reuses_the_buffer() {
        let mut bytes = Vec::with_capacity(64);
        bytes.extend_from_slice(&[9; 10]);
        let ptr = bytes.as_ptr();
        let wb = WireBuf::encode_into(&[1.0, 2.0], DType::F32, bytes);
        assert_eq!(wb.num_bytes(), 8);
        assert_eq!(wb.bytes().as_ptr(), ptr, "buffer must be reused in place");
        assert_eq!(wb.to_f32_vec(), vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "opaque")]
    fn u8_encode_is_rejected() {
        let _ = WireBuf::encode(&[1.0], DType::U8);
    }

    #[test]
    #[should_panic(expected = "opaque")]
    fn u8_to_f32_vec_is_rejected() {
        let wb = WireBuf::from_raw(DType::U8, vec![1, 2]).unwrap();
        let _ = wb.to_f32_vec();
    }

    #[test]
    fn empty_payloads_work_for_all_dtypes() {
        for d in [DType::F32, DType::Bf16, DType::F16] {
            let wb = WireBuf::encode(&[], d);
            assert!(wb.is_empty());
            assert_eq!(wb.num_bytes(), 0);
            assert_eq!(wb.to_f32_vec(), Vec::<f32>::new());
        }
    }
}
