//! Explicit SIMD kernels for the byte hot path: the f32 accumulate and the
//! bf16/f16 encode-round/decode loops that sit on every collective's
//! critical path.
//!
//! Every kernel has a portable scalar reference in [`scalar`] (also the
//! fallback on machines without the required ISA). A hand-written twin
//! stays only where it beats the same source compiled for AVX2
//! (DESIGN.md §4.15 has the table): the six encode and f16 kernels keep an
//! intrinsic body — `std::simd` is still nightly-only, so they are written
//! against stable `core::arch::x86_64` — gated by **runtime feature
//! detection**, the top-level functions dispatching per call via
//! `is_x86_feature_detected!` so one binary runs everywhere. `sum_bf16`
//! and `decode_bf16` dispatch the same way to their *scalar* body compiled
//! under `#[target_feature(enable = "avx2")]`; the f32 accumulates, which
//! the compiler vectorises as well for the baseline ISA, call the scalar
//! body directly.
//!
//! **Bit-identity is a hard contract**: for every input — NaN payloads,
//! denormals, ±inf, round-to-nearest-even ties, signed zeros — the vector
//! kernels produce exactly the bytes of the scalar reference, including
//! the NaN-quieting (`| 0x0040` / `0x7E00`) and RNE carry behaviour of the
//! scalar cast tricks in `crate::wire`. The proptests in
//! `tests/proptest_simd.rs` pin this across aligned, misaligned, and
//! odd-length slices. The vector integer ops mirror the scalar wrapping
//! arithmetic exactly, and the only float ops used (`add`, `mul`) follow
//! the same IEEE-754 rules lane-wise that the scalar versions follow.
//!
//! One carve-out, inherent to the language rather than to these kernels:
//! when **both** addends of an accumulate are NaN, the payload of the
//! resulting (still quiet) NaN is unspecified — IEEE-754 leaves the choice
//! to the implementation and LLVM freely commutes scalar `fadd` operands,
//! so the scalar reference itself is not payload-deterministic there. With
//! at most one NaN addend the result is that NaN quieted under either
//! operand order, and the kernels are bit-identical.
//!
//! The kernels take equal-length slices and are infallible; the public
//! entry points that face untrusted sizes ([`crate::ReduceOp::accumulate`],
//! [`crate::WireBuf::accumulate_into`]) validate lengths first and return
//! typed errors, so nothing here can panic on the training thread in practice.

use crate::wire::{bf16_to_f32, f16_to_f32, f32_to_bf16, f32_to_f16};

/// The kernel tier the dispatcher selects on this machine: `"avx2"` when
/// the vector bodies run, `"scalar"` otherwise. Benches report it so a
/// result file records which path was measured.
#[must_use]
pub fn active_kernel() -> &'static str {
    if use_avx2() {
        "avx2"
    } else {
        "scalar"
    }
}

#[inline]
fn use_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

macro_rules! dispatch {
    ($avx2:expr, $scalar:expr) => {{
        #[cfg(target_arch = "x86_64")]
        if use_avx2() {
            // SAFETY: the AVX2 body only runs after runtime detection.
            return unsafe { $avx2 };
        }
        $scalar
    }};
}

/// `dst[i] += src[i]` — the gradient-aggregation accumulate.
///
/// # Panics
///
/// Panics if the slices differ in length (validated callers only).
pub fn sum_f32(dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "sum_f32 requires equal-length slices");
    scalar::sum_f32(dst, src);
}

/// `dst[i] += f32::from_le_bytes(src[4i..])` — fused decode-accumulate
/// from an f32 wire payload.
///
/// # Panics
///
/// Panics if `src.len() != 4 * dst.len()`.
pub fn sum_f32_bytes(dst: &mut [f32], src: &[u8]) {
    assert_eq!(src.len(), dst.len() * 4, "sum_f32_bytes length mismatch");
    scalar::sum_f32_bytes(dst, src);
}

/// `dst[i] += bf16_to_f32(src[2i..])` — fused widen-accumulate from a
/// bf16 wire payload (the accumulate-in-f32 rule).
///
/// # Panics
///
/// Panics if `src.len() != 2 * dst.len()`.
pub fn sum_bf16(dst: &mut [f32], src: &[u8]) {
    assert_eq!(src.len(), dst.len() * 2, "sum_bf16 length mismatch");
    dispatch!(avx2::sum_bf16(dst, src), scalar::sum_bf16(dst, src))
}

/// `dst[i] += f16_to_f32(src[2i..])` — fused widen-accumulate from an
/// f16 wire payload.
///
/// # Panics
///
/// Panics if `src.len() != 2 * dst.len()`.
pub fn sum_f16(dst: &mut [f32], src: &[u8]) {
    assert_eq!(src.len(), dst.len() * 2, "sum_f16 length mismatch");
    dispatch!(avx2::sum_f16(dst, src), scalar::sum_f16(dst, src))
}

/// Encodes `src` as little-endian f32 bytes (bit-exact).
///
/// # Panics
///
/// Panics if `dst.len() != 4 * src.len()`.
pub fn encode_f32(src: &[f32], dst: &mut [u8]) {
    assert_eq!(dst.len(), src.len() * 4, "encode_f32 length mismatch");
    // On a little-endian host the in-memory bytes *are* the wire bytes;
    // one memcpy beats any vector loop.
    #[cfg(target_endian = "little")]
    {
        // SAFETY: f32 has no padding and u8 has alignment 1; the length is
        // exactly `src.len() * 4` bytes of initialized memory.
        let raw = unsafe { core::slice::from_raw_parts(src.as_ptr().cast::<u8>(), src.len() * 4) };
        dst.copy_from_slice(raw);
    }
    #[cfg(not(target_endian = "little"))]
    scalar::encode_f32(src, dst);
}

/// Decodes little-endian f32 bytes into `dst` (bit-exact).
///
/// # Panics
///
/// Panics if `src.len() != 4 * dst.len()`.
pub fn decode_f32(src: &[u8], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len() * 4, "decode_f32 length mismatch");
    #[cfg(target_endian = "little")]
    {
        // SAFETY: as in `encode_f32`; any u32 bit pattern is a valid f32.
        let raw = unsafe {
            core::slice::from_raw_parts_mut(dst.as_mut_ptr().cast::<u8>(), dst.len() * 4)
        };
        raw.copy_from_slice(src);
    }
    #[cfg(not(target_endian = "little"))]
    scalar::decode_f32(src, dst);
}

/// Encodes `src` to little-endian bf16 bytes with round-to-nearest-even
/// and NaN quieting ([`f32_to_bf16`] semantics, bit-identical).
///
/// # Panics
///
/// Panics if `dst.len() != 2 * src.len()`.
pub fn encode_bf16(src: &[f32], dst: &mut [u8]) {
    assert_eq!(dst.len(), src.len() * 2, "encode_bf16 length mismatch");
    dispatch!(avx2::encode_bf16(src, dst), scalar::encode_bf16(src, dst))
}

/// [`encode_bf16`] fused with in-place rounding: after the call each
/// `src[i]` holds `bf16_to_f32(f32_to_bf16(src[i]))` — exactly what the
/// receiver will decode.
///
/// # Panics
///
/// Panics if `dst.len() != 2 * src.len()`.
pub fn encode_round_bf16(src: &mut [f32], dst: &mut [u8]) {
    assert_eq!(
        dst.len(),
        src.len() * 2,
        "encode_round_bf16 length mismatch"
    );
    dispatch!(
        avx2::encode_round_bf16(src, dst),
        scalar::encode_round_bf16(src, dst)
    )
}

/// Decodes little-endian bf16 bytes into `dst` (exact widening).
///
/// # Panics
///
/// Panics if `src.len() != 2 * dst.len()`.
pub fn decode_bf16(src: &[u8], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len() * 2, "decode_bf16 length mismatch");
    dispatch!(avx2::decode_bf16(src, dst), scalar::decode_bf16(src, dst))
}

/// Encodes `src` to little-endian IEEE binary16 bytes with RNE, subnormal
/// rounding, overflow-to-inf, and NaN quieting ([`f32_to_f16`] semantics,
/// bit-identical).
///
/// # Panics
///
/// Panics if `dst.len() != 2 * src.len()`.
pub fn encode_f16(src: &[f32], dst: &mut [u8]) {
    assert_eq!(dst.len(), src.len() * 2, "encode_f16 length mismatch");
    dispatch!(avx2::encode_f16(src, dst), scalar::encode_f16(src, dst))
}

/// [`encode_f16`] fused with in-place rounding: after the call each
/// `src[i]` holds `f16_to_f32(f32_to_f16(src[i]))`.
///
/// # Panics
///
/// Panics if `dst.len() != 2 * src.len()`.
pub fn encode_round_f16(src: &mut [f32], dst: &mut [u8]) {
    assert_eq!(dst.len(), src.len() * 2, "encode_round_f16 length mismatch");
    dispatch!(
        avx2::encode_round_f16(src, dst),
        scalar::encode_round_f16(src, dst)
    )
}

/// Decodes little-endian f16 bytes into `dst` (exact widening).
///
/// # Panics
///
/// Panics if `src.len() != 2 * dst.len()`.
pub fn decode_f16(src: &[u8], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len() * 2, "decode_f16 length mismatch");
    dispatch!(avx2::decode_f16(src, dst), scalar::decode_f16(src, dst))
}

/// The scalar reference kernels: the portable fallback bodies, and the
/// ground truth the vector kernels are proptested against bit for bit.
/// Lengths are the caller's contract (the dispatchers above assert).
pub mod scalar {
    use super::{bf16_to_f32, f16_to_f32, f32_to_bf16, f32_to_f16};

    /// Scalar `dst[i] += src[i]`.
    pub fn sum_f32(dst: &mut [f32], src: &[f32]) {
        for (d, s) in dst.iter_mut().zip(src) {
            *d += s;
        }
    }

    /// Scalar fused f32 decode-accumulate.
    pub fn sum_f32_bytes(dst: &mut [f32], src: &[u8]) {
        for (d, c) in dst.iter_mut().zip(src.chunks_exact(4)) {
            *d += f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        }
    }

    /// Scalar fused bf16 widen-accumulate.
    #[inline(always)]
    pub fn sum_bf16(dst: &mut [f32], src: &[u8]) {
        for (d, c) in dst.iter_mut().zip(src.chunks_exact(2)) {
            *d += bf16_to_f32(u16::from_le_bytes([c[0], c[1]]));
        }
    }

    /// Scalar fused f16 widen-accumulate.
    pub fn sum_f16(dst: &mut [f32], src: &[u8]) {
        for (d, c) in dst.iter_mut().zip(src.chunks_exact(2)) {
            *d += f16_to_f32(u16::from_le_bytes([c[0], c[1]]));
        }
    }

    /// Scalar f32 → LE bytes.
    pub fn encode_f32(src: &[f32], dst: &mut [u8]) {
        for (c, &x) in dst.chunks_exact_mut(4).zip(src) {
            c.copy_from_slice(&x.to_le_bytes());
        }
    }

    /// Scalar LE bytes → f32.
    pub fn decode_f32(src: &[u8], dst: &mut [f32]) {
        for (d, c) in dst.iter_mut().zip(src.chunks_exact(4)) {
            *d = f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        }
    }

    /// Scalar bf16 encode.
    pub fn encode_bf16(src: &[f32], dst: &mut [u8]) {
        for (c, &x) in dst.chunks_exact_mut(2).zip(src) {
            c.copy_from_slice(&f32_to_bf16(x).to_le_bytes());
        }
    }

    /// Scalar fused bf16 encode + in-place round.
    pub fn encode_round_bf16(src: &mut [f32], dst: &mut [u8]) {
        for (c, x) in dst.chunks_exact_mut(2).zip(src.iter_mut()) {
            let n = f32_to_bf16(*x);
            c.copy_from_slice(&n.to_le_bytes());
            *x = bf16_to_f32(n);
        }
    }

    /// Scalar bf16 decode.
    #[inline(always)]
    pub fn decode_bf16(src: &[u8], dst: &mut [f32]) {
        for (d, c) in dst.iter_mut().zip(src.chunks_exact(2)) {
            *d = bf16_to_f32(u16::from_le_bytes([c[0], c[1]]));
        }
    }

    /// Scalar f16 encode.
    pub fn encode_f16(src: &[f32], dst: &mut [u8]) {
        for (c, &x) in dst.chunks_exact_mut(2).zip(src) {
            c.copy_from_slice(&f32_to_f16(x).to_le_bytes());
        }
    }

    /// Scalar fused f16 encode + in-place round.
    pub fn encode_round_f16(src: &mut [f32], dst: &mut [u8]) {
        for (c, x) in dst.chunks_exact_mut(2).zip(src.iter_mut()) {
            let n = f32_to_f16(*x);
            c.copy_from_slice(&n.to_le_bytes());
            *x = f16_to_f32(n);
        }
    }

    /// Scalar f16 decode.
    pub fn decode_f16(src: &[u8], dst: &mut [f32]) {
        for (d, c) in dst.iter_mut().zip(src.chunks_exact(2)) {
            *d = f16_to_f32(u16::from_le_bytes([c[0], c[1]]));
        }
    }
}

/// The AVX2 bodies: 8 f32 lanes per iteration, unaligned loads/stores
/// throughout (slices carry no alignment guarantee), scalar tail for the
/// trailing `len % 8` elements. Every function is `unsafe` because it is
/// compiled with `#[target_feature(enable = "avx2")]`; the dispatchers
/// only call in after `is_x86_feature_detected!("avx2")`. `sum_bf16` and
/// `decode_bf16` are the scalar bodies themselves, inlined and compiled for
/// AVX2: bit-identical by construction.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::scalar;
    use core::arch::x86_64::*;

    /// `f16_to_f32`'s exact power-of-two rescale constant (2^112).
    const F16_SCALE: f32 = f32::from_bits(0x7780_0000);
    /// `f32_to_f16`'s subnormal magic (0.5f32).
    const F16_MAGIC: i32 = 126 << 23;

    /// Packs the low 16 bits of each of the 8 epi32 lanes (all lanes are
    /// already ≤ 0xFFFF) into 8 contiguous u16s.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn pack_u16(v: __m256i) -> __m128i {
        // packus operates per 128-bit lane, so pack then pull qwords 0 and
        // 2 together.
        let packed = _mm256_packus_epi32(v, v);
        let perm = _mm256_permute4x64_epi64(packed, 0b0000_1000);
        _mm256_castsi256_si128(perm)
    }

    /// Widens 8 LE u16s at `p` into 8 epi32 lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load_8xu16(p: *const u8) -> __m256i {
        _mm256_cvtepu16_epi32(_mm_loadu_si128(p.cast()))
    }

    /// bf16-encodes 8 f32 bit patterns: RNE rounding with the quiet-NaN
    /// select, lane-exact vs `f32_to_bf16`. Lanes come back ≤ 0xFFFF.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn bf16_narrow_8(bits: __m256i) -> __m256i {
        let hi = _mm256_srli_epi32(bits, 16);
        let lsb = _mm256_and_si256(hi, _mm256_set1_epi32(1));
        let bias = _mm256_add_epi32(_mm256_set1_epi32(0x7FFF), lsb);
        let rounded = _mm256_srli_epi32(_mm256_add_epi32(bits, bias), 16);
        let quieted = _mm256_or_si256(hi, _mm256_set1_epi32(0x0040));
        let mag = _mm256_and_si256(bits, _mm256_set1_epi32(0x7FFF_FFFF));
        // Both sides are < 2^31, so the signed compare is the unsigned one.
        let is_nan = _mm256_cmpgt_epi32(mag, _mm256_set1_epi32(0x7F80_0000));
        _mm256_blendv_epi8(rounded, quieted, is_nan)
    }

    /// f16-encodes 8 f32 bit patterns: the vector port of the scalar
    /// `float_to_half_fast3_rtne` trick, lane-exact vs `f32_to_f16`.
    /// Lanes come back ≤ 0xFFFF.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn f16_narrow_8(bits: __m256i) -> __m256i {
        let sign = _mm256_and_si256(_mm256_srli_epi32(bits, 16), _mm256_set1_epi32(0x8000));
        let f = _mm256_and_si256(bits, _mm256_set1_epi32(0x7FFF_FFFF));
        // Normal path: rebias + RNE on the 13 dropped bits (wrapping
        // integer ops, exactly like the scalar version; the logical shift
        // of a wrapped value is truncated by the 0xFFFF mask below, which
        // is the scalar `as u16`).
        let odd = _mm256_and_si256(_mm256_srli_epi32(f, 13), _mm256_set1_epi32(1));
        let normal = _mm256_srli_epi32(
            _mm256_add_epi32(
                _mm256_add_epi32(
                    _mm256_sub_epi32(f, _mm256_set1_epi32(0x3800_0000)),
                    _mm256_set1_epi32(0xFFF),
                ),
                odd,
            ),
            13,
        );
        // Subnormal path: the FPU aligns and RNE-rounds via the +0.5 magic
        // add — `vaddps` follows the same IEEE rules lane-wise as the
        // scalar `addss`.
        let sum = _mm256_add_ps(
            _mm256_castsi256_ps(f),
            _mm256_castsi256_ps(_mm256_set1_epi32(F16_MAGIC)),
        );
        let subnormal = _mm256_sub_epi32(_mm256_castps_si256(sum), _mm256_set1_epi32(F16_MAGIC));
        // Special path: inf or quieted NaN.
        let is_nan = _mm256_cmpgt_epi32(f, _mm256_set1_epi32(0x7F80_0000));
        let special =
            _mm256_blendv_epi8(_mm256_set1_epi32(0x7C00), _mm256_set1_epi32(0x7E00), is_nan);
        // f >= 0x4780_0000 ⇔ f > 0x4780_0000 - 1 (integers, both < 2^31).
        let ge_special = _mm256_cmpgt_epi32(f, _mm256_set1_epi32(0x4780_0000 - 1));
        let lt_subnormal = _mm256_cmpgt_epi32(_mm256_set1_epi32(0x3880_0000), f);
        let o = _mm256_blendv_epi8(normal, subnormal, lt_subnormal);
        let o = _mm256_blendv_epi8(o, special, ge_special);
        let o = _mm256_and_si256(o, _mm256_set1_epi32(0xFFFF));
        _mm256_or_si256(sign, o)
    }

    /// Widens 8 f16 lanes (u16 values in epi32 lanes) to f32 bit patterns,
    /// lane-exact vs `f16_to_f32`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn f16_widen_8(h: __m256i) -> __m256i {
        let sign = _mm256_slli_epi32(_mm256_and_si256(h, _mm256_set1_epi32(0x8000)), 16);
        let bits = _mm256_slli_epi32(_mm256_and_si256(h, _mm256_set1_epi32(0x7FFF)), 13);
        // Exact power-of-two rescale; `vmulps` normalizes f16 subnormals
        // exactly like the scalar `mulss`.
        let f = _mm256_mul_ps(_mm256_castsi256_ps(bits), _mm256_set1_ps(F16_SCALE));
        let exp = _mm256_and_si256(h, _mm256_set1_epi32(0x7C00));
        let is_special = _mm256_cmpeq_epi32(exp, _mm256_set1_epi32(0x7C00));
        let special = _mm256_and_si256(is_special, _mm256_set1_epi32(0x7F80_0000));
        _mm256_or_si256(_mm256_or_si256(_mm256_castps_si256(f), special), sign)
    }

    /// Widens 8 bf16 lanes (u16 values in epi32 lanes) to f32 bit patterns.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn bf16_widen_8(h: __m256i) -> __m256i {
        _mm256_slli_epi32(h, 16)
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn sum_bf16(dst: &mut [f32], src: &[u8]) {
        scalar::sum_bf16(dst, src);
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn sum_f16(dst: &mut [f32], src: &[u8]) {
        let n = dst.len();
        let mut i = 0;
        while i + 8 <= n {
            let w = f16_widen_8(load_8xu16(src.as_ptr().add(i * 2)));
            let d = _mm256_loadu_ps(dst.as_ptr().add(i));
            let sum = _mm256_add_ps(d, _mm256_castsi256_ps(w));
            _mm256_storeu_ps(dst.as_mut_ptr().add(i), sum);
            i += 8;
        }
        scalar::sum_f16(&mut dst[i..], &src[i * 2..]);
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn encode_bf16(src: &[f32], dst: &mut [u8]) {
        let n = src.len();
        let mut i = 0;
        while i + 8 <= n {
            let bits = _mm256_loadu_si256(src.as_ptr().add(i).cast());
            let narrow = bf16_narrow_8(bits);
            _mm_storeu_si128(dst.as_mut_ptr().add(i * 2).cast(), pack_u16(narrow));
            i += 8;
        }
        scalar::encode_bf16(&src[i..], &mut dst[i * 2..]);
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn encode_round_bf16(src: &mut [f32], dst: &mut [u8]) {
        let n = src.len();
        let mut i = 0;
        while i + 8 <= n {
            let bits = _mm256_loadu_si256(src.as_ptr().add(i).cast());
            let narrow = bf16_narrow_8(bits);
            _mm_storeu_si128(dst.as_mut_ptr().add(i * 2).cast(), pack_u16(narrow));
            let widened = bf16_widen_8(narrow);
            _mm256_storeu_ps(src.as_mut_ptr().add(i), _mm256_castsi256_ps(widened));
            i += 8;
        }
        scalar::encode_round_bf16(&mut src[i..], &mut dst[i * 2..]);
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn decode_bf16(src: &[u8], dst: &mut [f32]) {
        scalar::decode_bf16(src, dst);
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn encode_f16(src: &[f32], dst: &mut [u8]) {
        let n = src.len();
        let mut i = 0;
        while i + 8 <= n {
            let bits = _mm256_loadu_si256(src.as_ptr().add(i).cast());
            let narrow = f16_narrow_8(bits);
            _mm_storeu_si128(dst.as_mut_ptr().add(i * 2).cast(), pack_u16(narrow));
            i += 8;
        }
        scalar::encode_f16(&src[i..], &mut dst[i * 2..]);
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn encode_round_f16(src: &mut [f32], dst: &mut [u8]) {
        let n = src.len();
        let mut i = 0;
        while i + 8 <= n {
            let bits = _mm256_loadu_si256(src.as_ptr().add(i).cast());
            let narrow = f16_narrow_8(bits);
            _mm_storeu_si128(dst.as_mut_ptr().add(i * 2).cast(), pack_u16(narrow));
            let widened = f16_widen_8(narrow);
            _mm256_storeu_ps(src.as_mut_ptr().add(i), _mm256_castsi256_ps(widened));
            i += 8;
        }
        scalar::encode_round_f16(&mut src[i..], &mut dst[i * 2..]);
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn decode_f16(src: &[u8], dst: &mut [f32]) {
        let n = dst.len();
        let mut i = 0;
        while i + 8 <= n {
            let w = f16_widen_8(load_8xu16(src.as_ptr().add(i * 2)));
            _mm256_storeu_ps(dst.as_mut_ptr().add(i), _mm256_castsi256_ps(w));
            i += 8;
        }
        scalar::decode_f16(&src[i * 2..], &mut dst[i..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A value set that exercises every special case: NaN payloads
    /// (signalling and quiet), denormals, ±inf, RNE ties for both narrow
    /// formats, signed zeros, overflow, and ordinary values.
    fn gauntlet() -> Vec<f32> {
        let mut v: Vec<f32> = vec![
            0.0,
            -0.0,
            1.0,
            -1.5,
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
            1.0e-42, // f32 subnormal
            -1.0e-42,
            3.0e-6, // f16 subnormal range
            -3.0e-6,
            65504.0,                         // f16 max
            65520.0,                         // f16 overflow boundary
            1.0e6,                           // f16 overflow
            1.0 + 1.0 / 128.0 + 1.0 / 256.0, // bf16 RNE tie
            std::f32::consts::PI,
        ];
        // Signalling NaN and a payload NaN.
        v.push(f32::from_bits(0x7F80_0001));
        v.push(f32::from_bits(0xFFC1_2345));
        // f16 RNE tie pattern: low 13 bits exactly 0x1000.
        v.push(f32::from_bits(0x3F80_1000));
        // bf16 RNE tie pattern: low 16 bits exactly 0x8000.
        v.push(f32::from_bits(0x3F80_8000));
        // Pad to a length that covers full vector bodies plus a ragged tail.
        while v.len() < 37 {
            let x = v[v.len() % 20] * 1.000123 + 0.5;
            v.push(x);
        }
        v
    }

    fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what} diverged at {i}");
        }
    }

    /// Accumulate comparison: bit-identical except that a NaN ⊕ NaN sum's
    /// payload is unspecified (see the module docs) — there both sides
    /// must still be NaN.
    fn assert_sum_eq(a: &[f32], b: &[f32], what: &str) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                "{what} diverged at {i}: {:#x} vs {:#x}",
                x.to_bits(),
                y.to_bits()
            );
        }
    }

    #[test]
    fn dispatched_kernels_match_scalar_on_the_gauntlet() {
        let vals = gauntlet();
        // Misaligned/odd-length slices: every offset start.
        for off in 0..3 {
            let src = &vals[off..];
            let n = src.len();

            // sum_f32
            let mut a = vals.clone()[..n].to_vec();
            let mut b = a.clone();
            sum_f32(&mut a, src);
            scalar::sum_f32(&mut b, src);
            assert_sum_eq(&a, &b, "sum_f32");

            for (enc, enc_s, dec, dec_s, acc, acc_s, width, what) in [
                (
                    encode_bf16 as fn(&[f32], &mut [u8]),
                    scalar::encode_bf16 as fn(&[f32], &mut [u8]),
                    decode_bf16 as fn(&[u8], &mut [f32]),
                    scalar::decode_bf16 as fn(&[u8], &mut [f32]),
                    sum_bf16 as fn(&mut [f32], &[u8]),
                    scalar::sum_bf16 as fn(&mut [f32], &[u8]),
                    2usize,
                    "bf16",
                ),
                (
                    encode_f16,
                    scalar::encode_f16,
                    decode_f16,
                    scalar::decode_f16,
                    sum_f16,
                    scalar::sum_f16,
                    2,
                    "f16",
                ),
                (
                    encode_f32,
                    scalar::encode_f32,
                    decode_f32,
                    scalar::decode_f32,
                    sum_f32_bytes,
                    scalar::sum_f32_bytes,
                    4,
                    "f32",
                ),
            ] {
                let mut wire = vec![0u8; n * width];
                let mut wire_s = vec![0u8; n * width];
                enc(src, &mut wire);
                enc_s(src, &mut wire_s);
                assert_eq!(wire, wire_s, "{what} encode diverged");

                let mut out = vec![0.0f32; n];
                let mut out_s = vec![0.0f32; n];
                dec(&wire, &mut out);
                dec_s(&wire_s, &mut out_s);
                assert_bits_eq(&out, &out_s, &format!("{what} decode"));

                let mut accv = vals[..n].to_vec();
                let mut accv_s = accv.clone();
                acc(&mut accv, &wire);
                acc_s(&mut accv_s, &wire_s);
                assert_sum_eq(&accv, &accv_s, &format!("{what} accumulate"));
            }

            // Fused encode+round.
            let mut src_a = src.to_vec();
            let mut src_b = src.to_vec();
            let mut wire_a = vec![0u8; n * 2];
            let mut wire_b = vec![0u8; n * 2];
            encode_round_bf16(&mut src_a, &mut wire_a);
            scalar::encode_round_bf16(&mut src_b, &mut wire_b);
            assert_eq!(wire_a, wire_b, "bf16 encode_round bytes diverged");
            assert_bits_eq(&src_a, &src_b, "bf16 encode_round src");

            let mut src_a = src.to_vec();
            let mut src_b = src.to_vec();
            encode_round_f16(&mut src_a, &mut wire_a);
            scalar::encode_round_f16(&mut src_b, &mut wire_b);
            assert_eq!(wire_a, wire_b, "f16 encode_round bytes diverged");
            assert_bits_eq(&src_a, &src_b, "f16 encode_round src");
        }
    }

    #[test]
    fn active_kernel_names_a_real_tier() {
        assert!(["avx2", "scalar"].contains(&active_kernel()));
    }
}
