//! Segment pipelining — splitting each collective message into bounded
//! slices, NCCL-style — and the wire-precision knob.
//!
//! A monolithic ring step serializes its whole `d/P` chunk onto the wire
//! before the receiver can start reducing. With segmentation the chunk is
//! cut into `max_segment_bytes` slices: the sender queues every slice up
//! front (sends never block on the in-process fabrics), so while the
//! receiver reduces segment `k` the link is already serializing segment
//! `k+1`. Per step the cost drops from `α + c·β + c·γ` towards
//! `S·α + c·β + (c/S)·γ` — the serialization delay of later segments hides
//! behind the reduction of earlier ones (see [`crate::CostModel`]'s
//! segmented predictions).
//!
//! The helpers here are the **only** place collective algorithms touch
//! the wire, so the mixed-precision path lives here too:
//! [`send_segmented`] casts each segment once to the configured
//! [`SegmentConfig::wire`] dtype, and one receive — `recv_segmented_into`,
//! behind [`recv_segmented_reduce`], [`recv_segmented_copy`] and the ring's
//! fused [`Epilogue`] — widens back to `f32` *as it accumulates* (the
//! accumulator is never narrowed mid-collective — one cast per hop,
//! rounding never cascades) or, copying, on receipt. With the default
//! [`DType::F32`] wire, segmented and monolithic runs are **bit-identical**:
//! segments partition the chunk in order and every element is accumulated
//! exactly once per step in the same order.

use std::ops::Range;

use crate::error::CollectiveError;
use crate::reduce::ReduceOp;
use crate::transport::Transport;
use crate::wire::{DType, WireBuf};

/// How collective messages are split into wire segments, and which element
/// type they travel as.
///
/// The default (and [`SegmentConfig::MONOLITHIC`]) sends each chunk as one
/// `f32` message, matching the unsegmented full-precision behaviour exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SegmentConfig {
    /// Maximum bytes per wire message; `0` disables segmentation. Segment
    /// sizes are rounded down to whole wire elements (minimum one element),
    /// so a chunk of `c` **wire** bytes travels as `⌈c / max_segment_bytes⌉`
    /// messages — the byte budget counts bytes of [`SegmentConfig::wire`],
    /// not `f32` elements, so a bf16 wire fits twice the elements per
    /// segment.
    pub max_segment_bytes: usize,
    /// Element type payloads are encoded as on send (cast-on-send). The
    /// receive side always accumulates in `f32` regardless of this knob;
    /// receivers decode by each payload's own dtype tag, never this field.
    pub wire: DType,
}

impl SegmentConfig {
    /// One `f32` message per chunk — the unsegmented, full-precision
    /// behaviour.
    pub const MONOLITHIC: SegmentConfig = SegmentConfig {
        max_segment_bytes: 0,
        wire: DType::F32,
    };

    /// Caps wire messages at `max_segment_bytes` (0 disables segmentation),
    /// on an `f32` wire.
    #[must_use]
    pub fn new(max_segment_bytes: usize) -> Self {
        SegmentConfig {
            max_segment_bytes,
            wire: DType::F32,
        }
    }

    /// Selects the wire element type (cast-on-send precision).
    ///
    /// # Panics
    ///
    /// Panics for [`DType::U8`]: opaque bytes carry compressor-defined
    /// encodings and cannot be produced by a numeric cast.
    #[must_use]
    pub fn with_wire(mut self, wire: DType) -> Self {
        assert!(
            wire.is_numeric(),
            "wire dtype must be numeric (f32/bf16/f16), not {wire}"
        );
        self.wire = wire;
        self
    }

    /// Whether this config leaves messages unsplit.
    #[must_use]
    pub fn is_monolithic(&self) -> bool {
        self.max_segment_bytes == 0
    }

    /// Elements per segment, or `None` when monolithic. Derived from the
    /// **wire** dtype's element size: the same byte budget carries twice as
    /// many bf16 elements as f32.
    #[must_use]
    pub fn segment_elems(&self) -> Option<usize> {
        if self.max_segment_bytes == 0 {
            None
        } else {
            Some((self.max_segment_bytes / self.wire.size_bytes()).max(1))
        }
    }

    /// Number of wire messages a slice of `elems` elements travels as.
    /// Always at least 1: empty slices still send one (empty) message so
    /// that lock-step algorithms stay in step.
    #[must_use]
    pub fn num_segments(&self, elems: usize) -> usize {
        match self.segment_elems() {
            Some(per) if elems > 0 => elems.div_ceil(per),
            _ => 1,
        }
    }

    /// Splits an element range into consecutive segment ranges. Yields at
    /// least one range (empty input yields one empty range).
    #[must_use]
    pub fn split(&self, range: Range<usize>) -> Vec<Range<usize>> {
        let len = range.len();
        let per = match self.segment_elems() {
            Some(per) if len > 0 => per,
            _ => return vec![range],
        };
        let mut out = Vec::with_capacity(len.div_ceil(per));
        let mut start = range.start;
        while start < range.end {
            let end = (start + per).min(range.end);
            out.push(start..end);
            start = end;
        }
        out
    }
}

/// Sends `src` to `to` as the segments of `seg`, encoding each segment to
/// the configured wire dtype (cast-on-send; bit-exact for `f32`) into a
/// byte buffer taken from the transport's pool. All segments are queued
/// before returning, so on a deliver-at fabric the link starts serializing
/// them back-to-back.
///
/// On a narrow wire the sender's `src` is **rounded in place** to the wire
/// values first ([`crate::wire::round_to_wire`] semantics, fused into the
/// encode pass): the sender keeps exactly what it
/// shipped. This is what makes copy-collectives (all-gather, broadcast)
/// leave every rank bit-identical — the source holds the same rounded
/// values its peers received — and it costs nothing extra in precision,
/// because re-encoding an already-rounded value is lossless (relays never
/// cascade rounding).
///
/// # Errors
///
/// Propagates transport errors.
pub fn send_segmented<T: Transport>(
    t: &T,
    to: usize,
    src: &mut [f32],
    seg: SegmentConfig,
) -> Result<(), CollectiveError> {
    for r in seg.split(0..src.len()) {
        let bytes = t.take_buffer(r.len() * seg.wire.size_bytes());
        // Encode and round in one pass: after this, `src[r]` holds exactly
        // the values the payload carries (see `round_to_wire`).
        let payload = WireBuf::encode_round_into(&mut src[r], seg.wire, bytes);
        t.send(to, payload.into())?;
    }
    Ok(())
}

/// Elements per slice of a receive that runs an [`Epilogue`]: 8 KiB of
/// `f32`, so a slice's reduction and the epilogue's pass over it share the
/// L1 cache. A constant, not a knob: the pieces are element-wise, so the
/// results do not depend on it.
pub const EPILOGUE_SLICE: usize = 2048;

/// Work fused into a receive (see [`crate::ring_finish_with`]): it sees
/// the received range one [`EPILOGUE_SLICE`]-element slice at a time, each
/// right after the slice got its values, while they are still in cache.
/// `()` is the receive without one.
pub trait Epilogue {
    /// The receive's first payload has arrived; nothing of it is reduced
    /// or copied yet.
    fn arrived(&mut self) {}

    /// `values`, which are `data[range]`, have just been reduced or copied.
    fn slice(&mut self, range: Range<usize>, values: &mut [f32]);
}

impl Epilogue for () {
    fn slice(&mut self, _: Range<usize>, _: &mut [f32]) {}
}

/// `range` in consecutive slices of at most [`EPILOGUE_SLICE`] elements;
/// one empty slice if `range` is empty, so an empty payload is still
/// checked.
pub(crate) fn epilogue_slices(range: Range<usize>) -> impl Iterator<Item = Range<usize>> {
    let slices = range.len().div_ceil(EPILOGUE_SLICE).max(1);
    (0..slices).map(move |i| {
        let lo = range.start + i * EPILOGUE_SLICE;
        lo..(lo + EPILOGUE_SLICE).min(range.end)
    })
}

/// Receives `data[range]` as the segments of `seg` from `from`, in order:
/// with `op`, each element is widened to `f32` **as it accumulates** (the
/// accumulate-in-f32 rule: one rounding on the sender's cast, none here);
/// without, it is decoded (widened if the wire was narrow) in place. Each
/// payload is decoded by its own dtype tag, so a peer on a different wire
/// precision still lands correctly, and its bytes go back to the
/// transport's pool. Element order matches the monolithic path exactly,
/// and `epilogue` sees every slice as soon as it is done.
///
/// # Errors
///
/// Propagates transport errors; returns [`CollectiveError::SizeMismatch`]
/// if a segment's length differs from the expected split.
pub(crate) fn recv_segmented_into<T: Transport>(
    t: &T,
    from: usize,
    data: &mut [f32],
    range: Range<usize>,
    op: Option<ReduceOp>,
    seg: SegmentConfig,
    epilogue: &mut impl Epilogue,
) -> Result<(), CollectiveError> {
    for (i, r) in seg.split(range).into_iter().enumerate() {
        let incoming = t.recv(from)?;
        if incoming.len() != r.len() {
            return Err(CollectiveError::SizeMismatch {
                expected: r.len(),
                actual: incoming.len(),
            });
        }
        let payload = incoming.into_payload();
        if i == 0 {
            epilogue.arrived();
        }
        for s in epilogue_slices(r.clone()) {
            let (at, values) = (s.start - r.start, &mut data[s.clone()]);
            match op {
                Some(op) => payload.accumulate_part_into(at, values, op)?,
                None => payload.decode_part_into(at, values)?,
            }
            epilogue.slice(s, values);
        }
        t.recycle_buffer(payload.into_bytes());
    }
    Ok(())
}

/// Receives the segments of `seg` from `from` in order, widening each
/// element to `f32` **as it accumulates** into the matching slice of `dst`
/// with `op`, and recycling the payload bytes to the transport's pool.
///
/// # Errors
///
/// Propagates transport errors; returns [`CollectiveError::SizeMismatch`]
/// if a segment's length differs from the expected split.
pub fn recv_segmented_reduce<T: Transport>(
    t: &T,
    from: usize,
    dst: &mut [f32],
    op: ReduceOp,
    seg: SegmentConfig,
) -> Result<(), CollectiveError> {
    let all = 0..dst.len();
    recv_segmented_into(t, from, dst, all, Some(op), seg, &mut ())
}

/// Receives the segments of `seg` from `from` in order, decoding (widening
/// if the wire was narrow) each into the matching slice of `dst` and
/// recycling the payload bytes.
///
/// # Errors
///
/// Propagates transport errors; returns [`CollectiveError::SizeMismatch`]
/// if a segment's length differs from the expected split.
pub fn recv_segmented_copy<T: Transport>(
    t: &T,
    from: usize,
    dst: &mut [f32],
    seg: SegmentConfig,
) -> Result<(), CollectiveError> {
    let all = 0..dst.len();
    recv_segmented_into(t, from, dst, all, None, seg, &mut ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::LocalFabric;

    #[test]
    fn monolithic_split_is_one_range() {
        let seg = SegmentConfig::MONOLITHIC;
        assert_eq!(seg.split(3..10), vec![3..10]);
        assert_eq!(seg.num_segments(7), 1);
        assert!(seg.is_monolithic());
        assert_eq!(seg.segment_elems(), None);
        assert_eq!(seg.wire, DType::F32);
        assert_eq!(seg, SegmentConfig::default());
    }

    #[test]
    fn split_covers_range_without_gaps() {
        let seg = SegmentConfig::new(12); // 3 f32 elements per segment
        let parts = seg.split(5..16); // 11 elements
        assert_eq!(parts, vec![5..8, 8..11, 11..14, 14..16]);
        assert_eq!(seg.num_segments(11), 4);
    }

    #[test]
    fn narrow_wire_fits_more_elements_per_segment() {
        // The byte budget is dtype-aware: 12 bytes is 3 f32s but 6 bf16s.
        let f32_seg = SegmentConfig::new(12);
        let bf16_seg = SegmentConfig::new(12).with_wire(DType::Bf16);
        assert_eq!(f32_seg.segment_elems(), Some(3));
        assert_eq!(bf16_seg.segment_elems(), Some(6));
        assert_eq!(bf16_seg.num_segments(11), 2);
        assert_eq!(bf16_seg.split(0..11), vec![0..6, 6..11]);
    }

    #[test]
    #[should_panic(expected = "numeric")]
    fn opaque_wire_dtype_is_rejected() {
        let _ = SegmentConfig::new(8).with_wire(DType::U8);
    }

    #[test]
    fn segment_larger_than_range_degenerates_to_monolithic() {
        let seg = SegmentConfig::new(1 << 20);
        assert_eq!(seg.split(0..10), vec![0..10]);
        assert_eq!(seg.num_segments(10), 1);
    }

    #[test]
    fn empty_range_yields_one_empty_segment() {
        let seg = SegmentConfig::new(8);
        assert_eq!(seg.split(4..4), vec![4..4]);
        assert_eq!(seg.num_segments(0), 1);
    }

    #[test]
    fn sub_element_segment_rounds_up_to_one_element() {
        let seg = SegmentConfig::new(1); // less than one f32
        assert_eq!(seg.segment_elems(), Some(1));
        assert_eq!(seg.split(0..3), vec![0..1, 1..2, 2..3]);
    }

    #[test]
    fn bf16_send_halves_wire_bytes_and_accumulates_in_f32() {
        let mut eps = LocalFabric::create(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let seg = SegmentConfig::new(8).with_wire(DType::Bf16); // 4 elems/segment
        let mut src = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0];
        std::thread::scope(|s| {
            s.spawn(|| send_segmented(&a, 1, &mut src, seg).unwrap());
            s.spawn(|| {
                let mut dst = [10.0f32; 6];
                recv_segmented_reduce(&b, 0, &mut dst, ReduceOp::Sum, seg).unwrap();
                // All values are exactly representable in bf16; the f32
                // accumulator adds them exactly.
                assert_eq!(dst, [11.0, 12.0, 13.0, 14.0, 15.0, 16.0]);
            });
        });
    }

    #[test]
    fn sender_keeps_exactly_what_it_shipped() {
        // On a narrow wire the send rounds the source in place, so after a
        // copy-collective the sender and the receiver hold identical bits.
        let mut eps = LocalFabric::create(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let seg = SegmentConfig::new(4).with_wire(DType::Bf16);
        let mut src = [0.1f32, 1.234_567, -3.3e-5];
        let mut expect = src;
        crate::wire::round_to_wire(&mut expect, DType::Bf16);
        assert_ne!(src, expect, "values must actually round");
        std::thread::scope(|s| {
            s.spawn(|| send_segmented(&a, 1, &mut src, seg).unwrap());
            s.spawn(|| {
                let mut dst = [0.0f32; 3];
                recv_segmented_copy(&b, 0, &mut dst, seg).unwrap();
                assert_eq!(dst, expect);
            });
        });
        assert_eq!(src, expect, "sender must keep the shipped values");
    }

    #[test]
    fn receiver_decodes_by_payload_tag_not_local_config() {
        // Sender on a bf16 wire, receiver configured for f32: the payload's
        // own dtype tag drives the decode, so the copy still lands.
        let mut eps = LocalFabric::create(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let send_cfg = SegmentConfig::new(16).with_wire(DType::Bf16);
        let recv_cfg = SegmentConfig::new(16); // 4 f32/segment vs 8 bf16 — mismatched splits
        let mut src = [0.5f32, 1.0, 2.0, 4.0];
        let expect = src; // all bf16-exact, so in-place rounding keeps them
        std::thread::scope(|s| {
            s.spawn(|| send_segmented(&a, 1, &mut src, send_cfg).unwrap());
            s.spawn(|| {
                let mut dst = [0.0f32; 4];
                // 4 elements fit one segment under both configs here.
                recv_segmented_copy(&b, 0, &mut dst, recv_cfg).unwrap();
                assert_eq!(dst, expect);
            });
        });
    }
}
