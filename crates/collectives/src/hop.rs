//! One hop of a collective: one message, sent and received whole, and the
//! wire-precision cast it rides.
//!
//! Every collective here is a sequence of hops — a ring round, a tree edge,
//! an RHD exchange — and every hop is exactly one message carrying the
//! whole slice the algorithm moves (DeAR's Eqs. 3–5: `P−1` hops of one
//! `d/P` chunk per ring phase). So both peers of a link agree on the
//! message count by construction, and a collective never has more than one
//! unreceived message per hop on a link, which is what lets a caller that
//! sends ahead (the comm thread) size its window against
//! [`crate::MIN_LINK_FRAMES`].
//!
//! The helpers here are the **only** place collective algorithms touch
//! the wire, so the mixed-precision path lives here too: [`send_hop`]
//! casts the slice once to the wire dtype, and one receive —
//! [`recv_hop_into`], behind [`recv_hop_reduce`], [`recv_hop_copy`] and
//! the ring's fused [`Epilogue`] — widens back to `f32` *as it
//! accumulates* (the accumulator is never narrowed mid-collective — one
//! cast per hop, rounding never cascades) or, copying, on receipt.

use std::ops::Range;

use crate::error::CollectiveError;
use crate::reduce::ReduceOp;
use crate::transport::Transport;
use crate::wire::{DType, WireBuf};

/// Sends `src` to `to` as one message, encoded to `wire` (cast-on-send;
/// bit-exact for `f32`).
///
/// On the `f32` wire this is [`Transport::send_f32`]: a fabric that writes
/// the message out before returning (TCP) sends straight from `src`, and
/// the others encode into a buffer from the transport's pool. A narrow wire
/// always encodes into a pooled buffer, because the same pass rounds `src`.
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
///
/// # Panics
///
/// Panics for [`DType::U8`]: opaque bytes carry compressor-defined
/// encodings and cannot be produced by a numeric cast.
pub(crate) fn send_hop<T: Transport>(
    t: &T,
    to: usize,
    src: &mut [f32],
    wire: DType,
) -> Result<(), CollectiveError> {
    if wire == DType::F32 {
        return t.send_f32(to, src);
    }
    let bytes = t.take_buffer(src.len() * wire.size_bytes());
    // Encode and round in one pass: after this, `src` holds exactly the
    // values the payload carries (see `round_to_wire`).
    let payload = WireBuf::encode_round_into(src, wire, bytes);
    t.send(to, payload.into())
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
    /// The receive's payload has arrived; nothing of it is reduced or
    /// copied yet.
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

/// Receives `data[range]` as one message from `from`: with `op`, each
/// element is widened to `f32` **as it accumulates** (the
/// accumulate-in-f32 rule: one rounding on the sender's cast, none here);
/// without, it is decoded (widened if the wire was narrow) in place. The
/// payload is decoded by its own dtype tag, so the receiver needs no wire
/// setting, and its bytes go back to the transport's pool. `epilogue` sees
/// every slice as soon as it is done.
///
/// # Errors
///
/// Propagates transport errors; returns [`CollectiveError::SizeMismatch`]
/// if the message's length differs from `range`'s.
pub(crate) fn recv_hop_into<T: Transport>(
    t: &T,
    from: usize,
    data: &mut [f32],
    range: Range<usize>,
    op: Option<ReduceOp>,
    epilogue: &mut impl Epilogue,
) -> Result<(), CollectiveError> {
    let incoming = t.recv(from)?;
    if incoming.len() != range.len() {
        return Err(CollectiveError::SizeMismatch {
            expected: range.len(),
            actual: incoming.len(),
        });
    }
    let payload = incoming.into_payload();
    epilogue.arrived();
    for s in epilogue_slices(range.clone()) {
        let (at, values) = (s.start - range.start, &mut data[s.clone()]);
        match op {
            Some(op) => payload.accumulate_part_into(at, values, op)?,
            None => payload.decode_part_into(at, values)?,
        }
        epilogue.slice(s, values);
    }
    t.recycle_buffer(payload.into_bytes());
    Ok(())
}

/// Receives one message from `from`, widening each element to `f32` **as
/// it accumulates** into `dst` with `op`, and recycling the payload bytes
/// to the transport's pool.
///
/// # Errors
///
/// As [`recv_hop_into`].
pub(crate) fn recv_hop_reduce<T: Transport>(
    t: &T,
    from: usize,
    dst: &mut [f32],
    op: ReduceOp,
) -> Result<(), CollectiveError> {
    let all = 0..dst.len();
    recv_hop_into(t, from, dst, all, Some(op), &mut ())
}

/// Receives one message from `from`, decoding it (widening if the wire was
/// narrow) into `dst` and recycling the payload bytes.
///
/// # Errors
///
/// As [`recv_hop_into`].
pub(crate) fn recv_hop_copy<T: Transport>(
    t: &T,
    from: usize,
    dst: &mut [f32],
) -> Result<(), CollectiveError> {
    let all = 0..dst.len();
    recv_hop_into(t, from, dst, all, None, &mut ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::LocalFabric;

    #[test]
    fn bf16_send_halves_wire_bytes_and_accumulates_in_f32() {
        let mut eps = LocalFabric::create(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let mut src = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0];
        std::thread::scope(|s| {
            s.spawn(|| send_hop(&a, 1, &mut src, DType::Bf16).unwrap());
            s.spawn(|| {
                let mut dst = [10.0f32; 6];
                recv_hop_reduce(&b, 0, &mut dst, ReduceOp::Sum).unwrap();
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
        let mut src = [0.1f32, 1.234_567, -3.3e-5];
        let mut expect = src;
        crate::wire::round_to_wire(&mut expect, DType::Bf16);
        assert_ne!(src, expect, "values must actually round");
        std::thread::scope(|s| {
            s.spawn(|| send_hop(&a, 1, &mut src, DType::Bf16).unwrap());
            s.spawn(|| {
                let mut dst = [0.0f32; 3];
                recv_hop_copy(&b, 0, &mut dst).unwrap();
                assert_eq!(dst, expect);
            });
        });
        assert_eq!(src, expect, "sender must keep the shipped values");
    }

    #[test]
    #[should_panic(expected = "opaque")]
    fn opaque_wire_dtype_is_rejected() {
        let eps = LocalFabric::create(2);
        let _ = send_hop(&eps[0], 1, &mut [1.0], DType::U8);
    }
}
