//! One hop of a collective: one message, sent and received whole, and the
//! wire-precision cast it rides.
//!
//! Every collective here is a sequence of hops — a ring round, a tree edge,
//! an RHD exchange — and every hop is exactly one message carrying the
//! whole slice the algorithm moves (DeAR's Eqs. 3–5: `P−1` hops of one
//! `d/P` chunk per ring phase). So both peers of a link agree on the
//! message count by construction, and a collective never has more than one
//! unreceived message per hop on a link, which is what lets a caller that
//! sends ahead (the communication engine) size its window against
//! [`crate::MIN_LINK_FRAMES`].
//!
//! The helpers here are the **only** place collective algorithms touch
//! the wire, so the mixed-precision path lives here too: [`send_hop`]
//! casts the slice once to the wire dtype, and one receive —
//! [`recv_hop`], with or without the ring's fused [`Epilogue`] — widens
//! back to `f32` *as it accumulates* (the accumulator is never narrowed
//! mid-collective — one cast per hop, rounding never cascades) or, copying,
//! on receipt.

use std::ops::Range;

use crate::error::CollectiveError;
use crate::lease::{Loan, Parcel};
use crate::reduce::ReduceOp;
use crate::transport::Transport;
use crate::wire::{DType, WireBuf};

/// A collective's buffer, addressed one range at a time through its base
/// pointer. While a chunk of it is lent, nothing may reborrow the whole
/// buffer as `&mut` — that would assert that nobody else reads any of it —
/// so the hops take their ranges from here instead.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Chunks {
    base: *mut f32,
    len: usize,
}

impl Chunks {
    /// The elements of `data`; `data` stays borrowed only through the
    /// pointer, for as long as the caller keeps it alive.
    pub(crate) fn of(data: &mut [f32]) -> Chunks {
        Chunks {
            base: data.as_mut_ptr(),
            len: data.len(),
        }
    }

    /// The elements of `data`, without making a reference to them
    /// ([`Vec::as_mut_ptr`]).
    pub(crate) fn of_vec(data: &mut Vec<f32>) -> Chunks {
        Chunks {
            base: data.as_mut_ptr(),
            len: data.len(),
        }
    }

    pub(crate) fn len(self) -> usize {
        self.len
    }

    /// # Safety
    ///
    /// The buffer is alive, and no element of `range` is written while the
    /// slice is used.
    pub(crate) unsafe fn get<'a>(self, range: Range<usize>) -> &'a [f32] {
        assert!(range.start <= range.end && range.end <= self.len);
        // SAFETY: in bounds of a live buffer; the caller rules out writers.
        unsafe { std::slice::from_raw_parts(self.base.add(range.start), range.len()) }
    }

    /// # Safety
    ///
    /// The buffer is alive, no element of `range` is lent, and nothing else
    /// reads or writes `range` while the slice is used.
    pub(crate) unsafe fn get_mut<'a>(self, range: Range<usize>) -> &'a mut [f32] {
        assert!(range.start <= range.end && range.end <= self.len);
        // SAFETY: in bounds of a live buffer; the caller rules out aliases.
        unsafe { std::slice::from_raw_parts_mut(self.base.add(range.start), range.len()) }
    }
}

/// The loans a collective has out, each with the range of its buffer the
/// peer reads. A receive settles the ones on its range before it writes
/// there, and the collective settles the rest before it returns; dropping
/// the list abandons them (see [`Loan`]).
#[derive(Debug, Default)]
pub(crate) struct Loans(Vec<(Range<usize>, Loan)>);

impl Loans {
    /// Settles every loan whose range meets `range`.
    pub(crate) fn settle_overlapping(
        &mut self,
        range: &Range<usize>,
    ) -> Result<(), CollectiveError> {
        let mut i = 0;
        while i < self.0.len() {
            let lent = &self.0[i].0;
            if lent.start < range.end && range.start < lent.end {
                self.0.swap_remove(i).1.settle()?;
            } else {
                i += 1;
            }
        }
        Ok(())
    }

    /// Settles every loan.
    pub(crate) fn settle(&mut self) -> Result<(), CollectiveError> {
        self.0.drain(..).try_for_each(|(_, loan)| loan.settle())
    }

    /// Polls every loan ([`Loan::poll`]) and drops the settled ones:
    /// `Ok(true)` once none is left.
    pub(crate) fn poll(&mut self) -> Result<bool, CollectiveError> {
        let mut i = 0;
        while i < self.0.len() {
            if self.0[i].1.poll()? {
                // Settled: dropping it does nothing more.
                drop(self.0.swap_remove(i));
            } else {
                i += 1;
            }
        }
        Ok(self.0.is_empty())
    }
}

/// Sends `buf[range]` to `to` as one message, encoded to `wire` (cast-on-send;
/// bit-exact for `f32`).
///
/// On the `f32` wire this is [`Transport::lend_f32`]: an in-process fabric
/// lends the chunk — the peer reduces straight from it — and the loan joins
/// `loans`; TCP sends straight from the chunk, and the other fabrics encode
/// into a buffer from the transport's pool. A narrow wire always encodes
/// into a pooled buffer, because the same pass rounds the chunk.
///
/// On a narrow wire the sender's chunk is **rounded in place** to the wire
/// values first ([`crate::wire::round_to_wire`] semantics, fused into the
/// encode pass): the sender keeps exactly what it
/// shipped. This is what makes copy-collectives (all-gather, broadcast)
/// leave every rank bit-identical — the source holds the same rounded
/// values its peers received — and it costs nothing extra in precision,
/// because re-encoding an already-rounded value is lossless (relays never
/// cascade rounding).
///
/// # Safety
///
/// `buf` is alive and nothing else accesses `range` during the call. A lent
/// range must then stay allocated and unwritten until its loan in `loans`
/// is settled or dropped: receives into it go through
/// [`recv_hop`] with the same `loans`, and `loans` is settled before
/// the buffer is given back or dropped before it is freed.
///
/// # Errors
///
/// Propagates transport errors.
///
/// # Panics
///
/// Panics for [`DType::U8`]: opaque bytes carry compressor-defined
/// encodings and cannot be produced by a numeric cast.
pub(crate) unsafe fn send_hop<T: Transport>(
    t: &T,
    to: usize,
    buf: Chunks,
    range: Range<usize>,
    wire: DType,
    loans: &mut Loans,
) -> Result<(), CollectiveError> {
    if wire == DType::F32 {
        // SAFETY: the caller keeps the range unwritten until the loan,
        // pushed to `loans`, is settled or dropped.
        if let Some(loan) = unsafe { t.lend_f32(to, buf.get(range.clone()))? } {
            loans.0.push((range, loan));
        }
        return Ok(());
    }
    let bytes = t.take_buffer(range.len() * wire.size_bytes());
    // Encode and round in one pass: after this, the chunk holds exactly the
    // values the payload carries (see `round_to_wire`).
    // SAFETY: nothing else accesses `range` during the call.
    let payload = WireBuf::encode_round_into(unsafe { buf.get_mut(range) }, wire, bytes);
    t.send(to, payload.into())
}

/// Elements per slice of a receive that runs an [`Epilogue`]: 8 KiB of
/// `f32`, so a slice's reduction and the epilogue's pass over it share the
/// L1 cache. A constant, not a knob: the pieces are element-wise, so the
/// results do not depend on it.
pub const EPILOGUE_SLICE: usize = 2048;

/// Work fused into a receive (see [`crate::ring_receive`]): it sees
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

/// Receives `buf[range]` as one message from `from`: with `op`, each
/// element is widened to `f32` **as it accumulates** (the
/// accumulate-in-f32 rule: one rounding on the sender's cast, none here);
/// without, it is decoded (widened if the wire was narrow) in place. The
/// payload is decoded by its own dtype tag, so the receiver needs no wire
/// setting, and its bytes go back to the transport's pool. A lent chunk is
/// reduced or copied where it lies and released after the last slice.
/// `epilogue` sees every slice as soon as it is done. The loans in `loans`
/// on `range` are settled first.
///
/// With `wait` it blocks until the message arrives; without, it takes the
/// message only if it has ([`Transport::recv_parcel`]). `Ok(false)` when it
/// has not, and then nothing was touched.
///
/// # Safety
///
/// `buf` is alive, and nothing but `loans` holds or accesses `range` during
/// the call.
///
/// # Errors
///
/// Propagates transport errors; returns [`CollectiveError::SizeMismatch`]
/// if the message's length differs from `range`'s, and
/// [`CollectiveError::Aborted`] if the sender revoked its lease.
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn recv_hop<T: Transport>(
    t: &T,
    from: usize,
    buf: Chunks,
    range: Range<usize>,
    op: Option<ReduceOp>,
    epilogue: &mut impl Epilogue,
    loans: &mut Loans,
    wait: bool,
) -> Result<bool, CollectiveError> {
    let Some(incoming) = t.recv_parcel(from, wait)? else {
        return Ok(false);
    };
    loans.settle_overlapping(&range)?;
    let actual = match &incoming {
        Parcel::Message(msg) => msg.len(),
        Parcel::Lent(lease) => lease.len(),
    };
    if actual != range.len() {
        return Err(CollectiveError::SizeMismatch {
            expected: range.len(),
            actual,
        });
    }
    epilogue.arrived();
    let slices = epilogue_slices(range.clone()).map(|s| {
        // SAFETY: `range` is settled and the caller's alone.
        let values = unsafe { buf.get_mut(s.clone()) };
        (s, values)
    });
    match incoming {
        Parcel::Message(msg) => {
            let payload = msg.into_payload();
            for (s, values) in slices {
                let at = s.start - range.start;
                match op {
                    Some(op) => payload.accumulate_part_into(at, values, op)?,
                    None => payload.decode_part_into(at, values)?,
                }
                epilogue.slice(s, values);
            }
            t.recycle_buffer(payload.into_bytes());
        }
        Parcel::Lent(lease) => lease
            .read(|src| {
                for (s, values) in slices {
                    let part = &src[s.start - range.start..s.end - range.start];
                    match op {
                        Some(op) => op.accumulate(values, part)?,
                        None => values.copy_from_slice(part),
                    }
                    epilogue.slice(s, values);
                }
                Ok(())
            })
            .ok_or(CollectiveError::Aborted { peer: from })??,
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LocalFabric;

    /// One hop of `src` from `a` to `b`, reduced into or copied over `dst`.
    fn hop<T: Transport + Sync>(
        a: &T,
        b: &T,
        src: &mut [f32],
        dst: &mut [f32],
        wire: DType,
        op: Option<ReduceOp>,
    ) {
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut loans = Loans::default();
                let all = 0..src.len();
                // SAFETY: `src` is borrowed for the whole hop, and the loan
                // is settled before the borrow ends.
                unsafe { send_hop(a, 1, Chunks::of(src), all, wire, &mut loans).unwrap() };
                loans.settle().unwrap();
            });
            s.spawn(|| {
                let (buf, all) = (Chunks::of(dst), 0..dst.len());
                let mut loans = Loans::default();
                // SAFETY: `dst` is borrowed for the whole hop.
                unsafe { recv_hop(b, 0, buf, all, op, &mut (), &mut loans, true).unwrap() };
            });
        });
    }

    #[test]
    fn bf16_send_halves_wire_bytes_and_accumulates_in_f32() {
        let mut eps = LocalFabric::create(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let mut src = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0];
        let mut dst = [10.0f32; 6];
        hop(&a, &b, &mut src, &mut dst, DType::Bf16, Some(ReduceOp::Sum));
        // All values are exactly representable in bf16; the f32
        // accumulator adds them exactly.
        assert_eq!(dst, [11.0, 12.0, 13.0, 14.0, 15.0, 16.0]);
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
        let mut dst = [0.0f32; 3];
        hop(&a, &b, &mut src, &mut dst, DType::Bf16, None);
        assert_eq!(dst, expect);
        assert_eq!(src, expect, "sender must keep the shipped values");
    }

    #[test]
    fn an_f32_hop_between_threads_is_lent_and_reduced_in_place() {
        let mut eps = LocalFabric::create(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let mut src = [1.5f32, f32::from_bits(0x7FC0_0042), -0.0, f32::from_bits(1)];
        let mut dst = [0.5f32, 1.0, 0.0, 0.0];
        let want: Vec<u32> = dst
            .iter()
            .zip(&src)
            .map(|(d, s)| (d + s).to_bits())
            .collect();
        hop(&a, &b, &mut src, &mut dst, DType::F32, Some(ReduceOp::Sum));
        assert_eq!(dst.map(f32::to_bits).to_vec(), want);
        // A lent chunk the receiver has not taken yet is a lease on the link.
        // SAFETY: the loan is settled before `src` goes.
        let loan = unsafe { a.lend_f32(1, &src).unwrap() }.expect("local peers lend");
        assert!(matches!(b.recv_parcel(0, true), Ok(Some(Parcel::Lent(l))) if l.len() == 4));
        assert_eq!(
            loan.settle(),
            Err(CollectiveError::Disconnected { peer: 1 })
        );
    }

    #[test]
    #[should_panic(expected = "opaque")]
    fn opaque_wire_dtype_is_rejected() {
        let eps = LocalFabric::create(2);
        let mut one = [1.0];
        // SAFETY: a narrow send lends nothing.
        let _ = unsafe {
            send_hop(
                &eps[0],
                1,
                Chunks::of(&mut one),
                0..1,
                DType::U8,
                &mut Loans::default(),
            )
        };
    }
}
