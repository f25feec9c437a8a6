//! Ring-based collectives: reduce-scatter, all-gather, and their
//! composition, the ring all-reduce (Patarasuk & Yuan; the NCCL default).
//!
//! The DeAR paper decouples `all-reduce = reduce-scatter ∘ all-gather`; these
//! functions are that decomposition, executable on any [`Transport`]. Both
//! halves take exactly `P−1` communication rounds of `d/P` elements — the
//! zero-overhead property of Eqs. 3–5.

use std::ops::Range;

use crate::chunk::chunk_range;
use crate::error::CollectiveError;
use crate::hop::{epilogue_slices, recv_hop, send_hop, Chunks, Epilogue, Loans};
use crate::reduce::ReduceOp;
use crate::transport::Transport;
use crate::wire::DType;

/// The chunk index that [`ring_reduce_scatter`] leaves fully reduced on
/// `rank`.
#[must_use]
pub fn ring_owned_chunk(rank: usize, world: usize) -> usize {
    (rank + 1) % world
}

/// Which ring collective a [`RingOp`] runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RingKind {
    /// Reduce-scatter with the given operator: `P−1` rounds.
    ReduceScatter(ReduceOp),
    /// All-gather of the chunk this rank contributes: `P−1` rounds.
    AllGather {
        /// Index of the chunk this rank holds on entry (see
        /// [`ring_all_gather`]).
        owned_chunk: usize,
    },
    /// Reduce-scatter followed by the all-gather of the owned chunk:
    /// `2(P−1)` rounds. The first all-gather send ships what the last
    /// reduce-scatter receive produced, so the rounds chain like any other.
    AllReduce(ReduceOp),
}

/// A ring collective in flight, between [`ring_begin`] and [`ring_finish`].
///
/// A ring collective is a chain of rounds — send one chunk to the next
/// rank, receive one from the previous — in which round `r`'s send ships
/// what round `r−1`'s receive produced. Only the *first* send is free of
/// any receive, which is what the split-phase calls expose: a caller that
/// runs several collectives back to back may post the next one's first
/// send before it blocks on this one's last receive.
///
/// The op does not borrow the buffer; every call must be handed the same
/// `data` (and the same transport) it was begun with. On the `f32` wire a
/// send to an in-process peer lends its chunk (see
/// [`Transport::lend_f32`]), and the op holds the loans: a receive settles
/// those on its range before it writes there, [`ring_finish`] settles the
/// rest before it returns, and dropping an unfinished op abandons them —
/// each lease is revoked, or waited out if the peer is reading it — so an
/// op dropped before its buffer leaves no reader behind.
#[derive(Debug)]
pub struct RingOp {
    kind: RingKind,
    /// The dtype every send of the op is cast to, fixed at [`ring_begin`].
    wire: DType,
    /// Buffer length the op was begun with.
    len: usize,
    /// Rounds in total: `P−1`, or `2(P−1)` for an all-reduce.
    rounds: usize,
    /// Rounds whose send has been posted.
    sent: usize,
    /// Rounds whose receive has been consumed.
    recvd: usize,
    /// The last receive — on one rank, the epilogue over the whole buffer —
    /// has run.
    landed: bool,
    /// The chunks this op has lent and not yet settled.
    loans: Loans,
}

/// How long a ring step waits for a message that has not arrived.
#[derive(Clone, Copy, PartialEq)]
enum Wait {
    /// Not at all: only what has arrived is consumed.
    Never,
    /// For the first receive, then only for what has arrived.
    Once,
    /// For every receive.
    Always,
}

impl RingOp {
    /// The collective this op runs.
    #[must_use]
    pub fn kind(&self) -> RingKind {
        self.kind
    }

    /// Whether every send of this op has been posted. From then on the op
    /// puts nothing more on the link, so a later op's first send may follow
    /// without splitting this op's messages.
    #[must_use]
    pub fn all_sent(&self) -> bool {
        self.sent == self.rounds
    }

    /// Whether every receive of this op has been consumed (on one rank,
    /// whether its epilogue has run): the values are final, and all that
    /// may be left is the settle of the chunks it lent. A later op's
    /// messages on the link come after this op's, so it is the next to
    /// receive.
    #[must_use]
    pub fn landed(&self) -> bool {
        self.landed
    }

    /// Polls the settle of every chunk this op lent ([`crate::Loan::poll`]):
    /// `Ok(true)` once none is out, so [`ring_finish`] will not wait. The
    /// polled loans are settled as they are found released.
    ///
    /// # Errors
    ///
    /// A settle's error (see [`crate::Loan::settle`]). The op is then dead:
    /// drop it.
    pub fn poll_settled(&mut self) -> Result<bool, CollectiveError> {
        self.loans.poll()
    }

    /// `(send chunk, receive chunk, reduction)` of round `r`; the reduction
    /// is `None` in all-gather rounds, which copy.
    fn round(&self, rank: usize, world: usize, r: usize) -> (usize, usize, Option<ReduceOp>) {
        let (base, step, reduce) = match self.kind {
            RingKind::ReduceScatter(op) => (rank, r, Some(op)),
            RingKind::AllGather { owned_chunk } => (owned_chunk, r, None),
            RingKind::AllReduce(op) if r < world - 1 => (rank, r, Some(op)),
            RingKind::AllReduce(_) => (ring_owned_chunk(rank, world), r - (world - 1), None),
        };
        (
            (base + world - step) % world,
            (base + 2 * world - step - 1) % world,
            reduce,
        )
    }

    /// Posts the next round's send.
    ///
    /// # Safety
    ///
    /// As [`ring_begin`], for the buffer `data` addresses.
    unsafe fn send_round<T: Transport>(
        &mut self,
        t: &T,
        data: Chunks,
    ) -> Result<(), CollectiveError> {
        debug_assert_eq!(data.len(), self.len, "ring op handed a different buffer");
        let (rank, world) = (t.rank(), t.world_size());
        let (send_idx, _, _) = self.round(rank, world, self.sent);
        let range = chunk_range(data.len(), world, send_idx);
        // SAFETY: the op's caller keeps the buffer alive and its own until
        // the op is finished or dropped; the loan joins `self.loans`, which
        // settles it first.
        unsafe {
            send_hop(
                t,
                (rank + 1) % world,
                data,
                range,
                self.wire,
                &mut self.loans,
            )?
        };
        self.sent += 1;
        Ok(())
    }

    /// Consumes the next round's receive, reducing or copying it in, with
    /// `epilogue` on the chunk it lands in: blocking if `wait`, else only
    /// if it has arrived. `Ok(false)` when it has not.
    ///
    /// # Safety
    ///
    /// As [`ring_begin`], for the buffer `data` addresses.
    unsafe fn recv_round<T: Transport>(
        &mut self,
        t: &T,
        data: Chunks,
        epilogue: &mut impl Epilogue,
        wait: bool,
    ) -> Result<bool, CollectiveError> {
        debug_assert_eq!(data.len(), self.len, "ring op handed a different buffer");
        let (rank, world) = (t.rank(), t.world_size());
        let (_, recv_idx, reduce) = self.round(rank, world, self.recvd);
        let range = chunk_range(data.len(), world, recv_idx);
        let prev = (rank + world - 1) % world;
        // SAFETY: as `send_round`; the receive settles this op's loans on
        // `range` before it writes there.
        let loans = &mut self.loans;
        if !unsafe { recv_hop(t, prev, data, range, reduce, epilogue, loans, wait)? } {
            return Ok(false);
        }
        self.recvd += 1;
        self.landed = self.recvd == self.rounds;
        Ok(true)
    }

    /// Consumes receives as `wait` allows, each followed by the send it
    /// unlocks, with `epilogue` fused into the last one (on one rank, run
    /// over the whole buffer). Returns [`RingOp::landed`].
    ///
    /// # Safety
    ///
    /// As [`ring_begin`], for the buffer `data` addresses.
    unsafe fn receive<T: Transport>(
        &mut self,
        t: &T,
        data: Chunks,
        epilogue: &mut impl Epilogue,
        mut wait: Wait,
    ) -> Result<bool, CollectiveError> {
        if self.rounds == 0 && !self.landed {
            epilogue.arrived();
            for s in epilogue_slices(0..data.len()) {
                // SAFETY: nothing is lent — nothing was sent.
                epilogue.slice(s.clone(), unsafe { data.get_mut(s) });
            }
            self.landed = true;
        }
        while !self.landed {
            let last = self.recvd + 1 == self.rounds;
            // SAFETY (both): forwarded.
            let got = if last {
                unsafe { self.recv_round(t, data, epilogue, wait != Wait::Never)? }
            } else {
                unsafe { self.recv_round(t, data, &mut (), wait != Wait::Never)? }
            };
            if !got {
                break;
            }
            if !self.all_sent() {
                unsafe { self.send_round(t, data)? };
            }
            if wait == Wait::Once {
                wait = Wait::Never;
            }
        }
        Ok(self.landed)
    }

    /// # Safety
    ///
    /// As [`ring_begin`], for the buffer `data` addresses.
    unsafe fn begin<T: Transport>(
        t: &T,
        kind: RingKind,
        data: Chunks,
        wire: DType,
    ) -> Result<RingOp, CollectiveError> {
        let hops = t.world_size() - 1;
        let mut ring = RingOp {
            kind,
            wire,
            len: data.len(),
            rounds: match kind {
                RingKind::AllReduce(_) => 2 * hops,
                RingKind::ReduceScatter(_) | RingKind::AllGather { .. } => hops,
            },
            sent: 0,
            recvd: 0,
            landed: false,
            loans: Loans::default(),
        };
        if !ring.all_sent() {
            // SAFETY: forwarded.
            unsafe { ring.send_round(t, data)? };
        }
        Ok(ring)
    }

    /// # Safety
    ///
    /// As [`ring_begin`], for the buffer `data` addresses.
    unsafe fn finish<T: Transport>(
        mut self,
        t: &T,
        data: Chunks,
        epilogue: &mut impl Epilogue,
    ) -> Result<Range<usize>, CollectiveError> {
        // SAFETY: forwarded.
        unsafe { self.receive(t, data, epilogue, Wait::Always)? };
        self.loans.settle()?;
        let (rank, world) = (t.rank(), t.world_size());
        Ok(match self.kind {
            RingKind::ReduceScatter(_) => {
                chunk_range(data.len(), world, ring_owned_chunk(rank, world))
            }
            RingKind::AllGather { .. } | RingKind::AllReduce(_) => 0..data.len(),
        })
    }
}

/// Begins a ring collective over `data` on the `wire` dtype: posts its
/// first send — the only one that depends on no receive — and returns the
/// op to drive with [`ring_receive`] and [`ring_finish`]. Never blocks on a
/// receive.
///
/// `begin → finish` on one op is exactly the one-call `ring_*_on_wire`
/// collective (those *are* this composition). Across ops on one rank, a
/// caller may interleave under one rule: **an op may be begun once every
/// earlier op has posted its last send** ([`RingOp::all_sent`]), and ops
/// receive and finish in the order they were begun. Each op's messages
/// then stay contiguous on the link, in the order a sequential caller
/// would have produced them, so the peers — whatever their own
/// interleaving — receive the same byte sequence, only earlier.
///
/// # Safety
///
/// A peer may read `data`'s chunks in place until the op is finished or
/// dropped (see [`RingOp`]). Until then `data` must be handed to every call
/// of the op and must otherwise be left alone: not written, resized, moved
/// out of or freed, and not reborrowed as a slice — the calls address it
/// through [`Vec::as_mut_ptr`]. Dropping the op before `data` is enough to
/// abandon it.
///
/// # Errors
///
/// Propagates transport errors.
pub unsafe fn ring_begin<T: Transport>(
    t: &T,
    kind: RingKind,
    data: &mut Vec<f32>,
    wire: DType,
) -> Result<RingOp, CollectiveError> {
    // SAFETY: the caller's contract.
    unsafe { RingOp::begin(t, kind, Chunks::of_vec(data), wire) }
}

/// Drives `ring` as far as the messages that have **already arrived** take
/// it — with `wait`, after first waiting for its next one, so that a caller
/// with nothing else to do blocks on the link instead of spinning. Each
/// message is reduced or copied in and the send it unlocks is posted.
/// Returns [`RingOp::landed`]; a landed op returns at once.
///
/// `epilogue` is fused into the last receive: it sees the chunk that
/// receive completes — after a reduce-scatter, the owned chunk — one slice
/// at a time, each right after its last reduction, while the slice is
/// still in cache (the collective computes what consumes its data as the
/// data arrives). On one rank, where there is no receive, it sees the
/// whole buffer, which is the owned chunk.
///
/// Ops begun back to back share the link, so only the oldest op that has
/// not landed may receive: the messages behind its next receive are a
/// later op's. Without `wait` the receive is a poll
/// ([`Transport::recv_parcel`]); a transport whose poll never reports a
/// message (the trait's default) moves only with `wait` and in
/// [`ring_finish`].
///
/// # Safety
///
/// As [`ring_begin`]: `data` is the buffer the op was begun with.
///
/// # Errors
///
/// Propagates transport errors, a receive deadline's `Timeout` included;
/// returns [`CollectiveError::SizeMismatch`] if a peer sent a chunk of
/// unexpected length. The op is then dead: drop it.
pub unsafe fn ring_receive<T: Transport>(
    t: &T,
    ring: &mut RingOp,
    data: &mut Vec<f32>,
    epilogue: &mut impl Epilogue,
    wait: bool,
) -> Result<bool, CollectiveError> {
    let wait = if wait { Wait::Once } else { Wait::Never };
    // SAFETY: the caller's contract.
    unsafe { ring.receive(t, Chunks::of_vec(data), epilogue, wait) }
}

/// Completes `ring`: whatever receives and sends it has left, then the
/// settle of every chunk the op lent. Returns the range of `data` that now
/// holds final values — the owned chunk after a reduce-scatter (the rest is
/// partially-reduced garbage), the whole buffer after an all-gather or
/// all-reduce. On return `data` is the caller's again.
///
/// # Safety
///
/// As [`ring_receive`].
///
/// # Errors
///
/// As [`ring_receive`], and a settle's error (see [`crate::Loan::settle`]).
pub unsafe fn ring_finish<T: Transport>(
    t: &T,
    ring: RingOp,
    data: &mut Vec<f32>,
) -> Result<Range<usize>, CollectiveError> {
    // SAFETY: the caller's contract.
    unsafe { ring.finish(t, Chunks::of_vec(data), &mut ()) }
}

/// One whole ring collective over `data`, borrowed for the call: the
/// composition every one-call ring collective is.
fn ring_once<T: Transport>(
    t: &T,
    kind: RingKind,
    data: &mut [f32],
    wire: DType,
) -> Result<Range<usize>, CollectiveError> {
    let buf = Chunks::of(data);
    // SAFETY: `data` is borrowed, and left alone, for the whole call, and
    // the op is finished (its loans settled) or dropped before it returns.
    unsafe { RingOp::begin(t, kind, buf, wire)?.finish(t, buf, &mut ()) }
}

/// Ring reduce-scatter over `data`, in place.
///
/// After completion, the chunk [`ring_owned_chunk`]`(rank, world)` of `data`
/// (per [`chunk_range`]) holds the element-wise reduction across all ranks;
/// the remaining chunks contain partially-reduced intermediate values and
/// must be treated as garbage. Returns the owned element range.
///
/// All ranks must call this with equal-length buffers.
///
/// # Errors
///
/// Propagates transport errors; returns [`CollectiveError::SizeMismatch`] if
/// a peer sent a chunk of unexpected length.
pub fn ring_reduce_scatter<T: Transport>(
    t: &T,
    data: &mut [f32],
    op: ReduceOp,
) -> Result<Range<usize>, CollectiveError> {
    ring_reduce_scatter_on_wire(t, data, op, DType::F32)
}

/// [`ring_reduce_scatter`] with each hop's chunk cast to `wire` on send
/// and accumulated in `f32` on receipt.
///
/// # Errors
///
/// As [`ring_reduce_scatter`].
pub fn ring_reduce_scatter_on_wire<T: Transport>(
    t: &T,
    data: &mut [f32],
    op: ReduceOp,
    wire: DType,
) -> Result<Range<usize>, CollectiveError> {
    ring_once(t, RingKind::ReduceScatter(op), data, wire)
}

/// Releases everything of a reduce-scattered buffer but its owned chunk:
/// the shard is moved to the front and the unowned capacity given back, so
/// the returned vector holds (and keeps allocated) `owned.len()` elements.
#[must_use]
pub fn compact_owned_shard(mut data: Vec<f32>, owned: &Range<usize>) -> Vec<f32> {
    data.copy_within(owned.clone(), 0);
    data.truncate(owned.len());
    data.shrink_to_fit();
    data
}

/// Ring all-gather over `data`, in place.
///
/// On entry, the chunk with index `owned_chunk` (per [`chunk_range`]) must
/// hold this rank's contribution — on rank `r`, `owned_chunk` must be
/// [`ring_owned_chunk`]`(r, world)` relative to the ring (each rank owns a
/// distinct chunk, offset by one from its successor). On return every chunk
/// of `data` holds the corresponding owner's contribution.
///
/// # Errors
///
/// Propagates transport errors; returns [`CollectiveError::SizeMismatch`] if
/// a peer sent a chunk of unexpected length.
pub fn ring_all_gather<T: Transport>(
    t: &T,
    data: &mut [f32],
    owned_chunk: usize,
) -> Result<(), CollectiveError> {
    ring_all_gather_on_wire(t, data, owned_chunk, DType::F32)
}

/// [`ring_all_gather`] with each hop's chunk cast to `wire` on send; the
/// owned chunk is rounded to the wire in place, so every rank ends with
/// the same bits.
///
/// # Errors
///
/// As [`ring_all_gather`].
pub fn ring_all_gather_on_wire<T: Transport>(
    t: &T,
    data: &mut [f32],
    owned_chunk: usize,
    wire: DType,
) -> Result<(), CollectiveError> {
    ring_once(t, RingKind::AllGather { owned_chunk }, data, wire).map(|_| ())
}

/// Ring all-reduce: [`ring_reduce_scatter`] followed by [`ring_all_gather`].
///
/// On return, every element of `data` holds the element-wise reduction
/// across all ranks.
///
/// # Errors
///
/// Propagates errors from the two phases.
pub fn ring_all_reduce<T: Transport>(
    t: &T,
    data: &mut [f32],
    op: ReduceOp,
) -> Result<(), CollectiveError> {
    ring_all_reduce_on_wire(t, data, op, DType::F32)
}

/// [`ring_all_reduce`] on the `wire` dtype in both phases. Runs its two
/// phases as two ops; [`RingKind::AllReduce`] is the same message sequence
/// as one op.
///
/// # Errors
///
/// As [`ring_all_reduce`].
pub fn ring_all_reduce_on_wire<T: Transport>(
    t: &T,
    data: &mut [f32],
    op: ReduceOp,
    wire: DType,
) -> Result<(), CollectiveError> {
    ring_reduce_scatter_on_wire(t, data, op, wire)?;
    let owned = ring_owned_chunk(t.rank(), t.world_size());
    ring_all_gather_on_wire(t, data, owned, wire)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::run_cluster;

    fn rank_data(rank: usize, d: usize) -> Vec<f32> {
        (0..d).map(|i| (rank * d + i) as f32).collect()
    }

    fn expected_sum(world: usize, d: usize) -> Vec<f32> {
        (0..d)
            .map(|i| (0..world).map(|r| (r * d + i) as f32).sum())
            .collect()
    }

    #[test]
    fn reduce_scatter_owns_correct_reduced_chunk() {
        for world in [2, 3, 4, 7] {
            let d = 23;
            let expect = expected_sum(world, d);
            let results = run_cluster(world, |ep| {
                let mut data = rank_data(ep.rank(), d);
                let range = ring_reduce_scatter(&ep, &mut data, ReduceOp::Sum).unwrap();
                (ep.rank(), range.clone(), data[range].to_vec())
            });
            for (rank, range, owned) in results {
                let expected_range = chunk_range(d, world, ring_owned_chunk(rank, world));
                assert_eq!(range, expected_range);
                assert_eq!(owned, expect[expected_range].to_vec(), "rank {rank}");
            }
        }
    }

    #[test]
    fn all_reduce_equals_elementwise_sum() {
        for world in [1, 2, 3, 5, 8] {
            for d in [0, 1, 7, 64, 100] {
                let expect = expected_sum(world, d);
                let results = run_cluster(world, |ep| {
                    let mut data = rank_data(ep.rank(), d);
                    ring_all_reduce(&ep, &mut data, ReduceOp::Sum).unwrap();
                    data
                });
                for (rank, data) in results.into_iter().enumerate() {
                    assert_eq!(data, expect, "world {world}, d {d}, rank {rank}");
                }
            }
        }
    }

    #[test]
    fn all_reduce_max() {
        let world = 4;
        let d = 9;
        let results = run_cluster(world, |ep| {
            let mut data: Vec<f32> = (0..d)
                .map(|i| {
                    if i % world == ep.rank() {
                        100.0
                    } else {
                        ep.rank() as f32
                    }
                })
                .collect();
            ring_all_reduce(&ep, &mut data, ReduceOp::Max).unwrap();
            data
        });
        for data in results {
            assert!(data.iter().all(|&x| x == 100.0 || x == 3.0));
        }
    }

    #[test]
    fn single_rank_is_identity() {
        let results = run_cluster(1, |ep| {
            let mut data = vec![1.0, 2.0, 3.0];
            ring_all_reduce(&ep, &mut data, ReduceOp::Sum).unwrap();
            data
        });
        assert_eq!(results[0], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn buffer_smaller_than_world_still_reduces() {
        // d < P: some chunks are empty.
        let world = 6;
        let d = 3;
        let expect = expected_sum(world, d);
        let results = run_cluster(world, |ep| {
            let mut data = rank_data(ep.rank(), d);
            ring_all_reduce(&ep, &mut data, ReduceOp::Sum).unwrap();
            data
        });
        for data in results {
            assert_eq!(data, expect);
        }
    }

    #[test]
    fn compacted_shard_is_the_owned_range_in_its_own_allocation() {
        // What a ZeRO-style caller keeps between OP1 and OP2: exactly the
        // owned range's reduced values, bitwise, in a buffer sized to them.
        for world in [2, 3, 4, 7] {
            let d = 23;
            let expect = expected_sum(world, d);
            let results = run_cluster(world, |ep| {
                let mut data = rank_data(ep.rank(), d);
                let owned = ring_reduce_scatter(&ep, &mut data, ReduceOp::Sum).unwrap();
                let shard = compact_owned_shard(data, &owned);
                (owned, shard)
            });
            for (rank, (range, shard)) in results.into_iter().enumerate() {
                let expected_range = chunk_range(d, world, ring_owned_chunk(rank, world));
                assert_eq!(range, expected_range);
                assert_eq!(shard.len(), expected_range.len());
                assert_eq!(shard.capacity(), expected_range.len());
                assert_eq!(shard, expect[expected_range].to_vec(), "rank {rank}");
            }
        }
    }

    #[test]
    fn only_a_two_rank_rs_or_ag_has_sent_everything_once_begun() {
        // What decides how far a caller can send ahead: a reduce-scatter or
        // all-gather on two ranks is a single send, so `begin` leaves
        // nothing to post; an all-reduce's second send needs its first
        // receive, and so does any op's on three ranks.
        let sent_after_begin = |world: usize, kind: fn(usize) -> RingKind| {
            run_cluster(world, |ep| {
                let mut data = rank_data(ep.rank(), 12);
                // SAFETY: `data` is left alone until the op is finished.
                unsafe {
                    let ring = ring_begin(&ep, kind(ep.rank()), &mut data, DType::F32).unwrap();
                    let sent = ring.all_sent();
                    ring_finish(&ep, ring, &mut data).unwrap();
                    sent
                }
            })
        };
        let rs: fn(usize) -> RingKind = |_| RingKind::ReduceScatter(ReduceOp::Sum);
        let ar: fn(usize) -> RingKind = |_| RingKind::AllReduce(ReduceOp::Sum);
        let ag2: fn(usize) -> RingKind = |rank| RingKind::AllGather {
            owned_chunk: ring_owned_chunk(rank, 2),
        };
        assert_eq!(sent_after_begin(2, rs), [true, true]);
        assert_eq!(sent_after_begin(2, ag2), [true, true]);
        assert_eq!(sent_after_begin(2, ar), [false, false]);
        assert_eq!(sent_after_begin(3, rs), [false, false, false]);
        assert_eq!(sent_after_begin(1, ar), [true], "nothing to send at all");
    }

    #[test]
    fn the_epilogue_sees_the_owned_chunk_reduced_slice_by_slice() {
        // After `arrived`, the reduce-scatter's epilogue sees the owned
        // chunk in consecutive slices of at most `EPILOGUE_SLICE` elements,
        // each already holding its final sums (on one rank: the whole
        // buffer, untouched); and the buffer ends as `ring_finish` leaves it.
        struct Record {
            arrived: bool,
            slices: Vec<(Range<usize>, Vec<f32>)>,
        }
        impl Epilogue for Record {
            fn arrived(&mut self) {
                assert!(
                    !self.arrived && self.slices.is_empty(),
                    "arrived once, first"
                );
                self.arrived = true;
            }
            fn slice(&mut self, range: Range<usize>, values: &mut [f32]) {
                assert!(self.arrived, "a slice before the payload arrived");
                assert!(range.len() <= crate::hop::EPILOGUE_SLICE);
                self.slices.push((range, values.to_vec()));
            }
        }
        for world in [1, 2, 3, 4] {
            let d = 2 * crate::hop::EPILOGUE_SLICE * world + 7;
            let expect = expected_sum(world, d);
            let results = run_cluster(world, |ep| {
                let mut data = rank_data(ep.rank(), d);
                let kind = RingKind::ReduceScatter(ReduceOp::Sum);
                let mut record = Record {
                    arrived: false,
                    slices: Vec::new(),
                };
                // SAFETY: `data` is left alone until the op is finished.
                let owned = unsafe {
                    let mut ring = ring_begin(&ep, kind, &mut data, DType::F32).unwrap();
                    while !ring_receive(&ep, &mut ring, &mut data, &mut record, true).unwrap() {}
                    ring_finish(&ep, ring, &mut data).unwrap()
                };
                (owned, record.slices, data)
            });
            for (rank, (owned, slices, data)) in results.into_iter().enumerate() {
                let case = format!("rank {rank}/{world}");
                let mut at = owned.start;
                for (range, values) in &slices {
                    assert_eq!(range.start, at, "{case}: slices in order, no gaps");
                    assert_eq!(values, &expect[range.clone()], "{case}: final sums");
                    at = range.end;
                }
                assert_eq!(at, owned.end, "{case}: the whole owned chunk");
                assert!(slices.len() >= 2, "{case}: several slices");
                assert_eq!(data[owned.clone()], expect[owned], "{case}");
            }
        }
    }

    #[test]
    fn decoupled_phases_compose_to_all_reduce() {
        // Run RS and AG as two separate calls (as DeAR does across the
        // BP/FF boundary) and check the result matches the fused op.
        let world = 5;
        let d = 17;
        let expect = expected_sum(world, d);
        let results = run_cluster(world, |ep| {
            let mut data = rank_data(ep.rank(), d);
            let _ = ring_reduce_scatter(&ep, &mut data, ReduceOp::Sum).unwrap();
            // ... in DeAR, backprop of other layers happens here ...
            ring_all_gather(&ep, &mut data, ring_owned_chunk(ep.rank(), world)).unwrap();
            data
        });
        for data in results {
            assert_eq!(data, expect);
        }
    }
}
