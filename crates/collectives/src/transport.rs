//! Point-to-point transports that collective algorithms run on.
//!
//! The paper's system uses NCCL over physical NICs; here the substitute is an
//! in-process fabric ([`crate::LocalFabric`]) — every worker is an OS thread,
//! and messages travel over bounded rings, one per directed pair of ranks.
//! [`DelayFabric`] additionally injects α-β wall-clock delays so that real
//! runs exhibit network-like timing.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::cost::CostModel;
use crate::error::CollectiveError;
use crate::lease::{Loan, Parcel};
use crate::shm::{LocalEndpoint, LocalFabric};
use crate::wire::{DType, WireBuf};

/// A payload travelling between ranks: a dtype-tagged byte buffer
/// ([`WireBuf`]), optionally stamped with the wall-clock instant at which
/// the simulated network finishes delivering it (set by [`DelayFabric`] on
/// send, honoured by [`DelayFabric`] on receive).
///
/// Construct from a [`WireBuf`] (or from a `Vec<f32>`, which encodes as
/// bit-exact little-endian `f32`); call [`Message::into_payload`] to reclaim
/// the payload (and hand its bytes back to the transport's buffer pool via
/// [`Transport::recycle_buffer`]).
///
/// # Wire safety
///
/// The `deliver_at` stamp is a **local-fabric-only** concern: it is an
/// in-process [`Instant`], meaningless in another process and impossible to
/// serialize. Transports that put messages on a real wire (e.g. `dear-net`'s
/// TCP endpoint) must consume messages through
/// [`Message::into_wire_payload`], which returns
/// [`CollectiveError::LocalStampOnWire`] when a stamp is present — so timing
/// semantics are never silently dropped at a serialization boundary.
/// Consequently [`DelayFabric`] (the only stamper) must only ever wrap
/// in-process transports, never a wire transport.
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    payload: WireBuf,
    deliver_at: Option<Instant>,
}

impl Message {
    /// Wraps a payload with no delivery stamp.
    #[must_use]
    pub fn new(payload: WireBuf) -> Self {
        Message {
            payload,
            deliver_at: None,
        }
    }

    /// The payload carried by this message.
    #[must_use]
    pub fn payload(&self) -> &WireBuf {
        &self.payload
    }

    /// Element count of the payload.
    #[must_use]
    pub fn len(&self) -> usize {
        self.payload.len_elems()
    }

    /// Whether the payload is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }

    /// Bytes the payload occupies on the wire — the dtype-dependent
    /// quantity a bandwidth model charges for.
    #[must_use]
    pub fn wire_bytes(&self) -> usize {
        self.payload.num_bytes()
    }

    /// Consumes the message, returning the payload for reuse.
    #[must_use]
    pub fn into_payload(self) -> WireBuf {
        self.payload
    }

    /// Consumes the message for serialization onto a real wire, returning
    /// the payload. The `deliver_at` stamp cannot cross a process boundary
    /// (it is an in-process [`Instant`]); a stamped message reaching a wire
    /// transport is a composition bug (a [`DelayFabric`] wrapping a wire
    /// transport), surfaced as a typed error so release builds cannot
    /// silently ship fabric-local metadata.
    ///
    /// # Errors
    ///
    /// Returns [`CollectiveError::LocalStampOnWire`] if a delivery stamp is
    /// present.
    pub fn into_wire_payload(self) -> Result<WireBuf, CollectiveError> {
        if self.deliver_at.is_some() {
            return Err(CollectiveError::LocalStampOnWire);
        }
        Ok(self.payload)
    }

    /// The simulated delivery instant, if a delaying transport stamped one.
    #[must_use]
    pub fn deliver_at(&self) -> Option<Instant> {
        self.deliver_at
    }

    /// Stamps the delivery instant (keeping the later of two stamps, so
    /// nested delaying transports compose as consecutive hops).
    #[must_use]
    pub fn with_deliver_at(mut self, at: Instant) -> Self {
        self.deliver_at = Some(match self.deliver_at {
            Some(prev) => prev.max(at),
            None => at,
        });
        self
    }

    /// Clears the delivery stamp (after the wait has been served).
    #[must_use]
    pub fn without_deliver_at(mut self) -> Self {
        self.deliver_at = None;
        self
    }
}

impl From<WireBuf> for Message {
    fn from(payload: WireBuf) -> Self {
        Message::new(payload)
    }
}

impl From<Vec<f32>> for Message {
    fn from(payload: Vec<f32>) -> Self {
        Message::new(WireBuf::from_f32(&payload))
    }
}

impl PartialEq<Vec<f32>> for Message {
    fn eq(&self, other: &Vec<f32>) -> bool {
        self == other.as_slice()
    }
}

impl PartialEq<[f32]> for Message {
    fn eq(&self, other: &[f32]) -> bool {
        self.payload.dtype().is_numeric()
            && self.payload.len_elems() == other.len()
            && self.payload.to_f32_vec() == other
    }
}

/// What an in-place world resize did to this endpoint: the rank/world pair
/// it held before, the dense rank it was reassigned, and the generation the
/// resized world runs at. Returned by [`Transport::reconfigure`] so callers
/// (e.g. a communication engine re-deriving shard ownership) can rebuild any state
/// keyed on rank or world size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorldChange {
    /// The rank this endpoint held before the resize.
    pub old_rank: usize,
    /// The world size before the resize.
    pub old_world: usize,
    /// The dense rank assigned in the resized world.
    pub new_rank: usize,
    /// The resized world's size.
    pub new_world: usize,
    /// The generation the resized world runs at (bumped past the old
    /// world's, so stragglers from the old incarnation are rejected).
    pub generation: u64,
}

/// Fewest messages a [`Transport`] must accept on one link before `send`
/// may wait for the peer to receive. Two ranks that each post this many
/// sends to the other before either receives must both get through — the
/// bound a caller that sends ahead of its receives (the communication engine's
/// cross-group send-ahead, `dear-core`) sizes its window against, and the
/// floor bounded transports clamp their queue depth to.
pub const MIN_LINK_FRAMES: usize = 4;

/// Point-to-point message transport between the workers of one job.
///
/// Implementations must be usable from one thread per rank; `send` must not
/// block indefinitely when the peer has not yet posted a receive: at least
/// [`MIN_LINK_FRAMES`] messages per link get through first. Each fabric
/// says who guarantees that: the in-process fabric's rings are at least
/// [`MIN_LINK_FRAMES`] deep (128 in [`crate::LocalFabric::create`]), and on
/// TCP the *peer's reader thread* drains the socket into an
/// unbounded inbox whatever the peer's caller is doing, so the sending
/// thread writes its own frame and waits on nobody's `recv`.
///
/// Beyond the methods' own docs, every transport is a pure carrier:
///
/// - **Order and bits.** Each link delivers in send order, independently
///   of every other link, and a payload arrives with the dtype and bytes
///   it was sent with. [`Transport::lend_f32`] is `send` of the slice's
///   [`DType::F32`] encoding, whichever way a fabric ships it.
/// - **Loans.** A loan settles once the peer has read the lent chunk, or
///   with an error once it cannot: the peer dropped it unread or departed
///   (`Disconnected`), is wedged (`Aborted`), or has not taken it within
///   the lender's receive deadline (`Timeout`). A settle never waits on a
///   peer that is gone, and a lent chunk is never read after its settle.
/// - **Departure.** What a peer sent before its endpoint dropped is still
///   delivered; after it, `recv` from that peer returns
///   [`CollectiveError::Disconnected`], and sends to it fail (a socket or
///   a ring may first take what still fits).
/// - **Error numbering.** An error about a peer (`Timeout`,
///   `Disconnected`, ...) names it as the transport that detected the
///   failure numbers it. A decorator that renumbers ranks passes its inner
///   transport's errors through unchanged, so a [`GroupTransport`] view
///   reports the inner (global) rank. `InvalidRank` names the rank the
///   caller passed.
///
/// The executable statement of this contract is `dear-net`'s
/// `tests/transport_contract.rs`: one generic case per clause, run against
/// every fabric, [`DelayFabric`], a [`GroupTransport`] view and a decorator
/// that keeps every provided method, each joining with one line.
pub trait Transport {
    /// This endpoint's rank in `0..world_size()`.
    fn rank(&self) -> usize;

    /// Number of ranks in the job.
    fn world_size(&self) -> usize;

    /// Sends `msg` to `to`.
    ///
    /// # Errors
    ///
    /// Returns [`CollectiveError::InvalidRank`] if `to` is out of range or
    /// equals this rank, and [`CollectiveError::Disconnected`] if the peer
    /// has hung up.
    fn send(&self, to: usize, msg: Message) -> Result<(), CollectiveError>;

    /// Sends `src` to `to` as one [`DType::F32`] message: the peer receives
    /// exactly what `send(to, WireBuf::encode(src, DType::F32).into())`
    /// would deliver, with the same errors, in FIFO order with `send` on
    /// the same link. A fabric whose peer shares this process may **lend**
    /// `src` instead of copying it: the peer's hop receive
    /// ([`Transport::recv_parcel`]) reduces or copies straight from `src`,
    /// and the returned [`Loan`] is how the caller learns that it has (a
    /// `recv` of a lent message gets an owned copy). `Ok(None)` means the
    /// message went out whole, and `src` is the caller's again.
    ///
    /// The default encodes into a buffer from [`Transport::take_buffer`]
    /// and calls [`Transport::send`]. A transport that writes the message
    /// out before returning (TCP) overrides it to send straight from `src`,
    /// skipping that copy; an in-process fabric overrides it to lend. A
    /// decorator that renumbers ranks forwards it.
    ///
    /// # Safety
    ///
    /// On `Ok(Some(loan))`, `src` must stay allocated and no element of it
    /// may be written — nor reborrowed as `&mut` — until `loan` is settled
    /// ([`Loan::settle`]) or dropped. The loan's `Drop` revokes or waits
    /// out the lease, so dropping it before `src`'s buffer is enough.
    ///
    /// # Errors
    ///
    /// As [`Transport::send`].
    unsafe fn lend_f32(&self, to: usize, src: &[f32]) -> Result<Option<Loan>, CollectiveError> {
        let bytes = self.take_buffer(std::mem::size_of_val(src));
        self.send(to, WireBuf::encode_into(src, DType::F32, bytes).into())
            .map(|()| None)
    }

    /// Receives the next message from `from`, blocking until it arrives.
    ///
    /// # Errors
    ///
    /// Returns [`CollectiveError::InvalidRank`] if `from` is out of range or
    /// equals this rank, [`CollectiveError::Disconnected`] if the peer has
    /// hung up, and [`CollectiveError::Timeout`] if a receive deadline is
    /// configured (see [`Transport::set_recv_timeout`]) and no message is
    /// queued before it expires.
    fn recv(&self, from: usize) -> Result<Message, CollectiveError>;

    /// [`Transport::recv`] as a hop receive takes it: a chunk the peer lent
    /// ([`Transport::lend_f32`]) stays a [`Parcel::Lent`] to read in place,
    /// where `recv` would copy it. With `wait` it blocks as `recv` does and
    /// never returns `Ok(None)`. Without, it is a poll: the next message if
    /// it has arrived, `Ok(None)` at once if it has not, and never
    /// `Timeout`. Polls and receives share one FIFO link, and a message a
    /// poll returns is off the link, as if received.
    ///
    /// The default is `recv` with `wait`; without, it checks `from` and
    /// reports nothing, whatever is queued. It takes nothing off the link,
    /// so a decorator that does not forward this loses and reorders
    /// nothing, but receives copies and never sees a poll report. A caller
    /// that polls must therefore fall back to a waiting receive before it
    /// waits for a message (the training thread's `progress_until` in
    /// `dear-core` does). A fabric overrides it, and a decorator that
    /// renumbers ranks or observes the link forwards it.
    ///
    /// # Errors
    ///
    /// As [`Transport::recv`]. A poll's `Disconnected` comes once the peer
    /// has departed and everything it sent before has been received; a
    /// fabric's own verdicts (`Aborted`, `StaleGeneration`) come as its
    /// `recv` reports them.
    fn recv_parcel(&self, from: usize, wait: bool) -> Result<Option<Parcel>, CollectiveError> {
        if wait {
            self.recv(from).map(|msg| Some(Parcel::Message(msg)))
        } else {
            self.check_peer(from).map(|()| None)
        }
    }

    /// Sets a deadline for subsequent [`Transport::recv`] calls: when no
    /// message is queued within `timeout`, `recv` returns
    /// [`CollectiveError::Timeout`] instead of blocking forever — so a
    /// wedged collective (peer crashed, deadlock) fails fast instead of
    /// hanging the job. `None` restores indefinite blocking.
    ///
    /// Returns `true` if the transport honours the knob. The default does
    /// nothing and returns `false`; decorators forward to their inner
    /// transport.
    fn set_recv_timeout(&self, timeout: Option<Duration>) -> bool {
        let _ = timeout;
        false
    }

    /// Takes a reusable wire-byte buffer of at least `capacity_bytes` from
    /// the transport's pool (empty, ready for encoding into).
    ///
    /// The default allocates; pooling transports override this together
    /// with [`Transport::recycle_buffer`] so that steady-state collectives
    /// run allocation-free.
    fn take_buffer(&self, capacity_bytes: usize) -> Vec<u8> {
        Vec::with_capacity(capacity_bytes)
    }

    /// Returns a byte buffer (typically the payload bytes of a received
    /// [`Message`], via [`WireBuf::into_bytes`]) to the transport's pool
    /// for reuse by a later [`Transport::take_buffer`].
    ///
    /// The default drops it.
    fn recycle_buffer(&self, buf: Vec<u8>) {
        drop(buf);
    }

    /// Readies the pool for up to `messages` messages of up to `bytes` each
    /// that peers have sent and this endpoint has not yet received, all at
    /// once. A transport that reads ahead into pooled buffers (TCP's reader
    /// threads take one per frame) stocks its pool for that many, so that
    /// reaching the mark in some late collective takes no new buffer.
    ///
    /// The default does nothing: an unreceived message there holds no
    /// buffer of this endpoint's pool. Decorators forward it.
    fn reserve_receives(&self, messages: usize, bytes: usize) {
        let _ = (messages, bytes);
    }

    /// Reconfigures this endpoint **in place** for a resized world — after
    /// peer loss (shrink) or an admitted late joiner (grow) — and returns
    /// the [`WorldChange`] describing the rank/world transition.
    ///
    /// `survivors` optionally names the global (old-world) ranks that remain,
    /// in any order but including this endpoint's own rank; `None` asks the
    /// transport to discover the survivor set itself (e.g. `dear-net`'s TCP
    /// endpoint re-runs rendezvous at a bumped generation and takes whoever
    /// shows up within the resize window). After a successful call,
    /// [`Transport::rank`] and [`Transport::world_size`] report the new
    /// dense assignment and every neighbor-table-deriving algorithm (ring,
    /// RHD, tree, hierarchical) works unchanged on the resized world.
    ///
    /// # Errors
    ///
    /// Returns [`CollectiveError::Reconfigure`] when the transport does not
    /// support in-place resizing (the default), when the survivor set is
    /// invalid, or when the resize rendezvous fails (no quorum, timeout) —
    /// in which case the caller should fall back to a supervised restart.
    fn reconfigure(&mut self, survivors: Option<&[usize]>) -> Result<WorldChange, CollectiveError> {
        let _ = survivors;
        Err(CollectiveError::Reconfigure {
            reason: "this transport does not support in-place resize".to_string(),
        })
    }

    /// Validates a peer rank, shared by implementations.
    fn check_peer(&self, peer: usize) -> Result<(), CollectiveError> {
        if peer >= self.world_size() || peer == self.rank() {
            Err(CollectiveError::InvalidRank {
                rank: peer,
                world: self.world_size(),
            })
        } else {
            Ok(())
        }
    }
}

/// A boxed transport is the transport it holds: every method forwards, so
/// a runtime that stores its endpoint behind `Box<dyn Transport + Send>`
/// keeps every override (lending, the poll) of the concrete fabric.
impl<T: Transport + ?Sized> Transport for Box<T> {
    fn rank(&self) -> usize {
        (**self).rank()
    }

    fn world_size(&self) -> usize {
        (**self).world_size()
    }

    fn send(&self, to: usize, msg: Message) -> Result<(), CollectiveError> {
        (**self).send(to, msg)
    }

    unsafe fn lend_f32(&self, to: usize, src: &[f32]) -> Result<Option<Loan>, CollectiveError> {
        // SAFETY: the caller's contract, passed on unchanged.
        unsafe { (**self).lend_f32(to, src) }
    }

    fn recv(&self, from: usize) -> Result<Message, CollectiveError> {
        (**self).recv(from)
    }

    fn recv_parcel(&self, from: usize, wait: bool) -> Result<Option<Parcel>, CollectiveError> {
        (**self).recv_parcel(from, wait)
    }

    fn set_recv_timeout(&self, timeout: Option<Duration>) -> bool {
        (**self).set_recv_timeout(timeout)
    }

    fn take_buffer(&self, capacity_bytes: usize) -> Vec<u8> {
        (**self).take_buffer(capacity_bytes)
    }

    fn recycle_buffer(&self, buf: Vec<u8>) {
        (**self).recycle_buffer(buf);
    }

    fn reserve_receives(&self, messages: usize, bytes: usize) {
        (**self).reserve_receives(messages, bytes);
    }

    fn reconfigure(&mut self, survivors: Option<&[usize]>) -> Result<WorldChange, CollectiveError> {
        (**self).reconfigure(survivors)
    }

    fn check_peer(&self, peer: usize) -> Result<(), CollectiveError> {
        (**self).check_peer(peer)
    }
}

/// Buffers a [`BufferPool`] keeps.
const POOL_CAP: usize = 64;

/// Largest capacity a pooled buffer keeps. Sized to hold any sensible
/// message; together with [`POOL_CAP`] it bounds a pool at 256 MiB.
const POOL_MAX_BUF_BYTES: usize = 4 << 20;

/// The reusable wire-byte buffers behind [`Transport::take_buffer`] /
/// [`Transport::recycle_buffer`], one per endpoint on every fabric. Ring
/// rounds are symmetric (each received payload is recycled and each send
/// takes one out), so the pool reaches a steady state after the first round
/// and the data path stops allocating.
#[derive(Debug, Default)]
pub struct BufferPool {
    bufs: Mutex<Vec<Vec<u8>>>,
}

impl BufferPool {
    /// An empty buffer with room for `capacity_bytes`, reused if one is
    /// pooled: the most recently recycled buffer that already has the room,
    /// else the most recently recycled one, grown. So a small message's
    /// buffer is not regrown to a chunk while a chunk-sized one sits idle.
    #[must_use]
    pub fn take(&self, capacity_bytes: usize) -> Vec<u8> {
        let mut pool = self.bufs.lock().expect("buffer pool poisoned");
        let fits = pool
            .iter()
            .rposition(|buf| buf.capacity() >= capacity_bytes);
        match fits.map(|at| pool.remove(at)).or_else(|| pool.pop()) {
            Some(mut buf) => {
                buf.clear();
                buf.reserve(capacity_bytes);
                buf
            }
            None => Vec::with_capacity(capacity_bytes),
        }
    }

    /// Returns `buf` for reuse. A buffer grown past 4 MiB is shrunk first,
    /// so one outsized collective cannot pin its high-water allocation for
    /// the rest of the run; beyond 64 pooled buffers it is dropped.
    pub fn recycle(&self, mut buf: Vec<u8>) {
        if buf.capacity() == 0 {
            return;
        }
        if buf.capacity() > POOL_MAX_BUF_BYTES {
            buf.clear();
            buf.shrink_to(POOL_MAX_BUF_BYTES);
        }
        let mut pool = self.bufs.lock().expect("buffer pool poisoned");
        if pool.len() < POOL_CAP {
            pool.push(buf);
        }
    }
}

/// Spawns `world` threads, each with its [`LocalEndpoint`] of one shared
/// [`LocalFabric`], runs `f` on every rank, and returns the per-rank
/// results in rank order.
///
/// # Examples
///
/// ```
/// use dear_collectives::{ring_all_reduce, run_cluster, ReduceOp, Transport};
///
/// let results = run_cluster(4, |ep| {
///     let mut grad = vec![ep.rank() as f32; 8];
///     ring_all_reduce(&ep, &mut grad, ReduceOp::Sum).unwrap();
///     grad[0]
/// });
/// assert_eq!(results, vec![6.0; 4]); // 0+1+2+3
/// ```
///
/// # Panics
///
/// Panics if any rank's closure panics.
pub fn run_cluster<F, R>(world: usize, f: F) -> Vec<R>
where
    F: Fn(LocalEndpoint) -> R + Sync,
    R: Send,
{
    let eps = LocalFabric::create(world);
    std::thread::scope(|s| {
        let handles: Vec<_> = eps.into_iter().map(|ep| s.spawn(|| f(ep))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("cluster rank panicked"))
            .collect()
    })
}

/// The last stretch of a [`DelayFabric`] delivery wait, polled instead of
/// slept. `thread::sleep` returns late by a timer slack plus a wake-up, and
/// the receiver sends its next message only after that wake-up: an idle
/// link starts from *now*, so every late wake-up is time the emulated link
/// sits idle. A waiting thread therefore first sets its own timer slack to
/// 1 ns, which on the 2-vCPU reference host brings the overshoot of a
/// 0.5–2 ms sleep from p50 ≈ 59 µs / p90 63–67 µs to 8–10 / 12–19 µs while
/// two threads compute, and from 69–88 / 86–123 µs to 20–38 / 37–76 µs when
/// the CPUs are idle. This tail covers the loaded p90 with a margin; a late
/// idle wake-up still lands within ≈ 26 µs of the stamp, and none of 13
/// `delay2_wfbp` runs fell into the late mode. It costs at most this much
/// of one CPU per message.
const POLL_TAIL: Duration = Duration::from_micros(50);

/// The poll tail of a thread whose timer slack stays at the default 50 µs
/// (the `prctl` failed, or the target is not Linux). A slept wait then
/// overshoots by p90 86–210 µs on an idle host, depending on the session;
/// this covers it with a margin (at 150 µs one `delay2_wfbp` run in three
/// still fell into the late mode).
const DEFAULT_SLACK_TAIL: Duration = Duration::from_micros(250);

thread_local! {
    /// This thread's poll tail, chosen once, on its first delivery wait.
    static TAIL: Duration = if tighten_timer_slack() {
        POLL_TAIL
    } else {
        DEFAULT_SLACK_TAIL
    };
}

/// The shortest wait between two looks of a [`DelayFabric`] waiting
/// receive at its link, which otherwise waits the model's α: what a pure-β
/// model (α = 0) naps.
const MIN_NAP: Duration = Duration::from_micros(20);

/// Returns at `at`, never before it: sleeps to within this thread's poll
/// tail of it, then reads the clock in a spin loop.
fn wait_until(at: Instant) {
    let tail = TAIL.with(|&tail| tail);
    let ahead = at.saturating_duration_since(Instant::now());
    if let Some(sleep) = ahead.checked_sub(tail) {
        std::thread::sleep(sleep);
    }
    while Instant::now() < at {
        std::hint::spin_loop();
    }
}

/// Sets the calling thread's timer slack to 1 ns, so that its sleeps end
/// when asked instead of up to 50 µs later; returns whether it took.
#[cfg(target_os = "linux")]
fn tighten_timer_slack() -> bool {
    use std::ffi::{c_int, c_ulong};
    const PR_SET_TIMERSLACK: c_int = 29;
    extern "C" {
        fn prctl(option: c_int, ...) -> c_int;
    }
    // SAFETY: `PR_SET_TIMERSLACK` reads one unsigned long by value and
    // changes only the calling thread's timer slack; no memory is shared.
    unsafe { prctl(PR_SET_TIMERSLACK, 1 as c_ulong) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn tighten_timer_slack() -> bool {
    false
}

/// A transport decorator that injects α-β wall-clock delays, so that real
/// threaded runs show network-like behaviour (startup latency per message
/// plus per-byte serialization time).
///
/// Delays are modelled with a **per-destination link clock** and a
/// delivery timestamp instead of a sender-side sleep. `send` computes when
/// the link finishes serializing the message — `max(now, link busy-until) +
/// p2p(bytes)` — stamps that instant on the [`Message`], advances the link
/// clock, and forwards immediately without blocking. The **receiver's**
/// `recv` then waits until the stamp before handing the payload over.
///
/// `bytes` is the payload's **actual wire size**
/// ([`Message::wire_bytes`]), so a bf16 payload is charged half the β-cost
/// of the same element count in f32 — mixed-precision runs see their wire
/// saving in simulated time, exactly as the [`CostModel`] predicts.
///
/// The total per-hop cost is unchanged (every ring round still pays one
/// `p2p` delay, as in the [`CostModel`]), but because the sending thread is
/// never blocked, a message sent ahead — the next collective's first hop —
/// is serialized onto the link while the receiver is still reducing the
/// one before it. Both sides of a link must be wrapped for the delay to be
/// observed.
///
/// The wait is **sleep, then poll**. Until a message is queued, a waiting
/// `recv` polls the wrapped transport (`recv_parcel` without `wait`, which
/// the wrapped transport must answer) and sleeps the model's α between
/// looks: every stamp is due at least α after its send, so a look every α
/// finds a message before its stamp but for a sleep's overshoot. Then it
/// sleeps to within 50 µs of the stamp and reads the clock in a spin loop
/// for the rest, so a message is handed over at its stamp — never before
/// it, and not a scheduler wake-up after it. The receiving thread's first
/// wait sets its timer slack to 1 ns (Linux `prctl`), which is what makes a
/// tail that short enough; a thread whose slack cannot be set polls the
/// last 250 µs instead. Waiting thus costs little CPU, as a link served by
/// a NIC would.
///
/// A receive deadline ([`Transport::set_recv_timeout`], kept here and
/// forwarded to the wrapped transport) bounds the wait for a message to be
/// **queued**, not for its stamp: a message queued in time is handed over
/// at its stamp even when that falls past the deadline. Timing out there
/// would lose a message already taken off the link, or put it behind later
/// ones; and the overshoot is bounded by the model — at most the `p2p` time
/// of the bytes queued on the link ahead of it and its own.
#[derive(Debug)]
pub struct DelayFabric<T> {
    inner: T,
    model: CostModel,
    /// `busy_until[to]`: when the outgoing link to `to` finishes serializing
    /// the last message queued on it.
    busy_until: Mutex<Vec<Option<Instant>>>,
    /// `held[from]`: a message a poll took off the link before its stamp.
    /// It is the next one `from` delivers, to a later poll or `recv`.
    held: Mutex<Vec<Option<Message>>>,
    /// The receive deadline, as [`Transport::set_recv_timeout`] last set it.
    recv_timeout: Mutex<Option<Duration>>,
}

impl<T: Transport> DelayFabric<T> {
    /// Wraps `inner`, delaying each send per `model`.
    #[must_use]
    pub fn new(inner: T, model: CostModel) -> Self {
        let world = inner.world_size();
        DelayFabric {
            inner,
            model,
            busy_until: Mutex::new(vec![None; world]),
            held: Mutex::new((0..world).map(|_| None).collect()),
            recv_timeout: Mutex::new(None),
        }
    }

    /// The next message `from` has queued on the wrapped transport. With
    /// `wait`, looks every α (at least [`MIN_NAP`]) until one is queued or
    /// the receive deadline passes; without, looks once.
    fn queued(&self, from: usize, wait: bool) -> Result<Option<Parcel>, CollectiveError> {
        let parcel = self.inner.recv_parcel(from, false)?;
        if parcel.is_some() || !wait {
            return Ok(parcel);
        }
        let timeout = *self.recv_timeout.lock().expect("recv timeout poisoned");
        let deadline = timeout.map(|t| Instant::now() + t);
        let nap = Duration::from_nanos(self.model.alpha_ns as u64).max(MIN_NAP);
        loop {
            // With the timer slack the thread's first wait tightened.
            TAIL.with(|_| std::thread::sleep(nap));
            if let Some(parcel) = self.inner.recv_parcel(from, false)? {
                return Ok(Some(parcel));
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(CollectiveError::Timeout {
                    peer: from,
                    millis: timeout.expect("deadline implies timeout").as_millis() as u64,
                });
            }
        }
    }

    /// The underlying transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Consumes the decorator, returning the wrapped transport.
    pub fn into_inner(self) -> T {
        self.inner
    }
}

impl<T: Transport> Transport for DelayFabric<T> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn world_size(&self) -> usize {
        self.inner.world_size()
    }

    fn send(&self, to: usize, msg: Message) -> Result<(), CollectiveError> {
        self.check_peer(to)?;
        // Charge the link for the actual (dtype-dependent) wire bytes.
        let bytes = msg.wire_bytes() as u64;
        let wire = self.model.p2p(bytes).as_secs_f64();
        let wire = std::time::Duration::from_secs_f64(wire.max(0.0));
        let now = Instant::now();
        let ready = {
            let mut clocks = self.busy_until.lock().expect("link clock poisoned");
            let start = match clocks[to] {
                Some(t) if t > now => t,
                _ => now,
            };
            let ready = start + wire;
            clocks[to] = Some(ready);
            ready
        };
        self.inner.send(to, msg.with_deliver_at(ready))
    }

    fn recv(&self, from: usize) -> Result<Message, CollectiveError> {
        let parcel = self
            .recv_parcel(from, true)?
            .expect("a waiting receive returns a parcel");
        parcel.into_message(|bytes| self.inner.take_buffer(bytes), from)
    }

    /// Waits for a message's stamp; a poll instead holds back one still on
    /// the emulated wire, in its place on the link, until a later receive.
    fn recv_parcel(&self, from: usize, wait: bool) -> Result<Option<Parcel>, CollectiveError> {
        self.check_peer(from)?;
        let held = self.held.lock().expect("held messages poisoned")[from].take();
        let msg = match held {
            Some(msg) => msg,
            None => match self.queued(from, wait)? {
                Some(parcel) => parcel.into_message(|bytes| self.inner.take_buffer(bytes), from)?,
                None => return Ok(None),
            },
        };
        if let Some(at) = msg.deliver_at() {
            if wait {
                wait_until(at);
            } else if Instant::now() < at {
                self.held.lock().expect("held messages poisoned")[from] = Some(msg);
                return Ok(None);
            }
        }
        Ok(Some(Parcel::Message(msg.without_deliver_at())))
    }

    fn set_recv_timeout(&self, timeout: Option<Duration>) -> bool {
        *self.recv_timeout.lock().expect("recv timeout poisoned") = timeout;
        self.inner.set_recv_timeout(timeout);
        true
    }

    fn take_buffer(&self, capacity_bytes: usize) -> Vec<u8> {
        self.inner.take_buffer(capacity_bytes)
    }

    fn recycle_buffer(&self, buf: Vec<u8>) {
        self.inner.recycle_buffer(buf);
    }

    fn reserve_receives(&self, messages: usize, bytes: usize) {
        self.inner.reserve_receives(messages, bytes);
    }

    /// Forwards to the wrapped transport, then resets the per-link clocks
    /// for the resized world (old busy-until stamps belong to links that no
    /// longer exist under the dense renumbering).
    fn reconfigure(&mut self, survivors: Option<&[usize]>) -> Result<WorldChange, CollectiveError> {
        let change = self.inner.reconfigure(survivors)?;
        *self.busy_until.lock().expect("link clock poisoned") = vec![None; change.new_world];
        *self.held.lock().expect("held messages poisoned") =
            (0..change.new_world).map(|_| None).collect();
        Ok(change)
    }
}

/// A view of a transport restricted to a subgroup of ranks, used by
/// hierarchical algorithms (e.g. intra-node then inter-node rings).
///
/// Group members are given by their **global** ranks; the view renumbers
/// them densely `0..group_len` in the order supplied.
#[derive(Debug)]
pub struct GroupTransport<'a, T> {
    inner: &'a T,
    /// Global ranks of the group members, in group order.
    members: Arc<Vec<usize>>,
    /// This endpoint's rank within the group.
    group_rank: usize,
}

impl<'a, T: Transport> GroupTransport<'a, T> {
    /// Restricts `inner` to `members` (global ranks, deduplicated order).
    ///
    /// Returns `None` if `inner`'s rank is not a member.
    ///
    /// # Panics
    ///
    /// Panics if `members` contains an out-of-range or duplicate rank.
    #[must_use]
    pub fn new(inner: &'a T, members: Arc<Vec<usize>>) -> Option<Self> {
        let world = inner.world_size();
        let mut seen = vec![false; world];
        for &m in members.iter() {
            assert!(m < world, "group member {m} out of range (world {world})");
            assert!(!seen[m], "duplicate group member {m}");
            seen[m] = true;
        }
        let group_rank = members.iter().position(|&m| m == inner.rank())?;
        Some(GroupTransport {
            inner,
            members,
            group_rank,
        })
    }
}

impl<T: Transport> Transport for GroupTransport<'_, T> {
    fn rank(&self) -> usize {
        self.group_rank
    }

    fn world_size(&self) -> usize {
        self.members.len()
    }

    fn send(&self, to: usize, msg: Message) -> Result<(), CollectiveError> {
        self.check_peer(to)?;
        self.inner.send(self.members[to], msg)
    }

    unsafe fn lend_f32(&self, to: usize, src: &[f32]) -> Result<Option<Loan>, CollectiveError> {
        self.check_peer(to)?;
        // SAFETY: the caller's contract, passed on unchanged.
        unsafe { self.inner.lend_f32(self.members[to], src) }
    }

    fn recv(&self, from: usize) -> Result<Message, CollectiveError> {
        self.check_peer(from)?;
        self.inner.recv(self.members[from])
    }

    fn recv_parcel(&self, from: usize, wait: bool) -> Result<Option<Parcel>, CollectiveError> {
        self.check_peer(from)?;
        self.inner.recv_parcel(self.members[from], wait)
    }

    fn set_recv_timeout(&self, timeout: Option<Duration>) -> bool {
        self.inner.set_recv_timeout(timeout)
    }

    fn take_buffer(&self, capacity_bytes: usize) -> Vec<u8> {
        self.inner.take_buffer(capacity_bytes)
    }

    fn recycle_buffer(&self, buf: Vec<u8>) {
        self.inner.recycle_buffer(buf);
    }

    fn reserve_receives(&self, messages: usize, bytes: usize) {
        self.inner.reserve_receives(messages, bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::DType;

    #[test]
    fn delay_fabric_preserves_payloads_and_slows_delivery() {
        // Delay is observed at the receiver (deliver-at stamp), so both
        // sides of the link are wrapped, as in a real cluster.
        let mut eps = LocalFabric::create(2);
        let model = CostModel::new(2_000_000.0, 0.0, 0.0);
        let b = DelayFabric::new(eps.pop().unwrap(), model);
        let a = DelayFabric::new(eps.pop().unwrap(), model);
        let t0 = std::time::Instant::now();
        std::thread::scope(|s| {
            s.spawn(|| a.send(1, vec![3.0].into()).unwrap());
            s.spawn(|| assert_eq!(b.recv(0).unwrap(), vec![3.0]));
        });
        assert!(t0.elapsed() >= std::time::Duration::from_millis(2));
        assert_eq!(a.rank(), 0);
        assert_eq!(a.world_size(), 2);
    }

    #[test]
    fn delay_fabric_send_does_not_block_the_sender() {
        // The sender queues both messages immediately; the link clock
        // serializes them so the second arrives one wire-time later.
        let mut eps = LocalFabric::create(2);
        let model = CostModel::new(2_000_000.0, 0.0, 0.0); // 2 ms per message
        let b = DelayFabric::new(eps.pop().unwrap(), model);
        let a = DelayFabric::new(eps.pop().unwrap(), model);
        let t0 = std::time::Instant::now();
        a.send(1, vec![1.0].into()).unwrap();
        a.send(1, vec![2.0].into()).unwrap();
        let sender_elapsed = t0.elapsed();
        assert!(
            sender_elapsed < std::time::Duration::from_millis(2),
            "sender blocked for {sender_elapsed:?}"
        );
        assert_eq!(b.recv(0).unwrap(), vec![1.0]);
        assert_eq!(b.recv(0).unwrap(), vec![2.0]);
        // Two serialized messages: at least 2 × 2 ms of link time.
        assert!(t0.elapsed() >= std::time::Duration::from_millis(4));
    }

    #[test]
    fn delay_fabric_link_never_idles_between_sends_queued_back_to_back() {
        // The property cross-group send-ahead rests on. A message queued
        // while the link is still busy starts serializing the instant its
        // predecessor is done — delivery times differ by exactly its own
        // wire time. A message sent only after a receive has returned (the
        // one-op-at-a-time schedule: the receiver woke up late, then sent)
        // finds the link idle and starts from *now*: the gap is lost.
        let mut eps = LocalFabric::create(2);
        let model = CostModel::new(10_000_000.0, 50.0, 0.0); // 10 ms + 50 ns/B
        let b = DelayFabric::new(eps.pop().unwrap(), model);
        let a = DelayFabric::new(eps.pop().unwrap(), model);
        let wire = |elems: u64| Duration::from_secs_f64(model.p2p(4 * elems).as_secs_f64());
        a.send(1, vec![1.0; 256].into()).unwrap();
        a.send(1, vec![2.0; 1024].into()).unwrap();
        // The stamps, read below the receiving decorator (which would
        // serve the wait and clear them).
        let first = b.inner().recv(0).unwrap().deliver_at().unwrap();
        let second = b.inner().recv(0).unwrap().deliver_at().unwrap();
        assert_eq!(second - first, wire(1024), "the link idled between sends");
        // Now the sequential pattern: wait the message out, wake up a
        // little late, and only then send the next.
        a.send(1, vec![3.0; 256].into()).unwrap();
        let third = {
            let msg = b.inner().recv(0).unwrap();
            msg.deliver_at().unwrap()
        };
        std::thread::sleep(third.saturating_duration_since(Instant::now()));
        std::thread::sleep(Duration::from_micros(300)); // the late wake-up
        let before = Instant::now();
        a.send(1, vec![4.0; 256].into()).unwrap();
        let fourth = b.inner().recv(0).unwrap().deliver_at().unwrap();
        assert!(
            fourth >= before + wire(256),
            "a send on an idle link starts from now"
        );
        assert!(
            fourth - third >= wire(256) + Duration::from_micros(300),
            "the wake-up gap is time the link sat idle"
        );
    }

    /// The calling thread's timer slack in ns. `/proc/thread-self` lists no
    /// `timerslack_ns`, but `/proc/<tid>/` serves it for any thread, and a
    /// thread may read its own without privilege.
    #[cfg(target_os = "linux")]
    fn timer_slack_ns() -> u64 {
        let task = std::fs::read_link("/proc/thread-self").unwrap(); // <pid>/task/<tid>
        let tid = task.file_name().unwrap().to_str().unwrap();
        let slack = std::fs::read_to_string(format!("/proc/{tid}/timerslack_ns")).unwrap();
        slack.trim().parse().unwrap()
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn delay_fabric_tightens_the_timer_slack_of_the_waiting_thread_only() {
        let mut eps = LocalFabric::create(2);
        let model = CostModel::new(1_000_000.0, 0.0, 0.0); // 1 ms per message
        let b = DelayFabric::new(eps.pop().unwrap(), model);
        let a = DelayFabric::new(eps.pop().unwrap(), model);
        let inherited = timer_slack_ns(); // 50 000 on a default system
        a.send(1, vec![5.0].into()).unwrap();
        let (before, after) = std::thread::scope(|s| {
            s.spawn(|| {
                let before = timer_slack_ns();
                assert_eq!(b.recv(0).unwrap(), vec![5.0]);
                (before, timer_slack_ns())
            })
            .join()
            .unwrap()
        });
        assert_eq!(
            before, inherited,
            "a new thread inherits its creator's slack"
        );
        assert_eq!(after, 1, "a delivery wait sets its thread's slack to 1 ns");
        assert_eq!(
            timer_slack_ns(),
            inherited,
            "the sending thread never waited and keeps its slack"
        );
    }

    #[test]
    fn delay_fabric_deadline_bounds_the_queueing_not_the_stamp() {
        // A 60 ms link against a 5 ms deadline: the message is queued at
        // once, so the deadline is met, and it is handed over at its stamp.
        let mut eps = LocalFabric::create(2);
        let model = CostModel::new(60_000_000.0, 0.0, 0.0);
        let b = DelayFabric::new(eps.pop().unwrap(), model);
        let a = DelayFabric::new(eps.pop().unwrap(), model);
        assert!(b.set_recv_timeout(Some(Duration::from_millis(5))));
        let t0 = Instant::now();
        a.send(1, vec![8.0].into()).unwrap();
        assert_eq!(b.recv(0).unwrap(), vec![8.0]);
        assert!(t0.elapsed() >= Duration::from_millis(60));
        // With nothing queued, the same deadline fires.
        assert_eq!(
            b.recv(0).unwrap_err(),
            CollectiveError::Timeout { peer: 0, millis: 5 }
        );
    }

    #[test]
    fn delay_fabric_charges_actual_wire_bytes() {
        // Pure-β model: a bf16 payload must be delivered in half the link
        // time of the same element count in f32.
        let mut eps = LocalFabric::create(2);
        let beta_ns_per_byte = 10_000.0; // 10 µs/byte => 4 elems: f32 160 µs, bf16 80 µs
        let model = CostModel::new(0.0, beta_ns_per_byte, 0.0);
        let b = DelayFabric::new(eps.pop().unwrap(), model);
        let a = DelayFabric::new(eps.pop().unwrap(), model);
        let data = [1.0f32, 2.0, 3.0, 4.0];
        let t0 = Instant::now();
        a.send(1, Message::new(WireBuf::encode(&data, DType::Bf16)))
            .unwrap();
        let msg = b.recv(0).unwrap();
        let bf16_elapsed = t0.elapsed();
        assert_eq!(msg.payload().dtype(), DType::Bf16);
        assert_eq!(msg.wire_bytes(), 8);
        let t1 = Instant::now();
        a.send(1, Message::new(WireBuf::encode(&data, DType::F32)))
            .unwrap();
        let _ = b.recv(0).unwrap();
        let f32_elapsed = t1.elapsed();
        assert!(
            bf16_elapsed >= Duration::from_micros(80),
            "bf16 delivered in {bf16_elapsed:?}"
        );
        assert!(
            f32_elapsed >= Duration::from_micros(160),
            "f32 delivered in {f32_elapsed:?}"
        );
    }

    #[test]
    fn buffer_pool_reuses_bounds_and_decays() {
        let pool = BufferPool::default();
        // Reuse: the allocation comes back, cleared.
        let mut buf = pool.take(512);
        buf.extend_from_slice(&[1, 2, 3]);
        let (cap, ptr) = (buf.capacity(), buf.as_ptr());
        pool.recycle(buf);
        let again = pool.take(8);
        assert!(again.is_empty());
        assert_eq!((again.capacity(), again.as_ptr()), (cap, ptr));
        // Zero-capacity buffers are not worth a slot.
        pool.recycle(Vec::new());
        assert_eq!(pool.take(0).capacity(), 0);
        // Decay: an outsized buffer is shrunk on return instead of pinning
        // its high-water allocation, and still serves takes at any size.
        let mut big = pool.take(POOL_MAX_BUF_BYTES + (1 << 20));
        big.resize(POOL_MAX_BUF_BYTES + (1 << 20), 7);
        pool.recycle(big);
        let shrunk = pool.take(0);
        assert!(shrunk.is_empty());
        assert!(
            (1..=POOL_MAX_BUF_BYTES).contains(&shrunk.capacity()),
            "pool retained {} bytes",
            shrunk.capacity()
        );
        pool.recycle(shrunk);
        assert!(pool.take(POOL_MAX_BUF_BYTES + 1).capacity() > POOL_MAX_BUF_BYTES);
        // Bound: the pool keeps POOL_CAP buffers and drops the rest.
        for _ in 0..POOL_CAP + 8 {
            pool.recycle(Vec::with_capacity(16));
        }
        assert_eq!(pool.bufs.lock().unwrap().len(), POOL_CAP);
    }

    #[test]
    fn buffer_pool_takes_a_buffer_that_fits() {
        let pool = BufferPool::default();
        let chunk = 200 << 10;
        let big = Vec::<u8>::with_capacity(chunk);
        let (big_cap, big_ptr) = (big.capacity(), big.as_ptr());
        pool.recycle(big);
        pool.recycle(Vec::with_capacity(640));
        // The 640 B buffer is the last one in, but only the big one fits:
        // it comes back as it went in, no reallocation.
        let again = pool.take(chunk);
        assert_eq!((again.capacity(), again.as_ptr()), (big_cap, big_ptr));
        // The small one is still pooled and serves a small take.
        assert_eq!(pool.take(640).capacity(), 640);
        // With nothing big enough, the last buffer in is grown.
        pool.recycle(Vec::with_capacity(16));
        pool.recycle(Vec::with_capacity(32));
        assert!(pool.take(chunk).capacity() >= chunk);
        assert_eq!(pool.take(0).capacity(), 16);
    }

    #[test]
    fn wire_payload_roundtrip_without_stamp() {
        let msg = Message::from(vec![1.0, 2.0]);
        let payload = msg.into_wire_payload().unwrap();
        assert_eq!(payload.to_f32_vec(), vec![1.0, 2.0]);
    }

    #[test]
    fn wire_payload_rejects_stamped_message_as_typed_error() {
        // A stamped message at a serialization boundary is a composition
        // bug; release builds must refuse it, not silently drop the stamp.
        let msg = Message::from(vec![1.0]).with_deliver_at(Instant::now());
        let err = msg.into_wire_payload().unwrap_err();
        assert_eq!(err, CollectiveError::LocalStampOnWire);
    }

    #[test]
    fn group_transport_renumbers_ranks() {
        let eps = LocalFabric::create(4);
        let members = Arc::new(vec![1usize, 3]);
        let g1 = GroupTransport::new(&eps[1], Arc::clone(&members)).unwrap();
        let g3 = GroupTransport::new(&eps[3], Arc::clone(&members)).unwrap();
        assert_eq!(g1.rank(), 0);
        assert_eq!(g3.rank(), 1);
        assert_eq!(g1.world_size(), 2);
        std::thread::scope(|s| {
            s.spawn(|| g1.send(1, vec![5.0].into()).unwrap());
            s.spawn(|| assert_eq!(g3.recv(0).unwrap(), vec![5.0]));
        });
        // Non-member gets None.
        assert!(GroupTransport::new(&eps[0], members).is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate group member")]
    fn group_transport_rejects_duplicates() {
        let eps = LocalFabric::create(2);
        let _ = GroupTransport::new(&eps[0], Arc::new(vec![0, 0]));
    }

    #[test]
    fn reconfigure_flushes_stale_in_flight_messages() {
        let mut eps = LocalFabric::create(3);
        let dead = eps.remove(1);
        // Abandoned collectives left payloads queued between the survivors
        // in both directions — post-resize receives must never see them.
        eps[0].send(2, vec![66.6; 4].into()).unwrap();
        eps[1].send(0, vec![77.7; 4].into()).unwrap();
        drop(dead);
        let survivors = [0usize, 2];
        std::thread::scope(|s| {
            for ep in &mut eps {
                s.spawn(move || ep.reconfigure(Some(&survivors)).unwrap());
            }
        });
        // The first post-resize exchange sees fresh data only.
        std::thread::scope(|s| {
            let (a, b) = eps.split_at_mut(1);
            s.spawn(|| {
                a[0].send(1, vec![1.0].into()).unwrap();
                assert_eq!(a[0].recv(1).unwrap(), vec![2.0]);
            });
            s.spawn(|| {
                b[0].send(0, vec![2.0].into()).unwrap();
                assert_eq!(b[0].recv(0).unwrap(), vec![1.0]);
            });
        });
    }
}
