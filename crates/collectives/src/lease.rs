//! Lent chunks: how an in-process fabric hands a hop's `f32` chunk to its
//! peer without copying it.
//!
//! On the `f32` wire a hop between two threads of one process does not need
//! the bytes in a buffer of their own: the receiver can reduce (or copy)
//! straight from the sender's chunk. The sender publishes a [`Lease`] — a
//! pointer, a length and one atomic state word — and keeps a [`Loan`], the
//! other end of the same word. The chunk must not be written or freed until
//! the loan is **settled**, and the state word says when that is:
//!
//! - the receiver moves it `PUBLISHED → TAKEN → RELEASED` around its read
//!   (`borrow`), or `PUBLISHED → DISCARDED` when the lease is dropped
//!   unread (`discard`: a queue dropped with its endpoint, a resize drain);
//! - the sender moves it `PUBLISHED → REVOKED` when it gives up on the
//!   receiver (`try_settle`: the peer departed or is wedged, the deadline
//!   passed, or the op was abandoned).
//!
//! One compare-exchange from `PUBLISHED` decides each lease's fate, so a
//! receiver never reads a revoked lease, and a settle that loses the race to
//! `TAKEN` waits for `RELEASED` — the receiver is reading right now — before
//! it lets the sender touch the chunk. `TAKEN → RELEASED` is a release store
//! and the settle's load acquires it, so every read of the chunk happens
//! before the sender's next write to it.
//!
//! The transitions are written once, generic over `AtomicCell`, so that
//! the crate's interleaving checker (`interleave`, a test module) runs this
//! very code under its own atomics and reports any two unordered accesses
//! to the chunk.

use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::CollectiveError;
use crate::transport::Message;
use crate::wire::{DType, WireBuf};

/// The atomic operations a lock-free protocol here is written against: the
/// `std` atomics in a build, an instrumented cell in a model checker.
pub(crate) trait AtomicCell {
    /// The value the cell holds.
    type Value: Copy + Eq;

    /// As [`AtomicUsize::load`].
    fn load(&self, order: Ordering) -> Self::Value;

    /// As [`AtomicUsize::store`].
    fn store(&self, value: Self::Value, order: Ordering);

    /// As [`AtomicUsize::compare_exchange`].
    ///
    /// # Errors
    ///
    /// The value found, when it was not `current`.
    fn compare_exchange(
        &self,
        current: Self::Value,
        new: Self::Value,
        success: Ordering,
        failure: Ordering,
    ) -> Result<Self::Value, Self::Value>;
}

macro_rules! std_atomic_cell {
    ($atomic:ty, $value:ty) => {
        impl AtomicCell for $atomic {
            type Value = $value;

            fn load(&self, order: Ordering) -> $value {
                <$atomic>::load(self, order)
            }

            fn store(&self, value: $value, order: Ordering) {
                <$atomic>::store(self, value, order);
            }

            fn compare_exchange(
                &self,
                current: $value,
                new: $value,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$value, $value> {
                <$atomic>::compare_exchange(self, current, new, success, failure)
            }
        }
    };
}

std_atomic_cell!(AtomicU8, u8);
std_atomic_cell!(AtomicUsize, usize);

/// The lease is out; nobody has decided its fate yet.
pub(crate) const PUBLISHED: u8 = 0;
/// The receiver is reading the chunk.
pub(crate) const TAKEN: u8 = 1;
/// The receiver has read the chunk and is done with it.
pub(crate) const RELEASED: u8 = 2;
/// The receiver dropped the lease unread.
pub(crate) const DISCARDED: u8 = 3;
/// The sender gave up on the receiver; the chunk is never read.
pub(crate) const REVOKED: u8 = 4;

/// The receiver's side: runs `read` on the lent chunk unless the sender has
/// revoked the lease (then `None`), and releases the lease after it — also
/// when `read` unwinds.
pub(crate) fn borrow<C: AtomicCell<Value = u8>, R>(
    state: &C,
    read: impl FnOnce() -> R,
) -> Option<R> {
    if state
        .compare_exchange(PUBLISHED, TAKEN, Ordering::Acquire, Ordering::Relaxed)
        .is_err()
    {
        return None;
    }
    struct Release<'a, C: AtomicCell<Value = u8>>(&'a C);
    impl<C: AtomicCell<Value = u8>> Drop for Release<'_, C> {
        fn drop(&mut self) {
            self.0.store(RELEASED, Ordering::Release);
        }
    }
    let _release = Release(state);
    Some(read())
}

/// The receiver's side of a lease dropped unread: settles it as
/// [`DISCARDED`], unless it was already read or revoked.
pub(crate) fn discard<C: AtomicCell<Value = u8>>(state: &C) {
    let _ = state.compare_exchange(PUBLISHED, DISCARDED, Ordering::Release, Ordering::Relaxed);
}

/// How a settle ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Settled {
    /// The receiver read the chunk.
    Released,
    /// The receiver dropped the lease unread.
    Discarded,
    /// The sender revoked the lease: nobody reads the chunk.
    Revoked,
}

/// One look at the sender's side of a lease: its fate once it is decided,
/// `None` while the receiver may still read the chunk. A lease nobody has
/// taken is revoked if `give_up` says so (asked only then); one the
/// receiver is reading stays undecided until it is released.
pub(crate) fn try_settle<C: AtomicCell<Value = u8>>(
    state: &C,
    give_up: impl FnOnce() -> bool,
) -> Option<Settled> {
    match state.load(Ordering::Acquire) {
        RELEASED => return Some(Settled::Released),
        DISCARDED => return Some(Settled::Discarded),
        _ => {}
    }
    if !give_up() {
        return None;
    }
    match state.compare_exchange(PUBLISHED, REVOKED, Ordering::Relaxed, Ordering::Acquire) {
        Ok(_) => Some(Settled::Revoked),
        Err(RELEASED) => Some(Settled::Released),
        Err(DISCARDED) => Some(Settled::Discarded),
        // TAKEN: the receiver is reading; its release decides.
        Err(_) => None,
    }
}

/// What a lending fabric tells a settle about the receiving end of a link.
pub(crate) trait Liveness: Send + Sync {
    /// `Err` once the endpoint at `slot` can no longer release what it was
    /// lent: [`CollectiveError::Disconnected`] when it departed,
    /// [`CollectiveError::Aborted`] when it is wedged — both naming `peer`.
    ///
    /// # Errors
    ///
    /// As above.
    fn check(&self, slot: usize, peer: usize) -> Result<(), CollectiveError>;
}

/// A chunk of `f32`s lent by an in-process sender: the receiver reads it
/// where it lies, then releases it. Dropping a lease unread releases it too
/// (as `DISCARDED`), so a queue that drops with its endpoint leaves no
/// sender waiting.
pub struct Lease {
    src: *const f32,
    len: usize,
    state: Arc<AtomicU8>,
}

// SAFETY: a lease is a read-only view of `f32`s whose sender keeps them
// allocated and unwritten until the state word says it may (see
// `Lease::lend`); handing it to the receiving thread is its purpose.
unsafe impl Send for Lease {}

impl std::fmt::Debug for Lease {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lease").field("len", &self.len).finish()
    }
}

impl Lease {
    /// Lends `src` to the peer the sending fabric numbers `peer`: returns
    /// the lease to queue for it and the loan the sender settles. A settle
    /// gives up on the peer after `timeout`, or as soon as `watch` (the
    /// fabric's liveness of the receiving slot) reports it gone.
    ///
    /// # Safety
    ///
    /// `src` must stay allocated, and no element of it may be written, until
    /// the loan is settled or dropped; the receiver reads it in place until
    /// then. Nothing that asserts exclusive access to those elements (a
    /// `&mut` covering them) may be made meanwhile either.
    pub(crate) unsafe fn lend(
        src: &[f32],
        peer: usize,
        timeout: Option<Duration>,
        watch: Option<(Arc<dyn Liveness>, usize)>,
    ) -> (Lease, Loan) {
        let state = Arc::new(AtomicU8::new(PUBLISHED));
        let lease = Lease {
            src: src.as_ptr(),
            len: src.len(),
            state: Arc::clone(&state),
        };
        let loan = Loan {
            state: Some(state),
            peer,
            timeout,
            watch,
            polled_since: None,
        };
        (lease, loan)
    }

    /// Elements in the lent chunk.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the lent chunk is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Runs `read` on the lent chunk and releases the lease; `None` if the
    /// sender revoked it first.
    pub fn read<R>(self, read: impl FnOnce(&[f32]) -> R) -> Option<R> {
        borrow(&*self.state, || {
            // SAFETY: the lease is TAKEN while `read` runs, and the sender
            // neither writes nor frees the chunk until it sees it RELEASED
            // (`Lease::lend`'s contract).
            read(unsafe { std::slice::from_raw_parts(self.src, self.len) })
        })
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        discard(&*self.state);
    }
}

/// The sender's side of a [`Lease`]: settled before the lent chunk is
/// written or freed. [`Loan::settle`] waits for the receiver, bounded as a
/// receive from it would be; dropping an unsettled loan abandons it — it
/// revokes the lease unless the receiver is reading it, and then waits for
/// that read to end.
#[must_use = "the lent chunk must not be written or freed before the loan is settled"]
pub struct Loan {
    /// `None` once settled.
    state: Option<Arc<AtomicU8>>,
    peer: usize,
    timeout: Option<Duration>,
    watch: Option<(Arc<dyn Liveness>, usize)>,
    /// When [`Loan::poll`] first found the lease undecided: its deadline
    /// runs from there.
    polled_since: Option<Instant>,
}

impl std::fmt::Debug for Loan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Loan")
            .field("peer", &self.peer)
            .field("settled", &self.state.is_none())
            .finish()
    }
}

/// Looks that spin before they yield: a peer already in its send (or, for a
/// settle, mid-read of the lease) gets there within a few hundred looks,
/// and spinning is short enough not to burn a core against a slow one.
const BACKOFF_SPINS: u32 = 256;

/// Looks that then yield before they sleep. On an oversubscribed host (more
/// rank threads than cores) the peer cannot progress while this thread
/// spins, and a sleep would quantize every hop to the sleep period:
/// yielding hands the core straight to the peer instead, which is what
/// makes a small message over shm beat the socket path.
const BACKOFF_YIELDS: u32 = 4096;

/// The wait between looks once both budgets are spent (the peer is
/// genuinely slow, not merely descheduled). Coarse checks of liveness and
/// deadlines between looks happen at this granularity.
const BACKOFF_SLEEP: Duration = Duration::from_micros(50);

/// One wait between two looks at what a peer thread will change — a lease
/// to settle, an shm ring to pop or push — `polls` of them so far (counted
/// here): a spin, then a yield, then a short sleep. Reset `polls` to 0 when
/// the waiter made progress elsewhere.
pub fn settle_backoff(polls: &mut u32) {
    *polls = polls.saturating_add(1);
    if *polls < BACKOFF_SPINS {
        std::hint::spin_loop();
    } else if *polls < BACKOFF_SPINS + BACKOFF_YIELDS {
        std::thread::yield_now();
    } else {
        std::thread::sleep(BACKOFF_SLEEP);
    }
}

impl Loan {
    /// Waits until the receiver has read the chunk: [`Loan::poll`] until it
    /// is decided, on the [`settle_backoff`] ladder. Afterwards the chunk is
    /// the sender's to write or free, whatever the result.
    ///
    /// # Errors
    ///
    /// [`CollectiveError::Disconnected`] if the receiver dropped the lease
    /// unread or departed, [`CollectiveError::Aborted`] if it is wedged, and
    /// [`CollectiveError::Timeout`] if it has not taken the lease within the
    /// sending endpoint's receive deadline, counted from the first look
    /// that found it undecided; in the last two cases the lease is revoked.
    pub fn settle(mut self) -> Result<(), CollectiveError> {
        let mut polls = 0u32;
        while !self.poll()? {
            settle_backoff(&mut polls);
        }
        Ok(())
    }

    /// [`Loan::settle`] without the wait: `Ok(true)` once the receiver has
    /// read the chunk (the chunk is then the sender's again), `Ok(false)`
    /// while it may still read it. The deadline runs from the first poll
    /// that finds the lease undecided.
    ///
    /// # Errors
    ///
    /// As [`Loan::settle`]; the chunk is the sender's again then too, and
    /// every later poll returns `Ok(true)`.
    pub fn poll(&mut self) -> Result<bool, CollectiveError> {
        let since = *self.polled_since.get_or_insert_with(Instant::now);
        match self.look(false, since) {
            Some(settled) => settled.map(|()| true),
            None => Ok(self.state.is_none()),
        }
    }

    /// One look at the lease ([`try_settle`]), giving up when the loan is
    /// `abandon`ed, the fabric reports the peer gone, or the deadline
    /// counted from `since` has passed. `None` while undecided (or if the
    /// loan was settled before); once decided the loan is settled.
    fn look(&mut self, abandon: bool, since: Instant) -> Option<Result<(), CollectiveError>> {
        let state = self.state.as_ref()?;
        let peer = self.peer;
        let mut reason = None;
        let give_up = || {
            reason = if abandon {
                Some(CollectiveError::Aborted { peer })
            } else if let Some(Err(e)) = self.watch.as_ref().map(|(w, slot)| w.check(*slot, peer)) {
                Some(e)
            } else {
                self.timeout
                    .filter(|&t| since.elapsed() >= t)
                    .map(|t| CollectiveError::Timeout {
                        peer,
                        millis: t.as_millis() as u64,
                    })
            };
            reason.is_some()
        };
        let settled = try_settle(&**state, give_up)?;
        self.state = None;
        Some(match settled {
            Settled::Released => Ok(()),
            Settled::Discarded => Err(CollectiveError::Disconnected { peer }),
            Settled::Revoked => Err(reason.expect("a revoke has a reason")),
        })
    }
}

impl Drop for Loan {
    /// Revokes the lease unless the receiver is reading it, and then waits
    /// for that read to end.
    fn drop(&mut self) {
        let since = Instant::now();
        while self.state.is_some() {
            if self.look(true, since).is_none() {
                std::thread::yield_now();
            }
        }
    }
}

/// What a hop receive takes off a link: a message that owns its payload, or
/// a chunk an in-process sender lent ([`crate::Transport::recv_parcel`]).
#[derive(Debug)]
pub enum Parcel {
    /// A payload of its own.
    Message(Message),
    /// The sender's chunk, read in place.
    Lent(Lease),
}

impl Parcel {
    /// The parcel as a message that owns its payload: a lease is copied into
    /// a buffer from `take` and released at once.
    ///
    /// # Errors
    ///
    /// [`CollectiveError::Aborted`] naming `peer` if the lease was revoked.
    pub fn into_message(
        self,
        take: impl FnOnce(usize) -> Vec<u8>,
        peer: usize,
    ) -> Result<Message, CollectiveError> {
        match self {
            Parcel::Message(msg) => Ok(msg),
            Parcel::Lent(lease) => {
                let bytes = take(lease.len() * DType::F32.size_bytes());
                lease
                    .read(|src| WireBuf::encode_into(src, DType::F32, bytes).into())
                    .ok_or(CollectiveError::Aborted { peer })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lent(src: &[f32]) -> (Lease, Loan) {
        // SAFETY: every test settles or drops the loan before `src` goes.
        unsafe { Lease::lend(src, 1, None, None) }
    }

    #[test]
    fn a_read_lease_settles_released() {
        let src = [1.0f32, f32::from_bits(0x7FC0_0001), -0.0];
        let (lease, loan) = lent(&src);
        let bits: Vec<u32> = lease
            .read(|s| s.iter().map(|x| x.to_bits()).collect())
            .unwrap();
        assert_eq!(bits, src.map(f32::to_bits));
        assert_eq!(loan.settle(), Ok(()));
    }

    #[test]
    fn a_lease_dropped_unread_settles_as_a_departed_peer() {
        let src = [2.0f32; 4];
        let (lease, loan) = lent(&src);
        drop(lease);
        assert_eq!(
            loan.settle(),
            Err(CollectiveError::Disconnected { peer: 1 })
        );
    }

    #[test]
    fn an_abandoned_loan_revokes_an_untaken_lease() {
        let src = [3.0f32; 4];
        let (lease, loan) = lent(&src);
        drop(loan);
        assert_eq!(lease.read(|_| ()), None, "a revoked lease is never read");
    }

    #[test]
    fn a_settle_past_its_deadline_revokes() {
        let src = [4.0f32; 2];
        // SAFETY: the loan is settled before `src` goes.
        let (lease, loan) = unsafe { Lease::lend(&src, 7, Some(Duration::from_millis(5)), None) };
        assert_eq!(
            loan.settle(),
            Err(CollectiveError::Timeout { peer: 7, millis: 5 })
        );
        assert_eq!(lease.read(|_| ()), None, "a revoked lease is never read");
    }

    #[test]
    fn a_reader_that_unwinds_still_releases() {
        let src = [5.0f32; 2];
        let (lease, loan) = lent(&src);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            lease.read(|_| panic!("the reduction failed"))
        }));
        assert!(unwound.is_err());
        assert_eq!(loan.settle(), Ok(()));
    }

    #[test]
    fn a_settle_waits_for_a_read_in_progress() {
        let src = vec![6.0f32; 1024];
        let (lease, loan) = lent(&src);
        let reading = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                lease.read(|chunk| {
                    reading.wait();
                    std::thread::sleep(Duration::from_millis(20));
                    chunk.iter().sum::<f32>()
                })
            });
            reading.wait();
            // TAKEN: dropping the loan cannot revoke, so it waits out the read.
            let start = Instant::now();
            drop(loan);
            assert!(start.elapsed() >= Duration::from_millis(10));
        });
    }
}
