//! The in-process fabric: [`LocalFabric`], its [`LocalEndpoint`]s, and the
//! ring they are built on.

use std::cell::UnsafeCell;
use std::fmt;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::error::CollectiveError;
use crate::lease::{settle_backoff, AtomicCell, Lease, Liveness, Loan, Parcel};
use crate::transport::{BufferPool, Message, Transport, WorldChange, MIN_LINK_FRAMES};

/// A message as stored in a ring slot: what was sent (a [`Parcel`] in a
/// build) plus the sender's world generation (the in-process analog of the
/// TCP data frame's generation stamp).
pub(crate) struct Stamped<T> {
    pub(crate) generation: u64,
    pub(crate) msg: T,
}

/// The memory a [`SpscRing`]'s sequence protocol runs on: the `std` atomics
/// and an `UnsafeCell` in a build, instrumented ones under the interleaving
/// checker (`interleave`), which runs this same protocol code.
pub(crate) trait RingMem {
    /// A sequence word or cursor.
    type Word: AtomicCell<Value = usize>;
    /// A slot's payload cell.
    type Slot<T>: SlotCell<T>;
    /// A word holding `value`.
    fn word(value: usize) -> Self::Word;
}

/// A slot's payload cell, written and read only by whichever side the
/// slot's sequence word designates.
pub(crate) trait SlotCell<T> {
    /// An empty cell.
    fn empty() -> Self;
    /// Stores `value` in the empty cell.
    ///
    /// # Safety
    ///
    /// The caller owns the cell, and it is empty.
    unsafe fn put(&self, value: T);
    /// Reads the value in place.
    ///
    /// # Safety
    ///
    /// The caller owns the cell, and it is full.
    unsafe fn peek<R>(&self, read: impl FnOnce(&T) -> R) -> R;
    /// Moves the value out, leaving the cell empty.
    ///
    /// # Safety
    ///
    /// The caller owns the cell, and it is full.
    unsafe fn take(&self) -> T;
}

/// [`RingMem`] of a build.
pub(crate) struct StdMem;

impl RingMem for StdMem {
    type Word = AtomicUsize;
    type Slot<T> = UnsafeCell<MaybeUninit<T>>;

    fn word(value: usize) -> AtomicUsize {
        AtomicUsize::new(value)
    }
}

impl<T> SlotCell<T> for UnsafeCell<MaybeUninit<T>> {
    fn empty() -> Self {
        UnsafeCell::new(MaybeUninit::uninit())
    }

    unsafe fn put(&self, value: T) {
        // SAFETY: the caller owns the empty cell.
        unsafe { (*self.get()).write(value) };
    }

    unsafe fn peek<R>(&self, read: impl FnOnce(&T) -> R) -> R {
        // SAFETY: the caller owns the full cell.
        read(unsafe { (*self.get()).assume_init_ref() })
    }

    unsafe fn take(&self) -> T {
        // SAFETY: the caller owns the full cell and leaves it empty.
        unsafe { (*self.get()).assume_init_read() }
    }
}

/// One slot of a ring: a sequence word that hands ownership back and forth
/// between producer and consumer, and the payload cell it guards.
struct RingSlot<T, M: RingMem> {
    seq: M::Word,
    msg: M::Slot<T>,
}

/// A bounded single-producer / single-consumer queue.
///
/// Sequence-numbered slots: slot `i` is writable by the producer when
/// `seq == pos` (its turn `pos`, where `pos % cap == i`) and readable by
/// the consumer when `seq == pos + 1`. Producer and consumer each own one
/// cursor and never touch the other's, so the data path is wait-free on
/// both sides; the `produce`/`consume` mutexes only serialize *same-side*
/// aliasing (two threads misusing one endpoint), never sender against
/// receiver. The `Release` store of `seq` and the other side's `Acquire`
/// load of it order every access to the payload cell — and, for a lease
/// riding in it, the sender's writes to the lent chunk before the
/// receiver's reads.
pub(crate) struct SpscRing<T, M: RingMem = StdMem> {
    mask: usize,
    slots: Box<[RingSlot<T, M>]>,
    /// Producer cursor (next position to write).
    tail: M::Word,
    /// Consumer cursor (next position to read).
    head: M::Word,
    /// Serializes producers (one logical producer; misuse guard).
    produce: Mutex<()>,
    /// Serializes consumers (one logical consumer; misuse guard).
    consume: Mutex<()>,
}

// SAFETY: the sequence protocol makes every `msg` cell exclusively owned
// by whichever side `seq` currently designates, with Release/Acquire
// pairs ordering the hand-off; the side mutexes prevent intra-side races.
unsafe impl<T: Send, M: RingMem> Send for SpscRing<T, M> {}
unsafe impl<T: Send, M: RingMem> Sync for SpscRing<T, M> {}

impl<T, M: RingMem> SpscRing<T, M> {
    pub(crate) fn new(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(2);
        SpscRing {
            mask: cap - 1,
            slots: (0..cap)
                .map(|i| RingSlot {
                    seq: M::word(i),
                    msg: M::Slot::<T>::empty(),
                })
                .collect(),
            tail: M::word(0),
            head: M::word(0),
            produce: Mutex::new(()),
            consume: Mutex::new(()),
        }
    }

    /// Attempts to enqueue; gives `msg` back when the ring is full.
    pub(crate) fn try_push(&self, msg: T) -> Result<(), T> {
        let _own = self.produce.lock().expect("producer guard poisoned");
        let pos = self.tail.load(Ordering::Relaxed);
        let slot = &self.slots[pos & self.mask];
        if slot.seq.load(Ordering::Acquire) != pos {
            return Err(msg); // consumer has not freed this slot yet
        }
        // SAFETY: `seq == pos` means the producer owns the cell.
        unsafe { slot.msg.put(msg) };
        slot.seq.store(pos + 1, Ordering::Release);
        self.tail.store(pos + 1, Ordering::Relaxed);
        Ok(())
    }

    /// Dequeues the head message if `want` accepts it; `None` when the ring
    /// is empty or the head is kept. Lets a resize drain stop exactly at the
    /// first post-resize message without a second handshake.
    pub(crate) fn try_pop_if(&self, want: impl FnOnce(&T) -> bool) -> Option<T> {
        let _own = self.consume.lock().expect("consumer guard poisoned");
        let pos = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[pos & self.mask];
        if slot.seq.load(Ordering::Acquire) != pos + 1 {
            return None; // empty
        }
        // SAFETY: `seq == pos + 1` means the consumer owns the full cell;
        // the value is only moved out when the predicate accepts it.
        if !unsafe { slot.msg.peek(want) } {
            return None;
        }
        let msg = unsafe { slot.msg.take() };
        slot.seq.store(pos + self.mask + 1, Ordering::Release);
        self.head.store(pos + 1, Ordering::Relaxed);
        Some(msg)
    }

    pub(crate) fn try_pop(&self) -> Option<T> {
        self.try_pop_if(|_| true)
    }
}

impl<T, M: RingMem> SpscRing<Stamped<T>, M> {
    /// The resize drain: drops messages off the head up to the first one of
    /// `generation`, which stays, with everything behind it.
    pub(crate) fn drain_stale(&self, generation: u64) {
        while self.try_pop_if(|m| m.generation != generation).is_some() {}
    }
}

impl<T, M: RingMem> Drop for SpscRing<T, M> {
    fn drop(&mut self) {
        // Undelivered messages still own heap payloads, and a lease still
        // queued is discarded, so its sender's settle ends.
        while self.try_pop().is_some() {}
    }
}

/// How a [`LocalFabric`] is built, beyond who its members are.
/// [`LocalFabric::create`] uses [`FabricConfig::LOCAL`]; `dear-net`'s
/// `ShmFabric::with_config` maps its `NetConfig` onto one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricConfig {
    /// Messages a ring holds before `send` waits for the receiver; the
    /// fabric builds at least [`MIN_LINK_FRAMES`].
    pub frames: usize,
    /// How long a send waits on a full ring, and a resize at the gate.
    pub send_timeout: Duration,
    /// The receive deadline the endpoints start with
    /// ([`Transport::set_recv_timeout`]).
    pub recv_timeout: Option<Duration>,
    /// The heartbeat period of the failure detector; `None` turns it off.
    pub heartbeat_interval: Option<Duration>,
    /// Heartbeat periods a member may stay silent before a peer waiting on
    /// it declares it wedged.
    pub heartbeat_miss_budget: u32,
    /// The world generation the endpoints start at.
    pub generation: u64,
}

impl FabricConfig {
    /// What [`LocalFabric::create`] builds: 128-frame rings, a 30 s send
    /// deadline, no receive deadline, no failure detector, generation 0.
    pub const LOCAL: FabricConfig = FabricConfig {
        frames: 128,
        send_timeout: Duration::from_secs(30),
        recv_timeout: None,
        heartbeat_interval: None,
        heartbeat_miss_budget: 5,
        generation: 0,
    };
}

/// Per-member liveness state, written by the member (or its heartbeat
/// thread) and read by every peer blocked on it.
struct MemberState {
    /// Set by `Drop`: the member left gracefully, nothing more is coming.
    departed: AtomicBool,
    /// Nanoseconds since the fabric epoch of the member's last heartbeat
    /// (or data-path activity).
    last_beat_ns: AtomicU64,
}

/// The epoch gate a resize synchronizes on: a reusable barrier counted
/// over the *survivors* of each resize round.
struct GateState {
    epoch: u64,
    arrived: usize,
    expected: Option<usize>,
}

/// What the endpoints of one fabric share.
struct Rings {
    /// `rings[from][to]` carries messages between fabric slots; `None` on
    /// the diagonal.
    rings: Vec<Vec<Option<SpscRing<Stamped<Parcel>>>>>,
    members: Vec<MemberState>,
    gate: Mutex<GateState>,
    gate_cv: Condvar,
    /// Base instant for `last_beat_ns` timestamps.
    epoch: Instant,
    heartbeat_interval: Option<Duration>,
    heartbeat_miss_budget: u32,
}

impl Rings {
    fn ring(&self, from: usize, to: usize) -> &SpscRing<Stamped<Parcel>> {
        self.rings[from][to]
            .as_ref()
            .expect("off-diagonal ring exists")
    }

    fn nanos_since_epoch(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn beat(&self, slot: usize) {
        self.members[slot]
            .last_beat_ns
            .store(self.nanos_since_epoch(), Ordering::Relaxed);
    }

    fn departed(&self, slot: usize) -> bool {
        self.members[slot].departed.load(Ordering::Acquire)
    }

    /// Whether `slot` has been silent past the miss allowance (never true
    /// with the failure detector off).
    fn is_wedged(&self, slot: usize) -> bool {
        let Some(interval) = self.heartbeat_interval else {
            return false;
        };
        let allowance = interval * self.heartbeat_miss_budget.max(1);
        let last = self.members[slot].last_beat_ns.load(Ordering::Relaxed);
        self.nanos_since_epoch().saturating_sub(last) > allowance.as_nanos() as u64
    }
}

impl Liveness for Rings {
    /// A departed member drops nothing it was lent (its inbound rings live
    /// as long as the fabric), so a settle must not wait for it: departure
    /// is `Disconnected` and a stale heartbeat `Aborted`, as a receive from
    /// it would report.
    fn check(&self, slot: usize, peer: usize) -> Result<(), CollectiveError> {
        if self.departed(slot) {
            Err(CollectiveError::Disconnected { peer })
        } else if self.is_wedged(slot) {
            Err(CollectiveError::Aborted { peer })
        } else {
            Ok(())
        }
    }
}

/// The in-process fabric: one bounded ring per directed pair of ranks.
///
/// Ranks that share a process do not need a NIC between them: every
/// directed pair of them owns one **single-producer / single-consumer ring**
/// of sequence-numbered slots (the classic bounded-queue design). The sender
/// writes a slot and releases it by bumping the slot's sequence word, the
/// receiver acquires it by reading that word — the data path never takes a
/// lock shared between sender and receiver, so a hop costs a couple of
/// cache-line transfers. On the `f32` wire a slot carries a [`Lease`] on the
/// sender's chunk instead of a copy of it.
///
/// The fabric speaks the same protocol-level contract as `dear-net`'s TCP
/// endpoint:
///
/// - every message is stamped with the **world generation** at send time
///   and checked at receive time, so traffic from a previous incarnation of
///   a resized world surfaces as [`CollectiveError::StaleGeneration`]
///   instead of corrupting a collective;
/// - an endpoint that drops marks itself **departed**: its peers drain what
///   it sent before, then see [`CollectiveError::Disconnected`];
/// - an optional **heartbeat** thread per endpoint refreshes a liveness
///   timestamp; a receiver blocked on a peer whose timestamp goes stale for
///   the miss budget declares it wedged with [`CollectiveError::Aborted`];
/// - a resize survives member loss in place: survivors meet at an **epoch
///   gate** (a barrier counted over survivors only, so a dead member cannot
///   block it), drain every stale-generation message out of their rings,
///   and renumber.
///
/// [`LocalFabric::create`] builds a whole world with the heartbeat off;
/// `dear-net`'s `ShmFabric` builds one for the co-located ranks of a host
/// from its `NetConfig`, and its tiered endpoint composes that with a TCP
/// mesh between hosts.
///
/// # Examples
///
/// ```
/// use dear_collectives::{LocalFabric, Transport};
///
/// let mut eps = LocalFabric::create(2);
/// let b = eps.pop().unwrap();
/// let a = eps.pop().unwrap();
/// std::thread::scope(|s| {
///     s.spawn(|| a.send(1, vec![1.0, 2.0].into()).unwrap());
///     s.spawn(|| assert_eq!(b.recv(0).unwrap(), vec![1.0, 2.0]));
/// });
/// ```
#[derive(Debug)]
pub struct LocalFabric;

impl LocalFabric {
    /// Creates endpoints for `world` ranks, built as
    /// [`FabricConfig::LOCAL`] says; element `r` belongs to rank `r`.
    ///
    /// # Panics
    ///
    /// Panics if `world == 0`.
    #[must_use]
    pub fn create(world: usize) -> Vec<LocalEndpoint> {
        assert!(world > 0, "world size must be positive");
        let members: Vec<usize> = (0..world).collect();
        Self::with_config(world, &members, &FabricConfig::LOCAL)
    }

    /// Creates a fabric for the subset `members` (global ranks, strictly
    /// ascending) of a world of `world` ranks. Element `i` belongs to global
    /// rank `members[i]`.
    ///
    /// Endpoints reach only their fellow members; sends to other ranks
    /// return [`CollectiveError::InvalidRank`] (`dear-net`'s tiered
    /// endpoint routes those over TCP).
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty, unsorted, or lists a rank `>= world`,
    /// or if the heartbeat thread cannot be spawned.
    #[must_use]
    pub fn with_config(world: usize, members: &[usize], cfg: &FabricConfig) -> Vec<LocalEndpoint> {
        assert!(!members.is_empty(), "a fabric needs at least one member");
        assert!(
            members.windows(2).all(|w| w[0] < w[1]),
            "fabric members must be strictly ascending global ranks"
        );
        assert!(
            *members.last().expect("non-empty") < world,
            "fabric member out of range for world {world}"
        );
        let n = members.len();
        let capacity = cfg.frames.max(MIN_LINK_FRAMES);
        let rings = Arc::new(Rings {
            rings: (0..n)
                .map(|from| {
                    (0..n)
                        .map(|to| (from != to).then(|| SpscRing::new(capacity)))
                        .collect()
                })
                .collect(),
            members: (0..n)
                .map(|_| MemberState {
                    departed: AtomicBool::new(false),
                    last_beat_ns: AtomicU64::new(0),
                })
                .collect(),
            gate: Mutex::new(GateState {
                epoch: 0,
                arrived: 0,
                expected: None,
            }),
            gate_cv: Condvar::new(),
            epoch: Instant::now(),
            heartbeat_interval: cfg.heartbeat_interval,
            heartbeat_miss_budget: cfg.heartbeat_miss_budget,
        });
        let mut peer_slots = vec![None; world];
        for (s, &m) in members.iter().enumerate() {
            peer_slots[m] = Some(s);
        }
        members
            .iter()
            .enumerate()
            .map(|(slot, &rank)| {
                rings.beat(slot);
                LocalEndpoint {
                    heartbeat: cfg
                        .heartbeat_interval
                        .map(|interval| Heartbeat::spawn(&rings, slot, rank, interval)),
                    fabric: Arc::clone(&rings),
                    slot,
                    rank,
                    world,
                    generation: cfg.generation,
                    peer_slots: peer_slots.clone(),
                    send_timeout: cfg.send_timeout,
                    recv_timeout: Mutex::new(cfg.recv_timeout),
                    pool: BufferPool::default(),
                }
            })
            .collect()
    }
}

/// An endpoint's heartbeat thread: refreshes the member's liveness
/// timestamp until stopped.
struct Heartbeat {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Heartbeat {
    fn spawn(rings: &Arc<Rings>, slot: usize, rank: usize, interval: Duration) -> Heartbeat {
        let stop = Arc::new(AtomicBool::new(false));
        let (rings, halt) = (Arc::clone(rings), Arc::clone(&stop));
        let handle = std::thread::Builder::new()
            .name(format!("dear-shm-hb-r{rank}"))
            .spawn(move || {
                while !halt.load(Ordering::Relaxed) {
                    rings.beat(slot);
                    std::thread::sleep(interval.min(Duration::from_millis(200)));
                }
            })
            .expect("spawning the heartbeat thread");
        Heartbeat {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for Heartbeat {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// One rank's endpoint of a [`LocalFabric`], whose docs describe the design.
pub struct LocalEndpoint {
    fabric: Arc<Rings>,
    /// This endpoint's fabric slot (stable across resizes).
    slot: usize,
    /// This endpoint's **global** rank.
    rank: usize,
    /// The **global** world size (not the fabric's member count).
    world: usize,
    generation: u64,
    /// Global rank → fabric slot for fellow members; `None` elsewhere.
    peer_slots: Vec<Option<usize>>,
    send_timeout: Duration,
    recv_timeout: Mutex<Option<Duration>>,
    heartbeat: Option<Heartbeat>,
    pool: BufferPool,
}

impl fmt::Debug for LocalEndpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LocalEndpoint")
            .field("rank", &self.rank)
            .field("world", &self.world)
            .field("slot", &self.slot)
            .finish()
    }
}

impl LocalEndpoint {
    /// The world generation this endpoint currently runs at.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Whether `peer` (a global rank) is reachable over this fabric —
    /// i.e. a fellow member.
    #[must_use]
    pub fn is_local(&self, peer: usize) -> bool {
        self.peer_slots.get(peer).copied().flatten().is_some()
    }

    /// Stops this endpoint's heartbeat thread **without** marking it
    /// departed — to every peer the endpoint now looks wedged, exactly like
    /// a thread stuck in a syscall. Test hook for the failure detector; a
    /// real workload never calls this.
    #[doc(hidden)]
    pub fn stop_heartbeat(&mut self) {
        self.heartbeat = None; // Drop stops and joins the thread
    }

    fn slot_of(&self, peer: usize) -> Result<usize, CollectiveError> {
        self.check_peer(peer)?;
        self.peer_slots[peer].ok_or(CollectiveError::InvalidRank {
            rank: peer,
            world: self.world,
        })
    }

    /// Survives the loss of members in place, re-identifying the survivors:
    /// `pairs` maps each surviving member's **old** global rank to its
    /// **new** one (this endpoint included); `new_world` and
    /// `new_generation` come from whoever adjudicated the resize (the TCP
    /// rendezvous in a tiered deployment, [`Transport::reconfigure`] in a
    /// standalone fabric). New ranks need not follow old-rank order.
    ///
    /// Every listed survivor must call this concurrently: they meet at an
    /// epoch gate (dead members are not counted, so they cannot block it),
    /// and only then drain stale-generation messages from their rings —
    /// after the gate nobody can still be producing old-generation
    /// traffic, and the drain stops at the first new-generation message,
    /// so an early finisher's fresh sends are never discarded.
    ///
    /// # Errors
    ///
    /// Returns [`CollectiveError::Reconfigure`] when `pairs` omits this
    /// endpoint or names a rank off this fabric, when survivors disagree on
    /// the set, or when a listed survivor fails to reach the gate within
    /// the send deadline.
    pub fn remap(
        &mut self,
        new_world: usize,
        new_generation: u64,
        pairs: &[(usize, usize)],
    ) -> Result<WorldChange, CollectiveError> {
        let reconf = |reason: String| CollectiveError::Reconfigure { reason };
        let Some(&(_, own_new)) = pairs.iter().find(|&&(old, _)| old == self.rank) else {
            return Err(reconf(format!(
                "survivor pairs omit this endpoint's rank {}",
                self.rank
            )));
        };
        let mut peer_slots = vec![None; new_world];
        for &(old, new) in pairs {
            let Some(slot) = self.peer_slots.get(old).copied().flatten() else {
                return Err(reconf(format!(
                    "survivor pair maps rank {old}, which is not on this fabric"
                )));
            };
            if new >= new_world {
                return Err(reconf(format!(
                    "new rank {new} out of range for new world {new_world}"
                )));
            }
            peer_slots[new] = Some(slot);
        }
        self.gate(pairs.len()).map_err(reconf)?;
        // Post-gate: every survivor is past its last old-generation send,
        // so everything stale is already in the rings. Drain each inbound
        // ring — survivors' and dead members' alike — up to the first
        // message of the new generation.
        for from in (0..self.fabric.members.len()).filter(|&s| s != self.slot) {
            self.fabric
                .ring(from, self.slot)
                .drain_stale(new_generation);
        }
        let change = WorldChange {
            old_rank: self.rank,
            old_world: self.world,
            new_rank: own_new,
            new_world,
            generation: new_generation,
        };
        self.peer_slots = peer_slots;
        self.rank = own_new;
        self.world = new_world;
        self.generation = new_generation;
        Ok(change)
    }

    /// Meets the other `expected - 1` survivors at the fabric's epoch
    /// gate, bounded by the send deadline.
    fn gate(&self, expected: usize) -> Result<(), String> {
        let deadline = Instant::now() + self.send_timeout;
        let mut g = self.fabric.gate.lock().expect("gate poisoned");
        match g.expected {
            None => g.expected = Some(expected),
            Some(e) if e == expected => {}
            Some(e) => {
                return Err(format!(
                    "survivors disagree on the survivor count ({e} vs {expected})"
                ))
            }
        }
        g.arrived += 1;
        if g.arrived == expected {
            g.arrived = 0;
            g.expected = None;
            g.epoch += 1;
            self.fabric.gate_cv.notify_all();
            return Ok(());
        }
        let entry_epoch = g.epoch;
        while g.epoch == entry_epoch {
            let now = Instant::now();
            if now >= deadline {
                g.arrived -= 1;
                return Err(format!(
                    "resize gate timed out after {:?} waiting for survivors",
                    self.send_timeout
                ));
            }
            let (guard, _) = self
                .fabric
                .gate_cv
                .wait_timeout(g, deadline - now)
                .expect("gate poisoned");
            g = guard;
        }
        Ok(())
    }

    /// Queues `msg` on the ring to the validated peer `to` at fabric slot
    /// `slot`, waiting while the ring is full.
    fn push(&self, to: usize, slot: usize, msg: Parcel) -> Result<(), CollectiveError> {
        // A send is liveness too: a rank deep in a long compute phase
        // between heartbeats still proves itself the moment it talks.
        if self.heartbeat.is_some() {
            self.fabric.beat(self.slot);
        }
        let ring = self.fabric.ring(self.slot, slot);
        let mut msg = Stamped {
            generation: self.generation,
            msg,
        };
        let deadline = Instant::now() + self.send_timeout;
        let mut polls = 0u32;
        loop {
            match ring.try_push(msg) {
                Ok(()) => return Ok(()),
                Err(back) => msg = back,
            }
            // Full ring: the peer is not consuming. Distinguish departed
            // and wedged from slow.
            self.fabric.check(slot, to)?;
            if Instant::now() >= deadline {
                return Err(CollectiveError::Timeout {
                    peer: to,
                    millis: self.send_timeout.as_millis() as u64,
                });
            }
            settle_backoff(&mut polls);
        }
    }

    /// The parcel of a message popped from `from`'s ring, if it belongs to
    /// this generation.
    fn delivered(&self, from: usize, stamped: Stamped<Parcel>) -> Result<Parcel, CollectiveError> {
        if stamped.generation != self.generation {
            return Err(CollectiveError::StaleGeneration {
                peer: from,
                expected: self.generation,
                actual: stamped.generation,
            });
        }
        Ok(stamped.msg)
    }
}

impl Transport for LocalEndpoint {
    fn rank(&self) -> usize {
        self.rank
    }

    fn world_size(&self) -> usize {
        self.world
    }

    fn send(&self, to: usize, msg: Message) -> Result<(), CollectiveError> {
        let slot = self.slot_of(to)?;
        self.push(to, slot, Parcel::Message(msg))
    }

    /// Lends `src` to `to`: the peer's hop receive reduces from it in place.
    /// A settle gives up on the peer when it departs, when the failure
    /// detector finds it wedged, or after this endpoint's receive deadline.
    unsafe fn lend_f32(&self, to: usize, src: &[f32]) -> Result<Option<Loan>, CollectiveError> {
        let slot = self.slot_of(to)?;
        let timeout = *self.recv_timeout.lock().expect("recv timeout poisoned");
        let watch: Arc<dyn Liveness> = self.fabric.clone();
        // SAFETY: forwarded from the caller, who keeps `src` until the
        // loan settles.
        let (lease, loan) = unsafe { Lease::lend(src, to, timeout, Some((watch, slot))) };
        // A refused lease drops, unread, with the error.
        self.push(to, slot, Parcel::Lent(lease))?;
        Ok(Some(loan))
    }

    fn recv(&self, from: usize) -> Result<Message, CollectiveError> {
        let parcel = self
            .recv_parcel(from, true)?
            .expect("a waiting receive returns a parcel");
        parcel.into_message(|bytes| self.pool.take(bytes), from)
    }

    fn recv_parcel(&self, from: usize, wait: bool) -> Result<Option<Parcel>, CollectiveError> {
        let slot = self.slot_of(from)?;
        let ring = self.fabric.ring(slot, self.slot);
        let timeout = if wait {
            *self.recv_timeout.lock().expect("recv timeout poisoned")
        } else {
            None
        };
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut polls = 0u32;
        loop {
            if let Some(stamped) = ring.try_pop() {
                return self.delivered(from, stamped).map(Some);
            }
            // Empty ring: decide between waiting and failing, in the same
            // priority order as the TCP reader — graceful departure first,
            // then the failure detector's verdict, then the deadline.
            if let Err(gone) = self.fabric.check(slot, from) {
                // Re-check after the departure flag: messages sent before
                // the peer dropped are still deliverable.
                if let Some(stamped) = ring.try_pop() {
                    return self.delivered(from, stamped).map(Some);
                }
                return Err(gone);
            }
            if !wait {
                return Ok(None);
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(CollectiveError::Timeout {
                    peer: from,
                    millis: timeout.expect("deadline implies timeout").as_millis() as u64,
                });
            }
            settle_backoff(&mut polls);
        }
    }

    fn set_recv_timeout(&self, timeout: Option<Duration>) -> bool {
        *self.recv_timeout.lock().expect("recv timeout poisoned") = timeout;
        true
    }

    fn take_buffer(&self, capacity_bytes: usize) -> Vec<u8> {
        self.pool.take(capacity_bytes)
    }

    fn recycle_buffer(&self, buf: Vec<u8>) {
        self.pool.recycle(buf);
    }

    /// Shrinks a **whole-world** fabric to `survivors` (global ranks, this
    /// rank included), renumbering densely in ascending old-rank order and
    /// bumping the generation ([`LocalEndpoint::remap`]). The fabric has no
    /// rendezvous to discover survivors with, so they must be explicit
    /// (`None` is refused), and every survivor must call concurrently; a
    /// *dead* member never blocks the resize, because the epoch gate counts
    /// survivors only. Growing is refused — membership is fixed at
    /// creation.
    fn reconfigure(&mut self, survivors: Option<&[usize]>) -> Result<WorldChange, CollectiveError> {
        let Some(survivors) = survivors else {
            return Err(CollectiveError::Reconfigure {
                reason: "an in-process fabric cannot discover survivors; pass them explicitly"
                    .to_string(),
            });
        };
        let mut order: Vec<usize> = survivors.to_vec();
        order.sort_unstable();
        order.dedup();
        if order.len() != survivors.len() {
            return Err(CollectiveError::Reconfigure {
                reason: "survivor list contains duplicate ranks".to_string(),
            });
        }
        let pairs: Vec<(usize, usize)> = order.iter().enumerate().map(|(n, &o)| (o, n)).collect();
        self.remap(order.len(), self.generation + 1, &pairs)
    }
}

impl Drop for LocalEndpoint {
    fn drop(&mut self) {
        // Graceful departure: stop beating, then tell the peers. Peers
        // blocked on this rank drain any already-sent messages and then
        // see `Disconnected` (not `Aborted` — leaving is not failing).
        self.heartbeat = None;
        self.fabric.members[self.slot]
            .departed
            .store(true, Ordering::Release);
        // Nobody will read what is queued for this endpoint: drop it, so
        // the leases there are discarded now rather than with the fabric.
        // (A lease pushed after this drain is revoked by its sender's
        // settle, which sees the departure.)
        for from in (0..self.fabric.members.len()).filter(|&s| s != self.slot) {
            while self.fabric.ring(from, self.slot).try_pop().is_some() {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ring_all_reduce, ReduceOp};

    fn fast_cfg() -> FabricConfig {
        FabricConfig {
            send_timeout: Duration::from_millis(500),
            recv_timeout: Some(Duration::from_secs(5)),
            ..FabricConfig::LOCAL
        }
    }

    #[test]
    fn off_host_rank_is_invalid_not_a_hang() {
        // A fabric covering ranks {1, 3} of a world of 4: rank 2 is real
        // but lives elsewhere — the fabric must refuse it typed, so the
        // tiered router's misroute would be loud.
        let eps = LocalFabric::with_config(4, &[1, 3], &fast_cfg());
        assert_eq!(eps[0].rank(), 1);
        assert!(eps[0].is_local(3));
        assert!(!eps[0].is_local(2));
        assert!(matches!(
            eps[0].send(2, vec![1.0].into()).unwrap_err(),
            CollectiveError::InvalidRank { rank: 2, world: 4 }
        ));
    }

    #[test]
    fn full_ring_backpressure_times_out_against_a_stalled_peer() {
        let cfg = FabricConfig {
            frames: 0,
            ..fast_cfg()
        };
        let eps = LocalFabric::with_config(2, &[0, 1], &cfg);
        // Rank 1 never receives: after the ring (at its smallest capacity,
        // MIN_LINK_FRAMES) fills, sends must fail with Timeout, not block
        // forever.
        let mut sent = 0;
        let err = loop {
            match eps[0].send(1, vec![1.0; 4].into()) {
                Ok(()) => sent += 1,
                Err(e) => break e,
            }
            assert!(
                sent <= MIN_LINK_FRAMES,
                "ring accepted more than its capacity"
            );
        };
        assert!(matches!(err, CollectiveError::Timeout { peer: 1, .. }));
        assert_eq!(sent, MIN_LINK_FRAMES, "the floor is the ring's capacity");
    }

    #[test]
    fn wedged_peer_is_declared_dead_by_the_failure_detector() {
        let cfg = FabricConfig {
            heartbeat_interval: Some(Duration::from_millis(20)),
            heartbeat_miss_budget: 3,
            ..fast_cfg()
        };
        let mut eps = LocalFabric::with_config(2, &[0, 1], &cfg);
        let b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        // Rank 0 wedges: heartbeats stop but the endpoint is not dropped.
        a.stop_heartbeat();
        b.set_recv_timeout(Some(Duration::from_secs(5)));
        let start = Instant::now();
        let err = b.recv(0).unwrap_err();
        assert_eq!(err, CollectiveError::Aborted { peer: 0 });
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "detector took {:?}",
            start.elapsed()
        );
        drop(a);
    }

    #[test]
    fn stale_generation_messages_are_rejected() {
        // A sender still at generation 3 on a fabric at generation 4 — a
        // straggler from a previous incarnation of the world.
        let cfg = FabricConfig {
            generation: 4,
            ..fast_cfg()
        };
        let mut fresh = LocalFabric::with_config(2, &[0, 1], &cfg);
        let rx = fresh.pop().unwrap();
        let mut tx = fresh.pop().unwrap();
        tx.generation = 3;
        tx.send(1, vec![9.0].into()).unwrap();
        let err = rx.recv(0).unwrap_err();
        assert_eq!(
            err,
            CollectiveError::StaleGeneration {
                peer: 0,
                expected: 4,
                actual: 3
            }
        );
    }

    #[test]
    fn remap_applies_non_monotonic_rank_maps() {
        // A tiered resize can hand co-located survivors new ranks that are
        // NOT ascending in old rank (master election): old {1, 2} → new
        // {2, 0}. The fabric must follow the map, not assume order.
        let mut eps = LocalFabric::with_config(4, &[1, 2], &fast_cfg());
        let pairs = [(1usize, 2usize), (2usize, 0usize)];
        std::thread::scope(|s| {
            let handles: Vec<_> = eps
                .iter_mut()
                .map(|ep| s.spawn(move || ep.remap(3, 1, &pairs).unwrap()))
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        assert_eq!(eps[0].rank(), 2);
        assert_eq!(eps[1].rank(), 0);
        assert_eq!(eps[0].world_size(), 3);
        // The remapped pair still talks, under the new names.
        std::thread::scope(|s| {
            let (a, b) = eps.split_at_mut(1);
            s.spawn(|| a[0].send(0, vec![5.0].into()).unwrap());
            s.spawn(|| assert_eq!(b[0].recv(2).unwrap(), vec![5.0]));
        });
    }

    #[test]
    fn all_reduce_across_the_fabric_matches_the_analytic_sum() {
        let eps = LocalFabric::with_config(4, &[0, 1, 2, 3], &fast_cfg());
        std::thread::scope(|s| {
            for ep in &eps {
                s.spawn(move || {
                    let mut data = vec![ep.rank() as f32 + 1.0; 100];
                    ring_all_reduce(ep, &mut data, ReduceOp::Sum).unwrap();
                    assert_eq!(data, vec![10.0; 100]);
                });
            }
        });
    }
}
