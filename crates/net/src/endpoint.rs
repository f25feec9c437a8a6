//! `TcpEndpoint` — the real-socket implementation of
//! [`Transport`], plus the rendezvous protocol that assembles a full mesh
//! of peer connections before step 0.
//!
//! # Topology and rendezvous
//!
//! Every rank owns one TCP listener. Rank 0's listener doubles as the
//! rendezvous master at `MASTER_ADDR`:
//!
//! 1. every worker connects to the master (retrying with exponential
//!    backoff while the master is still starting) and sends `HELLO` with
//!    its own listener address;
//! 2. the master waits for `world − 1` HELLOs, assigns ranks (explicit
//!    ranks are honoured, the rest are filled in arrival order), and
//!    answers each worker with `WELCOME` carrying the full peer table. The
//!    HELLO connection is kept — it *is* the mesh link between that worker
//!    and rank 0;
//! 3. each rank `r` dials ranks `1..r` (first frame: `IDENT r`) and
//!    accepts ranks `r+1..world`, so every pair shares exactly one
//!    connection — connects succeed before the peer calls `accept` thanks
//!    to the listen backlog, so no ordering deadlock exists;
//! 4. every worker sends `READY` to rank 0 once its mesh is complete;
//!    rank 0 answers `GO` to all — the pre-step-0 barrier.
//!
//! # Data path
//!
//! A link has one thread and one queue, both on the receiving side: per
//! peer, a **reader thread** drains the socket into that peer's unbounded
//! inbox (so [`Transport::recv`] stays ordered per peer) whatever the
//! thread that calls `recv` is doing. That is what lets
//! [`Transport::send`] write its frame on the calling thread: it takes the
//! peer's link lock, puts the whole frame on the socket in one vectored
//! write and returns — it can wait for the peer's reader, bounded by the
//! socket's `SO_SNDTIMEO` ([`NetConfig::send_timeout`]), never for the
//! peer's `recv`. A link's depth is the kernel's socket buffers plus the
//! peer's inbox. Payload buffers come from a shared pool
//! ([`Transport::take_buffer`] / [`Transport::recycle_buffer`]), so the
//! steady-state hot path is allocation-free on both sides of the socket.
//!
//! Failures never hang: sends and receives carry configurable deadlines
//! surfacing as [`CollectiveError::Timeout`], a dead peer surfaces as
//! [`CollectiveError::Disconnected`], and dropping the endpoint sends
//! shutdown frames, closes the sockets, and joins every thread. A write
//! that fails or times out may have torn its frame, so it closes the
//! socket: the link is latched dead, later sends fail at once, and the
//! reader stops, so `recv` reports `Disconnected` once the inbox is
//! drained.
//!
//! # Failure detection and world generations
//!
//! When [`NetConfig::heartbeat_interval`] is set, a **monitor thread**
//! writes a heartbeat frame to every peer each interval — skipping a link
//! whose lock is held, since a data frame going out is liveness by itself —
//! and watches frame arrival times (any frame counts as liveness, so busy
//! data links need no heartbeats). A peer silent for
//! `heartbeat_miss_budget` consecutive intervals — without having sent a
//! graceful shutdown — is declared dead: the monitor records the verdict
//! and force-closes every socket, so all blocked sends and receives fail
//! fast with [`CollectiveError::Aborted`] instead of each waiting out its
//! own deadline.
//!
//! Every data frame is stamped with the world **generation** (the elastic
//! launcher's restart counter, [`NetConfig::generation`]). The rendezvous
//! rejects joins from a different generation, and the readers reject
//! mismatched data frames with [`CollectiveError::StaleGeneration`] —
//! traffic from a previous incarnation of a restarted world can never
//! corrupt a live collective.

use std::fmt;
use std::io::{self, BufReader, Read};
use std::net::{IpAddr, Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dear_collectives::{
    BufferPool, CollectiveError, Loan, Message, Parcel, Transport, WireBuf, WorldChange,
};
use dear_core::trace;

use crate::config::{NetConfig, NetError};
#[cfg(target_endian = "little")]
use crate::frame::write_f32_data_frame;
use crate::frame::{
    decode_generation, decode_ident, encode_generation, encode_ident, read_frame,
    read_frame_header, write_data_frame, write_frame, FrameKind, Hello, Welcome,
    DATA_BODY_OVERHEAD, MAX_FRAME_BYTES,
};

/// Bytes of frame overhead per wire frame (the 5-byte header), widened for
/// traffic-counter arithmetic.
const FRAME_HEADER_BYTES: u64 = crate::frame::FRAME_HEADER_BYTES as u64;

/// Per-peer traffic counters, bumped lock-free by the reader threads, the
/// send path and the monitor. Snapshot via [`TcpEndpoint::stats`].
#[derive(Default)]
struct PeerCounters {
    bytes_sent: AtomicU64,
    bytes_recv: AtomicU64,
}

/// A snapshot of one peer link's traffic from [`TcpEndpoint::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerStats {
    /// The remote rank.
    pub peer: usize,
    /// Wire bytes written to this peer (headers included).
    pub bytes_sent: u64,
    /// Wire bytes read from this peer (headers included).
    pub bytes_recv: u64,
}

/// The wire size of a data body carrying `wire_bytes` of encoded payload
/// (generation stamp + dtype tag + element bytes), when it exceeds the
/// frame limit. Byte-denominated: a bf16 payload can carry twice the
/// elements of an f32 payload before hitting the limit.
fn oversize_bytes(wire_bytes: usize) -> Option<u64> {
    let bytes = DATA_BODY_OVERHEAD as u64 + wire_bytes as u64;
    (bytes > MAX_FRAME_BYTES as u64).then_some(bytes)
}

/// The sending side of one peer connection, shared by [`Transport::send`],
/// the heartbeat monitor and `teardown`.
struct Link {
    /// Held for exactly one whole frame, so frames of different writers
    /// never interleave on the wire.
    writer: Mutex<TcpStream>,
    /// The same socket outside the lock: lets the monitor close it under a
    /// writer blocked on a wedged peer.
    closer: TcpStream,
}

/// Passes a frame write's result through, closing the socket first if it
/// failed: a failed or timed-out write may have put part of a frame on the
/// wire, and nothing may follow a torn frame. With the socket closed the
/// link is latched dead — the reader sees end of stream and later writes
/// fail at once.
fn latch_on_error<T>(stream: &TcpStream, wrote: io::Result<T>) -> io::Result<T> {
    if wrote.is_err() {
        let _ = stream.shutdown(Shutdown::Both);
    }
    wrote
}

/// Liveness bookkeeping shared by the reader threads, the heartbeat
/// monitor, and the send/recv error paths.
struct Health {
    inner: Mutex<HealthInner>,
}

struct HealthInner {
    /// When each peer was last heard from (any frame). Indexed by rank;
    /// the own-rank slot is unused.
    last_seen: Vec<Instant>,
    /// Peers that sent a graceful shutdown — gone, but not failed; exempt
    /// from death detection.
    departed: Vec<bool>,
    /// Set once by the monitor when a peer misses its heartbeat budget;
    /// the whole endpoint is torn down at that point.
    aborted: Option<usize>,
    /// Per-peer generation-mismatch verdicts: `stale[p]` holds the first
    /// foreign generation seen from peer `p`. A map rather than a single
    /// slot because resize churn can produce stale frames from several
    /// old-incarnation peers at once — each must keep its own verdict so
    /// every affected channel reports [`CollectiveError::StaleGeneration`]
    /// deterministically instead of only the first one observed.
    stale: Vec<Option<u64>>,
}

impl Health {
    fn new(world: usize) -> Self {
        Health {
            inner: Mutex::new(HealthInner {
                last_seen: vec![Instant::now(); world],
                departed: vec![false; world],
                aborted: None,
                stale: vec![None; world],
            }),
        }
    }

    fn saw(&self, peer: usize) {
        self.inner.lock().expect("health poisoned").last_seen[peer] = Instant::now();
    }

    fn mark_departed(&self, peer: usize) {
        let mut h = self.inner.lock().expect("health poisoned");
        h.departed[peer] = true;
        h.last_seen[peer] = Instant::now();
    }

    /// Records the first foreign generation seen from `peer` (later
    /// mismatches from the same peer keep the original verdict).
    fn mark_stale(&self, peer: usize, actual: u64) {
        let mut h = self.inner.lock().expect("health poisoned");
        if h.stale[peer].is_none() {
            h.stale[peer] = Some(actual);
        }
    }
}

/// One rank's endpoint of a TCP cluster. See the [module docs](self) for
/// the protocol; see [`crate::tcp_loopback`] for a single-process
/// multi-thread variant used by tests and benches.
pub struct TcpEndpoint {
    rank: usize,
    world: usize,
    generation: u64,
    send_timeout: Duration,
    recv_timeout: Mutex<Option<Duration>>,
    /// `links[p]` writes to peer `p`. `None` at own rank.
    links: Arc<Vec<Option<Link>>>,
    /// `inboxes[p]` is fed by peer `p`'s reader thread. `None` at own rank.
    inboxes: Vec<Option<Mutex<Receiver<WireBuf>>>>,
    pool: Arc<BufferPool>,
    health: Arc<Health>,
    counters: Arc<Vec<PeerCounters>>,
    readers: Vec<JoinHandle<()>>,
    /// The heartbeat monitor: a stop channel plus its join handle.
    monitor: Option<(mpsc::Sender<()>, JoinHandle<()>)>,
    /// Host placement and previous-generation identity tables from the
    /// WELCOME; see [`TcpEndpoint::host_ids`] / [`TcpEndpoint::prev_ranks`].
    tables: MeshTables,
    /// The configuration this endpoint was built from, with rank, world,
    /// generation, and master address kept current across in-place
    /// resizes — the seed for the next resize rendezvous.
    cfg: NetConfig,
}

/// The placement tables the master publishes in every WELCOME: which
/// physical host each rank lives on, and which rank each one held in the
/// previous generation (identity at the initial rendezvous, `u32::MAX` for
/// fresh joiners). Both indexed by (current) rank.
#[derive(Debug, Clone, PartialEq, Eq)]
struct MeshTables {
    host_ids: Vec<u64>,
    prev_ranks: Vec<u32>,
}

impl MeshTables {
    /// Tables for a fresh world where nobody declared a host: every rank
    /// on its own pseudo-host, prev rank = own rank.
    fn pseudo(world: usize) -> MeshTables {
        MeshTables {
            host_ids: (0..world).map(pseudo_host).collect(),
            prev_ranks: (0..world).map(|r| r as u32).collect(),
        }
    }
}

/// The unique pseudo-host the master assigns a rank that declared no
/// [`NetConfig::host_id`]. Distinct from [`NetConfig::UNKNOWN_HOST`] (the
/// wire sentinel) for every rank, so "unknown" never reads as co-located —
/// with anyone, or with the sentinel itself.
fn pseudo_host(rank: usize) -> u64 {
    u64::MAX - 1 - rank as u64
}

impl fmt::Debug for TcpEndpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TcpEndpoint")
            .field("rank", &self.rank)
            .field("world", &self.world)
            .finish()
    }
}

impl TcpEndpoint {
    /// Joins (or, for rank 0, hosts) the rendezvous described in the
    /// [module docs](self) and returns a ready endpoint: all `world − 1`
    /// peer connections established and the step-0 barrier passed.
    ///
    /// # Errors
    ///
    /// Returns [`NetError`] when binding, connecting (after retries), or
    /// the handshake fails or times out.
    pub fn connect(cfg: &NetConfig) -> Result<TcpEndpoint, NetError> {
        Self::connect_inner(cfg, None)
    }

    /// [`TcpEndpoint::connect`] with a pre-bound master listener — lets a
    /// harness bind port 0 first and hand workers the resolved address.
    ///
    /// # Errors
    ///
    /// As [`TcpEndpoint::connect`]; also if `cfg.rank` is not `Some(0)`.
    pub fn connect_with_listener(
        cfg: &NetConfig,
        listener: TcpListener,
    ) -> Result<TcpEndpoint, NetError> {
        if cfg.rank != Some(0) {
            return Err(NetError::Config(
                "a pre-bound master listener requires rank 0".to_string(),
            ));
        }
        Self::connect_inner(cfg, Some(listener))
    }

    fn connect_inner(cfg: &NetConfig, pre: Option<TcpListener>) -> Result<TcpEndpoint, NetError> {
        if cfg.world == 0 {
            return Err(NetError::Config("world size must be positive".to_string()));
        }
        if cfg.world == 1 {
            // A mesh of no links: no sockets, no threads.
            let tables = MeshTables {
                host_ids: vec![cfg.host_id.unwrap_or_else(|| pseudo_host(0))],
                prev_ranks: vec![0],
            };
            return Self::from_mesh(0, cfg, vec![None], tables);
        }
        let t0 = Instant::now();
        let (rank, streams, tables) = match cfg.rank {
            Some(0) => rendezvous_master(cfg, pre)?,
            _ => {
                let (rank, _world, streams, tables) = rendezvous_worker(cfg)?;
                (rank, streams, tables)
            }
        };
        trace::record(
            &format!("net.r{rank}/net"),
            trace::TaskKind::Other,
            || format!("rendezvous[g{}]", cfg.generation),
            t0,
        );
        Self::from_mesh(rank, cfg, streams, tables)
    }

    /// Spawns the per-peer reader threads over an established mesh, plus
    /// the heartbeat monitor when failure detection is enabled.
    fn from_mesh(
        rank: usize,
        cfg: &NetConfig,
        streams: Vec<Option<TcpStream>>,
        tables: MeshTables,
    ) -> Result<TcpEndpoint, NetError> {
        let world = cfg.world;
        let pool: Arc<BufferPool> = Arc::default();
        let health = Arc::new(Health::new(world));
        let counters: Arc<Vec<PeerCounters>> =
            Arc::new((0..world).map(|_| PeerCounters::default()).collect());
        let mut links = Vec::with_capacity(world);
        let mut inboxes = Vec::with_capacity(world);
        let mut readers = Vec::new();
        for (peer, slot) in streams.into_iter().enumerate() {
            let Some(stream) = slot else {
                if peer != rank {
                    return Err(NetError::Protocol(format!(
                        "rendezvous left no connection to rank {peer}"
                    )));
                }
                links.push(None);
                inboxes.push(None);
                continue;
            };
            stream
                .set_nodelay(true)
                .map_err(|e| NetError::io(format!("setting TCP_NODELAY for rank {peer}"), e))?;
            // Handshake deadlines no longer apply: readers block until
            // woken (teardown closes the socket), every frame write is
            // bounded by the send deadline. Both are options of the socket,
            // so they hold for each handle cloned below.
            stream
                .set_read_timeout(None)
                .map_err(|e| NetError::io(format!("clearing read deadline for rank {peer}"), e))?;
            stream
                .set_write_timeout(Some(cfg.send_timeout))
                .map_err(|e| NetError::io(format!("setting write deadline for rank {peer}"), e))?;
            let clone = || {
                stream
                    .try_clone()
                    .map_err(|e| NetError::io(format!("cloning stream for rank {peer}"), e))
            };
            links.push(Some(Link {
                writer: Mutex::new(clone()?),
                closer: clone()?,
            }));
            let (itx, irx) = mpsc::channel();
            let rpool = Arc::clone(&pool);
            let rhealth = Arc::clone(&health);
            let rcounters = Arc::clone(&counters);
            let generation = cfg.generation;
            let reader = std::thread::Builder::new()
                .name(format!("dear-tcp-r{rank}-p{peer}"))
                .spawn(move || {
                    reader_loop(
                        stream,
                        peer,
                        generation,
                        itx,
                        &rpool,
                        &rhealth,
                        &rcounters[peer],
                    )
                })
                .map_err(|e| NetError::io(format!("spawning the reader for rank {peer}"), e))?;
            readers.push(reader);
            inboxes.push(Some(Mutex::new(irx)));
        }
        let links = Arc::new(links);
        let monitor = match cfg.heartbeat_interval {
            Some(interval) if world > 1 => {
                let (stop_tx, stop_rx) = mpsc::channel();
                let mhealth = Arc::clone(&health);
                let mlinks = Arc::clone(&links);
                let mcounters = Arc::clone(&counters);
                let generation = cfg.generation;
                let budget = cfg.heartbeat_miss_budget.max(1);
                let handle = std::thread::Builder::new()
                    .name(format!("dear-hb-r{rank}"))
                    .spawn(move || {
                        heartbeat_monitor(
                            interval, budget, generation, &mhealth, &mlinks, &mcounters, &stop_rx,
                        )
                    })
                    .map_err(|e| NetError::io("spawning the heartbeat monitor", e))?;
                Some((stop_tx, handle))
            }
            _ => None,
        };
        if tables.host_ids.len() != world || tables.prev_ranks.len() != world {
            return Err(NetError::Protocol(format!(
                "WELCOME tables cover {} host ids / {} prev ranks for a world of {world}",
                tables.host_ids.len(),
                tables.prev_ranks.len()
            )));
        }
        let mut stored = cfg.clone();
        stored.rank = Some(rank);
        Ok(TcpEndpoint {
            rank,
            world,
            generation: cfg.generation,
            send_timeout: cfg.send_timeout,
            recv_timeout: Mutex::new(cfg.recv_timeout),
            links,
            inboxes,
            pool,
            health,
            counters,
            readers,
            monitor,
            tables,
            cfg: stored,
        })
    }

    /// Physical-host identity of every rank (indexed by rank), as published
    /// by the rendezvous master. Ranks that configured no
    /// [`NetConfig::host_id`] appear on a unique pseudo-host each, so two
    /// equal entries always mean genuinely co-located ranks — the test a
    /// tiered transport uses to route intra-node traffic over shared
    /// memory, and the input to topology-aware hierarchical groups.
    #[must_use]
    pub fn host_ids(&self) -> &[u64] {
        &self.tables.host_ids
    }

    /// Each rank's rank in the previous world generation (indexed by
    /// current rank): identity after the initial rendezvous, `u32::MAX`
    /// for a fresh joiner admitted by an in-place resize. Survivors of a
    /// resize use this to re-locate peers they knew by old rank — master
    /// election means new ranks are *not* ascending in old rank.
    #[must_use]
    pub fn prev_ranks(&self) -> &[u32] {
        &self.tables.prev_ranks
    }

    /// Per-peer wire traffic so far, in rank order (own rank omitted):
    /// bytes written and bytes read. Cheap — relaxed atomic reads — so
    /// callers may poll it mid-run.
    #[must_use]
    pub fn stats(&self) -> Vec<PeerStats> {
        self.counters
            .iter()
            .enumerate()
            .filter(|&(peer, _)| peer != self.rank)
            .map(|(peer, c)| PeerStats {
                peer,
                bytes_sent: c.bytes_sent.load(Ordering::Relaxed),
                bytes_recv: c.bytes_recv.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// The world generation this endpoint was created in (the elastic
    /// launcher's restart counter; 0 for a first launch).
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Maps a low-level channel failure on `peer` to the richer verdict
    /// the health state holds, if any: a stale-generation frame from that
    /// peer, or an endpoint-wide abort by the failure detector.
    fn failure_verdict(&self, peer: usize) -> Option<CollectiveError> {
        let h = self.health.inner.lock().expect("health poisoned");
        if let Some(actual) = h.stale.get(peer).copied().flatten() {
            return Some(CollectiveError::StaleGeneration {
                peer,
                expected: self.generation,
                actual,
            });
        }
        h.aborted.map(|p| CollectiveError::Aborted { peer: p })
    }

    /// Checks that a data frame of `wire_bytes` element bytes may go to `to`.
    fn check_frame(&self, to: usize, wire_bytes: usize) -> Result<(), CollectiveError> {
        self.check_peer(to)?;
        if let Some(bytes) = oversize_bytes(wire_bytes) {
            // The frame header's length field is a u32; letting this
            // through would truncate on the wire and desynchronize the
            // peer's stream.
            return Err(CollectiveError::Oversize {
                peer: to,
                bytes,
                max: MAX_FRAME_BYTES as u64,
            });
        }
        Ok(())
    }

    /// Writes one whole frame to the checked peer `to` with `write`, under
    /// the link's writer lock; latches the link on failure and counts the
    /// bytes on success.
    fn send_frame(
        &self,
        to: usize,
        write: impl FnOnce(&mut TcpStream) -> io::Result<usize>,
    ) -> Result<(), CollectiveError> {
        let link = self.links[to].as_ref().expect("validated peer");
        let wrote = {
            let mut stream = link.writer.lock().expect("link poisoned");
            let wrote = write(&mut stream);
            latch_on_error(&stream, wrote)
        };
        match wrote {
            Ok(n) => {
                self.counters[to]
                    .bytes_sent
                    .fetch_add(n as u64, Ordering::Relaxed);
                Ok(())
            }
            Err(e) => Err(self.failure_verdict(to).unwrap_or(match e.kind() {
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => CollectiveError::Timeout {
                    peer: to,
                    millis: self.send_timeout.as_millis() as u64,
                },
                _ => CollectiveError::Disconnected { peer: to },
            })),
        }
    }

    /// Every peer that has sent a frame from a foreign generation, in rank
    /// order, with the first foreign generation each one presented.
    /// Deterministic regardless of the order the mismatches arrived in —
    /// concurrent stale peers during resize churn all keep their verdicts.
    #[must_use]
    pub fn stale_peers(&self) -> Vec<(usize, u64)> {
        let h = self.health.inner.lock().expect("health poisoned");
        h.stale
            .iter()
            .enumerate()
            .filter_map(|(p, g)| g.map(|g| (p, g)))
            .collect()
    }

    /// Stops the monitor, says goodbye on every link, closes the sockets,
    /// and joins the readers. Idempotent; shared by `Drop` and the in-place
    /// resize path (which tears the old mesh down before re-running
    /// rendezvous at the next generation).
    fn teardown(&mut self) {
        // Stop the heartbeat monitor first: it must not force-close the
        // sockets over a false death verdict under the goodbyes below.
        if let Some((stop_tx, handle)) = self.monitor.take() {
            let _ = stop_tx.send(());
            let _ = handle.join();
        }
        // Every frame a `send` accepted is already with the kernel, which
        // delivers it ahead of the close. The shutdown frame tells the peer
        // this is a departure, not a death (its write is bounded by the
        // send deadline even against a wedged peer); closing the socket
        // then forces our reader out of its blocking read. All frames we
        // were owed have been consumed by completed collectives, so nothing
        // of value is discarded.
        for link in self.links.iter().flatten() {
            let mut stream = link.writer.lock().unwrap_or_else(PoisonError::into_inner);
            let _ = write_frame(&mut *stream, FrameKind::Shutdown, &[]);
            let _ = stream.shutdown(Shutdown::Both);
        }
        for h in self.readers.drain(..) {
            let _ = h.join();
        }
    }

    /// Joins a **running, resized** world as a fresh rank (grow side of
    /// in-place elastic resize): dials the resize rendezvous the survivors
    /// derive for `generation` and presents no prior identity, so the
    /// master appends this endpoint after the survivors' dense ranks.
    ///
    /// `cfg.master_addr` must be the *original* world's master address —
    /// the same derivation the survivors use maps it to the resize
    /// address. The configured `cfg.world` and `cfg.rank` are ignored; the
    /// WELCOME dictates both.
    ///
    /// # Errors
    ///
    /// Returns [`NetError`] when the resize rendezvous cannot be reached
    /// within the connect deadline or the handshake fails at every derived
    /// port probe (the survivors advance ports when the first derivation
    /// is owned by a foreign process; a joiner walks the same sequence).
    pub fn join_resize(cfg: &NetConfig, generation: u64) -> Result<TcpEndpoint, NetError> {
        let (host, base_port) = split_host_port(&cfg.master_addr)?;
        let mut joined = None;
        let mut last_err = None;
        for probe in 0..NetConfig::RESIZE_PORT_PROBES {
            let addr = format!("{host}:{}", resize_port(base_port, generation, probe));
            match resize_worker(cfg, None, generation, &addr) {
                Ok(got) => {
                    joined = Some((got, addr));
                    break;
                }
                Err(e) => last_err = Some(e),
            }
        }
        let ((rank, world, streams, tables), addr) = joined.ok_or_else(|| {
            last_err
                .unwrap_or_else(|| NetError::Config("no resize port probes configured".to_string()))
        })?;
        let mut rcfg = cfg.clone();
        rcfg.rank = Some(rank);
        rcfg.world = world;
        rcfg.generation = generation;
        rcfg.master_addr = addr;
        Self::from_mesh(rank, &rcfg, streams, tables)
    }
}

/// The failure-detector thread: each interval, check arrival times, then
/// write a heartbeat to every idle link. A peer silent for `budget`
/// intervals (and not gracefully departed) is declared dead — the verdict
/// is recorded and every socket force-closed so all blocked operations
/// surface [`CollectiveError::Aborted`] immediately.
fn heartbeat_monitor(
    interval: Duration,
    budget: u32,
    generation: u64,
    health: &Health,
    links: &[Option<Link>],
    counters: &[PeerCounters],
    stop: &Receiver<()>,
) {
    let allowance = interval * budget;
    loop {
        match stop.recv_timeout(interval) {
            Err(mpsc::RecvTimeoutError::Timeout) => (),
            // Stop requested or the endpoint is gone either way.
            Ok(()) | Err(mpsc::RecvTimeoutError::Disconnected) => return,
        }
        // Judge before probing: a probe can block for one write deadline
        // (both kernel buffers full toward a wedged peer while no data
        // write holds the lock), which may delay a verdict but must never
        // lose it.
        let now = Instant::now();
        let verdict = {
            let mut h = health.inner.lock().expect("health poisoned");
            if h.aborted.is_some() {
                return;
            }
            let dead = h
                .last_seen
                .iter()
                .enumerate()
                .find(|&(p, &seen)| {
                    !h.departed[p]
                        && links.get(p).is_some_and(Option::is_some)
                        && now.duration_since(seen) > allowance
                })
                .map(|(p, _)| p);
            if let Some(p) = dead {
                h.aborted = Some(p);
            }
            dead
        };
        if verdict.is_some() {
            // Tear the endpoint down: closing the sockets pops readers out
            // of blocked reads and fails blocked writes, so every pending
            // send/recv resolves now instead of at its own deadline.
            for link in links.iter().flatten() {
                let _ = link.closer.shutdown(Shutdown::Both);
            }
            return;
        }
        // Probe: a held lock means a data frame is going out, which is
        // liveness enough on its own — skip rather than block the monitor.
        let mut probes = 0usize;
        for (link, counters) in links.iter().zip(counters) {
            let Some(link) = link else { continue };
            let Ok(mut stream) = link.writer.try_lock() else {
                continue;
            };
            let probe = write_frame(
                &mut *stream,
                FrameKind::Heartbeat,
                &encode_generation(generation),
            );
            if latch_on_error(&stream, probe).is_ok() {
                counters
                    .bytes_sent
                    .fetch_add(FRAME_HEADER_BYTES + 8, Ordering::Relaxed);
                probes += 1;
            }
        }
        trace::add_counter("net.heartbeat_probes", probes as f64);
    }
}

/// Reader thread: demultiplexes incoming frames — data payloads go to the
/// peer's inbox (in pooled buffers), heartbeats only refresh liveness, a
/// shutdown frame or any error ends the stream. Every frame updates the
/// peer's last-seen time; a frame stamped with a foreign generation
/// records a stale verdict and ends the stream (surfacing as
/// [`CollectiveError::StaleGeneration`] on the receive side). Dropping the
/// inbox sender is what turns a dead peer into
/// [`CollectiveError::Disconnected`].
fn reader_loop(
    stream: TcpStream,
    peer: usize,
    generation: u64,
    itx: mpsc::Sender<WireBuf>,
    pool: &BufferPool,
    health: &Health,
    counters: &PeerCounters,
) {
    let mut r = BufReader::with_capacity(64 * 1024, stream);
    let mut body = Vec::new();
    loop {
        let Ok((kind, len)) = read_frame_header(&mut r) else {
            // Torn header, EOF, reset, or forced local close: the stream
            // is over either way — the dropped inbox sender surfaces it.
            return;
        };
        if kind == FrameKind::Data && len >= DATA_BODY_OVERHEAD {
            // Data payloads land straight in a pooled buffer — the old
            // path read into a scratch body then copied into the pool.
            let mut overhead = [0u8; DATA_BODY_OVERHEAD];
            if r.read_exact(&mut overhead).is_err() {
                return;
            }
            let payload_len = len - DATA_BODY_OVERHEAD;
            // `take` hands out a cleared buffer with the capacity reserved;
            // reading to the end of a length-limited view fills that spare
            // capacity directly, without zero-filling it first.
            let mut buf = pool.take(payload_len);
            match (&mut r).take(payload_len as u64).read_to_end(&mut buf) {
                Ok(n) if n == payload_len => (),
                // Torn mid-body (peer died between header and payload):
                // surfaces as Disconnected, never a hang.
                _ => return,
            }
            counters
                .bytes_recv
                .fetch_add(FRAME_HEADER_BYTES + len as u64, Ordering::Relaxed);
            health.saw(peer);
            let stamp = u64::from_le_bytes(overhead[..8].try_into().expect("8 bytes"));
            // The payload is self-describing: decode by the frame's own
            // dtype tag. An unknown tag is stream corruption — end the
            // stream.
            let Some(dtype) = dear_collectives::DType::from_tag(overhead[8]) else {
                return;
            };
            if stamp != generation {
                health.mark_stale(peer, stamp);
                return;
            }
            // A byte count that doesn't divide into whole elements is
            // stream corruption — end the stream.
            let Ok(payload) = WireBuf::from_raw(dtype, buf) else {
                return;
            };
            if itx.send(payload).is_err() {
                return;
            }
            continue;
        }
        // Control frames (and a malformed short Data frame) keep the
        // scratch body — they are tiny and off the hot path.
        body.clear();
        body.resize(len, 0);
        if r.read_exact(&mut body).is_err() {
            return;
        }
        counters
            .bytes_recv
            .fetch_add(FRAME_HEADER_BYTES + len as u64, Ordering::Relaxed);
        match kind {
            // Shorter than the generation stamp + dtype tag: corrupt.
            FrameKind::Data => {
                health.saw(peer);
                return;
            }
            FrameKind::Heartbeat => {
                health.saw(peer);
                match decode_generation(&body) {
                    Ok(stamp) if stamp == generation => (),
                    Ok(stamp) => {
                        health.mark_stale(peer, stamp);
                        return;
                    }
                    Err(_) => return,
                }
            }
            FrameKind::Shutdown => {
                health.mark_departed(peer);
                return;
            }
            // Unexpected control frame: the stream is over.
            _ => return,
        }
    }
}

impl Transport for TcpEndpoint {
    fn rank(&self) -> usize {
        self.rank
    }

    fn world_size(&self) -> usize {
        self.world
    }

    fn send(&self, to: usize, msg: Message) -> Result<(), CollectiveError> {
        self.check_frame(to, msg.wire_bytes())?;
        // A fabric-local deliver-at stamp must never reach the wire; this
        // surfaces the composition bug as a typed error (see
        // `Message::into_wire_payload`).
        let payload = msg.into_wire_payload()?;
        let sent = self.send_frame(to, |stream| {
            write_data_frame(stream, self.generation, &payload)
        });
        self.pool.recycle(payload.into_bytes());
        sent
    }

    /// Never lends: the frame goes out from `src` itself. `send` writes the
    /// message before it returns, so a pooled copy of it would buy nothing.
    #[cfg(target_endian = "little")]
    unsafe fn lend_f32(&self, to: usize, src: &[f32]) -> Result<Option<Loan>, CollectiveError> {
        self.check_frame(to, std::mem::size_of_val(src))?;
        self.send_frame(to, |stream| {
            write_f32_data_frame(stream, self.generation, src)
        })
        .map(|()| None)
    }

    fn recv(&self, from: usize) -> Result<Message, CollectiveError> {
        let parcel = self
            .recv_parcel(from, true)?
            .expect("a waiting receive returns a parcel");
        parcel.into_message(|bytes| self.pool.take(bytes), from)
    }

    /// What the peer's reader thread has put in the inbox. An empty inbox
    /// whose reader has ended is the peer's departure, or the verdict that
    /// ended it.
    fn recv_parcel(&self, from: usize, wait: bool) -> Result<Option<Parcel>, CollectiveError> {
        self.check_peer(from)?;
        let rx = self.inboxes[from]
            .as_ref()
            .expect("validated peer")
            .lock()
            .expect("inbox poisoned");
        let disconnected = CollectiveError::Disconnected { peer: from };
        let payload = if !wait {
            match rx.try_recv() {
                Ok(payload) => Ok(payload),
                Err(mpsc::TryRecvError::Empty) => return Ok(None),
                Err(mpsc::TryRecvError::Disconnected) => Err(disconnected),
            }
        } else {
            match *self.recv_timeout.lock().expect("recv timeout poisoned") {
                None => rx.recv().map_err(|_| disconnected),
                Some(dl) => rx.recv_timeout(dl).map_err(|e| match e {
                    mpsc::RecvTimeoutError::Timeout => CollectiveError::Timeout {
                        peer: from,
                        millis: dl.as_millis() as u64,
                    },
                    mpsc::RecvTimeoutError::Disconnected => disconnected,
                }),
            }
        };
        let payload = payload.map_err(|plain| self.failure_verdict(from).unwrap_or(plain))?;
        Ok(Some(Parcel::Message(Message::new(payload))))
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

    /// Every frame a reader thread has read ahead holds a buffer of the
    /// pool until this rank has landed it and recycled the buffer, so the
    /// pool is stocked with one buffer for each of `messages` and one for
    /// the message being landed while a reader takes the next.
    fn reserve_receives(&self, messages: usize, bytes: usize) {
        let stock: Vec<_> = (0..=messages).map(|_| self.pool.take(bytes)).collect();
        for buf in stock {
            self.pool.recycle(buf);
        }
    }

    /// In-place elastic resize: tears the old mesh down, re-runs rendezvous
    /// at generation `g+1` on a deterministically derived port (every
    /// survivor computes the same one, so no agreement on who survived is
    /// needed up front), and rebuilds the endpoint over whoever shows up
    /// within [`NetConfig::resize_window`].
    ///
    /// The first survivor to bind the derived address hosts the rendezvous
    /// (bind race as master election). `AddrInUse` losers join as workers,
    /// and so does any survivor whose bind fails for another reason — on a
    /// multi-host deployment the derived address lives on the master host,
    /// so every off-host survivor gets `AddrNotAvailable` and must dial in
    /// rather than fail the resize. If the master *host* itself died, no
    /// survivor can host the rendezvous at all: every worker attempt times
    /// out, the resize fails, and the supervised restart (which picks a
    /// fresh master address) is the fallback.
    ///
    /// If the derived port is owned by an unrelated process, the elected
    /// "workers" dial a listener that never speaks our protocol and the
    /// handshake fails; each survivor then advances to the next derived
    /// port ([`NetConfig::RESIZE_PORT_PROBES`] attempts, same deterministic
    /// sequence on every survivor) before giving up.
    ///
    /// Dense ranks: the elected master takes 0, the other survivors follow
    /// in ascending old-rank order, fresh joiners are appended in arrival
    /// order. The member list closes when the window expires; the resize
    /// fails — and the endpoint is left torn down, only fit for dropping —
    /// unless a strict majority of the old world is present (quorum, so a
    /// partitioned minority can never train on as if it were the world).
    ///
    /// `survivors` is ignored: membership is discovered by the rendezvous
    /// itself, which is what tolerates disagreement about who died.
    fn reconfigure(&mut self, survivors: Option<&[usize]>) -> Result<WorldChange, CollectiveError> {
        let _ = survivors;
        let old_rank = self.rank;
        let old_world = self.world;
        let new_gen = self.generation + 1;
        self.teardown();
        let cfg = self.cfg.clone();
        let reconf = |e: NetError| CollectiveError::Reconfigure {
            reason: e.to_string(),
        };
        let t0 = Instant::now();
        let (host, base_port) = split_host_port(&cfg.master_addr).map_err(reconf)?;
        let mut joined = None;
        let mut last_err = None;
        for probe in 0..NetConfig::RESIZE_PORT_PROBES {
            let addr = format!("{host}:{}", resize_port(base_port, new_gen, probe));
            match TcpListener::bind(addr.as_str()) {
                Ok(listener) => {
                    // Won the election: host the rendezvous here. A hosting
                    // failure (no quorum within the window) is final — the
                    // members were reachable at this port, there just were
                    // not enough of them, and retrying elsewhere would only
                    // split the survivors across ports.
                    let got = resize_master(&cfg, old_rank, old_world, new_gen, &addr, &listener)
                        .map_err(reconf)?;
                    joined = Some((got, addr));
                    break;
                }
                // Couldn't host here — `AddrInUse` (another survivor or a
                // foreign process owns the port) or e.g. `AddrNotAvailable`
                // (the derived host is not this machine) — so dial in as a
                // worker. A failed handshake means nobody of ours is
                // hosting this port (foreign owner, or the master host is
                // gone): advance to the next derived port.
                Err(_) => match resize_worker(&cfg, Some(old_rank), new_gen, &addr) {
                    Ok(got) => {
                        joined = Some((got, addr));
                        break;
                    }
                    Err(e) => last_err = Some(e),
                },
            }
        }
        let ((rank, world, streams, tables), addr) = match joined {
            Some(j) => j,
            None => {
                return Err(reconf(last_err.unwrap_or_else(|| {
                    NetError::Config("no resize port probes configured".to_string())
                })))
            }
        };
        let mut rcfg = cfg;
        rcfg.rank = Some(rank);
        rcfg.world = world;
        rcfg.generation = new_gen;
        rcfg.master_addr = addr;
        trace::record(
            &format!("net.r{rank}/net"),
            trace::TaskKind::Other,
            || format!("resize-rendezvous[g{new_gen}]"),
            t0,
        );
        *self = Self::from_mesh(rank, &rcfg, streams, tables).map_err(reconf)?;
        Ok(WorldChange {
            old_rank,
            old_world,
            new_rank: rank,
            new_world: world,
            generation: new_gen,
        })
    }
}

impl Drop for TcpEndpoint {
    fn drop(&mut self) {
        self.teardown();
        // With threads joined the counters are final: fold them into the
        // trace recorder so per-peer traffic rides along in the dump.
        if trace::enabled() {
            let r = self.rank;
            for st in self.stats() {
                let p = st.peer;
                trace::add_counter(&format!("net.r{r}.p{p}.bytes_sent"), st.bytes_sent as f64);
                trace::add_counter(&format!("net.r{r}.p{p}.bytes_recv"), st.bytes_recv as f64);
            }
        }
    }
}

/// Dials `addr`, retrying with exponential backoff (connection refused just
/// means the peer's listener isn't up yet) until `cfg.connect_timeout`.
fn connect_with_retry(addr: &str, cfg: &NetConfig) -> Result<TcpStream, NetError> {
    let deadline = Instant::now() + cfg.connect_timeout;
    let mut backoff = NetConfig::CONNECT_BACKOFF_MIN;
    loop {
        let attempt = (|| -> std::io::Result<TcpStream> {
            let sockaddr = addr.to_socket_addrs()?.next().ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::NotFound, "address resolved to nothing")
            })?;
            let remaining = deadline
                .saturating_duration_since(Instant::now())
                .min(Duration::from_secs(2))
                .max(Duration::from_millis(1));
            TcpStream::connect_timeout(&sockaddr, remaining)
        })();
        match attempt {
            Ok(s) => return Ok(s),
            Err(e) => {
                if Instant::now() + backoff >= deadline {
                    return Err(NetError::Timeout {
                        context: format!("connecting to {addr} (last error: {e})"),
                        after: cfg.connect_timeout,
                    });
                }
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(NetConfig::CONNECT_BACKOFF_MAX);
            }
        }
    }
}

/// Accepts one connection with a deadline (std listeners have no accept
/// timeout, so this polls in non-blocking mode). `window` is the wait the
/// deadline closes, for the error to report.
fn accept_deadline(
    listener: &TcpListener,
    deadline: Instant,
    window: Duration,
    what: &str,
) -> Result<(TcpStream, std::net::SocketAddr), NetError> {
    listener
        .set_nonblocking(true)
        .map_err(|e| NetError::io("setting listener non-blocking", e))?;
    loop {
        match listener.accept() {
            Ok((s, peer)) => {
                s.set_nonblocking(false)
                    .map_err(|e| NetError::io("restoring blocking mode", e))?;
                return Ok((s, peer));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(NetError::Timeout {
                        context: format!("waiting to accept {what}"),
                        after: window,
                    });
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => return Err(NetError::io(format!("accepting {what}"), e)),
        }
    }
}

/// Applies the handshake socket deadlines to a rendezvous-phase stream.
fn set_handshake_deadlines(s: &TcpStream, cfg: &NetConfig) -> Result<(), NetError> {
    s.set_read_timeout(Some(cfg.handshake_timeout))
        .map_err(|e| NetError::io("setting handshake read deadline", e))?;
    s.set_write_timeout(Some(cfg.handshake_timeout))
        .map_err(|e| NetError::io("setting handshake write deadline", e))
}

/// Reads one frame expecting `want`, surfacing anything else as a protocol
/// violation.
fn expect_frame(
    s: &mut TcpStream,
    want: FrameKind,
    body: &mut Vec<u8>,
    who: &str,
) -> Result<(), NetError> {
    let got = read_frame(s, body).map_err(|e| NetError::io(format!("reading from {who}"), e))?;
    if got != want {
        return Err(NetError::Protocol(format!(
            "expected {want:?} from {who}, got {got:?}"
        )));
    }
    Ok(())
}

/// Rank 0's side of the rendezvous: collect HELLOs, assign ranks, publish
/// the peer table, then run the READY/GO barrier. The HELLO connections
/// become rank 0's mesh links.
fn rendezvous_master(
    cfg: &NetConfig,
    pre: Option<TcpListener>,
) -> Result<(usize, Vec<Option<TcpStream>>, MeshTables), NetError> {
    let world = cfg.world;
    let deadline = Instant::now() + cfg.handshake_timeout;
    let listener = match pre {
        Some(l) => l,
        None => bind_master_with_retry(&cfg.master_addr, deadline)?,
    };
    let mut body = Vec::new();
    let mut pending: Vec<(TcpStream, Hello, IpAddr)> = Vec::with_capacity(world - 1);
    while pending.len() < world - 1 {
        let (mut s, peer) =
            accept_deadline(&listener, deadline, cfg.handshake_timeout, "a worker HELLO")?;
        set_handshake_deadlines(&s, cfg)?;
        expect_frame(&mut s, FrameKind::Hello, &mut body, "worker")?;
        let hello = Hello::decode(&body).map_err(|e| NetError::io("decoding HELLO", e))?;
        if hello.generation != cfg.generation {
            // A straggler from a previous incarnation of a restarted
            // world: refuse it and keep waiting for current-generation
            // members (the straggler sees its connection die).
            drop(s);
            continue;
        }
        pending.push((s, hello, peer.ip()));
    }
    // Assign ranks: explicit requests first, then fill in arrival order.
    let mut taken = vec![false; world];
    taken[0] = true;
    let mut assigned: Vec<Option<usize>> = vec![None; pending.len()];
    for (i, (_, hello, _)) in pending.iter().enumerate() {
        if hello.rank != u32::MAX {
            let r = hello.rank as usize;
            if r == 0 || r >= world || taken[r] {
                return Err(NetError::Protocol(format!(
                    "worker requested rank {r}, which is invalid or already taken (world {world})"
                )));
            }
            taken[r] = true;
            assigned[i] = Some(r);
        }
    }
    for slot in assigned.iter_mut().filter(|s| s.is_none()) {
        let r = taken.iter().position(|t| !t).expect("a free rank exists");
        taken[r] = true;
        *slot = Some(r);
    }
    let assigned: Vec<usize> = assigned
        .into_iter()
        .map(|s| s.expect("all slots assigned"))
        .collect();
    let (streams, tables) = master_publish_and_barrier(
        &cfg.master_addr,
        world,
        cfg.generation,
        cfg.host_id,
        None,
        pending,
        &assigned,
    )?;
    Ok((0, streams, tables))
}

/// The master's mesh-publication tail, shared by the initial rendezvous
/// and the resize rendezvous: build the dialable peer table and the
/// placement tables, WELCOME every worker with its assigned rank, then run
/// the READY/GO barrier. The HELLO connections become the master's mesh
/// links (the master is rank 0).
///
/// `master_prev_rank` distinguishes the two callers: `None` at the initial
/// rendezvous, where a HELLO's rank field is a *request* and every rank's
/// previous rank is itself; `Some(old_rank)` at a resize, where the rank
/// field is the old-rank identity claim republished as `prev_ranks`
/// (`u32::MAX` for fresh joiners).
#[allow(clippy::too_many_arguments)]
fn master_publish_and_barrier(
    master_addr: &str,
    world: usize,
    generation: u64,
    master_host_id: Option<u64>,
    master_prev_rank: Option<u32>,
    pending: Vec<(TcpStream, Hello, IpAddr)>,
    assigned: &[usize],
) -> Result<(Vec<Option<TcpStream>>, MeshTables), NetError> {
    let mut body = Vec::new();
    // Build the dialable peer table and the placement tables.
    let mut addrs = vec![String::new(); world];
    addrs[0] = master_addr.to_string();
    let mut tables = MeshTables::pseudo(world);
    tables.host_ids[0] = master_host_id.unwrap_or_else(|| pseudo_host(0));
    if let Some(prev) = master_prev_rank {
        tables.prev_ranks[0] = prev;
    }
    for ((_, hello, seen_ip), &rank) in pending.iter().zip(assigned) {
        let host = if hello.host.is_empty() || hello.host == "0.0.0.0" {
            seen_ip.to_string()
        } else {
            hello.host.clone()
        };
        addrs[rank] = format!("{host}:{}", hello.port);
        if hello.host_id != NetConfig::UNKNOWN_HOST {
            tables.host_ids[rank] = hello.host_id;
        }
        if master_prev_rank.is_some() {
            tables.prev_ranks[rank] = hello.rank;
        }
    }
    // WELCOME everyone; the HELLO connections become mesh links to rank 0.
    let mut streams: Vec<Option<TcpStream>> = (0..world).map(|_| None).collect();
    for ((mut s, _, _), &rank) in pending.into_iter().zip(assigned) {
        let welcome = Welcome {
            rank: rank as u32,
            world: world as u32,
            generation,
            addrs: addrs.clone(),
            host_ids: tables.host_ids.clone(),
            prev_ranks: tables.prev_ranks.clone(),
        };
        write_frame(&mut s, FrameKind::Welcome, &welcome.encode())
            .map_err(|e| NetError::io(format!("sending WELCOME to rank {rank}"), e))?;
        streams[rank] = Some(s);
    }
    // Barrier: one READY per worker, then GO to all.
    for (r, slot) in streams.iter_mut().enumerate().skip(1) {
        let s = slot.as_mut().expect("welcomed worker");
        expect_frame(s, FrameKind::Ready, &mut body, &format!("rank {r}"))?;
    }
    for (r, slot) in streams.iter_mut().enumerate().skip(1) {
        let s = slot.as_mut().expect("welcomed worker");
        write_frame(s, FrameKind::Go, &[])
            .map_err(|e| NetError::io(format!("sending GO to rank {r}"), e))?;
    }
    Ok((streams, tables))
}

/// A worker's side of the rendezvous: HELLO the master, learn rank and
/// peer table, dial lower ranks, accept higher ranks, then barrier.
#[allow(clippy::type_complexity)]
fn rendezvous_worker(
    cfg: &NetConfig,
) -> Result<(usize, usize, Vec<Option<TcpStream>>, MeshTables), NetError> {
    let hello_rank = cfg.rank.map_or(u32::MAX, |r| r as u32);
    let got = worker_mesh(cfg, &cfg.master_addr, hello_rank, cfg.generation, true)?;
    debug_assert_eq!(got.1, cfg.world);
    Ok(got)
}

/// The worker's mesh protocol, shared by the initial rendezvous and the
/// resize rendezvous: HELLO the master at `master_addr` (with `hello_rank`
/// as either a rank request or, during a resize, the old-rank identity
/// claim), learn the assigned rank and peer table from the WELCOME, dial
/// lower ranks, accept higher ranks, then barrier.
///
/// With `fixed_world`, the WELCOME must agree with `cfg.world` and the
/// assigned rank must match a configured `cfg.rank` — the initial
/// rendezvous invariants. A resize passes `false`: the world size and this
/// endpoint's rank are exactly what the rendezvous exists to determine.
#[allow(clippy::type_complexity)]
fn worker_mesh(
    cfg: &NetConfig,
    master_addr: &str,
    hello_rank: u32,
    generation: u64,
    fixed_world: bool,
) -> Result<(usize, usize, Vec<Option<TcpStream>>, MeshTables), NetError> {
    let listener = TcpListener::bind((cfg.listen_host.as_str(), 0))
        .map_err(|e| NetError::io(format!("binding worker listener on {}", cfg.listen_host), e))?;
    let port = listener
        .local_addr()
        .map_err(|e| NetError::io("reading listener address", e))?
        .port();
    let mut master = connect_with_retry(master_addr, cfg)?;
    set_handshake_deadlines(&master, cfg)?;
    let hello = Hello {
        rank: hello_rank,
        port,
        generation,
        host_id: cfg.host_id.unwrap_or(NetConfig::UNKNOWN_HOST),
        host: if cfg.listen_host == "0.0.0.0" {
            String::new()
        } else {
            cfg.listen_host.clone()
        },
    };
    write_frame(&mut master, FrameKind::Hello, &hello.encode())
        .map_err(|e| NetError::io("sending HELLO", e))?;
    let mut body = Vec::new();
    expect_frame(&mut master, FrameKind::Welcome, &mut body, "master")?;
    let welcome = Welcome::decode(&body).map_err(|e| NetError::io("decoding WELCOME", e))?;
    let world = welcome.world as usize;
    if fixed_world && world != cfg.world {
        return Err(NetError::Protocol(format!(
            "master believes world is {world}, this worker was configured for {}",
            cfg.world
        )));
    }
    if welcome.generation != generation {
        return Err(NetError::Protocol(format!(
            "master is running generation {}, this worker was launched for generation {generation}",
            welcome.generation
        )));
    }
    let rank = welcome.rank as usize;
    if rank == 0 || rank >= world || (fixed_world && cfg.rank.is_some_and(|r| r != rank)) {
        return Err(NetError::Protocol(format!(
            "master assigned rank {rank}, configured rank {:?} (world {world})",
            cfg.rank
        )));
    }
    let mut streams: Vec<Option<TcpStream>> = (0..world).map(|_| None).collect();
    streams[0] = Some(master);
    // Dial every lower non-zero rank, identifying ourselves.
    for (peer, addr) in welcome.addrs.iter().enumerate().take(rank).skip(1) {
        let mut s = connect_with_retry(addr, cfg)?;
        set_handshake_deadlines(&s, cfg)?;
        write_frame(&mut s, FrameKind::Ident, &encode_ident(rank as u32))
            .map_err(|e| NetError::io(format!("sending IDENT to rank {peer}"), e))?;
        streams[peer] = Some(s);
    }
    // Accept every higher rank.
    let deadline = Instant::now() + cfg.handshake_timeout;
    for _ in rank + 1..world {
        let (mut s, _) =
            accept_deadline(&listener, deadline, cfg.handshake_timeout, "a peer IDENT")?;
        set_handshake_deadlines(&s, cfg)?;
        expect_frame(&mut s, FrameKind::Ident, &mut body, "peer")?;
        let peer = decode_ident(&body).map_err(|e| NetError::io("decoding IDENT", e))? as usize;
        if peer <= rank || peer >= world {
            return Err(NetError::Protocol(format!(
                "rank {peer} dialled rank {rank}; only higher ranks dial lower ones"
            )));
        }
        if streams[peer].is_some() {
            return Err(NetError::Protocol(format!("rank {peer} dialled twice")));
        }
        streams[peer] = Some(s);
    }
    // Mesh complete: barrier through rank 0.
    let master = streams[0].as_mut().expect("master connection");
    write_frame(master, FrameKind::Ready, &[]).map_err(|e| NetError::io("sending READY", e))?;
    expect_frame(master, FrameKind::Go, &mut body, "master")?;
    let tables = MeshTables {
        host_ids: welcome.host_ids,
        prev_ranks: welcome.prev_ranks,
    };
    Ok((rank, world, streams, tables))
}

/// Splits `host:port`, taking the **last** colon so bracketed IPv6 hosts
/// keep their colons.
fn split_host_port(addr: &str) -> Result<(&str, u16), NetError> {
    let (host, port) = addr
        .rsplit_once(':')
        .ok_or_else(|| NetError::Config(format!("master address {addr} has no port")))?;
    let port: u16 = port
        .parse()
        .map_err(|_| NetError::Config(format!("master address {addr} has an invalid port")))?;
    Ok((host, port))
}

/// The rendezvous port for the resize at `generation`, derived
/// deterministically from the previous rendezvous port so every survivor
/// computes the same address without first agreeing on who survived. A
/// *fresh* port rather than the old one because the old master's accepted
/// connections leave `TIME_WAIT` remnants that can make an immediate
/// re-bind fail (std exposes no `SO_REUSEADDR`), and because the old
/// master may be the rank that died.
///
/// `probe` selects a fallback port for the same generation: a derived port
/// can be owned by an unrelated process, in which case every survivor
/// fails the handshake against the foreign listener and advances to the
/// next probe — still deterministically, so they all converge on the same
/// alternate address.
fn resize_port(base: u16, generation: u64, probe: u32) -> u16 {
    // Jump around the ephemeral range in a generation-dependent stride;
    // stays off privileged ports. Probes take a smaller co-prime stride so
    // consecutive probes of one generation never collide with each other
    // or with the next few generations' first probes.
    let span = u64::from(u16::MAX) - 1024;
    let p = (u64::from(base) + generation.wrapping_mul(7919) + u64::from(probe).wrapping_mul(257))
        % span;
    1024 + p as u16
}

/// Binds `addr`, retrying `AddrInUse` with exponential backoff until
/// `deadline`. A probed "free" port is inherently TOCTOU — another process
/// can take it between the probe and this bind — and a restarted master's
/// old port can still be draining `TIME_WAIT` sockets; both resolve with a
/// short wait far more often than not.
fn bind_master_with_retry(addr: &str, deadline: Instant) -> Result<TcpListener, NetError> {
    let mut backoff = NetConfig::CONNECT_BACKOFF_MIN;
    loop {
        match TcpListener::bind(addr) {
            Ok(l) => return Ok(l),
            Err(e) if e.kind() == std::io::ErrorKind::AddrInUse => {
                if Instant::now() + backoff >= deadline {
                    return Err(NetError::io(format!("binding master listener {addr}"), e));
                }
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(NetConfig::CONNECT_BACKOFF_MAX);
            }
            Err(e) => return Err(NetError::io(format!("binding master listener {addr}"), e)),
        }
    }
}

/// The elected master's side of a resize rendezvous: collect HELLOs on the
/// derived port for the full membership window, enforce quorum, assign
/// dense ranks (self 0, survivors in ascending old-rank order, joiners
/// appended in arrival order), then publish the mesh and barrier.
///
/// Malformed or foreign-generation HELLOs are dropped, not fatal: resize
/// churn legitimately produces stragglers from the old incarnation.
#[allow(clippy::type_complexity)]
fn resize_master(
    cfg: &NetConfig,
    master_old_rank: usize,
    old_world: usize,
    generation: u64,
    addr: &str,
    listener: &TcpListener,
) -> Result<(usize, usize, Vec<Option<TcpStream>>, MeshTables), NetError> {
    let deadline = Instant::now() + cfg.resize_window;
    let mut body = Vec::new();
    let mut pending: Vec<(TcpStream, Hello, IpAddr)> = Vec::new();
    loop {
        let accepted = accept_deadline(listener, deadline, cfg.resize_window, "a resize HELLO");
        let (mut s, peer) = match accepted {
            Ok(conn) => conn,
            // The membership window closed; whoever is in is in.
            Err(NetError::Timeout { .. }) => break,
            Err(e) => return Err(e),
        };
        let hello = (|| -> Result<Hello, NetError> {
            set_handshake_deadlines(&s, cfg)?;
            expect_frame(&mut s, FrameKind::Hello, &mut body, "resize worker")?;
            Hello::decode(&body).map_err(|e| NetError::io("decoding resize HELLO", e))
        })();
        match hello {
            Ok(h) if h.generation == generation => {
                // An old-rank claim counts toward quorum and orders the
                // dense re-ranking, so validate it before admitting it: a
                // rank that never existed in the old world, or the elected
                // master's own old rank, is a stray or spoofed claim either
                // way. Keep-first on duplicates: a second claim of the same
                // rank is a straggling retry or an impostor.
                let bogus = h.rank != u32::MAX
                    && (h.rank as usize >= old_world || h.rank as usize == master_old_rank);
                let dup =
                    h.rank != u32::MAX && pending.iter().any(|(_, seen, _)| seen.rank == h.rank);
                if bogus || dup {
                    drop(s);
                } else {
                    pending.push((s, h, peer.ip()));
                }
            }
            Ok(_) | Err(_) => drop(s),
        }
    }
    let survivors = 1 + pending
        .iter()
        .filter(|(_, h, _)| h.rank != u32::MAX)
        .count();
    if survivors * 2 <= old_world {
        return Err(NetError::Protocol(format!(
            "resize quorum failed: {survivors} of {old_world} old ranks present \
             within the {:?} window",
            cfg.resize_window
        )));
    }
    let world = 1 + pending.len();
    // Dense ranks: self 0, survivors by old rank, then joiners by arrival.
    let mut order: Vec<usize> = (0..pending.len()).collect();
    order.sort_by_key(|&i| match pending[i].1.rank {
        u32::MAX => (1, i as u32),
        r => (0, r),
    });
    let mut assigned = vec![0usize; pending.len()];
    for (new_rank, &i) in order.iter().enumerate() {
        assigned[i] = new_rank + 1;
    }
    let (streams, tables) = master_publish_and_barrier(
        addr,
        world,
        generation,
        cfg.host_id,
        Some(master_old_rank as u32),
        pending,
        &assigned,
    )?;
    Ok((0, world, streams, tables))
}

/// A survivor's (or, via [`TcpEndpoint::join_resize`], a fresh joiner's)
/// side of a resize rendezvous: HELLO the elected master at the derived
/// address, presenting the old rank as an identity claim (`None` = no
/// prior identity), and build the mesh the WELCOME dictates.
#[allow(clippy::type_complexity)]
fn resize_worker(
    cfg: &NetConfig,
    old_rank: Option<usize>,
    generation: u64,
    addr: &str,
) -> Result<(usize, usize, Vec<Option<TcpStream>>, MeshTables), NetError> {
    let hello_rank = old_rank.map_or(u32::MAX, |r| r as u32);
    worker_mesh(cfg, addr, hello_rank, generation, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::encode_data_body;
    use crate::loopback::{tcp_loopback, tcp_loopback_with};
    use std::io::Write as _;

    #[test]
    fn world_of_one_needs_no_sockets() {
        let cfg = NetConfig::new(1, 0, "127.0.0.1:0");
        let ep = TcpEndpoint::connect(&cfg).unwrap();
        assert_eq!((ep.rank(), ep.world_size()), (0, 1));
        assert!(matches!(
            ep.send(0, vec![].into()).unwrap_err(),
            CollectiveError::InvalidRank { .. }
        ));
    }

    #[test]
    fn stamped_message_is_rejected_at_the_wire_boundary() {
        let eps = tcp_loopback(2).unwrap();
        let msg = Message::from(vec![1.0]).with_deliver_at(Instant::now());
        let err = eps[0].send(1, msg).unwrap_err();
        assert_eq!(err, CollectiveError::LocalStampOnWire);
    }

    #[test]
    fn oversize_send_is_rejected_before_framing() {
        // Boundary arithmetic on the helper (a real boundary payload would
        // be a 1 GiB allocation): the stamp and dtype tag's 9 bytes count
        // against the frame limit, so the largest sendable payload is
        // MAX_FRAME_BYTES − 9 wire bytes.
        let fits = MAX_FRAME_BYTES - DATA_BODY_OVERHEAD;
        assert_eq!(oversize_bytes(fits), None);
        assert_eq!(
            oversize_bytes(fits + 1),
            Some(MAX_FRAME_BYTES as u64 + 1),
            "one byte past the boundary must be flagged"
        );
    }

    #[test]
    fn stats_count_wire_bytes_both_ways() {
        let mut eps = tcp_loopback_with(2, |cfg| cfg.with_heartbeat(None, 1)).unwrap();
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        a.send(1, vec![1.0, 2.0].into()).unwrap();
        // One data frame: 5-byte header + 9-byte stamp/dtype + 2 × 4 payload.
        // Heartbeats are off: they ride the same counters.
        let expect = FRAME_HEADER_BYTES + DATA_BODY_OVERHEAD as u64 + 8;
        let sent = PeerStats {
            peer: 1,
            bytes_sent: expect,
            bytes_recv: 0,
        };
        assert_eq!(a.stats(), [sent], "exact the moment send returns");
        let msg = b.recv(0).unwrap();
        assert_eq!(msg.len(), 2);
        // The reader counts a frame before it hands it over.
        let received = PeerStats {
            peer: 0,
            bytes_sent: 0,
            bytes_recv: expect,
        };
        assert_eq!(b.stats(), [received]);
    }

    /// `n` f32 elements of arbitrary bit patterns (NaNs included), distinct
    /// per `tag`, as the payload they travel in.
    fn noise(n: usize, tag: u32) -> WireBuf {
        let elems: Vec<f32> = (0..n as u32)
            .map(|j| f32::from_bits(j.wrapping_mul(2_654_435_761).wrapping_add(tag)))
            .collect();
        WireBuf::from_f32(&elems)
    }

    #[test]
    fn symmetric_flood_is_bounded_by_the_readers_alone() {
        // Both ranks put 16 MiB on the link before either takes a byte
        // off — more than loopback's socket buffers hold, so every send
        // returns only because the peer's *reader* drains the socket while
        // the peer's caller is itself still sending.
        const FRAMES: u32 = 16;
        const ELEMS: usize = (1 << 20) / 4;
        let eps =
            tcp_loopback_with(2, |cfg| cfg.with_send_timeout(Duration::from_secs(2))).unwrap();
        let all_sent = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for ep in &eps {
                let all_sent = &all_sent;
                s.spawn(move || {
                    let (me, peer) = (ep.rank() as u32, 1 - ep.rank());
                    for i in 0..FRAMES {
                        ep.send(peer, Message::new(noise(ELEMS, me * FRAMES + i)))
                            .unwrap_or_else(|e| panic!("rank {me} send {i}: {e}"));
                    }
                    all_sent.wait();
                    for i in 0..FRAMES {
                        let got = ep.recv(peer).unwrap().into_payload();
                        let want = noise(ELEMS, peer as u32 * FRAMES + i);
                        assert!(got == want, "rank {me} frame {i} reordered or corrupt");
                    }
                });
            }
        });
    }

    #[test]
    fn heartbeat_probes_never_tear_a_data_frame() {
        // The monitor shares each link with `send`. Probing every
        // millisecond against a stream of 64 KiB frames, a probe written
        // inside a data frame would desynchronize the peer's decoder.
        const FRAMES: u32 = 2000;
        const ELEMS: usize = (64 << 10) / 4;
        // A miss budget this patient never declares a busy test host dead.
        let mut eps = tcp_loopback_with(2, |cfg| {
            cfg.with_heartbeat(Some(Duration::from_millis(1)), 30_000)
        })
        .unwrap();
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..FRAMES {
                    a.send(1, Message::new(noise(ELEMS, i))).unwrap();
                }
            });
            for i in 0..FRAMES {
                let got = b.recv(0).unwrap().into_payload();
                assert!(got == noise(ELEMS, i), "frame {i} corrupt");
                b.recycle_buffer(got.into_bytes());
            }
        });
        // Every byte written was a whole frame the peer decoded: the two
        // ends of the link agree once the probe in flight has landed.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let (sent, recv) = (a.stats()[0].bytes_sent, b.stats()[0].bytes_recv);
            if sent == recv {
                break;
            }
            assert!(Instant::now() < deadline, "sent {sent}, received {recv}");
            std::thread::yield_now();
        }
        let data_frame = FRAME_HEADER_BYTES + (DATA_BODY_OVERHEAD + 4 * ELEMS) as u64;
        assert!(
            a.stats()[0].bytes_sent > u64::from(FRAMES) * data_frame,
            "no probe was written next to the data"
        );
    }

    #[test]
    fn a_failed_write_latches_the_link() {
        const ELEMS: usize = (256 << 10) / 4;
        let send_deadline = Duration::from_secs(2);
        let mut eps = tcp_loopback_with(2, |cfg| {
            cfg.with_send_timeout(send_deadline).with_heartbeat(None, 1)
        })
        .unwrap();
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        // Something for rank 0 to drain after the link has died.
        b.send(0, vec![7.0].into()).unwrap();
        while a.stats()[0].bytes_recv == 0 {
            std::thread::yield_now();
        }
        std::thread::scope(|s| {
            let streaming = s.spawn(|| {
                // Far more than the peer will live to read.
                for i in 0..100_000 {
                    let start = Instant::now();
                    let sent = a.send(1, Message::new(noise(ELEMS, i)));
                    assert!(
                        start.elapsed() < send_deadline + Duration::from_secs(1),
                        "send {i} outlived its deadline: {:?}",
                        start.elapsed()
                    );
                    if let Err(e) = sent {
                        return e;
                    }
                }
                panic!("sends to a dropped peer never failed");
            });
            // The peer drops mid-stream.
            while b.stats()[0].bytes_recv < 4 * 4 * ELEMS as u64 {
                std::thread::yield_now();
            }
            drop(b);
            assert_eq!(
                streaming.join().unwrap(),
                CollectiveError::Disconnected { peer: 1 }
            );
        });
        // Latched: no later send reaches the socket's deadline.
        let start = Instant::now();
        for _ in 0..10 {
            assert_eq!(
                a.send(1, vec![1.0].into()).unwrap_err(),
                CollectiveError::Disconnected { peer: 1 }
            );
        }
        assert!(start.elapsed() < Duration::from_secs(1));
        // What arrived before the link died is still delivered.
        a.set_recv_timeout(Some(Duration::from_secs(5)));
        assert_eq!(a.recv(1).unwrap(), vec![7.0]);
        assert_eq!(
            a.recv(1).unwrap_err(),
            CollectiveError::Disconnected { peer: 1 }
        );
    }

    #[test]
    fn a_wedged_peer_times_the_write_out_and_latches_the_link() {
        // The peer holds its socket open and never reads: once the kernel's
        // buffers are full, a send must give up at its deadline, typed.
        let (ours, _theirs) = raw_pair();
        let mut cfg = NetConfig::new(2, 0, "127.0.0.1:0");
        cfg.heartbeat_interval = None;
        cfg.send_timeout = Duration::from_millis(200);
        let ep = endpoint_over(ours, &cfg);
        let err = (0..1024)
            .find_map(|i| ep.send(1, Message::new(noise(1 << 18, i))).err())
            .expect("a socket nobody reads took 1 GiB");
        assert_eq!(
            err,
            CollectiveError::Timeout {
                peer: 1,
                millis: 200
            }
        );
        // The timed-out write tore a frame, so nothing may follow it.
        let start = Instant::now();
        assert_eq!(
            ep.send(1, vec![1.0].into()).unwrap_err(),
            CollectiveError::Disconnected { peer: 1 }
        );
        assert!(start.elapsed() < Duration::from_millis(200));
    }

    /// A connected socket pair: `(accepted side, dialling side)`.
    fn raw_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (server, client)
    }

    /// A rank-0, world-2 endpoint whose single peer link is `stream` —
    /// lets tests drive the far side with raw frames.
    fn endpoint_over(stream: TcpStream, cfg: &NetConfig) -> TcpEndpoint {
        TcpEndpoint::from_mesh(0, cfg, vec![None, Some(stream)], MeshTables::pseudo(2)).unwrap()
    }

    #[test]
    fn torn_data_frame_surfaces_an_error_not_a_hang() {
        // A peer that dies between the frame header and the payload bytes
        // leaves a torn frame on the stream. The reader must end the
        // stream — surfacing a typed Disconnected promptly — rather than
        // blocking forever on the missing bytes.
        let (ours, theirs) = raw_pair();
        let mut cfg = NetConfig::new(2, 0, "127.0.0.1:0");
        cfg.heartbeat_interval = None;
        let ep = endpoint_over(ours, &cfg);
        let mut wire = Vec::new();
        crate::frame::write_data_frame(&mut wire, 0, &WireBuf::from_f32(&[1.0, 2.0])).unwrap();
        let mut s = theirs;
        s.write_all(&wire[..wire.len() - 3]).unwrap();
        drop(s); // die mid-frame
        ep.set_recv_timeout(Some(Duration::from_secs(5)));
        let start = Instant::now();
        let err = ep.recv(1).unwrap_err();
        assert_eq!(err, CollectiveError::Disconnected { peer: 1 });
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "torn frame took {:?} to surface",
            start.elapsed()
        );
    }

    #[test]
    fn corrupt_payload_length_ends_the_stream_with_a_typed_error() {
        // dtype f32 but 6 payload bytes: not whole elements. WireBuf
        // rejects it (the typed WireFormat guard), and the reader treats
        // the stream as corrupt — recv resolves, never hangs.
        let (ours, theirs) = raw_pair();
        let mut cfg = NetConfig::new(2, 0, "127.0.0.1:0");
        cfg.heartbeat_interval = None;
        let ep = endpoint_over(ours, &cfg);
        let mut s = theirs;
        let mut body = vec![0u8; 8]; // generation 0
        body.push(0); // dtype tag: f32
        body.extend_from_slice(&[1, 2, 3, 4, 5, 6]); // 6 bytes: not whole f32s
        write_frame(&mut s, FrameKind::Data, &body).unwrap();
        ep.set_recv_timeout(Some(Duration::from_secs(5)));
        let err = ep.recv(1).unwrap_err();
        assert_eq!(err, CollectiveError::Disconnected { peer: 1 });
    }

    #[test]
    fn silent_peer_is_declared_dead_and_aborts_the_endpoint() {
        let (ours, _theirs) = raw_pair();
        let mut cfg = NetConfig::new(2, 0, "127.0.0.1:0");
        cfg.heartbeat_interval = Some(Duration::from_millis(30));
        cfg.heartbeat_miss_budget = 3;
        let ep = endpoint_over(ours, &cfg);
        // The peer holds its socket open but never sends a byte: well
        // before this 5 s recv deadline, the monitor must declare it dead
        // and fail the recv with Aborted (not Timeout).
        ep.set_recv_timeout(Some(Duration::from_secs(5)));
        let start = Instant::now();
        let err = ep.recv(1).unwrap_err();
        assert_eq!(err, CollectiveError::Aborted { peer: 1 });
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "abort took {:?}, detector did not fire",
            start.elapsed()
        );
        // Sends fail fast with the same verdict once the teardown lands.
        let mut saw_abort = false;
        for _ in 0..200 {
            if let Err(e) = ep.send(1, vec![1.0].into()) {
                assert_eq!(e, CollectiveError::Aborted { peer: 1 });
                saw_abort = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(saw_abort, "send to a dead peer never surfaced the abort");
    }

    #[test]
    fn heartbeats_keep_an_idle_peer_alive_until_it_departs_gracefully() {
        let (ours, theirs) = raw_pair();
        let mut cfg = NetConfig::new(2, 0, "127.0.0.1:0");
        cfg.heartbeat_interval = Some(Duration::from_millis(30));
        cfg.heartbeat_miss_budget = 3;
        let ep = endpoint_over(ours, &cfg);
        let pulse = std::thread::spawn(move || {
            let mut s = theirs;
            // Idle for data but alive: heartbeats alone must hold off the
            // detector for far longer than the 90 ms miss allowance.
            for _ in 0..15 {
                write_frame(&mut s, FrameKind::Heartbeat, &encode_generation(0)).unwrap();
                std::thread::sleep(Duration::from_millis(20));
            }
            write_frame(&mut s, FrameKind::Shutdown, &[]).unwrap();
        });
        ep.set_recv_timeout(Some(Duration::from_secs(5)));
        let err = ep.recv(1).unwrap_err();
        // Disconnected, not Aborted: a graceful departure is not a failure.
        assert_eq!(err, CollectiveError::Disconnected { peer: 1 });
        pulse.join().unwrap();
    }

    #[test]
    fn stale_generation_frames_are_rejected_on_the_data_path() {
        let (ours, theirs) = raw_pair();
        let mut cfg = NetConfig::new(2, 0, "127.0.0.1:0");
        cfg.generation = 5;
        cfg.heartbeat_interval = None;
        let ep = endpoint_over(ours, &cfg);
        let mut s = theirs;
        let mut body = Vec::new();
        encode_data_body(4, &WireBuf::from_f32(&[1.0, 2.0]), &mut body);
        write_frame(&mut s, FrameKind::Data, &body).unwrap();
        ep.set_recv_timeout(Some(Duration::from_secs(5)));
        let err = ep.recv(1).unwrap_err();
        assert_eq!(
            err,
            CollectiveError::StaleGeneration {
                peer: 1,
                expected: 5,
                actual: 4
            }
        );
    }

    #[test]
    fn rendezvous_rejects_a_worker_from_another_generation() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let mut mcfg = NetConfig::new(2, 0, addr.clone());
        mcfg.generation = 1;
        mcfg.handshake_timeout = Duration::from_millis(400);
        let master =
            std::thread::spawn(move || TcpEndpoint::connect_with_listener(&mcfg, listener));
        let mut wcfg = NetConfig::new(2, 1, addr);
        wcfg.generation = 0;
        wcfg.handshake_timeout = Duration::from_secs(2);
        // The master refuses the stale HELLO (dropping the connection) and
        // then times out with nobody left to welcome; the worker sees its
        // rendezvous link die instead of a WELCOME.
        assert!(TcpEndpoint::connect(&wcfg).is_err());
        assert!(master.join().unwrap().is_err());
    }

    #[test]
    fn connect_retry_times_out_against_nobody() {
        let mut cfg = NetConfig::new(2, 1, "127.0.0.1:9"); // discard port
        cfg.connect_timeout = Duration::from_millis(100);
        let err = TcpEndpoint::connect(&cfg).unwrap_err();
        assert!(matches!(
            err,
            NetError::Timeout { .. } | NetError::Io { .. }
        ));
    }

    #[test]
    fn rendezvous_nobody_joins_reports_the_window_it_waited() {
        let mut cfg = NetConfig::new(2, 0, "127.0.0.1:0");
        cfg.handshake_timeout = Duration::from_millis(200);
        let err = TcpEndpoint::connect(&cfg).unwrap_err();
        assert!(
            err.to_string().starts_with("timed out after 200ms"),
            "{err}"
        );
    }

    #[test]
    fn concurrent_stale_peers_all_keep_their_verdicts() {
        // Satellite-3 regression: two peers from different old generations
        // send stale frames concurrently; the single-slot design used to
        // keep only the first verdict, so the other channel misreported.
        let (ours1, theirs1) = raw_pair();
        let (ours2, theirs2) = raw_pair();
        let mut cfg = NetConfig::new(3, 0, "127.0.0.1:0");
        cfg.generation = 7;
        cfg.heartbeat_interval = None;
        let ep = TcpEndpoint::from_mesh(
            0,
            &cfg,
            vec![None, Some(ours1), Some(ours2)],
            MeshTables::pseudo(3),
        )
        .unwrap();
        let mut body = Vec::new();
        encode_data_body(3, &WireBuf::from_f32(&[1.0]), &mut body);
        let mut s1 = theirs1;
        write_frame(&mut s1, FrameKind::Data, &body).unwrap();
        body.clear();
        encode_data_body(5, &WireBuf::from_f32(&[2.0]), &mut body);
        let mut s2 = theirs2;
        write_frame(&mut s2, FrameKind::Data, &body).unwrap();
        ep.set_recv_timeout(Some(Duration::from_secs(5)));
        let e1 = ep.recv(1).unwrap_err();
        let e2 = ep.recv(2).unwrap_err();
        assert_eq!(
            e1,
            CollectiveError::StaleGeneration {
                peer: 1,
                expected: 7,
                actual: 3
            }
        );
        assert_eq!(
            e2,
            CollectiveError::StaleGeneration {
                peer: 2,
                expected: 7,
                actual: 5
            }
        );
        assert_eq!(ep.stale_peers(), vec![(1, 3), (2, 5)]);
    }

    #[test]
    fn resize_port_is_deterministic_and_unprivileged() {
        for g in 1..50u64 {
            for probe in 0..NetConfig::RESIZE_PORT_PROBES {
                let p = resize_port(29400, g, probe);
                assert!(p >= 1024);
                assert_eq!(p, resize_port(29400, g, probe));
            }
        }
        assert_ne!(
            resize_port(29400, 1, 0),
            resize_port(29400, 2, 0),
            "consecutive generations must land on different ports"
        );
        // Probes of one generation are distinct from each other and from
        // the next generation's first derivation — a foreign owner at
        // probe k must not send survivors to a port another rendezvous
        // would also pick.
        let mut ports: Vec<u16> = (0..NetConfig::RESIZE_PORT_PROBES)
            .map(|probe| resize_port(29400, 1, probe))
            .collect();
        ports.push(resize_port(29400, 2, 0));
        let mut dedup = ports.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ports.len(), "derived ports collide: {ports:?}");
    }

    #[test]
    fn resize_master_rejects_bogus_old_rank_claims() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let cfg = NetConfig::new(4, 1, addr.clone())
            .with_connect_timeout(Duration::from_secs(5))
            .with_resize_window(Duration::from_millis(600));
        // The elected master's old rank is 1, old world 4.
        let master = std::thread::spawn({
            let cfg = cfg.clone();
            let addr = addr.clone();
            move || resize_master(&cfg, 1, 4, 1, &addr, &listener)
        });
        let hello = |claim: u32| {
            let mut s = TcpStream::connect(addr.as_str()).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let h = Hello {
                rank: claim,
                port: 1,
                generation: 1,
                host_id: NetConfig::UNKNOWN_HOST,
                host: String::new(),
            };
            write_frame(&mut s, FrameKind::Hello, &h.encode()).unwrap();
            s
        };
        // Claims that cannot be real survivors: rank 7 never existed in a
        // world of 4, and rank 1 is the elected master's own old rank.
        let mut ghost = hello(7);
        let mut shadow = hello(1);
        // Two genuine survivors, old ranks 0 and 3.
        let mut a = hello(0);
        let mut b = hello(3);
        let mut body = Vec::new();
        // Bogus claimants are dropped (EOF), never welcomed.
        assert!(
            read_frame(&mut ghost, &mut body).is_err(),
            "a claim outside the old world must be dropped"
        );
        assert!(
            read_frame(&mut shadow, &mut body).is_err(),
            "a claim of the master's own old rank must be dropped"
        );
        // Real survivors get dense ranks in old-rank order and a world
        // count the bogus claims did not inflate.
        for (s, want) in [(&mut a, 1u32), (&mut b, 2u32)] {
            assert_eq!(read_frame(s, &mut body).unwrap(), FrameKind::Welcome);
            let w = Welcome::decode(&body).unwrap();
            assert_eq!(w.world, 3, "bogus claims must not count toward the world");
            assert_eq!(w.rank, want, "dense old-rank order among real survivors");
            assert_eq!(
                w.prev_ranks,
                vec![1, 0, 3],
                "the WELCOME maps every new rank back to its old rank"
            );
            write_frame(s, FrameKind::Ready, &[]).unwrap();
        }
        for s in [&mut a, &mut b] {
            assert_eq!(read_frame(s, &mut body).unwrap(), FrameKind::Go);
        }
        let (rank, world, streams, tables) = master.join().unwrap().unwrap();
        assert_eq!((rank, world), (0, 3));
        assert_eq!(streams.iter().flatten().count(), 2);
        assert_eq!(tables.prev_ranks, vec![1, 0, 3]);
    }

    #[test]
    fn resize_advances_past_a_foreign_port_owner() {
        // Handshake deadline (1 s) must out-wait the membership window
        // (500 ms) for workers parked on the real rendezvous, while the
        // stall against the foreign listener is bounded by that same
        // handshake deadline.
        let mut eps = tcp_loopback_with(3, |cfg| {
            cfg.with_connect_timeout(Duration::from_secs(1))
                .with_resize_window(Duration::from_millis(500))
        })
        .unwrap();
        let (_, base_port) = split_host_port(&eps[0].cfg.master_addr).unwrap();
        // An unrelated process owns the first derived port: it accepts
        // connections (listen backlog) but never speaks our protocol, so
        // every survivor fails the probe-0 handshake and must advance to
        // probe 1. If the bind fails because some other process on this
        // machine really owns the port, the scenario is the same.
        let foreign = TcpListener::bind(("127.0.0.1", resize_port(base_port, 1, 0)));
        let victim = eps.remove(2);
        drop(victim);
        let changes: Vec<WorldChange> = std::thread::scope(|s| {
            let handles: Vec<_> = eps
                .iter_mut()
                .map(|ep| s.spawn(move || ep.reconfigure(None).unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        drop(foreign);
        let mut new_ranks: Vec<usize> = changes.iter().map(|c| c.new_rank).collect();
        new_ranks.sort_unstable();
        assert_eq!(new_ranks, vec![0, 1]);
        for (ep, change) in eps.iter().zip(&changes) {
            assert_eq!(change.new_world, 2);
            assert_eq!(ep.world_size(), 2);
            assert_eq!(ep.generation(), 1);
            // The rendezvous formed at the second derivation.
            let (_, port) = split_host_port(&ep.cfg.master_addr).unwrap();
            assert_eq!(port, resize_port(base_port, 1, 1));
        }
        // The resized world still runs a correct all-reduce.
        std::thread::scope(|s| {
            for ep in &eps {
                s.spawn(move || {
                    let mut data = vec![ep.rank() as f32 + 1.0; 16];
                    dear_collectives::ring_all_reduce(
                        ep,
                        &mut data,
                        dear_collectives::ReduceOp::Sum,
                    )
                    .unwrap();
                    assert_eq!(data, vec![3.0; 16]);
                });
            }
        });
    }

    #[test]
    fn off_host_master_addr_joins_as_worker_instead_of_failing_bind() {
        // On a multi-host deployment, the derived resize address lives on
        // the master host: a survivor elsewhere gets `AddrNotAvailable`
        // from the bind and must dial in as a worker, not fail the resize
        // outright. With the master host dead (as here — TEST-NET never
        // answers), every probe's worker dial fails and the reconfigure
        // error reflects the failed *connect*, leaving the supervised
        // restart as the fallback.
        let cfg = NetConfig::new(1, 0, "203.0.113.1:29500")
            .with_connect_timeout(Duration::from_millis(200))
            .with_resize_window(Duration::from_millis(100));
        let mut ep = TcpEndpoint::connect(&cfg).unwrap();
        let err = ep.reconfigure(None).unwrap_err();
        let CollectiveError::Reconfigure { reason } = err else {
            panic!("expected a Reconfigure error, got {err:?}");
        };
        // Depending on the network, the dead host manifests as a connect
        // timeout or a reset during the handshake — both are worker-side
        // failures. What must NOT surface is the local bind error.
        assert!(
            !reason.contains("binding resize listener"),
            "an unbindable derived host must degrade to a worker dial, got: {reason}"
        );
        assert!(
            reason.contains("connecting to") || reason.contains("master"),
            "the failure must come from the worker dial/handshake, got: {reason}"
        );
    }

    #[test]
    fn shrink_reconfigures_survivors_to_a_dense_world() {
        let mut eps = tcp_loopback_with(4, |cfg| {
            cfg.with_connect_timeout(Duration::from_secs(5))
                .with_resize_window(Duration::from_millis(800))
        })
        .unwrap();
        // Rank 2 dies abruptly (drop closes its sockets).
        let victim = eps.remove(2);
        drop(victim);
        let changes: Vec<WorldChange> = std::thread::scope(|s| {
            let handles: Vec<_> = eps
                .iter_mut()
                .map(|ep| s.spawn(move || ep.reconfigure(None).unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Dense ranks 0..3, each exactly once; world 3 everywhere; old
        // ranks preserved in the change records.
        let mut new_ranks: Vec<usize> = changes.iter().map(|c| c.new_rank).collect();
        new_ranks.sort_unstable();
        assert_eq!(new_ranks, vec![0, 1, 2]);
        for (ep, change) in eps.iter().zip(&changes) {
            assert_eq!(change.old_world, 4);
            assert_eq!(change.new_world, 3);
            assert_eq!(change.generation, 1);
            assert_eq!(ep.rank(), change.new_rank);
            assert_eq!(ep.world_size(), 3);
            assert_eq!(ep.generation(), 1);
        }
        // Survivors other than the elected master keep their relative
        // old-rank order at ranks 1..: the two non-master survivors must
        // be ordered by their old ranks.
        let mut non_master: Vec<(usize, usize)> = changes
            .iter()
            .filter(|c| c.new_rank != 0)
            .map(|c| (c.new_rank, c.old_rank))
            .collect();
        non_master.sort_unstable();
        let old_order: Vec<usize> = non_master.iter().map(|&(_, o)| o).collect();
        let mut sorted = old_order.clone();
        sorted.sort_unstable();
        assert_eq!(old_order, sorted, "old-rank order preserved at ranks 1..");
        // The resized world runs a correct all-reduce.
        std::thread::scope(|s| {
            for ep in &eps {
                s.spawn(move || {
                    let mut data = vec![ep.rank() as f32 + 1.0; 16];
                    dear_collectives::ring_all_reduce(
                        ep,
                        &mut data,
                        dear_collectives::ReduceOp::Sum,
                    )
                    .unwrap();
                    assert_eq!(data, vec![6.0; 16]); // 1+2+3
                });
            }
        });
    }

    #[test]
    fn grow_admits_a_fresh_joiner_at_the_next_rank() {
        // Build a 2-rank world by hand so the test knows the original
        // master address the joiner derives the resize address from.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let tweak = |cfg: NetConfig| {
            cfg.with_connect_timeout(Duration::from_secs(5))
                .with_resize_window(Duration::from_millis(800))
        };
        let cfg0 = tweak(NetConfig::new(2, 0, addr.clone()));
        let cfg1 = tweak(NetConfig::new(2, 1, addr.clone()));
        let (mut ep0, mut ep1) = std::thread::scope(|s| {
            let w = s.spawn(move || TcpEndpoint::connect(&cfg1).unwrap());
            let ep0 = TcpEndpoint::connect_with_listener(&cfg0, listener).unwrap();
            (ep0, w.join().unwrap())
        });
        let jcfg = tweak(NetConfig::new(2, 1, addr));
        let (c0, c1, joiner) = std::thread::scope(|s| {
            let h0 = s.spawn(|| ep0.reconfigure(None).unwrap());
            let h1 = s.spawn(|| ep1.reconfigure(None).unwrap());
            let hj = s.spawn(move || TcpEndpoint::join_resize(&jcfg, 1).unwrap());
            (h0.join().unwrap(), h1.join().unwrap(), hj.join().unwrap())
        });
        assert_eq!(c0.new_world, 3);
        assert_eq!(c1.new_world, 3);
        assert_eq!(joiner.world_size(), 3);
        assert_eq!(joiner.rank(), 2, "fresh joiners are appended last");
        assert_eq!(joiner.generation(), 1);
        let eps = [&ep0, &ep1, &joiner];
        std::thread::scope(|s| {
            for ep in eps {
                s.spawn(move || {
                    let mut data = vec![ep.rank() as f32 + 1.0; 8];
                    dear_collectives::ring_all_reduce(
                        ep,
                        &mut data,
                        dear_collectives::ReduceOp::Sum,
                    )
                    .unwrap();
                    assert_eq!(data, vec![6.0; 8]);
                });
            }
        });
    }

    #[test]
    fn resize_without_quorum_fails_with_a_typed_error() {
        let mut eps = tcp_loopback_with(4, |cfg| {
            cfg.with_connect_timeout(Duration::from_secs(5))
                .with_resize_window(Duration::from_millis(300))
        })
        .unwrap();
        // Three of four ranks die: one survivor is not a majority.
        let survivor = eps.remove(1);
        drop(eps);
        let mut survivor = survivor;
        let err = survivor.reconfigure(None).unwrap_err();
        assert!(
            matches!(err, CollectiveError::Reconfigure { ref reason } if reason.contains("quorum")),
            "{err}"
        );
    }
}
