//! The [`Transport`] contract, stated once and run against every fabric.
//!
//! DeAR's decoupling rests on AR ≡ RS∘AG holding bit for bit, and that is
//! only true if every fabric is a pure carrier. The trait's rustdoc states
//! what a fabric promises; this file is its executable statement. Each
//! clause is one generic function over a factory `world → endpoints`
//! (element `r` is rank `r`), and each fabric runs all of them through one
//! `contract!` line. Clauses 2, 3, 8, 10, 11 and 12 run as one case per
//! condition they name (`c2_…`, `c3_…`, `c8_…`, `c10_…`, `c11_…`, `c12_…`), so a
//! failure says which one broke:
//!
//! 1. ranks are `0..world` and agree on `world_size`; a world of one works;
//! 2. each link is FIFO and bit-exact (NaN payloads, −0.0, subnormals; a
//!    bf16/f16 payload keeps its dtype and byte count), independently of
//!    every other link;
//! 3. `send` and `recv` refuse self and out-of-range peers with
//!    `InvalidRank`;
//! 4. each of two ranks can post [`MIN_LINK_FRAMES`] sends to the other
//!    before either receives;
//! 5. what a peer sent before its endpoint dropped is delivered, then
//!    `Disconnected`, and sends to it fail;
//! 6. with no message queued, `recv` gives `Timeout { peer, millis }` at
//!    the deadline `set_recv_timeout` set; `None` restores blocking;
//! 7. `take_buffer` after `recycle_buffer` hands back that allocation;
//! 8. every all-reduce family, back to back on one world and on every wire,
//!    lands bit for bit where `LocalFabric` lands it;
//! 9. (fabrics that resize) after a peer drops, the survivors drain it and
//!    see it `Disconnected`; their shrink gives them dense ranks and one
//!    generation, drops all stale traffic, and leaves a world that computes
//!    exactly what a fresh one does; a fabric told its survivors refuses a
//!    bad list and stays as it was;
//! 10. `lend_f32` that returns no loan is `send` of the slice's f32
//!     encoding: the same bits arrive, in FIFO order with `send`, and
//!     clauses 3 and 5's errors hold (a fabric that lends passes it too,
//!     its lent chunks read by `recv` as copies);
//! 11. what `lend_f32` lends is what it would have sent: a lent chunk
//!     arrives bit for bit through a hop receive (`recv_parcel`) and, copied,
//!     through `recv`, in FIFO order with `send`; its loan settles at once
//!     after the peer's receive, ends in `Disconnected` (or `Aborted`) when
//!     the peer departs — also when the lease was still queued at a dropped
//!     endpoint — and in `Timeout` past the lender's deadline, after which
//!     the peer gets `Aborted`, never the chunk. A fabric that copies
//!     (`lend_f32` returns no loan) passes it as clause 10;
//! 12. `recv_parcel` without `wait` is a receive that does not wait: with
//!     nothing queued it reports nothing at once, and it refuses self and
//!     out-of-range peers. On a transport that polls, what it returns comes
//!     in FIFO order with `recv`, waiting `recv_parcel`s and lent chunks;
//!     from a departed peer it drains what was sent before, then reports
//!     `Disconnected`; and on `DelayFabric` it reports nothing before a
//!     message's delivery stamp and the message after it. On one that keeps
//!     the trait's default it takes nothing off the link: a message polled
//!     a hundred times is still the next one a waiting receive delivers.
//!
//! An error names its peer as the fabric that detected it numbers it: a
//! [`GroupTransport`] view reports its inner transport's rank
//! ([`Endpoint::reported`]).

use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

use dear_collectives::{
    CollectiveError, CostModel, DType, DelayFabric, GroupTransport, Loan, LocalEndpoint,
    LocalFabric, Message, Parcel, Transport, WireBuf, WorldChange, MIN_LINK_FRAMES,
};
use dear_net::{
    tcp_loopback_with, tiered_loopback_with, NetConfig, ShmFabric, TcpEndpoint, TieredEndpoint,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod common;
use common::{bit_identical, collectives, run};

/// What the clauses need of an endpoint.
trait Endpoint: Transport + Send + Sync + 'static {
    /// `peer` as this endpoint's `Timeout` and `Disconnected` name it.
    fn reported(&self, peer: usize) -> usize {
        peer
    }
}

impl Endpoint for LocalEndpoint {}
impl Endpoint for DelayFabric<LocalEndpoint> {}
impl Endpoint for TcpEndpoint {}
impl Endpoint for TieredEndpoint {}

/// A full-membership [`GroupTransport`] over its own endpoint. Members are
/// listed in reverse, so group rank `g` is inner rank `world − 1 − g` and
/// every clause runs through the renumbering.
struct View {
    inner: LocalEndpoint,
    members: Arc<Vec<usize>>,
}

impl View {
    fn group(&self) -> GroupTransport<'_, LocalEndpoint> {
        GroupTransport::new(&self.inner, Arc::clone(&self.members)).expect("every rank is a member")
    }
}

impl Transport for View {
    fn rank(&self) -> usize {
        self.group().rank()
    }

    fn world_size(&self) -> usize {
        self.members.len()
    }

    fn send(&self, to: usize, msg: Message) -> Result<(), CollectiveError> {
        self.group().send(to, msg)
    }

    unsafe fn lend_f32(&self, to: usize, src: &[f32]) -> Result<Option<Loan>, CollectiveError> {
        // SAFETY: the caller's contract, passed on unchanged.
        unsafe { self.group().lend_f32(to, src) }
    }

    fn recv(&self, from: usize) -> Result<Message, CollectiveError> {
        self.group().recv(from)
    }

    fn recv_parcel(&self, from: usize, wait: bool) -> Result<Option<Parcel>, CollectiveError> {
        self.group().recv_parcel(from, wait)
    }

    fn set_recv_timeout(&self, timeout: Option<Duration>) -> bool {
        self.group().set_recv_timeout(timeout)
    }

    fn take_buffer(&self, capacity_bytes: usize) -> Vec<u8> {
        self.group().take_buffer(capacity_bytes)
    }

    fn recycle_buffer(&self, buf: Vec<u8>) {
        self.group().recycle_buffer(buf);
    }
}

impl Endpoint for View {
    fn reported(&self, peer: usize) -> usize {
        self.members[peer]
    }
}

/// A decorator that observes its link the way a tracing layer does: it
/// implements only what a transport must and forwards the deadline, the
/// pool and the resize, so `lend_f32` and `recv_parcel` are the trait's
/// defaults — it copies, and its poll reports nothing.
struct Observer {
    inner: LocalEndpoint,
}

impl Transport for Observer {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn world_size(&self) -> usize {
        self.inner.world_size()
    }

    fn send(&self, to: usize, msg: Message) -> Result<(), CollectiveError> {
        self.inner.send(to, msg)
    }

    fn recv(&self, from: usize) -> Result<Message, CollectiveError> {
        self.inner.recv(from)
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

    fn reconfigure(&mut self, survivors: Option<&[usize]>) -> Result<WorldChange, CollectiveError> {
        self.inner.reconfigure(survivors)
    }
}

impl Endpoint for Observer {}

fn observed(world: usize) -> Vec<Observer> {
    LocalFabric::create(world)
        .into_iter()
        .map(|inner| Observer { inner })
        .collect()
}

fn views(world: usize) -> Vec<View> {
    let members = Arc::new((0..world).rev().collect::<Vec<_>>());
    let mut inner = LocalFabric::create(world);
    inner.reverse();
    inner
        .into_iter()
        .map(|inner| View {
            inner,
            members: Arc::clone(&members),
        })
        .collect()
}

/// Every message waits out a 20 µs + 1 ns/B link, so every clause runs with
/// delivery stamps.
fn delayed(world: usize) -> Vec<DelayFabric<LocalEndpoint>> {
    let link = CostModel::new(20_000.0, 1.0, 0.0);
    LocalFabric::create(world)
        .into_iter()
        .map(|ep| DelayFabric::new(ep, link))
        .collect()
}

/// A resize window that survivors on one loaded host still make.
fn tcp_cfg(cfg: NetConfig) -> NetConfig {
    cfg.with_resize_window(Duration::from_millis(400))
}

/// Without a failure detector: dropping an shm endpoint joins its
/// heartbeat thread, which sleeps up to 200 ms between beats, and the
/// detector has tests of its own.
fn shm_cfg(cfg: NetConfig) -> NetConfig {
    tcp_cfg(cfg).with_heartbeat(None, 1)
}

/// The in-process fabric again, built from a `NetConfig` with rings at the
/// smallest depth it accepts: asked for none, it builds [`MIN_LINK_FRAMES`]
/// (the field is set directly, so the floor is the fabric's own, not the
/// config builder's). Where `local`'s 128-frame rings never fill in a
/// clause, these fill in most, so every wait on a full ring runs too.
fn shm(world: usize) -> Vec<LocalEndpoint> {
    let mut cfg = shm_cfg(NetConfig::new(world, 0, "127.0.0.1:0"));
    cfg.outbox_frames = 0;
    ShmFabric::with_config(&cfg, &(0..world).collect::<Vec<_>>())
}

fn tcp(world: usize) -> Vec<TcpEndpoint> {
    tcp_loopback_with(world, tcp_cfg).unwrap()
}

/// Every data hop on one host's shm tier.
fn tiered_1xn(world: usize) -> Vec<TieredEndpoint> {
    tiered_loopback_with(1, world, shm_cfg).unwrap()
}

/// Two hosts when the world splits evenly (2 × 1 is all TCP, 2 × 2 mixes
/// both tiers in one collective), else one.
fn tiered_2xn(world: usize) -> Vec<TieredEndpoint> {
    let hosts = if world.is_multiple_of(2) { 2 } else { 1 };
    tiered_loopback_with(hosts, world / hosts, shm_cfg).unwrap()
}

/// Runs `clause` on its own thread and fails it if it is still running
/// after a minute: a fabric that hangs where it should answer fails the
/// clause instead of wedging the suite.
fn bounded<R: Send + 'static>(clause: impl FnOnce() -> R + Send + 'static) -> R {
    let (done, finished) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let out = clause();
        let _ = done.send(());
        out
    });
    if let Err(mpsc::RecvTimeoutError::Timeout) = finished.recv_timeout(Duration::from_secs(60)) {
        panic!("the clause is still running after 60 s");
    }
    worker
        .join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

/// Clause 1.
fn ranks<E: Endpoint>(world: impl Fn(usize) -> Vec<E>) {
    for n in [1, 4, 5] {
        let eps = world(n);
        assert_eq!(eps.len(), n);
        for (r, ep) in eps.iter().enumerate() {
            assert_eq!((ep.rank(), ep.world_size()), (r, n));
        }
    }
    let alone = world(1);
    assert_eq!(
        alone[0].send(0, vec![1.0].into()),
        Err(CollectiveError::InvalidRank { rank: 0, world: 1 })
    );
}

/// Message `k` on the link `from → to` on `wire`: distinct per link and
/// position.
fn probe(from: usize, to: usize, k: usize, wire: DType) -> WireBuf {
    let tag = (16 * from + 4 * to + k) as u32;
    let elems = [
        tag as f32,
        -0.0,
        f32::from_bits(0x7FC0_0000 | tag), // a NaN with a payload
        f32::from_bits(1 + tag),           // subnormal
        -f32::MIN_POSITIVE / 3.0,          // subnormal
        f32::INFINITY,
    ];
    WireBuf::encode(&elems, wire)
}

/// Clause 2. In a world of `n`, every rank posts three messages on each of
/// its links, message `k` on `wires[k % wires.len()]`, then drains the
/// links in the reverse order of the sends.
fn fifo<E: Endpoint>(world: impl Fn(usize) -> Vec<E>, n: usize, wires: &[DType]) {
    let eps = world(n);
    let message = |from, to, k| probe(from, to, k, wires[k % wires.len()]);
    run(&eps, |ep| {
        let me = ep.rank();
        let peers: Vec<usize> = (0..n).filter(|&p| p != me).collect();
        for k in 0..3 {
            for &to in &peers {
                ep.send(to, Message::new(message(me, to, k))).unwrap();
            }
        }
        for &from in peers.iter().rev() {
            for k in 0..3 {
                let got = ep.recv(from).unwrap().into_payload();
                let want = message(from, me, k);
                assert_eq!(
                    (got.dtype(), got.num_bytes()),
                    (want.dtype(), want.num_bytes())
                );
                assert_eq!(got.bytes(), want.bytes(), "message {k} of {from} → {me}");
            }
        }
    });
}

/// How a case hands `values` to a fabric.
#[derive(Clone, Copy)]
enum Via {
    /// `send` of a `Message`.
    Send,
    /// `lend_f32` of the slice (clause 10).
    LendF32,
}

/// Sends `values` to `to` as `via` says; the loan of a lent chunk.
fn send_via<E: Endpoint>(
    ep: &E,
    to: usize,
    values: &[f32],
    via: Via,
) -> Result<Option<Loan>, CollectiveError> {
    match via {
        Via::Send => ep.send(to, values.to_vec().into()).map(|()| None),
        Via::LendF32 => lend(ep, to, values),
    }
}

/// Clause 3: each rank names itself, or ranks past the world.
fn invalid_ranks<E: Endpoint>(world: impl Fn(usize) -> Vec<E>, itself: bool, via: Via) {
    for ep in &world(2) {
        let peers = if itself { vec![ep.rank()] } else { vec![2, 5] };
        for peer in peers {
            let invalid = CollectiveError::InvalidRank {
                rank: peer,
                world: 2,
            };
            assert_eq!(send_via(ep, peer, &[1.0], via).unwrap_err(), invalid);
            assert_eq!(ep.recv(peer).unwrap_err(), invalid);
        }
    }
}

/// Clause 4.
fn eager<E: Endpoint>(world: impl Fn(usize) -> Vec<E>) {
    let eps = world(2);
    let posted = Barrier::new(2);
    run(&eps, |ep| {
        let peer = 1 - ep.rank();
        for k in 0..MIN_LINK_FRAMES {
            ep.send(peer, vec![k as f32; 64].into()).unwrap();
        }
        posted.wait();
        for k in 0..MIN_LINK_FRAMES {
            assert_eq!(ep.recv(peer).unwrap(), vec![k as f32; 64]);
        }
    });
}

/// Clause 5.
fn departure<E: Endpoint>(world: impl Fn(usize) -> Vec<E>, via: Via) {
    let mut eps = world(2);
    let stays = eps.pop().unwrap();
    let leaves = eps.pop().unwrap();
    let (first, second) = ([42.0f32], [43.0f32]);
    let loans = [
        send_via(&leaves, 1, &first, via).unwrap(),
        send_via(&leaves, 1, &second, via).unwrap(),
    ];
    drop(leaves);
    assert_eq!(stays.recv(0).unwrap(), vec![42.0]);
    assert_eq!(stays.recv(0).unwrap(), vec![43.0]);
    for loan in loans.into_iter().flatten() {
        assert_eq!(loan.settle(), Ok(()), "the copies released the leases");
    }
    let gone = CollectiveError::Disconnected {
        peer: stays.reported(0),
    };
    assert_eq!(stays.recv(0).unwrap_err(), gone);
    // A socket or a ring may still take a message or two before the send
    // side notices.
    let refused = (0..200).find_map(|_| {
        let sent = send_via(&stays, 0, &[1.0], via).err();
        if sent.is_none() {
            std::thread::sleep(Duration::from_millis(5));
        }
        sent
    });
    assert_eq!(refused, Some(gone));
}

/// Clause 6: then, with the deadline cleared, a queued message is
/// delivered and a late one is waited for.
fn deadline<E: Endpoint>(world: impl Fn(usize) -> Vec<E>) {
    let eps = world(2);
    let d = Duration::from_millis(30);
    assert!(eps[0].set_recv_timeout(Some(d)));
    let start = Instant::now();
    assert_eq!(
        eps[0].recv(1).unwrap_err(),
        CollectiveError::Timeout {
            peer: eps[0].reported(1),
            millis: 30
        }
    );
    assert!(start.elapsed() >= d);
    assert!(eps[0].set_recv_timeout(None));
    eps[1].send(0, vec![3.0].into()).unwrap();
    assert_eq!(eps[0].recv(1).unwrap(), vec![3.0]);
    std::thread::scope(|s| {
        s.spawn(|| {
            std::thread::sleep(3 * d);
            eps[1].send(0, vec![4.0].into()).unwrap();
        });
        assert_eq!(eps[0].recv(1).unwrap(), vec![4.0]);
    });
}

/// Clause 7: a buffer the caller hands back, and the payload of a received
/// message.
fn pool<E: Endpoint>(world: impl Fn(usize) -> Vec<E>) {
    let eps = world(2);
    let reused = |buf: Vec<u8>| {
        let (cap, ptr) = (buf.capacity(), buf.as_ptr());
        eps[1].recycle_buffer(buf);
        let again = eps[1].take_buffer(4);
        assert!(again.is_empty());
        assert_eq!((again.capacity(), again.as_ptr()), (cap, ptr));
    };
    let mut buf = eps[1].take_buffer(16);
    buf.extend_from_slice(&[1, 2]);
    reused(buf);
    eps[0].send(1, vec![5.0; 8].into()).unwrap();
    reused(eps[1].recv(0).unwrap().into_payload().into_bytes());
}

const WIRES: [DType; 3] = [DType::F32, DType::Bf16, DType::F16];

/// Clause 10: what `lend_f32` delivers is what `send` delivers for the
/// slice's f32 encoding, bit for bit: NaN payloads, −0.0, subnormals and an
/// empty slice, each sent both ways back to back.
fn send_f32_is_send_of_its_encoding<E: Endpoint>(world: impl Fn(usize) -> Vec<E>) {
    let eps = world(2);
    let f32_probe = probe(0, 1, 0, DType::F32).to_f32_vec();
    let payloads: [&[f32]; 4] = [
        &f32_probe,
        &[
            f32::from_bits(0xFFBF_FFFF),
            f32::from_bits(0x7F80_0001),
            -0.0,
        ],
        &[f32::from_bits(1), f32::from_bits(0x807F_FFFF), 0.0],
        &[],
    ];
    for src in payloads {
        let loan = lend(&eps[0], 1, src).unwrap();
        eps[0]
            .send(1, WireBuf::encode(src, DType::F32).into())
            .unwrap();
        let direct = eps[1].recv(0).unwrap().into_payload();
        let encoded = eps[1].recv(0).unwrap().into_payload();
        assert_eq!(direct.dtype(), DType::F32);
        assert_eq!(direct.len_elems(), src.len());
        assert_eq!(direct, WireBuf::encode(src, DType::F32));
        assert_eq!(direct, encoded);
        if let Some(loan) = loan {
            assert_eq!(loan.settle(), Ok(()));
        }
    }
}

/// Lends `src` to `to` (clause 11).
fn lend<E: Endpoint>(ep: &E, to: usize, src: &[f32]) -> Result<Option<Loan>, CollectiveError> {
    // SAFETY: every case settles or drops its loans before `src` goes.
    unsafe { ep.lend_f32(to, src) }
}

/// The bits a hop receive from `from` gets, lent or not.
fn received_bits<E: Endpoint>(ep: &E, from: usize) -> Vec<u32> {
    let parcel = ep.recv_parcel(from, true).unwrap();
    parcel_bits(parcel.expect("a waiting receive returns a parcel"))
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|x| x.to_bits()).collect()
}

/// Clause 11: NaNs with random sign and payload, −0.0, subnormals and the
/// empty chunk arrive bit for bit from rank 0, through a hop receive and
/// through `recv`, at each `(peer, lends)` of `links`; rank 0 lends every
/// one to a peer marked `lends` (a fabric whose two ranks share a host
/// does) and none to the others.
fn lent_chunks_arrive_bit_identical<E: Endpoint>(eps: &[E], links: &[(usize, bool)]) {
    let mut rng = StdRng::seed_from_u64(11);
    let nans: Vec<f32> = (0..64)
        .map(|_| {
            let sign = if rng.gen_bool(0.5) { 0x8000_0000 } else { 0 };
            let payload = rng.gen_range(1..0x0080_0000u32);
            f32::from_bits(sign | 0x7F80_0000 | payload)
        })
        .collect();
    let payloads: [&[f32]; 4] = [
        &nans,
        &[-0.0, 0.0, -0.0],
        &[
            f32::from_bits(1),
            f32::from_bits(0x807F_FFFF),
            -f32::MIN_POSITIVE / 3.0,
        ],
        &[],
    ];
    for src in payloads {
        for &(to, lends) in links {
            let loan = lend(&eps[0], to, src).unwrap();
            assert_eq!(loan.is_some(), lends, "lent to {to}");
            assert_eq!(received_bits(&eps[to], 0), bits(src));
            if let Some(loan) = loan {
                assert_eq!(loan.settle(), Ok(()));
            }
            let loan = lend(&eps[0], to, src).unwrap();
            let copy = eps[to].recv(0).unwrap().into_payload();
            assert_eq!(copy, WireBuf::encode(src, DType::F32), "`recv` gets a copy");
            if let Some(loan) = loan {
                assert_eq!(loan.settle(), Ok(()), "the copy released the lease");
            }
        }
    }
}

/// Clauses 10 and 11: `lend_f32` and `send` share one FIFO link (as many
/// messages as clause 4 lets a link hold before its receiver takes one),
/// received by `recv` or, with `hop`, by the hop receive.
fn lends_keep_fifo_with_send<E: Endpoint>(world: impl Fn(usize) -> Vec<E>, hop: bool) {
    let eps = world(2);
    let values: Vec<Vec<f32>> = (0..MIN_LINK_FRAMES)
        .map(|k| vec![k as f32; 1 + 16 * k])
        .collect();
    let mut loans = Vec::new();
    for (k, v) in values.iter().enumerate() {
        let via = if k % 2 == 0 { Via::LendF32 } else { Via::Send };
        loans.extend(send_via(&eps[0], 1, v, via).unwrap());
    }
    for (k, v) in values.iter().enumerate() {
        let got = if hop {
            received_bits(&eps[1], 0)
        } else {
            bits(&eps[1].recv(0).unwrap().into_payload().to_f32_vec())
        };
        assert_eq!(got, bits(v), "message {k}");
    }
    for loan in loans {
        assert_eq!(loan.settle(), Ok(()));
    }
}

/// Clause 11: a settle waiting on a peer ends when the peer departs; past
/// the lender's deadline it revokes the lease, and the peer then gets
/// `Aborted`, never the chunk.
fn a_settle_gives_up_on_a_departed_or_late_peer<E: Endpoint>(world: impl Fn(usize) -> Vec<E>) {
    let mut eps = world(2);
    let src = vec![7.0f32; 256];
    let loan = lend(&eps[0], 1, &src).unwrap();
    let gone = [
        CollectiveError::Disconnected {
            peer: eps[0].reported(1),
        },
        CollectiveError::Aborted {
            peer: eps[0].reported(1),
        },
    ];
    let receiver = eps.pop().unwrap();
    std::thread::scope(|s| {
        let settle = s.spawn(move || loan.map(Loan::settle));
        std::thread::sleep(Duration::from_millis(20));
        drop(receiver);
        if let Some(ended) = settle.join().unwrap() {
            assert!(ended.as_ref().is_err_and(|e| gone.contains(e)), "{ended:?}");
        }
    });

    let eps = world(2);
    let d = Duration::from_millis(30);
    assert!(eps[0].set_recv_timeout(Some(d)));
    let mut src = vec![8.0f32; 256];
    if let Some(loan) = lend(&eps[0], 1, &src).unwrap() {
        assert_eq!(
            loan.settle(),
            Err(CollectiveError::Timeout {
                peer: eps[0].reported(1),
                millis: 30
            })
        );
        src.fill(-1.0);
        assert_eq!(
            eps[1].recv(0).unwrap_err(),
            CollectiveError::Aborted {
                peer: eps[1].reported(0)
            },
            "a revoked lease is never read"
        );
    }
}

/// Clause 11: leases still queued at an endpoint that drops are released
/// with it, so their settles end at once.
fn a_lease_queued_at_a_dropped_endpoint_is_released<E: Endpoint>(world: impl Fn(usize) -> Vec<E>) {
    let mut eps = world(2);
    let first = vec![1.0f32; 64];
    let second = vec![2.0f32; 64];
    let loans: Vec<Loan> = [&first, &second]
        .into_iter()
        .flat_map(|src| {
            eps[0].send(1, vec![0.5].into()).unwrap();
            lend(&eps[0], 1, src).unwrap()
        })
        .collect();
    drop(eps.pop());
    for loan in loans {
        let start = Instant::now();
        assert_eq!(
            loan.settle(),
            Err(CollectiveError::Disconnected {
                peer: eps[0].reported(1)
            })
        );
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "the settle waited"
        );
    }
}

/// Clause 11: once the peer's receive has returned, a settle does not wait
/// (no deadline is set, so a settle that waited would hang).
fn a_settle_after_the_receive_does_not_wait<E: Endpoint>(world: impl Fn(usize) -> Vec<E>) {
    let eps = world(2);
    let src = vec![3.0f32; 1024];
    for hop in [true, false] {
        let loan = lend(&eps[0], 1, &src).unwrap();
        if hop {
            assert_eq!(received_bits(&eps[1], 0), bits(&src));
        } else {
            assert_eq!(eps[1].recv(0).unwrap(), src);
        }
        if let Some(loan) = loan {
            let start = Instant::now();
            assert_eq!(loan.settle(), Ok(()));
            assert!(
                start.elapsed() < Duration::from_secs(1),
                "the settle waited"
            );
        }
    }
}

/// The bits of a parcel, lent or not.
fn parcel_bits(parcel: Parcel) -> Vec<u32> {
    match parcel {
        Parcel::Lent(lease) => lease
            .read(bits)
            .expect("a lease nobody revoked is readable"),
        Parcel::Message(msg) => {
            let payload = msg.into_payload();
            assert_eq!(payload.dtype(), DType::F32);
            bits(&payload.to_f32_vec())
        }
    }
}

/// Polls `from` until it reports a message or an error; a poll that keeps
/// reporting nothing for ten seconds fails the case.
fn poll<E: Endpoint>(ep: &E, from: usize) -> Result<Parcel, CollectiveError> {
    let give_up = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(parcel) = ep.recv_parcel(from, false)? {
            return Ok(parcel);
        }
        assert!(Instant::now() < give_up, "the poll never reported");
        std::thread::sleep(Duration::from_micros(100));
    }
}

/// Clause 12: with nothing queued a poll reports nothing, at once.
fn an_idle_poll<E: Endpoint>(world: impl Fn(usize) -> Vec<E>) {
    let eps = world(2);
    for ep in &eps {
        let start = Instant::now();
        for _ in 0..100 {
            assert!(ep.recv_parcel(1 - ep.rank(), false).unwrap().is_none());
        }
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "a poll waited: {:?} for 100",
            start.elapsed()
        );
    }
}

/// Clause 12: polls, `recv` and waiting `recv_parcel`s take one FIFO link
/// of sends and lent chunks.
fn polls_keep_fifo<E: Endpoint>(world: impl Fn(usize) -> Vec<E>) {
    let eps = world(2);
    let values: Vec<Vec<f32>> = (0..MIN_LINK_FRAMES)
        .map(|k| vec![k as f32 - 0.5; 1 + 16 * k])
        .collect();
    let mut loans = Vec::new();
    for (k, v) in values.iter().enumerate() {
        if k % 2 == 0 {
            loans.extend(lend(&eps[0], 1, v).unwrap());
        } else {
            eps[0].send(1, v.clone().into()).unwrap();
        }
    }
    for (k, v) in values.iter().enumerate() {
        let got = match k % 3 {
            0 => parcel_bits(poll(&eps[1], 0).unwrap()),
            1 => bits(&eps[1].recv(0).unwrap().into_payload().to_f32_vec()),
            _ => received_bits(&eps[1], 0),
        };
        assert_eq!(got, bits(v), "message {k}");
    }
    assert!(
        eps[1].recv_parcel(0, false).unwrap().is_none(),
        "the link is empty"
    );
    for loan in loans {
        assert_eq!(loan.settle(), Ok(()));
    }
}

/// Clause 12: a poll of self or of a rank past the world is refused.
fn polls_of_invalid_ranks<E: Endpoint>(world: impl Fn(usize) -> Vec<E>) {
    for ep in &world(2) {
        for peer in [ep.rank(), 2, 5] {
            let invalid = CollectiveError::InvalidRank {
                rank: peer,
                world: 2,
            };
            assert_eq!(ep.recv_parcel(peer, false).unwrap_err(), invalid);
        }
    }
}

/// Clause 12, for a transport that keeps the default poll: a message
/// polled a hundred times is still on the link, and the waiting receives
/// deliver every message in order.
fn polls_take_nothing_off_the_link<E: Endpoint>(world: impl Fn(usize) -> Vec<E>) {
    let eps = world(2);
    let values: Vec<Vec<f32>> = (0..MIN_LINK_FRAMES)
        .map(|k| vec![k as f32 + 0.5; 1 + 16 * k])
        .collect();
    for v in &values {
        eps[0].send(1, v.clone().into()).unwrap();
    }
    for (k, v) in values.iter().enumerate() {
        for _ in 0..100 {
            assert!(eps[1].recv_parcel(0, false).unwrap().is_none());
        }
        let got = if k % 2 == 0 {
            bits(&eps[1].recv(0).unwrap().into_payload().to_f32_vec())
        } else {
            received_bits(&eps[1], 0)
        };
        assert_eq!(got, bits(v), "message {k}");
    }
}

/// Clause 12: what a departed peer sent is polled, then `Disconnected`.
fn polls_of_a_departed_peer<E: Endpoint>(world: impl Fn(usize) -> Vec<E>) {
    let mut eps = world(2);
    let stays = eps.pop().unwrap();
    let leaves = eps.pop().unwrap();
    leaves.send(1, vec![42.0].into()).unwrap();
    leaves.send(1, vec![43.0].into()).unwrap();
    drop(leaves);
    for want in [42.0f32, 43.0] {
        assert_eq!(parcel_bits(poll(&stays, 0).unwrap()), bits(&[want]));
    }
    let gone = CollectiveError::Disconnected {
        peer: stays.reported(0),
    };
    assert_eq!(poll(&stays, 0).unwrap_err(), gone);
}

/// Clause 8.
fn transparent<E: Endpoint>(
    world: impl Fn(usize) -> Vec<E>,
    n: usize,
    d: usize,
    salt: u64,
    wire: DType,
) -> Result<(), String> {
    let want = run(&LocalFabric::create(n), |ep| collectives(ep, d, salt, wire));
    let got = run(&world(n), |ep| collectives(ep, d, salt, wire));
    bit_identical(&want, &got)
}

/// How a fabric learns who survived a shrink.
#[derive(Clone, Copy, PartialEq)]
enum Resize {
    /// The caller names the survivors (`reconfigure(Some(..))`); dense ranks
    /// follow old-rank order.
    Explicit,
    /// The fabric finds them itself (`reconfigure(None)`).
    Discovered,
}

/// Clause 9: `victim` drops out of a world of `n`, and the survivors
/// resize in place. `stamps` says whether the fabric stamps messages with
/// a generation, which the resize then bumps.
fn shrink<E: Endpoint>(
    world: impl Fn(usize) -> Vec<E>,
    resize: Resize,
    stamps: bool,
    n: usize,
    victim: usize,
    d: usize,
    salt: u64,
) -> Result<(), String> {
    let fresh = run(&LocalFabric::create(n - 1), |ep| {
        collectives(ep, d, salt, DType::F32)
    });
    let mut eps = world(n);
    let dead = eps.remove(victim);
    let old: Vec<usize> = (0..n).filter(|&r| r != victim).collect();
    // In flight when the world shrinks: the victim's last words to every
    // survivor, and a message from each survivor to the next that nobody
    // receives.
    let stale = || Message::from(vec![-1.0; 4]);
    for &r in &old {
        dead.send(r, stale()).unwrap();
    }
    for (i, ep) in eps.iter().enumerate() {
        ep.send(old[(i + 1) % old.len()], stale()).unwrap();
    }
    drop(dead);
    for ep in &eps {
        prop_assert_eq!(ep.recv(victim).unwrap(), vec![-1.0; 4]);
        let gone = CollectiveError::Disconnected {
            peer: ep.reported(victim),
        };
        prop_assert_eq!(ep.recv(victim).unwrap_err(), gone);
    }
    let survivors = (resize == Resize::Explicit).then_some(&old[..]);
    let changes: Vec<WorldChange> = std::thread::scope(|s| {
        let handles: Vec<_> = eps
            .iter_mut()
            .map(|ep| s.spawn(move || ep.reconfigure(survivors).unwrap()))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let m = n - 1;
    let mut dense: Vec<usize> = changes.iter().map(|c| c.new_rank).collect();
    if resize == Resize::Discovered {
        dense.sort_unstable();
    }
    prop_assert_eq!(dense, (0..m).collect::<Vec<_>>());
    for ((ep, c), &o) in eps.iter().zip(&changes).zip(&old) {
        prop_assert_eq!((c.old_rank, c.old_world, c.new_world), (o, n, m));
        prop_assert_eq!((ep.rank(), ep.world_size()), (c.new_rank, m));
        prop_assert_eq!(c.generation, u64::from(stamps));
    }
    eps.sort_by_key(|ep| ep.rank());
    // The first message after the resize is the first one sent after it.
    let firsts = run(&eps, |ep| {
        let r = ep.rank();
        ep.send((r + 1) % m, vec![r as f32].into()).unwrap();
        ep.recv((r + m - 1) % m).unwrap()
    });
    for (r, first) in firsts.into_iter().enumerate() {
        prop_assert_eq!(first, vec![((r + m - 1) % m) as f32]);
    }
    let resized = run(&eps, |ep| collectives(ep, d, salt, DType::F32));
    bit_identical(&fresh, &resized)
}

/// Clause 9, for fabrics told their survivors: `None` and lists that
/// repeat, omit or overrun are refused before anything changes.
fn bad_survivor_lists<E: Endpoint>(world: impl Fn(usize) -> Vec<E>) {
    let mut eps = world(3);
    for (list, says) in [
        (None, ""),
        (Some(&[0, 1, 1][..]), "duplicate"),
        (Some(&[1, 2][..]), "omit"),
        (Some(&[0, 5][..]), ""),
    ] {
        match eps[0].reconfigure(list) {
            Err(CollectiveError::Reconfigure { reason }) => {
                assert!(reason.contains(says), "{list:?}: {reason}");
            }
            other => panic!("{list:?}: {other:?}"),
        }
        assert_eq!((eps[0].rank(), eps[0].world_size()), (0, 3));
    }
    eps[1].send(0, vec![7.0].into()).unwrap();
    assert_eq!(eps[0].recv(1).unwrap(), vec![7.0]);
}

/// Instantiates every clause for one fabric: its factory, clause 8's
/// worlds and case count (per wire family: f32, and bf16/f16), whether a
/// world of two lends (clause 11), whether its poll reports what has
/// arrived (clause 12), and, for a fabric that resizes, how it learns the
/// survivors, whether it stamps generations, and clause 9's worlds and
/// case count.
macro_rules! contract {
    ($name:ident: $world:expr, worlds $worlds:expr, cases $cases:expr, lends $lends:expr,
        polls $polls:tt
        $(; shrink $resize:ident, stamps $stamps:expr, worlds $sworlds:expr, cases $scases:expr)?) => {
        mod $name {
            use super::*;

            #[test]
            fn c1_ranks_are_dense_and_agree_on_the_world() {
                bounded(|| ranks($world));
            }

            #[test]
            fn c2_links_are_fifo_and_bit_exact() {
                bounded(|| fifo($world, 2, &[DType::F32]));
            }

            #[test]
            fn c2_narrow_payloads_keep_their_dtype() {
                bounded(|| fifo($world, 2, &[DType::Bf16, DType::F16]));
            }

            #[test]
            fn c2_links_are_independent() {
                bounded(|| fifo($world, 4, &WIRES));
            }

            #[test]
            fn c3_self_is_an_invalid_peer() {
                bounded(|| invalid_ranks($world, true, Via::Send));
            }

            #[test]
            fn c3_out_of_range_peers_are_invalid() {
                bounded(|| invalid_ranks($world, false, Via::Send));
            }

            #[test]
            fn c4_min_link_frames_sends_complete_before_any_recv() {
                bounded(|| eager($world));
            }

            #[test]
            fn c5_a_departed_peer_is_drained_then_disconnected() {
                bounded(|| departure($world, Via::Send));
            }

            #[test]
            fn c6_an_idle_recv_times_out_at_its_deadline() {
                bounded(|| deadline($world));
            }

            #[test]
            fn c7_the_pool_hands_back_recycled_buffers() {
                bounded(|| pool($world));
            }

            #[test]
            fn c10_send_f32_delivers_the_f32_encoding() {
                bounded(|| send_f32_is_send_of_its_encoding($world));
            }

            #[test]
            fn c10_send_f32_keeps_fifo_with_send() {
                bounded(|| lends_keep_fifo_with_send($world, false));
            }

            #[test]
            fn c10_send_f32_refuses_self() {
                bounded(|| invalid_ranks($world, true, Via::LendF32));
            }

            #[test]
            fn c10_send_f32_refuses_out_of_range_peers() {
                bounded(|| invalid_ranks($world, false, Via::LendF32));
            }

            #[test]
            fn c10_send_f32_to_a_departed_peer_is_disconnected() {
                bounded(|| departure($world, Via::LendF32));
            }

            #[test]
            fn c11_a_lent_chunk_arrives_bit_identical() {
                bounded(|| lent_chunks_arrive_bit_identical(&$world(2), &[(1, $lends)]));
            }

            #[test]
            fn c11_lent_chunks_keep_fifo_with_send() {
                bounded(|| lends_keep_fifo_with_send($world, true));
            }

            #[test]
            fn c11_a_settle_gives_up_on_a_departed_or_late_peer() {
                bounded(|| a_settle_gives_up_on_a_departed_or_late_peer($world));
            }

            #[test]
            fn c11_a_lease_queued_at_a_dropped_endpoint_is_released() {
                bounded(|| a_lease_queued_at_a_dropped_endpoint_is_released($world));
            }

            #[test]
            fn c11_a_settle_after_the_receive_does_not_wait() {
                bounded(|| a_settle_after_the_receive_does_not_wait($world));
            }

            #[test]
            fn c12_an_idle_poll_reports_nothing_at_once() {
                bounded(|| an_idle_poll($world));
            }

            #[test]
            fn c12_a_poll_refuses_self_and_out_of_range_peers() {
                bounded(|| polls_of_invalid_ranks($world));
            }

            contract!(@polls $polls, $world);

            proptest! {
                #![proptest_config(ProptestConfig::with_cases($cases))]

                #[test]
                fn c8_every_collective_matches_local_fabric(
                    n in $worlds,
                    d in 0usize..300,
                    salt in any::<u64>(),
                ) {
                    bounded(move || transparent($world, n, d, salt, DType::F32))?;
                }

                #[test]
                fn c8_narrow_wires_match_local_fabric(
                    n in $worlds,
                    d in 0usize..300,
                    salt in any::<u64>(),
                    wire in 1usize..3,
                ) {
                    bounded(move || transparent($world, n, d, salt, WIRES[wire]))?;
                }
            }

            $(contract!(@shrink $resize, $world, $stamps, $sworlds, $scases);)?
        }
    };
    (@polls true, $world:expr) => {
        #[test]
        fn c12_polls_keep_fifo_with_receives_and_lent_chunks() {
            bounded(|| polls_keep_fifo($world));
        }

        #[test]
        fn c12_a_departed_peer_is_polled_dry_then_disconnected() {
            bounded(|| polls_of_a_departed_peer($world));
        }
    };
    (@polls false, $world:expr) => {
        #[test]
        fn c12_a_poll_takes_nothing_off_the_link() {
            bounded(|| polls_take_nothing_off_the_link($world));
        }
    };
    (@shrink Explicit, $world:expr, $stamps:expr, $worlds:expr, $cases:expr) => {
        #[test]
        fn c9_bad_survivor_lists_are_refused_untouched() {
            bounded(|| bad_survivor_lists($world));
        }

        contract!(@shrink_prop Resize::Explicit, $world, $stamps, $worlds, $cases);
    };
    (@shrink Discovered, $world:expr, $stamps:expr, $worlds:expr, $cases:expr) => {
        contract!(@shrink_prop Resize::Discovered, $world, $stamps, $worlds, $cases);
    };
    (@shrink_prop $resize:expr, $world:expr, $stamps:expr, $worlds:expr, $cases:expr) => {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases($cases))]

            #[test]
            fn c9_a_shrunk_world_matches_a_fresh_one(
                n in $worlds,
                victim in 0usize..6,
                d in 0usize..160,
                salt in any::<u64>(),
            ) {
                bounded(move || shrink($world, $resize, $stamps, n, victim % n, d, salt))?;
            }
        }
    };
}

contract!(local: LocalFabric::create, worlds 1usize..7, cases 4, lends true, polls true;
    shrink Explicit, stamps true, worlds 3usize..6, cases 8);
contract!(delay: delayed, worlds 1usize..7, cases 4, lends false, polls true;
    shrink Explicit, stamps true, worlds 3usize..6, cases 4);
contract!(group_view: views, worlds 1usize..7, cases 4, lends true, polls true);
contract!(observer: observed, worlds 1usize..7, cases 4, lends false, polls false);
contract!(shm: shm, worlds 1usize..7, cases 4, lends true, polls true;
    shrink Explicit, stamps true, worlds 3usize..6, cases 8);
contract!(tcp: tcp, worlds 1usize..6, cases 8, lends false, polls true;
    shrink Discovered, stamps true, worlds 3usize..6, cases 4);
contract!(tiered_1xn: tiered_1xn, worlds 1usize..3, cases 4, lends true, polls true;
    shrink Discovered, stamps true, worlds 3usize..5, cases 2);
contract!(tiered_2xn: tiered_2xn, worlds 1usize..5, cases 4, lends false, polls true;
    shrink Discovered, stamps true, worlds 3usize..6, cases 2);

/// Clause 11 with both tiers in one world: on 2 hosts × 2 ranks, rank 0
/// lends to its co-located peer and writes to the other host's ranks, and
/// every chunk arrives bit for bit either way.
#[test]
fn c11_a_mixed_tiered_world_lends_on_its_shm_hops_only() {
    bounded(|| {
        lent_chunks_arrive_bit_identical(&tiered_2xn(4), &[(1, true), (2, false), (3, false)]);
    });
}

/// Clause 12, for the fabric that stamps: a message still on the emulated
/// wire is not polled, and stays first on its link; at its stamp the poll
/// returns it.
#[test]
fn c12_delay_polls_a_message_at_its_stamp_not_before() {
    bounded(|| {
        let mut eps = LocalFabric::create(2);
        let link = CostModel::new(40_000_000.0, 0.0, 0.0); // 40 ms per message
        let b = DelayFabric::new(eps.pop().unwrap(), link);
        let a = DelayFabric::new(eps.pop().unwrap(), link);
        let sent = Instant::now();
        a.send(1, vec![1.0].into()).unwrap();
        a.send(1, vec![2.0].into()).unwrap();
        assert!(
            b.recv_parcel(0, false).unwrap().is_none(),
            "polled before its stamp"
        );
        assert!(
            b.recv_parcel(0, false).unwrap().is_none(),
            "a held message stays held"
        );
        let first = poll(&b, 0).unwrap();
        assert!(
            sent.elapsed() >= Duration::from_millis(40),
            "polled before its stamp"
        );
        assert_eq!(parcel_bits(first), bits(&[1.0]));
        assert_eq!(
            b.recv(0).unwrap(),
            vec![2.0],
            "the second is next, at its own stamp"
        );
        assert!(sent.elapsed() >= Duration::from_millis(80));
    });
}
