//! Steady-state DeAR steps over the real fabrics make no large allocation.
//! On TCP an f32 chunk goes to the socket straight from the collective's
//! buffer, and received payloads circulate through the endpoint's pool. On
//! shm an f32 chunk is lent: the peer reduces straight from the sender's
//! buffer, so a send takes no buffer at all — over `ShmFabric` alone and
//! over the tiered endpoint's shm tier, in a one-host world and in one whose
//! ring also has TCP hops. A send that encoded into a buffer of a pool no
//! receive refills would allocate a chunk-sized one every time.
//!
//! The pools hold only what the training runtime stocks them with. How
//! many buffers a TCP rank holds at once depends on how far its reader
//! threads run ahead of its training thread; the runtime stocks its pool to
//! that bound during the first step, so a late step never grows the pool to
//! a new high-water mark. A large allocation means a send drew on a pool
//! that no receive refills, or the stock fell short of the readers.
//!
//! The counter is process-global, so this file holds a single test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

use dear_collectives::Transport;
use dear_core::{run_worker, DistOptim, PipelineMode, TrainConfig};
use dear_minidnn::{BlobDataset, Linear, Relu, Sequential};
use dear_net::{tcp_loopback, tiered_loopback, ShmFabric};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Allocations at least this large are counted.
const LARGE: usize = 64 << 10;

static LARGE_ALLOCS: AtomicUsize = AtomicUsize::new(0);

struct CountingAlloc;

fn note(size: usize) {
    if size >= LARGE {
        LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` unchanged; the counter is a
// relaxed atomic that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Ranks of every world but the two-host one.
const WORLD: usize = 2;
const BATCH: usize = 4;
const WARMUP: u64 = 3;
const STEPS: u64 = 10;
/// 64→320, 2×(320→320), 320→8 under a 256 KiB fusion buffer: each 400 KiB
/// weight matrix is its own group, so every ring hop moves a 200 KiB chunk.
fn build_net() -> Sequential {
    let mut rng = StdRng::seed_from_u64(17);
    let mut net = Sequential::new()
        .push(Linear::new(64, 320, &mut rng))
        .push(Relu::new());
    for _ in 0..2 {
        net = net.push(Linear::new(320, 320, &mut rng)).push(Relu::new());
    }
    net.push(Linear::new(320, 8, &mut rng))
}

/// The counter's value with nothing in the process running: `synchronize`
/// drains this rank's communication and two barriers surround the reading.
fn settled_count(optim: &mut DistOptim, net: &mut Sequential, barrier: &Barrier) -> usize {
    optim.synchronize(net).unwrap();
    barrier.wait();
    let count = LARGE_ALLOCS.load(Ordering::Relaxed);
    barrier.wait();
    count
}

/// Large allocations the whole process makes while every rank of `eps`
/// runs `STEPS` DeAR steps, after `WARMUP` of them.
fn steady_steps<E: Transport + Send + 'static>(eps: Vec<E>) -> usize {
    let world = eps.len();
    let data = BlobDataset::new(64, 8, 0.4, 3);
    let barrier = Barrier::new(world);
    let config = TrainConfig {
        lr: 0.01,
        fusion_buffer: Some(256 << 10),
        mode: PipelineMode::Dear,
        ..TrainConfig::default()
    };
    let counts: Vec<usize> = std::thread::scope(|s| {
        let ranks: Vec<_> = eps
            .into_iter()
            .map(|ep| {
                let (config, data, barrier) = (config.clone(), &data, &barrier);
                s.spawn(move || {
                    run_worker(ep, config, |handle| {
                        let rank = handle.rank();
                        let mut net = build_net();
                        let mut optim = handle.into_optim(&net);
                        let mut before = 0;
                        for step in 0..WARMUP + STEPS {
                            if step == WARMUP {
                                before = settled_count(&mut optim, &mut net, barrier);
                            }
                            let (x, labels) = data.shard(step, BATCH * world, rank, world);
                            optim.train_step(&mut net, &x, &labels).unwrap();
                        }
                        settled_count(&mut optim, &mut net, barrier) - before
                    })
                })
            })
            .collect();
        ranks.into_iter().map(|r| r.join().unwrap()).collect()
    });
    assert!(
        counts.iter().all(|&c| c == counts[0]),
        "the counter moved during a reading: {counts:?}"
    );
    counts[0]
}

#[test]
fn steady_state_steps_over_tcp_and_shm_allocate_nothing_large() {
    let tcp = steady_steps(tcp_loopback(WORLD).unwrap());
    assert_eq!(
        tcp, 0,
        "tcp_loopback: {tcp} large allocations in {STEPS} steps"
    );
    let tiered = steady_steps(tiered_loopback(1, WORLD).unwrap());
    assert_eq!(
        tiered, 0,
        "tiered_loopback(1, {WORLD}): {tiered} large allocations in {STEPS} steps"
    );
    let mixed = steady_steps(tiered_loopback(2, 2).unwrap());
    assert_eq!(
        mixed, 0,
        "tiered_loopback(2, 2): {mixed} large allocations in {STEPS} steps"
    );
    let shm = steady_steps(ShmFabric::create(WORLD));
    assert_eq!(
        shm, 0,
        "ShmFabric::create({WORLD}): {shm} large allocations in {STEPS} steps"
    );
}
