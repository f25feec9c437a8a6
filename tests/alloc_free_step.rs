//! The steady-state training step makes no large allocation: every fusion
//! group's gradient and parameter buffers are segments of the network's
//! store that circulate between the training thread and the communication engine
//! (DESIGN.md §4.17), and backward writes weight gradients straight into
//! them — so after warm-up neither the model's own forward + backward nor
//! a distributed step allocates anything of a tensor's size.
//!
//! The counter is process-global, so this file holds a single test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

use dear::minidnn::{softmax_cross_entropy, BlobDataset, Linear, Relu, Sequential};
use dear::{run_training, DistOptim, GroupLayout, ParallelismStrategy, PipelineMode, TrainConfig};
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

const WORLD: usize = 2;
const BATCH: usize = 4;
const WARMUP: u64 = 3;
const STEPS: u64 = 10;
const FUSION_BUFFER: u64 = 256 << 10;

/// 64→320, 4×(320→320), 320→8: four 400 KiB weight matrices, each its own
/// fusion group under a 256 KiB buffer.
fn build_net() -> Sequential {
    let mut rng = StdRng::seed_from_u64(17);
    let mut net = Sequential::new()
        .push(Linear::new(64, 320, &mut rng))
        .push(Relu::new());
    for _ in 0..4 {
        net = net.push(Linear::new(320, 320, &mut rng)).push(Relu::new());
    }
    net.push(Linear::new(320, 8, &mut rng))
}

/// Large allocations of `STEPS` plain forward + backward passes of one
/// replica, after `WARMUP` of them.
fn plain_forward_backward() -> usize {
    let data = BlobDataset::new(64, 8, 0.4, 3);
    let mut net = build_net();
    let mut before = 0;
    for step in 0..WARMUP + STEPS {
        if step == WARMUP {
            before = LARGE_ALLOCS.load(Ordering::Relaxed);
        }
        let (x, labels) = data.batch(step, BATCH);
        let logits = net.forward(&x);
        let (_, dloss) = softmax_cross_entropy(&logits, &labels);
        let _ = net.backward(&dloss);
    }
    LARGE_ALLOCS.load(Ordering::Relaxed) - before
}

/// The counter's value with nothing in the process running: `synchronize`
/// drains this rank's communication engine and two barriers surround the reading.
fn settled_count(optim: &mut DistOptim, net: &mut Sequential, barrier: &Barrier) -> usize {
    optim.synchronize(net).unwrap();
    barrier.wait();
    let count = LARGE_ALLOCS.load(Ordering::Relaxed);
    barrier.wait();
    count
}

/// Large allocations the whole process makes while both ranks run `STEPS`
/// training steps, after `WARMUP` of them.
fn distributed_steps(config: TrainConfig) -> usize {
    let data = BlobDataset::new(64, 8, 0.4, 3);
    let barrier = Barrier::new(WORLD);
    let counts = run_training(WORLD, config, |handle| {
        let rank = handle.rank();
        let mut net = build_net();
        let mut optim = handle.into_optim(&net);
        let mut before = 0;
        for step in 0..WARMUP + STEPS {
            if step == WARMUP {
                before = settled_count(&mut optim, &mut net, &barrier);
            }
            let (x, labels) = data.shard(step, BATCH * WORLD, rank, WORLD);
            optim.train_step(&mut net, &x, &labels).unwrap();
        }
        settled_count(&mut optim, &mut net, &barrier) - before
    });
    assert_eq!(counts[0], counts[1], "the counter moved during a reading");
    counts[0]
}

#[test]
fn steady_state_step_adds_no_large_allocation() {
    let layout = GroupLayout::from_buffer(&build_net(), Some(FUSION_BUFFER));
    let groups_of = |min_bytes: usize| {
        (0..layout.num_groups())
            .filter(|&g| layout.group_elements(g) * 4 >= min_bytes)
            .count()
    };
    assert!(groups_of(256 << 10) >= 4, "too few groups of 256 KiB");

    let plain = plain_forward_backward();
    assert_eq!(plain, 0, "backward allocates a weight-sized temporary");
    let config = |mode, strategy| TrainConfig {
        lr: 0.01,
        momentum: 0.9,
        fusion_buffer: Some(FUSION_BUFFER),
        mode,
        strategy,
        ..TrainConfig::default()
    };
    for (mode, strategy) in [
        (PipelineMode::Dear, ParallelismStrategy::Ddp),
        (PipelineMode::Wfbp, ParallelismStrategy::Ddp),
    ] {
        let got = distributed_steps(config(mode, strategy));
        assert!(
            got <= WORLD * plain,
            "{mode:?}/{strategy:?}: {got} large allocations in {STEPS} steps on {WORLD} ranks, \
             plain forward + backward makes {plain} per replica"
        );
    }
    // ZeRO-2 trades buffers for memory: its OP1 compacts the gradient
    // buffer and it parks only the owned chunk between OP1 and OP2,
    // so each large group still costs up to three allocations a step (the
    // next gradient buffer, the compacting shrink, the rebuilt parameter
    // buffer).
    let zero2 = distributed_steps(config(PipelineMode::Dear, ParallelismStrategy::Zero2));
    assert!(
        zero2 <= WORLD * (plain + STEPS as usize * 3 * groups_of(LARGE)),
        "Zero2: {zero2} large allocations in {STEPS} steps on {WORLD} ranks, \
         plain forward + backward makes {plain} per replica"
    );
}
