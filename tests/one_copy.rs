//! One copy of the model (DESIGN.md §4.17): the fusion-group buffers *are*
//! the parameters and the gradients, so a rank at rest holds its
//! parameters, its gradients, its optimizer state and the communication engine's
//! stock of wire buffers — and no staging copy of anything.
//!
//! Measured as the bytes live in allocations of at least 64 KiB (the
//! tensors and buffers; not the activations of a batch of 4) under a
//! tracking global allocator. The counter is process-global, so this file
//! holds a single test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Barrier;

use dear::minidnn::{BlobDataset, Linear, Relu, Sequential};
use dear::{run_training, PipelineMode, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Allocations at least this large are tracked.
const LARGE: usize = 64 << 10;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

struct TrackingAlloc;

fn note(size: usize, sign: isize) {
    if size >= LARGE {
        LIVE_BYTES.fetch_add(sign * size as isize, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` unchanged; the counter is a
// relaxed atomic that never allocates.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), 1);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), 1);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(layout.size(), -1);
        note(new_size, 1);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(layout.size(), -1);
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

const WORLD: usize = 2;
const BATCH: usize = 4;
const WARMUP: u64 = 4;
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

/// Tracked bytes one rank holds at rest after `WARMUP` steps, in units of
/// the model's size.
fn resident_model_copies(mode: PipelineMode) -> f64 {
    let data = BlobDataset::new(64, 8, 0.4, 3);
    let barrier = Barrier::new(WORLD);
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    let config = TrainConfig {
        lr: 0.01,
        momentum: 0.9,
        fusion_buffer: Some(FUSION_BUFFER),
        mode,
        ..TrainConfig::default()
    };
    let readings = run_training(WORLD, config, |handle| {
        let rank = handle.rank();
        let mut net = build_net();
        let mut optim = handle.into_optim(&net);
        for step in 0..WARMUP {
            let (x, labels) = data.shard(step, BATCH * WORLD, rank, WORLD);
            optim.train_step(&mut net, &x, &labels).unwrap();
        }
        // `synchronize` drains this rank's communication engine; between the two
        // barriers nothing in the process runs.
        optim.synchronize(&mut net).unwrap();
        barrier.wait();
        let live = LIVE_BYTES.load(Ordering::Relaxed);
        barrier.wait();
        (live, net.param_count() * std::mem::size_of::<f32>())
    });
    assert_eq!(
        readings[0], readings[1],
        "the counter moved during a reading"
    );
    let (live, model_bytes) = readings[0];
    (live - before) as f64 / WORLD as f64 / model_bytes as f64
}

#[test]
fn a_rank_at_rest_holds_one_copy_of_the_model() {
    // DeAR (any strategy): parameters + gradients + the communication engine's
    // velocity over the shard it owns, 1/WORLD of a model = 2.5 models,
    // plus its stock of three wire buffers of half a group each: 2.84.
    // With a full-length velocity it read 3.34; with a staging copy of the
    // parameters and one of the gradients on top — the two-copy design —
    // 5.3.
    let dear = resident_model_copies(PipelineMode::Dear);
    assert!(
        dear <= 3.0,
        "DeAR: a rank at rest holds {dear:.2} models' worth of large buffers"
    );
    // WFBP: parameters + gradients + the communication engine's full-length
    // velocity (every rank updates every element) and the wire stock: 3.34.
    let wfbp = resident_model_copies(PipelineMode::Wfbp);
    assert!(
        wfbp <= 3.5,
        "WFBP: a rank at rest holds {wfbp:.2} models' worth of large buffers"
    );
}
