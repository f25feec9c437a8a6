//! Integration of the gradient-compression extension (§VI-D future work):
//! distributed training with top-k sparsification + error feedback over
//! the real threaded cluster still converges, and the wire-volume model
//! identifies when compression pays off.

use dear::collectives::{
    compressed_aggregate, compressed_aggregate_wire_bytes, run_cluster, Compressor, ErrorFeedback,
    TopK, Transport, Uniform8,
};
use dear::minidnn::{accuracy, softmax_cross_entropy, BlobDataset, Linear, Relu, Sequential, Sgd};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn build_net(seed: u64) -> Sequential {
    let mut rng = StdRng::seed_from_u64(seed);
    Sequential::new()
        .push(Linear::new(8, 32, &mut rng))
        .push(Relu::new())
        .push(Linear::new(32, 4, &mut rng))
}

/// One S-SGD training loop where gradient aggregation goes through a lossy
/// compressor with error feedback, synchronously at each step.
fn train_compressed(compressor: impl Compressor + Clone + Send + Sync, steps: u64) -> Vec<f32> {
    let world = 4;
    let global_batch = 32;
    let data = BlobDataset::new(8, 4, 0.4, 17);
    let accs = run_cluster(world, |ep| {
        let mut net = build_net(1);
        let mut opt = Sgd::new(0.1);
        let mut feedback = ErrorFeedback::new();
        for step in 0..steps {
            let (x, labels) = data.shard(step, global_batch, ep.rank(), world);
            let logits = net.forward(&x);
            let (_, dloss) = softmax_cross_entropy(&logits, &labels);
            net.backward(&dloss);
            // Flatten all gradients, aggregate compressed, write back.
            let mut flat = net.store().flat_grads();
            compressed_aggregate(&ep, &mut flat, &compressor, &mut feedback)
                .expect("aggregation failed");
            net.store_mut().set_flat_grads(&flat);
            opt.step(&mut net);
        }
        let (x, labels) = data.batch(9_999, 256);
        accuracy(&net.forward(&x), &labels)
    });
    accs
}

#[test]
fn topk_with_error_feedback_converges() {
    let accs = train_compressed(TopK::new(0.1), 120);
    for (rank, acc) in accs.iter().enumerate() {
        assert!(*acc > 0.85, "rank {rank}: accuracy {acc} with 10% top-k");
    }
}

#[test]
fn quantized_training_converges() {
    let accs = train_compressed(Uniform8::new(128), 100);
    for (rank, acc) in accs.iter().enumerate() {
        assert!(
            *acc > 0.85,
            "rank {rank}: accuracy {acc} with 8-bit quantization"
        );
    }
}

#[test]
fn aggressive_sparsification_still_learns_with_feedback() {
    // 2% density: without error feedback this would stall; with it the
    // residual eventually transmits every coordinate.
    let accs = train_compressed(TopK::new(0.02), 200);
    for (rank, acc) in accs.iter().enumerate() {
        assert!(*acc > 0.7, "rank {rank}: accuracy {acc} with 2% top-k");
    }
}

#[test]
fn wire_volume_break_even_matches_theory() {
    // Compression (all-gather based) beats the dense ring all-reduce iff
    // ratio < 2/(P-1) · (P-1)/P ≈ 2/P.
    for world in [4usize, 16, 64] {
        let d = 10_000_000u64;
        let dense = 2.0 * d as f64 * (world - 1) as f64 / world as f64;
        let breakeven = 2.0 / world as f64;
        assert!(
            compressed_aggregate_wire_bytes(d, breakeven * 0.9, world) < dense,
            "world {world}: should win below break-even"
        );
        assert!(
            compressed_aggregate_wire_bytes(d, breakeven * 1.1, world) > dense,
            "world {world}: should lose above break-even"
        );
    }
}
