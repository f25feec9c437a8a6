//! End-to-end BERT-flavour integration: a transformer block
//! (self-attention, LayerNorm, feed-forward) trained with Adam through the
//! full DeAR pipeline on the real threaded runtime — the workload family
//! behind the paper's NLP rows.

use dear::minidnn::{accuracy, BlobDataset, LayerNorm, Linear, Relu, SelfAttention, Sequential};
use dear::{run_training, OptimKind, PipelineMode, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEQ: usize = 4;
const DIM: usize = 6;
const CLASSES: usize = 3;

fn transformer_block(seed: u64) -> Sequential {
    let mut rng = StdRng::seed_from_u64(seed);
    let feats = SEQ * DIM;
    Sequential::new()
        .push(SelfAttention::new(SEQ, DIM, &mut rng))
        .push(LayerNorm::new(feats))
        .push(Linear::new(feats, 2 * feats, &mut rng))
        .push(Relu::new())
        .push(Linear::new(2 * feats, feats, &mut rng))
        .push(LayerNorm::new(feats))
        .push(Linear::new(feats, CLASSES, &mut rng))
}

fn max_rel_diff(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs() / x.abs().max(y.abs()).max(1e-3))
        .fold(0.0, f32::max)
}

#[test]
fn transformer_block_trains_and_matches_reference_under_dear() {
    let data = BlobDataset::new(SEQ * DIM, CLASSES, 0.4, 2024);
    let config = TrainConfig {
        lr: 0.005,
        fusion_buffer: Some(1 << 10),
        optim: OptimKind::adam_default(),
        ..TrainConfig::default()
    };
    let steps = 12u64;
    let params = run_training(4, config, |handle| {
        let rank = handle.rank();
        let mut net = transformer_block(5);
        let mut optim = handle.into_optim(&net);
        for step in 0..steps {
            let (x, labels) = data.shard(step, 32, rank, 4);
            let _ = optim.train_step(&mut net, &x, &labels);
        }
        optim.synchronize(&mut net).unwrap();
        net.flat_params()
    });
    for p in &params[1..] {
        assert_eq!(&params[0], p, "ranks diverged");
    }
    let mut reference = transformer_block(5);
    let mut opt = dear_minidnn::Adam::new(0.005);
    for step in 0..steps {
        let (x, labels) = data.batch(step, 32);
        let logits = reference.forward(&x);
        let (_, dloss) = dear_minidnn::softmax_cross_entropy(&logits, &labels);
        reference.backward(&dloss);
        dear_minidnn::Optimizer::step(&mut opt, &mut reference);
    }
    let diff = max_rel_diff(&params[0], &reference.flat_params());
    assert!(diff < 1e-2, "max relative diff {diff}");
}

#[test]
fn transformer_block_reaches_high_accuracy_distributed() {
    let data = BlobDataset::new(SEQ * DIM, CLASSES, 0.5, 77);
    let config = TrainConfig {
        lr: 0.003,
        fusion_buffer: Some(4 << 10),
        optim: OptimKind::adam_default(),
        ..TrainConfig::default()
    };
    let accs = run_training(4, config, |handle| {
        let rank = handle.rank();
        let mut net = transformer_block(9);
        let mut optim = handle.into_optim(&net);
        for step in 0..150 {
            let (x, labels) = data.shard(step, 32, rank, 4);
            let _ = optim.train_step(&mut net, &x, &labels);
        }
        optim.synchronize(&mut net).unwrap();
        let (x, labels) = data.batch(500_000, 256);
        accuracy(&net.forward(&x), &labels)
    });
    for (rank, acc) in accs.iter().enumerate() {
        assert!(*acc > 0.85, "rank {rank}: accuracy {acc}");
    }
}

#[test]
fn transformer_dear_and_wfbp_agree() {
    let data = BlobDataset::new(SEQ * DIM, CLASSES, 0.4, 31);
    let run = |mode: PipelineMode| {
        let config = TrainConfig {
            lr: 0.005,
            fusion_buffer: Some(2 << 10),
            optim: OptimKind::adam_default(),
            mode,
            ..TrainConfig::default()
        };
        run_training(3, config, |handle| {
            let rank = handle.rank();
            let mut net = transformer_block(3);
            let mut optim = handle.into_optim(&net);
            for step in 0..8 {
                let (x, labels) = data.shard(step, 24, rank, 3);
                let _ = optim.train_step(&mut net, &x, &labels);
            }
            optim.synchronize(&mut net).unwrap();
            net.flat_params()
        })
        .remove(0)
    };
    let diff = max_rel_diff(&run(PipelineMode::Dear), &run(PipelineMode::Wfbp));
    assert!(diff < 1e-2, "modes diverged on transformer block: {diff}");
}
