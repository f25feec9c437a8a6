//! End-to-end integration: the full DeAR runtime (core + minidnn +
//! collectives) training real models on real threads, checked against
//! single-process S-SGD.

use dear::collectives::{CostModel, DelayFabric, LocalFabric};
use dear::minidnn::{accuracy, BlobDataset, Linear, Relu, Sequential, Tanh};
use dear::{run_training, run_worker, train_single_reference, PipelineMode, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn build_net(seed: u64) -> Sequential {
    let mut rng = StdRng::seed_from_u64(seed);
    Sequential::new()
        .push(Linear::new(10, 32, &mut rng))
        .push(Relu::new())
        .push(Linear::new(32, 24, &mut rng))
        .push(Tanh::new())
        .push(Linear::new(24, 16, &mut rng))
        .push(Relu::new())
        .push(Linear::new(16, 4, &mut rng))
}

fn max_rel_diff(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs() / x.abs().max(y.abs()).max(1e-3))
        .fold(0.0, f32::max)
}

#[test]
fn dear_equals_reference_across_world_sizes() {
    let data = BlobDataset::new(10, 4, 0.5, 21);
    for world in [1usize, 2, 4, 8] {
        let config = TrainConfig {
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 1e-4,
            fusion_buffer: Some(1 << 10),
            ..TrainConfig::default()
        };
        let steps = 12;
        let global_batch = 24;
        let params = run_training(world, config.clone(), |handle| {
            let rank = handle.rank();
            let mut net = build_net(9);
            let mut optim = handle.into_optim(&net);
            for step in 0..steps {
                let (x, labels) = data.shard(step, global_batch, rank, world);
                let _ = optim.train_step(&mut net, &x, &labels);
            }
            optim.synchronize(&mut net).unwrap();
            net.flat_params()
        });
        for p in &params[1..] {
            assert_eq!(&params[0], p, "world {world}: ranks diverged");
        }
        let mut reference = build_net(9);
        let _ = train_single_reference(
            &mut reference,
            &config,
            (0..steps).map(|s| data.batch(s, global_batch)),
        );
        let diff = max_rel_diff(&params[0], &reference.flat_params());
        assert!(diff < 5e-3, "world {world}: diff {diff}");
    }
}

#[test]
fn dear_and_wfbp_modes_agree_with_each_other() {
    let data = BlobDataset::new(10, 4, 0.5, 33);
    let mut outputs = Vec::new();
    for mode in [PipelineMode::Dear, PipelineMode::Wfbp] {
        let config = TrainConfig {
            lr: 0.1,
            fusion_buffer: Some(2 << 10),
            mode,
            ..TrainConfig::default()
        };
        let params = run_training(4, config, |handle| {
            let rank = handle.rank();
            let mut net = build_net(5);
            let mut optim = handle.into_optim(&net);
            for step in 0..10 {
                let (x, labels) = data.shard(step, 16, rank, 4);
                let _ = optim.train_step(&mut net, &x, &labels);
            }
            optim.synchronize(&mut net).unwrap();
            net.flat_params()
        });
        outputs.push(params[0].clone());
    }
    let diff = max_rel_diff(&outputs[0], &outputs[1]);
    assert!(diff < 2e-3, "modes diverged: {diff}");
}

#[test]
fn training_over_emulated_network_still_converges() {
    // Inject small α-β delays (scaled down to keep the test quick): the
    // pipelining must not affect correctness, only timing. Every rank's
    // endpoint is wrapped — a delay is observed at the receiver.
    let data = BlobDataset::new(10, 4, 0.4, 55);
    let config = TrainConfig {
        lr: 0.1,
        fusion_buffer: Some(4 << 10),
        ..TrainConfig::default()
    };
    // A 20 µs, 0.01 ns/B link at 1/20 scale.
    let model = CostModel::new(1_000.0, 0.000_5, 0.0);
    let worker = |handle: dear::WorkerHandle| {
        let rank = handle.rank();
        let mut net = build_net(2);
        let mut optim = handle.into_optim(&net);
        for step in 0..80 {
            let (x, labels) = data.shard(step, 24, rank, 3);
            let _ = optim.train_step(&mut net, &x, &labels);
        }
        optim.synchronize(&mut net).unwrap();
        let (x, labels) = data.batch(99_999, 200);
        accuracy(&net.forward(&x), &labels)
    };
    let accs: Vec<f32> = std::thread::scope(|s| {
        let ranks: Vec<_> = LocalFabric::create(3)
            .into_iter()
            .map(|ep| {
                let link = DelayFabric::new(ep, model);
                let config = config.clone();
                s.spawn(move || run_worker(link, config, worker))
            })
            .collect();
        ranks.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (rank, acc) in accs.iter().enumerate() {
        assert!(*acc > 0.8, "rank {rank}: accuracy {acc}");
    }
}

#[test]
fn unfused_and_heavily_fused_agree() {
    let data = BlobDataset::new(10, 4, 0.5, 77);
    let run = |buffer: Option<u64>| {
        let config = TrainConfig {
            lr: 0.05,
            momentum: 0.8,
            fusion_buffer: buffer,
            ..TrainConfig::default()
        };
        run_training(4, config, |handle| {
            let rank = handle.rank();
            let mut net = build_net(8);
            let mut optim = handle.into_optim(&net);
            for step in 0..10 {
                let (x, labels) = data.shard(step, 16, rank, 4);
                let _ = optim.train_step(&mut net, &x, &labels);
            }
            optim.synchronize(&mut net).unwrap();
            net.flat_params()
        })
        .remove(0)
    };
    let unfused = run(None);
    let one_group = run(Some(u64::MAX));
    let diff = max_rel_diff(&unfused, &one_group);
    assert!(diff < 2e-3, "fusion granularity changed results: {diff}");
}

#[test]
fn validation_mid_training_uses_fresh_parameters() {
    // Listing 1: synchronize() before eval must produce rank-identical,
    // up-to-date models even with communication in flight.
    let data = BlobDataset::new(10, 4, 0.4, 88);
    let evals = run_training(4, TrainConfig::default(), |handle| {
        let rank = handle.rank();
        let mut net = build_net(3);
        let mut optim = handle.into_optim(&net);
        let mut checkpoints = Vec::new();
        for step in 0..30 {
            let (x, labels) = data.shard(step, 32, rank, 4);
            let _ = optim.train_step(&mut net, &x, &labels);
            if step % 10 == 9 {
                optim.synchronize(&mut net).unwrap();
                checkpoints.push(net.flat_params());
            }
        }
        checkpoints
    });
    for ranks in evals.windows(2) {
        assert_eq!(ranks[0], ranks[1], "checkpoint mismatch between ranks");
    }
    // Parameters actually change between checkpoints (training progresses).
    let cps = &evals[0];
    for pair in cps.windows(2) {
        assert_ne!(pair[0], pair[1], "parameters frozen between checkpoints");
    }
}
