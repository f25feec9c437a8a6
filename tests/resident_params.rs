//! The ownership rule of the one resident copy (DESIGN.md §4.17): a group's
//! parameters live in the network's store, leave it for the communication engine
//! when the group's gradients are complete and come back with the
//! all-gather. Whether the caller takes them all back every step
//! (`synchronize`) or lets the next forward pass collect them just in time,
//! the same parameters must result; whatever the caller writes into the
//! store at a boundary is what trains on; and between a DeAR `train_step`
//! and `synchronize` the network cannot be read at all.

use dear::collectives::LocalFabric;
use dear::minidnn::{BlobDataset, Linear, Optimizer, Relu, Sequential, Tanh};
use dear::net::hash_params;
use dear::{
    run_training, run_worker, train_single_reference, OptimKind, ParallelismStrategy, TrainConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const STEPS: u64 = 8;
const GLOBAL_BATCH: usize = 12;

fn build_net(seed: u64) -> Sequential {
    let mut rng = StdRng::seed_from_u64(seed);
    Sequential::new()
        .push(Linear::new(10, 32, &mut rng))
        .push(Relu::new())
        .push(Linear::new(32, 24, &mut rng))
        .push(Tanh::new())
        .push(Linear::new(24, 4, &mut rng))
}

fn max_rel_diff(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs() / x.abs().max(y.abs()).max(1e-3))
        .fold(0.0, f32::max)
}

/// Trains `STEPS` steps on `world` ranks and returns rank 0's parameters
/// (all ranks asserted equal). `sync_every_step` brings every buffer home
/// between steps instead of layer by layer during the next forward pass.
fn train(world: usize, config: &TrainConfig, sync_every_step: bool) -> Vec<f32> {
    let data = BlobDataset::new(10, 4, 0.5, 21);
    let mut params = run_training(world, config.clone(), |handle| {
        let rank = handle.rank();
        let mut net = build_net(9);
        let mut optim = handle.into_optim(&net);
        for step in 0..STEPS {
            let (x, labels) = data.shard(step, GLOBAL_BATCH, rank, world);
            optim.train_step(&mut net, &x, &labels).unwrap();
            if sync_every_step {
                optim.synchronize(&mut net).unwrap();
            }
        }
        optim.synchronize(&mut net).unwrap();
        net.flat_params()
    });
    for p in &params[1..] {
        assert_eq!(hash_params(p), hash_params(&params[0]), "ranks diverged");
    }
    params.swap_remove(0)
}

#[test]
fn resident_and_restaged_parameters_train_identically() {
    let data = BlobDataset::new(10, 4, 0.5, 21);
    let batches = || (0..STEPS).map(|s| data.batch(s, GLOBAL_BATCH));
    for optim in [OptimKind::Sgd, OptimKind::adam_default()] {
        let base = TrainConfig {
            lr: 0.02,
            momentum: 0.9,
            weight_decay: 1e-4,
            fusion_buffer: Some(1 << 10),
            optim,
            ..TrainConfig::default()
        };
        // Single-process ground truth; distributed sums associate
        // differently, so it is matched to rounding, not to the bit.
        let mut reference = build_net(9);
        match optim {
            OptimKind::Sgd => {
                let _ = train_single_reference(&mut reference, &base, batches());
            }
            OptimKind::Adam { beta1, beta2, eps } => {
                let mut adam = dear::minidnn::Adam::with_options(
                    base.lr,
                    beta1,
                    beta2,
                    eps,
                    base.weight_decay,
                );
                for (x, labels) in batches() {
                    let logits = reference.forward(&x);
                    let (_, dloss) = dear::minidnn::softmax_cross_entropy(&logits, &labels);
                    reference.backward(&dloss);
                    adam.step(&mut reference);
                }
            }
        }
        let reference = reference.flat_params();
        for world in [2usize, 3] {
            for strategy in [ParallelismStrategy::Ddp, ParallelismStrategy::Zero2] {
                let config = base.clone().with_strategy(strategy);
                let resident = train(world, &config, false);
                let restaged = train(world, &config, true);
                let case = format!("{optim:?} {strategy:?} world {world}");
                assert_eq!(
                    hash_params(&resident),
                    hash_params(&restaged),
                    "{case}: synchronizing every step changed the result"
                );
                let diff = max_rel_diff(&resident, &reference);
                assert!(diff < 1e-2, "{case}: {diff} off the single-process run");
            }
        }
    }
}

#[test]
fn parameters_set_after_synchronize_are_what_the_next_step_trains() {
    // Train, synchronize, overwrite the net with `other`, train on: the
    // store is the only copy, so nothing can resurrect the pre-overwrite
    // parameters. Momentum 0 keeps the optimizer stateless, so the run must
    // equal one that simply started from `other`.
    let world = 2;
    let data = BlobDataset::new(10, 4, 0.5, 33);
    let config = TrainConfig {
        lr: 0.05,
        weight_decay: 1e-3,
        fusion_buffer: Some(1 << 10),
        ..TrainConfig::default()
    };
    let other = build_net(77).flat_params();
    let run = |prefix: u64| {
        run_training(world, config.clone(), |handle| {
            let rank = handle.rank();
            let mut net = build_net(9);
            let mut optim = handle.into_optim(&net);
            for step in 0..prefix {
                let (x, labels) = data.shard(step, GLOBAL_BATCH, rank, world);
                optim.train_step(&mut net, &x, &labels).unwrap();
            }
            optim.synchronize(&mut net).unwrap();
            net.set_flat_params(&other);
            for step in 100..100 + STEPS {
                let (x, labels) = data.shard(step, GLOBAL_BATCH, rank, world);
                optim.train_step(&mut net, &x, &labels).unwrap();
            }
            optim.synchronize(&mut net).unwrap();
            hash_params(&net.flat_params())
        })
    };
    assert_eq!(run(5), run(0));
}

/// One DeAR step on a one-rank world, on the calling thread (so a panic is
/// this test's), without the `synchronize` that must follow; then `read`.
fn read_right_after_a_step(read: impl FnOnce(&mut Sequential)) {
    let data = BlobDataset::new(10, 4, 0.5, 3);
    let config = TrainConfig {
        fusion_buffer: Some(1 << 10),
        ..TrainConfig::default()
    };
    run_worker(LocalFabric::create(1).remove(0), config, |handle| {
        let mut net = build_net(9);
        let mut optim = handle.into_optim(&net);
        let (x, labels) = data.batch(0, GLOBAL_BATCH);
        optim.train_step(&mut net, &x, &labels).unwrap();
        read(&mut net);
    });
}

#[test]
#[should_panic(expected = "synchronize")]
fn reading_parameters_without_synchronize_panics() {
    read_right_after_a_step(|net| drop(net.flat_params()));
}

#[test]
#[should_panic(expected = "synchronize")]
fn evaluating_without_synchronize_panics() {
    let (x, _) = BlobDataset::new(10, 4, 0.5, 3).batch(1, 2);
    read_right_after_a_step(|net| drop(net.forward(&x)));
}
