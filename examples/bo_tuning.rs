//! Online Bayesian-optimization tuning of the fusion buffer during *real*
//! threaded training (§IV-B end-to-end).
//!
//! Rank 0 measures windowed throughput, feeds the GP/EI tuner, and
//! broadcasts each new buffer size; all ranks re-bucket collectively.
//! Optimizer (momentum) state survives every re-bucketing, and training
//! remains numerically consistent across ranks throughout.
//!
//! Run with: `cargo run --release --example bo_tuning`

use dear::fusion::{BayesOpt, Domain};
use dear::tuning::OnlineTuning;
use dear::{run_training, TrainConfig};
use dear_minidnn::{BlobDataset, Linear, Relu, Sequential};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn build_model() -> Sequential {
    let mut rng = StdRng::seed_from_u64(3);
    let mut net = Sequential::new().push(Linear::new(16, 96, &mut rng));
    for _ in 0..4 {
        net = net.push(Relu::new()).push(Linear::new(96, 96, &mut rng));
    }
    net.push(Relu::new()).push(Linear::new(96, 4, &mut rng))
}

fn main() {
    let world = 4;
    let global_batch = 32;
    let window = 10u64; // steps per throughput measurement (as in §IV-B)
    let windows = 8;
    let initial = (64u64 << 10) as f64; // 64 KB to start (tiny model)
    let data = BlobDataset::new(16, 4, 0.4, 5);

    let config = TrainConfig {
        lr: 0.05,
        momentum: 0.9,
        fusion_buffer: Some(initial as u64),
        ..TrainConfig::default()
    };

    println!("online BO tuning on {world} workers: {windows} windows x {window} steps\n");
    let results = run_training(world, config, |handle| {
        let rank = handle.rank();
        let mut net = build_model();
        let mut optim = handle.into_optim(&net);
        // Only rank 0 owns the tuner; a tiny domain suits the tiny model.
        let tuner =
            (rank == 0).then(|| BayesOpt::new(Domain::new(8.0 * 1024.0, 512.0 * 1024.0), 1));
        let mut tuning = OnlineTuning::new(tuner, window, global_batch as f64, initial);
        let mut step = 0u64;
        let mut history = Vec::new();
        for _ in 0..windows {
            loop {
                let (x, labels) = data.shard(step, global_batch, rank, world);
                let _ = optim.train_step(&mut net, &x, &labels);
                step += 1;
                if let Some(throughput) = tuning.on_step() {
                    // Window closed: rank 0 suggests, everyone adopts.
                    optim.synchronize(&mut net).unwrap();
                    let suggestion = tuning.next_suggestion(throughput);
                    let agreed = optim.broadcast_value(0, suggestion).unwrap();
                    tuning.adopt(agreed);
                    optim.set_fusion_buffer(&net, Some(agreed as u64));
                    if rank == 0 {
                        history.push((throughput, agreed));
                    }
                    break;
                }
            }
        }
        optim.synchronize(&mut net).unwrap();
        (history, net.flat_params())
    });

    let (history, params0) = &results[0];
    for (i, (thr, next)) in history.iter().enumerate() {
        println!(
            "window {:>2}: {:>9.0} samples/s -> next buffer {:>6.0} KB",
            i + 1,
            thr,
            next / 1024.0
        );
    }
    for (rank, (_, params)) in results.iter().enumerate().skip(1) {
        assert_eq!(params0, params, "rank {rank} diverged during tuning");
    }
    println!(
        "\nall ranks consistent across {} re-bucketings: OK",
        history.len()
    );
}
