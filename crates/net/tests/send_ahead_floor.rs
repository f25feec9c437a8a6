//! The communication engine sends ahead of its receives (DESIGN.md §4.18): with two
//! symmetric ranks, each puts up to a window's worth of frames on the link
//! before it takes any off. A bounded transport must hold that many without
//! blocking `send`, or both ranks wait on each other until the send
//! deadline. This drives real DeAR training over the shm and TCP fabrics at
//! the **smallest queue depth the configuration accepts** and demands every
//! step finish with no `Timeout` — and with the bits of the in-process
//! fabric.

use std::time::Duration;

use dear_collectives::{LocalFabric, Transport, MIN_LINK_FRAMES};
use dear_core::{run_worker, PipelineMode, TrainConfig};
use dear_minidnn::{BlobDataset, Linear, Relu, Sequential};
use dear_net::{hash_params, tcp_loopback_with, NetConfig, ShmFabric};
use rand::rngs::StdRng;
use rand::SeedableRng;

const WORLD: usize = 2;
const STEPS: u64 = 20;

/// Six parameter tensors, one fusion group each: enough groups in a row
/// that the send-ahead window is full in both OP1 and OP2.
fn build_net() -> Sequential {
    let mut rng = StdRng::seed_from_u64(11);
    Sequential::new()
        .push(Linear::new(8, 24, &mut rng))
        .push(Relu::new())
        .push(Linear::new(24, 24, &mut rng))
        .push(Relu::new())
        .push(Linear::new(24, 4, &mut rng))
}

/// A short deadline: a send blocked on a full queue fails the test in a
/// second instead of hanging it for the default thirty.
fn floor_cfg(cfg: NetConfig) -> NetConfig {
    cfg.with_outbox_frames(0)
        .with_send_timeout(Duration::from_secs(1))
        .with_recv_timeout(Some(Duration::from_secs(5)))
}

/// Trains `STEPS` DeAR steps on every endpoint; the ranks' parameter hashes.
fn train<T: Transport + Send + 'static>(endpoints: Vec<T>) -> Vec<u64> {
    let config = TrainConfig {
        lr: 0.05,
        momentum: 0.9,
        fusion_buffer: None,
        mode: PipelineMode::Dear,
        ..TrainConfig::default()
    };
    let data = BlobDataset::new(8, 4, 0.4, 5);
    std::thread::scope(|s| {
        let handles: Vec<_> = endpoints
            .into_iter()
            .map(|ep| {
                let (config, data) = (config.clone(), &data);
                s.spawn(move || {
                    run_worker(ep, config, |handle| {
                        let rank = handle.rank();
                        let mut net = build_net();
                        let mut optim = handle.into_optim(&net);
                        for step in 0..STEPS {
                            let (x, labels) = data.shard(step, 8 * WORLD, rank, WORLD);
                            optim
                                .train_step(&mut net, &x, &labels)
                                .unwrap_or_else(|e| panic!("rank {rank} step {step}: {e}"));
                        }
                        optim
                            .synchronize(&mut net)
                            .unwrap_or_else(|e| panic!("rank {rank} final flush: {e}"));
                        hash_params(&net.flat_params())
                    })
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

#[test]
fn smallest_accepted_queue_depth_never_blocks_the_send_ahead() {
    assert_eq!(
        floor_cfg(NetConfig::new(WORLD, 0, "127.0.0.1:0")).outbox_frames,
        MIN_LINK_FRAMES,
        "the configuration floor is the shared constant"
    );
    // The full window runs ahead, one frame per op.
    let reference = train(LocalFabric::create(WORLD));
    assert_eq!(reference[0], reference[1], "ranks diverged");
    let shm = ShmFabric::with_config(&floor_cfg(NetConfig::new(WORLD, 0, "127.0.0.1:0")), &[0, 1]);
    assert_eq!(train(shm), reference, "shm");
    let tcp = tcp_loopback_with(WORLD, floor_cfg).expect("loopback rendezvous");
    assert_eq!(train(tcp), reference, "tcp");
}
