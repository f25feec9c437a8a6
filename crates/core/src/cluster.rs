//! Cluster orchestration: one worker per rank — a training thread that
//! owns its rank's endpoint and drives the communication engine from its
//! own layer hooks — over any fabric, or `P` of them over a shared
//! in-process fabric, running real distributed training.

use dear_collectives::{run_cluster, DType, Transport};
use dear_minidnn::{Sequential, Sgd};

use crate::comm::{CommEngine, HyperParams, OptimKind};
use crate::dist_optim::{DistOptim, PipelineMode};
use crate::layout::GroupLayout;
use crate::strategy::ParallelismStrategy;

/// Training configuration shared by all workers.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient in `[0, 1)`. At 0 (the default) SGD keeps no
    /// velocity: each rank's update is `p -= lr·(g + λp)` and holds no
    /// optimizer state at all; above 0 a velocity of the rank's shard (DeAR)
    /// or of the whole model (WFBP) is kept, starting from zeros.
    pub momentum: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// Greedy fusion buffer in bytes; `None` disables fusion.
    pub fusion_buffer: Option<u64>,
    /// The optimizer update rule (SGD by default; Adam supported).
    pub optim: OptimKind,
    /// DeAR or the WFBP baseline.
    pub mode: PipelineMode,
    /// Wire dtype of the gradient/parameter data path. `F32` by default; a
    /// narrow wire (`Bf16` / `F16`) halves its bytes — and fusion groups
    /// are sized in wire bytes — while every hop still accumulates in f32.
    /// The control path (broadcast, barrier, optimizer-state
    /// redistribution) always runs over an f32 wire regardless. Set it with
    /// [`TrainConfig::with_wire`], which checks that it is numeric.
    pub wire: DType,
    /// What, beyond data parallelism, is sharded across the world (ZeRO
    /// stage selection). `Ddp` by default — bit-identical to the
    /// pre-strategy runtime. `Zero2` requires [`PipelineMode::Dear`].
    pub strategy: ParallelismStrategy,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            lr: 0.1,
            momentum: 0.0,
            weight_decay: 0.0,
            fusion_buffer: Some(25 << 20),
            optim: OptimKind::Sgd,
            mode: PipelineMode::Dear,
            wire: DType::F32,
            strategy: ParallelismStrategy::Ddp,
        }
    }
}

impl TrainConfig {
    /// Selects the wire dtype of the data-path collectives (the
    /// mixed-precision knob): gradients and parameters are cast once per
    /// hop to `wire` for transmission and accumulated in f32 on arrival.
    ///
    /// # Panics
    ///
    /// Panics if `wire` is not numeric (`U8` is an opaque container for
    /// compressed payloads, not a training wire format).
    #[must_use]
    pub fn with_wire(mut self, wire: DType) -> Self {
        assert!(
            wire.is_numeric(),
            "wire dtype must be numeric (f32/bf16/f16), not {wire}"
        );
        self.wire = wire;
        self
    }

    /// Selects the parallelism strategy (ZeRO stage).
    #[must_use]
    pub fn with_strategy(mut self, strategy: ParallelismStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// The optimizer hyper-parameters.
    #[must_use]
    pub fn hyper(&self) -> HyperParams {
        HyperParams {
            lr: self.lr,
            momentum: self.momentum,
            weight_decay: self.weight_decay,
            kind: self.optim,
        }
    }
}

/// A worker's handle, passed to the per-rank closure of [`run_training`].
/// Convert it into a [`DistOptim`] once the network is built.
pub struct WorkerHandle {
    rank: usize,
    world: usize,
    config: TrainConfig,
    transport: Box<dyn Transport + Send>,
    trace_scope: String,
}

impl std::fmt::Debug for WorkerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerHandle")
            .field("rank", &self.rank)
            .field("world", &self.world)
            .finish()
    }
}

impl WorkerHandle {
    /// This worker's rank.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size.
    #[must_use]
    pub fn world(&self) -> usize {
        self.world
    }

    /// Builds the distributed optimizer for `net` — the `dear.DistOptim`
    /// wrap of Listing 1. Consumes the handle; call once per worker, with
    /// identically-structured networks on every rank.
    ///
    /// # Panics
    ///
    /// Panics if the configured strategy cannot run under the configured
    /// pipeline mode (ZeRO-2 requires DeAR) — reject
    /// earlier with [`ParallelismStrategy::validate_mode`] for a typed
    /// error.
    #[must_use]
    pub fn into_optim(self, net: &Sequential) -> DistOptim {
        if let Err(e) = self.config.strategy.validate_mode(self.config.mode) {
            panic!("{e}");
        }
        let layout =
            GroupLayout::from_buffer_wire(net, self.config.fusion_buffer, self.config.wire);
        let engine = CommEngine::new(
            self.transport,
            self.config.hyper(),
            self.config.strategy,
            self.config.mode,
            &self.trace_scope,
        );
        DistOptim::new(
            engine,
            self.config.mode,
            layout,
            self.config.optim,
            &self.trace_scope,
        )
    }
}

/// Runs ONE rank of a distributed job over an arbitrary [`Transport`]: `f`
/// runs on the calling thread with a [`WorkerHandle`] that owns
/// `transport`, and the [`DistOptim`] it builds drives the rank's
/// communication from the training step itself — no thread is spawned.
/// This is the entry point a real multi-process deployment uses — build a
/// transport (e.g. `dear-net`'s `TcpEndpoint` from `RANK` / `WORLD_SIZE` /
/// `MASTER_ADDR`) and hand it here; [`run_training`] is the in-process
/// convenience that calls this once per rank over a
/// [`dear_collectives::LocalFabric`]. To train over an emulated link, wrap
/// every rank's endpoint in a [`dear_collectives::DelayFabric`] before
/// handing it here.
///
/// A `DistOptim` dropped with communication outstanding finishes this
/// rank's part of it first, so its peers are not left waiting.
pub fn run_worker<T, F, R>(transport: T, config: TrainConfig, f: F) -> R
where
    T: Transport + Send + 'static,
    F: FnOnce(WorkerHandle) -> R,
{
    let rank = transport.rank();
    let world = transport.world_size();
    f(WorkerHandle {
        rank,
        world,
        config,
        transport: Box::new(transport),
        // Unique per worker so concurrent in-process clusters never share
        // a trace stream (see `trace`'s stream-naming contract).
        trace_scope: crate::trace::unique_scope(rank),
    })
}

/// Spawns `world` workers over a shared in-process fabric, runs `f` on
/// every rank, and returns the per-rank results in rank order:
/// [`run_worker`] on every rank of a [`run_cluster`].
///
/// # Panics
///
/// Panics if any worker panics.
pub fn run_training<F, R>(world: usize, config: TrainConfig, f: F) -> Vec<R>
where
    F: Fn(WorkerHandle) -> R + Sync,
    R: Send,
{
    run_cluster(world, |ep| run_worker(ep, config.clone(), &f))
}

/// Single-process reference: trains `net` with plain S-SGD on the full
/// global batch — the ground truth that distributed runs must match
/// (Eq. 2).
pub fn train_single_reference(
    net: &mut Sequential,
    config: &TrainConfig,
    batches: impl Iterator<Item = (dear_minidnn::Tensor, Vec<usize>)>,
) -> Vec<f32> {
    let mut opt = Sgd::with_options(config.lr, config.momentum, config.weight_decay);
    let mut losses = Vec::new();
    for (x, labels) in batches {
        let logits = net.forward(&x);
        let (loss, dloss) = dear_minidnn::softmax_cross_entropy(&logits, &labels);
        losses.push(loss);
        net.backward(&dloss);
        opt.step(net);
    }
    losses
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::OptimState;
    use dear_collectives::LocalFabric;
    use dear_minidnn::{BlobDataset, Linear, Relu};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::ops::Range;

    fn build_net(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        Sequential::new()
            .push(Linear::new(6, 16, &mut rng))
            .push(Relu::new())
            .push(Linear::new(16, 8, &mut rng))
            .push(Relu::new())
            .push(Linear::new(8, 3, &mut rng))
    }

    fn train_distributed(
        world: usize,
        config: TrainConfig,
        steps: u64,
        global_batch: usize,
    ) -> Vec<Vec<f32>> {
        let data = BlobDataset::new(6, 3, 0.4, 99);
        run_training(world, config, |handle| {
            let rank = handle.rank();
            let mut net = build_net(7);
            let mut optim = handle.into_optim(&net);
            for step in 0..steps {
                let (x, labels) = data.shard(step, global_batch, rank, world);
                let _ = optim.train_step(&mut net, &x, &labels);
            }
            optim.synchronize(&mut net).unwrap();
            net.flat_params()
        })
    }

    fn max_rel_diff(a: &[f32], b: &[f32]) -> f32 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs() / x.abs().max(y.abs()).max(1e-3))
            .fold(0.0, f32::max)
    }

    /// `run_training` for worlds that lose a rank: every endpoint gets a
    /// receive deadline. The local fabric has no failure detector; the
    /// deadline is what turns a silent dead neighbor into a typed error the
    /// recovery loop can act on.
    fn run_with_recv_deadline<R: Send>(
        world: usize,
        config: &TrainConfig,
        worker: impl Fn(WorkerHandle) -> R + Copy + Send,
    ) -> Vec<R> {
        std::thread::scope(|s| {
            let handles: Vec<_> = LocalFabric::create(world)
                .into_iter()
                .map(|ep| {
                    ep.set_recv_timeout(Some(std::time::Duration::from_millis(500)));
                    let config = config.clone();
                    s.spawn(move || run_worker(ep, config, worker))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker thread panicked"))
                .collect()
        })
    }

    #[test]
    fn dear_matches_single_gpu_sgd() {
        let config = TrainConfig {
            fusion_buffer: Some(256), // tiny buffer => several groups
            ..TrainConfig::default()
        };
        let params = train_distributed(4, config.clone(), 20, 32);
        // All ranks agree exactly.
        for p in &params[1..] {
            assert_eq!(&params[0], p, "ranks diverged");
        }
        // And match the single-GPU reference on the full batch.
        let mut reference = build_net(7);
        let data = BlobDataset::new(6, 3, 0.4, 99);
        let _ = train_single_reference(&mut reference, &config, (0..20).map(|s| data.batch(s, 32)));
        let diff = max_rel_diff(&params[0], &reference.flat_params());
        assert!(diff < 2e-3, "max relative diff {diff}");
    }

    #[test]
    fn dear_with_momentum_matches_reference() {
        let config = TrainConfig {
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 1e-4,
            fusion_buffer: Some(1 << 10),
            ..TrainConfig::default()
        };
        let params = train_distributed(3, config.clone(), 15, 30);
        let mut reference = build_net(7);
        let data = BlobDataset::new(6, 3, 0.4, 99);
        let _ = train_single_reference(&mut reference, &config, (0..15).map(|s| data.batch(s, 30)));
        let diff = max_rel_diff(&params[0], &reference.flat_params());
        assert!(diff < 5e-3, "max relative diff {diff}");
    }

    #[test]
    fn wfbp_mode_matches_dear_mode() {
        let dear = train_distributed(
            4,
            TrainConfig {
                fusion_buffer: Some(512),
                mode: PipelineMode::Dear,
                ..TrainConfig::default()
            },
            12,
            16,
        );
        let wfbp = train_distributed(
            4,
            TrainConfig {
                fusion_buffer: Some(512),
                mode: PipelineMode::Wfbp,
                ..TrainConfig::default()
            },
            12,
            16,
        );
        let diff = max_rel_diff(&dear[0], &wfbp[0]);
        assert!(diff < 2e-3, "DeAR vs WFBP diff {diff}");
    }

    #[test]
    fn unfused_training_works() {
        let config = TrainConfig {
            fusion_buffer: None,
            ..TrainConfig::default()
        };
        let params = train_distributed(2, config, 5, 8);
        assert_eq!(params[0], params[1]);
    }

    #[test]
    fn training_reduces_loss() {
        let data = BlobDataset::new(6, 3, 0.3, 5);
        let losses = run_training(4, TrainConfig::default(), |handle| {
            let rank = handle.rank();
            let mut net = build_net(1);
            let mut optim = handle.into_optim(&net);
            let mut first = 0.0;
            let mut last = 0.0;
            for step in 0..60 {
                let (x, labels) = data.shard(step, 64, rank, 4);
                let loss = optim.train_step(&mut net, &x, &labels).unwrap();
                if step == 0 {
                    first = loss;
                }
                last = loss;
            }
            optim.synchronize(&mut net).unwrap();
            (first, last)
        });
        for (first, last) in losses {
            assert!(last < 0.5 * first, "loss did not drop: {first} -> {last}");
        }
    }

    #[test]
    fn synchronize_then_eval_sees_fresh_params() {
        let data = BlobDataset::new(6, 3, 0.3, 11);
        let accs = run_training(2, TrainConfig::default(), |handle| {
            let rank = handle.rank();
            let mut net = build_net(2);
            let mut optim = handle.into_optim(&net);
            for step in 0..80 {
                let (x, labels) = data.shard(step, 32, rank, 2);
                let _ = optim.train_step(&mut net, &x, &labels);
            }
            // Listing 1: synchronize before validation.
            optim.synchronize(&mut net).unwrap();
            let (x, labels) = data.batch(10_000, 128);
            let logits = net.forward(&x);
            dear_minidnn::accuracy(&logits, &labels)
        });
        for acc in accs {
            assert!(acc > 0.8, "validation accuracy {acc}");
        }
    }

    #[test]
    fn adam_matches_single_gpu_reference() {
        let data = BlobDataset::new(6, 3, 0.4, 123);
        let config = TrainConfig {
            lr: 0.01,
            weight_decay: 1e-4,
            fusion_buffer: Some(512),
            optim: OptimKind::adam_default(),
            ..TrainConfig::default()
        };
        let steps = 15u64;
        let params = run_training(4, config, |handle| {
            let rank = handle.rank();
            let mut net = build_net(6);
            let mut optim = handle.into_optim(&net);
            for step in 0..steps {
                let (x, labels) = data.shard(step, 32, rank, 4);
                let _ = optim.train_step(&mut net, &x, &labels);
            }
            optim.synchronize(&mut net).unwrap();
            net.flat_params()
        });
        for p in &params[1..] {
            assert_eq!(&params[0], p, "ranks diverged under Adam");
        }
        // Single-process Adam reference on the full global batch.
        let mut reference = build_net(6);
        let mut opt = dear_minidnn::Adam::with_options(0.01, 0.9, 0.999, 1e-8, 1e-4);
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
    fn adam_wfbp_mode_matches_dear_mode() {
        let data = BlobDataset::new(6, 3, 0.4, 124);
        let run = |mode: PipelineMode| {
            let config = TrainConfig {
                lr: 0.01,
                fusion_buffer: Some(1 << 10),
                optim: OptimKind::adam_default(),
                mode,
                ..TrainConfig::default()
            };
            run_training(3, config, |handle| {
                let rank = handle.rank();
                let mut net = build_net(2);
                let mut optim = handle.into_optim(&net);
                for step in 0..10 {
                    let (x, labels) = data.shard(step, 30, rank, 3);
                    let _ = optim.train_step(&mut net, &x, &labels);
                }
                optim.synchronize(&mut net).unwrap();
                net.flat_params()
            })
            .remove(0)
        };
        let diff = max_rel_diff(&run(PipelineMode::Dear), &run(PipelineMode::Wfbp));
        assert!(diff < 1e-2, "Adam modes diverged: {diff}");
    }

    #[test]
    fn adam_rebucketing_preserves_moments() {
        // `set_fusion_buffer` mid-run (the BO path): the next step re-packs
        // the network's store to the new groups and the engine
        // re-partitions the moments. Trains 8 steps, re-buckets to `second`
        // (if given), trains 8 more.
        let data = BlobDataset::new(6, 3, 0.4, 125);
        let run = |world: usize, mode: PipelineMode, first: u64, second: Option<u64>| {
            let config = TrainConfig {
                lr: 0.01,
                fusion_buffer: Some(first),
                optim: OptimKind::adam_default(),
                mode,
                ..TrainConfig::default()
            };
            let mut out = run_training(world, config, |handle| {
                let rank = handle.rank();
                let mut net = build_net(8);
                let mut optim = handle.into_optim(&net);
                for step in 0..8 {
                    let (x, labels) = data.shard(step, 30, rank, world);
                    let _ = optim.train_step(&mut net, &x, &labels);
                }
                optim.synchronize(&mut net).unwrap();
                if let Some(second) = second {
                    optim.set_fusion_buffer(&net, Some(second));
                }
                for step in 8..16 {
                    let (x, labels) = data.shard(step, 30, rank, world);
                    let _ = optim.train_step(&mut net, &x, &labels);
                }
                optim.synchronize(&mut net).unwrap();
                let packed = GroupLayout::from_buffer(&net, second.or(Some(first)));
                assert_eq!(net.store().segmentation(), packed.segmentation());
                (net.flat_params(), optim.export_optim_state().unwrap())
            });
            for (p, _) in &out[1..] {
                assert_eq!(&out[0].0, p, "ranks diverged after Adam re-bucketing");
            }
            out.swap_remove(0)
        };
        let (params, _) = run(3, PipelineMode::Dear, 256, Some(4096));
        let mut reference = build_net(8);
        let mut opt = dear_minidnn::Adam::new(0.01);
        for step in 0..16 {
            let (x, labels) = data.batch(step, 30);
            let logits = reference.forward(&x);
            let (_, dloss) = dear_minidnn::softmax_cross_entropy(&logits, &labels);
            reference.backward(&dloss);
            dear_minidnn::Optimizer::step(&mut opt, &mut reference);
        }
        let diff = max_rel_diff(&params, &reference.flat_params());
        assert!(diff < 1e-2, "max relative diff {diff}");
        // On two ranks every reduced sum has two terms, and `a + b` does
        // not depend on which rank's chunk it is computed in: the fusion
        // plan cannot show in the arithmetic. So a run re-bucketed mid-way
        // must equal the run under the final plan bit for bit — every
        // parameter, and rank 0's shard of both moments and the step count.
        for mode in [PipelineMode::Dear, PipelineMode::Wfbp] {
            let rebucketed = run(2, mode, 256, Some(4096));
            let fixed = run(2, mode, 4096, None);
            let bits = |p: &[f32]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&rebucketed.0), bits(&fixed.0), "{mode:?}: parameters");
            // All-zero state would compare equal whatever re-bucketing did.
            let state = &rebucketed.1;
            assert!(
                state.velocity.iter().any(|&m| m != 0.0)
                    && state.second_moment.iter().any(|&v| v != 0.0),
                "{mode:?}: the exported moments are all zero"
            );
            assert_eq!(rebucketed.1, fixed.1, "{mode:?}: optimizer state");
        }
    }

    #[test]
    fn adam_rebalance_with_a_rank_that_owns_nothing() {
        // Three ranks over two 2-element groups: rank 1's chunk is empty in
        // both, so it holds no second moment. The rebalance must still
        // enter every collective its peers enter, and — layout and world
        // unchanged — leave the run bit-equal to one that never rebalanced.
        let data = BlobDataset::new(1, 2, 0.4, 31);
        let config = TrainConfig {
            lr: 0.01,
            fusion_buffer: None,
            optim: OptimKind::adam_default(),
            ..TrainConfig::default()
        };
        let data = &data;
        let run = |rebalance: bool| {
            run_with_recv_deadline(3, &config, move |handle| {
                let rank = handle.rank();
                let mut net =
                    Sequential::new().push(Linear::new(1, 2, &mut StdRng::seed_from_u64(3)));
                let mut optim = handle.into_optim(&net);
                for step in 0..8 {
                    if step == 4 {
                        optim.synchronize(&mut net).unwrap();
                        if rebalance {
                            optim.rebalance_optim_state().unwrap();
                        }
                    }
                    let (x, labels) = data.shard(step, 6, rank, 3);
                    optim.train_step(&mut net, &x, &labels).unwrap();
                }
                optim.synchronize(&mut net).unwrap();
                net.flat_params()
            })
        };
        let bits = |ranks: Vec<Vec<f32>>| {
            ranks
                .into_iter()
                .map(|p| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(run(true)), bits(run(false)));
    }

    #[test]
    fn bf16_wire_training_converges() {
        // Mixed precision on the wire: gradients cross the fabric as bf16
        // (half the bytes) but every hop accumulates in f32. That rounds
        // each update slightly, so ranks need not bit-match the f32
        // reference — but they must agree with *each other* (the all-gather
        // distributes one rank's updated shard to everyone) and the loss
        // must still collapse. Halfway, a re-bucketing must keep sizing
        // groups in bf16 bytes: at this budget the two wires group
        // differently.
        const REBUCKET: u64 = 256;
        let data = BlobDataset::new(6, 3, 0.3, 5);
        let config = TrainConfig {
            fusion_buffer: Some(512),
            ..TrainConfig::default()
        }
        .with_wire(DType::Bf16);
        let out = run_training(4, config, |handle| {
            let rank = handle.rank();
            let mut net = build_net(1);
            let mut optim = handle.into_optim(&net);
            let mut first = 0.0;
            let mut last = 0.0;
            for step in 0..60 {
                if step == 30 {
                    optim.synchronize(&mut net).unwrap();
                    optim.set_fusion_buffer(&net, Some(REBUCKET));
                    let groups = |wire| {
                        GroupLayout::from_buffer_wire(&net, Some(REBUCKET), wire).num_groups()
                    };
                    assert_eq!(optim.num_groups(), groups(DType::Bf16));
                    assert_ne!(optim.num_groups(), groups(DType::F32));
                }
                let (x, labels) = data.shard(step, 64, rank, 4);
                let loss = optim.train_step(&mut net, &x, &labels).unwrap();
                if step == 0 {
                    first = loss;
                }
                last = loss;
            }
            optim.synchronize(&mut net).unwrap();
            let (x, labels) = data.batch(10_000, 128);
            let logits = net.forward(&x);
            let acc = dear_minidnn::accuracy(&logits, &labels);
            (first, last, acc, net.flat_params())
        });
        for (_, _, _, p) in &out[1..] {
            assert_eq!(&out[0].3, p, "ranks diverged on a bf16 wire");
        }
        for (first, last, acc, _) in &out {
            assert!(
                last < &(0.5 * first),
                "bf16 training did not converge: {first} -> {last}"
            );
            assert!(*acc > 0.8, "bf16 validation accuracy only {acc}");
        }
    }

    #[test]
    fn broadcast_value_is_exact_above_f32_precision() {
        // The BO buffer-size sync broadcasts byte counts above 2^24, where
        // f32 has no integer resolution: 26_214_401 as f32 rounds to
        // 26_214_400, so the old single-f32 broadcast left the root with a
        // different fusion layout than every other rank. The value must
        // round-trip exactly on all ranks, including the root.
        let value = f64::from(25u32 << 20) + 1.0; // 26_214_401.0
        assert_ne!(value as f32 as f64, value, "test value must not fit f32");
        for probe in [value, -value, 1e300, f64::from(u32::MAX) + 2.0, 0.1] {
            let got = run_training(4, TrainConfig::default(), |handle| {
                let net = build_net(3);
                let mut optim = handle.into_optim(&net);
                let sent = if optim.rank() == 1 { probe } else { 0.0 };
                optim.broadcast_value(1, sent).unwrap()
            });
            assert_eq!(got, vec![probe; 4], "broadcast of {probe} not exact");
        }
    }

    #[test]
    fn agreed_step_is_exact_above_f32_precision() {
        // Step counters ride the f32 control path, which holds integers
        // exactly only below 2^24: a min of one f32 gave ranks at 2^24 + 1,
        // + 3, + 5 and + 7 back 2^24, a step none of them holds a snapshot
        // of. In the second case rank 3's low bits are the smallest, but
        // its high bits are not the minimum: it must not win.
        let base = 1u64 << 24;
        for (steps, want) in [
            ([base + 1, base + 3, base + 5, base + 7], base + 1),
            ([2 * base + 3, base + 9, base + 2, 2 * base], base + 2),
        ] {
            let got = run_training(4, TrainConfig::default(), |handle| {
                let net = build_net(3);
                let mut optim = handle.into_optim(&net);
                optim.agree_min_step(steps[optim.rank()]).unwrap()
            });
            assert_eq!(got, vec![want; 4], "min of {steps:?}");
        }
    }

    #[test]
    fn a_broadcast_to_a_dead_peer_is_an_error_and_the_survivor_trains_on() {
        // Rank 1 leaves before the collective: rank 0's broadcast must come
        // back as a typed error — it used to panic the training thread —
        // and latch, after which the usual recovery works: resize to the
        // survivor, roll back, train.
        let data = BlobDataset::new(6, 3, 0.4, 9);
        let worker = |handle: WorkerHandle| {
            let rank = handle.rank();
            let mut net = build_net(3);
            let mut optim = handle.into_optim(&net);
            if rank == 1 {
                return None;
            }
            let snapshot = net.flat_params();
            let failure = optim.broadcast_value(1, 0.0).unwrap_err();
            assert_eq!(optim.comm_failed(), Some(&failure));
            let change = optim.resize_world(Some(vec![0])).unwrap();
            assert_eq!((change.new_rank, change.new_world), (0, 1));
            net.set_flat_params(&snapshot);
            optim.rebalance_optim_state().unwrap();
            let (x, labels) = data.shard(0, 16, 0, 1);
            let loss = optim.train_step(&mut net, &x, &labels).unwrap();
            optim.synchronize(&mut net).unwrap();
            assert!(loss.is_finite());
            Some(net.flat_params() != snapshot)
        };
        let out = run_with_recv_deadline(2, &TrainConfig::default(), worker);
        assert_eq!(out, [Some(true), None], "the survivor trained a step");
    }

    #[test]
    fn lr_schedule_matches_reference() {
        // A learning-rate decay mid-training under both update rules and
        // both pipelines: the rule must stay what was configured (the
        // sharded optimizer once turned into SGD here) and its state must
        // carry on (WFBP's optimizer once restarted from zero momentum).
        // DeAR and WFBP do the same arithmetic on the same reduced sums, so
        // they agree to the bit across the schedule step.
        let data = BlobDataset::new(6, 3, 0.4, 42);
        for optim in [OptimKind::Sgd, OptimKind::adam_default()] {
            let (lr, decayed) = match optim {
                OptimKind::Sgd => (0.1, 0.01),
                OptimKind::Adam { .. } => (0.01, 0.001),
            };
            let run = |mode: PipelineMode| {
                let config = TrainConfig {
                    lr,
                    momentum: 0.9,
                    fusion_buffer: Some(512),
                    optim,
                    mode,
                    ..TrainConfig::default()
                };
                let mut params = run_training(3, config, |handle| {
                    let rank = handle.rank();
                    let mut net = build_net(4);
                    let mut optim = handle.into_optim(&net);
                    for step in 0..16 {
                        if step == 8 {
                            // Decay the learning rate, collectively.
                            optim.synchronize(&mut net).unwrap();
                            optim.set_hyper(decayed, 0.9, 0.0);
                        }
                        let (x, labels) = data.shard(step, 30, rank, 3);
                        let _ = optim.train_step(&mut net, &x, &labels);
                    }
                    optim.synchronize(&mut net).unwrap();
                    net.flat_params()
                });
                for p in &params[1..] {
                    assert_eq!(&params[0], p, "ranks diverged under LR schedule");
                }
                params.swap_remove(0)
            };
            let dear = run(PipelineMode::Dear);
            let wfbp = run(PipelineMode::Wfbp);
            let bits = |p: &[f32]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&dear), bits(&wfbp), "{optim:?}: DeAR and WFBP differ");
            // Reference applies the same schedule; only the rate changes.
            let mut reference = build_net(4);
            let mut sgd = Sgd::with_options(lr, 0.9, 0.0);
            let mut adam = dear_minidnn::Adam::new(lr);
            for step in 0..16u64 {
                if step == 8 {
                    sgd.set_lr(decayed);
                    adam.set_lr(decayed);
                }
                let (x, labels) = data.batch(step, 30);
                let logits = reference.forward(&x);
                let (_, dloss) = dear_minidnn::softmax_cross_entropy(&logits, &labels);
                reference.backward(&dloss);
                match optim {
                    OptimKind::Sgd => sgd.step(&mut reference),
                    OptimKind::Adam { .. } => {
                        dear_minidnn::Optimizer::step(&mut adam, &mut reference)
                    }
                }
            }
            let diff = max_rel_diff(&dear, &reference.flat_params());
            assert!(diff < 5e-3, "{optim:?}: max relative diff {diff}");
        }
    }

    #[test]
    fn in_place_resize_recovers_training_after_peer_loss() {
        // The full elastic recovery loop over the in-process fabric: train
        // on 4 ranks, kill rank 2 at an iteration boundary, detect the
        // failure through a typed step error, resize the world in place,
        // agree on the resume step, roll back to the boundary snapshot,
        // rebalance the optimizer shards, and keep training on 3 ranks —
        // no restart, and the survivors stay bitwise-identical. Under both
        // pipelines: WFBP's rollback imports the whole state on every rank.
        let data = BlobDataset::new(6, 3, 0.4, 77);
        let worker = |handle: WorkerHandle| {
            let rank = handle.rank();
            let mut net = build_net(5);
            let mut optim = handle.into_optim(&net);
            for step in 0..6 {
                let (x, labels) = data.shard(step, 32, rank, 4);
                let _ = optim.train_step(&mut net, &x, &labels);
            }
            optim.synchronize(&mut net).unwrap();
            // Boundary snapshot — the rollback target after peer loss.
            let snap_params = net.flat_params();
            let snap_optim = optim.export_optim_state().unwrap();
            optim.barrier().unwrap();
            if rank == 2 {
                // Dies abruptly: returning drops the endpoint, and the
                // survivors' next collective fails instead of completing.
                return None;
            }
            // Survivors run until the failure surfaces as a typed error
            // (the step that observes it is garbage and is discarded).
            let mut probe = 6u64;
            loop {
                let (x, labels) = data.shard(probe, 32, rank, 4);
                match optim.train_step(&mut net, &x, &labels) {
                    Ok(_) => probe += 1,
                    Err(_) => break,
                }
            }
            // Reconfigure in place and resume from the agreed snapshot.
            let change = optim
                .resize_world(Some(vec![0, 1, 3]))
                .expect("in-place resize failed");
            assert_eq!(change.new_world, 3);
            let resume = optim.agree_min_step(6).expect("step agreement failed");
            assert_eq!(resume, 6);
            net.set_flat_params(&snap_params);
            optim.import_optim_state(snap_optim).unwrap();
            optim
                .rebalance_optim_state()
                .expect("shard rebalance failed");
            let (rank, world) = (change.new_rank, change.new_world);
            for step in resume..resume + 6 {
                let (x, labels) = data.shard(step, 30, rank, world);
                let _ = optim.train_step(&mut net, &x, &labels);
            }
            optim.synchronize(&mut net).unwrap();
            Some(net.flat_params())
        };
        for mode in [PipelineMode::Dear, PipelineMode::Wfbp] {
            let config = TrainConfig {
                lr: 0.05,
                momentum: 0.9,
                fusion_buffer: Some(512),
                mode,
                ..TrainConfig::default()
            };
            let out = run_with_recv_deadline(4, &config, worker);
            let survivors: Vec<_> = out.into_iter().flatten().collect();
            assert_eq!(
                survivors.len(),
                3,
                "{mode:?}: exactly the three survivors finish"
            );
            for p in &survivors[1..] {
                assert_eq!(
                    &survivors[0], p,
                    "{mode:?}: survivors diverged after the in-place resize"
                );
            }
        }
    }

    #[test]
    fn wfbp_optimizer_state_is_the_sum_of_the_dear_shards() {
        // WFBP updates every element on every rank with DeAR's rule, so its
        // state is the whole of what DeAR keeps in shards: each rank's
        // export is the sum of the DeAR ranks' exports, the Adam step is
        // the step count, and every rank holds the full vectors. On two
        // ranks each reduced sum has two terms in either pipeline, so the
        // parameters agree to the bit as well.
        const STEPS: u64 = 5;
        let world = 2;
        let data = BlobDataset::new(6, 3, 0.4, 29);
        for (kind, vectors) in [(OptimKind::Sgd, 1), (OptimKind::adam_default(), 2)] {
            let run = |mode: PipelineMode| {
                let config = TrainConfig {
                    lr: 0.05,
                    momentum: 0.9,
                    weight_decay: 1e-4,
                    fusion_buffer: Some(512),
                    optim: kind,
                    mode,
                    ..TrainConfig::default()
                };
                run_training(world, config, |handle| {
                    let rank = handle.rank();
                    let mut net = build_net(3);
                    let mut optim = handle.into_optim(&net);
                    for step in 0..STEPS {
                        let (x, labels) = data.shard(step, 32, rank, world);
                        optim.train_step(&mut net, &x, &labels).unwrap();
                    }
                    optim.synchronize(&mut net).unwrap();
                    (
                        net.flat_params(),
                        optim.export_optim_state().unwrap(),
                        optim.optim_state_bytes().unwrap(),
                    )
                })
            };
            let dear = run(PipelineMode::Dear);
            let wfbp = run(PipelineMode::Wfbp);
            let sum = |pick: fn(&OptimState) -> &Vec<f32>| -> Vec<u32> {
                let (a, b) = (pick(&dear[0].1), pick(&dear[1].1));
                a.iter().zip(b).map(|(x, y)| (x + y).to_bits()).collect()
            };
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let n = dear[0].0.len();
            for (rank, (params, state, bytes)) in wfbp.iter().enumerate() {
                let case = format!("{kind:?} rank {rank}");
                assert_eq!(bits(params), bits(&dear[0].0), "{case}: parameters");
                assert!(
                    state.velocity.iter().any(|&v| v != 0.0),
                    "{case}: velocity is all zero"
                );
                assert_eq!(
                    bits(&state.velocity),
                    sum(|s| &s.velocity),
                    "{case}: velocity"
                );
                assert_eq!(
                    bits(&state.second_moment),
                    sum(|s| &s.second_moment),
                    "{case}: second moment"
                );
                assert_eq!(state.adam_step, STEPS, "{case}: Adam step");
                assert_eq!(*bytes, vectors * n * 4, "{case}: resident bytes");
            }
        }
    }

    #[test]
    fn resume_from_an_exported_state_is_bitwise_exact() {
        // Run A trains K steps, snapshots parameters and optimizer state,
        // and trains on to 2K; run B is a fresh world that installs the
        // snapshot and trains K..2K. Nothing else carries over, so B must
        // end where A did — momentum and both Adam moments included, under
        // both pipelines (WFBP once dropped the imported state silently).
        const K: u64 = 4;
        let world = 2;
        let data = BlobDataset::new(6, 3, 0.4, 31);
        for mode in [PipelineMode::Dear, PipelineMode::Wfbp] {
            for kind in [OptimKind::Sgd, OptimKind::adam_default()] {
                let config = TrainConfig {
                    lr: 0.05,
                    momentum: 0.9,
                    fusion_buffer: Some(512),
                    optim: kind,
                    mode,
                    ..TrainConfig::default()
                };
                let train = |optim: &mut DistOptim, net: &mut Sequential, steps: Range<u64>| {
                    for step in steps {
                        let (x, labels) = data.shard(step, 32, optim.rank(), world);
                        optim.train_step(net, &x, &labels).unwrap();
                    }
                    optim.synchronize(net).unwrap();
                };
                let a = run_training(world, config.clone(), |handle| {
                    let mut net = build_net(9);
                    let mut optim = handle.into_optim(&net);
                    train(&mut optim, &mut net, 0..K);
                    let snapshot = (net.flat_params(), optim.export_optim_state().unwrap());
                    train(&mut optim, &mut net, K..2 * K);
                    (snapshot, net.flat_params())
                });
                let b = run_training(world, config, |handle| {
                    let mut net = build_net(9);
                    let mut optim = handle.into_optim(&net);
                    let (params, state) = &a[optim.rank()].0;
                    net.set_flat_params(params);
                    optim.import_optim_state(state.clone()).unwrap();
                    train(&mut optim, &mut net, K..2 * K);
                    net.flat_params()
                });
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                for (rank, (resumed, (_, whole))) in b.iter().zip(&a).enumerate() {
                    assert_eq!(
                        bits(resumed),
                        bits(whole),
                        "{mode:?} {kind:?} rank {rank}: the resumed run diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn a_checkpoint_of_another_model_is_refused_and_training_goes_on() {
        // A well-formed optimizer state of the wrong length must never
        // reach the engine (which could only die of it, and take the
        // worker down at its next job): it is refused with a typed error,
        // nothing is imported, and the same `DistOptim` trains on exactly
        // as if it had never been asked.
        use dear_collectives::CollectiveError;
        let data = BlobDataset::new(6, 3, 0.4, 11);
        let run = |foreign_checkpoints: bool| {
            let config = TrainConfig {
                momentum: 0.9,
                fusion_buffer: Some(512),
                ..TrainConfig::default()
            };
            run_training(2, config, |handle| {
                let rank = handle.rank();
                let mut net = build_net(7);
                let mut optim = handle.into_optim(&net);
                let n = net.param_count();
                let (x, labels) = data.shard(0, 16, rank, 2);
                optim.train_step(&mut net, &x, &labels).unwrap();
                optim.synchronize(&mut net).unwrap();
                if foreign_checkpoints {
                    // An empty vector is no state of its kind, not a
                    // foreign one: only the second moment is wrong in the
                    // last case.
                    let cases = [(n + 3, 0, n + 3), (n, 1, 1), (0, n - 1, n - 1)];
                    for (velocity, second, actual) in cases {
                        let state = OptimState {
                            velocity: vec![0.5; velocity],
                            second_moment: vec![0.5; second],
                            adam_step: 7,
                        };
                        let expected = n;
                        assert_eq!(
                            optim.import_optim_state(state),
                            Err(CollectiveError::SizeMismatch { expected, actual })
                        );
                    }
                }
                for step in 1..4 {
                    let (x, labels) = data.shard(step, 16, rank, 2);
                    optim.train_step(&mut net, &x, &labels).unwrap();
                }
                optim.synchronize(&mut net).unwrap();
                (net.flat_params(), optim.export_optim_state().unwrap())
            })
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn zero_strategies_match_ddp_bitwise_and_shrink_optimizer_state() {
        // In-process acceptance check of the strategy API: Ddp and Zero2
        // must be bit-identical on the f32 wire — same per-step
        // losses, same final parameters, same exported optimizer state
        // (which also pins the partition to the checkpoint shard
        // partition) — and under DeAR both keep only the owned shard
        // of the optimizer state resident: the shards partition the model.
        let world = 4;
        let data = BlobDataset::new(6, 3, 0.4, 321);
        for (optim_kind, vectors) in [(OptimKind::Sgd, 1), (OptimKind::adam_default(), 2)] {
            let run = |strategy: ParallelismStrategy| {
                let config = TrainConfig {
                    lr: 0.05,
                    momentum: 0.9,
                    weight_decay: 1e-4,
                    fusion_buffer: Some(512),
                    optim: optim_kind,
                    strategy,
                    ..TrainConfig::default()
                };
                run_training(world, config, |handle| {
                    let rank = handle.rank();
                    let mut net = build_net(7);
                    let mut optim = handle.into_optim(&net);
                    let mut losses = Vec::new();
                    for step in 0..12 {
                        let (x, labels) = data.shard(step, 32, rank, world);
                        losses.push(optim.train_step(&mut net, &x, &labels).unwrap());
                    }
                    optim.synchronize(&mut net).unwrap();
                    (
                        losses,
                        net.flat_params(),
                        optim.optim_state_bytes().unwrap(),
                        optim.export_optim_state().unwrap(),
                        optim.num_groups(),
                    )
                })
            };
            let ddp = run(ParallelismStrategy::Ddp);
            for strategy in [ParallelismStrategy::Ddp, ParallelismStrategy::Zero2] {
                let out = run(strategy);
                let (model, groups) = (out[0].1.len(), out[0].4);
                // A rank owns one chunk of every group: ⌈model/world⌉
                // elements per state vector, plus at most one element of
                // rounding per group.
                let cap = (model.div_ceil(world) + groups) * vectors * 4;
                for rank in 0..world {
                    assert_eq!(
                        ddp[rank].0, out[rank].0,
                        "{strategy:?} losses diverged from DDP ({optim_kind:?})"
                    );
                    assert_eq!(
                        ddp[rank].1, out[rank].1,
                        "{strategy:?} parameters diverged from DDP ({optim_kind:?})"
                    );
                    assert_eq!(
                        ddp[rank].3, out[rank].3,
                        "{strategy:?} exported optimizer state diverged ({optim_kind:?})"
                    );
                    assert!(
                        out[rank].2 <= cap,
                        "{strategy:?} rank {rank}: resident {} bytes, a 1/{world} shard of \
                         {vectors} vector(s) is at most {cap}",
                        out[rank].2
                    );
                }
                let resident: usize = out.iter().map(|r| r.2).sum();
                assert_eq!(
                    resident,
                    vectors * model * 4,
                    "{strategy:?} ({optim_kind:?}): the shards must partition the model"
                );
            }
        }
    }

    #[test]
    fn sgd_without_momentum_keeps_no_optimizer_state() {
        // The resident-bytes query reads 0 under SGD without momentum, in
        // either pipeline and under either strategy, and nothing is
        // exported; with momentum it reads the velocity of the shard each
        // rank owns (DeAR), the shards summing to the model, or of the
        // whole model (WFBP).
        let world = 3;
        let data = BlobDataset::new(6, 3, 0.4, 61);
        let cases = [
            (PipelineMode::Dear, ParallelismStrategy::Ddp),
            (PipelineMode::Dear, ParallelismStrategy::Zero2),
            (PipelineMode::Wfbp, ParallelismStrategy::Ddp),
        ];
        for (mode, strategy) in cases {
            for momentum in [0.0, 0.9] {
                let config = TrainConfig {
                    lr: 0.05,
                    momentum,
                    weight_decay: 1e-4,
                    fusion_buffer: Some(512),
                    mode,
                    strategy,
                    ..TrainConfig::default()
                };
                let out = run_training(world, config, |handle| {
                    let rank = handle.rank();
                    let mut net = build_net(7);
                    let mut optim = handle.into_optim(&net);
                    for step in 0..3 {
                        let (x, labels) = data.shard(step, 30, rank, world);
                        optim.train_step(&mut net, &x, &labels).unwrap();
                    }
                    optim.synchronize(&mut net).unwrap();
                    (
                        optim.optim_state_bytes().unwrap(),
                        optim.export_optim_state().unwrap(),
                        net.param_count() * 4,
                        optim.num_groups(),
                    )
                });
                let case = format!("{mode:?} {strategy:?} momentum {momentum}");
                let (model, groups) = (out[0].2, out[0].3);
                let resident: usize = out.iter().map(|r| r.0).sum();
                if momentum == 0.0 {
                    for (bytes, state, ..) in &out {
                        assert_eq!(*bytes, 0, "{case}: resident optimizer bytes");
                        assert!(state.velocity.is_empty(), "{case}: a velocity was exported");
                        assert!(state.second_moment.is_empty(), "{case}");
                    }
                } else if mode == PipelineMode::Wfbp {
                    assert!(out.iter().all(|r| r.0 == model), "{case}: a model per rank");
                } else {
                    let cap = (model / 4).div_ceil(world) * 4 + groups * 4;
                    assert!(out.iter().all(|r| 0 < r.0 && r.0 <= cap), "{case}: a shard");
                    assert_eq!(resident, model, "{case}: the shards partition the model");
                }
            }
        }
    }

    #[test]
    fn a_velocity_survives_sgd_without_momentum_and_seeds_a_later_momentum() {
        // An imported velocity is kept through steps without momentum,
        // untouched and exported unchanged, and the parameters move as if
        // there were none. A later switch to momentum starts from it —
        // from zeros, it would be `v = g`, the stateless step.
        const K: u64 = 3;
        let world = 2;
        let data = BlobDataset::new(6, 3, 0.4, 63);
        let config = TrainConfig {
            lr: 0.05,
            weight_decay: 1e-4,
            fusion_buffer: Some(512),
            ..TrainConfig::default()
        };
        // `import`: seed a velocity before step 0; `switch`: train step K
        // with momentum.
        let run = |import: bool, switch: bool| {
            run_training(world, config.clone(), |handle| {
                let rank = handle.rank();
                let mut net = build_net(9);
                let mut optim = handle.into_optim(&net);
                let n = net.param_count();
                let imported = OptimState {
                    velocity: (0..n).map(|i| (i as f32 * 0.37).sin()).collect(),
                    second_moment: Vec::new(),
                    adam_step: 0,
                };
                if import {
                    optim.import_optim_state(imported.clone()).unwrap();
                }
                for step in 0..K {
                    let (x, labels) = data.shard(step, 16, rank, world);
                    optim.train_step(&mut net, &x, &labels).unwrap();
                }
                optim.synchronize(&mut net).unwrap();
                let kept = optim.export_optim_state().unwrap();
                if switch {
                    optim.set_hyper(config.lr, 0.9, config.weight_decay);
                }
                let (x, labels) = data.shard(K, 16, rank, world);
                optim.train_step(&mut net, &x, &labels).unwrap();
                optim.synchronize(&mut net).unwrap();
                let after = optim.export_optim_state().unwrap();
                (imported, kept, net.flat_params(), after)
            })
        };
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let plain = run(false, false);
        let seeded = run(true, false);
        let seeded_then_momentum = run(true, true);
        let momentum_from_zeros = run(false, true);
        for rank in 0..world {
            let (imported, kept, params, after) = &seeded[rank];
            // The owned shard of the imported velocity, unchanged.
            assert!(kept.velocity.iter().any(|&v| v != 0.0), "rank {rank}");
            for (k, (&got, &want)) in kept.velocity.iter().zip(&imported.velocity).enumerate() {
                assert!(
                    got.to_bits() == want.to_bits() || got == 0.0,
                    "rank {rank} element {k}: {got} was imported as {want}"
                );
            }
            assert_eq!(bits(&after.velocity), bits(&kept.velocity), "rank {rank}");
            assert_eq!(
                bits(params),
                bits(&plain[rank].2),
                "rank {rank}: parameters"
            );
            // Momentum from the kept velocity moves differently ...
            let (_, _, params, after) = &seeded_then_momentum[rank];
            assert_ne!(bits(params), bits(&plain[rank].2), "rank {rank}");
            assert_ne!(bits(&after.velocity), bits(&kept.velocity), "rank {rank}");
            // ... and from zeros it is the stateless step, `v = g`.
            let (_, kept, params, after) = &momentum_from_zeros[rank];
            assert!(kept.velocity.is_empty(), "rank {rank}");
            assert_eq!(bits(params), bits(&plain[rank].2), "rank {rank}: v = g");
            assert_eq!(after.velocity.len(), params.len(), "rank {rank}");
        }
    }

    #[test]
    fn zero_shard_partition_equals_checkpoint_shard_partition() {
        // The exported (checkpoint) optimizer state is nonzero only inside
        // this rank's owned global runs — per group, the ring's owned chunk
        // cut by each item and mapped through its global offset — and the
        // runs are disjoint across ranks and cover the whole model.
        use dear_collectives::{chunk_range, ring_owned_chunk};
        let world = 3;
        let data = BlobDataset::new(6, 3, 0.4, 55);
        let config = TrainConfig {
            momentum: 0.9,
            fusion_buffer: Some(256),
            ..TrainConfig::default()
        };
        let states = run_training(world, config, |handle| {
            let rank = handle.rank();
            let mut net = build_net(7);
            let mut optim = handle.into_optim(&net);
            for step in 0..3 {
                let (x, labels) = data.shard(step, 30, rank, world);
                let _ = optim.train_step(&mut net, &x, &labels);
            }
            optim.synchronize(&mut net).unwrap();
            optim.export_optim_state().unwrap()
        });
        let layout = GroupLayout::from_buffer(&build_net(7), Some(256));
        assert!(layout.num_groups() > 1, "the model spans several groups");
        let total = layout.total_elements();
        let mut owner = vec![None; total];
        for (rank, state) in states.iter().enumerate() {
            for g in 0..layout.num_groups() {
                let owned = chunk_range(
                    layout.group_elements(g),
                    world,
                    ring_owned_chunk(rank, world),
                );
                for &i in layout.items_of_group(g) {
                    let item = layout.item(i);
                    let lo = owned.start.max(item.offset_in_group);
                    let hi = owned.end.min(item.offset_in_group + item.len);
                    let global = item.global_offset + (lo - item.offset_in_group);
                    let run = global..global + hi.saturating_sub(lo);
                    for (slot, k) in owner[run.clone()].iter_mut().zip(run) {
                        assert_eq!(*slot, None, "element {k} owned by two ranks");
                        *slot = Some(rank);
                    }
                }
            }
            // Momentum after 3 steps is nonzero somewhere in the shard.
            assert!(
                state.velocity.iter().any(|&v| v != 0.0),
                "rank {rank}: exported shard is all zeros"
            );
        }
        assert!(
            owner.iter().all(Option::is_some),
            "partition does not cover the model"
        );
        for (rank, state) in states.iter().enumerate() {
            for (k, &v) in state.velocity.iter().enumerate() {
                assert!(
                    v == 0.0 || owner[k] == Some(rank),
                    "rank {rank}: checkpoint shard leaks outside the ZeRO partition at {k}"
                );
            }
        }
    }

    #[test]
    fn the_optimizer_state_exchange_format_is_pinned() {
        // The full-length, global-offset-keyed `OptimState` is what
        // checkpoints store and what a rebalance re-partitions, whatever
        // layout the engine keeps the state in. Hash every rank's
        // export of a world-3, fusion-256 run: a change to the exchange
        // format — or to the arithmetic behind it — breaks the pin.
        use crate::checkpoint::fnv1a64;
        let world = 3;
        let data = BlobDataset::new(6, 3, 0.4, 57);
        let cases = [
            (OptimKind::Sgd, PipelineMode::Dear, ParallelismStrategy::Ddp),
            (
                OptimKind::Sgd,
                PipelineMode::Dear,
                ParallelismStrategy::Zero2,
            ),
            (OptimKind::Sgd, PipelineMode::Wfbp, ParallelismStrategy::Ddp),
            (
                OptimKind::adam_default(),
                PipelineMode::Dear,
                ParallelismStrategy::Ddp,
            ),
            (
                OptimKind::adam_default(),
                PipelineMode::Dear,
                ParallelismStrategy::Zero2,
            ),
            (
                OptimKind::adam_default(),
                PipelineMode::Wfbp,
                ParallelismStrategy::Ddp,
            ),
        ];
        let mut got = Vec::new();
        for (optim, mode, strategy) in cases {
            let config = TrainConfig {
                lr: 0.01,
                momentum: 0.9,
                weight_decay: 1e-4,
                fusion_buffer: Some(256),
                optim,
                mode,
                strategy,
                ..TrainConfig::default()
            };
            let states = run_training(world, config, |handle| {
                let rank = handle.rank();
                let mut net = build_net(7);
                let mut optim = handle.into_optim(&net);
                for step in 0..3 {
                    let (x, labels) = data.shard(step, 30, rank, world);
                    optim.train_step(&mut net, &x, &labels).unwrap();
                }
                optim.synchronize(&mut net).unwrap();
                optim.export_optim_state().unwrap()
            });
            got.push(fnv1a64(states.iter().flat_map(|s| {
                let moments = s.velocity.iter().chain(&s.second_moment);
                moments
                    .flat_map(|x| x.to_bits().to_le_bytes())
                    .chain(s.adam_step.to_le_bytes())
                    .collect::<Vec<u8>>()
            })));
        }
        let got: Vec<String> = got.iter().map(|h| format!("{h:016x}")).collect();
        // `Ddp` and `Zero2` differ only in what the stash keeps resident,
        // so their exports agree.
        assert_eq!(
            got,
            [
                "0a2eae2b51ac8e00",
                "0a2eae2b51ac8e00",
                "ec875208184d6ca0",
                "f9089e8abb443f39",
                "f9089e8abb443f39",
                "b89ac27b0d8c7b59",
            ]
        );
    }

    #[test]
    fn in_place_resize_recovers_training_under_zero2() {
        // The elastic recovery loop under `--strategy zero2`: kill a rank,
        // resize in place, roll back to the boundary snapshot, rebalance
        // the (dense-sharded) optimizer state under the new world, and keep
        // training — survivors stay bitwise-identical throughout.
        let data = BlobDataset::new(6, 3, 0.4, 78);
        let config = TrainConfig {
            lr: 0.05,
            momentum: 0.9,
            fusion_buffer: Some(512),
            strategy: ParallelismStrategy::Zero2,
            ..TrainConfig::default()
        };
        let worker = |handle: WorkerHandle| {
            let rank = handle.rank();
            let mut net = build_net(5);
            let mut optim = handle.into_optim(&net);
            for step in 0..6 {
                let (x, labels) = data.shard(step, 32, rank, 4);
                let _ = optim.train_step(&mut net, &x, &labels);
            }
            optim.synchronize(&mut net).unwrap();
            let snap_params = net.flat_params();
            let snap_optim = optim.export_optim_state().unwrap();
            optim.barrier().unwrap();
            if rank == 2 {
                return None;
            }
            let mut probe = 6u64;
            loop {
                let (x, labels) = data.shard(probe, 32, rank, 4);
                match optim.train_step(&mut net, &x, &labels) {
                    Ok(_) => probe += 1,
                    Err(_) => break,
                }
            }
            let change = optim
                .resize_world(Some(vec![0, 1, 3]))
                .expect("in-place resize failed");
            assert_eq!(change.new_world, 3);
            let resume = optim.agree_min_step(6).expect("step agreement failed");
            net.set_flat_params(&snap_params);
            optim.import_optim_state(snap_optim).unwrap();
            optim
                .rebalance_optim_state()
                .expect("shard rebalance failed");
            // The dense shard now reflects a 3-way partition.
            let bytes = optim.optim_state_bytes().unwrap();
            let total_bytes = net.flat_params().len() * std::mem::size_of::<f32>();
            assert!(
                (bytes as f64) * 3.0 <= (total_bytes as f64) * 1.25,
                "post-resize shard not ~1/3 of the model: {bytes} of {total_bytes}"
            );
            let (rank, world) = (change.new_rank, change.new_world);
            for step in resume..resume + 6 {
                let (x, labels) = data.shard(step, 30, rank, world);
                let _ = optim.train_step(&mut net, &x, &labels);
            }
            optim.synchronize(&mut net).unwrap();
            Some(net.flat_params())
        };
        let out = run_with_recv_deadline(4, &config, worker);
        let survivors: Vec<_> = out.into_iter().flatten().collect();
        assert_eq!(survivors.len(), 3);
        for p in &survivors[1..] {
            assert_eq!(&survivors[0], p, "survivors diverged under Zero2 resize");
        }
    }

    #[test]
    fn rebucketing_mid_training_preserves_correctness() {
        let data = BlobDataset::new(6, 3, 0.4, 99);
        let config = TrainConfig {
            lr: 0.05,
            momentum: 0.9,
            fusion_buffer: Some(256),
            ..TrainConfig::default()
        };
        let params = run_training(3, config.clone(), |handle| {
            let rank = handle.rank();
            let mut net = build_net(7);
            let mut optim = handle.into_optim(&net);
            for step in 0..10 {
                let (x, labels) = data.shard(step, 30, rank, 3);
                let _ = optim.train_step(&mut net, &x, &labels);
            }
            // Re-bucket (as DeAR-BO does), agree via broadcast, continue.
            optim.synchronize(&mut net).unwrap();
            let new_buffer = optim.broadcast_value(0, 2048.0).unwrap() as u64;
            optim.set_fusion_buffer(&net, Some(new_buffer));
            for step in 10..20 {
                let (x, labels) = data.shard(step, 30, rank, 3);
                let _ = optim.train_step(&mut net, &x, &labels);
            }
            optim.synchronize(&mut net).unwrap();
            net.flat_params()
        });
        for p in &params[1..] {
            assert_eq!(&params[0], p, "ranks diverged after re-bucketing");
        }
        // Matches the single-GPU reference (momentum state survived).
        let mut reference = build_net(7);
        let _ = train_single_reference(&mut reference, &config, (0..20).map(|s| data.batch(s, 30)));
        let diff = max_rel_diff(&params[0], &reference.flat_params());
        assert!(diff < 5e-3, "max relative diff {diff}");
    }
}
