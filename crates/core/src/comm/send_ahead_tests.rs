//! Cross-group send-ahead (DESIGN.md §4.18) against the schedule it
//! replaced: one group at a time through the one-call `ring_*_on_wire`
//! collectives, kept here as the reference. The tests play the training thread.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crossbeam_channel::unbounded;
use dear_collectives::{
    ring_all_gather_on_wire, ring_reduce_scatter_on_wire, DType, LocalEndpoint, LocalFabric,
    Message,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::tests::net_of;
use super::*;
use crate::PipelineMode;

/// What one message looks like on the link: element count and the first
/// eight payload bytes.
type Frame = (usize, [u8; 8]);

/// `log[to]`: the frames one endpoint sent to `to`, in order.
type SendLog = Vec<Vec<Frame>>;

/// Records every send per destination, and fails one chosen receive.
struct Probe {
    inner: LocalEndpoint,
    sent: Arc<Mutex<SendLog>>,
    recvs: AtomicUsize,
    /// Index (over this endpoint's receives) of the receive to fail.
    fail_recv: Option<usize>,
}

impl Probe {
    fn new(inner: LocalEndpoint, fail_recv: Option<usize>) -> (Probe, Arc<Mutex<SendLog>>) {
        let sent = Arc::new(Mutex::new(vec![Vec::new(); inner.world_size()]));
        let probe = Probe {
            inner,
            sent: Arc::clone(&sent),
            recvs: AtomicUsize::new(0),
            fail_recv,
        };
        (probe, sent)
    }
}

impl Transport for Probe {
    fn rank(&self) -> usize {
        self.inner.rank()
    }
    fn world_size(&self) -> usize {
        self.inner.world_size()
    }
    fn send(&self, to: usize, msg: Message) -> Result<(), CollectiveError> {
        let mut head = [0u8; 8];
        let bytes = msg.payload().bytes();
        let n = bytes.len().min(8);
        head[..n].copy_from_slice(&bytes[..n]);
        self.sent.lock().unwrap()[to].push((msg.len(), head));
        self.inner.send(to, msg)
    }
    fn recv(&self, from: usize) -> Result<Message, CollectiveError> {
        if Some(self.recvs.fetch_add(1, Ordering::SeqCst)) == self.fail_recv {
            return Err(CollectiveError::Disconnected { peer: from });
        }
        self.inner.recv(from)
    }
    fn set_recv_timeout(&self, timeout: Option<Duration>) -> bool {
        self.inner.set_recv_timeout(timeout)
    }
    fn take_buffer(&self, capacity_bytes: usize) -> Vec<u8> {
        self.inner.take_buffer(capacity_bytes)
    }
    fn recycle_buffer(&self, buf: Vec<u8>) {
        self.inner.recycle_buffer(buf);
    }
    fn reconfigure(&mut self, survivors: Option<&[usize]>) -> Result<WorldChange, CollectiveError> {
        self.inner.reconfigure(survivors)
    }
}

/// The schedule send-ahead replaced: every ring job runs start to end
/// through the monolithic calls before the next one is looked at — and
/// OP1 the way it ran before the update was fused into the receive: the
/// reduce-scatter leaves the owned chunk reduced, ZeRO-2 compacts it, and
/// a second pass updates it. Serves the first job's layout, then the ring
/// jobs, the flush and optimizer-state exports only.
pub(super) fn run_one_at_a_time<T: Transport>(
    transport: T,
    hyper: HyperParams,
    strategy: ParallelismStrategy,
    mode: PipelineMode,
    _trace_scope: &str,
    jobs: &Receiver<CommJob>,
    results: &Sender<CommResult>,
) {
    let Ok(CommJob::Reconfigure { layout }) = jobs.recv() else {
        panic!("the first job installs the layout");
    };
    let wire = layout.wire();
    let (rank, world) = (transport.rank(), transport.world_size());
    let inv_p = 1.0 / world as f32;
    let mut store = OptimStore::new(&layout, rank, world, mode);
    let mut adam_step = 0;
    let mut stash: Vec<(usize, StashEntry)> = Vec::new();
    let update = |store: &mut OptimStore, group, params: &mut [f32], gbuf: &[f32], gshift, step| {
        let (owned, velocity, second_moment) = store.group_state(group, &hyper);
        update_owned_shard(
            &mut params[owned.clone()],
            &gbuf[owned.start - gshift..owned.end - gshift],
            velocity,
            second_moment,
            &hyper,
            inv_p,
            step,
        );
    };
    while let Ok(job) = jobs.recv() {
        match (job, mode) {
            (
                CommJob::Reduce {
                    group,
                    mut grads,
                    mut params,
                },
                PipelineMode::Dear,
            ) => {
                if stash.is_empty() {
                    adam_step += 1;
                }
                let owned =
                    ring_reduce_scatter_on_wire(&transport, &mut grads, ReduceOp::Sum, wire)
                        .unwrap();
                let (gbuf, gshift) = if strategy.shards_grad_stash() {
                    (compact_owned_shard(grads, &owned), owned.start)
                } else {
                    (grads, 0)
                };
                update(&mut store, group, &mut params, &gbuf, gshift, adam_step);
                let entry = if strategy.shards_grad_stash() {
                    let mut chunk = gbuf;
                    chunk.copy_from_slice(&params[owned.clone()]);
                    StashEntry::Shard {
                        owned,
                        chunk,
                        elements: layout.group_elements(group),
                    }
                } else {
                    StashEntry::Full {
                        params,
                        grads: gbuf,
                    }
                };
                stash.push((group, entry));
            }
            (
                CommJob::Reduce {
                    group,
                    mut grads,
                    params,
                },
                PipelineMode::Wfbp,
            ) => {
                ring_all_reduce_on_wire(&transport, &mut grads, ReduceOp::Sum, wire).unwrap();
                stash.push((group, StashEntry::Full { params, grads }));
            }
            (CommJob::Flush, PipelineMode::Wfbp) => {
                adam_step += 1;
                for (group, entry) in stash.drain(..).rev() {
                    let (mut params, grads) = entry.into_buffers();
                    update(&mut store, group, &mut params, &grads, 0, adam_step);
                    results
                        .send(CommResult::Params {
                            group,
                            params,
                            grads,
                        })
                        .unwrap();
                }
            }
            (CommJob::Flush, PipelineMode::Dear) => {
                for (group, entry) in stash.drain(..).rev() {
                    let (mut params, grads) = entry.into_buffers();
                    let owned_chunk = ring_owned_chunk(rank, world);
                    ring_all_gather_on_wire(&transport, &mut params, owned_chunk, wire).unwrap();
                    results
                        .send(CommResult::Params {
                            group,
                            params,
                            grads,
                        })
                        .unwrap();
                }
            }
            (CommJob::ExportOptimState, _) => {
                let (velocity, second_moment) = store.export(&layout);
                results
                    .send(CommResult::OptimState(OptimState {
                        velocity,
                        second_moment,
                        adam_step,
                    }))
                    .unwrap();
            }
            (other, _) => panic!("the reference serves ring jobs only, got {other:?}"),
        }
    }
}

/// Group sizes that leave chunks ragged, empty (fewer elements than ranks)
/// and unequal between neighbours.
const GROUP_ELEMENTS: [usize; 7] = [37, 2, 64, 1, 129, 16, 5];
const STEPS: u64 = 4;

/// One group per entry of [`GROUP_ELEMENTS`], one tensor each, on `wire`.
fn test_layout(wire: DType) -> GroupLayout {
    GroupLayout::from_buffer_wire(&net_of(&GROUP_ELEMENTS), None, wire)
}

fn test_hyper() -> HyperParams {
    HyperParams {
        lr: 0.05,
        momentum: 0.9,
        weight_decay: 1e-3,
        kind: OptimKind::Sgd,
    }
}

fn values(seed: u64, n: usize) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect()
}

/// This rank's gradients for `group` at `step`.
fn grads_of(rank: usize, step: u64, group: usize) -> Vec<f32> {
    let seed = 0xDEA2 ^ (rank as u64) << 40 ^ step << 20 ^ group as u64;
    values(seed, GROUP_ELEMENTS[group])
}

fn initial_params() -> Vec<Vec<f32>> {
    (0..GROUP_ELEMENTS.len())
        .map(|g| values(0xBA5E + g as u64, GROUP_ELEMENTS[g]))
        .collect()
}

/// What a comm thread is run as: [`run_comm_thread`] or the reference.
type CommFn = fn(
    Probe,
    HyperParams,
    ParallelismStrategy,
    PipelineMode,
    &str,
    &Receiver<CommJob>,
    &Sender<CommResult>,
);

/// How a test world's comm threads are run.
#[derive(Clone, Copy)]
struct Setup {
    comm: CommFn,
    mode: PipelineMode,
    strategy: ParallelismStrategy,
    wire: DType,
}

/// Spawns rank `ep.rank()`'s comm thread over a probe, with the layout job
/// and whatever `queue` posts after it already waiting in its job channel
/// when it starts.
fn spawn_comm<'scope, 'env>(
    s: &'scope std::thread::Scope<'scope, 'env>,
    ep: LocalEndpoint,
    fail_recv: Option<usize>,
    setup: Setup,
    queue: impl FnOnce(&Sender<CommJob>),
) -> (Sender<CommJob>, Receiver<CommResult>, Arc<Mutex<SendLog>>) {
    let (probe, sent) = Probe::new(ep, fail_recv);
    let (job_tx, job_rx) = unbounded();
    let (res_tx, res_rx) = unbounded();
    let layout = test_layout(setup.wire);
    job_tx.send(CommJob::Reconfigure { layout }).unwrap();
    queue(&job_tx);
    s.spawn(move || {
        let scope = crate::trace::unique_scope(probe.rank());
        (setup.comm)(
            probe,
            test_hyper(),
            setup.strategy,
            setup.mode,
            &scope,
            &job_rx,
            &res_tx,
        );
    });
    (job_tx, res_rx, sent)
}

/// One training step's worth of jobs for `rank`, posted in backward order
/// with a seeded random pause before each (`jitter` set), so that how far
/// the comm thread has got when a job arrives differs by rank, step and
/// seed, then the flush. Returns the updated parameters the replies
/// carried, per group.
fn drive_step(
    rank: usize,
    step: u64,
    params: &[Vec<f32>],
    jitter: Option<&mut StdRng>,
    jobs: &Sender<CommJob>,
    results: &Receiver<CommResult>,
) -> Vec<Vec<f32>> {
    let groups = GROUP_ELEMENTS.len();
    let mut jitter = jitter;
    for group in (0..groups).rev() {
        if let Some(rng) = jitter.as_deref_mut() {
            std::thread::sleep(Duration::from_micros(rng.gen_range(0..400)));
        }
        jobs.send(CommJob::Reduce {
            group,
            grads: grads_of(rank, step, group),
            params: params[group].clone(),
        })
        .unwrap();
    }
    jobs.send(CommJob::Flush).unwrap();
    let mut out = vec![Vec::new(); groups];
    for _ in 0..groups {
        match results.recv().unwrap() {
            CommResult::Params { group, params, .. } => out[group] = params,
            other => panic!("unexpected reply {other:?}"),
        }
    }
    out
}

/// Runs the steps `steps` on a `world`-rank fabric set up as `setup`.
/// Returns, per rank, the frames it sent per destination and the final
/// per-group values.
fn run_world(
    world: usize,
    setup: Setup,
    jitter_seed: Option<u64>,
    steps: Range<u64>,
) -> Vec<(SendLog, Vec<Vec<f32>>)> {
    std::thread::scope(|s| {
        let handles: Vec<_> = LocalFabric::create(world)
            .into_iter()
            .map(|ep| {
                let rank = ep.rank();
                let (job_tx, res_rx, sent) = spawn_comm(s, ep, None, setup, |_| ());
                let steps = steps.clone();
                s.spawn(move || {
                    let mut jitter =
                        jitter_seed.map(|seed| StdRng::seed_from_u64(seed ^ (rank as u64) << 32));
                    let mut params = initial_params();
                    for step in steps {
                        params = drive_step(rank, step, &params, jitter.as_mut(), &job_tx, &res_rx);
                    }
                    drop(job_tx);
                    let frames = sent.lock().unwrap().clone();
                    (frames, params)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

fn bits(groups: &[Vec<f32>]) -> Vec<Vec<u32>> {
    groups
        .iter()
        .map(|g| g.iter().map(|x| x.to_bits()).collect())
        .collect()
}

#[test]
fn send_ahead_keeps_every_link_in_sequential_order_and_every_bit() {
    let cases = [
        (PipelineMode::Dear, ParallelismStrategy::Ddp),
        (PipelineMode::Dear, ParallelismStrategy::Zero2),
        (PipelineMode::Wfbp, ParallelismStrategy::Ddp),
    ];
    for world in [2usize, 3, 4] {
        for &(mode, strategy) in &cases {
            for (i, wire) in [DType::F32, DType::Bf16].into_iter().enumerate() {
                let case = format!("world {world} {mode:?} {strategy:?} {wire}");
                let setup = |comm| Setup {
                    comm,
                    mode,
                    strategy,
                    wire,
                };
                let reference = run_world(world, setup(run_one_at_a_time), None, 0..STEPS);
                for seed in 0..2u64 {
                    let seed = seed + 10 * i as u64 + 100 * world as u64;
                    let ahead = run_world(world, setup(run_comm_thread), Some(seed), 0..STEPS);
                    for (rank, (got, want)) in ahead.iter().zip(&reference).enumerate() {
                        for (to, (g, w)) in got.0.iter().zip(&want.0).enumerate() {
                            assert_eq!(g, w, "{case} seed {seed}: link {rank}→{to}");
                        }
                        assert_eq!(
                            bits(&got.1),
                            bits(&want.1),
                            "{case} seed {seed}: rank {rank} values"
                        );
                    }
                }
                for (rank, (_, values)) in reference.iter().enumerate() {
                    assert_eq!(
                        bits(values),
                        bits(&reference[0].1),
                        "{case}: rank {rank} diverged from rank 0"
                    );
                }
            }
        }
    }
}

/// Posts `rank`'s DeAR `Reduce`s of `step` for the groups `which`, in backward
/// order, always from the initial parameters.
fn post_rs(jobs: &Sender<CommJob>, rank: usize, step: u64, which: Range<usize>) {
    let params = initial_params();
    for group in which.rev() {
        jobs.send(CommJob::Reduce {
            group,
            grads: grads_of(rank, step, group),
            params: params[group].clone(),
        })
        .unwrap();
    }
}

#[test]
fn failure_with_ops_in_flight_abandons_the_step_once_and_recovers() {
    let groups = GROUP_ELEMENTS.len();
    // What a healthy world makes of step 1 from a clean optimizer state.
    let setup = |comm| Setup {
        comm,
        mode: PipelineMode::Dear,
        strategy: ParallelismStrategy::Ddp,
        wire: DType::F32,
    };
    let healthy = run_world(2, setup(run_one_at_a_time), None, 1..2);

    std::thread::scope(|s| {
        let mut eps = LocalFabric::create(2);
        let ep1 = eps.pop().unwrap();
        let ep0 = eps.pop().unwrap();
        // Rank 1 only learns of the failure by its peer going quiet.
        ep1.set_recv_timeout(Some(Duration::from_millis(500)));
        // On two ranks an op is one send and one receive, so rank 0's
        // receive 1 is its second op's finish. Most of the step is queued
        // before the thread starts: when that op is the head, the two
        // after it have been begun.
        let (jobs0, results0, sent0) =
            spawn_comm(s, ep0, Some(1), setup(run_comm_thread), |jobs| {
                post_rs(jobs, 0, 0, 2..groups);
            });
        let (jobs1, results1, _) = spawn_comm(s, ep1, None, setup(run_comm_thread), |jobs| {
            post_rs(jobs, 1, 0, 0..groups);
            jobs.send(CommJob::Flush).unwrap();
        });
        match results0.recv().unwrap() {
            CommResult::Error(CollectiveError::Disconnected { peer: 1 }) => {}
            other => panic!("expected the injected failure, got {other:?}"),
        }
        let sent = || sent0.lock().unwrap()[1].len();
        assert_eq!(sent(), 4, "two ops and the two begun ahead of the second");
        // The rest of the abandoned step still arrives; it must neither
        // run nor wedge the thread.
        post_rs(&jobs0, 0, 0, 0..2);
        jobs0.send(CommJob::Flush).unwrap();
        match results1.recv().unwrap() {
            CommResult::Error(CollectiveError::Timeout { peer: 0, .. }) => {}
            other => panic!("expected rank 1 to time out on its quiet peer, got {other:?}"),
        }

        // Recovery: resize (the fabric flushes what the step left on the
        // links), roll the optimizer back, run a healthy step.
        let ends = [(&jobs0, &results0), (&jobs1, &results1)];
        for (jobs, _) in &ends {
            jobs.send(CommJob::ResizeWorld {
                survivors: Some(vec![0, 1]),
            })
            .unwrap();
        }
        for (rank, (_, results)) in ends.iter().enumerate() {
            match results.recv().unwrap() {
                CommResult::Resized(Ok(change)) => assert_eq!(change.new_world, 2),
                other => panic!(
                    "rank {rank}: the abandoned step must leave exactly one reply \
                     — its error — before the resize's, got {other:?}"
                ),
            }
        }
        assert_eq!(sent(), 4, "the abandoned step sent nothing after it failed");
        let total = test_layout(DType::F32).total_elements();
        for (rank, (jobs, _)) in ends.iter().enumerate() {
            jobs.send(CommJob::ImportOptimState(OptimState {
                velocity: vec![0.0; total],
                second_moment: Vec::new(),
                adam_step: 0,
            }))
            .unwrap();
            post_rs(jobs, rank, 1, 0..groups);
            jobs.send(CommJob::Flush).unwrap();
        }
        for (rank, (_, results)) in ends.iter().enumerate() {
            let mut got = vec![Vec::new(); groups];
            for _ in 0..groups {
                match results.recv().unwrap() {
                    CommResult::Params { group, params, .. } => got[group] = params,
                    other => panic!("rank {rank}: unexpected reply {other:?}"),
                }
            }
            assert_eq!(
                bits(&got),
                bits(&healthy[rank].1),
                "rank {rank}: the step after recovery is a clean one"
            );
            assert!(results.try_recv().is_err(), "rank {rank}: a stray reply");
        }
        assert_eq!(sent(), 4 + 2 * groups, "one send per op of the new step");
    });
}
