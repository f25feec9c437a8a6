//! The engine's progress by polling, with cross-group send-ahead
//! (DESIGN.md §4.18), against the schedule it replaced: one group at a time
//! through the one-call `ring_*_on_wire` collectives, kept here as the
//! reference. The tests play the training thread: they post a step's
//! groups with seeded pauses and polls between them.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use dear_collectives::{
    ring_all_gather_on_wire, ring_reduce_scatter_on_wire, DType, LocalEndpoint, LocalFabric,
    Message, Parcel,
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

/// Records every send per destination, and fails one chosen receive —
/// blocking or polled. It forwards `recv_parcel` but not `lend_f32`, so
/// every chunk travels as a copy that the log sees.
pub(super) struct Probe {
    inner: LocalEndpoint,
    sent: Arc<Mutex<SendLog>>,
    recvs: AtomicUsize,
    /// Index (over this endpoint's receives) of the receive to fail.
    fail_recv: Option<usize>,
    /// Set once a receive has waited on the link.
    waited: Arc<AtomicBool>,
}

impl Probe {
    fn new(inner: LocalEndpoint, fail_recv: Option<usize>) -> (Probe, Arc<Mutex<SendLog>>) {
        let sent = Arc::new(Mutex::new(vec![Vec::new(); inner.world_size()]));
        let probe = Probe {
            inner,
            sent: Arc::clone(&sent),
            recvs: AtomicUsize::new(0),
            fail_recv,
            waited: Arc::default(),
        };
        (probe, sent)
    }

    /// Counts one receive; the chosen one fails.
    fn received(&self, from: usize) -> Result<(), CollectiveError> {
        if Some(self.recvs.fetch_add(1, Ordering::SeqCst)) == self.fail_recv {
            return Err(CollectiveError::Disconnected { peer: from });
        }
        Ok(())
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
        self.received(from)?;
        self.inner.recv(from)
    }
    fn recv_parcel(&self, from: usize, wait: bool) -> Result<Option<Parcel>, CollectiveError> {
        if wait {
            self.waited.store(true, Ordering::SeqCst);
        }
        let parcel = self.inner.recv_parcel(from, wait)?;
        if parcel.is_some() {
            self.received(from)?;
        }
        Ok(parcel)
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

/// Where the tests keep a rank's groups: `params[group]`.
impl Home for Vec<Vec<f32>> {
    fn put(&mut self, group: usize, params: Vec<f32>, _grads: Vec<f32>) {
        self[group] = params;
    }
}

/// What the tests drive a rank as: the engine, or the reference.
pub(super) trait Rank {
    /// `group`'s gradients are ready.
    fn reduce(&mut self, group: usize, grads: Vec<f32>, params: Vec<f32>, home: &mut Vec<Vec<f32>>);
    /// Makes progress, as at a layer hook.
    fn progress(&mut self, home: &mut Vec<Vec<f32>>);
    /// Ends the step; every group is home on return.
    fn end_step(&mut self, home: &mut Vec<Vec<f32>>);
    /// The optimizer state, at a step boundary.
    fn export(&mut self) -> OptimState;
}

impl<T: Transport> Rank for CommEngine<T> {
    fn reduce(
        &mut self,
        group: usize,
        grads: Vec<f32>,
        params: Vec<f32>,
        home: &mut Vec<Vec<f32>>,
    ) {
        self.post(group, grads, params, home).unwrap();
    }
    fn progress(&mut self, home: &mut Vec<Vec<f32>>) {
        CommEngine::progress(self, home).unwrap();
    }
    fn end_step(&mut self, home: &mut Vec<Vec<f32>>) {
        self.flush(home).unwrap();
        self.drain(home).unwrap();
    }
    fn export(&mut self) -> OptimState {
        CommEngine::export(self).unwrap()
    }
}

/// The schedule send-ahead replaced: every ring job runs start to end
/// through the monolithic calls before the next one is looked at — and
/// OP1 the way it ran before the update was fused into the receive: the
/// reduce-scatter leaves the owned chunk reduced, ZeRO-2 compacts it, and
/// a second pass updates it.
pub(super) struct OneAtATime<T> {
    transport: T,
    hyper: HyperParams,
    strategy: ParallelismStrategy,
    mode: PipelineMode,
    layout: GroupLayout,
    store: OptimStore,
    adam_step: u64,
    stash: Vec<(usize, StashEntry)>,
}

impl<T: Transport> OneAtATime<T> {
    pub(super) fn new(
        transport: T,
        hyper: HyperParams,
        strategy: ParallelismStrategy,
        mode: PipelineMode,
        layout: GroupLayout,
    ) -> Self {
        let (rank, world) = (transport.rank(), transport.world_size());
        OneAtATime {
            store: OptimStore::new(&layout, rank, world, mode),
            transport,
            hyper,
            strategy,
            mode,
            layout,
            adam_step: 0,
            stash: Vec::new(),
        }
    }

    fn update(&mut self, group: usize, params: &mut [f32], gbuf: &[f32], gshift: usize) {
        let inv_p = 1.0 / self.transport.world_size() as f32;
        let (owned, velocity, second_moment) = self.store.group_state(group, &self.hyper);
        update_owned_shard(
            &mut params[owned.clone()],
            &gbuf[owned.start - gshift..owned.end - gshift],
            velocity,
            second_moment,
            &self.hyper,
            inv_p,
            self.adam_step,
        );
    }
}

impl<T: Transport> Rank for OneAtATime<T> {
    fn reduce(
        &mut self,
        group: usize,
        mut grads: Vec<f32>,
        mut params: Vec<f32>,
        _: &mut Vec<Vec<f32>>,
    ) {
        let wire = self.layout.wire();
        if self.mode == PipelineMode::Wfbp {
            ring_all_reduce_on_wire(&self.transport, &mut grads, ReduceOp::Sum, wire).unwrap();
            self.stash.push((group, StashEntry::Full { params, grads }));
            return;
        }
        if self.stash.is_empty() {
            self.adam_step += 1;
        }
        let owned =
            ring_reduce_scatter_on_wire(&self.transport, &mut grads, ReduceOp::Sum, wire).unwrap();
        let (gbuf, gshift) = if self.strategy.shards_grad_stash() {
            (compact_owned_shard(grads, &owned), owned.start)
        } else {
            (grads, 0)
        };
        self.update(group, &mut params, &gbuf, gshift);
        let entry = if self.strategy.shards_grad_stash() {
            let mut chunk = gbuf;
            chunk.copy_from_slice(&params[owned.clone()]);
            StashEntry::Shard {
                owned,
                chunk,
                elements: self.layout.group_elements(group),
            }
        } else {
            StashEntry::Full {
                params,
                grads: gbuf,
            }
        };
        self.stash.push((group, entry));
    }

    fn progress(&mut self, _: &mut Vec<Vec<f32>>) {}

    fn end_step(&mut self, home: &mut Vec<Vec<f32>>) {
        let (rank, world) = (self.transport.rank(), self.transport.world_size());
        if self.mode == PipelineMode::Wfbp {
            self.adam_step += 1;
        }
        while let Some((group, entry)) = self.stash.pop() {
            let (mut params, grads) = entry.into_buffers();
            match self.mode {
                PipelineMode::Wfbp => self.update(group, &mut params, &grads, 0),
                PipelineMode::Dear => {
                    let owned_chunk = ring_owned_chunk(rank, world);
                    ring_all_gather_on_wire(
                        &self.transport,
                        &mut params,
                        owned_chunk,
                        self.layout.wire(),
                    )
                    .unwrap();
                }
            }
            home.put(group, params, grads);
        }
    }

    fn export(&mut self) -> OptimState {
        let (velocity, second_moment) = self.store.export(&self.layout);
        OptimState {
            velocity,
            second_moment,
            adam_step: self.adam_step,
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

/// How a test world's ranks run.
#[derive(Clone, Copy)]
struct Setup {
    /// Whether they run as the engine (else as the reference).
    engine: bool,
    mode: PipelineMode,
    strategy: ParallelismStrategy,
    wire: DType,
}

impl Setup {
    /// Rank `probe.rank()` of this setup, its layout installed.
    fn rank(self, probe: Probe) -> Box<dyn Rank> {
        let layout = test_layout(self.wire);
        if !self.engine {
            return Box::new(OneAtATime::new(
                probe,
                test_hyper(),
                self.strategy,
                self.mode,
                layout,
            ));
        }
        let scope = crate::trace::unique_scope(probe.rank());
        let mut engine = CommEngine::new(probe, test_hyper(), self.strategy, self.mode, &scope);
        engine.reconfigure(layout).unwrap();
        Box::new(engine)
    }
}

/// One training step for `rank`, posted in backward order with a seeded
/// random pause before each (`jitter` set), so that how far the engine
/// has got when a job is posted differs by rank, step and seed, then the
/// end of the step. Returns the updated parameters, per group.
fn drive_step(
    rank: usize,
    step: u64,
    params: Vec<Vec<f32>>,
    jitter: Option<&mut StdRng>,
    rank_under_test: &mut dyn Rank,
) -> Vec<Vec<f32>> {
    let mut home = vec![Vec::new(); GROUP_ELEMENTS.len()];
    let mut jitter = jitter;
    for (group, params) in params.into_iter().enumerate().rev() {
        if let Some(rng) = jitter.as_deref_mut() {
            std::thread::sleep(Duration::from_micros(rng.gen_range(0..400)));
        }
        rank_under_test.reduce(group, grads_of(rank, step, group), params, &mut home);
    }
    rank_under_test.end_step(&mut home);
    home
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
                let steps = steps.clone();
                s.spawn(move || {
                    let (probe, sent) = Probe::new(ep, None);
                    let mut under_test = setup.rank(probe);
                    let mut jitter =
                        jitter_seed.map(|seed| StdRng::seed_from_u64(seed ^ (rank as u64) << 32));
                    let mut params = initial_params();
                    for step in steps {
                        params = drive_step(rank, step, params, jitter.as_mut(), &mut *under_test);
                    }
                    drop(under_test);
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
                let setup = |engine| Setup {
                    engine,
                    mode,
                    strategy,
                    wire,
                };
                let reference = run_world(world, setup(false), None, 0..STEPS);
                for seed in 0..2u64 {
                    let seed = seed + 10 * i as u64 + 100 * world as u64;
                    let ahead = run_world(world, setup(true), Some(seed), 0..STEPS);
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

/// Posts `rank`'s DeAR reduce-scatters of `step` for the groups `which`,
/// in backward order, always from the initial parameters; returns the
/// errors the posts returned.
fn post_rs(
    engine: &mut CommEngine<Probe>,
    home: &mut Vec<Vec<f32>>,
    rank: usize,
    step: u64,
    which: Range<usize>,
) -> Vec<CollectiveError> {
    let params = initial_params();
    which
        .rev()
        .filter_map(|group| {
            let grads = grads_of(rank, step, group);
            engine.post(group, grads, params[group].clone(), home).err()
        })
        .collect()
}

/// A DeAR engine over `probe`, installed with the test layout.
fn engine(probe: Probe) -> CommEngine<Probe> {
    let scope = crate::trace::unique_scope(probe.rank());
    let mode = PipelineMode::Dear;
    let mut engine = CommEngine::new(probe, test_hyper(), ParallelismStrategy::Ddp, mode, &scope);
    engine.reconfigure(test_layout(DType::F32)).unwrap();
    engine
}

#[test]
fn a_landing_in_a_waiting_receive_begins_the_next_send_before_the_next_receive() {
    // Rank 0 begins three reduce-scatters (the window is full) and waits on
    // the link before rank 1 sends a thing. When the first op lands in that
    // waiting receive, the send it lets in goes out before the second op
    // receives — which fails here, so the log shows the order.
    let groups = GROUP_ELEMENTS.len();
    let mut eps = LocalFabric::create(2);
    let ep1 = eps.pop().unwrap();
    // Rank 1's engine drains on drop; rank 0 sends it nothing more.
    ep1.set_recv_timeout(Some(Duration::from_millis(100)));
    let (probe0, sent0) = Probe::new(eps.pop().unwrap(), Some(1));
    let waited = Arc::clone(&probe0.waited);
    let mut engine0 = engine(probe0);
    let mut engine1 = engine(Probe::new(ep1, None).0);
    let mut home = initial_params();
    assert!(post_rs(&mut engine0, &mut home, 0, 0, 2..groups).is_empty());
    assert_eq!(sent0.lock().unwrap()[1].len(), 3, "the window is full");
    let failed = std::thread::scope(|s| {
        let rank0 = s.spawn(|| engine0.drain(&mut home));
        while !waited.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(post_rs(&mut engine1, &mut initial_params(), 1, 0, 0..groups).is_empty());
        rank0.join().unwrap()
    });
    assert_eq!(failed, Err(CollectiveError::Disconnected { peer: 1 }));
    assert_eq!(
        sent0.lock().unwrap()[1].len(),
        4,
        "the first op's landing begins the fourth op's send before the second op receives"
    );
}

#[test]
fn failure_with_ops_in_flight_abandons_the_step_once_and_recovers() {
    let groups = GROUP_ELEMENTS.len();
    // What a healthy world makes of step 1 from a clean optimizer state.
    let setup = Setup {
        engine: false,
        mode: PipelineMode::Dear,
        strategy: ParallelismStrategy::Ddp,
        wire: DType::F32,
    };
    let healthy = run_world(2, setup, None, 1..2);

    let mut eps = LocalFabric::create(2);
    let ep1 = eps.pop().unwrap();
    let ep0 = eps.pop().unwrap();
    // Rank 1 only learns of the failure by its peer going quiet.
    ep1.set_recv_timeout(Some(Duration::from_millis(500)));
    // On two ranks an op is one send and one receive, so rank 0's receive
    // 1 is its second op's: by then the first has finished and the window
    // has let the op behind the second's two successors begin.
    let (probe0, sent0) = Probe::new(ep0, Some(1));
    let (probe1, _) = Probe::new(ep1, None);
    // Rank 0 posts its part of the step before rank 1 sends a thing, so
    // it receives nothing until the window is full.
    let posted = std::sync::Barrier::new(2);
    let mut engines = std::thread::scope(|s| {
        let rank1 = s.spawn(|| {
            let mut engine = engine(probe1);
            posted.wait();
            let mut home = initial_params();
            let mut errors = post_rs(&mut engine, &mut home, 1, 0, 0..groups);
            errors.extend(engine.flush(&mut home).err());
            errors.extend(engine.drain(&mut home).err());
            match &errors[..] {
                [CollectiveError::Timeout { peer: 0, .. }] => {}
                other => {
                    panic!("expected rank 1 to time out on its quiet peer once, got {other:?}")
                }
            }
            engine
        });
        let mut engine0 = engine(probe0);
        let mut home = initial_params();
        let mut errors = post_rs(&mut engine0, &mut home, 0, 0, 2..groups);
        posted.wait();
        errors.extend(engine0.drain(&mut home).err());
        let sent = sent0.lock().unwrap()[1].len();
        assert_eq!(sent, 4, "two ops and the two begun ahead of the second");
        // The rest of the abandoned step is dropped unrun.
        errors.extend(post_rs(&mut engine0, &mut home, 0, 0, 0..2));
        errors.extend(engine0.flush(&mut home).err());
        errors.extend(engine0.drain(&mut home).err());
        assert_eq!(
            errors,
            [CollectiveError::Disconnected { peer: 1 }],
            "the abandoned step reports its failure exactly once"
        );
        [engine0, rank1.join().unwrap()]
    });
    let sent = || sent0.lock().unwrap()[1].len();
    assert_eq!(sent(), 4, "the abandoned step sent nothing after it failed");

    // Recovery: resize (the fabric flushes what the step left on the
    // links), roll the optimizer back, run a healthy step.
    std::thread::scope(|s| {
        let total = test_layout(DType::F32).total_elements();
        let handles: Vec<_> = engines
            .iter_mut()
            .enumerate()
            .map(|(rank, engine)| {
                s.spawn(move || {
                    let change = engine.resize(Some(&[0, 1])).unwrap();
                    assert_eq!(change.new_world, 2);
                    engine
                        .import(&OptimState {
                            velocity: vec![0.0; total],
                            second_moment: Vec::new(),
                            adam_step: 0,
                        })
                        .unwrap();
                    let mut home = vec![Vec::new(); groups];
                    assert!(post_rs(engine, &mut home, rank, 1, 0..groups).is_empty());
                    engine.flush(&mut home).unwrap();
                    engine.drain(&mut home).unwrap();
                    home
                })
            })
            .collect();
        for (rank, h) in handles.into_iter().enumerate() {
            assert_eq!(
                bits(&h.join().unwrap()),
                bits(&healthy[rank].1),
                "rank {rank}: the step after recovery is a clean one"
            );
        }
    });
    assert_eq!(sent(), 4 + 2 * groups, "one send per op of the new step");
}
