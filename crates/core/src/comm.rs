//! The per-worker communication thread — the "communication package" box
//! of the paper's Fig. 4.
//!
//! Each worker (rank) owns one companion thread holding that rank's fabric
//! endpoint. The training thread posts jobs; the comm thread executes the
//! collectives asynchronously, which is what lets reduce-scatters overlap
//! backprop (BackPipe) and all-gathers overlap the next feed-forward
//! (FeedPipe) in *real wall-clock time*.
//!
//! The comm thread is also the only optimizer: in DeAR mode it updates the
//! parameter shard this rank owns after the reduce-scatter (the paper's
//! implementation updates sharded parameters and all-gathers the *updated
//! parameters*, the design §VII-B relates to ZeRO/FSDP), in WFBP mode every
//! group, whole, after the step's last all-reduce.

use crossbeam_channel::{Receiver, Sender};

use std::collections::VecDeque;
use std::ops::Range;

use dear_collectives::{
    chunk_range, compact_owned_shard, naive_all_reduce, ring_advance, ring_all_reduce_on_wire,
    ring_begin, ring_finish, ring_finish_with, ring_owned_chunk, tree_broadcast, CollectiveError,
    DType, Epilogue, ReduceOp, RingKind, RingOp, Transport, WorldChange, MIN_LINK_FRAMES,
};

use crate::dist_optim::PipelineMode;
use crate::layout::GroupLayout;
use crate::strategy::ParallelismStrategy;
use crate::trace::{self, TaskKind};

/// The comm thread's resident optimizer storage, in group coordinates:
/// per group, the range this rank updates — DeAR's owned ring chunk,
/// WFBP's whole group — with the state vectors holding those ranges back
/// to back, group after group. `OP1.UPD` never touches an element outside
/// them, so every strategy keeps the same layout. Items (global offsets)
/// are read only at the exchange boundary: export and import speak the
/// full-length format checkpoints and re-partitioning use.
///
/// A state vector exists once an update rule that reads it has run, or
/// once one was imported; SGD without momentum reads none. Whether it
/// exists is the same on every rank — they share the rule's history and
/// their checkpoints — even where a rank's own part of it is empty.
struct OptimStore {
    /// Per group: the range this rank updates, and where it starts in the
    /// state vectors.
    groups: Vec<(Range<usize>, usize)>,
    dense_len: usize,
    /// SGD velocity / Adam first moment.
    velocity: Option<Vec<f32>>,
    /// Adam second moment.
    second_moment: Option<Vec<f32>>,
}

impl OptimStore {
    fn new(layout: &GroupLayout, rank: usize, world: usize, mode: PipelineMode) -> OptimStore {
        let mut dense_len = 0;
        let groups = (0..layout.num_groups())
            .map(|g| {
                let elements = layout.group_elements(g);
                let owned = match mode {
                    PipelineMode::Dear => {
                        chunk_range(elements, world, ring_owned_chunk(rank, world))
                    }
                    PipelineMode::Wfbp => 0..elements,
                };
                let at = dense_len;
                dense_len += owned.len();
                (owned, at)
            })
            .collect();
        OptimStore {
            groups,
            dense_len,
            velocity: None,
            second_moment: None,
        }
    }

    /// Resident optimizer-state bytes on this rank right now.
    fn resident_bytes(&self) -> usize {
        [&self.velocity, &self.second_moment]
            .into_iter()
            .flatten()
            .map(|v| v.len() * std::mem::size_of::<f32>())
            .sum()
    }

    /// The range of `group` this rank updates, and the group's slices of
    /// the state vectors `hyper`'s rule reads — velocity, then second
    /// moment; empty for a vector it does not read. Allocates a vector the
    /// rule reads on first use, zeroed.
    fn group_state(
        &mut self,
        group: usize,
        hyper: &HyperParams,
    ) -> (Range<usize>, &mut [f32], &mut [f32]) {
        let (reads_velocity, reads_second) = match hyper.kind {
            OptimKind::Sgd => (hyper.momentum != 0.0, false),
            OptimKind::Adam { .. } => (true, true),
        };
        fn part(
            state: &mut Option<Vec<f32>>,
            reads: bool,
            len: usize,
            dense: Range<usize>,
        ) -> &mut [f32] {
            if !reads {
                return &mut [];
            }
            &mut state.get_or_insert_with(|| vec![0.0; len])[dense]
        }
        let (owned, at) = self.groups[group].clone();
        let dense = at..at + owned.len();
        let velocity = part(
            &mut self.velocity,
            reads_velocity,
            self.dense_len,
            dense.clone(),
        );
        let second_moment = part(&mut self.second_moment, reads_second, self.dense_len, dense);
        (owned, velocity, second_moment)
    }

    /// Calls `f(dense, global)` for every run of an item inside a range
    /// this rank updates: `dense` indexes the state vectors, `global` the
    /// exchange format.
    fn for_each_run(&self, layout: &GroupLayout, mut f: impl FnMut(Range<usize>, Range<usize>)) {
        for (g, (owned, at)) in self.groups.iter().enumerate() {
            for &i in layout.items_of_group(g) {
                let item = layout.item(i);
                let lo = owned.start.max(item.offset_in_group);
                let hi = owned.end.min(item.offset_in_group + item.len);
                if lo < hi {
                    let dense = at + (lo - owned.start);
                    let global = item.global_offset + (lo - item.offset_in_group);
                    f(dense..dense + (hi - lo), global..global + (hi - lo));
                }
            }
        }
    }

    /// `state` in the full-length exchange format, zeros outside the
    /// ranges this rank updates; empty if it does not exist.
    fn expand(&self, layout: &GroupLayout, state: Option<&[f32]>) -> Vec<f32> {
        let Some(dense) = state else {
            return Vec::new();
        };
        let mut full = vec![0.0f32; layout.total_elements()];
        self.for_each_run(layout, |d, g| full[g].copy_from_slice(&dense[d]));
        full
    }

    /// Full-length (exchange-format) copies of the velocity and the second
    /// moment; each empty if it does not exist.
    fn export(&self, layout: &GroupLayout) -> (Vec<f32>, Vec<f32>) {
        (
            self.expand(layout, self.velocity.as_deref()),
            self.expand(layout, self.second_moment.as_deref()),
        )
    }

    /// Installs full-length (exchange-format) state, keeping the ranges
    /// this rank updates. An empty vector installs no state.
    fn import(&mut self, layout: &GroupLayout, velocity: &[f32], second_moment: &[f32]) {
        let pack = |full: &[f32]| {
            if full.is_empty() {
                return None;
            }
            let mut dense = vec![0.0f32; self.dense_len];
            self.for_each_run(layout, |d, g| dense[d].copy_from_slice(&full[g]));
            Some(dense)
        };
        (self.velocity, self.second_moment) = (pack(velocity), pack(second_moment));
    }
}

/// A stashed group awaiting the flush: the group's circulating buffers
/// parked comm-side between OP1 and OP2 (DESIGN.md §4.17), or under WFBP
/// between its all-reduce and the update.
enum StashEntry {
    /// The parameter buffer (DeAR's updated, WFBP's to update) plus the
    /// gradient buffer (spent, or WFBP's sums) riding along so the `Params`
    /// reply can hand both back.
    Full { params: Vec<f32>, grads: Vec<f32> },
    /// ZeRO-2: only the owned chunk stays resident; the full buffer is
    /// rebuilt at gather time (the all-gather overwrites every other chunk
    /// from the wire, so zeros there are invisible to the result).
    Shard {
        owned: Range<usize>,
        chunk: Vec<f32>,
        elements: usize,
    },
}

impl StashEntry {
    /// The full-length parameter buffer to all-gather, and the gradient
    /// buffer to return with it (empty under ZeRO-2, whose OP1 compacted
    /// it into the chunk — the training thread re-sizes an empty buffer).
    fn into_buffers(self) -> (Vec<f32>, Vec<f32>) {
        match self {
            StashEntry::Full { params, grads } => (params, grads),
            StashEntry::Shard {
                owned,
                chunk,
                elements,
            } => {
                let mut params = vec![0.0f32; elements];
                params[owned].copy_from_slice(&chunk);
                (params, Vec::new())
            }
        }
    }
}

/// Adam's bias correction `1 − βᵗ` at step `t`, computed in f64: in f32,
/// `1 − βᵗ` loses its precision once βᵗ ≈ 1 − 1e-7 (β₂ = 0.999 reaches that
/// within ~7 steps of t where f32 rounding shows). `powi` takes an `i32`,
/// so a step past `i32::MAX` — reachable through an imported state — takes
/// the exact exponent instead of wrapping to a negative one.
fn bias_correction(beta: f32, t: u64) -> f32 {
    let beta_t = match i32::try_from(t) {
        Ok(t) => f64::from(beta).powi(t),
        Err(_) => f64::from(beta).powf(t as f64),
    };
    (1.0 - beta_t) as f32
}

/// `OP1.UPD`: applies the optimizer to a slice of the part of one group
/// this rank updates (WFBP: of the whole group). `params` and `grads` (the
/// reduced sums) are that slice of the group's buffers, `velocity` and
/// `second_moment` its slices of the state vectors the rule reads (see
/// [`OptimStore::group_state`]; empty for one it does not read). One zipped
/// pass: the same per-element operations in the same order as an indexed
/// loop, with the bounds checks hoisted out so the loop vectorises. Every
/// element is updated on its own, so a range updated slice by slice ends
/// bit-identical to one updated whole.
fn update_owned_shard(
    params: &mut [f32],
    grads: &[f32],
    velocity: &mut [f32],
    second_moment: &mut [f32],
    hyper: &HyperParams,
    inv_p: f32,
    adam_step: u64,
) {
    let (lr, wd) = (hyper.lr, hyper.weight_decay);
    match hyper.kind {
        // Without momentum the velocity would only ever hold the step's
        // gradient, so none is kept. On finite values this is the stateful
        // `v = 0·v + g; p -= lr·v` bit for bit, except that a −0.0
        // parameter meeting a −0.0 gradient sum may end +0.0 where that
        // kept −0.0.
        OptimKind::Sgd if hyper.momentum == 0.0 => {
            for (p, &gsum) in params.iter_mut().zip(grads) {
                *p -= lr * (gsum * inv_p + wd * *p);
            }
        }
        OptimKind::Sgd => {
            let momentum = hyper.momentum;
            for ((p, &gsum), v) in params.iter_mut().zip(grads).zip(velocity) {
                let g = gsum * inv_p + wd * *p;
                *v = momentum * *v + g;
                *p -= lr * *v;
            }
        }
        OptimKind::Adam { beta1, beta2, eps } => {
            let bias1 = bias_correction(beta1, adam_step);
            let bias2 = bias_correction(beta2, adam_step);
            for (((p, &gsum), m), s) in params
                .iter_mut()
                .zip(grads)
                .zip(velocity)
                .zip(second_moment)
            {
                let g = gsum * inv_p + wd * *p;
                *m = beta1 * *m + (1.0 - beta1) * g;
                *s = beta2 * *s + (1.0 - beta2) * g * g;
                let m_hat = *m / bias1;
                let v_hat = *s / bias2;
                *p -= lr * m_hat / (v_hat.sqrt() + eps);
            }
        }
    }
}

/// `OP1.UPD` of one group on this rank: the group's parameters and the
/// optimizer state of the range of it this rank updates, applied a slice
/// of reduced sums at a time.
struct GroupUpdate<'a> {
    /// The group's parameter buffer, whole.
    params: &'a mut [f32],
    /// Where the range this rank updates starts: the state slices' origin.
    owned_start: usize,
    velocity: &'a mut [f32],
    second_moment: &'a mut [f32],
    hyper: HyperParams,
    inv_p: f32,
    adam_step: u64,
}

impl<'a> GroupUpdate<'a> {
    /// The update of `owned` of `group`'s `params`, with `store`'s state
    /// under `hyper`'s rule, at Adam step `adam_step` in a world of
    /// `world` ranks.
    ///
    /// # Panics
    ///
    /// Panics if `owned` is not the range the store keeps state for — a
    /// resize not followed by a rebalance.
    fn new(
        store: &'a mut OptimStore,
        hyper: HyperParams,
        group: usize,
        owned: &Range<usize>,
        params: &'a mut [f32],
        world: usize,
        adam_step: u64,
    ) -> Self {
        let (kept, velocity, second_moment) = store.group_state(group, &hyper);
        assert_eq!(
            *owned, kept,
            "group {group}: the ring's owned range is not the optimizer state's \
             (a resize must be followed by a rebalance)"
        );
        GroupUpdate {
            params,
            owned_start: owned.start,
            velocity,
            second_moment,
            hyper,
            inv_p: 1.0 / world as f32,
            adam_step,
        }
    }

    /// Updates `params[range]` from `gsums`, the reduced sums of `range`.
    fn apply(&mut self, range: Range<usize>, gsums: &[f32]) {
        /// `state[k]`, or nothing for a vector the rule does not read.
        fn part(state: &mut [f32], k: Range<usize>) -> &mut [f32] {
            if state.is_empty() {
                state
            } else {
                &mut state[k]
            }
        }
        let k = range.start - self.owned_start..range.end - self.owned_start;
        update_owned_shard(
            &mut self.params[range],
            gsums,
            part(self.velocity, k.clone()),
            part(self.second_moment, k),
            &self.hyper,
            self.inv_p,
            self.adam_step,
        );
    }
}

/// The rest of DeAR's OP1, fused into the reduce-scatter's last receive:
/// `OP1.RS` ends when the owned chunk's payload has arrived, and `OP1.UPD`
/// covers reducing that payload into the chunk and updating it, one slice
/// at a time while the slice is in cache. The two spans do not nest.
struct Op1Tail<'a> {
    group: usize,
    update: GroupUpdate<'a>,
    /// Open until the payload arrives.
    rs: Option<trace::Span>,
    /// Open from then on.
    upd: Option<trace::Span>,
}

impl Epilogue for Op1Tail<'_> {
    fn arrived(&mut self) {
        if let Some(rs) = self.rs.take() {
            rs.end();
        }
        let group = self.group;
        self.upd = Some(trace::span(TaskKind::Other, || {
            format!("OP1.UPD[g{group}]")
        }));
    }

    fn slice(&mut self, range: Range<usize>, reduced: &mut [f32]) {
        self.update.apply(range, reduced);
    }
}

/// Which update rule the sharded optimizer applies.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum OptimKind {
    /// SGD with momentum (`momentum` field of [`HyperParams`]).
    #[default]
    Sgd,
    /// Adam (Kingma & Ba); `momentum` is ignored.
    Adam {
        /// First-moment decay (β₁).
        beta1: f32,
        /// Second-moment decay (β₂).
        beta2: f32,
        /// Numerical-stability term.
        eps: f32,
    },
}

impl OptimKind {
    /// Canonical Adam defaults: β₁ = 0.9, β₂ = 0.999, ε = 1e-8.
    #[must_use]
    pub fn adam_default() -> Self {
        OptimKind::Adam {
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }
}

/// Optimizer hyper-parameters of the comm thread's update.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HyperParams {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient in `[0, 1)` (SGD only). At 0 the update keeps
    /// no velocity.
    pub momentum: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// The update rule.
    pub kind: OptimKind,
}

/// The comm thread's sharded optimizer state, exportable for
/// checkpointing and importable on resume. `velocity` doubles as Adam's
/// first moment. A vector is empty when no state of its kind exists — the
/// velocity until SGD with momentum or Adam has stepped (SGD without
/// momentum keeps none), the second moment until Adam has — and is
/// imported as such. A non-empty vector is keyed by **global flat
/// offset**, with non-owned elements zero — each rank checkpoints and
/// restores its own shard (under WFBP, every rank's shard is the whole
/// model).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OptimState {
    /// SGD velocity / Adam first moment, one element per model parameter,
    /// or empty.
    pub velocity: Vec<f32>,
    /// Adam second moment, one element per model parameter, or empty.
    pub second_moment: Vec<f32>,
    /// Adam step counter (bias correction), shared by all shards.
    pub adam_step: u64,
}

/// Jobs posted by the training thread.
#[derive(Debug)]
pub enum CommJob {
    /// A group's gradients are ready: the job *moves* the group's two
    /// circulating buffers to the comm thread; the matching
    /// [`CommResult::Params`] moves them back (DESIGN.md §4.17). DeAR
    /// (OP1): reduce-scatter `grads`, update the owned shard of `params` in
    /// place, stash both for the flush's all-gather. WFBP: all-reduce
    /// `grads` in place to their sums and stash both for the flush's
    /// update.
    Reduce {
        /// Group id.
        group: usize,
        /// Flat gradients (group order).
        grads: Vec<f32>,
        /// Flat parameters (group order).
        params: Vec<f32>,
    },
    /// The end of a step's communication, replying with one `Params` per
    /// stashed group, in reverse stash order (forward order). DeAR: OP2,
    /// the all-gather of every group's updated parameters. WFBP: the
    /// update of every group, whole, from its all-reduced sums.
    Flush,
    /// Broadcast `value` from `root` to all ranks (BO buffer-size sync).
    Broadcast {
        /// Root rank.
        root: usize,
        /// The value broadcast (only the root's value matters).
        value: f64,
    },
    /// Synchronize all ranks.
    Barrier,
    /// Install a fusion layout — the first one, which the comm thread
    /// waits for holding the layout of no tensors, or a BO re-bucketing —
    /// or re-partition the optimizer state after a resize under the current
    /// one. The state is exported under the old layout and imported under
    /// the new one, so it survives. The layout also sets the data path's
    /// wire dtype.
    Reconfigure {
        /// The new layout.
        layout: GroupLayout,
    },
    /// Replace the optimizer hyper-parameters (e.g. a learning-rate
    /// schedule step). Applies to subsequent updates.
    SetHyper(HyperParams),
    /// Clone the sharded optimizer state for checkpointing, replying with
    /// [`CommResult::OptimState`]. Must be posted at an iteration boundary.
    ExportOptimState,
    /// Replace the sharded optimizer state (checkpoint resume). Must be
    /// posted at an iteration boundary, before the first `Reduce`.
    ImportOptimState(OptimState),
    /// In-place elastic resize: re-run rendezvous through
    /// [`Transport::reconfigure`] and adopt the surviving world's new rank
    /// and size, replying with [`CommResult::Resized`]. Must be posted at
    /// an iteration boundary; a mid-step request is refused with a typed
    /// error, never honoured.
    ResizeWorld {
        /// Explicit survivor list (old ranks) for transports that cannot
        /// discover survivors themselves (e.g. the in-process fabric);
        /// `None` lets the transport run its own membership protocol.
        survivors: Option<Vec<usize>>,
    },
    /// Min-allreduce a step counter so every rank resumes from the same
    /// step after a resize, replying with [`CommResult::Step`]. The value
    /// rides the f32 control path in two 24-bit halves: exact below 2^48.
    AgreeStep(u64),
    /// Report the resident optimizer-state bytes on this rank, replying
    /// with [`CommResult::OptimBytes`]. Purely local — no communication —
    /// and valid at any time; this is what the ZeRO memory assertions read.
    QueryOptimBytes,
}

/// Replies sent back to the training thread.
#[derive(Debug)]
pub enum CommResult {
    /// Updated, complete parameters of one group, in the buffer its
    /// `Reduce` shipped, together with that job's spent gradient buffer.
    Params {
        /// Group id.
        group: usize,
        /// Flat parameters.
        params: Vec<f32>,
        /// The group's gradient buffer, contents spent — the next
        /// iteration's staging area. Empty under ZeRO-2, whose OP1
        /// compacts the full-length buffer into the parked chunk.
        grads: Vec<f32>,
    },
    /// The broadcast value.
    Broadcast(f64),
    /// Barrier completion.
    BarrierDone,
    /// The exported optimizer state.
    OptimState(OptimState),
    /// The outcome of a [`CommJob::ResizeWorld`] request. `Ok` carries the
    /// adopted world change; `Err` means the resize was refused (mid-step)
    /// or the rendezvous failed. Distinct from [`CommResult::Error`] so the
    /// training thread can drain stale pre-failure results until it sees
    /// this reply — the FIFO job channel guarantees everything enqueued
    /// before the resize drains first.
    Resized(Result<WorldChange, CollectiveError>),
    /// The agreed (minimum) step across the world.
    Step(u64),
    /// Resident optimizer-state bytes on this rank: velocity plus second
    /// moment, dense over the owned shard, for the vectors that exist — 0
    /// under SGD without momentum, which keeps none.
    OptimBytes(usize),
    /// A collective failed. The job that posted it was abandoned, and so
    /// was everything of the iteration held comm-side — ring ops begun
    /// ahead, the stash — the step cannot be resumed. The transport stays
    /// broken until a successful [`CommJob::ResizeWorld`] (or the worker
    /// tears down and restarts); ring jobs posted before then are dropped
    /// without a reply of their own.
    Error(CollectiveError),
}

/// Ring ops the comm thread may have begun beyond the one it is finishing
/// (DESIGN.md §4.18). A constant, not a knob: two covers the one software
/// wake-up a receive costs, and every op ahead holds a wire buffer (and,
/// under ZeRO-2, a rebuilt parameter buffer) alive.
const SEND_AHEAD_WINDOW: usize = 2;

// The head op and everything begun ahead of it each have one unreceived
// message per link at worst; a transport must take them all.
const _: () = assert!(SEND_AHEAD_WINDOW < MIN_LINK_FRAMES);

/// The control path (broadcast, barrier, step agreement, optimizer-state
/// redistribution) must stay bit-exact whatever the run's wire dtype:
/// `Broadcast` ships an f64 as two f32 bit-words (any rounding corrupts the
/// value), and `Reconfigure` redistributes optimizer state that checkpoints
/// expect unrounded. Only the data path (`Reduce` and `Flush`) rides the
/// layout's wire.
const CONTROL: DType = DType::F32;

/// Elements of the largest chunk any group of `layout` splits into.
fn largest_chunk(layout: &GroupLayout, world: usize) -> usize {
    (0..layout.num_groups())
        .map(|g| chunk_range(layout.group_elements(g), world, 0).len())
        .max()
        .unwrap_or(0)
}

/// A ring collective the comm thread has begun and not yet finished,
/// with the group buffers that travel with it.
///
/// `data` keeps the contract of [`ring_begin`]: from `begin` to `finish` it
/// is handed only to the ring calls, which address it through
/// `Vec::as_mut_ptr` while the peer reads its lent chunks in place. `ring`
/// is declared before `data`, so when [`CommThread::fail`] clears the ops
/// in flight each op's loans are abandoned (revoked, or waited out) before
/// its buffer is freed.
struct InFlight {
    group: usize,
    ring: RingOp,
    /// The buffer on the wire: the group's gradients (reduce-scatter,
    /// all-reduce) or its parameters (all-gather).
    data: Vec<f32>,
    /// The group's other circulating buffer, riding along: the parameters
    /// behind a reduce-scatter or an all-reduce, the spent gradients behind
    /// an all-gather.
    other: Vec<f32>,
    /// The op's span, already open if it was begun with nothing in flight
    /// (its own first send then belongs to it). An op begun ahead gets its
    /// span when it becomes the head: its first send happened inside its
    /// predecessor's span, and the comm stream stays serial.
    span: Option<trace::Span>,
}

/// The span label of a ring op on `group`.
fn op_label(kind: RingKind, group: usize) -> String {
    match kind {
        RingKind::ReduceScatter(_) => format!("OP1.RS[g{group}]"),
        RingKind::AllGather { .. } => format!("OP2.AG[g{group}]"),
        RingKind::AllReduce(_) => format!("AR[g{group}]"),
    }
}

/// The state of one rank's comm thread (see [`run_comm_thread`]).
struct CommThread<'a, T> {
    transport: T,
    /// The installed fusion layout; its wire dtype is the data path's.
    layout: GroupLayout,
    hyper: HyperParams,
    strategy: ParallelismStrategy,
    mode: PipelineMode,
    jobs: &'a Receiver<CommJob>,
    results: &'a Sender<CommResult>,
    world: usize,
    rank: usize,
    /// Optimizer state of the owned shard; re-packed on `Reconfigure`.
    store: OptimStore,
    adam_step: u64,
    /// Groups reduced this iteration, in arrival (backward) order.
    stash: Vec<(usize, StashEntry)>,
    /// Jobs taken off the channel and not yet started, in order.
    backlog: VecDeque<CommJob>,
    /// Ring ops begun and not yet finished, in order; the front is the one
    /// being finished, the rest were begun ahead of it.
    inflight: VecDeque<InFlight>,
    /// A DeAR `Flush` is being served: the next ring ops are the stash's
    /// all-gathers, newest entry first.
    flushing: bool,
    /// A collective failed and no resize has succeeded since: the step was
    /// abandoned, and what is left of it is dropped, not run.
    broken: bool,
}

impl<T: Transport> CommThread<'_, T> {
    fn run(&mut self) {
        loop {
            match self.pump() {
                Ok(true) => continue,
                Ok(false) => {}
                Err(e) => {
                    self.fail(e);
                    continue;
                }
            }
            // No ring op in flight and none next in line.
            let Some(job) = self.backlog.pop_front() else {
                match self.jobs.recv() {
                    // Through the pump first: it may be a ring job.
                    Ok(job) => self.backlog.push_back(job),
                    Err(_) => return,
                }
                continue;
            };
            if let Err(e) = self.control(job) {
                self.fail(e);
            }
        }
    }

    /// Stocks the transport's pool with the wire buffers a full send-ahead
    /// window has in use at once under the current layout and world. How
    /// far ahead the thread actually gets depends on when jobs arrive, so
    /// without the stock the first step to fill the window — any step,
    /// however late — would have to allocate them.
    fn open_window(&mut self) {
        let chunk = largest_chunk(&self.layout, self.world);
        let bytes = chunk * self.layout.wire().size_bytes();
        let stock: Vec<_> = (0..=SEND_AHEAD_WINDOW)
            .map(|_| self.transport.take_buffer(bytes))
            .collect();
        for buf in stock {
            self.transport.recycle_buffer(buf);
        }
    }

    /// Abandons the step after a collective failure: drops every op in
    /// flight and the iteration's stash with their buffers (the step is not
    /// resumable), and reports once. What is left of the step — in the
    /// backlog or still to be posted — is dropped as it comes up, until a
    /// resize succeeds.
    fn fail(&mut self, e: CollectiveError) {
        self.inflight.clear();
        self.stash.clear();
        self.flushing = false;
        self.broken = true;
        self.reply(CommResult::Error(e));
    }

    /// Best-effort: a training thread that dropped its `DistOptim` has
    /// nobody left to tell, and its peers still need this rank's part of
    /// the collectives already posted — the thread serves on until the job
    /// channel closes.
    fn reply(&self, result: CommResult) {
        let _ = self.results.send(result);
    }

    /// Finishes the ring op at the head of the pipeline, sending ahead for
    /// the ops behind it. `Ok(false)` when there is no ring op to run: none
    /// in flight, and the next job in line is not one.
    fn pump(&mut self) -> Result<bool, CollectiveError> {
        self.fill()?;
        let Some(head) = self.inflight.front_mut() else {
            return Ok(false);
        };
        let (kind, group) = (head.ring.kind(), head.group);
        let span = head
            .span
            .take()
            .unwrap_or_else(|| trace::span(TaskKind::Communication, || op_label(kind, group)));
        // SAFETY: `head.data` is the op's buffer, kept by `InFlight` (see
        // there) until the op is finished or dropped.
        unsafe { ring_advance(&self.transport, &mut head.ring, &mut head.data)? };
        // The head has posted its last send: the ops behind it may post
        // their first before it blocks on its last receive.
        self.fill()?;
        let InFlight {
            ring,
            mut data,
            other,
            ..
        } = self.inflight.pop_front().expect("the head is in flight");
        if let RingKind::ReduceScatter(_) = kind {
            self.finish_op1(group, ring, data, other, span)?;
            return Ok(true);
        }
        // SAFETY: `data` is the op's buffer, untouched since it left
        // `InFlight`; `ring_finish` settles or drops every loan on it.
        unsafe { ring_finish(&self.transport, ring, &mut data)? };
        span.end();
        if let RingKind::AllGather { .. } = kind {
            self.reply(CommResult::Params {
                group,
                params: data,
                grads: other,
            });
        } else {
            // WFBP: the sums wait in the stash for the flush's update.
            self.stash.push((
                group,
                StashEntry::Full {
                    params: other,
                    grads: data,
                },
            ));
        }
        Ok(true)
    }

    /// Begins ring ops while the ordering rule and the window allow: the
    /// next op's first send may go out once every op before it has posted
    /// its last, and at most [`SEND_AHEAD_WINDOW`] ops run ahead of the
    /// head.
    fn fill(&mut self) -> Result<(), CollectiveError> {
        while self.inflight.len() <= SEND_AHEAD_WINDOW
            && self.inflight.back().is_none_or(|op| op.ring.all_sent())
        {
            match self.begin_next()? {
                Some(op) => self.inflight.push_back(op),
                None => break,
            }
        }
        Ok(())
    }

    /// Begins the next ring op in program order, if a ring op is what comes
    /// next: the newest stashed group's all-gather while flushing (forward
    /// order = reverse of backward arrival order, so the first layers'
    /// parameters arrive first — FeedPipe), else the `Reduce` at the front
    /// of the backlog: a reduce-scatter under DeAR, an all-reduce under
    /// WFBP.
    fn begin_next(&mut self) -> Result<Option<InFlight>, CollectiveError> {
        let flushed = if self.flushing {
            self.stash.pop()
        } else {
            None
        };
        let (group, kind, mut data, other) = if let Some((group, entry)) = flushed {
            // ZeRO-2 rematerializes the full buffer only now that its send
            // is due: zeros everywhere except the owned chunk, which is all
            // the ring all-gather ever reads from this rank.
            let (params, grads) = entry.into_buffers();
            let owned_chunk = ring_owned_chunk(self.rank, self.world);
            (group, RingKind::AllGather { owned_chunk }, params, grads)
        } else {
            self.flushing = false;
            while let Ok(job) = self.jobs.try_recv() {
                self.backlog.push_back(job);
            }
            if self.broken {
                return Ok(None);
            }
            match self.backlog.pop_front() {
                Some(CommJob::Reduce {
                    group,
                    grads,
                    params,
                }) => {
                    let kind = match self.mode {
                        PipelineMode::Dear => RingKind::ReduceScatter(ReduceOp::Sum),
                        PipelineMode::Wfbp => RingKind::AllReduce(ReduceOp::Sum),
                    };
                    (group, kind, grads, params)
                }
                // Any other job waits until nothing is in flight.
                Some(other) => {
                    self.backlog.push_front(other);
                    return Ok(None);
                }
                None => return Ok(None),
            }
        };
        debug_assert_eq!(data.len(), self.layout.group_elements(group));
        let span = self
            .inflight
            .is_empty()
            .then(|| trace::span(TaskKind::Communication, || op_label(kind, group)));
        // SAFETY: `data` moves into the op's `InFlight` next and stays
        // there, left alone, until the op is finished or dropped.
        let ring = unsafe { ring_begin(&self.transport, kind, &mut data, self.layout.wire())? };
        Ok(Some(InFlight {
            group,
            ring,
            data,
            other,
            span,
        }))
    }

    /// DeAR's OP1 from the reduce-scatter's last receive on: the owned
    /// chunk of `grads` is reduced and its parameters updated one slice at
    /// a time as the payload comes in ([`Op1Tail`]), then the group is
    /// parked for OP2. `rs` is the op's open `OP1.RS` span.
    fn finish_op1(
        &mut self,
        group: usize,
        ring: RingOp,
        mut grads: Vec<f32>,
        mut params: Vec<f32>,
        rs: trace::Span,
    ) -> Result<(), CollectiveError> {
        // The first group of a new iteration advances the Adam step (bias
        // correction is per-iteration, shared by shards) — once it has
        // been reduced and updated.
        let adam_step = self.adam_step + u64::from(self.stash.is_empty());
        let owned = chunk_range(
            grads.len(),
            self.world,
            ring_owned_chunk(self.rank, self.world),
        );
        // Every element is owned by exactly one rank, so the union of the
        // shards' updates is the full S-SGD update of Eq. 2.
        let update = GroupUpdate::new(
            &mut self.store,
            self.hyper,
            group,
            &owned,
            &mut params,
            self.world,
            adam_step,
        );
        let mut tail = Op1Tail {
            group,
            update,
            rs: Some(rs),
            upd: None,
        };
        // SAFETY: `grads` is the op's buffer, untouched since it left
        // `InFlight`; the epilogue writes `params`, another buffer.
        unsafe { ring_finish_with(&self.transport, ring, &mut grads, &mut tail)? };
        if let Some(upd) = tail.upd {
            upd.end();
        }
        self.adam_step = adam_step;
        let entry = if self.strategy.shards_grad_stash() {
            // ZeRO-2: only the owned chunk is live between OP1 and OP2 —
            // the all-gather redistributes it and overwrites the rest. The
            // spent gradients, compacted to that chunk, become its storage;
            // both full-length buffers are released here.
            let mut chunk = compact_owned_shard(grads, &owned);
            chunk.copy_from_slice(&params[owned.clone()]);
            StashEntry::Shard {
                owned,
                chunk,
                elements: self.layout.group_elements(group),
            }
        } else {
            StashEntry::Full { params, grads }
        };
        self.stash.push((group, entry));
        Ok(())
    }

    /// WFBP's flush, one per step: every all-reduced group is updated
    /// whole — the store's range of every group is all of it — under its
    /// own `OP1.UPD` span, and goes back to the training thread.
    fn update_stash(&mut self) {
        self.adam_step += 1;
        while let Some((group, entry)) = self.stash.pop() {
            let (mut params, grads) = entry.into_buffers();
            let upd = trace::span(TaskKind::Other, || format!("OP1.UPD[g{group}]"));
            let whole = 0..params.len();
            GroupUpdate::new(
                &mut self.store,
                self.hyper,
                group,
                &whole,
                &mut params,
                self.world,
                self.adam_step,
            )
            .apply(whole, &grads);
            upd.end();
            self.reply(CommResult::Params {
                group,
                params,
                grads,
            });
        }
    }

    /// Whether no reduced group is stashed, i.e. the thread is at
    /// an iteration boundary. If not, fails the request for `what` — and
    /// only the request: boundary violations used to be `assert!`s that
    /// panicked this thread (and with it the whole worker). The stash is
    /// kept; the step itself is still healthy and can be flushed normally.
    fn at_boundary(&self, what: &str) -> bool {
        if !self.stash.is_empty() {
            self.reply(CommResult::Error(CollectiveError::Reconfigure {
                reason: format!(
                    "{what} must happen at an iteration boundary; \
                     a reduced group is still stashed"
                ),
            }));
        }
        self.stash.is_empty()
    }

    /// Serves a job that is not a ring op; only ever called with no ring op
    /// in flight. An `Err` is a failed collective, for [`Self::fail`].
    #[allow(clippy::too_many_lines)]
    fn control(&mut self, job: CommJob) -> Result<(), CollectiveError> {
        match job {
            // The pump begins every ring job it finds at the front of the
            // backlog — unless the transport is broken: the step these
            // belong to was abandoned, and they go with it.
            CommJob::Reduce { .. } => debug_assert!(self.broken),
            CommJob::Flush if self.broken => {}
            CommJob::Flush => match self.mode {
                PipelineMode::Dear => self.flushing = true,
                PipelineMode::Wfbp => self.update_stash(),
            },
            CommJob::Broadcast { root, value } => {
                // The fabric carries f32, but BO broadcasts byte counts that
                // exceed 2^24 (e.g. the paper's 25 MB buffer, 26_214_401
                // bytes with headers) — an `as f32` cast rounds those, and a
                // root-vs-peer mismatch splits the cluster into different
                // fusion layouts. Ship the exact f64 as two f32 bit-words
                // instead; tree_broadcast only copies, so bits survive.
                let bc = trace::span(TaskKind::Communication, || "BCAST".to_string());
                let bits = value.to_bits();
                let mut buf = [
                    f32::from_bits((bits >> 32) as u32),
                    f32::from_bits(bits as u32),
                ];
                tree_broadcast(&self.transport, &mut buf, root, CONTROL)?;
                let bits = (u64::from(buf[0].to_bits()) << 32) | u64::from(buf[1].to_bits());
                bc.end();
                self.reply(CommResult::Broadcast(f64::from_bits(bits)));
            }
            CommJob::Barrier => {
                let sp = trace::span(TaskKind::Communication, || "BARRIER".to_string());
                let mut token = [0.0f32];
                naive_all_reduce(&self.transport, &mut token, ReduceOp::Sum, CONTROL)?;
                sp.end();
                self.reply(CommResult::BarrierDone);
            }
            CommJob::Reconfigure { layout } => {
                if !self.at_boundary("re-bucketing") {
                    return Ok(());
                }
                // A state vector exists on every rank or on none (see
                // `OptimStore`), so every rank enters the same all-reduces.
                let (mut velocity, mut second_moment) = self.store.export(&self.layout);
                // WFBP keeps the whole state on every rank: the new layout
                // only re-orders it. Nor is there state to move when the
                // first layout is installed — a test every rank answers
                // alike, unlike one on its own shard, which may be empty.
                if self.mode == PipelineMode::Dear && self.layout.total_elements() > 0 {
                    // Shard ownership changes with the group boundaries (or
                    // the world size, after an in-place resize), so the
                    // optimizer state must move with it: each element's
                    // state lives only on its owner (zero elsewhere), so a
                    // sum all-reduce reconstructs the full state, after
                    // which each rank keeps only the shards it owns under
                    // the new layout. A failure part-way leaves the state
                    // half-reduced — recovery must go through a snapshot
                    // import, never resume from here.
                    let sp = trace::span(TaskKind::Communication, || "REBALANCE".to_string());
                    for full in [&mut velocity, &mut second_moment] {
                        if !full.is_empty() {
                            ring_all_reduce_on_wire(&self.transport, full, ReduceOp::Sum, CONTROL)?;
                        }
                    }
                    sp.end();
                }
                self.store = OptimStore::new(&layout, self.rank, self.world, self.mode);
                self.store.import(&layout, &velocity, &second_moment);
                self.layout = layout;
                self.open_window();
            }
            CommJob::SetHyper(hyper) => {
                if self.at_boundary("a hyper-parameter change") {
                    self.hyper = hyper;
                }
            }
            CommJob::ExportOptimState => {
                if self.at_boundary("an optimizer-state export") {
                    // Always exported in the full-length exchange format
                    // (zeros outside the owned shard) regardless of
                    // strategy, so the checkpoint layout is
                    // strategy-independent and a run can resume under a
                    // different strategy than it saved with.
                    let (velocity, second_moment) = self.store.export(&self.layout);
                    self.reply(CommResult::OptimState(OptimState {
                        velocity,
                        second_moment,
                        adam_step: self.adam_step,
                    }));
                }
            }
            CommJob::ImportOptimState(state) => {
                // `DistOptim::import_optim_state` has checked the lengths.
                if self.at_boundary("an optimizer-state import") {
                    self.store
                        .import(&self.layout, &state.velocity, &state.second_moment);
                    self.adam_step = state.adam_step;
                }
            }
            CommJob::ResizeWorld { survivors } => {
                if !self.stash.is_empty() {
                    // A mid-step resize fails the request, not the step:
                    // the stash is kept so the caller can still flush the
                    // iteration and retry at the boundary.
                    self.reply(CommResult::Resized(Err(CollectiveError::Reconfigure {
                        reason: "in-place resize must happen at an iteration boundary; \
                                 a reduced group is still stashed"
                            .to_string(),
                    })));
                    return Ok(());
                }
                let sp = trace::span(TaskKind::Communication, || "RESIZE".to_string());
                let outcome = self.transport.reconfigure(survivors.as_deref());
                sp.end();
                if let Ok(change) = &outcome {
                    self.world = change.new_world;
                    self.rank = change.new_rank;
                    self.open_window();
                    self.broken = false;
                }
                self.reply(CommResult::Resized(outcome));
            }
            CommJob::AgreeStep(step) => {
                let sp = trace::span(TaskKind::Communication, || "AGREE-STEP".to_string());
                // f32 is exact only below 2^24: the min of the high 24 bits,
                // then of the low 24 bits of the ranks that hold it (every
                // other rank offers 2^24, above any low half).
                let mut high = [(step >> 24) as f32];
                naive_all_reduce(&self.transport, &mut high, ReduceOp::Min, CONTROL)?;
                let high = high[0] as u64;
                let low = if step >> 24 == high {
                    step & 0xFF_FFFF
                } else {
                    1 << 24
                };
                let mut low = [low as f32];
                naive_all_reduce(&self.transport, &mut low, ReduceOp::Min, CONTROL)?;
                sp.end();
                self.reply(CommResult::Step((high << 24) | low[0] as u64));
            }
            CommJob::QueryOptimBytes => {
                self.reply(CommResult::OptimBytes(self.store.resident_bytes()));
            }
        }
        Ok(())
    }
}

/// Runs the comm-thread event loop until the job channel closes.
///
/// **Cross-group send-ahead** (DESIGN.md §4.18). The ring jobs — the
/// `Reduce`s (DeAR's reduce-scatters, WFBP's all-reduces) and the
/// all-gathers of DeAR's `Flush` — run split-phase
/// ([`ring_begin`] → [`ring_advance`] → [`ring_finish`]), and the thread
/// does not wait out one group's last receive before it looks at the next
/// group: once the op it is finishing has posted its last send, it begins
/// the ops queued behind it — up to [`SEND_AHEAD_WINDOW`] of them, each as
/// soon as its predecessor has posted *its* last send. That one rule keeps
/// every op's messages contiguous on the link, in the order of the
/// one-group-at-a-time schedule, so the peers need no tags to tell the
/// messages apart and results are bit-identical; the link simply no longer
/// idles for a wake-up between groups. On two ranks a reduce-scatter or
/// all-gather is a single send, so the whole window is on the wire while
/// the head's receive is awaited; an all-reduce's second send needs its
/// first receive, so only its last wait is overlapped, and so is any op on
/// more than two ranks. Ops finish — update, stash, reply — strictly in
/// order, one `OP1.RS` / `OP1.UPD` / `OP2.AG` / `AR` span per group, serial
/// on the comm stream. Every other job runs with nothing in flight — so
/// does WFBP's `Flush`, whose `OP1.UPD` spans follow the last `AR`.
///
/// Collective failures do **not** kill this thread: the ops in flight and
/// the iteration's comm-side stash are dropped (the step cannot be
/// resumed), one [`CommResult::Error`] goes back to the training thread,
/// which owns the recovery decision — resize the world in place
/// ([`CommJob::ResizeWorld`]) or tear down — and until a resize succeeds
/// the ring jobs still arriving from the abandoned step are dropped
/// unrun.
///
/// Nor does a training thread that hangs up: replies to nobody are dropped,
/// and the thread returns when the job channel closes.
///
/// The thread starts on the layout of no tensors; the training side's
/// first job is the [`CommJob::Reconfigure`] that installs its layout, and
/// with it the data path's wire dtype.
pub fn run_comm_thread<T: Transport>(
    transport: T,
    hyper: HyperParams,
    strategy: ParallelismStrategy,
    mode: PipelineMode,
    trace_scope: &str,
    jobs: &Receiver<CommJob>,
    results: &Sender<CommResult>,
) {
    trace::set_thread_stream(trace_scope, "comm");
    let world = transport.world_size();
    let rank = transport.rank();
    let layout = GroupLayout::empty();
    CommThread {
        store: OptimStore::new(&layout, rank, world, mode),
        transport,
        layout,
        hyper,
        strategy,
        mode,
        jobs,
        results,
        world,
        rank,
        adam_step: 0,
        stash: Vec::new(),
        backlog: VecDeque::new(),
        inflight: VecDeque::new(),
        flushing: false,
        broken: false,
    }
    .run();
}

#[cfg(test)]
mod epilogue_tests;
#[cfg(test)]
mod send_ahead_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam_channel::unbounded;
    use dear_collectives::LocalFabric;
    use dear_fusion::FusionPlan;
    use dear_minidnn::{Embedding, Sequential};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A network with one tensor per entry of `lens`, given in ready order:
    /// `Embedding::new(n, 1, ..)` layers, pushed last-first.
    pub(super) fn net_of(lens: &[usize]) -> Sequential {
        let mut rng = StdRng::seed_from_u64(0);
        lens.iter().rev().fold(Sequential::new(), |net, &n| {
            net.push(Embedding::new(n, 1, &mut rng))
        })
    }

    /// The layout of [`net_of`]`(lens)`, grouped by `plan` —
    /// `FusionPlan::singletons` or `FusionPlan::single_group`, in group
    /// (ready) order. Global offsets run against group order.
    pub(super) fn layout_of(lens: &[usize], plan: fn(usize) -> FusionPlan) -> GroupLayout {
        GroupLayout::new(&net_of(lens), plan(lens.len()))
    }

    /// Ragged items, so that every rank's owned chunk cuts items mid-way.
    const RAGGED: [usize; 6] = [7, 1, 13, 5, 67, 3];

    /// The indexed scalar loop `update_owned_shard` replaced, kept as the
    /// ground truth it must match bit for bit: `owned` of a group's
    /// `params`, from the group's reduced sums `gsums`, with state slices
    /// that start at `owned.start`. Stateful whatever the rule: SGD keeps
    /// a velocity even without momentum.
    #[allow(clippy::too_many_arguments)]
    fn indexed_update(
        owned: &Range<usize>,
        gsums: &[f32],
        params: &mut [f32],
        velocity: &mut [f32],
        second_moment: &mut [f32],
        hyper: &HyperParams,
        inv_p: f32,
        adam_step: u64,
    ) {
        for k in owned.clone() {
            let vi = k - owned.start;
            let g = gsums[k] * inv_p + hyper.weight_decay * params[k];
            match hyper.kind {
                OptimKind::Sgd => {
                    velocity[vi] = hyper.momentum * velocity[vi] + g;
                    params[k] -= hyper.lr * velocity[vi];
                }
                OptimKind::Adam { beta1, beta2, eps } => {
                    let bias1 = (1.0 - f64::from(beta1).powi(adam_step as i32)) as f32;
                    let bias2 = (1.0 - f64::from(beta2).powi(adam_step as i32)) as f32;
                    velocity[vi] = beta1 * velocity[vi] + (1.0 - beta1) * g;
                    second_moment[vi] = beta2 * second_moment[vi] + (1.0 - beta2) * g * g;
                    let m_hat = velocity[vi] / bias1;
                    let v_hat = second_moment[vi] / bias2;
                    params[k] -= hyper.lr * m_hat / (v_hat.sqrt() + eps);
                }
            }
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// SGD without and with momentum, with weight decay, and Adam.
    pub(super) fn rules() -> [HyperParams; 3] {
        let sgd = |momentum| HyperParams {
            lr: 0.05,
            momentum,
            weight_decay: 1e-2,
            kind: OptimKind::Sgd,
        };
        [
            sgd(0.0),
            sgd(0.9),
            HyperParams {
                kind: OptimKind::adam_default(),
                ..sgd(0.0)
            },
        ]
    }

    #[test]
    fn slice_updates_match_the_indexed_loops_bitwise() {
        // One group of ragged items, cut by every rank's owned chunk and
        // updated in ragged slices, as the reduce-scatter's epilogue does;
        // SGD without and with momentum, and Adam, over several steps. The
        // old loop keeps a velocity under every rule; without momentum the
        // store keeps none, and the parameters still agree to the bit.
        let layout = layout_of(&RAGGED, FusionPlan::single_group);
        let elements = layout.group_elements(0);
        let mut rng = StdRng::seed_from_u64(0xDEA2);
        let mut random =
            |n: usize| -> Vec<f32> { (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect() };
        for hyper in rules() {
            let adam = matches!(hyper.kind, OptimKind::Adam { .. });
            for world in [1usize, 2, 3, 5] {
                for rank in 0..world {
                    let owned = chunk_range(elements, world, ring_owned_chunk(rank, world));
                    let mut fast = OptimStore::new(&layout, rank, world, PipelineMode::Dear);
                    let mut velocity = random(owned.len());
                    if hyper.momentum != 0.0 || adam {
                        fast.velocity = Some(velocity.clone());
                    }
                    let mut second_moment = vec![0.0; owned.len()];
                    let mut fast_params = random(elements);
                    let mut slow_params = fast_params.clone();
                    for adam_step in 1..=3 {
                        let gsums = random(elements);
                        let mut update = GroupUpdate::new(
                            &mut fast,
                            hyper,
                            0,
                            &owned,
                            &mut fast_params,
                            world,
                            adam_step,
                        );
                        let mut at = owned.start;
                        for cut in [1, 4, 2, 9].iter().cycle() {
                            let end = (at + cut).min(owned.end);
                            update.apply(at..end, &gsums[at..end]);
                            if end == owned.end {
                                break;
                            }
                            at = end;
                        }
                        indexed_update(
                            &owned,
                            &gsums,
                            &mut slow_params,
                            &mut velocity,
                            &mut second_moment,
                            &hyper,
                            1.0 / world as f32,
                            adam_step,
                        );
                        let case = format!("{hyper:?} rank {rank}/{world} step {adam_step}");
                        assert_eq!(bits(&fast_params), bits(&slow_params), "params: {case}");
                        if hyper.momentum == 0.0 && !adam {
                            assert_eq!(fast.velocity, None, "{case}: a velocity was kept");
                        } else {
                            let v = fast.velocity.as_deref().unwrap();
                            assert_eq!(bits(v), bits(&velocity), "velocity: {case}");
                        }
                        if adam {
                            let m = fast.second_moment.as_deref().unwrap();
                            assert_eq!(bits(m), bits(&second_moment), "second moment: {case}");
                        } else {
                            assert_eq!(fast.second_moment, None, "{case}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn stateless_sgd_differs_from_the_stateful_loop_only_at_signed_zeros() {
        // Every pairing of finite parameters, gradient sums and old
        // velocities from a grid of signed zeros, subnormals, ordinary and
        // huge values: without momentum the update keeps no velocity, and
        // the only parameter it leaves differently from `v = 0·v + g;
        // p -= lr·v` is a −0.0 one meeting a −0.0 gradient sum.
        let grid = [
            0.0f32,
            -0.0,
            1.0,
            -1.0,
            0.375,
            -3.5,
            1e-40,
            -1e-40,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            1e30,
            -1e30,
        ];
        let mut exceptions = 0;
        for (weight_decay, inv_p) in [(0.0, 1.0), (1e-2, 0.5), (1e-4, 1.0 / 3.0)] {
            let hyper = HyperParams {
                lr: 0.05,
                momentum: 0.0,
                weight_decay,
                kind: OptimKind::Sgd,
            };
            for p in grid {
                for gsum in grid {
                    for v in grid {
                        let mut stateless = [p];
                        update_owned_shard(
                            &mut stateless,
                            &[gsum],
                            &mut [],
                            &mut [],
                            &hyper,
                            inv_p,
                            1,
                        );
                        let mut stateful = [p];
                        indexed_update(
                            &(0..1),
                            &[gsum],
                            &mut stateful,
                            &mut [v],
                            &mut [],
                            &hyper,
                            inv_p,
                            1,
                        );
                        if stateless[0].to_bits() != stateful[0].to_bits() {
                            let signed_zero = |x: f32| x.to_bits() == (-0.0f32).to_bits();
                            assert!(
                                signed_zero(p) && signed_zero(gsum),
                                "p {p:e} gsum {gsum:e} v {v:e} λ {weight_decay}: \
                                 {:e} against {:e}",
                                stateless[0],
                                stateful[0]
                            );
                            assert_eq!(bits(&stateless), bits(&[0.0]), "{v:e}");
                            assert_eq!(bits(&stateful), bits(&[-0.0]), "{v:e}");
                            exceptions += 1;
                        }
                    }
                }
            }
        }
        assert!(exceptions > 0, "the (−0.0, −0.0) exception is real");
    }

    #[test]
    fn adam_keeps_updating_past_two_to_the_31_steps() {
        // At either step βᵗ is 0 in f64, so the correction is exactly 1.
        // An `i32` exponent would wrap: βᵗ = inf and no update at all at
        // 2^31 + 5, step 1's correction again at 2^32 + 1.
        let hyper = HyperParams {
            kind: OptimKind::adam_default(),
            ..rules()[0]
        };
        let OptimKind::Adam { beta1, beta2, eps } = hyper.kind else {
            unreachable!()
        };
        let (gsums, p0) = ([0.75f32, -2.0, 0.0, 3.5], [1.0f32, -0.5, 0.25, 0.0]);
        for t in [(1u64 << 31) + 5, (1 << 32) + 1] {
            let mut params = p0;
            let (mut m, mut v) = ([0.0f32; 4], [0.0f32; 4]);
            update_owned_shard(&mut params, &gsums, &mut m, &mut v, &hyper, 0.5, t);
            let want: Vec<f32> = p0
                .iter()
                .zip(&gsums)
                .map(|(&p, &gsum)| {
                    let g = gsum * 0.5 + hyper.weight_decay * p;
                    let m = beta1 * 0.0 + (1.0 - beta1) * g;
                    let v = beta2 * 0.0 + (1.0 - beta2) * g * g;
                    p - hyper.lr * (m / 1.0) / ((v / 1.0).sqrt() + eps)
                })
                .collect();
            assert_eq!(bits(&params), bits(&want), "step {t}");
        }
    }

    #[test]
    fn import_then_export_round_trips_the_exchange_format() {
        // One group of ragged items whose global offsets run against group
        // order: the store keeps its range in group coordinates, and only
        // export and import translate through the items.
        let layout = layout_of(&RAGGED, FusionPlan::single_group);
        let total = layout.total_elements();
        assert_eq!(layout.item(0).global_offset, total - RAGGED[0]);
        // The state of group coordinate `k`, at its global offset.
        let mut full = vec![0.0f32; total];
        for &i in layout.items_of_group(0) {
            let item = layout.item(i);
            for k in 0..item.len {
                full[item.global_offset + k] = 1.0 + (item.offset_in_group + k) as f32;
            }
        }
        for (mode, world) in [
            (PipelineMode::Dear, 2usize),
            (PipelineMode::Dear, 3),
            (PipelineMode::Dear, 5),
            (PipelineMode::Wfbp, 3),
        ] {
            let mut summed = vec![0.0f32; total];
            for rank in 0..world {
                let case = format!("{mode:?} rank {rank}/{world}");
                let mut store = OptimStore::new(&layout, rank, world, mode);
                let negated: Vec<f32> = full.iter().map(|x| -x).collect();
                store.import(&layout, &full, &negated);
                let kept = store.groups[0].0.clone();
                let in_group: Vec<f32> = kept.map(|k| 1.0 + k as f32).collect();
                assert_eq!(store.velocity, Some(in_group), "{case}: group coordinates");
                let (velocity, second) = store.export(&layout);
                for (k, (&v, &m)) in velocity.iter().zip(&second).enumerate() {
                    assert!(v == full[k] || v == 0.0, "{case}: element {k}");
                    assert_eq!(m, -v, "{case}: element {k}");
                    summed[k] += v;
                }
                // What a rank exports, it imports back unchanged; no state
                // is exported as none.
                let mut again = OptimStore::new(&layout, rank, world, mode);
                again.import(&layout, &velocity, &second);
                assert_eq!(again.velocity, store.velocity, "{case}: round trip");
                again.import(&layout, &[], &second);
                assert_eq!(again.velocity, None, "{case}: no velocity");
                assert_eq!(again.export(&layout).0, Vec::<f32>::new(), "{case}");
                if mode == PipelineMode::Wfbp {
                    assert_eq!(velocity, full, "{case}: WFBP keeps everything");
                }
            }
            // Every value is ≥ 1: an element kept twice would show doubled.
            if mode == PipelineMode::Dear {
                assert_eq!(
                    summed, full,
                    "world {world}: the shards partition the model"
                );
            }
        }
    }

    #[test]
    fn an_update_after_a_resize_without_a_rebalance_panics() {
        // Rank 0 of 2 survives alone. Its ring now owns the whole group,
        // its optimizer state still only the old world's chunk: the update
        // must refuse to run on state it does not have, never index it.
        let mut eps = LocalFabric::create(2);
        drop(eps.pop());
        let ep = eps.pop().unwrap();
        let (job_tx, job_rx) = unbounded();
        let (res_tx, res_rx) = unbounded();
        let layout = layout_of(&[6], FusionPlan::singletons);
        job_tx.send(CommJob::Reconfigure { layout }).unwrap();
        let comm = std::thread::spawn(move || {
            run_comm_thread(
                ep,
                HyperParams {
                    lr: 0.1,
                    momentum: 0.9,
                    weight_decay: 0.0,
                    kind: OptimKind::Sgd,
                },
                ParallelismStrategy::Ddp,
                PipelineMode::Dear,
                &crate::trace::unique_scope(0),
                &job_rx,
                &res_tx,
            );
        });
        job_tx
            .send(CommJob::ResizeWorld {
                survivors: Some(vec![0]),
            })
            .unwrap();
        match res_rx.recv().unwrap() {
            CommResult::Resized(Ok(change)) => assert_eq!(change.new_world, 1),
            other => panic!("expected the resize, got {other:?}"),
        }
        job_tx
            .send(CommJob::Reduce {
                group: 0,
                grads: vec![1.0; 6],
                params: vec![0.0; 6],
            })
            .unwrap();
        drop(job_tx);
        let panic = comm.join().expect_err("the update must panic");
        let message = panic.downcast_ref::<String>().expect("a formatted panic");
        assert!(message.contains("followed by a rebalance"), "{message}");
    }

    #[test]
    fn mid_step_resize_is_refused_not_honoured() {
        // A resize (or any other boundary-only request) posted while a
        // reduce-scattered group is stashed must fail that request with a
        // typed error — the old behaviour was an assert that took the whole
        // comm thread (and the process) down. The stash survives, so the
        // step can still be flushed and the resize retried at the boundary.
        let ep = LocalFabric::create(1).remove(0);
        let (job_tx, job_rx) = unbounded();
        let (res_tx, res_rx) = unbounded();
        let layout = layout_of(&[4], FusionPlan::singletons);
        let hyper = HyperParams {
            lr: 0.1,
            momentum: 0.0,
            weight_decay: 0.0,
            kind: OptimKind::Sgd,
        };
        let scope = crate::trace::unique_scope(0);
        job_tx.send(CommJob::Reconfigure { layout }).unwrap();
        let comm = std::thread::spawn(move || {
            run_comm_thread(
                ep,
                hyper,
                ParallelismStrategy::Ddp,
                PipelineMode::Dear,
                &scope,
                &job_rx,
                &res_tx,
            );
        });
        job_tx
            .send(CommJob::Reduce {
                group: 0,
                grads: vec![1.0; 4],
                params: vec![0.0; 4],
            })
            .unwrap();
        job_tx
            .send(CommJob::ResizeWorld { survivors: None })
            .unwrap();
        match res_rx.recv().unwrap() {
            CommResult::Resized(Err(CollectiveError::Reconfigure { reason })) => {
                assert!(reason.contains("iteration boundary"), "{reason}");
            }
            other => panic!("expected a refused resize, got {other:?}"),
        }
        // A boundary-only control job mid-step gets the same treatment.
        job_tx
            .send(CommJob::SetHyper(HyperParams {
                lr: 0.2,
                momentum: 0.0,
                weight_decay: 0.0,
                kind: OptimKind::Sgd,
            }))
            .unwrap();
        match res_rx.recv().unwrap() {
            CommResult::Error(CollectiveError::Reconfigure { reason }) => {
                assert!(reason.contains("iteration boundary"), "{reason}");
            }
            other => panic!("expected a refused hyper change, got {other:?}"),
        }
        // The stash was kept: the step still flushes normally.
        job_tx.send(CommJob::Flush).unwrap();
        match res_rx.recv().unwrap() {
            CommResult::Params { group: 0, .. } => {}
            other => panic!("expected the flushed group, got {other:?}"),
        }
        drop(job_tx);
        comm.join().unwrap();
    }
}
