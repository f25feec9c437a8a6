//! The per-worker communication engine — the "communication package" box
//! of the paper's Fig. 4.
//!
//! Each worker (rank) owns one [`CommEngine`] holding that rank's fabric
//! endpoint, and its training thread drives it: jobs are posted from the
//! backprop hooks, and every layer hook moves the collectives in flight as
//! far as the arrived messages take them. That is what lets reduce-scatters
//! overlap backprop (BackPipe) and all-gathers overlap the next
//! feed-forward (FeedPipe) in *real wall-clock time* without a second
//! thread competing with the training thread for a core.
//!
//! The engine is also the only optimizer: in DeAR mode it updates the
//! parameter shard this rank owns as the reduce-scatter lands (the paper's
//! implementation updates sharded parameters and all-gathers the *updated
//! parameters*, the design §VII-B relates to ZeRO/FSDP), in WFBP mode every
//! group, whole, after the step's last all-reduce.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;

use dear_collectives::lease::settle_backoff;
use dear_collectives::{
    chunk_range, compact_owned_shard, naive_all_reduce, ring_all_reduce_on_wire, ring_begin,
    ring_finish, ring_owned_chunk, ring_receive, tree_broadcast, CollectiveError, DType, Epilogue,
    ReduceOp, RingKind, RingOp, Transport, WorldChange, MIN_LINK_FRAMES,
};
use dear_minidnn::ParamStore;

use crate::dist_optim::PipelineMode;
use crate::layout::GroupLayout;
use crate::strategy::ParallelismStrategy;
use crate::trace::{self, TaskKind};

/// The engine's resident optimizer storage, in group coordinates:
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
/// parked in the engine between OP1 and OP2 (DESIGN.md §4.17), or under WFBP
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
    /// it into the chunk — the store re-sizes an empty buffer).
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
    /// The comm stream both spans land on.
    stream: &'a Arc<str>,
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
        self.upd = Some(trace::span_on(self.stream, TaskKind::Other, || {
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

/// Optimizer hyper-parameters of the engine's update.
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

/// The engine's sharded optimizer state, exportable for
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

/// Ring work queued behind the ops in flight, in program order.
enum Job {
    /// A group's gradients are ready: the job *moves* the group's two
    /// circulating buffers into the engine, and [`Home::put`] moves them
    /// back (DESIGN.md §4.17). DeAR (OP1): reduce-scatter `grads`, update
    /// the owned shard of `params` in place, stash both for the flush's
    /// all-gather. WFBP: all-reduce `grads` in place to their sums and
    /// stash both for the flush's update.
    Reduce {
        group: usize,
        grads: Vec<f32>,
        params: Vec<f32>,
    },
    /// The end of a step's communication, taken once nothing is in flight.
    /// DeAR: OP2, the all-gather of every stashed group, newest first
    /// (forward order). WFBP: the update of every group, whole, from its
    /// all-reduced sums.
    Flush,
}

/// Where the engine hands a group's buffers back: the training side's
/// parameter store, whose segment the group is.
pub(crate) trait Home {
    /// Takes back `group`'s parameters, updated and complete, and its
    /// gradient buffer, spent — the next iteration's staging area; empty
    /// under ZeRO-2, whose OP1 compacts it into the stashed chunk.
    fn put(&mut self, group: usize, params: Vec<f32>, grads: Vec<f32>);
}

impl Home for ParamStore {
    fn put(&mut self, group: usize, params: Vec<f32>, grads: Vec<f32>) {
        self.put_params(group, params);
        self.put_grads(group, grads);
    }
}

/// A home that drops what it is handed: where an engine dropped with work
/// in flight sends its groups.
struct Discard;

impl Home for Discard {
    fn put(&mut self, _: usize, _: Vec<f32>, _: Vec<f32>) {}
}

/// Ring ops the engine may have begun beyond the oldest one in flight
/// (DESIGN.md §4.18). A constant, not a knob: every op ahead holds a group
/// buffer on the wire (and, under ZeRO-2, a rebuilt parameter buffer), and
/// on a lending fabric an op leaves the window only once its peer has read
/// what it lent, which bounds the messages a link holds.
const SEND_AHEAD_WINDOW: usize = 2;

// The oldest op and everything begun ahead of it each have one unreceived
// message per link at worst; a transport must take them all.
const _: () = assert!(SEND_AHEAD_WINDOW < MIN_LINK_FRAMES);

/// The control path (broadcast, barrier, step agreement, optimizer-state
/// redistribution) must stay bit-exact whatever the run's wire dtype:
/// `broadcast` ships an f64 as two f32 bit-words (any rounding corrupts the
/// value), and `reconfigure` redistributes optimizer state that checkpoints
/// expect unrounded. Only the data path (the ring jobs) rides the layout's
/// wire.
const CONTROL: DType = DType::F32;

/// Elements of the largest chunk any group of `layout` splits into.
fn largest_chunk(layout: &GroupLayout, world: usize) -> usize {
    (0..layout.num_groups())
        .map(|g| chunk_range(layout.group_elements(g), world, 0).len())
        .max()
        .unwrap_or(0)
}

/// A ring collective the engine has begun and not yet finished, with the
/// group buffers that travel with it.
///
/// `data` keeps the contract of [`ring_begin`]: from `begin` to `finish` it
/// is handed only to the ring calls, which address it through
/// `Vec::as_mut_ptr` while the peer reads its lent chunks in place. `ring`
/// is declared before `data`, so when [`CommEngine::fail`] clears the ops
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
    /// The op's span, open from when it became the op that receives — the
    /// oldest one that has not landed — to its landing. An op begun ahead
    /// gets its span when its turn comes: its first send happened inside
    /// its predecessor's span, and the comm stream stays serial.
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

/// One rank's communication engine — the "communication package" of the
/// paper's Fig. 4 — owned and driven by the rank's training thread.
///
/// **Progress by polling.** The engine has no thread of its own: every
/// call moves the ring ops in flight as far as the messages that have
/// arrived and the loans the peer has released take them, and returns.
/// [`CommEngine::post`] queues a group's ring job and makes progress;
/// [`CommEngine::progress`], called at every layer hook of the training
/// step, makes progress; [`CommEngine::progress_until`] makes progress
/// until a condition holds, blocking on the link when there is nothing
/// else to do — the feed-forward's wait for a group's parameters, the
/// flush of a WFBP step and `synchronize`. So the rank that produces the
/// data also moves it, and two ranks on two cores do not time-share four
/// threads. Control calls (broadcast, barrier, resize, ...) are direct
/// calls at an iteration boundary.
///
/// **Cross-group send-ahead** (DESIGN.md §4.18). The ring jobs — the
/// reduce-scatters of DeAR's backprop (WFBP: all-reduces) and the
/// all-gathers of its flush — run split-phase ([`ring_begin`] →
/// [`ring_receive`] → [`ring_finish`]). A job is begun — its
/// first send posted — as soon as every op before it has posted its last
/// send, with at most [`SEND_AHEAD_WINDOW`] ops ahead of the oldest. That
/// one rule keeps every op's messages contiguous on the link, in the order
/// of the one-group-at-a-time schedule, so the peers need no tags and
/// results are bit-identical. Ops receive in that order too, the oldest
/// that has not landed first, and finish strictly in order: an op has
/// **landed** when its last receive is consumed — DeAR's `OP1.UPD` runs
/// fused into it ([`Op1Tail`]) — and it **finishes** (is stashed, or its
/// group goes home) once every chunk it lent is released, which a poll
/// finds ([`RingOp::poll_settled`]): the peer reads a lease when it makes
/// progress itself. One `OP1.RS` / `OP1.UPD` / `OP2.AG` / `AR` span per
/// group, serial on the rank's `…/comm` stream.
///
/// **Failures.** A collective failure abandons the step: the ops in flight,
/// the queued jobs and the stash are dropped with their buffers, the error
/// is returned once, and until a resize succeeds the engine drops the ring
/// jobs of the abandoned step unrun.
///
/// The engine starts on the layout of no tensors; the training side's
/// first call is the [`CommEngine::reconfigure`] that installs its layout,
/// and with it the data path's wire dtype.
pub(crate) struct CommEngine<T: Transport> {
    transport: T,
    /// The rank's `…/comm` trace stream.
    stream: Arc<str>,
    /// The installed fusion layout; its wire dtype is the data path's.
    layout: GroupLayout,
    hyper: HyperParams,
    strategy: ParallelismStrategy,
    mode: PipelineMode,
    world: usize,
    rank: usize,
    /// Optimizer state of the owned shard; re-packed on `reconfigure`.
    store: OptimStore,
    adam_step: u64,
    /// The iteration's first reduce-scatter has landed and advanced the
    /// Adam step (bias correction is per iteration, shared by shards).
    stepped: bool,
    /// Groups reduced this iteration, in arrival (backward) order.
    stash: Vec<(usize, StashEntry)>,
    /// Ring jobs not yet begun, in order.
    backlog: VecDeque<Job>,
    /// Ring ops begun and not yet finished, in order.
    inflight: VecDeque<InFlight>,
    /// A DeAR flush is being served: the next ring ops are the stash's
    /// all-gathers, newest entry first.
    flushing: bool,
    /// A collective failed and no resize has succeeded since: the step was
    /// abandoned, and what is left of it is dropped, not run.
    broken: bool,
}

impl<T: Transport> CommEngine<T> {
    /// The engine of the rank `transport` is, on the layout of no tensors;
    /// its spans land on `trace_scope`'s `comm` stream.
    pub(crate) fn new(
        transport: T,
        hyper: HyperParams,
        strategy: ParallelismStrategy,
        mode: PipelineMode,
        trace_scope: &str,
    ) -> Self {
        let (world, rank) = (transport.world_size(), transport.rank());
        let layout = GroupLayout::empty();
        CommEngine {
            store: OptimStore::new(&layout, rank, world, mode),
            transport,
            stream: trace::stream(trace_scope, "comm"),
            layout,
            hyper,
            strategy,
            mode,
            world,
            rank,
            adam_step: 0,
            stepped: false,
            stash: Vec::new(),
            backlog: VecDeque::new(),
            inflight: VecDeque::new(),
            flushing: false,
            broken: false,
        }
    }

    /// This rank.
    pub(crate) fn rank(&self) -> usize {
        self.rank
    }

    /// The world size.
    pub(crate) fn world(&self) -> usize {
        self.world
    }

    /// Whether work is outstanding that will finish without another post:
    /// ring jobs queued or in flight, or a DeAR flush still gathering.
    pub(crate) fn busy(&self) -> bool {
        !self.backlog.is_empty() || !self.inflight.is_empty() || self.flushing
    }

    /// Queues `group`'s ring job — its buffers move in — and makes
    /// progress. Dropped unrun while the engine is broken. An `Err` is a
    /// collective failure: the step is abandoned (see [`CommEngine`]).
    pub(crate) fn post(
        &mut self,
        group: usize,
        grads: Vec<f32>,
        params: Vec<f32>,
        home: &mut impl Home,
    ) -> Result<(), CollectiveError> {
        debug_assert_eq!(grads.len(), self.layout.group_elements(group));
        if !self.broken {
            self.backlog.push_back(Job::Reduce {
                group,
                grads,
                params,
            });
        }
        self.progress(home)
    }

    /// Queues the end of the step's communication and makes progress.
    pub(crate) fn flush(&mut self, home: &mut impl Home) -> Result<(), CollectiveError> {
        if !self.broken {
            self.backlog.push_back(Job::Flush);
        }
        self.progress(home)
    }

    /// Moves the ring ops in flight as far as the messages that have
    /// arrived and the loans already released take them, begins the jobs
    /// the window lets in, and hands finished groups `home`. Never blocks
    /// on the link.
    pub(crate) fn progress(&mut self, home: &mut impl Home) -> Result<(), CollectiveError> {
        self.pump(home).map_err(|e| self.fail(e))
    }

    /// Makes progress until `done(home)` holds or no work is outstanding,
    /// waiting on the link for the next message of the op that receives —
    /// or, with every op landed, for the peer to release what they lent.
    /// Fails as [`CommEngine::post`] does, a receive deadline included.
    pub(crate) fn progress_until<H: Home>(
        &mut self,
        home: &mut H,
        done: impl Fn(&H) -> bool,
    ) -> Result<(), CollectiveError> {
        let mut idle = 0u32;
        loop {
            self.progress(home)?;
            if done(home) || !self.busy() {
                return Ok(());
            }
            if self.inflight.iter().any(|op| !op.ring.landed()) {
                self.receive(true).map_err(|e| self.fail(e))?;
                idle = 0;
            } else {
                settle_backoff(&mut idle);
            }
        }
    }

    /// Makes progress until no work is outstanding (see
    /// [`CommEngine::progress_until`]).
    pub(crate) fn drain(&mut self, home: &mut impl Home) -> Result<(), CollectiveError> {
        self.progress_until(home, |_| false)
    }

    /// Abandons the step after a collective failure: drops every op in
    /// flight, the queued jobs and the iteration's stash with their
    /// buffers (the step is not resumable). Returns `e`, to report once.
    fn fail(&mut self, e: CollectiveError) -> CollectiveError {
        self.inflight.clear();
        self.backlog.clear();
        self.stash.clear();
        self.flushing = false;
        self.stepped = false;
        self.broken = true;
        e
    }

    /// Finishes, begins, then receives, until none of the three moves: an
    /// op that landed — here or in `progress_until`'s waiting receive — is
    /// finished and the send it lets in begun before the next op receives.
    fn pump(&mut self, home: &mut impl Home) -> Result<(), CollectiveError> {
        loop {
            let finished = self.finish(home)?;
            let begun = self.fill(home)?;
            let received = self.receive(false)?;
            if !(begun || received || finished) {
                return Ok(());
            }
        }
    }

    /// Stocks the transport's pool with the wire buffers a full send-ahead
    /// window has in use at once, under the current layout and world: how
    /// far ahead the engine gets depends on when the jobs come, so without
    /// the stock the first step to fill the window — any step, however
    /// late — would allocate them. And tells the transport how many
    /// messages its link from the previous rank can hold unreceived: two
    /// windows of ops' messages, since the peer begins an op only once the
    /// one a window behind has landed on both sides.
    fn open_window(&mut self) {
        let chunk = largest_chunk(&self.layout, self.world);
        let bytes = chunk * self.layout.wire().size_bytes();
        let stock: Vec<_> = (0..=SEND_AHEAD_WINDOW)
            .map(|_| self.transport.take_buffer(bytes))
            .collect();
        for buf in stock {
            self.transport.recycle_buffer(buf);
        }
        let rounds = match self.mode {
            PipelineMode::Dear => self.world - 1,
            PipelineMode::Wfbp => 2 * (self.world - 1),
        };
        self.transport
            .reserve_receives(2 * (SEND_AHEAD_WINDOW + 1) * rounds, bytes);
    }

    /// Begins ring ops while the ordering rule and the window allow: the
    /// next op's first send may go out once every op before it has posted
    /// its last, and at most [`SEND_AHEAD_WINDOW`] ops run ahead of the
    /// oldest. Whether any was begun.
    fn fill(&mut self, home: &mut impl Home) -> Result<bool, CollectiveError> {
        let mut begun = false;
        while self.inflight.len() <= SEND_AHEAD_WINDOW
            && self.inflight.back().is_none_or(|op| op.ring.all_sent())
        {
            let Some(op) = self.begin_next(home)? else {
                break;
            };
            self.inflight.push_back(op);
            begun = true;
        }
        Ok(begun)
    }

    /// Begins the next ring op in program order, if a ring op is what comes
    /// next: the newest stashed group's all-gather while flushing (forward
    /// order = reverse of backward arrival order, so the first layers'
    /// parameters arrive first — FeedPipe), else the job at the front of
    /// the backlog — a reduce-scatter under DeAR, an all-reduce under WFBP.
    /// A flush is taken once nothing is in flight: DeAR's starts the
    /// all-gathers, WFBP's updates the stash and sends it home.
    fn begin_next(&mut self, home: &mut impl Home) -> Result<Option<InFlight>, CollectiveError> {
        let (group, kind, mut data, other) = loop {
            if self.flushing {
                if let Some((group, entry)) = self.stash.pop() {
                    // ZeRO-2 rematerializes the full buffer only now that its
                    // send is due: zeros everywhere except the owned chunk,
                    // which is all the ring all-gather reads from this rank.
                    let (params, grads) = entry.into_buffers();
                    let owned_chunk = ring_owned_chunk(self.rank, self.world);
                    break (group, RingKind::AllGather { owned_chunk }, params, grads);
                }
                self.flushing = false;
            }
            match self.backlog.front() {
                None => return Ok(None),
                Some(Job::Flush) if !self.inflight.is_empty() => return Ok(None),
                Some(Job::Flush) => {
                    self.backlog.pop_front();
                    match self.mode {
                        PipelineMode::Dear => {
                            self.flushing = true;
                            self.stepped = false;
                        }
                        PipelineMode::Wfbp => self.update_stash(home),
                    }
                }
                Some(Job::Reduce { .. }) => {
                    let Some(Job::Reduce {
                        group,
                        grads,
                        params,
                    }) = self.backlog.pop_front()
                    else {
                        unreachable!("the front is a reduce");
                    };
                    let kind = match self.mode {
                        PipelineMode::Dear => RingKind::ReduceScatter(ReduceOp::Sum),
                        PipelineMode::Wfbp => RingKind::AllReduce(ReduceOp::Sum),
                    };
                    break (group, kind, grads, params);
                }
            }
        };
        debug_assert_eq!(data.len(), self.layout.group_elements(group));
        let receives_next = self.inflight.iter().all(|op| op.ring.landed());
        let span = receives_next.then(|| {
            trace::span_on(&self.stream, TaskKind::Communication, || {
                op_label(kind, group)
            })
        });
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

    /// Polls the op that receives — the oldest that has not landed — as
    /// far as what has arrived takes it; with `wait`, its next receive
    /// blocks. Whether it landed or posted its last send, either of which
    /// lets the window move: the caller finishes and begins ops before the
    /// next op receives, so a landing is followed by the sends it allows.
    fn receive(&mut self, wait: bool) -> Result<bool, CollectiveError> {
        let Some(op) = self.inflight.iter_mut().find(|op| !op.ring.landed()) else {
            return Ok(false);
        };
        let (kind, group) = (op.ring.kind(), op.group);
        let stream = &self.stream;
        if op.span.is_none() {
            op.span = Some(trace::span_on(stream, TaskKind::Communication, || {
                op_label(kind, group)
            }));
        }
        let was_sent = op.ring.all_sent();
        let landed = if let RingKind::ReduceScatter(_) = kind {
            // DeAR's OP1 lands with its update fused into the last
            // receive. Every element is owned by exactly one rank, so
            // the union of the shards' updates is the full S-SGD
            // update of Eq. 2.
            let rs = op.span.take();
            let adam_step = self.adam_step + u64::from(!self.stepped);
            let owned = chunk_range(
                op.data.len(),
                self.world,
                ring_owned_chunk(self.rank, self.world),
            );
            let update = GroupUpdate::new(
                &mut self.store,
                self.hyper,
                group,
                &owned,
                &mut op.other,
                self.world,
                adam_step,
            );
            let mut tail = Op1Tail {
                group,
                update,
                stream,
                rs,
                upd: None,
            };
            // SAFETY: `op.data` is the op's buffer, kept by `InFlight`
            // (see there); the epilogue writes `op.other`, another one.
            let landed = unsafe {
                ring_receive(&self.transport, &mut op.ring, &mut op.data, &mut tail, wait)?
            };
            op.span = tail.rs.take();
            if let Some(upd) = tail.upd {
                upd.end();
            }
            if landed {
                self.adam_step = adam_step;
                self.stepped = true;
            }
            landed
        } else {
            // SAFETY: as above.
            let landed = unsafe {
                ring_receive(&self.transport, &mut op.ring, &mut op.data, &mut (), wait)?
            };
            if landed {
                drop(op.span.take());
            }
            landed
        };
        Ok(landed || (!was_sent && op.ring.all_sent()))
    }

    /// Finishes the ops at the front that have landed and whose lent chunks
    /// are all released: DeAR's reduce-scatter is stashed for OP2 (ZeRO-2
    /// keeps only the owned chunk), WFBP's all-reduce is stashed for the
    /// flush's update, and an all-gathered group goes home. Whether any
    /// finished.
    fn finish(&mut self, home: &mut impl Home) -> Result<bool, CollectiveError> {
        let mut finished = false;
        while let Some(front) = self.inflight.front_mut() {
            if !front.ring.landed() || !front.ring.poll_settled()? {
                break;
            }
            let InFlight {
                group,
                ring,
                mut data,
                other,
                ..
            } = self.inflight.pop_front().expect("the front is in flight");
            let kind = ring.kind();
            // SAFETY: `data` is the op's buffer, untouched since it left
            // `InFlight`; the op has landed and lent nothing still out, so
            // this neither receives nor waits.
            let owned = unsafe { ring_finish(&self.transport, ring, &mut data)? };
            let entry = match kind {
                RingKind::AllGather { .. } => {
                    home.put(group, data, other);
                    finished = true;
                    continue;
                }
                RingKind::ReduceScatter(_) if self.strategy.shards_grad_stash() => {
                    // ZeRO-2: only the owned chunk is live between OP1 and
                    // OP2 — the all-gather redistributes it and overwrites
                    // the rest. The spent gradients, compacted to that
                    // chunk, become its storage; both full-length buffers
                    // are released here.
                    let params = other;
                    let mut chunk = compact_owned_shard(data, &owned);
                    chunk.copy_from_slice(&params[owned.clone()]);
                    StashEntry::Shard {
                        owned,
                        chunk,
                        elements: self.layout.group_elements(group),
                    }
                }
                // DeAR's updated parameters wait for OP2, WFBP's sums for
                // the flush's update.
                RingKind::ReduceScatter(_) | RingKind::AllReduce(_) => StashEntry::Full {
                    params: other,
                    grads: data,
                },
            };
            self.stash.push((group, entry));
            finished = true;
        }
        Ok(finished)
    }

    /// WFBP's flush, one per step: every all-reduced group is updated
    /// whole — the store's range of every group is all of it — under its
    /// own `OP1.UPD` span, and goes home.
    fn update_stash(&mut self, home: &mut impl Home) {
        self.adam_step += 1;
        while let Some((group, entry)) = self.stash.pop() {
            let (mut params, grads) = entry.into_buffers();
            let upd = trace::span_on(&self.stream, TaskKind::Other, || {
                format!("OP1.UPD[g{group}]")
            });
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
            home.put(group, params, grads);
        }
    }

    /// `Err` unless no reduced group is stashed, i.e. the engine is at an
    /// iteration boundary. Fails the request for `what` — and only the
    /// request: the stash is kept, and the step can still be flushed.
    fn at_boundary(&self, what: &str) -> Result<(), CollectiveError> {
        if self.stash.is_empty() && !self.busy() {
            return Ok(());
        }
        Err(CollectiveError::Reconfigure {
            reason: format!(
                "{what} must happen at an iteration boundary; \
                 a reduced group is still stashed"
            ),
        })
    }

    /// A control collective under a span of its own on the comm stream; a
    /// failure breaks the engine like a ring op's.
    fn control<R>(
        &mut self,
        label: &str,
        run: impl FnOnce(&T) -> Result<R, CollectiveError>,
    ) -> Result<R, CollectiveError> {
        debug_assert!(!self.busy(), "{label} with ring work outstanding");
        let span = trace::span_on(&self.stream, TaskKind::Communication, || label.to_string());
        let out = run(&self.transport).map_err(|e| self.fail(e));
        span.end();
        out
    }

    /// Broadcasts `value` from `root` (BO buffer-size sync), bit-exact. A
    /// failure breaks the engine, as every control collective's does.
    pub(crate) fn broadcast(&mut self, root: usize, value: f64) -> Result<f64, CollectiveError> {
        // The fabric carries f32, but BO broadcasts byte counts that exceed
        // 2^24 (e.g. the paper's 25 MB buffer, 26_214_401 bytes with
        // headers) — an `as f32` cast rounds those, and a root-vs-peer
        // mismatch splits the cluster into different fusion layouts. Ship
        // the exact f64 as two f32 bit-words instead; tree_broadcast only
        // copies, so bits survive.
        let bits = value.to_bits();
        let mut buf = [
            f32::from_bits((bits >> 32) as u32),
            f32::from_bits(bits as u32),
        ];
        self.control("BCAST", |t| tree_broadcast(t, &mut buf, root, CONTROL))?;
        let bits = (u64::from(buf[0].to_bits()) << 32) | u64::from(buf[1].to_bits());
        Ok(f64::from_bits(bits))
    }

    /// Synchronizes all ranks.
    pub(crate) fn barrier(&mut self) -> Result<(), CollectiveError> {
        let mut token = [0.0f32];
        self.control("BARRIER", |t| {
            naive_all_reduce(t, &mut token, ReduceOp::Sum, CONTROL)
        })
    }

    /// Min-allreduces a step counter so every rank resumes from the same
    /// step after a resize. The value rides the f32 control path in two
    /// 24-bit halves: exact below 2^48.
    pub(crate) fn agree_step(&mut self, step: u64) -> Result<u64, CollectiveError> {
        self.control("AGREE-STEP", |t| {
            // f32 is exact only below 2^24: the min of the high 24 bits,
            // then of the low 24 bits of the ranks that hold it (every
            // other rank offers 2^24, above any low half).
            let mut high = [(step >> 24) as f32];
            naive_all_reduce(t, &mut high, ReduceOp::Min, CONTROL)?;
            let high = high[0] as u64;
            let low = if step >> 24 == high {
                step & 0xFF_FFFF
            } else {
                1 << 24
            };
            let mut low = [low as f32];
            naive_all_reduce(t, &mut low, ReduceOp::Min, CONTROL)?;
            Ok((high << 24) | low[0] as u64)
        })
    }

    /// Installs a fusion layout — the first one, or a BO re-bucketing — or
    /// re-partitions the optimizer state after a resize under the current
    /// one. The state is exported under the old layout and imported under
    /// the new one, so it survives. The layout also sets the data path's
    /// wire dtype. Refused off an iteration boundary; a failure of the
    /// rebalance leaves the state half-reduced — recovery must go through
    /// a snapshot import, never resume from here.
    pub(crate) fn reconfigure(&mut self, layout: GroupLayout) -> Result<(), CollectiveError> {
        self.at_boundary("re-bucketing")?;
        // A state vector exists on every rank or on none (see
        // `OptimStore`), so every rank enters the same all-reduces.
        let (mut velocity, mut second_moment) = self.store.export(&self.layout);
        // WFBP keeps the whole state on every rank: the new layout only
        // re-orders it. Nor is there state to move when the first layout is
        // installed — a test every rank answers alike, unlike one on its own
        // shard, which may be empty.
        if self.mode == PipelineMode::Dear && self.layout.total_elements() > 0 {
            // Shard ownership changes with the group boundaries (or the
            // world size, after an in-place resize), so the optimizer state
            // must move with it: each element's state lives only on its
            // owner (zero elsewhere), so a sum all-reduce reconstructs the
            // full state, after which each rank keeps only the shards it
            // owns under the new layout.
            self.control("REBALANCE", |t| {
                for full in [&mut velocity, &mut second_moment] {
                    if !full.is_empty() {
                        ring_all_reduce_on_wire(t, full, ReduceOp::Sum, CONTROL)?;
                    }
                }
                Ok(())
            })?;
        }
        self.store = OptimStore::new(&layout, self.rank, self.world, self.mode);
        self.store.import(&layout, &velocity, &second_moment);
        self.layout = layout;
        self.open_window();
        Ok(())
    }

    /// Replaces the optimizer hyper-parameters for subsequent updates.
    /// Refused off an iteration boundary.
    pub(crate) fn set_hyper(&mut self, hyper: HyperParams) -> Result<(), CollectiveError> {
        self.at_boundary("a hyper-parameter change")?;
        self.hyper = hyper;
        Ok(())
    }

    /// The sharded optimizer state in the full-length exchange format
    /// (zeros outside the owned shard) whatever the strategy, so the
    /// checkpoint layout is strategy-independent and a run can resume under
    /// a different strategy than it saved with.
    /// Refused off an iteration boundary.
    pub(crate) fn export(&self) -> Result<OptimState, CollectiveError> {
        self.at_boundary("an optimizer-state export")?;
        let (velocity, second_moment) = self.store.export(&self.layout);
        Ok(OptimState {
            velocity,
            second_moment,
            adam_step: self.adam_step,
        })
    }

    /// Replaces the sharded optimizer state (checkpoint resume); the
    /// lengths are the caller's to check.
    /// Refused off an iteration boundary.
    pub(crate) fn import(&mut self, state: &OptimState) -> Result<(), CollectiveError> {
        self.at_boundary("an optimizer-state import")?;
        self.store
            .import(&self.layout, &state.velocity, &state.second_moment);
        self.adam_step = state.adam_step;
        Ok(())
    }

    /// In-place elastic resize: re-runs rendezvous through
    /// [`Transport::reconfigure`] and adopts the surviving world's rank and
    /// size, clearing a broken state. Refused off an iteration boundary —
    /// the stash is kept, and the step can still be flushed and the resize
    /// retried.
    pub(crate) fn resize(
        &mut self,
        survivors: Option<&[usize]>,
    ) -> Result<WorldChange, CollectiveError> {
        self.at_boundary("in-place resize")?;
        let span = trace::span_on(&self.stream, TaskKind::Communication, || {
            "RESIZE".to_string()
        });
        let outcome = self.transport.reconfigure(survivors);
        span.end();
        let change = outcome?;
        self.world = change.new_world;
        self.rank = change.new_rank;
        self.open_window();
        self.broken = false;
        Ok(change)
    }

    /// Resident optimizer-state bytes on this rank: velocity plus second
    /// moment, dense over the owned shard, for the vectors that exist — 0
    /// under SGD without momentum, which keeps none.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.store.resident_bytes()
    }
}

/// A peer that drops its engine with work outstanding still owes its part
/// of the collectives it began: the engine finishes them, dropping the
/// groups, before its transport goes — unless the thread is unwinding.
impl<T: Transport> Drop for CommEngine<T> {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let _ = self.drain(&mut Discard);
        }
    }
}

#[cfg(test)]
mod epilogue_tests;
#[cfg(test)]
mod pump_tests;
#[cfg(test)]
mod send_ahead_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use dear_collectives::{LocalEndpoint, LocalFabric};
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

    /// Rank `ep.rank()`'s engine under `hyper`, DeAR and DDP, on the
    /// layout of one group of `elements`.
    fn engine_of(
        ep: LocalEndpoint,
        hyper: HyperParams,
        elements: usize,
    ) -> CommEngine<LocalEndpoint> {
        let scope = crate::trace::unique_scope(ep.rank());
        let mut engine = CommEngine::new(
            ep,
            hyper,
            ParallelismStrategy::Ddp,
            PipelineMode::Dear,
            &scope,
        );
        engine
            .reconfigure(layout_of(&[elements], FusionPlan::singletons))
            .unwrap();
        engine
    }

    #[test]
    fn an_update_after_a_resize_without_a_rebalance_panics() {
        // Rank 0 of 2 survives alone. Its ring now owns the whole group,
        // its optimizer state still only the old world's chunk: the update
        // must refuse to run on state it does not have, never index it.
        let mut eps = LocalFabric::create(2);
        drop(eps.pop());
        let hyper = HyperParams {
            lr: 0.1,
            momentum: 0.9,
            weight_decay: 0.0,
            kind: OptimKind::Sgd,
        };
        let mut engine = engine_of(eps.pop().unwrap(), hyper, 6);
        let change = engine.resize(Some(&[0])).unwrap();
        assert_eq!(change.new_world, 1);
        let mut home = vec![Vec::new()];
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.post(0, vec![1.0; 6], vec![0.0; 6], &mut home)
        }))
        .expect_err("the update must panic");
        let message = panic.downcast_ref::<String>().expect("a formatted panic");
        assert!(message.contains("followed by a rebalance"), "{message}");
        // The op is still in flight, and dropping the engine would run it
        // — and panic — again.
        std::mem::forget(engine);
    }

    #[test]
    fn mid_step_resize_is_refused_not_honoured() {
        // A resize (or any other boundary-only request) made while a
        // reduce-scattered group is stashed must fail that request with a
        // typed error — the old behaviour was an assert that took the whole
        // worker down. The stash survives, so the step can still be flushed
        // and the resize retried at the boundary.
        let hyper = HyperParams {
            lr: 0.1,
            momentum: 0.0,
            weight_decay: 0.0,
            kind: OptimKind::Sgd,
        };
        let mut engine = engine_of(LocalFabric::create(1).remove(0), hyper, 4);
        let mut home = vec![Vec::new()];
        engine
            .post(0, vec![1.0; 4], vec![0.0; 4], &mut home)
            .unwrap();
        match engine.resize(None) {
            Err(CollectiveError::Reconfigure { reason }) => {
                assert!(reason.contains("iteration boundary"), "{reason}");
            }
            other => panic!("expected a refused resize, got {other:?}"),
        }
        // A boundary-only control call mid-step gets the same treatment.
        match engine.set_hyper(HyperParams { lr: 0.2, ..hyper }) {
            Err(CollectiveError::Reconfigure { reason }) => {
                assert!(reason.contains("iteration boundary"), "{reason}");
            }
            other => panic!("expected a refused hyper change, got {other:?}"),
        }
        // The stash was kept: the step still flushes normally.
        engine.flush(&mut home).unwrap();
        engine.drain(&mut home).unwrap();
        assert_eq!(home[0], [-0.1; 4], "the flushed group is home, updated");
    }
}
