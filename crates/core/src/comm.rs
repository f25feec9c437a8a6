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
    chunk_range, compact_owned_shard, naive_all_reduce_seg, ring_advance, ring_all_reduce_seg,
    ring_begin, ring_finish, ring_owned_chunk, tree_broadcast_seg, CollectiveError, DType,
    ReduceOp, RingKind, RingOp, SegmentConfig, Transport, WorldChange, MIN_LINK_FRAMES,
};

use crate::dist_optim::PipelineMode;
use crate::layout::GroupLayout;
use crate::strategy::ParallelismStrategy;
use crate::trace::{self, TaskKind};

/// Per-group metadata the comm thread needs: `(offset_in_group, len,
/// global_offset)` per item, in group order.
#[derive(Debug, Clone)]
pub struct CommGroupMeta {
    /// Item extents within the group's flat buffer.
    pub items: Vec<(usize, usize, usize)>,
    /// Total flat elements.
    pub elements: usize,
}

/// The comm thread's view of the fusion layout.
#[derive(Debug, Clone)]
pub struct CommLayout {
    /// One entry per group.
    pub groups: Vec<CommGroupMeta>,
}

impl From<&GroupLayout> for CommLayout {
    fn from(layout: &GroupLayout) -> Self {
        let groups = (0..layout.num_groups())
            .map(|g| CommGroupMeta {
                items: layout
                    .items_of_group(g)
                    .iter()
                    .map(|&i| {
                        let it = layout.item(i);
                        (it.offset_in_group, it.len, it.global_offset)
                    })
                    .collect(),
                elements: layout.group_elements(g),
            })
            .collect();
        CommLayout { groups }
    }
}

impl CommLayout {
    /// The global flat ranges owned by `rank` under this layout in a world
    /// of `world` ranks: per group, the ring reduce-scatter's owned chunk
    /// intersected with each item's extent, mapped through the item's
    /// global offset. Sorted by start, adjacent ranges merged.
    ///
    /// This is THE shard partition of the system — the ZeRO strategies
    /// store optimizer state densely over exactly these ranges, and (by
    /// construction from the same `chunk_range` arithmetic) it equals the
    /// nonzero pattern of the sharded optimizer-state checkpoints of
    /// `CommJob::ExportOptimState`.
    #[must_use]
    pub fn owned_global_ranges(&self, rank: usize, world: usize) -> Vec<Range<usize>> {
        let mut ranges: Vec<Range<usize>> = Vec::new();
        for meta in &self.groups {
            let owned = chunk_range(meta.elements, world, ring_owned_chunk(rank, world));
            for &(off, len, goff) in &meta.items {
                let lo = owned.start.max(off);
                let hi = owned.end.min(off + len);
                if lo < hi {
                    ranges.push(goff + (lo - off)..goff + (hi - off));
                }
            }
        }
        ranges.sort_by_key(|r| r.start);
        let mut merged: Vec<Range<usize>> = Vec::new();
        for r in ranges {
            match merged.last_mut() {
                // Items are globally disjoint, so only exact adjacency
                // occurs; `max` keeps this robust to degenerate layouts.
                Some(last) if last.end >= r.start => last.end = last.end.max(r.end),
                _ => merged.push(r),
            }
        }
        merged
    }
}

/// Dense index map of one rank's ZeRO shard: the ranges of
/// [`CommLayout::owned_global_ranges`] packed back-to-back. Sharded
/// optimizer vectors hold [`ShardMap::dense_len`] elements;
/// [`ShardMap::dense_of`] translates a global flat offset into them.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardMap {
    /// `(global_start, global_end, dense_start)`, sorted by start.
    ranges: Vec<(usize, usize, usize)>,
    dense_len: usize,
}

impl ShardMap {
    /// Builds the map for `rank` of `world` under `layout`.
    #[must_use]
    pub fn build(layout: &CommLayout, rank: usize, world: usize) -> ShardMap {
        let mut ranges = Vec::new();
        let mut cursor = 0usize;
        for r in layout.owned_global_ranges(rank, world) {
            ranges.push((r.start, r.end, cursor));
            cursor += r.end - r.start;
        }
        ShardMap {
            ranges,
            dense_len: cursor,
        }
    }

    /// Packed element count of this rank's shard.
    #[must_use]
    pub fn dense_len(&self) -> usize {
        self.dense_len
    }

    /// The owned global ranges, sorted and merged.
    #[must_use]
    pub fn owned_ranges(&self) -> Vec<Range<usize>> {
        self.ranges.iter().map(|&(s, e, _)| s..e).collect()
    }

    /// Dense index of global flat offset `gidx`.
    ///
    /// # Panics
    ///
    /// Panics if `gidx` is not owned by this shard.
    #[must_use]
    pub fn dense_of(&self, gidx: usize) -> usize {
        let i = self.ranges.partition_point(|&(s, _, _)| s <= gidx);
        assert!(i > 0, "global offset {gidx} below every owned range");
        let (s, e, d) = self.ranges[i - 1];
        assert!(
            gidx < e,
            "global offset {gidx} not owned (nearest {s}..{e})"
        );
        d + (gidx - s)
    }

    /// Expands a packed shard vector to full length `total`, zeros outside
    /// the owned ranges — the exchange/checkpoint format of PR 3.
    #[must_use]
    pub fn expand(&self, dense: &[f32], total: usize) -> Vec<f32> {
        assert_eq!(dense.len(), self.dense_len, "packed length mismatch");
        let mut full = vec![0.0f32; total];
        for &(s, e, d) in &self.ranges {
            full[s..e].copy_from_slice(&dense[d..d + (e - s)]);
        }
        full
    }

    /// Packs a full-length vector down to the owned ranges.
    #[must_use]
    pub fn pack(&self, full: &[f32]) -> Vec<f32> {
        let mut dense = vec![0.0f32; self.dense_len];
        for &(s, e, d) in &self.ranges {
            dense[d..d + (e - s)].copy_from_slice(&full[s..e]);
        }
        dense
    }
}

/// The comm thread's resident optimizer storage: packed dense over the
/// ranges this rank owns, for every strategy — `OP1.UPD` never touches an
/// element outside them, so `Ddp` under DeAR is `Zero1`'s layout. WFBP
/// updates every element on every rank: its map is the world-1 one, the
/// whole model. The exchange format (checkpoints, re-partitioning) stays
/// full-length.
struct OptimStore {
    map: ShardMap,
    total: usize,
    /// Allocated by the first update.
    velocity: Vec<f32>,
    /// Allocated by the first Adam update.
    second_moment: Vec<f32>,
}

impl OptimStore {
    fn new(layout: &CommLayout, rank: usize, world: usize, mode: PipelineMode) -> OptimStore {
        let (rank, world) = match mode {
            PipelineMode::Dear => (rank, world),
            PipelineMode::Wfbp => (0, 1),
        };
        OptimStore {
            map: ShardMap::build(layout, rank, world),
            total: layout.groups.iter().map(|g| g.elements).sum(),
            velocity: Vec::new(),
            second_moment: Vec::new(),
        }
    }

    /// Resident optimizer-state bytes on this rank right now.
    fn resident_bytes(&self) -> usize {
        (self.velocity.len() + self.second_moment.len()) * std::mem::size_of::<f32>()
    }

    /// Full-length (exchange-format) copy of the velocity vector; zeros if
    /// no update has run.
    fn export_velocity(&self) -> Vec<f32> {
        if self.velocity.is_empty() {
            return vec![0.0; self.total];
        }
        self.map.expand(&self.velocity, self.total)
    }

    /// Full-length copy of the second moment; empty if Adam never stepped.
    fn export_second_moment(&self) -> Vec<f32> {
        if self.second_moment.is_empty() {
            return Vec::new();
        }
        self.map.expand(&self.second_moment, self.total)
    }

    /// Installs full-length (exchange-format) state, packed to the shard.
    fn import(&mut self, velocity: &[f32], second_moment: &[f32]) {
        self.velocity = self.map.pack(velocity);
        self.second_moment = if second_moment.is_empty() {
            Vec::new()
        } else {
            self.map.pack(second_moment)
        };
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
    /// buffer to return with it (empty under ZeRO-2, whose reduce-scatter
    /// consumed it — the training thread re-sizes an empty buffer).
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

/// `OP1.UPD`: applies the optimizer to the part of one group this rank owns
/// after the reduce-scatter — for every item, the intersection of its extent
/// with `owned` (WFBP owns the whole group). `gbuf` holds the reduced
/// gradient sums starting at group coordinate `gshift` (zero for a
/// full-length buffer, `owned.start` for ZeRO-2's compact shard) — pure
/// index arithmetic, so every strategy computes bit-identical updates.
/// Each intersection is updated over zipped
/// sub-slices: the same per-element operations in the same order as an
/// indexed loop, with the bounds checks hoisted out so the loop vectorises.
#[allow(clippy::too_many_arguments)]
fn update_owned_shard(
    meta: &CommGroupMeta,
    owned: &Range<usize>,
    gbuf: &[f32],
    gshift: usize,
    params: &mut [f32],
    store: &mut OptimStore,
    hyper: &HyperParams,
    inv_p: f32,
    adam_step: u64,
) {
    let (lr, wd) = (hyper.lr, hyper.weight_decay);
    let resident = store.map.dense_len();
    if store.velocity.len() != resident {
        store.velocity = vec![0.0; resident];
    }
    // `(lo, hi, global offset of lo)` of every non-empty item ∩ owned run.
    let runs = meta.items.iter().filter_map(|&(off, len, goff)| {
        let lo = owned.start.max(off);
        let hi = owned.end.min(off + len);
        (lo < hi).then(|| (lo, hi, goff + (lo - off)))
    });
    match hyper.kind {
        OptimKind::Sgd => {
            let momentum = hyper.momentum;
            for (lo, hi, gidx) in runs {
                let vbase = store.map.dense_of(gidx);
                let velocity = &mut store.velocity[vbase..vbase + (hi - lo)];
                let grads = &gbuf[lo - gshift..hi - gshift];
                for ((p, &gsum), v) in params[lo..hi].iter_mut().zip(grads).zip(velocity) {
                    let g = gsum * inv_p + wd * *p;
                    *v = momentum * *v + g;
                    *p -= lr * *v;
                }
            }
        }
        OptimKind::Adam { beta1, beta2, eps } => {
            if store.second_moment.len() != resident {
                store.second_moment = vec![0.0; resident];
            }
            // Bias correction in f64: 1 − βᵗ underflows f32 precision once
            // βᵗ ≈ 1 − 1e-7 (β₂ = 0.999 reaches that within ~7 steps of t
            // where f32 rounding shows).
            let bias1 = (1.0 - f64::from(beta1).powi(adam_step as i32)) as f32;
            let bias2 = (1.0 - f64::from(beta2).powi(adam_step as i32)) as f32;
            for (lo, hi, gidx) in runs {
                let vbase = store.map.dense_of(gidx);
                let first = &mut store.velocity[vbase..vbase + (hi - lo)];
                let second = &mut store.second_moment[vbase..vbase + (hi - lo)];
                let grads = &gbuf[lo - gshift..hi - gshift];
                for (((p, &gsum), m), s) in
                    params[lo..hi].iter_mut().zip(grads).zip(first).zip(second)
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
    /// Momentum coefficient in `[0, 1)` (SGD only).
    pub momentum: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// The update rule.
    pub kind: OptimKind,
}

/// The comm thread's sharded optimizer state, exportable for
/// checkpointing and importable on resume. `velocity` doubles as Adam's
/// first moment; `second_moment` is empty unless Adam has stepped. All
/// vectors are keyed by **global flat offset**, with non-owned elements
/// zero — each rank checkpoints and restores its own shard (under WFBP,
/// every rank's shard is the whole model).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OptimState {
    /// SGD velocity / Adam first moment, one element per model parameter.
    pub velocity: Vec<f32>,
    /// Adam second moment (empty for SGD).
    pub second_moment: Vec<f32>,
    /// Adam step counter (bias correction), shared by all shards.
    pub adam_step: u64,
}

/// Jobs posted by the training thread.
#[derive(Debug)]
pub enum CommJob {
    /// DeAR OP1: reduce-scatter `grads`, update the owned shard of
    /// `params` in place, stash both for the flush. The job *moves* the
    /// group's two circulating buffers to the comm thread; the matching
    /// [`CommResult::Params`] moves them back (DESIGN.md §4.17).
    RsUpdate {
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
    /// WFBP: all-reduce `grads` in place to their sums and stash both
    /// buffers for the flush's update. Like `RsUpdate`, the job moves the
    /// group's two circulating buffers to the comm thread.
    AllReduce {
        /// Group id.
        group: usize,
        /// Flat gradients (group order).
        grads: Vec<f32>,
        /// Flat parameters (group order).
        params: Vec<f32>,
    },
    /// Broadcast `value` from `root` to all ranks (BO buffer-size sync).
    Broadcast {
        /// Root rank.
        root: usize,
        /// The value broadcast (only the root's value matters).
        value: f64,
    },
    /// Synchronize all ranks.
    Barrier,
    /// Install a new fusion layout (BO re-bucketing). Optimizer state is
    /// keyed by global offsets, so it survives.
    Reconfigure {
        /// The new layout.
        layout: CommLayout,
    },
    /// Replace the optimizer hyper-parameters (e.g. a learning-rate
    /// schedule step). Applies to subsequent updates.
    SetHyper(HyperParams),
    /// Clone the sharded optimizer state for checkpointing, replying with
    /// [`CommResult::OptimState`]. Must be posted at an iteration boundary.
    ExportOptimState,
    /// Replace the sharded optimizer state (checkpoint resume). Must be
    /// posted at an iteration boundary, before the first `RsUpdate`.
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
    /// rides the f32 control path, so it must stay below 2^24.
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
    /// `RsUpdate` or `AllReduce` shipped, together with that job's spent
    /// gradient buffer.
    Params {
        /// Group id.
        group: usize,
        /// Flat parameters.
        params: Vec<f32>,
        /// The group's gradient buffer, contents spent — the next
        /// iteration's staging area. Empty under ZeRO-2, whose
        /// reduce-scatter consumes the full-length buffer.
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
    /// Resident optimizer-state bytes on this rank (velocity plus second
    /// moment, dense over the owned shard).
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
// message per link (per segment) at worst; a transport must take them all.
const _: () = assert!(SEND_AHEAD_WINDOW < MIN_LINK_FRAMES);

/// Elements of the largest chunk any group of `layout` splits into.
fn largest_chunk(layout: &CommLayout, world: usize) -> usize {
    layout
        .groups
        .iter()
        .map(|g| chunk_range(g.elements, world, 0).len())
        .max()
        .unwrap_or(0)
}

/// How far ahead the comm thread may send when the largest chunk has
/// `largest_chunk` elements: the full window while the head op plus a full
/// window of ops ahead, each with that chunk's segments unreceived, fit
/// the [`MIN_LINK_FRAMES`] every transport guarantees — else not at all (a
/// segmented run falls back to one op at a time).
fn send_ahead_window(largest_chunk: usize, segments: SegmentConfig) -> usize {
    if (SEND_AHEAD_WINDOW + 1) * segments.num_segments(largest_chunk) <= MIN_LINK_FRAMES {
        SEND_AHEAD_WINDOW
    } else {
        0
    }
}

/// A ring collective the comm thread has begun and not yet finished,
/// with the group buffers that travel with it.
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
    layout: CommLayout,
    hyper: HyperParams,
    /// Segmenting and wire dtype of the gradient/parameter data path.
    segments: SegmentConfig,
    /// The control path must stay bit-exact regardless of the run's wire
    /// dtype: `Broadcast` ships an f64 as two f32 bit-words (any rounding
    /// corrupts the value), and `Reconfigure` redistributes optimizer state
    /// that checkpoints expect unrounded. Only the data path (RsUpdate /
    /// Flush / AllReduce) uses the narrow wire.
    control: SegmentConfig,
    strategy: ParallelismStrategy,
    mode: PipelineMode,
    jobs: &'a Receiver<CommJob>,
    results: &'a Sender<CommResult>,
    world: usize,
    rank: usize,
    /// Optimizer state of the owned shard; re-packed on re-bucketing.
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
    /// Ops that may be begun ahead of the head ([`send_ahead_window`]); set
    /// by [`Self::open_window`].
    window: usize,
}

impl<T: Transport> CommThread<'_, T> {
    fn run(&mut self) {
        self.open_window();
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

    /// Sizes the send-ahead window for the current layout and world, and
    /// stocks the transport's pool with the wire buffers a full window has
    /// in use at once. How far ahead the thread actually gets depends on
    /// when jobs arrive, so without the stock the first step to fill the
    /// window — any step, however late — would have to allocate them.
    fn open_window(&mut self) {
        let chunk = largest_chunk(&self.layout, self.world);
        self.window = send_ahead_window(chunk, self.segments);
        let bytes = chunk * self.segments.wire.size_bytes();
        let stock: Vec<_> = (0..=self.window)
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
        ring_advance(
            &self.transport,
            &mut head.ring,
            &mut head.data,
            self.segments,
        )?;
        // The head has posted its last send: the ops behind it may post
        // their first before it blocks on its last receive.
        self.fill()?;
        let InFlight {
            ring,
            mut data,
            other,
            ..
        } = self.inflight.pop_front().expect("the head is in flight");
        let valid = ring_finish(&self.transport, ring, &mut data, self.segments)?;
        span.end();
        match kind {
            RingKind::ReduceScatter(_) => self.update_and_stash(group, valid, data, other),
            RingKind::AllGather { .. } => self.reply(CommResult::Params {
                group,
                params: data,
                grads: other,
            }),
            // WFBP: the sums wait in the stash for the flush's update.
            RingKind::AllReduce(_) => self.stash.push((
                group,
                StashEntry::Full {
                    params: other,
                    grads: data,
                },
            )),
        }
        Ok(true)
    }

    /// Begins ring ops while the ordering rule and the window allow: the
    /// next op's first send may go out once every op before it has posted
    /// its last, and at most `window` ops run ahead of the head.
    fn fill(&mut self) -> Result<(), CollectiveError> {
        while self.inflight.len() <= self.window
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
    /// parameters arrive first — FeedPipe), else the `RsUpdate` or
    /// `AllReduce` at the front of the backlog.
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
                Some(CommJob::RsUpdate {
                    group,
                    grads,
                    params,
                }) => (group, RingKind::ReduceScatter(ReduceOp::Sum), grads, params),
                Some(CommJob::AllReduce {
                    group,
                    grads,
                    params,
                }) => (group, RingKind::AllReduce(ReduceOp::Sum), grads, params),
                // Any other job waits until nothing is in flight.
                Some(other) => {
                    self.backlog.push_front(other);
                    return Ok(None);
                }
                None => return Ok(None),
            }
        };
        debug_assert_eq!(data.len(), self.layout.groups[group].elements);
        let span = self
            .inflight
            .is_empty()
            .then(|| trace::span(TaskKind::Communication, || op_label(kind, group)));
        let ring = ring_begin(&self.transport, kind, &mut data, self.segments)?;
        Ok(Some(InFlight {
            group,
            ring,
            data,
            other,
            span,
        }))
    }

    /// The rest of DeAR's OP1 once the group's reduce-scatter has left
    /// `owned` of `grads` reduced: `OP1.UPD`, then park the group for OP2.
    fn update_and_stash(
        &mut self,
        group: usize,
        owned: Range<usize>,
        grads: Vec<f32>,
        mut params: Vec<f32>,
    ) {
        if self.stash.is_empty() {
            // First group of a new iteration: advance the Adam step (bias
            // correction is per-iteration, shared by shards).
            self.adam_step += 1;
        }
        // ZeRO-2 takes the RS-only completion point: the reduced shard is
        // compacted and the full-length gradient buffer released before
        // the update even starts. `gshift` re-bases group coordinates into
        // `gbuf` — zero when the buffer is full-length, `owned.start` when
        // it is the compact shard. Pure index arithmetic, so every strategy
        // computes bit-identical updates.
        let (gbuf, gshift) = if self.strategy.shards_grad_stash() {
            (compact_owned_shard(grads, &owned), owned.start)
        } else {
            (grads, 0)
        };
        // Optimizer update on the owned shard only; every element is owned
        // by exactly one rank, so the union of shards is the full S-SGD
        // update of Eq. 2.
        self.update(group, &owned, &gbuf, gshift, &mut params);
        let entry = if self.strategy.shards_grad_stash() {
            // Only the owned chunk is live between OP1 and OP2: the
            // all-gather redistributes it and overwrites the rest. The
            // spent compact shard is exactly that long, so it becomes the
            // chunk's storage; the full-length parameter buffer is released
            // here.
            let mut chunk = gbuf;
            chunk.copy_from_slice(&params[owned.clone()]);
            StashEntry::Shard {
                owned,
                chunk,
                elements: self.layout.groups[group].elements,
            }
        } else {
            StashEntry::Full {
                params,
                grads: gbuf,
            }
        };
        self.stash.push((group, entry));
    }

    /// WFBP's flush, one per step: every all-reduced group is updated
    /// whole — the world-1 shard map owns every element — and goes back to
    /// the training thread.
    fn update_stash(&mut self) {
        self.adam_step += 1;
        while let Some((group, entry)) = self.stash.pop() {
            let (mut params, grads) = entry.into_buffers();
            self.update(group, &(0..params.len()), &grads, 0, &mut params);
            self.reply(CommResult::Params {
                group,
                params,
                grads,
            });
        }
    }

    /// `OP1.UPD` of `owned` of `group` from the reduced sums in `gbuf`
    /// (based at group coordinate `gshift`), under its own span.
    fn update(
        &mut self,
        group: usize,
        owned: &Range<usize>,
        gbuf: &[f32],
        gshift: usize,
        params: &mut [f32],
    ) {
        let upd = trace::span(TaskKind::Other, || format!("OP1.UPD[g{group}]"));
        update_owned_shard(
            &self.layout.groups[group],
            owned,
            gbuf,
            gshift,
            params,
            &mut self.store,
            &self.hyper,
            1.0 / self.world as f32,
            self.adam_step,
        );
        upd.end();
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
            CommJob::RsUpdate { .. } | CommJob::AllReduce { .. } => debug_assert!(self.broken),
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
                tree_broadcast_seg(&self.transport, &mut buf, root, self.control)?;
                let bits = (u64::from(buf[0].to_bits()) << 32) | u64::from(buf[1].to_bits());
                bc.end();
                self.reply(CommResult::Broadcast(f64::from_bits(bits)));
            }
            CommJob::Barrier => {
                let sp = trace::span(TaskKind::Communication, || "BARRIER".to_string());
                let mut token = [0.0f32];
                naive_all_reduce_seg(&self.transport, &mut token, ReduceOp::Sum, self.control)?;
                sp.end();
                self.reply(CommResult::BarrierDone);
            }
            CommJob::Reconfigure { layout } => {
                if !self.at_boundary("re-bucketing") {
                    return Ok(());
                }
                // WFBP's world-1 map owns every element under any layout
                // and world: nothing moves.
                if self.mode == PipelineMode::Dear {
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
                    let mut full_velocity = self.store.export_velocity();
                    ring_all_reduce_seg(
                        &self.transport,
                        &mut full_velocity,
                        ReduceOp::Sum,
                        self.control,
                    )?;
                    let mut full_second = self.store.export_second_moment();
                    if !full_second.is_empty() {
                        ring_all_reduce_seg(
                            &self.transport,
                            &mut full_second,
                            ReduceOp::Sum,
                            self.control,
                        )?;
                    }
                    sp.end();
                    self.store.map = ShardMap::build(&layout, self.rank, self.world);
                    self.store.import(&full_velocity, &full_second);
                }
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
                    self.reply(CommResult::OptimState(OptimState {
                        velocity: self.store.export_velocity(),
                        second_moment: self.store.export_second_moment(),
                        adam_step: self.adam_step,
                    }));
                }
            }
            CommJob::ImportOptimState(state) => {
                // `DistOptim::import_optim_state` has checked the lengths.
                if self.at_boundary("an optimizer-state import") {
                    self.store.import(&state.velocity, &state.second_moment);
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
                // Min over the f32 control path — exact for counters below
                // 2^24, far beyond any run this harness drives.
                let mut buf = [step as f32];
                naive_all_reduce_seg(&self.transport, &mut buf, ReduceOp::Min, self.control)?;
                sp.end();
                self.reply(CommResult::Step(buf[0] as u64));
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
/// **Cross-group send-ahead** (DESIGN.md §4.18). The ring jobs — DeAR's
/// `RsUpdate` reduce-scatters and the all-gathers of its `Flush`, WFBP's
/// `AllReduce`s — run split-phase
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
#[allow(clippy::too_many_arguments)]
pub fn run_comm_thread<T: Transport>(
    transport: T,
    layout: CommLayout,
    hyper: HyperParams,
    segments: SegmentConfig,
    strategy: ParallelismStrategy,
    mode: PipelineMode,
    trace_scope: &str,
    jobs: &Receiver<CommJob>,
    results: &Sender<CommResult>,
) {
    trace::set_thread_stream(trace_scope, "comm");
    let world = transport.world_size();
    let rank = transport.rank();
    CommThread {
        store: OptimStore::new(&layout, rank, world, mode),
        window: 0,
        transport,
        layout,
        hyper,
        segments,
        control: segments.with_wire(DType::F32),
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
mod send_ahead_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam_channel::unbounded;
    use dear_collectives::LocalFabric;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The indexed scalar loops `update_owned_shard` replaced, kept as the
    /// ground truth it must match bit for bit.
    #[allow(clippy::too_many_arguments)]
    fn indexed_update(
        meta: &CommGroupMeta,
        owned: &Range<usize>,
        gbuf: &[f32],
        gshift: usize,
        params: &mut [f32],
        store: &mut OptimStore,
        hyper: &HyperParams,
        inv_p: f32,
        adam_step: u64,
    ) {
        for &(off, len, goff) in &meta.items {
            let lo = owned.start.max(off);
            let hi = owned.end.min(off + len);
            if lo >= hi {
                continue;
            }
            let vbase = store.map.dense_of(goff + (lo - off));
            for k in lo..hi {
                let vi = vbase + (k - lo);
                let g = gbuf[k - gshift] * inv_p + hyper.weight_decay * params[k];
                match hyper.kind {
                    OptimKind::Sgd => {
                        store.velocity[vi] = hyper.momentum * store.velocity[vi] + g;
                        params[k] -= hyper.lr * store.velocity[vi];
                    }
                    OptimKind::Adam { beta1, beta2, eps } => {
                        let bias1 = (1.0 - f64::from(beta1).powi(adam_step as i32)) as f32;
                        let bias2 = (1.0 - f64::from(beta2).powi(adam_step as i32)) as f32;
                        store.velocity[vi] = beta1 * store.velocity[vi] + (1.0 - beta1) * g;
                        store.second_moment[vi] =
                            beta2 * store.second_moment[vi] + (1.0 - beta2) * g * g;
                        let m_hat = store.velocity[vi] / bias1;
                        let v_hat = store.second_moment[vi] / bias2;
                        params[k] -= hyper.lr * m_hat / (v_hat.sqrt() + eps);
                    }
                }
            }
        }
    }

    #[test]
    fn slice_updates_match_the_indexed_loops_bitwise() {
        // One group of ragged items whose global offsets are scattered, so
        // every rank's owned chunk cuts items mid-way; a full-length
        // gradient buffer (Ddp, Zero1) and a compact gradient shard, i.e.
        // `gshift` ≠ 0 (Zero2); SGD with momentum and weight decay, and
        // Adam over several steps.
        let lens = [7usize, 1, 13, 5, 67, 3];
        let goffs = [40usize, 0, 61, 8, 100, 1];
        let mut items = Vec::new();
        let mut elements = 0;
        for (&len, &goff) in lens.iter().zip(&goffs) {
            items.push((elements, len, goff));
            elements += len;
        }
        let layout = CommLayout {
            groups: vec![CommGroupMeta { items, elements }],
        };
        let meta = &layout.groups[0];
        let mut rng = StdRng::seed_from_u64(0xDEA2);
        let mut random =
            |n: usize| -> Vec<f32> { (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect() };
        for kind in [OptimKind::Sgd, OptimKind::adam_default()] {
            let hyper = HyperParams {
                lr: 0.05,
                momentum: 0.9,
                weight_decay: 1e-2,
                kind,
            };
            for strategy in [
                ParallelismStrategy::Ddp,
                ParallelismStrategy::Zero1,
                ParallelismStrategy::Zero2,
            ] {
                for world in [2usize, 3, 5] {
                    for rank in 0..world {
                        let owned = chunk_range(elements, world, ring_owned_chunk(rank, world));
                        // Zero2's gradient shard is compact: exactly the
                        // owned chunk, based at `owned.start`.
                        let (gshift, glen) = if strategy.shards_grad_stash() {
                            (owned.start, owned.len())
                        } else {
                            (0, elements)
                        };
                        let mut fast = OptimStore::new(&layout, rank, world, PipelineMode::Dear);
                        let mut slow = OptimStore::new(&layout, rank, world, PipelineMode::Dear);
                        fast.velocity = random(fast.map.dense_len());
                        slow.velocity = fast.velocity.clone();
                        let mut fast_params = random(elements);
                        let mut slow_params = fast_params.clone();
                        for adam_step in 1..=3 {
                            let gbuf = random(glen);
                            if matches!(kind, OptimKind::Adam { .. }) && adam_step == 1 {
                                slow.second_moment = vec![0.0; slow.map.dense_len()];
                            }
                            let inv_p = 1.0 / world as f32;
                            update_owned_shard(
                                meta,
                                &owned,
                                &gbuf,
                                gshift,
                                &mut fast_params,
                                &mut fast,
                                &hyper,
                                inv_p,
                                adam_step,
                            );
                            indexed_update(
                                meta,
                                &owned,
                                &gbuf,
                                gshift,
                                &mut slow_params,
                                &mut slow,
                                &hyper,
                                inv_p,
                                adam_step,
                            );
                            let bits =
                                |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                            let case = format!("{kind:?} {strategy:?} rank {rank}/{world}");
                            assert_eq!(bits(&fast_params), bits(&slow_params), "params: {case}");
                            assert_eq!(
                                bits(&fast.velocity),
                                bits(&slow.velocity),
                                "velocity: {case}"
                            );
                            assert_eq!(
                                bits(&fast.second_moment),
                                bits(&slow.second_moment),
                                "second moment: {case}"
                            );
                        }
                    }
                }
            }
        }
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
        let layout = CommLayout {
            groups: vec![CommGroupMeta {
                items: vec![(0, 4, 0)],
                elements: 4,
            }],
        };
        let hyper = HyperParams {
            lr: 0.1,
            momentum: 0.0,
            weight_decay: 0.0,
            kind: OptimKind::Sgd,
        };
        let scope = crate::trace::unique_scope(0);
        let comm = std::thread::spawn(move || {
            run_comm_thread(
                ep,
                layout,
                hyper,
                SegmentConfig::MONOLITHIC,
                ParallelismStrategy::Ddp,
                PipelineMode::Dear,
                &scope,
                &job_rx,
                &res_tx,
            );
        });
        job_tx
            .send(CommJob::RsUpdate {
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
