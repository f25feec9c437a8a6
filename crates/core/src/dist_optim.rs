//! `DistOptim` — the user-facing distributed optimizer of the paper's
//! Listing 1, driving BackPipe and FeedPipe over the comm thread.

use crossbeam_channel::{Receiver, Sender};

use dear_collectives::{CollectiveError, WorldChange};
use dear_fusion::GroupTracker;
use dear_minidnn::{softmax_cross_entropy, ParamStore, Sequential, Tensor};

use crate::comm::{CommJob, CommResult, HyperParams, OptimKind, OptimState};
use crate::layout::GroupLayout;
use crate::trace::{self, TaskKind};

/// Which pipelining scheme the runtime uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineMode {
    /// DeAR: reduce-scatter during backprop, shard update comm-side,
    /// all-gather of updated parameters during the next feed-forward.
    Dear,
    /// WFBP baseline: per-group all-reduce during backprop; once the last
    /// group is reduced the comm thread updates every group, whole, with
    /// the same update rule as DeAR (its state covers every group whole),
    /// and the step waits for it.
    Wfbp,
}

/// The distributed optimizer: wraps a network's training step with
/// asynchronous gradient communication.
///
/// Mirrors the paper's Listing 1: construct once per worker, call
/// [`DistOptim::train_step`] per mini-batch, and [`DistOptim::synchronize`]
/// before evaluating or reading parameters.
///
/// There is one copy of the model (DESIGN.md §4.17): the network's
/// [`ParamStore`], packed so that every fusion group is one segment. A
/// completed group's parameter and gradient buffers are *taken* out of the
/// store and moved to the comm thread; its reply *puts* them back. Between
/// the two — after a DeAR `train_step`, until `synchronize` — the network
/// cannot be read: that is a panic, not a stale value.
///
/// A failure of the fabric never panics a method here: it comes back as a
/// typed error and latches until [`DistOptim::resize_world`]. The comm
/// thread outlives such failures; only if it has itself died of a bug does
/// every method that talks to it panic.
pub struct DistOptim {
    rank: usize,
    world: usize,
    mode: PipelineMode,
    layout: GroupLayout,
    tracker: GroupTracker,
    jobs: Sender<CommJob>,
    results: Receiver<CommResult>,
    /// Outstanding `Params` results not yet received.
    pending: usize,
    /// The configured update rule, re-sent with every hyper-parameter
    /// change.
    kind: OptimKind,
    iter: u64,
    /// Start of the currently-open feed-forward trace segment, if tracing.
    fw_seg: Option<std::time::Instant>,
    /// First collective failure reported by the comm thread, latched until
    /// a successful [`DistOptim::resize_world`] clears it. While set, the
    /// fabric is broken: steps are refused with this error.
    comm_failed: Option<CollectiveError>,
}

impl std::fmt::Debug for DistOptim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistOptim")
            .field("rank", &self.rank)
            .field("world", &self.world)
            .field("mode", &self.mode)
            .field("groups", &self.layout.num_groups())
            .field("iter", &self.iter)
            .finish()
    }
}

impl DistOptim {
    /// Builds the optimizer and posts `layout` to the comm thread, which
    /// holds the layout of no tensors until then. Called by the cluster
    /// runner; see [`crate::run_training`] for the user entry point.
    #[must_use]
    #[allow(clippy::too_many_arguments)] // internal constructor, one call site
    pub(crate) fn new(
        rank: usize,
        world: usize,
        mode: PipelineMode,
        layout: GroupLayout,
        jobs: Sender<CommJob>,
        results: Receiver<CommResult>,
        kind: OptimKind,
        trace_scope: &str,
    ) -> Self {
        // The training loop runs on the constructing thread; name its
        // stream so fw/bw spans pair with this worker's comm stream.
        trace::set_thread_stream(trace_scope, "compute");
        let tracker = GroupTracker::new(layout.plan());
        let optim = DistOptim {
            rank,
            world,
            mode,
            layout,
            tracker,
            jobs,
            results,
            pending: 0,
            kind,
            iter: 0,
            fw_seg: None,
            comm_failed: None,
        };
        optim.post(CommJob::Reconfigure {
            layout: optim.layout.clone(),
        });
        optim
    }

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

    /// Iterations completed.
    #[must_use]
    pub fn iterations(&self) -> u64 {
        self.iter
    }

    /// Number of fusion groups under the current plan.
    #[must_use]
    pub fn num_groups(&self) -> usize {
        self.layout.num_groups()
    }

    /// The first collective failure reported by the comm thread, if the
    /// fabric is currently broken. Cleared by [`DistOptim::resize_world`].
    #[must_use]
    pub fn comm_failed(&self) -> Option<&CollectiveError> {
        self.comm_failed.as_ref()
    }

    /// Records a comm-thread failure and releases every wait: the in-flight
    /// iteration is abandoned and outstanding results will never arrive, so
    /// the FeedPipe stops waiting and the forward pass stops with it. The
    /// buffers the comm thread held went down with the step: those groups'
    /// segments stay absent from the store until the caller's rollback
    /// (`set_flat_params`) re-creates them — the caller must discard the
    /// step and either resize or tear down.
    fn comm_fail(&mut self, e: CollectiveError) {
        if self.comm_failed.is_none() {
            self.comm_failed = Some(e);
        }
        self.pending = 0;
    }

    /// `Err` with the latched failure while the fabric is broken.
    fn check(&self) -> Result<(), CollectiveError> {
        self.comm_failed.clone().map_or(Ok(()), Err)
    }

    /// Every control call is collective and made at an iteration boundary;
    /// one made with communication outstanding is a bug in the caller.
    fn assert_synchronized(&self, what: &str) {
        assert_eq!(self.pending, 0, "{what} requires a synchronized state");
    }

    /// Posts a job that has no reply of its own. The comm thread outlives
    /// every failure of the fabric; it is gone only if it panicked.
    fn post(&self, job: CommJob) {
        self.jobs.send(job).expect("comm thread hung up");
    }

    /// The one place results come off the channel. `take` has first
    /// refusal; what it leaves is filed here: a group's buffers go back
    /// into `store` (ZeRO-2 returns another parameter allocation than it
    /// was sent, and no gradient buffer; the store makes one), an `Error`
    /// latches. Anything else — a reply nobody asked for, buffers with no
    /// store to put them in — means the two threads of this crate disagree
    /// about their protocol. `None` unless `take` took the result.
    fn recv<R>(
        &mut self,
        store: Option<&mut ParamStore>,
        take: impl FnOnce(CommResult) -> Result<R, CommResult>,
    ) -> Option<R> {
        let result = self.results.recv().expect("comm thread hung up");
        let unexpected = match (take(result), store) {
            (Ok(reply), _) => return Some(reply),
            (
                Err(CommResult::Params {
                    group,
                    params,
                    grads,
                }),
                Some(store),
            ) => {
                self.pending -= 1;
                store.put_params(group, params);
                store.put_grads(group, grads);
                return None;
            }
            (Err(CommResult::Error(e)), _) => {
                self.comm_fail(e);
                return None;
            }
            (Err(other), _) => other,
        };
        panic!("unexpected comm result: {unexpected:?}");
    }

    /// Receives until no result is outstanding — each one filed in `store`
    /// — or the step is abandoned (`comm_fail` zeroes `pending`: nothing
    /// more is coming).
    fn drain(&mut self, store: &mut ParamStore) {
        while self.pending > 0 {
            self.recv(Some(&mut *store), Err::<(), _>);
        }
    }

    /// The one door for control calls: posts `job` and waits for the reply
    /// `take` accepts. Refused with the latched error while the fabric is
    /// broken — the result channel may then hold stragglers of the
    /// abandoned step, which only [`DistOptim::resize_world`] drains — and
    /// a [`CommResult::Error`] in place of the reply latches and is
    /// returned.
    fn request<R>(
        &mut self,
        what: &str,
        job: CommJob,
        take: impl FnOnce(CommResult) -> Result<R, CommResult>,
    ) -> Result<R, CollectiveError> {
        self.assert_synchronized(what);
        self.check()?;
        self.post(job);
        let reply = self.recv(None, take);
        reply.ok_or_else(|| self.comm_failed.clone().expect("an `Error` reply latches"))
    }

    /// Runs one training step — feed-forward (waiting just-in-time on the
    /// previous iteration's all-gathers in DeAR mode), loss, backprop (with
    /// gradient communication chasing it), and the update. Returns the
    /// mini-batch loss.
    ///
    /// This is the canonical, `Result`-returning form: collective failures
    /// (peer death, abort by the failure detector) surface as a typed error
    /// instead of a panic. On `Err` the step — and possibly the previous
    /// step's parameter update — is invalid: roll back to a known-good
    /// snapshot, [`DistOptim::resize_world`], agree on the resume step, and
    /// retry.
    ///
    /// # Errors
    ///
    /// Returns the first collective failure the comm thread reported. The
    /// error latches: further calls keep failing until a successful
    /// [`DistOptim::resize_world`].
    ///
    /// # Panics
    ///
    /// Panics if the comm thread has died or label/batch shapes mismatch.
    pub fn train_step(
        &mut self,
        net: &mut Sequential,
        input: &Tensor,
        labels: &[usize],
    ) -> Result<f32, CollectiveError> {
        self.check()?;
        let loss = self.train_step_inner(net, input, labels);
        self.check().map(|()| loss)
    }

    fn train_step_inner(&mut self, net: &mut Sequential, input: &Tensor, labels: &[usize]) -> f32 {
        let iter = self.iter;
        // A group's buffers are a segment's: pack the store to the layout
        // the first time a step runs under it.
        if net.store().segmentation() != self.layout.segmentation() {
            net.store_mut().repack(self.layout.segmentation());
        }
        // FeedPipe: per-layer just-in-time parameter delivery. The FF
        // phase is recorded in segments that *exclude* the JIT waits
        // (`wait_for_group` closes the open segment), so stalled all-gather
        // time is not miscounted as hidden communication.
        if trace::enabled() {
            self.fw_seg = Some(std::time::Instant::now());
        }
        let logits = net.try_forward_with_hook(input, |li, store| self.pre_forward(li, store));
        if let Some(seg) = self.fw_seg.take() {
            trace::span_starting_at(seg, TaskKind::FeedForward, || format!("FF[{iter}]")).end();
        }
        // The comm thread abandoned the step; `train_step` reports why.
        let Some(logits) = logits else {
            return f32::NAN;
        };
        let (loss, dloss) = softmax_cross_entropy(&logits, labels);
        // BackPipe: communication launched as gradients become ready. The
        // hook never blocks (jobs go to an unbounded channel), so this span
        // is pure compute.
        let bp = trace::span(TaskKind::Backprop, || format!("BP[{iter}]"));
        net.backward_with_hook(&dloss, |li, store| self.grad_ready(li, store));
        bp.end();
        self.finish_iteration(net);
        loss
    }

    /// FeedPipe hook: before layer `li` computes, make sure the parameters
    /// of the previous iteration's update are back in the store. `false`
    /// if they will never be: the step was abandoned.
    fn pre_forward(&mut self, li: usize, store: &mut ParamStore) -> bool {
        for i in 0..self.layout.gating_groups(li).len() {
            self.wait_for_group(self.layout.gating_groups(li)[i], store);
        }
        self.comm_failed.is_none()
    }

    /// Blocks until group `g`'s parameters have arrived, or the step is
    /// abandoned.
    fn wait_for_group(&mut self, g: usize, store: &mut ParamStore) {
        if store.has_params(g) || self.comm_failed.is_some() {
            return;
        }
        // Close the open feed-forward segment: time spent blocked here is a
        // stall, not compute, and must not cover communication spans.
        let iter = self.iter;
        let wait = self.fw_seg.take().map(|seg| {
            trace::span_starting_at(seg, TaskKind::FeedForward, || format!("FF[{iter}]")).end();
            trace::span(TaskKind::Other, || format!("FFWAIT[g{g}]"))
        });
        // If the comm thread abandons the step, the latched failure ends
        // this wait.
        while !store.has_params(g) && self.comm_failed.is_none() {
            self.recv(Some(&mut *store), Err::<(), _>);
        }
        if let Some(w) = wait {
            w.end();
            self.fw_seg = Some(std::time::Instant::now());
        }
    }

    /// BackPipe hook: layer `li` has written its gradients into the store.
    /// Every group this completes is launched: its buffers leave the store
    /// and move to the comm thread with the job.
    fn grad_ready(&mut self, li: usize, store: &mut ParamStore) {
        for pi in 0..self.layout.num_params(li) {
            let Some(done) = self.tracker.mark_ready(self.layout.item_of(li, pi)) else {
                continue;
            };
            self.post(CommJob::Reduce {
                group: done,
                grads: store.take_grads(done),
                params: store.take_params(done),
            });
        }
    }

    /// Ends the iteration with the flush: DeAR's all-gathers are consumed
    /// lazily by the next forward; WFBP's update is part of the step, so
    /// its updated groups are collected before it returns.
    fn finish_iteration(&mut self, net: &mut Sequential) {
        assert!(
            self.tracker.all_complete(),
            "not all gradients were produced"
        );
        self.post(CommJob::Flush);
        self.pending += self.layout.num_groups();
        if self.mode == PipelineMode::Wfbp {
            self.drain(net.store_mut());
        }
        self.tracker.reset();
        self.iter += 1;
    }

    /// Forces all outstanding communication to complete, which brings every
    /// group's buffers back into the store — the paper's
    /// `optim.synchronize()` before validation (Listing 1, line 12).
    ///
    /// On `Err` the groups that never arrived are absent from the store
    /// (reading them panics); roll back to a snapshot with
    /// `set_flat_params` after resizing.
    ///
    /// # Errors
    ///
    /// Returns the latched collective failure, if any.
    ///
    /// # Panics
    ///
    /// Panics if the comm thread has died.
    pub fn synchronize(&mut self, net: &mut Sequential) -> Result<(), CollectiveError> {
        self.drain(net.store_mut());
        self.check()
    }

    /// Broadcasts `value` from `root` to all ranks (used to agree on a new
    /// BO-suggested buffer size). Must be called at an iteration boundary
    /// after [`DistOptim::synchronize`], collectively by all ranks.
    ///
    /// # Errors
    ///
    /// Returns the collective failure that broke the broadcast, or the
    /// latched one if the fabric was already broken.
    ///
    /// # Panics
    ///
    /// Panics if called with communication outstanding.
    pub fn broadcast_value(&mut self, root: usize, value: f64) -> Result<f64, CollectiveError> {
        self.request(
            "broadcast",
            CommJob::Broadcast { root, value },
            |r| match r {
                CommResult::Broadcast(v) => Ok(v),
                other => Err(other),
            },
        )
    }

    /// Synchronizes all ranks. Must be called collectively at an iteration
    /// boundary.
    ///
    /// # Errors
    ///
    /// Returns the collective failure that broke the barrier, or the
    /// latched one if the fabric was already broken.
    ///
    /// # Panics
    ///
    /// Panics if called with communication outstanding.
    pub fn barrier(&mut self) -> Result<(), CollectiveError> {
        self.request("barrier", CommJob::Barrier, |r| match r {
            CommResult::BarrierDone => Ok(()),
            other => Err(other),
        })
    }

    /// The resident optimizer-state bytes on this rank right now (velocity
    /// plus Adam second moment, dense over the owned shard: under DeAR
    /// ~`1/world` of the model per vector under every strategy, under WFBP
    /// the whole model per vector on every rank). Zero before the first
    /// update, and under SGD without momentum, which keeps no state.
    /// Purely local — no communication. This is what the ZeRO memory
    /// assertions read.
    ///
    /// # Errors
    ///
    /// Returns the latched failure while the fabric is broken.
    ///
    /// # Panics
    ///
    /// Panics if called with communication outstanding.
    pub fn optim_state_bytes(&mut self) -> Result<usize, CollectiveError> {
        self.request(
            "optimizer-byte query",
            CommJob::QueryOptimBytes,
            |r| match r {
                CommResult::OptimBytes(bytes) => Ok(bytes),
                other => Err(other),
            },
        )
    }

    /// Replaces the optimizer hyper-parameters (learning-rate schedules,
    /// momentum changes) under the configured update rule, whose state —
    /// velocity, Adam's moments and step count — carries on; `momentum` is
    /// SGD's and ignored under Adam. Must be called collectively at an
    /// iteration boundary with the same values on every rank.
    ///
    /// # Panics
    ///
    /// Panics if called with communication outstanding, or if the values
    /// are invalid (non-positive learning rate, momentum outside `[0, 1)`).
    pub fn set_hyper(&mut self, lr: f32, momentum: f32, weight_decay: f32) {
        self.assert_synchronized("hyper change");
        assert!(lr.is_finite() && lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        self.post(CommJob::SetHyper(HyperParams {
            lr,
            momentum,
            weight_decay,
            kind: self.kind,
        }));
    }

    /// Clones the comm thread's sharded optimizer state for checkpointing
    /// (under WFBP every rank's shard is the whole model).
    /// Must be called at an iteration boundary after
    /// [`DistOptim::synchronize`]. Purely local — no communication.
    ///
    /// # Errors
    ///
    /// Returns the latched failure while the fabric is broken.
    ///
    /// # Panics
    ///
    /// Panics if called with communication outstanding.
    pub fn export_optim_state(&mut self) -> Result<OptimState, CollectiveError> {
        self.request(
            "optimizer-state export",
            CommJob::ExportOptimState,
            |r| match r {
                CommResult::OptimState(state) => Ok(state),
                other => Err(other),
            },
        )
    }

    /// Replaces the comm thread's sharded optimizer state (checkpoint
    /// resume). Must be called at an iteration boundary before the next
    /// [`DistOptim::train_step`]. Purely local — no communication.
    ///
    /// # Errors
    ///
    /// Returns [`CollectiveError::SizeMismatch`] if a vector of `state` is
    /// neither as long as the model nor empty (no state of that kind): a
    /// checkpoint of another model. Nothing was imported; the optimizer
    /// goes on as it was.
    ///
    /// # Panics
    ///
    /// Panics if called with communication outstanding.
    pub fn import_optim_state(&mut self, state: OptimState) -> Result<(), CollectiveError> {
        self.assert_synchronized("optimizer-state import");
        let expected = self.layout.total_elements();
        for vector in [&state.velocity, &state.second_moment] {
            if !vector.is_empty() && vector.len() != expected {
                let actual = vector.len();
                return Err(CollectiveError::SizeMismatch { expected, actual });
            }
        }
        self.post(CommJob::ImportOptimState(state));
        Ok(())
    }

    /// Installs a new fusion buffer size (the BO re-bucketing step). Must
    /// be called collectively at an iteration boundary after
    /// [`DistOptim::synchronize`], with the same value on every rank —
    /// pair with [`DistOptim::broadcast_value`]. The next step re-packs the
    /// network's store to the new groups; parameters carry over. Groups
    /// are sized in bytes of the run's wire dtype, which stays the same.
    ///
    /// # Panics
    ///
    /// Panics if called with communication outstanding.
    pub fn set_fusion_buffer(&mut self, net: &Sequential, buffer_bytes: Option<u64>) {
        self.assert_synchronized("re-bucketing");
        let layout = GroupLayout::from_buffer_wire(net, buffer_bytes, self.layout.wire());
        self.post(CommJob::Reconfigure {
            layout: layout.clone(),
        });
        self.tracker = GroupTracker::new(layout.plan());
        self.layout = layout;
    }

    /// Resizes the world in place after peer loss (or to admit a late
    /// joiner): re-runs rendezvous through the comm thread's transport and
    /// adopts the new dense rank and world size. Clears the latched failure
    /// on success, so training can continue on the survivors. Must be
    /// called concurrently by every surviving rank at an iteration
    /// boundary; pair with [`DistOptim::agree_min_step`], a rollback to a
    /// known-good snapshot, and [`DistOptim::rebalance_optim_state`].
    ///
    /// This is the one call that talks to a broken comm thread: stale
    /// results from the abandoned step (parameters, queued errors) are
    /// drained and discarded together with the group buffers they carry
    /// (the rollback's `set_flat_params` re-creates those segments) — the
    /// FIFO job channel guarantees everything enqueued before the resize
    /// replies first.
    ///
    /// # Errors
    ///
    /// Returns [`CollectiveError::Reconfigure`] if the resize was refused
    /// (mid-step, no quorum) or the rendezvous failed; the failed state is
    /// left latched.
    pub fn resize_world(
        &mut self,
        survivors: Option<Vec<usize>>,
    ) -> Result<WorldChange, CollectiveError> {
        self.post(CommJob::ResizeWorld { survivors });
        let change = loop {
            // `take` takes every result: stragglers are dropped right here.
            let resized = self.recv(None, |r| {
                Ok(match r {
                    CommResult::Resized(outcome) => Some(outcome),
                    _straggler => None,
                })
            });
            if let Some(outcome) = resized.flatten() {
                break outcome?;
            }
        };
        self.rank = change.new_rank;
        self.world = change.new_world;
        self.comm_failed = None;
        self.pending = 0;
        self.tracker.reset();
        Ok(change)
    }

    /// Min-allreduces `step` so every rank resumes from the same point
    /// after a resize (ranks may have been torn away at different steps).
    /// Must be called collectively, normally right after a successful
    /// [`DistOptim::resize_world`].
    ///
    /// # Errors
    ///
    /// Returns the collective failure if the agreement itself failed, or
    /// the latched one if the fabric was already broken.
    ///
    /// # Panics
    ///
    /// Panics if called with communication outstanding.
    pub fn agree_min_step(&mut self, step: u64) -> Result<u64, CollectiveError> {
        self.request("step agreement", CommJob::AgreeStep(step), |r| match r {
            CommResult::Step(s) => Ok(s),
            other => Err(other),
        })
    }

    /// Repartitions the sharded optimizer state across the (possibly just
    /// resized) world: a sum-allreduce reconstructs the full state from the
    /// per-rank shards, then each rank keeps only the shards it owns under
    /// the current layout. Shards owned by a rank that died before the
    /// resize restart from zero — a momentum-only loss with bounded
    /// disruption. Must be called collectively at an iteration boundary,
    /// after any snapshot rollback ([`DistOptim::import_optim_state`]).
    ///
    /// # Errors
    ///
    /// Returns the collective failure if the rebalance broke mid-flight; in
    /// that case the optimizer state is half-reduced and only a snapshot
    /// import may repair it. Returns the latched failure, with nothing
    /// posted, if the fabric was already broken.
    ///
    /// # Panics
    ///
    /// Panics if called with communication outstanding.
    pub fn rebalance_optim_state(&mut self) -> Result<(), CollectiveError> {
        self.assert_synchronized("shard rebalance");
        self.check()?;
        self.post(CommJob::Reconfigure {
            layout: self.layout.clone(),
        });
        // `Reconfigure` carries no reply of its own; the barrier queued
        // behind it both confirms its collectives succeeded and releases
        // all ranks past the rebalance together.
        self.barrier()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam_channel::unbounded;
    use dear_collectives::WorldChange;
    use dear_minidnn::{Linear, Relu};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One group's circulating `(params, grads)` buffers.
    type GroupBuffers = (Vec<f32>, Vec<f32>);

    /// What the step's `Reduce` jobs shipped as `params`, laid out like
    /// `Sequential::flat_params`; the jobs' buffers are returned per group.
    fn shipped(jobs: &Receiver<CommJob>, layout: &GroupLayout) -> (Vec<f32>, Vec<GroupBuffers>) {
        let mut flat = vec![f32::NAN; layout.total_elements()];
        let mut buffers = vec![(Vec::new(), Vec::new()); layout.num_groups()];
        for _ in 0..layout.num_groups() {
            let CommJob::Reduce {
                group,
                grads,
                params,
            } = jobs.try_recv().expect("one job per group")
            else {
                panic!("expected a Reduce");
            };
            assert_eq!(grads.len(), layout.group_elements(group));
            for &i in layout.items_of_group(group) {
                let it = layout.item(i);
                flat[it.global_offset..it.global_offset + it.len]
                    .copy_from_slice(&params[it.offset_in_group..it.offset_in_group + it.len]);
            }
            buffers[group] = (params, grads);
        }
        assert!(matches!(jobs.try_recv(), Ok(CommJob::Flush)));
        (flat, buffers)
    }

    /// Rank 0 of 2 under DeAR over a four-group network, with the test
    /// holding the comm thread's ends of both channels — the layout the
    /// optimizer posted on construction already taken off.
    #[allow(clippy::type_complexity)]
    fn played() -> (
        DistOptim,
        Sequential,
        GroupLayout,
        Receiver<CommJob>,
        Sender<CommResult>,
    ) {
        let mut rng = StdRng::seed_from_u64(3);
        let net = Sequential::new()
            .push(Linear::new(4, 3, &mut rng))
            .push(Relu::new())
            .push(Linear::new(3, 2, &mut rng));
        let layout = GroupLayout::from_buffer(&net, None);
        assert_eq!(layout.num_groups(), 4);
        let (job_tx, job_rx) = unbounded();
        let (res_tx, res_rx) = unbounded();
        let optim = DistOptim::new(
            0,
            2,
            PipelineMode::Dear,
            layout.clone(),
            job_tx,
            res_rx,
            OptimKind::Sgd,
            &trace::unique_scope(0),
        );
        match job_rx.try_recv() {
            Ok(CommJob::Reconfigure { layout: posted }) => {
                assert_eq!(posted.segmentation(), layout.segmentation());
            }
            other => panic!("expected the layout first, got {other:?}"),
        }
        (optim, net, layout, job_rx, res_tx)
    }

    fn resized_to_one() -> CommResult {
        CommResult::Resized(Ok(WorldChange {
            old_rank: 0,
            old_world: 2,
            new_rank: 0,
            new_world: 1,
            generation: 1,
        }))
    }

    #[test]
    fn only_delivered_parameters_are_ever_shipped_back() {
        // The test plays the comm thread. Step 1 ships the store's own
        // buffers; two of its four groups are answered, then the fabric
        // fails. Step 2 must stop at the first layer whose group was lost:
        // the delivered groups are back in the store, the lost ones are
        // absent — reading them panics — and nothing is shipped, never a
        // placeholder. A straggler drained by the resize does not bring a
        // lost group back; the rollback does, and step 3 ships it.
        let (mut optim, mut net, layout, job_rx, res_tx) = played();
        let x = Tensor::from_vec(&[2, 4], vec![0.5, -1.0, 0.25, 2.0, 1.0, 0.0, -0.5, 0.75]);
        let labels = [0usize, 1];
        // Nowhere zero, so a shipped placeholder could not pass for it.
        let initial: Vec<f32> = (0..net.param_count())
            .map(|i| 0.1 + 0.01 * i as f32)
            .collect();
        net.set_flat_params(&initial);

        optim.train_step(&mut net, &x, &labels).unwrap();
        let (flat, mut buffers) = shipped(&job_rx, &layout);
        assert_eq!(flat, initial, "the first step ships the store's buffers");
        assert!((0..4).all(|g| !net.store().has_params(g)), "by move");

        // Groups 3 and 2 (layer 0, forward order) come back "updated"; then
        // failure.
        for group in [3, 2] {
            let (mut params, grads) = std::mem::take(&mut buffers[group]);
            params.iter_mut().for_each(|p| *p += 1.0);
            res_tx
                .send(CommResult::Params {
                    group,
                    params,
                    grads,
                })
                .unwrap();
        }
        res_tx
            .send(CommResult::Error(CollectiveError::Disconnected { peer: 1 }))
            .unwrap();
        assert!(optim.train_step(&mut net, &x, &labels).is_err());
        assert!(
            job_rx.try_recv().is_err(),
            "the abandoned step ships nothing"
        );
        for (pi, group) in [(0, 2), (1, 3)] {
            let it = layout.item(layout.items_of_group(group)[0]);
            let delivered: Vec<f32> = initial[it.global_offset..it.global_offset + it.len]
                .iter()
                .map(|p| p + 1.0)
                .collect();
            assert_eq!(
                net.store().param(0, pi),
                delivered,
                "delivered group {group}"
            );
        }
        let lost = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| net.flat_params()))
            .expect_err("reading a lost group must panic");
        let message = lost.downcast_ref::<String>().expect("a formatted panic");
        assert!(message.contains("set_flat_params"), "{message}");

        // A straggler of the abandoned step, then the resize reply.
        res_tx
            .send(CommResult::Params {
                group: 0,
                params: vec![0.0; layout.group_elements(0)],
                grads: Vec::new(),
            })
            .unwrap();
        res_tx.send(resized_to_one()).unwrap();
        optim.resize_world(None).unwrap();
        assert!(matches!(
            job_rx.try_recv(),
            Ok(CommJob::ResizeWorld { survivors: None })
        ));
        assert!(!net.store().has_params(0), "a straggler is not a delivery");
        net.set_flat_params(&initial);
        optim.train_step(&mut net, &x, &labels).unwrap();
        let (flat, _) = shipped(&job_rx, &layout);
        assert_eq!(flat, initial, "the rollback is what the next step ships");
    }

    #[test]
    fn a_latched_failure_shuts_the_door_until_the_resize_drains() {
        // The test plays the comm thread. A step fails; behind the error a
        // `Params` straggler and a second `Error` are still queued. Every
        // control call is refused with the latched error — nothing posted,
        // nothing read: the straggler is not theirs to receive — and the
        // resize, the one call that talks to a broken comm thread, drains
        // both and succeeds.
        let (mut optim, mut net, layout, job_rx, res_tx) = played();
        let x = Tensor::from_vec(&[2, 4], vec![0.5, -1.0, 0.25, 2.0, 1.0, 0.0, -0.5, 0.75]);
        optim.train_step(&mut net, &x, &[0, 1]).unwrap();
        shipped(&job_rx, &layout);
        let latched = CollectiveError::Disconnected { peer: 1 };
        res_tx.send(CommResult::Error(latched.clone())).unwrap();
        assert_eq!(optim.synchronize(&mut net), Err(latched.clone()));
        res_tx
            .send(CommResult::Params {
                group: 0,
                params: vec![0.0; layout.group_elements(0)],
                grads: Vec::new(),
            })
            .unwrap();
        let second = CollectiveError::Timeout {
            peer: 1,
            millis: 10,
        };
        res_tx.send(CommResult::Error(second)).unwrap();

        assert_eq!(optim.export_optim_state(), Err(latched.clone()));
        assert_eq!(optim.optim_state_bytes(), Err(latched.clone()));
        assert_eq!(optim.barrier(), Err(latched.clone()));
        assert_eq!(optim.agree_min_step(3), Err(latched.clone()));
        assert_eq!(optim.broadcast_value(0, 1.0), Err(latched.clone()));
        assert_eq!(optim.rebalance_optim_state(), Err(latched.clone()));
        assert!(job_rx.try_recv().is_err(), "a refused call posts nothing");
        assert_eq!(optim.comm_failed(), Some(&latched), "the first error stays");

        res_tx.send(resized_to_one()).unwrap();
        assert_eq!(optim.resize_world(None).unwrap().new_world, 1);
        assert!(optim.comm_failed().is_none());
        assert!(!net.store().has_params(0), "a straggler is not a delivery");
        // The channel is empty again: the next reply is the barrier's own.
        res_tx.send(CommResult::BarrierDone).unwrap();
        optim.barrier().unwrap();
    }
}
